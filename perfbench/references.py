"""Reference values the correctness checks compare against.

Each reference is computed without wavekit, before the timed runs:

* kpp_readme: closed forms.  lambda(mu) = -(a mu^2 + l), so c* = 2 sqrt(a l)
  at mu* = sqrt(l / a), and the decay roots solve a mu^2 - c mu + l = 0.
* system_tper: the monodromy of Phi' = (L(t) + a mu^2 I) Phi integrated by
  scipy's solve_ivp at rtol 1e-12, then c* = min_mu ln(rho(mu)) / mu.
* cell_periodic: the Fourier-Hill matrix of the tilted periodic operator
  -a (d_z + mu)^2 - l(z) in 2K + 1 modes; its eigenvalue of least real part
  is lambda(mu), and c* = min_mu -lambda(mu) / mu.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

_MU_BOUNDS = (0.05, 10.0)


def _minimize_speed(g) -> tuple[float, float]:
    res = minimize_scalar(g, bounds=_MU_BOUNDS, method="bounded",
                          options={"xatol": 1e-9, "maxiter": 500})
    return float(res.fun), float(res.x)


def kpp_closed_form(factors: dict, c: float) -> dict:
    a, l = factors["a"], factors["l"]
    disc = math.sqrt(c * c - 4.0 * a * l)
    return {
        "c_star": 2.0 * math.sqrt(a * l),
        "mu_star": math.sqrt(l / a),
        "mu_wedge": (c - disc) / (2.0 * a),
        "mu_vee": (c + disc) / (2.0 * a),
    }


def tper_monodromy(factors: dict) -> dict:
    a, l12, l21 = factors["a"], factors["l12"], factors["l21"]

    def lam(mu):
        def rhs(t, y):
            M = np.array([[a * mu * mu, l12 * (1.0 + math.sin(2.0 * math.pi * t))],
                          [l21, a * mu * mu]])
            return (M @ y.reshape(2, 2)).reshape(-1)

        sol = solve_ivp(rhs, (0.0, 1.0), np.eye(2).reshape(-1), rtol=1e-12, atol=1e-14)
        rho = max(abs(np.linalg.eigvals(sol.y[:, -1].reshape(2, 2))))
        return -math.log(rho)

    c_star, mu_star = _minimize_speed(lambda mu: -lam(mu) / mu)
    return {"c_star": c_star, "mu_star": mu_star}


def cell_fourier_hill(factors: dict, n_modes: int = 24) -> dict:
    a = factors["a"]
    l_mean, l_half = factors["l_mean"], 0.25 * factors["l_amp"]  # l = m + (s/2) cos
    k = np.arange(-n_modes, n_modes + 1)
    coupling = -l_mean * np.eye(k.size) - l_half * (np.eye(k.size, k=1) + np.eye(k.size, k=-1))

    def lam(mu):
        H = coupling + np.diag(-a * (2j * math.pi * k + mu) ** 2)
        return float(np.linalg.eigvals(H).real.min())

    c_star, mu_star = _minimize_speed(lambda mu: -lam(mu) / mu)
    return {"c_star": c_star, "mu_star": mu_star}


def compute(name: str, workload: dict) -> dict:
    """Reference values for the workload `name` built by workloads.build."""
    f = workload["factors"]
    if name == "kpp_readme":
        return kpp_closed_form(f, float(workload["jobs"]["a"]["params"]["c"]))
    if name == "system_tper":
        return tper_monodromy(f)
    return cell_fourier_hill(f)
