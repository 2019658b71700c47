"""Periodic principal eigenvalues of the cooperative linearized operators.

The eigenvalue is recovered from the spectral radius rho of the one-period
solution map of d_t v = S(t) v (S = spatial part of the negated operator):
by Krein-Rutman the map has a positive principal eigenvector and
lambda = -ln(rho) / T.  Two paths:

  * z-independent coefficients: the eigenproblem collapses to the N x N ODE
    monodromy Phi' = (L'(t) + diag(mu^2 a_i - mu q_z,i)) Phi, integrated with
    fixed-step RK4.  Each RK4 step of a linear system is a matrix P_k, so all
    step propagators are built in one batched pass and Phi at every step is
    their prefix product, taken by a log2(n_steps)-pass batched-matmul scan
    (no Python loop over time steps).  The Perron root of Phi(T) gives rho
    exactly in the semidiscrete sense (no spatial error at all).
  * genuinely z-dependent coefficients: power iteration on the period map of
    the cell discretization, stepped with Crank-Nicolson for second-order
    accuracy of the reconstructed eigenfunction.

Eigenfunctions are reconstructed over one period as u(t) = e^{lambda t} v(t),
which is periodic by construction, then normalized (max-one by default;
mean-one is the mu-differentiable choice used by the critical-wave pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .frame import FrameSystem
from .pde_core import Grid, GridField, OperatorSpec, Stepper, apply_S, build_operator_mu

__all__ = [
    "PrincipalEigenpair",
    "principal_eigenvalue",
    "lambda_mu_curve",
    "default_cell_grid",
    "EigenEvaluator",
]


@dataclass
class PrincipalEigenpair:
    """Principal eigenvalue/eigenfunction of a tilted frame operator.

    For an operator built in a frame moving at speed c the eigenvalue equals
    lambda_{1,mu e} + c mu (the plain dispersion eigenvalue when c = 0).
    """

    mu: float
    lam: float
    eigenfunction: GridField
    normalization: str
    kappa: float
    residual: float
    info: dict = field(default_factory=dict)


def default_cell_grid(fsys: FrameSystem) -> Grid:
    """Periodic cell grid sized for the frame coefficients."""
    kz = 0
    kt = 0
    for f in fsys.all_fields():
        fkt, fkx = f.max_frequencies()
        kt = max(kt, fkt)
        kz = max(kz, fkx[-1])
    n_t = 4096 if kt > 0 else 64
    n_z = max(64, 16 * kz) if kz > 0 else 16
    L_z = fsys.L_z if fsys.L_z is not None else 1.0
    return Grid.periodic_cell(fsys.T_frame, L_z, n_t, n_z)


def _perron(mat: np.ndarray):
    """Spectral radius and positive eigenvector of an (essentially) positive matrix."""
    if mat.shape == (1, 1):
        rho = float(mat[0, 0])
        return rho, np.ones(1)
    eigvals, eigvecs = np.linalg.eig(mat)
    k = int(np.argmax(np.abs(eigvals)))
    rho = eigvals[k]
    if abs(rho.imag) > 1e-9 * (1.0 + abs(rho.real)):
        raise NumericalError(f"Perron root is not real: {rho!r}")
    v = np.real(eigvecs[:, k])
    if v.sum() < 0:
        v = -v
    if v.min() <= 1e-12 * v.max():
        raise NumericalError(
            "Perron eigenvector is not uniformly positive; coupling may be reducible"
        )
    return float(np.real(rho)), v


def _ode_matrix_callable(op: OperatorSpec):
    """M(t) = L'(t) + diag(mu^2 a_i(t) - mu q_z,i(t)) from exact field evaluation."""
    fsys = op.fsys
    mu = op.mu
    a_f, _, adv_f, Lm_f, _ = fsys.reduce_1d()
    N = fsys.N

    def M(ts: np.ndarray) -> np.ndarray:
        out = np.empty((len(ts), N, N))
        z0 = np.zeros(len(ts))
        for i in range(N):
            for j in range(N):
                out[:, i, j] = Lm_f[i][j].eval(ts, z0[:, None])
            out[:, i, i] += mu * mu * a_f[i].eval(ts, z0[:, None]) \
                - mu * adv_f[i].eval(ts, z0[:, None])
        return out

    return M


def _monodromy_rk4(Mfun, T: float, n_sub: int, store_every: int | None = None):
    """Fundamental matrix Phi(T) of Phi' = M(t) Phi, plus stored snapshots.

    Classical fixed-step RK4 on a linear system advances Phi by a matrix
    P_k per step, so all n_sub step propagators are formed in one batched
    pass and the ordered product P_{n-1} ... P_1 P_0 is an inclusive prefix
    scan of log2(n_sub) batched matmuls.  Snapshots are Phi at the start of
    every store_every-th step (the first is the identity), as an array of
    shape (n_snaps, N, N).
    """
    h = T / n_sub
    ts = np.arange(2 * n_sub + 1) * (0.5 * h)
    Ms = Mfun(ts)
    N = Ms.shape[1]
    eye = np.eye(N)
    M0, Mh, M1 = Ms[0:-1:2], Ms[1::2], Ms[2::2]
    K1 = M0
    K2 = Mh @ (eye + (0.5 * h) * K1)
    K3 = Mh @ (eye + (0.5 * h) * K2)
    K4 = M1 @ (eye + h * K3)
    P = eye + (h / 6.0) * (K1 + 2 * K2 + 2 * K3 + K4)
    # Hillis-Steele scan: afterwards P[k] = Phi after step k
    d = 1
    while d < n_sub:
        P[d:] = P[d:] @ P[:-d]
        d *= 2
    if store_every is None:
        snaps = np.empty((0, N, N))
    else:
        snaps = np.concatenate([eye[None], P[store_every - 1:n_sub - 1:store_every]])
    return P[-1], snaps


def principal_eigenvalue(op: OperatorSpec, tol: float = 1e-8,
                         normalization: str = "max-one",
                         max_iters: int = 400) -> PrincipalEigenpair:
    """Principal eigenpair of op via the one-period solution map.

    Power iteration starts from the all-ones field; the Rayleigh ratio
    estimates the spectral radius and lambda = -ln(rho)/T.  z-independent
    operators take the exact ODE-monodromy shortcut.  Both paths run on a
    periodic cell; the residual is centred in time, as both are second order.
    """
    if normalization not in ("max-one", "mean-one"):
        raise InputError(f"unknown normalization {normalization!r}")
    grid = op.grid
    if grid.kind != "periodic":
        raise InputError("principal eigenvalue needs a periodic cell grid")
    T = grid.t_period

    if op.is_z_independent():
        n_sub = grid.n_t * max(1, int(np.ceil(2048 / grid.n_t)))
        store = n_sub // grid.n_t
        Mfun = _ode_matrix_callable(op)
        PhiT, snaps = _monodromy_rk4(Mfun, T, n_sub, store_every=store)
        rho, phi = _perron(PhiT)
        if rho <= 0:
            raise NumericalError(f"nonpositive period-map spectral radius {rho!r}")
        lam = -np.log(rho) / T
        orbit = (snaps @ phi).T  # (N, n_t)
        u = orbit * np.exp(lam * grid.t)[None, :]
        vals = np.repeat(u[:, :, None], grid.n_z, axis=2)
        info = {"path": "ode-monodromy", "rho": rho, "n_sub": n_sub}
    else:
        stepper = Stepper(op, scheme="cn")
        v = np.ones((op.N, grid.n_z))
        rho = 1.0
        history = []
        for it in range(max_iters):
            w = stepper.run_period(v)
            num = float(np.vdot(v, w))
            den = float(np.vdot(v, v))
            rho = num / den
            mask = np.abs(v) > 1e-14 * np.abs(v).max()
            ratios = w[mask] / v[mask]
            spread = float(ratios.max() - ratios.min()) / max(abs(rho), 1e-300)
            history.append((rho, spread))
            v = w / np.abs(w).max()
            if spread < max(1e-13, 1e-4 * tol):
                break
        else:
            raise NumericalError(
                "power iteration did not converge; coupling may be reducible "
                "or the grid pathological",
                history=history,
            )
        if rho <= 0:
            raise NumericalError(f"nonpositive period-map spectral radius {rho!r}")
        lam = -np.log(rho) / T
        _, orbit = stepper.run_period(v, store_orbit=True)
        vals = orbit * np.exp(lam * grid.t)[None, :, None]
        info = {"path": "power-iteration", "rho": rho, "iterations": it + 1}

    if vals.min() <= 0:
        raise NumericalError(
            f"principal eigenfunction is not positive (min {vals.min():.3e}); "
            "solver failure or reducible coupling"
        )
    if op.is_time_independent():
        # simple principal eigenvalue => time-constant eigenfunction; snap
        # away integrator roundoff so downstream exact-constancy tests hold
        vals = np.repeat(vals.mean(axis=1, keepdims=True), grid.n_t, axis=1)
    if normalization == "max-one":
        vals = vals / vals.max()
    else:
        vals = vals / vals.mean()
    kappa = float(vals.min() / vals.max())
    u_field = GridField(vals, grid)
    dudt = (np.roll(vals, -1, axis=1) - np.roll(vals, 1, axis=1)) / (2.0 * grid.dt)
    resid = dudt - apply_S(op, vals, None) - lam * vals
    residual = float(np.abs(resid).max() / np.abs(vals).max())
    return PrincipalEigenpair(op.mu, float(lam), u_field, normalization, kappa, residual, info)


class EigenEvaluator:
    """Memoized lambda(mu) for a fixed frame system and grid."""

    def __init__(self, fsys: FrameSystem, grid: Grid | None = None, tol: float = 1e-8,
                 normalization: str = "max-one"):
        self.fsys = fsys
        self.grid = grid if grid is not None else default_cell_grid(fsys)
        self.tol = tol
        self.normalization = normalization
        self._cache: dict[float, PrincipalEigenpair] = {}

    def pair(self, mu: float) -> PrincipalEigenpair:
        mu = float(mu)
        if mu not in self._cache:
            op = build_operator_mu(self.fsys, mu, self.grid)
            self._cache[mu] = principal_eigenvalue(
                op, tol=self.tol, normalization=self.normalization
            )
        return self._cache[mu]

    def __call__(self, mu: float) -> float:
        return self.pair(mu).lam

    def derivative(self, mu: float) -> float:
        h = max(1e-4, np.sqrt(self.tol))
        h = min(h, 0.5 * mu) if mu > 0 else h
        return (self(mu + h) - self(mu - h)) / (2.0 * h)

    @property
    def samples(self):
        return sorted((mu, p.lam) for mu, p in self._cache.items())


def lambda_mu_curve(fsys: FrameSystem, mu_list, tol: float = 1e-8,
                    evaluator: EigenEvaluator | None = None):
    """Sampled dispersion data [(mu, lambda, dlambda/dmu)] for positive mu.

    A given evaluator (for fsys) is used, and filled, instead of a fresh one.
    """
    mus = [float(m) for m in mu_list]
    if any(m <= 0 for m in mus) or sorted(mus) != mus:
        raise InputError("mu_list must be sorted and positive")
    ev = evaluator if evaluator is not None else EigenEvaluator(fsys, tol=tol)
    out = []
    for mu in mus:
        lam = ev(mu)
        dlam = ev.derivative(mu)
        out.append((mu, lam, dlam))
    return out

