"""Periodic principal eigenvalues of the cooperative linearized operators.

The eigenvalue is recovered from the spectral radius rho of the one-period
solution map of d_t v = S(t) v (S = spatial part of the negated operator):
by Krein-Rutman the map has a positive principal eigenvector.  Three paths:

  * z-independent coefficients: the N x N ODE monodromy of M(t) - c I, with
    M(t) = L'(t) + diag(mu^2 a_i - mu q_z,i) and c the largest diagonal entry
    of M(0), so Phi(T) cannot overflow (a scalar static M gives Phi = I), and
    lambda = -ln(rho)/T - c.  Each fixed-step RK4 step of a linear system is a
    matrix P_k: all are built in one batched pass and multiplied by a
    log2(n_steps)-pass batched-matmul prefix scan.  No spatial error at all:
    the monodromy reads no z, and the default cell has one z node.
  * z-dependent, time-periodic: power iteration on the period map of the cell
    discretization, stepped with Crank-Nicolson, and lambda = -ln(rho)/T.
  * z-dependent, time-independent: shift-invert power iteration on S.  S is
    Metzler, so its Perron root s is below sigma = max(max row sum, 0) + 1,
    and one backward-Euler step of dt = 1/sigma is the positive map
    (I - S/sigma)^-1 of spectral radius rho = sigma/(sigma - s): lambda = -s =
    (1/rho - 1) sigma, exactly.

Eigenfunctions are reconstructed over one period as u(t) = e^{lambda t} v(t),
which is periodic by construction, scaled to max one, and refused unless
uniformly positive (min u > 1e-12 max u), as irreducible coupling (A3) makes them.
Nothing here is settable: power iteration stops at a ratio spread of 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .coeffs import max_frequencies
from .errors import InputError, NumericalError
from .frame import FrameSystem
from .pde_core import Grid, GridField, OperatorSpec, Stepper, apply_S, build_operator_mu

_TABLES = ("a_node", "a_half", "drift", "pot0", "coupling", "b_tab")  # (..., n_t, n_z)
_MAX_ITERS = 400  # power iterations
_SPREAD = 1e-12  # power iteration stops when the ratios w/v spread less than this

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
    eigenfunction: GridField  # max one
    kappa: float  # Harnack floor min u / max u
    residual: float  # of the eigen identity, relative to max u
    info: dict = field(default_factory=dict)


def default_cell_grid(fsys: FrameSystem) -> Grid:
    """Periodic cell for the frame: one slice if time-, one node if z-independent."""
    kt, (*_, kz) = max_frequencies(fsys.all_fields())
    n_t = 4096 if kt > 0 else 1
    n_z = max(64, 16 * kz) if kz > 0 else 1
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
    return float(np.real(rho)), v


def _ode_matrix_callable(op: OperatorSpec):
    """M(t) = L'(t) + diag(mu^2 a_i(t) - mu q_z,i(t)) from exact field evaluation."""
    a_f, _, adv_f, Lm_f, _ = op.fsys.reduce_1d()
    N, mu = op.N, op.mu

    def M(ts: np.ndarray) -> np.ndarray:
        out = np.empty((len(ts), N, N))
        z0 = np.zeros((len(ts), 1))
        for i in range(N):
            for j in range(N):
                out[:, i, j] = Lm_f[i][j].eval(ts, z0)
            out[:, i, i] += mu * mu * a_f[i].eval(ts, z0) - mu * adv_f[i].eval(ts, z0)
        return out

    return M


def _monodromy_rk4(Mfun, T: float, n_sub: int, store_every: int):
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
    return P[-1], np.concatenate([eye[None], P[store_every - 1:n_sub - 1:store_every]])


def principal_eigenvalue(op: OperatorSpec) -> PrincipalEigenpair:
    """Max-one principal eigenpair of op via the one-period solution map.

    Power iteration starts from the all-ones field and stops once the ratios
    w/v spread by less than _SPREAD = 1e-12; the Rayleigh ratio estimates the
    spectral radius and lambda = -ln(rho)/T on the period map,
    or lambda = (1/rho - 1) sigma on the shift-invert step of a
    time-independent operator.  z-independent operators take the exact
    ODE-monodromy shortcut.  All paths run on a periodic cell; the residual
    is centred in time, as the time-periodic paths are second order.  A
    result that is not uniformly positive (reducible coupling) is refused.
    """
    grid = op.grid
    if grid.kind != "periodic":
        raise InputError("principal eigenvalue needs a periodic cell grid")
    T = grid.t_period

    if op.is_z_independent():
        n_sub = grid.n_t * max(1, int(np.ceil(2048 / grid.n_t)))
        M = _ode_matrix_callable(op)
        shift = float(M(np.zeros(1))[0].diagonal().max())
        PhiT, snaps = _monodromy_rk4(lambda ts: M(ts) - shift * np.eye(op.N), T, n_sub,
                                     store_every=n_sub // grid.n_t)
        rho, phi = _perron(PhiT)
        if rho <= 0:
            raise NumericalError(f"nonpositive period-map spectral radius {rho!r}")
        growth = -np.log(rho) / T  # lambda of M - shift I
        lam = growth - shift
        orbit = (snaps @ phi).T[:, :, None]  # (N, n_t, 1)
        vals = np.repeat(orbit * np.exp(growth * grid.t)[None, :, None], grid.n_z, axis=2)
        info = {"path": "ode-monodromy", "rho": rho, "shift": shift, "n_sub": n_sub}
    else:
        static = op.is_time_independent()
        if static:  # shift-invert: one backward-Euler step of dt = 1/sigma on one slice
            sigma = max(float(apply_S(op, np.ones((op.N, 1, grid.n_z))).max()), 0.0) + 1.0
            run = replace(op, grid=replace(grid, n_t=1, t_period=1.0 / sigma),
                          **{f: getattr(op, f)[..., :1, :] for f in _TABLES})
            stepper = Stepper(run)
        else:
            run, stepper = op, Stepper(op, scheme="cn")
        v = np.ones((op.N, grid.n_z))
        history = []
        for it in range(_MAX_ITERS):
            w, orbit = stepper.run_period(v)
            rho = float(np.vdot(v, w)) / float(np.vdot(v, v))
            mask = np.abs(v) > 1e-14 * np.abs(v).max()
            ratios = w[mask] / v[mask]
            spread = float(ratios.max() - ratios.min()) / max(abs(rho), 1e-300)
            history.append((rho, spread))
            v = w / np.abs(w).max()
            if spread < _SPREAD:
                break
        else:
            raise NumericalError("power iteration did not converge; coupling may be reducible "
                                 "or the grid pathological", history=history)
        if rho <= 0:
            raise NumericalError(f"nonpositive period-map spectral radius {rho!r}")
        lam = (1.0 / rho - 1.0) * sigma if static else -np.log(rho) / T
        # the last iteration's orbit: at convergence it starts on the eigenvector
        vals = orbit * np.exp(lam * run.grid.t)[None, :, None]
        info = {"path": "shift-invert" if static else "power-iteration", "rho": rho,
                "iterations": it + 1}

    if not vals.min() > 1e-12 * vals.max():
        raise NumericalError(f"principal eigenfunction is not uniformly positive (min/max "
                             f"{vals.min() / vals.max():.3e}); coupling may be reducible")
    if op.is_time_independent():
        # simple principal eigenvalue => time-constant eigenfunction; snap
        # away integrator roundoff so downstream exact-constancy tests hold
        vals = np.repeat(vals.mean(axis=1, keepdims=True), grid.n_t, axis=1)
    vals = vals / vals.max()
    dudt = (np.roll(vals, -1, axis=1) - np.roll(vals, 1, axis=1)) / (2.0 * grid.dt)
    residual = float(np.abs(dudt - apply_S(op, vals) - lam * vals).max())
    return PrincipalEigenpair(op.mu, float(lam), GridField(vals, grid), float(vals.min()),
                              residual, info)


class EigenEvaluator:
    """Memoized lambda(mu) for a fixed frame system and grid, with no options.

    The dispersion layer reads nothing else: persistence is the sign of
    ev(0), and c* and the decay roots are searched on ev at mu > 0.
    """

    def __init__(self, fsys: FrameSystem, grid: Grid | None = None):
        self.fsys = fsys
        self.grid = grid if grid is not None else default_cell_grid(fsys)
        self._cache: dict[float, PrincipalEigenpair] = {}

    def pair(self, mu: float) -> PrincipalEigenpair:
        mu = float(mu)
        if mu not in self._cache:
            op = build_operator_mu(self.fsys, mu, self.grid)
            self._cache[mu] = principal_eigenvalue(op)
        return self._cache[mu]

    def __call__(self, mu: float) -> float:
        return self.pair(mu).lam

    @cached_property
    def _op0(self) -> OperatorSpec:
        return build_operator_mu(self.fsys, 0.0, self.grid)

    def admits(self, mu: float) -> bool:
        """Whether pair(mu) runs: any mu on the ODE path, else a mesh Peclet number <= 1."""
        return self._op0.is_z_independent() or self._op0.peclet(mu) <= 1.0

    def derivative(self, mu: float) -> float:
        """Centred difference of step 1e-4, at most mu/2."""
        h = min(1e-4, 0.5 * mu) if mu > 0 else 1e-4
        return (self(mu + h) - self(mu - h)) / (2.0 * h)

    @property
    def samples(self):
        return sorted((mu, p.lam) for mu, p in self._cache.items())


def lambda_mu_curve(ev: EigenEvaluator, mu_list):
    """Sampled dispersion data [(mu, lambda, dlambda/dmu)] for positive mu, from ev."""
    mus = [float(m) for m in mu_list]
    if any(m <= 0 for m in mus) or sorted(mus) != mus:
        raise InputError("mu_list must be sorted and positive")
    return [(mu, ev(mu), ev.derivative(mu)) for mu in mus]

