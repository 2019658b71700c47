"""Periodic principal eigenvalues of the cooperative linearized operators.

The tilted frame operator op (OperatorSpec) has a principal eigenvalue lambda
with a positive periodic eigenfunction (Krein-Rutman); S is the spatial part
of -op.  Two discretizations:

  * Fourier-Hill, for the dispersion layer (EigenEvaluator(fsys)): S(t) on
    the z-modes -K..K of each component is a small dense matrix (_hill,
    _hill_pair); lambda = -max Re eig S when static, -ln(rho)/T from
    fourth-order Magnus steps of the period map when time-periodic.  A
    z-independent frame is the case K = 0, on every grid.
  * Finite differences on a z-dependent cell, for the wave envelopes
    (EigenEvaluator(fsys, grid=cell)): power iteration on the Crank-Nicolson
    period map when time-periodic, lambda = -ln(rho)/T; shift-invert when
    static: S is Metzler, so its Perron root s is below sigma = max(max row
    sum, 0) + 1, and one backward-Euler step of dt = 1/sigma is the positive
    map (I - S/sigma)^-1 of spectral radius rho = sigma/(sigma - s): lambda =
    -s = (1/rho - 1) sigma, exactly.

Eigenfunctions are reconstructed over one period as u(t) = e^{lambda t} v(t),
periodic by construction, scaled to max one, and refused unless uniformly
positive (min u > 1e-12 max u), as irreducible coupling (A3) makes them.
Nothing here is settable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import eig, expm

from .coeffs import max_frequencies
from .errors import InputError, NumericalError
from .frame import FrameSystem
from .pde_core import Grid, GridField, OperatorSpec, Stepper, apply_S, build_operator_mu

_TABLES = ("a_node", "a_half", "drift", "pot0", "coupling", "b_tab")  # (..., n_t, n_z)
_MAX_ITERS = 400  # power iterations
_SPREAD = 1e-12  # power iteration stops when the ratios w/v spread less than this
_STEPS = 256  # Magnus steps per period and per time frequency
_GAUSS = np.sqrt(3.0) / 6.0  # the Gauss points of a step sit at h (1/2 -+ _GAUSS)
_MODE_TOL = 1e-13  # Hill modes grow until the outermost hold this much of the largest
_CHUNK = 2**20  # entries of one batch of Magnus step maps (8 MB)

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
    """Periodic cell for the frame: one slice if time-, one node if z-independent;
    a time-periodic cell has one slice per Magnus step (_STEPS per time frequency)."""
    kt, (*_, kz) = max_frequencies(fsys.all_fields())
    n_t = _STEPS * kt if kt > 0 else 1
    n_z = max(64, 16 * kz) if kz > 0 else 1
    L_z = fsys.L_z if fsys.L_z is not None else 1.0
    return Grid.periodic_cell(fsys.T_frame, L_z, n_t, n_z)


def _hill(fields, mu: float, K: int, kt: int):
    """ts -> S(ts), the spatial part of -op (OperatorSpec) on the z-modes -K..K of
    each component, from its time harmonics -kt..kt: (len(ts), N(2K+1), N(2K+1)).

    With T(f) the Toeplitz matrix of f's Fourier modes and D = diag(2 pi i k / L_z),
    S_ii = (D + mu) T(a_i) (D + mu) - T(q_z,i) (D + mu) + T(L'_ii), S_ij = T(L'_ij);
    real in the orthonormal basis (U) 1, sqrt2 cos(2 pi k z/L_z), -sqrt2 sin(...).
    """
    a_f, _, adv_f, Lm_f, _ = fields
    N, n, k = len(a_f), 2 * K + 1, np.arange(-K, K + 1)
    Dmu = 2j * np.pi * k / a_f[0].spatial_periods[0] + mu
    gap = k[:, None] - k[None, :] + 2 * K  # the mode j - k of entry (j, k)

    def toeplitz(f):
        hat = np.zeros((2 * kt + 1, 4 * K + 1), dtype=complex)
        for m in f.modes:
            hat[kt + m.kt, 2 * K + m.kx[0]] += 0.5 * (m.cos - 1j * m.sin)
            hat[kt - m.kt, 2 * K - m.kx[0]] += 0.5 * (m.cos + 1j * m.sin)
        return hat[:, gap]

    S = np.zeros((2 * kt + 1, N, n, N, n), dtype=complex)
    for i in range(N):
        for j in range(N):
            S[:, i, :, j] = toeplitz(Lm_f[i][j])
        S[:, i, :, i] += Dmu[:, None] * toeplitz(a_f[i]) * Dmu - toeplitz(adv_f[i]) * Dmu
    U, j, r = np.zeros((n, n), dtype=complex), np.arange(1, K + 1), np.sqrt(0.5)
    U[K, 0], U[K + j, 2 * j - 1], U[K - j, 2 * j - 1] = 1.0, r, r
    U[K + j, 2 * j], U[K - j, 2 * j] = 1j * r, -1j * r
    U = np.kron(np.eye(N), U)
    H = (U.conj().T @ S.reshape(2 * kt + 1, N * n, N * n) @ U).reshape(2 * kt + 1, -1)
    w = 2j * np.pi / a_f[0].temporal_period * np.arange(-kt, kt + 1)
    return lambda ts: (np.exp(np.outer(ts, w)) @ H).real.reshape(len(ts), N * n, N * n)


def _magnus(S, T: float, n_sub: int, M: int):
    """exp(Omega_k), Omega_k = h (S1 + S2)/2 + sqrt(3) h^2 [S2, S1]/12 at two Gauss
    points, for n_sub Magnus-4 steps of Phi' = S(t) Phi over [0, T]: batched
    expm calls of at most _CHUNK entries each."""
    h = T / n_sub
    size = max(1, _CHUNK // (M * M))
    for k0 in range(0, n_sub, size):
        t0 = h * np.arange(k0, min(k0 + size, n_sub))
        S1, S2 = S(t0 + (0.5 - _GAUSS) * h), S(t0 + (0.5 + _GAUSS) * h)
        yield expm(0.5 * h * (S1 + S2) + (np.sqrt(3.0) / 12.0 * h * h) * (S2 @ S1 - S1 @ S2))


def _monodromy(batches) -> np.ndarray:
    """Phi(T) = P_{n-1} ... P_1 P_0 of the step maps, by log2 rounds of pairwise
    batched matmuls within each batch, then across the batches."""
    def product(P):
        while len(P) > 1:
            h = len(P) // 2
            P = np.concatenate([P[1:2 * h:2] @ P[:2 * h:2], P[2 * h:]])
        return P[0]
    return product(np.array([product(P) for P in batches]))


def _refuse_unless_positive(vals: np.ndarray) -> None:
    if not vals.min() > 1e-12 * vals.max():
        raise NumericalError(f"principal eigenfunction is not uniformly positive (min/max "
                             f"{vals.min() / vals.max():.3e}); coupling may be reducible")


def _hill_pair(fields, mu: float, grid: Grid, K: int):
    """(max-one principal eigenpair on grid's nodes, K) from the Hill matrices S(t).

    K starts at twice the z-bandwidth kz or more and grows by half until the
    eigenvector's outermost kz modes hold at most _MODE_TOL of its largest.
    Static: lambda = -s, s the eigenvalue of S of largest real part as the
    Rayleigh quotient of its left and right eigenvectors.  Time-periodic:
    Magnus steps of S - shift, shift = max diag S(0) so Phi(T) cannot
    overflow, lambda = -ln(rho)/T - shift; the eigenvector is then stepped
    through the maps again, kept from the first pass if one batch holds them.
    """
    a_f, _, adv_f, Lm_f, _ = fields
    kt, (kz,) = max_frequencies((*a_f, *adv_f, *(g for row in Lm_f for g in row)))
    N, T, n_t = len(a_f), grid.t_period, grid.n_t
    n_sub = n_t * -(-_STEPS * kt // n_t)
    K = max(K, 2 * kz)
    while True:
        M, S = N * (2 * K + 1), _hill(fields, mu, K, kt)
        S0 = S(np.zeros(1))[0]
        if kt == 0:
            w, W, V = eig(S0, left=True)
            top = int(np.argmax(w.real))
            v, wl = V[:, top], W[:, top].conj()
            s = wl @ S0 @ v / (wl @ v)  # accurate in |S| |v|, where eig's w is in ||S||
            if abs(s.imag) > 1e-9 * (1.0 + abs(s.real)):
                raise NumericalError(f"principal eigenvalue is not real: {-s!r}")
            lam, v = -s.real, v.real
        else:
            shift = float(S0.diagonal().max())
            steps = lambda: _magnus(lambda ts: S(ts) - shift * np.eye(M), T, n_sub, M)  # noqa: E731
            batches = list(steps()) if n_sub * M * M <= _CHUNK else None
            w, V = np.linalg.eig(_monodromy(batches or steps()))
            top = int(np.argmax(np.abs(w)))
            if abs(w[top].imag) > 1e-9 * abs(w[top]) or w[top].real <= 0:
                raise NumericalError(f"period-map spectral radius is not positive: {w[top]!r}")
            growth = -np.log(w[top].real) / T  # lambda of S - shift I
            lam, v = growth - shift, V[:, top].real
        tail = np.abs(v.reshape(N, 2 * K + 1))
        if kz == 0 or tail[:, 2 * (K - kz) + 1:].max() <= _MODE_TOL * tail.max():
            break
        K += K // 2
    if kt == 0:
        orbit = np.repeat(v[None], n_t, axis=0)
    else:
        orbit = []
        for i, P in enumerate(P for b in (batches or steps()) for P in b):
            if i % (n_sub // n_t) == 0:
                orbit.append(v * np.exp(growth * i * T / n_sub))
            v = P @ v
        orbit = np.array(orbit)
    theta = 2 * np.pi / (grid.z1 - grid.z0) * np.outer(np.arange(1, K + 1), grid.z)
    F = np.ones((2 * K + 1, grid.n_z))  # _hill's real basis on the nodes
    F[1::2], F[2::2] = np.sqrt(2.0) * np.cos(theta), -np.sqrt(2.0) * np.sin(theta)
    vals = orbit.reshape(n_t, N, 2 * K + 1) @ F
    scale = vals.flat[np.argmax(np.abs(vals))]
    orbit, vals = orbit / scale, (vals / scale).transpose(1, 0, 2)
    _refuse_unless_positive(vals)
    # residual of d_t u = (S + lambda) u on the nodes, d_t spectral in time
    ddt = np.fft.ifft(2j * np.pi * np.fft.fftfreq(n_t, T / n_t)[:, None]
                      * np.fft.fft(orbit, axis=0), axis=0).real if kt else 0.0
    size = max(1, _CHUNK // (M * M))
    Su = np.concatenate([S(grid.t[i:i + size]) @ orbit[i:i + size, :, None]
                         for i in range(0, n_t, size)])[..., 0]
    r = (ddt - Su - lam * orbit).reshape(n_t, N, 2 * K + 1) @ F
    info = {"path": "ode-monodromy" if K == 0 else "fourier-hill", "modes": 2 * K + 1}
    return PrincipalEigenpair(float(mu), float(lam), GridField(vals, grid), float(vals.min()),
                              float(np.abs(r).max()), info), K


def principal_eigenvalue(op: OperatorSpec) -> PrincipalEigenpair:
    """Max-one principal eigenpair of op via the one-period solution map.

    z-independent operators take _hill_pair at K = 0, the ODE monodromy.  Else
    power iteration starts from the all-ones field and stops once the ratios
    w/v spread by less than _SPREAD = 1e-12; the Rayleigh ratio estimates the
    spectral radius: lambda = -ln(rho)/T on the period map, (1/rho - 1) sigma
    on the shift-invert step of a time-independent operator.  Its residual is
    centred in time.  A not uniformly positive result is refused.
    """
    grid = op.grid
    if grid.kind != "periodic":
        raise InputError("principal eigenvalue needs a periodic cell grid")
    T = grid.t_period
    if op.is_z_independent():
        return _hill_pair(op.fsys.reduce_1d(), op.mu, grid, 0)[0]
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
    _refuse_unless_positive(vals)
    if static:
        # simple principal eigenvalue => time-constant eigenfunction; snap
        # away integrator roundoff so downstream exact-constancy tests hold
        vals = np.repeat(vals.mean(axis=1, keepdims=True), grid.n_t, axis=1)
    vals = vals / vals.max()
    dudt = (np.roll(vals, -1, axis=1) - np.roll(vals, 1, axis=1)) / (2.0 * grid.dt)
    residual = float(np.abs(dudt - apply_S(op, vals) - lam * vals).max())
    return PrincipalEigenpair(op.mu, float(lam), GridField(vals, grid), float(vals.min()),
                              residual, info)


class EigenEvaluator:
    """Memoized lambda(mu) for a fixed frame system, with no options.

    Without a grid the pairs come from _hill_pair on default_cell_grid's nodes,
    each from the last K; with a cell grid, from principal_eigenvalue on it.
    The dispersion layer reads nothing else: persistence is the sign of ev(0),
    and c* and the decay roots are searched on ev at mu > 0.
    """

    def __init__(self, fsys: FrameSystem, grid: Grid | None = None):
        self.fsys = fsys
        self.grid = grid if grid is not None else default_cell_grid(fsys)
        self._fields = fsys.reduce_1d() if grid is None else None
        self._K = 0
        self._cache: dict[float, PrincipalEigenpair] = {}

    def pair(self, mu: float) -> PrincipalEigenpair:
        mu = float(mu)
        if mu not in self._cache:
            if self._fields is None:
                self._cache[mu] = principal_eigenvalue(build_operator_mu(self.fsys, mu, self.grid))
            else:
                self._cache[mu], self._K = _hill_pair(self._fields, mu, self.grid, self._K)
        return self._cache[mu]

    def __call__(self, mu: float) -> float:
        return self.pair(mu).lam

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

