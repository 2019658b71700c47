"""Periodic principal eigenvalues of the cooperative linearized operators.

The tilted frame operator op (OperatorSpec) has a principal eigenvalue lambda
with a positive periodic eigenfunction (Krein-Rutman); S is the spatial part
of -op.  One discretization, Fourier-Hill: S(t) on the z-modes -K..K of each
component is a small dense matrix (_hill, _hill_modes); lambda = -max Re eig S
when static, -ln(rho)/T from fourth-order Magnus steps of the period map when
time-periodic.  A z-independent frame is the case K = 0, on every grid.

A run's one EigenEvaluator, on the c = 0 frame of its direction, serves the
dispersion layer and, through the frame shift (EigenEvaluator.frame_pair),
the wave envelopes of the frame moving at c.

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
from .pde_core import Grid, GridField, OperatorSpec

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


def _hill(fields, K: int, kt: int):
    """(mu, ts) -> (S(ts), dS/dmu(ts)), S the spatial part of -op (OperatorSpec) on
    the z-modes -K..K of each component, from its time harmonics -kt..kt.

    With T(f) the Toeplitz matrix of f's Fourier modes and D = diag(2 pi i k / L_z),
    S = H0 + mu H1 + mu^2 H2: H0_ii = D T(a_i) D - T(q_z,i) D + T(L'_ii), H0_ij =
    T(L'_ij), H1_ii = T(a_i) D + D T(a_i) - T(q_z,i), H2_ii = T(a_i), built once;
    real in the orthonormal basis (U) 1, sqrt2 cos(2 pi k z/L_z), -sqrt2 sin(...).
    """
    a_f, _, adv_f, Lm_f, _ = fields
    N, n, k = len(a_f), 2 * K + 1, np.arange(-K, K + 1)
    D = 2j * np.pi * k / a_f[0].spatial_periods[0]
    gap = k[:, None] - k[None, :] + 2 * K  # the mode j - k of entry (j, k)

    def toeplitz(f):
        hat = np.zeros((2 * kt + 1, 4 * K + 1), dtype=complex)
        for m in f.modes:
            hat[kt + m.kt, 2 * K + m.kx[0]] += 0.5 * (m.cos - 1j * m.sin)
            hat[kt - m.kt, 2 * K - m.kx[0]] += 0.5 * (m.cos + 1j * m.sin)
        return hat[:, gap]

    H = np.zeros((3, 2 * kt + 1, N, n, N, n), dtype=complex)
    for i in range(N):
        for j in range(N):
            H[0, :, i, :, j] = toeplitz(Lm_f[i][j])
        a, q = toeplitz(a_f[i]), toeplitz(adv_f[i])
        H[:, :, i, :, i] += D[:, None] * a * D - q * D, a * D + D[:, None] * a - q, a
    U, j, r = np.zeros((n, n), dtype=complex), np.arange(1, K + 1), np.sqrt(0.5)
    U[K, 0], U[K + j, 2 * j - 1], U[K - j, 2 * j - 1] = 1.0, r, r
    U[K + j, 2 * j], U[K - j, 2 * j] = 1j * r, -1j * r
    U = np.kron(np.eye(N), U)
    H = (U.conj().T @ H.reshape(3, 2 * kt + 1, N * n, N * n) @ U).reshape(3, 2 * kt + 1, -1)
    w = 2j * np.pi / a_f[0].temporal_period * np.arange(-kt, kt + 1)

    def at(mu, ts):
        H0, H1, H2 = (np.exp(np.outer(ts, w)) @ H).real.reshape(3, len(ts), N * n, N * n)
        return H0 + mu * (H1 + mu * H2), H1 + 2 * mu * H2
    return at


class _Hill(dict):
    """K -> _hill of fields, each built once, with their time and z bandwidths."""

    def __init__(self, fields):
        a_f, _, adv_f, Lm_f, _ = self.fields = fields
        self.kt, (self.kz,) = max_frequencies((*a_f, *adv_f, *(g for row in Lm_f for g in row)))

    def __missing__(self, K: int):
        self[K] = _hill(self.fields, K, self.kt)
        return self[K]


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


def _hill_modes(hill: _Hill, mu: float, grid: Grid, K: int):
    """(lambda, lambda', orbit, residual, K) from hill's S(t): the principal
    eigenvector's modes on grid's n_t slices over its period, (n_t, N, 2K+1),
    and those of the residual of d_t u = (S + lambda) u, d_t spectral in time.

    K starts at twice the z-bandwidth kz or more and grows by half until the
    eigenvector's outermost kz modes hold at most _MODE_TOL of its largest.
    Static: lambda = -s, lambda' = -w S' v / w v, s the eigenvalue of S of
    largest real part as the Rayleigh quotient of its left and right vectors
    w, v.  Time-periodic: the Magnus maps of [[S - shift, S'], [0, S - shift]],
    shift = max diag S(0) so Phi(T) cannot overflow, multiply to [[Phi, Phi'],
    [0, Phi]], Phi' = dPhi/dmu: lambda = -ln(rho)/T - shift, lambda' =
    -w Phi' v / (rho T w v).  The eigenvector is then stepped through the maps
    again, kept from the first pass if one batch holds them.
    """
    N, T, n_t, kt = len(hill.fields[0]), grid.t_period, grid.n_t, hill.kt
    n_sub = n_t * -(-_STEPS * kt // n_t)
    K = max(K, 2 * hill.kz)
    while True:
        M, S = N * (2 * K + 1), hill[K]
        A, dA = (x[0] for x in S(mu, np.zeros(1)))
        if kt:
            shift = float(A.diagonal().max())
            def block(ts):
                St, dSt = S(mu, ts)
                St -= shift * np.eye(M)
                return np.block([[St, dSt], [0 * St, St]])
            batches = list(_magnus(block, T, n_sub, 2 * M)) if n_sub * 4 * M * M <= _CHUNK else None
            Phi = _monodromy(batches or _magnus(block, T, n_sub, 2 * M))
            A, dA = Phi[:M, :M], Phi[:M, M:]
        w, W, V = eig(A, left=True)
        top = int(np.argmax(np.abs(w) if kt else w.real))
        v, wl = V[:, top], W[:, top].conj()
        s, ds = (wl @ X @ v / (wl @ v) for X in (A, dA))  # accurate in |A| |v|, eig's w in ||A||
        if abs(s.imag) > 1e-9 * (abs(s) + (kt == 0)) or kt and s.real <= 0:
            raise NumericalError(f"principal eigenvalue is not {'positive' if kt else 'real'}: {s!r}")
        if kt:
            growth = -np.log(s.real) / T  # lambda of S - shift I
            lam, dlam = growth - shift, -ds.real / (s.real * T)
        else:
            lam, dlam = -s.real, -ds.real
        v = v.real
        tail = np.abs(v.reshape(N, 2 * K + 1))
        if hill.kz == 0 or tail[:, 2 * (K - hill.kz) + 1:].max() <= _MODE_TOL * tail.max():
            break
        K += K // 2
    if kt == 0:
        orbit = np.repeat(v[None], n_t, axis=0)
    else:
        maps = batches or _magnus(lambda ts: S(mu, ts)[0] - shift * np.eye(M), T, n_sub, M)
        orbit = []
        for i, P in enumerate(P[:M, :M] for b in maps for P in b):
            if i % (n_sub // n_t) == 0:
                orbit.append(v * np.exp(growth * i * T / n_sub))
            v = P @ v
        orbit = np.array(orbit)
    ddt = np.fft.ifft(2j * np.pi * np.fft.fftfreq(n_t, T / n_t)[:, None]
                      * np.fft.fft(orbit, axis=0), axis=0).real if kt else 0.0
    size = max(1, _CHUNK // (M * M))
    Su = np.concatenate([S(mu, grid.t[i:i + size])[0] @ orbit[i:i + size, :, None]
                         for i in range(0, n_t, size)])[..., 0]
    residual = (ddt - Su - lam * orbit).reshape(n_t, N, -1)
    return lam, dlam, orbit.reshape(n_t, N, -1), residual, K


def _max_one_pair(mu: float, lam: float, orbit, residual, grid: Grid, L: float) -> PrincipalEigenpair:
    """The pair on grid's nodes from _hill_modes' modes of z-period L, scaled to
    max one and refused unless uniformly positive, its residual relative to max u."""
    n = orbit.shape[-1]
    theta = 2 * np.pi / L * np.outer(np.arange(1, n // 2 + 1), grid.z)
    F = np.ones((n, grid.n_z))  # _hill's real basis on the nodes
    F[1::2], F[2::2] = np.sqrt(2.0) * np.cos(theta), -np.sqrt(2.0) * np.sin(theta)
    vals = orbit @ F
    scale = vals.flat[np.argmax(np.abs(vals))]
    vals = (vals / scale).transpose(1, 0, 2)
    if not vals.min() > 1e-12:
        raise NumericalError(f"principal eigenfunction is not uniformly positive (min/max "
                             f"{vals.min():.3e}); coupling may be reducible")
    return PrincipalEigenpair(float(mu), float(lam), GridField(vals, grid), float(vals.min()),
                              float(np.abs(residual @ F).max() / abs(scale)),
                              {"path": "ode-monodromy" if n == 1 else "fourier-hill", "modes": n})


def _hill_pair(fields, mu: float, grid: Grid, K: int):
    """(max-one principal eigenpair on grid's nodes, K), from _hill_modes."""
    lam, _, orbit, residual, K = _hill_modes(_Hill(fields), mu, grid, K)
    return _max_one_pair(mu, lam, orbit, residual, grid, fields[0][0].spatial_periods[0]), K


def principal_eigenvalue(op: OperatorSpec) -> PrincipalEigenpair:
    """Max-one principal eigenpair of op's frame at op.mu on the nodes of op.grid,
    a periodic cell: its Hill pair (_hill_pair).  A run reads its pairs from its
    EigenEvaluator; nothing in the pipeline calls this."""
    if op.grid.kind != "periodic":
        raise InputError("principal eigenvalue needs a periodic cell grid")
    return _hill_pair(op.fsys.reduce_1d(), op.mu, op.grid, 0)[0]


class EigenEvaluator:
    """Memoized lambda(mu) and lambda'(mu) for a fixed frame system, with no options.

    Pairs come from _hill_modes on default_cell_grid's nodes, each from the
    last K.  The dispersion layer reads nothing else: persistence is the sign
    of ev(0), and c* and the decay roots are searched on ev and ev.derivative
    at mu > 0.  The wave envelopes read frame_pair, the same modes seen from a
    moving frame.  A time-periodic frame keeps only the modes that a pair or
    frame_pair asks for; solves counts the _hill_modes calls.
    """

    def __init__(self, fsys: FrameSystem):
        self.fsys = fsys
        self.grid = default_cell_grid(fsys)
        self._hill = _Hill(fsys.reduce_1d())
        self._K = self.solves = 0
        self._slopes: dict[float, tuple[float, float]] = {}  # mu -> (lambda, lambda')
        self._modes: dict[tuple[float, int], tuple] = {}  # (mu, n_t) -> (lambda, orbit, residual)
        self._cache: dict[float, PrincipalEigenpair] = {}

    def _modes_at(self, mu: float, n_t: int, keep=True):
        """_hill_modes at mu on n_t slices (one if static), kept if keep or if static."""
        key = (mu, n_t if self.grid.n_t > 1 else 1)
        if key in self._modes:
            return self._modes[key]
        grid = self.grid if key[1] == self.grid.n_t else replace(self.grid, n_t=n_t)
        lam, dlam, *modes, self._K = _hill_modes(self._hill, mu, grid, self._K)
        self.solves += 1
        if grid is self.grid:
            self._slopes[mu] = lam, dlam
        if keep or key[1] == 1:
            self._modes[key] = lam, *modes
        return (lam, *modes)

    def _slope(self, mu: float) -> tuple[float, float]:
        """(lambda, dlambda/dmu) at mu, from one solve whose pair must be uniformly positive."""
        mu = float(mu)
        if mu not in self._slopes:
            _max_one_pair(mu, *self._modes_at(mu, self.grid.n_t, False), self.grid, self.grid.z1)
        return self._slopes[mu]

    def pair(self, mu: float) -> PrincipalEigenpair:
        mu = float(mu)
        if mu not in self._cache:
            self._cache[mu] = _max_one_pair(mu, *self._modes_at(mu, self.grid.n_t), self.grid,
                                            self.grid.z1)
        return self._cache[mu]

    def frame_pair(self, fsys: FrameSystem, mu: float, cell: Grid) -> PrincipalEigenpair:
        """The max-one pair at mu of fsys, this c = 0 frame's direction moving at
        c = fsys.c, on its periodic cell: exactly lambda_0 + c mu and
        phi_0(t mod 1, z - c t), as the frame map carries one onto the other.
        T_frame is an integer, so slice k of the cell reads slice k T_frame mod
        n_t of phi_0's n_t-slice orbit over [0, 1); the z shift c t turns each
        mode j's (cos, sin) pair by 2 pi j c t / L_z.
        """
        e0, e = self.fsys.frame.e_floats(), fsys.frame.e_floats()
        if self.fsys.c != 0 or e0.shape != e.shape or np.abs(e0 - e).max() > 1e-12:
            raise InputError("a moving frame's pairs come from the c = 0 evaluator of its "
                             f"direction e, not of e = {tuple(e0)} at c = {self.fsys.c}")
        lam, orbit, residual = self._modes_at(float(mu), cell.n_t)
        k = np.arange(cell.n_t) * int(fsys.T_frame) % len(orbit)
        turn = np.outer(2 * np.pi / self.grid.z1 * fsys.c * cell.t,
                        np.arange(1, orbit.shape[-1] // 2 + 1))
        cos, sin = np.cos(turn)[:, None], np.sin(turn)[:, None]
        modes = np.stack([orbit, residual])[:, k]  # (2, n_t, N, 2K+1)
        a, b = modes[..., 1::2], modes[..., 2::2]
        modes[..., 1::2], modes[..., 2::2] = a * cos + b * sin, b * cos - a * sin
        return _max_one_pair(mu, lam + fsys.c * mu, *modes, cell, self.grid.z1)

    def __call__(self, mu: float) -> float:
        return self._slope(mu)[0]

    def derivative(self, mu: float) -> float:
        return self._slope(mu)[1]

    @property
    def samples(self):
        return sorted((mu, lam) for mu, (lam, _) in self._slopes.items())


def lambda_mu_curve(ev: EigenEvaluator, mu_list):
    """Sampled dispersion data [(mu, lambda, dlambda/dmu)] for positive mu, from ev."""
    mus = [float(m) for m in mu_list]
    if any(m <= 0 for m in mus) or sorted(mus) != mus:
        raise InputError("mu_list must be sorted and positive")
    return [(mu, ev.pair(mu).lam, ev.derivative(mu)) for mu in mus]

