"""Periodic principal eigenvalues of the cooperative linearized operators.

The tilted frame operator op (OperatorSpec) has a principal eigenvalue lambda
with a positive periodic eigenfunction (Krein-Rutman); S is the spatial part
of -op.  One discretization, Floquet-Fourier-Hill: the eigenfunction on the
z-modes -K..K of each component and the time modes -P..P.  lambda = -s, s the
eigenvalue of largest real part of S's time average S_0 when static, of the
block-banded Hill matrix G of S - d_t when time-periodic, by shift-invert from
S_0's (_hill_modes).  A z-independent frame is the case K = 0, a static one
P = 0, on every grid.

A run's one EigenEvaluator, on the c = 0 frame of its direction, serves the
dispersion layer and, through the frame shift (EigenEvaluator.frame_pair),
the wave envelopes of the frame moving at c.

Eigenfunctions, real sums of their time modes at any cell's slice times, are
scaled to max one and refused unless uniformly positive (min u > 1e-12 max u),
as irreducible coupling (A3) makes them.  Nothing here is settable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeffs import max_frequencies
from .errors import InputError, NumericalError
from .frame import FrameSystem
from .pde_core import Grid, GridField, OperatorSpec, dgeev, dgeev_lwork, zgbtrf, zgbtrs

_STEPS = 256  # eigenfunction slices per period and per time frequency
_MODE_TOL = 1e-13  # Hill modes grow until the outermost hold this much of the largest
_ITERATIONS = 6  # inverse iterations on one LU before the shift moves
_SHIFTS = 4  # LUs of one time-periodic solve before it returns unconverged
_RETRIES = 2  # unconverged solves that may grow P before _hill_modes gives up

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
    a time-periodic cell has _STEPS slices per time frequency."""
    kt, (*_, kz) = max_frequencies(fsys.all_fields())
    n_t = _STEPS * kt if kt > 0 else 1
    n_z = max(64, 16 * kz) if kz > 0 else 1
    L_z = fsys.L_z if fsys.L_z is not None else 1.0
    return Grid.periodic_cell(fsys.T_frame, L_z, n_t, n_z)


def _hill(fields, K: int, kt: int):
    """mu -> (S, dS/dmu), S the spatial part of -op (OperatorSpec) on the z-modes
    -K..K of each component as its time harmonics S_k, k = -kt..kt, at row kt + k:
    S(t) = sum_k S_k exp(2 pi i k t / T).

    With T(f) the Toeplitz matrix of f's Fourier modes and D = diag(2 pi i k / L_z),
    S = H0 + mu H1 + mu^2 H2: H0_ii = D T(a_i) D - T(q_z,i) D + T(L'_ii), H0_ij =
    T(L'_ij), H1_ii = T(a_i) D + D T(a_i) - T(q_z,i), H2_ii = T(a_i), built once in
    the orthonormal basis (U) 1, sqrt2 cos(2 pi k z/L_z), -sqrt2 sin(...), where
    S_{-k} is the conjugate of S_k and S_0 is real.
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
    H0, H1, H2 = U.conj().T @ H.reshape(3, 2 * kt + 1, N * n, N * n) @ U
    if kt == 0:
        H0, H1, H2 = H0.real, H1.real, H2.real
    return lambda mu: (H0 + mu * (H1 + mu * H2), H1 + 2 * mu * H2)


class _Hill(dict):
    """K -> _hill of fields, each built once, with their bandwidths and periods."""

    def __init__(self, fields):
        a_f, _, adv_f, Lm_f, _ = self.fields = fields
        self.kt, (self.kz,) = max_frequencies((*a_f, *adv_f, *(g for row in Lm_f for g in row)))
        self.T, (self.L,) = a_f[0].temporal_period, a_f[0].spatial_periods

    def __missing__(self, K: int):
        self[K] = _hill(self.fields, K, self.kt)
        return self[K]


def _times(S, u):
    """The time modes of S(t) u(t), -(P + kt)..P + kt, from S's harmonics and u's
    time modes -P..P on axis 0."""
    out = np.zeros((len(u) + len(S) - 1, *u.shape[1:]), dtype=np.result_type(S, u))
    for d, Sd in enumerate(S):
        out[d:d + len(u)] += (Sd @ u[..., None])[..., 0]
    return out


def _at(modes, T: float, t):
    """The real values at times t of the time modes -P..P on modes' axis 0."""
    if len(modes) == 1:  # static: one real mode
        return np.repeat(modes, len(t), axis=0)
    m = np.arange(len(modes)) - len(modes) // 2
    vals = np.exp(2j * np.pi / T * np.outer(t, m)) @ modes.reshape(len(m), -1)
    return vals.real.reshape(len(t), *modes.shape[1:])


def _eig(A):
    """(w, W, V) of a real A by LAPACK's dgeev, as scipy.linalg.eig(A, left=True)
    returns them: w = wr + i wi, and, when some w is complex, the columns i, i + 1
    that hold a conjugate pair's real and imaginary parts become X_i +- i X_{i+1}."""
    if not np.isfinite(A).all():
        raise NumericalError("non-finite time-averaged Hill matrix")
    work, info = dgeev_lwork(len(A))
    if not info:
        wr, wi, W, V, info = dgeev(A, lwork=int(work))
    if info:
        raise NumericalError(f"LAPACK dgeev failed on the time-averaged Hill matrix: info = {info}")
    w = wr + 1j * wi
    if not np.all(w.imag == 0.0):
        pair = w.imag > 0
        pair[:-1] |= w.imag[1:] < 0
        W, V = np.array(W, dtype=complex), np.array(V, dtype=complex)
        for X in (W, V):
            for i in np.flatnonzero(pair):
                X.imag[:, i] = X.real[:, i + 1]
                X[:, i + 1] = X[:, i].conj()
    return w, W, V


def _shift_invert(S, ddt, sigma: float, v, w):
    """(v, w, converged): right and left eigenvectors, time modes -P..P (2P + 1, M),
    of the eigenvalue of G nearest sigma, by inverse iteration from v and w on time
    mode 0 on band LUs of G - sigma I (LAPACK zgbtrf); sigma moves to the iterates'
    Rayleigh quotient after _ITERATIONS steps that do not converge, for _SHIFTS LUs.
    G's blocks S_{m-j} - ddt_m delta_mj, ddt_m = 2 pi i m / T, sit within kt blocks
    of the diagonal: half-bandwidth (kt + 1) M - 1.  Iterates are scaled to one at
    their largest entry, v then to a real time mode 0."""
    kt, M, P = len(S) // 2, S.shape[1], len(ddt) // 2
    kb, i, j = (kt + 1) * M - 1, *np.indices((M, M))
    x = np.zeros((2, 2 * P + 1, M), dtype=complex)
    x[:, P] = v, w
    for _ in range(_SHIFTS):
        ab = np.zeros((3 * kb + 1, x[0].size), dtype=complex, order="F")  # G[i, j] at ab[2 kb + i - j, j]
        for d in range(-kt, kt + 1):  # block row m = block column + d
            cols = np.arange(max(0, -d), min(2 * P + 1, 2 * P + 1 - d))[:, None, None] * M + j
            ab[2 * kb + d * M + i - j, cols] = S[kt + d]
        ab[2 * kb] -= sigma + np.repeat(ddt[:, 0], M)
        lu, piv, info = zgbtrf(ab, kb, kb, overwrite_ab=1)
        if info > 0:
            raise NumericalError(f"singular Hill matrix at the shift {sigma!r}")
        for _ in range(_ITERATIONS):  # trans 2: the solve of (G - sigma I)^H, for w
            y = np.array([zgbtrs(lu, kb, kb, z.ravel(), piv, trans=t)[0] for z, t in zip(x, (0, 2))])
            y = (y / y[[0, 1], np.argmax(np.abs(y), axis=1)][:, None]).reshape(x.shape)
            step, x = np.abs(y - x).max(), y
            if step <= 1e-12:
                v, w = x
                top = v[P, np.argmax(np.abs(v[P]))]
                return v * (abs(top) / top), w, True
        v, w = x
        sigma = (np.vdot(w, _times(S, v)[kt:-kt] - ddt * v) / np.vdot(w, v)).real
    return v, w, False


def _hill_modes(hill: _Hill, mu: float, K: int, P: int):
    """(lambda, lambda', modes, residual, K, P) from hill's harmonics: the
    principal eigenfunction's time modes -P..P, (2P + 1, N, 2K + 1), and those of
    the residual of d_t u = (S + lambda) u, -(P + kt)..P + kt.

    lambda = -s, lambda' = -w X' v / w v, s = w X v / w v for the left and right
    vectors w, v of X's eigenvalue of largest real part: X = S_0 when static, from
    _eig; X = G when time-periodic, from _shift_invert at that static s and vectors.
    K (at least 2 kz) grows by half and P (at least 2 kt) as far as its modes' decay
    predicts, at most doubling, until the outermost kz z-modes and kt time modes
    hold at most _MODE_TOL of the largest.  Too few time modes can put a conjugate
    pair nearest the shift: an unconverged solve only grows P, _RETRIES times.
    """
    N, kt, T = len(hill.fields[0]), hill.kt, hill.T
    K, P, grow_K, retries = max(K, 2 * hill.kz), max(P, 2 * kt), True, _RETRIES
    while True:
        S, dS = hill[K](mu)
        if grow_K:
            A, dA = S[kt].real, dS[kt].real
            e, W, V = _eig(A)
            top = int(np.argmax(e.real))
            v0, wl = V[:, top], W[:, top].conj()
            s0, ds0 = (wl @ X @ v0 / (wl @ v0) for X in (A, dA))  # accurate in |A| |v|, dgeev's w in ||A||
        v, w, s, ds, converged = (v0 if kt else v0.real)[None], wl.conj()[None], s0, ds0, True
        if kt:
            ddt = 2j * np.pi / T * np.arange(-P, P + 1)[:, None]  # d_t on the time modes
            v, w, converged = _shift_invert(S, ddt, s0.real, v[0], w[0])
            s, ds = (np.vdot(w, X) / np.vdot(w, v) for X in
                     (_times(S, v)[kt:-kt] - ddt * v, _times(dS, v)[kt:-kt]))
        tail = np.abs(v.reshape(len(v), N, 2 * K + 1))
        size = np.maximum(tail, tail[::-1]).max(axis=(1, 2))[P:]  # of the time modes |m| = 0..P
        grow_K = hill.kz > 0 and tail[..., 2 * (K - hill.kz) + 1:].max() > _MODE_TOL * tail.max()
        grow_P = kt > 0 and size[-kt:].max() > _MODE_TOL * size.max()
        retries -= not converged
        if not (grow_K or grow_P) or retries < 0:
            break
        if grow_P:  # until the outer modes' decay reaches _MODE_TOL, at most doubling P
            outer, inner = size[-kt:].max(), size[-2 * kt:-kt].max()
            P += min(P, kt * int(np.ceil(np.log(_MODE_TOL * size.max() / outer) / np.log(min(outer / inner, 0.5)))))
        K += grow_K * (K // 2)
    if not converged or abs(s.imag) > 1e-9 * (abs(s) + 1):
        raise NumericalError(f"no real principal eigenvalue: s = {s!r}, shift-invert "
                             f"{'converged' if converged else 'did not converge'} at P = {P}")
    lam, residual = -s.real, -_times(S, v)
    residual[kt:kt + len(v)] -= (lam - ddt) * v if kt else lam * v
    return lam, -ds.real, v.reshape(-1, N, 2 * K + 1), residual.reshape(-1, N, 2 * K + 1), K, P


def _max_one_pair(mu: float, lam: float, orbit, residual, grid: Grid, L: float) -> PrincipalEigenpair:
    """The pair on grid's nodes from the values of _hill_modes' modes of z-period L
    at grid's slices, scaled to max one and refused unless uniformly positive, its
    residual relative to max u."""
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


def _hill_pair(fields, mu: float, grid: Grid, K: int, P: int = 0):
    """(max-one principal eigenpair on grid's nodes, K, P), from _hill_modes."""
    hill = _Hill(fields)
    lam, _, modes, residual, K, P = _hill_modes(hill, mu, K, P)
    orbit, residual = (_at(x, hill.T, grid.t) for x in (modes, residual))
    return _max_one_pair(mu, lam, orbit, residual, grid, hill.L), K, P


def principal_eigenvalue(op: OperatorSpec) -> PrincipalEigenpair:
    """Max-one principal eigenpair of op's frame at op.mu on the nodes of op.grid,
    a periodic cell: its Hill pair (_hill_pair).  A run reads its pairs from its
    EigenEvaluator; nothing in the pipeline calls this."""
    if op.grid.kind != "periodic":
        raise InputError("principal eigenvalue needs a periodic cell grid")
    return _hill_pair(op.fsys.reduce_1d(), op.mu, op.grid, 0)[0]


class EigenEvaluator:
    """Memoized lambda(mu) and lambda'(mu) for a fixed frame system, with no options.

    Each mu is solved once by _hill_modes, from the last K and P, and kept:
    lambda, lambda', the time modes of the eigenfunction and of its residual,
    and their pair on default_cell_grid's nodes, which must be uniformly
    positive; solves counts the solves.  The dispersion layer reads nothing
    else: persistence is the sign of ev(0), and c* and the decay roots are
    searched on ev and ev.derivative at mu > 0.  The wave envelopes read
    frame_pair, the same modes seen from a moving frame on its own cell."""

    def __init__(self, fsys: FrameSystem):
        self.fsys = fsys
        self.grid = default_cell_grid(fsys)
        self._hill = _Hill(fsys.reduce_1d())
        self._K = self._P = self.solves = 0
        self._cache: dict[float, tuple] = {}  # mu -> (lambda, lambda', (modes, residual modes), pair)

    def _solve(self, mu: float) -> tuple:
        if mu not in self._cache:
            lam, dlam, *modes, self._K, self._P = _hill_modes(self._hill, mu, self._K, self._P)
            self.solves += 1
            self._cache[mu] = lam, dlam, modes, self._pair(mu, lam, modes, self.grid, 0)
        return self._cache[mu]

    def _pair(self, mu: float, lam: float, modes, cell: Grid, c) -> PrincipalEigenpair:
        """_max_one_pair of the modes summed at cell's slice times, seen from the
        frame moving at c: the z shift c t turns each mode j's (cos, sin) pair by
        2 pi j c t / L_z."""
        vals = np.stack([_at(x, self._hill.T, cell.t) for x in modes])  # (2, n_t, N, 2K+1)
        if c:
            turn = np.outer(2 * np.pi / self.grid.z1 * c * cell.t, np.arange(1, vals.shape[-1] // 2 + 1))
            cos, sin = np.cos(turn)[:, None], np.sin(turn)[:, None]
            a, b = vals[..., 1::2], vals[..., 2::2]
            vals[..., 1::2], vals[..., 2::2] = a * cos + b * sin, b * cos - a * sin
        return _max_one_pair(mu, lam + c * mu, *vals, cell, self.grid.z1)

    def pair(self, mu: float) -> PrincipalEigenpair:
        return self._solve(float(mu))[3]

    def frame_pair(self, fsys: FrameSystem, mu: float, cell: Grid) -> PrincipalEigenpair:
        """The max-one pair at mu of fsys, this c = 0 frame's direction moving at
        c = fsys.c, on its periodic cell: exactly lambda_0 + c mu and
        phi_0(t, z - c t), as the frame map carries one onto the other, phi_0's
        time modes summed at the cell's own slice times."""
        e0, e = self.fsys.frame.e_floats(), fsys.frame.e_floats()
        if self.fsys.c != 0 or e0.shape != e.shape or np.abs(e0 - e).max() > 1e-12:
            raise InputError("a moving frame's pairs come from the c = 0 evaluator of its "
                             f"direction e, not of e = {tuple(e0)} at c = {self.fsys.c}")
        lam, _, modes, _ = self._solve(float(mu))
        return self._pair(mu, lam, modes, cell, fsys.c)

    def __call__(self, mu: float) -> float:
        return self._solve(float(mu))[0]

    def derivative(self, mu: float) -> float:
        return self._solve(float(mu))[1]

    @property
    def samples(self):
        return sorted((mu, lam) for mu, (lam, *_) in self._cache.items())


def lambda_mu_curve(ev: EigenEvaluator, mu_list):
    """Sampled dispersion data [(mu, lambda, dlambda/dmu)] for positive mu, from ev."""
    mus = [float(m) for m in mu_list]
    if any(m <= 0 for m in mus) or any(b <= a for a, b in zip(mus, mus[1:])):
        raise InputError("mu_list must be strictly increasing and positive")
    return [(mu, ev.pair(mu).lam, ev.derivative(mu)) for mu in mus]
