"""Shared discretization layer.

Grids live on one period in time and either a periodic cell [0, L_z) or a
truncated interval [-a, a] in the profile coordinate z.  The operators the
wave and Cauchy layers solve have one discretization, `stencil`: second-order
finite differences in conservative (flux) form, stepped by implicit Euler
(unconditionally stable and positivity preserving for cooperative couplings:
the step matrix is an M-matrix at moderate mesh Peclet numbers).

Boundary treatments of the step solver: periodic on a cell; Dirichlet on an
interval when boundary data is given (the wave layer); zero flux on an
interval without boundary data (the Cauchy layer), with the drift upwinded at
the two end nodes so the step matrix stays an M-matrix.  `stencil` gives
the spatial operator S as 2N+1 bands, which `apply_S` applies.  Those bands
are already LAPACK's band storage of S^T, so a step solver stores them once
per time slice (a periodic cell in the folded node order 0, n-1, 1, n-2, ...,
half-bandwidth 2N) and every step, steady and Newton matrix d I + s S is
factored as its transpose by one band LU (dgbtrf), solved by a unit-diagonal
dtbsv pair and one product by 1/D.  `apply_operator` is the backward-Euler
residual on the same S; a diagonal a caller adds is folded into `OperatorSpec.pot0`.

Time-periodic boundary-value problems, linear with a source term, are solved
by relaxation of the parabolic flow: a positive periodic-Dirichlet principal
eigenvalue makes the period map a contraction.  A time-independent problem is
steady: one band solve.  A Stepper carried from one solve to the next keeps
its slice LUs while the new operator stays within LU_REUSE of the factored
one; the difference is then an explicit source of each step.
`Stepper.step_implicit_quadratic` takes a backward-Euler step with a diagonal
quadratic term kept implicit, finished by one Newton solve,
`Stepper._newton_be`, once its fixed-point iteration stops contracting.
"""

from __future__ import annotations

import importlib.util
import os
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np
import scipy

from .coeffs import max_frequencies
from .errors import InputError, NumericalError
from .frame import FrameSystem

__all__ = [
    "Grid",
    "GridField",
    "OperatorSpec",
    "build_operator_mu",
    "resolved_fields",
    "stencil",
    "apply_S",
    "apply_operator",
    "solve_periodic_bvp",
    "Stepper",
]

_QUAD_TOL = 1e-13  # relative tolerance of the implicit quadratic step
_QUAD_MAX_INNER = 60
_MAX_PERIODS = 20000  # relaxation periods before solve_periodic_bvp gives up
# T max over nodes of the row sums of |S_op - S_LU| up to which a Stepper's slice LUs
# step a new operator (Stepper.retarget); 1.0 costs periods and the wrap residual
LU_REUSE = 0.1
_CSV_LINES = 512  # CSV lines formatted at once


def _scipy_kernels(name: str):
    """scipy's extension module linalg/<name>, loaded from its file: importing it
    through scipy.linalg runs that package's import, about 0.25 s of set-up.  A scipy
    without the file fails here, at wavekit's import."""
    folder = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    for path in (os.path.join(folder, name + suffix) for suffix in EXTENSION_SUFFIXES):
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(f"scipy.linalg.{name}", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"wavekit needs scipy's extension module {os.path.join(folder, name)}"
                      f"{EXTENSION_SUFFIXES[0]}, absent from scipy {scipy.__version__}")


# the LAPACK and BLAS kernels wavekit calls; eigen imports dgeev and zgbtr* from here
_flapack, _fblas = _scipy_kernels("_flapack"), _scipy_kernels("_fblas")
dgbtrf, dgbtrs, dgeev, dgeev_lwork, zgbtrf, zgbtrs = (
    getattr(_flapack, f) for f in ("dgbtrf", "dgbtrs", "dgeev", "dgeev_lwork", "zgbtrf", "zgbtrs"))
dgbmv, dtbsv = _fblas.dgbmv, _fblas.dtbsv


@dataclass(frozen=True)
class Grid:
    """Space-time grid over one period in t and a 1-D z domain."""

    n_t: int
    n_z: int
    t_period: float
    kind: str  # "periodic" | "interval"
    z0: float
    z1: float

    def __post_init__(self):
        # plain Python scalars keep serialized metadata round-trippable
        for name, cast in (("n_t", int), ("n_z", int), ("t_period", float), ("z0", float), ("z1", float)):
            object.__setattr__(self, name, cast(getattr(self, name)))
        if self.kind not in ("periodic", "interval"):
            raise InputError(f"unknown grid kind {self.kind!r}")
        if self.n_t < 1 or (self.n_z < 16 and (self.n_z, self.kind) != (1, "periodic")):
            raise InputError("need n_t >= 1 and n_z >= 16 (n_z = 1 only on a periodic cell)")
        if self.t_period <= 0 or self.z1 <= self.z0:
            raise InputError("degenerate grid extents")

    @classmethod
    def periodic_cell(cls, t_period: float, L_z: float, n_t: int, n_z: int) -> "Grid":
        return cls(n_t, n_z, t_period, "periodic", 0.0, L_z)

    @classmethod
    def cylinder(cls, t_period: float, a: float, n_t: int, n_z: int) -> "Grid":
        return cls(n_t, n_z, t_period, "interval", -a, a)

    @property
    def dt(self) -> float:
        return self.t_period / self.n_t

    @property
    def dz(self) -> float:
        if self.kind == "periodic":
            return (self.z1 - self.z0) / self.n_z
        return (self.z1 - self.z0) / (self.n_z - 1)

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.n_t) * self.dt

    @property
    def z(self) -> np.ndarray:
        return self.z0 + np.arange(self.n_z) * self.dz

    @property
    def z_half(self) -> np.ndarray:
        """Face positions z_{j+1/2}; wraps for periodic grids."""
        if self.kind == "periodic":
            return self.z + 0.5 * self.dz
        return self.z[:-1] + 0.5 * self.dz


def csv_lines(head: str, cells: list, row: np.ndarray):
    """The lines head + cells[j] + repr(row[j]), each ended by a newline, as
    strings of _CSV_LINES lines: the float reprs of a chunk come from one repr
    of its list, and only one chunk of the row is a Python list at a time."""
    sep = "\n" + head
    for i in range(0, len(row), _CSV_LINES):
        vals = repr(row[i:i + _CSV_LINES].tolist())[1:-1].split(", ")
        yield head + sep.join(map(str.__add__, cells[i:i + _CSV_LINES], vals)) + "\n"


@dataclass
class GridField:
    """Component-valued samples over one period: values[i, k, j] at (t_k, z_j)."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expect = (self.values.shape[0], self.grid.n_t, self.grid.n_z)
        if self.values.shape != expect:
            raise InputError(f"values shape {self.values.shape} != {expect}")
        if not np.all(np.isfinite(self.values)):
            raise InputError("GridField values must be finite")

    @property
    def N(self) -> int:
        return self.values.shape[0]

    def sup(self) -> float:
        return float(np.abs(self.values).max())

    # -- CSV (header component,t_index,z,value; grid metadata in a comment) ----

    def to_csv(self, path) -> None:
        g = self.grid
        z_cells = [f"{v!r}," for v in g.z.tolist()]
        with open(path, "w") as fh:
            fh.write(
                f"# grid kind={g.kind} n_t={g.n_t} n_z={g.n_z} "
                f"t_period={g.t_period!r} z0={g.z0!r} z1={g.z1!r}\n"
            )
            fh.write("component,t_index,z,value\n")
            # one row of n_z lines per (component, time index)
            for r, row in enumerate(self.values.reshape(-1, g.n_z)):
                fh.writelines(csv_lines("{},{},".format(*divmod(r, g.n_t)), z_cells, row))

    @classmethod
    def from_csv(cls, path) -> "GridField":
        with open(path) as fh:
            meta_line = fh.readline()
            if not meta_line.startswith("# grid"):
                raise InputError("missing grid metadata line")
            meta = dict(tok.split("=") for tok in meta_line[2:].split()[1:])
            grid = Grid(
                int(meta["n_t"]), int(meta["n_z"]), float(meta["t_period"]),
                meta["kind"], float(meta["z0"]), float(meta["z1"]),
            )
            header = fh.readline().strip()
            if header != "component,t_index,z,value":
                raise InputError(f"unexpected CSV header {header!r}")
            rows = np.atleast_2d(np.loadtxt(fh, delimiter=","))
        N = int(rows[:, 0].max()) + 1
        values = np.empty((N, grid.n_t, grid.n_z))
        values[rows[:, 0].astype(int), rows[:, 1].astype(int),
               np.round((rows[:, 2] - grid.z0) / grid.dz).astype(int)] = rows[:, 3]
        return cls(values, grid)


@dataclass(frozen=True)
class OperatorSpec:
    """Grid coefficient tables of the tilted frame operator.

    Acting on u componentwise,
        (op u)_i = d_t u_i - d_z(a_i d_z u_i) + drift_i d_z u_i
                   - sum_j coupling_ij u_j + pot0_i u_i,
    with drift_i = q_z,i - 2 mu a_i and pot0_i = -(mu^2 a_i + mu d_z a_i
    - mu q_z,i); mu = 0 recovers the plain frame operator.  `stencil` is the
    one reader that turns the tables into finite differences.
    """

    fsys: FrameSystem
    mu: float
    grid: Grid
    a_node: np.ndarray     # (N, n_t, n_z)
    a_half: np.ndarray     # (N, n_t, n_faces)
    drift: np.ndarray      # (N, n_t, n_z)
    pot0: np.ndarray       # (N, n_t, n_z)
    coupling: np.ndarray   # (N, N, n_t, n_z): L'
    b_tab: np.ndarray      # (N, N, n_t, n_z): B' (for semilinear terms)

    @property
    def N(self) -> int:
        return self.a_node.shape[0]

    def is_time_independent(self) -> bool:
        return all(_const_along(x, x.ndim - 2) for x in (self.a_node, self.drift, self.pot0, self.coupling))

    def peclet(self) -> float:
        """Largest mesh Peclet number |drift| dz / (2 a) over the nodes with a > 0.
        A Stepper refuses a number above 1."""
        pos = self.a_node > 0
        return float(((np.abs(self.drift[pos]) * self.grid.dz) / (2.0 * self.a_node[pos])).max(initial=0.0))


def _const_along(arr, axis):
    return bool(np.all(arr == np.take(arr, [0], axis=axis)))


def resolved_fields(fsys: FrameSystem, grid: Grid) -> tuple:
    """fsys.reduce_1d(), after refusing a grid with fewer than 4 nodes per
    shortest wavelength of those fields, in z on a cell-periodic frame and in t."""
    reduced = a_f, _, adv_f, Lm_f, Bm_f = fsys.reduce_1d()
    kt_max, (kz_max,) = max_frequencies((*a_f, *adv_f, *(g for row in (*Lm_f, *Bm_f) for g in row)))
    if kz_max > 0 and fsys.L_z is not None and grid.dz > fsys.L_z / (4.0 * kz_max):
        raise InputError(
            f"grid under-resolves coefficients: need >= 4 points per wavelength "
            f"(dz={grid.dz:.4g}, shortest wavelength {fsys.L_z / kz_max:.4g})"
        )
    if kt_max > 0 and grid.n_t < 4 * kt_max:
        raise InputError("grid under-resolves coefficients in time: need n_t >= 4 k_t")
    return reduced


def build_operator_mu(fsys: FrameSystem, mu: float, grid: Grid) -> OperatorSpec:
    """Sample the frame coefficients and assemble the tilted operator tables."""
    if mu < 0:
        raise InputError("tilt mu must be nonnegative")
    a_f, dza_f, adv_f, Lm_f, Bm_f = resolved_fields(fsys, grid)
    t = grid.t
    z = grid.z
    zh = grid.z_half

    a_node = np.stack([f.eval_grid(t, z) for f in a_f])
    a_half = np.stack([f.eval_grid(t, zh) for f in a_f])
    dza = np.stack([f.eval_grid(t, z) for f in dza_f])
    qz = np.stack([f.eval_grid(t, z) for f in adv_f])
    coupling = np.stack([np.stack([g.eval_grid(t, z) for g in row]) for row in Lm_f])
    b_tab = np.stack([np.stack([g.eval_grid(t, z) for g in row]) for row in Bm_f])

    drift = qz - 2.0 * mu * a_node
    pot0 = -(mu * mu * a_node + mu * dza - mu * qz)
    return OperatorSpec(fsys, float(mu), grid, a_node, a_half, drift, pot0, coupling, b_tab)


# -- the one stencil ------------------------------------------------------------

def stencil(op: OperatorSpec, nd: int) -> np.ndarray:
    """S, the spatial part of -op, on the first nd time slices as 2N+1 bands
    in z-major flat order (m = j N + i):
        band[N + o][k, m] = S_k[m, m + o],   o = -N, ..., N.
    The z neighbours sit at o = +-N and wrap modulo N n_z on a periodic cell;
    the coupling off its diagonal fills 0 < |o| < N.  Entries past an
    interval's ends, or pairing no two components of one node, are zero; an
    interval's end rows are zero flux with the drift upwinded.
    """
    N, dz = op.N, op.grid.dz
    periodic = op.grid.kind == "periodic"
    a_h, q = op.a_half[:, :nd], op.drift[:, :nd]
    if periodic:
        aR, aL, qj = a_h, np.roll(a_h, 1, axis=2), q
    else:
        aR, aL, qj = a_h[..., 1:], a_h[..., :-1], q[..., 1:-1]
    up = aR / dz**2 - qj / (2 * dz)
    lo = aL / dz**2 + qj / (2 * dz)
    dg = -(aR + aL) / dz**2
    if not periodic:
        a0, aN, q0, qN = a_h[..., :1], a_h[..., -1:], q[..., :1], q[..., -1:]
        pad = np.zeros_like(a0)  # no neighbour beyond an end node
        up = np.concatenate([a0 / dz**2 + np.maximum(-q0, 0.0) / dz, up, pad], axis=2)
        lo = np.concatenate([pad, lo, aN / dz**2 + np.maximum(qN, 0.0) / dz], axis=2)
        dg = np.concatenate([
            -a0 / dz**2 - np.abs(q0) / dz + np.maximum(q0, 0.0) / dz, dg,
            -aN / dz**2 - np.abs(qN) / dz + np.maximum(-qN, 0.0) / dz,
        ], axis=2)
    L = op.coupling[:, :, :nd]
    dg = dg - op.pot0[:, :nd] + np.einsum("iikz->ikz", L)
    band = np.zeros((2 * N + 1, nd, op.grid.n_z, N))
    band[0], band[N], band[2 * N] = (x.transpose(1, 2, 0) for x in (lo, dg, up))
    for i, l in zip(*np.nonzero(~np.eye(N, dtype=bool))):
        band[N + l - i, ..., i] = L[i, l]
    return band.reshape(2 * N + 1, nd, -1)


def apply_S(op: OperatorSpec, v: np.ndarray) -> np.ndarray:
    """S v on every time slice, v of shape (N, n_t, n_z)."""
    N, (n_t, n_z) = op.N, v.shape[1:]
    band = stencil(op, n_t)
    w = v.transpose(1, 2, 0).reshape(n_t, -1)
    # the z neighbours, then the coupling; on an interval the rolls' wrap meets zero bands
    Sw = band[0] * np.roll(w, N, axis=1)
    for o in (0, N, *range(1 - N, 0), *range(1, N)):
        Sw += band[N + o] * np.roll(w, -o, axis=1)
    return Sw.reshape(n_t, n_z, N).transpose(2, 0, 1)


def apply_operator(op: OperatorSpec, u: GridField) -> GridField:
    """(u_k - u_{k-1})/dt - S_k u_k over the periodic time axis, S as in `stencil`:
    the residual of the backward-Euler scheme Stepper solves.  An interval's
    end rows are the zero-flux rows; no caller reads them.
    """
    if u.grid != op.grid:
        raise InputError("grid mismatch between operator and field")
    v = u.values
    return GridField((v - np.roll(v, 1, axis=1)) / op.grid.dt - apply_S(op, v), op.grid)


# -- time stepping ---------------------------------------------------------------

def _band_lu(ab: np.ndarray, kb: int):
    """The solve b -> A^-1 b of a band matrix A, half-bandwidth kb, from LAPACK's
    band storage ab (3 kb + 1, n) of A^T: A^T[i, j] at ab[2 kb + i - j, j], Fortran
    order, overwritten.  dgbtrf factors A^T = L U; with no row swapped U = D U1 has kb
    superdiagonals, and A x = b is U1^T y = b, L^T x = y / D: two unit-diagonal dtbsv
    solves and a product by 1/D, no division in their loops; else dgbtrs.  The solve
    may overwrite b.  A zero pivot raises NumericalError."""
    lu, piv, info = dgbtrf(ab, kb, kb, overwrite_ab=1)
    if info > 0:
        raise NumericalError(f"singular band matrix: zero pivot in column {info - 1}")
    if np.any(piv != np.arange(piv.size)):
        return lambda b: dgbtrs(lu, kb, kb, b, piv, trans=1)[0]
    inv_d = 1.0 / lu[2 * kb]
    u1t, lt = np.zeros((2, piv.size, kb + 1)).transpose(0, 2, 1)  # dtbsv's band storage, Fortran
    for r in range(1, kb + 1):
        u1t[r, :-r] = lu[2 * kb - r, r:] * inv_d[:-r]
        lt[kb - r, r:] = lu[2 * kb + r, :-r]
    def solve(b):
        y = dtbsv(kb, u1t, b, lower=1, diag=1, overwrite_x=1)
        return dtbsv(kb, lt, np.multiply(y, inv_d, out=y), diag=1, overwrite_x=1)
    return solve


class Stepper:
    """Cached band-LU step solver for the parabolic flow d_t v = S(t) v.

    S is the spatial part of -op.  Unknowns are node-major, component-minor
    (j N + i, j-th node of the solve order: z order on an interval, folded 0,
    n-1, 1, n-2, ... on a periodic cell, so S has half-bandwidth kb = N or 2N).
    `stencil`'s bands, stored once per distinct time slice as LAPACK's band
    storage of S^T, carry every matrix d I + s S_k: products by dgbmv, LUs of
    the transpose by _band_lu, counted in `factorizations`.  With boundary
    data bc the Dirichlet rows (_dirichlet) of S are zero: step matrices have
    identity rows there and the data enters through the right-hand side;
    without bc an interval's two ends carry no flux.  `step` and `run_period`
    work on flat vectors in the solve order (_flat and _unflat convert);
    `retarget` moves the stepper to another operator, reusing its LUs if it can.
    """

    def __init__(self, op: OperatorSpec, bc: tuple[np.ndarray, np.ndarray] | None = None):
        g = op.grid
        if bc is not None and g.kind != "interval":
            raise InputError("boundary data needs an interval grid")
        if g.kind == "periodic" and g.n_z == 1:  # every band would fold onto the one node
            raise InputError("a one-node periodic cell cannot step: it takes the eigen ODE path")
        self.grid = g
        self.bc = bc
        self.N = op.N
        self.size = op.N * g.n_z
        self.factorizations = 0
        self._dirichlet = np.zeros(self.size, dtype=bool)
        if bc is not None:
            self._dirichlet[: self.N] = self._dirichlet[-self.N:] = True
        nodes = np.stack([np.arange(g.n_z), np.arange(g.n_z)[::-1]], axis=1).ravel()[: g.n_z]
        periodic = g.kind == "periodic"
        self._nodes, self._slots = (nodes, np.argsort(nodes)) if periodic else (slice(None),) * 2
        self.kb = 2 * self.N if periodic else self.N
        self._build(op)

    def _build(self, op: OperatorSpec) -> None:
        """Store op's bands; its slice LUs follow on the first step."""
        if op.peclet() > 1.0:
            raise InputError(f"mesh Peclet number {op.peclet():.3g} > 1: centered advection "
                             "would break the M-matrix property; refine dz")
        self.op = op
        self._lag = None  # (n_t, n_z, N, N): node blocks of S_target - S_op (retarget), or None
        self.time_dependent = not op.is_time_independent()
        self.n_distinct = self.grid.n_t if self.time_dependent else 1
        self._assemble_S()

    def retarget(self, op: OperatorSpec) -> None:
        """Step op from now on; op is on this grid and differs from self.op at most
        in pot0 and coupling, or the bands and LUs are rebuilt for it.

        The slice LUs of self.op stay while T max_nodes row sums |S_op - S| <=
        LU_REUSE, S_op - S being one N x N block per node: run_period then adds
        dt (S_op - S)_k u_k to each step's right-hand side, u_k the previous
        period's orbit, so its fixed point is backward Euler for op itself.
        """
        if op.grid != self.grid:
            raise InputError("retarget needs an operator on the stepper's grid")
        self._lag = None
        if all(np.array_equal(getattr(op, k), getattr(self.op, k)) for k in ("a_node", "a_half", "drift")):
            d = np.moveaxis(np.subtract(op.coupling, self.op.coupling), (0, 1), (2, 3))
            for i in range(self.N):  # in place: no table-sized temporaries
                d[..., i, i] -= op.pot0[i]
                d[..., i, i] += self.op.pot0[i]
            rows = np.abs(d[..., 0])
            for j in range(1, self.N):
                rows += np.abs(d[..., j])
            if self.grid.t_period * rows.max() <= LU_REUSE:
                self._lag = d[:, self._nodes]
                return
            del d, rows
        self.__dict__.pop("_lhs_lu", None)  # free the old LUs and bands before the new ones
        self._S_ab = None
        self._build(op)

    @cached_property  # on first use: steady solves never step
    def _lhs_lu(self) -> list:
        return [self._lu(1.0, -self.grid.dt, k) for k in range(self.n_distinct)]

    def _assemble_S(self) -> None:
        """_S_ab[k].T (2 kb + 1, size): S_k^T in general band storage, S_k[m, m + o]
        at [kb + o, m] in the solve order; on an interval, stencil's bands."""
        N, kb, size = self.N, self.kb, self.size
        band = stencil(self.op, self.n_distinct)
        band[..., self._dirichlet] = 0.0
        if self.grid.kind == "interval":
            self._S_ab = np.ascontiguousarray(band.transpose(1, 2, 0))
            return
        # nonzero entries only: a zero pairing no two components of a node folds off the band
        i, m = np.nonzero(np.any(band != 0.0, axis=1))
        pos = (self._slots[:, None] * N + np.arange(N)).ravel()
        p, q = pos[m], pos[(m + i - N) % size]
        self._S_ab = np.zeros((self.n_distinct, size, 2 * kb + 1))
        self._S_ab[:, p, kb + q - p] = band[i, :, m].T

    def _lu(self, d, s: float, k: int = 0):
        """The solve of d I + s S_k (_band_lu); d a scalar or a diagonal in the solve order."""
        kb = self.kb
        ab = np.zeros((self.size, 3 * kb + 1))
        np.multiply(self._S_ab[k], s, out=ab[:, kb:])
        ab[:, 2 * kb] += d
        self.factorizations += 1
        return _band_lu(ab.T, kb)

    def _apply(self, x: np.ndarray, d, s: float, k: int = 0) -> np.ndarray:
        """(d I + s S_k) x in the solve order."""
        return dgbmv(self.size, self.size, self.kb, self.kb, s, self._S_ab[k].T, x,
                     beta=1.0, y=d * x, trans=1)

    def _flat(self, v):
        """v (N, ..., n_z) as a new array (..., size) in the solve order."""
        w = v[..., self._nodes].transpose(*range(1, v.ndim), 0)
        return w.copy().reshape(*v.shape[1:-1], self.size)

    def _unflat(self, w):
        """w (..., size) in the solve order as (N, ..., n_z): a view on an interval."""
        w = w.reshape(*w.shape[:-1], self.grid.n_z, self.N)
        return w.transpose(w.ndim - 1, *range(w.ndim - 1))[..., self._slots]

    def _bc_into(self, w: np.ndarray, kk: int) -> np.ndarray:
        """Write the Dirichlet data of t_kk into the flat vector w; returns w."""
        if self.bc is not None:
            left, right = self.bc
            w[: self.N] = left[:, kk]
            w[-self.N:] = right[:, kk]
        return w

    def step(self, w: np.ndarray, k: int) -> np.ndarray:
        """w (size,), flat in the solve order, advanced from t_k to t_{k+1} in place:
        the Dirichlet data of t_{k+1} go into w, and the solve overwrites it."""
        kk = (k + 1) % self.grid.n_t
        return self._lhs_lu[kk % self.n_distinct](self._bc_into(w, kk))

    def step_implicit_quadratic(self, v: np.ndarray, k: int, b_k: np.ndarray) -> np.ndarray:
        """Backward-Euler step of d_t v = S v - b v^2, quadratic kept implicit.

        Solves (I - dt S) w + dt b w^2 = v by fixed-point iterations on the
        cached factorization, to _QUAD_TOL, so the map's steady state is the
        exact discrete one.  b_k is the (N, n_z) diagonal quadratic coefficient
        at t_{k+1}, ignored on the Dirichlet rows.  Once a change is not finite
        or not below half the last (dt b w too large), _newton_be solves the
        step and its Dirichlet entries are reset to the data; Newton failing
        raises.
        """
        dt = self.grid.dt
        kk = (k + 1) % self.grid.n_t
        b = np.where(self._dirichlet, 0.0, self._flat(b_k))
        rhs0 = self._bc_into(self._flat(v), kk)
        solve = self._lhs_lu[kk % self.n_distinct]
        w = solve(rhs0.copy())
        changes = []
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(_QUAD_MAX_INNER):
                w_new = solve(rhs0 - dt * b * w * w)
                changes.append(float(np.abs(w_new - w).max()))
                w = w_new
                if changes[-1] <= _QUAD_TOL * (1.0 + np.abs(w).max()):
                    return self._unflat(w)
                if not changes[-1] < (0.5 * changes[-2] if len(changes) > 1 else np.inf):
                    break
        w = self._newton_be(rhs0, b, dt, kk)
        if w is None:
            raise NumericalError("implicit quadratic step: Newton did not converge", history=changes)
        return self._unflat(self._bc_into(w, kk))

    def _newton_be(self, u: np.ndarray, b: np.ndarray, dt: float, kk: int) -> np.ndarray | None:
        """Newton for the backward-Euler step from flat u (Dirichlet data in,
        b zero there) to t_kk: G(w) = (w - u)/dt + (K w + b w^2 - data) = 0,
        K = -S with identity Dirichlet rows, Jacobian K + diag(2 b w + 1/dt).
        Returns w, whose Dirichlet entries drift by roundoff, once |G| < 1e-11
        (1 + |u|) / min(dt, 1); None if G is not finite or 12 updates fail.
        """
        k = kk % self.n_distinct
        data = self._bc_into(np.zeros(self.size), kk)
        tol = 1e-11 * (1.0 + float(np.abs(u).max())) / min(dt, 1.0)
        w = u.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(12):
                G = (w - u) / dt + (self._apply(w, self._dirichlet, -1.0, k) + b * w * w - data)
                if not np.all(np.isfinite(G)):
                    return None
                if float(np.abs(G).max()) < tol:
                    return w
                w = w - self._lu(self._dirichlet + 2.0 * b * w + 1.0 / dt, -1.0, k)(G)
        return None

    def run_period(self, v0: np.ndarray, dt_f: np.ndarray | None = None,
                   orbit: np.ndarray | None = None):
        """One period of steps from the flat v0 (size,), all in the solve order: (v at
        t_{n_t}, the orbit (n_t, size) at t_0..t_{n_t-1}, written into orbit if given).
        dt_f (n_t, size), dt times a source f, adds dt f_{k+1} to step k's right-hand
        side: backward Euler for d_t v = S v + f.  After a retarget that kept the LUs,
        orbit must hold the previous period's: step k reads its slice k + 1 for the lag
        source on node blocks before overwriting it (slice 0, read last, is this period's).
        """
        v = np.array(v0, dtype=float)
        n_t, dt, lag = self.grid.n_t, self.grid.dt, self._lag
        if v.shape != (self.size,):
            raise InputError(f"v0 shape {v.shape} != {(self.size,)}")
        if orbit is None:
            if lag is not None:
                raise InputError("a retargeted Stepper needs the previous period's orbit")
            orbit = np.empty((n_t, self.size))
        for k in range(n_t):
            orbit[k] = v
            kk = (k + 1) % n_t
            if dt_f is not None:
                v += dt_f[kk]
            if lag is not None:
                v += dt * np.einsum("zij,zj->zi", lag[kk], orbit[kk].reshape(-1, self.N)).reshape(-1)
            v = self.step(v, k)
        return v, orbit


def solve_periodic_bvp(op: OperatorSpec, boundary, init: GridField, tol: float,
                       source: np.ndarray | None = None, force_relaxation: bool = False,
                       stepper: Stepper | None = None, wrap_tol: float | None = None):
    """Time-periodic solution of op u = source.

    boundary = (left, right) Dirichlet data, each (N, n_t) at grid times;
    source, if given, is an (N, n_t, n_z) forcing f, ignored on the Dirichlet
    rows: backward-Euler steps solve (I - dt S_k) u_k = u_{k-1} + dt f_k.  A
    diagonal potential is folded into op.pot0 by the caller.  A fully
    time-independent problem is one band solve, its one slice repeated over
    n_t.  Otherwise relaxation of the parabolic flow from init converges
    geometrically when the periodic-Dirichlet principal eigenvalue is
    positive; it stops once the last change of v(0) over a period, over one
    minus the observed contraction rate, is below tol (or the change below
    tol/100), and, if wrap_tol is given, once that change, the returned
    orbit's wrap mismatch |v(T) - v(0)|, is also at most wrap_tol dt max|u|.  The orbit returned is the last period's.  On n_t = 1
    relaxation steps with dt = T.  stepper, a relaxation's Stepper on this grid
    and boundary data, is retargeted to op (its LUs kept within LU_REUSE, the
    previous period's orbit, init's at first, feeding the lag source) instead of
    building a new one.  Returns (GridField, info): info has "mode", "periods"
    (every period run), "changes", "factorizations" (the LUs this call
    computed) and the "stepper" it relaxed with (None if steady).
    """
    g = op.grid
    if g.kind != "interval":
        raise InputError("solve_periodic_bvp expects an interval (cylinder) grid")
    left, right = (np.asarray(b, dtype=float) for b in boundary)
    if left.shape != (op.N, g.n_t) or right.shape != (op.N, g.n_t):
        raise InputError("boundary data must have shape (N, n_t)")

    if (not force_relaxation and op.is_time_independent()
            and (source is None or _const_along(source, 1))
            and np.all(left == left[:, :1]) and np.all(right == right[:, :1])):
        steady = Stepper(op, bc=(left, right))
        rhs = np.zeros(steady.size) if source is None else steady._flat(source[:, 0])
        u = steady._unflat(steady._lu(steady._dirichlet, -1.0)(steady._bc_into(rhs, 0)))
        return GridField(np.repeat(u[:, None, :], g.n_t, axis=1), g), {
            "mode": "steady", "periods": 0, "changes": [], "factorizations": steady.factorizations,
            "stepper": None}

    if (stepper is not None and stepper.bc is not None
            and all(np.array_equal(x, y) for x, y in zip(stepper.bc, (left, right)))):
        stepper.retarget(op)
    else:
        stepper = Stepper(op, bc=(left, right))
    before = stepper.factorizations
    orbit = stepper._flat(init.values)  # (n_t, size) in the solve order for the whole call
    dt_f = None if source is None else g.dt * stepper._flat(source)
    v, changes = orbit[0], []
    for _ in range(_MAX_PERIODS):
        v, orbit = stepper.run_period(v, dt_f, orbit)
        change = float(np.abs(v - orbit[0]).max())  # orbit[0]: the period's start
        changes.append(change)
        if not np.isfinite(change):
            raise NumericalError("periodic BVP relaxation diverged", history=changes)
        q = changes[-1] / changes[-2] if len(changes) >= 2 and changes[-2] > 0 else 1.0
        if ((change < tol * 1e-2 or (q < 1.0 and change / (1.0 - q) < tol))
                and (wrap_tol is None or change <= wrap_tol * g.dt * np.abs(orbit).max())):
            break
    else:
        raise NumericalError(
            "periodic BVP relaxation did not converge "
            f"(last change {changes[-1]:.3e}); the periodic-Dirichlet eigenvalue "
            "may be nonpositive or the grid too coarse",
            history=changes,
        )
    return GridField(np.ascontiguousarray(stepper._unflat(orbit)), g), {
        "mode": "relaxation", "periods": len(changes), "changes": changes,
        "factorizations": stepper.factorizations - before, "stepper": stepper}
