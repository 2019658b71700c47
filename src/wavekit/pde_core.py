"""Shared discretization layer.

Grids live on one period in time and either a periodic cell [0, L_z) or a
truncated interval [-a, a] in the profile coordinate z.  The linearized
operators have one discretization, `stencil`: second-order finite differences
in conservative (flux) form.  Time stepping is implicit Euler by default
(unconditionally stable and positivity preserving for cooperative couplings:
the step matrix is an M-matrix at moderate mesh Peclet numbers), with a
Crank-Nicolson option used by the eigensolver where it matters.

Boundary treatments of the step solver: periodic on a cell; Dirichlet on an
interval when boundary data is given (the wave and eigen layers); zero flux on
an interval without boundary data (the Cauchy layer), with the drift upwinded
at the two end nodes so the step matrix stays an M-matrix.  A step solver
assembles its spatial operator S once, for all time slices, on one sparse
pattern; the step, Crank-Nicolson, steady and Newton matrices are all
d I + s S on it, and the Dirichlet rows are a boolean mask.  The residual
`apply_operator` is that of the backward-Euler scheme on the same S.

Time-periodic boundary-value problems, linear or with a diagonal quadratic
term, are solved by one driver: relaxation of the parabolic flow; a positive
periodic-Dirichlet principal eigenvalue makes the period map a contraction, so
the flow converges geometrically to the unique time-periodic solution.  When
nothing depends on time the periodic problem degenerates to a steady one: a
single sparse solve when linear, pseudo-transient continuation when
semilinear.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import InputError, NumericalError
from .frame import FrameSystem

__all__ = [
    "Grid",
    "GridField",
    "OperatorSpec",
    "build_operator_mu",
    "stencil",
    "apply_S",
    "apply_operator",
    "solve_periodic_bvp",
    "Stepper",
]

_QUAD_TOL = 1e-13  # relative tolerance of the implicit quadratic step
_QUAD_MAX_INNER = 60
_MAX_PERIODS = 20000  # relaxation periods before solve_periodic_bvp gives up
_PTC_MAX_STEPS = 400  # pseudo-time steps before continuation gives up


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
        object.__setattr__(self, "n_t", int(self.n_t))
        object.__setattr__(self, "n_z", int(self.n_z))
        object.__setattr__(self, "t_period", float(self.t_period))
        object.__setattr__(self, "z0", float(self.z0))
        object.__setattr__(self, "z1", float(self.z1))
        if self.kind not in ("periodic", "interval"):
            raise InputError(f"unknown grid kind {self.kind!r}")
        if self.n_t < 1 or self.n_z < 16:
            raise InputError("need n_t >= 1 and n_z >= 16")
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
            for r, row in enumerate(self.values.reshape(-1, g.n_z).tolist()):
                head = "{},{},".format(*divmod(r, g.n_t))
                fh.writelines(map("{}{}{!r}\n".format, repeat(head), z_cells, row))

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
        return (
            _const_along(self.a_node, 1) and _const_along(self.drift, 1)
            and _const_along(self.pot0, 1) and _const_along(self.coupling, 2)
        )

    def is_z_independent(self) -> bool:
        return (
            _const_along(self.a_node, 2) and _const_along(self.drift, 2)
            and _const_along(self.pot0, 2) and _const_along(self.coupling, 3)
        )


def _const_along(arr, axis):
    ref = np.take(arr, [0], axis=axis)
    return bool(np.all(arr == ref))


def build_operator_mu(fsys: FrameSystem, mu: float, grid: Grid) -> OperatorSpec:
    """Sample the frame coefficients and assemble the tilted operator tables."""
    if mu < 0:
        raise InputError("tilt mu must be nonnegative")
    a_f, dza_f, adv_f, Lm_f, Bm_f = fsys.reduce_1d()
    t = grid.t
    z = grid.z
    zh = grid.z_half

    kz_max = 0
    kt_max = 0
    for f in list(a_f) + list(adv_f) + [g for row in Lm_f for g in row] + [g for row in Bm_f for g in row]:
        kt, kx = f.max_frequencies()
        kt_max = max(kt_max, kt)
        kz_max = max(kz_max, kx[0])
    if kz_max > 0 and fsys.L_z is not None and grid.dz > fsys.L_z / (4.0 * kz_max):
        raise InputError(
            f"grid under-resolves coefficients: need >= 4 points per wavelength "
            f"(dz={grid.dz:.4g}, shortest wavelength {fsys.L_z / kz_max:.4g})"
        )
    if kt_max > 0 and grid.n_t < 4 * kt_max:
        raise InputError("grid under-resolves coefficients in time: need n_t >= 4 k_t")

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

def stencil(op: OperatorSpec, extra_diag: np.ndarray | None, nd: int):
    """(lo, dg, up, off) of S, the spatial part of -(op + diag(extra_diag)),
    on the first nd time slices:
        (S v)_ij = lo_ij v_i,j-1 + dg_ij v_ij + up_ij v_i,j+1 + sum_l off_il,j v_lj,
    off being the coupling off its diagonal.  Neighbours wrap on a periodic
    cell; an interval's end rows are zero flux with the drift upwinded.
    """
    dz = op.grid.dz
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
    extra = 0.0 if extra_diag is None else extra_diag[:, :nd]
    dg = dg - op.pot0[:, :nd] - extra + np.einsum("iikz->ikz", L)
    off = L * (1.0 - np.eye(op.N))[:, :, None, None]
    return lo, dg, up, off


def apply_S(op: OperatorSpec, v: np.ndarray, extra_diag: np.ndarray | None) -> np.ndarray:
    """S v on every time slice, v of shape (N, n_t, n_z)."""
    lo, dg, up, off = stencil(op, extra_diag, op.grid.n_t)
    # on an interval lo[..., 0] = up[..., -1] = 0: the rolls' wrap adds nothing
    return (lo * np.roll(v, 1, axis=2) + dg * v + up * np.roll(v, -1, axis=2)
            + np.einsum("ijtz,jtz->itz", off, v))


def apply_operator(op: OperatorSpec, u: GridField, extra_diag: np.ndarray | None = None) -> GridField:
    """(u_k - u_{k-1})/dt - S_k u_k over the periodic time axis, S as in `stencil`:
    the residual of the backward-Euler scheme Stepper solves.  An interval's
    end rows are the zero-flux rows; no caller reads them.
    """
    if u.grid != op.grid:
        raise InputError("grid mismatch between operator and field")
    v = u.values
    return GridField((v - np.roll(v, 1, axis=1)) / op.grid.dt - apply_S(op, v, extra_diag), op.grid)


# -- time stepping ---------------------------------------------------------------

class Stepper:
    """Cached sparse step solver for the parabolic flow d_t v = S(t) v.

    S is the spatial part of -(op + diag(extra_diag)); unknowns are ordered
    z-major, component-minor (index j * N + i).  One CSC pattern, built once,
    serves every time slice and every matrix derived from S (d I + s S_k): it
    holds every diagonal entry, the three-point stencil and the N x N coupling
    block.  On an interval grid with boundary data bc, the Dirichlet rows (the
    mask _dirichlet) hold only a zero diagonal, so the implicit step matrix
    has identity rows there and boundary data is injected through the
    right-hand side; without bc the two ends carry no flux.
    """

    def __init__(self, op: OperatorSpec, scheme: str = "be",
                 extra_diag: np.ndarray | None = None,
                 bc: tuple[np.ndarray, np.ndarray] | None = None):
        if scheme not in ("be", "cn"):
            raise InputError(f"unknown scheme {scheme!r}")
        g = op.grid
        if bc is not None and g.kind != "interval":
            raise InputError("boundary data needs an interval grid")
        self.op = op
        self.grid = g
        self.scheme = scheme
        self.bc = bc
        self.N = op.N
        self.size = op.N * g.n_z
        self.extra_diag = extra_diag
        self._check_peclet()

        time_dep = not op.is_time_independent()
        if extra_diag is not None and extra_diag.shape[1] > 1:
            time_dep = time_dep or not _const_along(extra_diag, 1)
        self.time_dependent = time_dep
        self.n_distinct = g.n_t if time_dep else 1
        self._dirichlet = np.zeros(self.size, dtype=bool)
        if bc is not None:
            self._dirichlet[: self.N] = self._dirichlet[-self.N:] = True
        self._assemble_S()

    @cached_property  # on first use: steady and continuation solves never step
    def _lhs_lu(self) -> list:
        w = 1.0 if self.scheme == "be" else 0.5
        return [splu(self._matrix(1.0, -w * self.grid.dt, k)) for k in range(self.n_distinct)]

    @cached_property  # Crank-Nicolson; _bc_into overwrites the Dirichlet rows
    def _rhs_mat(self) -> list:
        return [self._matrix(1.0, 0.5 * self.grid.dt, k).tocsr() for k in range(self.n_distinct)]

    def _check_peclet(self):
        a = self.op.a_node
        q = np.abs(self.op.drift)
        pos = a > 0
        if np.any(pos):
            pe = (q[pos] * self.grid.dz) / (2.0 * a[pos])
            if pe.max() > 1.0:
                raise InputError(
                    f"mesh Peclet number {pe.max():.3g} > 1: centered advection would "
                    "break the M-matrix property; refine dz"
                )

    def _assemble_S(self) -> None:
        """The CSC pattern of S and its values on all distinct slices at once.

        Sets _indices and _indptr (the pattern), _S_data (n_distinct, nnz)
        and _diag_pos, the position of each diagonal entry in the data.
        """
        N, nd, size = self.N, self.n_distinct, self.size
        periodic = self.grid.kind == "periodic"
        lo, dg, up, coupling = stencil(self.op, self.extra_diag, nd)

        def flat(x):  # (N, nd, n_z) -> (nd, size), z-major
            return x.transpose(1, 2, 0).reshape(nd, size)

        m = np.arange(size)
        inner = ~self._dirichlet
        has_up = inner & (periodic | (m < size - N))
        has_lo = inner & (periodic | (m >= N))
        e = np.arange(size * N)  # coupling block: row e // N, component e % N
        r = e // N
        c = r - r % N + e % N
        off = inner[r] & (c != r)
        rows = np.concatenate([m, m[has_up], m[has_lo], r[off]])
        cols = np.concatenate([m, (m[has_up] + N) % size, (m[has_lo] - N) % size, c[off]])
        vals = np.concatenate([
            np.where(self._dirichlet, 0.0, flat(dg)), flat(up)[:, has_up], flat(lo)[:, has_lo],
            coupling.transpose(2, 3, 0, 1).reshape(nd, size * N)[:, off],
        ], axis=1)
        order = np.lexsort((rows, cols))
        self._indices = rows[order]
        self._indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=size))])
        self._S_data = vals[:, order]
        self._diag_pos = np.argsort(order)[:size]

    def _matrix(self, d, s: float, k: int = 0) -> sp.csc_matrix:
        """d I + s S_k on the shared pattern; d is a scalar or a flat diagonal.

        Entries that vanish on this slice (a coupling coefficient with a zero)
        are dropped, so they cost no fill in a factorization.
        """
        data = s * self._S_data[k]
        data[self._diag_pos] += d
        m = sp.csc_matrix((data, self._indices, self._indptr), shape=(self.size, self.size),
                          copy=True)
        m.eliminate_zeros()
        return m

    def _flat(self, v):
        return v.T.flatten()

    def _unflat(self, w):
        return w.reshape(self.grid.n_z, self.N).T

    def _bc_into(self, w: np.ndarray, kk: int) -> np.ndarray:
        """Write the Dirichlet data of t_kk into the flat vector w; returns w."""
        if self.bc is not None:
            left, right = self.bc
            w[: self.N] = left[:, kk]
            w[-self.N:] = right[:, kk]
        return w

    def step(self, v: np.ndarray, k: int) -> np.ndarray:
        """Advance from t_k to t_{k+1}; v is (N, n_z)."""
        n_t = self.grid.n_t
        kk = (k + 1) % n_t
        rhs = self._flat(v)
        if self.scheme == "cn":
            rhs = self._rhs_mat[k % n_t % self.n_distinct] @ rhs
        return self._unflat(self._lhs_lu[kk % self.n_distinct].solve(self._bc_into(rhs, kk)))

    def step_implicit_quadratic(self, v: np.ndarray, k: int, b_k: np.ndarray) -> np.ndarray:
        """Backward-Euler step of d_t v = S v - b v^2, quadratic kept implicit.

        Solves (I - dt S) w + dt b w^2 = v exactly (to _QUAD_TOL) by fixed-point
        iterations reusing the cached factorization; the steady state of this
        map is therefore the exact discrete steady state, with no splitting
        bias.  b_k is the (N, n_z) diagonal quadratic coefficient at t_{k+1};
        it is ignored on Dirichlet rows, which carry pure boundary data.  A
        Crank-Nicolson Stepper is refused: its cached matrix I - dt/2 S would
        halve S in the steady state.  The iteration diverges when dt b w is
        large; running out of iterations or leaving the finite numbers raises.
        """
        if self.scheme != "be":
            raise InputError("the implicit quadratic step needs a backward-Euler Stepper")
        dt = self.grid.dt
        kk = (k + 1) % self.grid.n_t
        b = np.where(self._dirichlet, 0.0, self._flat(b_k))
        rhs0 = self._bc_into(self._flat(v), kk)
        lu = self._lhs_lu[kk % self.n_distinct]
        w = lu.solve(rhs0)
        changes = []
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(_QUAD_MAX_INNER):
                w_new = lu.solve(rhs0 - dt * b * w * w)
                changes.append(float(np.abs(w_new - w).max()))
                w = w_new
                if not np.isfinite(changes[-1]):
                    break
                if changes[-1] <= _QUAD_TOL * (1.0 + np.abs(w).max()):
                    return self._unflat(w)
        raise NumericalError("implicit quadratic step did not converge (dt b u too large?)",
                             history=changes)

    def run_period(self, v0: np.ndarray, store_orbit: bool = False,
                   quadratic: np.ndarray | None = None):
        """One period of steps from v0 of shape (N, n_z), optionally with the
        orbit at t_0..t_{n_t-1}.

        With quadratic (N, n_t, n_z), steps d_t v = S v - quadratic v^2 through
        step_implicit_quadratic.
        """
        v = np.array(v0, dtype=float)
        if v.shape != (self.N, self.grid.n_z):
            raise InputError(f"v0 shape {v.shape} != {(self.N, self.grid.n_z)}")
        n_t = self.grid.n_t
        orbit = np.empty((n_t, self.N, self.grid.n_z)) if store_orbit else None
        for k in range(n_t):
            if store_orbit:
                orbit[k] = v
            if quadratic is None:
                v = self.step(v, k)
            else:
                v = self.step_implicit_quadratic(v, k, quadratic[:, (k + 1) % n_t])
        if store_orbit:
            return v, np.transpose(orbit, (1, 0, 2))
        return v

    def steady_matrix(self) -> sp.csc_matrix:
        """-S with identity rows at the Dirichlet ends; solves op u = 0."""
        return self._matrix(self._dirichlet, -1.0)


def solve_periodic_bvp(op: OperatorSpec, boundary, init: GridField, tol: float,
                       extra_diag=None, force_relaxation: bool = False,
                       quadratic: np.ndarray | None = None):
    """Time-periodic solution of (op + diag(extra_diag)) u + quadratic u^2 = 0.

    boundary = (left, right) Dirichlet data, each of shape (N, n_t), sampled
    at grid times; quadratic, if given, is the (N, n_t, n_z) diagonal
    coefficient of a semilinear term, kept implicit in every step.
    Relaxation of the parabolic flow from init converges geometrically when
    the periodic-Dirichlet principal eigenvalue of the linearization is
    positive.  A fully time-independent problem is solved directly instead:
    one sparse solve when linear, pseudo-transient continuation from init
    when semilinear (falling back to relaxation if continuation stalls).
    Returns (GridField, info dict).
    """
    g = op.grid
    if g.kind != "interval":
        raise InputError("solve_periodic_bvp expects an interval (cylinder) grid")
    left, right = (np.asarray(b, dtype=float) for b in boundary)
    if left.shape != (op.N, g.n_t) or right.shape != (op.N, g.n_t):
        raise InputError("boundary data must have shape (N, n_t)")
    stepper = Stepper(op, extra_diag=extra_diag, bc=(left, right))

    steady = (
        not force_relaxation
        and not stepper.time_dependent
        and (quadratic is None or _const_along(quadratic, 1))
        and np.all(left == left[:, :1])
        and np.all(right == right[:, :1])
    )
    if steady:
        if quadratic is None:
            rhs = stepper._bc_into(np.zeros(stepper.size), 0)
            u = stepper._unflat(splu(stepper.steady_matrix()).solve(rhs))
        else:
            u = _ptc_steady(stepper, quadratic, init.values[:, 0, :], tol)
        if u is not None:
            vals = np.repeat(u[:, None, :], g.n_t, axis=1)
            return GridField(vals, g), {"mode": "steady", "periods": 0, "changes": []}

    v = init.values[:, 0, :].copy()
    changes = []
    for _ in range(_MAX_PERIODS):
        v_new = stepper.run_period(v, quadratic=quadratic)
        change = float(np.abs(v_new - v).max())
        changes.append(change)
        v = v_new
        if change == 0.0 or change < tol * 1e-2:
            break
        if len(changes) >= 2 and changes[-2] > 0:
            q = changes[-1] / changes[-2]
            if q < 1.0 and change * q / (1.0 - q) < tol:
                break
    else:
        raise NumericalError(
            "periodic BVP relaxation did not converge "
            f"(last change {changes[-1]:.3e}); the periodic-Dirichlet eigenvalue "
            "may be nonpositive or the grid too coarse",
            history=changes,
        )
    _, orbit = stepper.run_period(v, store_orbit=True, quadratic=quadratic)
    return GridField(orbit, g), {"mode": "relaxation", "periods": len(changes), "changes": changes}


def _ptc_steady(stepper: Stepper, bdiag: np.ndarray, u0: np.ndarray, tol: float):
    """Pseudo-transient continuation for -S u + b u^2 = 0 with Dirichlet rows.

    Backward-Euler pseudo-time steps, each step equation solved by Newton
    (its Jacobian I/dt + J stays well conditioned for any dt because the
    operator's Dirichlet eigenvalue is positive along the descent from the
    supersolution), with dt doubling after every accepted step.  Plain Newton
    on the steady system jumps branches through the nearly singular
    downstream zero state; following the stable parabolic flow avoids that
    while reaching the steady state in ~log(1/lambda_min) steps.  Returns
    None if continuation stalls.
    """
    K = stepper.steady_matrix()
    dirichlet = stepper._dirichlet
    b = np.where(dirichlet, 0.0, stepper._flat(bdiag[:, 0, :]))
    data = stepper._bc_into(np.zeros(stepper.size), 0)
    u = stepper._bc_into(stepper._flat(u0), 0)

    def steady_res(v):
        # K has identity Dirichlet rows and b vanishes there: v - data
        return K @ v + b * v * v - data

    dt = 1.0
    scale = 1.0 + float(np.abs(u).max())
    for _ in range(_PTC_MAX_STEPS):
        F = steady_res(u)
        if float(np.abs(F).max()) < tol:
            return stepper._unflat(u)
        # implicit Euler step: G(w) = (w - u)/dt + steady_res(w) = 0
        w = u.copy()
        ok = False
        for _ in range(12):
            G = (w - u) / dt + steady_res(w)
            if not np.all(np.isfinite(G)):
                break
            gnorm = float(np.abs(G).max())
            if gnorm < 1e-11 * scale / min(dt, 1.0):
                ok = True
                break
            J = stepper._matrix(dirichlet + 2.0 * b * w + 1.0 / dt, -1.0)
            w = w - splu(J).solve(G)
        if ok:
            # project onto the invariant cone: the quadratic sink makes the
            # zero state one-sidedly unstable, and roundoff-scale negative
            # tails downstream would otherwise grow along the pseudo-flow
            u = np.maximum(w, 0.0)
            dt = min(dt * 2.0, 1e9)
            scale = max(scale, 1.0 + float(np.abs(u).max()))
        else:
            dt *= 0.25
            if dt < 1e-8:
                return None
    return None
