"""Space-time periodic coefficient fields and system assembly.

Coefficients are finite trigonometric polynomials with integer mode numbers,
so periodicity is exact by construction and min/max extraction over a
sufficiently oversampled grid is reliable.  A reaction-diffusion system is a
collection of such fields (diffusion matrices A_i, drifts q_i, linear
coupling L, competition B) sharing common periods, together with structural
validation of the standing assumptions:

  (A1) uniform ellipticity of the A_i,
  (A2) the entrywise-min coupling matrix is essentially nonnegative,
  (A3) the entrywise-max coupling matrix is irreducible,
  (A4) the entrywise-min competition matrix is positive,
  (A5) smoothness/periodicity plus symmetry of the A_i (free here: trig
       polynomials are smooth and symmetry is enforced structurally).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

__all__ = [
    "Mode",
    "PeriodicField",
    "KPPSystem",
    "AssumptionReport",
    "field_eval",
    "logistic_envelope",
    "validate_assumptions",
    "nondimensionalize",
    "system_from_json",
    "system_to_json",
]


@dataclass(frozen=True)
class Mode:
    """One trigonometric mode: cos/sin amplitudes at integer frequencies."""

    kt: int
    kx: tuple[int, ...]
    cos: float = 0.0
    sin: float = 0.0


def _canonical_modes(modes):
    """Merge duplicate frequencies, fold (-kt,-kx) onto (kt,kx), drop zeros.

    cos is even and sin is odd under frequency negation, so every mode has a
    canonical representative whose first nonzero frequency entry is positive.
    """
    acc: dict[tuple, list[float]] = {}
    for m in modes:
        key = (int(m.kt),) + tuple(int(k) for k in m.kx)
        c, s = float(m.cos), float(m.sin)
        flip = next((v for v in key if v != 0), 0) < 0
        if flip:
            key = tuple(-v for v in key)
            s = -s
        entry = acc.setdefault(key, [0.0, 0.0])
        entry[0] += c
        entry[1] += s
    out = []
    for key in sorted(acc):
        c, s = acc[key]
        if key == (0,) * len(key):
            s = 0.0  # constant mode has no sine part
        if c == 0.0 and s == 0.0 and key != (0,) * len(key):
            continue
        out.append(Mode(key[0], key[1:], c, s))
    if not out:
        out.append(Mode(0, (0,) * (len(key) - 1 if acc else 0), 0.0, 0.0))
    return tuple(out)


@dataclass(frozen=True)
class PeriodicField:
    """Finite trigonometric polynomial, exactly periodic in (t, x).

    f(t, x) = sum_m cos_m * cos(2 pi phi_m) + sin_m * sin(2 pi phi_m),
    phi_m = kt_m * t / T + sum_a kx_m[a] * x_a / L_a.
    """

    temporal_period: float
    spatial_periods: tuple[float, ...]
    modes: tuple[Mode, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.temporal_period <= 0 or any(L <= 0 for L in self.spatial_periods):
            raise InputError("periods must be positive")
        for m in self.modes:
            if len(m.kx) != len(self.spatial_periods):
                raise InputError(
                    f"mode kx has length {len(m.kx)}, expected {len(self.spatial_periods)}"
                )
        object.__setattr__(self, "modes", _canonical_modes(self.modes)
                           if self.modes else
                           (Mode(0, (0,) * len(self.spatial_periods), 0.0, 0.0),))

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def constant(value: float, n: int = 1, T: float = 1.0,
                 L: tuple[float, ...] | None = None) -> "PeriodicField":
        L = tuple(L) if L is not None else (1.0,) * n
        return PeriodicField(T, L, (Mode(0, (0,) * len(L), float(value), 0.0),))

    @property
    def n(self) -> int:
        return len(self.spatial_periods)

    def is_time_independent(self) -> bool:
        return all(m.kt == 0 for m in self.modes)

    def is_space_independent(self) -> bool:
        return all(all(k == 0 for k in m.kx) for m in self.modes)

    def max_frequencies(self) -> tuple[int, tuple[int, ...]]:
        """(max |kt|, per-axis max |kx|) over the mode set."""
        kt = max((abs(m.kt) for m in self.modes), default=0)
        kx = tuple(
            max((abs(m.kx[a]) for m in self.modes), default=0) for a in range(self.n)
        )
        return kt, kx

    # -- evaluation ------------------------------------------------------------

    def eval(self, t, x):
        """Evaluate at broadcastable arrays t, x (x indexed [..., n] or scalar for n=1)."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        if self.n == 1 and x.ndim == t.ndim:
            x = x[..., None]
        if x.shape[-1] != self.n:
            raise InputError(f"x has {x.shape[-1]} coordinates, expected {self.n}")
        out = np.zeros(np.broadcast_shapes(t.shape, x.shape[:-1]))
        for m in self.modes:
            phase = m.kt * t / self.temporal_period
            for a in range(self.n):
                if m.kx[a]:
                    phase = phase + m.kx[a] * x[..., a] / self.spatial_periods[a]
            phase = 2.0 * np.pi * phase
            if m.cos:
                out = out + m.cos * np.cos(phase)
            if m.sin:
                out = out + m.sin * np.sin(phase)
        return out

    def eval_grid(self, t_vals, z_vals):
        """Tensor evaluation on a (t, z) grid for n == 1 fields: shape (n_t, n_z)."""
        if self.n != 1:
            raise InputError("eval_grid supports 1-D fields only")
        return self.eval(np.asarray(t_vals)[:, None], np.asarray(z_vals)[None, :])

    # -- calculus / algebra (exact on the mode representation) -----------------

    def dx(self, a: int = 0) -> "PeriodicField":
        """Exact partial derivative with respect to x_a."""
        new = []
        for m in self.modes:
            w = 2.0 * np.pi * m.kx[a] / self.spatial_periods[a]
            if w:
                # d/dx [c cos + s sin] = w (-c sin + s cos)
                new.append(Mode(m.kt, m.kx, m.sin * w, -m.cos * w))
        return PeriodicField(self.temporal_period, self.spatial_periods, tuple(new))

    def scaled(self, factor: float) -> "PeriodicField":
        return PeriodicField(
            self.temporal_period,
            self.spatial_periods,
            tuple(Mode(m.kt, m.kx, m.cos * factor, m.sin * factor) for m in self.modes),
        )

    def __add__(self, other: "PeriodicField") -> "PeriodicField":
        if (self.temporal_period, self.spatial_periods) != (
            other.temporal_period,
            other.spatial_periods,
        ):
            raise InputError("cannot add fields with different periods")
        return PeriodicField(
            self.temporal_period, self.spatial_periods, self.modes + other.modes
        )

    def plus_constant(self, value: float) -> "PeriodicField":
        return self + PeriodicField.constant(
            value, self.n, self.temporal_period, self.spatial_periods
        )


def field_eval(f: PeriodicField, t: float, x) -> float:
    """Point evaluation of the trigonometric sum at (t, x)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (f.n,):
        raise InputError(f"x has shape {x.shape}, expected ({f.n},)")
    return float(f.eval(np.asarray(t, dtype=float), x))


def max_frequencies(fields) -> tuple[int, tuple[int, ...]]:
    """(max |kt|, per-axis max |kx|) over a nonempty list of fields of one dimension."""
    kts, kxs = zip(*(f.max_frequencies() for f in fields))
    return max(kts), tuple(map(max, zip(*kxs)))


# samples per axis and per (highest frequency + 1) of a system's fields
SAMPLES = 8


def _sample_field(f, nt, nx):
    t = np.arange(nt) * (f.temporal_period / nt)
    axes = [np.arange(m) * (L / m) for m, L in zip(nx, f.spatial_periods)]
    mesh = np.meshgrid(t, *axes, indexing="ij")
    tt = mesh[0]
    xx = np.stack(mesh[1:], axis=-1) if f.n else tt[..., None]
    return f.eval(tt, xx)


@dataclass(frozen=True)
class KPPSystem:
    """Reaction-diffusion system with N components in n spatial dimensions.

    Component i evolves by
        d_t u_i - div(A_i grad u_i) + q_i . grad u_i = (L u)_i - (B u)_i u_i,
    with all coefficients space-time periodic sharing the same periods.
    Diffusion matrices are stored symmetric (enforced in the constructor).
    """

    N: int
    n: int
    A: tuple  # A[i][a][b] PeriodicField, symmetric in (a, b)
    q: tuple  # q[i][a] PeriodicField
    L: tuple  # L[i][j] PeriodicField
    B: tuple  # B[i][j] PeriodicField

    def __post_init__(self):
        if self.N < 1 or self.n < 1:
            raise InputError("N and n must be positive")
        fields = list(self.all_fields())
        ref = (fields[0].temporal_period, fields[0].spatial_periods)
        for f in fields:
            if (f.temporal_period, f.spatial_periods) != ref:
                raise InputError("all coefficient fields must share the same periods")
            if f.n != self.n:
                raise InputError("field dimension does not match system dimension")
        # structural symmetry of the diffusion matrices
        sym = []
        for i in range(self.N):
            mat = [[None] * self.n for _ in range(self.n)]
            for a in range(self.n):
                for b in range(a, self.n):
                    fa, fb = self.A[i][a][b], self.A[i][b][a]
                    avg = fa if a == b else (fa + fb).scaled(0.5)
                    mat[a][b] = avg
                    mat[b][a] = avg
            sym.append(tuple(tuple(r) for r in mat))
        object.__setattr__(self, "A", tuple(sym))

    def all_fields(self):
        """Every coefficient field: A and q of each component, then L and B."""
        for i in range(self.N):
            for a in range(self.n):
                for b in range(self.n):
                    yield self.A[i][a][b]
                yield self.q[i][a]
        for i in range(self.N):
            for j in range(self.N):
                yield self.L[i][j]
                yield self.B[i][j]

    @property
    def temporal_period(self) -> float:
        return self.L[0][0].temporal_period

    @property
    def spatial_periods(self) -> tuple[float, ...]:
        return self.L[0][0].spatial_periods

    def is_space_homogeneous(self) -> bool:
        return all(f.is_space_independent() for f in self.all_fields())

    def is_unit_periodic(self) -> bool:
        return self.temporal_period == 1.0 and all(
            L == 1.0 for L in self.spatial_periods
        )


@dataclass
class AssumptionFlag:
    passed: bool
    witness: str | None = None


@dataclass
class AssumptionReport:
    """Validation outcome for (A1)-(A5) with extremal coefficient matrices."""

    ellipticity_constant: float
    underline_L: np.ndarray
    overline_L: np.ndarray
    underline_B: np.ndarray
    overline_B: np.ndarray
    flags: dict[str, AssumptionFlag]
    sigma: float | None  # smallest positive entry of overline_L, diagnostics only

    def all_pass(self) -> bool:
        return all(f.passed for f in self.flags.values())

    def summary(self) -> dict:
        return {
            "ellipticity_constant": self.ellipticity_constant,
            "underline_L": self.underline_L.tolist(),
            "overline_L": self.overline_L.tolist(),
            "underline_B": self.underline_B.tolist(),
            "overline_B": self.overline_B.tolist(),
            "sigma": self.sigma,
            "flags": {
                k: {"passed": v.passed, "witness": v.witness}
                for k, v in self.flags.items()
            },
        }


def _strongly_connected(adj: np.ndarray) -> tuple[bool, list[int] | None]:
    """Strong connectivity of the digraph j -> i iff adj[i, j].

    Column j of (I + adj)^(N-1) is positive exactly on the nodes reachable
    from j.  Returns (ok, witness_nodes) where witness_nodes, the reachable
    closure of the first node that does not reach every node, spans a stable
    subspace when the graph is not strongly connected.  A 1x1 matrix is
    irreducible by convention.
    """
    N = adj.shape[0]
    reach = np.linalg.matrix_power(np.eye(N) + (adj != 0), N - 1) > 0
    short = np.flatnonzero(~reach.all(axis=0))
    if short.size == 0:
        return True, None
    return False, np.flatnonzero(reach[:, short[0]]).tolist()


def _sample_rows(sys, rows):
    """Matrix-valued fields rows of sys on its joint lattice, SAMPLES x (highest
    frequency + 1) points per axis over all its fields: (rows, cols, *lattice)."""
    kt, kx = max_frequencies(sys.all_fields())
    nt, nx = SAMPLES * (kt + 1), [SAMPLES * (k + 1) for k in kx]
    return np.array([[_sample_field(f, nt, nx) for f in row] for row in rows])


def coupling_extrema(sys):
    """(underline_L, overline_L, underline_B, overline_B), entrywise on the joint
    lattice of sys, a KPPSystem or a FrameSystem (whose map keeps every range)."""
    L, B = (_sample_rows(sys, rows).reshape(sys.N, sys.N, -1) for rows in (sys.L, sys.B))
    return L.min(axis=2), L.max(axis=2), B.min(axis=2), B.max(axis=2)


def validate_assumptions(sys: KPPSystem) -> AssumptionReport:
    """Check (A1)-(A5) on a lattice of SAMPLES x (highest frequency + 1) points per
    axis, one joint lattice for all fields; violations are reported, not raised."""
    N = sys.N
    uL, oL, uB, oB = coupling_extrema(sys)

    # (A1): min over the grid of the smallest eigenvalue of each A_i
    ell = np.inf
    ell_where = None
    for i in range(N):
        samples = np.moveaxis(_sample_rows(sys, sys.A[i]), (0, 1), (-2, -1))  # (*lattice, n, n)
        m = float(np.linalg.eigvalsh(samples)[..., 0].min())
        if m < ell:
            ell = m
            ell_where = f"A_{i}"
    flags = {}
    flags["A1"] = AssumptionFlag(ell > 0, None if ell > 0 else f"min eig {ell:.3e} at {ell_where}")

    off = uL - np.diag(np.diag(uL))
    bad = np.argwhere(off < 0)
    flags["A2"] = AssumptionFlag(
        bad.size == 0,
        None if bad.size == 0 else f"underline_L[{bad[0][0]}][{bad[0][1]}] < 0",
    )

    adj = (oL > 0) & ~np.eye(N, dtype=bool)
    ok, witness = _strongly_connected(adj)
    flags["A3"] = AssumptionFlag(
        ok, None if ok else f"span(e_{{{','.join(str(i + 1) for i in witness)}}}) stable"
    )

    bmin = float(uB.min())
    flags["A4"] = AssumptionFlag(bmin > 0, None if bmin > 0 else f"min underline_B = {bmin:.3e}")

    # (A5) holds structurally: trig polynomials are smooth and A_i symmetric.
    flags["A5"] = AssumptionFlag(True, None)

    pos = oL[oL > 0]
    sigma = float(pos.min()) if pos.size else None
    return AssumptionReport(ell, uL, oL, uB, oB, flags, sigma)


def logistic_envelope(sys) -> tuple[float, float]:
    """Constants (r, K) with L u - (B u) o u <= r (1^T u)(K 1 - u) for u >= 0.

    r is the smallest competition coefficient anywhere, K the largest positive
    row sum of the entrywise-max coupling divided by r, both from the extrema
    validate_assumptions reports (coupling_extrema).
    """
    _, oL, uB, _ = coupling_extrema(sys)
    r = float(uB.min())
    if r <= 0:
        raise InputError("logistic envelope needs (A4): positive competition floor")
    K = float(np.maximum(oL, 0.0).sum(axis=1).max()) / r
    # K <= 0: coupling nowhere positive; any positive constant bounds the dynamics
    return r, (K if K > 0 else 1.0)


def nondimensionalize(sys: KPPSystem) -> KPPSystem:
    """Rescale so every period equals 1.

    Composition with (t, x) -> (T t, L o x) keeps the mode numbers and sets the
    periods to 1; the chain rule scales A entries by T/(L_a L_b), q entries by
    T/L_a, and L, B by T.
    """
    T = sys.temporal_period
    Ls = sys.spatial_periods
    n, N = sys.n, sys.N

    def unit(f: PeriodicField) -> PeriodicField:
        return PeriodicField(1.0, (1.0,) * n, f.modes)

    A = tuple(
        tuple(
            tuple(unit(sys.A[i][a][b]).scaled(T / (Ls[a] * Ls[b])) for b in range(n))
            for a in range(n)
        )
        for i in range(N)
    )
    q = tuple(tuple(unit(sys.q[i][a]).scaled(T / Ls[a]) for a in range(n)) for i in range(N))
    L = tuple(tuple(unit(sys.L[i][j]).scaled(T) for j in range(N)) for i in range(N))
    B = tuple(tuple(unit(sys.B[i][j]).scaled(T) for j in range(N)) for i in range(N))
    return KPPSystem(N, n, A, q, L, B)


# -- JSON problem schema -------------------------------------------------------
#
# {"N": ..., "n": ..., "periods": {"T": 1.0, "L": [1.0]},
#  "fields": {"A": [[[modes]]], "q": [[modes]], "L": [[modes]], "B": [[modes]]}}
# with each mode {"kt": int, "kx": [int], "cos": float, "sin": float}.


def _modes_from_json(spec, n, where):
    if not isinstance(spec, list):
        raise InputError(f"{where}: expected a list of modes")
    modes = []
    for k, m in enumerate(spec):
        try:
            kx = tuple(int(v) for v in m["kx"])
            modes.append(Mode(int(m["kt"]), kx, float(m.get("cos", 0.0)), float(m.get("sin", 0.0))))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{where}[{k}]: bad mode ({exc})") from exc
        if len(kx) != n:
            raise InputError(f"{where}[{k}]: kx must have length {n}")
    return modes


def system_from_json(doc: dict | str) -> KPPSystem:
    """Build a KPPSystem from the JSON problem schema (dict or JSON text)."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    try:
        N = int(doc["N"])
        n = int(doc["n"])
        fields = doc["fields"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"problem schema: missing or bad field ({exc})") from exc
    periods = doc.get("periods", {})
    T = float(periods.get("T", 1.0))
    Ls = tuple(float(v) for v in periods.get("L", [1.0] * n))
    if len(Ls) != n:
        raise InputError("periods.L must have length n")

    def fld(spec, where):
        return PeriodicField(T, Ls, tuple(_modes_from_json(spec, n, where)))

    def get(name):
        if fields.get(name) is None:
            raise InputError(f"fields.{name} missing")
        return fields[name]

    A_raw = get("A")
    q_raw = fields.get("q", [[[] for _ in range(n)] for _ in range(N)])
    L_raw = get("L")
    B_raw = get("B")
    try:
        A = tuple(
            tuple(tuple(fld(A_raw[i][a][b], f"A[{i}][{a}][{b}]") for b in range(n)) for a in range(n))
            for i in range(N)
        )
        q = tuple(tuple(fld(q_raw[i][a], f"q[{i}][{a}]") for a in range(n)) for i in range(N))
        L = tuple(tuple(fld(L_raw[i][j], f"L[{i}][{j}]") for j in range(N)) for i in range(N))
        B = tuple(tuple(fld(B_raw[i][j], f"B[{i}][{j}]") for j in range(N)) for i in range(N))
    except IndexError as exc:
        raise InputError(f"problem schema: field arrays have wrong shape ({exc})") from exc
    return KPPSystem(N, n, A, q, L, B)


def system_to_json(sys: KPPSystem) -> dict:
    def modes(f):
        return [
            {"kt": m.kt, "kx": list(m.kx), "cos": m.cos, "sin": m.sin} for m in f.modes
        ]

    return {
        "N": sys.N,
        "n": sys.n,
        "periods": {"T": sys.temporal_period, "L": list(sys.spatial_periods)},
        "fields": {
            "A": [[[modes(sys.A[i][a][b]) for b in range(sys.n)] for a in range(sys.n)] for i in range(sys.N)],
            "q": [[modes(sys.q[i][a]) for a in range(sys.n)] for i in range(sys.N)],
            "L": [[modes(sys.L[i][j]) for j in range(sys.N)] for i in range(sys.N)],
            "B": [[modes(sys.B[i][j]) for j in range(sys.N)] for i in range(sys.N)],
        },
    }
