"""Moving-frame and rotation change of variables.

For a rational unit direction e and a rational speed c the drifting
coefficients f(t, x - c t e) stay periodic with respect to t and to the
coordinates of any rational orthonormal basis P whose last vector is e.  The
minimal periods have a closed form: the time period T is the lcm of the
reduced denominators of c e, and the period L_a along the a-th rotated
coordinate the lcm of those of the a-th column of P.  Everything here runs on
exact fractions; floating point enters only when the transformed coefficient
fields are assembled.

Two modes, picked from the coefficients by frame_for:
  * "rational": e in S^{n-1} with rational coordinates, c rational; coefficient
    fields may depend on space and time.
  * "space-homogeneous": coefficients independent of space; e is an arbitrary
    real unit vector and c an arbitrary real, the transformed fields depend on
    t only and the profile coordinate z is free of any periodicity constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coeffs import KPPSystem, Mode, PeriodicField, nondimensionalize
from .errors import InputError

__all__ = [
    "RationalDirection",
    "MovingFrame",
    "FrameSystem",
    "rational_basis",
    "compute_periods",
    "make_frame",
    "parse_speed",
    "frame_from_json",
    "frame_for",
    "transform_coefficients",
]


@dataclass(frozen=True)
class RationalDirection:
    """Unit vector e = numerators / scale with integer numerators.

    The Euclidean norm of the numerator vector must be an integer (e.g.
    Pythagorean tuples), otherwise e is not a rational point of the sphere.
    """

    numerators: tuple[int, ...]
    scale: int

    def __post_init__(self):
        nums = tuple(int(v) for v in self.numerators)
        if not nums or all(v == 0 for v in nums):
            raise InputError("direction must be a nonzero integer vector")
        g = math.gcd(*(abs(v) for v in nums))
        nums = tuple(v // g for v in nums)
        sq = sum(v * v for v in nums)
        r = math.isqrt(sq)
        if r * r != sq:
            raise InputError(
                f"|{nums}| = sqrt({sq}) is irrational; not a rational unit direction"
            )
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "scale", r)

    @classmethod
    def from_ints(cls, v) -> "RationalDirection":
        nums = tuple(int(x) for x in v)  # integral floats such as 1.0 pass
        if nums != tuple(v):
            raise InputError(f"direction entries must be integers, not {list(v)}")
        return cls(nums, 1)

    @property
    def n(self) -> int:
        return len(self.numerators)

    def as_fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.scale) for v in self.numerators)

    def as_floats(self) -> np.ndarray:
        return np.array(self.numerators, dtype=float) / self.scale


def _frac_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def rational_basis(e):
    """Orthogonal matrix P (tuple of row tuples) with last column e.

    Householder reflection through the bisector of e and the last canonical
    basis vector, |det| = 1: exact Fractions for a RationalDirection, floats
    orthogonal to roundoff for a real unit vector.  For n >= 2 the first
    column is negated so that det P = +1.
    """
    exact = isinstance(e, RationalDirection)
    one = Fraction(1) if exact else 1.0
    ef = e.as_fractions() if exact else tuple(one * v for v in e)
    n = len(ef)
    eye = [[one if a == b else 0 * one for b in range(n)] for a in range(n)]
    w = [ef[a] - eye[a][n - 1] for a in range(n)]
    ww = _frac_dot(w, w)
    P = eye
    if ww >= 1e-30:  # else e is the last axis (to roundoff, for floats)
        P = [[eye[a][b] - 2 * w[a] * w[b] / ww for b in range(n)] for a in range(n)]
        if n >= 2:
            for a in range(n):
                P[a][0] = -P[a][0]
    return tuple(tuple(row) for row in P)


def _as_fraction(c) -> Fraction:
    if isinstance(c, float) and not c.is_integer():
        raise InputError(
            f"speed {c!r} is a non-integer float; rational-frame mode needs an exact "
            'rational (pass a string like "3/2" or a Fraction)'
        )
    try:
        return Fraction(c)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot interpret speed {c!r} as a rational number") from exc


def parse_speed(c) -> float:
    """A speed as a float: a number or a rational string such as "5/2"."""
    try:
        return float(Fraction(c)) if isinstance(c, str) else float(c)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a speed: {c!r}") from exc


def compute_periods(e: RationalDirection, c) -> tuple[int, tuple[int, ...]]:
    """Minimal frame periods (T in t, L_a along each rotated coordinate).

    Requires unit coefficient periods.  T is the smallest positive integer
    with c T e in Z^n, and L_a the smallest positive s with s e'_a in Z^n,
    e'_a the a-th column of P.  An integer s clears p/q in lowest terms
    exactly when q | s, so T and L_a are the lcm of the reduced denominators.
    No non-integer s does better for L_a: write e'_a = m / D over that lcm D;
    a prime dividing every m_i would divide D (sum m_i^2 = D^2) and so the
    numerator of the entry whose denominator holds its full power in D,
    against that entry being in lowest terms.
    """
    cf = _as_fraction(c)
    P = rational_basis(e)
    T = math.lcm(*((cf * v).denominator for v in e.as_fractions()))
    Ls = tuple(math.lcm(*(row[a].denominator for row in P)) for a in range(e.n))
    return T, Ls


@dataclass(frozen=True)
class MovingFrame:
    """Rotation + drift data for the change of variables x = P x' - c t e."""

    mode: str  # "rational" | "space-homogeneous"
    e: RationalDirection | tuple[float, ...]
    c: Fraction | float
    P: tuple  # rows of Fractions (rational) or floats (space-homogeneous)
    T_frame: int | float
    L_frame: tuple[int, ...] | None  # None <=> z-homogeneous coefficients

    @property
    def n(self) -> int:
        return len(self.P)

    def P_floats(self) -> np.ndarray:
        return np.array(self.P, dtype=float)

    def e_floats(self) -> np.ndarray:
        if isinstance(self.e, RationalDirection):
            return self.e.as_floats()
        return np.asarray(self.e, dtype=float)

    def c_float(self) -> float:
        return float(self.c)


def make_frame(e, c, mode: str = "rational") -> MovingFrame:
    """Build a MovingFrame from direction/speed in either mode; c may be a
    string such as "3/2", and the rational mode needs it exact."""
    if mode == "rational":
        if not isinstance(e, RationalDirection):
            e = RationalDirection.from_ints(e)
        cf = _as_fraction(c)
        T, Ls = compute_periods(e, cf)
        return MovingFrame("rational", e, cf, rational_basis(e), T, Ls)
    if mode == "space-homogeneous":
        ev = np.asarray(e, dtype=float)
        ev = ev / np.linalg.norm(ev)
        return MovingFrame("space-homogeneous", tuple(ev), parse_speed(c), rational_basis(ev), 1, None)
    raise InputError(f"unknown frame mode {mode!r}")


def frame_from_json(doc: dict) -> MovingFrame:
    """Frame request {"e": [...], "c": "p/q" | number, "mode": "rational" |
    "space-homogeneous"}; mode defaults to rational."""
    try:
        e = doc["e"]
        c = doc["c"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"frame request needs e and c ({exc})") from exc
    return make_frame(e, c, mode=doc.get("mode", "rational"))


@dataclass(frozen=True)
class FrameSystem:
    """Transformed system in frame coordinates (t, x') with x'_n = z.

    A'_i = P^T A_i P, q'_i = P^T (q_i + c e), L' = L, B' = B, all composed
    with the frame map; fields are again exact trigonometric polynomials with
    periods (T_frame, L_frame).  Dedicated 1-D accessors expose the (t, z)
    reduction used by the PDE core (valid when nothing depends on y).
    """

    frame: MovingFrame
    N: int
    n: int
    A: tuple
    q: tuple
    L: tuple
    B: tuple

    @property
    def mode(self) -> str:
        return self.frame.mode

    @property
    def T_frame(self) -> float:
        return float(self.frame.T_frame)

    @property
    def L_z(self) -> float | None:
        if self.frame.L_frame is None:
            return None
        return float(self.frame.L_frame[-1])

    @property
    def c(self) -> float:
        return self.frame.c_float()

    def _z_only(self, f: PeriodicField) -> PeriodicField:
        """Project an (t, x') field to (t, z); requires no y-dependence."""
        zper = self.L_z if self.L_z is not None else 1.0
        modes = []
        for m in f.modes:
            if any(m.kx[a] != 0 for a in range(self.n - 1)):
                raise InputError(
                    "coefficients depend on a transverse coordinate; "
                    "1-D reduction is only available without y-dependence"
                )
            modes.append(Mode(m.kt, (m.kx[-1],), m.cos, m.sin))
        return PeriodicField(self.T_frame, (zper,), tuple(modes))

    def reduce_1d(self):
        """(a_i, da_i/dz, drift_i, L', B') as (t, z) fields for the PDE core."""
        nz = self.n - 1
        for i in range(self.N):  # a planar u reads A'_yz through d_y(A'_yz d_z u)
            for y in range(nz):
                self._z_only(self.A[i][y][nz])
        a = tuple(self._z_only(self.A[i][nz][nz]) for i in range(self.N))
        dza = tuple(f.dx(0) for f in a)
        adv = tuple(self._z_only(self.q[i][nz]) for i in range(self.N))
        Lm = tuple(tuple(self._z_only(self.L[i][j]) for j in range(self.N)) for i in range(self.N))
        Bm = tuple(tuple(self._z_only(self.B[i][j]) for j in range(self.N)) for i in range(self.N))
        return a, dza, adv, Lm, Bm

    all_fields = KPPSystem.all_fields

    def is_time_independent(self) -> bool:
        return all(f.is_time_independent() for f in self.all_fields())


def _transform_field_rational(f: PeriodicField, frame: MovingFrame) -> PeriodicField:
    """Compose a unit-periodic field with the frame map, exactly.

    A mode cos/sin(2 pi (kt t + kx . x)) becomes, with x = P x' - c t e,
    frequency kt - c (kx . e) in t and P^T kx along x'; both are integer
    multiples of the frame frequencies by construction of the periods.
    """
    ef = frame.e.as_fractions()
    P = frame.P
    n = frame.n
    T = frame.T_frame
    Ls = frame.L_frame
    out = []
    for m in f.modes:
        kxe = _frac_dot([Fraction(k) for k in m.kx], ef)
        nu = (Fraction(m.kt) - frame.c * kxe) * T
        if nu.denominator != 1:
            raise AssertionError("transformed temporal frequency is not integral")
        kxp = []
        for a in range(n):
            col = [P[r][a] for r in range(n)]
            xi = _frac_dot([Fraction(k) for k in m.kx], col) * Ls[a]
            if xi.denominator != 1:
                raise AssertionError("transformed spatial frequency is not integral")
            kxp.append(xi.numerator)
        out.append(Mode(nu.numerator, tuple(kxp), m.cos, m.sin))
    return PeriodicField(float(T), tuple(float(L) for L in Ls), tuple(out))


def _lincomb(fields, weights, template: PeriodicField) -> PeriodicField:
    acc = PeriodicField(
        template.temporal_period, template.spatial_periods,
        (Mode(0, (0,) * template.n, 0.0, 0.0),),
    )
    for f, w in zip(fields, weights):
        if w:
            acc = acc + f.scaled(float(w))
    return acc


def transform_coefficients(sys: KPPSystem, frame: MovingFrame) -> FrameSystem:
    """Assemble the frame system A', q', L', B' from a nondimensionalized system."""
    if not sys.is_unit_periodic():
        raise InputError("run nondimensionalize first: frame transforms need unit periods")
    if frame.n != sys.n:
        raise InputError(f"frame dimension {frame.n} != system dimension {sys.n}")
    N, n = sys.N, sys.n

    homogeneous = frame.mode == "space-homogeneous"
    if homogeneous and not sys.is_space_homogeneous():
        raise InputError(
            "space-homogeneous frame requested but coefficients depend on x; "
            "use a rational direction instead"
        )

    def t_of(f):  # x-independent fields do not change under x = P x' - c t e
        return f if homogeneous else _transform_field_rational(f, frame)

    P = frame.P
    L = tuple(tuple(t_of(f) for f in row) for row in sys.L)
    B = tuple(tuple(t_of(f) for f in row) for row in sys.B)
    tpl = L[0][0]
    pairs = [(g, d) for g in range(n) for d in range(n)]  # the row-major order of Ai
    A = tuple(
        tuple(
            tuple(_lincomb(Ai, [P[g][a] * P[d][b] for g, d in pairs], tpl) for b in range(n))
            for a in range(n)
        )
        for Ai in ([t_of(f) for row in rows for f in row] for rows in sys.A)
    )
    # q' = P^T (q + c e); P^T e is the last canonical vector, so the drift
    # contributes +c to the z-component only.
    q = tuple(
        tuple(
            _lincomb(qi, [P[g][a] for g in range(n)], tpl).plus_constant(
                float(frame.c) if a == n - 1 else 0.0
            )
            for a in range(n)
        )
        for qi in ([t_of(f) for f in row] for row in sys.q)
    )
    return FrameSystem(frame, N, n, A, q, L, B)


def frame_for(sys: KPPSystem, e, c) -> FrameSystem:
    """The frame system of sys in direction e at speed c, in the mode sys allows.

    Nondimensionalizes sys first.  Space-homogeneous coefficients take any
    real unit e and real c; otherwise e must be a rational direction and c an
    exact rational (see make_frame).
    """
    sys = nondimensionalize(sys)
    mode = "space-homogeneous" if sys.is_space_homogeneous() else "rational"
    return transform_coefficients(sys, make_frame(e, c, mode=mode))
