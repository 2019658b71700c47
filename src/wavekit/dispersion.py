"""Minimal wave speed, its minimizer and the decay-rate pair.

For a persistent system (negative periodic principal eigenvalue) the function
g(mu) = -lambda_{1,mu e} / mu has a unique minimum c* at mu* > 0; above it,
lambda_{1,mu e} + c mu has exactly two zeros mu_wedge < mu* < mu_vee, which
are the admissible downstream decay rates at speed c.  Strict concavity of
mu -> lambda_{1,mu e} makes g unimodal, so a derivative-free golden-section
search after a geometric bracketing scan is reliable; the roots are found by
plain bisection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeffs import KPPSystem
from .eigen import EigenEvaluator
from .errors import InputError, NumericalError
from .frame import FrameSystem, frame_for

__all__ = [
    "DispersionCurve",
    "RootPair",
    "PersistenceReport",
    "persistence_check",
    "minimal_speed",
    "speed_roots",
    "static_frame",
]

MU_BRACKET = (1e-3, 1e3)
_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass
class PersistenceReport:
    lambda_1p: float
    classification: str  # "persistent" | "extinct"
    residual: float


@dataclass
class DispersionCurve:
    """Sampled mu -> lambda_{1,mu e} with the minimizer of -lambda/mu."""

    e: tuple
    samples: list  # [(mu, lambda)]
    mu_star: float
    c_star: float
    bracket: tuple[float, float]
    evaluator: EigenEvaluator = field(repr=False)

    def to_json(self) -> dict:
        return {
            "e": list(self.e),
            "c_star": self.c_star,
            "mu_star": self.mu_star,
            "bracket": list(self.bracket),
            "curve": [{"mu": m, "lambda": l} for m, l in self.samples],
        }


@dataclass
class RootPair:
    c: float
    mu_wedge: float
    mu_vee: float

    def to_json(self) -> dict:
        return {"c": self.c, "mu_wedge": self.mu_wedge, "mu_vee": self.mu_vee}


def static_frame(sys: KPPSystem, e=None) -> FrameSystem:
    """c = 0 frame for direction e (defaults to the last coordinate axis)."""
    return frame_for(sys, (0,) * (sys.n - 1) + (1,) if e is None else e, 0)


def persistence_check(sys: KPPSystem, tol: float = 1e-8) -> PersistenceReport:
    """Sign of the periodic principal eigenvalue at mu = 0 in the static frame.

    A nonnegative value means every solution of the Cauchy problem goes
    extinct uniformly in space, and the wave pipeline refuses to run.
    """
    fsys = static_frame(sys)
    ev = EigenEvaluator(fsys, tol=tol)
    pair = ev.pair(0.0)
    cls = "persistent" if pair.lam < 0 else "extinct"
    return PersistenceReport(pair.lam, cls, pair.residual)


def minimal_speed(fsys: FrameSystem, tol: float = 1e-6,
                  evaluator: EigenEvaluator | None = None) -> DispersionCurve:
    """Minimal wave speed c* = min_{mu>0} -lambda_{1,mu e}/mu on a c = 0 frame.

    Brackets the unique minimizer by a geometric mu-scan (powers of two), then
    golden-section search down to tol.  Requires a persistent system, which is
    exactly what makes g blow up at 0+ and guarantees an interior minimum.
    """
    ev = evaluator if evaluator is not None else EigenEvaluator(fsys, tol=min(tol, 1e-8))
    lo_lim, hi_lim = MU_BRACKET

    def g(mu):
        return -ev(mu) / mu

    # geometric downhill walk on the dyadic grid
    k = 0
    gk = g(2.0 ** k)
    gl = g(2.0 ** (k - 1))
    gr = g(2.0 ** (k + 1))
    while not (gl >= gk <= gr):
        if gl < gk:
            k -= 1
            gr, gk = gk, gl
            gl = g(2.0 ** (k - 1))
        else:
            k += 1
            gl, gk = gk, gr
            gr = g(2.0 ** (k + 1))
        if not (lo_lim <= 2.0 ** k <= hi_lim):
            raise NumericalError(
                f"failed to bracket the dispersion minimum inside {MU_BRACKET}; "
                "degenerate inputs (is the system persistent?)",
                history=ev.samples,
            )
    lo, hi = 2.0 ** (k - 1), 2.0 ** (k + 1)

    # golden-section search on the unimodal g
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = g(x1), g(x2)
    while hi - lo > max(tol, 1e-12):
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = g(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = g(x2)
    mu_star = 0.5 * (lo + hi)
    c_star = g(mu_star)
    e = fsys.frame.e_floats()
    return DispersionCurve(tuple(e), ev.samples, float(mu_star), float(c_star),
                           (float(lo), float(hi)), ev)


def speed_roots(curve: DispersionCurve, c: float, tol: float = 1e-8) -> RootPair:
    """The two decay rates solving lambda_{1,mu e} + c mu = 0 for c > c*."""
    if abs(c - curve.c_star) < 10.0 * tol:
        raise InputError(
            f"critical: c = {c} within the criticality band of c* = {curve.c_star}; "
            "use the critical pipeline"
        )
    if c < curve.c_star:
        raise InputError(f"subcritical speed: c = {c} < c* = {curve.c_star}")
    ev = curve.evaluator
    mu_star = curve.mu_star

    def h(mu):
        return ev(mu) + c * mu

    h_star = h(mu_star)
    if h_star <= 0:
        raise NumericalError("h(mu*) <= 0 contradicts c > c*; upstream failure")

    def bisect(lo, hi, f_lo_sign):
        # plain bisection: h changes sign exactly once on each side of mu*
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if (h(mid) < 0) == f_lo_sign:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    lo = mu_star
    while h(lo) > 0:
        lo *= 0.5
        if lo < 1e-12:
            raise NumericalError("no lower decay root found above mu = 1e-12")
    mu_wedge = bisect(lo, mu_star, True)

    hi = mu_star
    while h(hi) > 0:
        hi *= 2.0
        if hi > MU_BRACKET[1] * 10:
            raise NumericalError("no upper decay root found below mu = 1e4")
    mu_vee = bisect(mu_star, hi, False)
    # on (mu_wedge, mu_vee) the function is positive; outside negative
    return RootPair(float(c), float(mu_wedge), float(mu_vee))
