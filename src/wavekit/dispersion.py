"""Minimal wave speed, its minimizer and the decay-rate pair.

For a persistent system (negative periodic principal eigenvalue) the function
g(mu) = -lambda_{1,mu e} / mu has a unique minimum c* at mu* > 0; above it,
lambda_{1,mu e} + c mu has exactly two zeros mu_wedge < mu* < mu_vee, which
are the admissible downstream decay rates at speed c.  Strict concavity of
mu -> lambda_{1,mu e} makes mu lambda' - lambda strictly decreasing, zero at
mu*, so Newton steps inside a dyadic sign bracket find mu*; and it makes
Newton steps from a point beyond a root approach the root monotonically.

All of it reads one EigenEvaluator, mu -> lambda_{1,mu e} and its exact lambda'
on the c = 0 frame of e: persistence is its sign at 0; the curve and the
RootPair carry it on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    "criticality",
    "static_frame",
]

MU_BRACKET = (1e-3, 1e3)
TOL = 1e-8  # the last Newton step of mu* and of a root, a tenth of the criticality band


@dataclass
class PersistenceReport:
    lambda_1p: float
    classification: str  # "persistent" | "extinct"


@dataclass
class DispersionCurve:
    """Sampled mu -> lambda_{1,mu e} with the minimizer of -lambda/mu."""

    e: tuple
    samples: list  # [(mu, lambda)], mu > 0
    mu_star: float
    c_star: float
    bracket: tuple[float, float]  # the last bracket of mu*
    evaluator: EigenEvaluator = field(repr=False)
    solves: int  # ev's solves in the search

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
    evaluator: EigenEvaluator = field(repr=False)
    solves: int  # ev's solves in the search

    def to_json(self) -> dict:
        return {"c": self.c, "mu_wedge": self.mu_wedge, "mu_vee": self.mu_vee}


def static_frame(sys: KPPSystem, e=None) -> FrameSystem:
    """c = 0 frame for direction e (defaults to the last coordinate axis)."""
    return frame_for(sys, (0,) * (sys.n - 1) + (1,) if e is None else e, 0)


def persistence_check(ev: EigenEvaluator) -> PersistenceReport:
    """Sign of the periodic principal eigenvalue ev(0) (ev on a c = 0 frame).

    A nonnegative value means every solution of the Cauchy problem goes
    extinct uniformly in space, and the wave pipeline refuses to run.
    """
    lam = ev(0.0)
    return PersistenceReport(lam, "persistent" if lam < 0 else "extinct")


def minimal_speed(ev: EigenEvaluator) -> DispersionCurve:
    """Minimal wave speed c* = min_{mu>0} -lambda_{1,mu e}/mu of ev on a c = 0 frame.

    mu* is the root of F = mu lambda' - lambda, bracketed by sign on the dyadic
    grid, then closed on to TOL by Newton steps on F (lambda'' the secant of
    lambda' through the last two points) or a bisection if one leaves the
    bracket.  Requires a persistent system, which is exactly what makes
    F(0+) > 0 and guarantees an interior minimum: an extinct one (ev(0) >= 0)
    is refused before the bracket.
    """
    solves, lam0 = ev.solves, ev(0.0)
    if lam0 >= 0:
        raise NumericalError(f"extinct: no wave pipeline (lambda_1p = {lam0:.6g} >= 0)")

    def F(mu):
        return mu * ev.derivative(mu) - ev(mu)

    k, step = 0, 1 if F(1.0) > 0 else -1
    while (F(2.0 ** (k + step)) > 0) == (step > 0):
        k += step
        if not MU_BRACKET[0] <= 2.0 ** k <= MU_BRACKET[1]:
            raise NumericalError(f"failed to bracket the dispersion minimum inside {MU_BRACKET}",
                                 history=ev.samples)
    lo, hi = sorted((2.0 ** k, 2.0 ** (k + step)))
    a, b = (lo, hi) if abs(F(lo)) > abs(F(hi)) else (hi, lo)
    for _ in range(100):
        d2 = (ev.derivative(b) - ev.derivative(a)) / (b - a)  # negative by concavity
        x = b - F(b) / (b * d2) if d2 < 0 else 0.5 * (lo + hi)
        if abs(x - b) <= TOL:
            break
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        lo, hi = (x, hi) if F(x) > 0 else (lo, x)
        a, b = b, x
    else:
        raise NumericalError("Newton steps for mu* did not converge", history=ev.samples)
    return DispersionCurve(tuple(ev.fsys.frame.e_floats()), [s for s in ev.samples if s[0] > 0],
                           float(x), float(-ev(b) / b), (float(lo), float(hi)), ev,
                           ev.solves - solves)


def criticality(curve: DispersionCurve, c: float) -> str:
    """"critical" in the band |c - c*| <= 10 TOL, else "sub-" or "supercritical"."""
    if abs(c - curve.c_star) <= 10.0 * TOL:
        return "critical"
    return "subcritical" if c < curve.c_star else "supercritical"


def speed_roots(curve: DispersionCurve, c: float) -> RootPair:
    """The two decay rates solving lambda_{1,mu e} + c mu = 0 for c > c*, to TOL."""
    kind = criticality(curve, c)
    if kind != "supercritical":
        raise InputError(f"{kind} speed: c = {c}, c* = {curve.c_star}; decay roots need c "
                         "above the criticality band (a critical c takes the critical pipeline)")
    ev = curve.evaluator
    mu_star, solves = curve.mu_star, ev.solves

    def h(mu):
        return ev(mu) + c * mu

    if h(mu_star) <= 0:
        raise NumericalError("h(mu*) <= 0 contradicts c > c*; upstream failure")

    def root(factor):
        # walk out from mu* by factor until h <= 0, then Newton steps on h: h is
        # concave, so each lands beyond the root, closer.  The first is taken
        # from the walk's last point inside if h slopes down toward the root
        # there, and kept if it lands nearer than the walk's point beyond
        inside, x = None, mu_star
        while h(x) > 0:
            inside, x = x, x * factor
            if not 1e-12 <= x <= 1e4:
                raise NumericalError("no decay root found between mu = 1e-12 and mu = 1e4")
        slope = ev.derivative(inside) + c
        if h(x) < 0 and slope * (factor - 1.0) < 0:
            x = (max if factor < 1.0 else min)(x, inside - h(inside) / slope)
        for _ in range(100):
            if h(x) >= 0:  # on the root, or within its noise
                return x
            step = h(x) / (ev.derivative(x) + c)
            x -= step
            if abs(step) <= TOL:
                return x
        raise NumericalError("Newton steps for a decay root did not converge")

    # on (mu_wedge, mu_vee) the function is positive; outside negative
    return RootPair(float(c), float(root(0.5)), float(root(2.0)), ev, ev.solves - solves)
