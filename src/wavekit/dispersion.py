"""Minimal wave speed, its minimizer and the decay-rate pair.

For a persistent system (negative periodic principal eigenvalue) the function
g(mu) = -lambda_{1,mu e} / mu has a unique minimum c* at mu* > 0; above it,
lambda_{1,mu e} + c mu has exactly two zeros mu_wedge < mu* < mu_vee, which
are the admissible downstream decay rates at speed c.  Strict concavity of
mu -> lambda_{1,mu e} makes g unimodal, so a derivative-free golden-section
search after a geometric bracketing scan is reliable, and it makes secant
steps from two points beyond a root approach the root monotonically.

All of it reads one EigenEvaluator, mu -> lambda_{1,mu e} on the c = 0 frame
of e: persistence is its sign at 0; the curve and the RootPair carry it on.
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
    "criticality",
    "static_frame",
]

MU_BRACKET = (1e-3, 1e3)
TOL = 1e-8  # the c* search width, a tenth of the criticality band, the root stop
_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


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
    evaluator: EigenEvaluator = field(repr=False)

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

    Brackets the unique minimizer by a geometric mu-scan (powers of two), then
    golden-section search down to TOL.  Requires a persistent system, which is
    exactly what makes g blow up at 0+ and guarantees an interior minimum: an
    extinct one (ev(0) >= 0) is refused before the scan.
    """
    lam0 = ev(0.0)
    if lam0 >= 0:
        raise NumericalError(f"extinct: no wave pipeline (lambda_1p = {lam0:.6g} >= 0)")
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
            raise NumericalError(f"failed to bracket the dispersion minimum inside {MU_BRACKET}",
                                 history=ev.samples)
    lo, hi = 2.0 ** (k - 1), 2.0 ** (k + 1)

    # golden-section search on the unimodal g
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = g(x1), g(x2)
    while hi - lo > TOL:
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
    return DispersionCurve(tuple(ev.fsys.frame.e_floats()), [s for s in ev.samples if s[0] > 0],
                           float(mu_star), float(c_star), (float(lo), float(hi)), ev)


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
    mu_star = curve.mu_star

    def h(mu):
        return ev(mu) + c * mu

    if h(mu_star) <= 0:
        raise NumericalError("h(mu*) <= 0 contradicts c > c*; upstream failure")

    def root(factor):
        # walk out from mu* by factor until h <= 0, then an eighth of a step on:
        # h is concave, so each secant step from two points beyond the root
        # lands beyond it, closer
        near = mu_star
        while h(near) > 0:
            near *= factor
            if not 1e-12 <= near <= 1e4:
                raise NumericalError("no decay root found between mu = 1e-12 and mu = 1e4")
        far = near * factor ** 0.125
        for _ in range(100):
            h_near, h_far = h(near), h(far)
            if h_near >= 0 or h_near == h_far:  # on the root, or within its noise
                return near
            near, far = near - h_near * (near - far) / (h_near - h_far), near
            if abs(near - far) <= TOL:
                return near
        raise NumericalError("secant steps for a decay root did not converge")

    # on (mu_wedge, mu_vee) the function is positive; outside negative
    return RootPair(float(c), float(root(0.5)), float(root(2.0)), ev)
