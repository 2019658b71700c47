"""Correctness checks on the task summaries of a workload's last pass.

Tolerances follow tests/test_acceptance.py.  Each check is one operation of
the benchmark; it records the measured value beside its limit, so accuracy is
visible in every result without being a gated metric.
"""

from __future__ import annotations

import math


def _check(name, value, limit, ok=None):
    value = float(value) if value is not None else float("nan")
    if ok is None:
        ok = math.isfinite(value) and value <= limit
    return {"check": name, "pass": bool(ok), "value": value, "limit": limit}


def _speed_gap(sim, c_star):
    measured = max(abs(sim["speed_left"]), abs(sim["speed_right"]))
    return abs(measured - c_star) / c_star


def _verification(wave, keys):
    ver = wave["verification"]
    return all(ver.get(k) is True for k in keys)


def _kpp(sections, ref):
    a, b = sections["a"], sections["b"]
    disp = a["dispersion"]
    roots = disp["roots"]
    wave_a, wave_b = a["wave"], b["wave"]
    slope = wave_b["verification"]["shape_slope"]
    return [
        _check("a.c_star", abs(disp["c_star"] - ref["c_star"]), 1e-6),
        _check("b.c_star", abs(b["dispersion"]["c_star"] - ref["c_star"]), 1e-6),
        _check("a.roots", max(abs(roots["mu_wedge"] - ref["mu_wedge"]),
                              abs(roots["mu_vee"] - ref["mu_vee"])), 1e-6),
        _check("a.trapping", wave_a["diagnostics"]["trapping_violation"], 1e-6),
        _check("a.residual", wave_a["diagnostics"]["pde_residual"], 1e-5),
        _check("a.decay_and_upstream", float(wave_a["verification"]["decay_rate"]), math.inf,
               ok=_verification(wave_a, ("decay_pass", "upstream_pass"))),
        _check("a.speed", _speed_gap(a["simulate"], ref["c_star"]), 0.05),
        _check("b.critical_pipeline", 0.0, 0.0, ok=wave_b["pipeline"] == "critical"),
        _check("b.trapping", wave_b["diagnostics"]["trapping_violation"], 1e-5),
        _check("b.shape_slope", abs(slope - 1.0) if slope is not None else None, 0.2),
    ]


def _tper(sections, ref):
    s = sections["tper"]
    wave = s["wave"]
    mu_wedge = wave["envelopes"]["mu_wedge"]
    decay = wave["verification"]["decay_rate"]
    return [
        _check("c_star", abs(s["dispersion"]["c_star"] - ref["c_star"]), 1e-6),
        _check("trapping", wave["diagnostics"]["trapping_violation"], 1e-5),
        _check("decay", abs(decay - mu_wedge) / mu_wedge, 0.10),
        _check("speed", _speed_gap(s["simulate"], ref["c_star"]), 0.05),
    ]


def _cell(sections, ref):
    s = sections["cell"]
    wave = s["wave"]
    return [
        _check("c_star", abs(s["dispersion"]["c_star"] - ref["c_star"]), 1e-3),
        _check("trapping", wave["diagnostics"]["trapping_violation"], 1e-5),
        _check("decay", float(wave["verification"]["decay_rate"]), math.inf,
               ok=_verification(wave, ("decay_pass",))),
        _check("speed", _speed_gap(s["simulate"], ref["c_star"]), 0.05),
    ]


_CHECKS = {"kpp_readme": _kpp, "system_tper": _tper, "cell_periodic": _cell}


def evaluate(name: str, sections: dict, ref: dict) -> list[dict]:
    """Run the workload's checks; a missing task summary is one failed check."""
    try:
        return _CHECKS[name](sections, ref)
    except (KeyError, TypeError) as exc:
        return [_check(f"task summaries ({type(exc).__name__}: {exc})", None, 0.0, ok=False)]
