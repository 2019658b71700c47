"""Job configs of the benchmark workloads, generated from a seed.

Seed 0 gives the reference configs.  Any other seed scales each coefficient
amplitude by a factor drawn from [1 - SPREAD, 1 + SPREAD]; grid sizes, tasks,
tolerances and the supercritical speeds stay fixed, and the critical speed of
the KPP job (b) follows its closed form 2 sqrt(a l).  SPREAD is small enough
that the iteration counts, and so the work, stay within a few percent of
seed 0's: a wider range (10%) moved the cell_periodic wave time by 8%
between seeds, more than the benchmark's timing noise.
"""

from __future__ import annotations

import math
import random

SPREAD = 0.03

REASONS = {
    "kpp_readme": (
        "constant coefficients take every shortcut (ODE monodromy, steady solves, "
        "one Cauchy LU), so the dispersion search dominates and pde_core stepping is idle"
    ),
    "system_tper": (
        "time-periodic 2x2 coupling defeats every shortcut: RK4 monodromy per lambda, "
        "64-slice Stepper relaxation, time-periodic Cauchy run, largest CSV output"
    ),
    "cell_periodic": (
        "the only z-dependent system: rational moving frame and power-iteration eigen path; "
        "Stepper assembly and relaxation dominate, dispersion is cheap"
    ),
}

# The README example config exactly as written, speed "5/2" included.
README_JOB = {
    "system": {
        "N": 1, "n": 1,
        "periods": {"T": 1.0, "L": [1.0]},
        "fields": {
            "A": [[[[{"kt": 0, "kx": [0], "cos": 1.0, "sin": 0.0}]]]],
            "q": [[[]]],
            "L": [[[{"kt": 0, "kx": [0], "cos": 1.0, "sin": 0.0}]]],
            "B": [[[{"kt": 0, "kx": [0], "cos": 1.0, "sin": 0.0}]]],
        },
    },
    "tasks": ["dispersion", "wave", "simulate"],
    "params": {
        "e": [1],
        "c": "5/2",
        "wave": {"a": 40.0, "n_z": 2048, "tol": 1e-7},
        "simulate": {"X": 150.0, "n_x": 4096, "t_final": 60.0},
    },
    "seed": 0,
}


def _factors(seed: int, names):
    """One amplitude factor per name: exactly 1 for seed 0, else within SPREAD of 1."""
    if seed == 0:
        return {name: 1.0 for name in names}
    rng = random.Random(seed)
    return {name: round(rng.uniform(1 - SPREAD, 1 + SPREAD), 6) for name in names}


def _mode(cos=0.0, sin=0.0, kt=0, kx=0):
    return {"kt": kt, "kx": [kx], "cos": float(cos), "sin": float(sin)}


def _const(v):
    return [_mode(cos=v)]


def _scalar_system(a, l_modes, b):
    return {
        "N": 1, "n": 1,
        "periods": {"T": 1.0, "L": [1.0]},
        "fields": {"A": [[[_const(a)]]], "q": [[[]]], "L": [[l_modes]], "B": [[_const(b)]]},
    }


def kpp_readme(seed: int) -> dict:
    f = _factors(seed, ("a", "l", "b"))
    system = _scalar_system(f["a"], _const(f["l"]), f["b"])
    c_star = 2.0 * math.sqrt(f["a"] * f["l"])
    job_a = {
        "system": system,
        "tasks": ["dispersion", "wave", "simulate"],
        "params": {
            "e": [1],
            "c": 2.5,
            "wave": {"a": 40.0, "n_z": 2048, "tol": 1e-7},
            "simulate": {"X": 150.0, "n_x": 4096, "t_final": 60.0},
        },
        "seed": 0,
    }
    job_b = {
        "system": system,
        "tasks": ["dispersion", "wave"],
        "params": {"e": [1], "c": c_star, "wave": {"a": 60.0, "n_z": 6001, "tol": 1e-8}},
        "seed": 0,
    }
    return {
        "reason": REASONS["kpp_readme"],
        "factors": f,
        "jobs": {"a": job_a, "b": job_b},
    }


def system_tper(seed: int) -> dict:
    f = _factors(seed, ("a", "l12", "l21", "b"))
    zero = []
    # L12(t) = l12 (1 + sin 2 pi t): scaling mean and amplitude together keeps
    # the coupling minimum at 0, so (A2) essential nonnegativity still holds
    l12 = [_mode(cos=f["l12"]), _mode(sin=f["l12"], kt=1)]
    system = {
        "N": 2, "n": 1,
        "periods": {"T": 1.0, "L": [1.0]},
        "fields": {
            "A": [[[_const(f["a"])]], [[_const(f["a"])]]],
            "q": [[zero], [zero]],
            "L": [[zero, l12], [_const(f["l21"]), zero]],
            "B": [[_const(f["b"]), _const(f["b"])], [_const(f["b"]), _const(f["b"])]],
        },
    }
    job = {
        "system": system,
        "tasks": ["dispersion", "wave", "simulate"],
        "params": {
            "e": [1],
            "c": 3,
            "wave": {"a": 40.0, "n_t": 64, "n_z": 401, "tol": 1e-7},
            "simulate": {"X": 150.0, "n_x": 4096, "t_final": 60.0, "theta": 0.15},
        },
        "seed": 0,
    }
    return {"reason": REASONS["system_tper"], "factors": f, "jobs": {"tper": job}}


def cell_periodic(seed: int) -> dict:
    f = _factors(seed, ("a", "l_mean", "l_amp", "b"))
    l_modes = [_mode(cos=f["l_mean"]), _mode(cos=0.5 * f["l_amp"], kx=1)]
    job = {
        "system": _scalar_system(f["a"], l_modes, f["b"]),
        "tasks": ["dispersion", "wave", "simulate"],
        "params": {
            "e": [1],
            "c": "3",
            "wave": {"a": 20.0, "n_t": 64, "points_per_cell": 32, "tol": 1e-7},
            "simulate": {"X": 150.0, "n_x": 4096, "t_final": 50.0, "theta": 0.15},
        },
        "seed": 0,
    }
    return {"reason": REASONS["cell_periodic"], "factors": f, "jobs": {"cell": job}}


WORKLOADS = {"kpp_readme": kpp_readme, "system_tper": system_tper, "cell_periodic": cell_periodic}


def build(name: str, seed: int) -> dict:
    """The workload `name` at `seed`: reason, amplitude factors and job configs."""
    return WORKLOADS[name](seed)
