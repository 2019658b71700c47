"""Configuration-driven command line entry point.

`wavekit run config.json [--out DIR]` executes the requested tasks
(validate, eigen, dispersion, wave, simulate, probe) in dependency order,
writing one JSON summary per task plus CSV data and SVG quick-look plots;
`wavekit validate config.json` only checks the config.  params.e and
params.c are the run's only direction and speed: every frame, the fronts of
simulate and probe, and the report's speed cross-check derive from them.  An
unknown params key, at any depth, is a config error.

Exit codes: 0 ok, 2 config/schema error, 3 failed task (the failing task's
error is embedded in its summary, with the traceback of an unexpected error).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys as _sys
import tempfile
import time
import traceback
from functools import cached_property
from pathlib import Path

import numpy as np

from . import svgplot
from .cauchy import (
    bump_initial,
    front_initial,
    logistic_envelope,
    measure_spreading_speed,
    nonexistence_probe,
    simulate,
)
from .coeffs import nondimensionalize, system_from_json, validate_assumptions
from .dispersion import criticality, minimal_speed, persistence_check, speed_roots, static_frame
from .eigen import EigenEvaluator, lambda_mu_curve
from .errors import InputError, NumericalError, WavekitError
from .frame import frame_for, parse_speed
from .pde_core import csv_lines, resolved_fields
from .waves import (
    build_envelopes_critical,
    build_envelopes_supercritical,
    cylinder_grid,
    extend_to_entire,
    verify_wave,
)

log = logging.getLogger("wavekit")
WINDOW = 10.0  # default wave.window

TASKS = ("validate", "eigen", "dispersion", "wave", "simulate", "probe")
_PREREQS = {
    "validate": (),
    "eigen": ("validate",),
    "dispersion": ("validate", "eigen"),
    "wave": ("validate", "eigen", "dispersion"),
    "simulate": ("validate",),
    "probe": ("validate", "eigen", "dispersion"),
}


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_default(obj):
    return obj.tolist() if isinstance(obj, (np.generic, np.ndarray)) else str(obj)


def _dump_json(path: Path, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True,
                                   default=_json_default) + "\n")


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _speed(v) -> bool:
    """None (the task's default) or a speed parse_speed accepts."""
    if v is None:
        return True
    try:
        parse_speed(v)
    except InputError:
        return False
    return True


def _increasing(v) -> bool:
    return isinstance(v, list) and all(_number(x) and x > 0 for x in v) and sorted(v) == v


# every params entry a task reads, as (check, what it must be, dotted keys)
_PARAM_RULES = (
    (_speed, 'a number or a rational string such as "5/2"', "c probe.c"),
    (lambda v: isinstance(v, list) and all(map(_number, v)) and any(v),
     "a nonzero list of numbers", "e"),
    (lambda v: _number(v) and v > 0, "a positive number",
     "wave.a wave.window wave.gap_tol wave.tol wave.dz simulate.X simulate.t_final "
     "simulate.snapshot_every simulate.initial.amp simulate.initial.width probe.t_final probe.X"),
    (lambda v: _integer(v) and v > 0, "a positive integer",
     "wave.n_t wave.n_z wave.points_per_cell simulate.n_x probe.n_x"),
    (lambda v: _number(v) and 0 < v < 1, "a number in (0, 1)", "simulate.theta"),
    (_increasing, "an increasing list of positive numbers", "mu_list"),
    (lambda v: _increasing(v) and len(v) >= 2,
     "an increasing list of at least two positive numbers", "wave.a_schedule"),
    (lambda v: v in ("bump", "front"), '"bump" or "front"', "simulate.initial.kind"),
)


_RULES = {tuple(key.split(".")): (check, what)
          for check, what, keys in _PARAM_RULES for key in keys.split()}
_SECTIONS = {key[:k] for key in _RULES for k in range(1, len(key))}


def _check_params(section, where=()) -> None:
    """Check each entry of a params section; a key _PARAM_RULES does not list exits 2."""
    if not isinstance(section, dict):
        raise InputError(f"config.{'.'.join(('params', *where))} must be an object")
    for name, value in section.items():
        key = (*where, name)
        dotted = ".".join(("params", *key))
        if key in _SECTIONS:
            _check_params(value, key)
        elif key not in _RULES:
            raise InputError(f"config.{dotted} is not a known key")
        elif not _RULES[key][0](value):
            raise InputError(f"config.{dotted} must be {_RULES[key][1]}, not {value!r}")


def _grid_kw(wave: dict) -> dict:
    """The params.wave entries every wave cylinder is built with."""
    return {k: wave[k] for k in ("n_t", "n_z", "points_per_cell", "dz") if k in wave}


_ROOT_KEYS = ("system", "tasks", "params", "out", "seed")  # seed is accepted and unused


class JobConfig:
    """Validated job configuration: system + ordered tasks + parameters."""

    def __init__(self, doc: dict, base_dir: Path):
        if not isinstance(doc, dict):
            raise InputError("config root must be a JSON object")
        unknown = [k for k in doc if k not in _ROOT_KEYS]
        if unknown:
            raise InputError(f"config.{unknown[0]} is not a known key: use {', '.join(_ROOT_KEYS)}")
        if "system" not in doc:
            raise InputError("config.system missing")
        if not isinstance(doc.get("out", ""), str):
            raise InputError(f"config.out must be a directory path string, not {doc['out']!r}")
        self.system = system_from_json(doc["system"])
        tasks = doc.get("tasks", [])
        if not isinstance(tasks, list) or any(t not in TASKS for t in tasks):
            raise InputError(f"config.tasks must be a subset of {TASKS}")
        self.tasks = self._close_tasks(tasks)
        self.params = doc.get("params", {})
        _check_params(self.params)
        # x-dependent coefficients take a rational direction (frame.make_frame)
        n, e = self.system.n, self.params.get("e")
        if e and not self.system.is_space_homogeneous() and any(x != int(x) for x in e):
            raise InputError("config.params.e must be integers when the coefficients "
                             f"depend on x, not {e!r}")
        if "wave" in self.tasks and self.params.get("c") is None:
            raise InputError("config.params.c is required for the wave task")
        wave = self.params.get("wave", {})
        if {"n_z", "a_schedule"} <= set(wave):
            raise InputError("config.params.wave.n_z gives each a_schedule cylinder its own dz: "
                             "use wave.dz (or wave.points_per_cell) instead")
        if {"a", "a_schedule"} <= set(wave):
            raise InputError("config.params.wave.a is ignored next to wave.a_schedule: give one")
        if "a_schedule" in wave and wave.get("window", WINDOW) > wave["a_schedule"][0]:
            raise InputError("config.params.wave.window must be <= wave.a_schedule[0]")
        if e is not None and len(e) != n:
            raise InputError(f"config.params.e must have n = {n} entries, not {e!r}")
        self.e = [0] * (n - 1) + [1] if e is None else e
        if n >= 2 and {"simulate", "probe"} & set(self.tasks):
            raise InputError("the simulate and probe tasks need n = 1")
        # the eigen layer reduces every frame of direction e to (t, z), and
        # all of them vary across e alike: refuse a transverse dependence here
        if "eigen" in self.tasks and n >= 2 and not self.system.is_space_homogeneous():
            static_frame(self.system, e=self.e).reduce_1d()
        # the supercritical wave's frame and first cylinder: run_wave reuses them
        self.wave_frame = self.wave_grid = None
        if "wave" in self.tasks:
            self.wave_frame = frame_for(self.system, self.e, self.params["c"])
            a0 = wave["a_schedule"][0] if "a_schedule" in wave else wave.get("a", 40.0)
            self.wave_grid = cylinder_grid(self.wave_frame, float(a0), **_grid_kw(wave))
            resolved_fields(self.wave_frame, self.wave_grid)
        self.out = Path(doc.get("out", base_dir / "out"))

    @staticmethod
    def _close_tasks(tasks):
        want = set(tasks)
        for t in tasks:
            want.update(_PREREQS[t])
        # keep the chain order; simulate/probe already sit after their prereqs
        return [t for t in TASKS if t in want]

    def param(self, key, default=None):
        return self.params.get(key, default)


def load_config(path) -> JobConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise InputError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config is not valid JSON (line {exc.lineno}: {exc.msg})") from exc
    return JobConfig(doc, path.parent)


class TaskContext:
    """Shared state across tasks of one run."""

    def __init__(self, cfg: JobConfig):
        self.cfg = cfg
        self.sys = cfg.system
        self.e = cfg.e
        # simulate and probe (n = 1) start from fronts that fill x sign(e) > 0
        self.sign = math.copysign(1.0, self.e[-1])
        self.curve = None

    @cached_property
    def ev(self) -> EigenEvaluator:
        """The run's one memoized lambda(mu), in the c = 0 frame of direction e."""
        return EigenEvaluator(static_frame(self.sys, e=self.e))

    def get_curve(self):
        if self.curve is None:
            self.curve = minimal_speed(self.ev)
        return self.curve


def run_validate(ctx: TaskContext, outdir: Path) -> dict:
    rep = validate_assumptions(ctx.sys)
    summary = rep.summary()
    summary["all_pass"] = rep.all_pass()
    if rep.flags["A4"].passed:
        r, K = logistic_envelope(ctx.sys)
        summary["logistic_envelope"] = {"r": r, "K": K}
    return summary


def run_eigen(ctx: TaskContext, outdir: Path) -> dict:
    mu_list = [float(m) for m in ctx.cfg.param("mu_list", [0.5, 1.0, 2.0])]
    rows = lambda_mu_curve(ctx.ev, mu_list)
    csv_path = outdir / "eigen_curve.csv"
    lines = ["mu,lambda,dlambda_dmu"]
    lines += [f"{float(m)!r},{float(l)!r},{float(d)!r}" for (m, l, d) in rows]
    _atomic_write(csv_path, "\n".join(lines) + "\n")
    for idx, mu in enumerate(mu_list):
        ctx.ev.pair(mu).eigenfunction.to_csv(outdir / f"eigenfunction_mu{idx}.csv")
    return {
        "mu_list": mu_list,
        "curve": [{"mu": m, "lambda": l, "dlambda_dmu": d} for (m, l, d) in rows],
        "artifacts": ["eigen_curve.csv"]
        + [f"eigenfunction_mu{i}.csv" for i in range(len(mu_list))],
    }


def run_dispersion(ctx: TaskContext, outdir: Path) -> dict:
    pers = persistence_check(ctx.ev)
    summary = {
        "lambda_1p": pers.lambda_1p,
        "classification": pers.classification,
    }
    if pers.classification == "extinct":
        summary.update({"c_star": None, "mu_star": None, "curve": []})
        return summary
    curve = ctx.get_curve()
    summary.update(curve.to_json())
    summary["solves"] = {"c_star": curve.solves, "roots": None}
    c_req = ctx.cfg.param("c")
    if c_req is not None:
        c_val = parse_speed(c_req)
        if criticality(curve, c_val) == "supercritical":
            roots = speed_roots(curve, c_val)
            summary["roots"] = roots.to_json()
            summary["solves"]["roots"] = roots.solves
    mus = np.array([m for m, _ in curve.samples])
    gs = np.array([-l / m for m, l in curve.samples])
    svgplot.line_plot(
        outdir / "dispersion_curve.svg",
        [("-lambda/mu", mus, gs)],
        title="dispersion: minimal speed",
        xlabel="mu", ylabel="-lambda/mu",
        markers=[(curve.mu_star, curve.c_star, "c*")],
    )
    summary["artifacts"] = ["dispersion_curve.svg"]
    return summary


def run_wave(ctx: TaskContext, outdir: Path) -> dict:
    curve = ctx.get_curve()
    wave_par = ctx.cfg.param("wave", {})
    c_val = parse_speed(ctx.cfg.param("c"))
    kind = criticality(curve, c_val)
    if kind == "subcritical":
        raise NumericalError(
            f"subcritical speed c = {c_val} < c* = {curve.c_star}: no wave exists"
        )
    critical = kind == "critical"
    if critical and not ctx.sys.is_space_homogeneous():
        raise InputError(
            "critical waves are built only for space-homogeneous coefficients: "
            f"c* = {curve.c_star!r} has no exact rational frame"
        )

    a_schedule = wave_par.get("a_schedule")
    profile_tol = float(wave_par.get("tol", 1e-7))

    # a space-homogeneous critical frame keeps the supercritical one's cylinder
    grid0 = ctx.cfg.wave_grid
    if critical:
        fcrit = frame_for(ctx.sys, ctx.e, curve.c_star)
        env = build_envelopes_critical(fcrit, curve, grid0, tol=profile_tol)
    else:
        roots = speed_roots(curve, c_val)
        env = build_envelopes_supercritical(ctx.cfg.wave_frame, roots, grid0)
    if a_schedule:
        profile = extend_to_entire(env, a_schedule, float(wave_par.get("window", WINDOW)),
                                   tol=float(wave_par.get("gap_tol", 1e-3)),
                                   profile_tol=profile_tol, **_grid_kw(wave_par))
    else:
        profile = env.fixed_point(grid0, tol=profile_tol)
    ver = verify_wave(profile)
    env_info = {k: getattr(env, k) for k in env.reported}

    profile.u.to_csv(outdir / "wave_profile.csv")
    g = profile.u.grid
    phases = [0, g.n_t // 4, g.n_t // 2, (3 * g.n_t) // 4]
    series = []
    for k in sorted(set(phases)):
        for i in range(profile.u.N):
            label = f"t={g.t[k]:.3g}" + (f" u{i + 1}" if profile.u.N > 1 else "")
            series.append((label, g.z, profile.u.values[i, k]))
    svgplot.line_plot(outdir / "wave_profile.svg", series,
                      title=f"wave profile c={c_val:g}", xlabel="z", ylabel="u")
    return {
        "c": c_val,
        "pipeline": profile.info["pipeline"],
        "envelopes": env_info,
        "diagnostics": profile.diagnostics(),
        "verification": ver.to_json(),
        "artifacts": ["wave_profile.csv", "wave_profile.svg"],
    }


def run_simulate(ctx: TaskContext, outdir: Path) -> dict:
    par = ctx.cfg.param("simulate", {})
    n_x = int(par.get("n_x", 4096))
    t_final = float(par.get("t_final", 60.0))
    # a front at a c* the run has computed stays clear of the 0.9 X guard
    c_star = ctx.curve.c_star if ctx.curve is not None else 0.0
    X = float(par.get("X", max(150.0, 1.25 * c_star * t_final)))
    init_par = par.get("initial", {"kind": "bump"})
    x = np.linspace(-X, X, n_x)
    sysn = nondimensionalize(ctx.sys)
    _, K = logistic_envelope(sysn)
    sides = ("left", "right")
    if init_par.get("kind", "bump") == "front":
        # a front fills x sign(e) > 0 and moves only its edge facing -e
        sides = sides[:1] if ctx.sign > 0 else sides[1:]
        init = front_initial(x, sysn.N, ctx.sign, amp=float(init_par.get("amp", 0.5 * K)),
                             width=float(init_par.get("width", 1.0)))
    else:
        init = bump_initial(x, sysn.N, amp=float(init_par.get("amp", 0.5 * K)),
                            width=float(init_par.get("width", 5.0)))
    run = simulate(sysn, init, t_final, X, n_x=n_x,
                   snapshot_every=float(par.get("snapshot_every", 1.0)))
    if "theta" in par:
        theta = float(par["theta"]) * K
    else:  # half the plateau: the least over the fit window of max_x max_i u_i
        theta = 0.5 * float(run.snapshots[run.times >= run.times[-1] / 2.0].max(axis=(1, 2)).min())
    meas = measure_spreading_speed(run, theta, sides=sides)
    left, right = run.front_positions(theta)
    rows = map("{!r},{!r},{!r}\n".format, run.times.tolist(), left.tolist(), right.tolist())
    _atomic_write(outdir / "front_track.csv", "t,x_theta_left,x_theta_right\n" + "".join(rows))
    keep = np.linspace(0, len(run.times) - 1, min(9, len(run.times))).astype(int)
    x_cells = [f"{x!r}," for x in run.x.tolist()]
    for j, k in enumerate(keep):
        lines = ["component,x,value\n"]
        for i, snap in enumerate(run.snapshots[k]):
            lines += csv_lines(f"{i},", x_cells, snap)
        _atomic_write(outdir / f"snapshot_{j}.csv", "".join(lines))
    svgplot.line_plot(
        outdir / "front_track.svg",
        [("left", run.times, left), ("right", run.times, right)],
        title="front trajectory", xlabel="t", ylabel="x_theta",
    )
    return {
        "theta": theta,
        # null, not NaN, for the side a front leaves untracked
        **{f"{q}_{side}": getattr(meas, f"{q}_{side}") if side in sides else None
           for q in ("speed", "r2") for side in ("left", "right")},
        "dt": run.dt,
        "K": run.K,
        "artifacts": ["front_track.csv", "front_track.svg"]
        + [f"snapshot_{j}.csv" for j in range(len(keep))],
    }


def run_probe(ctx: TaskContext, outdir: Path) -> dict:
    curve = ctx.get_curve()
    par = ctx.cfg.param("probe", {})
    c = curve.c_star / 2.0 if par.get("c") is None else parse_speed(par["c"])
    rep = nonexistence_probe(
        ctx.sys, ctx.sign, c, curve.c_star,
        t_final=float(par.get("t_final", 30.0)),
        X=float(par.get("X", 90.0)),
        n_x=int(par.get("n_x", 2048)),
    )
    return {
        "c": rep.c,
        "c_star": rep.c_star,
        "observer_speed": rep.observer_speed,
        "floor": rep.floor,
        "upstream_reference": rep.upstream_reference,
        "floor_ratio": rep.floor_ratio,
        "probe_status": rep.status,
    }


_RUNNERS = {
    "validate": run_validate,
    "eigen": run_eigen,
    "dispersion": run_dispersion,
    "wave": run_wave,
    "simulate": run_simulate,
    "probe": run_probe,
}


def emit_report(outdir: Path, sections: dict, wall_times: dict | None = None) -> dict:
    """Write report.json and index.svg for one run's task summaries.

    sections maps each task of the run, skipped ones included, to its
    summary; index.svg lists each task with its status.  Other files in
    outdir, such as an earlier run's task JSON, are not read.
    """
    if not sections:
        raise InputError("emit_report needs at least one task summary")
    from . import __version__

    outdir = Path(outdir)
    report = {"wavekit_version": __version__, "sections": sections}
    disp = sections.get("dispersion", {})
    sim = sections.get("simulate", {})
    # c*(e) is the speed of the front that invades along -e: the left one when e > 0
    side = "speed_left" if disp.get("e", [1])[-1] > 0 else "speed_right"
    if disp.get("c_star") and sim.get(side) is not None:
        measured = abs(sim[side])
        report["speed_cross_check"] = {
            "c_star": disp["c_star"],
            "measured": measured,
            "ratio": measured / disp["c_star"],
        }
    if wall_times:
        report["wall_times_s"] = wall_times
    _dump_json(outdir / "report.json", report)
    lines = [f"{name}: {section['status']}" for name, section in sections.items()]
    if "speed_cross_check" in report:
        lines.append(f"speed ratio sim/c* = {report['speed_cross_check']['ratio']:.4f}")
    svgplot.text_panel(outdir / "index.svg", "wavekit report", lines)
    return report


def run_config(path, out: str | None = None) -> int:
    """Execute a config; returns the process exit code."""
    try:
        cfg = load_config(path)
    except InputError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    outdir = cfg.out if out is None else Path(out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create the out dir: {exc}", file=_sys.stderr)
        return 2
    if not cfg.tasks:
        return 0

    ctx = TaskContext(cfg)
    wall = {}
    failed = {}
    sections = {}

    def execute(task):
        t0 = time.perf_counter()
        log.info("task %s: start", task)
        try:
            summary = _RUNNERS[task](ctx, outdir)
            status = "ok"
        except (WavekitError, InputError) as exc:
            summary = {"error": str(exc), "error_type": type(exc).__name__}
            if isinstance(exc, NumericalError) and exc.history:
                summary["history_tail"] = [float(h) if np.isscalar(h) else list(map(float, np.atleast_1d(h)))
                                           for h in exc.history[-5:]]
            status = "failed"
            failed[task] = str(exc)
        except Exception as exc:
            # a bug rather than a reported failure: keep the traceback, exit 3
            log.error("task %s: unexpected %s: %s", task, type(exc).__name__, exc)
            summary = {"error": str(exc), "error_type": type(exc).__name__,
                       "traceback": traceback.format_exc()}
            status = "failed"
            failed[task] = str(exc)
        summary["task"] = task
        summary["status"] = status
        _dump_json(outdir / f"{task}.json", summary)
        sections[task] = summary
        wall[task] = time.perf_counter() - t0
        log.info("task %s: %s (%.2fs)", task, status, wall[task])

    # cfg.tasks is in chain order, so every prerequisite has run before it
    for task in cfg.tasks:
        bad = [p for p in _PREREQS[task] if p in failed]
        if bad:
            sections[task] = {"task": task, "status": "skipped",
                              "error": f"prerequisite failed: {', '.join(bad)}"}
            _dump_json(outdir / f"{task}.json", sections[task])
        else:
            execute(task)

    emit_report(outdir, sections, wall_times=wall)
    return 3 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="wavekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the tasks of a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_val = sub.add_parser("validate", help="check a config file without running")
    p_val.add_argument("config")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=os.environ.get("WAVEKIT_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )

    if args.command == "validate":
        try:
            cfg = load_config(args.config)
        except InputError as exc:
            print(f"config error: {exc}", file=_sys.stderr)
            return 2
        print(f"ok: {len(cfg.tasks)} task(s): {', '.join(cfg.tasks)}")
        return 0
    return run_config(args.config, out=args.out)


if __name__ == "__main__":
    raise SystemExit(main())
