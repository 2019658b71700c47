"""Configuration-driven command line entry point.

`wavekit run config.json [--out DIR] [--threads K] [--seed S]` executes the
requested tasks (validate, eigen, dispersion, wave, simulate, probe) in
dependency order, writing one JSON summary per task plus CSV data and SVG
quick-look plots; `wavekit validate config.json` only checks the config.

Exit codes: 0 ok, 2 config/schema error, 3 failed task (the failing task's
error is embedded in its summary, with the traceback of an unexpected error).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys as _sys
import tempfile
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
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
from .dispersion import minimal_speed, persistence_check, speed_roots, static_frame
from .eigen import EigenEvaluator, lambda_mu_curve
from .errors import InputError, NumericalError, WavekitError
from .frame import frame_from_json, make_frame, transform_coefficients
from .waves import (
    build_envelopes_critical,
    build_envelopes_supercritical,
    critical_fixed_point,
    cylinder_grid,
    extend_to_entire,
    fixed_point_truncated,
    verify_wave,
    _cell_grid_for,
)

log = logging.getLogger("wavekit")

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
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    return str(obj)


def _dump_json(path: Path, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True,
                                   default=_json_default) + "\n")


def _parse_speed(c, rational_needed: bool):
    """A configured speed: a number or a rational string such as "5/2"."""
    try:
        if rational_needed:
            return Fraction(c) if isinstance(c, str) else c
        return float(Fraction(c)) if isinstance(c, str) else float(c)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"config.params.c is not a speed: {c!r}") from exc


class JobConfig:
    """Validated job configuration: system + ordered tasks + parameters."""

    def __init__(self, doc: dict, base_dir: Path):
        if not isinstance(doc, dict):
            raise InputError("config root must be a JSON object")
        if "system" not in doc:
            raise InputError("config.system missing")
        self.system = system_from_json(doc["system"])
        tasks = doc.get("tasks", [])
        if not isinstance(tasks, list) or any(t not in TASKS for t in tasks):
            raise InputError(f"config.tasks must be a subset of {TASKS}")
        self.tasks = self._close_tasks(tasks)
        self.params = doc.get("params", {})
        if not isinstance(self.params, dict):
            raise InputError("config.params must be an object")
        if "wave" in self.tasks and self.params.get("c") is None:
            raise InputError("config.params.c is required for the wave task")
        if self.params.get("c") is not None:
            _parse_speed(self.params["c"], False)
        self.seed = int(doc.get("seed", 0))
        self.out = Path(doc.get("out", base_dir / "out"))

    @staticmethod
    def _close_tasks(tasks):
        want = set(tasks)
        for t in tasks:
            want.update(_PREREQS[t])
        ordered = [t for t in TASKS if t in want]
        # keep the chain order; simulate/probe already sit after their prereqs
        return ordered

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
        self.tol = float(cfg.param("tol", 1e-6))
        self.eigen_tol = min(self.tol, 1e-8)
        self.e = cfg.param("e", [0] * (cfg.system.n - 1) + [1])
        self.results: dict[str, dict] = {}
        self.curve = None
        self.persistence = None
        self._direction_ev = None

    # -- shared pipeline pieces ------------------------------------------------

    def direction_evaluator(self) -> EigenEvaluator:
        """The run's one memoized lambda(mu) in the c = 0 frame of direction e."""
        if self._direction_ev is None:
            self._direction_ev = EigenEvaluator(static_frame(self.sys, e=self.e),
                                                tol=self.eigen_tol)
        return self._direction_ev

    def get_persistence(self):
        if self.persistence is None:
            self.persistence = persistence_check(self.sys, tol=self.eigen_tol)
        return self.persistence

    def get_curve(self):
        if self.curve is None:
            pers = self.get_persistence()
            if pers.classification == "extinct":
                raise NumericalError(
                    f"extinct: no wave pipeline (lambda_1p = {pers.lambda_1p:.6g} >= 0)"
                )
            ev = self.direction_evaluator()
            self.curve = minimal_speed(ev.fsys, tol=self.eigen_tol, evaluator=ev)
        return self.curve


def run_validate(ctx: TaskContext, outdir: Path) -> dict:
    rep = validate_assumptions(ctx.sys, int(ctx.cfg.param("sampling_factor", 8)))
    summary = rep.summary()
    summary["all_pass"] = rep.all_pass()
    if rep.flags["A4"].passed:
        r, K = logistic_envelope(ctx.sys)
        summary["logistic_envelope"] = {"r": r, "K": K}
    return summary


def run_eigen(ctx: TaskContext, outdir: Path) -> dict:
    mu_list = [float(m) for m in ctx.cfg.param("mu_list", [0.5, 1.0, 2.0])]
    ev = ctx.direction_evaluator()
    rows = lambda_mu_curve(ev.fsys, mu_list, evaluator=ev)
    csv_path = outdir / "eigen_curve.csv"
    lines = ["mu,lambda,dlambda_dmu"]
    lines += [f"{float(m)!r},{float(l)!r},{float(d)!r}" for (m, l, d) in rows]
    _atomic_write(csv_path, "\n".join(lines) + "\n")
    for idx, mu in enumerate(mu_list):
        ev.pair(mu).eigenfunction.to_csv(outdir / f"eigenfunction_mu{idx}.csv")
    return {
        "mu_list": mu_list,
        "curve": [{"mu": m, "lambda": l, "dlambda_dmu": d} for (m, l, d) in rows],
        "artifacts": ["eigen_curve.csv"]
        + [f"eigenfunction_mu{i}.csv" for i in range(len(mu_list))],
    }


def run_dispersion(ctx: TaskContext, outdir: Path) -> dict:
    pers = ctx.get_persistence()
    summary = {
        "lambda_1p": pers.lambda_1p,
        "classification": pers.classification,
    }
    if pers.classification == "extinct":
        summary.update({"c_star": None, "mu_star": None, "curve": []})
        return summary
    curve = ctx.get_curve()
    summary.update(curve.to_json())
    c_req = ctx.cfg.param("c")
    if c_req is not None:
        c_val = _parse_speed(c_req, False)
        if c_val - curve.c_star > 10.0 * ctx.eigen_tol:
            roots = speed_roots(curve, c_val, tol=ctx.eigen_tol)
            summary["roots"] = roots.to_json()
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


def _wave_frame(ctx: TaskContext, c):
    sysn = nondimensionalize(ctx.sys)
    frame_req = ctx.cfg.param("frame")
    if frame_req is not None:
        return transform_coefficients(sysn, frame_from_json(frame_req))
    if sysn.is_space_homogeneous():
        e = [float(v) for v in ctx.e]
        return transform_coefficients(
            sysn, make_frame(e, _parse_speed(c, False), mode="space-homogeneous"))
    frame = make_frame(ctx.e, _parse_speed(c, True), mode="rational")
    return transform_coefficients(sysn, frame)


def run_wave(ctx: TaskContext, outdir: Path) -> dict:
    curve = ctx.get_curve()
    c_req = ctx.cfg.param("c")
    if c_req is None:
        raise InputError("wave task needs params.c")
    wave_par = ctx.cfg.param("wave", {})
    c_val = _parse_speed(c_req, False)
    band = 10.0 * ctx.eigen_tol
    if c_val < curve.c_star - band:
        raise NumericalError(
            f"subcritical speed c = {c_val} < c* = {curve.c_star}: no wave exists"
        )
    critical = abs(c_val - curve.c_star) <= band

    grid_kw = {
        k: wave_par[k]
        for k in ("n_t", "n_z", "points_per_cell", "dz")
        if k in wave_par
    }
    a_schedule = wave_par.get("a_schedule")
    a_single = wave_par.get("a", 40.0)
    window = float(wave_par.get("window", 10.0))
    gap_tol = float(wave_par.get("gap_tol", 1e-3))
    profile_tol = float(wave_par.get("tol", 1e-7))

    fsc = _wave_frame(ctx, c_req if not critical else curve.c_star)
    if critical:
        a0 = float(a_schedule[0] if a_schedule else a_single)
        grid0 = cylinder_grid(fsc, a0, **grid_kw)
        env = build_envelopes_critical(fsc, curve.mu_star, curve.c_star, grid0,
                                       tol=profile_tol)
        if a_schedule:
            profile = extend_to_entire(fsc, env, a_schedule, window, tol=gap_tol,
                                       profile_tol=profile_tol, critical=True, **grid_kw)
        else:
            profile = critical_fixed_point(fsc, env, a0, tol=profile_tol, grid=grid0)
        ver = verify_wave(profile, decay_expected=curve.mu_star, critical=True,
                          mu_star=curve.mu_star)
        env_info = {"M1": env.M1, "M2": env.M2, "M3": env.M3,
                    "g_gamma": env.g_gamma, "a_star": env.a_star}
    else:
        roots = speed_roots(curve, c_val, tol=ctx.eigen_tol)
        gamma = 0.5 * min(roots.mu_wedge, roots.mu_vee - roots.mu_wedge)
        probe_grid = cylinder_grid(fsc, float(a_schedule[0] if a_schedule else a_single),
                                   **grid_kw)
        cell = _cell_grid_for(fsc, probe_grid)
        ev = EigenEvaluator(fsc, grid=cell, tol=ctx.eigen_tol)
        env = build_envelopes_supercritical(
            fsc, roots, ev.pair(roots.mu_wedge), ev.pair(roots.mu_wedge + gamma), cell
        )
        if a_schedule:
            profile = extend_to_entire(fsc, env, a_schedule, window, tol=gap_tol,
                                       profile_tol=profile_tol, **grid_kw)
        else:
            profile = fixed_point_truncated(fsc, env, float(a_single),
                                            tol=profile_tol, grid=probe_grid)
        ver = verify_wave(profile, decay_expected=roots.mu_wedge)
        env_info = {"mu_wedge": roots.mu_wedge, "mu_vee": roots.mu_vee,
                    "gamma": gamma, "M": env.M, "chi": env.chi, "a_star": env.a_star}

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
        "pipeline": "critical" if critical else "supercritical",
        "envelopes": env_info,
        "diagnostics": profile.diagnostics(),
        "verification": ver.to_json(),
        "artifacts": ["wave_profile.csv", "wave_profile.svg"],
    }


def run_simulate(ctx: TaskContext, outdir: Path) -> dict:
    par = ctx.cfg.param("simulate", {})
    X = float(par.get("X", 150.0))
    n_x = int(par.get("n_x", 4096))
    t_final = float(par.get("t_final", 60.0))
    theta_frac = float(par.get("theta", 0.5))
    init_par = par.get("initial", {"kind": "bump"})
    x = np.linspace(-X, X, n_x)
    sysn = nondimensionalize(ctx.sys)
    _, K = logistic_envelope(sysn)
    if init_par.get("kind", "bump") == "front":
        init = front_initial(x, sysn.N, float(init_par.get("e", 1.0)),
                             amp=float(init_par.get("amp", 0.5 * K)),
                             width=float(init_par.get("width", 1.0)))
    else:
        init = bump_initial(x, sysn.N, amp=float(init_par.get("amp", 0.5 * K)),
                            width=float(init_par.get("width", 5.0)))
    run = simulate(sysn, init, t_final, X, n_x=n_x,
                   snapshot_every=float(par.get("snapshot_every", 1.0)))
    theta = theta_frac * K
    meas = measure_spreading_speed(run, theta)
    left, right = run.front_positions(theta)
    lines = ["t,x_theta_left,x_theta_right"]
    lines += [f"{float(t)!r},{float(l)!r},{float(r)!r}"
              for t, l, r in zip(run.times, left, right)]
    _atomic_write(outdir / "front_track.csv", "\n".join(lines) + "\n")
    keep = np.linspace(0, len(run.times) - 1, min(9, len(run.times))).astype(int)
    for j, k in enumerate(keep):
        lines = ["component,x,value"]
        for i in range(run.N):
            lines += [f"{i},{float(xx)!r},{float(vv)!r}"
                      for xx, vv in zip(run.x, run.snapshots[k, i])]
        _atomic_write(outdir / f"snapshot_{j}.csv", "\n".join(lines) + "\n")
    svgplot.line_plot(
        outdir / "front_track.svg",
        [("left", run.times, left), ("right", run.times, right)],
        title="front trajectory", xlabel="t", ylabel="x_theta",
    )
    return {
        "theta": theta,
        "speed_left": meas.speed_left,
        "speed_right": meas.speed_right,
        "r2_left": meas.r2_left,
        "r2_right": meas.r2_right,
        "dt": run.dt,
        "K": run.K,
        "artifacts": ["front_track.csv", "front_track.svg"]
        + [f"snapshot_{j}.csv" for j in range(len(keep))],
    }


def run_probe(ctx: TaskContext, outdir: Path) -> dict:
    curve = ctx.get_curve()
    par = ctx.cfg.param("probe", {})
    c = float(par.get("c", curve.c_star / 2.0))
    e_scalar = float(par.get("e", ctx.e[-1] if hasattr(ctx.e, "__len__") else ctx.e))
    rep = nonexistence_probe(
        ctx.sys, e_scalar, c, curve.c_star,
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


def emit_report(outdir: Path, wall_times: dict | None = None) -> dict:
    """Merge per-task summaries into report.json plus an index SVG.

    Duplicate task outputs (e.g. task.json and task_2.json) are resolved by
    file modification time, newest wins, with a warning recorded.
    """
    outdir = Path(outdir)
    sections = {}
    warnings = []
    for task in TASKS:
        candidates = sorted(outdir.glob(f"{task}*.json"), key=lambda p: p.stat().st_mtime)
        candidates = [p for p in candidates if p.name != "report.json"]
        if not candidates:
            continue
        if len(candidates) > 1:
            warnings.append(
                f"duplicate outputs for {task}: kept {candidates[-1].name} (latest mtime)"
            )
        sections[task] = json.loads(candidates[-1].read_text())
    if not sections:
        raise InputError("emit_report needs at least one task artifact")
    from . import __version__

    report = {"wavekit_version": __version__, "sections": sections, "warnings": warnings}
    disp = sections.get("dispersion", {})
    sim = sections.get("simulate", {})
    if disp.get("c_star") and sim.get("speed_right") is not None:
        measured = max(abs(sim["speed_left"]), abs(sim["speed_right"]))
        report["speed_cross_check"] = {
            "c_star": disp["c_star"],
            "measured": measured,
            "ratio": measured / disp["c_star"],
        }
    if wall_times:
        report["wall_times_s"] = wall_times
    _dump_json(outdir / "report.json", report)
    lines = [f"{name}: ok" for name in sections]
    lines += warnings
    if "speed_cross_check" in report:
        lines.append(f"speed ratio sim/c* = {report['speed_cross_check']['ratio']:.4f}")
    svgplot.text_panel(outdir / "index.svg", "wavekit report", lines)
    return report


def run_config(path, out: str | None = None, threads: int = 1,
               seed: int | None = None) -> int:
    """Execute a config; returns the process exit code."""
    try:
        cfg = load_config(path)
    except InputError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    if out is not None:
        cfg.out = Path(out)
    if seed is not None:
        cfg.seed = seed
    np.random.seed(cfg.seed)
    outdir = cfg.out
    outdir.mkdir(parents=True, exist_ok=True)
    if not cfg.tasks:
        return 0

    ctx = TaskContext(cfg)
    wall = {}
    failed = {}

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
        wall[task] = time.perf_counter() - t0
        log.info("task %s: %s (%.2fs)", task, status, wall[task])
        ctx.results[task] = summary

    done = set()
    remaining = list(cfg.tasks)
    while remaining:
        ready = [t for t in remaining if all(p in done for p in _PREREQS[t] if p in cfg.tasks)]
        if not ready:
            ready = remaining[:1]
        if threads > 1 and len(ready) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(execute, ready))
        else:
            for t in ready:
                execute(t)
        for t in ready:
            done.add(t)
            remaining.remove(t)
        # abort dependents of a failed prerequisite
        if failed:
            for t in list(remaining):
                bad = [p for p in _PREREQS[t] if p in failed]
                if bad:
                    _dump_json(outdir / f"{t}.json", {
                        "task": t, "status": "skipped",
                        "error": f"prerequisite failed: {', '.join(bad)}",
                    })
                    ctx.results[t] = {"status": "skipped"}
                    done.add(t)
                    remaining.remove(t)

    emit_report(outdir, wall_times=wall)
    return 3 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="wavekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the tasks of a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--threads", type=int, default=1)
    p_run.add_argument("--seed", type=int, default=None)
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
    return run_config(args.config, out=args.out, threads=args.threads, seed=args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
