"""Runs wavekit jobs in a fresh interpreter for run.py and prints one JSON line.

    worker.py SRC SPEC.json       run the jobs of SPEC, timed; traced if asked

SPEC holds {"jobs": [[name, config path, out dir], ...], "seconds": S,
"trace": bool, "setups": K, "spans": path}.  Untraced, the jobs run back to
back, as one pass, as often as passes fit in S seconds (at least one pass),
on the paced clock of pace.py, with SETUPS_PER_PASS set-ups (fresh_setup.py)
after each pass and at least K in all.  Traced, WARM_PASSES plain passes run
first and then one pass with the tracer installed, so the tracing overhead is
the traced pass minus the last, warm, plain pass.
"""

from __future__ import annotations

import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pace
import tracer as tracing

WARM_PASSES = 2
SETUPS_PER_PASS = 2
SETUP_SCRIPT = Path(__file__).resolve().parent / "fresh_setup.py"


def _import_cli(src: str):
    sys.path.insert(0, src)
    from wavekit import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"wavekit imported from {cli.__file__}, not from {src}")
    return cli


def _pace_tasks(cli, pacer, restore):
    """Mark the start and end of each CLI task, so that pacer.paced() splits by task."""
    for task, runner in list(cli._RUNNERS.items()):
        def paced(ctx, outdir, task=task, runner=runner):
            pacer.task = task
            pacer.mark(force=True)
            try:
                return runner(ctx, outdir)
            finally:
                pacer.task = None
                pacer.mark(force=True)
        cli._RUNNERS[task] = paced
        restore.append((cli._RUNNERS, task, runner))


def _task_statuses(out: Path, tasks):
    statuses = {}
    for task in tasks:
        try:
            statuses[task] = json.loads((out / f"{task}.json").read_text()).get("status")
        except (OSError, json.JSONDecodeError):
            statuses[task] = None
    return statuses


def _run_pass(cli, jobs, tasks_of, tracer=None, paced=False) -> dict:
    """All jobs once through cli.run_config: outcomes and wall time of each job;
    when paced, also the wall and paced seconds of each job and of its tasks."""
    run_s = 0.0
    outcomes = {}
    for name, config, out in jobs:
        out = Path(out)
        shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            tracer.start_job()
        pacer = restore = None
        if paced:
            pacer = pace.Pacer()
            restore = tracing.install_marks(pacer)
            _pace_tasks(cli, pacer, restore)
            pacer.mark(force=True)
        error = None
        t0 = time.perf_counter()
        try:
            rc = cli.run_config(config, out=str(out))
        except Exception as exc:  # a task error that escapes run_config fails the job
            rc, error = None, f"{type(exc).__name__}: {exc}"
        job_s = time.perf_counter() - t0
        if pacer is not None:
            pacer.mark(force=True)
            tracing.uninstall(restore)
        run_s += job_s
        outcomes[name] = {"rc": rc, "error": error, "run_s": job_s,
                          "pace": pacer.paced() if pacer is not None else None,
                          "statuses": _task_statuses(out, tasks_of[name])}
    return {"run_s": run_s, "jobs": outcomes}


def _setup_in_fresh_interpreter(src: str, configs) -> dict:
    """Wall and paced seconds of one set-up in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(SETUP_SCRIPT), src, *configs],
                          capture_output=True, text=True, check=True, timeout=60)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"wall_s": out["setup_s"], "kernel_s": out["kernel_s"],
            "paced_s": out["setup_s"] * pace.IMPORT_REFERENCE_S / out["kernel_s"]}


def _sections(out: Path) -> dict:
    """The task summaries the correctness checks read."""
    keep = {}
    for task in ("dispersion", "wave", "simulate"):
        path = out / f"{task}.json"
        if path.exists():
            doc = json.loads(path.read_text())
            doc.pop("curve", None)
            keep[task] = doc
    return keep


def _artifact_bytes(outs) -> int:
    return sum(p.stat().st_size for out in outs for p in Path(out).iterdir()
               if p.suffix in (".csv", ".svg"))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(src: str, spec: dict) -> dict:
    cli = _import_cli(src)
    jobs = spec["jobs"]
    configs = [config for _, config, _ in jobs]
    tasks_of = {name: cli.load_config(config).tasks for name, config, _ in jobs}

    passes, setups = [], []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        passes.append(_run_pass(cli, jobs, tasks_of, paced=not spec["trace"]))
        passes[-1]["peak_rss_mb"] = _peak_rss_mb()
        if spec["trace"]:
            if len(passes) == WARM_PASSES:
                break
            continue
        # fresh interpreters between the passes, so that their timings sample
        # the same stretch of time as the passes do
        setups += [_setup_in_fresh_interpreter(src, configs) for _ in range(SETUPS_PER_PASS)]
        # stop when another pass of the same length would overrun the budget
        now = time.perf_counter()
        if now + (now - t_pass) - t_start > spec["seconds"]:
            break
    while len(setups) < spec["setups"]:
        setups.append(_setup_in_fresh_interpreter(src, configs))
    result = {"passes": passes, "setups": setups}

    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = _run_pass(cli, jobs, tasks_of, tracer)
        finally:
            tracer.uninstall()
        result["traced_pass"] = traced
        result["trace"] = tracer.summary()
        result["trace"]["artifact_bytes"] = _artifact_bytes(out for _, _, out in jobs)
        tracer.write_spans(spec["spans"])

    result["peak_rss_mb"] = _peak_rss_mb()
    result["sections"] = {name: _sections(Path(out)) for name, _, out in jobs}
    return result


def main(argv) -> int:
    src, spec = argv
    print(json.dumps(run(src, json.loads(Path(spec).read_text()))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
