"""wavekit benchmark: the c* -> wave -> Cauchy chain through the public CLI entry.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a wavekit checkout; wavekit is imported from its src/.
Every job of the workload goes through `wavekit.cli.run_config` in one worker
process (OpenBLAS, OpenMP and MKL pinned to one thread, the CLI's `--threads`
left at 1).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it name every
metric with its unit, the correctness checks with their measured accuracy,
and the environment.  Everything the run writes goes
to .perfbench_out/ in the checkout, including result.json with the full record.

--trace 0 reports the end-to-end metrics.  The jobs run as many passes as fit
in S seconds (at least one).  Timings are taken on the paced clock of pace.py:
wall time scaled by the machine's momentary speed, measured by a ~1 ms
calibration kernel that runs between the program's calls and is left out of
the program's time.  On a shared host the same code runs up to 1.6x slower
for minutes at a time, so plain wall times of two runs minutes apart differ
by more than the bounds; paced times do not.  Each timing is, for each job
(or each task of each job), the median over the passes, summed over the jobs
(and tasks); the plain wall times are printed beside them:
  run_s        all jobs through run_config, warm import
  cstar_s      validate + eigen + dispersion tasks: until c* is on disk
  wave_s       the wave task(s): the verified profile
  simulate_s   the simulate task: the Cauchy cross-check
  setup_s      fresh interpreter: import wavekit.cli + load_config of each
               job, paced by re-running a few standard modules in that
               interpreter right after; median over at least SETUP_REPEATS
               interpreters, started between the passes
  peak_rss_mb  peak resident memory of the worker that ran the jobs
--trace 1 runs two untraced passes and then one traced pass and reports the
per-layer metrics of tracer.PER_LAYER; the tracing overhead is the traced pass
minus the second untraced pass.  Spans go to .perfbench_out/.../spans.csv.

Operations are the CLI tasks of every pass plus the correctness checks.  The
kpp_readme workload also runs the README example config verbatim ("c": "5/2")
once through `python -m wavekit run`, outside the timed passes.  Its outcome
is printed; a failure of it is counted in the printed ops_failed_frac but not
in the result line, whose workloads are chosen so that no operation fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import pace
import references
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_REPEATS = 10
WORKER_TIMEOUT_S = 150
END_TO_END = (("run_s", "s"), ("cstar_s", "s"), ("wave_s", "s"), ("simulate_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
# the CLI tasks each task timing sums
PASS_TASKS = {"cstar_s": ("validate", "eigen", "dispersion"), "wave_s": ("wave",),
              "simulate_s": ("simulate",)}
PASS_METRICS = ("run_s", *PASS_TASKS)
# One BLAS thread keeps the load to one core and the iteration counts exact.
# The allocator is left at its defaults, as users run the program.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **WORKER_ENV)
    env.pop("PYTHONPATH", None)
    return env


def _worker(*args, timeout=WORKER_TIMEOUT_S) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER), *map(str, args)], cwd=ROOT,
                          env=_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _blas_version(mod) -> str:
    try:
        return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(np),
        "openblas_scipy": _blas_version(scipy),
        "worker_env": WORKER_ENV,
        "worker_processes": 1,
        "cli_threads": 1,
    }


def verbatim_readme(jobs_dir: Path, out_dir: Path) -> dict:
    """The README example config, run as written through the CLI entry point."""
    config = jobs_dir / "readme_verbatim.json"
    config.write_text(json.dumps(workloads.README_JOB, indent=2))
    env = dict(_env(), PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "wavekit", "run", str(config), "--out",
                           str(out_dir)], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    report = out_dir / "report.json"
    statuses = {}
    if report.exists():
        sections = json.loads(report.read_text())["sections"]
        statuses = {task: doc.get("status") for task, doc in sections.items()}
    ok = proc.returncode == 0 and statuses and all(s == "ok" for s in statuses.values())
    tail = proc.stderr.strip().splitlines()
    return {"failed": not ok, "exit_code": proc.returncode, "seconds": elapsed,
            "report_written": report.exists(), "statuses": statuses,
            "error": tail[-1] if tail else ""}


def _task_ops(p: dict) -> tuple[int, int, list]:
    attempted = failed = 0
    problems = []
    for job, outcome in p["jobs"].items():
        for task, status in outcome["statuses"].items():
            attempted += 1
            if status != "ok":
                failed += 1
                problems.append(f"{job}.{task}: status {status}, exit {outcome['rc']}, "
                                f"{outcome['error'] or ''}")
    return attempted, failed, problems


def paced_times(passes: list, clock: str = "paced") -> dict:
    """run_s and the task timings on the paced (or wall) clock: for each job,
    and for each task of each job, the median over the passes, summed over the
    jobs (and tasks)."""
    jobs = passes[0]["jobs"]

    def over_passes(job, task=None):
        return statistics.median(
            p["jobs"][job]["pace"][f"{clock}_s"] if task is None
            else p["jobs"][job]["pace"][f"task_{clock}_s"].get(task, 0.0) for p in passes)

    values = {"run_s": sum(over_passes(job) for job in jobs)}
    for key, tasks in PASS_TASKS.items():
        values[key] = sum(over_passes(job, task) for job in jobs for task in tasks)
    return values


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "wavekit" / "cli.py").is_file():
        raise BenchError(f"no wavekit sources under {SRC}")
    work = ROOT / ".perfbench_out" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    jobs_dir = work / "jobs"
    jobs_dir.mkdir(parents=True)
    workload = workloads.build(name, seed)
    jobs = []
    for job, config in workload["jobs"].items():
        path = jobs_dir / f"{job}.json"
        path.write_text(json.dumps(config, indent=2))
        jobs.append([job, str(path), str(work / "out" / job)])

    refs = references.compute(name, workload)
    spec = {"jobs": jobs, "seconds": seconds, "trace": trace, "spans": str(work / "spans.csv"),
            "setups": 0 if trace else SETUP_REPEATS}
    (work / "spec.json").write_text(json.dumps(spec))
    res = _worker(SRC, work / "spec.json")
    verbatim = (verbatim_readme(jobs_dir, work / "out" / "readme_verbatim")
                if name == "kpp_readme" else None)

    results = checks.evaluate(name, res["sections"], refs)
    attempted, failed, problems = len(results), sum(not c["pass"] for c in results), []
    for p in res["passes"] + ([res["traced_pass"]] if trace else []):
        a, f, why = _task_ops(p)
        attempted, failed, problems = attempted + a, failed + f, problems + why

    passes, setups = res["passes"], res["setups"]
    if trace:
        traced_s = res["traced_pass"]["run_s"]
        metrics = tracer.per_layer_metrics(res["trace"], traced_s, passes[-1]["run_s"])
    else:
        values = paced_times(passes)
        values["setup_s"] = statistics.median(s["paced_s"] for s in setups)
        values["peak_rss_mb"] = res["peak_rss_mb"]
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "reason": workload["reason"], "factors": workload["factors"],
        "environment": environment(), "references": refs, "checks": results,
        "passes": passes, "setups": setups, "trace_summary": res.get("trace"),
        "verbatim_readme": verbatim, "problems": problems, "attempted": attempted,
        "failed": failed, "metrics": metrics, "work_dir": str(work.relative_to(ROOT)),
    }


def print_report(r: dict) -> None:
    print(f"workload {r['workload']} seed {r['seed']} trace {int(r['trace'])}: {r['reason']}")
    print("environment " + json.dumps(r["environment"], sort_keys=True))
    print(f"factors {json.dumps(r['factors'])}  references {json.dumps(r['references'])}")
    if not r["trace"]:
        wall = paced_times(r["passes"], clock="wall")
        wall["setup_s"] = statistics.median(s["wall_s"] for s in r["setups"])
    for key, m in r["metrics"].items():
        how = ""
        if key in PASS_METRICS and not r["trace"]:
            how = f" (paced, median of {len(r['passes'])} passes; wall {wall[key]:.4f} s)"
        elif key == "setup_s" and not r["trace"]:
            how = (f" (paced, median of {len(r['setups'])} fresh interpreters; "
                   f"wall {wall[key]:.4f} s)")
        print(f"  {key} = {m['value']!r} {m['unit']}{how}")
    if not r["trace"]:
        kernel_ms = [1e3 * job["pace"]["kernel_median_s"] for p in r["passes"]
                     for job in p["jobs"].values()]
        print(f"  calibration kernel, median per job and pass: "
              f"{' '.join(f'{k:.2f}' for k in kernel_ms)} ms (paced clock: "
              f"{1e3 * pace.REFERENCE_S:.2f} ms)")
    for c in r["checks"]:
        print(f"  check {c['check']}: {'PASS' if c['pass'] else 'FAIL'} "
              f"value={c['value']:.3e} limit={c['limit']:.3e}")
    for line in r["problems"]:
        print(f"  failed operation: {line}")
    attempted, failed = r["attempted"], r["failed"]
    v = r["verbatim_readme"]
    if v is not None:
        attempted += 1
        failed += v["failed"]
        state = "known failure" if v["failed"] else "passed"
        print(f"  verbatim README job (\"c\": \"5/2\"): {state}: exit {v['exit_code']} after "
              f"{v['seconds']:.1f} s, report.json written: {v['report_written']}, {v['error']}")
    print(f"  ops_failed_frac = {failed}/{attempted} = {failed / attempted:.4f}"
          + (" (the result line leaves out the verbatim README job)" if v is not None else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        r = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    (ROOT / r["work_dir"] / "result.json").write_text(json.dumps(r, indent=2, default=str))
    print_report(r)
    print(json.dumps({"correct": r["failed"] == 0, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": r["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
