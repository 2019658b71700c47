"""Self-test of the benchmark: run it as `python3 perfbench/selftest.py [WORKLOAD]`.

Checks that BENCHMARK.json names exactly the metrics run.py and tracer.py
report, and that two traced runs of one workload (default cell_periodic, the
quickest) give identical counters: every per-layer metric with unit count or
B.  Exits 1 on any difference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import tracer

HERE = Path(__file__).resolve().parent


def benchmark_names_match() -> list[str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if declared != list(run.END_TO_END):
        problems.append(f"end_to_end {declared} != run.END_TO_END {list(run.END_TO_END)}")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != list(tracer.PER_LAYER):
        problems.append("per_layer in BENCHMARK.json differs from tracer.PER_LAYER")
    return problems


def traced_counters(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "B")}


def main(argv) -> int:
    workload = argv[0] if argv else "cell_periodic"
    problems = benchmark_names_match()
    first, second = traced_counters(workload), traced_counters(workload)
    problems += [f"{k}: {first[k]} != {second.get(k)}" for k in first if first[k] != second.get(k)]
    for line in problems:
        print(f"FAIL {line}")
    if not problems:
        print(f"ok: BENCHMARK.json matches; {len(first)} counters of {workload} repeat exactly")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
