"""Time a fresh interpreter's set-up: `import wavekit.cli` plus load_config of each job.

    python3 perfbench/fresh_setup.py SRC CONFIG...

Prints {"setup_s": seconds, "kernel_s": seconds} as one JSON line.  Nothing is
imported before the clock starts but the standard library this script needs.
kernel_s is the median duration of pace.import_kernel_s, run in this process
right after the set-up, so the set-up can be paced by the speed of module
loading at that moment.
"""

import json
import sys
import time
from pathlib import Path

KERNEL_REPEATS = 9


def main(argv) -> int:
    src, configs = argv[0], argv[1:]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from wavekit import cli

    for path in configs:
        cli.load_config(path)
    setup_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"wavekit imported from {cli.__file__}, not from {src}")
    import statistics

    import pace

    kernel_s = statistics.median(pace.import_kernel_s() for _ in range(KERNEL_REPEATS))
    print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
