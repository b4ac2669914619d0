"""Re-measure the reference rows of the project roadmap in the benchmark's process setup.

    python3 perfbench/baseline.py

Rows: one family member ``build_Q`` at ``(n, L, I)`` = (3, 5, (1,)),
(3, 5, (1, 2)) and (4, 4, (1, 2)), and the whole ``spectrum`` command at
(3, 4) and (4, 3).  Each row is timed ``REPEATS`` times in one process with
the environment ``run.py`` gives its workload process; the table shows the
median and the range of wall time, and the median CPU time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import statistics
import subprocess
import sys
import time

from child import PHIS
from run import HERE, ROOT, child_env

#: timings of each row, in one process
REPEATS = 3


def measure() -> list:
    from qlab import cli
    from qlab.transfer import TwistConfig, build_Q

    def spectrum(n, length):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["spectrum", "--n", str(n), "--L", str(length)])

    rows = [("build_Q n=3 L=5 I=(1,)", lambda: build_Q(3, 5, (1,), TwistConfig(PHIS[3]))),
            ("build_Q n=3 L=5 I=(1,2)", lambda: build_Q(3, 5, (1, 2), TwistConfig(PHIS[3]))),
            ("build_Q n=4 L=4 I=(1,2)", lambda: build_Q(4, 4, (1, 2), TwistConfig(PHIS[4]))),
            ("qlab spectrum --n 3 --L 4", lambda: spectrum(3, 4)),
            ("qlab spectrum --n 4 --L 3", lambda: spectrum(4, 3))]
    out = []
    for label, fn in rows:
        wall, cpu = [], []
        for _ in range(REPEATS):
            gc.collect()
            c0, t0 = time.process_time(), time.perf_counter()
            fn()
            wall.append(time.perf_counter() - t0)
            cpu.append(time.process_time() - c0)
        out.append({"row": label, "wall_s": wall, "cpu_s": cpu})
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inner", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.inner:
        print(json.dumps(measure()))
        return 0
    proc = subprocess.run([sys.executable, __file__, "--inner"], env=child_env(),
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    rows = json.loads(proc.stdout.strip().splitlines()[-1])
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "baseline.json").write_text(json.dumps(rows, indent=1) + "\n")
    print("| row | wall median | wall range | cpu median |")
    print("|---|---|---|---|")
    for r in rows:
        print("| `%s` | %.2f s | %.2f–%.2f s | %.2f s |" % (
            r["row"], statistics.median(r["wall_s"]), min(r["wall_s"]),
            max(r["wall_s"]), statistics.median(r["cpu_s"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
