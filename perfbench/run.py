"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is used from ``src`` as it
stands; there is nothing to build.  With ``--trace 0`` the result carries the
end-to-end metrics (``setup_s``, ``wall_s``, ``peak_rss_mb``); with
``--trace 1`` it carries the per-layer metrics of a traced run instead.
Per-operation figures, and the spans of a traced run, go to
``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: import-only processes started to time set-up; the workload process adds one
SETUP_PROBES = 6

#: the whole run must end well inside three minutes
RUN_BUDGET_S = 170.0


def child_env() -> dict:
    """A fixed hash seed and one BLAS thread, set before numpy loads."""
    env = dict(os.environ)
    env.pop("QLAB_THREADS", None)
    env.update({
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONPATH": str(SRC),
    })
    return env


def spawn(args: list, timeout: float) -> dict:
    """Run ``child.py`` and return the JSON object on its last output line."""
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--spawned-at", repr(spawned_at)]
        + args, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=timeout, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qlab" / "cli.py").is_file():
        print("error: no package source at %s" % (SRC / "qlab"), file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(spawn(run_args + ["--probe"], 60.0)["setup_s"])
        detail = HERE / "results" / ("%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace))
        res = spawn(run_args + ["--detail", str(detail)],
                    deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        print("error: the run did not end within %.0f s" % RUN_BUDGET_S,
              file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print("error: benchmark process exited with %d" % exc.returncode,
              file=sys.stderr)
        return 1

    for op in res["ops"]:
        print("%-48s wall %8.4f s  cpu %8.4f s  failed %d/%d%s" % (
            op["op"], op["wall_s"], op["cpu_s"], op["failed"], op["attempted"],
            "  PROBLEMS: " + "; ".join(op["problems"]) if op["problems"] else ""))
    if args.trace:
        from layers import metric_units
        units = metric_units()
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in sorted(res["layers"].items())}
    else:
        setups.append(res["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
