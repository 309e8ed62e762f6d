"""Host-clock benchmark of the simulator, end to end and layer by layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Runs each named workload (default: all three, one after another) in a
fresh ``perfbench/workload.py`` process, so ``peak_rss_mb`` and
``setup_s`` belong to that run alone; never two at once, because
``async-dump-amr64`` alone peaks near 4 GB.  Prints every metric with its
unit and the workload's ``error_rate`` (failed / attempted cell
executions), then, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (``pass_s``,
``peak_rss_mb``, ``setup_s``); ``--trace 1`` the per-layer ones (see
``perfbench/layers.py``).  With ``--workload all`` the metric names are
prefixed by the workload.  Exits non-zero, printing no result, when a
workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "workload.py")
WORKLOADS = ("paper-mix", "weak-scale-p512", "async-dump-amr64")
#: A workload process is stopped after this long (the run must end in 180).
TIMEOUT_S = 170


def run_workload(name: str, args) -> dict:
    cmd = [sys.executable, WORKER, "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--started-at", repr(time.time())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=TIMEOUT_S, cwd=os.path.dirname(HERE))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {name} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed (0: the committed scenario seed)")
    p.add_argument("--seconds", type=float, default=19.0,
                   help="measure passes for about this long per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 1
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:<18} {metric:<34} {m['value']:>16.6f} {m['unit']}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            merged["metrics"][key] = m
        rate = res["failed"] / res["attempted"]
        print(f"{name:<18} {'error_rate':<34} {rate:>16.6f} ratio "
              f"({res['failed']}/{res['attempted']} cell runs failed)")
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
