"""Run every workload once and print all its metrics and figures.

    python3 perfbench/report.py --seed 0 --seconds 30

Each workload runs as its own ``perfbench/run.py`` process, one after
the other, so each has its own import time and peak memory.  Prints one
line per metric or figure: workload, name, value and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.workloads import FIGURE_UNITS, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args(argv)
    status = 0
    print(f"{'workload':12s} {'name':34s} {'value':>14s} unit")
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: run.py exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(os.path.join(ROOT, ".perfbench", "results",
                               f"{name}-seed{args.seed}-trace0.json"), encoding="utf-8") as fh:
            figures = json.load(fh)["figures"]
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows += [(k, v, FIGURE_UNITS[k.split(".")[0]])
                 for k, v in sorted(figures.items()) if k not in result["metrics"]]
        for key, value, unit in rows:
            print(f"{name:12s} {key:34s} {value:14.6g} {unit}")
        print(f"{name:12s} {'correct':34s} {str(result['correct']):>14s}")
        status = status or (0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
