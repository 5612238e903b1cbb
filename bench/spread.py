"""Run one workload on several seeds; print each metric's median and spread.

Usage, from the repository root:

    python3 bench/spread.py --workload verdict-map --seeds 1 2 3 4 5

The spread is the distance between the first and third quartile of the
runs' values, as a share of their median.  A metric is steady enough when
its spread stays below a third of its bound in BENCHMARK.json (set-up time
excepted, which is compared by median only).  Runs go one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import relative_spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            return 1
        line = json.loads(lines[-1])
        runs.append(line)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.6g}" for k, m in line["metrics"].items()), flush=True)

    steady = True
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        spread = relative_spread(values) if statistics.median(values) else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and name != "setup_s":
            ok = spread < bound / 3
            steady &= ok
            verdict = f" (bound {bound:g}: {'steady' if ok else 'TOO WIDE'})"
        print(f"{name:44s} median {statistics.median(values):.6g} spread {spread:.4f}{verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
