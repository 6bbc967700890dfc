#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 odybench/spread.py --workload NAME [--runs 10] [--first-seed 1] [--seconds S]

Runs the benchmark once per seed (first-seed, first-seed + 1, ...) and
prints, per metric, the median of the runs and the distance between their
first and third quartiles as a share of that median, next to the metric's
bound from BENCHMARK.json.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import median, quartile_spread  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                              "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                             stdout=subprocess.PIPE, text=True, check=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit("seed %d: incorrect result %s" % (seed, json.dumps(res)))
        for name, mv in res["metrics"].items():
            values.setdefault(name, []).append(mv["value"])
        print("seed %d: %s" % (seed, " ".join("%s=%.6g" % (k, v["value"]) for k, v in res["metrics"].items())),
              flush=True)
    for name, xs in values.items():
        spread = quartile_spread(xs) if len(xs) >= 2 and median(xs) else float("nan")
        print("%-32s median %-12.6g spread %6.3f  bound %s" % (name, median(xs), spread, bounds.get(name)))


if __name__ == "__main__":
    main()
