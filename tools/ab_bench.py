#!/usr/bin/env python3
"""A/B comparison of the working tree against a parent commit on the benchmark.

    python3 tools/ab_bench.py --parent REF --workloads seismic-full-ed,random-split-build \\
        --seeds 11-20 --pairs 10 [--workdir .ab_bench] [--log FILE]

Run from the repository root. The parent side is `git archive REF` exported
into WORKDIR/parent-src; the change side is the working tree as it is,
uncommitted edits included. Each side runs `odybench/run.py --trace 0` for
BENCHMARK.json's run_seconds, with its own CARGO_TARGET_DIR
(WORKDIR/parent-build, WORKDIR/change-build), so the two builds never share
classes.

Pair i uses seed seeds[i % len(seeds)] on every workload; even pairs run the
parent first, odd pairs the change first. Every run's result object is
written to the log (one JSON object per line, default WORKDIR/runs.jsonl),
which each invocation starts afresh, and the summary covers this
invocation's runs only. A pair in which either side exited with an error or
failed its correctness gate is counted as failed and left out of the
medians.

For each workload and end-to-end metric of BENCHMARK.json, the summary
prints both sides' median and quartile spread (the distance between the
first and third quartile as a share of the median, as odybench/stats.py
computes it), the change's wins out of the pairs (ties count for neither
side) and a verdict:

  gain        the change wins at least 9/10 of the pairs and the medians
              differ, in its favour, by more than the parent's quartile distance
  worse       the change's median is worse than the parent's by more than the bound
  unresolved  the parent's quartile spread exceeds the bound, and not every
              change run beats every parent run
  within      none of the above: no worse than the bound allows
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "odybench"))

from stats import median, quartile_spread  # noqa: E402

SIDES = ("parent", "change")
WIN_SHARE = 0.9


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def export_parent(ref, dest):
    """Write the tree of `ref` to `dest`; returns the resolved commit."""
    commit = subprocess.run(["git", "rev-parse", "--verify", ref + "^{commit}"], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit("git archive %s failed" % commit)
    return commit


def run_side(src, build, workload, seed, seconds, errlog):
    """run.py's result object, or None when it exited with an error."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(build))
    with open(errlog, "a") as err:
        proc = subprocess.run([sys.executable, "odybench/run.py", "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"],
                              cwd=src, env=env, stdout=subprocess.PIPE, stderr=err, text=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def verdict(par, chg, better, bound):
    """(wins, verdict) of the change against the parent for one metric."""
    sign = 1 if better == "lower" else -1  # sign * (change - parent) < 0 means the change is better
    wins = sum(1 for p, c in zip(par, chg) if sign * (c - p) < 0)
    mp, mc = median(par), median(chg)
    spread = quartile_spread(par)
    if wins >= WIN_SHARE * len(par) and sign * (mc - mp) < 0 and abs(mc - mp) > spread * abs(mp):
        return wins, "gain"
    if bound is not None and sign * (mc - mp) > bound * abs(mp):
        return wins, "worse"
    dominates = max(chg) < min(par) if better == "lower" else min(chg) > max(par)
    if bound is not None and spread > bound and not dominates:
        return wins, "unresolved"
    return wins, "within"


def report(records, bench):
    """Summary of one invocation's records (see the module docstring)."""
    for wl in dict.fromkeys(r["workload"] for r in records):
        runs = {}
        for r in records:
            if r["workload"] == wl:
                runs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        ok = [p for p, sides in sorted(runs.items())
              if all(sides.get(s) is not None and sides[s]["correct"] for s in SIDES)]
        print("\n%s: %d pairs, %d failed (a side errored or was incorrect), seeds %s" % (
            wl, len(ok), len(runs) - len(ok), sorted({r["seed"] for r in records if r["workload"] == wl})))
        if len(ok) < 2:
            continue
        for side in SIDES:
            res = [runs[p][side] for p in ok]
            print("  %-6s attempted %d, failed %d" % (
                side, sum(r["attempted"] for r in res), sum(r["failed"] for r in res)))
        print("  %-18s %-24s %-24s %8s %6s  %s" % ("metric", "parent median (spread)", "change median (spread)",
                                                 "change", "wins", "verdict"))
        for m in bench["end_to_end"]:
            name = m["name"]
            par = [runs[p]["parent"]["metrics"][name]["value"] for p in ok]
            chg = [runs[p]["change"]["metrics"][name]["value"] for p in ok]
            wins, v = verdict(par, chg, m["better"], m.get("bound"))
            mp, mc = median(par), median(chg)

            def cell(xs, med):
                return "%.4g %s (%.3f)" % (med, m["unit"], quartile_spread(xs))
            change = "%+.1f%%" % (100 * (mc - mp) / mp) if mp else "n/a"
            print("  %-18s %-24s %-24s %8s %6s  %s (bound %s)" % (name, cell(par, mp), cell(chg, mc), change,
                                                                  "%d/%d" % (wins, len(ok)), v, m.get("bound")))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="git ref of the parent side")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", required=True, help="e.g. 11-20 or 1,3,5")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--workdir", default=".ab_bench", help="exports, builds and logs (default .ab_bench)")
    ap.add_argument("--log", help="JSON-lines log of this invocation's runs (default WORKDIR/runs.jsonl)")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = Path(args.workdir).resolve()
    work.mkdir(parents=True, exist_ok=True)
    log = Path(args.log).resolve() if args.log else work / "runs.jsonl"
    log.write_text("")
    commit = export_parent(args.parent, work / "parent-src")
    print("parent %s exported to %s; change = working tree %s" % (commit, work / "parent-src", ROOT), flush=True)
    srcs = {"parent": work / "parent-src", "change": ROOT}
    seeds = parse_seeds(args.seeds)
    records = []
    for pair in range(args.pairs):
        seed = seeds[pair % len(seeds)]
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for wl in args.workloads.split(","):
            for side in order:
                errlog = work / (side + ".stderr.log")
                res = run_side(srcs[side], work / (side + "-build"), wl, seed, bench["run_seconds"], errlog)
                rec = {"pair": pair, "workload": wl, "seed": seed, "side": side, "parent_commit": commit,
                       "first": side == order[0], "result": res}
                records.append(rec)
                with open(log, "a") as f:
                    f.write(json.dumps(rec) + "\n")
                if res is None:
                    print("pair %d %s seed %d %-6s run.py exited with an error (see %s)" % (
                        pair, wl, seed, side, errlog), flush=True)
                    continue
                vals = " ".join("%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items())
                print("pair %d %s seed %d %-6s correct=%s failed=%d %s" % (
                    pair, wl, seed, side, res["correct"], res["failed"], vals), flush=True)
    report(records, bench)


if __name__ == "__main__":
    main()
