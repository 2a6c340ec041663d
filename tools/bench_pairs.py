#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, written to BENCH_<n>.json.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload fsm_ladder --seed 103 --pairs 10 --seconds 10 \\
        --out BENCH_11.json

Each side runs from a fresh copy of its checkout's tracked files, as
they stand in the working tree, and both copies sit under one temporary
parent directory: the run directories that ``perfbench`` writes under
``.perfbench_tmp/`` are then on the same file system and equally new for
both sides, whatever the checkouts' own directories are.  Each pair
runs ``perfbench/run.py --trace 0`` once on each side, the parent first
in odd pairs and the change first in even ones, so that a drift of the
host's speed falls on both sides alike.  Then each side runs once with
``--trace 1``.  The file keeps, per workload, seed and
side, the median and quartiles of every end-to-end metric over the
pairs, the pairs the change won on each metric, and every per-layer
figure of the traced run, and the commit of each checkout, marked dirty
when the checkout has uncommitted changes to tracked files.  Beside the
end-to-end metrics, which are scaled to the speed of perfbench's
reference loop, it keeps the same figures as measured (``raw_*``), read
from each untraced run's record under ``.perfbench_out/``: lctkit's
allocation pattern can move the reference loop, so a scaled figure can
move a few percent while lctkit's own time does not.  Running the
command again for another workload or seed adds to the file; the same
workload and seed are replaced.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")
# The unscaled figures of an untraced run, from its record's notes.
RAW = {"raw_ops_per_s": "1/s", "raw_op_s_p50": "s", "raw_op_s_tail": "s"}
HIGHER = ("ops_per_s", "raw_ops_per_s")  # every other metric: lower wins


def run(checkout, workload, seed, seconds, trace):
    """The metrics of one benchmark run in ``checkout``; an untraced
    run's also hold its ``RAW`` figures."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{checkout}: {workload} run is not correct")
    metrics = result["metrics"]
    if not trace:
        record = os.path.join(checkout, ".perfbench_out",
                              f"{workload}-{seed}-trace0.json")
        with open(record, encoding="utf-8") as f:
            notes = json.load(f)["notes"]
        metrics.update({name: {"value": notes[name], "unit": unit}
                        for name, unit in RAW.items()})
    return metrics


def copy_tracked(checkout, dest):
    """Copy the files git tracks in ``checkout``, as they stand in its
    working tree, to the new directory ``dest``; return ``dest``."""
    names = subprocess.run(["git", "-C", checkout, "ls-files", "-z"],
                           check=True, capture_output=True,
                           text=True).stdout.split("\0")
    for name in filter(None, names):
        source = os.path.join(checkout, name)
        if not os.path.isfile(source):  # deleted in the working tree
            continue
        target = os.path.join(dest, name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(source, target)
    return dest


def checkout_state(checkout):
    """The commit a checkout is at, with ``"dirty": true`` when its
    tracked files differ from that commit: then the commit is not what
    was measured."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    state = {"sha": git("rev-parse", "HEAD")}
    if git("status", "--porcelain", "--untracked-files=no"):
        state["dirty"] = True
    return state


def summary(values):
    # ``quantiles`` needs two runs; one run is its own quartiles.
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def measure(args, copies, states):
    """The entry of one workload and seed, from runs in ``copies``."""
    runs = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run(copies[side], args.workload, args.seed,
                                  args.seconds, 0))
        print(f"{args.workload} pair {pair + 1}/{args.pairs}: " + ", ".join(
            f"{side} {runs[side][-1]['ops_per_s']['value']:.1f} ops/s"
            for side in SIDES), file=sys.stderr)

    entry = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "pairs": args.pairs,
             "checkouts": states,
             "end_to_end": {}, "change_wins": {}, "traced": {}}
    for name, metric in runs["parent"][0].items():
        higher = name in HIGHER
        by_side = {side: [r[name]["value"] for r in runs[side]]
                   for side in SIDES}
        entry["end_to_end"][name] = {
            "unit": metric["unit"],
            **{side: summary(by_side[side]) for side in SIDES}}
        entry["change_wins"][name] = sum(
            (c > p) if higher else (c < p)
            for p, c in zip(by_side["parent"], by_side["change"]))
    for side in SIDES:
        traced = run(copies[side], args.workload, args.seed,
                     args.seconds, 1)
        entry["traced"][side] = {name: m["value"]
                                 for name, m in traced.items()
                                 if name not in entry["end_to_end"]}
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}

    states = {side: checkout_state(checkouts[side]) for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as scratch:
        copies = {side: copy_tracked(checkouts[side],
                                     os.path.join(scratch, side))
                  for side in SIDES}
        entry = measure(args, copies, states)

    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as f:
            doc = json.load(f)
    doc["command"] = ("python3 perfbench/run.py --workload <w> --seed <s> "
                      "--seconds <t> --trace <0|1>")
    doc.pop("sha", None)  # each entry names the checkouts it measured
    doc["workloads"] = [w for w in doc.get("workloads", [])
                        if (w["workload"], w["seed"])
                        != (args.workload, args.seed)] + [entry]
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
