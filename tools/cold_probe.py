#!/usr/bin/env python3
"""``equiv.compare`` on reused tables and on fresh copies: checked, timed.

Usage, from the root of a checkout:

    python3 tools/cold_probe.py --seed 103 --passes 12 [--summary FILE]

It measures the lctkit sources of its own checkout.  It builds group 0
of the ``equiv_pairs`` benchmark workload at the seed through
``perfbench/workloads.py`` and compares each pair in two cases.
Reused: the group's own tables, after one warm pass, so every form a
table keeps is already built, as in the benchmark's measured passes.
Fresh: ``dataclasses.replace`` copies of both tables, made outside the
timed call, so each compare builds every form it reads, as ``lct equiv``
does on tables it has just loaded.  Each case runs ``--passes`` times,
and each verdict is checked with the workload's own answer check; a
wrong verdict exits 1.  Per pair kind and over the group, the least
milliseconds per compare of any pass are printed, and appended to
``--summary`` as a markdown table, as reported figures: nothing is
gated on them.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402


def timed_pass(workload, group, fresh: bool) -> list:
    """(kind, seconds) of each compare of one pass; raises SystemExit on
    a wrong verdict."""
    compare = workload.lib.equiv.compare
    times = []
    gc.collect()
    for kind, a, b, expected in group:
        if fresh:
            a, b = dataclasses.replace(a), dataclasses.replace(b)
        started = time.perf_counter()
        result = compare(a, b)
        seconds = time.perf_counter() - started
        problem = workload._check(a, b, result, expected)
        if problem:
            sys.exit(f"{a.name} {kind}: {problem}")
        times.append((kind, seconds))
    return times


def least_ms(passes: list, kinds) -> float:
    """The least, over the passes, of the mean ms per compare of
    ``kinds``."""
    means = []
    for times in passes:
        chosen = [seconds for kind, seconds in times if kind in kinds]
        means.append(1000 * sum(chosen) / len(chosen))
    return min(means)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=103)
    parser.add_argument("--passes", type=int, default=12)
    parser.add_argument("--summary", help="a markdown file to append to")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    workload = workloads.EquivPairs(workloads.load_lib(), args.seed)
    group = workload.group(0)
    kinds = [kind for kind, _ in workloads.PAIR_KINDS]
    timed_pass(workload, group, fresh=False)  # warm: every kept form built
    reused = [timed_pass(workload, group, fresh=False)
              for _ in range(args.passes)]
    fresh = [timed_pass(workload, group, fresh=True)
             for _ in range(args.passes)]
    lines = ["| pair kind | compares | reused ms | fresh ms |",
             "|---|---|---|---|"]
    for name, chosen in [(kind, {kind}) for kind in kinds] + \
            [("all", set(kinds))]:
        count = sum(kind in chosen for kind, *_ in group)
        lines.append(f"| {name} | {count} | {least_ms(reused, chosen):.3f} "
                     f"| {least_ms(fresh, chosen):.3f} |")
    print("\n".join(lines))
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as f:
            f.write(f"equiv.compare on equiv_pairs group 0, seed {args.seed}: "
                    f"least ms per compare of {args.passes} passes "
                    "(verdicts gated, times reported)\n\n"
                    + "\n".join(lines) + "\n\n")


if __name__ == "__main__":
    main()
