#!/usr/bin/env python3
"""lctkit benchmark: seeded closed-loop workloads against the public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fsm_ladder --seed 1 --seconds 30 --trace 0

A run repeats the seed's group of operations until the time is up.
Every latency is scaled to the host's undisturbed speed with a
reference sample taken right before and right after it (see
``reference.py``); the summary lines also give the figures as measured.
``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` wraps every layer in spans and reports per-layer metrics,
the tracing overhead, and whether the exact counts repeat in a second
process with the same seed.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Summary lines before it, and a JSON record under ``.perfbench_out/``,
give the label histogram, the tail percentile and its sample count.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import reference
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SCRATCH_DIR = os.path.join(ROOT, ".perfbench_tmp")

SETUP_REPS = 9
# The tail is a fixed percentile of the per-operation latencies of one
# pass (each the median over the run's passes).  It leaves at least ten
# operations beyond it: 13 of 50 pairs, and 20 of 203 units, where p95
# (10 beyond) spread 0.14 over five seeds.  The ladder has only six
# operations, so its p75 is the slower 32x4 style.
TAIL_PERCENTILE = {"fsm_ladder": 75, "unit_batch": 90, "equiv_pairs": 75}


def nearest_rank(sorted_values, percentile):
    index = max(0, math.ceil(percentile / 100 * len(sorted_values)) - 1)
    return sorted_values[index]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--count-probe", action="store_true",
                        help="internal: run the traced probe and print its "
                             "exact counts")
    return parser.parse_args(argv)


def setup(workload_name, seed, reps=SETUP_REPS):
    """Import lctkit, build group 0 and its expected answers.  Repeated
    ``reps`` times, each from a collected heap and between two reference
    samples; the median at the reference speed is setup_s and the last
    rep is kept."""
    times = []
    for _ in range(reps):
        gc.collect()
        before = reference.sample()
        started = time.perf_counter()
        lib = workloads.load_lib()
        wl = workloads.make(workload_name, lib, seed, SCRATCH_DIR)
        group0 = wl.group(0)
        raw = time.perf_counter() - started
        times.append(reference.scaled(raw, before, reference.sample()))
    return lib, wl, group0, statistics.median(times)


def measure(wl, group, seconds, tracer=None):
    """Run the same group again and again, each pass from a collected
    heap, until the next pass would end past ``seconds``.  Returns (op
    results, program seconds at the reference speed and as measured) per
    pass, and the tracer mark and completed-op count of the first
    pass."""
    passes, first_mark, first_completed = [], None, 0
    started = time.perf_counter()
    while True:
        gc.collect()
        passes.append(wl.run(group))
        if len(passes) == 1:
            first_completed = sum(not r.raised for r in passes[0][0])
            if tracer is not None:
                first_mark = tracer.mark()
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > seconds:
            break
    return passes, first_mark, first_completed


def op_latencies(passes, raw=False):
    """Each operation's median latency over the passes that completed it,
    at the reference speed, or as measured with ``raw``."""
    samples = {}
    for ops, *_walls in passes:
        for i, r in enumerate(ops):
            if not r.raised:
                samples.setdefault(i, []).append(
                    r.raw_seconds if raw else r.seconds)
    return sorted(statistics.median(v) for v in samples.values())


def end_to_end(workload, passes, setup_s):
    latencies = op_latencies(passes)
    raw_latencies = op_latencies(passes, raw=True)
    tail = TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(len(ops) / wall
                                        for ops, wall, _raw in passes),
                      "1/s"),
        "op_s_p50": (nearest_rank(latencies, 50), "s"),
        "op_s_tail": (nearest_rank(latencies, tail), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    notes = {
        "tail_percentile": tail,
        "latency_samples": len(latencies),
        "samples_beyond_tail":
            len(latencies) - math.ceil(tail / 100 * len(latencies)),
        "raw_ops_per_s": statistics.median(len(ops) / raw for ops, _w, raw
                                           in passes),
        "raw_op_s_p50": nearest_rank(raw_latencies, 50),
        "raw_op_s_tail": nearest_rank(raw_latencies, tail),
    }
    return metrics, notes


def probe_counts(workload, seed):
    """Child process: the traced probe alone, printing its exact counts."""
    _lib, wl, group0, _ = setup(workload, seed, reps=1)
    tr = tracing.Tracer(wl.lib)
    tr.install()
    try:
        wl.run(wl.probe(group0))
    finally:
        tr.uninstall()
    print(json.dumps(tr.counts()))
    return 0


def repeat_problems(args, counts):
    """Problems if a second process with the same seed, and another hash
    seed, does not reproduce the probe's exact counts."""
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed + 1))
    try:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--count-probe"],
            capture_output=True, text=True, env=env, timeout=120)
    except subprocess.TimeoutExpired:
        return ["count probe did not finish within 120 s"]
    if child.returncode != 0:
        return [f"count probe exited {child.returncode}: "
                f"{child.stderr.strip()[-300:]}"]
    if json.loads(child.stdout.strip().splitlines()[-1]) != counts:
        return ["exact counts differ between two processes with the same "
                "seed"]
    return []


def traced_run(args, wl, group0):
    """Per-layer metrics, tracing overhead, span self-check and the
    cross-process repeat of the exact counts."""
    probe = wl.probe(group0)
    tr = tracing.Tracer(wl.lib)

    def probe_wall():
        """The probe's program seconds at the reference speed."""
        gc.collect()
        return wl.run(probe)[1]

    # Untraced and traced probes alternate; the fastest of each pair of
    # runs is the least disturbed by other load on the machine.
    untraced, traced, repeats = [], [], []
    for _ in range(2):
        untraced.append(probe_wall())
        tr.clear()
        tr.install()
        try:
            traced.append(probe_wall())
        finally:
            tr.uninstall()
        repeats.append(json.loads(json.dumps(tr.counts())))
    untraced_s = min(untraced)
    overhead_s = min(traced) - untraced_s
    counts = repeats[0]
    problems = [] if repeats[1] == counts else [
        "exact counts differ between two probes in one process"]
    tr.clear()
    tr.install()
    try:
        passes, mark, first_completed = measure(
            wl, group0, args.seconds, tr)
    finally:
        tr.uninstall()

    problems += repeat_problems(args, counts)
    metrics = tracing.per_layer_metrics(
        tr, mark, sum(len(ops) for ops, *_w in passes), first_completed,
        sum(raw for _ops, _wall, raw in passes), wl.workers, overhead_s)
    # Span times are as measured; bring them to the reference speed with
    # the run's own ratio.
    scale = sum(wall for _o, wall, _r in passes) / \
        sum(raw for _o, _w, raw in passes)
    problems += tracing.self_check(args.workload, tr, metrics)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = tr.write(os.path.join(
        OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl.gz"))
    notes = {"passes": len(passes), "spans": spans,
             "probe_untraced_s": untraced_s, "probe_counts": counts}
    units = {name: unit for name, (unit, _b, _m) in tracing.PER_LAYER.items()}
    metrics = {k: (v * scale if units[k] == "s/op" else v, units[k])
               for k, v in metrics.items()}
    return passes, metrics, notes, problems


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "lctkit", "__init__.py")):
        print(f"perfbench: no lctkit sources at {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    if args.count_probe:
        return probe_counts(args.workload, args.seed)

    _lib, wl, group0, setup_s = setup(args.workload, args.seed)
    problems = []
    if args.trace:
        passes, metrics, notes, problems = traced_run(args, wl, group0)
    else:
        passes, _, _ = measure(wl, group0, args.seconds)
        metrics, notes = end_to_end(args.workload, passes, setup_s)
        notes["passes"] = len(passes)
    results = [r for ops, *_walls in passes for r in ops]
    defects = workloads.known_defects(wl.lib, args.workload)

    labels = Counter(r.label for r in results)
    failures = [r.detail for r in results if r.failed]
    attempted = len(results)
    failed = sum(r.failed for r in results)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops, {failed} failed (failed_ratio "
          f"{failed / attempted:.4g}), {notes['passes']} passes")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print("  " + ", ".join(f"{k}={v}" for k, v in notes.items()
                           if k != "probe_counts"))
    print("  labels: " + ", ".join(f"{k}={v}"
                                   for k, v in sorted(labels.items())))
    for detail in sorted(set(failures))[:10]:
        print(f"  failed: {detail}")
    for defect in defects:
        print(f"  known defect, outside the measured operations: {defect}")
    for problem in problems:
        print(f"  self-check: {problem}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "attempted": attempted, "failed": failed,
              "labels": dict(labels), "failures": failures,
              "problems": problems, "known_defects": defects,
              "notes": notes,
              "metrics": {k: v for k, (v, _u) in metrics.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-"
                           f"trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": not problems and not failed, "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
