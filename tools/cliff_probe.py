#!/usr/bin/env python3
"""Round trips at the enumeration cliff: checked for correctness, timed.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tools/cliff_probe.py [--summary FILE]

Round-trips ``generate_fsm(16, c, 4)`` at 17 and 19 control bits in the
``if`` and ``case`` styles, once with an inverse that drops the last row
and once without.  A faulted run must be labelled ``X INV``, with a
counterexample at which ``sim.symbolic_outputs`` of the unit and of its
reconstruction give the two values it reports; an unfaulted run must be
``M``.  Each row runs three times and every run is checked; any other
result exits 1.  The least seconds of a row's three round trips, which
damps the host's swings, are printed, and appended to ``--summary`` as a
markdown table, as reported figures: nothing is gated on them.
"""

from __future__ import annotations

import argparse
import sys
import time

from lctkit import analysis, equiv, sim, tableio
from lctkit import roundtrip as rt
from lctkit.model import TransformDirection

STATES, OUTPUTS = 16, 4
CONTROL_BITS = (17, 19)  # rst_n, a 4-bit state, then one bit per condition
STYLES = ("if", "case")
RUNS = 3  # round trips per row; the row reports the least seconds


class Recording:
    """A backend that keeps the text of its last inverse response."""

    def __init__(self, inner):
        self.inner, self.name, self.text = inner, inner.name, None

    def complete(self, request):
        response = self.inner.complete(request)
        if request.direction is TransformDirection.INVERSE:
            self.text = response.text
        return response


def confirmed(unit, text, counterexample) -> bool:
    """Whether the oracle gives both reported values at the point."""
    _, rebuilt = equiv.align(
        unit, tableio.parse_unit_doc(rt.extract_code_block(text)))
    assignment = tuple(counterexample.assignment[key]
                       for key, _ in sim.control_columns(unit))
    index = unit.results.index(counterexample.output)
    return (str(sim.symbolic_outputs(unit, assignment)[index]),
            str(sim.symbolic_outputs(rebuilt, assignment)[index])) == \
        (counterexample.value_a, counterexample.value_b)


def probe(bits: int, style: str, faulted: bool):
    """(seconds, problem or None) of one round trip."""
    unit = analysis.generate_fsm(STATES, bits - 5, OUTPUTS, seed=1)
    assert sim.control_space_size(unit) == 1 << bits
    if faulted:
        inverse = Recording(rt.FaultInjectingBackend(
            rt.drop_row(len(unit.rows) - 1), TransformDirection.INVERSE,
            style, label="drop-last-row"))
    else:
        inverse = Recording(rt.DeterministicBackend(style))
    started = time.perf_counter()
    report = rt.run_roundtrip(unit, rt.DeterministicBackend(style), inverse)
    seconds = time.perf_counter() - started
    label = report.outcome.label
    if not faulted:
        return seconds, None if label is rt.Label.M else f"label {label.value}"
    if label is not rt.Label.X_INV:
        return seconds, f"label {label.value}"
    if report.counterexample is None:
        return seconds, "no counterexample"
    if not confirmed(unit, inverse.text, report.counterexample):
        return seconds, f"unconfirmed counterexample {report.counterexample}"
    return seconds, None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--summary", help="a markdown file to append to")
    args = parser.parse_args(argv)
    lines = ["| control bits | style | inverse | seconds | result |",
             "|---|---|---|---|---|"]
    problems = 0
    for bits in CONTROL_BITS:
        for style in STYLES:
            for faulted in (True, False):
                runs = [probe(bits, style, faulted) for _ in range(RUNS)]
                seconds = min(seconds for seconds, _ in runs)
                problem = next((p for _, p in runs if p), None)
                problems += problem is not None
                inverse = "drops last row" if faulted else "exact"
                result = problem or ("X INV, confirmed" if faulted else "M")
                line = f"| {bits} | {style} | {inverse} | {seconds:.2f} | " \
                    f"{result} |"
                print(line, flush=True)
                lines.append(line)
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as f:
            f.write("Enumeration cliff round trips (seconds reported, "
                    "not gated)\n\n" + "\n".join(lines) + "\n\n")
    if problems:
        sys.exit(f"{problems} cliff round trips were not correct")


if __name__ == "__main__":
    main()
