"""Seeded inputs, operations and answer checks for the three workloads.

Every workload is a closed loop: one caller submits an operation and
waits for its answer before it submits the next.  Inputs come in
groups (a ladder pass, a batch, a round of pairs); a run measures group
0 of its seed again and again, so the mix of sizes stays the same from
run to run and every operation has several samples.  Group ``i`` of
seed ``s`` is the same in every run.

Answers are checked against what the input was built to be, never
against another answer of the code under test.  The one exception is
the counterexample oracle, ``sim.symbolic_outputs``, which the
acceptance tests also use as the reference.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Optional

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")

# Labels that mean a transform or the comparison got a correct table wrong.
WRONG_LABELS = {"X FW", "X FW~S", "X INV"}


def load_lib() -> SimpleNamespace:
    """Import lctkit afresh, so that a set-up measurement includes the
    import and any work done at import time."""
    for name in [m for m in sys.modules
                 if m == "lctkit" or m.startswith("lctkit.")]:
        del sys.modules[name]
    import lctkit
    from lctkit import (analysis, codegen, equiv, extract, hdl, model,
                        roundtrip, sim, tableio)
    return SimpleNamespace(lctkit=lctkit, analysis=analysis,
                           codegen=codegen, equiv=equiv, extract=extract,
                           hdl=hdl, model=model, roundtrip=roundtrip,
                           sim=sim, tableio=tableio)


@dataclass
class OpResult:
    """One operation: its latency at the reference speed and as measured,
    whether it raised, whether its answer was wrong, and the label or
    verdict it produced."""
    seconds: float
    raw_seconds: float
    label: str
    raised: bool = False
    wrong: bool = False
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.raised or self.wrong


def _raised(seconds: float, raw: float, error: BaseException) -> OpResult:
    return OpResult(seconds, raw, f"error:{type(error).__name__}",
                    raised=True,
                    detail=f"{type(error).__name__}: {error}"[:300])


def run_sequential(ops, call, check):
    """Closed loop over ``ops``: ``call(op)`` is timed, with a reference
    sample before and after it, and ``check(op, value)`` gives the label
    and the problem (None when the answer is right).  Returns the
    results and the program seconds at the reference speed and as
    measured."""
    results = []
    before = reference.sample()
    for op in ops:
        started = time.perf_counter()
        try:
            value, error = call(op), None
        except Exception as e:  # noqa: BLE001 - one op must not abort
            value, error = None, e
        raw = time.perf_counter() - started
        after = reference.sample()
        seconds = reference.scaled(raw, before, after)
        before = after
        if error is not None:
            results.append(_raised(seconds, raw, error))
            continue
        label, problem = check(op, value)
        results.append(OpResult(seconds, raw, label,
                                wrong=problem is not None,
                                detail=problem or ""))
    return (results, sum(r.seconds for r in results),
            sum(r.raw_seconds for r in results))


# ---------------------------------------------------------------------------
# Table generators (the benchmark's own; the program only sees the tables)

def _const(m, width: int, value: int):
    return m.Constant(m.BitVector(width, value))


def disjoint_table(lib, rng: random.Random, name: str, clocked: bool):
    """A complete, non-overlapping 7-bit table with two constant outputs.
    Its shape is fixed so that every seed costs the same to compare:
    condition widths 1, 2 and 2 in a seeded order, then a 2-bit column
    that is X in 21 of the 32 prefixes (65 rows).  Every row is
    reachable, so the don't-cares can be expanded and any row mutated."""
    m = lib.model
    widths = rng.sample([1, 2, 2], 3) + [2]
    res_specs = [(f"r{i}", rng.randint(1, 4)) for i in range(2)]
    ports = [m.Port(m.Direction.INPUT, f"c{i}", w)
             for i, w in enumerate(widths)]
    ports += [m.Port(m.Direction.OUTPUT, n, w) for n, w in res_specs]

    def outputs():
        return tuple(_const(m, w, rng.randrange(1 << w))
                     for _, w in res_specs)

    prefixes = list(itertools.product(*(range(1 << w) for w in widths[:-1])))
    merged = set(rng.sample(range(len(prefixes)), 21))
    rows = []
    for i, prefix in enumerate(prefixes):
        cells = tuple(_const(m, w, v) for w, v in zip(widths, prefix))
        if i in merged:
            rows.append(m.CaseRow(cells + (m.DONT_CARE,), outputs()))
        else:
            rows.extend(m.CaseRow(cells + (_const(m, 2, v),), outputs())
                        for v in range(4))
    rng.shuffle(rows)
    return m.Lct(name=name,
                 clocking=m.Clocking.CLOCKED if clocked
                 else m.Clocking.COMBINATIONAL,
                 conditions=tuple(m.SignalHeader(f"c{i}")
                                  for i in range(len(widths))),
                 results=tuple(n for n, _ in res_specs), rows=tuple(rows),
                 ports=m.PortMap(tuple(ports)))


def _is_empty_row(m, inputs, outputs, res_specs) -> bool:
    """True when every condition cell is X and every output cell is X or
    holds its own register: codegen emits ``if (1'b1) begin end``."""
    return (all(isinstance(c, m.DontCare) for c in inputs)
            and all(isinstance(c, m.DontCare)
                    or (isinstance(c, m.SignalRef) and c.name == name)
                    for c, (name, _w) in zip(outputs, res_specs)))


def random_unit(lib, rng: random.Random, name: str, shape: int,
                max_bits: int = 8):
    """A random table of the kind a user writes: narrow condition
    columns, an optional expression column, don't-cares, pass-through
    data and hold cells.  It may be incomplete and rows may overlap.
    ``shape`` fixes the clocking and the numbers of condition columns,
    data inputs, results and rows, so that a batch of units numbered
    0..n-1 has the same mix of shapes, and about the same cost, for
    every seed; widths and cells stay random."""
    m = lib.model
    clocked = shape % 2 == 1
    n_cond = 1 + shape // 2 % 4
    widths = []
    for i in range(n_cond):
        room = max_bits - sum(widths) - (n_cond - i - 1)
        widths.append(rng.randint(1, min(3, room)))
    use_expr = sum(widths) < max_bits and rng.random() < 0.3

    ports = [m.Port(m.Direction.INPUT, f"c{i}", w)
             for i, w in enumerate(widths)]
    conditions = [m.SignalHeader(f"c{i}") for i in range(n_cond)]
    if use_expr:
        ports += [m.Port(m.Direction.INPUT, "ea", 1),
                  m.Port(m.Direction.INPUT, "eb", 1)]
        conditions.append(m.ExprHeader(rng.choice(
            ["ea & eb", "ea | eb", "ea ^ eb", "ea && !eb"])))
    data = [f"d{i}" for i in range(shape // 3 % 3)]
    ports += [m.Port(m.Direction.INPUT, d, 8) for d in data]
    res_specs = [(f"r{i}", 8 if rng.random() < 0.5 else rng.randint(1, 4))
                 for i in range(1 + shape % 3)]
    ports += [m.Port(m.Direction.OUTPUT, n, w) for n, w in res_specs]

    def input_cell(width):
        if rng.random() < 0.3:
            return m.DONT_CARE
        return _const(m, width, rng.randrange(1 << width))

    def output_cell(res, width):
        roll = rng.random()
        if clocked and roll < 0.15:
            return m.SignalRef(res)
        if width == 8 and data and roll < 0.35:
            return m.SignalRef(rng.choice(data))
        if roll < 0.45:
            return m.DONT_CARE
        return _const(m, width, rng.randrange(1 << width))

    cell_widths = widths + ([1] if use_expr else [])

    def row():
        # A row with no condition and no assignment is drawn again: it
        # triggers the known extraction defect (see known_defects) and
        # would fail on every run, whatever the program's speed.
        while True:
            inputs = tuple(input_cell(w) for w in cell_widths)
            outputs = tuple(output_cell(n, w) for n, w in res_specs)
            if not _is_empty_row(m, inputs, outputs, res_specs):
                return m.CaseRow(inputs, outputs)

    rows = tuple(row() for _ in range(1 + shape // 8 % 8))
    return m.Lct(name=name,
                 clocking=m.Clocking.CLOCKED if clocked
                 else m.Clocking.COMBINATIONAL,
                 conditions=tuple(conditions),
                 results=tuple(n for n, _ in res_specs), rows=rows,
                 ports=m.PortMap(tuple(ports)))


def sim_suite(lib, rng: random.Random, table, cycles: int = 256):
    """One trace of ``cycles`` random input vectors for a clocked table,
    or ``cycles`` independent vectors for a combinational one.  Inputs
    bound by feedback are left out so the trace closes the loop."""
    m = lib.model
    fed = {cond for _, cond in table.feedback}
    inputs = [p for p in table.ports.inputs() if p.name not in fed]
    vectors = [{p.name: m.BitVector(p.width, rng.randrange(1 << p.width))
                for p in inputs} for _ in range(cycles)]
    if table.clocking is m.Clocking.CLOCKED:
        return [vectors]
    return vectors


# ---------------------------------------------------------------------------
# Pair builders for equiv_pairs.  Each returns (b, expected) where
# expected is None for an equivalent pair, else (assignment, output name)
# of the first disagreement in enumeration order.

def _permute_rows(lib, rng, a):
    rows = list(a.rows)
    rng.shuffle(rows)
    return replace(a, rows=tuple(rows)), None


def _permute_columns(lib, rng, a):
    m = lib.model
    cond = list(range(len(a.conditions)))
    res = list(range(len(a.results)))
    rng.shuffle(cond)
    rng.shuffle(res)
    rows = tuple(m.CaseRow(tuple(r.inputs[i] for i in cond),
                           tuple(r.outputs[i] for i in res))
                 for r in a.rows)
    return replace(a, conditions=tuple(a.conditions[i] for i in cond),
                   results=tuple(a.results[i] for i in res),
                   rows=rows), None


def _duplicate_row(lib, rng, a):
    return replace(a, rows=a.rows + (rng.choice(a.rows),)), None


def _expand_dont_cares(lib, rng, a):
    m = lib.model
    widths = [a.condition_width(h) for h in a.conditions]
    rows = []
    for row in a.rows:
        choices = [range(1 << w) if isinstance(c, m.DontCare) else (c,)
                   for c, w in zip(row.inputs, widths)]
        for combo in itertools.product(*choices):
            cells = tuple(_const(m, w, v) if isinstance(v, int) else v
                          for v, w in zip(combo, widths))
            rows.append(m.CaseRow(cells, row.outputs))
    return replace(a, rows=tuple(rows)), None


def _late_mutation(lib, rng, a):
    """Change one constant output of the row that matches the latest
    assignment in enumeration order, so ``compare`` walks nearly the
    whole space before it finds the disagreement.  The table is
    non-overlapping, so the counterexample is that row's lowest
    assignment."""
    m = lib.model
    widths = [a.condition_width(h) for h in a.conditions]

    def highest(row):
        value = 0
        for cell, width in zip(row.inputs, widths):
            bits = (1 << width) - 1 if isinstance(cell, m.DontCare) \
                else cell.bv.value
            value = (value << width) | bits
        return value

    i = max(range(len(a.rows)), key=lambda i: highest(a.rows[i]))
    row = a.rows[i]
    j = rng.choice([j for j, c in enumerate(row.outputs)
                    if isinstance(c, m.Constant)])
    width = row.outputs[j].bv.width
    new = (row.outputs[j].bv.value + rng.randrange(1, 1 << width)) \
        % (1 << width)
    outputs = row.outputs[:j] + (_const(m, width, new),) + row.outputs[j + 1:]
    rows = a.rows[:i] + (m.CaseRow(row.inputs, outputs),) + a.rows[i + 1:]
    first = tuple(c.bv.value if isinstance(c, m.Constant) else 0
                  for c in row.inputs)
    return replace(a, rows=rows), (first, a.results[j])


PAIR_KINDS = (
    ("row_perm", _permute_rows),
    ("col_perm", _permute_columns),
    ("dup_row", _duplicate_row),
    ("dc_expand", _expand_dont_cares),
    ("mutation", _late_mutation),
)


# ---------------------------------------------------------------------------
# Workloads

class FsmLadder:
    """Deterministic round trips on a ladder of generated FSMs, one at a
    time.  Canonicalization and equivalence carry most of the time.  The
    rungs are small enough that a run repeats the ladder several times,
    so each rung's latency is the best of several passes.  The 128x3
    if-style rung raises RecursionError today, so it is left out of the
    measured ladder and reproduced by ``known_defects``."""

    name = "fsm_ladder"
    workers = 1
    # (states, conditions per state, HDL styles)
    RUNGS = ((8, 4, ("if", "case")), (16, 4, ("if", "case")),
             (32, 4, ("if", "case")))
    OUTPUTS = 8

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed

    def group(self, index: int) -> list:
        rng = random.Random(f"{self.name}/{self.seed}/{index}")
        ops = []
        for states, conds, styles in self.RUNGS:
            table = self.lib.analysis.generate_fsm(
                states, conds, self.OUTPUTS, seed=rng.randrange(1 << 30))
            ops.extend((table, style) for style in styles)
        return ops

    def probe(self, group: list) -> list:
        return group[:4]

    def run(self, group: list):
        rt = self.lib.roundtrip

        def call(op):
            table, style = op
            backend = rt.DeterministicBackend(style)
            return rt.run_roundtrip(table, backend, backend)

        def check(op, report):
            table, style = op
            label = report.outcome.label.value
            return label, None if label == "M" else \
                f"{table.name} {style}: expected M, got {label}"

        return run_sequential(group, call, check)


def _check_report(unit, report) -> Optional[str]:
    """None when the label is one a correct round trip may give and the
    persisted verdict record agrees with it."""
    label = report.outcome.label.value
    if report.unit != unit.name:
        return f"report for {report.unit}"
    if label in WRONG_LABELS:
        return f"label {label}"
    path = os.path.join(report.run_dir or "", "verdict.txt")
    try:
        with open(path, encoding="utf-8") as f:
            record = f.read().splitlines()
    except OSError as e:
        return f"no verdict record: {e}"
    if f"label={label}" not in record:
        return "verdict record disagrees with the report"
    return None


class UnitBatch:
    """``run_many`` with two workers over the three reference units and
    200 random units, each with a 256-cycle simulation suite, persisting
    every run directory.  Enumeration is small here, so prompts, codegen,
    parsing, extraction, serialization, simulation and persistence carry
    the time, and the two worker threads contend.  The units go to
    ``run_many`` eight at a time, so that a reference sample sits within
    about 0.1 s of every unit: one call over all 203 units lasts seconds,
    longer than many of the host's slow stretches."""

    name = "unit_batch"
    workers = 2
    BATCH = 8
    RANDOM_UNITS = 200
    FIXTURES = ("mux4", "regmux2", "fsm4")

    def __init__(self, lib, seed: int, scratch: str):
        self.lib = lib
        self.seed = seed
        self.scratch = scratch
        self.fixtures = [
            lib.tableio.load_unit(
                os.path.join(FIXTURES, f"{name}.manifest")).lct
            for name in self.FIXTURES]
        self.latency = {}
        self._run_roundtrip = None

    def group(self, index: int):
        rng = random.Random(f"{self.name}/{self.seed}/{index}")
        units = list(self.fixtures)
        units += [random_unit(self.lib, rng, f"rand_{index}_{i}", i)
                  for i in range(self.RANDOM_UNITS)]
        suites = {u.name: sim_suite(self.lib, rng, u) for u in units}
        return units, suites

    def probe(self, group):
        units, suites = group
        return units[:40], suites

    def _timed_roundtrip(self, unit, *args, **kwargs):
        started = time.perf_counter()
        try:
            return self._run_roundtrip(unit, *args, **kwargs)
        finally:
            self.latency[unit.name] = time.perf_counter() - started

    def run(self, group):
        """``run_many`` calls of ``BATCH`` units into one run directory,
        with a reference sample between calls.  Per-unit latency comes
        from a timer around ``roundtrip.run_roundtrip`` where ``run_many``
        calls it."""
        rt = self.lib.roundtrip
        units, suites = group
        backend = rt.DeterministicBackend()
        run_dir = tempfile.mkdtemp(prefix="batch-", dir=self.scratch)
        self.latency = {}
        self._run_roundtrip = rt.run_roundtrip
        rt.run_roundtrip = self._timed_roundtrip
        results, wall, raw_wall = [], 0.0, 0.0
        try:
            before = reference.sample()
            for first in range(0, len(units), self.BATCH):
                batch = units[first:first + self.BATCH]
                started = time.perf_counter()
                try:
                    reports = rt.run_many(batch, backend, backend, suites,
                                          run_dir=run_dir,
                                          workers=self.workers)
                    error = None
                except Exception as e:  # noqa: BLE001 - must not abort
                    reports, error = None, e
                raw = time.perf_counter() - started
                after = reference.sample()
                scale = reference.scaled(1.0, before, after)
                before = after
                wall += raw * scale
                raw_wall += raw
                results += self._results(batch, reports, error, raw, scale)
        finally:
            rt.run_roundtrip = self._run_roundtrip
            shutil.rmtree(run_dir, ignore_errors=True)
        return results, wall, raw_wall

    def _results(self, batch, reports, error, raw, scale):
        if error is not None:
            # run_many loses every report of the call when one unit raises.
            return [_raised(self.latency.get(u.name, raw) * scale,
                            self.latency.get(u.name, raw), error)
                    for u in batch]
        results = []
        for unit, report in zip(batch, reports):
            problem = _check_report(unit, report)
            label = f"{unit.clocking.value}:{report.outcome.label.value}"
            latency = self.latency[unit.name]
            results.append(OpResult(
                latency * scale, latency, label, wrong=problem is not None,
                detail=f"{unit.name}: {problem}" if problem else ""))
        return results


class EquivPairs:
    """Direct ``equiv.compare`` calls, as ``lct equiv`` makes them, on
    pairs built to a known verdict.  Permuted and duplicated pairs end at
    the textual check, don't-care expansions enumerate the whole space,
    and late mutations enumerate until their counterexample."""

    name = "equiv_pairs"
    workers = 1
    DISJOINT_PER_ROUND = 8

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed

    def group(self, index: int) -> list:
        rng = random.Random(f"{self.name}/{self.seed}/{index}")
        sources = [disjoint_table(self.lib, rng, f"disjoint_{index}_{i}",
                                  clocked=i % 2 == 1)
                   for i in range(self.DISJOINT_PER_ROUND)]
        sources += [self.lib.analysis.generate_fsm(
            states, 4, 4, seed=rng.randrange(1 << 30))
            for states in (16, 32)]
        ops = []
        for a in sources:
            for kind, build in PAIR_KINDS:
                b, expected = build(self.lib, rng, a)
                ops.append((kind, a, b, expected))
        return ops

    def probe(self, group: list) -> list:
        return group[:len(PAIR_KINDS) * self.DISJOINT_PER_ROUND]

    def _check(self, a, b, result, expected) -> Optional[str]:
        """None when the verdict is what the pair was built to give."""
        if expected is None:
            if not result.verdict.equivalent:
                return f"expected equivalent, got {result.verdict.value}"
            return None
        if result.verdict.equivalent:
            return f"expected not-equivalent, got {result.verdict.value}"
        cx = result.counterexample
        assignment, output = expected
        if cx is None:
            return "no counterexample"
        got = tuple(cx.assignment.get(h.key) for h in a.conditions)
        if got != assignment or cx.output != output:
            return (f"counterexample at {got} on {cx.output}, expected "
                    f"{assignment} on {output}")
        sim = self.lib.sim
        col = a.results.index(output)
        va = sim.symbolic_outputs(a, assignment)[col]
        vb = sim.symbolic_outputs(b, assignment)[col]
        if va == vb or str(va) != cx.value_a or str(vb) != cx.value_b:
            return f"oracle does not confirm {cx}"
        return None

    def run(self, group: list):
        equiv = self.lib.equiv

        def call(op):
            _kind, a, b, _expected = op
            return equiv.compare(a, b)

        def check(op, result):
            kind, a, b, expected = op
            problem = self._check(a, b, result, expected)
            return f"{kind}:{result.verdict.value}", \
                problem and f"{a.name} {kind}: {problem}"

        return run_sequential(group, call, check)


def known_defects(lib, workload: str) -> list:
    """Run, once and outside the measurement, the inputs of a workload
    that fail today for a known reason; return a line for each failure
    that still shows.  They are kept out of the measured operations so
    that every run attempts only operations that can succeed."""
    m, rt = lib.model, lib.roundtrip
    found = []
    if workload == "fsm_ladder":
        table = lib.analysis.generate_fsm(128, 3, FsmLadder.OUTPUTS, seed=1)
        backend = rt.DeterministicBackend("if")
        try:
            rt.run_roundtrip(table, backend, backend)
        except RecursionError:
            found.append("FSM 128x3 in the if style raises RecursionError "
                         "in the HDL parser")
    elif workload == "unit_batch":
        # Row 0 matches everything and only holds r0, so the table always
        # holds; extraction drops that row and lets row 1 through.
        table = m.Lct(
            name="all_x_hold", clocking=m.Clocking.CLOCKED,
            conditions=(m.SignalHeader("c0"),), results=("r0",),
            rows=(m.CaseRow((m.DONT_CARE,), (m.SignalRef("r0"),)),
                  m.CaseRow((_const(m, 1, 1),), (_const(m, 2, 3),))),
            ports=m.PortMap((m.Port(m.Direction.INPUT, "c0", 1),
                             m.Port(m.Direction.OUTPUT, "r0", 2))))
        label = rt.run_roundtrip(table, rt.DeterministicBackend(),
                                 rt.DeterministicBackend()
                                 ).outcome.label.value
        if label in WRONG_LABELS:
            found.append(f"a clocked row of all-X conditions that only "
                         f"holds extracts wrong: label {label}")
    return found


NAMES = ("fsm_ladder", "unit_batch", "equiv_pairs")


def make(name: str, lib, seed: int, scratch: str):
    if name == "fsm_ladder":
        return FsmLadder(lib, seed)
    if name == "unit_batch":
        return UnitBatch(lib, seed, scratch)
    if name == "equiv_pairs":
        return EquivPairs(lib, seed)
    raise ValueError(f"unknown workload {name!r}")
