"""Shared test helpers: fixture loading, seeded random table generators,
a row-by-row reference for the checks that ``analysis`` and ``equiv``
compute from match-set bitsets, and a reference HDL tokenizer."""

from __future__ import annotations

import dataclasses
import itertools
import os
import random
import re

from lctkit.model import (
    BitVector,
    CaseRow,
    Clocking,
    Constant,
    DONT_CARE,
    DontCare,
    Direction,
    ExprHeader,
    Lct,
    Port,
    PortMap,
    SignalHeader,
    SignalRef,
)
from lctkit import analysis, equiv, sim, tableio
from lctkit.hdl import HdlError

TABLES_DIR = os.path.join(os.path.dirname(__file__), "tables")


def load_fixture(name: str) -> Lct:
    return tableio.load_unit(os.path.join(TABLES_DIR, f"{name}.manifest")).lct


def _const(width: int, value: int) -> Constant:
    return Constant(BitVector(width, value))


def random_lct(seed: int, clocked: bool = None,
               max_control_bits: int = 12) -> Lct:
    """A seeded random table: random condition widths, optional
    expression column, don't-cares, pass-through and hold cells.  May be
    incomplete and may contain overlapping rows."""
    rng = random.Random(seed)
    if clocked is None:
        clocked = rng.random() < 0.5

    n_cond = rng.randint(1, 4)
    widths = []
    remaining = max_control_bits
    for _ in range(n_cond):
        width = rng.randint(1, min(3, remaining - (n_cond - len(widths) - 1)))
        widths.append(width)
        remaining -= width
    use_expr = remaining >= 1 and rng.random() < 0.3

    ports = [Port(Direction.INPUT, f"c{i}", w) for i, w in enumerate(widths)]
    conditions = [SignalHeader(f"c{i}") for i in range(n_cond)]
    if use_expr:
        ports.append(Port(Direction.INPUT, "ea", 1))
        ports.append(Port(Direction.INPUT, "eb", 1))
        conditions.append(ExprHeader(rng.choice(
            ["ea & eb", "ea | eb", "ea ^ eb", "ea && !eb"])))
    n_data = rng.randint(0, 2)
    data_names = [f"d{i}" for i in range(n_data)]
    ports += [Port(Direction.INPUT, name, 8) for name in data_names]
    n_res = rng.randint(1, 3)
    res_specs = [(f"r{i}", 8 if rng.random() < 0.5 else rng.randint(1, 4))
                 for i in range(n_res)]
    ports += [Port(Direction.OUTPUT, name, w) for name, w in res_specs]

    def input_cell(width):
        if rng.random() < 0.3:
            return DONT_CARE
        return _const(width, rng.randrange(1 << width))

    def output_cell(name, width):
        roll = rng.random()
        if clocked and roll < 0.15:
            return SignalRef(name)  # hold
        if width == 8 and data_names and roll < 0.35:
            return SignalRef(rng.choice(data_names))
        if roll < 0.45:
            return DONT_CARE
        return _const(width, rng.randrange(1 << width))

    cell_widths = widths + ([1] if use_expr else [])
    rows = []
    for _ in range(rng.randint(1, 8)):
        inputs = tuple(input_cell(w) for w in cell_widths)
        outputs = tuple(output_cell(name, w) for name, w in res_specs)
        rows.append(CaseRow(inputs, outputs))

    return Lct(name=f"rand_{seed}",
               clocking=Clocking.CLOCKED if clocked
               else Clocking.COMBINATIONAL,
               conditions=tuple(conditions),
               results=tuple(name for name, _ in res_specs),
               rows=tuple(rows), ports=PortMap(tuple(ports)))


def random_disjoint_lct(seed: int, clocked: bool = False) -> Lct:
    """A seeded random table that is complete and non-overlapping: one
    row per control assignment, constant outputs only.  Canonical-form
    properties (permutation invariance, textual matching) rely on
    this shape."""
    rng = random.Random(seed)
    n_cond = rng.randint(1, 3)
    widths = [rng.randint(1, 2) for _ in range(n_cond)]
    ports = [Port(Direction.INPUT, f"c{i}", w) for i, w in enumerate(widths)]
    n_res = rng.randint(1, 2)
    res_specs = [(f"r{i}", rng.randint(1, 4)) for i in range(n_res)]
    ports += [Port(Direction.OUTPUT, name, w) for name, w in res_specs]

    assignments = [[]]
    for width in widths:
        assignments = [prefix + [v] for prefix in assignments
                       for v in range(1 << width)]
    rng.shuffle(assignments)
    rows = []
    for assignment in assignments:
        inputs = tuple(_const(w, v) for w, v in zip(widths, assignment))
        outputs = tuple(_const(w, rng.randrange(1 << w))
                        for _, w in res_specs)
        rows.append(CaseRow(inputs, outputs))

    return Lct(name=f"disjoint_{seed}",
               clocking=Clocking.CLOCKED if clocked
               else Clocking.COMBINATIONAL,
               conditions=tuple(SignalHeader(f"c{i}") for i in range(n_cond)),
               results=tuple(name for name, _ in res_specs),
               rows=tuple(rows), ports=PortMap(tuple(ports)))


def mutate_output(table: Lct, rng: random.Random):
    """Flip one constant output cell of a reachable row to a different
    value.  Returns (mutated table, row index, result name).  The table
    must have at least one reachable row with a constant output."""
    compiled = sim.compile_rows(table)
    claimed = set()
    for assignment in sim.enumerate_assignments(table):
        index = sim.first_match(compiled, assignment)
        if index is not None:
            claimed.add(index)
    candidates = [
        (i, j) for i in sorted(claimed)
        for j, cell in enumerate(table.rows[i].outputs)
        if isinstance(cell, Constant)]
    if not candidates:
        raise ValueError("no reachable constant output cell to mutate")
    row_idx, col_idx = rng.choice(candidates)
    cell = table.rows[row_idx].outputs[col_idx]
    width = cell.bv.width
    new_value = (cell.bv.value + rng.randrange(1, 1 << width)) % (1 << width)
    rows = list(table.rows)
    outputs = list(rows[row_idx].outputs)
    outputs[col_idx] = _const(width, new_value)
    rows[row_idx] = CaseRow(rows[row_idx].inputs, tuple(outputs),
                            label=rows[row_idx].label,
                            comment=rows[row_idx].comment)
    return (dataclasses.replace(table, rows=tuple(rows)),
            row_idx, table.results[col_idx])


def random_passthrough_lct(seed: int) -> Lct:
    """A ``random_lct`` with one more result, ``p``, as wide as the first
    condition column, whose cells mostly pass that condition signal
    through (``random_lct`` never does).  Its other cells are
    constants, don't-cares and, when clocked, holds."""
    table = random_lct(seed, max_control_bits=8)
    rng = random.Random(seed * 7 + 1)
    source = table.conditions[0].name
    width = table.condition_width(table.conditions[0])
    clocked = table.clocking is Clocking.CLOCKED

    def cell():
        roll = rng.random()
        if roll < 0.5:
            return SignalRef(source)
        if roll < 0.6:
            return DONT_CARE
        if clocked and roll < 0.75:
            return SignalRef("p")
        return _const(width, rng.randrange(1 << width))

    rows = tuple(CaseRow(row.inputs, row.outputs + (cell(),))
                 for row in table.rows)
    ports = PortMap(table.ports.entries
                    + (Port(Direction.OUTPUT, "p", width),))
    return dataclasses.replace(table, name=f"pass_{seed}",
                               results=table.results + ("p",), rows=rows,
                               ports=ports)


# ---------------------------------------------------------------------------
# Row-by-row reference: one sim.first_match or sim.row_matches scan per
# control assignment, and sim.symbolic_outputs for every comparison.

def _matching(compiled, assignment):
    return [i for i, constraints in enumerate(compiled)
            if sim.row_matches(constraints, assignment)]


def reference_shadowed(table: Lct) -> list:
    compiled = sim.compile_rows(table)
    claimed = set()
    for assignment in sim.enumerate_assignments(table):
        index = sim.first_match(compiled, assignment)
        if index is not None:
            claimed.add(index)
    return [i for i in range(len(table.rows)) if i not in claimed]


def reference_uncovered(table: Lct) -> list:
    compiled = sim.compile_rows(table)
    return [sim.assignment_dict(table, assignment)
            for assignment in sim.enumerate_assignments(table)
            if sim.first_match(compiled, assignment) is None]


def reference_conflicts(table: Lct) -> list:
    """(i, j, witness) per overlapping row pair with differing symbolic
    outputs, at the first assignment where both match."""
    compiled = sim.compile_rows(table)
    conflicts = []
    seen = set()
    for assignment in sim.enumerate_assignments(table):
        matching = _matching(compiled, assignment)
        for a, b in itertools.combinations(matching, 2):
            outs = [tuple(sim.resolve_cell(table, name, cell)
                          for name, cell in zip(table.results,
                                                table.rows[i].outputs))
                    for i in (a, b)]
            if (a, b) not in seen and outs[0] != outs[1]:
                seen.add((a, b))
                conflicts.append(
                    (a, b, sim.assignment_dict(table, assignment)))
    return conflicts


def _all_hold(table: Lct, row: CaseRow) -> bool:
    return all(isinstance(cell, SignalRef) and cell.name == name
               for name, cell in zip(table.results, row.outputs))


def reference_droppable_hold_rows(table: Lct) -> set:
    """Pure-hold rows that no later row overlaps where they match
    first."""
    compiled = sim.compile_rows(table)
    blocked = set()
    for assignment in sim.enumerate_assignments(table):
        matching = _matching(compiled, assignment)
        if len(matching) > 1:
            blocked.add(matching[0])
    return {i for i, row in enumerate(table.rows)
            if _all_hold(table, row)} - blocked


def _cell_sort_key(cell):
    if isinstance(cell, Constant):
        return (0, cell.bv.value, "")
    if isinstance(cell, DontCare):
        return (1, 0, "")
    return (2, 0, cell.name)


def hold_spelling(table: Lct) -> Lct:
    """A clocked table with its don't-care outputs written as holds, as
    canonicalization reads it; other tables unchanged."""
    if table.clocking is not Clocking.CLOCKED:
        return table
    return dataclasses.replace(table, rows=tuple(
        CaseRow(row.inputs,
                tuple(SignalRef(name) if isinstance(cell, DontCare) else cell
                      for name, cell in zip(table.results, row.outputs)))
        for row in table.rows))


def reference_canonicalize(table: Lct) -> Lct:
    """``analysis.canonicalize`` as three separate passes over the
    control space (the table must fit the default enumeration limit)."""
    table = hold_spelling(table)
    shadowed = set(reference_shadowed(table))
    table = dataclasses.replace(table, rows=tuple(
        row for i, row in enumerate(table.rows) if i not in shadowed))
    if table.clocking is Clocking.CLOCKED:
        droppable = reference_droppable_hold_rows(table)
        table = dataclasses.replace(table, rows=tuple(
            row for i, row in enumerate(table.rows) if i not in droppable))
    compiled = sim.compile_rows(table)
    sort_rows = all(len(_matching(compiled, assignment)) < 2
                    for assignment in sim.enumerate_assignments(table))

    cond_order = sorted(range(len(table.conditions)),
                        key=lambda i: table.conditions[i].key)
    res_order = sorted(range(len(table.results)),
                       key=lambda i: table.results[i])
    conditions = tuple(
        ExprHeader(h.canonical) if isinstance(h, ExprHeader) else h
        for h in (table.conditions[i] for i in cond_order))
    rows = [CaseRow(tuple(row.inputs[i] for i in cond_order),
                    tuple(row.outputs[i] for i in res_order))
            for row in table.rows]
    if sort_rows:
        rows.sort(key=lambda r: tuple(_cell_sort_key(c) for c in r.inputs))
    ports = tuple(sorted(table.ports.entries,
                         key=lambda p: (p.direction.value, p.name)))
    return Lct(name=table.name, clocking=table.clocking,
               conditions=conditions,
               results=tuple(table.results[i] for i in res_order),
               rows=tuple(rows), ports=PortMap(ports), feedback=())


def canonical_text(canonical: Lct) -> str:
    return tableio.serialize_unit_doc(
        dataclasses.replace(canonical, name="unit"))


def reference_compare(a: Lct, b: Lct):
    """(verdict, counterexample) of ``equiv.compare`` without aliases:
    textual identity of the reference canonical forms, then every
    assignment in order through ``sim.symbolic_outputs``."""
    a, b = equiv.align(a, b)
    if canonical_text(reference_canonicalize(a)) == \
            canonical_text(reference_canonicalize(b)):
        return equiv.Verdict.TEXTUALLY_IDENTICAL, None
    for assignment in sim.enumerate_assignments(a):
        outs_a = sim.symbolic_outputs(a, assignment)
        outs_b = sim.symbolic_outputs(b, assignment)
        for name, va, vb in zip(a.results, outs_a, outs_b):
            if isinstance(va, sim.Unspecified) or \
                    isinstance(vb, sim.Unspecified) or va == vb:
                continue
            return equiv.Verdict.NOT_EQUIVALENT, equiv.Counterexample(
                sim.assignment_dict(a, assignment), name, str(va), str(vb))
    return equiv.Verdict.EQUIVALENT, None


# ---------------------------------------------------------------------------
# Reference tokenizer: one regex match per token and one per run of
# whitespace or comment, with lines counted chunk by chunk.

_REFERENCE_HDL_TOKEN_RE = re.compile(r"""
      (?P<ws>\s+|//[^\n]*|/\*.*?\*/)
    | (?P<lit>\d+'[bdhBDH][0-9a-fA-F_?zZxX]+)
    | (?P<num>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_$]*)
    | (?P<op><=|>=|==|!=|&&|\|\||[@#.(){}\[\],;:?=<>&|^~!*+-])
    """, re.VERBOSE | re.DOTALL)


def reference_tokenize(text: str) -> list:
    """``hdl.tokenize`` as (kind, text, line, col) tuples."""
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _REFERENCE_HDL_TOKEN_RE.match(text, pos)
        if not m:
            col = pos - line_start + 1
            raise HdlError(f"unexpected character {text[pos]!r}", line, col)
        chunk = m.group(0)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, chunk, line, pos - line_start + 1))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            line_start = pos + chunk.rfind("\n") + 1
        pos = m.end()
    return tokens
