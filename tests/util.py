"""Shared test helpers: fixture loading, seeded random table generators
and the hypothesis strategy over them, a row-by-row reference for the
checks that ``analysis`` and ``equiv`` compute from match-set bitsets
and for ``sim``'s evaluation entry points, a two-pass reference for
``equiv.align``, a reference HDL tokenizer, and per-cell references for
codegen's row bodies and the unit renderer's CSV."""

from __future__ import annotations

import dataclasses
import itertools
import os
import random
import re

from hypothesis import strategies as st

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
from lctkit import analysis, equiv, expr, sim, tableio
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


def clocked_dont_care_lct() -> Lct:
    """A clocked table whose second row leaves its output `r` a
    don't-care: `c = 0` loads 2, `c = 1` holds."""
    return Lct(name="dc_hold", clocking=Clocking.CLOCKED,
               conditions=(SignalHeader("c"),), results=("r",),
               rows=(CaseRow((_const(1, 0),), (_const(2, 2),)),
                     CaseRow((_const(1, 1),), (DONT_CARE,))),
               ports=PortMap((Port(Direction.INPUT, "c", 1),
                              Port(Direction.OUTPUT, "r", 2))))


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
    claimed = set()
    for assignment in sim.enumerate_assignments(table):
        index = sim.first_match(table, assignment)
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


def with_bad_cell(table: Lct, rng: random.Random) -> Lct:
    """The table with one output cell that ``sim.resolve_cell`` rejects,
    so that only a vector matching its row raises ``bad output cell``."""
    i = rng.randrange(len(table.rows))
    j = rng.randrange(len(table.results))
    row = table.rows[i]
    bad = CaseRow(row.inputs, row.outputs[:j] + ("bogus",) + row.outputs[j + 1:])
    return dataclasses.replace(
        table, rows=table.rows[:i] + (bad,) + table.rows[i + 1:])


def permute_columns(table: Lct, rng: random.Random) -> Lct:
    """``table`` with its condition and result columns shuffled."""
    cond = rng.sample(range(len(table.conditions)), len(table.conditions))
    res = rng.sample(range(len(table.results)), len(table.results))
    rows = tuple(dataclasses.replace(
        row, inputs=tuple(row.inputs[i] for i in cond),
        outputs=tuple(row.outputs[i] for i in res)) for row in table.rows)
    return dataclasses.replace(
        table, conditions=tuple(table.conditions[i] for i in cond),
        results=tuple(table.results[i] for i in res), rows=rows)


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


def constant_lct(seed: int) -> Lct:
    """A ``random_lct`` with no condition columns: a constant function,
    whose first row matches everywhere and shadows the others."""
    table = random_lct(seed)
    return dataclasses.replace(
        table, name=f"const_{seed}", conditions=(),
        rows=tuple(CaseRow((), row.outputs) for row in table.rows))


def dressed_lct(table: Lct, seed: int, signal_inputs: bool = False) -> Lct:
    """``table`` with rows that canonicalization must rebuild: some rows
    labelled or commented, columns shuffled out of key order, some
    outputs of a clocked table made don't-cares, and expression-column
    constants written 2'd0 and 2'd1 in about half the rows.  With
    ``signal_inputs``, some input cells name an input port, which only
    an unvalidated table holds."""
    rng = random.Random(seed)
    clocked = table.clocking is Clocking.CLOCKED
    names = [p.name for p in table.ports.inputs()]

    def input_cell(header, cell):
        if signal_inputs and rng.random() < 0.2:
            return SignalRef(rng.choice(names))
        if isinstance(header, ExprHeader) and isinstance(cell, Constant) \
                and rng.random() < 0.5:
            return _const(2, cell.bv.value)
        return cell

    rows = tuple(CaseRow(
        tuple(map(input_cell, table.conditions, row.inputs)),
        tuple(DONT_CARE if clocked and rng.random() < 0.2 else cell
              for cell in row.outputs),
        label=f"case{i}" if rng.random() < 0.3 else row.label,
        comment=f"row {i}" if rng.random() < 0.3 else row.comment)
        for i, row in enumerate(table.rows))
    return permute_columns(dataclasses.replace(table, rows=rows), rng)


SEEDS = st.integers(0, 10 ** 6)

# Random tables with overlaps, complete disjoint tables, pass-through
# tables and FSMs with feedback.
TABLES = st.one_of(
    SEEDS.map(random_lct),
    st.builds(random_disjoint_lct, SEEDS, st.booleans()),
    SEEDS.map(random_passthrough_lct),
    st.builds(analysis.generate_fsm, st.sampled_from([2, 4, 8]),
              st.integers(1, 3), st.integers(0, 2), SEEDS),
)
# The benchmark ladder's FSM rungs, 8x4 to 32x4.
RUNGS = st.builds(analysis.generate_fsm, st.sampled_from([8, 16, 32]),
                  st.just(4), st.integers(1, 8), SEEDS)
# The same tables dressed as ``dressed_lct`` dresses them: valid, and
# with signals in some input cells (unvalidated).
DRESSED = st.builds(dressed_lct, TABLES, SEEDS)
UNVALIDATED = st.builds(dressed_lct, TABLES, SEEDS, st.just(True))
# What the writers are checked on: the tables above, dressed ones, each
# table cut to its first row, and the ladder's rungs.
WRITTEN = st.one_of(TABLES, DRESSED,
                    TABLES.map(lambda t: dataclasses.replace(
                        t, rows=t.rows[:1])),
                    RUNGS)


# ---------------------------------------------------------------------------
# Row-by-row reference: one sim.first_match scan, or a row_matches test
# of every row, per control assignment, and sim.symbolic_outputs for
# every comparison.

def row_matches(row: CaseRow, assignment: tuple) -> bool:
    """Whether every constant input cell of ``row`` holds its column's
    value of ``assignment``; any other cell accepts every value."""
    return all(not isinstance(cell, Constant) or cell.bv.value == value
               for cell, value in zip(row.inputs, assignment))


def _matching(table: Lct, assignment: tuple) -> list:
    return [i for i, row in enumerate(table.rows)
            if row_matches(row, assignment)]


def reference_shadowed(table: Lct) -> list:
    claimed = set()
    for assignment in sim.enumerate_assignments(table):
        index = sim.first_match(table, assignment)
        if index is not None:
            claimed.add(index)
    return [i for i in range(len(table.rows)) if i not in claimed]


def reference_uncovered(table: Lct) -> list:
    return [sim.assignment_dict(table, assignment)
            for assignment in sim.enumerate_assignments(table)
            if sim.first_match(table, assignment) is None]


def reference_conflicts(table: Lct) -> list:
    """(i, j, witness) per overlapping row pair with differing symbolic
    outputs, at the first assignment where both match."""
    conflicts = []
    seen = set()
    for assignment in sim.enumerate_assignments(table):
        matching = _matching(table, assignment)
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


def _reference_row(table: Lct, inputs) -> int:
    """The first-match row at named inputs, or None: the inputs projected
    onto the condition columns in order, then one ``sim.first_match``
    scan."""
    assignment = []
    for header in table.conditions:
        if isinstance(header, SignalHeader):
            bv = inputs.get(header.name)
            if bv is None:
                raise sim.SimError(f"missing condition input {header.name}")
            assignment.append(bv.value)
        else:
            assignment.append(expr.truth(header.tree, inputs))
    return sim.first_match(table, tuple(assignment))


def reference_eval_comb(table: Lct, inputs) -> dict:
    """``sim.eval_comb`` by a row scan and ``sim.resolve_cell``."""
    if table.clocking is not Clocking.COMBINATIONAL:
        raise sim.SimError("eval_comb requires a combinational table")
    index = _reference_row(table, inputs)
    if index is None:
        return {name: sim.UNSPEC for name in table.results}
    return {name: sim.resolve_cell(table, name, cell, inputs)
            for name, cell in zip(table.results, table.rows[index].outputs)}


def reference_step_clocked(table: Lct, state, inputs):
    """``sim.step_clocked`` by a row scan and ``sim.resolve_cell``."""
    if table.clocking is not Clocking.CLOCKED:
        raise sim.SimError("step_clocked requires a clocked table")
    index = _reference_row(table, inputs)
    if index is None:
        return state
    regs = []
    for name, cell in zip(table.results, table.rows[index].outputs):
        value = sim.resolve_cell(table, name, cell, inputs)
        if value is sim.HOLD:
            value = state.get(name)
        regs.append((name, value))
    return sim.SeqState(tuple(regs))


def reference_run_trace(table: Lct, stimulus) -> list:
    """``sim.run_trace`` as ``reference_step_clocked`` per cycle, each
    fed-back condition read from the previous state unless supplied."""
    if table.clocking is not Clocking.CLOCKED:
        raise sim.SimError("run_trace requires a clocked table")
    state = sim.initial_state(table)
    states = []
    for cycle, vector in enumerate(stimulus):
        inputs = dict(vector)
        for result, cond in table.feedback:
            if cond not in inputs:
                value = state.get(result)
                if not isinstance(value, BitVector):
                    raise sim.SimError(
                        f"cycle {cycle}: feedback {result} -> {cond} is not "
                        f"a known value ({value})")
                inputs[cond] = value
        state = reference_step_clocked(table, state, inputs)
        states.append(state)
    return states


def _all_hold(table: Lct, row: CaseRow) -> bool:
    return all(isinstance(cell, SignalRef) and cell.name == name
               for name, cell in zip(table.results, row.outputs))


def reference_droppable_hold_rows(table: Lct) -> set:
    """Pure-hold rows that no later row still kept overlaps where they
    match first, decided from the last row up."""
    dropped = set()
    for i in reversed(range(len(table.rows))):
        if not _all_hold(table, table.rows[i]):
            continue
        for assignment in sim.enumerate_assignments(table):
            matching = [j for j in _matching(table, assignment)
                        if j not in dropped]
            if len(matching) > 1 and matching[0] == i:
                break
        else:
            dropped.add(i)
    return dropped


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
    sort_rows = all(len(_matching(table, assignment)) < 2
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


def rename_table(table: Lct, renames) -> Lct:
    """``table`` with every port, column, cell reference, expression
    identifier and feedback name mapped through ``renames``."""
    def rename_cell(cell):
        if isinstance(cell, SignalRef):
            return SignalRef(renames.get(cell.name, cell.name))
        return cell

    conditions = tuple(
        SignalHeader(renames.get(h.name, h.name))
        if isinstance(h, SignalHeader)
        else ExprHeader(expr.render(expr.rename(h.tree, renames)))
        for h in table.conditions)
    rows = tuple(
        CaseRow(row.inputs, tuple(rename_cell(c) for c in row.outputs),
                label=row.label, comment=row.comment)
        for row in table.rows)
    ports = PortMap(tuple(Port(p.direction, renames.get(p.name, p.name),
                               p.width)
                          for p in table.ports.entries))
    return dataclasses.replace(
        table, conditions=conditions,
        results=tuple(renames.get(name, name) for name in table.results),
        rows=rows, ports=ports,
        feedback=tuple((renames.get(r, r), renames.get(c, c))
                       for r, c in table.feedback))


def reference_align(a: Lct, b: Lct, aliases=None):
    """``equiv.align`` as two passes over every row of ``b``: rename it
    into a's namespace, then reorder its columns to a's order."""
    renames = equiv._match_ports(a, b, aliases or {})
    renamed = rename_table(b, renames)
    cond_order = equiv._column_order(
        [h.key for h in a.conditions],
        [h.key for h in renamed.conditions], "condition")
    res_order = equiv._column_order(a.results, renamed.results, "result")
    rows = tuple(
        CaseRow(tuple(row.inputs[i] for i in cond_order),
                tuple(row.outputs[i] for i in res_order),
                label=row.label, comment=row.comment)
        for row in renamed.rows)
    return a, dataclasses.replace(
        renamed,
        conditions=tuple(renamed.conditions[i] for i in cond_order),
        results=tuple(renamed.results[i] for i in res_order),
        rows=rows)


def canonical_text(canonical: Lct) -> str:
    """The serialization of a canonical form, unit name excluded.  It is
    validated, unless a signal in an input cell shows that it is the
    form of an unvalidated table."""
    unit = dataclasses.replace(canonical, name="unit")
    if any(isinstance(cell, SignalRef)
           for row in unit.rows for cell in row.inputs):
        return tableio.combine_unit_doc(*tableio._render_unit(unit))
    return tableio.serialize_unit_doc(unit)


def reference_textual_match(a: Lct, b: Lct,
                            enum_limit: int = analysis.DEFAULT_ENUM_LIMIT
                            ) -> bool:
    """``equiv.textual_match`` as a comparison of text: both canonical
    forms serialized, unit names excluded."""
    return canonical_text(analysis.canonicalize(a, enum_limit)) == \
        canonical_text(analysis.canonicalize(b, enum_limit))


def reference_compare(a: Lct, b: Lct):
    """(verdict, counterexample) of ``equiv.compare`` without aliases:
    textual identity of the reference canonical forms, then every
    assignment in order through ``sim.symbolic_outputs``."""
    a, b = reference_align(a, b)
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
    | (?P<lit>[0-9]+'[bdhBDH][0-9a-fA-F_?zZxX]+)
    | (?P<num>[0-9]+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_$]*)
    | (?P<op><=|>=|==|!=|&&|\|\||[@#.(){}\[\],;:?=<>&|^~!*+-])
    """, re.VERBOSE | re.DOTALL)


def reference_tokenize(text: str) -> list:
    """The tokens of ``hdl.tokenize`` as (kind, text, line, col) tuples,
    where ``expr.locate`` places them."""
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


# ---------------------------------------------------------------------------
# Damaged HDL, for the reader's fuzz test and the fingerprint's `hdl`
# section: a text cut after a token, with a token deleted or written
# twice, or with a character the subset has no token for.

VARIANT_KINDS = ("truncated", "deleted", "duplicated", "stray")
STRAY_CHARACTERS = ("$", '"', "`", "\\", "é")


def token_spans(text: str) -> list:
    """The (start, end) offsets of each token of the text, where
    ``reference_tokenize`` finds it."""
    starts = [0] + [i + 1 for i, char in enumerate(text) if char == "\n"]
    spans = []
    for _kind, token, line, col in reference_tokenize(text):
        start = starts[line - 1] + col - 1
        spans.append((start, start + len(token)))
    return spans


def hdl_variant(text: str, kind: str, index: int, stray: str = "$") -> str:
    """The text with one kind of damage at its index-th token, counted
    modulo the number of tokens: cut after it, deleted, written twice,
    or with ``stray`` inserted before it.  A text with no token is
    returned as it is."""
    spans = token_spans(text)
    if not spans:
        return text
    start, end = spans[index % len(spans)]
    if kind == "truncated":
        return text[:end]
    if kind == "deleted":
        return text[:start] + text[end:]
    if kind == "duplicated":
        return text[:end] + " " + text[start:]
    if kind == "stray":
        return text[:start] + stray + text[start:]
    raise ValueError(f"unknown variant kind {kind!r}")


# ---------------------------------------------------------------------------
# Per-cell reference writers: codegen's `if` chain and `casez` and the unit
# renderer's CSV rows as they were before each call kept its formatted
# cells, formatting every cell of every row again.

def _reference_guard_terms(table: Lct, row) -> list:
    terms = []
    for header, cell in zip(table.conditions, row.inputs):
        if isinstance(cell, DontCare):
            continue
        if isinstance(header, SignalHeader):
            terms.append(f"({header.name} == {cell.bv.binary()})")
        else:
            text = header.canonical
            terms.append(f"({text})" if cell.bv.value else f"(!({text}))")
    return terms


def _reference_assignments(table: Lct, row, assign_op: str,
                           indent: str) -> list:
    lines = []
    for name, cell in zip(table.results, row.outputs):
        if isinstance(cell, Constant):
            lines.append(f"{indent}{name} {assign_op} {cell.bv.binary()};")
        elif isinstance(cell, SignalRef):
            if cell.name == name:
                lines.append(f"{indent}// hold {name}")
            else:
                lines.append(f"{indent}{name} {assign_op} {cell.name};")
    return lines


def reference_if_chain(table: Lct, assign_op: str) -> list:
    lines = []
    for i, row in enumerate(table.rows):
        terms = _reference_guard_terms(table, row)
        guard = " && ".join(terms) if terms else "1'b1"
        opener = "if" if i == 0 else "end else if"
        lines.append(f"  {opener} ({guard}) begin")
        lines.extend(_reference_assignments(table, row, assign_op, "    "))
    if table.rows:
        lines.append("  end")
    return lines


def reference_casez(table: Lct, assign_op: str) -> list:
    names = [h.name if isinstance(h, SignalHeader) else f"({h.canonical} != 0)"
             for h in table.conditions]
    widths = [table.condition_width(h) for h in table.conditions]
    subject = names[0] if len(names) == 1 else "{" + ", ".join(names) + "}"
    total = sum(widths)
    if not names:
        subject, total = "1'b1", 1
    lines = [f"  casez ({subject})"]
    for row in table.rows:
        bits = []
        for width, cell in zip(widths, row.inputs):
            if isinstance(cell, DontCare):
                bits.append("?" * width)
            else:
                bits.append(f"{cell.bv.value:0{width}b}")
        lines.append(f"    {total}'b{''.join(bits) or '1'}: begin")
        lines.extend(_reference_assignments(table, row, assign_op, "      "))
        lines.append("    end")
    lines.append("    default: ;")
    lines.append("  endcase")
    return lines


def _reference_cell_text(cell) -> str:
    if isinstance(cell, DontCare):
        return "X"
    if isinstance(cell, SignalRef):
        return cell.name
    return str(cell.bv.value)


def reference_csv_text(table: Lct) -> str:
    """The CSV that ``tableio.serialize_unit`` writes for a valid table."""
    has_case = any(row.label is not None for row in table.rows)
    has_comments = any(row.comment is not None for row in table.rows)
    header = ["Case"] if has_case else []
    header += [h.text for h in table.conditions] + list(table.results)
    if has_comments:
        header.append("Comments")
    lines = [",".join(header)]
    for row in table.rows:
        cells = [row.label or ""] if has_case else []
        cells += [_reference_cell_text(c) for c in row.inputs + row.outputs]
        if has_comments:
            cells.append(row.comment or "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
