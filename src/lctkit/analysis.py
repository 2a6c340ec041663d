"""
Static checks and table transformations: completeness, overlap/shadowing,
don't-care expansion, canonicalization, and synthetic FSM generation.

All enumeration respects first-match row priority and is bounded by an
explicit assignment limit.  The checks, canonicalization and
``equiv.compare`` share one walk over the control space, ``match_sets``,
which multiplies the row bitsets of the trailing condition columns out
into a block once: an assignment then costs one AND inside its block,
plus one per leading column per block.  Past the walk, each cell costs
little: canonicalization keeps a row that needs no change as it is, one
code per cell (``cell_codes``) orders the rows and keys ``equiv``'s
textual check, and ``row_outputs`` resolves each constant once a call.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

from .model import (
    BitVector,
    CaseRow,
    Clocking,
    Constant,
    DONT_CARE,
    DontCare,
    Direction,
    ExprHeader,
    Lct,
    LctError,
    Port,
    PortMap,
    SignalHeader,
    SignalRef,
    condition_header,
)
from . import sim

DEFAULT_ENUM_LIMIT = 1 << 20
_BLOCK = 1 << 12  # match_sets folds trailing columns up to this many masks


class EnumLimitError(LctError):
    """The control space or expansion exceeds the configured limit."""


@dataclass
class CoverageReport:
    """Completeness and overlap findings for one table."""
    uncovered: List[dict] = field(default_factory=list)
    shadowed_rows: List[int] = field(default_factory=list)
    conflicts: List[tuple] = field(default_factory=list)  # (i, j, witness)
    warnings: List[str] = field(default_factory=list)
    possibly_infeasible: bool = False

    def render(self) -> str:
        lines = []
        for assignment in self.uncovered:
            pairs = " ".join(f"{k}={v}" for k, v in assignment.items())
            note = "  # possibly infeasible" if self.possibly_infeasible else ""
            lines.append(f"uncovered: {pairs}{note}")
        for row in self.shadowed_rows:
            lines.append(f"shadowed: row {row}")
        for i, j, witness in self.conflicts:
            pairs = " ".join(f"{k}={v}" for k, v in witness.items())
            lines.append(f"overlap: rows {i} and {j} disagree at {pairs}")
        lines.extend(f"warning: {w}" for w in self.warnings)
        return "\n".join(lines)


def _reset_warning(table: Lct) -> Optional[str]:
    # Heuristic only: a clocked table normally pins an rst*/reset* signal
    # in some row; its absence is worth flagging but is not an error.
    if table.clocking is not Clocking.CLOCKED:
        return None
    reset_cols = [i for i, h in enumerate(table.conditions)
                  if isinstance(h, SignalHeader)
                  and h.name.lower().startswith(("rst", "reset"))]
    if not reset_cols:
        return "clocked table has no rst*/reset* condition column"
    for row in table.rows:
        if any(isinstance(row.inputs[i], Constant) for i in reset_cols):
            return None
    return "clocked table never pins its reset condition (missing reset row?)"


def match_sets(table: Lct, rows: Optional[Sequence[CaseRow]] = None,
               enum_limit: int = DEFAULT_ENUM_LIMIT,
               bitsets: Optional[list] = None) -> Iterator[tuple]:
    """Yield ``(assignment, m)`` in enumeration order, where bit i of
    ``m`` is set when row i (of ``rows``, by default the table's own)
    matches: the lowest set bit is the first-match row.  The trailing
    columns' row bitsets (``bitsets`` when the caller built them,
    otherwise ``sim.column_bitsets`` of the rows) are multiplied out
    once into a block of at most ``_BLOCK`` masks, or the last column's
    own if wider: an assignment costs one AND in its block, plus one per
    leading column per block.  Memory holds one block plus one mask
    list per column, never the whole space."""
    size = sim.control_space_size(table)
    if size > enum_limit:
        raise EnumLimitError(
            f"control space of {size} assignments exceeds limit {enum_limit}")
    rows = table.rows if rows is None else rows
    full = (1 << len(rows)) - 1
    if bitsets is None:
        bitsets = sim.column_bitsets(table, rows)
    values = [[by_value.get(v, wild) for v in range(1 << width)]
              for (by_value, wild), (_, width) in zip(
                  bitsets, sim.control_columns(table))]
    block = values.pop() if values else [full]
    while values and len(block) * len(values[-1]) <= _BLOCK:
        block = [a & b for a in values.pop() for b in block]
    assignments = sim.enumerate_assignments(table)
    for prefix in itertools.product(*values):
        mask = functools.reduce(operator.and_, prefix, full)
        yield from zip(itertools.islice(assignments, len(block)),
                       [mask & m for m in block])


def first_row(m: int) -> int:
    """Index of the lowest set bit of a match set; -1 when it is empty."""
    return (m & -m).bit_length() - 1


def row_outputs(table: Lct) -> List[tuple]:
    """Per row, its symbolic outputs with every signal reference that is
    not a hold read as a token; last, the outputs when no row matches,
    which ``first_row`` of an empty match set (-1) finds.  The values
    are ``sim.resolve_cell``'s, with each distinct constant resolved
    once per call: its rows share one ``sim.Known``."""
    fallback = sim.HOLD if table.clocking is Clocking.CLOCKED else sim.UNSPEC
    known = {}  # (width, value) -> its one sim.Known

    def value(name, cell):
        if type(cell) is Constant:
            key = cell.bv.width, cell.bv.value
            return known.get(key) or known.setdefault(key, sim.Known(cell.bv))
        if type(cell) is DontCare:
            return fallback
        return sim.resolve_cell(table, name, cell)
    return [tuple(map(value, table.results, row.outputs))
            for row in table.rows] + [(fallback,) * len(table.results)]


def check_completeness(table: Lct,
                       enum_limit: int = DEFAULT_ENUM_LIMIT) -> CoverageReport:
    """List every control assignment matched by no row.  Expression
    columns are enumerated as independent booleans, so some uncovered
    entries may be infeasible combinations."""
    report = CoverageReport()
    report.possibly_infeasible = any(
        isinstance(h, ExprHeader) for h in table.conditions)
    for assignment, m in match_sets(table, enum_limit=enum_limit):
        if not m:
            report.uncovered.append(sim.assignment_dict(table, assignment))
    warning = _reset_warning(table)
    if warning:
        report.warnings.append(warning)
    return report


def check_overlap(table: Lct,
                  enum_limit: int = DEFAULT_ENUM_LIMIT) -> CoverageReport:
    """Find shadowed rows and row pairs that overlap with differing
    symbolic outputs.  Overlaps are warnings: first-match priority
    resolves them deterministically."""
    claimed = 0
    seen_sets = set()
    seen_conflicts = set()
    outputs = row_outputs(table)
    report = CoverageReport()
    for assignment, m in match_sets(table, enum_limit=enum_limit):
        claimed |= m & -m
        # A repeated match set has no pair left to report.
        if not m & (m - 1) or m in seen_sets:
            continue
        seen_sets.add(m)
        matching = [i for i in range(m.bit_length()) if m >> i & 1]
        for a, b in itertools.combinations(matching, 2):
            if (a, b) not in seen_conflicts and outputs[a] != outputs[b]:
                seen_conflicts.add((a, b))
                report.conflicts.append(
                    (a, b, sim.assignment_dict(table, assignment)))
    report.shadowed_rows = [i for i in range(len(table.rows))
                            if not claimed >> i & 1]
    return report


# ---------------------------------------------------------------------------
# Don't-care expansion

def expand_dont_cares(table: Lct, columns: Optional[Sequence[str]] = None,
                      enum_limit: int = DEFAULT_ENUM_LIMIT) -> Lct:
    """Replace X cells in the selected condition columns by enumerated
    rows, inserted in place of the original so priority is preserved."""
    keys = [h.key for h in table.conditions]
    selected = set(keys if columns is None else columns)
    unknown = selected - set(keys)
    if unknown:
        raise LctError(f"unknown condition columns: {sorted(unknown)}")

    widths = [table.condition_width(h) for h in table.conditions]
    new_rows = []
    for row in table.rows:
        expand_at = [i for i, cell in enumerate(row.inputs)
                     if isinstance(cell, DontCare) and keys[i] in selected]
        if not expand_at:
            new_rows.append(row)
            continue
        count = 1
        for i in expand_at:
            count <<= widths[i]
        if len(new_rows) + count > enum_limit:
            raise EnumLimitError(
                f"expansion exceeds {enum_limit} rows")
        for combo in itertools.product(
                *(range(1 << widths[i]) for i in expand_at)):
            cells = list(row.inputs)
            for i, value in zip(expand_at, combo):
                cells[i] = Constant(BitVector(widths[i], value))
            new_rows.append(CaseRow(tuple(cells), row.outputs,
                                    label=row.label, comment=row.comment))
    return Lct(name=table.name, clocking=table.clocking,
               conditions=table.conditions, results=table.results,
               rows=tuple(new_rows), ports=table.ports,
               feedback=table.feedback)


# ---------------------------------------------------------------------------
# Canonical form

def cell_codes(cells) -> tuple:
    """One code per cell, equal exactly when the cells print alike and,
    for input cells, in canonical row order: a constant's value, then
    X (infinity, past every value), then a signal by its name (an input
    cell holds one only in an unvalidated table)."""
    return tuple([cell.bv.value if type(cell) is Constant
                  else math.inf if type(cell) is DontCare else cell.name
                  for cell in cells])


def picker(order: Sequence[int]):
    """A function from a tuple to the tuple of its items at ``order``."""
    if len(order) == 1:
        index = order[0]
        return lambda items: (items[index],)
    return operator.itemgetter(*order) if order else lambda items: ()


def _prune(table: Lct, enum_limit: int,
           bitsets: Optional[list] = None) -> tuple:
    """The rows that canonicalization keeps, as a bitset, and whether it
    may sort them, from the distinct match sets of one walk.  Past the
    limit every row is kept in order."""
    try:
        sets = {m for _, m in match_sets(table, enum_limit=enum_limit,
                                         bitsets=bitsets)}
    except EnumLimitError:
        return (1 << len(table.rows)) - 1, False
    keep = 0  # the rows that are first match somewhere
    for m in sets:
        keep |= m & -m
    if table.clocking is Clocking.CLOCKED:
        # A pure-hold row, whose every output is a don't-care or its own
        # column's reference, can go unless a later kept row overlaps it
        # where it matches first: the assignments it claims become
        # unmatched, which also holds every register.  Rows are decided
        # from the last one up, so that a row overlapped only by hold
        # rows that go goes too, and canonicalizing again drops nothing.
        holds = keep
        for name, cells in zip(table.results,
                               zip(*[row.outputs for row in table.rows])):
            holds &= sum(1 << i for i, cell in enumerate(cells)
                         if type(cell) is DontCare or type(cell) is SignalRef
                         and cell.name == name)
        while holds:
            bit = 1 << holds.bit_length() - 1
            holds ^= bit
            if not any(k & (k - 1) and k & -k == bit
                       for k in (m & keep for m in sets)):
                keep ^= bit
    # Sorting overlapping rows could conflate tables that differ only in
    # priority, so decide from the kept rows (keeps the form stable
    # under re-canonicalization).
    return keep, not any(k & (k - 1) for k in (m & keep for m in sets))


def canonicalize(table: Lct, enum_limit: int = DEFAULT_ENUM_LIMIT,
                 bitsets: Optional[list] = None) -> Lct:
    """Deterministic normal form: comments and feedback stripped,
    shadowed rows and redundant pure-hold rows removed, clocked don't-care
    outputs rewritten as hold cells, expression headers rewritten
    canonically, columns sorted by name, rows sorted by input cells,
    ports sorted.  Permutation variants of a non-overlapping table share
    one canonical form.

    Rows are left in priority order when any two rows overlap: sorting
    them could conflate tables that differ only in overlap priority, and
    are otherwise sorted by their input cells' ``cell_codes``.  A kept
    row that needs no change is the table's own row object: its columns
    are in key order already, and it has no label, no comment and no
    clocked don't-care output.  Any other kept row is built once, its
    cells picked in sorted column order.  ``bitsets``, when given, are
    the table's ``sim.column_bitsets``, which the caller built already.
    """
    keep, sort_rows = _prune(table, enum_limit, bitsets)

    cond_order = sorted(range(len(table.conditions)),
                        key=lambda i: table.conditions[i].key)
    res_order = sorted(range(len(table.results)),
                       key=lambda i: table.results[i])
    pick_inputs, pick_outputs = picker(cond_order), picker(res_order)
    in_order = cond_order == sorted(cond_order) and \
        res_order == sorted(res_order)

    # A key re-read as header text is the header with its canonical text.
    conditions = tuple(condition_header(table.conditions[i].key)
                       for i in cond_order)
    results = pick_outputs(table.results)
    # A clocked don't-care output leaves the register alone, which is
    # exactly a hold; normalize to the hold spelling.
    holds = tuple(map(SignalRef, results)) \
        if table.clocking is Clocking.CLOCKED else None

    rows = []
    for i, row in enumerate(table.rows):
        if not keep >> i & 1:
            continue
        spell = holds and DontCare in map(type, row.outputs)
        if spell or not in_order or row.label is not None \
                or row.comment is not None:
            outputs = pick_outputs(row.outputs)
            if spell:
                outputs = tuple(hold if type(cell) is DontCare else cell
                                for cell, hold in zip(outputs, holds))
            row = CaseRow(pick_inputs(row.inputs), outputs)
        rows.append(row)
    if sort_rows:
        try:
            rows.sort(key=lambda row: cell_codes(row.inputs))
        except TypeError:  # a signal beside a number in one column
            rows.sort(key=lambda row: tuple(
                (type(code) is str, code) for code in cell_codes(row.inputs)))

    ports = tuple(sorted(table.ports.entries,
                         key=lambda p: (p.direction.value, p.name)))
    return Lct(name=table.name, clocking=table.clocking,
               conditions=conditions, results=results,
               rows=tuple(rows), ports=PortMap(ports), feedback=())


# ---------------------------------------------------------------------------
# Synthetic FSM generation

def generate_fsm(states: int, conds_per_state: int, outputs: int,
                 seed: int) -> Lct:
    """Build a seeded synthetic FSM table: one reset row, one hold row
    for the all-conditions-false case, and one transition row per
    (state, condition) pair.  The state count must be a power of two so
    the state encoding is fully used."""
    if states < 2 or states & (states - 1):
        raise LctError(f"state count must be a power of two >= 2, "
                       f"got {states}")
    if conds_per_state < 1 or outputs < 0:
        raise LctError("need at least one condition and outputs >= 0")
    width = states.bit_length() - 1
    rng = random.Random(seed)

    cond_names = [f"cond{i}" for i in range(conds_per_state)]
    out_names = [f"out{i}" for i in range(outputs)]
    ports = [Port(Direction.INPUT, "rst_n", 1),
             Port(Direction.INPUT, "state", width)]
    ports += [Port(Direction.INPUT, name, 1) for name in cond_names]
    ports.append(Port(Direction.OUTPUT, "next_state", width))
    ports += [Port(Direction.OUTPUT, name, 1) for name in out_names]

    conditions = tuple([SignalHeader("rst_n"), SignalHeader("state")] +
                       [SignalHeader(name) for name in cond_names])
    results = tuple(["next_state"] + out_names)

    def const(width_, value):
        return Constant(BitVector(width_, value))

    zero_outputs = tuple([const(width, 0)] +
                         [const(1, 0) for _ in out_names])
    rows = [CaseRow((const(1, 0),) + (DONT_CARE,) * (1 + conds_per_state),
                    zero_outputs, comment="Reset")]
    hold_outputs = tuple([SignalRef("state")] +
                         [SignalRef(name) for name in out_names])
    rows.append(CaseRow(
        (const(1, 1), DONT_CARE) + tuple(const(1, 0) for _ in cond_names),
        hold_outputs, comment="Hold"))
    for state in range(states):
        for cond in range(conds_per_state):
            pattern = tuple(const(1, 1 if i == cond else 0)
                            for i in range(conds_per_state))
            target = rng.randrange(states)
            outs = tuple([const(width, target)] +
                         [const(1, rng.randrange(2)) for _ in out_names])
            rows.append(CaseRow(
                (const(1, 1), const(width, state)) + pattern, outs,
                comment=f"S{state} cond{cond}"))

    return Lct(name=f"fsm_{states}s_{conds_per_state}c_{seed}",
               clocking=Clocking.CLOCKED, conditions=conditions,
               results=results, rows=tuple(rows), ports=PortMap(tuple(ports)),
               feedback=(("next_state", "state"),))
