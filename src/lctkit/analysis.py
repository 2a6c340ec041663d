"""
Static checks and table transformations: one coverage check (gaps,
shadowed rows, overlaps), don't-care expansion, canonicalization, and
synthetic FSM generation.

All enumeration respects first-match row priority and is bounded by an
explicit assignment limit.  ``check_coverage``, canonicalization and
``equiv.compare`` share one walk over the control space,
``match_blocks``, which multiplies the row bitsets of the trailing
condition columns out into a block once and yields each block's match
sets beside a lazy slice of its assignments.  Each consumer decides a
distinct match set once, in order of first appearance, and reads an
assignment only where it reports one; ``match_sets`` is the walk one
point at a time.  ``check_coverage`` takes every finding from a single
walk.  Its bitsets, and the outputs it compares, are the table's one
first-match form, its ``sim`` kernel.  Past the walk, canonicalization
decides by columns: it transposes the kept rows once, codes each column
once (``cell_codes``), keeps a row that needs no change as it is and
builds only the others: the codes sort the rows and key ``equiv``'s
textual check.
"""

from __future__ import annotations

import collections
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
    kept,
)
from . import sim

DEFAULT_ENUM_LIMIT = 1 << 20
_BLOCK = 1 << 12  # match_sets folds trailing columns up to this many masks


class EnumLimitError(LctError):
    """The control space or expansion exceeds the configured limit."""


@dataclass(slots=True)
class CoverageReport:
    """The coverage findings of one table, from ``check_coverage``."""
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


def match_blocks(table: Lct, enum_limit: int = DEFAULT_ENUM_LIMIT,
                 other: Optional[Lct] = None) -> Iterator[tuple]:
    """Yield ``(assignments, masks)`` per block, in enumeration order,
    where bit i of a mask is set when row i matches: the lowest set bit
    is the first-match row.  The rows of ``other``, a table aligned to
    ``table``, follow ``table``'s, their bitsets stacked on its own.
    The trailing columns' row bitsets, those of the table's ``sim``
    kernel, are multiplied out once into a block of at most ``_BLOCK``
    masks, or the last column's own if wider: a block costs one AND per
    distinct mask in it, plus one per leading column.  ``masks`` is a
    sequence, not to be changed; ``assignments`` is a lazy slice of the
    walk's one ``sim.enumerate_assignments`` iterator, and the walk
    skips what the consumer leaves unread before the next block.  Memory
    holds one block plus one mask list per column, never the whole
    space."""
    size = sim.control_space_size(table)
    if size > enum_limit:
        raise EnumLimitError(
            f"control space of {size} assignments exceeds limit {enum_limit}")
    bitsets, rows = sim._kernel(table).bitsets, len(table.rows)
    if other is not None:
        bitsets = sim.stack_bitsets(bitsets, sim._kernel(other).bitsets, rows)
        rows += len(other.rows)
    full = (1 << rows) - 1
    values = [[by_value.get(v, wild) for v in range(1 << width)]
              for (by_value, wild), (_, width) in zip(
                  bitsets, sim.control_columns(table))]
    block = values.pop() if values else [full]
    while values and len(block) * len(values[-1]) <= _BLOCK:
        block = [a & b for a in values.pop() for b in block]
    assignments = sim.enumerate_assignments(table)
    if not values:  # the whole space is one block
        yield assignments, block
        return
    # A prefix ANDs its mask into each distinct mask of the block once,
    # and these are picked into the block's order.
    distinct = list(dict.fromkeys(block))
    index = {m: i for i, m in enumerate(distinct)}
    pick = picker([index[m] for m in block])
    for prefix in itertools.product(*values):
        mask = functools.reduce(operator.and_, prefix, full)
        part = itertools.islice(assignments, len(block))
        yield part, pick([mask & m for m in distinct])
        collections.deque(part, maxlen=0)


def match_sets(table: Lct, enum_limit: int = DEFAULT_ENUM_LIMIT,
               other: Optional[Lct] = None) -> Iterator[tuple]:
    """``match_blocks`` one point at a time: ``(assignment, mask)``."""
    for assignments, masks in match_blocks(table, enum_limit, other):
        yield from zip(assignments, masks)


def check_coverage(table: Lct,
                   enum_limit: int = DEFAULT_ENUM_LIMIT) -> CoverageReport:
    """Every finding of one walk: the control assignments matched by no
    row, the shadowed rows, the first witness of each row pair that
    overlaps with differing symbolic outputs, and the reset warning.
    Expression columns are enumerated as independent booleans, so some
    uncovered entries may be infeasible combinations.  Overlaps are
    warnings: first-match priority resolves them deterministically."""
    report = CoverageReport(possibly_infeasible=any(
        isinstance(h, ExprHeader) for h in table.conditions))
    claimed = 0
    seen_sets = set()
    seen_conflicts = set()
    outputs = sim.row_values(table)
    for assignments, masks in match_blocks(table, enum_limit):
        # Each match set is decided where it first appears, and only the
        # points reported are read: those no row matches, and the first
        # witness of each new conflict.
        read = list(map(operator.not_, masks))
        witnesses = {}  # the index of such a witness -> its row pairs
        for m in dict.fromkeys(masks):
            if m in seen_sets:
                continue
            seen_sets.add(m)
            claimed |= m & -m
            if not m & (m - 1):
                continue
            matching = [i for i in range(m.bit_length()) if m >> i & 1]
            pairs = [(a, b) for a, b in itertools.combinations(matching, 2)
                     if (a, b) not in seen_conflicts
                     and outputs[a] != outputs[b]]
            if pairs:
                seen_conflicts.update(pairs)
                i = masks.index(m)
                witnesses[i], read[i] = pairs, True
        for i, assignment in zip(itertools.compress(range(len(read)), read),
                                 itertools.compress(assignments, read)):
            if i in witnesses:
                report.conflicts.extend(
                    (a, b, sim.assignment_dict(table, assignment))
                    for a, b in witnesses[i])
            else:
                report.uncovered.append(sim.assignment_dict(table, assignment))
    report.shadowed_rows = [i for i in range(len(table.rows))
                            if not claimed >> i & 1]
    warning = _reset_warning(table)
    if warning:
        report.warnings.append(warning)
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


def _columns(cells: list, width: int) -> list:
    """The ``width`` columns of the rows of ``cells``."""
    return list(zip(*cells)) if cells else [()] * width


def _rows(columns: list, count: int):
    """The ``count`` rows of ``columns``: ``_columns`` undone."""
    return zip(*columns) if columns else [()] * count


def row_codes(table: Lct) -> tuple:
    """Per row, its inputs' and outputs' codes, as ``canonicalize`` keeps,
    coded a column at a time."""
    count = len(table.rows)
    inputs = _columns([row.inputs for row in table.rows],
                      len(table.conditions))
    outputs = _columns([row.outputs for row in table.rows],
                       len(table.results))
    return tuple(zip(_rows(list(map(cell_codes, inputs)), count),
                     _rows(list(map(cell_codes, outputs)), count)))


def _prune(table: Lct, enum_limit: int) -> tuple:
    """The rows that canonicalization keeps, as a bitset, and whether it
    may sort them, from the distinct match sets of one walk.  Past the
    limit every row is kept in order."""
    sets = set()
    try:
        for _, masks in match_blocks(table, enum_limit):
            sets.update(masks)
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
            if not holds:
                break
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


def canonicalize(table: Lct, enum_limit: int = DEFAULT_ENUM_LIMIT) -> Lct:
    """Deterministic normal form: comments and feedback stripped,
    shadowed rows and redundant pure-hold rows removed, clocked don't-care
    outputs rewritten as hold cells, expression headers rewritten
    canonically, columns sorted by name, rows sorted by input cells,
    ports sorted.  Permutation variants of a non-overlapping table share
    one canonical form.

    Rows are left in priority order when any two rows overlap: sorting
    them could conflate tables that differ only in overlap priority, and
    are otherwise sorted by their input cells' ``cell_codes``.  The kept
    rows are decided by columns: transposed once, their columns put in
    key order, and each column coded once.  A kept row that needs no
    change is the table's own row object and costs no work of its own:
    its columns are in key order already, and it has no label, no
    comment and no clocked don't-care output.  Any other kept row is
    built once from the columns.  The rows' codes are kept on the
    returned (new) table as ``_row_codes``.
    """
    keep, sort_rows = _prune(table, enum_limit)
    rows = list(table.rows if keep == (1 << len(table.rows)) - 1
                else itertools.compress(table.rows,
                                        map("1".__eq__, bin(keep)[:1:-1])))
    count = len(rows)

    cond_order = sorted(range(len(table.conditions)),
                        key=lambda i: table.conditions[i].key)
    res_order = sorted(range(len(table.results)),
                       key=lambda i: table.results[i])
    in_order = cond_order == sorted(cond_order) and \
        res_order == sorted(res_order)

    # A key re-read as header text is the header with its canonical text.
    conditions = tuple(condition_header(table.conditions[i].key)
                       for i in cond_order)
    results = picker(res_order)(table.results)
    inputs = _columns([row.inputs for row in rows], len(cond_order))
    outputs = _columns([row.outputs for row in rows], len(res_order))
    inputs = [inputs[i] for i in cond_order]
    outputs = [outputs[i] for i in res_order]
    input_codes = list(map(cell_codes, inputs))
    output_codes = list(map(cell_codes, outputs))

    # A clocked don't-care output leaves the register alone, which is
    # exactly a hold; normalize to the hold spelling, in the columns
    # that hold one.
    changed = set()  # the kept rows to build anew, by index
    if table.clocking is Clocking.CLOCKED:
        for j, name in enumerate(results):
            codes = output_codes[j]
            if math.inf not in codes:
                continue
            hold = SignalRef(name)
            spelled = [code is math.inf for code in codes]
            changed.update(itertools.compress(range(count), spelled))
            outputs[j] = tuple(hold if x else cell
                               for cell, x in zip(outputs[j], spelled))
            output_codes[j] = tuple(name if x else code
                                    for code, x in zip(codes, spelled))
    if not in_order:
        rows = list(map(CaseRow, _rows(inputs, count),
                        _rows(outputs, count)))
    else:
        changed.update(itertools.compress(range(count), map(
            (None, None).__ne__,
            map(operator.attrgetter("label", "comment"), rows))))
        if changed:
            output_rows = list(_rows(outputs, count))
            for i in changed:
                rows[i] = CaseRow(rows[i].inputs, output_rows[i])
    keys = list(_rows(input_codes, count))
    codes = list(zip(keys, _rows(output_codes, count)))
    if sort_rows:
        try:
            order = sorted(range(count), key=keys.__getitem__)
        except TypeError:  # a signal beside a number in one column
            order = sorted(range(count), key=lambda i: tuple(
                (type(code) is str, code) for code in keys[i]))
        pick = picker(order)
        rows, codes = pick(rows), pick(codes)

    ports = tuple(sorted(table.ports.entries,
                         key=lambda p: (p.direction.value, p.name)))
    canonical = Lct(name=table.name, clocking=table.clocking,
                    conditions=conditions, results=results,
                    rows=tuple(rows), ports=PortMap(ports), feedback=())
    # The codes exist before the table, which is sorted by them.
    kept(canonical, "_row_codes", lambda _: tuple(codes))
    return canonical


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
