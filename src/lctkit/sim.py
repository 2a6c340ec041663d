"""
Reference interpreter for LCTs.

First-match semantics: the earliest row whose condition cells all match
the inputs determines the outputs.  Control inputs resolve to concrete
values; data inputs pass through as opaque tokens.

``symbolic_outputs`` is the brute-force oracle: it scans the rows one by
one (``compile_rows``, ``first_match``).  ``equiv.compare`` takes every
counterexample from it, and the bitset walks of ``analysis`` and
``equiv`` (``analysis.match_sets``) are tested against it.
``eval_comb``, ``step_clocked`` and ``run_trace`` find their row with a
kernel built once per table instance: the row bitsets of
``column_bitsets``, one AND per condition column, and the lowest set
bit, whose output cells are resolved in advance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from . import expr
from .model import (
    BitVector,
    CaseRow,
    Clocking,
    Constant,
    DontCare,
    Lct,
    LctError,
    SignalHeader,
    SignalRef,
)


class SimError(LctError):
    """Missing input, clocking misuse, or similar simulation failure."""


# ---------------------------------------------------------------------------
# Symbolic values

@dataclass(frozen=True)
class Known:
    bv: BitVector

    def __str__(self):
        return str(self.bv.value)


@dataclass(frozen=True)
class Token:
    """An opaque pass-through of a data input signal."""
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Hold:
    """The register keeps its prior value (clocked tables only)."""

    def __str__(self):
        return "<hold>"


@dataclass(frozen=True)
class Unspecified:
    """No row matched a combinational table; the output is undefined."""

    def __str__(self):
        return "<unspecified>"


HOLD = Hold()
UNSPEC = Unspecified()


@dataclass(frozen=True)
class SeqState:
    """Register contents of a clocked table between cycles."""
    registers: tuple  # of (name, SymValue) pairs, in result order

    def get(self, name: str):
        for n, v in self.registers:
            if n == name:
                return v
        raise SimError(f"no register named {name}")

    def as_dict(self) -> dict:
        return dict(self.registers)


def initial_state(table: Lct) -> SeqState:
    """All registers zero, matching reset-dominated designs."""
    regs = tuple(
        (name, Known(BitVector(table.result_width(name), 0)))
        for name in table.results)
    return SeqState(regs)


# ---------------------------------------------------------------------------
# Row matching over control assignments

def control_columns(table: Lct) -> List[tuple]:
    """(key, width) per condition column: port width for signal headers,
    one bit for expression headers."""
    return [(h.key, table.condition_width(h)) for h in table.conditions]


def control_space_size(table: Lct) -> int:
    size = 1
    for _, width in control_columns(table):
        size <<= width
    return size


def compile_rows(table: Lct) -> List[tuple]:
    """Per row, the tuple of (column index, required value) constraints;
    don't-care cells impose no constraint."""
    compiled = []
    for row in table.rows:
        constraints = []
        for idx, cell in enumerate(row.inputs):
            if isinstance(cell, Constant):
                constraints.append((idx, cell.bv.value))
        compiled.append(tuple(constraints))
    return compiled


def row_matches(constraints: tuple, assignment: tuple) -> bool:
    return all(assignment[idx] == value for idx, value in constraints)


def first_match(compiled: List[tuple], assignment: tuple) -> Optional[int]:
    for i, constraints in enumerate(compiled):
        if row_matches(constraints, assignment):
            return i
    return None


def column_bitsets(table: Lct,
                   rows: Optional[Sequence[CaseRow]] = None) -> List[tuple]:
    """Per condition column, ``(by_value, wild)``: bit i of ``wild`` is
    set when row i (of ``rows``, by default the table's own) accepts any
    value there, and ``by_value`` maps each value some row requires to
    the rows that accept it.  ANDing ``by_value.get(value, wild)`` over
    the columns leaves the rows that match an assignment (the bit-vector
    scheme of first-match packet classification)."""
    rows = table.rows if rows is None else rows
    columns = []
    for c in range(len(table.conditions)):
        exact, wild = {}, 0
        for i, row in enumerate(rows):
            cell = row.inputs[c]
            if isinstance(cell, Constant):
                exact[cell.bv.value] = exact.get(cell.bv.value, 0) | 1 << i
            else:
                wild |= 1 << i
        columns.append(({v: bits | wild for v, bits in exact.items()}, wild))
    return columns


def stack_bitsets(low: List[tuple], high: List[tuple], n: int) -> List[tuple]:
    """The ``column_bitsets`` of ``n`` rows followed by more, from those
    of each part: ``high``'s bits shifted up past ``low``'s rows."""
    return [({v: by_low.get(v, wild_low) | by_high.get(v, wild_high) << n
              for v in by_low.keys() | by_high.keys()},
             wild_low | wild_high << n)
            for (by_low, wild_low), (by_high, wild_high) in zip(low, high)]


def enumerate_assignments(table: Lct) -> Iterable[tuple]:
    widths = [w for _, w in control_columns(table)]
    return itertools.product(*(range(1 << w) for w in widths))


def assignment_dict(table: Lct, assignment: tuple) -> dict:
    return {key: value
            for (key, _), value in zip(control_columns(table), assignment)}


def resolve_cell(table: Lct, result: str, cell,
                 inputs: Optional[Mapping[str, BitVector]] = None):
    """Resolve one output cell to a symbolic value.  SignalRef cells
    naming their own column hold, as do don't-cares in a clocked table;
    references to supplied inputs become known values; other references
    pass through as tokens."""
    if isinstance(cell, Constant):
        return Known(cell.bv)
    if isinstance(cell, DontCare):
        return HOLD if table.clocking is Clocking.CLOCKED else UNSPEC
    if isinstance(cell, SignalRef):
        if cell.name == result:
            return HOLD
        if inputs is not None and cell.name in inputs:
            return Known(inputs[cell.name])
        return Token(cell.name)
    raise SimError(f"bad output cell {cell!r}")


def symbolic_outputs(table: Lct, assignment: tuple,
                     compiled: Optional[List[tuple]] = None) -> tuple:
    """Outputs at one control assignment, with condition signals treated
    as known values.  Unmatched assignments yield all-unspecified for
    combinational tables and all-hold for clocked tables."""
    if compiled is None:
        compiled = compile_rows(table)
    index = first_match(compiled, assignment)
    if index is None:
        fallback = HOLD if table.clocking is Clocking.CLOCKED else UNSPEC
        return tuple(fallback for _ in table.results)
    known = {}
    for (key, width), value in zip(control_columns(table), assignment):
        if table.ports.get(key) is not None:
            known[key] = BitVector(width, value)
    row = table.rows[index]
    return tuple(
        resolve_cell(table, name, cell, known)
        for name, cell in zip(table.results, row.outputs))


# ---------------------------------------------------------------------------
# Table evaluation over named inputs

class _Kernel:
    """First-match evaluation of one table.  ``columns`` holds, per
    condition column, its header, its input name (``None`` for an
    expression header) and its ``column_bitsets``.  ``outputs`` holds,
    per row and then for no match (``first_row`` -1), a pair: the row's
    ``(result, value, read)`` cells, with ``value`` as ``resolve_cell``
    gives it without inputs and ``read`` the input that a pass-through
    reads when that input is supplied; and the text of the ``SimError``
    for a bad output cell, or None.  That error is raised only when the
    row matches, after the cells before it."""

    __slots__ = ("columns", "full", "outputs")

    def __init__(self, table: Lct):
        self.columns = [
            (header, header.name if isinstance(header, SignalHeader) else None,
             by_value, wild)
            for header, (by_value, wild) in zip(table.conditions,
                                                column_bitsets(table))]
        self.full = (1 << len(table.rows)) - 1
        fallback = HOLD if table.clocking is Clocking.CLOCKED else UNSPEC
        self.outputs = [_resolved_cells(table, row) for row in table.rows]
        self.outputs.append(
            (tuple((name, fallback, None) for name in table.results), None))

    def first_row(self, inputs: Mapping[str, BitVector]) -> int:
        """The first-match row at ``inputs``, or -1.  Every column is
        read in order, so the first missing input or failing expression
        raises even when an earlier column matches no row."""
        m = self.full
        for header, name, by_value, wild in self.columns:
            if name is None:
                value = expr.truth(header.tree, inputs)
            else:
                bv = inputs.get(name)
                if bv is None:
                    raise SimError(f"missing condition input {name}")
                value = bv.value
            m &= by_value.get(value, wild)
        return (m & -m).bit_length() - 1

    def comb(self, inputs: Mapping[str, BitVector]) -> Dict[str, object]:
        cells, error = self.outputs[self.first_row(inputs)]
        out = {}
        for name, value, read in cells:
            if read is not None and read in inputs:
                value = Known(inputs[read])
            out[name] = value
        if error is not None:
            raise SimError(error)
        return out

    def step(self, state: SeqState,
             inputs: Mapping[str, BitVector]) -> SeqState:
        index = self.first_row(inputs)
        if index < 0:
            return state
        cells, error = self.outputs[index]
        regs = []
        for name, value, read in cells:
            if read is not None and read in inputs:
                value = Known(inputs[read])
            elif value is HOLD:
                value = state.get(name)
            regs.append((name, value))
        if error is not None:
            raise SimError(error)
        return SeqState(tuple(regs))


def _resolved_cells(table: Lct, row: CaseRow) -> tuple:
    cells = []
    for name, cell in zip(table.results, row.outputs):
        try:
            value = resolve_cell(table, name, cell)
        except SimError as e:
            return tuple(cells), str(e)
        cells.append((name, value,
                      cell.name if isinstance(value, Token) else None))
    return tuple(cells), None


def _kernel(table: Lct) -> _Kernel:
    """The table's kernel, built on first use and kept in the instance's
    ``__dict__`` as ``functools.cached_property`` keeps a value: it is
    freed with the table, and a ``dataclasses.replace``d table, being a
    new instance, builds its own."""
    kernel = table.__dict__.get("_sim_kernel")
    if kernel is None:
        kernel = table.__dict__["_sim_kernel"] = _Kernel(table)
    return kernel


def eval_comb(table: Lct, inputs: Mapping[str, BitVector]) -> Dict[str, object]:
    """Evaluate a combinational table for one input vector."""
    if table.clocking is not Clocking.COMBINATIONAL:
        raise SimError("eval_comb requires a combinational table")
    return _kernel(table).comb(inputs)


def step_clocked(table: Lct, state: SeqState,
                 inputs: Mapping[str, BitVector]) -> SeqState:
    """Advance a clocked table by one cycle.  Hold and don't-care cells
    and unmatched inputs keep the prior register values."""
    if table.clocking is not Clocking.CLOCKED:
        raise SimError("step_clocked requires a clocked table")
    return _kernel(table).step(state, inputs)


def run_trace(table: Lct,
              stimulus: List[Mapping[str, BitVector]]) -> List[SeqState]:
    """Run a clocked table over a stimulus sequence, closing any feedback
    bindings: each cycle's bound condition input comes from the previous
    state's bound result."""
    if table.clocking is not Clocking.CLOCKED:
        raise SimError("run_trace requires a clocked table")
    state = initial_state(table)
    step = _kernel(table).step
    states = []
    for cycle, vector in enumerate(stimulus):
        inputs = vector
        if table.feedback:
            inputs = dict(vector)
            for result, cond in table.feedback:
                if cond in inputs:
                    continue
                value = state.get(result)
                if not isinstance(value, Known):
                    raise SimError(
                        f"cycle {cycle}: feedback {result} -> {cond} is not "
                        f"a known value ({value})")
                inputs[cond] = value.bv
        state = step(state, inputs)
        states.append(state)
    return states


# ---------------------------------------------------------------------------
# Stimulus file grammar: name=value lines per cycle, blank-line separated

def parse_stimulus(text: str, table: Optional[Lct] = None) -> List[dict]:
    """Parse a stimulus file into per-cycle input maps.  Values are parsed
    with the table's port widths when a table is given."""
    cycles = []
    current = {}
    started = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            if started:
                cycles.append(current)
                current = {}
                started = False
            continue
        if "=" not in line:
            raise SimError(f"stimulus line {lineno}: expected name=value")
        name, value = (part.strip() for part in line.split("=", 1))
        width = None
        if table is not None:
            port = table.ports.get(name)
            if port is not None:
                width = port.width
        from .model import parse_literal
        current[name] = parse_literal(value, default_width=width or 32)
        started = True
    if started:
        cycles.append(current)
    return cycles


def format_trace(table: Lct, states: List[SeqState]) -> str:
    """Render a trace in the stimulus grammar, one cycle per block."""
    blocks = []
    for state in states:
        lines = [f"{name}={value}" for name, value in state.registers]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
