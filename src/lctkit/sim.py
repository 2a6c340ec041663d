"""
Reference interpreter for LCTs.

First-match semantics: the earliest row whose condition cells all match
the inputs determines the outputs.  A value is the table's own object: a
constant is its cell's ``BitVector``, an input supplied is that input's
``BitVector``, and a pass-through of an input not supplied is its
``SignalRef`` cell, whose ``str`` is the input's name; ``HOLD`` and
``UNSPEC`` mark a kept register and an undefined output.

``symbolic_outputs`` is the brute-force oracle: it scans the rows one by
one, up to the first that matches, or reads them as ``compile_rows``
gives them (``first_match``) when a caller that asks about many points
passes them.  ``equiv.compare`` takes every counterexample from it,
compiling nothing, and the bitset walks are tested against it.
Every other first-match decision reads the table's one kernel, kept on
it by ``model.kept``: the row bitsets of ``column_bitsets``, which
``analysis.match_blocks`` walks and evaluation ANDs once per condition
column, and the rows' outputs, resolved when first needed and read at
the lowest set bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional

from . import expr
from .model import (
    BitVector,
    Clocking,
    Constant,
    DontCare,
    Lct,
    LctError,
    LiteralError,
    SignalHeader,
    SignalRef,
    kept,
    parse_literal,
)


class SimError(LctError):
    """Missing input, clocking misuse, or similar simulation failure."""


# ---------------------------------------------------------------------------
# Symbolic values: a BitVector, a SignalRef, HOLD or UNSPEC

@dataclass(frozen=True, slots=True)
class Hold:
    """The register keeps its prior value (clocked tables only)."""

    def __str__(self):
        return "<hold>"


@dataclass(frozen=True, slots=True)
class Unspecified:
    """No row matched a combinational table; the output is undefined."""

    def __str__(self):
        return "<unspecified>"


HOLD = Hold()
UNSPEC = Unspecified()


@dataclass(frozen=True, slots=True)
class SeqState:
    """Register contents of a clocked table between cycles."""
    registers: tuple  # of (name, value) pairs, in result order

    def get(self, name: str):
        for n, v in self.registers:
            if n == name:
                return v
        raise SimError(f"no register named {name}")


def initial_state(table: Lct) -> SeqState:
    """All registers zero, matching reset-dominated designs."""
    regs = tuple(
        (name, BitVector(table.result_width(name), 0))
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
    return [tuple((idx, cell.bv.value) for idx, cell in enumerate(row.inputs)
                  if isinstance(cell, Constant))
            for row in table.rows]


def row_matches(constraints: tuple, assignment: tuple) -> bool:
    return all(assignment[idx] == value for idx, value in constraints)


def first_match(compiled: List[tuple], assignment: tuple) -> Optional[int]:
    for i, constraints in enumerate(compiled):
        if row_matches(constraints, assignment):
            return i
    return None


def column_bitsets(table: Lct) -> List[tuple]:
    """Per condition column, ``(by_value, wild)``: bit i of ``wild`` is
    set when row i accepts any value there, and ``by_value`` maps each
    value some row requires to the rows that accept it.  ANDing
    ``by_value.get(value, wild)`` over the columns leaves the rows that
    match an assignment (the bit-vector scheme of first-match packet
    classification)."""
    columns = []
    for c in range(len(table.conditions)):
        exact, wild = {}, 0
        for i, row in enumerate(table.rows):
            cell = row.inputs[c]
            if isinstance(cell, Constant):
                exact[cell.bv.value] = exact.get(cell.bv.value, 0) | 1 << i
            else:
                wild |= 1 << i
        columns.append(({v: bits | wild for v, bits in exact.items()}, wild))
    return columns


def first_row(m: int) -> int:
    """Index of the lowest set bit of a match set; -1 when it is empty."""
    return (m & -m).bit_length() - 1


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
    return {h.key: value for h, value in zip(table.conditions, assignment)}


def resolve_cell(table: Lct, result: str, cell,
                 inputs: Optional[Mapping[str, BitVector]] = None):
    """Resolve one output cell to a symbolic value.  SignalRef cells
    naming their own column hold, as do don't-cares in a clocked table;
    a constant is its own ``bv`` and a reference to a supplied input that
    input's value; other references pass through as the cell itself."""
    if isinstance(cell, Constant):
        return cell.bv
    if isinstance(cell, DontCare):
        return HOLD if table.clocking is Clocking.CLOCKED else UNSPEC
    if isinstance(cell, SignalRef):
        if cell.name == result:
            return HOLD
        if inputs is not None and cell.name in inputs:
            return inputs[cell.name]
        return cell
    raise SimError(f"bad output cell {cell!r}")


def _scan(table: Lct, assignment: tuple) -> Optional[int]:
    """``first_match`` of the rows themselves: a row is left at its first
    constant cell that differs from the assignment."""
    for i, row in enumerate(table.rows):
        for cell, value in zip(row.inputs, assignment):
            if isinstance(cell, Constant) and cell.bv.value != value:
                break
        else:
            return i
    return None


def symbolic_outputs(table: Lct, assignment: tuple,
                     compiled: Optional[List[tuple]] = None) -> tuple:
    """Outputs at one control assignment, with condition signals treated
    as known values.  Unmatched assignments yield all-unspecified for
    combinational tables and all-hold for clocked tables.  Without
    ``compiled`` rows the table's rows are scanned in order, up to the
    first that matches: a caller that asks about one or two points
    compiles nothing, and one that asks about many passes
    ``compile_rows`` once."""
    if compiled is None:
        index = _scan(table, assignment)
    else:
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
    """The first-match form of one table: ``bitsets``, its
    ``column_bitsets``, and ``columns``, each column's bitsets with its
    header and input name (``None`` for an expression header).
    ``resolve`` sets, per row and last for no match, ``values``, the
    row's output values as ``resolve_cell`` gives them without inputs,
    and ``errors``, the ``SimError`` text of a bad output cell or None.
    An error is raised only when its row matches, after the values of
    the cells before it, which are all its row keeps."""

    __slots__ = ("bitsets", "columns", "full", "results", "values",
                 "errors")

    def __init__(self, table: Lct):
        self.bitsets = column_bitsets(table)
        self.columns = [
            (header, header.name if isinstance(header, SignalHeader) else None,
             by_value, wild)
            for header, (by_value, wild) in zip(table.conditions,
                                                self.bitsets)]
        self.full = (1 << len(table.rows)) - 1
        self.results = table.results
        self.values = None

    def resolve(self, table: Lct) -> "_Kernel":
        """The kernel, ``table``'s outputs resolved on the first call."""
        if self.values is not None:
            return self
        values, errors = [], []
        for row in table.rows:
            cells, error = [], None
            try:
                for name, cell in zip(table.results, row.outputs):
                    cells.append(cell.bv if type(cell) is Constant
                                 else resolve_cell(table, name, cell))
            except SimError as e:
                error = str(e)
            values.append(tuple(cells))
            errors.append(error)
        fallback = HOLD if table.clocking is Clocking.CLOCKED else UNSPEC
        values.append((fallback,) * len(table.results))
        errors.append(None)
        self.values, self.errors = values, errors
        return self

    def row(self, inputs: Mapping[str, BitVector]) -> int:
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
        return first_row(m)

    def comb(self, inputs: Mapping[str, BitVector]) -> Dict[str, object]:
        index = self.row(inputs)
        if self.errors[index] is not None:
            raise SimError(self.errors[index])
        return {name: inputs.get(value.name, value)
                if type(value) is SignalRef else value
                for name, value in zip(self.results, self.values[index])}

    def step(self, state: SeqState,
             inputs: Mapping[str, BitVector]) -> SeqState:
        index = self.row(inputs)
        if index < 0:
            return state
        regs = []
        for name, value in zip(self.results, self.values[index]):
            if type(value) is SignalRef:
                value = inputs.get(value.name, value)
            elif value is HOLD:
                value = state.get(name)
            regs.append((name, value))
        if self.errors[index] is not None:
            raise SimError(self.errors[index])
        return SeqState(tuple(regs))


def _kernel(table: Lct) -> _Kernel:
    return kept(table, "_sim_kernel", _Kernel)


def row_values(table: Lct) -> List[tuple]:
    """Per row, its output values as ``resolve_cell`` gives them without
    inputs, and last the values when no row matches, which ``first_row``
    of an empty match set (-1) finds.  Raises the ``SimError`` of the
    first bad output cell."""
    kernel = _kernel(table).resolve(table)
    error = next(filter(None, kernel.errors), None)
    if error is not None:
        raise SimError(error)
    return kernel.values


def eval_comb(table: Lct, inputs: Mapping[str, BitVector]) -> Dict[str, object]:
    """Evaluate a combinational table for one input vector."""
    if table.clocking is not Clocking.COMBINATIONAL:
        raise SimError("eval_comb requires a combinational table")
    return _kernel(table).resolve(table).comb(inputs)


def step_clocked(table: Lct, state: SeqState,
                 inputs: Mapping[str, BitVector]) -> SeqState:
    """Advance a clocked table by one cycle.  Hold and don't-care cells
    and unmatched inputs keep the prior register values."""
    if table.clocking is not Clocking.CLOCKED:
        raise SimError("step_clocked requires a clocked table")
    return _kernel(table).resolve(table).step(state, inputs)


def run_trace(table: Lct,
              stimulus: List[Mapping[str, BitVector]]) -> List[SeqState]:
    """Run a clocked table over a stimulus sequence, closing any feedback
    bindings: each cycle's bound condition input comes from the previous
    state's bound result."""
    if table.clocking is not Clocking.CLOCKED:
        raise SimError("run_trace requires a clocked table")
    state = initial_state(table)
    step = _kernel(table).resolve(table).step
    states = []
    for cycle, vector in enumerate(stimulus):
        inputs = vector
        if table.feedback:
            inputs = dict(vector)
            for result, cond in table.feedback:
                if cond in inputs:
                    continue
                value = state.get(result)
                if not isinstance(value, BitVector):
                    raise SimError(
                        f"cycle {cycle}: feedback {result} -> {cond} is not "
                        f"a known value ({value})")
                inputs[cond] = value
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
    # (text, width) -> value for this stimulus, as ``tableio`` shares
    # cells; a value that fails is not kept, so each occurrence raises.
    parsed = {}
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
        key = (value, width or 32)
        bv = parsed.get(key)
        if bv is None:
            try:
                bv = parsed[key] = parse_literal(*key)
            except LiteralError as e:
                raise SimError(f"stimulus line {lineno}: {e}")
        current[name] = bv
        started = True
    if started:
        cycles.append(current)
    return cycles


def format_trace(states: List[SeqState]) -> str:
    """Render a trace in the stimulus grammar, one cycle per block."""
    blocks = []
    for state in states:
        lines = [f"{name}={value}" for name, value in state.registers]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
