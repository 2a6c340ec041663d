"""
Reference interpreter for LCTs.

First-match semantics: the earliest row whose condition cells all match
the inputs determines the outputs.  Control inputs resolve to concrete
values; data inputs pass through as opaque tokens.  This module is the
brute-force oracle: it scans the rows one by one.  ``analysis`` and
``equiv`` find matching rows with row bitsets instead
(``analysis.match_sets``) and are tested against it; ``equiv.compare``
takes every counterexample from ``symbolic_outputs``.
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

def control_assignment(table: Lct, inputs: Mapping[str, BitVector]) -> tuple:
    """Project named inputs onto the table's condition columns."""
    values = []
    for header in table.conditions:
        if isinstance(header, SignalHeader):
            bv = inputs.get(header.name)
            if bv is None:
                raise SimError(f"missing condition input {header.name}")
            values.append(bv.value)
        else:
            values.append(expr.truth(header.tree, inputs))
    return tuple(values)


def eval_comb(table: Lct, inputs: Mapping[str, BitVector]) -> Dict[str, object]:
    """Evaluate a combinational table for one input vector."""
    if table.clocking is not Clocking.COMBINATIONAL:
        raise SimError("eval_comb requires a combinational table")
    assignment = control_assignment(table, inputs)
    compiled = compile_rows(table)
    index = first_match(compiled, assignment)
    if index is None:
        return {name: UNSPEC for name in table.results}
    row = table.rows[index]
    return {name: resolve_cell(table, name, cell, inputs)
            for name, cell in zip(table.results, row.outputs)}


def step_clocked(table: Lct, state: SeqState,
                 inputs: Mapping[str, BitVector]) -> SeqState:
    """Advance a clocked table by one cycle.  Hold and don't-care cells
    and unmatched inputs keep the prior register values."""
    if table.clocking is not Clocking.CLOCKED:
        raise SimError("step_clocked requires a clocked table")
    return _step(table, compile_rows(table), state, inputs)


def _step(table: Lct, compiled: List[tuple], state: SeqState,
          inputs: Mapping[str, BitVector]) -> SeqState:
    """``step_clocked`` over rows already compiled by ``compile_rows``."""
    assignment = control_assignment(table, inputs)
    index = first_match(compiled, assignment)
    if index is None:
        return state
    row = table.rows[index]
    regs = []
    for name, cell in zip(table.results, row.outputs):
        value = resolve_cell(table, name, cell, inputs)
        if value is HOLD:
            value = state.get(name)
        regs.append((name, value))
    return SeqState(tuple(regs))


def run_trace(table: Lct,
              stimulus: List[Mapping[str, BitVector]]) -> List[SeqState]:
    """Run a clocked table over a stimulus sequence, closing any feedback
    bindings: each cycle's bound condition input comes from the previous
    state's bound result."""
    if table.clocking is not Clocking.CLOCKED:
        raise SimError("run_trace requires a clocked table")
    state = initial_state(table)
    compiled = compile_rows(table)
    states = []
    for cycle, vector in enumerate(stimulus):
        inputs = dict(vector)
        for result, cond in table.feedback:
            if cond in inputs:
                continue
            value = state.get(result)
            if not isinstance(value, Known):
                raise SimError(
                    f"cycle {cycle}: feedback {result} -> {cond} is not a "
                    f"known value ({value})")
            inputs[cond] = value.bv
        state = _step(table, compiled, state, inputs)
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
