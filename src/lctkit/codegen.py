"""
Forward transform: compile an LCT to a synthesizable Verilog-subset
module, and a connectivity table to a structural top module.

Row order maps directly onto if/else-if (or casez arm) priority, so the
generated module implements exactly the table's first-match semantics.
Output is deterministic: identical inputs give byte-identical text.
"""

from __future__ import annotations

import hashlib
from typing import List, Mapping, Tuple

from .model import (
    Clocking,
    ConnectivityTable,
    Constant,
    Direction,
    Lct,
    LctError,
    NetContext,
    PortMap,
    SignalHeader,
    SignalRef,
)
from . import tableio

STYLE_IF = "if"
STYLE_CASE = "case"

CLOCK_NAME = "clk"


class CodegenError(LctError):
    """The table cannot be compiled as requested."""


def _digest(table: Lct) -> str:
    doc = tableio.serialize_unit_doc(table)
    return hashlib.sha256(doc.encode()).hexdigest()[:12]


def _range(width: int) -> str:
    return f"[{width - 1}:0] " if width > 1 else ""


def _port_decls(table: Lct) -> List[str]:
    decls = []
    if table.clocking is Clocking.CLOCKED and table.ports.get(CLOCK_NAME) is None:
        decls.append(f"input wire {CLOCK_NAME}")
    result_set = set(table.results)
    for port in table.ports.entries:
        if port.direction is Direction.INPUT:
            decls.append(f"input wire {_range(port.width)}{port.name}")
        else:
            kind = "reg" if port.name in result_set else "wire"
            decls.append(f"output {kind} {_range(port.width)}{port.name}")
    return decls


def _guards(table: Lct) -> List[str]:
    """Each row's `if` guard.  For this call, each column keeps the term
    it formatted for each value, and a later row with that value reuses
    the text: a valid column's constants differ only in value."""
    names, memos = [], []
    for header in table.conditions:
        if isinstance(header, SignalHeader):
            names.append(header.name)
            memos.append({})
        else:
            # An expression column's cells are 0 or 1.  With the process's
            # `begin` and the `if`, this wrapping opens the 4 levels
            # expr.GUARD_DEPTH counts.
            text = header.canonical
            names.append(None)
            memos.append({0: f"(!({text}))", 1: f"({text})"})
    guards = []
    for row in table.rows:
        terms = []
        for name, texts, cell in zip(names, memos, row.inputs):
            if type(cell) is Constant:  # else a don't care
                bv = cell.bv
                text = texts.get(bv.value)
                if text is None:
                    text = texts[bv.value] = \
                        f"({name} == {bv.width}'b{bv.value:0{bv.width}b})"
                terms.append(text)
        guards.append(" && ".join(terms) if terms else "1'b1")
    return guards


def _assignments(table: Lct, assign_op: str,
                 indent: str) -> List[List[str]]:
    """Each row's assignment lines.  For this call, each column keeps the
    line it formatted for each value or signal, as ``_guards`` does."""
    names = table.results
    memos = [{} for _ in names]
    rows = []
    for row in table.rows:
        lines = []
        for name, texts, cell in zip(names, memos, row.outputs):
            if type(cell) is Constant:
                bv = cell.bv
                text = texts.get(bv.value)
                if text is None:
                    text = texts[bv.value] = (
                        f"{indent}{name} {assign_op} "
                        f"{bv.width}'b{bv.value:0{bv.width}b};")
            elif type(cell) is SignalRef:
                text = texts.get(cell.name)
                if text is None:
                    text = texts[cell.name] = (
                        f"{indent}// hold {name}" if cell.name == name
                        else f"{indent}{name} {assign_op} {cell.name};")
            else:
                continue  # a don't care assigns nothing: default or hold
            lines.append(text)
        rows.append(lines)
    return rows


def _defaults(table: Lct, indent: str) -> List[str]:
    lines = []
    for name in table.results:
        width = table.result_width(name)
        lines.append(f"{indent}{name} = {width}'b{'0' * width};")
    return lines


def generate(table: Lct, style: str = STYLE_IF,
             async_reset: bool = False) -> Tuple[str, List[str]]:
    """Compile one table to Verilog text.  Returns (text, notes); notes
    flag inserted combinational defaults and similar decisions."""
    table.require_valid(CodegenError)
    if style not in (STYLE_IF, STYLE_CASE):
        raise CodegenError(f"unknown style {style!r}")

    notes: List[str] = []
    clocked = table.clocking is Clocking.CLOCKED
    lines = [f"// unit: {table.name}  digest: {_digest(table)}",
             f"module {table.name} ("]
    decls = _port_decls(table)
    for i, decl in enumerate(decls):
        comma = "," if i + 1 < len(decls) else ""
        lines.append(f"  {decl}{comma}")
    lines.append(");")
    lines.append("")

    if clocked:
        if async_reset:
            reset = _async_reset_signal(table)
            lines.append(f"always @(posedge {CLOCK_NAME} or negedge {reset}) "
                         "begin")
        else:
            lines.append(f"always @(posedge {CLOCK_NAME}) begin")
        assign_op = "<="
    else:
        lines.append("always @* begin")
        assign_op = "="
        lines.extend(_defaults(table, "  "))
        notes.append("combinational defaults inserted: all results "
                     "fall back to zero when no row matches")

    if style == STYLE_IF:
        lines.extend(_if_chain(table, assign_op))
    else:
        lines.extend(_casez(table, assign_op))
    lines.append("end")
    lines.append("")
    lines.append("endmodule")
    return "\n".join(lines) + "\n", notes


def gen_unit(table: Lct, style: str = STYLE_IF,
             async_reset: bool = False) -> str:
    return generate(table, style, async_reset)[0]


def _async_reset_signal(table: Lct) -> str:
    if not table.rows:
        raise CodegenError("async reset form needs a reset row")
    row = table.rows[0]
    for header, cell in zip(table.conditions, row.inputs):
        if (isinstance(header, SignalHeader) and isinstance(cell, Constant)
                and cell.bv.width == 1 and cell.bv.value == 0
                and header.name.lower().startswith(("rst", "reset"))):
            return header.name
    raise CodegenError(
        "async reset form requires row 0 to pin an rst*/reset* signal to 0")


def _if_chain(table: Lct, assign_op: str) -> List[str]:
    lines = []
    opener = "if"
    for guard, assigns in zip(_guards(table),
                              _assignments(table, assign_op, "    ")):
        lines.append(f"  {opener} ({guard}) begin")
        lines.extend(assigns)
        opener = "end else if"
    if table.rows:
        lines.append("  end")
    return lines


def _casez(table: Lct, assign_op: str) -> List[str]:
    # An expression column is one bit of the subject, its truth value.
    # With the process's `begin` and the `{`, its `(... != 0)` opens 3
    # of the levels expr.GUARD_DEPTH counts.
    names = [h.name if isinstance(h, SignalHeader) else f"({h.canonical} != 0)"
             for h in table.conditions]
    widths = [table.condition_width(h) for h in table.conditions]
    subject = names[0] if len(names) == 1 else "{" + ", ".join(names) + "}"
    total = sum(widths)
    if not names:  # a constant function: every arm's label is the subject
        subject, total = "1'b1", 1
    lines = [f"  casez ({subject})"]
    # For this call, each column keeps the bits it formatted for each
    # value, as ``_guards`` does; None is a don't care.
    memos = [{None: "?" * width} for width in widths]
    for row, assigns in zip(table.rows,
                            _assignments(table, assign_op, "      ")):
        bits = []
        for width, texts, cell in zip(widths, memos, row.inputs):
            if type(cell) is Constant:
                text = texts.get(cell.bv.value)
                if text is None:
                    text = texts[cell.bv.value] = f"{cell.bv.value:0{width}b}"
                bits.append(text)
            else:
                bits.append(texts[None])
        lines.append(f"    {total}'b{''.join(bits) or '1'}: begin")
        lines += assigns
        lines.append("    end")
    lines.append("    default: ;")
    lines.append("  endcase")
    return lines


# ---------------------------------------------------------------------------
# Structural top generation

def gen_structural(conn: ConnectivityTable,
                   units: Mapping[str, PortMap]) -> str:
    """Emit a structural top module: external ports, internal nets, and
    one named-binding instantiation per instance."""
    for inst in conn.instances:
        portmap = units.get(inst.unit)
        if portmap is None:
            raise CodegenError(f"unknown unit {inst.unit} "
                               f"(instance {inst.name})")
        for b in inst.bindings:
            port = portmap.get(b.port)
            if port is None:
                raise CodegenError(
                    f"instance {inst.name}: unit {inst.unit} has no port "
                    f"{b.port}")
            if port.direction is not b.direction:
                raise CodegenError(
                    f"instance {inst.name} port {b.port}: direction "
                    f"mismatch with unit {inst.unit}")
            if port.width != b.size:
                raise CodegenError(
                    f"instance {inst.name} port {b.port}: binding size "
                    f"{b.size} != port width {port.width}")

    # Each net, in order of first appearance, as its first binding sizes
    # it; an external net is an output when some binding drives it.
    externals, internals = [], []
    for net, uses in conn.nets().items():
        first = uses[0][1]
        if first.context is NetContext.INTERNAL:
            internals.append(f"  wire {_range(first.size)}{net};")
        else:
            driven = any(b.direction is Direction.OUTPUT for _, b in uses)
            externals.append(f"{'output' if driven else 'input'} wire "
                             f"{_range(first.size)}{net}")

    lines = [f"// structural unit: {conn.top}", f"module {conn.top} ("]
    for i, port in enumerate(externals):
        comma = "," if i + 1 < len(externals) else ""
        lines.append(f"  {port}{comma}")
    lines.append(");")
    lines.append("")
    lines += internals
    if internals:
        lines.append("")
    for inst in conn.instances:
        lines.append(f"  {inst.unit} {inst.name} (")
        for i, b in enumerate(inst.bindings):
            comma = "," if i + 1 < len(inst.bindings) else ""
            lines.append(f"    .{b.port}({b.net}){comma}")
        lines.append("  );")
        lines.append("")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
