"""
Forward transform: compile an LCT to a synthesizable Verilog-subset
module, and a connectivity table to a structural top module.

Row order maps directly onto if/else-if (or casez arm) priority, so the
generated module implements exactly the table's first-match semantics.
Output is deterministic: identical inputs give byte-identical text.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Mapping, Tuple

from .model import (
    Clocking,
    ConnectivityTable,
    Constant,
    DontCare,
    Direction,
    ExprHeader,
    Lct,
    LctError,
    NetContext,
    PortMap,
    SignalHeader,
    SignalRef,
    validate_lct,
)
from . import tableio

STYLE_IF = "if"
STYLE_CASE = "case"

CLOCK_NAME = "clk"


class CodegenError(LctError):
    """The table cannot be compiled as requested."""


def _digest(table: Lct) -> str:
    # Called after `generate` has validated the table.
    doc = tableio._render_unit_doc(table)
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


def _guard_terms(table: Lct, row) -> List[str]:
    terms = []
    for header, cell in zip(table.conditions, row.inputs):
        if isinstance(cell, DontCare):
            continue
        assert isinstance(cell, Constant)
        if isinstance(header, SignalHeader):
            terms.append(f"({header.name} == {cell.bv.binary()})")
        else:
            # With the process's `begin` and the `if`, this wrapping is
            # what expr.GUARD_DEPTH counts.
            text = header.canonical
            terms.append(f"({text})" if cell.bv.value else f"(!({text}))")
    return terms


def _assignments(table: Lct, row, assign_op: str, indent: str) -> List[str]:
    lines = []
    for name, cell in zip(table.results, row.outputs):
        if isinstance(cell, Constant):
            lines.append(f"{indent}{name} {assign_op} {cell.bv.binary()};")
        elif isinstance(cell, SignalRef):
            if cell.name == name:
                lines.append(f"{indent}// hold {name}")
            else:
                lines.append(f"{indent}{name} {assign_op} {cell.name};")
        # DontCare output cells assign nothing: default (comb) or hold.
    return lines


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
    violations = validate_lct(table)
    if violations:
        raise CodegenError("invalid table: " +
                           "; ".join(str(v) for v in violations))
    if style not in (STYLE_IF, STYLE_CASE):
        raise CodegenError(f"unknown style {style!r}")
    if style == STYLE_CASE and any(isinstance(h, ExprHeader)
                                   for h in table.conditions):
        raise CodegenError(
            "case style requires pure signal condition headers; "
            "use the if style for expression conditions")

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
    for i, row in enumerate(table.rows):
        terms = _guard_terms(table, row)
        guard = " && ".join(terms) if terms else "1'b1"
        opener = "if" if i == 0 else "end else if"
        lines.append(f"  {opener} ({guard}) begin")
        lines.extend(_assignments(table, row, assign_op, "    "))
    if table.rows:
        lines.append("  end")
    return lines


def _casez(table: Lct, assign_op: str) -> List[str]:
    names = [h.name for h in table.conditions]
    widths = [table.condition_width(h) for h in table.conditions]
    subject = names[0] if len(names) == 1 else "{" + ", ".join(names) + "}"
    total = sum(widths)
    lines = [f"  casez ({subject})"]
    for row in table.rows:
        bits = []
        for width, cell in zip(widths, row.inputs):
            if isinstance(cell, DontCare):
                bits.append("?" * width)
            else:
                bits.append(f"{cell.bv.value:0{width}b}")
        lines.append(f"    {total}'b{''.join(bits)}: begin")
        lines.extend(_assignments(table, row, assign_op, "      "))
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
    net_sizes: Dict[str, int] = {}
    net_context: Dict[str, NetContext] = {}
    net_driven: Dict[str, bool] = {}
    order: List[str] = []

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
            if b.net not in net_sizes:
                net_sizes[b.net] = b.size
                net_context[b.net] = b.context
                net_driven[b.net] = False
                order.append(b.net)
            if b.direction is Direction.OUTPUT:
                net_driven[b.net] = True

    externals = [n for n in order if net_context[n] is NetContext.EXTERNAL]
    internals = [n for n in order if net_context[n] is NetContext.INTERNAL]

    lines = [f"// structural unit: {conn.top}", f"module {conn.top} ("]
    for i, net in enumerate(externals):
        direction = "output" if net_driven[net] else "input"
        comma = "," if i + 1 < len(externals) else ""
        lines.append(f"  {direction} wire {_range(net_sizes[net])}{net}{comma}")
    lines.append(");")
    lines.append("")
    for net in internals:
        lines.append(f"  wire {_range(net_sizes[net])}{net};")
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
