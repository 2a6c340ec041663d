"""
On-disk representation of design units: a line-oriented unit manifest plus
the LCT itself in CSV, and connectivity manifests for hierarchy.

Manifest grammar ('#' starts a comment):

    unit <name>
    clocking clocked|combinational
    inputs <n>
    outputs <m>
    port input|output <name> <width>
    feedback <result> -> <condition>
    table <csv-path>

CSV dialect: comma separated, no quoting, whitespace trimmed per cell,
mandatory header row.  An optional leading "Case" column and trailing
"Comments" column are preserved but carry no semantics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .model import (
    Binding,
    CaseRow,
    Clocking,
    ConnectivityTable,
    Constant,
    DONT_CARE,
    Direction,
    ExprHeader,
    IDENT_RE,
    Instance,
    Lct,
    LctError,
    NetContext,
    Port,
    PortMap,
    SignalHeader,
    SignalRef,
    cell_text,
    parse_literal,
    validate_lct,
)


class ParseError(LctError):
    """A malformed manifest or CSV, with source coordinates."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (
                f", column {column})" if column is not None else ")")
        super().__init__(message + where)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class UnitBundle:
    """A parsed unit together with its source text for diagnostics."""
    manifest_path: str
    lct: Lct
    manifest_text: str
    csv_text: str


def _manifest_fields(text: str) -> List[tuple]:
    fields = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields.append((lineno, line.split()))
    return fields


def parse_unit(manifest_text: str, csv_text: str) -> Lct:
    """Parse a manifest plus CSV into a validated Lct."""
    name = None
    clocking = None
    n_inputs = None
    n_outputs = None
    ports: List[Port] = []
    feedback: List[tuple] = []

    for lineno, words in _manifest_fields(manifest_text):
        keyword = words[0]
        if keyword == "unit" and len(words) == 2:
            name = words[1]
        elif keyword == "clocking" and len(words) == 2:
            try:
                clocking = Clocking(words[1])
            except ValueError:
                raise ParseError(f"unknown clocking {words[1]!r}", lineno)
        elif keyword == "inputs" and len(words) == 2:
            n_inputs = int(words[1])
        elif keyword == "outputs" and len(words) == 2:
            n_outputs = int(words[1])
        elif keyword == "port" and len(words) == 4:
            try:
                direction = Direction(words[1])
                ports.append(Port(direction, words[2], int(words[3])))
            except (ValueError, LctError) as e:
                raise ParseError(f"bad port declaration: {e}", lineno)
        elif keyword == "feedback" and len(words) == 4 and words[2] == "->":
            feedback.append((words[1], words[3]))
        elif keyword == "table" and len(words) == 2:
            pass  # CSV is supplied separately
        else:
            raise ParseError(f"unrecognized manifest line {' '.join(words)!r}",
                             lineno)

    for label, value in (("unit", name), ("clocking", clocking),
                         ("inputs", n_inputs), ("outputs", n_outputs)):
        if value is None:
            raise ParseError(f"manifest is missing the {label} line")

    portmap = PortMap(tuple(ports))
    table = _parse_csv(csv_text, name, clocking, n_inputs, n_outputs,
                       portmap, tuple(feedback))
    violations = validate_lct(table)
    if violations:
        raise ParseError("invalid table: " +
                         "; ".join(str(v) for v in violations))
    return table


def _parse_csv(csv_text, name, clocking, n_inputs, n_outputs, portmap,
               feedback) -> Lct:
    lines = [line for line in csv_text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty CSV", 1)
    header = [cell.strip() for cell in lines[0].split(",")]

    has_case = bool(header) and header[0].lower() == "case"
    if has_case:
        header = header[1:]
    has_comments = bool(header) and header[-1].lower() == "comments"
    if has_comments:
        header = header[:-1]
    if len(header) != n_inputs + n_outputs:
        raise ParseError(
            f"CSV header has {len(header)} data columns, manifest declares "
            f"{n_inputs} inputs + {n_outputs} outputs", 1)

    conditions = []
    for pos, text in enumerate(header[:n_inputs]):
        if IDENT_RE.match(text):
            conditions.append(SignalHeader(text))
        else:
            expr_header = ExprHeader(text)
            try:
                expr_header.tree
            except LctError as e:
                raise ParseError(f"bad condition header: {e}", 1, pos + 1)
            conditions.append(expr_header)
    results = []
    for pos, text in enumerate(header[n_inputs:]):
        if not IDENT_RE.match(text):
            raise ParseError(f"result header {text!r} is not an identifier",
                             1, n_inputs + pos + 1)
        results.append(text)

    def column_width(header_obj) -> Optional[int]:
        if isinstance(header_obj, ExprHeader):
            return 1
        port = portmap.get(header_obj.name)
        if port is None:
            raise ParseError(
                f"condition {header_obj.name} is not declared in the port map",
                1)
        return port.width

    cond_widths = [column_width(h) for h in conditions]
    result_widths = []
    for res in results:
        port = portmap.get(res)
        if port is None:
            raise ParseError(
                f"result {res} is not declared in the port map", 1)
        result_widths.append(port.width)

    # (side, text, width) -> cell for this CSV; a cell that fails is not
    # kept, so each occurrence raises at its own line and column.
    parsed = {}
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = [cell.strip() for cell in line.split(",")]
        label = None
        comment = None
        if has_case:
            if not cells:
                raise ParseError("missing Case cell", lineno, 1)
            label = cells[0]
            cells = cells[1:]
        if has_comments:
            if len(cells) == n_inputs + n_outputs + 1:
                comment = cells[-1]
                cells = cells[:-1]
            elif len(cells) != n_inputs + n_outputs:
                raise ParseError(
                    f"expected {n_inputs + n_outputs} cells (+ optional "
                    f"comment), found {len(cells)}", lineno)
        if len(cells) != n_inputs + n_outputs:
            raise ParseError(
                f"expected {n_inputs + n_outputs} cells, found {len(cells)}",
                lineno)

        inputs = []
        for col, (text, width) in enumerate(zip(cells[:n_inputs],
                                                cond_widths)):
            cell = parsed.get(("in", text, width))
            if cell is None:
                cell = parsed["in", text, width] = _parse_input_cell(
                    text, width, lineno, col + 1)
            inputs.append(cell)
        outputs = []
        for col, (text, width) in enumerate(zip(cells[n_inputs:],
                                                result_widths)):
            cell = parsed.get(("out", text, width))
            if cell is None:
                cell = parsed["out", text, width] = _parse_output_cell(
                    text, width, lineno, n_inputs + col + 1)
            outputs.append(cell)
        rows.append(CaseRow(tuple(inputs), tuple(outputs), label=label,
                            comment=comment))

    return Lct(name=name, clocking=clocking, conditions=tuple(conditions),
               results=tuple(results), rows=tuple(rows), ports=portmap,
               feedback=feedback)


def _parse_input_cell(text, width, lineno, col):
    if not text:
        raise ParseError("empty cell (use X for don't care)", lineno, col)
    if text == "X":
        return DONT_CARE
    try:
        return Constant(parse_literal(text, default_width=width))
    except LctError as e:
        raise ParseError(f"bad input cell: {e}", lineno, col)


def _parse_output_cell(text, width, lineno, col):
    if not text:
        raise ParseError("empty cell (use X for don't care)", lineno, col)
    if text == "X":
        return DONT_CARE
    if IDENT_RE.match(text):
        return SignalRef(text)
    try:
        return Constant(parse_literal(text, default_width=width))
    except LctError as e:
        raise ParseError(f"bad output cell: {e}", lineno, col)


# ---------------------------------------------------------------------------
# Serialization

def serialize_unit(table: Lct) -> Tuple[str, str]:
    """Render a table back to (manifest_text, csv_text).  Deterministic;
    parse_unit(*serialize_unit(t)) == t for any valid table."""
    violations = validate_lct(table)
    if violations:
        raise LctError("cannot serialize invalid table: " +
                       "; ".join(str(v) for v in violations))

    lines = [f"unit {table.name}",
             f"clocking {table.clocking.value}",
             f"inputs {len(table.conditions)}",
             f"outputs {len(table.results)}"]
    for port in table.ports.entries:
        lines.append(f"port {port.direction.value} {port.name} {port.width}")
    for result, cond in table.feedback:
        lines.append(f"feedback {result} -> {cond}")
    lines.append(f"table {table.name}.csv")
    manifest_text = "\n".join(lines) + "\n"

    has_case = any(row.label is not None for row in table.rows)
    has_comments = any(row.comment is not None for row in table.rows)

    header = []
    if has_case:
        header.append("Case")
    for h in table.conditions:
        header.append(h.name if isinstance(h, SignalHeader) else h.text)
    header.extend(table.results)
    if has_comments:
        header.append("Comments")

    csv_lines = [",".join(header)]
    for row in table.rows:
        cells = []
        if has_case:
            cells.append(row.label or "")
        cells.extend(cell_text(c) for c in row.inputs)
        cells.extend(cell_text(c) for c in row.outputs)
        if has_comments:
            cells.append(row.comment or "")
        csv_lines.append(",".join(cells))
    return manifest_text, "\n".join(csv_lines) + "\n"


UNIT_DOC_SEPARATOR = "---"


def combine_unit_doc(manifest_text: str, csv_text: str) -> str:
    """Single-document transport form: manifest, a '---' line, then CSV."""
    return manifest_text.rstrip("\n") + "\n" + UNIT_DOC_SEPARATOR + "\n" + \
        csv_text


def parse_unit_doc(text: str) -> Lct:
    parts = text.split("\n" + UNIT_DOC_SEPARATOR + "\n", 1)
    if len(parts) != 2:
        raise ParseError("unit document is missing the '---' separator")
    return parse_unit(parts[0], parts[1])


def serialize_unit_doc(table: Lct) -> str:
    return combine_unit_doc(*serialize_unit(table))


# ---------------------------------------------------------------------------
# File loading

def load_unit(manifest_path: str) -> UnitBundle:
    """Load a unit from disk; the CSV path in the manifest is resolved
    relative to the manifest's directory."""
    with open(manifest_path, encoding="utf-8") as f:
        manifest_text = f.read()
    csv_path = None
    for lineno, words in _manifest_fields(manifest_text):
        if words[0] == "table" and len(words) == 2:
            csv_path = words[1]
    if csv_path is None:
        raise ParseError(f"{manifest_path}: no table line in manifest")
    full = os.path.join(os.path.dirname(os.path.abspath(manifest_path)),
                        csv_path)
    with open(full, encoding="utf-8") as f:
        csv_text = f.read()
    lct = parse_unit(manifest_text, csv_text)
    return UnitBundle(manifest_path, lct, manifest_text, csv_text)


def save_unit(table: Lct, directory: str) -> str:
    """Write <name>.manifest and <name>.csv; returns the manifest path."""
    manifest_text, csv_text = serialize_unit(table)
    os.makedirs(directory, exist_ok=True)
    manifest_path = os.path.join(directory, f"{table.name}.manifest")
    with open(manifest_path, "w", encoding="utf-8") as f:
        f.write(manifest_text)
    with open(os.path.join(directory, f"{table.name}.csv"), "w",
              encoding="utf-8") as f:
        f.write(csv_text)
    return manifest_path


# ---------------------------------------------------------------------------
# Connectivity manifests

def parse_connectivity(text: str) -> ConnectivityTable:
    """Parse and validate a connectivity manifest:

        top <name>
        instance <inst-name> <unit-name>
        bind input|output <port> <net> <size> internal|external
    """
    top = None
    instances: List[tuple] = []  # (name, unit, [Binding])

    for lineno, words in _manifest_fields(text):
        keyword = words[0]
        if keyword == "top" and len(words) == 2:
            top = words[1]
        elif keyword == "instance" and len(words) == 3:
            instances.append((words[1], words[2], []))
        elif keyword == "bind" and len(words) == 6:
            if not instances:
                raise ParseError("bind line before any instance", lineno)
            try:
                binding = Binding(Direction(words[1]), words[2], words[3],
                                  int(words[4]), NetContext(words[5]))
            except ValueError as e:
                raise ParseError(f"bad binding: {e}", lineno)
            if binding.size < 1:
                raise ParseError("binding size must be >= 1", lineno)
            instances[-1][2].append(binding)
        else:
            raise ParseError(f"unrecognized connectivity line "
                             f"{' '.join(words)!r}", lineno)

    if top is None:
        raise ParseError("connectivity manifest is missing the top line")

    table = ConnectivityTable(
        top=top,
        instances=tuple(Instance(name, unit, tuple(bindings))
                        for name, unit, bindings in instances))
    _validate_connectivity(table)
    return table


def _validate_connectivity(table: ConnectivityTable) -> None:
    for net, uses in table.nets().items():
        sizes = {b.size for _, b in uses}
        if len(sizes) != 1:
            raise LctError(f"net {net}: conflicting sizes {sorted(sizes)}")
        contexts = {b.context for _, b in uses}
        if len(contexts) != 1:
            raise LctError(f"net {net}: mixed internal/external context")
        drivers = [(inst, b) for inst, b in uses
                   if b.direction is Direction.OUTPUT]
        context = contexts.pop()
        if context is NetContext.INTERNAL:
            if not drivers:
                raise LctError(f"net {net}: dangling (no driver)")
            if len(drivers) > 1:
                names = ", ".join(f"{i}.{b.port}" for i, b in drivers)
                raise LctError(f"net {net}: multiple drivers ({names})")
            if len(uses) < 2:
                raise LctError(f"net {net}: no load")
        else:
            if len(drivers) > 1:
                names = ", ".join(f"{i}.{b.port}" for i, b in drivers)
                raise LctError(f"net {net}: multiple drivers ({names})")
