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

Counts, port widths and binding sizes are ASCII decimal digits.

CSV dialect: comma separated, no quoting, whitespace trimmed per cell,
mandatory header row.  An optional leading "Case" column and trailing
"Comments" column are preserved but carry no semantics; they are told
from ports of those names by the manifest's column counts.  An error's
column counts from the file's first, a "Case" column included, and its
line from the file's first, blank lines included: in a unit document,
from the manifest's first.
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
    Direction,
    ExprHeader,
    IDENT_RE,
    Instance,
    Lct,
    LctError,
    LiteralError,
    NetContext,
    Port,
    PortMap,
    SignalRef,
    cell_text,
    condition_header,
    kept,
    parse_cell,
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


@dataclass(frozen=True, slots=True)
class UnitBundle:
    """A parsed unit, as ``load_unit`` returns it."""
    lct: Lct


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
    return _parse_unit(manifest_text, csv_text, 1)


def _parse_unit(manifest_text: str, csv_text: str, csv_line: int) -> Lct:
    """``parse_unit``, the CSV's first line numbered ``csv_line``."""
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
            n_inputs = _count("inputs count", words[1], lineno)
        elif keyword == "outputs" and len(words) == 2:
            n_outputs = _count("outputs count", words[1], lineno)
        elif keyword == "port" and len(words) == 4:
            width = _count("port width", words[3], lineno)
            try:
                ports.append(Port(Direction(words[1]), words[2], width))
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
    table = _parse_csv(csv_text, csv_line, name, clocking, n_inputs,
                       n_outputs, portmap, tuple(feedback))
    table.require_valid(ParseError)
    return table


def _count(what: str, text: str, lineno: int) -> int:
    """A count, port width or binding size: ASCII decimal digits."""
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"{what} {text!r} is not a non-negative decimal "
                         "number", lineno)
    return int(text)


def _parse_csv(csv_text, csv_line, name, clocking, n_inputs, n_outputs,
               portmap, feedback) -> Lct:
    # Blank lines are skipped, but counted in every line number.
    lines = csv_text.splitlines()
    start = next((i for i, line in enumerate(lines) if line.strip()), None)
    if start is None:
        raise ParseError("empty CSV", csv_line)
    header_line = csv_line + start
    header = [cell.strip() for cell in lines[start].split(",")]

    # A first "case" or last "comments" header is a label or comment
    # column only when the header has more columns than the manifest
    # declares; else it names a port.
    extra = len(header) - n_inputs - n_outputs
    has_case = extra > 0 and header[0].lower() == "case"
    has_comments = extra > 0 and header[-1].lower() == "comments"
    if extra == 1 and has_case and has_comments:
        # One of the two: column n_inputs is the last condition when the
        # first is a label, and the first result when the last is a
        # comment.
        port = portmap.get(header[n_inputs])
        has_case = port is None or port.direction is not Direction.OUTPUT
        has_comments = not has_case
    if has_case:
        header = header[1:]
    if has_comments:
        header = header[:-1]
    if len(header) != n_inputs + n_outputs:
        raise ParseError(
            f"CSV header has {len(header)} data columns, manifest declares "
            f"{n_inputs} inputs + {n_outputs} outputs", header_line)
    # The file column of the first data column, for error coordinates.
    first = 2 if has_case else 1

    conditions = [condition_header(text) for text in header[:n_inputs]]
    for pos, condition in enumerate(conditions):
        try:
            condition.key
        except LctError as e:
            raise ParseError(f"bad condition header: {e}", header_line,
                             first + pos)
    results = []
    for pos, text in enumerate(header[n_inputs:]):
        if not IDENT_RE.match(text):
            raise ParseError(f"result header {text!r} is not an identifier",
                             header_line, first + n_inputs + pos)
        results.append(text)

    def column_width(header_obj) -> Optional[int]:
        if isinstance(header_obj, ExprHeader):
            return 1
        port = portmap.get(header_obj.name)
        if port is None:
            raise ParseError(
                f"condition {header_obj.name} is not declared in the port map",
                header_line)
        return port.width

    cond_widths = [column_width(h) for h in conditions]
    result_widths = []
    for res in results:
        port = portmap.get(res)
        if port is None:
            raise ParseError(
                f"result {res} is not declared in the port map", header_line)
        result_widths.append(port.width)

    sides = ["input"] * n_inputs + ["output"] * n_outputs
    widths = cond_widths + result_widths
    # Per column, a cell's text -> the cell, for this CSV; a cell that
    # fails is not kept, so each occurrence raises at its own line and
    # column.
    parsed = [{} for _ in widths]
    rows = []
    for lineno, line in enumerate(lines[start + 1:], start=header_line + 1):
        if not line.strip():
            continue
        cells = [cell.strip() for cell in line.split(",")]
        label = None
        comment = None
        if has_case:
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

        values = []
        for memo, text in zip(parsed, cells):
            cell = memo.get(text)
            if cell is None:
                pos = len(values)
                cell = memo[text] = _parse_cell(
                    sides[pos], text, widths[pos], lineno, first + pos)
            values.append(cell)
        rows.append(CaseRow(tuple(values[:n_inputs]),
                            tuple(values[n_inputs:]), label=label,
                            comment=comment))

    return Lct(name=name, clocking=clocking, conditions=tuple(conditions),
               results=tuple(results), rows=tuple(rows), ports=portmap,
               feedback=feedback)


def _parse_cell(side, text, width, lineno, col):
    """One CSV cell by ``parse_cell``; an input cell may not name a signal."""
    if not text:
        raise ParseError("empty cell (use X for don't care)", lineno, col)
    try:
        cell = parse_cell(text, width)
        if side == "input" and isinstance(cell, SignalRef):
            raise LiteralError(f"malformed literal: {text!r}")
    except LctError as e:
        raise ParseError(f"bad {side} cell: {e}", lineno, col)
    return cell


# ---------------------------------------------------------------------------
# Serialization

def serialize_unit(table: Lct) -> Tuple[str, str]:
    """Render a valid table as (manifest_text, csv_text), deterministically.
    parse_unit(*serialize_unit(t)) == t but for three normalizations:
    a label or comment loses its surrounding whitespace, a missing label
    or comment beside present ones reads back as "", and an
    expression-column constant reads back 1 bit wide.  The text is
    kept; an invalid table raises on every call."""
    table.require_valid(LctError, "cannot serialize invalid table")
    return kept(table, "_unit_text", _render_unit)


def _render_unit(table: Lct) -> Tuple[str, str]:
    """``serialize_unit``'s rendering, which does not validate."""
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
    header.extend(h.text for h in table.conditions)
    header.extend(table.results)
    if has_comments:
        header.append("Comments")

    # A constant's text is its bare decimal value, whatever its column,
    # so each distinct value is formatted once per call.
    texts = {}
    csv_lines = [",".join(header)]
    for row in table.rows:
        cells = [row.label or ""] if has_case else []
        for cell in row.inputs + row.outputs:
            if type(cell) is Constant:
                text = texts.get(cell.bv.value)
                if text is None:
                    text = texts[cell.bv.value] = str(cell.bv.value)
            else:
                text = cell_text(cell)
            cells.append(text)
        if has_comments:
            cells.append(row.comment or "")
        csv_lines.append(",".join(cells))
    return manifest_text, "\n".join(csv_lines) + "\n"


UNIT_DOC_SEPARATOR = "---"
_DOC_SPLIT = "\n" + UNIT_DOC_SEPARATOR + "\n"


def combine_unit_doc(manifest_text: str, csv_text: str) -> str:
    """Single-document transport form: manifest, a '---' line, then CSV."""
    return manifest_text.rstrip("\n") + _DOC_SPLIT + csv_text


def _csv_line(manifest_text: str) -> int:
    """The line of a unit document where its CSV starts, as
    ``splitlines`` numbers the whole document's lines."""
    return len((manifest_text + _DOC_SPLIT).splitlines()) + 1


def parse_unit_doc(text: str) -> Lct:
    """Parse a unit document; its lines number from the manifest's first."""
    manifest_text, found, csv_text = text.partition(_DOC_SPLIT)
    if not found:
        raise ParseError("unit document is missing the '---' separator")
    return _parse_unit(manifest_text, csv_text, _csv_line(manifest_text))


def serialize_unit_doc(table: Lct) -> str:
    return combine_unit_doc(*serialize_unit(table))


# ---------------------------------------------------------------------------
# File loading

def load_unit(path: str) -> UnitBundle:
    """Load a unit from disk: a unit document, or a manifest whose table
    line names the CSV relative to the manifest's directory.  Each file
    is read once; one that is not UTF-8 raises ParseError."""
    what = ""
    try:
        with open(path, encoding="utf-8") as f:
            manifest_text, found, csv_text = f.read().partition(_DOC_SPLIT)
        if not found:
            tables = [words[1] for _, words in _manifest_fields(manifest_text)
                      if words[0] == "table" and len(words) == 2]
            if not tables:
                raise ParseError(f"{path}: no table line in manifest")
            what = "its table is "
            with open(os.path.join(os.path.dirname(os.path.abspath(path)),
                                   tables[-1]), encoding="utf-8") as f:
                csv_text = f.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: {what}not UTF-8 text: {e}")
    csv_line = _csv_line(manifest_text) if found else 1
    return UnitBundle(_parse_unit(manifest_text, csv_text, csv_line))


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
                                  _count("binding size", words[4], lineno),
                                  NetContext(words[5]))
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
        if len(drivers) > 1:
            names = ", ".join(f"{i}.{b.port}" for i, b in drivers)
            raise LctError(f"net {net}: multiple drivers ({names})")
        if contexts.pop() is NetContext.INTERNAL:
            if not drivers:
                raise LctError(f"net {net}: dangling (no driver)")
            if len(uses) < 2:
                raise LctError(f"net {net}: no load")
