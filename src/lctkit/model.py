"""
Core domain types: bit vectors, table cells, condition headers, case rows,
logic condition tables, port maps, and connectivity tables.

All types are immutable after construction and safe to share across threads.
The dataclasses are slotted, but for ``Lct``, whose derived forms (violations,
``serialize_unit`` text, ``sim`` kernel, a canonical form's row codes) only
``kept`` builds, on first use, into its ``__dict__``: a form is freed with the
table, built anew for a ``dataclasses.replace``d copy, and taken without the
lock that a ``cached_property`` shares across instances in Python 3.11.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from typing import Optional, Union

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Reserved words, which no name or header may use: the HDL constructs the
# reader names as unsupported when it meets one, and the subset's own.
UNSUPPORTED = frozenset({
    "for", "while", "repeat", "forever", "function", "task", "generate",
    "genvar", "initial", "fork", "join", "specify", "primitive", "table",
    "real", "event", "deassign", "force", "release", "wait", "disable",
})
KEYWORDS = frozenset({
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "always", "assign", "begin", "end", "if", "else", "case", "casez",
    "casex", "endcase", "default", "posedge", "negedge", "or", "integer",
    "signed", "parameter", "localparam",
}) | UNSUPPORTED
_SIZED_LITERAL_RE = re.compile(r"([0-9]+)'([bdh])([0-9a-fA-F_]+)\Z")
_DECIMAL_RE = re.compile(r"[0-9]+\Z")
# What ends a CSV cell or line, and so no row label or comment may hold.
_CSV_BREAK_RE = re.compile(r"[,\r\n]")


class LctError(Exception):
    """Base class for all toolkit errors."""


def kept(value, name: str, build):
    """``value``'s form ``name``: ``build(value)``, kept on first use."""
    form = value.__dict__.get(name)
    if form is None:
        form = value.__dict__[name] = build(value)
    return form


class LiteralError(LctError):
    """Malformed or out-of-range numeric literal."""


class Clocking(Enum):
    CLOCKED = "clocked"
    COMBINATIONAL = "combinational"


class Direction(Enum):
    INPUT = "input"
    OUTPUT = "output"


@dataclass(frozen=True, slots=True)
class BitVector:
    """An unsigned value with an explicit bit width.

    Two BitVectors are equal iff both width and value are equal, so
    3'd5 and 3'b101 compare equal while 3'd5 and 4'd5 do not.
    """
    width: int
    value: int

    def __post_init__(self):
        if self.width < 1:
            raise LiteralError(f"width must be positive, got {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise LiteralError(
                f"value {self.value} does not fit in {self.width} bits")

    def binary(self) -> str:
        """Sized binary Verilog literal, e.g. 3'b101."""
        return f"{self.width}'b{self.value:0{self.width}b}"

    def __str__(self) -> str:
        return str(self.value)


def parse_literal(text: str, default_width: Optional[int] = None) -> BitVector:
    """Parse a decimal or sized Verilog-style literal into a BitVector.

    Sized literals take the form <width>'<base><digits> with base in
    {b, d, h}.  Bare decimals require default_width (normally the column's
    port width).
    """
    text = text.strip()
    m = _SIZED_LITERAL_RE.match(text)
    if m:
        width = int(m.group(1))
        base = {"b": 2, "d": 10, "h": 16}[m.group(2)]
        digits = m.group(3).replace("_", "")
        try:
            value = int(digits, base)
        except ValueError:
            raise LiteralError(f"bad digits for base {base}: {text!r}")
        if width < 1:
            raise LiteralError(f"zero width literal: {text!r}")
        if value >= (1 << width):
            raise LiteralError(f"value exceeds width in {text!r}")
        return BitVector(width, value)
    if _DECIMAL_RE.match(text):
        if default_width is None:
            raise LiteralError(f"bare decimal {text!r} needs a default width")
        value = int(text)
        if value >= (1 << default_width):
            raise LiteralError(
                f"value {value} exceeds {default_width}-bit width")
        return BitVector(default_width, value)
    raise LiteralError(f"malformed literal: {text!r}")


# ---------------------------------------------------------------------------
# Cell values

@dataclass(frozen=True, slots=True)
class Constant:
    bv: BitVector


@dataclass(frozen=True, slots=True)
class DontCare:
    """The don't-care cell, serialized exactly as "X"."""

    def __repr__(self):
        return "DontCare()"


DONT_CARE = DontCare()


@dataclass(frozen=True, slots=True)
class SignalRef:
    """A cell naming a signal: data pass-through, or hold when the name
    equals the cell's own result column (clocked tables only).  The cell
    is also ``sim``'s value of a pass-through whose input is not
    supplied, printed as the signal's name."""
    name: str

    def __post_init__(self):
        if not IDENT_RE.match(self.name):
            raise LctError(f"bad signal reference: {self.name!r}")

    def __str__(self) -> str:
        return self.name


CellValue = Union[Constant, DontCare, SignalRef]


def parse_cell(text: str, width: Optional[int] = None) -> CellValue:
    """Parse one CSV cell: constant literal, "X", or signal name."""
    text = text.strip()
    if text == "X":
        return DONT_CARE
    if IDENT_RE.match(text):
        return SignalRef(text)
    return Constant(parse_literal(text, default_width=width))


def cell_text(cell: CellValue) -> str:
    if isinstance(cell, DontCare):
        return "X"
    if isinstance(cell, SignalRef):
        return cell.name
    return str(cell.bv.value)


# ---------------------------------------------------------------------------
# Condition headers

@dataclass(frozen=True, slots=True)
class SignalHeader:
    """A condition column that enumerates one input signal."""
    name: str

    @property
    def text(self) -> str:
        return self.name

    @property
    def key(self) -> str:
        return self.name


class ExprHeader:
    """A condition column holding a logical/arithmetic expression over
    input signals, e.g. "A & ~B" or "C <= 10".  Evaluates to one bit;
    its cells must be 0, 1, or X.

    Equality and hashing use the canonical rendering so that spacing and
    redundant parentheses do not matter.  A lone identifier ``a`` is read
    as ``a != 0``, its truth value, and is never kept as header text: an
    identifier names a signal column, so an expression's text and key
    never look like one.
    """

    def __init__(self, text: str):
        text = text.strip()
        self.text = f"({text} != 0)" if IDENT_RE.match(text) else text

    @cached_property
    def tree(self):
        from . import expr
        tree = expr.parse_expr(self.text)
        if isinstance(tree, expr.Ident):
            return expr.Binary("!=", tree, expr.Num(0, None))
        return tree

    @cached_property
    def canonical(self) -> str:
        from . import expr
        return expr.render(self.tree)

    @property
    def key(self) -> str:
        return self.canonical

    def identifiers(self) -> frozenset:
        from . import expr
        return expr.identifiers(self.tree)

    def check(self, ports: dict):
        """Raise ExprError unless the operand widths agree at the ports'
        widths (one evaluation at zero inputs decides, as `?:` evaluates
        both arms) and the canonical text nests within codegen's `if`
        guard."""
        from . import expr
        expr.evaluate(self.tree, {name: BitVector(ports[name].width, 0)
                                  for name in self.identifiers()})
        expr.check_guard(self.canonical)

    def __eq__(self, other):
        return isinstance(other, ExprHeader) and self.canonical == other.canonical

    def __hash__(self):
        return hash(self.canonical)

    def __repr__(self):
        return f"ExprHeader({self.text!r})"


ConditionHeader = Union[SignalHeader, ExprHeader]


def condition_header(text: str) -> ConditionHeader:
    """The condition column a header text names: a signal column for a
    lone identifier, else an expression column (parsed on first use)."""
    text = text.strip()
    return SignalHeader(text) if IDENT_RE.match(text) else ExprHeader(text)


# ---------------------------------------------------------------------------
# Rows, ports, tables

@dataclass(frozen=True, slots=True)
class CaseRow:
    """One prioritized case: condition cells and result cells."""
    inputs: tuple
    outputs: tuple
    label: Optional[str] = None
    comment: Optional[str] = None


@dataclass(frozen=True, slots=True)
class Port:
    direction: Direction
    name: str
    width: int

    def __post_init__(self):
        if self.width < 1:
            raise LctError(f"port {self.name}: width must be >= 1")
        if not IDENT_RE.match(self.name):
            raise LctError(f"bad port name: {self.name!r}")


@dataclass(frozen=True, slots=True)
class PortMap:
    entries: tuple

    def __post_init__(self):
        names = [p.name for p in self.entries]
        if len(names) != len(set(names)):
            raise LctError("duplicate port names in port map")

    def get(self, name: str) -> Optional[Port]:
        for p in self.entries:
            if p.name == name:
                return p
        return None

    def inputs(self) -> list:
        return [p for p in self.entries if p.direction is Direction.INPUT]

    def outputs(self) -> list:
        return [p for p in self.entries if p.direction is Direction.OUTPUT]


@dataclass(frozen=True)
class Lct:
    """A Logic Condition Table: named, clocked or combinational, with
    condition columns, result columns, and prioritized case rows
    evaluated under first-match semantics."""
    name: str
    clocking: Clocking
    conditions: tuple
    results: tuple
    rows: tuple
    ports: PortMap
    feedback: tuple = ()

    @property
    def cell_count(self) -> int:
        return len(self.rows) * (len(self.conditions) + len(self.results))

    def condition_width(self, header: ConditionHeader) -> int:
        """Enumeration width of a condition column: the port width for a
        signal header, one bit for an expression header."""
        if isinstance(header, SignalHeader):
            port = self.ports.get(header.name)
            if port is None:
                raise LctError(f"condition {header.name} not in port map")
            return port.width
        return 1

    def result_width(self, name: str) -> int:
        port = self.ports.get(name)
        if port is None:
            raise LctError(f"result {name} not in port map")
        return port.width

    @property
    def violations(self) -> tuple:
        """``validate_lct``'s findings, kept."""
        return kept(self, "_violations", _violations)

    def require_valid(self, error: type, prefix: str = "invalid table"):
        """Raise ``error`` listing the violations, if there are any."""
        if self.violations:
            raise error(f"{prefix}: " +
                        "; ".join(str(v) for v in self.violations))


@dataclass(frozen=True, slots=True)
class Violation:
    """One structural rule violation found by validate_lct."""
    code: str
    message: str
    row: Optional[int] = None
    column: Optional[str] = None

    def __str__(self):
        where = ""
        if self.row is not None:
            where += f" row {self.row}"
        if self.column is not None:
            where += f" column {self.column}"
        return f"[{self.code}]{where}: {self.message}"


def validate_lct(table: Lct) -> list:
    """Check every structural invariant of an Lct.  Returns a list of
    violations; an empty list means the table is well formed.  Each
    column's kind and port width are looked up once; cells are checked
    row by row, each row's inputs and then outputs, left to right."""
    out = []

    def bad(code, message, row=None, column=None):
        out.append(Violation(code, message, row, column))

    if not IDENT_RE.match(table.name):
        bad("bad-name", f"table name {table.name!r} is not an identifier")
    for name in [table.name] + [p.name for p in table.ports.entries]:
        if name in KEYWORDS:
            bad("bad-name", f"name {name!r} is a reserved word")

    ports = {p.name: p for p in table.ports.entries}
    input_names = {p.name for p in table.ports.inputs()}
    output_names = {p.name for p in table.ports.outputs()}

    # One key per column, computed once: the row checks name columns by
    # it, and two columns with one key are the same condition.
    keys = []
    for header in table.conditions:
        try:
            keys.append(header.key)
        except LctError as e:
            bad("bad-expr", str(e), column=header.text)
            keys.append(header.text)
            continue
        if isinstance(header, SignalHeader):
            if header.name not in input_names:
                bad("unknown-port",
                    f"condition {header.name} is not an input port",
                    column=header.name)
        else:
            unknown = sorted(header.identifiers() - input_names)
            for ident in unknown:
                bad("unknown-port",
                    f"expression condition references {ident}, "
                    "not an input port", column=header.text)
            if not unknown:
                try:
                    header.check(ports)
                except LctError as e:
                    bad("bad-expr", str(e), column=header.text)
    if len(keys) != len(set(keys)):
        bad("dup-condition", "duplicate condition columns")
    if len(table.results) != len(set(table.results)):
        bad("dup-result", "duplicate result columns")

    for name in table.results:
        if name not in output_names:
            bad("unknown-port", f"result {name} is not an output port",
                column=name)

    conds = [(col, True, None) if isinstance(header, ExprHeader)
             else (col, False, ports.get(header.name))
             for header, col in zip(table.conditions, keys)]
    results = [(name, ports.get(name)) for name in table.results]
    n_cond = len(conds)
    n_res = len(results)
    for i, row in enumerate(table.rows):
        if row.label is not None or row.comment is not None:
            for what, text in (("label", row.label),
                               ("comment", row.comment)):
                if text is not None and _CSV_BREAK_RE.search(text):
                    bad("csv-text", f"{what} {text!r} holds a comma or a "
                        "line break, which a CSV cell cannot hold", row=i)
        if len(row.inputs) != n_cond:
            bad("arity", f"{len(row.inputs)} input cells, expected {n_cond}",
                row=i)
            continue
        if len(row.outputs) != n_res:
            bad("arity", f"{len(row.outputs)} output cells, expected {n_res}",
                row=i)
            continue
        for (col, is_expr, port), cell in zip(conds, row.inputs):
            if type(cell) is Constant:
                if is_expr:
                    if cell.bv.value not in (0, 1):
                        bad("expr-cell",
                            "expression column cells must be 0, 1, or X",
                            row=i, column=col)
                elif port is not None and cell.bv.width != port.width:
                    bad("width", f"cell width {cell.bv.width} != port width "
                        f"{port.width}", row=i, column=col)
            elif type(cell) is SignalRef:
                bad("input-ref",
                    "input cells may be constants or X only", row=i,
                    column=col)
            elif type(cell) is not DontCare:
                bad("bad-cell", f"{cell!r} is not a cell", row=i, column=col)
        for (name, port), cell in zip(results, row.outputs):
            if type(cell) is Constant:
                if port is not None and cell.bv.width != port.width:
                    bad("width", f"cell width {cell.bv.width} != port width "
                        f"{port.width}", row=i, column=name)
            elif type(cell) is SignalRef:
                if cell.name == "X":
                    bad("x-ref", "a cell naming signal X would read as "
                        "don't care", row=i, column=name)
                elif cell.name == name:
                    if table.clocking is Clocking.COMBINATIONAL:
                        bad("hold-comb",
                            "hold cell in a combinational table", row=i,
                            column=name)
                elif cell.name in input_names:
                    src = ports[cell.name]  # an input port
                    if port is not None and src.width != port.width:
                        bad("width", f"pass-through {cell.name} width "
                            f"{src.width} != result width {port.width}",
                            row=i, column=name)
                else:
                    bad("unknown-ref",
                        f"output cell references unknown signal {cell.name}",
                        row=i, column=name)
            elif type(cell) is not DontCare:
                bad("bad-cell", f"{cell!r} is not a cell", row=i, column=name)

    result_set = set(table.results)
    for res, cond in table.feedback:
        if res not in result_set:
            bad("feedback", f"feedback result {res} is not a result column")
            continue
        if SignalHeader(cond) not in table.conditions:
            bad("feedback",
                f"feedback target {cond} is not a signal condition column")
            continue
        rp = ports.get(res)
        cp = ports.get(cond)
        if rp and cp and rp.width != cp.width:
            bad("feedback", f"feedback {res} -> {cond} width mismatch")

    return out


def _violations(table: Lct) -> tuple:
    return tuple(validate_lct(table))


# ---------------------------------------------------------------------------
# Hierarchical connectivity

class NetContext(Enum):
    INTERNAL = "internal"
    EXTERNAL = "external"


@dataclass(frozen=True, slots=True)
class Binding:
    direction: Direction
    port: str
    net: str
    size: int
    context: NetContext


@dataclass(frozen=True, slots=True)
class Instance:
    name: str
    unit: str
    bindings: tuple


@dataclass(frozen=True, slots=True)
class ConnectivityTable:
    top: str
    instances: tuple

    def nets(self) -> dict:
        """Map net name -> list of (instance name, binding)."""
        out = {}
        for inst in self.instances:
            for b in inst.bindings:
                out.setdefault(b.net, []).append((inst.name, b))
        return out


# ---------------------------------------------------------------------------
# Transform requests

class TransformDirection(Enum):
    FORWARD = "forward"
    INVERSE = "inverse"


@dataclass(slots=True)
class TransformRequest:
    """A prompt for a transform backend.  payload carries the structured
    inputs so deterministic backends need not re-parse the prompt text."""
    direction: TransformDirection
    prompt: str
    payload: object = None


@dataclass(slots=True)
class TransformResponse:
    text: str

    def __post_init__(self):
        if not self.text:
            raise LctError("empty transform response")
