"""
Inverse transform: reconstruct an LCT from a parsed HDL module by
enumerating root-to-leaf paths through one process.

Each path's guard conjunction becomes one row; schema columns the path
does not constrain become X; registers assigned nowhere on a path become
hold cells in clocked processes.  Rows are emitted in source priority
order, which under first-match semantics reproduces the if/else-if and
case-arm behavior without needing negated guards.

The reconstruction schema (condition and result column headers) is an
input; branch conditions that cannot be reduced to per-column constraints
are kept as appended expression columns rather than failing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from . import expr as ex
from .hdl import HAssign, HIf, HdlModule, HdlProcess, parse_hdl
from .model import (
    BitVector,
    CaseRow,
    Clocking,
    Constant,
    DONT_CARE,
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

MAX_PATHS = 1 << 16


class ExtractError(LctError):
    """The module cannot be reduced to the requested schema."""


@dataclass(slots=True)
class _Env:
    """One partial path: accumulated column constraints and the last
    assignment per signal."""
    constraints: dict   # column key -> int value
    assigns: dict       # signal -> CellValue
    fall_through: bool  # no guarded arm taken and nothing assigned yet

    def clone(self):
        return _Env(dict(self.constraints), dict(self.assigns),
                    self.fall_through)


class _Builder:
    """One process's paths as a table.  What it decides per node of the
    reader's tree, which shares equal nodes, it keeps by node identity."""

    def __init__(self, module: HdlModule, process: HdlProcess,
                 conditions: Sequence[str], results: Sequence[str]):
        self.module = module
        # The first port of each name wins, as in HdlModule.port.
        self.ports = {p.name: p for p in reversed(module.ports)}
        self.process = process
        self.results = list(results)
        self.headers: List[object] = []
        self.widths: List[int] = []
        self.key_index: dict = {}
        self.has_expr_header = False
        self.constants: dict = {}  # (width, value) -> Constant
        # id(node) -> (node, what it gives): a subject's label fields, a
        # `subject == number` term's constraints, an assignment's cell.
        # An added expression column may bind a subject's part or a term.
        self.label_fields: dict = {}
        self.terms: dict = {}
        self.cells: dict = {}
        # Names of the signal columns that passed `_column`'s checks.
        self.bound_signals: set = set()
        for text in conditions:
            self._add_header(condition_header(text))
        self.result_widths = {}
        for name in self.results:
            self.result_widths[name] = self._signal_width(name)

    def _signal_width(self, name: str) -> int:
        port = self.ports.get(name)
        if port is not None:
            return port.width
        if name in self.module.nets:
            return self.module.nets[name]
        raise ExtractError(f"schema column {name} is not a module signal")

    def _add_header(self, header) -> int:
        key = header.key
        if key not in self.key_index:
            is_expr = isinstance(header, ExprHeader)
            if is_expr:
                self.has_expr_header = True
                self.label_fields.clear()
                self.terms.clear()
            self.widths.append(1 if is_expr else self._signal_width(key))
            self.key_index[key] = len(self.headers)
            self.headers.append(header)
        return self.key_index[key]

    # -- constraint handling ------------------------------------------------

    def _column(self, env: _Env, header, value: int) -> bool:
        """Constrain a condition column, added if new, to `value`;
        returns False if the path becomes infeasible."""
        if isinstance(header, SignalHeader):
            name = header.name
            if name not in self.bound_signals:
                port = self.ports.get(name)
                if port is not None and port.direction is not Direction.INPUT:
                    raise ExtractError(
                        f"branch condition over non-input signal {name}")
                self._add_header(header)
                self.bound_signals.add(name)
            return env.constraints.setdefault(name, value) == value
        try:
            self._add_header(header)
        except ex.ExprError as e:
            raise ExtractError(
                f"guard cannot be a condition column: {e}") from None
        return env.constraints.setdefault(header.key, value) == value

    def _label_fields(self, node) -> Optional[tuple]:
        """(header, width) per part of an equality's subject, msb first,
        and their total width: a signal, or `(e != 0)` for a schema
        expression column `e`, alone or in a `{...}`; None for any other
        expression."""
        cached = self.label_fields.get(id(node))
        if cached is not None and cached[0] is node:
            return cached[1]
        parts = node.parts if isinstance(node, ex.Concat) else (node,)
        headers = []
        for part in parts:
            if isinstance(part, ex.Ident):
                headers.append(SignalHeader(part.name))
            elif isinstance(part, ex.Binary) and part.op == "!=" and \
                    part.rhs == ex.Num(0, None) and \
                    (header := self._schema_expr(part.lhs)) is not None:
                headers.append(header)
            else:
                return None
        pairs = [(h, 1 if isinstance(h, ExprHeader)
                  else self._signal_width(h.name)) for h in headers]
        self.label_fields[id(node)] = node, (pairs, sum(w for _, w in pairs))
        return self.label_fields[id(node)][1]

    def _apply_label(self, env: _Env, term, subject, fields, label) -> bool:
        """`subject == label`, a number, whose constraints are kept for the
        term, or a wildcard label: one per column it does not wildcard."""
        fields, total = fields
        if isinstance(label, ex.Num):
            value = label.value
            if value >> total:
                raise ExtractError(f"condition value {value} exceeds "
                                   f"width of {ex.render(subject)}")
            constraints = []
            for header, width in fields:
                total -= width
                constraints.append(
                    (header, (value >> total) & ((1 << width) - 1)))
            self.terms[id(term)] = term, constraints
            return self._apply_terms(env, constraints)
        if label.width != total:
            raise ExtractError(
                f"case label width {label.width} != subject width {total}")
        bits = label.bits
        for header, width in fields:
            chunk, bits = bits[:width], bits[width:]
            if chunk == "?" * width:
                continue
            if "?" in chunk:
                raise ExtractError(
                    f"partial wildcard over {header.key} in case label")
            if not self._column(env, header, int(chunk, 2)):
                return False
        return True

    def _apply_terms(self, env: _Env, constraints) -> bool:
        """Each (header, value) in turn, up to the first infeasible."""
        for header, value in constraints:
            if not self._column(env, header, value):
                return False
        return True

    def _schema_expr(self, node) -> Optional[ExprHeader]:
        """The schema expression column a node renders to, if any."""
        if not self.has_expr_header:
            return None
        idx = self.key_index.get(ex.render(node))
        if idx is not None and isinstance(self.headers[idx], ExprHeader):
            return self.headers[idx]
        return None

    def _apply_condition(self, env: _Env, node) -> bool:
        """Decompose a guard into per-column constraints; non-reducible
        terms become expression columns.  Returns feasibility.

        A guard that matches a schema expression column verbatim binds
        that column rather than being decomposed further, so tables with
        expression conditions reconstruct onto their own columns."""
        if self.has_expr_header:
            header = self._schema_expr(node)
            if header is not None:
                return self._column(env, header, 1)
        # The common shapes first: `&&`, and `subject == number or label`.
        if isinstance(node, ex.Binary) and node.op == "&&":
            return (self._apply_condition(env, node.lhs)
                    and self._apply_condition(env, node.rhs))
        if isinstance(node, ex.Binary) and node.op == "==":
            cached = self.terms.get(id(node))
            if cached is not None and cached[0] is node:
                return self._apply_terms(env, cached[1])
            for subject, label in ((node.lhs, node.rhs),
                                   (node.rhs, node.lhs)):
                if isinstance(label, (ex.Num, ex.CasePattern)):
                    fields = self._label_fields(subject)
                    if fields is not None:
                        return self._apply_label(env, node, subject, fields,
                                                 label)
        # `~~x` and `{x}` are `x`.  Folding them keeps a guard nested to
        # the reader's limit in these within what validate_lct allows.
        if isinstance(node, ex.Concat) and len(node.parts) == 1:
            return self._apply_condition(env, node.parts[0])
        if isinstance(node, ex.Unary) and node.op == "~" and \
                isinstance(node.arg, ex.Unary) and node.arg.op == "~":
            return self._apply_condition(env, node.arg.arg)
        if isinstance(node, ex.Unary) and node.op == "!":
            header = self._schema_expr(node.arg)
            if header is not None:
                return self._column(env, header, 0)
        if isinstance(node, ex.Ident) and self._is_one_bit(node.name):
            return self._column(env, SignalHeader(node.name), 1)
        if isinstance(node, ex.Unary) and node.op in ("!", "~") and \
                isinstance(node.arg, ex.Ident) and \
                self._is_one_bit(node.arg.name):
            return self._column(env, SignalHeader(node.arg.name), 0)
        if not ex.identifiers(node):
            # A constant guard, such as 1'b1 or `1'b1 == 1'b1` (the arm
            # of a constant casez subject), keeps the path or drops it.
            try:
                return bool(ex.truth(node, {}))
            except ex.ExprError as e:
                raise ExtractError(f"constant guard: {e}") from None
        if isinstance(node, ex.Unary) and node.op == "!":
            return self._column(env, ExprHeader(ex.render(node.arg)), 0)
        return self._column(env, ExprHeader(ex.render(node)), 1)

    def _is_one_bit(self, name: str) -> bool:
        try:
            return self._signal_width(name) == 1
        except ExtractError:
            return False

    # -- path enumeration ---------------------------------------------------

    def paths(self) -> List[_Env]:
        return self._expand_body(_Env({}, {}, True), self.process.body)

    def _expand_body(self, env: _Env, body: list) -> List[_Env]:
        envs = [env]  # never empty: a statement keeps or adds paths
        for stmt in body:
            if isinstance(stmt, HAssign) and \
                    not isinstance(stmt.rhs, ex.Ternary):
                cached = self.cells.get(id(stmt))
                if cached is None or cached[0] is not stmt:
                    cached = self.cells[id(stmt)] = \
                        stmt, self._cell(stmt.lhs, stmt.rhs)
                cell = cached[1]
                for env in envs:
                    env.assigns[stmt.lhs] = cell
                    env.fall_through = False
                continue
            out: List[_Env] = []
            for env in envs:
                out.extend(self._expand(env, stmt))
                if len(out) > MAX_PATHS:
                    raise ExtractError(f"more than {MAX_PATHS} paths")
            envs = out
        return envs

    def _expand(self, env: _Env, stmt) -> List[_Env]:
        """Paths through one statement but a plain assignment.  Prioritized
        arms give, in priority order, each arm whose guard is feasible,
        then the default body or, without one, the bare fall-through.

        Only a path that took no arm and assigned nothing stays a
        fall-through, which a clocked process drops as the no-match
        hold.  An always-true arm (1'b1, an all-? label) is not one: it
        still shadows the arms after it."""
        if isinstance(stmt, HAssign):
            # `lhs = c ? t : o` is `if (c) lhs = t; else lhs = o;`.
            rhs = stmt.rhs
            stmt = HIf([(rhs.cond, [replace(stmt, rhs=rhs.then)])],
                       [replace(stmt, rhs=rhs.other)])
        if not isinstance(stmt, HIf):
            raise ExtractError(f"unsupported statement {stmt!r}")
        out: List[_Env] = []
        for guard, body in stmt.arms:
            arm_env = env.clone()
            arm_env.fall_through = False
            if self._apply_condition(arm_env, guard):
                out.extend(self._expand_body(arm_env, body))
        out.extend(self._expand_body(env.clone(), stmt.default or []))
        return out

    def _cell(self, lhs: str, rhs):
        if lhs not in self.result_widths:
            raise ExtractError(f"assignment to non-schema signal {lhs}")
        width = self.result_widths[lhs]
        if isinstance(rhs, ex.Num):
            if rhs.value >= (1 << width):
                raise ExtractError(
                    f"value {rhs.value} exceeds width of {lhs}")
            return self._constant(width, rhs.value)
        if isinstance(rhs, ex.Ident):
            try:
                return SignalRef(rhs.name)
            except LctError as e:  # an HDL name the table model rejects
                raise ExtractError(str(e)) from None
        raise ExtractError(
            f"assignment to {lhs} is not a constant or signal "
            f"(found {ex.render(rhs)})")

    def _constant(self, width: int, value: int) -> Constant:
        cell = self.constants.get((width, value))
        if cell is None:
            cell = self.constants[width, value] = Constant(
                BitVector(width, value))
        return cell

    # -- table assembly -----------------------------------------------------

    def build(self, name: str) -> Lct:
        clocked = self.process.kind is Clocking.CLOCKED
        paths = self.paths()  # which may add condition columns
        columns = [(h.key, w) for h, w in zip(self.headers, self.widths)]
        # Per result, its cell on a path that does not assign it.
        holds = [(result, SignalRef(result) if clocked else DONT_CARE)
                 for result in self.results]
        rows = []
        for env in paths:
            if clocked and env.fall_through:
                continue  # identical to holding via no-match
            get, assigns = env.constraints.get, env.assigns
            rows.append(CaseRow(
                tuple([DONT_CARE if (value := get(key)) is None
                       else self._constant(width, value)
                       for key, width in columns]),
                tuple([assigns.get(result, hold) for result, hold in holds])))

        ports = self._ports()
        table = Lct(name=name, clocking=self.process.kind,
                    conditions=tuple(self.headers),
                    results=tuple(self.results), rows=tuple(rows),
                    ports=ports, feedback=())
        table.require_valid(ExtractError, "reconstructed table is invalid")
        return table

    def _ports(self) -> PortMap:
        clocks = set(self.process.clocks)
        entries = []
        for port in self.module.ports:
            if port.name in clocks:
                continue
            entries.append(Port(port.direction, port.name, port.width))
        return PortMap(tuple(entries))


def select_process(module: HdlModule,
                   process_index: Optional[int] = None) -> HdlProcess:
    """Pick the process to reconstruct.  Continuous assignments form an
    implicit combinational process appended after the explicit ones."""
    processes = list(module.processes)
    if module.assigns:
        processes.append(HdlProcess(Clocking.COMBINATIONAL, [], [],
                                    list(module.assigns)))
    if not processes:
        raise ExtractError(f"module {module.name} has no processes")
    if process_index is None:
        if len(processes) > 1:
            raise ExtractError(
                f"module {module.name} has {len(processes)} processes; "
                "select one explicitly")
        return processes[0]
    if not 0 <= process_index < len(processes):
        raise ExtractError(f"no process {process_index} in {module.name}")
    return processes[process_index]


def hdl_to_lct(module: HdlModule, conditions: Sequence[str],
               results: Sequence[str], process_index: Optional[int] = None,
               name: Optional[str] = None) -> Lct:
    """Reconstruct an LCT from one process of a parsed module, using the
    given condition/result column headers.  Conditions the schema cannot
    express are appended as extra expression or signal columns."""
    process = select_process(module, process_index)
    builder = _Builder(module, process, conditions, results)
    return builder.build(name or module.name)


def hdl_text_to_lct(text: str, conditions: Sequence[str],
                    results: Sequence[str],
                    process_index: Optional[int] = None,
                    name: Optional[str] = None) -> Lct:
    return hdl_to_lct(parse_hdl(text), conditions, results, process_index,
                      name)
