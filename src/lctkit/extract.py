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

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import expr as ex
from .hdl import (
    CasePattern,
    HAssign,
    HCase,
    HIf,
    HdlModule,
    HdlProcess,
    parse_hdl,
)
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
    validate_lct,
)

MAX_PATHS = 1 << 16


class ExtractError(LctError):
    """The module cannot be reduced to the requested schema."""


@dataclass
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
            self.has_expr_header |= is_expr
            self.widths.append(1 if is_expr else self._signal_width(key))
            self.key_index[key] = len(self.headers)
            self.headers.append(header)
        return self.key_index[key]

    # -- constraint handling ------------------------------------------------

    def _constrain(self, env: _Env, key: str, value: int) -> bool:
        """Record key=value; returns False if the path becomes infeasible."""
        old = env.constraints.get(key)
        if old is not None:
            return old == value
        env.constraints[key] = value
        return True

    def _signal_constraint(self, env: _Env, name: str, value: int) -> bool:
        port = self.ports.get(name)
        if port is not None and port.direction is not Direction.INPUT:
            raise ExtractError(
                f"branch condition over non-input signal {name}")
        idx = self._add_header(SignalHeader(name))
        if value >= (1 << self.widths[idx]):
            raise ExtractError(
                f"condition value {value} exceeds width of {name}")
        return self._constrain(env, name, value)

    def _expr_constraint(self, env: _Env, node, value: int) -> bool:
        idx = self._add_header(ExprHeader(ex.render(node)))
        return self._constrain(env, self.headers[idx].key, value)

    def _schema_expr_index(self, node) -> Optional[int]:
        if not self.has_expr_header:
            return None
        idx = self.key_index.get(ex.render(node))
        if idx is not None and isinstance(self.headers[idx], ExprHeader):
            return idx
        return None

    def _apply_condition(self, env: _Env, node) -> bool:
        """Decompose a guard into per-column constraints; non-reducible
        terms become expression columns.  Returns feasibility.

        A guard that matches a schema expression column verbatim binds
        that column rather than being decomposed further, so tables with
        expression conditions reconstruct onto their own columns."""
        idx = self._schema_expr_index(node)
        if idx is not None:
            return self._constrain(env, self.headers[idx].key, 1)
        # `~~x` and `{x}` are `x`.  Folding them keeps a guard nested to
        # the reader's limit in these within what validate_lct allows.
        if isinstance(node, ex.Concat) and len(node.parts) == 1:
            return self._apply_condition(env, node.parts[0])
        if isinstance(node, ex.Unary) and node.op == "~" and \
                isinstance(node.arg, ex.Unary) and node.arg.op == "~":
            return self._apply_condition(env, node.arg.arg)
        if isinstance(node, ex.Unary) and node.op == "!":
            idx = self._schema_expr_index(node.arg)
            if idx is not None:
                return self._constrain(env, self.headers[idx].key, 0)
        if isinstance(node, ex.Binary) and node.op == "&&":
            return (self._apply_condition(env, node.lhs)
                    and self._apply_condition(env, node.rhs))
        if isinstance(node, ex.Binary) and node.op == "==" and \
                isinstance(node.lhs, ex.Ident) and isinstance(node.rhs, ex.Num):
            return self._signal_constraint(env, node.lhs.name,
                                           node.rhs.value)
        if isinstance(node, ex.Binary) and node.op == "==" and \
                isinstance(node.rhs, ex.Ident) and isinstance(node.lhs, ex.Num):
            return self._signal_constraint(env, node.rhs.name,
                                           node.lhs.value)
        if isinstance(node, ex.Ident) and self._is_one_bit(node.name):
            return self._signal_constraint(env, node.name, 1)
        if isinstance(node, ex.Unary) and node.op in ("!", "~") and \
                isinstance(node.arg, ex.Ident) and \
                self._is_one_bit(node.arg.name):
            return self._signal_constraint(env, node.arg.name, 0)
        if isinstance(node, ex.Num):
            return node.value != 0  # constant guard: 1'b1 keeps the path
        if isinstance(node, ex.Unary) and node.op == "!":
            return self._expr_constraint(env, node.arg, 0)
        return self._expr_constraint(env, node, 1)

    def _is_one_bit(self, name: str) -> bool:
        try:
            return self._signal_width(name) == 1
        except ExtractError:
            return False

    # -- path enumeration ---------------------------------------------------

    def paths(self) -> List[_Env]:
        return self._expand_body(_Env({}, {}, True), self.process.body)

    def _expand_body(self, env: _Env, body: list) -> List[_Env]:
        envs = [env]
        for stmt in body:
            envs = self._apply_stmt(envs, stmt)
        return envs

    def _apply_stmt(self, envs: List[_Env], stmt) -> List[_Env]:
        out: List[_Env] = []
        for env in envs:
            out.extend(self._expand(env, stmt))
            if len(out) > MAX_PATHS:
                raise ExtractError(f"more than {MAX_PATHS} paths")
        return out

    def _expand(self, env: _Env, stmt) -> List[_Env]:
        if isinstance(stmt, HAssign):
            return self._expand_assign(env, stmt.lhs, stmt.rhs)
        if isinstance(stmt, HIf):
            return self._expand_arms(env, stmt.arms, stmt.default,
                                     self._apply_condition)
        if isinstance(stmt, HCase):
            fields = self._case_fields(stmt.subject)
            arms = [(pattern, arm.body)
                    for arm in stmt.arms for pattern in arm.patterns]
            return self._expand_arms(
                env, arms, stmt.default,
                lambda arm_env, pattern:
                    self._apply_pattern(arm_env, fields, pattern))
        raise ExtractError(f"unsupported statement {stmt!r}")

    def _expand_arms(self, env: _Env, arms, default: Optional[list],
                     apply_guard) -> List[_Env]:
        """Paths through prioritized arms, in priority order: each arm
        whose guard (a condition or a case label) is feasible, then the
        default body or, without one, the bare fall-through.

        Only a path that took no arm and assigned nothing stays a
        fall-through, which a clocked process drops as the no-match
        hold.  An always-true arm (1'b1, an all-? label) is not one: it
        still shadows the arms after it."""
        out: List[_Env] = []
        for guard, body in arms:
            arm_env = env.clone()
            arm_env.fall_through = False
            if apply_guard(arm_env, guard):
                out.extend(self._expand_body(arm_env, body))
        out.extend(self._expand_body(env.clone(), default or []))
        return out

    def _expand_assign(self, env: _Env, lhs: str, rhs) -> List[_Env]:
        if isinstance(rhs, ex.Ternary):
            then_env = env.clone()
            branches = []
            if self._apply_condition(then_env, rhs.cond):
                branches.extend(self._expand_assign(then_env, lhs, rhs.then))
            branches.extend(self._expand_assign(env.clone(), lhs, rhs.other))
            return branches
        if lhs not in self.result_widths:
            raise ExtractError(f"assignment to non-schema signal {lhs}")
        env.assigns[lhs] = self._cell(lhs, rhs)
        env.fall_through = False
        return [env]

    def _cell(self, lhs: str, rhs):
        width = self.result_widths[lhs]
        if isinstance(rhs, ex.Num):
            if rhs.value >= (1 << width):
                raise ExtractError(
                    f"value {rhs.value} exceeds width of {lhs}")
            return self._constant(width, rhs.value)
        if isinstance(rhs, ex.Ident):
            return SignalRef(rhs.name)
        raise ExtractError(
            f"assignment to {lhs} is not a constant or signal "
            f"(found {ex.render(rhs)})")

    def _constant(self, width: int, value: int) -> Constant:
        cell = self.constants.get((width, value))
        if cell is None:
            cell = self.constants[width, value] = Constant(
                BitVector(width, value))
        return cell

    def _case_fields(self, subject) -> List[Tuple[str, int]]:
        if isinstance(subject, ex.Ident):
            return [(subject.name, self._signal_width(subject.name))]
        if isinstance(subject, ex.Concat):
            fields = []
            for part in subject.parts:
                if not isinstance(part, ex.Ident):
                    raise ExtractError(
                        "case subject must be a signal or a concatenation "
                        "of signals")
                fields.append((part.name, self._signal_width(part.name)))
            return fields
        raise ExtractError(
            "case subject must be a signal or a concatenation of signals")

    def _apply_pattern(self, env: _Env, fields, pattern) -> bool:
        total = sum(width for _, width in fields)
        if isinstance(pattern, ex.Num):
            bits = f"{pattern.value:0{total}b}"
            if pattern.value >= (1 << total):
                raise ExtractError("case label exceeds subject width")
        elif isinstance(pattern, CasePattern):
            if pattern.width != total:
                raise ExtractError(
                    f"case label width {pattern.width} != subject width "
                    f"{total}")
            bits = pattern.bits
        else:
            raise ExtractError(f"bad case label {pattern!r}")
        pos = 0
        for name, width in fields:
            chunk = bits[pos:pos + width]
            pos += width
            if chunk == "?" * width:
                continue
            if "?" in chunk:
                raise ExtractError(
                    f"partial wildcard over {name} in case label")
            if not self._signal_constraint(env, name, int(chunk, 2)):
                return False
        return True

    # -- table assembly -----------------------------------------------------

    def build(self, name: str) -> Lct:
        clocked = self.process.kind is Clocking.CLOCKED
        rows = []
        for env in self.paths():
            if clocked and env.fall_through:
                continue  # identical to holding via no-match
            inputs = []
            for header, width in zip(self.headers, self.widths):
                key = header.key
                value = env.constraints.get(key)
                if value is None:
                    inputs.append(DONT_CARE)
                else:
                    inputs.append(self._constant(width, value))
            outputs = []
            for result in self.results:
                cell = env.assigns.get(result)
                if cell is None:
                    cell = SignalRef(result) if clocked else DONT_CARE
                outputs.append(cell)
            rows.append(CaseRow(tuple(inputs), tuple(outputs)))

        ports = self._ports()
        table = Lct(name=name, clocking=self.process.kind,
                    conditions=tuple(self.headers),
                    results=tuple(self.results), rows=tuple(rows),
                    ports=ports, feedback=())
        violations = validate_lct(table)
        if violations:
            raise ExtractError("reconstructed table is invalid: " +
                               "; ".join(str(v) for v in violations))
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
                                    list(module.assigns),
                                    module.assigns[0].line))
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
