"""
Parser for the supported Verilog subset: one module with ANSI port
declarations, wire/reg declarations, continuous assignments, and
edge-triggered or combinational always blocks containing if/else,
case/casez, and blocking/nonblocking assignments.

Anything outside the subset fails with the construct named and located.
Within one parse, equal terms `(a OP b)` over leaves a and b are one
shared node, and so are equal statements `x OP b;` in `begin ... end`
blocks, so an HAssign is frozen.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .model import UNSUPPORTED, Clocking, Direction
from . import expr as ex
# The shared tokenizer, bound under the name parse_hdl calls, so that a
# wrapper on `hdl.tokenize` (perfbench's span) sees every HDL parse.
from .expr import CasePattern, HdlError, locate, tokenize


# ---------------------------------------------------------------------------
# AST

@dataclass(slots=True)
class HdlPort:
    direction: Direction
    name: str
    width: int
    is_reg: bool


@dataclass(frozen=True, slots=True)
class HAssign:
    lhs: str
    rhs: object
    nonblocking: bool


# Arms tried in priority order, then a default body (`else` or `default`)
# taken when no arm matches.  A `case` item is one arm per label, guarded
# by `subject == label`.

@dataclass(slots=True)
class HIf:
    arms: List[Tuple[object, list]]  # (guard, body) in priority order
    default: Optional[list]          # the final else or the default item


@dataclass(slots=True)
class HdlProcess:
    kind: Clocking
    clocks: List[str]
    resets: List[str]  # negedge/extra-edge signals (async reset style)
    body: list


@dataclass(slots=True)
class HdlModule:
    name: str
    ports: List[HdlPort]
    nets: dict = field(default_factory=dict)  # internal wire/reg -> width
    processes: List[HdlProcess] = field(default_factory=list)
    assigns: List[HAssign] = field(default_factory=list)

    def port(self, name: str) -> Optional[HdlPort]:
        for p in self.ports:
            if p.name == name:
                return p
        return None


# ---------------------------------------------------------------------------
# Parser

_WILDCARD_RE = re.compile(r"[?zZxX]")
_CASE_PATTERN_RE = re.compile(r"([0-9]+)'[bB]([01?zZxX_]+)\Z")


# A port's direction by its keyword: a lookup, where calling the enum
# takes a microsecond per port.
_DIRECTIONS = {d.value: d for d in Direction}


class _Parser(ex._Parser):
    """The statement layer over the shared expression grammar, over the
    tokens of `text`."""

    def __init__(self, tokens: List[str], text: str):
        super().__init__(tokens)
        self.text = text
        self.assigns = {}  # the texts `name OP leaf ;` -> their HAssign

    def error(self, message: str, at: Optional[int] = None) -> HdlError:
        # Past the end, at the last token: parse_hdl reads no empty list.
        at = min(self.i if at is None else at, len(self.tokens) - 2)
        return HdlError(message, *locate(self.text, at))

    def take_ident(self) -> str:
        tok = self.take()
        if not self.is_ident(tok):
            raise self.error(f"expected identifier, found {tok!r}",
                             self.i - 1)
        return tok

    def check_supported(self, tok: str):  # the next token
        if tok in UNSUPPORTED:
            raise self.error(f"unsupported construct {tok!r}")

    # -- module structure ---------------------------------------------------

    def module(self) -> HdlModule:
        self.take("module")
        name = self.take_ident()
        module = HdlModule(name=name, ports=[])
        self.take("(")
        if not self.at(")"):
            self.port_decl(module)
            while self.at(","):
                self.take(",")
                self.port_decl(module)
        self.take(")")
        self.take(";")
        while not self.at("endmodule"):
            tok = self.peek()
            if not tok:
                raise self.error("missing endmodule")
            self.check_supported(tok)
            if tok in ("wire", "reg", "integer"):
                self.net_decl(module)
            elif tok == "assign":
                self.cont_assign(module)
            elif tok == "always":
                module.processes.append(self.always_block())
            else:
                raise self.error(f"unsupported module item {tok!r}")
        self.take("endmodule")
        return module

    def port_decl(self, module: HdlModule):
        tok = self.take()
        direction = _DIRECTIONS.get(tok)
        if direction is None:
            raise self.error(f"expected port direction, found {tok!r}",
                             self.i - 1)
        is_reg = False
        if self.peek() in ("wire", "reg"):
            is_reg = self.take() == "reg"
        width = self.opt_range()
        module.ports.append(HdlPort(direction, self.take_ident(), width,
                                    is_reg))

    def opt_range(self) -> int:
        if not self.at("["):
            return 1
        start = self.i
        self.take("[")
        msb = self.range_bound()
        self.take(":")
        lsb = self.range_bound()
        self.take("]")
        if lsb != 0 or msb < 0:
            raise self.error(f"only [N:0] ranges are supported, got "
                             f"[{msb}:{lsb}]", start)
        return msb + 1

    def range_bound(self) -> int:
        tok = self.take()
        if not (tok.isascii() and tok.isdigit()):
            raise self.error(f"expected a number, found {tok!r}", self.i - 1)
        return int(tok)

    def net_decl(self, module: HdlModule):
        self.take()  # wire / reg / integer
        width = self.opt_range()
        while True:
            name = self.take_ident()
            if module.port(name) is None:
                module.nets[name] = width
            if not self.at(","):
                break
            self.take(",")
        self.take(";")

    def cont_assign(self, module: HdlModule):
        self.take("assign")
        lhs = self.take_ident()
        self.take("=")
        rhs = self.expression()
        self.take(";")
        module.assigns.append(HAssign(lhs, rhs, False))

    def always_block(self) -> HdlProcess:
        start = self.i
        self.take("always")
        self.take("@")
        clocks: List[str] = []
        resets: List[str] = []
        combinational = False
        if self.at("*"):
            self.take("*")
            combinational = True
        else:
            self.take("(")
            if self.at("*"):
                self.take("*")
                combinational = True
            else:
                while True:
                    item = self.peek()
                    if not item:
                        raise self.error("unexpected end of input")
                    if item == "posedge":
                        self.take()
                        clocks.append(self.take_ident())
                    elif item == "negedge":
                        self.take()
                        resets.append(self.take_ident())
                    else:
                        self.take_ident()
                        combinational = True
                    if self.peek() in (",", "or"):
                        self.take()
                    else:
                        break
            self.take(")")
        if clocks and combinational:
            raise self.error("mixed edge and level sensitivity", start)
        kind = Clocking.CLOCKED if clocks else Clocking.COMBINATIONAL
        return HdlProcess(kind, clocks, resets, self.statement_block())

    # -- statements ---------------------------------------------------------

    def statement_block(self) -> list:
        toks = self.tokens
        if toks[self.i] != "begin":
            return self.statement()
        self.i += 1
        self.open_bracket(self.i - 1)
        assigns = self.assigns
        n = len(toks)
        stmts = []
        while (tok := toks[i := self.i]) != "end":
            # A repeated `name OP leaf ;` is looked up here, once.
            key = ((tok, toks[i + 1], toks[i + 2], toks[i + 3])
                   if i + 3 < n else tuple(toks[i:]))
            node = assigns.get(key)
            if node is not None:
                self.i = i + 4
                stmts.append(node)
            elif self.is_ident(tok):
                stmts.append(self.assignment(key))
            elif not tok:
                raise self.error("missing end")
            else:
                stmts += self.statement()
        self.i += 1
        self.brackets -= 1
        return stmts

    def statement(self) -> list:
        tok = self.tokens[self.i]
        # The commonest statement first; no keyword is an identifier.
        if self.is_ident(tok):
            return [self.assignment(tuple(self.tokens[self.i:self.i + 4]))]
        if not tok:
            raise self.error("unexpected end of input in statement")
        self.check_supported(tok)
        if tok == ";":
            self.take(";")
            return []
        if tok == "if":
            return [self.if_statement()]
        if tok in ("case", "casez", "casex"):
            return [self.case_statement()]
        if tok == "begin":
            return self.statement_block()
        raise self.error(f"unsupported statement {tok!r}")

    def assignment(self, key: tuple) -> HAssign:
        """The assignment at the next token, whose first four tokens are
        `key`: kept when it is `name OP leaf ;`."""
        start = self.i
        self.i += 2
        op = key[1]
        if op != "=" and op != "<=":
            raise self.error(f"expected assignment, found {op!r}" if op
                             else "unexpected end of input", self.i - 1)
        node = HAssign(key[0], self.expression(), op == "<=")
        self.take(";")
        if self.i == start + 4:
            self.assigns[key] = node
        return node

    def if_statement(self) -> HIf:
        """One arm per `if` / `else if`, read in a loop: a chain of any
        length nests one level."""
        self.take("if")
        self.open_bracket(self.i - 1)
        arms = []
        default = None
        while True:
            self.take("(")
            cond = self.expression()
            self.take(")")
            arms.append((cond, self.statement_block()))
            if not self.at("else"):
                break
            self.take("else")
            if not self.at("if"):
                default = self.statement_block()
                break
            self.take("if")
        self.brackets -= 1
        return HIf(arms, default)

    def case_statement(self) -> HIf:
        """The prioritized arms of an `if` chain: one arm per label,
        `subject == label`, in source order, and the `default` item,
        wherever it is written, as the default body."""
        start = self.i
        tok = self.take()
        if tok == "casex":
            raise self.error("unsupported construct 'casex'", start)
        wildcard = tok == "casez"
        self.take("(")
        subject = self.expression()
        self.take(")")
        self.open_bracket(start)
        arms = []
        default = None
        while not self.at("endcase"):
            if not self.peek():
                raise self.error("missing endcase")
            if self.at("default"):
                if default is not None:
                    raise self.error("second default item in case")
                self.take("default")
                self.take(":")
                default = self.statement()
                continue
            labels = [self.case_label(wildcard)]
            while self.at(","):
                self.take(",")
                labels.append(self.case_label(wildcard))
            self.take(":")
            body = self.statement()
            arms.extend((ex.Binary("==", subject, label), body)
                        for label in labels)
        self.take("endcase")
        self.brackets -= 1
        return HIf(arms, default)

    def case_label(self, wildcard: bool):
        tok = self.peek()
        # Only a literal both starts with a digit and holds one of these.
        if "0" <= tok[:1] <= "9" and _WILDCARD_RE.search(tok):
            m = _CASE_PATTERN_RE.match(tok)
            if not m or not wildcard:
                raise self.error(f"bad case label {tok!r}")
            width = int(m.group(1))
            bits = m.group(2).replace("_", "").lower().replace("z", "?")
            if "x" in bits:
                raise self.error(f"x bits are not supported in {tok!r}")
            if len(bits) != width:
                raise self.error(f"case label width mismatch in {tok!r}")
            self.take()
            return CasePattern(width, bits)
        return self.expression()


def parse_hdl(text: str) -> HdlModule:
    """Parse one module within the supported subset."""
    tokens = tokenize(text)
    if not tokens:
        raise HdlError("empty input", 1, 1)
    return _Parser(tokens, text).module()
