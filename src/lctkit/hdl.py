"""
Parser for the supported Verilog subset: one module with ANSI port
declarations, wire/reg declarations, continuous assignments, and
edge-triggered or combinational always blocks containing if/else,
case/casez, and blocking/nonblocking assignments.

Anything outside the subset fails with the construct named and located.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .model import UNSUPPORTED, Clocking, Direction
from . import expr as ex
# The shared tokenizer, bound under the name parse_hdl calls, so that a
# wrapper on `hdl.tokenize` (perfbench's span) sees every HDL parse.
from .expr import CasePattern, HdlError, Token, tokenize


# ---------------------------------------------------------------------------
# AST

@dataclass
class HdlPort:
    direction: Direction
    name: str
    width: int
    is_reg: bool
    line: int


@dataclass
class HAssign:
    lhs: str
    rhs: object
    nonblocking: bool
    line: int


# Arms tried in priority order, then a default body (`else` or `default`)
# taken when no arm matches.  A `case` item is one arm per label, guarded
# by `subject == label`.

@dataclass
class HIf:
    arms: List[Tuple[object, list]]  # (guard, body) in priority order
    default: Optional[list]          # the final else or the default item
    line: int


@dataclass
class HdlProcess:
    kind: Clocking
    clocks: List[str]
    resets: List[str]  # negedge/extra-edge signals (async reset style)
    body: list
    line: int


@dataclass
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

class _Parser(ex._Parser):
    """The statement layer over the shared expression grammar."""

    def error(self, message: str, tok: Optional[Token] = None) -> HdlError:
        if tok is None:  # parse_hdl never reads an empty token list
            tok = self.tokens[min(self.i, len(self.tokens) - 1)]
        return HdlError(message, tok.line, tok.col)

    def take_ident(self) -> Token:
        tok = self.take()
        if not self.is_ident(tok):
            raise self.error(f"expected identifier, found {tok.text!r}", tok)
        return tok

    def check_supported(self, tok: Token):
        if tok.text in UNSUPPORTED:
            raise self.error(f"unsupported construct {tok.text!r}", tok)

    # -- module structure ---------------------------------------------------

    def module(self) -> HdlModule:
        self.take("module")
        name = self.take_ident().text
        module = HdlModule(name=name, ports=[])
        self.take("(")
        if not self.at(")"):
            while True:
                self.port_decl(module)
                if self.at(","):
                    self.take(",")
                else:
                    break
        self.take(")")
        self.take(";")
        while not self.at("endmodule"):
            tok = self.peek()
            if tok is None:
                raise self.error("missing endmodule")
            self.check_supported(tok)
            if tok.text in ("wire", "reg", "integer"):
                self.net_decl(module)
            elif tok.text == "assign":
                self.cont_assign(module)
            elif tok.text == "always":
                module.processes.append(self.always_block())
            else:
                raise self.error(f"unsupported module item {tok.text!r}", tok)
        self.take("endmodule")
        return module

    def port_decl(self, module: HdlModule):
        tok = self.take()
        try:
            direction = Direction(tok.text)
        except ValueError:
            raise self.error(f"expected port direction, found {tok.text!r}",
                             tok)
        is_reg = False
        if self.peek() and self.peek().text in ("wire", "reg"):
            is_reg = self.take().text == "reg"
        width = self.opt_range()
        name = self.take_ident()
        module.ports.append(HdlPort(direction, name.text, width, is_reg,
                                    name.line))

    def opt_range(self) -> int:
        if not self.at("["):
            return 1
        tok = self.take("[")
        msb = self.range_bound()
        self.take(":")
        lsb = self.range_bound()
        self.take("]")
        if lsb != 0 or msb < 0:
            raise self.error(f"only [N:0] ranges are supported, got "
                             f"[{msb}:{lsb}]", tok)
        return msb + 1

    def range_bound(self) -> int:
        tok = self.take()
        if tok.kind != "num":
            raise self.error(f"expected a number, found {tok.text!r}", tok)
        return int(tok.text)

    def net_decl(self, module: HdlModule):
        self.take()  # wire / reg / integer
        width = self.opt_range()
        while True:
            name = self.take_ident().text
            if module.port(name) is None:
                module.nets[name] = width
            if self.at(","):
                self.take(",")
            else:
                break
        self.take(";")

    def cont_assign(self, module: HdlModule):
        tok = self.take("assign")
        lhs = self.take_ident().text
        self.take("=")
        rhs = self.expression()
        self.take(";")
        module.assigns.append(HAssign(lhs, rhs, False, tok.line))

    def always_block(self) -> HdlProcess:
        tok = self.take("always")
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
                    if item is None:
                        raise self.error("unexpected end of input")
                    if item.text == "posedge":
                        self.take()
                        clocks.append(self.take_ident().text)
                    elif item.text == "negedge":
                        self.take()
                        resets.append(self.take_ident().text)
                    else:
                        self.take_ident()
                        combinational = True
                    if self.peek() and self.peek().text in (",", "or"):
                        self.take()
                    else:
                        break
            self.take(")")
        if clocks and combinational:
            raise self.error("mixed edge and level sensitivity", tok)
        kind = Clocking.CLOCKED if clocks else Clocking.COMBINATIONAL
        body = self.statement_block()
        return HdlProcess(kind, clocks, resets, body, tok.line)

    # -- statements ---------------------------------------------------------

    def statement_block(self) -> list:
        if self.at("begin"):
            self.open_bracket(self.take("begin"))
            stmts = []
            while not self.at("end"):
                if self.peek() is None:
                    raise self.error("missing end")
                stmts.extend(self.statement())
            self.take("end")
            self.brackets -= 1
            return stmts
        return self.statement()

    def statement(self) -> list:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of input in statement")
        self.check_supported(tok)
        if tok.text == ";":
            self.take(";")
            return []
        if tok.text == "if":
            return [self.if_statement()]
        if tok.text in ("case", "casez", "casex"):
            return [self.case_statement()]
        if tok.text == "begin":
            return self.statement_block()
        if self.is_ident(tok):
            name = self.take_ident()
            op = self.take()
            if op.text not in ("=", "<="):
                raise self.error(f"expected assignment, found {op.text!r}", op)
            rhs = self.expression()
            self.take(";")
            return [HAssign(name.text, rhs, op.text == "<=", name.line)]
        raise self.error(f"unsupported statement {tok.text!r}", tok)

    def if_statement(self) -> HIf:
        """One arm per `if` / `else if`, read in a loop: a chain of any
        length nests one level."""
        tok = self.take("if")
        self.open_bracket(tok)
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
        return HIf(arms, default, tok.line)

    def case_statement(self) -> HIf:
        """The prioritized arms of an `if` chain: one arm per label,
        `subject == label`, in source order, and the `default` item,
        wherever it is written, as the default body."""
        tok = self.take()
        if tok.text == "casex":
            raise self.error("unsupported construct 'casex'", tok)
        wildcard = tok.text == "casez"
        self.take("(")
        subject = self.expression()
        self.take(")")
        self.open_bracket(tok)
        arms = []
        default = None
        while not self.at("endcase"):
            if self.peek() is None:
                raise self.error("missing endcase")
            if self.at("default"):
                item = self.take("default")
                if default is not None:
                    raise self.error("second default item in case", item)
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
        return HIf(arms, default, tok.line)

    def case_label(self, wildcard: bool):
        tok = self.peek()
        if (tok is not None and tok.kind == "lit"
                and re.search(r"[?zZxX]", tok.text)):
            self.take()
            m = re.match(r"(\d+)'[bB]([01?zZxX_]+)\Z", tok.text)
            if not m or not wildcard:
                raise self.error(f"bad case label {tok.text!r}", tok)
            width = int(m.group(1))
            bits = m.group(2).replace("_", "").lower().replace("z", "?")
            if "x" in bits:
                raise self.error(
                    f"x bits are not supported in {tok.text!r}", tok)
            if len(bits) != width:
                raise self.error(
                    f"case label width mismatch in {tok.text!r}", tok)
            return CasePattern(width, bits)
        return self.expression()


def parse_hdl(text: str) -> HdlModule:
    """Parse one module within the supported subset."""
    tokens = tokenize(text)
    if not tokens:
        raise HdlError("empty input", 1, 1)
    return _Parser(tokens).module()
