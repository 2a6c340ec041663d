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

from .model import Clocking, Direction, LctError
from . import expr as ex
from .expr import Token


class HdlError(LctError):
    """Syntax error or unsupported construct, with source coordinates."""

    def __init__(self, message: str, line: Optional[int] = None,
                 col: Optional[int] = None):
        where = f" (line {line}, column {col})" if line is not None else ""
        super().__init__(message + where)
        self.line = line
        self.col = col


UNSUPPORTED = {
    "for", "while", "repeat", "forever", "function", "task", "generate",
    "genvar", "initial", "fork", "join", "specify", "primitive", "table",
    "real", "event", "deassign", "force", "release", "wait", "disable",
}

KEYWORDS = {
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "always", "assign", "begin", "end", "if", "else", "case", "casez",
    "casex", "endcase", "default", "posedge", "negedge", "or", "integer",
    "signed", "parameter", "localparam",
} | UNSUPPORTED


_HDL_TOKEN_RE = re.compile(r"""
      (?P<ws>\s+|//[^\n]*|/\*.*?\*/)
    | (?P<lit>\d+'[bdhBDH][0-9a-fA-F_?zZxX]+)
    | (?P<num>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_$]*)
    | (?P<op><=|>=|==|!=|&&|\|\||[@#.(){}\[\],;:?=<>&|^~!*+-])
    """, re.VERBOSE | re.DOTALL)


def tokenize(text: str) -> List[Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _HDL_TOKEN_RE.match(text, pos)
        if not m:
            col = pos - line_start + 1
            raise HdlError(f"unexpected character {text[pos]!r}", line, col)
        chunk = m.group(0)
        if m.lastgroup != "ws":
            tokens.append(Token(m.lastgroup, chunk, line,
                                pos - line_start + 1))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            line_start = pos + chunk.rfind("\n") + 1
        pos = m.end()
    return tokens


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class CasePattern:
    """A casez arm label containing wildcard bits, e.g. 3'b0??."""
    width: int
    bits: str  # one char per bit, msb first: 0, 1, or ?


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


# Both prioritized forms share one shape: arms in priority order, then a
# default body (`else` or `default`) taken when no arm matches.

@dataclass
class HIf:
    arms: List[Tuple[object, list]]  # (condition, body) for if, else if...
    default: Optional[list]          # the final else body
    line: int


@dataclass
class HCaseArm:
    patterns: list
    body: list


@dataclass
class HCase:
    subject: object
    arms: List[HCaseArm]
    default: Optional[list]  # the default item, wherever it was written
    wildcard: bool  # casez
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
        if tok is None and self.tokens:
            tok = self.tokens[min(self.i, len(self.tokens) - 1)]
        return HdlError(message, tok.line if tok else None,
                        tok.col if tok else None)

    def is_ident(self, tok: Token) -> bool:
        return tok.kind == "ident" and tok.text not in KEYWORDS

    def take_ident(self) -> Token:
        tok = self.take()
        if not self.is_ident(tok):
            raise self.error(f"expected identifier, found {tok.text!r}", tok)
        return tok

    def check_supported(self, tok: Token):
        if tok.text in UNSUPPORTED:
            raise HdlError(f"unsupported construct {tok.text!r}",
                           tok.line, tok.col)

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
                raise HdlError("missing endmodule")
            self.check_supported(tok)
            if tok.text in ("wire", "reg", "integer"):
                self.net_decl(module)
            elif tok.text == "assign":
                self.cont_assign(module)
            elif tok.text == "always":
                module.processes.append(self.always_block())
            else:
                raise HdlError(f"unsupported module item {tok.text!r}",
                               tok.line, tok.col)
        self.take("endmodule")
        return module

    def port_decl(self, module: HdlModule):
        tok = self.take()
        try:
            direction = Direction(tok.text)
        except ValueError:
            raise HdlError(f"expected port direction, found {tok.text!r}",
                           tok.line, tok.col)
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
        self.take("[")
        msb = self.range_bound()
        self.take(":")
        lsb = self.range_bound()
        self.take("]")
        if lsb != 0 or msb < 0:
            raise HdlError(f"only [N:0] ranges are supported, got "
                           f"[{msb}:{lsb}]")
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
            raise HdlError("mixed edge and level sensitivity", tok.line,
                           tok.col)
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
                    raise HdlError("missing end")
                stmts.extend(self.statement())
            self.take("end")
            self.brackets -= 1
            return stmts
        return self.statement()

    def statement(self) -> list:
        tok = self.peek()
        if tok is None:
            raise HdlError("unexpected end of input in statement")
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
                raise HdlError(f"expected assignment, found {op.text!r}",
                               op.line, op.col)
            rhs = self.expression()
            self.take(";")
            return [HAssign(name.text, rhs, op.text == "<=", name.line)]
        raise HdlError(f"unsupported statement {tok.text!r}", tok.line,
                       tok.col)

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

    def case_statement(self) -> HCase:
        tok = self.take()
        if tok.text == "casex":
            raise HdlError("unsupported construct 'casex'", tok.line, tok.col)
        wildcard = tok.text == "casez"
        self.take("(")
        subject = self.expression()
        self.take(")")
        self.open_bracket(tok)
        arms: List[HCaseArm] = []
        default = None
        while not self.at("endcase"):
            if self.peek() is None:
                raise HdlError("missing endcase")
            if self.at("default"):
                item = self.take("default")
                if default is not None:
                    raise self.error("second default item in case", item)
                self.take(":")
                default = self.statement()
                continue
            patterns = [self.case_label(wildcard)]
            while self.at(","):
                self.take(",")
                patterns.append(self.case_label(wildcard))
            self.take(":")
            arms.append(HCaseArm(patterns, self.statement()))
        self.take("endcase")
        self.brackets -= 1
        return HCase(subject, arms, default, wildcard, tok.line)

    def case_label(self, wildcard: bool):
        tok = self.peek()
        if (tok is not None and tok.kind == "lit"
                and re.search(r"[?zZxX]", tok.text)):
            self.take()
            m = re.match(r"(\d+)'[bB]([01?zZxX_]+)\Z", tok.text)
            if not m or not wildcard:
                raise HdlError(f"bad case label {tok.text!r}", tok.line,
                               tok.col)
            width = int(m.group(1))
            bits = m.group(2).replace("_", "").lower().replace("z", "?")
            if "x" in bits:
                raise HdlError(f"x bits are not supported in {tok.text!r}",
                               tok.line, tok.col)
            if len(bits) != width:
                raise HdlError(f"case label width mismatch in {tok.text!r}",
                               tok.line, tok.col)
            return CasePattern(width, bits)
        return self.expression()


def parse_hdl(text: str) -> HdlModule:
    """Parse one module within the supported subset."""
    tokens = tokenize(text)
    if not tokens:
        raise HdlError("empty input")
    parser = _Parser(tokens)
    if not parser.at("module"):
        tok = parser.peek()
        raise HdlError(f"expected 'module', found {tok.text!r}", tok.line,
                       tok.col)
    module = parser.module()
    return module
