"""
Expression trees, and the one lexer and expression grammar that condition
headers and the HDL subset share: `parse_expr` reads a header, and the
HDL parser extends `_Parser` over its own token list.

Grammar (loosest to tightest binding):

    ternary   := logic_or ('?' ternary ':' ternary)?
    logic_or  := logic_and ('||' logic_and)*
    logic_and := bit_or ('&&' bit_or)*
    bit_or    := bit_xor ('|' bit_xor)*
    bit_xor   := bit_and ('^' bit_and)*
    bit_and   := equality ('&' equality)*
    equality  := relation (('==' | '!=') relation)*
    relation  := unary (('<' | '<=' | '>' | '>=') unary)*
    unary     := ('~' | '!')* primary
    primary   := identifier | literal | '(' ternary ')' | '{' list '}'

The binary levels are parsed by one precedence-climbing loop.  Nesting
deeper than MAX_DEPTH is an error, not a stack overflow.  Sized literals
must fit their width.  No identifier is a reserved word (`KEYWORDS`), and
a header holds no comment.

Rendering is fully parenthesized; two expressions are considered the same
condition iff their renderings are byte-identical.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import List, Mapping, NamedTuple, Optional

from .model import KEYWORDS, BitVector, LctError, parse_literal


class ExprError(LctError):
    """Malformed expression or evaluation failure."""


class HdlError(LctError):
    """Syntax error, unsupported construct or stray character, with
    source coordinates."""

    def __init__(self, message: str, line: Optional[int] = None,
                 col: Optional[int] = None):
        where = f" (line {line}, column {col})" if line is not None else ""
        super().__init__(message + where)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Ident:
    name: str


@dataclass(frozen=True)
class Num:
    value: int
    width: Optional[int]  # None for bare decimals


@dataclass(frozen=True)
class Unary:
    op: str
    arg: object


@dataclass(frozen=True)
class Binary:
    op: str
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Ternary:
    cond: object
    then: object
    other: object


@dataclass(frozen=True)
class Concat:
    parts: tuple


# One match per token: the whitespace and comments before it, then the
# token, a stray character (`bad`), or the end of the text.  After the
# skipped run the next character is never whitespace, so the match
# never backtracks into a comment.  Headers and HDL share these tokens;
# the parsers decide which of them each may hold.
_TOKEN_RE = re.compile(r"""
    ((?:\s+|//[^\n]*|/\*.*?\*/)*)
    (?:(?P<lit>\d+'[bdhBDH][0-9a-fA-F_?zZxX]+)
    | (?P<num>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_$]*)
    | (?P<op><=|>=|==|!=|&&|\|\||[@#.(){}\[\],;:?=<>&|^~!*+-])
    | (?P<bad>\S)
    | \Z)
    """, re.VERBOSE | re.DOTALL)

# The most brackets, and the most prefix operators and ternary arms, that
# may be open at once (see _Parser).
MAX_DEPTH = 100

# The most brackets or prefix operators codegen opens around a header's
# canonical text in an `if` guard: the process's `begin`, the `if`, and
# `(...)` or `(!(...))`.  In canonical text every operator has its own
# bracket, so this one budget bounds both (see check_guard).
GUARD_DEPTH = 4

# Binary operators by binding strength, loosest first.
_BINARY = {"||": 0, "&&": 1, "|": 2, "^": 3, "&": 4, "==": 5, "!=": 5,
           "<": 6, "<=": 6, ">": 6, ">=": 6}


class Token(NamedTuple):
    kind: str  # ident, lit, num, op
    text: str
    line: int
    col: int


def tokenize(text: str) -> List[Token]:
    tokens = []
    line = 1
    col = 1  # of the character after the previous token
    for skipped, lit, num, ident, op, bad in _TOKEN_RE.findall(text):
        if "\n" in skipped:
            line += skipped.count("\n")
            col = len(skipped) - skipped.rindex("\n")
        else:
            col += len(skipped)
        if lit:
            tok = Token("lit", lit, line, col)
        elif num:
            tok = Token("num", num, line, col)
        elif ident:
            tok = Token("ident", ident, line, col)
        elif op:
            tok = Token("op", op, line, col)
        elif bad:
            raise HdlError(f"unexpected character {bad!r}", line, col)
        else:  # only whitespace and comments were left
            break
        tokens.append(tok)
        col += len(tok.text)
    return tokens


class _Parser:
    """Recursive descent over a token list.  The HDL parser extends it
    with statements, overriding `error` (to locate errors).  Reserved
    words are never identifiers.

    Nesting is bounded, so no input can exhaust the interpreter stack:
    at most MAX_DEPTH brackets (also `begin` and the bodies of `if` and
    `case` in HDL) and at most MAX_DEPTH prefix operators and ternary
    arms may be open at once.  The two are counted apart because
    canonical rendering brackets every unary and ternary node: `~~a`
    renders as `(~(~a))`, which must parse again."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.brackets = 0
        self.operators = 0
        # Literal text -> Num for this parse; a text that fails is not
        # kept, so each occurrence raises at its own token.
        self.literals = {}

    def error(self, message: str, tok=None) -> LctError:
        return ExprError(message)

    def is_ident(self, tok) -> bool:
        return tok.kind == "ident" and tok.text not in KEYWORDS

    def peek(self):
        try:
            return self.tokens[self.i]
        except IndexError:
            return None

    def at(self, text: str) -> bool:
        try:
            return self.tokens[self.i].text == text
        except IndexError:
            return False

    def take(self, text=None):
        try:
            tok = self.tokens[self.i]
        except IndexError:
            raise self.error("unexpected end of input") from None
        if text is not None and tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text!r}", tok)
        self.i += 1
        return tok

    def open_bracket(self, tok):
        self.brackets += 1
        if self.brackets > MAX_DEPTH:
            raise self.error(f"nesting deeper than {MAX_DEPTH} levels", tok)

    def open_operator(self, tok):
        self.operators += 1
        if self.operators > MAX_DEPTH:
            raise self.error(f"nesting deeper than {MAX_DEPTH} levels", tok)

    def expression(self):
        cond = self.binary()
        tok = self.peek()
        if tok is None or tok.text != "?":
            return cond
        self.i += 1
        self.open_operator(tok)
        then = self.expression()
        self.take(":")
        other = self.expression()
        self.operators -= 1
        return Ternary(cond, then, other)

    def binary(self):
        """Precedence climbing with explicit stacks: operators of equal
        strength associate to the left."""
        operands = [self.unary()]
        pending = []
        while True:
            tok = self.peek()
            level = _BINARY.get(tok.text) if tok is not None else None
            while pending and (level is None
                               or _BINARY[pending[-1]] >= level):
                rhs = operands.pop()
                operands.append(Binary(pending.pop(), operands.pop(), rhs))
            if level is None:
                return operands[0]
            self.i += 1
            pending.append(tok.text)
            operands.append(self.unary())

    def unary(self):
        tok = self.peek()
        if tok is None or tok.text not in ("~", "!"):
            return self.primary()
        self.i += 1
        self.open_operator(tok)
        node = Unary(tok.text, self.unary())
        self.operators -= 1
        return node

    def primary(self):
        tok = self.take()
        if tok.text == "(":
            self.open_bracket(tok)
            node = self.expression()
            self.take(")")
            self.brackets -= 1
            return node
        if tok.text == "{":
            self.open_bracket(tok)
            parts = [self.expression()]
            while self.at(","):
                self.i += 1
                parts.append(self.expression())
            self.take("}")
            self.brackets -= 1
            return Concat(tuple(parts))
        if tok.kind == "lit":
            num = self.literals.get(tok.text)
            if num is None:
                # Verilog allows upper-case bases: 8'HFF reads as 8'hff.
                width, _, digits = tok.text.partition("'")
                try:
                    bv = parse_literal(
                        f"{width}'{digits[0].lower()}{digits[1:]}")
                except LctError as e:
                    raise self.error(str(e), tok)
                num = self.literals[tok.text] = Num(bv.value, bv.width)
            return num
        if tok.kind == "num":
            return Num(int(tok.text), None)
        if self.is_ident(tok):
            return Ident(tok.text)
        raise self.error(f"unexpected token {tok.text!r}", tok)


def parse_expr(text: str):
    try:
        parser = _Parser(tokenize(text))
        # Once the text tokenizes, a '/' can only be in a comment.
        if "/" in text:
            raise ExprError("comments are not allowed")
        node = parser.expression()
    except LctError as e:
        raise ExprError(f"in expression {text!r}: {e}")
    if parser.i != len(parser.tokens):
        raise ExprError(f"trailing tokens in expression {text!r}")
    return node


def check_guard(canonical: str):
    """Raise ExprError unless a header's canonical text parses inside
    what codegen opens around it in an `if` guard."""
    parser = _Parser(tokenize(canonical))
    parser.brackets = parser.operators = GUARD_DEPTH
    try:
        parser.expression()
    except ExprError as e:
        raise ExprError(f"{e} inside codegen's `if` guard") from None


def render(node) -> str:
    """Canonical fully-parenthesized rendering."""
    if isinstance(node, Ident):
        return node.name
    if isinstance(node, Num):
        if node.width is None:
            return str(node.value)
        return f"{node.width}'d{node.value}"
    if isinstance(node, Unary):
        return f"({node.op}{render(node.arg)})"
    if isinstance(node, Binary):
        return f"({render(node.lhs)} {node.op} {render(node.rhs)})"
    if isinstance(node, Ternary):
        return (f"({render(node.cond)} ? {render(node.then)}"
                f" : {render(node.other)})")
    if isinstance(node, Concat):
        return "{" + ", ".join(render(p) for p in node.parts) + "}"
    raise ExprError(f"cannot render {node!r}")


def identifiers(node) -> frozenset:
    if isinstance(node, Ident):
        return frozenset((node.name,))
    if isinstance(node, Num):
        return frozenset()
    if isinstance(node, Unary):
        return identifiers(node.arg)
    if isinstance(node, Binary):
        return identifiers(node.lhs) | identifiers(node.rhs)
    if isinstance(node, Ternary):
        return (identifiers(node.cond) | identifiers(node.then)
                | identifiers(node.other))
    if isinstance(node, Concat):
        out = frozenset()
        for p in node.parts:
            out |= identifiers(p)
        return out
    raise ExprError(f"cannot walk {node!r}")


def rename(node, renames: Mapping[str, str]):
    """The same tree with each identifier mapped through `renames`."""
    if isinstance(node, Ident):
        return Ident(renames.get(node.name, node.name))
    if isinstance(node, Num):
        return node
    if isinstance(node, Unary):
        return Unary(node.op, rename(node.arg, renames))
    if isinstance(node, Binary):
        return Binary(node.op, rename(node.lhs, renames),
                      rename(node.rhs, renames))
    if isinstance(node, Ternary):
        return Ternary(rename(node.cond, renames), rename(node.then, renames),
                       rename(node.other, renames))
    if isinstance(node, Concat):
        return Concat(tuple(rename(p, renames) for p in node.parts))
    raise ExprError(f"cannot walk {node!r}")


# Operators with a 1-bit result, and the bitwise ones, whose operand
# widths must agree.
_ONE_BIT = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge,
            "&&": lambda a, b: bool(a and b), "||": lambda a, b: bool(a or b)}
_BITWISE = {"&": operator.and_, "|": operator.or_, "^": operator.xor}


def _widths_agree(a: Optional[int], b: Optional[int], op: str) -> int:
    if a is None and b is None:
        return 32
    if a is None:
        return b
    if b is None:
        return a
    if a != b:
        raise ExprError(f"width mismatch {a} vs {b} for operator {op!r}")
    return a


def evaluate(node, inputs: Mapping[str, BitVector]) -> BitVector:
    """Unsigned evaluation over concrete inputs.  Comparisons and logical
    operators yield 1-bit results; bitwise operators require equal widths
    (bare decimals adopt the other operand's width)."""
    width, value = _eval(node, inputs)
    if width is None:
        width = max(1, value.bit_length())
    return BitVector(width, value)


def _eval(node, inputs):
    if isinstance(node, Ident):
        bv = inputs.get(node.name)
        if bv is None:
            raise ExprError(f"unbound identifier {node.name!r}")
        return bv.width, bv.value
    if isinstance(node, Num):
        return node.width, node.value
    if isinstance(node, Unary):
        w, v = _eval(node.arg, inputs)
        if node.op == "~":
            if w is None:
                w = max(1, v.bit_length())
            return w, (~v) & ((1 << w) - 1)
        return 1, 0 if v else 1  # '!'
    if isinstance(node, Ternary):
        _, c = _eval(node.cond, inputs)
        return _eval(node.then if c else node.other, inputs)
    if isinstance(node, Concat):
        width = 0
        value = 0
        for part in node.parts:
            w, v = _eval(part, inputs)
            if w is None:
                raise ExprError("unsized literal inside concatenation")
            width += w
            value = (value << w) | v
        return width, value
    if isinstance(node, Binary):
        lw, lv = _eval(node.lhs, inputs)
        rw, rv = _eval(node.rhs, inputs)
        op = node.op
        if op in _ONE_BIT:
            return 1, int(_ONE_BIT[op](lv, rv))
        if op in _BITWISE:
            return _widths_agree(lw, rw, op), _BITWISE[op](lv, rv)
        raise ExprError(f"unsupported operator {op!r}")
    raise ExprError(f"cannot evaluate {node!r}")


def truth(node, inputs: Mapping[str, BitVector]) -> int:
    """Evaluate an expression as a condition: nonzero becomes 1."""
    return int(evaluate(node, inputs).value != 0)
