"""
Expression trees, and the one lexer and expression grammar that condition
headers and the HDL subset share: `parse_expr` reads a header, and the
HDL parser extends `_Parser` over its own token list.  A token is its
text; `locate` finds its line and column, for an error only.

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

import itertools
import operator
import re
from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

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


@dataclass(frozen=True)
class CasePattern:
    """A `casez` label with wildcard bits, e.g. 3'b0??.  Only the HDL
    reader makes one, as the right operand of a case arm's `==`; it has
    no value, so `evaluate` rejects it."""
    width: int
    bits: str  # one char per bit, msb first: 0, 1, or ?


# Comments, which no token holds a '/' of; a '/' that starts none is a
# stray character.  Outside them, one match per token, or an empty match
# before a stray character; the lookahead steps over whitespace.  Headers
# and HDL share these tokens; the parsers decide which of them each holds.
_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)
_TOKEN_RE = re.compile(r"""(?=\S)(?:
    [A-Za-z_][A-Za-z0-9_$]*
    | \d+(?:'[bdhBDH][0-9a-fA-F_?zZxX]+)?
    | [<>=!]= | && | \|\| | [@#.(){}\[\],;:?=<>&|^~!*+-]
    | )""", re.VERBOSE)

# The most brackets, and the most prefix operators and ternary arms, that
# may be open at once (see _Parser).
MAX_DEPTH = 100

# The most brackets or prefix operators codegen opens around a header's
# canonical text: in an `if` guard, the process's `begin`, the `if`, and
# `(...)` or `(!(...))`; in a `casez` subject, which opens fewer, `begin`,
# `{` and `(... != 0)`.  In canonical text every operator has its own
# bracket, so this one budget bounds brackets and operators alike (see
# check_guard).
GUARD_DEPTH = 4

# Binary operators by binding strength, loosest first.
_BINARY = {"||": 0, "&&": 1, "|": 2, "^": 3, "&": 4, "==": 5, "!=": 5,
           "<": 6, "<=": 6, ">": 6, ">=": 6}


def tokenize(text: str) -> List[str]:
    """The token texts, in order.  A stray character raises HdlError,
    located by `locate`."""
    tokens = _TOKEN_RE.findall(_COMMENT_RE.sub(" ", text))
    if "" in tokens:
        line, col = locate(text, tokens.index(""))
        stray = text.split("\n")[line - 1][col - 1]
        raise HdlError(f"unexpected character {stray!r}", line, col)
    return tokens


def locate(text: str, index: int) -> Tuple[int, int]:
    """The 1-based (line, column) at which the index-th token of the
    text, or the stray character in its place, starts.  The text is
    scanned again, so only an error should ask."""
    # Comments are blanked out, not removed, so that offsets stay put.
    blank = _COMMENT_RE.sub(lambda m: re.sub(r"\S", " ", m.group()), text)
    match = next(itertools.islice(_TOKEN_RE.finditer(blank), index, None))
    start = match.start()
    return (text.count("\n", 0, start) + 1,
            start - text.rfind("\n", 0, start))


class _Parser:
    """Recursive descent over a list of token texts, which it ends with
    one empty text: the end of input.  The HDL parser extends it with
    statements, overriding `error` (to locate errors).  Reserved words
    are never identifiers.

    Nesting is bounded, so no input can exhaust the interpreter stack:
    at most MAX_DEPTH brackets (also `begin` and the bodies of `if` and
    `case` in HDL) and at most MAX_DEPTH prefix operators and ternary
    arms may be open at once.  The two are counted apart because
    canonical rendering brackets every unary and ternary node: `~~a`
    renders as `(~(~a))`, which must parse again."""

    def __init__(self, tokens: List[str]):
        self.tokens = tokens + [""]
        self.i = 0
        self.brackets = 0
        self.operators = 0
        # Leaf text -> its node, for this parse; a text that fails is not
        # kept, so each occurrence raises at its own token.
        self.leaves = {}

    def error(self, message: str, at: Optional[int] = None) -> LctError:
        """The error for token index `at` (default: the next token)."""
        return ExprError(message)

    def is_ident(self, tok: str) -> bool:
        """A token's kind is its first character: a letter or `_` only
        starts an identifier, a digit a number or literal."""
        return (tok[:1].isalpha() or tok[:1] == "_") and tok not in KEYWORDS

    def peek(self) -> str:
        return self.tokens[self.i]

    def at(self, text: str) -> bool:
        return self.tokens[self.i] == text

    def take(self, text=None) -> str:
        tok = self.tokens[self.i]
        if tok == text or (text is None and tok):
            self.i += 1
            return tok
        raise self.error(f"expected {text!r}, found {tok!r}" if tok
                         else "unexpected end of input")

    def open_bracket(self, at: int):
        self.brackets += 1
        if self.brackets > MAX_DEPTH:
            raise self.error(f"nesting deeper than {MAX_DEPTH} levels", at)

    def open_operator(self, at: int):
        self.operators += 1
        if self.operators > MAX_DEPTH:
            raise self.error(f"nesting deeper than {MAX_DEPTH} levels", at)

    def expression(self):
        """A ternary, climbing binary operators only if one follows."""
        cond = self.operand()
        tok = self.tokens[self.i]
        if tok in _BINARY:
            cond = self.binary(cond, tok)
            tok = self.tokens[self.i]
        if tok != "?":
            return cond
        self.open_operator(self.i)
        self.i += 1
        then = self.expression()
        self.take(":")
        other = self.expression()
        self.operators -= 1
        return Ternary(cond, then, other)

    def binary(self, first, tok: str):
        """Precedence climbing with explicit stacks from `first` and the
        operator `tok` after it: equal strengths associate to the left."""
        self.i += 1
        operands = [first, self.operand()]
        pending = [tok]
        level = _BINARY.get(self.tokens[self.i])
        while True:
            while pending and (level is None
                               or _BINARY[pending[-1]] >= level):
                rhs = operands.pop()
                operands.append(Binary(pending.pop(), operands.pop(), rhs))
            if level is None:
                return operands[0]
            tok = self.tokens[self.i]
            self.i += 1
            pending.append(tok)
            operands.append(self.operand())
            level = _BINARY.get(self.tokens[self.i])

    def operand(self):
        """unary: the prefix operators, read in a loop, then a primary or
        a leaf seen before in this parse."""
        i = start = self.i
        while (tok := self.tokens[i]) == "~" or tok == "!":
            self.open_operator(i)
            i += 1
        node = self.leaves.get(tok)
        if node is None:
            self.i = i
            node = self.primary()
        else:
            self.i = i + 1
        if i > start:
            for op in reversed(self.tokens[start:i]):
                node = Unary(op, node)
            self.operators -= i - start
        return node

    def primary(self):
        tok = self.take()
        if tok == "(":
            self.open_bracket(self.i - 1)
            node = self.expression()
            self.take(")")
            self.brackets -= 1
            return node
        if tok == "{":
            self.open_bracket(self.i - 1)
            parts = [self.expression()]
            while self.at(","):
                self.i += 1
                parts.append(self.expression())
            self.take("}")
            self.brackets -= 1
            return Concat(tuple(parts))
        if tok[0].isdigit():
            if "'" not in tok:
                node = Num(int(tok), None)
            else:
                # Verilog allows upper-case bases: 8'HFF reads as 8'hff.
                width, _, digits = tok.partition("'")
                try:
                    bv = parse_literal(
                        f"{width}'{digits[0].lower()}{digits[1:]}")
                except LctError as e:
                    raise self.error(str(e), self.i - 1)
                node = Num(bv.value, bv.width)
        elif self.is_ident(tok):
            node = Ident(tok)
        else:
            raise self.error(f"unexpected token {tok!r}", self.i - 1)
        self.leaves[tok] = node
        return node


def parse_expr(text: str):
    try:
        parser = _Parser(tokenize(text))
        # Once the text tokenizes, a '/' can only be in a comment.
        if "/" in text:
            raise ExprError("comments are not allowed")
        node = parser.expression()
    except LctError as e:
        raise ExprError(f"in expression {text!r}: {e}")
    if parser.peek():
        raise ExprError(f"trailing tokens in expression {text!r}")
    return node


def check_guard(canonical: str):
    """Raise ExprError unless a header's canonical text parses inside
    what codegen opens around it in an `if` guard, the deeper of its
    two places."""
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
    if isinstance(node, CasePattern):
        return f"{node.width}'b{node.bits}"
    raise ExprError(f"cannot render {node!r}")


def identifiers(node) -> frozenset:
    if isinstance(node, Ident):
        return frozenset((node.name,))
    if isinstance(node, (Num, CasePattern)):
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
    if isinstance(node, (Num, CasePattern)):
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
        # Both arms are evaluated, agree in width (two bare decimals are
        # 32 bits wide, as for `&`) and fit it, so that the result's width
        # does not depend on the condition's value.
        _, c = _eval(node.cond, inputs)
        tw, tv = _eval(node.then, inputs)
        ow, ov = _eval(node.other, inputs)
        width = _widths_agree(tw, ow, "?:")
        if max(tv, ov) >> width:
            raise ExprError(f"value {max(tv, ov)} does not fit in {width} "
                            f"bits for operator '?:'")
        return width, tv if c else ov
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
