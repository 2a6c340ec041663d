"""`validate_lct` passes only tables whose written forms read back: an
output cell naming a signal `X` would read back as the don't-care cell,
a reserved word cannot name a unit or a port, and an expression header
must evaluate at its ports' widths and nest within what codegen's `if`
guard leaves, and every cell is a constant, a signal or X.  Every table
lctkit itself produces validates."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lctkit import analysis, codegen, equiv, expr, extract, tableio, \
    roundtrip as rt
from lctkit.model import (
    KEYWORDS,
    BitVector,
    CaseRow,
    Clocking,
    Constant,
    Direction,
    ExprHeader,
    Lct,
    LctError,
    Port,
    PortMap,
    SignalHeader,
    SignalRef,
    validate_lct,
)
from .util import (
    load_fixture,
    permute_columns,
    random_disjoint_lct,
    random_lct,
    random_passthrough_lct,
    with_bad_cell,
)


def _const(width, value):
    return Constant(BitVector(width, value))


def _x_passthrough() -> Lct:
    ports = PortMap((Port(Direction.INPUT, "s", 1),
                     Port(Direction.INPUT, "X", 4),
                     Port(Direction.OUTPUT, "q", 4)))
    return Lct(name="xpass", clocking=Clocking.COMBINATIONAL,
               conditions=(SignalHeader("s"),), results=("q",),
               rows=(CaseRow((_const(1, 1),), (SignalRef("X"),)),
                     CaseRow((_const(1, 0),), (_const(4, 0),))),
               ports=ports)


def test_output_cell_naming_x_is_rejected():
    violations = validate_lct(_x_passthrough())
    assert [(v.code, v.row, v.column) for v in violations] == \
        [("x-ref", 0, "q")]
    assert "would read as don't care" in violations[0].message


def test_hold_of_a_result_named_x_is_rejected():
    ports = PortMap((Port(Direction.INPUT, "s", 1),
                     Port(Direction.OUTPUT, "X", 1)))
    table = Lct(name="hold", clocking=Clocking.CLOCKED,
                conditions=(SignalHeader("s"),), results=("X",),
                rows=(CaseRow((_const(1, 1),), (SignalRef("X"),)),),
                ports=ports)
    assert [v.code for v in validate_lct(table)] == ["x-ref"]


def test_x_cell_cannot_be_serialized_or_compiled():
    table = _x_passthrough()
    with pytest.raises(LctError, match=r"cannot serialize invalid table: "
                                       r"\[x-ref\] row 0 column q"):
        tableio.serialize_unit(table)
    with pytest.raises(codegen.CodegenError, match="x-ref"):
        codegen.generate(table)


def test_extraction_of_an_x_passthrough_is_rejected():
    text = ("module xpass (input wire s, input wire [3:0] X,\n"
            "              output reg [3:0] q);\n"
            "always @* begin\n"
            "  q = 4'b0000;\n"
            "  if (s == 1'b1) q = X;\n"
            "end\n"
            "endmodule\n")
    with pytest.raises(extract.ExtractError, match="x-ref"):
        extract.hdl_text_to_lct(text, ["s"], ["q"])


# --- cells that are not cells -----------------------------------------------

def _raw_int_select() -> Lct:
    """mux4 with the raw int 7, not a ``Constant``, in row 2's select
    cell: unvalidated, the coverage check reads it as a don't care."""
    table = load_fixture("mux4")
    row = table.rows[2]
    rows = list(table.rows)
    rows[2] = dataclasses.replace(row, inputs=(row.inputs[0], 7))
    return dataclasses.replace(table, rows=tuple(rows))


@pytest.mark.parametrize("make, where", [
    (_raw_int_select, (2, "select", "7")),
    (lambda: with_bad_cell(load_fixture("mux4"), random.Random(1)),
     (1, "data_out", "'bogus'")),
], ids=["input", "output"])
def test_a_cell_that_is_not_a_cell_is_rejected(make, where):
    table = make()
    row, column, text = where
    violations = validate_lct(table)
    assert [(v.code, v.row, v.column) for v in violations] == \
        [("bad-cell", row, column)]
    assert violations[0].message == f"{text} is not a cell"
    with pytest.raises(LctError, match=r"cannot serialize invalid table: "
                                       r"\[bad-cell\]"):
        tableio.serialize_unit(table)
    with pytest.raises(codegen.CodegenError, match="bad-cell"):
        codegen.generate(table)
    report = rt.run_roundtrip(table, rt.DeterministicBackend(),
                              rt.DeterministicBackend())
    assert report.outcome is None
    assert report.error.startswith("forward: LctError: ")
    assert "[bad-cell]" in report.error


# --- reserved words ---------------------------------------------------------

_UNIT = """\
unit {unit}
clocking combinational
inputs 2
outputs 1
port input s 1
port input {inp} 1
port output {out} 1
table t.csv
"""


@pytest.mark.parametrize("role", ["unit", "inp", "out"])
def test_reserved_word_names_are_rejected(role):
    for word in sorted(KEYWORDS):
        names = {"unit": "t", "inp": "a", "out": "q", role: word}
        with pytest.raises(tableio.ParseError,
                           match=rf"\[bad-name\]: name '{word}' is a "
                                 "reserved word"):
            tableio.parse_unit(_UNIT.format(**names),
                               f"s,{names['inp']},{names['out']}\n"
                               "1,1,1\n")


# --- expression headers -----------------------------------------------------

def _expr_table(header: str, **widths) -> Lct:
    """A combinational table over input ports of the given widths (`a`
    by default) with one expression column, taken at 0 and at 1."""
    ports = [Port(Direction.INPUT, name, width)
             for name, width in (widths or {"a": 1}).items()]
    ports.append(Port(Direction.OUTPUT, "q", 1))
    return Lct("t", Clocking.COMBINATIONAL, (ExprHeader(header),),
               ("q",), (CaseRow((_const(1, 0),), (_const(1, 0),)),
                        CaseRow((_const(1, 1),), (_const(1, 1),))),
               PortMap(tuple(ports)))


@pytest.mark.parametrize("style", [codegen.STYLE_IF, codegen.STYLE_CASE])
def test_header_nested_past_the_guard_budget_is_rejected(style):
    """The budget is exact: 96 levels still round-trip through codegen's
    `if` guard, and through its `casez` subject, and 97 no longer
    validate."""
    deepest = _expr_table("~" * 96 + "a")
    assert validate_lct(deepest) == []
    backend = rt.DeterministicBackend(style)
    assert rt.run_roundtrip(deepest, backend, backend).outcome.label is \
        rt.Label.M
    violations = validate_lct(_expr_table("~" * 97 + "a"))
    assert [v.code for v in violations] == ["bad-expr"]
    assert violations[0].message.endswith("inside codegen's `if` guard")


@settings(max_examples=60)
@given(st.sampled_from(["~", "!", "("]), st.integers(1, 110))
def test_nested_header_fails_validation_or_round_trips(construct, n):
    if construct == "(":
        header = "(" * n + "a" + ")" * n
    else:
        header = construct * n + "a"
    table = _expr_table(header)
    if validate_lct(table):
        return
    for style in (codegen.STYLE_IF, codegen.STYLE_CASE):
        backend = rt.DeterministicBackend(style)
        report = rt.run_roundtrip(table, backend, backend)
        assert report.outcome.label is rt.Label.M, (style, report.notes)


def test_dollar_identifier_is_no_port():
    """HDL identifiers may hold `$`; no port name does."""
    assert [v.code for v in validate_lct(_expr_table("a$b & a"))] == \
        ["unknown-port"]


def test_mixed_width_header_is_rejected():
    table = _expr_table("a & b", a=3, b=1)
    assert [(v.code, v.column, v.message) for v in validate_lct(table)] == \
        [("bad-expr", "a & b", "width mismatch 3 vs 1 for operator '&'")]
    assert validate_lct(_expr_table("a & b", a=3, b=3)) == []
    table = _expr_table("s ? (a & b) : b", s=1, a=3, b=1)
    assert [(v.code, v.message) for v in validate_lct(table)] == \
        [("bad-expr", "width mismatch 3 vs 1 for operator '&'")]


_OPERAND = st.sampled_from(["a", "b", "c", "1", "2", "3'd5", "1'b1"])


def _combine(parts):
    return st.one_of(
        st.tuples(st.sampled_from(["~", "!"]), parts).map("".join),
        st.tuples(parts, st.sampled_from(sorted(expr._BINARY)), parts)
        .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.lists(parts, min_size=1, max_size=3)
        .map(lambda ps: "{" + ", ".join(ps) + "}"),
        st.tuples(parts, parts, parts)
        .map(lambda t: f"({t[0]} ? {t[1]} : {t[2]})"))


@settings(max_examples=200)
@given(st.recursive(_OPERAND, _combine, max_leaves=6),
       st.tuples(*[st.integers(1, 3)] * 3))
def test_header_that_validates_evaluates_at_every_input(header, widths):
    """One evaluation at all-zero inputs decides whether operand widths
    agree at every input, also inside either arm of `?:`."""
    table = _expr_table(header, **dict(zip("abc", widths)))
    if "bad-expr" in [v.code for v in validate_lct(table)]:
        return
    tree = table.conditions[0].tree
    for values in itertools.product(*[range(1 << w) for w in widths]):
        expr.evaluate(tree, {name: BitVector(w, v) for name, w, v
                             in zip("abc", widths, values)})


# --- lctkit's own output ----------------------------------------------------

def _own_tables(seed):
    yield random_lct(seed, max_control_bits=8)
    yield random_disjoint_lct(seed)
    yield random_passthrough_lct(seed)
    rng = random.Random(seed)
    yield analysis.generate_fsm(rng.choice([2, 4, 8]), rng.randint(1, 3),
                                rng.randint(0, 2), seed)


@settings(max_examples=40)
@given(st.integers(0, 10**6))
def test_own_output_validates(seed):
    rng = random.Random(seed)
    for table in _own_tables(seed):
        assert validate_lct(table) == []
        outputs = {
            "canonicalize": analysis.canonicalize(table),
            "align": equiv.align(table, permute_columns(table, rng))[1],
            "extract": extract.hdl_text_to_lct(
                codegen.gen_unit(table, codegen.STYLE_IF),
                *rt.schema_of(table)),
        }
        for step, out in outputs.items():
            assert validate_lct(out) == [], (table.name, step)
