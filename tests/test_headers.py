"""A condition column's identity: a lone identifier names a signal
column, any other header text an expression whose key is its canonical
rendering, and `(a)` as an expression means `a != 0`.  Keys never cross
the two kinds, so a column and its truth value are different columns."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from lctkit import analysis, equiv, extract, model, roundtrip as rt, tableio
from lctkit.model import (
    CaseRow,
    Clocking,
    DONT_CARE,
    Direction,
    ExprHeader,
    Lct,
    Port,
    PortMap,
    TransformResponse,
    validate_lct,
)
from .test_extract import _foreign, _inputs

MANIFEST = """\
unit t
clocking combinational
inputs {n}
outputs 1
port input a {width}
port input b 1
port output q 2
table t.csv
"""


def _unit(header: str, rows, width: int = 3):
    n = len(header.split(","))
    return tableio.parse_unit(MANIFEST.format(n=n, width=width),
                              f"{header},q\n" + "\n".join(rows) + "\n")


# --- failure 1: a signal column is not its own truth value ------------------

def test_signal_column_and_parenthesized_identifier_are_not_equivalent():
    signal = _unit("a", ["1,1", "X,0"])     # a == 1
    truth = _unit("(a)", ["1,1", "X,0"])    # a != 0
    with pytest.raises(equiv.AlignError):
        equiv.compare(signal, truth)
    spelled = _unit("a != 0", ["1,1", "X,0"])
    assert equiv.compare(truth, spelled).verdict is \
        equiv.Verdict.TEXTUALLY_IDENTICAL


# --- failure 2: `if (a)` on a multi-bit schema signal -----------------------

class _TruthGuardForward:
    """A forward backend answering every table with `if (a)` on the
    table's 3-bit signal `a`."""
    name = "truth-guard"

    def complete(self, request):
        table = request.payload
        return TransformResponse(f"""\
module {table.name} (
  input wire [2:0] a,
  input wire b,
  output reg [1:0] q
);
always @* begin
  q = 2'b00;
  if (a) begin
    q = 2'b01;
  end
end
endmodule
""")


def test_truth_guard_on_multibit_signal_is_a_forward_mismatch():
    units = [_unit("a", ["1,1", "X,0"]),
             dataclasses.replace(_unit("a,b", ["1,X,1", "X,1,2"]), name="u")]
    reports = rt.run_many(units, _TruthGuardForward(),
                          rt.DeterministicBackend(), workers=2)
    assert [r.unit for r in reports] == ["t", "u"]
    assert [r.outcome.label for r in reports] == [rt.Label.X_FW] * 2
    # The appended column is the truth value of `a`, written so that it
    # reads back as an expression.
    hdl = _TruthGuardForward().complete(
        rt.build_forward_prompt(units[0])).text
    extracted = extract.hdl_text_to_lct(hdl, *rt.schema_of(units[0]))
    assert [h.text for h in extracted.conditions] == ["a", "(a != 0)"]
    assert tableio.parse_unit_doc(
        tableio.serialize_unit_doc(extracted)) == extracted


# --- failure 3: a signal column beside its truth value ----------------------

def test_signal_and_truth_columns_compare_and_round_trip():
    table = _unit("a,(a)", ["1,1,1", "X,X,0"])
    assert equiv.compare(table, table).verdict is \
        equiv.Verdict.TEXTUALLY_IDENTICAL
    _, csv_text = tableio.serialize_unit(analysis.canonicalize(table))
    header = csv_text.splitlines()[0].split(",")
    assert header == ["(a != 0)", "a", "q"]
    report = rt.run_roundtrip(table, rt.DeterministicBackend(),
                              rt.DeterministicBackend())
    assert report.outcome.label is rt.Label.M


def test_one_condition_in_two_spellings_is_a_duplicate_column():
    ports = PortMap((Port(Direction.INPUT, "a", 1),
                     Port(Direction.INPUT, "b", 1),
                     Port(Direction.OUTPUT, "q", 1)))
    table = Lct("t", Clocking.COMBINATIONAL,
                (ExprHeader("a & b"), ExprHeader("(a)&b")), ("q",),
                (CaseRow((DONT_CARE, DONT_CARE), (DONT_CARE,)),), ports)
    assert [v.code for v in validate_lct(table)] == ["dup-condition"]


def test_unparsable_expression_header_is_a_violation():
    ports = PortMap((Port(Direction.INPUT, "a", 1),
                     Port(Direction.OUTPUT, "q", 1)))
    table = Lct("t", Clocking.COMBINATIONAL, (ExprHeader("a &"),), ("q",),
                (CaseRow((DONT_CARE,), (DONT_CARE,)),), ports)
    assert [(v.code, v.column) for v in validate_lct(table)] == \
        [("bad-expr", "a &")]


# --- one cell parser --------------------------------------------------------

@pytest.mark.parametrize("csv, message", [
    ("a,q\n,0\n", "empty cell (use X for don't care) (line 2, column 1)"),
    ("a,q\nb,0\n", "bad input cell: malformed literal: 'b' "
                  "(line 2, column 1)"),
    ("a,q\n8,0\n", "bad input cell: value 8 exceeds 3-bit width "
                   "(line 2, column 1)"),
    ("a,q\n0,4\n", "bad output cell: value 4 exceeds 2-bit width "
                   "(line 2, column 2)"),
    ("a,q\n0,1x\n", "bad output cell: malformed literal: '1x' "
                    "(line 2, column 2)"),
    ("c,q\n0,0\n", "condition c is not declared in the port map (line 1)"),
    ("a,r\n0,0\n", "result r is not declared in the port map (line 1)"),
    ("\n \n", "empty CSV (line 1)"),
    ("a,q\n0\n", "expected 2 cells, found 1 (line 2)"),
    ("a,q,Comments\n0,1,x,y\n",
     "expected 2 cells (+ optional comment), found 4 (line 2)"),
])
def test_cell_errors(csv, message):
    with pytest.raises(tableio.ParseError) as err:
        tableio.parse_unit(MANIFEST.format(n=1, width=3), csv)
    assert str(err.value) == message


# --- the identity rule as a property ----------------------------------------

_BASE = ["a", "b", "(a)", "(b)", "~a", "!b", "!(a)", "(~b)",
         "a & b", "a | b", "a ^ b", "a && !b"]
HEADER_TEXTS = st.builds(lambda text, depth: "(" * depth + text + ")" * depth,
                         st.sampled_from(_BASE), st.integers(0, 3))


@st.composite
def tables(draw):
    width = draw(st.integers(1, 3))
    by_key = {}
    for text in draw(st.lists(HEADER_TEXTS, min_size=1, max_size=3)):
        # As read from a CSV, or built as an expression the way extract
        # builds the columns it appends.
        make = draw(st.sampled_from([model.condition_header, ExprHeader]))
        header = make(text)
        by_key.setdefault(header.key, header)
    conditions = tuple(by_key.values())
    # `b` is as wide as `a`: `a & b` over unequal widths is `bad-expr`.
    ports = PortMap((Port(Direction.INPUT, "a", width),
                     Port(Direction.INPUT, "b", width),
                     Port(Direction.OUTPUT, "q", 2)))
    table = Lct("t", Clocking.COMBINATIONAL, conditions, ("q",), (), ports)
    cell = st.one_of(st.just(DONT_CARE), st.integers(0, 3).map(
        lambda v: model.Constant(model.BitVector(2, v))))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        inputs = []
        for header in conditions:
            w = table.condition_width(header)
            value = draw(st.none() | st.integers(0, (1 << w) - 1))
            inputs.append(DONT_CARE if value is None
                          else model.Constant(model.BitVector(w, value)))
        rows.append(CaseRow(tuple(inputs), (draw(cell),)))
    return Lct("t", Clocking.COMBINATIONAL, conditions, ("q",), tuple(rows),
               ports)


@settings(max_examples=200)
@given(tables())
def test_header_text_and_serialized_forms_reparse_to_the_same_table(table):
    assert validate_lct(table) == []
    for header in table.conditions:
        assert model.condition_header(header.text) == header
        # Keys never cross kinds: only a signal column's is an identifier.
        assert bool(model.IDENT_RE.match(header.key)) == \
            isinstance(header, model.SignalHeader)
    assert tableio.parse_unit(*tableio.serialize_unit(table)) == table
    canonical = tableio.parse_unit_doc(
        tableio.serialize_unit_doc(analysis.canonicalize(table)))
    assert equiv.compare(table, canonical).verdict.equivalent


# --- concatenations constrain the signal columns themselves -----------------

def test_arms_infeasible_under_their_guard_are_dropped():
    """`{a, b}` in a casez subject or an `if` guard constrains the columns
    a and b, so under `a == 1` the casez arm `2'b0?` and the `if` on
    `{a, b} == 1`, which both need `a == 0`, give no row."""
    table = _foreign("if (a == 1'b1) begin\n"
                     "    casez ({a, b})\n"
                     "      2'b0?: y = 1'b1;\n"
                     "      2'b11: y = 1'b1;\n"
                     "    endcase\n"
                     "    if ({a, b} == 2'd1) y = 1'b1;\n"
                     "  end")
    assert [h.key for h in table.conditions] == ["a", "b"]
    assert _inputs(table) == [(1, 1), (1, "X"), ("X", "X")]
    assert [row.outputs[0].bv.value for row in table.rows] == [1, 0, 0]
