import dataclasses

import pytest

from lctkit.model import (
    BitVector,
    CaseRow,
    Clocking,
    Constant,
    DONT_CARE,
    Direction,
    ExprHeader,
    Lct,
    LiteralError,
    Port,
    PortMap,
    SignalHeader,
    SignalRef,
    cell_text,
    parse_cell,
    parse_literal,
    validate_lct,
)


def test_bitvector_equality_includes_width():
    assert BitVector(3, 5) == BitVector(3, 5)
    assert BitVector(3, 5) != BitVector(4, 5)
    assert BitVector(3, 5).binary() == "3'b101"


def test_bitvector_range_checked():
    with pytest.raises(LiteralError):
        BitVector(3, 8)
    with pytest.raises(LiteralError):
        BitVector(0, 0)


@pytest.mark.parametrize("text,expected", [
    ("3'd5", BitVector(3, 5)),
    ("3'b101", BitVector(3, 5)),
    ("8'hff", BitVector(8, 255)),
    ("4'b10_01", BitVector(4, 9)),
])
def test_parse_sized_literals(text, expected):
    assert parse_literal(text) == expected


def test_sized_forms_of_same_value_are_equal():
    assert parse_literal("3'd5") == parse_literal("3'b101")


def test_bare_decimal_needs_width():
    assert parse_literal("5", default_width=3) == BitVector(3, 5)
    with pytest.raises(LiteralError):
        parse_literal("5")
    with pytest.raises(LiteralError):
        parse_literal("9", default_width=3)


@pytest.mark.parametrize("text", ["", "3'q7", "'b1", "3'b2", "abc'd1",
                                  "\u0663", "\u0668'd12", "0'd0"])
def test_malformed_literals_rejected(text):
    with pytest.raises(LiteralError):
        parse_literal(text, default_width=8)


def test_parse_cell_variants():
    assert parse_cell("X") is DONT_CARE
    assert parse_cell("data0") == SignalRef("data0")
    assert parse_cell("5", width=3) == Constant(BitVector(3, 5))


def test_cell_text_round_trips():
    for text in ("X", "data0", "5"):
        assert cell_text(parse_cell(text, width=8)) == text


def test_expr_header_equality_ignores_spacing():
    assert ExprHeader("a&b") == ExprHeader("a & b")
    assert ExprHeader("a & b") != ExprHeader("a | b")
    assert hash(ExprHeader("(a) & b")) == hash(ExprHeader("a & b"))


def _table(rows, clocking=Clocking.COMBINATIONAL, conditions=None,
           results=("q",), ports=None, feedback=()):
    if conditions is None:
        conditions = (SignalHeader("a"),)
    if ports is None:
        ports = PortMap((Port(Direction.INPUT, "a", 1),
                         Port(Direction.OUTPUT, "q", 1)))
    return Lct(name="t", clocking=clocking, conditions=conditions,
               results=results, rows=rows, ports=ports, feedback=feedback)


def test_valid_table_has_no_violations():
    rows = (CaseRow((Constant(BitVector(1, 0)),), (Constant(BitVector(1, 1)),)),)
    assert validate_lct(_table(rows)) == []


def test_hold_cell_rejected_in_combinational_table():
    rows = (CaseRow((DONT_CARE,), (SignalRef("q"),)),)
    violations = validate_lct(_table(rows))
    assert any(v.code == "hold-comb" for v in violations)


def test_hold_cell_accepted_in_clocked_table():
    rows = (CaseRow((DONT_CARE,), (SignalRef("q"),)),)
    assert validate_lct(_table(rows, clocking=Clocking.CLOCKED)) == []


def test_input_cell_may_not_reference_signals():
    rows = (CaseRow((SignalRef("a"),), (Constant(BitVector(1, 0)),)),)
    violations = validate_lct(_table(rows))
    assert any(v.code == "input-ref" for v in violations)


def test_cell_width_must_match_port_width():
    rows = (CaseRow((Constant(BitVector(2, 1)),), (Constant(BitVector(1, 0)),)),)
    violations = validate_lct(_table(rows))
    assert any(v.code == "width" for v in violations)


def test_arity_mismatch_reported():
    rows = (CaseRow((), (Constant(BitVector(1, 0)),)),)
    violations = validate_lct(_table(rows))
    assert any(v.code == "arity" for v in violations)


def test_unknown_ports_reported():
    rows = (CaseRow((DONT_CARE,), (Constant(BitVector(1, 0)),)),)
    table = _table(rows, conditions=(SignalHeader("nope"),))
    assert any(v.code == "unknown-port" for v in validate_lct(table))


def test_expr_condition_cells_must_be_boolean():
    ports = PortMap((Port(Direction.INPUT, "a", 4),
                     Port(Direction.OUTPUT, "q", 1)))
    rows = (CaseRow((Constant(BitVector(1, 1)),), (Constant(BitVector(1, 0)),)),)
    table = _table(rows, conditions=(ExprHeader("a == 3"),), ports=ports)
    assert validate_lct(table) == []
    bad_rows = (CaseRow((Constant(BitVector(2, 2)),),
                        (Constant(BitVector(1, 0)),)),)
    table = _table(bad_rows, conditions=(ExprHeader("a == 3"),), ports=ports)
    assert any(v.code == "expr-cell" for v in validate_lct(table))


def test_feedback_width_mismatch_reported():
    ports = PortMap((Port(Direction.INPUT, "a", 1),
                     Port(Direction.OUTPUT, "q", 2)))
    rows = (CaseRow((DONT_CARE,), (Constant(BitVector(2, 0)),)),)
    table = _table(rows, clocking=Clocking.CLOCKED, ports=ports,
                   feedback=(("q", "a"),))
    assert any(v.code == "feedback" for v in validate_lct(table))


_PORTS = PortMap((Port(Direction.INPUT, "a", 1),
                  Port(Direction.INPUT, "d", 4),
                  Port(Direction.OUTPUT, "q", 1),
                  Port(Direction.OUTPUT, "r", 1)))
_ROW = CaseRow((Constant(BitVector(1, 0)),), (Constant(BitVector(1, 1)),))


@pytest.mark.parametrize("change, found", [
    ({"name": "9t"}, ("bad-name", "table name '9t' is not an identifier",
                      None, None)),
    ({"results": ("q", "q"),
      "rows": (CaseRow(_ROW.inputs, _ROW.outputs * 2),)},
     ("dup-result", "duplicate result columns", None, None)),
    ({"results": ("a",)}, ("unknown-port", "result a is not an output port",
                           None, "a")),
    ({"rows": (CaseRow(_ROW.inputs, ()),)},
     ("arity", "0 output cells, expected 1", 0, None)),
    ({"rows": (CaseRow(_ROW.inputs, (SignalRef("d"),)),)},
     ("width", "pass-through d width 4 != result width 1", 0, "q")),
    ({"rows": (CaseRow(_ROW.inputs, (Constant(BitVector(2, 1)),)),)},
     ("width", "cell width 2 != port width 1", 0, "q")),
    ({"feedback": (("r", "a"),)},
     ("feedback", "feedback result r is not a result column", None, None)),
    ({"feedback": (("q", "d"),)},
     ("feedback", "feedback target d is not a signal condition column",
      None, None)),
    ({"rows": (dataclasses.replace(_ROW, label="a,b"),)},
     ("csv-text", "label 'a,b' holds a comma or a line break, which a CSV "
      "cell cannot hold", 0, None)),
    ({"rows": (dataclasses.replace(_ROW, comment="a\r\nb"),)},
     ("csv-text", "comment 'a\\r\\nb' holds a comma or a line break, "
      "which a CSV cell cannot hold", 0, None)),
], ids=["bad-name", "dup-result", "unknown-result", "output-arity",
        "pass-through-width", "output-width", "feedback-result",
        "feedback-target", "label-comma", "comment-line-break"])
def test_each_violation_is_reported(change, found):
    """One change to a valid clocked table gives exactly one violation."""
    table = _table((_ROW,), clocking=Clocking.CLOCKED, ports=_PORTS)
    assert validate_lct(table) == []
    violations = validate_lct(dataclasses.replace(table, **change))
    assert [(v.code, v.message, v.row, v.column) for v in violations] == \
        [found]


def test_duplicate_port_names_rejected():
    with pytest.raises(Exception):
        PortMap((Port(Direction.INPUT, "a", 1),
                 Port(Direction.OUTPUT, "a", 1)))


def test_per_cell_violations_keep_their_order():
    """Every per-cell code over two rows, listed row by row, each row's
    inputs and then its outputs, left to right."""
    ports = PortMap(tuple(Port(Direction.INPUT, name, width)
                          for name, width in (("a", 1), ("d", 4))) +
                    tuple(Port(Direction.OUTPUT, name, 1)
                          for name in "qrstu"))
    zero = Constant(BitVector(1, 0))
    rows = (CaseRow((SignalRef("a"), Constant(BitVector(2, 2)),
                     Constant(BitVector(2, 1))),
                    (SignalRef("X"), SignalRef("r"), zero, zero, zero)),
            CaseRow((DONT_CARE,) * 3,
                    (zero, zero, SignalRef("d"), SignalRef("nope"),
                     Constant(BitVector(2, 1)))))
    table = _table(rows, conditions=(SignalHeader("a"), ExprHeader("d == 3"),
                                     SignalHeader("d")),
                   results=tuple("qrstu"), ports=ports)
    assert [(v.code, v.message, v.row, v.column)
            for v in validate_lct(table)] == [
        ("input-ref", "input cells may be constants or X only", 0, "a"),
        ("expr-cell", "expression column cells must be 0, 1, or X", 0,
         "(d == 3)"),
        ("width", "cell width 2 != port width 4", 0, "d"),
        ("x-ref", "a cell naming signal X would read as don't care", 0, "q"),
        ("hold-comb", "hold cell in a combinational table", 0, "r"),
        ("width", "pass-through d width 4 != result width 1", 1, "s"),
        ("unknown-ref", "output cell references unknown signal nope", 1,
         "t"),
        ("width", "cell width 2 != port width 1", 1, "u"),
    ]
