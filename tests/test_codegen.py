from unittest import mock

import pytest
from hypothesis import given, strategies as st

from lctkit import codegen, extract, tableio
from lctkit.model import (
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
)
from lctkit.roundtrip import schema_of
from .util import (
    WRITTEN,
    load_fixture,
    reference_casez,
    reference_if_chain,
)


def test_combinational_module_structure():
    text = codegen.gen_unit(load_fixture("mux4"))
    assert "module mux4 (" in text
    assert "always @* begin" in text
    assert "output reg [7:0] data_out" in text
    assert "endmodule" in text
    # zero default precedes the priority chain
    assert text.index("data_out = 8'b00000000;") < text.index("if (")


def test_clocked_module_gets_clock_port_and_nonblocking_assigns():
    text = codegen.gen_unit(load_fixture("regmux2"))
    assert "input wire clk" in text
    assert "always @(posedge clk) begin" in text
    assert "<=" in text and " = 8'b" not in text


def test_priority_follows_row_order():
    text = codegen.gen_unit(load_fixture("mux4"))
    first = text.index("(enable == 1'b0)")
    second = text.index("(select == 2'b00)")
    assert first < second


def test_hold_cells_assign_nothing():
    text = codegen.gen_unit(load_fixture("regmux2"))
    assert "valid_out <= valid_out" not in text
    assert "// hold valid_out" in text


def test_pass_through_emits_signal_assign():
    text = codegen.gen_unit(load_fixture("mux4"))
    assert "data_out = data0;" in text


def test_output_is_deterministic():
    table = load_fixture("fsm4")
    assert codegen.gen_unit(table) == codegen.gen_unit(table)


def test_case_style_uses_casez_with_wildcards():
    text = codegen.gen_unit(load_fixture("fsm4"), style=codegen.STYLE_CASE)
    assert "casez ({rst_n, state, cond0, cond1})" in text
    assert "5'b0????:" in text
    assert "default: ;" in text


def test_case_style_writes_expression_columns_as_truth_values():
    """An expression column is one bit of the `casez` subject, its truth
    value, and extracts to the table the `if` style gives."""
    ports = PortMap((Port(Direction.INPUT, "c0", 2),
                     Port(Direction.INPUT, "ea", 1),
                     Port(Direction.INPUT, "eb", 1),
                     Port(Direction.OUTPUT, "q", 1)))
    table = Lct(name="t", clocking=Clocking.COMBINATIONAL,
                conditions=(SignalHeader("c0"), ExprHeader("ea && !eb")),
                results=("q",),
                rows=(CaseRow((Constant(BitVector(2, 1)),
                               Constant(BitVector(1, 1))),
                              (Constant(BitVector(1, 1)),)),
                      CaseRow((DONT_CARE, Constant(BitVector(1, 0))),
                              (Constant(BitVector(1, 0)),))),
                ports=ports)
    text = codegen.gen_unit(table, style=codegen.STYLE_CASE)
    assert "  casez ({c0, ((ea && (!eb)) != 0)})\n" in text
    assert "    3'b011: begin\n" in text
    assert "    3'b??0: begin\n" in text
    schema = schema_of(table)
    by_case = extract.hdl_text_to_lct(text, *schema)
    assert by_case == extract.hdl_text_to_lct(codegen.gen_unit(table),
                                              *schema)
    assert by_case.conditions == table.conditions
    # The table's rows, then the combinational default's.
    assert by_case.rows[:2] == table.rows


def test_expression_header_guards_in_if_style():
    ports = PortMap((Port(Direction.INPUT, "a", 1),
                     Port(Direction.INPUT, "b", 1),
                     Port(Direction.OUTPUT, "q", 1)))
    table = Lct(name="t", clocking=Clocking.COMBINATIONAL,
                conditions=(ExprHeader("a & b"),), results=("q",),
                rows=(CaseRow((Constant(BitVector(1, 0)),),
                              (Constant(BitVector(1, 1)),)),),
                ports=ports)
    text = codegen.gen_unit(table)
    assert "(!((a & b)))" in text


def test_async_reset_sensitivity():
    text = codegen.gen_unit(load_fixture("regmux2"), async_reset=True)
    assert "always @(posedge clk or negedge rst_n)" in text


def test_async_reset_requires_reset_row():
    import dataclasses
    table = load_fixture("regmux2")
    headless = dataclasses.replace(table, rows=table.rows[1:])
    with pytest.raises(codegen.CodegenError):
        codegen.gen_unit(headless, async_reset=True)


def test_invalid_table_rejected():
    table = Lct(name="bad", clocking=Clocking.COMBINATIONAL,
                conditions=(SignalHeader("missing"),), results=("q",),
                rows=(), ports=PortMap((Port(Direction.OUTPUT, "q", 1),)))
    with pytest.raises(codegen.CodegenError):
        codegen.gen_unit(table)


def test_unknown_style_rejected():
    with pytest.raises(codegen.CodegenError):
        codegen.gen_unit(load_fixture("mux4"), style="nope")


CONNECTIVITY = """\
top pair
instance u0 stage
bind input d in0 8 external
bind output q mid 8 internal
instance u1 stage
bind input d mid 8 internal
bind output q out0 8 external
"""


def _stage_ports():
    return PortMap((Port(Direction.INPUT, "d", 8),
                    Port(Direction.OUTPUT, "q", 8)))


def test_structural_top():
    conn = tableio.parse_connectivity(CONNECTIVITY)
    text = codegen.gen_structural(conn, {"stage": _stage_ports()})
    assert "module pair (" in text
    assert "input wire [7:0] in0" in text
    assert "output wire [7:0] out0" in text
    assert "wire [7:0] mid;" in text
    assert "stage u0 (" in text
    assert ".d(mid)" in text


@pytest.mark.parametrize("old, new, message", [
    ("bind input d in0 8", "bind input d in0 4",
     "instance u0 port d: binding size 4 != port width 8"),
    # A flipped binding is a port direction mismatch, or, on an internal
    # net, a second driver that connectivity validation finds first.
    ("bind input d in0 8", "bind output d in0 8",
     "instance u0 port d: direction mismatch with unit stage"),
    ("bind input d mid 8", "bind output d mid 8",
     "net mid: multiple drivers (u0.q, u1.d)"),
], ids=["width", "direction", "internal-direction"])
def test_structural_checks_each_binding(old, new, message):
    with pytest.raises(LctError) as err:
        conn = tableio.parse_connectivity(CONNECTIVITY.replace(old, new))
        codegen.gen_structural(conn, {"stage": _stage_ports()})
    assert str(err.value) == message


def test_structural_unknown_unit():
    conn = tableio.parse_connectivity(CONNECTIVITY)
    with pytest.raises(codegen.CodegenError):
        codegen.gen_structural(conn, {})


def _generate(table, style, async_reset):
    try:
        return codegen.generate(table, style, async_reset)
    except codegen.CodegenError as e:  # no reset row for the async form
        return str(e)


@given(WRITTEN, st.sampled_from([codegen.STYLE_IF, codegen.STYLE_CASE]),
       st.booleans())
def test_generate_matches_the_per_cell_reference(table, style, async_reset):
    """Each call formats each distinct cell of a column once, and its
    text is the one that formats every cell again, in both styles and in
    the async reset form where row 0 allows it."""
    text = _generate(table, style, async_reset)
    with mock.patch.object(codegen, "_if_chain", reference_if_chain), \
            mock.patch.object(codegen, "_casez", reference_casez):
        assert text == _generate(table, style, async_reset)
