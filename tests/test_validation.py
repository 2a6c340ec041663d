"""`validate_lct` rejects an output cell naming a signal `X`: written
out, it would read back as the don't-care cell."""

import pytest

from lctkit import codegen, extract, tableio
from lctkit.model import (
    BitVector,
    CaseRow,
    Clocking,
    Constant,
    Direction,
    Lct,
    LctError,
    Port,
    PortMap,
    SignalHeader,
    SignalRef,
    validate_lct,
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
