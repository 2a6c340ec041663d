"""Error paths that foreign HDL or user input can reach: each raises its
``LctError`` subclass with its message, never a bare exception."""

import dataclasses

import pytest

from lctkit import codegen, extract, tableio
from lctkit.model import Direction, Port, PortMap
from .util import load_fixture

_GUARDED = """module m (
  input wire a,
  input wire b,
  input wire [1:0] s,
  output reg q
);

always @* begin
  q = 1'b0;
%s
end

endmodule
"""


@pytest.mark.parametrize("body, message", [
    ("  casez ({a, b})\n    3'b1??: q = 1'b1;\n    default: ;\n  endcase",
     "case label width 3 != subject width 2"),
    ("  casez ({s, b})\n    3'b?11: q = 1'b1;\n    default: ;\n  endcase",
     "partial wildcard over s in case label"),
    ("  if ((1'b1 & 2'b01) == 1'b1) q = 1'b1;",
     "constant guard: width mismatch 1 vs 2 for operator '&'"),
    ("  if (a) q = 2'd2;", "value 2 exceeds width of q"),
], ids=["label-width", "partial-wildcard", "constant-guard", "wide-value"])
def test_foreign_hdl_the_extractor_rejects(body, message):
    with pytest.raises(extract.ExtractError) as err:
        extract.hdl_text_to_lct(_GUARDED % body, ["a", "b", "s"], ["q"])
    assert str(err.value) == message


def test_more_paths_than_the_limit():
    """17 independent ifs in a row are 2**17 paths, past MAX_PATHS."""
    names = [f"a{i}" for i in range(17)]
    ports = "".join(f"  input wire {name},\n" for name in names)
    body = "\n".join(f"  if ({name}) q = 1'b1;" for name in names)
    text = (f"module m (\n{ports}  output reg q\n);\n\n"
            f"always @* begin\n  q = 1'b0;\n{body}\nend\n\nendmodule\n")
    with pytest.raises(extract.ExtractError) as err:
        extract.hdl_text_to_lct(text, names, ["q"])
    assert str(err.value) == f"more than {extract.MAX_PATHS} paths"


def test_async_reset_form_of_a_table_with_no_rows():
    empty = dataclasses.replace(load_fixture("regmux2"), rows=())
    with pytest.raises(codegen.CodegenError) as err:
        codegen.gen_unit(empty, async_reset=True)
    assert str(err.value) == "async reset form needs a reset row"


def test_structural_binding_to_a_port_the_unit_lacks():
    conn = tableio.parse_connectivity(
        "top t\ninstance u0 stage\nbind input e n0 8 external\n")
    stage = PortMap((Port(Direction.INPUT, "d", 8),))
    with pytest.raises(codegen.CodegenError) as err:
        codegen.gen_structural(conn, {"stage": stage})
    assert str(err.value) == "instance u0: unit stage has no port e"
