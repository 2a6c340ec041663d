import pytest
from hypothesis import given, settings, strategies as st

from lctkit import codegen, equiv, extract, hdl
from lctkit.model import (
    BitVector,
    CaseRow,
    Clocking,
    Constant,
    DONT_CARE,
    Direction,
    Lct,
    LctError,
    Port,
    PortMap,
    SignalHeader,
    SignalRef,
)
from lctkit.roundtrip import (
    DeterministicBackend,
    Label,
    run_roundtrip,
    schema_of,
)
from .util import (
    constant_lct,
    load_fixture,
    random_disjoint_lct,
    random_lct,
    random_passthrough_lct,
)


def _roundtrip(table, style=codegen.STYLE_IF):
    text = codegen.gen_unit(table, style=style)
    return extract.hdl_text_to_lct(text, *schema_of(table), name=table.name)


def test_mux4_reconstructs_row_for_row():
    table = load_fixture("mux4")
    back = _roundtrip(table)
    assert back.clocking is Clocking.COMBINATIONAL
    assert equiv.compare(table, back).verdict.equivalent
    # the disabled row comes back first, with its don't-care intact
    assert back.rows[0].inputs[1] is DONT_CARE


def test_regmux2_hold_cells_recovered():
    table = load_fixture("regmux2")
    back = _roundtrip(table)
    backpress = back.rows[1]
    assert backpress.outputs == (SignalRef("valid_out"),
                                 SignalRef("data_out"))
    assert equiv.compare(table, back).verdict.equivalent


def test_fsm4_both_styles_reconstruct():
    table = load_fixture("fsm4")
    for style in (codegen.STYLE_IF, codegen.STYLE_CASE):
        back = _roundtrip(table, style)
        assert equiv.compare(table, back).verdict.equivalent


def test_clock_port_excluded_from_schema_ports():
    back = _roundtrip(load_fixture("regmux2"))
    assert back.ports.get("clk") is None


def test_empty_guarded_branch_still_shadows():
    """A clocked branch that assigns nothing must survive extraction:
    it blocks later branches for the assignments it covers."""
    text = """\
module shadow (
  input wire clk,
  input wire [1:0] c,
  output reg [3:0] q
);
always @(posedge clk) begin
  if (c == 2'b11) begin
  end else if (c == 2'b01) begin
    q <= 4'd5;
  end
end
endmodule
"""
    table = extract.hdl_text_to_lct(text, ["c"], ["q"])
    assert table.rows[0].outputs == (SignalRef("q"),)
    assert len(table.rows) == 2


def test_ternary_continuous_assign_extracts():
    text = """\
module pick (
  input wire sel,
  input wire [7:0] a,
  input wire [7:0] b,
  output wire [7:0] y
);
assign y = sel ? a : b;
endmodule
"""
    table = extract.hdl_text_to_lct(text, ["sel"], ["y"])
    assert table.clocking is Clocking.COMBINATIONAL
    assert [row.outputs[0] for row in table.rows] == \
        [SignalRef("a"), SignalRef("b")]


def test_sequential_assignments_last_write_wins():
    text = """\
module seq (
  input wire en,
  output reg [1:0] q
);
always @* begin
  q = 2'd0;
  if (en == 1'b1) begin
    q = 2'd2;
  end
end
endmodule
"""
    from lctkit import sim
    from lctkit.model import BitVector
    table = extract.hdl_text_to_lct(text, ["en"], ["q"])
    on = sim.eval_comb(table, {"en": BitVector(1, 1)})
    off = sim.eval_comb(table, {"en": BitVector(1, 0)})
    assert on["q"] == sim.Known(BitVector(2, 2))
    assert off["q"] == sim.Known(BitVector(2, 0))


def test_unconstrained_columns_become_dont_care():
    table = load_fixture("fsm4")
    back = _roundtrip(table)
    reset_row = back.rows[0]
    assert reset_row.inputs[1] is DONT_CARE  # state unconstrained under reset


def test_extra_condition_columns_appended_when_needed():
    text = """\
module extra (
  input wire a,
  input wire b,
  output reg q
);
always @* begin
  q = 1'b0;
  if ((a | b) == 1'b1) begin
    q = 1'b1;
  end
end
endmodule
"""
    table = extract.hdl_text_to_lct(text, ["a"], ["q"])
    assert len(table.conditions) > 1


def test_assignment_to_unknown_signal_rejected():
    text = """\
module bad (
  input wire a,
  output reg q
);
always @* begin
  q = 1'b0;
end
endmodule
"""
    with pytest.raises(extract.ExtractError):
        extract.hdl_text_to_lct(text, ["a"], ["missing"])


def test_hdl_name_the_table_model_rejects_is_an_extract_error():
    """The reader accepts ``data1$`` as an identifier; a table cell may
    not name it, so extraction fails with its own error class."""
    table = load_fixture("mux4")
    text = codegen.gen_unit(table)
    assert text.count("data_out = data1;") == 1
    text = text.replace("data_out = data1;", "data_out = data1$ ;")
    with pytest.raises(extract.ExtractError,
                       match=r"bad signal reference: 'data1\$'"):
        extract.hdl_text_to_lct(text, *schema_of(table), name=table.name)


def test_multiple_processes_need_explicit_selection():
    text = """\
module two (
  input wire clk,
  input wire a,
  output reg q,
  output reg r
);
always @(posedge clk) begin
  q <= a;
end
always @(posedge clk) begin
  r <= a;
end
endmodule
"""
    module = hdl.parse_hdl(text)
    with pytest.raises(extract.ExtractError):
        extract.hdl_to_lct(module, ["a"], ["q"])
    table = extract.hdl_to_lct(module, ["a"], ["q"], process_index=0)
    assert table.results == ("q",)


def test_random_tables_roundtrip_equivalent():
    for seed in range(25):
        table = random_lct(seed)
        back = _roundtrip(table)
        assert equiv.compare(table, back).verdict.equivalent, seed


def _all_x_hold():
    """Row 1 matches everything and holds r0, so the unit always holds;
    row 2 is shadowed."""
    return Lct(name="all_x_hold", clocking=Clocking.CLOCKED,
               conditions=(SignalHeader("c0"),), results=("r0",),
               rows=(CaseRow((DONT_CARE,), (SignalRef("r0"),)),
                     CaseRow((Constant(BitVector(1, 1)),),
                             (Constant(BitVector(2, 3)),))),
               ports=PortMap((Port(Direction.INPUT, "c0", 1),
                              Port(Direction.OUTPUT, "r0", 2))))


@pytest.mark.parametrize("style", [codegen.STYLE_IF, codegen.STYLE_CASE])
def test_always_true_empty_arm_still_shadows(style):
    """`if (1'b1) begin end` and an all-? casez label with an empty body
    take every assignment: they are not the droppable fall-through."""
    backend = DeterministicBackend(style)
    report = run_roundtrip(_all_x_hold(), backend, backend)
    assert report.outcome.label is Label.M


CASEZ_DEFAULT_FIRST = """\
module pick (
  input wire [1:0] sel,
  output reg [3:0] y
);
always @* begin
  casez (sel)
    default: y = 4'b0111;
    2'b01: y = 4'b0001;
  endcase
end
endmodule
"""


def test_casez_default_applies_only_when_no_item_matches():
    from lctkit import sim
    table = extract.hdl_text_to_lct(CASEZ_DEFAULT_FIRST, ["sel"], ["y"])
    for sel, y in ((0, 7), (1, 1), (2, 7), (3, 7)):
        out = sim.eval_comb(table, {"sel": BitVector(2, sel)})
        assert out["y"] == sim.Known(BitVector(4, y)), sel


GENERATORS = {
    "constant": constant_lct,
    "random": random_lct,
    "disjoint": lambda seed: random_disjoint_lct(seed, clocked=seed % 2 == 1),
    "passthrough": random_passthrough_lct,
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(GENERATORS)), st.integers(0, 10**6))
def test_if_and_case_hdl_extract_to_the_same_table(kind, seed):
    """A `case` item is a `subject == label` arm of the node an `if`
    chain reads into, so both styles give one table, or one error."""
    table = GENERATORS[kind](seed)

    def extracted(style):
        try:
            return _roundtrip(table, style)
        except LctError as e:
            return f"{type(e).__name__}: {e}"

    assert extracted(codegen.STYLE_IF) == extracted(codegen.STYLE_CASE)


@pytest.mark.parametrize("style", [codegen.STYLE_IF, codegen.STYLE_CASE])
@pytest.mark.parametrize("clocking", list(Clocking))
def test_table_without_condition_columns_round_trips(style, clocking):
    """A constant function: the case style's subject and labels are
    `1'b1`, which the reader parses and the extractor reads as an arm
    that always matches, as it reads the if style's `if (1'b1)`."""
    table = Lct(name="constant", clocking=clocking, conditions=(),
                results=("q",),
                rows=(CaseRow((), (Constant(BitVector(2, 2)),)),
                      CaseRow((), (Constant(BitVector(2, 1)),))),
                ports=PortMap((Port(Direction.INPUT, "a", 1),
                               Port(Direction.OUTPUT, "q", 2))))
    text = codegen.gen_unit(table, style=style)
    hdl.parse_hdl(text)
    if style == codegen.STYLE_CASE:
        assert "casez (1'b1)" in text and "1'b1: begin" in text
    assert equiv.compare(table, _roundtrip(table, style)).verdict.equivalent
    backend = DeterministicBackend(style)
    report = run_roundtrip(table, backend, backend)
    assert report.outcome.label is Label.M
    assert report.notes == []


def test_constant_guards_keep_or_drop_their_path():
    table = _foreign("if (1'b1 == 1'b0) y = 1'b1; "
                     "else if (!1'b0 && a) y = 1'b1;")
    assert [h.key for h in table.conditions] == ["a"]
    assert _inputs(table) == [(1,), ("X",)]


def _foreign_text(body: str) -> str:
    """A combinational module over the 1-bit inputs a, b, c and d, whose
    body defaults `y` to 0 before `body`."""
    return ("module foreign (\n  input wire a,\n  input wire b,\n"
            "  input wire c,\n  input wire d,\n  output reg y\n);\n"
            f"always @* begin\n  y = 1'b0;\n  {body}\nend\nendmodule\n")


def _foreign(body: str, conditions=()):
    """Extract `y` from `_foreign_text(body)`."""
    return extract.hdl_text_to_lct(_foreign_text(body), list(conditions),
                                   ["y"])


def _inputs(table):
    """Per row, its condition cells: a value, or "X"."""
    return [tuple("X" if cell is DONT_CARE else cell.bv.value
                  for cell in row.inputs) for row in table.rows]


def test_concatenation_equality_guard_gives_signal_columns():
    table = _foreign("if ({a, b} == 2'd2) y = 1'b1;")
    assert [h.key for h in table.conditions] == ["a", "b"]
    assert _inputs(table) == [(1, 0), ("X", "X")]


def test_case_over_an_expression_subject_gives_an_expression_column():
    table = _foreign("case (a & b) 1'b1: y = 1'b1; endcase")
    assert [h.key for h in table.conditions] == ["((a & b) == 1'd1)"]
    assert _inputs(table) == [(1,), ("X",)]
    # A wildcard label has no value, so it cannot be in such a column.
    with pytest.raises(extract.ExtractError,
                       match="guard cannot be a condition column"):
        _foreign("casez (a & b) 1'b?: y = 1'b1; endcase")


def test_case_label_expression_gives_an_expression_column():
    table = _foreign("case (a) b: y = 1'b1; endcase", ["a"])
    assert [h.key for h in table.conditions] == ["a", "(a == b)"]
    assert _inputs(table) == [("X", 1), ("X", "X")]


@pytest.mark.parametrize("body", ["if (a == 7) y = 1'b1;",
                                  "case (a) 7: y = 1'b1; endcase"])
def test_overwide_value_reports_alike_in_if_and_case(body):
    with pytest.raises(extract.ExtractError,
                       match="condition value 7 exceeds width of a"):
        _foreign(body)


def test_casez_under_a_schema_with_an_expression_column():
    """Each label still binds the signals of `{c, d}` when the schema
    has an expression column, which every guard is first looked up in."""
    table = _foreign("if (a & b) casez ({c, d}) 2'b1?: y = 1'b1; "
                     "2'b01: y = 1'b0; default: ; endcase",
                     ["a & b", "c", "d"])
    assert [h.key for h in table.conditions] == ["(a & b)", "c", "d"]
    assert _inputs(table) == [(1, 1, "X"), (1, 0, 1), (1, "X", "X"),
                              ("X", "X", "X")]


def _outputs(table):
    """Per row, the value of `y`."""
    return [row.outputs[0].bv.value for row in table.rows]


def test_negated_guard_off_the_schema_gives_an_expression_column_at_0():
    table = _foreign("if (!(a & b)) y = 1'b1;")
    assert [h.key for h in table.conditions] == ["(a & b)"]
    assert _inputs(table) == [(0,), ("X",)]
    assert _outputs(table) == [1, 0]


def test_case_item_with_several_labels_gives_one_row_per_label():
    table = _foreign("case ({a, b}) 2'd0, 2'd3: y = 1'b1; endcase")
    assert [h.key for h in table.conditions] == ["a", "b"]
    assert _inputs(table) == [(0, 0), (1, 1), ("X", "X")]
    assert _outputs(table) == [1, 1, 0]


def test_casez_subject_truth_value_binds_its_schema_column():
    """`(e != 0)` in a subject is the schema column `e`.  Off the schema
    it is no column, and a wildcard label over it is an error."""
    body = "casez ({c, ((a & b) != 0)}) 2'b?1: y = 1'b1; endcase"
    table = _foreign(body, ["c", "a & b"])
    assert [h.key for h in table.conditions] == ["c", "(a & b)"]
    assert _inputs(table) == [("X", 1), ("X", "X")]
    assert _outputs(table) == [1, 0]
    with pytest.raises(extract.ExtractError,
                       match="guard cannot be a condition column"):
        _foreign(body, ["c"])


_NETS = """\
module nets (
  input wire a,
  output reg y
);
wire n0, n1;
always @(*) begin
  y = 1'b0;
  if (a) y = 1'b1;
end
endmodule
"""


def test_net_list_and_star_sensitivity_read_back():
    """`wire n0, n1;` declares both nets, and `always @(*)` is a
    combinational process."""
    module = hdl.parse_hdl(_NETS)
    assert module.nets == {"n0": 1, "n1": 1}
    table = extract.hdl_to_lct(module, ["a"], ["y"])
    assert table.clocking is Clocking.COMBINATIONAL
    assert _inputs(table) == [(1,), ("X",)]
    assert _outputs(table) == [1, 0]
