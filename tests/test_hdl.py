import pytest
from hypothesis import given, settings, strategies as st

from lctkit import codegen, hdl
from lctkit.model import Clocking, Direction
from .util import load_fixture, reference_tokenize

COMB = """\
module blend (
  input wire [3:0] a,
  input wire [3:0] b,
  input wire sel,
  output reg [3:0] y
);
always @* begin
  y = 4'd0;
  if (sel == 1'b1) begin
    y = a;
  end else begin
    y = b;
  end
end
endmodule
"""


def test_parse_ansi_header_and_ports():
    module = hdl.parse_hdl(COMB)
    assert module.name == "blend"
    assert [p.name for p in module.ports] == ["a", "b", "sel", "y"]
    assert module.port("a").width == 4
    assert module.port("a").direction is Direction.INPUT
    assert module.port("y").direction is Direction.OUTPUT


def test_parse_combinational_process():
    module = hdl.parse_hdl(COMB)
    assert len(module.processes) == 1
    process = module.processes[0]
    assert process.kind is Clocking.COMBINATIONAL
    assert process.clocks == []


CLOCKED = """\
module tick (
  input wire clk,
  input wire rst_n,
  output reg [1:0] q
);
always @(posedge clk) begin
  if (rst_n == 1'b0) begin
    q <= 2'd0;
  end else begin
    q <= 2'd3;
  end
end
endmodule
"""


def test_parse_clocked_process():
    process = hdl.parse_hdl(CLOCKED).processes[0]
    assert process.kind is Clocking.CLOCKED
    assert process.clocks == ["clk"]
    assert process.body[0].arms[0][1][0].nonblocking


def test_parse_async_reset_sensitivity():
    text = CLOCKED.replace("@(posedge clk)",
                           "@(posedge clk or negedge rst_n)")
    process = hdl.parse_hdl(text).processes[0]
    assert process.kind is Clocking.CLOCKED
    assert process.resets == ["rst_n"]


def test_mixed_edge_and_level_sensitivity_rejected():
    text = CLOCKED.replace("@(posedge clk)", "@(posedge clk or rst_n)")
    with pytest.raises(hdl.HdlError):
        hdl.parse_hdl(text)


def test_parse_casez_with_wildcards():
    text = codegen.gen_unit(load_fixture("fsm4"), style=codegen.STYLE_CASE)
    module = hdl.parse_hdl(text)
    case = module.processes[0].body[0]
    assert isinstance(case, hdl.HCase)
    assert case.wildcard
    pattern = case.arms[0].patterns[0]
    assert isinstance(pattern, hdl.CasePattern)
    assert pattern.bits == "0????"


def test_casex_rejected():
    text = codegen.gen_unit(load_fixture("fsm4"), style=codegen.STYLE_CASE)
    with pytest.raises(hdl.HdlError):
        hdl.parse_hdl(text.replace("casez", "casex"))


def test_continuous_assign_parsed():
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
    module = hdl.parse_hdl(text)
    assert len(module.assigns) == 1
    assert module.assigns[0].lhs == "y"


def test_sized_literal_value_styles_agree():
    bin_text = CLOCKED
    dec_text = CLOCKED.replace("2'd3", "2'b11")
    a = hdl.parse_hdl(bin_text).processes[0].body[0]
    b = hdl.parse_hdl(dec_text).processes[0].body[0]
    assert a.default[0].rhs.value == b.default[0].rhs.value == 3


def test_comments_ignored():
    commented = COMB.replace("always @* begin",
                             "// a comment\n/* block\ncomment */\n"
                             "always @* begin")
    assert hdl.parse_hdl(commented).name == "blend"


def test_internal_reg_declaration_recorded():
    text = COMB.replace("always @*",
                        "reg [2:0] scratch;\nalways @*")
    module = hdl.parse_hdl(text)
    assert module.nets["scratch"] == 3


@pytest.mark.parametrize("construct", [
    "for (i = 0; i < 4; i = i + 1) begin end",
    "initial begin end",
    "generate endgenerate",
])
def test_unsupported_constructs_named_in_error(construct):
    text = COMB.replace("always @* begin",
                        construct + "\nalways @* begin")
    with pytest.raises(hdl.HdlError) as err:
        hdl.parse_hdl(text)
    assert "unsupported construct" in str(err.value)


def test_error_carries_line_number():
    bad = COMB.replace("y = a;", "y = ;")
    with pytest.raises(hdl.HdlError) as err:
        hdl.parse_hdl(bad)
    assert err.value.line is not None


def test_generated_code_always_parses_back():
    for name in ("mux4", "regmux2", "fsm4"):
        for style in (codegen.STYLE_IF, codegen.STYLE_CASE):
            text = codegen.gen_unit(load_fixture(name), style=style)
            assert hdl.parse_hdl(text).name == name


def test_second_default_item_rejected():
    text = codegen.gen_unit(load_fixture("fsm4"), style=codegen.STYLE_CASE)
    text = text.replace("default: ;", "default: ;\n    default: ;")
    with pytest.raises(hdl.HdlError, match="default"):
        hdl.parse_hdl(text)


def test_overwide_sized_literal_rejected():
    with pytest.raises(hdl.HdlError) as err:
        hdl.parse_hdl(CLOCKED.replace("2'd3", "2'd7"))
    assert (err.value.line, err.value.col) == (10, 10)


def test_overwide_literal_rejected_after_valid_one():
    text = CLOCKED.replace("2'd3", "2'd7").replace("2'd0", "2'd3")
    with pytest.raises(hdl.HdlError, match="exceeds width") as err:
        hdl.parse_hdl(text)
    assert (err.value.line, err.value.col) == (10, 10)


def test_repeated_overwide_literal_raises_at_first_use():
    text = CLOCKED.replace("2'd0", "2'd7").replace("2'd3", "2'd7")
    with pytest.raises(hdl.HdlError) as err:
        hdl.parse_hdl(text)
    assert (err.value.line, err.value.col) == (8, 10)


def test_parses_share_no_literal_state():
    shared = CLOCKED.replace("2'd0", "2'd7")
    assert hdl.parse_hdl(CLOCKED).processes[0].body[0].default[0].rhs.value \
        == 3
    for _ in range(2):
        with pytest.raises(hdl.HdlError) as err:
            hdl.parse_hdl(shared)
        assert (err.value.line, err.value.col) == (8, 10)


def test_upper_case_literal_bases_accepted():
    text = CLOCKED.replace("2'd3", "2'B11").replace("2'd0", "2'H0")
    arms = hdl.parse_hdl(text).processes[0].body[0]
    assert arms.arms[0][1][0].rhs.value == 0
    assert arms.default[0].rhs.value == 3


def test_else_if_chain_is_one_flat_statement():
    chain = " else ".join(f"if (q == 2'd{i % 4}) q <= 2'd{i % 4};"
                          for i in range(3000))
    text = CLOCKED.replace(CLOCKED[CLOCKED.index("  if"):
                                   CLOCKED.index("end\nendmodule")],
                           chain + "\n")
    statement = hdl.parse_hdl(text).processes[0].body[0]
    assert len(statement.arms) == 3000
    assert statement.default is None


def _token_ends(text):
    """The offset just past each token of the text."""
    starts = [0]
    for line in text.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return [starts[tok.line - 1] + tok.col - 1 + len(tok.text)
            for tok in hdl.tokenize(text)]


@pytest.mark.parametrize("style", [codegen.STYLE_IF, codegen.STYLE_CASE])
@pytest.mark.parametrize("name", ["mux4", "regmux2", "fsm4"])
def test_every_token_prefix_parses_or_raises_hdl_error(name, style):
    text = codegen.gen_unit(load_fixture(name), style)
    for end in _token_ends(text):
        try:
            hdl.parse_hdl(text[:end])
        except hdl.HdlError as e:
            assert e.line is not None and e.col is not None, str(e)


def test_unfinished_sensitivity_list_is_located():
    with pytest.raises(hdl.HdlError) as info:
        hdl.parse_hdl("module m (input wire a, output reg y);\n"
                      "always @(")
    assert (info.value.line, info.value.col) == (2, 9)


def test_symbolic_range_bound_is_located():
    with pytest.raises(hdl.HdlError, match="expected a number") as info:
        hdl.parse_hdl("module m (\n  input wire [N:0] a,\n"
                      "  output wire y\n);\nendmodule\n")
    assert (info.value.line, info.value.col) == (2, 15)


@pytest.mark.parametrize("text, where", [
    ("  // nothing but a comment\n", (1, 1)),
    ("module m (input wire [3:1] a);\nendmodule\n", (1, 22)),
    ("module m (input wire a);\nalways @* begin", (2, 11)),
    ("module m (input wire a);\nalways @* casez (a)", (2, 19)),
    ("module m (input wire a);\nalways @*", (2, 9)),
    ("module m (input wire a);\n", (1, 24)),
])
def test_errors_at_end_of_input_are_located(text, where):
    with pytest.raises(hdl.HdlError) as err:
        hdl.parse_hdl(text)
    assert (err.value.line, err.value.col) == where


# Random token streams for the differential test of the tokenizer:
# tokens of every kind, whitespace, comments (including an unterminated
# one) and characters outside the subset, concatenated with no
# separator, so that neighbouring pieces can also merge.
_PIECES = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_$]{0,5}", fullmatch=True),
    st.from_regex(r"[0-9]{1,4}", fullmatch=True),
    st.from_regex(r"[0-9]{1,2}'[bdhBDH][0-9a-fA-F_?zZxX]{1,5}",
                  fullmatch=True),
    st.sampled_from(["<=", ">=", "==", "!=", "&&", "||", "/", "'",
                     *"@#.(){}[],;:?=<>&|^~!*+-"]),
    st.from_regex(r"[ \t\n\r]{1,4}", fullmatch=True),
    st.from_regex(r"//[^\n]{0,8}\n?", fullmatch=True),
    st.from_regex(r"/\*[ a-z*/\n]{0,10}\*/", fullmatch=True),
    st.just("/*"),
    st.sampled_from(["$", '"', "`", "\\", "\x0b", "\u00e9"]),
)


def _tokens_or_error(tokenize, text):
    try:
        return [tuple(tok) for tok in tokenize(text)]
    except hdl.HdlError as e:
        return str(e), e.line, e.col


@settings(max_examples=300)
@given(st.lists(_PIECES, max_size=30).map("".join))
def test_tokenize_matches_reference(text):
    assert _tokens_or_error(hdl.tokenize, text) == \
        _tokens_or_error(reference_tokenize, text)


def test_tokens_keep_their_fields():
    tok = hdl.tokenize("module m")[1]
    assert (tok.kind, tok.text, tok.line, tok.col) == ("ident", "m", 1, 8)
    assert tok == ("ident", "m", 1, 8)
