import pytest
from hypothesis import given, settings, strategies as st

from lctkit import codegen, expr, extract, hdl
from lctkit.model import Clocking, Direction, LctError
from lctkit.roundtrip import schema_of
from .util import (
    STRAY_CHARACTERS,
    VARIANT_KINDS,
    hdl_variant,
    load_fixture,
    reference_tokenize,
    token_spans,
)

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
    assert isinstance(case, hdl.HIf)
    guard, _ = case.arms[0]
    assert guard.op == "=="
    assert expr.render(guard.lhs) == "{rst_n, state, cond0, cond1}"
    assert isinstance(guard.rhs, expr.CasePattern)
    assert guard.rhs.bits == "0????"


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


@pytest.mark.parametrize("style", [codegen.STYLE_IF, codegen.STYLE_CASE])
@pytest.mark.parametrize("name", ["mux4", "regmux2", "fsm4"])
def test_every_token_prefix_parses_or_raises_hdl_error(name, style):
    text = codegen.gen_unit(load_fixture(name), style)
    for _start, end in token_spans(text):
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


CASEZ = """\
module pick (
  input wire [1:0] s,
  output reg y
);
always @* begin
  casez (s)
    2'b1?: y = 1'b1;
    default: y = 1'b0;
  endcase
end
endmodule
"""


# (text, schema) for the reader's fuzz test: the fixtures' HDL in both
# styles under their own schemas, and texts written here under a schema
# of their outputs (None).
_FUZZ_TEXTS = [(codegen.gen_unit(load_fixture(name), style),
                schema_of(load_fixture(name)))
               for name in ("mux4", "regmux2", "fsm4")
               for style in (codegen.STYLE_IF, codegen.STYLE_CASE)] + \
    [(COMB, None), (CLOCKED, None), (CASEZ, None)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_FUZZ_TEXTS), st.sampled_from(VARIANT_KINDS),
       st.integers(0, 10**6), st.sampled_from(STRAY_CHARACTERS))
def test_damaged_hdl_reads_or_raises_a_located_lct_error(source, kind,
                                                         index, stray):
    """Cut after a token, with a token deleted or written twice, or with
    a stray character, a text parses and extracts or raises an LctError,
    never IndexError, KeyError or RecursionError; a parse error is
    located."""
    text, schema = source
    try:
        module = hdl.parse_hdl(hdl_variant(text, kind, index, stray))
    except LctError as e:
        if isinstance(e, hdl.HdlError):
            assert e.line is not None and e.col is not None, str(e)
        return
    conditions, results = schema or (
        [], [p.name for p in module.ports if p.direction is Direction.OUTPUT])
    for process in range(len(module.processes) + bool(module.assigns)):
        try:
            extract.hdl_to_lct(module, conditions, results,
                               process_index=process)
        except LctError:
            pass


# One error site each, in the middle of a multi-line module: the error
# is located at the token (or character) at fault.
@pytest.mark.parametrize("text, message, where", [
    (CLOCKED.replace("if (rst_n", "if rst_n"),
     "expected '(', found 'rst_n'", (7, 6)),
    (CLOCKED.replace("posedge clk", "posedge 3"),
     "expected identifier, found '3'", (6, 18)),
    (CLOCKED.replace("  input wire rst_n,", "  wire rst_n,"),
     "expected port direction, found 'wire'", (3, 3)),
    (CLOCKED.replace("    q <= 2'd0;", "    while (rst_n) q <= 2'd0;"),
     "unsupported construct 'while'", (8, 5)),
    (CLOCKED.replace("always @(posedge clk)",
                     "wire w;\ninitial begin end\nalways @(posedge clk)"),
     "unsupported construct 'initial'", (7, 1)),
    (CLOCKED.replace("always @(posedge clk)",
                     "tick t0 ();\nalways @(posedge clk)"),
     "unsupported module item 'tick'", (6, 1)),
    (CASEZ.replace("casez", "case"), "bad case label \"2'b1?\"", (7, 5)),
    (CASEZ.replace("2'b1?", "2'h?"), "bad case label \"2'h?\"", (7, 5)),
    (CASEZ.replace("2'b1?", "2'b1x"),
     "x bits are not supported in \"2'b1x\"", (7, 5)),
    (CASEZ.replace("2'b1?", "3'b1?"),
     "case label width mismatch in \"3'b1?\"", (7, 5)),
    (CASEZ.replace("casez", "casex"), "unsupported construct 'casex'",
     (6, 3)),
    (CASEZ.replace("    default: y = 1'b0;",
                   "    default: y = 1'b0;\n    default: y = 1'b1;"),
     "second default item in case", (9, 5)),
    (CLOCKED.replace("@(posedge clk)", "@(posedge clk or rst_n)"),
     "mixed edge and level sensitivity", (6, 1)),
    (CLOCKED.replace("    q <= 2'd3;",
                     "    /* a comment\n       over lines */ q <= $2'd3;"),
     "unexpected character '$'", (11, 27)),
    (CLOCKED.replace("    q <= 2'd3;", "    q == 2'd3;"),
     "expected assignment, found '=='", (10, 7)),
    (CLOCKED.replace("    q <= 2'd3;", "    2'd3 <= q;"),
     "unsupported statement \"2'd3\"", (10, 5)),
    (CLOCKED.replace("    q <= 2'd3;", "    q <= );"),
     "unexpected token ')'", (10, 10)),
    (CLOCKED.replace("rst_n == 1'b0", "(" * 101 + "rst_n" + ")" * 101),
     "nesting deeper than 100 levels", (7, 105)),
    (CLOCKED.replace("rst_n == 1'b0", "~" * 101 + "rst_n"),
     "nesting deeper than 100 levels", (7, 107)),
    (CLOCKED.replace("  if (rst_n", "begin " * 99 + "if (rst_n")
     .replace("end\nendmodule", "end" + " end" * 99 + "\nendmodule"),
     "nesting deeper than 100 levels", (7, 595)),
    (CASEZ.replace("  casez (s)", "begin " * 99 + "casez (s)")
     .replace("  endcase", "endcase" + " end" * 99),
     "nesting deeper than 100 levels", (6, 595)),
    (CASEZ.replace("  casez (s)", "begin " * 100 + "casez (s)")
     .replace("  endcase", "endcase" + " end" * 100),
     "nesting deeper than 100 levels", (6, 595)),
])
def test_errors_inside_a_module_are_located(text, message, where):
    with pytest.raises(hdl.HdlError) as err:
        hdl.parse_hdl(text)
    assert str(err.value) == \
        f"{message} (line {where[0]}, column {where[1]})"
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
        return tokenize(text)
    except hdl.HdlError as e:
        return str(e), e.line, e.col


@settings(max_examples=300)
@given(st.lists(_PIECES, max_size=30).map("".join))
def test_tokenize_matches_reference(text):
    def reference_texts(text):
        return [token for _kind, token, _line, _col
                in reference_tokenize(text)]
    tokens = _tokens_or_error(hdl.tokenize, text)
    assert tokens == _tokens_or_error(reference_texts, text)
    if isinstance(tokens, list):
        # Where an error would locate each token.
        assert [expr.locate(text, i) for i in range(len(tokens))] == \
            [(line, col) for _kind, _token, line, col
             in reference_tokenize(text)]


def test_tokens_are_their_texts():
    assert hdl.tokenize("module m") == ["module", "m"]


def test_locate_gives_a_tokens_line_and_column():
    assert expr.locate("module m", 1) == (1, 8)
