"""Size and nesting limits: long prioritized chains extract back, large
generated FSMs round-trip and compare, and nesting fails cleanly at one
fixed depth."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from lctkit import analysis, codegen, equiv, extract, hdl, sim, \
    roundtrip as rt
from lctkit.expr import MAX_DEPTH, ExprError, parse_expr, render
from lctkit.model import (
    BitVector,
    LctError,
    CaseRow,
    Clocking,
    Constant,
    Direction,
    Lct,
    Port,
    PortMap,
    SignalHeader,
    TransformResponse,
)

STYLES = (codegen.STYLE_IF, codegen.STYLE_CASE)


def _const(width, value):
    return Constant(BitVector(width, value))


@pytest.mark.parametrize("style", STYLES)
def test_2000_row_table_roundtrips_to_match(style):
    rows = tuple(CaseRow((_const(2, i % 4),), (_const(4, i % 16),))
                 for i in range(2000))
    table = Lct(name="wide", clocking=Clocking.COMBINATIONAL,
                conditions=(SignalHeader("sel"),), results=("y",),
                rows=rows,
                ports=PortMap((Port(Direction.INPUT, "sel", 2),
                               Port(Direction.OUTPUT, "y", 4))))
    backend = rt.DeterministicBackend(style)
    report = rt.run_roundtrip(table, backend, backend)
    assert report.outcome.label is rt.Label.M


@pytest.mark.parametrize("style", STYLES)
def test_2050_row_fsm_extracts_row_for_row(style):
    table = analysis.generate_fsm(512, 4, 4, seed=1)
    assert len(table.rows) == 2050
    back = extract.hdl_text_to_lct(codegen.gen_unit(table, style),
                                   *rt.schema_of(table))
    assert [(r.inputs, r.outputs) for r in back.rows] == \
        [(r.inputs, r.outputs) for r in table.rows]


@pytest.mark.parametrize("style", STYLES)
def test_64_state_6_condition_fsm_roundtrips_to_match(style):
    table = analysis.generate_fsm(64, 6, 8, seed=1)
    assert len(table.rows) == 386
    backend = rt.DeterministicBackend(style)
    report = rt.run_roundtrip(table, backend, backend)
    assert report.outcome.label is rt.Label.M


def test_64_state_6_condition_fsm_late_mutation_counterexample():
    """The last transition row matches one assignment, the latest of any
    row's lowest; the table does not overlap, so that assignment is the
    first disagreement."""
    table = analysis.generate_fsm(64, 6, 8, seed=1)
    row = table.rows[-1]
    col = table.results.index("out7")
    flipped = _const(1, 1 - row.outputs[col].bv.value)
    rows = table.rows[:-1] + (dataclasses.replace(
        row, outputs=row.outputs[:col] + (flipped,)
        + row.outputs[col + 1:]),)
    mutated = dataclasses.replace(table, rows=rows)

    result = equiv.compare(table, mutated)
    assert result.verdict is equiv.Verdict.NOT_EQUIVALENT
    cx = result.counterexample
    assignment = tuple(cell.bv.value for cell in row.inputs)
    assert cx.assignment == sim.assignment_dict(table, assignment)
    assert cx.output == "out7"
    va = sim.symbolic_outputs(table, assignment)[col]
    vb = sim.symbolic_outputs(mutated, assignment)[col]
    assert va != vb
    assert (cx.value_a, cx.value_b) == (str(va), str(vb))


# -- nesting ------------------------------------------------------------------

def nested_expr(construct: str, n: int) -> str:
    """An expression `n` levels deep in one construct."""
    if construct == "(":
        return "(" * n + "a" + ")" * n
    if construct == "{":
        return "{" * n + "a" + "}" * n
    if construct == "~":
        return "~" * n + "a"
    return "a ? " * n + "b" + " : a" * n  # "?:"


def _module(body: str) -> str:
    return ("module deep (\n  input wire a,\n  input wire b,\n"
            "  output reg y\n);\n" + body + "\nendmodule\n")


def nested_hdl(construct: str, n: int) -> str:
    """A module whose deepest nesting is `n` levels of one construct."""
    if construct in ("(", "?:"):
        return _module(f"assign y = {nested_expr(construct, n)};")
    if construct in ("{", "~"):
        # The `if` opens one bracket level and no operator level.
        depth = n - 1 if construct == "{" else n
        return _module(f"always @* if ({nested_expr(construct, depth)}) "
                       "y = 1'b1; else y = 1'b0;")
    if construct == "begin":
        return _module("always @* " + "begin " * n + "y = a;" + " end" * n)
    return _module("always @* " + "if (a) " * n + "y = b;")  # "if"


EXPR_CONSTRUCTS = ("(", "{", "~", "?:")
HDL_CONSTRUCTS = EXPR_CONSTRUCTS + ("begin", "if")


def _extract(text: str):
    return extract.hdl_text_to_lct(text, ["a"], ["y"])


@pytest.mark.parametrize("construct", EXPR_CONSTRUCTS)
def test_header_nesting_limit(construct):
    tree = parse_expr(nested_expr(construct, MAX_DEPTH))
    assert render(parse_expr(render(tree))) == render(tree)
    with pytest.raises(ExprError, match="nesting deeper"):
        parse_expr(nested_expr(construct, MAX_DEPTH + 1))


def test_120_nested_parentheses_raise_expr_error():
    with pytest.raises(ExprError):
        parse_expr(nested_expr("(", 120))


@pytest.mark.parametrize("construct", HDL_CONSTRUCTS)
def test_hdl_nesting_limit(construct):
    assert _extract(nested_hdl(construct, MAX_DEPTH)).results == ("y",)
    with pytest.raises(hdl.HdlError, match="nesting deeper"):
        hdl.parse_hdl(nested_hdl(construct, MAX_DEPTH + 1))


class _FixedForward:
    """Answers every forward request with the same HDL text."""
    name = "fixed"

    def __init__(self, text):
        self.text = text

    def complete(self, request):
        return TransformResponse(self.text)


def test_nesting_at_limit_extracts_in_run_many_workers():
    unit = Lct(name="deep", clocking=Clocking.COMBINATIONAL,
               conditions=(SignalHeader("a"),), results=("y",),
               rows=(CaseRow((_const(1, 1),), (_const(1, 1),)),),
               ports=PortMap((Port(Direction.INPUT, "a", 1),
                              Port(Direction.INPUT, "b", 1),
                              Port(Direction.OUTPUT, "y", 1))))
    for construct in HDL_CONSTRUCTS:
        forward = _FixedForward(nested_hdl(construct, MAX_DEPTH))
        reports = rt.run_many([unit] * 4, forward, rt.DeterministicBackend(),
                              workers=2)
        # The unit's table differs from the HDL; what matters is that
        # both extractions, the arbiter's and the inverse's, succeed.
        for report in reports:
            assert report.error is None, (construct, report.error)
            assert not any("nesting" in note or "inverse:" in note
                           for note in report.notes), (construct,
                                                       report.notes)


@settings(max_examples=150)
@given(st.sampled_from(EXPR_CONSTRUCTS), st.integers(1, 500))
def test_header_nesting_never_overflows(construct, n):
    try:
        tree = parse_expr(nested_expr(construct, n))
    except ExprError:
        assert n > MAX_DEPTH
        return
    parse_expr(render(tree))


@settings(max_examples=150)
@given(st.sampled_from(HDL_CONSTRUCTS), st.integers(1, 500))
def test_hdl_nesting_never_overflows(construct, n):
    try:
        _extract(nested_hdl(construct, n))
    except (ExprError, hdl.HdlError):
        assert n > MAX_DEPTH


def _wrap(text: str, construct: str) -> str:
    return {"(": f"({text})", "{": f"{{{text}}}", "~": f"~{text}",
            "?:": f"a ? {text} : b"}[construct]


@settings(max_examples=60)
@given(st.lists(st.sampled_from(HDL_CONSTRUCTS), min_size=200,
                max_size=500))
def test_mixed_nesting_never_overflows(constructs):
    """Any mix of nesting constructs parses, extracts or fails with a
    toolkit error."""
    guard = "a"
    for construct in constructs:
        if construct in EXPR_CONSTRUCTS:
            guard = _wrap(guard, construct)
    body = f"if ({guard}) y = 1'b1; else y = 1'b0;"
    for construct in constructs:
        if construct == "begin":
            body = f"begin {body} end"
        elif construct == "if":
            body = f"if (b) {body}"
    try:
        _extract(_module("always @* " + body))
    except LctError:
        pass


def test_guard_too_deep_for_a_header_is_an_extract_error():
    """A guard that cannot be split into columns becomes an expression
    column; past the nesting limit of a header that is an ExtractError.
    Here, 119 chained `|` render one bracket each."""
    guard = " | ".join(["a", "b"] * 60)
    text = _module(f"always @* if ({guard}) y = 1'b1; else y = 1'b0;")
    with pytest.raises(extract.ExtractError,
                       match="guard cannot be a condition column"):
        _extract(text)
