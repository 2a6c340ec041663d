import pytest
from hypothesis import given, strategies as st

from lctkit.expr import (
    ExprError,
    evaluate,
    identifiers,
    parse_expr,
    render,
    truth,
)
from lctkit.model import BitVector


def bv(width, value):
    return BitVector(width, value)


def test_precedence_and_binds_tighter_than_or():
    tree = parse_expr("a | b & c")
    assert render(tree) == "(a | (b & c))"


def test_logical_binds_looser_than_bitwise():
    tree = parse_expr("a & b && c | d")
    assert render(tree) == "((a & b) && (c | d))"


def test_equality_binds_tighter_than_bitwise():
    tree = parse_expr("a == 1 & b == 0")
    assert render(tree) == "((a == 1) & (b == 0))"


def test_redundant_parens_normalize_away():
    assert render(parse_expr("((a) & (b))")) == render(parse_expr("a & b"))


def test_ternary_and_concat_render():
    assert render(parse_expr("s ? a : b")) == "(s ? a : b)"
    assert render(parse_expr("{a, b}")) == "{a, b}"


@pytest.mark.parametrize("text", ["a &", "(a", "a ? b", "a @ b", "",
                                  "a = b", "a[0]", "a & end", "if",
                                  "a // b", "a /* b */ & c", "a $"])
def test_malformed_expressions_raise(text):
    """HDL-only tokens, reserved words and comments have no place in a
    header."""
    with pytest.raises(ExprError):
        parse_expr(text)


def test_upper_case_base_literal_reads_as_in_hdl():
    assert render(parse_expr("a == 8'HFF")) == "(a == 8'd255)"


def test_identifiers_collects_all_names():
    assert identifiers(parse_expr("(a & b) | (!c)")) == {"a", "b", "c"}


def test_evaluate_bitwise_and_logical():
    env = {"a": bv(1, 1), "b": bv(1, 0)}
    assert evaluate(parse_expr("a & b"), env) == bv(1, 0)
    assert evaluate(parse_expr("a | b"), env) == bv(1, 1)
    assert evaluate(parse_expr("a && 5"), env) == bv(1, 1)
    assert evaluate(parse_expr("!a"), env) == bv(1, 0)


def test_evaluate_comparisons_are_one_bit():
    env = {"c": bv(4, 9)}
    assert evaluate(parse_expr("c <= 10"), env) == bv(1, 1)
    assert evaluate(parse_expr("c == 4'd9"), env) == bv(1, 1)
    assert evaluate(parse_expr("c != 9"), env) == bv(1, 0)


def test_evaluate_invert_masks_to_width():
    assert evaluate(parse_expr("~a"), {"a": bv(3, 5)}) == bv(3, 2)


def test_bitwise_width_mismatch_rejected():
    env = {"a": bv(2, 1), "b": bv(3, 1)}
    with pytest.raises(ExprError):
        evaluate(parse_expr("a & b"), env)


def test_bare_decimal_adopts_operand_width():
    assert evaluate(parse_expr("a & 1"), {"a": bv(3, 5)}) == bv(3, 1)


def test_unbound_identifier_raises():
    with pytest.raises(ExprError):
        evaluate(parse_expr("missing"), {})


def test_truth_collapses_to_bit():
    assert truth(parse_expr("c"), {"c": bv(4, 12)}) == 1
    assert truth(parse_expr("c"), {"c": bv(4, 0)}) == 0


@given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
def test_demorgan_holds(a, b, c):
    env = {"a": bv(1, a), "b": bv(1, b), "c": bv(1, c)}
    lhs = truth(parse_expr("!(a && b)"), env)
    rhs = truth(parse_expr("!a || !b"), env)
    assert lhs == rhs


@given(st.text(alphabet="ab&|^!~()01 ", min_size=1, max_size=24))
def test_parse_render_parse_is_stable(text):
    try:
        tree = parse_expr(text)
    except ExprError:
        return
    rendered = render(tree)
    assert render(parse_expr(rendered)) == rendered
