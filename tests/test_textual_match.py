"""`equiv.textual_match` compares a structural key of two canonical
forms.  It must agree with serializing both canonical forms and
comparing the text (`tests.util.reference_textual_match`)."""

import dataclasses
import random

from hypothesis import given, settings, strategies as st

from lctkit import analysis, equiv
from lctkit.model import (
    BitVector,
    CaseRow,
    Clocking,
    Constant,
    DONT_CARE,
    Direction,
    ExprHeader,
    Lct,
    Port,
    PortMap,
    SignalRef,
    validate_lct,
)
from . import util

SEEDS = st.integers(0, 10 ** 6)

TABLES = st.one_of(
    SEEDS.map(util.random_lct),
    st.builds(util.random_disjoint_lct, SEEDS, st.booleans()),
    SEEDS.map(util.random_passthrough_lct),
    st.builds(analysis.generate_fsm, st.sampled_from([2, 4, 8]),
              st.integers(1, 3), st.integers(0, 2), SEEDS),
    util.DRESSED,
)

VARIANTS = ["rows", "columns", "duplicate", "expand", "cell", "rename",
            "dress"]


def _permute_columns(table, rng):
    cond = list(range(len(table.conditions)))
    res = list(range(len(table.results)))
    rng.shuffle(cond)
    rng.shuffle(res)
    return dataclasses.replace(
        table,
        conditions=tuple(table.conditions[i] for i in cond),
        results=tuple(table.results[i] for i in res),
        rows=tuple(CaseRow(tuple(r.inputs[i] for i in cond),
                           tuple(r.outputs[i] for i in res))
                   for r in table.rows))


def _cell_choices(table, row, column):
    """Every other value the cell may take in a valid table."""
    n_cond = len(table.conditions)
    if column < n_cond:
        header = table.conditions[column]
        width = table.condition_width(header)
        choices = [DONT_CARE] + [Constant(BitVector(width, v))
                                 for v in range(1 << width)]
        current = row.inputs[column]
    else:
        name = table.results[column - n_cond]
        width = table.result_width(name)
        choices = [DONT_CARE] + [Constant(BitVector(width, v))
                                 for v in range(min(1 << width, 4))]
        if table.clocking is Clocking.CLOCKED:
            choices.append(SignalRef(name))
        choices += [SignalRef(p.name) for p in table.ports.inputs()
                    if p.width == width]
        current = row.outputs[column - n_cond]
    return [c for c in choices if c != current]


def _mutate_cell(table, rng):
    rows = list(table.rows)
    i = rng.randrange(len(rows))
    column = rng.randrange(len(table.conditions) + len(table.results))
    cell = rng.choice(_cell_choices(table, rows[i], column))
    cells = list(rows[i].inputs + rows[i].outputs)
    cells[column] = cell
    n_cond = len(table.conditions)
    rows[i] = CaseRow(tuple(cells[:n_cond]), tuple(cells[n_cond:]))
    return dataclasses.replace(table, rows=tuple(rows))


def _variant(table, kind, rng):
    rows = list(table.rows)
    if kind == "rows":
        rng.shuffle(rows)
        return dataclasses.replace(table, rows=tuple(rows))
    if kind == "columns":
        return _permute_columns(table, rng)
    if kind == "duplicate":
        i = rng.randrange(len(rows))
        rows.insert(rng.randrange(len(rows) + 1), rows[i])
        return dataclasses.replace(table, rows=tuple(rows))
    if kind == "expand":
        return analysis.expand_dont_cares(table)
    if kind == "cell":
        return _mutate_cell(table, rng)
    if kind == "dress":
        return util.dressed_lct(table, rng.randrange(1 << 30))
    return dataclasses.replace(table, name=f"{table.name}_renamed")


@settings(max_examples=400)
@given(TABLES, st.sampled_from(VARIANTS), SEEDS)
def test_textual_match_agrees_with_text_comparison(table, kind, seed):
    other = _variant(table, kind, random.Random(seed))
    assert validate_lct(other) == []
    for a, b in ((table, other), (other, table), (table, table)):
        assert equiv.textual_match(a, b) == util.reference_textual_match(a, b)


@settings(max_examples=150)
@given(util.UNVALIDATED, st.sampled_from(["rows", "columns", "duplicate",
                                          "rename"]), SEEDS)
def test_textual_match_agrees_on_signals_in_input_cells(table, kind, seed):
    other = _variant(table, kind, random.Random(seed))
    for a, b in ((table, other), (other, table), (table, table)):
        assert equiv.textual_match(a, b) == util.reference_textual_match(a, b)


def _expr_table(cell_width: int) -> Lct:
    ports = PortMap((Port(Direction.INPUT, "ea", 1),
                     Port(Direction.INPUT, "eb", 1),
                     Port(Direction.OUTPUT, "q", 2)))
    rows = tuple(
        CaseRow((Constant(BitVector(cell_width, v)),),
                (Constant(BitVector(2, v + 1)),))
        for v in (1, 0))
    return Lct(name="expr", clocking=Clocking.COMBINATIONAL,
               conditions=(ExprHeader("ea & eb"),), results=("q",),
               rows=rows, ports=ports)


def test_expression_constants_compare_by_value_not_width():
    narrow, wide = _expr_table(1), _expr_table(2)
    assert validate_lct(wide) == []
    assert narrow != wide
    assert equiv.textual_match(narrow, wide)
    assert util.reference_textual_match(narrow, wide)


def test_tables_that_differ_only_in_name_match():
    table = util.load_fixture("regmux2")
    renamed = dataclasses.replace(table, name="other")
    assert equiv.textual_match(table, renamed)
    assert util.reference_textual_match(table, renamed)
    assert equiv.compare(table, renamed).verdict is \
        equiv.Verdict.TEXTUALLY_IDENTICAL
