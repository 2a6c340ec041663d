"""The match-set walk behind canonicalization, the coverage checks and
`equiv.compare`, checked against the row-by-row reference in
`tests.util`, which scans rows with `sim.first_match` and compares with
`sim.symbolic_outputs` at every control assignment."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from lctkit import analysis, equiv, sim
from lctkit.model import (BitVector, CaseRow, Clocking, Constant, DONT_CARE,
                          DontCare, Direction, Lct, Port, PortMap,
                          SignalHeader, SignalRef)
from . import util
from .util import DRESSED, SEEDS, TABLES, UNVALIDATED

# The generators' tables, and the same tables with rows canonicalization
# must rebuild (labels, comments, columns out of key order, clocked
# don't-care outputs, 2'd1 in expression columns) or with signals in
# input cells.  The tests that draw from it run three times the examples
# they ran on the generators' tables alone.
ALL_TABLES = st.one_of(TABLES, DRESSED, UNVALIDATED)


def test_walk_yields_every_matching_row_in_enumeration_order():
    table = util.random_lct(7)
    walked = list(analysis.match_sets(table))
    assert [a for a, _ in walked] == list(sim.enumerate_assignments(table))
    for assignment, m in walked:
        assert m == sum(1 << i for i, row in enumerate(table.rows)
                        if util.row_matches(row, assignment))
        first = sim.first_match(table, assignment)
        assert sim.first_row(m) == (-1 if first is None else first)


@settings(max_examples=360)
@given(ALL_TABLES)
def test_checks_match_reference(table):
    report = analysis.check_coverage(table)
    assert report.uncovered == util.reference_uncovered(table)
    assert report.shadowed_rows == util.reference_shadowed(table)
    assert report.conflicts == util.reference_conflicts(table)


def _labelled(table, seed):
    """``table`` with some rows labelled or commented, and its columns
    shuffled in about half the draws."""
    rng = random.Random(seed)
    rows = tuple(dataclasses.replace(
        row, label=f"case{i}" if rng.random() < 0.2 else row.label,
        comment=f"row {i}" if rng.random() < 0.2 else row.comment)
        for i, row in enumerate(table.rows))
    table = dataclasses.replace(table, rows=rows)
    return util.permute_columns(table, rng) if rng.random() < 0.5 else table


def _needs_no_change(table, row) -> bool:
    """Whether canonicalization keeps ``row`` of ``table`` as it is."""
    keys = [h.key for h in table.conditions]
    return keys == sorted(keys) and \
        list(table.results) == sorted(table.results) and \
        row.label is None and row.comment is None and not (
            table.clocking is Clocking.CLOCKED
            and any(type(cell) is DontCare for cell in row.outputs))


@settings(max_examples=360)
@given(st.one_of(ALL_TABLES, st.builds(_labelled, ALL_TABLES, SEEDS)))
def test_pruning_and_canonical_form_match_reference(table):
    canonical = analysis.canonicalize(table)
    assert util.canonical_text(canonical) == \
        util.canonical_text(util.reference_canonicalize(table))
    keep, _ = analysis._prune(table, analysis.DEFAULT_ENUM_LIMIT)
    kept = [row for i, row in enumerate(table.rows) if keep >> i & 1]
    # A kept row is the table's own object exactly when it needs no
    # change; every other canonical row is new.
    assert {id(row) for row in canonical.rows} & \
        {id(row) for row in table.rows} == \
        {id(row) for row in kept if _needs_no_change(table, row)}

    table = util.hold_spelling(table)
    shadowed = set(util.reference_shadowed(table))
    pruned = [i for i in range(len(table.rows)) if i not in shadowed]
    dropped = set()
    if table.clocking is Clocking.CLOCKED:
        dropped = {pruned[j] for j in util.reference_droppable_hold_rows(
            dataclasses.replace(table,
                                rows=tuple(table.rows[i] for i in pruned)))}
    keep, _ = analysis._prune(table, analysis.DEFAULT_ENUM_LIMIT)
    assert [i for i in range(len(table.rows)) if keep >> i & 1] == \
        [i for i in pruned if i not in dropped]


@settings(max_examples=200)
@given(ALL_TABLES)
def test_canonical_form_keeps_its_row_codes(table):
    """The codes canonicalization computes once per kept row are those
    of the canonical rows, kept on the new table it returns; neither the
    input table nor a ``dataclasses.replace``d copy carries them."""
    canonical = analysis.canonicalize(table)
    assert canonical.__dict__["_row_codes"] == tuple(
        (analysis.cell_codes(row.inputs), analysis.cell_codes(row.outputs))
        for row in canonical.rows)
    assert "_row_codes" not in table.__dict__
    assert "_row_codes" not in dataclasses.replace(canonical).__dict__


def test_rows_that_need_no_change_are_kept_as_they_are():
    """A kept row whose columns are in key order and that has no label,
    no comment and no clocked don't-care output is the table's own row
    object; every other kept row is built anew."""
    plain = util.random_disjoint_lct(3)
    assert [h.key for h in plain.conditions] == \
        sorted(h.key for h in plain.conditions)
    canonical = analysis.canonicalize(plain)
    assert {id(row) for row in canonical.rows} == \
        {id(row) for row in plain.rows}

    def const(width, value):
        return Constant(BitVector(width, value))
    rows = (CaseRow((const(1, 0), const(1, 0)), (const(2, 1), DONT_CARE)),
            CaseRow((const(1, 0), const(1, 1)), (const(2, 2), const(1, 1)),
                    label="load"),
            CaseRow((const(1, 1), const(1, 0)), (const(2, 0), const(1, 0))),
            CaseRow((const(1, 1), const(1, 1)), (SignalRef("p"),
                                                 const(1, 1)),
                    comment="hold p"),
            CaseRow((DONT_CARE, DONT_CARE), (const(2, 3), const(1, 0))))
    table = Lct(name="t", clocking=Clocking.CLOCKED,
                conditions=(SignalHeader("a"), SignalHeader("b")),
                results=("p", "q"), rows=rows,
                ports=PortMap((Port(Direction.INPUT, "a", 1),
                               Port(Direction.INPUT, "b", 1),
                               Port(Direction.OUTPUT, "p", 2),
                               Port(Direction.OUTPUT, "q", 1))))
    canonical = analysis.canonicalize(table)
    # The don't-care is spelled as a hold, the label and comment go, the
    # shadowed last row goes, and only the plain third row is kept as is.
    assert [row.outputs for row in canonical.rows] == \
        [(const(2, 1), SignalRef("q"))] + [row.outputs for row in rows[1:4]]
    assert [row is old for row, old in zip(canonical.rows, rows)] == \
        [False, False, True, False]
    assert all(row.label is None and row.comment is None
               for row in canonical.rows)
    # With its columns out of key order, every row is built anew.
    swapped = util.permute_columns(table, random.Random(0))
    assert swapped.conditions != table.conditions
    assert not any(row is old for row in analysis.canonicalize(swapped).rows
                   for old in swapped.rows)


def _variant(table, kind, rng):
    if kind == "mutate":
        try:
            return util.mutate_output(table, rng)[0]
        except ValueError:
            return None
    if kind == "reverse":
        return dataclasses.replace(table, rows=table.rows[::-1])
    if kind == "expand":
        return analysis.expand_dont_cares(table)
    if kind == "dress":
        return util.dressed_lct(table, rng.randrange(1 << 30))
    rows = list(table.rows)
    i = rng.randrange(len(rows))
    if kind == "drop":
        del rows[i]
        return dataclasses.replace(table, rows=tuple(rows))
    # Rewrite one output cell as a don't-care, a hold (when clocked), or
    # a pass-through of a condition signal as wide as the result.
    j = rng.randrange(len(table.results))
    name = table.results[j]
    choices = [DONT_CARE] + [SignalRef(name)] * (
        table.clocking is Clocking.CLOCKED) + [
        SignalRef(h.name) for h in table.conditions
        if isinstance(h, SignalHeader)
        and table.condition_width(h) == table.result_width(name)]
    outputs = list(rows[i].outputs)
    outputs[j] = rng.choice(choices)
    rows[i] = dataclasses.replace(rows[i], outputs=tuple(outputs))
    return dataclasses.replace(table, rows=tuple(rows))


@settings(max_examples=450)
@given(ALL_TABLES, st.sampled_from(["mutate", "reverse", "expand", "drop",
                                    "rewrite", "dress"]), SEEDS)
def test_compare_matches_reference_in_both_orders(table, kind, seed):
    other = _variant(table, kind, random.Random(seed))
    assume(other is not None)
    for a, b in ((table, other), (other, table)):
        result = equiv.compare(a, b)
        assert (result.verdict, result.counterexample) == \
            util.reference_compare(a, b)


# ---------------------------------------------------------------------------
# Block boundaries.  `match_sets` multiplies the trailing columns out into
# blocks of at most `analysis._BLOCK` masks; every `TABLES` example fits in
# one block of the real size, so these shrink it until walks cross blocks.

def _reference_match_sets(table):
    return [(assignment, sum(1 << i for i, row in enumerate(table.rows)
                             if util.row_matches(row, assignment)))
            for assignment in sim.enumerate_assignments(table)]


def _reference_kept_rows(table):
    shadowed = set(util.reference_shadowed(table))
    pruned = [i for i in range(len(table.rows)) if i not in shadowed]
    dropped = set()
    if table.clocking is Clocking.CLOCKED:
        dropped = {pruned[j] for j in util.reference_droppable_hold_rows(
            dataclasses.replace(table,
                                rows=tuple(table.rows[i] for i in pruned)))}
    return [i for i in pruned if i not in dropped]


@pytest.mark.parametrize("block", [1, 2, 3, 16])
@settings(max_examples=40)
@given(TABLES, st.sampled_from(["mutate", "reverse", "expand", "drop",
                                "rewrite"]), SEEDS)
def test_small_blocks_match_reference(block, table, kind, seed):
    other = _variant(table, kind, random.Random(seed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_BLOCK", block)
        assert list(analysis.match_sets(table)) == \
            _reference_match_sets(table)
        report = analysis.check_coverage(table)
        assert report.uncovered == util.reference_uncovered(table)
        assert report.shadowed_rows == util.reference_shadowed(table)
        assert report.conflicts == util.reference_conflicts(table)
        spelled = util.hold_spelling(table)
        keep, _ = analysis._prune(spelled, analysis.DEFAULT_ENUM_LIMIT)
        assert [i for i in range(len(spelled.rows)) if keep >> i & 1] == \
            _reference_kept_rows(spelled)
        if other is not None:
            for a, b in ((table, other), (other, table)):
                result = equiv.compare(a, b)
                assert (result.verdict, result.counterexample) == \
                    util.reference_compare(a, b)


# How many of a block's assignments a consumer reads.
READS = {"none": lambda size: 0, "one": lambda size: 1,
         "half": lambda size: size // 2, "all": lambda size: size}


@pytest.mark.parametrize("reads", sorted(READS))
@pytest.mark.parametrize("block", [1, 2, 3, 16])
@settings(max_examples=25)
@given(TABLES)
def test_blocks_stay_aligned_whatever_the_consumer_reads(block, reads,
                                                         table):
    """A consumer may read none, some or all of a block's assignments:
    the next block's first assignment is still its own."""
    reference = _reference_match_sets(table)
    start = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_BLOCK", block)
        for assignments, masks in analysis.match_blocks(table):
            size = len(masks)
            assert list(masks) == \
                [m for _, m in reference[start:start + size]]
            read = READS[reads](size)
            assert list(itertools.islice(assignments, read)) == \
                [a for a, _ in reference[start:start + read]]
            start += size
    assert start == len(reference)


@st.composite
def _pass_through_pairs(draw):
    """Two tables that differ in one output cell: the first passes its
    last condition signal ``d`` through, the second holds 0 there.  No
    row pins ``d``, so the points of one match set that differ only in
    ``d`` are neighbours in one block: the oracle agrees at ``d = 0`` and
    disagrees at the next point, of the same set."""
    widths = draw(st.lists(st.integers(1, 3), min_size=0, max_size=2))
    width = draw(st.integers(1, 3))
    names = [f"c{i}" for i in range(len(widths))]

    def const(w, value):
        return Constant(BitVector(w, value))

    def row():
        inputs = tuple(draw(st.one_of(st.just(DONT_CARE), st.builds(
            const, st.just(w), st.integers(0, (1 << w) - 1))))
            for w in widths) + (DONT_CARE,)
        return CaseRow(inputs, (const(width, draw(
            st.integers(0, (1 << width) - 1))),))
    rows = draw(st.lists(st.builds(row), min_size=1, max_size=5))
    index = draw(st.integers(0, len(rows) - 1))
    ports = tuple(Port(Direction.INPUT, name, w)
                  for name, w in zip(names, widths)) + (
        Port(Direction.INPUT, "d", width),
        Port(Direction.OUTPUT, "y", width))

    def table(name, cell):
        cells = list(rows)
        cells[index] = dataclasses.replace(rows[index], outputs=(cell,))
        return Lct(name=name, clocking=Clocking.COMBINATIONAL,
                   conditions=tuple(map(SignalHeader, names + ["d"])),
                   results=("y",), rows=tuple(cells), ports=PortMap(ports))
    return table("through", SignalRef("d")), table("zero", const(width, 0))


@pytest.mark.parametrize("block", [1, 2, 3, 16])
@settings(max_examples=60)
@given(_pass_through_pairs())
def test_oracle_finds_the_first_counterexample_within_a_set(block, pair):
    """A joint match set whose row pair needs the oracle is checked at
    each of its points, in order: agreeing at one point of the set does
    not decide the next."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_BLOCK", block)
        for a, b in (pair, pair[::-1]):
            result = equiv.compare(a, b)
            assert (result.verdict, result.counterexample) == \
                util.reference_compare(a, b)


def test_a_column_wider_than_a_block_is_its_own_block():
    width = 13
    assert 1 << width > analysis._BLOCK
    table = Lct(
        name="wide", clocking=Clocking.COMBINATIONAL,
        conditions=(SignalHeader("sel"),), results=("y",),
        rows=tuple(CaseRow((Constant(BitVector(width, value)),),
                           (Constant(BitVector(1, value & 1)),))
                   for value in (5, 4095, 4096, 8000, 4096)),
        ports=PortMap((Port(Direction.INPUT, "sel", width),
                       Port(Direction.OUTPUT, "y", 1))))
    assert list(analysis.match_sets(table)) == \
        _reference_match_sets(table)
    report = analysis.check_coverage(table)
    assert report.uncovered == util.reference_uncovered(table)
    assert report.shadowed_rows == [4]


def test_counterexample_past_the_first_block():
    table = analysis.generate_fsm(16, 9, 2, seed=5)
    # Dropping the first transition row leaves rst_n=1 state=0 cond0=1
    # unmatched, half-way through the space.
    faulted = dataclasses.replace(table, rows=table.rows[:2] + table.rows[3:])
    assert sim.control_space_size(table) == 1 << 14
    result = equiv.compare(table, faulted)
    assert result.verdict is equiv.Verdict.NOT_EQUIVALENT
    assignment = tuple(result.counterexample.assignment.values())
    index = list(sim.enumerate_assignments(table)).index(assignment)
    assert index >= analysis._BLOCK
    assert (result.verdict, result.counterexample) == \
        util.reference_compare(table, faulted)
