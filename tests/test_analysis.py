import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from lctkit import analysis, equiv, sim
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
    validate_lct,
)
from .util import (
    TABLES,
    clocked_dont_care_lct,
    load_fixture,
    random_disjoint_lct,
)

BV = BitVector


def test_fsm4_uncovered_is_exactly_both_conds_high():
    """The FSM fixture misses exactly the four assignments with
    rst_n=1, cond0=1, cond1=1 (one per state value)."""
    report = analysis.check_coverage(load_fixture("fsm4"))
    assert len(report.uncovered) == 4
    for assignment in report.uncovered:
        assert assignment["rst_n"] == 1
        assert assignment["cond0"] == 1
        assert assignment["cond1"] == 1
    assert sorted(a["state"] for a in report.uncovered) == [0, 1, 2, 3]


def test_mux4_and_regmux2_are_complete():
    assert analysis.check_coverage(load_fixture("mux4")).uncovered == []
    assert analysis.check_coverage(load_fixture("regmux2")).uncovered == []


def _tiny(rows, clocking=Clocking.COMBINATIONAL):
    ports = PortMap((Port(Direction.INPUT, "a", 1),
                     Port(Direction.INPUT, "b", 1),
                     Port(Direction.OUTPUT, "q", 1)))
    return Lct(name="tiny", clocking=clocking,
               conditions=(SignalHeader("a"), SignalHeader("b")),
               results=("q",), rows=tuple(rows), ports=ports)


def _row(a, b, q):
    def cell(v, width=1):
        return DONT_CARE if v is None else Constant(BV(width, v))
    return CaseRow((cell(a), cell(b)), (cell(q),))


def test_shadowed_row_detected():
    table = _tiny([_row(None, None, 0), _row(1, 1, 1)])
    report = analysis.check_coverage(table)
    assert report.shadowed_rows == [1]


def test_overlap_with_differing_outputs_is_a_conflict():
    table = _tiny([_row(1, None, 0), _row(None, 1, 1)])
    report = analysis.check_coverage(table)
    assert [(i, j) for i, j, _ in report.conflicts] == [(0, 1)]
    assert report.conflicts[0][2] == {"a": 1, "b": 1}


def test_overlap_with_same_outputs_is_not_a_conflict():
    table = _tiny([_row(1, None, 1), _row(None, 1, 1)])
    assert analysis.check_coverage(table).conflicts == []


def test_missing_reset_row_warned_for_clocked_tables():
    ports = PortMap((Port(Direction.INPUT, "rst_n", 1),
                     Port(Direction.OUTPUT, "q", 1)))
    table = Lct(name="t", clocking=Clocking.CLOCKED,
                conditions=(SignalHeader("rst_n"),), results=("q",),
                rows=(CaseRow((DONT_CARE,), (Constant(BV(1, 0)),)),),
                ports=ports)
    report = analysis.check_coverage(table)
    assert any("reset" in w for w in report.warnings)
    assert not analysis.check_coverage(load_fixture("regmux2")).warnings


def test_enum_limit_enforced():
    with pytest.raises(analysis.EnumLimitError):
        analysis.check_coverage(load_fixture("fsm4"), enum_limit=4)


def test_expand_dont_cares_preserves_semantics():
    table = load_fixture("mux4")
    expanded = analysis.expand_dont_cares(table)
    assert all(not isinstance(c, type(DONT_CARE))
               for row in expanded.rows for c in row.inputs)
    assert len(expanded.rows) == 4 + 4
    assert equiv.compare(table, expanded).verdict.equivalent


def test_expand_dont_cares_selected_columns_only():
    table = load_fixture("fsm4")
    expanded = analysis.expand_dont_cares(table, columns=["state"])
    assert len(expanded.rows) == 4 + 4 + 8  # rows 0,1 expand over state
    assert equiv.compare(table, expanded).verdict.equivalent


def test_expand_unknown_column_rejected():
    with pytest.raises(LctError):
        analysis.expand_dont_cares(load_fixture("mux4"), columns=["nope"])


def test_expand_dont_cares_enforces_its_limit():
    """mux4's first row alone expands to 4 rows, past a limit of 2."""
    with pytest.raises(analysis.EnumLimitError,
                       match="expansion exceeds 2 rows"):
        analysis.expand_dont_cares(load_fixture("mux4"), enum_limit=2)


@settings(max_examples=150)
@given(st.one_of(TABLES, st.just(clocked_dont_care_lct())))
def test_canonicalize_is_idempotent(table):
    once = analysis.canonicalize(table)
    assert analysis.canonicalize(once) == once


def test_canonicalize_row_permutation_invariant():
    for seed in range(25):
        table = random_disjoint_lct(seed)
        rng = random.Random(seed + 1)
        rows = list(table.rows)
        rng.shuffle(rows)
        perm = dataclasses.replace(table, rows=tuple(rows))
        assert analysis.canonicalize(perm) == analysis.canonicalize(table)


def test_canonicalize_drops_shadowed_rows():
    table = _tiny([_row(None, None, 0), _row(1, 1, 1)])
    canon = analysis.canonicalize(table)
    assert len(canon.rows) == 1


def test_canonicalize_drops_safe_hold_rows_only():
    # The hold row covers a=0 and nothing later overlaps it: droppable.
    safe = _tiny([_row(0, None, None), _row(1, None, 1)],
                 clocking=Clocking.CLOCKED)
    safe = dataclasses.replace(safe, rows=(
        CaseRow(safe.rows[0].inputs, (SignalRef("q"),)), safe.rows[1]))
    assert len(analysis.canonicalize(safe).rows) == 1

    # Here the hold row shadows a later overlapping row: it must stay.
    blocked = _tiny([_row(0, None, None), _row(None, None, 1)],
                    clocking=Clocking.CLOCKED)
    blocked = dataclasses.replace(blocked, rows=(
        CaseRow(blocked.rows[0].inputs, (SignalRef("q"),)), blocked.rows[1]))
    assert len(analysis.canonicalize(blocked).rows) == 2

    # A hold row overlapped only by a later hold row that goes, goes too
    # (a clocked don't-care output holds).
    chained = _tiny([_row(0, None, None), _row(None, None, None)],
                    clocking=Clocking.CLOCKED)
    assert analysis.canonicalize(chained).rows == ()


def test_canonicalize_rewrites_clocked_dont_care_outputs_as_holds():
    table = _tiny([_row(1, None, None)], clocking=Clocking.CLOCKED)
    canon = analysis.canonicalize(table)
    for row in canon.rows:
        assert row.outputs != (DONT_CARE,)


def test_canonicalize_strips_comments_and_feedback():
    canon = analysis.canonicalize(load_fixture("fsm4"))
    assert canon.feedback == ()
    assert all(row.comment is None and row.label is None
               for row in canon.rows)


def test_generate_fsm_matches_reference_shape():
    table = analysis.generate_fsm(4, 2, 3, seed=0)
    assert len(table.rows) == 2 + 4 * 2
    assert len(table.conditions) == 4
    assert len(table.results) == 4
    assert table.feedback == (("next_state", "state"),)
    assert validate_lct(table) == []


def test_generate_fsm_is_seeded():
    a = analysis.generate_fsm(8, 2, 4, seed=3)
    b = analysis.generate_fsm(8, 2, 4, seed=3)
    c = analysis.generate_fsm(8, 2, 4, seed=4)
    assert a == b
    assert a.rows != c.rows


def test_generate_fsm_reset_and_hold_rows():
    table = analysis.generate_fsm(4, 2, 2, seed=1)
    reset = table.rows[0]
    assert reset.outputs[0] == Constant(BV(2, 0))
    hold = table.rows[1]
    assert hold.outputs[0] == SignalRef("state")
    assert hold.outputs[1] == SignalRef("out0")


@pytest.mark.parametrize("args, message", [
    ((3, 2, 1, 0), "state count must be a power of two >= 2, got 3"),
    ((4, 0, 1, 1), "need at least one condition and outputs >= 0"),
], ids=["states", "conditions"])
def test_generate_fsm_rejects_a_bad_shape(args, message):
    with pytest.raises(LctError) as err:
        analysis.generate_fsm(*args)
    assert str(err.value) == message


def test_generate_fsm_scales_past_2000_cells():
    table = analysis.generate_fsm(32, 4, 12, seed=0)
    assert table.cell_count >= 2000
    assert sim.control_space_size(table) <= analysis.DEFAULT_ENUM_LIMIT
