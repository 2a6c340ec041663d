import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from lctkit import analysis, equiv, sim, tableio
from lctkit.model import (
    BitVector,
    CaseRow,
    Constant,
    Direction,
    Port,
    PortMap,
)
from .util import (
    SEEDS,
    TABLES,
    UNVALIDATED,
    clocked_dont_care_lct,
    load_fixture,
    mutate_output,
    permute_columns,
    random_disjoint_lct,
    random_lct,
    reference_align,
    rename_table,
)


def test_identical_tables_are_textually_identical():
    table = load_fixture("mux4")
    result = equiv.compare(table, table)
    assert result.verdict is equiv.Verdict.TEXTUALLY_IDENTICAL
    assert result.verdict.equivalent


# --- the five benign normalizations -----------------------------------------

def test_row_permutation_is_equivalent():
    table = load_fixture("fsm4")
    rows = table.rows[:2] + tuple(reversed(table.rows[2:]))
    perm = dataclasses.replace(table, rows=rows)
    assert equiv.compare(table, perm).verdict.equivalent


def test_column_permutation_is_equivalent():
    table = load_fixture("regmux2")
    perm = dataclasses.replace(
        table,
        conditions=tuple(reversed(table.conditions)),
        results=tuple(reversed(table.results)),
        rows=tuple(CaseRow(tuple(reversed(r.inputs)),
                           tuple(reversed(r.outputs)),
                           label=r.label, comment=r.comment)
                   for r in table.rows))
    assert equiv.compare(table, perm).verdict.equivalent


def test_dont_care_expansion_is_equivalent():
    table = load_fixture("mux4")
    expanded = analysis.expand_dont_cares(table)
    result = equiv.compare(table, expanded)
    assert result.verdict.equivalent


def test_compare_builds_each_tables_bitsets_once(monkeypatch):
    """The joint walk stacks the bitsets the canonical forms used."""
    table = load_fixture("mux4")
    expanded = analysis.expand_dont_cares(table)
    built = []
    column_bitsets = sim.column_bitsets

    def counted(t, rows=None):
        built.append(t)
        return column_bitsets(t, rows)
    monkeypatch.setattr(sim, "column_bitsets", counted)
    result = equiv.compare(table, expanded)
    assert result.verdict is equiv.Verdict.EQUIVALENT
    assert built == [table, expanded]


@settings(max_examples=200, deadline=None)
@given(st.one_of(TABLES, UNVALIDATED), st.integers(0, 10 ** 6))
def test_stacked_bitsets_are_those_of_the_joined_rows(table, cut):
    cut %= len(table.rows) + 1
    low, high = table.rows[:cut], table.rows[cut:]
    assert sim.stack_bitsets(sim.column_bitsets(table, low),
                             sim.column_bitsets(table, high), cut) == \
        sim.column_bitsets(table, table.rows)


def test_literal_style_is_equivalent():
    table = load_fixture("mux4")
    manifest, csv = tableio.serialize_unit(table)
    styled = csv.replace("1,0,data0", "1,2'b00,data0") \
                .replace("1,3,data3", "1,2'd3,data3")
    assert styled != csv
    restyled = tableio.parse_unit(manifest, styled)
    assert equiv.compare(table, restyled).verdict.equivalent


def test_shadowed_extra_row_is_equivalent():
    table = load_fixture("mux4")
    shadowed = table.rows + (CaseRow(
        (Constant(BitVector(1, 0)), Constant(BitVector(2, 3))),
        (Constant(BitVector(8, 0xFF)),)),)
    padded = dataclasses.replace(table, rows=shadowed)
    assert equiv.compare(table, padded).verdict.equivalent


@pytest.mark.parametrize("normalization", [
    "row-permutation", "column-permutation", "dont-care-expansion",
    "literal-style", "shadowed-extra-row"])
def test_normalizations_hold_on_random_tables(normalization):
    rng = random.Random(hash(normalization) & 0xFFFF)
    for seed in range(100):
        table = random_disjoint_lct(seed)
        if normalization == "row-permutation":
            rows = list(table.rows)
            rng.shuffle(rows)
            other = dataclasses.replace(table, rows=tuple(rows))
        elif normalization == "column-permutation":
            order = list(range(len(table.conditions)))
            rng.shuffle(order)
            other = dataclasses.replace(
                table,
                conditions=tuple(table.conditions[i] for i in order),
                rows=tuple(CaseRow(tuple(r.inputs[i] for i in order),
                                   r.outputs) for r in table.rows))
        elif normalization == "dont-care-expansion":
            source = random_lct(seed, clocked=False)
            other = analysis.expand_dont_cares(source)
            assert equiv.compare(source, other).verdict.equivalent, seed
            continue
        elif normalization == "literal-style":
            manifest, csv = tableio.serialize_unit(table)
            width = table.ports.get(table.results[-1]).width
            styled = "\n".join(
                line if i == 0 else _restyle(line, width)
                for i, line in enumerate(csv.splitlines()))
            other = tableio.parse_unit(manifest, styled + "\n")
        else:
            extra = table.rows[rng.randrange(len(table.rows))]
            other = dataclasses.replace(
                table, rows=table.rows + (extra,))
        assert equiv.compare(table, other).verdict.equivalent, seed


def _restyle(line, width):
    cells = line.split(",")
    last = cells[-1]
    if last.isdigit():
        cells[-1] = f"{width}'d{int(last)}"
    return ",".join(cells)


# --- differences that must be caught ----------------------------------------

def test_mutation_produces_counterexample():
    rng = random.Random(0)
    table = random_disjoint_lct(3)
    mutated, row, column = mutate_output(table, rng)
    result = equiv.compare(table, mutated)
    assert result.verdict is equiv.Verdict.NOT_EQUIVALENT
    assert result.counterexample is not None
    assert result.counterexample.output == column


def test_counterexample_replays_on_both_tables():
    from lctkit import sim
    rng = random.Random(7)
    for seed in range(20):
        table = random_disjoint_lct(seed)
        mutated, _, _ = mutate_output(table, rng)
        cx = equiv.compare(table, mutated).counterexample
        assignment = tuple(cx.assignment[h.key] for h in table.conditions)
        va = sim.symbolic_outputs(table, assignment)
        vb = sim.symbolic_outputs(mutated, assignment)
        idx = table.results.index(cx.output)
        assert str(va[idx]) == cx.value_a
        assert str(vb[idx]) == cx.value_b
        assert va[idx] != vb[idx]


def test_clocking_mismatch_is_an_error():
    with pytest.raises(equiv.CompareError):
        equiv.compare(load_fixture("mux4"), load_fixture("regmux2"))


def test_enum_limit_respected():
    table = load_fixture("mux4")
    other = dataclasses.replace(table, rows=tuple(reversed(table.rows)))
    with pytest.raises(equiv.CompareError):
        equiv.compare(table, other, enum_limit=2)


# --- alignment ---------------------------------------------------------------

def _renamed_regmux2():
    table = load_fixture("regmux2")
    renames = {"rst_n": "RESETN", "data_out": "DOUT"}
    return rename_table(table, renames), renames


def test_alias_alignment():
    table = load_fixture("regmux2")
    renamed, renames = _renamed_regmux2()
    aliases = {orig: new for orig, new in renames.items()}
    result = equiv.compare(table, renamed, aliases=aliases)
    assert result.verdict.equivalent
    assert "alias-renaming" in result.normalizations


def test_case_fold_alignment_without_aliases():
    table = load_fixture("regmux2")
    folded = rename_table(table, {"rst_n": "RST_N"})
    assert equiv.compare(table, folded).verdict.equivalent


def test_unmatched_port_raises_align_error():
    table = load_fixture("regmux2")
    renamed, _ = _renamed_regmux2()
    with pytest.raises(equiv.AlignError):
        equiv.align(table, renamed)


def test_width_mismatch_raises_align_error():
    table = load_fixture("mux4")
    bad_ports = PortMap(tuple(
        Port(p.direction, p.name, p.width if p.name != "data_out" else 4)
        for p in table.ports.entries))
    other = dataclasses.replace(table, ports=bad_ports, rows=())
    with pytest.raises(equiv.AlignError):
        equiv.align(table, other)


def test_alias_that_pairs_no_ports_is_not_a_normalization():
    table = load_fixture("mux4")
    for aliases in ({"select_typo": "nope"}, {"select": "select"}):
        result = equiv.compare(table, table, aliases=aliases)
        assert result.verdict is equiv.Verdict.TEXTUALLY_IDENTICAL
        assert result.normalizations == ["canonicalization"]


def _align_variant(table, kind, rng):
    """A second table for ``align(table, b, aliases)``, and the aliases.
    Renamed ports also rename the identifiers of expression headers."""
    names = [p.name for p in table.ports.entries]
    if kind == "same":
        return table, None
    if kind == "permute":
        return permute_columns(table, rng), None
    if kind == "fold":
        renames = {n: n.upper() for n in names if rng.random() < 0.7}
        return permute_columns(rename_table(table, renames), rng), None
    if kind == "alias":
        renames = {n: f"{n}_b" for n in names if rng.random() < 0.7}
        other = rename_table(table, renames)
        return (permute_columns(other, rng) if rng.random() < 0.5 else other,
                renames)
    # A result column missing from b, an alias map that leaves one
    # renamed port unpaired, or one that is not bijective: align raises.
    if rng.random() < 0.3:
        rows = tuple(dataclasses.replace(row, outputs=row.outputs[1:])
                     for row in table.rows)
        return dataclasses.replace(table, results=table.results[1:],
                                   rows=rows), None
    name = rng.choice(names)
    renames = {n: f"{n}_b" for n in names}
    aliases = {n: renames[n] for n in names if n != name}
    if rng.random() < 0.5:
        aliases[name] = aliases.get(names[0], renames[names[-1]])
    return rename_table(table, renames), aliases


@settings(max_examples=200, deadline=None)
@given(TABLES, st.sampled_from(["same", "permute", "fold", "alias",
                                      "broken"]), SEEDS)
def test_align_matches_reference(table, kind, seed):
    other, aliases = _align_variant(table, kind, random.Random(seed))
    try:
        expected = reference_align(table, other, aliases)[1]
    except equiv.AlignError as e:
        with pytest.raises(equiv.AlignError) as raised:
            equiv.align(table, other, aliases)
        assert str(raised.value) == str(e)
        return
    a, aligned = equiv.align(table, other, aliases)
    assert a is table
    assert aligned == expected
    if kind == "same":
        assert aligned is other


def test_parse_aliases_grammar():
    aliases = equiv.parse_aliases("a = b\n# comment\nc=d\n")
    assert aliases == {"a": "b", "c": "d"}
    with pytest.raises(equiv.AlignError):
        equiv.parse_aliases("just words\n")


def test_transitivity_on_complete_tables():
    for seed in range(10):
        a = random_disjoint_lct(seed)
        rows = list(a.rows)
        random.Random(seed).shuffle(rows)
        b = dataclasses.replace(a, rows=tuple(rows))
        c = analysis.expand_dont_cares(b)
        assert equiv.compare(a, b).verdict.equivalent
        assert equiv.compare(b, c).verdict.equivalent
        assert equiv.compare(a, c).verdict.equivalent


def test_clocked_dont_care_output_is_a_hold_not_a_free_choice():
    """A clocked don't-care output holds, as the canonical form spells
    it, so a constant in its place is a difference."""
    table = clocked_dont_care_lct()
    rows = (table.rows[0],
            CaseRow(table.rows[1].inputs, (Constant(BitVector(2, 2)),)))
    result = equiv.compare(table, dataclasses.replace(table, rows=rows))
    assert result.verdict is equiv.Verdict.NOT_EQUIVALENT
    assert str(result.counterexample) == "at c=1: r = <hold> vs 2"
