"""A round trip does each step once: the deterministic inverse reuses the
arbiter's extraction of the forward HDL, an identical reconstruction
reuses the arbiter's comparison, and a table instance is validated and
rendered at most once.  Steps are counted through the module attributes
their callers look up."""

import dataclasses
import json
import os
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from lctkit import (analysis, codegen, equiv, extract, model, roundtrip as rt,
                    sim, tableio)
from lctkit.model import (BitVector, Constant, LctError, TransformDirection,
                          TransformResponse)
from .util import DRESSED, RUNGS, TABLES, UNVALIDATED, load_fixture


@pytest.fixture
def calls(monkeypatch):
    """Counts of parse_hdl, compare, canonicalize, the rules
    (validate_lct) and the renderer (_render_unit)."""
    counts = Counter()

    def count(module, attr):
        original = getattr(module, attr)

        def counted(*args, **kwargs):
            counts[attr] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, attr, counted)

    count(extract, "parse_hdl")
    count(equiv, "compare")
    count(analysis, "canonicalize")
    count(model, "validate_lct")
    count(tableio, "_render_unit")
    return counts


def _fsm():
    return analysis.generate_fsm(16, 4, 4, seed=1)


_FSM_HDL = codegen.gen_unit(_fsm())


@pytest.mark.parametrize("style", [codegen.STYLE_IF, codegen.STYLE_CASE])
def test_deterministic_round_trip_does_each_step_once(calls, style):
    backend = rt.DeterministicBackend(style)
    report = rt.run_roundtrip(_fsm(), backend, backend)
    assert report.outcome.label is rt.Label.M
    assert calls["parse_hdl"] == 1
    assert calls["compare"] == 1
    assert calls["canonicalize"] == 2
    # The unit, for the forward prompt and again for codegen and its
    # digest; the extraction, validated when built and rendered as the
    # inverse's response; and the parsed reconstruction, validated only:
    # the response is the arbiter's text, so it is `reconstructed.unit`
    # as it stands.  The worked example of the inverse prompt is built
    # once, at import.
    assert calls["validate_lct"] == 3
    assert calls["_render_unit"] == 2


@pytest.mark.parametrize("style", [codegen.STYLE_IF, codegen.STYLE_CASE])
def test_inverse_fault_is_compared_again(calls, style):
    table = _fsm()
    inverse = rt.FaultInjectingBackend(
        rt.drop_row(len(table.rows) - 1), TransformDirection.INVERSE, style)
    report = rt.run_roundtrip(table, rt.DeterministicBackend(style), inverse)
    assert report.outcome.label is rt.Label.X_INV
    assert calls["compare"] == 2
    assert calls["parse_hdl"] == 1
    # The three tables of a deterministic round trip, plus the fault
    # backend's parse of the extraction and the faulted copy, validated
    # and rendered as its response.
    assert calls["validate_lct"] == 5
    assert calls["_render_unit"] == 4


def test_inverse_request_without_arbiter_table_extracts(calls):
    table = _fsm()
    hdl_text = codegen.gen_unit(table)
    schema = rt.schema_of(table)
    request = rt.build_inverse_prompt(hdl_text, schema)
    assert request.payload.arbiter_table is None
    response = rt.DeterministicBackend().complete(request)
    assert calls["parse_hdl"] == 1
    extracted = extract.hdl_text_to_lct(hdl_text, *schema)
    assert response.text == tableio.serialize_unit_doc(extracted)


class _FixedForward:
    name = "fixed"

    def __init__(self, text):
        self.text = text

    def complete(self, request):
        return TransformResponse(self.text)


@pytest.mark.parametrize("hdl_text, error", [
    ("module fsm (\n  input wire a", "unexpected end of input (line 2, "
     "column 14)"),
    ("module m (input wire a, output reg q);\nendmodule\n",
     "module m has no processes"),
    (_FSM_HDL.replace("next_state <= 4'b0000;",
                      "next_state <= (state & state);", 1),
     "assignment to next_state is not a constant or signal "
     "(found (state & state))"),
    (_FSM_HDL.replace("next_state <= 4'b0000;", "n <= 4'b0000;", 1),
     "assignment to non-schema signal n"),
    (_FSM_HDL.replace("if ((rst_n == 1'b0))", "if ((out0 == 1'b0))", 1),
     "branch condition over non-input signal out0"),
    # A result that is an internal reg takes its width from the module's
    # nets; the table then names no output port.
    (_FSM_HDL.replace("  output reg out2,\n  output reg out3\n);",
                      "  output reg out2\n);\nreg out3;", 1),
     "reconstructed table is invalid: [unknown-port] column out3: result "
     "out3 is not an output port"),
])
def test_forward_hdl_that_does_not_extract_is_noted_twice(hdl_text, error):
    report = rt.run_roundtrip(_fsm(), _FixedForward(hdl_text),
                              rt.DeterministicBackend())
    assert report.notes == [f"arbiter: {error}",
                            f"inverse: {error}"]
    assert report.outcome.label is rt.Label.X_FW


class _ExactInverse:
    """An inverse that reproduces the extraction exactly on its own, as
    a remote backend might."""
    name = "exact"

    def complete(self, request):
        payload = request.payload
        table = extract.hdl_text_to_lct(payload.hdl_text, payload.conditions,
                                        payload.results)
        return TransformResponse(tableio.serialize_unit_doc(table))


def test_identical_reconstruction_reuses_the_arbiter_verdict(calls):
    report = rt.run_roundtrip(_fsm(), rt.DeterministicBackend(),
                              _ExactInverse())
    assert report.outcome.label is rt.Label.M
    assert calls["parse_hdl"] == 2
    assert calls["compare"] == 1


def _respell(doc, rng):
    """A unit document that reads as ``doc`` does, spelled otherwise:
    spaces and tabs around the cells and words, and blank lines."""
    manifest, separator, csv = doc.partition("\n---\n")
    lines = []
    for line in manifest.splitlines():
        lines.append(line.replace(" ", "  ") if rng.random() < 0.5 else line)
    manifest = "\n".join(lines)
    lines = []
    for line in csv.splitlines():
        if rng.random() < 0.3:
            lines.append("")
        lines.append(",".join(f" {cell}\t" if rng.random() < 0.5 else cell
                              for cell in line.split(",")))
    return manifest + separator + "\n".join(lines) + "\n"


def _with_column(doc, rng, name):
    """``doc`` with a ``Case`` column first, or a ``Comments`` column
    last, whose cells are texts, empty or (comments only) missing."""
    manifest, separator, csv = doc.partition("\n---\n")
    texts = ["", "  ", "note"] + ([None] if name == "Comments" else [])
    lines = []
    for line in csv.splitlines():
        text = rng.choice(texts) if any(lines) else name
        if line.strip() and text is not None:
            line = f"{text},{line}" if name == "Case" else f"{line},{text}"
        lines.append(line)
    return manifest + separator + "\n".join(lines) + "\n"


def _faults(table, rng):
    """``table`` with a row dropped, and with an output constant
    changed, where it has one."""
    faulted = [rt.drop_row(rng.randrange(len(table.rows)))(table)]
    cells = [(i, j, cell) for i, row in enumerate(table.rows)
             for j, cell in enumerate(row.outputs)
             if isinstance(cell, Constant)]
    if cells:
        i, j, cell = rng.choice(cells)
        width = cell.bv.width
        other = Constant(BitVector(width, (cell.bv.value + 1) % (1 << width)))
        faulted.append(rt.alter_output_cell(i, j, other)(table))
    return faulted


def _arbiter_table(table, style):
    """The arbiter's extraction of ``table``'s HDL in ``style``, or in
    the if style where the case style cannot be written."""
    try:
        hdl_text = codegen.gen_unit(table, style)
    except codegen.CodegenError:
        hdl_text = codegen.gen_unit(table, codegen.STYLE_IF)
    return extract.hdl_text_to_lct(hdl_text, *rt.schema_of(table))


@settings(max_examples=40)
@given(st.one_of(TABLES, DRESSED, RUNGS),
       st.sampled_from([codegen.STYLE_IF, codegen.STYLE_CASE]),
       st.randoms(use_true_random=False))
def test_text_check_decides_as_table_equality(table, style, rng):
    """``run_roundtrip``'s rule, that a response is the arbiter's table
    exactly when its text, or else its parsed table's text, is the
    arbiter table's, decides as ``reconstructed == arb_table``: on the
    arbiter's text, re-spelled, with a label or comment column, faulted,
    and on the original's text."""
    arb_table = _arbiter_table(table, style)
    expected = tableio.serialize_unit_doc(arb_table)
    docs = [expected, _respell(expected, rng),
            _with_column(expected, rng, "Case"),
            _with_column(_respell(expected, rng), rng, "Comments"),
            tableio.serialize_unit_doc(table)]
    for faulted in _faults(arb_table, rng):
        doc = tableio.serialize_unit_doc(faulted)
        docs += [doc, _respell(doc, rng)]
    decided = Counter()
    for doc in docs:
        reconstructed = tableio.parse_unit_doc(doc)
        text = doc if doc == expected \
            else tableio.serialize_unit_doc(reconstructed)
        same = text == expected
        assert same == (reconstructed == arb_table), doc
        decided[same] += 1
    # The arbiter's text and its re-spelling match; the extra column and
    # the faults do not.
    assert decided[True] >= 2 and decided[False] >= 3


class _RespelledInverse:
    """An inverse that answers with the arbiter's table, re-spelled."""
    name = "respelled"

    def complete(self, request):
        doc = tableio.serialize_unit_doc(request.payload.arbiter_table)
        return TransformResponse(_respell(doc, random.Random(7)))


@pytest.mark.parametrize("style", [codegen.STYLE_IF, codegen.STYLE_CASE])
def test_respelled_reconstruction_reuses_the_arbiter_verdict(calls, style,
                                                             tmp_path):
    table = _fsm()
    report = rt.run_roundtrip(table, rt.DeterministicBackend(style),
                              _RespelledInverse(), run_dir=str(tmp_path))
    assert report.outcome.label is rt.Label.M
    assert calls["compare"] == 1
    with open(os.path.join(report.run_dir, rt.RECORD), encoding="utf-8") as f:
        artifacts = json.load(f)["artifacts"]
    assert artifacts["inverse_response.txt"] != \
        artifacts["reconstructed.unit"]
    arb_table = extract.hdl_text_to_lct(artifacts[f"{table.name}.v"],
                                        *rt.schema_of(table))
    assert artifacts["reconstructed.unit"] == \
        tableio.serialize_unit_doc(arb_table)


def _canonical_codes(table):
    """The row codes kept on the table's canonical form, which are those
    a fresh copy of that form builds from its rows."""
    canonical = analysis.canonicalize(table)
    codes = model.kept(canonical, "_row_codes", analysis.row_codes)
    assert model.kept(dataclasses.replace(canonical), "_row_codes",
                      analysis.row_codes) == codes
    return codes


def _forms(table):
    """serialize_unit, generate, the rules, the sim kernel's bitsets and
    the canonical row codes of the table, or the error each raises."""
    forms = []
    for step in (tableio.serialize_unit, codegen.generate,
                 model.validate_lct, lambda t: list(t.violations),
                 lambda t: sim._kernel(t).bitsets, _canonical_codes):
        try:
            forms.append(step(table))
        except LctError as e:
            forms.append(f"{type(e).__name__}: {e}")
    return forms


@settings(max_examples=60)
@given(st.one_of(TABLES, UNVALIDATED))
def test_kept_forms_are_those_of_a_fresh_copy(table):
    """A table whose violations and text earlier calls kept gives what a
    fresh ``dataclasses.replace`` copy gives, and an invalid table raises
    on every call, not only the first."""
    first = _forms(table)
    assert _forms(table) == first
    assert _forms(dataclasses.replace(table)) == first
    if table.violations:
        assert all(isinstance(form, str) for form in first[:2])


KEPT = {"_violations", "_unit_text", "_sim_kernel", "_row_codes"}
FIELDS = {field.name for field in dataclasses.fields(model.Lct)}


def test_a_round_trip_keeps_only_the_named_forms(monkeypatch):
    """Every table a deterministic round trip with a sim suite builds,
    and the unit it starts from, holds no state but its fields and the
    forms ``model.kept`` names; a ``dataclasses.replace`` copy of each
    holds none of those forms."""
    unit = load_fixture("fsm4")
    tables = [unit]
    init = model.Lct.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tables.append(self)
    monkeypatch.setattr(model.Lct, "__init__", recorded)
    suite = [[{"rst_n": BitVector(1, 0), "cond0": BitVector(1, 0),
               "cond1": BitVector(1, 0)},
              {"rst_n": BitVector(1, 1), "cond0": BitVector(1, 0),
               "cond1": BitVector(1, 1)}]]
    backend = rt.DeterministicBackend()
    report = rt.run_roundtrip(unit, backend, backend, sim_suite=suite)
    monkeypatch.undo()
    assert report.outcome.label is rt.Label.M
    assert report.outcome.sim is rt.SimVerdict.PASS
    held = [set(vars(table)) - FIELDS for table in tables]
    assert all(forms <= KEPT for forms in held), held
    assert set().union(*held) == KEPT
    for table in tables:
        assert set(vars(dataclasses.replace(table))) == FIELDS
