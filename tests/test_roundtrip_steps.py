"""A round trip does each step once: the deterministic inverse reuses the
arbiter's extraction of the forward HDL, an identical reconstruction
reuses the arbiter's comparison, and a table instance is validated and
rendered at most once.  Steps are counted through the module attributes
their callers look up."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from lctkit import (analysis, codegen, equiv, extract, model, roundtrip as rt,
                    tableio)
from lctkit.model import LctError, TransformDirection, TransformResponse
from .util import TABLES, UNVALIDATED


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
    # inverse's response; and the parsed reconstruction, rendered as
    # `reconstructed.unit`.  The worked example of the inverse prompt is
    # built once, at import.
    assert calls["validate_lct"] == 3
    assert calls["_render_unit"] == 3


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


def _forms(table):
    """serialize_unit, generate and the rules on the table, or the error
    each raises."""
    forms = []
    for step in (tableio.serialize_unit, codegen.generate,
                 model.validate_lct, lambda t: list(t.violations)):
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
