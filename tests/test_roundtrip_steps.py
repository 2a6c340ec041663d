"""A round trip does each step once: the deterministic inverse reuses the
arbiter's extraction of the forward HDL, an identical reconstruction
reuses the arbiter's comparison, and tables are validated only where
they enter.  Steps are counted through the module attributes their
callers look up."""

from collections import Counter

import pytest

from lctkit import (analysis, codegen, equiv, extract, model, roundtrip as rt,
                    tableio)
from lctkit.model import TransformDirection, TransformResponse


@pytest.fixture
def calls(monkeypatch):
    """Counts of parse_hdl, compare, canonicalize and validate_lct."""
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
    for module in (model, tableio, codegen, extract):
        count(module, "validate_lct")
    return counts


def _fsm():
    return analysis.generate_fsm(16, 4, 4, seed=1)


@pytest.mark.parametrize("style", [codegen.STYLE_IF, codegen.STYLE_CASE])
def test_deterministic_round_trip_does_each_step_once(calls, style):
    backend = rt.DeterministicBackend(style)
    report = rt.run_roundtrip(_fsm(), backend, backend)
    assert report.outcome.label is rt.Label.M
    assert calls["parse_hdl"] == 1
    assert calls["compare"] == 1
    assert calls["canonicalize"] == 2
    # The unit in the forward prompt, codegen of the unit, the
    # extraction, and the parsed reconstruction.  The worked example of
    # the inverse prompt is built once, at import.
    assert calls["validate_lct"] == 4


@pytest.mark.parametrize("style", [codegen.STYLE_IF, codegen.STYLE_CASE])
def test_inverse_fault_is_compared_again(calls, style):
    table = _fsm()
    inverse = rt.FaultInjectingBackend(
        rt.drop_row(len(table.rows) - 1), TransformDirection.INVERSE, style)
    report = rt.run_roundtrip(table, rt.DeterministicBackend(style), inverse)
    assert report.outcome.label is rt.Label.X_INV
    assert calls["compare"] == 2
    assert calls["parse_hdl"] == 1


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
        return TransformResponse(request.direction, self.text)


@pytest.mark.parametrize("hdl_text, error", [
    ("module fsm (\n  input wire a", "unexpected end of input (line 2, "
     "column 14)"),
    ("module m (input wire a, output reg q);\nendmodule\n",
     "module m has no processes"),
])
def test_forward_hdl_that_does_not_extract_is_noted_twice(hdl_text, error):
    report = rt.run_roundtrip(_fsm(), _FixedForward(hdl_text),
                              rt.DeterministicBackend())
    assert report.notes == [f"arbiter: {error}",
                            f"no reconstruction: {error}"]
    assert report.outcome.label is rt.Label.X_FW


class _ExactInverse:
    """An inverse that reproduces the extraction exactly on its own, as
    a remote backend might."""
    name = "exact"

    def complete(self, request):
        payload = request.payload
        table = extract.hdl_text_to_lct(payload.hdl_text, payload.conditions,
                                        payload.results)
        return TransformResponse(request.direction,
                                 tableio.serialize_unit_doc(table))


def test_identical_reconstruction_reuses_the_arbiter_verdict(calls):
    report = rt.run_roundtrip(_fsm(), rt.DeterministicBackend(),
                              _ExactInverse())
    assert report.outcome.label is rt.Label.M
    assert calls["parse_hdl"] == 2
    assert calls["compare"] == 1
