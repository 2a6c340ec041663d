import dataclasses
import hashlib
import json
import os
import random

import pytest
import requests

from lctkit import (analysis, codegen, equiv, extract, roundtrip as rt,
                    tableio)
from lctkit.model import (
    BitVector,
    Constant,
    TransformDirection,
    TransformRequest,
    TransformResponse,
)
from .test_validation import _expr_table, _x_passthrough
from .util import clocked_dont_care_lct, load_fixture, mutate_output

BV = BitVector


def det():
    return rt.DeterministicBackend()


# --- prompts -----------------------------------------------------------------

def test_forward_prompt_section_order():
    table = load_fixture("regmux2")
    request = rt.build_forward_prompt(table)
    prompt = request.prompt
    assert prompt.index("clocked") < prompt.index("4 input condition")
    assert prompt.index("condition columns") < prompt.index("rst_n,ready")
    assert prompt.index("rst_n,ready") < prompt.index("port map")
    assert request.payload is table


def test_forward_prompt_is_deterministic():
    table = load_fixture("mux4")
    assert rt.build_forward_prompt(table).prompt == \
        rt.build_forward_prompt(table).prompt


def test_inverse_prompt_section_order():
    hdl_text = codegen.gen_unit(load_fixture("fsm4"))
    request = rt.build_inverse_prompt(hdl_text, rt.schema_of(
        load_fixture("fsm4")))
    prompt = request.prompt
    definition = prompt.index("top-to-bottom priority")
    example_hdl = prompt.index("module mux2")
    example_lct = prompt.index("unit mux2")
    evaluate = prompt.index("module fsm4")
    headers = prompt.index("input condition columns\nrst_n, state")
    assert definition < example_hdl < example_lct < evaluate < headers


def test_extract_code_block():
    fenced = "preamble\n```verilog\nmodule m ();\nendmodule\n```\ntrailer"
    assert rt.extract_code_block(fenced) == "module m ();\nendmodule\n"
    bare = "module m ();\nendmodule\n"
    assert rt.extract_code_block(bare) == bare
    # Spaces or tabs after the info string, and CRLF line ends.
    spaced = "preamble\n```verilog \t\nmodule m ();\nendmodule\n```\n"
    assert rt.extract_code_block(spaced) == "module m ();\nendmodule\n"
    crlf = "preamble\r\n```verilog\r\nmodule m ();\r\nendmodule\r\n```\r\n"
    assert rt.extract_code_block(crlf) == "module m ();\r\nendmodule\r\n"
    # A block cut off before its closing fence runs to the end of the
    # response, without the opening fence line.
    cut = "preamble\n```verilog\nmodule m ();\nendmodule\n"
    assert rt.extract_code_block(cut) == "module m ();\nendmodule\n"
    cut_crlf = "```verilog \r\nmodule m ();\r\nendmodule"
    assert rt.extract_code_block(cut_crlf) == "module m ();\r\nendmodule"
    # A closed block is still taken before a later unclosed one.
    two = "```\nfirst\n```\nthen\n```\nsecond\n"
    assert rt.extract_code_block(two) == "first\n"
    # A closing fence never opened, with only whitespace after it, ends a
    # block that began at the start of the response.
    stray = "module m ();\nendmodule\n```\n"
    assert rt.extract_code_block(stray) == "module m ();\nendmodule\n"
    stray_crlf = "module m ();\r\nendmodule\r\n``` \t\r\n\r\n"
    assert rt.extract_code_block(stray_crlf) == \
        "module m ();\r\nendmodule\r\n"
    assert rt.extract_code_block("module m ();\nendmodule```") == \
        "module m ();\nendmodule"
    # An opening fence with an info string opens, even with nothing after.
    assert rt.extract_code_block("Here it is:\n```verilog\n") == ""


@pytest.mark.parametrize("fence,newline", [("```verilog ", "\n"),
                                           ("```verilog", "\r\n")])
def test_fenced_forward_response_round_trips(fence, newline):
    """mux4's correct HDL, fenced with spaces after the info string or
    with CRLF line ends, reads back: the fences do not stay in the text."""
    unit = load_fixture("mux4")
    inner = rt.DeterministicBackend()

    class Fenced:
        name = "fenced"

        def complete(self, request):
            response = inner.complete(request)
            if request.direction is not TransformDirection.FORWARD:
                return response
            body = response.text.replace("\n", newline)
            return TransformResponse(
                f"Here it is:{newline}{fence}{newline}{body}```{newline}")

    report = rt.run_roundtrip(unit, Fenced(), inner)
    assert report.outcome.label is rt.Label.M


@pytest.mark.parametrize("direction", list(TransformDirection))
def test_response_cut_before_its_closing_fence_round_trips(direction):
    """A correct module, or unit document, whose response ends before
    the closing fence reads back as the text after the opening fence."""
    unit = load_fixture("mux4")
    inner = rt.DeterministicBackend()

    class Unclosed:
        name = "unclosed"

        def complete(self, request):
            response = inner.complete(request)
            if request.direction is not direction:
                return response
            return TransformResponse(f"Here it is:\n```\n{response.text}")

    backend = Unclosed()
    report = rt.run_roundtrip(unit, backend, backend)
    assert report.outcome.label is rt.Label.M
    assert not report.notes


def test_response_with_a_stray_closing_fence_round_trips():
    """mux4's correct HDL followed by a closing fence it never opened
    reads back as the text before the fence."""
    unit = load_fixture("mux4")
    inner = rt.DeterministicBackend()

    class Stray:
        name = "stray"

        def complete(self, request):
            response = inner.complete(request)
            if request.direction is not TransformDirection.FORWARD:
                return response
            return TransformResponse(f"{response.text}```\n")

    report = rt.run_roundtrip(unit, Stray(), inner)
    assert report.outcome.label is rt.Label.M


def test_extract_code_block_closed_by_a_stray_fence_before_prose():
    """A fence with no info string after a module's `endmodule`, or
    after a unit document's separator line, closes a block that began at
    the start of the response; prose before a bare fence does not."""
    module = "module m ();\nendmodule\n"
    assert rt.extract_code_block(f"{module}```\nHope this helps.\n") == \
        module
    assert rt.extract_code_block(f"{module}```  \r\nDone.") == module
    doc = "unit m\nclocking combinational\n---\na,q\n0,0\n"
    assert rt.extract_code_block(f"{doc}```\nHope this helps.\n") == doc
    # An info string opens a block, whatever comes before it.
    assert rt.extract_code_block(f"{module}```verilog\nx\n```\n") == "x\n"
    assert rt.extract_code_block("Here it is:\n```\nmodule m ();\n") == \
        "module m ();\n"


def test_extract_code_block_prefers_the_block_declaring_the_module():
    """Given a module name, the first fenced block that declares it is
    taken over an earlier block that does not; without one, or when no
    block declares it, the first block is taken as before."""
    bench = "module m_tb;\n  m dut ();\nendmodule\n"
    module = "module m ();\nendmodule\n"
    text = f"Testbench:\n```verilog\n{bench}```\nDesign:\n```verilog\n" \
        f"{module}```\n"
    assert rt.extract_code_block(text) == bench
    assert rt.extract_code_block(text, "m") == module
    assert rt.extract_code_block(text, "m_tb") == bench
    assert rt.extract_code_block(text, "other") == bench
    # A declaration cut off before its closing fence is still a block.
    assert rt.extract_code_block(f"```\n{bench}```\n```\n{module}", "m") == \
        module
    # The block today's rule takes is kept when it declares the module.
    stray = f"{module}```\nHope this helps.\n```verilog\nmodule m;\n```\n"
    assert rt.extract_code_block(stray, "m") == module


def test_forward_response_with_a_testbench_first_round_trips():
    """mux4's correct HDL, after a fenced testbench that instantiates
    it, is the block the arbiter reads."""
    unit = load_fixture("mux4")
    inner = rt.DeterministicBackend()
    bench = ("module mux4_tb;\n  reg enable;\n  reg [1:0] select;\n"
             "  wire [7:0] data_out;\n"
             "  mux4 dut (.enable(enable), .select(select),\n"
             "            .data_out(data_out));\nendmodule\n")

    class BenchFirst:
        name = "bench-first"

        def complete(self, request):
            response = inner.complete(request)
            if request.direction is not TransformDirection.FORWARD:
                return response
            return TransformResponse(
                f"A testbench:\n```verilog\n{bench}```\nThe design:\n"
                f"```verilog\n{response.text}```\n")

    backend = BenchFirst()
    report = rt.run_roundtrip(unit, backend, backend)
    assert report.outcome.label is rt.Label.M
    assert not report.notes


@pytest.mark.parametrize("direction", list(TransformDirection))
def test_response_closed_by_a_stray_fence_before_prose_round_trips(
        direction):
    """mux4's correct HDL, or unit document, followed by a closing fence
    it never opened and a sign-off reads back as the text before the
    fence."""
    unit = load_fixture("mux4")
    inner = rt.DeterministicBackend()

    class SignedOff:
        name = "signed-off"

        def complete(self, request):
            response = inner.complete(request)
            if request.direction is not direction:
                return response
            return TransformResponse(
                f"{response.text}```\nHope this helps.\n")

    backend = SignedOff()
    report = rt.run_roundtrip(unit, backend, backend)
    assert report.outcome.label is rt.Label.M
    assert not report.notes


# --- classification ----------------------------------------------------------

V = equiv.Verdict
S = rt.SimVerdict
A = rt.ArbiterVerdict
NO_SIM = "no simulation evidence: cannot distinguish M from M SP"
NO_ARBITER = "forward HDL not analyzable; attributing to forward"
MASKED = "textual match masks a forward fault the arbiter found"
MASKED_EQ = "equivalent reconstruction masks a forward fault the arbiter found"


@pytest.mark.parametrize("semantic,sim,arbiter,label,caveat", [
    (V.TEXTUALLY_IDENTICAL, S.PASS, A.FORWARD_MATCHES, rt.Label.M, None),
    (V.TEXTUALLY_IDENTICAL, S.UNAVAILABLE, A.FORWARD_MATCHES, rt.Label.M,
     NO_SIM),
    (V.TEXTUALLY_IDENTICAL, S.FAIL, A.FORWARD_MATCHES, rt.Label.M_SP, None),
    (V.EQUIVALENT, S.PASS, A.FORWARD_MATCHES, rt.Label.X_EQ, None),
    (V.NOT_EQUIVALENT, S.FAIL, A.FORWARD_DIFFERS, rt.Label.X_FW, None),
    (V.NOT_EQUIVALENT, S.PASS, A.FORWARD_DIFFERS, rt.Label.X_FW_NS, None),
    (V.NOT_EQUIVALENT, S.FAIL, A.FORWARD_MATCHES, rt.Label.X_INV, None),
    (None, S.UNAVAILABLE, A.UNAVAILABLE, rt.Label.X_FW, NO_ARBITER),
    (V.NOT_EQUIVALENT, S.PASS, A.UNAVAILABLE, rt.Label.X_FW_NS, NO_ARBITER),
    (V.TEXTUALLY_IDENTICAL, S.FAIL, A.FORWARD_DIFFERS, rt.Label.X_FW, MASKED),
    (V.TEXTUALLY_IDENTICAL, S.PASS, A.FORWARD_DIFFERS, rt.Label.X_FW_NS,
     MASKED),
    (V.TEXTUALLY_IDENTICAL, S.UNAVAILABLE, A.FORWARD_DIFFERS, rt.Label.X_FW,
     MASKED),
    (V.EQUIVALENT, S.FAIL, A.FORWARD_DIFFERS, rt.Label.X_FW, MASKED_EQ),
    (V.EQUIVALENT, S.PASS, A.FORWARD_DIFFERS, rt.Label.X_FW_NS, MASKED_EQ),
    (V.EQUIVALENT, S.UNAVAILABLE, A.UNAVAILABLE, rt.Label.X_EQ, None),
])
def test_classify_outcome(semantic, sim, arbiter, label, caveat):
    outcome = rt.classify_outcome(semantic, sim, arbiter)
    assert (outcome.label, outcome.caveat) == (label, caveat)
    assert (outcome.semantic, outcome.sim, outcome.arbiter) == \
        (semantic, sim, arbiter)


# --- deterministic loop ------------------------------------------------------

def test_fixtures_roundtrip_to_match():
    for name in ("mux4", "regmux2", "fsm4"):
        report = rt.run_roundtrip(load_fixture(name), det(), det())
        assert report.outcome.label is rt.Label.M, name


def _read_run_dir(unit_dir):
    """{artifact name: text} from a unit's run directory, which holds
    exactly ``record.json`` and ``verdict.txt``."""
    assert sorted(os.listdir(unit_dir)) == ["record.json", "verdict.txt"]
    with open(os.path.join(unit_dir, "record.json"), encoding="utf-8") as f:
        texts = dict(json.load(f)["artifacts"])
    with open(os.path.join(unit_dir, "verdict.txt"), encoding="utf-8") as f:
        texts["verdict.txt"] = f.read()
    return texts


def _digests(texts):
    return {name: hashlib.sha256(text.encode()).hexdigest()[:16]
            for name, text in texts.items()}


def test_roundtrip_persists_artifacts(tmp_path):
    table = load_fixture("mux4")
    report = rt.run_roundtrip(table, det(), det(), run_dir=str(tmp_path))
    unit_dir = os.path.join(str(tmp_path), "mux4")
    assert report.run_dir == unit_dir
    texts = _read_run_dir(unit_dir)
    assert set(texts) == {"forward_prompt.txt", "forward_response.txt",
                          "mux4.v", "inverse_prompt.txt",
                          "inverse_response.txt", "reconstructed.unit",
                          "verdict.txt"}
    assert "label=M" in texts["verdict.txt"].splitlines()
    assert _digests(texts) == report.digests


def test_units_sharing_a_name_keep_their_own_run_directories(tmp_path):
    twins = [dataclasses.replace(load_fixture(name), name="twin")
             for name in ("mux4", "regmux2")]
    for _ in range(2):  # the rerun overwrites the same two directories
        reports = rt.run_many(twins, det(), det(), run_dir=str(tmp_path),
                              workers=2)
        assert [r.run_dir for r in reports] == \
            [str(tmp_path / "twin"), str(tmp_path / "twin-2")]
        assert sorted(os.listdir(tmp_path)) == ["twin", "twin-2"]
        texts = [_read_run_dir(r.run_dir) for r in reports]
        assert texts[0]["twin.v"] != texts[1]["twin.v"]
        assert [_digests(t) for t in texts] == [r.digests for r in reports]


def test_run_many_preserves_order():
    units = [load_fixture(n) for n in ("mux4", "regmux2", "fsm4")]
    reports = rt.run_many(units, det(), det(), workers=3)
    assert [r.unit for r in reports] == ["mux4", "regmux2", "fsm4"]
    assert all(r.outcome.label is rt.Label.M for r in reports)


class _Scripted:
    """The deterministic case-style pair, except that the forward request
    of unit `fwdboom` and the inverse request of unit `invboom` fail."""
    name = "scripted"

    def __init__(self):
        self.inner = rt.DeterministicBackend(codegen.STYLE_CASE)

    def complete(self, request):
        if request.direction is TransformDirection.FORWARD:
            if request.payload.name == "fwdboom":
                raise RuntimeError("forward backend crashed")
        elif "module invboom (" in request.payload.hdl_text:
            raise rt.BackendError("inverse backend gave up")
        return self.inner.complete(request)


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_units_are_errors_and_the_batch_goes_on(monkeypatch,
                                                       tmp_path, workers):
    """A failure that is neither transform's, in any stage, is that
    unit's `error` report, persisted like any other."""
    extract_table = extract.hdl_text_to_lct

    def hdl_text_to_lct(hdl_text, *schema):
        if "module arbboom (" in hdl_text:
            raise KeyError("arbiter crashed")
        return extract_table(hdl_text, *schema)
    monkeypatch.setattr(extract, "hdl_text_to_lct", hdl_text_to_lct)

    good = load_fixture("mux4")
    # The case style writes expression columns too.
    exprcase = dataclasses.replace(_expr_table("a & b", a=1, b=1),
                                   name="exprcase")
    failing = {
        # The forward prompt does not serialize an invalid table.
        "xpass": (_x_passthrough(), "forward: LctError: "),
        "fwdboom": (dataclasses.replace(good, name="fwdboom"),
                    "forward: RuntimeError: "),
        "invboom": (dataclasses.replace(good, name="invboom"),
                    "inverse: BackendError: "),
        "arbboom": (dataclasses.replace(good, name="arbboom"),
                    "arbiter: KeyError: "),
    }
    units = [good, exprcase] + [unit for unit, _ in failing.values()]
    backend = _Scripted()
    reports = rt.run_many(units, backend, backend, run_dir=str(tmp_path),
                          workers=workers)
    assert [r.unit for r in reports] == [u.name for u in units]
    for report in reports[:2]:
        assert report.outcome.label is rt.Label.M
        assert report.error is None
    for report in reports[2:]:
        prefix = failing[report.unit][1]
        assert report.outcome is None
        assert report.error.startswith(prefix), report.error
        assert f"unit {report.unit}: error\n" in report.render()
        with open(os.path.join(tmp_path, report.unit, "verdict.txt"),
                  encoding="utf-8") as f:
            assert f.read() == f"unit={report.unit}\nerror={report.error}\n"
    # The record holds the artifacts made before the failure.
    assert set(_read_run_dir(str(tmp_path / "invboom"))) == {
        "forward_prompt.txt", "forward_response.txt", "invboom.v",
        "inverse_prompt.txt", "verdict.txt"}


class _Counting:
    """The deterministic pair, counting its requests."""
    name = "counting"

    def __init__(self):
        self.inner = det()
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return self.inner.complete(request)


def test_unusable_run_directory_fails_before_any_unit_runs(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.write_text("")
    backend = _Counting()
    with pytest.raises(FileExistsError):
        rt.run_many([load_fixture("mux4")] * 2, backend, backend,
                    run_dir=str(run_dir))
    assert backend.calls == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_a_unit_that_cannot_persist_errors_and_the_batch_goes_on(tmp_path,
                                                                 workers):
    """A unit that errored already keeps its error and notes the failed
    write."""
    (tmp_path / "mux4").write_text("")
    (tmp_path / "xpass").write_text("")
    units = [load_fixture("mux4"), _x_passthrough(), load_fixture("regmux2")]
    reports = rt.run_many(units, det(), det(), run_dir=str(tmp_path),
                          workers=workers)
    assert reports[0].outcome is None
    assert reports[0].error.startswith("persist: NotADirectoryError: ")
    assert reports[0].run_dir is None
    assert "unit mux4: error\n" in reports[0].render()
    assert reports[1].error.startswith("forward: LctError: ")
    assert reports[1].notes[-1].startswith("persist: NotADirectoryError: ")
    assert reports[2].outcome.label is rt.Label.M
    assert "label=M" in \
        _read_run_dir(reports[2].run_dir)["verdict.txt"].splitlines()


# --- fault corpus ------------------------------------------------------------

def _flip_fault(table, row, col):
    cell = table.rows[row].outputs[col]
    flipped = Constant(BV(cell.bv.width,
                          (cell.bv.value + 1) % (1 << cell.bv.width)))
    return rt.alter_output_cell(row, col, flipped)


def test_forward_fault_labelled_x_fw():
    orig = analysis.generate_fsm(4, 2, 3, seed=0)
    fault = _flip_fault(orig, 2, 0)
    assert not equiv.compare(orig, fault(orig)).verdict.equivalent
    backend = rt.FaultInjectingBackend(fault, TransformDirection.FORWARD)
    report = rt.run_roundtrip(orig, backend, det())
    assert report.outcome.label is rt.Label.X_FW
    assert report.outcome.arbiter is A.FORWARD_DIFFERS


def test_inverse_fault_labelled_x_inv():
    orig = analysis.generate_fsm(4, 2, 3, seed=0)
    fault = _flip_fault(orig, 2, 0)
    backend = rt.FaultInjectingBackend(fault, TransformDirection.INVERSE)
    report = rt.run_roundtrip(orig, det(), backend)
    assert report.outcome.label is rt.Label.X_INV
    assert report.outcome.arbiter is A.FORWARD_MATCHES
    assert "  counterexample: at rst_n=1 state=0 cond0=1 cond1=0: " \
        "next_state = 3 vs 0" in report.render().splitlines()


@pytest.mark.parametrize("old, new, note", [
    ("\ninputs 2\n", "\ninputs two\n",
     "inputs count 'two' is not a non-negative decimal number (line 3)"),
    ("\n1,3,data3\n", "\n1,Z,data3\n",
     "bad input cell: malformed literal: 'Z' (line 19, column 2)"),
], ids=["worded-count", "bad-cell"])
def test_unparsable_inverse_response_is_x_inv(old, new, note):
    """A manifest count that is no number, or a bad cell, is the
    inverse's finding, noted like any other unparsable response, not the
    round trip's error.  Its line counts from the unit document's first:
    the reconstruction's last row is line 19."""
    inner = det()

    class Edited:
        name = "edited"

        def complete(self, request):
            response = inner.complete(request)
            text = response.text.replace(old, new)
            assert text != response.text
            return TransformResponse(text)

    report = rt.run_roundtrip(load_fixture("mux4"), det(), Edited())
    assert report.error is None
    assert report.outcome.label is rt.Label.X_INV
    assert report.notes == [f"inverse: {note}"]


def test_forward_fault_missed_by_simulation_is_x_fw_ns():
    orig = analysis.generate_fsm(4, 2, 3, seed=0)
    backend = rt.FaultInjectingBackend(_flip_fault(orig, 2, 0),
                                       TransformDirection.FORWARD)
    blind = [[{"rst_n": BV(1, 0), "cond0": BV(1, 0), "cond1": BV(1, 0)}]]
    report = rt.run_roundtrip(orig, backend, det(), sim_suite=blind)
    assert report.outcome.label is rt.Label.X_FW_NS


def test_forward_fault_caught_by_simulation_is_x_fw():
    orig = analysis.generate_fsm(4, 2, 3, seed=0)
    backend = rt.FaultInjectingBackend(_flip_fault(orig, 2, 0),
                                       TransformDirection.FORWARD)
    probing = [[
        {"rst_n": BV(1, 0), "cond0": BV(1, 0), "cond1": BV(1, 0)},
        {"rst_n": BV(1, 1), "cond0": BV(1, 1), "cond1": BV(1, 0)},
    ]]
    report = rt.run_roundtrip(orig, backend, det(), sim_suite=probing)
    assert report.outcome.label is rt.Label.X_FW
    assert report.outcome.sim is S.FAIL


def test_self_cancelling_fault_pair_is_blind_spot():
    """A forward fault undone by a matching inverse fault reconstructs
    the original table: the textual check alone cannot see it, but the
    arbiter does, so the round trip is X FW, not M."""
    orig = analysis.generate_fsm(4, 2, 3, seed=0)
    forward = rt.FaultInjectingBackend(_flip_fault(orig, 2, 0),
                                       TransformDirection.FORWARD)
    inverse = rt.FaultInjectingBackend(
        rt.alter_output_cell(2, 0, orig.rows[2].outputs[0]),
        TransformDirection.INVERSE)
    report = rt.run_roundtrip(orig, forward, inverse)
    assert report.outcome.label is rt.Label.X_FW


def test_forward_fault_masked_by_the_inverse_is_x_fw():
    """mux4's second row dropped in the forward HDL, and an inverse that
    answers with the specification itself: a textual match that the
    arbiter contradicts is X FW, and its counterexample is the
    arbiter's, beside a caveat that says why."""
    spec = load_fixture("mux4")

    class Specification:
        name = "specification"

        def complete(self, request):
            return TransformResponse(tableio.serialize_unit_doc(spec))

    forward = rt.FaultInjectingBackend(rt.drop_row(1),
                                       TransformDirection.FORWARD)
    report = rt.run_roundtrip(spec, forward, Specification())
    assert report.outcome.semantic is V.TEXTUALLY_IDENTICAL
    assert report.outcome.arbiter is A.FORWARD_DIFFERS
    assert (report.outcome.label, report.outcome.caveat) == \
        (rt.Label.X_FW, MASKED)
    lines = report.render().splitlines()
    assert lines[0] == "unit mux4: X FW"
    assert "  counterexample: at enable=1 select=0: data_out = data0 vs 0" \
        in lines
    assert f"  caveat: {MASKED}" in lines


def test_forward_fault_masked_by_an_equivalent_inverse_is_x_fw():
    """As above, with an inverse that answers with the specification's
    don't-cares expanded: an equivalent, not textual, match that the
    arbiter contradicts is X FW too."""
    spec = load_fixture("mux4")

    class Expanded:
        name = "expanded"

        def complete(self, request):
            return TransformResponse(tableio.serialize_unit_doc(
                analysis.expand_dont_cares(spec)))

    forward = rt.FaultInjectingBackend(rt.drop_row(1),
                                       TransformDirection.FORWARD)
    report = rt.run_roundtrip(spec, forward, Expanded())
    assert report.outcome.semantic is V.EQUIVALENT
    assert report.outcome.arbiter is A.FORWARD_DIFFERS
    assert (report.outcome.label, report.outcome.caveat) == \
        (rt.Label.X_FW, MASKED_EQ)
    lines = report.render().splitlines()
    assert lines[0] == "unit mux4: X FW"
    assert "  counterexample: at enable=1 select=0: data_out = data0 vs 0" \
        in lines
    assert f"  caveat: {MASKED_EQ}" in lines


def test_drop_and_spurious_and_merge_faults():
    table = load_fixture("fsm4")
    dropped = rt.drop_row(3)(table)
    assert dropped.rows == table.rows[:3] + table.rows[4:]
    assert rt.drop_row(-1)(table).rows == table.rows[:-1]
    for index in (len(table.rows), -len(table.rows) - 1):
        with pytest.raises(IndexError):
            rt.drop_row(index)(table)
    spurious = rt.add_spurious_row(0, table.rows[2])(table)
    assert len(spurious.rows) == 11
    merged = rt.merge_rows(2, 3)(table)
    assert len(merged.rows) == 9
    composed = rt.compose(rt.drop_row(3), rt.drop_row(3))(table)
    assert len(composed.rows) == 8


# --- remote backend ----------------------------------------------------------

class _FakeResponse:
    def __init__(self, payload, status=200, headers=None):
        self._payload = payload
        self.status_code = status
        self.headers = headers or {}

    def json(self):
        return self._payload


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append((url, json, headers, timeout))
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


def _chat_payload(text):
    return {"choices": [{"message": {"content": text}}]}


def test_remote_backend_posts_chat_completion(monkeypatch):
    monkeypatch.setenv("LCT_API_KEY", "sk-test")
    session = _FakeSession([_chat_payload("```verilog\nmodule m();\n```")])
    session.responses = [_FakeResponse(p) for p in
                         [_chat_payload("```verilog\nmodule m();\n```")]]
    backend = rt.RemoteChatBackend("http://unit.test/v1", "tiny-model",
                                   session=session)
    request = TransformRequest(TransformDirection.FORWARD, "prompt text")
    response = backend.complete(request)
    assert "module m();" in response.text
    url, body, headers, timeout = session.requests[0]
    assert url == "http://unit.test/v1/chat/completions"
    assert body["model"] == "tiny-model"
    assert body["messages"][0]["content"] == "prompt text"
    assert headers["Authorization"] == "Bearer sk-test"


def test_remote_backend_retries_then_succeeds(monkeypatch):
    monkeypatch.setattr(rt.time, "sleep", lambda s: None)
    session = _FakeSession([
        _FakeResponse({}, status=500),
        _FakeResponse(_chat_payload("recovered")),
    ])
    backend = rt.RemoteChatBackend("http://unit.test", "m", retries=3,
                                   session=session)
    request = TransformRequest(TransformDirection.FORWARD, "p")
    assert backend.complete(request).text == "recovered"
    assert len(session.requests) == 2


def test_remote_backend_gives_up_after_retries(monkeypatch):
    sleeps = []
    monkeypatch.setattr(rt.time, "sleep", sleeps.append)
    session = _FakeSession([_FakeResponse({}, status=500)] * 3)
    backend = rt.RemoteChatBackend("http://unit.test", "m", retries=3,
                                   session=session)
    with pytest.raises(rt.BackendError):
        backend.complete(TransformRequest(TransformDirection.FORWARD, "p"))
    # Backs off between attempts only: none after the last one.
    assert sleeps == [1, 2]


class _NotJson(_FakeResponse):
    def json(self):
        raise ValueError("Expecting value: line 1 column 1 (char 0)")


@pytest.mark.parametrize("responses, posts, sleeps", [
    # Other 4xx and malformed bodies fail at once.
    ([_FakeResponse({}, status=401)], 1, []),
    ([_FakeResponse({}, status=404)], 1, []),
    ([_NotJson(None)], 1, []),
    ([_FakeResponse({"choices": []})], 1, []),
    ([_FakeResponse({"choices": [{"message": {}}]})], 1, []),
    ([_FakeResponse(_chat_payload(None))], 1, []),
    # A 4xx after a transient fault still ends the call.
    ([_FakeResponse({}, status=503), _FakeResponse({}, status=400)], 2, [1]),
], ids=["401", "404", "not-json", "no-choices", "no-content", "null-content",
        "503-then-400"])
def test_remote_backend_fails_fast_on_permanent_faults(
        monkeypatch, responses, posts, sleeps):
    slept = []
    monkeypatch.setattr(rt.time, "sleep", slept.append)
    session = _FakeSession(responses)
    backend = rt.RemoteChatBackend("http://unit.test", "m", retries=3,
                                   session=session)
    with pytest.raises(rt.BackendError):
        backend.complete(TransformRequest(TransformDirection.FORWARD, "p"))
    assert (len(session.requests), slept) == (posts, sleeps)


@pytest.mark.parametrize("fault, sleeps", [
    (_FakeResponse({}, status=429, headers={"Retry-After": "3"}), [3]),
    (_FakeResponse({}, status=503, headers={"Retry-After": "120"}), [30]),
    # A date, not a number of seconds: the back-off applies.
    (_FakeResponse({}, status=429, headers={
        "Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}), [1]),
    (ConnectionError("connection refused"), [1]),
    (TimeoutError("read timed out"), [1]),
    (requests.ConnectionError("connection reset"), [1]),
    (requests.Timeout("read timed out"), [1]),
], ids=["429-retry-after-3", "503-retry-after-120", "retry-after-date",
        "connection-error", "timeout-error", "requests-connection-error",
        "requests-timeout"])
def test_remote_backend_retries_transient_faults(monkeypatch, fault, sleeps):
    slept = []
    monkeypatch.setattr(rt.time, "sleep", slept.append)
    session = _FakeSession([fault, _FakeResponse(_chat_payload("ok"))])
    backend = rt.RemoteChatBackend("http://unit.test", "m", retries=3,
                                   session=session)
    request = TransformRequest(TransformDirection.FORWARD, "p")
    assert backend.complete(request).text == "ok"
    assert (len(session.requests), slept) == (2, sleeps)


def test_roundtrip_through_fenced_remote_responses():
    """A remote backend that answers with fenced code blocks still
    round-trips: the loop extracts the artifact from the fence."""
    table = load_fixture("mux4")
    inner = det()

    class Fenced:
        name = "fenced"

        def complete(self, request):
            response = inner.complete(request)
            from lctkit.model import TransformResponse
            return TransformResponse(
                "Here you go:\n```\n" + response.text + "```\ndone.")

    report = rt.run_roundtrip(table, Fenced(), Fenced())
    assert report.outcome.label is rt.Label.M


def test_garbage_forward_response_attributed_to_forward():
    class Garbage:
        name = "garbage"

        def complete(self, request):
            from lctkit.model import TransformResponse
            return TransformResponse("not verilog at all")

    report = rt.run_roundtrip(load_fixture("mux4"), Garbage(), det())
    assert report.outcome.label is rt.Label.X_FW
    assert report.outcome.arbiter is A.UNAVAILABLE
    error = "expected 'module', found 'not' (line 1, column 1)"
    assert report.render().splitlines()[-2:] == [
        f"  note: arbiter: {error}", f"  note: inverse: {error}"]


def test_perfect_roundtrip_of_a_clocked_dont_care_passes_simulation():
    """Extraction writes a clocked don't-care output back as a hold, and
    simulation reads both alike, so the perfect loop is `M`, not
    `M SP`."""
    suite = [[{"c": BV(1, 0)}, {"c": BV(1, 1)}, {"c": BV(1, 1)}]]
    report = rt.run_roundtrip(clocked_dont_care_lct(), det(), det(),
                              sim_suite=suite)
    assert report.outcome.label is rt.Label.M
    assert report.outcome.sim is S.PASS
