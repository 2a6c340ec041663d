"""
Closed-loop round trip over one or many units: build prompts, run a
forward transform (LCT to HDL) and an inverse transform (HDL back to
LCT), compare the reconstruction with the original, and classify the
outcome.

Backends are pluggable: a deterministic pair (codegen/extract), a
fault-injecting wrapper for testing the taxonomy, or a remote
chat-completion endpoint.  The deterministic extractor doubles as the
arbiter that attributes a mismatch to the forward or inverse direction.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from . import analysis, codegen, equiv, extract, sim, tableio
from .model import (
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
    TransformDirection,
    TransformRequest,
    TransformResponse,
)


class BackendError(LctError):
    """The transform backend failed after bounded retries."""


def schema_of(table: Lct) -> Tuple[List[str], List[str]]:
    return [h.text for h in table.conditions], list(table.results)


def extract_code_block(text: str) -> str:
    """Take the first fenced code block, else the whole body."""
    import re
    m = re.search(r"```[\w-]*\n(.*?)```", text, re.DOTALL)
    return m.group(1) if m else text


# ---------------------------------------------------------------------------
# Prompt builders

@dataclass
class InversePayload:
    hdl_text: str
    conditions: List[str]
    results: List[str]
    # The arbiter's extraction of hdl_text under this schema, when it
    # succeeded; the deterministic inverse reuses it.
    arbiter_table: Optional[Lct] = None


# The inverse prompt's worked example, a combinational 2-input mux.  Its
# HDL and unit document are built once, at import: a lazy cache could be
# filled twice by concurrent round trips.
_MUX2 = Lct(name="mux2", clocking=Clocking.COMBINATIONAL,
            conditions=(SignalHeader("select"),), results=("data_out",),
            rows=(CaseRow((Constant(BitVector(1, 0)),),
                          (SignalRef("data0"),)),
                  CaseRow((Constant(BitVector(1, 1)),),
                          (SignalRef("data1"),))),
            ports=PortMap((Port(Direction.INPUT, "select", 1),
                           Port(Direction.INPUT, "data0", 8),
                           Port(Direction.INPUT, "data1", 8),
                           Port(Direction.OUTPUT, "data_out", 8))))
_MUX2_HDL = codegen.gen_unit(_MUX2)
_MUX2_DOC = tableio.serialize_unit_doc(_MUX2)


def build_forward_prompt(table: Lct) -> TransformRequest:
    """Forward prompt: clocking directive, column counts, CSV listing,
    and port map, in that order."""
    manifest_text, csv_text = tableio.serialize_unit(table)
    if table.clocking is Clocking.CLOCKED:
        directive = ("clocked (sequential) Verilog: one edge-triggered "
                     "process with nonblocking assignments")
    else:
        directive = ("combinational Verilog: one combinational process "
                     "with blocking assignments")
    port_lines = "\n".join(
        f"{p.direction.value} {p.name} [{p.width} bits]"
        for p in table.ports.entries)
    prompt = f"""Write synthesizable Verilog implementing the logic condition table below.

1. Implementation style: {directive}.
2. Table columns: {len(table.conditions)} input condition columns and \
{len(table.results)} output result columns.
3. Logic condition table in CSV format. Rows are cases with top-to-bottom
priority; "X" is don't care; an output cell naming its own column means the
register holds its prior value; an output cell naming an input signal passes
that signal through.

{csv_text}
4. Verilog port map for module {table.name}:

{port_lines}

Respond with one complete Verilog module named {table.name} and nothing else.
"""
    return TransformRequest(TransformDirection.FORWARD, prompt, payload=table)


def build_inverse_prompt(hdl_text: str,
                         schema: Tuple[Sequence[str], Sequence[str]]
                         ) -> TransformRequest:
    """Inverse prompt: LCT definition, the MUX2 worked example (HDL and
    table), the HDL to evaluate, and the column headers, in that order."""
    conditions, results = schema
    prompt = f"""Reconstruct a logic condition table (LCT) from Verilog.

1. An LCT is a table specifying logic: its columns are input conditions and
output results, and its rows are cases giving the result values for each
combination of condition values, with top-to-bottom priority. "X" means
don't care; an output cell naming its own column means the register holds
its prior value.

2. Example Verilog (a 2-input mux):

{_MUX2_HDL}
3. The corresponding LCT, written as a unit manifest, a "---" line, and the
table in CSV format:

{_MUX2_DOC}
4. The Verilog to evaluate:

{hdl_text}
5. Reconstruct the LCT for this Verilog using input condition columns
{", ".join(conditions)} and output result columns {", ".join(results)}.
Respond in the manifest + "---" + CSV form shown in item 3 and nothing else.
"""
    return TransformRequest(
        TransformDirection.INVERSE, prompt,
        payload=InversePayload(hdl_text, list(conditions), list(results)))


# ---------------------------------------------------------------------------
# Backends

class DeterministicBackend:
    """Referentially transparent transforms via codegen and extract."""

    def __init__(self, style: str = codegen.STYLE_IF):
        self.style = style
        self.name = f"deterministic[{style}]"

    def complete(self, request: TransformRequest) -> TransformResponse:
        if request.direction is TransformDirection.FORWARD:
            table = request.payload
            if not isinstance(table, Lct):
                raise BackendError("forward request has no table payload")
            return TransformResponse(request.direction,
                                     codegen.gen_unit(table, self.style))
        payload = request.payload
        if not isinstance(payload, InversePayload):
            raise BackendError("inverse request has no HDL payload")
        table = payload.arbiter_table
        if table is None:
            table = extract.hdl_text_to_lct(
                payload.hdl_text, payload.conditions, payload.results)
        # An extracted table is validated already.
        return TransformResponse(request.direction,
                                 tableio._render_unit_doc(table))


class FaultInjectingBackend:
    """Deterministic backend plus a scripted table mutation, applied
    before generation (forward) or after extraction (inverse)."""

    def __init__(self, fault: Callable[[Lct], Lct],
                 direction: TransformDirection,
                 style: str = codegen.STYLE_IF, label: str = "fault"):
        self.fault = fault
        self.direction = direction
        self.inner = DeterministicBackend(style)
        self.name = f"fault-injecting[{label}]"

    def complete(self, request: TransformRequest) -> TransformResponse:
        if request.direction is not self.direction:
            return self.inner.complete(request)
        if request.direction is TransformDirection.FORWARD:
            mutated = self.fault(request.payload)
            return self.inner.complete(replace_payload(request, mutated))
        response = self.inner.complete(request)
        table = tableio.parse_unit_doc(response.text)
        return TransformResponse(request.direction,
                                 tableio.serialize_unit_doc(
                                     self.fault(table)))


def replace_payload(request: TransformRequest, payload) -> TransformRequest:
    return TransformRequest(request.direction, request.prompt, payload)


class RemoteChatBackend:
    """A chat-completion HTTP endpoint.  The credential comes from an
    environment variable; responses are scanned for a fenced code block,
    else the full body is taken as the artifact."""

    def __init__(self, base_url: str, model: str,
                 api_key_env: str = "LCT_API_KEY", timeout: float = 120.0,
                 retries: int = 3, session=None):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.retries = retries
        self._session = session
        self.name = f"remote[{model}]"

    def _post(self, payload):
        if self._session is None:
            import requests
            self._session = requests.Session()
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.api_key_env)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return self._session.post(f"{self.base_url}/chat/completions",
                                  json=payload, headers=headers,
                                  timeout=self.timeout)

    def complete(self, request: TransformRequest) -> TransformResponse:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
        }
        last_error = None
        for attempt in range(self.retries):
            try:
                response = self._post(payload)
                response.raise_for_status()
                body = response.json()
                text = body["choices"][0]["message"]["content"]
                return TransformResponse(request.direction, text)
            except Exception as e:  # noqa: BLE001 - retry any transport error
                last_error = e
                time.sleep(min(2 ** attempt, 30))
        raise BackendError(
            f"{self.name}: {self.retries} attempts failed: {last_error}")


# ---------------------------------------------------------------------------
# Fault library

def drop_row(index: int) -> Callable[[Lct], Lct]:
    def fault(table: Lct) -> Lct:
        rows = tuple(r for i, r in enumerate(table.rows) if i != index)
        return replace(table, rows=rows)
    return fault


def alter_output_cell(row: int, column: int, value) -> Callable[[Lct], Lct]:
    def fault(table: Lct) -> Lct:
        rows = list(table.rows)
        outputs = list(rows[row].outputs)
        outputs[column] = value
        rows[row] = replace(rows[row], outputs=tuple(outputs))
        return replace(table, rows=tuple(rows))
    return fault


def add_spurious_row(position: int, row: CaseRow) -> Callable[[Lct], Lct]:
    def fault(table: Lct) -> Lct:
        rows = list(table.rows)
        rows.insert(position, row)
        return replace(table, rows=tuple(rows))
    return fault


def merge_rows(first: int, second: int) -> Callable[[Lct], Lct]:
    """Collapse two rows into one: X where their condition cells differ,
    outputs taken from the first."""
    def fault(table: Lct) -> Lct:
        rows = list(table.rows)
        a, b = rows[first], rows[second]
        inputs = tuple(ca if ca == cb else DONT_CARE
                       for ca, cb in zip(a.inputs, b.inputs))
        rows[first] = CaseRow(inputs, a.outputs)
        del rows[second]
        return replace(table, rows=tuple(rows))
    return fault


def compose(*faults: Callable[[Lct], Lct]) -> Callable[[Lct], Lct]:
    def fault(table: Lct) -> Lct:
        for f in faults:
            table = f(table)
        return table
    return fault


# ---------------------------------------------------------------------------
# Outcome classification

class Label(Enum):
    M = "M"
    M_SP = "M SP"
    X_EQ = "X EQ"
    X_FW = "X FW"
    X_FW_NS = "X FW~S"
    X_INV = "X INV"


class SimVerdict(Enum):
    PASS = "pass"
    FAIL = "fail"
    UNAVAILABLE = "unavailable"


class ArbiterVerdict(Enum):
    FORWARD_MATCHES = "forward-matches"
    FORWARD_DIFFERS = "forward-differs"
    UNAVAILABLE = "unavailable"


@dataclass
class Evidence:
    textual_match: bool
    semantic: Optional[equiv.Verdict]
    sim: SimVerdict = SimVerdict.UNAVAILABLE
    arbiter: ArbiterVerdict = ArbiterVerdict.UNAVAILABLE


@dataclass
class Outcome:
    label: Label
    evidence: Evidence
    caveat: Optional[str] = None


def classify_outcome(evidence: Evidence) -> Outcome:
    """Map comparison/simulation/arbiter evidence to an outcome label.

    Matches classify as M (or M SP when simulation fails, pointing at the
    specification rather than either transform).  Mismatches that are
    semantically equivalent are X EQ.  Remaining mismatches go to the
    forward direction (X FW, or X FW~S when simulation missed it) unless
    the arbiter shows the forward HDL still matches the original, which
    isolates the inverse transform (X INV).
    """
    if evidence.textual_match:
        if evidence.sim is SimVerdict.FAIL:
            return Outcome(Label.M_SP, evidence)
        caveat = None
        if evidence.sim is SimVerdict.UNAVAILABLE:
            caveat = ("no simulation evidence: cannot distinguish M from "
                      "M SP")
        return Outcome(Label.M, evidence, caveat)
    if evidence.semantic is not None and evidence.semantic.equivalent:
        return Outcome(Label.X_EQ, evidence)
    if evidence.arbiter is ArbiterVerdict.FORWARD_MATCHES:
        return Outcome(Label.X_INV, evidence)
    caveat = None
    if evidence.arbiter is ArbiterVerdict.UNAVAILABLE:
        caveat = "forward HDL not analyzable; attributing to forward"
    if evidence.sim is SimVerdict.PASS:
        return Outcome(Label.X_FW_NS, evidence, caveat)
    return Outcome(Label.X_FW, evidence, caveat)


# ---------------------------------------------------------------------------
# Round-trip driver

@dataclass
class RoundTripReport:
    unit: str
    outcome: Outcome
    forward_backend: str
    inverse_backend: str
    timings: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    counterexample: Optional[equiv.Counterexample] = None
    notes: List[str] = field(default_factory=list)
    run_dir: Optional[str] = None

    def render(self) -> str:
        lines = [f"unit {self.unit}: {self.outcome.label.value}",
                 f"  forward: {self.forward_backend}",
                 f"  inverse: {self.inverse_backend}"]
        if self.counterexample:
            lines.append(f"  counterexample: {self.counterexample}")
        if self.outcome.caveat:
            lines.append(f"  caveat: {self.outcome.caveat}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _persist(run_dir: Optional[str], unit: str, artifacts: Mapping[str, str],
             digests: dict) -> Optional[str]:
    for name, text in artifacts.items():
        digests[name] = _digest(text)
    if run_dir is None:
        return None
    directory = os.path.join(run_dir, unit)
    os.makedirs(directory, exist_ok=True)
    for name, text in artifacts.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as f:
            f.write(text)
    return directory


def _simulate(original: Lct, extracted: Optional[Lct],
              sim_suite) -> SimVerdict:
    if not sim_suite or extracted is None:
        return SimVerdict.UNAVAILABLE
    try:
        aligned_orig, aligned_ext = equiv.align(original, extracted)
    except equiv.AlignError:
        return SimVerdict.FAIL
    if aligned_orig.feedback and not aligned_ext.feedback:
        # Extraction does not recover feedback bindings; reuse the
        # original's so traces can close the loop on both sides.
        aligned_ext = replace(aligned_ext, feedback=aligned_orig.feedback)
    try:
        for case in sim_suite:
            if original.clocking is Clocking.CLOCKED:
                got_a = sim.run_trace(aligned_orig, case)
                got_b = sim.run_trace(aligned_ext, case)
                states_a = [dict(s.registers) for s in got_a]
                states_b = [dict(s.registers) for s in got_b]
                if states_a != states_b:
                    return SimVerdict.FAIL
            else:
                if sim.eval_comb(aligned_orig, case) != \
                        sim.eval_comb(aligned_ext, case):
                    return SimVerdict.FAIL
    except LctError:
        return SimVerdict.FAIL
    return SimVerdict.PASS


def run_roundtrip(unit: Lct, fwd, inv, sim_suite=None,
                  run_dir: Optional[str] = None,
                  enum_limit: int = analysis.DEFAULT_ENUM_LIMIT
                  ) -> RoundTripReport:
    """Execute the closed loop for one unit: forward transform, inverse
    transform, alignment + comparison, optional simulation, and outcome
    classification.  All intermediate artifacts are persisted when a run
    directory is given."""
    timings = {}
    digests = {}
    notes = []
    artifacts = {}

    started = time.monotonic()
    fwd_req = build_forward_prompt(unit)
    artifacts["forward_prompt.txt"] = fwd_req.prompt
    fwd_resp = fwd.complete(fwd_req)
    artifacts["forward_response.txt"] = fwd_resp.text
    hdl_text = extract_code_block(fwd_resp.text)
    artifacts[f"{unit.name}.v"] = hdl_text
    timings["forward_s"] = time.monotonic() - started

    # Deterministic arbiter: re-extract the forward HDL ourselves.
    started = time.monotonic()
    schema = schema_of(unit)
    arb_table = None
    arb_result = None
    arbiter = ArbiterVerdict.UNAVAILABLE
    counterexample = None
    try:
        arb_table = extract.hdl_text_to_lct(hdl_text, *schema)
        arb_result = equiv.compare(unit, arb_table, enum_limit=enum_limit)
        if arb_result.verdict.equivalent:
            arbiter = ArbiterVerdict.FORWARD_MATCHES
        else:
            arbiter = ArbiterVerdict.FORWARD_DIFFERS
            counterexample = arb_result.counterexample
    except LctError as e:
        notes.append(f"arbiter: {e}")
    timings["arbiter_s"] = time.monotonic() - started

    started = time.monotonic()
    inv_req = build_inverse_prompt(hdl_text, schema)
    inv_req.payload.arbiter_table = arb_table
    artifacts["inverse_prompt.txt"] = inv_req.prompt
    reconstructed = None
    try:
        inv_resp = inv.complete(inv_req)
        artifacts["inverse_response.txt"] = inv_resp.text
        reconstructed = tableio.parse_unit_doc(
            extract_code_block(inv_resp.text))
        artifacts["reconstructed.unit"] = \
            tableio._render_unit_doc(reconstructed)
    except LctError as e:
        notes.append(f"no reconstruction: {e}")
        artifacts.setdefault("inverse_response.txt", f"<error> {e}\n")
    timings["inverse_s"] = time.monotonic() - started

    started = time.monotonic()
    textual = False
    semantic = None
    if reconstructed is not None:
        try:
            if arb_result is not None and reconstructed == arb_table:
                # compare is a pure function: same inputs, same result.
                result = arb_result
            else:
                # Align first: a misaligned table is reported as such
                # even when its clocking differs too.
                equiv.align(unit, reconstructed)
                result = equiv.compare(unit, reconstructed,
                                       enum_limit=enum_limit)
            textual = result.verdict is equiv.Verdict.TEXTUALLY_IDENTICAL
            semantic = result.verdict
            if counterexample is None:
                counterexample = result.counterexample
        except equiv.AlignError as e:
            notes.append(f"alignment failed: {e}")
        except equiv.CompareError as e:
            notes.append(f"comparison failed: {e}")
    sim_verdict = _simulate(unit, arb_table, sim_suite)
    timings["compare_s"] = time.monotonic() - started

    evidence = Evidence(textual, semantic, sim_verdict, arbiter)
    outcome = classify_outcome(evidence)
    artifacts["verdict.txt"] = _verdict_record(unit, outcome, counterexample)
    run_path = _persist(run_dir, unit.name, artifacts, digests)

    return RoundTripReport(unit=unit.name, outcome=outcome,
                           forward_backend=fwd.name,
                           inverse_backend=inv.name, timings=timings,
                           digests=digests, counterexample=counterexample,
                           notes=notes, run_dir=run_path)


def _verdict_record(unit: Lct, outcome: Outcome,
                    counterexample) -> str:
    lines = [f"unit={unit.name}",
             f"label={outcome.label.value}",
             f"textual={'match' if outcome.evidence.textual_match else 'mismatch'}",
             f"semantic={outcome.evidence.semantic.value if outcome.evidence.semantic else 'unavailable'}",
             f"sim={outcome.evidence.sim.value}",
             f"arbiter={outcome.evidence.arbiter.value}"]
    if counterexample:
        lines.append(f"counterexample={counterexample}")
    if outcome.caveat:
        lines.append(f"caveat={outcome.caveat}")
    return "\n".join(lines) + "\n"


def run_many(units: Sequence[Lct], fwd, inv, sim_suites=None,
             run_dir: Optional[str] = None, workers: int = 4,
             enum_limit: int = analysis.DEFAULT_ENUM_LIMIT
             ) -> List[RoundTripReport]:
    """Round-trip several units concurrently; each unit's pipeline stays
    sequential and reports come back in input order."""
    sim_suites = sim_suites or {}

    def job(unit: Lct) -> RoundTripReport:
        return run_roundtrip(unit, fwd, inv, sim_suites.get(unit.name),
                             run_dir, enum_limit)

    if workers <= 1 or len(units) <= 1:
        return [job(u) for u in units]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, units))
