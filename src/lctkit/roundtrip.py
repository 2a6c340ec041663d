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

import contextlib
import hashlib
import json
import os
import re
import time
from collections import Counter
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


# An opening fence: an info string, then spaces or tabs, ends its line
# with LF or CRLF.  A block with no closing fence runs to the end.
_CODE_BLOCK_RE = re.compile(r"```[\w-]*[ \t]*\r?\n(.*?)(?:```|\Z)",
                            re.DOTALL)
_BLANK_TO_END_RE = re.compile(r"\s*\Z")
_BARE_FENCE_LINE_RE = re.compile(r"[ \t]*(?:\r?\n|\Z)")
_BLOCK_BEFORE_RE = re.compile(
    rf"endmodule\s*\Z|\n{tableio.UNIT_DOC_SEPARATOR}\n")


def extract_code_block(text: str, module: Optional[str] = None) -> str:
    """Take the first fenced code block, else the whole body.  A block
    cut off before its closing fence is the text after its opening
    fence line.  A first fence closes a block never opened, the text
    before it, when only whitespace follows it, or when it has no info
    string and that text ends in ``endmodule`` or holds a unit document's
    separator line.  Given a ``module`` name, the first fenced block
    that declares that module is taken when the block this rule takes
    does not, so a testbench or usage example shown first is passed
    over."""
    first = text.find("```")
    if first >= 0 and (_BLANK_TO_END_RE.match(text, first + 3) or (
            _BARE_FENCE_LINE_RE.match(text, first + 3)
            and _BLOCK_BEFORE_RE.search(text, 0, first))):
        block = text[:first]
    else:
        m = _CODE_BLOCK_RE.search(text)
        block = m.group(1) if m else text
    if module is None:
        return block
    declares = re.compile(rf"\bmodule\s+{re.escape(module)}\b").search
    if declares(block):
        return block
    blocks = (m.group(1) for m in _CODE_BLOCK_RE.finditer(text))
    return next((b for b in blocks if declares(b)), block)


# ---------------------------------------------------------------------------
# Prompt builders

@dataclass(slots=True)
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
            return TransformResponse(codegen.gen_unit(table, self.style))
        payload = request.payload
        if not isinstance(payload, InversePayload):
            raise BackendError("inverse request has no HDL payload")
        table = payload.arbiter_table
        if table is None:
            table = extract.hdl_text_to_lct(
                payload.hdl_text, payload.conditions, payload.results)
        return TransformResponse(tableio.serialize_unit_doc(table))


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
            return self.inner.complete(replace(request, payload=mutated))
        response = self.inner.complete(request)
        table = tableio.parse_unit_doc(response.text)
        return TransformResponse(tableio.serialize_unit_doc(self.fault(table)))


# The longest wait between two remote attempts, whatever Retry-After asks.
_MAX_BACKOFF_S = 30


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
        """Post the prompt, retrying only transient faults: a connection
        error, a timeout, 429 and 5xx.  Any other 4xx, or a body without
        ``choices[0].message.content``, fails at once."""
        import requests
        transient = (ConnectionError, TimeoutError, requests.ConnectionError,
                     requests.Timeout)
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
        }
        last_error = None
        for attempt in range(self.retries):
            if attempt:  # back off between attempts, not after the last
                time.sleep(delay)
            delay = min(2 ** attempt, _MAX_BACKOFF_S)
            try:
                response = self._post(payload)
            except transient as e:
                last_error = e
                continue
            status = response.status_code
            if status == 429 or status >= 500:
                last_error = f"HTTP {status}"
                after = response.headers.get("Retry-After", "")
                if after.isascii() and after.isdigit():
                    delay = min(int(after), _MAX_BACKOFF_S)
                continue
            if status >= 400:
                raise BackendError(f"{self.name}: HTTP {status}")
            try:
                text = response.json()["choices"][0]["message"]["content"]
            except (ValueError, LookupError, TypeError) as e:
                raise BackendError(f"{self.name}: malformed response body: "
                                   f"{type(e).__name__}: {e}")
            if not isinstance(text, str) or not text:
                raise BackendError(f"{self.name}: response has no content")
            return TransformResponse(text)
        raise BackendError(
            f"{self.name}: {self.retries} attempts failed: {last_error}")


# ---------------------------------------------------------------------------
# Fault library

def drop_row(index: int) -> Callable[[Lct], Lct]:
    def fault(table: Lct) -> Lct:
        rows = list(table.rows)
        del rows[index]
        return replace(table, rows=tuple(rows))
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


@dataclass(slots=True)
class Outcome:
    """A round trip's label, the verdicts it was read from (``semantic``
    is None without a reconstruction), and a caveat on the label."""
    label: Label
    semantic: Optional[equiv.Verdict]
    sim: SimVerdict
    arbiter: ArbiterVerdict
    caveat: Optional[str] = None


def classify_outcome(semantic: Optional[equiv.Verdict],
                     sim: SimVerdict = SimVerdict.UNAVAILABLE,
                     arbiter: ArbiterVerdict = ArbiterVerdict.UNAVAILABLE
                     ) -> Outcome:
    """Map comparison/simulation/arbiter verdicts to an outcome label.

    A textually identical reconstruction is M (or M SP when simulation
    fails, pointing at the specification rather than either transform),
    and other equivalent ones are X EQ, unless the arbiter finds the
    forward HDL differs: a masked X FW.  Remaining mismatches go to the
    forward direction (X FW, or X FW~S when simulation missed it) unless
    the arbiter shows the forward HDL still matches the original, which
    isolates the inverse transform (X INV).
    """
    caveat = None
    textual = semantic is equiv.Verdict.TEXTUALLY_IDENTICAL
    equivalent = semantic is not None and semantic.equivalent
    if textual and arbiter is not ArbiterVerdict.FORWARD_DIFFERS:
        label = Label.M_SP if sim is SimVerdict.FAIL else Label.M
        if sim is SimVerdict.UNAVAILABLE:
            caveat = ("no simulation evidence: cannot distinguish M from "
                      "M SP")
    elif equivalent and arbiter is not ArbiterVerdict.FORWARD_DIFFERS:
        label = Label.X_EQ
    elif arbiter is ArbiterVerdict.FORWARD_MATCHES:
        label = Label.X_INV
    else:
        label = Label.X_FW_NS if sim is SimVerdict.PASS else Label.X_FW
        if arbiter is ArbiterVerdict.UNAVAILABLE:
            caveat = "forward HDL not analyzable; attributing to forward"
        elif equivalent:
            what = "textual match" if textual else "equivalent reconstruction"
            caveat = f"{what} masks a forward fault the arbiter found"
    return Outcome(label, semantic, sim, arbiter, caveat)


# ---------------------------------------------------------------------------
# Round-trip driver

@dataclass(slots=True)
class RoundTripReport:
    unit: str
    outcome: Optional[Outcome]
    forward_backend: str
    inverse_backend: str
    timings: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    counterexample: Optional[equiv.Counterexample] = None
    notes: List[str] = field(default_factory=list)
    run_dir: Optional[str] = None
    error: Optional[str] = None  # "<stage>: <Type>: <message>", no outcome

    @property
    def status(self) -> str:
        """The outcome's label, or ``error`` when there is none."""
        return self.outcome.label.value if self.outcome else "error"

    def render(self) -> str:
        lines = [f"unit {self.unit}: {self.status}",
                 f"  forward: {self.forward_backend}",
                 f"  inverse: {self.inverse_backend}"]
        if self.error:
            lines.append(f"  error: {self.error}")
        if self.counterexample:
            lines.append(f"  counterexample: {self.counterexample}")
        if self.outcome and self.outcome.caveat:
            lines.append(f"  caveat: {self.outcome.caveat}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# A unit's run directory: ``record.json`` maps every other artifact's name
# to its text under "artifacts", and ``verdict.txt`` is written after it.
RECORD = "record.json"
VERDICT = "verdict.txt"


def _persist(run_dir: Optional[str], unit: str, artifacts: Mapping[str, str],
             digests: dict) -> Optional[str]:
    for name, text in artifacts.items():
        digests[name] = _digest(text)
    if run_dir is None:
        return None
    directory = os.path.join(run_dir, unit)
    verdict_path = os.path.join(directory, VERDICT)
    try:
        os.makedirs(directory)
    except FileExistsError:
        # A rerun: a verdict must never sit beside a record being rewritten.
        with contextlib.suppress(FileNotFoundError):
            os.remove(verdict_path)
    record = {"artifacts": {name: text for name, text in artifacts.items()
                            if name != VERDICT}}
    with open(os.path.join(directory, RECORD), "w", encoding="utf-8") as f:
        f.write(json.dumps(record, indent=2, ensure_ascii=False))
    with open(verdict_path, "w", encoding="utf-8") as f:
        f.write(artifacts[VERDICT])
    return directory


def _simulate(original: Lct, extracted: Optional[Lct],
              sim_suite) -> SimVerdict:
    if not sim_suite or extracted is None:
        return SimVerdict.UNAVAILABLE
    aligned_orig, aligned_ext = equiv.align(original, extracted)
    if aligned_orig.feedback and not aligned_ext.feedback:
        # Extraction does not recover feedback bindings; reuse the
        # original's so traces can close the loop on both sides.
        aligned_ext = replace(aligned_ext, feedback=aligned_orig.feedback)
    run = sim.run_trace if original.clocking is Clocking.CLOCKED \
        else sim.eval_comb
    if all(run(aligned_orig, case) == run(aligned_ext, case)
           for case in sim_suite):
        return SimVerdict.PASS
    return SimVerdict.FAIL


def _stage(report: RoundTripReport, name: str, run: Callable[[], object]):
    """Run one stage, timed into ``timings[<name>_s]``, unless the round
    trip has failed.  The one exception boundary of a round trip: an
    ``LctError`` after ``forward`` is a finding, noted ``<name>: <message>``,
    and the stage gives None; any other failure, or a ``BackendError``,
    is the round trip's ``error``."""
    if report.error is not None:
        return None
    started = time.monotonic()
    try:
        return run()
    except Exception as e:  # noqa: BLE001 - one unit's failure is its result
        if name == "forward" or not isinstance(e, LctError) \
                or isinstance(e, BackendError):
            report.error = f"{name}: {type(e).__name__}: {e}"
        else:
            report.notes.append(f"{name}: {e}")
    finally:
        report.timings[f"{name}_s"] = time.monotonic() - started


def run_roundtrip(unit: Lct, fwd, inv, sim_suite=None,
                  run_dir: Optional[str] = None,
                  enum_limit: int = analysis.DEFAULT_ENUM_LIMIT, *,
                  _dir_name: Optional[str] = None) -> RoundTripReport:
    """Run the closed loop for one unit in five stages (forward, arbiter,
    inverse, compare, simulate) and classify the outcome.  Artifacts, up
    to a failure if any, persist under ``<run_dir>/<unit name>`` when a
    run directory is given (``run_many`` passes ``_dir_name`` to keep
    units of one name apart); failing to write them is the unit's
    ``error``.

    The reconstruction is the arbiter's table, and reuses its
    comparison, exactly when their unit texts are equal: a response
    spelled as the arbiter's text is ``reconstructed.unit`` as it
    stands, and any other is rendered from the parsed table.  That
    decides as ``==`` would: an extracted table's text, which has no
    label or comment column, parses back to that table, and so does
    the text of any parsed table without those columns."""
    report = RoundTripReport(unit.name, None, fwd.name, inv.name)
    artifacts = {}
    schema = schema_of(unit)
    arb_table = None
    same_text = False  # the reconstruction's text is the arbiter table's

    def forward():
        request = build_forward_prompt(unit)
        artifacts["forward_prompt.txt"] = request.prompt
        response = fwd.complete(request).text
        artifacts["forward_response.txt"] = response
        artifacts[f"{unit.name}.v"] = extract_code_block(response, unit.name)
        return artifacts[f"{unit.name}.v"]

    def arbiter():
        # Re-extract the forward HDL deterministically.  The inverse and
        # the simulation use the extraction even if the comparison fails.
        nonlocal arb_table
        arb_table = extract.hdl_text_to_lct(hdl_text, *schema)
        return equiv.compare(unit, arb_table, enum_limit=enum_limit)

    def inverse():
        nonlocal same_text
        request = build_inverse_prompt(hdl_text, schema)
        request.payload.arbiter_table = arb_table
        artifacts["inverse_prompt.txt"] = request.prompt
        response = inv.complete(request).text
        artifacts["inverse_response.txt"] = response
        block = extract_code_block(response)
        table = tableio.parse_unit_doc(block)
        # A response spelled as the arbiter's text is already normalized.
        expected = None if arb_table is None \
            else tableio.serialize_unit_doc(arb_table)
        text = block if block == expected \
            else tableio.serialize_unit_doc(table)
        artifacts["reconstructed.unit"] = text
        same_text = text == expected
        return table

    def compare():
        if reconstructed is None:
            return None
        if arb_result is not None and same_text:
            return arb_result  # compare is a pure function
        return equiv.compare(unit, reconstructed, enum_limit=enum_limit)

    hdl_text = _stage(report, "forward", forward)
    arb_result = _stage(report, "arbiter", arbiter)
    reconstructed = _stage(report, "inverse", inverse)
    if reconstructed is None and report.error is None:
        # The inverse's finding, just noted, stands in for a response.
        error = report.notes[-1].partition(": ")[2]
        artifacts.setdefault("inverse_response.txt", f"<error> {error}\n")
    result = _stage(report, "compare", compare)
    sim_verdict = _stage(report, "simulate",
                         lambda: _simulate(unit, arb_table, sim_suite))

    if report.error is None:
        arbiter = ArbiterVerdict.UNAVAILABLE if arb_result is None else \
            ArbiterVerdict.FORWARD_MATCHES if arb_result.verdict.equivalent \
            else ArbiterVerdict.FORWARD_DIFFERS
        report.counterexample = (arb_result and arb_result.counterexample) \
            or (result and result.counterexample)
        report.outcome = classify_outcome(
            result and result.verdict, sim_verdict or SimVerdict.FAIL,
            arbiter)
    artifacts[VERDICT] = _verdict_record(report)
    try:
        report.run_dir = _persist(run_dir, _dir_name or unit.name, artifacts,
                                  report.digests)
    except OSError as e:
        failure = f"persist: {type(e).__name__}: {e}"
        if report.error is None:
            report.error = failure
            report.outcome = report.counterexample = None
        else:  # keep the failure that ended the round trip
            report.notes.append(failure)
    return report


def _verdict_record(report: RoundTripReport) -> str:
    outcome = report.outcome
    if outcome is None:
        return f"unit={report.unit}\nerror={report.error}\n"
    lines = [f"unit={report.unit}",
             f"label={outcome.label.value}",
             f"textual={'match' if outcome.semantic is equiv.Verdict.TEXTUALLY_IDENTICAL else 'mismatch'}",
             f"semantic={outcome.semantic.value if outcome.semantic else 'unavailable'}",
             f"sim={outcome.sim.value}",
             f"arbiter={outcome.arbiter.value}"]
    if report.counterexample:
        lines.append(f"counterexample={report.counterexample}")
    if outcome.caveat:
        lines.append(f"caveat={outcome.caveat}")
    return "\n".join(lines) + "\n"


def run_many(units: Sequence[Lct], fwd, inv, sim_suites=None,
             run_dir: Optional[str] = None, workers: int = 4,
             enum_limit: int = analysis.DEFAULT_ENUM_LIMIT
             ) -> List[RoundTripReport]:
    """Round-trip several units concurrently; each unit's pipeline stays
    sequential and reports come back in input order.  A unit persists to
    ``<run_dir>/<name>``, or to ``<run_dir>/<name>-<n>`` when it is the
    n-th unit of that name (n >= 2); a name is an identifier, so that
    never meets another unit's directory.  The run directory is made
    first, so an unusable one raises ``OSError`` before any unit runs."""
    if run_dir is not None:
        os.makedirs(run_dir, exist_ok=True)
    sim_suites = sim_suites or {}
    seen = Counter()
    dir_names = []
    for unit in units:
        seen[unit.name] += 1
        n = seen[unit.name]
        dir_names.append(unit.name if n == 1 else f"{unit.name}-{n}")

    def job(unit: Lct, dir_name: str) -> RoundTripReport:
        return run_roundtrip(unit, fwd, inv, sim_suites.get(unit.name),
                             run_dir, enum_limit, _dir_name=dir_name)

    if workers <= 1 or len(units) <= 1:
        return list(map(job, units, dir_names))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, units, dir_names))
