"""
lctkit: model, analyze, simulate, compile, and round-trip logic
condition tables (LCTs).

An LCT specifies digital logic as a table: condition columns over input
signals, result columns over outputs, and prioritized case rows with
first-match semantics.  The toolkit compiles tables to a synthesizable
Verilog subset, reconstructs tables from that subset, decides semantic
equivalence by exhaustive enumeration, and drives a closed-loop round
trip through pluggable (including remote) transform backends.
"""

from .model import (
    BitVector,
    CaseRow,
    Clocking,
    ConnectivityTable,
    Constant,
    DONT_CARE,
    Direction,
    DontCare,
    ExprHeader,
    Lct,
    LctError,
    Port,
    PortMap,
    SignalHeader,
    SignalRef,
    TransformDirection,
    TransformRequest,
    TransformResponse,
    parse_cell,
    parse_literal,
    validate_lct,
)
from .tableio import (
    ParseError,
    UnitBundle,
    load_unit,
    parse_connectivity,
    parse_unit,
    parse_unit_doc,
    save_unit,
    serialize_unit,
    serialize_unit_doc,
)
from .analysis import (
    CoverageReport,
    DEFAULT_ENUM_LIMIT,
    EnumLimitError,
    canonicalize,
    check_coverage,
    expand_dont_cares,
    generate_fsm,
)
from .sim import (
    Hold,
    SeqState,
    SimError,
    Unspecified,
    eval_comb,
    initial_state,
    run_trace,
    step_clocked,
)
from .codegen import CodegenError, STYLE_CASE, STYLE_IF, gen_structural, gen_unit
from .hdl import HdlError, parse_hdl
from .extract import ExtractError, hdl_text_to_lct, hdl_to_lct
from .equiv import (
    AlignError,
    CompareError,
    Counterexample,
    EquivResult,
    Verdict,
    align,
    compare,
    textual_match,
)
from .roundtrip import (
    DeterministicBackend,
    FaultInjectingBackend,
    Label,
    Outcome,
    RemoteChatBackend,
    RoundTripReport,
    classify_outcome,
    run_many,
    run_roundtrip,
)

__version__ = "0.1.0"
