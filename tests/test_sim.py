import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lctkit import analysis, expr, sim
from lctkit.model import (
    DONT_CARE,
    BitVector,
    CaseRow,
    Clocking,
    Constant,
    Direction,
    Lct,
    LctError,
    Port,
    PortMap,
    SignalHeader,
    SignalRef,
)
from .util import (
    DRESSED,
    RUNGS,
    TABLES,
    clocked_dont_care_lct,
    hold_spelling,
    load_fixture,
    random_lct,
    random_passthrough_lct,
    reference_eval_comb,
    reference_run_trace,
    reference_step_clocked,
    with_bad_cell,
)

BV = BitVector


def test_mux4_exhaustive_including_pass_through():
    """Every (enable, select) control assignment, with data outputs
    checked as opaque pass-through tokens."""
    table = load_fixture("mux4")
    for enable, select in itertools.product(range(2), range(4)):
        out = sim.eval_comb(table, {"enable": BV(1, enable),
                                    "select": BV(2, select)})
        if enable == 0:
            assert out["data_out"] == BV(8, 0)
        else:
            assert out["data_out"] == SignalRef(f"data{select}")


def test_mux4_pass_through_resolves_with_data_inputs():
    table = load_fixture("mux4")
    out = sim.eval_comb(table, {"enable": BV(1, 1), "select": BV(2, 2),
                                "data2": BV(8, 0xAB)})
    assert out["data_out"] == BV(8, 0xAB)


def test_unmatched_combinational_is_unspecified():
    from lctkit.model import (CaseRow, Clocking, Constant, Direction, Lct,
                              Port, PortMap, SignalHeader)
    table = Lct(name="partial", clocking=Clocking.COMBINATIONAL,
                conditions=(SignalHeader("a"),), results=("q",),
                rows=(CaseRow((Constant(BV(1, 1)),),
                              (Constant(BV(1, 1)),)),),
                ports=PortMap((Port(Direction.INPUT, "a", 1),
                               Port(Direction.OUTPUT, "q", 1))))
    assert sim.symbolic_outputs(table, (0,)) == (sim.UNSPEC,)
    assert sim.symbolic_outputs(table, (1,)) == (BV(1, 1),)


def test_regmux2_reset_backpress_select_trace():
    table = load_fixture("regmux2")
    stimulus = [
        # Reset
        {"rst_n": BV(1, 0), "ready": BV(1, 1), "valid_in": BV(1, 1),
         "select": BV(1, 0), "data0": BV(8, 0x11), "data1": BV(8, 0x22)},
        # Select 0
        {"rst_n": BV(1, 1), "ready": BV(1, 1), "valid_in": BV(1, 1),
         "select": BV(1, 0), "data0": BV(8, 0x33), "data1": BV(8, 0x44)},
        # Backpress: registers hold the prior cycle's values
        {"rst_n": BV(1, 1), "ready": BV(1, 0), "valid_in": BV(1, 1),
         "select": BV(1, 1), "data0": BV(8, 0x55), "data1": BV(8, 0x66)},
        # Select 1
        {"rst_n": BV(1, 1), "ready": BV(1, 1), "valid_in": BV(1, 1),
         "select": BV(1, 1), "data0": BV(8, 0x77), "data1": BV(8, 0x88)},
        # No input
        {"rst_n": BV(1, 1), "ready": BV(1, 1), "valid_in": BV(1, 0),
         "select": BV(1, 0), "data0": BV(8, 0x99), "data1": BV(8, 0xAA)},
    ]
    states = sim.run_trace(table, stimulus)
    expected = [
        {"valid_out": 0, "data_out": 0x00},
        {"valid_out": 1, "data_out": 0x33},
        {"valid_out": 1, "data_out": 0x33},  # held under backpressure
        {"valid_out": 1, "data_out": 0x88},
        {"valid_out": 0, "data_out": 0x00},
    ]
    for state, want in zip(states, expected):
        assert state.get("valid_out") == BV(1, want["valid_out"])
        assert state.get("data_out") == BV(8, want["data_out"])


def test_fsm4_feedback_trace_visits_0_2_3():
    table = load_fixture("fsm4")
    stimulus = [
        {"rst_n": BV(1, 0), "cond0": BV(1, 0), "cond1": BV(1, 0)},
        {"rst_n": BV(1, 1), "cond0": BV(1, 0), "cond1": BV(1, 1)},
        {"rst_n": BV(1, 1), "cond0": BV(1, 1), "cond1": BV(1, 0)},
    ]
    states = sim.run_trace(table, stimulus)
    assert [s.get("next_state").value for s in states] == [0, 2, 3]


def test_fsm4_hold_row_keeps_state_and_outputs():
    table = load_fixture("fsm4")
    stimulus = [
        {"rst_n": BV(1, 0), "cond0": BV(1, 0), "cond1": BV(1, 0)},
        {"rst_n": BV(1, 1), "cond0": BV(1, 1), "cond1": BV(1, 0)},  # -> 0,out0=1
        {"rst_n": BV(1, 1), "cond0": BV(1, 0), "cond1": BV(1, 0)},  # hold
    ]
    states = sim.run_trace(table, stimulus)
    assert dict(states[1].registers) == dict(states[2].registers)


def test_initial_state_is_all_zero():
    table = load_fixture("regmux2")
    state = sim.initial_state(table)
    assert state.get("valid_out") == BV(1, 0)
    assert state.get("data_out") == BV(8, 0)


def test_unmatched_clocked_assignment_holds():
    table = load_fixture("fsm4")
    state = sim.run_trace(table, [
        {"rst_n": BV(1, 0), "cond0": BV(1, 0), "cond1": BV(1, 0)},
        {"rst_n": BV(1, 1), "cond0": BV(1, 1), "cond1": BV(1, 1)},  # uncovered
    ])[-1]
    assert state.get("next_state") == BV(2, 0)


@pytest.mark.parametrize("step, name, message", [
    (lambda table: sim.eval_comb(table, {}), "fsm4",
     "eval_comb requires a combinational table"),
    (lambda table: sim.step_clocked(table, sim.SeqState(()), {}), "mux4",
     "step_clocked requires a clocked table"),
], ids=["eval_comb", "step_clocked"])
def test_each_step_requires_its_clocking(step, name, message):
    with pytest.raises(sim.SimError) as err:
        step(load_fixture(name))
    assert str(err.value) == message


def test_missing_condition_input_raises():
    table = load_fixture("mux4")
    with pytest.raises(sim.SimError):
        sim.eval_comb(table, {"enable": BV(1, 1)})


def test_parse_stimulus_blocks_and_comments():
    text = """\
# two cycles
rst_n = 0
select = 1

rst_n = 1  # second cycle
select = 0
"""
    table = load_fixture("regmux2")
    cycles = sim.parse_stimulus(text, table)
    assert len(cycles) == 2
    assert cycles[0]["rst_n"] == BV(1, 0)
    assert cycles[1]["select"] == BV(1, 0)


def test_parse_stimulus_shares_one_value_per_text_and_width():
    table = load_fixture("regmux2")
    cycles = sim.parse_stimulus(
        "rst_n = 1\nselect = 1\ndata0 = 1\n\nrst_n=1\ndata0 = 1\n", table)
    assert cycles[0]["rst_n"] is cycles[0]["select"] is cycles[1]["rst_n"]
    assert cycles[0]["data0"] is cycles[1]["data0"] == BV(8, 1)
    assert cycles[0]["rst_n"] == BV(1, 1)


def test_parse_stimulus_value_shared_at_one_width_fails_at_another():
    table = load_fixture("regmux2")
    with pytest.raises(sim.SimError,
                       match="^stimulus line 4: value 2 exceeds 1-bit width$"):
        sim.parse_stimulus("data0 = 2\n\ndata0 = 2\nrst_n = 2\n", table)


@pytest.mark.parametrize("text, message", [
    ("not an assignment\n", "stimulus line 1: expected name=value"),
    ("rst_n = 0\n\ncond0 = Z\n",
     "stimulus line 3: malformed literal: 'Z'"),
], ids=["no-equals", "bad-value"])
def test_parse_stimulus_rejects_bad_line(text, message):
    with pytest.raises(sim.SimError) as err:
        sim.parse_stimulus(text, load_fixture("fsm4"))
    assert str(err.value) == message


def test_format_trace_round_trips_through_grammar():
    table = load_fixture("fsm4")
    states = sim.run_trace(table, [
        {"rst_n": BV(1, 0), "cond0": BV(1, 0), "cond1": BV(1, 0)}])
    text = sim.format_trace(states)
    assert "next_state=0" in text


def test_control_space_size():
    assert sim.control_space_size(load_fixture("mux4")) == 8
    assert sim.control_space_size(load_fixture("fsm4")) == 32


# --- run_trace against a loop of step_clocked calls -------------------------

def _reference_trace(table, stimulus):
    """``run_trace`` as one public ``step_clocked`` call per cycle."""
    state = sim.initial_state(table)
    states = []
    for cycle, vector in enumerate(stimulus):
        inputs = dict(vector)
        for result, cond in table.feedback:
            if cond not in inputs:
                value = state.get(result)
                if not isinstance(value, BitVector):
                    raise sim.SimError(
                        f"cycle {cycle}: feedback {result} -> {cond} is not "
                        f"a known value ({value})")
                inputs[cond] = value
        state = sim.step_clocked(table, state, inputs)
        states.append(state)
    return states


def _clocked_table(kind, seed):
    """A clocked table of one of three generators.  A ``tests/util``
    table gets a feedback binding from a result to a signal condition of
    the same width when it has one, so that a pass-through, don't-care
    or hold result can reach a fed-back condition."""
    if kind == "fsm":
        rng = random.Random(seed)
        return analysis.generate_fsm(rng.choice([2, 4, 8]), rng.randint(1, 3),
                                     rng.randint(0, 2), seed)
    table = random_lct(seed, clocked=True, max_control_bits=6) \
        if kind == "random" else random_passthrough_lct(seed)
    table = dataclasses.replace(table, clocking=Clocking.CLOCKED)
    pairs = [(result, header.name) for header in table.conditions
             if isinstance(header, SignalHeader)
             for result in table.results
             if table.result_width(result) == table.condition_width(header)]
    if pairs and seed % 3:
        table = dataclasses.replace(table,
                                    feedback=(pairs[seed % len(pairs)],))
    return table


@settings(max_examples=150)
@given(st.sampled_from(["random", "passthrough", "fsm"]),
       st.integers(0, 10**6), st.integers(0, 12), st.integers(0, 10**6))
def test_run_trace_equals_a_loop_of_step_clocked(kind, seed, cycles,
                                                 stimulus_seed):
    """The same states, or the same error (a ``SimError``, or an
    ``ExprError`` for an expression input left out), as stepping cycle
    by cycle; a vector now and then lacks an input."""
    table = _clocked_table(kind, seed)
    rng = random.Random(stimulus_seed)
    fed = {cond for _, cond in table.feedback}
    ports = [p for p in table.ports.inputs() if p.name not in fed]
    stimulus = [{p.name: BV(p.width, rng.randrange(1 << p.width))
                 for p in ports if rng.random() > 0.02}
                for _ in range(cycles)]

    def outcome(run):
        try:
            return run(table, stimulus)
        except LctError as e:
            return f"{type(e).__name__}: {e}"

    assert outcome(sim.run_trace) == outcome(_reference_trace)


def test_clocked_dont_care_output_holds():
    """As codegen, extraction and canonicalization read it: the register
    keeps its value."""
    table = clocked_dont_care_lct()
    assert sim.symbolic_outputs(table, (1,)) == (sim.HOLD,)
    states = sim.run_trace(table, [{"c": BV(1, 0)}, {"c": BV(1, 1)}])
    assert [s.get("r") for s in states] == [BV(2, 2)] * 2


@settings(max_examples=150)
@given(st.sampled_from(["random", "passthrough"]), st.integers(0, 10**6),
       st.integers(0, 12), st.integers(0, 10**6))
def test_run_trace_reads_a_clocked_dont_care_as_a_hold(kind, seed, cycles,
                                                       stimulus_seed):
    """The same states, or the same error, with every don't-care output
    written as a hold."""
    table = _clocked_table(kind, seed)
    rng = random.Random(stimulus_seed)
    fed = {cond for _, cond in table.feedback}
    stimulus = [{p.name: BV(p.width, rng.randrange(1 << p.width))
                 for p in table.ports.inputs() if p.name not in fed}
                for _ in range(cycles)]

    def outcome(t):
        try:
            return sim.run_trace(t, stimulus)
        except LctError as e:
            return f"{type(e).__name__}: {e}"

    assert outcome(table) == outcome(hold_spelling(table))


# --- eval_comb, step_clocked and run_trace against a row scan ---------------

def _outcome(run, *args):
    try:
        return run(*args)
    except LctError as e:
        return f"{type(e).__name__}: {e}"


def _comb_table(kind, seed):
    if kind == "random":
        return random_lct(seed, clocked=False, max_control_bits=6)
    return dataclasses.replace(random_passthrough_lct(seed),
                               clocking=Clocking.COMBINATIONAL)


def _token_feedback_lct(seed):
    """A clocked table whose register ``s`` feeds condition ``state``
    back and may pass data input ``d`` through: a cycle that leaves
    ``d`` out leaves a token in ``s``, which the next cycle cannot feed
    back."""
    rng = random.Random(seed)

    def condition(width):
        if rng.random() < 0.3:
            return DONT_CARE
        return Constant(BV(width, rng.randrange(1 << width)))

    def output():
        return rng.choice([Constant(BV(2, rng.randrange(4))), SignalRef("d"),
                           SignalRef("s"), DONT_CARE])

    rows = tuple(CaseRow((condition(2), condition(1)), (output(),))
                 for _ in range(rng.randint(1, 6)))
    ports = PortMap((Port(Direction.INPUT, "state", 2),
                     Port(Direction.INPUT, "c", 1),
                     Port(Direction.INPUT, "d", 2),
                     Port(Direction.OUTPUT, "s", 2)))
    return Lct(name="token_fb", clocking=Clocking.CLOCKED,
               conditions=(SignalHeader("state"), SignalHeader("c")),
               results=("s",), rows=rows, ports=ports,
               feedback=(("s", "state"),))


def _vectors(table, rng, count, fed=()):
    """Random vectors over the table's inputs, less ``fed``; about one in
    seven leaves one input out: a condition, an expression operand, or a
    data input that a pass-through then keeps as a token."""
    ports = [p for p in table.ports.inputs() if p.name not in fed]
    vectors = []
    for _ in range(count):
        vector = {p.name: BV(p.width, rng.randrange(1 << p.width))
                  for p in ports}
        if vector and rng.random() < 0.15:
            del vector[rng.choice(sorted(vector))]
        vectors.append(vector)
    return vectors


@settings(max_examples=150)
@given(st.sampled_from(["random", "passthrough"]), st.integers(0, 10**6),
       st.integers(0, 10**6), st.booleans())
def test_eval_comb_equals_a_row_scan(kind, seed, vector_seed, bad_cell):
    """The same outputs or the same error per vector, the table's kernel
    reused from the first vector on; a clocked entry point refuses the
    table alike."""
    rng = random.Random(vector_seed)
    table = _comb_table(kind, seed)
    if bad_cell:
        table = with_bad_cell(table, rng)
    for vector in _vectors(table, rng, 24):
        assert _outcome(sim.eval_comb, table, vector) == \
            _outcome(reference_eval_comb, table, vector)
    assert _outcome(sim.run_trace, table, []) == \
        _outcome(reference_run_trace, table, [])


def _clocked_kind(kind, seed):
    return _token_feedback_lct(seed) if kind == "token" \
        else _clocked_table(kind, seed)


@settings(max_examples=150)
@given(st.sampled_from(["random", "passthrough", "fsm", "token"]),
       st.integers(0, 10**6), st.integers(0, 10**6), st.booleans())
def test_step_clocked_equals_a_row_scan(kind, seed, vector_seed, bad_cell):
    """The same next state or the same error per step, from the state
    the steps reached and from a state with no registers, where a hold
    raises ``no register named`` (before a bad cell later in its row)."""
    rng = random.Random(vector_seed)
    table = _clocked_kind(kind, seed)
    if bad_cell:
        table = with_bad_cell(table, rng)
    state, empty = sim.initial_state(table), sim.SeqState(())
    for vector in _vectors(table, rng, 16):
        got = _outcome(sim.step_clocked, table, state, vector)
        assert got == _outcome(reference_step_clocked, table, state, vector)
        assert _outcome(sim.step_clocked, table, empty, vector) == \
            _outcome(reference_step_clocked, table, empty, vector)
        if isinstance(got, sim.SeqState):
            state = got
    assert _outcome(sim.eval_comb, table, {}) == \
        _outcome(reference_eval_comb, table, {})


@settings(max_examples=150)
@given(st.sampled_from(["random", "passthrough", "fsm", "token"]),
       st.integers(0, 10**6), st.integers(0, 12), st.integers(0, 10**6),
       st.booleans())
def test_run_trace_equals_a_row_scan(kind, seed, cycles, stimulus_seed,
                                     bad_cell):
    """The same states or the same error on every prefix of the
    stimulus, so that an error comes at the same cycle: a missing
    input, a feedback value that is not known, or a bad output cell."""
    rng = random.Random(stimulus_seed)
    table = _clocked_kind(kind, seed)
    if bad_cell:
        table = with_bad_cell(table, rng)
    fed = {cond for _, cond in table.feedback}
    stimulus = _vectors(table, rng, cycles, fed)
    for end in range(cycles + 1):
        assert _outcome(sim.run_trace, table, stimulus[:end]) == \
            _outcome(reference_run_trace, table, stimulus[:end])


@settings(max_examples=100)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_a_replaced_table_never_reuses_its_source_kernel(seed, vector_seed):
    """``dataclasses.replace`` with other rows or another clocking gives
    a table that builds its own kernel and evaluates as a row scan of
    its own rows does."""
    rng = random.Random(vector_seed)
    table = _comb_table("passthrough", seed)
    vectors = _vectors(table, rng, 8)
    for vector in vectors:
        _outcome(sim.eval_comb, table, vector)
    kernel = sim._kernel(table)
    assert sim._kernel(table) is kernel
    reordered = dataclasses.replace(table, rows=table.rows[::-1])
    clocked = dataclasses.replace(table, clocking=Clocking.CLOCKED)
    for other in (reordered, clocked):
        assert sim._kernel(other) is not kernel
    state = sim.initial_state(clocked)
    for vector in vectors:
        assert _outcome(sim.eval_comb, reordered, vector) == \
            _outcome(reference_eval_comb, reordered, vector)
        assert _outcome(sim.step_clocked, clocked, state, vector) == \
            _outcome(reference_step_clocked, clocked, state, vector)


# --- values are the table's own objects -------------------------------------

def _check_kind(value):
    """A value is a ``BitVector``, a ``SignalRef``, ``HOLD`` or
    ``UNSPEC``, and its ``str`` is its decimal value or the name of the
    input it passes through."""
    if type(value) is BV:
        assert str(value) == str(value.value)
    elif type(value) is SignalRef:
        assert str(value) == value.name
    else:
        assert value is sim.HOLD or value is sim.UNSPEC


def _check_value(table, result, cell, value, inputs):
    """``value`` is what ``cell`` of column ``result`` gives at
    ``inputs``: a constant its cell's own ``bv``, a pass-through of an
    input not supplied its cell, of a supplied one the input's value."""
    _check_kind(value)
    if type(cell) is Constant:
        assert value is cell.bv
    elif type(cell) is SignalRef and cell.name == result:
        assert value is sim.HOLD
    elif type(cell) is SignalRef:
        assert value == inputs[cell.name] if cell.name in inputs \
            else value is cell
    else:
        clocked = table.clocking is Clocking.CLOCKED
        assert value is (sim.HOLD if clocked else sim.UNSPEC)


def _data_on_every_other(table, rng, count):
    """Seeded vectors over the inputs but the fed-back conditions; the
    inputs that no condition reads are left out of every other one."""
    control = set()
    for header in table.conditions:
        control |= {header.name} if isinstance(header, SignalHeader) \
            else header.identifiers()
    fed = {cond for _, cond in table.feedback}
    return [{p.name: BV(p.width, rng.randrange(1 << p.width))
             for p in table.ports.inputs()
             if p.name not in fed and (i % 2 == 0 or p.name in control)}
            for i in range(count)]


@settings(max_examples=100)
@given(st.one_of(TABLES, DRESSED, RUNGS), st.integers(0, 10**6))
def test_values_are_the_tables_own_objects(table, seed):
    """Every value that ``row_values``, ``eval_comb``, ``run_trace`` and
    ``symbolic_outputs`` give is an object of the table, an input or a
    hold or unspecified marker, never a copy."""
    rng = random.Random(seed)
    rows = table.rows + (CaseRow((), (DONT_CARE,) * len(table.results)),)
    for row, values in zip(rows, sim.row_values(table)):
        for result, cell, value in zip(table.results, row.outputs, values):
            _check_value(table, result, cell, value, {})

    compiled = sim.compile_rows(table)
    vectors = _data_on_every_other(table, rng, 8)
    if table.clocking is Clocking.COMBINATIONAL:
        for vector in vectors:
            outputs = sim.eval_comb(table, vector)
            index = sim.first_match(compiled, tuple(
                vector[h.name].value if isinstance(h, SignalHeader)
                else expr.truth(h.tree, vector) for h in table.conditions))
            row = rows[-1 if index is None else index]
            for result, cell in zip(table.results, row.outputs):
                _check_value(table, result, cell, outputs[result], vector)
    else:
        own = {id(cell) for row in table.rows for cell in row.outputs}
        own |= {id(cell.bv) for row in table.rows for cell in row.outputs
                if type(cell) is Constant}
        own |= {id(bv) for vector in vectors for bv in vector.values()}
        try:
            states = sim.run_trace(table, vectors)
        except sim.SimError:
            states = []  # a pass-through fed back, not a known value
        for state in states:
            for result, value in state.registers:
                _check_kind(value)
                assert id(value) in own or \
                    value == BV(table.result_width(result), 0)

    widths = [table.condition_width(h) for h in table.conditions]
    for _ in range(16):
        assignment = tuple(rng.randrange(1 << w) for w in widths)
        index = sim.first_match(compiled, assignment)
        known = {h.name: BV(table.condition_width(h), value)
                 for h, value in zip(table.conditions, assignment)
                 if isinstance(h, SignalHeader)}
        row = rows[-1 if index is None else index]
        outputs = sim.symbolic_outputs(table, assignment, compiled)
        for result, cell, value in zip(table.results, row.outputs, outputs):
            _check_value(table, result, cell, value, known)


@settings(max_examples=200)
@given(st.one_of(TABLES, DRESSED), st.integers(0, 10**6))
def test_symbolic_outputs_scan_the_rows_as_compiled_rows_give(table, seed):
    """Without compiled rows, ``symbolic_outputs`` scans the table's own
    rows and gives what it gives from ``compile_rows``, at every point of
    a small table and at seeded points of a larger one."""
    compiled = sim.compile_rows(table)
    if sim.control_space_size(table) <= 256:
        points = list(sim.enumerate_assignments(table))
    else:
        rng = random.Random(seed)
        widths = [table.condition_width(h) for h in table.conditions]
        points = [tuple(rng.randrange(1 << w) for w in widths)
                  for _ in range(64)]
    for assignment in points:
        assert sim.symbolic_outputs(table, assignment) == \
            sim.symbolic_outputs(table, assignment, compiled)
