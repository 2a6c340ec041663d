#!/usr/bin/env python3
"""A behaviour fingerprint: one SHA-256 per section over a fixed corpus.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tools/fingerprint.py [--check | --update]
        [--dump DIR]

Each section is a list of lines, one per observable fact, over a fixed
and seeded corpus; its digest is the SHA-256 of those lines.

- ``analysis``: the canonical text, and the coverage report rendered
  in two halves (gaps and warnings; shadowed rows and overlaps), of the
  reference fixtures, seeded tables of the generators in
  ``tests/util.py``, ``generate_fsm`` rungs (one past a walk block) and a
  few tables written here: labelled and commented rows, columns out of
  key order, clocked don't-care outputs, an expression column holding
  ``1'd1`` and ``2'd1``, and an unvalidated table with a signal in an
  input cell.  Each table is also canonicalized with its columns
  permuted.
- ``equiv``: the verdict, counterexample and normalizations of
  ``equiv.compare`` in both orders, for reversed, dropped-row, mutated,
  column-permuted and don't-care-expanded variants of those tables.
- ``roundtrip``: the label or error, notes, counterexample and caveat of
  round trips in both HDL styles under the deterministic pair and, in
  each direction, a transform that drops a row, one that alters a cell,
  one whose response does not parse and one that raises; with the
  ``verdict.txt`` and ``record.json`` texts each leaves.
- ``hdl``: what the reader makes of HDL texts: a digest of the parse
  tree, or the error with its line and column, then per process the
  extracted unit document, or the error.  The texts are the codegen HDL
  of the ``analysis`` corpus in both styles, under each table's schema;
  the hand-written texts of ``tests/test_hdl.py`` and
  ``tests/test_extract.py``, found in their source, under a schema of
  the module's outputs (or a ``_foreign`` body's own); and, of those
  texts and the codegen HDL of the first tables, seeded variants from
  ``tests/util.py``: cut after a token, with a token deleted or written
  twice, or with a stray character.  Editing those test texts changes
  this digest.
- ``sim``: the ``str`` renderings of the simulator's values over the
  ``analysis`` corpus: per table, its rows' values as the kernel
  resolves them; ``eval_comb`` at up to 16 seeded input vectors of a
  combinational table, or ``format_trace`` of ``run_trace`` over a
  seeded 16-cycle stimulus of a clocked one, with the data inputs (those
  no condition reads) supplied on every other vector, so that known
  values and pass-throughs both show; and ``symbolic_outputs`` at up to
  16 control assignments, all of a smaller space, else seeded ones.
  Each error is recorded as its text.

Without an option it prints the five digests.  ``--check`` compares
them with ``tools/fingerprint.json`` and exits 1, naming each section
that differs; ``--update`` writes them there.  ``--dump DIR`` writes each
section's lines to ``DIR/<section>.txt``, to diff two checkouts.  A
change of behaviour on purpose updates the committed digests and names
the sections it changed.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import functools
import hashlib
import json
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)  # the corpus generators live in tests/util.py

from lctkit import analysis, codegen, equiv, extract, hdl, sim, tableio  # noqa: E402
from lctkit import roundtrip as rt  # noqa: E402
from lctkit.model import (  # noqa: E402
    BitVector,
    CaseRow,
    Clocking,
    Constant,
    DONT_CARE,
    Direction,
    ExprHeader,
    Lct,
    LctError,
    Port,
    PortMap,
    SignalHeader,
    SignalRef,
    TransformDirection,
    TransformResponse,
)
from tests import test_extract, test_hdl, util  # noqa: E402

DIGESTS = os.path.join(ROOT, "tools", "fingerprint.json")
SEEDS = range(120)
FSM_RUNGS = ((8, 4, 4, 1), (16, 4, 4, 1), (32, 4, 4, 1), (16, 9, 2, 5))


def _const(width, value):
    return Constant(BitVector(width, value))


def _written_tables():
    """Tables for the branches the generators do not reach."""
    ports = PortMap((Port(Direction.INPUT, "sel", 2),
                     Port(Direction.INPUT, "en", 1),
                     Port(Direction.INPUT, "d", 4),
                     Port(Direction.OUTPUT, "y", 4),
                     Port(Direction.OUTPUT, "v", 1)))
    rows = (CaseRow((_const(1, 1), _const(2, 3)), (SignalRef("d"), _const(1, 1)),
                    label="load", comment="pass d"),
            CaseRow((_const(1, 1), DONT_CARE), (_const(4, 9), DONT_CARE),
                    comment="busy"),
            CaseRow((_const(1, 0), DONT_CARE), (DONT_CARE, _const(1, 0)),
                    label="idle"))
    labelled = Lct(name="labelled", clocking=Clocking.CLOCKED,
                   conditions=(SignalHeader("sel"), SignalHeader("en")),
                   results=("y", "v"), rows=rows, ports=ports)
    expr_ports = PortMap((Port(Direction.INPUT, "ea", 1),
                          Port(Direction.INPUT, "eb", 1),
                          Port(Direction.OUTPUT, "q", 2)))

    def expr_table(width):
        return Lct(name=f"expr{width}", clocking=Clocking.COMBINATIONAL,
                   conditions=(ExprHeader("ea & eb"),), results=("q",),
                   rows=tuple(CaseRow((_const(width, v),), (_const(2, v + 1),))
                              for v in (1, 0)),
                   ports=expr_ports)
    unvalidated = Lct(
        name="signal_in_input", clocking=Clocking.COMBINATIONAL,
        conditions=(SignalHeader("b"), SignalHeader("a")), results=("q",),
        rows=(CaseRow((SignalRef("a"), _const(1, 1)), (_const(1, 1),)),
              CaseRow((_const(1, 0), DONT_CARE), (_const(1, 0),)),
              CaseRow((DONT_CARE, SignalRef("b")), (_const(1, 1),))),
        ports=PortMap((Port(Direction.INPUT, "a", 1),
                       Port(Direction.INPUT, "b", 1),
                       Port(Direction.OUTPUT, "q", 1))))
    # Disjoint, so its rows are sorted with signals in input cells.
    sortable = dataclasses.replace(
        unvalidated, name="signal_in_input_sorted",
        rows=(CaseRow((SignalRef("a"), _const(1, 1)), (_const(1, 1),)),
              CaseRow((DONT_CARE, _const(1, 0)), (_const(1, 0),))))
    constant = Lct(name="constant", clocking=Clocking.COMBINATIONAL,
                   conditions=(), results=("q",),
                   rows=(CaseRow((), (_const(1, 1),)),),
                   ports=PortMap((Port(Direction.INPUT, "a", 1),
                                  Port(Direction.OUTPUT, "q", 1))))
    return [labelled, expr_table(1), expr_table(2), unvalidated, sortable,
            constant, util.clocked_dont_care_lct()]


def corpus():
    tables = [util.load_fixture(name) for name in ("mux4", "regmux2", "fsm4")]
    for seed in SEEDS:
        tables.append(util.random_lct(seed))
        tables.append(util.random_disjoint_lct(seed, clocked=seed % 2 == 1))
        tables.append(util.random_passthrough_lct(seed))
    tables += [analysis.generate_fsm(*rung) for rung in FSM_RUNGS]
    return tables + _written_tables()


def _text(table):
    return tableio.combine_unit_doc(
        *tableio._render_unit(dataclasses.replace(table, name="unit")))


def _outcome(run):
    """What ``run()`` returns, or the text of the error it raises."""
    try:
        return run()
    except LctError as e:
        return f"{type(e).__name__}: {e}"


def _fact(kind, name, run):
    """One line: ``kind name: <json of run()>``, or of the error raised."""
    return f"{kind} {name}: {json.dumps(_outcome(run))}"


def analysis_lines(tables):
    lines = []
    for index, table in enumerate(tables):
        name = f"{index}:{table.name}"
        permuted = util.permute_columns(table, random.Random(index))
        lines.append(_fact("canon", name,
                           lambda: _text(analysis.canonicalize(table))))
        lines.append(_fact("canon-permuted", name,
                           lambda: _text(analysis.canonicalize(permuted))))
        # One coverage report, rendered in two halves: the gaps and
        # warnings, then the shadowed rows and overlaps.
        coverage = functools.cache(lambda: analysis.check_coverage(table))
        lines.append(_fact("complete", name, lambda: dataclasses.replace(
            coverage(), shadowed_rows=[], conflicts=[]).render()))
        lines.append(_fact("overlap", name, lambda: dataclasses.replace(
            coverage(), uncovered=[], warnings=[]).render()))
    return lines


def _variants(table, rng):
    rows = table.rows
    out = {"reversed": dataclasses.replace(table, rows=rows[::-1]),
           "permuted": util.permute_columns(table, rng)}
    if rows:
        drop = rng.randrange(len(rows))
        out["dropped"] = dataclasses.replace(
            table, rows=rows[:drop] + rows[drop + 1:])
    try:
        out["mutated"] = util.mutate_output(table, rng)[0]
    except (ValueError, LctError):
        pass
    if sim.control_space_size(table) <= 1 << 10:
        out["expanded"] = analysis.expand_dont_cares(table)
    return out


def _compare(a, b):
    result = equiv.compare(a, b)
    return [result.verdict.value,
            result.counterexample and str(result.counterexample),
            result.normalizations]


def equiv_lines(tables):
    lines = []
    for index, table in enumerate(tables):
        for kind, other in _variants(table, random.Random(index)).items():
            name = f"{index}:{table.name}/{kind}"
            lines.append(_fact("compare", name, lambda: _compare(table, other)))
            lines.append(_fact("compare-back", name,
                               lambda: _compare(other, table)))
    return lines


class _Broken:
    """The deterministic backend, except in one direction, where it
    answers with text that is no HDL and no table, or raises."""

    def __init__(self, style, direction, raises):
        self.inner = rt.DeterministicBackend(style)
        self.direction, self.raises = direction, raises
        self.name = f"{'raising' if raises else 'unparsable'}" \
            f"[{direction.value}]"

    def complete(self, request):
        if request.direction is not self.direction:
            return self.inner.complete(request)
        if self.raises:
            raise rt.BackendError(f"{self.direction.value} endpoint down")
        return TransformResponse("```\nnot valid\n```\n")


def _pairs(style):
    """(name, forward, inverse) per backend pair of one style: the
    deterministic pair, then each fault in each direction."""
    det = rt.DeterministicBackend(style)
    pairs = [("deterministic", det, det)]
    for direction in (TransformDirection.FORWARD, TransformDirection.INVERSE):
        faulty = {
            "drop": rt.FaultInjectingBackend(
                rt.drop_row(-1), direction, style, "drop"),
            "alter": rt.FaultInjectingBackend(
                rt.alter_output_cell(0, 0, DONT_CARE), direction, style,
                "alter"),
            "unparsable": _Broken(style, direction, raises=False),
            "raising": _Broken(style, direction, raises=True)}
        for kind, backend in faulty.items():
            pair = (backend, det) \
                if direction is TransformDirection.FORWARD else (det, backend)
            pairs.append((f"{direction.value}-{kind}", *pair))
    return pairs


def _roundtrip_units():
    units = [util.load_fixture(name) for name in ("mux4", "regmux2", "fsm4")]
    for seed in range(30):
        units.append(util.random_lct(seed))
        units.append(util.random_disjoint_lct(seed, clocked=seed % 2 == 1))
    units += [analysis.generate_fsm(*rung) for rung in FSM_RUNGS[:2]]
    return units + [t for t in _written_tables()
                    if not t.name.startswith("signal_in_input")]


def roundtrip_lines():
    lines = []
    units = _roundtrip_units()
    with tempfile.TemporaryDirectory() as run_dir:
        for style in (codegen.STYLE_IF, codegen.STYLE_CASE):
            for pair, fwd, inv in _pairs(style):
                for index, unit in enumerate(units):
                    dir_name = f"{style}-{pair}-{index}"
                    report = rt.run_roundtrip(unit, fwd, inv, run_dir=run_dir,
                                              _dir_name=dir_name)
                    files = {}
                    for file in (rt.RECORD, rt.VERDICT):
                        with open(os.path.join(run_dir, dir_name, file),
                                  encoding="utf-8") as f:
                            files[file] = f.read()
                    lines.append(f"roundtrip {dir_name}:{unit.name}: " +
                                 json.dumps({
                                     "status": report.status,
                                     "error": report.error,
                                     "notes": report.notes,
                                     "counterexample": report.counterexample
                                     and str(report.counterexample),
                                     "caveat": report.outcome
                                     and report.outcome.caveat,
                                     "digests": report.digests,
                                     **files}))
    return lines


def _written_hdl():
    """(name, text, schema) of each HDL text written in the reader's
    tests: string constants that start a module, parametrized `text`
    arguments, and `_foreign` bodies with the conditions written beside
    them.  A schema of None means the module's outputs, no conditions."""
    found = []
    for module in (test_hdl, test_extract):
        base = os.path.basename(module.__file__)
        with open(module.__file__, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.lstrip().startswith("module "):
                found.append((base, node.value, None))
            elif isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) == "_foreign" and \
                    isinstance(node.args[0], ast.Constant):
                conditions = ast.literal_eval(node.args[1]) \
                    if len(node.args) > 1 else ()
                found.append((base, test_extract._foreign_text(
                    node.args[0].value), (list(conditions), ["y"])))
        for _name, function in sorted(vars(module).items()):
            for mark in getattr(function, "pytestmark", []):
                if mark.name != "parametrize":
                    continue
                names = [n.strip() for n in mark.args[0].split(",")]
                for values in mark.args[1]:
                    values = values if len(names) > 1 else (values,)
                    args = dict(zip(names, values))
                    if isinstance(args.get("text"), str):
                        found.append((base, args["text"], None))
                    if isinstance(args.get("body"), str):
                        found.append((base, test_extract._foreign_text(
                            args["body"]), ([], ["y"])))
    return [(f"{base}#{index}", text, schema)
            for index, (base, text, schema) in enumerate(found)]


def _hdl_error(e):
    fact = f"{type(e).__name__}: {e}"
    return [fact, e.line, e.col] if isinstance(e, hdl.HdlError) else fact


def _read(name, text, schema):
    """The parse tree's digest or the parse error, then per process the
    extracted unit document or the error."""
    try:
        module = hdl.parse_hdl(text)
    except LctError as e:
        return [f"parse {name}: {json.dumps(_hdl_error(e))}"]
    tree = hashlib.sha256(repr(module).encode()).hexdigest()[:16]
    lines = [f"parse {name}: {json.dumps(tree)}"]
    conditions, results = schema or (
        [], [p.name for p in module.ports if p.direction is Direction.OUTPUT])
    for index in range(max(1, len(module.processes) + bool(module.assigns))):
        try:
            value = tableio.serialize_unit_doc(extract.hdl_to_lct(
                module, conditions, results, process_index=index))
        except LctError as e:
            value = _hdl_error(e)
        lines.append(f"extract {name}/{index}: {json.dumps(value)}")
    return lines


def hdl_lines(tables, varied=33):
    """The reader's facts over codegen HDL, the tests' texts and seeded
    variants of both; the codegen HDL of the first `varied` tables is
    varied."""
    texts = []
    for index, table in enumerate(tables):
        for style in (codegen.STYLE_IF, codegen.STYLE_CASE):
            try:
                text = codegen.gen_unit(table, style)
            except LctError:
                continue
            texts.append((f"{index}:{table.name}/{style}", text,
                          rt.schema_of(table), index < varied))
    texts += [(name, text, schema, True)
              for name, text, schema in _written_hdl()]
    lines = []
    for name, text, schema, vary in texts:
        lines += _read(name, text, schema)
        if not vary:
            continue
        try:
            util.token_spans(text)
        except hdl.HdlError:
            continue  # no tokens to vary at
        for kind in util.VARIANT_KINDS:
            for draw in range(2):
                rng = random.Random(f"{name}/{kind}/{draw}")
                index = rng.randrange(1 << 30)
                variant = util.hdl_variant(text, kind, index,
                                           rng.choice(util.STRAY_CHARACTERS))
                lines += _read(f"{name}/{kind}{draw}", variant, schema)
    return lines


def _sim_vectors(table, rng, count):
    """``count`` seeded vectors over the table's inputs but its fed-back
    conditions, the data inputs left out of every other one; and the
    condition inputs they hold."""
    control = set()
    for header in table.conditions:
        control |= {header.name} if isinstance(header, SignalHeader) \
            else header.identifiers()
    fed = {cond for _, cond in table.feedback}
    ports = [p for p in table.ports.inputs() if p.name not in fed]
    vectors = [{p.name: BitVector(p.width, rng.randrange(1 << p.width))
                for p in ports if index % 2 == 0 or p.name in control}
               for index in range(count)]
    return vectors, sorted(control - fed)


def _run(table, vectors):
    """Each vector's outputs of a combinational table; of a clocked one,
    its trace and each vector's step from no registers, where a hold
    raises, with fed-back conditions at zero.  An error stands as its
    text."""
    if table.clocking is not Clocking.CLOCKED:
        return [_outcome(lambda: {k: str(value) for k, value in
                                  sim.eval_comb(table, vector).items()})
                for vector in vectors]
    empty = sim.SeqState(())
    fed = {cond: BitVector(table.result_width(result), 0)
           for result, cond in table.feedback}
    return [_outcome(lambda: sim.format_trace(sim.run_trace(table, vectors))),
            [_outcome(lambda: sim.format_trace(
                [sim.step_clocked(table, empty, {**fed, **vector})]))
             for vector in vectors]]


def _assignments(table, rng, count=16):
    """Every control assignment of a space of at most ``count``, else
    ``count`` seeded ones."""
    if sim.control_space_size(table) <= count:
        return list(sim.enumerate_assignments(table))
    widths = [table.condition_width(h) for h in table.conditions]
    return [tuple(rng.randrange(1 << w) for w in widths)
            for _ in range(count)]


def _sim_facts(kind, name, table, vectors):
    return [_fact(f"{kind}rows", name, lambda: [
                [str(value) for value in values]
                for values in sim.row_values(table)]),
            _fact(f"{kind}run", name, lambda: _run(table, vectors))]


def _token_feedback():
    """A register fed back to a condition that may pass a data input
    through: a cycle without the input leaves a value no later cycle can
    feed back."""
    ports = PortMap((Port(Direction.INPUT, "state", 2),
                     Port(Direction.INPUT, "c", 1),
                     Port(Direction.INPUT, "d", 2),
                     Port(Direction.OUTPUT, "s", 2)))
    rows = (CaseRow((_const(2, 0), DONT_CARE), (SignalRef("d"),)),
            CaseRow((DONT_CARE, _const(1, 1)), (SignalRef("s"),)),
            CaseRow((DONT_CARE, DONT_CARE), (_const(2, 1),)))
    return Lct(name="token_feedback", clocking=Clocking.CLOCKED,
               conditions=(SignalHeader("state"), SignalHeader("c")),
               results=("s",), rows=rows, ports=ports,
               feedback=(("s", "state"),))


def sim_lines(tables):
    lines = []
    for index, table in enumerate(tables + [_token_feedback()]):
        name = f"{index}:{table.name}"
        rng = random.Random(f"sim/{index}")
        vectors, control = _sim_vectors(table, rng, 16)
        lines += _sim_facts("", name, table, vectors)
        if control:  # one vector without one condition input
            v = rng.randrange(len(vectors))
            missing = rng.choice(control)
            damaged = [{k: bv for k, bv in vector.items()
                        if i != v or k != missing}
                       for i, vector in enumerate(vectors)]
            lines.append(_fact(f"missing/{v}/{missing}", name,
                               lambda: _run(table, damaged)))
        if table.rows and table.results:
            lines += _sim_facts("bad-cell-", name,
                                util.with_bad_cell(table, rng), vectors)
        for assignment in _assignments(table, rng):
            lines.append(_fact(f"symbolic/{assignment}", name, lambda: [
                str(value) for value in
                sim.symbolic_outputs(table, assignment)]))
    return lines


def sections():
    tables = corpus()
    return {"analysis": analysis_lines(tables),
            "equiv": equiv_lines(tables),
            "roundtrip": roundtrip_lines(),
            "hdl": hdl_lines(tables),
            "sim": sim_lines(tables)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help=f"compare with {os.path.relpath(DIGESTS, ROOT)}")
    mode.add_argument("--update", action="store_true",
                      help=f"write {os.path.relpath(DIGESTS, ROOT)}")
    parser.add_argument("--dump", metavar="DIR",
                        help="write each section's lines to DIR")
    args = parser.parse_args(argv)

    digests = {}
    for section, lines in sections().items():
        text = "\n".join(lines) + "\n"
        digests[section] = hashlib.sha256(text.encode()).hexdigest()
        print(f"{section} {digests[section]} ({len(lines)} lines)")
        if args.dump:
            os.makedirs(args.dump, exist_ok=True)
            with open(os.path.join(args.dump, f"{section}.txt"), "w",
                      encoding="utf-8") as f:
                f.write(text)
    if args.update:
        with open(DIGESTS, "w", encoding="utf-8") as f:
            json.dump(digests, f, indent=1)
            f.write("\n")
    if args.check:
        with open(DIGESTS, encoding="utf-8") as f:
            expected = json.load(f)
        changed = sorted(s for s in expected.keys() | digests.keys()
                         if expected.get(s) != digests.get(s))
        if changed:
            print(f"fingerprint changed: {', '.join(changed)}",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
