"""
Command-line front end.

Exit codes: 0 on success (tables valid, equivalent, or round trip
matched); 1 when the tools found something (coverage gaps, semantic
differences, transform faults); 2 on usage, I/O, or backend errors (an
``LctError`` or ``OSError``, printed as one ``error:`` line), and when a
round trip's status is ``error``: a stage failed in a backend or in
lctkit, not in a transform; ``lct roundtrip`` and ``lct report`` show it.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import analysis, codegen, equiv, extract, hdl, roundtrip, sim, tableio
from .model import Clocking, Lct, LctError

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise LctError(f"{path}: not UTF-8 text: {e}")


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def load_table(path: str) -> Lct:
    """Load a unit from a manifest file or a combined unit document
    (manifest + '---' + CSV in one file)."""
    return tableio.load_unit(path).lct


# ---------------------------------------------------------------------------
# Subcommands

def cmd_check(args) -> int:
    status = EXIT_OK
    for path in args.unit:
        table = load_table(path)
        report = analysis.check_coverage(table, args.enum_limit)
        print(f"== {table.name} ({path})")
        print(report.render())
        if report.uncovered:
            status = max(status, EXIT_FINDINGS)
        if args.strict_overlap and (report.shadowed_rows or report.conflicts):
            status = max(status, EXIT_FINDINGS)
    return status


def cmd_sim(args) -> int:
    table = load_table(args.unit)
    stimulus = sim.parse_stimulus(_read(args.stimulus), table)
    if table.clocking is Clocking.CLOCKED:
        states = sim.run_trace(table, stimulus)
        _write(args.output, sim.format_trace(states))
    else:
        blocks = []
        for vector in stimulus:
            outs = sim.eval_comb(table, vector)
            blocks.append("\n".join(f"{k}={v}" for k, v in outs.items()))
        _write(args.output, "\n\n".join(blocks) + "\n")
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.conn:
        conn = tableio.parse_connectivity(_read(args.conn))
        units = {}
        for path in args.unit:
            table = load_table(path)
            units[table.name] = table.ports
        _write(args.output, codegen.gen_structural(conn, units))
        return EXIT_OK
    if len(args.unit) != 1:
        raise LctError("gen takes exactly one unit (or --conn with units)")
    table = load_table(args.unit[0])
    text, notes = codegen.generate(table, args.style, args.async_reset)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    _write(args.output, text)
    return EXIT_OK


def cmd_extract(args) -> int:
    module = hdl.parse_hdl(_read(args.hdl))
    conditions = [s for s in args.conditions.split(",") if s]
    results = [s for s in args.results.split(",") if s]
    table = extract.hdl_to_lct(module, conditions, results,
                               process_index=args.process, name=args.name)
    if args.out_dir:
        path = tableio.save_unit(table, args.out_dir)
        print(f"wrote {path}")
    else:
        sys.stdout.write(tableio.serialize_unit_doc(table))
    return EXIT_OK


def cmd_equiv(args) -> int:
    a = load_table(args.first)
    b = load_table(args.second)
    aliases = equiv.parse_aliases(_read(args.aliases)) if args.aliases else None
    result = equiv.compare(a, b, aliases, args.enum_limit)
    print(f"verdict: {result.verdict.value}")
    if result.normalizations:
        print("normalizations: " + ", ".join(result.normalizations))
    if result.counterexample:
        print(f"counterexample: {result.counterexample}")
    return EXIT_OK if result.verdict.equivalent else EXIT_FINDINGS


def cmd_fsmgen(args) -> int:
    table = analysis.generate_fsm(args.states, args.conds, args.outputs,
                                  args.seed)
    if args.out_dir:
        path = tableio.save_unit(table, args.out_dir)
        print(f"wrote {path} ({table.cell_count} cells)")
    else:
        sys.stdout.write(tableio.serialize_unit_doc(table))
    return EXIT_OK


def _make_backend(args):
    if args.backend == "deterministic":
        b = roundtrip.DeterministicBackend(args.style)
        return b, b
    if args.offline:
        raise LctError("remote backend requested with --offline")
    if not args.remote_url or not args.model:
        raise LctError("remote backend needs --remote-url and --model")
    b = roundtrip.RemoteChatBackend(args.remote_url, args.model,
                                    api_key_env=args.api_key_env,
                                    timeout=args.timeout, retries=args.retries)
    return b, b


def _exit_status(labels) -> int:
    """2 when any label is ``error``, else 1 when any is not ``M``."""
    return EXIT_ERROR if "error" in labels else \
        EXIT_FINDINGS if set(labels) - {"M"} else EXIT_OK


def cmd_roundtrip(args) -> int:
    fwd, inv = _make_backend(args)
    units = [load_table(path) for path in args.unit]
    reports = roundtrip.run_many(units, fwd, inv, run_dir=args.run_dir,
                                 workers=args.workers,
                                 enum_limit=args.enum_limit)
    for report in reports:
        print(f"{report.unit}\t{report.status}" if args.records
              else report.render())
    return _exit_status([report.status for report in reports])


def cmd_report(args) -> int:
    tallies = {}
    records = []
    # Every top-level entry is a unit.  One that is not a directory
    # holding a readable verdict.txt lost its record: it is an error.
    for entry in sorted(os.listdir(args.run_dir)):
        try:
            fields = dict(line.split("=", 1) for line in _read(
                os.path.join(args.run_dir, entry, "verdict.txt")).splitlines()
                if "=" in line)
        except (OSError, LctError) as e:
            fields = {"error": str(e)}
        label = "error" if "error" in fields else fields.get("label", "?")
        tallies[label] = tallies.get(label, 0) + 1
        records.append((fields.get("unit", entry), label))
    if not records:
        raise LctError(f"no verdict records under {args.run_dir}")
    if args.records:
        for unit, label in records:
            print(f"{unit}\t{label}")
    else:
        total = len(records)
        for label in sorted(tallies):
            count = tallies[label]
            print(f"{label:8s} {count:5d}  {100.0 * count / total:6.2f}%")
        print(f"{'total':8s} {total:5d}")
    return _exit_status(tallies)


# ---------------------------------------------------------------------------
# Argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lct",
        description="Logic condition table toolkit: validate, simulate, "
                    "generate HDL, extract tables back, and run round trips.")
    parser.add_argument("--enum-limit", type=int,
                        default=analysis.DEFAULT_ENUM_LIMIT,
                        help="largest control space to enumerate exhaustively")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate and analyze coverage/overlap")
    p.add_argument("unit", nargs="+")
    p.add_argument("--strict-overlap", action="store_true",
                   help="treat shadowed rows and conflicts as findings")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sim", help="simulate a unit over a stimulus file")
    p.add_argument("unit")
    p.add_argument("--stimulus", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("gen", help="compile a unit (or hierarchy) to Verilog")
    p.add_argument("unit", nargs="*")
    p.add_argument("--style", choices=[codegen.STYLE_IF, codegen.STYLE_CASE],
                   default=codegen.STYLE_IF)
    p.add_argument("--async-reset", action="store_true")
    p.add_argument("--conn", default=None,
                   help="connectivity manifest for a structural top")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("extract", help="reconstruct a table from Verilog")
    p.add_argument("hdl")
    p.add_argument("--conditions", required=True,
                   help="comma-separated condition column names")
    p.add_argument("--results", required=True,
                   help="comma-separated result column names")
    p.add_argument("--name", default=None)
    p.add_argument("--process", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("equiv", help="decide semantic equivalence")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--aliases", default=None,
                   help="file of 'first_name = second_name' lines")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("fsmgen", help="generate a synthetic FSM unit")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--conds", type=int, required=True)
    p.add_argument("--outputs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_fsmgen)

    p = sub.add_parser("roundtrip", help="run the forward/inverse round trip")
    p.add_argument("unit", nargs="+")
    p.add_argument("--backend", choices=["deterministic", "remote"],
                   default="deterministic")
    p.add_argument("--style", choices=[codegen.STYLE_IF, codegen.STYLE_CASE],
                   default=codegen.STYLE_IF)
    p.add_argument("--remote-url", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--api-key-env", default="LCT_API_KEY")
    p.add_argument("--timeout", type=float, default=120.0)
    p.add_argument("--retries", type=int, default=3)
    p.add_argument("--offline", action="store_true",
                   help="refuse any backend that would touch the network")
    p.add_argument("--run-dir", default=None)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--records", action="store_true",
                   help="one tab-separated line per unit")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("report", help="summarize a round-trip run directory")
    p.add_argument("run_dir")
    p.add_argument("--records", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LctError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
