import os
import shutil

import pytest

from lctkit import analysis, cli, codegen, roundtrip, tableio
from lctkit.model import TransformDirection
from .util import TABLES_DIR, load_fixture


def fixture_path(name):
    return os.path.join(TABLES_DIR, f"{name}.manifest")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_complete_table_exits_zero(capsys):
    code, out, _ = run(capsys, "check", fixture_path("mux4"))
    assert code == 0
    assert "mux4" in out


def test_check_incomplete_table_exits_one(capsys):
    code, out, _ = run(capsys, "check", fixture_path("fsm4"))
    assert code == 1
    assert out.count("uncovered:") == 4


def test_check_strict_overlap(tmp_path, capsys):
    doc = """\
unit lap
clocking combinational
inputs 2
outputs 1
port input a 1
port input b 1
port output q 1
table lap.csv
---
a,b,q
1,X,0
X,X,1
"""
    path = tmp_path / "lap.unit"
    path.write_text(doc)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    code, out, _ = run(capsys, "check", "--strict-overlap", str(path))
    assert code == 1
    assert "overlap" in out
    path.write_text(doc.replace("1,X,0\nX,X,1\n", "X,X,1\n1,X,0\n"))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    code, out, _ = run(capsys, "check", "--strict-overlap", str(path))
    assert code == 1
    assert "shadowed: row 1\n" in out


def test_check_walks_each_unit_once(monkeypatch, capsys):
    """One ``match_blocks`` walk gives every finding of a unit."""
    walked = []
    match_blocks = analysis.match_blocks

    def counting(table, *args):
        walked.append(table.name)
        return match_blocks(table, *args)
    monkeypatch.setattr(analysis, "match_blocks", counting)
    code, _, _ = run(capsys, "check", fixture_path("mux4"),
                     fixture_path("fsm4"))
    assert code == cli.EXIT_FINDINGS
    assert walked == ["mux4", "fsm4"]


def test_roundtrip_into_an_unusable_run_directory_exits_two(tmp_path,
                                                            capsys):
    run_dir = tmp_path / "run"
    run_dir.write_text("")
    code, out, err = run(capsys, "roundtrip", "--run-dir", str(run_dir),
                         fixture_path("mux4"))
    assert code == cli.EXIT_ERROR
    assert out == ""
    assert err == f"error: [Errno 17] File exists: '{run_dir}'\n"


@pytest.mark.parametrize("command", ["fsmgen", "extract"])
def test_out_dir_under_a_regular_file_exits_two(tmp_path, capsys, command):
    blocker = tmp_path / "F"
    blocker.write_text("in the way\n")
    out_dir = str(blocker / "sub")
    if command == "fsmgen":
        argv = ["fsmgen", "--states", "4", "--conds", "2", "--outputs", "1"]
    else:
        verilog = tmp_path / "mux4.v"
        run(capsys, "gen", fixture_path("mux4"), "-o", str(verilog))
        argv = ["extract", str(verilog), "--results", "data_out",
                "--conditions", "enable,select"]
    code, out, err = run(capsys, *argv, "--out-dir", out_dir)
    assert code == cli.EXIT_ERROR
    assert out == ""
    assert err == f"error: [Errno 20] Not a directory: '{out_dir}'\n"


def test_check_rejects_bad_file(tmp_path, capsys):
    path = tmp_path / "broken.manifest"
    path.write_text("unit broken\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "error:" in err


def test_sim_clocked_trace(tmp_path, capsys):
    stim = tmp_path / "stim.txt"
    stim.write_text(
        "rst_n=0\ncond0=0\ncond1=0\n\n"
        "rst_n=1\ncond0=0\ncond1=1\n\n"
        "rst_n=1\ncond0=1\ncond1=0\n")
    code, out, _ = run(capsys, "sim", fixture_path("fsm4"),
                       "--stimulus", str(stim))
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert [b.splitlines()[0] for b in blocks] == \
        ["next_state=0", "next_state=2", "next_state=3"]


def test_sim_combinational(tmp_path, capsys):
    stim = tmp_path / "stim.txt"
    stim.write_text("enable=1\nselect=2\n")
    code, out, _ = run(capsys, "sim", fixture_path("mux4"),
                       "--stimulus", str(stim))
    assert code == 0
    assert "data_out=data2" in out


def test_gen_writes_verilog(tmp_path, capsys):
    out_file = tmp_path / "mux4.v"
    code, _, _ = run(capsys, "gen", fixture_path("mux4"),
                     "-o", str(out_file))
    assert code == 0
    assert "module mux4" in out_file.read_text()


def test_gen_structural(tmp_path, capsys):
    conn = tmp_path / "top.conn"
    conn.write_text("""\
top duo
instance u0 mux4
bind input enable en0 1 external
bind input select sel0 2 external
bind input data0 d0 8 external
bind input data1 d1 8 external
bind input data2 d2 8 external
bind input data3 d3 8 external
bind output data_out y0 8 external
""")
    code, out, _ = run(capsys, "gen", "--conn", str(conn),
                       fixture_path("mux4"))
    assert code == 0
    assert "module duo" in out
    assert "mux4 u0 (" in out


def test_extract_round_trips_generated_verilog(tmp_path, capsys):
    verilog = tmp_path / "fsm4.v"
    run(capsys, "gen", fixture_path("fsm4"), "-o", str(verilog))
    code, out, _ = run(capsys, "extract", str(verilog),
                       "--conditions", "rst_n,state,cond0,cond1",
                       "--results", "next_state,out0,out1,out2")
    assert code == 0
    assert "unit fsm4" in out
    assert "---" in out


def test_equiv_same_table_exits_zero(capsys):
    code, out, _ = run(capsys, "equiv", fixture_path("mux4"),
                       fixture_path("mux4"))
    assert code == 0
    assert "textually-identical" in out


def test_equiv_different_tables_exit_one(tmp_path, capsys):
    table = load_fixture("mux4")
    import dataclasses
    from lctkit.model import BitVector, CaseRow, Constant
    rows = list(table.rows)
    rows[0] = CaseRow(rows[0].inputs, (Constant(BitVector(8, 1)),))
    mutated = dataclasses.replace(table, rows=tuple(rows))
    path = tableio.save_unit(mutated, str(tmp_path))
    code, out, _ = run(capsys, "equiv", fixture_path("mux4"), path)
    assert code == 1
    assert "counterexample" in out


def test_equiv_clocking_mismatch_exits_two(capsys):
    code, _, err = run(capsys, "equiv", fixture_path("mux4"),
                       fixture_path("fsm4"))
    assert code == 2
    assert "clocking" in err


def test_fsmgen_writes_unit(tmp_path, capsys):
    code, out, _ = run(capsys, "fsmgen", "--states", "4", "--conds", "2",
                       "--outputs", "3", "--seed", "0",
                       "--out-dir", str(tmp_path))
    assert code == 0
    manifests = [f for f in os.listdir(tmp_path) if f.endswith(".manifest")]
    assert len(manifests) == 1
    table = tableio.load_unit(os.path.join(str(tmp_path), manifests[0])).lct
    assert len(table.rows) == 10


def test_fsmgen_bad_states_exits_two(capsys):
    code, _, err = run(capsys, "fsmgen", "--states", "3", "--conds", "2",
                       "--outputs", "1")
    assert code == 2


def test_roundtrip_deterministic_backend(tmp_path, capsys):
    run_dir = tmp_path / "run"
    code, out, _ = run(capsys, "roundtrip", "--run-dir", str(run_dir),
                       fixture_path("mux4"), fixture_path("regmux2"))
    assert code == 0
    assert out.count(": M") == 2
    assert (run_dir / "mux4" / "verdict.txt").exists()


def test_roundtrip_records_output(capsys):
    code, out, _ = run(capsys, "roundtrip", "--records",
                       fixture_path("fsm4"))
    assert code == 0
    assert out.strip() == "fsm4\tM"


def test_roundtrip_remote_needs_arguments(capsys):
    code, _, err = run(capsys, "roundtrip", "--backend", "remote",
                       fixture_path("mux4"))
    assert code == 2


def test_roundtrip_offline_blocks_remote(capsys):
    code, _, err = run(capsys, "roundtrip", "--backend", "remote",
                       "--remote-url", "http://x", "--model", "m",
                       "--offline", fixture_path("mux4"))
    assert code == 2
    assert "offline" in err


def test_report_summarizes_run(tmp_path, capsys):
    run_dir = tmp_path / "run"
    run(capsys, "roundtrip", "--run-dir", str(run_dir),
        fixture_path("mux4"), fixture_path("fsm4"))
    code, out, _ = run(capsys, "report", str(run_dir))
    assert code == 0
    assert "M" in out and "total" in out
    code, out, _ = run(capsys, "report", "--records", str(run_dir))
    assert "mux4\tM" in out


def test_roundtrip_and_report_exit_one_on_a_finding(tmp_path, capsys,
                                                    monkeypatch):
    """An inverse that drops the first row labels mux4 X EQ and fsm4
    X INV: the round trip and the report of its run directory both
    exit 1."""
    det = roundtrip.DeterministicBackend("if")
    dropping = roundtrip.FaultInjectingBackend(
        roundtrip.drop_row(0), TransformDirection.INVERSE, "if", "drop")
    monkeypatch.setattr(cli, "_make_backend", lambda args: (det, dropping))
    run_dir = str(tmp_path / "run")
    code, out, _ = run(capsys, "roundtrip", "--records", "--run-dir", run_dir,
                       fixture_path("mux4"), fixture_path("fsm4"))
    assert (code, out) == (cli.EXIT_FINDINGS, "mux4\tX EQ\nfsm4\tX INV\n")
    code, out, _ = run(capsys, "report", "--records", run_dir)
    assert (code, out) == (cli.EXIT_FINDINGS, "fsm4\tX INV\nmux4\tX EQ\n")


def test_report_counts_a_unit_whose_record_is_missing(tmp_path, capsys):
    """A regular file where mux4's directory goes makes its persisting
    fail; the report counts that entry as an error, as the run did."""
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "mux4").write_text("in the way\n")
    code, out, _ = run(capsys, "roundtrip", "--records", "--run-dir",
                       str(run_dir), fixture_path("mux4"),
                       fixture_path("fsm4"))
    assert code == cli.EXIT_ERROR
    assert out == "mux4\terror\nfsm4\tM\n"
    code, out, _ = run(capsys, "report", str(run_dir))
    assert code == cli.EXIT_ERROR
    assert out.splitlines() == ["M            1   50.00%",
                                "error        1   50.00%",
                                "total        2"]
    code, out, _ = run(capsys, "report", "--records", str(run_dir))
    assert out == "fsm4\tM\nmux4\terror\n"


def test_report_counts_an_undecodable_record_as_an_error(tmp_path, capsys):
    """A verdict.txt that is not UTF-8 is that unit's error record; the
    report goes on to the next unit."""
    run_dir = tmp_path / "run"
    run(capsys, "roundtrip", "--run-dir", str(run_dir),
        fixture_path("mux4"), fixture_path("fsm4"))
    (run_dir / "fsm4" / "verdict.txt").write_bytes(b"label=\xff\xfe\n")
    code, out, err = run(capsys, "report", "--records", str(run_dir))
    assert code == cli.EXIT_ERROR
    assert out == "fsm4\terror\nmux4\tM\n"
    assert err == ""


def _copy_fixture(tmp_path, name):
    for ext in ("manifest", "csv"):
        shutil.copy(os.path.join(TABLES_DIR, f"{name}.{ext}"), tmp_path)
    return tmp_path / f"{name}.manifest"


@pytest.mark.parametrize("damaged", ["mux4.csv", "mux4.manifest", "mux4.unit"])
def test_check_of_an_undecodable_file_exits_two(tmp_path, capsys, damaged):
    """A manifest, its table or a unit document that is not UTF-8 is an
    error line with exit 2, not a traceback."""
    manifest = _copy_fixture(tmp_path, "mux4")
    doc = tableio.serialize_unit_doc(load_fixture("mux4")).encode()
    (tmp_path / "mux4.unit").write_bytes(doc)
    path = tmp_path / damaged
    path.write_bytes(path.read_bytes() + b"\xe9t\xe9\n")
    unit = path if damaged == "mux4.unit" else manifest
    code, out, err = run(capsys, "check", str(unit))
    assert code == cli.EXIT_ERROR
    assert out == ""
    assert err.startswith(f"error: {unit}: ") and "not UTF-8 text" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("damaged, blank, line", [
    ("mux4.csv", True, 7), ("mux4.unit", False, 19), ("mux4.unit", True, 20)])
def test_check_names_the_file_line_of_a_bad_cell(tmp_path, capsys, damaged,
                                                 blank, line):
    """A ``Z`` select cell in mux4's last row, after an optional blank
    line below the header: a unit document's lines count from its
    manifest's first."""
    manifest = _copy_fixture(tmp_path, "mux4")
    (tmp_path / "mux4.unit").write_text(
        tableio.serialize_unit_doc(load_fixture("mux4")))
    path = tmp_path / damaged
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].replace("4,1,3,", "4,1,Z,")
    if blank:
        header = next(i for i, text in enumerate(lines)
                      if text.startswith("Case,"))
        lines.insert(header + 1, "")
    path.write_text("\n".join(lines) + "\n")
    unit = path if damaged == "mux4.unit" else manifest
    code, out, err = run(capsys, "check", str(unit))
    assert code == cli.EXIT_ERROR
    assert out == ""
    assert err == "error: bad input cell: malformed literal: 'Z' " \
        f"(line {line}, column 3)\n"


def test_check_of_a_worded_manifest_count_exits_two(tmp_path, capsys):
    manifest = _copy_fixture(tmp_path, "mux4")
    manifest.write_text(manifest.read_text().replace("\ninputs 2\n",
                                                     "\ninputs two\n"))
    code, out, err = run(capsys, "check", str(manifest))
    assert code == cli.EXIT_ERROR
    assert err == "error: inputs count 'two' is not a non-negative " \
        "decimal number (line 3)\n"


def test_check_opens_a_manifest_and_its_table_once(monkeypatch, capsys):
    real_open = open
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(os.path.basename(str(file)))
        return real_open(file, *args, **kwargs)
    monkeypatch.setattr("builtins.open", counting_open)
    code, _, _ = run(capsys, "check", fixture_path("mux4"))
    assert code == cli.EXIT_OK
    assert sorted(name for name in opened if name.startswith("mux4.")) == \
        ["mux4.csv", "mux4.manifest"]


def test_report_empty_dir_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, "report", str(tmp_path))
    assert code == 2


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        cli.main(["no-such-command"])
    assert err.value.code == 2


def test_check_too_deeply_nested_header_exits_two(tmp_path, capsys):
    header = "(" * 120 + "a" + ")" * 120
    doc = ("unit deep\nclocking combinational\ninputs 1\noutputs 1\n"
           "port input a 1\nport output q 1\ntable deep.csv\n---\n"
           f"{header},q\n1,1\n")
    path = tmp_path / "deep.unit"
    path.write_text(doc)
    code, _, err = run(capsys, "check", str(path))
    assert code == cli.EXIT_ERROR
    assert "error:" in err and "nesting" in err


_EXPR_UNIT = """\
unit exprq
clocking combinational
inputs 1
outputs 1
port input a 1
port input b 1
port output q 1
table exprq.csv
---
a & b,q
0,0
1,1
"""


@pytest.fixture
def exprq_codegen_fails(monkeypatch):
    """codegen raises on unit exprq."""
    gen_unit = codegen.gen_unit

    def failing_gen_unit(table, *args):
        if table.name == "exprq":
            raise RuntimeError("codegen crashed")
        return gen_unit(table, *args)
    monkeypatch.setattr(codegen, "gen_unit", failing_gen_unit)


def _errored_batch(tmp_path, capsys, *flags):
    """Round-trip mux4 and an expression-header unit in the case style;
    under `exprq_codegen_fails` the second unit errors."""
    path = tmp_path / "exprq.unit"
    path.write_text(_EXPR_UNIT)
    return run(capsys, "roundtrip", "--style", "case", "--run-dir",
               str(tmp_path / "run"), *flags, fixture_path("mux4"),
               str(path))


def test_roundtrip_reports_every_unit_and_exits_two_on_error(
        tmp_path, capsys, exprq_codegen_fails):
    code, out, _ = _errored_batch(tmp_path, capsys)
    assert code == cli.EXIT_ERROR
    assert "unit mux4: M\n" in out
    assert "unit exprq: error\n" in out
    assert "  error: forward: RuntimeError: codegen crashed" in out
    code, out, _ = _errored_batch(tmp_path, capsys, "--records")
    assert code == cli.EXIT_ERROR
    assert out == "mux4\tM\nexprq\terror\n"


def test_report_tallies_errors_and_exits_two(tmp_path, capsys,
                                             exprq_codegen_fails):
    _errored_batch(tmp_path, capsys)
    code, out, _ = run(capsys, "report", str(tmp_path / "run"))
    assert code == cli.EXIT_ERROR
    assert out.splitlines() == ["M            1   50.00%",
                                "error        1   50.00%",
                                "total        2"]
    code, out, _ = run(capsys, "report", "--records", str(tmp_path / "run"))
    assert code == cli.EXIT_ERROR
    assert out == "exprq\terror\nmux4\tM\n"
