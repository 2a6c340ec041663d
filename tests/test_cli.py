import os
import shutil

import pytest

from lctkit import cli, codegen, tableio
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


def test_roundtrip_into_an_unusable_run_directory_exits_two(tmp_path,
                                                            capsys):
    run_dir = tmp_path / "run"
    run_dir.write_text("")
    code, out, err = run(capsys, "roundtrip", "--run-dir", str(run_dir),
                         fixture_path("mux4"))
    assert code == cli.EXIT_ERROR
    assert out == ""
    assert err == f"error: [Errno 17] File exists: '{run_dir}'\n"


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
