import dataclasses
import os

import pytest
from hypothesis import given

from lctkit import tableio
from lctkit.model import (
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
    validate_lct,
)
from .util import (
    TABLES_DIR,
    WRITTEN,
    load_fixture,
    random_lct,
    reference_csv_text,
)

MANIFEST = """\
unit demux
clocking combinational
inputs 1
outputs 2
port input sel 1
port input d 4
port output a 4
port output b 4
table demux.csv
"""

CSV = """\
sel,a,b
0,d,0
1,0,d
"""


def test_parse_unit_basics():
    table = tableio.parse_unit(MANIFEST, CSV)
    assert table.name == "demux"
    assert table.clocking is Clocking.COMBINATIONAL
    assert table.conditions == (SignalHeader("sel"),)
    assert table.results == ("a", "b")
    assert table.rows[0].outputs == (SignalRef("d"),
                                     Constant(BitVector(4, 0)))


def test_fixture_mux4_shape():
    table = load_fixture("mux4")
    assert len(table.rows) == 5
    assert table.rows[0].label == "0"
    assert table.rows[0].comment == "Disabled"
    assert table.rows[1].outputs == (SignalRef("data0"),)
    assert table.rows[0].inputs[1] is DONT_CARE


def test_fixture_regmux2_hold_cells():
    table = load_fixture("regmux2")
    assert table.clocking is Clocking.CLOCKED
    backpress = table.rows[1]
    assert backpress.outputs == (SignalRef("valid_out"), SignalRef("data_out"))


def test_fixture_fsm4_feedback():
    table = load_fixture("fsm4")
    assert table.feedback == (("next_state", "state"),)
    assert len(table.rows) == 10


def test_serialize_parse_identity():
    for seed in range(10):
        table = random_lct(seed)
        manifest, csv = tableio.serialize_unit(table)
        again = tableio.parse_unit(manifest, csv)
        assert again == table


def test_serialize_is_deterministic():
    table = load_fixture("fsm4")
    assert tableio.serialize_unit(table) == tableio.serialize_unit(table)


def test_unit_doc_round_trip():
    table = load_fixture("regmux2")
    doc = tableio.serialize_unit_doc(table)
    assert tableio.parse_unit_doc(doc) == table


def test_unit_doc_requires_separator():
    with pytest.raises(tableio.ParseError):
        tableio.parse_unit_doc(MANIFEST + CSV)


def test_save_and_load(tmp_path):
    table = load_fixture("mux4")
    path = tableio.save_unit(table, str(tmp_path))
    assert tableio.load_unit(path).lct == table


def test_expression_header_parsed():
    manifest = MANIFEST.replace("inputs 1", "inputs 1")
    table = tableio.parse_unit(manifest, "sel == 1,a,b\n1,0,d\n")
    assert isinstance(table.conditions[0], ExprHeader)


def test_empty_cell_rejected():
    with pytest.raises(tableio.ParseError) as err:
        tableio.parse_unit(MANIFEST, "sel,a,b\n0,,0\n")
    assert "empty cell" in str(err.value)


WIDTHS_MANIFEST = """\
unit widths
clocking combinational
inputs 2
outputs 1
port input s 2
port input d 8
port output y 8
table widths.csv
"""


def test_same_cell_text_takes_each_column_width():
    table = tableio.parse_unit(WIDTHS_MANIFEST, "s,d,y\n3,3,d\n")
    assert table.rows[0].inputs == (Constant(BitVector(2, 3)),
                                    Constant(BitVector(8, 3)))


@pytest.mark.parametrize("csv, where", [
    ("s,d,y\n4,0,0\n4,0,0\n", (2, 1)),  # 4 does not fit 2 bits
    ("s,d,y\n0,4,0\n4,0,0\n", (3, 1)),  # fits d, not s
    ("s,d,y\n0,0,d\n0,d,0\n", (3, 2)),  # a signal as output only
    ("s,d,y\n0,\u0663,0\n", (2, 2)),  # a digit outside 0-9
])
def test_bad_cell_reported_at_its_first_bad_use(csv, where):
    with pytest.raises(tableio.ParseError) as err:
        tableio.parse_unit(WIDTHS_MANIFEST, csv)
    assert (err.value.line, err.value.column) == where


def _mux4_text(name):
    with open(os.path.join(TABLES_DIR, f"mux4.{name}"), encoding="utf-8") as f:
        return f.read()


@pytest.mark.parametrize("layout", ["csv", "blank lines", "unit document"])
@pytest.mark.parametrize("has_case", [True, False])
@pytest.mark.parametrize("line, field, text", [
    (6, 2, "Z"),            # a bad select cell
    (6, 3, "1x"),           # a bad data_out cell
    (1, 2, "select =="),    # a condition header that does not parse
    (1, 3, "data out"),     # a result header that is no identifier
])
def test_csv_errors_name_the_file_column(layout, has_case, line, field,
                                         text):
    """Columns count from the file's first, a ``Case`` column included:
    mux4's line 6 is ``4,1,3,data3,...`` and ``select`` is file column 3.
    Lines count from the file's first, blank ones included, and in a
    unit document from the manifest's first: mux4's manifest is 12 lines
    and the ``---`` line 13."""
    lines = _mux4_text("csv").splitlines()
    cells = lines[line - 1].split(",")
    cells[field] = text
    lines[line - 1] = ",".join(cells)
    if not has_case:
        lines = [row.split(",", 1)[1] for row in lines]
    offset = 0
    if layout == "blank lines":  # one before the header, one after it
        lines = ["", lines[0], " "] + lines[1:]
        offset = 1 if line == 1 else 2
    csv = "\n".join(lines) + "\n"
    with pytest.raises(tableio.ParseError) as err:
        if layout == "unit document":
            offset = 13
            tableio.parse_unit_doc(
                tableio.combine_unit_doc(_mux4_text("manifest"), csv))
        else:
            tableio.parse_unit(_mux4_text("manifest"), csv)
    # ``field`` indexes mux4's cells, whose first is the Case column.
    column = field + 1 if has_case else field
    assert (err.value.line, err.value.column) == (line + offset, column)
    assert str(err.value).endswith(f"(line {line + offset}, column {column})")


def test_header_count_mismatch_rejected():
    with pytest.raises(tableio.ParseError):
        tableio.parse_unit(MANIFEST, "sel,a\n0,0\n")


def test_missing_manifest_line_rejected():
    bad = MANIFEST.replace("clocking combinational\n", "")
    with pytest.raises(tableio.ParseError) as err:
        tableio.parse_unit(bad, CSV)
    assert "clocking" in str(err.value)


@pytest.mark.parametrize("line, word", [
    (3, "inputs two"), (3, "inputs -1"), (3, "inputs +1"), (3, "inputs 1.0"),
    (3, "inputs \u0661"), (4, "outputs 0x2"), (4, "outputs -2")])
def test_manifest_count_must_be_a_non_negative_decimal(line, word):
    keyword = word.split()[0]
    bad = MANIFEST.replace(f"{keyword} {1 if line == 3 else 2}\n",
                           word + "\n")
    assert bad != MANIFEST
    with pytest.raises(tableio.ParseError) as err:
        tableio.parse_unit(bad, CSV)
    assert err.value.line == line
    assert f"{keyword} count" in str(err.value)


@pytest.mark.parametrize("old, new, message", [
    ("clocking combinational", "clocking sometimes",
     "unknown clocking 'sometimes' (line 2)"),
    ("port input d 4", "port inout d 4",
     "bad port declaration: 'inout' is not a valid Direction (line 6)"),
    ("table demux.csv", "table", "unrecognized manifest line 'table' "
     "(line 9)"),
], ids=["clocking", "port", "unrecognized"])
def test_manifest_errors_name_their_line(old, new, message):
    with pytest.raises(tableio.ParseError) as err:
        tableio.parse_unit(MANIFEST.replace(old, new), CSV)
    assert str(err.value) == message


def test_negative_count_does_not_shift_the_columns():
    """``inputs -1`` with ``outputs 3`` adds up to a two-column CSV, but
    is no table of one condition and one result."""
    bad = MANIFEST.replace("inputs 1\n", "inputs -1\n") \
                  .replace("outputs 2\n", "outputs 3\n")
    with pytest.raises(tableio.ParseError) as err:
        tableio.parse_unit(bad, "sel,a\n0,0\n1,d\n")
    assert err.value.line == 3


def test_invalid_table_rejected_with_violations():
    csv = "sel,a,b\n0,q,0\n1,0,d\n"  # q is not a signal
    with pytest.raises(tableio.ParseError) as err:
        tableio.parse_unit(MANIFEST, csv)
    assert "unknown" in str(err.value)


def test_comments_survive_round_trip():
    table = load_fixture("mux4")
    manifest, csv = tableio.serialize_unit(table)
    assert "Disabled" in csv
    assert tableio.parse_unit(manifest, csv).rows[0].comment == "Disabled"


@pytest.mark.parametrize("field, text", [
    ("comment", "a,b"), ("comment", "two\nlines"), ("label", "a,b"),
    ("label", "ends\r")])
def test_text_the_csv_cannot_hold_is_not_written(tmp_path, field, text):
    """A label or comment holding a comma or a line break would write a
    file that ``load_unit`` rejects; such a table is invalid instead."""
    table = load_fixture("mux4")
    row = dataclasses.replace(table.rows[0], **{field: text})
    table = dataclasses.replace(table, rows=(row,) + table.rows[1:])
    with pytest.raises(LctError, match=r"cannot serialize invalid table: "
                       r"\[csv-text\] row 0: " + field):
        tableio.save_unit(table, str(tmp_path))
    assert os.listdir(tmp_path) == []


def test_serialize_round_trip_normalizations():
    """What ``serialize_unit``'s docstring states: a label or comment
    loses its surrounding whitespace, a missing one beside present ones
    reads back as "", and an expression-column constant reads back 1 bit
    wide.  All else reads back equal."""
    ports = PortMap((Port(Direction.INPUT, "a", 1),
                     Port(Direction.INPUT, "b", 1),
                     Port(Direction.OUTPUT, "q", 2)))
    one, wide_one = Constant(BitVector(1, 1)), Constant(BitVector(2, 1))
    table = Lct(name="t", clocking=Clocking.COMBINATIONAL,
                conditions=(SignalHeader("a"), ExprHeader("a & b")),
                results=("q",),
                rows=(CaseRow((one, wide_one), (wide_one,), label=" L0 ",
                              comment="note "),
                      CaseRow((DONT_CARE, DONT_CARE), (DONT_CARE,))),
                ports=ports)
    back = tableio.parse_unit(*tableio.serialize_unit(table))
    assert back.rows == (
        CaseRow((one, one), (wide_one,), label="L0", comment="note"),
        CaseRow((DONT_CARE, DONT_CARE), (DONT_CARE,), label="",
                comment=""))
    assert dataclasses.replace(back, rows=table.rows) == table


@pytest.mark.parametrize("condition, result", [
    ("Case", "q"), ("CASE", "q"), ("a", "Comments"), ("a", "comments"),
    ("Case", "Comments")])
@pytest.mark.parametrize("label, comment", [
    (None, None), ("L0", None), (None, "note"), ("L0", "note")])
def test_ports_named_like_label_and_comment_columns_read_back(
        condition, result, label, comment):
    """A first port `Case` or a last port `Comments` is a data column;
    label and comment columns still read as such beside them.  (`case`
    is a reserved word, so no port has that name.)"""
    table = Lct("u", Clocking.COMBINATIONAL, (SignalHeader(condition),),
                (result,),
                (CaseRow((Constant(BitVector(1, 1)),),
                         (Constant(BitVector(1, 0)),), label=label,
                         comment=comment),),
                PortMap((Port(Direction.INPUT, condition, 1),
                         Port(Direction.OUTPUT, result, 1))))
    assert validate_lct(table) == []
    assert tableio.parse_unit_doc(tableio.serialize_unit_doc(table)) == table


CONNECTIVITY = """\
top soc
instance u0 producer
bind input clk_in clk 1 external
bind output data q 8 internal
instance u1 consumer
bind input d q 8 internal
bind output out result 8 external
"""


def test_parse_connectivity():
    conn = tableio.parse_connectivity(CONNECTIVITY)
    assert conn.top == "soc"
    assert [inst.name for inst in conn.instances] == ["u0", "u1"]
    assert set(conn.nets()) == {"clk", "q", "result"}


def test_connectivity_size_conflict_rejected():
    bad = CONNECTIVITY.replace("bind input d q 8 internal",
                               "bind input d q 4 internal")
    with pytest.raises(Exception) as err:
        tableio.parse_connectivity(bad)
    assert "sizes" in str(err.value)


def test_connectivity_dangling_net_rejected():
    bad = CONNECTIVITY.replace("bind output data q 8 internal\n", "")
    with pytest.raises(Exception) as err:
        tableio.parse_connectivity(bad)
    assert "driver" in str(err.value)


def test_connectivity_multiple_drivers_rejected():
    bad = CONNECTIVITY + "instance u2 producer\nbind output data q 8 internal\n"
    with pytest.raises(Exception) as err:
        tableio.parse_connectivity(bad)
    assert "drivers" in str(err.value)


@pytest.mark.parametrize("old, new, message", [
    ("top soc\n", "bind input clk_in clk 1 external\ntop soc\n",
     "bind line before any instance (line 1)"),
    ("clk 1 external", "clk 1 sideways",
     "bad binding: 'sideways' is not a valid NetContext (line 3)"),
    ("input clk_in", "inout clk_in",
     "bad binding: 'inout' is not a valid Direction (line 3)"),
    ("clk 1 external", "clk 0 external",
     "binding size must be >= 1 (line 3)"),
    ("instance u1 consumer", "instance u1",
     "unrecognized connectivity line 'instance u1' (line 5)"),
    ("top soc\n", "", "connectivity manifest is missing the top line"),
    ("d q 8 internal", "d q 8 external",
     "net q: mixed internal/external context"),
    ("bind input d q 8 internal\n", "", "net q: no load"),
    ("bind input clk_in clk 1", "bind output clk_in clk 1",
     "net clk: multiple drivers (u0.clk_in, u2.clk_in)"),
], ids=["bind-first", "context", "direction", "size-0", "unrecognized",
        "no-top", "mixed-context", "no-load", "external-drivers"])
def test_connectivity_errors(old, new, message):
    """Each edit, made wherever its text occurs, breaks one rule."""
    text = CONNECTIVITY + "instance u2 producer\n" \
        "bind input clk_in clk 1 external\n"
    tableio.parse_connectivity(text)
    assert old in text
    with pytest.raises(LctError) as err:
        tableio.parse_connectivity(text.replace(old, new))
    assert str(err.value) == message


@pytest.mark.parametrize("size", ["+0_8", "\u0668"])
@pytest.mark.parametrize("what, line, parse", [
    ("port width", 7, lambda size: tableio.parse_unit(
        WIDTHS_MANIFEST.replace("port output y 8", f"port output y {size}"),
        "s,d,y\n0,0,0\n")),
    ("binding size", 6, lambda size: tableio.parse_connectivity(
        CONNECTIVITY.replace("bind input d q 8", f"bind input d q {size}"))),
])
def test_port_width_and_binding_size_must_be_decimal(what, line, parse, size):
    """As the counts: ``int`` would read both sizes as 8."""
    with pytest.raises(tableio.ParseError) as err:
        parse(size)
    assert err.value.line == line
    assert f"{what} {size!r} is not a non-negative decimal number" in \
        str(err.value)


@given(WRITTEN)
def test_serialize_unit_matches_the_per_cell_reference(table):
    """Each call formats each distinct value once, and its CSV is the one
    that formats every cell again."""
    assert tableio.serialize_unit(table)[1] == reference_csv_text(table)
