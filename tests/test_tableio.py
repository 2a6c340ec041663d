import os

import pytest

from lctkit import tableio
from lctkit.model import (
    BitVector,
    Clocking,
    Constant,
    DONT_CARE,
    ExprHeader,
    SignalHeader,
    SignalRef,
)
from .util import TABLES_DIR, load_fixture, random_lct

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
])
def test_bad_cell_reported_at_its_first_bad_use(csv, where):
    with pytest.raises(tableio.ParseError) as err:
        tableio.parse_unit(WIDTHS_MANIFEST, csv)
    assert (err.value.line, err.value.column) == where


def test_header_count_mismatch_rejected():
    with pytest.raises(tableio.ParseError):
        tableio.parse_unit(MANIFEST, "sel,a\n0,0\n")


def test_missing_manifest_line_rejected():
    bad = MANIFEST.replace("clocking combinational\n", "")
    with pytest.raises(tableio.ParseError) as err:
        tableio.parse_unit(bad, CSV)
    assert "clocking" in str(err.value)


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
