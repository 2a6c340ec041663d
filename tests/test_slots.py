"""Value classes are slotted dataclasses: no instance of one has a
``__dict__``.  ``model.Lct`` is the one exception, as it keeps its derived
forms (violations, unit text, ``sim`` kernel) on the instance.  Slotting
keeps what the dataclass gives: equality, hashing, ``copy.deepcopy``,
``pickle`` and ``dataclasses.replace``."""

import copy
import dataclasses
import importlib
import inspect
import itertools
import pickle
import pkgutil
import random

from hypothesis import given, settings, strategies as st

import lctkit
from lctkit import model, sim, tableio
from lctkit.model import BitVector, Clocking
from .util import RUNGS, SEEDS, TABLES


def _dataclasses():
    for info in pkgutil.iter_modules(lctkit.__path__):
        module = importlib.import_module(f"lctkit.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and \
                    dataclasses.is_dataclass(cls):
                yield cls


def test_every_dataclass_but_lct_is_slotted():
    found = list(_dataclasses())
    unslotted = []
    for cls in found:
        instance = object.__new__(cls)  # no __init__: fields need no values
        if cls is model.Lct:
            assert "__slots__" not in vars(cls)
            assert hasattr(instance, "__dict__")
            continue
        if "__slots__" not in vars(cls) or hasattr(instance, "__dict__"):
            unslotted.append(cls.__qualname__)
    assert unslotted == []
    assert model.Lct in found and len(found) == 38


def _round_trips(value):
    for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert again == value
        assert hash(again) == hash(value)


def _stimulus(table, seed, cycles=3):
    rng = random.Random(seed)
    return [{port.name: BitVector(port.width, rng.randrange(1 << port.width))
             for port in table.ports.inputs()} for _ in range(cycles)]



@settings(max_examples=40)
@given(st.one_of(TABLES, RUNGS), SEEDS)
def test_values_survive_pickle_and_deepcopy(table, seed):
    _round_trips(table)
    for row in table.rows:
        _round_trips(row)
        for cell in row.inputs + row.outputs:
            _round_trips(cell)
    for assignment in itertools.islice(sim.enumerate_assignments(table), 16):
        for value in sim.symbolic_outputs(table, assignment):
            _round_trips(value)
    if table.clocking is Clocking.CLOCKED:
        for state in sim.run_trace(table, _stimulus(table, seed)):
            _round_trips(state)
            assert not hasattr(state, "__dict__")
    # Again with the derived forms kept in the table's __dict__.
    table.violations
    tableio.serialize_unit(table)
    _round_trips(table)


@settings(max_examples=20)
@given(st.one_of(TABLES, RUNGS))
def test_replaced_table_derives_its_own_forms(table):
    kernel = sim._kernel(table)
    violations = table.violations
    text = tableio.serialize_unit(table)
    copied = dataclasses.replace(table)
    assert copied == table and copied is not table
    assert not {"_sim_kernel", "_violations", "_unit_text"} & \
        vars(copied).keys()
    assert sim._kernel(copied) is not kernel
    assert copied.violations == violations
    assert tableio.serialize_unit(copied) == text
    assert tableio.serialize_unit(copied) is not text
