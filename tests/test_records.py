"""One rule for the arrays a frozen record holds: a read-only view, no copy, the caller's array left alone."""

import dataclasses
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import qfringe
from qfringe import QubitModelParams
from qfringe.config import RunConfig, parse_config
from qfringe.diffraction import FringeTable
from qfringe.fock import QuantumState, _freeze
from qfringe.qubit import EvolutionResult, QuadratureSet, SecondQuantizedPauli, quadratures, schwinger_map

PARAMS = QubitModelParams(omega=1.0, cutoff=3)

# record -> a function giving its keyword arguments, each array fresh, writeable and of the record's dtype
RECORDS = {
    QuantumState: lambda: {"kind": "mixed", "data": np.diag([0.25, 0.75]).astype(complex)},
    SecondQuantizedPauli: lambda: {f"sigma_{label.lower()}": schwinger_map(label, PARAMS) for label in "XYZ"},
    QuadratureSet: lambda: {name: np.array(getattr(quadratures(PARAMS), name)) for name in ("x", "p_x", "y", "p_y")},
    FringeTable: lambda: {
        "x": np.linspace(-1.0, 1.0, 5),
        "probability": np.linspace(0.0, 1.0, 5),
        "raw_intensity": np.linspace(0.0, 2.0, 5),
    },
    EvolutionResult: lambda: {
        "times": np.linspace(0.0, 1.0, 3),
        "coefficients": np.zeros((3, 2, 4)),
        "probabilities": np.zeros(3),
    },
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_record_holds_a_read_only_view_of_each_array(record):
    given = RECORDS[record]()
    built = record(**given)
    for name, array in given.items():
        if not isinstance(array, np.ndarray):
            continue
        held = getattr(built, name)
        assert array.flags.writeable, name
        assert np.shares_memory(held, array), name
        with pytest.raises(ValueError, match="read-only"):
            held[(0,) * held.ndim] = 0
    assert (built == record(**RECORDS[record]())) is False
    assert built == built
    assert isinstance(hash(built), int)


def _package_modules():
    # qfringe.__main__ runs the CLI when imported; it defines no record.
    names = [info.name for info in pkgutil.iter_modules(qfringe.__path__) if info.name != "__main__"]
    return [importlib.import_module(f"qfringe.{name}") for name in names]


def _dataclasses_holding(names, modules):
    """The package's dataclasses with a field whose annotation names one of `names`."""
    return {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type)
        and dataclasses.is_dataclass(value)
        and value.__module__ == module.__name__
        and any(set(re.findall(r"[\w.]+", str(field.type))) & names for field in dataclasses.fields(value))
    }


def test_every_array_record_is_frozen_and_compares_by_identity():
    # An array record holds an np.ndarray; a record that holds an array record is ruled alike.
    modules = _package_modules()
    records = _dataclasses_holding({"np.ndarray", "numpy.ndarray"}, modules)
    assert records >= set(RECORDS)
    holders = _dataclasses_holding({record.__name__ for record in records}, modules)
    assert RunConfig in holders
    for record in records | holders:
        params = record.__dataclass_params__
        assert params.frozen and not params.eq, record.__name__


def test_two_parses_of_one_config_are_distinct_run_configs():
    text = json.dumps({"experiment": "qubit", "scan": {"t_max": 6.0, "n_points": 11}})
    first, second = parse_config(text), parse_config(text)
    assert first != second
    assert first == first
    # The value records it holds keep value equality.
    assert (first.scan, first.output, first.qubit) == (second.scan, second.output, second.qubit)


def test_only_the_freeze_helper_sets_array_flags():
    sources = Path(qfringe.__file__).parent.glob("*.py")
    assert sum(path.read_text().count("setflags(") for path in sources) == 1
    assert "setflags(" in inspect.getsource(_freeze)
