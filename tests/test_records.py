"""One rule for the arrays a frozen record holds: a read-only view, no copy, the caller's array left alone."""

import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import qfringe
from qfringe import QubitModelParams
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


def test_every_array_record_is_frozen_and_compares_by_identity():
    records = {
        value
        for module in _package_modules()
        for value in vars(module).values()
        if isinstance(value, type)
        and dataclasses.is_dataclass(value)
        and value.__module__ == module.__name__
        and any(field.type in ("np.ndarray", np.ndarray) for field in dataclasses.fields(value))
    }
    assert records >= set(RECORDS)
    for record in records:
        params = record.__dataclass_params__
        assert params.frozen and not params.eq, record.__name__


def test_only_the_freeze_helper_sets_array_flags():
    sources = Path(qfringe.__file__).parent.glob("*.py")
    assert sum(path.read_text().count("setflags(") for path in sources) == 1
    assert "setflags(" in inspect.getsource(_freeze)
