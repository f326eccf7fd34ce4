"""tools/same_outputs.py, the byte comparison of two source trees over the benchmark workloads."""

import importlib.util
import shutil
import sys
from pathlib import Path

import qfringe

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(qfringe.__file__).resolve().parents[1]


def _differences(monkeypatch, tmp_path, new_src):
    """The tool's differences between this tree and `new_src` on qubit_curve at seed 1."""
    monkeypatch.setitem(sys.modules, "perfbench_workloads", None)  # dropped afterwards
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    invocations = [("qubit_curve seed 1", inv) for inv in module.load_workloads().generate("qubit_curve", 1)]
    assert len(invocations) == 2
    srcs = {"old": str(SRC), "new": str(new_src)}
    return module.compare(srcs, invocations, tmp_path / "work")


def test_same_tree_twice_has_no_difference(monkeypatch, tmp_path):
    assert _differences(monkeypatch, tmp_path, SRC) == []


def test_edited_flip_readout_constant_is_a_difference(monkeypatch, tmp_path):
    edited = tmp_path / "src"
    shutil.copytree(SRC / "qfringe", edited / "qfringe", ignore=shutil.ignore_patterns("__pycache__"))
    qubit_py = edited / "qfringe" / "qubit.py"
    text = qubit_py.read_text()
    readout = "values = 0.5 * (1.0 - (evolved_plus @ plus_vec.conj()).real)"
    assert text.count(readout) == 1
    qubit_py.write_text(text.replace(readout, readout.replace("0.5", "0.5000001")))
    differences = _differences(monkeypatch, tmp_path, edited)
    assert [line.split(": ")[0] for line in differences] == [
        "qubit_curve seed 1 qubit_c16",
        "qubit_curve seed 1 qubit_c8",
    ]
    assert all(": output bytes differs (" in line for line in differences)
