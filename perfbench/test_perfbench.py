"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import tracing
import workloads


def test_tail_percentile_keeps_ten_samples_beyond():
    sizes = (24, 48, 100, 1000, 10_000)
    assert [run.tail_per_mille(n) for n in sizes] == [500, 750, 900, 990, 999]
    assert [n - run.nearest_rank(n, run.tail_per_mille(n)) for n in sizes] == [12, 12, 10, 10, 10]
    # Below 20 samples no tail keeps ten beyond it, so the median stands in.
    assert run.tail_per_mille(6) == 500 and run.nearest_rank(6, 500) == 3


def test_self_time_subtracts_direct_children_only():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    recorder = tracing.SpanRecorder(clock=lambda: next(ticks))
    with recorder.span("root"):  # 0 .. 10
        with recorder.span("a"):  # 1 .. 4
            with recorder.span("a.inner"):  # 2 .. 3
                pass
        with recorder.span("b"):  # 5 .. 6
            pass
    names = [s["name"] for s in recorder.spans]
    parents = [s["parent"] for s in recorder.spans]
    assert names == ["root", "a", "a.inner", "b"]
    assert parents == [None, 0, 1, 0]
    assert tracing.self_times(recorder.spans) == [6.0, 2.0, 1.0, 1.0]


def test_trace_point_records_counts_and_reports_missing(monkeypatch):
    import types

    module = types.ModuleType("fake_layer")
    module.serialize = lambda rows: "a,b\n" * rows
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    recorder = tracing.SpanRecorder()
    points = (
        ("fake_layer", "serialize", "tableio.serialize", tracing._serialize_attrs),
        ("fake_layer", "gone", "x.gone", None),
    )
    assert tracing.install(recorder, points) == ["fake_layer.gone"]
    assert module.serialize(3) == "a,b\n" * 3
    recorded = [(s["name"], s["attrs"]) for s in recorder.spans]
    assert recorded == [("tableio.serialize", {"bytes": 12})]


def test_parse_importtime_takes_outermost_entries():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |   encodings",
            "import time:        50 |         50 |         numpy.core",
            "import time:        30 |         80 |       numpy",
            "import time:        40 |         40 |         scipy._lib",
            "import time:        20 |         60 |       scipy.linalg",
            "import time:        10 |        150 |     qfringe.oracle",
            "import time:         5 |        155 |   qfringe",
        ]
    )
    parsed = run.parse_importtime(stderr)
    assert parsed["import.total_s"] == pytest.approx(155e-6)
    assert parsed["import.numpy_s"] == pytest.approx(80e-6)
    assert parsed["import.scipy_s"] == pytest.approx(60e-6)
    assert parsed["import.qfringe_self_s"] == pytest.approx(15e-6)


def test_configs_follow_the_seed():
    for name in workloads.WORKLOADS:
        first = [inv.sha256 for inv in workloads.generate(name, 7)]
        assert first == [inv.sha256 for inv in workloads.generate(name, 7)]
        assert first != [inv.sha256 for inv in workloads.generate(name, 8)]
    sweep = workloads.generate("cli_sweep", 3)
    kinds = sorted(inv.kind for inv in sweep)
    assert len(sweep) == 24 and kinds.count("verify") == 2


def _fringe_invocation():
    return next(inv for inv in workloads.generate("cli_sweep", 11) if inv.kind == "fringe")


def _write_reference_fringe(path, config):
    xs = np.linspace(config["scan"]["x_min"], config["scan"]["x_max"], config["scan"]["n_points"])
    raw = checks.raw_intensity(config["geometry"], config["source_state"], xs)
    rows = ["x_D,probability,raw_intensity"]
    rows += [f"{x:.17g},{p:.17g},{r:.17g}" for x, p, r in zip(xs, raw / raw.max(), raw)]
    path.write_text("\n".join(rows) + "\n")


def test_checker_rejects_corrupted_fringe_file(tmp_path):
    inv = _fringe_invocation()
    path = tmp_path / "fringe.csv"
    _write_reference_fringe(path, inv.config)
    assert checks.check_output(inv, str(path), 0).ok
    lines = path.read_text().splitlines()
    x, p, raw = lines[40].split(",")
    lines[40] = ",".join([x, repr(float(p) * (1 + 1e-6)), raw])
    path.write_text("\n".join(lines) + "\n")
    corrupted = checks.check_output(inv, str(path), 0)
    assert not corrupted.ok and corrupted.max_dev > 1e-7
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert not checks.check_output(inv, str(path), 0).ok


def test_checker_rejects_wrong_qubit_curve(tmp_path):
    inv = next(inv for inv in workloads.generate("qubit_curve", 5))
    omega = inv.config["qubit"]["omega"]
    t = np.linspace(0.0, inv.config["scan"]["t_max"], inv.config["scan"]["n_points"])
    path = tmp_path / "qubit.csv"
    for law, ok in ((np.sin(omega * t / 2) ** 2, True), (np.sin(omega * t) ** 2, False)):
        path.write_text("t,probability\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, law)))
        assert checks.check_output(inv, str(path), 0).ok is ok


def test_checker_fails_nonzero_exit_without_reading(tmp_path):
    inv = _fringe_invocation()
    path = tmp_path / "fringe.csv"
    _write_reference_fringe(path, inv.config)
    result = checks.check_output(inv, str(path), 3)
    assert not result.ok and "exit code 3" in result.message


def test_real_cli_outputs_pass_their_checks(tmp_path):
    env = run.child_env()
    sweep = workloads.generate("cli_sweep", 1)
    picked = [next(inv for inv in sweep if inv.kind == k) for k in ("fringe", "compare", "qubit")]
    picked.append(next(inv for inv in sweep if inv.kind == "compare" and inv.far_field))
    for inv in picked:
        config, output = tmp_path / f"{inv.name}.json", tmp_path / f"{inv.name}.out"
        config.write_text(inv.text)
        cmd = run.cli_command(inv, str(config), str(output), None)
        code = subprocess.run(cmd, env=env, cwd=tmp_path, capture_output=True).returncode
        result = checks.check_output(inv, str(output), code)
        assert result.ok, (inv.name, result)
        assert result.max_dev < checks.TOLERANCES[inv.kind][0]


def test_missing_program_exits_nonzero_without_result(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "PACKAGE_INIT", str(tmp_path / "src" / "qfringe" / "__init__.py"))
    assert run.main(["--workload", "cli_sweep", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_names_every_metric_with_its_unit():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
