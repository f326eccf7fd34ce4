import gc
import hashlib
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qfringe
from qfringe import ConfigError, cli, parse_config, runner
from qfringe.cli import main
from qfringe.config import MAX_QUBIT_CUTOFF, MEMORY_BUDGET_BYTES, load_config
from qfringe.fock import FockSpace, coherent_state, fock_state, thermal_state
from qfringe.runner import run

SRC_DIR = str(Path(qfringe.__file__).resolve().parents[1])

MINIMAL_FRINGE = {
    "experiment": "fringe",
    "geometry": {"slits": [-5e-6, 5e-6], "screen_z": 1.0, "wavelength": 500e-9},
    "scan": {"x_min": -0.025, "x_max": 0.025, "n_points": 101},
}


def write_config(tmp_path, payload, name="run_config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli_process(*args):
    """`python -m qfringe ARGS` as its own process, importing this checkout's package."""
    paths = [SRC_DIR, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path for path in paths if path))
    command = [sys.executable, "-m", "qfringe", *args]
    return subprocess.run(command, capture_output=True, text=True, env=env, check=False)


def test_minimal_fringe_config_round_trip():
    config = parse_config(json.dumps(MINIMAL_FRINGE))
    assert config.experiment == "fringe"
    assert config.geometry.slit_count == 2
    assert config.geometry.k == pytest.approx(2.0 * math.pi / 500e-9)
    assert config.geometry.source == (0.0, -1.0)
    assert np.array_equal(config.source_state.data, fock_state(FockSpace(16), 1).data)
    assert config.qubit is None
    assert config.output.format == "csv"
    assert config.output.path == "fringe.csv"


def test_invalid_n_points_names_field():
    payload = dict(MINIMAL_FRINGE, scan={"x_min": 0.0, "x_max": 1.0, "n_points": 1})
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(payload))
    assert excinfo.value.field == "scan.n_points"
    assert "scan.n_points" in str(excinfo.value)


def test_unknown_key_suggests_neighbor():
    payload = {
        "experiment": "fringe",
        "geometry": {"slitz": [-5e-6, 5e-6], "screen_z": 1.0, "wavelength": 500e-9},
        "scan": {"x_min": -0.01, "x_max": 0.01, "n_points": 3},
    }
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(payload))
    message = str(excinfo.value)
    assert "slitz" in message
    assert "did you mean 'slits'?" in message


def test_unknown_top_level_key():
    payload = dict(MINIMAL_FRINGE)
    payload["geometri"] = {}
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(payload))
    assert "did you mean 'geometry'?" in str(excinfo.value)


def test_malformed_json_reports_position():
    with pytest.raises(ConfigError) as excinfo:
        parse_config('{"experiment":\n  fringe}')
    message = str(excinfo.value)
    assert "line 2" in message
    assert "column 3" in message


def test_experiment_required_and_validated():
    with pytest.raises(ConfigError):
        parse_config("{}")
    with pytest.raises(ConfigError):
        parse_config('{"experiment": "interferometry"}')


def test_wavelength_and_k_are_exclusive():
    payload = dict(MINIMAL_FRINGE)
    payload["geometry"] = dict(payload["geometry"], k=1.0)
    with pytest.raises(ConfigError):
        parse_config(json.dumps(payload))


def test_qubit_config_defaults_and_scan():
    payload = {
        "experiment": "qubit",
        "scan": {"t_max": 6.0, "n_points": 11},
    }
    config = parse_config(json.dumps(payload))
    assert config.qubit.omega == 1.0
    assert config.qubit.cutoff == 8
    assert config.scan.t_max == 6.0
    assert config.output.path == "qubit.csv"
    with pytest.raises(ConfigError):
        parse_config(json.dumps({"experiment": "qubit", "scan": {"x_min": 0.0, "n_points": 5}}))


def test_verify_config_needs_nothing():
    config = parse_config('{"experiment": "verify"}')
    assert config.scan is None
    assert config.geometry is None
    assert config.output.format == "json"
    assert config.output.path == "verify.json"


def test_source_state_variants():
    payload = dict(MINIMAL_FRINGE, source_state={"coherent": [0.5, 0.25], "cutoff": 20})
    state = parse_config(json.dumps(payload)).source_state
    expected = coherent_state(FockSpace(20), 0.5 + 0.25j)
    assert state.kind == "pure"
    assert state.dim == 20
    assert np.array_equal(state.data, expected.data) and state.lost_weight == expected.lost_weight

    payload = dict(MINIMAL_FRINGE, source_state={"thermal": 0.4})
    state = parse_config(json.dumps(payload)).source_state
    assert state.kind == "mixed"
    assert np.array_equal(state.data, thermal_state(FockSpace(16), 0.4).data)

    with pytest.raises(ConfigError):
        parse_config(json.dumps(dict(MINIMAL_FRINGE, source_state={"fock": 1, "thermal": 0.1})))
    with pytest.raises(ConfigError):
        parse_config(json.dumps(dict(MINIMAL_FRINGE, source_state={"fock": 99})))


def test_compare_requires_two_slits():
    payload = {
        "experiment": "compare",
        "geometry": {"slits": [0.0], "screen_z": 1.0, "wavelength": 500e-9},
        "scan": {"x_min": -0.01, "x_max": 0.01, "n_points": 5},
    }
    with pytest.raises(ConfigError):
        parse_config(json.dumps(payload))


def test_override_format_renames_default_path():
    text = json.dumps(MINIMAL_FRINGE)
    overridden = parse_config(text, output_format="json")
    assert overridden.output.path == "fringe.json"
    explicit = parse_config(text, output_path="custom.out", output_format="json")
    assert explicit.output.path == "custom.out"


def test_override_format_keeps_an_explicit_path():
    # A path the config sets is kept, even when it reads like the default one.
    text = json.dumps(dict(MINIMAL_FRINGE, output={"path": "fringe.csv"}))
    config = parse_config(text, output_format="json")
    assert (config.output.path, config.output.format) == ("fringe.csv", "json")


def test_cli_fringe_run_rows(tmp_path):
    out = tmp_path / "fringe.csv"
    payload = dict(MINIMAL_FRINGE, output={"path": str(out)})
    code = main(["--config", write_config(tmp_path, payload)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x_D,probability,raw_intensity"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 101
    center = rows[50]
    assert float(center[0]) == 0.0
    assert float(center[1]) == 1.0
    edge = rows[-1]
    assert float(edge[0]) == pytest.approx(0.025)
    assert float(edge[1]) < 1e-4


def test_cli_qubit_run_half_period(tmp_path):
    out = tmp_path / "qubit.csv"
    payload = {
        "experiment": "qubit",
        "qubit": {"omega": 1.0, "cutoff": 8},
        "scan": {"t_max": 2.0 * math.pi, "n_points": 101},
        "output": {"path": str(out)},
    }
    code = main(["--config", write_config(tmp_path, payload)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 101
    t_mid, p_mid = (float(cell) for cell in rows[50])
    assert t_mid == pytest.approx(math.pi, abs=1e-15)
    assert p_mid == pytest.approx(1.0, abs=1e-12)
    probs = np.array([float(r[1]) for r in rows])
    times = np.array([float(r[0]) for r in rows])
    assert np.max(np.abs(probs - np.sin(times / 2.0) ** 2)) < 1e-12


def test_cli_verify_run_all_pass(tmp_path):
    out = tmp_path / "report.json"
    payload = {"experiment": "verify", "output": {"path": str(out)}}
    code = main(["--config", write_config(tmp_path, payload)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_pass"] is True
    assert all(entry["pass"] for entry in report["checks"])


def test_cli_verify_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    payload = {"experiment": "verify", "output": {"path": str(out), "format": "csv"}}
    assert main(["--config", write_config(tmp_path, payload)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "check,max_deviation,tolerance,pass"
    assert all(line.endswith(",true") for line in lines[1:])


def test_cli_compare_far_field(tmp_path):
    out = tmp_path / "compare.json"
    payload = {
        "experiment": "compare",
        "geometry": {"slits": [-5e-6, 5e-6], "screen_z": 1.0, "wavelength": 500e-9},
        "scan": {"x_min": -0.025, "x_max": 0.025, "n_points": 21},
        "output": {"path": str(out), "format": "json"},
    }
    code = main(["--config", write_config(tmp_path, payload), "--far-field"])
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["rows"]) == 21
    assert report["max_abs_deviation"] < 1e-10
    for row in report["rows"]:
        assert row["abs_deviation"] == pytest.approx(
            abs(row["heisenberg"] - row["oracle"]), abs=1e-18
        )


def test_cli_compare_csv_footer(tmp_path):
    out = tmp_path / "compare.csv"
    payload = {
        "experiment": "compare",
        "geometry": {"slits": [-5e-6, 5e-6], "screen_z": 1.0, "wavelength": 500e-9},
        "scan": {"x_min": -0.01, "x_max": 0.01, "n_points": 5},
        "output": {"path": str(out)},
    }
    assert main(["--config", write_config(tmp_path, payload)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x_D,heisenberg,oracle,abs_deviation"
    assert lines[-1].startswith("# max_abs_deviation = ")


def test_cli_output_determinism(tmp_path):
    config_path = write_config(tmp_path, MINIMAL_FRINGE)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["--config", config_path, "--output", str(out1)]) == 0
    assert main(["--config", config_path, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_verify_report_determinism(tmp_path):
    config_path = write_config(tmp_path, {"experiment": "verify"})
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["--config", config_path, "--output", str(out1)]) == 0
    assert main(["--config", config_path, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


MINIMAL_QUBIT = {
    "experiment": "qubit",
    "qubit": {"cutoff": 2},
    "scan": {"t_max": 1.0, "n_points": 3},
}
MINIMAL_COMPARE = dict(
    MINIMAL_FRINGE, experiment="compare", scan=dict(MINIMAL_FRINGE["scan"], n_points=21)
)
CSV_JSON_CASES = [
    # (config, flags, CSV header, row count or None, JSON key of the rows or None: a bare list)
    (MINIMAL_FRINGE, [], "x_D,probability,raw_intensity", 101, None),
    (MINIMAL_FRINGE, ["--far-field"], "x_D,probability,raw_intensity", 101, None),
    (MINIMAL_QUBIT, [], "t,probability", 3, None),
    (MINIMAL_COMPARE, [], "x_D,heisenberg,oracle,abs_deviation", 21, "rows"),
    ({"experiment": "verify"}, [], "check,max_deviation,tolerance,pass", None, "checks"),
]


@pytest.mark.parametrize(
    "payload, flags, header, n_rows, rows_key",
    CSV_JSON_CASES,
    ids=["fringe_exact", "fringe_far_field", "qubit", "compare", "verify"],
)
def test_cli_csv_and_json_agree(tmp_path, payload, flags, header, n_rows, rows_key):
    config_path = write_config(tmp_path, payload)
    csv_out = tmp_path / "t.csv"
    json_out = tmp_path / "t.json"
    for out, fmt in ((csv_out, "csv"), (json_out, "json")):
        assert main(["--config", config_path, "--output", str(out), "--format", fmt, *flags]) == 0
    lines = csv_out.read_text().strip().split("\n")
    assert lines[0] == header
    names = header.split(",")
    footer = [line for line in lines[1:] if line.startswith("#")]
    csv_rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    document = json.loads(json_out.read_text())
    json_rows = document.pop(rows_key) if rows_key else document
    assert len(csv_rows) == len(json_rows)
    if n_rows is not None:
        assert len(csv_rows) == n_rows
    if names[0] != "check":
        first = [float(cells[0]) for cells in csv_rows]
        assert first == sorted(first)
    for cells, row in zip(csv_rows, json_rows):
        assert list(row) == names
        for name, cell in zip(names, cells):
            value = row[name]
            if isinstance(value, bool):
                assert cell == ("true" if value else "false")
            elif isinstance(value, str):
                assert cell == value
            else:
                assert float(cell) == value
    if rows_key == "rows":
        assert document == {"max_abs_deviation": max(row["abs_deviation"] for row in json_rows)}
        assert len(footer) == 1 and footer[0].startswith("# max_abs_deviation = ")
        assert float(footer[0].split(" = ")[1]) == document["max_abs_deviation"]
    elif rows_key == "checks":
        assert document == {"all_pass": True} and all(row["pass"] for row in json_rows)
    else:
        assert footer == []


def test_cli_far_field_flag_changes_fringe_mode(tmp_path):
    config_path = write_config(tmp_path, MINIMAL_FRINGE)
    exact_out = tmp_path / "exact.csv"
    far_out = tmp_path / "far.csv"
    assert main(["--config", config_path, "--output", str(exact_out)]) == 0
    assert main(["--config", config_path, "--output", str(far_out), "--far-field"]) == 0
    exact_rows = exact_out.read_text().strip().split("\n")[1:]
    far_rows = far_out.read_text().strip().split("\n")[1:]
    diffs = [
        abs(float(a.split(",")[1]) - float(b.split(",")[1]))
        for a, b in zip(exact_rows, far_rows)
    ]
    assert 0.0 < max(diffs) < 1e-3


def test_cli_exit_code_config_error(tmp_path, capsys):
    bad = dict(MINIMAL_FRINGE, scan={"x_min": 0.0, "x_max": 1.0, "n_points": 1})
    assert main(["--config", write_config(tmp_path, bad)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("geometry", "screen_z", math.inf),
        ("scan", "x_min", -math.inf),
        ("geometry", "source", [math.nan, -1.0]),
        ("geometry", "screen_z", 10**400),
    ],
    ids=["screen_z_infinity", "x_min_minus_infinity", "source_nan", "screen_z_beyond_float"],
)
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, section, key, value):
    out = tmp_path / "fringe.csv"
    payload = dict(MINIMAL_FRINGE, output={"path": str(out)})
    payload[section] = dict(payload[section], **{key: value})
    assert main(["--config", write_config(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{section}.{key}" in err and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("alpha", [40.0, 1000.0])
def test_cli_rejects_coherent_amplitude_beyond_float_range(tmp_path, capsys, alpha):
    # exp(-|alpha|^2 / 2) underflows, so no Fock amplitude of the state is left.
    out = tmp_path / "fringe.csv"
    payload = dict(MINIMAL_FRINGE, source_state={"coherent": alpha}, output={"path": str(out)})
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(payload))
    assert excinfo.value.field == "source_state.coherent"
    assert main(["--config", write_config(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "config error" in err and "source_state.coherent" in err
    assert not out.exists()


def test_cli_verify_nan_deviation_is_a_failed_check(tmp_path, monkeypatch):
    # The report is not guarded like a result table: NaN is a failed check (exit 1), not exit 4.
    from qfringe import oracle

    nan_check = oracle.VerificationCheck("nan_check", math.nan, 1e-10, False)
    monkeypatch.setattr(oracle, "run_verification_suite", lambda: [nan_check])
    out = tmp_path / "verify.csv"
    payload = {"experiment": "verify", "output": {"path": str(out), "format": "csv"}}
    assert main(["--config", write_config(tmp_path, payload)]) == 1
    assert out.read_text() == "check,max_deviation,tolerance,pass\nnan_check,nan,1e-10,false\n"


def test_cli_verify_json_writes_null_for_non_finite_deviation(tmp_path, monkeypatch):
    # JSON has no NaN or infinity: a non-finite deviation is written as null
    # and stays a failed check (exit 1).
    from qfringe import oracle

    checks = [
        oracle.VerificationCheck("a", math.nan, 1e-10, False),
        oracle.VerificationCheck("b", -math.inf, 1e-10, False),
    ]
    monkeypatch.setattr(oracle, "run_verification_suite", lambda: checks)
    out = tmp_path / "verify.json"
    payload = {"experiment": "verify", "output": {"path": str(out), "format": "json"}}
    assert main(["--config", write_config(tmp_path, payload)]) == 1

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    report = json.loads(out.read_text(), parse_constant=reject)
    assert [check["max_deviation"] for check in report["checks"]] == [None, None]
    assert [check["pass"] for check in report["checks"]] == [False, False]
    assert report["all_pass"] is False


def test_qubit_cutoff_capped_by_memory_budget(tmp_path, capsys):
    # About five dense operators of 16 * cutoff**4 bytes each must fit in the budget.
    assert 5 * 16 * MAX_QUBIT_CUTOFF**4 <= MEMORY_BUDGET_BYTES < 5 * 16 * (MAX_QUBIT_CUTOFF + 1) ** 4
    payload = {"experiment": "qubit", "scan": {"t_max": 1.0, "n_points": 5}}
    for cutoff in (2, 8, 16, MAX_QUBIT_CUTOFF):
        config = parse_config(json.dumps(dict(payload, qubit={"cutoff": cutoff})))
        assert config.qubit.cutoff == cutoff
    for cutoff in (1, MAX_QUBIT_CUTOFF + 1, 200, 10**12):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(json.dumps(dict(payload, qubit={"cutoff": cutoff})))
        assert excinfo.value.field == "qubit.cutoff"
        assert f"[2, {MAX_QUBIT_CUTOFF}]" in str(excinfo.value)
    # The CLI rejects it while parsing, before any operator is built.
    rejected = dict(payload, qubit={"cutoff": 200}, output={"path": str(tmp_path / "qubit.csv")})
    assert main(["--config", write_config(tmp_path, rejected)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: qubit.cutoff must lie in [2, {MAX_QUBIT_CUTOFF}]"]
    assert not (tmp_path / "qubit.csv").exists()


@pytest.mark.parametrize(
    "content",
    [b'{"experiment": "verify"\xff}', b"[" * 200_000],
    ids=["not_utf8", "nested_too_deeply"],
)
def test_cli_unreadable_config_text_is_a_config_error(tmp_path, monkeypatch, capsys, content):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run_config.json").write_bytes(content)
    assert main(["--config", "run_config.json"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["run_config.json"]


def test_cli_exit_code_missing_config(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.json")]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_cli_exit_code_unwritable_output(tmp_path):
    config_path = write_config(tmp_path, MINIMAL_FRINGE)
    target = str(tmp_path / "no_such_dir" / "out.csv")
    assert main(["--config", config_path, "--output", target]) == 3


def test_cli_exit_code_degenerate_geometry(tmp_path, capsys):
    # Valid configs with a zero-length leg. In the first, screen_z**2
    # underflows to 0, so the scan point at +5 um sits on a slit; in the
    # second, the source's z**2 does, so the source sits on the slit at +5 um.
    # The far-field law never forms the source legs, but every scan's raw
    # intensity does.
    geometries = (
        {"slits": [-5e-6, 5e-6], "screen_z": 1e-200, "wavelength": 500e-9},
        {"source": [5e-6, -1e-170], "slits": [-5e-6, 5e-6], "screen_z": 1.0, "wavelength": 500e-9},
    )
    for experiment, geometry in itertools.product(("fringe", "compare"), geometries):
        out = tmp_path / f"{experiment}.csv"
        payload = {
            "experiment": experiment,
            "geometry": geometry,
            "scan": {"x_min": 0.0, "x_max": 5e-6, "n_points": 3},
            "output": {"path": str(out)},
        }
        for flags in ([], ["--far-field"]):
            assert main(["--config", write_config(tmp_path, payload), *flags]) == 4
            assert "zero-length propagation leg" in capsys.readouterr().err
            assert not out.exists()


def test_cli_exit_code_non_finite_result(tmp_path):
    # screen_z**2 is subnormal but not 0, so the leg to the slit at +5 um is
    # tiny rather than zero and |T|^2 overflows: the table would hold inf
    # and nan, so nothing is written. The CLI runs as its own process, so a
    # numpy floating-point warning would reach its stderr beside the one error line.
    for experiment in ("fringe", "compare"):
        out = tmp_path / f"{experiment}.csv"
        payload = {
            "experiment": experiment,
            "geometry": {"slits": [-5e-6, 5e-6], "screen_z": 1e-160, "wavelength": 500e-9},
            "scan": {"x_min": 0.0, "x_max": 5e-6, "n_points": 3},
            "output": {"path": str(out)},
        }
        result = run_cli_process("--config", write_config(tmp_path, payload))
        assert result.returncode == 4
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("computation error: non-finite value in output column")
        assert not out.exists()


def test_cli_rejects_qubit_phase_overflow(tmp_path, capsys):
    out = tmp_path / "qubit.csv"
    payload = {
        "experiment": "qubit",
        "qubit": {"omega": 1e300, "cutoff": 4},
        "scan": {"t_max": 1e10, "n_points": 5},
        "output": {"path": str(out)},
    }
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(payload))
    assert excinfo.value.field == "scan.t_max"
    assert main(["--config", write_config(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "config error" in err and "scan.t_max" in err
    assert not out.exists()


# SHA-256 of the qubit CLI output, computed from one Pauli-basis evaluation
# per time point; the one-pass flip curve must reproduce these bytes.
QUBIT_OUTPUT_DIGESTS = [
    (
        {"omega": 1.3, "cutoff": 16},
        {"t_max": 7.0, "n_points": 101},
        "csv",
        "915af28eb30f4dd1a7cc4200a63e7e5306d1498d7615196c200621d066025b11",
    ),
    (
        {"omega": 0.7, "cutoff": 3},
        {"t_max": 20.0, "n_points": 57},
        "json",
        "3a6502f3bd1ef907b2009e4f568a65f807fc3682bf9845a0f8ff50d73a08e8d4",
    ),
]


@pytest.mark.parametrize("qubit, scan, fmt, digest", QUBIT_OUTPUT_DIGESTS, ids=["c16_csv", "c3_json"])
def test_cli_qubit_output_bytes_pinned(tmp_path, qubit, scan, fmt, digest):
    out = tmp_path / f"qubit.{fmt}"
    payload = {
        "experiment": "qubit",
        "qubit": qubit,
        "scan": scan,
        "output": {"path": str(out), "format": fmt},
    }
    assert main(["--config", write_config(tmp_path, payload)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of screen-scan CLI outputs written by the per-cell serializer; the
# columnar serializer must reproduce these bytes. The JSON pins were taken
# while each experiment still had its own JSON writer.
PINNED_GEOMETRY = {
    "source": [2e-5, -0.8],
    "slits": [-7e-6, 6e-6],
    "screen_z": 1.3,
    "wavelength": 612e-9,
}
PINNED_SCAN = {"x_min": -0.03, "x_max": 0.021, "n_points": 301}
SCAN_OUTPUT_DIGESTS = [
    (
        "fringe",
        {"thermal": 0.7, "cutoff": 12},
        [],
        "csv",
        "202f67c9b103df3c19ca334fcaac67c2a96b3807562ba0b0fe82c7f4daa6ad50",
    ),
    (
        "compare",
        None,
        [],
        "csv",
        "744996d21d947297c8606591871dc8462628d4f4cf7ffa94c4a55660efb8eff3",
    ),
    (
        "compare",
        None,
        ["--far-field"],
        "csv",
        "46e4efd531058e4407989488ac0fcd1273eafad4c43b96de25c881a707f401e4",
    ),
    (
        "fringe",
        {"thermal": 0.7, "cutoff": 12},
        [],
        "json",
        "6f2461cd6ccc357a226758865cea6f4fffe7a4e3c28cfb5088a48a67edeec2d9",
    ),
    (
        "compare",
        None,
        [],
        "json",
        "4670985a4115f54ec1b99caf24eb577e5921f4f63a2cc6d54730c3515432ee61",
    ),
    (
        "fringe",
        {"thermal": 0.7, "cutoff": 12},
        ["--far-field"],
        "csv",
        "d3c5d355e9e00ad7d8d38d359a498383adc536d5567a4dd094c3a1d3ae2fe61f",
    ),
]


@pytest.mark.parametrize(
    "experiment, source_state, flags, fmt, digest",
    SCAN_OUTPUT_DIGESTS,
    ids=[
        "fringe_exact",
        "compare_exact",
        "compare_far_field",
        "fringe_exact_json",
        "compare_exact_json",
        "fringe_far_field",
    ],
)
def test_cli_scan_output_bytes_pinned(tmp_path, experiment, source_state, flags, fmt, digest):
    out = tmp_path / f"{experiment}.{fmt}"
    payload = {
        "experiment": experiment,
        "geometry": PINNED_GEOMETRY,
        "scan": PINNED_SCAN,
        "output": {"path": str(out), "format": fmt},
    }
    if source_state is not None:
        payload["source_state"] = source_state
    assert main(["--config", write_config(tmp_path, payload), *flags]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of the default verify report, written by the report's own serializers.
VERIFY_OUTPUT_DIGESTS = [
    ("json", "837c19cebfd5dd1fa76347d56118ef48fb633888f92fd4d324fe2a2603afef1c"),
    ("csv", "96855ee0c27b408024f72bf51760fa17e51e14f26df48e981d6d908050c41e20"),
]


@pytest.mark.parametrize("fmt, digest", VERIFY_OUTPUT_DIGESTS, ids=["json", "csv"])
def test_cli_verify_output_bytes_pinned(tmp_path, fmt, digest):
    out = tmp_path / f"verify.{fmt}"
    payload = {"experiment": "verify", "output": {"path": str(out), "format": fmt}}
    assert main(["--config", write_config(tmp_path, payload)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# Four of the pins above, run the way the console script and the benchmark
# run them: `python -m qfringe` reaches main() through entry(), which freezes
# the import-time heap first.
PROCESS_OUTPUT_DIGESTS = [
    (
        "qubit",
        {"qubit": QUBIT_OUTPUT_DIGESTS[0][0], "scan": QUBIT_OUTPUT_DIGESTS[0][1]},
        [],
        *QUBIT_OUTPUT_DIGESTS[0][2:],
    ),
    (
        "fringe",
        {"geometry": PINNED_GEOMETRY, "scan": PINNED_SCAN, "source_state": SCAN_OUTPUT_DIGESTS[0][1]},
        *SCAN_OUTPUT_DIGESTS[0][2:],
    ),
    ("compare", {"geometry": PINNED_GEOMETRY, "scan": PINNED_SCAN}, *SCAN_OUTPUT_DIGESTS[2][2:]),
    ("verify", {}, [], *VERIFY_OUTPUT_DIGESTS[0]),
]


@pytest.mark.parametrize(
    "experiment, fields, flags, fmt, digest",
    PROCESS_OUTPUT_DIGESTS,
    ids=["qubit_c16_csv", "fringe_exact", "compare_far_field", "verify_json"],
)
def test_cli_process_output_bytes_pinned(tmp_path, experiment, fields, flags, fmt, digest):
    out = tmp_path / f"{experiment}.{fmt}"
    payload = {"experiment": experiment, **fields, "output": {"path": str(out), "format": fmt}}
    result = run_cli_process("--config", write_config(tmp_path, payload), *flags)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"wrote {experiment} output: {out}\n"
    assert result.stderr == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_process_config_error_exits_2(tmp_path):
    payload = dict(MINIMAL_FRINGE, scan=dict(MINIMAL_FRINGE["scan"], n_points=1))
    result = run_cli_process("--config", write_config(tmp_path, payload))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1 and result.stderr.startswith("config error: scan.n_points")


def test_runner_calls_keep_the_parameter_names_the_traced_benchmark_binds():
    # perfbench/tracing.py wraps these runner attributes and reads the call's
    # arguments by name, so a rename would crash only traced benchmark runs.
    assert {"geom", "n_points", "state"} <= set(inspect.signature(runner.fringe_scan).parameters)
    assert "params" in inspect.signature(runner.transition_probability).parameters


def test_entry_freezes_once_before_main(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 0)
    with pytest.raises(SystemExit) as excinfo:
        cli.entry()
    assert excinfo.value.code == 0
    assert calls == ["freeze", "main"]


def test_main_in_process_does_not_freeze(tmp_path):
    before = gc.get_freeze_count()
    payload = dict(MINIMAL_FRINGE, output={"path": str(tmp_path / "fringe.csv")})
    assert main(["--config", write_config(tmp_path, payload)]) == 0
    assert gc.get_freeze_count() == before


def test_cli_rejects_seed_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--config", write_config(tmp_path, MINIMAL_FRINGE), "--seed", "42"])
    assert excinfo.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    [{"experiment": "qubit", "scan": {"t_max": 6.0, "n_points": 11}}, {"experiment": "verify"}],
    ids=["qubit", "verify"],
)
def test_cli_rejects_far_field_outside_fringe_and_compare(tmp_path, monkeypatch, capsys, payload):
    monkeypatch.chdir(tmp_path)
    assert main(["--config", write_config(tmp_path, payload), "--far-field"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: far-field mode applies to the fringe and compare experiments\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run_config.json"]


def test_run_rejects_far_field_with_many_slits(tmp_path):
    payload = {
        "experiment": "fringe",
        "geometry": {"slits": [-1e-5, 0.0, 1e-5], "screen_z": 1.0, "wavelength": 500e-9},
        "scan": {"x_min": -0.01, "x_max": 0.01, "n_points": 5},
    }
    config_path = write_config(tmp_path, payload)
    with pytest.raises(ConfigError):
        load_config(config_path, far_field=True)
    out = tmp_path / "triple.csv"
    config = load_config(config_path, output_path=str(out))
    assert run(config) == 0
    assert len(out.read_text().strip().split("\n")) == 6
