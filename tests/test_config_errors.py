"""Bad run configurations name the field at fault and exit 2; sizes are capped by memory."""

import importlib.util
import json
import math
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfringe import ConfigError, FockSpace, RunConfig, parse_config, run, thermal_state
from qfringe.cli import main
from qfringe.config import (
    FAR_FIELD_TOL,
    MAX_SOURCE_CUTOFF,
    MEMORY_BUDGET_BYTES,
    SCAN_BYTES_PER_POINT,
    SCAN_BYTES_PER_SLIT_POINT,
    max_scan_points,
)

GEOMETRY = {"slits": [-5e-6, 5e-6], "screen_z": 1.0, "wavelength": 500e-9}
FRINGE = {
    "experiment": "fringe",
    "geometry": GEOMETRY,
    "scan": {"x_min": -0.025, "x_max": 0.025, "n_points": 11},
}
QUBIT = {"experiment": "qubit", "scan": {"t_max": 6.0, "n_points": 11}}
VERIFY = {"experiment": "verify"}
FAR_FIELD = ("--far-field",)


def _with(base, section, **fields):
    """`base` with `fields` set in `section` (a value of None deletes the key)."""
    merged = dict(base.get(section, {}), **fields)
    return dict(base, **{section: {k: v for k, v in merged.items() if v is not None}})


def _text(payload):
    """The config text of `payload`; a str is taken as written, since a dict cannot repeat a key."""
    return payload if isinstance(payload, str) else json.dumps(payload)


def _rejected_field(payload):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(_text(payload))
    return excinfo.value.field


def _cli_exits_2_with_one_line(tmp_path, monkeypatch, capsys, payload, flags=()):
    """Run the CLI on `payload`: exit 2, one stderr line, nothing written; returns the line."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run_config.json").write_text(_text(payload))
    assert main(["--config", "run_config.json", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("config error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["run_config.json"]
    return captured.err


# (id, config, the field that ConfigError names); a (config, flags) pair runs with CLI flags
BAD_CONFIGS = [
    # top level
    ("not_an_object", [], "config"),
    ("no_experiment", {}, "experiment"),
    ("unknown_experiment", {"experiment": "interferometry"}, "experiment"),
    ("unknown_top_key", dict(FRINGE, geometri={}), "geometri"),
    # a repeated key would silently replace the first value
    ("duplicate_experiment", '{"experiment": "fringe", "experiment": "qubit", "scan": {"t_max": 6.0, "n_points": 11}}', "experiment"),
    ("duplicate_section", json.dumps(FRINGE)[:-1] + ', "scan": {"x_min": 0.0, "x_max": 0.01, "n_points": 5}}', "scan"),
    ("duplicate_nested_key", json.dumps(FRINGE).replace('"screen_z"', '"slits": [0.0, 1e-5], "screen_z"'), "slits"),
    ("verify_duplicate_nested_key", '{"experiment": "verify", "qubit": {"omega": 1.0, "omega": 2.0}}', "omega"),
    # geometry
    ("no_geometry", {k: v for k, v in FRINGE.items() if k != "geometry"}, "geometry"),
    ("geometry_not_object", dict(FRINGE, geometry=[1.0]), "geometry"),
    ("no_slits", _with(FRINGE, "geometry", slits=None), "geometry.slits"),
    ("no_screen_z", _with(FRINGE, "geometry", screen_z=None), "geometry.screen_z"),
    ("empty_slits", _with(FRINGE, "geometry", slits=[]), "geometry.slits"),
    ("slit_not_number", _with(FRINGE, "geometry", slits=[0.0, "5e-6"]), "geometry.slits[1]"),
    ("source_not_pair", _with(FRINGE, "geometry", source=[0.0]), "geometry.source"),
    ("wavelength_negative", _with(FRINGE, "geometry", wavelength=-5e-7), "geometry.wavelength"),
    ("wavelength_zero", _with(FRINGE, "geometry", wavelength=0), "geometry.wavelength"),
    ("wavelength_string", _with(FRINGE, "geometry", wavelength="500nm"), "geometry.wavelength"),
    ("wavelength_infinite_k", _with(FRINGE, "geometry", wavelength=1e-320), "geometry.wavelength"),
    ("wavelength_and_k", _with(FRINGE, "geometry", k=1.0), "geometry"),
    ("no_wavelength_or_k", _with(FRINGE, "geometry", wavelength=None), "geometry.wavelength"),
    ("k_negative", _with(FRINGE, "geometry", wavelength=None, k=-1.0), "geometry"),
    ("source_above_slits", _with(FRINGE, "geometry", source=[0.0, 1.0]), "geometry"),
    ("screen_z_square_overflows", _with(FRINGE, "geometry", screen_z=1e155), "geometry"),
    ("compare_screen_z_square_overflows", _with(dict(FRINGE, experiment="compare"), "geometry", screen_z=1e200), "geometry"),
    ("source_z_square_overflows", _with(FRINGE, "geometry", source=[0.0, -1e200]), "geometry"),
    ("unknown_geometry_key", _with(FRINGE, "geometry", slitz=[0.0]), "geometry.slitz"),
    ("compare_three_slits", _with(dict(FRINGE, experiment="compare"), "geometry", slits=[-1e-5, 0.0, 1e-5]), "geometry.slits"),
    # far-field range: at L = 100 km and 1 nm the law's phase rounding (0.07) leaves no
    # correct digit; at 1 cm the dropped 1/r weights move the fringe by 1e-5
    ("far_field_phase_rounding", (_with(_with(dict(FRINGE, experiment="compare"), "geometry", screen_z=1e5, wavelength=1e-9), "scan", x_min=-20.0, x_max=20.0), FAR_FIELD), "geometry"),
    ("far_field_near_field", (_with(_with(FRINGE, "geometry", slits=[-5e-5, 5e-5], screen_z=0.01), "scan", x_min=-0.01, x_max=0.01), FAR_FIELD), "geometry"),
    # scan
    ("no_scan", {k: v for k, v in FRINGE.items() if k != "scan"}, "scan"),
    ("scan_not_object", dict(FRINGE, scan=5), "scan"),
    ("no_n_points", _with(FRINGE, "scan", n_points=None), "scan.n_points"),
    ("n_points_float", _with(FRINGE, "scan", n_points=10.5), "scan.n_points"),
    ("n_points_bool", _with(FRINGE, "scan", n_points=True), "scan.n_points"),
    ("n_points_one", _with(FRINGE, "scan", n_points=1), "scan.n_points"),
    ("no_x_max", _with(FRINGE, "scan", x_max=None), "scan.x_max"),
    ("x_max_below_x_min", _with(FRINGE, "scan", x_max=-0.03), "scan.x_max"),
    # a width beyond the float range made NaN and infinite points (exit 4, or a far-field nan bound)
    ("scan_width_overflow", _with(FRINGE, "scan", x_min=-1.7e308, x_max=1.7e308), "scan.x_max"),
    ("scan_width_overflow_far_field", (_with(FRINGE, "scan", x_min=-1.7e308, x_max=1.7e308), FAR_FIELD), "scan.x_max"),
    ("fringe_t_max", _with(FRINGE, "scan", t_max=1.0), "scan.t_max"),
    ("qubit_no_t_max", _with(QUBIT, "scan", t_max=None), "scan.t_max"),
    ("qubit_t_max_negative", _with(QUBIT, "scan", t_max=-1.0), "scan.t_max"),
    ("qubit_x_min", _with(QUBIT, "scan", x_min=0.0), "scan.x_min"),
    ("qubit_phase_overflow", _with(_with(QUBIT, "scan", t_max=1e10), "qubit", omega=1e300), "scan.t_max"),
    # source_state
    ("source_state_not_object", dict(FRINGE, source_state=1), "source_state"),
    ("source_state_two_kinds", dict(FRINGE, source_state={"fock": 1, "thermal": 0.1}), "source_state"),
    ("source_state_no_kind", dict(FRINGE, source_state={"cutoff": 8}), "source_state"),
    ("fock_beyond_cutoff", dict(FRINGE, source_state={"fock": 99}), "source_state.fock"),
    ("fock_at_cutoff", dict(FRINGE, source_state={"fock": 4, "cutoff": 4}), "source_state.fock"),
    ("fock_negative", dict(FRINGE, source_state={"fock": -1}), "source_state.fock"),
    ("fock_float", dict(FRINGE, source_state={"fock": 1.5}), "source_state.fock"),
    ("cutoff_one", dict(FRINGE, source_state={"fock": 0, "cutoff": 1}), "source_state.cutoff"),
    ("cutoff_float", dict(FRINGE, source_state={"fock": 0, "cutoff": 8.5}), "source_state.cutoff"),
    ("cutoff_string", dict(FRINGE, source_state={"thermal": 0.5, "cutoff": "8"}), "source_state.cutoff"),
    ("thermal_negative", dict(FRINGE, source_state={"thermal": -0.1}), "source_state.thermal"),
    ("thermal_string", dict(FRINGE, source_state={"thermal": "hot"}), "source_state.thermal"),
    ("coherent_triple", dict(FRINGE, source_state={"coherent": [1.0, 2.0, 3.0]}), "source_state.coherent"),
    ("coherent_part_string", dict(FRINGE, source_state={"coherent": ["a", 0.0]}), "source_state.coherent[0]"),
    ("coherent_underflow", dict(FRINGE, source_state={"coherent": 40.0}), "source_state.coherent"),
    ("coherent_square_overflows", dict(FRINGE, source_state={"coherent": 1e200}), "source_state.coherent"),
    ("coherent_pair_square_overflows", dict(FRINGE, source_state={"coherent": [0, 1e160]}), "source_state.coherent"),
    ("unknown_source_key", dict(FRINGE, source_state={"foc": 1}), "source_state.foc"),
    # qubit
    ("qubit_not_object", dict(QUBIT, qubit=[1.0]), "qubit"),
    ("qubit_omega_string", _with(QUBIT, "qubit", omega="fast"), "qubit.omega"),
    ("qubit_cutoff_one", _with(QUBIT, "qubit", cutoff=1), "qubit.cutoff"),
    ("qubit_cutoff_float", _with(QUBIT, "qubit", cutoff=2.5), "qubit.cutoff"),
    ("qubit_cutoff_beyond_cap", _with(QUBIT, "qubit", cutoff=61), "qubit.cutoff"),
    ("unknown_qubit_key", _with(QUBIT, "qubit", omgea=1.0), "qubit.omgea"),
    # output
    ("output_not_object", dict(FRINGE, output="out.csv"), "output"),
    ("output_format", dict(FRINGE, output={"format": "xml"}), "output.format"),
    ("output_path_empty", dict(FRINGE, output={"path": ""}), "output.path"),
    # a section the experiment does not read is rejected, whatever it holds
    ("verify_fock_beyond_cutoff", dict(VERIFY, source_state={"fock": 99}), "source_state"),
    ("verify_thermal_negative", dict(VERIFY, source_state={"thermal": -1.0}), "source_state"),
    ("verify_cutoff_one", dict(VERIFY, source_state={"fock": 0, "cutoff": 1}), "source_state"),
    ("verify_no_slits", dict(VERIFY, geometry={"screen_z": 1.0, "wavelength": 5e-7}), "geometry"),
    ("verify_wavelength_negative", dict(VERIFY, geometry=dict(GEOMETRY, wavelength=-1.0)), "geometry"),
    ("verify_scan", dict(VERIFY, scan=QUBIT["scan"]), "scan"),
    ("compare_source_state", dict(FRINGE, experiment="compare", source_state={"fock": 1}), "source_state"),
    ("compare_qubit", dict(FRINGE, experiment="compare", qubit={"omega": 1.0}), "qubit"),
    ("qubit_geometry", dict(QUBIT, geometry=GEOMETRY), "geometry"),
    ("qubit_source_state", dict(QUBIT, source_state={"fock": 1}), "source_state"),
    ("fringe_qubit", dict(FRINGE, qubit={"cutoff": 8}), "qubit"),
]


@pytest.mark.parametrize(
    "payload, field", [case[1:] for case in BAD_CONFIGS], ids=[case[0] for case in BAD_CONFIGS]
)
def test_bad_config_names_its_field_and_exits_2(tmp_path, monkeypatch, capsys, payload, field):
    payload, flags = payload if isinstance(payload, tuple) else (payload, ())
    with pytest.raises(ConfigError) as excinfo:
        parse_config(_text(payload), far_field="--far-field" in flags)
    assert excinfo.value.field == field
    assert "\n" not in str(excinfo.value)
    _cli_exits_2_with_one_line(tmp_path, monkeypatch, capsys, payload, flags)


def test_empty_output_override_is_a_config_error(tmp_path, monkeypatch, capsys):
    # Refused as an empty output.path is, with exit 2 before the run rather than exit 3 after it.
    with pytest.raises(ConfigError) as excinfo:
        parse_config(_text(QUBIT), output_path="")
    assert excinfo.value.field == "output_path"
    monkeypatch.setattr("qfringe.cli.run", lambda config: pytest.fail("the run started"))
    err = _cli_exits_2_with_one_line(tmp_path, monkeypatch, capsys, QUBIT, ("--output", ""))
    assert err == "config error: output_path must be a non-empty string\n"


def test_section_the_experiment_does_not_read_is_named(tmp_path, monkeypatch, capsys):
    # compare reads no source state, so none is built: not even this 214 MB thermal rho.
    source_state = {"thermal": 0.7, "cutoff": MAX_SOURCE_CUTOFF}
    payload = dict(FRINGE, experiment="compare", source_state=source_state)
    err = _cli_exits_2_with_one_line(tmp_path, monkeypatch, capsys, payload)
    assert err == "config error: source_state does not apply to the compare experiment\n"


# Values at the edges of each JSON type. Integers stay small or far beyond every
# size cap, so no accepted config builds a large array.
_SCALARS = (
    st.floats(),
    st.sampled_from([math.nan, -math.inf, 1.7976931348623157e308, 1e200, -1e160, 1e155, 5e-324, -0.0]),
    st.sampled_from([-1, 0, 1, 2, 3, 64, 2**31, 10**20, 10**400, -(10**400)]),
    st.booleans(),
    st.sampled_from(["", "csv", "json", "fringe", "1.0"]),
)
_DROP = object()  # a value that removes its key
_VALUES = st.one_of(*_SCALARS, st.lists(st.one_of(*_SCALARS), max_size=3), st.just(_DROP))
# section -> (valid sections, the section's keys)
_SECTIONS = {
    "geometry": ([GEOMETRY], ("source", "slits", "screen_z", "wavelength", "k")),
    "source_state": (
        [{"fock": 1}, {"coherent": 0.5}, {"thermal": 0.5}],
        ("fock", "coherent", "thermal", "cutoff"),
    ),
    "scan": ([FRINGE["scan"], QUBIT["scan"]], ("x_min", "x_max", "t_max", "n_points")),
    "qubit": ([{"omega": 1.0}], ("omega", "cutoff")),
    "output": ([{}], ("path", "format")),
}


@st.composite
def _section_mixes(draw):
    """A config of random sections: each is absent, valid, or valid with one key replaced or dropped."""
    payload = {"experiment": draw(st.sampled_from(["fringe", "qubit", "verify", "compare", "interferometry"]))}
    for name, (valid, keys) in _SECTIONS.items():
        if draw(st.booleans()):
            section = dict(draw(st.sampled_from(valid)))
            if draw(st.booleans()):
                section[draw(st.sampled_from(keys))] = draw(_VALUES)
            payload[name] = {key: value for key, value in section.items() if value is not _DROP}
    return payload


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_section_mixes())
def test_parse_config_returns_a_run_config_or_raises_config_error(payload):
    try:
        config = parse_config(json.dumps(payload))
    except ConfigError:
        return
    assert isinstance(config, RunConfig)


def _benchmark_module(monkeypatch, name="workloads"):
    """A module of the benchmark, loaded by path and left as it is."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses looks the module up
    spec.loader.exec_module(module)
    return module


# The trace points that name no qfringe attribute any more; each reads 0 in its metric.
DEAD_TRACE_POINTS = {
    "qfringe.runner.single_photon_fringe",
    "qfringe.runner.build_source_state",
    "qfringe.diffraction.csv_text",
    "qfringe.diffraction.json_document",
    "qfringe.oracle.json_document",
}


def test_no_further_benchmark_trace_point_is_dead(monkeypatch):
    # Read the table without installing it: installing would wrap qfringe's attributes.
    dead = {
        f"{module}.{attribute}"
        for module, attribute, _, _ in _benchmark_module(monkeypatch, "tracing").TRACE_POINTS
        if not callable(getattr(importlib.import_module(module), attribute, None))
    }
    assert dead == DEAD_TRACE_POINTS


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["screen_scan", "qubit_curve", "cli_sweep"])
def test_benchmark_invocations_parse(monkeypatch, workload, seed):
    for invocation in _benchmark_module(monkeypatch).generate(workload, seed):
        config = parse_config(invocation.text, far_field=invocation.far_field)
        assert config.experiment == invocation.kind


def test_far_field_guard_accepts_every_benchmark_far_field_run(monkeypatch):
    # The generator draws wavelengths of at least 400 nm, and its screens (at most 2 m)
    # and scans (at most 1.1 x 4 fringe periods) keep every leg r below 2.4 m, so the
    # phase rounding k * max r * 2**-53 stays below 4.2e-9. Its slits (d at most 1.4
    # pitches) and scans (x / L at most 4.4 wavelengths per pitch) keep 1 - v, about
    # d**2 x**2 / (2 r**4), below (6.16 x 700 nm)**2 / (2 (0.5 m)**2) = 3.7e-11.
    module = _benchmark_module(monkeypatch)
    runs = [
        inv
        for seed in range(1, 21)
        for workload in module.WORKLOADS
        for inv in module.generate(workload, seed)
        if inv.far_field
    ]
    assert len(runs) == 80
    for inv in runs:
        assert parse_config(inv.text, far_field=True).far_field


def _mpmath_far_field_law(geometry, x):
    """(1 + cos(k (r_0 - r_1))) / 2 at 50 digits, from the same float inputs."""
    with mpmath.workdps(50):
        a0, a1 = geometry.slits
        x, z, k = mpmath.mpf(x), mpmath.mpf(geometry.screen_z), mpmath.mpf(geometry.k)
        r0, r1 = (mpmath.sqrt((x - mpmath.mpf(a)) ** 2 + z**2) for a in (a0, a1))
        return float((1 + mpmath.cos(k * (r0 - r1))) / 2)


@pytest.mark.parametrize(
    "geometry, half_width",
    [
        (GEOMETRY, 0.025),  # canonical: phase bound 1.4e-9
        (dict(GEOMETRY, screen_z=10.0, wavelength=100e-9), 0.2),  # phase bound 7.0e-8
        (dict(GEOMETRY, screen_z=0.01), 0.005),  # 1 - v reaches 8.0e-8
    ],
    ids=["canonical", "phase_bound_edge", "near_field_edge"],
)
def test_accepted_far_field_compare_stays_within_tolerance_of_mpmath_law(tmp_path, geometry, half_width):
    payload = {
        "experiment": "compare",
        "geometry": geometry,
        "scan": {"x_min": -half_width, "x_max": half_width, "n_points": 101},
        "output": {"path": str(tmp_path / "compare.csv")},
    }
    config = parse_config(json.dumps(payload), far_field=True)
    assert run(config) == 0
    table = np.loadtxt(tmp_path / "compare.csv", delimiter=",", skiprows=1, comments="#")
    law = np.array([_mpmath_far_field_law(config.geometry, x) for x in table[:, 0]])
    # heisenberg is the far-field law, oracle the slit-mode model with its 1/r weights.
    assert np.max(np.abs(table[:, 1:3] - law[:, None])) <= FAR_FIELD_TOL


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["qubit_curve", "cli_sweep"])
def test_benchmark_qubit_runs_write_the_same_bytes_at_cutoff_2(tmp_path, monkeypatch, workload, seed):
    invocations = [
        inv for inv in _benchmark_module(monkeypatch).generate(workload, seed) if inv.kind == "qubit"
    ]
    assert invocations
    for inv in invocations:
        sector = dict(inv.config, qubit=dict(inv.config["qubit"], cutoff=2))
        for fmt in ("csv", "json"):
            written = []
            for name, text in (("own", inv.text), ("sector", json.dumps(sector))):
                path = tmp_path / f"{inv.name}_{name}.{fmt}"
                config = parse_config(text, output_path=str(path), output_format=fmt)
                assert run(config) == 0
                written.append(path.read_bytes())
            assert written[0] == written[1], (inv.name, fmt)


def test_source_cutoff_capped_by_memory_budget(tmp_path, monkeypatch, capsys):
    # Five dense complex cutoff x cutoff arrays (the thermal rho and its checks) fit the budget.
    assert 5 * 16 * MAX_SOURCE_CUTOFF**2 <= MEMORY_BUDGET_BYTES < 5 * 16 * (MAX_SOURCE_CUTOFF + 1) ** 2
    for kind in ({"fock": 1}, {"thermal": 0.5}, {"coherent": 0.5}):
        for cutoff in (MAX_SOURCE_CUTOFF + 1, 3 * 10**9):
            payload = dict(FRINGE, source_state=dict(kind, cutoff=cutoff))
            assert _rejected_field(payload) == "source_state.cutoff"
    accepted = parse_config(json.dumps(dict(FRINGE, source_state={"fock": 1, "cutoff": MAX_SOURCE_CUTOFF})))
    assert accepted.source_state.dim == MAX_SOURCE_CUTOFF
    # At 3e9 levels the thermal rho alone would need 144 EB; nothing is built.
    payload = dict(FRINGE, source_state={"thermal": 0.5, "cutoff": 3 * 10**9})
    err = _cli_exits_2_with_one_line(tmp_path, monkeypatch, capsys, payload)
    assert f"source_state.cutoff must be at most {MAX_SOURCE_CUTOFF}" in err


def test_thermal_state_memory_within_source_charge():
    # tracemalloc peak of building the thermal state, per cutoff**2, at two sizes.
    peaks = []
    for cutoff in (100, 200):
        tracemalloc.start()
        thermal_state(FockSpace(cutoff), 0.7)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (200**2 - 100**2) <= 5 * 16


@pytest.mark.parametrize("slits", [1, 2, 16, 64])
def test_scan_points_capped_by_memory_budget(slits):
    cap = max_scan_points(slits)
    assert cap * (SCAN_BYTES_PER_POINT + SCAN_BYTES_PER_SLIT_POINT * slits) <= MEMORY_BUDGET_BYTES
    geometry = dict(GEOMETRY, slits=[i * 1e-5 for i in range(slits)])
    for n_points in (cap, cap + 1, 10**10):
        payload = _with(dict(FRINGE, geometry=geometry), "scan", n_points=n_points)
        if n_points == cap:
            assert parse_config(json.dumps(payload)).scan.n_points == cap
        else:
            assert _rejected_field(payload) == "scan.n_points"


def test_scan_caps_accept_benchmark_sizes():
    # The largest benchmark scans: 50,001 points at 2 slits and 10,001 at 16.
    assert max_scan_points(2) >= 50_001 and max_scan_points(16) >= 10_001
    qubit_cap = max_scan_points(0)
    assert parse_config(json.dumps(_with(QUBIT, "scan", n_points=qubit_cap))).scan.n_points == qubit_cap
    assert _rejected_field(_with(QUBIT, "scan", n_points=qubit_cap + 1)) == "scan.n_points"


@pytest.mark.parametrize("payload", [FRINGE, QUBIT], ids=["fringe", "qubit"])
def test_cli_rejects_huge_scan(tmp_path, monkeypatch, capsys, payload):
    err = _cli_exits_2_with_one_line(tmp_path, monkeypatch, capsys, _with(payload, "scan", n_points=10**10))
    assert "scan.n_points" in err


@pytest.mark.parametrize(
    "payload, slits",
    [
        (dict(FRINGE, output={"format": "json"}), 2),
        (_with(FRINGE, "geometry", slits=[i * 1e-5 for i in range(16)]), 16),
        (dict(FRINGE, experiment="compare", output={"format": "json"}), 2),
        (dict(QUBIT, output={"format": "json"}), 0),
    ],
    ids=["fringe_json", "fringe_16_slits", "compare_json", "qubit_json"],
)
def test_run_memory_per_point_within_scan_charge(tmp_path, monkeypatch, payload, slits):
    # tracemalloc peak of a whole run, per point, from two scan sizes; the qubit
    # readout's outer product holds four complex entries a point.
    monkeypatch.chdir(tmp_path)
    peaks = []
    for n_points in (10_000, 30_000):
        config = parse_config(json.dumps(_with(payload, "scan", n_points=n_points)))
        tracemalloc.start()
        run(config)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    per_point = (peaks[1] - peaks[0]) / 20_000
    assert per_point <= SCAN_BYTES_PER_POINT + SCAN_BYTES_PER_SLIT_POINT * slits
