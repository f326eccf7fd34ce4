"""Experiment orchestration: turn a validated RunConfig into artifact files."""

from __future__ import annotations

import numpy as np

from . import oracle
from .config import RunConfig, SourceStateSpec
from .diffraction import DegenerateGeometryError, fringe_scan, single_photon_fringe
from .fock import FockSpace, QuantumState, coherent_state, fock_state, thermal_state
from .qubit import QubitModelParams, transition_probability
from .tableio import csv_text, format_real, json_document


def build_source_state(spec: SourceStateSpec) -> QuantumState:
    space = FockSpace(spec.cutoff)
    if spec.kind == "fock":
        return fock_state(space, int(spec.value))
    if spec.kind == "coherent":
        return coherent_state(space, complex(spec.value))
    return thermal_state(space, float(spec.value))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _require_finite(**columns) -> None:
    """Refuse to write a table with a NaN or infinite entry (CLI exit 4)."""
    for name, values in columns.items():
        if not np.isfinite(values).all():
            raise DegenerateGeometryError(f"non-finite value in output column {name!r}")


def _fringe_text(config: RunConfig) -> str:
    scan = config.scan
    mode = "far_field" if config.far_field else "exact"
    table = fringe_scan(
        config.geometry,
        scan.x_min,
        scan.x_max,
        scan.n_points,
        mode=mode,
        state=build_source_state(config.source_state),
    )
    _require_finite(x_D=table.x, probability=table.probability, raw_intensity=table.raw_intensity)
    return table.to_csv() if config.output.format == "csv" else table.to_json()


def flip_curve_text(times, probabilities, output_format: str) -> str:
    """The qubit table, one `t,probability` row per time, as CSV or JSON text."""
    if output_format == "csv":
        return csv_text(("t", "probability"), (times, probabilities))
    return json_document(
        [{"t": t, "probability": p} for t, p in zip(times.tolist(), probabilities.tolist())]
    )


def _qubit_text(config: RunConfig) -> str:
    params = QubitModelParams(omega=config.qubit.omega, cutoff=config.qubit.cutoff)
    times = np.linspace(0.0, config.scan.t_max, config.scan.n_points)
    probs = transition_probability(params, times)
    _require_finite(t=times, probability=probs)
    return flip_curve_text(times, probs, config.output.format)


def _compare_text(config: RunConfig) -> str:
    scan = config.scan
    xs = np.linspace(scan.x_min, scan.x_max, scan.n_points)
    mode = "far_field" if config.far_field else "exact"
    heisenberg = single_photon_fringe(config.geometry, xs, mode=mode)
    oracle_vals = oracle.slit_mode_oracle(config.geometry, xs)
    deviations = np.abs(heisenberg - oracle_vals)
    _require_finite(x_D=xs, heisenberg=heisenberg, oracle=oracle_vals, abs_deviation=deviations)
    max_dev = float(deviations.max())
    columns = (xs, heisenberg, oracle_vals, deviations)
    if config.output.format == "csv":
        body = csv_text(("x_D", "heisenberg", "oracle", "abs_deviation"), columns)
        return body + f"# max_abs_deviation = {format_real(max_dev)}\n"
    return json_document(
        {
            "rows": [
                {"x_D": x, "heisenberg": h, "oracle": o, "abs_deviation": d}
                for x, h, o, d in zip(*(column.tolist() for column in columns))
            ],
            "max_abs_deviation": max_dev,
        }
    )


def run(config: RunConfig) -> int:
    """Execute the configured experiment; returns the process exit code.

    fringe and compare write screen-scan tables, qubit writes the flip
    probability over time, verify writes the JSON check report and fails
    (exit 1) when any registered check fails.
    """
    if config.experiment == "fringe":
        _write_text(config.output.path, _fringe_text(config))
        return 0
    if config.experiment == "qubit":
        _write_text(config.output.path, _qubit_text(config))
        return 0
    if config.experiment == "compare":
        _write_text(config.output.path, _compare_text(config))
        return 0
    checks = oracle.run_verification_suite()
    if config.output.format == "csv":
        text = csv_text(
            ("check", "max_deviation", "tolerance", "pass"),
            (
                [c.check for c in checks],
                [c.max_deviation for c in checks],
                [c.tolerance for c in checks],
                [c.passed for c in checks],
            ),
        )
    else:
        text = oracle.report_to_json(checks)
    _write_text(config.output.path, text)
    return 0 if all(c.passed for c in checks) else 1
