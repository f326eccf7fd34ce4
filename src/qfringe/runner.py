"""Experiment orchestration: turn a validated RunConfig into artifact files.

Every experiment builds one table of named columns; `run` alone writes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .config import RunConfig, SourceStateSpec
from .diffraction import DegenerateGeometryError, fringe_scan, single_photon_fringe
from .fock import FockSpace, QuantumState, coherent_state, fock_state, thermal_state
from .qubit import QubitModelParams, transition_probability
from .tableio import csv_text, json_document


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


def _require_finite(columns: dict) -> dict:
    """Refuse to write a table with a NaN or infinite entry (CLI exit 4)."""
    for name, values in columns.items():
        if not np.isfinite(values).all():
            raise DegenerateGeometryError(f"non-finite value in output column {name!r}")
    return columns


@dataclass(frozen=True)
class _Table:
    """Named columns; JSON rows go under `rows_key`, beside `summary`, when it is set."""

    columns: dict
    rows_key: str | None = None
    summary: dict = field(default_factory=dict)
    csv_footer: bool = False  # also write `summary` as `# name = value` lines after the CSV rows


def _fringe_table(config: RunConfig) -> _Table:
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
    columns = dict(x_D=table.x, probability=table.probability, raw_intensity=table.raw_intensity)
    return _Table(_require_finite(columns))


def _qubit_table(config: RunConfig) -> _Table:
    params = QubitModelParams(omega=config.qubit.omega, cutoff=config.qubit.cutoff)
    times = np.linspace(0.0, config.scan.t_max, config.scan.n_points)
    probabilities = transition_probability(params, times)
    return _Table(_require_finite(dict(t=times, probability=probabilities)))


def _compare_table(config: RunConfig) -> _Table:
    scan = config.scan
    xs = np.linspace(scan.x_min, scan.x_max, scan.n_points)
    mode = "far_field" if config.far_field else "exact"
    heisenberg = single_photon_fringe(config.geometry, xs, mode=mode)
    oracle_vals = oracle.slit_mode_oracle(config.geometry, xs)
    deviations = np.abs(heisenberg - oracle_vals)
    columns = dict(x_D=xs, heisenberg=heisenberg, oracle=oracle_vals, abs_deviation=deviations)
    max_dev = float(_require_finite(columns)["abs_deviation"].max())
    return _Table(columns, rows_key="rows", summary={"max_abs_deviation": max_dev}, csv_footer=True)


def _verify_table(config: RunConfig) -> _Table:
    # No finiteness guard: a NaN deviation is a failed check (exit 1), not exit 4.
    checks = oracle.run_verification_suite()
    columns = {
        "check": np.array([c.check for c in checks]),
        "max_deviation": np.array([c.max_deviation for c in checks]),
        "tolerance": np.array([c.tolerance for c in checks]),
        "pass": np.array([c.passed for c in checks]),
    }
    return _Table(columns, rows_key="checks", summary={"all_pass": bool(columns["pass"].all())})


_TABLES = dict(
    fringe=_fringe_table, qubit=_qubit_table, compare=_compare_table, verify=_verify_table
)


def run(config: RunConfig) -> int:
    """Execute the configured experiment; returns the process exit code.

    fringe and compare write screen-scan tables, qubit writes the flip
    probability over time, and verify writes the check report, failing
    (exit 1) when any registered check fails. `csv_text` writes a header line
    and one row per point (compare adds a `# max_abs_deviation = ...` footer);
    `json_document` a list of row records (compare and verify wrap it as
    `{"rows": ..., "max_abs_deviation": ...}` and `{"checks": ..., "all_pass": ...}`).
    numpy's floating-point warnings are off while the table is built: a
    non-finite value is reported once, by `_require_finite` (exit 4), or is a
    failed check.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        table = _TABLES[config.experiment](config)
    names, columns = tuple(table.columns), tuple(table.columns.values())
    if config.output.format == "csv":
        text = csv_text(names, columns, table.summary if table.csv_footer else {})
    else:
        text = json_document(names, columns, table.rows_key, table.summary)
    _write_text(config.output.path, text)
    return 0 if table.summary.get("all_pass", True) else 1
