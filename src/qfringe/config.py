"""Strict JSON run configuration: schema validation and defaults.

Unknown keys are rejected (with a nearest-key hint when one is a single
edit away); every quantity is in SI units with no unit strings. Documented
defaults: source at (0, -1) m, single-photon source state with cutoff 16,
qubit omega 1.0 with per-mode cutoff 8, csv output named after the
experiment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .diffraction import SlitGeometry, wavenumber
from .fock import FockSpace, coherent_state

EXPERIMENTS = ("fringe", "qubit", "verify", "compare")

_TOP_KEYS = ("experiment", "geometry", "source_state", "scan", "qubit", "output")
_GEOMETRY_KEYS = ("source", "slits", "screen_z", "wavelength", "k")
_SOURCE_STATE_KEYS = ("fock", "coherent", "thermal", "cutoff")
_SCAN_KEYS = ("x_min", "x_max", "t_max", "n_points")
_QUBIT_KEYS = ("omega", "cutoff")
_OUTPUT_KEYS = ("path", "format")

DEFAULT_SOURCE = (0.0, -1.0)
DEFAULT_SOURCE_CUTOFF = 16
DEFAULT_QUBIT_OMEGA = 1.0
DEFAULT_QUBIT_CUTOFF = 8
DEFAULT_FORMAT = "csv"

# A qubit run keeps about five dense complex dim x dim operators, dim = cutoff**2,
# alive at once; qubit.cutoff is capped so that they fit in this budget (60 at 1 GiB).
QUBIT_MEMORY_BUDGET_BYTES = 2**30
MAX_QUBIT_CUTOFF = math.isqrt(math.isqrt(QUBIT_MEMORY_BUDGET_BYTES // (5 * 16)))


class ConfigError(ValueError):
    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class SourceStateSpec:
    kind: str  # "fock" | "coherent" | "thermal"
    value: int | float | complex
    cutoff: int


@dataclass(frozen=True)
class ScanSpec:
    n_points: int
    x_min: float | None = None
    x_max: float | None = None
    t_max: float | None = None


@dataclass(frozen=True)
class QubitSpec:
    omega: float
    cutoff: int


@dataclass(frozen=True)
class OutputSpec:
    path: str
    format: str


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    geometry: SlitGeometry | None
    source_state: SourceStateSpec
    scan: ScanSpec | None
    qubit: QubitSpec
    output: OutputSpec
    far_field: bool = False


def _edit_distance_at_most_one(a: str, b: str) -> bool:
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) == 1
    if la > lb:
        a, b = b, a
        la, lb = lb, la
    # b is one character longer; check deletion
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1 :]


def _check_keys(obj: dict, allowed: tuple[str, ...], context: str) -> None:
    for key in obj:
        if key not in allowed:
            loc = f"{context}.{key}" if context else key
            message = f"unknown key '{loc}'"
            for candidate in allowed:
                if _edit_distance_at_most_one(key, candidate):
                    message += f" (did you mean '{candidate}'?)"
                    break
            raise ConfigError(message, field=loc)


def _require_mapping(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{field} must be an object", field=field)
    return value


def _require_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field} must be a number", field=field)
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):  # json.loads accepts NaN and Infinity
        raise ConfigError(f"{field} must be a finite number", field=field)
    return number


def _require_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field} must be an integer", field=field)
    return value


def _parse_geometry(raw: dict) -> SlitGeometry:
    _check_keys(raw, _GEOMETRY_KEYS, "geometry")
    if "slits" not in raw:
        raise ConfigError("geometry.slits is required", field="geometry.slits")
    if "screen_z" not in raw:
        raise ConfigError("geometry.screen_z is required", field="geometry.screen_z")
    slits_raw = raw["slits"]
    if not isinstance(slits_raw, list) or not slits_raw:
        raise ConfigError(
            "geometry.slits must be a non-empty list of x positions",
            field="geometry.slits",
        )
    slits = tuple(
        _require_number(x, f"geometry.slits[{i}]") for i, x in enumerate(slits_raw)
    )
    source_raw = raw.get("source", list(DEFAULT_SOURCE))
    if not isinstance(source_raw, list) or len(source_raw) != 2:
        raise ConfigError(
            "geometry.source must be an [x, z] pair", field="geometry.source"
        )
    source = (
        _require_number(source_raw[0], "geometry.source[0]"),
        _require_number(source_raw[1], "geometry.source[1]"),
    )
    screen_z = _require_number(raw["screen_z"], "geometry.screen_z")
    if "wavelength" in raw and "k" in raw:
        raise ConfigError(
            "geometry takes either wavelength or k, not both", field="geometry"
        )
    if "wavelength" in raw:
        wavelength = _require_number(raw["wavelength"], "geometry.wavelength")
        if wavelength <= 0.0:
            raise ConfigError(
                "geometry.wavelength must be positive", field="geometry.wavelength"
            )
        k = wavenumber(wavelength)
    elif "k" in raw:
        k = _require_number(raw["k"], "geometry.k")
    else:
        raise ConfigError(
            "geometry requires wavelength or k", field="geometry.wavelength"
        )
    try:
        return SlitGeometry(source=source, slits=slits, screen_z=screen_z, k=k)
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}", field="geometry") from exc


def _parse_source_state(raw: dict | None) -> SourceStateSpec:
    if raw is None:
        return SourceStateSpec(kind="fock", value=1, cutoff=DEFAULT_SOURCE_CUTOFF)
    _check_keys(raw, _SOURCE_STATE_KEYS, "source_state")
    kinds = [key for key in ("fock", "coherent", "thermal") if key in raw]
    if len(kinds) != 1:
        raise ConfigError(
            "source_state must set exactly one of fock, coherent, thermal",
            field="source_state",
        )
    kind = kinds[0]
    cutoff = _require_int(raw.get("cutoff", DEFAULT_SOURCE_CUTOFF), "source_state.cutoff")
    if cutoff < 2:
        raise ConfigError(
            "source_state.cutoff must be at least 2", field="source_state.cutoff"
        )
    if kind == "fock":
        n = _require_int(raw["fock"], "source_state.fock")
        if not 0 <= n < cutoff:
            raise ConfigError(
                f"source_state.fock must lie in [0, {cutoff - 1}]",
                field="source_state.fock",
            )
        return SourceStateSpec(kind="fock", value=n, cutoff=cutoff)
    if kind == "coherent":
        alpha_raw = raw["coherent"]
        if isinstance(alpha_raw, list):
            if len(alpha_raw) != 2:
                raise ConfigError(
                    "source_state.coherent must be a number or [re, im] pair",
                    field="source_state.coherent",
                )
            alpha = complex(
                _require_number(alpha_raw[0], "source_state.coherent[0]"),
                _require_number(alpha_raw[1], "source_state.coherent[1]"),
            )
        else:
            alpha = complex(_require_number(alpha_raw, "source_state.coherent"))
        try:
            coherent_state(FockSpace(cutoff), alpha)
        except ValueError as exc:
            raise ConfigError(f"source_state.coherent: {exc}", "source_state.coherent") from None
        return SourceStateSpec(kind="coherent", value=alpha, cutoff=cutoff)
    nbar = _require_number(raw["thermal"], "source_state.thermal")
    if nbar < 0.0:
        raise ConfigError(
            "source_state.thermal must be nonnegative", field="source_state.thermal"
        )
    return SourceStateSpec(kind="thermal", value=nbar, cutoff=cutoff)


def _parse_scan(raw: dict, experiment: str) -> ScanSpec:
    _check_keys(raw, _SCAN_KEYS, "scan")
    if "n_points" not in raw:
        raise ConfigError("scan.n_points is required", field="scan.n_points")
    n_points = _require_int(raw["n_points"], "scan.n_points")
    if n_points < 2:
        raise ConfigError("scan.n_points must be at least 2", field="scan.n_points")
    if experiment in ("fringe", "compare"):
        for key in ("x_min", "x_max"):
            if key not in raw:
                raise ConfigError(f"scan.{key} is required", field=f"scan.{key}")
        if "t_max" in raw:
            raise ConfigError(
                f"scan.t_max does not apply to the {experiment} experiment",
                field="scan.t_max",
            )
        x_min = _require_number(raw["x_min"], "scan.x_min")
        x_max = _require_number(raw["x_max"], "scan.x_max")
        if not x_max > x_min:
            raise ConfigError("scan.x_max must exceed scan.x_min", field="scan.x_max")
        return ScanSpec(n_points=n_points, x_min=x_min, x_max=x_max)
    if "x_min" in raw or "x_max" in raw:
        raise ConfigError(
            "scan.x_min/x_max do not apply to the qubit experiment", field="scan.x_min"
        )
    if "t_max" not in raw:
        raise ConfigError("scan.t_max is required", field="scan.t_max")
    t_max = _require_number(raw["t_max"], "scan.t_max")
    if t_max <= 0.0:
        raise ConfigError("scan.t_max must be positive", field="scan.t_max")
    return ScanSpec(n_points=n_points, t_max=t_max)


def _parse_qubit(raw: dict | None) -> QubitSpec:
    if raw is None:
        return QubitSpec(omega=DEFAULT_QUBIT_OMEGA, cutoff=DEFAULT_QUBIT_CUTOFF)
    _check_keys(raw, _QUBIT_KEYS, "qubit")
    omega = _require_number(raw.get("omega", DEFAULT_QUBIT_OMEGA), "qubit.omega")
    cutoff = _require_int(raw.get("cutoff", DEFAULT_QUBIT_CUTOFF), "qubit.cutoff")
    if not 2 <= cutoff <= MAX_QUBIT_CUTOFF:
        raise ConfigError(f"qubit.cutoff must lie in [2, {MAX_QUBIT_CUTOFF}]", field="qubit.cutoff")
    return QubitSpec(omega=omega, cutoff=cutoff)


def _parse_output(raw: dict | None, experiment: str) -> OutputSpec:
    if raw is None:
        raw = {}
    _check_keys(raw, _OUTPUT_KEYS, "output")
    default_format = "json" if experiment == "verify" else DEFAULT_FORMAT
    fmt = raw.get("format", default_format)
    if fmt not in ("csv", "json"):
        raise ConfigError(
            f"output.format must be 'csv' or 'json', got {fmt!r}", field="output.format"
        )
    path = raw.get("path", f"{experiment}.{fmt}")
    if not isinstance(path, str) or not path:
        raise ConfigError("output.path must be a non-empty string", field="output.path")
    return OutputSpec(path=path, format=fmt)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError("config parse error: nested too deeply") from exc
    raw = _require_mapping(raw, "config")
    _check_keys(raw, _TOP_KEYS, "")
    if "experiment" not in raw:
        raise ConfigError("experiment is required", field="experiment")
    experiment = raw["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {', '.join(EXPERIMENTS)}, got {experiment!r}",
            field="experiment",
        )

    geometry = None
    if experiment in ("fringe", "compare"):
        if "geometry" not in raw:
            raise ConfigError("geometry is required", field="geometry")
        geometry = _parse_geometry(_require_mapping(raw["geometry"], "geometry"))
        if experiment == "compare" and geometry.slit_count != 2:
            raise ConfigError(
                "compare requires exactly 2 slits", field="geometry.slits"
            )
    elif "geometry" in raw:
        geometry = _parse_geometry(_require_mapping(raw["geometry"], "geometry"))

    scan = None
    if experiment in ("fringe", "compare", "qubit"):
        if "scan" not in raw:
            raise ConfigError("scan is required", field="scan")
        scan = _parse_scan(_require_mapping(raw["scan"], "scan"), experiment)

    source_state = _parse_source_state(
        _require_mapping(raw["source_state"], "source_state")
        if "source_state" in raw
        else None
    )
    qubit_spec = _parse_qubit(
        _require_mapping(raw["qubit"], "qubit") if "qubit" in raw else None
    )
    if experiment == "qubit" and not math.isfinite(qubit_spec.omega * scan.t_max):
        raise ConfigError(
            "qubit.omega * scan.t_max must be a finite phase", field="scan.t_max"
        )
    output = _parse_output(
        _require_mapping(raw["output"], "output") if "output" in raw else None,
        experiment,
    )
    return RunConfig(
        experiment=experiment,
        geometry=geometry,
        source_state=source_state,
        scan=scan,
        qubit=qubit_spec,
        output=output,
    )


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not valid UTF-8: {exc.reason}") from exc
    return parse_config(text)


def apply_overrides(
    config: RunConfig,
    output_path: str | None = None,
    output_format: str | None = None,
    far_field: bool = False,
) -> RunConfig:
    output = config.output
    if output_format is not None and output_format != output.format:
        default_path = f"{config.experiment}.{output.format}"
        path = output.path if output.path != default_path else f"{config.experiment}.{output_format}"
        output = OutputSpec(path=path, format=output_format)
    if output_path is not None:
        output = OutputSpec(path=output_path, format=output.format)
    far = config.far_field or far_field
    if far and config.geometry is not None and config.geometry.slit_count != 2:
        raise ConfigError(
            "far-field mode requires exactly 2 slits", field="geometry.slits"
        )
    return replace(config, output=output, far_field=far)
