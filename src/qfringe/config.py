"""Strict JSON run configuration: each section is type-checked, then built.

Config builds the objects the run consumes, and only those: an experiment
reads `output` and the sections `_READS` names, and any other is an error.
`geometry` becomes a `SlitGeometry`, `source_state` a `QuantumState` and
`qubit` a `QubitModelParams`. Their constructors enforce their own ranges,
and a `ValueError` from one becomes a `ConfigError` naming the field. Config
adds only CLI policy: the size caps below, the finite-phase check, the 2-slit
rule of compare and far-field mode, far-field mode's limit to the screen
experiments and its accuracy range, and the scan checks (`ScanSpec` and
`OutputSpec` have no library counterpart). The CLI's --output, --format and
--far-field are inputs here.

Unknown keys (with a nearest-key hint when one is a single edit away) and
repeated keys are rejected; every quantity is in SI units with no unit
strings. Documented defaults: source at (0, -1) m, single-photon source state
with cutoff 16, qubit omega 1.0 with per-mode cutoff 8, csv output at
`<experiment>.<format>`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .diffraction import SlitGeometry, path_lengths, wavenumber
from .fock import FockSpace, QuantumState, coherent_state, fock_state, thermal_state
from .qubit import QubitModelParams

# The sections each experiment reads besides output; the screen experiments read geometry.
_READS = {
    "fringe": ("geometry", "scan", "source_state"),
    "qubit": ("scan", "qubit"),
    "verify": (),
    "compare": ("geometry", "scan"),
}
EXPERIMENTS = tuple(_READS)

_SECTION_KEYS = {
    "geometry": ("source", "slits", "screen_z", "wavelength", "k"),
    "source_state": ("fock", "coherent", "thermal", "cutoff"),
    "scan": ("x_min", "x_max", "t_max", "n_points"),
    "qubit": ("omega", "cutoff"),
    "output": ("path", "format"),
}
_TOP_KEYS = ("experiment", *_SECTION_KEYS)

DEFAULT_SOURCE = (0.0, -1.0)
DEFAULT_SOURCE_STATE = {"fock": 1}
DEFAULT_SOURCE_CUTOFF = 16
DEFAULT_QUBIT_OMEGA = 1.0
DEFAULT_QUBIT_CUTOFF = 8
DEFAULT_FORMAT = "csv"

# Every size is capped so that its largest allocation fits in one budget, checked
# before any array is built:
# - qubit.cutoff: about five dense complex dim x dim operators, dim = cutoff**2 (60), so
#   that the library's dense operators at a config's cutoff (`pauli_set`, `hamiltonian`,
#   `quadratures`, `transition_probability_oracle`) can be built; the CLI flip curve
#   builds none of them;
# - source_state.cutoff: charged five complex cutoff x cutoff arrays (3663); the state
#   holds the thermal rho without a copy, and tracemalloc measures a peak of 1.06 rho
#   (218 MiB) for thermal_state at 3663;
# - scan.n_points: the output text and its cells, plus the (points, slits) kernel
#   arrays. tracemalloc measures 490-793 bytes a point at 2-16 slits and 48 more per
#   slit, so a point is charged 1024 bytes and 64 more per slit.
MEMORY_BUDGET_BYTES = 2**30
MAX_QUBIT_CUTOFF = math.isqrt(math.isqrt(MEMORY_BUDGET_BYTES // (5 * 16)))
MAX_SOURCE_CUTOFF = math.isqrt(MEMORY_BUDGET_BYTES // (5 * 16))
SCAN_BYTES_PER_POINT = 1024
SCAN_BYTES_PER_SLIT_POINT = 64


# Far-field mode's range. Its law subtracts two legs of about max r, so its phase
# carries a rounding error of about k * max r * 2**-53; and it drops the slit-mode
# model's 1/r_j weights, which differ from equal ones by about (1 - v) / 2 with
# v = 2 r_0 r_1 / (r_0**2 + r_1**2). Either, over the scan's points, may reach
# this bound, the benchmark's tolerance on a fringe.
FAR_FIELD_TOL = 1e-7


def max_scan_points(slit_count: int) -> int:
    """The largest scan.n_points within the memory budget (slit_count 0 for qubit)."""
    return MEMORY_BUDGET_BYTES // (SCAN_BYTES_PER_POINT + SCAN_BYTES_PER_SLIT_POINT * slit_count)


class ConfigError(ValueError):
    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class ScanSpec:
    n_points: int
    x_min: float | None = None
    x_max: float | None = None
    t_max: float | None = None


@dataclass(frozen=True)
class OutputSpec:
    path: str
    format: str


@dataclass(frozen=True, eq=False)
class RunConfig:
    experiment: str
    geometry: SlitGeometry | None
    source_state: QuantumState | None
    scan: ScanSpec | None
    qubit: QubitModelParams | None
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


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The `object_pairs_hook` of `parse_config`: a repeated key is an error, not an overwrite."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key '{key}'", field=key)
        obj[key] = value
    return obj


def _read_mapping(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{field} must be an object", field=field)
    return value


def _read_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field} must be a number", field=field)
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):  # json.loads accepts NaN and Infinity
        raise ConfigError(f"{field} must be a finite number", field=field)
    return number


def _read_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field} must be an integer", field=field)
    return value


def _numbers(count: int | None, shape: str):
    """Reader of a non-empty JSON list of numbers, exactly `count` long unless `count` is None."""

    def read(value, field: str) -> tuple[float, ...]:
        if not isinstance(value, list) or not value or count not in (None, len(value)):
            raise ConfigError(f"{field} must be {shape}", field=field)
        return tuple(_read_number(x, f"{field}[{i}]") for i, x in enumerate(value))

    return read


def _read_amplitude(value, field: str) -> complex:
    if isinstance(value, list):
        return complex(*_numbers(2, "a number or [re, im] pair")(value, field))
    return complex(_read_number(value, field))


def _read_path(value, field: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{field} must be a non-empty string", field=field)
    return value


def _read_choice(choices: tuple[str, ...]):
    def read(value, field: str) -> str:
        if value not in choices:
            raise ConfigError(f"{field} must be one of {', '.join(choices)}, got {value!r}", field=field)
        return value

    return read


_REQUIRED = object()


def _field(section: dict, ctx: str, key: str, read, default=_REQUIRED):
    """`read(section[key], name)`; an absent key gives `default`, or fails when required."""
    name = f"{ctx}.{key}" if ctx else key
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"{name} is required", field=name)
        return default
    return read(section[key], name)


def _section(raw: dict, name: str, default=_REQUIRED) -> dict:
    """The object under `name` with its keys checked; an absent one gives `default`, or fails."""
    section = _field(raw, "", name, _read_mapping, default)
    _check_keys(section, _SECTION_KEYS[name], name)
    return section


def _build(field: str, build, *args):
    """Call a library constructor; its ValueError becomes a ConfigError naming `field`."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}", field=field) from None


def _parse_geometry(raw: dict) -> SlitGeometry:
    slits = _field(raw, "geometry", "slits", _numbers(None, "a non-empty list of x positions"))
    screen_z = _field(raw, "geometry", "screen_z", _read_number)
    source = _field(raw, "geometry", "source", _numbers(2, "an [x, z] pair"), DEFAULT_SOURCE)
    if "k" in raw:
        if "wavelength" in raw:
            raise ConfigError("geometry takes either wavelength or k, not both", field="geometry")
        k = _field(raw, "geometry", "k", _read_number)
    else:
        wavelength = _field(raw, "geometry", "wavelength", _read_number)
        k = _build("geometry.wavelength", wavenumber, wavelength)
    return _build("geometry", SlitGeometry, source, slits, screen_z, k)


# source_state kind -> (reader of its JSON value, library builder of the state)
_SOURCE_KINDS = {
    "fock": (_read_int, fock_state),
    "coherent": (_read_amplitude, coherent_state),
    "thermal": (_read_number, thermal_state),
}


def _parse_source_state(raw: dict) -> QuantumState:
    kinds = [kind for kind in _SOURCE_KINDS if kind in raw]
    if len(kinds) != 1:
        raise ConfigError(
            "source_state must set exactly one of fock, coherent, thermal", field="source_state"
        )
    cutoff = _field(raw, "source_state", "cutoff", _read_int, DEFAULT_SOURCE_CUTOFF)
    if cutoff > MAX_SOURCE_CUTOFF:
        raise ConfigError(
            f"source_state.cutoff must be at most {MAX_SOURCE_CUTOFF}", field="source_state.cutoff"
        )
    space = _build("source_state.cutoff", FockSpace, cutoff)
    read, build = _SOURCE_KINDS[kinds[0]]
    return _build(f"source_state.{kinds[0]}", build, space, _field(raw, "source_state", kinds[0], read))


def _parse_scan(raw: dict, experiment: str, geometry: SlitGeometry | None) -> ScanSpec:
    n_points = _field(raw, "scan", "n_points", _read_int)
    max_points = max_scan_points(0 if geometry is None else geometry.slit_count)
    if not 2 <= n_points <= max_points:
        raise ConfigError(f"scan.n_points must lie in [2, {max_points}]", field="scan.n_points")
    if geometry is not None:
        if "t_max" in raw:
            raise ConfigError(
                f"scan.t_max does not apply to the {experiment} experiment", field="scan.t_max"
            )
        x_min = _field(raw, "scan", "x_min", _read_number)
        x_max = _field(raw, "scan", "x_max", _read_number)
        if not 0.0 < x_max - x_min < math.inf:
            raise ConfigError("scan.x_max must exceed scan.x_min by a finite width", field="scan.x_max")
        return ScanSpec(n_points=n_points, x_min=x_min, x_max=x_max)
    if "x_min" in raw or "x_max" in raw:
        raise ConfigError("scan.x_min/x_max do not apply to the qubit experiment", field="scan.x_min")
    t_max = _field(raw, "scan", "t_max", _read_number)
    if t_max <= 0.0:
        raise ConfigError("scan.t_max must be positive", field="scan.t_max")
    return ScanSpec(n_points=n_points, t_max=t_max)


def _parse_qubit(raw: dict) -> QubitModelParams:
    omega = _field(raw, "qubit", "omega", _read_number, DEFAULT_QUBIT_OMEGA)
    cutoff = _field(raw, "qubit", "cutoff", _read_int, DEFAULT_QUBIT_CUTOFF)
    if not 2 <= cutoff <= MAX_QUBIT_CUTOFF:
        raise ConfigError(f"qubit.cutoff must lie in [2, {MAX_QUBIT_CUTOFF}]", field="qubit.cutoff")
    return QubitModelParams(omega=omega, cutoff=cutoff)


def _parse_output(raw: dict, experiment: str, path: str | None, fmt: str | None) -> OutputSpec:
    """The output section under --output `path` and --format `fmt`; a path it sets is kept."""
    read_format = _read_choice(("csv", "json"))
    default_format = "json" if experiment == "verify" else DEFAULT_FORMAT
    section_format = _field(raw, "output", "format", read_format, default_format)
    section_path = _field(raw, "output", "path", _read_path, None)
    fmt = section_format if fmt is None else read_format(fmt, "output_format")
    path = (section_path or f"{experiment}.{fmt}") if path is None else _read_path(path, "output_path")
    return OutputSpec(path=path, format=fmt)


def _check_far_field_range(geometry: SlitGeometry, scan: ScanSpec) -> None:
    """Refuse a far-field scan whose law is off by more than FAR_FIELD_TOL (see there)."""
    with np.errstate(over="ignore", invalid="ignore"):
        _, r = path_lengths(geometry, np.linspace(scan.x_min, scan.x_max, scan.n_points))
        if not r.all():  # a zero-length leg: the run reports the degenerate geometry (exit 4)
            return
        r0, r1 = r[..., 0], r[..., 1]
        bounds = (
            ("phase rounding k * max r * 2**-53", geometry.k * r.max() * 2.0**-53),
            ("dropped 1/r weights max(1 - v)", np.max(1.0 - 2.0 * r0 * r1 / (r0**2 + r1**2))),
        )
    for what, bound in bounds:
        if not bound <= FAR_FIELD_TOL:
            raise ConfigError(
                f"geometry is out of far-field range: {what} = {bound:.2g} exceeds {FAR_FIELD_TOL:g}",
                field="geometry",
            )


def parse_config(
    text: str, output_path: str | None = None, output_format: str | None = None, far_field: bool = False
) -> RunConfig:
    """Parse a JSON run configuration and build the objects the run uses.

    The keyword parameters are the CLI's --output, --format and --far-field.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError("config parse error: nested too deeply") from exc
    raw = _read_mapping(raw, "config")
    _check_keys(raw, _TOP_KEYS, "")
    experiment = _field(raw, "", "experiment", _read_choice(EXPERIMENTS))
    reads = _READS[experiment]
    for name in raw:
        if name not in ("experiment", "output", *reads):
            raise ConfigError(f"{name} does not apply to the {experiment} experiment", field=name)

    geometry = source_state = scan = qubit = None
    if "geometry" in reads:
        geometry = _parse_geometry(_section(raw, "geometry"))
        if experiment == "compare" and geometry.slit_count != 2:
            raise ConfigError("compare requires exactly 2 slits", field="geometry.slits")
    if "scan" in reads:
        scan = _parse_scan(_section(raw, "scan"), experiment, geometry)
    if "source_state" in reads:
        source_state = _parse_source_state(_section(raw, "source_state", DEFAULT_SOURCE_STATE))
    if "qubit" in reads:
        qubit = _parse_qubit(_section(raw, "qubit", {}))
        if not math.isfinite(qubit.omega * scan.t_max):
            raise ConfigError("qubit.omega * scan.t_max must be a finite phase", field="scan.t_max")
    output = _parse_output(_section(raw, "output", {}), experiment, output_path, output_format)
    if far_field and geometry is None:
        raise ConfigError(
            "far-field mode applies to the fringe and compare experiments", field="experiment"
        )
    if far_field and geometry.slit_count != 2:
        raise ConfigError("far-field mode requires exactly 2 slits", field="geometry.slits")
    if far_field:
        _check_far_field_range(geometry, scan)
    return RunConfig(experiment, geometry, source_state, scan, qubit, output, far_field)


def load_config(path: str, **overrides) -> RunConfig:
    """Read and parse the config file at `path`; `overrides` go to `parse_config`."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not valid UTF-8: {exc.reason}") from exc
    return parse_config(text, **overrides)
