"""Output checks computed by the benchmark itself, without importing qfringe.

Each checker reads one CLI output file, recomputes the expected values from
the config with numpy alone, and returns a Check. A check passes only when
the file has the expected shape, every value is finite, and the largest
deviation stays within the tolerance recorded in TOLERANCES.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

TOLERANCES = {
    "fringe": (
        1e-7,
        "largest deviation from the reference, as a fraction of the scan peak. "
        "The program takes each path length (about 1 m) from a square root and "
        "subtracts; double precision then leaves about k*L*2^-52 ~ 3e-9 rad of "
        "phase per leg, measured at 2e-9 to 8e-9 of peak. 1e-7 keeps a 12x margin "
        "and still fails any change in the first seven digits of a value.",
    ),
    "compare": (
        1e-7,
        "heisenberg column against the benchmark's fringe (exact mode) or "
        "far-field law (far-field mode), and oracle column against the far-field "
        "law, as a fraction of peak; same path-length rounding as fringe. The "
        "abs_deviation column and the max_abs_deviation footer must equal the "
        "values recomputed from the file's own columns exactly.",
    ),
    "qubit": (
        1e-12,
        "absolute deviation of the flip probability from sin^2(omega t / 2); the "
        "closed form evaluates (1 - cos(omega t)) / 2 in double precision, a few "
        "ulp of 1.",
    ),
    "verify": (0.0, "the report must say all_pass: true and every check must pass."),
}


@dataclass(frozen=True)
class Check:
    ok: bool
    max_dev: float
    message: str = ""


def _fail(message: str) -> Check:
    return Check(False, math.inf, message)


def _judge(kind: str, dev: float) -> Check:
    tol = TOLERANCES[kind][0]
    return Check(dev <= tol, dev, "" if dev <= tol else f"deviation {dev:.3g} > {tol:g}")


def wavenumber(geometry: dict) -> float:
    return 2.0 * math.pi / float(geometry["wavelength"])


def _legs(geometry: dict, xs: np.ndarray):
    """Leg lengths s_j, r_j and their differences from slit 0, free of cancellation.

    r_j - r_0 = (a_0 - a_j)(2x - a_j - a_0) / (r_j + r_0), and the same form
    for the source legs, so no two lengths of about 1 m are subtracted.
    """
    sx, sz = geometry["source"]
    a = np.asarray(geometry["slits"], dtype=float)
    screen_z = float(geometry["screen_z"])
    s = np.hypot(a - sx, sz)
    r = np.hypot(xs[:, None] - a[None, :], screen_z)
    ds = (a - a[0]) * (a + a[0] - 2.0 * sx) / (s + s[0])
    dr = (a[0] - a[None, :]) * (2.0 * xs[:, None] - a[None, :] - a[0]) / (r + r[:, :1])
    return s, r, ds, dr


def mean_occupation(state: dict) -> float:
    """Mean occupation of the truncated, renormalized source state."""
    if "fock" in state:
        return float(state["fock"])
    n = np.arange(int(state["cutoff"]), dtype=float)
    if "thermal" in state:
        nbar = float(state["thermal"])
        log_w = n * math.log(nbar / (1.0 + nbar))
    else:
        modulus = abs(complex(*state["coherent"]))
        log_w = 2.0 * n * math.log(modulus) - np.array([math.lgamma(m + 1.0) for m in n])
    w = np.exp(log_w - log_w.max())
    return float(np.sum(n * w) / np.sum(w))


def raw_intensity(geometry: dict, source_state: dict, xs: np.ndarray) -> np.ndarray:
    """|sum_j exp(ik(s_j + r_j)) / (s_j r_j)|^2 times the mean source occupation."""
    k = wavenumber(geometry)
    s, r, ds, dr = _legs(geometry, xs)
    amp = np.sum(np.exp(1j * k * (ds[None, :] + dr)) / (s[None, :] * r), axis=1)
    return np.abs(amp) ** 2 * mean_occupation(source_state)


def far_field_law(geometry: dict, xs: np.ndarray) -> np.ndarray:
    """(1 + cos(k (r_0 - r_1))) / 2 for two slits."""
    _, _, _, dr = _legs(geometry, xs)
    return 0.5 * (1.0 + np.cos(wavenumber(geometry) * dr[:, 1]))


def _read_table(path: str, header: str, n_rows: int, footer: bool = False):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != header:
        return None, f"header is not {header!r}"
    body = lines[1:-1] if footer else lines[1:]
    if len(body) != n_rows:
        return None, f"expected {n_rows} rows, found {len(body)}"
    try:
        table = np.array([row.split(",") for row in body], dtype=float)
    except ValueError as exc:
        return None, f"unparsable row: {exc}"
    if table.shape[1] != header.count(",") + 1:
        return None, "wrong column count"
    if not np.all(np.isfinite(table)):
        return None, "non-finite value"
    return (table, lines[-1]) if footer else (table, None), ""


def _scan_points(scan: dict) -> np.ndarray:
    return np.linspace(float(scan["x_min"]), float(scan["x_max"]), int(scan["n_points"]))


def _column_dev(got: np.ndarray, want: np.ndarray, scale: float) -> float:
    return float(np.max(np.abs(got - want)) / scale)


def check_fringe(path: str, config: dict) -> Check:
    xs = _scan_points(config["scan"])
    parsed, error = _read_table(path, "x_D,probability,raw_intensity", xs.size)
    if parsed is None:
        return _fail(error)
    table = parsed[0]
    if not np.array_equal(table[:, 0], xs):
        return _fail("x_D column is not the configured scan")
    raw = raw_intensity(config["geometry"], config["source_state"], xs)
    peak = raw.max()
    dev = max(_column_dev(table[:, 1], raw / peak, 1.0), _column_dev(table[:, 2], raw, peak))
    return _judge("fringe", dev)


def check_compare(path: str, config: dict, far_field: bool) -> Check:
    xs = _scan_points(config["scan"])
    parsed, error = _read_table(path, "x_D,heisenberg,oracle,abs_deviation", xs.size, footer=True)
    if parsed is None:
        return _fail(error)
    table, footer = parsed
    prefix = "# max_abs_deviation = "
    if not footer.startswith(prefix):
        return _fail("missing max_abs_deviation footer")
    x, heisenberg, oracle, abs_dev = table.T
    if not np.array_equal(x, xs):
        return _fail("x_D column is not the configured scan")
    if not np.array_equal(abs_dev, np.abs(heisenberg - oracle)):
        return _fail("abs_deviation column is not |heisenberg - oracle|")
    if float(footer[len(prefix):]) != abs_dev.max():
        return _fail("max_abs_deviation footer is not the column maximum")
    law = far_field_law(config["geometry"], xs)
    if far_field:
        want = law
    else:
        raw = raw_intensity(config["geometry"], {"fock": 1}, xs)
        want = raw / raw.max()
    dev = max(_column_dev(heisenberg, want, 1.0), _column_dev(oracle, law, 1.0))
    return _judge("compare", dev)


def check_qubit(path: str, config: dict) -> Check:
    scan = config["scan"]
    n_points = int(scan["n_points"])
    parsed, error = _read_table(path, "t,probability", n_points)
    if parsed is None:
        return _fail(error)
    t, prob = parsed[0].T
    if not np.array_equal(t, np.linspace(0.0, float(scan["t_max"]), n_points)):
        return _fail("t column is not the configured time grid")
    omega = float(config["qubit"]["omega"])
    return _judge("qubit", float(np.max(np.abs(prob - np.sin(omega * t / 2.0) ** 2))))


def check_verify(path: str) -> Check:
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError) as exc:
        return _fail(f"unreadable report: {exc}")
    checks = report.get("checks") if isinstance(report, dict) else None
    if not checks or report.get("all_pass") is not True:
        return _fail("report does not say all_pass: true")
    if not all(isinstance(entry, dict) and entry.get("pass") is True for entry in checks):
        return _fail("a registered check did not pass")
    return Check(True, 0.0)


def check_output(invocation, path: str, returncode: int) -> Check:
    """Judge one CLI run: a nonzero exit fails before its file is read."""
    if returncode != 0:
        return _fail(f"exit code {returncode}")
    try:
        if invocation.kind == "fringe":
            return check_fringe(path, invocation.config)
        if invocation.kind == "compare":
            return check_compare(path, invocation.config, invocation.far_field)
        if invocation.kind == "qubit":
            return check_qubit(path, invocation.config)
        return check_verify(path)
    except (OSError, ValueError) as exc:
        return _fail(f"unreadable output: {exc}")
