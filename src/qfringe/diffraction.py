"""Propagation of a source mode operator through point slits to a screen.

The mode operator at a detection point is the source operator multiplied by
a complex transfer coefficient, one spherical-wave leg per slit:

    value = sum_j exp(i k s_j) / s_j * exp(i k r_j) / r_j

with s_j the source-to-slit distance and r_j the slit-to-detector distance.
Detected intensity is |value|^2 times the mean occupation of the source
mode, so the fringe pattern is a statement about number operators and holds
for any source state.

Geometry is two-dimensional: points are (x, z) pairs in meters, slits are x
positions on the z = 0 plane, the source below it, the screen plane above
it. Path lengths are exact Euclidean distances; the far-field fringe drops
the 1/r amplitude factors but keeps the exact path difference in the phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, QuantumState, _freeze, checked_int, checked_values, fock_state


class DegenerateGeometryError(RuntimeError):
    """A propagation leg has zero length (e.g. the detector sits on a slit), or a
    result about to be written is not finite."""


def wavenumber(wavelength: float) -> float:
    if not (0.0 < wavelength < math.inf and 2.0 * math.pi / wavelength < math.inf):
        raise ValueError(f"wavelength must be positive and finite, with a finite k, got {wavelength}")
    return 2.0 * math.pi / wavelength


@dataclass(frozen=True)
class SlitGeometry:
    """Source point, slit x positions on z = 0, screen plane z = screen_z, wavenumber k.

    All lengths are in meters, k in 1/meters.
    """

    source: tuple[float, float]
    slits: tuple[float, ...]
    screen_z: float
    k: float

    def __post_init__(self):
        source = (float(self.source[0]), float(self.source[1]))
        slits = tuple(float(x) for x in self.slits)
        if not slits:
            raise ValueError("geometry needs at least one slit")
        coords = [*source, *slits, float(self.screen_z)]
        if not all(math.isfinite(v) for v in [*coords, float(self.k)]):
            raise ValueError("source, slits, screen_z and k must be finite")
        # The legs square each coordinate as a Python float, which raises
        # OverflowError past about 1.34e154 m instead of giving inf.
        if not all(math.isfinite(v * v) for v in coords):
            raise ValueError("source, slits and screen_z must have a finite square")
        if len(set(slits)) != len(slits):
            raise ValueError("slit points must be distinct")
        if not source[1] < 0.0:
            raise ValueError("source must sit below the slit plane (z < 0)")
        if not float(self.screen_z) > 0.0:
            raise ValueError("screen must sit above the slit plane (z > 0)")
        if not float(self.k) > 0.0:
            raise ValueError(f"wavenumber must be positive, got {self.k}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "slits", slits)
        object.__setattr__(self, "screen_z", float(self.screen_z))
        object.__setattr__(self, "k", float(self.k))

    @property
    def slit_count(self) -> int:
        return len(self.slits)


def path_lengths(geom: SlitGeometry, x_detector) -> tuple[np.ndarray, np.ndarray]:
    """Exact distances source -> slit_j and slit_j -> (x_detector, screen_z).

    s has shape (slits,), r has shape np.shape(x_detector) + (slits,): every screen kernel
    keeps the slits on the last axis. Squares go through np.float_power (C pow, as
    Python's **): the far-field law's pinned bytes rest on it, and the slit-mode oracle
    keeps a copy of this formula as its reference. The transfer kernel squares with an
    array's ** (x*x) for the exact-mode bytes; the two round apart on about 0.08 % of
    doubles, so the leg formulas stay apart. The far-field law and the far-field guard
    take their legs from here.
    """
    sx, sz = geom.source
    a = np.array(geom.slits)
    s = np.sqrt(np.float_power(a - sx, 2) + sz**2)
    x = checked_values(x_detector, "x_detector")[..., None]
    r = np.sqrt(np.float_power(x - a, 2) + geom.screen_z**2)
    return s, r


def _slit_sum(source, detector, slits, k):
    """sum_j exp(ik(s_j + r_j)) / (s_j r_j) from a source end through the slits to a detector end.

    Each end is (x, z) with z a float; the x's broadcast to the result's shape, and every leg
    has the slits on its last axis. Slit 0's phase is a common factor; leg differences from
    it avoid cancellation: r_j - r_0 = (a_0 - a_j)(2x - a_j - a_0) / (r_j + r_0), s_j - s_0 alike.
    """
    (sx, sz), (x, z) = source, detector
    sx, x = np.asarray(sx)[..., None], np.asarray(x)[..., None]
    a = np.array(slits)
    s = np.sqrt((a - sx) ** 2 + sz**2)
    r = np.sqrt((x - a) ** 2 + z**2)
    on_slit = np.any(s == 0.0, axis=-1)
    if np.any(on_slit):
        raise DegenerateGeometryError(f"zero-length propagation leg at source = ({sx[on_slit][0, 0]}, {sz})")
    on_slit = np.any(r == 0.0, axis=-1)
    if np.any(on_slit):
        raise DegenerateGeometryError(f"zero-length propagation leg at x_detector = {x[on_slit][0, 0]}")
    ds = (a - a[0]) * (a + a[0] - 2.0 * sx) / (s + s[..., :1])
    dr = (a[0] - a) * (2.0 * x - a - a[0]) / (r + r[..., :1])
    terms = np.exp(1j * k * (s[..., :1] + r[..., :1])) * (np.exp(1j * k * (ds + dr)) / (s * r))
    return terms.sum(axis=-1)


def transfer_coefficients(geom: SlitGeometry, xs) -> np.ndarray | complex:
    """The slit sum from the geometry's source to each screen point, a complex for a scalar point."""
    values = _slit_sum(geom.source, (checked_values(xs, "x_detector"), geom.screen_z), geom.slits, geom.k)
    return complex(values) if values.ndim == 0 else values


def intensity_expectation(state: QuantumState, geom: SlitGeometry, x_detector):
    """Mean occupation at the detector point(s): |transfer|^2 times source occupation."""
    weights = np.abs(state.data) ** 2 if state.kind == "pure" else state.data.diagonal().real
    # np.square, as an array's ** 2: a numpy scalar's ** 2 goes through pow() and may round apart.
    values = np.square(np.abs(transfer_coefficients(geom, x_detector))) * (np.arange(state.dim) @ weights)
    return float(values) if values.ndim == 0 else values


def single_photon_fringe(geom: SlitGeometry, x_detector):
    """Two-slit far-field detection probability for a single source photon.

    (1 + cos(k dr)) / 2 with dr the exact path difference and the 1/r
    amplitude factors dropped into the overall normalization. Only those
    amplitude factors are dropped: this is not the Fraunhofer linearization
    dr = d x / L, which overestimates dr by about (x^2 + a^2) / 2L^2 relative
    with a = d / 2 (at 12.5 mm on a 1 m screen the paraxial 0.5 is 6.1e-5
    below this value). The exact fringe is `fringe_scan`'s probability column.
    """
    if geom.slit_count != 2:
        raise ValueError(f"single_photon_fringe requires exactly 2 slits, got {geom.slit_count}")
    _, r = path_lengths(geom, x_detector)
    values = 0.5 * (1.0 + np.cos(geom.k * (r[..., 0] - r[..., 1])))
    return float(values) if values.ndim == 0 else values


@dataclass(frozen=True, eq=False)
class FringeTable:
    """Screen scan: detector position, normalized probability, raw intensity."""

    x: np.ndarray
    probability: np.ndarray
    raw_intensity: np.ndarray

    def __post_init__(self):
        names = ("x", "probability", "raw_intensity")
        x, p, raw = (np.asarray(getattr(self, name), dtype=float) for name in names)
        if not (x.shape == p.shape == raw.shape) or x.ndim != 1:
            raise ValueError("columns must be 1-d arrays of equal length")
        if p.size and (p.min() < 0.0 or p.max() > 1.0 + 1e-12):
            raise ValueError("probabilities must lie in [0, 1]")
        for name, values in zip(names, (x, p, raw)):
            _freeze(self, name, values)


def fringe_scan(
    geom: SlitGeometry,
    x_min: float,
    x_max: float,
    n_points: int,
    *,
    far_field: bool = False,
    state: QuantumState | None = None,
) -> FringeTable:
    """Uniform scan of the screen, computed by one `transfer_coefficients` call.

    The raw intensity column always carries the exact |transfer|^2 times the
    source occupation (1 for the default single photon); the probability
    column is the selected fringe law: the raw intensity normalized to the
    scan maximum, or `single_photon_fringe` when `far_field` is set.
    """
    if checked_int(n_points, "n_points") < 2:
        raise ValueError(f"n_points must be at least 2, got {n_points}")
    if not 0.0 < x_max - x_min < math.inf:
        raise ValueError("x_max must exceed x_min by a finite width")
    if state is None:
        state = fock_state(FockSpace(2), 1)
    xs = np.linspace(float(x_min), float(x_max), n_points)
    raw = intensity_expectation(state, geom, xs)
    if far_field:
        probs = single_photon_fringe(geom, xs)
    else:
        peak = raw.max()
        probs = raw / peak if peak > 0.0 else raw.copy()
    return FringeTable(x=xs, probability=probs, raw_intensity=raw)
