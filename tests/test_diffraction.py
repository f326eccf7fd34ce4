import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from qfringe import (
    DegenerateGeometryError,
    FockSpace,
    QuantumState,
    SlitGeometry,
    coherent_state,
    dagger,
    expectation,
    fermionic_fringe,
    fock_state,
    fringe_scan,
    intensity_expectation,
    path_lengths,
    single_photon_fringe,
    slit_mode_oracle,
    thermal_state,
    transfer_coefficients,
    wavenumber,
)

WAVELENGTH = 500e-9
SLIT_HALF_SEPARATION = 5e-6
SCREEN_DISTANCE = 1.0


def canonical_geometry():
    return SlitGeometry(
        source=(0.0, -1.0),
        slits=(-SLIT_HALF_SEPARATION, SLIT_HALF_SEPARATION),
        screen_z=SCREEN_DISTANCE,
        k=wavenumber(WAVELENGTH),
    )


def oracle_path_difference(x):
    """Independent exact-path oracle for the canonical geometry."""
    r1 = math.sqrt(SCREEN_DISTANCE**2 + (x + SLIT_HALF_SEPARATION) ** 2)
    r2 = math.sqrt(SCREEN_DISTANCE**2 + (x - SLIT_HALF_SEPARATION) ** 2)
    return r1 - r2


def solve_half_wave_point():
    """Detector position where the exact path difference is half a wavelength."""
    k = wavenumber(WAVELENGTH)
    return brentq(lambda x: k * oracle_path_difference(x) - math.pi, 0.02, 0.03, xtol=1e-15)


def test_geometry_validation():
    with pytest.raises(ValueError):
        SlitGeometry(source=(0.0, 1.0), slits=(0.0,), screen_z=1.0, k=1.0)
    with pytest.raises(ValueError):
        SlitGeometry(source=(0.0, -1.0), slits=(0.0,), screen_z=-1.0, k=1.0)
    with pytest.raises(ValueError):
        SlitGeometry(source=(0.0, -1.0), slits=(0.0, 0.0), screen_z=1.0, k=1.0)
    with pytest.raises(ValueError):
        SlitGeometry(source=(0.0, -1.0), slits=(), screen_z=1.0, k=1.0)
    with pytest.raises(TypeError):  # slits are x positions, not (x, z) pairs
        SlitGeometry(source=(0.0, -1.0), slits=((1e-6, 0.0), -1e-6), screen_z=1.0, k=1.0)
    geom = SlitGeometry(source=(0.0, -1.0), slits=np.array([1e-6, -1e-6]), screen_z=1.0, k=1.0)
    assert geom.slits == (1e-6, -1e-6)
    assert all(type(x) is float for x in geom.slits)
    valid = dict(source=(0.0, -1.0), slits=(0.0,), screen_z=1.0, k=1.0)
    for bad in (
        dict(source=(math.nan, -1.0)),
        dict(source=(0.0, -math.inf)),
        dict(slits=(0.0, math.inf)),
        dict(screen_z=math.inf),
        dict(k=math.inf),
    ):
        with pytest.raises(ValueError):
            SlitGeometry(**{**valid, **bad})


def test_geometry_rejects_coordinates_whose_square_overflows():
    # The legs square coordinates as Python floats, which raise OverflowError
    # past about 1.34e154 m; such a geometry is refused when it is built.
    valid = dict(source=(0.0, -1.0), slits=(0.0, 1e-5), screen_z=1.0, k=1.0)
    for bad in (
        dict(screen_z=1e155),
        dict(screen_z=1e200),
        dict(source=(0.0, -1e200)),
        dict(source=(1e200, -1.0)),
        dict(slits=(0.0, -1e200)),
    ):
        with pytest.raises(ValueError, match="finite square"):
            SlitGeometry(**{**valid, **bad})
    geom = SlitGeometry(**{**valid, "screen_z": 1e154})
    assert np.all(np.isfinite(transfer_coefficients(geom, [0.0, 1.0])))


def test_path_lengths_mirror_symmetry():
    geom = canonical_geometry()
    s, r = path_lengths(geom, 0.0)
    assert s[0] == s[1]
    assert r[0] == r[1]


def test_path_lengths_collinear_single_slit():
    geom = SlitGeometry(source=(0.0, -1.0), slits=(0.0,), screen_z=1.0, k=1.0)
    s, r = path_lengths(geom, 0.0)
    assert s[0] == 1.0
    assert r[0] == 1.0


def test_path_difference_matches_far_field_formula():
    geom = canonical_geometry()
    x = 0.025
    _, r = path_lengths(geom, x)
    delta = abs(r[0] - r[1])
    assert delta == abs(oracle_path_difference(x))
    assert delta == pytest.approx(2.4992191138828446e-07, rel=1e-12)
    fraunhofer = 2 * SLIT_HALF_SEPARATION * x / SCREEN_DISTANCE
    assert delta == pytest.approx(fraunhofer, rel=1e-3)


def test_transfer_amplitude_single_slit_modulus():
    geom = SlitGeometry(source=(0.0, -1.0), slits=(0.0,), screen_z=1.0, k=wavenumber(WAVELENGTH))
    for x in (0.0, 0.01, 0.13):
        amp = transfer_coefficients(geom, x)
        s, r = path_lengths(geom, x)
        assert abs(amp) == pytest.approx(1.0 / (s[0] * r[0]), rel=1e-14)


def test_transfer_amplitude_factorizes_for_equidistant_slits():
    geom = canonical_geometry()
    amp = transfer_coefficients(geom, 0.0)
    s, r = path_lengths(geom, 0.0)
    factorized = 2.0 * np.exp(1j * geom.k * (s[0] + r[0])) / (s[0] * r[0])
    assert amp == pytest.approx(factorized, rel=1e-15)


def test_transfer_amplitude_dark_point_ratio():
    geom = canonical_geometry()
    bright = abs(transfer_coefficients(geom, 0.0)) ** 2
    dark = abs(transfer_coefficients(geom, 0.025)) ** 2
    assert dark / bright < 1e-4


def mpmath_intensity(geom, x):
    """|sum_j exp(ik(s_j + r_j)) / (s_j r_j)|^2 at 50 digits, from the same double inputs."""
    with mpmath.workdps(50):
        sx, sz = (mpmath.mpf(v) for v in geom.source)
        x, z, k = mpmath.mpf(x), mpmath.mpf(geom.screen_z), mpmath.mpf(geom.k)
        total = mpmath.mpc(0)
        for a in geom.slits:
            s = mpmath.sqrt((a - sx) ** 2 + sz**2)
            r = mpmath.sqrt((x - a) ** 2 + z**2)
            total += mpmath.expj(k * (s + r)) / (s * r)
        return float(abs(total) ** 2)


@pytest.mark.parametrize(
    "geom",
    [
        canonical_geometry(),
        SlitGeometry(
            source=(3e-5, -0.8), slits=(-5e-6, 5e-6), screen_z=1.3, k=wavenumber(WAVELENGTH)
        ),
        SlitGeometry(
            source=(0.0, -1.0),
            slits=tuple((j - 7.5) * 1e-5 for j in range(16)),
            screen_z=1.0,
            k=wavenumber(WAVELENGTH),
        ),
    ],
    ids=["canonical", "off_axis_source", "sixteen_slits"],
)
def test_transfer_coefficients_match_mpmath_reference(geom):
    # Subtracting two path lengths of about 1 m loses k * 1 m * 2^-52 ~ 3e-9 rad
    # of relative phase; the kernel's cancellation-free leg differences do not.
    xs = np.append(np.linspace(-0.02, 0.02, 9), 0.0123456789)
    reference = np.array([mpmath_intensity(geom, x) for x in xs])
    got = np.abs(transfer_coefficients(geom, xs)) ** 2
    assert np.max(np.abs(got - reference)) <= 1e-14 * reference.max()


def test_degenerate_geometry_error():
    # A valid geometry: screen_z**2 underflows to 0, so a detector on a slit
    # gets a zero-length leg in every model.
    geom = SlitGeometry(source=(0.0, -1.0), slits=(-5e-6, 5e-6), screen_z=1e-200, k=1.0)
    with pytest.raises(DegenerateGeometryError):
        transfer_coefficients(geom, [0.0, 5e-6])
    with pytest.raises(DegenerateGeometryError):
        slit_mode_oracle(geom, [0.0, 5e-6])
    with pytest.raises(DegenerateGeometryError):
        fermionic_fringe(geom, -5e-6)
    assert np.all(np.isfinite(transfer_coefficients(geom, [0.0, 1e-6])))


def test_intensity_vacuum_is_zero():
    geom = canonical_geometry()
    vacuum = fock_state(FockSpace(4), 0)
    for x in (0.0, 0.01, 0.025):
        assert intensity_expectation(vacuum, geom, x) == 0.0


def test_intensity_dark_to_bright_ratio_single_photon():
    geom = canonical_geometry()
    photon = fock_state(FockSpace(2), 1)
    ratio = intensity_expectation(photon, geom, 0.025) / intensity_expectation(photon, geom, 0.0)
    assert ratio < 1e-4


def test_intensity_coherent_against_slit_mode_model():
    # Independent model: each slit mode in a coherent state carrying the
    # source leg, detector operator combining the screen legs; the expected
    # detector occupation must reproduce |alpha|^2 |transfer|^2.
    geom = canonical_geometry()
    alpha = 0.8
    cutoff = 12
    space = FockSpace(cutoff, 2)

    for x in (0.0, 0.004, 0.0125):
        s, r = path_lengths(geom, x)
        slit_amps = alpha * np.exp(1j * geom.k * (s - s.min())) / s
        vec = np.kron(
            coherent_state(FockSpace(cutoff), slit_amps[0]).data,
            coherent_state(FockSpace(cutoff), slit_amps[1]).data,
        )
        model_state = QuantumState("pure", vec)
        weights = np.exp(1j * geom.k * (r - r.min())) / r
        a1 = np.kron(_lower(cutoff), np.eye(cutoff, dtype=complex))
        a2 = np.kron(np.eye(cutoff, dtype=complex), _lower(cutoff))
        detector = weights[0] * a1 + weights[1] * a2
        model = expectation(model_state, dagger(detector) @ detector).real

        source_space = FockSpace(30)
        direct = intensity_expectation(coherent_state(source_space, alpha), geom, x)
        assert direct == pytest.approx(model, rel=1e-6)


def _lower(cutoff):
    op = np.zeros((cutoff, cutoff), dtype=complex)
    for n in range(1, cutoff):
        op[n - 1, n] = math.sqrt(n)
    return op


def test_intensity_linear_in_mixtures():
    geom = canonical_geometry()
    space = FockSpace(8)
    p = 0.3
    one = fock_state(space, 1)
    warm = thermal_state(space, 0.7)
    rho_one = np.outer(one.data, one.data.conj())
    mixture = QuantumState("mixed", p * rho_one + (1 - p) * warm.data)
    for x in (0.0, 0.007):
        combined = intensity_expectation(mixture, geom, x)
        parts = p * intensity_expectation(one, geom, x) + (1 - p) * intensity_expectation(warm, geom, x)
        assert combined == pytest.approx(parts, abs=1e-12 * max(1.0, abs(parts)))


def test_far_field_fringe_values():
    geom = canonical_geometry()
    assert single_photon_fringe(geom, 0.0) == 1.0
    # Frozen from the exact-path oracle above: (1 + cos(k dr))/2 at these points.
    assert single_photon_fringe(geom, 0.0125) == pytest.approx(0.5000613521945183, abs=1e-12)
    assert single_photon_fringe(geom, 0.025) == pytest.approx(2.407327104325674e-07, abs=1e-12)


def test_far_field_half_wave_point_vanishes():
    geom = canonical_geometry()
    x_dark = solve_half_wave_point()
    assert single_photon_fringe(geom, x_dark) < 1e-10


def test_fringe_requires_two_slits():
    single = SlitGeometry(source=(0.0, -1.0), slits=(0.0,), screen_z=1.0, k=1.0)
    with pytest.raises(ValueError):
        single_photon_fringe(single, 0.0)


def test_exact_fringe_matches_intensity_pipeline():
    geom = canonical_geometry()
    xs = np.linspace(-0.025, 0.025, 101)
    fringe = fringe_scan(geom, -0.025, 0.025, 101).probability
    photon = fock_state(FockSpace(2), 1)
    raw = np.array([intensity_expectation(photon, geom, x) for x in xs])
    assert np.max(np.abs(fringe - raw / raw.max())) < 1e-12


def test_far_field_vs_exact_in_fraunhofer_regime():
    geom = canonical_geometry()
    assert geom.screen_z / (2 * SLIT_HALF_SEPARATION) > 1e4
    xs = np.linspace(-0.025, 0.025, 101)
    far = single_photon_fringe(geom, xs)
    exact = fringe_scan(geom, -0.025, 0.025, 101).probability
    assert np.max(np.abs(far - exact)) < 1e-3


def test_fringe_scan_mirror_symmetry():
    table = fringe_scan(canonical_geometry(), -0.02, 0.02, 81, mode="exact")
    assert np.max(np.abs(table.probability - table.probability[::-1])) < 1e-12
    assert np.max(np.abs(table.x + table.x[::-1])) < 1e-17


def test_fringe_scan_spacing_matches_textbook_formula():
    geom = canonical_geometry()
    table = fringe_scan(geom, -0.12, 0.12, 4801, mode="far_field")
    probs = table.probability
    peaks = [
        table.x[i]
        for i in range(1, len(probs) - 1)
        if probs[i] > probs[i - 1] and probs[i] > probs[i + 1] and probs[i] > 0.9
    ]
    spacings = np.diff(peaks)
    expected = WAVELENGTH * SCREEN_DISTANCE / (2 * SLIT_HALF_SEPARATION)
    assert len(spacings) >= 3
    assert np.all(np.abs(spacings - expected) / expected < 0.01)


def test_fringe_scan_two_point_rows():
    geom = canonical_geometry()
    table = fringe_scan(geom, 0.0, 0.0125, 2, mode="far_field")
    assert table.probability[0] == 1.0
    assert table.probability[1] == pytest.approx(0.5000613521945183, abs=1e-12)
    assert table.raw_intensity[0] == pytest.approx(
        abs(transfer_coefficients(geom, 0.0)) ** 2, rel=1e-14
    )


def test_fringe_scan_validation():
    geom = canonical_geometry()
    with pytest.raises(ValueError):
        fringe_scan(geom, 0.0, 0.01, 1)
    with pytest.raises(ValueError):
        fringe_scan(geom, 0.01, 0.0, 5)
    with pytest.raises(ValueError, match="finite width"):  # used to warn, then blame x_detector
        fringe_scan(geom, -1.7e308, 1.7e308, 5)
    with pytest.raises(ValueError):
        fringe_scan(geom, 0.0, 0.01, 5, mode="bogus")


def test_fringe_scan_takes_an_integer_point_count():
    geom = canonical_geometry()
    with pytest.raises(ValueError, match="n_points must be an integer"):
        fringe_scan(geom, -0.01, 0.01, 2.9)  # int() used to make 2 points of it
    table = fringe_scan(geom, -0.01, 0.01, np.int64(3))
    assert np.array_equal(table.x, fringe_scan(geom, -0.01, 0.01, 3).x)


@pytest.mark.parametrize("wavelength", [math.nan, math.inf, -math.inf, 0.0, -5e-7, 1e-320, 5e-324])
def test_wavenumber_requires_a_positive_finite_wavelength_and_k(wavelength):
    # wavenumber(nan) used to be nan, and 1e-320 gave k = inf, both refused only
    # later, by SlitGeometry, as a k the caller never set.
    with pytest.raises(ValueError, match="wavelength must be positive and finite"):
        wavenumber(wavelength)


def test_wavenumber_of_the_smallest_wavelength_with_a_finite_k():
    wavelength = 2.0 * math.pi / 1.7976931348623157e308
    assert wavenumber(wavelength) == 2.0 * math.pi / wavelength < math.inf


def test_fringe_scan_vacuum_source():
    geom = canonical_geometry()
    vacuum = fock_state(FockSpace(4), 0)
    table = fringe_scan(geom, -0.01, 0.01, 11, mode="exact", state=vacuum)
    assert np.all(table.probability == 0.0)
    assert np.all(table.raw_intensity == 0.0)


def test_fringe_table_probability_bounds():
    from qfringe.diffraction import FringeTable

    with pytest.raises(ValueError):
        FringeTable(
            x=np.array([0.0, 1.0]),
            probability=np.array([0.5, 1.5]),
            raw_intensity=np.array([1.0, 1.0]),
        )


def test_fermionic_fringe_symmetric_point():
    assert fermionic_fringe(canonical_geometry(), 0.0) == pytest.approx(1.0, abs=1e-14)


def test_fermionic_fringe_half_wave_point():
    geom = canonical_geometry()
    x_dark = solve_half_wave_point()
    assert fermionic_fringe(geom, x_dark) < 1e-10


def test_fermionic_fringe_matches_bosonic_scan():
    geom = canonical_geometry()
    xs = np.linspace(-0.025, 0.025, 101)
    fermionic = fermionic_fringe(geom, xs)
    bosonic = single_photon_fringe(geom, xs)
    assert np.max(np.abs(fermionic - bosonic)) < 1e-10


def test_fermionic_fringe_requires_two_slits():
    single = SlitGeometry(source=(0.0, -1.0), slits=(0.0,), screen_z=1.0, k=1.0)
    with pytest.raises(ValueError):
        fermionic_fringe(single, 0.0)
