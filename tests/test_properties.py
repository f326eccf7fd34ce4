"""Property tests of the slit and qubit layers and the table serializer over random inputs.

Examples are drawn with a fixed seed (derandomize) so every run of the suite
checks the same cases.
"""

import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qfringe import (
    FockSpace,
    QuantumState,
    QubitModelParams,
    SlitGeometry,
    coherent_state,
    commutator,
    evolved_quadratures,
    fermionic_fringe,
    fock_state,
    fringe_scan,
    integrate_quadratures,
    intensity_expectation,
    path_lengths,
    plus_state,
    quadratures,
    single_photon_fringe,
    slit_mode_oracle,
    thermal_state,
    transfer_coefficients,
    transition_probability,
    transition_probability_oracle,
    wavenumber,
)
from qfringe.diffraction import _slit_sum
from qfringe.oracle import _expm
from qfringe.tableio import csv_text, json_document

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
CUTOFF = 12


@st.composite
def slit_scans(draw, slit_counts=st.integers(1, 8), symmetric=False):
    """A geometry and a scan half-width of a few fringe periods.

    Slits sit on a jittered grid with a pitch of 2-50 um; with symmetric=True
    the slits are mirrored about x = 0 and the source sits on the axis.
    """
    n = draw(slit_counts)
    pitch = draw(st.floats(2e-6, 5e-5))
    wavelength = draw(st.floats(400e-9, 700e-9))
    screen_z = draw(st.floats(0.5, 2.0))
    jitter = draw(st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n))
    if symmetric:
        half = [(j + 0.5 + jitter[j]) * pitch for j in range(n)]
        slits = tuple(-x for x in half) + tuple(half)
        source = (0.0, -draw(st.floats(0.2, 2.0)))
    else:
        slits = tuple((j - (n - 1) / 2 + jitter[j]) * pitch for j in range(n))
        source = (draw(st.floats(-1e-4, 1e-4)), -draw(st.floats(0.2, 2.0)))
    geom = SlitGeometry(source=source, slits=slits, screen_z=screen_z, k=wavenumber(wavelength))
    periods = draw(st.floats(0.5, 3.0))
    return geom, periods * wavelength * screen_z / pitch


@st.composite
def pure_states(draw):
    parts = st.lists(st.floats(-1.0, 1.0), min_size=CUTOFF, max_size=CUTOFF)
    vec = np.array(draw(parts)) + 1j * np.array(draw(parts))
    norm = np.linalg.norm(vec)
    assume(norm > 1e-3)
    return QuantumState("pure", vec / norm)


source_states = st.one_of(
    st.integers(1, CUTOFF - 1).map(lambda n: fock_state(FockSpace(CUTOFF), n)),
    st.floats(0.1, 1.5).map(lambda alpha: coherent_state(FockSpace(CUTOFF), alpha)),
    st.floats(0.05, 2.0).map(lambda nbar: thermal_state(FockSpace(CUTOFF), nbar)),
    pure_states(),
)


@PROPERTY
@given(slit_scans(), source_states)
def test_exact_probabilities_lie_in_unit_interval(scan, state):
    geom, half_width = scan
    probs = fringe_scan(geom, -half_width, half_width, 201, state=state).probability
    assert probs.min() >= 0.0
    assert probs.max() == 1.0
    if geom.slit_count == 2:
        single = fringe_scan(geom, -half_width, half_width, 201).probability
        assert 0.0 <= single.min() and single.max() == 1.0


@PROPERTY
@given(slit_scans(slit_counts=st.integers(1, 4), symmetric=True), source_states)
def test_symmetric_geometry_gives_mirror_symmetric_pattern(scan, state):
    geom, half_width = scan
    xs = np.linspace(0.0, half_width, 101)
    right = intensity_expectation(state, geom, xs)
    left = intensity_expectation(state, geom, -xs)
    assert np.max(np.abs(right - left)) <= 1e-12 * right.max()


# Exact symmetries of the point-slit kernel. The 2-slit oracles cannot see an
# error in the leg differences, which are all measured from slit 0; these can.
# Each deviation is bounded by 1e-12 of the scan's peak.
N_SLITS = st.integers(2, 64)


@PROPERTY
@given(slit_scans(slit_counts=N_SLITS))
def test_transfer_is_reciprocal_in_source_and_detector(scan):
    # Helmholtz reciprocity: swapping the source (sx, sz) and the detector
    # (x, L) puts the source at (x, -L) and the screen at z = -sz, detector at sx.
    geom, half_width = scan
    xs = np.linspace(-half_width, half_width, 21)
    forward = transfer_coefficients(geom, xs)
    sx, sz = geom.source
    swapped = [
        transfer_coefficients(SlitGeometry((x, -geom.screen_z), geom.slits, -sz, geom.k), sx)
        for x in xs
    ]
    assert np.max(np.abs(forward - swapped)) <= 1e-12 * np.abs(forward).max()
    # verify's one-call swapped sum is the per-point public-API loop, bit for bit.
    assert np.array_equal(_slit_sum((xs, -geom.screen_z), (sx, -sz), geom.slits, geom.k), swapped)


@PROPERTY
@given(slit_scans(slit_counts=N_SLITS), st.data())
def test_slit_order_leaves_intensity_unchanged(scan, data):
    # A permutation changes the reference slit, so it tests every leg
    # difference. Complex T differs by the rounding of the reference phase
    # k(s_0 + r_0), a global phase, so compare |T|^2.
    geom, half_width = scan
    order = data.draw(st.permutations(range(geom.slit_count)))
    permuted = SlitGeometry(geom.source, [geom.slits[j] for j in order], geom.screen_z, geom.k)
    xs = np.linspace(-half_width, half_width, 51)
    intensity = np.abs(transfer_coefficients(geom, xs)) ** 2
    reordered = np.abs(transfer_coefficients(permuted, xs)) ** 2
    assert np.max(np.abs(intensity - reordered)) <= 1e-12 * intensity.max()


@PROPERTY
@given(slit_scans(slit_counts=N_SLITS))
def test_mirrored_geometry_gives_the_same_transfer(scan):
    # Negating every x coordinate (source, slits, detectors) leaves T unchanged.
    geom, half_width = scan
    xs = np.linspace(-half_width, half_width, 51)
    sx, sz = geom.source
    mirror = SlitGeometry((-sx, sz), [-x for x in geom.slits], geom.screen_z, geom.k)
    forward = transfer_coefficients(geom, xs)
    assert np.max(np.abs(forward - transfer_coefficients(mirror, -xs))) <= 1e-12 * np.abs(forward).max()


@PROPERTY
@given(slit_scans(), pure_states(), st.floats(0.05, 2.0), st.floats(0.0, 1.0))
def test_intensity_is_linear_in_state_mixtures(scan, pure, nbar, p):
    geom, half_width = scan
    warm = thermal_state(FockSpace(CUTOFF), nbar)
    rho = p * np.outer(pure.data, pure.data.conj()) + (1 - p) * warm.data
    mixture = QuantumState("mixed", rho)
    xs = np.linspace(-half_width, half_width, 51)
    combined = intensity_expectation(mixture, geom, xs)
    parts = p * intensity_expectation(pure, geom, xs)
    parts += (1 - p) * intensity_expectation(warm, geom, xs)
    assert np.max(np.abs(combined - parts)) <= 1e-12 * parts.max()


def far_field_point(geom, x):
    """The far-field law at one point in scalar math, as the per-point loop computed it."""
    a0, a1 = geom.slits
    x = float(x)
    r0 = math.sqrt((x - a0) ** 2 + geom.screen_z**2)
    r1 = math.sqrt((x - a1) ** 2 + geom.screen_z**2)
    return 0.5 * (1.0 + math.cos(geom.k * (r0 - r1)))


@PROPERTY
@given(slit_scans(slit_counts=st.just(2)))
def test_batched_slit_mode_oracle_matches_points_and_far_field_law(scan):
    geom, half_width = scan
    xs = np.linspace(-half_width, half_width, 41)
    batched = slit_mode_oracle(geom, xs)
    points = np.array([slit_mode_oracle(geom, x) for x in xs])
    assert np.max(np.abs(batched - points)) <= 1e-10
    far_field = single_photon_fringe(geom, xs)
    assert np.max(np.abs(batched - far_field)) <= 1e-10
    assert np.array_equal(far_field, [single_photon_fringe(geom, x) for x in xs])
    assert np.array_equal(far_field, [far_field_point(geom, x) for x in xs])
    assert np.max(np.abs(fermionic_fringe(geom, xs) - batched)) <= 1e-10


# One shape rule for every point and time kernel: the result has the shape of the
# points or times (path_lengths' r adds the slit axis last), a scalar gives a Python
# scalar equal bit for bit to its element, and a NaN or infinite input raises.
_PURE = fock_state(FockSpace(CUTOFF), 3)
_MIXED = thermal_state(FockSpace(CUTOFF), 0.7)
# name -> (kernel, type of its result for a scalar input, inputs: "slits", "two_slits" or "times")
SHAPE_KERNELS = {
    "path_lengths_r": (lambda geom, x: path_lengths(geom, x)[1], np.ndarray, "slits"),
    "transfer_coefficients": (transfer_coefficients, complex, "slits"),
    "intensity_pure": (lambda geom, x: intensity_expectation(_PURE, geom, x), float, "slits"),
    "intensity_mixed": (lambda geom, x: intensity_expectation(_MIXED, geom, x), float, "slits"),
    "single_photon_fringe": (single_photon_fringe, float, "two_slits"),
    "slit_mode_oracle": (slit_mode_oracle, float, "two_slits"),
    "fermionic_fringe": (fermionic_fringe, float, "two_slits"),
    "transition_probability": (transition_probability, float, "times"),
    "transition_probability_oracle": (transition_probability_oracle, float, "times"),
}
GRID_SHAPES = st.lists(st.integers(1, 6), min_size=1, max_size=3).filter(lambda shape: math.prod(shape) <= 60)


@st.composite
def kernel_inputs(draw, inputs):
    """Geometry (2-16 slits, or 2) or qubit parameters, and a grid of 1-3 dims, up to 60 points."""
    shape = tuple(draw(GRID_SHAPES))
    if inputs == "times":
        params = QubitModelParams(omega=draw(st.floats(-20.0, 20.0)), cutoff=draw(st.integers(2, 4)))
        return params, np.linspace(0.0, draw(st.floats(0.1, 50.0)), math.prod(shape)).reshape(shape)
    slit_counts = st.just(2) if inputs == "two_slits" else st.integers(2, 16)
    geom, half_width = draw(slit_scans(slit_counts=slit_counts))
    return geom, np.linspace(-half_width, half_width, math.prod(shape)).reshape(shape)


@pytest.mark.parametrize("name", SHAPE_KERNELS)
@PROPERTY
@given(data=st.data())
def test_kernels_take_points_and_times_of_any_shape(name, data):
    kernel, scalar_type, inputs = SHAPE_KERNELS[name]
    subject, grid = data.draw(kernel_inputs(inputs))
    result = kernel(subject, grid)
    assert result.shape == grid.shape + result.shape[grid.ndim:]
    assert result.shape[grid.ndim:] == ((subject.slit_count,) if name == "path_lengths_r" else ())
    assert np.array_equal(result, kernel(subject, grid.ravel()).reshape(result.shape))
    for index in np.ndindex(grid.shape):
        scalar = kernel(subject, float(grid[index]))
        assert type(scalar) is scalar_type
        assert np.array_equal(scalar, result[index])
    bad_value = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    bad = grid.copy()
    bad[data.draw(st.tuples(*(st.integers(0, n - 1) for n in grid.shape)))] = bad_value
    for non_finite in (bad, bad_value):
        with pytest.raises(ValueError, match="must be finite"):
            kernel(subject, non_finite)


@PROPERTY
@given(
    st.floats(-20.0, 20.0),
    st.lists(st.floats(0.0, 50.0), min_size=1, max_size=30),
    st.integers(2, 6),
)
def test_flip_curve_follows_flip_law(omega, times, cutoff):
    times = np.array(times)
    curve = transition_probability(QubitModelParams(omega=omega, cutoff=cutoff), times)
    assert np.max(np.abs(curve - np.sin(omega * times / 2.0) ** 2)) <= 1e-12


@PROPERTY
@given(st.integers(2, 32), st.floats(0.1, 10.0), st.integers(0, 2**32 - 1))
def test_taylor_expm_matches_scipy(dim, t, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = -1j * t * (m + m.conj().T) / 2.0
    assert np.max(np.abs(_expm(a) - scipy.linalg.expm(a))) <= 1e-12


# Leapfrog cases: |omega| h / 2 <= 0.5, well inside the stability limit of 2.
leapfrog_cases = (
    st.floats(-5.0, 5.0),
    st.floats(0.0, 10.0),
    st.integers(50, 400),
    st.integers(2, 5),
    st.one_of(st.none(), st.integers(1, 120)),
)


def operator_leapfrog(params, t_final, n_steps, record_stride):
    """Kick-drift-kick on the dense quadrature operators, six dim x dim updates per step."""
    start = quadratures(params)
    x, p_x, y, p_y = (op.copy() for op in (start.x, start.p_x, start.y, start.p_y))
    h = t_final / n_steps
    om = params.omega / 2.0
    snapshots = [(x.copy(), p_x.copy(), y.copy(), p_y.copy())]
    steps_recorded = [0]
    for step in range(1, n_steps + 1):
        p_x -= (om * h / 2.0) * x
        p_y += (om * h / 2.0) * y
        x += (om * h) * p_x
        y -= (om * h) * p_y
        p_x -= (om * h / 2.0) * x
        p_y += (om * h / 2.0) * y
        if step % record_stride == 0 or step == n_steps:
            snapshots.append((x.copy(), p_x.copy(), y.copy(), p_y.copy()))
            steps_recorded.append(step)
    return h * np.array(steps_recorded, dtype=float), snapshots


@PROPERTY
@given(*leapfrog_cases)
def test_leapfrog_preserves_canonical_commutators(omega, t_final, n_steps, cutoff, stride):
    params = QubitModelParams(omega=omega, cutoff=cutoff)
    start = quadratures(params)
    result = integrate_quadratures(params, t_final, n_steps, record_stride=stride)
    for record in result.coefficients:
        snap = evolved_quadratures(params, record)
        for q, p, q0, p0 in ((snap.x, snap.p_x, start.x, start.p_x), (snap.y, snap.p_y, start.y, start.p_y)):
            assert np.max(np.abs(commutator(q, p) - commutator(q0, p0))) <= 1e-12


@PROPERTY
@given(*leapfrog_cases)
def test_leapfrog_matches_operator_loop(omega, t_final, n_steps, cutoff, stride):
    params = QubitModelParams(omega=omega, cutoff=cutoff)
    result = integrate_quadratures(params, t_final, n_steps, record_stride=stride)
    times, snapshots = operator_leapfrog(params, t_final, n_steps, stride or max(1, n_steps // 100))
    assert np.array_equal(result.times, times)
    plus = plus_state(params).data
    for record, (x, p_x, y, p_y) in zip(result.coefficients, snapshots, strict=True):
        snap = evolved_quadratures(params, record)
        for got, want in ((snap.x, x), (snap.p_x, p_x), (snap.y, y), (snap.p_y, p_y)):
            assert np.max(np.abs(got - want)) <= 1e-12
    flips = [0.5 * (1.0 - np.vdot(plus, (x @ y + p_x @ p_y) @ plus).real) for x, p_x, y, p_y in snapshots]
    assert np.max(np.abs(result.probabilities - flips)) <= 1e-12


def per_row_csv_text(header, rows):
    """The per-cell CSV serializer that the columnar `csv_text` replaced."""

    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, str):
            return value
        if isinstance(value, int):
            return str(value)
        return format(float(value), ".17g")

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell(value) for value in row))
    return "\n".join(lines) + "\n"


@st.composite
def float_columns(draw):
    n_rows = draw(st.integers(0, 300))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return [
        np.array(draw(st.lists(finite, min_size=n_rows, max_size=n_rows)), dtype=float)
        for _ in range(draw(st.integers(1, 5)))
    ]


@PROPERTY
@given(float_columns())
@example([np.array([-0.0, 0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308])])
def test_csv_text_columns_match_per_row_reference(columns):
    header = [f"c{j}" for j in range(len(columns))]
    rows = zip(*(column.tolist() for column in columns))
    assert csv_text(header, columns) == per_row_csv_text(header, rows)


def test_csv_text_mixed_columns_match_per_row_reference():
    # Shaped like the verify report: check names, deviations, tolerances, pass flags.
    names = ["oracle_unitarity", "far_field_fringe", "qubit%flip"]
    deviations = [1.4432899320127035e-15, math.inf, math.nan]
    tolerances = [1e-10, 0.5, 2.0]
    passed = [True, False, False]
    header = ("check", "max_deviation", "tolerance", "pass")
    columns = (names, deviations, tolerances, passed)
    assert csv_text(header, columns) == per_row_csv_text(header, zip(*columns))
    # numpy booleans are written like Python ones, in CSV and in JSON.
    numpy_columns = (names, deviations, tolerances, np.array(passed))
    assert csv_text(header, numpy_columns) == csv_text(header, columns)
    assert json_document(("pass",), (list(numpy_columns[3]),)) == json_document(("pass",), (passed,))
    records = "[\n  {\n    \"pass\": true\n  },\n  {\n    \"pass\": false\n  },\n  {\n    \"pass\": false\n  }\n]\n"
    assert json_document(("pass",), (passed,)) == records
    assert recursive_json_text([{"pass": flag} for flag in passed]) + "\n" == records
    assert recursive_json_text(passed) + "\n" == "[\n  true,\n  false,\n  false\n]\n"
    with pytest.raises(ValueError):
        csv_text(header, (names, deviations[:2], tolerances, passed))
    assert csv_text(("x%s",), ([0.5],), {"max%s": -0.0}) == "x%s\n0.5\n# max%s = -0\n"


def recursive_json_text(value, indent=0):
    """The recursive per-cell JSON serializer that the row-template `json_document` replaced."""
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{pad}  {json.dumps(key)}: {recursive_json_text(val, indent + 2)}" for key, val in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{pad}  {recursive_json_text(item, indent + 2)}" for item in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    return format(float(value), ".17g")


def reference_json_document(header, columns, rows_key=None, summary=None):
    rows = [dict(zip(header, row)) for row in zip(*(np.asarray(column).tolist() for column in columns))]
    return recursive_json_text({rows_key: rows, **summary} if rows_key else rows) + "\n"


@st.composite
def verify_shaped_columns(draw):
    """Check names, deviations, tolerances and pass flags, under arbitrary distinct names."""
    n_rows = draw(st.integers(0, 20))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    header = draw(st.lists(st.text(max_size=8), min_size=4, max_size=4, unique=True))
    columns = [
        draw(st.lists(st.text(max_size=12), min_size=n_rows, max_size=n_rows)),
        np.array(draw(st.lists(finite, min_size=n_rows, max_size=n_rows)), dtype=float),
        draw(st.lists(finite, min_size=n_rows, max_size=n_rows)),
        np.array(draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)), dtype=bool),
    ]
    return header, columns


WRAPPERS = st.sampled_from([(None, None), ("rows", {"max_abs_deviation": 2.5e-17}), ("checks", {"all_pass": False})])
EXTREMES = [np.array([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308])]


@PROPERTY
@given(float_columns(), WRAPPERS)
@example(EXTREMES, (None, None))
@example(EXTREMES, ("rows", {"max_abs_deviation": -0.0}))
def test_json_document_float_columns_match_recursive_reference(columns, wrapper):
    header = [f"c{j}" for j in range(len(columns))]
    assert json_document(header, columns, *wrapper) == reference_json_document(header, columns, *wrapper)


@PROPERTY
@given(verify_shaped_columns(), WRAPPERS)
@example((["check", "max%sdeviation", "tol%", "pass"], [["a%s"], np.array([1.5]), [0.1], np.array([True])]), (None, None))
def test_json_document_mixed_columns_match_recursive_reference(table, wrapper):
    header, columns = table
    assert json_document(header, columns, *wrapper) == reference_json_document(header, columns, *wrapper)
