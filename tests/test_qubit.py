import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qfringe import qubit
from qfringe import (
    QuadratureSet,
    QubitModelParams,
    SecondQuantizedPauli,
    annihilation_op,
    commutator,
    creation_op,
    dagger,
    evolved_quadratures,
    hamiltonian,
    heisenberg_rhs,
    integrate_quadratures,
    minus_state,
    operator_derivative,
    pauli_evolved,
    pauli_set,
    plus_state,
    quadrature_hamiltonian,
    quadratures,
    schwinger_map,
    transition_probability,
    two_mode_space,
)

# Structure-constant sign of the bilinear algebra, measured by the
# brute-force commutator below and frozen here.
SU2_SIGN = -1.0


def single_excitation_block(op, params):
    space = two_mode_space(params)
    idx = [space.index((1, 0)), space.index((0, 1))]
    return op[np.ix_(idx, idx)]


def test_params_validation():
    with pytest.raises(ValueError):
        QubitModelParams(omega=float("nan"))
    with pytest.raises(ValueError):
        QubitModelParams(omega=1.0, cutoff=1)
    with pytest.raises(ValueError, match="must be an integer"):
        QubitModelParams(omega=1.0, cutoff=2.5)
    params = QubitModelParams(omega=1.0, cutoff=np.int64(3))
    assert transition_probability(params, math.pi) == pytest.approx(1.0, abs=1e-12)


def test_sigma_z_number_difference():
    params = QubitModelParams(omega=1.0, cutoff=3)
    space = two_mode_space(params)
    sz = schwinger_map("Z", params)
    excited = np.zeros(space.dim, dtype=complex)
    excited[space.index((1, 0))] = 1.0
    assert np.array_equal(sz @ excited, excited)
    ground = np.zeros(space.dim, dtype=complex)
    ground[space.index((0, 1))] = 1.0
    assert np.array_equal(sz @ ground, -ground)


def test_single_excitation_blocks_are_pauli_matrices():
    params = QubitModelParams(omega=1.0, cutoff=3)
    sx_block = single_excitation_block(schwinger_map("X", params), params)
    assert np.array_equal(sx_block, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    sy_block = single_excitation_block(schwinger_map("Y", params), params)
    assert np.array_equal(sy_block, np.array([[0.0, 1j], [-1j, 0.0]]))
    sz_block = single_excitation_block(schwinger_map("Z", params), params)
    assert np.array_equal(sz_block, np.diag([1.0, -1.0]).astype(complex))


def test_schwinger_map_label_validation():
    with pytest.raises(ValueError):
        schwinger_map("W", QubitModelParams(omega=1.0, cutoff=2))


def test_structure_constant_sign_by_brute_force():
    # Direct matrix commutator on cutoff 3 per mode; the commutator is
    # diagonal and equals 2i * SU2_SIGN * Sigma_Z wherever neither mode sits
    # at the cutoff level.
    params = QubitModelParams(omega=1.0, cutoff=3)
    space = two_mode_space(params)
    comm = commutator(schwinger_map("X", params), schwinger_map("Y", params))
    assert np.max(np.abs(comm - np.diag(np.diag(comm)))) < 1e-12
    sz = schwinger_map("Z", params)
    expected = 2j * SU2_SIGN * sz
    interior = [
        space.index((nx, ny))
        for nx in range(params.cutoff - 1)
        for ny in range(params.cutoff - 1)
    ]
    block = np.ix_(interior, interior)
    assert np.max(np.abs(comm[block] - expected[block])) < 1e-12
    assert np.max(np.abs(single_excitation_block(comm, params) - single_excitation_block(expected, params))) < 1e-12


def test_pauli_set_validation_rejects_non_number_conserving():
    params = QubitModelParams(omega=1.0, cutoff=2)
    space = two_mode_space(params)
    bad = annihilation_op(space, 0) + creation_op(space, 0)
    with pytest.raises(ValueError):
        SecondQuantizedPauli(sigma_x=bad, sigma_y=bad, sigma_z=bad)
    with pytest.raises(ValueError):
        SecondQuantizedPauli(
            sigma_x=1j * schwinger_map("X", params),
            sigma_y=schwinger_map("Y", params),
            sigma_z=schwinger_map("Z", params),
        )


def test_hamiltonian_diagonal_elements():
    omega = 1.7
    params = QubitModelParams(omega=omega, cutoff=3)
    space = two_mode_space(params)
    h = hamiltonian(params)
    assert h[space.index((1, 0)), space.index((1, 0))] == pytest.approx(omega / 2)
    assert h[space.index((0, 0)), space.index((0, 0))] == 0.0
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0


def test_hamiltonian_spectrum_minimal_cutoff():
    omega = 2.0
    params = QubitModelParams(omega=omega, cutoff=2)
    evals = np.sort(np.linalg.eigvalsh(hamiltonian(params)))
    assert np.allclose(evals, [-omega / 2, 0.0, 0.0, omega / 2], atol=1e-14)


def test_quadrature_canonical_commutator_cutoff_corner():
    params = QubitModelParams(omega=1.0, cutoff=4)
    quads = quadratures(params)
    space = two_mode_space(params)
    a_x = annihilation_op(space, 0)
    expected = 1j * commutator(a_x, dagger(a_x))
    assert np.max(np.abs(commutator(quads.x, quads.p_x) - expected)) < 1e-13
    corner = np.eye(params.cutoff, dtype=complex)
    corner[-1, -1] = 1.0 - params.cutoff
    assert np.max(np.abs(expected - 1j * np.kron(corner, np.eye(params.cutoff)))) < 1e-12


def test_operator_derivative_quadratic_is_exact():
    params = QubitModelParams(omega=1.0, cutoff=4)
    quads = quadratures(params)

    def kinetic(q):
        return q.p_x @ q.p_x / 2.0

    for eps_sequence in ((0.5, 0.25), (1e-3, 5e-4), (0.2, 0.1, 0.05)):
        deriv = operator_derivative(kinetic, quads, "p_x", eps_sequence)
        assert np.max(np.abs(deriv - quads.p_x)) < 1e-12


def test_operator_derivative_matches_commutator_oracle():
    omega = 1.3
    params = QubitModelParams(omega=omega, cutoff=4)
    quads = quadratures(params)
    h_num = hamiltonian(params)

    deriv = operator_derivative(lambda q: quadrature_hamiltonian(q, omega), quads, "p_x")
    assert np.max(np.abs(deriv - (omega / 2.0) * quads.p_x)) < 1e-10
    assert np.max(np.abs(deriv - 1j * commutator(h_num, quads.x))) < 1e-10


def test_operator_derivative_independent_variable_gives_zero():
    params = QubitModelParams(omega=1.0, cutoff=3)
    quads = quadratures(params)

    def x_oscillator(q):
        return (q.x @ q.x + q.p_x @ q.p_x) / 2.0

    deriv = operator_derivative(x_oscillator, quads, "p_y")
    assert np.max(np.abs(deriv)) < 1e-12


def test_operator_derivative_eps_validation():
    params = QubitModelParams(omega=1.0, cutoff=2)
    quads = quadratures(params)
    with pytest.raises(ValueError):
        operator_derivative(lambda q: q.x, quads, "p_x", eps_sequence=())
    with pytest.raises(ValueError):
        operator_derivative(lambda q: q.x, quads, "p_x", eps_sequence=(1e-2, 1e-2))
    with pytest.raises(ValueError):
        operator_derivative(lambda q: q.x, quads, "bogus")


@pytest.mark.parametrize("eps_sequence", [(1e-2, math.nan), (math.inf, 1e-2), (math.nan,)])
def test_operator_derivative_refuses_non_finite_eps(eps_sequence):
    # Refused by name before any difference is formed, so no RuntimeWarning either.
    quads = quadratures(QubitModelParams(omega=1.0, cutoff=2))
    with pytest.raises(ValueError, match="^eps_sequence must be finite"):
        operator_derivative(lambda q: q.x, quads, "p_x", eps_sequence=eps_sequence)


def test_heisenberg_rhs_free_case():
    params = QubitModelParams(omega=0.0, cutoff=3)
    rhs = heisenberg_rhs(quadratures(params), params)
    for name in ("x", "p_x", "y", "p_y"):
        assert np.max(np.abs(getattr(rhs, name))) < 1e-15


def test_heisenberg_rhs_rotation_structure():
    omega = 0.9
    params = QubitModelParams(omega=omega, cutoff=4)
    quads = quadratures(params)
    rhs = heisenberg_rhs(quads, params)
    assert np.max(np.abs(rhs.x - (omega / 2.0) * quads.p_x)) < 1e-12
    assert np.max(np.abs(rhs.p_x + (omega / 2.0) * quads.x)) < 1e-12
    assert np.max(np.abs(rhs.y + (omega / 2.0) * quads.p_y)) < 1e-12
    assert np.max(np.abs(rhs.p_y - (omega / 2.0) * quads.y)) < 1e-12


def test_heisenberg_rhs_matches_commutator_oracle():
    omega = 1.1
    params = QubitModelParams(omega=omega, cutoff=3)
    quads = quadratures(params)
    h = hamiltonian(params)
    rhs = heisenberg_rhs(quads, params)
    assert np.max(np.abs(rhs.x - 1j * commutator(h, quads.x))) < 1e-10
    assert np.max(np.abs(rhs.p_x - 1j * commutator(h, quads.p_x))) < 1e-10


def test_integrator_zero_time_is_identity():
    params = QubitModelParams(omega=1.0, cutoff=3)
    start = quadratures(params)
    result = integrate_quadratures(params, 0.0, 5)
    final = evolved_quadratures(params, result.coefficients[-1])
    for name in ("x", "p_x", "y", "p_y"):
        assert np.array_equal(getattr(final, name), getattr(start, name))
    assert result.probabilities[0] == pytest.approx(0.0, abs=1e-12)


def test_integrator_matches_closed_form_rotation():
    omega = 1.0
    params = QubitModelParams(omega=omega, cutoff=3)
    t_final = (math.pi / 4.0) / omega
    result = integrate_quadratures(params, t_final, 10_000)
    theta = omega * t_final / 2.0
    start = quadratures(params)
    exact_x = math.cos(theta) * start.x + math.sin(theta) * start.p_x
    exact_px = -math.sin(theta) * start.x + math.cos(theta) * start.p_x
    exact_y = math.cos(theta) * start.y - math.sin(theta) * start.p_y
    final = evolved_quadratures(params, result.coefficients[-1])
    assert np.max(np.abs(final.x - exact_x)) < 1e-6
    assert np.max(np.abs(final.p_x - exact_px)) < 1e-6
    assert np.max(np.abs(final.y - exact_y)) < 1e-6


def test_integrator_second_order_convergence():
    omega = 1.0
    params = QubitModelParams(omega=omega, cutoff=3)
    t_final = (math.pi / 4.0) / omega
    theta = omega * t_final / 2.0
    start = quadratures(params)
    exact_x = math.cos(theta) * start.x + math.sin(theta) * start.p_x

    def error(n_steps):
        res = integrate_quadratures(params, t_final, n_steps, record_stride=n_steps)
        final = evolved_quadratures(params, res.coefficients[-1])
        return float(np.max(np.abs(final.x - exact_x)))

    ratio = error(100) / error(200)
    assert 3.7 < ratio < 4.3


def test_integrator_preserves_canonical_commutator():
    params = QubitModelParams(omega=1.0, cutoff=3)
    start = quadratures(params)
    reference = commutator(start.x, start.p_x)
    result = integrate_quadratures(params, 2.0, 500)
    final = evolved_quadratures(params, result.coefficients[-1])
    assert np.max(np.abs(commutator(final.x, final.p_x) - reference)) < 1e-10


def test_integrator_probabilities_track_flip_law():
    omega = 1.0
    params = QubitModelParams(omega=omega, cutoff=3)
    result = integrate_quadratures(params, 2.0 * math.pi, 20_000)
    expected = np.sin(omega * result.times / 2.0) ** 2
    assert np.max(np.abs(result.probabilities - expected)) < 1e-6


def test_integrator_validation():
    params = QubitModelParams(omega=1.0, cutoff=2)
    with pytest.raises(ValueError):
        integrate_quadratures(params, 1.0, 0)
    with pytest.raises(ValueError):
        integrate_quadratures(params, -1.0, 10)
    with pytest.raises(ValueError):
        integrate_quadratures(params, 1.0, 10, record_stride=0)
    # |omega| h = 4: the leapfrog would grow without bound.
    with pytest.raises(ValueError, match="stability"):
        integrate_quadratures(params, 40.0, 10)


@pytest.mark.parametrize("count", [100.0, 2.0, "100"])
@pytest.mark.parametrize("name", ["n_steps", "record_stride"])
def test_integrator_counts_must_be_integers(name, count):
    # A float or string count is refused by name, not with a TypeError from range().
    counts = {"n_steps": 100, name: count}
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {count!r}$"):
        integrate_quadratures(QubitModelParams(omega=1.0, cutoff=2), 1.0, **counts)


@pytest.mark.parametrize("t_final", [39.99, 10.01])
def test_integrator_rejects_steps_beyond_accuracy_limit(t_final):
    # |omega| h = 3.999 is still leapfrog-stable, but its flip "probability" read 93.6.
    with pytest.raises(ValueError, match="stability"):
        integrate_quadratures(QubitModelParams(omega=1.0, cutoff=3), t_final, 10)


def test_integrator_estimate_stays_near_one_at_largest_step():
    # |omega| h = 1, the largest accepted step, over 20,000 steps.
    result = integrate_quadratures(QubitModelParams(omega=1.0, cutoff=3), 20_000.0, 20_000, record_stride=1)
    assert 0.0 <= result.probabilities.min() and result.probabilities.max() < 1.00105


def test_integrator_accepts_leapfrog_estimate_above_one():
    # |omega| h / 2 = 0.031: the second-order estimate peaks at 1 + 1.1e-8.
    result = integrate_quadratures(QubitModelParams(omega=1.0, cutoff=8), 2.0 * math.pi, 100)
    assert result.probabilities.max() > 1.0
    assert np.max(np.abs(result.probabilities - np.sin(result.times / 2.0) ** 2)) < 1e-3


@pytest.mark.parametrize("t_final", [math.nan, math.inf, 1e308])
def test_integrator_rejects_non_finite_trajectory(t_final):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            integrate_quadratures(QubitModelParams(omega=1.0, cutoff=3), t_final, 10)


def test_integrator_record_stride():
    params = QubitModelParams(omega=1.0, cutoff=2)
    result = integrate_quadratures(params, 1.0, 100, record_stride=25)
    assert np.allclose(result.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert result.coefficients.shape == (5, 2, 4)


def test_pauli_evolved_special_times():
    params = QubitModelParams(omega=1.0, cutoff=3)
    base = pauli_set(params)
    at_zero = pauli_evolved(params, 0.0)
    assert np.array_equal(at_zero.sigma_x, base.sigma_x)

    quarter = pauli_evolved(params, math.pi / 2.0)
    assert np.max(np.abs(quarter.sigma_x - base.sigma_y)) < 1e-12
    assert np.max(np.abs(quarter.sigma_y + base.sigma_x)) < 1e-12

    full = pauli_evolved(params, 2.0 * math.pi)
    assert np.max(np.abs(full.sigma_x - base.sigma_x)) < 1e-12


def test_pauli_evolved_matches_unitary_conjugation():
    params = QubitModelParams(omega=1.0, cutoff=3)
    base = pauli_set(params)
    h = hamiltonian(params)
    for wt in (0.1, 0.7, math.pi / 3.0, 2.5):
        u = scipy.linalg.expm(-1j * h * wt)
        evolved = pauli_evolved(params, wt)
        assert np.max(np.abs(u.conj().T @ base.sigma_x @ u - evolved.sigma_x)) < 1e-10
        assert np.max(np.abs(u.conj().T @ base.sigma_y @ u - evolved.sigma_y)) < 1e-10
        assert np.max(np.abs(u.conj().T @ base.sigma_z @ u - base.sigma_z)) < 1e-12


def test_sigma_z_commutes_with_hamiltonian_exactly():
    params = QubitModelParams(omega=1.3, cutoff=4)
    h = hamiltonian(params)
    sz = schwinger_map("Z", params)
    assert np.all(commutator(h, sz) == 0.0)


def test_pauli_operators_conserve_total_number():
    params = QubitModelParams(omega=1.0, cutoff=3)
    space = two_mode_space(params)
    n_total = np.kron(np.diag(np.arange(3.0)), np.eye(3)) + np.kron(
        np.eye(3), np.diag(np.arange(3.0))
    )
    for label in "XYZ":
        op = schwinger_map(label, params)
        assert np.max(np.abs(commutator(op.astype(complex), n_total.astype(complex)))) < 1e-13
    assert np.max(np.abs(commutator(hamiltonian(params), n_total.astype(complex)))) < 1e-13


def test_plus_minus_are_sigma_x_eigenstates():
    params = QubitModelParams(omega=1.0, cutoff=2)
    sx = schwinger_map("X", params)
    plus = plus_state(params).data
    minus = minus_state(params).data
    assert np.max(np.abs(sx @ plus - plus)) < 1e-14
    assert np.max(np.abs(sx @ minus + minus)) < 1e-14


def test_transition_probability_special_times():
    params = QubitModelParams(omega=1.0, cutoff=4)
    assert transition_probability(params, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert transition_probability(params, math.pi) == pytest.approx(1.0, abs=1e-12)
    assert transition_probability(params, math.pi / 2.0) == pytest.approx(0.5, abs=1e-12)


def test_transition_probability_matches_state_evolution_oracle():
    omega = 1.0
    params = QubitModelParams(omega=omega, cutoff=4)
    h = hamiltonian(params)
    plus = plus_state(params).data
    minus = minus_state(params).data
    for t in np.linspace(0.0, 2.0 * math.pi, 100):
        u = scipy.linalg.expm(-1j * h * t)
        oracle = abs(np.vdot(minus, u @ plus)) ** 2
        assert transition_probability(params, t) == pytest.approx(oracle, abs=1e-10)


def per_point_flip(params, t):
    """Flip probability from the evolved Sigma_X matrix, one time point per call."""
    plus = plus_state(params).data
    value = 0.5 * (1.0 - np.vdot(plus, pauli_evolved(params, t).sigma_x @ plus).real)
    return 0.0 if -1e-9 < value < 0.0 else float(value)


def test_transition_probability_array_equals_scalar_calls():
    for omega, cutoff in ((1.3, 16), (-0.7, 3), (2.5, 2)):
        params = QubitModelParams(omega=omega, cutoff=cutoff)
        times = np.linspace(0.0, 9.0, 37)
        curve = transition_probability(params, times)
        assert isinstance(curve, np.ndarray) and curve.shape == times.shape
        assert np.array_equal(curve, [transition_probability(params, t) for t in times])
        assert np.array_equal(curve, [per_point_flip(params, t) for t in times])
        grid = times[:36].reshape(4, 9)
        assert np.array_equal(transition_probability(params, grid), curve[:36].reshape(4, 9))
        assert isinstance(transition_probability(params, times[5]), float)


@pytest.mark.parametrize("omega, t", [(0.0, math.inf), (1.0, math.nan), (1e300, 1e10), (1e300, [0.0, 1e10])])
def test_transition_probability_rejects_a_non_finite_phase_unwarned(omega, t):
    # 0 * inf and an overflowing product used to warn before the error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"omega \* t must be finite"):
            transition_probability(QubitModelParams(omega=omega, cutoff=2), t)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.floats(-20.0, 20.0), st.lists(st.floats(0.0, 1e4), max_size=12), st.integers(2, 8))
def test_transition_probability_equals_per_point_reference(omega, times, cutoff):
    params = QubitModelParams(omega=omega, cutoff=cutoff)
    times = np.array([0.0, *times])
    reference = np.array([per_point_flip(params, t) for t in times])
    assert np.array_equal(transition_probability(params, times), reference)
    assert transition_probability(params, times[-1]) == reference[-1]
    grid = np.stack([times, times[::-1]])
    assert np.array_equal(transition_probability(params, grid), np.stack([reference, reference[::-1]]))


def test_transition_probability_works_in_bounded_blocks_of_times():
    # Sigma_X(t)|+> for all 40k times is read at cutoff 2: a 40,000 x 4 complex array, 2.6 MB.
    params = QubitModelParams(omega=1.3, cutoff=16)
    times = np.linspace(0.0, 50.0, 40_000)
    tracemalloc.start()
    try:
        curve = transition_probability(params, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    parts = [transition_probability(params, times[i : i + 9_999]) for i in range(0, times.size, 9_999)]
    assert np.array_equal(curve, np.concatenate(parts))


def test_flip_curve_is_the_same_at_every_cutoff():
    times = np.linspace(0.0, 2.0 * math.pi, 101)
    curves = {c: transition_probability(QubitModelParams(omega=1.3, cutoff=c), times) for c in (2, 8, 16)}
    tracemalloc.start()
    try:
        curves[60] = transition_probability(QubitModelParams(omega=1.3, cutoff=60), times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One dense cutoff-60 operator alone is 3600**2 complex entries, 207 MB.
    assert peak < 2**20
    for cutoff in (8, 16, 60):
        assert np.array_equal(curves[cutoff], curves[2])


def test_transition_probability_builds_basis_once_per_call(monkeypatch):
    calls = []
    original = qubit.schwinger_map

    def counting(label, params):
        calls.append(label)
        return original(label, params)

    monkeypatch.setattr(qubit, "schwinger_map", counting)
    params = QubitModelParams(omega=1.0, cutoff=6)
    curve = transition_probability(params, np.linspace(0.0, 2.0 * math.pi, 50))
    assert curve.shape == (50,)
    assert len(calls) <= 3


@pytest.mark.parametrize("cutoff", [2, 3, 8, 16, 32])
def test_schwinger_map_matches_dense_mode_products(cutoff):
    params = QubitModelParams(omega=1.0, cutoff=cutoff)
    space = two_mode_space(params)
    ax, ay = annihilation_op(space, 0), annihilation_op(space, 1)
    axd, ayd = dagger(ax), dagger(ay)
    for label, dense in (("X", axd @ ay + ayd @ ax), ("Y", 1j * (axd @ ay - ayd @ ax))):
        built = schwinger_map(label, params)
        assert np.array_equal(built, dense)
        for part in (np.real, np.imag):  # zeros carry the dense products' signs too
            assert np.array_equal(np.signbit(part(built)), np.signbit(part(dense)))


def test_schwinger_map_memory_is_a_few_operators():
    # The Kronecker product a* (x) a holds about two dim x dim complex arrays at its
    # peak, dim = cutoff**2; the dense product of the embedded mode operators holds four.
    cutoff = 24
    tracemalloc.start()
    try:
        schwinger_map("X", QubitModelParams(omega=1.0, cutoff=cutoff))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * cutoff**4 * 16


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_pauli_set_validation_rejects_non_finite(bad):
    base = pauli_set(QubitModelParams(omega=1.0, cutoff=3))
    sigma_z = base.sigma_z.copy()
    sigma_z[4, 4] = bad
    with pytest.raises(ValueError, match="sigma_z entries must be finite"):
        SecondQuantizedPauli(sigma_x=base.sigma_x, sigma_y=base.sigma_y, sigma_z=sigma_z)


def test_pauli_set_validation_rejects_non_square_operator():
    base = pauli_set(QubitModelParams(omega=1.0, cutoff=2))
    with pytest.raises(ValueError, match="sigma_x must be a square matrix"):
        SecondQuantizedPauli(sigma_x=base.sigma_x[:, :3], sigma_y=base.sigma_y, sigma_z=base.sigma_z)


def test_pauli_set_validation_rejects_non_product_dimension():
    eye = np.eye(3, dtype=complex)
    with pytest.raises(ValueError, match="two-mode product space"):
        SecondQuantizedPauli(sigma_x=eye, sigma_y=eye, sigma_z=eye)


def test_pauli_set_validation_rejects_mixed_dimensions():
    c2, c3 = pauli_set(QubitModelParams(omega=1.0, cutoff=2)), pauli_set(QubitModelParams(omega=1.0, cutoff=3))
    with pytest.raises(ValueError, match="all Pauli operators must share one dimension"):
        SecondQuantizedPauli(sigma_x=c2.sigma_x, sigma_y=c3.sigma_y, sigma_z=c2.sigma_z)


def test_quadrature_set_validation():
    eye = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        QuadratureSet(x=eye, p_x=np.eye(3, dtype=complex), y=eye, p_y=eye)
    with pytest.raises(ValueError):
        QuadratureSet(x=eye * np.nan, p_x=eye, y=eye, p_y=eye)
    quads = QuadratureSet(x=eye, p_x=eye, y=eye, p_y=eye)
    shifted = quads.shifted("x", 0.5)
    assert np.array_equal(shifted.x, 1.5 * eye)
    with pytest.raises(ValueError):
        quads.shifted("z", 0.1)
