import math
import tracemalloc

import numpy as np
import pytest

from qfringe import (
    FockSpace,
    QuantumState,
    annihilation_op,
    anticommutator,
    coherent_state,
    commutator,
    creation_op,
    dagger,
    expectation,
    fermionic_mode_ops,
    fock_state,
    number_op,
    tensor_product,
    thermal_state,
)


def brute_force_annihilation(cutoff):
    """Independent construction: matrix element sqrt(n) at (n-1, n)."""
    op = np.zeros((cutoff, cutoff), dtype=complex)
    for n in range(1, cutoff):
        op[n - 1, n] = math.sqrt(n)
    return op


def test_space_validation():
    with pytest.raises(ValueError):
        FockSpace(1)
    with pytest.raises(ValueError):
        FockSpace(4, 0)
    assert FockSpace(4, 3).dim == 64


@pytest.mark.parametrize("cutoff, mode_count", [(2.5, 1), (4.0, 1), (4, 1.5), ("4", 1)])
def test_space_rejects_non_integral_sizes(cutoff, mode_count):
    # A float size would fail later, deep inside, with a TypeError.
    with pytest.raises(ValueError, match="must be an integer"):
        FockSpace(cutoff, mode_count)


def test_space_accepts_numpy_integers():
    space = FockSpace(np.int64(4), np.int32(2))
    assert space.dim == 16
    assert fock_state(space, (1, 3)).data[space.index((1, 3))] == 1.0


def test_ladder_normalization_entries():
    a2 = annihilation_op(FockSpace(2))
    assert a2[0, 1] == 1.0
    one = fock_state(FockSpace(2), 1)
    assert np.array_equal(a2 @ one.data, fock_state(FockSpace(2), 0).data)

    a4 = annihilation_op(FockSpace(4))
    vacuum = fock_state(FockSpace(4), 0)
    assert np.all(a4 @ vacuum.data == 0.0)
    assert a4[2, 3] == math.sqrt(3)


def test_number_eigenstate_expectation():
    space = FockSpace(6)
    for n in range(6):
        val = expectation(fock_state(space, n), number_op(space))
        assert val == pytest.approx(n, abs=1e-12)


def test_commutator_cutoff_corner():
    space = FockSpace(4)
    a = annihilation_op(space)
    brute = brute_force_annihilation(4)
    direct = brute @ dagger(brute) - dagger(brute) @ brute
    assert np.max(np.abs(commutator(a, creation_op(space)) - direct)) == 0.0
    expected = np.diag([1.0, 1.0, 1.0, -3.0])
    assert np.max(np.abs(direct - expected)) < 1e-12


def test_commutator_corner_scales_with_cutoff():
    for cutoff in (2, 5, 16):
        space = FockSpace(cutoff)
        comm = commutator(annihilation_op(space), creation_op(space))
        expected = np.eye(cutoff, dtype=complex)
        expected[-1, -1] = 1.0 - cutoff
        assert np.max(np.abs(comm - expected)) < 1e-12


def test_number_operator_spectrum_exact():
    space = FockSpace(7)
    n = number_op(space)
    assert np.array_equal(np.diag(n).real, np.arange(7.0))
    assert np.max(np.abs(n - np.diag(np.diag(n)))) == 0.0
    a = annihilation_op(space)
    assert np.max(np.abs(dagger(a) @ a - n)) < 1e-14


def test_distinct_modes_commute_exactly():
    space = FockSpace(4, 2)
    a1 = annihilation_op(space, 0)
    a2 = annihilation_op(space, 1)
    assert np.max(np.abs(commutator(a1, dagger(a2)))) == 0.0
    assert np.max(np.abs(commutator(a1, a2))) == 0.0


def test_tensor_product_matches_embedding():
    space = FockSpace(3, 2)
    single = brute_force_annihilation(3)
    eye = np.eye(3, dtype=complex)
    assert np.array_equal(annihilation_op(space, 0), tensor_product(single, eye))
    assert np.array_equal(annihilation_op(space, 1), tensor_product(eye, single))
    with pytest.raises(ValueError):
        annihilation_op(space, 2)


@pytest.mark.parametrize("mode_count", [1, 2, 3])
def test_embedding_is_the_kronecker_chain_from_a_scalar(mode_count):
    # Mode operators are built through tensor_product; the chain kron(eye(1), ...) they
    # replace is exact, so every entry, and the sign of every zero, must match.
    for cutoff in range(2, 17 if mode_count < 3 else 11):
        space = FockSpace(cutoff, mode_count)
        eye = np.eye(cutoff, dtype=complex)
        singles = (brute_force_annihilation(cutoff), np.diag(np.arange(cutoff, dtype=float)).astype(complex))
        for mode in range(mode_count):
            for built, single in zip((annihilation_op(space, mode), number_op(space, mode)), singles):
                chain = np.eye(1, dtype=complex)
                for j in range(mode_count):
                    chain = np.kron(chain, single if j == mode else eye)
                assert np.array_equal(built, chain)
                for part in (np.real, np.imag):
                    assert np.array_equal(np.signbit(part(built)), np.signbit(part(chain)))


def test_dagger_involution_and_dim_checks():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert np.array_equal(dagger(dagger(m)), m)
    with pytest.raises(ValueError):
        commutator(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        anticommutator(np.eye(2), np.eye(3))


def test_expectation_real_for_hermitian():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        herm = (m + m.conj().T) / 2
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        state = QuantumState("pure", v / np.linalg.norm(v))
        assert abs(expectation(state, herm).imag) < 1e-12


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError, match="state dimension 4 does not match operator 5"):
        expectation(fock_state(FockSpace(4), 0), np.eye(5))


@pytest.mark.parametrize(
    "state", [fock_state(FockSpace(3), 1), thermal_state(FockSpace(3), 0.5)], ids=["pure", "mixed"]
)
@pytest.mark.parametrize(
    "op, message",
    [
        (np.ones((3, 2)), "operator must be a square matrix"),
        (np.ones(3), "operator must be a square matrix"),
        (np.full((3, 3), np.nan), "operator entries must be finite"),
    ],
    ids=["non_square", "one_d", "nan"],
)
def test_expectation_refuses_a_malformed_operator(state, op, message):
    with pytest.raises(ValueError, match=message):
        expectation(state, op)


def test_mixed_expectation_reads_the_trace_without_a_matrix_product():
    # Thermal states: bit for bit the full product's trace, which verify's pinned bytes were made with.
    for cutoff in [*range(2, 70), 128]:
        space = FockSpace(cutoff)
        n = number_op(space)
        for nbar in (0.0, 0.1, 0.7, 1.0, 3.0, 12.5):
            state = thermal_state(space, nbar)
            assert expectation(state, n) == complex(np.trace(state.data @ n)), (cutoff, nbar)
    # Random non-diagonal states and operators: the same sum in another order.
    rng = np.random.default_rng(29)
    for dim in (2, 3, 7, 16, 40):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = m @ m.conj().T
        state = QuantumState("mixed", rho / np.trace(rho).real)
        op = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        want = complex(np.trace(state.data @ op))
        assert abs(expectation(state, op) - want) <= 1e-12 * abs(want), dim


def test_expectation_takes_a_non_hermitian_operator():
    space = FockSpace(30)
    assert abs(expectation(coherent_state(space, 0.5 + 0.25j), annihilation_op(space)) - (0.5 + 0.25j)) < 1e-12


def test_state_validation():
    with pytest.raises(ValueError):
        QuantumState("pure", np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        QuantumState("mixed", np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        QuantumState("mixed", np.diag([0.7, 0.7]).astype(complex))
    rho = QuantumState("mixed", np.diag([0.25, 0.75]).astype(complex))
    assert rho.dim == 2


def test_density_matrix_positivity_checked_on_and_off_the_diagonal():
    # Diagonal: the eigenvalues are the diagonal, read against the same -1e-10 bound.
    with pytest.raises(ValueError, match="positive semidefinite"):
        QuantumState("mixed", np.diag([1.0 + 1e-9, -1e-9]).astype(complex))
    # Not diagonal: eigenvalues 1.1 and -0.1 come from the Hermitian solver.
    with pytest.raises(ValueError, match="positive semidefinite"):
        QuantumState("mixed", np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex))


def traced_peak(build):
    """Peak bytes that tracemalloc sees while `build()` runs (or raises)."""
    tracemalloc.start()
    try:
        try:
            build()
        except ValueError:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_diagonal_density_matrix_hermiticity_read_on_the_diagonal():
    # On a diagonal matrix, rho - rho^H is exactly 2i Im(d) on the diagonal, so
    # the check reads the diagonal: the state holds the rho it is given, and
    # builds no dense array of its own.
    rho = np.diag(np.full(400, 1 / 400)).astype(complex)
    rho[3, 3] += 1e-9j
    with pytest.raises(ValueError, match="Hermitian"):
        QuantumState("mixed", rho)
    assert traced_peak(lambda: QuantumState("mixed", rho)) < 1.5 * rho.nbytes
    assert traced_peak(lambda: thermal_state(FockSpace(400), 0.7)) < 2.5 * rho.nbytes


def test_thermal_state_holds_one_dense_rho():
    # The state holds a view of the rho that thermal_state builds, not a copy of it.
    rho_bytes = np.dtype(complex).itemsize * 1000**2
    assert traced_peak(lambda: thermal_state(FockSpace(1000), 1.0)) <= 1.2 * rho_bytes


def test_thermal_state_skips_the_eigensolver(monkeypatch):
    def eigvalsh(_):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    assert thermal_state(FockSpace(64), 0.7).dim == 64
    assert thermal_state(FockSpace(8), 0.0).dim == 8
    with pytest.raises(AssertionError, match="eigvalsh called"):
        QuantumState("mixed", np.full((2, 2), 0.5, dtype=complex))


def test_fock_state_multimode_and_errors():
    space = FockSpace(3, 2)
    state = fock_state(space, (1, 2))
    assert state.data[space.index((1, 2))] == 1.0
    with pytest.raises(ValueError):
        fock_state(space, (3, 0))
    with pytest.raises(ValueError):
        fock_state(FockSpace(4), 4)


@pytest.mark.parametrize("occupations", [(1.7,), 1.5, (np.float64(2.0),), ("1",)])
def test_fock_state_rejects_non_integral_occupations(occupations):
    # int(1.7) used to give |1> silently, and a bare float failed on len().
    with pytest.raises(ValueError, match="occupations must be an integer"):
        fock_state(FockSpace(4), occupations)


def test_fock_state_accepts_numpy_integers():
    expected = fock_state(FockSpace(4), 2).data
    for occupations in (np.int64(2), (np.int32(2),), np.array(2), np.array([2])):
        assert np.array_equal(fock_state(FockSpace(4), occupations).data, expected)


def test_coherent_vacuum_limit():
    state = coherent_state(FockSpace(8), 0.0)
    assert np.array_equal(state.data, fock_state(FockSpace(8), 0).data)
    assert state.lost_weight == 0.0


def test_coherent_occupation_against_partial_poisson():
    # Independent oracle: truncated Poisson moments from exact factorials.
    cutoff = 30
    alpha = 1.0
    weights = [abs(alpha) ** (2 * n) / math.factorial(n) for n in range(cutoff)]
    norm = sum(weights)
    oracle_mean = sum(n * w for n, w in zip(range(cutoff), weights)) / norm

    space = FockSpace(cutoff)
    state = coherent_state(space, alpha)
    mean = expectation(state, number_op(space)).real
    assert mean == pytest.approx(oracle_mean, abs=1e-13)
    assert mean == pytest.approx(1.0, abs=1e-10)


def test_coherent_truncation_flag():
    heavy = coherent_state(FockSpace(8), 2.5)
    assert heavy.truncation_warning
    light = coherent_state(FockSpace(30), 1.0)
    assert not light.truncation_warning


@pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(1.0, math.inf), complex(math.nan, 1.0)])
def test_coherent_state_refuses_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="^alpha must be finite"):
        coherent_state(FockSpace(8), alpha)


def test_thermal_state_refuses_non_finite_nbar():
    for nbar in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^nbar must be finite"):
            thermal_state(FockSpace(8), nbar)
    # A negative one, -inf included, keeps its own message.
    with pytest.raises(ValueError, match="^mean occupation must be nonnegative"):
        thermal_state(FockSpace(8), -math.inf)


def test_thermal_zero_temperature():
    state = thermal_state(FockSpace(5), 0.0)
    expected = np.zeros((5, 5), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(state.data, expected)


def test_thermal_occupation_against_partial_geometric():
    cutoff = 16
    nbar = 0.5
    ratio = nbar / (1.0 + nbar)
    weights = [ratio**n / (1.0 + nbar) for n in range(cutoff)]
    norm = sum(weights)
    oracle_mean = sum(n * w for n, w in zip(range(cutoff), weights)) / norm

    space = FockSpace(cutoff)
    state = thermal_state(space, nbar)
    assert state.kind == "mixed"
    mean = expectation(state, number_op(space)).real
    assert mean == pytest.approx(oracle_mean, abs=1e-13)


def test_fermionic_single_mode_car():
    ops, space = fermionic_mode_ops(1)
    assert space.dim == 2
    c = ops[0]
    assert np.array_equal(anticommutator(c, dagger(c)), np.eye(2, dtype=complex))
    assert np.all(anticommutator(c, c) == 0.0)


def test_fermionic_two_mode_car_exact():
    ops, _ = fermionic_mode_ops(2)
    c1, c2 = ops
    eye = np.eye(4, dtype=complex)
    assert np.array_equal(anticommutator(c1, dagger(c1)), eye)
    assert np.array_equal(anticommutator(c2, dagger(c2)), eye)
    assert np.all(anticommutator(c1, c2) == 0.0)
    assert np.all(anticommutator(c1, dagger(c2)) == 0.0)


def test_fermionic_commutator_nonzero():
    # Signed tensor products: [c1, c2] = -2 (Z a) kron a = -2 a kron a,
    # worked out from the 2x2 factors below.
    ops, _ = fermionic_mode_ops(2)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    expected = -2.0 * np.kron(lower, lower)
    comm = commutator(ops[0], ops[1])
    assert np.max(np.abs(comm)) > 0.0
    assert np.array_equal(comm, expected)


def test_fermionic_three_modes_mixed_pairs():
    ops, space = fermionic_mode_ops(3)
    assert space.dim == 8
    eye = np.eye(8, dtype=complex)
    for i in range(3):
        assert np.array_equal(anticommutator(ops[i], dagger(ops[i])), eye)
        for j in range(i + 1, 3):
            assert np.all(anticommutator(ops[i], ops[j]) == 0.0)
            assert np.all(anticommutator(ops[i], dagger(ops[j])) == 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fermionic_modes_are_parity_signed_kronecker_products(n):
    # The Jordan-Wigner string written out factor by factor, signed zeros included.
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    parity = np.diag([1.0, -1.0]).astype(complex)
    eye2 = np.eye(2, dtype=complex)
    ops, space = fermionic_mode_ops(n)
    assert space == FockSpace(cutoff=2, mode_count=n)
    for j, op in enumerate(ops):
        want = tensor_product(*([parity] * j + [lower] + [eye2] * (n - j - 1)))
        assert np.array_equal(op, want)
        assert np.array_equal(np.signbit(op.real), np.signbit(want.real))
        assert np.array_equal(np.signbit(op.imag), np.signbit(want.imag))


def test_fermionic_mode_count_checked_by_fock_space():
    with pytest.raises(ValueError, match="mode_count must be at least 1, got 0"):
        fermionic_mode_ops(0)
    with pytest.raises(ValueError, match="mode_count must be an integer"):
        fermionic_mode_ops(0.5)
