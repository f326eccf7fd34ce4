import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qfringe
from qfringe import (
    QuantumState,
    QubitModelParams,
    SlitGeometry,
    amplitude_variation_check,
    fermionic_fringe,
    hamiltonian,
    minus_state,
    picture_equivalence_check,
    plus_state,
    run_verification_suite,
    schrodinger_evolve,
    single_photon_fringe,
    slit_mode_oracle,
    transition_probability,
    transition_probability_oracle,
    unitary_evolution,
    wavenumber,
)
from qfringe import oracle
from qfringe.oracle import _expm, heisenberg_conjugate, random_hermitian, random_pure


def canonical_geometry():
    return SlitGeometry(
        source=(0.0, -1.0),
        slits=(-5e-6, 5e-6),
        screen_z=1.0,
        k=wavenumber(500e-9),
    )


def test_evolution_with_zero_hamiltonian_is_identity():
    state = QuantumState("pure", np.array([0.6, 0.8], dtype=complex))
    evolved = schrodinger_evolve(state, np.zeros((2, 2)), 3.7)
    assert np.max(np.abs(evolved.data - state.data)) < 1e-15


def test_two_level_half_period_flip():
    omega = 1.0
    h = (omega / 2.0) * np.diag([1.0, -1.0]).astype(complex)
    plus = QuantumState("pure", np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0))
    minus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
    evolved = schrodinger_evolve(plus, h, math.pi / omega)
    overlap = abs(np.vdot(minus, evolved.data)) ** 2
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_evolution_preserves_norm_and_unitarity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        h = random_hermitian(rng, 6)
        t = float(rng.uniform(-3.0, 3.0))
        u = unitary_evolution(h, t)
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-12
        evolved = schrodinger_evolve(random_pure(rng, 6), h, t)
        assert abs(np.linalg.norm(evolved.data) - 1.0) < 1e-12


def test_evolution_rejects_non_hermitian():
    with pytest.raises(ValueError):
        unitary_evolution(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_evolution_rejects_non_finite_hamiltonian(bad):
    # NaN compares false against the Hermitian tolerance, so only an explicit
    # finiteness check stops it from becoming an all-NaN propagator.
    h = np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="finite"):
        unitary_evolution(h, 1.0)


def test_mixed_state_evolution_preserves_trace():
    rng = np.random.default_rng(9)
    h = random_hermitian(rng, 4)
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    evolved = schrodinger_evolve(QuantumState("mixed", rho), h, 1.2)
    assert abs(np.trace(evolved.data) - 1.0) < 1e-12


def test_picture_equivalence_trivial_cases():
    rng = np.random.default_rng(13)
    h = random_hermitian(rng, 4)
    state = random_pure(rng, 4)
    op = random_hermitian(rng, 4)
    assert picture_equivalence_check(op, state, h, 0.0) < 1e-14
    assert picture_equivalence_check(h, state, h, 2.1) < 1e-12


def test_picture_equivalence_random_operators():
    rng = np.random.default_rng(17)
    for _ in range(5):
        h = random_hermitian(rng, 4)
        op = random_hermitian(rng, 4)
        state = random_pure(rng, 4)
        assert picture_equivalence_check(op, state, h, 1.3) < 1e-10


def test_heisenberg_conjugate_matches_direct_product():
    rng = np.random.default_rng(21)
    h = random_hermitian(rng, 5)
    op = random_hermitian(rng, 5)
    u = unitary_evolution(h, 0.8)
    assert np.max(np.abs(heisenberg_conjugate(op, h, 0.8) - u.conj().T @ op @ u)) < 1e-13


def _scipy_loaded_after(code):
    """Run `code` in a fresh interpreter on this tree; report whether scipy got imported."""
    src = str(Path(qfringe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code += "; import sys, qfringe; print(qfringe.__file__); print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded_from, scipy_loaded = result.stdout.split()
    assert Path(loaded_from).resolve() == Path(qfringe.__file__).resolve()
    return scipy_loaded == "True"


def test_import_leaves_scipy_unloaded():
    # qfringe needs numpy alone, so fringe and qubit runs do not pay for scipy at start-up.
    assert not _scipy_loaded_after("import qfringe")


def test_verification_suite_leaves_scipy_unloaded():
    # picture_equivalence_check uses the numpy Taylor exponential, so a whole
    # verify run needs no scipy either.
    assert not _scipy_loaded_after("from qfringe import oracle; oracle.run_verification_suite()")


def test_taylor_expm_zero_and_diagonal():
    assert np.array_equal(_expm(np.zeros((3, 3), dtype=complex)), np.eye(3))
    diag = np.array([0.3, -2.0, 40.0 + 5j])
    assert np.max(np.abs(_expm(np.diag(diag)) - np.diag(np.exp(diag)))) <= 1e-14 * np.exp(40.0)


def test_slit_mode_oracle_symmetric_point():
    assert slit_mode_oracle(canonical_geometry(), 0.0) == pytest.approx(1.0, abs=1e-14)


def test_slit_mode_oracle_half_wave_point():
    geom = canonical_geometry()
    k = geom.k

    def phase_mismatch(x):
        r1 = math.sqrt(1.0 + (x + 5e-6) ** 2)
        r2 = math.sqrt(1.0 + (x - 5e-6) ** 2)
        return k * (r1 - r2) - math.pi

    from scipy.optimize import brentq

    x_dark = brentq(phase_mismatch, 0.02, 0.03, xtol=1e-15)
    assert slit_mode_oracle(geom, x_dark) < 1e-10


def test_slit_mode_oracle_matches_heisenberg_scan():
    geom = canonical_geometry()
    xs = np.linspace(-0.025, 0.025, 101)
    oracle_vals = slit_mode_oracle(geom, xs)
    heisenberg = single_photon_fringe(geom, xs)
    assert np.max(np.abs(oracle_vals - heisenberg)) < 1e-10


def test_slit_mode_oracle_legs_round_as_far_field_law():
    # At these two points of a 20,001-point scan, x * x and the C library's
    # pow(x, 2) round (x - a)^2 differently enough to move a 1.7 m leg by one
    # ulp, which shifts the fringe by about 1.5e-9.
    geom = SlitGeometry(
        source=(-2.6092737879558663e-05, -0.503734242052076),
        slits=(-3.337267487495878e-06, 2.9986060786656923e-06),
        screen_z=1.7450715947026183,
        k=wavenumber(4.4633832431843195e-07),
    )
    xs = np.linspace(-0.2313511265863337, 0.2694448922999419, 20001)[[2856, 15085]]
    far_field = single_photon_fringe(geom, xs)
    assert np.max(np.abs(slit_mode_oracle(geom, xs) - far_field)) < 1e-10


def test_shared_excitation_models_survive_a_tiny_leg():
    # At screen_z = 1e-160 the leg from a slit to the point above it is 1e-160 m,
    # and 1 / r squared overflows; measuring the legs in units of the power of
    # two at r_min keeps the detector mode finite. At x = 5e-6 it is slit 2's mode alone (occupation
    # 0.5); at 2.5e-6 the legs are in phase with weights 1/3 : 1 (occupation 0.8).
    geom = SlitGeometry(
        source=(0.0, -1.0), slits=(-5e-6, 5e-6), screen_z=1e-160, k=wavenumber(500e-9)
    )
    xs = np.array([0.0, 2.5e-6, 5e-6])
    with np.errstate(over="raise", invalid="raise"):
        for model in (slit_mode_oracle, fermionic_fringe):
            assert np.max(np.abs(model(geom, xs) - [1.0, 0.8, 0.5])) <= 1e-12


def test_slit_mode_oracle_matches_fermionic_scan():
    geom = canonical_geometry()
    xs = np.linspace(-0.025, 0.025, 101)
    assert np.max(np.abs(slit_mode_oracle(geom, xs) - fermionic_fringe(geom, xs))) < 1e-10


def test_slit_mode_oracle_requires_two_slits():
    geom = SlitGeometry(source=(0.0, -1.0), slits=(0.0,), screen_z=1.0, k=1.0)
    with pytest.raises(ValueError):
        slit_mode_oracle(geom, 0.0)


def test_transition_probability_oracle_closed_form():
    params = QubitModelParams(omega=1.3, cutoff=4)
    for t in (0.0, 0.4, 1.7, math.pi):
        expected = math.sin(params.omega * t / 2.0) ** 2
        assert transition_probability_oracle(params, t) == pytest.approx(expected, abs=1e-12)


def test_transition_probability_oracle_array_matches_scalar_calls():
    params = QubitModelParams(omega=1.3, cutoff=4)
    times = np.linspace(0.0, 12.0, 36)
    curve = transition_probability_oracle(params, times)
    scalar = np.array([transition_probability_oracle(params, t) for t in times])
    # The per-time state evolution the oracle replaced: H and eigh rebuilt at every t.
    h = hamiltonian(params)
    minus = minus_state(params).data
    evolved = [schrodinger_evolve(plus_state(params), h, t).data for t in times]
    per_time = np.array([abs(np.vdot(minus, psi)) ** 2 for psi in evolved])
    assert np.max(np.abs(curve - scalar)) <= 1e-12
    assert np.max(np.abs(curve - per_time)) <= 1e-12
    assert np.max(np.abs(curve - np.sin(params.omega * times / 2.0) ** 2)) <= 1e-12
    assert isinstance(transition_probability_oracle(params, 0.3), float)
    grid = transition_probability_oracle(params, times.reshape(6, 6))
    assert np.array_equal(grid, curve.reshape(6, 6))


def test_transition_pipelines_agree_on_grid():
    params = QubitModelParams(omega=1.0, cutoff=4)
    for t in np.linspace(0.0, 2.0 * math.pi, 100):
        assert transition_probability(params, t) == pytest.approx(
            transition_probability_oracle(params, t), abs=1e-10
        )


def test_amplitude_variation_zero_hamiltonian():
    ket, bra = np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)
    residual = amplitude_variation_check(ket, bra, np.zeros((2, 2)), 0.0, 1.0, 1e-3)
    assert residual == 0.0


def test_amplitude_variation_residual_bound():
    params = QubitModelParams(omega=1.0, cutoff=3)
    plus, minus = plus_state(params).data, minus_state(params).data
    residual = amplitude_variation_check(plus, minus, hamiltonian(params), 0.0, 0.7, 1e-4)
    assert residual < 1e-8


def test_amplitude_variation_quadratic_scaling():
    params = QubitModelParams(omega=1.0, cutoff=3)
    plus, minus = plus_state(params).data, minus_state(params).data
    h = hamiltonian(params)
    residuals = [
        amplitude_variation_check(plus, minus, h, 0.0, 0.7, eps) for eps in (1e-3, 5e-4, 2.5e-4)
    ]
    assert abs(residuals[0] / residuals[1] - 4.0) < 0.3
    assert abs(residuals[1] / residuals[2] - 4.0) < 0.3


def test_amplitude_variation_eps_validation():
    ket = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError):
        amplitude_variation_check(ket, ket, np.zeros((2, 2)), 0.0, 1.0, 0.0)


def test_verification_suite_all_pass():
    checks = run_verification_suite()
    names = [c.check for c in checks]
    assert len(names) == len(set(names))
    assert len(checks) == len(oracle.CHECKS)
    for check in checks:
        assert check.passed, f"{check.check}: {check.max_deviation} > {check.tolerance}"
    differential = [
        "fringe_heisenberg_vs_slit_modes",
        "fermionic_vs_bosonic_fringe",
        "transition_probability_vs_schrodinger",
        "pauli_rotation_vs_conjugation",
    ]
    for name in differential:
        assert name in names
        assert next(c for c in checks if c.check == name).tolerance <= 1e-10


# The rows of the verify report that VERIFY_OUTPUT_DIGESTS in test_config_cli.py pins.
PINNED_REPORT_CHECKS = [
    "oracle_unitarity",
    "picture_equivalence",
    "fringe_heisenberg_vs_slit_modes",
    "fermionic_vs_bosonic_fringe",
    "transfer_reciprocity",
    "transition_probability_vs_schrodinger",
    "pauli_rotation_vs_conjugation",
    "sigma_z_conservation",
    "hamilton_derivative_vs_commutator",
    "leapfrog_vs_exact_rotation",
    "leapfrog_convergence_order",
    "amplitude_variation_residual",
    "amplitude_variation_quadratic_scaling",
    "coherent_occupation",
    "canonical_commutator_cutoff_corner",
    "distinct_mode_commutation",
    "fermionic_car_exactness",
    "thermal_occupation",
]


def test_check_registry_is_the_pinned_report_in_order():
    assert [name for name, _, _ in oracle.CHECKS] == PINNED_REPORT_CHECKS


@pytest.mark.parametrize(
    "name, tolerance, check", oracle.CHECKS, ids=[name for name, _, _ in oracle.CHECKS]
)
def test_registered_check_passes_alone(name, tolerance, check):
    deviation = float(check(np.random.default_rng(oracle._SUITE_SEED)))
    assert deviation <= tolerance, f"{name}: {deviation} > {tolerance}"


def _nan_at_call(fn, call):
    """`fn`, except that its `call`-th call (counting from 1) returns its result times NaN."""
    calls = itertools.count(1)

    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        return result * math.nan if next(calls) == call else result

    return wrapped


# (check, the oracle function whose result turns NaN, at which call). The NaN is never
# the first deviation folded, which even a fold that drops NaN keeps.
NAN_DEVIATIONS = [
    ("picture_equivalence", "picture_equivalence_check", 2),
    ("pauli_rotation_vs_conjugation", "heisenberg_conjugate", 2),
    ("sigma_z_conservation", "heisenberg_conjugate", 2),
    ("amplitude_variation_quadratic_scaling", "amplitude_variation_check", 3),
    ("coherent_occupation", "expectation", 2),
    ("fermionic_car_exactness", "anticommutator", 2),
]


@pytest.mark.parametrize(
    "name, function, call", NAN_DEVIATIONS, ids=[case[0] for case in NAN_DEVIATIONS]
)
def test_check_fails_on_a_later_nan_deviation(monkeypatch, name, function, call):
    monkeypatch.setattr(oracle, function, _nan_at_call(getattr(oracle, function), call))
    tolerance, check = next((tol, fn) for row, tol, fn in oracle.CHECKS if row == name)
    result = oracle._check(name, check(np.random.default_rng(oracle._SUITE_SEED)), tolerance)
    assert math.isnan(result.max_deviation)
    assert result.passed is False
