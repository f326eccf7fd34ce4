"""Independent Schrodinger-picture computations and the verification suite.

Every result produced by the propagation and qubit pipelines has a
counterpart here, computed by evolving states instead of operators. The
state propagators come from the eigendecomposition of the Hermitian
Hamiltonian, which is exact at these sizes and leaves no convergence knob
on the oracle side; the operator side of the picture-equivalence check uses
a scaling-and-squaring Taylor exponential instead, so the two sides share no
code path. Only numpy is needed. The registered checks are deterministic, so
repeated verification runs produce identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffraction, qubit
from .fock import (
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
)

_SUITE_SEED = 20260809


def _require_hermitian(h: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("Hamiltonian must be a square matrix")
    if not np.isfinite(h).all():
        raise ValueError("Hamiltonian entries must be finite")
    if np.max(np.abs(h - h.conj().T)) > tol:
        raise ValueError("Hamiltonian must be Hermitian")
    return h


def unitary_evolution(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) via eigendecomposition of the Hermitian H."""
    h = _require_hermitian(h)
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * float(t))) @ evecs.conj().T


def schrodinger_evolve(state, h: np.ndarray, t: float):
    """Evolve a state vector or density matrix by exp(-i H t)."""
    u = unitary_evolution(h, t)
    if isinstance(state, QuantumState):
        if state.kind == "pure":
            return QuantumState("pure", u @ state.data, lost_weight=state.lost_weight)
        return QuantumState(
            "mixed", u @ state.data @ u.conj().T, lost_weight=state.lost_weight
        )
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        return u @ arr
    return u @ arr @ u.conj().T


def heisenberg_conjugate(op: np.ndarray, h: np.ndarray, t: float) -> np.ndarray:
    u = unitary_evolution(h, t)
    return u.conj().T @ np.asarray(op, dtype=complex) @ u


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring a Taylor sum (Moler and Van Loan, SIAM Rev. 45, 2003).

    a is scaled by 2^-s until its 1-norm is at most 0.5, where 18 Taylor terms
    leave a truncation error below 1e-22; the sum is then squared s times.
    """
    norm = float(np.max(np.sum(np.abs(a), axis=0)))
    s = math.frexp(norm)[1] + 1 if norm > 0.5 else 0
    a = a * 2.0**-s
    term = np.eye(a.shape[0], dtype=complex)
    result = term.copy()
    for j in range(1, 19):
        term = term @ a / j
        result += term
    for _ in range(s):
        result = result @ result
    return result


def picture_equivalence_check(op: np.ndarray, state, h: np.ndarray, t: float) -> float:
    """|<psi(t)|A|psi(t)> - <psi(0)|U* A U|psi(0)>| with both sides independent.

    The state side uses the eigendecomposition propagator; the operator side
    uses the Taylor scaling-and-squaring exponential `_expm`, so agreement is
    a genuine cross-check rather than a reuse of one code path.
    """
    op = np.asarray(op, dtype=complex)
    evolved = schrodinger_evolve(state, h, t)
    lhs = expectation(evolved, op)
    u = _expm(-1j * float(t) * _require_hermitian(h))
    rhs = expectation(state, u.conj().T @ op @ u)
    return abs(lhs - rhs)


def _shared_excitation_fringe(geom: diffraction.SlitGeometry, x_detector, modes):
    """Expected detector occupation of two slit modes that share one excitation.

    The slit modes hold (|0,1> + |1,0>)/sqrt(2), in the row-major basis |0,0>, |0,1>,
    |1,0>, |1,1>; the detector mode at each point is the normalized combination of
    the two slit operators in `modes`, weighted by the slit-to-detector legs, one
    (4, 4) operator per point. The slits share the excitation in phase (no source
    legs), as in the far-field fringe law. Returns the expected detector occupation.
    """
    if geom.slit_count != 2:
        raise ValueError(f"the slit-mode model requires exactly 2 slits, got {geom.slit_count}")
    psi = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    xs = np.atleast_1d(np.asarray(x_detector, dtype=float))
    # float_power squares with C pow, like path_lengths: legs round as the far-field law's.
    r = np.sqrt(np.float_power(xs[:, None] - np.array(geom.slits)[:, 0], 2) + geom.screen_z**2)
    zero = np.any(r == 0.0, axis=1)
    if np.any(zero):
        raise diffraction.DegenerateGeometryError(
            f"zero-length propagation leg at x_detector = {xs[zero][0]}"
        )
    # The detector mode is defined up to a global phase and scale: dropping the phase of
    # the shortest leg keeps exp() arguments small, and measuring the legs in units of
    # the power of two at r_min keeps the norm from overflowing when a leg is tiny. A
    # power-of-two scale is exact, so the normalized weights round as unscaled ones do.
    r_min = r.min(axis=1, keepdims=True)
    weights = np.exp(1j * geom.k * (r - r_min)) / np.ldexp(r, -np.frexp(r_min)[1])
    weights /= np.sqrt(np.sum(np.abs(weights) ** 2, axis=1, keepdims=True))
    detectors = np.einsum("nm,mij->nij", weights, np.stack(modes))
    values = np.einsum("i,nji,njk,k->n", psi.conj(), detectors.conj(), detectors, psi).real
    return float(values[0]) if np.ndim(x_detector) == 0 else values


def slit_mode_oracle(geom: diffraction.SlitGeometry, x_detector):
    """Schrodinger-picture two-slit fringe: bosonic slit modes sharing one excitation."""
    modes = [annihilation_op(FockSpace(cutoff=2, mode_count=2), m) for m in (0, 1)]
    return _shared_excitation_fringe(geom, x_detector, modes)


def fermionic_fringe(geom: diffraction.SlitGeometry, x_detector):
    """Two-slit fringe carried by anticommuting slit modes sharing one excitation.

    The same model as `slit_mode_oracle` with Jordan-Wigner slit modes, so it
    reproduces the bosonic single-photon fringe.
    """
    return _shared_excitation_fringe(geom, x_detector, fermionic_mode_ops(2)[0])


def transition_probability_oracle(params: qubit.QubitModelParams, t):
    """|<-|exp(-i H t)|+>|^2 on the full two-mode space; equals sin^2(omega t/2).

    `t` is a scalar (returns a float) or an array of times (returns an array of
    that shape). H and its eigendecomposition are built once per call; each time
    then costs O(dim): <-|exp(-i H t)|+> = sum_j <-|v_j> exp(-i E_j t) <v_j|+>.
    """
    evals, evecs = np.linalg.eigh(_require_hermitian(qubit.hamiltonian(params)))
    weights = (qubit.minus_state(params).data.conj() @ evecs) * (
        evecs.conj().T @ qubit.plus_state(params).data
    )
    times = np.asarray(t, dtype=float)
    amps = np.exp(-1j * np.multiply.outer(times, evals)) @ weights
    values = np.abs(amps) ** 2
    return float(values) if values.ndim == 0 else values


def amplitude_variation_check(
    ket: np.ndarray, bra: np.ndarray, h: np.ndarray, t1: float, t2: float, eps: float
) -> float:
    """Residual of the time variation of the transition amplitude.

    Compares the centered finite difference of <bra|exp(-iH(t2-t1))|ket> in t2
    against the generator form -i <bra|H exp(-iH(t2-t1))|ket>; the residual
    scales as eps^2.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    h = _require_hermitian(h)
    bra = np.asarray(bra, dtype=complex)
    ket = np.asarray(ket, dtype=complex)
    tau = float(t2) - float(t1)

    def amplitude(dt: float) -> complex:
        return complex(np.vdot(bra, unitary_evolution(h, dt) @ ket))

    finite_difference = (amplitude(tau + eps) - amplitude(tau - eps)) / (2.0 * eps)
    generator = -1j * complex(np.vdot(bra, h @ (unitary_evolution(h, tau) @ ket)))
    return abs(finite_difference - generator)


@dataclass(frozen=True)
class VerificationCheck:
    check: str
    max_deviation: float
    tolerance: float
    passed: bool


def _check(name: str, deviation: float, tolerance: float) -> VerificationCheck:
    deviation = float(deviation)
    return VerificationCheck(
        check=name,
        max_deviation=deviation,
        tolerance=tolerance,
        passed=deviation <= tolerance,
    )


def _canonical_geometry() -> diffraction.SlitGeometry:
    return diffraction.SlitGeometry(
        source=(0.0, -1.0),
        slits=(-5e-6, 5e-6),
        screen_z=1.0,
        k=diffraction.wavenumber(500e-9),
    )


def run_verification_suite() -> list[VerificationCheck]:
    """Run every registered differential and invariant check, in fixed order."""
    rng = np.random.default_rng(_SUITE_SEED)
    checks: list[VerificationCheck] = []

    def random_hermitian(dim: int) -> np.ndarray:
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return (m + m.conj().T) / 2.0

    def random_pure(dim: int) -> QuantumState:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return QuantumState("pure", v / np.linalg.norm(v))

    # Oracle self-consistency.
    h8 = random_hermitian(8)
    u8 = unitary_evolution(h8, 1.3)
    checks.append(
        _check(
            "oracle_unitarity",
            np.max(np.abs(u8.conj().T @ u8 - np.eye(8))),
            1e-12,
        )
    )

    dev = 0.0
    for _ in range(4):
        h4 = random_hermitian(4)
        op4 = random_hermitian(4)
        dev = max(dev, picture_equivalence_check(op4, random_pure(4), h4, 1.3))
    checks.append(_check("picture_equivalence", dev, 1e-10))

    # Interference pipelines against the slit-mode model.
    geom = _canonical_geometry()
    xs = np.linspace(-0.025, 0.025, 101)
    fringe = diffraction.single_photon_fringe(geom, xs, mode="far_field")
    oracle_vals = slit_mode_oracle(geom, xs)
    checks.append(
        _check(
            "fringe_heisenberg_vs_slit_modes",
            np.max(np.abs(fringe - oracle_vals)),
            1e-10,
        )
    )
    checks.append(
        _check(
            "fermionic_vs_bosonic_fringe",
            np.max(np.abs(fermionic_fringe(geom, xs) - fringe)),
            1e-10,
        )
    )
    raw = diffraction.intensity_expectation(fock_state(FockSpace(2), 1), geom, xs)
    exact = diffraction.single_photon_fringe(geom, xs, mode="exact")
    checks.append(
        _check("exact_fringe_vs_intensity_pipeline", np.max(np.abs(raw / raw.max() - exact)), 1e-12)
    )

    # Qubit dynamics against state evolution.
    params = qubit.QubitModelParams(omega=1.0, cutoff=4)
    h_qubit = qubit.hamiltonian(params)
    times = np.linspace(0.0, 2.0 * math.pi, 100)
    oracle_flips = transition_probability_oracle(params, times)
    dev = np.max(np.abs(qubit.transition_probability(params, times) - oracle_flips))
    checks.append(_check("transition_probability_vs_schrodinger", dev, 1e-10))

    base = qubit.pauli_set(params)
    rotation_dev = 0.0
    sigma_z_dev = 0.0
    for wt in (0.1, 0.7, math.pi / 3.0, 2.5):
        t = wt / params.omega
        evolved = qubit.pauli_evolved(params, t)
        rotation_dev = max(
            rotation_dev,
            np.max(np.abs(heisenberg_conjugate(base.sigma_x, h_qubit, t) - evolved.sigma_x)),
            np.max(np.abs(heisenberg_conjugate(base.sigma_y, h_qubit, t) - evolved.sigma_y)),
        )
        sigma_z_dev = max(
            sigma_z_dev,
            np.max(np.abs(heisenberg_conjugate(base.sigma_z, h_qubit, t) - base.sigma_z)),
        )
    checks.append(_check("pauli_rotation_vs_conjugation", rotation_dev, 1e-10))
    checks.append(_check("sigma_z_conservation", sigma_z_dev, 1e-12))

    quads = qubit.quadratures(params)
    derivative = qubit.operator_derivative(
        lambda q: qubit.quadrature_hamiltonian(q, params.omega), quads, "p_x"
    )
    checks.append(
        _check(
            "hamilton_derivative_vs_commutator",
            np.max(np.abs(derivative - 1j * commutator(h_qubit, quads.x))),
            1e-8,
        )
    )

    small = qubit.QubitModelParams(omega=1.0, cutoff=3)
    t_final = (math.pi / 4.0) / small.omega
    theta = small.omega * t_final / 2.0
    start = qubit.quadratures(small)
    exact_x = math.cos(theta) * start.x + math.sin(theta) * start.p_x

    def leapfrog_error(n_steps: int) -> float:
        res = qubit.integrate_quadratures(small, t_final, n_steps, record_stride=n_steps)
        final = qubit.evolved_quadratures(small, res.coefficients[-1])
        return float(np.max(np.abs(final.x - exact_x)))

    checks.append(_check("leapfrog_vs_exact_rotation", leapfrog_error(10_000), 1e-6))
    ratio = leapfrog_error(100) / leapfrog_error(200)
    checks.append(_check("leapfrog_convergence_order", abs(ratio - 4.0), 0.3))

    plus, minus = qubit.plus_state(params).data, qubit.minus_state(params).data
    checks.append(
        _check(
            "amplitude_variation_residual",
            amplitude_variation_check(plus, minus, h_qubit, 0.0, 0.7, 1e-4),
            1e-8,
        )
    )
    residuals = [
        amplitude_variation_check(plus, minus, h_qubit, 0.0, 0.7, e)
        for e in (1e-3, 5e-4, 2.5e-4)
    ]
    scaling_dev = max(
        abs(residuals[0] / residuals[1] - 4.0), abs(residuals[1] / residuals[2] - 4.0)
    )
    checks.append(_check("amplitude_variation_quadratic_scaling", scaling_dev, 0.3))

    # Algebra invariants.
    space30 = FockSpace(30)
    n30 = number_op(space30)
    dev = max(
        abs(expectation(coherent_state(space30, alpha), n30).real - abs(alpha) ** 2)
        for alpha in (0.25, 0.5j, 0.6 + 0.8j, 1.0)
    )
    checks.append(_check("coherent_occupation", dev, 1e-10))

    space4 = FockSpace(4)
    a4 = annihilation_op(space4)
    expected = np.diag([1.0, 1.0, 1.0, 1.0 - 4.0]).astype(complex)
    checks.append(
        _check(
            "canonical_commutator_cutoff_corner",
            np.max(np.abs(commutator(a4, creation_op(space4)) - expected)),
            1e-12,
        )
    )

    two_modes = FockSpace(4, 2)
    checks.append(
        _check(
            "distinct_mode_commutation",
            np.max(
                np.abs(
                    commutator(
                        annihilation_op(two_modes, 0), creation_op(two_modes, 1)
                    )
                )
            ),
            0.0,
        )
    )

    ops, _ = fermionic_mode_ops(2)
    car_dev = max(
        np.max(np.abs(anticommutator(ops[0], dagger(ops[0])) - np.eye(4))),
        np.max(np.abs(anticommutator(ops[1], dagger(ops[1])) - np.eye(4))),
        np.max(np.abs(anticommutator(ops[0], dagger(ops[1])))),
        np.max(np.abs(anticommutator(ops[0], ops[1]))),
        np.max(np.abs(anticommutator(ops[0], ops[0]))),
    )
    checks.append(_check("fermionic_car_exactness", car_dev, 0.0))

    return checks
