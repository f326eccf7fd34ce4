"""Independent Schrodinger-picture computations and the verification suite.

Every result produced by the propagation and qubit pipelines has a
counterpart here, computed by evolving states instead of operators. The
state propagators come from the eigendecomposition of the Hermitian
Hamiltonian, which is exact at these sizes and leaves no convergence knob
on the oracle side; the operator side of the picture-equivalence check uses
a scaling-and-squaring Taylor exponential instead, so the two sides share no
code path. Only numpy is needed. The checks registered in `CHECKS` are
deterministic, so repeated verification runs produce identical reports.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import diffraction, qubit
from .fock import (
    FockSpace,
    QuantumState,
    annihilation_op,
    anticommutator,
    checked_operator,
    checked_values,
    coherent_state,
    commutator,
    creation_op,
    dagger,
    expectation,
    fermionic_mode_ops,
    number_op,
    thermal_state,
)

_SUITE_SEED = 20260809


def _eigen_phases(h: np.ndarray, t):
    """H's eigenvectors and the phases exp(-i E_j t), of shape t.shape + (dim,)."""
    times = checked_values(t, "t")
    evals, evecs = np.linalg.eigh(checked_operator(h, "Hamiltonian"))
    return evecs, np.exp(-1j * np.multiply.outer(times, evals))


def unitary_evolution(h: np.ndarray, t) -> np.ndarray:
    """exp(-i H t) by one eigh of H; for an array `t`, a stack of shape t.shape + (dim, dim)."""
    evecs, phases = _eigen_phases(h, t)
    return (evecs * phases[..., None, :]) @ evecs.conj().T


def schrodinger_evolve(state: QuantumState, h: np.ndarray, t: float) -> QuantumState:
    """Evolve a pure or mixed state by exp(-i H t)."""
    u = unitary_evolution(h, float(t))
    if state.kind == "pure":
        return QuantumState("pure", u @ state.data, lost_weight=state.lost_weight)
    return QuantumState(
        "mixed", u @ state.data @ u.conj().T, lost_weight=state.lost_weight
    )


def heisenberg_conjugate(op: np.ndarray, h: np.ndarray, t) -> np.ndarray:
    u = unitary_evolution(h, t)
    op = checked_operator(op, "operator", hermitian=False, dim=u.shape[-1])
    return np.swapaxes(u.conj(), -1, -2) @ op @ u


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
    op = checked_operator(op, "operator", hermitian=False, dim=state.dim)
    evolved = schrodinger_evolve(state, h, t)
    lhs = expectation(evolved, op)
    u = _expm(-1j * float(t) * checked_operator(h, "Hamiltonian"))
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
    xs = checked_values(x_detector, "x_detector")
    # Own legs, a reference for path_lengths: float_power (C pow) rounds them alike.
    r = np.sqrt(np.float_power(xs[..., None] - np.array(geom.slits), 2) + geom.screen_z**2)
    zero = np.any(r == 0.0, axis=-1)
    if np.any(zero):
        raise diffraction.DegenerateGeometryError(
            f"zero-length propagation leg at x_detector = {xs[zero][0]}"
        )
    # The detector mode is defined up to a global phase and scale: dropping the phase of
    # the shortest leg keeps exp() arguments small, and measuring the legs in units of
    # the power of two at r_min keeps the norm from overflowing when a leg is tiny. A
    # power-of-two scale is exact, so the normalized weights round as unscaled ones do.
    r_min = r.min(axis=-1, keepdims=True)
    weights = np.exp(1j * geom.k * (r - r_min)) / np.ldexp(r, -np.frexp(r_min)[1])
    weights /= np.sqrt(np.sum(np.abs(weights) ** 2, axis=-1, keepdims=True))
    detectors = np.einsum("...m,mij->...ij", weights, np.stack(modes))
    values = np.einsum("i,...ji,...jk,k->...", psi.conj(), detectors.conj(), detectors, psi).real
    return float(values) if values.ndim == 0 else values


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
    evecs, phases = _eigen_phases(qubit.hamiltonian(params), t)
    minus, plus = qubit.minus_state(params).data, qubit.plus_state(params).data
    weights = (minus.conj() @ evecs) * (evecs.conj().T @ plus)
    # Not `phases @ weights`: a matmul's row rounds by the row count, einsum's alike for every t.
    values = np.square(np.abs(np.einsum("...j,j->...", phases, weights)))
    return float(values) if values.ndim == 0 else values


def amplitude_variation_check(
    ket: np.ndarray, bra: np.ndarray, h: np.ndarray, t1: float, t2: float, eps: float
) -> float:
    """Residual of the time variation of the transition amplitude.

    Compares the centered finite difference of <bra|exp(-iH(t2-t1))|ket> in t2
    against the generator form -i <bra|H exp(-iH(t2-t1))|ket>; the residual
    scales as eps^2.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    bra = np.asarray(bra, dtype=complex)
    ket = np.asarray(ket, dtype=complex)
    h = checked_operator(h, "Hamiltonian", dim=ket.shape[-1])
    tau = float(t2) - float(t1)
    later, earlier, at_tau = (u @ ket for u in unitary_evolution(h, [tau + eps, tau - eps, tau]))
    finite_difference = (complex(np.vdot(bra, later)) - complex(np.vdot(bra, earlier))) / (2.0 * eps)
    generator = -1j * complex(np.vdot(bra, h @ at_tau))
    return abs(finite_difference - generator)


@dataclass(frozen=True)
class VerificationCheck:
    check: str
    max_deviation: float
    tolerance: float
    passed: bool


def _check(name: str, deviation: float, tolerance: float) -> VerificationCheck:
    deviation = float(deviation)
    return VerificationCheck(name, deviation, tolerance, passed=deviation <= tolerance)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2.0


def random_pure(rng: np.random.Generator, dim: int) -> QuantumState:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return QuantumState("pure", v / np.linalg.norm(v))


# The checks' fixtures; every CLI run imports this module, so none builds an operator.
_GEOM = diffraction.SlitGeometry(
    source=(0.0, -1.0), slits=(-5e-6, 5e-6), screen_z=1.0, k=diffraction.wavenumber(500e-9)
)
_XS = np.linspace(-0.025, 0.025, 101)
_GEOM16 = diffraction.SlitGeometry(
    source=(3e-4, -0.8), slits=tuple(1.2e-5 * (j - 7.5) for j in range(16)), screen_z=1.3,
    k=diffraction.wavenumber(633e-9),
)
_XS16 = np.linspace(-0.02, 0.03, 101)
_PARAMS = qubit.QubitModelParams(omega=1.0, cutoff=4)
_SMALL = qubit.QubitModelParams(omega=1.0, cutoff=3)
_PHASES = (0.1, 0.7, math.pi / 3.0, 2.5)  # omega * t of the Pauli checks


# Oracle self-consistency; the only checks that draw from the suite's generator.
def _oracle_unitarity(rng: np.random.Generator) -> float:
    u8 = unitary_evolution(random_hermitian(rng, 8), 1.3)
    return np.max(np.abs(u8.conj().T @ u8 - np.eye(8)))


def _picture_equivalence(rng: np.random.Generator) -> float:
    deviations = []
    for _ in range(4):
        h4 = random_hermitian(rng, 4)
        op4 = random_hermitian(rng, 4)
        deviations.append(picture_equivalence_check(op4, random_pure(rng, 4), h4, 1.3))
    return np.max(deviations)


# Interference pipelines against the slit-mode model.
def _fringe_heisenberg_vs_slit_modes(_rng) -> float:
    return np.max(np.abs(diffraction.single_photon_fringe(_GEOM, _XS) - slit_mode_oracle(_GEOM, _XS)))


def _fermionic_vs_bosonic_fringe(_rng) -> float:
    return np.max(np.abs(fermionic_fringe(_GEOM, _XS) - diffraction.single_photon_fringe(_GEOM, _XS)))


def _reciprocity_deviation(geom: diffraction.SlitGeometry, xs: np.ndarray) -> float:
    """|T - T'| of peak |T|, T' with source and detector swapped and z mirrored.

    The sources move to (x, -screen_z) and the detector to (source_x, -source_z), so
    every source leg becomes a detector leg and back: one slit sum over all the points.
    """
    forward = diffraction.transfer_coefficients(geom, xs)
    swapped = diffraction._slit_sum((xs, -geom.screen_z), (geom.source[0], -geom.source[1]), geom.slits, geom.k)
    return np.max(np.abs(forward - swapped)) / np.abs(forward).max()


def _transfer_reciprocity(_rng) -> float:
    return np.max([_reciprocity_deviation(_GEOM, _XS), _reciprocity_deviation(_GEOM16, _XS16)])


# Qubit dynamics against state evolution.
def _transition_probability_vs_schrodinger(_rng) -> float:
    times = np.linspace(0.0, 2.0 * math.pi, 100)
    oracle_flips = transition_probability_oracle(_PARAMS, times)
    return np.max(np.abs(qubit.transition_probability(_PARAMS, times) - oracle_flips))


def _pauli_rotation_vs_conjugation(_rng) -> float:
    h, base = qubit.hamiltonian(_PARAMS), qubit.pauli_set(_PARAMS)
    times = np.array(_PHASES) / _PARAMS.omega
    evolved = [qubit.pauli_evolved(_PARAMS, t) for t in times]
    deviations = []
    for name in ("sigma_x", "sigma_y"):
        conjugated = heisenberg_conjugate(getattr(base, name), h, times)
        deviations += [np.max(np.abs(u - getattr(e, name))) for u, e in zip(conjugated, evolved)]
    return np.max(deviations)


def _sigma_z_conservation(_rng) -> float:
    h, sigma_z = qubit.hamiltonian(_PARAMS), qubit.pauli_set(_PARAMS).sigma_z
    return np.max(np.abs(heisenberg_conjugate(sigma_z, h, np.array(_PHASES) / _PARAMS.omega) - sigma_z))


def _hamilton_derivative_vs_commutator(_rng) -> float:
    quads = qubit.quadratures(_PARAMS)
    derivative = qubit.operator_derivative(
        lambda q: qubit.quadrature_hamiltonian(q, _PARAMS.omega), quads, "p_x"
    )
    return np.max(np.abs(derivative - 1j * commutator(qubit.hamiltonian(_PARAMS), quads.x)))


def _leapfrog_error(n_steps: int) -> float:
    t_final = (math.pi / 4.0) / _SMALL.omega
    theta = _SMALL.omega * t_final / 2.0
    start = qubit.quadratures(_SMALL)
    exact_x = math.cos(theta) * start.x + math.sin(theta) * start.p_x
    res = qubit.integrate_quadratures(_SMALL, t_final, n_steps, record_stride=n_steps)
    final = qubit.evolved_quadratures(_SMALL, res.coefficients[-1])
    return float(np.max(np.abs(final.x - exact_x)))


def _leapfrog_vs_exact_rotation(_rng) -> float:
    return _leapfrog_error(10_000)


def _leapfrog_convergence_order(_rng) -> float:
    return abs(_leapfrog_error(100) / _leapfrog_error(200) - 4.0)


def _amplitude_variation_residual(_rng) -> float:
    plus, minus = qubit.plus_state(_PARAMS).data, qubit.minus_state(_PARAMS).data
    return amplitude_variation_check(plus, minus, qubit.hamiltonian(_PARAMS), 0.0, 0.7, 1e-4)


def _amplitude_variation_quadratic_scaling(_rng) -> float:
    plus, minus = qubit.plus_state(_PARAMS).data, qubit.minus_state(_PARAMS).data
    h = qubit.hamiltonian(_PARAMS)
    residuals = [amplitude_variation_check(plus, minus, h, 0.0, 0.7, e) for e in (1e-3, 5e-4, 2.5e-4)]
    return np.max([abs(residuals[0] / residuals[1] - 4.0), abs(residuals[1] / residuals[2] - 4.0)])


# Algebra invariants.
def _coherent_occupation(_rng) -> float:
    space30 = FockSpace(30)
    n30 = number_op(space30)
    return np.max([
        abs(expectation(coherent_state(space30, alpha), n30).real - abs(alpha) ** 2)
        for alpha in (0.25, 0.5j, 0.6 + 0.8j, 1.0)
    ])


def _canonical_commutator_cutoff_corner(_rng) -> float:
    space4 = FockSpace(4)
    expected = np.diag([1.0, 1.0, 1.0, 1.0 - 4.0]).astype(complex)
    return np.max(np.abs(commutator(annihilation_op(space4), creation_op(space4)) - expected))


def _distinct_mode_commutation(_rng) -> float:
    two_modes = FockSpace(4, 2)
    return np.max(np.abs(commutator(annihilation_op(two_modes, 0), creation_op(two_modes, 1))))


def _fermionic_car_exactness(_rng) -> float:
    ops, _ = fermionic_mode_ops(2)
    return np.max([
        np.max(np.abs(anticommutator(ops[0], dagger(ops[0])) - np.eye(4))),
        np.max(np.abs(anticommutator(ops[1], dagger(ops[1])) - np.eye(4))),
        np.max(np.abs(anticommutator(ops[0], dagger(ops[1])))),
        np.max(np.abs(anticommutator(ops[0], ops[1]))),
        np.max(np.abs(anticommutator(ops[0], ops[0]))),
    ])


def _thermal_occupation(_rng) -> float:
    """Relative error of a truncated thermal <n>: r/(1-r) - c r^c/(1-r^c), r = nbar/(1+nbar)."""
    deviations = []
    for nbar, cutoff in ((0.7, 12), (3.0, 64)):
        space = FockSpace(cutoff)
        r = nbar / (1.0 + nbar)
        want = r / (1.0 - r) - cutoff * r**cutoff / (1.0 - r**cutoff)
        deviations.append(abs(expectation(thermal_state(space, nbar), number_op(space)).real / want - 1.0))
    return np.max(deviations)


# The registered checks, (name, tolerance, check) in report order. A check takes the
# suite's generator and returns its deviation. Append a new check's row, so the first
# two rows' draws from the generator, and every earlier report row, stay as they are.
CHECKS = (
    ("oracle_unitarity", 1e-12, _oracle_unitarity),
    ("picture_equivalence", 1e-10, _picture_equivalence),
    ("fringe_heisenberg_vs_slit_modes", 1e-10, _fringe_heisenberg_vs_slit_modes),
    ("fermionic_vs_bosonic_fringe", 1e-10, _fermionic_vs_bosonic_fringe),
    ("transfer_reciprocity", 1e-12, _transfer_reciprocity),
    ("transition_probability_vs_schrodinger", 1e-10, _transition_probability_vs_schrodinger),
    ("pauli_rotation_vs_conjugation", 1e-10, _pauli_rotation_vs_conjugation),
    ("sigma_z_conservation", 1e-12, _sigma_z_conservation),
    ("hamilton_derivative_vs_commutator", 1e-8, _hamilton_derivative_vs_commutator),
    ("leapfrog_vs_exact_rotation", 1e-6, _leapfrog_vs_exact_rotation),
    ("leapfrog_convergence_order", 0.3, _leapfrog_convergence_order),
    ("amplitude_variation_residual", 1e-8, _amplitude_variation_residual),
    ("amplitude_variation_quadratic_scaling", 0.3, _amplitude_variation_quadratic_scaling),
    ("coherent_occupation", 1e-10, _coherent_occupation),
    ("canonical_commutator_cutoff_corner", 1e-12, _canonical_commutator_cutoff_corner),
    ("distinct_mode_commutation", 0.0, _distinct_mode_commutation),
    ("fermionic_car_exactness", 0.0, _fermionic_car_exactness),
    ("thermal_occupation", 1e-12, _thermal_occupation),
)


def _deviation(name: str, check, rng: np.random.Generator) -> float:
    """The check's deviation; NaN, a failed row, when the check raises (cause on stderr)."""
    try:
        return check(rng)
    except Exception as exc:
        print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return math.nan


def run_verification_suite() -> list[VerificationCheck]:
    """Run every check in `CHECKS`, in table order, on one generator seeded once."""
    rng = np.random.default_rng(_SUITE_SEED)
    return [_check(name, _deviation(name, check, rng), tolerance) for name, tolerance, check in CHECKS]
