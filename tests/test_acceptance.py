"""End-to-end acceptance checks at pinned tolerances.

Each criterion prints one PASS/FAIL line (run pytest with -s to stream
them). Sub-checks are evaluated eagerly so a failing criterion still
reports every measured value in the assertion message.
"""

import math
import time

import numpy as np
import scipy.linalg

from qfringe import (
    FockSpace,
    QubitModelParams,
    SlitGeometry,
    amplitude_variation_check,
    annihilation_op,
    anticommutator,
    coherent_state,
    commutator,
    creation_op,
    dagger,
    expectation,
    fermionic_fringe,
    fermionic_mode_ops,
    evolved_quadratures,
    hamiltonian,
    integrate_quadratures,
    minus_state,
    number_op,
    pauli_set,
    pauli_evolved,
    plus_state,
    quadrature_hamiltonian,
    quadratures,
    single_photon_fringe,
    slit_mode_oracle,
    transition_probability,
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


def fringe_law_oracle(x):
    """Independent closed form: (1 + cos(k dr))/2 with dr from exact paths."""
    r1 = math.sqrt(SCREEN_DISTANCE**2 + (x + SLIT_HALF_SEPARATION) ** 2)
    r2 = math.sqrt(SCREEN_DISTANCE**2 + (x - SLIT_HALF_SEPARATION) ** 2)
    return 0.5 * (1.0 + math.cos(wavenumber(WAVELENGTH) * (r1 - r2)))


def finish(criterion, subchecks):
    failed = [f"{name}: {detail}" for name, ok, detail in subchecks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"[{status}] {criterion}")
    for name, ok, detail in subchecks:
        print(f"    {'ok ' if ok else 'BAD'} {name}: {detail}")
    assert not failed, f"{criterion}: " + "; ".join(failed)


def test_criterion_1_fringe_law():
    started = time.perf_counter()
    geom = canonical_geometry()
    subchecks = []

    targets = ((0.0, 1.0, 1e-6), (0.025, 0.0, 1e-4))
    for x, target, tolerance in targets:
        value = single_photon_fringe(geom, x)
        subchecks.append(
            (
                f"far-field probability at x_D={x}",
                abs(value - target) <= tolerance,
                f"value={value!r}, target={target}, tol={tolerance}",
            )
        )

    # The far-field law keeps exact path lengths, so at the quarter period it is
    # not the paraxial 0.5: dr = d x / z overestimates dr by (x^2 + a^2) / 2z^2
    # relative (a the slit half-separation, z the screen distance), which lifts
    # the probability by pi/4 of that. The bound is twice the next-order term,
    # (pi/4)(3/8)(x/z)^4.
    x, a, z = 0.0125, SLIT_HALF_SEPARATION, SCREEN_DISTANCE
    value = single_photon_fringe(geom, x)
    correction = math.pi / 4 * (x**2 + a**2) / (2 * z**2)
    tolerance = 2 * math.pi / 4 * 3 / 8 * (x / z) ** 4
    residual = value - 0.5 - correction
    subchecks.append(
        (
            f"far-field probability at x_D={x} vs paraxial 0.5 plus second-order correction",
            abs(residual) <= tolerance,
            f"value={value!r}, correction={correction:.6e}, residual={residual:.3e}, tol={tolerance:.3e}",
        )
    )

    xs = np.linspace(-0.025, 0.025, 101)
    scan = single_photon_fringe(geom, xs)
    oracle = np.array([fringe_law_oracle(x) for x in xs])
    scan_dev = float(np.max(np.abs(scan - oracle)))
    subchecks.append(
        (
            "101-point scan vs exact-path fringe law",
            scan_dev <= 1e-9,
            f"max deviation={scan_dev:.3e}, tol=1e-9",
        )
    )

    elapsed = time.perf_counter() - started
    subchecks.append(("runtime", elapsed < 1.0, f"{elapsed:.3f}s < 1s"))
    finish("criterion 1: fringe law at the canonical geometry", subchecks)


def test_criterion_2_picture_equivalence():
    started = time.perf_counter()
    subchecks = []

    geom = canonical_geometry()
    xs = np.linspace(-0.025, 0.025, 101)
    fringe = single_photon_fringe(geom, xs)
    oracle_scan = slit_mode_oracle(geom, xs)
    fringe_dev = float(np.max(np.abs(fringe - oracle_scan)))
    subchecks.append(
        (
            "fringe vs slit-mode state model (101 points)",
            fringe_dev <= 1e-10,
            f"max deviation={fringe_dev:.3e}, tol=1e-10",
        )
    )

    params = QubitModelParams(omega=1.0, cutoff=4)
    times = np.linspace(0.0, 2.0 * math.pi, 100)
    flip_dev = max(
        abs(transition_probability(params, t) - math.sin(params.omega * t / 2.0) ** 2)
        for t in times
    )
    subchecks.append(
        (
            "transition probability vs sin^2(omega t/2) (100 points)",
            flip_dev <= 1e-10,
            f"max deviation={flip_dev:.3e}, tol=1e-10",
        )
    )

    elapsed = time.perf_counter() - started
    subchecks.append(("runtime", elapsed < 5.0, f"{elapsed:.3f}s < 5s"))
    finish("criterion 2: Heisenberg vs Schrodinger equivalence", subchecks)


def test_criterion_3_pauli_rotation_exactness():
    params = QubitModelParams(omega=1.0, cutoff=3)
    base = pauli_set(params)
    h = hamiltonian(params)
    subchecks = []

    rotation_dev = 0.0
    conservation_dev = 0.0
    for wt in (0.1, 0.7, math.pi / 3.0, 2.5):
        u = scipy.linalg.expm(-1j * h * wt)
        conjugated = u.conj().T @ base.sigma_x @ u
        closed_form = pauli_evolved(params, wt).sigma_x
        rotation_dev = max(rotation_dev, float(np.max(np.abs(conjugated - closed_form))))
        conservation_dev = max(
            conservation_dev,
            float(np.max(np.abs(u.conj().T @ base.sigma_z @ u - base.sigma_z))),
        )
    subchecks.append(
        (
            "conjugated Sigma_X vs cos/sin closed form (4 times, cutoff 3)",
            rotation_dev <= 1e-10,
            f"max deviation={rotation_dev:.3e}, tol=1e-10",
        )
    )
    subchecks.append(
        (
            "Sigma_Z conservation",
            conservation_dev <= 1e-12,
            f"max deviation={conservation_dev:.3e}, tol=1e-12",
        )
    )
    finish("criterion 3: exact Pauli rotation", subchecks)


def test_criterion_4_hamilton_equation_consistency():
    params = QubitModelParams(omega=1.0, cutoff=4)
    quads = quadratures(params)
    h = hamiltonian(params)
    subchecks = []

    from qfringe import operator_derivative

    derivative_dev = 0.0
    for which, partner in (("p_x", quads.x), ("x", quads.p_x)):
        deriv = operator_derivative(
            lambda q: quadrature_hamiltonian(q, params.omega), quads, which
        )
        sign = 1.0 if which == "p_x" else -1.0
        commutator_form = sign * 1j * commutator(h, partner)
        derivative_dev = max(
            derivative_dev, float(np.max(np.abs(deriv - commutator_form)))
        )
    subchecks.append(
        (
            "extrapolated operator derivative vs commutator form",
            derivative_dev <= 1e-8,
            f"max deviation={derivative_dev:.3e}, tol=1e-8",
        )
    )

    small = QubitModelParams(omega=1.0, cutoff=3)
    t_final = math.pi / 4.0
    theta = t_final / 2.0
    start = quadratures(small)
    exact_x = math.cos(theta) * start.x + math.sin(theta) * start.p_x
    result = integrate_quadratures(small, t_final, 10_000)
    final = evolved_quadratures(small, result.coefficients[-1])
    integrator_dev = float(np.max(np.abs(final.x - exact_x)))
    subchecks.append(
        (
            "leapfrog vs closed-form rotation at 1e4 steps",
            integrator_dev <= 1e-6,
            f"max deviation={integrator_dev:.3e}, tol=1e-6",
        )
    )

    def integrator_error(n_steps):
        res = integrate_quadratures(small, t_final, n_steps, record_stride=n_steps)
        final = evolved_quadratures(small, res.coefficients[-1])
        return float(np.max(np.abs(final.x - exact_x)))

    ratio = integrator_error(100) / integrator_error(200)
    subchecks.append(
        (
            "second-order convergence on step halving",
            abs(ratio - 4.0) <= 0.3,
            f"error ratio={ratio:.4f}, target 4 +- 0.3",
        )
    )
    finish("criterion 4: Hamilton-equation machinery", subchecks)


def test_criterion_5_fermionic_equivalence():
    geom = canonical_geometry()
    xs = np.linspace(-0.025, 0.025, 101)
    fermionic = fermionic_fringe(geom, xs)
    bosonic = single_photon_fringe(geom, xs)
    deviation = float(np.max(np.abs(fermionic - bosonic)))
    finish(
        "criterion 5: fermionic interference equals bosonic",
        [
            (
                "pointwise scan equality (101 points)",
                deviation <= 1e-10,
                f"max deviation={deviation:.3e}, tol=1e-10",
            )
        ],
    )


def test_criterion_6_operator_algebra():
    subchecks = []

    space = FockSpace(4)
    comm = commutator(annihilation_op(space), creation_op(space))
    expected = np.diag([1.0, 1.0, 1.0, -3.0]).astype(complex)
    corner_dev = float(np.max(np.abs(comm - expected)))
    subchecks.append(
        (
            "canonical commutator with cutoff corner (N=4)",
            corner_dev <= 1e-12,
            f"max deviation={corner_dev:.3e}",
        )
    )

    ops, _ = fermionic_mode_ops(2)
    eye = np.eye(4, dtype=complex)
    car_dev = max(
        float(np.max(np.abs(anticommutator(ops[0], dagger(ops[0])) - eye))),
        float(np.max(np.abs(anticommutator(ops[1], dagger(ops[1])) - eye))),
        float(np.max(np.abs(anticommutator(ops[0], ops[1])))),
        float(np.max(np.abs(anticommutator(ops[0], dagger(ops[1]))))),
    )
    subchecks.append(
        ("fermionic anticommutation exact", car_dev == 0.0, f"max deviation={car_dev!r}")
    )

    two_modes = FockSpace(4, 2)
    distinct_dev = float(
        np.max(np.abs(commutator(annihilation_op(two_modes, 0), creation_op(two_modes, 1))))
    )
    subchecks.append(
        (
            "distinct-mode commutation exact",
            distinct_dev == 0.0,
            f"max deviation={distinct_dev!r}",
        )
    )

    space30 = FockSpace(30)
    n30 = number_op(space30)
    coherent_dev = max(
        abs(expectation(coherent_state(space30, alpha), n30).real - abs(alpha) ** 2)
        for alpha in (0.25, 0.5j, 0.6 + 0.8j, 1.0)
    )
    subchecks.append(
        (
            "coherent occupation equals |alpha|^2 (cutoff 30, |alpha| <= 1)",
            coherent_dev <= 1e-10,
            f"max deviation={coherent_dev:.3e}, tol=1e-10",
        )
    )
    finish("criterion 6: operator algebra suite", subchecks)


def test_criterion_7_amplitude_time_variation():
    params = QubitModelParams(omega=1.0, cutoff=3)
    plus, minus = plus_state(params).data, minus_state(params).data
    h = hamiltonian(params)
    subchecks = []

    residual = amplitude_variation_check(plus, minus, h, 0.0, 0.7, 1e-4)
    subchecks.append(
        (
            "finite-difference residual at eps=1e-4",
            residual <= 1e-8,
            f"residual={residual:.3e}, tol=1e-8",
        )
    )

    residuals = [
        amplitude_variation_check(plus, minus, h, 0.0, 0.7, eps)
        for eps in (1e-3, 5e-4, 2.5e-4)
    ]
    ratios = (residuals[0] / residuals[1], residuals[1] / residuals[2])
    subchecks.append(
        (
            "quadratic scaling on eps halving",
            all(abs(r - 4.0) <= 0.3 for r in ratios),
            f"ratios={tuple(round(r, 4) for r in ratios)}, target 4 +- 0.3",
        )
    )
    finish("criterion 7: amplitude variation in time", subchecks)
