"""Heisenberg-picture interference on truncated Fock spaces.

Mode operators are propagated through slit geometries via a transfer
coefficient, a second-quantized qubit evolves through operator Hamilton
equations, and every pipeline is cross-checked against an independent
Schrodinger-picture computation.
"""

from .config import ConfigError, RunConfig, load_config, parse_config
from .diffraction import (
    DegenerateGeometryError,
    FringeTable,
    SlitGeometry,
    fringe_scan,
    intensity_expectation,
    path_lengths,
    single_photon_fringe,
    transfer_coefficients,
    wavenumber,
)
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
    tensor_product,
    thermal_state,
)
from .oracle import (
    VerificationCheck,
    amplitude_variation_check,
    fermionic_fringe,
    picture_equivalence_check,
    run_verification_suite,
    schrodinger_evolve,
    slit_mode_oracle,
    transition_probability_oracle,
    unitary_evolution,
)
from .qubit import (
    EvolutionResult,
    QuadratureSet,
    QubitModelParams,
    SecondQuantizedPauli,
    evolved_quadratures,
    hamiltonian,
    heisenberg_rhs,
    integrate_quadratures,
    minus_state,
    mode_ops,
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
from .runner import run

__version__ = "0.1.0"
