"""Truncated Fock-space operators, states, and algebra utilities.

Every operator is a dense complex numpy matrix on a finite occupation-number
basis |0>, ..., |N-1>. Multi-mode operators act on the Kronecker product of
the single-mode spaces with mode 0 as the leftmost factor, so the flat basis
index encodes the occupation tuple (n_0, ..., n_{M-1}) in row-major order.

The truncation leaves one documented artifact: [a, a*] equals the identity
except for the (N-1, N-1) diagonal entry, which equals 1-N. Physics
assertions should therefore be restricted to states with negligible weight
on the cutoff level.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

HERMITIAN_TOL = 1e-12
TRUNCATION_WARN_THRESHOLD = 1e-6


@dataclass(frozen=True)
class FockSpace:
    """Occupation-number space with `mode_count` modes of `cutoff` levels each."""

    cutoff: int
    mode_count: int = 1

    def __post_init__(self):
        for name, least in (("cutoff", 2), ("mode_count", 1)):
            if checked_int(getattr(self, name), name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")

    @property
    def dim(self) -> int:
        return self.cutoff**self.mode_count

    def index(self, occupations: Sequence[int]) -> int:
        """Flat basis index of |n_0, ..., n_{M-1}> (row-major)."""
        if len(occupations) != self.mode_count:
            raise ValueError(
                f"expected {self.mode_count} occupation numbers, got {len(occupations)}"
            )
        idx = 0
        for n in occupations:
            n = checked_int(n, "occupations")
            if not 0 <= n < self.cutoff:
                raise ValueError(f"occupation {n} outside [0, {self.cutoff - 1}]")
            idx = idx * self.cutoff + n
        return idx


def _single_mode_annihilation(cutoff: int) -> np.ndarray:
    op = np.zeros((cutoff, cutoff), dtype=complex)
    for n in range(1, cutoff):
        op[n - 1, n] = math.sqrt(n)
    return op


def _embed(op: np.ndarray, space: FockSpace, mode: int, left: np.ndarray | None = None) -> np.ndarray:
    """`op` on `mode`, `left` (default: the identity) on every mode before it, the identity after."""
    if not 0 <= mode < space.mode_count:
        raise ValueError(f"mode {mode} out of range for {space.mode_count} modes")
    eye = np.eye(space.cutoff, dtype=complex)
    before = [eye if left is None else left] * mode
    return tensor_product(*before, op, *[eye] * (space.mode_count - mode - 1))


def annihilation_op(space: FockSpace, mode: int = 0) -> np.ndarray:
    """Lowering operator for one mode: matrix element sqrt(n) at (n-1, n)."""
    return _embed(_single_mode_annihilation(space.cutoff), space, mode)


def creation_op(space: FockSpace, mode: int = 0) -> np.ndarray:
    return dagger(annihilation_op(space, mode))


def number_op(space: FockSpace, mode: int = 0) -> np.ndarray:
    """Occupation operator for one mode, with exact spectrum {0, ..., N-1}.

    Built directly as the diagonal matrix (the value of a*a in exact
    arithmetic) so no square-root rounding contaminates the eigenvalues.
    """
    diag = np.diag(np.arange(space.cutoff, dtype=float)).astype(complex)
    return _embed(diag, space, mode)


def dagger(op: np.ndarray) -> np.ndarray:
    return np.asarray(op).conj().T


def checked_operator(op, name: str, hermitian: bool = True, dim: int | None = None) -> np.ndarray:
    """`op` as a complex array: square (`dim` x `dim` if given), finite and (by default) Hermitian."""
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if dim is not None and op.shape[0] != dim:
        raise ValueError(f"{name} must be {dim}x{dim}, got shape {op.shape}")
    if not np.isfinite(op).all():
        raise ValueError(f"{name} entries must be finite")
    if hermitian and np.max(np.abs(op - op.conj().T)) > HERMITIAN_TOL:
        raise ValueError(f"{name} must be Hermitian")
    return op


def checked_int(value, name: str) -> int:
    """`value` as an int; a Python or numpy integer passes, a float or any other type raises."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def checked_values(values, name: str) -> np.ndarray:
    """`values` (points or times) as a float array of their own shape, which must be finite."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")
    return values


def _freeze(record, name: str, array: np.ndarray) -> None:
    """Set a frozen record's field to a read-only view of `array`: no copy, the caller's flags kept."""
    view = array.view()
    view.setflags(write=False)
    object.__setattr__(record, name, view)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = checked_operator(a, "a", hermitian=False)
    b = checked_operator(b, "b", hermitian=False, dim=a.shape[0])
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = checked_operator(a, "a", hermitian=False)
    b = checked_operator(b, "b", hermitian=False, dim=a.shape[0])
    return a @ b + b @ a


def tensor_product(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of the square factors, the first leftmost."""
    if not ops:
        raise ValueError("tensor_product needs at least one operator")
    return reduce(np.kron, [checked_operator(op, f"factor {j}", hermitian=False) for j, op in enumerate(ops)])


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Pure state vector or density matrix on a truncated space.

    `lost_weight` records probability discarded by truncating an
    infinite-dimensional state; `truncation_warning` flags losses above
    1e-6, outside the regime where cutoff artifacts are negligible.
    """

    kind: str
    data: np.ndarray
    lost_weight: float = 0.0

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        if not np.all(np.isfinite(data)):
            raise ValueError("state entries must be finite")
        if self.kind == "pure":
            if data.ndim != 1:
                raise ValueError("pure state must be a vector")
            if abs(np.linalg.norm(data) - 1.0) > HERMITIAN_TOL:
                raise ValueError("pure state must have unit norm")
        elif self.kind == "mixed":
            if data.ndim != 2 or data.shape[0] != data.shape[1]:
                raise ValueError("density matrix must be square")
            diagonal = np.diagonal(data)
            is_diagonal = np.count_nonzero(data) == np.count_nonzero(diagonal)
            # On a diagonal matrix, data - data^H is exactly 2i Im(d) on the diagonal.
            if is_diagonal:
                asymmetry = 2.0 * np.max(np.abs(diagonal.imag))
            else:
                asymmetry = np.max(np.abs(data - data.conj().T))
            if asymmetry > HERMITIAN_TOL:
                raise ValueError("density matrix must be Hermitian")
            tr = np.trace(data)
            if abs(tr - 1.0) > HERMITIAN_TOL:
                raise ValueError(f"density matrix trace must be 1, got {tr}")
            # A diagonal matrix's eigenvalues are its diagonal.
            eigenvalues = diagonal.real if is_diagonal else np.linalg.eigvalsh(data)
            if eigenvalues.min() < -1e-10:
                raise ValueError("density matrix must be positive semidefinite")
        else:
            raise ValueError(f"kind must be 'pure' or 'mixed', got {self.kind!r}")
        _freeze(self, "data", data)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def truncation_warning(self) -> bool:
        return self.lost_weight > TRUNCATION_WARN_THRESHOLD


def expectation(state: QuantumState, op: np.ndarray) -> complex:
    """<psi|A|psi> for pure states, tr(rho A) for mixed ones."""
    op = checked_operator(op, "operator", hermitian=False)
    data = state.data
    if data.shape[0] != op.shape[0]:
        raise ValueError(
            f"state dimension {data.shape[0]} does not match operator {op.shape[0]}"
        )
    if data.ndim == 1:
        return complex(np.vdot(data, op @ data))
    # Only the diagonal of rho A, O(dim^2), then one sum as np.trace takes it; a full
    # "ij,ji->" contraction sums in another order and moves the last bit.
    return complex(np.einsum("ij,ji->i", data, op).sum())


def fock_state(space: FockSpace, occupations) -> QuantumState:
    """Basis state |n> (single mode) or |n_0, ..., n_{M-1}> (multi-mode)."""
    occupations = (occupations,) if np.ndim(occupations) == 0 else occupations
    vec = np.zeros(space.dim, dtype=complex)
    vec[space.index(occupations)] = 1.0
    return QuantumState("pure", vec)


def coherent_state(space: FockSpace, alpha: complex) -> QuantumState:
    """Truncated coherent state, renormalized; discarded weight is recorded."""
    if space.mode_count != 1:
        raise ValueError("coherent_state is defined for a single mode")
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError(f"alpha must be finite, got {alpha}")
    amps = np.zeros(space.cutoff, dtype=complex)
    try:
        term = complex(math.exp(-abs(alpha) ** 2 / 2.0))
    except OverflowError:  # |alpha| or its square beyond the float range, where exp() gives 0
        term = 0j
    amps[0] = term
    for n in range(1, space.cutoff):
        term = term * alpha / math.sqrt(n)
        amps[n] = term
    kept = float(np.vdot(amps, amps).real)
    if kept <= 0.0:
        raise ValueError(f"alpha = {alpha:g} is too large: the kept weight underflows to 0")
    lost = max(0.0, 1.0 - kept)
    return QuantumState("pure", amps / math.sqrt(kept), lost_weight=lost)


def thermal_state(space: FockSpace, nbar: float) -> QuantumState:
    """Truncated thermal state with mean occupation nbar, renormalized."""
    if space.mode_count != 1:
        raise ValueError("thermal_state is defined for a single mode")
    nbar = float(nbar)
    if nbar < 0.0:
        raise ValueError(f"mean occupation must be nonnegative, got {nbar}")
    if not math.isfinite(nbar):
        raise ValueError(f"nbar must be finite, got {nbar}")
    if nbar == 0.0:
        weights = np.zeros(space.cutoff)
        weights[0] = 1.0
    else:
        ratio = nbar / (1.0 + nbar)
        weights = np.array([ratio**n / (1.0 + nbar) for n in range(space.cutoff)])
    kept = float(weights.sum())
    lost = max(0.0, 1.0 - kept)
    rho = np.diag((weights / kept).astype(complex))
    return QuantumState("mixed", rho, lost_weight=lost)


def fermionic_mode_ops(mode_count: int) -> tuple[list[np.ndarray], FockSpace]:
    """Fermionic lowering operators via signed (Jordan-Wigner) tensor products.

    Each mode is two-dimensional; mode j is embedded as a bosonic mode, with the
    parity diag(1, -1) instead of the identity on every mode before it, so the
    anticommutation relations hold exactly: {c_i, c_j*} = delta_ij and {c_i, c_j} = 0.
    """
    space = FockSpace(cutoff=2, mode_count=mode_count)
    lower = _single_mode_annihilation(2)
    parity = np.diag([1.0, -1.0]).astype(complex)
    return [_embed(lower, space, j, left=parity) for j in range(mode_count)], space
