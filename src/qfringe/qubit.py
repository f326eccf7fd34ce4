"""Second-quantized qubit: two bosonic modes carrying the Pauli algebra.

The qubit levels are mapped onto two harmonic oscillators. Number-conserving
bilinears of the mode operators represent the Pauli observables:

    Sigma_Z = nx - ny
    Sigma_X = ax* ay + ay* ax
    Sigma_Y = i (ax* ay - ay* ax)

The single-excitation subspace spanned by |1,0> (excited) and |0,1>
(ground) is the canonical qubit embedding. With H = (omega/2)(nx - ny) and
hbar = 1, the quadratures obey Hamilton's equations

    dx/dt = dH/dp_x = (omega/2) p_x        dp_x/dt = -dH/dx = -(omega/2) x

(and the y oscillator with the opposite sign), i.e. each mode pair rotates
at omega/2 while the Pauli bilinears rotate at omega:

    Sigma_X(t) = cos(omega t) Sigma_X + sin(omega t) Sigma_Y.

Operator derivatives with respect to a quadrature are defined through the
substitution q -> q + eps*I and extrapolation of the finite difference to
eps -> 0, which for polynomial expressions is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .fock import (
    FockSpace,
    HERMITIAN_TOL,
    QuantumState,
    annihilation_op,
    checked_operator,
    dagger,
    number_op,
    tensor_product,
)

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class QubitModelParams:
    """Angular frequency (hbar = 1) and per-mode Fock cutoff."""

    omega: float
    cutoff: int = 8

    def __post_init__(self):
        if not math.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega}")
        two_mode_space(self)  # the space validates the cutoff


def two_mode_space(params: QubitModelParams) -> FockSpace:
    return FockSpace(cutoff=params.cutoff, mode_count=2)


def mode_ops(params: QubitModelParams) -> tuple[np.ndarray, np.ndarray]:
    space = two_mode_space(params)
    return annihilation_op(space, 0), annihilation_op(space, 1)


def _total_number_diagonal(dim: int) -> np.ndarray:
    """Diagonal of nx + ny in the row-major two-mode number basis."""
    cutoff = math.isqrt(dim)
    if cutoff * cutoff != dim:
        raise ValueError(f"dimension {dim} is not a two-mode product space")
    levels = np.arange(cutoff, dtype=float)
    return np.add.outer(levels, levels).ravel()


@dataclass(frozen=True)
class SecondQuantizedPauli:
    """Pauli bilinears on the two-mode space; Hermitian and number-conserving."""

    sigma_x: np.ndarray
    sigma_y: np.ndarray
    sigma_z: np.ndarray

    def __post_init__(self):
        names = ("sigma_x", "sigma_y", "sigma_z")
        ops = [(name, checked_operator(getattr(self, name), name)) for name in names]
        n_total = _total_number_diagonal(ops[0][1].shape[0])
        for name, op in ops:
            # [op, N] from the diagonal N: the same terms the dense products give.
            if np.max(np.abs(op * n_total[None, :] - n_total[:, None] * op)) > HERMITIAN_TOL:
                raise ValueError(f"{name} must conserve total excitation number")
            op.setflags(write=False)
            object.__setattr__(self, name, op)


def schwinger_map(label: str, params: QubitModelParams) -> np.ndarray:
    """One Pauli bilinear, exactly as the mode-operator expressions above.

    X and Y are formed from ax* ay, the Kronecker product a* (x) a of one-mode
    ladder operators: the dense product of `mode_ops` entry for entry, without its
    O(cutoff^6) cost. ay* ax is its transpose, since its matrix elements
    sqrt(nx + 1) sqrt(ny) are real.
    """
    label = label.upper()
    if label in ("X", "Y"):
        a = annihilation_op(FockSpace(params.cutoff))
        hop = tensor_product(dagger(a), a)
        return hop + hop.T if label == "X" else 1j * (hop - hop.T)
    if label == "Z":
        space = two_mode_space(params)
        return number_op(space, 0) - number_op(space, 1)
    raise ValueError(f"label must be 'X', 'Y' or 'Z', got {label!r}")


def pauli_set(params: QubitModelParams) -> SecondQuantizedPauli:
    return SecondQuantizedPauli(
        sigma_x=schwinger_map("X", params),
        sigma_y=schwinger_map("Y", params),
        sigma_z=schwinger_map("Z", params),
    )


def hamiltonian(params: QubitModelParams) -> np.ndarray:
    """H = (omega/2)(nx - ny), diagonal in the two-mode number basis."""
    return (params.omega / 2.0) * schwinger_map("Z", params)


@dataclass(frozen=True)
class QuadratureSet:
    """Dimensionless quadratures x, p_x, y, p_y on the two-mode space."""

    x: np.ndarray
    p_x: np.ndarray
    y: np.ndarray
    p_y: np.ndarray

    def __post_init__(self):
        for name in ("x", "p_x", "y", "p_y"):
            object.__setattr__(self, name, checked_operator(getattr(self, name), name, hermitian=False))
            if getattr(self, name).shape != self.x.shape:  # x is set first
                raise ValueError("all quadratures must share one dimension")

    @property
    def dim(self) -> int:
        return self.x.shape[0]

    def shifted(self, which: str, eps: float) -> "QuadratureSet":
        if which not in ("x", "p_x", "y", "p_y"):
            raise ValueError(f"unknown quadrature {which!r}")
        eye = np.eye(self.dim, dtype=complex)
        return replace(self, **{which: getattr(self, which) + eps * eye})


def quadratures(params: QubitModelParams) -> QuadratureSet:
    """Quadratures from a = (q + i p)/sqrt(2) for each mode."""
    ax, ay = mode_ops(params)
    return QuadratureSet(
        x=(ax + dagger(ax)) / _SQRT2,
        p_x=-1j * (ax - dagger(ax)) / _SQRT2,
        y=(ay + dagger(ay)) / _SQRT2,
        p_y=-1j * (ay - dagger(ay)) / _SQRT2,
    )


def quadrature_hamiltonian(quads: QuadratureSet, omega: float) -> np.ndarray:
    """The Hamiltonian as a quadrature polynomial, (omega/4)(x^2+p_x^2-y^2-p_y^2).

    Equals (omega/2)(nx - ny) up to diagonal cutoff-level artifacts; used as
    the substitution target for operator derivatives.
    """
    return (omega / 4.0) * (
        quads.x @ quads.x
        + quads.p_x @ quads.p_x
        - quads.y @ quads.y
        - quads.p_y @ quads.p_y
    )


def operator_derivative(
    h_func: Callable[[QuadratureSet], np.ndarray],
    quads: QuadratureSet,
    which: str,
    eps_sequence: Sequence[float] = (1e-2, 5e-3, 2.5e-3),
) -> np.ndarray:
    """Derivative of an operator polynomial with respect to one quadrature.

    Forward differences [H(q + eps I) - H(q)] / eps are extrapolated to
    eps -> 0 with Neville's polynomial scheme, which is exact once the number
    of nodes exceeds the polynomial degree in the shifted variable.
    """
    eps_list = [float(e) for e in eps_sequence]
    if not eps_list or any(e <= 0.0 for e in eps_list):
        raise ValueError("eps_sequence must contain positive values")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_sequence must be strictly decreasing")
    base = h_func(quads)
    table = [(h_func(quads.shifted(which, e)) - base) / e for e in eps_list]
    for level in range(1, len(eps_list)):
        for i in range(len(eps_list) - level):
            e_lo, e_hi = eps_list[i], eps_list[i + level]
            table[i] = (e_lo * table[i + 1] - e_hi * table[i]) / (e_lo - e_hi)
    return table[0]


def heisenberg_rhs(quads: QuadratureSet, params: QubitModelParams) -> QuadratureSet:
    """Hamilton's equations for the quadrature operators.

    Returns the time derivatives (dx/dt, dp_x/dt, dy/dt, dp_y/dt) obtained
    from the operator derivative of the quadrature Hamiltonian.
    """

    def h_func(q: QuadratureSet) -> np.ndarray:
        return quadrature_hamiltonian(q, params.omega)

    return QuadratureSet(
        x=operator_derivative(h_func, quads, "p_x"),
        p_x=-operator_derivative(h_func, quads, "x"),
        y=operator_derivative(h_func, quads, "p_y"),
        p_y=-operator_derivative(h_func, quads, "y"),
    )


@dataclass(frozen=True)
class EvolutionResult:
    """Leapfrog records: times, quadrature coefficients and flip probabilities.

    `coefficients[k, m]` holds (qq, qp, pq, pp) of mode m (0: x, p_x; 1: y, p_y) at
    `times[k]`: q(t) = qq q + qp p, p(t) = pq q + pp p (see `evolved_quadratures`).
    """

    times: np.ndarray
    coefficients: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        coefficients = np.asarray(self.coefficients, dtype=float)
        probs = np.asarray(self.probabilities, dtype=float)
        if not (coefficients.shape == (times.size, 2, 4) and probs.size == times.size):
            raise ValueError("times, coefficients and probabilities must align")
        for name, values in (("times", times), ("coefficients", coefficients), ("probabilities", probs)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
            values.setflags(write=False)
            object.__setattr__(self, name, values)


def plus_state(params: QubitModelParams) -> QuantumState:
    """Sigma_X eigenstate with eigenvalue +1 in the single-excitation sector."""
    space = two_mode_space(params)
    vec = np.zeros(space.dim, dtype=complex)
    vec[space.index((1, 0))] = 1.0 / _SQRT2
    vec[space.index((0, 1))] = 1.0 / _SQRT2
    return QuantumState("pure", vec)


def minus_state(params: QubitModelParams) -> QuantumState:
    vec = plus_state(params).data.copy()
    vec[two_mode_space(params).index((0, 1))] *= -1.0
    return QuantumState("pure", vec)


def _flip_readout(plus_vec: np.ndarray, evolved_plus: np.ndarray) -> np.ndarray:
    """Flip probabilities 0.5 (1 - Re<+|Sigma_X(t)|+>) from Sigma_X(t)|+> on the last axis."""
    values = 0.5 * (1.0 - (evolved_plus @ plus_vec.conj()).real)
    return np.where((-1e-9 < values) & (values < 0.0), 0.0, values)


def _leapfrog_mode(q, p, dq_dt, dp_dt, h: float, steps: list[int]):
    """Kick-drift-kick steps of one mode's coefficients, recorded at `steps` (from 0).

    The mode's quadratures are q(t) = qq q + qp p and p(t) = pq q + pp p. With
    dq/dt = a p and dp/dt = b q (a, b read by Frobenius projection), a kick adds
    b h/2 times q to p and a drift adds a h times p to q.
    """
    drift = float(np.vdot(p, dq_dt).real / np.vdot(p, p).real) * h
    kick = float(np.vdot(q, dp_dt).real / np.vdot(q, q).real) * h / 2.0
    qq, qp, pq, pp = 1.0, 0.0, 0.0, 1.0
    recorded = [(qq, qp, pq, pp)]
    for done, target in zip(steps, steps[1:]):
        for _ in range(target - done):
            pq += kick * qq
            pp += kick * qp
            qq += drift * pq
            qp += drift * pp
            pq += kick * qq
            pp += kick * qp
        recorded.append((qq, qp, pq, pp))
    return recorded


def integrate_quadratures(
    params: QubitModelParams,
    t_final: float,
    n_steps: int,
    record_stride: int | None = None,
) -> EvolutionResult:
    """Leapfrog integration of the quadrature operators.

    H is quadratic, so Hamilton's equations (`heisenberg_rhs`, applied once to
    the starting quadratures) are linear within each mode: dq/dt = a p and
    dp/dt = b q, with a and b (+-omega/2) read by projection. Every quadrature
    then stays a combination of its mode's starting pair, x(t) = c x + s p_x,
    and the kick-drift-kick steps act on those coefficients as plain floats.
    The steps are symplectic, so the canonical commutators are carried along
    exactly; the solution converges at second order to the rotation of each
    mode pair at omega/2, and is unstable for |omega| h >= 4. The coefficients
    are recorded every `record_stride` steps (about 100 records by default),
    each with its flip probability from Sigma_X(t) = x(t) y(t) + p_x(t) p_y(t):
    a weighted sum of the four fixed products x y|+>, x p_y|+>, p_x y|+>,
    p_x p_y|+>. Being second-order accurate, it may exceed 1 slightly: steps
    with |omega| h > 1 are rejected, and up to that step the estimate stays
    below 1.00104 (cutoff 3, each of 20,000 steps recorded).
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    if not 0.0 <= t_final < math.inf:
        raise ValueError(f"t_final must be finite and nonnegative, got {t_final}")
    if record_stride is None:
        record_stride = max(1, n_steps // 100)
    elif record_stride < 1:
        raise ValueError(f"record_stride must be at least 1, got {record_stride}")
    steps = [*range(0, n_steps, record_stride), n_steps]
    h = t_final / n_steps
    if abs(params.omega) * h > 1.0:
        raise ValueError(f"step {h} exceeds 1/|omega|, a quarter of the leapfrog stability limit")
    start = quadratures(params)
    rhs = heisenberg_rhs(start, params)
    pairs = ((start.x, start.p_x, rhs.x, rhs.p_x), (start.y, start.p_y, rhs.y, rhs.p_y))
    coefficients = np.stack([_leapfrog_mode(*pair, h, steps) for pair in pairs], axis=1)
    plus_vec = plus_state(params).data
    products = np.array([q @ (r @ plus_vec) for q in (start.x, start.p_x) for r in (start.y, start.p_y)])
    rows = coefficients.reshape(-1, 2, 2, 2)
    weights = np.einsum("rij,rik->rjk", rows[:, 0], rows[:, 1]).reshape(-1, 4)
    return EvolutionResult(
        times=h * np.array(steps, dtype=float),
        coefficients=coefficients,
        probabilities=_flip_readout(plus_vec, weights @ products),
    )


def evolved_quadratures(params: QubitModelParams, record: np.ndarray) -> QuadratureSet:
    """The quadrature operators of one record of `EvolutionResult.coefficients`."""
    start = quadratures(params)
    (xq, xp, pxq, pxp), (yq, yp, pyq, pyp) = record
    return QuadratureSet(
        x=xq * start.x + xp * start.p_x,
        p_x=pxq * start.x + pxp * start.p_x,
        y=yq * start.y + yp * start.p_y,
        p_y=pyq * start.y + pyp * start.p_y,
    )


def pauli_evolved(params: QubitModelParams, t: float) -> SecondQuantizedPauli:
    """Heisenberg-evolved Pauli bilinears: rotation of X into Y at omega, Z fixed."""
    base = pauli_set(params)
    c = math.cos(params.omega * t)
    s = math.sin(params.omega * t)
    return SecondQuantizedPauli(
        sigma_x=c * base.sigma_x + s * base.sigma_y,
        sigma_y=c * base.sigma_y - s * base.sigma_x,
        sigma_z=base.sigma_z,
    )


def transition_probability(params: QubitModelParams, t):
    """Probability to flip from the +1 to the -1 Sigma_X eigenstate by time t.

    Computed in the Heisenberg picture as <+|(I - Sigma_X(t))/2|+> on the
    single-excitation sector; equals sin^2(omega t / 2). `t` is a scalar
    (returns a float) or an array of times (returns an array of that shape).
    Sigma_X(t)|+> = cos(omega t) Sigma_X|+> + sin(omega t) Sigma_Y|+> is one
    outer product over all times. The bilinears conserve total number, so the
    readout never leaves {|1,0>, |0,1>}, whose matrix elements sqrt(1) sqrt(1)
    do not depend on the cutoff; it is taken at cutoff 2, the smallest space
    holding that sector. Every entry outside the sector is an exact zero in both
    the dense products and the sums, so this equals the curve at `params.cutoff`
    bit for bit.
    """
    phases = params.omega * np.asarray(t, dtype=float)
    if not np.isfinite(phases).all():
        raise ValueError("omega * t must be finite")
    sector = replace(params, cutoff=2)
    base, plus_vec = pauli_set(sector), plus_state(sector).data
    u, w = base.sigma_x @ plus_vec, base.sigma_y @ plus_vec
    values = _flip_readout(plus_vec, np.multiply.outer(np.cos(phases), u) + np.multiply.outer(np.sin(phases), w))
    return float(values) if values.ndim == 0 else values
