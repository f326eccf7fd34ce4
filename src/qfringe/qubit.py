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
    dagger,
    number_op,
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
        if self.cutoff < 2:
            raise ValueError(f"cutoff must be at least 2, got {self.cutoff}")


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
        n_total = _total_number_diagonal(np.asarray(self.sigma_x).shape[0])
        for name in ("sigma_x", "sigma_y", "sigma_z"):
            op = np.asarray(getattr(self, name), dtype=complex)
            if not np.isfinite(op).all():
                raise ValueError(f"{name} entries must be finite")
            if np.max(np.abs(op - op.conj().T)) > HERMITIAN_TOL:
                raise ValueError(f"{name} must be Hermitian")
            # [op, N] from the diagonal N: the same terms the dense products give.
            if np.max(np.abs(op * n_total[None, :] - n_total[:, None] * op)) > HERMITIAN_TOL:
                raise ValueError(f"{name} must conserve total excitation number")
            op.setflags(write=False)
            object.__setattr__(self, name, op)


def _hop(cutoff: int) -> np.ndarray:
    """ax* ay from its matrix elements: sqrt(nx + 1) sqrt(ny) at (i + cutoff - 1, i).

    Basis index i = nx * cutoff + ny. Each element is the one nonzero term of
    the dense product ax* @ ay, formed by the same multiplication, so the two
    agree bit for bit.
    """
    n_x, n_y = np.divmod(np.arange(cutoff * cutoff), cutoff)
    i = np.flatnonzero((n_x < cutoff - 1) & (n_y > 0))
    op = np.zeros((cutoff * cutoff, cutoff * cutoff), dtype=complex)
    op[i + cutoff - 1, i] = np.sqrt(n_x[i] + 1) * np.sqrt(n_y[i])
    return op


def schwinger_map(label: str, params: QubitModelParams) -> np.ndarray:
    """One Pauli bilinear, exactly as the mode-operator expressions above.

    ay* ax is the transpose of ax* ay, whose matrix elements are real.
    """
    label = label.upper()
    if label in ("X", "Y"):
        hop = _hop(params.cutoff)
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
        dim = None
        for name in ("x", "p_x", "y", "p_y"):
            op = np.asarray(getattr(self, name), dtype=complex)
            if op.ndim != 2 or op.shape[0] != op.shape[1]:
                raise ValueError(f"{name} must be a square matrix")
            if dim is None:
                dim = op.shape[0]
            elif op.shape[0] != dim:
                raise ValueError("all quadratures must share one dimension")
            if not np.all(np.isfinite(op.view(float))):
                raise ValueError(f"{name} entries must be finite")
            object.__setattr__(self, name, op)

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
    """Recorded operator trajectory and derived transition probabilities."""

    times: np.ndarray
    operators_at_t: tuple[QuadratureSet, ...]
    probabilities: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        probs = np.asarray(self.probabilities, dtype=float)
        if not (times.size == len(self.operators_at_t) == probs.size):
            raise ValueError("times, snapshots and probabilities must align")
        if probs.size and (probs.min() < 0.0 or probs.max() > 1.0 + 1e-9):
            raise ValueError("probabilities must lie in [0, 1]")
        times.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "operators_at_t", tuple(self.operators_at_t))


def plus_state(params: QubitModelParams) -> QuantumState:
    """Sigma_X eigenstate with eigenvalue +1 in the single-excitation sector."""
    space = two_mode_space(params)
    vec = np.zeros(space.dim, dtype=complex)
    vec[space.index((1, 0))] = 1.0 / _SQRT2
    vec[space.index((0, 1))] = 1.0 / _SQRT2
    return QuantumState("pure", vec)


def minus_state(params: QubitModelParams) -> QuantumState:
    space = two_mode_space(params)
    vec = np.zeros(space.dim, dtype=complex)
    vec[space.index((1, 0))] = 1.0 / _SQRT2
    vec[space.index((0, 1))] = -1.0 / _SQRT2
    return QuantumState("pure", vec)


def _survival_to_flip(plus_vec: np.ndarray, evolved_plus: np.ndarray) -> float:
    """Flip probability from Sigma_X(t)|+>, given as `evolved_plus`."""
    value = 0.5 * (1.0 - np.vdot(plus_vec, evolved_plus).real)
    if -1e-9 < value < 0.0:
        value = 0.0
    return float(value)


def _project(op: np.ndarray, onto: np.ndarray) -> float:
    """Real coefficient of `onto` in `op` under the Frobenius inner product."""
    return np.vdot(onto, op).real / np.vdot(onto, onto).real


def _leapfrog_mode(drift: float, kick: float, steps: list[int]):
    """Kick-drift-kick steps of one mode's coefficients, recorded at `steps` (from 0).

    The mode's quadratures are q(t) = qq q + qp p and p(t) = pq q + pp p; a kick
    adds `kick` times q to p and a drift adds `drift` times p to q.
    """
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
    mode pair at omega/2. Operator snapshots are built only every
    `record_stride` steps (about 100 records by default), together with the
    flip probability derived from Sigma_X(t) = x(t) y(t) + p_x(t) p_y(t).
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    if t_final < 0.0:
        raise ValueError(f"t_final must be nonnegative, got {t_final}")
    if record_stride is None:
        record_stride = max(1, n_steps // 100)
    elif record_stride < 1:
        raise ValueError(f"record_stride must be at least 1, got {record_stride}")
    steps = list(range(0, n_steps + 1, record_stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    start = quadratures(params)
    rhs = heisenberg_rhs(start, params)
    h = t_final / n_steps
    x_mode = _leapfrog_mode(
        _project(rhs.x, start.p_x) * h, _project(rhs.p_x, start.x) * h / 2.0, steps
    )
    y_mode = _leapfrog_mode(
        _project(rhs.y, start.p_y) * h, _project(rhs.p_y, start.y) * h / 2.0, steps
    )
    plus_vec = plus_state(params).data

    snapshots = []
    probabilities = []
    for (xq, xp, pxq, pxp), (yq, yp, pyq, pyp) in zip(x_mode, y_mode):
        snap = QuadratureSet(
            x=xq * start.x + xp * start.p_x,
            p_x=pxq * start.x + pxp * start.p_x,
            y=yq * start.y + yp * start.p_y,
            p_y=pyq * start.y + pyp * start.p_y,
        )
        sigma_x_plus = snap.x @ (snap.y @ plus_vec) + snap.p_x @ (snap.p_y @ plus_vec)
        snapshots.append(snap)
        probabilities.append(_survival_to_flip(plus_vec, sigma_x_plus))
    return EvolutionResult(
        times=h * np.array(steps, dtype=float),
        operators_at_t=tuple(snapshots),
        probabilities=np.array(probabilities),
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
    The Pauli basis is built once per call, so Sigma_X(t)|+> costs O(dim)
    per time: cos(omega t) Sigma_X|+> + sin(omega t) Sigma_Y|+>.
    """
    base = pauli_set(params)
    plus_vec = plus_state(params).data
    u = base.sigma_x @ plus_vec
    w = base.sigma_y @ plus_vec
    times = np.asarray(t, dtype=float)
    phases = [params.omega * time for time in times.ravel().tolist()]
    values = np.array(
        [_survival_to_flip(plus_vec, math.cos(ph) * u + math.sin(ph) * w) for ph in phases]
    ).reshape(times.shape)
    return float(values) if values.ndim == 0 else values
