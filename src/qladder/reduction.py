"""Reduction of multi-mode interaction Hamiltonians to ladder form.

A system of M+1 oscillator modes with free frequencies omega_j interacts
through a single normally-ordered monomial channel

    A = g(n_0, ..., n_M) * a_0^{l_0} ... a_M^{l_M},

negative powers denoting creators.  The linear combinations A_i =
sum_j alpha_ij n_j (alpha * l = e_0) turn every A_i with i >= 1 into a
conserved quantity; on a joint eigenspace ("sector") the pair (A, A*) acts
as a weighted shift on the chain of occupations reachable from the
pseudo-vacuum, i.e. a Jacobi ladder with

    b(n)^2 = G(occupation n-1 steps up the ladder),

where G(m) = |g(m)|^2 * prod_{l_j>0} (m_j+1)...(m_j+l_j)
                      * prod_{l_j<0} m_j (m_j-1)...(m_j+l_j+1)
is the squared norm of A* applied at occupation m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import null_space

from .errors import ConstraintViolated, NoPseudoVacuum, Singular
from .orthopoly import JacobiSystem

__all__ = [
    "MultiModeSystem",
    "Sector",
    "default_alpha",
    "validate_alpha",
    "lambda_of",
    "gamma_coeffs",
    "big_g",
    "find_pseudo_vacuum",
    "reduce",
    "occupation_on_ladder",
    "beta_offsets",
]


def default_alpha(l: Sequence[int]) -> np.ndarray:
    """Canonical mode-combination matrix for exponent vector l.

    Row 0 is l/|l|^2 (so alpha @ l = e_0); the remaining rows are an
    orthonormal basis of the orthogonal complement of l.
    """
    lv = np.asarray(l, dtype=float)
    norm2 = float(lv @ lv)
    if norm2 == 0.0:
        raise ValueError("exponent vector l must be nonzero")
    rows = [lv / norm2]
    comp = null_space(lv[None, :])  # shape (M+1, M)
    for k in range(comp.shape[1]):
        rows.append(comp[:, k])
    return np.array(rows)


@dataclass(frozen=True)
class MultiModeSystem:
    """Frequencies, channel exponents, coupling and diagonal of one channel.

    ``g`` is either a complex constant or a map occupation-tuple -> complex
    (evaluated at the lower end of the transition, i.e. A|m> carries
    g(m - l)).  ``h_diag`` is a real constant or occupation map giving the
    diagonal part of the interaction.  ``alpha`` defaults to
    default_alpha(l).
    """

    omega: tuple[float, ...]
    l: tuple[int, ...]
    g: complex | Callable = 1.0
    h_diag: float | Callable = 0.0
    alpha: np.ndarray | None = None

    def __post_init__(self):
        if len(self.omega) != len(self.l):
            raise ValueError("omega and l must have the same length")
        if self.alpha is None:
            object.__setattr__(self, "alpha", default_alpha(self.l))

    @property
    def M_plus_1(self) -> int:
        return len(self.l)

    def g_at(self, occ) -> complex:
        return self.g(tuple(occ)) if callable(self.g) else complex(self.g)

    def h_at(self, occ) -> float:
        return float(self.h_diag(tuple(occ))) if callable(self.h_diag) else float(self.h_diag)


@dataclass(frozen=True)
class Sector:
    """Invariant-subspace label: conserved lambdas and the pseudo-vacuum."""

    lambda_rest: tuple[float, ...]
    pseudo_vacuum_occupation: tuple[int, ...]
    lambda00: float


def validate_alpha(sys: MultiModeSystem, tol: float = 1e-10) -> None:
    """Check invertibility of alpha and the constraint alpha @ l = e_0."""
    alpha = np.asarray(sys.alpha, dtype=float)
    n = sys.M_plus_1
    if alpha.shape != (n, n):
        raise ValueError(f"alpha must be {n}x{n}, got {alpha.shape}")
    if np.linalg.matrix_rank(alpha) < n or np.linalg.cond(alpha) > 1e12:
        raise Singular("alpha is numerically singular")
    target = np.zeros(n)
    target[0] = 1.0
    got = alpha @ np.asarray(sys.l, dtype=float)
    for i in range(n):
        if abs(got[i] - target[i]) > tol:
            raise ConstraintViolated(i, f"(alpha @ l)[{i}] = {got[i]}, want {target[i]}")


def lambda_of(sys: MultiModeSystem, occ) -> np.ndarray:
    """The A_i eigenvalues of an occupation vector."""
    return np.asarray(sys.alpha, dtype=float) @ np.asarray(occ, dtype=float)


def gamma_coeffs(sys: MultiModeSystem) -> np.ndarray:
    """Coefficients gamma with H_0 = sum_i gamma_i A_i (solve alpha^T gamma = omega).

    gamma_0 always equals sum_j omega_j l_j; this identity is asserted to
    1e-12 as an internal consistency check.
    """
    validate_alpha(sys)
    alpha = np.asarray(sys.alpha, dtype=float)
    omega = np.asarray(sys.omega, dtype=float)
    gamma = np.linalg.solve(alpha.T, omega)
    direct = float(np.dot(omega, np.asarray(sys.l, dtype=float)))
    if abs(gamma[0] - direct) > 1e-12 * max(1.0, abs(direct)):
        raise Singular(
            f"gamma_0 = {gamma[0]} disagrees with sum omega_j l_j = {direct}"
        )
    return gamma


def big_g(sys: MultiModeSystem, occ) -> float:
    """Squared norm of A* applied at occupation ``occ`` (>= 0, clamped).

    Returns 0 whenever a descending factor crosses zero or any component of
    ``occ`` is negative (transitions out of the lattice).
    """
    occ = tuple(int(round(x)) for x in occ)
    if any(m < 0 for m in occ):
        return 0.0
    amp = 1.0
    for m, lj in zip(occ, sys.l):
        if lj > 0:
            for k in range(1, lj + 1):
                amp *= m + k
        elif lj < 0:
            for k in range(-lj):
                f = m - k
                if f <= 0:
                    return 0.0
                amp *= f
    gval = sys.g_at(occ)
    return float(abs(gval) ** 2) * amp


def find_pseudo_vacuum(sys: MultiModeSystem, start) -> tuple[int, ...]:
    """Walk down the ladder from ``start`` until A annihilates the state.

    Each step subtracts l from the occupation; the walk stops at the first
    occupation m with G(m - l) = 0, i.e. A|m> = 0.  If every l_j <= 0 the
    channel is purely creating and no pseudo-vacuum exists.
    """
    occ = tuple(int(round(x)) for x in start)
    if any(m < 0 for m in occ):
        raise ValueError("occupations must be nonnegative")
    if all(lj <= 0 for lj in sys.l):
        raise NoPseudoVacuum("channel only creates quanta; the ladder is unbounded below")
    while True:
        below = tuple(m - lj for m, lj in zip(occ, sys.l))
        if big_g(sys, below) == 0.0:
            return occ
        occ = below


def occupation_on_ladder(sector: Sector, l: Sequence[int], n: int) -> tuple[int, ...]:
    """Occupation of the n-th ladder state above the pseudo-vacuum."""
    return tuple(m + n * lj for m, lj in zip(sector.pseudo_vacuum_occupation, l))


def reduce(sys: MultiModeSystem, start) -> tuple[JacobiSystem, Sector]:
    """Reduce one sector of the system to its Jacobi ladder.

    ``start`` is any occupation in the sector.  Returns the ladder
    (b, h, dim, gamma0) and the sector data.  dim is infinite exactly when
    every l_j >= 0.
    """
    validate_alpha(sys)
    pv = find_pseudo_vacuum(sys, start)
    lam = lambda_of(sys, pv)
    sector = Sector(
        lambda_rest=tuple(float(x) for x in lam[1:]),
        pseudo_vacuum_occupation=pv,
        lambda00=float(lam[0]),
    )
    lvec = sys.l
    if all(lj >= 0 for lj in lvec):
        dim: float | int = math.inf
    else:
        dim = 1 + min(m // (-lj) for m, lj in zip(pv, lvec) if lj < 0)

    def b(n: int) -> float:
        if n < 1 or (dim is not math.inf and n >= dim):
            return 0.0
        return math.sqrt(big_g(sys, occupation_on_ladder(sector, lvec, n - 1)))

    def h(n: int) -> float:
        return sys.h_at(occupation_on_ladder(sector, lvec, n))

    gamma0 = float(np.dot(np.asarray(sys.omega), np.asarray(lvec, dtype=float)))
    # JacobiSystem takes level arrays; the occupation maps stay per level
    js = JacobiSystem(b=np.vectorize(b, otypes=[float]), h=np.vectorize(h, otypes=[float]),
                      dim=dim, gamma0=gamma0)
    return js, sector


def beta_offsets(sys: MultiModeSystem, sector: Sector) -> np.ndarray:
    """Constant part of <n_j> in terms of <A_0>: n_j = l_j A_0 + beta_j.

    beta_j = sum_{i>=1} (alpha^{-1})_{ji} lambda_i on the sector.  (Column 0
    of alpha^{-1} is l itself, by the constraint.)
    """
    alpha_inv = np.linalg.inv(np.asarray(sys.alpha, dtype=float))
    lam = np.concatenate(([0.0], sector.lambda_rest))
    return alpha_inv @ lam
