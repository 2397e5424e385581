"""Truncated Fock-basis oracle.

Everything the closed forms claim is re-checkable here by brute force:
single-ladder propagators through the eigendecomposition of the truncated
tridiagonal Hamiltonian, and multi-mode operators applied exactly to sparse
occupation-basis states (dict occupation-tuple -> amplitude, the same
pattern as a hand-written Fock simulator).

Truncation policy: multi-mode bases are cut by total occupation (simplex);
states whose support gets within |l|_1 * (number of applications) of the
cut are contaminated and the strict application mode refuses to produce
them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal

from .errors import CutoffOverflow
from .orthopoly import JacobiSystem
from .propagator import _LRU, _real_matvec
from .reduction import MultiModeSystem, big_g, lambda_of

__all__ = [
    "TruncatedOperator",
    "truncated_h",
    "expm_evolve",
    "MultiModeBasis",
    "multimode_apply",
    "commutator_norm",
    "dense_matrix",
    "eigh_evolve",
    "state_norm",
]

_EIGS = _LRU(64)  # the bench scenarios workload uses 52: 24 ladders at 2 truncations, 4 amplifiers


@dataclass(frozen=True)
class TruncatedOperator:
    """Order-N truncation of a ladder Hamiltonian (tridiagonal storage)."""

    dim: int
    diag: np.ndarray
    off: np.ndarray

    def dense(self) -> np.ndarray:
        m = np.diag(self.diag).astype(complex)
        idx = np.arange(self.dim - 1)
        m[idx, idx + 1] = self.off
        m[idx + 1, idx] = self.off
        return m


def truncated_h(js: JacobiSystem, N: int) -> TruncatedOperator:
    """First N ladder levels of H_I = shift + diagonal."""
    if N < 1:
        raise ValueError("N must be positive")
    if js.dim is not math.inf and N > js.dim:
        raise ValueError(f"N = {N} exceeds the sector dimension {js.dim}")
    b, h = js.arrays(N - 1)
    return TruncatedOperator(dim=N, diag=h, off=b[1:])


def _eig_of(op: TruncatedOperator):
    key = (op.diag.tobytes(), op.off.tobytes())
    return _EIGS.get_or_build(key, lambda: eigh_tridiagonal(op.diag, op.off))


def expm_evolve(op: TruncatedOperator, t: float, vec) -> np.ndarray:
    """exp(-i H t) @ vec through the cached eigendecomposition."""
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (op.dim,):
        raise ValueError(f"vector length {vec.shape} does not match dim {op.dim}")
    w, v = _eig_of(op)
    return _real_matvec(v, np.exp(-1j * w * t) * _real_matvec(v.T, vec))


# -- multi-mode sparse states ----------------------------------------------

class MultiModeBasis:
    """Enumerated occupation basis with an index lookup.

    ``max_total`` cuts by total occupation (simplex); ``max_local`` cuts each
    mode separately (box).  At least one must be given.
    """

    def __init__(self, modes: int, max_total: int | None = None,
                 max_local: int | None = None):
        if max_total is None and max_local is None:
            raise ValueError("need max_total and/or max_local")
        self.modes = modes
        self.max_total = max_total
        self.max_local = max_local
        states: list[tuple[int, ...]] = []

        def rec(prefix, remaining_modes):
            if remaining_modes == 0:
                if max_total is None or sum(prefix) <= max_total:
                    states.append(tuple(prefix))
                return
            cap = max_local if max_local is not None else max_total - sum(prefix)
            if max_total is not None:
                cap = min(cap, max_total - sum(prefix))
            for n in range(cap + 1):
                rec(prefix + [n], remaining_modes - 1)

        rec([], modes)
        states.sort()
        self.states = states
        self.index = {s: i for i, s in enumerate(states)}

    def __len__(self):
        return len(self.states)

    def __contains__(self, occ):
        return tuple(occ) in self.index


def _amp_raise(occ, l):
    """Amplitude factor of the monomial part of A* at occ (and of A at occ + l)."""
    amp2 = 1.0
    for m, lj in zip(occ, l):
        if lj > 0:  # create lj quanta
            for k in range(1, lj + 1):
                amp2 *= m + k
        elif lj < 0:  # annihilate |lj| quanta
            for k in range(-lj):
                f = m - k
                if f <= 0:
                    return 0.0
                amp2 *= f
    return math.sqrt(amp2)


def _apply_term(sys: MultiModeSystem, term, v: dict, cutoff: int,
                on_overflow: str) -> dict:
    out: dict = {}

    def add(occ, amp):
        if amp == 0.0:
            return
        if any(m < 0 for m in occ):
            return
        if sum(occ) > cutoff:
            if on_overflow == "raise":
                raise CutoffOverflow(
                    f"occupation {occ} exceeds the simplex cutoff {cutoff}"
                )
            return  # projected away
        out[occ] = out.get(occ, 0.0) + amp

    if isinstance(term, tuple) and term[0] == "Aj":
        i = term[1]
        for occ, c in v.items():
            add(occ, c * float(lambda_of(sys, occ)[i]))
        return out

    for occ, c in v.items():
        if term in ("A", "HI"):
            dst = tuple(m - lj for m, lj in zip(occ, sys.l))
            if all(m >= 0 for m in dst):
                add(dst, c * sys.g_at(dst) * _amp_raise(dst, sys.l))
        if term in ("Astar", "HI"):
            dst = tuple(m + lj for m, lj in zip(occ, sys.l))
            if all(m >= 0 for m in dst):
                add(dst, c * np.conjugate(sys.g_at(occ)) * _amp_raise(occ, sys.l))
        if term == "HI":
            add(occ, c * sys.h_at(occ))
        elif term == "H0":
            add(occ, c * float(np.dot(sys.omega, occ)))
    return out


def multimode_apply(sys: MultiModeSystem, term, v: dict, cutoff: int,
                    on_overflow: str = "raise") -> dict:
    """Apply a named operator to a sparse occupation state.

    term is one of "A", "Astar", "H0", "HI" or ("Aj", i).  Amplitudes that
    would leave the simplex {total <= cutoff} raise CutoffOverflow unless
    on_overflow="project".
    """
    if term not in ("A", "Astar", "H0", "HI") and not (
        isinstance(term, tuple) and len(term) == 2 and term[0] == "Aj"
    ):
        raise ValueError(f"unknown term {term!r}")
    return _apply_term(sys, term, v, cutoff, on_overflow)


def state_norm(v: dict) -> float:
    return math.sqrt(sum(abs(c) ** 2 for c in v.values()))


def commutator_norm(sys: MultiModeSystem, term1, term2, cutoff: int) -> float:
    """max over interior basis states of ||[T1, T2]|m>||.

    Interior means total occupation <= cutoff - 2*|l|_1, so both orders of
    application stay representable.
    """
    margin = 2 * sum(abs(lj) for lj in sys.l)
    interior = MultiModeBasis(sys.M_plus_1, max_total=max(0, cutoff - margin))
    worst = 0.0
    for occ in interior.states:
        v = {occ: 1.0}
        xy = multimode_apply(sys, term2, multimode_apply(sys, term1, v, cutoff), cutoff)
        yx = multimode_apply(sys, term1, multimode_apply(sys, term2, v, cutoff), cutoff)
        diff = dict(xy)
        for k, c in yx.items():
            diff[k] = diff.get(k, 0.0) - c
        worst = max(worst, state_norm(diff))
    return worst


def dense_matrix(sys: MultiModeSystem, term, basis: MultiModeBasis) -> np.ndarray:
    """Matrix of a named operator projected onto ``basis`` (P T P)."""
    cutoff = basis.max_total if basis.max_total is not None else 10**9
    n = len(basis)
    mat = np.zeros((n, n), dtype=complex)
    for j, occ in enumerate(basis.states):
        image = multimode_apply(sys, term, {occ: 1.0}, cutoff, on_overflow="project")
        for dst, amp in image.items():
            i = basis.index.get(dst)
            if i is not None:
                mat[i, j] = amp
    return mat


def eigh_evolve(h: np.ndarray, t: float | np.ndarray, vec) -> np.ndarray:
    """exp(-i h t) @ vec for a dense Hermitian h, eigendecomposition cached.

    ``t`` is a time or a 1-d array of times; an array gives one row per time.
    """
    key = hashlib.sha1(np.ascontiguousarray(h)).hexdigest()
    w, v = _EIGS.get_or_build(key, lambda: eigh(h))
    coef = (np.asarray(vec, dtype=complex).conj() @ v).conj()  # v^H vec, no copy of v
    x = np.exp(-1j * np.multiply.outer(t, w)) * coef
    return v @ x if x.ndim == 1 else x @ v.T
