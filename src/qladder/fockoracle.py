"""Truncated Fock-basis oracle.

Everything the closed forms claim is re-checkable here by brute force:
single-ladder propagators through the eigendecomposition of the truncated
tridiagonal Hamiltonian, and multi-mode operators applied exactly to sparse
occupation-basis states (dict occupation-tuple -> amplitude, the same
pattern as a hand-written Fock simulator).

Every evolution runs through one kernel, ``_evolve_blocks``: exp(-iHt) on
eigendecomposed blocks, of a vector or of start columns, at a time or over a
1-d grid of times, with one exponential for the phases of every block, the
blocks kept in one byte-bounded cache.  ``expm_evolve``
is one block, the truncated ladder.  ``interaction_evolve`` builds multi-mode
H_I on a basis as sparse entries, by index arithmetic over the occupation array,
and splits it into the connected components of its pattern (the invariant
sectors, found without any sector labels, so the oracle stays independent of
:mod:`qladder.reduction`); the two-mode amplifier at truncation 34 is 69 blocks
of at most 35 levels instead of one dense 1,225-level matrix.  ``eigh_evolve``
splits a dense Hermitian matrix the same way, uncached, and ``dense_matrix``
keeps the dict route as the independent reference.

Truncation policy: multi-mode bases are cut by total occupation (simplex);
states whose support gets within |l|_1 * (number of applications) of the
cut are contaminated and the strict application mode refuses to produce
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal

from .errors import CutoffOverflow
from .orthopoly import JacobiSystem
from .propagator import _LRU, _real_matvec
from .reduction import MultiModeSystem, lambda_of

__all__ = [
    "TruncatedOperator",
    "truncated_h",
    "expm_evolve",
    "MultiModeBasis",
    "multimode_apply",
    "commutator_norm",
    "dense_matrix",
    "eigh_evolve",
    "interaction_evolve",
    "state_norm",
]

# Ladder blocks (keyed by the bytes of diag and off) and multi-mode blocks,
# the most recently used within 64 slots and 64 MiB.
_BLOCKS = _LRU(64, 64 * 2**20)


@dataclass(frozen=True)
class TruncatedOperator:
    """Order-N truncation of a ladder Hamiltonian (tridiagonal storage)."""

    dim: int
    diag: np.ndarray
    off: np.ndarray

    def dense(self) -> np.ndarray:
        m = np.diag(self.diag)
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


def expm_evolve(op: TruncatedOperator, t: float | np.ndarray, vec) -> np.ndarray:
    """exp(-i H t) @ vec on H's cached eigendecomposition, as ``_evolve_blocks``."""
    key = (op.diag.tobytes(), op.off.tobytes())
    blocks = _BLOCKS.get_or_build(
        key, lambda: [(np.arange(op.dim), *eigh_tridiagonal(op.diag, op.off))])
    return _evolve_blocks(op.dim, blocks, t, vec)


# -- multi-mode sparse states ----------------------------------------------

class MultiModeBasis:
    """Enumerated occupation basis with an index lookup.

    ``max_total`` cuts by total occupation (simplex); ``max_local`` cuts each
    mode separately (box).  At least one must be given.  ``occupations`` holds
    the states as rows of an integer array, in the order of ``states``.
    """

    def __init__(self, modes: int, max_total: int | None = None,
                 max_local: int | None = None):
        if max_total is None and max_local is None:
            raise ValueError("need max_total and/or max_local")
        self.modes = modes
        self.max_total = max_total
        self.max_local = max_local
        self._radix = min(c for c in (max_total, max_local) if c is not None) + 1
        occ = np.indices((self._radix,) * modes).reshape(modes, -1).T  # sorted, like product
        if max_total is not None:
            occ = occ[occ.sum(axis=1) <= max_total]
        self.occupations = occ
        self._codes = self._code(occ)
        self.states = list(map(tuple, occ.tolist()))
        self.index = {s: i for i, s in enumerate(self.states)}

    def __len__(self):
        return len(self.states)

    def _code(self, occ: np.ndarray) -> np.ndarray:
        return occ @ self._radix ** np.arange(self.modes - 1, -1, -1)

    def locate(self, occ: np.ndarray) -> np.ndarray:
        """Index of each row of ``occ`` in the basis, -1 where it is not a state."""
        inside = np.all((occ >= 0) & (occ < self._radix), axis=1)
        code = np.where(inside, self._code(occ), -1)
        i = np.minimum(np.searchsorted(self._codes, code), len(self._codes) - 1)
        return np.where(inside & (self._codes[i] == code), i, -1)


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


def _interaction_entries(sys: MultiModeSystem, basis: MultiModeBasis):
    """(rows, cols, values) of the nonzero entries of P H_I P on ``basis``.

    The A* entry from each state to its image one step up, the adjoint A
    entry back, and the diagonal: the same amplitudes as ``multimode_apply``,
    found by index arithmetic over ``basis.occupations``.
    """
    occ = basis.occupations
    up_index = basis.locate(occ + np.asarray(sys.l))
    src = np.flatnonzero(up_index >= 0)
    dst = up_index[src]
    amp2 = np.ones(src.size)
    for m, lj in zip(occ[src].T, sys.l):
        for k in range(1, lj + 1) if lj > 0 else range(0, lj, -1):
            amp2 *= m + k  # lj < 0 annihilates: factors m, m - 1, ..
    if callable(sys.g):
        g = np.array([sys.g_at(o) for o in occ[src].tolist()], dtype=complex)
    else:
        g = complex(sys.g)
    up = np.conjugate(g) * np.sqrt(amp2)
    if callable(sys.h_diag):
        diag = np.array([sys.h_at(o) for o in occ.tolist()])
    else:
        diag = np.full(len(basis), float(sys.h_diag))
    rows = np.concatenate((dst, src, np.arange(len(basis))))
    cols = np.concatenate((src, dst, np.arange(len(basis))))
    vals = np.concatenate((up, np.conjugate(up), diag))
    keep = vals != 0
    return rows[keep], cols[keep], vals[keep]


def _eigh_blocks(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> list:
    """Eigendecomposition of an n x n Hermitian matrix given by its nonzero
    entries, one (indices, eigenvalues, eigenvectors) per connected block."""
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    count, label = connected_components(
        coo_array((np.ones(rows.size), (rows, cols)), shape=(n, n)), directed=False)
    order = np.argsort(label, kind="stable")  # each block's indices ascending
    starts = np.searchsorted(label[order], np.arange(count + 1))
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n) - starts[label[order]]
    by_block = np.argsort(label[rows], kind="stable")
    ends = np.searchsorted(label[rows][by_block], np.arange(count + 1))
    blocks = []
    for b in range(count):
        idx, e = order[starts[b]: starts[b + 1]], by_block[ends[b]: ends[b + 1]]
        m = np.zeros((idx.size, idx.size), dtype=vals.dtype)
        m[pos[rows[e]], pos[cols[e]]] = vals[e]
        blocks.append((idx, *eigh(m)))
    return blocks


def _evolve_blocks(n: int, blocks: list, t, vec) -> np.ndarray:
    """exp(-i h t) @ vec on the eigendecomposed blocks of the n x n h, ``vec`` a vector or
    an (n, W) matrix of start columns; a 1-d ``t`` gives one per time (t.shape + vec.shape)."""
    vec = np.asarray(vec, dtype=complex)
    if vec.ndim not in (1, 2) or len(vec) != n:
        raise ValueError(f"vector shape {vec.shape} does not match dim {n}")
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape + vec.shape[1:] + (n,), dtype=complex)  # levels last while blocks fill them
    tx = t.reshape(t.shape + (1,) * (vec.ndim - 1))  # the times against the columns
    ws = [w for _, w, _ in blocks]  # one exponential over every block's eigenvalues
    phases = np.exp(-1j * np.multiply.outer(tx, ws[0] if len(ws) == 1 else np.concatenate(ws)))
    lo = 0
    for idx, w, v in blocks:
        phase = phases[..., lo:lo + len(w)]
        lo += len(w)
        if v.dtype.kind == "f":  # no complex copy of a real v
            out[..., idx] = _real_matvec(v, (phase * _real_matvec(v.T, vec[idx]).T).T).T
        else:
            coef = (vec[idx].T.conj() @ v).conj()  # v^H vec without forming v^H
            out[..., idx] = (phase * coef) @ v.T
    return out.swapaxes(-1, t.ndim)


def eigh_evolve(h: np.ndarray, t: float | np.ndarray, vec) -> np.ndarray:
    """exp(-i h t) @ vec for a dense Hermitian h, one eigendecomposition per block.

    The blocks are the connected components of h's nonzero pattern; nothing
    is cached, since a dense h has no key cheaper than itself.  ``t`` is a
    time or a 1-d array of times; an array gives one row per time.
    """
    rows, cols = np.nonzero(h)
    return _evolve_blocks(len(h), _eigh_blocks(len(h), rows, cols, h[rows, cols]), t, vec)


def interaction_evolve(sys: MultiModeSystem, basis: MultiModeBasis,
                       t: float | np.ndarray, vec) -> np.ndarray:
    """exp(-i P H_I P t) @ vec on ``basis``, H_I never formed as a dense matrix.

    The block eigendecompositions are cached under the system and the basis
    parameters (H_I does not depend on ``sys.alpha``).  ``t`` is a time or a
    1-d array of times; an array gives one row per time.
    """
    key = (tuple(sys.omega), tuple(sys.l), sys.g, sys.h_diag,
           basis.modes, basis.max_total, basis.max_local)
    blocks = _BLOCKS.get_or_build(
        key, lambda: _eigh_blocks(len(basis), *_interaction_entries(sys, basis)))
    return _evolve_blocks(len(basis), blocks, t, vec)
