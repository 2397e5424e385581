"""Spectral measures of the Pearson families.

The measure attached to a Pearson pair is d(sigma) = C * w(omega) d(omega)
with the fixed representative weight (``PearsonData.weight``)

    Hermite : w = exp((a1*omega^2/2 + a0*omega)/b0)
    Laguerre: w = (omega + b0/b1)^(mu-1) * exp((a1/b1)*omega)
    Jacobi  : w = (omega - a)^(mu-1) * (b - omega)^(nu-1)

``normalize`` picks C so the total mass is 1 (closed Gamma/Beta forms);
``moment`` reads the moments off the Pearson equation: multiplying
(w*B)' = w*A by omega^j and integrating over the support, where w*B
vanishes at both ends, gives

    (a1 + j*b2) m_{j+1} = -(a0 + j*b1) m_j - j*b0 m_{j-1},

started from the total mass; ``gauss_rule`` produces the Gaussian quadrature
of the measure from the truncated recurrence matrix (Golub-Welsch).

Its weights are Christoffel sums over one pass of ``scaled_sweep`` at the
nodes, and the same pass writes the weighted rows sqrt(w_i) P_k(x_i) a
caller asks for beside the rule; ``weighted_rows`` runs that pass over the
nodes of a rule already built, so there is one sweep consumer for rules and
rows alike.  The sweep writes each block of 64 rows straight into the rows
kept, or into a ring of two blocks past them, from one x - h(k) array per
block; it measures |u| only when a growth bound from the ladder and the
nodes says it could pass 2^400, and then rescales the nodes above 2^200 by
exact powers of two, which add no rounding to the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .orthopoly import _SWEEP_BLOCK, PearsonData, _log_row, log_weight_mass, recurrence, scaled_sweep

__all__ = [
    "SpectralMeasure",
    "QuadratureRule",
    "normalize",
    "moment",
    "gauss_rule",
    "weighted_rows",
]


@dataclass(frozen=True)
class SpectralMeasure:
    """A Pearson pair together with a multiplicative constant C."""

    pd: PearsonData
    C: float

    @property
    def mass(self) -> float:
        """Total mass C * int w."""
        return self.C * math.exp(log_weight_mass(self.pd))

    def density(self, omega):
        """C * w(omega), elementwise; 0 outside the open support."""
        om = np.asarray(omega, dtype=float)
        scalar = om.ndim == 0
        om = np.atleast_1d(om)
        out = np.zeros_like(om)
        lo, hi = self.pd.support
        inside = (om > lo) & (om < hi)
        out[inside] = self.C * self.pd.weight(om[inside])
        return out[0] if scalar else out


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule of a spectral measure.

    ``log_weights`` carries the weights in log form; on unbounded supports
    the far weights underflow double precision while still mattering for
    integrands that grow against the measure, so downstream code assembling
    such integrands per node should prefer the logs.  ``rows`` and
    ``log_rows``, when asked of ``gauss_rule``, hold the weighted rows
    sqrt(w_i) P_k(x_i) and the log-form rows (log|P_k(x_i)|, sign P_k(x_i))
    its sweep wrote.
    """

    nodes: np.ndarray
    weights: np.ndarray
    log_weights: np.ndarray
    rows: np.ndarray | None = None
    log_rows: dict | None = None

    @property
    def nbytes(self) -> int:
        """Bytes of the nodes, weights and log-weights (what a rule cache keeps)."""
        return self.nodes.nbytes + self.weights.nbytes + self.log_weights.nbytes


def normalize(pd: PearsonData) -> SpectralMeasure:
    """The probability-normalized measure of ``pd`` (closed-form C)."""
    return SpectralMeasure(pd, math.exp(-log_weight_mass(pd)))


def moment(sm: SpectralMeasure, k: int) -> float:
    """k-th moment int omega^k dsigma from the Pearson recurrence.

    (a1 + j*b2) m_{j+1} = -(a0 + j*b1) m_j - j*b0 m_{j-1} from m_0 = mass;
    it holds because w*B vanishes at both ends of the support, and
    a1 + j*b2 < 0 for every j >= 0 in the normalized gauge.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    pd = sm.pd
    prev, cur = 0.0, sm.mass
    for j in range(k):
        prev, cur = cur, -((pd.a0 + j * pd.b1) * cur + j * pd.b0 * prev) / (pd.a1 + j * pd.b2)
    return cur


def _sweep_rows(b, h, x, nrows, logw=None, log_mass=0.0, log_rows=()):
    """(logw, Q, logs) with Q[k] = sqrt(w_i) P_k(x_i), k < nrows, from one scaled_sweep pass.

    With ``logw`` None the pass runs over every k < len(b) and the weights
    are Christoffel's, w_i = exp(log_mass) / sum_k P_k(x_i)^2; given ``logw``
    it only builds the rows (b, h then need no more than nrows entries).
    ``logs`` maps each k in ``log_rows`` to (log|P_k(x_i)|, sign P_k(x_i)),
    read off the same pass with no weight applied, so far nodes never flush
    to zero.

    The sweep writes each aligned block of _SWEEP_BLOCK rows straight into
    Q when the block lies below nrows, and otherwise into one of two ring
    blocks, whose kept rows are copied out when the block ends.  A frame
    block of rows ends at each multiple of _SWEEP_BLOCK and at each rescale,
    so its rows share one frame and none is ever corrected.  An ended
    block's column sums of squares join the running sum, which a rescale
    moves to the new frame at the rescaled nodes only: terms that underflow
    there are negligible next to the current ~1, so sums spanning thousands
    of orders stay accurate.  Once the weights are known, each block of Q
    is multiplied by exp(log sqrt(w_i) + s_i) of its frame s.  Blocks end
    where they would for any nrows, so rows and weights do not depend on
    nrows, bit for bit.
    """
    n = len(b)
    if not 0 <= nrows <= n or any(not 0 <= k < n for k in log_rows):
        raise ValueError(f"rows 0..{nrows - 1} and {tuple(log_rows)} are not within the {n} levels swept")
    s = np.zeros_like(x)
    frame = np.zeros_like(x)  # s of the open frame block
    acc = np.zeros_like(x)  # the ended blocks' sum of u_k^2, in that frame
    Q = np.empty((nrows, x.size))
    ring = np.empty((2, min(_SWEEP_BLOCK, n), x.size))
    kept, logs = [], {}  # kept: (k0, k1, change) per block of Q; change: the (nodes, frame) of its opening rescale
    k0, change = 0, None

    def block(a):  # the rows of the aligned block a..a + _SWEEP_BLOCK - 1
        return Q[a : a + _SWEEP_BLOCK] if min(a + _SWEEP_BLOCK, n) <= nrows else ring[a // _SWEEP_BLOCK % 2]

    def end(k):  # the open frame block holds rows k0..k - 1
        a = k0 - k0 % _SWEEP_BLOCK
        blk = block(a)
        rows = blk[k0 - a : k - a]
        if logw is None:
            np.add(acc, np.einsum("ij,ij->j", rows, rows), out=acc)
        for j in log_rows:
            if k0 <= j < k:
                logs[j] = _log_row(rows[j - k0], frame)
        if k0 < nrows:
            if blk.base is ring:
                Q[k0 : min(k, nrows)] = rows[: nrows - k0]
            kept.append((k0, min(k, nrows), change))

    for k, _, rescaled in scaled_sweep(b, h, x, s, block):
        if k and (k % _SWEEP_BLOCK == 0 or rescaled is not None):
            end(k)
            change = None
            if rescaled is not None:
                idx = rescaled.nonzero()[0]
                change = (idx, s[idx])
                acc[idx] *= np.exp(2.0 * (frame[idx] - change[1]))
                frame[idx] = change[1]
            k0 = k
    end(n)
    if logw is None:
        logw = log_mass - np.log(acc) - 2.0 * frame
    half = 0.5 * logw
    scale = np.exp(half)
    for k0, k1, change in kept:
        if change is not None:
            idx, new = change
            scale[idx] = np.exp(half[idx] + new)
        Q[k0:k1] *= scale
    return logw, Q, logs


def gauss_rule(sm: SpectralMeasure, N: int, rows: int = 0, log_rows=()) -> QuadratureRule:
    """N-point Gaussian rule of the measure, with its first ``rows`` weighted rows.

    Nodes are the eigenvalues of the order-N truncation of the recurrence
    matrix.  Weights come from the Christoffel identity
    w_i = mass / sum_{k<N} P_k(x_i)^2, summed in the sweep's scaled frame
    and only then taken to logs; unlike the squared first eigenvector
    components this stays relatively accurate for the extremely small far
    weights of unbounded supports.  The same sweep writes the rows
    sqrt(w_i) P_k(x_i), k < ``rows``, into ``rule.rows`` (None for 0 rows)
    and the log-form rows of the degrees in ``log_rows`` into
    ``rule.log_rows`` (None if none); ``weighted_rows`` gives the same rows
    of a rule built without them.
    """
    if N < 1:
        raise ValueError("N must be positive")
    b, h = recurrence(sm.pd).arrays(N - 1)
    nodes = eigh_tridiagonal(h, b[1:], eigvals_only=True)
    logw, Q, logs = _sweep_rows(b, h, nodes, rows, log_mass=math.log(sm.mass), log_rows=log_rows)
    return QuadratureRule(nodes, np.exp(logw), logw, Q if rows else None, logs if log_rows else None)


def weighted_rows(sm: SpectralMeasure, rule: QuadratureRule, nrows: int) -> np.ndarray:
    """Rows sqrt(w_i) P_k(x_i), k < nrows, of a rule of ``sm``.

    The sweep of ``gauss_rule`` over rows 0..nrows - 1 alone, with the
    rule's log-weights: bit for bit the rows ``gauss_rule(sm, N, nrows)``
    returns.  They are exactly orthonormal under plain summation over the
    nodes, and bounded by 1.
    """
    if nrows < 1:
        raise ValueError("nrows must be positive")
    b, h = recurrence(sm.pd).arrays(nrows - 1)
    return _sweep_rows(b, h, rule.nodes, nrows, logw=rule.log_weights)[1]
