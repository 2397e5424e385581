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

A rule is its nodes and weights.  The weights are Christoffel sums over
one pass of ``scaled_sweep`` at the nodes; ``weighted_rows``, the one
producer of the rows sqrt(w_i) P_k(x_i), runs a second pass over a rule's
nodes to the rows it is asked for.  The sweep measures |u| only when a
growth bound from the ladder and the nodes says it could pass 2^400, and
then rescales the nodes above 2^200 by exact powers of two, which add no
rounding to the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .orthopoly import _SWEEP_BLOCK, PearsonData, _final_frame_sweep, log_weight_mass, recurrence, scaled_sweep

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
    such integrands per node should prefer the logs.  A rule holds no rows:
    ``weighted_rows`` sweeps them over its nodes.
    """

    nodes: np.ndarray
    weights: np.ndarray
    log_weights: np.ndarray

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


def _log_weights(b, h, x, log_mass):
    """log w_i = log_mass - log sum_{k<len(b)} P_k(x_i)^2, Christoffel's weights at the nodes x.

    The sum runs over one scaled_sweep pass in frame blocks of rows: a block
    ends at each multiple of _SWEEP_BLOCK and at each rescale, so its rows
    share one frame.  An ended block's column sums of squares join the
    running sum, which a rescale moves to the new frame at the rescaled nodes
    only: terms that underflow there are negligible next to the current ~1,
    so sums spanning thousands of orders stay accurate.
    """
    n = len(b)
    s = np.zeros_like(x)
    frame = np.zeros_like(x)  # s of the open frame block
    acc = np.zeros_like(x)  # the ended blocks' sum of u_k^2, in that frame
    ring = np.empty((2, min(_SWEEP_BLOCK, n), x.size))
    k0 = 0

    def end(k):  # the open frame block holds rows k0..k - 1, within one aligned block
        a = k0 % _SWEEP_BLOCK
        rows = ring[k0 // _SWEEP_BLOCK % 2][a : a + k - k0]
        np.add(acc, np.einsum("ij,ij->j", rows, rows), out=acc)

    for k, _, rescaled in scaled_sweep(b, h, x, s, lambda a: ring[a // _SWEEP_BLOCK % 2]):
        if k and (k % _SWEEP_BLOCK == 0 or rescaled is not None):
            end(k)
            if rescaled is not None:
                idx = rescaled.nonzero()[0]
                acc[idx] *= np.exp(2.0 * (frame[idx] - s[idx]))
                frame[idx] = s[idx]
            k0 = k
    end(n)
    return log_mass - np.log(acc) - 2.0 * frame


def gauss_rule(sm: SpectralMeasure, N: int) -> QuadratureRule:
    """N-point Gaussian rule of the measure.

    Nodes are the eigenvalues of the order-N truncation of the recurrence
    matrix.  Weights come from the Christoffel identity
    w_i = mass / sum_{k<N} P_k(x_i)^2, summed in the sweep's scaled frame
    and only then taken to logs; unlike the squared first eigenvector
    components this stays relatively accurate for the extremely small far
    weights of unbounded supports.
    """
    if N < 1:
        raise ValueError("N must be positive")
    b, h = recurrence(sm.pd).arrays(N - 1)
    nodes = eigh_tridiagonal(h, b[1:], eigvals_only=True)
    logw = _log_weights(b, h, nodes, math.log(sm.mass))
    return QuadratureRule(nodes, np.exp(logw), logw)


def weighted_rows(sm: SpectralMeasure, nodes: np.ndarray, log_weights: np.ndarray, nrows: int) -> np.ndarray:
    """Rows sqrt(w_i) P_k(x_i), k < nrows, of a rule of ``sm`` with these nodes and log-weights.

    One scaled_sweep writes the rows straight into the output; at a rescale
    the rows already written move to the new frame by the same exact powers
    of two (``_final_frame_sweep``), so all rows end in the sweep's final
    frame s and are scaled once, by exp(log w / 2 + s).  They are
    orthonormal under plain summation over the nodes to the rounding of the
    rule, and bounded by 1.
    """
    if nrows < 1:
        raise ValueError("nrows must be positive")
    Q, s = np.empty((nrows, nodes.size)), np.zeros(nodes.size)
    for _ in _final_frame_sweep(*recurrence(sm.pd).arrays(nrows - 1), nodes, s, Q):
        pass
    Q *= np.exp(0.5 * log_weights + s)
    return Q
