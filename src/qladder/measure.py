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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .orthopoly import PearsonData, log_weight_mass, recurrence, scaled_sweep

__all__ = [
    "SpectralMeasure",
    "QuadratureRule",
    "normalize",
    "moment",
    "gauss_rule",
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
    such integrands per node should prefer the logs.
    """

    nodes: np.ndarray
    weights: np.ndarray
    log_weights: np.ndarray


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


def _log_sum_poly_sq(b: np.ndarray, h: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """log of sum_{k<N} P_k(x_i)^2 for the ladder arrays b, h of length N.

    Summed in the sweep's own scaled frame, sum_k u_k^2 = exp(-2 s) sum_k
    P_k^2, with no per-step log: where the sweep rescales a node by f the
    partial sum is multiplied by 1/f^2.  Terms stay below 1e240, and those
    that underflow after a rescale are negligible next to the current one
    (~1), so far nodes whose sums span thousands of orders stay accurate.
    """
    x = np.asarray(nodes, dtype=float)
    s = np.zeros_like(x)
    seen = np.zeros_like(x)  # the log scale acc is expressed in
    acc = np.ones_like(x)  # P_0^2
    sq = np.empty_like(x)
    for k, u, rescaled in scaled_sweep(b, h, x, s):
        if rescaled is not None:
            acc[rescaled] *= np.exp(2.0 * (seen[rescaled] - s[rescaled]))
            seen[rescaled] = s[rescaled]
        if k:
            acc += np.multiply(u, u, out=sq)
    return np.log(acc) + 2.0 * s


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
    logw = math.log(sm.mass) - _log_sum_poly_sq(b, h, nodes)
    return QuadratureRule(nodes=nodes, weights=np.exp(logw), log_weights=logw)

