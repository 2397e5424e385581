"""Spectral measures of the Pearson families.

The measure attached to a Pearson pair is d(sigma) = C * w(omega) d(omega)
with the fixed representative weight

    Hermite : w = exp((a1*omega^2/2 + a0*omega)/b0)
    Laguerre: w = (omega + b0/b1)^(mu-1) * exp((a1/b1)*omega)
    Jacobi  : w = (omega - a)^(mu-1) * (b - omega)^(nu-1)

``normalize`` picks C so the total mass is 1 (closed Gamma/Beta forms);
``gauss_rule`` produces the Gaussian quadrature of the measure from the
truncated recurrence matrix (Golub-Welsch); ``analyticity_radius`` estimates
the radius of the strip on which exp(y*omega) stays integrable, from the
growth of the absolute moments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.linalg import eigh_tridiagonal

from .orthopoly import (
    HERMITE,
    JACOBI,
    LAGUERRE,
    PearsonData,
    log_weight_mass,
    recurrence,
    scaled_sweep,
)

__all__ = [
    "SpectralMeasure",
    "QuadratureRule",
    "normalize",
    "moment",
    "absolute_moment",
    "gauss_rule",
    "analyticity_radius",
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
        pd = self.pd
        om = np.asarray(omega, dtype=float)
        scalar = om.ndim == 0
        om = np.atleast_1d(om)
        out = np.zeros_like(om)
        lo, hi = pd.support
        inside = (om > lo) & (om < hi)
        x = om[inside]
        if pd.family == HERMITE:
            val = np.exp((pd.a1 * x**2 / 2.0 + pd.a0 * x) / pd.b0)
        elif pd.family == LAGUERRE:
            mu = pd.mu
            u = x + pd.b0 / pd.b1
            val = u ** (mu - 1.0) * np.exp((pd.a1 / pd.b1) * x)
        else:
            a, b = pd.support
            val = (x - a) ** (pd.mu - 1.0) * (b - x) ** (pd.nu - 1.0)
        out[inside] = self.C * val
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


def _quad_measure(sm: SpectralMeasure, f) -> float:
    """Adaptive quadrature of f against the measure, split at omega = 0."""
    lo, hi = sm.pd.support

    def g(w):
        return f(w) * sm.density(w)

    pieces = []
    if lo < 0.0 < hi:
        pieces = [(lo, 0.0), (0.0, hi)]
    else:
        pieces = [(lo, hi)]
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in pieces:
            val, _ = quad(g, a, b, epsabs=0.0, epsrel=1e-12, limit=400)
            total += val
    return total


def moment(sm: SpectralMeasure, k: int) -> float:
    """k-th moment int omega^k dsigma by adaptive quadrature."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _quad_measure(sm, lambda w: w**k)


def absolute_moment(sm: SpectralMeasure, k: int) -> float:
    """k-th absolute moment int |omega|^k dsigma."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _quad_measure(sm, lambda w: abs(w) ** k)


def _log_sum_poly_sq(js, nodes: np.ndarray, N: int) -> np.ndarray:
    """log of sum_{k<N} P_k(x_i)^2 for the orthonormal recurrence polynomials.

    Evaluated on the per-node rescaled sweep so the result is accurate even
    where the sum spans thousands of orders of magnitude (far nodes of rules
    on unbounded supports).
    """
    x = np.asarray(nodes, dtype=float)
    s = np.zeros_like(x)
    total = np.zeros_like(x)  # log(P_0^2) = 0
    for k, u, _ in scaled_sweep(js, x, N - 1, s):
        if k:
            with np.errstate(divide="ignore"):
                total = np.logaddexp(total, 2.0 * (np.log(np.abs(u)) + s))
    return total


def gauss_rule(sm: SpectralMeasure, N: int) -> QuadratureRule:
    """N-point Gaussian rule of the measure.

    Nodes are the eigenvalues of the order-N truncation of the recurrence
    matrix.  Weights come from the Christoffel identity
    w_i = mass / sum_{k<N} P_k(x_i)^2 evaluated in log space; unlike the
    squared first eigenvector components this stays relatively accurate for
    the extremely small far weights of unbounded supports.
    """
    if N < 1:
        raise ValueError("N must be positive")
    js = recurrence(sm.pd)
    b, h = js.arrays(N - 1)
    nodes = eigh_tridiagonal(h, b[1:], eigvals_only=True)
    logw = math.log(sm.mass) - _log_sum_poly_sq(js, nodes, N)
    return QuadratureRule(nodes=nodes, weights=np.exp(logw), log_weights=logw)


def analyticity_radius(sm: SpectralMeasure, n_max: int = 60) -> float:
    """Estimated radius R of the strip of analyticity of the transform.

    Based on the growth law limsup |mu|_n^{1/n} / n = 1/(e*R): the sequence
    a_n = |mu|_n^{1/n}/n is extrapolated linearly in 1/n over the last five
    indices.  If the sequence is still decaying substantially between
    n_max/2 and n_max (ratio < 0.8) it is treated as tending to 0 and R =
    inf is reported.
    """
    if n_max < 4:
        raise ValueError("n_max must be at least 4")

    def a_of(n: int) -> float:
        m = absolute_moment(sm, n)
        return m ** (1.0 / n) / n

    a_end = a_of(n_max)
    a_mid = a_of(max(1, n_max // 2))
    if a_mid > 0.0 and a_end / a_mid < 0.8:
        return math.inf
    ns = np.arange(n_max - 4, n_max + 1)
    vals = np.array([a_of(int(n)) for n in ns])
    coeffs = np.polyfit(1.0 / ns, vals, 1)
    a_inf = coeffs[1]
    if a_inf <= 0.0:
        return math.inf
    return 1.0 / (math.e * a_inf)
