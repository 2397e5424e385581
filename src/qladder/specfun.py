"""Special functions used by the closed-form spectral formulas.

Hypergeometric series with explicit convergence control, scalar or one
Kummer row at a time, and Whittaker W from the Euler integral of U, summed
on fixed double-exponential nodes (numpy over one node window per call, no
adaptive quadrature).  ``log_whittaker_w`` is on the hot path of the Jacobi
reproducing density.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, Unsupported

__all__ = [
    "ln_gamma",
    "hyp1f1",
    "hyp1f1_row",
    "log_whittaker_w",
]

# hypergeometric series stop once a term falls below _REL_TOL of the sum,
# and raise ConvergenceError after _MAX_TERMS terms
_REL_TOL = 1e-14
_MAX_TERMS = 10000
# double-exponential nodes of the Euler integral of U: t = exp(v), v = u - e^{-u}, u from -42
# to 760 in steps _H, with log(1 + t) and log(_H dv/du) per node (0.4 MB in all).  u = -42 puts
# t^a below e^-60 for a down to 1e-16; u = 760 puts x t past 200 for x down to 5e-324.
_H = 1.0 / 16
_U = np.arange(-42 * 16, 760 * 16 + 1) * _H
_V = _U - np.exp(-_U)
_LOG1P_T = np.logaddexp(0.0, _V)
_LOG_DV = np.log(_H * (1.0 + np.exp(-_U)))


def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0 (thin wrapper, stdlib does the work)."""
    if x <= 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _is_nonpositive_int(x) -> bool:
    if isinstance(x, complex):
        if x.imag != 0.0:
            return False
        x = x.real
    return x <= 0.0 and x == round(x)


def hyp1f1(a, b, z):
    """Kummer's confluent hypergeometric 1F1(a; b; z), entire in z.

    b must not be a nonpositive integer.  Complex a, b, z are accepted.
    """
    if _is_nonpositive_int(b):
        raise ValueError(f"1F1 pole: b = {b} is a nonpositive integer")
    term = 1.0 + 0.0j
    total = term
    for n in range(_MAX_TERMS):
        term = term * (a + n) * z / ((b + n) * (n + 1))
        total += term
        if abs(term) <= _REL_TOL * abs(total):
            # one extra term as a guard against lucky zeros
            nxt = term * (a + n + 1) * z / ((b + n + 1) * (n + 2))
            if abs(nxt) <= _REL_TOL * abs(total):
                return total
            total += nxt
            term = nxt
    raise ConvergenceError(
        f"1F1({a}, {b}, {z}) did not converge in {_MAX_TERMS} terms"
    )


def hyp1f1_row(a: np.ndarray, b: float, z: complex) -> np.ndarray:
    """1F1(a_j; b; z) for an array of 0 < a_j < b, all K series terms of each row at once.

    Term k of row j is z^k times the real (a_j)_k / ((b)_k k!), one cumulative product.  Past
    k = |z| the terms fall, so the stop test of ``hyp1f1``, two terms within _REL_TOL of the sum,
    holds in every row once the last but one term does; K, 32 + 3|z| at first, doubles until
    then, and past _MAX_TERMS ConvergenceError is raised.
    """
    K = 32 + int(3.0 * abs(z))
    while K <= _MAX_TERMS:
        i = np.arange(K - 1.0)
        P = ((a[:, None] + i) / ((b + i) * (i + 1.0))).cumprod(axis=1)
        zk = z ** (i + 1.0)
        total = 1.0 + P @ zk
        if (P[:, -2] * abs(zk[-2]) <= _REL_TOL * abs(total)).all():
            return total
        K *= 2
    raise ConvergenceError(f"1F1(a, {b}, {z}) row did not converge in {_MAX_TERMS} terms")


def _log_hyperu(a: float, b: float, x: float) -> float:
    # log U(a, b, x) = log int_0^inf e^{-xt} t^{a-1} (1+t)^c dt - lgamma(a), c = b - a - 1
    # (DLMF 13.4.4), for a > 0, x > 0 and b >= 1, so that -c <= a.  Every term is positive.
    # The node window starts where (t max(1, x))^a < e^{-61-a}, which leaves out less than e^-60
    # of the integral, and ends past x t = 200 + 2(a + |c|), far down the e^{-xt} decay.
    lx = math.log(x)
    c = b - a - 1.0
    i = _V.searchsorted(-61.0 / a - 1.0 - max(lx, 0.0))
    j = _V.searchsorted(math.log(200.0 + 2.0 * (a + abs(c))) - lx)

    def log_terms(v, log1p_t, log_dv):
        return a * v + c * log1p_t - np.exp(v + lx) + log_dv

    f = log_terms(_V[i:j], _LOG1P_T[i:j], _LOG_DV[i:j])
    m = f.max()
    e = np.exp(f - m)
    s, coarse = e.sum(), 2.0 * e[::2].sum()
    h = _H
    # the step-h error is about the square of the step-2h one: stop once that is below 1e-16
    while abs(s - coarse) > 1e-8 * s:
        if h <= _H / 32:
            raise ConvergenceError(
                f"U({a}, {b}, {x}): trapezoid not settled at step {h}"
            )
        u = _U[i] + (np.arange(round((j - i) * _H / h)) + 0.5) * h
        h *= 0.5
        v = u - np.exp(-u)
        fm = log_terms(v, np.logaddexp(0.0, v), np.log(h * (1.0 + np.exp(-u))))
        m2 = max(m, fm.max())
        coarse = s * math.exp(m - m2)
        s = 0.5 * coarse + np.exp(fm - m2).sum()
        m = m2
    return float(m) + math.log(s) - math.lgamma(a)


def log_whittaker_w(kappa: float, lam: float, x: float) -> float:
    """log of Whittaker's W_{kappa,lambda}(x) for x > 0.

    Evaluated in logs as -x/2 + (lambda+1/2) log x + log U(a, b, x), with
    a = lambda-kappa+1/2, b = 1+2*lambda and U from its Euler integral
    (DLMF 13.4.4), so x^{lambda+1/2} and U may leave double range while W
    does not.  The integral is one trapezoid sum after the double-exponential
    map t = exp(u - e^{-u}) (Takahasi & Mori 1974): it turns both the
    algebraic end t^{a-1} at 0 and the e^{-xt} decay into double-exponential
    decay in u.  The nodes are fixed, step 1/16 in u from -42 to 760; each
    call sums the window from t^a ~ e^-61 to x t = 200 + 2(a + |b-a-1|),
    which covers a down to 1e-16 and x from 5e-324 up.  Where the sum on
    every other node differs from it by more than 1e-8 (narrow peaks, at
    large a or x), the step is halved, down to 1/512, and past that
    ConvergenceError is raised.  Against 30-digit mpmath the error in log W
    is within 1e-13 max(1, |log W|) for a in [1e-15, 6], lambda in [0, 4]
    and x in [5e-324, 1e3].

    The reflection W_{k,l} = W_{k,-l} is applied first, so only lambda >= 0
    reaches the integral; after that, parameters with a < 0 are not
    representable by this route and raise Unsupported.  The boundary case
    a = 0 has U = 1 exactly and is returned in closed form.
    """
    if x <= 0.0:
        raise ValueError("log_whittaker_w requires x > 0")
    lam = abs(lam)
    a = lam - kappa + 0.5
    b = 1.0 + 2.0 * lam
    log_pref = -0.5 * x + (lam + 0.5) * math.log(x)
    if a == 0.0:
        return log_pref
    if a < 0.0:
        raise Unsupported(
            f"log_whittaker_w: lambda - kappa + 1/2 = {a} < 0 outside integral route"
        )
    return log_pref + _log_hyperu(a, b, x)
