"""Scalar special functions used by the closed-form spectral formulas.

Everything here is plain-Python scalar code: series with explicit
convergence control, plus Whittaker W evaluated through its classical
integral representation.  Vectorized
callers should loop; none of these are hot paths.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from scipy.integrate import quad

from .errors import ConvergenceError, DivergenceError, Unsupported

__all__ = [
    "SeriesControl",
    "ln_gamma",
    "hyp1f1",
    "hyp_pfq",
    "whittaker_w",
]


@dataclass(frozen=True)
class SeriesControl:
    """Stopping rule for the hypergeometric series.

    rel_tol
        relative size of the first neglected term
    max_terms
        hard budget before ConvergenceError is raised
    """

    rel_tol: float = 1e-14
    max_terms: int = 10000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError("rel_tol must lie in (0, 1)")
        if self.max_terms < 1:
            raise ValueError("max_terms must be positive")


_DEFAULT = SeriesControl()


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


def hyp1f1(a, b, z, ctl: SeriesControl = _DEFAULT):
    """Kummer's confluent hypergeometric 1F1(a; b; z), entire in z.

    b must not be a nonpositive integer.  Complex a, b, z are accepted.
    """
    if _is_nonpositive_int(b):
        raise ValueError(f"1F1 pole: b = {b} is a nonpositive integer")
    term = 1.0 + 0.0j
    total = term
    for n in range(ctl.max_terms):
        term = term * (a + n) * z / ((b + n) * (n + 1))
        total += term
        if abs(term) <= ctl.rel_tol * abs(total):
            # one extra term as a guard against lucky zeros
            nxt = term * (a + n + 1) * z / ((b + n + 1) * (n + 2))
            if abs(nxt) <= ctl.rel_tol * abs(total):
                return total
            total += nxt
            term = nxt
    raise ConvergenceError(
        f"1F1({a}, {b}, {z}) did not converge in {ctl.max_terms} terms"
    )


def hyp_pfq(num, den, x, ctl: SeriesControl = _DEFAULT):
    """Generalized hypergeometric pFq(num; den; x) with divergence detection.

    Standard normalization: sum_n [prod (a_i)_n / prod (b_j)_n] x^n / n!.
    Terminating series (some a_i a nonpositive integer) are summed exactly.
    Nonterminating p > q+1 is rejected, and p = q+1 requires |x| < 1.
    """
    num = list(num)
    den = list(den)
    for b in den:
        if _is_nonpositive_int(b):
            raise ValueError(f"pFq pole: denominator parameter {b}")
    terminating = any(_is_nonpositive_int(a) for a in num)
    p, q = len(num), len(den)
    if not terminating:
        if p > q + 1:
            raise DivergenceError(f"{p}F{q} diverges for x != 0")
        if p == q + 1 and abs(x) >= 1.0:
            raise DivergenceError(f"{p}F{q} requires |x| < 1, got |x| = {abs(x)}")
    if terminating:
        nstop = min(
            int(round(-a.real if isinstance(a, complex) else -a))
            for a in num
            if _is_nonpositive_int(a)
        )
        term = 1.0 + 0.0j
        total = term
        for k in range(nstop):
            ratio = x / (k + 1)
            for a in num:
                ratio *= a + k
            for b in den:
                ratio /= b + k
            term *= ratio
            total += term
        return total
    term = 1.0 + 0.0j
    total = term
    growing = 0
    for n in range(ctl.max_terms):
        ratio = x / (n + 1)
        for a in num:
            ratio *= a + n
        for b in den:
            ratio /= b + n
        new = term * ratio
        if abs(new) > abs(term):
            growing += 1
            if growing > 12 and abs(new) > 1e6 * max(1.0, abs(total)):
                raise DivergenceError(
                    f"{p}F{q} terms growing without bound at n = {n}"
                )
        else:
            growing = 0
        term = new
        total += term
        if abs(term) <= ctl.rel_tol * abs(total):
            return total
    raise ConvergenceError(
        f"{p}F{q} did not converge in {ctl.max_terms} terms"
    )


def _hyperu_integral(a: float, b: float, x: float) -> float:
    # Euler integral U(a,b,x) = (1/Gamma(a)) int_0^inf e^{-xt} t^{a-1} (1+t)^{b-a-1} dt,
    # valid for a > 0, x > 0.  Split at t = 1: the [0,1] piece carries the
    # t^{a-1} endpoint singularity (QAGS handles it), the tail decays like
    # e^{-xt} t^{b-2}.
    def f(t):
        return math.exp(-x * t + (a - 1.0) * math.log(t) + (b - a - 1.0) * math.log1p(t))

    i1, e1 = quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=300)
    i2, e2 = quad(f, 1.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=300)
    return (i1 + i2) / math.gamma(a)


def whittaker_w(kappa: float, lam: float, x: float) -> float:
    """Whittaker's W_{kappa,lambda}(x) for x > 0.

    Evaluated as e^{-x/2} x^{lambda+1/2} U(lambda-kappa+1/2, 1+2*lambda, x)
    with U from its Euler integral.  The reflection W_{k,l} = W_{k,-l} is
    applied first, so only lambda >= 0 reaches the integral; after that,
    parameters with lambda - kappa + 1/2 < 0 are not representable by this
    route and raise Unsupported.  The boundary case lambda - kappa + 1/2 = 0
    has U = 1 exactly and is returned in closed form.
    """
    if x <= 0.0:
        raise ValueError("whittaker_w requires x > 0")
    lam = abs(lam)
    a = lam - kappa + 0.5
    b = 1.0 + 2.0 * lam
    pref = math.exp(-0.5 * x + (lam + 0.5) * math.log(x))
    if a == 0.0:
        return pref
    if a < 0.0:
        raise Unsupported(
            f"whittaker_w: lambda - kappa + 1/2 = {a} < 0 outside integral route"
        )
    return pref * _hyperu_integral(a, b, x)
