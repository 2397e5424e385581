"""Scalar special functions used by the closed-form spectral formulas.

Everything here is plain-Python scalar code: series with explicit
convergence control, plus Whittaker W evaluated through its classical
integral representation.  Vectorized
callers should loop; none of these are hot paths.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

from .errors import ConvergenceError, DivergenceError, Unsupported

__all__ = [
    "ln_gamma",
    "hyp1f1",
    "hyp_pfq",
    "whittaker_w",
    "log_whittaker_w",
]

# hypergeometric series stop once a term falls below _REL_TOL of the sum,
# and raise ConvergenceError after _MAX_TERMS terms
_REL_TOL = 1e-14
_MAX_TERMS = 10000
# below this argument the Euler integral of U is assembled in logs
_SMALL_X = 1e-3


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


def hyp_pfq(num, den, x):
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
    for n in range(_MAX_TERMS):
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
        if abs(term) <= _REL_TOL * abs(total):
            return total
    raise ConvergenceError(
        f"{p}F{q} did not converge in {_MAX_TERMS} terms"
    )


def _euler_integrand(t: float, a: float, b: float, x: float) -> float:
    # e^{-xt} t^{a-1} (1+t)^{b-a-1}, the integrand of the Euler integral of U
    return math.exp(-x * t + (a - 1.0) * math.log(t) + (b - a - 1.0) * math.log1p(t))


def _euler_head(a: float, b: float, x: float) -> float:
    # The [0, 1] piece of the Euler integral.  For a < 1 its t^{a-1} endpoint
    # singularity defeats QAGS near a = 0, so it is subtracted on [0, tau],
    # tau = min(1, 1/x): tau^a/a + int_0^tau t^{a-1} expm1(-xt + (b-a-1) log1p t),
    # an integrand vanishing like t^a.  Up to t = 1/x the exponential has not
    # decayed, so this cancels no digits; [tau, 1] is regular.
    if a >= 1.0:
        return quad(_euler_integrand, 0.0, 1.0, args=(a, b, x),
                    epsabs=0.0, epsrel=1e-13, limit=300)[0]
    tau = min(1.0, 1.0 / x)
    lead = tau**a / a

    def g(t):
        return t ** (a - 1.0) * math.expm1(-x * t + (b - a - 1.0) * math.log1p(t))

    head = lead + quad(g, 0.0, tau, epsabs=1e-15 * lead, epsrel=1e-13, limit=300)[0]
    if tau < 1.0:
        head += quad(_euler_integrand, tau, 1.0, args=(a, b, x),
                     epsabs=0.0, epsrel=1e-13, limit=300)[0]
    return head


def _hyperu_integral(a: float, b: float, x: float) -> float:
    # Euler integral U(a,b,x) = (1/Gamma(a)) int_0^inf e^{-xt} t^{a-1} (1+t)^{b-a-1} dt,
    # valid for a > 0, x > 0.  Split at t = 1: the [0,1] piece carries the
    # t^{a-1} endpoint singularity (``_euler_head``), the tail decays like
    # e^{-xt} t^{b-2}.
    i1 = _euler_head(a, b, x)
    i2 = quad(_euler_integrand, 1.0, math.inf, args=(a, b, x),
              epsabs=0.0, epsrel=1e-13, limit=300)[0]
    return (i1 + i2) / math.gamma(a)


def _log_hyperu_small(a: float, b: float, x: float) -> float:
    # log U(a,b,x) for 0 < x < _SMALL_X.  The tail of the Euler integral then
    # reaches out to t ~ 1/x, beyond what QAGS resolves on [1, inf); in
    # s = log(x t) it is a smooth bump times x^{1-b}, combined in logs.
    lgx = math.log(x)

    def bump(s):  # log(u + x) with u = e^s, free of subnormal rounding
        log_ux = s + math.log1p(math.exp(lgx - s))
        return math.exp(-math.exp(s) + a * s + (b - a - 1.0) * log_ux)

    i1 = _euler_head(a, b, x)
    ends = (lgx, 0.5 * lgx, 0.0, 7.0)  # e^{-e^7} = 0
    j = sum(quad(bump, lo, hi, epsabs=0.0, epsrel=1e-13, limit=300)[0]
            for lo, hi in zip(ends, ends[1:]))
    lx = (1.0 - b) * lgx
    return lx + math.log(j + i1 * math.exp(-lx)) - math.lgamma(a)


def whittaker_w(kappa: float, lam: float, x: float) -> float:
    """Whittaker's W_{kappa,lambda}(x) for x > 0; exp of ``log_whittaker_w``."""
    return math.exp(log_whittaker_w(kappa, lam, x))


def log_whittaker_w(kappa: float, lam: float, x: float) -> float:
    """log of Whittaker's W_{kappa,lambda}(x) for x > 0.

    Evaluated as e^{-x/2} x^{lambda+1/2} U(lambda-kappa+1/2, 1+2*lambda, x)
    with U from its Euler integral.  The reflection W_{k,l} = W_{k,-l} is
    applied first, so only lambda >= 0 reaches the integral; after that,
    parameters with lambda - kappa + 1/2 < 0 are not representable by this
    route and raise Unsupported.  The boundary case lambda - kappa + 1/2 = 0
    has U = 1 exactly and is returned in closed form.  Below x = 1e-3, where
    x^{lambda+1/2} and U can over- or underflow while W does not, the two
    are combined in logs.
    """
    if x <= 0.0:
        raise ValueError("whittaker_w requires x > 0")
    lam = abs(lam)
    a = lam - kappa + 0.5
    b = 1.0 + 2.0 * lam
    log_pref = -0.5 * x + (lam + 0.5) * math.log(x)
    if a == 0.0:
        return log_pref
    if a < 0.0:
        raise Unsupported(
            f"whittaker_w: lambda - kappa + 1/2 = {a} < 0 outside integral route"
        )
    if x < _SMALL_X:
        return log_pref + _log_hyperu_small(a, b, x)
    return math.log(math.exp(log_pref) * _hyperu_integral(a, b, x))
