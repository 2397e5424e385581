"""Pearson pairs and the classical orthonormal-polynomial systems they induce.

A Pearson pair is a degree-(1,2) polynomial pair (A, B) such that the weight
rho solving d(rho*B)/domega = rho*A is positive and integrable on an interval
where rho*B vanishes at both ends.  Such weights fall into three classes
(Hermite-, Laguerre- and Jacobi-type), and their orthonormal polynomials
satisfy a three-term recurrence

    omega P_n = h(n) P_n + b(n) P_{n-1} + b(n+1) P_{n+1},   b(n) > 0,

whose coefficient pair (b, h) is what the rest of the package consumes.

Sign gauge: (A, B) -> (-A, -B) leaves the Pearson equation invariant, so the
raw coefficients are normalized on entry to the gauge in which B > 0 on the
interior of the support.  Concretely: b0 > 0 (Hermite), b1 > 0 (Laguerre),
and for Jacobi the raw quadratic coefficient b2 < 0 with the positive
factored value B = b2_factored*(omega-a)*(b-omega) exposed separately.  Every
closed form downstream uses the factored value; the ODE eigenvalue
lambda_n = a1*n + b2*n*(n-1) uses the raw (signed) one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .specfun import ln_gamma

__all__ = [
    "PearsonData",
    "JacobiSystem",
    "classify",
    "hermite_data",
    "laguerre_data",
    "jacobi_data",
    "legendre_data",
    "recurrence",
    "scaled_sweep",
    "eval_poly",
    "eval_poly_table",
    "rodrigues_constant",
    "rodrigues_log_norm",
    "log_weight_mass",
    "ode_residual",
    "derivative_pearson",
    "strong_field",
]

HERMITE = "hermite"
LAGUERRE = "laguerre"
JACOBI = "jacobi"


@dataclass(frozen=True)
class PearsonData:
    """A classified Pearson pair A = a1*omega + a0, B = b2*omega^2 + b1*omega + b0.

    Coefficients are stored in the normalized sign gauge (see module
    docstring); ``support`` is the open interval carrying the weight and
    ``family`` is one of "hermite", "laguerre", "jacobi".
    """

    a0: float
    a1: float
    b0: float
    b1: float
    b2: float
    support: tuple[float, float]
    family: str

    def A(self, omega):
        return self.a1 * omega + self.a0

    def B(self, omega):
        return (self.b2 * omega + self.b1) * omega + self.b0

    # -- derived shape parameters ------------------------------------------

    @property
    def mu(self) -> float:
        if self.family == LAGUERRE:
            return (self.a0 * self.b1 - self.b0 * self.a1) / self.b1**2
        if self.family == JACOBI:
            a, b = self.support
            return (a * self.a1 + self.a0) / (self.b2_factored * (b - a))
        raise AttributeError("mu is defined for Laguerre and Jacobi data only")

    @property
    def nu(self) -> float:
        if self.family != JACOBI:
            raise AttributeError("nu is defined for Jacobi data only")
        a, b = self.support
        return (b * self.a1 + self.a0) / (self.b2_factored * (a - b))

    @property
    def b2_factored(self) -> float:
        """Positive coefficient of the factored form B = b2f*(omega-a)*(b-omega)."""
        if self.family != JACOBI:
            raise AttributeError("b2_factored is defined for Jacobi data only")
        return -self.b2


@dataclass(frozen=True)
class JacobiSystem:
    """Three-term recurrence data of a ladder system.

    ``b(n)`` is the off-diagonal (b(0) = 0 always), ``h(n)`` the diagonal.
    ``dim`` is math.inf for half-infinite ladders, an integer for finite
    sectors.  ``gamma0`` is the free-field frequency combination attached to
    the ladder by a multi-mode reduction; it is 0.0 for systems built
    directly from a Pearson family.
    """

    b: Callable[[int], float]
    h: Callable[[int], float]
    dim: float = math.inf
    gamma0: float = 0.0

    def arrays(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(b(0..n), h(0..n)) as float arrays, one call per coefficient."""
        b = np.array([self.b(k) for k in range(n + 1)], dtype=float)
        h = np.array([self.h(k) for k in range(n + 1)], dtype=float)
        return b, h


def _roots_of_quadratic(b2, b1, b0):
    disc = b1 * b1 - 4.0 * b2 * b0
    if disc <= 0.0:
        return None
    r = math.sqrt(disc)
    x1 = (-b1 - r) / (2.0 * b2)
    x2 = (-b1 + r) / (2.0 * b2)
    return (min(x1, x2), max(x1, x2))


def classify(a0: float, a1: float, b0: float, b1: float, b2: float,
             support: tuple[float, float] | None = None) -> PearsonData:
    """Classify a raw Pearson pair, normalizing the sign gauge.

    Raises ValueError naming the violated admissibility condition.  If
    ``support`` is passed it is checked against the derived one.
    """
    if a1 == 0.0:
        raise ValueError("not a Pearson pair: deg A must be exactly 1 (a1 = 0)")

    if b2 == 0.0 and b1 == 0.0:
        if b0 == 0.0:
            raise ValueError("not a Pearson pair: B vanishes identically")
        if b0 < 0.0:
            a0, a1, b0 = -a0, -a1, -b0
        if a1 / b0 >= 0.0:
            raise ValueError("not Hermite-class: a1/b0 must be negative")
        pd = PearsonData(a0, a1, b0, 0.0, 0.0, (-math.inf, math.inf), HERMITE)
    elif b2 == 0.0:
        if b1 < 0.0:
            a0, a1, b0, b1 = -a0, -a1, -b0, -b1
        if a1 / b1 >= 0.0:
            raise ValueError("not Laguerre-class: a1/b1 must be negative")
        mu = (a0 * b1 - b0 * a1) / b1**2
        if mu <= 0.0:
            raise ValueError(
                f"not Laguerre-class: mu = (a0*b1 - b0*a1)/b1^2 = {mu} must be positive"
            )
        pd = PearsonData(a0, a1, b0, b1, 0.0, (-b0 / b1, math.inf), LAGUERRE)
    else:
        if b2 > 0.0:
            a0, a1, b0, b1, b2 = -a0, -a1, -b0, -b1, -b2
        roots = _roots_of_quadratic(b2, b1, b0)
        if roots is None:
            raise ValueError("not Jacobi-class: B must have two distinct real roots")
        a, b = roots
        b2f = -b2
        mu = (a * a1 + a0) / (b2f * (b - a))
        nu = (b * a1 + a0) / (b2f * (a - b))
        if mu <= 0.0:
            raise ValueError(f"not Jacobi-class: mu = {mu} must be positive")
        if nu <= 0.0:
            raise ValueError(f"not Jacobi-class: nu = {nu} must be positive")
        pd = PearsonData(a0, a1, b0, b1, b2, (a, b), JACOBI)

    if support is not None:
        lo, hi = support
        dlo, dhi = pd.support
        for got, want in ((lo, dlo), (hi, dhi)):
            same = (got == want) or (
                math.isfinite(got)
                and math.isfinite(want)
                and abs(got - want) <= 1e-9 * max(1.0, abs(want))
            )
            if not same:
                raise ValueError(
                    f"support {support} inconsistent with derived {pd.support}"
                )
    return pd


# -- convenience constructors ----------------------------------------------

def hermite_data(a1: float = -2.0, a0: float = 0.0, b0: float = 1.0) -> PearsonData:
    return classify(a0, a1, b0, 0.0, 0.0)


def laguerre_data(mu: float, a1: float = -1.0, b1: float = 1.0,
                  b0: float = 0.0) -> PearsonData:
    # invert mu = (a0*b1 - b0*a1)/b1^2 for a0
    a0 = (mu * b1**2 + b0 * a1) / b1
    return classify(a0, a1, b0, b1, 0.0)


def jacobi_data(a: float, b: float, mu: float, nu: float,
                scale: float = 1.0) -> PearsonData:
    """Jacobi-class pair with endpoints a < b, exponents mu, nu > 0.

    ``scale`` is the factored coefficient b2_factored of B.
    """
    if not a < b:
        raise ValueError("endpoints must satisfy a < b")
    b2f = scale
    raw_b2 = -b2f
    raw_b1 = b2f * (a + b)
    raw_b0 = -b2f * a * b
    a1 = -b2f * (mu + nu)
    a0 = b2f * (mu * b + nu * a)
    return classify(a0, a1, raw_b0, raw_b1, raw_b2)


def legendre_data(a: float = -1.0, b: float = 1.0) -> PearsonData:
    return jacobi_data(a, b, 1.0, 1.0)


# -- recurrence coefficients (classical closed forms) ----------------------

def recurrence(pd: PearsonData) -> JacobiSystem:
    """Three-term recurrence (b, h) of the orthonormal system of ``pd``.

    b(0) is forced to 0; removable 0/0 points of the Jacobi closed form
    (mu = nu = 1/2 at n = 1, mu = nu = 3/2 at n = 0) are handled by taking
    the limit of the cancelled factor pair.
    """
    fam = pd.family
    if fam == HERMITE:
        scale = math.sqrt(-pd.b0 / pd.a1)
        shift = -pd.a0 / pd.a1

        def b(n: int) -> float:
            return scale * math.sqrt(n) if n >= 1 else 0.0

        def h(n: int) -> float:
            return shift

    elif fam == LAGUERRE:
        mu = pd.mu
        s = -pd.b1 / pd.a1
        shift = -pd.b0 / pd.b1

        def b(n: int) -> float:
            return s * math.sqrt(n * (n + mu - 1.0)) if n >= 1 else 0.0

        def h(n: int) -> float:
            return s * (2.0 * n + mu) + shift

    else:
        a, bb = pd.support
        mu, nu = pd.mu, pd.nu
        width = bb - a
        s = mu + nu

        def b(n: int) -> float:
            if n < 1:
                return 0.0
            num_pair = s + n - 2.0
            den_pair = s + 2.0 * n - 3.0
            if n == 1 and abs(den_pair) < 1e-12:
                ratio = 1.0  # limit of (s+n-2)/(s+2n-3) as s -> 1 at n = 1
            else:
                ratio = num_pair / den_pair
            val = (
                n * (mu + n - 1.0) * (nu + n - 1.0) * ratio
                / ((s + 2.0 * n - 2.0) ** 2 * (s + 2.0 * n - 1.0))
            )
            return width * math.sqrt(val)

        def h(n: int) -> float:
            if n == 0:
                # the closed form below is 0/0 at n = 0 when mu+nu = 2;
                # h(0) is just the mean of the Beta-type weight
                return a + width * mu / s
            num = (
                2.0 * n * (a + bb) * (s - 1.0)
                + 2.0 * n * n * (a + bb)
                - 2.0 * bb * mu
                - 2.0 * a * nu
                + mu * nu * (a + bb)
                + bb * mu * mu
                + a * nu * nu
            )
            return num / ((s + 2.0 * n - 2.0) * (s + 2.0 * n))

    return JacobiSystem(b=b, h=h, dim=math.inf, gamma0=0.0)


# -- evaluation -------------------------------------------------------------

def scaled_sweep(js: JacobiSystem, x: np.ndarray, kmax: int, s: np.ndarray):
    """Run the recurrence at the nodes x, yielding (k, u_k, rescaled), k = 0..kmax.

    P_k(x_i) = u_k[i] * exp(s[i] - s_start[i]), where ``s`` is the caller's
    log-scale array, updated in place: whenever |u_k| grows huge at a node,
    u_k and u_{k-1} are divided by |u_k| there and its log is added to s.
    ``rescaled`` is the mask of the nodes rescaled at step k, or None.  The
    yielded u_k is divided in place at the next step's rescaled nodes, so
    consumers must use it before advancing.
    """
    b, h = js.arrays(kmax)
    u_prev = np.ones_like(x)
    yield 0, u_prev, None
    if kmax == 0:
        return
    u_cur = (x - h[0]) / b[1]
    yield 1, u_cur, None
    for k in range(1, kmax):
        u_next = ((x - h[k]) * u_cur - b[k] * u_prev) / b[k + 1]
        big = np.abs(u_next) > 1e120
        rescaled = None
        if big.any():
            f = np.abs(u_next[big])
            u_next[big] /= f
            u_cur[big] /= f
            s[big] += np.log(f)
            rescaled = big
        yield k + 1, u_next, rescaled
        u_prev, u_cur = u_cur, u_next


def eval_poly_table(js: JacobiSystem, nmax: int, omega: float, p0: float = 1.0,
                    derivatives: int = 0) -> np.ndarray:
    """Values (and derivatives) of P_0..P_nmax at a point.

    Returns an array of shape (nmax+1, derivatives+1); column d holds the
    d-th omega-derivative.  Uses the derivative-propagated recurrence

        P^{(d)}_{n+1} = ((omega-h(n)) P^{(d)}_n + d P^{(d-1)}_n
                         - b(n) P^{(d)}_{n-1}) / b(n+1).
    """
    out = np.zeros((nmax + 1, derivatives + 1))
    out[0, 0] = p0
    if nmax == 0:
        return out
    prev = out[0].copy()
    prevprev = np.zeros(derivatives + 1)
    for n in range(nmax):
        bn1 = js.b(n + 1)
        cur = np.empty(derivatives + 1)
        x = omega - js.h(n)
        for d in range(derivatives + 1):
            v = x * prev[d] - js.b(n) * prevprev[d]
            if d > 0:
                v += d * prev[d - 1]
            cur[d] = v / bn1
        out[n + 1] = cur
        prevprev, prev = prev, cur
    return out


def eval_poly(js: JacobiSystem, n: int, omega: float,
              p0: float = 1.0) -> tuple[float, float, float]:
    """(P_n, P_n', P_n'') at omega for the orthonormal system ``js``."""
    table = eval_poly_table(js, n, omega, p0=p0, derivatives=2)
    return tuple(table[n])


def log_weight_mass(pd: PearsonData) -> float:
    """log of int w(omega) domega for the representative weight (C = 1).

    The representative weight is exp((a1 w^2/2 + a0 w)/b0) for Hermite,
    (w + b0/b1)^(mu-1) exp((a1/b1) w) for Laguerre and
    (w-a)^(mu-1) (b-w)^(nu-1) for Jacobi.
    """
    if pd.family == HERMITE:
        return -pd.a0**2 / (2.0 * pd.a1 * pd.b0) + 0.5 * math.log(
            2.0 * math.pi * pd.b0 / (-pd.a1)
        )
    if pd.family == LAGUERRE:
        gamma = -pd.a1 / pd.b1
        beta = pd.b0 / pd.b1
        return gamma * beta + ln_gamma(pd.mu) - pd.mu * math.log(gamma)
    a, b = pd.support
    mu, nu = pd.mu, pd.nu
    return (
        (mu + nu - 1.0) * math.log(b - a)
        + ln_gamma(mu)
        + ln_gamma(nu)
        - ln_gamma(mu + nu)
    )


def rodrigues_log_norm(pd: PearsonData, n: int, C: float) -> float:
    """log of the positive Rodrigues normalization c_n (see rodrigues_constant)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if C <= 0.0:
        raise ValueError("C must be positive")
    log_mass = math.log(C) + log_weight_mass(pd)
    fam = pd.family
    if fam == HERMITE:
        log_val = log_mass + ln_gamma(n + 1.0) + n * math.log(-pd.a1 * pd.b0)
    elif fam == LAGUERRE:
        mu = pd.mu
        log_val = (
            log_mass
            + ln_gamma(n + 1.0)
            + 2.0 * n * math.log(pd.b1)
            + ln_gamma(mu + n)
            - ln_gamma(mu)
        )
    else:
        a, b = pd.support
        mu, nu = pd.mu, pd.nu
        b2f = pd.b2_factored
        log_val = (
            log_mass
            + 2.0 * n * math.log(b2f * (b - a))
            + ln_gamma(n + 1.0)
            + ln_gamma(mu + n)
            - ln_gamma(mu)
            + ln_gamma(nu + n)
            - ln_gamma(nu)
            + ln_gamma(mu + nu)
            - ln_gamma(mu + nu + n - 1.0)
            - math.log(2.0 * n + mu + nu - 1.0)
        )
    return -0.5 * log_val


def rodrigues_constant(pd: PearsonData, n: int, C: float) -> float:
    """Positive normalization c_n of the n-th Rodrigues polynomial.

    c_n is fixed by requiring rho^{-1} d^n(rho B^n) * c_n to have unit norm
    in L^2(C * rho * domega).  Note the Rodrigues polynomial with this
    positive c_n has leading coefficient of sign (-1)^n relative to the
    recurrence (positive-leading) convention; closed forms downstream carry
    that phase explicitly.
    """
    return math.exp(rodrigues_log_norm(pd, n, C))


def ode_residual(pd: PearsonData, n: int, omega: float, p0: float = 1.0) -> float:
    """|A P_n' + B P_n'' - lambda_n P_n| at omega, lambda_n = a1 n + b2 n(n-1).

    The raw (signed) quadratic coefficient enters lambda_n; for Jacobi data
    in the normalized gauge that coefficient is negative.
    """
    js = recurrence(pd)
    p, d1, d2 = eval_poly(js, n, omega, p0=p0)
    lam = pd.a1 * n + pd.b2 * n * (n - 1.0)
    return abs(pd.A(omega) * d1 + pd.B(omega) * d2 - lam * p)


def derivative_pearson(pd: PearsonData, k: int) -> PearsonData:
    """Pearson pair of the k-th derivative family: A -> A + k B', same B."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return classify(
        pd.a0 + k * pd.b1,
        pd.a1 + 2.0 * k * pd.b2,
        pd.b0,
        pd.b1,
        pd.b2,
    )


def strong_field(pd: PearsonData) -> PearsonData:
    """Strong-field member of pd's family (scale kept, shape pinned).

    Hermite: a0 = 0.  Laguerre: mu = 1 with b0 = -b1^2/a1 (so a0 = 0).
    Jacobi: mu = nu = 3/2 at the same endpoints and factored scale.
    """
    fam = pd.family
    if fam == HERMITE:
        return classify(0.0, pd.a1, pd.b0, 0.0, 0.0)
    if fam == LAGUERRE:
        return classify(0.0, pd.a1, -pd.b1**2 / pd.a1, pd.b1, 0.0)
    a, b = pd.support
    return jacobi_data(a, b, 1.5, 1.5, scale=pd.b2_factored)
