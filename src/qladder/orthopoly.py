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

The family is decided here and nowhere else: ``classify`` returns one
PearsonData subclass per family, which holds every closed form of that
family, including those that :mod:`qladder.measure`, :mod:`.propagator`,
:mod:`.coherent` and :mod:`.observables` evaluate; those modules check
arguments and call the method.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .errors import Unsupported
from .specfun import hyp1f1, hyp_pfq, ln_gamma, log_whittaker_w

__all__ = [
    "PearsonData",
    "JacobiSystem",
    "classify",
    "hermite_data",
    "laguerre_data",
    "jacobi_data",
    "legendre_data",
    "recurrence",
    "classify_ladder",
    "scaled_sweep",
    "eval_poly",
    "derivative_matrix",
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

    Each family subclass derives its shape parameters once and holds the
    closed forms, named after the functions that call them; methods taking
    ``ctx`` read ``ctx.sm.C`` and ``ctx.rule(N)`` of a PropagatorContext.
    ``strip_edge`` is the upper edge of the coherent-label strip,
    ``closed_max_degree`` the highest m + n ``sigma_mn`` sends to closed form,
    and ``alg_exponents`` the (alpha, beta) of a weight (omega-a)^alpha (b-omega)^beta.
    """

    a0: float
    a1: float
    b0: float
    b1: float
    b2: float
    support: tuple[float, float]
    family: ClassVar[str]
    closed_max_degree: ClassVar[int]
    strip_edge: ClassVar[float] = math.inf
    alg_exponents: ClassVar[tuple[float, float] | None] = None

    def A(self, omega):
        return self.a1 * omega + self.a0

    def B(self, omega):
        return (self.b2 * omega + self.b1) * omega + self.b0

    def quad_extra(self, z: complex) -> int:
        """Extra rule size for exp(-i omega z) at complex z (none by default)."""
        return 0

    def closed_number_moment(self, w: complex, l: int):
        """<N^l> on the spectral coherent state |w>; None without a closed form."""
        return None


@dataclass(frozen=True)
class JacobiSystem:
    """Three-term recurrence data of a ladder system.

    ``b(n)`` is the off-diagonal (b(0) = 0 always), ``h(n)`` the diagonal.
    Both take a level or an integer array of levels and evaluate
    elementwise, so ``arrays`` builds a whole ladder from one call of each.
    ``dim`` is math.inf for half-infinite ladders, an integer for finite
    sectors.  ``gamma0`` is the free-field frequency combination attached to
    the ladder by a multi-mode reduction; it is 0.0 for systems built
    directly from a Pearson family.
    """

    b: Callable
    h: Callable
    dim: float = math.inf
    gamma0: float = 0.0

    def arrays(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(b(0..n), h(0..n)) as float arrays, from one call of each function."""
        k = np.arange(n + 1)
        return np.asarray(self.b(k), dtype=float), np.asarray(self.h(k), dtype=float)


def _sum_exp(logs) -> complex:
    """sum_k exp(L_k) for complex exponents, normalized by the largest.

    Warns when the alternating sum cancels away more than ~13 digits, since
    the returned value then carries almost no significant figures.
    """
    m = max((L.real for L in logs), default=-math.inf)
    if m == -math.inf:
        return 0j
    acc = sum(cmath.exp(L - m) for L in logs)
    _warn_cancellation(abs(acc), m)
    return acc * math.exp(m)


def _warn_cancellation(ratio: float, peak: float) -> None:
    """ratio = |normalized sum| (peak summand is 1 by construction).

    Only worth shouting about when the rounding floor peak * eps is itself
    large on the absolute scale; a matrix element passing through one of
    its zeros at order-one peaks is still absolutely accurate.
    """
    if ratio < 1e-13 and peak > 12.0:
        lost = 330.0 if ratio == 0.0 else -math.log10(ratio)
        warnings.warn(
            f"closed-form coefficient sum cancels ~{lost:.0f} digits; "
            "the result has few or no significant figures",
            RuntimeWarning,
            stacklevel=3,
        )


def _snap_unit(x: float) -> float:
    # exponent 1 is a structural boundary (one-sided inversion); the
    # constructors round-trip it with O(eps) noise that must not leak into
    # lgamma(x - 1) or the Whittaker parameter checks
    return 1.0 if abs(x - 1.0) < 1e-9 else x


def _hyp1f1_pos(a: float, c: float, w: float) -> float:
    # Kummer reflection keeps every series term positive.
    if w >= 0.0:
        return complex(hyp1f1(a, c, w)).real
    return math.exp(w) * complex(hyp1f1(c - a, c, -w)).real


@dataclass(frozen=True)
class _Hermite(PearsonData):
    """Hermite class: B = b0 > 0, support the whole line."""

    family = HERMITE
    closed_max_degree = 24

    def ladder_b(self, n):
        return math.sqrt(-self.b0 / self.a1) * np.sqrt(n)

    def ladder_h(self, n):
        return np.full(np.shape(n), -self.a0 / self.a1)[()]

    def log_mass(self) -> float:
        return -self.a0**2 / (2.0 * self.a1 * self.b0) + 0.5 * math.log(
            2.0 * math.pi * self.b0 / (-self.a1)
        )

    def rodrigues_log(self, n: int, log_mass: float) -> float:
        return log_mass + ln_gamma(n + 1.0) + n * math.log(-self.a1 * self.b0)

    def strong_field(self) -> PearsonData:
        return classify(0.0, self.a1, self.b0, 0.0, 0.0)

    def weight(self, x):
        return np.exp((self.a1 * x**2 / 2.0 + self.a0 * x) / self.b0)

    def spread(self, t: float) -> int:
        scale = math.sqrt(-self.b0 / self.a1)  # b(n) = scale * sqrt(n)
        return 32 + int(4.0 * t * (1.0 + scale) + 0.5 * (t * scale) ** 2)

    def quad_extra(self, z: complex) -> int:
        if z.imag == 0.0:
            return 0
        tau = -self.a1 / (2.0 * self.b0)
        return 32 + int(abs(z) ** 2 / (2.0 * tau))

    def char(self, ctx, z: complex) -> complex:
        return cmath.exp(
            (self.b0 / (2.0 * self.a1)) * z * z + 1j * (self.a0 / self.a1) * z
        )

    def sigma_n(self, ctx, n: int, z: complex) -> complex:
        lc = rodrigues_log_norm(self, n, ctx.sm.C)
        expo = lc + n * cmath.log(-1j * self.b0 * z)
        return cmath.exp(expo) * self.char(ctx, z)

    def sigma_mn_closed(self, ctx, m: int, n: int, z: complex) -> complex:
        C = ctx.sm.C
        base = (
            rodrigues_log_norm(self, m, C)
            + rodrigues_log_norm(self, n, C)
            + ln_gamma(m + 1.0)
            + ln_gamma(n + 1.0)
            + (m + n) * math.log(self.b0)
        )
        lr = math.log(-self.a1 / self.b0)
        lz = cmath.log(-1j * z)
        logs = [
            base
            + j * lr
            - ln_gamma(j + 1.0)
            - ln_gamma(m - j + 1.0)
            - ln_gamma(n - j + 1.0)
            + (m + n - 2 * j) * lz
            for j in range(m + 1)
        ]
        return _sum_exp(logs) * self.char(ctx, z)

    def closed_number_moment(self, w: complex, l: int) -> float:
        # l-th moment of a Poisson law with intensity (-b0/a1)|w|^2
        xi = (-self.b0 / self.a1) * abs(w) ** 2
        if xi == 0.0:
            return 0.0
        tailval = hyp_pfq([2.0] * (l - 1), [1.0] * (l - 1), xi)
        return math.exp(-xi) * xi * complex(tailval).real

    def reproducing_density(self, ctx, y: float) -> float:
        p = -2.0 * self.b0 / self.a1
        q = -2.0 * self.a0 / self.a1
        amp = math.sqrt(p / math.pi) / ctx.sm.C * math.exp(-q * q / (4.0 * p))
        return amp * math.exp(-(p * y + q) * y)

    def mean_energy(self, y: float) -> float:
        return -(2.0 * self.b0 * y + self.a0) / self.a1

    def omega_density(self, y: float) -> float:
        return 2.0 * self.b0 / self.a1


@dataclass(frozen=True)
class _Laguerre(PearsonData):
    """Laguerre class: B = b1*(omega + beta), b1 > 0, gamma = -a1/b1 > 0."""

    family = LAGUERRE
    closed_max_degree = 24

    def __post_init__(self):
        gamma = -self.a1 / self.b1
        mu = (self.a0 * self.b1 - self.b0 * self.a1) / self.b1**2
        self.__dict__.update(mu=mu, gamma=gamma, beta=self.b0 / self.b1, strip_edge=0.5 * gamma)

    def ladder_b(self, n):
        s = -self.b1 / self.a1
        return np.where(n >= 1, s * np.sqrt(n * (n + self.mu - 1.0)), 0.0)[()]

    def ladder_h(self, n):
        s = -self.b1 / self.a1
        return s * (2.0 * n + self.mu) - self.beta

    def log_mass(self) -> float:
        return self.gamma * self.beta + ln_gamma(self.mu) - self.mu * math.log(self.gamma)

    def rodrigues_log(self, n: int, log_mass: float) -> float:
        return (log_mass + ln_gamma(n + 1.0) + 2.0 * n * math.log(self.b1)
                + ln_gamma(self.mu + n) - ln_gamma(self.mu))

    def strong_field(self) -> PearsonData:
        return classify(0.0, self.a1, -self.b1**2 / self.a1, self.b1, 0.0)

    def weight(self, x):
        return (x + self.beta) ** (self.mu - 1.0) * np.exp(-self.gamma * x)

    def spread(self, t: float) -> int:
        if t == 0.0:
            return 32
        # one-index coefficients decay like q^k
        q = t / math.hypot(t, self.gamma)
        return 32 + int(40.0 / max(1e-3, -math.log(q)))

    def quad_extra(self, z: complex) -> int:
        y = z.imag
        if y <= 0.0:
            return 0
        # the integrand decays only like exp(-(gamma - y) omega), so the
        # node range (about 4N/gamma) must reach omega_need, and the node
        # spacing out there (~sqrt(4 omega gamma / N)) must still resolve
        # the oscillation period 2 pi / |Re z|
        omega_need = 45.0 / (self.gamma - y)
        n_range = 0.4 * self.gamma * omega_need
        n_osc = 0.61 * omega_need * z.real**2 / self.gamma
        return int(max(n_range, n_osc))

    def char(self, ctx, z: complex) -> complex:
        p = 1.0 + 1j * z / self.gamma
        return cmath.exp(-self.mu * cmath.log(p) + 1j * self.beta * z)

    def sigma_n(self, ctx, n: int, z: complex) -> complex:
        expo = (rodrigues_log_norm(self, n, ctx.sm.C) + ln_gamma(self.mu + n) - ln_gamma(self.mu)
                + n * cmath.log(-self.b1 * z / (z - 1j * self.gamma)))
        return cmath.exp(expo) * self.char(ctx, z)

    def sigma_mn_closed(self, ctx, m: int, n: int, z: complex) -> complex:
        mu = self.mu
        C = ctx.sm.C
        s = 1j * z / self.gamma
        base = (
            rodrigues_log_norm(self, m, C)
            + rodrigues_log_norm(self, n, C)
            + (m + n) * math.log(self.b1)
            + ln_gamma(mu + m)
            + ln_gamma(mu + n)
            - 2.0 * ln_gamma(mu)
            - (m + n) * cmath.log(1.0 + s)
        )
        ls = cmath.log(s)
        logs = [
            base
            + ln_gamma(m + 1.0)
            - ln_gamma(m - k + 1.0)
            + ln_gamma(n + 1.0)
            - ln_gamma(n - k + 1.0)
            - (ln_gamma(mu + k) - ln_gamma(mu))
            - ln_gamma(k + 1.0)
            + (m + n - 2 * k) * ls
            for k in range(m + 1)
        ]
        sign = -1.0 if (m + n) % 2 else 1.0
        return sign * _sum_exp(logs) * self.char(ctx, z)

    def closed_number_moment(self, w: complex, l: int) -> float:
        # terminating-top hypergeometric in q = |w|^2 / |w - i gamma|^2
        q = abs(w) ** 2 / abs(w - 1j * self.gamma) ** 2
        if q == 0.0:
            return 0.0
        tailval = hyp_pfq([self.mu + 1.0] + [2.0] * (l - 1), [1.0] * (l - 1), q)
        return (1.0 - q) ** self.mu * self.mu * q * complex(tailval).real

    def reproducing_density(self, ctx, y: float) -> float:
        mu = _snap_unit(self.mu)
        if mu <= 1.0:
            raise Unsupported(
                "reproducing measure of a Laguerre pair needs mu > 1; at "
                f"mu = {mu} the inversion has no density"
            )
        if y >= self.strip_edge:
            return 0.0
        lg = (
            math.log(2.0)
            - math.log(ctx.sm.C)
            - math.lgamma(mu - 1.0)
            + 2.0 * self.beta * y
            - self.gamma * self.beta
            + (mu - 2.0) * math.log(self.gamma - 2.0 * y)
        )
        return math.exp(lg)

    def mean_energy(self, y: float) -> float:
        return self.mu / (self.gamma - 2.0 * y) - self.beta

    def omega_density(self, y: float) -> float:
        return -2.0 * self.mu / (self.gamma - 2.0 * y) ** 2


@dataclass(frozen=True)
class _Jacobi(PearsonData):
    """Jacobi class: B = b2_factored*(omega - a)*(b - omega) on (a, b)."""

    family = JACOBI
    closed_max_degree = 18  # at 20-24 the sums cancel past 1e-8

    def __post_init__(self):
        a, b = self.support
        b2f = -self.b2
        mu = (a * self.a1 + self.a0) / (b2f * (b - a))
        nu = (b * self.a1 + self.a0) / (b2f * (a - b))
        self.__dict__.update(b2_factored=b2f, mu=mu, nu=nu, alg_exponents=(mu - 1.0, nu - 1.0))

    def ladder_b(self, n):
        a, bb = self.support
        mu, nu = self.mu, self.nu
        s = mu + nu
        n = np.asarray(n)  # a Python float would raise ZeroDivisionError at 0/0
        s2n = s + 2.0 * n
        with np.errstate(divide="ignore", invalid="ignore"):
            den_pair = s2n - 3.0
            # limit of (s+n-2)/(s+2n-3) as s -> 1 at n = 1
            ratio = np.where((n == 1) & (abs(den_pair) < 1e-12), 1.0, (s + n - 2.0) / den_pair)
            val = n * (mu + n - 1.0) * (nu + n - 1.0) * ratio / (np.square(s2n - 2.0) * (s2n - 1.0))
            return np.where(n >= 1, (bb - a) * np.sqrt(val), 0.0)[()]

    def ladder_h(self, n):
        a, bb = self.support
        mu, nu = self.mu, self.nu
        s = mu + nu
        n = np.asarray(n)
        n2 = 2.0 * n
        num = (
            n2 * (a + bb) * (s - 1.0)
            + n2 * n * (a + bb)
            - 2.0 * bb * mu
            - 2.0 * a * nu
            + mu * nu * (a + bb)
            + bb * mu * mu
            + a * nu * nu
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            # the closed form is 0/0 at n = 0 when mu+nu = 2; h(0) is just
            # the mean of the Beta-type weight
            return np.where(n == 0, a + (bb - a) * mu / s, num / ((s + n2 - 2.0) * (s + n2)))[()]

    def log_mass(self) -> float:
        a, b = self.support
        mu, nu = self.mu, self.nu
        return (mu + nu - 1.0) * math.log(b - a) + ln_gamma(mu) + ln_gamma(nu) - ln_gamma(mu + nu)

    def rodrigues_log(self, n: int, log_mass: float) -> float:
        a, b = self.support
        mu, nu = self.mu, self.nu
        return (
            log_mass + 2.0 * n * math.log(self.b2_factored * (b - a)) + ln_gamma(n + 1.0)
            + ln_gamma(mu + n) - ln_gamma(mu) + ln_gamma(nu + n) - ln_gamma(nu)
            + ln_gamma(mu + nu) - ln_gamma(mu + nu + n - 1.0) - math.log(2.0 * n + mu + nu - 1.0)
        )

    def strong_field(self) -> PearsonData:
        a, b = self.support
        return jacobi_data(a, b, 1.5, 1.5, scale=self.b2_factored)

    def weight(self, x):
        a, b = self.support
        return (x - a) ** (self.mu - 1.0) * (b - x) ** (self.nu - 1.0)

    def spread(self, t: float) -> int:
        a, b = self.support
        return 32 + int(2.0 * t * (b - a))

    def char(self, ctx, z: complex) -> complex:
        L, V = self._shifted(ctx, z, 0, 0)
        return math.exp(L) * V

    def _shifted(self, ctx, z: complex, dmu: int, dnu: int):
        """Transform of the weight with indices raised to mu+dmu, nu+dnu.

        Returns ``(L, V)`` with the value equal to exp(L) * V; keeping the
        positive magnitude in log form lets callers combine it with Rodrigues
        normalizations of arbitrary order without overflow.
        """
        a, b = self.support
        mup, nup = self.mu + dmu, self.nu + dnu
        w = -1j * (b - a) * z
        if abs(w) <= 12.0 + dmu + dnu:
            # confluent series: int_0^1 e^{su} u^{m-1} (1-u)^{n-1} du
            L = (
                math.log(ctx.sm.C)
                + (mup + nup - 1.0) * math.log(b - a)
                + ln_gamma(mup)
                + ln_gamma(nup)
                - ln_gamma(mup + nup)
            )
            F = hyp1f1(mup, mup + nup, w)
            return L, F * cmath.exp(-1j * a * z)
        # oscillatory regime: quadrature in the base measure with the index
        # shift carried as a polynomial factor, assembled per node in logs
        N = 64 + int(2.0 * abs(w)) + dmu + dnu
        nodes, logw = ctx.rule(N)
        hw = 0.5 * (b - a)
        logs = logw + z.imag * nodes
        if dmu:
            logs = logs + dmu * np.log((nodes - a) / hw)
        if dnu:
            logs = logs + dnu * np.log((b - nodes) / hw)
        M = float(logs.max())
        V = complex(np.sum(np.exp(logs - M) * np.exp(-1j * z.real * nodes)))
        return M + (dmu + dnu) * math.log(hw), V

    def sigma_n(self, ctx, n: int, z: complex) -> complex:
        lc = rodrigues_log_norm(self, n, ctx.sm.C)
        L, V = self._shifted(ctx, z, n, n)
        expo = lc + n * math.log(self.b2_factored) + n * cmath.log(-1j * z) + L
        return cmath.exp(expo) * V

    def sigma_mn_closed(self, ctx, m: int, n: int, z: complex) -> complex:
        # double Leibniz expansion over shifted weight transforms
        mu, nu = self.mu, self.nu
        C = ctx.sm.C
        pre = (
            rodrigues_log_norm(self, m, C)
            + rodrigues_log_norm(self, n, C)
            + (m + n) * math.log(self.b2_factored)
        )
        entries = []
        for k in range(m + 1):
            lgk = ln_gamma(m + 1.0) - ln_gamma(k + 1.0) - ln_gamma(m - k + 1.0)
            gk = (
                ln_gamma(mu + m)
                - ln_gamma(mu + k)
                + ln_gamma(nu + m)
                - ln_gamma(nu + m - k)
            )
            for l in range(n + 1):
                lgl = ln_gamma(n + 1.0) - ln_gamma(l + 1.0) - ln_gamma(n - l + 1.0)
                gl = (
                    ln_gamma(mu + n)
                    - ln_gamma(mu + l)
                    + ln_gamma(nu + n)
                    - ln_gamma(nu + n - l)
                )
                L, V = self._shifted(ctx, z, k + l, m + n - k - l)
                if V == 0:
                    continue
                sign = -1.0 if (k + l) % 2 else 1.0
                entries.append((pre + lgk + gk + lgl + gl + L, sign * V))
        if not entries:
            return 0j
        M = max(L for L, _ in entries)
        acc = sum(V * math.exp(L - M) for L, V in entries)
        _warn_cancellation(abs(acc) / max(abs(V) for _, V in entries), M)
        sign = -1.0 if (m + n) % 2 else 1.0
        return sign * acc * math.exp(M)

    def reproducing_density(self, ctx, y: float) -> float:
        mu, nu = _snap_unit(self.mu), _snap_unit(self.nu)
        if mu < 1.0 or nu < 1.0 or mu + nu <= 3.0:
            raise Unsupported(
                "reproducing measure of a Jacobi pair needs mu >= 1, nu >= 1 "
                f"and mu + nu > 3; got mu = {mu}, nu = {nu}"
            )
        C = ctx.sm.C
        a, b = self.support
        if y == 0.0:
            if mu == 1.0 or nu == 1.0:
                # one-sided profile (2|y|)^{edge-2} with edge > 2 vanishing at 0
                return 0.0
            lg = (
                math.log(2.0)
                - math.log(C)
                + math.lgamma(mu + nu - 3.0)
                - math.lgamma(mu - 1.0)
                - math.lgamma(nu - 1.0)
                + (3.0 - mu - nu) * math.log(b - a)
            )
            return math.exp(lg)
        edge, other = (nu, mu) if y > 0.0 else (mu, nu)
        if edge == 1.0:
            # the one-sided kernel on this side is a point mass at y = 0
            return 0.0
        # grouped so that other = 1 gives lam - kappa + 1/2 = 0 exactly,
        # the closed Whittaker case, and not -eps
        kappa = 0.5 * (edge - other)
        lam = 0.5 * ((edge - 3.0) + other)
        x = 2.0 * (b - a) * abs(y)
        lw = log_whittaker_w(kappa, lam, x)
        lg = (
            math.log(2.0)
            - math.log(C)
            - math.lgamma(edge - 1.0)
            - (a + b) * y
            + 0.5 * (mu + nu - 4.0) * math.log(2.0 * abs(y))
            - 0.5 * (mu + nu - 2.0) * math.log(b - a)
            + lw
        )
        return math.exp(lg)

    def mean_energy(self, y: float) -> float:
        a, b = self.support
        mu, nu = self.mu, self.nu
        c = mu + nu
        w = 2.0 * (b - a) * y
        ratio = _hyp1f1_pos(mu + 1.0, c + 1.0, w) / _hyp1f1_pos(mu, c, w)
        return a + (b - a) * (mu / c) * ratio

    def omega_density(self, y: float) -> float:
        a, b = self.support
        mu, nu = self.mu, self.nu
        c = mu + nu
        w = 2.0 * (b - a) * y
        f0 = _hyp1f1_pos(mu, c, w)
        f1 = (mu / c) * _hyp1f1_pos(mu + 1.0, c + 1.0, w)
        f2 = (mu * (mu + 1.0) / (c * (c + 1.0))) * _hyp1f1_pos(mu + 2.0, c + 2.0, w)
        r1 = f1 / f0
        return -2.0 * (b - a) ** 2 * (f2 / f0 - r1 * r1)


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
        pd = _Hermite(a0, a1, b0, 0.0, 0.0, (-math.inf, math.inf))
    elif b2 == 0.0:
        if b1 < 0.0:
            a0, a1, b0, b1 = -a0, -a1, -b0, -b1
        if a1 / b1 >= 0.0:
            raise ValueError("not Laguerre-class: a1/b1 must be negative")
        pd = _Laguerre(a0, a1, b0, b1, 0.0, (-b0 / b1, math.inf))
        if pd.mu <= 0.0:
            raise ValueError(
                f"not Laguerre-class: mu = (a0*b1 - b0*a1)/b1^2 = {pd.mu} must be positive"
            )
    else:
        if b2 > 0.0:
            a0, a1, b0, b1, b2 = -a0, -a1, -b0, -b1, -b2
        roots = _roots_of_quadratic(b2, b1, b0)
        if roots is None:
            raise ValueError("not Jacobi-class: B must have two distinct real roots")
        pd = _Jacobi(a0, a1, b0, b1, b2, roots)
        if pd.mu <= 0.0:
            raise ValueError(f"not Jacobi-class: mu = {pd.mu} must be positive")
        if pd.nu <= 0.0:
            raise ValueError(f"not Jacobi-class: nu = {pd.nu} must be positive")

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
    if b1 == 0.0:
        raise ValueError("not Laguerre-class: b1 must be nonzero")
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
    (mu + nu = 1 at n = 1, mu + nu = 2 and 3 at n = 0) are handled by taking
    the limit of the cancelled factor pair.
    """
    return JacobiSystem(b=pd.ladder_b, h=pd.ladder_h)


_LADDER_LEVELS, _LADDER_TOL = 8, 1e-10


def classify_ladder(js: JacobiSystem) -> tuple[str, dict]:
    """Label and parameters of the coupling pattern that b(1..8) of ``js`` fits.

    Patterns: constant ``b``; b(n)^2 = beta^2 n; b(n)^2 = c n (n + mu - 1),
    with ``coupling`` sqrt|c|.  They are not PearsonData: the symmetric
    su(1,1) ladders of reduced sectors have h = 0, which no Laguerre pair has.
    """
    b, hs = js.arrays(min(_LADDER_LEVELS, js.dim - 1))
    tol, top = _LADDER_TOL, b.size - 1
    if top < 2:
        return "unclassified (sector too short)", {}
    bsq = b[1:] ** 2
    scale = max(1.0, float(np.max(bsq)))
    if (np.all(np.abs(bsq - bsq[0]) <= tol * scale)
            and np.all(np.abs(hs - hs[0]) <= tol * max(1.0, abs(hs[0])))):
        return "Jacobi-type strong-field (constant couplings)", {"b": float(b[1])}
    ratio = bsq / np.arange(1, top + 1)
    if np.all(np.abs(ratio - ratio[0]) <= tol * scale):
        return "Hermite-type", {"beta": float(math.sqrt(ratio[0]))}
    # b(n)^2 = c n (n + mu - 1): ratio is affine in n
    c = ratio[1] - ratio[0]
    if abs(c) > tol * scale:
        mu = ratio[0] / c
        model = c * np.arange(1, top + 1) * (np.arange(1, top + 1) + mu - 1.0)
        if np.all(np.abs(model - bsq) <= tol * scale):
            return "Laguerre-type", {"mu": float(mu), "coupling": float(math.sqrt(abs(c)))}
    return "unclassified", {}


# -- evaluation -------------------------------------------------------------

def scaled_sweep(b: np.ndarray, h: np.ndarray, x: np.ndarray, s: np.ndarray):
    """Run the recurrence at the nodes x, yielding (k, u_k, rescaled), k = 0..kmax.

    ``b``, ``h`` are the ladder arrays b(0..kmax), h(0..kmax) (see
    ``JacobiSystem.arrays``); their length fixes kmax.

    P_k(x_i) = u_k[i] * exp(s[i] - s_start[i]), where ``s`` is the caller's
    log-scale array, updated in place: whenever |u_k| grows huge at a node,
    u_k and u_{k-1} are divided by |u_k| there and its log is added to s.
    ``rescaled`` is the mask of the nodes rescaled at step k, or None.  The
    sweep allocates nothing per step, so the yielded u_k is a reused buffer:
    it is divided in place at the next step's rescaled nodes and overwritten
    two steps later; consumers must use (or copy) it before advancing.
    """
    kmax = len(b) - 1
    u_prev = np.ones_like(x)
    yield 0, u_prev, None
    if kmax == 0:
        return
    u_cur = (x - h[0]) / b[1]
    yield 1, u_cur, None
    tmp = np.empty_like(x)
    for k in range(1, kmax):
        # u_next = ((x - h[k]) * u_cur - b[k] * u_prev) / b[k + 1], into u_prev
        np.multiply(np.subtract(x, h[k], out=tmp), u_cur, out=tmp)
        np.multiply(u_prev, b[k], out=u_prev)
        np.subtract(tmp, u_prev, out=u_prev)
        u_next = np.divide(u_prev, b[k + 1], out=u_prev)
        rescaled = None
        if np.abs(u_next, out=tmp).max(initial=0.0) > 1e120:
            rescaled = tmp > 1e120
            f = tmp[rescaled]
            u_next[rescaled] /= f
            u_cur[rescaled] /= f
            s[rescaled] += np.log(f)
        yield k + 1, u_next, rescaled
        u_prev, u_cur = u_cur, u_next


def derivative_matrix(js: JacobiSystem, K: int) -> np.ndarray:
    """Expansion coefficients of P_n' over P_0..P_{n-1} (strictly upper).

    Differentiating the three-term recurrence gives, in coefficient space,

        c^{(n+1)} = (e_n + (J - h(n)) c^{(n)} - b(n) c^{(n-1)}) / b(n+1)

    with J the tridiagonal ladder matrix; no quadrature and no large-node
    cancellation, so the columns stay accurate at any K.
    """
    D = np.zeros((K, K))
    if K < 2:
        return D
    b, h = js.arrays(K - 1)
    prev = np.zeros(K)
    cur = np.zeros(K)
    cur[0] = 1.0 / b[1]
    D[:, 1] = cur
    for n in range(1, K - 1):
        jc = h * cur
        jc[:-1] += b[1:] * cur[1:]
        jc[1:] += b[1:] * cur[:-1]
        nxt = (jc - h[n] * cur - b[n] * prev) / b[n + 1]
        nxt[n] += 1.0 / b[n + 1]
        D[:, n + 1] = nxt
        prev, cur = cur, nxt
    return D


def eval_poly(js: JacobiSystem, n: int, omega: float) -> tuple[float, float, float]:
    """(P_n, P_n', P_n'') at omega for the orthonormal system ``js``.

    P_0..P_n come from the scaled sweep at the one node omega; with
    D = derivative_matrix(js, n + 1) the derivatives are P' = D^T P and
    P'' = D^T P'.
    """
    s = np.zeros(1)
    p = np.empty(n + 1)
    for k, u, _ in scaled_sweep(*js.arrays(n), np.array([float(omega)]), s):
        p[k] = u[0] * math.exp(s[0])
    D = derivative_matrix(js, n + 1)
    dp = D.T @ p
    return float(p[n]), float(dp[n]), float(D[:, n] @ dp)


def log_weight_mass(pd: PearsonData) -> float:
    """log of int w(omega) domega for the representative weight (C = 1).

    The representative weight is exp((a1 w^2/2 + a0 w)/b0) for Hermite,
    (w + b0/b1)^(mu-1) exp((a1/b1) w) for Laguerre and
    (w-a)^(mu-1) (b-w)^(nu-1) for Jacobi.
    """
    return pd.log_mass()


def rodrigues_log_norm(pd: PearsonData, n: int, C: float) -> float:
    """log of the positive Rodrigues normalization c_n (see rodrigues_constant)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if C <= 0.0:
        raise ValueError("C must be positive")
    log_mass = math.log(C) + log_weight_mass(pd)
    return -0.5 * pd.rodrigues_log(n, log_mass)


def rodrigues_constant(pd: PearsonData, n: int, C: float) -> float:
    """Positive normalization c_n of the n-th Rodrigues polynomial.

    c_n is fixed by requiring rho^{-1} d^n(rho B^n) * c_n to have unit norm
    in L^2(C * rho * domega).  Note the Rodrigues polynomial with this
    positive c_n has leading coefficient of sign (-1)^n relative to the
    recurrence (positive-leading) convention; closed forms downstream carry
    that phase explicitly.
    """
    return math.exp(rodrigues_log_norm(pd, n, C))


def ode_residual(pd: PearsonData, n: int, omega: float) -> float:
    """|A P_n' + B P_n'' - lambda_n P_n| at omega, lambda_n = a1 n + b2 n(n-1).

    The raw (signed) quadratic coefficient enters lambda_n; for Jacobi data
    in the normalized gauge that coefficient is negative.
    """
    js = recurrence(pd)
    p, d1, d2 = eval_poly(js, n, omega)
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
    return pd.strong_field()
