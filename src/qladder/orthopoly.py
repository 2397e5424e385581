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
import itertools
import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from .errors import Unsupported
from .specfun import hyp1f1, hyp1f1_row, ln_gamma, log_whittaker_w

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
    "derivative_apply",
    "rodrigues_constant",
    "rodrigues_log_norm",
    "log_weight_mass",
    "ode_residual",
    "derivative_pearson",
    "strong_field",
]


@dataclass(frozen=True)
class PearsonData:
    """A classified Pearson pair A = a1*omega + a0, B = b2*omega^2 + b1*omega + b0.

    Coefficients are stored in the normalized sign gauge (see module
    docstring); ``support`` is the open interval carrying the weight.

    Each family subclass derives its shape parameters once and holds the
    closed forms, named after the functions that call them; methods taking
    ``ctx`` read ``ctx.sm.C`` and ``ctx.rule(N)`` of a PropagatorContext.
    ``strip_edge`` is the upper edge of the coherent-label strip,
    and ``closed_max_degree`` the highest m + n ``sigma_mn`` sends to closed form.
    ``shape()`` gives (key, h0, s): the ladder is h0 + s times that of
    ``canonical()``, the pair of the key in canonical gauge, so nodes map as h0 + s x^.
    ``dual`` is None, and the packet law ``levels`` absent, for a family with no discrete dual (Jacobi).
    ``end_values(n)`` is P_0..P_{n-1} at the finite ends of the support, the
    roots of B, as an (n, ends) array (Jacobi: upper end first), each column
    up to a constant: the classical closed values, from their ratios.
    """

    a0: float
    a1: float
    b0: float
    b1: float
    b2: float
    support: tuple[float, float]
    closed_max_degree: ClassVar[int]
    strip_edge: ClassVar[float] = math.inf
    dual: ClassVar = None

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

    def sigma_seq(self, ctx, z: complex, c0: complex):
        """sigma_0(z) = c0, sigma_1(z), ...; by default the scalar ``sigma_n`` per level."""
        yield c0
        yield from (self.sigma_n(ctx, n, z) if z else 0j for n in itertools.count(1))


@dataclass(frozen=True)
class JacobiSystem:
    """Three-term recurrence data of a ladder system.

    ``b(n)`` is the off-diagonal (b(0) = 0 always), ``h(n)`` the diagonal.
    Both take a level or an integer array of levels and evaluate
    elementwise, so ``arrays`` builds a whole ladder from one call of each.
    ``dim`` is math.inf for half-infinite ladders, an integer for finite
    sectors.  ``gamma0`` is the free-field frequency combination attached to
    the ladder by a multi-mode reduction; it is 0.0 for systems built
    directly from a Pearson family.  ``end_values(n)`` gives P_0..P_{n-1}
    at the finite ends of the support of a Pearson weight (the roots of B),
    as ``PearsonData.end_values`` does, for a system built by
    :func:`recurrence`; it is None for a ladder with no such weight.
    """

    b: Callable
    h: Callable
    dim: float = math.inf
    gamma0: float = 0.0
    end_values: Callable | None = None
    _prefix: tuple = field(default=(np.zeros(0), np.zeros(0)), init=False, compare=False, repr=False)
    _chain: tuple = field(default=(0, None), init=False, compare=False, repr=False)

    def arrays(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(b(0..n), h(0..n)), copied from the kept prefix, which one call of each function extends."""
        b, h = self._prefix
        if n >= b.size:
            k = np.arange(n + 1)
            b, h = np.asarray(self.b(k), dtype=float), np.asarray(self.h(k), dtype=float)
            object.__setattr__(self, "_prefix", (b, h))
        return b[:n + 1].copy(), h[:n + 1].copy()

    def derivative_chain(self, n: int) -> tuple:
        """The arrays of :func:`derivative_apply` on at least levels 0..n - 1: the kept prefix,
        rebuilt once n passes it."""
        size, chain = self._chain
        if n > size:
            size, chain = n, _chain_arrays(self.arrays(n - 1)[0], self.end_values(n))
            object.__setattr__(self, "_chain", (size, chain))
        return chain


def _products(ratios) -> list:
    """1, r_0, r_0 r_1, ...: the terms of a sum from their exact ratios, with no log round trip."""
    return [*itertools.accumulate(ratios, operator.mul, initial=1.0)]


def _ratio_sum(L: complex, ratios: list) -> complex:
    """sum_j T_j, T_0 = e^L and T_{j+1} = T_j ratios_j, normalized by the largest |T_j|.

    |ratios_j| must fall with j; where the last exceeds 1 the terms are built down from the last one.
    Warns when the alternating sum cancels away more than ~13 digits, since
    the returned value then carries almost no significant figures.
    """
    if ratios and abs(ratios[-1]) > 1.0:
        L += sum(map(cmath.log, ratios))
        ratios = [1.0 / q for q in reversed(ratios)]
    t = _products(ratios)
    peak = max(map(abs, t))
    acc = sum(t) / peak
    _warn_cancellation(abs(acc), L.real + math.log(peak))
    return acc * cmath.exp(L + math.log(peak))


def _node_sum(logs: np.ndarray, f, nodes: np.ndarray, x: float) -> tuple[float, complex]:
    """(M, V) with sum_i f_i e^{logs_i} e^{-i x nodes_i} = e^M * V.

    The Gauss-rule form of a transform int e^{-i z omega} f dsigma, with
    ``logs`` the log-weights plus Im z * nodes and any log magnitudes the
    caller splits off f.  The largest exponent is shifted out, so far
    weights that underflow on their own still count where the integrand
    grows against the measure.  (-inf, 0j) when every exponent is -inf.
    """
    M = float(logs.max())
    if M == -math.inf:
        return M, 0j
    return M, complex(np.sum(f * np.exp(logs - M) * np.exp(-1j * x * nodes)))


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


def _law_level(n: int, log0: float, ratio: np.ndarray, tail: float) -> int:
    """n + the last j with p_j + p_{j+1} + ... >= tail, p_j = e^log0 ratio_1 ... ratio_j."""
    if ratio.size == 0 or ratio[-1] >= 1.0:  # p still rises at the last level
        return n + ratio.size
    logp = log0 + np.concatenate(([0.0], np.cumsum(np.log(ratio))))
    return n + max(0, int(np.count_nonzero(np.logaddexp.accumulate(logp[::-1]) >= math.log(tail))) - 1)


_LOW, _PLAIN = -1000, 32
_LN2_HI, _LN2_LO = 0.6931471803691238, 1.9082149292705877e-10  # k * _LN2_HI is exact for |k| < 2^20


class _ClosedRatio:
    """Families with sigma_n = sigma_{n-1} w sqrt(beta + gap / n), ``_ratio(z)`` = (w, w in long
    double, beta, gap): Poisson (0, 1) for Hermite, negative binomial (1, mu - 1) for Laguerre.

    At real t, e^{-itJ} is a group element (the Heisenberg-Weyl displacement, a parabolic
    su(1,1) element), and its number-basis entries have a discrete dual: with q = |w|^2,
    <m|e^{-itJ}|j> = sigma_m(t) (-theta)^j p_j(m), theta = w / |w|, and p_j the orthonormal
    polynomials of the law |sigma_m(t)|^2 on the integers m, whose ladder ``dual_ladder(q, n)``
    gives: Charlier for Hermite (Koekoek, Lesky & Swarttouw 2010, 9.14), Meixner for Laguerre
    (9.10).  Column 0 is the label-t coherent vector sigma_m(t)."""

    def char(self, ctx, z: complex) -> complex:
        return cmath.exp(self._log_char(z))

    def sigma_seq(self, ctx, z: complex, c0: complex):
        """c0, sigma_1(z), ... by one complex multiply per level.  w rounded once leaves level n
        off by (1 + eps)^n, eps its relative remainder in long double, so levels from _PLAIN on are
        emitted times 1 + n eps; where c0 underflows, sigma_n 2^-k runs from log c0 until 2^_LOW."""
        w, w_exact, beta, gap = self._ratio(z)
        c, k, eps = c0, 0, 0j
        if abs(c0) < 2.0**_LOW:
            L = rodrigues_log_norm(self, 0, ctx.sm.C) + self._log_char(z)
            k = math.floor(L.real / _LN2)
            c = cmath.exp(L - k * _LN2_HI - k * _LN2_LO)
        for n in itertools.count(1):
            v = c * (1.0 + (n - 1) * eps) if eps else c
            yield v * 2.0**k if k else v
            if n == _PLAIN and w:
                eps = complex((w_exact() - w) / w)
            c *= w * math.sqrt(beta + gap / n)
            if k:  # exact powers of two: keep |c| ~ 1 until sigma_n passes 2^_LOW
                e = math.frexp(abs(c))[1]
                c, k = (c * 2.0**k, 0) if k + e > _LOW else (c * 2.0**-e, k + e)

    def dual(self, t: float, K: int, n: int):
        """(b, h, sigma, e, col) at real t != 0: the dual ladder arrays of degrees 0..n, column 0
        sigma_m(t) = sigma[m] 2^e[m], m = 0..K (the label-t coherent vector: sigma_0 times a
        cumulative product of the closed amplitude ratio, in long double so that level m is not
        off by m eps, as one rounding of w would leave it), and the column phases
        col_j = (-theta)^j, j = 0..n.  e is 0 while sigma_0 is above 2^_LOW; below, as in
        ``sigma_seq``, each ratio carries the exact power of two that keeps |sigma[m]| near 1,
        so that the levels whose amplitudes underflow a float keep their digits."""
        w, w_exact, beta, gap = self._ratio(t)
        ratio = w_exact() * np.sqrt(beta + gap / np.arange(1, K + 1, dtype=np.longdouble))
        L, e = self._log_char(t), np.zeros(K + 1, dtype=int)
        if L.real < _LOW * _LN2:
            log_ratio = np.log(np.abs(ratio).astype(float))
            e = np.rint((L.real + np.concatenate(([0.0], np.cumsum(log_ratio)))) / _LN2).astype(int)
            ratio = ratio * np.ldexp(np.longdouble(1.0), -np.diff(e))
        k = int(e[0])
        c0 = cmath.exp(L - k * _LN2_HI - k * _LN2_LO)
        sigma = np.cumprod(np.concatenate(([np.clongdouble(c0)], ratio)))
        col = np.exp(1j * cmath.phase(-w) * np.arange(n + 1))
        return (*self.dual_ladder(abs(w) ** 2, n), sigma, e, col)


def _moment_of(l: int, factorial_moment) -> float:
    """<N^l> = sum_k S(l, k) <N(N-1)...(N-k+1)>, S the Stirling numbers of the second kind."""
    row = [1.0]  # S(j, 0..j), j = 0..l
    for _ in range(l):
        row = [k * a + b for k, (a, b) in enumerate(zip(row + [0.0], [0.0] + row))]
    return sum(s * factorial_moment(k) for k, s in enumerate(row) if k)


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
class _Hermite(_ClosedRatio, PearsonData):
    """Hermite class: B = b0 > 0, support the whole line."""

    closed_max_degree = 24

    def ladder_b(self, n):
        return math.sqrt(-self.b0 / self.a1) * np.sqrt(n)

    def ladder_h(self, n):
        return np.full(np.shape(n), -self.a0 / self.a1)[()]

    def end_values(self, n: int) -> np.ndarray:
        return np.ones((n, 0))  # the support has no finite end

    def shape(self) -> tuple:
        return ("hermite", ()), -self.a0 / self.a1, math.sqrt(-self.b0 / self.a1)

    def canonical(self) -> PearsonData:
        return hermite_data(-1.0, 0.0, 1.0)

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

    def dual_ladder(self, q: float, n: int):
        # orthonormal Charlier polynomials of the Poisson law with intensity q
        j = np.arange(n + 1.0)
        return np.sqrt(q * j), j + q

    def levels(self, n: int, t: float, tail: float, top: int) -> int:
        # displaced-number law e^{-lam} lam^j / j! C(n + j, j), lam = (-b0/a1) t^2
        lam, j = (-self.b0 / self.a1) * t * t, np.arange(1.0, top - n + 1)
        return _law_level(n, -lam, lam * (n + j) / (j * j), tail) if lam else n

    def quad_extra(self, z: complex) -> int:
        tau = -self.a1 / (2.0 * self.b0)
        return 32 + int(abs(z) ** 2 / (2.0 * tau))

    def _log_char(self, z: complex) -> complex:
        return (self.b0 / (2.0 * self.a1)) * z * z + 1j * (self.a0 / self.a1) * z

    def _ratio(self, z: complex):
        return (-1j * self.b0 * z / math.sqrt(-self.a1 * self.b0),
                lambda: -1j * self.b0 * np.clongdouble(z) / np.sqrt(np.longdouble(-self.a1) * self.b0),
                0.0, 1.0)

    def sigma_n(self, ctx, n: int, z: complex) -> complex:
        lc = rodrigues_log_norm(self, n, ctx.sm.C)
        return cmath.exp(lc + n * cmath.log(-1j * self.b0 * z) + self._log_char(z))

    def sigma_mn_closed(self, ctx, m: int, n: int, z: complex) -> complex:
        # T_0 = c_m c_n (b0 u)^{m+n} and T_{j+1} / T_j = r (m - j)(n - j) / ((j + 1) u^2), j < m <= n
        C, r, u = ctx.sm.C, -self.a1 / self.b0, -1j * z
        L = rodrigues_log_norm(self, m, C) + rodrigues_log_norm(self, n, C) + (m + n) * cmath.log(self.b0 * u)
        return _ratio_sum(L, [r * (m - j) * (n - j) / ((j + 1) * u * u) for j in range(m)]) * self.char(ctx, z)

    def closed_number_moment(self, w: complex, l: int) -> float:
        # Poisson law with intensity xi = (-b0/a1)|w|^2: factorial moments xi^k
        xi = (-self.b0 / self.a1) * abs(w) ** 2
        return _moment_of(l, lambda k: xi**k)

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
class _Laguerre(_ClosedRatio, PearsonData):
    """Laguerre class: B = b1*(omega + beta), b1 > 0, gamma = -a1/b1 > 0."""

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

    def end_values(self, n: int) -> np.ndarray:
        # P_k(-beta) = (-1)^k sqrt((mu)_k / k!), the orthonormal L_k^(mu-1)(0)
        k = np.arange(1.0, n)
        return np.cumprod(np.concatenate(([1.0], -np.sqrt((self.mu + k - 1.0) / k))))[:, None]

    def shape(self) -> tuple:
        return ("laguerre", (self.mu,)), -self.beta, -self.b1 / self.a1

    def canonical(self) -> PearsonData:
        return laguerre_data(self.mu)  # a1 = -1, b1 = 1, b0 = 0: its mu is a0, exactly

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

    def dual_ladder(self, q: float, n: int):
        # orthonormal Meixner polynomials of the negative binomial law, beta = mu and c = q
        j = np.arange(n + 1.0)
        return np.sqrt(q * j * (j + self.mu - 1.0)) / (1.0 - q), (j + q * (j + self.mu)) / (1.0 - q)

    def levels(self, n: int, t: float, tail: float, top: int) -> int:
        # su(1,1) law (1 - q2)^mu (mu + n)_j / j! q2^j C(n + j, j), q2 = t^2 / (t^2 + gamma^2)
        q2, j = t * t / (t * t + self.gamma**2), np.arange(1.0, top - n + 1)
        ratio = q2 * (self.mu + n + j - 1.0) * (n + j) / (j * j)
        return _law_level(n, self.mu * math.log1p(-q2), ratio, tail) if q2 else n

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

    def _log_char(self, z: complex) -> complex:
        return -self.mu * cmath.log(1.0 + 1j * z / self.gamma) + 1j * self.beta * z

    def _ratio(self, z: complex):
        return (-z / (z - 1j * self.gamma),
                lambda: -np.clongdouble(z) / (z - 1j * np.longdouble(self.gamma)), 1.0, self.mu - 1.0)

    def sigma_n(self, ctx, n: int, z: complex) -> complex:
        expo = (rodrigues_log_norm(self, n, ctx.sm.C) + ln_gamma(self.mu + n) - ln_gamma(self.mu)
                + n * cmath.log(-self.b1 * z / (z - 1j * self.gamma)))
        return cmath.exp(expo + self._log_char(z))

    def sigma_mn_closed(self, ctx, m: int, n: int, z: complex) -> complex:
        # T_0 = c_m c_n (mu)_m (mu)_n (-b1 s / (1 + s))^{m+n} and T_{k+1} / T_k = (m - k)(n - k) / ((mu + k)(k + 1) s^2),
        # k < m <= n, s = iz / gamma
        mu, C, s = self.mu, ctx.sm.C, 1j * z / self.gamma
        L = (rodrigues_log_norm(self, m, C) + rodrigues_log_norm(self, n, C) + ln_gamma(mu + m) + ln_gamma(mu + n)
             - 2.0 * ln_gamma(mu) + (m + n) * cmath.log(-self.b1 * s / (1.0 + s)))
        return _ratio_sum(L, [(m - k) * (n - k) / ((mu + k) * (k + 1) * s * s) for k in range(m)]) * self.char(ctx, z)

    def closed_number_moment(self, w: complex, l: int) -> float:
        # negative binomial law (mu, q = |w|^2 / |w - i gamma|^2): factorial moments (mu)_k (q/(1-q))^k
        r = abs(w) ** 2 / (self.gamma * (self.gamma - 2.0 * w.imag))
        return _moment_of(l, lambda k: math.prod(self.mu + i for i in range(k)) * r**k)

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


# |w| = (b - a)|z| up to which the Jacobi transforms sum their confluent series; past it
# the series' terms cancel (sigma_n lost 4e-10 at |w| = 20) and a Gauss rule takes over
_SERIES_W = 12.0


@dataclass(frozen=True)
class _Jacobi(PearsonData):
    """Jacobi class: B = b2_factored*(omega - a)*(b - omega) on (a, b)."""

    closed_max_degree = 18  # at 20-24 the sums cancel past 1e-8

    def __post_init__(self):
        a, b = self.support
        b2f = -self.b2
        mu = (a * self.a1 + self.a0) / (b2f * (b - a))
        nu = (b * self.a1 + self.a0) / (b2f * (a - b))
        self.__dict__.update(b2_factored=b2f, mu=mu, nu=nu)

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

    def end_values(self, n: int) -> np.ndarray:
        # P_k at b and a: the classical P_k^(nu-1, mu-1) at 1 and -1, (nu)_k / k! and
        # (-1)^k (mu)_k / k!, over the root of its squared norm
        mu, nu = self.mu, self.nu
        s = mu + nu
        k = np.arange(1.0, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            # limit of (s+k-2)/(s+2k-3) as s -> 1 at k = 1, as in ladder_b
            pair = np.where((k == 1) & (abs(s - 1.0) < 1e-12), 1.0, (s + k - 2.0) / (s + 2.0 * k - 3.0))
        up = np.sqrt((nu + k - 1.0) * (s + 2.0 * k - 1.0) * pair / (k * (mu + k - 1.0)))
        ratios = np.stack((up, -(mu + k - 1.0) / (nu + k - 1.0) * up), axis=1)
        return np.cumprod(np.concatenate((np.ones((1, 2)), ratios)), axis=0)

    def shape(self) -> tuple:
        a, b = self.support
        return ("jacobi", (self.mu, self.nu)), 0.5 * (a + b), 0.5 * (b - a)

    def canonical(self) -> PearsonData:
        pd = jacobi_data(-1.0, 1.0, self.mu, self.nu)
        pd.__dict__.update(mu=self.mu, nu=self.nu)  # the key's exponents, not their re-derivation
        return pd

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

    def _beta_log(self, ctx, mup: float, nup: float) -> float:
        """log of C times the mass (b - a)^{mup+nup-1} B(mup, nup) of the weight with indices mup, nup."""
        a, b = self.support
        return (math.log(ctx.sm.C) + (mup + nup - 1.0) * math.log(b - a)
                + ln_gamma(mup) + ln_gamma(nup) - ln_gamma(mup + nup))

    def _shifted(self, ctx, z: complex, dmu: int, dnu: int):
        """Transform of the weight with indices raised to mu+dmu, nu+dnu: ``(L, V)``, the value
        exp(L) * V; row 0 of ``_shifted_row``, by the scalar series where that applies."""
        a, b = self.support
        mup, nup = self.mu + dmu, self.nu + dnu
        w = -1j * (b - a) * z
        if abs(w) <= _SERIES_W:
            return self._beta_log(ctx, mup, nup), hyp1f1(mup, mup + nup, w) * cmath.exp(-1j * a * z)
        L, _, V = self._shifted_row(ctx, z, dmu, dnu, 1)
        return L, complex(V[0])

    def _shifted_row(self, ctx, z: complex, dmu: int, dnu: int, rows: int):
        """Transforms of the weight with indices raised to mu+dmu+i, nu+dnu-i, i < ``rows``.

        Returns ``(L, g, V)`` with the values exp(L) * g_i * V_i: g_0 = 1 and
        g > 0 the magnitudes relative to row 0, from their exact ratios on the
        series.  Keeping L in log form lets callers combine it with Rodrigues
        normalizations of arbitrary order without overflow.
        """
        a, b = self.support
        mup, nup = self.mu + dmu, self.nu + dnu
        w = -1j * (b - a) * z
        if abs(w) <= _SERIES_W:
            # confluent series: int_0^1 e^{su} u^{m-1} (1-u)^{n-1} du, one Kummer row over i
            g = np.array(_products([(mup + i) / (nup - i - 1.0) for i in range(rows - 1)]))
            F = hyp1f1_row(mup + np.arange(rows), mup + nup, w)
            return self._beta_log(ctx, mup, nup), g, F * cmath.exp(-1j * a * z)
        # oscillatory regime: quadrature in the base measure with the index
        # shift carried as a polynomial factor, one log-sum per row over the
        # canonical nodes x^ of (-1, 1): (x - a) / hw = 1 + x^, (b - x) / hw = 1 - x^
        N = 64 + int(2.0 * abs(w)) + dmu + dnu
        xh, logw = ctx.rule(N)
        nodes = ctx.nodes(xh)
        logs = (logw + z.imag * nodes)[None]
        if dmu + dnu:
            i = np.arange(rows)[:, None]
            logs = logs + (dmu + i) * np.log(1.0 + xh) + (dnu - i) * np.log(1.0 - xh)
        M = logs.max(axis=1)
        V = np.sum(np.exp(logs - M[:, None]) * np.exp(-1j * z.real * nodes), axis=1)
        return M[0] + (dmu + dnu) * math.log(0.5 * (b - a)), np.exp(M - M[0]), V

    def sigma_n(self, ctx, n: int, z: complex) -> complex:
        lc = rodrigues_log_norm(self, n, ctx.sm.C)
        L, V = self._shifted(ctx, z, n, n)
        expo = lc + n * math.log(self.b2_factored) + n * cmath.log(-1j * z) + L
        return cmath.exp(expo) * V

    def sigma_mn_closed(self, ctx, m: int, n: int, z: complex) -> complex:
        # double Leibniz expansion over the m + n + 1 shifted transforms j = k + l, one row:
        # entry (k, l) is A_k B_l g_j V_j, A_k = C(m, k) (mu + k)_{m-k} (nu + m - k)_k / (mu)_m from
        # its ratios, B_l alike for n; the cancellation check divides by the largest entry and max |V_j|
        mu, nu, C = self.mu, self.nu, ctx.sm.C
        L, g, V = self._shifted_row(ctx, z, 0, m + n, m + n + 1)
        A, B = (np.array(_products([(d - k) * (nu + d - k - 1.0) / ((k + 1.0) * (mu + k)) for k in range(d)]))
                for d in (m, n))
        peak = (A[:, None] * B * g[np.arange(m + 1)[:, None] + np.arange(n + 1)]).max()
        c = np.convolve(A, B) * g
        c[1::2] *= -1.0
        acc = complex(np.dot(c, V)) / peak
        M = (L + math.log(peak) + rodrigues_log_norm(self, m, C) + rodrigues_log_norm(self, n, C)
             + (m + n) * math.log(self.b2_factored) + ln_gamma(mu + m) + ln_gamma(mu + n) - 2.0 * ln_gamma(mu))
        _warn_cancellation(abs(acc) / np.abs(V).max(), M)
        return (-1.0 if (m + n) % 2 else 1.0) * acc * math.exp(M)

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


def classify(a0: float, a1: float, b0: float, b1: float, b2: float) -> PearsonData:
    """Classify a raw Pearson pair, normalizing the sign gauge.

    Raises ValueError naming the violated admissibility condition.
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
    return JacobiSystem(b=pd.ladder_b, h=pd.ladder_h, end_values=pd.end_values)


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

_SWEEP_BLOCK = 64  # levels per block of scaled_sweep
_CHECK_LOG2 = 400  # |u| is measured once a bound says it could pass 2^400 (~1e120)
_RESCALE = 2.0**200  # and the nodes above 2^200 are then rescaled
_LN2 = math.log(2.0)


def scaled_sweep(b: np.ndarray, h: np.ndarray, x: np.ndarray, s: np.ndarray, block=None):
    """Run the recurrence at the nodes x, yielding (k, u_k, rescaled), k = 0..kmax.

    ``b``, ``h`` are the ladder arrays b(0..kmax), h(0..kmax) (see
    ``JacobiSystem.arrays``); their length fixes kmax.

    P_k(x_i) = u_k[i] * exp(s[i] - s_start[i]), where ``s`` is the caller's
    log-scale array, updated in place; ``rescaled`` is the mask of the nodes
    rescaled at step k, or None.

    The sweep runs in blocks of _SWEEP_BLOCK levels.  A block takes
    x - h(k) for all its levels as one array and writes its rows u_k,
    k0 <= k < k0 + _SWEEP_BLOCK, straight into ``block(k0)``, a 2-d array
    with a row per level (fewer at the end), so a caller keeps rows where it
    wants them; by default the sweep alternates between two arrays of its
    own.  ``block`` must not return the array of the block before, whose last
    row the next step reads.  A level is four in-place ufuncs, in the order
    ((x - h(k)) u_k - b(k) u_{k-1}) / b(k+1).

    |u| is measured only when a bound says it could pass 2^400 since the
    last check: log2 of the max then measured over u_k and u_{k-1} plus the
    sum of log2 max(1, g_j), g_j = (max_i |x_i - h(j)| + b(j)) / b(j+1),
    over the steps since.  At a check every node with |u_k| > 2^200 is
    rescaled by the exact power of two 2^-e that takes u_k there into
    [1/2, 1) (``frexp``), e log 2 is added to s, and the next step reads a
    copy of u_{k-1} rescaled alike.  So a rescale adds no rounding, a yielded
    row never changes (it stays valid until its block array is written
    again, two blocks later by default), and the checks depend on b, h and x
    alone: rows do not depend on how far the sweep runs.
    """
    kmax = len(b) - 1
    if block is None:
        own = np.empty((2, min(_SWEEP_BLOCK, kmax + 1), len(x)), dtype=x.dtype)

        def block(k0):
            return own[k0 // _SWEEP_BLOCK % 2]

    xf, hf, bf = (np.asarray(a, dtype=float) for a in (x, h[:-1], b))
    g = (np.maximum(xf.max() - hf, hf - xf.min()) + bf[:-1]) / bf[1:]
    grow = np.log2(np.maximum(g, 1.0)).tolist()
    bl = b.tolist()  # ufuncs take Python scalars
    xh = np.empty((min(_SWEEP_BLOCK, kmax), len(x)), dtype=x.dtype)
    tmp = np.empty_like(x)
    prev, cur, bound = np.zeros_like(x), None, 0.0
    for k0 in range(0, kmax + 1, _SWEEP_BLOCK):
        k1 = min(k0 + _SWEEP_BLOCK, kmax + 1)
        rows = block(k0)[: k1 - k0]
        if k0 == 0:
            rows[0] = 1.0
            cur = rows[0]
            yield 0, cur, None
        lo = max(k0, 1)
        np.subtract(x, h[lo - 1 : k1 - 1, None], out=xh[: k1 - lo])
        for k, u, xk in zip(range(lo, k1), rows[lo - k0 :], xh):
            np.multiply(xk, cur, out=u)
            np.multiply(prev, bl[k - 1], out=tmp)
            np.subtract(u, tmp, out=u)
            np.divide(u, bl[k], out=u)
            bound += grow[k - 1]
            rescaled = None
            if bound > _CHECK_LOG2:
                rescaled, cur, bound = _sweep_check(u, cur, s)
            yield k, u, rescaled
            prev, cur = cur, u


def _sweep_check(u, prev, s):
    """scaled_sweep's check at row u after prev: (rescaled mask or None, the prev to read, bound)."""
    big = np.abs(u) > _RESCALE
    rescaled = None
    if big.any():
        e = np.frexp(np.abs(u[big]).astype(float))[1]
        f = np.ldexp(1.0, -e)
        u[big] *= f
        prev = prev.copy()
        prev[big] *= f
        s[big] += e * _LN2
        rescaled = big
    top = max(np.max(np.abs(u)), np.max(np.abs(prev)))
    return rescaled, prev, max(math.frexp(float(top))[1], 0)


def _final_frame_sweep(b: np.ndarray, h: np.ndarray, x: np.ndarray, s: np.ndarray, rows: np.ndarray):
    """``scaled_sweep`` writing u_k into rows[k], yielding (k, u_k); at a rescale the rows before k
    move to the new frame by the same exact powers of two, so every row ends in the final frame s."""
    seen = np.zeros_like(s)  # s at each node's last rescale
    for k, u, rescaled in scaled_sweep(b, h, x, s, lambda k0: rows[k0 : k0 + _SWEEP_BLOCK]):
        if rescaled is not None:
            i = rescaled.nonzero()[0]
            rows[:k, i] *= np.ldexp(1.0, np.rint((seen[i] - s[i]) / _LN2).astype(int))
            seen[i] = s[i]
        yield k, u


def _log_row(u, s):
    """(log|P_k|, sign P_k) at the nodes from a row u_k of ``scaled_sweep`` and its log-scale."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(u)) + s, np.sign(u)


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


def _chain_arrays(b: np.ndarray, p: np.ndarray) -> tuple:
    """(P, lam, d) of :func:`derivative_apply` on levels 0..len(b) - 1 from their ``end_values`` p.

    P = p[:, 0], d_j = q_{j+1} - q_j with q = p[:, 1] / P (None with one end),
    lam_n = n / (b(n) P_{n-1} d_{n-1}); with no end, P = d = None and lam_n = n / b(n).
    """
    n = np.arange(len(b), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # lam_0 = 0 / 0 is never read
        if p.shape[1] == 0:
            return None, n / b, None
        P = p[:, 0]
        d = None if p.shape[1] == 1 else np.diff(p[:, 1] / P)
        lam = n / (b * np.concatenate(([np.nan], P[:-1] * (1.0 if d is None else d))))
    return P, lam, d


def derivative_apply(js: JacobiSystem, c: np.ndarray) -> np.ndarray:
    """D c over the last axis of c, D = derivative_matrix(js, N), in O(N) for N levels.

    B rho, the weight of the derivative family, is rho times one linear factor
    per root of B, an end of the support, so the derivative family is a
    Christoffel transform at those ends (Szego, Orthogonal Polynomials,
    Thm 2.5) and D above its superdiagonal n / b(n) has rank deg B.  With P_k
    at the first end e of ``js.end_values`` and q_k = P_k(a) / P_k(e) at the
    other end a, for k < n:

        Hermite  (no end)    D[k, n] = n / b(n) for k = n - 1, else 0;
        Laguerre (end e)     D[k, n] = n / b(n) * P_k / P_{n-1};
        Jacobi   (ends a, e) D[k, n] = n / b(n) * P_k / P_{n-1} * (q_n - q_k) / (q_n - q_{n-1}).

    q_n - q_k is summed as q_{j+1} - q_j, j = k..n-1, terms that alternate in
    sign as P_j(a) does, so none cancels: one or two reverse cumulative sums
    along the last axis, and each row of c gets what it alone would.  The end
    values are the closed ones (a sweep of the rounded ladder reaches the
    ends ~10x less accurately), kept per system by ``derivative_chain``.
    """
    if js.end_values is None:
        raise ValueError("derivative_apply needs the support ends of a Pearson weight "
                         "(a system from recurrence); derivative_matrix takes any ladder")
    N = c.shape[-1]
    out = np.zeros(c.shape, dtype=np.result_type(c, float))
    if N < 2:
        return out
    P, lam, d = js.derivative_chain(N)
    t = c[..., :0:-1] * lam[N - 1:0:-1]  # lam_n c_n, n = N-1 down to 1
    if P is not None:
        np.cumsum(t, axis=-1, out=t)  # sum_{n>k} lam_n c_n, k = N-2 down to 0
        if d is not None:
            t *= d[N - 2::-1]
            np.cumsum(t, axis=-1, out=t)
        t *= P[N - 2::-1]
    out[..., -2::-1] = t
    return out


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
