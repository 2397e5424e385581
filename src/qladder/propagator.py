"""Ladder-basis matrix elements of the evolution operator exp(-i H t).

Once a Hamiltonian has been reduced to a tridiagonal ladder carried by a
classified Pearson pair, the spectral theorem turns every matrix element of
exp(-i H t) between ladder states into an integral against the spectral
measure:

    sigma_mn(t) = int exp(-i omega t) P_m(omega) P_n(omega) dsigma(omega),

with P_n the orthonormal recurrence polynomials and dsigma probability
normalized.  The one-index coefficients sigma_n = sigma_0n and the
characteristic function sigma(z) = sigma_00(z) extend to complex arguments
on a horizontal strip.

Two independent evaluation routes are provided on purpose:

* closed forms coming from the Rodrigues representation (``char_fn``,
  ``sigma_n``, ``sigma_mn_closed``), assembled in log space so large
  indices do not overflow;
* Gauss quadrature in the spectral measure itself (``sigma_mn_quad``,
  ``sigma_row``, ``evolve``).  The quadrature route uses weight-damped
  polynomial rows which are exactly orthonormal under the discrete rule,
  so propagating a coefficient vector is unitary up to the reported tail
  deficit.

Each route is used to cross-check the other in the test-suite.
"""

from __future__ import annotations

import cmath
import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, StripError, Unsupported
from .measure import SpectralMeasure, gauss_rule, normalize
from .orthopoly import (
    HERMITE,
    JACOBI,
    LAGUERRE,
    JacobiSystem,
    PearsonData,
    recurrence,
    rodrigues_log_norm,
    scaled_sweep,
)
from .specfun import hyp1f1, ln_gamma

__all__ = [
    "StripDomain",
    "PropagatorContext",
    "build_context",
    "char_fn",
    "sigma_n",
    "sigma_mn",
    "sigma_mn_closed",
    "sigma_mn_quad",
    "sigma_row",
    "evolve",
    "require_selfadjoint",
]


@dataclass(frozen=True)
class StripDomain:
    """Open horizontal strip lower < Im z < upper in the complex z plane.

    This is the strip of admissible *state* labels; characteristic-function
    arguments live on the doubled strip (see ``char_fn``).
    """

    lower: float
    upper: float

    def contains(self, z: complex) -> bool:
        return self.lower < complex(z).imag < self.upper


@dataclass(frozen=True)
class PropagatorContext:
    """Bundle of spectral data for one classified Pearson pair.

    ``sm`` is probability normalized; all sigma coefficients below refer to
    the orthonormal polynomial system of that unit-mass measure.
    """

    pd: PearsonData
    sm: SpectralMeasure
    js: JacobiSystem
    strip: StripDomain


def build_context(pd: PearsonData) -> PropagatorContext:
    """Normalize the measure of ``pd`` and package everything needed."""
    sm = normalize(pd)
    js = recurrence(pd)
    if pd.family == LAGUERRE:
        gamma = -pd.a1 / pd.b1
        strip = StripDomain(-math.inf, 0.5 * gamma)
    else:
        strip = StripDomain(-math.inf, math.inf)
    return PropagatorContext(pd=pd, sm=sm, js=js, strip=strip)


def _check_char_domain(ctx: PropagatorContext, z: complex) -> None:
    """The transform integral converges for Im z on the doubled strip."""
    if ctx.pd.family == LAGUERRE:
        gamma = -ctx.pd.a1 / ctx.pd.b1
        if z.imag >= gamma:
            raise StripError(
                f"Im z = {z.imag:g} outside the transform domain Im z < {gamma:g}"
            )


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


# ---------------------------------------------------------------------------
# Quadrature infrastructure (shared by the discrete routes)
# ---------------------------------------------------------------------------

_RULE_CACHE: OrderedDict = OrderedDict()
_QMAT_CACHE: OrderedDict = OrderedDict()
_CACHE_SLOTS = 12


def _cache_put(cache: OrderedDict, key, val) -> None:
    cache[key] = val
    cache.move_to_end(key)
    while len(cache) > _CACHE_SLOTS:
        cache.popitem(last=False)


def _rule_data(ctx: PropagatorContext, N: int):
    """Gauss nodes, weights and log-weights of the N point rule."""
    key = (ctx.pd, ctx.sm.C, N)
    got = _RULE_CACHE.get(key)
    if got is None:
        rule = gauss_rule(ctx.sm, N)
        got = (rule.nodes, rule.weights, rule.log_weights)
        _cache_put(_RULE_CACHE, key, got)
    return got


def _weighted_poly_matrix(ctx: PropagatorContext, N: int, nmax: int):
    """Rows Q_k(omega_i) = sqrt(w_i) P_k(omega_i), k = 0..nmax.

    These rows are exactly orthonormal under plain summation over i for
    k < N, which is what makes the discrete propagation unitary.  Every
    entry is bounded by 1.  The sweep's log scale starts at log sqrt(w_i),
    so the weight is folded in only at emission time: sqrt(w_i) itself
    underflows at far nodes of unbounded supports while the emitted
    products are of order one exactly where the row lives.
    """
    if nmax >= N:
        raise ValueError("poly matrix needs nmax < N")
    nodes, _, logw = _rule_data(ctx, N)
    key = (ctx.pd, ctx.sm.C, N)
    cached = _QMAT_CACHE.get(key)
    if cached is not None and cached.shape[0] > nmax:
        return nodes, cached
    Q = np.empty((nmax + 1, N))
    s = 0.5 * logw
    es = np.exp(s)
    for k, u, rescaled in scaled_sweep(ctx.js, nodes, nmax, s):
        if rescaled is not None:
            es[rescaled] = np.exp(s[rescaled])
        Q[k] = u * es
    _cache_put(_QMAT_CACHE, key, Q)
    return nodes, Q


def _log_poly_rows(ctx: PropagatorContext, N: int, rows):
    """log magnitudes and signs of selected orthonormal polynomial rows.

    Returns (nodes, logw, table) with table[k] = (log|P_k(x_i)|, sign_i).
    Unlike the weighted matrix this never flushes far nodes to zero, which
    matters for integrands growing against the measure.
    """
    want = sorted(set(rows))
    if want[0] < 0:
        raise ValueError("row indices must be nonnegative")
    nodes, _, logw = _rule_data(ctx, N)
    table = {}
    s = np.zeros_like(nodes)
    for k, u, _ in scaled_sweep(ctx.js, nodes, want[-1], s):
        if k in want:
            with np.errstate(divide="ignore"):
                table[k] = (np.log(np.abs(u)) + s, np.sign(u))
    return nodes, logw, table


def _spread_nodes(ctx: PropagatorContext, t: float) -> int:
    """Extra rule size soaking up the bandwidth of exp(-i omega t)."""
    pd = ctx.pd
    t = abs(t)
    if pd.family == LAGUERRE:
        if t == 0.0:
            return 32
        gamma = -pd.a1 / pd.b1
        # one-index coefficients decay like q^k
        q = t / math.hypot(t, gamma)
        return 32 + int(40.0 / max(1e-3, -math.log(q)))
    if pd.family == JACOBI:
        a, b = pd.support
        return 32 + int(2.0 * t * (b - a))
    scale = math.sqrt(pd.b0 * (-pd.a1))
    return 32 + int(4.0 * t * (1.0 + scale) + 0.5 * (t * scale) ** 2)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def char_fn(ctx: PropagatorContext, z: complex) -> complex:
    """Characteristic function sigma(z) = int exp(-i z omega) dsigma.

    Defined for Im z on the doubled state strip (always for Hermite and
    Jacobi pairs; Im z < -a1/b1 for Laguerre pairs, where the principal
    branch of the power is taken).
    """
    z = complex(z)
    _check_char_domain(ctx, z)
    pd = ctx.pd
    if pd.family == HERMITE:
        return cmath.exp(
            (pd.b0 / (2.0 * pd.a1)) * z * z + 1j * (pd.a0 / pd.a1) * z
        )
    if pd.family == LAGUERRE:
        gamma = -pd.a1 / pd.b1
        beta = pd.b0 / pd.b1
        p = 1.0 + 1j * z / gamma
        return cmath.exp(-pd.mu * cmath.log(p) + 1j * beta * z)
    L, V = _char_jacobi_shifted(ctx, z, 0, 0)
    return math.exp(L) * V


def _char_jacobi_shifted(
    ctx: PropagatorContext, z: complex, dmu: int, dnu: int
):
    """Transform of the Jacobi weight with indices raised to mu+dmu, nu+dnu.

    Returns ``(L, V)`` with the value equal to exp(L) * V; keeping the
    positive magnitude in log form lets callers combine it with Rodrigues
    normalizations of arbitrary order without overflow.
    """
    pd = ctx.pd
    a, b = pd.support
    mu, nu = pd.mu, pd.nu
    mup, nup = mu + dmu, nu + dnu
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
    nodes, _, logw = _rule_data(ctx, N)
    hw = 0.5 * (b - a)
    logs = logw + z.imag * nodes
    if dmu:
        logs = logs + dmu * np.log((nodes - a) / hw)
    if dnu:
        logs = logs + dnu * np.log((b - nodes) / hw)
    M = float(logs.max())
    V = complex(np.sum(np.exp(logs - M) * np.exp(-1j * z.real * nodes)))
    return M + (dmu + dnu) * math.log(hw), V


def sigma_n(ctx: PropagatorContext, n: int, z: complex) -> complex:
    """One-index coefficient sigma_n(z) = int exp(-i z omega) P_n dsigma."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    z = complex(z)
    _check_char_domain(ctx, z)
    if z == 0:
        return complex(1.0 if n == 0 else 0.0)
    pd = ctx.pd
    lc = rodrigues_log_norm(pd, n, ctx.sm.C)
    if pd.family == HERMITE:
        expo = lc + n * cmath.log(-1j * pd.b0 * z)
        return cmath.exp(expo) * char_fn(ctx, z)
    if pd.family == LAGUERRE:
        gamma = -pd.a1 / pd.b1
        expo = (
            lc
            + ln_gamma(pd.mu + n)
            - ln_gamma(pd.mu)
            + n * cmath.log(-pd.b1 * z / (z - 1j * gamma))
        )
        return cmath.exp(expo) * char_fn(ctx, z)
    L, V = _char_jacobi_shifted(ctx, z, n, n)
    expo = lc + n * math.log(pd.b2_factored) + n * cmath.log(-1j * z) + L
    return cmath.exp(expo) * V


def sigma_mn_closed(ctx: PropagatorContext, m: int, n: int, z: complex) -> complex:
    """Two-index coefficient sigma_mn(z) by the Rodrigues closed forms.

    Finite alternating sums; intended for moderate m + n (the generic
    ``sigma_mn`` switches to quadrature beyond m + n = 24 where the
    cancellation starts to eat precision).
    """
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    z = complex(z)
    _check_char_domain(ctx, z)
    if z == 0:
        return complex(1.0 if m == n else 0.0)
    if m > n:
        m, n = n, m  # symmetric
    pd = ctx.pd
    C = ctx.sm.C
    lcm = rodrigues_log_norm(pd, m, C)
    lcn = rodrigues_log_norm(pd, n, C)
    if pd.family == HERMITE:
        base = (
            lcm
            + lcn
            + ln_gamma(m + 1.0)
            + ln_gamma(n + 1.0)
            + (m + n) * math.log(pd.b0)
        )
        lr = math.log(-pd.a1 / pd.b0)
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
        return _sum_exp(logs) * char_fn(ctx, z)
    if pd.family == LAGUERRE:
        mu = pd.mu
        gamma = -pd.a1 / pd.b1
        s = 1j * z / gamma
        base = (
            lcm
            + lcn
            + (m + n) * math.log(pd.b1)
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
        return sign * _sum_exp(logs) * char_fn(ctx, z)
    # Jacobi: double Leibniz expansion over shifted weight transforms
    mu, nu = pd.mu, pd.nu
    pre = lcm + lcn + (m + n) * math.log(pd.b2_factored)
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
            L, V = _char_jacobi_shifted(ctx, z, k + l, m + n - k - l)
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


# ---------------------------------------------------------------------------
# Discrete (quadrature) routes
# ---------------------------------------------------------------------------


def sigma_mn_quad(
    ctx: PropagatorContext, m: int, n: int, z: complex, N: int | None = None
) -> complex:
    """sigma_mn by Gauss quadrature in the spectral measure.

    Machine accurate for real arguments and for Im z within the
    square-integrable strip.  On a Laguerre pair with Im z close to the
    transform boundary the oscillatory sum is exponentially ill conditioned
    and the closed form should be preferred (``sigma_mn`` routes this way).
    """
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    z = complex(z)
    _check_char_domain(ctx, z)
    if N is None:
        N = m + n + 96 + _spread_nodes(ctx, abs(z))
        y = z.imag
        pd = ctx.pd
        if y > 0.0 and pd.family == LAGUERRE:
            # the integrand decays only like exp(-(gamma - y) omega), so the
            # node range (about 4N/gamma) must reach omega_need, and the node
            # spacing out there (~sqrt(4 omega gamma / N)) must still resolve
            # the oscillation period 2 pi / |Re z|
            gamma = -pd.a1 / pd.b1
            omega_need = 45.0 / (gamma - y)
            n_range = 0.4 * gamma * omega_need
            n_osc = 0.61 * omega_need * z.real**2 / gamma
            N += int(max(n_range, n_osc))
        elif y != 0.0 and pd.family == HERMITE:
            tau = -pd.a1 / (2.0 * pd.b0)
            N += 32 + int(abs(z) ** 2 / (2.0 * tau))
        N = min(N, 6144)
    if z.imag == 0.0:
        nodes, Q = _weighted_poly_matrix(ctx, N, max(m, n))
        return complex(np.sum(np.exp(-1j * z.real * nodes) * Q[m] * Q[n]))
    # complex argument: the integrand grows against the measure, so far
    # nodes (whose sqrt-weights underflow in the damped matrix) can carry
    # the entire mass; assemble per node fully in log space instead
    nodes, logw, table = _log_poly_rows(ctx, N, (m, n))
    lam, sm_ = table[m]
    lan, sn_ = table[n]
    logs = logw + lam + lan + z.imag * nodes
    sign = sm_ * sn_
    M = float(logs.max())
    if M == -math.inf:
        return 0j
    vals = sign * np.exp(logs - M) * np.exp(-1j * z.real * nodes)
    return complex(np.sum(vals) * math.exp(M))


def sigma_mn(ctx: PropagatorContext, m: int, n: int, z: complex) -> complex:
    """Two-index coefficient, routed by total degree and argument.

    Closed forms up to m + n = 24; beyond that their alternating sums lose
    precision and the quadrature route is both faster and more accurate.
    Exception: for a Laguerre pair with Im z beyond the square-integrable
    strip (above ~0.45 * gamma) the discrete sum is dominated by an
    exponentially larger envelope and only the closed form remains
    meaningful, so it is used for every degree there (it warns if its own
    cancellation becomes severe).
    """
    z = complex(z)
    if ctx.pd.family == LAGUERRE:
        gamma = -ctx.pd.a1 / ctx.pd.b1
        if z.imag > 0.45 * gamma:
            return sigma_mn_closed(ctx, m, n, z)
    if m + n <= 24:
        return sigma_mn_closed(ctx, m, n, z)
    return sigma_mn_quad(ctx, m, n, z)


def sigma_row(
    ctx: PropagatorContext, n: int, t: float, kmax: int, N: int | None = None
) -> np.ndarray:
    """Array of sigma_nk(t) for k = 0..kmax at real time t."""
    if n < 0 or kmax < 0:
        raise ValueError("indices must be nonnegative")
    t = float(t)
    if N is None:
        N = max(n, kmax) + 64 + _spread_nodes(ctx, t)
    N = max(N, max(n, kmax) + 1)
    nodes, Q = _weighted_poly_matrix(ctx, N, max(n, kmax))
    f = np.exp(-1j * t * nodes) * Q[n]
    return Q[: kmax + 1] @ f


def evolve(
    ctx: PropagatorContext,
    coeffs,
    t: float,
    tail: float = 1e-12,
    max_dim: int = 8192,
) -> np.ndarray:
    """Propagate ladder coefficients: out_k = sum_n c_n sigma_nk(t).

    The output length adapts until the unitarity deficit
    ||c||^2 - ||out||^2 (nonnegative by construction, equal to the weight
    leaked past the kept rows) drops below ``tail`` relative to ||c||^2.
    """
    c = np.ascontiguousarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coeffs must be a nonempty 1-d array")
    t = float(t)
    nrm2 = float(np.vdot(c, c).real)
    if nrm2 == 0.0:
        return np.zeros(c.size, dtype=complex)
    K = c.size + 64 + _spread_nodes(ctx, t)
    while True:
        K = min(K, max_dim)
        N = K + 64
        nodes, Q = _weighted_poly_matrix(ctx, N, K)
        f = np.exp(-1j * t * nodes) * (c @ Q[: c.size])
        out = Q @ f
        deficit = nrm2 - float(np.vdot(out, out).real)
        if deficit <= tail * nrm2:
            return out
        if K >= max_dim:
            raise ConvergenceError(
                f"propagation needs more than {max_dim} ladder levels "
                f"(unitarity deficit {deficit:.3e})"
            )
        K *= 2


def require_selfadjoint(js: JacobiSystem, n_probe: int = 1024) -> None:
    """Certify essential self-adjointness of an infinite ladder.

    Divergence of sum 1/b(n) is sufficient; it holds whenever the couplings
    grow at most linearly.  Superlinear growth cannot be certified by this
    criterion and raises ``Unsupported`` rather than silently propagating a
    possibly non-unique dynamics.
    """
    if js.dim != math.inf:
        return
    b1 = js.b(n_probe)
    b2 = js.b(2 * n_probe)
    if not (b1 > 0.0 and b2 > 0.0):
        return
    growth = math.log(b2 / b1) / math.log(2.0)
    if growth > 1.0 + 1e-6:
        raise Unsupported(
            "cannot certify essential self-adjointness: ladder couplings "
            f"grow like n^{growth:.3g}, so sum 1/b(n) may converge"
        )
