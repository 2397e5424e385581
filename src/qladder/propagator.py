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

Each route is used to cross-check the other in the test-suite.  The
per-family closed forms and rule sizes live on the PearsonData subclasses
of :mod:`qladder.orthopoly`; the functions here check their arguments and
the strip, then call them.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, StripError, Unsupported
from .measure import SpectralMeasure, gauss_rule, normalize
from .orthopoly import JacobiSystem, PearsonData, recurrence, scaled_sweep

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

    def rule(self, N: int):
        """Gauss nodes and log-weights of the N point rule (cached)."""
        rule = _RULES.get_or_build((self.pd, self.sm.C, N), lambda: gauss_rule(self.sm, N))
        return rule.nodes, rule.log_weights


def build_context(pd: PearsonData) -> PropagatorContext:
    """Normalize the measure of ``pd`` and package everything needed."""
    strip = StripDomain(-math.inf, pd.strip_edge)
    return PropagatorContext(pd=pd, sm=normalize(pd), js=recurrence(pd), strip=strip)


def _check_char_domain(ctx: PropagatorContext, z: complex) -> None:
    """The transform integral converges for Im z on the doubled strip."""
    edge = 2.0 * ctx.strip.upper
    if z.imag >= edge:
        raise StripError(
            f"Im z = {z.imag:g} outside the transform domain Im z < {edge:g}"
        )


# ---------------------------------------------------------------------------
# Quadrature infrastructure (shared by the discrete routes)
# ---------------------------------------------------------------------------

class _LRU:
    """Map keeping its ``slots`` most recently used entries, under one lock."""

    def __init__(self, slots: int):
        self.slots, self._data, self._lock = slots, OrderedDict(), threading.Lock()

    def get(self, key):
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            return self._data.get(key)

    def put(self, key, val) -> None:
        with self._lock:
            self._data[key] = val
            self._data.move_to_end(key)
            if len(self._data) > self.slots:
                self._data.popitem(last=False)

    def get_or_build(self, key, build):
        """The value at ``key``, from ``build()`` (run outside the lock) on a miss."""
        val = self.get(key)
        if val is None:
            val = build()
            self.put(key, val)
        return val


_RULES = _LRU(12)
_QMATS = _LRU(12)


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
    nodes, logw = ctx.rule(N)
    key = (ctx.pd, ctx.sm.C, N)
    cached = _QMATS.get(key)
    if cached is not None and cached.shape[0] > nmax:
        return nodes, cached
    Q = np.empty((nmax + 1, N))
    s = 0.5 * logw
    es = np.exp(s)
    for k, u, rescaled in scaled_sweep(*ctx.js.arrays(nmax), nodes, s):
        if rescaled is not None:
            es[rescaled] = np.exp(s[rescaled])
        np.multiply(u, es, out=Q[k])
    _QMATS.put(key, Q)
    return nodes, Q


def _real_matvec(Q: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Q @ f for real Q and complex f, without a complex copy of Q."""
    return (Q @ np.stack((f.real, f.imag), axis=-1)).view(complex)[:, 0]


def _log_poly_rows(ctx: PropagatorContext, N: int, rows):
    """log magnitudes and signs of selected orthonormal polynomial rows.

    Returns (nodes, logw, table) with table[k] = (log|P_k(x_i)|, sign_i).
    Unlike the weighted matrix this never flushes far nodes to zero, which
    matters for integrands growing against the measure.
    """
    want = sorted(set(rows))
    if want[0] < 0:
        raise ValueError("row indices must be nonnegative")
    nodes, logw = ctx.rule(N)
    table = {}
    s = np.zeros_like(nodes)
    for k, u, _ in scaled_sweep(*ctx.js.arrays(want[-1]), nodes, s):
        if k in want:
            with np.errstate(divide="ignore"):
                table[k] = (np.log(np.abs(u)) + s, np.sign(u))
    return nodes, logw, table


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
    return ctx.pd.char(ctx, z)


def sigma_n(ctx: PropagatorContext, n: int, z: complex) -> complex:
    """One-index coefficient sigma_n(z) = int exp(-i z omega) P_n dsigma."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    z = complex(z)
    _check_char_domain(ctx, z)
    if z == 0:
        return complex(1.0 if n == 0 else 0.0)
    return ctx.pd.sigma_n(ctx, n, z)


def sigma_mn_closed(ctx: PropagatorContext, m: int, n: int, z: complex) -> complex:
    """Two-index coefficient sigma_mn(z) by the Rodrigues closed forms.

    Finite alternating sums; intended for moderate m + n (the generic
    ``sigma_mn`` switches to quadrature beyond ``pd.closed_max_degree``,
    24 or 18 for Jacobi, where the cancellation starts to eat precision).
    """
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    z = complex(z)
    _check_char_domain(ctx, z)
    if z == 0:
        return complex(1.0 if m == n else 0.0)
    if m > n:
        m, n = n, m  # symmetric
    return ctx.pd.sigma_mn_closed(ctx, m, n, z)


# ---------------------------------------------------------------------------
# Discrete (quadrature) routes
# ---------------------------------------------------------------------------


def sigma_mn_quad(
    ctx: PropagatorContext, m: int, n: int, z: complex, N: int | None = None
) -> complex:
    """sigma_mn by Gauss quadrature in the spectral measure.

    The sum is assembled per node in log space: for complex z the integrand
    grows against the measure, so far nodes (whose sqrt-weights underflow in
    the damped matrix of ``sigma_row``) can carry the entire mass.  Machine
    accurate for real arguments and for Im z within the square-integrable
    strip.  On a Laguerre pair with Im z close to the transform boundary the
    oscillatory sum is exponentially ill conditioned and the closed form
    should be preferred (``sigma_mn`` routes this way).
    """
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    z = complex(z)
    _check_char_domain(ctx, z)
    if N is None:
        N = m + n + 96 + ctx.pd.spread(abs(z)) + ctx.pd.quad_extra(z)
        N = min(N, 6144)
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

    Closed forms up to m + n = ``ctx.pd.closed_max_degree`` (24 for Hermite
    and Laguerre, 18 for Jacobi); beyond that their alternating sums lose
    precision and the quadrature route is both faster and more accurate.
    Exception: for a Laguerre pair with Im z beyond the square-integrable
    strip (above ~0.45 * gamma) the discrete sum is dominated by an
    exponentially larger envelope and only the closed form remains
    meaningful, so it is used for every degree there (it warns if its own
    cancellation becomes severe).
    """
    z = complex(z)
    if m + n <= ctx.pd.closed_max_degree or z.imag > 0.9 * ctx.strip.upper:
        return sigma_mn_closed(ctx, m, n, z)
    return sigma_mn_quad(ctx, m, n, z)


def sigma_row(ctx: PropagatorContext, n: int, t: float, kmax: int) -> np.ndarray:
    """Array of sigma_nk(t) for k = 0..kmax at real time t."""
    if n < 0 or kmax < 0:
        raise ValueError("indices must be nonnegative")
    t = float(t)
    N = max(n, kmax) + 64 + ctx.pd.spread(abs(t))
    nodes, Q = _weighted_poly_matrix(ctx, N, max(n, kmax))
    f = np.exp(-1j * t * nodes) * Q[n]
    return _real_matvec(Q[: kmax + 1], f)


def evolve(
    ctx: PropagatorContext,
    coeffs,
    t: float,
    tail: float = 1e-12,
    max_dim: int = 8192,
) -> np.ndarray:
    """Propagate ladder coefficients: out_k = sum_n c_n sigma_nk(t).

    The output keeps K + 1 levels, K = c.size + 64 + spread(t) at first,
    on a rule of K + 64 nodes.  K doubles until the unitarity deficit
    ||c||^2 - ||out||^2 (nonnegative by construction, equal to the weight
    leaked past the kept rows) drops below ``tail`` relative to ||c||^2.
    K is clamped to ``max_dim``; a first K above it raises
    ConvergenceError at once, since a smaller rule would measure a
    deficit it cannot resolve.
    """
    c = np.ascontiguousarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coeffs must be a nonempty 1-d array")
    t = float(t)
    nrm2 = float(np.vdot(c, c).real)
    if nrm2 == 0.0:
        return np.zeros(c.size, dtype=complex)
    K = c.size + 64 + ctx.pd.spread(abs(t))
    if K > max_dim:
        raise ConvergenceError(
            f"propagation needs {K} ladder levels at first, "
            f"more than max_dim = {max_dim}"
        )
    while True:
        nodes, Q = _weighted_poly_matrix(ctx, K + 64, K)
        f = np.exp(-1j * t * nodes) * _real_matvec(Q[: c.size].T, c)
        out = _real_matvec(Q, f)
        deficit = nrm2 - float(np.vdot(out, out).real)
        if deficit <= tail * nrm2:
            return out
        if K >= max_dim:
            raise ConvergenceError(
                f"propagation needs more than {max_dim} ladder levels "
                f"(unitarity deficit {deficit:.3e})"
            )
        K = min(2 * K, max_dim)


def require_selfadjoint(js: JacobiSystem) -> None:
    """Certify essential self-adjointness of an infinite ladder.

    Divergence of sum 1/b(n) is sufficient; it holds whenever the couplings
    grow at most linearly.  Superlinear growth cannot be certified by this
    criterion and raises ``Unsupported`` rather than silently propagating a
    possibly non-unique dynamics.
    """
    if js.dim != math.inf:
        return
    b1 = js.b(1024)
    b2 = js.b(2048)
    if not (b1 > 0.0 and b2 > 0.0):
        return
    growth = math.log(b2 / b1) / math.log(2.0)
    if growth > 1.0 + 1e-6:
        raise Unsupported(
            "cannot certify essential self-adjointness: ladder couplings "
            f"grow like n^{growth:.3g}, so sum 1/b(n) may converge"
        )
