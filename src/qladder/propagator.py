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

Three independent evaluation routes are provided on purpose:

* closed forms coming from the Rodrigues representation (``char_fn``,
  ``sigma_n``, ``sigma_mn_closed``), assembled in log space so large
  indices do not overflow;
* Gauss quadrature in the spectral measure itself (``sigma_mn_quad``,
  ``sigma_row``, ``evolve`` at complex z or on Jacobi pairs).  It uses
  weight-damped polynomial rows which are exactly orthonormal under the
  discrete rule, so propagating a coefficient vector is unitary up to the
  reported tail deficit;
* integer nodes, for Hermite and Laguerre pairs at real t (the same three
  functions).  There e^{-itJ} is a group element, the Heisenberg-Weyl
  displacement or a parabolic su(1,1) element, and its number-basis entries
  are sigma_m(t) (-theta)^j p_j(m): p_j the Charlier or Meixner polynomials
  (Koekoek, Lesky & Swarttouw 2010, 9.14 and 9.10) of the Poisson or negative
  binomial law |sigma_m(t)|^2 on the integers m.  One scaled sweep of their
  ladder over the nodes m = 0..K gives a block of columns, with K sized once
  from the packet law; no rule, no eigenvalues, no cache.

The routes cross-check one another in the test-suite.  The per-family closed
forms, duals and rule sizes live on the PearsonData subclasses of
:mod:`qladder.orthopoly`; the functions here check their arguments and the
strip, then call them.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, StripError
from .measure import SpectralMeasure, gauss_rule, normalize, weighted_rows
from .orthopoly import (
    _LN2,
    _SWEEP_BLOCK,
    JacobiSystem,
    PearsonData,
    _log_row,
    _node_sum,
    recurrence,
    scaled_sweep,
)

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
    the orthonormal polynomial system of that unit-mass measure.  Gauss rules
    belong to the ladder shape ``shape`` of ``pd.shape()``, and ``nodes`` maps
    theirs to the pair's by ``affine`` = (h0, s), None for the identity.
    """

    pd: PearsonData
    sm: SpectralMeasure
    js: JacobiSystem
    strip: StripDomain

    def __post_init__(self):
        key, h0, s = self.pd.shape()
        self.__dict__.update(shape=key, affine=None if (h0, s) == (0.0, 1.0) else (h0, s))

    @cached_property
    def base(self) -> PropagatorContext:
        """The context of ``pd.canonical()``: every rule of ``shape`` comes from its ladder."""
        return build_context(self.pd.canonical())

    def nodes(self, xh: np.ndarray) -> np.ndarray:
        """The pair's nodes h0 + s x^ of canonical nodes x^ (``xh`` itself under the identity)."""
        return xh if self.affine is None else self.affine[0] + self.affine[1] * xh

    def rule(self, N: int, rows: int | tuple = 0):
        """Canonical nodes x^ and log-weights of the shape's ``_rule_size(N)`` point rule (cached).

        The pair's nodes are ``nodes(x^)`` with the same weights.  With ``rows``
        = R > 0 it returns (x^, log-weights, Q), Q the uncached weighted rows
        sqrt(w_i) P_k, k < R: from the sweep that builds a cold rule, or one
        sweep of the canonical ladder over a cached rule's nodes.  With a tuple
        of degrees it returns (x^, log-weights, L): L the ``log_rows`` of a
        cold rule's sweep, None for a cached rule.
        """
        N = _rule_size(N)
        rule = _RULES.get(self.shape + (N,))
        logs = isinstance(rows, tuple)
        if rule is None:  # kept without the rows its sweep wrote
            rule = gauss_rule(self.base.sm, N, 0, rows) if logs else gauss_rule(self.base.sm, N, rows)
            _RULES.put(self.shape + (N,), replace(rule, rows=None, log_rows=None))
        if logs:
            return rule.nodes, rule.log_weights, rule.log_rows
        if not rows:
            return rule.nodes, rule.log_weights
        Q = weighted_rows(self.base.sm, rule, rows) if rule.rows is None else rule.rows
        return rule.nodes, rule.log_weights, Q


_RULE_GRID = 32
_PACKET_TAIL = 1e-16  # a first rule reads its packet's law to the rounding of a unit norm


def _rule_size(N: int) -> int:
    """N rounded to the nearest multiple of _RULE_GRID (ties up), at least _RULE_GRID.

    Rule sizes depend on the request alone, so a value never depends on what
    the caches hold, and the grid lets nearby requests share one rule.
    ``evolve`` keeps exactly 64 nodes above its highest row, ``sigma_row``
    at least 64 (a law-sized rule rounds up, a spread-sized one keeps 80).
    """
    return max(_RULE_GRID, (int(N) + _RULE_GRID // 2) // _RULE_GRID * _RULE_GRID)


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
    """Map keeping its ``slots`` most recently used entries, under one lock.

    It also keeps the bytes of its values (arrays, or tuples and lists of
    them) within ``max_bytes``, evicting the least recently used; a larger
    value is not kept.  With ``probation`` = P > 0 a new key's
    value goes to a probation segment of its own P slots, and only a ``get``
    that finds it there moves it to the main ``slots``: a value read twice
    within P newer first puts is built once and then kept, a value read once
    leaves with the P-th first put after it.  Both segments share the byte
    budget, and the probation segment gives up its entries first.
    """

    def __init__(self, slots: int, max_bytes: int, probation: int = 0):
        self.slots, self.max_bytes, self.probation = slots, max_bytes, probation
        self._data, self._lock = OrderedDict(), threading.Lock()  # key -> (value, bytes)
        self._trial = OrderedDict()  # the probation segment, key -> (value, bytes)
        self._bytes = 0

    @property
    def nbytes(self) -> int:
        """Bytes of the values held, in both segments."""
        with self._lock:
            return self._bytes

    def get(self, key):
        with self._lock:
            if key in self._trial:  # a second read: promote
                self._data[key] = self._trial.pop(key)
                self._evict(key)
            elif key not in self._data:
                return None
            self._data.move_to_end(key)
            return self._data[key][0]

    def put(self, key, val) -> None:
        size = _nbytes(val)
        if size > self.max_bytes:
            return
        with self._lock:
            for seg in (self._data, self._trial):
                if key in seg:
                    self._bytes -= seg.pop(key)[1]
                    break
            else:
                seg = self._trial if self.probation else self._data
            seg[key] = (val, size)
            self._bytes += size
            self._evict(key)

    def _evict(self, keep) -> None:
        """Drop least recently used entries, other than ``keep``, past the bounds."""
        while len(self._trial) > self.probation:
            self._bytes -= self._trial.popitem(last=False)[1][1]
        while len(self._data) > self.slots:
            self._bytes -= self._data.popitem(last=False)[1][1]
        while self._bytes > self.max_bytes:
            seg = self._trial if next(iter(self._trial), keep) != keep else self._data
            self._bytes -= seg.popitem(last=False)[1][1]

    def get_or_build(self, key, build):
        """The value at ``key``, from ``build()`` (run outside the lock) on a miss."""
        val = self.get(key)
        if val is None:
            val = build()
            self.put(key, val)
        return val


def _nbytes(val) -> int:
    """Bytes of the arrays in ``val``: an array, or a tuple or list of such values."""
    if isinstance(val, (tuple, list)):
        return sum(_nbytes(v) for v in val)
    return getattr(val, "nbytes", 0)


# Rules and their polynomial matrices are keyed shape + (N,): the pairs of
# one ladder shape share them.  Real-t requests on Hermite and Laguerre pairs
# read neither (they take the integer-node route), so rules serve complex z
# and Jacobi pairs, and matrices Jacobi evolve alone.  A rule holds 24 B per
# node, and sigma_row and the Jacobi shifted transforms size theirs without a
# cap, so _RULES keeps 128 rules within 4 MiB; a larger rule is used uncached.
# _QMATS holds the (N - 63) x N matrix of an N-node rule.  A new matrix waits
# in 12 probation slots and is kept when read again, so a request builds each
# matrix once and one-off shapes leave after 12 newer ones, not holding up to
# the 256 MiB budget.
_RULES = _LRU(128, 4 * 2**20)
_QMATS_BYTES = 256 * 2**20
_QMATS = _LRU(4096, _QMATS_BYTES, probation=12)


def _weighted_poly_matrix(ctx: PropagatorContext, N: int, nmax: int):
    """The pair's nodes omega_i and rows sqrt(w_i) P_k(omega_i), k = 0..nmax, of ``ctx.rule(N)``.

    A rule of S nodes has one cached matrix, rows 0..S - 64, and every
    caller (``evolve``, which reads them all) gets a slice of it; nmax >
    S - 64 raises ValueError.  On a miss the matrix comes from the sweep that
    builds the rule, if that is cold too.
    """
    N = _rule_size(N)
    if nmax > N - 64:
        raise ValueError(f"a {N}-node rule carries rows 0..{N - 64}, not {nmax}")
    cold = []  # the rule read by a matrix build: each call reads the rule once
    Q = _QMATS.get_or_build(ctx.shape + (N,), lambda: cold.append(ctx.rule(N, N - 63)) or cold[0][2])
    return ctx.nodes((cold[0] if cold else ctx.rule(N))[0]), Q[: nmax + 1]


def _real_matvec(Q: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Q @ f for real Q and a complex vector or matrix f, without a complex copy of Q."""
    f = np.ascontiguousarray(f, dtype=complex)
    return (Q @ f.view(float).reshape(len(f), -1)).view(complex).reshape(len(Q), *f.shape[1:])


def _dual_rows(ctx: PropagatorContext, t: float, K: int, n: int, first: int = 0):
    """The block <m|e^{-itJ}|j>, m = first..K, j = 0..n, at real t on a pair with a discrete dual.

    Returns (U, r, col): entry (m, j) is r[m - first] U[j, m - first] col[j] for m >= j, that is
    sigma_m(t) (-theta)^j p_j(m) of ``pd.dual``.  U holds one ``scaled_sweep`` of the dual ladder
    over degrees 0..n at the integer nodes m, all in the sweep's final frame, and r is sigma_m(t)
    in that frame, which sets the law's weight |sigma_m|^2: the exact powers of two of both
    meet before r is rounded to a double, so r holds where sigma_m alone would underflow.
    Below the degree, m < j, the forward recurrence is unstable: U is 0 there, and those
    entries are sigma_mj = sigma_jm, read at m' = j and j' = m.
    """
    if t == 0.0:
        return np.eye(n + 1, K + 1 - first, -first), np.ones(K + 1 - first, dtype=complex), np.ones(n + 1)
    b, h, sigma, e, col = ctx.pd.dual(t, K, n)
    x = np.arange(first, K + 1.0)
    U, s, seen = np.empty((n + 1, x.size)), np.zeros(x.size), None
    for k, u, rescaled in scaled_sweep(b, h, x, s, lambda k0: U[k0 : k0 + _SWEEP_BLOCK]):
        if k > first:
            u[: k - first] = 0.0
        if rescaled is not None:  # the rows before k move to the new frame, exactly
            i, seen = rescaled.nonzero()[0], np.zeros(x.size) if seen is None else seen
            U[:k, i] *= np.ldexp(1.0, np.rint((seen[i] - s[i]) / _LN2).astype(int))
            seen[i] = s[i]
    e = e[first:] + np.rint(s / _LN2).astype(int)  # sigma_m's powers of two and the frame's
    return U, (sigma[first:] * np.ldexp(np.longdouble(1.0), e)).astype(complex), col


def _law_size(ctx: PropagatorContext, n: int, t: float, tail: float, kcap: int) -> int | None:
    """Level past which the packet law ``pd.levels`` leaves e^{-iHt} on levels <= n a squared
    tail < ``tail``; None if that is above ``kcap``."""
    top = n + 64 + ctx.pd.spread(abs(t))
    while True:
        top = min(top, kcap + 1)
        K = ctx.pd.levels(n, abs(t), tail, top)
        if K < top:
            return K
        if top > kcap:
            return None
        top *= 2


def _packet_rule(ctx: PropagatorContext, n: int, t: float, keep: int, base: int) -> int:
    """First rule for e^{-iHt} on levels up to n: 64 nodes above ``keep`` and the law level
    (``pd.levels`` at _PACKET_TAIL, from level max(n, 4) so that the low number states a caller
    takes in turn share one rule), rounded up onto the grid, at most base + spread(t) nodes."""
    top = _rule_size(base + ctx.pd.spread(abs(t)))
    L = max(ctx.pd.levels(max(n, 4), abs(t), _PACKET_TAIL, top - 64), keep)
    return min(top, -(-(L + 64) // _RULE_GRID) * _RULE_GRID)


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
    """sigma_mn by Gauss quadrature in the spectral measure, or on integer nodes.

    At real z on a Hermite or Laguerre pair, and N not given, it is one sweep
    of the dual ladder over min(m, n) degrees at the single node max(m, n),
    so sigma_mn and sigma_nm are the same number.  Otherwise the sum is
    assembled per node in log space, so far nodes, whose
    sqrt-weights underflow, still carry the mass of an integrand that grows
    against the measure at complex z.  At real z its rounding grows with the
    rule size: on Jacobi (mu, nu) = (0.63, 1.29) over (0.96, 3.60) at
    (m, n) = (11, 76), t = 12.13, rules of 96 to 864 nodes scatter by up to
    2.7e-13.  On Laguerre pairs the sum grows ill conditioned with Im z and
    the degree (2 digits are left at (40, 41) and 0.3 of the strip edge), and
    ``sigma_mn`` routes to the closed form above 0.2 of the edge.

    The N-node sum is exactly [e^{-itJ_N}]_mn of the N-level ladder J_N
    (Golub & Welsch).  By Duhamel's formula its error at real z = t is the
    integral over 0 < s < t of b_N <N|e^{-i(t-s)J}|m> <N-1|e^{-isJ_N}|n>, and
    as s or t - s is at most t/2, one factor is the reach of a packet to
    level N within half the time.  So at real z, N defaults to 32 levels above
    where the packet law ``pd.levels`` leaves max(m, n) at |z|/2 a squared
    tail of 1e-16, at most the complex-z default m + n + 96 + spread(|z|)
    (+ ``quad_extra(z)``); N, an explicit one too, is rounded to a multiple
    of 32.  The rows P_m, P_n come in log form from the canonical ladder
    over the canonical nodes: from the sweep that builds a cold rule, or
    one sweep to max(m, n) over a cached one, the same rows bit for bit.
    """
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    z = complex(z)
    _check_char_domain(ctx, z)
    if N is None and z.imag == 0.0 and ctx.pd.dual is not None:
        lo, hi = sorted((m, n))
        U, r, col = _dual_rows(ctx, z.real, hi, lo, hi)
        return complex(r[0] * U[lo, 0] * col[lo])
    if N is None:
        N = min(m + n + 96 + ctx.pd.spread(abs(z)) + ctx.pd.quad_extra(z), 6144)
        if z.imag == 0.0:  # the packet law at half time, 32 levels of margin
            N = min(N, ctx.pd.levels(max(m, n), abs(z) / 2, _PACKET_TAIL, N) + 32)
    N = _rule_size(N)
    # k -> (log|P_k(x_i)|, sign P_k(x_i)), never flushing far nodes to zero
    xh, logw, rows = ctx.rule(N, (m, n) if max(m, n) < N else ())
    if rows is None:  # a cached rule: one sweep to max(m, n) over its nodes
        rows, s = {}, np.zeros_like(xh)
        for k, u, _ in scaled_sweep(*ctx.base.js.arrays(max(m, n)), xh, s):
            if k in (m, n):
                rows[k] = _log_row(u, s)
    (lam, sm_), (lan, sn_) = rows[m], rows[n]
    nodes = ctx.nodes(xh)
    M, V = _node_sum(logw + lam + lan + z.imag * nodes, sm_ * sn_, nodes, z.real)
    return V * math.exp(M)


def sigma_mn(ctx: PropagatorContext, m: int, n: int, z: complex) -> complex:
    """Two-index coefficient, routed by total degree and argument.

    Closed forms up to m + n = ``ctx.pd.closed_max_degree`` (24 for Hermite
    and Laguerre, 18 for Jacobi); beyond that their alternating sums lose
    precision and the quadrature route is both faster and more accurate.
    Exception: for a Laguerre pair with Im z above 0.2 of the strip edge
    (0.1 * gamma) the discrete sum is dominated by an exponentially larger
    envelope (up to ~1e-11 off at 0.2, 5e-10 at 0.3, 5e-5 at 0.5) while the
    closed form stays within ~1e-11, so it is used for every degree there
    (it warns if its own cancellation becomes severe).
    """
    z = complex(z)
    if m + n <= ctx.pd.closed_max_degree or z.imag > 0.2 * ctx.strip.upper:
        return sigma_mn_closed(ctx, m, n, z)
    return sigma_mn_quad(ctx, m, n, z)


def sigma_row(ctx: PropagatorContext, n: int, t: float, kmax: int) -> np.ndarray:
    """Array of sigma_nk(t), k = 0..kmax, at real t.

    The entries are the first kmax + 1 matrix elements themselves, whatever kmax:
    ||row||^2 < 1 is the mass the row leaves past kmax (0.519 for the vacuum of
    ``hermite_data()`` at t = 20, kmax = 200), not an error in what it keeps.  On
    Hermite and Laguerre pairs they come off integer nodes (one sweep of n + 1
    degrees from node n on), otherwise off a rule sized like evolve's (rows uncached).
    """
    if n < 0 or kmax < 0:
        raise ValueError("indices must be nonnegative")
    t = float(t)
    if ctx.pd.dual is not None:  # sigma_nk, k < n, at node n; then column n from node n on
        U, r, col = _dual_rows(ctx, t, max(n, kmax), n, n)
        return np.concatenate((r[0] * U[:n, 0] * col[:n], r * U[n] * col[n]))[: kmax + 1]
    xh, _, Q = ctx.rule(_packet_rule(ctx, n, t, max(n, kmax), max(n, kmax) + 64), max(n, kmax) + 1)
    f = np.exp(-1j * t * ctx.nodes(xh)) * Q[n]
    return _real_matvec(Q[: kmax + 1], f)


def evolve(
    ctx: PropagatorContext,
    coeffs,
    t: float,
    tail: float = 1e-12,
    max_dim: int = 8192,
) -> np.ndarray:
    """Propagate ladder coefficients: out_k = sum_n c_n sigma_nk(t).

    The output keeps K + 1 levels.  On Hermite and Laguerre pairs K is sized once:
    the level past which the family's closed packet law (``pd.levels``) leaves c's
    packet a squared tail below min(``tail``, 1e-16), at least c.size - 1, and the
    block comes off integer nodes; the tail it drops is the law's.  There ``max_dim``
    caps memory, not levels: the block takes c.size doubles a level, and the law and
    column 0 about 32 more, and together they may take the (max_dim + 1) x
    (max_dim + 64) doubles of the rule route's largest matrix (at the default, a
    one-level vector may keep ~2 million levels, a 60-level one ~735,000).

    On Jacobi pairs (until their packet bound lands) K + 1 are the rows of a rule's
    matrix, and K still doubles.  The first K is where the law leaves c's packet at
    rounding, at least c.size - 1, with K + 64 rounded up onto the grid and at most
    the rule of c.size + 128 + spread(t) nodes; a doubling of K moves to the rule of
    2K + 64.  K doubles until the unitarity deficit ||c||^2 - ||out||^2 (the weight
    leaked past the kept rows) is below ``tail`` ||c||^2.  Below 4 eps K ||c||^2 the
    deficit is rounding of its K + 1 squares, and the weight of the last 64
    kept rows, which is resolved, stands in for the leak.  K is capped at
    the largest grid level not above ``max_dim``; a first K above it raises
    ConvergenceError at once, since a smaller rule would measure a deficit
    it cannot resolve.
    """
    c = np.ascontiguousarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coeffs must be a nonempty 1-d array")
    t = float(t)
    nrm2 = float(np.vdot(c, c).real)
    if nrm2 == 0.0:
        return np.zeros(c.size, dtype=complex)
    n = int(np.count_nonzero(np.cumsum(abs(c[::-1]) ** 2) > _PACKET_TAIL * nrm2)) - 1  # rounding past n
    if ctx.pd.dual is not None:  # the memory of the rule route's largest matrix, in doubles
        kcap = (max_dim + 1) * (max_dim + 64) // (c.size + 32) - 1
        K = _law_size(ctx, n, t, min(tail, _PACKET_TAIL), kcap) if c.size - 1 <= kcap else None
        if K is None:
            raise ConvergenceError(
                f"propagation needs more than {kcap} ladder levels, the memory max_dim = {max_dim} allows"
            )
        K = max(K, c.size - 1)
        U, r, col = _dual_rows(ctx, t, K, c.size - 1)
        out = r * _real_matvec(U.T, col * c)
        if c.size > 1:  # the entries m < j, read at m' = j, j' = m
            T, w = U[:, : c.size], r[: c.size] * c
            out[: c.size] += col * (_real_matvec(T, w) - T.diagonal() * w)
        return out
    K = _packet_rule(ctx, n, t, c.size - 1, c.size + 128) - 64
    if K > max_dim:
        raise ConvergenceError(
            f"propagation needs {K} ladder levels at first, "
            f"more than max_dim = {max_dim}"
        )
    kcap = (max_dim + 64) // _RULE_GRID * _RULE_GRID - 64
    while True:
        nodes, Q = _weighted_poly_matrix(ctx, K + 64, K)
        f = np.exp(-1j * t * nodes) * _real_matvec(Q[: c.size].T, c)
        out = _real_matvec(Q, f)
        deficit = nrm2 - float(np.vdot(out, out).real)
        if deficit <= 4.0 * np.finfo(float).eps * K * nrm2:  # rounding: read the last 64 rows
            deficit = min(deficit, float(np.vdot(out[-64:], out[-64:]).real))
        if deficit <= tail * nrm2:
            return out
        if K >= kcap:
            raise ConvergenceError(
                f"propagation needs more than {max_dim} ladder levels "
                f"(unitarity deficit {deficit:.3e})"
            )
        K = min(2 * K, kcap)  # 2K + 64 = 2S - 64 stays on the grid

