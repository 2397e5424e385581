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

Four independent evaluation routes are provided on purpose:

* closed forms coming from the Rodrigues representation (``char_fn``,
  ``sigma_n``, ``sigma_mn_closed``), assembled in log space so large
  indices do not overflow;
* Gauss quadrature in the spectral measure itself (``sigma_mn_quad`` at
  complex z or with an explicit rule size), summed per node in log space;
* integer nodes, for Hermite and Laguerre pairs at real t (``sigma_mn_quad``,
  ``sigma_row``, ``evolve``).  There e^{-itJ} is a group element, the Heisenberg-Weyl
  displacement or a parabolic su(1,1) element, and its number-basis entries
  are sigma_m(t) (-theta)^j p_j(m): p_j the Charlier or Meixner polynomials
  (Koekoek, Lesky & Swarttouw 2010, 9.14 and 9.10) of the Poisson or negative
  binomial law |sigma_m(t)|^2 on the integers m.  One scaled sweep of their
  ladder over the nodes m = 0..K gives a block of columns, with K sized once
  from the packet law; no rule, no eigenvalues, no cache;
* a Chebyshev expansion, for Jacobi pairs at any z (and ``char_fn``, ``sigma_n`` past
  (b - a)|z| = 12).  The ladder's spectrum lies in the support [a, b], so e^{-izJ} = e^{-iz alpha}
  sum_k (2 - delta_k0) (-i)^k J_k(z beta) T_k((J - alpha)/beta), alpha and beta its centre and half
  width, with no spectral estimate (Tal-Ezer & Kosloff, J. Chem. Phys. 81 (1984) 3967); the cached
  rows T_k(.) e_n do not depend on z.  M terms move a vector up M levels, so the sum is exact
  there and drops only the Bessel tail past M; no rule, no doubling.

The routes cross-check one another in the test-suite.  The per-family closed
forms, duals and rule sizes live on the PearsonData subclasses of
:mod:`qladder.orthopoly`; the functions here check their arguments and the
strip, then call them.
"""

from __future__ import annotations

import cmath
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConvergenceError, StripError
from .measure import SpectralMeasure, gauss_rule, normalize, weighted_rows
from .orthopoly import (
    _LN2,
    JacobiSystem,
    PearsonData,
    _final_frame_sweep,
    _log_row,
    _node_sum,
    _products,
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

    def rule(self, N: int):
        """Canonical nodes x^ and log-weights of the shape's ``_rule_size(N)`` point rule (cached).

        The pair's nodes are ``nodes(x^)`` with the same weights.
        """
        N = _rule_size(N)
        rule = _RULES.get_or_build(self.shape + (N,), lambda: gauss_rule(self.base.sm, N))
        return rule.nodes, rule.log_weights

    def expansion(self, z: complex, n: int = 0, level: int | None = None, tol: float = 1e-16):
        """e^{-izJ} e_n by the Chebyshev expansion (compact support) to a Bessel tail below ``tol`` e^{Im z alpha}:
        all its levels, or its entry ``level``, one dot of at least |level - n| + 1 weights with a cached column."""
        if level is None:
            return _chebyshev(self, int(n), [z], tol)[0][:, 0]
        lo, hi = sorted((int(n), int(level)))
        V, (wts,) = _cheb_rows(self, lo, [z], tol, hi - lo)
        return complex(np.dot(wts, V[: len(wts), 1 + hi, 0])) * cmath.exp(-1j * z * (0.5 * sum(self.pd.support)))


_RULE_GRID = 32
_PACKET_TAIL = 1e-16  # the real-t routes drop a tail at the rounding of a unit norm


def _rule_size(N: int) -> int:
    """N rounded to the nearest multiple of _RULE_GRID (ties up), at least _RULE_GRID.

    Rule sizes depend on the request alone, so a value never depends on what
    the caches hold, and the grid lets nearby requests share one rule.
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
    value is not kept.
    """

    def __init__(self, slots: int, max_bytes: int):
        self.slots, self.max_bytes = slots, max_bytes
        self._data, self._lock = OrderedDict(), threading.Lock()  # key -> (value, bytes)
        self._bytes = 0

    @property
    def nbytes(self) -> int:
        """Bytes of the values held."""
        with self._lock:
            return self._bytes

    def get(self, key):
        with self._lock:
            hit = self._data.get(key)
            if hit is None:
                return None
            self._data.move_to_end(key)
            return hit[0]

    def put(self, key, val) -> None:
        size = _nbytes(val)
        if size > self.max_bytes:
            return
        with self._lock:
            if key in self._data:
                self._bytes -= self._data.pop(key)[1]
            self._data[key] = (val, size)
            self._bytes += size
            while len(self._data) > self.slots or self._bytes > self.max_bytes:
                self._bytes -= self._data.popitem(last=False)[1][1]

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


# Rules are keyed shape + (N,): the pairs of one ladder shape share them.
# Real-t and Jacobi requests read none (they take the integer-node or Chebyshev route), so
# rules serve Hermite and Laguerre at complex z, an explicit N and the Jacobi sigma_mn_closed.
# A rule is its nodes and weights, 24 B per node with the log-weights, and the shifted
# transforms size theirs without a cap, so _RULES keeps 128 rules within 4 MiB; a larger
# rule is used uncached.
_RULES = _LRU(128, 4 * 2**20)


def _weighted_poly_matrix(ctx: PropagatorContext, N: int, nmax: int):
    """The pair's nodes omega_i and rows sqrt(w_i) P_k(omega_i), k = 0..nmax, of ``ctx.rule(N)``.

    Uncached rows, from ``weighted_rows`` over the rule's canonical nodes; a rule of S nodes
    carries rows 0..S - 64, and nmax > S - 64 raises ValueError.  The package does not call
    it: it is kept for the benchmark tracer (``bench/tracer.py``) and the property tests.
    """
    N = _rule_size(N)
    if nmax > N - 64:
        raise ValueError(f"a {N}-node rule carries rows 0..{N - 64}, not {nmax}")
    xh, logw = ctx.rule(N)
    return ctx.nodes(xh), weighted_rows(ctx.base.sm, xh, logw, nmax + 1)


def _real_matvec(Q: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Q @ f for real Q and a complex vector or matrix f, without a complex copy of Q."""
    f = np.ascontiguousarray(f, dtype=complex)
    return (Q @ f.view(float).reshape(len(f), -1)).view(complex).reshape(len(Q), *f.shape[1:])


def _dual_rows(ctx: PropagatorContext, ts: list, K: int, n: int, first: int = 0):
    """The blocks <m|e^{-i t_i J}|j>, m = first..K, j = 0..n, at the real times ts != 0 (a list) on a
    pair with a discrete dual.

    Returns (U, r, col): entry (m, j) of step i is r[i, m - first] U[j, i, m - first] col[i, j] for
    m >= j, that is sigma_m(t_i) (-theta_i)^j p_j(m) of ``pd.dual``.  U holds one ``scaled_sweep``
    of the steps' dual ladders over degrees 0..n at the integer nodes m, in the sweep's final frame,
    and r is sigma_m(t_i) in that frame: the exact powers of two of both meet before r is rounded
    to a double, so r holds where sigma_m alone would underflow.  Below the degree, m < j, the
    forward recurrence is unstable: U is 0 there, and those entries are sigma_jm, read at (j, m).
    """
    b, h, sigma, e, col = ctx.pd.dual(ts, K, n)
    s = np.zeros((len(ts), K + 1 - first))
    U = np.empty((n + 1,) + s.shape)
    for k, u in _final_frame_sweep(b, h, np.arange(first, K + 1.0), s, U):
        if k > first:
            u[..., : k - first] = 0.0
    r = sigma[:, first:]
    if e is not None or np.count_nonzero(s):  # sigma_m's powers of two and the frame's (long double: ~10 us at 120 levels)
        r = r * np.ldexp(np.longdouble(1.0), np.rint(s / _LN2).astype(int) + (0 if e is None else e[:, first:]))
    return U, r.astype(complex), col


def _law_size(ctx: PropagatorContext, n: int, ts: list, tail: float, kcap: int) -> list | None:
    """Levels past which the packet law ``pd.levels`` leaves e^{-iHt} on levels <= n a squared tail
    < ``tail``, at each time of the list ts: each law on a window of its own time, doubled while it
    holds mass at its end, so a time gets the level a call at that time alone gets.  None if one
    is above ``kcap``."""
    K = []
    for t in map(abs, ts):
        top = n + 64 + ctx.pd.spread(t)
        while (k := ctx.pd.levels(n, t, tail, min(top, kcap + 1))) >= min(top, kcap + 1):
            if top > kcap:
                return None
            top *= 2
        K.append(k)
    return K


def _on_times(t, steps) -> np.ndarray:
    """steps(ts), a list of arrays, at the list ts of the time t or of a nonempty 1-d array t:
    the one array, or all of them stacked, each with zeros past its own levels."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1 or ts.size == 0:
        raise ValueError("t must be a time or a nonempty 1-d array of times")
    out = steps(ts.ravel().tolist())
    if not ts.ndim:
        return out[0]
    grid = np.zeros((len(out), max(map(len, out))) + out[0].shape[1:], dtype=complex)
    for g, o in zip(grid, out):
        g[: len(o)] = o
    return grid


def _bessel_row(x: complex, tol: float, terms: int = 0) -> list:
    """J_0(x)..J_M(x), M >= ``terms`` the first index where 2 sum_{k > M} |J_k(x)| < ``tol``.

    Miller's backward recurrence on the ratios J_j / J_{j-1} = x / (2j - x J_{j+1} / J_j), in (complex)
    floats, from the first index past |x| + 8 and ``terms`` + 8 where |J_k(x)| <= (|x|/2)^k e^{|Im x|} / k!
    is below tol e^-9; the products normalized by J_0 + 2 sum J_2k = 1 at real x, at complex x by
    J_0 + 2 sum (-+i)^k J_k = e^{-+ix} (upper sign for Im x > 0), whose terms do not cancel.
    """
    x = x.real if x.imag == 0.0 else x
    ax = abs(x)
    if ax == 0.0:
        return [1.0] + [0.0] * terms
    k = max(math.ceil(ax), terms) + 8
    log_bound, stop = k * math.log(0.5 * ax) - math.lgamma(k + 1.0), math.log(tol) - 9.0 - abs(x.imag)
    while log_bound > stop:
        k += 1
        log_bound += math.log(0.5 * ax / k)
    r, ratio = [0.0] * k, 0.0
    for j in range(k, 0, -1):
        ratio = r[j - 1] = x / (2.0 * j - x * ratio)
    row, s = _products(r), -1j if x.imag > 0.0 else 1j  # at complex x, sum (-+i)^k J_k by residues mod 4
    norm = ((row[0] + 2.0 * (s * (sum(row[1::4]) - sum(row[3::4])) + sum(row[4::4]) - sum(row[2::4]))) / cmath.exp(s * x)
            if isinstance(x, complex) else row[0] + 2.0 * math.fsum(row[2::2]))
    M, tail = k, 0.0
    while M > terms and 2.0 * (tail + abs(row[M])) < tol * abs(norm):
        tail += abs(row[M])
        M -= 1
    return [v / norm for v in row[: M + 1]]


@lru_cache(maxsize=64)  # the rows of one time step (the CLI's pairs) share t
def _turned_row(x: complex, tol: float, terms: int) -> np.ndarray:
    """(2 - delta_k0) (-i)^k J_k(x), k = 0..M, of ``_bessel_row`` (read-only)."""
    J = _bessel_row(x, tol, terms)
    w = np.multiply(J, np.array([2.0, -2j, -2.0, 2j])[np.arange(len(J)) % 4])
    w[0] = J[0]
    w.flags.writeable = False
    return w


# Chebyshev rows T_k(Jt) X of a pair and a start X: they do not depend on z, so the steps of
# one request and the requests that revisit a system read them again, and more terms extend
# them.  Row k does not depend on the rows kept, so no value depends on what the cache holds.
_CHEB = _LRU(256, 64 * 2**20)


def _cheb_rows(ctx: PropagatorContext, X, zs: list, tol: float, terms: int = 0, max_dim: int = 8192) -> tuple:
    """(V, weights): e^{-izJ} X = e^{-iz alpha} sum_k w_k V[k] at each z of zs, X a real (n + 1, w)
    array or a level n for e_n, on a pair with compact support of centre alpha and half width beta.

    Per z the weights are ``_turned_row(z beta)``, at least ``terms`` + 1, leaving out a Bessel tail
    below ``tol`` ||X|| e^{Im z alpha}.  V[k, i + 1] = (T_k(Jt) X)_i between zeros, Jt = (J - alpha) / beta,
    from T_{k+1} = 2 Jt T_k - T_{k-1} on n + k + 1 levels, is cached and extended as the weights pass it.
    Rows past the doubles of the (max_dim + 1) x (max_dim + 64) rule matrix ``max_dim`` once allowed
    raise ConvergenceError before anything is allocated, first at the lower bound M >= max |z beta|.
    """
    a, b = ctx.pd.support
    alpha, beta = 0.5 * (a + b), 0.5 * (b - a)
    n, w = (X, 1) if (unit := isinstance(X, int)) else (X.shape[0] - 1, X.shape[1])

    def check(M: int) -> int:  # the doubles of V, before it is allocated
        if (M + 1) * (n + M + 3) * w > (max_dim + 1) * (max_dim + 64):
            raise ConvergenceError(f"propagation needs about {8 * (M + 1) * (n + M + 3) * w:,} bytes for "
                                   f"{n + M + 1} ladder levels, more than the memory max_dim = {max_dim} allows")
        return M

    check(math.ceil(max(map(abs, zs)) * beta))
    weights = [_turned_row(z * beta, tol, terms) for z in zs]
    M = check(max(map(len, weights)) - 1)
    key = (ctx.pd, X) if unit else (ctx.pd, X.shape, X.tobytes())
    V = old = _CHEB.get(key)
    if old is None or len(old) <= M:
        bl, hl = ctx.js.arrays(n + M + 1)
        e = bl * (2.0 / beta)
        C = np.stack((e[:-1], (hl[:-1] - alpha) * (2.0 / beta), e[1:]), axis=-1)[:, None, :]  # rows of 2 Jt
        V = np.zeros((M + 1, n + M + 3, w))
        V[0, 1 : n + 2] = np.eye(n + 1, 1, -n) if unit else X
        if old is not None:
            V[: len(old), : old.shape[1]] = old
        W = np.lib.stride_tricks.as_strided(V, (M + 1, n + M + 1, w, 3), V.strides + V.strides[1:2], writeable=False)
        for k in range(0 if old is None else len(old) - 1, M):  # T_{k+1} X
            row = V[k + 1, 1 : n + k + 3]
            np.vecdot(C[: n + k + 2], W[k, : n + k + 2], out=row)
            if k:
                np.subtract(row, V[k - 1, 1 : n + k + 3], out=row)
            else:  # T_1 = Jt T_0
                row *= 0.5
        _CHEB.put(key, V)
    return V, weights


def _chebyshev(ctx: PropagatorContext, X, zs: list, tol: float, max_dim: int = 8192) -> list:
    """e^{-izJ} X at each z of zs (``_cheb_rows``): a complex (n + M_z + 1, w) array each, as one z alone gives."""
    V, weights = _cheb_rows(ctx, X, zs, tol, max_dim=max_dim)
    n, alpha = X if isinstance(X, int) else len(X) - 1, 0.5 * sum(ctx.pd.support)
    return [_real_matvec(V[: len(wts), 1 : n + len(wts) + 1].reshape(len(wts), -1).T, wts * cmath.exp(-1j * z * alpha))
            .reshape(-1, V.shape[2]) for z, wts in zip(zs, weights)]


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
    24).  On Jacobi pairs it is the closed reference only (cancelling past 1e-8 at m + n = 20-24).
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
    """sigma_mn by Gauss quadrature in the spectral measure, on integer nodes or by Chebyshev.

    At real z and N not given it reads level max(m, n) off a vector started at e_min(m, n),
    so sigma_mn and sigma_nm are the same number: one sweep of the dual ladder over min(m, n)
    degrees at the node max(m, n) (Hermite, Laguerre), or the Chebyshev expansion of
    e^{-izJ} e_min(m, n) to a Bessel tail below 1e-16, over at least |m - n| terms (Jacobi).

    Otherwise it is the N-node Gauss sum, exactly [e^{-izJ_N}]_mn of the N-level ladder
    (Golub & Welsch), N by default m + n + 96 + spread(|z|) (+ ``quad_extra(z)``), at most
    6144, and rounded to a multiple of 32.  It is assembled per node in log space, so far
    nodes, whose sqrt-weights underflow, still carry the mass of an integrand that grows
    against the measure at complex z.  On Laguerre pairs the sum grows ill conditioned with
    Im z and the degree (2 digits are left at (40, 41) and 0.3 of the strip edge), and
    ``sigma_mn`` routes to the closed form above 0.2 of the edge.  The rows P_m, P_n come in
    log form from one sweep of the canonical ladder to max(m, n) over the rule's canonical nodes.
    """
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    z = complex(z)
    _check_char_domain(ctx, z)
    if N is None and z.imag == 0.0:
        lo, hi = sorted((m, n))
        if z == 0.0:
            return complex(m == n)
        if ctx.pd.dual is not None:
            U, r, col = _dual_rows(ctx, [z.real], hi, lo, hi)
            return complex(r[0, 0] * U[lo, 0, 0] * col[0, lo])
        return ctx.expansion(z, m, n)
    if N is None:
        N = min(m + n + 96 + ctx.pd.spread(abs(z)) + ctx.pd.quad_extra(z), 6144)
    xh, logw = ctx.rule(N)
    rows, s = {}, np.zeros_like(xh)  # k -> (log|P_k(x_i)|, sign P_k(x_i)), never flushing far nodes to zero
    for k, u, _ in scaled_sweep(*ctx.base.js.arrays(max(m, n)), xh, s):
        if k in (m, n):
            rows[k] = _log_row(u, s)
    (lam, sm_), (lan, sn_) = rows[m], rows[n]
    nodes = ctx.nodes(xh)
    M, V = _node_sum(logw + lam + lan + z.imag * nodes, sm_ * sn_, nodes, z.real)
    return V * math.exp(M)


def sigma_mn(ctx: PropagatorContext, m: int, n: int, z: complex) -> complex:
    """Two-index coefficient, routed by family, total degree and argument.

    Jacobi pairs, at every degree and z: entry max(m, n) of e^{-izJ} e_min(m, n) (``ctx.expansion``).
    Hermite and Laguerre pairs: closed forms up to m + n = ``ctx.pd.closed_max_degree`` (24); beyond
    that their alternating sums lose precision and the quadrature route is both faster and more
    accurate.  Exception: for a Laguerre pair with Im z above 0.2 of the strip edge (0.1 * gamma)
    the discrete sum is dominated by an exponentially larger envelope (up to ~1e-11 off at 0.2,
    5e-10 at 0.3, 5e-5 at 0.5) while the closed form stays within ~1e-11, so it is used for every
    degree there (it warns if its own cancellation becomes severe).
    """
    z = complex(z)
    if ctx.pd.dual is None and min(m, n) >= 0:  # negative indices raise in sigma_mn_closed
        return ctx.expansion(z, m, n)
    if m + n <= ctx.pd.closed_max_degree or z.imag > 0.2 * ctx.strip.upper:
        return sigma_mn_closed(ctx, m, n, z)
    return sigma_mn_quad(ctx, m, n, z)


def sigma_row(ctx: PropagatorContext, n: int, t: float, kmax: int) -> np.ndarray:
    """Array of sigma_nk(t), k = 0..kmax, at real t.

    The entries are the first kmax + 1 matrix elements themselves, whatever kmax:
    ||row||^2 < 1 is the mass the row leaves past kmax (0.519 for the vacuum of
    ``hermite_data()`` at t = 20, kmax = 200), not an error in what it keeps.  On
    Hermite and Laguerre pairs they come off integer nodes (one sweep of n + 1
    degrees from node n on); on Jacobi pairs off the Chebyshev expansion of e^{-itJ} e_n,
    to a Bessel tail below 1e-16 on its n + M levels, and entries past those are 0.
    """
    if n < 0 or kmax < 0:
        raise ValueError("indices must be nonnegative")
    t = float(t)
    if t == 0.0:
        return np.eye(1, kmax + 1, n, dtype=complex)[0]
    if ctx.pd.dual is not None:  # sigma_nk, k < n, at node n; then column n from node n on
        U, r, col = (a[..., 0, :] for a in _dual_rows(ctx, [t], max(n, kmax), n, n))
        return np.concatenate((r[0] * U[:n, 0] * col[:n], r * U[n] * col[n]))[: kmax + 1]
    return np.pad(row := ctx.expansion(t, n)[: kmax + 1], (0, kmax + 1 - row.size))


def evolve(
    ctx: PropagatorContext,
    coeffs,
    t,
    tail: float = 1e-12,
    max_dim: int = 8192,
) -> np.ndarray:
    """Propagate ladder coefficients: out_k = sum_n c_n sigma_nk(t).

    ``coeffs`` is a vector c or a (levels x W) matrix of start columns, evolved at once and
    returned alike.  ``t`` is a time or a 1-d array of times, which gives t.shape + (K + 1,) +
    coeffs.shape[1:]: row i holds a call at t_i alone on its K_i + 1 levels, zeros past them.
    A grid pays one dual and one sweep per run of steps (Hermite, Laguerre), or one set of
    Chebyshev rows (Jacobi).  K_i is sized before anything is allocated, and ``max_dim``
    caps memory, not levels: a step past the (max_dim + 1) x (max_dim + 64) doubles of the
    largest rule matrix it once allowed raises ConvergenceError; steps that fit one by one
    but not together take more than one run.  On Hermite and Laguerre pairs K_i is where the
    closed packet law (``pd.levels``, on a window of t_i's own) leaves c's
    packet a squared tail below min(``tail``, 1e-16), at least len(c) - 1, and the block comes
    off integer nodes, len(c) + 32 doubles a level (~2 million levels for one level at the
    default).  On Jacobi pairs K_i = len(c) - 1 + M_i for the M_i Chebyshev terms whose Bessel
    tail is below min(``tail``, 1e-16): exact on those levels, the expansion's error is that
    tail relative to ||c||.
    """
    return _on_times(t, lambda ts: _evolve_steps(ctx, coeffs, ts, tail, max_dim))


def _evolve_steps(ctx: PropagatorContext, coeffs, ts: list, tail: float = 1e-12, max_dim: int = 8192) -> list:
    """``evolve`` at each time of the list ts, each step on its own levels."""
    c = np.ascontiguousarray(coeffs, dtype=complex)
    if c.ndim not in (1, 2) or c.size == 0:
        raise ValueError("coeffs must be a nonempty 1-d or 2-d array")
    ct, L = c.T, len(c)  # ct: the start vectors as rows, levels on the last axis
    nrm2 = np.vecdot(ct, ct).real
    times = [t for t in ts if t] if np.count_nonzero(nrm2) else []  # e^0 = I, and 0 stays 0
    outs = []
    if times and ctx.pd.dual is None:
        k = 1 + bool(c.imag.any())  # real columns: each column's re and im, or its re alone if c is real
        for o in _chebyshev(ctx, c.view(float).reshape(L, -1)[:, :: 3 - k], times, min(tail, _PACKET_TAIL), max_dim=max_dim):
            outs.append(o.reshape(len(o), *c.shape[1:], k).dot(np.array([1.0, 1j])[:k]))
    elif times:
        big = np.add.accumulate(abs(c[::-1]) ** 2) > _PACKET_TAIL * nrm2  # squared tails from the top level down
        n = int(np.count_nonzero(big if c.ndim == 1 else big.any(1))) - 1  # rounding past n in every column
        kcap = (max_dim + 1) * (max_dim + 64) // (L + 32) - 1  # levels of a block, over the steps it holds
        law = _law_size(ctx, n, times, min(tail, _PACKET_TAIL), kcap) if L - 1 <= kcap else None
        if law is None:
            raise ConvergenceError(f"propagation needs more than {kcap} ladder levels, the memory max_dim = {max_dim} allows")
        K = [max(k, L - 1) for k in law]
        run = (kcap + 1) // (max(K) + 1)  # the steps a block holds at the largest K: one dual and one sweep a run
        for a in range(0, len(times), run):
            U, r, col = _dual_rows(ctx, times[a : a + run], max(K[a : a + run]), L - 1)
            for s, k in enumerate(K[a : a + run]):
                Us, rs = U[:, s, : k + 1], r[s, : k + 1]
                o = rs * _real_matvec(Us.T, (col[s] * ct).T).T
                if L > 1:  # the entries m < j, read at m' = j, j' = m
                    Tm, w = Us[:, :L], rs[:L] * ct
                    o[..., :L] += col[s] * (_real_matvec(Tm, w.T).T - Tm.diagonal() * w)
                outs.append(o.T)
    outs = iter(outs)
    return [next(outs) if t and times else c.copy() for t in ts]
