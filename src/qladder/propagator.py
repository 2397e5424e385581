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
* a Chebyshev expansion, for Jacobi pairs at real t (the same three functions).
  The spectrum of the ladder and of its truncations lies in the support [a, b],
  so e^{-itJ} = e^{-it alpha} sum_k (2 - delta_k0) (-i)^k J_k(t beta) T_k((J - alpha)/beta),
  alpha and beta its centre and half width, with no spectral estimate (Tal-Ezer &
  Kosloff, J. Chem. Phys. 81 (1984) 3967).  M terms move a vector up M levels, so
  the sum is exact there and drops only the Bessel tail past M; no rule, no doubling.

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
# Real-t requests read none (they take the integer-node or Chebyshev route), so
# rules serve complex z, an explicit N and the Jacobi shifted transforms.  A
# rule is its nodes and weights, 24 B per node with the log-weights, and the
# shifted transforms size theirs without a cap, so _RULES keeps 128 rules
# within 4 MiB; a larger rule is used uncached.
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
    U, s = np.empty((n + 1, x.size)), np.zeros(x.size)
    for k, u in _final_frame_sweep(b, h, x, s, U):
        if k > first:
            u[: k - first] = 0.0
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


@lru_cache(maxsize=64)  # the rows of one time step (the CLI's pairs) share t
def _bessel_row(x: float, tol: float, terms: int = 0) -> tuple:
    """J_0(x)..J_M(x), M >= ``terms`` the first index where 2 sum_{k > M} |J_k(x)| < ``tol``.

    Miller's backward recurrence on the ratios J_j / J_{j-1} = |x| / (2j - |x| J_{j+1} / J_j), in
    plain floats that cannot overflow, from the first index past |x| + 8 and ``terms`` + 8 where
    |J_k(x)| <= (|x|/2)^k / k! is below tol e^-9; products normalized by J_0 + 2 sum J_2k = 1.
    """
    ax = abs(x)
    if ax == 0.0:
        return (1.0,) + (0.0,) * terms
    k = max(math.ceil(ax), terms) + 8
    log_bound, stop = k * math.log(0.5 * ax) - math.lgamma(k + 1.0), math.log(tol) - 9.0
    while log_bound > stop:
        k += 1
        log_bound += math.log(0.5 * ax / k)
    r, ratio = [0.0] * k, 0.0
    for j in range(k, 0, -1):
        ratio = r[j - 1] = ax / (2.0 * j - ax * ratio)
    row = _products(r)
    norm = row[0] + 2.0 * math.fsum(row[2::2])
    M, tail = k, 0.0
    while M > terms and 2.0 * (tail + abs(row[M])) < tol * abs(norm):
        tail += abs(row[M])
        M -= 1
    return tuple(v / (-norm if j % 2 and x < 0.0 else norm) for j, v in enumerate(row[: M + 1]))  # J_k(-x) = (-1)^k J_k(x)


# Chebyshev rows T_k(Jt) X of a pair and a start X: they do not depend on t, so the steps of
# one request and the requests that revisit a system read them again, and more terms extend
# them.  Row k does not depend on the rows kept, so no value depends on what the cache holds.
_CHEB = _LRU(256, 64 * 2**20)


def _chebyshev(ctx: PropagatorContext, X: np.ndarray, t: float, tol: float, terms: int = 0,
               max_dim: int = 8192) -> np.ndarray:
    """e^{-itJ} X at real t on a pair with compact support, on levels 0..K: a complex array.

    X holds real columns on levels 0..n.  It sums e^{-it alpha} (2 - delta_k0) (-i)^k J_k(t beta)
    T_k(Jt) X over the M + 1 weights of ``_bessel_row`` (at least ``terms`` + 1), T_k(Jt) X from
    T_{k+1} = 2 Jt T_k - T_{k-1} on its n + k + 1 levels: exact on K = n + M levels, it leaves
    out the Bessel tail, below ``tol`` ||X||.  Rows past the doubles of the (max_dim + 1) x
    (max_dim + 64) rule matrix ``max_dim`` once allowed raise ConvergenceError before anything
    is allocated, first at the lower bound M >= |t beta|.
    """
    a, b = ctx.pd.support
    alpha, beta = 0.5 * (a + b), 0.5 * (b - a)
    n, w = X.shape[0] - 1, X.shape[1]

    def check(M: int) -> int:  # the doubles of V, before it is allocated
        if (M + 1) * (n + M + 3) * w > (max_dim + 1) * (max_dim + 64):
            raise ConvergenceError(f"propagation needs about {8 * (M + 1) * (n + M + 3) * w:,} bytes for "
                                   f"{n + M + 1} ladder levels, more than the memory max_dim = {max_dim} allows")
        return M

    check(math.ceil(abs(t) * beta))
    J = _bessel_row(t * beta, tol, terms)
    M = check(len(J) - 1)
    key = (ctx.pd, X.shape, X.tobytes())
    V = old = _CHEB.get(key)  # V[k, i + 1] = (T_k(Jt) X)_i, between zeros
    if old is None or len(old) <= M:
        bl, hl = ctx.js.arrays(n + M + 1)
        e = bl * (2.0 / beta)
        C = np.stack((e[:-1], (hl[:-1] - alpha) * (2.0 / beta), e[1:]), axis=-1)[:, None, :]  # rows of 2 Jt
        V = np.zeros((M + 1, n + M + 3, w))
        V[0, 1 : n + 2] = X
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
    wts = 2.0 * np.array(J) * np.array([1.0, -1j, -1.0, 1j])[np.arange(M + 1) % 4] * cmath.exp(-1j * t * alpha)
    wts[0] /= 2.0
    Vf = V[: M + 1, 1 : n + M + 2].reshape(M + 1, -1)
    return (wts.real @ Vf + 1j * (wts.imag @ Vf)).reshape(-1, w)


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
    log form from one sweep of the canonical ladder to max(m, n) over the rule's canonical
    nodes.
    """
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    z = complex(z)
    _check_char_domain(ctx, z)
    if N is None and z.imag == 0.0:
        lo, hi = sorted((m, n))
        if ctx.pd.dual is not None:
            U, r, col = _dual_rows(ctx, z.real, hi, lo, hi)
            return complex(r[0] * U[lo, 0] * col[lo])
        return complex(_chebyshev(ctx, np.eye(lo + 1, 1, -lo), z.real, _PACKET_TAIL, terms=hi - lo)[hi, 0])
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
    degrees from node n on); on Jacobi pairs off the Chebyshev expansion of e^{-itJ} e_n,
    to a Bessel tail below 1e-16 on its n + M levels, and entries past those are 0.
    """
    if n < 0 or kmax < 0:
        raise ValueError("indices must be nonnegative")
    t = float(t)
    if ctx.pd.dual is not None:  # sigma_nk, k < n, at node n; then column n from node n on
        U, r, col = _dual_rows(ctx, t, max(n, kmax), n, n)
        return np.concatenate((r[0] * U[:n, 0] * col[:n], r * U[n] * col[n]))[: kmax + 1]
    row = _chebyshev(ctx, np.eye(n + 1, 1, -n), t, _PACKET_TAIL)[: kmax + 1, 0]
    return np.pad(row, (0, kmax + 1 - row.size))


def evolve(
    ctx: PropagatorContext,
    coeffs,
    t: float,
    tail: float = 1e-12,
    max_dim: int = 8192,
) -> np.ndarray:
    """Propagate ladder coefficients: out_k = sum_n c_n sigma_nk(t).

    ``coeffs`` is a vector c or a (levels x W) matrix of start columns, evolved at once and
    returned alike: one packet law and block, or one Chebyshev expansion, serves them all.
    The output keeps K + 1 levels, K sized once before anything is allocated, and
    ``max_dim`` caps memory, not levels: past the (max_dim + 1) x (max_dim + 64)
    doubles of the largest rule matrix it once allowed, ConvergenceError is raised.
    On Hermite and Laguerre pairs K is where the closed packet law (``pd.levels``)
    leaves c's packet a squared tail below min(``tail``, 1e-16), at least len(c) - 1,
    and the block comes off integer nodes, len(c) + 32 doubles a level (~2 million
    levels for one level at the default).  On Jacobi pairs K = len(c) - 1 + M for
    the M Chebyshev terms whose Bessel tail is below min(``tail``, 1e-16): exact on
    those levels, the expansion's error is that tail relative to ||c||.
    """
    c = np.ascontiguousarray(coeffs, dtype=complex)
    if c.ndim not in (1, 2) or c.size == 0:
        raise ValueError("coeffs must be a nonempty 1-d or 2-d array")
    t, ct, L = float(t), c.T, len(c)  # ct: the start vectors as rows, levels on the last axis
    nrm2 = np.vecdot(ct, ct).real
    if not np.count_nonzero(nrm2):
        return np.zeros(c.shape, dtype=complex)
    if ctx.pd.dual is None:
        k = 1 + bool(c.imag.any())  # real columns: each column's re and im, or its re alone if c is real
        out = _chebyshev(ctx, c.view(float).reshape(L, -1)[:, :: 3 - k], t, min(tail, _PACKET_TAIL), max_dim=max_dim)
        return out.reshape(len(out), *c.shape[1:], k).dot(np.array([1.0, 1j])[:k])
    big = np.add.accumulate(abs(c[::-1]) ** 2) > _PACKET_TAIL * nrm2  # squared tails from the top level down
    n = int(np.count_nonzero(big if c.ndim == 1 else big.any(1))) - 1  # rounding past n in every column
    kcap = (max_dim + 1) * (max_dim + 64) // (L + 32) - 1
    K = _law_size(ctx, n, t, min(tail, _PACKET_TAIL), kcap) if L - 1 <= kcap else None
    if K is None:
        raise ConvergenceError(
            f"propagation needs more than {kcap} ladder levels, the memory max_dim = {max_dim} allows"
        )
    K = max(K, L - 1)
    U, r, col = _dual_rows(ctx, t, K, L - 1)
    out = r * _real_matvec(U.T, (col * ct).T).T
    if L > 1:  # the entries m < j, read at m' = j, j' = m
        T, w = U[:, :L], r[:L] * ct
        out[..., :L] += col * (_real_matvec(T, w.T).T - T.diagonal() * w)
    return out.T
