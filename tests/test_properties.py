"""Invariants of the quadrature route and the closed forms, property-tested
over family parameters.

Parameters are drawn from the ranges the benchmark uses: Hermite
a1 in [-3, -1], b0 in [0.5, 2]; Laguerre and Jacobi mu, nu in [0.6, 4];
times t in [0.1, 3].  The closed-form tests also shift the Hermite and
Laguerre weights (a0, resp. b0, in [-1, 1]); the sign-gauge test also draws
Jacobi weights with mu, nu in [0.05, 4] and b2 in [-2, -0.5] on intervals
[a, a + w], a in [-3, 3], w in [0.3, 4].  The affine-image test also scales
Laguerre weights (a1 in [-3, -1], b1 in [0.5, 2]).
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from qladder.coherent import mean_energy, omega_density, reproducing_density
from qladder.errors import Unsupported
from qladder.orthopoly import (classify, derivative_apply, derivative_matrix, hermite_data, jacobi_data, laguerre_data,
                               recurrence, scaled_sweep)
from qladder.propagator import (
    _weighted_poly_matrix,
    build_context,
    char_fn,
    evolve,
    sigma_mn_closed,
    sigma_mn_quad,
    sigma_n,
    sigma_row,
)

HERMITE = st.builds(
    lambda a1, b0: hermite_data(a1=a1, b0=b0), st.floats(-3.0, -1.0), st.floats(0.5, 2.0)
)
LAGUERRE = st.builds(laguerre_data, st.floats(0.6, 4.0))
JACOBI = st.builds(
    lambda mu, nu: jacobi_data(-1.0, 1.0, mu, nu), st.floats(0.6, 4.0), st.floats(0.6, 4.0)
)
FAMILIES = st.one_of(HERMITE, LAGUERRE, JACOBI)
SHIFTED_HERMITE = st.builds(
    lambda a1, a0, b0: hermite_data(a1=a1, a0=a0, b0=b0),
    st.floats(-3.0, -1.0), st.floats(-1.0, 1.0), st.floats(0.5, 2.0),
)
SHIFTED_LAGUERRE = st.builds(
    lambda mu, b0: laguerre_data(mu, b0=b0), st.floats(0.6, 4.0), st.floats(-1.0, 1.0)
)
SHIFTED_JACOBI = st.builds(
    lambda a, width, mu, nu, scale: jacobi_data(a, a + width, mu, nu, scale),
    st.floats(-3.0, 3.0), st.floats(0.3, 4.0), st.floats(0.05, 4.0), st.floats(0.05, 4.0),
    st.floats(0.5, 2.0),
)
PEARSON = st.one_of(SHIFTED_HERMITE, SHIFTED_LAGUERRE, JACOBI)
TIMES = st.floats(0.1, 3.0)


@settings(max_examples=40, deadline=None)
@given(pd=st.one_of(SHIFTED_HERMITE, SHIFTED_LAGUERRE, SHIFTED_JACOBI))
def test_classify_is_invariant_under_the_sign_gauge(pd):
    """(A, B) and (-A, -B) are one Pearson pair: both classify to pd."""
    raw = (pd.a0, pd.a1, pd.b0, pd.b1, pd.b2)
    assert classify(*raw) == pd
    assert classify(*(-c for c in raw)) == pd


@settings(max_examples=12, deadline=None)
@given(pd=st.one_of(HERMITE, LAGUERRE))
def test_weighted_rows_orthonormal_where_the_rescale_fires(pd):
    ctx = build_context(pd)
    N = 416  # on the rule grid; its matrix carries rows 0..N - 64
    nodes, Q = _weighted_poly_matrix(ctx, N, N - 64)
    s = np.zeros_like(nodes)
    for _ in scaled_sweep(*ctx.js.arrays(N - 64), nodes, s):
        pass
    assert np.any(s > 0.0)  # some far nodes were rescaled
    assert np.abs(Q @ Q.T - np.eye(N - 63)).max() < 1e-11


def test_weighted_rows_orthonormal_with_rescales_on_both_sides_of_the_last_row():
    ctx = build_context(laguerre_data(0.8))
    N, rows = 1024, 101
    nodes, Q = _weighted_poly_matrix(ctx, N, rows - 1)
    s = np.zeros_like(nodes)
    events = [k for k, _, hit in scaled_sweep(*ctx.js.arrays(N - 1), nodes, s) if hit is not None]
    assert min(events) < rows <= max(events)
    assert np.abs(Q @ Q.T - np.eye(rows)).max() < 1e-11


@settings(max_examples=25, deadline=None)
@given(pd=FAMILIES, t=TIMES, n=st.integers(0, 20), kmax=st.integers(0, 60))
def test_sigma_row_time_reversal(pd, t, n, kmax):
    ctx = build_context(pd)
    fwd = sigma_row(ctx, n, t, kmax)
    back = sigma_row(ctx, n, -t, kmax)
    assert np.abs(back - np.conj(fwd)).max() < 1e-13


@settings(max_examples=25, deadline=None)
@given(pd=FAMILIES, t=TIMES, m=st.integers(0, 20), n=st.integers(0, 20), extra=st.integers(0, 30))
def test_sigma_row_index_symmetry(pd, t, m, n, extra):
    # sigma_mn = sigma_nm (real polynomials); the two rows take rules sized
    # for different packets, so the two sums really differ
    ctx = build_context(pd)
    kmax = max(m, n) + extra
    assert abs(sigma_row(ctx, m, t, kmax)[n] - sigma_row(ctx, n, t, kmax)[m]) < 1e-12


@settings(max_examples=25, deadline=None)
@given(pd=FAMILIES, t=TIMES, size=st.integers(1, 31), seed=st.integers(0, 2**32 - 1))
def test_evolve_is_unitary(pd, t, size, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    out = evolve(build_context(pd), c / np.linalg.norm(c), t)
    assert abs(1.0 - float(np.vdot(out, out).real)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(pd=st.one_of(SHIFTED_HERMITE, LAGUERRE, JACOBI), t1=st.floats(0.1, 1.5), t2=st.floats(0.1, 1.5),
       size=st.integers(1, 31), seed=st.integers(0, 2**32 - 1))
def test_evolve_is_a_semigroup(pd, t1, t2, size, seed):
    # each evolve drops at most tail of the squared norm, so each leaves an
    # error of norm at most sqrt(tail): evolve(evolve(c, t1), t2) is within
    # 2 sqrt(tail) of e^{-iH(t1+t2)} c, and evolve(c, t1 + t2) within one
    # (1.19 sqrt(tail) was the worst of 1,200 random draws)
    tail = 1e-13
    ctx = build_context(pd)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    c /= np.linalg.norm(c)
    two = evolve(ctx, evolve(ctx, c, t1, tail=tail), t2, tail=tail)
    one = evolve(ctx, c, t1 + t2, tail=tail)
    n = max(one.size, two.size)
    assert np.linalg.norm(np.pad(one, (0, n - one.size)) - np.pad(two, (0, n - two.size))) <= 3.0 * math.sqrt(tail)


@settings(max_examples=25, deadline=None)
@given(pd=FAMILIES, t=TIMES, n=st.integers(1, 30), extra=st.integers(0, 30))
def test_propagator_commutes_with_the_ladder_matrix(pd, t, n, extra):
    # b(n+1) S_{n+1,k} + h(n) S_nk + b(n) S_{n-1,k}
    #   = b(k+1) S_{n,k+1} + h(k) S_nk + b(k) S_{n,k-1}
    ctx = build_context(pd)
    kmax = n + extra
    b, h = ctx.js.arrays(kmax + 1)
    lo, mid, hi = (sigma_row(ctx, m, t, kmax + 1) for m in (n - 1, n, n + 1))
    k = np.arange(kmax + 1)
    left = b[n + 1] * hi[k] + h[n] * mid[k] + b[n] * lo[k]
    below = np.concatenate(([0j], mid[:kmax]))  # S_{n,k-1}, b(0) = 0
    right = b[k + 1] * mid[k + 1] + h[k] * mid[k] + b[k] * below
    assert np.abs(left - right).max() < 1e-11 * (1.0 + b.max() + np.abs(h).max())


DUAL_HERMITE = st.builds(
    lambda a1, a0, b0: hermite_data(a1=a1, a0=a0, b0=b0),
    st.floats(-3.0, -1.0), st.floats(-1.0, 1.0), st.floats(0.5, 2.0),
)
DUAL_LAGUERRE = st.builds(
    laguerre_data, st.floats(0.6, 4.0), st.floats(-3.0, -1.0), st.floats(0.5, 2.0), st.floats(-1.0, 1.0)
)
_DENSE_LEVELS = 2000  # a dense eigendecomposition past this takes seconds


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(pd=st.one_of(DUAL_HERMITE, DUAL_LAGUERRE), t=st.floats(0.05, 6.0), back=st.booleans(), n=st.integers(0, 60))
@example(pd=laguerre_data(2.5), t=2.0, back=False, n=20)
@example(pd=laguerre_data(0.8, -2.0, 0.7, 0.5), t=1.7, back=True, n=60)
@example(pd=hermite_data(-1.0, 0.5, 2.0), t=6.0, back=True, n=60)
def test_integer_node_block_matches_a_dense_exponential_in_both_triangles(pd, t, back, n):
    """evolve of the unit vectors e_j, j <= n, of length n + 1 gives the columns of the
    block <m|e^{-itJ}|j> of the integer-node route, each on K + 1 levels from the
    packet law at 1e-16.  The
    reference is exp(-itJ_N) of the pair's own ladder truncated where the law
    leaves a squared tail of 1e-36, so that truncation reaches no entry compared;
    draws whose reference would pass _DENSE_LEVELS are skipped."""
    from scipy.linalg import eigh_tridiagonal

    t = -t if back else t
    N = pd.levels(n, abs(t), 1e-36, 1 << 14) + 64
    assume(N <= _DENSE_LEVELS)
    ctx = build_context(pd)
    b, h = recurrence(pd).arrays(N - 1)
    lam, V = eigh_tridiagonal(h, b[1:])
    for j, e in enumerate(np.eye(n + 1)):
        col = evolve(ctx, e, t)
        err = np.abs(col - (V[: col.size] * np.exp(-1j * t * lam)) @ V[j])
        assert err[j:].max() <= 1e-13  # m >= j: read off the sweep
        if j:  # m < j: read at m' = j, j' = m
            assert err[:j].max() <= 1e-13


WIDE_JACOBI = st.builds(
    lambda a, width, mu, nu: jacobi_data(a, a + width, mu, nu),
    st.floats(-3.0, 3.0), st.floats(0.3, 4.0), st.floats(0.6, 4.0), st.floats(0.6, 4.0),
)


@settings(max_examples=40, deadline=None)
@given(pd=st.one_of(JACOBI, WIDE_JACOBI), t=st.floats(0.05, 20.0), back=st.booleans(), n=st.integers(0, 40),
       seed=st.integers(0, 2**16))
@example(pd=jacobi_data(-3.0, 1.0, 0.6, 4.0), t=20.0, back=True, n=40, seed=0)
def test_chebyshev_route_matches_a_dense_exponential(pd, t, back, n, seed):
    """evolve of a random c on levels 0..n, sigma_row n and sigma_mn_quad (m, n) of a Jacobi
    pair at real t, against expm of the pair's ladder centred on its support, truncated
    32 levels past the n + M that the route keeps, so that truncation reaches no entry
    compared beyond the Bessel tail."""
    from scipy.linalg import expm

    t = -t if back else t
    ctx = build_context(pd)
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    c /= np.linalg.norm(c)
    out = evolve(ctx, c, t)
    N = out.size + 32
    b, h = ctx.js.arrays(N - 1)
    alpha = 0.5 * sum(pd.support)
    U = expm(-1j * t * (np.diag(h - alpha) + np.diag(b[1:], 1) + np.diag(b[1:], -1))) * cmath.exp(-1j * t * alpha)
    assert np.abs(out - U[: out.size, : c.size] @ c).max() <= 1e-14
    assert np.abs(sigma_row(ctx, n, t, N - 1) - U[n]).max() <= 1e-14
    m = int(rng.integers(0, N))
    assert abs(sigma_mn_quad(ctx, m, n, t) - U[m, n]) <= 1e-14


def _same(got, want, tol=1e-11):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))


@settings(max_examples=25, deadline=None)
@given(pd=PEARSON, lam=st.floats(0.1, 10.0), t=TIMES, frac=st.floats(-1.0, 0.9),
       m=st.integers(0, 4), n=st.integers(0, 4))
# nu = 1: the y < 0 Whittaker parameter lam - kappa + 1/2 is exactly 0
@example(pd=jacobi_data(-1.0, 1.0, 3.085886577694774, 1.0), lam=4.25, t=1.0, frac=-1.0, m=0, n=0)
def test_closed_forms_are_gauge_invariant(pd, lam, t, frac, m, n):
    # (A, B) -> lam (A, B) leaves the Pearson equation, so the normalized
    # measure and everything built on it, unchanged; a closed form that uses
    # a raw coefficient where a gauge-free parameter belongs breaks this
    ref = build_context(pd)
    ctx = build_context(classify(*(lam * c for c in (pd.a0, pd.a1, pd.b0, pd.b1, pd.b2))))
    _same(ctx.js.arrays(30), ref.js.arrays(30))
    lo, hi = pd.support
    lo = max(lo, -5.0)
    x = np.linspace(lo, min(hi, lo + 10.0), 41)[1:-1]
    _same(ctx.sm.density(x), ref.sm.density(x))
    y = frac * min(ref.strip.upper, 1.0)
    for z in (complex(t), complex(t, y)):
        _same(char_fn(ctx, z), char_fn(ref, z))
        _same(sigma_n(ctx, n, z), sigma_n(ref, n, z))
        _same(sigma_mn_closed(ctx, m, n, z), sigma_mn_closed(ref, m, n, z))
    _same(mean_energy(ctx, y), mean_energy(ref, y))
    _same(omega_density(ctx, y), omega_density(ref, y))
    try:
        want = reproducing_density(ref, y)
    except Unsupported:
        with pytest.raises(Unsupported):
            reproducing_density(ctx, y)
    else:
        _same(reproducing_density(ctx, y), want)


@settings(max_examples=12, deadline=None)
@given(pd=PEARSON, t=TIMES)
def test_closed_two_index_coefficients_match_quadrature(pd, t):
    ctx = build_context(pd)
    for m in range(7):
        for n in range(m, 7):
            closed, quad = sigma_mn_closed(ctx, m, n, t), sigma_mn_quad(ctx, m, n, t)
            assert abs(closed - quad) < 1e-9, (m, n)


# Re z in [0.1, 3], Im z 0 or in [-0.5, 0.4]: the z of the closed benchmark workload
CLOSED_Z = st.builds(complex, st.floats(0.1, 3.0), st.one_of(st.just(0.0), st.floats(-0.5, 0.4)))


@settings(max_examples=40, deadline=None)
@given(pd=JACOBI, z=CLOSED_Z, total=st.integers(0, 18), split=st.floats(0.0, 1.0))
def test_jacobi_closed_two_index_form_matches_quadrature_to_its_routing_degree(pd, z, total, split):
    # worst |closed - quad| / max(1, |sigma|) of 4,000 seeded draws: 3.4e-10 (at m + n = 18)
    ctx = build_context(pd)
    m = round(split * total)
    want = sigma_mn_quad(ctx, m, total - m, z)
    assert abs(sigma_mn_closed(ctx, m, total - m, z) - want) <= 1e-8 * max(1.0, abs(want))


def test_jacobi_closed_box_raises_no_warning():
    # the closed workload's Jacobi sigma_mn box, half the draws in its corner
    # mu, nu >= 3, m + n >= 14, where the sums cancel most (normalizing by the
    # largest j-grouped term, not the largest single entry, warns in 2.5% of
    # those); a warning is an error under the suite's filters, as it is a
    # failed benchmark request
    rng = np.random.default_rng(2311)
    for draw in range(2000):
        corner = draw % 2
        mu, nu = rng.uniform(3.0 if corner else 0.6, 4.0, 2)
        total = int(rng.integers(14 if corner else 0, 19))
        m = int(rng.integers(0, total + 1))
        z = complex(rng.uniform(0.1, 3.0), 0.0 if rng.random() < 0.5 else rng.uniform(-0.5, 0.4))
        sigma_mn_closed(build_context(jacobi_data(-1.0, 1.0, mu, nu)), m, total - m, z)


def _mp_displacement(pd, m, n, z):
    """sigma_mn(z) of a Hermite pair at 40 digits from e^{-iz(a + a^+)} = e^{-z^2/2} e^{-iz a^+} e^{-iz a}.

    On the pair's nodes h0 + s x^ the ladder is h0 + s (a + a^+), so sigma_mn(z) = e^{-izh0} <m| ... |n> at sz.
    """
    with mp.workdps(40):
        h0, s = mp.mpf(-pd.a0) / pd.a1, mp.sqrt(mp.mpf(-pd.b0) / pd.a1)
        u = -1j * s * mp.mpc(z)
        terms = (u ** (m - n + 2 * k) * mp.sqrt(mp.factorial(m) * mp.factorial(n))
                 / (mp.factorial(k) * mp.factorial(m - n + k) * mp.factorial(n - k))
                 for k in range(max(0, n - m), n + 1))
        return complex(mp.exp(-1j * mp.mpc(z) * h0 + u * u / 2) * mp.fsum(terms))


@settings(max_examples=40, deadline=None)
@given(pd=SHIFTED_HERMITE, z=CLOSED_Z, total=st.integers(0, 24), split=st.floats(0.0, 1.0))
@example(pd=hermite_data(-1.0, 0.0, 1.0), z=2.8, total=23, split=0.48)
def test_hermite_closed_two_index_form_is_the_displacement_operator(pd, z, total, split):
    ctx = build_context(pd)
    m = round(split * total)
    want = _mp_displacement(pd, m, total - m, z)
    assert abs(sigma_mn_closed(ctx, m, total - m, z) - want) <= 1e-12 * max(1.0, abs(want))


@settings(max_examples=25, deadline=None)
@given(pd=st.one_of(HERMITE, LAGUERRE), x=st.floats(-3.0, 3.0), frac=st.floats(-2.0, 0.95))
def test_amplitude_ratio_sequence_is_the_scalar_coefficients(pd, x, frac, mp_sigma_n):
    # sigma_seq multiplies one closed ratio per level; the scalar sigma_n
    # assembles each level from its own Rodrigues logs
    z = complex(x, frac * min(pd.strip_edge, 0.75))
    assume(abs(z) > 1e-3)
    ctx = build_context(pd)
    seq = pd.sigma_seq(ctx, z, sigma_n(ctx, 0, z))
    for n, got in zip(range(61), seq):
        want = mp_sigma_n(pd, ctx.sm.C, n, z)
        if abs(want) < 1e-250:
            continue
        assert abs(got - sigma_n(ctx, n, z)) <= 5e-13 * abs(want), n
        assert abs(got - want) <= 2e-14 * abs(want), n


# (pair, canonical pair, h0, s) with pair nodes h0 + s x^: Hermite (a1, a0,
# b0); Laguerre (a1, b1, b0) at mu = 2.5; Jacobi (a, b) at (mu, nu) = (2, 1.5),
# with b - a <= 3.5 so that |w| = (b - a)|z| stays on the series, off any rule
AFFINE_IMAGES = st.one_of(
    st.builds(
        lambda a1, a0, b0: (hermite_data(a1, a0, b0), hermite_data(-1.0, 0.0, 1.0), -a0 / a1, math.sqrt(-b0 / a1)),
        st.floats(-3.0, -1.0), st.floats(-1.0, 1.0), st.floats(0.5, 2.0),
    ),
    st.builds(
        lambda a1, b1, b0: (laguerre_data(2.5, a1, b1, b0), laguerre_data(2.5), -b0 / b1, -b1 / a1),
        st.floats(-3.0, -1.0), st.floats(0.5, 2.0), st.floats(-1.0, 1.0),
    ),
    st.builds(
        lambda a, w: (jacobi_data(a, a + w, 2.0, 1.5), jacobi_data(-1.0, 1.0, 2.0, 1.5), a + w / 2, w / 2),
        st.floats(-3.0, 3.0), st.floats(0.3, 3.5),
    ),
)
# the closed sums lose digits with m + n; worst |difference| / max(1, |sigma|)
# of 3,000 seeded draws per family: Hermite 9.8e-13, Laguerre 4.7e-14, Jacobi
# 1.0e-9 (its Leibniz sum is up to 3e-10 off quadrature at m + n = 18 on (-1, 1))
_AFFINE_TOL = {"_Hermite": 1e-11, "_Laguerre": 1e-12, "_Jacobi": 1e-8}


@settings(max_examples=40, deadline=None)
@given(image=AFFINE_IMAGES, t=TIMES, frac=st.floats(-1.0, 0.9), total=st.integers(0, 24), split=st.floats(0.0, 1.0))
def test_closed_forms_are_affine_images_of_the_canonical_pair(image, t, frac, total, split):
    # the premise of one Gauss rule per ladder shape, with no rule involved:
    # sigma_mn(z) of a pair is e^{-i z h0} sigma_mn(s z) of its canonical pair
    pd, canonical, h0, s = image
    assert pd.shape()[1:] == pytest.approx((h0, s), rel=1e-14, abs=1e-14)
    ctx, ref = build_context(pd), build_context(canonical)
    total = min(total, pd.closed_max_degree)
    m = round(split * total)
    y = frac * min(ctx.strip.upper, 1.0)
    for z in (complex(t), complex(t, y)):
        want = cmath.exp(-1j * z * h0) * sigma_mn_closed(ref, m, total - m, s * z)
        _same(sigma_mn_closed(ctx, m, total - m, z), want, _AFFINE_TOL[type(pd).__name__])


@settings(max_examples=40, deadline=None)
@given(pd=st.one_of(HERMITE, LAGUERRE, JACOBI, st.just(jacobi_data(0.0, 3.0, 1.3, 1.1, scale=0.7))),
       N=st.one_of(st.integers(1, 16), st.integers(17, 400)), rows=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
@example(pd=jacobi_data(-1.0, 1.0, 0.5, 0.5), N=40, rows=2, seed=0)  # mu + nu = 1: end ratio at 0/0
def test_derivative_apply_is_the_dense_derivative(pd, N, rows, seed):
    # the Christoffel chain at the ends of the support against the column recurrence
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((rows, N)) + 1j * rng.standard_normal((rows, N))
    js = recurrence(pd)
    want = c @ derivative_matrix(js, N).T
    got = derivative_apply(js, c)
    assert got.shape == c.shape and np.all(got[:, -1] == 0.0)
    tol = 2e-14 if N <= 16 else 1e-11
    assert np.max(np.abs(got - want)) <= tol * max(np.max(np.abs(want)), np.finfo(float).tiny)
    # rows are independent, and a longer kept prefix changes nothing
    derivative_apply(js, np.ones(N + 40))
    np.testing.assert_array_equal(derivative_apply(js, c[0]), got[0])
