"""Invariants of the quadrature route and the closed forms, property-tested
over family parameters.

Parameters are drawn from the ranges the benchmark uses: Hermite
a1 in [-3, -1], b0 in [0.5, 2]; Laguerre and Jacobi mu, nu in [0.6, 4];
times t in [0.1, 3].  The closed-form tests also shift the Hermite and
Laguerre weights (a0, resp. b0, in [-1, 1]).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qladder.coherent import mean_energy, omega_density, reproducing_density
from qladder.errors import Unsupported
from qladder.orthopoly import classify, hermite_data, jacobi_data, laguerre_data, scaled_sweep
from qladder.propagator import (
    _weighted_poly_matrix,
    build_context,
    char_fn,
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
PEARSON = st.one_of(SHIFTED_HERMITE, SHIFTED_LAGUERRE, JACOBI)
TIMES = st.floats(0.1, 3.0)


@settings(max_examples=12, deadline=None)
@given(pd=st.one_of(HERMITE, LAGUERRE))
def test_weighted_rows_orthonormal_where_the_rescale_fires(pd):
    ctx = build_context(pd)
    N = 400
    nodes, Q = _weighted_poly_matrix(ctx, N, N - 1)
    s = np.zeros_like(nodes)
    for _ in scaled_sweep(*ctx.js.arrays(N - 1), nodes, s):
        pass
    assert np.any(s > 0.0)  # some far nodes were rescaled
    assert np.abs(Q @ Q.T - np.eye(N)).max() < 1e-11


@settings(max_examples=25, deadline=None)
@given(pd=FAMILIES, t=TIMES, n=st.integers(0, 20), kmax=st.integers(0, 60))
def test_sigma_row_time_reversal(pd, t, n, kmax):
    ctx = build_context(pd)
    fwd = sigma_row(ctx, n, t, kmax)
    back = sigma_row(ctx, n, -t, kmax)
    assert np.abs(back - np.conj(fwd)).max() < 1e-13


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


def _same(got, want, tol=1e-11):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))


@settings(max_examples=25, deadline=None)
@given(pd=PEARSON, lam=st.floats(0.1, 10.0), t=TIMES, frac=st.floats(-1.0, 0.9),
       m=st.integers(0, 4), n=st.integers(0, 4))
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
