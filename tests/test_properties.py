"""Invariants of the quadrature route, property-tested over family parameters.

Parameters are drawn from the ranges the benchmark uses: Hermite
a1 in [-3, -1], b0 in [0.5, 2]; Laguerre and Jacobi mu, nu in [0.6, 4];
times t in [0.1, 3].
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from qladder.orthopoly import hermite_data, jacobi_data, laguerre_data, scaled_sweep
from qladder.propagator import _weighted_poly_matrix, build_context, sigma_row

HERMITE = st.builds(
    lambda a1, b0: hermite_data(a1=a1, b0=b0), st.floats(-3.0, -1.0), st.floats(0.5, 2.0)
)
LAGUERRE = st.builds(laguerre_data, st.floats(0.6, 4.0))
JACOBI = st.builds(
    lambda mu, nu: jacobi_data(-1.0, 1.0, mu, nu), st.floats(0.6, 4.0), st.floats(0.6, 4.0)
)
FAMILIES = st.one_of(HERMITE, LAGUERRE, JACOBI)
TIMES = st.floats(0.1, 3.0)


@settings(max_examples=12, deadline=None)
@given(pd=st.one_of(HERMITE, LAGUERRE))
def test_weighted_rows_orthonormal_where_the_rescale_fires(pd):
    ctx = build_context(pd)
    N = 400
    nodes, Q = _weighted_poly_matrix(ctx, N, N - 1)
    s = np.zeros_like(nodes)
    for _ in scaled_sweep(ctx.js, nodes, N - 1, s):
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
