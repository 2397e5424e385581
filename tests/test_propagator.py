"""Propagator matrix elements: closed forms, quadrature, evolution."""

import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qladder.errors import ConvergenceError, StripError, Unsupported
from qladder.fockoracle import expm_evolve, truncated_h
from qladder.orthopoly import JacobiSystem, hermite_data, jacobi_data, laguerre_data
from qladder.propagator import (
    _weighted_poly_matrix,
    build_context,
    char_fn,
    evolve,
    require_selfadjoint,
    sigma_mn,
    sigma_mn_closed,
    sigma_mn_quad,
    sigma_n,
    sigma_row,
)


def test_zero_time_is_identity(family_ctx):
    assert sigma_mn(family_ctx, 3, 3, 0.0) == 1.0
    assert sigma_mn(family_ctx, 2, 5, 0.0) == 0.0
    assert sigma_n(family_ctx, 0, 0.0) == 1.0
    assert sigma_n(family_ctx, 4, 0.0) == 0.0


def test_one_index_frozen_value():
    # |sigma_1(t=1)| for the exp(-w^2) pair; value frozen from two
    # independent routes (closed form and 200-level expm) agreeing to 1e-13
    ctx = build_context(hermite_data())
    assert abs(sigma_n(ctx, 1, 1.0)) == pytest.approx(
        0.5506953149031838, abs=1e-12
    )


def test_char_fn_hermite_closed_form():
    ctx = build_context(hermite_data())
    for z in (0.7, -1.1, 1.3 + 0.4j, -0.2 + 0.9j):
        want = cmath.exp(-complex(z) ** 2 / 4.0)
        assert char_fn(ctx, z) == pytest.approx(want, rel=1e-12)


def test_char_fn_laguerre_strip_rejection():
    ctx = build_context(laguerre_data(2.5))  # gamma = 1
    with pytest.raises(StripError):
        char_fn(ctx, 0.3 + 1.0j)
    with pytest.raises(StripError):
        sigma_mn(ctx, 1, 1, 1.5j)
    # just inside the doubled strip is fine
    assert np.isfinite(char_fn(ctx, 0.3 + 0.95j).real)


def test_symmetry_in_indices(family_ctx):
    for z in (0.8, 1.0 + 0.2j if family_ctx.pd.family != "laguerre" else 1.0):
        a = sigma_mn(family_ctx, 2, 5, z)
        b = sigma_mn(family_ctx, 5, 2, z)
        assert a == pytest.approx(b, rel=1e-12)


def test_closed_matches_quadrature(family_ctx):
    for m, n in [(0, 0), (1, 3), (4, 4), (2, 7)]:
        for t in (0.3, 1.0, 2.5):
            a = sigma_mn_closed(family_ctx, m, n, complex(t))
            b = sigma_mn_quad(family_ctx, m, n, complex(t))
            assert a == pytest.approx(b, abs=1e-10)


def test_closed_matches_truncated_expm(family_ctx):
    N = 200
    op = truncated_h(family_ctx.js, N)
    for t in (0.25, 1.0, 2.0):
        for n in (0, 3, 6):
            e = np.zeros(N)
            e[n] = 1.0
            col = expm_evolve(op, t, e)
            for m in (0, 2, 5):
                assert sigma_mn(family_ctx, m, n, complex(t)) == pytest.approx(
                    col[m], abs=1e-8
                )


def _row_kmax(ctx, n, t):
    """Index beyond which the evolved row carries less than ~1e-10 mass."""
    e = np.zeros(n + 1)
    e[n] = 1.0
    return evolve(ctx, e, t, tail=1e-10).size + 32


def test_unitarity_of_rows(family_ctx):
    for n in (0, 4, 9):
        for t in (0.1, 1.0, 5.0):
            kmax = _row_kmax(family_ctx, n, t)
            row = sigma_row(family_ctx, n, t, kmax=kmax)
            assert float(np.vdot(row, row).real) == pytest.approx(1.0, abs=1e-8)


def test_semigroup_property(family_ctx):
    t1, t2 = 0.3, 0.7
    kmax = 80
    for m, n in [(0, 0), (1, 2), (3, 3)]:
        rows_t1 = sigma_row(family_ctx, m, t1, kmax)
        rows_t2 = sigma_row(family_ctx, n, t2, kmax)  # = sigma_kn by symmetry
        direct = sigma_mn(family_ctx, m, n, complex(t1 + t2))
        assert direct == pytest.approx(np.dot(rows_t1, rows_t2), abs=1e-8)


def test_heisenberg_ode_finite_difference(family_ctx):
    """d sigma_mn/dt = -i (b(m) s_{m-1,n} + h(m) s_{mn} + b(m+1) s_{m+1,n})."""
    js = family_ctx.js
    h = 1e-5
    for m, n in [(0, 1), (2, 2), (3, 1)]:
        for t in (0.4, 1.1):
            d = (
                sigma_mn(family_ctx, m, n, complex(t + h))
                - sigma_mn(family_ctx, m, n, complex(t - h))
            ) / (2 * h)
            rhs = js.h(m) * sigma_mn(family_ctx, m, n, complex(t))
            rhs += js.b(m + 1) * sigma_mn(family_ctx, m + 1, n, complex(t))
            if m:
                rhs += js.b(m) * sigma_mn(family_ctx, m - 1, n, complex(t))
            assert d == pytest.approx(-1j * rhs, abs=5e-7)


def test_evolve_preserves_norm_and_matches_expm(family_ctx):
    rng = np.random.default_rng(11)
    c = rng.normal(size=12) + 1j * rng.normal(size=12)
    c /= np.linalg.norm(c)
    out = evolve(family_ctx, c, 1.3)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-6)
    N = max(out.size, 300)
    op = truncated_h(family_ctx.js, N)
    ref = expm_evolve(op, 1.3, np.concatenate([c, np.zeros(N - 12)]))
    assert np.max(np.abs(out - ref[: out.size])) < 1e-7


def test_evolve_reports_truncation_failure(family_ctx):
    with pytest.raises(ConvergenceError):
        evolve(family_ctx, [1.0], 40.0, max_dim=8)


def test_evolve_refuses_a_first_size_above_max_dim():
    ctx = build_context(hermite_data())
    # a 66-level clamp of a packet that needs hundreds of levels would
    # measure its deficit on a rule far too small to see the leak
    with pytest.raises(ConvergenceError, match="max_dim = 65"):
        evolve(ctx, [1.0], 40.0, tail=1e-9, max_dim=65)
    # a vector longer than max_dim + 1 must not reach the matrix product
    with pytest.raises(ConvergenceError, match="max_dim = 16"):
        evolve(ctx, np.ones(40) / np.sqrt(40), 0.5, max_dim=16)


def test_hermite_rule_size_is_gauge_free():
    # (a1, b0) and lambda * (a1, b0) give the same measure and ladder
    # (variance -b0/a1 = 8), so the same row; at t = 5 its packet lies past
    # level 60 and a rule sized at the smaller gauge misses it
    rows = [
        sigma_row(build_context(hermite_data(a1=a1, b0=b0)), 3, 5.0, 60)
        for a1, b0 in ((-0.05, 0.4), (-1.0, 8.0))
    ]
    assert np.max(np.abs(rows[0] - rows[1])) < 1e-12


def test_evolve_input_validation(family_ctx):
    with pytest.raises(ValueError):
        evolve(family_ctx, [], 1.0)
    assert np.all(evolve(family_ctx, [0.0, 0.0], 1.0) == 0.0)


def test_negative_indices_rejected(family_ctx):
    with pytest.raises(ValueError):
        sigma_n(family_ctx, -1, 1.0)
    with pytest.raises(ValueError):
        sigma_mn_closed(family_ctx, -1, 0, 1.0)
    with pytest.raises(ValueError):
        sigma_row(family_ctx, 0, 1.0, kmax=-1)


def test_cancellation_warning_beyond_routing_threshold():
    """Direct closed-form use at degree 40 has lost all digits and says so;
    the router serves the same element through quadrature instead."""
    ctx = build_context(hermite_data())
    with pytest.warns(RuntimeWarning, match="cancels"):
        sigma_mn_closed(ctx, 40, 40, 4.8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # router must stay silent
        v = sigma_mn(ctx, 40, 40, 4.8)
    N = 300
    op = truncated_h(ctx.js, N)
    e = np.zeros(N)
    e[40] = 1.0
    ref = expm_evolve(op, 4.8, e)[40]
    assert v == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize(
    "mu,nu,m,n,t",
    [(2.718, 3.122, 23, 1, 1.991), (1.276, 3.579, 6, 18, 0.627), (3.379, 2.593, 21, 2, 2.152)],
)
def test_jacobi_router_keeps_cancelling_degrees_off_the_closed_form(mu, nu, m, n, t):
    """At m + n = 20-24 the Jacobi closed sums cancel to ~1e-8 absolute, far
    above these tiny elements; the router must serve them by quadrature."""
    ctx = build_context(jacobi_data(-1, 1, mu, nu))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = sigma_mn(ctx, m, n, t)
    assert abs(v - sigma_mn_quad(ctx, m, n, t, N=600)) < 1e-12


def test_selfadjointness_certificate():
    js_lin = JacobiSystem(b=lambda n: float(n), h=lambda n: 0.0)
    require_selfadjoint(js_lin)  # linear growth: fine
    js_fast = JacobiSystem(b=lambda n: float(n) ** 1.6, h=lambda n: 0.0)
    with pytest.raises(Unsupported):
        require_selfadjoint(js_fast)
    finite = JacobiSystem(b=lambda n: 1.0, h=lambda n: 0.0, dim=5)
    require_selfadjoint(finite)  # finite matrices are always fine


def test_warm_evolve_makes_no_complex_copy_of_the_poly_matrix():
    ctx = build_context(laguerre_data(2.5))
    out = evolve(ctx, [1.0], 2.0)  # cold: builds and caches the matrix
    _, Q = _weighted_poly_matrix(ctx, out.size + 63, out.size - 1)
    assert Q.shape[0] == out.size
    tracemalloc.start()
    try:
        again = evolve(ctx, [1.0], 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(again, out)
    assert peak < Q.nbytes / 4


def test_lru_evicts_the_least_recently_used_at_its_bound():
    from qladder import fockoracle, propagator

    slots = (propagator._RULES.slots, propagator._QMATS.slots, fockoracle._EIGS.slots)
    assert slots == (12, 12, 64)
    cache = propagator._LRU(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes "a", so "b" is now the oldest
    cache.put("c", 3)
    assert (cache.get("a"), cache.get("b"), cache.get("c")) == (1, None, 3)
    cache.put("a", 4)  # replacing refreshes too
    cache.put("d", 5)
    assert (cache.get("a"), cache.get("c"), cache.get("d")) == (4, None, 5)
    calls = []

    def build():
        calls.append(1)
        return 6

    assert cache.get_or_build("a", build) == 4
    assert cache.get_or_build("e", build) == 6
    assert calls == [1] and cache.get("d") is None  # the miss built once and evicted "d"
