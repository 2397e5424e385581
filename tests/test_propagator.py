"""Propagator matrix elements: closed forms, quadrature, evolution."""

import cmath
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from qladder import propagator
from qladder.errors import ConvergenceError, StripError
from qladder.fockoracle import expm_evolve, truncated_h
from qladder.orthopoly import _Laguerre, hermite_data, jacobi_data, laguerre_data
from qladder.propagator import (
    PropagatorContext,
    _rule_size,
    _weighted_poly_matrix,
    build_context,
    char_fn,
    evolve,
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
    for z in (0.8, 1.0 + 0.2j if not isinstance(family_ctx.pd, _Laguerre) else 1.0):
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


def _traced_peak(f):
    """(f(), the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sigma_row_allocates_only_its_dual_block(rule_builds):
    # row 20 to k = 4000 at t = 7.5 on Laguerre(0.8) reads one sweep of 21 dual
    # degrees over the nodes m = 20..4000; a square block of those levels would
    # take 128 MB, the 21 rows 0.67 MB
    ctx = build_context(laguerre_data(0.8))
    n, kmax = 20, 4000
    row, peak = _traced_peak(lambda: sigma_row(ctx, n, 7.5, kmax))
    assert row.shape == (kmax + 1,) and rule_builds == []
    assert peak < 4 * 8 * (n + 1) * (kmax + 1 - n)


def _direct_values(ctx, z, requests):
    """sigma_mn_quad(m, n, z, N) for each (m, n, N) of ``requests``, by the library's
    operations on rules that ``measure.gauss_rule(ctx.sm, N)`` builds for the pair itself."""
    from qladder.measure import gauss_rule
    from qladder.orthopoly import _log_row, _node_sum, scaled_sweep

    out = []
    for m, n, N in requests:
        rule = gauss_rule(ctx.sm, N)
        s, rows = np.zeros_like(rule.nodes), {}
        for k, u, _ in scaled_sweep(*ctx.js.arrays(max(m, n)), rule.nodes, s):
            if k in (m, n):
                rows[k] = _log_row(u, s)
        (la, sa), (lb, sb) = rows[m], rows[n]
        M, V = _node_sum(rule.log_weights + la + lb + z.imag * rule.nodes, sa * sb, rule.nodes, z.real)
        out.append(np.array([V * math.exp(M)]))
    return out


def test_pairs_of_one_shape_share_one_rule(rule_builds):
    # every Jacobi pair of exponents (2, 1.5) is an affine image of the one
    # ladder on (-1, 1): five pairs at one z build each rule size once, and
    # their values are those of rules built for each pair itself, up to the
    # rounding the map adds to each node; pairs in canonical gauge, mapped by
    # the identity, give the values of their own rules bit for bit
    z = 1.3 + 0.1j  # real t takes the Chebyshev route

    def check(pd, rel):
        ctx = build_context(pd)
        requests = [(5, 8, 160), (5, 8, None), (2, 3, 96)]
        got = [np.array([sigma_mn_quad(ctx, m, n, z, N=N)]) for m, n, N in requests]
        requests = [(m, n, N or _rule_size(m + n + 96 + pd.spread(abs(z)))) for m, n, N in requests]
        want = _direct_values(ctx, z, requests)
        for g, w in zip(got, want, strict=True):
            if rel:
                assert g.shape == w.shape and np.abs(g - w).max() <= rel * np.abs(w).max()
            else:
                np.testing.assert_array_equal(g, w)
        return {N for _, _, N in requests}

    used = set()
    for a, b, scale in ((-1.0, 1.0, 1.0), (0.0, 2.0, 1.0), (-3.0, 1.0, 2.0), (-1.0, 3.0, 2.0), (-4.0, 0.0, 0.5)):
        used |= check(jacobi_data(a, b, 2.0, 1.5, scale), 1e-13)
    built = [key[-1] for key in rule_builds]  # keys end in the rule size
    assert sorted(built) == sorted(used) and len(used) < 3 * 5
    for pd in (jacobi_data(-1.0, 1.0, 0.7, 3.1), jacobi_data(-1.0, 1.0, 2.0, 1.5)):
        check(pd, 0)


def test_hermite_rule_size_is_gauge_free():
    # (a1, b0) and lambda * (a1, b0) give the same measure and ladder
    # (variance -b0/a1 = 8), so the same elements; at z = 5 + 0.1i the
    # packet of level 3 lies past level 60 and a rule sized at the smaller
    # gauge misses it
    rows = [
        np.array([sigma_mn_quad(build_context(hermite_data(a1=a1, b0=b0)), 3, k, 5.0 + 0.1j) for k in range(61)])
        for a1, b0 in ((-0.05, 0.4), (-1.0, 8.0))
    ]
    assert np.max(np.abs(rows[0] - rows[1])) < 1e-12


def test_evolve_input_validation(family_ctx):
    with pytest.raises(ValueError):
        evolve(family_ctx, [], 1.0)
    with pytest.raises(ValueError):
        evolve(family_ctx, np.ones((2, 2, 2)), 1.0)
    assert np.all(evolve(family_ctx, [0.0, 0.0], 1.0) == 0.0)
    assert evolve(family_ctx, np.zeros((3, 2)), 1.0).shape == (3, 2)


def test_matrix_evolve_equals_its_columns_evolved_one_by_one(family_ctx):
    """A (levels x W) start evolves every column at once.  Hermite and Laguerre columns
    share one law and one integer-node block, equal to a column's own evolve on its
    levels; past them each carries only its packet's tail.  Jacobi columns share one
    Chebyshev expansion, a complex column by its two real ones."""
    rng = np.random.default_rng(29)
    cols = [np.eye(6)[5], np.eye(6)[0], np.r_[rng.normal(size=3) + 1j * rng.normal(size=3), 0.0, 0.0, 0.0],
            np.r_[0.0, rng.normal(size=4), 0.0]]
    for t in (0.0, 0.7, -1.3):
        out = evolve(family_ctx, np.stack(cols, axis=1), t)
        assert out.shape[1] == len(cols)
        for j, c in enumerate(cols):
            one = evolve(family_ctx, np.trim_zeros(c, "b"), t)
            if family_ctx.pd.dual is not None:
                np.testing.assert_array_equal(out[: one.size, j], one)
                assert np.linalg.norm(out[one.size :, j]) < 1e-7 * np.linalg.norm(c)
            else:
                assert np.max(np.abs(out[: one.size, j] - one)) < 1e-14 * np.linalg.norm(c)
                assert not out[one.size :, j].any()  # T_k(J) e_n reaches n + k levels


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


@pytest.mark.parametrize("params", [(-1.0, 1.0, 2.0, 1.5), (0.5, 2.0, 1.7, 2.9)])
def test_jacobi_transforms_match_mpmath_where_the_series_gives_way(params, mp_orthonormal):
    """(b - a)|z| lies above the confluent-series threshold, so the shifted
    weight transforms take their oscillatory quadrature branch."""
    pd = jacobi_data(*params)
    ctx = build_context(pd)
    cuts = mp.linspace(*pd.support, 3)
    with mp.workdps(30):
        mass = mp.quad(pd.weight, cuts)

    def transform(z, f):
        with mp.workdps(30):
            num = mp.quad(lambda x: mp.exp(-1j * z * x) * pd.weight(x) * f(x), cuts)
            return complex(num / mass)

    for z in (9.0, 15 + 0.3j, 26 - 0.2j, 40 + 0.5j):
        assert abs(char_fn(ctx, z) - transform(z, lambda x: 1)) < 1e-13
    # P_2 and P_5 have degree <= 5, so six reference values fix them
    xs = np.linspace(*pd.support, 6)
    table = np.array([mp_orthonormal(pd, 5, x) for x in xs])
    for n in (2, 5):
        P = np.polynomial.Polynomial.fit(xs, table[:, n], 5)
        want = transform(30 + 0.2j, lambda x: P(float(x)))
        assert abs(sigma_n(ctx, n, 30 + 0.2j) - want) < 1e-10


@pytest.mark.parametrize("t", [10.0, 20.0])
def test_jacobi_one_index_form_holds_at_large_t(t):
    # |w| = 2t is past the confluent series' safe range; the Gauss-rule
    # route of the shifted transform keeps sigma_n to quadrature's digits
    ctx = build_context(jacobi_data(-1.0, 1.0, 2.0, 1.5))
    for n in range(25):
        assert abs(sigma_n(ctx, n, t) - sigma_mn_quad(ctx, n, 0, t)) < 1e-12, n


def test_evolve_makes_no_complex_copy_of_its_dual_block():
    # the block holds c.size real rows over the output's levels; a complex copy
    # of it alone would take twice its bytes
    ctx = build_context(laguerre_data(2.5))
    c = np.linspace(1.0, 2.0, 200) * (1.0 + 0.5j)
    out, peak = _traced_peak(lambda: evolve(ctx, c, 1.0))
    assert peak < 2.5 * 8 * c.size * out.size


def test_warm_evolve_makes_no_complex_copy_of_the_chebyshev_rows():
    # a Jacobi evolve keeps its real Chebyshev rows T_k(Jt) X, which a warm
    # request reads again; a complex copy of them would take twice their bytes
    ctx = build_context(jacobi_data(-1.0, 1.0, 2.0, 1.5))
    c = np.linspace(1.0, 2.0, 200)
    out = evolve(ctx, c, 2.0)  # cold: builds and caches the rows
    V = propagator._CHEB.get((ctx.pd, (c.size, 1), c.tobytes()))
    assert V.shape[1] == out.size + 2
    again, peak = _traced_peak(lambda: evolve(ctx, c, 2.0))
    np.testing.assert_array_equal(again, out)
    assert peak < V.nbytes


def test_lru_evicts_the_least_recently_used_at_its_bound():
    from qladder import fockoracle, propagator

    slots = (propagator._RULES.slots, fockoracle._BLOCKS.slots)
    assert slots == (128, 64)
    cache = propagator._LRU(2, max_bytes=1000)
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


def test_lru_get_looks_its_key_up_once():
    from collections import OrderedDict

    class Key:
        hashes = 0

        def __hash__(self):
            Key.hashes += 1
            return 7

    key = Key()
    probe = OrderedDict({key: None})
    Key.hashes = 0
    probe.move_to_end(key)
    refresh = Key.hashes  # what the refresh of a hit hashes (0 in CPython's C OrderedDict)
    cache = propagator._LRU(4, max_bytes=1000)
    Key.hashes = 0
    assert cache.get(key) is None and Key.hashes == 1  # a miss: one lookup
    cache.put(key, 1)
    Key.hashes = 0
    assert cache.get(key) == 1 and Key.hashes == 1 + refresh  # a hit: one lookup and the refresh


def test_lru_keeps_its_values_within_a_byte_budget():
    cache = propagator._LRU(12, max_bytes=100)
    cache.put("a", np.zeros(5))  # 40 bytes
    cache.put("b", np.zeros(5))
    assert cache.get("a") is not None  # refreshes "a", so "b" is now the oldest
    cache.put("c", np.zeros(5))  # 120 bytes in all: "b" goes
    assert (cache.get("b"), cache.nbytes) == (None, 80)
    big = np.zeros(13)
    assert cache.get_or_build("d", lambda: big) is big  # over the budget: returned, not kept
    assert cache.get("d") is None and cache.nbytes == 80


def test_lru_counts_the_bytes_of_lists_of_blocks():
    cache = propagator._LRU(4, max_bytes=1000)
    blocks = [(np.arange(3), np.zeros(3), np.zeros((3, 3), dtype=complex)) for _ in range(2)]
    cache.put("blocks", blocks)  # 2 x (24 + 24 + 144) bytes
    cache.put("pair", (np.zeros(10), np.zeros(10)))
    assert cache.get("blocks") is blocks and cache.nbytes == 384 + 160  # refreshes "blocks"
    cache.put("more", [np.zeros(60)])  # 480 bytes: "pair" goes
    assert cache.get("pair") is None and cache.nbytes == 384 + 480


def test_weighted_rows_come_from_one_sweep_over_the_rule_nodes(rule_builds, monkeypatch):
    """A rule's own sweep writes only its weights; rows are one more sweep over its nodes,
    cold or cached, and do not depend on which."""
    from qladder import measure, orthopoly

    ctx = build_context(jacobi_data(-1.0, 1.0, 0.7, 0.8))
    passes, sweep = [], orthopoly.scaled_sweep

    def counted_sweep(*args):
        passes.append(1)
        return sweep(*args)

    for mod in (measure, orthopoly):
        monkeypatch.setattr(mod, "scaled_sweep", counted_sweep)
    _, cold = _weighted_poly_matrix(ctx, 128, 64)
    assert [key[-1] for key in rule_builds] == [128] and len(passes) == 2  # the weights, then the rows
    passes.clear(), rule_builds.clear()
    _, warm = _weighted_poly_matrix(ctx, 128, 64)
    assert rule_builds == [] and len(passes) == 1
    np.testing.assert_array_equal(warm, cold)


def test_sigma_mn_quad_at_complex_z_keeps_its_value():
    ctx = build_context(laguerre_data(2.5))
    z = 1.3 + 0.05j  # complex z: real t takes the integer-node route
    first = sigma_mn_quad(ctx, 30, 31, z)
    # the value of a 416-node rule sweep followed by a second sweep to degree 31
    two_pass = -0.37092981921881074 - 0.2830993581610291j
    assert abs(first - two_pass) <= 1e-13 * abs(two_pass)
    assert sigma_mn_quad(ctx, 30, 31, z) == first  # from the cached rule


def test_the_rule_cache_keeps_its_rules_within_its_byte_budget(monkeypatch):
    from qladder import measure

    ctx = build_context(hermite_data())
    budget = propagator._RULES.max_bytes
    rules = propagator._LRU(propagator._RULES.slots, budget)  # empty, with the production bounds
    built = []

    def stub(sm, N):  # a rule of 24 B per node, without the O(N^2) build
        built.append(N)
        z = np.zeros(N)
        return measure.QuadratureRule(z, z, z)

    monkeypatch.setattr(propagator, "_RULES", rules)
    monkeypatch.setattr(propagator, "gauss_rule", stub)
    assert budget is not None
    sizes = [_rule_size(budget // 24 // k) for k in (7, 5, 3, 6, 4, 2, 9)]
    for N in sizes:
        assert ctx.rule(N)[0].size == N
        assert rules.nbytes <= budget
    assert 0 < len(rules._data) < len(sizes)  # the stream did not fit
    built.clear()
    ctx.rule(sizes[-1])  # the newest is kept
    assert built == []
    huge = _rule_size(budget // 24 + 64)
    assert ctx.rule(huge)[0].size == huge and rules.get(ctx.shape + (huge,)) is None
    assert built == [huge] and rules.nbytes <= budget


def test_rule_size_rounds_to_the_nearest_multiple_of_32():
    sizes = np.array([_rule_size(N) for N in range(1, 9000)])
    N = np.arange(1, 9000)
    assert np.all(sizes % 32 == 0) and sizes.min() == 32
    assert np.all(np.abs(sizes - N)[N >= 16] <= 16)
    assert (_rule_size(48), _rule_size(47), _rule_size(8256)) == (64, 32, 8256)  # ties go up


@pytest.mark.parametrize(
    "pd", [jacobi_data(0, 3, 0.7, 2.5), jacobi_data(-2, 5, 3.1, 0.8, 0.5), jacobi_data(-1, 1, 2, 1.5)]
)
def test_every_quadrature_caller_keeps_48_nodes_above_its_highest_row(pd, monkeypatch):
    ctx = build_context(pd)
    sizes = []
    rule = PropagatorContext.rule

    def recorded(self, N):
        out = rule(self, N)
        sizes.append(out[0].size)
        return out

    monkeypatch.setattr(PropagatorContext, "rule", recorded)
    for t in (0.0, 0.3, 2.0):  # real t takes the Chebyshev route, with no rule
        for m, n in ((0, 0), (30, 2), (60, 61)):
            sizes.clear()
            sigma_mn_quad(ctx, m, n, t + 0.05j)
            assert sizes == [_rule_size(sizes[0])] and sizes[0] >= max(m, n) + 48


def test_quadrature_values_do_not_depend_on_the_cache_history(monkeypatch):
    ctx = build_context(laguerre_data(2.5))

    def values():
        return (
            np.array([sigma_mn_quad(ctx, 4, 30, 1.7 + 0.1j), sigma_mn_quad(ctx, 3, 40, 1.75 + 0.05j)]),
            np.array([sigma_mn_quad(ctx, 5, 8, 1.7 + 0.1j, N=200)]),
        )

    # a request with more rows at the same z asks for more nodes on the same grid rule
    for (m, n), z in (((4, 30), 1.7 + 0.1j), ((3, 40), 1.75 + 0.05j)):
        size = m + n + 96 + ctx.pd.spread(abs(z)) + ctx.pd.quad_extra(z)
        assert _rule_size(size) == _rule_size(size + 5)
    monkeypatch.setattr(propagator, "_RULES", propagator._LRU(128, propagator._RULES.max_bytes))
    cold = values()
    # unrelated requests on the same grid rules, with more rows, and on other families
    for t in (1.6, 1.7, 1.75, 3.0):
        sigma_mn_quad(ctx, 9, 30, t + 0.1j)
        sigma_mn_quad(ctx, 9, 40, t + 0.05j)
        sigma_mn_quad(ctx, 1, 60, t + 0.1j, N=200)
    for other in (hermite_data(), jacobi_data(-1, 1, 2, 1.5)):
        octx = build_context(other)
        for t in np.linspace(0.1, 4.0, 20):
            sigma_mn_quad(octx, 2, 30, t + 0.1j)
    for got, want in zip(values(), cold, strict=True):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("z", [3.0, 20 + 0.1j])
def test_jacobi_two_index_form_evaluates_m_plus_n_plus_1_transforms(z, monkeypatch):
    pd = jacobi_data(-1.0, 1.0, 2.0, 1.5)
    ctx = build_context(pd)
    calls, rows = [], []
    shifted_row = type(pd)._shifted_row

    def counted(self, ctx, z, dmu, dnu, count):
        # one call evaluates the row of transforms (dmu + i, dnu - i), i < count
        calls.extend((dmu + i, dnu - i) for i in range(count))
        out = shifted_row(self, ctx, z, dmu, dnu, count)
        rows.append(out)
        return out

    monkeypatch.setattr(type(pd), "_shifted_row", counted)
    sigma_mn_closed(ctx, 9, 9, z)
    assert sorted(calls) == [(j, 18 - j) for j in range(19)]
    # each entry of the row is the transform of its own shift
    (L, g, V), = rows
    for j in range(19):
        if abs(2.0 * z) <= 12.0:  # the scalar series
            L1, V1 = pd._shifted(ctx, z, j, 18 - j)
        else:  # past it, a row of its own over the same rule
            L1, _, (V1,) = pd._shifted_row(ctx, z, j, 18 - j, 1)
        assert math.exp(L) * g[j] * V[j] == pytest.approx(math.exp(L1) * V1, rel=1e-12)


def test_real_matvec_is_the_stacked_product_bit_for_bit():
    rng = np.random.default_rng(5)
    for rows, cols in ((1, 1), (7, 13), (65, 200)):
        Q = rng.standard_normal((rows, cols))
        f = rng.standard_normal(cols) + 1j * rng.standard_normal(cols)
        for A, v in ((Q, f), (Q.T, f[: 2 * rows : 2])):  # transposed rows, a strided vector
            want = (A @ np.stack((v.real, v.imag), axis=-1)).view(complex)[:, 0]
            np.testing.assert_array_equal(propagator._real_matvec(A, v), want)


def _degree_sized_rule(ctx, m, n, t):
    """The rule size sigma_mn_quad takes at complex z."""
    return _rule_size(min(m + n + 96 + ctx.pd.spread(abs(t)), 6144))


def _two_index_draws(box, rng, count):
    """(pd, m, n, t) at real t: the benchmark's quadrature sigma_mn box, or a broader one
    (Hermite t <= 8 at scales up to 3, Laguerre mu <= 6 and t <= 6 in other gauges,
    Jacobi t <= 20 on intervals up to 4 wide, m + n up to 96)."""
    out = []
    for i in range(count):
        fam = i % 3
        if box == "sweep":
            total = int(rng.integers(25, 49))
            pd, t = (
                (hermite_data(rng.uniform(-3, -1), 0.0, rng.uniform(0.5, 2)), rng.uniform(0.2, 3)),
                (laguerre_data(rng.uniform(0.6, 4)), rng.uniform(0.2, 2)),
                (jacobi_data(-1, 1, rng.uniform(0.6, 4), rng.uniform(0.6, 4)), rng.uniform(0.2, 5)),
            )[fam]
        else:
            total = int(rng.integers(25, 97))
            a1, s, a, w = rng.uniform(-3, -1), rng.uniform(0.3, 3), rng.uniform(-2, 1), rng.uniform(0.5, 4)
            pd, t = (
                (hermite_data(a1, rng.uniform(-1, 1), -a1 * s * s), rng.uniform(0.2, 8)),
                (laguerre_data(rng.uniform(0.6, 6), rng.uniform(-2, -1), rng.uniform(0.5, 1), rng.uniform(-1, 1)),
                 rng.uniform(0.2, 6)),
                (jacobi_data(a, a + w, rng.uniform(0.6, 4), rng.uniform(0.6, 4)), rng.uniform(0.2, 20)),
            )[fam]
        m = int(rng.integers(0, total + 1))
        out.append((pd, m, total - m, t if rng.random() < 0.5 else -t))
    return out


@pytest.mark.parametrize("box", ["sweep", "broad"])
def test_real_t_two_index_rules_from_the_packet_law_at_half_time_are_accurate(box):
    # the default real-t route (integer nodes, or Chebyshev on Jacobi pairs) against
    # the rule of twice the degree-sized nodes; the reference itself moves by up to
    # 2.3e-13 at 256 more nodes, so the bound is set there
    rng = np.random.default_rng(11 if box == "sweep" else 12)
    for pd, m, n, t in _two_index_draws(box, rng, 24):
        ctx = build_context(pd)
        want = sigma_mn_quad(ctx, m, n, t, N=2 * _degree_sized_rule(ctx, m, n, t))
        assert abs(sigma_mn_quad(ctx, m, n, t) - want) <= 2.5e-13, (pd, m, n, t)


# nodes: the rules the packet law at half time once chose at real t; the default
# real-t route is now Chebyshev, and an explicit N keeps its Gauss rule
@pytest.mark.parametrize("pd, m, n, t, nodes", [
    (jacobi_data(-8, 8, 0.7, 3.1), 30, 31, 1.3, 128),  # degree-sized: 224
    (jacobi_data(0, 4, 3.3, 1.2), 0, 48, 6.0, 128),  # 224
    (jacobi_data(-3, 2, 1.7, 2.9), 20, 30, 2.0, 96),  # 192
    (jacobi_data(-1, 1, 2, 1.5), 40, 8, 4.0, 128),  # 192
])
def test_the_real_t_two_index_rule_size_is_pinned(pd, m, n, t, nodes, monkeypatch):
    sizes = []
    rule = PropagatorContext.rule

    def recorded(self, N):
        out = rule(self, N)
        sizes.append(out[0].size)
        return out

    monkeypatch.setattr(PropagatorContext, "rule", recorded)
    ctx = build_context(pd)
    chebyshev = sigma_mn_quad(ctx, m, n, t)  # no rule
    ruled = sigma_mn_quad(ctx, m, n, t, N=nodes)
    sigma_mn_quad(ctx, m, n, t + 0.05j)  # complex z keeps the degree-sized rule
    assert sizes == [nodes, _rule_size(m + n + 96 + pd.spread(abs(t + 0.05j)) + pd.quad_extra(t + 0.05j))]
    assert abs(ruled - chebyshev) <= 2.5e-13


def test_closed_forms_match_the_half_time_rules_up_to_the_routing_degree():
    # worst |closed - quad| / max(1, |sigma|) over these 90 draws: Hermite 1.2e-14,
    # Laguerre 8.6e-15, Jacobi 5.1e-11 (its alternating sums cancel most at m + n = 18)
    rng = np.random.default_rng(24)
    bound = (1e-12, 1e-12, 1e-9)
    for i in range(90):
        pd = (
            hermite_data(rng.uniform(-3, -1), rng.uniform(-1, 1), rng.uniform(0.5, 2)),
            laguerre_data(rng.uniform(0.6, 4), b0=rng.uniform(-1, 1)),
            jacobi_data(-1, 1, rng.uniform(0.6, 4), rng.uniform(0.6, 4)),
        )[i % 3]
        ctx = build_context(pd)
        total = int(rng.integers(13, pd.closed_max_degree + 1))
        m, t = int(rng.integers(0, total + 1)), rng.uniform(0.1, 3)
        quad = sigma_mn_quad(ctx, m, total - m, t)
        err = abs(sigma_mn_closed(ctx, m, total - m, t) - quad)
        assert err <= bound[i % 3] * max(1.0, abs(quad)), (pd, m, total - m, t)


# Laguerre pairs at m + n >= 25 and Im z in [0.3, 0.85] of the strip edge, the
# first five where the quadrature sum is 3.6e-7 to 6.1e-2 off, relatively
_STRIP_POINTS = [
    (0.642, 12, 13, 2.097, 0.8),
    (2.5, 28, 19, 1.3, 0.86),
    (3.3, 15, 30, 2.5, 0.5),
    (0.9, 24, 24, 1.8, 0.7),
    (1.2, 17, 23, 3.0, 0.4),
    (1.7, 20, 22, 0.7, 0.3),
]


def _mp_laguerre_sigma_mn(mu, m, n, z):
    """sigma_mn(z) of laguerre_data(mu) by a 30-digit mpmath.quad of its integral.

    (1 / Gamma(mu)) int_0^inf e^{-wx} x^{mu-1} P_m(x) P_n(x) dx, w = 1 + iz, with
    P_m P_n expanded in powers of x from the recurrence b_k = sqrt(k (k + mu - 1)),
    h_k = 2k + mu.  The integrand is analytic in Re x > 0, so the path turns
    onto the ray x = r |w| / w, where e^{-wx} = e^{-|w| r} no longer oscillates.
    At the points above it agrees with a 60-digit run to rounding.
    """
    with mp.workdps(30):
        mu, w = mp.mpf(mu), 1 + 1j * mp.mpc(z)
        b = [mp.sqrt(k * (k + mu - 1)) for k in range(max(m, n) + 2)]
        P = [[mp.mpf(1)], [-mu / b[1], 1 / b[1]]]  # coefficients of P_k, lowest power first
        for k in range(1, max(m, n)):
            nxt = [0] * (k + 2)
            for i, c in enumerate(P[k]):
                nxt[i + 1] += c
                nxt[i] -= (2 * k + mu) * c
            for i, c in enumerate(P[k - 1]):
                nxt[i] -= b[k] * c
            P.append([c / b[k + 1] for c in nxt])
        prod = [0] * (m + n + 1)
        for i, a in enumerate(P[m]):
            for j, c in enumerate(P[n]):
                prod[i + j] += a * c
        u = abs(w) / w
        coef = [c * u**k for k, c in enumerate(prod)][::-1]
        f = mp.quad(lambda r: mp.exp(-abs(w) * r) * r ** (mu - 1) * mp.polyval(coef, r), [0, mp.inf])
        return complex(f * u**mu / mp.gamma(mu))


@pytest.mark.parametrize("mu, m, n, re, height", _STRIP_POINTS)
def test_laguerre_sigma_mn_inside_the_strip_matches_mpmath(mu, m, n, re, height):
    ctx = build_context(laguerre_data(mu))
    z = complex(re, height * ctx.strip.upper)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigma_mn(ctx, m, n, z)
    want = _mp_laguerre_sigma_mn(mu, m, n, z)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# The integer-node route: Hermite and Laguerre pairs at real t


def test_real_t_hermite_and_laguerre_requests_build_no_rule(rule_builds):
    for pd in (hermite_data(), hermite_data(-1.3, 0.4, 0.8), laguerre_data(2.5), laguerre_data(0.8, -2.0, 1.5, 0.3)):
        ctx = build_context(pd)
        evolve(ctx, [0.6, 0.8j], 1.3)
        evolve(ctx, [0.0, 0.0, 1.0], -0.7)
        sigma_row(ctx, 4, 2.1, 60)
        sigma_mn_quad(ctx, 30, 12, 1.7)
        sigma_mn(ctx, 20, 29, -0.9)
    assert rule_builds == []
    # complex z keeps its rule
    sigma_mn_quad(build_context(hermite_data()), 30, 12, 1.7 + 0.1j)
    assert len(rule_builds) == 1


def _dense_row(ctx, n, t, levels):
    """Row n of exp(-itJ_N) for the N-level truncation J_N of the pair's own ladder, N = levels + 64,
    by a dense eigendecomposition."""
    from scipy.linalg import eigh_tridiagonal

    b, h = ctx.js.arrays(levels + 63)
    lam, V = eigh_tridiagonal(h, b[1:])
    return (V * np.exp(-1j * t * lam)) @ V[n]


@pytest.mark.parametrize("pd, n, t, norm2", [
    (hermite_data(), 0, 20.0, 0.519),
    (laguerre_data(2.5), 0, 5.0, 0.9926),
    (hermite_data(-1.3, 0.4, 0.8), 7, -2.5, None),
    (laguerre_data(1.4, -2.0, 0.7, 0.5), 3, 1.9, None),
])
def test_sigma_row_keeps_the_exact_first_elements_whatever_kmax(pd, n, t, norm2):
    # the row is the first kmax + 1 matrix elements themselves: what it leaves
    # out is the mass past kmax, not an error in the elements kept
    ctx = build_context(pd)
    levels = pd.levels(n, abs(t), 1e-36, 1 << 14)  # the reference's rows up to here are exact
    want = _dense_row(ctx, n, t, levels)
    for kmax in sorted({0, n, n + 1, 50, 200, levels} & set(range(levels + 1))):
        row = sigma_row(ctx, n, t, kmax)
        assert row.shape == (kmax + 1,) and np.abs(row - want[: kmax + 1]).max() <= 1e-13, kmax
    if norm2 is not None:
        row = sigma_row(ctx, n, t, 200)
        assert float(np.vdot(row, row).real) == pytest.approx(norm2, abs=5e-4)


def _mp_displacement(pd, m, n, t):
    """<m|e^{-itJ}|n> of a Hermite pair by Cahill & Glauber's displacement element:
    J = h0 + s (a + a^+), e^{-itJ} = e^{-i t h0} D(-i s t), and for m >= n
    <m|D(alpha)|n> = sqrt(n!/m!) alpha^{m-n} e^{-|alpha|^2/2} L_n^{(m-n)}(|alpha|^2)."""
    m, n = max(m, n), min(m, n)
    with mp.workdps(30):
        s, h0, t = mp.sqrt(-mp.mpf(pd.b0) / pd.a1), -mp.mpf(pd.a0) / pd.a1, mp.mpf(t)
        alpha = -1j * s * t
        x = abs(alpha) ** 2
        d = mp.sqrt(mp.factorial(n) / mp.factorial(m)) * alpha ** (m - n) * mp.exp(-x / 2) * mp.laguerre(n, m - n, x)
        return complex(mp.exp(-1j * t * h0) * d)


def _mp_su11(pd, m, n, t):
    """<m|e^{-itJ}|n> of a Laguerre pair from the disentangled parabolic su(1,1) element:
    J = -beta + (2 K0 + K+ + K-) / gamma with Bargmann index mu / 2, and at tau = t / gamma,
    e^{-i tau (2 K0 + K+ + K-)} = e^{A K+} B^{K0} e^{A K-}, A = -i tau / (1 + i tau),
    B = (1 + i tau)^-2: a terminating 2F1 in m, n."""
    with mp.workdps(30):
        mu, t = mp.mpf(pd.mu), mp.mpf(t)
        tau = t / mp.mpf(pd.gamma)
        A, B = -1j * tau / (1 + 1j * tau), (1 + 1j * tau) ** -2
        poch = lambda k: mp.rf(mu, k)  # noqa: E731
        pre = mp.sqrt(mp.factorial(m) * mp.factorial(n) * poch(m) * poch(n))
        total = sum(B**j * A ** (m + n - 2 * j)
                    / (mp.factorial(m - j) * mp.factorial(n - j) * mp.factorial(j) * poch(j))
                    for j in range(min(m, n) + 1))
        return complex(mp.exp(1j * t * mp.mpf(pd.beta)) * B ** (mu / 2) * pre * total)


@pytest.mark.parametrize("pd, m, n, t", [
    (hermite_data(-2.0, 0.0, 1.0), 12, 13, 1.7),
    (hermite_data(-1.3, 0.4, 0.8), 30, 18, -2.9),
    (hermite_data(-3.0, -0.7, 2.0), 0, 25, 0.4),
    (hermite_data(-1.0, 0.0, 1.0), 24, 24, 2.2),
    (laguerre_data(0.8), 20, 28, 1.1),
    (laguerre_data(2.5, b0=0.3), 24, 24, -1.9),
    (laguerre_data(3.7, -2.0, 1.5, -0.5), 3, 40, 0.6),
    (laguerre_data(1.4), 17, 9, 2.0),
])
def test_real_t_two_index_elements_match_their_30_digit_group_elements(pd, m, n, t):
    # the sweep workload's degrees m + n = 25..48, against closed group elements
    # that share nothing with the Gauss rule or the integer-node sweep
    want = (_mp_su11 if isinstance(pd, _Laguerre) else _mp_displacement)(pd, m, n, t)
    ctx = build_context(pd)
    assert abs(sigma_mn_quad(ctx, m, n, t) - want) <= 1e-13
    assert sigma_mn_quad(ctx, m, n, t) == sigma_mn_quad(ctx, n, m, t)


def test_number_states_keep_their_amplitudes_where_the_vacuum_amplitude_underflows():
    # on hermite_data() at t = 160 the vacuum amplitude e^{-t^2/2} = e^{-12800}
    # is below even a long double: the block's column 0 carries exact powers of
    # two, so the vacuum is still the coherent vector and e_3 the displaced
    # number state, each of norm 1
    from qladder.coherent import coherent_coeffs

    pd, t = hermite_data(), 160.0
    ctx = build_context(pd)
    vac, e3 = evolve(ctx, [1.0], t), evolve(ctx, [0.0, 0.0, 0.0, 1.0], t)
    want = coherent_coeffs(ctx, t, tol=0.0)
    k = min(vac.size, want.size)
    assert np.abs(vac[:k] - want[:k]).max() <= 1e-13
    for out in (vac, e3):
        assert abs(1.0 - np.vdot(out, out).real) <= 1e-13
    for j in (0, 3, 12000, 12803, 13500):
        assert abs(e3[j] - _mp_displacement(pd, 3, j, t)) <= 1e-13, j


def test_integer_node_evolve_stops_at_the_memory_max_dim_allows():
    # the vacuum of hermite_data() at t = 3000 spreads over ~9 million levels;
    # the block is refused before it is allocated, where a rule of max_dim
    # nodes would stop (its (max_dim + 1) x (max_dim + 64) doubles)
    ctx = build_context(hermite_data())
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError, match="the memory max_dim = 8192 allows"):
            evolve(ctx, [1.0], 3000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8193 * 8256 * 8 / 4


# ---------------------------------------------------------------------------
# The Chebyshev route: Jacobi pairs at real t


@pytest.mark.parametrize("x", [1e-300, 1e-3, 0.5, 5.0, 20.0, 200.0, -1e-3, -5.0, -200.0])
def test_bessel_row_matches_mpmath(x):
    row = propagator._bessel_row(x, 1e-16)
    want = [float(mp.besselj(k, x)) for k in range(len(row) + 20)]
    assert max(abs(a - b) for a, b in zip(row, want)) <= 1e-15
    assert 2.0 * sum(map(abs, want[len(row):])) < 1e-16  # the tail left out
    assert 2.0 * sum(map(abs, want[len(row) - 1:])) >= 1e-16  # and no more terms than that
    longer = propagator._bessel_row(x, 1e-16, terms=len(row) + 10)
    assert len(longer) == len(row) + 11
    assert max(abs(a - b) for a, b in zip(longer, want)) <= 1e-15


@pytest.mark.parametrize("x", [2.7 - 0.4j, 3 + 5j, 3 + 10j, 1 - 10j, 20j, 15 + 2j])
def test_bessel_row_at_complex_argument_matches_mpmath(x):
    # normalized at the support end where |e^{-ix omega}| is largest: J_0 + 2 sum J_2k = 1
    # cancels at complex x (1.6e-8 off at 20i, where the J_k reach 4e7)
    row = propagator._bessel_row(x, 1e-16)
    want = [complex(mp.besselj(k, x)) for k in range(len(row) + 20)]
    assert max(abs(a - b) for a, b in zip(row, want)) <= 1e-15 * max(map(abs, want))
    assert 2.0 * sum(map(abs, want[len(row):])) < 1e-16  # the tail left out
    assert 2.0 * sum(map(abs, want[len(row) - 1:])) >= 1e-16  # and no more terms than that


@pytest.mark.parametrize("z", [1 + 800j, 1 - 800j])
def test_jacobi_elements_past_the_float_range_raise_overflow(z):
    # |J_k(z beta)| ~ e^{|Im z| beta} passes the largest float: the end phase overflows, not a
    # division by its underflowed reciprocal
    ctx = build_context(jacobi_data(-1.0, 1.0, 2.0, 1.5))
    for read in (lambda: sigma_mn(ctx, 3, 5, z), lambda: sigma_n(ctx, 3, z), lambda: char_fn(ctx, z)):
        with pytest.raises(OverflowError):
            read()


def test_closed_jacobi_requests_build_no_rule(monkeypatch):
    # every Jacobi request kind of the benchmark's closed box, on four pairs, at degrees
    # and arguments past its draws too (char_fn and sigma_n past (b - a)|z| = 12)
    from qladder.coherent import coherent_coeffs, kernel
    from qladder.observables import Fock, Number, SpectralCoherent, alpha_moment

    def refuse(self, N):
        raise AssertionError(f"a {N}-node Gauss rule on a closed request")

    monkeypatch.setattr(PropagatorContext, "rule", refuse)
    rng = np.random.default_rng(11)
    for mu, nu in ((0.6, 4.0), (4.0, 0.6), (1.3, 2.2), (3.1, 3.7)):
        ctx = build_context(jacobi_data(-1.0, 1.0, mu, nu))
        for _ in range(6):
            z = complex(rng.uniform(0.1, 8.0), rng.uniform(-0.5, 0.4))
            m, n = (int(k) for k in rng.integers(0, 25, 2))
            for w in (z, z.real, 3.0 * z):
                sigma_mn(ctx, m, n, w)
                sigma_n(ctx, n, w)
                char_fn(ctx, w)
            kernel(ctx, complex(rng.uniform(-2, 2), -0.3), complex(rng.uniform(-2, 2), 0.3))
            coherent_coeffs(ctx, complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.3, 0.3)))
            for state in (Number(int(rng.integers(0, 9))), SpectralCoherent(complex(rng.uniform(-1, 1), 0.2)),
                          Fock([0.6, 0.8j, -0.2])):
                alpha_moment(ctx, state, int(rng.integers(1, 4)), rng.uniform(-2.0, 2.0))


# [e^{-izJ}]_mn of the 70-level ladder of jacobi_data(-1, 1, mu, nu), by mpmath.expm at 30 digits, the
# ladder's coefficients from their closed forms in mpmath: keyed (z, m, n), by (mu, nu)
_JACOBI_EXPM = {
    (2.0, 1.5): {
        (8 - 1j, 0, 0): complex(0.03147331819746828, -0.022222786424304537),
        (8 - 1j, 0, 5): complex(-0.0979890471817943, -0.5552836044076925),
        (8 - 1j, 3, 12): complex(-0.08661640015744075, -0.10860626113827128),
        (8 - 1j, 9, 9): complex(0.25612217787889435, 0.2714198342852124),
        (8 - 1j, 7, 20): complex(-0.003543362162234437, -0.0009245384924214901),
        (15 + 2j, 0, 0): complex(0.13931382058063077, -0.04738517216052255),
        (15 + 2j, 0, 5): complex(-0.013104088122215998, -0.6594208960259318),
        (15 + 2j, 3, 12): complex(-0.15920498964735932, 0.6298034442204964),
        (15 + 2j, 9, 9): complex(-0.10437253191666926, -0.7438830829897304),
        (15 + 2j, 7, 20): complex(0.021992108966232778, -0.43395251833154647),
        (3 + 5j, 0, 0): complex(-7.0574547238303795, -8.502122470704267),
        (3 + 5j, 0, 5): complex(-2.725755352489262, 1.9369479146931337),
        (3 + 5j, 3, 12): complex(0.04821743164068747, 0.0398831003622362),
        (3 + 5j, 9, 9): complex(-22.79231814379732, -10.311055394372461),
        (3 + 5j, 7, 20): complex(6.94444831051517e-05, -0.00022379478766372345),
        (3 + 10j, 0, 0): complex(-606.7154640671805, -377.52419044339564),
        (3 + 10j, 0, 5): complex(-646.3434432217318, -32.19217212619856),
        (3 + 10j, 3, 12): complex(-48.89156219201299, 45.56298103156563),
        (3 + 10j, 9, 9): complex(-2638.9388505635698, -790.7663153762843),
        (3 + 10j, 7, 20): complex(0.083044367510556, 1.6437680238487045),
        (1 - 10j, 0, 0): complex(134.22039417541782, 139.96408902204448),
        (1 - 10j, 0, 5): complex(-177.919391119328, -274.57284157690356),
        (1 - 10j, 3, 12): complex(-12.83149468703052, -47.76336907890837),
        (1 - 10j, 9, 9): complex(1586.2003590755528, 2193.988377054336),
        (1 - 10j, 7, 20): complex(0.04948250351264309, -1.0884199737354554),
    },
    (0.7, 3.1): {
        (8 - 1j, 0, 0): complex(0.5734560458095376, 0.5843149048165717),
        (8 - 1j, 0, 5): complex(0.6827788968700006, 0.16468537590504884),
        (8 - 1j, 3, 12): complex(-0.06454223691857125, -0.11587690738196084),
        (8 - 1j, 9, 9): complex(0.25331634076931725, 0.28571243812207137),
        (8 - 1j, 7, 20): complex(-0.0033509868164317913, -0.001075037467445835),
        (15 + 2j, 0, 0): complex(0.007099397566283506, 0.02628800849240906),
        (15 + 2j, 0, 5): complex(0.06229882623139644, 0.006178256377778565),
        (15 + 2j, 3, 12): complex(-0.31048705997365994, 0.4519812763859425),
        (15 + 2j, 9, 9): complex(0.11287961420409462, -0.7213562226566907),
        (15 + 2j, 7, 20): complex(0.07808798576768392, -0.41830431622797726),
        (3 + 5j, 0, 0): complex(0.08678890054329252, -0.2685698109735058),
        (3 + 5j, 0, 5): complex(-0.6965896885487932, 0.03637848099800474),
        (3 + 5j, 3, 12): complex(0.03425858280659798, 0.034287610371657826),
        (3 + 5j, 9, 9): complex(-20.149588157368648, -10.626756224218727),
        (3 + 5j, 7, 20): complex(6.843867304315556e-05, -0.00020106320551285526),
        (3 + 10j, 0, 0): complex(-3.3006410969249504, -5.909320342532996),
        (3 + 10j, 0, 5): complex(-54.79304584914498, -26.670635535098125),
        (3 + 10j, 3, 12): complex(-34.89099490486332, 25.85340323337408),
        (3 + 10j, 9, 9): complex(-2122.67167960717, -785.1423238898477),
        (3 + 10j, 7, 20): complex(0.027178386413769583, 1.4199256245085992),
        (1 - 10j, 0, 0): complex(3172.082858494361, 4319.09617885935),
        (1 - 10j, 0, 5): complex(-462.39806804666324, -930.3019595727312),
        (1 - 10j, 3, 12): complex(-12.809825316340948, -50.55588745499148),
        (1 - 10j, 9, 9): complex(1655.2181262320612, 2312.6557409264406),
        (1 - 10j, 7, 20): complex(0.05456097930628714, -1.088178951101792),
    },
}


@pytest.mark.parametrize("mu, nu", [(2.0, 1.5), (0.7, 3.1)])
def test_jacobi_complex_z_matches_a_30_digit_exponential(mu, nu):
    # the ladder ends 50 levels past these entries, where the Bessel tail of the truncation is below
    # 1e-20; frozen, since each exponential takes ~25 s.  The bound is rounding on the scale of the
    # larger of the entry and the Bessel weights, e^{|Im z|} on (-1, 1)
    ctx = build_context(jacobi_data(-1.0, 1.0, mu, nu))
    for (z, m, n), want in _JACOBI_EXPM[mu, nu].items():
        got, scale = sigma_mn(ctx, m, n, z), max(abs(want), math.exp(abs(z.imag)))
        assert got == sigma_mn(ctx, n, m, z)
        assert abs(got - want) <= 1e-15 * scale, (z, m, n)
        if m == 0:  # the scalar route: the series below (b - a)|z| = 12, the same expansion past it
            assert abs(sigma_n(ctx, n, z) - want) <= 1e-15 * scale, (z, n)


def test_real_t_jacobi_requests_build_no_rule(rule_builds):
    for pd in (jacobi_data(-1.0, 1.0, 2.0, 1.5), jacobi_data(0.96, 3.60, 0.63, 1.29)):
        ctx = build_context(pd)
        evolve(ctx, [0.6, 0.8j], 1.3)
        evolve(ctx, [0.0, 0.0, 1.0], -12.0)
        sigma_row(ctx, 4, 2.1, 60)
        sigma_mn_quad(ctx, 30, 12, 1.7)
        sigma_mn(ctx, 20, 29, -0.9)
    assert rule_builds == []


def test_real_t_jacobi_sigma_mn_matches_a_dense_exponential_at_the_far_corner():
    # (11, 76) at t = 12.13 lies 65 levels apart, past the reach of the packet:
    # the element is ~2e-33, which rules of 96 to 864 nodes scattered by 2.7e-13
    from scipy.linalg import expm

    pd = jacobi_data(0.96, 3.60, 0.63, 1.29)
    ctx = build_context(pd)
    t = 12.13
    got = sigma_mn_quad(ctx, 11, 76, t)
    assert got == sigma_mn_quad(ctx, 76, 11, t)
    N = 76 + len(propagator._bessel_row(t * 1.32, 1e-16)) + 32  # sized past the Bessel tail
    b, h = ctx.js.arrays(N - 1)
    alpha = 0.5 * sum(pd.support)
    U = expm(-1j * t * (np.diag(h - alpha) + np.diag(b[1:], 1) + np.diag(b[1:], -1)))
    assert abs(got - U[11, 76] * cmath.exp(-1j * t * alpha)) <= 1e-15


def test_chebyshev_sigma_row_is_zero_past_its_levels():
    ctx = build_context(jacobi_data(-1.0, 1.0, 2.0, 1.5))
    e = np.zeros(4)
    e[3] = 1.0
    out = evolve(ctx, e, 2.0)  # n + M + 1 levels
    row = sigma_row(ctx, 3, 2.0, out.size + 40)
    assert row.shape == (out.size + 41,) and not row[out.size :].any()
    assert np.abs(row[: out.size] - out).max() <= 1e-15
    assert np.abs(sigma_row(ctx, 3, 2.0, 5) - out[:6]).max() <= 1e-15  # the levels that reach kmax


def test_chebyshev_route_refuses_past_the_memory_max_dim_allows():
    # t = 2e4 on (-1, 1) needs at least 20,001 terms, and its vectors at least
    # 20,001 x 20,004 doubles: refused from that lower bound, before the Bessel
    # row or any vector is built
    ctx = build_context(jacobi_data(-1.0, 1.0, 2.0, 1.5))
    tracemalloc.start()
    try:
        for call in (lambda: evolve(ctx, [1.0], 2e4), lambda: sigma_row(ctx, 0, 2e4, 10),
                     lambda: sigma_mn_quad(ctx, 0, 3, 2e4)):
            with pytest.raises(ConvergenceError, match=r"needs about 3,200,\d{3},\d{3} bytes .* max_dim = 8192"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20



def test_chebyshev_rows_cache_gives_the_values_it_is_bypassed_for(monkeypatch):
    # the rows do not depend on t or on how many are kept: a request reads the
    # rows an earlier one built, or extends them, and gets the values of an
    # empty cache bit for bit
    ctxs = [build_context(jacobi_data(-1.0, 1.0, 2.0, 1.5)), build_context(jacobi_data(0.96, 3.6, 0.63, 1.29))]
    rng = np.random.default_rng(3)
    c = rng.normal(size=6) + 1j * rng.normal(size=6)
    requests = [(ctx, x, t) for ctx in ctxs for x in ([1.0], [0.0, 0.0, 1.0], c) for t in (0.3, 2.5, -1.1, 7.0, 0.9)]

    def values():
        return [evolve(ctx, x, t) for ctx, x, t in requests] + [
            np.array([sigma_mn_quad(ctx, 2, 9, t), sigma_mn_quad(ctx, 9, 2, t)]) for ctx, _, t in requests
        ] + [sigma_row(ctx, 2, t, 30) for ctx, _, t in requests]

    monkeypatch.setattr(propagator, "_CHEB", propagator._LRU(256, 0))  # keeps nothing
    bypassed = values()
    monkeypatch.setattr(propagator, "_CHEB", propagator._LRU(256, 64 * 2**20))
    for got in (values(), values()):  # cold then warm, extending rows as t grows
        for g, want in zip(got, bypassed, strict=True):
            np.testing.assert_array_equal(g, want)


# ---------------------------------------------------------------------------
# A time grid in one call


def test_a_grid_past_the_underflow_of_sigma_0_gives_each_call():
    # t = +-160 on hermite_data(): sigma_0 = e^-12800, the steps whose powers of
    # two ride on the ratios, beside a step that needs none
    ctx = build_context(hermite_data())
    ts = np.array([160.0, 3.0, 0.0, -160.0])
    for c in ([1.0], [0.0, 0.0, 0.0, 1.0]):
        grid = evolve(ctx, c, ts)
        for g, t in zip(grid, ts):
            one = evolve(ctx, c, t)
            assert np.abs(g[: one.size] - one).max() <= 1e-14 and not g[one.size :].any()
        assert abs(1.0 - np.vdot(grid[0], grid[0]).real) <= 1e-13


@pytest.mark.parametrize("pd, c, t, max_dim", [
    (hermite_data(), [1.0], 5.0, 50),
    (jacobi_data(-1.0, 1.0, 2.0, 1.5), [0.0, 1.0], 3.0, 30),
])
def test_a_grid_whose_steps_fit_one_by_one_runs(monkeypatch, pd, c, t, max_dim):
    # max_dim bounds the block of each run of steps: 100 steps that each fit run in
    # several blocks, each step as a call of its own; a step that fits no block raises
    ctx = build_context(pd)
    ts = np.linspace(t / 100, t, 100)
    duals = []
    if pd.dual is not None:
        dual = type(pd).dual
        monkeypatch.setattr(type(pd), "dual", lambda self, ts, K, n: duals.append(len(ts)) or dual(self, ts, K, n))
    grid = evolve(ctx, c, ts, max_dim=max_dim)
    for g, x in zip(grid, ts):
        one = evolve(ctx, c, x, max_dim=max_dim)
        np.testing.assert_array_equal(g[: one.size], one)
    assert pd.dual is None or (len(duals) > 2 and sum(duals[: -len(ts)]) == len(ts))
    with pytest.raises(ConvergenceError, match="max_dim = 5 allows"):
        evolve(ctx, c, ts, max_dim=5)


def test_a_step_keeps_its_levels_whatever_the_other_times_of_its_grid():
    # each time's packet law reads a window of its own |t|, so t = 5 keeps the
    # 2,042 levels it keeps alone beside t = 9, whose window is 3.3 times longer
    # and would give it one more
    ctx = build_context(laguerre_data(1.3))
    one = evolve(ctx, [0.0, 0.0, 0.0, 1.0], 5.0)
    grid = evolve(ctx, [0.0, 0.0, 0.0, 1.0], np.array([5.0, 9.0]))
    assert one.size == 2042 and grid.shape[1] > 2 * one.size
    np.testing.assert_array_equal(grid[0, : one.size], one)
    assert not grid[0, one.size :].any()


def test_grid_times_are_a_time_or_a_nonempty_vector(family_ctx):
    for t in (np.zeros((2, 2)), np.zeros(0), []):
        with pytest.raises(ValueError, match="1-d array of times"):
            evolve(family_ctx, [1.0], t)
    assert evolve(family_ctx, [0.6, 0.8], [0.0, 0.0]).tolist() == [[0.6, 0.8]] * 2
