"""Normalized measures, quadrature rules and moment behavior."""

import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from qladder.measure import gauss_rule, moment, normalize, weighted_rows
from qladder.orthopoly import (
    _Jacobi,
    hermite_data,
    jacobi_data,
    laguerre_data,
    recurrence,
    scaled_sweep,
)

# closed moments of exp(-w^2)/sqrt(pi): double factorial / 2^k
_HERMITE_MOMENTS = [1.0, 0.0, 0.5, 0.0, 0.75, 0.0, 1.875]


def test_mass_is_one(family_ctx):
    assert family_ctx.sm.mass == pytest.approx(1.0, rel=1e-12)


def test_density_solves_pearson_equation(family_ctx):
    """(rho*B)' = rho*A characterizes the weight up to the constant."""
    pd = family_ctx.pd
    sm = family_ctx.sm
    lo, hi = pd.support
    lo, hi = max(lo, -2.0), min(hi, 3.0)
    h = 1e-6
    for f in (0.2, 0.5, 0.8):
        w = lo + f * (hi - lo)
        lhs = (
            sm.density(w + h) * pd.B(w + h) - sm.density(w - h) * pd.B(w - h)
        ) / (2 * h)
        rhs = sm.density(w) * pd.A(w)
        assert lhs == pytest.approx(rhs, rel=2e-8, abs=1e-10)


def test_density_vanishes_outside_support():
    sm = normalize(laguerre_data(2.5))
    assert sm.density(-0.5) == 0.0
    vals = sm.density(np.array([-1.0, 0.5, 2.0]))
    assert vals[0] == 0.0 and vals[1] > 0.0


@pytest.mark.parametrize("k,want", list(enumerate(_HERMITE_MOMENTS)))
def test_hermite_moments_closed(k, want):
    from qladder.orthopoly import hermite_data

    sm = normalize(hermite_data())
    assert moment(sm, k) == pytest.approx(want, rel=1e-9, abs=1e-10)


def test_laguerre_unit_mu_moments_are_factorials():
    sm = normalize(laguerre_data(1.0))
    for k in range(7):
        assert moment(sm, k) == pytest.approx(math.factorial(k), rel=1e-9)


def test_moment_integrates_the_weight_without_density(monkeypatch):
    from qladder.measure import SpectralMeasure

    def refuse(self, omega):
        raise AssertionError("moment must not go through the array-general density")

    monkeypatch.setattr(SpectralMeasure, "density", refuse)
    assert moment(normalize(hermite_data()), 2) == pytest.approx(0.5, rel=1e-9)
    # Beta(0.1, 0.2) on (0.5, 2), singular at both edges
    sm = normalize(jacobi_data(0.5, 2.0, 0.1, 0.2))
    beta = [math.prod((0.1 + i) / (0.3 + i) for i in range(j)) for j in range(5)]
    want = sum(math.comb(4, j) * 0.5 ** (4 - j) * 1.5**j * beta[j] for j in range(5))
    assert moment(sm, 4) == pytest.approx(want, rel=1e-7)


def test_jacobi_moments_match_closed_beta_moments():
    """Singular or asymmetric edges, against moments in exact arithmetic."""
    for a, b, mu, nu in [(0.5, 2.0, 0.1, 0.2), (-1.0, 1.0, 0.3, 2.5), (0.0, 3.0, 2.0, 1.5),
                         (-2.0, 5.0, 0.7, 0.9), (-1.0, 1.0, 2.0, 1.5), (1.0, 4.0, 0.5, 0.5)]:
        sm = normalize(jacobi_data(a, b, mu, nu))
        a, b, mu, nu = map(Fraction, (a, b, mu, nu))
        # omega = a + (b - a) Y with Y ~ Beta(mu, nu), E[Y^j] = prod (mu + i)/(mu + nu + i)
        beta = [math.prod([(mu + i) / (mu + nu + i) for i in range(j)], start=Fraction(1))
                for j in range(9)]
        for k in range(9):
            want = sum(math.comb(k, j) * a ** (k - j) * (b - a) ** j * beta[j]
                       for j in range(k + 1))
            assert moment(sm, k) == pytest.approx(float(want), rel=1e-13)


def _rising(x, j):
    return math.prod((x + i for i in range(j)), start=Fraction(1))


def _shifted_moments(loc, scale, std, kmax=10):
    """Exact moments of loc + scale*Y, given E[Y^j] = std[j]."""
    return [sum(math.comb(k, j) * loc ** (k - j) * scale**j * std[j] for j in range(k + 1))
            for k in range(kmax + 1)]


def _exact_hermite(rng, draw):
    pd = hermite_data(a1=-rng.uniform(0.5, 2.0), a0=rng.uniform(-2.0, 2.0),
                      b0=rng.uniform(0.5, 2.0))
    mean, var = -Fraction(pd.a0) / Fraction(pd.a1), -Fraction(pd.b0) / Fraction(pd.a1)
    # centered Gaussian moments: var^(j/2) (j - 1)!! at even j
    cen = [var ** (j // 2) * math.prod(range(j - 1, 0, -2)) if j % 2 == 0 else 0
           for j in range(11)]
    return pd, _shifted_moments(mean, 1, cen)


def _exact_laguerre(rng, draw):
    mu = (0.13, 0.5)[draw % 2] if draw < 60 else rng.uniform(0.05, 4.0)
    pd = laguerre_data(mu, a1=-rng.uniform(0.5, 2.0), b1=rng.uniform(0.5, 2.0),
                       b0=rng.uniform(-1.0, 1.0))
    a0, a1, b0, b1 = map(Fraction, (pd.a0, pd.a1, pd.b0, pd.b1))
    # omega = -beta + Y/gamma with Y ~ Gamma(mu), E[Y^j] = mu (mu + 1) ... (mu + j - 1)
    mu = (a0 * b1 - b0 * a1) / b1**2
    return pd, _shifted_moments(-b0 / b1, -b1 / a1, [_rising(mu, j) for j in range(11)])


def _exact_jacobi(rng, draw):
    a = rng.uniform(-3.0, 3.0)
    b, mu, nu = a + rng.uniform(0.3, 4.0), rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)
    pd = jacobi_data(a, b, mu, nu, scale=rng.uniform(0.5, 2.0))
    a, b, mu, nu = map(Fraction, (a, b, mu, nu))
    # omega = a + (b - a) Y with Y ~ Beta(mu, nu)
    return pd, _shifted_moments(a, b - a, [_rising(mu, j) / _rising(mu + nu, j) for j in range(11)])


@pytest.mark.parametrize(
    "exact", [_exact_hermite, _exact_laguerre, _exact_jacobi], ids=["hermite", "laguerre", "jacobi"]
)
def test_moments_match_exact_moments_over_family_parameters(exact):
    """120 seeded draws per family, k <= 10, against moments in exact
    arithmetic: shifted Gaussians, Laguerre mu in {0.13, 0.5} (a singular
    edge) and beyond with b0 in [-1, 1], Jacobi mu, nu < 1 on shifted
    intervals."""
    rng = random.Random(2024)
    for draw in range(120):
        pd, want = exact(rng, draw)
        sm = normalize(pd)
        for k, m in enumerate(want):
            m = float(m)
            assert abs(moment(sm, k) - m) <= 1e-13 * max(1.0, abs(m)), (pd, k)


def test_density_integrates_to_the_moments(family_ctx):
    """quad over C * w(omega), which the moment recurrence never reads: this
    checks ``weight`` and ``log_mass`` against each other.  The Jacobi weight
    is QUADPACK's algebraic-endpoint weight, divided out of the density."""
    pd, sm = family_ctx.pd, family_ctx.sm
    lo, hi = pd.support
    alg = (pd.mu - 1.0, pd.nu - 1.0) if isinstance(pd, _Jacobi) else None

    def unweighted(w, k):  # C * omega^k; QAWS also samples the edges themselves
        w = min(max(w, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        return w**k * sm.density(w) / ((w - lo) ** alg[0] * (hi - w) ** alg[1])

    for k in range(7):
        if alg:
            got = quad(unweighted, lo, hi, args=(k,), weight="alg", wvar=alg,
                       epsabs=0.0, epsrel=1e-12)[0]
        else:
            got = quad(lambda w: w**k * sm.density(w), lo, hi, epsabs=0.0, epsrel=1e-12)[0]
        assert abs(got - moment(sm, k)) <= 1e-9 * max(1.0, abs(got))


def test_jacobi_first_moment_closed():
    # mean of Beta(2, 1.5) mapped to (-1, 1): (mu-nu)/(mu+nu) = 1/7
    sm = normalize(jacobi_data(-1.0, 1.0, 2.0, 1.5))
    assert moment(sm, 1) == pytest.approx(1.0 / 7.0, rel=1e-9)


def test_gauss_rule_orthonormality(family_ctx, mp_orthonormal):
    """A 12-point rule integrates P_m P_n exactly for m, n <= 11."""
    rule = gauss_rule(family_ctx.sm, 12)
    tab = np.array([mp_orthonormal(family_ctx.pd, 11, x) for x in rule.nodes])  # (node, degree)
    gram = (tab * rule.weights[:, None]).T @ tab
    assert np.max(np.abs(gram - np.eye(12))) < 1e-9


def test_gauss_rule_log_weights_consistent(family_ctx):
    rule = gauss_rule(family_ctx.sm, 40)
    pos = rule.weights > 0
    assert np.allclose(np.log(rule.weights[pos]), rule.log_weights[pos], atol=1e-12)
    # far log-weights remain finite even where the plain weights underflow
    assert np.all(np.isfinite(rule.log_weights))


def _mp_recurrence(b, h, x):
    """P_0..P_{len(b)-1} at x by the plain recurrence at 40 digits (mpf)."""
    with mp.workdps(40):
        x = mp.mpf(float(x))
        prev, cur = mp.mpf(0), mp.mpf(1)
        out = [cur]
        for k in range(len(b) - 1):
            bk, hk, bk1 = (mp.mpf(float(v)) for v in (b[k], h[k], b[k + 1]))
            prev, cur = cur, ((x - hk) * cur - bk * prev) / bk1
            out.append(cur)
        return out


def _mp_log_christoffel_sum(b, h, x):
    """log sum_{k<N} P_k(x)^2 by the plain recurrence at 40 digits."""
    with mp.workdps(40):
        return float(mp.log(mp.fsum(p * p for p in _mp_recurrence(b, h, x))))


@pytest.mark.parametrize(
    "pd", [hermite_data(a1=-1.7, b0=1.3), laguerre_data(0.8)], ids=["hermite", "laguerre"]
)
def test_gauss_rule_log_weights_match_a_40_digit_christoffel_sum(pd):
    """At N = 400 the sweep rescales the far nodes, whose sums span hundreds
    of orders of magnitude; the scaled-frame sum must still be exact."""
    N = 400
    sm = normalize(pd)
    rule = gauss_rule(sm, N)
    b, h = recurrence(pd).arrays(N - 1)
    far = np.argsort(np.abs(rule.nodes - np.median(rule.nodes)))[-3:]
    picks = sorted(set(far) | set(np.linspace(0, N - 1, 6).astype(int)))
    want = {i: _mp_log_christoffel_sum(b, h, rule.nodes[i]) for i in picks}
    for i in picks:
        got = math.log(sm.mass) - rule.log_weights[i]
        assert abs(got - want[i]) <= 1e-14 * max(1.0, abs(want[i]))
    assert max(want[i] for i in far) > 2.0 * math.log(1e120)  # the rescale fired


@pytest.mark.parametrize(
    "pd",
    [hermite_data(a1=-1.7, b0=1.3), laguerre_data(0.8), jacobi_data(-1, 1, 1.7, 2.9)],
    ids=["hermite", "laguerre", "jacobi"],
)
def test_scaled_sweep_matches_the_scalar_table(pd, mp_orthonormal):
    """The sweep run in 40-digit arithmetic (mpf object arrays) against the
    plain 40-digit recurrence on the same ladder arrays, where rounding
    cannot hide an indexing or buffer-reuse slip; then the float sweep
    against the closed forms, its error measured against
    sqrt(sum_{j<=k} P_j^2), since relative to P_k itself it grows near the
    zeros of P_k."""
    js = recurrence(pd)
    kmax = 60
    x = np.array([-0.9, -0.3, 0.05, 0.4, 0.95]) * (1.0 if isinstance(pd, _Jacobi) else 4.0)
    b, h = js.arrays(kmax)
    with mp.workdps(40):
        exact = [np.array([mp.mpf(float(v)) for v in a], dtype=object) for a in (b, h, x)]
        rows = [u.astype(float) for _, u, _ in scaled_sweep(*exact, np.zeros_like(exact[2]))]
    want = np.array([[float(p) for p in _mp_recurrence(b, h, xi)] for xi in x]).T
    np.testing.assert_allclose(np.array(rows), want, rtol=1e-13, atol=0.0)
    s = np.zeros_like(x)
    rows = np.array([u.copy() for _, u, _ in scaled_sweep(b, h, x, s)])
    assert np.all(s == 0.0)  # no rescale at these degrees
    closed = np.array([mp_orthonormal(pd, kmax, xi) for xi in x]).T
    assert np.all(np.abs(rows - closed) <= 1e-13 * np.sqrt(np.cumsum(closed**2, axis=0)))


def _shifts(s_before, s, rescaled):
    """Whole powers of two of a rescale: log2 of the frame shift at each rescaled node."""
    e = (s[rescaled] - s_before[rescaled]) / math.log(2.0)
    assert np.all(np.abs(e - np.round(e)) <= 1e-9 * np.abs(e)) and np.all(e >= 200)
    return np.round(e).astype(int)


def test_rescaled_rows_match_the_40_digit_recurrence_at_far_nodes():
    """At the far nodes of a 1,024-node Laguerre(0.8) rule the sweep rescales
    many times; with each frame shift an exact power of two, the rows times
    2^(sum of shifts) are the recurrence itself, measured as in
    test_scaled_sweep_matches_the_scalar_table."""
    pd, N = laguerre_data(0.8), 1024
    b, h = recurrence(pd).arrays(N - 1)
    nodes = gauss_rule(normalize(pd), N).nodes
    x = nodes[[N // 2, -3, -2, -1]]
    s, E, rows, shifts = np.zeros_like(x), np.zeros(x.size, dtype=int), [], []
    before = s.copy()
    for _, u, rescaled in scaled_sweep(b, h, x, s):
        if rescaled is not None:
            E[rescaled] += _shifts(before, s, rescaled)
        before = s.copy()
        rows.append([(float(v), int(e)) for v, e in zip(u, E)])
        shifts.append(rescaled is not None)
    assert sum(shifts) >= 4 and np.all(E[1:] > 2000)
    with mp.workdps(40):
        for i, xi in enumerate(x):
            exact = _mp_recurrence(b, h, xi)
            norm2 = mp.mpf(0)
            for k, p in enumerate(exact):
                norm2 += p * p
                v, e = rows[k][i]
                assert abs(mp.ldexp(v, e) - p) <= 1e-13 * mp.sqrt(norm2), (i, k)


def test_a_2048_node_rule_stays_finite_with_whole_power_of_two_shifts():
    pd, N = laguerre_data(0.8), 2048
    sm = normalize(pd)
    rule = gauss_rule(sm, N)
    rows = weighted_rows(sm, rule.nodes, rule.log_weights, N)
    assert np.all(np.isfinite(rows)) and np.all(np.isfinite(rule.log_weights))
    b, h = recurrence(pd).arrays(N - 1)
    s = np.zeros_like(rule.nodes)
    before, events = s.copy(), 0
    for _, u, rescaled in scaled_sweep(b, h, rule.nodes, s):
        assert np.all(np.isfinite(u)) and np.abs(u).max() < 2.0**500
        if rescaled is not None:
            events += 1
            _shifts(before, s, rescaled)
            assert np.all((np.abs(u[rescaled]) >= 0.5) & (np.abs(u[rescaled]) < 1.0))
        before = s.copy()
    assert events and np.all(np.isfinite(s))


def test_gauss_rule_rejects_empty():
    with pytest.raises(ValueError):
        gauss_rule(normalize(laguerre_data(1.0)), 0)

