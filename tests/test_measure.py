"""Normalized measures, quadrature rules and moment behavior."""

import math

import mpmath as mp
import numpy as np
import pytest

from qladder.measure import gauss_rule, moment, normalize
from qladder.orthopoly import (
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
    # Beta(0.1, 0.2) on (0.5, 2): quad rounds a node onto the singular edge 2
    sm = normalize(jacobi_data(0.5, 2.0, 0.1, 0.2))
    beta = [math.prod((0.1 + i) / (0.3 + i) for i in range(j)) for j in range(5)]
    want = sum(math.comb(4, j) * 0.5 ** (4 - j) * 1.5**j * beta[j] for j in range(5))
    assert moment(sm, 4) == pytest.approx(want, rel=1e-7)  # quad: ~1e-8 at singular edges


def test_jacobi_moments_match_closed_beta_moments():
    """Singular or asymmetric edges, against moments in exact arithmetic."""
    from fractions import Fraction

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
    x = np.array([-0.9, -0.3, 0.05, 0.4, 0.95]) * (1.0 if pd.family == "jacobi" else 4.0)
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


def test_gauss_rule_rejects_empty():
    with pytest.raises(ValueError):
        gauss_rule(normalize(laguerre_data(1.0)), 0)

