"""Pearson classification and recurrence coefficients.

The frozen h/b arrays below come from an independent 50-digit construction:
raw moments of the stated weight were integrated with mpmath, assembled
into a Hankel Gram matrix, and the orthonormal polynomials extracted by
Cholesky factorization.  No code from this package was involved.
"""

import dataclasses
import math
import warnings
from collections import Counter

import mpmath as mp
import numpy as np
import pytest

from qladder.orthopoly import (
    _Hermite,
    _Jacobi,
    _Laguerre,
    classify,
    derivative_apply,
    derivative_matrix,
    derivative_pearson,
    eval_poly,
    hermite_data,
    jacobi_data,
    laguerre_data,
    legendre_data,
    ode_residual,
    recurrence,
    rodrigues_constant,
    strong_field,
)
from qladder.reduction import MultiModeSystem, reduce

# weight exp(-x^2) on R
_HERMITE_B = [
    0.70710678118654752, 1.0, 1.224744871391589, 1.414213562373095,
    1.5811388300841897, 1.7320508075688773, 1.8708286933869707, 2.0,
    2.1213203435596426, 2.2360679774997897,
]
# weight x^{3/2} e^{-x} on (0, inf)
_LAGUERRE_H = [2.5 + 2.0 * n for n in range(11)]
_LAGUERRE_B = [
    1.5811388300841897, 2.6457513110645906, 3.6742346141747671,
    4.6904157598234296, 5.7008771254956899, 6.7082039324993691,
    7.7136243102707562, 8.7177978870813471, 9.7211110476117903,
    10.723805294763608,
]
# weight (x+1)(1-x)^{1/2} on (-1, 1)
_JACOBI_H = [
    0.14285714285714286, 0.038961038961038961, 0.018181818181818182,
    0.010526315789473684, 0.0068649885583524027, 0.0048309178743961353,
    0.0035842293906810036, 0.0027649769585253456, 0.0021978021978021978,
    0.0017889087656529517, 0.0014844136566056408,
]
_JACOBI_B = [
    0.46656947481584345, 0.48717391058696993, 0.49321183942808611,
    0.49579812205642689, 0.4971427950620924, 0.49793101089754646,
    0.49843259162296941, 0.49877149383131084, 0.49901120375194742,
    0.49918699043766615,
]


def test_classification_families():
    assert isinstance(hermite_data(), _Hermite)
    assert isinstance(laguerre_data(2.5), _Laguerre)
    assert isinstance(jacobi_data(-1, 1, 2, 1.5), _Jacobi)
    assert isinstance(legendre_data(), _Jacobi)


def test_classify_rejects_bad_pairs():
    with pytest.raises(ValueError, match="deg A"):
        classify(0.0, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="Hermite"):
        classify(0.0, 2.0, 1.0, 0.0, 0.0)  # growing weight
    with pytest.raises(ValueError, match="mu"):
        classify(-1.0, -1.0, 0.0, 1.0, 0.0)  # Laguerre exponent <= 0
    with pytest.raises(ValueError, match="two distinct real roots"):
        classify(0.0, -1.0, -1.0, 0.0, -1.0)  # B < 0 everywhere
    with pytest.raises(ValueError, match="b1"):
        laguerre_data(2.5, b1=0.0)  # deg B = 0: no Laguerre pair
    with pytest.raises(ValueError, match="B vanishes identically"):
        classify(0.0, -1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="a1/b1 must be negative"):
        classify(0.0, 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="a1/b1 must be negative"):
        classify(0.0, -1.0, 0.0, -1.0, 0.0)  # after the gauge flip
    with pytest.raises(ValueError, match=r"Laguerre-class: mu = .* must be positive"):
        classify(0.0, -1.0, 0.0, 1.0, 0.0)  # mu = 0
    with pytest.raises(ValueError, match=r"Jacobi-class: mu = .* must be positive"):
        classify(-1.0, -1.0, 1.0, 0.0, -1.0)  # mu = 0 on (-1, 1)
    with pytest.raises(ValueError, match=r"Jacobi-class: nu = .* must be positive"):
        classify(1.0, -1.0, 1.0, 0.0, -1.0)  # nu = 0 on (-1, 1)


@pytest.mark.parametrize(
    "pd,h_ref,b_ref",
    [
        (hermite_data(), [0.0] * 11, _HERMITE_B),
        (laguerre_data(2.5), _LAGUERRE_H, _LAGUERRE_B),
        (jacobi_data(-1.0, 1.0, 2.0, 1.5), _JACOBI_H, _JACOBI_B),
    ],
    ids=["hermite", "laguerre", "jacobi"],
)
def test_recurrence_against_gram_schmidt_oracle(pd, h_ref, b_ref):
    js = recurrence(pd)
    for n in range(11):
        assert js.h(n) == pytest.approx(h_ref[n], abs=1e-8)
    for n in range(1, 11):
        assert js.b(n) == pytest.approx(b_ref[n - 1], abs=1e-8)
    assert js.b(0) == 0.0


def test_legendre_closed_couplings():
    js = recurrence(legendre_data())
    for n in range(1, 13):
        assert js.b(n) == pytest.approx(n / math.sqrt(4 * n * n - 1), abs=1e-12)
        assert js.h(n) == pytest.approx(0.0, abs=1e-12)


def _inner_points(pd):
    lo, hi = pd.support
    lo = max(lo, -2.0)
    hi = min(hi, 3.0)
    return [lo + f * (hi - lo) for f in (0.15, 0.5, 0.85)]


@pytest.mark.parametrize("n", range(9))
def test_ode_residual(family_ctx, n):
    for omega in _inner_points(family_ctx.pd):
        assert ode_residual(family_ctx.pd, n, omega) < 1e-9


def test_recurrence_pointwise(family_ctx, mp_orthonormal):
    """omega P_n = b(n+1)P_{n+1} + h(n)P_n + b(n)P_{n-1} at sample points,
    with P_n from the closed classical forms."""
    js = family_ctx.js
    for omega in (-0.6, 0.2, 0.8):
        tab = mp_orthonormal(family_ctx.pd, 9, omega)
        for n in range(8):
            lhs = omega * tab[n]
            rhs = js.b(n + 1) * tab[n + 1] + js.h(n) * tab[n]
            if n:
                rhs += js.b(n) * tab[n - 1]
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_eval_poly_matches_table(family_ctx, mp_orthonormal):
    """(P_6, P_6', P_6'') against the closed classical forms."""
    p, dp, ddp = eval_poly(family_ctx.js, 6, 0.37)
    want = [mp_orthonormal(family_ctx.pd, 6, 0.37, d)[6] for d in range(3)]
    assert p == pytest.approx(want[0], rel=1e-13)
    assert dp == pytest.approx(want[1], rel=1e-13)
    assert ddp == pytest.approx(want[2], rel=1e-13)


def _weight_fn(pd):
    if isinstance(pd, _Hermite):
        return lambda x: mp.exp((pd.a1 * x**2 / 2 + pd.a0 * x) / pd.b0)
    if isinstance(pd, _Laguerre):
        gamma = -pd.a1 / pd.b1
        beta = pd.b0 / pd.b1
        return lambda x: (x + beta) ** (pd.mu - 1) * mp.exp(-gamma * x)
    a, b = pd.support
    return lambda x: (x - a) ** (pd.mu - 1) * (b - x) ** (pd.nu - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rodrigues_formula_numerically(family_ctx, n):
    """(-1)^n c_n rho^{-1} d^n(rho B^n) reproduces the recurrence polynomial."""
    pd = family_ctx.pd
    C = family_ctx.sm.C
    rho = _weight_fn(pd)
    B = lambda x: pd.b2 * x**2 + pd.b1 * x + pd.b0
    c_n = rodrigues_constant(pd, n, C)
    mp.mp.dps = 30
    lo, hi = pd.support
    for omega in (0.15, 0.45):
        x = mp.mpf(omega)
        if not (lo < omega < hi):
            continue
        der = mp.diff(lambda t: rho(t) * B(t) ** n, x, n)
        rod = (-1) ** n * c_n * float(der / rho(x))
        rec = eval_poly(family_ctx.js, n, omega)[0]
        assert rod == pytest.approx(rec, abs=1e-5 * max(1.0, abs(rec)))


def test_derivative_pearson_shifts_exponents():
    pd = jacobi_data(-1.0, 1.0, 2.0, 1.5)
    dpd = derivative_pearson(pd, 1)
    assert dpd.mu == pytest.approx(3.0)
    assert dpd.nu == pytest.approx(2.5)
    lpd = derivative_pearson(laguerre_data(2.5), 2)
    assert lpd.mu == pytest.approx(4.5)


def test_strong_field_members():
    assert strong_field(hermite_data(a0=1.0)).a0 == 0.0
    sf = strong_field(laguerre_data(2.5))
    assert sf.mu == pytest.approx(1.0)
    sfj = strong_field(jacobi_data(-0.3, 1.7, 2.0, 3.0))
    assert sfj.mu == pytest.approx(1.5)
    assert sfj.nu == pytest.approx(1.5)
    js = recurrence(sfj)
    # flat band: h = midpoint, b = quarter width
    for n in range(1, 8):
        assert js.h(n) == pytest.approx((1.7 - 0.3) / 2, abs=1e-13)
        assert js.b(n) == pytest.approx((1.7 + 0.3) / 4, abs=1e-13)


_LADDERS = {
    "hermite": lambda: recurrence(hermite_data()),
    "laguerre": lambda: recurrence(laguerre_data(2.5)),
    "jacobi": lambda: recurrence(jacobi_data(-1.0, 1.0, 2.0, 1.5)),
    # removable points: mu + nu = 1 at n = 1, mu + nu = 2 and 3 at n = 0
    "jacobi_s1": lambda: recurrence(jacobi_data(-1.0, 1.0, 0.5, 0.5)),
    "jacobi_s2": lambda: recurrence(jacobi_data(-1.0, 1.0, 0.7, 1.3)),
    "jacobi_s3": lambda: recurrence(jacobi_data(-1.0, 1.0, 1.5, 1.5)),
    "amplifier": lambda: reduce(MultiModeSystem(omega=(1.3, 0.7), l=(1, 1), g=-1j), (2, 0))[0],
    "up_converter": lambda: reduce(MultiModeSystem(omega=(2.0, 1.0), l=(-1, 1), g=1.0), (4, 1))[0],
}


@pytest.mark.parametrize("name", sorted(_LADDERS))
def test_ladder_arrays_are_the_scalar_coefficients(name):
    js = _LADDERS[name]()
    n = 200 if js.dim == math.inf else int(js.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b, h = js.arrays(n)
        np.testing.assert_array_equal(b, [js.b(k) for k in range(n + 1)])
        np.testing.assert_array_equal(h, [js.h(k) for k in range(n + 1)])
    assert b[0] == 0.0 and np.all(b[1:n] > 0.0)


@pytest.mark.parametrize("name", ["hermite", "laguerre", "jacobi"])
def test_ladder_arrays_call_each_coefficient_function_once(name):
    calls = Counter()

    def counted(f, key):
        def wrapper(n):
            calls[key] += 1
            return f(n)

        return wrapper

    js = _LADDERS[name]()
    js = dataclasses.replace(js, b=counted(js.b, "b"), h=counted(js.h, "h"))
    b, h = js.arrays(200)
    assert b.shape == h.shape == (201,)
    assert calls == {"b": 1, "h": 1}


@pytest.mark.parametrize("name", ["jacobi", "jacobi_s1", "jacobi_s2"])
def test_short_ladders_are_copied_from_the_kept_prefix(name):
    # derivative_matrix asks a context's ladder for a few levels per call
    calls = Counter()
    base = _LADDERS[name]()

    def counted(f, key):
        def wrapper(n):
            calls[key] += 1
            return f(n)

        return wrapper

    js = dataclasses.replace(base, b=counted(base.b, "b"), h=counted(base.h, "h"))
    b, h = js.arrays(2000)
    np.testing.assert_array_max_ulp(b, [base.b(k) for k in range(2001)], maxulp=2)
    np.testing.assert_array_max_ulp(h, [base.h(k) for k in range(2001)], maxulp=2)
    b[:] = h[:] = np.nan  # each caller owns its arrays
    b3, h3 = js.arrays(3)
    assert calls == {"b": 1, "h": 1}
    np.testing.assert_array_equal(b3, [base.b(k) for k in range(4)])
    np.testing.assert_array_equal(h3, [base.h(k) for k in range(4)])
    pd = base.b.__self__
    s = pd.mu + pd.nu
    if name == "jacobi_s2":  # mu + nu = 2: h(0) is the mean of the weight
        assert h3[0] == pytest.approx(-1.0 + 2.0 * pd.mu / s, rel=1e-15)
    if name == "jacobi_s1":  # mu + nu = 1: b(1) is the limit of the cancelled pair
        assert b3[1] == pytest.approx(2.0 * math.sqrt(pd.mu * pd.nu / (s * s * (s + 1.0))), rel=1e-15)


def _mp_jacobi_ladder(mu, nu, N):
    """b(0..N-1), h(0..N-1) of the Jacobi pair on (-1, 1) from the closed formulas at 40 digits."""
    mu, nu = mp.mpf(mu), mp.mpf(nu)
    s = mu + nu
    b = [mp.mpf(0)] + [2 * mp.sqrt(n * (mu + n - 1) * (nu + n - 1) * (s + n - 2)
                                    / ((s + 2 * n - 2) ** 2 * (s + 2 * n - 1) * (s + 2 * n - 3)))
                       for n in range(1, N)]
    h = [(mu - nu) / s] + [(mu - nu) * (s - 2) / ((s + 2 * n - 2) * (s + 2 * n)) for n in range(1, N)]
    return b, h


def _mp_derivative_apply(b, h, c):
    """D c, D from the coefficient-space derivative of the recurrence, column by column."""
    N = len(c)
    out = [mp.mpc(0)] * N
    prev, cur = [mp.mpf(0)] * N, [1 / b[1]] + [mp.mpf(0)] * (N - 1)
    for n in range(1, N):
        for k in range(n):
            out[k] += cur[k] * c[n]
        if n + 1 < N:
            nxt = [((h[k] - h[n]) * cur[k] + (b[k + 1] * cur[k + 1] if k + 1 < N else 0)
                    + (b[k] * cur[k - 1] if k else 0) - b[n] * prev[k]) / b[n + 1] for k in range(N)]
            nxt[n] += 1 / b[n + 1]
            prev, cur = cur, nxt
    return out


@pytest.mark.parametrize("mu,nu", [(0.7, 3.5), (1.3, 1.1)])
def test_derivative_apply_and_matrix_differentiate_the_exact_ladder(mu, nu):
    # both float routes against the derivative of the exact ladder, not of its rounding
    N = 240
    c = np.random.default_rng(0).standard_normal(N) + 1j * np.random.default_rng(1).standard_normal(N)
    with mp.workdps(40):
        want = np.array([complex(v) for v in _mp_derivative_apply(*_mp_jacobi_ladder(mu, nu, N), list(map(mp.mpc, c)))])
    js = recurrence(jacobi_data(-1.0, 1.0, mu, nu))
    scale = np.max(np.abs(want))
    assert np.max(np.abs(derivative_apply(js, c) - want)) <= 1e-12 * scale
    assert np.max(np.abs(derivative_matrix(js, N) @ c - want)) <= 1e-12 * scale


def test_derivative_apply_needs_a_pearson_weight():
    sector = _LADDERS["amplifier"]()
    with pytest.raises(ValueError, match="Pearson weight"):
        derivative_apply(sector, np.ones(4))
