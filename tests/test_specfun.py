"""Special-function scalars against the mpmath reference implementation."""

import math
import warnings

import mpmath as mp
import pytest

from qladder.errors import ConvergenceError, DivergenceError, Unsupported
from qladder.specfun import hyp1f1, hyp_pfq, ln_gamma, log_whittaker_w, whittaker_w

mp.mp.dps = 30


@pytest.mark.parametrize(
    "a,b,z",
    [
        (0.5, 1.5, 0.3),
        (2.0, 3.5, -4.0),
        (1.25, 2.0, 2.5j),
        (3.0, 4.5, -1.0 + 2.0j),
        (0.7, 0.9, 11.0),
    ],
)
def test_hyp1f1_matches_mpmath(a, b, z):
    got = hyp1f1(a, b, z)
    want = complex(mp.hyp1f1(a, b, z))
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_hyp1f1_rejects_denominator_pole():
    with pytest.raises(ValueError):
        hyp1f1(1.0, -2.0, 0.5)


@pytest.mark.parametrize(
    "num,den,x",
    [
        ([], [], 0.8),                 # 0F0 = exp
        ([2.5], [], 0.4),              # 1F0 = (1-x)^{-a}
        ([1.5, 2.0], [3.0], 0.35),     # 2F1 inside the disc
        ([2.0, 2.0, 2.0], [1.0, 1.0], 0.15),
        ([0.5], [1.5, 2.5], -7.0),     # 1F2, entire
    ],
)
def test_hyp_pfq_matches_mpmath(num, den, x):
    got = hyp_pfq(num, den, x)
    want = complex(mp.hyper(num, den, x))
    assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


def test_hyp_pfq_terminating_is_exact_polynomial():
    # 2F1(-3, 1.5; 2.5; x) is a cubic; compare at a point outside |x| < 1
    got = hyp_pfq([-3.0, 1.5], [2.5], 1.7)
    want = complex(mp.hyper([-3, 1.5], [2.5], 1.7))
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("a,x", [(3.5, 0.9975), (0.75, 0.999 + 0.02j), (-4.0, 2.5)])
def test_hyp_pfq_1f0_is_the_closed_power_near_and_past_the_unit_circle(a, x):
    """1F0(a;;x) = (1 - x)^(-a): at |x| -> 1 the series needs ever more terms,
    and a terminating a is a polynomial valid at any x."""
    got = hyp_pfq([a], [], x)
    want = complex(mp.hyper([a], [], x))
    assert abs(got - want) <= 1e-13 * abs(want)


def test_hyp_pfq_divergence_detection():
    with pytest.raises(DivergenceError):
        hyp_pfq([1.0, 1.0, 1.0], [2.0], 0.5)   # 3F1 diverges
    with pytest.raises(DivergenceError):
        hyp_pfq([1.0, 2.0], [3.0], 1.2)        # 2F1 outside the disc


def test_series_control_budget():
    with pytest.raises(ConvergenceError):
        hyp1f1(1.0, 2.0, 2e4)


def test_ln_gamma_rejects_nonpositive_argument():
    with pytest.raises(ValueError):
        ln_gamma(0.0)


@pytest.mark.parametrize(
    "kappa,lam,x",
    [
        (0.0, 0.25, 0.8),
        (-0.5, 1.0, 2.0),
        (0.25, 0.75, 5.0),
        (-1.5, 0.5, 0.3),
        (0.25, -0.75, 5.0),   # reflection lam -> |lam|
        (0.0, 0.5, 1e-7),     # below x = 1e-3 the Euler tail reaches t ~ 1/x
        (0.35, 0.15, 1e-12),
        (-0.4, 0.6, 1e-5),
    ],
)
def test_whittaker_w_matches_mpmath(kappa, lam, x):
    got = whittaker_w(kappa, lam, x)
    want = float(mp.whitw(kappa, lam, x))
    assert got == pytest.approx(want, rel=5e-12)


@pytest.mark.parametrize("kappa,lam,x", [(0.0, 2.5, 5e-324), (0.35, 0.15, 1e-300), (-0.4, 0.6, 1e-100)])
def test_log_whittaker_w_where_the_factors_overflow(kappa, lam, x):
    # W ~ x^{1/2-lam}: x^{lam+1/2} and U leave double range long before W does
    want = float(mp.log(mp.whitw(kappa, lam, x)))
    assert log_whittaker_w(kappa, lam, x) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("kappa,lam,x", [(0.5925, 0.1125, 3.305), (0.9899, 0.5405, 0.542)])
def test_log_whittaker_w_near_a_vanishing_euler_exponent(kappa, lam, x):
    # a = lam - kappa + 1/2 is near 0: the t^{a-1} endpoint of the Euler
    # integral must be handled without an IntegrationWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_whittaker_w(kappa, lam, x)
    assert abs(got - float(mp.log(mp.whitw(kappa, lam, x)))) < 1e-13


def test_whittaker_boundary_case_is_closed_form():
    # lambda - kappa + 1/2 = 0 collapses U to 1: W = e^{-x/2} x^{lam+1/2}
    lam, x = 0.75, 1.3
    kappa = lam + 0.5
    assert whittaker_w(kappa, lam, x) == pytest.approx(
        math.exp(-x / 2) * x ** (lam + 0.5), rel=1e-15
    )


def test_whittaker_unrepresentable_raises():
    with pytest.raises(Unsupported):
        whittaker_w(3.0, 0.5, 1.0)
