"""Special-function scalars against the mpmath reference implementation."""

import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import qladder
from qladder.errors import ConvergenceError, Unsupported
from qladder.specfun import hyp1f1, hyp1f1_row, ln_gamma, log_whittaker_w

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


def test_series_control_budget():
    with pytest.raises(ConvergenceError):
        hyp1f1(1.0, 2.0, 2e4)


@pytest.mark.parametrize("mu,nu,total,w", [(0.6, 4.0, 18, 6.1j), (2.0, 1.5, 9, -0.4 - 3.0j), (3.9, 0.61, 0, 12j)])
def test_hyp1f1_row_matches_mpmath_in_every_row(mu, nu, total, w):
    # the Kummer row of the Jacobi shifted transforms: a_j = mu + j, b = mu + nu + total; at
    # |w| = 12 the terms outgrow the sum by ~1e4, so the row, like hyp1f1, keeps ~12 digits
    a = mu + np.arange(total + 1)
    got = hyp1f1_row(a, mu + nu + total, w)
    want = [complex(mp.hyp1f1(x, mu + nu + total, w)) for x in a]
    assert np.all(np.abs(got - want) <= 1e-11 * np.maximum(1.0, np.abs(want)))


def test_hyp1f1_row_series_control_budget():
    with pytest.raises(ConvergenceError):
        hyp1f1_row(np.array([1.0, 2.0]), 3.0, 2e4)


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
        (0.0, 0.5, 1e-7),     # the Euler integrand's e^{-xt} cutoff sits at t ~ 1/x
        (0.35, 0.15, 1e-12),
        (-0.4, 0.6, 1e-5),
    ],
)
def test_whittaker_w_matches_mpmath(kappa, lam, x):
    got = math.exp(log_whittaker_w(kappa, lam, x))
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
    assert math.exp(log_whittaker_w(kappa, lam, x)) == pytest.approx(
        math.exp(-x / 2) * x ** (lam + 0.5), rel=1e-15
    )


def test_whittaker_unrepresentable_raises():
    with pytest.raises(Unsupported):
        log_whittaker_w(3.0, 0.5, 1.0)


def _log_w_error(kappa, lam, x):
    # error of log W against 30-digit mpmath, in units of max(1, |log W|);
    # any RuntimeWarning (an overflowing exp) fails the case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_whittaker_w(kappa, lam, x)
    want = float(mp.log(mp.whitw(kappa, lam, x)))
    return abs(got - want) / max(1.0, abs(want))


def _jacobi_box(count, seed=11):
    # (kappa, lam, x) as Jacobi reproducing_density forms them on [-1, 1]:
    # mu, nu in [1, 4] with mu + nu > 3, heights y in [-1, 1]
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        mu, nu, y = rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0), rng.uniform(-1.0, 1.0)
        if mu + nu <= 3.0 or y == 0.0:
            continue
        edge, other = (nu, mu) if y > 0.0 else (mu, nu)
        cases.append((0.5 * (edge - other), 0.5 * ((edge - 3.0) + other), 4.0 * abs(y)))
    return cases


def _broad_box(count, seed=12):
    # a = lam - kappa + 1/2 log-uniform in [1e-15, 6], lam in [0, 4],
    # x log-uniform in [5e-324, 1e3]
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        a = 10.0 ** rng.uniform(-15.0, math.log10(6.0))
        lam = rng.uniform(0.0, 4.0)
        x = max(5e-324, 10.0 ** rng.uniform(-323.5, 3.0))
        cases.append((lam + 0.5 - a, lam, x))
    return cases


@pytest.mark.parametrize("kappa,lam,x", _jacobi_box(40))
def test_log_whittaker_w_on_the_jacobi_reproducing_box(kappa, lam, x):
    assert _log_w_error(kappa, lam, x) <= 1e-13


@pytest.mark.parametrize("kappa,lam,x", _broad_box(40))
def test_log_whittaker_w_on_a_broad_box(kappa, lam, x):
    assert _log_w_error(kappa, lam, x) <= 1e-13


@pytest.mark.parametrize(
    "a,lam,x",
    [
        (1e-9, 0.3, 1.0),      # t^a reaches e^-60 only at t ~ e^-6e10: the grid's left end
        (1e-9, 1.7, 1e-7),
        (1e-15, 0.3, 2.5),
        (1e-15, 2.0, 5e-324),
        (0.7, 0.5, 1e-7),      # the e^{-xt} cutoff at t ~ 1/x, far out on the nodes
        (2.3, 1.2, 5e-324),
        (2.5, 0.5, 300.0),     # a coarser step than 1/16 loses digits near x = 300
        (0.9, 1.4, 297.3),
        (30.0, 5.0, 300.0),    # narrow peaks: the step is halved until the sum settles
        (50.0, 10.0, 1e3),
    ],
)
def test_log_whittaker_w_at_the_ends_of_the_node_window(a, lam, x):
    assert _log_w_error(lam + 0.5 - a, lam, x) <= 1e-13


def test_log_whittaker_w_names_a_trapezoid_that_does_not_settle():
    # at x = 1e300 the peak near t = 1/x is narrower than the node spacing
    # there even at step 1/512
    with pytest.raises(ConvergenceError, match="trapezoid"):
        log_whittaker_w(0.0, 0.0, 1e300)


def test_the_library_never_imports_scipy_integrate():
    code = (
        "import sys\n"
        "import qladder\n"
        "from qladder.orthopoly import jacobi_data\n"
        "from qladder.propagator import build_context\n"
        "pd = jacobi_data(-1.0, 1.0, 2.5, 1.8)\n"
        "assert pd.reproducing_density(build_context(pd), 0.3) > 0.0\n"
        "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate imported'\n"
    )
    src = str(Path(qladder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
