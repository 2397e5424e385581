"""Coherent families: kernels, completeness measure, energy diagnostics."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from qladder import coherent, orthopoly
from qladder.coherent import (
    coherent_coeffs,
    holomorphic_transform,
    kernel,
    mean_energy,
    omega_density,
    reproducing_density,
    squared_norm,
    strip_for,
)
from qladder.errors import ConvergenceError, StripError, Unsupported
from qladder.measure import normalize
from qladder.observables import Number, derivative_matrix, ladder_amplitudes
from qladder.orthopoly import (
    _Hermite,
    _Laguerre,
    hermite_data,
    jacobi_data,
    laguerre_data,
    legendre_data,
)
from qladder.propagator import build_context, char_fn, evolve, sigma_n

HERMITE_CTX = build_context(hermite_data())


def _label(ctx):
    # inside every family's strip (Laguerre canonical edge is 1/2)
    return 0.3 + 0.2j


def test_strip_shapes():
    assert strip_for(hermite_data()).upper == math.inf
    assert strip_for(jacobi_data(-1, 1, 2, 1.5)).upper == math.inf
    assert strip_for(laguerre_data(2.5)).upper == pytest.approx(0.5)


def test_kernel_equals_coefficient_inner_product(family_ctx):
    z = _label(family_ctx)
    v = -0.4 + 0.1j
    cz = coherent_coeffs(family_ctx, z, tol=1e-13)
    cv = coherent_coeffs(family_ctx, v, tol=1e-13)
    n = min(cz.size, cv.size)
    acc = np.vdot(cz[:n], cv[:n])
    assert kernel(family_ctx, z, v) == pytest.approx(acc, abs=1e-9)
    assert squared_norm(family_ctx, z) == pytest.approx(
        kernel(family_ctx, z, z).real, rel=1e-12
    )


def test_kernel_positive_definite(family_ctx):
    rng = np.random.default_rng(5)
    pts = [complex(x, y) for x, y in zip(
        rng.uniform(-1.5, 1.5, 4), rng.uniform(-0.8, 0.45, 4))]
    gram = np.array([[kernel(family_ctx, a, b) for b in pts] for a in pts])
    evals = np.linalg.eigvalsh(gram)
    assert evals.min() > -1e-10 * evals.max()


def test_labels_outside_strip_rejected():
    ctx = build_context(laguerre_data(2.5))
    with pytest.raises(StripError):
        squared_norm(ctx, 0.3 + 0.6j)
    with pytest.raises(StripError):
        kernel(ctx, 0.0, 0.1 + 0.55j)
    with pytest.raises(StripError):
        coherent_coeffs(ctx, 1.2j)


def test_coeffs_near_strip_edge_refuse_silent_truncation():
    ctx = build_context(laguerre_data(2.5))
    with pytest.raises(ConvergenceError, match="strip edge"):
        coherent_coeffs(ctx, 0.3 + 0.49999j, tol=1e-13, nmax=200)


def test_coeffs_budget_error_blames_the_edge_only_near_it():
    with pytest.raises(ConvergenceError, match=r"deficit of \d\.\d{3}e[-+]\d+ of") as err:
        coherent_coeffs(HERMITE_CTX, 2.0 + 0.3j, nmax=3)
    assert "strip edge" not in str(err.value)


def test_coeffs_stop_when_the_tail_drops_below_rounding():
    # the sum and the closed <z|z> differ by ~2e-15, so a 1e-15 tail can
    # only be certified by the coefficients ceasing to change the sum
    ctx = build_context(laguerre_data(2.5))
    z = 0.45 + 0.2j
    c = coherent_coeffs(ctx, z, tol=1e-15)
    norm2 = squared_norm(ctx, z)
    assert c.size < 100
    assert abs(float(np.vdot(c, c).real) - norm2) <= 1e-14 * norm2


def _worst_relative_error(ctx, c, z, mp_sigma_n, samples=40):
    levels = np.unique(np.linspace(0, c.size - 1, samples).astype(int))
    worst = 0.0
    for n in levels:
        want = mp_sigma_n(ctx.pd, ctx.sm.C, int(n), z)
        if abs(want) > 1e-250:
            worst = max(worst, abs(c[n] - want) / abs(want))
    return worst


@pytest.mark.parametrize("z", [2.0 + 0.475j, -1.5 + 0.48j, -2.0 + 0.485j])
def test_coeffs_match_the_40_digit_closed_form_near_the_strip_edge(z, mp_sigma_n):
    # thousands of levels: a ratio rounded once would drift by n ulps
    ctx = build_context(laguerre_data(1.7))
    c = coherent_coeffs(ctx, z)
    assert c.size > 1500
    assert _worst_relative_error(ctx, c, z, mp_sigma_n) < 2e-14


def test_vacuum_amplitudes_match_the_40_digit_closed_form(mp_sigma_n):
    ctx = build_context(laguerre_data(2.5))
    g = ladder_amplitudes(ctx, Number(0), 10.0)
    assert g.size > 3000
    assert _worst_relative_error(ctx, g, 10.0, mp_sigma_n) < 2e-14


@pytest.mark.parametrize(
    "pd, z",
    [(hermite_data(-1.0, 0.0, 1.0), 38.0), (hermite_data(-1.0, 0.0, 1.0), 45.0),
     (laguerre_data(2.5), 1.0 + 0.48j)],
    ids=["hermite-38", "hermite-45", "laguerre-edge"],
)
def test_coeffs_at_large_labels_and_near_the_strip_edge(pd, z, mp_sigma_n):
    # Hermite: |sigma_0(38)| = e^-722 is subnormal and |sigma_0(45)| =
    # e^-1012.5 is 0 in double, while the peak coefficients are of order 0.1;
    # Laguerre: 4% below the edge |sigma_n|^2 decays only by q = 0.969 per level
    ctx = build_context(pd)
    tol = 1e-12
    c = coherent_coeffs(ctx, z, tol=tol)
    norm2 = squared_norm(ctx, z)
    assert (1.0 - tol) * norm2 <= float(np.vdot(c, c).real) <= (1.0 + 1e-10) * norm2
    assert _worst_relative_error(ctx, c, z, mp_sigma_n) < 2e-14


def test_scalar_sigma_n_at_the_peak_level_of_a_large_hermite_label(mp_sigma_n):
    # char(38) = e^-722 is subnormal while sigma_1444(38) ~ 0.1: the scalar
    # route must add log char to the exponent, not multiply by char(z) after
    # an exp that overflows; its rounding is that of a log sum of size ~5e3
    ctx = build_context(hermite_data(-1.0, 0.0, 1.0))
    got = sigma_n(ctx, 1444, 38.0)
    want = mp_sigma_n(ctx.pd, ctx.sm.C, 1444, 38.0)
    assert abs(got - want) <= 1e-12 * abs(want)
    c = coherent_coeffs(ctx, 38.0)
    assert abs(got - c[1444]) <= 1e-12 * abs(c[1444])


@pytest.mark.parametrize(
    "pd, z",
    [(hermite_data(-1.0, 0.0, 1.0), 45.0), (laguerre_data(2.5), 3.0 + 0.2j),
     (jacobi_data(-1.0, 1.0, 2.0, 1.5), 0.8 + 0.2j)],
    ids=["hermite", "laguerre", "jacobi"],
)
def test_coeffs_call_the_scalar_coefficient_once_where_a_ratio_is_closed(monkeypatch, pd, z):
    calls = {"sigma_n": 0, "family": 0, "rodrigues": 0}

    def counted(f, key):
        def wrapper(*args):
            calls[key] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(coherent, "sigma_n", counted(sigma_n, "sigma_n"))
    monkeypatch.setattr(type(pd), "sigma_n", counted(type(pd).sigma_n, "family"))
    monkeypatch.setattr(
        orthopoly, "rodrigues_log_norm", counted(orthopoly.rodrigues_log_norm, "rodrigues")
    )
    c = coherent_coeffs(build_context(pd), z)
    if pd.dual is None:  # Jacobi: every level from one Chebyshev expansion
        assert calls["sigma_n"] <= 1 and calls["family"] <= 1
    else:
        assert c.size > 40 and calls["sigma_n"] == 1 and calls["family"] == 1 and calls["rodrigues"] <= 2


@pytest.mark.parametrize("mu, nu", [(2.0, 1.5), (0.7, 3.1), (3.6, 0.8), (4.0, 4.0)])
def test_jacobi_coeffs_are_the_scalar_coefficients(mu, nu):
    # one Chebyshev expansion of e^{-izJ} e_0 against the Rodrigues series of sigma_n, level by
    # level, at labels where the series applies ((b - a)|z| <= 12)
    ctx = build_context(jacobi_data(-1.0, 1.0, mu, nu))
    for z in (0.8 + 0.2j, -1.5 + 0.3j, 2.5 - 0.3j, 4.0 + 3.0j, 0.05j):
        c = coherent_coeffs(ctx, z, tol=1e-15)
        want = np.array([sigma_n(ctx, n, z) for n in range(c.size)])
        assert np.abs(c - want).max() <= 1e-14 * np.linalg.norm(want), z


def test_evolution_shifts_the_label(family_ctx):
    z, t = _label(family_ctx), 0.8
    base = coherent_coeffs(family_ctx, z, tol=1e-13)
    K = base.size + 60  # pad so the discarded tail is far below 1e-8
    c = np.array([sigma_n(family_ctx, n, z) for n in range(K)])
    moved = evolve(family_ctx, c, t, tail=1e-13)
    target = np.array(
        [sigma_n(family_ctx, n, z + t) for n in range(moved.size)]
    )
    assert np.max(np.abs(moved - target)) < 1e-8


def test_transform_translates_under_evolution(family_ctx):
    rng = np.random.default_rng(3)
    c = rng.normal(size=8) + 1j * rng.normal(size=8)
    c /= np.linalg.norm(c)
    t, z = 0.6, 0.2 + 0.15j
    moved = evolve(family_ctx, c, t, tail=1e-13)
    lhs = holomorphic_transform(family_ctx, moved, z)
    rhs = holomorphic_transform(family_ctx, c, z - t)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_transform_callable_route_matches_coefficients():
    # psi = ground state: frequency wavefunction identically 1
    ctx = HERMITE_CTX
    z = 0.4 - 0.3j
    via_quad = holomorphic_transform(ctx, lambda w: np.ones_like(w), z)
    via_coeffs = holomorphic_transform(ctx, [1.0], z)
    assert via_quad == pytest.approx(via_coeffs, rel=1e-10)


def test_spectral_annihilation(family_ctx):
    """i d/domega acts on |z> as multiplication by z."""
    z = _label(family_ctx)
    base = coherent_coeffs(family_ctx, z, tol=1e-14)
    # pad well past the norm cutoff so the first rows of the (strictly
    # upper-triangular) derivative matrix see the whole tail
    K = base.size + 80
    c = np.array([sigma_n(family_ctx, n, z) for n in range(K)])
    D = derivative_matrix(family_ctx.js, K)
    image = 1j * (D @ c)
    for n in range(11):
        assert image[n] == pytest.approx(z * c[n], abs=1e-9)


@pytest.mark.parametrize(
    "pd",
    [
        hermite_data(),
        laguerre_data(2.0),
        jacobi_data(-1.0, 1.0, 2.0, 1.5),
        jacobi_data(-1.0, 1.0, 2.0, 2.0),  # symmetric (Macdonald profile)
    ],
    ids=["hermite", "laguerre-mu2", "jacobi", "gegenbauer"],
)
def test_completeness_identity(pd):
    """int mu(y) exp(2 y omega) dy = 1/density(omega) on the support."""
    ctx = build_context(pd)
    lo, hi = pd.support
    lo = max(lo, -1.5)
    hi = min(hi, lo + 4.0)
    if isinstance(pd, _Laguerre):
        y0, y1 = -math.inf, 0.5 * (-pd.a1 / pd.b1)
    elif isinstance(pd, _Hermite):
        y0, y1 = -40.0, 40.0  # Gaussian density: truncation ~ e^{-1600}
    else:
        y0, y1 = -25.0, 25.0  # Whittaker decay e^{-2(b-a)|y|} and safe args
    for f in (0.25, 0.55, 0.8):
        w = lo + f * (hi - lo)
        val, _ = quad(
            lambda y: reproducing_density(ctx, y) * math.exp(2.0 * y * w),
            y0,
            y1,
            epsabs=1e-12,
            epsrel=1e-10,
            limit=300,
        )
        want = 1.0 / ctx.sm.density(w)
        assert val == pytest.approx(want, rel=1e-6)


def test_density_unsupported_cases():
    with pytest.raises(Unsupported):
        reproducing_density(build_context(laguerre_data(1.0)), 0.0)
    with pytest.raises(Unsupported):
        reproducing_density(build_context(legendre_data()), 0.0)  # mu = nu = 1


def test_gegenbauer_density_profile():
    """For mu = nu the Whittaker profile collapses to a Macdonald function."""
    import mpmath as mp

    pd = jacobi_data(-1.0, 1.0, 2.0, 2.0)
    ctx = build_context(pd)
    C = ctx.sm.C
    for y in (0.2, -0.2, 1.0, -1.0):
        got = reproducing_density(ctx, y)
        assert got == pytest.approx(reproducing_density(ctx, -y), rel=1e-12)
        # W_{0, 1/2}(2x) = sqrt(2x/pi) K_{1/2}(x), b - a = 2
        x = 4.0 * abs(y)
        whit = math.sqrt(x / math.pi) * float(mp.besselk(0.5, x / 2.0))
        want = (2.0 / C) * (2.0 * abs(y)) ** 0.0 * whit / (2.0 ** 1.0)
        assert got == pytest.approx(want, rel=1e-8)


def test_jacobi_density_is_continuous_down_to_tiny_heights():
    # at mu = nu = 2 both one-sided profiles approach the y = 0 value like |y|
    ctx = build_context(jacobi_data(-1.0, 1.0, 2.0, 2.0))
    mid = reproducing_density(ctx, 0.0)
    for y in (1e-7, -1e-9, 2.2e-16, -5e-324):
        assert reproducing_density(ctx, y) == pytest.approx(mid, rel=5.0 * abs(y) + 1e-12)


def test_jacobi_density_branches_meet_at_zero():
    """The one-sided profiles approach the closed y = 0 value at the rates
    y^(mu-1) from below and y^(nu-1) from above (here y and sqrt(y))."""
    ctx = build_context(jacobi_data(-1.0, 1.0, 2.0, 1.5))
    mid = reproducing_density(ctx, 0.0)
    assert mid > 0.0
    prev_up = prev_dn = math.inf
    for y in (1e-2, 1e-3, 1e-4):
        up = abs(reproducing_density(ctx, y) - mid) / mid
        dn = abs(reproducing_density(ctx, -y) - mid) / mid
        assert up < prev_up and dn < prev_dn
        assert up < 5.0 * math.sqrt(y)
        assert dn < 5.0 * y
        prev_up, prev_dn = up, dn


def test_mean_energy_is_log_derivative(family_ctx):
    h = 1e-6
    for y in (-0.4, 0.0, 0.2):
        fd = (
            math.log(char_fn(family_ctx, 2j * (y + h)).real)
            - math.log(char_fn(family_ctx, 2j * (y - h)).real)
        ) / (4.0 * h)
        assert mean_energy(family_ctx, y) == pytest.approx(fd, abs=1e-6)


def test_mean_energy_closed_values():
    assert mean_energy(HERMITE_CTX, 0.7) == pytest.approx(0.7, rel=1e-12)
    lctx = build_context(laguerre_data(2.5))
    assert mean_energy(lctx, 0.3) == pytest.approx(2.5 / (1.0 - 0.6), rel=1e-12)
    with pytest.raises(StripError):
        mean_energy(lctx, 0.5)


def test_mean_energy_matches_tridiagonal_series(family_ctx):
    z = _label(family_ctx)
    c = coherent_coeffs(family_ctx, z, tol=1e-14)
    c = c / np.linalg.norm(c)
    js = family_ctx.js
    n = c.size
    acc = sum(js.h(k) * abs(c[k]) ** 2 for k in range(n))
    acc += 2.0 * sum(
        (c[k].conjugate() * c[k + 1]).real * js.b(k + 1) for k in range(n - 1)
    )
    assert mean_energy(family_ctx, z.imag) == pytest.approx(acc, abs=1e-8)


def test_omega_density_is_negative_curvature(family_ctx):
    h = 1e-4
    for y in (-0.3, 0.1):
        logs = [
            math.log(char_fn(family_ctx, 2j * (y + k * h)).real)
            for k in (-1, 0, 1)
        ]
        fd = -(logs[0] - 2.0 * logs[1] + logs[2]) / (2.0 * h) ** 2 * 2.0
        got = omega_density(family_ctx, y)
        assert got < 0.0
        assert got == pytest.approx(fd, abs=1e-5)


def test_two_dimensional_reproducing_and_orthonormality():
    """Planar integrals against mu resolve the identity (canonical pair)."""
    ctx = HERMITE_CTX
    nx, ny = 180, 90
    gx, wx = np.polynomial.legendre.leggauss(nx)
    gy, wy = np.polynomial.legendre.leggauss(ny)
    xs, xw = 9.0 * gx, 9.0 * wx
    ys, yw = 7.0 * gy, 7.0 * wy
    mu = np.array([reproducing_density(ctx, y) for y in ys])
    sig = np.empty((4, ny, nx), dtype=complex)
    for n in range(4):
        for j, y in enumerate(ys):
            for i, x in enumerate(xs):
                sig[n, j, i] = sigma_n(ctx, n, complex(x, y))
    meas = (mu * yw)[:, None] * xw[None, :] / (2.0 * math.pi)
    for m in range(4):
        for n in range(4):
            val = np.sum(np.conj(sig[m]) * sig[n] * meas)
            assert abs(val - (1.0 if m == n else 0.0)) < 1e-4
    # pointwise reproducing property for the first two coefficients
    z0 = 0.3 + 0.2j
    for n in (0, 1):
        kern = np.empty((ny, nx), dtype=complex)
        for j, y in enumerate(ys):
            for i, x in enumerate(xs):
                kern[j, i] = char_fn(ctx, z0 - complex(x, -y))
        val = np.sum(sig[n] * kern * meas)
        assert val == pytest.approx(sigma_n(ctx, n, z0), abs=1e-4)
