"""Time-dependent expectation values against closed forms and the oracle."""

import cmath
import io
import math
import time
import tracemalloc
import warnings
from contextlib import redirect_stdout

import numpy as np
import pytest

from qladder.cli import main
from qladder.coherent import mean_energy
from qladder.fockoracle import expm_evolve, truncated_h
from qladder.observables import (
    Fock,
    GaussianCoherent,
    Number,
    SpectralCoherent,
    alpha_dispersion,
    alpha_moment,
    amplifier_mean_photon,
    cluster_correlation,
    correlation,
    cos_phase,
    h_expectation,
    ladder_amplitudes,
    modulation_mean,
    number_moment,
    phase_exponentials,
    total_energy,
)
from qladder.orthopoly import JacobiSystem, hermite_data, laguerre_data
from qladder.propagator import PropagatorContext, build_context, sigma_row
from qladder.reduction import MultiModeSystem, reduce

HCTX = build_context(hermite_data())


def test_number_amplitudes_are_propagator_rows(family_name, family_ctx):
    # long times reach far rows: the Laguerre vacuum at t = 5 spreads over
    # hundreds of levels
    cases = {"laguerre": [(0, 5.0)], "hermite": [(3, 10.0)]}.get(family_name, [])
    for n, t in [(3, 0.9)] + cases:
        g = ladder_amplitudes(family_ctx, Number(n), t)
        row = sigma_row(family_ctx, n, t, g.size - 1)
        assert np.max(np.abs(g - row)) < 1e-12
    g0 = ladder_amplitudes(family_ctx, Number(2), 0.0)
    assert g0[2] == 1.0 and np.count_nonzero(g0) == 1


def test_vacuum_moments_take_the_coherent_route():
    # e^{-iHt}|0> is the coherent label t, whose closed mean is mu t^2 on
    # Laguerre(2.5); at t = 20 it spreads over ~14,000 levels, past the rule
    # route's level cap: the integer-node route gives the coherent vector as
    # column 0 of its block, sized once from the packet law
    ctx = build_context(laguerre_data(2.5))
    for t, want, seconds in ((10.0, 250.0, 0.05), (20.0, 1000.0, 1.0)):
        times = []
        for _ in range(2):
            start = time.perf_counter()
            got = number_moment(ctx, Number(0), 1, t)
            times.append(time.perf_counter() - start)
        assert got == pytest.approx(want, rel=1e-9) and min(times) < seconds
    tracemalloc.start()
    try:
        number_moment(ctx, Number(0), 1, 20.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


def test_vacuum_second_moment_keeps_the_whole_series():
    # the packet law sizes the vacuum at a squared tail of 1e-16, so k^2 |g_k|^2
    # keeps the full series: a 1e-13 tail put this moment 1.8e-11 off
    ctx = build_context(laguerre_data(3.05))
    got = number_moment(ctx, Number(0), 2, 0.712)
    assert abs(got - ctx.pd.closed_number_moment(0.712, 2)) <= 1e-13 * got


def test_large_glauber_label_has_unit_norm():
    # each c_n carries about |log c_n| * eps of rounding, so 1 - ||c||^2
    # cannot test a 1e-14 tail at |zeta|^2 = 3600; the length comes from
    # the Poisson tail bound instead
    g = ladder_amplitudes(HCTX, GaussianCoherent(60), 0.0)
    assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-10)


def test_number_state_energy(family_ctx):
    for n in (0, 2, 7):
        assert h_expectation(family_ctx, Number(n)) == family_ctx.js.h(n)


def test_gaussian_energy_closed_value():
    zeta = 0.4 + 0.2j
    want = math.sqrt(2.0) * zeta.real  # tridiagonal mean for b(n)=sqrt(n/2)
    assert h_expectation(HCTX, GaussianCoherent(zeta)) == pytest.approx(
        want, abs=1e-12
    )


def test_spectral_energy_is_label_height(family_ctx):
    z = 0.5 + 0.25j
    assert h_expectation(family_ctx, SpectralCoherent(z)) == mean_energy(
        family_ctx, 0.25
    )


def test_fock_state_energy_quadform(family_ctx):
    c = np.array([1.0, 1j, -0.5]) / math.sqrt(2.25)
    js = family_ctx.js
    want = sum(js.h(k) * abs(c[k]) ** 2 for k in range(3))
    want += 2 * sum(
        (c[k].conjugate() * c[k + 1]).real * js.b(k + 1) for k in range(2)
    )
    got = h_expectation(family_ctx, Fock([1.0, 1j, -0.5]))
    assert got == pytest.approx(want, abs=1e-12)


def test_fock_validation():
    with pytest.raises(ValueError):
        ladder_amplitudes(HCTX, Fock([0.0, 0.0]), 0.1)
    with pytest.raises(ValueError):
        ladder_amplitudes(HCTX, Fock([]), 0.1)
    with pytest.raises(TypeError):
        ladder_amplitudes(HCTX, "vacuum", 0.1)


def test_ground_label_occupation_grows_quadratically():
    for t in (0.0, 0.5, 1.3):
        got = number_moment(HCTX, SpectralCoherent(0.0), 1, t)
        assert got == pytest.approx(t * t / 2.0, abs=1e-10)


def test_hermite_touchard_moments():
    """Occupation of a spectral label is Poisson with intensity |z+t|^2/2."""
    z, t = 0.4 + 0.3j, 0.8
    xi = abs(z + t) ** 2 / 2.0
    closed = {1: xi, 2: xi + xi**2, 3: xi + 3 * xi**2 + xi**3}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # closed/series guard must stay quiet
        for l, want in closed.items():
            got = number_moment(HCTX, SpectralCoherent(z), l, t)
            assert got == pytest.approx(want, rel=1e-9)


def test_laguerre_geometric_moments():
    ctx = build_context(laguerre_data(2.5))
    z, t = 0.45 + 0.3j, 0.6
    w = z + t
    q = abs(w) ** 2 / abs(w - 1j) ** 2
    want = 2.5 * q / (1.0 - q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = number_moment(ctx, SpectralCoherent(z), 1, t)
    assert got == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize(
    "pd", [laguerre_data(1.2), laguerre_data(3.05), hermite_data()], ids=["laguerre1.2", "laguerre3.05", "hermite"]
)
def test_spectral_label_moments_keep_the_tail_past_rounding(pd):
    # the series weights the dropped tail by k^l: cut at a squared tail of
    # 1e-13 it was up to 5.2e-10 relative off the closed occupation law here
    ctx = build_context(pd)
    for z in (0.3, 0.5 - 0.2j, -0.8 + 0.25j, 1 + 0.1j):
        for t in (0.0, 0.712, 1.9):
            for l in (1, 2, 3):
                got = number_moment(ctx, SpectralCoherent(z), l, t)
                want = ctx.pd.closed_number_moment(complex(z) + t, l)
                assert abs(got - want) <= 5e-11 * abs(want), (z, t, l)


def test_closed_series_guard_warns_on_mismatch(monkeypatch, tmp_path):
    monkeypatch.setattr(type(HCTX.pd), "closed_number_moment", lambda *a: 99.0)
    with pytest.warns(RuntimeWarning, match="deviates from the normative"):
        number_moment(HCTX, SpectralCoherent(0.2 + 0.1j), 1, 0.5)
    # the CLI's library column runs the same check on the same label
    cfg = tmp_path / "spectral.ini"
    cfg.write_text("[scenario]\nschema_version = 1\n\n[family]\nkind = hermite\n\n"
                   "[state]\nkind = spectral\nz = 0.2+0.1j\n\n"
                   "[expect]\nobservables = number_moment:1\n\n[grid]\nt0 = 0.5\nsteps = 1\n")
    with pytest.warns(RuntimeWarning, match="deviates from the normative"), redirect_stdout(io.StringIO()):
        assert main(["expect", "--config", str(cfg)]) == 0


def test_moment_order_validation(family_ctx):
    with pytest.raises(ValueError):
        number_moment(family_ctx, Number(0), 0, 1.0)
    with pytest.raises(ValueError):
        alpha_moment(family_ctx, Number(0), -2, 1.0)


def test_correlation_closed_values():
    t = 0.9
    vac = SpectralCoherent(0.0)
    # the evolved ground label is a Glauber state of parameter -i t/sqrt(2)
    assert correlation(HCTX, vac, 0, 1, t) == pytest.approx(
        -1j * t / math.sqrt(2.0), abs=1e-10
    )
    assert correlation(HCTX, vac, 1, 1, t) == pytest.approx(
        t * t / 2.0, abs=1e-10
    )
    # <a^2> of a Glauber state at t=0 is zeta^2
    zeta = 0.3 - 0.2j
    assert correlation(HCTX, GaussianCoherent(zeta), 0, 2, 0.0) == pytest.approx(
        zeta**2, abs=1e-12
    )


def test_cluster_correlation_values(family_ctx):
    js = family_ctx.js
    for n in (1, 3):
        got = cluster_correlation(family_ctx, Number(n), 1, 1, 0.0)
        assert got == pytest.approx(js.b(n) ** 2, rel=1e-12)


def test_equal_order_correlations_are_exactly_real():
    # <A*^r A^r> is a sum of |g|^2 terms: no rounding may reach its imaginary part
    lctx = build_context(laguerre_data(2.5))
    assert cluster_correlation(lctx, Fock([0.6, 0.8j, 0.3]), 2, 2, 0.9).imag == 0.0
    assert correlation(HCTX, GaussianCoherent(1 + 0.5j), 1, 1, 0.7).imag == 0.0


def test_log_factorials_are_lgamma_from_one_growing_table(monkeypatch):
    import qladder.observables as ob

    monkeypatch.setattr(ob, "_LOG_FACT", [np.zeros(0)])
    lgam = [math.lgamma(k + 1.0) for k in range(300)]
    short = ob._log_factorials(5)
    assert short.tolist() == lgam[:5]
    assert ob._log_factorials(7).tolist() == lgam[:7]
    table = ob._LOG_FACT[0]
    assert table.size == 10  # grown to twice the 5 entries it had
    assert ob._log_factorials(9).tolist() == lgam[:9] and ob._LOG_FACT[0] is table
    assert ob._log_factorials(300).tolist() == lgam
    assert short.tolist() == lgam[:5]  # growing leaves old views alone


def test_cluster_is_scaled_correlation_for_constant_ratio():
    # b(n)^2 = n/2 here, so A = a/sqrt(2) and every cluster correlation is
    # the plain one scaled by 2^{-(r+s)/2}
    state = GaussianCoherent(0.35 + 0.15j)
    for r, s in [(0, 1), (1, 1), (1, 2)]:
        plain = correlation(HCTX, state, r, s, 0.7)
        clus = cluster_correlation(HCTX, state, r, s, 0.7)
        assert clus == pytest.approx(plain * 2.0 ** (-(r + s) / 2.0), abs=1e-10)


def test_full_picture_reattaches_free_phase():
    js = JacobiSystem(
        b=HCTX.js.b, h=HCTX.js.h, dim=HCTX.js.dim, gamma0=2.0
    )
    ctx2 = PropagatorContext(pd=HCTX.pd, sm=HCTX.sm, js=js, strip=HCTX.strip)
    state, r, s, t = GaussianCoherent(0.4), 0, 1, 0.6
    inter = cluster_correlation(ctx2, state, r, s, t, picture="interaction")
    full = cluster_correlation(ctx2, state, r, s, t, picture="full")
    assert full == pytest.approx(inter * cmath.exp(-1j * 2.0 * (s - r) * t))
    with pytest.raises(ValueError):
        cluster_correlation(ctx2, state, 0, 1, 0.1, picture="schrodinger")


def test_alpha_moments_number_states(family_ctx):
    for l in (1, 2, 3):
        for t in (0.0, 0.7, 2.0):
            got = alpha_moment(family_ctx, Number(4), l, t)
            assert got == pytest.approx(t**l, abs=1e-10)


def test_alpha_moments_spectral_labels(family_ctx):
    z = 0.3 + 0.2j
    for l in (1, 2, 3):
        for t in (0.0, 1.1):
            got = alpha_moment(family_ctx, SpectralCoherent(z), l, t)
            assert got == pytest.approx((z + t) ** l, abs=1e-10)


def test_alpha_dispersion_constant_in_time(family_ctx):
    rng = np.random.default_rng(17)
    for _ in range(5):
        c = rng.normal(size=6) + 1j * rng.normal(size=6)
        state = Fock(c)
        base = alpha_dispersion(family_ctx, state, 0.0)
        for t in (0.5, 2.0, 5.0):
            assert alpha_dispersion(family_ctx, state, t) == pytest.approx(
                base, abs=1e-10
            )


def test_alpha_moment_fock_matches_number():
    # |3> expressed as a Fock vector must agree with the closed route
    for l in (1, 2):
        direct = alpha_moment(HCTX, Number(3), l, 0.8)
        via_fock = alpha_moment(HCTX, Fock([0, 0, 0, 1.0]), l, 0.8)
        assert via_fock == pytest.approx(direct, abs=1e-12)


def _oracle_measures(ctx, state, t, N=200):
    c0 = ladder_amplitudes(ctx, state, 0.0, tail=1e-15)
    vec = np.zeros(N, dtype=complex)
    vec[: c0.size] = c0[:N]
    g = expm_evolve(truncated_h(ctx.js, N), t, vec)
    k = np.arange(N, dtype=float)
    occ = float(np.sum(k * np.abs(g) ** 2))
    corr01 = complex(np.sum(np.conj(g[1:]) * np.sqrt(k[1:]) * g[:-1]))
    return occ, corr01


@pytest.mark.parametrize(
    "state",
    [Number(2), GaussianCoherent(0.4 + 0.2j), SpectralCoherent(0.3 + 0.2j)],
    ids=["number", "gaussian", "spectral"],
)
def test_series_match_truncated_oracle(family_ctx, state):
    t = 0.7
    occ_o, corr_o = _oracle_measures(family_ctx, state, t)
    assert number_moment(family_ctx, state, 1, t) == pytest.approx(
        occ_o, abs=1e-7
    )
    assert correlation(family_ctx, state, 1, 0, t) == pytest.approx(
        corr_o, abs=1e-7
    )


def test_amplifier_mean_photon_values():
    g, t = 1.0, 0.5
    sh, ch = math.sinh(g * t), math.cosh(g * t)
    assert amplifier_mean_photon(0.0, 0.0, g, t) == pytest.approx(sh**2)
    got = amplifier_mean_photon(0.3, 0.2j, g, t)
    want = abs(0.3 * ch + (0.2j).conjugate() * sh) ** 2 + sh**2
    assert got == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        amplifier_mean_photon(0.1, 0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        amplifier_mean_photon(0.1, 0.1, -1.0, 1.0)


def _synthetic_laguerre_channel(mu=2.5):
    """Single-mode channel engineered so the reduced ladder is exactly the
    canonical Laguerre recurrence (gamma = 1, beta = 0)."""
    return MultiModeSystem(
        omega=(1.0,),
        l=(1,),
        g=lambda occ: math.sqrt(occ[0] + mu),
        h_diag=lambda occ: 2.0 * occ[0] + mu,
    )


def test_modulation_mean_tracks_parabola():
    mu = 2.5
    sys = _synthetic_laguerre_channel(mu)
    js, sector = reduce(sys, (5,))
    ctx = build_context(laguerre_data(mu))
    for n in range(1, 6):
        assert js.b(n) == pytest.approx(ctx.js.b(n), rel=1e-12)
        assert js.h(n) == pytest.approx(ctx.js.h(n), rel=1e-12)
    z = 0.2 + 0.3j
    E = mu / (1.0 - 2.0 * 0.3)  # mu / (gamma (gamma - 2y))
    for t in (0.0, 0.4, 1.0):
        got = modulation_mean(sys, sector, ctx, SpectralCoherent(z), 0, t)
        assert got == pytest.approx(E * abs(z + t) ** 2, rel=1e-8)
    with pytest.raises(ValueError):
        modulation_mean(sys, sector, ctx, SpectralCoherent(z), 1, 0.0)


def test_total_energy_combines_pictures(family_ctx):
    state = GaussianCoherent(0.3)
    t = 0.5
    base = total_energy(family_ctx, state, t)  # gamma0 = 0 for bare pairs
    assert base == pytest.approx(h_expectation(family_ctx, state), abs=1e-12)
    lifted = total_energy(family_ctx, state, t, gamma0=2.0)
    occ = number_moment(family_ctx, state, 1, t)
    assert lifted == pytest.approx(base + 2.0 * occ, abs=1e-9)


def test_phase_exponential_identities():
    for dim in (2, 7, 40):
        lower, raise_ = phase_exponentials(dim)
        prod = raise_ @ lower
        want = np.eye(dim)
        want[0, 0] = 0.0  # ground-state defect: I - |0><0|
        assert np.array_equal(prod, want)
        other = lower @ raise_
        top = np.eye(dim)
        top[dim - 1, dim - 1] = 0.0  # truncation defect at the top corner
        assert np.array_equal(other, top)
        c = cos_phase(dim)
        assert np.array_equal(c, c.T)
        assert np.max(np.abs(np.linalg.eigvalsh(c))) <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        phase_exponentials(0)


def test_alpha_series_on_an_oracle_trajectory_holds_no_dense_derivative():
    import qladder.observables as ob

    ctx = build_context(laguerre_data(2.5))
    start = np.zeros(400, dtype=complex)
    start[:3] = 0.6, 0.8j, 0.0
    g = expm_evolve(truncated_h(ctx.js, 400), np.linspace(0.0, 1.0, 6), start)  # (6, 400)
    tracemalloc.start()
    try:
        ob._alpha_series(ctx, g, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**10  # one dense 400 x 400 derivative matrix is 1.25 MiB
    assert not hasattr(ob, "_DERIVS")
