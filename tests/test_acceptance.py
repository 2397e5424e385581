"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Every criterion is self-contained and finishes well inside a
minute; tolerances are stated next to each check.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import qladder.observables as ob
from qladder.coherent import reproducing_density
from qladder.fockoracle import (
    MultiModeBasis,
    commutator_norm,
    dense_matrix,
    eigh_evolve,
    expm_evolve,
    multimode_apply,
    state_norm,
    truncated_h,
)
from qladder.measure import moment, normalize
from qladder.orthopoly import (
    classify_ladder as _classify_ladder,
    hermite_data,
    jacobi_data,
    laguerre_data,
    legendre_data,
    ode_residual,
    recurrence,
    strong_field,
)
from qladder.propagator import build_context, char_fn, evolve, sigma_mn, sigma_n, sigma_row
from qladder.reduction import MultiModeSystem, beta_offsets, big_g, lambda_of, reduce

CANONICAL = {
    "hermite": build_context(hermite_data()),
    "laguerre": build_context(laguerre_data(2.5)),
    "jacobi": build_context(jacobi_data(-1.0, 1.0, 2.0, 1.5)),
}


def _report(k, parts):
    """parts: list of (worst, tol) or (label, worst, tol); prints one line."""
    norm = []
    frags = []
    for p in parts:
        label, worst, tol = p if len(p) == 3 else ("", *p)
        ok = worst <= tol
        norm.append(ok)
        tag = f"{label} " if label else ""
        frags.append(f"{tag}worst {worst:.3e} vs tol {tol:.1e}")
    status = "PASS" if all(norm) else "FAIL"
    print(f"criterion {k}: {status} ({'; '.join(frags)})")
    assert all(norm), f"criterion {k} failed: {'; '.join(frags)}"


def test_criterion_01_closed_elements_match_truncated_expm():
    worst = 0.0
    for ctx in CANONICAL.values():
        op = truncated_h(ctx.js, 200)
        for t in (0.25, 1.0, 2.0):
            cols = []
            for n in range(9):
                e = np.zeros(200)
                e[n] = 1.0
                cols.append(expm_evolve(op, t, e))
            for n in range(9):
                for m in range(9):
                    dev = abs(sigma_mn(ctx, m, n, complex(t)) - cols[n][m])
                    worst = max(worst, dev)
    _report(1, [(worst, 1e-8)])


def test_criterion_02_row_unitarity():
    worst = 0.0
    for ctx in CANONICAL.values():
        for t in (0.1, 1.0, 5.0):
            probe = np.zeros(11)
            probe[10] = 1.0
            kmax = evolve(ctx, probe, t, tail=1e-10).size + 32
            for n in range(11):
                row = sigma_row(ctx, n, t, kmax=kmax)
                worst = max(worst, abs(float(np.vdot(row, row).real) - 1.0))
    _report(2, [(worst, 1e-8)])


def test_criterion_03_semigroup():
    t1, t2 = 0.3, 0.7
    worst = 0.0
    for ctx in CANONICAL.values():
        probe = np.zeros(6)
        probe[5] = 1.0
        kmax = evolve(ctx, probe, max(t1, t2), tail=1e-12).size + 32
        rows1 = [sigma_row(ctx, m, t1, kmax) for m in range(6)]
        rows2 = [sigma_row(ctx, n, t2, kmax) for n in range(6)]
        for m in range(6):
            for n in range(6):
                direct = sigma_mn(ctx, m, n, complex(t1 + t2))
                dev = abs(direct - np.dot(rows1[m], rows2[n]))
                worst = max(worst, dev)
    _report(3, [(worst, 1e-8)])


def test_criterion_04_moments_match_vacuum_powers():
    worst = 0.0
    for ctx in CANONICAL.values():
        dense = truncated_h(ctx.js, 16).dense().real
        vec = np.zeros(16)
        vec[0] = 1.0
        for k in range(11):
            w = np.linalg.matrix_power(dense, k) @ vec
            tri = float(w[0])
            qd = moment(ctx.sm, k)
            worst = max(worst, abs(qd - tri) / max(1.0, abs(tri)))
    unit = normalize(laguerre_data(1.0))
    fact = max(
        abs(moment(unit, k) - math.factorial(k)) / math.factorial(k)
        for k in range(9)
    )
    _report(4, [("vacuum-powers", worst, 1e-10), ("mu=1 factorials", fact, 1e-10)])


def test_criterion_05_differential_equation_and_legendre():
    worst = 0.0
    for ctx in CANONICAL.values():
        lo, hi = ctx.pd.support
        lo, hi = max(lo, -2.0), min(hi, 3.0)
        pts = [lo + f * (hi - lo) for f in (0.15, 0.5, 0.85)]
        for n in range(9):
            for w in pts:
                worst = max(worst, ode_residual(ctx.pd, n, w))
    js = recurrence(legendre_data())
    leg = max(
        abs(js.b(n) - n / math.sqrt(4.0 * n * n - 1.0)) for n in range(1, 13)
    )
    _report(5, [("ode", worst, 1e-9), ("legendre", leg, 1e-12)])


def test_criterion_06_transition_strengths_and_classification():
    systems = {
        "amplifier": MultiModeSystem(omega=(1.3, 0.7), l=(1, 1), g=-1j),
        "up-converter": MultiModeSystem(omega=(2.0, 1.0), l=(-1, 1), g=1.0),
        "squeeze": MultiModeSystem(omega=(1.0,), l=(2,), g=0.5),
    }
    rng = np.random.default_rng(0)
    worst = 0.0
    for sys in systems.values():
        modes = sys.M_plus_1
        for _ in range(50):
            occ = tuple(int(x) for x in rng.integers(0, 13, size=modes))
            image = multimode_apply(sys, "Astar", {occ: 1.0}, cutoff=100,
                                    on_overflow="project")
            dev = abs(big_g(sys, occ) - state_norm(image) ** 2)
            worst = max(worst, dev)
    comm = max(
        commutator_norm(systems["amplifier"], "HI", ("Aj", 1), cutoff=12),
        commutator_norm(systems["up-converter"], "HI", ("Aj", 1), cutoff=12),
    )
    js, _ = reduce(systems["amplifier"], (2, 0))
    kind, params = _classify_ladder(js)
    cls = 0.0 if kind.startswith("Laguerre-type") else math.inf
    cls = max(cls, abs(params.get("mu", math.inf) - 3.0))  # |n0 - n1| + 1
    _report(6, [("strengths", worst, 1e-10), ("commutators", comm, 1e-10),
                ("classification", cls, 1e-8)])


def _glauber(zeta, N):
    out = np.zeros(N, dtype=complex)
    for n in range(N):
        out[n] = math.exp(-abs(zeta) ** 2 / 2.0 - 0.5 * math.lgamma(n + 1.0)) \
            * complex(zeta) ** n
    return out


def test_criterion_07_amplifier_against_two_mode_oracle():
    g = 1.0
    sys = MultiModeSystem(omega=(1.3, 0.7), l=(1, 1), g=-1j * g)
    basis = MultiModeBasis(2, max_local=30)
    H = dense_matrix(sys, "HI", basis)
    occ0 = np.array([s[0] for s in basis.states], dtype=float)
    worst_rel = 0.0
    worst_vac = 0.0
    labels = [0.0, 0.2 + 0.1j, -0.4, 0.35j, 0.3 - 0.3j]
    for z0 in labels:
        for z1 in labels:
            c0, c1 = _glauber(z0, 31), _glauber(z1, 31)
            vec = np.array([c0[s[0]] * c1[s[1]] for s in basis.states])
            for t in (0.1, 0.3, 0.5):
                evo = eigh_evolve(H, t, vec)
                got = float(np.sum(occ0 * np.abs(evo) ** 2))
                want = ob.amplifier_mean_photon(z0, z1, g, t)
                rel = abs(got - want) / max(want, 1e-12)
                if z0 == 0.0 and z1 == 0.0:
                    worst_vac = max(
                        worst_vac, abs(got - math.sinh(g * t) ** 2)
                    )
                worst_rel = max(worst_rel, rel)
    _report(7, [("grid", worst_rel, 1e-3), ("vacuum", worst_vac, 1e-6)])


def test_criterion_08_completeness_measure():
    worst = 0.0
    for pd, y0, y1, pts in (
        (hermite_data(), -40.0, 40.0, np.linspace(-1.2, 2.0, 10)),
        (laguerre_data(2.0), -math.inf, 0.5, np.linspace(0.2, 3.8, 10)),
    ):
        ctx = build_context(pd)
        for w in pts:
            val, _ = quad(
                lambda y: reproducing_density(ctx, y) * math.exp(2.0 * y * w),
                y0, y1, epsabs=1e-12, epsrel=1e-10, limit=300,
            )
            want = 1.0 / ctx.sm.density(float(w))
            worst = max(worst, abs(val - want) / want)
    # planar reproducing property of the first two coefficients
    ctx = CANONICAL["hermite"]
    gx, wx = np.polynomial.legendre.leggauss(180)
    gy, wy = np.polynomial.legendre.leggauss(90)
    xs, xw = 9.0 * gx, 9.0 * wx
    ys, yw = 7.0 * gy, 7.0 * wy
    mu = np.array([reproducing_density(ctx, y) for y in ys])
    meas = (mu * yw)[:, None] * xw[None, :] / (2.0 * math.pi)
    z0 = 0.3 + 0.2j
    kern = np.array(
        [[char_fn(ctx, z0 - complex(x, -y)) for x in xs] for y in ys]
    )
    planar = 0.0
    for n in (0, 1):
        sig = np.array(
            [[sigma_n(ctx, n, complex(x, y)) for x in xs] for y in ys]
        )
        val = np.sum(sig * kern * meas)
        planar = max(planar, abs(val - sigma_n(ctx, n, z0)))
    _report(8, [("scalar identity", worst, 1e-6), ("planar", planar, 1e-4)])


def _oracle_row(ctx, state, t, N=200):
    c0 = ob.ladder_amplitudes(ctx, state, 0.0, tail=1e-15)
    vec = np.zeros(N, dtype=complex)
    vec[: min(c0.size, N)] = c0[:N]
    return expm_evolve(truncated_h(ctx.js, N), t, vec)


def test_criterion_09_expectation_series_match_oracle():
    states = [
        ob.Number(0), ob.Number(3), ob.Number(5),
        ob.GaussianCoherent(0.4 + 0.2j), ob.GaussianCoherent(0.49 - 0.49j),
        ob.SpectralCoherent(0.3 + 0.2j),
    ]
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # closed/series guards must stay quiet
        for ctx in CANONICAL.values():
            for state in states:
                for t in (0.2, 1.0):
                    g = _oracle_row(ctx, state, t)
                    k = np.arange(g.size, dtype=float)
                    p = np.abs(g) ** 2
                    checks = [
                        (ob.number_moment(ctx, state, 1, t), float(np.sum(k * p))),
                        (ob.number_moment(ctx, state, 2, t), float(np.sum(k**2 * p))),
                        (
                            ob.correlation(ctx, state, 0, 1, t),
                            complex(np.sum(np.conj(g[:-1]) * np.sqrt(k[1:]) * g[1:])),
                        ),
                        (
                            ob.h_expectation(ctx, state),
                            ob._tridiagonal_mean(ctx.js, g),
                        ),
                    ]
                    for got, ref in checks:
                        worst = max(worst, abs(got - ref))
    alpha_dev = 0.0
    disp_dev = 0.0
    rng = np.random.default_rng(2)
    for ctx in CANONICAL.values():
        for l in (1, 2, 3):
            for t in (0.0, 0.7, 2.0):
                alpha_dev = max(
                    alpha_dev,
                    abs(ob.alpha_moment(ctx, ob.Number(4), l, t) - t**l),
                )
                z = 0.3 + 0.2j
                alpha_dev = max(
                    alpha_dev,
                    abs(
                        ob.alpha_moment(ctx, ob.SpectralCoherent(z), l, t)
                        - (z + t) ** l
                    ),
                )
        for _ in range(3):
            state = ob.Fock(rng.normal(size=6) + 1j * rng.normal(size=6))
            base = ob.alpha_dispersion(ctx, state, 0.0)
            for t in (0.6, 2.0, 5.0):
                disp_dev = max(
                    disp_dev, abs(ob.alpha_dispersion(ctx, state, t) - base)
                )
    _report(9, [("series", worst, 1e-7), ("alpha", alpha_dev, 1e-10),
                ("dispersion", disp_dev, 1e-10)])


def test_criterion_10_strong_field_structure():
    a, b = -0.3, 1.7
    sf = strong_field(jacobi_data(a, b, 2.0, 3.0))
    js = recurrence(sf)
    N = 12
    J = truncated_h(js, N).dense().real
    C = np.zeros((N, N))
    idx = np.arange(N - 1)
    C[idx, idx + 1] = 0.5
    C[idx + 1, idx] = 0.5
    target = 0.5 * (a + b) * np.eye(N) + 0.5 * (b - a) * C
    worst = float(np.max(np.abs(J - target)))
    lower, raise_ = ob.phase_exponentials(40)
    want = np.eye(40)
    want[0, 0] = 0.0
    phase = 0.0 if np.array_equal(raise_ @ lower, want) else math.inf
    # certified composition: raising after lowering = I - |0><0| exactly
    _report(10, [("flat band", worst, 1e-15), ("phase identity", phase, 0.0)])


def test_criterion_11_sector_conservation_and_parabola():
    sys = MultiModeSystem(omega=(1.3, 0.7), l=(1, 1), g=-1j)
    js, sector = reduce(sys, (2, 0))
    betas = beta_offsets(sys, sector)
    basis = MultiModeBasis(2, max_total=40)
    H = dense_matrix(sys, "HI", basis)
    occs = np.array(basis.states, dtype=float)
    lam0 = np.array([lambda_of(sys, s)[0] for s in basis.states])
    rungs = [(2 + n, n) for n in range(6)]
    vec = np.zeros(len(basis), dtype=complex)
    for r in rungs:
        vec[basis.index[r]] = 1.0 / math.sqrt(len(rungs))
    worst = 0.0
    for t in (0.0, 0.25, 0.6, 1.0):
        evo = eigh_evolve(H, t, vec)
        p = np.abs(evo) ** 2
        mass = float(np.sum(p))
        a0 = float(np.sum(lam0 * p)) / mass
        for j in (0, 1):
            nj = float(np.sum(occs[:, j] * p)) / mass
            worst = max(worst, abs(nj - sys.l[j] * a0 - betas[j]))
    mu = 2.5
    chan = MultiModeSystem(
        omega=(1.0,), l=(1,),
        g=lambda occ: math.sqrt(occ[0] + mu),
        h_diag=lambda occ: 2.0 * occ[0] + mu,
    )
    _, sec = reduce(chan, (4,))
    ctx = build_context(laguerre_data(mu))
    z = 0.2 + 0.3j
    ts = np.linspace(0.0, 1.4, 8)
    data = np.array(
        [
            sec.lambda00 + ob.number_moment(ctx, ob.SpectralCoherent(z), 1, float(t))
            for t in ts
        ]
    )
    design = np.column_stack([np.abs(z + ts) ** 2, np.ones_like(ts)])
    coef, *_ = np.linalg.lstsq(design, data, rcond=None)
    resid = float(np.max(np.abs(design @ coef - data)))
    _report(11, [("conservation", worst, 1e-9), ("parabola fit", resid, 1e-8)])
