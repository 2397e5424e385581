"""One benchmark process: set up, run the closed loop, check the outputs.

Run by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``:

    python3 bench/worker.py --workload closed --seed 1 --out-dir .bench_out --seconds 20
    python3 bench/worker.py --workload closed --seed 1 --out-dir .bench_out --setup-only
    python3 bench/worker.py --workload closed --seed 1 --out-dir .bench_out --count 5000 --trace t.npz

The loop has one client in one thread: it sends the next request only when
the previous one has returned, until ``--seconds`` have passed or ``--count``
requests are done, after an untimed warm-up over the first WARMUP requests
(scenarios only).  Between requests it runs a short reference computation, by
which the reported times are rescaled to a nominal host speed (see "host
speed reference" below).  A request fails if it raises, emits a
RuntimeWarning or fails its output check; warm-up requests count too.  The
checks run after the loop, so they do not warm the rule, matrix and eigen
caches the timed requests use.  The last stdout line is a JSON object with
the results.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import statistics
import sys
import warnings
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads

# Check tolerances.  Closed forms of degree <= 24 lose digits to their
# alternating sums; the truncated-Fock oracle matches the series to the CLI's
# own expect-oracle tolerance.
TOL_UNIT = 1e-10
TOL_SYMMETRY = 1e-12
TOL_CLOSED_VS_QUAD = 1e-8
TOL_ORACLE = 1e-7
SAMPLES = {"symmetry": 200, "quad": 40, "oracle": 3}
# The tail percentile of each workload: the highest whole percentile with at
# least ten requests beyond it in a run of the expected size (~10^5 closed,
# ~1500 sweep, ~300 scenario requests).  Fixed per workload, so runs of
# different speed report the same percentile; the count beyond is reported.
TAIL_PCT = {"closed": 99, "sweep": 99, "scenarios": 95}
# Requests run untimed before the loop, which goes on from the next one.  The scenario stream revisits a
# seed's few systems and amplifiers, and their first runs build the dense
# matrices and eigen decompositions the later ones reuse; four blocks of 13
# (see workloads.py) visit all 24 systems and 4 amplifiers, so the timed loop
# measures the reuse regime, whatever the seed drew.
WARMUP = {"closed": 0, "sweep": 0, "scenarios": 52}


def _imports():
    import numpy
    import qladder
    import qladder.cli

    return numpy, qladder


def _family(q, fam):
    op = q.orthopoly
    if fam[0] == "hermite":
        pd = op.hermite_data(a1=fam[1], b0=fam[2])
    elif fam[0] == "laguerre":
        pd = op.laguerre_data(fam[1])
    else:
        pd = op.jacobi_data(-1.0, 1.0, fam[1], fam[2])
    return q.propagator.build_context(pd)


def _state(q, st):
    ob = q.observables
    if st[0] == "number":
        return ob.Number(st[1])
    if st[0] == "gaussian":
        return ob.GaussianCoherent(st[1])
    if st[0] == "spectral":
        return ob.SpectralCoherent(st[1])
    return ob.Fock(st[1])


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def prepare(q, workload: str, specs: list, scen_dir: Path):
    """Resolve each spec into (module, function name, args).

    Functions are looked up on their module at call time, so a tracer that
    patches the module is seen.  Contexts are built here, once per family.
    """
    P, C, ob = q.propagator, q.coherent, q.observables
    ctxs: dict = {}

    def ctx(fam):
        c = ctxs.get(fam)
        if c is None:
            c = ctxs[fam] = _family(q, fam)
        return c

    out = []
    for i, s in enumerate(specs):
        kind = s[0]
        if kind == "scenario":
            path = scen_dir / f"{i:04d}-{s[1]}.ini"
            out.append((sys.modules[__name__], "_run_cli", (q.cli, [s[1], "--config", str(path), *s[3]])))
        elif kind in ("sigma_mn", "sigma_n", "char_fn", "sigma_row"):
            out.append((P, kind, (ctx(s[1]),) + s[2:]))
        elif kind in ("kernel", "coherent_coeffs", "mean_energy", "reproducing_density"):
            out.append((C, kind, (ctx(s[1]),) + s[2:]))
        elif kind in ("number_moment", "alpha_moment"):
            out.append((ob, kind, (ctx(s[1]), _state(q, s[2])) + s[3:]))
        elif kind == "observable":
            _, fam, st, obs, args, t = s
            out.append((ob, obs, (ctx(fam), _state(q, st)) + tuple(args) + (t,)))
        elif kind == "amplifier_mean_photon":
            out.append((ob, kind, s[1:]))
        else:
            raise ValueError(f"unknown request kind {kind!r}")
    return out


def write_scenarios(specs: list, scen_dir: Path) -> None:
    scen_dir.mkdir(parents=True, exist_ok=True)
    for i, s in enumerate(specs):
        if s[0] == "scenario":
            (scen_dir / f"{i:04d}-{s[1]}.ini").write_text(s[2], encoding="utf-8")


# -- host speed reference ---------------------------------------------------------
#
# A shared host changes speed in phases of seconds to tens of seconds: a fixed
# pure-Python loop takes anywhere from 1.0 to 1.7 times its best time, and the
# qladder requests slow down with it.  The loop therefore runs a short fixed
# reference computation (``ref_probe``, pure Python, no BLAS and nothing from
# qladder, so no change to the program can speed it up or slow it down)
# between requests, at least every PROBE_EVERY_S.  Each stretch of requests
# between two probes is rescaled by REF_NOMINAL_S / (median of the nearest
# PROBE_WINDOW probes): the reported times are what the run would have taken
# on a host whose reference computation takes exactly REF_NOMINAL_S.  Raw
# wall-clock figures are reported beside them.

REF_LOOP = 15000
REF_NOMINAL_S = 1.0e-3  # about the reference time on an idle 2-vCPU x86-64 guest
PROBE_EVERY_S = 0.05
PROBE_WINDOW = 5
SETUP_PROBES = 5  # probes before and after set-up


def ref_probe() -> float:
    """Wall time of the fixed reference computation."""
    t0 = perf_counter()
    x = 0
    for i in range(REF_LOOP):
        x += i * i
    return perf_counter() - t0


def speed_factors(probes) -> list:
    """REF_NOMINAL_S over the median of the PROBE_WINDOW probes nearest each one."""
    n, h = len(probes), PROBE_WINDOW // 2
    out = []
    for k in range(n):
        lo = min(max(0, k - h), max(0, n - PROBE_WINDOW))
        out.append(REF_NOMINAL_S / statistics.median(probes[lo : lo + PROBE_WINDOW]))
    return out


def reference_setup_time(raw_s: float, probes) -> float:
    return raw_s * REF_NOMINAL_S / statistics.median(probes)


class Loop:
    """Result of ``run_loop``.

    ``lat[i]`` is request i's wall latency and ``seg[i]`` the stretch it ran
    in; stretch k spans ``seg_wall[k]`` seconds of loop time (probes excluded)
    and ends with probe k, of ``probes[k]`` seconds.
    """

    def __init__(self, outputs: list):
        self.outputs = outputs
        self.errors: dict = {}
        self.lat = array("d")
        self.seg = array("l")
        self.seg_wall = array("d")
        self.probes = array("d")

    @property
    def done(self) -> int:
        return len(self.lat)

    @property
    def wall(self) -> float:
        """Raw wall time of the loop, probes excluded."""
        return math.fsum(self.seg_wall)

    def reference_times(self) -> tuple[float, list]:
        """The loop's wall time and each request's latency at the reference speed."""
        f = speed_factors(self.probes)
        work = math.fsum(w * fk for w, fk in zip(self.seg_wall, f))
        return work, [t * f[k] for t, k in zip(self.lat, self.seg)]


def run_loop(prepared: list, seconds: float | None, count: int | None, tracer=None,
             start: int = 0, outputs: list | None = None) -> Loop:
    """Closed loop over ``prepared`` from request ``start`` on, with a reference
    probe at least every PROBE_EVERY_S.  Output i goes to ``outputs[i % L]``."""
    L = len(prepared)
    r = Loop(outputs if outputs is not None else [None] * L)
    outputs, errors, lat, seg = r.outputs, r.errors, r.lat, r.seg
    i = start
    stop = start + count if count is not None else None
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        t_start = perf_counter()
        deadline = t_start + (seconds if seconds is not None else math.inf)
        t1 = seg_start = t_start
        while (i < stop) if stop is not None else (t1 < deadline):
            mod, fname, args = prepared[i % L]
            if tracer is not None:
                tracer.request = i
            t0 = perf_counter()
            try:
                out = getattr(mod, fname)(*args)
            except Exception as exc:  # any raise, RuntimeWarnings included, is a failed request
                out = None
                errors[i] = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            lat.append(t1 - t0)
            seg.append(len(r.probes))
            outputs[i % L] = out
            i += 1
            if t1 - seg_start >= PROBE_EVERY_S:
                r.seg_wall.append(perf_counter() - seg_start)
                r.probes.append(ref_probe())
                seg_start = t1 = perf_counter()
        r.seg_wall.append(perf_counter() - seg_start)
        r.probes.append(ref_probe())
    return r


def latency_stats(lat, pct: int, prefix: str = "") -> dict:
    """Median latency and the ``pct`` percentile (linear interpolation)."""
    tail = statistics.quantiles(lat, n=100, method="inclusive")[pct - 1] if len(lat) > 1 else lat[0]
    return {
        prefix + "latency_p50_s": statistics.median(lat),
        prefix + "latency_tail_s": tail,
        "tail_pct": pct,
        "tail_beyond": round(len(lat) * (100 - pct) / 100),
    }


# -- output checks --------------------------------------------------------------


def _finite(np, v) -> bool:
    if isinstance(v, (complex, float, int)):
        return math.isfinite(abs(v))
    if isinstance(v, np.ndarray):
        return bool(np.isfinite(v).all())
    if isinstance(v, tuple):  # CLI result
        return True
    return math.isfinite(abs(complex(v)))


def _sample(rng, idx: list, k: int) -> list:
    return sorted(rng.sample(idx, min(k, len(idx))))


def check(q, np, workload: str, specs: list, outputs: list, done: int, seed: int) -> dict:
    """Output checks on the stored results; returns {slot: reason} of failures."""
    import random

    rng = random.Random(f"qladder-bench/check/{workload}/{seed}")
    P, C = q.propagator, q.coherent
    slots = range(min(done, len(specs)))
    bad: dict = {}
    ctxs: dict = {}

    def ctx(fam):
        if fam not in ctxs:
            ctxs[fam] = _family(q, fam)
        return ctxs[fam]

    def expect(i, ok, what):
        if not ok and i not in bad:
            bad[i] = what

    def checked(i, fn):
        try:
            fn(i)
        except Exception as exc:  # a check that raises fails its request
            expect(i, False, f"check raised {type(exc).__name__}: {exc}")

    def each(i):
        v, s = outputs[i], specs[i]
        expect(i, _finite(np, v), "non-finite output")
        kind = s[0]
        if kind in ("sigma_mn", "sigma_n", "char_fn") and complex(s[-1]).imag == 0.0:
            expect(i, abs(v) <= 1.0 + TOL_UNIT, f"|sigma| = {abs(v)!r} > 1 at real t")
        elif kind == "sigma_row":
            expect(i, float(np.vdot(v, v).real) <= 1.0 + TOL_UNIT, "row norm > 1")
        elif kind == "coherent_coeffs":
            n2 = C.squared_norm(ctx(s[1]), s[2])
            acc = float(np.vdot(v, v).real)
            expect(i, (1.0 - 1e-12) * n2 - TOL_UNIT * n2 <= acc <= n2 * (1.0 + TOL_UNIT),
                   f"coefficient norm {acc!r} outside its tail of <z|z> = {n2!r}")
        elif kind == "kernel":
            c = ctx(s[1])
            bound = C.squared_norm(c, s[2]) * C.squared_norm(c, s[3])
            expect(i, abs(v) ** 2 <= bound * (1.0 + TOL_UNIT), "kernel breaks Cauchy-Schwarz")
        elif kind == "reproducing_density":
            expect(i, v >= 0.0, "negative reproducing density")
        elif kind == "number_moment" or (kind == "observable" and s[3] == "number_moment"):
            expect(i, v >= 0.0, "negative occupation moment")
        elif kind == "alpha_moment" and s[2][0] in ("number", "spectral"):
            st, l, t = s[2], s[3], s[4]
            want = t ** l if st[0] == "number" else (st[1] + t) ** l
            expect(i, abs(v - want) <= 1e-12 * max(1.0, abs(want)), "alpha moment off its shift law")
        elif kind == "amplifier_mean_photon":
            expect(i, v >= math.sinh(s[3] * s[4]) ** 2 * (1.0 - 1e-12), "photon number below vacuum growth")
        elif kind == "scenario":
            rc, text, err = v
            expect(i, rc == 0, f"exit code {rc}: {err.strip()[:200]}")
            if s[1] != "reduce":
                expect(i, _csv_finite(text), "non-numeric or non-finite cell in the CSV table")

    def symmetric(i):
        _, fam, m, n, z = specs[i]
        other = P.sigma_mn(ctx(fam), n, m, z)
        expect(i, abs(other - outputs[i]) <= TOL_SYMMETRY * max(1.0, abs(other)), "sigma_mn != sigma_nm")

    def against_quadrature(i):
        _, fam, m, n, z = specs[i]
        qv = P.sigma_mn_quad(ctx(fam), m, n, z)
        expect(i, abs(qv - outputs[i]) <= TOL_CLOSED_VS_QUAD * max(1.0, abs(qv)),
               f"closed {outputs[i]!r} vs quadrature {qv!r}")

    def against_oracle(i):
        expect(i, *_oracle_check(q, np, ctx(specs[i][1]), specs[i], outputs[i]))

    live = [i for i in slots if outputs[i] is not None]
    for i in live:
        checked(i, each)
    sig = [i for i in live if specs[i][0] == "sigma_mn"]
    for i in _sample(rng, sig, SAMPLES["symmetry"]):
        checked(i, symmetric)
    if workload == "closed":
        # the quadrature sum is ill conditioned near the Laguerre transform
        # boundary, where sigma_mn uses the closed form at every degree
        real = [i for i in sig if specs[i][4].imag <= 0.0]
        for i in _sample(rng, real, SAMPLES["quad"]):
            checked(i, against_quadrature)
    if workload == "sweep":
        obs = [i for i in live if specs[i][0] == "observable"]
        for i in _sample(rng, obs, SAMPLES["oracle"]):
            checked(i, against_oracle)
    return bad


def _csv_finite(text: str) -> bool:
    """Every data row of every table is all finite numbers (header rows skipped)."""
    import csv

    for row in csv.reader(io.StringIO(text)):
        try:
            first = float(row[0]) if row else None
        except ValueError:
            continue  # a header row
        if first is None:
            continue  # the blank line between tables
        try:
            if not all(math.isfinite(float(cell)) for cell in row):
                return False
        except ValueError:
            return False
    return True


def _oracle_check(q, np, c, spec, value):
    """Series value against amplitudes evolved by the truncated-Fock oracle."""
    ob, fo = q.observables, q.fockoracle
    _, fam, st, obs, args, t = spec
    state = _state(q, st)
    g = ob.ladder_amplitudes(c, state, t)
    if abs(1.0 - float(np.vdot(g, g).real)) > 1e-12:
        return False, "amplitude norm outside its tail"
    if st[0] == "number":
        c0 = np.zeros(st[1] + 1, dtype=complex)
        c0[st[1]] = 1.0
    else:
        c0 = ob.ladder_amplitudes(c, state, 0.0, tail=1e-15)
    N = max(g.size, c0.size) + 64
    v = np.zeros(N, dtype=complex)
    v[: c0.size] = c0
    go = fo.expm_evolve(fo.truncated_h(c.js, N), t, v)
    k = np.arange(N, dtype=float)
    if obs == "number_moment":
        o = float(np.sum(k ** args[0] * np.abs(go) ** 2))
    else:
        r, s = args
        m = np.arange(N - max(r, s))
        if obs == "correlation":
            lg = np.array([math.lgamma(j + 1.0) for j in range(N)])
            w = np.exp(0.5 * (lg[m + r] + lg[m + s]) - lg[m])
        else:  # cluster_correlation: products of ladder couplings
            b = np.array([c.js.b(j) for j in range(N)])
            w = np.array([np.prod(b[j + 1 : j + r + 1]) * np.prod(b[j + 1 : j + s + 1]) for j in m])
        o = complex(np.sum(np.conj(go[m + r]) * go[m + s] * w))
    ok = abs(complex(value) - complex(o)) <= TOL_ORACLE * max(1.0, abs(o))
    return ok, f"series {value!r} vs oracle {o!r}"


def digest(np, outputs: list, done: int) -> str:
    """Hash of the stored outputs, to compare traced and untraced runs."""
    import hashlib

    h = hashlib.sha256()
    for v in outputs[: min(done, len(outputs))]:
        if isinstance(v, np.ndarray):
            h.update(v.tobytes())
        elif isinstance(v, tuple):
            h.update(repr(v[:2]).encode())
        else:
            h.update(repr(v).encode())
    return h.hexdigest()


def environment(np) -> dict:
    import platform

    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "?")
        except Exception:  # the config layout differs between releases
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(np),
        "openblas_scipy": blas(scipy),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--count", type=int)
    ap.add_argument("--trace", help="trace the loop and save its spans to this .npz file")
    args = ap.parse_args(argv)

    specs = workloads.generate(args.workload, args.seed)
    scen_dir = Path(args.out_dir) / f"scenarios-{args.seed}"
    if args.workload == "scenarios" and not args.setup_only:
        write_scenarios(specs, scen_dir)

    probes = [ref_probe() for _ in range(SETUP_PROBES)]
    t0 = perf_counter()
    np, q = _imports()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    prepared = prepare(q, args.workload, specs, scen_dir)
    raw_setup_s = perf_counter() - t0
    probes += [ref_probe() for _ in range(SETUP_PROBES)]
    setup = {"setup_s": reference_setup_time(raw_setup_s, probes), "raw_setup_s": raw_setup_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import resource

    warm = run_loop(prepared, None, WARMUP[args.workload])
    if tracer is not None:
        tracer.reset()
    # the request list and contexts live for the whole run; keep the cyclic
    # collector from rescanning them inside timed requests
    gc.collect()
    gc.freeze()
    loop = run_loop(prepared, args.seconds, args.count, tracer, start=warm.done, outputs=warm.outputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outputs, executed = loop.outputs, warm.done + loop.done
    work, ref_lat = loop.reference_times()
    result = dict(setup, done=loop.done, attempted=executed, wall_s=work, raw_wall_s=loop.wall, peak_rss_mb=peak_rss_mb,
                  probes=len(loop.probes), probe_median_s=statistics.median(loop.probes))
    result.update(latency_stats(loop.lat, TAIL_PCT[args.workload], prefix="raw_"))
    result.update(latency_stats(ref_lat, TAIL_PCT[args.workload]))
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics(loop.wall)
        tracer.save(args.trace)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        bad = check(q, np, args.workload, specs, outputs, executed, args.seed)
    L = len(specs)
    failed = {**warm.errors, **loop.errors}
    for i in range(executed):
        if i not in failed and i % L in bad:
            failed[i] = bad[i % L]
    result["failed"] = len(failed)
    result["failures"] = [f"#{i} {specs[i % L][0]}: {r}" for i, r in sorted(failed.items())[:10]]
    result["digest"] = digest(np, outputs, executed)
    result["env"] = environment(np)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
