"""Seeded request streams for the three benchmark workloads.

Standard library only: the worker imports this module before it starts the
set-up clock, so nothing here may pull in numpy or qladder.

A request is a plain tuple.  Families are ``("hermite", a1, b0)``,
``("laguerre", mu)`` or ``("jacobi", mu, nu)`` on [-1, 1]; states are
``("number", n)``, ``("gaussian", zeta)``, ``("fock", coeffs)`` or
``("spectral", z)``.  Scenario requests carry the INI text and the CLI
arguments instead.

Every stream is a sequence of blocks.  A block holds a fixed multiset of
request templates in a seeded order, and each continuous parameter is drawn
from equal-width bins visited in a seeded permutation.  Every run therefore
sees the same mix of costs whatever the seed, which keeps run-to-run spread
small while the inputs still differ from seed to seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("closed", "sweep", "scenarios")
KINDS = ("hermite", "laguerre", "jacobi")

# Requests generated per stream; a run that gets through them all starts
# over from the beginning (no workload has caches large enough to notice).
STREAM_LEN = {"closed": 30000, "sweep": 4000, "scenarios": 520}


class Strata:
    """Stratified uniform draws: each key cycles through shuffled bins."""

    def __init__(self, rng: random.Random, bins: int = 8):
        self.rng = rng
        self.bins = bins
        self.queues: dict = {}

    def uniform(self, key, lo: float, hi: float) -> float:
        q = self.queues.get(key)
        if not q:
            q = list(range(self.bins))
            self.rng.shuffle(q)
            self.queues[key] = q
        b = q.pop()
        return lo + (hi - lo) * (b + self.rng.random()) / self.bins

    def integer(self, key, lo: int, hi: int) -> int:
        """Integer in [lo, hi], stratified like ``uniform``."""
        return min(hi, int(self.uniform(key, lo, hi + 1)))


class Cycle:
    """Visits a pool in seeded order, every member once per round."""

    def __init__(self, rng: random.Random, pool: list):
        self.rng = rng
        self.pool = list(pool)
        self.queue: list = []

    def next(self):
        if not self.queue:
            self.queue = list(self.pool)
            self.rng.shuffle(self.queue)
        return self.queue.pop()


def draw_family(s: Strata, kind: str, key=(), lo: float = 0.6):
    """A family from the stated parameter ranges, mu and nu drawn from [lo, 4]."""
    k = (kind,) + tuple(key)
    if kind == "hermite":
        return ("hermite", s.uniform(k + ("a1",), -3.0, -1.0), s.uniform(k + ("b0",), 0.5, 2.0))
    if kind == "laguerre":
        return ("laguerre", s.uniform(k + ("mu",), lo, 4.0))
    return ("jacobi", s.uniform(k + ("mu",), lo, 4.0), s.uniform(k + ("nu",), lo, 4.0))


def _cplx(s: Strata, key, re: tuple, im: tuple) -> complex:
    return complex(s.uniform((key, "re"), *re), s.uniform((key, "im"), *im))


def _degrees(s: Strata, key, lo: int, hi: int) -> tuple[int, int]:
    total = s.integer((key, "m+n"), lo, hi)
    m = s.rng.randint(0, total)
    return m, total - m


def _state(s: Strata, key, which: str):
    rng = s.rng
    if which == "number":
        return ("number", s.integer((key, "n"), 0, 8))
    if which == "gaussian":
        r = s.uniform((key, "r"), 0.0, 2.0)
        return ("gaussian", complex(r * rng.uniform(-1, 1), r * rng.uniform(-1, 1)) / 1.4142135623730951)
    size = rng.randint(2, 4)
    return ("fock", tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(size)))


# -- closed -------------------------------------------------------------------


# Highest m + n of closed-route sigma_mn requests.  sigma_mn uses the closed
# form up to 24 for every family, but the Jacobi double sum warns of
# cancellation in 16-58% of draws at 20 <= m + n <= 24, and a benchmark run must
# not fail; those degrees wait for a routing fix.
_CLOSED_DEGREE = {"hermite": 24, "laguerre": 24, "jacobi": 18}


def _closed_block(s: Strata, pools: dict) -> list:
    rng = s.rng
    out = []
    for kind in KINDS:
        fam = pools[kind].next()
        k = (kind,)
        top = _CLOSED_DEGREE[kind]
        m, n = _degrees(s, k + ("sr",), 0, top)
        out.append(("sigma_mn", fam, m, n, complex(s.uniform(k + ("sr", "t"), 0.1, 3.0), 0.0)))
        m, n = _degrees(s, k + ("sc",), 0, top)
        out.append(("sigma_mn", fam, m, n, _cplx(s, k + ("sc",), (0.1, 3.0), (-0.5, 0.4))))
        out.append(("sigma_n", fam, s.integer(k + ("sn",), 0, 24), _cplx(s, k + ("sn",), (0.1, 3.0), (-0.5, 0.4))))
        out.append(("char_fn", fam, _cplx(s, k + ("cf",), (0.1, 8.0), (-0.5, 0.4))))
        out.append(("kernel", fam, _cplx(s, k + ("kz",), (-2.0, 2.0), (-0.5, 0.3)),
                    _cplx(s, k + ("kv",), (-2.0, 2.0), (-0.5, 0.3))))
        out.append(("coherent_coeffs", fam, _cplx(s, k + ("cc",), (-1.5, 1.5), (-0.3, 0.3))))
        out.append(("mean_energy", fam, s.uniform(k + ("me",), -0.5, 0.4)))
        out.append(("reproducing_density", pools[kind + "+"].next(), s.uniform(k + ("rd",), -1.0, 0.4)))
        if kind != "jacobi":  # the closed cross-check exists for these two
            out.append(("number_moment", fam, ("spectral", _cplx(s, k + ("nm",), (-1.0, 1.0), (-0.3, 0.3))),
                        s.integer(k + ("nm", "l"), 1, 3), s.uniform(k + ("nm", "t"), 0.0, 2.0)))
        which = rng.choice(("number", "spectral", "fock"))
        state = ("spectral", _cplx(s, k + ("am",), (-1.0, 1.0), (-0.3, 0.3))) if which == "spectral" else _state(s, k + ("am",), which)
        out.append(("alpha_moment", fam, state, s.integer(k + ("am", "l"), 1, 3), s.uniform(k + ("am", "t"), -2.0, 2.0)))
    out.append(("amplifier_mean_photon", _cplx(s, ("amp", "z0"), (-1, 1), (-1, 1)),
                _cplx(s, ("amp", "z1"), (-1, 1), (-1, 1)), s.uniform(("amp", "g"), 0.2, 2.0),
                s.uniform(("amp", "t"), 0.0, 2.0)))
    rng.shuffle(out)
    return out


# -- sweep --------------------------------------------------------------------

# Laguerre requests stop at t = 2, and Laguerre observables, which size their
# amplitude vectors by doubling (kmax in ladder_amplitudes, K in evolve), use
# mu >= 1.5.  Outside that the doublings make a request's cost and memory jump
# with mu and t: Number(1) at mu = 0.63, t = 1.88 takes 5.5 s and 2 GB; evolve
# at mu < 1.3 and t = 0.5-2 can double up to 8192 levels (4-8 s, ~3 GB) and
# raise ConvergenceError with a unitarity deficit near 1e-11.  Peak RSS and
# throughput would depend on what a seed draws, and runs could fail.
_T_MAX = {"hermite": 3.0, "laguerre": 2.0, "jacobi": 5.0}
_AMPLITUDE_MU_MIN = {"hermite": 0.6, "laguerre": 1.5, "jacobi": 0.6}
_OBSERVABLES = ("number_moment", "correlation", "cluster_correlation")


def _sweep_block(s: Strata) -> list:
    rng = s.rng
    out = []
    for kind in KINDS:
        for which in ("number", "gaussian", "fock"):
            k = (kind, which)
            obs = rng.choice(_OBSERVABLES)
            if obs == "number_moment":
                args = (rng.randint(1, 2),)
            else:
                args = (rng.randint(0, 2), rng.randint(0, 2))
            out.append(("observable", draw_family(s, kind, ("obs", which), _AMPLITUDE_MU_MIN[kind]), _state(s, k, which), obs, args,
                        s.uniform(k + ("t",), 0.2, _T_MAX[kind])))
        out.append(("sigma_row", draw_family(s, kind, ("row",)), s.integer((kind, "row", "n"), 0, 8),
                    s.uniform((kind, "row", "t"), 0.2, _T_MAX[kind]), s.integer((kind, "kmax"), 50, 200)))
        m, n = _degrees(s, (kind, "quad"), 25, 48)
        out.append(("sigma_mn", draw_family(s, kind, ("quad",)), m, n,
                    complex(s.uniform((kind, "quad", "t"), 0.2, _T_MAX[kind]), 0.0)))
    rng.shuffle(out)
    return out


# -- scenarios ----------------------------------------------------------------


def _family_ini(fam) -> str:
    if fam[0] == "hermite":
        return f"[family]\nkind = hermite\na1 = {fam[1]!r}\nb0 = {fam[2]!r}\n"
    if fam[0] == "laguerre":
        return f"[family]\nkind = laguerre\nmu = {fam[1]!r}\n"
    return f"[family]\nkind = jacobi\na = -1.0\nb = 1.0\nmu = {fam[1]!r}\nnu = {fam[2]!r}\n"


def _grid_ini(t1: float, steps: int) -> str:
    return f"[grid]\nt0 = 0.0\nt1 = {t1!r}\nsteps = {steps}\n"


def _c(z: complex) -> str:
    return f"{z.real!r}{z.imag:+.17g}j"


_HEAD = "[scenario]\nschema_version = 1\n\n"
_EXPECT_OBS = ("h_expectation", "number_moment:1", "number_moment:2", "correlation:0:1",
               "cluster_correlation:1:1", "alpha_moment:1", "alpha_dispersion", "total_energy")
_SPECTRUM_RANGE = {"hermite": (-4.0, 4.0), "laguerre": (0.0, 12.0), "jacobi": (-1.0, 1.0)}
_AMPLIFIER_TRUNCATIONS = (20, 25, 29, 34)


def _scenarios_block(s: Strata, families: dict, amplifiers: Cycle, states: dict, observables: Cycle) -> list:
    """Thirteen CLI runs over the seed's few systems, so oracle and rule caches
    are reread: per family kind one propagate, one expect and one spectrum,
    then one amplifier and three reductions.  Each kind draws its own strata,
    so every seed gets the same spread of costs for each kind."""
    rng = s.rng
    out = []
    for kind in KINDS:
        # grids end by t = 1.5: a Laguerre propagate to t = 2 costs 3-10 times
        # more (its amplitude vectors double), and the few such runs would set
        # the throughput
        fam = families[kind].next()
        pairs = ", ".join(f"{s.integer((kind, 'pair_m'), 0, 4)}:{s.integer((kind, 'pair_n'), 0, 4)}"
                          for _ in range(s.integer((kind, "pairs"), 2, 4)))
        ini = (_HEAD + _family_ini(fam) + f"\n[propagate]\npairs = {pairs}\n\n"
               + _grid_ini(s.uniform((kind, "prop_t1"), 0.5, 1.5), s.integer((kind, "prop_steps"), 4, 8)))
        out.append(("scenario", "propagate", ini, ("--oracle",)))

        fam = families[kind].next()
        which = states[kind].next()
        oracle = ("--oracle",)
        if which == "spectral":
            # no oracle: its start vector asks coherent_coeffs for a 1e-15
            # squared tail, which rounding can keep out of reach (ConvergenceError)
            oracle = ()
            state = f"kind = spectral\nz = {_c(complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.3, 0.3)))}\n"
        else:
            st = _state(s, (kind, "exp_state"), which)
            if which == "number":
                state = f"kind = number\nn = {st[1]}\n"
            elif which == "gaussian":
                state = f"kind = gaussian\nzeta = {_c(st[1])}\n"
            else:
                state = "kind = fock\ncoeffs = " + ", ".join(_c(c) for c in st[1]) + "\n"
        obs = ", ".join(sorted({observables.next() for _ in range(s.integer((kind, "observables"), 3, 6))}))
        ini = (_HEAD + _family_ini(fam) + "\n[state]\n" + state
               + f"\n[expect]\nobservables = {obs}\npicture = interaction\n"
               + "truncation = 400\n\n"
               + _grid_ini(s.uniform((kind, "exp_t1"), 0.5, 1.5), s.integer((kind, "exp_steps"), 4, 6)))
        out.append(("scenario", "expect", ini, oracle))

        fam = families[kind].next()
        lo, hi = _SPECTRUM_RANGE[kind]
        ini = (_HEAD + _family_ini(fam) + f"\n[spectrum]\nomega_min = {lo!r}\nomega_max = {hi!r}\n"
               + f"points = {s.integer((kind, 'spec_points'), 41, 121)}\nmoments = {s.integer((kind, 'spec_moments'), 4, 8)}\n")
        out.append(("scenario", "spectrum", ini, ()))
    gain, trunc = amplifiers.next()
    z0 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    z1 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    ini = (_HEAD + f"[amplifier]\nzeta0 = {_c(z0)}\nzeta1 = {_c(z1)}\ng = {gain!r}\ntruncation = {trunc}\n\n"
           + _grid_ini(s.uniform("amp_t1", 0.3, 0.8 / gain), s.integer("amp_steps", 4, 6)))
    out.append(("scenario", "amplifier", ini, ()))
    for l in ((1, 1), (1, -1), (2, 1)):
        omega = ", ".join(repr(rng.uniform(0.5, 2.0)) for _ in l)
        g = _c(complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
        start = ", ".join(str(rng.randint(0, 6)) for _ in l)
        ini = (_HEAD + f"[multimode]\nomega = {omega}\nl = {l[0]}, {l[1]}\ng = {g}\nstart = {start}\n")
        out.append(("scenario", "reduce", ini, ()))
    rng.shuffle(out)
    return out


def generate(workload: str, seed: int) -> list:
    """The request stream of ``workload`` for ``seed`` (same seed, same list)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"qladder-bench/{workload}/{seed}")
    s = Strata(rng)
    n = STREAM_LEN[workload]
    out: list = []
    if workload == "closed":
        s4, s2 = Strata(rng, bins=4), Strata(rng, bins=2)
        pools = {kind: Cycle(rng, [draw_family(s4, kind) for _ in range(4)]) for kind in KINDS}
        # the reproducing measure needs mu > 1 (Laguerre), mu, nu >= 1 and mu + nu > 3 (Jacobi)
        pools.update({kind + "+": Cycle(rng, [draw_family(s2, kind, lo=1.6) for _ in range(2)]) for kind in KINDS})
        while len(out) < n:
            out += _closed_block(s, pools)
    elif workload == "sweep":
        while len(out) < n:
            out += _sweep_block(s)
    else:
        # a few systems per seed, each run many times: a user exploring them
        s4, s8 = Strata(rng, bins=4), Strata(rng, bins=8)
        families = {kind: Cycle(rng, [draw_family(s8, kind, lo=_AMPLITUDE_MU_MIN[kind]) for _ in range(8)])
                    for kind in KINDS}
        # the two-mode oracle's memory grows with the truncation squared, so
        # every seed gets the same truncations, each with a seeded gain
        amplifiers = Cycle(rng, [(s4.uniform("gain", 0.5, 1.5), trunc) for trunc in _AMPLIFIER_TRUNCATIONS])
        states = {kind: Cycle(rng, ["number", "gaussian", "fock", "spectral"]) for kind in KINDS}
        observables = Cycle(rng, _EXPECT_OBS)
        while len(out) < n:
            out += _scenarios_block(s, families, amplifiers, states, observables)
    return out[:n]
