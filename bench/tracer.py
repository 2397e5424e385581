"""Span tracing of qladder's layers from outside the package.

``Tracer.install`` wraps each layer's public functions (the module's
``__all__``, or its non-underscore functions when it has none) at every
module binding where they are looked up: the defining module, every module
that imported them with ``from .x import f``, and module-level dicts such as
the CLI's command table.  It also wraps the scipy eigensolvers bound in
``measure`` and ``fockoracle``, the ``b``/``h`` callables of each
``JacobiSystem`` that ``recurrence`` returns, and
``propagator._weighted_poly_matrix`` (one call per evolution attempt).
``uninstall`` puts every original back.

A timed wrapper records one span: name, start, end, parent span and request
id, in flat arrays that stay in memory until ``save``.  Hot scalar callables
(``specfun.ln_gamma``, ``orthopoly.log_weight_mass`` and the ladder
coefficients) are only counted; their time falls to the calling span.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("specfun", "orthopoly", "reduction", "measure", "propagator",
          "coherent", "observables", "fockoracle", "cli")

# Per-layer metrics: (name, unit, better, the end-to-end metric and workload
# it should move).  BENCHMARK.json lists the same names in the same order.
LAYER_METRICS = (
    ("specfun.calls", "count", "lower", "requests_per_s, latency_p50_ms on closed; no change on sweep"),
    ("specfun.self_s", "s", "lower", "requests_per_s, latency_p50_ms on closed; no change on sweep"),
    ("orthopoly.self_s", "s", "lower", "requests_per_s on closed"),
    ("orthopoly.ladder_coeff_calls", "count", "lower", "requests_per_s on sweep and scenarios"),
    ("reduction.self_s", "s", "lower", "requests_per_s on scenarios (small share)"),
    ("measure.self_s", "s", "lower", "latency_tail_ms, requests_per_s on sweep; requests_per_s on scenarios"),
    ("measure.gauss_rule.calls", "count", "lower", "latency_tail_ms, requests_per_s on sweep; near 0 on closed"),
    ("measure.gauss_rule.nodes_total", "count", "lower", "latency_tail_ms, requests_per_s on sweep"),
    ("measure.gauss_rule.max_nodes", "count", "lower", "latency_tail_ms on sweep"),
    ("measure.gauss_rule.computed_ops", "count", "lower", "latency_tail_ms, requests_per_s on sweep"),
    ("measure.gauss_rule.self_s", "s", "lower", "latency_tail_ms, requests_per_s on sweep"),
    ("propagator.closed.calls", "count", "lower", "latency_p50_ms on closed"),
    ("propagator.closed.self_s", "s", "lower", "latency_p50_ms on closed"),
    ("propagator.quad.calls", "count", "lower", "latency_p50_ms on sweep"),
    ("propagator.quad.self_s", "s", "lower", "latency_p50_ms on sweep (moves with the BLAS thread policy)"),
    ("propagator.self_s", "s", "lower", "latency_p50_ms on closed and sweep"),
    ("propagator.route_closed_frac", "ratio", "higher", "latency_tail_ms on sweep"),
    ("propagator.rule_builds_per_quad_call", "ratio", "lower", "requests_per_s on sweep (near 1); well below 1 on scenarios"),
    ("coherent.self_s", "s", "lower", "requests_per_s on closed"),
    ("coherent.coeffs_len_total", "count", "lower", "requests_per_s on closed"),
    ("observables.self_s", "s", "lower", "requests_per_s on sweep"),
    ("observables.amplitudes_len_total", "count", "lower", "requests_per_s on sweep"),
    ("observables.amplitude_attempts_per_call", "ratio", "lower", "latency_tail_ms on sweep"),
    ("fockoracle.self_s", "s", "lower", "requests_per_s on scenarios"),
    ("fockoracle.dense_dim_total", "count", "lower", "requests_per_s on scenarios"),
    ("fockoracle.eig_builds", "count", "lower", "requests_per_s on scenarios"),
    ("fockoracle.eig_hit_frac", "ratio", "higher", "peak_rss_mb on scenarios"),
    ("cli.self_s", "s", "lower", "latency_p50_ms on scenarios"),
    ("harness.self_s", "s", "lower", "time outside every layer span; with the layer self times it sums to trace.wall_s"),
    ("trace.wall_s", "s", "lower", "wall time of the traced loop"),
    ("trace.requests", "count", "higher", "requests in the traced loop (the untraced run's count)"),
    ("trace.overhead_frac", "ratio", "lower", "traced / untraced wall time - 1 over the same requests"),
    ("blas1.requests_per_s", "1/s", "higher", "diagnostic: traced pass with OPENBLAS_NUM_THREADS=1, not gated"),
    ("blas1.latency_p50_ms", "ms", "lower", "diagnostic: traced pass with OPENBLAS_NUM_THREADS=1, not gated"),
    ("blas1.wall_ratio", "ratio", "lower", "diagnostic: 1-thread traced wall / default traced wall"),
)

_COUNT_ONLY = {"specfun.ln_gamma", "orthopoly.log_weight_mass"}
_CLOSED = {"propagator.char_fn", "propagator.sigma_n", "propagator.sigma_mn_closed"}
_QUAD = {"propagator.sigma_mn_quad", "propagator.sigma_row", "propagator.evolve"}
_EIG = {"fockoracle.scipy.eigh", "fockoracle.scipy.eigh_tridiagonal"}
_EIG_LOOKUPS = {"fockoracle.expm_evolve", "fockoracle.eigh_evolve"}


def _public_functions(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for n in names:
        f = getattr(mod, n, None)
        if inspect.isfunction(f) and f.__module__ == mod.__name__:
            yield n, f


class Tracer:
    """Patches qladder in place; one instance per process, single thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.request = -1
        self.counts: dict[str, int] = {}
        self.sums: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self._patches: list = []  # (container, key, original, is_dict)

    # -- recording ------------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def reset(self) -> None:
        """Drop spans and counters recorded so far (set-up calls)."""
        for a in (self.name, self.parent, self.req, self.start, self.end):
            del a[:]
        self.counts.clear()
        self.sums.clear()
        self.maxima.clear()

    def _add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value
        if value > self.maxima.get(key, -1.0):
            self.maxima[key] = value

    def _timed(self, orig, name: str, post=None):
        nid = self._id(name)
        tr = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stack = tr.stack
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.req.append(tr.request)
            tr.start.append(0.0)
            tr.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
            if post is not None:
                out = post(args, kwargs, out)
            return out

        return wrapper

    def _counted(self, orig, name: str):
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return orig(*args, **kwargs)

        return wrapper

    # -- result hooks ---------------------------------------------------------

    def _post_recurrence(self, args, kwargs, js):
        return dataclasses.replace(js, b=self._counted(js.b, "orthopoly.ladder_coeff"),
                                   h=self._counted(js.h, "orthopoly.ladder_coeff"))

    def _post_gauss_rule(self, args, kwargs, rule):
        n = len(rule.nodes)
        self._add("gauss_rule.nodes", n)
        self._add("gauss_rule.ops", float(n) * n)
        return rule

    def _post_len(self, key):
        def post(args, kwargs, out):
            self._add(key, len(out))
            return out
        return post

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        import qladder

        mods = {m: importlib.import_module(f"qladder.{m}") for m in LAYERS}
        posts = {
            "orthopoly.recurrence": self._post_recurrence,
            "measure.gauss_rule": self._post_gauss_rule,
            "coherent.coherent_coeffs": self._post_len("coherent_coeffs.len"),
            "observables.ladder_amplitudes": self._post_len("ladder_amplitudes.len"),
            "fockoracle.dense_matrix": self._post_len("dense_matrix.dim"),
        }
        wrapped = {}  # id(original) -> wrapper
        for layer, mod in mods.items():
            for fname, f in _public_functions(mod):
                name = f"{layer}.{fname}"
                if name in _COUNT_ONLY:
                    wrapped[id(f)] = self._counted(f, name)
                else:
                    wrapped[id(f)] = self._timed(f, name, posts.get(name))
        wpm = mods["propagator"]._weighted_poly_matrix
        wrapped[id(wpm)] = self._timed(wpm, "propagator._weighted_poly_matrix")
        for mod in list(mods.values()) + [qladder]:
            for key, val in list(vars(mod).items()):
                if id(val) in wrapped:
                    self._patch(mod, key, wrapped[id(val)])
                elif isinstance(val, dict) and not key.startswith("__"):
                    for k, v in list(val.items()):
                        if id(v) in wrapped:
                            self._patch(val, k, wrapped[id(v)])
        # foreign eigensolvers, charged to the module that binds them
        for layer, attr in (("measure", "eigh_tridiagonal"), ("fockoracle", "eigh"),
                            ("fockoracle", "eigh_tridiagonal")):
            mod = mods[layer]
            self._patch(mod, attr, self._timed(getattr(mod, attr), f"{layer}.scipy.{attr}"))
        basis = mods["fockoracle"].MultiModeBasis
        self._patch(basis, "__init__", self._timed(basis.__init__, "fockoracle.MultiModeBasis"))

    def _patch(self, container, key, new) -> None:
        if isinstance(container, dict):
            self._patches.append((container, key, container[key], True))
            container[key] = new
        else:
            self._patches.append((container, key, getattr(container, key), False))
            setattr(container, key, new)

    def uninstall(self) -> None:
        for container, key, orig, is_dict in reversed(self._patches):
            if is_dict:
                container[key] = orig
            else:
                setattr(container, key, orig)
        self._patches.clear()

    @property
    def patched(self) -> list:
        """(container, key, original) of every binding currently replaced."""
        return [(c, k, o) for c, k, o, _ in self._patches]

    # -- analysis -------------------------------------------------------------

    def spans(self) -> dict:
        n = len(self.start)
        return {
            "name": np.frombuffer(self.name, dtype=np.int32, count=n),
            "parent": np.frombuffer(self.parent, dtype=np.int32, count=n),
            "req": np.frombuffer(self.req, dtype=np.int32, count=n),
            "start": np.frombuffer(self.start, dtype=np.float64, count=n),
            "end": np.frombuffer(self.end, dtype=np.float64, count=n),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the spans recorded over a loop of ``wall_s``."""
        sp = self.spans()
        name, parent = sp["name"], sp["parent"]
        dur = sp["end"] - sp["start"]
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_t = dur - child  # children of one span never overlap: one thread
        span_name = np.array(self.names, dtype=object)[name]
        span_layer = np.array([n.split(".")[0] for n in self.names], dtype=object)[name]

        def among(names) -> np.ndarray:
            return np.isin(span_name, list(names))

        m = {f"{layer}.self_s": float(self_t[span_layer == layer].sum()) for layer in LAYERS}
        m["specfun.calls"] = int(np.count_nonzero(span_layer == "specfun")) + self.counts.get("specfun.ln_gamma", 0)
        m["orthopoly.ladder_coeff_calls"] = self.counts.get("orthopoly.ladder_coeff", 0)
        gr = span_name == "measure.gauss_rule"
        m["measure.gauss_rule.calls"] = int(gr.sum())
        m["measure.gauss_rule.nodes_total"] = int(self.sums.get("gauss_rule.nodes", 0))
        m["measure.gauss_rule.max_nodes"] = int(self.maxima.get("gauss_rule.nodes", 0))
        m["measure.gauss_rule.computed_ops"] = int(self.sums.get("gauss_rule.ops", 0))
        m["measure.gauss_rule.self_s"] = float(self_t[gr].sum())
        closed, quad = among(_CLOSED), among(_QUAD)
        m["propagator.closed.calls"] = int(closed.sum())
        m["propagator.closed.self_s"] = float(self_t[closed].sum())
        m["propagator.quad.calls"] = int(quad.sum())
        m["propagator.quad.self_s"] = float(self_t[quad].sum())
        routed = np.flatnonzero(span_name == "propagator.sigma_mn")
        answered = (span_name == "propagator.sigma_mn_closed") & np.isin(parent, routed)
        m["propagator.route_closed_frac"] = _ratio(answered.sum(), len(routed))
        m["propagator.rule_builds_per_quad_call"] = _ratio(gr.sum(), quad.sum())
        m["coherent.coeffs_len_total"] = int(self.sums.get("coherent_coeffs.len", 0))
        m["observables.amplitudes_len_total"] = int(self.sums.get("ladder_amplitudes.len", 0))
        la = span_name == "observables.ladder_amplitudes"
        attempts = _count_under(parent, np.flatnonzero(span_name == "propagator._weighted_poly_matrix"), la)
        m["observables.amplitude_attempts_per_call"] = _ratio(attempts, la.sum())
        m["fockoracle.dense_dim_total"] = int(self.sums.get("dense_matrix.dim", 0))
        builds, lookups = among(_EIG), among(_EIG_LOOKUPS)
        m["fockoracle.eig_builds"] = int(builds.sum())
        misses = _count_under(parent, np.flatnonzero(builds), lookups)
        m["fockoracle.eig_hit_frac"] = _ratio(lookups.sum() - misses, lookups.sum())
        m["harness.self_s"] = float(wall_s - dur[~nested].sum())
        m["trace.wall_s"] = float(wall_s)
        m["trace.spans"] = int(len(dur))
        m["trace.counted_calls"] = int(sum(self.counts.values()))
        return m


def _ratio(num, den) -> float:
    """num / den, reported as 0.0 when the base is 0."""
    return float(num) / float(den) if den else 0.0


def _count_under(parent, idx, ancestor_mask) -> int:
    """How many spans in ``idx`` have an ancestor whose mask entry is set."""
    n = 0
    for i in idx:
        p = parent[i]
        while p >= 0:
            if ancestor_mask[p]:
                n += 1
                break
            p = parent[p]
    return n
