"""The benchmark tracer patches private names of the package; renaming one
must fail here, not only in traced benchmark runs."""

import importlib.util
import pkgutil
from pathlib import Path

import qladder
from qladder import fockoracle, measure, orthopoly, propagator, specfun

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _hooks() -> dict:
    return {
        "propagator._weighted_poly_matrix": propagator._weighted_poly_matrix,
        "measure.gauss_rule": measure.gauss_rule,
        "measure.eigh_tridiagonal": measure.eigh_tridiagonal,
        "fockoracle.eigh": fockoracle.eigh,
        "fockoracle.eigh_tridiagonal": fockoracle.eigh_tridiagonal,
        # the eigendecomposition lookups behind fockoracle.eig_hit_frac
        "fockoracle.expm_evolve": fockoracle.expm_evolve,
        "fockoracle.eigh_evolve": fockoracle.eigh_evolve,
        "orthopoly.recurrence": orthopoly.recurrence,
        # the span behind specfun.self_s, and the binding the Jacobi
        # reproducing density calls
        "specfun.log_whittaker_w": specfun.log_whittaker_w,
        "orthopoly.log_whittaker_w": orthopoly.log_whittaker_w,
        "fockoracle.MultiModeBasis.__init__": fockoracle.MultiModeBasis.__init__,
    }


def test_tracer_wraps_its_hooks_and_puts_the_originals_back():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    before = _hooks()
    tr = tracer.Tracer()
    try:
        tr.install()
        assert [k for k, f in _hooks().items() if f is before[k]] == []
    finally:
        tr.uninstall()
    assert [k for k, f in _hooks().items() if f is not before[k]] == []


def test_every_exported_name_resolves():
    # the tracer reads __all__ through getattr(mod, name, None), so a stale
    # entry would drop a layer hook without a failure
    stale = []
    for info in pkgutil.iter_modules(qladder.__path__):
        if info.name != "__main__":
            mod = importlib.import_module(f"qladder.{info.name}")
            stale += [f"{info.name}.{n}" for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert stale == []
