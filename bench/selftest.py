"""Self-tests of the benchmark harness.

    python3 bench/selftest.py            # or: python3 -m pytest bench/selftest.py

They check that request streams follow the seed, that tracing changes no
output, that the tracer puts back every binding it patched, that layer self
times and harness time add up to the traced wall time, that times are
rescaled by the reference probes as documented in worker.py, and that
BENCHMARK.json lists the metrics the harness reports.  The file name keeps
the tier-1 suite from collecting it.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(HERE), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import tracer  # noqa: E402
import workloads  # noqa: E402

# small request counts that still touch every request kind of a workload
COUNTS = {"closed": 400, "sweep": 40, "scenarios": 12}


def test_same_seed_same_requests():
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, 7) == workloads.generate(w, 7), w


def test_other_seed_other_requests():
    for w in workloads.WORKLOADS:
        a, b = workloads.generate(w, 7), workloads.generate(w, 8)
        assert len(a) == len(b) and a != b, w
        assert sum(x != y for x, y in zip(a, b)) > 0.9 * len(a), w


def _worker(w: str, out_dir: Path, *extra: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", w, "--seed", "3",
           "--out-dir", str(out_dir), "--count", str(COUNTS[w]), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          env=env, cwd=str(ROOT))
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_and_untraced_outputs_identical():
    out = ROOT / ".bench_out" / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    for w in workloads.WORKLOADS:
        plain = _worker(w, out)
        traced = _worker(w, out, "--trace", str(out / f"selftest-{w}.npz"))
        assert plain["done"] == traced["done"] == COUNTS[w]
        assert plain["failed"] == traced["failed"] == 0, (plain["failures"], traced["failures"])
        assert plain["digest"] == traced["digest"], w
        lay = traced["layers"]
        layer_self = [lay[f"{layer}.self_s"] for layer in tracer.LAYERS]
        assert math.isclose(sum(layer_self) + lay["harness.self_s"], lay["trace.wall_s"], rel_tol=1e-9), w
        assert lay["harness.self_s"] >= 0.0 and min(layer_self) >= 0.0, lay


def _bindings(mods) -> dict:
    """Every (container, key) -> value a tracer could patch, by identity."""
    snap = {}
    for mod in mods:
        for k, v in vars(mod).items():
            snap[(id(mod), k)] = v
            if isinstance(v, dict) and not k.startswith("__"):
                for kk, vv in v.items():
                    snap[(id(v), kk)] = vv
    basis = sys.modules["qladder.fockoracle"].MultiModeBasis
    snap[(id(basis), "__init__")] = basis.__dict__["__init__"]
    return snap


def test_uninstall_restores_every_binding():
    import importlib

    import qladder

    mods = [qladder] + [importlib.import_module(f"qladder.{m}") for m in tracer.LAYERS]
    before = _bindings(mods)
    tr = tracer.Tracer()
    tr.install()
    try:
        patched = tr.patched
        assert len(patched) > 100
        assert qladder.propagator.gauss_rule is not before[(id(qladder.propagator), "gauss_rule")]
        assert qladder.cli._COMMANDS["amplifier"] is not before[(id(qladder.cli._COMMANDS), "amplifier")]
        js = qladder.orthopoly.recurrence(qladder.orthopoly.laguerre_data(2.0))
        js.b(3)
        assert tr.counts.get("orthopoly.ladder_coeff") == 1
    finally:
        tr.uninstall()
    after = _bindings(mods)
    changed = [k for k in before if after.get(k) is not before[k]]
    assert not changed, changed
    assert not tr.patched


def test_reference_rescaling():
    import worker

    nominal = worker.REF_NOMINAL_S
    # the host turns twice as slow after the third probe
    f = worker.speed_factors([nominal] * 3 + [2 * nominal] * 7)
    assert f[0] == 1.0 and f[-1] == 0.5
    loop = worker.Loop([None])
    loop.lat.extend([0.010, 0.020, 0.030])
    loop.seg.extend([0, 0, 1])
    loop.seg_wall.extend([0.040, 0.060])
    loop.probes.extend([2 * nominal, 2 * nominal])
    work, lat = loop.reference_times()
    assert math.isclose(loop.wall, 0.100) and math.isclose(work, 0.050)
    assert lat == [0.005, 0.010, 0.015]
    assert math.isclose(worker.reference_setup_time(0.5, [2 * nominal] * 3), 0.25)


def test_benchmark_json_lists_the_reported_metrics():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (n, u, b) for n, u, b, _ in tracer.LAYER_METRICS]


def main() -> int:
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:  # report every test, then fail
                failed += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
