"""qladder benchmark: one command per workload, end-to-end or traced.

    python3 bench/run.py --workload closed --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 1

Run it from anywhere inside a checkout that has ``src/qladder``; it never
installs anything.  Every workload is a closed loop with one client thread in
a fresh Python process (``worker.py``), fed with a request stream made from
``--seed`` (``workloads.py``).

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
is the median over a few fresh processes that only import qladder and build
the workload's contexts, plus the loop process itself.

Every time reported in a metric is rescaled to a reference host speed: the
processes run a fixed pure-Python reference computation before and after
set-up and between requests, and each stretch of time is scaled by how much
slower than nominal that computation ran around it (see ``worker.py``).  A
shared host changes speed by up to 1.7x in phases of tens of seconds, which
would otherwise set the run-to-run spread.  The raw wall-clock figures are
printed beside the metrics as ``raw.*``.

``--trace 1`` runs the untraced loop, then the same requests traced in a
fresh process (``tracer.py``), then once more traced with
``OPENBLAS_NUM_THREADS=1`` as the single-threaded reference.  It reports the
per-layer metrics and ``trace.overhead_frac``.

The harness does not set any BLAS thread variable for the measured runs: a
thread policy inside the program shows up as a change, and the inherited
values are printed with the environment record.  Spans, scenario files and a
JSON report go to ``.bench_out/`` in the checkout.  The last stdout line is
the result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402  (stdlib + numpy only)
from worker import REF_NOMINAL_S  # noqa: E402

SETUP_PROCESSES = 4  # set-up-only processes per run, besides the loop process
DEADLINE = time.monotonic() + 170.0  # a run must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def _worker(args: list, extra_env: dict | None = None) -> dict:
    """Run worker.py in a fresh interpreter on the checkout's sources; return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(extra_env or {})
    cmd = [sys.executable, str(HERE / "worker.py"), "--out-dir", str(OUT)] + args
    try:
        proc = subprocess.run(cmd, env=env, cwd=str(ROOT), capture_output=True, text=True,
                              timeout=max(1.0, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker stopped at the run's time limit: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode}): {' '.join(args)}\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    common = ["--workload", workload, "--seed", str(seed)]
    # set-up samples before and after the loop, so one slow phase of a shared
    # machine does not set the median
    setup = [common + ["--setup-only"]] * (SETUP_PROCESSES // 2)
    samples = [_worker(a) for a in setup]
    run = _worker(common + ["--seconds", str(seconds)])
    samples += [run] + [_worker(a) for a in setup]
    setups = [s["setup_s"] for s in samples]
    metrics = {
        "setup_s": statistics.median(setups),
        "requests_per_s": run["done"] / run["wall_s"],
        "latency_p50_ms": run["latency_p50_s"] * 1e3,
        "latency_tail_ms": run["latency_tail_s"] * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    run["setup_samples_s"] = setups
    run["raw"] = {
        "setup_s": statistics.median(s["raw_setup_s"] for s in samples),
        "requests_per_s": run["done"] / run["raw_wall_s"],
        "latency_p50_ms": run["raw_latency_p50_s"] * 1e3,
        "latency_tail_ms": run["raw_latency_tail_s"] * 1e3,
    }
    return metrics, run


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    common = ["--workload", workload, "--seed", str(seed)]
    ref = _worker(common + ["--seconds", str(seconds)])
    count = ["--count", str(ref["done"])]
    tr = _worker(common + count + ["--trace", str(OUT / f"trace-{workload}.npz")])
    one = _worker(common + count + ["--trace", str(OUT / f"trace-{workload}-blas1.npz")],
                  extra_env={"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
    layers = dict(tr["layers"])
    layers["trace.requests"] = ref["done"]
    layers["trace.overhead_frac"] = tr["wall_s"] / ref["wall_s"] - 1.0
    layers["blas1.requests_per_s"] = one["done"] / one["wall_s"]
    layers["blas1.latency_p50_ms"] = one["latency_p50_s"] * 1e3
    layers["blas1.wall_ratio"] = one["wall_s"] / tr["wall_s"]
    if tr["digest"] != ref["digest"]:
        tr["failures"].append("traced outputs differ from the untraced run over the same requests")
        tr["failed"] = max(1, tr["failed"])
    tr["blas1"] = {"failed": one["failed"], "digest_matches": one["digest"] == ref["digest"]}
    return layers, tr


def report(args, metrics: dict, units: dict, moves: dict, run: dict) -> None:
    """Print every metric with its unit, the environment and any failure; save a JSON copy."""
    env = dict(run["env"], seed=args.seed, workload=args.workload, git_commit=_git_commit(),
               run_seconds=args.seconds)
    attempted = run["attempted"]
    print(f"qladder benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"  {'attempted':<40} {attempted}")
    print(f"  {'failed_frac':<40} {run['failed'] / attempted:.6g}  ({run['failed']} of {attempted})")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g} {units[name]}" + (f"   -> {moves[name]}" if name in moves else ""))
    if args.trace:
        lay = run["layers"]
        print(f"  spans recorded {lay['trace.spans']}, counted-only calls {lay['trace.counted_calls']}")
        print(f"  single-thread pass: {json.dumps(run['blas1'])}")
    else:
        for name, value in run["raw"].items():
            print(f"  {'raw.' + name:<40} {value:.6g} {units[name]}   (wall clock, not rescaled)")
        print(f"  reference probe: median {run['probe_median_s'] * 1e3:.4g} ms over {run['probes']} probes"
              f" (nominal {REF_NOMINAL_S * 1e3:.4g} ms)")
        print(f"  latency_tail_ms is p{run['tail_pct']} ({run['tail_beyond']} of {run['done']} timed requests beyond it)")
    for f in run["failures"]:
        print(f"  FAILED {f}")
    record = {"env": env, "metrics": metrics, "attempted": attempted, "failed": run["failed"],
              "failures": run["failures"], "tail_pct": run.get("tail_pct"), "wall_s": run["wall_s"],
              "setup_samples_s": run.get("setup_samples_s"), "raw": run.get("raw"),
              "probe_median_s": run.get("probe_median_s")}
    (OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qladder benchmark (see module docstring)")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qladder" / "__init__.py").is_file():
        print(f"error: no qladder sources under {ROOT / 'src'}; run from a qladder checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, run = traced(args.workload, args.seed, args.seconds)
            units = {name: unit for name, unit, _, _ in LAYER_METRICS}
            moves = {name: why for name, _, _, why in LAYER_METRICS}
            metrics = {name: metrics[name] for name, *_ in LAYER_METRICS}
        else:
            metrics, run = end_to_end(args.workload, args.seed, args.seconds)
            units, moves = dict(END_TO_END), {}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(args, metrics, units, moves, run)
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
