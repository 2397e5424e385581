"""Batch front door: scenario configs to CSV/JSON tables.

A scenario is an INI file (``schema_version = 1`` under ``[scenario]``)
naming a Pearson family or a multi-mode system, a state, a time grid and
the quantities to evaluate.  Subcommands:

spectrum   density and moments of the spectral measure
propagate  propagator matrix elements over a time grid
expect     observable expectation series on a state
reduce     multi-mode sector report with family classification
amplifier  parametric-amplifier photon curve, closed form vs oracle

Every table carries a header row; observable columns are tagged with the
picture they are computed in (``@interaction`` or ``@full``).  CSV output
uses RFC-4180 quoting with deterministic 17-significant-digit floats, so
identical configs produce byte-identical files.  ``--oracle`` appends
independently computed truncated-Fock columns and a deviation column;
the exit status is 0 only when every requested tolerance holds, otherwise
a machine-readable JSON report goes to stderr.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import sys
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import observables as ob
from .errors import QladderError
from .fockoracle import MultiModeBasis, dense_matrix, eigh_evolve, expm_evolve, truncated_h
from .measure import moment, normalize
from .orthopoly import (classify, classify_ladder, hermite_data, jacobi_data, laguerre_data,
                        legendre_data)
from .propagator import build_context, sigma_mn
from .reduction import MultiModeSystem, beta_offsets, reduce as reduce_sector

SCHEMA_VERSION = 1


class CliError(Exception):
    """Configuration or usage problem, reported as JSON on stderr."""

    def __init__(self, code: str, detail: str):
        super().__init__(detail)
        self.code, self.detail = code, detail


# ----------------------------------------------------------------------
# config parsing


def load_config(path: str) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg.read_file(fh, source=path)
    except OSError as exc:
        raise CliError("config-io", f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise CliError("config-parse", f"{path}: {exc}") from exc
    if not cfg.has_section("scenario"):
        raise CliError("config-schema", f"{path}: missing [scenario] section")
    ver = cfg.get("scenario", "schema_version", fallback=None)
    if ver != str(SCHEMA_VERSION):
        raise CliError("config-schema",
                       f"{path}: [scenario] schema_version must be {SCHEMA_VERSION}, got {ver!r}")
    return cfg


def _get(cfg, section: str, key: str, cast, default=None, required: bool = False):
    if not cfg.has_option(section, key):
        if required:
            raise CliError("config-field", f"missing [{section}] {key}")
        return default
    raw = cfg.get(section, key).strip()
    try:
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise CliError(
            "config-field", f"bad value for [{section}] {key}: {raw!r} ({exc})"
        ) from exc


def _complex(raw: str) -> complex:
    return complex(raw.replace(" ", ""))


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(","))


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split(","))


def _pairs(raw: str) -> list[tuple[int, ...]]:
    pairs = [tuple(ob._check_level(x) for x in tok.split(":")) for tok in raw.split(",")]
    if any(len(p) != 2 for p in pairs):
        raise ValueError("pairs must be m:n")
    return pairs


def _complexes(raw: str) -> list[complex]:
    coeffs = [_complex(tok) for tok in raw.split(",")]
    if not any(coeffs):
        raise ValueError("all coefficients are zero")
    return coeffs


# kind -> (constructor, required keys, optional keys); the optional keys
# are passed only when the config sets them, so their defaults stay with
# the constructors.  A raw Pearson pair has no defaults of its own.
_FAMILIES = {
    "hermite": (hermite_data, (), ("a1", "a0", "b0")),
    "laguerre": (laguerre_data, ("mu",), ("a1", "b1", "b0")),
    "jacobi": (jacobi_data, ("a", "b", "mu", "nu"), ("scale",)),
    "legendre": (legendre_data, (), ()),
}


def family_from(cfg) -> "PearsonData":
    if not cfg.has_section("family"):
        raise CliError("config-field", "missing [family] section")
    kind = _get(cfg, "family", "kind", str, required=True).lower()
    if kind == "pearson":
        ctor, kw = classify, {}
        pos = [_get(cfg, "family", k, float, 0.0) for k in ("a0", "a1", "b0", "b1", "b2")]
    elif kind in _FAMILIES:
        ctor, required, optional = _FAMILIES[kind]
        pos = [_get(cfg, "family", k, float, required=True) for k in required]
        kw = {k: _get(cfg, "family", k, float) for k in optional if cfg.has_option("family", k)}
    else:
        raise CliError("config-field", f"unknown [family] kind {kind!r}")
    try:
        return ctor(*pos, **kw)
    except ValueError as exc:
        raise CliError("config-field", f"[family]: {exc}") from exc


def state_from(cfg) -> ob.QuantumState:
    if not cfg.has_section("state"):
        raise CliError("config-field", "missing [state] section")
    kind = _get(cfg, "state", "kind", str, required=True).lower()
    if kind == "number":
        return ob.Number(_get(cfg, "state", "n", ob._check_level, required=True))
    if kind == "gaussian":
        return ob.GaussianCoherent(_get(cfg, "state", "zeta", _complex, required=True))
    if kind == "spectral":
        return ob.SpectralCoherent(_get(cfg, "state", "z", _complex, required=True))
    if kind == "fock":
        return ob.Fock(_get(cfg, "state", "coeffs", _complexes, required=True))
    raise CliError("config-field", f"unknown [state] kind {kind!r}")


def grid_from(cfg) -> np.ndarray:
    t0 = _get(cfg, "grid", "t0", float, 0.0)
    t1 = _get(cfg, "grid", "t1", float, 1.0)
    steps = _get(cfg, "grid", "steps", int, 11)
    if steps < 1:
        raise CliError("config-field", "[grid] steps must be >= 1")
    if steps > 1 and t1 <= t0:
        raise CliError("config-field", "[grid] must be strictly increasing (t1 > t0)")
    return np.linspace(t0, t1, steps)


def multimode_from(cfg) -> tuple[MultiModeSystem, tuple[int, ...]]:
    if not cfg.has_section("multimode"):
        raise CliError("config-field", "missing [multimode] section")
    omega = _get(cfg, "multimode", "omega", _floats, required=True)
    l = _get(cfg, "multimode", "l", _ints, required=True)
    g = _get(cfg, "multimode", "g", _complex, 1.0 + 0j)
    h_diag = _get(cfg, "multimode", "h_diag", float, 0.0)
    start = _get(cfg, "multimode", "start", _ints, tuple(0 for _ in l))
    try:
        sysm = MultiModeSystem(omega=omega, l=l, g=g, h_diag=h_diag)
    except (ValueError, QladderError) as exc:
        raise CliError("config-field", f"[multimode]: {exc}") from exc
    if len(start) != len(l):
        raise CliError("config-field", "[multimode] start length must match l")
    return sysm, start


def tolerance(cfg, args, key: str, default: float) -> float:
    return float(args.tol) if args.tol is not None else _get(cfg, "tolerances", key, float, default)


def _check(name: str, worst: float, tol: float) -> dict:
    return {"name": name, "worst": worst, "tol": tol, "passed": worst <= tol}


def _truncation(cfg, args, section: str, default: int) -> int:
    n = args.truncation
    if n is None:
        n = _get(cfg, section, "truncation", int, default)
    if n < 1:
        raise CliError("config-field", f"oracle truncation must be >= 1, got {n}")
    return n


# ----------------------------------------------------------------------
# output assembly


def _table(name: str, columns: list, rows: list) -> dict:
    return {"name": name, "columns": columns, "rows": rows}


def _fmt(value, mode: str) -> str:
    if isinstance(value, float):
        return f"{value:.17g}" if mode == "fixed17" else repr(value)
    return str(value)


def write_csv(tables, stream, mode: str) -> None:
    writer = csv.writer(stream, lineterminator="\r\n")
    for i, table in enumerate(tables):
        if i:
            writer.writerow([])
        writer.writerow(table["columns"])
        for row in table["rows"]:
            writer.writerow([_fmt(v, mode) for v in row])


def write_json(command, tables, checks, stream) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "command": command, "tables": tables, "checks": checks}
    json.dump(doc, stream, indent=1, sort_keys=True)
    stream.write("\n")


def write_gnuplot(csv_path: str, tables, script_path: str) -> None:
    ncols = len(tables[0]["columns"])
    with open(script_path, "w", encoding="utf-8") as fh:
        fh.write('set datafile separator ","\n')
        fh.write("set key autotitle columnhead\n")
        fh.write(
            f'plot for [i=2:{ncols}] "{csv_path}" index 0 using 1:i with lines\n'
        )


# ----------------------------------------------------------------------
# oracle and observables


class _Oracle:
    """Independent truncated-Fock route of one request, built once."""

    def __init__(self, ctx, N: int):
        self.ctx, self.N, self.op = ctx, N, truncated_h(ctx.js, N)

    def start(self, state) -> np.ndarray:
        # 1e-15 squared tail for a spectral label (other states are their
        # exact vectors at t = 0): the alpha observables amplify a
        # coefficient truncation of size eps into an error of order sqrt(eps).
        c0 = ob.ladder_amplitudes(self.ctx, state, 0.0, tail=1e-15)
        if c0.size > self.N:
            raise CliError("truncation", f"state needs more than {self.N} oracle levels")
        return np.pad(c0, (0, self.N - c0.size))

    @cached_property
    def derivative(self) -> np.ndarray:
        return ob.derivative_matrix(self.ctx.js, self.N)

    def alpha_series(self, g: np.ndarray, l: int) -> list:
        """<alpha^k>, k = 0..l, on the normalized oracle amplitudes g."""
        return ob._alpha_series(self.derivative, g / float(np.linalg.norm(g)), l)


class _Observable(NamedTuple):
    nidx: int  # number of ":"-separated indices after the name
    lowest: int  # smallest admissible index
    is_complex: bool
    series: Callable  # (ctx, state, idx, t, picture) -> library value
    oracle: Callable  # (_Oracle, amplitudes, idx, t, picture) -> oracle value


_OBSERVABLES = {
    "number_moment": _Observable(1, 1, False,
        lambda ctx, st, i, t, p: ob.number_moment(ctx, st, i[0], t),
        lambda o, g, i, t, p: ob._occupation_series(g, i[0])),
    "h_expectation": _Observable(0, 0, False,
        lambda ctx, st, i, t, p: ob.h_expectation(ctx, st),
        lambda o, g, i, t, p: ob._tridiagonal_mean(o.ctx.js, g)),
    "correlation": _Observable(2, 0, True,
        lambda ctx, st, i, t, p: ob.correlation(ctx, st, *i, t),
        lambda o, g, i, t, p: ob._correlation_series(g, *i)),
    "cluster_correlation": _Observable(2, 0, True,
        lambda ctx, st, i, t, p: ob.cluster_correlation(ctx, st, *i, t, picture=p),
        lambda o, g, i, t, p: ob._cluster_series(o.ctx.js, g, *i, t, p)),
    # the oracle evolves the amplitudes, so its alpha law is taken at t = 0
    "alpha_moment": _Observable(1, 1, True,
        lambda ctx, st, i, t, p: ob.alpha_moment(ctx, st, i[0], t),
        lambda o, g, i, t, p: ob._alpha_law(o.alpha_series(g, i[0]), i[0], 0.0)),
    "alpha_dispersion": _Observable(0, 0, True,
        lambda ctx, st, i, t, p: ob.alpha_dispersion(ctx, st, t),
        lambda o, g, i, t, p: ob._alpha_spread(o.alpha_series(g, 2), 0.0)),
    "total_energy": _Observable(0, 0, False,
        lambda ctx, st, i, t, p: ob.total_energy(ctx, st, t),
        lambda o, g, i, t, p: o.ctx.js.gamma0 * ob._occupation_series(g, 1)
        + ob._tridiagonal_mean(o.ctx.js, g)),
}


def _observables(raw: str) -> list[tuple[str, _Observable, tuple[int, ...]]]:
    """Parse ``name[:i[:j]]`` specs into (spec, table entry, indices)."""
    specs = []
    for spec in filter(None, (tok.strip() for tok in raw.split(","))):
        name, *idx = spec.split(":")
        if name not in _OBSERVABLES:
            raise ValueError(f"unknown observable {spec!r}")
        obs, idx = _OBSERVABLES[name], tuple(int(i) for i in idx)
        if len(idx) != obs.nidx or any(i < obs.lowest for i in idx):
            raise ValueError(f"{name} needs {obs.nidx} index(es) >= {obs.lowest}, got {spec!r}")
        specs.append((spec, obs, idx))
    return specs


# ----------------------------------------------------------------------
# subcommands


def cmd_spectrum(cfg, args):
    pd = family_from(cfg)
    sm = normalize(pd)
    lo = _get(cfg, "spectrum", "omega_min", float, required=True)
    hi = _get(cfg, "spectrum", "omega_max", float, required=True)
    points = _get(cfg, "spectrum", "points", int, 101)
    n_mom = _get(cfg, "spectrum", "moments", int, 6)
    if points < 2 or hi <= lo:
        raise CliError("config-field", "[spectrum] needs omega_max > omega_min, points >= 2")
    omegas = np.linspace(lo, hi, points)
    rho = sm.density(omegas)
    density = [[float(w), float(r)] for w, r in zip(omegas, rho)]
    moments = [[k, moment(sm, k)] for k in range(n_mom + 1)]
    return [_table("density", ["omega(dimensionless,hbar=1)", "rho"], density),
            _table("moments", ["k", "moment_k"], moments)], []


def _at(g: np.ndarray, n: int) -> complex:
    """Amplitude n of g, zero past its last kept level."""
    return complex(g[n]) if n < g.size else 0j


def cmd_propagate(cfg, args):
    ctx = build_context(family_from(cfg))
    pairs = _get(cfg, "propagate", "pairs", _pairs, [(0, 0), (0, 1), (1, 1)])
    imag_t = _get(cfg, "propagate", "imag_t", float, 0.0)
    ts = grid_from(cfg)
    trunc = _truncation(cfg, args, "propagate", 200)
    tol_uni = tolerance(cfg, args, "unitarity", 1e-8)
    tol_orc = tolerance(cfg, args, "oracle", 1e-8)
    if args.oracle and imag_t != 0.0:
        raise CliError("usage", "--oracle requires a real time grid")

    columns = ["t(dimensionless,hbar=1)"]
    for m, n in pairs:
        columns += [f"re_sigma_{m}_{n}@interaction", f"im_sigma_{m}_{n}@interaction"]
    rows_m = sorted({m for m, _ in pairs})
    if imag_t == 0.0:
        columns += [f"unitarity_row_{m}" for m in rows_m]
    if args.oracle:
        columns += [f"oracle_re_{m}_{n}" for m, n in pairs] + ["max_deviation"]
        oracle = _Oracle(ctx, trunc)
        starts = {m: oracle.start(ob.Number(m)) for m in rows_m}

    rows = []
    worst_uni = 0.0
    worst_dev = 0.0
    for t in ts:
        row = [float(t)]
        if imag_t == 0.0:
            amp = {m: ob.ladder_amplitudes(ctx, ob.Number(m), float(t)) for m in rows_m}
            vals = {(m, n): _at(amp[m], n) for m, n in pairs}
        else:
            try:
                vals = {(m, n): sigma_mn(ctx, m, n, complex(t, imag_t)) for m, n in pairs}
            except QladderError as exc:
                raise CliError("strip", f"sigma at t + {imag_t}i: {exc}") from exc
        for m, n in pairs:
            row += [vals[(m, n)].real, vals[(m, n)].imag]
        if imag_t == 0.0:
            for m in rows_m:
                u = float(np.vdot(amp[m], amp[m]).real)
                worst_uni = max(worst_uni, abs(u - 1.0))
                row.append(u)
        if args.oracle:
            go = {m: expm_evolve(oracle.op, float(t), v) for m, v in starts.items()}
            ovals = [_at(go[m], n) for m, n in pairs]
            dev = max([0.0] + [abs(vals[p] - o) for p, o in zip(pairs, ovals)])
            row += [o.real for o in ovals] + [dev]
            worst_dev = max(worst_dev, dev)
        rows.append(row)

    checks = [_check("unitarity", worst_uni, tol_uni)] if imag_t == 0.0 else []
    if args.oracle:
        checks.append(_check("oracle", worst_dev, tol_orc))
    return [_table("propagator", columns, rows)], checks


def cmd_expect(cfg, args):
    ctx = build_context(family_from(cfg))
    state = state_from(cfg)
    picture = _get(cfg, "expect", "picture", str, "interaction")
    if picture not in ("interaction", "full"):
        raise CliError("config-field", f"[expect] picture must be interaction|full, got {picture!r}")
    specs = _get(cfg, "expect", "observables", _observables,
                 _observables("h_expectation, number_moment:1"))
    ts = grid_from(cfg)
    trunc = _truncation(cfg, args, "expect", 200)
    tol = tolerance(cfg, args, "expect_oracle", 1e-7)

    columns = ["t(dimensionless,hbar=1)"]
    for spec, obs, _ in specs:
        label = f"{spec.replace(':', '_')}@{picture}"
        columns += [f"re_{label}", f"im_{label}"] if obs.is_complex else [label]
    if args.oracle:
        columns += [f"oracle_{spec.replace(':', '_')}" for spec, _, _ in specs] + ["max_deviation"]
        oracle = _Oracle(ctx, trunc)
        start = oracle.start(state)

    rows = []
    worst = 0.0
    for t in ts:
        t = float(t)
        row = [t]
        vals = [obs.series(ctx, state, idx, t, picture) for _, obs, idx in specs]
        for (_, obs, _), v in zip(specs, vals):
            row += [complex(v).real, complex(v).imag] if obs.is_complex else [float(v)]
        if args.oracle:
            g = expm_evolve(oracle.op, t, start)
            ovals = [obs.oracle(oracle, g, idx, t, picture) for _, obs, idx in specs]
            dev = max([0.0] + [abs(complex(v) - complex(o)) for v, o in zip(vals, ovals)])
            row += [complex(o).real if obs.is_complex else float(o)
                    for (_, obs, _), o in zip(specs, ovals)] + [dev]
            worst = max(worst, dev)
        rows.append(row)

    checks = [_check("expect-oracle", worst, tol)] if args.oracle else []
    return [_table("expectations", columns, rows)], checks


def cmd_reduce(cfg, args):
    sysm, start = multimode_from(cfg)
    try:
        js, sector = reduce_sector(sysm, start)
    except QladderError as exc:
        raise CliError("reduction", str(exc)) from exc
    betas = beta_offsets(sysm, sector)
    kind, params = classify_ladder(js)
    info_rows = [
        ["pseudo_vacuum", " ".join(str(x) for x in sector.pseudo_vacuum_occupation)],
        ["lambda00", sector.lambda00],
        ["lambda_rest", " ".join(_fmt(float(x), "fixed17") for x in sector.lambda_rest)],
        ["dim", "inf" if js.dim is math.inf else int(js.dim)],
        ["gamma0", float(js.gamma0)],
        ["beta_offsets", " ".join(_fmt(float(x), "fixed17") for x in betas)],
        ["classification", kind],
    ]
    info_rows += [[f"classification_{key}", params[key]] for key in sorted(params)]
    b, h = js.arrays(min(8, js.dim - 1))
    ladder = [[n, float(bn), float(hn)] for n, (bn, hn) in enumerate(zip(b, h))]
    return [_table("sector", ["key", "value"], info_rows),
            _table("ladder", ["n", "b_n", "h_n"], ladder)], []


def cmd_amplifier(cfg, args):
    z0 = _get(cfg, "amplifier", "zeta0", _complex, 0j)
    z1 = _get(cfg, "amplifier", "zeta1", _complex, 0j)
    gval = _get(cfg, "amplifier", "g", float, 1.0)
    if gval <= 0:
        raise CliError("config-field", "[amplifier] g must be positive")
    ts = grid_from(cfg)
    trunc = _truncation(cfg, args, "amplifier", 30)
    tol = tolerance(cfg, args, "amplifier", 1e-3)

    sysm = MultiModeSystem(omega=(1.0, 1.0), l=(1, 1), g=-1j * gval)
    basis = MultiModeBasis(2, max_local=trunc)
    HI = dense_matrix(sysm, "HI", basis)
    N0 = np.array([occ[0] for occ in basis.states], dtype=float)
    c0 = ob._gaussian_coeffs(z0)
    c1 = ob._gaussian_coeffs(z1)
    v0 = np.zeros(len(basis), dtype=complex)
    for i, occ in enumerate(basis.states):
        if occ[0] < c0.size and occ[1] < c1.size:
            v0[i] = c0[occ[0]] * c1[occ[1]]

    rows = []
    worst = 0.0
    for t, v in zip(ts, eigh_evolve(HI, ts, v0)):
        closed = ob.amplifier_mean_photon(z0, z1, gval, float(t))
        nrm = float(np.vdot(v, v).real)
        oracle = float(np.vdot(v, N0 * v).real) / nrm
        rel = abs(closed - oracle) / max(abs(oracle), 1e-12)
        worst = max(worst, rel)
        rows.append([float(t), closed, oracle, rel])
    columns = ["t(dimensionless,hbar=1)", "mean_photon_closed@full",
               "mean_photon_oracle@full", "rel_deviation"]
    return [_table("amplifier", columns, rows)], [_check("amplifier-oracle", worst, tol)]


# ----------------------------------------------------------------------
# driver

_COMMANDS = {
    "spectrum": cmd_spectrum,
    "propagate": cmd_propagate,
    "expect": cmd_expect,
    "reduce": cmd_reduce,
    "amplifier": cmd_amplifier,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qladder",
        description="Jacobi-ladder spectral simulations from scenario configs.",
    )
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", required=True, help="scenario INI file")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--oracle", action="store_true", help="append truncated-Fock oracle columns")
    parser.add_argument("--truncation", type=int, default=None, help="oracle truncation")
    parser.add_argument("--tol", type=float, default=None, help="override the check tolerance")
    parser.add_argument("--gnuplot", action="store_true", help="emit a companion gnuplot script")
    return parser


def _report(status: int, **doc) -> int:
    """Write a JSON report line to stderr and return the exit status."""
    json.dump({"schema_version": SCHEMA_VERSION, **doc}, sys.stderr)
    sys.stderr.write("\n")
    return status


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        float_mode = _get(cfg, "scenario", "float_format", str, "fixed17")
        if float_mode not in ("fixed17", "shortest"):
            raise CliError("config-field", f"float_format must be fixed17|shortest, got {float_mode!r}")
        tables, checks = _COMMANDS[args.command](cfg, args)
    except CliError as exc:
        return _report(2, error=exc.code, detail=exc.detail)
    except QladderError as exc:
        return _report(2, error="numerical", detail=f"{type(exc).__name__}: {exc}")

    buf = io.StringIO()
    if args.format == "csv":
        write_csv(tables, buf, float_mode)
    else:
        write_json(args.command, tables, checks, buf)
    payload = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
        if args.gnuplot:
            write_gnuplot(args.out, tables, args.out + ".gp")
    else:
        sys.stdout.write(payload)
        if args.gnuplot:
            return _report(2, error="usage", detail="--gnuplot needs --out")

    if any(not c["passed"] for c in checks):
        return _report(1, error="tolerance", checks=checks)
    return 0


if __name__ == "__main__":
    sys.exit(main())
