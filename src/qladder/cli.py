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

import numpy as np

from . import observables as ob
from .errors import QladderError
from .fockoracle import MultiModeBasis, dense_matrix, eigh_evolve, expm_evolve, truncated_h
from .measure import moment, normalize
from .orthopoly import classify, hermite_data, jacobi_data, laguerre_data, legendre_data
from .propagator import build_context, sigma_mn
from .reduction import MultiModeSystem, beta_offsets, reduce as reduce_sector

SCHEMA_VERSION = 1


class CliError(Exception):
    """Configuration or usage problem, reported as JSON on stderr."""

    def __init__(self, code: str, detail: str):
        super().__init__(detail)
        self.code = code
        self.detail = detail


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
        raise CliError(
            "config-schema",
            f"{path}: [scenario] schema_version must be {SCHEMA_VERSION}, got {ver!r}",
        )
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


def family_from(cfg) -> "PearsonData":
    if not cfg.has_section("family"):
        raise CliError("config-field", "missing [family] section")
    kind = _get(cfg, "family", "kind", str, required=True).lower()
    if kind == "hermite":
        return hermite_data(
            a1=_get(cfg, "family", "a1", float, -2.0),
            a0=_get(cfg, "family", "a0", float, 0.0),
            b0=_get(cfg, "family", "b0", float, 1.0),
        )
    if kind == "laguerre":
        return laguerre_data(
            _get(cfg, "family", "mu", float, required=True),
            a1=_get(cfg, "family", "a1", float, -1.0),
            b1=_get(cfg, "family", "b1", float, 1.0),
            b0=_get(cfg, "family", "b0", float, 0.0),
        )
    if kind == "jacobi":
        return jacobi_data(
            _get(cfg, "family", "a", float, required=True),
            _get(cfg, "family", "b", float, required=True),
            _get(cfg, "family", "mu", float, required=True),
            _get(cfg, "family", "nu", float, required=True),
            scale=_get(cfg, "family", "scale", float, 1.0),
        )
    if kind == "legendre":
        return legendre_data()
    if kind == "pearson":
        return classify(
            _get(cfg, "family", "a0", float, 0.0),
            _get(cfg, "family", "a1", float, 0.0),
            _get(cfg, "family", "b0", float, 0.0),
            _get(cfg, "family", "b1", float, 0.0),
            _get(cfg, "family", "b2", float, 0.0),
        )
    raise CliError("config-field", f"unknown [family] kind {kind!r}")


def state_from(cfg) -> ob.QuantumState:
    if not cfg.has_section("state"):
        raise CliError("config-field", "missing [state] section")
    kind = _get(cfg, "state", "kind", str, required=True).lower()
    if kind == "number":
        return ob.Number(_get(cfg, "state", "n", int, required=True))
    if kind == "gaussian":
        return ob.GaussianCoherent(_get(cfg, "state", "zeta", _complex, required=True))
    if kind == "spectral":
        return ob.SpectralCoherent(_get(cfg, "state", "z", _complex, required=True))
    if kind == "fock":
        raw = _get(cfg, "state", "coeffs", str, required=True)
        return ob.Fock([_complex(tok) for tok in raw.split(",")])
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
    if args.tol is not None:
        return float(args.tol)
    return _get(cfg, "tolerances", key, float, default) if cfg.has_section("tolerances") else default


# ----------------------------------------------------------------------
# output assembly


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
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "tables": tables,
        "checks": checks,
    }
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
# oracle helpers (independent truncated-Fock routes)


def _oracle_amplitudes(ctx, state, t: float, N: int) -> np.ndarray:
    # 1e-15 squared tail for a spectral label (other states are their exact
    # vectors at t = 0): the alpha observables amplify a coefficient
    # truncation of size eps into an error of order sqrt(eps).
    c0 = ob.ladder_amplitudes(ctx, state, 0.0, tail=1e-15)
    if c0.size > N:
        raise CliError("truncation", f"state needs more than {N} oracle levels")
    v = np.zeros(N, dtype=complex)
    v[: c0.size] = c0
    return expm_evolve(truncated_h(ctx.js, N), t, v)


def _oracle_value(ctx, g: np.ndarray, spec_name: str, picture: str, t: float):
    """Evaluate one observable directly on evolved oracle amplitudes."""
    name, *idx = spec_name.split(":")
    if name == "number_moment":
        return ob._occupation_series(g, int(idx[0]))
    if name == "h_expectation":
        return ob._tridiagonal_mean(ctx.js, g)
    if name == "correlation":
        return ob._correlation_series(g, int(idx[0]), int(idx[1]))
    if name == "cluster_correlation":
        return ob._cluster_series(ctx.js, g, int(idx[0]), int(idx[1]), t, picture)
    if name == "alpha_moment":
        return ob.alpha_moment(ctx, ob.Fock(g), int(idx[0]), 0.0)
    if name == "alpha_dispersion":
        return ob.alpha_dispersion(ctx, ob.Fock(g), 0.0)
    if name == "total_energy":
        return ctx.js.gamma0 * ob._occupation_series(g, 1) + ob._tridiagonal_mean(ctx.js, g)
    raise CliError("config-field", f"unknown observable {spec_name!r}")


def _series_value(ctx, state, spec_name: str, picture: str, t: float):
    name, *idx = spec_name.split(":")
    if name == "number_moment":
        return ob.number_moment(ctx, state, int(idx[0]), t)
    if name == "h_expectation":
        return ob.h_expectation(ctx, state)
    if name == "correlation":
        return ob.correlation(ctx, state, int(idx[0]), int(idx[1]), t)
    if name == "cluster_correlation":
        return ob.cluster_correlation(
            ctx, state, int(idx[0]), int(idx[1]), t, picture=picture
        )
    if name == "alpha_moment":
        return ob.alpha_moment(ctx, state, int(idx[0]), t)
    if name == "alpha_dispersion":
        return ob.alpha_dispersion(ctx, state, t)
    if name == "total_energy":
        return ob.total_energy(ctx, state, t)
    raise CliError("config-field", f"unknown observable {spec_name!r}")


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
    density = {
        "name": "density",
        "columns": ["omega(dimensionless,hbar=1)", "rho"],
        "rows": [[float(w), float(r)] for w, r in zip(omegas, rho)],
    }
    moments = {
        "name": "moments",
        "columns": ["k", "moment_k"],
        "rows": [[k, moment(sm, k)] for k in range(n_mom + 1)],
    }
    return [density, moments], []


def _parse_pairs(raw: str) -> list[tuple[int, int]]:
    pairs = []
    for tok in raw.split(","):
        m, n = tok.strip().split(":")
        pairs.append((int(m), int(n)))
    return pairs


def cmd_propagate(cfg, args):
    ctx = build_context(family_from(cfg))
    pairs = _parse_pairs(_get(cfg, "propagate", "pairs", str, "0:0, 0:1, 1:1"))
    imag_t = _get(cfg, "propagate", "imag_t", float, 0.0)
    ts = grid_from(cfg)
    trunc = args.truncation or _get(cfg, "propagate", "truncation", int, 200)
    tol_uni = tolerance(cfg, args, "unitarity", 1e-8)
    tol_orc = tolerance(cfg, args, "oracle", 1e-8)

    columns = ["t(dimensionless,hbar=1)"]
    for m, n in pairs:
        columns += [f"re_sigma_{m}_{n}@interaction", f"im_sigma_{m}_{n}@interaction"]
    rows_m = sorted({m for m, _ in pairs})
    if imag_t == 0.0:
        columns += [f"unitarity_row_{m}" for m in rows_m]
    if args.oracle:
        columns += [f"oracle_re_{m}_{n}" for m, n in pairs]
        columns += ["max_deviation"]

    rows = []
    worst_uni = 0.0
    worst_dev = 0.0
    for t in ts:
        row = [float(t)]
        vals = {}
        if imag_t == 0.0:
            amp = {m: ob.ladder_amplitudes(ctx, ob.Number(m), float(t)) for m in rows_m}
            for m, n in pairs:
                g = amp[m]
                vals[(m, n)] = complex(g[n]) if n < g.size else 0j
        else:
            try:
                for m, n in pairs:
                    vals[(m, n)] = sigma_mn(ctx, m, n, complex(t, imag_t))
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
            if imag_t != 0.0:
                raise CliError("usage", "--oracle requires a real time grid")
            dev = 0.0
            for m, n in pairs:
                go = _oracle_amplitudes(ctx, ob.Number(m), float(t), trunc)
                o = complex(go[n]) if n < go.size else 0j
                row.append(o.real)
                dev = max(dev, abs(vals[(m, n)] - o))
            row.append(dev)
            worst_dev = max(worst_dev, dev)
        rows.append(row)

    checks = []
    if imag_t == 0.0:
        checks.append(
            {"name": "unitarity", "worst": worst_uni, "tol": tol_uni, "passed": worst_uni <= tol_uni}
        )
    if args.oracle:
        checks.append(
            {"name": "oracle", "worst": worst_dev, "tol": tol_orc, "passed": worst_dev <= tol_orc}
        )
    return [{"name": "propagator", "columns": columns, "rows": rows}], checks


def cmd_expect(cfg, args):
    ctx = build_context(family_from(cfg))
    state = state_from(cfg)
    picture = _get(cfg, "expect", "picture", str, "interaction")
    if picture not in ("interaction", "full"):
        raise CliError("config-field", f"[expect] picture must be interaction|full, got {picture!r}")
    raw = _get(cfg, "expect", "observables", str, "h_expectation, number_moment:1")
    specs = [tok.strip() for tok in raw.split(",") if tok.strip()]
    ts = grid_from(cfg)
    trunc = args.truncation or _get(cfg, "expect", "truncation", int, 200)
    tol = tolerance(cfg, args, "expect_oracle", 1e-7)

    columns = ["t(dimensionless,hbar=1)"]
    complex_names = {"correlation", "cluster_correlation", "alpha_moment", "alpha_dispersion"}
    for spec in specs:
        base = spec.split(":")[0]
        label = spec.replace(":", "_")
        if base in complex_names:
            columns += [f"re_{label}@{picture}", f"im_{label}@{picture}"]
        else:
            columns += [f"{label}@{picture}"]
    if args.oracle:
        columns += [f"oracle_{spec.replace(':', '_')}" for spec in specs]
        columns += ["max_deviation"]

    rows = []
    worst = 0.0
    for t in ts:
        row = [float(t)]
        vals = []
        for spec in specs:
            v = _series_value(ctx, state, spec, picture, float(t))
            vals.append(v)
            if spec.split(":")[0] in complex_names:
                v = complex(v)
                row += [v.real, v.imag]
            else:
                row += [float(v)]
        if args.oracle:
            g = _oracle_amplitudes(ctx, state, float(t), trunc)
            dev = 0.0
            for spec, v in zip(specs, vals):
                o = _oracle_value(ctx, g, spec, picture, float(t))
                row.append(complex(o).real if isinstance(o, complex) else float(o))
                dev = max(dev, abs(complex(v) - complex(o)))
            row.append(dev)
            worst = max(worst, dev)
        rows.append(row)

    checks = []
    if args.oracle:
        checks.append({"name": "expect-oracle", "worst": worst, "tol": tol, "passed": worst <= tol})
    return [{"name": "expectations", "columns": columns, "rows": rows}], checks


def _classify_ladder(js, nmax: int = 8, tol: float = 1e-10):
    """Match b(n) samples against the closed family coupling patterns."""
    top = nmax if js.dim is math.inf else min(nmax, int(js.dim) - 1)
    if top < 2:
        return "unclassified (sector too short)", {}
    b, hs = js.arrays(top)
    bsq = b[1:] ** 2
    scale = max(1.0, float(np.max(bsq)))
    if np.all(np.abs(bsq - bsq[0]) <= tol * scale) and np.all(
        np.abs(hs - hs[0]) <= tol * max(1.0, abs(hs[0]))
    ):
        return "Jacobi-type strong-field (constant couplings)", {"b": float(b[1])}
    ratio = bsq / np.arange(1, top + 1)
    if np.all(np.abs(ratio - ratio[0]) <= tol * scale):
        return "Hermite-type", {"beta": float(math.sqrt(ratio[0]))}
    # b(n)^2 = c n (n + mu - 1): ratio is affine in n
    c = ratio[1] - ratio[0]
    if abs(c) > tol * scale:
        mu = ratio[0] / c
        model = c * np.arange(1, top + 1) * (np.arange(1, top + 1) + mu - 1.0)
        if np.all(np.abs(model - bsq) <= tol * scale):
            return "Laguerre-type", {"mu": float(mu), "coupling": float(math.sqrt(abs(c)))}
    return "unclassified", {}


def cmd_reduce(cfg, args):
    sysm, start = multimode_from(cfg)
    try:
        js, sector = reduce_sector(sysm, start)
    except QladderError as exc:
        raise CliError("reduction", str(exc)) from exc
    betas = beta_offsets(sysm, sector)
    kind, params = _classify_ladder(js)
    info_rows = [
        ["pseudo_vacuum", " ".join(str(x) for x in sector.pseudo_vacuum_occupation)],
        ["lambda00", sector.lambda00],
        ["lambda_rest", " ".join(_fmt(float(x), "fixed17") for x in sector.lambda_rest)],
        ["dim", "inf" if js.dim is math.inf else int(js.dim)],
        ["gamma0", float(js.gamma0)],
        ["beta_offsets", " ".join(_fmt(float(x), "fixed17") for x in betas)],
        ["classification", kind],
    ]
    for key in sorted(params):
        info_rows.append([f"classification_{key}", params[key]])
    top = 8 if js.dim is math.inf else min(8, int(js.dim) - 1)
    b, h = js.arrays(top)
    ladder = {
        "name": "ladder",
        "columns": ["n", "b_n", "h_n"],
        "rows": [[n, float(b[n]), float(h[n])] for n in range(top + 1)],
    }
    return [{"name": "sector", "columns": ["key", "value"], "rows": info_rows}, ladder], []


def cmd_amplifier(cfg, args):
    z0 = _get(cfg, "amplifier", "zeta0", _complex, 0j)
    z1 = _get(cfg, "amplifier", "zeta1", _complex, 0j)
    gval = _get(cfg, "amplifier", "g", float, 1.0)
    if gval <= 0:
        raise CliError("config-field", "[amplifier] g must be positive")
    ts = grid_from(cfg)
    trunc = args.truncation or _get(cfg, "amplifier", "truncation", int, 30)
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
    for t in ts:
        closed = ob.amplifier_mean_photon(z0, z1, gval, float(t))
        v = eigh_evolve(HI, float(t), v0)
        nrm = float(np.vdot(v, v).real)
        oracle = float(np.vdot(v, N0 * v).real) / nrm
        rel = abs(closed - oracle) / max(abs(oracle), 1e-12)
        worst = max(worst, rel)
        rows.append([float(t), closed, oracle, rel])
    table = {
        "name": "amplifier",
        "columns": [
            "t(dimensionless,hbar=1)",
            "mean_photon_closed@full",
            "mean_photon_oracle@full",
            "rel_deviation",
        ],
        "rows": rows,
    }
    checks = [{"name": "amplifier-oracle", "worst": worst, "tol": tol, "passed": worst <= tol}]
    return [table], checks


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
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario INI file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--oracle", action="store_true", help="append truncated-Fock oracle columns")
        p.add_argument("--truncation", type=int, default=None, help="oracle truncation")
        p.add_argument("--tol", type=float, default=None, help="override the check tolerance")
        p.add_argument("--gnuplot", action="store_true", help="emit a companion gnuplot script")
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
