"""End-to-end command-line runs against the bundled scenario files."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from qladder.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_sections(payload):
    """Split blank-line-separated CSV sections into lists of rows."""
    sections = [[]]
    for row in csv.reader(io.StringIO(payload)):
        if not row:
            sections.append([])
        else:
            sections[-1].append(row)
    return [s for s in sections if s]


def write_config(tmp_path, text, name="scenario.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_spectrum_sections_and_moments():
    code, out, err = run_cli(
        ["spectrum", "--config", str(SCENARIOS / "hermite_spectrum.ini")]
    )
    assert code == 0 and err == ""
    density, moments = parse_sections(out)
    assert density[0] == ["omega(dimensionless,hbar=1)", "rho"]
    assert len(density) == 1 + 81
    assert moments[0] == ["k", "moment_k"]
    got = {int(r[0]): float(r[1]) for r in moments[1:]}
    assert got[0] == pytest.approx(1.0, abs=1e-9)
    assert got[2] == pytest.approx(0.5, abs=1e-9)
    assert got[3] == pytest.approx(0.0, abs=1e-9)


def test_propagate_is_deterministic_and_unitary():
    argv = ["propagate", "--config", str(SCENARIOS / "laguerre_propagate.ini")]
    code1, out1, err1 = run_cli(argv)
    code2, out2, _ = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reruns
    (table,) = parse_sections(out1)
    header = table[0]
    assert header[0] == "t(dimensionless,hbar=1)"
    assert any("unitarity" in h for h in header)
    # t = 0 row carries the Kronecker delta of each requested pair
    row0 = dict(zip(header, table[1]))
    assert float(row0["t(dimensionless,hbar=1)"]) == 0.0
    assert float(row0["re_sigma_0_0@interaction"]) == pytest.approx(1.0)
    assert float(row0["re_sigma_0_1@interaction"]) == pytest.approx(0.0)


def test_propagate_oracle_columns_agree():
    code, out, err = run_cli(
        [
            "propagate",
            "--config",
            str(SCENARIOS / "laguerre_propagate.ini"),
            "--oracle",
        ]
    )
    assert code == 0, err
    (table,) = parse_sections(out)
    header = table[0]
    dev = [h for h in header if "deviation" in h]
    assert dev
    col = header.index(dev[0])
    worst = max(float(r[col]) for r in table[1:])
    assert worst < 1e-8


def test_expect_json_schema():
    code, out, err = run_cli(
        [
            "expect",
            "--config",
            str(SCENARIOS / "gaussian_expect.ini"),
            "--format",
            "json",
        ]
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "expect"
    assert doc["tables"] and doc["tables"][0]["rows"]
    for check in doc["checks"]:
        assert set(check) == {"name", "worst", "tol", "passed"}
        assert check["passed"] is True


def test_expect_spectral_oracle_within_tolerance():
    code, out, err = run_cli(
        ["expect", "--config", str(SCENARIOS / "spectral_expect.ini")]
    )
    assert code == 0, err


def test_expect_oracle_on_a_label_whose_tail_is_below_rounding(tmp_path):
    text = (SCENARIOS / "spectral_expect.ini").read_text()
    cfgp = write_config(tmp_path, text.replace("z = 0.45+0.3j", "z = 0.45+0.2j"))
    code, out, err = run_cli(["expect", "--config", cfgp, "--oracle"])
    assert code == 0, err


_COMPLEX_TIME = (
    "[scenario]\nschema_version = 1\n\n[family]\nkind = laguerre\nmu = 2.5\n\n"
    "[propagate]\npairs = 0:0, 0:1, 1:1, 2:4\nimag_t = {imag_t}\n\n"
    "[grid]\nt0 = 0.0\nt1 = 2.0\nsteps = 5\n"
)


def test_propagate_at_complex_time_reports_sigma_on_the_strip(tmp_path):
    from qladder.orthopoly import laguerre_data
    from qladder.propagator import build_context, sigma_mn

    cfgp = write_config(tmp_path, _COMPLEX_TIME.format(imag_t=0.2))
    code, out, err = run_cli(["propagate", "--config", cfgp])
    assert code == 0 and err == ""
    (table,) = parse_sections(out)
    header = table[0]
    assert not any(h.startswith("unitarity_row") for h in header)
    ctx = build_context(laguerre_data(2.5))
    assert len(table) == 1 + 5
    for row in table[1:]:
        cells = dict(zip(header, row))
        t = float(cells["t(dimensionless,hbar=1)"])
        for m, n in [(0, 0), (0, 1), (1, 1), (2, 4)]:
            want = sigma_mn(ctx, m, n, complex(t, 0.2))
            assert float(cells[f"re_sigma_{m}_{n}@interaction"]) == want.real
            assert float(cells[f"im_sigma_{m}_{n}@interaction"]) == want.imag


@pytest.mark.parametrize("imag_t, flags, error", [
    (0.2, ["--oracle"], "usage"),  # the oracle evolves in real time only
    (1.2, [], "strip"),  # the transform domain is Im z < 1 for Laguerre(2.5)
])
def test_propagate_at_complex_time_refusals_are_exit_2(tmp_path, imag_t, flags, error):
    cfgp = write_config(tmp_path, _COMPLEX_TIME.format(imag_t=imag_t))
    code, out, err = run_cli(["propagate", "--config", cfgp] + flags)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == error


def test_numerical_error_in_a_command_is_exit_2(monkeypatch):
    import qladder.cli as cli
    from qladder.errors import ConvergenceError

    def fail(cfg, args):
        raise ConvergenceError("series did not converge")

    monkeypatch.setitem(cli._COMMANDS, "spectrum", fail)
    code, out, err = run_cli(
        ["spectrum", "--config", str(SCENARIOS / "hermite_spectrum.ini")]
    )
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "numerical"
    assert "ConvergenceError" in doc["detail"]


def test_reduce_classifies_amplifier(tmp_path):
    cfgp = write_config(
        tmp_path,
        "[scenario]\nschema_version = 1\n\n"
        "[multimode]\nomega = 1.3, 0.7\nl = 1, 1\ng = -1j\nstart = 2, 0\n",
    )
    code, out, err = run_cli(["reduce", "--config", cfgp])
    assert code == 0, err
    sector, ladder = parse_sections(out)
    info = {r[0]: r[1] for r in sector[1:]}
    assert info["pseudo_vacuum"] == "2 0"
    assert info["dim"] == "inf"
    assert float(info["gamma0"]) == pytest.approx(2.0)
    assert info["classification"].startswith("Laguerre-type")
    assert float(info["classification_mu"]) == pytest.approx(3.0)
    rows = {int(r[0]): (float(r[1]), float(r[2])) for r in ladder[1:]}
    assert rows[1][0] == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert rows[2][0] == pytest.approx(math.sqrt(8.0), abs=1e-12)


def test_amplifier_scenario_passes_oracle():
    code, out, err = run_cli(
        ["amplifier", "--config", str(SCENARIOS / "amplifier.ini")]
    )
    assert code == 0, err
    (table,) = parse_sections(out)
    header = table[0]
    col = header.index("rel_deviation")
    assert max(float(r[col]) for r in table[1:]) < 1e-3


def test_gnuplot_companion(tmp_path):
    dest = tmp_path / "spec.csv"
    code, out, err = run_cli(
        [
            "spectrum",
            "--config",
            str(SCENARIOS / "hermite_spectrum.ini"),
            "--out",
            str(dest),
            "--gnuplot",
        ]
    )
    assert code == 0, err
    script = dest.with_suffix(".csv.gp")
    assert dest.exists() and script.exists()
    text = script.read_text()
    assert "set datafile separator" in text and str(dest) in text
    # CSV sections map to gnuplot indices: file must use CRLF and blank line
    raw = dest.read_bytes()
    assert b"\r\n" in raw and b"\r\n\r\n" in raw


def test_gnuplot_requires_out():
    code, out, err = run_cli(
        ["spectrum", "--config", str(SCENARIOS / "hermite_spectrum.ini"), "--gnuplot"]
    )
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_missing_config_is_exit_2(tmp_path):
    code, out, err = run_cli(["spectrum", "--config", str(tmp_path / "nope.ini")])
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "config-io"


def test_bad_schema_version_is_exit_2(tmp_path):
    cfgp = write_config(tmp_path, "[scenario]\nschema_version = 99\n")
    code, out, err = run_cli(["spectrum", "--config", cfgp])
    assert code == 2
    assert json.loads(err)["error"] == "config-schema"


def test_missing_required_field_is_exit_2(tmp_path):
    cfgp = write_config(
        tmp_path,
        "[scenario]\nschema_version = 1\n\n[family]\nkind = hermite\n",
    )
    code, out, err = run_cli(["spectrum", "--config", cfgp])
    assert code == 2
    assert json.loads(err)["error"] == "config-field"


def test_impossible_tolerance_is_exit_1():
    code, out, err = run_cli(
        [
            "propagate",
            "--config",
            str(SCENARIOS / "laguerre_propagate.ini"),
            "--oracle",
            "--tol",
            "1e-18",
        ]
    )
    assert code == 1
    doc = json.loads(err)
    assert doc["error"] == "tolerance"
    assert any(not c["passed"] for c in doc["checks"])


def test_float_format_shortest_roundtrips(tmp_path):
    cfgp = write_config(
        tmp_path,
        "[scenario]\nschema_version = 1\nfloat_format = shortest\n\n"
        "[family]\nkind = laguerre\nmu = 2.5\n\n"
        "[spectrum]\nomega_min = 0.1\nomega_max = 4.0\npoints = 5\nmoments = 2\n",
    )
    code, out, err = run_cli(["spectrum", "--config", cfgp])
    assert code == 0, err
    (density, moments) = parse_sections(out)
    for row in density[1:]:
        assert float(row[0]) == float(repr(float(row[0])))


def test_unknown_family_kind_is_exit_2(tmp_path):
    cfgp = write_config(
        tmp_path,
        "[scenario]\nschema_version = 1\n\n[family]\nkind = fourier\n\n"
        "[spectrum]\nomega_min = 0\nomega_max = 1\n",
    )
    code, out, err = run_cli(["spectrum", "--config", cfgp])
    assert code == 2
    assert json.loads(err)["error"] == "config-field"


def test_cli_import_leaves_scipy_integrate_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, qladder.cli; assert 'scipy.integrate' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


_HERMITE = "[scenario]\nschema_version = 1\n\n[family]\nkind = hermite\n\n"
_GRID = "[grid]\nt0 = 0.0\nt1 = 0.5\nsteps = 3\n"


@pytest.mark.parametrize(
    "command, text",
    [
        ("expect", _HERMITE + "[state]\nkind = number\nn = 1\n\n"
         "[expect]\nobservables = number_moment\n"),
        ("expect", _HERMITE + "[state]\nkind = number\nn = 1\n\n"
         "[expect]\nobservables = correlation:1\n"),
        ("expect", _HERMITE + "[state]\nkind = number\nn = 1\n\n"
         "[expect]\nobservables = number_moment:x\n"),
        ("expect", _HERMITE + "[state]\nkind = number\nn = 1\n\n"
         "[expect]\nobservables = number_moment:0\n"),
        ("propagate", _HERMITE + "[propagate]\npairs = 0:x\n"),
        ("expect", _HERMITE + "[state]\nkind = number\nn = -1\n"),
        ("expect", _HERMITE + "[state]\nkind = fock\ncoeffs = 0, 0\n"),
        ("expect", "[scenario]\nschema_version = 1\n\n[family]\nkind = laguerre\nmu = -1\n\n"
         "[state]\nkind = number\nn = 0\n"),
        ("expect", _HERMITE + "[state]\nkind = number\nn = 0\n\n[expect]\ntruncation = 0\n"),
    ],
    ids=["missing-index", "one-of-two-indices", "non-integer-index", "moment-order-0",
         "non-integer-pair", "negative-level", "zero-fock-state", "negative-mu",
         "zero-truncation"],
)
def test_malformed_config_value_is_config_field_exit_2(tmp_path, command, text):
    cfgp = write_config(tmp_path, text + _GRID)
    code, out, err = run_cli([command, "--config", cfgp, "--oracle"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "config-field"


def test_zero_truncation_flag_is_config_field_exit_2():
    cfgp = str(SCENARIOS / "spectral_expect.ini")
    code, out, err = run_cli(["expect", "--config", cfgp, "--oracle", "--truncation", "0"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "config-field"


def test_expect_oracle_builds_the_derivative_matrix_once(tmp_path, monkeypatch):
    import qladder.observables as ob

    sizes = []
    build = ob.derivative_matrix

    def counted(js, K):
        sizes.append(K)
        return build(js, K)

    monkeypatch.setattr(ob, "derivative_matrix", counted)
    cfgp = write_config(
        tmp_path,
        _HERMITE + "[state]\nkind = gaussian\nzeta = 0.4+0.2j\n\n"
        "[expect]\nobservables = alpha_moment:1, alpha_dispersion\ntruncation = 120\n\n"
        "[grid]\nt0 = 0.0\nt1 = 1.0\nsteps = 4\n",
    )
    code, out, err = run_cli(["expect", "--config", cfgp, "--oracle"])
    assert code == 0, err
    assert sizes.count(120) == 1
    assert len(sizes) > 1  # the library series still builds its own, smaller ones


def test_propagate_oracle_evolves_each_row_once_per_step(tmp_path, monkeypatch):
    import qladder.cli as cli

    calls = []
    evolve = cli.expm_evolve

    def counted(op, t, vec):
        calls.append(t)
        return evolve(op, t, vec)

    monkeypatch.setattr(cli, "expm_evolve", counted)
    cfgp = write_config(
        tmp_path,
        "[scenario]\nschema_version = 1\n\n[family]\nkind = laguerre\nmu = 2.5\n\n"
        "[propagate]\npairs = 0:0, 0:1, 1:1\ntruncation = 80\n\n" + _GRID,
    )
    code, out, err = run_cli(["propagate", "--config", cfgp, "--oracle"])
    assert code == 0, err
    assert len(calls) == 2 * 3  # rows m = 0 and 1, three time steps


def test_amplifier_evolves_its_grid_in_one_call(monkeypatch):
    import qladder.cli as cli

    calls = []
    evolve = cli.eigh_evolve

    def counted(h, t, vec):
        calls.append(np.shape(t))
        return evolve(h, t, vec)

    monkeypatch.setattr(cli, "eigh_evolve", counted)
    code, out, err = run_cli(["amplifier", "--config", str(SCENARIOS / "amplifier.ini")])
    assert code == 0, err
    assert len(parse_sections(out)[0]) == 1 + 6
    assert calls == [(6,)]


def test_every_readme_invocation_parses():
    import shlex

    from qladder.cli import _COMMANDS, build_parser

    readme = SCENARIOS.parent / "README.md"
    lines = [ln for ln in readme.read_text().splitlines() if ln.startswith("qladder ")]
    assert len(lines) >= 6
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert args.command in _COMMANDS
        assert (SCENARIOS.parent / args.config).is_file()
