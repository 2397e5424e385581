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
from qladder.propagator import build_context

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


def test_repeated_propagate_builds_no_rule(rule_builds, tmp_path):
    # the Laguerre scenario at complex time: on a Jacobi pair of (-20, 20) every pair
    # reads the Chebyshev expansion, past (b - a)|t| = 12 too, and builds no rule; on a
    # Hermite pair, the pairs past the closed degree take a Gauss rule, one per rule size
    text = (SCENARIOS / "laguerre_propagate.ini").read_text().replace("[grid]", "imag_t = 0.05\n\n[grid]")
    jacobi = "kind = jacobi\na = -20.0\nb = 20.0\nmu = 2.0\nnu = 1.5"
    argv = ["propagate", "--config", write_config(tmp_path, text.replace("kind = laguerre\nmu = 2.5", jacobi))]
    assert run_cli(argv)[0] == 0
    assert rule_builds == []
    hermite = text.replace("kind = laguerre\nmu = 2.5", "kind = hermite").replace("2:4", "2:4, 12:14")
    argv = ["propagate", "--config", write_config(tmp_path, hermite)]
    assert run_cli(argv)[0] == 0
    assert rule_builds and all(key[-1] % 32 == 0 for key in rule_builds)  # keys end in the rule size
    rule_builds.clear()
    assert run_cli(argv)[0] == 0
    assert rule_builds == []


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


_SPECTRAL_ALPHA = (
    "[scenario]\nschema_version = 1\n\n[family]\nkind = laguerre\nmu = 1.6133253262458596\n\n"
    "[state]\nkind = spectral\nz = 0.4606359959751021-0.094104506089270346j\n\n"
    "[expect]\nobservables = alpha_dispersion, alpha_moment:1, cluster_correlation:1:1, h_expectation\n"
    "picture = interaction\ntruncation = 400\n\n"
    "[grid]\nt0 = 0.0\nt1 = 0.7764389376252727\nsteps = 5\n"
)


def test_expect_spectral_oracle_starts_from_every_level_of_the_label(tmp_path):
    # a start vector cut where its squared tail reaches rounding leaves
    # amplitudes of ~1e-8 out, and alpha_dispersion then misses 1e-7
    code, out, err = run_cli(["expect", "--config", write_config(tmp_path, _SPECTRAL_ALPHA), "--oracle"])
    assert code == 0, err


def test_expect_spectral_oracle_on_jacobi_reads_one_expansion(tmp_path, monkeypatch):
    # the oracle's start vector takes all 400 levels of the label from one Chebyshev
    # expansion of e^{-izJ} e_0, not one scalar sigma_n per level
    from qladder.orthopoly import _Jacobi

    calls = []
    scalar = _Jacobi.sigma_n
    monkeypatch.setattr(_Jacobi, "sigma_n", lambda self, ctx, n, z: calls.append(n) or scalar(self, ctx, n, z))
    text = (SCENARIOS / "spectral_expect.ini").read_text().replace(
        "kind = laguerre\nmu = 2.5", "kind = jacobi\na = -1.0\nb = 1.0\nmu = 2.0\nnu = 1.5")
    code, out, err = run_cli(["expect", "--config", write_config(tmp_path, text), "--oracle"])
    assert code == 0, err
    assert len(calls) <= 1  # one start vector


def test_expect_spectral_oracle_reports_a_short_truncation():
    code, out, err = run_cli(
        ["expect", "--config", str(SCENARIOS / "spectral_expect.ini"), "--oracle", "--truncation", "20"]
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "truncation"


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
    assert out == ""
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


def test_percent_in_a_config_value_is_a_config_field_error(tmp_path):
    # values are read literally: '%' starts no interpolation
    cfgp = write_config(
        tmp_path,
        "[scenario]\nschema_version = 1\n\n[family]\nkind = laguerre\nmu = 1.5%\n\n"
        "[spectrum]\nomega_min = 0\nomega_max = 1\n",
    )
    code, out, err = run_cli(["spectrum", "--config", cfgp])
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "config-field" and "1.5%" in doc["detail"]


def _run_python(code):
    """Run ``code`` in a fresh interpreter that imports this checkout's qladder."""
    src = str(SCENARIOS.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, stdout=subprocess.DEVNULL)


def test_cli_import_leaves_scipy_integrate_unloaded():
    _run_python("import sys, qladder.cli; assert 'scipy.integrate' not in sys.modules")


def test_cli_import_leaves_scipy_special_unloaded():
    # the Bessel weights of the Chebyshev route come from a plain recurrence;
    # scipy.special would add to every CLI start-up
    _run_python("import sys, qladder.cli; assert 'scipy.special' not in sys.modules")


def test_cli_import_leaves_scipy_sparse_unloaded():
    # the block oracle imports scipy.sparse on its first cold build
    _run_python("import sys, qladder.cli; assert 'scipy.sparse' not in sys.modules")


def test_cli_import_leaves_scipy_linalg_unloaded():
    # the eigensolvers import scipy.linalg at their first call; on import it was
    # most of every CLI start-up, and with it gone no scipy module is left
    _run_python("import sys, qladder, qladder.cli\n"
                "assert 'scipy.linalg' not in sys.modules and 'scipy' not in sys.modules")


def test_requests_without_an_eigensolve_leave_scipy_linalg_unloaded():
    # no Gauss rule or oracle block: spectrum, propagate and expect without --oracle, reduce
    argvs = [[command, "--config", str(SCENARIOS / name)] for command, name in (
        ("spectrum", "hermite_spectrum.ini"), ("propagate", "laguerre_propagate.ini"),
        ("expect", "gaussian_expect.ini"), ("expect", "spectral_expect.ini"),
        ("reduce", "amplifier.ini"))]
    _run_python(
        "import sys, qladder.cli\n"
        f"assert [qladder.cli.main(argv) for argv in {argvs!r}] == {[0] * len(argvs)!r}\n"
        "assert 'scipy.linalg' not in sys.modules"
    )


def test_spectrum_leaves_scipy_integrate_unloaded():
    # moments come from the Pearson recurrence, with no quadrature
    cfg = str(SCENARIOS / "hermite_spectrum.ini")
    _run_python(
        "import sys, qladder.cli\n"
        f"assert qladder.cli.main(['spectrum', '--config', {cfg!r}]) == 0\n"
        "assert 'scipy.integrate' not in sys.modules"
    )


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


def _forbid_derivative_matrix(monkeypatch):
    """Make every dense derivative-matrix build raise: the alpha series applies D in O(N)."""
    import qladder.observables as ob
    import qladder.orthopoly as op

    def forbidden(js, K):
        raise AssertionError(f"dense {K} x {K} derivative matrix built")

    monkeypatch.setattr(ob, "derivative_matrix", forbidden)
    monkeypatch.setattr(op, "derivative_matrix", forbidden)


def test_expect_oracle_builds_no_derivative_matrix(tmp_path, monkeypatch):
    import qladder.observables as ob

    _forbid_derivative_matrix(monkeypatch)
    cfgp = write_config(
        tmp_path,
        _HERMITE + "[state]\nkind = gaussian\nzeta = 0.4+0.2j\n\n"
        "[expect]\nobservables = alpha_moment:1, alpha_dispersion\ntruncation = 120\n\n"
        "[grid]\nt0 = 0.0\nt1 = 1.0\nsteps = 4\n",
    )
    code, out, err = run_cli(["expect", "--config", cfgp, "--oracle"])
    assert code == 0, err
    assert not hasattr(ob, "_DERIVS")


def _count_expm_evolve(monkeypatch) -> list:
    import qladder.cli as cli

    calls = []
    evolve = cli.expm_evolve

    def counted(op, t, vec):
        calls.append(np.shape(t))
        return evolve(op, t, vec)

    monkeypatch.setattr(cli, "expm_evolve", counted)
    return calls


def test_propagate_oracle_evolves_each_row_once(tmp_path, monkeypatch):
    calls = _count_expm_evolve(monkeypatch)
    cfgp = write_config(
        tmp_path,
        "[scenario]\nschema_version = 1\n\n[family]\nkind = laguerre\nmu = 2.5\n\n"
        "[propagate]\npairs = 0:0, 0:1, 1:1\ntruncation = 80\n\n" + _GRID,
    )
    code, out, err = run_cli(["propagate", "--config", cfgp, "--oracle"])
    assert code == 0, err
    assert calls == [(3,)]  # rows m = 0 and 1 in one call, over the three time steps


@pytest.mark.parametrize("kind", ["kind = hermite", "kind = laguerre\nmu = 2.5",
                                  "kind = jacobi\na = -1.0\nb = 1.0\nmu = 2.0\nnu = 1.5"])
@pytest.mark.parametrize("pairs", ["0:0", "0:0, 0:1, 1:1", "3:0, 0:3, 4:4, 1:2, 2:1"])
def test_propagate_evolves_every_row_of_a_step_in_one_call(tmp_path, monkeypatch, kind, pairs):
    import qladder.cli as cli

    calls = []
    evolve = cli.evolve

    def counted(ctx, coeffs, t, *args, **kwargs):
        calls.append((t, np.shape(coeffs)))
        return evolve(ctx, coeffs, t, *args, **kwargs)

    monkeypatch.setattr(cli, "evolve", counted)
    cfgp = write_config(tmp_path, "[scenario]\nschema_version = 1\n\n[family]\n" + kind
                        + f"\n\n[propagate]\npairs = {pairs}\n\n" + _GRID)
    code, out, err = run_cli(["propagate", "--config", cfgp, "--oracle"])
    assert code == 0, err
    rows = sorted({int(p.split(":")[0]) for p in pairs.split(",")})
    ((t, shape),) = calls  # every step of the grid in the same call
    assert t.tolist() == [0.0, 0.25, 0.5] and shape == (rows[-1] + 1, len(rows))


def test_expect_oracle_evolves_its_start_once(tmp_path, monkeypatch):
    calls = _count_expm_evolve(monkeypatch)
    cfgp = write_config(
        tmp_path,
        _HERMITE + "[state]\nkind = gaussian\nzeta = 0.4+0.2j\n\n"
        "[expect]\nobservables = number_moment:1, alpha_moment:1\ntruncation = 80\n\n" + _GRID,
    )
    code, out, err = run_cli(["expect", "--config", cfgp, "--oracle"])
    assert code == 0, err
    assert calls == [(3,)]


def test_amplifier_evolves_its_grid_in_one_call(monkeypatch):
    import qladder.cli as cli

    calls = []
    evolve = cli.interaction_evolve

    def counted(sys, basis, t, vec):
        calls.append(np.shape(t))
        return evolve(sys, basis, t, vec)

    monkeypatch.setattr(cli, "interaction_evolve", counted)
    code, out, err = run_cli(["amplifier", "--config", str(SCENARIOS / "amplifier.ini")])
    assert code == 0, err
    assert len(parse_sections(out)[0]) == 1 + 6
    assert calls == [(6,)]


def test_warm_amplifier_runs_no_dense_matrix_hash_or_eigensolver(monkeypatch):
    import hashlib

    import qladder.cli as cli
    from qladder import fockoracle

    argvs = [["amplifier", "--config", str(SCENARIOS / "amplifier.ini"), "--truncation", "34"],
             ["propagate", "--config", str(SCENARIOS / "laguerre_propagate.ini"), "--oracle"],
             ["expect", "--config", str(SCENARIOS / "gaussian_expect.ini"), "--oracle"]]
    for argv in argvs:
        assert run_cli(argv)[0] == 0  # cold: builds and caches the blocks
    calls = []

    def counting(name, f):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapper

    for mod, name in ((fockoracle, "dense_matrix"), (fockoracle, "eigh"),
                      (fockoracle, "eigh_tridiagonal"), (hashlib, "sha1")):
        monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    for argv in argvs:
        code, out, err = run_cli(argv)
        assert code == 0, err
    assert calls == [] and not hasattr(cli, "dense_matrix")


def test_two_expect_oracle_requests_give_identical_output(tmp_path, monkeypatch):
    _forbid_derivative_matrix(monkeypatch)
    cfgp = write_config(
        tmp_path,
        "[scenario]\nschema_version = 1\n\n[family]\nkind = laguerre\nmu = 1.5\n\n"
        "[state]\nkind = fock\ncoeffs = 0.6, 0.8j, 0.1\n\n"
        "[expect]\nobservables = alpha_moment:2, alpha_dispersion\ntruncation = 150\n\n"
        "[grid]\nt0 = 0.0\nt1 = 1.0\nsteps = 5\n",
    )
    outs = [run_cli(["expect", "--config", cfgp, "--oracle"]) for _ in range(2)]
    assert [code for code, _, _ in outs] == [0, 0] and outs[0][1] == outs[1][1]


def test_expect_reads_library_amplitudes_once_per_step(tmp_path, monkeypatch):
    import qladder.observables as ob

    calls = []
    amplitudes = ob._amplitude_steps

    def counted(ctx, state, t, *args, **kwargs):
        calls.append(t)
        return amplitudes(ctx, state, t, *args, **kwargs)

    monkeypatch.setattr(ob, "_amplitude_steps", counted)
    cfgp = write_config(
        tmp_path,
        _HERMITE + "[state]\nkind = gaussian\nzeta = 0.4+0.2j\n\n[expect]\nobservables = "
        "number_moment:1, number_moment:2, correlation:0:1, cluster_correlation:1:1, total_energy\n\n"
        + _GRID,
    )
    code, out, err = run_cli(["expect", "--config", cfgp])
    assert code == 0, err
    assert calls == [[0.0, 0.25, 0.5]]  # every step's amplitudes from one call over the grid


_ALL_OBSERVABLES = ("h_expectation, number_moment:1, number_moment:2, correlation:0:1, "
                    "cluster_correlation:1:1, alpha_moment:1, alpha_dispersion, total_energy")
_JACOBI = "[scenario]\nschema_version = 1\n\n[family]\nkind = jacobi\na = -1.0\nb = 1.0\nmu = 2.0\nnu = 1.5\n\n"


def _library_value(ctx, state, spec, t, picture):
    import qladder.observables as ob

    name, *idx = spec.split(":")
    idx = [int(i) for i in idx]
    if name == "h_expectation":
        return ob.h_expectation(ctx, state)
    if name == "cluster_correlation":
        return ob.cluster_correlation(ctx, state, *idx, t, picture=picture)
    return getattr(ob, name)(ctx, state, *idx, t)


@pytest.mark.parametrize("config", [
    (SCENARIOS / "gaussian_expect.ini").read_text(),
    (SCENARIOS / "spectral_expect.ini").read_text(),
    _JACOBI + "[state]\nkind = number\nn = 2\n\n[expect]\npicture = full\n\n" + _GRID,
    _JACOBI + "[state]\nkind = fock\ncoeffs = 0.6, 0.8j, 0.1\n\n[expect]\n\n" + _GRID,
], ids=["gaussian_expect", "spectral_expect", "jacobi-number", "jacobi-fock"])
def test_expect_library_columns_equal_the_library_functions(tmp_path, config):
    import configparser

    import qladder.cli as cli

    cfg = configparser.ConfigParser()
    cfg.read_string(config)
    cfg.set("expect", "observables", _ALL_OBSERVABLES)
    path = tmp_path / "scenario.ini"
    with open(path, "w", encoding="utf-8") as fh:
        cfg.write(fh)
    code, out, err = run_cli(["expect", "--config", str(path), "--format", "json"])
    assert code == 0, err
    (table,) = json.loads(out)["tables"]
    ctx, state = build_context(cli.family_from(cfg)), cli.state_from(cfg)
    picture = cfg.get("expect", "picture", fallback="interaction")
    specs = [spec.strip() for spec in _ALL_OBSERVABLES.split(",")]
    for row in table["rows"]:
        cells = dict(zip(table["columns"], row))
        t = row[0]
        for spec in specs:
            label = f"{spec.replace(':', '_')}@{picture}"
            want = _library_value(ctx, state, spec, t, picture)
            if isinstance(want, complex):
                assert complex(cells[f"re_{label}"], cells[f"im_{label}"]) == want, (spec, t)
            else:
                assert cells[label] == want, (spec, t)


@pytest.mark.parametrize("picture", ["interaction", "full"])
def test_each_oracle_series_on_a_trajectory_equals_its_rows(family_ctx, picture):
    import qladder.cli as cli
    from qladder.fockoracle import expm_evolve, truncated_h

    start = np.zeros(80, dtype=complex)
    start[:3] = (0.6, 0.8j, 0.1)
    ts = np.linspace(0.0, 1.2, 5)
    gs = expm_evolve(truncated_h(family_ctx.js, 80), ts, start)
    for spec, obs, idx in cli._observables(_ALL_OBSERVABLES + ", correlation:2:0, cluster_correlation:0:3"):
        whole = obs.series(family_ctx, gs, idx, ts, picture)
        rows = [obs.series(family_ctx, g, idx, t, picture) for g, t in zip(gs, ts)]
        assert np.shape(whole) == ts.shape, spec
        assert np.max(np.abs(whole - np.array(rows))) < 1e-14 * max(1.0, np.max(np.abs(rows))), spec


def test_python_m_qladder_matches_in_process_main():
    argv = ["expect", "--config", "scenarios/gaussian_expect.ini", "--oracle"]
    root = SCENARIOS.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "qladder", *argv], cwd=root, env=env,
                          capture_output=True, check=False)
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run_cli([argv[0], "--config", str(SCENARIOS / "gaussian_expect.ini"), "--oracle"])
    assert code == 0 and proc.stdout == out.encode("utf-8")


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


@pytest.mark.parametrize("kind", ["kind = hermite", "kind = laguerre\nmu = 1.3"])
@pytest.mark.parametrize("command, section", [
    ("propagate", "[propagate]\npairs = 0:0, 0:3, 2:1, 4:4\n"),
    ("expect", "[state]\nkind = number\nn = 2\n\n[expect]\nobservables = number_moment:1, correlation:0:1\n"),
    ("expect", "[state]\nkind = gaussian\nzeta = 0.4+0.2j\n\n[expect]\n"
               "observables = number_moment:2, cluster_correlation:1:1, total_energy\n"),
])
def test_a_request_pays_one_dual_and_one_sweep(tmp_path, monkeypatch, kind, command, section):
    from qladder import orthopoly, propagator

    calls = []

    def counting(name, f):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(orthopoly._ClosedRatio, "dual", counting("dual", orthopoly._ClosedRatio.dual))
    monkeypatch.setattr(propagator, "_final_frame_sweep", counting("sweep", propagator._final_frame_sweep))
    cfgp = write_config(tmp_path, "[scenario]\nschema_version = 1\n\n[family]\n" + kind + "\n\n" + section
                        + "\n[grid]\nt0 = 0.0\nt1 = 2.0\nsteps = 7\n")
    code, out, err = run_cli([command, "--config", cfgp])
    assert code == 0, err
    assert calls == ["dual", "sweep"]


def test_expect_oracle_reads_the_start_vector_itself_at_t_0(tmp_path):
    # e^0 = I: the oracle's t = 0 row is |4> itself, so its alpha dispersion is 0
    cfgp = write_config(
        tmp_path,
        "[scenario]\nschema_version = 1\n\n[family]\nkind = jacobi\na = -1.0\nb = 1.0\nmu = 0.947\nnu = 3.162\n\n"
        "[state]\nkind = number\nn = 4\n\n[expect]\nobservables = alpha_dispersion\n\n"
        "[grid]\nt0 = 0.0\nt1 = 1.0\nsteps = 3\n",
    )
    code, out, err = run_cli(["expect", "--config", cfgp, "--oracle", "--truncation", "400", "--format", "json"])
    assert code == 0, err
    (table,) = json.loads(out)["tables"]
    first = dict(zip(table["columns"], table["rows"][0]))
    assert first["t(dimensionless,hbar=1)"] == 0.0 and first["oracle_alpha_dispersion"] == 0.0
