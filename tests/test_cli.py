"""Command-line driver: forcing grammar, config hashing, artifacts, exits.

Exit convention under test: 0 success, 1 usage/config/runtime errors,
2 reserved for honest invariant-violation reports (a checker that ran and
failed). Artifact determinism: identical configs give byte-identical
artifacts, with manifest.json (timestamps) the single allowed exception.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprenorm_lab import RotationNumber, SectionConfig, check_H4, cli
from qprenorm_lab.cli import (
    RunConfig,
    load_config,
    main,
    parse_forcing,
    parse_omega,
)
from qprenorm_lab.errors import DiophantineError, ForcingParseError

TWO_PI = 2.0 * math.pi


# -------------------------------------------------------- forcing grammar

def test_forcing_single_cosine():
    g, modes = parse_forcing("[1]*cos(1w)")
    assert modes == [1]
    assert g(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert g(0.25, 0.7) == pytest.approx(0.0, abs=1e-15)


def test_forcing_coefficients_are_ascending_x_powers():
    g, modes = parse_forcing("[0,1]*sin(1w)")
    assert modes == [1]
    assert g(0.25, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert g(0.25, -0.3) == pytest.approx(-0.3, abs=1e-15)


def test_forcing_sums_terms():
    g, modes = parse_forcing("[1]*cos(1w) + [0.5,0,2]*sin(2w)")
    assert modes == [1, 2]
    th, x = 0.15, 0.4
    want = (math.cos(TWO_PI * th)
            + (0.5 + 2.0 * x ** 2) * math.sin(2 * TWO_PI * th))
    assert g(th, x) == pytest.approx(want, rel=1e-14)


def test_forcing_tolerates_whitespace():
    g, modes = parse_forcing("  [ 1 , 0.5 ] * cos( 2 w )  ")
    assert modes == [2]
    assert g(0.0, 1.0) == pytest.approx(1.5, abs=1e-15)


@pytest.mark.parametrize("bad", [
    "cos(1w)",             # coefficients missing
    "[1]*tan(1w)",         # unknown waveform
    "[1]*cos(w)",          # mode index missing
    "[]*cos(1w)",          # empty coefficient list
    "[1]*cos(1w) % extra", # trailing garbage
])
def test_forcing_rejects_malformed(bad):
    with pytest.raises(ForcingParseError) as err:
        parse_forcing(bad)
    assert err.value.pos is not None


@pytest.mark.parametrize("coeff", ["nan", "inf", "-inf", "NaN"])
def test_forcing_rejects_non_finite_coefficients(coeff):
    expr = f"[1]*sin(1w) + [0.5,{coeff}]*cos(2w)"
    with pytest.raises(ForcingParseError) as err:
        parse_forcing(expr)
    assert err.value.pos == expr.index("0.5")


def test_forcing_rejects_mode_beyond_truncation():
    with pytest.raises(ForcingParseError):
        parse_forcing("[1]*cos(17w)", k_max=16)


def test_forcing_rejects_mode_past_the_int_digit_limit():
    with pytest.raises(ForcingParseError) as err:
        parse_forcing("[1]*cos(" + "5" * 5000 + "w)")
    assert err.value.pos == len("[1]*cos(")


# strings near the grammar as well as arbitrary text
_TERM = st.builds(
    "[{}]*{}({}{}w)".format,
    st.lists(st.sampled_from(["1", "0.5", "-2e3", "", "x", "nan", " 1 "]),
             max_size=3).map(",".join),
    st.sampled_from(["cos", "sin", "tan", ""]),
    st.text("0123456789 ", max_size=6),
    st.sampled_from(["", " "]))
_FORCING = st.one_of(st.text(max_size=40),
                     st.lists(_TERM, min_size=1, max_size=3).map("+".join),
                     st.lists(_TERM, min_size=1, max_size=3).map(" + ".join))


@settings(max_examples=200, deadline=None)
@given(_FORCING)
def test_forcing_parser_raises_only_its_own_error(expr):
    try:
        g, modes = parse_forcing(expr)
    except ForcingParseError as e:
        assert e.pos is not None and 0 <= e.pos <= len(expr)
        return
    assert all(1 <= k <= 16 for k in modes)
    assert np.asarray(g(np.array([0.1]), np.array([0.2]))).shape == (1,)


# -------------------------------------------------------- rotation parsing

def test_omega_named_golden():
    w = parse_omega("golden", 0.0, 1.0, 0)
    assert float(w) == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-12)


def test_golden_takes_the_certificate_set_in_the_config(tmp_path, capsys):
    # at dio_gamma = 0 golden keeps its own certificate
    assert parse_omega("golden", 0.0, 1.0, 0) == RotationNumber.golden()
    # golden and its 42-term continued fraction both break gamma = 0.9 at q=1
    for spec in ("golden", "[" + ",".join(["1"] * 42) + "]"):
        p = tmp_path / "cert.ini"
        p.write_text(f"[run]\nomega = {spec}\ndio_gamma = 0.9\n"
                     "dio_qmax = 50\n")
        assert main(["--config", str(p), "--out", str(tmp_path / "out"),
                     "--nmax", "3", "conjecture", "--which", "h5"]) == 1
        assert ("at q=1 breaks gamma/q^tau = 9.000e-01"
                in capsys.readouterr().err)


def test_omega_fraction():
    w = parse_omega("1/3", 0.0, 1.0, 0)
    assert float(w) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_omega_continued_fraction_converges_to_golden():
    w = parse_omega("[" + ",".join(["1"] * 30) + "]", 0.0, 1.0, 0)
    assert float(w) == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-10)


def test_omega_garbage_rejected():
    with pytest.raises(ValueError):
        parse_omega("not-a-number", 0.0, 1.0, 0)


@pytest.mark.parametrize("spec", ["inf", "-inf", "nan", "1e309"])
def test_omega_non_finite_rejected_by_name(spec):
    with pytest.raises(ValueError, match=repr(spec)):
        parse_omega(spec, 0.0, 1.0, 0)


_OMEGA = st.one_of(
    st.text(max_size=20),
    st.sampled_from(["golden", "inf", "nan", "1e309", "[]", "[1,", "1/0",
                     "-1/3", "0.5"]),
    st.builds("{}/{}".format, st.integers(-50, 50), st.integers(-5, 50)),
    st.lists(st.integers(-2, 9), max_size=6).map(
        lambda q: "[" + ",".join(map(str, q)) + "]"),
    st.floats(allow_nan=True, allow_infinity=True).map(repr))


@settings(max_examples=200, deadline=None)
@given(_OMEGA, st.sampled_from([0.0, 0.01, 0.3]), st.integers(0, 40))
def test_omega_parser_raises_only_value_or_diophantine_errors(spec, gamma,
                                                              q_max):
    try:
        w = parse_omega(spec, dio_gamma=gamma, dio_tau=1.0, q_max=q_max)
    except (ValueError, DiophantineError):
        return
    assert 0.0 <= float(w) < 1.0


# ------------------------------------------------------------ config hash

def test_config_hash_deterministic_and_out_dir_exempt():
    cfg = RunConfig()
    assert cfg.sha256() == RunConfig().sha256()
    assert dataclasses.replace(cfg, out_dir="elsewhere").sha256() \
        == cfg.sha256()
    assert dataclasses.replace(cfg, plot_data=True).sha256() == cfg.sha256()
    assert dataclasses.replace(cfg, n_max=9).sha256() != cfg.sha256()
    assert dataclasses.replace(cfg, seed=8).sha256() != cfg.sha256()


def test_default_config_hash_is_pinned():
    assert RunConfig().sha256() == (
        "6cbfb3127e55c6993ffd5145916a6b468caa0713cee32fb2a4436aaf49689b13")


def test_config_file_round_trip(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(
        "[run]\nnmax = 4\nseed = 11\n\n[family2]\nforcing = [1]*sin(1w)\n")
    cfg = load_config(str(p))
    assert cfg.n_max == 4
    assert cfg.seed == 11
    assert cfg.forcing2 == "[1]*sin(1w)"


# (section, key, raw value, RunConfig field, parsed value); none is a default
INI_KEYS = [
    ("run", "omega", "[2,1,1]", "omega", "[2,1,1]"),
    ("run", "nmax", "4", "n_max", 4),
    ("run", "mode", "fixed-point", "mode", "fixed-point"),
    ("run", "mode_k", "3", "mode_k", 3),
    ("run", "seed", "11", "seed", 11),
    ("run", "eps", "1e-5", "eps", 1e-5),
    ("run", "alpha", "3.5", "alpha", 3.5),
    ("run", "etas", "1e-4, 2e-3", "etas", (1e-4, 2e-3)),
    ("run", "dio_gamma", "0.2", "dio_gamma", 0.2),
    ("run", "dio_tau", "1.5", "dio_tau", 1.5),
    ("run", "dio_qmax", "500", "dio_qmax", 500),
    ("run", "direct_nmax", "2", "direct_nmax", 2),
    ("run", "out", "elsewhere", "out_dir", "elsewhere"),
    ("family", "name", "flm-a", "family", "flm-a"),
    ("family", "forcing", "[2]*sin(1w)", "forcing", "[2]*sin(1w)"),
    ("family2", "name", "flm-b", "family2", "flm-b"),
    ("family2", "forcing", "[1]*cos(2w)", "forcing2", "[1]*cos(2w)"),
    ("domain", "n_cheb", "32", "n_cheb", 32),
    ("domain", "n_fourier", "12", "n_fourier", 12),
    ("domain", "delta_dom", "0.2", "delta_dom", 0.2),
    ("section", "theta0", "0.25", "theta0", 0.25),
    ("section", "x0", "0.1", "x0", 0.1),
    ("tolerances", "fp_tol", "1e-9", "fp_tol", 1e-9),
    ("tolerances", "dt_tol", "1e-8", "dt_tol", 1e-8),
]


@pytest.mark.parametrize("section,key,raw,name,want", INI_KEYS,
                         ids=[f"{s}.{k}" for s, k, *_ in INI_KEYS])
def test_config_file_sets_each_key(tmp_path, section, key, raw, name, want):
    p = tmp_path / "run.ini"
    p.write_text(f"[{section}]\n{key} = {raw}\n")
    cfg = load_config(str(p))
    assert getattr(RunConfig(), name) != want
    assert getattr(cfg, name) == want
    assert type(getattr(cfg, name)) is type(want)
    if name == "etas":
        assert all(type(e) is float for e in cfg.etas)


def test_config_key_list_covers_every_declared_key():
    declared = {f.metadata["ini"] for f in dataclasses.fields(RunConfig)
                if "ini" in f.metadata}
    assert declared == {(s, k) for s, k, *_ in INI_KEYS}


@pytest.mark.parametrize("text,fragment", [
    ("[run]\nbogus = 1\n", "unknown key"),
    ("[mystery]\nx = 1\n", "unknown section"),
    ("[run]\nmode = sideways\n", "mode"),
    ("[family]\nforcing = [1]*cos(99w)\n", "mode"),
    ("[run]\netas = 1e-3,abc\n", "bad value"),
])
def test_config_file_rejected(tmp_path, text, fragment):
    p = tmp_path / "bad.ini"
    p.write_text(text)
    with pytest.raises((ValueError, ForcingParseError)) as err:
        load_config(str(p))
    assert fragment.split()[0] in str(err.value).lower()


def test_non_finite_forcing_config_exits_1(tmp_path, capsys):
    p = tmp_path / "nan.ini"
    p.write_text("[family]\nforcing = [nan]*cos(1w)\n")
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out), "--nmax", "3",
                 "slopes"]) == 1
    assert "non-finite coefficient" in capsys.readouterr().err
    assert not (out / "slopes.csv").exists()


def test_superstable_past_the_cap_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--out", str(out), "--nmax", "15", "superstable"]) == 1
    assert "MAX_LEVEL = 14" in capsys.readouterr().err
    assert not (out / "superstable.csv").exists()


FLOAT_KEYS = [(s, k, raw) for s, k, raw, _, want in INI_KEYS
              if type(want) in (float, tuple)]


@pytest.mark.parametrize("bad", ["nan", "-inf"])
@pytest.mark.parametrize("section,key,raw", FLOAT_KEYS,
                         ids=[f"{s}.{k}" for s, k, _ in FLOAT_KEYS])
def test_config_non_finite_float_rejected_by_key(tmp_path, section, key, raw,
                                                 bad):
    # for etas, one bad entry of the list is enough
    value = f"{raw}, {bad}" if key == "etas" else bad
    p = tmp_path / "bad.ini"
    p.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ValueError, match=rf"non-finite .*\[{section}\] {key}"):
        load_config(str(p))


@pytest.mark.parametrize("section,key,argv", [
    ("section", "x0", ["--nmax", "4", "conjecture", "--which", "h3"]),
    ("run", "eps", ["--nmax", "2", "curve"]),
])
def test_non_finite_config_value_exits_1_naming_the_key(tmp_path, capsys,
                                                         section, key, argv):
    p = tmp_path / "nan.ini"
    p.write_text(f"[{section}]\n{key} = nan\n")
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out)] + argv) == 1
    assert (f"non-finite value for [{section}] {key}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_config_missing_file(tmp_path):
    with pytest.raises(ValueError):
        load_config(str(tmp_path / "absent.ini"))


# ------------------------------------------------------------- subcommands

def test_delta_run_and_report(tmp_path):
    out = tmp_path / "out"
    assert main(["--out", str(out), "delta"]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["delta_feig"] == pytest.approx(4.6692016091, abs=1e-5)
    assert len(rep["config_sha256"]) == 64
    manifest = json.loads((out / "manifest.json").read_text())
    names = {e["file"] for e in manifest["artifacts"]}
    assert "report.json" in names


def test_fixed_point_run(tmp_path):
    out = tmp_path / "out"
    assert main(["--out", str(out), "fixed-point"]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["renorm_residual"] <= 1e-10
    assert rep["h0"]["contained"] is True
    assert (out / "phi_coefficients.csv").exists()


def test_superstable_csv_format(tmp_path):
    out = tmp_path / "out"
    assert main(["--out", str(out), "--nmax", "4", "superstable"]) == 0
    raw = (out / "superstable.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("ascii").strip().split("\n")
    header = lines[0].split(",")
    assert all("[" in cell and "]" in cell for cell in header)
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(2.0, abs=1e-9)


def test_spectrum_run(tmp_path):
    out = tmp_path / "out"
    assert main(["--out", str(out), "spectrum"]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["pairing_ok"] is True
    lines = (out / "spectrum.csv").read_text().strip().split("\n")
    assert lines[0].count(",") == 2  # re, im, modulus
    re0, im0, mod0 = (float(v) for v in lines[1].split(","))
    assert math.hypot(re0, im0) == pytest.approx(mod0, rel=1e-12)
    assert mod0 == pytest.approx(rep["spectral_radius"], rel=1e-12)


def test_dt_check_run(tmp_path):
    out = tmp_path / "out"
    assert main(["--out", str(out), "dt-check"]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["max_residual"] <= 1e-10


def test_curve_run(tmp_path):
    out = tmp_path / "out"
    assert main(["--out", str(out), "--nmax", "2", "curve"]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["residual"] <= 1e-10
    assert rep["lyapunov"] < 0.0
    lines = (out / "curve.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + rep["grid"]


def test_curve_runs_at_the_default_config(tmp_path):
    # nmax 6, alpha = s_6 and the default eps: the curve must attract
    out = tmp_path / "out"
    assert main(["--out", str(out), "curve"]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["period_log2"] == 6 and rep["eps"] == RunConfig().eps
    assert rep["residual"] <= 1e-10
    assert rep["lyapunov"] < 0.0


def test_slopes_run_beta_mirrors_alpha(tmp_path):
    out = tmp_path / "out"
    assert main(["--out", str(out), "--nmax", "2", "slopes"]) == 0
    rep = json.loads((out / "report.json").read_text())
    for n in rep["alpha_prime"]:
        assert rep["beta_prime"][n] == pytest.approx(
            -rep["alpha_prime"][n], rel=1e-9)


def test_slopes_cross_checks_the_direct_slope(tmp_path):
    # direct_nmax = 1: level 1 carries the direct slope and its relative
    # gap to alpha', level 2 leaves both columns empty
    p = tmp_path / "direct.ini"
    p.write_text("[run]\nnmax = 2\ndirect_nmax = 1\neps = 1e-4\n")
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out), "slopes"]) == 0
    lines = (out / "slopes.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[4:] == ["direct_slope [parameter/forcing]", "rel_gap [1]"]
    level1, level2 = (line.split(",") for line in lines[1:])
    alpha_p, direct, gap = float(level1[2]), float(level1[4]), float(level1[5])
    assert gap == abs(alpha_p - direct) / abs(direct)
    assert gap <= 1e-3
    assert level2[0] == "2" and level2[4:] == ["", ""]


def test_conjecture_h4_reads_the_section(tmp_path, monkeypatch):
    seen = []

    def spy(**kw):
        seen.append(kw["section"])
        return check_H4(**dict(kw, n_pairs=5))

    monkeypatch.setattr(cli, "check_H4", spy)
    p = tmp_path / "run.ini"
    p.write_text("[section]\ntheta0 = 0.25\n")
    out = tmp_path / "o"
    assert main(["--config", str(p), "--out", str(out),
                 "conjecture", "--which", "h4"]) in (0, 2)
    assert seen == [SectionConfig(theta0=0.25)]
    # the section moves the result, so the report depends on it
    rep = json.loads((out / "report.json").read_text())
    default = check_H4(n_pairs=5, seed=RunConfig().seed)
    assert rep["max_ratio_l2"] != default.max_ratio_l2


@pytest.mark.parametrize("argv,name", [
    (["conjecture", "--which", "h4"], "contraction.csv"),
    (["--nmax", "3", "observe", "--which", "3"], "deviations.csv"),
])
def test_domain_config_reaches_the_run(tmp_path, argv, name):
    # both drivers build their maps on [domain], so a different truncation
    # changes the numbers they write
    p = tmp_path / "run.ini"
    p.write_text("[domain]\nn_cheb = 48\nn_fourier = 20\n")
    default, custom = tmp_path / "default", tmp_path / "custom"
    assert main(["--out", str(default)] + argv) == 0
    assert main(["--config", str(p), "--out", str(custom)] + argv) == 0
    assert (default / name).read_bytes() != (custom / name).read_bytes()


def test_plot_data_flag_emits_dat(tmp_path):
    out = tmp_path / "out"
    assert main(["--out", str(out), "--nmax", "4", "--plot-data",
                 "superstable"]) == 0
    assert (out / "superstable.dat").exists()


# ------------------------------------------------------------ determinism

def test_identical_runs_are_byte_identical(tmp_path):
    for argv, csv in (
            (["--nmax", "4", "superstable"], "superstable.csv"),
            # exact-orbit chains: renormalization and DR at every step
            (["--nmax", "5", "observe", "--which", "2"], "quotients.csv")):
        a, b = tmp_path / argv[-1] / "a", tmp_path / argv[-1] / "b"
        assert main(["--out", str(a)] + argv) == 0
        assert main(["--out", str(b)] + argv) == 0
        for name in ("report.json", csv):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        assert {e["file"]: e["sha256"] for e in ma["artifacts"]} \
            == {e["file"]: e["sha256"] for e in mb["artifacts"]}


# -------------------------------------------------------------- exit codes

def test_exit_zero_help():
    assert main(["--help"]) == 0


def test_exit_one_usage_errors():
    assert main([]) == 1
    assert main(["observe", "--which", "5"]) == 1
    assert main(["no-such-command"]) == 1


def test_exit_one_bad_forcing_config(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[family]\nforcing = [1]*tan(1w)\n")
    assert main(["--config", str(p), "--out", str(tmp_path / "o"),
                 "delta"]) == 1


def test_exit_one_rational_rotation(tmp_path):
    assert main(["--omega", "1/3", "--out", str(tmp_path / "o"),
                 "observe", "--which", "2"]) == 1


@pytest.mark.parametrize("ini,argv,fragment", [
    ("", ["--nmax", "2", "observe", "--which", "2"], "n_max >= 4"),
    ("[run]\netas =\n", ["observe", "--which", "3"], "at least one eta"),
    ("", ["--nmax", "1", "conjecture", "--which", "h3"], "n_max >= 2"),
    ("", ["--nmax", "0", "conjecture", "--which", "h5"], "n_max >= 1"),
], ids=["observe-2", "observe-3-no-etas", "h3", "h5"])
def test_exit_one_on_a_run_too_shallow_or_empty(tmp_path, capsys, ini, argv,
                                                fragment):
    p = tmp_path / "run.ini"
    p.write_text(ini)
    assert main(["--config", str(p), "--out", str(tmp_path / "o")]
                + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert "Traceback" not in err


def test_exit_two_on_failed_checker(tmp_path):
    # second-mode forcing renormalizes along 2 omega: observation 1 must
    # report FAIL, which the driver maps to exit code 2
    p = tmp_path / "neg.ini"
    p.write_text("[run]\nnmax = 6\n\n[family2]\nforcing = [1]*cos(2w)\n")
    out = tmp_path / "o"
    assert main(["--config", str(p), "--out", str(out),
                 "observe", "--which", "1"]) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is False


# --------------------------------------------------------------- env knob

THREAD_VARS = ("QPRENORM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def test_thread_cap_env():
    import os, subprocess, sys
    code = ("import os, qprenorm_lab; "
            "print(os.environ['OMP_NUM_THREADS'], "
            "os.environ['OPENBLAS_NUM_THREADS'])")
    # the child sees none of the caller's thread settings, and imports the
    # package from where this process found it
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    base["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))

    def child(**env):
        res = subprocess.run([sys.executable, "-c", code],
                             env=dict(base, **env), capture_output=True,
                             text=True, check=True)
        return res.stdout.split()

    assert child(QPRENORM_THREADS="2") == ["2", "2"]
    # an explicit per-library setting wins over the blanket knob
    assert child(QPRENORM_THREADS="2", OMP_NUM_THREADS="3") == ["3", "2"]
