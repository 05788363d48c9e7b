"""Command-line driver: forcing grammar, config hashing, artifacts, exits.

Exit convention under test: 0 success, 1 usage/config/runtime errors,
2 if and only if a subcommand ran and a clause of its verdict failed. Artifact determinism: identical configs give byte-identical
artifacts, with manifest.json (timestamps) the single allowed exception.
"""

import configparser
import csv
import dataclasses
import json
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprenorm_lab import (RotationNumber, SectionConfig, asymptotics,
                          check_H4, cli)
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


def _broadcast_forcing(terms, theta, x):
    """Reference: every factor of the forcing on the broadcast (theta, x)
    points."""
    th = 2.0 * np.pi * np.asarray(theta, dtype=float)
    xv = np.asarray(x, dtype=float)
    th, xv = np.broadcast_arrays(th, xv)
    out = np.zeros_like(xv)
    for c, trig, k in terms:
        poly = np.polynomial.polynomial.polyval(xv, np.array(c))
        ang = np.cos(k * th) if trig == "cos" else np.sin(k * th)
        out = out + poly * ang
    return out


@pytest.mark.parametrize("expr, terms", [
    ("[1]*cos(1w)", [([1.0], "cos", 1)]),
    ("[0.5,0,0.5]*sin(1w)", [([0.5, 0.0, 0.5], "sin", 1)]),
    ("[0.3,-0.2,0.6]*sin(1w) + [-1e-3,2]*cos(3w) + [0,0,0,7]*sin(16w)",
     [([0.3, -0.2, 0.6], "sin", 1), ([-1e-3, 2.0], "cos", 3),
      ([0.0, 0.0, 0.0, 7.0], "sin", 16)]),
])
def test_forcing_is_the_broadcast_formula_bit_for_bit(expr, terms):
    g, _ = parse_forcing(expr)
    rng = np.random.default_rng(3)
    th, x = rng.uniform(-1.0, 2.0, 40), rng.uniform(-1.1, 1.1, 40)
    for theta, xx in (((np.arange(33) / 33)[:, None], x),
                      (0.15, 0.4), (np.array(0.7), x), (th[:5, None], 0.2),
                      (th, x), (th[:3, None, None], x.reshape(4, 10)),
                      (th[:0, None], x)):
        got, want = g(theta, xx), _broadcast_forcing(terms, theta, xx)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


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


def test_omega_empty_continued_fraction_exits_1(tmp_path, capsys):
    assert main(["--omega", "[]", "--out", str(tmp_path / "o"),
                 "spectrum"]) == 1
    assert "at least one partial quotient" in capsys.readouterr().err


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


# (section, key, out-of-range raw value, subcommand that reads the key);
# at least one case per declared range
OUT_OF_RANGE = [
    ("run", "nmax", "0", ["superstable"]),
    ("run", "mode", "sideways", ["slopes"]),
    ("run", "seed", "-1", ["dt-check"]),
    ("run", "dio_gamma", "-1", ["observe", "--which", "2"]),
    ("run", "dio_tau", "-0.5", ["observe", "--which", "2"]),
    ("run", "dio_qmax", "-1", ["observe", "--which", "2"]),
    ("run", "direct_nmax", "-1", ["slopes"]),
    ("tolerances", "fp_tol", "-1", ["fixed-point"]),
    ("tolerances", "fp_tol", "0", ["fixed-point"]),
    ("tolerances", "dt_tol", "0", ["dt-check"]),
    ("tolerances", "dt_tol", "-1e-10", ["dt-check"]),
]


def test_every_declared_range_has_an_out_of_range_case():
    ranged = {f.metadata["ini"] for f in dataclasses.fields(RunConfig)
              if f.metadata.get("range")}
    assert ranged == {(s, k) for s, k, *_ in OUT_OF_RANGE}


@pytest.mark.parametrize("section,key,raw,argv", OUT_OF_RANGE,
                         ids=[f"{s}.{k}={raw}" for s, k, raw, _ in
                              OUT_OF_RANGE])
def test_out_of_range_value_exits_1_naming_the_key(tmp_path, capsys, section,
                                                   key, raw, argv):
    # a config error exits 1; it never reads as a failed clause (exit 2)
    # or as a gate that checks nothing
    p = tmp_path / "bad.ini"
    p.write_text(f"[{section}]\n{key} = {raw}\n")
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out)] + argv) == 1
    assert capsys.readouterr().err.startswith(
        f"error: [{section}] {key} must be ")
    assert not out.exists()


def test_readme_config_example_loads_and_names_every_key(tmp_path):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    p = tmp_path / "readme.ini"
    p.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
    load_config(str(p))
    parser = configparser.ConfigParser()
    parser.read(p)
    named = {(sec, key) for sec in parser.sections() for key in parser[sec]}
    assert named == {f.metadata["ini"] for f in dataclasses.fields(RunConfig)
                     if "ini" in f.metadata}

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


@pytest.mark.parametrize("text,argv,key", [
    ("[domain]\nn_cheb = 4\n", ["delta"], "[domain] n_cheb"),
    ("[domain]\ndelta_dom = 2.0\n", ["delta"], "[domain] delta_dom"),
    ("[section]\nx0 = 5\n", ["--nmax", "4", "conjecture", "--which", "h3"],
     "[section] x0"),
    ("", ["--seed", "-1", "dt-check"], "[run] seed"),
    ("", ["--omega", "foo", "delta"], "[run] omega 'foo'"),
], ids=["n_cheb", "delta_dom", "x0", "seed", "omega"])
def test_bad_config_value_exits_1_before_the_artifact_directory(
        tmp_path, capsys, text, argv, key):
    p = tmp_path / "bad.ini"
    p.write_text(text)
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out)] + argv) == 1
    assert key in capsys.readouterr().err
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


def test_dt_check_stops_at_the_truncation(tmp_path, capsys):
    # K = 4 < 8: the modes checked are 1..K
    p = tmp_path / "run.ini"
    p.write_text("[domain]\nn_fourier = 4\n")
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out), "dt-check"]) == 0
    assert "over k<=4," in capsys.readouterr().out
    rep = json.loads((out / "report.json").read_text())
    assert list(rep["per_mode"]) == ["1", "2", "3", "4"]
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


def test_observe_3_plots_the_eta_it_judges(tmp_path):
    # etas -0.01 and 0.01 tie in size; the non-equivalence arm reads the
    # one given last, and so does the plot
    p = tmp_path / "tie.ini"
    p.write_text("[run]\netas = 1e-2,-1e-2,1e-3\n")
    out = tmp_path / "o"
    assert main(["--config", str(p), "--out", str(out), "--nmax", "5",
                 "--plot-data", "observe", "--which", "3"]) in (0, 2)
    with open(out / "deviations.csv") as fh:
        rows = list(csv.DictReader(fh))
    col = "abs_dev_eta_-0.01 [1]"
    want = [f"{row['n [level]']} {row[col]}" for row in rows]
    assert (out / "deviations.dat").read_text().splitlines() == want


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
        # the manifest names the command as report.json does
        assert ma["command"] == json.loads(
            (a / "report.json").read_text())["command"]


# -------------------------------------------------------------- exit codes

def test_exit_zero_help():
    assert main(["--help"]) == 0


def test_exit_one_usage_errors():
    assert main([]) == 1
    assert main(["observe", "--which", "5"]) == 1
    assert main(["no-such-command"]) == 1


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    # the parser is built on the first call of a process and reused: two
    # runs give the same status and artifacts, and a usage error after them
    # still exits 1
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counted(self, *args, **kw):
        if kw.get("prog") == "qprenorm-lab":     # not a subcommand's parser
            built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    argv = ["--nmax", "5", "observe", "--which", "2"]
    outs = [tmp_path / "a", tmp_path / "b"]
    assert [main(["--out", str(out)] + argv) for out in outs] == [0, 0]
    assert main([]) == main(["observe", "--which", "5"]) == 1
    assert len(built) == 1
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in set(names) - {"manifest.json"}:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_exit_one_bad_forcing_config(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[family]\nforcing = [1]*tan(1w)\n")
    assert main(["--config", str(p), "--out", str(tmp_path / "o"),
                 "delta"]) == 1


def test_exit_one_rational_rotation(tmp_path):
    assert main(["--omega", "1/3", "--out", str(tmp_path / "o"),
                 "observe", "--which", "2"]) == 1


OBS3_ETAS_RULE = "nonzero etas of at least two different sizes |eta|"


@pytest.mark.parametrize("ini,argv,fragment", [
    ("", ["--nmax", "4", "observe", "--which", "2"], "n_max >= 5"),
    ("[run]\netas =\n", ["observe", "--which", "3"], OBS3_ETAS_RULE),
    ("[run]\netas = 0,1e-2\n", ["observe", "--which", "3"], OBS3_ETAS_RULE),
    ("[run]\netas = 1e-3\n", ["observe", "--which", "3"], OBS3_ETAS_RULE),
    ("[run]\netas = 1e-3,-1e-3\n", ["observe", "--which", "3"],
     OBS3_ETAS_RULE),
    ("", ["--nmax", "3", "conjecture", "--which", "h3"], "n_max >= 4"),
    ("", ["--nmax", "0", "conjecture", "--which", "h5"], "nmax must be >= 1"),
    ("", ["--nmax", "3", "observe", "--which", "1"], "n_max >= 4"),
    ("", ["--nmax", "2", "observe", "--which", "3"], "n_max >= 3"),
    ("[run]\nmode_k = 40\n", ["spectrum"], "[run] mode_k must be in 1..16"),
    ("[run]\neps = 0\ndirect_nmax = 1\n", ["--nmax", "1", "slopes"],
     "[run] eps"),
    ("[run]\neps = -1e-6\ndirect_nmax = 2\n", ["--nmax", "2", "slopes"],
     "[run] eps"),
    ("[domain]\nn_fourier = 1\n", ["conjecture", "--which", "h5"],
     "n_fourier = 1"),
    ("[domain]\nn_fourier = 1\n", ["observe", "--which", "3"],
     "n_fourier = 1"),
    ("[run]\ndio_tau = -1\n", ["observe", "--which", "2"],
     "[run] dio_tau must be >= 0"),
    ("[run]\ndio_qmax = -1\n", ["--nmax", "2", "superstable"],
     "[run] dio_qmax must be >= 0"),
    ("[run]\ndirect_nmax = -1\n", ["--nmax", "2", "superstable"],
     "[run] direct_nmax must be >= 0"),
], ids=["observe-2", "observe-3-no-etas", "observe-3-zero-eta",
        "observe-3-one-eta", "observe-3-one-size", "h3", "h5", "observe-1",
        "observe-3", "spectrum-mode-k", "slopes-direct-eps-0",
        "slopes-direct-eps-negative", "h5-one-fourier-mode",
        "observe-3-one-fourier-mode", "dio-tau-negative", "dio-qmax-negative",
        "direct-nmax-negative"])
def test_exit_one_on_a_run_too_shallow_or_empty(tmp_path, capsys, ini, argv,
                                                fragment):
    p = tmp_path / "run.ini"
    p.write_text(ini)
    assert main(["--config", str(p), "--out", str(tmp_path / "o")]
                + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,status", [
    (["--nmax", "4", "observe", "--which", "1"], 1),
    (["--nmax", "5", "observe", "--which", "2"], 1),
    (["--nmax", "4", "conjecture", "--which", "h3"], 1),
    (["--nmax", "4", "slopes"], 0),
], ids=["observe-1", "observe-2", "h3", "slopes"])
def test_zero_coupling_exits_1_where_a_quotient_divides_by_it(
        tmp_path, capsys, argv, status):
    # every slope and chain direction of a zero coupling is 0: slopes
    # writes them, and a slope quotient or a normalized direction raises
    # DegenerateScalingError naming the level
    p = tmp_path / "zero.ini"
    p.write_text("[family]\nforcing = [0]*cos(1w)\n")
    assert main(["--config", str(p), "--out", str(tmp_path / "o")]
                + argv) == status
    err = capsys.readouterr().err
    assert err.count("error:") == status and "Traceback" not in err


def test_a_run_that_raises_leaves_no_out_directory(tmp_path, capsys):
    # the store makes the directory on its first write, after the command
    p = tmp_path / "zero.ini"
    p.write_text("[family]\nforcing = [0]*cos(1w)\n")
    out = tmp_path / "o"
    assert main(["--config", str(p), "--out", str(out), "--nmax", "5",
                 "observe", "--which", "2"]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_h5_names_a_zero_coupling(tmp_path, capsys):
    # a mode-2 coupling leaves rounding noise (3e-16) in mode 1, which is
    # no start either
    for forcing in ("[0]*cos(1w)", "[1]*cos(2w)"):
        p = tmp_path / "zero.ini"
        p.write_text(f"[family]\nforcing = {forcing}\n")
        out = tmp_path / "o"
        assert main(["--config", str(p), "--out", str(out),
                     "conjecture", "--which", "h5"]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert "coupling" in err
        assert not out.exists()


def test_observe_2_runs_without_an_h5_band(tmp_path, capsys):
    # no clause of observation 2 reads the band, so a coupling with no
    # mode-1 part keeps its verdict and writes the band as null
    p = tmp_path / "mode2.ini"
    p.write_text("[family]\nforcing = [1]*cos(2w)\n")
    out = tmp_path / "o"
    assert main(["--config", str(p), "--out", str(out),
                 "observe", "--which", "2"]) == 0
    assert capsys.readouterr().out.endswith("-> PASS\n")
    rep = json.loads((out / "report.json").read_text())
    assert rep["h5_band"] is None and rep["passed"] is True
    assert (out / "quotients.csv").exists()


def test_observe_2_runs_without_mode_2(tmp_path, capsys):
    # one Fourier mode holds no H5 walk; the band is null and the clauses
    # are those of 16 modes (the identity gap moves with the truncation)
    lines = {}
    for n_fourier in (1, 16):
        p = tmp_path / "run.ini"
        p.write_text(f"[domain]\nn_fourier = {n_fourier}\n")
        out = tmp_path / str(n_fourier)
        assert main(["--config", str(p), "--out", str(out), "--nmax", "5",
                     "observe", "--which", "2"]) == 0
        lines[n_fourier] = re.sub(r"identity_gap \S+", "identity_gap",
                                  capsys.readouterr().out)
        band = json.loads((out / "report.json").read_text())["h5_band"]
        assert (band is None) == (n_fourier == 1)
    assert lines[1] == lines[16] and lines[1].endswith("-> PASS\n")


@pytest.mark.parametrize("nmax", [3, 14])
def test_ratio_band_labels_the_levels_it_reads(tmp_path, nmax):
    # check_H5's ratios are those of n = 1..min(nmax, H5_MAX_N)
    out = tmp_path / "o"
    assert main(["--out", str(out), "--nmax", str(nmax),
                 "conjecture", "--which", "h5"]) == 0
    with open(out / "ratio_band.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [int(r[0]) for r in rows] == list(range(1, min(nmax, 12) + 1))


def test_trivial_fit_records_integer_levels(tmp_path):
    # family2 is family1: the quotient differences are all zero
    p = tmp_path / "same.ini"
    p.write_text("[family2]\nforcing = [1]*cos(1w)\n")
    out = tmp_path / "o"
    assert main(["--config", str(p), "--out", str(out), "--nmax", "6",
                 "observe", "--which", "1"]) == 0
    fit = json.loads((out / "report.json").read_text())["fit"]
    assert fit["trivial"] is True
    assert fit["ns"] == [2, 3, 4, 5, 6]
    assert all(type(n) is int for n in fit["ns"])


def test_omega_without_a_certificate_runs_where_none_is_needed(tmp_path):
    # load_config checks that the omega spec parses; H4 samples its own
    # rotation numbers, so a rational omega still runs
    assert main(["--omega", "1/3", "--out", str(tmp_path / "o"),
                 "conjecture", "--which", "h4"]) == 0


@pytest.mark.parametrize("argv", [
    ["--nmax", "-1", "superstable"],
    ["--nmax", "0", "slopes"],
], ids=["superstable", "slopes"])
def test_exit_one_on_nmax_below_one(tmp_path, capsys, argv):
    # a run of depth < 1 has no level to write, so the config stops it
    # before the artifact directory exists
    out = tmp_path / "o"
    assert main(["--out", str(out)] + argv) == 1
    assert "nmax must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_exit_two_on_failed_checker(tmp_path, capsys):
    # second-mode forcing renormalizes along 2 omega: observation 1 must
    # report FAIL, which the driver maps to exit code 2; stdout names the
    # clause that failed, with its value and bound
    p = tmp_path / "neg.ini"
    p.write_text("[run]\nnmax = 6\n\n[family2]\nforcing = [1]*cos(2w)\n")
    out = tmp_path / "o"
    assert main(["--config", str(p), "--out", str(out),
                 "observe", "--which", "1"]) == 2
    assert capsys.readouterr().out.startswith(
        "observe-1: rho_hat_hi 1.058 (bound 1) -> FAIL")
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is False
    failed = [c for c in rep["clauses"] if not c["ok"]]
    assert [c["name"] for c in failed] == ["rho_hat_hi"]
    assert failed[0]["value"] >= failed[0]["bound"] == 1.0


def test_checker_verdict_names_the_first_failing_clause(tmp_path, capsys,
                                                        monkeypatch):
    # one writer for every subcommand: report.json gets command, passed
    # and every clause; stdout names the first failing clause only
    Clause = asymptotics.Clause
    clauses = [Clause("a", 0.5, 1.0, True), Clause("b", 2.0, 1.0, False),
               Clause("c", 3.0, 1.0, False)]
    monkeypatch.setitem(cli.COMMANDS, ("conjecture", "h5"),
                        lambda cfg, store: (clauses, {"extra": 1}))
    out = tmp_path / "o"
    assert main(["--out", str(out), "conjecture", "--which", "h5"]) == 2
    assert capsys.readouterr().out == "conjecture-h5: b 2 (bound 1) -> FAIL\n"
    got = json.loads((out / "report.json").read_text())
    assert got["command"] == "conjecture-h5" and got["passed"] is False
    assert got["extra"] == 1
    assert got["clauses"] == [c._asdict() for c in clauses]


@pytest.mark.parametrize("key,argv,clause", [
    ("fp_tol", ["fixed-point"], "renorm_residual"),
    ("dt_tol", ["dt-check"], "max_residual"),
])
def test_exit_two_on_a_residual_above_its_tolerance(tmp_path, capsys, key,
                                                    argv, clause):
    # a tolerance below the residual reached fails the run's one clause
    p = tmp_path / "tight.ini"
    p.write_text(f"[tolerances]\n{key} = 1e-20\n")
    out = tmp_path / "o"
    assert main(["--config", str(p), "--out", str(out)] + argv) == 2
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith(f"{argv[0]}: {clause} ")
    assert line.endswith(" (bound 1e-20) -> FAIL")
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is False
    assert [c["name"] for c in rep["clauses"] if not c["ok"]] == [clause]


@pytest.mark.parametrize("command,which", [
    ("observe", 5), ("observe", "1"), ("conjecture", "h6"), ("bogus", None),
    ("delta", 1),
])
def test_run_rejects_an_unknown_checker(tmp_path, command, which):
    # argparse stops a bad --which on the command line; run() is the
    # library entry and must raise ValueError (exit 1), not KeyError
    cfg = load_config(overrides={"out_dir": str(tmp_path / "o")})
    with pytest.raises(ValueError, match="unknown command"):
        cli.run(cfg, command, which=which)
    assert not (tmp_path / "o").exists()


CHECKER_ARGV = [["fixed-point"], ["spectrum"], ["dt-check"],
                ["observe", "--which", "1"], ["observe", "--which", "2"],
                ["observe", "--which", "3"], ["conjecture", "--which", "h3"],
                ["conjecture", "--which", "h4"],
                ["conjecture", "--which", "h5"]]

# the one clause whose default-config margin is below 5%: observation 3's
# direction deviation reaches 0.988 of its bound at eta 1e-3 (measured
# margin 0.0118)
NARROW_CLAUSES = {("observe-3", "direction_bound"): 0.0118}


def test_default_config_clause_margins(tmp_path, capsys):
    # a verdict that passes by a hair shows up here: every clause of the
    # nine subcommands that have clauses keeps |bound - value| / |bound| >= 5% at the default
    # config, apart from the listed exceptions, which must still hold
    margins = {}
    for argv in CHECKER_ARGV:
        out = tmp_path / "-".join(argv)
        assert main(["--out", str(out)] + argv) == 0
        line = capsys.readouterr().out
        rep = json.loads((out / "report.json").read_text())
        assert rep["passed"] is True and line.endswith(" -> PASS\n")
        for c in rep["clauses"]:
            assert c["ok"] is True and f"{c['name']} " in line
            gap = abs(c["bound"] - c["value"])
            margins[rep["command"], c["name"]] = (
                gap / abs(c["bound"]) if c["bound"] else math.inf)
    with capsys.disabled():
        print()
        for (command, name), margin in margins.items():
            print(f"{command:14s} {name:16s} margin {margin:.4f}")
    assert NARROW_CLAUSES.keys() <= margins.keys()
    for key, margin in margins.items():
        if key in NARROW_CLAUSES:
            assert margin > 0.0
        else:
            assert margin >= 0.05, key


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


@pytest.mark.parametrize("argv", [
    ["conjecture", "--which", "h4"],
    ["--nmax", "6", "observe", "--which", "2"],
    ["observe", "--which", "3"],
    ["conjecture", "--which", "h5"]], ids=["h4", "observe-2", "observe-3",
                                          "h5"])
def test_artifacts_do_not_depend_on_the_thread_count(tmp_path, argv):
    import os, subprocess, sys
    # a run's artifacts do not depend on the size of the BLAS thread pool;
    # the children import the package from where this process found it
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    base["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        subprocess.run([sys.executable, "-m", "qprenorm_lab.cli",
                        "--out", str(out)] + argv,
                       env=dict(base, QPRENORM_THREADS=threads),
                       capture_output=True, check=True, timeout=120)
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                     if p.name != "manifest.json"})
    assert len(runs[0]) >= 2
    assert runs[0] == runs[1]
