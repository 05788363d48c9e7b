"""Command-line front end for reproducible renormalization experiments.

Every run is driven by a RunConfig: a flat INI file plus a handful of
command-line overrides. The resolved configuration is hashed (sha256 over
canonical key=value lines, immune to file formatting), the hash is
embedded in every JSON report, and a manifest listing each artifact with
its checksum is written last. Re-running an identical configuration reproduces
the CSV and JSON artifacts bit for bit; the manifest is the one file that
carries wall-clock timestamps and is therefore allowed to differ.

Artifacts are plain text: CSV with a header row naming columns and units,
LF line endings, '.' decimal separator, floats at 17 significant digits;
JSON reports with sorted keys. With --plot-data the drivers additionally
emit two-column whitespace-separated .dat files for plotting tools.

Exit codes: 0 success, 1 errors (bad config, parse failures, numerical
breakdown), 2 for runs that complete but report an invariant violation
(a FAIL verdict from a checker or an out-of-tolerance residual).
"""

import argparse
import configparser
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields as dataclass_fields

import re

import numpy as np

from .errors import QPRenormError, ForcingParseError
from .funcspace import DomainConfig, PairFn, project_pik, sup_norm
from .renorm1d import (feigenbaum_fixed_point, renormalize_1d, check_H0,
                       superstable_params, stable_manifold_param)
from .qprenorm import (RotationNumber, SectionConfig, apply_DT, build_L_omega,
                       spectrum_L_omega)
from .curvedyn import solve_invariant_curve, direct_slope, flm_family
from .asymptotics import (slope_table, observation1, observation2,
                          observation3, check_H3, check_H4, check_H5)
from . import __version__


# --------------------------------------------------------------- forcing DSL

_TERM_RE = re.compile(r"\s*\[([^\]]*)\]\s*\*\s*(cos|sin)"
                      r"\(\s*(\d+)\s*w\s*\)\s*")


def parse_forcing(expr, k_max=16):
    """Forcing grammar: sums of '[c0,c1,...]*cos(kw)' or '...*sin(kw)'.

    The bracketed list is a polynomial in x (ascending coefficients) and
    'kw' means the angle 2 pi k theta. Returns (g, modes) with g(theta, x)
    vectorized, suitable for the family constructors.
    """
    terms = []
    pos = 0
    while pos < len(expr):
        if terms:
            if expr[pos] != "+":
                raise ForcingParseError(
                    f"expected '+' between terms at position {pos}", pos=pos)
            pos += 1
        m = _TERM_RE.match(expr, pos)
        if not m:
            raise ForcingParseError(
                f"expected '[c0,c1,...]*cos(kw)' at position {pos}", pos=pos)
        try:
            coeffs = [float(t) for t in m.group(1).split(",")]
        except ValueError:
            raise ForcingParseError(
                f"bad coefficient list at position {m.start(1)}",
                pos=m.start(1))
        if not all(np.isfinite(coeffs)):
            raise ForcingParseError(
                f"non-finite coefficient at position {m.start(1)}",
                pos=m.start(1))
        try:
            k = int(m.group(3))
        except ValueError:      # more digits than int() converts
            k = 0
        if not 1 <= k <= k_max:
            raise ForcingParseError(
                f"mode {m.group(3):.20} outside 1..{k_max} at position "
                f"{m.start(3)}", pos=m.start(3))
        terms.append((np.array(coeffs), m.group(2), k))
        pos = m.end()
    if not terms:
        raise ForcingParseError("empty forcing expression", pos=0)

    def g(theta, x):
        th = 2.0 * np.pi * np.asarray(theta, dtype=float)
        xv = np.asarray(x, dtype=float)
        th, xv = np.broadcast_arrays(th, xv)
        out = np.zeros_like(xv)
        for c, trig, k in terms:
            poly = np.polynomial.polynomial.polyval(xv, c)
            ang = np.cos(k * th) if trig == "cos" else np.sin(k * th)
            out = out + poly * ang
        return out

    return g, [k for _, _, k in terms]


def parse_omega(spec, dio_gamma=0.0, dio_tau=1.0, q_max=0):
    """Rotation-number spec: 'golden', 'p/q', a float, or a CF list [a1,...].

    Every spec takes the certificate (dio_gamma, dio_tau, q_max); at
    dio_gamma = 0, 'golden' keeps its own (gamma 0.38, tau 1, q_max 10^4).
    """
    s = spec.strip()
    if s.lower() == "golden":
        if dio_gamma > 0:
            return RotationNumber(RotationNumber.golden(q_max=0).num,
                                  dio_gamma, dio_tau, q_max)
        return RotationNumber.golden()
    if s.startswith("["):
        if not s.endswith("]"):
            raise ValueError(f"unterminated continued-fraction list: {spec!r}")
        quotients = [int(t) for t in s[1:-1].split(",") if t.strip()]
        return RotationNumber.from_continued_fraction(
            quotients, dio_gamma=dio_gamma, dio_tau=dio_tau, q_max=q_max)
    if "/" in s:
        p_str, q_str = s.split("/", 1)
        return RotationNumber.from_fraction(
            int(p_str), int(q_str), dio_gamma=dio_gamma, dio_tau=dio_tau,
            q_max=q_max)
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"rotation number {spec!r} is not finite")
    return RotationNumber.from_float(
        x, dio_gamma=dio_gamma, dio_tau=dio_tau, q_max=q_max)


# ------------------------------------------------------------- configuration

def _ini(default, section, key):
    """A RunConfig field read from `key` in the INI section [section]."""
    return field(default=default, metadata={"ini": (section, key)})


@dataclass
class RunConfig:
    """Resolved experiment configuration (file defaults + CLI overrides).

    Each field read from the INI file names its (section, key) once, in its
    metadata; the parser converts the raw string with the field's type.
    """

    omega: str = _ini("golden", "run", "omega")
    n_max: int = _ini(6, "run", "nmax")
    mode: str = _ini("exact-orbit", "run", "mode")
    mode_k: int = _ini(1, "run", "mode_k")
    seed: int = _ini(7, "run", "seed")
    eps: float = _ini(1e-6, "run", "eps")
    alpha: float = _ini(None, "run", "alpha")
    etas: tuple = _ini((1e-3, 1e-2), "run", "etas")
    dio_gamma: float = _ini(0.0, "run", "dio_gamma")
    dio_tau: float = _ini(1.0, "run", "dio_tau")
    dio_qmax: int = _ini(0, "run", "dio_qmax")
    direct_nmax: int = _ini(0, "run", "direct_nmax")
    family: str = _ini("flm", "family", "name")
    forcing: str = _ini("[1]*cos(1w)", "family", "forcing")
    family2: str = _ini("flm2", "family2", "name")
    forcing2: str = _ini("[0.5,0,0.5]*sin(1w)", "family2", "forcing")
    n_cheb: int = _ini(40, "domain", "n_cheb")
    n_fourier: int = _ini(16, "domain", "n_fourier")
    delta_dom: float = _ini(0.1, "domain", "delta_dom")
    theta0: float = _ini(0.0, "section", "theta0")
    x0: float = _ini(0.0, "section", "x0")
    fp_tol: float = _ini(1e-10, "tolerances", "fp_tol")
    dt_tol: float = _ini(1e-10, "tolerances", "dt_tol")
    # output plumbing (not part of the config hash)
    out_dir: str = _ini("qprenorm-out", "run", "out")
    plot_data: bool = False

    _UNHASHED = ("out_dir", "plot_data")

    def hash_lines(self):
        lines = []
        for f in dataclass_fields(self):
            if f.name.startswith("_") or f.name in self._UNHASHED:
                continue
            v = getattr(self, f.name)
            if isinstance(v, float):
                v = repr(v)
            elif isinstance(v, tuple):
                v = ",".join(repr(float(e)) for e in v)
            lines.append(f"{f.name}={v}")
        return sorted(lines)

    def sha256(self):
        return hashlib.sha256("\n".join(self.hash_lines()).encode()).hexdigest()

    def domain_config(self):
        return DomainConfig(n_cheb=self.n_cheb, n_fourier=self.n_fourier,
                            delta_dom=self.delta_dom)

    def section_config(self):
        return SectionConfig(theta0=self.theta0, x0=self.x0)

    def rotation(self):
        return parse_omega(self.omega, dio_gamma=self.dio_gamma,
                           dio_tau=self.dio_tau, q_max=self.dio_qmax)

    def build_family(self, which=1):
        name = self.family if which == 1 else self.family2
        expr = self.forcing if which == 1 else self.forcing2
        g, _ = parse_forcing(expr, k_max=self.n_fourier)
        return flm_family(g=g, domain=self.domain_config(), name=name)


_INI_FIELDS = {f.metadata["ini"]: f for f in dataclass_fields(RunConfig)
               if "ini" in f.metadata}


def load_config(path=None, overrides=None):
    """RunConfig from an INI file plus override pairs; strict key checking."""
    cfg = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ValueError(f"config file not found: {path}")
        sections = {sec for sec, _ in _INI_FIELDS}
        for sec in parser.sections():
            if sec not in sections:
                raise ValueError(f"unknown config section [{sec}]")
            for key, raw in parser.items(sec):
                f = _INI_FIELDS.get((sec, key))
                if f is None:
                    raise ValueError(
                        f"unknown key '{key}' in section [{sec}]")
                try:
                    if f.type is tuple:     # etas: comma-separated floats
                        val = tuple(float(t) for t in raw.split(",")
                                    if t.strip())
                    else:
                        val = f.type(raw)
                except ValueError:
                    raise ValueError(
                        f"bad value for [{sec}] {key}: {raw!r}")
                if f.type in (float, tuple) and not np.all(np.isfinite(val)):
                    raise ValueError(
                        f"non-finite value for [{sec}] {key}: {raw!r}")
                setattr(cfg, f.name, val)
    for name, val in (overrides or {}).items():
        if val is not None:
            setattr(cfg, name, val)
    if cfg.mode not in ("exact-orbit", "fixed-point"):
        raise ValueError(f"mode must be exact-orbit or fixed-point, "
                         f"got {cfg.mode!r}")
    # config invariant: both forcing expressions parse and stay below the
    # mode cutoff, regardless of which subcommand will run
    parse_forcing(cfg.forcing, k_max=cfg.n_fourier)
    parse_forcing(cfg.forcing2, k_max=cfg.n_fourier)
    return cfg


# ---------------------------------------------------------- artifact writers

def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


class ArtifactStore:
    """Single writer for all run outputs; collects the manifest rows."""

    def __init__(self, out_dir, cfg_hash, plot_data=False):
        self.out_dir = out_dir
        self.cfg_hash = cfg_hash
        self.plot_data = plot_data
        self.files = []
        os.makedirs(out_dir, exist_ok=True)

    def _register(self, path):
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        self.files.append({"file": os.path.basename(path),
                           "sha256": digest})

    def write_csv(self, name, header, rows):
        path = os.path.join(self.out_dir, name)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            for row in rows:
                w.writerow([_fmt(c) for c in row])
        self._register(path)

    def write_json(self, name, payload):
        path = os.path.join(self.out_dir, name)
        body = {"config_sha256": self.cfg_hash, "version": __version__}
        body.update(payload)
        with open(path, "w") as fh:
            json.dump(_jsonable(body), fh, indent=2, sort_keys=True)
            fh.write("\n")
        self._register(path)

    def write_plot(self, name, xs, ys):
        if not self.plot_data:
            return
        path = os.path.join(self.out_dir, name)
        with open(path, "w") as fh:
            for x, y in zip(xs, ys):
                fh.write(f"{_fmt(float(x))} {_fmt(float(y))}\n")
        self._register(path)

    def write_manifest(self, command):
        import datetime
        manifest = {
            "command": command,
            "config_sha256": self.cfg_hash,
            "version": __version__,
            "written_utc": datetime.datetime.now(
                datetime.timezone.utc).isoformat(),
            "artifacts": self.files,
        }
        path = os.path.join(self.out_dir, "manifest.json")
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _jsonable(obj):
    """Recursively coerce numpy scalars and kill non-finite floats."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if np.isfinite(x) else None
    return obj


def _fit_payload(fit):
    return {"rho_hat": fit.rho_hat, "rho_hat_hi": fit.rho_hat_hi,
            "k0_hat": fit.k0_hat, "spread_decades": fit.spread_decades,
            "n_dropped": fit.n_dropped, "trivial": fit.trivial,
            "ns": list(fit.ns)}


# ------------------------------------------------------------------ commands

def cmd_fixed_point(cfg, store):
    fp = feigenbaum_fixed_point(cfg.domain_config())
    diff = renormalize_1d(fp.phi, check_domain=False).psi - fp.phi.psi
    residual = float(np.max(np.abs(diff.coeffs)))
    h0 = check_H0(fp)
    print(f"a_star        = {fp.a_star:.12f}")
    print(f"delta_feig    = {fp.delta_feig:.12f}")
    print(f"||R(phi)-phi|| = {residual:.3e}")
    print(f"H0 margins: a-disc {h0.margin_a_disc:.4f}, "
          f"image-disc {h0.margin_image_disc:.4f}, "
          f"contained={h0.contained}")
    store.write_csv("phi_coefficients.csv",
                    ["j [index]", "c_j [1]"],
                    list(enumerate(fp.phi.psi.coeffs)))
    store.write_json("report.json", {
        "command": "fixed-point", "a_star": fp.a_star,
        "delta_feig": fp.delta_feig, "renorm_residual": residual,
        "newton_residual": fp.newton_residual,
        "h0": {"margin_a_disc": h0.margin_a_disc,
               "margin_image_disc": h0.margin_image_disc,
               "contained": h0.contained,
               "n_boundary": h0.n_boundary},
    })
    ok = residual <= cfg.fp_tol and h0.contained
    return 0 if ok else 2


def cmd_delta(cfg, store):
    fp = feigenbaum_fixed_point(cfg.domain_config())
    print(f"delta_feig = {fp.delta_feig:.10f}")
    store.write_json("report.json", {
        "command": "delta", "delta_feig": fp.delta_feig,
        "n_cheb": cfg.n_cheb,
    })
    return 0


def cmd_superstable(cfg, store):
    fam = cfg.build_family()
    s = superstable_params(fam, cfg.n_max)
    rows = []
    for n in range(len(s)):
        ratio = ""
        if 1 <= n <= len(s) - 2:
            ratio = (s[n] - s[n - 1]) / (s[n + 1] - s[n])
        rows.append([n, float(s[n]), ratio])
        print(f"n={n:2d}  s_n={s[n]:.12f}" +
              (f"  ratio={ratio:.6f}" if ratio != "" else ""))
    store.write_csv("superstable.csv",
                    ["n [level]", "s_n [parameter]",
                     "ratio (s_n-s_(n-1))/(s_(n+1)-s_n) [1]"], rows)
    store.write_json("report.json", {
        "command": "superstable", "family": fam.name, "n_max": cfg.n_max,
        "s": [float(v) for v in s],
    })
    store.write_plot("superstable.dat", range(len(s)), [float(v) for v in s])
    return 0


def cmd_spectrum(cfg, store):
    fp = feigenbaum_fixed_point(cfg.domain_config())
    omega = cfg.rotation()
    op = build_L_omega(fp.phi, omega, k=cfg.mode_k)
    rep = spectrum_L_omega(op)
    lam = rep.eigenvalues
    print(f"mode k={cfg.mode_k}, omega={float(omega):.12f}")
    print(f"spectral radius = {rep.spectral_radius:.10f}, "
          f"pairing_ok={rep.pairing_ok}")
    for v in lam[:6]:
        print(f"  {v.real:+.10f} {v.imag:+.10f}i  |.|={abs(v):.10f}")
    store.write_csv("spectrum.csv",
                    ["re [1]", "im [1]", "modulus [1]"],
                    [[v.real, v.imag, abs(v)] for v in lam])
    store.write_json("report.json", {
        "command": "spectrum", "mode_k": cfg.mode_k,
        "omega": float(omega), "spectral_radius": rep.spectral_radius,
        "pairing_ok": rep.pairing_ok,
        "n_violations": len(rep.violations),
    })
    store.write_plot("spectrum.dat", [v.real for v in lam],
                     [v.imag for v in lam])
    return 0 if rep.pairing_ok else 2


def cmd_dt_check(cfg, store):
    """Diagonalization identity: DT on mode k equals the assembled block."""
    fp = feigenbaum_fixed_point(cfg.domain_config())
    omega = cfg.rotation()
    rng = np.random.default_rng(cfg.seed)
    n_dir = 20
    worst = 0.0
    per_k = {}
    for k in range(1, 9):
        op = build_L_omega(fp.phi, omega, k=k)
        wk = 0.0
        for _ in range(n_dir):
            vec = rng.standard_normal(2 * cfg.n_cheb)
            pair = PairFn.from_coeff_vector(fp.phi.psi.domain, vec)
            lhs = apply_DT(fp.phi, omega, pair.embed(k))
            rhs = op.apply(pair).embed(k)
            wk = max(wk, sup_norm(lhs - rhs))
        per_k[k] = wk
        worst = max(worst, wk)
    print(f"max residual over k<=8, {n_dir} directions: {worst:.3e} "
          f"(tol {cfg.dt_tol:g})")
    store.write_csv("dt_residuals.csv",
                    ["k [mode]", "max_residual [sup norm]"],
                    sorted(per_k.items()))
    store.write_json("report.json", {
        "command": "dt-check", "max_residual": worst,
        "tolerance": cfg.dt_tol, "per_mode": per_k,
        "n_directions": n_dir, "seed": cfg.seed,
    })
    return 0 if worst <= cfg.dt_tol else 2


def cmd_curve(cfg, store):
    fam = cfg.build_family()
    omega = cfg.rotation()
    n = cfg.n_max
    alpha = cfg.alpha
    if alpha is None:
        alpha = float(superstable_params(fam, n)[n])
    f = fam.evaluator(alpha, cfg.eps)
    curve = solve_invariant_curve(f, omega, n)
    print(f"period 2^{n} curve at alpha={alpha:.12f}, eps={cfg.eps:g}: "
          f"residual {curve.residual:.3e}, lyapunov {curve.lyapunov:+.6f}")
    rows = list(zip(curve.thetas, curve.samples, curve.product))
    store.write_csv("curve.csv",
                    ["theta [revolutions]", "x [normalized]",
                     "fiber_derivative_product [1]"], rows)
    store.write_json("report.json", {
        "command": "curve", "alpha": alpha, "eps": cfg.eps,
        "omega": float(omega), "period_log2": n,
        "residual": curve.residual, "lyapunov": curve.lyapunov,
        "grid": int(curve.M),
    })
    store.write_plot("curve.dat", curve.thetas, curve.samples)
    return 0


def cmd_slopes(cfg, store):
    fam = cfg.build_family()
    omega = cfg.rotation()
    table = slope_table(fam, omega, cfg.n_max, mode=cfg.mode)
    s = superstable_params(fam, cfg.n_max)
    rows = []
    for n in range(1, cfg.n_max + 1):
        ap, bp = table[n]
        ds, gap = "", ""
        if n <= cfg.direct_nmax:
            ds = direct_slope(fam, omega, n, eps=cfg.eps)
            gap = abs(ap - ds) / abs(ds)
        rows.append([n, float(s[n]), ap, bp, ds, gap])
        line = f"n={n:2d}  s_n={s[n]:.10f}  alpha'={ap:+.8f}  beta'={bp:+.8f}"
        if ds != "":
            line += f"  direct={ds:+.8f}  relgap={gap:.3e}"
        print(line)
    store.write_csv("slopes.csv",
                    ["n [level]", "s_n [parameter]",
                     "alpha_prime [parameter/forcing]",
                     "beta_prime [parameter/forcing]",
                     "direct_slope [parameter/forcing]",
                     "rel_gap [1]"], rows)
    store.write_json("report.json", {
        "command": "slopes", "family": fam.name, "mode": cfg.mode,
        "omega": float(omega), "n_max": cfg.n_max,
        "alpha_prime": {n: table[n][0] for n in table},
        "beta_prime": {n: table[n][1] for n in table},
    })
    store.write_plot("slopes.dat", list(table),
                     [abs(table[n][0]) for n in table])
    return 0


def cmd_observe(cfg, store, which):
    omega = cfg.rotation()
    if which == 1:
        c1 = cfg.build_family(1)
        c2 = cfg.build_family(2)
        rep = observation1(c1, c2, omega, n_max=cfg.n_max)
        q1 = dict(rep.seq1.entries)
        q2 = dict(rep.seq2.entries)
        rows = [[n, q1[n], q2[n], abs(q1[n] - q2[n])] for n in sorted(q1)]
        store.write_csv("quotients.csv",
                        ["n [level]", "q_n_family1 [1]", "q_n_family2 [1]",
                         "abs_diff [1]"], rows)
        store.write_json("report.json", {
            "command": "observe-1", "passed": rep.passed,
            "fit": _fit_payload(rep.fit),
            "overlap_gaps": rep.overlap_gaps,
            "overlap_ok": rep.overlap_ok,
            "families": [c1.name, c2.name],
        })
        store.write_plot("quotient_diffs.dat", [r[0] for r in rows],
                         [r[3] for r in rows])
        print(f"observation 1: rho_hat={rep.fit.rho_hat:.4f} "
              f"(upper {rep.fit.rho_hat_hi:.4f}), "
              f"overlap_ok={rep.overlap_ok} -> "
              f"{'PASS' if rep.passed else 'FAIL'}")
        return 0 if rep.passed else 2
    if which == 2:
        c = cfg.build_family()
        rep = observation2(c, omega, n_max=cfg.n_max, mode=cfg.mode)
        r = dict(rep.seq.entries)
        rows = [[n, r[n], rep.cauchy_diffs.get(n, "")] for n in sorted(r)]
        store.write_csv("quotients.csv",
                        ["n [level]", "r_n [1]",
                         "abs_cauchy_diff [1]"], rows)
        store.write_json("report.json", {
            "command": "observe-2", "passed": rep.passed,
            "limit_estimate": rep.limit_estimate,
            "limit_prev": rep.limit_prev,
            "limit_stable_3digits": rep.limit_stable_3digits,
            "cauchy_decreasing": rep.cauchy_decreasing,
            "bounded_ratio": [rep.bounded_ratio_min, rep.bounded_ratio_max],
            "h5_band": list(rep.h5_band),
            "identity_gaps": rep.identity_gaps,
        })
        store.write_plot("quotients.dat", [r_[0] for r_ in rows],
                         [r_[1] for r_ in rows])
        print(f"observation 2: limit={rep.limit_estimate:.6f} "
              f"cauchy_decreasing={rep.cauchy_decreasing} -> "
              f"{'PASS' if rep.passed else 'FAIL'}")
        return 0 if rep.passed else 2
    if which == 3:
        rep = observation3(omega, etas=cfg.etas, n_max=cfg.n_max,
                           section=cfg.section_config(),
                           domain=cfg.domain_config())
        ns = sorted(next(iter(rep.deviations.values())))
        header = (["n [level]"] +
                  [f"abs_dev_eta_{e:g} [1]" for e in rep.etas])
        rows = [[n] + [rep.deviations[e][n] for e in rep.etas] for n in ns]
        store.write_csv("deviations.csv", header, rows)
        store.write_json("report.json", {
            "command": "observe-3", "passed": rep.passed,
            "etas": list(rep.etas),
            "sup_deviations": rep.sup_deviations,
            "scale_factor": rep.scale_factor, "scale_ok": rep.scale_ok,
            "bound_C": rep.bound_C, "bound_ok": rep.bound_ok,
            "bound_margins": {str(k): list(v)
                              for k, v in rep.bound_margins.items()},
            "nonequivalent": rep.nonequiv,
            "nonequiv_fit": _fit_payload(rep.nonequiv_fit),
        })
        e_big = max(rep.etas)
        store.write_plot("deviations.dat", ns,
                         [rep.deviations[e_big][n] for n in ns])
        print(f"observation 3: scale={rep.scale_factor:.3f} "
              f"bound_ok={rep.bound_ok} nonequiv={rep.nonequiv} -> "
              f"{'PASS' if rep.passed else 'FAIL'}")
        return 0 if rep.passed else 2
    raise ValueError(f"--which must be 1, 2, or 3, got {which}")


def cmd_conjecture(cfg, store, which):
    omega = cfg.rotation()
    if which == "h3":
        c = cfg.build_family()
        rep = check_H3(c, omega, n_max=cfg.n_max,
                       section=cfg.section_config())
        store.write_csv("direction_gaps.csv",
                        ["n [level]", "gap [sup norm]"],
                        sorted(rep.direction_gaps.items()))
        store.write_json("report.json", {
            "command": "conjecture-h3", "passed": rep.passed,
            "fit": _fit_payload(rep.fit),
            "c_floor": rep.c_floor, "c0_floor": rep.c0_floor,
            "direction_gaps": rep.direction_gaps,
        })
        print(f"H3: rho_hat={rep.fit.rho_hat:.4f} c_floor={rep.c_floor:.4g} "
              f"c0_floor={rep.c0_floor:.4g} -> "
              f"{'PASS' if rep.passed else 'FAIL'}")
        return 0 if rep.passed else 2
    if which == "h4":
        rep = check_H4(psi=feigenbaum_fixed_point(cfg.domain_config()).phi,
                       n_pairs=100, seed=cfg.seed,
                       section=cfg.section_config())
        store.write_csv("contraction.csv",
                        ["omega [revolutions]", "max_ratio_l2 [1]"],
                        sorted((float(k), v)
                               for k, v in rep.per_omega_max.items()))
        store.write_json("report.json", {
            "command": "conjecture-h4", "passed": rep.passed,
            "max_ratio_l2": rep.max_ratio_l2,
            "max_ratio_sup": rep.max_ratio_sup,
            "n_sampled": rep.n_sampled, "n_skipped": rep.n_skipped,
            "v_violations": rep.v_violations,
            "multi_step_fit": (_fit_payload(rep.multi_step_fit)
                               if rep.multi_step_fit is not None else None),
        })
        tail = (f", multi-step rho={rep.multi_step_fit.rho_hat:.4f}"
                if rep.multi_step_fit is not None else "")
        print(f"H4: one-step max {rep.max_ratio_l2:.4f} (l2) "
              f"{rep.max_ratio_sup:.4f} (sup){tail} -> "
              f"{'PASS' if rep.passed else 'FAIL'}")
        return 0 if rep.passed else 2
    if which == "h5":
        c = cfg.build_family()
        p0 = project_pik(c.dv_deps(stable_manifold_param(c)), 1)
        rep = check_H5(omega, p0, p0, n_max=min(cfg.n_max, 12))
        store.write_csv("ratio_band.csv",
                        ["n [level]", "normalized_ratio [1]"],
                        list(enumerate(rep.ratios)))
        store.write_json("report.json", {
            "command": "conjecture-h5", "passed": rep.passed,
            "c1": rep.c1, "c2": rep.c2, "ratios": rep.ratios,
        })
        print(f"H5: band [{rep.c1:.4f}, {rep.c2:.4f}] -> "
              f"{'PASS' if rep.passed else 'FAIL'}")
        return 0 if rep.passed else 2
    raise ValueError(f"--which must be h3, h4, or h5, got {which!r}")


# ---------------------------------------------------------------- entry point

def run(cfg, command, which=None):
    """Dispatch one subcommand; returns the process exit status."""
    store = ArtifactStore(cfg.out_dir, cfg.sha256(),
                          plot_data=cfg.plot_data)
    handlers = {
        "fixed-point": lambda: cmd_fixed_point(cfg, store),
        "delta": lambda: cmd_delta(cfg, store),
        "superstable": lambda: cmd_superstable(cfg, store),
        "spectrum": lambda: cmd_spectrum(cfg, store),
        "dt-check": lambda: cmd_dt_check(cfg, store),
        "curve": lambda: cmd_curve(cfg, store),
        "slopes": lambda: cmd_slopes(cfg, store),
        "observe": lambda: cmd_observe(cfg, store, which),
        "conjecture": lambda: cmd_conjecture(cfg, store, which),
    }
    if command not in handlers:
        raise ValueError(f"unknown command {command!r}")
    status = handlers[command]()
    store.write_manifest(command)
    return status


def _build_parser():
    p = argparse.ArgumentParser(
        prog="qprenorm-lab",
        description="Quasi-periodic doubling renormalization laboratory.")
    p.add_argument("--config", metavar="PATH",
                   help="INI config file (flat key=value sections)")
    p.add_argument("--out", metavar="DIR",
                   help="artifact directory (default qprenorm-out)")
    p.add_argument("--omega", metavar="SPEC",
                   help="rotation number: golden, p/q, float, or [a1,a2,...]")
    p.add_argument("--nmax", type=int, metavar="N",
                   help="depth of the run (levels, period log2, ...)")
    p.add_argument("--seed", type=int, metavar="S",
                   help="seed for all random sampling")
    p.add_argument("--plot-data", action="store_true",
                   help="also emit two-column .dat files")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("fixed-point", "delta", "superstable", "spectrum",
                 "dt-check", "curve", "slopes"):
        sub.add_parser(name)
    ob = sub.add_parser("observe")
    ob.add_argument("--which", type=int, required=True, choices=(1, 2, 3))
    cj = sub.add_parser("conjecture")
    cj.add_argument("--which", required=True, choices=("h3", "h4", "h5"))
    return p


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; 2 is reserved for invariant
        # violations here, so fold usage problems into the error code
        return 0 if e.code == 0 else 1
    try:
        cfg = load_config(args.config, overrides={
            "omega": args.omega,
            "n_max": args.nmax,
            "seed": args.seed,
            "out_dir": args.out,
            "plot_data": args.plot_data or None,
        })
        which = getattr(args, "which", None)
        return run(cfg, args.command, which=which)
    except (QPRenormError, ValueError, OSError,
            configparser.Error) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
