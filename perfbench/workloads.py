"""Seeded inputs, operations and correctness checks of the four workloads.

An op is a JSON-serialisable dict of inputs. `make_ops` draws them from the
workload seed alone, so the same (workload, seed, count) gives the same list;
`run_op` executes one through the public API of qprenorm_lab, raises
CheckFailed when its outputs fail the workload's check, and returns a digest
of the outputs.

Draws that set an op's cost (forcing size, curve parameter) are stratified
over the op list, so every run sees the same spread of cost and only the
placement inside each stratum moves with the seed.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np

import qprenorm_lab as q
from qprenorm_lab import cli
from qprenorm_lab.curvedyn import TOL_CURVE

WORKLOADS = ("universality", "mixed-quotient", "contraction", "curves")

# Nominal seconds per op at the commit that defined the benchmark, on a
# 2-core Xeon box. A run executes round(seconds / nominal) ops, so the op
# list is fixed by (seed, seconds) and a faster program finishes it sooner.
NOMINAL_OP_S = {"universality": 9.5, "mixed-quotient": 2.8,
                "contraction": 2.0, "curves": 2.9}
MIN_OPS = 3

# Noble rotation numbers: a short prefix of partial quotients in 1..3, then
# ones. Every partial quotient is at most 3, so |q w - p| > 1 / (5 q) for all
# q; the certificate below stays under that bound.
NOBLE_TAIL = 60
DIO_GAMMA = 0.18
DIO_TAU = 1.0
DIO_QMAX = 10000

# Superstable parameters s_n of the logistic map x -> alpha x (1 - x).
LOGISTIC_S = {2: 3.4985616993277016, 3: 3.5546408627688242,
              4: 3.5666673798562795}
CURVE_M = 512
# A curve op solves the period-4 and the period-8 curve of one draw, so the
# ops cost alike and their median is steady. Alpha lies within
# CURVE_ALPHA_FRAC of the gap s_(n+1) - s_n around s_n, and eps is
# log-uniform in a range where the 2^n curve attracts strongly (Lyapunov
# exponent below -0.15); past 3e-4 the period-8 curve weakens and the
# solver's iteration count grows several-fold.
CURVE_PERIODS = (2, 3)
CURVE_ALPHA_FRAC = 0.15
CURVE_EPS = {2: (1e-4, 1e-3), 3: (1e-4, 3e-4)}

UNIVERSALITY_NMAX = 8
MIXED_NMAX = 10
H4_PAIRS = 10
DELTA_ANCHOR = 4.6692016091
DELTA_TOL = 5e-5


class CheckFailed(Exception):
    """An op ran but its outputs failed the workload's correctness check."""


def op_count(workload, seconds):
    return max(MIN_OPS, round(seconds / NOMINAL_OP_S[workload]))


def _noble(rng):
    prefix = [int(c) for c in rng.integers(1, 4, size=int(rng.integers(2, 5)))]
    return {"quotients_prefix": prefix, "tail_ones": NOBLE_TAIL,
            "dio_gamma": DIO_GAMMA, "dio_tau": DIO_TAU, "dio_qmax": DIO_QMAX}


def _omega_spec(op):
    quotients = op["quotients_prefix"] + [1] * op["tail_ones"]
    return "[" + ",".join(str(c) for c in quotients) + "]"


def _rotation(op):
    return cli.parse_omega(_omega_spec(op), dio_gamma=op["dio_gamma"],
                           dio_tau=op["dio_tau"], q_max=op["dio_qmax"])


def _stratified(rng, n):
    """One uniform draw inside each of n equal strata of [0, 1), shuffled."""
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def make_ops(workload, seed, n_ops):
    """The op list of one run; depends only on its arguments."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    if workload == "universality":
        return [dict(_noble(rng), partner=[round(float(c), 4) for c in (
            rng.uniform(0.3, 0.7), rng.uniform(-0.3, 0.3),
            rng.uniform(0.3, 0.7))]) for _ in range(n_ops)]
    if workload == "mixed-quotient":
        return [_noble(rng) for _ in range(n_ops)]
    if workload == "contraction":
        return [{"h4_seed": int(s)}
                for s in rng.integers(0, 2 ** 31, size=n_ops)]
    ops = []
    for ua, ue in zip(_stratified(rng, n_ops), _stratified(rng, n_ops)):
        curves = []
        for n in CURVE_PERIODS:
            gap = LOGISTIC_S[n + 1] - LOGISTIC_S[n]
            lo, hi = CURVE_EPS[n]
            curves.append({"period_log2": n,
                           "alpha": float(LOGISTIC_S[n] + CURVE_ALPHA_FRAC
                                          * (2.0 * ua - 1.0) * gap),
                           "eps": float(lo * (hi / lo) ** ue)})
        ops.append(dict(_noble(rng), curves=curves))
    return ops


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        elif isinstance(p, bytes):
            h.update(p)
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def _finite(values):
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _run_universality(op, ctx):
    forcing = "[{},{},{}]*sin(1w)".format(*op["partner"])
    g, _ = cli.parse_forcing(forcing)
    partner = q.flm_family(g=g, name="partner")
    rep = q.observation1(q.flm_family(), partner, _rotation(op),
                         n_max=UNIVERSALITY_NMAX)
    q1, q2 = rep.seq1.values(), rep.seq2.values()
    if not rep.overlap_ok:
        raise CheckFailed("overlap_not_ok")
    if not (_finite(q1) and _finite(q2)):
        raise CheckFailed("nonfinite_quotient")
    return _digest(q1, q2, sorted(rep.overlap_gaps.items()),
                   rep.fit.rho_hat), 0


def _sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run_mixed_quotient(op, ctx):
    out = os.path.join(ctx["scratch"], f"op{ctx['index']}")
    os.makedirs(out, exist_ok=True)
    cfg_path = os.path.join(out, "run.ini")
    with open(cfg_path, "w") as fh:
        fh.write("[run]\n"
                 f"omega = {_omega_spec(op)}\n"
                 f"nmax = {MIXED_NMAX}\n"
                 "mode = exact-orbit\n"
                 f"dio_gamma = {op['dio_gamma']!r}\n"
                 f"dio_tau = {op['dio_tau']!r}\n"
                 f"dio_qmax = {op['dio_qmax']}\n")
    art = os.path.join(out, "artifacts")
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["--config", cfg_path, "--out", art,
                               "observe", "--which", "2"])
        if status != 0:
            raise CheckFailed(f"exit_code_{status}")
        report_path = os.path.join(art, "report.json")
        manifest_path = os.path.join(art, "manifest.json")
        if not (os.path.isfile(report_path)
                and os.path.isfile(manifest_path)):
            raise CheckFailed("missing_artifact")
        with open(manifest_path) as fh:
            listed = {a["file"]: a["sha256"]
                      for a in json.load(fh)["artifacts"]}
        if listed.get("report.json") != _sha256_file(report_path):
            raise CheckFailed("manifest_sha256_mismatch")
        with open(report_path) as fh:
            gaps = json.load(fh)["identity_gaps"]
        if not gaps or not all(float(g) <= 1e-6 for g in gaps.values()):
            raise CheckFailed("identity_gap")
        # manifest.json carries a timestamp; the other artifacts are
        # deterministic and make up the digest and the byte count
        parts, size = [], 0
        for name in sorted(os.listdir(art)):
            if name == "manifest.json":
                continue
            with open(os.path.join(art, name), "rb") as fh:
                data = fh.read()
            parts += [name, data]
            size += len(data)
        return _digest(*parts), size
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _run_contraction(op, ctx):
    rep = q.check_H4(n_pairs=H4_PAIRS, seed=op["h4_seed"])
    if rep.n_sampled != 2 * H4_PAIRS:
        raise CheckFailed("pairs_not_sampled")
    ratios = [rep.max_ratio_l2, rep.max_ratio_sup,
              *rep.per_omega_max.values()]
    if not _finite(ratios):
        raise CheckFailed("nonfinite_ratio")
    return _digest(ratios, rep.n_skipped, rep.v_violations), 0


def _run_curves(op, ctx):
    omega = _rotation(op)
    parts = []
    for c in op["curves"]:
        f = q.flm_family().evaluator(c["alpha"], c["eps"])
        curve = q.solve_invariant_curve(f, omega, c["period_log2"], M=CURVE_M)
        prod = q.fiber_product(f, omega, curve)
        ext = q.extremum_m(prod)
        if not curve.residual <= TOL_CURVE:
            raise CheckFailed("curve_residual")
        if not curve.lyapunov < 0.0:
            raise CheckFailed("lyapunov_not_negative")
        if not (_finite(prod) and math.isfinite(ext.value)):
            raise CheckFailed("nonfinite_product")
        parts += [curve.samples, prod, curve.lyapunov, ext.value]
    return _digest(*parts), 0


_RUNNERS = {"universality": _run_universality,
            "mixed-quotient": _run_mixed_quotient,
            "contraction": _run_contraction,
            "curves": _run_curves}


def run_op(workload, op, ctx):
    """Execute and check one op; returns (output digest, artifact bytes).

    Raises CheckFailed when the outputs fail the check, and lets the
    library's own errors through for the caller to count.
    """
    return _RUNNERS[workload](op, ctx)


def check_fixed_point():
    """Warm the fixed-point cache and check the golden-mean delta anchor."""
    fp = q.feigenbaum_fixed_point(q.DomainConfig())
    if not abs(fp.delta_feig - DELTA_ANCHOR) <= DELTA_TOL:
        raise CheckFailed(f"delta {fp.delta_feig!r} off the anchor")
    return fp.delta_feig
