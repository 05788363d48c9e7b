"""Acceptance gate: the eleven primary criteria at their stated tolerances.

Each test prints exactly one PASS/FAIL line with the measured numbers so a
plain `pytest -v -s tests/test_acceptance.py` doubles as the sign-off
report. Stated runtime budgets are asserted where the criterion gives one.
"""

import dataclasses
import time

import numpy as np

from qprenorm_lab import (
    DG1,
    G1,
    PairFn,
    QPFn,
    RotationNumber,
    UnimodalMap,
    apply_DT,
    apply_L_prime,
    build_L_omega,
    check_H0,
    check_H3,
    check_H4,
    check_H5,
    direct_slope,
    flm_family,
    functional_K,
    observation1,
    observation2,
    observation3,
    project_pik,
    renormalize_1d,
    rotation_matrix,
    shift_tgamma,
    slope_formula,
    solve_fixed_point,
    solve_invariant_curve,
    spectrum_L_omega,
    stable_manifold_param,
    sup_norm,
    superstable_params,
)
from qprenorm_lab.cli import parse_forcing
from qprenorm_lab.errors import DiophantineError

TWO_PI = 2.0 * np.pi
DELTA = 4.6692016091


def _report(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{verdict}] {detail}")


def test_criterion_01_feigenbaum_constant(domain):
    t0 = time.monotonic()
    initial = UnimodalMap.from_callable(
        domain, lambda x: 1.0 - 1.4 * x ** 2)
    fp = solve_fixed_point(initial)
    dt = time.monotonic() - t0
    ok = abs(fp.delta_feig - DELTA) <= 5e-5 and dt < 10.0
    _report(1, ok, f"delta={fp.delta_feig:.10f} "
                   f"(|gap|={abs(fp.delta_feig - DELTA):.2e}, {dt:.1f}s)")
    assert ok


def test_criterion_02_cascade_ratio():
    t0 = time.monotonic()
    # a replace copy keeps a private record: no cached cascade values
    fam = dataclasses.replace(flm_family())
    s = superstable_params(fam, 9)
    dt = time.monotonic() - t0
    ratio6 = (s[6] - s[5]) / (s[7] - s[6])
    ok = abs(ratio6 - DELTA) <= 1e-2 and dt < 30.0
    _report(2, ok, f"ratio(6)={ratio6:.6f} "
                   f"(|gap|={abs(ratio6 - DELTA):.2e}, {dt:.1f}s)")
    assert ok


def test_criterion_03_fixed_point_quality(fp):
    xs = np.linspace(-1.1, 1.1, 241)
    rphi = renormalize_1d(fp.phi)
    resid = float(np.max(np.abs(np.real(rphi.psi(xs))
                                - np.real(fp.phi.psi(xs)))))
    h0 = check_H0(fp)
    ok = resid <= 1e-10 and h0.margin_a_disc > 0.0 \
        and h0.margin_image_disc > 0.0
    _report(3, ok, f"||R(phi)-phi||={resid:.2e}, margins "
                   f"{h0.margin_a_disc:.4f}/{h0.margin_image_disc:.4f}")
    assert ok


def test_criterion_04_diagonalization_identity(fp, domain, golden):
    rng = np.random.default_rng(0)
    worst = 0.0
    for k in range(1, 9):
        op = build_L_omega(fp.phi, golden, k)
        for _ in range(20):
            pair = PairFn.from_coeff_vector(
                domain, rng.standard_normal(2 * domain.n_cheb))
            gap = sup_norm(apply_DT(fp.phi, golden, pair.embed(k))
                           + op.apply(pair).embed(k) * -1.0)
            worst = max(worst, gap)
    ok = worst <= 1e-10
    _report(4, ok, f"max residual over k<=8 x 20 dirs = {worst:.2e}")
    assert ok


def test_criterion_05_equivariance_suite(fp, domain, golden, stars):
    rng = np.random.default_rng(1)
    n = domain.n_cheb

    def rand_v():
        c = rng.standard_normal(5) * 0.5
        return QPFn.from_callable(
            domain,
            lambda th, x: (c[0] * x ** 2 + c[1] * np.cos(TWO_PI * th)
                           + c[2] * x * np.sin(TWO_PI * th)
                           + c[3] * np.cos(2 * TWO_PI * th) + c[4] * x))

    norm_gap = 0.0
    equiv_gap = 0.0
    for _ in range(5):
        v = rand_v()
        gamma = float(rng.uniform(0.0, 1.0))
        shifted = shift_tgamma(v, gamma)
        norm_gap = max(norm_gap,
                       abs(shifted.coeff_norm() - v.coeff_norm()))
        a = shift_tgamma(apply_DT(fp.phi, golden, v), gamma)
        b = apply_DT(fp.phi, golden, shifted)
        equiv_gap = max(equiv_gap, sup_norm(a + b * -1.0))

    vk = QPFn.from_callable(
        domain, lambda th, x: (0.4 + 0.2 * x) * np.cos(TWO_PI * th))
    extremum_gap = max(
        abs(functional_K(golden, stars[0], shift_tgamma(vk, g))
            - functional_K(golden, stars[0], vk))
        for g in rng.uniform(0.0, 1.0, size=5))

    M = build_L_omega(fp.phi, golden, 1).matrix
    commute_gap = max(
        float(np.max(np.abs(M @ rotation_matrix(n, float(g))
                            - rotation_matrix(n, float(g)) @ M)))
        for g in rng.uniform(0.0, 1.0, size=5))

    pairing = all(
        spectrum_L_omega(build_L_omega(
            fp.phi, RotationNumber.from_fraction(i, 64), 1)).pairing_ok
        for i in range(64))

    ok = (norm_gap <= 1e-10 and equiv_gap <= 1e-10
          and extremum_gap <= 1e-10 and commute_gap <= 1e-12 and pairing)
    _report(5, ok, f"norm {norm_gap:.1e}, equivariance {equiv_gap:.1e}, "
                   f"extremum {extremum_gap:.1e}, commutation "
                   f"{commute_gap:.1e}, pairing@64 {pairing}")
    assert ok


def test_criterion_06_slope_cross_validation(flm, golden):
    t0 = time.monotonic()
    rels = {}
    mirror = {}
    for n in (1, 2):
        a_slope, b_slope = slope_formula(flm, golden, n,
                                         mode="exact-orbit")
        direct = direct_slope(flm, golden, n, branch="min")
        rels[n] = abs(a_slope - direct) / abs(direct)
        mirror[n] = abs(b_slope + a_slope) / abs(a_slope)
    dt = time.monotonic() - t0
    ok = all(r <= 0.02 for r in rels.values()) \
        and all(m <= 0.02 for m in mirror.values()) and dt < 120.0
    _report(6, ok, f"formula-vs-bisection rel {rels[1]:.2e}/{rels[2]:.2e}, "
                   f"beta-mirror rel {mirror[1]:.1e}/{mirror[2]:.1e} "
                   f"({dt:.1f}s)")
    assert ok


def test_criterion_07_dg1_gradient(domain, golden, stars):
    psi = stars[0]
    base = psi.embed()
    h = 1e-5
    rng = np.random.default_rng(2)
    M = 512
    worst = 0.0
    for _ in range(20):
        c = rng.standard_normal(4) * 0.5
        v = QPFn.from_callable(
            domain,
            lambda th, x: (c[0] + c[1] * x
                           + (c[2] + c[3] * x) * np.cos(TWO_PI * th)))
        out = DG1(psi, golden, v)
        g = []
        for sgn in (1.0, -1.0):
            fpm = base + v * (sgn * h)
            curve = solve_invariant_curve(fpm, golden, 1,
                                          guess=np.zeros(M), M=M)
            g.append(G1(fpm, golden, curve))
        fd = (g[0] - g[1]) / (2.0 * h)
        rel = float(np.max(np.abs(fd - out))) \
            / max(1.0, float(np.max(np.abs(out))))
        worst = max(worst, rel)
    ok = worst <= 1e-6
    _report(7, ok, f"max relative error over 20 directions = {worst:.2e}")
    assert ok


def test_criterion_08_observation1(flm, golden):
    t0 = time.monotonic()
    g2, _ = parse_forcing("[0.5,0,0.5]*sin(1w)")
    partner = flm_family(g=g2, name="flm-sin-mix")
    pos = observation1(flm, partner, golden, n_max=10)
    gb2, _ = parse_forcing("[1]*cos(2w)")
    neg = observation1(flm, flm_family(g=gb2, name="b2"), golden, n_max=10)
    dt = time.monotonic() - t0
    ok = pos.passed and pos.fit.rho_hat < 1.0 and not neg.passed \
        and dt < 300.0
    _report(8, ok, f"rho_hat={pos.fit.rho_hat:.4f} "
                   f"(upper {pos.fit.rho_hat_hi:.4f}), B2 control "
                   f"{'fails' if not neg.passed else 'PASSES (bad)'} "
                   f"({dt:.1f}s)")
    assert ok


def test_criterion_09_observation2(flm, golden):
    rep = observation2(flm, golden, n_max=10)
    gaps = rep.identity_gaps
    ok = (rep.passed and rep.cauchy_decreasing and rep.limit_stable_3digits
          and all(g <= 1e-10 for g in gaps.values()))
    _report(9, ok, f"limit={rep.limit_estimate:.8f} "
                   f"(prev {rep.limit_prev:.8f}), identity gaps "
                   f"{gaps[2]:.1e}/{gaps[3]:.1e}")
    assert ok


def test_criterion_10_observation3(golden):
    rep = observation3(golden, etas=(1e-3, 1e-2), n_max=10)
    ok = rep.passed and 1.0 / 3.0 <= rep.scale_factor <= 3.0 and rep.bound_ok
    worst = {e: f"{w:.2e}<={a:.2e}" for e, (w, a) in rep.bound_margins.items()}
    _report(10, ok, f"scale={rep.scale_factor:.3f}, bound margins {worst}")
    assert ok


def test_criterion_11_conjecture_checkers(fp, flm, domain, golden):
    h3 = check_H3(flm, golden, n_max=8)
    h4 = check_H4(n_pairs=100, seed=7)
    p0 = project_pik(flm.dv_deps(stable_manifold_param(flm)), 1)
    h5 = check_H5(golden, p0, p0, n_max=12)
    h5x2 = check_H5(golden, p0, p0 * 2.0, n_max=12)
    homogeneous = (h5x2.r0 == 2.0 * h5.r0
                   and np.array_equal(np.asarray(h5x2.ratios),
                                      np.asarray(h5.ratios)))

    rng = np.random.default_rng(5)
    v = PairFn.from_coeff_vector(domain,
                                 rng.standard_normal(2 * domain.n_cheb))
    a = apply_L_prime(fp.phi, golden, v)
    b = apply_L_prime(fp.phi, golden, v)
    identical_zero = float(np.max(np.abs(a.coeff_vector()
                                         - b.coeff_vector()))) == 0.0

    third = RotationNumber.from_fraction(1, 3)
    rational_rejected = True
    for call in (lambda: check_H3(flm, third, n_max=3),
                 lambda: check_H5(third, p0, p0, n_max=3),
                 lambda: observation2(flm, third, n_max=3)):
        try:
            call()
            rational_rejected = False
        except DiophantineError:
            pass

    ok = (h3.passed and h4.passed and h5.passed and homogeneous
          and identical_zero and rational_rejected)
    _report(11, ok, f"H3 {h3.passed}, H4 {h4.passed}, H5 {h5.passed} "
                    f"band [{h5.c1:.4f},{h5.c2:.4f}], homogeneity exact "
                    f"{homogeneous}, identical-pair 0 {identical_zero}, "
                    f"rational rejected {rational_rejected}")
    assert ok
