"""Invariant curves over a rotation, derivative products, slope chains.

Closed-form oracles: the logistic 2-cycle x = (a+1 +/- sqrt((a+1)(a-3)))/2a
with multiplier -a^2+2a+4, symbolic unrolling of fiber iterates, and the
exactness of the quadratic-family slope identity beta' = -alpha'.
"""

import collections
import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qprenorm_lab

from qprenorm_lab import (
    DG1,
    DG1_hat,
    G1,
    G1_hat,
    QPFn,
    direct_slope,
    extremum_M,
    extremum_m,
    fiber_product,
    fit_geometric_decay,
    flm_family,
    functional_K,
    iterate_fiber,
    locate_reducibility_loss,
    mixed_quotient_sequence,
    project_p0,
    quotient_sequence,
    renorm_identity_gap,
    shift_tgamma,
    slope_formula,
    slope_table,
    solve_invariant_curve,
    superstable_params,
)
from qprenorm_lab import asymptotics, curvedyn
from qprenorm_lab.errors import (BasinError, EscapeError,
                                 PrecisionExhaustedError)
from qprenorm_lab.funcspace import _phases

TWO_PI = 2.0 * np.pi
ALPHA = 3.1
DISC = math.sqrt((ALPHA + 1.0) * (ALPHA - 3.0))
X_LO = (ALPHA + 1.0 - DISC) / (2.0 * ALPHA)
X_HI = (ALPHA + 1.0 + DISC) / (2.0 * ALPHA)
MULTIPLIER = -ALPHA ** 2 + 2.0 * ALPHA + 4.0  # = 0.59 at alpha = 3.1


def _logistic(domain, alpha=ALPHA):
    return QPFn.from_callable(domain, lambda th, x: alpha * x * (1.0 - x))


# ------------------------------------------------------------ fiber orbits

def test_iterate_single_step_is_the_map(domain, golden):
    f = _logistic(domain)
    got = iterate_fiber(f, golden, 1, 0.3, 0.4)
    assert got == pytest.approx(ALPHA * 0.4 * 0.6, abs=1e-12)


def test_iterate_unrolls_the_forcing_symbolically(domain, golden):
    eps = 0.01
    f = QPFn.from_callable(domain,
                           lambda th, x: x + eps * np.cos(TWO_PI * th))
    w = float(golden)
    got = iterate_fiber(f, golden, 2, 0.2, 0.1)
    want = (0.1 + eps * np.cos(TWO_PI * 0.2)
            + eps * np.cos(TWO_PI * (0.2 + w)))
    assert got == pytest.approx(want, abs=1e-12)


def test_iterate_fixed_point_of_flat_top(domain, golden):
    f = _logistic(domain, alpha=2.0)
    assert iterate_fiber(f, golden, 2, 0.0, 0.5) == pytest.approx(
        0.5, abs=1e-12)


def test_iterate_raises_on_escape(domain, golden):
    f = QPFn.from_callable(domain, lambda th, x: x + 0.5)
    with pytest.raises(EscapeError):
        iterate_fiber(f, golden, 8, 0.0, 0.0)


# -------------------------------------------------------- invariant curves

def test_curve_hits_closed_form_two_cycle(domain, golden):
    f = _logistic(domain)
    curve = solve_invariant_curve(f, golden, 1,
                                  guess=np.full(512, X_LO + 0.02))
    assert np.max(np.abs(curve.samples - X_LO)) <= 1e-11
    assert curve.residual <= 1e-11
    want_lyap = math.log(abs(MULTIPLIER)) / 2.0
    assert curve.lyapunov == pytest.approx(want_lyap, abs=1e-10)


def test_fiber_product_is_the_cycle_multiplier(domain, golden):
    f = _logistic(domain)
    curve = solve_invariant_curve(f, golden, 1,
                                  guess=np.full(512, X_LO + 0.02))
    prod = fiber_product(f, golden, curve)
    assert np.max(np.abs(prod - MULTIPLIER)) <= 1e-10


def test_superstable_curve_has_log_floor_lyapunov(domain, golden):
    alpha = 1.0 + math.sqrt(5.0)
    f = _logistic(domain, alpha=alpha)
    curve = solve_invariant_curve(f, golden, 1, guess=np.full(512, 0.5))
    assert curve.lyapunov < -5.0
    assert np.min(np.abs(fiber_product(f, golden, curve))) <= 1e-8


def test_weak_forcing_stays_near_unforced_cycle(domain, golden):
    eps = 1e-5
    f = QPFn.from_callable(
        domain,
        lambda th, x: ALPHA * x * (1.0 - x) + eps * np.cos(TWO_PI * th))
    curve = solve_invariant_curve(f, golden, 1,
                                  guess=np.full(512, X_LO + 0.02))
    assert np.max(np.abs(curve.samples - X_LO)) <= 10.0 * eps


def test_curve_shift_keeps_the_doubling_depth_limit(domain, golden):
    # the 2^n omega shift doubles omega n times, so depth 74 + 3 > 75 raises
    w = golden
    for _ in range(74):
        w = w.double()
    with pytest.raises(PrecisionExhaustedError):
        solve_invariant_curve(_logistic(domain), w, 3, M=32)


def test_singular_newton_jacobian_is_a_basin_error(domain, golden,
                                                    monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(BasinError, match="singular Jacobian"):
        solve_invariant_curve(_logistic(domain), golden, 1,
                              guess=np.full(512, X_LO + 0.02))


def _passes_and_check(f, omega, n, monkeypatch):
    """Solve a period-2^n curve while recording the samples each
    _orbit_grid pass starts from; check that residual and Lyapunov exponent
    are those of the returned samples. Returns (curve, pass inputs)."""
    inputs = []
    orbit = curvedyn._orbit_grid

    def counted(f, fx, omega, steps, thetas, X):
        inputs.append(np.array(X, dtype=float))
        return orbit(f, fx, omega, steps, thetas, X)

    monkeypatch.setattr(curvedyn, "_orbit_grid", counted)
    curve = solve_invariant_curve(f, omega, n)
    monkeypatch.undo()
    s = omega
    for _ in range(n):
        s = s.double()
    FX, _, logs = orbit(f, f.dx(), omega, 2 ** n, curve.thetas, curve.samples)
    G = FX - curvedyn._shift_matrix(curve.M, float(s)) @ curve.samples
    assert curve.residual == float(np.max(np.abs(G)))
    assert curve.lyapunov == float(np.mean(logs)) / 2 ** n
    return curve, inputs


def test_curve_solve_spends_one_grid_pass_per_iterate(flm, golden,
                                                      monkeypatch):
    s = superstable_params(flm, 4)
    f = flm.evaluator(float(s[3]) + 0.1 * (s[4] - s[3]), 1e-4)
    curve, inputs = _passes_and_check(f, golden, 3, monkeypatch)
    assert curve.residual <= 1e-13
    # no pass repeats the one before it, and the last is at the samples
    assert not any(np.array_equal(a, b) for a, b in zip(inputs, inputs[1:]))
    assert np.array_equal(inputs[-1], curve.samples)


def test_curve_residual_is_that_of_the_samples_when_newton_runs_out(
        flm, golden, monkeypatch):
    # shortened Newton steps converge linearly: after the 20 steps from the
    # NEWTON_SWITCH hand-over the residual is above the 1e-13 stop but
    # within TOL_CURVE (7.6e-13 here)
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda J, b: 0.65 * solve(J, b))
    s = superstable_params(flm, 4)
    f = flm.evaluator(float(s[3]) + 0.1 * (s[4] - s[3]), 1e-4)
    curve, inputs = _passes_and_check(f, golden, 3, monkeypatch)
    assert 1e-13 < curve.residual <= curvedyn.TOL_CURVE
    assert np.array_equal(inputs[-1], curve.samples)


def test_damped_stage_gives_up_when_the_residual_stalls(flm, golden,
                                                        monkeypatch):
    # the period-64 curve at a tenth of the way from s_6 to s_7 does not
    # attract at eps = 1e-4: the damped residual's best comes at iteration
    # 2 and it then climbs, so the solve ends DAMPED_STALL iterations later
    passes = []
    orbit = curvedyn._orbit_grid

    def counted(*args):
        passes.append(1)
        return orbit(*args)

    monkeypatch.setattr(curvedyn, "_orbit_grid", counted)
    s = superstable_params(flm, 7)
    f = flm.evaluator(float(s[6]) + 0.1 * (s[7] - s[6]), 1e-4)
    with pytest.raises(BasinError, match="damped stage stalled"):
        solve_invariant_curve(f, golden, 6)
    assert len(passes) <= 60


def test_benchmark_like_curve_solve_takes_few_passes(flm, golden,
                                                     monkeypatch):
    # period 8 near s_3 as in the curves benchmark: the damped stage hands
    # over at NEWTON_SWITCH and Newton needs three steps, 8 passes in all
    # (25 when the damped stage ran down to 1e-8)
    s = superstable_params(flm, 4)
    f = flm.evaluator(float(s[3]) + 0.1 * (s[4] - s[3]), 2e-4)
    curve, inputs = _passes_and_check(f, golden, 3, monkeypatch)
    assert curve.residual <= curvedyn.TOL_CURVE
    assert len(inputs) <= 12


def test_criterion_reads_the_product_of_the_solve(flm, golden, monkeypatch):
    # the solve keeps the fiber product of its last pass, which is at the
    # samples: it is fiber_product's bit for bit, and the bracket criterion
    # spends no grid pass beyond the solve's own
    passes = []
    orbit = curvedyn._orbit_grid

    def counted(*args):
        passes.append(1)
        return orbit(*args)

    s = superstable_params(flm, 4)
    alpha = float(s[3]) + 0.1 * (s[4] - s[3])
    f = flm.evaluator(alpha, 2e-4)
    monkeypatch.setattr(curvedyn, "_orbit_grid", counted)
    curve = solve_invariant_curve(f, golden, 3)
    solve_passes = len(passes)
    value, samples = curvedyn._criterion(flm, golden, 3, 2e-4, alpha, "min",
                                         None)
    assert len(passes) == 2 * solve_passes
    monkeypatch.undo()
    prod = fiber_product(f, golden, curve)
    assert curve.product.tobytes() == prod.tobytes()
    assert samples.tobytes() == curve.samples.tobytes()
    assert value == extremum_m(prod).value


def test_period16_curve_converges_where_the_damped_stage_stalls(flm,
                                                                golden):
    # the damped residual reaches 1.7e-6 and then climbs away, so a damped
    # stage run down to 1e-8 stalls; Newton from 1e-3 converges
    f = flm.evaluator(3.5667224221654124, 5.566964054792822e-4)
    curve = solve_invariant_curve(f, golden, 4)
    assert curve.residual <= curvedyn.TOL_CURVE
    assert curve.lyapunov == pytest.approx(-0.00846, abs=5e-5)


@pytest.mark.parametrize("M", [16, 17])
def test_shift_is_exact_on_band_limited_grid_functions(M):
    # every cosine the grid resolves, including the Nyquist one cos(pi M
    # theta) of an even M, which stays real, and the top mode (M-1)/2 of an
    # odd M, which does not
    thetas = np.arange(M) / M
    s = 0.3141
    for k in range(M // 2 + 1):
        got = curvedyn._shift_samples(np.cos(TWO_PI * k * thetas), s)
        want = np.cos(TWO_PI * k * (thetas + s))
        assert np.max(np.abs(got - want)) <= 1e-13, k


@pytest.mark.parametrize("M", [16, 17, 512])
def test_shift_matrix_is_the_circulant_of_one_column(M, golden):
    for s in (0.3141, float(golden), -0.123):
        S = curvedyn._shift_matrix(M, s)
        want = curvedyn._shift_samples(np.eye(M), s)
        assert np.max(np.abs(S - want)) <= 1e-15


def test_stepped_phase_table_matches_the_direct_one(domain, golden):
    # the two differ by the rounding of theta + j w: ulp(64) in the
    # argument moves mode K by 2 pi K ulp(64)
    K, w = domain.n_fourier, float(golden)
    thetas = np.arange(512) / 512
    tol = TWO_PI * K * np.spacing(64.0)
    tables = curvedyn._step_phases(thetas, w, 64, K)
    for j, E in enumerate(tables):
        want = _phases(thetas + j * w, K)
        assert np.max(np.abs(E - want)) <= tol, j
    assert j == 63


def test_package_runs_without_scipy():
    # a fresh interpreter: import, a superstable cascade, a period-2 curve
    src = str(Path(qprenorm_lab.__file__).resolve().parents[1])
    code = f"""
import sys
sys.path.insert(0, {src!r})
import qprenorm_lab as q
fam = q.flm_family()
s = q.superstable_params(fam, 3)
q.solve_invariant_curve(fam.evaluator(float(s[1]), 1e-4),
                        q.RotationNumber.golden(), 1)
print(sorted(m for m in sys.modules
             if m == "scipy" or m.startswith("scipy.")))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# ------------------------------------------------- derivative products / G1

def test_g1_constant_for_uncoupled_map(domain, golden):
    f = _logistic(domain)
    curve = solve_invariant_curve(f, golden, 1,
                                  guess=np.full(512, X_LO + 0.02))
    g1 = G1(f, golden, curve)
    assert np.max(g1) - np.min(g1) <= 1e-10
    assert np.max(np.abs(g1 - MULTIPLIER)) <= 1e-10


def test_g1_hat_matches_uncoupled_g1(flm):
    # multiplier is invariant under the normalizing conjugacy
    psi = flm.psi0(ALPHA)
    assert G1_hat(psi) == pytest.approx(MULTIPLIER, abs=1e-9)


def test_g1_hat_vanishes_on_sigma1(stars):
    # f*_1 has critical 2-cycle 0 -> 1 -> 0; psi'(0) = 0 kills the product
    assert abs(G1_hat(stars[0])) <= 1e-9


# ---------------------------------------------------------------- DG1 / K

# the directions v of the DG1 tests; each is also checked by the oracle
DG1_DIRECTIONS = {
    "theta-independent": lambda th, x: 1.0 - 0.3 * x ** 2,
    "first-mode": lambda th, x: (0.4 + 0.2 * x) * np.cos(TWO_PI * th),
    "mixed": lambda th, x: 0.3 * x + (0.5 + 0.1 * x) * np.cos(TWO_PI * th),
}


def _assert_dg1_matches_differences(psi, omega, v, out, h=1e-5):
    """Oracle: the central difference of G1 at psi +- h v, each from an
    invariant-curve solve, agrees with DG1 v within 1e-6 relative."""
    M = out.size
    g = []
    for sgn in (1.0, -1.0):
        fpm = psi.embed() + v * (sgn * h)
        curve = solve_invariant_curve(fpm, omega, 1, guess=np.zeros(M), M=M)
        g.append(G1(fpm, omega, curve))
    fd = (g[0] - g[1]) / (2 * h)
    rel = (float(np.max(np.abs(fd - out)))
           / max(1.0, float(np.max(np.abs(out)))))
    assert rel <= 1e-6, f"DG1 against central differences: rel {rel:.3e}"


@pytest.mark.parametrize("name", list(DG1_DIRECTIONS))
def test_dg1_matches_central_differences(domain, golden, stars, name):
    v = QPFn.from_callable(domain, DG1_DIRECTIONS[name])
    out = DG1(stars[0], golden, v)
    assert np.all(np.isfinite(out))
    _assert_dg1_matches_differences(stars[0], golden, v, out)


def test_dg1_theta_independent_reduces_to_hat(domain, golden, stars):
    psi = stars[0]
    v = QPFn.from_callable(domain, DG1_DIRECTIONS["theta-independent"])
    out = DG1(psi, golden, v)
    assert np.max(out) - np.min(out) <= 1e-12
    want = DG1_hat(psi, project_p0(v))
    assert out[0] == pytest.approx(want, abs=1e-12)


def test_dg1_keeps_first_mode_structure(domain, golden, stars):
    v = QPFn.from_callable(domain, DG1_DIRECTIONS["first-mode"])
    out = DG1(stars[0], golden, v)
    spec = np.fft.rfft(out) / out.size
    assert abs(spec[0]) <= 1e-12
    assert abs(spec[1]) > 1.0
    assert np.max(np.abs(spec[2:])) <= 1e-12
    # a pure first mode has mirror-symmetric extrema
    assert extremum_M(out).value == pytest.approx(
        -extremum_m(out).value, abs=1e-9)


def test_functional_k_homogeneous_and_shift_invariant(domain, golden, stars):
    v = QPFn.from_callable(
        domain, lambda th, x: (0.4 + 0.2 * x) * np.cos(TWO_PI * th))
    k1 = functional_K(golden, stars[0], v)
    assert abs(functional_K(golden, stars[0], v * 2.0) - 2.0 * k1) <= 1e-12
    for gamma in (0.17, 0.37, 0.81):
        ks = functional_K(golden, stars[0], shift_tgamma(v, gamma))
        assert abs(ks - k1) <= 1e-10


# ----------------------------------------------------------------- extrema

def test_extrema_of_shifted_cosine():
    thetas = np.arange(512) / 512.0
    vals = 2.0 + np.cos(TWO_PI * thetas)
    m = extremum_m(vals)
    M = extremum_M(vals)
    assert m.value == pytest.approx(1.0, abs=1e-10)
    assert m.theta == pytest.approx(0.5, abs=1e-10)
    assert M.value == pytest.approx(3.0, abs=1e-10)
    assert not m.degenerate


def test_extrema_flag_degenerate_constant():
    assert extremum_m(np.full(512, 0.7)).degenerate


def test_extrema_refinement_matches_dense_grid():
    thetas = np.arange(512) / 512.0
    f = lambda t: np.cos(TWO_PI * t) + 0.3 * np.cos(2 * TWO_PI * t + 0.7)
    m = extremum_m(f(thetas))
    dense = np.arange(2 ** 16) / 2.0 ** 16
    assert m.value <= np.min(f(dense)) + 1e-9
    assert m.value >= np.min(f(dense)) - 1e-9


# ------------------------------------------------------------ slope chains

def test_slope_identity_for_quadratic_family(flm, golden):
    a_slope, b_slope = slope_formula(flm, golden, 1)
    assert b_slope == pytest.approx(-a_slope, rel=1e-9)


def test_slope_formula_cross_validated_by_bisection(flm, golden):
    a_slope, _ = slope_formula(flm, golden, 1)
    direct = direct_slope(flm, golden, 1, branch="min")
    assert a_slope == pytest.approx(direct, rel=0.02)


def test_loss_branches_open_in_opposite_directions(flm, golden):
    dmin = direct_slope(flm, golden, 1, branch="min")
    dmax = direct_slope(flm, golden, 1, branch="max")
    assert dmin < 0.0 < dmax


def test_loss_location_collapses_to_superstable_at_zero_coupling(
        flm, golden):
    s = superstable_params(flm, 2)
    loss = locate_reducibility_loss(flm, golden, 2, 0.0)
    assert loss == pytest.approx(s[2], abs=1e-9)


def test_chain_modes_agree_at_quotient_level(flm, golden):
    exact = dict(quotient_sequence(
        slope_table(flm, golden, 8, mode="exact-orbit")).entries)
    fixed = dict(quotient_sequence(
        slope_table(flm, golden, 8, mode="fixed-point")).entries)
    ns = sorted(set(exact) & set(fixed))
    gaps = [abs(exact[n] - fixed[n]) for n in ns]
    assert all(g <= 5e-2 for n, g in zip(ns, gaps) if n >= 4)
    fit = fit_geometric_decay(ns, gaps)
    assert fit.trivial or fit.rho_hat < 1.0


def test_sigma1_polish_runs_once_per_family_and_level(golden, monkeypatch):
    # each level once per family, so no memo is read
    expect = (slope_table(flm_family(), golden, 5, mode="exact-orbit"),
              slope_table(flm_family(), golden.double(), 4,
                          mode="exact-orbit"),
              renorm_identity_gap(flm_family(), golden, 2))

    calls = collections.Counter()
    polish = curvedyn._polish_sigma1

    def counted(family, alpha0, n):
        calls[family.name, n] += 1
        return polish(family, alpha0, n)

    monkeypatch.setattr(curvedyn, "_polish_sigma1", counted)
    fam = flm_family()
    _, tab1, tab2 = mixed_quotient_sequence(fam, golden, 5,
                                            mode="exact-orbit")
    gap = renorm_identity_gap(fam, golden, 2)
    # the 2 omega table and the identity gap's left side reuse flm's
    # levels; the renormalized family polishes its own one level
    assert calls == {**{("flm", n): 1 for n in range(1, 6)},
                     ("flm_T", 1): 1}
    # bit for bit what families without a memo give
    assert (tab1, tab2, gap) == expect
    assert sorted(fam._cache["sigma1"]) == [1, 2, 3, 4, 5]
    copy = dataclasses.replace(fam, name="flm-copy")
    assert "sigma1" not in copy._cache


def test_sigma1_polish_builds_each_slice_map_once(golden, monkeypatch):
    # every slice map of the renormalized family costs one apply_T. The
    # polish reads the domain off its first secant map and hands the map
    # at the polished parameter to the chain, so only the three secant
    # evaluations per level remain (two more each before)
    calls = collections.Counter()
    apply_T = asymptotics.apply_T

    def counted(*args, **kw):
        calls["apply_T"] += 1
        return apply_T(*args, **kw)

    monkeypatch.setattr(asymptotics, "apply_T", counted)
    fam = flm_family()
    for i in (2, 3):
        renorm_identity_gap(fam, golden, i)
    assert calls["apply_T"] == 6
    # the memo keeps parameters, not maps
    assert all(type(a) is float for a in fam._cache["sigma1"].values())
