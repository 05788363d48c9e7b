"""Invariant curves over a rotation, derivative products, slope chains.

Closed-form oracles: the logistic 2-cycle x = (a+1 +/- sqrt((a+1)(a-3)))/2a
with multiplier -a^2+2a+4, symbolic unrolling of fiber iterates, and the
exactness of the quadratic-family slope identity beta' = -alpha'.
"""

import ast
import collections
import dataclasses
import importlib.util
import math
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qprenorm_lab

from qprenorm_lab import (
    DG1,
    DG1_hat,
    DomainConfig,
    G1,
    G1_hat,
    QPFn,
    RotationNumber,
    apply_DT,
    direct_slope,
    extremum_M,
    extremum_m,
    fiber_product,
    fit_geometric_decay,
    flm_eta_family,
    flm_family,
    functional_K,
    iterate_fiber,
    locate_reducibility_loss,
    mixed_quotient_sequence,
    observation2,
    project_p0,
    quotient_sequence,
    renorm_identity_gap,
    shift_tgamma,
    slope_chain,
    slope_formula,
    slope_table,
    solve_invariant_curve,
    stable_manifold_param,
    superstable_params,
)
from qprenorm_lab import asymptotics, curvedyn, renorm1d
from qprenorm_lab.cli import parse_forcing
from qprenorm_lab.errors import (BasinError, ConsistencyError,
                                 DegenerateScalingError, EscapeError,
                                 NoConvergenceError, PrecisionExhaustedError)
from qprenorm_lab.funcspace import AnalyticFn, _phases

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


@pytest.mark.parametrize("nyquist", [0.0, np.nan])
def test_singular_sherman_morrison_denominator_is_a_basin_error(
        nyquist, monkeypatch):
    # at s = 1 / (2M) the shift's Nyquist multiplier cos(pi M s) is 0 in
    # exact arithmetic (6e-17 in floating point), so J = -S is singular at
    # prod = 0; the phase table is given that exact value, and a NaN
    # stands in for a non-finite one
    shift_phases = curvedyn._shift_phases

    def exact(M, s):
        ph = shift_phases(M, s)
        ph[-1] = nyquist
        return ph

    monkeypatch.setattr(curvedyn, "_shift_phases", exact)
    G = np.cos(TWO_PI * np.arange(16) / 16)
    with pytest.raises(BasinError, match="singular Jacobian"):
        curvedyn._newton_step(np.zeros(16), G, 1 / 32, 1e-15)


def test_singular_dense_fallback_is_a_basin_error(domain, golden,
                                                  monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    monkeypatch.setattr(curvedyn, "NEUMANN_RHO", 0.0)
    with pytest.raises(BasinError, match="singular Jacobian"):
        solve_invariant_curve(_logistic(domain), golden, 1,
                              guess=np.full(512, X_LO + 0.02))


@pytest.mark.parametrize("M", [17, 512])
def test_lu_matrix_is_the_index_gathered_circulant(M, monkeypatch):
    # the strided window of the doubled column gives A = I - T diag(prod)
    # byte for byte as gathering T's column by (r - k) % M
    rng = np.random.default_rng(M)
    prod = rng.uniform(-3.0, 3.0, M)
    G = rng.standard_normal(M)
    s = 0.3141
    seen = []
    solve = np.linalg.solve

    def recorded(A, b):
        seen.append(A.copy())
        return solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    curvedyn._newton_step(prod, G, s, 1e-15)
    ph = curvedyn._shift_phases(M, -s)
    if M % 2 == 0:
        ph[-1] = np.copysign(1.0, ph[-1].real)
    i = np.arange(M)
    want = -np.fft.irfft(ph, M)[(i[:, None] - i) % M] * prod
    want.flat[::M + 1] += 1.0
    assert len(seen) == 1
    assert seen[0].tobytes() == want.tobytes()


def test_guess_of_the_wrong_size_is_refused_before_any_pass(
        domain, golden, monkeypatch):
    monkeypatch.setattr(curvedyn, "_orbit_grid", None)
    with pytest.raises(ValueError, match=r"not \(512,\)"):
        solve_invariant_curve(_logistic(domain), golden, 1,
                              guess=np.full(256, X_LO + 0.02))


def _passes_and_check(f, omega, n, monkeypatch):
    """Solve a period-2^n curve while recording the samples each
    _orbit_grid pass starts from; check that residual, Lyapunov exponent
    and fiber product are those of the returned samples, all three bit for
    bit, with the product and the log sum accumulated step by step over
    the pass's step derivatives. Returns (curve, pass inputs)."""
    inputs = []
    orbit = curvedyn._orbit_grid

    def counted(domain, tables, X):
        inputs.append(np.array(X, dtype=float))
        return orbit(domain, tables, X)

    monkeypatch.setattr(curvedyn, "_orbit_grid", counted)
    curve = solve_invariant_curve(f, omega, n)
    monkeypatch.undo()
    s = omega
    for _ in range(n):
        s = s.double()
    tables = curvedyn._step_tables(f, omega, 2 ** n, curve.M)
    FX, D = orbit(f.domain, tables, curve.samples)
    assert D.shape == (2 ** n, curve.M)
    prod, logs = np.ones(curve.M), np.zeros(curve.M)
    for d in D:
        prod = prod * d
        with np.errstate(divide="ignore"):
            logs = logs + np.maximum(np.log(np.abs(d)), curvedyn.LOG_FLOOR)
    G = FX - curvedyn._shift_samples(curve.samples, float(s))
    assert curve.residual == float(np.max(np.abs(G)))
    assert curve.lyapunov == float(np.mean(logs)) / 2 ** n
    assert curve.product.tobytes() == prod.tobytes()
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


@pytest.mark.parametrize("n, eps", [(1, 1e-3), (2, 5e-4), (4, 1e-4),
                                    (5, 1e-5)])
def test_product_and_logs_are_the_per_step_loop(flm, golden, monkeypatch,
                                                n, eps):
    # the solve reduces the step derivatives of its last pass in one
    # product and one log sum; _passes_and_check holds both to the loop
    # over the steps byte for byte, from period 2 to period 32
    s = superstable_params(flm, n + 1)
    f = flm.evaluator(float(s[n]) + 0.1 * (s[n + 1] - s[n]), eps)
    _passes_and_check(f, golden, n, monkeypatch)


def test_curve_residual_is_that_of_the_samples_when_newton_runs_out(
        flm, golden, monkeypatch):
    # shortened Newton steps converge linearly: after the 20 steps from the
    # NEWTON_SWITCH hand-over the residual is above the 1e-13 stop but
    # within TOL_CURVE (7.6e-13 here)
    step = curvedyn._newton_step
    monkeypatch.setattr(curvedyn, "_newton_step",
                        lambda *a: 0.65 * step(*a))
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


def _newton_rffts(f, omega, n, pin=None):
    """Solve the period-2^n curve; return the curve and the rfft count of
    each Newton step, with every step's tol pinned to pin if one is
    given."""
    step, rfft = curvedyn._newton_step, np.fft.rfft
    counts = []

    def counted(prod, G, s, tol):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.fft, "rfft", _counted(rfft, calls))
            x = step(prod, G, s, tol if pin is None else pin)
        counts.append(len(calls))
        return x

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curvedyn, "_newton_step", counted)
        curve = solve_invariant_curve(f, omega, n)
    return curve, counts


@pytest.mark.parametrize("n, eps", [(3, 2e-4), (2, 5e-4)])
def test_newton_sums_each_series_only_as_far_as_its_residual_needs(
        flm, golden, n, eps):
    # inexact Newton: a step stops its series at min(residual,
    # NEWTON_SWITCH) of each row's sum, so its own error is of the order of
    # the quadratic term and Newton takes as many steps as with every
    # series pinned to 1e-15, on at most 60% of the rffts (39 against 96 at
    # period 8, 27 against 51 at period 4, where each of the 3 steps also
    # spends one rfft on T G outside its series)
    s = superstable_params(flm, n + 1)
    f = flm.evaluator(float(s[n]) + 0.1 * (s[n + 1] - s[n]), eps)
    curve, forced = _newton_rffts(f, golden, n)
    pinned_curve, pinned = _newton_rffts(f, golden, n, pin=1e-15)
    assert curve.residual <= 1e-13 and pinned_curve.residual <= 1e-13
    assert len(forced) == len(pinned)
    assert 5 * sum(forced) <= 3 * sum(pinned)


@pytest.mark.parametrize("n, eps", [(1, 2e-4), (3, 2e-4), (3, 1e-4)])
def test_a_solve_builds_its_step_tables_once(flm, golden, monkeypatch, n,
                                             eps):
    # the folded tables depend on f, omega and the grid only: one build per
    # solve, read by each of its passes
    builds, passes = [], []
    build, orbit = curvedyn._step_tables, curvedyn._orbit_grid

    def counted_build(*args):
        builds.append(1)
        return build(*args)

    def counted_orbit(*args):
        passes.append(1)
        return orbit(*args)

    monkeypatch.setattr(curvedyn, "_step_tables", counted_build)
    monkeypatch.setattr(curvedyn, "_orbit_grid", counted_orbit)
    s = superstable_params(flm, n + 1)
    f = flm.evaluator(float(s[n]) + 0.1 * (s[n + 1] - s[n]), eps)
    solve_invariant_curve(f, golden, n)
    assert len(builds) == 1
    assert len(passes) > 1


def test_criterion_reads_the_product_of_the_solve(flm, golden, monkeypatch):
    # the bracket criterion reads the product the solve kept from its last
    # pass and spends no grid pass beyond the solve's own
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
    assert samples.tobytes() == curve.samples.tobytes()
    assert value == extremum_m(curve.product).value


@pytest.mark.parametrize("read", [fiber_product, G1])
def test_curve_results_come_from_the_solve(flm, golden, monkeypatch, read):
    # fiber_product and G1 return the solve's product for an equal map (a
    # second evaluator call) and refuse another map or another omega,
    # without a grid pass
    s = superstable_params(flm, 2)
    alpha = float(s[1]) + 0.1 * (s[2] - s[1])
    f = flm.evaluator(alpha, 2e-4)
    curve = solve_invariant_curve(f, golden, 1)
    monkeypatch.setattr(curvedyn, "_orbit_grid", None)
    again = flm.evaluator(alpha, 2e-4)
    assert again is not f
    assert read(again, golden, curve) is curve.product
    with pytest.raises(ConsistencyError, match="different map"):
        read(flm.evaluator(alpha, 3e-4), golden, curve)
    other = RotationNumber.from_fraction(2, 5)
    with pytest.raises(ConsistencyError, match="different omega"):
        read(f, other, curve)


def test_only_the_solve_runs_grid_passes():
    # every curve result reads the solve's product: no function of src/
    # but solve_invariant_curve names _orbit_grid, nor the step-table
    # builder, so the tables are built per solve and never kept past it
    src = Path(qprenorm_lab.__file__).resolve().parent
    trees = [(path.name, ast.parse(path.read_text()))
             for path in src.rglob("*.py")]
    for name in ("_orbit_grid", "_step_tables"):
        users = set()
        for file, tree in trees:
            for top in tree.body:
                if any(isinstance(node, ast.Name) and node.id == name
                       for node in ast.walk(top)):
                    users.add((file, getattr(top, "name", None)))
        assert users == {("curvedyn.py", "solve_invariant_curve")}, name


def test_period16_curve_converges_where_the_damped_stage_stalls(
        flm, golden, monkeypatch):
    # the damped residual reaches 1.7e-6 and then climbs away, so a damped
    # stage run down to 1e-8 stalls; Newton from 1e-3 converges. The fiber
    # product reaches 3.7 here, above NEUMANN_RHO, and the spectral radius
    # of T diag(prod) is 1.55-1.57, so every Newton step takes the LU
    solves = []
    solve = np.linalg.solve

    def counted(J, b):
        solves.append(J.shape)
        return solve(J, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    f = flm.evaluator(3.5667224221654124, 5.566964054792822e-4)
    curve = solve_invariant_curve(f, golden, 4)
    assert curve.residual <= curvedyn.TOL_CURVE
    assert curve.lyapunov == pytest.approx(-0.00846, abs=5e-5)
    assert solves and set(solves) == {(512, 512)}


# ------------------------------------------------ the matrix-free Newton step

def _no_dense_solve(*args):
    raise AssertionError("the Newton step took the dense solve")


def _counted(fn, calls):
    """fn, appending the shape of its first argument to calls per call."""
    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return fn(a, *args, **kwargs)
    return counted


@settings(max_examples=30, deadline=None)
@given(M=st.sampled_from([16, 17, 511, 512]), j=st.integers(0, 511),
       off=st.floats(-0.03, 0.03), amp=st.floats(0.0, 0.89),
       seed=st.integers(0, 2 ** 32 - 1))
@example(M=511, j=0, off=0.0, amp=0.875, seed=1)
def test_newton_step_solves_the_dense_system(M, j, off, amp, seed):
    # shifts near a zero of the Nyquist multiplier, |cos(pi M s)| =
    # |sin(pi off)| < 0.1, where the rank-one term is largest, and
    # max |prod| < NEUMANN_RHO, where the step sums the Neumann series and
    # forms no matrix. Each solver is off by up to about cond(J) eps, so J
    # is kept well conditioned. The pinned example (max |prod| 0.87, shift
    # half a grid step from 0) needs about 260 series terms
    s = (j % M + 0.5 + off) / M
    rng = np.random.default_rng(seed)
    prod = amp * rng.uniform(-1.0, 1.0, M)
    G = rng.standard_normal(M)
    J = np.diag(prod) - curvedyn._shift_samples(np.eye(M), s)
    assume(np.linalg.cond(J) <= 1e3)
    want = np.linalg.solve(J, -G)
    solves, rffts = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "solve", _counted(np.linalg.solve, solves))
        mp.setattr(np.fft, "rfft", _counted(np.fft.rfft, rffts))
        got = curvedyn._newton_step(prod, G, s, 1e-15)
    assert solves == [] and len(rffts) >= 2
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=30, deadline=None)
@given(M=st.sampled_from([16, 17, 511, 512]), j=st.integers(0, 511),
       off=st.floats(-0.03, 0.03), amp=st.floats(0.0, 0.89),
       seed=st.integers(0, 2 ** 32 - 1), e=st.floats(-12.0, -3.0))
def test_newton_step_stops_its_series_at_tol(M, j, off, amp, seed, e):
    # the systems above with each row's series stopped at tol = 10^e of
    # the row's sum. Each term is at most rho = max |prod| times the one
    # before it in the 2-norm, so a row stopped at a term of max-norm at
    # most tol |Y|_inf drops a tail of 2-norm at most rho / (1 - rho)
    # sqrt(M) tol |Y|_inf. With A = I - T diag(prod), the Sherman-Morrison
    # finish of the truncated rows y, w solves the system whose right side
    # is off by A (e_y + beta e_w), e the rows' tails, so the step is off by
    # at most |J^-1|_2 (1 + rho) (|e_y|_2 + |beta| |e_w|_2). The bound reads
    # y, w and beta off the exact solve (first order in tol) and adds the
    # rounding allowance of the test above. A larger tol never adds a term
    tol = 10.0 ** e
    s = (j % M + 0.5 + off) / M
    rng = np.random.default_rng(seed)
    prod = amp * rng.uniform(-1.0, 1.0, M)
    G = rng.standard_normal(M)
    J = np.diag(prod) - curvedyn._shift_samples(np.eye(M), s)
    sv = np.linalg.svd(J, compute_uv=False)
    assume(sv[0] <= 1e3 * sv[-1])
    want = np.linalg.solve(J, -G)
    ph = curvedyn._shift_phases(M, -s)
    c = 1.0
    if M % 2 == 0:
        c = abs(ph[-1].real)
        ph[-1] = np.copysign(1.0, ph[-1].real)
    i = np.arange(M)
    T = np.fft.irfft(ph, M)[(i[:, None] - i) % M]
    nyq = np.where(i % 2, -1.0, 1.0) / np.sqrt(M)
    y, v = np.linalg.solve(np.eye(M) - T * prod,
                           np.stack((T @ G, nyq), axis=1)).T
    w = v - nyq
    beta = (1.0 - c) * (nyq @ y) / (c - (1.0 - c) * (nyq @ w))
    rho = np.max(np.abs(prod))
    tail = rho / (1.0 - rho) * np.sqrt(M) * tol
    bound = ((1.0 + rho) / sv[-1] * tail
             * (np.max(np.abs(y)) + abs(beta) * np.max(np.abs(w)))
             + 1e-12 * np.max(np.abs(want)))
    rffts = {}
    for t in (1e-15, tol, 10.0 * tol):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "solve", _no_dense_solve)
            mp.setattr(np.fft, "rfft", _counted(np.fft.rfft, calls))
            got = curvedyn._newton_step(prod, G, s, t)
        rffts[t] = len(calls)
        if t == tol:
            assert np.max(np.abs(got - want)) <= bound
    assert rffts[1e-15] >= rffts[tol] >= rffts[10.0 * tol]


def _series_terms(prod, ph, term, total, tol):
    """The terms one row's Neumann series adds until its term is at most
    tol of its sum in max-norm."""
    count = 0
    while abs(term).max() > tol * abs(total).max():
        term = np.fft.irfft(np.fft.rfft(prod * term) * ph, prod.size)
        total = total + term
        count += 1
    return count


@settings(max_examples=30, deadline=None)
@given(M=st.sampled_from([16, 17, 511, 512]), j=st.integers(0, 511),
       off=st.floats(-0.03, 0.03), amp=st.floats(0.0, 0.89),
       seed=st.integers(0, 2 ** 32 - 1), e=st.floats(-12.0, -3.0))
@example(M=512, j=0, off=0.0, amp=0.5, seed=1, e=-8.0)
def test_newton_step_runs_each_row_to_its_own_tol(M, j, off, amp, seed, e):
    # the T G row and the Nyquist row w stop at tol of their own sums, so
    # the step runs as many terms as the slower row needs, one rfft each,
    # after the rfft of T G. The w row is the slower one in most draws: 22
    # terms against 19 in the pinned example, so a stop test that reads
    # one row alone runs short
    s = (j % M + 0.5 + off) / M
    rng = np.random.default_rng(seed)
    prod = amp * rng.uniform(-1.0, 1.0, M)
    G = rng.standard_normal(M)
    ph = curvedyn._shift_phases(M, -s)
    if M % 2 == 0:
        ph[-1] = np.copysign(1.0, ph[-1].real)
    TG = np.fft.irfft(np.fft.rfft(G) * ph, M)
    nyq = np.where(np.arange(M) % 2, -1.0, 1.0) / np.sqrt(M)
    tol = 10.0 ** e
    rows = (_series_terms(prod, ph, TG, TG, tol),
            _series_terms(prod, ph, nyq, np.zeros(M), tol))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "solve", _no_dense_solve)
        mp.setattr(np.fft, "rfft", _counted(np.fft.rfft, calls))
        curvedyn._newton_step(prod, G, s, tol)
    assert len(calls) == 1 + max(rows), rows


@settings(max_examples=30, deadline=None)
@given(M=st.sampled_from([16, 17, 511, 512]), j=st.integers(0, 511),
       off=st.floats(-0.03, 0.03), amp=st.floats(0.0, 3.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_newton_fallback_solves_the_dense_system(M, j, off, amp, seed):
    # the same systems with max |prod| from NEUMANN_RHO up to 3, where the
    # series converges slowly or diverges: one entry is set to
    # +-max(amp, NEUMANN_RHO). The step runs no series term, its only rfft
    # is that of T G, and it is the one LU of the series' own system with
    # the Sherman-Morrison finish
    s = (j % M + 0.5 + off) / M
    rng = np.random.default_rng(seed)
    prod = amp * rng.uniform(-1.0, 1.0, M)
    prod[rng.integers(M)] = rng.choice([-1.0, 1.0]) * max(
        amp, curvedyn.NEUMANN_RHO)
    G = rng.standard_normal(M)
    J = np.diag(prod) - curvedyn._shift_samples(np.eye(M), s)
    assume(np.linalg.cond(J) <= 1e3)
    want = np.linalg.solve(J, -G)
    solves, rffts = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "solve", _counted(np.linalg.solve, solves))
        mp.setattr(np.fft, "rfft", _counted(np.fft.rfft, rffts))
        got = curvedyn._newton_step(prod, G, s, 1e-15)
    assert solves == [(M, M)] and len(rffts) == 1
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("p", [np.nextafter(curvedyn.NEUMANN_RHO, 0.0),
                               curvedyn.NEUMANN_RHO], ids=["below", "at"])
def test_newton_step_forms_a_matrix_only_from_the_threshold(p):
    # a constant product just below NEUMANN_RHO at half a grid step is the
    # series' slowest case (about 330 terms); its peak allocation stays
    # below one 512 x 512 float64 matrix. At NEUMANN_RHO the step runs no
    # series term and exactly one (M, M) solve
    M = 512
    s = 0.5 / M
    prod = np.full(M, p)
    G = np.cos(TWO_PI * 3 * np.arange(M) / M) + 0.1
    J = np.diag(prod) - curvedyn._shift_samples(np.eye(M), s)
    want = np.linalg.solve(J, -G)
    solves, rffts = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "solve", _counted(np.linalg.solve, solves))
        mp.setattr(np.fft, "rfft", _counted(np.fft.rfft, rffts))
        curvedyn._newton_step(prod, G, s, 1e-15)  # warm the FFT plans
        solves.clear()
        rffts.clear()
        tracemalloc.start()
        try:
            got = curvedyn._newton_step(prod, G, s, 1e-15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    if p < curvedyn.NEUMANN_RHO:
        assert solves == [] and len(rffts) > 300
        assert peak < M * M * 8
    else:
        assert solves == [(M, M)] and len(rffts) == 1
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_benchmark_like_curve_solve_forms_no_matrix(flm, golden,
                                                    monkeypatch):
    # the period-8 curve of the curves benchmark: no Newton step reaches
    # the dense solve, and the solve's peak allocation stays below one
    # 512 x 512 float64 matrix (0.50 MiB against 2 MiB; 8.3 MiB dense)
    s = superstable_params(flm, 4)
    f = flm.evaluator(float(s[3]) + 0.1 * (s[4] - s[3]), 2e-4)
    monkeypatch.setattr(np.linalg, "solve", _no_dense_solve)
    solve_invariant_curve(f, golden, 3)      # warm the phase tables
    tracemalloc.start()
    try:
        curve = solve_invariant_curve(f, golden, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.residual <= curvedyn.TOL_CURVE
    assert peak < 512 * 512 * 8


@pytest.mark.parametrize("n, eps", [(2, 5e-4), (3, 2e-4)])
def test_dense_fallback_agrees_with_the_matrix_free_step(flm, golden,
                                                         monkeypatch, n,
                                                         eps):
    # README's drift tolerances for the curve solver: 1e-12 on the
    # samples, 1e-10 on the Lyapunov exponent, 1e-11 on the extremum
    s = superstable_params(flm, n + 1)
    f = flm.evaluator(float(s[n]) + 0.1 * (s[n + 1] - s[n]), eps)
    free = solve_invariant_curve(f, golden, n)
    monkeypatch.setattr(curvedyn, "NEUMANN_RHO", 0.0)
    dense = solve_invariant_curve(f, golden, n)
    assert dense.residual <= curvedyn.TOL_CURVE
    assert np.max(np.abs(free.samples - dense.samples)) <= 1e-12
    assert abs(free.lyapunov - dense.lyapunov) <= 1e-10
    assert abs(extremum_m(free.product).value
               - extremum_m(dense.product).value) <= 1e-11


def test_forced_newton_keeps_the_curves_of_a_benchmark_run():
    # the 14 curves (periods 4 and 8) that a 20 s run of the curves
    # benchmark solves at seed 11, with the forcing and with every series
    # pinned to 1e-15: README's drift tolerances hold, and each solve takes
    # as many Newton steps
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench"
        / "workloads.py")
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    ops = wl.make_ops("curves", 11, wl.op_count("curves", 20))
    solved = 0
    for op in ops:
        omega = wl._rotation(op)
        for c in op["curves"]:
            f = flm_family().evaluator(c["alpha"], c["eps"])
            n = c["period_log2"]
            forced, steps = _newton_rffts(f, omega, n)
            pinned, pinned_steps = _newton_rffts(f, omega, n, pin=1e-15)
            assert forced.residual <= curvedyn.TOL_CURVE
            assert len(steps) == len(pinned_steps)
            assert np.max(np.abs(forced.samples - pinned.samples)) <= 1e-12
            assert abs(forced.lyapunov - pinned.lyapunov) <= 1e-10
            assert abs(extremum_m(forced.product).value
                       - extremum_m(pinned.product).value) <= 1e-11
            solved += 1
    assert solved == 14


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


def test_stepped_phase_table_matches_the_direct_one(domain, golden):
    # the two differ by the rounding of theta + j w: ulp(64) in the
    # argument moves mode K by 2 pi K ulp(64)
    K, w = domain.n_fourier, float(golden)
    thetas = np.arange(512) / 512
    tol = TWO_PI * K * np.spacing(64.0)
    tables = curvedyn._step_phases(512, w, 64, K)
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


def _dg1_by_eval(psi, omega, v):
    """Reference: DG1's formula sampled by three cylinder evaluations of v
    on the M_GRID-point theta grid, at x = 0 (v and d_x v) and at x = 1."""
    c1, c2 = curvedyn._sigma1_constants(psi)
    w = float(omega)
    thetas = np.arange(curvedyn.M_GRID) / curvedyn.M_GRID
    zeros = np.zeros(curvedyn.M_GRID)
    dx = c1 * v.eval(thetas - 2 * w, zeros) + v.eval(thetas - w, zeros + 1.0)
    return c1 * (v.dx().eval(thetas, zeros) + c2 * dx)


def _assert_dg1_matches_eval(psi, omega, v):
    out = DG1(psi, omega, v)
    want = _dg1_by_eval(psi, omega, v)
    assert out.shape == want.shape
    assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("name", list(DG1_DIRECTIONS))
def test_dg1_matches_cylinder_evaluation(domain, golden, stars, name):
    v = QPFn.from_callable(domain, DG1_DIRECTIONS[name])
    _assert_dg1_matches_eval(stars[0], golden, v)


_FORCING = st.lists(
    st.tuples(st.lists(st.floats(-2.0, 2.0, allow_subnormal=False),
                       min_size=1, max_size=3),
              st.sampled_from(["cos", "sin"]), st.integers(1, 5)),
    min_size=1, max_size=3, unique_by=lambda t: t[1:])


@settings(max_examples=12, deadline=None)
@given(terms=_FORCING, n=st.integers(1, 6),
       mode=st.sampled_from(["exact-orbit", "fixed-point"]))
def test_dg1_at_chain_ends_matches_cylinder_evaluation(golden, terms, n,
                                                       mode):
    # the direction and the map at the end of a slope chain, for a coupling
    # of the forcing grammar
    expr = " + ".join(f"[{','.join(map(repr, poly))}]*{trig}({k}w)"
                      for poly, trig, k in terms)
    g, _ = parse_forcing(expr)
    ch = slope_chain(flm_family(g=g), golden, n, mode=mode)
    _assert_dg1_matches_eval(ch.psi_end, ch.omega_end, ch.vs[-1])


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


@pytest.mark.parametrize("c", [0.0, 0.1234, 0.3141, 0.5, 0.77])
def test_extremum_takes_the_global_minimum_among_near_tied_basins(c):
    # three minima of -cos(6 pi t) split by 1e-11 cos(2 pi t - 0.4): the
    # grid misses each by up to 1.7e-4, far more than they differ, so
    # every basin is refined; the least is at t = 2/3 (shifted by c)
    thetas = np.arange(512) / 512.0
    t = thetas - c
    vals = -np.cos(3 * TWO_PI * t) + 1e-11 * np.cos(TWO_PI * t - 0.4)
    m = extremum_m(vals)
    assert m.value == pytest.approx(-1.0 + 1e-11 * math.cos(TWO_PI * 2 / 3
                                                            - 0.4),
                                    rel=0.0, abs=1e-15)
    assert abs((m.theta - c - 2 / 3 + 0.5) % 1.0 - 0.5) <= 1e-6
    M = extremum_M(-vals)
    assert (M.value, M.theta) == (-m.value, m.theta)


def test_extrema_refinement_matches_dense_grid():
    thetas = np.arange(512) / 512.0
    f = lambda t: np.cos(TWO_PI * t) + 0.3 * np.cos(2 * TWO_PI * t + 0.7)
    m = extremum_m(f(thetas))
    dense = np.arange(2 ** 16) / 2.0 ** 16
    assert m.value <= np.min(f(dense)) + 1e-9
    assert m.value >= np.min(f(dense)) - 1e-9


# ---------------------------------------- the slope read-out on the spectrum

def _assert_read_out_matches_samples(ch):
    """Oracle: the slopes of extremum_m and extremum_M on DG1's samples,
    which refine on the rfft of the samples, agree with the read-out on
    DG1's half spectrum within 1e-14 max |DG1| / |den|."""
    den = DG1_hat(ch.psi_end, ch.u_end)
    vals = DG1(ch.psi_end, ch.omega_end, ch.vs[-1])
    want = (-extremum_m(vals).value / den, -extremum_M(vals).value / den)
    got = curvedyn._chain_slopes([ch])[0]
    tol = 1e-14 * float(np.max(np.abs(vals))) / abs(den)
    assert np.max(np.abs(np.subtract(got, want))) <= tol
    return got


def _with_end_direction(ch, v):
    return dataclasses.replace(ch, vs=ch.vs[:-1] + [v])


@settings(max_examples=12, deadline=None)
@given(terms=_FORCING, n=st.integers(1, 6),
       mode=st.sampled_from(["exact-orbit", "fixed-point"]),
       w=st.floats(0.0, 1.0, exclude_max=True))
def test_slope_read_out_matches_the_sampled_extrema(golden, terms, n, mode,
                                                    w):
    # a chain end of a coupling of the forcing grammar, read at its own
    # rotation number and at a random one
    expr = " + ".join(f"[{','.join(map(repr, poly))}]*{trig}({k}w)"
                      for poly, trig, k in terms)
    g, _ = parse_forcing(expr)
    ch = slope_chain(flm_family(g=g), golden, n, mode=mode)
    _assert_read_out_matches_samples(ch)
    moved = ch.omegas[:-1] + [RotationNumber.from_float(w)]
    _assert_read_out_matches_samples(dataclasses.replace(ch, omegas=moved))


def test_slope_read_out_of_a_flat_dg1(flm, golden):
    # a theta-independent direction has a flat DG1 v: both read-outs
    # return the grid value, so the two slopes agree
    ch = slope_chain(flm, golden, 3, mode="fixed-point")
    v = QPFn.from_callable(ch.vs[-1].domain,
                           DG1_DIRECTIONS["theta-independent"])
    alpha, beta = _assert_read_out_matches_samples(_with_end_direction(ch, v))
    assert alpha == pytest.approx(beta, rel=1e-12)


@pytest.mark.parametrize("c", [0.0, 0.3141, 0.77])
def test_slope_read_out_takes_the_global_extremum_of_near_tied_basins(
        flm, golden, c):
    # DG1 v = -cos(6 pi t) + 1e-11 cos(2 pi t - 0.4), t = theta - c, up to
    # rounding: v vanishes at x = 0 and 1 and its x-derivative at 0 is
    # that sum over psi'(1). The least minimum is at t = 2/3, the greatest
    # maximum at t = 1/6, each 1e-11-close to two other basins and at
    # least 6.7e-12 from both
    ch = slope_chain(flm, golden, 3, mode="fixed-point")
    c1, _ = curvedyn._sigma1_constants(ch.psi_end)

    def v(th, x):
        t = np.asarray(th) - c
        return (x * (1.0 - x * x) / c1
                * (-np.cos(3 * TWO_PI * t) + 1e-11 * np.cos(TWO_PI * t - 0.4)))

    end = _with_end_direction(ch, QPFn.from_callable(ch.vs[-1].domain, v))
    alpha, beta = _assert_read_out_matches_samples(end)
    den = DG1_hat(ch.psi_end, ch.u_end)
    low = -1.0 + 1e-11 * math.cos(TWO_PI * 2 / 3 - 0.4)
    high = 1.0 + 1e-11 * math.cos(TWO_PI / 6 - 0.4)
    assert abs(-alpha * den - low) <= 1e-13
    assert abs(-beta * den - high) <= 1e-13


def test_slope_read_out_scales_with_the_coupling(flm, golden):
    # a coupling scaled by 1e-90 gets the slopes scaled by 1e-90: the flat
    # floor and the basin bound are relative to the values
    for mode in ("exact-orbit", "fixed-point"):
        ch = slope_chain(flm, golden, 4, mode=mode)
        unit = curvedyn._chain_slopes([ch])[0]
        tiny = curvedyn._chain_slopes(
            [_with_end_direction(ch, ch.vs[-1] * 1e-90)])[0]
        assert tiny == pytest.approx((1e-90 * unit[0], 1e-90 * unit[1]),
                                     rel=1e-14, abs=0.0)


# ------------------------------------------------------------ slope chains

def test_slope_identity_for_quadratic_family(flm, golden):
    a_slope, b_slope = slope_formula(flm, golden, 1)
    assert b_slope == pytest.approx(-a_slope, rel=1e-9)


def test_slope_formula_cross_validated_by_bisection(flm, golden):
    a_slope, _ = slope_formula(flm, golden, 1)
    direct = direct_slope(flm, golden, 1, branch="min")
    assert a_slope == pytest.approx(direct, rel=0.02)


def _logistic_slope_oracle(c0, c1, alpha, n):
    """ds_n/deps of x -> alpha x (1 - x) + eps (c0 + c1 x) at eps = 0.

    A coupling without theta keeps the map one-dimensional, so both
    reducibility-loss curves are its superstable curve s_n(eps), the zero
    of F = f^(2^n)(x_c) - x_c: the slope is -F_eps / F_alpha at alpha =
    s_n. One scalar orbit loop carries both derivatives. The critical
    point moves with eps, dx_c/deps = a'(1/2) / (2 alpha) = c1 / (2 alpha),
    and enters F only through -x_c, because f_x(x_c) = 0."""
    x, F_alpha, F_eps = 0.5, 0.0, 0.0
    for _ in range(2 ** n):
        f_x = alpha * (1.0 - 2.0 * x)
        F_alpha, F_eps = (f_x * F_alpha + x * (1.0 - x),
                          f_x * F_eps + c0 + c1 * x)
        x = alpha * x * (1.0 - x)
    return -(F_eps - c1 / (2.0 * alpha)) / F_alpha


# relative error of the exact-orbit slope against the oracle, measured at
# n = 1..7: 2.6e-14, 7.0e-14, 1.9e-13, 7.0e-13, 9.2e-12, 8.7e-11, 4.3e-10
# for a = 1 and 3.5e-14, 1.0e-13, 1.7e-13, 7.6e-13, 9.6e-12, 9.0e-11,
# 4.5e-10 for a = 1 + 0.3 x; each bound is 10 times the larger, rounded up
ORACLE_BOUNDS = {1: 4e-13, 2: 1e-12, 3: 2e-12, 4: 8e-12, 5: 1e-10, 6: 1e-9,
                 7: 5e-9}


@pytest.mark.parametrize("c0, c1", [(1.0, 0.0), (1.0, 0.3)],
                         ids=["a=1", "a=1+0.3x"])
def test_exact_orbit_slopes_match_the_one_dimensional_oracle(golden, c0, c1):
    fam = flm_family(g=lambda th, x: c0 + c1 * np.asarray(x)
                     + 0.0 * np.asarray(th))
    s = superstable_params(fam, max(ORACLE_BOUNDS))
    for n, bound in ORACLE_BOUNDS.items():
        want = _logistic_slope_oracle(c0, c1, float(s[n]), n)
        a_slope, b_slope = slope_formula(fam, golden, n)
        assert abs(a_slope - want) <= bound * abs(want), n
        assert abs(a_slope - b_slope) <= 1e-12 * abs(a_slope), n


@pytest.mark.parametrize("c0, c1", [(1.0, 0.0), (1.0, 0.3)],
                         ids=["a=1", "a=1+0.3x"])
def test_fixed_point_quotients_approach_the_one_dimensional_oracle(golden,
                                                                    c0, c1):
    # fixed-point mode approximates the quotients q_n, not the slopes. Its
    # gap to the oracle's q_n, measured for a = 1 at n = 2..12: 2.3e-1,
    # 3.7e-2, 1.6e-3, 6.5e-3, 5.1e-4, 1.8e-3, 1.6e-4, 5.0e-4, 4.6e-5,
    # 1.4e-4, 1.3e-5 (a = 1 + 0.3 x within 10%). It falls in pairs of
    # levels, by at least 2.6 over each two levels
    fam = flm_family(g=lambda th, x: c0 + c1 * np.asarray(x)
                     + 0.0 * np.asarray(th))
    s = superstable_params(fam, 12)
    want = [_logistic_slope_oracle(c0, c1, float(s[n]), n)
            for n in range(1, 13)]
    got = slope_table(fam, golden, 12, mode="fixed-point")
    gap = {n: abs(got[n][0] / got[n - 1][0] - want[n - 1] / want[n - 2])
           for n in range(2, 13)}
    for n in range(2, 11):
        assert gap[n + 2] <= gap[n] / 2.0, n


def test_loss_branches_open_in_opposite_directions(flm, golden):
    dmin = direct_slope(flm, golden, 1, branch="min")
    dmax = direct_slope(flm, golden, 1, branch="max")
    assert dmin < 0.0 < dmax


def test_loss_location_collapses_to_superstable_at_zero_coupling(
        flm, golden):
    s = superstable_params(flm, 2)
    loss = locate_reducibility_loss(flm, golden, 2, 0.0)
    assert loss == pytest.approx(s[2], abs=1e-9)


def test_direct_slope_rejects_zero_coupling(flm, golden):
    # the slope is a difference quotient in eps: at eps = 0 it names eps
    # instead of dividing by zero
    with pytest.raises(ValueError, match="eps"):
        direct_slope(flm, golden, 1, eps=0.0)


@pytest.mark.parametrize("mode", ["exact-orbit", "fixed-point"])
def test_slope_chain_rejects_a_level_below_one(flm, golden, mode):
    with pytest.raises(ValueError, match="n must be >= 1"):
        slope_chain(flm, golden, 0, mode=mode)


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
    # each level once per family, so no memo is read. flm_family shares
    # its record per domain; private copies start empty. A polish starts
    # at s_n, so the superstable lookups of the start count them
    def fresh():
        return dataclasses.replace(flm_family())

    expect = (slope_table(fresh(), golden, 5, mode="exact-orbit"),
              slope_table(fresh(), golden.double(), 4, mode="exact-orbit"),
              renorm_identity_gap(fresh(), golden, 2))

    calls = collections.Counter()
    lookup = curvedyn.superstable_params

    def counted(family, n):
        calls[family.name, n] += 1
        return lookup(family, n)

    monkeypatch.setattr(curvedyn, "superstable_params", counted)
    fam = fresh()
    _, tab1, tab2 = mixed_quotient_sequence(fam, golden, 5,
                                            mode="exact-orbit")
    gap = renorm_identity_gap(fam, golden, 2)
    # the 2 omega table and the identity gap's left side reuse flm's
    # levels; the renormalized family polishes its one level itself
    assert calls == {**{("flm", n): 1 for n in range(1, 6)},
                     ("flm_T", 1): 1}
    # bit for bit what families without a memo give
    assert (tab1, tab2, gap) == expect
    assert sorted(fam._cache["sigma1"]) == [1, 2, 3, 4, 5]
    copy = dataclasses.replace(fam, name="flm-copy")
    assert "sigma1" not in copy._cache


def test_sigma1_polish_builds_each_slice_map_once(golden, monkeypatch):
    # every slice map of the renormalized family costs one apply_T. Its
    # own polish from s_n stops after one walk at these levels and hands
    # that walk to the chain, so each level builds one slice
    calls = collections.Counter()
    apply_T = asymptotics.apply_T

    def counted(*args, **kw):
        calls["apply_T"] += 1
        return apply_T(*args, **kw)

    monkeypatch.setattr(asymptotics, "apply_T", counted)
    fam = flm_family()
    for i in (2, 3):
        renorm_identity_gap(fam, golden, i)
    assert calls["apply_T"] == 2
    # the memo keeps parameters, not maps
    assert all(type(a) is float for a in fam._cache["sigma1"].values())


# ---------------------------------------------- the Sigma_1 Newton polish

DELTA = 4.669201609102990


def _counting_walks(fam, monkeypatch):
    """The parameters at which fam's exact-orbit start walks: each walk
    builds its slice map once."""
    walks = []
    psi0 = fam.psi0

    def counted(alpha):
        walks.append(alpha)
        return psi0(alpha)

    monkeypatch.setattr(fam, "psi0", counted)
    return walks


def _walk_at(fam, alpha, n):
    """(g, g') at alpha: a kept level walks once, at its parameter."""
    fam._cache["sigma1"] = {n: alpha}
    _, maps, u = curvedyn._exact_orbit_start(fam, n)
    return maps[-1].a, u(1.0)


def _perturbed_start(fam, n, shift):
    """fam with its level-n superstable parameter moved by shift, so the
    exact-orbit start's Newton begins there."""
    s = [float(x) for x in superstable_params(fam, n)]
    s[n] += shift
    fam._cache["superstable"] = s
    return fam


@pytest.mark.parametrize("dom", [DomainConfig(),
                                 DomainConfig(n_cheb=56, n_fourier=24)],
                         ids=["40x16", "56x24"])
def test_sigma1_newton_derivative_matches_a_central_difference(dom):
    # g' = u_(n-1)(1) is about 1.14 delta^(n-1); g varies on the scale
    # delta^-(n-1) in alpha and is rounded at eps delta^(n-1), so the step
    # balances the two at about 1e-8 relative
    fam = dataclasses.replace(flm_family(domain=dom))
    s = superstable_params(fam, 6)
    for n in range(1, 7):
        alpha = float(s[n])
        _, dg = _walk_at(fam, alpha, n)
        h = 1e-5 * DELTA ** (-2 * (n - 1) / 3)
        fd = (_walk_at(fam, alpha + h, n)[0]
              - _walk_at(fam, alpha - h, n)[0]) / (2 * h)
        assert abs(fd - dg) <= 1e-6 * abs(dg), (n, fd, dg)


def test_sigma1_newton_converges_from_s_n_at_every_level(monkeypatch):
    # 1-5 walks per level on the default domain; the secant took 3-9
    fam = dataclasses.replace(flm_family())
    walks = _counting_walks(fam, monkeypatch)
    s = superstable_params(fam, renorm1d.MAX_LEVEL)
    per_level = {}
    for n in range(1, renorm1d.MAX_LEVEL + 1):
        walks.clear()
        alpha, maps, u = curvedyn._exact_orbit_start(fam, n)
        per_level[n] = len(walks)
        assert walks[0] == s[n] and len(maps) == n
        # the accepted walk is what a walk at the kept parameter gives
        walks.clear()
        again, maps2, u2 = curvedyn._exact_orbit_start(fam, n)
        assert walks == [alpha] == [again]
        assert u2.coeffs.tobytes() == u.coeffs.tobytes()
        for m, m2 in zip(maps, maps2):
            assert m2.psi.coeffs.tobytes() == m.psi.coeffs.tobytes()
    assert max(per_level.values()) <= 6, per_level


@pytest.mark.parametrize("value", [0.0, math.nan], ids=["zero", "nan"])
def test_sigma1_newton_rejects_a_zero_or_nan_derivative(value):
    dom = DomainConfig()
    fam = _perturbed_start(dataclasses.replace(
        flm_family(), du_dalpha=lambda a: AnalyticFn(
            np.full(dom.n_cheb, value), dom)), 2, 1e-6)
    with pytest.raises(NoConvergenceError, match="n = 2: g' = "):
        curvedyn._exact_orbit_start(fam, 2)
    assert fam._cache["sigma1"] == {}


def test_sigma1_newton_stops_at_the_walk_cap(monkeypatch):
    # a derivative ten times too large makes each step a tenth of Newton's:
    # |g| falls by 0.9 a walk and is still 2e-4 after the 24-walk cap
    flm = flm_family()
    fam = _perturbed_start(dataclasses.replace(
        flm, du_dalpha=lambda a: AnalyticFn(
            10.0 * flm.du_dalpha(a).coeffs, DomainConfig())), 3, 1e-4)
    walks = _counting_walks(fam, monkeypatch)
    with pytest.raises(NoConvergenceError, match="stalled"):
        curvedyn._exact_orbit_start(fam, 3)
    assert len(walks) == 24


# ------------------------------------------------ one base walk per level

# a noble number: a prefix of partial quotients 2, 1, 3, then ones
NOBLE = RotationNumber.from_continued_fraction([2, 1, 3] + [1] * 60,
                                               dio_gamma=0.18, q_max=10000)


@pytest.mark.parametrize("mode", ["exact-orbit", "fixed-point"])
def test_shared_walk_reads_the_slopes_of_separate_chains(golden, mode):
    # each level of mixed_quotient_sequence walks its bases once for omega
    # and 2 omega; one slope_formula call per rotation number and level is
    # the reference, bit for bit
    fam = flm_family()
    for omega in (golden, NOBLE):
        _, tab1, tab2 = mixed_quotient_sequence(fam, omega, 8, mode=mode)
        assert tab1 == {n: slope_formula(fam, omega, n, mode=mode)
                        for n in range(1, 9)}
        assert tab2 == {n: slope_formula(fam, omega.double(), n, mode=mode)
                        for n in range(1, 8)}


def test_observation2_identity_gaps_are_the_public_gaps(flm, golden):
    # observation 2 takes the left-hand sides from its own table
    rep = observation2(flm, golden, n_max=5)
    assert rep.identity_gaps == {i: renorm_identity_gap(flm, golden, i)
                                 for i in asymptotics.IDENTITY_LEVELS}


def test_mixed_quotient_walks_each_level_once(golden, monkeypatch):
    # levels 1..5 walk their bases once for omega and 2 omega and level 6
    # for omega alone: 0 + 1 + ... + 5 = 15 renormalizations, where one
    # walk per rotation number takes 25. The v-chain step runs once per
    # base and rotation number either way
    fam = flm_family()
    slope_table(fam, golden, 6, mode="exact-orbit")   # polish every level
    calls = collections.Counter()

    def counting(name):
        fn = getattr(curvedyn, name)

        def counted(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return counted

    for name in ("renormalize_1d", "_dt_step"):
        monkeypatch.setattr(curvedyn, name, counting(name))
    mixed_quotient_sequence(fam, golden, 6, mode="exact-orbit")
    assert calls == {"renormalize_1d": 15, "_dt_step": 25}


def test_one_chain_walk_is_alive_at_a_time(flm, golden, monkeypatch):
    # each level's exact-orbit walk ends with _record_chains: at a yield of
    # _slope_pass the level's bases are gone, its end lives on only as the
    # chains' psi_end, and nothing of an earlier level is left. Fixed-point
    # bases are the process-wide Phi and f*_j, so only the exact orbit can
    # show a walk kept too long
    walks = []
    chain_bases = curvedyn._chain_bases

    def recorded(family, n, mode):
        alpha, bases, end, u = chain_bases(family, n, mode)
        walks.append(([weakref.ref(b) for b in bases], weakref.ref(end)))
        return alpha, bases, end, u

    monkeypatch.setattr(curvedyn, "_chain_bases", recorded)
    levels = [(n, (golden, golden.double())) for n in range(2, 7)]
    for n, chains in curvedyn._slope_pass([flm], levels, "exact-orbit"):
        assert len(walks) == n - 1
        *earlier, (bases, end) = walks
        assert len(bases) == n - 1
        assert all(b() is None for b in bases), n
        assert {id(ch.psi_end) for ch in chains} == {id(end())}
        assert all(r() is None for refs, e in earlier for r in (*refs, e)), n


def test_renormalized_family_builds_the_parent_slice_once(flm, golden,
                                                          monkeypatch):
    # du_dalpha and dv_deps at one alpha share the parent's slice map
    calls = collections.Counter()
    psi0 = flm.psi0

    def counted(alpha):
        calls[alpha] += 1
        return psi0(alpha)

    monkeypatch.setattr(flm, "psi0", counted)
    fam_T = asymptotics.renormalized_family(flm, golden, 3)
    alpha = fam_T._cache["superstable"][1]
    fam_T.du_dalpha(alpha)
    fam_T.dv_deps(alpha)
    assert calls == {alpha: 1}


# ------------------------------------------------------ the chain's DT step

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 2 ** 32 - 1),
       st.floats(0.0, 1.0, exclude_max=True))
def test_dt_step_is_apply_dt_to_rounding(fp, stars, flm, which, seed, w):
    # the chain's two-product step sums in another order than apply_DT's
    # per-mode matvecs; the bases are Phi, f*_2..f*_4 and psi0(s_3)
    s_3 = float(superstable_params(flm, 3)[3])
    base = (fp.phi, *stars[1:4], flm.psi0(s_3))[which]
    rng = np.random.default_rng(seed)
    v = QPFn.zero(base.domain)
    v.modes[:] = ((rng.standard_normal(v.modes.shape)
                   + 1j * rng.standard_normal(v.modes.shape))
                  * 10.0 ** rng.uniform(-3, 3))
    omega = RotationNumber.from_float(w)
    want = apply_DT(base, omega, v).modes
    got = curvedyn._dt_step(base, omega, v).modes
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_dt_step_rejects_a_degenerate_base(domain, golden):
    base = renorm1d.UnimodalMap.from_callable(domain, lambda x: 1.0 - x * x)
    assert abs(base.a) < renorm1d.TOL_A
    with pytest.raises(DegenerateScalingError, match="degenerate scaling"):
        curvedyn._dt_step(base, golden, QPFn.zero(domain))


# --------------------------------------------------- the shared slice record

# a domain no other test builds a family on, so the record starts empty
SLICE_DOMAIN = DomainConfig(n_cheb=44, n_fourier=10)
SIN_MIX, _ = parse_forcing("[0.5,0,0.5]*sin(1w)")


def test_flm_families_on_a_domain_share_one_slice_record(golden,
                                                         monkeypatch):
    first = flm_family(domain=SLICE_DOMAIN)
    s = superstable_params(first, 12)
    alpha_star = stable_manifold_param(first)
    u_ends = [slope_chain(first, golden, n).u_end.coeffs for n in (1, 2, 3)]
    assert sorted(first._cache["sigma1"]) == [1, 2, 3]

    def fail(*args, **kw):
        raise AssertionError("the slice record was recomputed")

    for module, name in ((renorm1d, "_scan_level"),
                         (renorm1d, "_newton_level"),
                         (renorm1d, "_classify_side"),
                         (curvedyn, "superstable_params")):
        monkeypatch.setattr(module, name, fail)
    for other in (flm_family(g=SIN_MIX, domain=SLICE_DOMAIN, name="sin"),
                  flm_eta_family(0.5, SLICE_DOMAIN)):
        assert superstable_params(other, 12).tobytes() == s.tobytes()
        assert stable_manifold_param(other) == alpha_star
        # u_end depends on the polished parameter and the slice alone
        for n, want in zip((1, 2, 3), u_ends):
            got = slope_chain(other, golden, n).u_end.coeffs
            assert got.tobytes() == want.tobytes()
    assert dataclasses.replace(first)._cache == {}


def test_slice_does_not_read_the_forcing():
    # the slice is built without the forcing, so c(alpha, 0) is the same
    # map bit for bit whatever the forcing
    families = (flm_family(), flm_family(g=SIN_MIX),
                flm_eta_family(0.5))
    for alpha in (2.5, 3.1, 3.3, 3.5, 3.5699):
        coeffs = {f.psi0(alpha).psi.coeffs.tobytes() for f in families}
        assert len(coeffs) == 1


@pytest.mark.parametrize("dom", [DomainConfig(), SLICE_DOMAIN,
                                 DomainConfig(delta_dom=0.3)],
                         ids=["default", "44x10", "delta 0.3"])
def test_flm_slice_is_the_exact_expansion(dom):
    # 1 - mu y^2 with y = L t and t^2 = (T_0 + T_2) / 2
    L = dom.half_width
    fam = flm_family(domain=dom)
    for alpha in (2.5, 3.1, 3.3, 3.5, 3.5699):
        mu = alpha * (alpha - 2.0) / 4.0
        c = fam.slice0(alpha).coeffs
        assert c[0] == 1.0 - mu * L ** 2 / 2.0
        assert c[2] == -mu * L ** 2 / 2.0
        assert not np.any(np.delete(c, [0, 2]))
        # psi(0) = c_0 - c_2 = 1 to one rounding
        assert abs(fam.psi0(alpha).psi(0.0) - 1.0) <= np.spacing(1.0)


def _sampled_flm(alpha, eps, g=None, domain=DomainConfig()):
    """The flm cylinder map sampled whole, 1 - mu y^2 + eps g(theta, 1/2 +
    lam y) / lam on the spectral grid: every row of its half spectrum
    carries the rounding of 1 - mu y^2."""
    if g is None:
        def g(theta, x):
            return np.cos(2 * np.pi * np.asarray(theta)) * np.ones_like(x)
    mu, lam = alpha * (alpha - 2.0) / 4.0, (alpha - 2.0) / 4.0
    return QPFn.from_callable(
        domain, lambda th, y: 1.0 - mu * y * y + eps * g(th, 0.5 + lam * y)
        / lam)


def test_flm_slice_is_the_cylinder_projection_to_rounding():
    # the oracle samples c(alpha, 0) on the cylinder and keeps its mode 0;
    # its odd and high coefficients are rounding, up to 7.8 eps ||c||_1
    fam = flm_family()
    for alpha in np.linspace(2.5, 3.63, 12):
        want = project_p0(_sampled_flm(alpha, 0.0)).coeffs
        got = fam.slice0(alpha).coeffs
        tol = 16 * np.finfo(float).eps * np.sum(np.abs(got))
        assert np.max(np.abs(got - want)) <= tol


@pytest.mark.parametrize("g", [None, parse_forcing(
    "[0.5,-1,0.25]*cos(1w)+[0,0,0,2]*sin(3w)")[0]],
    ids=["default", "polynomial"])
def test_flm_evaluator_is_the_slice_plus_eps_times_the_coupling(g):
    # at eps = 0 the map is the embedded exact slice bit for bit; the
    # coupling adds eps * dv_deps, up to one rounding of the sum and one
    # of the difference in each real and imaginary part
    fam = flm_family(g=g)
    for alpha in (2.5, 3.1, 3.5, 3.5699):
        base = fam.evaluator(alpha, 0.0).modes
        assert base.tobytes() == QPFn.from_analytic(
            fam.slice0(alpha)).modes.tobytes()
        for eps in (1e-5, 2e-4, 1e-3, -3e-3):
            v = eps * fam.dv_deps(alpha).modes
            diff = fam.evaluator(alpha, eps).modes - base
            for part in (np.real, np.imag):
                tol = 2 * np.finfo(float).eps * (np.abs(part(base))
                                                 + np.abs(part(v)))
                assert np.all(np.abs(part(diff) - part(v)) <= tol)


@pytest.mark.parametrize("forcing, m", [
    (None, 3), ("[0.5,0,0.5]*sin(1w)", 3), ("[1,0,0,1]*cos(1w)", 4)],
    ids=["default", "quadratic", "cubic"])
def test_benchmark_like_solve_folds_the_rows_the_map_carries(
        flm, golden, monkeypatch, forcing, m):
    # a quadratic slice plus a coupling of degree d in x: the tables of
    # the period-8 solve keep max(3, d + 1) of the 40 rows
    fam = flm if forcing is None else flm_family(g=parse_forcing(forcing)[0])
    s = superstable_params(fam, 4)
    f = fam.evaluator(float(s[3]) + 0.1 * (s[4] - s[3]), 2e-4)
    built = []
    build = curvedyn._step_tables

    def recording(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(curvedyn, "_step_tables", recording)
    solve_invariant_curve(f, golden, 3)
    assert [t.shape for t in built] == [(8, m, curvedyn.M_GRID)]


def test_sampled_maps_keep_every_row(flm, golden):
    # rounding in every row, 1e-16 to 1e-15 in the sampled 1 - mu y^2, is
    # more than the degree rule may drop: the sampled map and the
    # renormalized family's apply_T map fold all 40 rows
    s = superstable_params(flm, 4)
    alpha = float(s[3]) + 0.1 * (s[4] - s[3])
    fam_T = asymptotics.renormalized_family(flm, golden, 3)
    for f in (_sampled_flm(alpha, 0.0), _sampled_flm(alpha, 2e-4),
              fam_T.evaluator(float(s[2]), 1e-4)):
        assert curvedyn._step_tables(f, golden, 2, 16).shape == (2, 40, 16)


@pytest.mark.parametrize("alpha", [2.5, 3.2, 3.5, 3.56, 3.5699, 3.62])
def test_default_guess_reads_iterate_400_off_the_cycle(monkeypatch, alpha):
    # the guess stops at the first repeat of its float orbit; iterate 400
    # is the one 400 scalar calls reach, on short cycles, long transients
    # and orbits that do not repeat within 400 steps
    f = flm_family().evaluator(alpha, 2e-4)
    psi, x = project_p0(f), 0.0
    for _ in range(400):
        x = float(psi(x))

    class FirstPass(Exception):
        pass

    def first_pass(dom, tables, X):
        raise FirstPass(X.copy())

    monkeypatch.setattr(curvedyn, "_orbit_grid", first_pass)
    with pytest.raises(FirstPass) as start:
        solve_invariant_curve(f, RotationNumber.golden(), 1, M=8)
    assert start.value.args[0].tobytes() == np.full(8, x).tobytes()


def test_default_guess_is_the_scalar_orbit_of_the_averaged_map(
        flm, golden, monkeypatch):
    # the guess steps the theta-averaged map as 400 scalar calls would
    s = superstable_params(flm, 4)
    f = flm.evaluator(float(s[3]) + 0.1 * (s[4] - s[3]), 2e-4)
    psi, x = project_p0(f), 0.0
    for _ in range(400):
        x = float(psi(x))
    starts = []
    grid = curvedyn._orbit_grid

    def recording(dom, tables, X):
        starts.append(X.copy())
        return grid(dom, tables, X)

    monkeypatch.setattr(curvedyn, "_orbit_grid", recording)
    solve_invariant_curve(f, golden, 3)
    assert starts[0].tobytes() == np.full(curvedyn.M_GRID, x).tobytes()
