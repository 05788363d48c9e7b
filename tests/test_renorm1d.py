"""Doubling renormalization on unimodal maps: fixed point, cascade, manifolds.

Closed-form oracles: s_0 = 2 and s_1 = 1 + sqrt(5) for the logistic family,
the a = 1 disc identity for the containment check. Frozen numeric oracles:
the universal constants delta = 4.669201609102990 and a* = -0.3995352805, the
logistic s_2 = 3.4985616993277 and accumulation point 3.5699456718709 (all
cross-checked against independent high-precision computations before being
pinned here).
"""

import dataclasses
import functools
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qprenorm_lab import (
    AnalyticFn,
    DomainError,
    MeshError,
    UnimodalMap,
    check_H0,
    dr_matrix,
    flm_family,
    in_domain_R,
    l1_matrix,
    l2_matrix,
    renormalize_1d,
    solve_fixed_point,
    stable_manifold_param,
    superstable_params,
    unstable_manifold_points,
)
from qprenorm_lab.errors import (InconsistencyError, NoConvergenceError,
                                 PrecisionExhaustedError, SearchError)
from qprenorm_lab import renorm1d
from qprenorm_lab.funcspace import W_RADIUS, cheb_nodes
from qprenorm_lab.renorm1d import (_brentq, _classify_side, _orbit_value,
                                   _orbit_with_deriv, _sign_changes)

DELTA = 4.669201609102990
A_STAR = -0.3995352805
MU_FEIG = 1.4011551890920506


def _dist(p, q, L=1.1):
    xs = np.linspace(-L, L, 241)
    return float(np.max(np.abs(np.real(p.psi(xs)) - np.real(q.psi(xs)))))


# ------------------------------------------------------ the operator itself

def test_phi_is_fixed(fp):
    rphi = renormalize_1d(fp.phi)
    assert _dist(rphi, fp.phi) <= 1e-10


def test_quadratic_feigenbaum_parameter_contracts_toward_phi(fp, domain):
    psi = UnimodalMap.from_callable(
        domain, lambda x: 1.0 - MU_FEIG * x ** 2)
    d0 = _dist(psi, fp.phi)
    r1 = renormalize_1d(psi)
    d1 = _dist(r1, fp.phi)
    r2 = renormalize_1d(r1)
    d2 = _dist(r2, fp.phi)
    assert d1 < d0
    assert d2 < d1


def _copy(m):
    """A freshly constructed map with the same coefficients."""
    return UnimodalMap(AnalyticFn(np.array(m.psi.coeffs), m.domain))


def _operator_data(m):
    return [l1_matrix(m), l2_matrix(m), dr_matrix(m),
            renormalize_1d(m).psi.coeffs]


def test_operator_data_matches_a_fresh_copy(fp, domain):
    quad = UnimodalMap.from_callable(domain, lambda x: 1.0 - MU_FEIG * x ** 2)
    for m in (fp.phi, quad):
        for _ in range(2):          # the second pass reads the kept data
            for got, want in zip(_operator_data(m),
                                 _operator_data(_copy(m))):
                assert got.tobytes() == want.tobytes()


def test_operator_data_is_read_only(fp):
    m = _copy(fp.phi)
    for arr in _operator_data(m) + list(m._one._vandermondes):
        with pytest.raises(ValueError):
            arr.flat[0] = 0.0


@pytest.fixture(scope="module")
def oracle_maps(fp, flm, stars):
    """Phi, the uncoupled slice at s_3 and f*_2, each a fresh copy."""
    s3 = superstable_params(flm, 3)[3]
    return {"Phi": _copy(fp.phi), "psi0(s_3)": _copy(flm.psi0(s3)),
            "f*_2": _copy(stars[1])}


@pytest.mark.parametrize("name", ["Phi", "psi0(s_3)", "f*_2"])
def test_renormalized_coefficients_match_the_chebval_oracle(oracle_maps,
                                                            name):
    m = oracle_maps[name]
    x = cheb_nodes(m.domain)
    # psi(psi(a x)) / a with both evaluations through chebval
    inner = np.real(m.psi(m.a * x))
    want = AnalyticFn.from_values(m.domain, np.real(m.psi(inner)) / m.a)
    got = renormalize_1d(m, check_domain=False).psi.coeffs
    assert np.max(np.abs(got - want.coeffs)) <= 1e-14


@pytest.mark.parametrize("name", ["Phi", "psi0(s_3)", "f*_2"])
def test_dr_matrix_matches_central_differences(oracle_maps, name):
    m = oracle_maps[name]
    dom = m.domain
    c = np.real(m.psi.coeffs)
    u = 0.5 ** np.arange(dom.n_cheb)
    h = 1e-6

    def R(coeffs):
        return renormalize_1d(UnimodalMap(AnalyticFn(coeffs, dom)),
                              check_domain=False).psi.coeffs

    fd = (R(c + h * u) - R(c - h * u)) / (2 * h)
    got = dr_matrix(m) @ u
    assert np.linalg.norm(got - fd) <= 1e-7 * np.linalg.norm(got)


def test_domain_check_runs_on_every_call(domain):
    psi = UnimodalMap.from_callable(domain, lambda x: 1.0 - 0.5 * x ** 2)
    renormalize_1d(psi, check_domain=False)
    for _ in range(2):
        with pytest.raises(DomainError):
            renormalize_1d(psi)


# ------------------------------------------------------------- domain check

def test_in_domain_phi(fp):
    chk = in_domain_R(fp.phi)
    assert chk.ok
    assert chk.a < 0.0
    assert not chk.failing


def test_in_domain_rejects_positive_a(domain):
    psi = UnimodalMap.from_callable(domain, lambda x: 1.0 - 0.1 * x ** 2)
    chk = in_domain_R(psi)
    assert not chk.ok
    assert chk.a == pytest.approx(0.9, abs=1e-12)
    assert "a_negative" in chk.failing


def test_in_domain_diagnostics_for_steep_quadratic(domain):
    psi = UnimodalMap.from_callable(domain, lambda x: 1.0 - 2.0 * x ** 2)
    chk = in_domain_R(psi)
    assert not chk.ok
    assert chk.a == pytest.approx(-1.0, abs=1e-12)
    assert chk.a_prime == pytest.approx(-1.1, abs=1e-12)
    assert chk.failing  # names the broken clause instead of raising


# --------------------------------------------------------------fixed point

def test_fixed_point_constants(fp):
    assert fp.a_star == pytest.approx(A_STAR, abs=1e-8)
    assert fp.delta_feig == pytest.approx(DELTA, abs=1e-12)
    assert fp.newton_residual <= 1e-10


def test_single_unstable_eigenvalue(fp):
    moduli = np.sort(np.asarray(fp.eig_moduli))[::-1]
    assert moduli[0] == pytest.approx(DELTA, abs=1e-5)
    assert moduli[1] < 1.0
    assert fp.spectral_gap > 0.0


def test_dr_matrix_carries_delta_and_conjugacy_modes(fp):
    # the unrestricted derivative also sees the scaling-conjugacy
    # directions with eigenvalues 1/a^2 and -1/a; the restricted report
    # (eig_moduli) removes them, leaving delta alone above modulus 1
    moduli = np.abs(np.linalg.eigvals(dr_matrix(fp.phi)))
    a = fp.a_star
    for target, tol in ((fp.delta_feig, 1e-8),
                        (1.0 / a ** 2, 1e-6),
                        (1.0 / abs(a), 1e-6)):
        assert np.min(np.abs(moduli - target)) <= tol


# --------------------------------------------------------------containment

def test_h0_contained(fp):
    rep = check_H0(fp)
    assert rep.contained
    assert rep.margin_a_disc > 0.0
    assert rep.margin_image_disc > 0.0
    assert rep.n_boundary == 512


def test_h0_identity_scaling_margin_zero(fp):
    forged = dataclasses.replace(fp, a_star=1.0)
    rep = check_H0(forged)
    assert abs(rep.margin_a_disc) <= 1e-12


def test_h0_margin_shrinks_with_radius(fp, monkeypatch):
    margins = [check_H0(fp).margin_a_disc]
    for radius in (1.4, 1.3):
        monkeypatch.setattr(renorm1d, "W_RADIUS", radius)
        margins.append(check_H0(fp).margin_a_disc)
    # radii W_RADIUS = 1.5 > 1.4 > 1.3: margin decreases as the disc shrinks
    assert W_RADIUS == 1.5
    assert margins[0] > margins[1] > margins[2] > 0.0


# ------------------------------------------------------------------ cascade

def test_superstable_closed_forms(flm):
    s = superstable_params(flm, 2)
    assert s[0] == pytest.approx(2.0, abs=1e-9)
    assert s[1] == pytest.approx(1.0 + math.sqrt(5.0), abs=1e-9)
    assert s[2] == pytest.approx(3.4985616993277, abs=1e-8)


def test_superstable_ratio_approaches_delta(flm):
    s = superstable_params(flm, 8)
    ratios = [(s[n] - s[n - 1]) / (s[n + 1] - s[n]) for n in range(1, 8)]
    # ratios list is indexed by n-1
    assert ratios[5] == pytest.approx(DELTA, abs=1e-2)
    gaps = [abs(r - DELTA) for r in ratios[3:]]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_superstable_increasing_below_accumulation(flm):
    s = superstable_params(flm, 8)
    assert all(b > a for a, b in zip(s, s[1:]))
    a_star = stable_manifold_param(flm)
    assert all(x < a_star for x in s)


@pytest.mark.parametrize("alpha", [3.2, 3.4, 3.52, 3.56, 3.5657])
def test_newton_orbit_derivative_matches_central_differences(flm, alpha):
    # P, the alpha-derivative of f^steps(x_c) that the superstable Newton
    # step divides by, against a central difference of the orbit value;
    # every alpha lies below s_4 = 3.56667, where the orbit stays bounded
    h = 1e-6
    for steps in range(1, 17):
        P = _orbit_with_deriv(flm, alpha, steps)[1]
        fd = (_orbit_value(flm, alpha + h, steps)
              - _orbit_value(flm, alpha - h, steps)) / (2.0 * h)
        assert abs(fd - P) <= 1e-7 * max(1.0, abs(P)), (steps, P, fd)


def test_sign_change_scan_skips_non_finite_cells_in_order():
    grid = np.arange(10.0)
    # zero ends and NaN or infinite ends are not brackets
    vals = [1.0, -1.0, np.nan, 1.0, -2.0, 0.0, 3.0, -np.inf, 2.0, -2.0]
    assert list(_sign_changes(grid, vals)) == [(0.0, 1.0), (3.0, 4.0),
                                                (8.0, 9.0)]


# ------------------------------------------------------------- Brent search

EPS = np.finfo(float).eps
# the (xtol, rtol) pairs the package searches with
BRENT_TOLS = [(1e-12, 4 * EPS), (1e-14, 4 * EPS), (1e-15, 8.9e-16)]


@st.composite
def _brackets(draw):
    """A smooth f with f(a), f(b) of opposite signs or an exact zero end."""
    finite = st.floats(-4.0, 4.0, allow_nan=False)
    a, b = draw(finite), draw(finite)
    assume(a != b)
    # a root at a or b is an exact zero on an end
    r = draw(st.sampled_from([a, b, a + draw(st.floats(0.0, 1.0)) * (b - a)]))
    c = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5))
    w = draw(st.floats(0.1, 20.0))
    if draw(st.booleans()):
        def f(x):
            q = 0.0
            for ck in c:
                q = q * x + ck
            return (x - r) * (1.0 + q * q)
    else:
        def f(x):
            return math.sin(w * (x - r)) + c[0] * (x - r) ** 3
    fa, fb = f(a), f(b)
    assume(fa == 0.0 or fb == 0.0 or (fa < 0) != (fb < 0))
    return f, a, b


@settings(max_examples=400, deadline=None)
@given(_brackets(), st.sampled_from(BRENT_TOLS))
def test_brent_port_matches_scipy_bit_for_bit(bracket, tols):
    from scipy import optimize  # the oracle; scipy is a test dependency
    f, a, b = bracket
    xtol, rtol = tols
    got = _brentq(f, a, b, xtol=xtol, rtol=rtol)
    want = optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)
    assert type(got) is type(want)
    assert struct.pack("<d", got) == struct.pack("<d", want)


def test_brent_same_sign_ends_raise_search_error():
    with pytest.raises(SearchError):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)


def test_brent_nan_value_raises_search_error():
    # finite opposite-sign ends, NaN inside: the first step hits it
    def f(x):
        return math.nan if 0.0 < x < 1.0 else x - 0.5
    with pytest.raises(SearchError):
        _brentq(f, 0.0, 1.0, xtol=1e-12)


def test_brent_exhausted_iterations_raise_no_convergence():
    with pytest.raises(NoConvergenceError):
        _brentq(lambda x: x ** 3 - 0.3, 0.0, 1.0, xtol=1e-12, maxiter=2)


@pytest.mark.parametrize("xtol, rtol", [(0.0, 4 * EPS), (-1e-12, 4 * EPS),
                                        (1e-12, 2 * EPS)])
def test_brent_bad_tolerances_are_argument_errors(xtol, rtol):
    with pytest.raises(ValueError):
        _brentq(lambda x: x - 0.5, 0.0, 1.0, xtol=xtol, rtol=rtol)


def test_accumulation_point(flm):
    assert stable_manifold_param(flm) == pytest.approx(
        3.5699456718709, abs=1e-6)


def _shifted_flm(flm):
    """The same family driven by beta = alpha - 1."""
    lo, hi = flm.alpha_box
    return dataclasses.replace(
        flm,
        name="flm-shifted",
        evaluator=lambda b, e: flm.evaluator(b + 1.0, e),
        slice0=lambda b: flm.slice0(b + 1.0),
        alpha_box=(lo - 1.0, hi - 1.0),
        raw_step=lambda b, x: flm.raw_step(b + 1.0, x),
    )


def test_accumulation_point_affine_covariance(flm):
    # accumulation shifts by 1 with the parameter
    b_star = stable_manifold_param(_shifted_flm(flm))
    assert b_star + 1.0 == pytest.approx(
        stable_manifold_param(flm), abs=1e-7)


def _bisected_accumulation(family, n_fit=12):
    """Oracle: bisection on the escape side from s_n to 1e-12."""
    s = superstable_params(family, n_fit)
    lo, hi = s[-1], family.alpha_box[1]
    assert _classify_side(family, lo) == "below"
    if _classify_side(family, hi) != "above":
        hi = lo + 2 * (lo - s[-2]) * 10
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _classify_side(family, mid) == "below":
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("shift", [False, True], ids=["flm", "flm-shifted"])
def test_accumulation_point_matches_the_escape_bisection(flm, shift):
    family = _shifted_flm(flm) if shift else flm
    assert abs(stable_manifold_param(family)
               - _bisected_accumulation(family)) <= 1e-8


def _extrapolated(s):
    d1, d2 = s[-2] - s[-3], s[-1] - s[-2]
    rho = d2 / d1
    return s[-1] + d2 * rho / (1.0 - rho)


@pytest.mark.parametrize("delta, verdict", [
    (-1e-7, "raise"), (-2e-8, "raise"), (-1.2e-8, "raise"),
    (-8e-9, "pass"), (8e-9, "pass"),
    (1.2e-8, "raise"), (2e-8, "raise"), (1e-7, "raise at the midpoint")])
def test_accumulation_cross_check_verdicts(flm, delta, verdict):
    # a cascade shifted by more than the 1e-8 tolerance off the escape
    # boundary fails the cross-check; one shifted by less passes. The
    # midpoint (s_11 + s_12) / 2 sits 4.1e-8 below alpha*, so only the
    # largest shift moves it across
    s = [float(x) + delta for x in superstable_params(flm, 12)]
    family = dataclasses.replace(flm_family())
    family._cache["superstable"] = s
    if verdict == "pass":
        assert stable_manifold_param(family) == _extrapolated(np.array(s))
    else:
        with pytest.raises(InconsistencyError) as err:
            stable_manifold_param(family)
        assert ("(s_(N-1) + s_N) / 2" in str(err.value)) \
            == (verdict == "raise at the midpoint")
        assert "alpha_star" not in family._cache


def test_replaced_family_starts_with_an_empty_memo(flm):
    # a copy with a shifted evaluator must not read the parent's s_n
    superstable_params(flm, 3)
    other = dataclasses.replace(
        flm, name="flm-copy", evaluator=lambda b, e: flm.evaluator(b + 1.0, e))
    assert flm._cache["superstable"]
    assert other._cache == {}


def _counted_flm():
    """A fresh flm family whose raw_step counts its calls."""
    flm = flm_family()
    calls = [0]

    def raw_step(alpha, x):
        calls[0] += 1
        return flm.raw_step(alpha, x)

    return dataclasses.replace(flm, raw_step=raw_step), calls


def test_superstable_extends_the_stored_levels():
    # a deeper request computes only the levels it has not stored, so
    # reaching s_12 in two requests costs the raw steps of one
    fam, calls = _counted_flm()
    superstable_params(fam, 10)
    grown = superstable_params(fam, 12)
    fresh_fam, fresh_calls = _counted_flm()
    fresh = superstable_params(fresh_fam, 12)
    assert calls[0] == fresh_calls[0]
    assert grown.tobytes() == fresh.tobytes()


def test_superstable_newton_failure_raises_search_error():
    # with f_alpha = 0 the Newton step has a zero derivative at n = 2, and
    # no other search takes over
    flm = flm_family()

    def raw_step(alpha, x):
        f, f_x, _ = flm.raw_step(alpha, x)
        return f, f_x, 0.0

    fam = dataclasses.replace(flm, raw_step=raw_step)
    with pytest.raises(SearchError, match="n=2"):
        superstable_params(fam, 3)


def test_superstable_past_the_cap_raises_before_searching():
    fam, calls = _counted_flm()
    assert renorm1d.MAX_LEVEL == 14
    with pytest.raises(PrecisionExhaustedError,
                       match=r"n = 15 .* MAX_LEVEL = 14"):
        superstable_params(fam, 15)
    assert calls[0] == 0


# -------------------------------------------------------- unstable manifold

def test_sigma1_boundary_condition(stars):
    f1 = stars[0]
    assert abs(float(np.real(f1.psi(1.0)))) <= 1e-9


def test_renormalization_steps_down_the_ladder(fp):
    # f*_1..f*_5 share a seed scale at the default domain and are read off
    # one walk, so R(f*_(j+1)) is f*_j itself; f*_6 has a search of its own
    stars = unstable_manifold_points(fp, 6)
    walked = 0
    for j in range(1, len(stars)):
        stepped = renormalize_1d(stars[j])
        if renorm1d._seed_scale(fp, j + 1) == renorm1d._seed_scale(fp, j):
            assert stepped is stars[j - 1]
            walked += 1
        else:
            assert _dist(stepped, stars[j - 1]) <= 1e-8
    assert walked == 4


def test_manifold_points_are_memoized_on_the_fixed_point(fp):
    # two unmemoized fixed points, one reached in two calls
    fp1, fp2 = solve_fixed_point(fp.phi), solve_fixed_point(fp.phi)
    first = unstable_manifold_points(fp1, 2)
    grown = unstable_manifold_points(fp1, 5)
    single = unstable_manifold_points(fp2, 5)
    assert all(a is b for a, b in zip(grown, first))
    for a, b in zip(grown, single):
        assert a.psi.coeffs.tobytes() == b.psi.coeffs.tobytes()
    grown.clear()
    first[0] = None
    again = unstable_manifold_points(fp1, 5)
    assert [a.psi.coeffs.tobytes() for a in again] == [
        b.psi.coeffs.tobytes() for b in single]


def _per_level_point(fp, j):
    """The oracle: f*_j from a ladder scan, Brent search and walk of its
    own, seeded at scale t0(j)."""
    phi = fp.phi
    e = fp.e_unstable
    dom = phi.domain
    delta = fp.delta_feig
    taus = np.geomspace(1.0, delta, 17)
    s_est = 3.6 * delta ** (1 - j)
    t0 = float(np.clip(s_est / delta ** 4, 1e-12, 1e-5))

    def seed(tau):
        return UnimodalMap(AnalyticFn(
            phi.psi.coeffs + tau * t0 * e.coeffs, dom))

    def map_at(tau, k):
        m = seed(tau)
        for _ in range(k):
            m = renormalize_1d(m, check_domain=False)
        return m

    maps = [seed(t) for t in taus]
    for k in range(0, 14):
        if k:
            maps = [renormalize_1d(m, check_domain=False) for m in maps]
        vals = [renorm1d._crit_orbit_residual(m, j) for m in maps]
        for cell in _sign_changes(taus, vals):
            tau_star = _brentq(
                lambda t: renorm1d._crit_orbit_residual(map_at(t, k), j),
                *cell, xtol=1e-15, rtol=8.9e-16)
            return map_at(tau_star, k)
    raise AssertionError(f"no Sigma_{j} crossing within the growth budget")


def test_shared_walk_matches_the_per_level_searches(fp):
    stars = unstable_manifold_points(fp, 6)
    for j in range(1, 7):
        got = stars[j - 1].psi.coeffs
        want = _per_level_point(fp, j).psi.coeffs
        if j in (1, 6):    # the searched levels: the oracle's own search
            assert got.tobytes() == want.tobytes()
        else:              # read off f*_1's walk
            assert np.max(np.abs(got - want)) <= 1e-12


def test_one_seed_scale_costs_one_search(fp, monkeypatch):
    built = []
    renormalized = UnimodalMap.__dict__["_renormalized"]

    def counted(psi):
        built.append(psi)
        return renormalized.func(psi)

    prop = functools.cached_property(counted)
    prop.__set_name__(UnimodalMap, "_renormalized")
    monkeypatch.setattr(UnimodalMap, "_renormalized", prop)
    counts = []
    for j_max in (1, 5):
        fresh = solve_fixed_point(fp.phi)
        built.clear()
        unstable_manifold_points(fresh, j_max)
        counts.append(len(built))
    assert counts[0] > 0
    assert counts[1] == counts[0]


def test_read_off_level_off_its_sigma_raises_mesh_error(fp, monkeypatch):
    residual = renorm1d._crit_orbit_residual
    monkeypatch.setattr(
        renorm1d, "_crit_orbit_residual",
        lambda psi, j: 2e-9 if j == 3 else residual(psi, j))
    with pytest.raises(MeshError, match=r"f\*_3 .*Sigma_3 residual"):
        unstable_manifold_points(dataclasses.replace(fp), 2)


def test_manifold_points_approach_phi_geometrically(fp, stars):
    dists = [_dist(f, fp.phi) for f in stars]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    slope = np.polyfit(np.arange(len(dists)), np.log(dists), 1)[0]
    ratio = math.exp(slope)
    assert ratio == pytest.approx(1.0 / DELTA, rel=0.25)


def test_sigma_covariance_of_critical_orbits(flm):
    # 2^(j+1)-superstable maps renormalize to 2^j-superstable maps
    # (the j = 0 target is excluded: there a = psi(1) = 0 and the scaling
    # degenerates, which renormalize_1d reports as an error)
    s = superstable_params(flm, 4)
    for j in (1, 2, 3):
        psi = flm.psi0(s[j + 1])
        x = 0.0
        for _ in range(2 ** (j + 1)):
            x = float(np.real(psi.psi(x)))
        assert abs(x) <= 1e-9
        rpsi = renormalize_1d(psi)
        y = 0.0
        for _ in range(2 ** j):
            y = float(np.real(rpsi.psi(y)))
        assert abs(y) <= 1e-7
