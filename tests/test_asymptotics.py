"""Sequence fits, the quotient decomposition, observation drivers, checkers.

The fitter is exercised on planted geometric data before it is trusted on
measured sequences; the drivers are run at reduced depth here (full depth
belongs to the acceptance suite) with one negative control each.
"""

import collections
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprenorm_lab import (
    DG1,
    DG1_hat,
    DomainConfig,
    EquivalenceFit,
    H4Report,
    PairFn,
    QPFn,
    RotationNumber,
    apply_DT,
    apply_L_prime,
    build_L_omega,
    check_H3,
    check_H4,
    check_H5,
    extremum_m,
    fit_geometric_decay,
    flm_eta_family,
    flm_family,
    gamma_normalize,
    l1_matrix,
    l2_matrix,
    observation1,
    observation2,
    observation3,
    project_p0,
    quotient_sequence,
    project_pik,
    renorm_identity_gap,
    renormalized_family,
    slope_chain,
    slope_table,
    stable_manifold_param,
    sup_norm,
    superstable_params,
    quotient_factorization,
)
from qprenorm_lab.cli import parse_forcing
from qprenorm_lab import asymptotics, curvedyn, qprenorm
from qprenorm_lab.funcspace import pair_sup_norm
from qprenorm_lab.errors import (ConsistencyError, DegeneratePointError,
                                 DegenerateScalingError, DiophantineError,
                                 NoSectionError, SearchError, TruncationError)


# ------------------------------------------------------------------ fitter

def test_fit_recovers_planted_decay():
    ns = list(range(2, 11))
    rho, k0 = 0.31, 0.7
    diffs = [k0 * rho ** n for n in ns]
    fit = fit_geometric_decay(ns, diffs)
    assert fit.rho_hat == pytest.approx(rho, rel=0.01)
    assert fit.k0_hat == pytest.approx(k0, rel=0.1)
    assert fit.n_dropped == 0
    assert fit.passed


def test_fit_flags_zero_sequence_trivial():
    fit = fit_geometric_decay(range(2, 9), [0.0] * 7)
    assert fit.trivial
    assert fit.passed


@pytest.mark.parametrize("diffs", [[0.0] * 5, [0.0, 0.0, 1e-3, 0.0, 0.0]],
                         ids=["all-zero", "one-point"])
def test_trivial_fits_record_integer_levels(diffs):
    # both trivial returns list the levels as every other fit does
    fit = fit_geometric_decay(np.arange(2, 7), diffs)
    assert fit.trivial
    assert all(type(n) is int for n in fit.ns)


def test_fit_rejects_flat_noise():
    rng = np.random.default_rng(21)
    ns = list(range(2, 11))
    diffs = list(np.abs(rng.normal(1.0, 0.05, size=len(ns))))
    fit = fit_geometric_decay(ns, diffs)
    assert not fit.passed
    assert fit.rho_hat_hi >= 1.0


def test_fit_drops_near_cancellation_points():
    ns = list(range(2, 11))
    diffs = [0.7 * 0.31 ** n for n in ns]
    diffs[4] *= 1e-3  # one accidental near-zero
    fit = fit_geometric_decay(ns, diffs)
    assert fit.n_dropped >= 1
    assert fit.rho_hat == pytest.approx(0.31, rel=0.05)


def test_fit_survives_bounded_multiplicative_factors():
    # r_n = q + k0 K_n rho^n with K_n in [1/2, 2]: the bounded factor
    # shifts individual residuals but not the fitted rate
    rng = np.random.default_rng(33)
    rho, k0, q = 0.4, 1.3, 1.75
    ns = list(range(2, 13))
    K = rng.uniform(0.5, 2.0, size=len(ns))
    r = [q + k0 * Kn * rho ** n for Kn, n in zip(K, ns)]
    fit = fit_geometric_decay(ns, [abs(x - q) for x in r])
    assert fit.passed
    assert fit.rho_hat == pytest.approx(rho, rel=0.2)


def test_pass_criterion_uses_upper_confidence_bound():
    base = dict(rho_hat=0.9, k0_hat=1.0, ns=[2, 3, 4], log10_residuals=[],
                trivial=False, n_dropped=0)
    assert not EquivalenceFit(rho_hat_hi=1.05, **base).passed
    assert EquivalenceFit(rho_hat_hi=0.95, **base).passed
    spread = dict(base, log10_residuals=[0.0, asymptotics.MAX_SPREAD])
    assert not EquivalenceFit(rho_hat_hi=0.95, **spread).passed


# --------------------------------------------------------- quotient algebra

def test_quotient_decomposition_is_exact(flm, golden, stars):
    for n in (3, 6):
        rep = quotient_factorization(flm, golden, n)
        assert rep.residual <= 1e-12
        assert rep.q_n == pytest.approx(rep.product, abs=1e-12)
        # oracle for norm_reference: the last step DT(f*_2) applied to the
        # normalized previous direction
        ch = slope_chain(flm, golden, n, mode="fixed-point")
        v_prev = ch.vs[-2]
        image = apply_DT(stars[1], ch.omegas[-2],
                         v_prev * (1.0 / sup_norm(v_prev)))
        assert rep.norm_reference == pytest.approx(sup_norm(image),
                                                   rel=1e-13, abs=0.0)
    gap3 = quotient_factorization(flm, golden, 3).delta_gap
    gap6 = quotient_factorization(flm, golden, 6).delta_gap
    assert gap6 < gap3
    assert gap6 <= 1e-4


NOBLE = RotationNumber.from_continued_fraction(
    [2, 1, 3] + [1] * 60, dio_gamma=0.18, dio_tau=1.0, q_max=10000)


NOBLE_3 = RotationNumber.from_continued_fraction(
    [3] + [1] * 60, dio_gamma=0.18, dio_tau=1.0, q_max=10000)


@pytest.mark.parametrize("level", [2, 3, 4])
@pytest.mark.parametrize("omega", ["golden", "noble", "noble-3"])
def test_renormalization_identity_on_superstable_sequence(flm, golden,
                                                          omega, level):
    # both sides read the flm family's one exact slice, R on the line and
    # T_omega on the cylinder; the gaps read at most 2.1e-13
    om = {"golden": golden, "noble": NOBLE, "noble-3": NOBLE_3}[omega]
    assert renorm_identity_gap(flm, om, level) <= 1e-12


@pytest.mark.parametrize("level", [2, 3, 4])
def test_renormalized_family_derivatives_match_finite_differences(
        flm, golden, level):
    # finite differences of the evaluator are the oracle for the chain rule
    fam_T = renormalized_family(flm, golden, 4)
    alpha = float(superstable_params(flm, level)[level])
    h = 1e-6
    up = project_p0(fam_T.evaluator(alpha + h, 0.0))
    dn = project_p0(fam_T.evaluator(alpha - h, 0.0))
    du = fam_T.du_dalpha(alpha)
    assert sup_norm(du - (up - dn) * (0.5 / h)) <= 1e-8 * sup_norm(du)
    fd = (fam_T.evaluator(alpha, h) - fam_T.evaluator(alpha, -h)) * (0.5 / h)
    dv = fam_T.dv_deps(alpha)
    assert sup_norm(dv - fd) <= 1e-8 * sup_norm(dv)


def test_renormalized_family_stores_the_shifted_levels(flm, golden):
    fam_T = renormalized_family(flm, golden, 4)
    assert np.array_equal(superstable_params(fam_T, 3),
                          superstable_params(flm, 4)[1:])
    with pytest.raises(SearchError, match="flm_T"):
        superstable_params(fam_T, 4)


# ------------------------------------------------------------ observations

def test_observation1_families_equivalent(flm, golden):
    g2, _ = parse_forcing("[0.5,0,0.5]*sin(1w)")
    other = flm_family(g=g2, name="flm-sin-mix")
    rep = observation1(flm, other, golden, n_max=8)
    assert rep.passed
    assert rep.fit.rho_hat_hi < 1.0
    assert rep.overlap_ok


@settings(max_examples=20, deadline=None)
@given(which=st.sampled_from([0, 1]), log_c=st.floats(-6.0, 5.0),
       sign=st.sampled_from([1.0, -1.0]), n_max=st.integers(4, 6))
def test_observation1_quotients_ignore_the_coupling_scale(
        flm, golden, which, log_c, sign, n_max):
    # scaling a family's coupling g by c scales each of its slopes by c,
    # so its quotients alpha'_n / alpha'_(n-1) stay put
    g2, _ = parse_forcing("[0.5,0,0.5]*sin(1w)")
    fams = [flm, flm_family(g=g2, name="flm-sin-mix")]
    g = [lambda th, x: np.cos(2 * np.pi * np.asarray(th)) * np.ones_like(x),
         g2][which]
    c = sign * 10.0 ** log_c
    scaled = list(fams)
    scaled[which] = flm_family(g=lambda th, x: c * g(th, x), name="scaled")
    base = observation1(*fams, golden, n_max=n_max)
    rep = observation1(*scaled, golden, n_max=n_max)
    for want, got in ((base.seq1, rep.seq1), (base.seq2, rep.seq2)):
        assert np.all(np.abs(got.values() - want.values())
                      <= 1e-13 * np.abs(want.values()))


def test_observation1_negative_control_b2_forcing(flm, golden):
    # forcing in the second Fourier mode renormalizes along 2 omega, a
    # different class; the quotient gap stays order-one and must fail
    g2, modes = parse_forcing("[1]*cos(2w)")
    assert modes == [2]
    other = flm_family(g=g2, name="b2")
    rep = observation1(flm, other, golden, n_max=8)
    assert not rep.passed
    assert rep.fit.rho_hat_hi >= 1.0


def test_observation2_limit_and_identity(flm, golden):
    rep = observation2(flm, golden, n_max=8)
    assert rep.passed
    assert rep.cauchy_decreasing
    assert rep.limit_stable_3digits
    assert rep.limit_estimate == pytest.approx(1.7557, abs=1e-3)
    assert set(rep.identity_gaps) == {2, 3}
    assert all(gap <= 1e-10 for gap in rep.identity_gaps.values())
    # boundedness diagnostic stays order-one; the two-chain band is ordered
    assert 0.0 < rep.bounded_ratio_min <= rep.bounded_ratio_max <= 10.0
    lo, hi = rep.h5_band
    assert 0.0 < lo <= hi


def test_observation3_linear_response(golden):
    rep = observation3(golden, etas=(1e-3, 1e-2), n_max=8)
    assert rep.passed
    assert 1.0 / 3.0 <= rep.scale_factor <= 3.0
    assert rep.bound_ok
    for eta, (worst, allowed) in rep.bound_margins.items():
        assert worst <= allowed


@pytest.mark.parametrize("etas", [(-1e-3, -1e-2), (-1e-3, 1e-2)],
                         ids=["negative", "mixed"])
def test_observation3_measures_eta_by_its_size(golden, etas):
    # the sign of eta flips the second harmonic, not the size of the
    # perturbation: the bound and the scale test read |eta|
    rep = observation3(golden, etas=etas, n_max=8)
    assert rep.passed
    assert 1.0 / 3.0 <= rep.scale_factor <= 3.0
    assert rep.bound_margins.keys() == set(etas)
    for eta, (worst, allowed) in rep.bound_margins.items():
        C = rep.bound_C
        assert allowed == 2.0 * C * abs(eta) / (1.0 - C * abs(eta)) > 0.0
        assert worst <= allowed


def test_observation3_deviations_are_those_of_the_superposed_dg1_values(
        golden):
    # the DG1 values at a chain's end are linear in the coupling
    # (tests/test_symmetries.py), so the slopes of cos(2 pi t) + eta cos(4 pi
    # t) come from one fixed-point chain per mode; observation3 runs its
    # own chain for each eta family
    etas, n_max = (1e-3, 1e-2), 6
    rep = observation3(golden, etas=etas, n_max=n_max)
    parts = []
    for expr in ("[1]*cos(1w)", "[1]*cos(2w)"):
        g, _ = parse_forcing(expr)
        fam = flm_family(g=g)
        chains = [slope_chain(fam, golden, n, mode="fixed-point")
                  for n in range(1, n_max + 1)]
        parts.append([DG1(ch.psi_end, ch.omega_end, ch.vs[-1])
                      for ch in chains])
    dens = [DG1_hat(ch.psi_end, ch.u_end)
            for ch in (slope_chain(flm_eta_family(0.0), golden, n,
                                   mode="fixed-point")
                       for n in range(1, n_max + 1))]

    def quotients(eta):
        alpha = [-extremum_m(a + eta * b).value / den
                 for a, b, den in zip(*parts, dens)]
        return {n: alpha[n - 1] / alpha[n - 2] for n in range(2, n_max + 1)}

    q0 = quotients(0.0)
    for eta in etas:
        q = quotients(eta)
        want = {n: abs(q[n] - q0[n]) for n in q}
        assert rep.deviations[eta].keys() == want.keys()
        for n in want:
            assert rep.deviations[eta][n] == pytest.approx(want[n], rel=1e-10,
                                                          abs=0.0)


def _obs3_bound_reference(omega0, etas, n_max):
    """bound_C and bound_margins from the stacked rows of component_chains,
    with every superposed vector, and each mode-1 direction, put on the
    section by gamma_normalize of its own."""
    fam1 = flm_eta_family(1.0)
    v0 = fam1.dv_deps(stable_manifold_param(fam1))
    H = asymptotics.component_chains(
        omega0, project_pik(v0, 1).embed(1) + project_pik(v0, 2).embed(2),
        n_max - 1)
    norms = pair_sup_norm(v0.domain, H)
    C = max(n2 / n1 for n1, n2 in norms)

    def unit_on_section(h1, h2):
        v = QPFn.zero(v0.domain)
        v.modes[1], v.modes[2] = h1, h2
        w = gamma_normalize(v)[1]
        return w * (1.0 / sup_norm(w))

    margins = {}
    for eta in etas:
        allowed = 2.0 * C * abs(eta) / (1.0 - C * abs(eta))
        margins[eta] = (max(sup_norm(unit_on_section(h1, h2 * eta)
                                     - unit_on_section(h1, 0.0))
                            for h1, h2 in H), allowed)
    return C, margins


@pytest.mark.parametrize("etas", [(1e-3, 1e-2), (1e-2, -1e-2, 1e-3)],
                         ids=["two", "tie"])
def test_observation3_shifts_each_level_once_for_every_eta(golden,
                                                           monkeypatch,
                                                           etas):
    # a superposed vector's mode-1 row is its level's mode-1 row, so one
    # section call on the mode-1 rows gives the bits of shifting each
    # vector on its own
    calls = collections.Counter()
    section_gammas = asymptotics.section_gammas

    def counted(H, domain, section):
        calls[H.shape] += 1
        return section_gammas(H, domain, section)
    monkeypatch.setattr(asymptotics, "section_gammas", counted)
    rep = observation3(golden, etas=etas, n_max=6)
    assert calls == {(6, DomainConfig().n_cheb): 1}
    C, margins = _obs3_bound_reference(golden, etas, 6)
    assert rep.bound_C == C
    assert rep.bound_margins == margins


def test_observation3_names_the_eta_it_judges(golden):
    # of two etas of the largest size the non-equivalence arm reads the
    # one given last
    rep = observation3(golden, etas=(1e-2, -1e-2, 1e-3), n_max=4)
    assert rep.judged_eta == -1e-2
    dev = rep.deviations[-1e-2]
    assert all(type(n) is int for n in dev)
    assert rep.nonequiv_fit == fit_geometric_decay(list(dev),
                                                   list(dev.values()))
    assert rep.nonequiv_fit != fit_geometric_decay(
        list(dev), list(rep.deviations[1e-2].values()))


def test_zero_coupling_has_no_quotient_factorization(golden):
    g, _ = parse_forcing("[0]*cos(1w)")
    with pytest.raises(DegenerateScalingError, match="level-3 chain is 0"):
        quotient_factorization(flm_family(g=g), golden, 3)


OBS3_ETAS_RULE = "nonzero etas of at least two different sizes |eta|"


def test_observation3_zero_coupling_degenerates_cleanly(golden):
    # a zero eta deviates by nothing, so no clause could fail on it: the
    # run is refused before any table is built, alone or beside others
    for etas in ((0.0,), (0.0, 1e-3, 1e-2)):
        with pytest.raises(ValueError, match=re.escape(OBS3_ETAS_RULE)):
            observation3(golden, etas=etas, n_max=4)


@pytest.mark.parametrize("etas", [(), (1e-3,), (1e-3, -1e-3)],
                         ids=["empty", "one-eta", "one-size"])
def test_observation3_needs_two_different_sizes(golden, etas):
    # with one size |eta| the scale test reads 1 by construction
    with pytest.raises(ValueError, match=re.escape(OBS3_ETAS_RULE)):
        observation3(golden, etas=etas, n_max=4)


def test_observation3_refuses_a_domain_without_mode_2(golden, monkeypatch):
    # the bound compares mode 2 with mode 1; on one Fourier mode the run
    # is refused before any slope table is built
    calls = collections.Counter()
    slope_tables = asymptotics._slope_tables

    def counted(*args):
        calls["_slope_tables"] += 1
        return slope_tables(*args)
    monkeypatch.setattr(asymptotics, "_slope_tables", counted)
    with pytest.raises(TruncationError, match="n_fourier = 1"):
        observation3(golden, n_max=4, domain=DomainConfig(n_fourier=1))
    assert calls["_slope_tables"] == 0


def test_observation3_names_the_nonequivalence_arm_that_decided(
        golden, monkeypatch):
    # non-equivalence is "the deviation fit fails, or else the tail keeps
    # 5% of the supremum"; its clause is the first arm that holds
    rep = observation3(golden, etas=(1e-3, 1e-2), n_max=5)
    tail = rep.clauses[-1]
    assert tail.name == "deviation_tail" and tail.ok
    assert rep.nonequiv_fit.passed
    assert tail.bound == 0.05 * rep.sup_deviations[1e-2]

    def flat(ns, diffs):
        fit = fit_geometric_decay(ns, diffs)
        return dataclasses.replace(fit, rho_hat_hi=1.25)

    monkeypatch.setattr(asymptotics, "fit_geometric_decay", flat)
    rep = observation3(golden, etas=(1e-3, 1e-2), n_max=5)
    assert rep.clauses[-1] == ("deviation_rho_hat_hi", 1.25, 1.0, True)
    assert rep.passed


def test_eta_family_reduces_to_base_at_zero(flm):
    fam0 = flm_eta_family(0.0)
    for alpha in (3.2, 3.5):
        a = fam0.evaluator(alpha, 0.0)
        b = flm.evaluator(alpha, 0.0)
        assert np.max(np.abs(a.modes - b.modes)) <= 1e-12


# ---------------------------------------------------- the shared slope pass

def _sin_mix_family(name="flm-sin-mix"):
    g, _ = parse_forcing("[0.5,0,0.5]*sin(1w)")
    return flm_family(g=g, name=name)


@pytest.mark.parametrize("mode", ["exact-orbit", "fixed-point"])
def test_shared_pass_gives_each_family_its_one_family_table(flm, golden,
                                                            mode):
    # three couplings on the default domain's record walk each level once
    fams = [flm, _sin_mix_family(), flm_eta_family(1e-2)]
    got = asymptotics._slope_tables(fams, golden, range(1, 7), mode)
    assert got == [slope_table(f, golden, 6, mode=mode) for f in fams]


def test_observation1_reads_the_one_family_tables(flm, golden):
    other = _sin_mix_family()
    rep = observation1(flm, other, golden, n_max=8)
    fixed = [slope_table(f, golden, 8) for f in (flm, other)]
    assert rep.seq1.entries == quotient_sequence(fixed[0]).entries
    assert rep.seq2.entries == quotient_sequence(fixed[1]).entries
    gaps = {}
    for f, tab_fixed in zip((flm, other), fixed):
        tab_exact = slope_table(f, golden, 6, mode="exact-orbit")
        for n in range(4, 7):
            qe = tab_exact[n][0] / tab_exact[n - 1][0]
            qf = tab_fixed[n][0] / tab_fixed[n - 1][0]
            gaps[n] = max(abs(qe - qf) / abs(qe), gaps.get(n, 0.0))
    assert rep.overlap_gaps == gaps


def test_observation3_reads_the_one_family_tables(golden):
    etas = (1e-3, 1e-2)
    rep = observation3(golden, etas=etas, n_max=6)
    q = {eta: dict(quotient_sequence(
        slope_table(flm_eta_family(eta), golden, 6)).entries)
         for eta in (0.0,) + etas}
    for eta in etas:
        assert rep.deviations[eta] == {n: abs(q[eta][n] - q[0.0][n])
                                       for n in q[0.0]}


def _count_walks_and_couplings(fams, monkeypatch):
    """A counter of each family's dv_deps calls (by name) and of the
    exact-orbit walks (by the name of the family that walks, and n)."""
    calls = collections.Counter()
    for fam in fams:
        def counted(alpha, name=fam.name, dv_deps=fam.dv_deps):
            calls[name] += 1
            return dv_deps(alpha)
        monkeypatch.setattr(fam, "dv_deps", counted)
    starts = curvedyn._exact_orbit_starts

    def walked(family, ns):
        calls.update((family.name, n) for n in ns)
        return starts(family, ns)
    monkeypatch.setattr(curvedyn, "_exact_orbit_starts", walked)
    return calls


def test_observation1_walks_each_level_once_for_both_families(golden,
                                                              monkeypatch,
                                                              stacked_rows):
    # the families share the default domain's record: the overlap window
    # 4..6 starts the levels it reads, 3..6, once, and walks their kept
    # orbits once, renormalizing no map; the fixed-point tables renormalize
    # none either. Each family builds v_0 once for its fixed-point table
    # (alpha* does not move) and once per exact level
    fams = [flm_family(), _sin_mix_family()]
    observation1(*fams, golden, n_max=8)       # polish levels 3..6 first
    calls = _count_walks_and_couplings(fams, monkeypatch)
    stacked_rows.clear()
    observation1(*fams, golden, n_max=8)
    assert calls == {"flm": 5, "flm-sin-mix": 5,
                     **{("flm", n): 1 for n in range(3, 7)}}
    assert stacked_rows == []


def test_a_family_on_a_private_record_walks_alone(golden, monkeypatch):
    shared, other = flm_family(), _sin_mix_family()
    private = dataclasses.replace(_sin_mix_family(), name="private")
    fams = [shared, private, other]
    want = [slope_table(f, golden, 4, mode="exact-orbit") for f in fams]
    calls = _count_walks_and_couplings(fams, monkeypatch)
    got = asymptotics._slope_tables(fams, golden, range(1, 5),
                                    "exact-orbit")
    assert got == want
    assert calls == {"flm": 4, "private": 4, "flm-sin-mix": 4,
                     **{(name, n): 1 for name in ("flm", "private")
                        for n in range(1, 5)}}


def _failing_at(level, flm):
    """A coupling on flm's record whose v_0 raises at the polished
    parameter of the given exact-orbit level."""
    bad_alpha, _ = flm._cache["sigma1"][level]

    def dv_deps(alpha):
        if alpha == bad_alpha:
            raise DegenerateScalingError(f"no coupling at level {level}")
        return flm.dv_deps(alpha)

    fam = dataclasses.replace(flm, name=f"bad{level}", dv_deps=dv_deps)
    fam._cache = flm._cache
    return fam


def test_a_failing_chain_raises_what_its_one_family_table_raises(golden):
    flm = flm_family()
    slope_table(flm, golden, 6, mode="exact-orbit")    # polish levels 1..6
    bad3 = _failing_at(3, flm)
    with pytest.raises(DegenerateScalingError) as alone:
        slope_table(bad3, golden, 6, mode="exact-orbit")
    # observation 1 meets it in its overlap window
    with pytest.raises(DegenerateScalingError) as shared:
        observation1(flm, bad3, golden, n_max=6)
    assert str(shared.value) == str(alone.value) == "no coupling at level 3"
    # of several failing chains, the first failing level's error wins
    with pytest.raises(DegenerateScalingError, match="at level 2$"):
        asymptotics._slope_tables([bad3, _failing_at(2, flm)], golden,
                                  range(1, 7), "exact-orbit")


# ------------------------------------------------------------------ checkers

def test_h3_directions_converge(flm, golden):
    rep = check_H3(flm, golden, n_max=6)
    assert rep.passed
    assert rep.c_floor > 0.0
    assert rep.c0_floor > 0.0
    gaps = [rep.direction_gaps[n] for n in sorted(rep.direction_gaps)]
    assert gaps[-1] < gaps[0]


def _reference_h3(c, omega0, n_max):
    """check_H3 with one slope_chain per level and mode."""
    section = asymptotics.SectionConfig()
    gaps, norms, m_floors = {}, [], []
    for n in range(2, n_max + 1):
        ch_e = slope_chain(c, omega0, n, mode="exact-orbit")
        ch_f = slope_chain(c, omega0, n, mode="fixed-point")
        ve = asymptotics._on_section(ch_e.vs[-1], section)
        vf = asymptotics._on_section(ch_f.vs[-1], section)
        vf_hat = asymptotics._unit_direction(vf, n)
        gaps[n] = sup_norm(asymptotics._unit_direction(ve, n) - vf_hat)
        norms.append(sup_norm(vf))
        m_floors.append(abs(curvedyn.functional_K(ch_f.omega_end,
                                                  ch_f.psi_end, vf_hat)))
    fit = fit_geometric_decay(sorted(gaps), [gaps[n] for n in sorted(gaps)])
    c_floor, c0_floor = float(np.min(norms)), float(np.min(m_floors))
    return asymptotics.H3Report(
        fit=fit, direction_gaps=gaps, c_floor=c_floor, c0_floor=c0_floor,
        clauses=[*fit.clauses,
                 asymptotics.Clause("c_floor", c_floor, 0.0, c_floor > 0),
                 asymptotics.Clause("c0_floor", c0_floor, 0.0,
                                    c0_floor > 0)])


def test_h3_builds_the_fixed_point_v0_once(flm, golden, monkeypatch,
                                           stacked_rows):
    want = _reference_h3(flm, golden, 8)
    calls = _count_walks_and_couplings([flm], monkeypatch)
    stacked_rows.clear()
    got = check_H3(flm, golden, n_max=8)
    # v_0 once at alpha* and once per exact-orbit level 2..8, one start per
    # exact-orbit level, and one walk of the kept orbits of levels 2..8
    # (the reference polished them), which renormalizes no map
    assert calls == {"flm": 8, **{("flm", n): 1 for n in range(2, 9)}}
    assert stacked_rows == []
    for name in asymptotics.H3Report.__dataclass_fields__:
        assert getattr(got, name) == getattr(want, name), name
    calls.clear()
    quotient_factorization(flm, golden, 5)
    assert calls["flm"] == 1


def test_h4_contraction_after_multiple_steps(golden):
    rep = check_H4(n_pairs=10, seed=7)
    assert rep.passed
    assert rep.multi_step_fit is not None
    assert rep.multi_step_fit.rho_hat < 1.0
    # one-step expansion is reported, not hidden
    assert rep.max_ratio_l2 > 1.0
    assert rep.v_violations > 0


def _reference_h4(psi, n_pairs, seed, assembled=False, radius=0.5,
                  multi_n=8):
    """check_H4 one sample and one omega at a time, through the public
    QPFn section and apply_L_prime, with the dominant direction from the
    n x n complex block L1 + e^(2 pi i golden) L2.

    assembled=True takes every step with the assembled 2n x 2n block
    (build_L_omega(...).apply, then gamma_normalize) and the direction
    from its real eig instead: an independent route to the same report."""
    dom = psi.domain
    grid = [RotationNumber.from_fraction(2 * k + 1, 128) for k in range(64)]
    golden = RotationNumber.golden()
    if assembled:
        lam, vecs = np.linalg.eig(build_L_omega(psi, golden, 1).matrix)
        w = vecs[:, np.argmax(np.abs(lam))]
        vec = np.real(w)
        if np.linalg.norm(vec) < 1e-8 * np.linalg.norm(w):
            vec = np.imag(w)
    else:
        lam, vecs = np.linalg.eig(l1_matrix(psi) + np.exp(
            2j * np.pi * float(golden)) * l2_matrix(psi))
        w = vecs[:, np.argmax(np.abs(lam))]
        vec = np.concatenate([w.real, -w.imag])
    e0 = project_pik(gamma_normalize(
        PairFn.from_coeff_vector(dom, vec).embed(1))[1], 1)
    e0_vec = (e0 * (1.0 / e0.coeff_norm())).coeff_vector()
    rng = np.random.default_rng(seed)
    samples, attempts = [], 0
    while len(samples) < 2 * n_pairs and attempts < 20 * n_pairs:
        attempts += 1
        w = rng.standard_normal(e0_vec.size)
        w *= (radius * 0.98 * rng.random() ** (1.0 / e0_vec.size)
              / np.linalg.norm(w))
        cand = e0_vec + w
        cand /= np.linalg.norm(cand)
        try:
            _, f = gamma_normalize(PairFn.from_coeff_vector(dom, cand).embed(1))
        except (NoSectionError, DegeneratePointError):
            continue
        p = project_pik(f, 1)
        p = p * (1.0 / p.coeff_norm())
        if np.linalg.norm(p.coeff_vector() - e0_vec) <= radius:
            samples.append(p)
    pairs = [(samples[2 * i], samples[2 * i + 1])
             for i in range(len(samples) // 2)]

    def step(v, om):
        if assembled:
            out = project_pik(gamma_normalize(
                build_L_omega(psi, om, 1).apply(v).embed(1))[1], 1)
        else:
            out = apply_L_prime(psi, om, v)
        return out * (1.0 / out.coeff_norm())

    per_omega, skipped, violations, compared = {}, 0, 0, 0
    max_l2 = max_sup = 0.0
    for om in grid:
        worst = 0.0
        for u, v in pairs:
            try:
                fu, fv = step(u, om), step(v, om)
            except (NoSectionError, DegeneratePointError,
                    DegenerateScalingError):
                skipped += 1
                continue
            for f in (fu, fv):
                if np.linalg.norm(f.coeff_vector() - e0_vec) > radius:
                    violations += 1
            den_l2 = np.linalg.norm((u - v).coeff_vector())
            if den_l2 < 1e-14:
                continue
            compared += 1
            worst = max(worst, np.linalg.norm((fu - fv).coeff_vector())
                        / den_l2)
            max_sup = max(max_sup, (fu - fv).sup_norm()
                          / max((u - v).sup_norm(), 1e-300))
        per_omega[float(om)] = worst
        max_l2 = max(max_l2, worst)
    fit = None
    if max_l2 >= 1.0 and pairs:
        (u, v), om, dists = pairs[0], grid[0], []
        for _ in range(multi_n):
            u, v = step(u, om), step(v, om)
            dists.append(np.linalg.norm((u - v).coeff_vector()))
            om = om.double()
        fit = fit_geometric_decay(np.arange(1, multi_n + 1), dists)
    # one-step contraction decides, or else the multi-step fit
    decided = ([asymptotics.Clause("max_ratio_l2", float(max_l2), 1.0,
                                   max_l2 < 1.0)] if fit is None
               else fit.clauses)
    return H4Report(max_ratio_l2=float(max_l2), max_ratio_sup=float(max_sup),
                    per_omega_max=per_omega, n_sampled=len(samples),
                    n_skipped=skipped, v_violations=violations,
                    multi_step_fit=fit,
                    clauses=[asymptotics.Clause("pairs_compared", compared, 1,
                                                compared > 0), *decided])


@pytest.mark.parametrize("n_pairs, seed", [
    pytest.param(10, 7, id="7"), pytest.param(10, 123, id="123"),
    pytest.param(10, 99999, id="99999"),
    # odd pair counts: blocks of 2 and 50 sample rows per omega
    pytest.param(1, 7, id="1-pair"), pytest.param(25, 7, id="25-pairs")])
def test_h4_block_step_equals_the_one_sample_loop(fp, n_pairs, seed):
    got = check_H4(n_pairs=n_pairs, seed=seed)
    want = _reference_h4(fp.phi, n_pairs, seed)
    for name in H4Report.__dataclass_fields__:
        assert getattr(got, name) == getattr(want, name), name
    # types too: repr() of a float and of an np.float64 differ
    assert ([type(r) for r in got.per_omega_max.values()]
            == [type(r) for r in want.per_omega_max.values()])


@pytest.mark.parametrize("seed", [7, 123, 99999])
def test_h4_matches_the_assembled_block_loop(fp, seed):
    # the assembled 2n x 2n block and its real eig are the independent
    # check of the mode-1 kernel and the complex-block direction
    got = check_H4(n_pairs=10, seed=seed)
    want = _reference_h4(fp.phi, 10, seed, assembled=True)
    for name in ("n_sampled", "n_skipped", "v_violations"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.passed == want.passed
    assert ([(c.name, c.ok) for c in got.clauses]
            == [(c.name, c.ok) for c in want.clauses])
    assert list(got.per_omega_max) == list(want.per_omega_max)
    for a, b in [(got.max_ratio_l2, want.max_ratio_l2),
                 (got.max_ratio_sup, want.max_ratio_sup),
                 *zip(got.per_omega_max.values(),
                      want.per_omega_max.values())]:
        assert abs(a - b) <= 1e-14 * abs(b)


def test_dominant_direction_is_the_real_eig_direction(fp, golden):
    # the complex n x n block is the realification's half: its leading
    # eigenvector lands where the 2n x 2n real eig's does, and its leading
    # modulus is the assembled block's spectral radius
    phi = fp.phi
    h = asymptotics._dominant_direction(phi, golden)
    got = PairFn.from_coeff_vector(phi.domain,
                                   np.concatenate([h.real, -h.imag]))
    lam, vecs = np.linalg.eig(build_L_omega(phi, golden, 1).matrix)
    want = gamma_normalize(PairFn.from_coeff_vector(
        phi.domain, np.real(vecs[:, np.argmax(np.abs(lam))])).embed(1))[1]
    want = project_pik(want, 1)
    want = want * (1.0 / want.coeff_norm())
    assert (got - want).sup_norm() <= 1e-13
    C = l1_matrix(phi) + np.exp(2j * np.pi * float(golden)) * l2_matrix(phi)
    radius = np.max(np.abs(np.linalg.eigvals(C)))
    want_radius = qprenorm.spectrum_L_omega(
        build_L_omega(phi, golden, 1)).spectral_radius
    assert abs(radius - want_radius) <= 1e-12 * want_radius


def test_h4_counts_a_pair_with_a_failing_image_once(fp, monkeypatch):
    clean = check_H4(n_pairs=3, seed=2)
    section_gammas = qprenorm.section_gammas

    def failing(X, domain, section):
        # in a block of images of the six samples, omega by omega, one
        # image of pair 1 and both images of pair 2 miss the section
        gamma0, errors = section_gammas(X, domain, section)
        if X.shape[0] % 6 == 0:
            for j in range(X.shape[0]):
                if j % 6 in (3, 4, 5):
                    errors[j] = DegeneratePointError("injected")
                    gamma0[j] = 0.0
        return gamma0, errors

    monkeypatch.setattr(qprenorm, "section_gammas", failing)
    rep = check_H4(n_pairs=3, seed=2)
    assert clean.n_skipped == 0
    assert rep.n_skipped == 2 * len(asymptotics.H4_OMEGAS)
    assert rep.n_sampled == clean.n_sampled == 6
    for w, r in rep.per_omega_max.items():
        assert r <= clean.per_omega_max[w]


def test_h4_steps_its_grid_in_blocks(fp, monkeypatch):
    check_H4(n_pairs=10, seed=7)
    rows = {"lib": [], "own": []}
    built = []

    def counted(route, section_gammas):
        def wrapped(X, domain, section):
            rows[route].append(X.shape[0])
            return section_gammas(X, domain, section)
        return wrapped

    def build(psi, omega, k=1, build_L_omega=qprenorm.build_L_omega):
        built.append(omega)
        return build_L_omega(psi, omega, k)

    # l_prime_rows calls qprenorm's section_gammas; the dominant direction
    # and the sampler call asymptotics' name of it
    monkeypatch.setattr(qprenorm, "section_gammas",
                        counted("lib", qprenorm.section_gammas))
    monkeypatch.setattr(asymptotics, "section_gammas",
                        counted("own", asymptotics.section_gammas))
    monkeypatch.setattr(qprenorm, "build_L_omega", build)
    rep = check_H4(n_pairs=10, seed=7)
    assert rep.multi_step_fit is not None
    blocks = -(-len(asymptotics.H4_OMEGAS) // asymptotics.H4_BLOCK)
    # one call per block of the grid, one per multi-step
    assert rows["lib"] == ([20 * asymptotics.H4_BLOCK] * blocks
                           + [2] * asymptotics.H4_MULTI_N)
    # the dominant direction, then batches of the missing samples
    own = rows["own"]
    assert own[:2] == [1, 20] and sum(own[1:]) <= 20 * 10
    assert len(own) <= 6
    # every step and the dominant direction go through the mode-1 kernel
    assert built == []


@pytest.mark.parametrize("n_pairs", [0, -3])
def test_h4_needs_one_pair(fp, n_pairs):
    with pytest.raises(ValueError, match="n_pairs >= 1"):
        check_H4(n_pairs=n_pairs)


def test_h4_fails_when_it_compares_no_pair(fp, monkeypatch):
    section_gammas = qprenorm.section_gammas

    def failing(X, domain, section):
        # every image of a block of the four samples misses the section
        gamma0, errors = section_gammas(X, domain, section)
        if X.shape[0] % 4 == 0:
            errors = [DegeneratePointError("injected")] * X.shape[0]
            gamma0[:] = 0.0
        return gamma0, errors

    monkeypatch.setattr(qprenorm, "section_gammas", failing)
    rep = check_H4(n_pairs=2, seed=2)
    assert rep.n_sampled == 4
    assert rep.n_skipped == 2 * len(asymptotics.H4_OMEGAS)
    assert rep.max_ratio_l2 == 0.0
    assert not rep.passed


def test_identical_pair_maps_to_identical_image(fp, domain, golden):
    rng = np.random.default_rng(9)
    v = PairFn.from_coeff_vector(domain, rng.standard_normal(2 * domain.n_cheb))
    a = apply_L_prime(fp.phi, golden, v)
    b = apply_L_prime(fp.phi, golden, v)
    assert np.max(np.abs(a.coeff_vector() - b.coeff_vector())) == 0.0


def test_h5_band_and_exact_homogeneity(flm, golden):
    p0 = project_pik(flm.dv_deps(stable_manifold_param(flm)), 1)
    rep = check_H5(golden, p0, p0, n_max=10)
    assert rep.passed
    assert 0.0 < rep.c1 <= rep.c2
    doubled = check_H5(golden, p0, p0 * 2.0, n_max=10)
    assert doubled.r0 == 2.0 * rep.r0
    assert np.array_equal(np.asarray(doubled.ratios), np.asarray(rep.ratios))
    assert (doubled.c1, doubled.c2) == (rep.c1, rep.c2)


def test_rational_rotation_rejected(flm, golden):
    third = RotationNumber.from_fraction(1, 3)
    with pytest.raises(DiophantineError):
        observation2(flm, third, n_max=3)
    with pytest.raises(DiophantineError):
        check_H3(flm, third, n_max=3)
    p0 = project_pik(flm.dv_deps(stable_manifold_param(flm)), 1)
    with pytest.raises(DiophantineError):
        check_H5(third, p0, p0, n_max=3)


def test_h5_rejects_n_max_below_one(flm, golden):
    # the CLI stops nmax < 1 in load_config; the library keeps its guard
    p0 = project_pik(flm.dv_deps(stable_manifold_param(flm)), 1)
    with pytest.raises(ValueError, match="n_max >= 1"):
        check_H5(golden, p0, p0, n_max=0)


def test_h5_rejects_start_vectors_on_two_domains(flm, golden):
    # the chain would otherwise die in a matmul at its first step
    p0 = project_pik(flm.dv_deps(stable_manifold_param(flm)), 1)
    other = DomainConfig(n_cheb=48)
    p1 = PairFn.from_coeff_vector(other, np.ones(2 * other.n_cheb))
    with pytest.raises(ConsistencyError, match="two domains") as err:
        check_H5(golden, p0, p1, n_max=2)
    assert "n_cheb=40" in str(err.value) and "n_cheb=48" in str(err.value)


@pytest.mark.parametrize("omega", [RotationNumber.golden(), NOBLE],
                         ids=["golden", "noble"])
@pytest.mark.parametrize("start", ["p0-p0", "p0-2p0", "eta-modes"])
def test_h5_has_the_bits_of_the_per_level_pair_reads(flm, omega, start):
    # one pair_sup_norm of the stacked rows against a PairFn.sup_norm of
    # each level's project_pik, on one walk of the two-mode start
    p0 = project_pik(flm.dv_deps(stable_manifold_param(flm)), 1)
    fam = flm_eta_family(1.0)
    v = fam.dv_deps(stable_manifold_param(fam))
    v01, v02 = {"p0-p0": (p0, p0), "p0-2p0": (p0, p0 * 2.0),
                "eta-modes": (project_pik(v, 1), project_pik(v, 2))}[start]
    n_max = 10
    fp = asymptotics.feigenbaum_fixed_point(v01.domain)
    Vs, _ = curvedyn._dt_walk([fp.phi] * n_max, [omega],
                              (v01.embed(1) + v02.embed(2)).modes[None])
    vs = [QPFn(V[0], v01.domain) for V in Vs]
    norms = [(project_pik(w, 1).sup_norm(), project_pik(w, 2).sup_norm())
             for w in vs]
    r0 = norms[0][1] / norms[0][0]
    ratios = [(n2 / n1) / r0 for n1, n2 in norms[1:]]
    rep = check_H5(omega, v01, v02, n_max=n_max)
    assert np.array([rep.r0]).tobytes() == np.array([r0]).tobytes()
    assert np.array(rep.ratios).tobytes() == np.array(ratios).tobytes()
    assert (np.array([rep.c1, rep.c2]).tobytes()
            == np.array([min(ratios), max(ratios)]).tobytes())


def test_h5_refuses_a_domain_without_mode_2(golden):
    # the two-mode walk needs room for mode 2 in the truncated space
    dom = DomainConfig(n_fourier=1)
    p0 = PairFn.from_coeff_vector(dom, np.ones(2 * dom.n_cheb))
    with pytest.raises(TruncationError, match="n_fourier = 1"):
        check_H5(golden, p0, p0, n_max=2)


def _per_mode_chains(omega0, v01, v02, n_max):
    """The two chains by the assembled blocks: v_{k,j} advances under
    build_L_omega(phi, omega_k, j).apply, one block per step and mode."""
    phi = asymptotics.feigenbaum_fixed_point(v01.domain).phi
    chains, om = ([v01], [v02]), omega0
    for _ in range(n_max):
        for k, chain in enumerate(chains, start=1):
            chain.append(build_L_omega(phi, om, k).apply(chain[-1]))
        om = om.double()
    return chains


@pytest.mark.parametrize("omega", [
    RotationNumber.golden(), RotationNumber.from_float(2 ** 0.5 - 1),
    RotationNumber.from_fraction(1, 3)], ids=["golden", "silver", "third"])
def test_component_chains_match_the_per_mode_blocks(omega):
    # DT at the fixed point is block-diagonal in the Fourier mode, so one
    # walk of the two-mode vector carries both chains to rounding
    fam = flm_eta_family(1.0)
    v0 = fam.dv_deps(stable_manifold_param(fam))
    v01, v02 = project_pik(v0, 1), project_pik(v0, 2)
    got = asymptotics.component_chains(omega, v01.embed(1) + v02.embed(2),
                                       12)
    want = _per_mode_chains(omega, v01, v02, 12)
    assert got.shape == (13, 2, v0.domain.n_cheb)
    for j, chain in enumerate(want):
        assert len(chain) == 13
        b = np.array([w.u.coeffs - 1j * w.v.coeffs for w in chain])
        assert np.array_equal(got[0, j], b[0])
        assert np.all(pair_sup_norm(v0.domain, got[1:, j] - b[1:])
                      <= 1e-14 * pair_sup_norm(v0.domain, b[1:]))


def test_two_mode_walks_build_no_L_omega(flm, golden, monkeypatch):
    # H5 and observation 3 step with curvedyn._dt_step; build_L_omega
    # stays for the spectrum and the dt-check, and asymptotics does not
    # name it (tests/test_imports.py), so its calls are counted in qprenorm
    calls = collections.Counter()

    def counted(psi, omega, k=1, build_L_omega=qprenorm.build_L_omega):
        calls[run] += 1
        return build_L_omega(psi, omega, k)

    monkeypatch.setattr(qprenorm, "build_L_omega", counted)
    run = "H5"
    asymptotics._family_H5(flm, golden, 12)
    run = "observation 3"
    observation3(golden, n_max=6)
    assert calls == {}


# ------------------------------------------------------- pinned chain values
#
# Values of the chain walks at the default domain, as repr floats. A
# mis-ordered base list or a dropped step moves them by O(1); the drift of
# the Vandermonde operator data (2.1e-11 on slopes) stays inside PINNED_REL.

PINNED_REL = 1e-10
PINNED_SLOPES = {
    "exact-orbit": {
        1: (-8.16078370432081, 8.160783704320805),
        2: (-11.166652707345094, 11.166652707345094),
        3: (-21.22155411694844, 21.221554116948436),
        4: (-14.564213015083698, 14.564213015083684),
        5: (-15.837452604808542, 15.837452604808538),
        6: (-23.384207858724015, 23.384207858723997),
    },
    "fixed-point": {
        1: (-5.3800337562968075, 5.3800337562968075),
        2: (-9.5576240415636, 9.5576240415636),
        3: (-19.03812272561594, 19.03812272561594),
        4: (-13.067173183434045, 13.06717318343404),
        5: (-14.350170776564145, 14.350170776564145),
        6: (-21.182481790410634, 21.182481790410616),
    },
}
PINNED_H5_RATIOS = [0.7893899134329336, 1.0135636760866065,
                    0.5170943075785668, 0.5959734395351113,
                    0.719686205328731, 0.9973600608742302,
                    0.5813137751683972, 0.7230117186765608]
PINNED_OBS3_C = 1.0135636760866058
PINNED_OBS3_MARGINS = {1e-3: (0.0020052304127258997, 0.002029184059427942),
                       1e-2: (0.019873966582905977, 0.02047883960121406)}


@pytest.mark.parametrize("mode", ["exact-orbit", "fixed-point"])
def test_pinned_slopes(flm, golden, mode):
    table = slope_table(flm, golden, 6, mode=mode)
    for n, want in PINNED_SLOPES[mode].items():
        assert table[n] == pytest.approx(want, rel=PINNED_REL, abs=0.0)


def test_pinned_h5_ratios(flm, golden):
    p0 = project_pik(flm.dv_deps(stable_manifold_param(flm)), 1)
    rep = check_H5(golden, p0, p0, n_max=8)
    assert rep.ratios == pytest.approx(PINNED_H5_RATIOS, rel=PINNED_REL,
                                       abs=0.0)


def test_pinned_observation3_bound(golden):
    rep = observation3(golden, etas=(1e-3, 1e-2), n_max=10)
    assert rep.bound_C == pytest.approx(PINNED_OBS3_C, rel=PINNED_REL, abs=0.0)
    assert rep.bound_margins.keys() == PINNED_OBS3_MARGINS.keys()
    for eta, want in PINNED_OBS3_MARGINS.items():
        assert rep.bound_margins[eta] == pytest.approx(want, rel=PINNED_REL,
                                                       abs=0.0)
