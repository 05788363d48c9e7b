"""Slope-quotient asymptotics: universality checks and their failure modes.

The reducibility-loss slopes alpha'_n enter the theory through quotients:
q_n = alpha'_n(omega) / alpha'_{n-1}(omega) for a fixed rotation number,
and the mixed quotient r_n = alpha'_n(omega) / alpha'_{n-1}(2 omega).
Universality is the statement that such sequences agree across families up
to a geometrically small error: |q_n(c1) - q_n(c2)| <= k0 rho^n with
rho < 1 ("asymptotic equivalence"). This module provides

  * the equivalence fitter (least squares on the log of the differences),
  * drivers for three numerical observations: family independence of q_n
    for degree-1 trigonometric forcing, convergence of the mixed quotient
    r_n, and the eta-perturbation study where a second forcing harmonic
    breaks universality at size O(eta),
  * empirical checkers for the structural conjectures behind those
    observations: H3 (the exact-orbit and fixed-point direction sequences
    become equal), H4 (the normalized one-step propagation map contracts
    uniformly in omega near the dominant direction), and H5 (the two-mode
    norm ratio stays in a fixed band),
  * the exact three-factor decomposition of q_n in fixed-point mode,
    whose factors converge to 1/delta, an m-functional ratio, and the
    norm of the final propagation step.

Estimated constants (rho_hat, k0, C, C0, C1, C2) are reported, never
asserted against external ground truth.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ConsistencyError, DegenerateScalingError, TruncationError
from .funcspace import (AnalyticFn, DomainConfig, QPFn, pair_sup_norm,
                        project_p0, project_pik, shift_tgamma, sup_norm)
from .qprenorm import (RotationNumber, SectionConfig, apply_DT, apply_T,
                       dt_columns, gamma_normalize, l_prime_rows,
                       require_diophantine, row_norms, section_gammas)
from .renorm1d import (FamilySpec, feigenbaum_fixed_point,
                       stable_manifold_param, superstable_params)
from .curvedyn import (DG1_hat, _dr_walk, _dt_walk, _pass_slopes,
                       _slope_pass, flm_family, functional_K, slope_formula)


# ------------------------------------------------------ quotient sequences

MAX_SPREAD = 1.0      # decades the fit residuals may spread over


# a pass condition of a checker; `ok` is its own test of value against bound
Clause = namedtuple("Clause", "name value bound ok")


class _Verdict:
    """Base of the checker reports and of the decay fit: PASS means every
    clause holds."""

    @property
    def passed(self):
        return all(c.ok for c in self.clauses)

    def _ok(self, name):
        return next(c.ok for c in self.clauses if c.name == name)


@dataclass
class QuotientSequence:
    """Levels n with their quotients q_n, as (n, q_n) entries.

    The plain quotient is alpha'_n(omega)/alpha'_{n-1}(omega); the mixed
    one takes the denominator slope at the doubled rotation number.
    """

    entries: list

    def __post_init__(self):
        ns = [n for n, _ in self.entries]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("levels must be strictly increasing")
        if not all(np.isfinite(q) for _, q in self.entries):
            raise ValueError("quotients must be finite")

    def ns(self):
        return np.array([n for n, _ in self.entries], dtype=int)

    def values(self):
        return np.array([q for _, q in self.entries], dtype=float)


@dataclass
class EquivalenceFit(_Verdict):
    """Least-squares fit of log|r_n - s_n| = log k0 + n log rho."""

    rho_hat: float
    k0_hat: float
    ns: list
    log10_residuals: list
    trivial: bool = False
    n_dropped: int = 0
    rho_hat_hi: float = 0.0

    @property
    def spread_decades(self):
        if self.trivial or len(self.log10_residuals) < 2:
            return 0.0
        r = np.asarray(self.log10_residuals)
        return float(np.max(r) - np.min(r))

    @property
    def clauses(self):
        """Decay must be statistically real: even the two-sigma upper
        bound of rho stays below 1 (a flat sequence fits to rho just
        under 1 by chance), and the points hug the line (residuals spread
        over less than MAX_SPREAD decades). A trivial fit passes both."""
        return [Clause("rho_hat_hi", self.rho_hat_hi, 1.0,
                       self.trivial or 0.0 < self.rho_hat_hi < 1.0),
                Clause("spread_decades", self.spread_decades, MAX_SPREAD,
                       self.trivial or self.spread_decades < MAX_SPREAD)]


def fit_geometric_decay(ns, diffs):
    """Fit k0 rho^n to a difference sequence.

    Entries that are zero to machine precision are dropped; if everything
    is zero the sequences are identical and the fit is trivially passing.
    The equivalence relation is an upper bound, so entries falling more
    than a decade BELOW the fitted line (near-cancellations of the signed
    difference) carry no evidence against it; up to a quarter of the
    points may be dropped that way and the line refitted.
    """
    ns = np.asarray(ns, dtype=float)
    d = np.abs(np.asarray(diffs, dtype=float))
    scale = float(np.max(d)) if d.size else 0.0
    if scale <= 1e-14:
        return EquivalenceFit(rho_hat=0.0, k0_hat=0.0, ns=[int(n) for n in ns],
                              log10_residuals=[], trivial=True)
    keep = d > 1e-15 * scale
    ns_k, d_k = ns[keep], d[keep]
    if ns_k.size < 2:
        return EquivalenceFit(rho_hat=0.0, k0_hat=scale,
                              ns=[int(n) for n in ns_k],
                              log10_residuals=[0.0], trivial=True)

    def line(ns_f, d_f):
        slope, intercept = np.polyfit(ns_f, np.log(d_f), 1)
        resid = (np.log(d_f) - (intercept + slope * ns_f)) / np.log(10.0)
        return slope, intercept, resid

    slope, intercept, resid = line(ns_k, d_k)
    low = resid < -1.0
    n_dropped = 0
    if np.any(low) and np.sum(low) <= ns_k.size // 4:
        n_dropped = int(np.sum(low))
        ns_k, d_k = ns_k[~low], d_k[~low]
        slope, intercept, resid = line(ns_k, d_k)
    dof = ns_k.size - 2
    if dof > 0:
        s2 = float(np.sum((resid * np.log(10.0)) ** 2)) / dof
        se = float(np.sqrt(s2 / np.sum((ns_k - np.mean(ns_k)) ** 2)))
    else:
        se = 0.0
    return EquivalenceFit(rho_hat=float(np.exp(slope)),
                          k0_hat=float(np.exp(intercept)),
                          ns=[int(n) for n in ns_k],
                          log10_residuals=[float(r) for r in resid],
                          n_dropped=n_dropped,
                          rho_hat_hi=float(np.exp(slope + 2.0 * se)))


# ------------------------------------------------------------ slope tables

def slope_table(family, omega0, n_max, mode="fixed-point"):
    """alpha'_n and beta'_n for n = 1..n_max, one chain per level."""
    return _slope_tables([family], omega0, range(1, n_max + 1), mode)[0]


def _slope_tables(families, omega0, levels, mode):
    """The slopes of each family at the levels n in levels, from one pass
    over them read in one batch (curvedyn._pass_slopes): families that
    share a slice record walk each level once, and each table has the bits
    it has alone."""
    tables = [{} for _ in families]
    for n, slopes in _pass_slopes(families, [(n, (omega0,)) for n in levels],
                                  mode):
        for table, pair in zip(tables, slopes):
            table[n] = pair
    return tables


def _slope_quotient(num, den, n):
    """The level-n quotient num / den of two slopes; a zero denominator
    (a zero coupling's slope) raises DegenerateScalingError."""
    if den == 0.0:
        raise DegenerateScalingError(
            f"slope quotient at n = {n}: the denominator slope is 0")
    return num / den


def _unit_direction(v, n):
    """v / sup_norm(v) for the final direction of a level-n chain; a zero
    direction (a zero coupling's) raises DegenerateScalingError."""
    norm = sup_norm(v)
    if norm == 0.0:
        raise DegenerateScalingError(
            f"the final direction of the level-{n} chain is 0")
    return v * (1.0 / norm)


def quotient_sequence(table):
    """q_n = alpha'_n / alpha'_(n-1) for n = 2..n_max of a slope_table."""
    entries = [(n, _slope_quotient(table[n][0], table[n - 1][0], n))
               for n in range(2, len(table) + 1)]
    return QuotientSequence(entries=entries)


def mixed_quotient_sequence(family, omega0, n_max, mode="fixed-point"):
    """r_n = alpha'_n(omega0) / alpha'_{n-1}(2 omega0) for n = 2..n_max.

    Returns the sequence with the slope tables of omega0 (levels 1..n_max)
    and of 2 omega0 (levels 1..n_max-1). A level's bases do not depend on
    the rotation number, so each level below n_max walks them once for
    both, and all slopes are read in one batch (curvedyn._pass_slopes).
    """
    omega2 = omega0.double()
    levels = [(n, (omega0, omega2) if n < n_max else (omega0,))
              for n in range(1, n_max + 1)]
    tab1, tab2 = {}, {}
    for n, slopes in _pass_slopes([family], levels, mode):
        tab1[n] = slopes[0]
        if n < n_max:
            tab2[n] = slopes[1]
    entries = [(n, _slope_quotient(tab1[n][0], tab2[n - 1][0], n))
               for n in range(2, n_max + 1)]
    return QuotientSequence(entries=entries), tab1, tab2


def _overlap_gaps(families, omega0, window, fixed_tables):
    """Relative gap of q_n between exact-orbit and fixed-point modes.

    The observation drivers run whole sequences in fixed-point mode; on the
    overlap window lo..hi (lo >= 2) both modes are computed and the
    quotients must agree. The exact-orbit tables of all families come from
    one pass over the levels the window reads, lo - 1..hi.
    """
    lo, hi = window
    gaps = {}
    exact_tables = _slope_tables(families, omega0, range(lo - 1, hi + 1),
                                 "exact-orbit")
    for tab_exact, tab_fixed in zip(exact_tables, fixed_tables):
        for n in range(lo, hi + 1):
            qe = _slope_quotient(tab_exact[n][0], tab_exact[n - 1][0], n)
            qf = _slope_quotient(tab_fixed[n][0], tab_fixed[n - 1][0], n)
            g = abs(qe - qf) / abs(qe)
            gaps[n] = max(g, gaps.get(n, 0.0))
    return gaps


# ----------------------------------------------------------- observation 1

@dataclass
class Obs1Report(_Verdict):
    fit: EquivalenceFit
    seq1: QuotientSequence
    seq2: QuotientSequence
    overlap_gaps: dict
    clauses: list
    overlap_ok = property(lambda self: self._ok("overlap_gap"))


OVERLAP_WINDOW = (4, 6)
OVERLAP_TOL = 0.05


def observation1(c1, c2, omega0, n_max=10):
    """Family independence of q_n for forcing in the first harmonic.

    Both quotient sequences are computed in fixed-point mode and the decay
    of their difference is fitted; PASS needs rho_hat < 1 with the fit
    residuals spread over less than a decade. On the overlap window
    OVERLAP_WINDOW the exact-orbit quotients must match the fixed-point
    ones within OVERLAP_TOL (measured gaps are about 1e-2 or less). Below
    n_max = 4 the window is empty, so n_max < 4 raises ValueError.
    """
    require_diophantine(omega0)
    if n_max < 4:
        raise ValueError(f"observation 1 needs n_max >= 4, got {n_max}")
    tab1, tab2 = _slope_tables([c1, c2], omega0, range(1, n_max + 1),
                               "fixed-point")
    seq1 = quotient_sequence(tab1)
    seq2 = quotient_sequence(tab2)
    diffs = seq1.values() - seq2.values()
    fit = fit_geometric_decay(seq1.ns(), diffs)

    window = (max(OVERLAP_WINDOW[0], 2), min(OVERLAP_WINDOW[1], n_max))
    gaps = _overlap_gaps([c1, c2], omega0, window, [tab1, tab2])
    overlap = Clause("overlap_gap", max(gaps.values()), OVERLAP_TOL,
                     all(g <= OVERLAP_TOL for g in gaps.values()))
    return Obs1Report(fit=fit, seq1=seq1, seq2=seq2, overlap_gaps=gaps,
                      clauses=[*fit.clauses, overlap])


# ----------------------------------------------------------- observation 2

def _aitken(seq):
    """Aitken extrapolation of the tail of a scalar sequence."""
    r0, r1, r2 = seq[-3], seq[-2], seq[-1]
    den = (r2 - r1) - (r1 - r0)
    if abs(den) < 1e-14 * max(1.0, abs(r2)):
        return r2
    return r2 - (r2 - r1) ** 2 / den


def renormalized_family(family, omega, n):
    """The family (alpha, eps) -> T_omega(c(alpha, eps)), with s_0..s_(n-1).

    Its slice is T_omega of the parent's slice psi0(alpha), taken on the
    cylinder (apply_T), which has no closed form; its parameter
    derivatives are the chain rule of T_omega at psi0(alpha): DR(psi0) du
    for alpha and DT(psi0) dv for eps. All three read the parent's one
    slice, so the identity alpha'_i(c) = alpha'_(i-1)(T c) compares R on
    the line with T on the cylinder at the same map.

    (R psi)^(2^k)(0) = psi^(2^(k+1))(0) / psi(1), so the superstable
    parameters of the new family are the parent's shifted one level down,
    s_k(T c) = s_(k+1)(c). The family stores s_1..s_n of the parent as its
    own s_0..s_(n-1) and has no raw map, so these are all the levels it
    has: a grid scan would step on parameters where T_omega c is not
    defined.
    """
    # the slice, du_dalpha and dv_deps read one parent slice and its
    # operator data
    psi0 = lru_cache(maxsize=1)(family.psi0)

    def du_dalpha(a):
        du = family.du_dalpha(a)
        return AnalyticFn(_dr_walk([psi0(a)], du.coeffs), du.domain)

    fam = FamilySpec(
        name=family.name + "_T",
        evaluator=lambda a, e: apply_T(family.evaluator(a, e), omega),
        slice0=lambda a: project_p0(apply_T(psi0(a).embed(), omega)),
        du_dalpha=du_dalpha,
        dv_deps=lambda a: apply_DT(psi0(a), omega, family.dv_deps(a)),
        alpha_box=family.alpha_box)
    fam._cache["superstable"] = [
        float(x) for x in superstable_params(family, n)[1:]]
    return fam


def renorm_identity_gap(family, omega0, i):
    """Relative gap in alpha'_i(omega, c) = alpha'_{i-1}(2 omega, T_omega c)."""
    lhs, _ = slope_formula(family, omega0, i, mode="exact-orbit")
    return _identity_gap(family, omega0, i, lhs)


def _identity_gap(family, omega0, i, lhs):
    """renorm_identity_gap with its left-hand side alpha'_i(omega, c) given.

    The right-hand side is computed here, on the family that apply_T
    builds, so the identity stays a check independent of the chain."""
    fam_T = renormalized_family(family, omega0, i)
    rhs, _ = slope_formula(fam_T, omega0.double(), i - 1, mode="exact-orbit")
    return abs(lhs - rhs) / abs(lhs)


@dataclass
class Obs2Report(_Verdict):
    seq: QuotientSequence
    cauchy_diffs: dict
    limit_estimate: float
    limit_prev: float
    bounded_ratio_min: float
    bounded_ratio_max: float
    h5_band: Optional[tuple]    # None without mode 1 or without mode 2
    identity_gaps: dict
    clauses: list
    cauchy_decreasing = property(lambda self: self._ok("cauchy_ratio"))
    limit_stable_3digits = property(lambda self: self._ok("limit_drift"))


IDENTITY_LEVELS = (2, 3)


def observation2(c, omega0, n_max=10, mode="exact-orbit"):
    """Convergence of the mixed quotient r_n = alpha'_n(w)/alpha'_{n-1}(2w).

    Reports the Cauchy differences |r_n - r_{n-1}| (required decreasing
    from n = 4 on), an Aitken limit estimate with a 3-significant-digit
    stability comparison against the one-shorter window, the boundedness
    diagnostic alpha'_n(w)/alpha'_n(2w), the two-chain norm-ratio band
    (None for a coupling with no mode-1 part or a domain with no mode 2;
    no clause reads it), and
    the one-step renormalization identity at the levels IDENTITY_LEVELS
    (relative gap at most 1e-10).

    Runs the slope chains on the exact orbit by default: the chain
    propagation is linear in n, the dominant 2^n work sits in cheap 1-D
    orbit evaluations, and the mixed quotient converges monotonically
    there, while the fixed-point tails make it oscillate in pairs.

    The Cauchy ratio and the shorter Aitken window need r_2..r_5, so
    n_max < 5 raises ValueError.
    """
    require_diophantine(omega0)
    if n_max < 5:
        raise ValueError(f"observation 2 needs n_max >= 5, got {n_max}")
    seq, tab1, tab2 = mixed_quotient_sequence(c, omega0, n_max, mode=mode)
    r = dict(seq.entries)

    cauchy = {n: abs(r[n] - r[n - 1]) for n in range(3, n_max + 1)}
    dec_ns = [n for n in sorted(cauchy) if n >= 4]
    pairs = [(cauchy[a], cauchy[b]) for a, b in zip(dec_ns, dec_ns[1:])]
    decreasing = Clause("cauchy_ratio", max(b / a for a, b in pairs),
                        1.0, all(b < a for a, b in pairs))

    vals = [r[n] for n in sorted(r)]
    limit = _aitken(vals)
    limit_prev = _aitken(vals[:-1])
    drift, allowed = abs(limit - limit_prev), 5e-4 * max(1.0, abs(limit))
    stable = Clause("limit_drift", drift, allowed, bool(drift <= allowed))

    b = [tab1[n][0] / tab2[n][0] for n in range(1, n_max)]
    b_abs = np.abs(b)

    try:    # no clause reads the band; a run without mode 1 or 2 has none
        h5 = _family_H5(c, omega0, n_max)
        h5_band = (h5.c1, h5.c2)
    except (DegenerateScalingError, TruncationError):
        h5_band = None

    if mode == "exact-orbit":    # tab1 holds the left-hand sides
        gaps = {i: _identity_gap(c, omega0, i, tab1[i][0])
                for i in IDENTITY_LEVELS}
    else:
        gaps = {i: renorm_identity_gap(c, omega0, i) for i in IDENTITY_LEVELS}
    identity = Clause("identity_gap", max(gaps.values()), 1e-10,
                      all(g <= 1e-10 for g in gaps.values()))

    return Obs2Report(seq=seq, cauchy_diffs=cauchy,
                      limit_estimate=float(limit),
                      limit_prev=float(limit_prev),
                      bounded_ratio_min=float(np.min(b_abs)),
                      bounded_ratio_max=float(np.max(b_abs)),
                      h5_band=h5_band,
                      identity_gaps=gaps,
                      clauses=[decreasing, stable, identity])


# ----------------------------------------------------------- observation 3

def flm_eta_family(eta, domain=DomainConfig()):
    """Forced logistic family with forcing cos(2 pi t) + eta cos(4 pi t)."""
    def g(theta, x):
        t = 2.0 * np.pi * np.asarray(theta)
        return (np.cos(t) + eta * np.cos(2 * t)) * np.ones_like(x)
    return flm_family(g=g, domain=domain, name=f"flm_eta{eta:g}")


def component_chains(omega0, v0, n_max):
    """The (n_max + 1, 2, n_cheb) stack of the mode-1 and mode-2 rows
    h = u - i v of the chain v_0..v_n_max from v0, a QPFn with no other mode.

    DT at the fixed point is block-diagonal in the Fourier mode, so one
    curvedyn._dt_walk of v0 at Phi along the omega-doubling sequence
    carries both components. The chain stays off the section: the shift
    commutes with each mode block, so callers that compare directions
    shift the vectors they compare.
    """
    phi = feigenbaum_fixed_point(v0.domain).phi
    Vs, _ = _dt_walk([phi] * n_max, [omega0], v0.modes[None])
    return np.array([V[0, 1:3] for V in Vs])


@dataclass
class Obs3Report(_Verdict):
    etas: tuple
    judged_eta: float   # largest |eta|; non-equivalence reads it
    deviations: dict
    sup_deviations: dict
    scale_factor: float
    bound_C: float
    bound_margins: dict
    nonequiv_fit: EquivalenceFit
    clauses: list       # scale, direction bound, then non-equivalence
    bound_ok = property(lambda self: self._ok("direction_bound"))


def observation3(omega0, etas=(1e-3, 1e-2), n_max=10,
                 section=SectionConfig(), domain=DomainConfig()):
    """eta-perturbation study: a second harmonic breaks universality.

    For each eta the full quotient sequence of the two-harmonic family is
    compared against eta = 0. The deviations should scale linearly in |eta|
    (the deviation ratio of the smallest and largest sizes matches their
    ratio within a factor 3) while NOT decaying geometrically in n. The
    two-component recurrences bound the direction deviation by
    2 C |eta| / (1 - C |eta|), C from the norm-ratio band. Non-equivalence
    is the arm that decided: the largest |eta|'s deviations fail the
    geometric fit, or else keep 5% of their supremum at the last three
    levels (of a tie in size, the eta given last: `judged_eta`). Deviations
    stay keyed by the signed eta. Each level's one shift to the section
    serves every direction compared there, as they share their mode-1 part.
    Every family lives on `domain`; n_fourier < 2 raises TruncationError.
    Without two different nonzero sizes |eta| (a zero eta deviates by
    nothing, one size scales by 1), or with n_max < 3, it raises ValueError.
    """
    require_diophantine(omega0)
    if n_max < 3:
        raise ValueError(f"observation 3 needs n_max >= 3, got {n_max}")
    by_size = sorted(etas, key=abs)
    if not by_size or abs(by_size[0]) in (0.0, abs(by_size[-1])):
        raise ValueError("observation 3 needs nonzero etas of at least two "
                         f"different sizes |eta|, got {tuple(etas)}")
    if domain.n_fourier < 2:
        raise TruncationError(f"observation 3 compares mode 2, which "
                              f"n_fourier = {domain.n_fourier} does not hold")
    e1, e2 = by_size[0], by_size[-1]
    all_etas = (0.0,) + tuple(etas)
    fams = [flm_eta_family(eta, domain) for eta in all_etas]
    tables = {eta: quotient_sequence(table) for eta, table in zip(
        all_etas, _slope_tables(fams, omega0, range(1, n_max + 1),
                                "fixed-point"))}
    base = dict(tables[0.0].entries)

    deviations = {eta: {n: abs(q - base[n]) for n, q in tables[eta].entries}
                  for eta in etas}
    sup_dev = {eta: max(dev.values()) for eta, dev in deviations.items()}
    scale = (sup_dev[e2] / sup_dev[e1]) / abs(e2 / e1)

    # component bookkeeping at unit eta; everything is linear in mode 2
    fam1 = flm_eta_family(1.0, domain)
    v0 = QPFn.zero(domain)
    v0.modes[1:3] = fam1.dv_deps(stable_manifold_param(fam1)).modes[1:3]
    H = component_chains(omega0, v0, n_max - 1)
    n1, n2 = pair_sup_norm(domain, H).T
    C = float(np.max(n2 / n1))      # ||v_{n,2}|| <= C eta ||v_{n,1}||

    # the shift reads the mode-1 row, which every eta's vector shares
    gammas, errors = section_gammas(H[:, 0], domain, section)
    if any(errors):
        raise next(e for e in errors if e is not None)

    def unit_on_section(n, eta):    # mode 2 scaled by eta, then shifted
        v = QPFn.zero(domain)
        v.modes[1], v.modes[2] = H[n, 0], H[n, 1] * eta
        return _unit_direction(shift_tgamma(v, gammas[n]), n)

    v1_hats = [unit_on_section(n, 0.0) for n in range(len(H))]
    bound_margins, fold = {}, 0.0
    for eta in etas:
        if C * abs(eta) >= 1.0:
            fold = np.inf
            continue
        allowed = 2.0 * C * abs(eta) / (1.0 - C * abs(eta))
        worst = max(sup_norm(unit_on_section(n, eta) - v1_hats[n])
                    for n in range(len(H)))
        bound_margins[eta] = (worst, allowed)
        fold = max(fold, worst / allowed)

    dev_big = list(deviations[e2].values())     # levels in increasing order
    fit = fit_geometric_decay(list(deviations[e2]), dev_big)
    tail, floor = min(dev_big[-3:]), 0.05 * sup_dev[e2]
    failed = [c._replace(name="deviation_" + c.name, ok=True)
              for c in fit.clauses if not c.ok]
    nonequiv = (failed + [Clause("deviation_tail", tail, floor,
                                 bool(tail >= floor))])[0]

    return Obs3Report(etas=tuple(etas), judged_eta=e2, deviations=deviations,
                      sup_deviations=sup_dev, scale_factor=float(scale),
                      bound_C=float(C), bound_margins=bound_margins,
                      nonequiv_fit=fit,
                      clauses=[Clause("scale_fold", max(scale, 1.0 / scale),
                                      3.0, 1.0 / 3.0 <= scale <= 3.0),
                               Clause("direction_bound", fold, 1.0,
                                      fold <= 1.0), nonequiv])


# ------------------------------------------------------------- H3 checker

@dataclass
class H3Report(_Verdict):
    fit: EquivalenceFit
    direction_gaps: dict
    c_floor: float
    c0_floor: float
    clauses: list


def _on_section(v, section):
    """t_gamma v on the section; v itself when its mode-1 part is zero to
    rounding (the shift is then undefined and v has no direction to fix)."""
    if row_norms(v.modes[1]) <= 1e-12 * max(1.0, v.coeff_norm()):
        return v
    return gamma_normalize(v, section)[1]


def check_H3(c, omega0, n_max=8, section=SectionConfig()):
    """Direction equivalence of the exact-orbit and fixed-point chains.

    For each n both chains are run to their final vectors, which are put on
    the section before they are compared: the chains themselves leave the
    rotation free. The normalized vectors' difference should decay
    geometrically in n. Also reports the two floors the theory needs:
    min ||v_{n-1}|| over the fixed-point chains, and the minimum of
    |m(DG1 at the final section map, applied to the normalized direction)|.
    n_max < 4 (a fit with no degree of freedom) raises ValueError.
    """
    require_diophantine(omega0)
    if n_max < 4:
        raise ValueError(f"H3 needs n_max >= 4, got {n_max}")
    gaps, norms, m_floors = {}, [], []
    # one pass per mode: alpha* stays, so v_0 is built once for the
    # fixed-point chains, while alpha_n of the exact orbit moves per level
    levels = [(n, (omega0,)) for n in range(2, n_max + 1)]
    for (n, (ch_e,)), (_, (ch_f,)) in zip(
            _slope_pass([c], levels, "exact-orbit"),
            _slope_pass([c], levels, "fixed-point")):
        ve = _on_section(ch_e.vs[-1], section)
        vf = _on_section(ch_f.vs[-1], section)
        ve_hat = _unit_direction(ve, n)
        vf_hat = _unit_direction(vf, n)
        gaps[n] = sup_norm(ve_hat - vf_hat)
        norms.append(sup_norm(vf))
        m_floors.append(abs(functional_K(ch_f.omega_end, ch_f.psi_end,
                                         vf_hat)))
    fit = fit_geometric_decay(sorted(gaps), [gaps[n] for n in sorted(gaps)])
    c_floor = float(np.min(norms))
    c0_floor = float(np.min(m_floors))
    return H3Report(fit=fit, direction_gaps=gaps, c_floor=c_floor,
                    c0_floor=c0_floor,
                    clauses=[*fit.clauses,
                             Clause("c_floor", c_floor, 0.0, c_floor > 0),
                             Clause("c0_floor", c0_floor, 0.0, c0_floor > 0)])


# ------------------------------------------------------------- H4 checker

def _units_on_section(H, domain, section):
    """Rows h = u - i v of H on the section, each scaled to unit l2 norm,
    with the per-row errors of section_gammas (a failing row is left
    unscaled)."""
    gamma0, errors = section_gammas(H, domain, section)
    P = H * np.exp(2j * np.pi * gamma0)[:, None]
    ok = np.array([e is None for e in errors], dtype=bool)
    P[ok] *= (1.0 / row_norms(P[ok]))[:, None]
    return P, errors


def _mode_rows(X):
    """The (u, v) rows of X as the stored rows h = u - i v."""
    n = X.shape[-1] // 2
    return X[..., :n] - 1j * X[..., n:]


def _dominant_direction(psi, omega, section=SectionConfig()):
    """Unit row h on the section spanning the leading invariant plane.

    The 2n x 2n L_omega is the realification of the complex n x n block
    C = L1 + e^(2 pi i omega) L2 on h = u - i v, so the leading eigenvector
    of C is the row h. C is dt_columns of the identity block."""
    n = psi.domain.n_cheb
    C = dt_columns(psi, np.eye(n, dtype=complex),
                   np.exp(2j * np.pi * float(omega)))
    lam, vecs = np.linalg.eig(C)
    P, errors = _units_on_section(vecs[:, np.argmax(np.abs(lam))][None],
                                  psi.domain, section)
    if errors[0] is not None:
        raise errors[0]
    return P[0]


@dataclass
class H4Report(_Verdict):
    max_ratio_l2: float
    max_ratio_sup: float
    per_omega_max: dict
    n_sampled: int
    n_skipped: int
    v_violations: int
    multi_step_fit: Optional[EquivalenceFit]
    clauses: list


H4_RADIUS = 0.5
H4_OMEGAS = tuple(RotationNumber.from_fraction(2 * k + 1, 128)
                  for k in range(64))
H4_MULTI_N = 8        # steps of the multi-step fit
H4_BLOCK = 8          # grid omegas stepped as one block


def _h4_samples(e0, n_pairs, rng, domain, section):
    """Up to 2 n_pairs unit rows h on the section within H4_RADIUS of e0.

    Candidates are drawn one at a time as (u, v) rows (a normal vector,
    then a uniform radius) and accepted in draw order, at most 20 n_pairs
    of them; the section of a batch of candidates is decided by one call,
    and a batch holds as many candidates as rows are still missing, so the
    accepted rows are those of a one-candidate-at-a-time loop."""
    e0_vec = np.concatenate([e0.real, -e0.imag])
    radius, dim = H4_RADIUS, e0_vec.size
    samples, attempts = [], 0
    while len(samples) < 2 * n_pairs and attempts < 20 * n_pairs:
        C = np.empty((min(2 * n_pairs - len(samples),
                          20 * n_pairs - attempts), dim))
        attempts += len(C)
        for cand in C:
            w = rng.standard_normal(dim)
            w *= (radius * 0.98 * rng.random() ** (1.0 / dim)
                  / np.linalg.norm(w))
            cand[:] = e0_vec + w
            cand /= np.linalg.norm(cand)
        P, errors = _units_on_section(_mode_rows(C), domain, section)
        near = row_norms(P - e0) <= radius
        samples.extend(p for p, e, ok in zip(P, errors, near)
                       if e is None and ok)
    return np.array(samples, dtype=complex).reshape(-1, dim // 2)


def check_H4(psi=None, n_pairs=100, seed=7, section=SectionConfig()):
    """Uniform contraction of the normalized one-step map near the
    dominant direction.

    V is the radius-H4_RADIUS coefficient ball around the normalized
    dominant direction at the golden rotation number, intersected with the
    unit sphere on the section. For sampled pairs in V and every omega on
    the grid, the one-step map v -> t_gamma(L_omega v)/|| || must shrink
    pairwise distances; both the coefficient l2 norm and the sup norm are
    reported; the grid is H4_OMEGAS, the odd multiples of 1/128. When
    one-step contraction fails, the H4_MULTI_N multi-step distances along
    the omega-doubling sequence from the first grid omega are fitted
    instead (the relaxed criterion K rho^n). The clauses: some pair was
    compared, then the one-step or the multi-step criterion that decided.

    The grid is stepped H4_BLOCK omegas at a time on the rows h = u - i v
    (l_prime_rows): one L1 and one L2 product per sample, one phase
    product per (omega, sample) and one section call per block; the
    skips, violations and ratios of the block are masks over
    (omega, pair). A pair with an image off the section counts once in
    n_skipped.
    n_pairs < 1 raises ValueError, and a run that compares no pair at any
    omega fails.
    """
    if n_pairs < 1:
        raise ValueError(f"check_H4 needs n_pairs >= 1, got {n_pairs}")
    if psi is None:
        psi = feigenbaum_fixed_point(DomainConfig()).phi
    dom = psi.domain
    # the dominant direction needs the value of golden, not its certificate
    e0 = _dominant_direction(psi, RotationNumber.golden(q_max=0), section)
    X = _h4_samples(e0, n_pairs, np.random.default_rng(seed), dom, section)
    n_sampled = len(X)
    n_used = 2 * (n_sampled // 2)
    X = X[:n_used]

    def step(Y, omegas):
        """Rows v -> t_gamma(L_omega v) / || || for each omega of omegas
        in turn, with per-row errors."""
        F, errors = l_prime_rows(psi, omegas, Y, section)
        ok = np.array([e is None for e in errors], dtype=bool)
        F[ok] *= (1.0 / row_norms(F[ok]))[:, None]
        return F, ok, errors

    # pair i is (X[2i], X[2i + 1]); its distances do not depend on omega
    n = dom.n_cheb
    D = X[0::2] - X[1::2]
    den_l2 = row_norms(D)
    den_sup = np.maximum(pair_sup_norm(dom, D), 1e-300)
    per_omega, skipped, v_violations, compared = {}, 0, 0, 0
    max_l2 = max_sup = 0.0
    for b in range(0, len(H4_OMEGAS), H4_BLOCK):
        block = H4_OMEGAS[b:b + H4_BLOCK]
        F, ok, _ = step(X, block)
        F = F.reshape(len(block), n_used, n)
        ok = ok.reshape(len(block), n_used)
        pair_ok = ok[:, 0::2] & ok[:, 1::2]           # (omega, pair)
        skipped += int(np.sum(~pair_ok))
        v_violations += int(np.sum(
            (row_norms(F - e0) > H4_RADIUS)[np.repeat(pair_ok, 2, axis=1)]))
        use = pair_ok & ~(den_l2 < 1e-14)
        num = (F[:, 0::2] - F[:, 1::2])[use]
        ratios = np.zeros(use.shape)
        ratios[use] = row_norms(num) / np.broadcast_to(den_l2, use.shape)[use]
        ratios_sup = (pair_sup_norm(dom, num)
                      / np.broadcast_to(den_sup, use.shape)[use])
        max_sup = max(max_sup, float(np.max(ratios_sup, initial=0.0)))
        # a ratio is >= 0: an omega whose largest is not above 0 reports
        # the float 0.0, as a one-pair-at-a-time loop from 0.0 does
        for om, worst_l2 in zip(block, np.max(ratios, axis=1, initial=0.0)):
            per_omega[float(om)] = worst_l2 if worst_l2 > 0.0 else 0.0
            max_l2 = max(max_l2, float(worst_l2))
        compared += int(np.sum(use))

    multi_fit = None
    if max_l2 >= 1.0 and n_used:
        Y = X[:2]
        om = H4_OMEGAS[0]
        dists = []
        for _ in range(H4_MULTI_N):
            Y, _, errors = step(Y, [om])
            for e in errors:
                if e is not None:
                    raise e
            dists.append(row_norms(Y[0] - Y[1]))
            om = om.double()
        multi_fit = fit_geometric_decay(np.arange(1, H4_MULTI_N + 1), dists)

    decided = (multi_fit.clauses if multi_fit is not None else
               [Clause("max_ratio_l2", max_l2, 1.0, max_l2 < 1.0)])
    return H4Report(max_ratio_l2=float(max_l2), max_ratio_sup=float(max_sup),
                    per_omega_max=per_omega, n_sampled=n_sampled,
                    n_skipped=skipped, v_violations=v_violations,
                    multi_step_fit=multi_fit,
                    clauses=[Clause("pairs_compared", compared, 1,
                                    compared > 0), *decided])


# ------------------------------------------------------------- H5 checker

@dataclass
class H5Report(_Verdict):
    c1: float
    c2: float
    ratios: list
    r0: float
    clauses: list


def check_H5(omega0, v01, v02, n_max=12):
    """Band stability of the two-mode norm ratio.

    The ratios are one pair_sup_norm of the rows of component_chains, off
    the section (norms are shift-invariant). Reports empirical band
    constants C1 = min, C2 = max of
    (||v_{n,2}||/||v_{n,1}||) / (||v_{0,2}||/||v_{0,1}||) for n = 1..n_max,
    so n_max < 1 raises ValueError. A zero start vector raises
    DegenerateScalingError, start vectors on two domains raise
    ConsistencyError, and a domain with n_fourier < 2, which holds no
    mode 2, raises TruncationError.
    """
    require_diophantine(omega0)
    if n_max < 1:
        raise ValueError(f"H5 needs n_max >= 1, got {n_max}")
    if v01.domain != v02.domain:
        raise ConsistencyError(f"H5 start vectors on two domains: v_(0,1) "
                               f"on {v01.domain}, v_(0,2) on {v02.domain}")
    for j, v0 in ((1, v01), (2, v02)):
        if v0.coeff_norm() == 0:
            raise DegenerateScalingError(
                f"H5 start vector v_(0,{j}) is 0, as from a zero mode-1 "
                "coupling")
    if v01.domain.n_fourier < 2:
        raise TruncationError(f"H5 walks mode 2, which n_fourier = "
                              f"{v01.domain.n_fourier} does not hold")
    norms = pair_sup_norm(v01.domain, component_chains(
        omega0, v01.embed(1) + v02.embed(2), n_max))
    r0 = norms[0, 1] / norms[0, 0]
    ratios = norms[1:, 1] / norms[1:, 0] / r0
    c1, c2 = float(np.min(ratios)), float(np.max(ratios))
    # c2 is bounded by the largest float: report.json cannot hold inf
    return H5Report(c1=c1, c2=c2, ratios=ratios.tolist(), r0=float(r0),
                    clauses=[Clause("c1", c1, 0.0, c1 > 0),
                             Clause("c2", c2, float(np.finfo(float).max),
                                    bool(np.isfinite(c2)))])


H5_MAX_N = 12     # H5 depth cap: the acceptance criterion runs H5 at 12


def _family_H5(c, omega0, n_max):
    """check_H5 for the family c, as observation 2 and the CLI run it: both
    start vectors are the mode-1 part of dv/deps at the stable-manifold
    parameter, and the depth is capped at H5_MAX_N. A mode-1 part of at
    most 1e-12 of dv/deps (coefficient norms) is rounding noise, not a
    start, and raises DegenerateScalingError."""
    v0 = c.dv_deps(stable_manifold_param(c))
    p0, norm1 = project_pik(v0, 1), row_norms(v0.modes[1])
    if norm1 <= 1e-12 * v0.coeff_norm():
        raise DegenerateScalingError(
            f"H5 starts from the mode-1 part of dv/deps, {norm1:.3g}"
            f" against {v0.coeff_norm():.3g} for all of it: the family's "
            "coupling has no mode-1 part")
    return check_H5(omega0, p0, p0, n_max=min(n_max, H5_MAX_N))


# --------------------------------------------- exact quotient decomposition

@dataclass
class QuotientFactorsReport:
    n: int
    q_n: float
    factor_u: float
    factor_m: float
    factor_norm: float
    product: float
    residual: float
    delta_gap: float
    norm_reference: float
    norm_gap: float


def quotient_factorization(family, omega0, n):
    """Three-factor form of q_n in fixed-point mode.

    q_n factors exactly as [L-quotient of the u-chains] * [normalized
    m-functional ratio] * [v-norm quotient]; the product must rebuild q_n
    to rounding, and the first factor converges to 1/delta. The norm of
    the final propagation step applied to the normalized previous vector
    is reported alongside the v-norm quotient for orientation; the two
    differ by a bounded cross-chain factor (the level-n and level-(n-1)
    recurrences do not share their middle bases).
    """
    if n < 2:
        raise ValueError("the decomposition needs n >= 2")
    # one pass: alpha* is one, so both chains start from one v_0
    (_, (ch_m,)), (_, (ch_n,)) = _slope_pass(
        [family], [(n - 1, (omega0,)), (n, (omega0,))], "fixed-point")

    L_n = DG1_hat(ch_n.psi_end, ch_n.u_end)
    L_m = DG1_hat(ch_m.psi_end, ch_m.u_end)
    nv_n, nv_m = sup_norm(ch_n.vs[-1]), sup_norm(ch_m.vs[-1])
    K_n = functional_K(ch_n.omega_end, ch_n.psi_end,
                       _unit_direction(ch_n.vs[-1], n))
    K_m = functional_K(ch_m.omega_end, ch_m.psi_end,
                       _unit_direction(ch_m.vs[-1], n - 1))

    q_n = (-nv_n * K_n / L_n) / (-nv_m * K_m / L_m)
    factor_u = L_m / L_n
    factor_m = K_n / K_m
    factor_norm = nv_n / nv_m
    product = factor_u * factor_m * factor_norm
    residual = abs(q_n - product) / abs(q_n)

    fp = feigenbaum_fixed_point(ch_n.psi_end.domain)
    delta_gap = abs(factor_u * fp.delta_feig - 1.0)

    # the last step is DT at f*_2, which is linear: its image of the
    # normalized v_{n-2} has the norm ||v_{n-1}|| / ||v_{n-2}||
    norm_reference = nv_n / sup_norm(ch_n.vs[-2])
    norm_gap = abs(factor_norm - norm_reference) / norm_reference

    return QuotientFactorsReport(n=n, q_n=float(q_n), factor_u=float(factor_u),
                           factor_m=float(factor_m),
                           factor_norm=float(factor_norm),
                           product=float(product), residual=float(residual),
                           delta_gap=float(delta_gap),
                           norm_reference=float(norm_reference),
                           norm_gap=float(norm_gap))
