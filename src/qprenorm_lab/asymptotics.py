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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegeneratePointError, NoSectionError
from .funcspace import (AnalyticFn, DomainConfig, PairFn, pair_sup_norm,
                        project_pik, sup_norm)
from .qprenorm import (RotationNumber, SectionConfig, apply_DT, apply_T,
                       build_L_omega, gamma_normalize, l_prime_rows,
                       normalize_pair, require_diophantine, row_norms)
from .renorm1d import (FamilySpec, dr_matrix, feigenbaum_fixed_point,
                       stable_manifold_param, superstable_params)
from .curvedyn import (DG1_hat, flm_family, functional_K, slope_chain,
                       slope_formula)


# ------------------------------------------------------ quotient sequences

MAX_SPREAD = 1.0      # decades the fit residuals may spread over


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
class EquivalenceFit:
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

    def passes(self):
        """Decay must be statistically real: even the two-sigma upper
        bound of rho stays below 1 (a flat sequence fits to rho just
        under 1 by chance), and the points hug the line (residuals spread
        over less than MAX_SPREAD decades)."""
        if self.trivial:
            return True
        return 0.0 < self.rho_hat_hi < 1.0 and self.spread_decades < MAX_SPREAD


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
        return EquivalenceFit(rho_hat=0.0, k0_hat=0.0, ns=list(ns),
                              log10_residuals=[], trivial=True)
    keep = d > 1e-15 * scale
    ns_k, d_k = ns[keep], d[keep]
    if ns_k.size < 2:
        return EquivalenceFit(rho_hat=0.0, k0_hat=scale, ns=list(ns_k),
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
    table = {}
    for n in range(1, n_max + 1):
        table[n] = slope_formula(family, omega0, n, mode=mode)
    return table


def quotient_sequence(table):
    """q_n = alpha'_n / alpha'_(n-1) for n = 2..n_max of a slope_table."""
    entries = [(n, table[n][0] / table[n - 1][0])
               for n in range(2, len(table) + 1)]
    return QuotientSequence(entries=entries)


def mixed_quotient_sequence(family, omega0, n_max, mode="fixed-point"):
    """r_n = alpha'_n(omega0) / alpha'_{n-1}(2 omega0) for n = 2..n_max."""
    tab1 = slope_table(family, omega0, n_max, mode=mode)
    tab2 = slope_table(family, omega0.double(), n_max - 1, mode=mode)
    entries = [(n, tab1[n][0] / tab2[n - 1][0]) for n in range(2, n_max + 1)]
    return QuotientSequence(entries=entries), tab1, tab2


def _overlap_gaps(families, omega0, window, fixed_tables):
    """Relative gap of q_n between exact-orbit and fixed-point modes.

    The observation drivers run whole sequences in fixed-point mode; on the
    overlap window both modes are computed and the quotients must agree.
    """
    lo, hi = window
    gaps = {}
    for fam, tab_fixed in zip(families, fixed_tables):
        tab_exact = slope_table(fam, omega0, hi, mode="exact-orbit")
        for n in range(max(2, lo), hi + 1):
            qe = tab_exact[n][0] / tab_exact[n - 1][0]
            qf = tab_fixed[n][0] / tab_fixed[n - 1][0]
            g = abs(qe - qf) / abs(qe)
            gaps[n] = max(g, gaps.get(n, 0.0))
    return gaps


# ----------------------------------------------------------- observation 1

@dataclass
class Obs1Report:
    fit: EquivalenceFit
    seq1: QuotientSequence
    seq2: QuotientSequence
    overlap_gaps: dict
    overlap_ok: bool
    passed: bool


OVERLAP_WINDOW = (4, 6)
OVERLAP_TOL = 0.05


def observation1(c1, c2, omega0, n_max=10):
    """Family independence of q_n for forcing in the first harmonic.

    Both quotient sequences are computed in fixed-point mode and the decay
    of their difference is fitted; PASS needs rho_hat < 1 with the fit
    residuals spread over less than a decade. On the overlap window
    OVERLAP_WINDOW the exact-orbit quotients must match the fixed-point
    ones within OVERLAP_TOL (measured gaps are about 1e-2 or less).
    """
    require_diophantine(omega0)
    tab1 = slope_table(c1, omega0, n_max, mode="fixed-point")
    tab2 = slope_table(c2, omega0, n_max, mode="fixed-point")
    seq1 = quotient_sequence(tab1)
    seq2 = quotient_sequence(tab2)
    diffs = seq1.values() - seq2.values()
    fit = fit_geometric_decay(seq1.ns(), diffs)

    window = (max(OVERLAP_WINDOW[0], 2), min(OVERLAP_WINDOW[1], n_max))
    gaps = _overlap_gaps([c1, c2], omega0, window, [tab1, tab2])
    overlap_ok = all(g <= OVERLAP_TOL for g in gaps.values())
    return Obs1Report(fit=fit, seq1=seq1, seq2=seq2, overlap_gaps=gaps,
                      overlap_ok=overlap_ok,
                      passed=fit.passes() and overlap_ok)


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

    Its parameter derivatives are the chain rule of T_omega at the
    theta-independent slice psi0(alpha) of the parent: DR(psi0) du for
    alpha and DT(psi0) dv for eps.

    (R psi)^(2^k)(0) = psi^(2^(k+1))(0) / psi(1), so the superstable
    parameters of the new family are the parent's shifted one level down,
    s_k(T c) = s_(k+1)(c). The family stores s_1..s_n of the parent as its
    own s_0..s_(n-1) and has no raw map, so these are all the levels it
    has: a grid scan would step on parameters where T_omega c is not
    defined.
    """
    def du_dalpha(alpha):
        psi = family.psi0(alpha)
        u = family.du_dalpha(alpha).coeffs
        return AnalyticFn(dr_matrix(psi) @ u, psi.domain)

    fam = FamilySpec(
        name=family.name + "_T",
        evaluator=lambda a, e: apply_T(family.evaluator(a, e), omega),
        du_dalpha=du_dalpha,
        dv_deps=lambda a: apply_DT(family.psi0(a), omega, family.dv_deps(a)),
        alpha_box=family.alpha_box)
    fam._cache["superstable"] = [
        float(x) for x in superstable_params(family, n)[1:]]
    return fam


def renorm_identity_gap(family, omega0, i):
    """Relative gap in alpha'_i(omega, c) = alpha'_{i-1}(2 omega, T_omega c)."""
    lhs, _ = slope_formula(family, omega0, i, mode="exact-orbit")
    fam_T = renormalized_family(family, omega0, i)
    rhs, _ = slope_formula(fam_T, omega0.double(), i - 1, mode="exact-orbit")
    return abs(lhs - rhs) / abs(lhs)


@dataclass
class Obs2Report:
    seq: QuotientSequence
    cauchy_diffs: dict
    cauchy_decreasing: bool
    limit_estimate: float
    limit_prev: float
    limit_stable_3digits: bool
    bounded_ratio_min: float
    bounded_ratio_max: float
    h5_band: tuple
    identity_gaps: dict
    passed: bool


IDENTITY_LEVELS = (2, 3)


def observation2(c, omega0, n_max=10, mode="exact-orbit"):
    """Convergence of the mixed quotient r_n = alpha'_n(w)/alpha'_{n-1}(2w).

    Reports the Cauchy differences |r_n - r_{n-1}| (required decreasing
    from n = 4 on), an Aitken limit estimate with a 3-significant-digit
    stability comparison against the one-shorter window, the boundedness
    diagnostic alpha'_n(w)/alpha'_n(2w), the two-chain norm-ratio band, and
    the one-step renormalization identity at the levels IDENTITY_LEVELS
    (relative gap at most 1e-10).

    Runs the slope chains on the exact orbit by default: the chain
    propagation is linear in n, the dominant 2^n work sits in cheap 1-D
    orbit evaluations, and the mixed quotient converges monotonically
    there, while the fixed-point tails make it oscillate in pairs.

    The Aitken limits need r_2..r_4, so n_max < 4 raises ValueError.
    """
    require_diophantine(omega0)
    if n_max < 4:
        raise ValueError(f"observation 2 needs n_max >= 4, got {n_max}")
    seq, tab1, tab2 = mixed_quotient_sequence(c, omega0, n_max, mode=mode)
    r = dict(zip(seq.ns(), seq.values()))

    cauchy = {n: abs(r[n] - r[n - 1]) for n in range(3, n_max + 1)}
    dec_ns = [n for n in sorted(cauchy) if n >= 4]
    decreasing = all(cauchy[b] < cauchy[a]
                     for a, b in zip(dec_ns, dec_ns[1:]))

    vals = [r[n] for n in sorted(r)]
    limit = _aitken(vals)
    limit_prev = _aitken(vals[:-1]) if len(vals) >= 4 else limit
    stable = abs(limit - limit_prev) <= 5e-4 * max(1.0, abs(limit))

    b = [tab1[n][0] / tab2[n][0] for n in range(1, n_max)]
    b_abs = np.abs(b)

    v0 = c.dv_deps(stable_manifold_param(c))
    p0 = project_pik(v0, 1)
    h5 = check_H5(omega0, p0, p0, n_max=min(n_max, 12))

    gaps = {i: renorm_identity_gap(c, omega0, i) for i in IDENTITY_LEVELS}
    identity_ok = all(g <= 1e-10 for g in gaps.values())

    return Obs2Report(seq=seq, cauchy_diffs=cauchy,
                      cauchy_decreasing=decreasing,
                      limit_estimate=float(limit),
                      limit_prev=float(limit_prev),
                      limit_stable_3digits=bool(stable),
                      bounded_ratio_min=float(np.min(b_abs)),
                      bounded_ratio_max=float(np.max(b_abs)),
                      h5_band=(h5.c1, h5.c2),
                      identity_gaps=gaps,
                      passed=bool(decreasing and stable and identity_ok))


# ----------------------------------------------------------- observation 3

def flm_eta_family(eta, domain=DomainConfig()):
    """Forced logistic family with forcing cos(2 pi t) + eta cos(4 pi t)."""
    def g(theta, x):
        t = 2.0 * np.pi * np.asarray(theta)
        return (np.cos(t) + eta * np.cos(2 * t)) * np.ones_like(x)
    return flm_family(g=g, domain=domain, name=f"flm_eta{eta:g}")


def component_chains(omega0, v01, v02, n_max):
    """The two-mode chain (v_{k,1}, v_{k,2}) for k = 0..n_max.

    v_{k,1} advances under the mode-1 operator at the fixed point and
    v_{k,2} under the mode-2 one, along the omega-doubling sequence.
    Returns the two lists. The chain stays off the section: the shift
    commutes with each mode operator, so callers that compare directions
    shift the vectors they compare.
    """
    fp = feigenbaum_fixed_point(v01.u.domain)
    chain1, chain2 = [v01], [v02]
    om = omega0
    for _ in range(n_max):
        chain1.append(build_L_omega(fp.phi, om, 1).apply(chain1[-1]))
        chain2.append(build_L_omega(fp.phi, om, 2).apply(chain2[-1]))
        om = om.double()
    return chain1, chain2


def _on_section(v, section):
    """t_gamma v on the section; v itself when its mode-1 part is zero to
    rounding (the shift is then undefined and v has no direction to fix)."""
    if project_pik(v, 1).coeff_norm() <= 1e-12 * max(1.0, v.coeff_norm()):
        return v
    return gamma_normalize(v, section)[1]


@dataclass
class Obs3Report:
    etas: tuple
    deviations: dict
    sup_deviations: dict
    scale_factor: float
    scale_ok: bool
    bound_C: float
    bound_margins: dict
    bound_ok: bool
    nonequiv_fit: EquivalenceFit
    nonequiv: bool
    passed: bool


def observation3(omega0, etas=(1e-3, 1e-2), n_max=10,
                 section=SectionConfig(), domain=DomainConfig()):
    """eta-perturbation study: a second harmonic breaks universality.

    For each eta the full quotient sequence of the two-harmonic family is
    compared against eta = 0. The deviations should scale linearly in eta
    (the two-eta ratio matches the eta ratio within a factor 3) while NOT
    decaying geometrically in n for fixed eta > 0. The two-component
    recurrences provide the direction-deviation bound 2 C eta / (1 - C eta)
    with C estimated from the norm-ratio band. The two directions compared
    at each level are put on the section first; they share their mode-1
    part, and with it the shift. Every family lives on `domain`. An empty
    etas raises ValueError.
    """
    require_diophantine(omega0)
    if not etas:
        raise ValueError("observation 3 needs at least one eta")
    tables = {}
    for eta in (0.0,) + tuple(etas):
        fam = flm_eta_family(eta, domain)
        tables[eta] = quotient_sequence(slope_table(fam, omega0, n_max))
    base = dict(zip(tables[0.0].ns(), tables[0.0].values()))

    deviations, sup_dev = {}, {}
    for eta in etas:
        cur = dict(zip(tables[eta].ns(), tables[eta].values()))
        deviations[eta] = {n: abs(cur[n] - base[n]) for n in base}
        sup_dev[eta] = max(deviations[eta].values())

    pos = sorted(e for e in etas if e > 0.0)
    if len(pos) >= 2:
        e1, e2 = pos[0], pos[-1]
        scale = (sup_dev[e2] / sup_dev[e1]) / (e2 / e1)
        scale_ok = 1.0 / 3.0 <= scale <= 3.0
    else:
        e2 = pos[0] if pos else None
        scale, scale_ok = 1.0, True

    # component bookkeeping at unit eta; everything is linear in v02
    fam1 = flm_eta_family(1.0, domain)
    alpha_star = stable_manifold_param(fam1)
    v0 = fam1.dv_deps(alpha_star)
    v01, v02 = project_pik(v0, 1), project_pik(v0, 2)
    chain1, chain2 = component_chains(omega0, v01, v02, n_max - 1)
    ratios = [c2.sup_norm() / c1.sup_norm()
              for c1, c2 in zip(chain1, chain2)]
    C = max(ratios)           # ||v_{n,2}||/||v_{n,1}|| <= C eta by linearity

    bound_margins = {}
    bound_ok = True
    for eta in etas:
        if C * eta >= 1.0:
            bound_ok = False
            continue
        allowed = 2.0 * C * eta / (1.0 - C * eta)
        worst = 0.0
        for c1, c2 in zip(chain1, chain2):
            vn = _on_section(c1.embed(1) + (c2 * eta).embed(2), section)
            v1n = _on_section(c1.embed(1), section)
            gap = sup_norm(vn * (1.0 / sup_norm(vn))
                           - v1n * (1.0 / sup_norm(v1n)))
            worst = max(worst, gap)
        bound_margins[eta] = (worst, allowed)
        bound_ok = bound_ok and worst <= allowed

    if e2 is not None:
        dev_big = deviations[e2]
        fit = fit_geometric_decay(sorted(dev_big),
                                  [dev_big[n] for n in sorted(dev_big)])
        tail = [dev_big[n] for n in sorted(dev_big)[-3:]]
        nonequiv = (not fit.passes()) or min(tail) >= 0.05 * sup_dev[e2]
    else:
        # degenerate eta = 0 run: PASS means the deviations vanish exactly
        fit = fit_geometric_decay([], [])
        nonequiv = all(d == 0.0 for d in sup_dev.values())

    return Obs3Report(etas=tuple(etas), deviations=deviations,
                      sup_deviations=sup_dev, scale_factor=float(scale),
                      scale_ok=scale_ok, bound_C=float(C),
                      bound_margins=bound_margins, bound_ok=bound_ok,
                      nonequiv_fit=fit, nonequiv=nonequiv,
                      passed=bool(scale_ok and bound_ok and nonequiv))


# ------------------------------------------------------------- H3 checker

@dataclass
class H3Report:
    fit: EquivalenceFit
    direction_gaps: dict
    c_floor: float
    c0_floor: float
    passed: bool


def check_H3(c, omega0, n_max=8, section=SectionConfig()):
    """Direction equivalence of the exact-orbit and fixed-point chains.

    For each n both chains are run to their final vectors, which are put on
    the section before they are compared: the chains themselves leave the
    rotation free. The normalized vectors' difference should decay
    geometrically in n. Also reports the two floors the theory needs:
    min ||v_{n-1}|| over the fixed-point chains, and the minimum of
    |m(DG1 at the final section map, applied to the normalized direction)|.
    n_max < 2 raises ValueError.
    """
    require_diophantine(omega0)
    if n_max < 2:
        raise ValueError(f"H3 needs n_max >= 2, got {n_max}")
    gaps, norms, m_floors = {}, [], []
    for n in range(2, n_max + 1):
        ch_e = slope_chain(c, omega0, n, mode="exact-orbit")
        ch_f = slope_chain(c, omega0, n, mode="fixed-point")
        ve = _on_section(ch_e.vs[-1], section)
        vf = _on_section(ch_f.vs[-1], section)
        ve_hat = ve * (1.0 / sup_norm(ve))
        vf_hat = vf * (1.0 / sup_norm(vf))
        gaps[n] = sup_norm(ve_hat - vf_hat)
        norms.append(sup_norm(vf))
        m_floors.append(abs(functional_K(ch_f.omega_end, ch_f.psi_end,
                                         vf_hat)))
    fit = fit_geometric_decay(sorted(gaps), [gaps[n] for n in sorted(gaps)])
    c_floor = float(np.min(norms))
    c0_floor = float(np.min(m_floors))
    return H3Report(fit=fit, direction_gaps=gaps, c_floor=c_floor,
                    c0_floor=c0_floor,
                    passed=bool(fit.passes() and c_floor > 0
                                and c0_floor > 0))


# ------------------------------------------------------------- H4 checker

def _dominant_direction(psi, omega, section=SectionConfig()):
    """Unit vector on the section spanning the leading invariant plane."""
    op = build_L_omega(psi, omega, 1)
    lam, vecs = np.linalg.eig(op.matrix)
    w = vecs[:, np.argmax(np.abs(lam))]
    vec = np.real(w)
    if np.linalg.norm(vec) < 1e-8 * np.linalg.norm(w):
        vec = np.imag(w)
    _, p = normalize_pair(PairFn.from_coeff_vector(psi.domain, vec), section)
    return p * (1.0 / p.coeff_norm())


@dataclass
class H4Report:
    max_ratio_l2: float
    max_ratio_sup: float
    per_omega_max: dict
    n_sampled: int
    n_skipped: int
    v_violations: int
    multi_step_fit: Optional[EquivalenceFit]
    passed: bool


H4_RADIUS = 0.5
H4_OMEGAS = tuple(RotationNumber.from_fraction(2 * k + 1, 128)
                  for k in range(64))
H4_MULTI_N = 8        # steps of the multi-step fit


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
    instead (the relaxed criterion K rho^n).

    For each omega, L_omega is built once and all samples are stepped as
    one block of coefficient rows (l_prime_rows); a pair with an image
    off the section counts once in n_skipped.
    """
    if psi is None:
        psi = feigenbaum_fixed_point(DomainConfig()).phi
    dom = psi.domain
    # the dominant direction needs the value of golden, not its certificate
    e0 = _dominant_direction(psi, RotationNumber.golden(q_max=0), section)
    e0_vec = e0.coeff_vector()
    dim = e0_vec.size

    radius = H4_RADIUS
    rng = np.random.default_rng(seed)
    samples = []
    attempts = 0
    while len(samples) < 2 * n_pairs and attempts < 20 * n_pairs:
        attempts += 1
        w = rng.standard_normal(dim)
        w *= radius * 0.98 * rng.random() ** (1.0 / dim) / np.linalg.norm(w)
        cand = e0_vec + w
        cand /= np.linalg.norm(cand)
        try:
            _, p = normalize_pair(PairFn.from_coeff_vector(dom, cand), section)
        except (NoSectionError, DegeneratePointError):
            continue
        p = p * (1.0 / p.coeff_norm())
        if np.linalg.norm(p.coeff_vector() - e0_vec) <= radius:
            samples.append(p.coeff_vector())
    n_used = 2 * (len(samples) // 2)
    X = np.array(samples[:n_used]).reshape(n_used, dim)

    def step(Y, om):
        """Rows v -> t_gamma(L_omega v) / || ||, with per-row errors."""
        F, errors = l_prime_rows(build_L_omega(psi, om, 1).matrix, Y, dom,
                                 section)
        ok = [e is None for e in errors]
        F[ok] = F[ok] * (1.0 / row_norms(F[ok]))[:, None]
        return F, errors

    # pair i is (X[2i], X[2i + 1]); its distances do not depend on omega
    den_l2 = row_norms(X[0::2] - X[1::2])
    n = dom.n_cheb
    den_sup = [pair_sup_norm(dom, d[:n], d[n:]) for d in X[0::2] - X[1::2]]
    per_omega, skipped, v_violations = {}, 0, 0
    max_l2 = max_sup = 0.0
    for om in H4_OMEGAS:
        F, errors = step(X, om)
        pairs = [i for i in range(n_used // 2)
                 if errors[2 * i] is None and errors[2 * i + 1] is None]
        skipped += n_used // 2 - len(pairs)
        rows = [j for i in pairs for j in (2 * i, 2 * i + 1)]
        v_violations += int(np.sum(row_norms(F[rows] - e0_vec) > radius))
        num = F[0::2] - F[1::2]
        num_l2 = row_norms(num)
        worst_l2 = 0.0
        for i in pairs:
            if den_l2[i] < 1e-14:
                continue
            num_sup = pair_sup_norm(dom, num[i, :n], num[i, n:])
            worst_l2 = max(worst_l2, num_l2[i] / den_l2[i])
            max_sup = max(max_sup, num_sup / max(den_sup[i], 1e-300))
        per_omega[float(om)] = worst_l2
        max_l2 = max(max_l2, worst_l2)

    multi_fit = None
    if max_l2 >= 1.0 and n_used:
        Y = X[:2]
        om = H4_OMEGAS[0]
        dists = []
        for _ in range(H4_MULTI_N):
            Y, errors = step(Y, om)
            for e in errors:
                if e is not None:
                    raise e
            dists.append(np.linalg.norm(Y[0] - Y[1]))
            om = om.double()
        multi_fit = fit_geometric_decay(np.arange(1, H4_MULTI_N + 1), dists)

    passed = max_l2 < 1.0 or (multi_fit is not None and multi_fit.passes())
    return H4Report(max_ratio_l2=float(max_l2), max_ratio_sup=float(max_sup),
                    per_omega_max=per_omega, n_sampled=len(samples),
                    n_skipped=skipped, v_violations=v_violations,
                    multi_step_fit=multi_fit, passed=bool(passed))


# ------------------------------------------------------------- H5 checker

@dataclass
class H5Report:
    c1: float
    c2: float
    ratios: list
    r0: float
    passed: bool


def check_H5(omega0, v01, v02, n_max=12):
    """Band stability of the two-mode norm ratio.

    The ratios are read off component_chains, which leaves the chain off
    the section (norms are shift-invariant). Reports empirical band
    constants C1 = min, C2 = max of
    (||v_{n,2}||/||v_{n,1}||) / (||v_{0,2}||/||v_{0,1}||) for n = 1..n_max,
    so n_max < 1 raises ValueError.
    """
    require_diophantine(omega0)
    if n_max < 1:
        raise ValueError(f"H5 needs n_max >= 1, got {n_max}")
    if v01.coeff_norm() == 0 or v02.coeff_norm() == 0:
        raise ValueError("both starting vectors must be nonzero")
    chain1, chain2 = component_chains(omega0, v01, v02, n_max)
    r0 = v02.sup_norm() / v01.sup_norm()
    ratios = [(c2.sup_norm() / c1.sup_norm()) / r0
              for c1, c2 in zip(chain1[1:], chain2[1:])]
    c1, c2 = float(np.min(ratios)), float(np.max(ratios))
    return H5Report(c1=c1, c2=c2, ratios=[float(r) for r in ratios],
                    r0=float(r0), passed=bool(c1 > 0 and np.isfinite(c2)))


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
    ch_n = slope_chain(family, omega0, n, mode="fixed-point")
    ch_m = slope_chain(family, omega0, n - 1, mode="fixed-point")

    L_n = DG1_hat(ch_n.psi_end, ch_n.u_end)
    L_m = DG1_hat(ch_m.psi_end, ch_m.u_end)
    nv_n, nv_m = sup_norm(ch_n.vs[-1]), sup_norm(ch_m.vs[-1])
    K_n = functional_K(ch_n.omega_end, ch_n.psi_end,
                       ch_n.vs[-1] * (1.0 / nv_n))
    K_m = functional_K(ch_m.omega_end, ch_m.psi_end,
                       ch_m.vs[-1] * (1.0 / nv_m))

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
