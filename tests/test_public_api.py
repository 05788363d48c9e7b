"""The package's public surface: the names `import qprenorm_lab` exports.

Pinned so that a name is added or dropped on purpose, never by accident.
"""

import types

import qprenorm_lab

PUBLIC_NAMES = [
    "AnalyticFn", "BasinError", "CompositionDomainError", "ConsistencyError",
    "DG1", "DG1_hat", "DegeneratePointError", "DegenerateScalingError",
    "DiophantineError", "DomainConfig", "DomainError", "EquivalenceFit",
    "EscapeError", "ExistenceError", "FamilySpec", "ForcingParseError", "G1",
    "G1_hat", "H4Report", "InconsistencyError", "MeshError",
    "NoConvergenceError", "NoSectionError", "PairFn",
    "PrecisionExhaustedError", "QPFn", "QPRenormError", "RotationNumber",
    "SearchError", "SectionConfig", "TruncationError", "UnimodalMap",
    "UnsupportedBaseError", "apply_DT", "apply_L_prime", "apply_T",
    "build_L_omega", "check_H0", "check_H3", "check_H4", "check_H5",
    "compose_fiber", "direct_slope", "dr_matrix", "eval_qpfn", "extremum_M",
    "extremum_m", "feigenbaum_fixed_point", "fiber_product",
    "fit_geometric_decay", "flm_eta_family", "flm_family", "functional_K",
    "gamma_normalize", "in_domain_R", "iterate_fiber", "l1_matrix",
    "l2_matrix", "locate_reducibility_loss", "mixed_quotient_sequence",
    "observation1", "observation2", "observation3", "project_p0",
    "project_pik", "quotient_factorization", "quotient_sequence",
    "renorm_identity_gap", "renormalize_1d", "renormalized_family",
    "require_diophantine", "rotation_matrix", "shift_tgamma", "slope_chain",
    "slope_formula", "slope_table", "solve_fixed_point",
    "solve_invariant_curve", "spectrum_L_omega", "stable_manifold_param",
    "sup_norm", "superstable_params", "unstable_manifold_points",
]


def test_public_names_are_pinned():
    # submodules become package attributes once imported anywhere, so they
    # are not part of the pinned list
    names = sorted(n for n, v in vars(qprenorm_lab).items()
                   if not n.startswith("_")
                   and not isinstance(v, types.ModuleType))
    assert names == sorted(PUBLIC_NAMES)
