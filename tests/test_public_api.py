"""The package's public surface: the names `import qprenorm_lab` exports
and the parameters of its functions.

Pinned so that a name or a parameter is added or dropped on purpose, never
by accident.
"""

import inspect
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
    "apply_DT", "apply_L_prime", "apply_T",
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


# parameter names, in order, of every exported function
PARAMETERS = {
    "DG1": ("psi", "omega", "v"),
    "DG1_hat": ("psi", "u"),
    "G1": ("f", "omega", "curve"),
    "G1_hat": ("psi",),
    "apply_DT": ("base", "omega", "v"),
    "apply_L_prime": ("psi", "omega", "v", "section"),
    "apply_T": ("g", "omega"),
    "build_L_omega": ("psi", "omega", "k"),
    "check_H0": ("fp",),
    "check_H3": ("c", "omega0", "n_max", "section"),
    "check_H4": ("psi", "n_pairs", "seed", "section"),
    "check_H5": ("omega0", "v01", "v02", "n_max"),
    "compose_fiber": ("g", "shift", "inner", "scale"),
    "direct_slope": ("family", "omega0", "n", "eps", "branch"),
    "dr_matrix": ("psi",),
    "eval_qpfn": ("f", "theta", "x"),
    "extremum_M": ("vals",),
    "extremum_m": ("vals",),
    "fiber_product": ("f", "omega", "curve"),
    "fit_geometric_decay": ("ns", "diffs"),
    "flm_eta_family": ("eta", "domain"),
    "flm_family": ("g", "domain", "name"),
    "functional_K": ("omega", "psi", "v"),
    "gamma_normalize": ("v", "section"),
    "in_domain_R": ("psi",),
    "iterate_fiber": ("f", "omega", "n", "theta", "x"),
    "l1_matrix": ("psi",),
    "l2_matrix": ("psi",),
    "locate_reducibility_loss": ("family", "omega0", "n", "eps", "branch"),
    "mixed_quotient_sequence": ("family", "omega0", "n_max", "mode"),
    "observation1": ("c1", "c2", "omega0", "n_max"),
    "observation2": ("c", "omega0", "n_max", "mode"),
    "observation3": ("omega0", "etas", "n_max", "section", "domain"),
    "project_p0": ("f",),
    "project_pik": ("f", "k"),
    "quotient_factorization": ("family", "omega0", "n"),
    "quotient_sequence": ("table",),
    "renorm_identity_gap": ("family", "omega0", "i"),
    "renormalize_1d": ("psi", "check_domain"),
    "renormalized_family": ("family", "omega", "n"),
    "require_diophantine": ("omega",),
    "rotation_matrix": ("n_cheb", "gamma"),
    "shift_tgamma": ("f", "gamma"),
    "slope_chain": ("family", "omega0", "n", "mode"),
    "slope_formula": ("family", "omega0", "n", "mode"),
    "slope_table": ("family", "omega0", "n_max", "mode"),
    "solve_fixed_point": ("initial",),
    "solve_invariant_curve": ("f", "omega", "n", "guess", "M"),
    "spectrum_L_omega": ("op",),
    "stable_manifold_param": ("family",),
    "sup_norm": ("f",),
    "superstable_params": ("family", "n_max"),
    "unstable_manifold_points": ("fp", "j_max"),
}


def test_function_parameters_are_pinned():
    functions = {n: v for n, v in vars(qprenorm_lab).items()
                 if n in PUBLIC_NAMES and inspect.isfunction(v)}
    assert sorted(functions) == sorted(PARAMETERS)
    for name, fn in functions.items():
        assert tuple(inspect.signature(fn).parameters) == PARAMETERS[name], \
            name
