"""Quasi-periodic doubling renormalization laboratory."""

import os as _os

# Cap the BLAS/OpenMP pools before numpy is pulled in below; explicit
# per-library settings in the environment win over the blanket knob.
_threads = _os.environ.get("QPRENORM_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .errors import (QPRenormError, DomainError, CompositionDomainError,
                     DegenerateScalingError, NoConvergenceError, SearchError,
                     InconsistencyError, MeshError, TruncationError,
                     NoSectionError, DegeneratePointError,
                     PrecisionExhaustedError, EscapeError, BasinError,
                     ExistenceError, ConsistencyError, DiophantineError,
                     ForcingParseError)
from .funcspace import (DomainConfig, AnalyticFn, QPFn, PairFn, compose_fiber,
                        project_p0, project_pik, shift_tgamma, sup_norm,
                        eval_qpfn)
from .renorm1d import (UnimodalMap, FamilySpec, renormalize_1d, in_domain_R,
                       l1_matrix, l2_matrix, dr_matrix, solve_fixed_point,
                       feigenbaum_fixed_point, check_H0, superstable_params,
                       stable_manifold_param, unstable_manifold_points)
from .qprenorm import (RotationNumber, SectionConfig, require_diophantine,
                       apply_T, apply_DT, build_L_omega, rotation_matrix,
                       spectrum_L_omega, gamma_normalize, apply_L_prime)
from .curvedyn import (iterate_fiber, solve_invariant_curve, fiber_product, G1,
                       G1_hat, DG1_hat, DG1, functional_K, extremum_m,
                       extremum_M, slope_chain, slope_formula,
                       locate_reducibility_loss, direct_slope, flm_family)
from .asymptotics import (EquivalenceFit, fit_geometric_decay, slope_table,
                          quotient_sequence, mixed_quotient_sequence,
                          observation1, renormalized_family,
                          renorm_identity_gap, observation2, flm_eta_family,
                          observation3, check_H3, H4Report, check_H4,
                          check_H5, quotient_factorization)
