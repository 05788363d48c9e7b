"""Headline numbers against the truncation orders.

A number that moves when n_cheb or n_fourier changes is truncation or
rounding, not mathematics. Each gate solves on several domains and bounds
the spread; a failure prints the per-domain values and the Chebyshev tails
of the maps involved, so truncation and rounding can be told apart.
"""

import numpy as np
import pytest

from qprenorm_lab import (DomainConfig, RotationNumber, feigenbaum_fixed_point,
                          flm_family, slope_chain, slope_formula,
                          stable_manifold_param)
from qprenorm_lab.errors import InconsistencyError

# delta to 15 digits (independent high-precision computations)
DELTA = 4.669201609102990


def _tail(psi, k=6):
    """Largest modulus among the last k Chebyshev coefficients."""
    return float(np.max(np.abs(psi.coeffs[-k:])))


def test_delta_does_not_depend_on_n_cheb():
    report = {}
    for n in range(24, 65):
        fp = feigenbaum_fixed_point(DomainConfig(n_cheb=n))
        report[n] = (abs(fp.delta_feig - DELTA), _tail(fp.phi.psi))
    bad = {n: r for n, r in report.items() if r[0] > 5e-12}
    assert not bad, f"n_cheb: (|delta - DELTA|, tail) = {bad}"


def test_alpha_star_certifies_at_every_n_cheb():
    # the extrapolation reads the raw-map cascade alone; the escape
    # certificate renormalizes on the domain, and must not rest on the side
    # rounding gives s_N, which N - 1 renormalizations put on Sigma_1
    report = {}
    for n in range(24, 65, 2):
        fam = flm_family(domain=DomainConfig(n_cheb=n))
        try:
            report[n] = float(stable_manifold_param(fam))
        except InconsistencyError as e:   # report every order
            report[n] = str(e)
    assert len(set(report.values())) == 1, f"n_cheb: alpha* = {report}"


@pytest.mark.parametrize("n", [3, 5, 7])
def test_exact_orbit_slopes_do_not_depend_on_truncation(n):
    golden = RotationNumber.golden()
    slopes, tails = {}, {}
    for n_cheb, n_fourier in ((40, 16), (48, 20), (56, 24)):
        dom = DomainConfig(n_cheb=n_cheb, n_fourier=n_fourier)
        fam = flm_family(domain=dom)
        slopes[n_cheb, n_fourier], _ = slope_formula(fam, golden, n)
        # the polished parameter is memoized, so this reruns only the chain
        tails[n_cheb, n_fourier] = _tail(
            slope_chain(fam, golden, n).psi_end.psi)
    ref = slopes[40, 16]
    spread = max(abs(s - ref) for s in slopes.values()) / abs(ref)
    assert spread <= 1e-9, f"alpha'_{n}: {slopes}, end-map tails {tails}"
