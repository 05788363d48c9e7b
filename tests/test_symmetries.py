"""Symmetries of the slopes (alpha'_n, beta'_n) under changes of the coupling.

The slopes are read off DG1 v at the end of a chain whose bases do not
depend on theta, so the map g -> (alpha'_n, beta'_n) inherits four exact
relations of the coupling g(theta, x):

- amplitude: lambda g scales both slopes by lambda > 0;
- phase: g(theta + c) has the slopes of g (the extrema over theta move,
  their values do not);
- sign: alpha'(-g) = -beta'(g), since the minimum of -DG1 v is minus its
  maximum;
- k-fold cover: a coupling in the single mode k at omega has the slopes of
  the same coupling in mode 1 at k omega mod 1;
- reflection: an even coupling, g(-theta, x) = g(theta, x), has the same
  slopes at 1 - omega as at omega, since DG1 v is then reflected in theta;
- superposition: v_0 = dv/deps is linear in g and the chain's steps are
  linear maps at bases that do not read g, so the DG1 values at the
  chain's end are linear in g.

Couplings come from the forcing grammar: x-polynomials times cos or sin of
2 pi k theta, k <= 5, one term per waveform and mode. Every relation holds
to 1e-12 relative.

Each coefficient is 0 or between 1e-100 and 2 in size. extremum_m judges
a minimum flat against 1e-10 max |vals|, a floor relative to the values,
so the extremum search is itself homogeneous: a coupling of size 1e-90
has the slopes of the unit coupling scaled by 1e-90.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qprenorm_lab import (DG1, RotationNumber, flm_family, slope_chain,
                          slope_formula)
from qprenorm_lab.cli import parse_forcing

REL = 1e-12
GOLDEN = RotationNumber.golden()

_COEFF = st.one_of(st.just(0.0), st.floats(1e-100, 2.0),
                   st.floats(-2.0, -1e-100))
_POLY = st.lists(_COEFF, min_size=1, max_size=3)
# (x-polynomial, waveform, mode): one term of the forcing grammar
_TERMS = st.lists(st.tuples(_POLY, st.sampled_from(["cos", "sin"]),
                            st.integers(1, 5)),
                  min_size=1, max_size=3, unique_by=lambda t: t[1:])
_LEVEL = st.integers(1, 6)
_MODE = st.sampled_from(["exact-orbit", "fixed-point"])


def _expr(terms):
    return " + ".join(f"[{','.join(map(repr, poly))}]*{trig}({k}w)"
                      for poly, trig, k in terms)


def _slopes(terms, n, mode, omega=GOLDEN, scale=1.0):
    g, _ = parse_forcing(_expr(terms))
    fam = flm_family(g=lambda theta, x: scale * g(theta, x))
    return slope_formula(fam, omega, n, mode=mode)


def _dg1_at_chain_end(g, n, mode):
    ch = slope_chain(flm_family(g=g), GOLDEN, n, mode=mode)
    return DG1(ch.psi_end, ch.omega_end, ch.vs[-1])


def _assert_close(got, want):
    assert got == pytest.approx(want, rel=REL, abs=0.0)


# a coupling of size 1e-8, which an absolute flatness floor misjudges
_SMALL = [([1e-8], "cos", 1)]
# three minima of cos(6 pi theta) that a 1e-11 first mode splits by far
# less than the grid's discretization error, so the grid argmin's basin
# depends on the phase and the global minimum needs every basin refined
_NEAR_TIED = [([1e-11], "cos", 1), ([-1.0], "cos", 3)]


@settings(max_examples=25, deadline=None)
@given(_TERMS, _LEVEL, _MODE, st.floats(0.1, 10.0))
@example(_SMALL, 1, "exact-orbit", 10.0)
def test_amplitude_scales_the_slopes(terms, n, mode, lam):
    a, b = _slopes(terms, n, mode)
    _assert_close(_slopes(terms, n, mode, scale=lam), (lam * a, lam * b))


@settings(max_examples=25, deadline=None)
@given(_TERMS, _LEVEL, _MODE, st.floats(0.0, 1.0))
@example(_SMALL, 1, "fixed-point", 0.3)
@example(_NEAR_TIED, 1, "exact-orbit", 0.7)
def test_phase_shift_leaves_the_slopes(terms, n, mode, c):
    # cos(k(t + c)) = cos(kc) cos(kt) - sin(kc) sin(kt)
    # sin(k(t + c)) = cos(kc) sin(kt) + sin(kc) cos(kt)
    shifted = []
    for poly, trig, k in terms:
        co, si = math.cos(2 * math.pi * k * c), math.sin(2 * math.pi * k * c)
        other = "sin" if trig == "cos" else "cos"
        shifted.append(([co * p for p in poly], trig, k))
        shifted.append(([(-si if trig == "cos" else si) * p for p in poly],
                        other, k))
    _assert_close(_slopes(shifted, n, mode), _slopes(terms, n, mode))


@settings(max_examples=25, deadline=None)
@given(_TERMS, _LEVEL, _MODE)
def test_sign_swaps_the_slopes(terms, n, mode):
    a, b = _slopes(terms, n, mode)
    a_neg, b_neg = _slopes(terms, n, mode, scale=-1.0)
    assert (a_neg, b_neg) == (-b, -a)


@settings(max_examples=25, deadline=None)
@given(_POLY, st.sampled_from(["cos", "sin"]), st.integers(2, 5), _LEVEL,
       _MODE)
def test_k_fold_cover_multiplies_omega(poly, trig, k, n, mode):
    _assert_close(_slopes([(poly, trig, k)], n, mode),
                  _slopes([(poly, trig, 1)], n, mode,
                          omega=GOLDEN.times_mod1(k)))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(_POLY, st.just("cos"), st.integers(1, 5)),
                min_size=1, max_size=3, unique_by=lambda t: t[2]),
       _LEVEL, _MODE)
def test_reflection_leaves_the_slopes_of_an_even_coupling(terms, n, mode):
    _assert_close(_slopes(terms, n, mode, omega=RotationNumber(-GOLDEN.num)),
                  _slopes(terms, n, mode))


# lam has a normal size: a subnormal one carries fewer significant bits
@settings(max_examples=25, deadline=None)
@given(_TERMS, _TERMS, st.one_of(st.just(0.0), st.floats(0.1, 10.0),
                                 st.floats(-10.0, -0.1)), _LEVEL, _MODE)
def test_superposition_of_couplings_adds_the_dg1_values(terms1, terms2, lam,
                                                        n, mode):
    g1, _ = parse_forcing(_expr(terms1))
    g2, _ = parse_forcing(_expr(terms2))
    a = _dg1_at_chain_end(g1, n, mode)
    b = lam * _dg1_at_chain_end(g2, n, mode)
    got = _dg1_at_chain_end(lambda theta, x: g1(theta, x) + lam * g2(theta, x),
                            n, mode)
    # relative to the size of the parts: their sum may cancel
    scale = np.max(np.abs(a)) + np.max(np.abs(b))
    assert np.max(np.abs(got - (a + b))) <= REL * scale
