"""Quasi-periodic doubling renormalization over an irrational rotation.

T_omega(g)(theta, x) = g(theta + omega, g(theta, a x)) / a with
a = mean of g(theta, 1). At a theta-independent base the derivative is
block-diagonal over Fourier modes: mode 0 sees the one-dimensional
derivative DR, and mode k sees L1 + e^(2 pi i k omega) L2, which on the
real (cos, sin) pair coefficients is the 2n x 2n matrix

    [[ L1 + cos(phi) L2, sin(phi) L2],
     [-sin(phi) L2,      L1 + cos(phi) L2]],   phi = 2 pi k omega,

acting on PairFn.coeff_vector() = (u, v), the package's one pair
convention: mode k of a QPFn is its stored row h_k = u - i v (see
funcspace). Rotation numbers are kept as 128-bit fixed-point fractions
so that the doubling omega -> 2 omega mod 1 stays exact; floats appear
only inside trig evaluations.

The section machinery quotients the rotational symmetry t_gamma by
shifting a mode-1 vector onto the section {f(theta0, x0) = 0, positive
theta-derivative}. One routine, section_gammas, decides the shift for a
block of pairs; gamma_normalize, normalize_pair, apply_L_prime and
l_prime_rows (a block of pairs under one L_omega) all go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (DegeneratePointError, DegenerateScalingError,
                     DiophantineError, DomainError, NoSectionError,
                     PrecisionExhaustedError)
from .funcspace import (PairFn, QPFn, _clenshaw_scalar, compose_fiber,
                        project_p0, project_pik, shift_tgamma)
from .renorm1d import TOL_A, UnimodalMap, dr_matrix, l1_matrix, l2_matrix

SCALE_BITS = 128
SCALE = 1 << SCALE_BITS
MAX_DEPTH = SCALE_BITS - 53      # doublings float(omega) survives intact

TOL_PI1 = 1e-12
TOL_SPEC = 1e-8
DIO_QMAX = 1000       # denominators the driver-level Diophantine gate checks


# --------------------------------------------------------- rotation numbers

@dataclass(frozen=True)
class RotationNumber:
    """frac(omega) as num / 2^128 with optional Diophantine certificate.

    The certificate |q omega - p| >= dio_gamma / q^dio_tau is verified for
    0 < q <= q_max at construction (q_max = 0 skips it, which is how the
    rational test values 0, 1/4, 1/3 are represented). Only the number a
    driver is given is checked (require_diophantine), so a multiple k omega
    (doubling is k = 2) carries no certificate.
    """

    num: int
    dio_gamma: float = 0.0
    dio_tau: float = 1.0
    q_max: int = 0
    depth: int = 0

    def __post_init__(self):
        object.__setattr__(self, "num", self.num % SCALE)
        if self.q_max > 0 and self.dio_gamma > 0:
            self._verify()

    def _verify(self):
        for q in range(1, self.q_max + 1):
            r = (q * self.num) % SCALE
            dist = min(r, SCALE - r)
            if float(dist) < self.dio_gamma * SCALE / q ** self.dio_tau:
                raise DiophantineError(
                    f"|q omega - p| = {dist / SCALE:.3e} at q={q} breaks "
                    f"gamma/q^tau = {self.dio_gamma / q ** self.dio_tau:.3e}")

    @property
    def value(self):
        return self.num / SCALE

    def __float__(self):
        return self.value

    def double(self):
        """2 omega mod 1, exact on the fixed-point fraction.

        Each doubling shifts one known bit out of the fraction, so after
        d doublings only SCALE_BITS - d bits are known; float(omega) keeps
        its 53-bit accuracy through depth SCALE_BITS - 53 = 75.
        """
        if self.depth + 1 > MAX_DEPTH:
            raise PrecisionExhaustedError(
                f"more than {MAX_DEPTH} doublings requested: a "
                f"{SCALE_BITS}-bit fraction keeps float(omega) exact only "
                f"through {SCALE_BITS} - 53 = {MAX_DEPTH}")
        return RotationNumber(2 * self.num, depth=self.depth + 1)

    def times_mod1(self, k):
        """k omega mod 1 for a positive integer k, exact."""
        k = int(k)
        if k < 1:
            raise ValueError("k must be a positive integer")
        if k == 1:
            return self
        return RotationNumber(k * self.num, depth=self.depth)

    @classmethod
    def zero(cls):
        return cls(0)

    @classmethod
    def from_fraction(cls, p, q, dio_gamma=0.0, dio_tau=1.0, q_max=0):
        if q <= 0:
            raise ValueError("denominator must be positive")
        return cls((p % q) * SCALE // q, dio_gamma, dio_tau, q_max)

    @classmethod
    def from_float(cls, x, dio_gamma=0.0, dio_tau=1.0, q_max=0):
        return cls(round((x % 1.0) * SCALE), dio_gamma, dio_tau, q_max)

    @classmethod
    def golden(cls, q_max=10000):
        """(sqrt(5) - 1) / 2; Diophantine with tau = 1, gamma = 0.38."""
        num = (math.isqrt(5 << 2 * SCALE_BITS) - SCALE) // 2
        return cls(num, dio_gamma=0.38, dio_tau=1.0, q_max=q_max)

    @classmethod
    def from_continued_fraction(cls, quotients, dio_gamma=0.0, dio_tau=1.0,
                                q_max=0):
        """omega = 1/(c1 + 1/(c2 + ...)) from positive partial quotients."""
        x = Fraction(0)
        for c in reversed(list(quotients)):
            if c < 1:
                raise ValueError("partial quotients must be >= 1")
            x = Fraction(1, c + x)
        return cls.from_fraction(x.numerator, x.denominator,
                                 dio_gamma, dio_tau, q_max)


def require_diophantine(omega):
    """Driver-level gate: re-verify the certificate stored on omega for
    0 < q <= DIO_QMAX; raises when the bound fails or when omega carries
    no usable constants.
    """
    if omega.dio_gamma <= 0:
        raise DiophantineError("rotation number carries no Diophantine bound")
    return RotationNumber(omega.num, dio_gamma=omega.dio_gamma,
                          dio_tau=omega.dio_tau, q_max=DIO_QMAX)


# ------------------------------------------------------------------ sections

@dataclass(frozen=True)
class SectionConfig:
    theta0: float = 0.0
    x0: float = 0.0


# points tried in turn when the pair vanishes at the section's x0
DEGENERATE_SCAN = (0.0, 0.25, -0.25, 0.5, -0.5)


# ------------------------------------------------------------- the operator

def apply_T(g, omega):
    """T_omega(g) = g(theta + omega, g(theta, a x)) / a, a = mean g(theta, 1)."""
    a_hat = float(project_p0(g)(1.0))
    if abs(a_hat) < TOL_A:
        raise DegenerateScalingError(f"mean scaling a = {a_hat:.3e} too small")
    h = compose_fiber(g, float(omega), g, a_hat)
    return h * (1.0 / a_hat)


def apply_DT(base, omega, v):
    """Derivative of T_omega at a theta-independent base, mode by mode.

    The base is a UnimodalMap psi, so the type carries the theta
    independence, and its operator data is reused across calls. Mode 0 gets
    the one-dimensional derivative DR(psi); mode k gets
    L1 h_k + e^(2 pi i k omega) L2 h_k, one stored row per k.
    """
    if abs(base.a) < TOL_A:
        raise DegenerateScalingError("degenerate scaling at the base map")
    L1 = l1_matrix(base)
    L2 = l2_matrix(base)
    DR = dr_matrix(base)
    w = float(omega)
    out = QPFn.zero(v.domain)
    out.modes[0] = DR @ v.modes[0]
    for k in range(1, v.K + 1):
        hk = v.modes[k]
        out.modes[k] = L1 @ hk + np.exp(2j * np.pi * k * w) * (L2 @ hk)
    return out


@dataclass
class LOmegaOperator:
    """Restriction of DT to a single Fourier pair, as a real matrix.

    The matrix acts on PairFn.coeff_vector() = (u, v) in the block form
    [[L1 + cos L2, sin L2], [-sin L2, L1 + cos L2]].
    """

    base_psi: UnimodalMap
    matrix: np.ndarray

    def apply(self, v: PairFn) -> PairFn:
        return PairFn.from_coeff_vector(self.base_psi.domain,
                                        self.matrix @ v.coeff_vector())


def build_L_omega(psi, omega, k=1):
    """Assemble L_{k omega} acting on pair coefficients; omega is a
    RotationNumber, so k omega mod 1 is exact."""
    if abs(psi.a) < TOL_A:
        raise DegenerateScalingError("degenerate scaling at the base map")
    phi = 2.0 * np.pi * float(omega.times_mod1(k))
    L1 = l1_matrix(psi)
    L2 = l2_matrix(psi)
    c, s = np.cos(phi), np.sin(phi)
    M = np.block([[L1 + c * L2, s * L2],
                  [-s * L2, L1 + c * L2]])
    return LOmegaOperator(base_psi=psi, matrix=M)


def rotation_matrix(n_cheb, gamma):
    """Matrix of t_gamma on PairFn.coeff_vector(): rot(-2 pi gamma) x I,
    the real-matrix form of shift_tgamma on one mode-1 pair."""
    beta = 2.0 * np.pi * float(gamma)
    eye = np.eye(n_cheb)
    c, s = np.cos(beta), np.sin(beta)
    return np.block([[c * eye, s * eye], [-s * eye, c * eye]])


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    spectral_radius: float
    pairing_ok: bool
    violations: list


def spectrum_L_omega(op):
    """Eigenvalues with the conjugate/even-multiplicity pairing check.

    The circle action forces every eigenvalue above the floor to come
    either as a complex-conjugate pair or as a real value of even
    multiplicity; violations are reported, not raised.
    """
    lam = np.linalg.eigvals(op.matrix)
    order = np.argsort(-np.abs(lam))
    lam = lam[order]
    big = [i for i in range(lam.size) if abs(lam[i]) > TOL_SPEC]
    unused = set(big)
    violations = []
    for i in big:
        if i not in unused:
            continue
        unused.remove(i)
        best_j, best_d = None, np.inf
        for j in unused:
            d = abs(lam[i] - np.conj(lam[j]))
            if d < best_d:
                best_j, best_d = j, d
        if best_j is not None and best_d <= 1e-8 * max(1.0, abs(lam[i])):
            unused.remove(best_j)
        else:
            violations.append(lam[i])
    radius = float(np.abs(lam[0])) if lam.size else 0.0
    return SpectrumReport(eigenvalues=lam, spectral_radius=radius,
                          pairing_ok=not violations, violations=violations)


# -------------------------------------------------- rotation-symmetry section
#
# A block X of mode-1 pairs holds one PairFn.coeff_vector() = (u, v) per
# row. Norms, matrix products and point values (the scalar Clenshaw loop)
# are taken row by row and the rest elementwise, so every row gets the bits
# it would get alone.

def row_norms(X):
    """np.linalg.norm of each row of X, bit for bit: sqrt of the row's dot
    product (a norm over an axis sums in another order)."""
    return np.sqrt(np.array([x.dot(x) for x in X]))


def _clenshaw_rows(t, block):
    """Chebyshev values of the rows of an (m, n_cheb) block, row j at the
    scaled point t[j], through the scalar Clenshaw loop row by row."""
    return np.array([_clenshaw_scalar(c, tj)
                     for c, tj in zip(block.tolist(), t.tolist())])


def section_gammas(X, domain, section=SectionConfig()):
    """Shift gamma0 per row of X that puts the pair on the section.

    The section is f(theta0, x0) = 0 with positive theta-derivative, where
    x0 is the first of section.x0 and DEGENERATE_SCAN at which the pair is
    not numerically zero. A gamma0 within 1e-12 of 0 or 1 snaps to 0.

    Returns (gamma0, errors): errors[j] is None, or the NoSectionError or
    DegeneratePointError that row j fails with (its gamma0 is then 0). A
    scan candidate outside the interval raises DomainError.
    """
    S = X.shape[0]
    n, L = domain.n_cheb, domain.half_width
    U, V = X[:, :n], X[:, n:]
    errors = [None] * S
    scale = row_norms(X)
    todo = scale > TOL_PI1
    for j in np.flatnonzero(~todo):
        errors[j] = NoSectionError("mode-1 component vanishes")

    A, B = np.zeros(S), np.zeros(S)
    for cand in (section.x0,) + DEGENERATE_SCAN:
        rows = np.flatnonzero(todo)
        if rows.size == 0:
            break
        if not abs(cand) <= L:      # NaN fails too
            raise DomainError(f"section point x0 = {cand} outside the interval")
        t = np.full(rows.size, cand / L)
        a, b = _clenshaw_rows(t, U[rows]), _clenshaw_rows(t, V[rows])
        hit = np.hypot(a, b) > 1e-9 * scale[rows]
        found = rows[hit]
        A[found], B[found] = a[hit], b[hit]
        todo[found] = False
    for j in np.flatnonzero(todo):
        errors[j] = DegeneratePointError(
            "mode-1 pair vanishes at every section candidate x0")

    # the theta-slope at (theta0, x0) is then 2 pi hypot(A, B) > 0 by `hit`
    gamma0 = (np.arctan2(B, A) / (2 * np.pi) - 0.25 - section.theta0) % 1.0
    gamma0[(gamma0 > 1.0 - 1e-12) | (gamma0 < 1e-12)] = 0.0
    gamma0[[e is not None for e in errors]] = 0.0
    return gamma0, errors


def shift_pairs(X, gamma0, n_cheb):
    """t_gamma0 row by row: h_1 = u - i v times exp(2 pi i gamma0), read
    back as (Re h_1, -Im h_1), as QPFn.from_pair, shift_tgamma and
    project_pik do on mode 1."""
    h1 = X[:, :n_cheb] - 1j * X[:, n_cheb:]
    h1 = h1 * np.exp(2j * np.pi * gamma0)[:, None]
    return np.concatenate([np.real(h1), -np.imag(h1)], axis=1)


def l_prime_rows(matrix, X, domain, section=SectionConfig()):
    """Rows t_gamma(L x) for the rows x of X, L = matrix; returns (Y, errors).

    errors[j] is None, or the DegenerateScalingError (image numerically
    zero), NoSectionError or DegeneratePointError of row j, whose Y row is
    then 0. Each row gets its own matvec: one matrix product of the whole
    block would round differently.
    """
    W = np.empty_like(X)
    for j, x in enumerate(X):
        W[j] = matrix @ x
    tiny = row_norms(W) <= 1e-14 * np.fmax(1.0, row_norms(X))
    errors = [DegenerateScalingError("L_omega image is numerically zero")
              if t else None for t in tiny]
    Y = np.zeros_like(X)
    rows = np.flatnonzero(~tiny)
    if rows.size:
        gamma0, sec_errors = section_gammas(W[rows], domain, section)
        Y[rows] = shift_pairs(W[rows], gamma0, domain.n_cheb)
        for j, e in zip(rows, sec_errors):
            if e is not None:
                errors[j], Y[j] = e, 0.0
    return Y, errors


def normalize_pair(pair, section=SectionConfig()):
    """(gamma0, t_gamma0 pair) for one mode-1 pair; the pair-level form of
    gamma_normalize, with the same errors."""
    X = pair.coeff_vector()[None, :]
    gamma0, errors = section_gammas(X, pair.domain, section)
    if errors[0] is not None:
        raise errors[0]
    Y = shift_pairs(X, gamma0, pair.domain.n_cheb)
    return gamma0[0], PairFn.from_coeff_vector(pair.domain, Y[0])


def gamma_normalize(v, section=SectionConfig()):
    """Unique shift gamma0 putting the mode-1 part of v on the section.

    The shift is decided by section_gammas on project_pik(v, 1) and
    applied to every mode. Returns (gamma0, t_gamma0 v).
    """
    X = project_pik(v, 1).coeff_vector()[None, :]
    gamma0, errors = section_gammas(X, v.domain, section)
    if errors[0] is not None:
        raise errors[0]
    return gamma0[0], shift_tgamma(v, gamma0[0])


def apply_L_prime(psi, omega, v, section=SectionConfig()):
    """L'_omega(v) = t_gamma(L_omega v): apply, then land on the section."""
    op = build_L_omega(psi, omega, 1)
    Y, errors = l_prime_rows(op.matrix, v.coeff_vector()[None, :], v.domain,
                             section)
    if errors[0] is not None:
        raise errors[0]
    return PairFn.from_coeff_vector(v.domain, Y[0])
