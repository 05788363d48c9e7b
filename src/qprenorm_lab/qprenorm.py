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

One kernel, dt_columns, steps stored rows in this form as complex
columns: one L1 and one L2 product per column block, then a phase
product, with no 2n x 2n matrix; the slope chains and H4 both call it.
The assembled block (build_L_omega) stays for the spectrum, the dt-check
and the tests that hold the kernel to it.

The section machinery quotients the rotational symmetry t_gamma by
shifting a mode-1 row h = u - i v onto the section {f(theta0, x0) = 0,
positive theta-derivative}. One routine, section_gammas, decides the
shift for a block of rows; land_rows puts a block of images on the
section with it, and gamma_normalize, apply_L_prime and l_prime_rows
all go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (DegeneratePointError, DegenerateScalingError,
                     DiophantineError, DomainError, NoSectionError,
                     PrecisionExhaustedError)
from .funcspace import (PairFn, QPFn, _cheb_vander, compose_fiber,
                        project_p0, shift_tgamma)
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
    rational test values 0, 1/4, 1/3 are represented). dio_tau must be
    >= 0. Only the number a driver is given is checked
    (require_diophantine), so a multiple k omega (doubling is k = 2)
    carries no certificate.
    """

    num: int
    dio_gamma: float = 0.0
    dio_tau: float = 1.0
    q_max: int = 0
    depth: int = 0

    def __post_init__(self):
        if not self.dio_tau >= 0:       # also false for NaN
            raise ValueError(f"dio_tau must be >= 0, got {self.dio_tau}")
        object.__setattr__(self, "num", self.num % SCALE)
        if self.q_max > 0 and self.dio_gamma > 0:
            self._verify()

    def _verify(self):
        """Test the convergent denominators q_k <= q_max of num / 2^128.

        The bound gamma / q^tau does not grow with q (tau >= 0), so the
        smallest q that breaks it has |q omega - p| below that of every
        smaller q: a best approximation, hence a convergent denominator.
        Euclid's algorithm on (num, 2^128) yields them all, q_0 = 1
        included."""
        q_prev, q = 0, 1
        n, d = self.num, SCALE          # the tail of the continued fraction
        while q <= self.q_max:
            r = (q * self.num) % SCALE
            dist = min(r, SCALE - r)
            if float(dist) < self.dio_gamma * SCALE / q ** self.dio_tau:
                raise DiophantineError(
                    f"|q omega - p| = {dist / SCALE:.3e} at q={q} breaks "
                    f"gamma/q^tau = {self.dio_gamma / q ** self.dio_tau:.3e}")
            if n == 0:
                break
            a, n, d = d // n, d % n, n
            q_prev, q = q, a * q + q_prev

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
        """omega = 1/(c1 + 1/(c2 + ...)) from positive partial quotients;
        an empty list raises ValueError."""
        quotients = list(quotients)
        if not quotients:
            raise ValueError("a continued fraction needs at least one "
                             "partial quotient")
        x = Fraction(0)
        for c in reversed(quotients):
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
    # cast once: each product below would cast its real matrix again
    L1 = l1_matrix(base).astype(complex)
    L2 = l2_matrix(base).astype(complex)
    DR = dr_matrix(base)
    w = float(omega)
    out = QPFn.zero(v.domain)
    out.modes[0] = DR @ v.modes[0]
    for k in range(1, v.K + 1):
        hk = v.modes[k]
        out.modes[k] = L1 @ hk + np.exp(2j * np.pi * k * w) * (L2 @ hk)
    return out


def dt_columns(psi, H, ph):
    """DT at psi on the complex columns of H: L1 H + ph L2 H.

    H is a column block (n, m) or a stack (S, n, m) of them, each column a
    stored row h = u - i v, and ph broadcasts against the result: the
    phases e^(2 pi i k omega) of a block's mode columns, or one phase per
    omega on a leading axis. The real factors act on the interleaved
    (re, im) columns, one BLAS product per block, so a block's bits do
    not depend on the stack it sits in.
    """
    G = np.ascontiguousarray(H).view(float)
    return ((l1_matrix(psi) @ G).view(complex)
            + ph * (l2_matrix(psi) @ G).view(complex))


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
    RotationNumber, so k omega mod 1 is exact. The blocks are L1 + cos L2
    on the diagonal, sin L2 and -sin L2 off it."""
    phi = 2.0 * np.pi * float(omega.times_mod1(k))
    L1 = l1_matrix(psi)
    L2 = l2_matrix(psi)
    n = L1.shape[0]
    c, s = np.cos(phi), np.sin(phi)
    M = np.empty((2 * n, 2 * n))
    np.add(L1, c * L2, out=M[:n, :n])
    M[n:, n:] = M[:n, :n]
    np.multiply(s, L2, out=M[:n, n:])
    np.multiply(-s, L2, out=M[n:, :n])
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
# A block H of mode-1 pairs holds one stored row h = u - i v per row.
# Norms, matrix products and point values (a per-row sum against one
# Chebyshev row) are taken row by row and the rest elementwise, so every
# row gets the bits it would get alone.

def row_norms(X):
    """np.linalg.norm of each row's PairFn.coeff_vector(), bit for bit:
    sqrt of the dot product of the real row (u, v), or of (Re h, Im h)
    for a complex row h = u - i v (the sign of v moves no square). The
    stacked matmul takes one BLAS dot per row, as x.dot(x) does; a norm
    over an axis sums in another order."""
    if np.iscomplexobj(X):
        X = np.concatenate([X.real, X.imag], axis=-1)
    return np.sqrt((X[..., None, :] @ X[..., :, None])[..., 0, 0])


def section_gammas(H, domain, section=SectionConfig()):
    """Shift gamma0 per row h = u - i v of H that puts it on the section.

    The section is f(theta0, x0) = 0 with positive theta-derivative, where
    x0 is the first of section.x0 and DEGENERATE_SCAN at which the pair is
    not numerically zero. A gamma0 within 1e-12 of 0 or 1 snaps to 0.

    Returns (gamma0, errors): errors[j] is None, or the NoSectionError or
    DegeneratePointError that row j fails with (its gamma0 is then 0). A
    scan candidate outside the interval raises DomainError.
    """
    n, L = domain.n_cheb, domain.half_width
    scale = row_norms(H)
    todo = scale > TOL_PI1
    vanished = ~todo
    A, B = np.zeros(H.shape[0]), np.zeros(H.shape[0])
    for cand in (section.x0,) + DEGENERATE_SCAN:
        rows = np.flatnonzero(todo)
        if rows.size == 0:
            break
        if not abs(cand) <= L:      # NaN fails too
            raise DomainError(f"section point x0 = {cand} outside the interval")
        # the point value h(x0) = u(x0) - i v(x0), and |h(x0)| = hypot
        h = (H * _cheb_vander([cand / L], n)[0]).sum(axis=1)[rows]
        hit = np.abs(h) > 1e-9 * scale[rows]
        found = rows[hit]
        A[found], B[found] = h.real[hit], -h.imag[hit]
        todo[found] = False
    errors = [NoSectionError("mode-1 component vanishes") if z
              else DegeneratePointError(
                  "mode-1 pair vanishes at every section candidate x0")
              if miss else None for z, miss in zip(vanished, todo)]

    # the theta-slope at (theta0, x0) is then 2 pi hypot(A, B) > 0 by `hit`;
    # the section is periodic in theta0, so a large theta0 is reduced first
    gamma0 = (np.arctan2(B, A) / (2 * np.pi) - 0.25
              - section.theta0 % 1.0) % 1.0
    gamma0[(gamma0 > 1.0 - 1e-12) | (gamma0 < 1e-12) | vanished | todo] = 0.0
    return gamma0, errors


def land_rows(W, scale, domain, section=SectionConfig()):
    """Rows t_gamma(w) on the section for the image rows w of W; returns
    (Y, errors).

    scale[j] is the l2 norm of the row whose image W[j] is. errors[j] is
    None, or the DegenerateScalingError (image numerically zero against
    it, whatever the section says), NoSectionError or DegeneratePointError
    of row j, whose Y row is then 0. One section call decides the block.
    """
    tiny = row_norms(W) <= 1e-14 * np.fmax(1.0, scale)
    gamma0, errors = section_gammas(W, domain, section)
    errors = [DegenerateScalingError("L_omega image is numerically zero")
              if z else e for z, e in zip(tiny, errors)]
    Y = W * np.exp(2j * np.pi * gamma0)[:, None]
    Y[[e is not None for e in errors]] = 0.0
    return Y, errors


def l_prime_rows(psi, omegas, H, section=SectionConfig()):
    """Rows t_gamma(L_omega h) for each omega of omegas and each row h of
    H, in (omega, h) order: dt_columns on one-column blocks, landed by
    land_rows, whose (Y, errors) it returns."""
    ph = np.exp(2j * np.pi * np.array([float(w) for w in omegas]))
    W = dt_columns(psi, H[:, :, None], ph[:, None, None, None])
    return land_rows(W.reshape(-1, H.shape[1]),
                     np.tile(row_norms(H), len(omegas)), psi.domain, section)


def gamma_normalize(v, section=SectionConfig()):
    """Unique shift gamma0 putting the mode-1 part of v on the section.

    The shift is decided by section_gammas on the stored row v.modes[1]
    and applied to every mode. Returns (gamma0, t_gamma0 v).
    """
    gamma0, errors = section_gammas(v.modes[1][None, :], v.domain, section)
    if errors[0] is not None:
        raise errors[0]
    return gamma0[0], shift_tgamma(v, gamma0[0])


def apply_L_prime(psi, omega, v, section=SectionConfig()):
    """L'_omega(v) = t_gamma(L_omega v): apply, then land on the section."""
    h = v.u.coeffs - 1j * v.v.coeffs          # mode 1 of v.embed(1)
    Y, errors = l_prime_rows(psi, [omega], h[None, :], section)
    if errors[0] is not None:
        raise errors[0]
    return PairFn.from_coeff_vector(v.domain,
                                    np.concatenate([Y[0].real, -Y[0].imag]))
