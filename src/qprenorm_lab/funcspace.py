"""Spectral representation of analytic functions on an interval and on the
cylinder T x I.

Functions of x live as float64 Chebyshev-T coefficient vectors on the
inflated interval I = [-(1+delta), 1+delta]; real functions of (theta, x)
as their half spectrum, the Fourier modes h_0..h_K: complex Chebyshev
rows, the only complex values stored. Everything downstream (operators,
curve solvers, slope formulas) works through these two containers.

Conventions
-----------
* theta is in full turns: f(theta, x) = Re sum_{k=0..K} h_k(x)
  exp(2 pi i k theta) with h_0 real, so h_k = 2 c_k (k >= 1) in terms of
  the full spectrum of f, whose negative frequencies are not stored.
* mode pairs: the B_k component of f is u(x) cos(2 pi k theta)
  + v(x) sin(2 pi k theta) with h_k = u - i v.
* the sup norm is a fixed real-grid proxy: 4(2K+1) uniform theta points
  times 4 n_cheb Chebyshev-clustered x points (endpoints included).
* evaluation sums Re (V h_k) z^k with one Chebyshev Vandermonde V per
  point set and z = exp(2 pi i theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import (CompositionDomainError, ConsistencyError, DomainError,
                     TruncationError)

# the complex disc W of the H0 containment check (renorm1d.check_H0)
W_CENTER = 0.2
W_RADIUS = 1.5
# relative slack of the |x| <= L interval checks, for values that land on
# the boundary up to rounding
INTERVAL_SLACK = 1 + 1e-13


@dataclass(frozen=True)
class DomainConfig:
    """Geometry and truncation orders shared by all spectral objects.

    delta_dom inflates [-1, 1], and the disc (W_CENTER, W_RADIUS) must
    contain the inflated interval; n_cheb and n_fourier are the truncation
    orders (n_fourier is the K in modes 0..K).
    """

    delta_dom: float = 0.1
    n_cheb: int = 40
    n_fourier: int = 16

    def __post_init__(self):
        if not self.delta_dom > 0:
            raise ValueError("delta_dom must be positive")
        if not W_RADIUS > 1 + self.delta_dom - W_CENTER:
            raise ValueError("delta_dom too large: the disc must contain "
                             "the inflated interval")
        if self.n_cheb < 8:
            raise ValueError("n_cheb must be at least 8")
        if self.n_fourier < 1:
            raise ValueError("n_fourier must be at least 1")

    @property
    def half_width(self):
        return 1.0 + self.delta_dom


# ---------------------------------------------------------------- Chebyshev

def _read_only(arr):
    arr.flags.writeable = False
    return arr


class _Tables(NamedTuple):
    """The Chebyshev tables of one domain, all read-only.

    t are the Gauss nodes on [-1, 1] and V[i, j] = T_j(t_i); A is V's
    inverse in the discrete-orthogonality sense (coeffs = A @ values,
    values = V @ coeffs); D @ c = chebder(c) padded to length n_cheb (the
    derivative on [-1, 1]); the columns of `at` read c(0), c(1) and c'(0)
    off a coefficient vector c, as c @ at; sup_V is the Vandermonde of the
    sup x grid (4 n_cheb points clustered like Chebyshev extrema, so the
    interval endpoints are on grid).
    """

    t: np.ndarray
    V: np.ndarray
    A: np.ndarray
    D: np.ndarray
    at: np.ndarray
    sup_V: np.ndarray


@lru_cache(maxsize=64)
def _tables(domain):
    n, L = domain.n_cheb, domain.half_width
    ang = np.pi * (np.arange(n) + 0.5) / n
    V = np.cos(np.outer(ang, np.arange(n)))
    A = (2.0 / n) * V.T.copy()
    A[0, :] *= 0.5
    D = np.zeros((n, n))
    D[: n - 1] = _cheb.chebder(np.eye(n), axis=0)
    rows = _vander_rows(np.array([0.0, 1.0 / L]), n).T
    at = np.stack([rows[0], rows[1], D.T @ rows[0] / L], axis=1)
    n_x = 4 * n
    sup_V = _vander_rows(np.cos(np.pi * np.arange(n_x) / (n_x - 1)), n).T
    return _Tables(*map(_read_only, (np.cos(ang), V, A, D, at, sup_V)))


@lru_cache(maxsize=64)
def _grid_phases(M, K):
    """The read-only phase table exp(2 pi i k theta), k = 0..K, of the
    uniform M-point theta grid j / M."""
    return _read_only(_phases(np.arange(M) / M, K))


def _cheb_vander(y, n):
    """Chebyshev Vandermonde V[i, j] = T_j(y_i) for j < n.

    On [-1, 1] it is cos(j arccos y_i), one vectorized pass whose entries
    are within n^2 eps of chebvander's recurrence; points outside the
    interval, and NaN, go through that recurrence (_vander_rows).
    """
    y = np.asarray(y, dtype=float)
    if np.all(np.abs(y) <= 1.0):      # False for any NaN
        return np.cos(np.outer(np.arccos(y), np.arange(n)))
    return _vander_rows(y, n).T


def _vander_rows(y, n, out=None):
    """The Chebyshev Vandermonde by rows, V[j, i] = T_j(y_i) for j < n, an
    (n, P) array written into out when given. It runs chebvander's
    recurrence in chebvander's operation order, so V.T is chebvander(y,
    n - 1) bit for bit, on and off [-1, 1], with chebvander's memory
    layout."""
    y = np.ravel(y) + 0.0             # as chebvander: -0.0 becomes 0.0
    V = np.empty((n, y.size)) if out is None else out
    V[0] = y * 0 + 1
    V[1] = y
    y2 = 2 * y
    rows = list(V)       # one view per row, not three per step
    for a, b, c in zip(rows, rows[1:], rows[2:]):
        np.multiply(b, y2, out=c)
        np.subtract(c, a, out=c)
    return V


def _clenshaw_scalar(c, t):
    """chebval(t, c) for a float t and a list of len(c) >= 2 floats, in
    plain-float arithmetic with chebval's operation order (bit-equal)."""
    x2 = 2 * t
    c0, c1 = c[-2], c[-1]
    for ci in c[-3::-1]:
        c0, c1 = ci - c1, c0 + c1 * x2
    return np.float64(c0 + c1 * t)


def cheb_nodes(domain):
    """Physical collocation nodes on the inflated interval."""
    return domain.half_width * _tables(domain).t


@dataclass
class AnalyticFn:
    """One real-analytic function of x as a float64 Chebyshev-T coefficient
    vector; complex coefficients raise ValueError (complex Fourier modes are
    QPFn rows). Complex points x are evaluated through chebval."""

    coeffs: np.ndarray
    domain: DomainConfig

    def __post_init__(self):
        # checked before the float conversion, which would drop Im silently
        if np.iscomplexobj(self.coeffs):
            raise ValueError("AnalyticFn coefficients must be real")
        c = np.asarray(self.coeffs, dtype=float)
        n = self.domain.n_cheb
        if c.shape != (n,):
            raise ValueError("coefficient vector has wrong length")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_values(cls, domain, values):
        return cls(_tables(domain).A @ np.asarray(values), domain)

    @classmethod
    def from_callable(cls, domain, fn):
        return cls.from_values(domain, fn(cheb_nodes(domain)))

    def __call__(self, x):
        c, L = self.coeffs, self.domain.half_width
        if isinstance(x, (float, int, np.integer)):
            return _clenshaw_scalar(c.tolist(), float(x) / L)
        return _cheb.chebval(np.asarray(x) / L, c)

    def deriv(self):
        D = _tables(self.domain).D
        return AnalyticFn(D @ self.coeffs / self.domain.half_width,
                          self.domain)

    def __sub__(self, other):
        _same_domain(self, other)
        return AnalyticFn(self.coeffs - other.coeffs, self.domain)

    def __mul__(self, scalar):
        return AnalyticFn(self.coeffs * scalar, self.domain)

    __rmul__ = __mul__

    def __neg__(self):
        return AnalyticFn(-self.coeffs, self.domain)


def _same_domain(f, g):
    if g.domain != f.domain:
        raise ConsistencyError("domain mismatch")


@dataclass
class QPFn:
    """Real function on the cylinder: its half spectrum of Chebyshev rows.

    modes[k], k = 0..K, holds the complex Chebyshev coefficients of h_k(x).
    """

    modes: np.ndarray
    domain: DomainConfig

    def __post_init__(self):
        m = np.asarray(self.modes, dtype=complex)
        want = (self.K + 1, self.domain.n_cheb)
        if m.shape != want:
            raise ValueError(f"shape {m.shape} is not (K+1, n_cheb) = {want}")
        object.__setattr__(self, "modes", m)

    @property
    def K(self):
        return self.domain.n_fourier

    # ------------------------------------------------------------ builders

    @classmethod
    def zero(cls, domain):
        K = domain.n_fourier
        return cls(np.zeros((K + 1, domain.n_cheb), dtype=complex), domain)

    @classmethod
    def from_analytic(cls, fn):
        out = cls.zero(fn.domain)
        out.modes[0] = fn.coeffs
        return out

    @classmethod
    def from_pair(cls, domain, k, u, v):
        """Embed u(x) cos(2 pi k theta) + v(x) sin(2 pi k theta)."""
        K = domain.n_fourier
        if k < 1 or k > K:
            raise TruncationError(f"mode {k} out of range")
        out = cls.zero(domain)
        out.modes[k] = u.coeffs - 1j * v.coeffs
        return out

    @classmethod
    def from_callable(cls, domain, fn):
        """Sample fn(theta, x) on (2K+1) uniform theta x Chebyshev nodes.

        fn is called once, with theta as the (2K+1, 1) column j / (2K+1)
        and x as the node vector; its result must broadcast to
        (2K+1, n_cheb), so a theta column, an x row or a constant will do;
        a complex result raises ValueError. h_k adds frequency -k (FFT row
        2K+1-k) to frequency k.
        """
        K = domain.n_fourier
        M = 2 * K + 1
        vals = fn((np.arange(M) / M)[:, None], cheb_nodes(domain))
        # checked before the float conversion, which would drop Im silently
        if np.iscomplexobj(vals):
            raise ValueError("QPFn.from_callable needs a real-valued fn")
        vals = np.broadcast_to(np.asarray(vals, dtype=float),
                               (M, domain.n_cheb))
        ft = np.fft.fft(vals, axis=0) / M      # index j -> frequency k mod M
        # the rows as a stack of matrix-vector products, one gemv each: a
        # single matrix-matrix product rounds the sums differently; the real
        # table is promoted to complex exactly
        rows = np.matmul(_tables(domain).A, ft[:, :, None])[:, :, 0]
        modes = np.empty((K + 1, domain.n_cheb), dtype=complex)
        modes[0] = rows[0].real
        modes[1:] = rows[1:K + 1] + np.conj(rows[M - 1:K:-1])
        return cls(modes, domain)

    # ---------------------------------------------------------- evaluation

    def eval(self, theta, x):
        """Pointwise value, broadcasting theta and x together: one Chebyshev
        Vandermonde V of the broadcast x points, one real product of V
        against the interleaved (re, im) columns of the h_k, and one
        contraction with the phase table exp(2 pi i k theta), k = 0..K,
        built on theta as given, so a theta column against x rows takes
        one phase row per theta."""
        theta = np.asarray(theta, dtype=float)
        x = np.asarray(x, dtype=float)
        shape = np.broadcast_shapes(theta.shape, x.shape)
        x = np.broadcast_to(x, shape)
        V = _vander_rows(x / self.domain.half_width, self.domain.n_cheb).T
        H = np.ascontiguousarray(self.modes.T).view(float)
        A = (V @ H).view(complex).reshape(shape + (self.K + 1,))
        E = _phases(theta, self.K).reshape(theta.shape + (self.K + 1,))
        out = np.einsum("...k,...k->...", A, E).real
        return float(out) if out.ndim == 0 else out

    def dx(self):
        D = _tables(self.domain).D
        return QPFn(self.modes @ D.T / self.domain.half_width, self.domain)

    def coeff_norm(self):
        """l2 norm of the stored half spectrum."""
        return float(np.sqrt(np.sum(np.abs(self.modes) ** 2)))

    # ------------------------------------------------------------- algebra

    def __add__(self, other):
        if isinstance(other, QPFn):
            _same_domain(self, other)
            return QPFn(self.modes + other.modes, self.domain)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, QPFn):
            _same_domain(self, other)
            return QPFn(self.modes - other.modes, self.domain)
        return NotImplemented

    def __mul__(self, scalar):
        return QPFn(self.modes * scalar, self.domain)

    __rmul__ = __mul__


@dataclass
class PairFn:
    """(u, v) pair representing u(x) cos(2 pi k theta) + v(x) sin(2 pi k theta).

    The mode index k is context, not state; operators that need it take it
    as an argument.
    """

    u: AnalyticFn
    v: AnalyticFn

    def __post_init__(self):
        if self.u.domain != self.v.domain:
            raise ConsistencyError("pair components on different domains")

    @property
    def domain(self):
        return self.u.domain

    def embed(self, k=1):
        return QPFn.from_pair(self.domain, k, self.u, self.v)

    def coeff_vector(self):
        """Stacked real coefficients (u then v), the operator state vector."""
        return np.concatenate([self.u.coeffs, self.v.coeffs])

    @classmethod
    def from_coeff_vector(cls, domain, vec):
        n = domain.n_cheb
        return cls(AnalyticFn(np.array(vec[:n], dtype=float), domain),
                   AnalyticFn(np.array(vec[n:], dtype=float), domain))

    def sup_norm(self):
        """max over (theta, x) of the represented function, exact in theta."""
        return float(pair_sup_norm(self.domain,
                                   self.u.coeffs - 1j * self.v.coeffs))

    def coeff_norm(self):
        return float(np.linalg.norm(self.coeff_vector()))

    def __sub__(self, other):
        return PairFn(self.u - other.u, self.v - other.v)

    def __mul__(self, scalar):
        return PairFn(self.u * scalar, self.v * scalar)

    __rmul__ = __mul__


# -------------------------------------------------------------- operations

def compose_fiber(g, shift, inner, scale):
    """h(theta, x) = g(theta + shift, inner(theta, scale * x)).

    Re-expanded on the spectral grid, (2K+1) theta samples times Chebyshev
    nodes, through QPFn.from_callable. The inner range is checked on that
    grid and a violation raises with the offending sample attached.
    """
    dom = g.domain
    if inner.domain != dom:
        raise ConsistencyError("composition operands on different domains")
    L = dom.half_width

    def h(theta, x):
        inner_vals = inner.eval(theta, scale * x)          # (2K+1, n_cheb)
        bad = np.abs(inner_vals) > L * INTERVAL_SLACK
        if np.any(bad):
            j, i = np.argwhere(bad)[0]
            raise CompositionDomainError(
                f"inner value {inner_vals[j, i]:.6g} leaves [-{L}, {L}]",
                where=(theta[j, 0], x[i]))
        return g.eval(theta + float(shift), inner_vals)

    return QPFn.from_callable(dom, h)


def project_p0(f):
    """Theta-average: the k = 0 Fourier coefficient as a real function."""
    return AnalyticFn(np.real(f.modes[0]).copy(), f.domain)


def project_pik(f, k):
    """Mode-k component as the (u, v) pair with u = Re h_k, v = -Im h_k."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k > f.K:
        raise TruncationError(f"mode {k} exceeds K={f.K}")
    hk = f.modes[k]
    return PairFn(AnalyticFn(np.real(hk).copy(), f.domain),
                  AnalyticFn(-np.imag(hk), f.domain))


def shift_tgamma(f, gamma):
    """Rotation in theta: mode k is multiplied by exp(2 pi i k gamma)."""
    gamma = float(gamma)
    k = np.arange(f.K + 1)
    ph = np.exp(2j * np.pi * k * gamma)
    return QPFn(f.modes * ph[:, None], f.domain)


def _phases(theta, K):
    """exp(2 pi i k theta) for k = 0..K, one row per theta: powers of
    exp(2 pi i theta) with theta reduced mod 1 first."""
    z = np.exp(2j * np.pi * (np.ravel(theta) % 1.0))
    ph = np.empty((z.size, K + 1), dtype=complex)
    ph[:, 0] = 1.0
    np.cumprod(np.broadcast_to(z[:, None], (z.size, K)), axis=1,
               out=ph[:, 1:])
    return ph


def _fold_degree(f):
    """The rows m a folded step of f keeps: the least m >= 2 with

        sum_(i >= m) i^2 sum_k |h_k[i]|
            <= n_cheb^2 eps min(sum |h|, L sum |h'|) / 2,

    h' = D h / L the rows of f_x. As |T_i| <= 1 and |T_i'| <= i^2 on
    [-1, 1], dropping rows m.. moves a value by at most half the bound
    n_cheb^2 eps sum |h| of _eval_folded and an x-derivative by at most
    half of n_cheb^2 eps sum |h'|; the rounding of the kept rows has the
    other half. Rows go from the top down only, so a sampled map, whose
    rows all carry rounding, keeps all n_cheb."""
    n = f.domain.n_cheb
    a = np.abs(f.modes).sum(axis=0)
    tail = np.cumsum((np.arange(n) ** 2 * a)[::-1])[::-1]
    scale = min(a.sum(), f.domain.half_width * np.abs(f.dx().modes).sum())
    return 2 + int(np.count_nonzero(
        tail[2:] > 0.5 * n * n * np.finfo(float).eps * scale))


def _fold(f, E, m):
    """Rows 0..m-1 of f folded with the phase table E[p, k] = exp(2 pi i k
    theta_p) of P points: C[i, p] = Re sum_k h_k[i] E[p, k], the leading
    Chebyshev coefficients of f(theta_p, .) as one column per point, an
    (m, P) array. One real product of the (re, -im) columns of the h_k
    with E's (re, im)."""
    H = np.ascontiguousarray(f.modes[:, :m].T.conj()).view(float)
    return H @ E.view(float).T


def _eval_folded(domain, C, x, V):
    """Value and x-derivative, a (2, P) array, at the P points x (1-D) of
    the m folded rows C = _fold(f, E, m): one Chebyshev recurrence of
    x / L into V[0] of the (2, m, P) buffer V, the derivative rows
    D[:m, :m]^T V[0] into V[1] (T_j' is a sum of T_i with i < j), and one
    contraction of both against C. With m = _fold_degree(f), on |x| <= L
    the value is within n_cheb^2 eps sum |h| of the full series and the
    derivative within n_cheb^2 eps sum |h'|, h' the rows of f_x."""
    L = domain.half_width
    m = C.shape[0]
    _vander_rows(x / L, m, out=V[0])
    np.matmul(_tables(domain).D[:m, :m].T, V[0], out=V[1])
    out = np.einsum("fip,ip->fp", V, C)
    out[1] /= L
    return out


def sup_norm(f):
    """Grid proxy for the supremum norm (deterministic fixed grid)."""
    V = _tables(f.domain).sup_V
    if isinstance(f, AnalyticFn):
        return float(np.max(np.abs(V @ f.coeffs)))
    A = V @ f.modes.T                                  # (n_x, K+1)
    E = _grid_phases(4 * (2 * f.K + 1), f.K)           # 4(2K+1) theta points
    return float(np.max(np.abs(np.real(E @ A.T))))


def pair_sup_norm(domain, H):
    """PairFn(u, v).sup_norm() of the rows h = u - i v of (S, n_cheb)
    blocks: |h(x)| = hypot(u(x), v(x)) maximized over the sup grid, as the
    root of the largest re^2 + im^2. Each row is scaled first by the exact
    power of two that puts its largest |coefficient| in [1/2, 1), so no
    square overflows or underflows. The stacked matmul takes one product
    per row, so a row gets the bits it would get alone."""
    G = np.ascontiguousarray(H)[..., None].view(float)     # (Re h, Im h)
    e = np.frexp(np.max(np.abs(G), axis=(-2, -1)))[1]
    A = _tables(domain).sup_V @ np.ldexp(G, -e[..., None, None])
    np.square(A, out=A)
    return np.ldexp(np.sqrt(np.max(A[..., 0] + A[..., 1], axis=-1)), e)


def eval_qpfn(f, theta, x):
    """Functional form of QPFn.eval with the domain guard of the contract.

    A reference kept for the tests, which check the guard; the library
    calls QPFn.eval directly."""
    L = f.domain.half_width
    if np.any(np.abs(np.asarray(x, dtype=float)) > L * INTERVAL_SLACK):
        raise DomainError(f"x outside [-{L}, {L}]", where=x)
    return f.eval(theta, x)
