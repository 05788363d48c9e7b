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

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import (CompositionDomainError, ConsistencyError, DomainError,
                     TruncationError)

TOL_INTERP = 1e-12
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
            raise ValueError("disc must contain the inflated interval")
        if self.n_cheb < 8:
            raise ValueError("n_cheb must be at least 8")
        if self.n_fourier < 1:
            raise ValueError("n_fourier must be at least 1")

    @property
    def half_width(self):
        return 1.0 + self.delta_dom


# ---------------------------------------------------------------- Chebyshev

@lru_cache(maxsize=64)
def _cheb_machinery(n):
    """Gauss nodes on [-1,1], value matrix V and transform matrix A.

    V[i, j] = T_j(t_i), A is its inverse in the discrete-orthogonality
    sense: coeffs = A @ values, values = V @ coeffs.
    """
    i = np.arange(n)
    ang = np.pi * (i + 0.5) / n
    t = np.cos(ang)
    V = np.cos(np.outer(ang, np.arange(n)))
    A = (2.0 / n) * V.T.copy()
    A[0, :] *= 0.5
    return t, V, A


@lru_cache(maxsize=64)
def _diff_matrix(n):
    """D with D @ c = chebder(c) padded to length n (derivative on [-1, 1])."""
    D = np.zeros((n, n))
    D[: n - 1] = _cheb.chebder(np.eye(n), axis=0)
    D.flags.writeable = False
    return D


def _cheb_vander(y, n):
    """Chebyshev Vandermonde V[i, j] = T_j(y_i) for j < n.

    On [-1, 1] it is cos(j arccos y_i), one vectorized pass whose entries
    are within n^2 eps of chebvander's recurrence; points outside the
    interval, and NaN, go through chebvander itself.
    """
    y = np.asarray(y, dtype=float)
    if np.all(np.abs(y) <= 1.0):      # False for any NaN
        return np.cos(np.outer(np.arccos(y), np.arange(n)))
    return _cheb.chebvander(y, n - 1)


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
    t, _, _ = _cheb_machinery(domain.n_cheb)
    return domain.half_width * t


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
        _, _, A = _cheb_machinery(domain.n_cheb)
        return cls(A @ np.asarray(values), domain)

    @classmethod
    def from_callable(cls, domain, fn):
        return cls.from_values(domain, fn(cheb_nodes(domain)))

    def __call__(self, x):
        c, L = self.coeffs, self.domain.half_width
        if isinstance(x, (float, int, np.integer)):
            return _clenshaw_scalar(c.tolist(), float(x) / L)
        return _cheb.chebval(np.asarray(x) / L, c)

    def deriv(self):
        d = _cheb.chebder(self.coeffs) / self.domain.half_width
        out = np.zeros(self.domain.n_cheb)
        out[: d.size] = d
        return AnalyticFn(out, self.domain)

    def __sub__(self, other):
        self._check(other)
        return AnalyticFn(self.coeffs - other.coeffs, self.domain)

    def __mul__(self, scalar):
        return AnalyticFn(self.coeffs * scalar, self.domain)

    __rmul__ = __mul__

    def __neg__(self):
        return AnalyticFn(-self.coeffs, self.domain)

    def _check(self, other):
        if other.domain != self.domain:
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
        (2K+1, n_cheb), so a theta column, an x row or a constant will do.
        """
        M = 2 * domain.n_fourier + 1
        thetas = np.arange(M) / M
        vals = fn(thetas[:, None], cheb_nodes(domain))
        vals = np.broadcast_to(np.asarray(vals, dtype=float),
                               (M, domain.n_cheb))
        return cls._from_grid_values(domain, vals)

    @classmethod
    def _from_grid_values(cls, domain, vals):
        """vals[j, i] = f(j/M, x_i) with M = 2K+1 rows; h_k adds frequency
        -k (FFT row M-k) to frequency k."""
        K = domain.n_fourier
        M = 2 * K + 1
        _, _, A = _cheb_machinery(domain.n_cheb)
        A = A.astype(complex)   # cast once, not in each product below
        ft = np.fft.fft(vals, axis=0) / M      # index j -> frequency k mod M
        # one product per row: a single matmul over all rows rounds the
        # sums differently
        rows = [A @ f for f in ft]
        modes = np.empty((K + 1, domain.n_cheb), dtype=complex)
        modes[0] = rows[0].real
        for k in range(1, K + 1):
            modes[k] = rows[k] + np.conj(rows[M - k])
        return cls(modes, domain)

    # ---------------------------------------------------------- evaluation

    def eval(self, theta, x):
        """Pointwise value, broadcasting theta and x together."""
        (out,) = eval_batch((self,), theta, x)
        if out.ndim == 0:
            return float(out)
        return out

    def dx(self):
        D = _diff_matrix(self.domain.n_cheb)
        return QPFn(self.modes @ D.T / self.domain.half_width, self.domain)

    def coeff_norm(self):
        """l2 norm of the stored half spectrum."""
        return float(np.sqrt(np.sum(np.abs(self.modes) ** 2)))

    # ------------------------------------------------------------- algebra

    def __add__(self, other):
        if isinstance(other, QPFn):
            return QPFn(self.modes + other.modes, self.domain)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, QPFn):
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
        return pair_sup_norm(self.domain, self.u.coeffs, self.v.coeffs)

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

    Re-expanded on the spectral grid: (2K+1) theta samples times Chebyshev
    nodes. The inner range is checked on that grid and a violation raises
    with the offending sample attached.
    """
    dom = g.domain
    if inner.domain != dom:
        raise ConsistencyError("composition operands on different domains")
    M = 2 * dom.n_fourier + 1
    thetas = np.arange(M) / M
    x = cheb_nodes(dom)
    L = dom.half_width

    inner_vals = inner.eval(thetas[:, None], scale * x)      # (M, n_cheb)
    bad = np.abs(inner_vals) > L * INTERVAL_SLACK
    if np.any(bad):
        j, i = np.argwhere(bad)[0]
        raise CompositionDomainError(
            f"inner value {inner_vals[j, i]:.6g} leaves [-{L}, {L}]",
            where=(thetas[j], x[i]))
    out_vals = g.eval(thetas[:, None] + float(shift), inner_vals)
    return QPFn._from_grid_values(dom, out_vals)


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


def _stack_modes(fns):
    """The half spectra of several QPFn on one domain, stacked for
    _eval_stacked: an (n_cheb, 2 F (K+1)) real array whose columns
    interleave (re, im) of mode k of function f."""
    dom = fns[0].domain
    if any(f.domain != dom for f in fns):
        raise ConsistencyError("evaluation operands on different domains")
    H = np.empty((dom.n_cheb, len(fns), dom.n_fourier + 1), dtype=complex)
    for i, f in enumerate(fns):
        H[:, i, :] = f.modes.T
    return H.reshape(dom.n_cheb, -1).view(float)


def _eval_stacked(domain, H, x, E):
    """The evaluation kernel: values (F, P) of the stacked functions H at
    the P points x (1-D), with E[p, k] = exp(2 pi i k theta_p)."""
    V = _cheb.chebvander(x / domain.half_width, domain.n_cheb - 1)  # (P, n)
    # real V against interleaved (re, im) columns: one real matmul
    A = (V @ H).view(complex).reshape(x.size, -1, domain.n_fourier + 1)
    return np.einsum("pfk,pk->fp", A, E).real


def eval_batch(fns, theta, x):
    """Values of several QPFn on one domain at the broadcast (theta, x).

    Returns shape (len(fns),) + broadcast shape. One Chebyshev Vandermonde
    of the points and one phase table exp(2 pi i k theta), k = 0..K, serve
    every function; the half spectra of all of them go through a single
    matrix product.
    """
    H = _stack_modes(fns)
    dom = fns[0].domain
    theta, x = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                   np.asarray(x, dtype=float))
    vals = _eval_stacked(dom, H, x.ravel(), _phases(theta, dom.n_fourier))
    return vals.reshape((len(fns),) + x.shape)


@lru_cache(maxsize=64)
def _sup_tables(domain):
    """Chebyshev Vandermonde of the sup x grid (4 n_cheb points clustered
    like Chebyshev extrema, so the interval endpoints are on grid) and the
    phase table exp(2 pi i k theta), k = 0..K, of the 4(2K+1) theta points."""
    n_x = 4 * domain.n_cheb
    t = np.cos(np.pi * np.arange(n_x) / (n_x - 1))
    V = _cheb.chebvander(t, domain.n_cheb - 1)
    n_t = 4 * (2 * domain.n_fourier + 1)
    E = _phases(np.arange(n_t) / n_t, domain.n_fourier)
    V.flags.writeable = False
    E.flags.writeable = False
    return V, E


def sup_norm(f):
    """Grid proxy for the supremum norm (deterministic fixed grid)."""
    V, E = _sup_tables(f.domain)
    if isinstance(f, AnalyticFn):
        return float(np.max(np.abs(V @ f.coeffs)))
    A = V @ f.modes.T                                  # (n_x, K+1)
    return float(np.max(np.abs(np.real(E @ A.T))))


def pair_sup_norm(domain, u, v):
    """PairFn(u, v).sup_norm() from bare coefficient arrays: the amplitude
    hypot(u(x), v(x)) maximized over the sup grid."""
    V, _ = _sup_tables(domain)
    uv = V @ np.stack([u, v], axis=1)
    return float(np.max(np.hypot(uv[:, 0], uv[:, 1])))


def eval_qpfn(f, theta, x):
    """Functional form of QPFn.eval with the domain guard of the contract.

    A reference kept for the tests, which check the guard; the library
    calls QPFn.eval and eval_batch directly."""
    L = f.domain.half_width
    if np.any(np.abs(np.asarray(x, dtype=float)) > L * INTERVAL_SLACK):
        raise DomainError(f"x outside [-{L}, {L}]", where=x)
    return f.eval(theta, x)
