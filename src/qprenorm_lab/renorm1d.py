"""One-dimensional doubling renormalization.

The operator is R(psi)(x) = psi(psi(a x)) / a with a = psi(1), acting on even
analytic maps normalized by psi(0) = 1. This module solves for the fixed
point Phi, extracts the unstable eigenvalue (the universal parameter-scaling
constant) and eigenvector, checks the complex-disc containment used by the
hyperbolicity hypothesis, and walks the invariant manifolds: superstable
parameter cascades s_n, their accumulation alpha*, and the unstable-manifold
intersections f*_j with the 2^j-superstable sets.

All derivative matrices and the parameter derivatives of a family are
assembled analytically; finite differences stay in the tests as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import (DegenerateScalingError, DomainError, InconsistencyError,
                     MeshError, NoConvergenceError, PrecisionExhaustedError,
                     SearchError)
from .funcspace import (INTERVAL_SLACK, W_CENTER, W_RADIUS, AnalyticFn,
                        DomainConfig, QPFn, _cheb_machinery, _cheb_vander,
                        _diff_matrix, project_p0, sup_norm)

TOL_A = 1e-8
N_FIT = 12            # cascade levels behind the alpha* extrapolation
H0_BOUNDARY = 512     # disc boundary samples of the H0 containment check
ESCAPE_STEPS = 60     # renormalizations _classify_side waits for an escape
MAX_LEVEL = 14        # deepest superstable level (see superstable_params)


def _read_only(arr):
    arr.flags.writeable = False
    return arr


@dataclass
class UnimodalMap:
    """Even analytic map with psi(0) = 1; a = psi(1) is cached.

    The operator data at the map (two Chebyshev Vandermondes, then L1, L2,
    DR and R(psi) as products with them) is built on first use and kept on
    the object as read-only arrays, so it lives exactly as long as the map
    does; l1_matrix, l2_matrix, dr_matrix and renormalize_1d read it. A map
    is therefore not to be changed in place.
    """

    psi: AnalyticFn
    a: float = field(init=False)

    def __post_init__(self):
        self.a = float(self.psi(1.0))

    @property
    def domain(self):
        return self.psi.domain

    @classmethod
    def from_callable(cls, domain, fn):
        return cls(AnalyticFn.from_callable(domain, fn)).validate()

    def validate(self):
        """Membership checks for the normalized unimodal class.

        psi(0) = 1 and x psi'(x) < 0 are hard errors; whether psi maps the
        interval into itself is recorded (in_domain_R reports it).
        """
        v0 = float(self.psi(0.0))
        if abs(v0 - 1.0) > 1e-9:
            raise DomainError(f"psi(0) = {v0}, not 1")
        L = self.domain.half_width
        x = np.linspace(0.05 * L, L, 64)
        if np.any(self.psi.deriv()(x) >= 0):
            raise DomainError("psi is not decreasing on the positive half")
        return self

    def maps_interval_into_itself(self):
        L = self.domain.half_width
        x = np.linspace(-L, L, 257)
        return bool(np.all(np.abs(self.psi(x)) <= L * INTERVAL_SLACK))

    def embed(self):
        return QPFn.from_analytic(self.psi)

    # ------------------------------------------ operator data, built once
    #
    # All of it comes from two Chebyshev Vandermondes at the collocation
    # nodes x_i = L t_i: E_in at a x_i and E_out at psi(a x_i).

    @cached_property
    def _e_in(self):
        """E_in[i, j] = T_j(a t_i)."""
        t, _, _ = _cheb_machinery(self.domain.n_cheb)
        return _read_only(_cheb_vander(self.a * t, self.domain.n_cheb))

    @cached_property
    def _e_out(self):
        """E_out[i, j] = T_j(psi(a x_i) / L)."""
        dom = self.domain
        inner = self._e_in @ self.psi.coeffs                # psi(a x_i)
        return _read_only(_cheb_vander(inner / dom.half_width, dom.n_cheb))

    @cached_property
    def _renormalized(self):
        vals = self._e_out @ self.psi.coeffs / self.a
        rpsi = AnalyticFn.from_values(self.domain, vals)
        _read_only(rpsi.coeffs)
        return UnimodalMap(rpsi)

    @cached_property
    def _l1(self):
        dom = self.domain
        n = dom.n_cheb
        _, _, A = _cheb_machinery(n)
        dc = _diff_matrix(n) @ self.psi.coeffs
        w = self._e_out @ dc / (dom.half_width * self.a)   # psi'(psi(a x))/a
        return _read_only(A @ (w[:, None] * self._e_in))

    @cached_property
    def _l2(self):
        _, _, A = _cheb_machinery(self.domain.n_cheb)
        return _read_only(A @ (self._e_out / self.a))

    @cached_property
    def _dr(self):
        a = self.a
        if abs(a) < TOL_A:
            raise DegenerateScalingError("derivative assembly at degenerate a")
        dom = self.domain
        n = dom.n_cheb
        t, V, A = _cheb_machinery(n)
        rc = self._renormalized.psi.coeffs
        # x (R psi)'(x) at x = L t is t times the [-1, 1] derivative
        w_vals = (t * (V @ (_diff_matrix(n) @ rc)) - V @ rc) / a
        return _read_only(self._l1 + self._l2
                          + np.outer(A @ w_vals, _row_at_one(dom)))


@lru_cache(maxsize=64)
def _row_at_one(domain):
    """T_j(1 / L) for j < n_cheb: the row of u -> u(1) on coefficients."""
    return _read_only(_cheb.chebvander(
        np.array([1.0 / domain.half_width]), domain.n_cheb - 1)[0])


@dataclass
class FixedPointData:
    phi: UnimodalMap
    a_star: float
    delta_feig: float
    e_unstable: AnalyticFn
    newton_residual: float
    eig_moduli: np.ndarray = None
    spectral_gap: float = None
    # f*_j by j, filled by unstable_manifold_points
    _unstable: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)


@dataclass
class FamilySpec:
    """Two-parameter family c(alpha, eps) in normalized coordinates.

    evaluator returns the cylinder map; du_dalpha(alpha) and dv_deps(alpha)
    are its exact parameter derivatives at eps = 0 (the first on the
    uncoupled slice, the second on the cylinder). alpha_box = (lo, hi) is
    the parameter range the superstable search scans. raw_step(alpha, x)
    returns (f, f_x, f_alpha) at x for an un-normalized one-dimensional
    representative with critical point x_crit, used for that search, where
    the normalizing conjugacy may degenerate.
    """

    name: str
    evaluator: Callable[[float, float], QPFn]
    du_dalpha: Callable[[float], AnalyticFn]
    dv_deps: Callable[[float], QPFn]
    alpha_box: tuple
    raw_step: Optional[Callable[[float, float], tuple]] = None
    x_crit: Optional[float] = None
    # s_n and alpha*, filled by superstable_params and stable_manifold_param,
    # and the Sigma_1-polished parameters by n ("sigma1"), filled by
    # curvedyn.slope_chain in exact-orbit mode
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def psi0(self, alpha):
        """The uncoupled slice c(alpha, 0) as a 1-D map."""
        return UnimodalMap(project_p0(self.evaluator(alpha, 0.0)))


# ----------------------------------------------------- operator and matrices

def in_domain_R(psi):
    """Domain check for the doubling operator, naming the failed clauses.

    Clauses: a < 0; 1 > b' > -a'; psi(b') < -a', where a' = (1+delta) a and
    b' = psi(a'). Returns a report object that is truthy iff all hold.
    """
    L = psi.domain.half_width
    a = psi.a
    a_prime = L * a
    b_prime = float(psi.psi(a_prime))
    psi_b = float(psi.psi(b_prime))
    clauses = {
        "a_negative": a < 0,
        "b_prime_bracket": bool(1.0 > b_prime > -a_prime),
        "image_below": bool(psi_b < -a_prime),
        "range_ok": bool(abs(a_prime) <= L * INTERVAL_SLACK
                         and abs(b_prime) <= L * INTERVAL_SLACK),
        "maps_into_interval": psi.maps_interval_into_itself(),
    }
    failing = [k for k, v in clauses.items() if not v]
    return DomainCheck(ok=not failing, a=a, a_prime=a_prime, failing=failing)


@dataclass
class DomainCheck:
    ok: bool
    a: float
    a_prime: float
    failing: list

    def __bool__(self):
        return self.ok


def renormalize_1d(psi, check_domain=True):
    """R(psi) = psi o psi(a x) / a, re-expanded on the Chebyshev grid.

    The scaling and domain checks run on every call; the expansion is built
    once per map and returned as the same read-only map afterwards.
    """
    a = psi.a
    if abs(a) < TOL_A:
        raise DegenerateScalingError(f"a = psi(1) = {a:.3e} too small")
    if check_domain:
        chk = in_domain_R(psi)
        if not chk:
            raise DomainError(f"psi outside the operator domain: {chk.failing}")
    return psi._renormalized


def l1_matrix(psi):
    """Matrix of g -> psi'(psi(a x)) g(a x) / a on Chebyshev coefficients."""
    return psi._l1


def l2_matrix(psi):
    """Matrix of g -> g(psi(a x)) / a on Chebyshev coefficients."""
    return psi._l2


def dr_matrix(psi):
    """Full derivative of the doubling operator at psi.

    DR(psi) u = L1 u + L2 u + u(1) w with
    w(x) = (x (R psi)'(x) - (R psi)(x)) / a; the last term tracks the
    variation of the rescaling constant a = psi(1).
    """
    return psi._dr


# ------------------------------------------------------------- fixed point

def _even_tangent_basis(n):
    """Columns span {u even, u(0) = 0} in coefficient space.

    phi_m = T_{2m} - T_{2m}(0) T_0 for m = 1..M-1, M = number of even
    degrees below n.
    """
    m_count = (n + 1) // 2
    B = np.zeros((n, m_count - 1))
    for m in range(1, m_count):
        B[2 * m, m - 1] = 1.0
        B[0, m - 1] = -((-1.0) ** m)
    return B


def solve_fixed_point(initial):
    """Newton solve of R(psi) = psi on the even, psi(0)=1 slice.

    Returns the fixed point together with the spectrum data of its
    derivative restricted to the invariant tangent space {even, u(0)=0}.
    """
    dom = initial.domain
    n = dom.n_cheb
    c = AnalyticFn.from_callable(dom, initial.psi).coeffs
    c[1::2] = 0.0
    # pin psi(0) = 1 exactly
    val0 = float(_cheb.chebval(0.0, c))
    c[0] += 1.0 - val0

    B = _even_tangent_basis(n)
    residual = np.inf
    for _ in range(50):
        psi = UnimodalMap(AnalyticFn(c.copy(), dom))
        rpsi = renormalize_1d(psi, check_domain=False)
        R = rpsi.psi.coeffs - c
        residual = sup_norm(AnalyticFn(R, dom))
        if residual <= 1e-12:
            break
        J = dr_matrix(psi) - np.eye(n)
        db, *_ = np.linalg.lstsq(J @ B, -R, rcond=None)
        if not np.all(np.isfinite(db)):
            raise NoConvergenceError("Newton step not finite", residual)
        c = c + B @ db
        c[1::2] = 0.0
    if residual > 1e-10:
        raise NoConvergenceError("fixed-point Newton stalled", residual)

    phi = UnimodalMap(AnalyticFn(c, dom))
    DR = dr_matrix(phi)
    M_red, *_ = np.linalg.lstsq(B, DR @ B, rcond=None)
    lam, vec = np.linalg.eig(M_red)
    moduli = np.sort(np.abs(lam))[::-1]
    i_top = int(np.argmax(np.abs(lam)))
    delta = lam[i_top]
    if abs(delta.imag) > 1e-8 or delta.real <= 1.0:
        raise NoConvergenceError(f"unstable eigenvalue looks wrong: {delta}")
    e_coeffs = np.real(B @ vec[:, i_top])
    e_coeffs /= np.linalg.norm(e_coeffs)
    e = AnalyticFn(e_coeffs, dom)
    if e(1.0) < 0:
        e = -e
    return FixedPointData(
        phi=phi, a_star=phi.a, delta_feig=float(delta.real), e_unstable=e,
        newton_residual=float(residual), eig_moduli=moduli,
        spectral_gap=float(moduli[0] - moduli[1]))


@lru_cache(maxsize=8)
def feigenbaum_fixed_point(domain=DomainConfig()):
    """Cached fixed point for a domain, seeded from the quadratic family."""
    seed = UnimodalMap.from_callable(domain, lambda x: 1.0 - 1.4 * x * x)
    return solve_fixed_point(seed)


# ---------------------------------------------------------------- H0 check

@dataclass
class H0Report:
    margin_a_disc: float
    margin_image_disc: float
    contained: bool
    n_boundary: int


def check_H0(fp):
    """Sampled containment of a*W and Phi(a*W) in the disc W, at
    H0_BOUNDARY points of its boundary.

    Positive margins mean the sampled image stays strictly inside; this is
    a numerical check, not a rigorous bound.
    """
    c, r = W_CENTER, W_RADIUS
    z = c + r * np.exp(2j * np.pi * np.arange(H0_BOUNDARY) / H0_BOUNDARY)
    a = fp.a_star
    m1 = r - float(np.max(np.abs(a * z - c)))
    img = fp.phi.psi(a * z)
    m2 = r - float(np.max(np.abs(img - c)))
    return H0Report(margin_a_disc=m1, margin_image_disc=m2,
                    contained=bool(m1 > 0 and m2 > 0), n_boundary=H0_BOUNDARY)


# --------------------------------------------------- superstable parameters

def _orbit_with_deriv(family, alpha, steps):
    """(f^steps(x_c) - x_c, d/dalpha of it) for the family's raw map."""
    x = family.x_crit
    P = 0.0
    for _ in range(steps):
        x, f_x, f_alpha = family.raw_step(alpha, x)
        P = f_alpha + f_x * P
        if not math.isfinite(x) or abs(x) > 1e6:
            return np.nan, np.nan
    return x - family.x_crit, P


def _orbit_value(family, alpha, steps):
    return _orbit_with_deriv(family, alpha, steps)[0]


def _sign_changes(grid, vals):
    """(grid[i], grid[i + 1]) for each cell where vals changes sign between
    two finite values, in grid order."""
    vals = np.asarray(vals, dtype=float)
    a, b = vals[:-1], vals[1:]
    cells = np.isfinite(a) & np.isfinite(b) & (np.sign(a) * np.sign(b) < 0)
    for i in np.flatnonzero(cells):
        yield grid[i], grid[i + 1]


_BRENT_RTOL = 4 * np.finfo(float).eps


def _brentq(f, a, b, xtol, rtol=_BRENT_RTOL, maxiter=100):
    """Root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    A port of SciPy's brentq C kernel to Python floats that keeps its
    operation order, so it returns the same float bit for bit. The root
    is within xtol + rtol |x| of a sign change. f(a) and f(b) of the same
    sign, or a NaN from f, raise SearchError; maxiter iterations without
    convergence raise NoConvergenceError.
    """
    xtol, rtol = float(xtol), float(rtol)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENT_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENT_RTOL:g})")

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise SearchError(f"f is NaN at x = {x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise SearchError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass  # C divides to inf or NaN, which bisects below
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise NoConvergenceError(
        f"Brent search did not converge in {maxiter} iterations",
        residual=abs(fcur))


def superstable_params(family, n_max):
    """Parameters s_0 < s_1 < ... where the critical orbit has period 2^n.

    Root search on f^{2^n}(x_c) = x_c of the family's raw map: bracket scan
    for the first two levels, then ratio-guided Newton. The levels are kept
    on the family and a deeper request extends them in place. A Newton run
    that hits a non-finite orbit or a zero derivative, leaves its bracket,
    does not converge, or lands on a root whose half orbit returns to the
    critical point raises SearchError naming the level. A family without a
    raw map has only the levels stored with it (see
    asymptotics.renormalized_family); asking past them raises SearchError.

    Past MAX_LEVEL the logistic gap ratios leave delta by rounding (1.8e-4
    at n = 15, 0.1 at n = 18), so n_max > MAX_LEVEL raises
    PrecisionExhaustedError.
    """
    if n_max > MAX_LEVEL:
        raise PrecisionExhaustedError(
            f"superstable level n = {n_max} is above MAX_LEVEL = {MAX_LEVEL}")
    s = family._cache.setdefault("superstable", [])
    if len(s) <= n_max and family.raw_step is None:
        raise SearchError(
            f"family {family.name!r} has no raw map and stores "
            f"{len(s)} superstable levels; n = {n_max} asked")
    for n in range(len(s), n_max + 1):
        s.append(_scan_level(family, s, n) if n < 2
                 else _newton_level(family, s, n))
    return np.array(s[:n_max + 1])


def _scan_level(family, s, n):
    """s_0 scans the box; s_1 scans upward from s_0, skipping its
    neighborhood."""
    a_lo, a_hi = family.alpha_box
    steps = 2 ** n
    lo = s[0] + 0.02 * (a_hi - s[0]) if n else a_lo
    grid = np.linspace(lo, a_hi, 256)
    cell = next(_sign_changes(
        grid, [_orbit_value(family, g, steps) for g in grid]), None)
    if cell is None:
        raise SearchError(
            "no superstable fixed point in the parameter box (n=0)" if n == 0
            else "no period-2 superstable parameter found (n=1)")
    return _brentq(lambda t: _orbit_value(family, t, steps), *cell,
                   xtol=1e-14)


def _newton_level(family, s, n):
    """s_n for n >= 2 by Newton from the gap ratio of the levels below."""
    if n == 2:
        delta_est = 4.67
    else:
        delta_est = (s[n - 2] - s[n - 3]) / (s[n - 1] - s[n - 2])
    pred = (s[n - 1] - s[n - 2]) / delta_est
    lo_b, hi_b = s[n - 1] + 0.05 * pred, s[n - 1] + 3.0 * pred
    steps = 2 ** n
    alpha = s[n - 1] + pred
    for _ in range(40):
        h, P = _orbit_with_deriv(family, alpha, steps)
        if not np.isfinite(h) or P == 0:
            raise SearchError(
                f"superstable Newton at n={n}: orbit not finite or zero "
                f"parameter derivative at alpha = {alpha!r}")
        step = h / P
        alpha = alpha - step
        if not (lo_b < alpha < hi_b):
            raise SearchError(
                f"superstable Newton at n={n}: alpha = {alpha!r} left the "
                f"bracket ({lo_b!r}, {hi_b!r})")
        if abs(step) < 1e-14 * max(1.0, abs(alpha)):
            break
    else:
        raise SearchError(
            f"superstable Newton at n={n}: no convergence in 40 steps")
    # minimal-period guard: the half orbit must miss the critical point
    half_res = abs(_orbit_value(family, alpha, 2 ** (n - 1)))
    if half_res < max(1e-8, 0.3 ** n):
        raise SearchError(
            f"superstable Newton at n={n}: the half orbit returns within "
            f"{half_res:.3e} of the critical point")
    return alpha


# ---------------------------------------------------------- stable manifold

def _classify_side(family, alpha):
    """Which side of the accumulation: 'below' or 'above', by escape type."""
    psi = family.psi0(alpha)
    for _ in range(ESCAPE_STEPS):
        chk = in_domain_R(psi)
        if not chk:
            return "below" if chk.a > 0 else "above"
        try:
            psi = renormalize_1d(psi, check_domain=False)
        except DegenerateScalingError:
            return "above"
        if not np.all(np.isfinite(psi.psi.coeffs)):
            return "above"
    raise NoConvergenceError("no escape within the iteration budget")


def stable_manifold_param(family):
    """Accumulation parameter alpha* = lim s_n.

    Geometric extrapolation of the cascade s_0..s_N_FIT, certified by
    renormalization escape: s_n and alpha_extrap - 1e-8 must escape 'below'
    and alpha_extrap + 1e-8 'above', so the escape boundary lies within
    1e-8 of the extrapolation. Any other verdict raises InconsistencyError.
    """
    cached = family._cache.get("alpha_star")
    if cached is not None:
        return cached
    s = superstable_params(family, N_FIT)
    d1 = s[-2] - s[-3]
    d2 = s[-1] - s[-2]
    rho = d2 / d1
    alpha_extrap = s[-1] + d2 * rho / (1.0 - rho)

    for name, point, expected in (
            ("s_n", s[-1], "below"),
            ("alpha_extrap - 1e-8", alpha_extrap - 1e-8, "below"),
            ("alpha_extrap + 1e-8", alpha_extrap + 1e-8, "above")):
        verdict = _classify_side(family, point)
        if verdict != expected:
            raise InconsistencyError(
                f"extrapolation {float(alpha_extrap)!r}: {name} = "
                f"{float(point)!r} escapes {verdict!r}, not {expected!r}")
    family._cache["alpha_star"] = alpha_extrap
    return alpha_extrap


# -------------------------------------------------------- unstable manifold

def _crit_orbit_residual(psi, j):
    """psi^(2^j)(0); NaN when the orbit leaves the interval."""
    L = psi.domain.half_width
    x = 0.0
    for _ in range(2 ** j):
        x = float(psi.psi(x))
        if abs(x) > L:
            return np.nan
    return x


def unstable_manifold_points(fp, j_max):
    """f*_j for j = 1..j_max: unstable-manifold maps whose critical orbit is
    2^j-superstable.

    Each f*_j is computed independently of the others and kept on fp, so a
    later call computes only the j it has not seen; the list is fresh on
    every call.
    """
    for j in range(1, j_max + 1):
        if j not in fp._unstable:
            fp._unstable[j] = _unstable_point(fp, j)
    return [fp._unstable[j] for j in range(1, j_max + 1)]


def _unstable_point(fp, j):
    """f*_j, seeded to first order as Phi + t e and grown by renormalizing.

    The crossing of psi^(2^j)(0) = 0 is located in the (iteration count,
    mesh parameter) ladder and refined by _brentq; f*_1 satisfies
    psi(1) = 0.

    The seed size shrinks with j: f*_j sits at manifold distance about
    3.6 delta^(1-j) from Phi, and keeping the growth to a few doubling
    steps bounds both the linearization error of the seed and the rounding
    amplification along the unstable direction.
    """
    phi = fp.phi
    e = fp.e_unstable
    dom = phi.domain
    delta = fp.delta_feig
    taus = np.geomspace(1.0, delta, 17)
    s_est = 3.6 * delta ** (1 - j)
    t0 = float(np.clip(s_est / delta ** 4, 1e-12, 1e-5))

    def seed(tau):
        return UnimodalMap(AnalyticFn(
            phi.psi.coeffs + tau * t0 * e.coeffs, dom))

    def map_at(tau, k):
        m = seed(tau)
        for _ in range(k):
            m = renormalize_1d(m, check_domain=False)
        return m

    maps = [seed(t) for t in taus]
    for k in range(0, 14):
        if k:
            maps = [renormalize_1d(m, check_domain=False) for m in maps]
        vals = [_crit_orbit_residual(m, j) for m in maps]
        for cell in _sign_changes(taus, vals):
            tau_star = _brentq(
                lambda t: _crit_orbit_residual(map_at(t, k), j),
                *cell, xtol=1e-15, rtol=8.9e-16)
            return map_at(tau_star, k)
    raise MeshError(f"no Sigma_{j} crossing within the growth budget")
