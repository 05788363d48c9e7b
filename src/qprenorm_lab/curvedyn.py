"""Direct dynamics of quasi-periodically forced unimodal maps.

A forced map f(theta, x) is iterated over the skew rotation theta -> theta
+ omega. The objects here are the 2^n-periodic invariant curves solved on a
uniform theta-grid, the two-step fiber-derivative products G1 (and their
uncoupled scalar version), the first derivative DG1 at a superstable
uncoupled map obtained by linearizing the invariance equation, grid extrema
with trigonometric refinement, and two independent routes to the
reducibility-loss slope:

  * slope_formula: the renormalization chain
    alpha'_n = -m(DG1(omega_{n-1}, f_{n-1}) v_{n-1}) / DG1_hat(f_{n-1}) u_{n-1}
    propagated either along the exact orbit R^k(c(s_n, 0)) or along the
    fixed point with an f*_j tail;
  * locate_reducibility_loss: direct bisection in alpha of the criterion
    "extremum over theta of the period derivative product hits zero".

The two must agree within a few percent at small n; the tests enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (BasinError, ConsistencyError, DegeneratePointError,
                     DegenerateScalingError, DomainError, EscapeError,
                     ExistenceError, NoConvergenceError, SearchError)
from .funcspace import (INTERVAL_SLACK, AnalyticFn, DomainConfig, QPFn,
                        _eval_stacked, _phases, _stack_modes, project_p0)
from .qprenorm import RotationNumber, apply_DT
from .renorm1d import (FamilySpec, UnimodalMap, _brentq, dr_matrix,
                       feigenbaum_fixed_point, renormalize_1d,
                       stable_manifold_param, superstable_params,
                       unstable_manifold_points)

TOL_CURVE = 1e-11
TOL_SIGMA1 = 1e-9     # |psi(1)| up to which a map counts as on Sigma_1
M_GRID = 512
LOG_FLOOR = -1e3
DAMPED_STALL = 50     # damped iterations without a new best residual
NEWTON_SWITCH = 1e-3  # damped residual at which Newton takes over


# ------------------------------------------------------------ fiber orbits

def iterate_fiber(f, omega, n, theta, x):
    """f^n(theta, x) along the skew rotation; raises on interval escape.

    A pointwise reference kept for the tests; the solvers step the whole
    grid with _orbit_grid."""
    L = f.domain.half_width
    w = float(omega)
    x = float(x)
    for j in range(n):
        x = float(f.eval(theta + j * w, x))
        if not np.isfinite(x) or abs(x) > L * INTERVAL_SLACK:
            raise EscapeError(f"orbit left the interval at step {j + 1}", j + 1)
    return x


def _step_phases(thetas, w, steps, K):
    """Phase tables exp(2 pi i k (theta + j w)), k = 0..K, for the steps
    j = 0..steps-1 of a grid orbit, one at a time: the grid's table times
    the K+1 phases of j w mod 1. It differs from _phases(thetas + j w, K)
    by the rounding of the sum theta + j w, about 2 pi k ulp(j w) in mode
    k, and costs one complex product per entry instead of a cumprod."""
    E0 = _phases(thetas, K)
    for j in range(steps):
        yield E0 * _phases(j * w, K)


def _orbit_grid(f, fx, omega, steps, thetas, X):
    """Vectorized f^steps over the grid, with fx = f.dx(); returns final X
    and the derivative product and per-step log-derivative sum (with the
    superstable floor). f and fx are stacked once and each step evaluates
    both in one kernel call."""
    dom = f.domain
    L = dom.half_width
    H = _stack_modes((f, fx))
    X = np.array(X, dtype=float)
    logs = np.zeros_like(X)
    prod = np.ones_like(X)
    for j, E in enumerate(_step_phases(thetas, float(omega), steps,
                                       dom.n_fourier)):
        X, d = _eval_stacked(dom, H, X, E)
        prod = prod * d
        with np.errstate(divide="ignore"):
            logs = logs + np.maximum(np.log(np.abs(d)), LOG_FLOOR)
        if not np.all(np.isfinite(X)) or np.max(np.abs(X)) > L * INTERVAL_SLACK:
            raise EscapeError(f"grid orbit left the interval at step {j + 1}",
                              j + 1)
    return X, prod, logs


# --------------------------------------------------------- invariant curves

@dataclass
class InvariantCurve:
    period_log2: int
    samples: np.ndarray
    omega: RotationNumber
    lyapunov: float
    residual: float
    product: np.ndarray    # fiber derivative product at the samples

    @property
    def M(self):
        return self.samples.size

    @property
    def thetas(self):
        return np.arange(self.M) / self.M


def _shift_phases(M, s):
    k = np.arange(M // 2 + 1)
    ph = np.exp(2j * np.pi * k * s)
    if M % 2 == 0:
        ph[-1] = np.cos(np.pi * M * s)   # Nyquist stays real on the grid
    return ph


def _shift_samples(vals, s):
    """Band-limited evaluation of the grid function at theta + s."""
    M = vals.shape[0]
    spec = np.fft.rfft(vals, axis=0)
    ph = _shift_phases(M, s)
    if vals.ndim > 1:
        ph = ph[:, None]
    return np.fft.irfft(spec * ph, M, axis=0)


def _shift_matrix(M, s):
    """S with S @ vals = _shift_samples(vals, s): the shift is a circular
    convolution, so S is the circulant S[i, j] = c[(i - j) % M] of the
    shifted unit sample c."""
    e0 = np.zeros(M)
    e0[0] = 1.0
    c = _shift_samples(e0, s)
    cc = np.concatenate((c, c))[::-1]      # cc[M - 1 - i + j] = c[(i - j) % M]
    return sliding_window_view(cc, M)[M - 1::-1].copy()


def solve_invariant_curve(f, omega, n, guess=None, M=M_GRID):
    """Solve x(theta + 2^n omega) = f^(2^n)(theta, x(theta)) on the grid.

    omega is a RotationNumber; the shift 2^n omega mod 1 is taken by n
    exact doublings. Each iterate costs one grid pass (_orbit_grid), in
    two stages:

    * damped fixed-point steps (lambda 0.6) pull the guess into the
      attracting curve until the residual max |x(theta + 2^n omega) -
      f^(2^n)| is below NEWTON_SWITCH = 1e-3. The stage gives up with
      BasinError after DAMPED_STALL iterations without a new best residual.
    * Newton steps, dense with the Jacobian diag(D_x f^(2^n)) - S and the
      circulant spectral shift matrix S, stop at residual 1e-13 or after
      20 steps; the residual must then be within TOL_CURVE.

    From 1e-3 Newton needs about three steps where the damped stage needs
    about 14 more to reach 1e-8, and it converges on period-16 curves
    whose damped residual stalls near 1e-6. A hand-over at 1e-2 lets Newton
    leave the interval on some period-16 curves. The Lyapunov exponent is
    the per-step average of log |D_x f| along the solved curve, floored in
    log-space at the superstable samples.
    """
    steps = 2 ** n
    thetas = np.arange(M) / M
    s_exact = omega
    for _ in range(n):
        s_exact = s_exact.double()
    s = float(s_exact)

    if guess is None:
        psi = project_p0(f)
        x = 0.0
        L = f.domain.half_width
        for _ in range(400):
            x = float(psi(x))
            if abs(x) > L:
                raise BasinError("default guess escaped; supply one")
        guess = np.full(M, x)
    X = np.array(guess, dtype=float)

    fx = f.dx()

    def forward(X):
        return _orbit_grid(f, fx, omega, steps, thetas, X)

    # one grid pass per iterate: FX, prod and logs always belong to X
    best, stale = np.inf, 0
    try:
        FX, prod, logs = forward(X)
        for it in range(300):
            target = _shift_samples(FX, -s)
            res = float(np.max(np.abs(target - X)))
            if res < NEWTON_SWITCH:
                break
            if res < best:
                best, stale = res, 0
            else:
                stale += 1
                if stale >= DAMPED_STALL:
                    raise BasinError(f"damped stage stalled: best residual "
                                     f"{best:.3e}, now {res:.3e}")
            lam = 0.6 if it < 50 else 1.0
            X = X + lam * (target - X)
            FX, prod, logs = forward(X)
    except EscapeError as e:
        raise BasinError(f"fixed-point stage escaped: {e}")

    S = _shift_matrix(M, s)
    J = np.empty_like(S)   # one Jacobian buffer for all Newton steps
    try:
        for it in range(21):
            G = FX - S @ X
            residual = float(np.max(np.abs(G)))
            if residual <= 1e-13 or it == 20:
                break
            np.negative(S, out=J)
            J.flat[::M + 1] += prod        # J = diag(prod) - S
            X = X + np.linalg.solve(J, -G)
            FX, prod, logs = forward(X)
    except EscapeError as e:
        raise BasinError(f"Newton stage escaped: {e}")
    except np.linalg.LinAlgError:
        raise BasinError("Newton stage: singular Jacobian")

    if residual > TOL_CURVE:
        raise BasinError(f"curve residual {residual:.3e} above tolerance")
    lyap = float(np.mean(logs)) / steps
    return InvariantCurve(period_log2=n, samples=X, omega=omega,
                          lyapunov=lyap, residual=residual, product=prod)


def fiber_product(f, omega, curve):
    """Product of the 2^n fiber derivatives along the curve, per theta.

    Recomputed by one grid pass; it equals the curve's own product, which
    the solve kept from its last pass."""
    _, prod, _ = _orbit_grid(f, f.dx(), omega, 2 ** curve.period_log2,
                             curve.thetas, curve.samples)
    return prod


def G1(f, omega, curve):
    """Two-step derivative product D_x f(theta+omega, f(theta, x)) D_x f,
    one value per grid theta of the period-2 curve."""
    if curve.period_log2 != 1:
        raise ConsistencyError("G1 takes a period-2 curve")
    if omega.num != curve.omega.num:
        raise ConsistencyError("curve was solved at a different omega")
    return fiber_product(f, omega, curve)


# ----------------------------------------------------- uncoupled 2-cycles

def G1_hat(psi):
    """Multiplier psi'(x1) psi'(x2) of the attracting real 2-cycle.

    A reference kept for the tests, where it pins the uncoupled multiplier
    that G1 reproduces on a theta-independent map; the library does not
    call it."""
    L = psi.domain.half_width
    x = 0.0
    for _ in range(2000):
        x = float(psi.psi(x))
        if abs(x) > L:
            raise ExistenceError("critical orbit escapes; no attracting 2-cycle")
    # Newton polish on psi(psi(x)) - x
    dpsi = psi.psi.deriv()
    for _ in range(60):
        fx = float(psi.psi(x))
        ffx = float(psi.psi(fx))
        h = ffx - x
        dh = float(dpsi(fx)) * float(dpsi(x)) - 1.0
        if abs(dh) < 1e-14:
            break
        x_new = x - h / dh
        if abs(x_new) > L:
            break
        if abs(x_new - x) < 1e-15:
            x = x_new
            break
        x = x_new
    fx = float(psi.psi(x))
    if abs(float(psi.psi(fx)) - x) > 1e-10 or abs(fx - x) < 1e-8:
        raise ExistenceError("no real 2-periodic orbit found")
    return float(dpsi(x)) * float(dpsi(fx))


def DG1_hat(psi, u):
    """Derivative of the 2-cycle multiplier at psi in Sigma_1, direction u."""
    c1, c2 = _sigma1_constants(psi)
    u0 = float(u(0.0))
    u1 = float(u(1.0))
    du0 = float(u.deriv()(0.0))
    return c1 * (du0 + c2 * (c1 * u0 + u1))


def _sigma1_constants(psi):
    """(psi'(1), psi''(0)) of a map on Sigma_1, from one derivative chain.

    Raises DomainError when |psi(1)| > TOL_SIGMA1 and DegeneratePointError
    when psi''(0) vanishes."""
    r = abs(psi.a)
    if r > TOL_SIGMA1:
        raise DomainError(f"psi(1) = {r:.3e}: not on Sigma_1")
    d1 = psi.psi.deriv()
    c2 = float(d1.deriv()(0.0))
    if abs(c2) < 1e-8:
        raise DegeneratePointError("psi''(0) vanishes; formula degenerate")
    return float(d1(1.0)), c2


def DG1(psi, omega, v):
    """First derivative of G1 at the uncoupled superstable map, direction v,
    on the M_GRID-point theta grid.

    Linearizing the invariance equation around the critical 2-cycle
    0 -> 1 -> 0 gives the curve response
        dx(theta) = psi'(1) v(theta - 2 omega, 0) + v(theta - omega, 1)
    and the product response
        DG1 v(theta) = psi'(1) [d_x v(theta, 0) + psi''(0) dx(theta)].
    """
    c1, c2 = _sigma1_constants(psi)
    w = float(omega)
    thetas = np.arange(M_GRID) / M_GRID
    zeros = np.zeros(M_GRID)
    dx = c1 * v.eval(thetas - 2 * w, zeros) + v.eval(thetas - w, zeros + 1.0)
    return c1 * (v.dx().eval(thetas, zeros) + c2 * dx)


def functional_K(omega, psi, v):
    """K(omega, f, v) = m(DG1(omega, f) v)."""
    return extremum_m(DG1(psi, omega, v)).value


# ------------------------------------------------------------------ extrema

@dataclass
class ExtremumResult:
    value: float
    theta: float
    degenerate: bool


def _trig_eval(spec_half, M, theta, deriv=0):
    k = np.arange(spec_half.size)
    ph = np.exp(2j * np.pi * k * theta)
    fac = (2j * np.pi * k) ** deriv
    weights = np.full(spec_half.size, 2.0)
    weights[0] = 1.0
    if M % 2 == 0:
        weights[-1] = 1.0
    return float(np.real(np.sum(weights * fac * spec_half * ph))) / M


def extremum_m(vals):
    """min over the circle: grid argmin, three-point quadratic step, then
    Newton on the trigonometric interpolant. Degenerate (flat) minima are
    flagged and returned at grid accuracy."""
    vals = np.asarray(vals, dtype=float)
    M = vals.size
    i = int(np.argmin(vals))
    gm = vals[i]
    gl, gr = vals[(i - 1) % M], vals[(i + 1) % M]
    scale = max(1.0, float(np.max(np.abs(vals))))
    d1 = 0.5 * (gr - gl)
    d2 = gr - 2 * gm + gl
    if abs(d2) <= 1e-10 * scale:
        return ExtremumResult(value=float(gm), theta=i / M, degenerate=True)
    off = float(np.clip(-d1 / d2, -1.0, 1.0))
    theta = (i + off) / M
    value = float(gm - d1 * d1 / (2 * d2))

    # The quadratic step can overshoot below the true minimum; Newton on the
    # trigonometric interpolant is the authoritative refinement and the
    # quadratic value is only a fallback when that iteration goes bad.
    spec_half = np.fft.rfft(vals)
    th = theta
    ok = True
    for _ in range(10):
        g1 = _trig_eval(spec_half, M, th, deriv=1)
        g2 = _trig_eval(spec_half, M, th, deriv=2)
        if g2 <= 0 or not np.isfinite(g2):
            ok = False
            break
        step = -g1 / g2
        step = float(np.clip(step, -1.0 / M, 1.0 / M))
        th += step
        if abs(step) < 1e-16:
            break
    if ok and abs(th - theta) <= 2.0 / M:
        refined = _trig_eval(spec_half, M, th)
        return ExtremumResult(value=refined, theta=th % 1.0, degenerate=False)
    return ExtremumResult(value=value, theta=theta % 1.0, degenerate=False)


def extremum_M(vals):
    r = extremum_m(-np.asarray(vals, dtype=float))
    return ExtremumResult(value=-r.value, theta=r.theta,
                          degenerate=r.degenerate)


# ------------------------------------------------------------- slope chains

@dataclass
class ChainResult:
    """End of a slope chain: u_{n-1}, the directions v_0..v_{n-1} with
    their rotation numbers omega_0..omega_{n-1}, and the map on Sigma_1 at
    which the slope is evaluated."""

    u_end: AnalyticFn
    vs: list
    omegas: list
    psi_end: UnimodalMap

    @property
    def omega_end(self):
        return self.omegas[-1]


def _polish_sigma1(family, alpha0, n):
    """Sharpen alpha so that R^(n-1)(c(alpha, 0)) lands on Sigma_1.

    The superstable parameter satisfies this in exact arithmetic, but the
    n-1 renormalizations amplify its rounding by delta^(n-1); a secant
    polish on the renormalized criterion removes that.  The criterion
    itself carries the same delta^(n-1) amplification of double rounding,
    so the achievable residual scales with it; the acceptance threshold
    below corresponds to a fixed ~1e-13 accuracy in alpha.

    Returns the polished alpha and the map c(alpha, 0) there, which still
    holds the renormalizations the criterion built from it."""
    def g(alpha):
        m0 = family.psi0(alpha)
        m = m0
        for _ in range(n - 1):
            m = renormalize_1d(m, check_domain=False)
        return m.a, m0

    a0, a1 = alpha0, alpha0 + 1e-9 * max(1.0, abs(alpha0))
    (g0, m0), (g1, m1) = g(a0), g(a1)
    delta = feigenbaum_fixed_point(m0.domain).delta_feig
    tol = max(1e-12, 1e-13 * delta ** (n - 1))

    best = (a0, abs(g0), m0) if abs(g0) < abs(g1) else (a1, abs(g1), m1)
    stale = 0
    for _ in range(24):
        if abs(g1) <= 1e-13 or g1 == g0:
            break
        a0, a1, g0 = a1, a1 - g1 * (a1 - a0) / (g1 - g0), g1
        g1, m1 = g(a1)
        if abs(g1) < best[1]:
            best = (a1, abs(g1), m1)
            stale = 0
        else:
            stale += 1
            if stale >= 3:
                break
    best_a, best_g, best_m = best
    if best_g > tol:
        raise NoConvergenceError("Sigma_1 polish stalled", best_g)
    return best_a, best_m


def _project_sigma1(m):
    """Snap a map onto Sigma_1 by removing the psi(1) defect with an x^2 term.

    The correction r*x^2 (r = psi(1)) keeps psi(0) = 1 and evenness while
    zeroing psi(1) exactly; it is only meant to absorb the rounding-level
    residual left by parameter polishing, so the map changes by O(r)."""
    r = m.a
    L = m.domain.half_width
    c = m.psi.coeffs.copy()
    c[0] -= r * L * L / 2.0
    c[2] -= r * L * L / 2.0
    return UnimodalMap(AnalyticFn(c, m.domain))


def slope_chain(family, omega0, n, mode="exact-orbit"):
    """Propagate (u_k, v_k, omega_k) for k = 0..n-1 over a list of bases.

    exact-orbit: the bases are R^k(c(s_n, 0)) for k = 0..n-2, and the chain
    ends at R^(n-1)(c(s_n, 0)). fixed-point: the bases are Phi for
    k <= floor(n/2)-1 and the unstable-manifold points f*_{n-k+1} for the
    tail, so the last step is taken at f*_2 and the chain ends at f*_1.
    Each step pushes u by DR and v by DT_omega at its base, then doubles
    omega.

    The v_k are not put on the section: a shift t_gamma commutes with DT at
    a theta-independent base and leaves every norm and m(DG1 v) unchanged,
    so the slope does not depend on it. Callers that compare directions
    (check_H3) shift the vectors they compare.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode == "exact-orbit":
        # polished once per (family, n): the 2 omega table and the identity
        # gap rerun the same levels. Only the parameter is kept; a kept map
        # would keep its operator data alive.
        polished = family._cache.setdefault("sigma1", {})
        if n in polished:
            alpha = polished[n]
            f0 = family.psi0(alpha)
        else:
            s = superstable_params(family, n)
            alpha, f0 = _polish_sigma1(family, float(s[n]), n)
            polished[n] = alpha
        u = family.du_dalpha(alpha)
        bases = [f0]
        for _ in range(n - 1):
            bases.append(renormalize_1d(bases[-1], check_domain=False))
        end = bases.pop()
    elif mode == "fixed-point":
        alpha = stable_manifold_param(family)
        u = family.du_dalpha(alpha)
        fpd = feigenbaum_fixed_point(u.domain)
        stars = unstable_manifold_points(fpd, max(2, n - max(n // 2, 1) + 1))
        bases = [fpd.phi if k <= n // 2 - 1 else stars[n - k]
                 for k in range(1, n)]
        end = stars[0]
    else:
        raise ValueError(f"unknown mode {mode!r}")

    vs, omegas = [family.dv_deps(alpha)], [omega0]
    for k, base in enumerate(bases, start=1):
        try:
            u = AnalyticFn(dr_matrix(base) @ u.coeffs, u.domain)
            vs.append(apply_DT(base, omegas[-1], vs[-1]))
        except (DegenerateScalingError, DomainError) as e:
            raise type(e)(f"chain stage k={k}: {e}")
        omegas.append(omegas[-1].double())
    return ChainResult(u_end=u, vs=vs, omegas=omegas,
                       psi_end=_project_sigma1(end))


def slope_formula(family, omega0, n, mode="exact-orbit"):
    """(alpha'_n, beta'_n) from the renormalization chain."""
    ch = slope_chain(family, omega0, n, mode=mode)
    den = DG1_hat(ch.psi_end, ch.u_end)
    if abs(den) < 1e-300:
        raise DegenerateScalingError("DG1_hat denominator vanished")
    vals = DG1(ch.psi_end, ch.omega_end, ch.vs[-1])
    alpha_p = -extremum_m(vals).value / den
    beta_p = -extremum_M(vals).value / den
    return alpha_p, beta_p


# ----------------------------------------------- direct bifurcation search

def _criterion(family, omega0, n, eps, alpha, branch, guess):
    f = family.evaluator(alpha, eps)
    curve = solve_invariant_curve(f, omega0, n, guess=guess)
    prod = curve.product
    ext = extremum_m(prod) if branch == "min" else extremum_M(prod)
    return ext.value, curve.samples


def locate_reducibility_loss(family, omega0, n, eps, branch="min"):
    """alpha at which the extremum of the period derivative product hits 0.

    branch="min" tracks the minimum-touching curve (the alpha+ branch);
    branch="max" the maximum-touching one. At eps = 0 both collapse to the
    superstable parameter.
    """
    s = superstable_params(family, n)
    s_n = float(s[n])
    if eps == 0.0:
        return s_n

    guess = None
    d = max(4.0 * abs(eps), 1e-9)
    gap = s_n - float(s[n - 1]) if n >= 1 else 0.3
    val_s, guess = _criterion(family, omega0, n, eps, s_n, branch, guess)
    lo = hi = None
    for _ in range(40):
        g_lo, guess = _criterion(family, omega0, n, eps, s_n - d, branch, guess)
        g_hi, _ = _criterion(family, omega0, n, eps, s_n + d, branch, guess)
        if np.sign(g_lo) != np.sign(g_hi):
            lo, hi = s_n - d, s_n + d
            break
        d *= 3.0
        if d > 0.45 * gap:
            break
    if lo is None:
        raise SearchError("no sign change of the criterion near s_n")

    state = {"guess": guess}

    def g(alpha):
        val, samples = _criterion(family, omega0, n, eps, alpha, branch,
                                  state["guess"])
        state["guess"] = samples
        return val

    return _brentq(g, lo, hi, xtol=1e-12)


def direct_slope(family, omega0, n, eps=1e-4, branch="min"):
    """Richardson-extrapolated slope (alpha_loss(eps) - s_n) / eps."""
    s_n = float(superstable_params(family, n)[n])
    a1 = locate_reducibility_loss(family, omega0, n, eps, branch=branch)
    a2 = locate_reducibility_loss(family, omega0, n, eps / 2, branch=branch)
    sl1 = (a1 - s_n) / eps
    sl2 = (a2 - s_n) / (eps / 2)
    return 2.0 * sl2 - sl1


# ------------------------------------------------------------ the FLM family

FLM_ALPHA_BOX = (1.8, 3.6299)


def _logistic_step(alpha, x):
    """alpha x (1 - x) with its x- and alpha-derivatives."""
    return alpha * x * (1.0 - x), alpha * (1.0 - 2.0 * x), x * (1.0 - x)


def flm_family(g=None, domain=DomainConfig(), name="flm"):
    """Forced logistic map in normalized coordinates.

    Raw family alpha x (1 - x) + eps g(theta, x); the conjugacy
    x = 1/2 + lambda y with lambda = (alpha - 2)/4 brings the unforced map
    to 1 - mu y^2 with mu = alpha (alpha - 2)/4, normalized to value 1 at
    the critical point. Default forcing g = cos(2 pi theta).
    """
    if g is None:
        def g(theta, x):
            return np.cos(2 * np.pi * np.asarray(theta)) * np.ones_like(x)

    def evaluator(alpha, eps):
        mu = alpha * (alpha - 2.0) / 4.0
        lam = (alpha - 2.0) / 4.0
        if abs(lam) < 1e-6:
            raise DegenerateScalingError(
                "normalizing conjugacy degenerates at alpha = 2")
        return QPFn.from_callable(
            domain, lambda th, y: 1.0 - mu * y * y
            + eps * g(th, 0.5 + lam * y) / lam)

    def du_dalpha(alpha):
        return AnalyticFn.from_callable(
            domain, lambda y: -0.5 * (alpha - 1.0) * y * y)

    def dv_deps(alpha):
        lam = (alpha - 2.0) / 4.0
        if abs(lam) < 1e-6:
            raise DegenerateScalingError(
                "normalizing conjugacy degenerates at alpha = 2")
        return QPFn.from_callable(domain,
                                  lambda th, y: g(th, 0.5 + lam * y) / lam)

    return FamilySpec(
        name=name,
        evaluator=evaluator,
        du_dalpha=du_dalpha,
        dv_deps=dv_deps,
        alpha_box=FLM_ALPHA_BOX,
        raw_step=_logistic_step,
        x_crit=0.5)
