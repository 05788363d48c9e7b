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
    propagated either along the exact orbit R^k(c(alpha_n, 0)), where
    alpha_n is s_n polished onto Sigma_1, or along the fixed point with an
    f*_j tail;
  * locate_reducibility_loss: direct bisection in alpha of the criterion
    "extremum over theta of the period derivative product hits zero".

The two must agree within a few percent at small n; the tests enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (BasinError, ConsistencyError, DegeneratePointError,
                     DegenerateScalingError, DomainError, EscapeError,
                     ExistenceError, NoConvergenceError, SearchError)
from .funcspace import (INTERVAL_SLACK, AnalyticFn, DomainConfig, QPFn,
                        _clenshaw_scalar, _eval_folded, _fold, _fold_degree,
                        _grid_phases, _phases, _tables, project_p0)
from .qprenorm import RotationNumber, dt_columns
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
NEUMANN_RHO = 0.9     # max |prod| from which a Newton step takes the LU


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


def _step_phases(M, w, steps, K):
    """Phase tables exp(2 pi i k (theta + j w)), k = 0..K, on the uniform
    M-point grid theta = arange(M) / M for the steps j = 0..steps-1 of a
    grid orbit, one at a time: the grid's cached table times the K+1
    phases of j w mod 1. It differs from _phases(theta + j w, K) by the
    rounding of the sum theta + j w, about 2 pi k ulp(j w) in mode k, and
    costs one complex product per entry instead of a cumprod."""
    E0 = _grid_phases(M, K)
    for j in range(steps):
        yield E0 * _phases(j * w, K)


def _step_tables(f, omega, steps, M):
    """The folded step tables of one solve: block j is f folded with the
    phase table of step j (_fold against _step_phases), the leading m
    Chebyshev coefficients of f(theta + j omega, .) at each of the M grid
    thetas, a (steps, m, M) array of 8 m M steps bytes. m = _fold_degree(f)
    is read once off the half spectrum: 3 for a quadratic slice plus an
    x-free coupling, n_cheb for a sampled map. The tables depend on f,
    omega and the grid only, not on the samples, so every grid pass of the
    solve reads them."""
    m = _fold_degree(f)
    C = np.empty((steps, m, M))
    for j, E in enumerate(_step_phases(M, float(omega), steps, f.K)):
        C[j] = _fold(f, E, m)
    return C


def _orbit_grid(domain, tables, X):
    """Vectorized f^steps over the uniform grid theta = arange(M) / M of the
    M = X.size samples X, with the step tables of f (_step_tables); returns
    the final X and the x-derivative of f at each step, a (steps, M) array
    whose product over steps is the fiber derivative product. Each step is
    one Chebyshev recurrence and one contraction against its table
    (_eval_folded), which reads f_x through the derivative rows."""
    bound = domain.half_width * INTERVAL_SLACK
    V = np.empty((2, tables.shape[1], X.size))
    X = np.array(X, dtype=float)
    D = np.empty((len(tables), X.size))
    for j, C in enumerate(tables):
        X, D[j] = _eval_folded(domain, C, X, V)
        if not np.abs(X).max() <= bound:      # also NaN
            raise EscapeError(f"grid orbit left the interval at step {j + 1}",
                              j + 1)
    return X, D


# --------------------------------------------------------- invariant curves

@dataclass
class InvariantCurve:
    period_log2: int
    samples: np.ndarray
    omega: RotationNumber
    lyapunov: float
    residual: float
    product: np.ndarray    # fiber derivative product at the samples
    f: QPFn                # the map the curve was solved for

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


def _newton_step(prod, G, s, tol):
    """The Newton step x of (diag(prod) - S) x = -G, S the shift by s
    (_shift_samples), without forming a matrix.

    T, the shift by -s with the Nyquist multiplier of an even M set to the
    sign of S's, c = cos(pi M s), inverts S on every other mode, and T S =
    |c| on the Nyquist mode. So T (diag(prod) - S) = -(I - T diag(prod)) +
    sigma n n^T, with sigma = 1 - |c| (0 for odd M) and n the unit Nyquist
    vector (-1)^j / sqrt(M). The Neumann series of (I - T diag(prod))^-1
    runs on the two rows [T G, n] together, one rfft/irfft pair per term,
    and Sherman-Morrison adds the rank-one term. The n row keeps only the
    terms past n itself, w, so the denominator |c| - sigma n.w does not
    cancel. A unit multiplier passes the Nyquist part of G at full size,
    where cos(pi M s) would shrink it by |c| and the denominator would then
    divide it back.

    Below max |prod| = NEUMANN_RHO the series runs until each row's term is
    at most tol of that row's sum in max-norm. Since ||T||_2 = 1, each term
    is at most NEUMANN_RHO times the one before it in the 2-norm, so the
    loop ends and cannot overflow. 0.9 is where the slowest series measured
    (a constant product just below 0.9 at half a grid step, M = 512) meets
    the cost of one LU (7.4-7.8 ms): 264 terms, 7.5 ms at tol 1e-13, the
    least tol a solve passes, and 45 terms, 1.4 ms at tol 1e-3.
    From NEUMANN_RHO on the series may diverge, and one LU solves its system
    A [y, w + n] = [T G, n], A = I - T diag(prod) from T's circulant column,
    for the same finish. Singular: BasinError.
    """
    M = prod.size
    ph = _shift_phases(M, -s)
    c = 1.0
    if M % 2 == 0:
        c = abs(ph[-1].real)
        ph[-1] = np.copysign(1.0, ph[-1].real)
    sigma = 1.0 - c
    nyq = np.where(np.arange(M) % 2, -1.0, 1.0) / np.sqrt(M)
    TG = np.fft.irfft(np.fft.rfft(G) * ph, M)
    if np.max(np.abs(prod)) < NEUMANN_RHO:
        term = np.stack((TG, nyq))
        Y = np.stack((TG, np.zeros(M)))    # the n row sums w, past n itself
        while (abs(term).max(1) > tol * abs(Y).max(1)).any():
            term = np.fft.irfft(np.fft.rfft(prod * term) * ph, M)
            Y = Y + term
    else:
        # row r of T is col[(r - k) % M] over k: the window at M - 1 - r
        # of the reversed doubled column, so no M x M index array is built
        col = -np.fft.irfft(ph, M)
        rows = np.lib.stride_tricks.sliding_window_view(
            np.concatenate((col, col))[::-1], M)
        A = rows[M - 1::-1] * prod
        A.flat[::M + 1] += 1.0         # A = I - T diag(prod)
        try:
            y, z = np.linalg.solve(A, np.stack((TG, nyq), axis=1)).T
        except np.linalg.LinAlgError:
            raise BasinError("Newton stage: singular Jacobian")
        Y = (y, z - nyq)
    y, w = Y
    den = c - sigma * float(nyq @ w)
    if den == 0.0 or not np.isfinite(den):
        raise BasinError("Newton stage: singular Jacobian")
    return y + (nyq + w) * (sigma * float(nyq @ y) / den)


def solve_invariant_curve(f, omega, n, guess=None, M=M_GRID):
    """Solve x(theta + 2^n omega) = f^(2^n)(theta, x(theta)) on the grid.

    omega is a RotationNumber; the shift 2^n omega mod 1 is taken by n
    exact doublings. The step tables of f are built once
    (_step_tables), and each iterate costs one grid pass (_orbit_grid)
    over them, in two stages:

    * damped fixed-point steps (lambda 0.6) pull the guess into the
      attracting curve until the residual max |x(theta + 2^n omega) -
      f^(2^n)| is below NEWTON_SWITCH = 1e-3. The stage gives up with
      BasinError after DAMPED_STALL iterations without a new best residual.
    * Newton steps on the Jacobian diag(D_x f^(2^n)) - S, S the spectral
      shift by 2^n omega, stop at residual 1e-13 or after 20 steps; the
      residual must then be within TOL_CURVE. Each step is solved without
      a matrix (_newton_step); only a step with max |prod| >= NEUMANN_RHO
      builds the M x M matrix of the series' system for one LU. The
      series stops at min(residual, NEWTON_SWITCH) of its sum (inexact
      Newton): the step's own error is then about residual times |J^-1|
      residual, the order of Newton's quadratic term, so the step count
      does not grow.

    From 1e-3 Newton needs about three steps where the damped stage needs
    about 14 more to reach 1e-8, and it converges on period-16 curves
    whose damped residual stalls near 1e-6. A hand-over at 1e-2 lets Newton
    leave the interval on some period-16 curves. The Lyapunov exponent is
    the per-step average of log |D_x f| along the solved curve, floored in
    log-space at the superstable samples.
    """
    steps = 2 ** n
    s_exact = omega
    for _ in range(n):
        s_exact = s_exact.double()
    s = float(s_exact)

    if guess is None:
        # iterate 400 of the orbit of 0 under the theta-averaged map,
        # stepped as its scalar calls would step it. A float orbit that
        # repeats a value is periodic from there on, so the walk stops at
        # the first repeat and reads iterate 400 off the cycle
        c = project_p0(f).coeffs.tolist()
        L = f.domain.half_width
        orbit, seen = [0.0], {0.0: 0}
        for k in range(1, 401):
            x = float(_clenshaw_scalar(c, orbit[-1] / L))
            if abs(x) > L:
                raise BasinError("default guess escaped; supply one")
            if x in seen:
                i = seen[x]
                x = orbit[i + (400 - i) % (k - i)]
                break
            seen[x] = k
            orbit.append(x)
        guess = np.full(M, x)
    X = np.array(guess, dtype=float)
    if X.shape != (M,):     # the grid passes take M from the samples
        raise ValueError(f"guess has shape {X.shape}, not ({M},)")

    dom = f.domain
    tables = _step_tables(f, omega, steps, M)
    # one grid pass per iterate: FX and the step derivatives D always
    # belong to X
    best, stale = np.inf, 0
    try:
        FX, D = _orbit_grid(dom, tables, X)
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
            FX, D = _orbit_grid(dom, tables, X)
    except EscapeError as e:
        raise BasinError(f"fixed-point stage escaped: {e}")

    try:
        for it in range(21):
            G = FX - _shift_samples(X, s)
            residual = float(np.max(np.abs(G)))
            if residual <= 1e-13 or it == 20:
                break
            X = X + _newton_step(np.prod(D, axis=0), G, s,
                                 min(residual, NEWTON_SWITCH))
            FX, D = _orbit_grid(dom, tables, X)
    except EscapeError as e:
        raise BasinError(f"Newton stage escaped: {e}")

    if residual > TOL_CURVE:
        raise BasinError(f"curve residual {residual:.3e} above tolerance")
    # both reductions run over the steps in step order, as a per-step
    # loop would accumulate them
    prod = np.prod(D, axis=0)
    with np.errstate(divide="ignore"):
        logs = np.maximum(np.log(np.abs(D)), LOG_FLOOR).sum(axis=0)
    lyap = float(np.mean(logs)) / steps
    return InvariantCurve(period_log2=n, samples=X, omega=omega, f=f,
                          lyapunov=lyap, residual=residual, product=prod)


def fiber_product(f, omega, curve):
    """The curve's product of its 2^n fiber derivatives, per theta, as the
    solve kept it; ConsistencyError unless f and omega match bit for bit."""
    g = curve.f
    if f.domain != g.domain or f.modes.tobytes() != g.modes.tobytes():
        raise ConsistencyError("curve was solved for a different map")
    if omega.num != curve.omega.num:
        raise ConsistencyError("curve was solved at a different omega")
    return curve.product


def G1(f, omega, curve):
    """Two-step derivative product D_x f(theta+omega, f(theta, x)) D_x f,
    one value per grid theta of the period-2 curve."""
    if curve.period_log2 != 1:
        raise ConsistencyError("G1 takes a period-2 curve")
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
    return _dg1_hat(_sigma1_constants(psi), u)


def _dg1_hat(consts, u):
    """DG1_hat at a map with the Sigma_1 constants consts."""
    c1, c2 = consts
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
    Both are trigonometric polynomials of degree K (_dg1_samples).
    """
    return _dg1_samples(_sigma1_constants(psi), omega, v)[0]


def _dg1_samples(consts, omega, v):
    """DG1 v on the M_GRID-point grid and its half spectrum s_0..s_K, at a
    map with the Sigma_1 constants consts = (psi'(1), psi''(0)).

    DG1 v(theta) = Re sum_k s_k exp(2 pi i k theta). Three Chebyshev rows
    read each mode at x = 0 and 1 and its x-derivative at 0, the shifts by
    omega and 2 omega are the phase factors exp(-2 pi i k omega) and
    exp(-4 pi i k omega), and one product with the grid's phase table
    samples the sum.
    """
    c1, c2 = consts
    at0, at1, dx0 = (v.modes @ _tables(v.domain).at).T
    w = float(omega)
    dx = c1 * at0 * _phases(-2 * w, v.K)[0] + at1 * _phases(-w, v.K)[0]
    spec = c1 * (dx0 + c2 * dx)
    return (_grid_phases(M_GRID, v.K) @ spec).real, spec


def functional_K(omega, psi, v):
    """K(omega, f, v) = m(DG1(omega, f) v), refined on DG1's half spectrum."""
    return _spectral_min(*_dg1_samples(_sigma1_constants(psi), omega, v)).value


# ------------------------------------------------------------------ extrema

@dataclass
class ExtremumResult:
    value: float
    theta: float
    degenerate: bool


def extremum_m(vals):
    """min over the circle of sampled values: the weighted half spectrum of
    their trigonometric interpolant by one rfft, then _spectral_min."""
    vals = np.asarray(vals, dtype=float)
    M = vals.size
    spec = np.fft.rfft(vals)
    spec[1:(M + 1) // 2] *= 2.0
    spec /= M
    return _spectral_min(vals, spec)


def _spectral_min(vals, spec):
    """min over the circle of g(theta) = Re sum_k spec_k exp(2 pi i k theta)
    from its samples vals on the uniform M-point grid: grid local minima,
    three-point quadratic step, then Newton on the half spectrum. A minimum
    is flat when its second difference is at most 1e-10 max |vals| (all-zero
    values are flat); flat minima are flagged and returned at grid accuracy.

    A true minimum lies within half a grid step of a grid point, so the
    grid misses it by at most max |g''| / (8 M^2), and max |g''| is at most
    sum 4 pi^2 k^2 |spec_k|. Every grid local minimum within that bound of
    the grid minimum is refined and the least refined value is returned;
    with one such basin, the grid argmin is the only one refined. One
    exponential per Newton step gives g1 and g2, over the spec.size terms:
    K + 1 for DG1's spectrum, M / 2 + 1 for extremum_m's."""
    M = vals.size
    i = int(np.argmin(vals))
    ik = 2j * np.pi * np.arange(spec.size)
    spec2 = ik * ik * spec
    bound = float(np.sum(np.abs(spec2))) / (8 * M * M)
    near = np.flatnonzero(vals <= vals[i] + bound).tolist()
    basins = [i] + [j for j in near
                    if j != i and vals[j - 1] > vals[j] <= vals[(j + 1) % M]]
    refined = [_refine_min(vals, j, spec, ik, spec2) for j in basins]
    return min(refined, key=lambda r: r.value)


def _refine_min(vals, i, spec, ik, spec2):
    """The minimum of the basin of grid point i, as _spectral_min states
    it."""
    M = vals.size
    gm = vals[i]
    gl, gr = vals[(i - 1) % M], vals[(i + 1) % M]
    scale = float(np.abs(vals).max())
    d1 = 0.5 * (gr - gl)
    d2 = gr - 2 * gm + gl
    if abs(d2) <= 1e-10 * scale:
        return ExtremumResult(value=float(gm), theta=i / M, degenerate=True)
    # min/max and array methods, not np.clip and np.sum: on DG1's K + 1
    # terms the wrappers cost as much as the arithmetic
    off = min(max(float(-d1 / d2), -1.0), 1.0)
    theta = (i + off) / M
    value = float(gm - d1 * d1 / (2 * d2))

    # The quadratic step can overshoot below the true minimum; Newton on the
    # trigonometric interpolant is the authoritative refinement and the
    # quadratic value is only a fallback when that iteration goes bad.
    spec1 = ik * spec
    th = theta
    ok = True
    for _ in range(10):
        e = np.exp(ik * th)
        g1 = float((spec1 * e).sum().real)
        g2 = float((spec2 * e).sum().real)
        if g2 <= 0 or not np.isfinite(g2):
            ok = False
            break
        step = min(max(-g1 / g2, -1.0 / M), 1.0 / M)
        th += step
        if abs(step) < 1e-16:
            break
    if ok and abs(th - theta) <= 2.0 / M:
        refined = float((spec * np.exp(ik * th)).sum().real)
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


def _dr_walk(bases, u):
    """u pushed by DR at each base in turn: u_(k+1) = DR(bases[k]) u_k."""
    for base in bases:
        u = AnalyticFn(dr_matrix(base) @ u.coeffs, u.domain)
    return u


def _exact_orbit_start(family, n):
    """The start of the level-n exact-orbit chain: (alpha_n, maps, u).

    maps are c(alpha_n, 0) .. R^(n-1) c, the last on Sigma_1, and u is the
    chain's u_(n-1): du_dalpha(alpha_n) pushed along maps[:-1] by _dr_walk.
    The superstable parameter s_n puts R^(n-1) c on Sigma_1 in exact
    arithmetic, but the n-1 renormalizations amplify its rounding by
    delta^(n-1). Newton on g(alpha) = psi(1) of R^(n-1)(c(alpha, 0)) from
    s_n removes that, with g' = u_(n-1)(1) read off the walk itself. It
    stops at |g| <= 1e-13, at the first step that does not lower |g|, or
    after 24 walks; a zero or non-finite g' raises NoConvergenceError. g
    carries the same delta^(n-1) amplification of double rounding, so the
    acceptance threshold below corresponds to a fixed ~1e-13 accuracy in
    alpha. The accepted walk is returned, so the chain builds no map and
    no DR matrix again.

    alpha_n is kept on the family's record, once per (family, n): tables,
    checkers and the identity gap rerun the same levels. Only the
    parameter is kept; a kept map would keep its operator data alive. A
    kept level walks once, at alpha_n.
    """
    def walk(alpha):
        maps = [family.psi0(alpha)]
        for _ in range(n - 1):
            maps.append(renormalize_1d(maps[-1], check_domain=False))
        return alpha, maps, _dr_walk(maps[:-1], family.du_dalpha(alpha))

    polished = family._cache.setdefault("sigma1", {})
    if n in polished:
        return walk(polished[n])
    alpha, best = float(superstable_params(family, n)[n]), None
    for _ in range(24):
        start = walk(alpha)
        _, maps, u = start
        g = maps[-1].a
        if best is not None and not abs(g) < best[0]:
            break
        best = (abs(g), start)
        if abs(g) <= 1e-13:
            break
        dg = float(u.coeffs @ _tables(maps[-1].domain).at[:, 1])
        if dg == 0 or not np.isfinite(dg):
            raise NoConvergenceError(
                f"Sigma_1 polish at n = {n}: g' = {dg!r} at alpha = {alpha!r}")
        alpha -= g / dg
    best_g, start = best
    delta = feigenbaum_fixed_point(maps[0].domain).delta_feig
    if not best_g <= max(1e-12, 1e-13 * delta ** (n - 1)):
        raise NoConvergenceError(f"Sigma_1 polish at n = {n} stalled", best_g)
    polished[n] = start[0]
    return start


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


def _chain_bases(family, n, mode):
    """(alpha, bases, end, u_end) of the level-n chain in mode.

    exact-orbit: the bases are R^k(c(alpha_n, 0)) for k = 0..n-2, and the
    chain ends at R^(n-1)(c(alpha_n, 0)) on Sigma_1, where alpha_n is the
    polished Sigma_1 parameter (_exact_orbit_start). fixed-point: alpha*,
    the bases Phi for k <= floor(n/2)-1 and the unstable-manifold points
    f*_{n-k+1} for the tail, so the last step is taken at f*_2 and the
    chain ends at f*_1. end is snapped onto Sigma_1 (_project_sigma1).
    """
    if mode == "exact-orbit":
        alpha, maps, u = _exact_orbit_start(family, n)
        return alpha, maps[:-1], _project_sigma1(maps[-1]), u
    if mode == "fixed-point":
        alpha = stable_manifold_param(family)
        u = family.du_dalpha(alpha)
        fpd = feigenbaum_fixed_point(u.domain)
        stars = unstable_manifold_points(fpd, max(2, n - max(n // 2, 1) + 1))
        bases = [fpd.phi if k <= n // 2 - 1 else stars[n - k]
                 for k in range(1, n)]
        return alpha, bases, _project_sigma1(stars[0]), _dr_walk(bases, u)
    raise ValueError(f"unknown mode {mode!r}")


def slope_chain(family, omega0, n, mode="exact-orbit"):
    """Propagate (u_k, v_k, omega_k) for k = 0..n-1 over the level-n bases
    of mode (_chain_bases). Each step pushes u by DR and v by DT_omega at
    its base, then doubles omega.

    The v_k are not put on the section: a shift t_gamma commutes with DT at
    a theta-independent base and leaves every norm and m(DG1 v) unchanged,
    so the slope does not depend on it. Callers that compare directions
    (check_H3) shift the vectors they compare.
    """
    (_, (chain,)), = _slope_pass([family], [(n, (omega0,))], mode)
    return chain


def _dt_step(base, omega, v):
    """qprenorm.apply_DT(base, omega, v) through the one DT kernel.

    Mode 0 gets DR h_0 as there. Modes 1..K are one column block of
    qprenorm.dt_columns, the stored rows h_1..h_K as its columns, under
    the phase vector exp(2 pi i k omega). The kernel's real products sum
    in another order than apply_DT's complex matvecs, so the two agree to
    rounding, not bit for bit; apply_DT stays the reference.
    """
    ph = np.exp(2j * np.pi * np.arange(1, v.K + 1) * float(omega))
    modes = np.empty_like(v.modes)
    modes[0] = dr_matrix(base) @ v.modes[0]
    modes[1:] = dt_columns(base, v.modes[1:].T, ph).T
    return QPFn(modes, v.domain)


def _dt_walk(bases, omega, v):
    """(vs, omegas) from (v, omega): at each base, v stepped by DT_omega
    (_dt_step), then omega doubled. A slope chain's u-walk (_dr_walk) has
    built its bases' L1, L2 and DR behind the _e_in guard, so its steps
    only read cached arrays and cannot raise."""
    vs, omegas = [v], [omega]
    for base in bases:
        vs.append(_dt_step(base, omegas[-1], vs[-1]))
        omegas.append(omegas[-1].double())
    return vs, omegas


def _record_chains(families, members, omegas0, n, mode, v0):
    """{i: chains of families[i] at omegas0} at level n for the families
    in members, which share one record, from one walk over the bases.

    Every (family, omega) gets its own v-chain (_dt_walk), so its chain
    does not depend on which others share the walk; the chains share u_end
    and psi_end; v0(i, alpha) gives their v_0. The walk ends with this
    call, so one walk is alive at a time.
    """
    alpha, bases, psi_end, u = _chain_bases(families[members[0]], n, mode)
    return {i: [ChainResult(u, *_dt_walk(bases, om, v0(i, alpha)), psi_end)
                for om in omegas0] for i in members}


def _chain_slopes(chains):
    """(alpha'_n, beta'_n) read off the end of each chain: the extrema of
    DG1 v_(n-1) over theta, refined on its half spectrum (_dg1_samples,
    _spectral_min), each divided by -DG1_hat u_(n-1). The chains of one
    walk share their end, whose Sigma_1 constants and denominator are
    computed once."""
    ends, slopes = {}, []
    for ch in chains:
        end = ends.get(id(ch.psi_end))
        if end is None:
            consts = _sigma1_constants(ch.psi_end)
            den = _dg1_hat(consts, ch.u_end)
            if abs(den) < 1e-300:
                raise DegenerateScalingError("DG1_hat denominator vanished")
            end = ends[id(ch.psi_end)] = consts, den
        consts, den = end
        vals, spec = _dg1_samples(consts, ch.omega_end, ch.vs[-1])
        slopes.append((-_spectral_min(vals, spec).value / den,
                       _spectral_min(-vals, -spec).value / den))
    return slopes


def _slope_pass(families, levels, mode):
    """The chains of slope_chain for several families, one level at a time.

    levels is a sequence of (n, omegas0), n >= 1. For each, the pass yields
    n and the chains of every family at every omega in omegas0,
    family-major (families[i] at omegas0[j] is entry i * len(omegas0) + j),
    whose slopes _chain_slopes reads. The walk over the bases depends on n
    and on the family's slice record (its _cache), not on the coupling or
    omega: families that share a record share one walk (_record_chains),
    in the order each record first appears, and the chains keep none of
    it. v_0 is built once per family and alpha (once per family in
    fixed-point mode, where alpha* does not move). A family's chains do not
    depend on which others share the pass; of several failing chains, the
    first failing level raises, and within it the first record's (its
    walk, then v_0 in family order).
    """
    records = {}
    for i, family in enumerate(families):
        records.setdefault(id(family._cache), []).append(i)
    v0s = {}

    def v0(i, alpha):
        if i not in v0s or v0s[i][0] != alpha:
            v0s[i] = alpha, families[i].dv_deps(alpha)
        return v0s[i][1]

    for n, omegas0 in levels:
        if n < 1:
            raise ValueError("n must be >= 1")
        rows = {}
        for members in records.values():
            rows.update(_record_chains(families, members, omegas0, n, mode,
                                       v0))
        yield n, [ch for i in range(len(families)) for ch in rows[i]]


def slope_formula(family, omega0, n, mode="exact-orbit"):
    """(alpha'_n, beta'_n) from the renormalization chain."""
    return _chain_slopes([slope_chain(family, omega0, n, mode=mode)])[0]


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
    if eps == 0.0:
        raise ValueError("direct_slope divides by eps, which must be nonzero")
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


@lru_cache(maxsize=8)
def _slice_record(domain):
    return {}


def flm_family(g=None, domain=DomainConfig(), name="flm"):
    """Forced logistic map in normalized coordinates.

    Raw family alpha x (1 - x) + eps g(theta, x); the conjugacy
    x = 1/2 + lambda y with lambda = (alpha - 2)/4 brings the unforced map
    to 1 - mu y^2 with mu = alpha (alpha - 2)/4, normalized to value 1 at
    the critical point. Default forcing g = cos(2 pi theta).
    Families on one domain share the record of s_n, alpha* and the Sigma_1
    parameters (free of g); a dataclasses.replace copy gets a private one.
    """
    if g is None:
        def g(theta, x):
            return np.cos(2 * np.pi * np.asarray(theta)) * np.ones_like(x)

    def slice0(alpha):
        # 1 - mu y^2 exactly: y = L t and t^2 = (T_0(t) + T_2(t)) / 2
        mu = alpha * (alpha - 2.0) / 4.0
        h = mu * domain.half_width ** 2 / 2.0
        c = np.zeros(domain.n_cheb)
        c[0], c[2] = 1.0 - h, -h
        return AnalyticFn(c, domain)

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

    def evaluator(alpha, eps):
        # the one exact slice plus eps times the sampled coupling: rows 3..
        # of the half spectrum carry only eps times the coupling's rows, not
        # the rounding of a sampled 1 - mu y^2 (_fold_degree can drop them)
        return QPFn.from_analytic(slice0(alpha)) + eps * dv_deps(alpha)

    fam = FamilySpec(
        name=name,
        evaluator=evaluator,
        slice0=slice0,
        du_dalpha=du_dalpha,
        dv_deps=dv_deps,
        alpha_box=FLM_ALPHA_BOX,
        raw_step=_logistic_step,
        x_crit=0.5)
    fam._cache = _slice_record(domain)
    return fam
