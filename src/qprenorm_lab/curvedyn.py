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
                     ExistenceError, NoConvergenceError, QPRenormError,
                     SearchError)
from .funcspace import (INTERVAL_SLACK, AnalyticFn, DomainConfig, QPFn,
                        _clenshaw_scalar, _eval_folded, _fold, _fold_degree,
                        _grid_phases, _mat_rows, _phases, _tables,
                        project_p0)
from .qprenorm import RotationNumber, dt_columns
from .renorm1d import (FamilySpec, MapStack, UnimodalMap, _brentq,
                       _scaling_error, dr_matrix, feigenbaum_fixed_point,
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
    return _dg1_one(_sigma1_constants(psi), omega, v)[0][0]


def _dg1_one(consts, omega, v):
    """_dg1_samples of the one direction v at omega."""
    return _dg1_samples(np.array([consts]), np.array([float(omega)]),
                        v.modes[None], v.domain)


def _dg1_samples(consts, w, modes, domain):
    """DG1 v on the M_GRID-point grid and its half spectrum s_0..s_K, an
    (S, M_GRID) and an (S, K+1) array, for S directions v: modes holds
    their stored rows (S, K+1, n_cheb), w their omegas as floats and
    consts (S, 2) the Sigma_1 constants (psi'(1), psi''(0)) of their maps.

    DG1 v(theta) = Re sum_k s_k exp(2 pi i k theta). Three Chebyshev rows
    read each mode at x = 0 and 1 and its x-derivative at 0, the shifts by
    omega and 2 omega are the phase factors exp(-2 pi i k omega) and
    exp(-4 pi i k omega), and one product with the grid's phase table
    samples the sum. Each direction takes its own products, so it gets the
    bits it gets alone.
    """
    c1, c2 = consts.T[:, :, None]
    at0, at1, dx0 = np.moveaxis(modes @ _tables(domain).at, -1, 0)
    K = modes.shape[-2] - 1
    dx = c1 * at0 * _phases(-2 * w, K) + at1 * _phases(-w, K)
    spec = c1 * (dx0 + c2 * dx)
    return _mat_rows(_grid_phases(M_GRID, K), spec).real, spec


def functional_K(omega, psi, v):
    """K(omega, f, v) = m(DG1(omega, f) v), refined on DG1's half spectrum."""
    return float(_spectral_min(
        *_dg1_one(_sigma1_constants(psi), omega, v))[0][0])


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
    value, theta, flat = _spectral_min(vals[None], spec[None])
    return ExtremumResult(value=float(value[0]), theta=float(theta[0]),
                          degenerate=bool(flat[0]))


def _spectral_min(vals, spec):
    """min over the circle of g(theta) = Re sum_k spec_k exp(2 pi i k theta)
    for each row of spec (R, J), from its samples, the row of vals (R, M)
    on the uniform M-point grid: grid local minima, three-point quadratic
    step, then Newton on the half spectrum. Returns the arrays (value,
    theta, degenerate) of the R minima. A minimum is flat when its second
    difference is at most 1e-10 max |vals| (all-zero values are flat);
    flat minima are flagged and returned at grid accuracy.

    A true minimum lies within half a grid step of a grid point, so the
    grid misses it by at most max |g''| / (8 M^2), and max |g''| is at most
    sum 4 pi^2 k^2 |spec_k|. Every grid local minimum within that bound of
    the grid minimum is refined and the least refined value is returned;
    with one such basin, the grid argmin is the only one refined. One
    exponential per Newton step gives g1 and g2, over the J terms: K + 1
    for DG1's spectrum, M / 2 + 1 for extremum_m's.

    The basins of all rows are refined as one stack (_refine_min), so a
    row gets the bits it gets alone.
    """
    R, M = vals.shape
    ik = 2j * np.pi * np.arange(spec.shape[-1])
    spec2 = ik * ik * spec
    bound = np.abs(spec2).sum(axis=-1) / (8 * M * M)
    rows = np.arange(R)
    i = vals.argmin(axis=-1)
    # each row between copies of its last and first sample: sample j's
    # neighbours on the circle are ring[:, j] and ring[:, j + 2]
    ring = np.concatenate((vals[:, -1:], vals, vals[:, :1]), axis=-1)
    near = ((vals <= (vals[rows, i] + bound)[:, None])
            & (ring[:, :-2] > vals) & (vals <= ring[:, 2:]))
    near[rows, i] = False
    # each row's grid argmin, then its other near local minima in grid order
    more, at = np.nonzero(near)
    basins = np.concatenate([rows, more])
    value, theta, flat = _refine_min(ring[basins], np.concatenate([i, at]),
                                     spec[basins], ik, spec2[basins])
    best = rows.tolist()
    for b, r in enumerate(more.tolist(), start=R):
        if value[b] < value[best[r]]:
            best[r] = b
    return value[best], theta[best], flat[best]


def _refine_min(ring, i, spec, ik, spec2):
    """The minima of the basins of grid points i[b] of the rows of ring, the
    (B, M + 2) samples of _spectral_min with a copy of each row's last
    sample before it and of its first after it, as _spectral_min states
    them: (value, theta, degenerate) arrays. The arithmetic is elementwise
    and each Newton sum runs along the last axis over the basins still
    stepping, so a basin's bits do not depend on the others. The basins
    still stepping are one working set (their thetas and weighted spectra),
    cut down only at a step at which one of them stops."""
    B, M = ring.shape[0], ring.shape[1] - 2
    b = np.arange(B)
    gl, gm, gr = ring[b, i], ring[b, i + 1], ring[b, i + 2]
    d1 = 0.5 * (gr - gl)
    d2 = gr - 2 * gm + gl
    flat = np.abs(d2) <= 1e-10 * np.abs(ring).max(axis=-1)
    # flat basins keep their grid value, and a Newton step with g2 <= 0
    # is discarded, so their divisions may warn
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = (i + np.minimum(np.maximum(-d1 / d2, -1.0), 1.0)) / M
        value = gm - d1 * d1 / (2 * d2)

        # The quadratic step can overshoot below the true minimum; Newton
        # on the trigonometric interpolant is the authoritative refinement
        # and the quadratic value is only a fallback when that iteration
        # goes bad.
        th, ok = theta.copy(), ~flat
        rows = np.flatnonzero(ok)
        t, spec12 = th[rows], np.empty((2, rows.size, ik.size), complex)
        np.multiply(ik, spec[rows], out=spec12[0])
        spec12[1] = spec2[rows]
        for _ in range(10):
            if not rows.size:
                break
            g1, g2 = (spec12 * np.exp(ik * t[:, None])).sum(axis=-1).real
            good = (g2 > 0) & np.isfinite(g2)
            step = np.minimum(np.maximum(-g1 / g2, -1.0 / M), 1.0 / M)
            np.add(t, step, out=t, where=good)
            going = good & ~(np.abs(step) < 1e-16)
            if not going.all():
                th[rows], ok[rows[~good]] = t, False
                rows, t, spec12 = rows[going], t[going], spec12[:, going]
        th[rows] = t
    done = ok & (np.abs(th - theta) <= 2.0 / M)
    value[done] = (spec[done] * np.exp(ik * th[done, None])).sum(axis=-1).real
    theta = np.where(flat, i / M, np.where(done, th, theta) % 1.0)
    return np.where(flat, gm, value), theta, flat


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
    """u pushed by DR at each base in turn, u_(k+1) = DR(bases[k]) u_k, on
    coefficients: one row u at maps, or the (S, n_cheb) rows of the S maps
    of MapStack bases, each pushed by its own DR."""
    for base in bases:
        u = _mat_rows(dr_matrix(base), u)
    return u


def _sigma1_walks(family, newton):
    """{n: (walked, end, g') or the level's error} for the levels n of
    newton, each at its alpha (newton[n][0]), from one depth-major walk of
    the levels (_Walk) from their slices c = c(alpha, 0): walked holds the
    (stack, row) of each base R^k c, k = 0..n-2, with its L1, L2 and DR,
    end is the end R^(n-1) c of the level-n exact orbit, and g' =
    u_(n-1)(1), where u_0 = du_dalpha(alpha) and u_(k+1) = DR(R^k c) u_k."""
    walked, levels = {}, []
    for n, (alpha, _) in newton.items():
        try:
            walked[n] = family.psi0(alpha)
            levels.append(_Level(n, (alpha, family.du_dalpha(alpha),
                                     [walked[n]])))
        except QPRenormError as e:
            walked[n] = e
    if levels:
        domain = levels[0].u.domain
        _Walk(levels, domain, False).advance(max(lv.n for lv in levels) - 1)
        at1 = _tables(domain).at[:, 1]
        for lv in levels:
            walked[lv.n] = lv.error or (lv.walked, lv.end,
                                        float(lv.u_end.coeffs @ at1))
    return walked


def _exact_orbit_starts(family, ns):
    """{n: (alpha_n, maps) or the level's error} for the exact-orbit levels
    ns: the parameter alpha_n, whose maps c = c(alpha_n, 0) .. R^(n-1) c
    end on Sigma_1, and that orbit as the tuple maps of n maps, the bases
    c .. R^(n-2) c with their L1, L2 and DR, then the end R^(n-1) c, which
    has no operator data.

    The superstable parameter s_n puts R^(n-1) c on Sigma_1 in exact
    arithmetic, but the n-1 renormalizations amplify its rounding by
    delta^(n-1). Newton on g(alpha) = psi(1) of R^(n-1)(c(alpha, 0)) from
    s_n removes that, with g' = u_(n-1)(1) read off the walk itself. It
    stops at |g| <= 1e-13, at the first step that does not lower |g|, or
    after 24 walks; a zero or non-finite g' is a NoConvergenceError. g
    carries the same delta^(n-1) amplification of double rounding, so the
    acceptance threshold below corresponds to a fixed ~1e-13 accuracy in
    alpha. The levels not yet polished step together: each Newton step is
    one depth-major walk of them all, each at its own alpha
    (_sigma1_walks), with each level's bits, and a level leaves when its
    Newton stops. A level's best walk so far keeps the depth stacks of its
    bases alive until the level is decided; the accepted walk is the
    orbit, each base a map of its own with copies of its row and operator
    data (MapStack.item), so a cold level is renormalized by its polish
    alone.

    The orbit depends on the family's slice and n, not on the coupling or
    omega, so (alpha_n, maps) is kept on the family's record as one entry
    per level n, once per record: tables, checkers and the identity gap
    rerun the same levels, and a kept level neither walks nor builds a map
    here. Only an accepted level is kept, never an error. The levels are
    n <= MAX_LEVEL (superstable_params), so a record keeps at most the sum
    of n - 1 over them, 91 bases, each 3 n_cheb^2 floats (38.4 KB at
    n_cheb 40), for as long as the record lives: per domain for flm_family,
    and as long as the family for a private record.
    """
    kept = family._cache.setdefault("sigma1", {})
    starts, newton = {}, {}
    for n in ns:
        try:
            if n in kept:
                starts[n] = kept[n]
            else:
                newton[n] = float(superstable_params(family, n)[n]), None
        except QPRenormError as e:
            starts[n] = e

    def accept(n, best):
        best_g, alpha, walked, end = best
        delta = feigenbaum_fixed_point(end.domain).delta_feig
        if not best_g <= max(1e-12, 1e-13 * delta ** (n - 1)):
            return NoConvergenceError(f"Sigma_1 polish at n = {n} stalled",
                                      best_g)
        kept[n] = alpha, tuple(stack.item(s) for stack, s in walked) + (end,)
        return kept[n]

    for _ in range(24):
        if not newton:
            break
        for n, walk in _sigma1_walks(family, newton).items():
            alpha, best = newton.pop(n)
            if isinstance(walk, QPRenormError):
                starts[n] = walk
                continue
            walked, end, dg = walk
            g = end.a
            if best is not None and not abs(g) < best[0]:
                starts[n] = accept(n, best)
                continue
            best = (abs(g), alpha, walked, end)
            if abs(g) <= 1e-13:
                starts[n] = accept(n, best)
            elif dg == 0 or not np.isfinite(dg):
                starts[n] = NoConvergenceError(
                    f"Sigma_1 polish at n = {n}: g' = {dg!r} at alpha = "
                    f"{alpha!r}")
            else:
                newton[n] = alpha - g / dg, best
    for n, (_, best) in newton.items():
        starts[n] = accept(n, best)
    return starts


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


def _chain_bases(family, ns, mode):
    """{n: (alpha, u_0, maps)} for the levels ns of family's chains in
    mode, or for a level whose start fails, its error: u_0 =
    du_dalpha(alpha), and maps the chain's maps known before its walk,
    base k at depth k for k = 0..n-2, then the end at depth n-1.

    exact-orbit: alpha is alpha_n, the polished Sigma_1 parameter, and
    maps its orbit, base k = R^k c for c = c(alpha_n, 0) and the end
    R^(n-1) c, from the family's record or from the polish that puts it
    there (_exact_orbit_starts). fixed-point: alpha*, the bases Phi for k
    <= floor(n/2)-1 and the unstable-manifold points f*_{n-k+1} for the
    tail, so the last step is taken at f*_2, and the end f*_1. In both
    modes every base carries the operator data the walk reads, kept as
    long as the record (exact-orbit) or the process's fixed point
    (fixed-point); the pass snaps the end onto Sigma_1 (_project_sigma1).
    """
    if mode == "exact-orbit":
        polished = _exact_orbit_starts(family, ns)
    elif mode != "fixed-point":
        raise ValueError(f"unknown mode {mode!r}")
    starts = {}
    for n in ns:
        try:
            if mode == "fixed-point":
                alpha = stable_manifold_param(family)
                u = family.du_dalpha(alpha)
                fpd = feigenbaum_fixed_point(u.domain)
                stars = unstable_manifold_points(
                    fpd, max(2, n - max(n // 2, 1) + 1))
                starts[n] = alpha, u, [fpd.phi if k <= n // 2 - 1
                                       else stars[n - k]
                                       for k in range(1, n)] + [stars[0]]
            elif isinstance(polished[n], QPRenormError):
                starts[n] = polished[n]
            else:
                alpha, maps = polished[n]
                starts[n] = alpha, family.du_dalpha(alpha), maps
        except QPRenormError as e:  # raised when the pass reaches level n
            starts[n] = e
    return starts


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


def _dt_step(base, omegas, V):
    """qprenorm.apply_DT(base, omega, v) for a stack of vectors, through
    the one DT kernel: V (S, K+1, n_cheb) holds the stored rows h_0..h_K
    of S vectors, vector s at omegas[s]. base is one map for every vector,
    or a MapStack whose item s is vector s's base.

    Mode 0 gets DR h_0 as there. Modes 1..K are one column block of
    qprenorm.dt_columns per vector, its stored rows h_1..h_K as the
    columns, under the phase vector exp(2 pi i k omega). Each vector takes
    its own products, so its bits do not depend on the stack. The
    kernel's real products sum in another order than apply_DT's complex
    matvecs, so the two agree to rounding, not bit for bit; apply_DT stays
    the reference.
    """
    w = np.array([float(om) for om in omegas])
    ph = np.exp(2j * np.pi * np.arange(1, V.shape[1]) * w[:, None])
    out = np.empty_like(V)
    out[:, 0] = _mat_rows(dr_matrix(base), V[:, 0])
    out[:, 1:] = dt_columns(base, V[:, 1:].transpose(0, 2, 1),
                            ph[:, None]).transpose(0, 2, 1)
    return out


def _dt_walk(bases, omegas, V):
    """(Vs, Ws): the stack V of vectors at omegas, stepped by DT_omega at
    each base in turn (_dt_step) with each omega doubled after its step,
    as the stacks V_0 = V, V_1, ... and their omega lists. The one loop
    over DT steps: a pass walks its chains one base (one depth) at a
    time, component_chains its one vector along n_max bases."""
    Vs, Ws = [V], [list(omegas)]
    for base in bases:
        Vs.append(_dt_step(base, Ws[-1], Vs[-1]))
        Ws.append([om.double() for om in Ws[-1]])
    return Vs, Ws


def _chain_slopes(chains):
    """(alpha'_n, beta'_n) read off the end of each chain: the extrema of
    DG1 v_(n-1) over theta, refined on its half spectrum (_dg1_samples,
    _spectral_min), each divided by -DG1_hat u_(n-1). The chains of one
    level and record share their end, whose Sigma_1 constants and
    denominator are computed once. The samples and extrema of all chains
    on one domain are one stacked computation, in which each chain gets the
    bits it gets alone."""
    ends, consts, dens, domains = {}, [], [], {}
    for s, ch in enumerate(chains):
        end = ends.get(id(ch.psi_end))
        if end is None:
            c = _sigma1_constants(ch.psi_end)
            den = _dg1_hat(c, ch.u_end)
            if abs(den) < 1e-300:
                raise DegenerateScalingError("DG1_hat denominator vanished")
            end = ends[id(ch.psi_end)] = c, den
        consts.append(end[0])
        dens.append(end[1])
        domains.setdefault(ch.vs[-1].domain, []).append(s)
    slopes = [None] * len(chains)
    for dom, group in domains.items():
        vals, spec = _dg1_samples(
            np.array([consts[s] for s in group]),
            np.array([float(chains[s].omega_end) for s in group]),
            np.array([chains[s].vs[-1].modes for s in group]), dom)
        low = _spectral_min(np.concatenate([vals, -vals]),
                            np.concatenate([spec, -spec]))[0]
        for j, s in enumerate(group):
            slopes[s] = (float(-low[j] / dens[s]),
                         float(low[len(group) + j] / dens[s]))
    return slopes


class _Level:
    """Level n of one slice record in a pass, from its start (alpha, u_0,
    maps) or the start's error, with the chains of each member family i at
    omegas0, holding v_0 and omega_0 (chains[i]; flat lists all of them).
    A walk leaves the level's end map and u_end on it, and a walk that
    renormalizes the level's orbit the (stack, row) of each of its bases
    in walked. error is what the start or the walk raised, v0_error what
    the first failing v_0 raised; the level raises them in that order when
    the pass reaches it.
    """

    def __init__(self, n, start, members=(), omegas0=(), v0=None):
        self.n, self.chains, self.v0_error, self.walked = n, {}, None, []
        failed = isinstance(start, QPRenormError)
        self.error = start if failed else None
        self.alpha, self.u, self.maps = (None, None, []) if failed else start
        try:
            for i in members if self.error is None else ():
                self.chains[i] = [ChainResult(None, [v0(i, self.alpha)],
                                              [om], None) for om in omegas0]
        except QPRenormError as e:  # the level still walks, and an error of
            self.v0_error, self.chains = e, {}      # its walk comes first
        self.flat = [ch for group in self.chains.values() for ch in group]


class _Walk:
    """The started levels of a pass on one domain, walked depth by depth.

    At depth k the levels that have a base there (n >= k + 2) step as one
    stack: their bases are one MapStack, u is pushed by DR (_dr_walk), and
    every chain takes its DT step and doubles its omega (_dt_walk). The
    levels of a slope pass know every base with its operator data
    (_chain_bases), so the depth's stack holds copies of that data
    (MapStack.of). The levels of the Sigma_1 polish start from their slice
    alone and walk their own orbit: the stack's renormalization is their
    next depth, each level records the (stack, row) of its bases in
    walked, and a level whose a = psi(1) fails renormalize_1d's check
    leaves the walk with that error. Level n ends at depth n - 1: its end
    is snapped onto Sigma_1 and its chains get u_end and psi_end. The
    arrays of a depth live until the next step, and a chain keeps copies
    of its vectors, not views of a depth's stack: all of them, or without
    history its last vector and omega only.

    Levels with more chains come first, so slot j, the j-th chains of the
    levels that have one, belongs to a prefix of the live levels, and its
    DT step reads a slice of the depth's stack, not a copy.
    """

    def __init__(self, levels, domain, history):
        self.live = sorted(levels, key=lambda level: -len(level.flat))
        self.depth, self.domain, self.history = 0, domain, history
        self.U = np.array([level.u.coeffs for level in self.live])
        width = len(self.live[0].flat) if self.live else 0
        self.slots = [[level.flat[j] for level in self.live
                       if len(level.flat) > j] for j in range(width)]
        self.V = [np.array([ch.vs[0].modes for ch in slot])
                  for slot in self.slots]
        self.orbit = None
        self._end()
        if self.live and len(self.live[0].maps) < self.live[0].n:
            # the polish: every level past level 1 walks its orbit
            self.orbit = MapStack(
                np.array([level.maps[0].psi.coeffs for level in self.live]),
                [level.maps[0].a for level in self.live], domain)

    def advance(self, depth):
        while self.depth < depth:
            self._step()

    def _step(self):
        if self.orbit is not None:
            errors = [_scaling_error(a) for a in self.orbit.a]
            for level, error in zip(self.live, errors):
                if error is not None:
                    level.error = error
            self._keep([s for s, e in enumerate(errors) if e is None])
        if self.live:
            bases = self.orbit if self.orbit is not None else MapStack.of(
                [level.maps[self.depth] for level in self.live])
            self.U = _dr_walk([bases], self.U)
            for j, slot in enumerate(self.slots):
                if not slot:
                    continue
                (_, self.V[j]), (_, omegas) = _dt_walk(
                    [bases.head(len(slot))], [ch.omegas[-1] for ch in slot],
                    self.V[j])
                for ch, v, om in zip(slot, self.V[j], omegas):
                    ch.vs.append(QPFn(v.copy(), self.domain))
                    ch.omegas.append(om)
                    if not self.history:
                        del ch.vs[:-1], ch.omegas[:-1]
            if self.orbit is not None:
                for s, level in enumerate(self.live):
                    level.walked.append((bases, s))
                self.orbit = bases.renormalized()
        self.depth += 1
        self._end()

    def _end(self):
        """End the levels whose end is at this depth."""
        k, keep = self.depth, []
        for s, level in enumerate(self.live):
            if level.n > k + 1:
                keep.append(s)
                continue
            level.end = (level.maps[k] if self.orbit is None
                         else self.orbit.item(s))
            level.u_end = AnalyticFn(self.U[s].copy(), self.domain)
            psi_end = _project_sigma1(level.end)
            for ch in level.flat:
                ch.u_end, ch.psi_end = level.u_end, psi_end
        self._keep(keep)

    def _keep(self, keep):
        """Keep the live levels at the positions keep, in order, with their
        rows and chains."""
        if len(keep) == len(self.live):
            return
        self.live = [self.live[s] for s in keep]
        self.U = self.U[keep]
        if self.orbit is not None:
            self.orbit = MapStack(self.orbit.psi.coeffs[keep],
                                  self.orbit.a[keep], self.domain)
        for j, slot in enumerate(self.slots):
            rows = [s for s in keep if s < len(slot)]
            self.slots[j] = [slot[s] for s in rows]
            self.V[j] = self.V[j][rows]


def _slope_pass(families, levels, mode, history=True):
    """The chains of slope_chain for several families at several levels,
    from one depth-major walk.

    levels is a sequence of (n, omegas0), n >= 1 and strictly ascending, or
    ValueError names the first level that is not, before any walk. The
    pass yields each n and the chains of every family at every omega in
    omegas0, family-major (families[i] at omegas0[j] is entry i *
    len(omegas0) + j), whose slopes _chain_slopes reads.

    Every level starts first: _chain_bases for the levels of each slice
    record, in the order the records first appear, then v_0 per level and
    family (_Level), built once per family and alpha (once per family in
    fixed-point mode, where alpha* does not move). The bases and the u-chain
    depend on n and on the family's slice record (its _cache), not on the
    coupling or omega, so families that share a record share one level,
    and each (family, omega) gets its own chain. Every base is known with
    its operator data, the exact orbit's from the record, so the pass
    renormalizes no map and builds no operator data for a kept level. Then
    the started levels walk depth by depth, one _Walk per domain, and level
    n is yielded when the walk reaches its end, at depth n - 1; the chains
    keep no base, and the pass keeps no chain it has yielded. Without
    history a chain's vs and omegas hold their last entry only, which is
    all a read-out needs.

    Every chain has the bits it gets alone, whichever families and levels
    share the pass. A level that failed raises when the pass reaches it,
    so of several failing chains the first failing level raises, and within
    it the first record's: its start or walk, then v_0 in family order.
    """
    levels = [(n, tuple(omegas0)) for n, omegas0 in levels]
    last = 0
    for n, _ in levels:
        if n < 1:
            raise ValueError(f"level n = {n}: n must be >= 1")
        if n <= last:
            raise ValueError(f"level n = {n} after level {last}: the levels "
                             "must be strictly ascending")
        last = n
    records = {}
    for i, family in enumerate(families):
        records.setdefault(id(family._cache), []).append(i)
    v0s = {}

    def v0(i, alpha):
        if i not in v0s or v0s[i][0] != alpha:
            v0s[i] = alpha, families[i].dv_deps(alpha)
        return v0s[i][1]

    starts = [_chain_bases(families[members[0]], [n for n, _ in levels],
                           mode) for members in records.values()]
    started = [[_Level(n, start[n], members, omegas0, v0)
                for members, start in zip(records.values(), starts)]
               for n, omegas0 in levels]
    walks = {}
    for level in (level for row in started for level in row):
        if level.error is None:
            walks.setdefault(level.u.domain, []).append(level)
    walks = [_Walk(group, dom, history) for dom, group in walks.items()]
    for (n, _), row in zip(levels, started):
        for walk in walks:
            walk.advance(n - 1)
        for level in row:
            if level.error is not None:
                raise level.error
            if level.v0_error is not None:
                raise level.v0_error
        yield n, [ch for i in range(len(families)) for level in row
                  for ch in level.chains.get(i, ())]
        row.clear()


def _pass_slopes(families, levels, mode):
    """[(n, slopes)] of one _slope_pass, read by one _chain_slopes call over
    the chains of all its levels. A failing level raises after the levels
    before it are read, so of a failing read-out and a later failing level
    the earlier one raises, as a read-out level by level would."""
    read, chains = [], []
    try:
        for n, level in _slope_pass(families, levels, mode, history=False):
            read.append((n, len(level)))
            chains += level
    except QPRenormError:
        _chain_slopes(chains)
        raise
    slopes = iter(_chain_slopes(chains))
    return [(n, [next(slopes) for _ in range(k)]) for n, k in read]


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
