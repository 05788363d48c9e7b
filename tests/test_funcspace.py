"""Function-space layer: evaluation, composition, projections, shifts.

Oracles are symbolic: trig identities and polynomial expansions evaluated
by hand, plus spectral round-trip bounds.
"""

import dataclasses
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as cheb

from qprenorm_lab import (
    AnalyticFn,
    DomainConfig,
    QPFn,
    PairFn,
    compose_fiber,
    eval_qpfn,
    project_p0,
    project_pik,
    rotation_matrix,
    shift_tgamma,
    sup_norm,
)
from qprenorm_lab.funcspace import (INTERVAL_SLACK, _cheb_vander,
                                    _eval_folded, _fold, _fold_degree,
                                    _grid_phases, _phases, _tables,
                                    _vander_rows, cheb_nodes, pair_sup_norm)
from qprenorm_lab.errors import (
    CompositionDomainError,
    ConsistencyError,
    DomainError,
    TruncationError,
)

TWO_PI = 2.0 * np.pi


def _mk(domain, fn):
    return QPFn.from_callable(domain, fn)


# ------------------------------------------------------------- evaluation

def test_eval_identity(domain):
    f = _mk(domain, lambda th, x: x)
    assert eval_qpfn(f, 0.3, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_eval_pure_cosine_zero_crossing(domain):
    f = _mk(domain, lambda th, x: np.cos(TWO_PI * th))
    assert abs(eval_qpfn(f, 0.25, 0.0)) <= 1e-12


def test_eval_mixed_polynomial_plus_sine(domain):
    f = _mk(domain, lambda th, x: x ** 2 + np.sin(TWO_PI * th))
    want = 0.25 + math.sqrt(2.0) / 2.0
    assert eval_qpfn(f, 0.125, 0.5) == pytest.approx(want, abs=1e-12)


def test_eval_outside_interval_raises(domain):
    f = _mk(domain, lambda th, x: x)
    with pytest.raises(DomainError):
        eval_qpfn(f, 0.0, 1.0 + domain.delta_dom + 0.05)


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_eval_on_empty_points_is_an_empty_array(domain, shape):
    f = _mk(domain, lambda th, x: x * np.cos(TWO_PI * th))
    theta, x = np.zeros(shape[-1:]), np.zeros(shape)
    for got in (f.eval(theta, x), eval_qpfn(f, theta, x)):
        assert isinstance(got, np.ndarray)
        assert got.dtype == np.float64
        assert got.shape == shape
    assert isinstance(f.eval(np.float64(0.3), np.array(0.5)), float)


def test_eval_theta_wraps_mod_one(domain):
    f = _mk(domain, lambda th, x: np.cos(TWO_PI * th) + x)
    a = eval_qpfn(f, 0.37, 0.2)
    b = eval_qpfn(f, 1.37, 0.2)
    assert a == pytest.approx(b, abs=1e-12)


# ------------------------------------------------------------ composition

def test_compose_identity_outer_returns_inner(domain):
    g = _mk(domain, lambda th, x: x)
    f = _mk(domain, lambda th, x: 0.3 * x + 0.2 * np.sin(TWO_PI * th))
    h = compose_fiber(g, 0.123, f, 1.0)
    for th in (0.0, 0.31, 0.77):
        for x in (-0.9, 0.0, 0.5):
            assert eval_qpfn(h, th, x) == pytest.approx(
                eval_qpfn(f, th, x), abs=1e-12)


def test_compose_theta_independent_reduces_to_1d(domain):
    g = _mk(domain, lambda th, x: 1.0 - 1.4 * x ** 2)
    f = _mk(domain, lambda th, x: 0.6 * x)
    h = compose_fiber(g, 0.4, f, 0.9)
    for x in np.linspace(-1.0, 1.0, 11):
        inner = 0.6 * (0.9 * x)
        assert eval_qpfn(h, 0.2, x) == pytest.approx(
            1.0 - 1.4 * inner ** 2, abs=1e-12)


def test_compose_symbolic_shift_and_scale(domain):
    # g(th + 1/2, x/2) with g = x + cos flips the cosine and halves the slope
    g = _mk(domain, lambda th, x: x + np.cos(TWO_PI * th))
    ident = _mk(domain, lambda th, x: x)
    h = compose_fiber(g, 0.5, ident, 0.5)
    for th in np.linspace(0.0, 1.0, 7):
        for x in np.linspace(-1.0, 1.0, 9):
            want = 0.5 * x - np.cos(TWO_PI * th)
            assert eval_qpfn(h, th, x) == pytest.approx(want, abs=1e-12)


def test_compose_range_violation_raises(domain):
    # scale 2 sends the identity inner out of the interval; the contract
    # promises a composition-domain error carrying the offending sample,
    # here the first grid point: theta = 0 and the largest Chebyshev node
    g = _mk(domain, lambda th, x: x + np.cos(TWO_PI * th))
    ident = _mk(domain, lambda th, x: x)
    with pytest.raises(CompositionDomainError) as err:
        compose_fiber(g, 0.5, ident, 2.0)
    assert err.value.where == (0.0, cheb_nodes(domain)[0])
    assert abs(2.0 * err.value.where[1]) > domain.half_width


def test_compose_offgrid_roundtrip(domain):
    # spectral re-expansion vs pointwise composition at off-grid samples
    g = _mk(domain, lambda th, x: 1.0 - 1.2 * x ** 2
            + 0.05 * np.sin(TWO_PI * th))
    f = _mk(domain, lambda th, x: 0.5 * x + 0.1 * np.cos(TWO_PI * th))
    shift, scale = 0.3141, 0.8
    h = compose_fiber(g, shift, f, scale)
    rng = np.random.default_rng(11)
    for _ in range(40):
        th = float(rng.uniform(0.0, 1.0))
        x = float(rng.uniform(-1.0, 1.0))
        want = eval_qpfn(g, th + shift, eval_qpfn(f, th, scale * x))
        assert eval_qpfn(h, th, x) == pytest.approx(want, abs=1e-11)


# ------------------------------------------------- the evaluation kernel

def _reference_eval(f, theta, x):
    """Re sum_k chebval(x / L, h_k) exp(2 pi i k theta) over k = 0..K."""
    t = np.asarray(x, dtype=float) / f.domain.half_width
    th = np.asarray(theta, dtype=float)
    total = 0.0
    for k in range(f.K + 1):
        total = total + cheb.chebval(t, f.modes[k]) * np.exp(
            2j * np.pi * k * th)
    return np.real(total)


@st.composite
def _mode_stacks(draw):
    """A QPFn on a small domain; its h_0 row is real or not."""
    dom = DomainConfig(n_cheb=draw(st.integers(8, 24)),
                       n_fourier=draw(st.integers(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (dom.n_fourier + 1, dom.n_cheb)
    modes = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
             ) * 10.0 ** rng.uniform(-3, 3)
    if draw(st.booleans()):
        modes[0] = modes[0].real
    return QPFn(modes, dom), rng


@settings(max_examples=60, deadline=None)
@given(_mode_stacks())
def test_eval_matches_reference_in_every_shape(case):
    f, rng = case
    L = f.domain.half_width
    tol = 1e-13 * np.sum(np.abs(f.modes))
    th0, x0 = float(rng.uniform(-2.0, 3.0)), float(rng.uniform(-L, L))
    scalar = f.eval(th0, x0)
    assert isinstance(scalar, float)
    assert abs(scalar - _reference_eval(f, th0, x0)) <= tol
    th = rng.uniform(-2.0, 3.0, size=17)
    x = rng.uniform(-L, L, size=17)
    line = f.eval(th, x)
    assert line.shape == (17,)
    assert np.max(np.abs(line - _reference_eval(f, th, x))) <= tol
    grid = f.eval(th[:5, None], x[None, :])
    assert grid.shape == (5, 17)
    assert np.max(np.abs(
        grid - _reference_eval(f, th[:5, None], x[None, :]))) <= tol


def _broadcast_phase_eval(f, theta, x):
    """Reference kernel: theta and x broadcast together, one phase row per
    point."""
    theta, x = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                   np.asarray(x, dtype=float))
    V = _vander_rows(x / f.domain.half_width, f.domain.n_cheb).T
    H = np.ascontiguousarray(f.modes.T).view(float)
    A = (V @ H).view(complex)
    out = np.einsum("pk,pk->p", A, _phases(theta, f.K)).real
    out = out.reshape(x.shape)
    return float(out) if out.ndim == 0 else out


@settings(max_examples=60, deadline=None)
@given(_mode_stacks())
def test_eval_takes_phases_per_theta_bit_for_bit(case):
    f, rng = case
    L = f.domain.half_width
    M = 2 * f.K + 1
    th, x = rng.uniform(-2.0, 3.0, 12), rng.uniform(-L, L, 12)
    cases = {
        "scalars": (float(th[0]), float(x[0])),
        "0-d theta": (np.array(th[0]), x),
        "theta column, x row": ((np.arange(M) / M)[:, None], x),
        "theta column, x grid": (th[:4, None], x.reshape(4, 3)),
        "theta row, x grid": (th[:3], x.reshape(4, 3)),
        "theta grid, x scalar": (th.reshape(2, 6), float(x[0])),
        "rank 3 against rank 2": (th[:2, None, None], x.reshape(3, 4)),
        "equal shapes": (th, x),
        "empty x": (th[:3], np.zeros((0, 3))),
        "empty theta": (np.zeros((0, 1)), x),
    }
    for name, (theta, xx) in cases.items():
        got = f.eval(theta, xx)
        want = _broadcast_phase_eval(f, theta, xx)
        assert type(got) is type(want), name
        assert np.shape(got) == np.shape(want), name
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


@settings(max_examples=40, deadline=None)
@given(_mode_stacks())
def test_dx_matches_chebder_row_by_row(case):
    f, _ = case
    n, L = f.domain.n_cheb, f.domain.half_width
    d = f.dx()
    for r in range(f.K + 1):
        want = cheb.chebder(f.modes[r]) / L
        tol = 1e-15 * n * n * np.sum(np.abs(f.modes[r]))
        assert np.max(np.abs(d.modes[r, : n - 1] - want)) <= tol
        assert d.modes[r, n - 1] == 0


def _longdouble_step(f, E, x):
    """Reference for a folded grid step: Re sum_k h_k(x_p) E[p, k] and its
    x-derivative, summed in np.longdouble from the same float64 phases,
    with T_j' = j U_(j-1)."""
    ld = np.longdouble
    n, L = f.domain.n_cheb, ld(f.domain.half_width)
    y = x.astype(ld) / L
    T = np.empty((n, y.size), dtype=ld)
    U = np.empty_like(T)
    T[0], T[1], U[0], U[1] = 1, y, 1, 2 * y
    for j in range(2, n):
        T[j] = 2 * y * T[j - 1] - T[j - 2]
        U[j] = 2 * y * U[j - 1] - U[j - 2]
    dT = np.zeros_like(T)
    dT[1:] = np.arange(1, n, dtype=ld)[:, None] * U[:-1]
    h = f.modes.T
    C = (h.real.astype(ld) @ E.real.T.astype(ld)
         - h.imag.astype(ld) @ E.imag.T.astype(ld))
    return np.sum(T * C, axis=0), np.sum(dT * C, axis=0) / L


@settings(max_examples=60, deadline=None)
@given(_mode_stacks(), st.one_of(st.none(), st.floats(-20.0, -14.0)))
def test_folded_step_matches_a_longdouble_sum(case, tail):
    # value and x-derivative of one grid step, at points up to the slack
    # of the interval check; the derivative's bound takes the coefficients
    # of f_x, D h_k / L, whose rows grow like j^2. A tail of 10^tail times
    # the stack's scale past a random head: the step folds only the rows
    # _fold_degree keeps and is held to the sum over the full stack
    f, rng = case
    dom = f.domain
    n, L = dom.n_cheb, dom.half_width
    if tail is not None:
        f.modes[:, rng.integers(2, n + 1):] *= 10.0 ** tail
    edge = L * INTERVAL_SLACK
    x = np.concatenate(([-edge, edge], rng.uniform(-edge, edge, 15)))
    E = _phases(rng.uniform(-2.0, 3.0, x.size), f.K)
    m = _fold_degree(f)
    got = _eval_folded(dom, _fold(f, E, m), x, np.empty((2, m, x.size)))
    value, deriv = _longdouble_step(f, E, x)
    tol = n * n * np.finfo(float).eps
    assert np.max(np.abs(got[0] - value)) <= tol * np.sum(np.abs(f.modes))
    assert np.max(np.abs(got[1] - deriv)) <= tol * np.sum(
        np.abs(f.dx().modes))


@settings(max_examples=25, deadline=None)
@given(_mode_stacks(), st.floats(0.0, 1.0), st.floats(0.1, 1.0))
def test_compose_matches_pointwise_on_the_spectral_grid(case, shift, scale):
    g, rng = case
    dom = g.domain
    shape = g.modes.shape
    # |inner| <= sum |h| = 1 keeps every inner value inside [-L, L]
    modes = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    inner = QPFn(modes / np.sum(np.abs(modes)), dom)
    h = compose_fiber(g, shift, inner, scale)
    M = 2 * dom.n_fourier + 1
    th = (np.arange(M) / M)[:, None]
    x = cheb_nodes(dom)[None, :]
    want = g.eval(th + shift, inner.eval(th, scale * x))
    tol = 1e-14 * dom.n_cheb * np.sum(np.abs(g.modes))
    assert np.max(np.abs(h.eval(th, x) - want)) <= tol


# ---------------------------------------- scalar calls and grid sampling

@st.composite
def _real_vectors(draw):
    """A real Chebyshev vector (n_cheb 8..64) and a point in [-L, L] drawn
    as a float, an int or an np.float64."""
    dom = DomainConfig(n_cheb=draw(st.integers(8, 64)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = rng.standard_normal(dom.n_cheb) * 10.0 ** rng.uniform(-3, 3)
    L = dom.half_width
    x = draw(st.one_of(st.floats(-L, L), st.integers(-1, 1),
                       st.floats(-L, L).map(np.float64)))
    return AnalyticFn(c, dom), x


@settings(max_examples=200, deadline=None)
@given(_real_vectors())
def test_scalar_call_is_chebval_bit_for_bit(case):
    f, x = case
    got = f(x)
    want = np.float64(cheb.chebval(np.asarray(x) / f.domain.half_width,
                                   f.coeffs))
    assert type(got) is np.float64
    assert got.tobytes() == want.tobytes()


@settings(max_examples=50, deadline=None)
@given(_real_vectors())
def test_arrays_and_complex_points_use_chebval(case):
    f, x = case
    L = f.domain.half_width
    for pts in (np.asarray(x), np.array([x, -0.5 * x, 0.25]),
                complex(x, 0.5)):
        got = f(pts)
        want = cheb.chebval(np.asarray(pts) / L, f.coeffs)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=100, deadline=None)
@given(_real_vectors())
def test_deriv_matches_padded_chebder(case):
    # reference: chebder's recurrence divided by L, padded with one zero
    f, _ = case
    n, L = f.domain.n_cheb, f.domain.half_width
    want = np.zeros(n)
    want[: n - 1] = cheb.chebder(f.coeffs) / L
    got = f.deriv().coeffs
    assert got.shape == (n,) and got[n - 1] == 0
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_complex_coefficients_are_rejected():
    # complex values live in QPFn rows; a function of x is real, even when
    # the imaginary part is zero
    dom = DomainConfig(n_cheb=8)
    with pytest.raises(ValueError, match="must be real"):
        AnalyticFn(np.zeros(dom.n_cheb, dtype=complex), dom)
    with pytest.raises(ValueError, match="must be real"):
        AnalyticFn([1j] + [0.0] * (dom.n_cheb - 1), dom)
    with pytest.raises(ValueError, match="must be real"):
        AnalyticFn.from_values(dom, np.ones(dom.n_cheb) + 0.5j)
    f = AnalyticFn(np.arange(dom.n_cheb), dom)
    assert f.coeffs.dtype == np.float64
    assert f.deriv().coeffs.dtype == np.float64


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=48),
       st.integers(8, 64))
def test_vandermonde_on_the_interval_is_within_n2_eps(ys, n):
    y = np.array(ys)
    got = _cheb_vander(y, n)
    want = cheb.chebvander(y, n - 1)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= n * n * np.finfo(float).eps


@pytest.mark.parametrize("dom", [DomainConfig(),
                                 DomainConfig(n_cheb=24, delta_dom=0.05),
                                 DomainConfig(n_cheb=64, delta_dom=0.3)],
                         ids=["default", "n24", "n64"])
def test_table_rows_are_chebvander(dom):
    # numpy's routine is the oracle for the value rows of `at` and sup_V
    n, L = dom.n_cheb, dom.half_width
    tab = _tables(dom)
    assert np.array_equal(tab.at[:, 0:2],
                          cheb.chebvander(np.array([0.0, 1.0 / L]), n - 1).T)
    n_x = 4 * n
    want = cheb.chebvander(np.cos(np.pi * np.arange(n_x) / (n_x - 1)), n - 1)
    assert np.array_equal(tab.sup_V, want)
    assert tab.sup_V.strides == want.strides


def test_cached_chebyshev_tables_are_read_only():
    # one in-place write would corrupt every later transform, sup norm,
    # derivative or DG1 read-out on that domain or grid
    dom = DomainConfig(n_cheb=16, n_fourier=4)
    for arr in (*_tables(dom), _grid_phases(512, 4), _grid_phases(36, 4)):
        with pytest.raises(ValueError):
            arr.flat[0] = 0.0


def test_qpfn_sum_and_difference_check_domains(domain):
    # as AnalyticFn subtraction does: the result would otherwise read the
    # second operand's coefficients on the first one's interval
    other = dataclasses.replace(domain, delta_dom=2 * domain.delta_dom)
    f, g = QPFn.zero(domain), QPFn.zero(other)
    for op in (operator.add, operator.sub):
        with pytest.raises(ConsistencyError, match="domain mismatch"):
            op(f, g)
    with pytest.raises(ConsistencyError, match="domain mismatch"):
        project_p0(f) - project_p0(g)


_OFF_INTERVAL = st.one_of(st.floats(1.0, 1e3, exclude_min=True),
                          st.floats(-1e3, -1.0, exclude_max=True),
                          st.just(math.nan))


# a grid pass evaluates at |x| up to L INTERVAL_SLACK
_EDGE = DomainConfig().half_width * INTERVAL_SLACK / DomainConfig().half_width


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), max_size=16), _OFF_INTERVAL,
       st.integers(0, 16), st.integers(8, 64))
@example([0.5, -1.0, 1.0], _EDGE, 1, 40)
@example([-0.0, -1.0, 1.0], -_EDGE, 1, 40)
def test_vandermonde_off_the_interval_is_chebvander(ys, y_off, at, n):
    y = np.array(ys[:at] + [y_off] + ys[at:])
    got = _cheb_vander(y, n)
    want = cheb.chebvander(y, n - 1)
    assert got.tobytes() == want.tobytes()
    assert got.strides == want.strides


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 64), st.integers(1, 8), st.integers(1, 40),
       st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_eval_of_a_row_against_a_column_is_the_broadcast_eval(n, K, n_theta,
                                                              n_x, seed):
    # compose_fiber's call shape: the product of the Vandermonde with the
    # mode columns is taken on the broadcast points. A BLAS product's rows
    # can change bits with its row count (n_cheb = 24 does here), so taking
    # it on the n_x distinct x alone would not give these bits
    dom = DomainConfig(n_cheb=n, n_fourier=K)
    rng = np.random.default_rng(seed)
    f = QPFn.zero(dom)
    f.modes[:] = (rng.standard_normal(f.modes.shape)
                  + 1j * rng.standard_normal(f.modes.shape))
    f.modes[0] = f.modes[0].real
    theta = rng.uniform(-1.0, 2.0, (n_theta, 1))
    x = rng.uniform(-dom.half_width, dom.half_width, n_x)
    got = f.eval(theta, x)
    want = f.eval(np.broadcast_to(theta, got.shape).copy(),
                  np.broadcast_to(x, got.shape).copy())
    assert got.tobytes() == want.tobytes()


def _eval_on_the_broadcast_points(f, theta, x):
    """QPFn.eval with its Chebyshev recurrence run on the broadcast x points
    themselves, as the eval ran before it took x as given: the reference."""
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    shape = np.broadcast_shapes(theta.shape, x.shape)
    x = np.broadcast_to(x, shape)
    V = _vander_rows(x / f.domain.half_width, f.domain.n_cheb).T
    H = np.ascontiguousarray(f.modes.T).view(float)
    A = (V @ H).view(complex).reshape(shape + (f.K + 1,))
    E = _phases(theta, f.K).reshape(theta.shape + (f.K + 1,))
    out = np.einsum("...k,...k->...", A, E).real
    return float(out) if out.ndim == 0 else out


EVAL_SHAPES = {"column-row": ((-1, 1), (-1,)), "row-column": ((-1,), (-1, 1)),
               "scalar-x": ((-1,), ()), "scalar-theta": ((), (2, -1)),
               "grid": ((3, -1), (3, -1)), "scalars": ((), ())}


@settings(max_examples=80, deadline=None)
@given(st.integers(8, 64), st.sampled_from([1, 4, 16]),
       st.sampled_from(sorted(EVAL_SHAPES)), st.integers(1, 40),
       st.integers(0, 2 ** 32 - 1))
def test_eval_runs_the_recurrence_on_x_as_given_bit_for_bit(n, K, shapes,
                                                            size, seed):
    # the recurrence on x's own points, copied out to the broadcast points
    # in their (n_cheb, P) layout, gives the product the same matrix in the
    # same memory order, so every shape keeps the bits of the recurrence on
    # the broadcast points; a C-ordered Vandermonde would not
    dom = DomainConfig(n_cheb=n, n_fourier=K)
    rng = np.random.default_rng(seed)
    f = QPFn.zero(dom)
    f.modes[:] = (rng.standard_normal(f.modes.shape)
                  + 1j * rng.standard_normal(f.modes.shape))
    f.modes[0] = f.modes[0].real
    th_shape, x_shape = (tuple(size if d == -1 else d for d in s)
                         for s in EVAL_SHAPES[shapes])
    theta = rng.uniform(-1.0, 2.0, th_shape)
    x = rng.uniform(-dom.half_width, dom.half_width, x_shape)
    got = f.eval(theta, x)
    want = _eval_on_the_broadcast_points(f, theta, x)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _from_callable_per_row(domain, fn):
    """Reference: sample fn, then h_0 = Re(A ft[0]) and h_k = A ft[k] +
    conj(A ft[M-k]) one row at a time."""
    K = domain.n_fourier
    M = 2 * K + 1
    x = cheb_nodes(domain)
    vals = np.empty((M, x.size))
    for j, th in enumerate(np.arange(M) / M):
        vals[j] = fn(th, x)
    return _per_row_modes(domain, vals)


def _per_row_modes(domain, vals):
    """The half spectrum of the (2K+1, n_cheb) samples vals, one product
    per row."""
    K = domain.n_fourier
    M = 2 * K + 1
    A = _tables(domain).A
    ft = np.fft.fft(vals, axis=0) / M
    modes = np.empty((K + 1, domain.n_cheb), dtype=complex)
    modes[0] = np.real(A @ ft[0])
    for k in range(1, K + 1):
        modes[k] = A @ ft[k] + np.conj(A @ ft[M - k])
    return QPFn(modes, domain)


@settings(max_examples=40, deadline=None)
@given(st.integers(8, 24), st.integers(1, 8), st.integers(1, 8),
       st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4))
def test_from_callable_matches_the_per_row_loop(n_cheb, K, k, c):
    dom = DomainConfig(n_cheb=n_cheb, n_fourier=K)
    shapes = {
        "grid": lambda th, x: (c[0] + c[1] * x ** 2
                               + c[2] * np.cos(TWO_PI * th)
                               + c[3] * x * np.sin(k * TWO_PI * th)),
        "theta column": lambda th, x: c[0] * np.cos(k * TWO_PI * th) + c[1],
        "x row": lambda th, x: c[2] - c[3] * x ** 3,
        "constant": lambda th, x: c[0],
    }
    for name, fn in shapes.items():
        got = QPFn.from_callable(dom, fn)
        want = _from_callable_per_row(dom, fn)
        assert got.modes.tobytes() == want.modes.tobytes(), name


@settings(max_examples=200, deadline=None)
@given(st.integers(8, 48), st.integers(1, 20), st.integers(0, 2 ** 32 - 1))
def test_from_callable_on_random_grids_is_the_per_row_loop_bit_for_bit(
        n_cheb, K, seed):
    # unstructured samples, rows scaled over 16 decades: the stacked
    # product must round each row as its own matrix-vector product does
    dom = DomainConfig(n_cheb=n_cheb, n_fourier=K)
    rng = np.random.default_rng(seed)
    vals = (rng.standard_normal((2 * K + 1, n_cheb))
            * 10.0 ** rng.uniform(-8, 8, (2 * K + 1, 1)))
    got = QPFn.from_callable(dom, lambda th, x: vals)
    assert got.modes.tobytes() == _per_row_modes(dom, vals).modes.tobytes()


def test_from_callable_rejects_complex_values():
    # a cast to float would keep cos 2 pi theta of exp(2 pi i theta)
    dom = DomainConfig(n_cheb=8, n_fourier=2)
    for fn in (lambda th, x: np.exp(TWO_PI * 1j * th) + 0 * x,
               lambda th, x: x + 0j,
               lambda th, x: 1j):
        with pytest.raises(ValueError, match="real-valued"):
            QPFn.from_callable(dom, fn)


def test_full_spectrum_rows_are_rejected_with_the_expected_shape():
    dom = DomainConfig(n_cheb=8, n_fourier=3)
    with pytest.raises(ValueError, match=r"\(K\+1, n_cheb\) = \(4, 8\)"):
        QPFn(np.zeros((7, 8), dtype=complex), dom)


# ------------------------------------------------------------ projections

def test_project_p0_strips_modes(domain):
    f = _mk(domain, lambda th, x: x + np.cos(TWO_PI * th))
    p = project_p0(f)
    for x in np.linspace(-1.0, 1.0, 9):
        assert float(np.real(p(x))) == pytest.approx(x, abs=1e-12)


def test_project_p0_theta_independent_fixed(domain):
    f = _mk(domain, lambda th, x: 1.0 - 1.5 * x ** 2)
    p = project_p0(f)
    for x in np.linspace(-1.0, 1.0, 9):
        assert float(np.real(p(x))) == pytest.approx(
            1.0 - 1.5 * x ** 2, abs=1e-12)


def test_project_p0_averages_squared_forcing(domain):
    # (1 + cos)^2 x averages theta-wise to (1 + 1/2) x
    f = _mk(domain, lambda th, x: (1.0 + np.cos(TWO_PI * th)) ** 2 * x)
    p = project_p0(f)
    for x in (-0.8, 0.25, 1.0):
        assert float(np.real(p(x))) == pytest.approx(1.5 * x, abs=1e-12)


def test_project_pik_pure_mode(domain):
    f = _mk(domain, lambda th, x: (1.0 + x) * np.cos(TWO_PI * th))
    pair = project_pik(f, 1)
    xs = np.linspace(-1.0, 1.0, 9)
    assert np.allclose([float(np.real(pair.u(x))) for x in xs],
                       1.0 + xs, atol=1e-12)
    assert max(abs(float(np.real(pair.v(x)))) for x in xs) <= 1e-12


def test_project_pik_mode_selection(domain):
    # x sin(4 pi theta) lives purely in mode k=2, sine leg
    f = _mk(domain, lambda th, x: x * np.sin(2.0 * TWO_PI * th))
    p2 = project_pik(f, 2)
    p1 = project_pik(f, 1)
    xs = np.linspace(-1.0, 1.0, 9)
    assert max(abs(float(np.real(p2.u(x)))) for x in xs) <= 1e-12
    assert np.allclose([float(np.real(p2.v(x))) for x in xs], xs, atol=1e-12)
    assert p1.sup_norm() <= 1e-12


def test_project_pik_theta_independent_is_zero(domain):
    f = _mk(domain, lambda th, x: 1.0 - x ** 2)
    assert project_pik(f, 1).sup_norm() <= 1e-12


def test_project_pik_idempotent(domain):
    f = _mk(domain, lambda th, x: 0.4 * x * np.cos(TWO_PI * th)
            + 0.7 * np.sin(TWO_PI * th) + 0.2 * x)
    p = project_pik(f, 1)
    again = project_pik(p.embed(1), 1)
    gap = np.max(np.abs(p.coeff_vector() - again.coeff_vector()))
    assert gap <= 1e-13


def test_project_pik_beyond_truncation_raises(domain):
    f = _mk(domain, lambda th, x: x)
    with pytest.raises(TruncationError):
        project_pik(f, domain.n_fourier + 1)


def test_project_pik_reads_back_from_pair_bit_for_bit(domain):
    rng = np.random.default_rng(5)
    for k in (1, 2, domain.n_fourier):
        u = AnalyticFn(rng.standard_normal(domain.n_cheb), domain)
        v = AnalyticFn(rng.standard_normal(domain.n_cheb), domain)
        f = QPFn.from_pair(domain, k, u, v)
        pair = project_pik(f, k)
        assert pair.u.coeffs.tobytes() == u.coeffs.tobytes()
        assert pair.v.coeffs.tobytes() == v.coeffs.tobytes()
        f.modes[k] = 0.0        # the pair does not alias the mode rows
        assert pair.u.coeffs.tobytes() == u.coeffs.tobytes()


def test_projections_orthogonal(domain):
    # p0 of a pure-mode embed vanishes
    f = _mk(domain, lambda th, x: (0.3 + x) * np.cos(TWO_PI * th)
            + 0.1 * np.sin(2 * TWO_PI * th))
    p0_of_mode = project_p0(project_pik(f, 1).embed(1))
    xs = np.linspace(-1.0, 1.0, 9)
    assert max(abs(float(np.real(p0_of_mode(x)))) for x in xs) <= 1e-13


# ------------------------------------------------------------ phase shifts

def test_shift_zero_is_identity(domain):
    f = _mk(domain, lambda th, x: x + 0.3 * np.sin(TWO_PI * th))
    g = shift_tgamma(f, 0.0)
    for th in (0.1, 0.6):
        for x in (-0.5, 0.8):
            assert eval_qpfn(g, th, x) == pytest.approx(
                eval_qpfn(f, th, x), abs=1e-13)


def test_shift_half_turn_flips_cosine(domain):
    f = _mk(domain, lambda th, x: np.cos(TWO_PI * th) * (1.0 + 0.2 * x))
    g = shift_tgamma(f, 0.5)
    for th in np.linspace(0.0, 1.0, 7):
        for x in (-0.5, 0.0, 0.9):
            want = -np.cos(TWO_PI * th) * (1.0 + 0.2 * x)
            assert eval_qpfn(g, th, x) == pytest.approx(want, abs=1e-12)


def test_shift_quarter_turn_sine_to_cosine(domain):
    f = _mk(domain, lambda th, x: np.sin(TWO_PI * th))
    g = shift_tgamma(f, 0.25)
    for th in np.linspace(0.0, 1.0, 9):
        want = np.cos(TWO_PI * th)
        assert eval_qpfn(g, th, 0.0) == pytest.approx(want, abs=1e-12)


_SHIFT = st.floats(-2.0, 2.0)


@settings(max_examples=100, deadline=None)
@given(_SHIFT, _SHIFT, st.integers(-3, 3))
def test_shift_composes_additively(domain, a, b, turns):
    # t_gamma is an action of the circle: t_a t_b = t_(a+b) = t_b t_a,
    # t_0 and whole turns are the identity, t_(-a) inverts t_a
    f = _mk(domain, lambda th, x: x * np.cos(TWO_PI * th)
            + 0.4 * np.sin(2 * TWO_PI * th)
            + 0.1 * x * np.cos(16 * TWO_PI * th))

    def gap(g, h):
        return np.max(np.abs(g.modes - h.modes))

    ab = shift_tgamma(f, a + b)
    assert gap(shift_tgamma(shift_tgamma(f, a), b), ab) <= 1e-13
    assert gap(shift_tgamma(shift_tgamma(f, b), a), ab) <= 1e-13
    assert gap(shift_tgamma(shift_tgamma(f, a), -a), f) <= 1e-13
    assert gap(shift_tgamma(f, a + turns), shift_tgamma(f, a)) <= 1e-13
    assert np.array_equal(shift_tgamma(f, 0.0).modes, f.modes)


def test_shift_preserves_coeff_norm_exactly(domain):
    rng = np.random.default_rng(5)
    rows = {}
    f = _mk(domain, lambda th, x: 0.3 * x + 0.5 * np.cos(TWO_PI * th)
            + 0.2 * x * np.sin(2 * TWO_PI * th))
    for gamma in rng.uniform(0.0, 1.0, size=6):
        g = shift_tgamma(f, float(gamma))
        rows[float(gamma)] = g.coeff_norm()
    base = f.coeff_norm()
    for val in rows.values():
        assert val == pytest.approx(base, rel=1e-14)


def test_shift_commutes_with_mode_projection(domain):
    f = _mk(domain, lambda th, x: (0.2 + x) * np.cos(TWO_PI * th)
            + 0.1 * np.sin(TWO_PI * th) + 0.3 * x ** 2)
    gamma = 0.234
    a = project_pik(shift_tgamma(f, gamma), 1)
    # mode k picks up the phase 2 pi k gamma
    b = (rotation_matrix(domain.n_cheb, gamma)
         @ project_pik(f, 1).coeff_vector())
    gap = np.max(np.abs(a.coeff_vector() - b))
    assert gap <= 1e-13


# -------------------------------------------------------------- sup norms

def test_sup_norm_zero(domain):
    assert sup_norm(QPFn.zero(domain)) == 0.0


def test_sup_norm_pure_cosine(domain):
    f = _mk(domain, lambda th, x: np.cos(TWO_PI * th))
    assert sup_norm(f) == pytest.approx(1.0, abs=1e-10)


def test_sup_norm_separable(domain):
    # |x sin(2 pi theta)| peaks at the interval edge 1 + delta_dom
    f = _mk(domain, lambda th, x: x * np.sin(TWO_PI * th))
    assert sup_norm(f) == pytest.approx(1.0 + domain.delta_dom, abs=1e-9)


def test_pair_sup_norm_of_a_block_is_the_per_row_norm_bit_for_bit(domain):
    rng = np.random.default_rng(5)
    U = rng.standard_normal((7, domain.n_cheb))
    V = rng.standard_normal((7, domain.n_cheb))
    got = pair_sup_norm(domain, U - 1j * V)
    assert got.shape == (7,)
    for j in range(7):
        pair = PairFn(AnalyticFn(U[j], domain), AnalyticFn(V[j], domain))
        assert got[j] == pair.sup_norm()
        assert type(pair.sup_norm()) is float


def _sup_grid_oracle(domain, u, v):
    """max of hypot(u(x), v(x)) over the sup grid, point by point through
    AnalyticFn calls."""
    n_x = 4 * domain.n_cheb
    xs = domain.half_width * np.cos(np.pi * np.arange(n_x) / (n_x - 1))
    fu, fv = AnalyticFn(u, domain), AnalyticFn(v, domain)
    return max(math.hypot(fu(float(x)), fv(float(x))) for x in xs)


def test_pair_sup_norm_keeps_its_range(domain):
    # squares of 1e160 overflow and squares of 1e-160 underflow unless each
    # row is scaled first; the oracle's Clenshaw sums and the Vandermonde
    # product round differently, by up to 1e-15 relative on these rows at
    # any scale, which the bound covers
    rng = np.random.default_rng(23)
    n = domain.n_cheb
    decay = 0.7 ** np.arange(n)
    U = rng.standard_normal((12, n)) * decay
    V = rng.standard_normal((12, n)) * decay
    for scale in (1e-160, 1.0, 1e160):
        got = pair_sup_norm(domain, scale * U - 1j * (scale * V))
        for g, u, v in zip(got, scale * U, scale * V):
            want = _sup_grid_oracle(domain, u, v)
            assert abs(g - want) <= 2e-15 * want
    # a power-of-two scale is exact: the norm moves by that power, bit for
    # bit, while the entries stay normal floats
    H = U - 1j * V
    for k in (-900, -531, 531, 1000):
        got = pair_sup_norm(domain, H * 2.0 ** k)
        assert got.tobytes() == np.ldexp(pair_sup_norm(domain, H),
                                         k).tobytes()


def test_domain_replace_changes_fields_and_validates(domain):
    dom = dataclasses.replace(domain, n_cheb=24)
    assert (dom.n_cheb, dom.n_fourier, dom.delta_dom) == (
        24, domain.n_fourier, domain.delta_dom)
    with pytest.raises(ValueError):
        dataclasses.replace(domain, n_cheb=4)


def test_pairfn_coeff_vector_roundtrip(domain):
    rng = np.random.default_rng(17)
    vec = rng.standard_normal(2 * domain.n_cheb)
    pair = PairFn.from_coeff_vector(domain, vec)
    assert np.allclose(pair.coeff_vector(), vec, atol=0.0)
