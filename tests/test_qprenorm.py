"""Forced renormalization operator, its mode blocks, and section machinery.

Oracles: trig/algebraic identities for rotation numbers, block-matrix
assembly from l1/l2 factors, central finite differences for the derivative,
and spectrum symmetry under omega -> -omega.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as cheb

from qprenorm_lab import (
    DomainConfig,
    PairFn,
    QPFn,
    RotationNumber,
    SectionConfig,
    apply_DT,
    apply_L_prime,
    apply_T,
    build_L_omega,
    dr_matrix,
    eval_qpfn,
    gamma_normalize,
    l1_matrix,
    l2_matrix,
    project_p0,
    project_pik,
    renormalize_1d,
    rotation_matrix,
    shift_tgamma,
    spectrum_L_omega,
    sup_norm,
    require_diophantine,
    UnimodalMap,
)
from qprenorm_lab.errors import (
    DegeneratePointError,
    DegenerateScalingError,
    DiophantineError,
    DomainError,
    NoSectionError,
    PrecisionExhaustedError,
)
from qprenorm_lab.funcspace import _clenshaw_scalar
from qprenorm_lab.asymptotics import H4_OMEGAS
from qprenorm_lab.qprenorm import (dt_columns, l_prime_rows, land_rows,
                                  row_norms, section_gammas)

TWO_PI = 2.0 * np.pi


# --------------------------------------------------------- rotation numbers

def test_golden_double_algebraic_identity(golden):
    assert abs(float(golden.double()) - (math.sqrt(5.0) - 2.0)) <= 1e-15


def test_rational_third_cycles_with_period_two():
    w = RotationNumber.from_fraction(1, 3)
    w2 = w.double()
    w4 = w2.double()
    assert float(w2) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert float(w4) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_ten_doublings_match_exact_algebra(golden):
    w = golden
    for _ in range(10):
        w = w.double()
    # 2^10 omega mod 1 = frac(512 sqrt(5)); the float oracle itself
    # carries ~2e-13 rounding from the 512 sqrt(5) product
    assert abs(float(w) - (512.0 * math.sqrt(5.0)) % 1.0) <= 1e-12
    assert abs(float(w) - float(golden.times_mod1(1024))) <= 1e-15


def test_doubling_depth_is_bounded(golden):
    w = golden
    with pytest.raises(PrecisionExhaustedError):
        for _ in range(150):
            w = w.double()


def test_doubling_stays_exact_through_its_depth_limit(golden):
    w = golden
    for _ in range(75):
        w = w.double()
    scale = 1 << 256
    num = (math.isqrt(5 << 512) - scale) // 2     # 256-bit golden fraction
    assert float(w) == ((num << 75) % scale) / scale
    with pytest.raises(PrecisionExhaustedError):
        w.double()


NOBLE = RotationNumber.from_continued_fraction(
    [2, 1, 3] + [1] * 60, dio_gamma=0.18, dio_tau=1.0, q_max=4000)


@pytest.mark.parametrize("omega", [RotationNumber.golden(q_max=4000), NOBLE],
                         ids=["golden", "noble"])
def test_doubled_certificate_matches_a_fresh_verification(omega):
    # a derived number carries no certificate: only the number a driver is
    # given is verified
    w = omega
    for d in range(1, 9):
        w = w.double()
        assert w == RotationNumber((omega.num << d) % (1 << 128), depth=d)
    for k in range(2, 9):
        assert omega.times_mod1(k) == RotationNumber(
            (omega.num * k) % (1 << 128), depth=0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 128 - 1), st.integers(0, 10 ** 12),
       st.integers(0, 75))
def test_repeated_doubling_is_multiplication_by_a_power_of_two(num, q_max,
                                                              d):
    # dio_gamma = 0 skips the Diophantine loop
    w = RotationNumber(num, q_max=q_max)
    doubled = w
    for _ in range(d):
        doubled = doubled.double()
    product = w.times_mod1(2 ** d)
    assert (doubled.num, doubled.depth) == (product.num, d)


def test_double_does_not_rerun_the_diophantine_loop(golden, monkeypatch):
    def fail(self):
        raise AssertionError("doubling re-verified the certificate")
    monkeypatch.setattr(RotationNumber, "_verify", fail)
    w = golden.double().double()
    assert w == RotationNumber((golden.num << 2) % (1 << 128), depth=2)
    for k in range(2, 9):
        assert golden.times_mod1(k) == RotationNumber(
            (golden.num * k) % (1 << 128), depth=0)
    with pytest.raises(AssertionError):
        RotationNumber(golden.num, dio_gamma=0.38, q_max=10)


def _first_break_by_loop(num, gamma, tau, q_max):
    """Reference: the message of the first q in 1..q_max that breaks
    |q omega - p| >= gamma / q^tau, or None."""
    scale = 1 << 128
    for q in range(1, q_max + 1):
        r = (q * num) % scale
        dist = min(r, scale - r)
        if float(dist) < gamma * scale / q ** tau:
            return (f"|q omega - p| = {dist / scale:.3e} at q={q} breaks "
                    f"gamma/q^tau = {gamma / q ** tau:.3e}")
    return None


_NUMS = st.one_of(
    st.integers(0, 2 ** 128 - 1),
    # near a rational p/q: floor(p 2^128 / q) plus a few units
    st.builds(lambda q, p, e: (p % q * 2 ** 128 // q + e) % 2 ** 128,
              st.integers(1, 3000), st.integers(0, 3000),
              st.integers(-2, 2)))


@settings(max_examples=300, deadline=None)
@given(_NUMS, st.floats(1e-6, 1.0), st.floats(0.0, 3.0),
       st.integers(1, 2000))
def test_convergent_certificate_matches_the_loop(num, gamma, tau, q_max):
    want = _first_break_by_loop(num, gamma, tau, q_max)
    try:
        RotationNumber(num, dio_gamma=gamma, dio_tau=tau, q_max=q_max)
        got = None
    except DiophantineError as e:
        got = str(e)
    assert got == want


@pytest.mark.parametrize("tau", [-1.0, float("nan")])
def test_negative_or_nan_tau_is_rejected(tau):
    with pytest.raises(ValueError, match="dio_tau"):
        RotationNumber(RotationNumber.golden().num, dio_gamma=0.38,
                       dio_tau=tau, q_max=100)


def test_diophantine_certificates():
    require_diophantine(RotationNumber.golden())
    with pytest.raises(DiophantineError):
        require_diophantine(RotationNumber.from_fraction(1, 3))
    with pytest.raises(DiophantineError):
        # a rational can never satisfy the lower bound at its denominator
        RotationNumber.from_fraction(1, 3, dio_gamma=0.1, dio_tau=1.0,
                                     q_max=10)
    with pytest.raises(DiophantineError):
        require_diophantine(RotationNumber.from_float(0.1234567))


# ------------------------------------------------------------- the operator

def test_phi_is_fixed_under_forced_operator(fp, golden):
    phi_q = fp.phi.embed()
    assert sup_norm(apply_T(phi_q, golden) + phi_q * -1.0) <= 1e-10


def test_theta_independent_input_reduces_to_1d(stars, golden):
    f2 = stars[1]
    image = apply_T(f2.embed(), golden)
    target = renormalize_1d(f2).embed()
    assert sup_norm(image + target * -1.0) <= 1e-11


def test_first_order_taylor_consistency(fp, domain, golden):
    phi_q = fp.phi.embed()
    pert = QPFn.from_callable(domain, lambda th, x: np.cos(TWO_PI * th))
    h = 1e-6
    curved = apply_T(phi_q + pert * h, golden)
    linear = apply_DT(fp.phi, golden, pert)
    resid = sup_norm(curved + phi_q * -1.0 + linear * (-h))
    assert resid <= 1e-11


# --------------------------------------------------------------- derivative

def test_derivative_mode_zero_is_1d_derivative(fp, domain, golden):
    v = QPFn.from_callable(domain, lambda th, x: 0.3 - 0.2 * x ** 2)
    image = apply_DT(fp.phi, golden, v)
    got = project_p0(image).coeffs
    want = dr_matrix(fp.phi) @ project_p0(v).coeffs
    assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("w", [0.0, 0.25, 0.6180339887498949, 0.9])
def test_derivative_is_the_per_mode_formula_bit_for_bit(fp, stars, domain,
                                                        w):
    # apply_DT casts L1 and L2 to complex once per call; the real matrix
    # times each mode is the reference
    rng = np.random.default_rng(5)
    v = QPFn.zero(domain)
    v.modes[:] = (rng.standard_normal(v.modes.shape)
                  + 1j * rng.standard_normal(v.modes.shape))
    omega = RotationNumber.from_float(w)
    for base in (fp.phi, stars[1]):
        L1, L2 = l1_matrix(base), l2_matrix(base)
        want = [dr_matrix(base) @ v.modes[0]] + [
            L1 @ v.modes[k]
            + np.exp(2j * np.pi * k * float(omega)) * (L2 @ v.modes[k])
            for k in range(1, v.K + 1)]
        got = apply_DT(base, omega, v).modes
        assert got.tobytes() == np.array(want).tobytes()


def test_derivative_preserves_mode_spaces(fp, domain, golden):
    v = QPFn.from_callable(
        domain, lambda th, x: (1.0 + 0.5 * x) * np.cos(2 * TWO_PI * th))
    image = apply_DT(fp.phi, golden, v)
    assert project_pik(image, 2).sup_norm() > 1e-3
    for k in (1, 3, 4):
        assert project_pik(image, k).sup_norm() <= 1e-12
    xs = np.linspace(-1.0, 1.0, 9)
    p0 = project_p0(image)
    assert max(abs(float(np.real(p0(x)))) for x in xs) <= 1e-12


def test_derivative_matches_central_difference(fp, domain, golden):
    phi_q = fp.phi.embed()
    v = QPFn.from_callable(domain, lambda th, x: x * np.cos(TWO_PI * th))
    h = 1e-6
    plus = apply_T(phi_q + v * h, golden)
    minus = apply_T(phi_q + v * (-h), golden)
    fd = (plus + minus * -1.0) * (0.5 / h)
    assert sup_norm(fd + apply_DT(fp.phi, golden, v) * -1.0) <= 1e-8


# ------------------------------------------------------------- mode blocks

def test_zero_rotation_block_diagonal(fp):
    n = fp.phi.domain.n_cheb
    M = build_L_omega(fp.phi, RotationNumber.zero(), 1).matrix
    S = l1_matrix(fp.phi) + l2_matrix(fp.phi)
    assert np.max(np.abs(M[:n, :n] - S)) <= 1e-12
    assert np.max(np.abs(M[n:, n:] - S)) <= 1e-12
    assert np.max(np.abs(M[:n, n:])) <= 1e-12
    assert np.max(np.abs(M[n:, :n])) <= 1e-12


def test_quarter_rotation_block_structure(fp):
    n = fp.phi.domain.n_cheb
    M = build_L_omega(fp.phi, RotationNumber.from_fraction(1, 4), 1).matrix
    L1 = l1_matrix(fp.phi)
    L2 = l2_matrix(fp.phi)
    assert np.max(np.abs(M[:n, :n] - L1)) <= 1e-12
    assert np.max(np.abs(M[n:, n:] - L1)) <= 1e-12
    assert np.max(np.abs(M[:n, n:] - L2)) <= 1e-12
    assert np.max(np.abs(M[n:, :n] + L2)) <= 1e-12


@pytest.mark.parametrize("omega", [
    RotationNumber.golden(), RotationNumber.from_fraction(1, 3),
    RotationNumber.from_fraction(5, 128)], ids=["golden", "third", "grid"])
@pytest.mark.parametrize("k", [1, 2, 16])
def test_block_matrix_is_the_block_formula_bit_for_bit(fp, omega, k):
    phi = 2.0 * np.pi * float(omega.times_mod1(k))
    L1, L2 = l1_matrix(fp.phi), l2_matrix(fp.phi)
    c, s = np.cos(phi), np.sin(phi)
    want = np.block([[L1 + c * L2, s * L2],
                     [-s * L2, L1 + c * L2]])
    assert build_L_omega(fp.phi, omega, k).matrix.tobytes() == want.tobytes()


def _row_blocks(rng, width, count=8):
    """Random blocks of 1-50 rows of the given width, each row scaled by
    1e-8..1e8: contiguous, every other row, and a column slice."""
    for _ in range(count):
        rows = int(rng.integers(1, 51))
        B = (rng.standard_normal((2 * rows, width + 3))
             * 10.0 ** rng.uniform(-8.0, 8.0, size=(2 * rows, 1)))
        yield np.ascontiguousarray(B[:rows, :width])
        yield B[0::2, :width]
        yield B[:rows, 2:width + 2]


def _mode_rows(X):
    """The (u, v) rows of X as stored rows h = u - i v."""
    n = X.shape[-1] // 2
    return X[..., :n] - 1j * X[..., n:]


@pytest.mark.parametrize("width", [2, 40, 80, 81])
def test_row_norms_are_the_per_row_dot_bit_for_bit(width):
    rng = np.random.default_rng(width)
    for X in _row_blocks(rng, width):
        want = np.sqrt(np.array([x.dot(x) for x in X]))
        assert row_norms(X).tobytes() == want.tobytes()
        # a complex row h = u - i v has the norm of its (u, v) row
        H = _mode_rows(X[:, :width - width % 2])
        want = [np.linalg.norm(np.concatenate([h.real, -h.imag])) for h in H]
        assert row_norms(H).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("n_cheb", [20, 40])
def test_l_prime_rows_take_the_per_row_matvec_bit_for_bit(n_cheb):
    dom = DomainConfig(n_cheb=n_cheb)
    psi = UnimodalMap.from_callable(dom, lambda x: 1.0 - 1.5 * x ** 2)
    rng = np.random.default_rng(n_cheb)
    grid = [RotationNumber.from_float(w) for w in rng.random(3)]
    for X in _row_blocks(rng, 2 * n_cheb, count=4):
        H = X.view(complex)      # contiguous, strided and offset blocks
        for omegas in (grid[1:2], grid):
            Y, errors = l_prime_rows(psi, omegas, H)
            assert errors == [None] * len(Y)
            # (omega, h) order: each row has the bits of h alone under omega
            want = [l_prime_rows(psi, [om], h[None, :])[0][0]
                    for om in omegas for h in H]
            assert Y.tobytes() == np.array(want).tobytes()


def test_dt_columns_are_the_assembled_block_to_rounding(fp):
    # the kernel sums L1 h + ph L2 h on complex columns where the assembled
    # block takes one real dot per entry, so the two agree to rounding; a
    # conjugated phase e^(-2 pi i k omega) misses by O(1) off omega = 0
    psi, n = fp.phi, fp.phi.domain.n_cheb
    omegas = [RotationNumber.zero(), RotationNumber.from_fraction(1, 4),
              RotationNumber.from_fraction(1, 3), RotationNumber.golden(),
              *H4_OMEGAS]
    w = np.array([float(om) for om in omegas])
    rng = np.random.default_rng(17)
    X = (rng.standard_normal((30, 2 * n))
         * 10.0 ** rng.uniform(-3.0, 3.0, size=(30, 1)))
    H = _mode_rows(X)
    # the _dt_step shape: per omega, one block whose K = 3 columns are
    # modes 1..3, under the phase row e^(2 pi i k omega)
    ks = np.arange(1, 4)
    modes = np.array([[dt_columns(psi, np.repeat(h[:, None], 3, axis=1),
                                  np.exp(2j * np.pi * ks * wj)).T
                       for h in H] for wj in w])     # (omega, row, k, n)
    for k in ks:
        # the check_H4 shape: one-column blocks, one phase per omega
        stacked = dt_columns(psi, H[:, :, None], np.exp(
            2j * np.pi * k * w)[:, None, None, None])[..., 0]
        for om, a, b in zip(omegas, stacked, modes[:, :, k - 1]):
            want = X @ build_L_omega(psi, om, k).matrix.T
            for got in (a, b):
                err = np.linalg.norm(
                    np.concatenate([got.real, -got.imag], axis=1) - want,
                    axis=1)
                assert np.all(err <= 1e-14 * np.linalg.norm(want, axis=1))


@pytest.mark.parametrize("op", [
    l1_matrix, l2_matrix, dr_matrix,
    lambda psi: apply_DT(psi, RotationNumber.golden(), QPFn.zero(psi.domain)),
    lambda psi: build_L_omega(psi, RotationNumber.golden(), 1),
], ids=["l1", "l2", "dr", "apply_DT", "build_L_omega"])
def test_operator_data_rejects_a_degenerate_base(domain, op):
    # 1 - x^2 has a = psi(1) = -8.9e-16, and each operator divides by a:
    # L1 and L2 at it reach entries of 1e15
    base = UnimodalMap.from_callable(domain, lambda x: 1.0 - x * x)
    with pytest.raises(DegenerateScalingError, match="degenerate scaling"):
        op(base)


def test_block_matrix_commutes_with_rotations(fp, golden):
    n = fp.phi.domain.n_cheb
    M = build_L_omega(fp.phi, golden, 1).matrix
    rng = np.random.default_rng(3)
    for gamma in rng.uniform(0.0, 1.0, size=5):
        R = rotation_matrix(n, float(gamma))
        assert np.max(np.abs(M @ R - R @ M)) <= 1e-12


def test_rotation_matrix_is_t_gamma_on_the_pair_vector(domain):
    n = domain.n_cheb
    rng = np.random.default_rng(12)
    for gamma in rng.uniform(0.0, 1.0, size=5):
        pair = PairFn.from_coeff_vector(domain, rng.standard_normal(2 * n))
        want = project_pik(shift_tgamma(pair.embed(1), gamma), 1)
        got = rotation_matrix(n, float(gamma)) @ pair.coeff_vector()
        assert np.max(np.abs(got - want.coeff_vector())) <= 1e-14


def test_rotation_matrices_are_orthogonal(fp):
    n = fp.phi.domain.n_cheb
    rng = np.random.default_rng(4)
    for gamma in rng.uniform(0.0, 1.0, size=5):
        R = rotation_matrix(n, float(gamma))
        assert np.max(np.abs(R.T @ R - np.eye(2 * n))) <= 1e-13


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 13, 16])
def test_mode_block_diagonalizes_derivative(fp, golden, k):
    dom = fp.phi.domain
    op = build_L_omega(fp.phi, golden, k)
    rng = np.random.default_rng(100 + k)
    for _ in range(3):
        pair = PairFn.from_coeff_vector(
            dom, rng.standard_normal(2 * dom.n_cheb))
        via_dt = apply_DT(fp.phi, golden, pair.embed(k))
        via_block = op.apply(pair).embed(k)
        assert sup_norm(via_dt + via_block * -1.0) <= 1e-10


def test_equivariance_under_phase_shift(fp, domain, golden):
    rng = np.random.default_rng(8)
    for _ in range(3):
        c = rng.standard_normal(5) * 0.5
        gamma = float(rng.uniform(0.0, 1.0))

        def v_fn(th, x, c=c):
            return (c[0] * x ** 2 + c[1] * np.cos(TWO_PI * th)
                    + c[2] * x * np.sin(TWO_PI * th)
                    + c[3] * np.cos(2 * TWO_PI * th)
                    + c[4] * x)

        v = QPFn.from_callable(domain, v_fn)
        a = shift_tgamma(apply_DT(fp.phi, golden, v), gamma)
        b = apply_DT(fp.phi, golden, shift_tgamma(v, gamma))
        assert sup_norm(a + b * -1.0) <= 1e-10


# ------------------------------------------------------------------ spectra

def test_zero_rotation_spectrum_is_doubled(fp):
    op = build_L_omega(fp.phi, RotationNumber.zero(), 1)
    rep = spectrum_L_omega(op)
    n = fp.phi.domain.n_cheb
    single = np.linalg.eigvals(l1_matrix(fp.phi) + l2_matrix(fp.phi))
    doubled = np.sort_complex(np.concatenate([single, single]))
    got = np.sort_complex(np.asarray(rep.eigenvalues))
    assert got.size == 2 * n
    assert np.max(np.abs(got - doubled)) <= 1e-8


def test_spectrum_pairing_and_continuity_over_grid(fp):
    radii = []
    for i in range(64):
        rep = spectrum_L_omega(build_L_omega(
            fp.phi, RotationNumber.from_fraction(i, 64), 1))
        assert rep.pairing_ok, f"pairing violated at omega={i / 64.0}"
        radii.append(rep.spectral_radius)
    jumps = np.abs(np.diff(radii + radii[:1]))
    assert np.max(jumps) <= 0.5


def test_opposite_rotation_conjugates_spectrum(fp, golden):
    w = float(golden)
    eig_pos = np.sort_complex(np.asarray(
        spectrum_L_omega(build_L_omega(
            fp.phi, RotationNumber.from_float(w), 1)).eigenvalues))
    eig_neg = np.sort_complex(np.asarray(
        spectrum_L_omega(build_L_omega(
            fp.phi, RotationNumber.from_float(1.0 - w), 1)).eigenvalues))
    assert np.max(np.abs(eig_pos - np.sort_complex(np.conj(eig_neg)))) <= 1e-8


# ------------------------------------------------------- section machinery

def test_normalize_sine_already_in_section(domain):
    v = QPFn.from_callable(
        domain, lambda th, x: (1.0 + 0.2 * x) * np.sin(TWO_PI * th))
    gamma0, vn = gamma_normalize(v)
    assert abs(gamma0) <= 1e-12
    assert sup_norm(vn + v * -1.0) <= 1e-12


def test_normalize_cosine_needs_three_quarters(domain):
    v = QPFn.from_callable(
        domain, lambda th, x: (1.0 + 0.2 * x) * np.cos(TWO_PI * th))
    gamma0, vn = gamma_normalize(v)
    assert gamma0 == pytest.approx(0.75, abs=1e-12)
    # normalized function vanishes at the section with positive slope
    assert abs(eval_qpfn(vn, 0.0, 0.0)) <= 1e-12
    h = 1e-6
    slope = (eval_qpfn(vn, h, 0.0) - eval_qpfn(vn, -h, 0.0)) / (2 * h)
    assert slope > 0.0


def test_normalize_is_idempotent(domain):
    v = QPFn.from_callable(
        domain, lambda th, x: (0.7 + 0.1 * x) * np.cos(TWO_PI * th)
        + 0.4 * np.sin(TWO_PI * th))
    gamma0, vn = gamma_normalize(v)
    gamma_again, _ = gamma_normalize(vn)
    assert min(abs(gamma_again), abs(1.0 - gamma_again)) <= 1e-9


def test_normalize_needs_first_mode(domain):
    v = QPFn.from_callable(domain, lambda th, x: 1.0 - x ** 2)
    with pytest.raises(NoSectionError):
        gamma_normalize(v)


def test_normalize_falls_back_on_degenerate_section_point(domain):
    # u(x) = x vanishes at x0 = 0; the scan moves to a nonzero sample
    v = QPFn.from_callable(domain, lambda th, x: x * np.sin(TWO_PI * th))
    gamma0, _ = gamma_normalize(v)
    assert min(abs(gamma0), abs(1.0 - gamma0)) <= 1e-9


@pytest.mark.parametrize("x0", [math.nan, 2.0, -math.inf])
def test_section_point_off_the_interval_raises(domain, x0):
    # NaN included: every comparison with it is false, so the range test
    # has to be phrased as "not inside"
    v = QPFn.from_callable(
        domain, lambda th, x: (1.0 + 0.2 * x) * np.cos(TWO_PI * th))
    with pytest.raises(DomainError, match="outside the interval"):
        gamma_normalize(v, SectionConfig(x0=x0))


def _shifted_value_and_slope(pair, gamma, section):
    """f and d f / d theta at (theta0, x0) of t_gamma pair, from the pair
    rotated as rotation_matrix and the scalar Clenshaw loop."""
    c, s = np.cos(TWO_PI * gamma), np.sin(TWO_PI * gamma)
    u, v = pair.u.coeffs, pair.v.coeffs
    t = section.x0 / pair.domain.half_width
    a = _clenshaw_scalar((c * u + s * v).tolist(), t)
    b = _clenshaw_scalar((-s * u + c * v).tolist(), t)
    c0, s0 = np.cos(TWO_PI * section.theta0), np.sin(TWO_PI * section.theta0)
    return a * c0 + b * s0, TWO_PI * (-a * s0 + b * c0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-6.0, 6.0),
       st.floats(0.0, 1.0, exclude_max=True),
       st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
def test_l_prime_output_satisfies_section_conditions(fp, domain, golden, seed,
                                                     log_norm, theta0, x0):
    pair = project_pik(QPFn.from_callable(
        domain, lambda th, x: (0.8 + 0.3 * x) * np.cos(TWO_PI * th)
        + 0.2 * np.sin(TWO_PI * th)), 1)
    out = apply_L_prime(fp.phi, golden, pair)
    f = out.embed(1)
    assert abs(eval_qpfn(f, 0.0, 0.0)) <= 1e-10
    h = 1e-6
    slope = (eval_qpfn(f, h, 0.0) - eval_qpfn(f, -h, 0.0)) / (2 * h)
    assert slope > 0.0

    # random pairs and sections: the shift section_gammas picks without a
    # slope check lands on the section with slope 2 pi hypot(A, B)
    section = SectionConfig(theta0=theta0, x0=x0 * domain.half_width)
    x = np.random.default_rng(seed).standard_normal(2 * domain.n_cheb)
    x *= 10.0 ** log_norm / np.linalg.norm(x)
    pair = PairFn.from_coeff_vector(domain, x)
    radius = math.hypot(pair.u(section.x0), pair.v(section.x0))
    assume(radius > 1e-9 * np.linalg.norm(x))     # no scan past x0
    gamma, got = _normalized(pair, section)
    want = (1.0 - 1e-6) * TWO_PI * radius
    value, slope = _shifted_value_and_slope(pair, gamma, section)
    assert abs(value) <= 1e-12 * np.sum(np.abs(x)) and slope >= want
    value, slope = _shifted_value_and_slope(got, 0.0, section)
    assert abs(value) <= 1e-12 * np.sum(np.abs(x)) and slope >= want


def _bits(pair):
    return pair.coeff_vector().tobytes()


def _normalized(pair, section=SectionConfig()):
    """(gamma0, t_gamma0 pair) for one mode-1 pair: gamma_normalize on the
    pair as mode 1, read back as a pair."""
    gamma, f = gamma_normalize(pair.embed(1), section)
    return gamma, project_pik(f, 1)


def _image_vanishing_at_zero(M, n, x):
    """x moved (by least squares) so that both components of M x vanish at
    x = 0 up to rounding, which sends the section scan past x0 = 0."""
    e = cheb.chebvander(0.0, n - 1)[0]
    R = np.stack([e @ M[:n], e @ M[n:]])
    return x - R.T @ np.linalg.solve(R @ R.T, R @ x)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0), st.booleans())
def test_l_prime_matches_the_qpfn_round_trip_bit_for_bit(fp, seed, w, vanish):
    dom = fp.phi.domain
    n = dom.n_cheb
    rng = np.random.default_rng(seed)
    omega = RotationNumber.from_float(w)
    x = rng.standard_normal(2 * n) * 10.0 ** rng.uniform(-3, 3)
    if vanish:
        x = _image_vanishing_at_zero(build_L_omega(fp.phi, omega, 1).matrix,
                                     n, x)
    v = PairFn.from_coeff_vector(dom, x)
    img = QPFn.zero(dom)
    img.modes[1] = dt_columns(fp.phi, _mode_rows(x)[:, None],
                              np.exp(2j * np.pi * float(omega)))[:, 0]
    if vanish:
        p = project_pik(img, 1)
        at0 = np.hypot(p.u(0.0), p.v(0.0))
        assert at0 <= 1e-9 * p.coeff_norm()     # the scan moves on
    want = project_pik(gamma_normalize(img)[1], 1)
    assert _bits(apply_L_prime(fp.phi, omega, v)) == _bits(want)


def test_normalizing_twice_snaps_to_zero_and_keeps_the_bits(domain):
    rng = np.random.default_rng(31)
    for _ in range(20):
        pair = PairFn.from_coeff_vector(domain,
                                        rng.standard_normal(2 * domain.n_cheb))
        _, once = _normalized(pair)
        gamma, twice = _normalized(once)
        assert gamma == 0.0
        assert _bits(twice) == _bits(once)


def test_l_prime_rows_flags_failing_rows_and_keeps_the_others(domain):
    n = domain.n_cheb
    rng = np.random.default_rng(8)
    X = rng.standard_normal((5, 2 * n))
    X[1] = 0.0
    # u = v vanishing at every point of the default section scan
    scan = (0.0, 0.25, -0.25, 0.5, -0.5)
    c = cheb.chebfromroots([x0 / domain.half_width for x0 in scan])
    X[3, :c.size] = X[3, n:n + c.size] = c
    X[3, c.size:n] = X[3, n + c.size:] = 0.0
    H = _mode_rows(X)
    # identity images: each row lands as gamma_normalize puts mode 1
    Y, errors = land_rows(H, row_norms(H), domain)
    assert isinstance(errors[1], DegenerateScalingError)
    assert isinstance(errors[3], DegeneratePointError)
    for j in (1, 3):
        assert not np.any(Y[j])
    for j in (0, 2, 4):
        assert errors[j] is None
        _, want = gamma_normalize(PairFn.from_coeff_vector(domain,
                                                           X[j]).embed(1))
        assert Y[j].tobytes() == want.modes[1].tobytes()
    with pytest.raises(DegeneratePointError):
        _normalized(PairFn.from_coeff_vector(domain, X[3]))
    # images numerically zero under a scaled matrix, though large enough
    # for the section scan to place them: the scaling error wins
    Z = 1e4 * H[[0, 2]]
    W = 1e-15 * Z
    _, sec_errors = section_gammas(W, domain)
    assert sec_errors == [None, None]
    Y, errors = land_rows(W, row_norms(Z), domain)
    assert all(isinstance(e, DegenerateScalingError) for e in errors)
    assert not np.any(Y)


def test_section_gammas_of_a_block_is_the_per_row_result_bit_for_bit(domain):
    rng = np.random.default_rng(12)
    n = domain.n_cheb
    X = rng.standard_normal((9, 2 * n))
    X[4] = 0.0
    # u = v = T_1(x / L) vanishes at x0 = 0: the scan moves on for row 6
    X[6] = 0.0
    X[6, 1] = X[6, n + 1] = 1.0
    X = _mode_rows(X)
    for section in (SectionConfig(), SectionConfig(theta0=0.25, x0=0.3)):
        gamma0, errors = section_gammas(X, domain, section)
        for j in range(X.shape[0]):
            g, e = section_gammas(X[j:j + 1], domain, section)
            assert g[0] == gamma0[j]
            assert type(e[0]) is type(errors[j])
    assert isinstance(errors[4], NoSectionError)


def test_section_gammas_read_theta0_modulo_one(domain):
    # the section is periodic in theta0; unreduced, 1e300 would swallow the
    # arctan term and 7.25 would round it differently from 0.25
    X = _mode_rows(np.random.default_rng(5).standard_normal(
        (6, 2 * domain.n_cheb)))
    for theta0, reduced in ((7.25, 0.25), (1e300, 0.0)):
        want, _ = section_gammas(X, domain, SectionConfig(theta0=reduced))
        got, _ = section_gammas(X, domain, SectionConfig(theta0=theta0))
        assert got.tobytes() == want.tobytes()
