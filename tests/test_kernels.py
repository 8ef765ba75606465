import math

import numpy as np
import pytest

from landreg._dd import DDArray
from landreg.kernels import (Gaussian, GeneralizedMultiquadric, KernelError,
                             ThinPlateSpline, Wendland1D, WendlandRadial,
                             _wendland_poly, _wendland_value, eval_radial,
                             eval_univariate, polynomial_tail_degree,
                             support_radius)
from landreg.lobachevsky import LobachevskySpline

WENDLAND_PAIRS = [(m, h) for m in (1, 2, 3) for h in (0, 1, 2, 3)]


def central_difference(f, x0, order, step):
    """Central finite difference quotient of the given order."""
    total = 0.0
    for k in range(order + 1):
        total += (-1) ** k * math.comb(order, k) * f(x0 + (order / 2 - k) * step)
    return total / step ** order


def test_tps_values():
    tps = ThinPlateSpline()
    assert eval_radial(tps, 1.0) == 0.0
    assert eval_radial(tps, 0.0) == 0.0
    # r^2 log r against direct evaluation
    assert np.isclose(eval_radial(tps, 2.0), 4.0 * math.log(2.0), rtol=1e-14)


def test_tps_continuity_at_zero():
    assert abs(eval_radial(ThinPlateSpline(), 1e-8)) < 1e-14


def test_gaussian_values():
    g = Gaussian(1.0)
    assert eval_radial(g, 0.0) == 1.0
    assert np.isclose(eval_radial(g, 1.0), 0.36787944117, atol=1e-11)
    g2 = Gaussian(2.0)
    assert np.isclose(eval_radial(g2, 0.5), math.exp(-1.0), rtol=1e-14)


def test_gaussian_strictly_decreasing():
    values = eval_radial(Gaussian(0.7), np.linspace(0.0, 3.0, 200))
    assert (np.diff(values) < 0).all()


def test_wendland_radial_values():
    k = WendlandRadial(2, 1, 1.0)
    assert eval_radial(k, 0.5) == pytest.approx(0.1875, abs=1e-15)
    assert eval_radial(k, 1.2) == 0.0
    assert eval_radial(k, 0.0) == 1.0


def test_wendland_zero_outside_support_is_exact():
    for m, h in WENDLAND_PAIRS:
        for c in (0.5, 1.0, 2.0):
            k = WendlandRadial(m, h, c)
            rs = np.array([1.0 / c, 1.0 / c + 1e-12, 2.0 / c, 100.0])
            assert (eval_radial(k, rs) == 0.0).all()
    for h in (0, 1, 2, 3):
        k1 = Wendland1D(h, 2.0)
        assert (eval_univariate(k1, np.array([0.5, -0.5, 3.0])) == 0.0).all()


def test_univariate_values_and_evenness():
    k = Wendland1D(1, 1.0)
    assert eval_univariate(k, 0.0) == 1.0
    assert eval_univariate(k, 0.5) == pytest.approx(0.3125, abs=1e-15)
    assert eval_univariate(k, -0.5) == eval_univariate(k, 0.5)
    rng = np.random.RandomState(7)
    xs = rng.uniform(-2, 2, 500)
    for h in (0, 1, 2, 3):
        k = Wendland1D(h, 0.8)
        assert np.array_equal(eval_univariate(k, xs), eval_univariate(k, -xs))


def test_univariate_matches_radial_m1_exactly():
    xs = np.linspace(-3.0, 3.0, 601)
    for h in (0, 1, 2, 3):
        for c in (0.4, 1.0):
            uni = eval_univariate(Wendland1D(h, c), xs)
            rad = eval_radial(WendlandRadial(1, h, c), np.abs(xs))
            assert np.array_equal(uni, rad)


def test_m3_shares_m2_polynomials():
    rs = np.linspace(0.0, 1.5, 100)
    for h in (0, 1, 2, 3):
        v3 = eval_radial(WendlandRadial(3, h, 1.0), rs)
        v2 = eval_radial(WendlandRadial(2, h, 1.0), rs)
        assert np.array_equal(v3, v2)


def test_boundary_smoothness_finite_differences():
    # phi is C^(2h): difference quotients of order q <= 2h vanish at the
    # support boundary as the step shrinks
    steps = (1e-2, 1e-3, 1e-4)
    for m, h in WENDLAND_PAIRS:
        c = 1.0
        k = WendlandRadial(m, h, c)
        f = lambda r: eval_radial(k, max(r, 0.0))
        if h == 0:
            assert f(1.0 / c) == 0.0
            continue
        for q in range(1, 2 * h + 1):
            values = [abs(central_difference(f, 1.0 / c, q, s)) for s in steps]
            assert values[1] <= 0.5 * values[0] + 1e-12, (m, h, q, values)
            assert values[2] <= 0.5 * values[1] + 1e-12, (m, h, q, values)


def test_polynomial_tail_degrees():
    assert polynomial_tail_degree(Gaussian(1.0)) is None
    assert polynomial_tail_degree(ThinPlateSpline()) == 1
    assert polynomial_tail_degree(GeneralizedMultiquadric(1.0, 1)) == 0
    assert polynomial_tail_degree(GeneralizedMultiquadric(1.0, 3)) == 2
    assert polynomial_tail_degree(GeneralizedMultiquadric(1.0, -1)) is None
    assert polynomial_tail_degree(GeneralizedMultiquadric(1.0, -2)) is None
    assert polynomial_tail_degree(WendlandRadial(2, 1, 1.0)) is None
    assert polynomial_tail_degree(Wendland1D(1, 1.0)) is None
    assert polynomial_tail_degree(LobachevskySpline(4, alpha=1.0)) is None


def test_generalized_multiquadric_values():
    imq = GeneralizedMultiquadric(1.0, -1)
    assert np.isclose(eval_radial(imq, 1.0), 1.0 / math.sqrt(2.0), rtol=1e-14)
    mq = GeneralizedMultiquadric(2.0, 1)
    assert np.isclose(eval_radial(mq, 1.0), math.sqrt(5.0), rtol=1e-14)


def test_support_radius():
    assert support_radius(WendlandRadial(2, 1, 0.5)) == 2.0
    assert support_radius(WendlandRadial(2, 1, 2.0)) == 0.5
    assert support_radius(Wendland1D(1, 4.0)) == 0.25
    assert support_radius(Gaussian(1.0)) == np.inf
    assert support_radius(ThinPlateSpline()) == np.inf
    assert support_radius(GeneralizedMultiquadric(1.0, -1)) == np.inf
    assert support_radius(LobachevskySpline(4, a=0.5)) == 2.0
    assert support_radius(LobachevskySpline(6, alpha=2.0)) == math.sqrt(18.0) / 2.0


def test_negative_distance_rejected():
    with pytest.raises(ValueError):
        eval_radial(Gaussian(1.0), -0.1)
    with pytest.raises(ValueError):
        eval_radial(ThinPlateSpline(), np.array([0.5, -1e-9]))
    with pytest.raises(ValueError):            # a NaN hides no negative entry
        eval_radial(ThinPlateSpline(), np.array([np.nan, -1.0]))


def test_nan_and_empty_distances_pass_the_sign_check():
    tps = ThinPlateSpline()
    assert np.array_equal(eval_radial(tps, np.array([np.nan, 1.0])), [0.0, 0.0])
    assert np.isnan(eval_radial(Gaussian(1.0), np.array([np.nan]))).all()
    for shape in ((0,), (0, 3), (2, 0)):
        assert eval_radial(tps, np.empty(shape)).shape == shape


def test_tps_at_zero_is_positive_zero():
    tps = ThinPlateSpline()
    zero = eval_radial(tps, 0.0)
    assert isinstance(zero, float) and zero == 0.0 and math.copysign(1.0, zero) == 1.0
    r = np.array([[0.0, 0.5], [2.0, 0.0]])
    want = np.array([[0.0, 0.25 * math.log(0.5)], [4.0 * math.log(2.0), 0.0]])
    values = eval_radial(tps, r.copy())
    assert np.array_equal(values, want) and not np.signbit(values).any(where=want == 0)
    # with a workspace, the values are built in it and r serves as scratch
    work = np.full_like(r, np.nan)
    values = eval_radial(tps, r.copy(), work)
    assert values is work and np.array_equal(values, want)
    assert not np.signbit(values).any(where=want == 0)


def test_invalid_configurations_rejected():
    with pytest.raises(KernelError):
        Gaussian(0.0)
    with pytest.raises(KernelError):
        Gaussian(-1.0)
    with pytest.raises(KernelError):
        WendlandRadial(4, 1, 1.0)
    with pytest.raises(KernelError):
        WendlandRadial(2, 4, 1.0)
    with pytest.raises(KernelError):
        WendlandRadial(2, 1, 0.0)
    with pytest.raises(KernelError):
        Wendland1D(5, 1.0)
    with pytest.raises(KernelError):
        GeneralizedMultiquadric(0.0, 1)
    with pytest.raises(KernelError):
        GeneralizedMultiquadric(1.0, 0)
    with pytest.raises(KernelError):
        GeneralizedMultiquadric(1.0, 2)  # even positive exponent unsupported


@pytest.mark.parametrize("make", [
    Gaussian,
    lambda v: WendlandRadial(2, 1, v),
    lambda v: Wendland1D(1, v),
    lambda v: GeneralizedMultiquadric(v, -1),
    lambda v: LobachevskySpline(4, alpha=v),
    lambda v: LobachevskySpline(4, a=v),
])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_shape_parameters_rejected(make, value):
    with pytest.raises(ValueError, match="positive and finite"):
        make(value)


@pytest.mark.parametrize("make, error", [
    (Gaussian, KernelError),
    (lambda v: WendlandRadial(2, 1, v), KernelError),
    (lambda v: Wendland1D(1, v), KernelError),
    (lambda v: GeneralizedMultiquadric(v, 1), KernelError),
    (lambda v: LobachevskySpline(4, alpha=v), ValueError),
    (lambda v: LobachevskySpline(4, a=v), ValueError),
])
@pytest.mark.parametrize("value", ["1", 1 + 0j, [0.3], True, np.bool_(True)])
def test_shape_parameters_that_are_not_real_numbers_rejected(make, error, value):
    with pytest.raises(error, match="positive and finite"):
        make(value)
    make(np.float64(0.5)), make(np.int64(1)), make(1)        # real numbers of any type pass


def test_bool_orders_and_exponents_rejected():
    with pytest.raises(ValueError, match="order n must be an integer"):
        LobachevskySpline(True, alpha=1.0)
    with pytest.raises(KernelError, match="mu must be a nonzero integer"):
        GeneralizedMultiquadric(1.0, True)
    assert LobachevskySpline(np.int64(2), alpha=1.0).n == 2
    assert GeneralizedMultiquadric(1.0, np.int32(-1)).mu == -1


@pytest.mark.parametrize("make", [
    lambda v: WendlandRadial(v, 1, 0.5),
    lambda v: WendlandRadial(2, v, 0.5),
    lambda v: Wendland1D(v, 0.5),
])
@pytest.mark.parametrize("value", [True, np.bool_(True), 1.0, np.float64(2.0), "1", [1]])
def test_wendland_indices_that_are_not_integers_rejected(make, value):
    with pytest.raises(KernelError, match="must be an integer"):
        make(value)
    make(1), make(np.int64(2)), make(np.int32(1))          # integers of any type pass


@pytest.mark.parametrize("make", [Gaussian, lambda v: GeneralizedMultiquadric(v, -1)])
def test_shape_parameters_whose_square_overflows_rejected(make):
    with pytest.raises(KernelError, match="positive and finite"):
        make(1e200)
    make(1e150)                             # its square, 1e300, is finite


def _unclamped_wendland(group, h, u):
    """The Wendland value with the polynomial evaluated on every u."""
    zero = np.zeros((), dtype=u.dtype) if isinstance(u, np.ndarray) else 0.0
    return np.where(u < 1.0, _wendland_poly(group, h, u), zero)


def _same_bits(got, want):
    return (np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


@pytest.mark.parametrize("group, h", [(g, h) for g in (1, 2) for h in (0, 1, 2, 3)])
def test_wendland_support_clamp_keeps_the_bits(group, h):
    rng = np.random.default_rng(10 * group + h)
    u = np.concatenate([np.linspace(0.0, 30.0, 3001)[:-1], rng.uniform(0.0, 30.0, 1000),
                        [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]])
    special = np.array([np.inf, np.nan])
    for values in (u, u[u < 1.0], np.concatenate([u, special])):    # mixed, inside, inf and NaN
        for array in (values, values.astype(np.longdouble)):
            got = _wendland_value(group, h, 1.0, array)
            assert got.dtype == array.dtype
            assert _same_bits(got, _unclamped_wendland(group, h, array))
    for values in (u, u[u < 1.0]):
        lo = np.where(values > 0, values * 2.0 ** -60, 0.0) * rng.choice([-1.0, 1.0], len(values))
        dd = DDArray(values, lo)
        got, want = _wendland_value(group, h, 1.0, dd), _unclamped_wendland(group, h, dd)
        assert isinstance(got, DDArray)
        assert _same_bits(got.hi, want.hi) and _same_bits(got.lo, want.lo)


# each formula as a plain expression: the in-place evaluation must give its bits
PLAIN = {
    Gaussian: lambda k, r: np.exp(-(k.alpha * k.alpha) * r * r),
    ThinPlateSpline: lambda k, r: np.where(r > 0, r * r * np.log(r), 0.0),
    GeneralizedMultiquadric: lambda k, r: (r * r + k.gamma * k.gamma) ** (k.mu / 2.0),
    WendlandRadial: lambda k, r: _unclamped_wendland(1 if k.m == 1 else 2, k.h, k.c * r),
}


@pytest.mark.parametrize("kernel", [Gaussian(0.7), ThinPlateSpline(), WendlandRadial(2, 1, 0.8),
                                    WendlandRadial(1, 3, 0.3)]
                         + [GeneralizedMultiquadric(0.7, mu) for mu in (-3, -1, 1, 3, 5)])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_in_place_formulas_keep_the_bits_of_the_plain_expressions(kernel, dtype):
    rng = np.random.default_rng(4)
    r = np.concatenate([rng.uniform(0.0, 5.0, 2000),
                        [0.0, 1.0, 1e-200, 5e-324, 1e160, np.inf, np.nan]]).astype(dtype)
    with np.errstate(all="ignore"):
        want = PLAIN[type(kernel)](kernel, r)
        for work in (None, np.full_like(r, np.nan)):
            got = eval_radial(kernel, r.copy(), work)
            assert got.dtype == dtype and _same_bits(got, want)
        kept = r.copy()
        eval_radial(kernel, kept)
    assert _same_bits(kept, r)              # without work, r is left as it was


def _clamped_wendland(group, h, u):
    """The Wendland value with every u >= 1 (or NaN) clamped to 1 before the polynomial."""
    u = u.copy()
    u[~(u < 1.0)] = 1.0
    return _wendland_poly(group, h, u)


@pytest.mark.parametrize("m, h", [(1, 3), (2, 0), (2, 1), (3, 2)])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_wendland_values_outside_the_support_are_the_clamped_formulas_zeros(m, h, dtype):
    rng = np.random.default_rng(m + 4 * h)
    edge = [0.0, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.5, 1e300, np.inf]
    mixed = rng.permutation(np.concatenate([edge * 50, rng.uniform(0.0, 3.0, 650)]))
    outside = np.concatenate([[1.0, 1.5, 1e300, np.inf, np.nan], rng.uniform(1.0, 9.0, 200)])
    kernel, group = WendlandRadial(m, h, 0.5), 1 if m == 1 else 2
    for u in (mixed.reshape(25, 40), outside):
        u = u.astype(dtype)
        r = u / dtype(0.5)          # exact: u = 0.5 r
        want = _clamped_wendland(group, h, u)
        for work in (None, np.full_like(r, np.nan)):
            got = eval_radial(kernel, r.copy(), work)
            assert got.dtype == dtype and got.shape == u.shape and _same_bits(got, want)
        got = _wendland_value(1, h, 1.0, u.copy())
        assert _same_bits(got, _clamped_wendland(1, h, u))
    assert not np.signbit(got).any() and not got.any()      # all +0.0 outside


def test_scalar_and_array_shapes():
    k = WendlandRadial(2, 1, 1.0)
    assert isinstance(eval_radial(k, 0.5), float)
    out = eval_radial(k, np.array([[0.0, 0.5], [1.5, 2.0]]))
    assert out.shape == (2, 2)
    assert out[1, 0] == 0.0
