"""Property tests of the double-double arithmetic behind the top solver rung.

Exact references come from fractions.Fraction; exp, log and sqrt are checked
against 40-digit mpmath.  Operands stay between 2^-300 and 2^300 (sqrt: 1e-280
to 1e300), where the low word of every result and intermediate is a normal
float64; below about 2^-969 it is subnormal and carries fewer digits.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landreg._dd import DDArray, _tree_sum, binary_power, two_prod, two_sum
from landreg.kernels import (Gaussian, GeneralizedMultiquadric, ThinPlateSpline, WendlandRadial,
                             _radial)
from landreg.transform import _Problem

REL_ARITH = 2.0 ** -100
REL_FUNC = 1e-30

scaled = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
                   st.integers(-300, 300))
doubles = st.one_of(st.just(0.0), scaled, scaled.map(lambda v: -v))


@st.composite
def dd_numbers(draw):
    """A normalized double-double with a nonzero low word where possible."""
    hi = draw(doubles)
    lo = hi * draw(st.floats(-1.0, 1.0)) * 2.0 ** -53
    s, e = two_sum(hi, lo)
    return s, e


def exact(hi, lo):
    return Fraction(float(hi)) + Fraction(float(lo))


def rel_err(got: DDArray, want: Fraction) -> float:
    err = exact(got.hi, got.lo) - want
    return float(abs(err) / abs(want)) if want else float(abs(err))


@settings(max_examples=300, deadline=None)
@given(doubles, doubles)
def test_two_sum_is_exact(a, b):
    s, e = two_sum(a, b)
    assert s == a + b
    assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


@settings(max_examples=300, deadline=None)
@given(doubles, doubles)
def test_two_prod_is_exact(a, b):
    p, e = two_prod(a, b)
    assert p == a * b
    assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


@settings(max_examples=300, deadline=None)
@given(dd_numbers(), dd_numbers())
def test_add_mul_div_relative_error(a, b):
    x, y = DDArray(*a), DDArray(*b)
    fa, fb = exact(*a), exact(*b)
    assert rel_err(x + y, fa + fb) <= REL_ARITH
    assert rel_err(x - y, fa - fb) <= REL_ARITH
    assert rel_err(x * y, fa * fb) <= REL_ARITH
    if fb:
        assert rel_err(x / y, fa / fb) <= REL_ARITH


def mp_value(d: DDArray):
    return mp.mpf(float(d.hi)) + mp.mpf(float(d.lo))


def check_function(got: DDArray, want, floor=0.0):
    err = abs(mp_value(got) - want)
    assert err <= REL_FUNC * abs(want) + floor, (got, want)


@settings(max_examples=300, deadline=None)
@given(st.floats(-745.0, 0.0))
def test_exp_matches_mpmath(a):
    with mp.workdps(40):
        # below 2^-969 the result's low word is subnormal: allow its spacing
        check_function(np.exp(DDArray(a)), mp.exp(mp.mpf(a)), floor=2.0 ** -1074)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1e3, exclude_min=True))
def test_log_matches_mpmath(a):
    with mp.workdps(40):
        check_function(np.log(DDArray(a)), mp.log(mp.mpf(a)))


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-280, 1e300))
def test_sqrt_matches_mpmath(a):
    with mp.workdps(40):
        check_function(np.sqrt(DDArray(a)), mp.sqrt(mp.mpf(a)))


def test_functions_on_double_double_arguments():
    """Arguments with a nonzero low word, near the reduction boundaries."""
    rng = np.random.default_rng(3)
    hi = np.concatenate([rng.uniform(-40, 0, 50), 1 + rng.uniform(-1e-9, 1e-9, 50)])
    lo = hi * rng.uniform(-1, 1, hi.size) * 2.0 ** -53
    hi, lo = two_sum(hi, lo)
    x = DDArray(hi, lo)
    with mp.workdps(40):
        for k in range(50):
            check_function(np.exp(x[k]), mp.exp(mp_value(x[k])))
        for k in range(50, 100):
            check_function(np.log(x[k]), mp.log(mp_value(x[k])))
            check_function(np.sqrt(x[k]), mp.sqrt(mp_value(x[k])))


def test_special_values():
    with np.errstate(all="ignore"):
        assert float(np.exp(DDArray(-800.0))) == 0.0
        assert float(np.exp(DDArray(800.0))) == np.inf
        assert float(np.log(DDArray(0.0))) == -np.inf
        assert np.isnan(float(np.log(DDArray(-1.0))))
        assert float(np.sqrt(DDArray(0.0))) == 0.0


def test_tree_sum_and_matmul_match_exact_sums():
    rng = np.random.default_rng(5)
    a = DDArray(rng.standard_normal((7, 13)) * 10.0 ** rng.integers(-8, 8, (7, 13)))
    b = DDArray(rng.standard_normal((13, 3)))
    got = a @ b
    for i in range(7):
        for j in range(3):
            want = sum(exact(a.hi[i, k], a.lo[i, k]) * exact(b.hi[k, j], b.lo[k, j])
                       for k in range(13))
            scale = sum(abs(exact(a.hi[i, k], 0) * exact(b.hi[k, j], 0)) for k in range(13))
            assert abs(exact(got.hi[i, j], got.lo[i, j]) - want) <= 2.0 ** -100 * scale


@pytest.mark.parametrize("rhs_words", [1, 2], ids=["float-rhs", "dd-rhs"])
def test_batched_matmul_matches_each_matrix_product(rhs_words):
    """A stack of products carries the bits of each 2-D product, float or double-double b."""
    rng = np.random.default_rng(rhs_words)
    a = DDArray(rng.standard_normal((4, 5, 9))) / 3.0
    b = rng.standard_normal((4, 9, 2))
    b = DDArray(b) / 7.0 if rhs_words == 2 else b
    got = a @ b
    assert got.shape == (4, 5, 2)
    for i in range(4):
        want = a[i] @ b[i]
        assert np.array_equal(got.hi[i], want.hi) and np.array_equal(got.lo[i], want.lo)


def test_transpose_swaps_the_last_two_axes():
    a = DDArray(np.arange(24.0).reshape(2, 3, 4)) / 3.0
    t = a.T
    assert t.shape == (2, 4, 3)
    for i in range(2):
        assert np.array_equal(t.hi[i], a.hi[i].T) and np.array_equal(t.lo[i], a.lo[i].T)


@pytest.mark.parametrize("kernel", [Gaussian(1.3), ThinPlateSpline(), WendlandRadial(2, 1, 0.7),
                                    GeneralizedMultiquadric(0.5, 1),
                                    GeneralizedMultiquadric(0.5, -1)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_radial_kernel_rows_sum_the_axes_like_a_tree_sum(kernel, m):
    """Squared distances added axis by axis carry the bits of a pairwise sum over the axes."""
    rng = np.random.default_rng(m)
    x = DDArray(rng.uniform(-1, 1, (9, m)), rng.uniform(-1, 1, (9, m)) * 2.0 ** -60)
    centers = rng.uniform(-1, 1, (7, m))
    diff = x[:, None, :] - DDArray(centers)[None, :, :]
    diff = diff * diff
    want = _radial(kernel, np.sqrt(DDArray(*_tree_sum(diff.hi, diff.lo, -1))))
    problem = _Problem(kernel, centers, None)
    for got in (problem.kernel_rows(x), problem.eval_rows(x)):
        assert np.array_equal(got.hi, want.hi) and np.array_equal(got.lo, want.lo)


def plain_binary_power(x, k):
    """Binary powering with a new array for every product: the reference for binary_power."""
    result, base = None, x
    while True:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if not k:
            return result
        base = base * base


@pytest.mark.parametrize("k", range(1, 13))
def test_binary_power_keeps_its_operand_and_the_bits_of_new_products(k):
    rng = np.random.default_rng(k)
    hi = rng.uniform(0.0, 1.5, 200)
    x = hi.astype(np.longdouble) + hi * 2.0 ** -60
    kept = x.copy()
    got = binary_power(x, k)
    assert got.dtype == np.longdouble and np.array_equal(got, plain_binary_power(kept, k))
    assert np.array_equal(x, kept) and (got is x) == (k == 1)
    dd, dd_kept = DDArray(hi, hi * 2.0 ** -60), DDArray(hi, hi * 2.0 ** -60)
    got, want = dd ** k, plain_binary_power(dd_kept, k)
    assert np.array_equal(got.hi, want.hi) and np.array_equal(got.lo, want.lo)
    assert np.array_equal(dd.hi, dd_kept.hi) and np.array_equal(dd.lo, dd_kept.lo)
