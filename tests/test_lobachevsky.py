import math

import numpy as np
import pytest

from landreg._dd import DDArray
from landreg.lobachevsky import (LobachevskySpline, _recurrence,
                                 eval_fn_explicit, eval_fn_recurrence,
                                 eval_fn_star, eval_spline)


def simpson(values, spacing):
    n = len(values) - 1
    assert n % 2 == 0
    return spacing / 3.0 * (values[0] + values[-1]
                            + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum())


def normal_pdf(x):
    return np.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)


def test_box_base_case_is_half_open():
    for f in (eval_fn_explicit, eval_fn_recurrence):
        assert f(1, 0.5, 0.0) == 1.0
        assert f(1, 0.5, -0.5) == 1.0   # left edge included
        assert f(1, 0.5, 0.5) == 0.0    # right edge excluded
        assert f(1, 0.5, 0.7) == 0.0


def test_low_order_values():
    # triangle peak: convolving two unit-width boxes gives 1/(2a) at 0
    assert eval_fn_explicit(2, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert eval_fn_recurrence(2, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)
    # triangle is piecewise linear: f_2(x) = (2a - |x|) / (2a)^2
    assert eval_fn_recurrence(2, 1.0, 1.2) == pytest.approx(0.8 / 4.0, rel=1e-13)
    assert eval_fn_explicit(2, 1.0, -1.2) == pytest.approx(0.8 / 4.0, rel=1e-13)


def test_support_boundary_is_exact_zero():
    for n in (2, 4, 6):
        for a in (0.5, 1.0):
            for x in (n * a, -n * a, n * a + 0.3, -(n * a + 7.0)):
                assert eval_fn_explicit(n, a, x) == 0.0
                assert eval_fn_recurrence(n, a, x) == 0.0


def test_explicit_equals_recurrence():
    rng = np.random.RandomState(42)
    for n in range(2, 9):
        for a in (0.5, 1.0, 2.0):
            xs = rng.uniform(-n * a - 1.0, n * a + 1.0, 1000)
            explicit = eval_fn_explicit(n, a, xs)
            recurrence = eval_fn_recurrence(n, a, xs)
            tol = 1e-12 * np.maximum(1.0, np.abs(recurrence))
            assert (np.abs(explicit - recurrence) <= tol).all(), (n, a)
    assert eval_fn_recurrence(6, 0.5, 0.37) == pytest.approx(
        eval_fn_explicit(6, 0.5, 0.37), abs=1e-12)


def test_recurrence_matches_explicit_at_knots():
    # the knots are the multiples of a; where k * a rounds in float64 (a = 0.3)
    # a knot must still fall in exactly one half-open base box
    assert eval_fn_recurrence(4, 0.3, -0.6) == pytest.approx(1.0 / (12 * 0.3), rel=1e-14)
    for n in range(2, 9):
        for a in (0.1, 0.2, 0.3, 1.0 / 3.0, 0.35, 0.7, 1.1):
            knots = np.arange(-n, n + 1) * a
            recurrence = eval_fn_recurrence(n, a, knots)
            assert np.allclose(recurrence, eval_fn_explicit(n, a, knots),
                               rtol=1e-13, atol=0), (n, a)
            # the double-double rung runs the same recurrence; it resolves the
            # outer knots, which round to just inside the support, to ~1e-32
            dd = _recurrence(n, a, DDArray(knots), DDArray(1.0)).to_float()
            assert np.allclose(dd, recurrence, rtol=1e-13,
                               atol=1e-15 * recurrence.max()), (n, a)


def test_density_integrates_to_one():
    panels = 10 ** 4
    for n in (2, 4, 6, 8):
        a = 0.75
        xs = np.linspace(-n * a, n * a, panels + 1)
        values = eval_fn_recurrence(n, a, xs)
        assert simpson(values, xs[1] - xs[0]) == pytest.approx(1.0, abs=1e-8)


def test_even_symmetry_is_bit_exact():
    rng = np.random.RandomState(3)
    for n in (2, 3, 5, 8):
        xs = rng.uniform(-n - 1, n + 1, 400)
        left = eval_fn_recurrence(n, 1.0, xs)
        right = eval_fn_recurrence(n, 1.0, -xs)
        assert np.array_equal(left, right)


def test_star_support_and_peak():
    assert eval_fn_star(4, math.sqrt(12.0)) == 0.0
    assert eval_fn_star(4, -math.sqrt(12.0)) == 0.0
    assert abs(eval_fn_star(4, 0.0) - 1.0 / math.sqrt(2.0 * math.pi)) < 0.05
    expected = math.sqrt(2.0 / 3.0) * 0.5
    assert eval_fn_star(2, 0.0) == pytest.approx(expected, rel=1e-13)


def test_star_matches_scaling_relation():
    # f*_n(x) = a sqrt(n/3) f_n(a sqrt(n/3) x) for every a
    xs = np.linspace(-3.0, 3.0, 41)
    for n in (2, 4, 6):
        star = eval_fn_star(n, xs)
        for a in (0.5, 2.0):
            s = a * math.sqrt(n / 3.0)
            assert np.allclose(star, s * eval_fn_recurrence(n, a, s * xs), atol=1e-14)


def test_normal_limit_sup_gap_decreases():
    grid = np.linspace(-4.0, 4.0, 201)
    pdf = normal_pdf(grid)
    gaps = [np.abs(eval_fn_star(n, grid) - pdf).max() for n in (4, 8, 16, 32)]
    assert all(gaps[i + 1] < gaps[i] for i in range(3)), gaps


def test_derivative_limit():
    grid = np.linspace(-4.0, 4.0, 201)
    pdf_prime = -grid * normal_pdf(grid)
    step = 1e-5

    def derivative_gap(n):
        d = (eval_fn_star(n, grid + step) - eval_fn_star(n, grid - step)) / (2 * step)
        return np.abs(d - pdf_prime).max()

    assert derivative_gap(32) < derivative_gap(4)


def test_knot_smoothness():
    # f_n is C^(n-2): difference quotients up to that order settle down
    # across a knot as the step halves
    n, a = 4, 0.5
    knot = 2 * a  # interior knot (knots sit at spacing 2a)
    for q in (1, 2):
        quotients = []
        for step in (1e-2, 5e-3, 2.5e-3):
            total = 0.0
            for k in range(q + 1):
                total += ((-1) ** k * math.comb(q, k)
                          * eval_fn_recurrence(n, a, knot + (q / 2 - k) * step))
            quotients.append(total / step ** q)
        first, second = abs(quotients[1] - quotients[0]), abs(quotients[2] - quotients[1])
        assert second < first


def test_recurrence_handles_large_orders():
    value = eval_fn_star(32, 0.0)
    assert np.isfinite(value) and value > 0.3
    value = eval_fn_recurrence(64, 1.0, 0.0)
    assert np.isfinite(value) and value > 0.0


def test_domain_and_overflow_guards():
    with pytest.raises(ValueError):
        eval_fn_explicit(0, 1.0, 0.0)
    with pytest.raises(ValueError):
        eval_fn_explicit(2, 0.0, 0.0)
    with pytest.raises(ValueError):
        eval_fn_explicit(2, -1.0, 0.0)
    with pytest.raises(ValueError):
        eval_fn_explicit(21, 1.0, 0.0)   # alternating sum overflows
    assert eval_fn_recurrence(21, 1.0, 0.0) > 0.0
    with pytest.raises(ValueError):
        eval_fn_recurrence(65, 1.0, 0.0)


def test_spline_spec_and_support():
    assert LobachevskySpline(4, a=1.0).support() == (-4.0, 4.0)
    lo, hi = LobachevskySpline(6, alpha=1.0).support()
    assert hi == pytest.approx(math.sqrt(18.0), rel=1e-15) and lo == -hi
    lo, hi = LobachevskySpline(4, alpha=2.0).support()
    assert hi == pytest.approx(math.sqrt(12.0) / 2.0, rel=1e-15)
    with pytest.raises(ValueError):
        LobachevskySpline(4)
    with pytest.raises(ValueError):
        LobachevskySpline(4, a=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        LobachevskySpline(0, a=1.0)
    with pytest.raises(ValueError):
        LobachevskySpline(4, alpha=-1.0)


def test_spline_evaluation_paths():
    xs = np.linspace(-5.0, 5.0, 33)
    by_a = eval_spline(LobachevskySpline(4, a=0.8), xs)
    assert np.array_equal(by_a, eval_fn_recurrence(4, 0.8, xs))
    by_alpha = eval_spline(LobachevskySpline(4, alpha=1.5), xs)
    assert np.allclose(by_alpha, eval_fn_star(4, 1.5 * xs), atol=0)
