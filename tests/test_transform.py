import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landreg.bench import CaseSpec, build_method, gen_case
from landreg.kernels import (Gaussian, ThinPlateSpline, Wendland1D,
                             WendlandRadial, polynomial_tail_degree)
from landreg.landmarks import LandmarkSet
from landreg.lobachevsky import LobachevskySpline
from landreg.transform import (SolveError, TensorProductTransform, _Problem,
                               monomial_exponents, monomial_matrix,
                               solve_transform)


def grid_landmarks(n_side=4, lo=0.1, hi=0.9):
    xs = np.linspace(lo, hi, n_side)
    src = np.array([(x, y) for y in xs for x in xs])
    return src


def saddle_matrix(kernel, landmarks):
    """The float64 system a radial solve factors: [[M, Q], [Q^T, 0]], or M."""
    problem = _Problem(kernel, landmarks.sources, polynomial_tail_degree(kernel))
    return problem.build(float)


# ---------------------------------------------------------------------------
# landmark sets

def test_landmark_set_basics():
    lm = LandmarkSet([[0.0, 0.0], [1.0, 1.0]], [[0.1, 0.0], [1.0, 1.0]],
                     [False, True])
    assert lm.n == 2 and lm.dimension == 2 and len(lm) == 2
    sub = lm.subset([1])
    assert sub.n == 1 and sub.quasi[0]


def test_landmarks_near_the_float_limit_build_without_overflow_warnings():
    """A squared distance that overflows is +inf: apart, and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert LandmarkSet([[-1e300, 0.0], [1e300, 0.5]], [[0.0, 0.0], [1.0, 1.0]]).n == 2
        with pytest.raises(ValueError, match="landmarks 1 and 2 coincide"):
            LandmarkSet([[-1e300, 0.0], [1e300, 0.5], [1e300, 0.5]], np.zeros((3, 2)))


def test_landmark_set_rejects_bad_input():
    with pytest.raises(ValueError):
        LandmarkSet([[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        LandmarkSet([[0.0, 0.0]], [[np.nan, 0.0]])
    with pytest.raises(ValueError):  # quasi must have source == target
        LandmarkSet([[0.0, 0.0]], [[0.1, 0.0]], [True])
    with pytest.raises(ValueError):  # dimension > 3
        LandmarkSet([[0.0] * 4], [[0.0] * 4])
    with pytest.raises(ValueError):  # shape mismatch
        LandmarkSet([[0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]])


def test_landmark_arrays_are_immutable():
    lm = LandmarkSet([[0.0, 0.0], [1.0, 1.0]], [[0.1, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        lm.sources[0, 0] = 5.0


# ---------------------------------------------------------------------------
# assembly

def test_assemble_gaussian_1d():
    lm = LandmarkSet([[0.0]], [[1.0]])
    assert np.array_equal(saddle_matrix(Gaussian(1.0), lm), [[1.0]])  # no tail block
    lm2 = LandmarkSet([[0.0], [1.0]], [[1.0], [0.0]])
    system2 = saddle_matrix(Gaussian(1.0), lm2)
    e1 = math.exp(-1.0)
    assert np.allclose(system2, [[1.0, e1], [e1, 1.0]], atol=1e-16)


def test_assemble_tps_poly_block():
    src = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.7]])
    lm = LandmarkSet(src, src)
    full = saddle_matrix(ThinPlateSpline(), lm)
    assert full.shape == (7, 7)
    poly_matrix = full[:4, 4:]
    assert np.array_equal(poly_matrix[:, 0], np.ones(4))
    assert np.array_equal(poly_matrix[:, 1:], src)
    assert np.array_equal(full[4:, 4:], np.zeros((3, 3)))
    assert np.array_equal(full, full.T)


def test_monomial_ordering():
    assert monomial_exponents(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    pts = np.array([[2.0, 3.0]])
    assert np.array_equal(monomial_matrix(pts, 2), [[1.0, 2.0, 3.0, 4.0, 6.0, 9.0]])


# ---------------------------------------------------------------------------
# global radial solves

def test_gaussian_two_point_coefficients():
    lm = LandmarkSet([[0.0], [1.0]], [[1.0], [0.0]])
    t = solve_transform(Gaussian(1.0), lm)
    e1, e2 = math.exp(-1.0), math.exp(-2.0)
    assert t.coef[0, 0] == pytest.approx(1.0 / (1.0 - e2), rel=1e-12)
    assert t.coef[1, 0] == pytest.approx(-e1 / (1.0 - e2), rel=1e-12)
    assert t.coef[0, 0] == pytest.approx(1.156518, abs=1e-6)
    assert t.coef[1, 0] == pytest.approx(-0.425459, abs=1e-6)
    assert t(np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-12)


def test_tps_identity_targets_reproduce_identity():
    src = grid_landmarks()
    lm = LandmarkSet(src, src)
    t = solve_transform(ThinPlateSpline(), lm)
    assert np.abs(t.coef).max() < 1e-10
    rng = np.random.RandomState(0)
    probes = rng.uniform(0, 1, (100, 2))
    assert np.abs(t(probes) - probes).max() < 1e-10


def test_tps_affine_reproduction_and_side_conditions():
    rng = np.random.RandomState(1)
    src = grid_landmarks()
    matrix = rng.uniform(-1, 1, (2, 2))
    offset = rng.uniform(-1, 1, 2)
    lm = LandmarkSet(src, src @ matrix.T + offset)
    t = solve_transform(ThinPlateSpline(), lm)
    probes = rng.uniform(0, 1, (100, 2))
    assert np.abs(t(probes) - (probes @ matrix.T + offset)).max() < 1e-8
    side = monomial_matrix(src, 1).T @ t.coef
    assert np.abs(side).max() <= 1e-10 * (1.0 + np.abs(t.coef).max())


def test_wendland_interpolation_conditions():
    src = grid_landmarks()
    lm = LandmarkSet(src, src)
    t = solve_transform(WendlandRadial(2, 1, 0.5), lm)
    assert np.abs(t(src) - src).max() < 1e-10
    assert t.residual < 1e-10


def test_interpolation_of_generic_targets():
    rng = np.random.RandomState(2)
    src = grid_landmarks()
    tgt = src + rng.uniform(-0.05, 0.05, src.shape)
    lm = LandmarkSet(src, tgt)
    for kernel in (Gaussian(1.2), ThinPlateSpline(), WendlandRadial(2, 2, 0.8)):
        t = solve_transform(kernel, lm)
        assert np.abs(t(src) - tgt).max() < 1e-9, kernel


def test_spd_kernels_admit_cholesky():
    src = grid_landmarks()
    lm = LandmarkSet(src, src)
    for kernel in (Gaussian(2.0), WendlandRadial(2, 1, 1.0)):
        np.linalg.cholesky(saddle_matrix(kernel, lm))  # raises if not SPD
    from landreg.transform import _tensor_matrix
    np.linalg.cholesky(_tensor_matrix(Wendland1D(1, 1.0), src, src))
    np.linalg.cholesky(_tensor_matrix(LobachevskySpline(4, alpha=1.0), src, src))


def test_wendland_small_support_gives_exact_matrix_zeros():
    src = grid_landmarks()  # bounding box edge 0.8
    lm = LandmarkSet(src, src)
    kernel_matrix = saddle_matrix(WendlandRadial(2, 1, 5.0), lm)  # support 0.2 < 0.4
    assert (kernel_matrix == 0.0).any()


def test_wendland_far_field_is_exact_zero():
    src = np.array([[0.45, 0.45], [0.55, 0.45], [0.45, 0.55], [0.55, 0.55]])
    lm = LandmarkSet(src, src + 0.01)
    t = solve_transform(WendlandRadial(2, 1, 10.0), lm)
    assert np.array_equal(t(np.array([0.0, 0.0])), [0.0, 0.0])


def test_evaluate_shapes():
    src = grid_landmarks()
    lm = LandmarkSet(src, src)
    t = solve_transform(Gaussian(1.0), lm)
    single = t(np.array([0.3, 0.7]))
    assert single.shape == (2,)
    batch = t(np.array([[0.3, 0.7], [0.1, 0.2]]))
    assert batch.shape == (2, 2)
    # batched and single evaluation may take different BLAS paths
    assert np.allclose(batch[0], single, rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# tensor products

def test_tensor_m1_matches_radial_m1():
    rng = np.random.RandomState(3)
    src = np.sort(rng.uniform(0, 1, 7))[:, None]
    tgt = src + rng.uniform(-0.1, 0.1, src.shape)
    lm = LandmarkSet(src, tgt)
    radial = solve_transform(WendlandRadial(1, 1, 1.5), lm)
    tensor = solve_transform(Wendland1D(1, 1.5), lm)
    assert isinstance(tensor, TensorProductTransform) and tensor.kind == "tensor-product"
    assert radial.kind == "global-radial"
    assert np.abs(radial.coef - tensor.coef).max() < 1e-12
    xs = rng.uniform(-0.2, 1.2, (50, 1))
    assert np.allclose(radial(xs), tensor(xs), atol=1e-12)


def test_lobachevsky_parameterizations_agree():
    # f*_n(alpha x) = (1/alpha) f_n(x; a) with a = sqrt(3/n)/alpha: both
    # parameterizations must produce the same transformation
    rng = np.random.RandomState(4)
    src = grid_landmarks()
    tgt = src + rng.uniform(-0.05, 0.05, src.shape)
    lm = LandmarkSet(src, tgt)
    n, alpha = 4, 1.3
    by_alpha = solve_transform(LobachevskySpline(n, alpha=alpha), lm)
    by_a = solve_transform(
        LobachevskySpline(n, a=math.sqrt(3.0 / n) / alpha), lm)
    probes = rng.uniform(0, 1, (100, 2))
    assert np.abs(by_alpha(probes) - by_a(probes)).max() < 1e-8
    # basis functions differ by an alpha^m factor, so coefficients rescale
    assert np.allclose(by_alpha.coef, by_a.coef * alpha ** 2, rtol=1e-6)


def test_tensor_identity_targets():
    src = grid_landmarks()
    lm = LandmarkSet(src, src)
    for kernel in (Wendland1D(1, 0.8), LobachevskySpline(4, alpha=1.0)):
        t = solve_transform(kernel, lm)
        assert np.abs(t(src) - src).max() < 1e-10


def test_tensor_matrix_is_translation_invariant():
    from landreg.transform import _tensor_matrix
    rng = np.random.RandomState(5)
    src = rng.uniform(0, 1, (9, 2))
    shift = np.array([0.37, -0.21])
    for kernel in (Wendland1D(1, 1.0), LobachevskySpline(4, alpha=1.2)):
        base = _tensor_matrix(kernel, src, src)
        moved = _tensor_matrix(kernel, src + shift, src + shift)
        # equality is exact in exact arithmetic; shifted coordinates round
        assert np.abs(base - moved).max() < 1e-12


def test_shifted_problem_interpolates_shifted_targets():
    rng = np.random.RandomState(6)
    src = grid_landmarks()
    tgt = src + rng.uniform(-0.05, 0.05, src.shape)
    shift = np.array([0.3, -0.4])
    t = solve_transform(Wendland1D(1, 0.8), LandmarkSet(src + shift, tgt + shift))
    assert np.abs(t(src + shift) - (tgt + shift)).max() < 1e-9


def test_odd_lobachevsky_order_rejected():
    src = grid_landmarks()
    lm = LandmarkSet(src, src)
    with pytest.raises(ValueError):
        solve_transform(LobachevskySpline(3, alpha=1.0), lm)


# ---------------------------------------------------------------------------
# conditioning and failure modes

def test_condition_estimate_trivial_cases():
    lm = LandmarkSet([[0.0]], [[0.5]])
    assert solve_transform(Gaussian(1.0), lm).condition == 1.0
    # landmarks 1 apart under a support of radius 0.2: the system is the identity
    src = np.arange(5.0)[:, None]
    eye_lm = LandmarkSet(src, src + 0.1)
    assert np.array_equal(saddle_matrix(WendlandRadial(2, 1, 5.0), eye_lm), np.eye(5))
    assert solve_transform(WendlandRadial(2, 1, 5.0), eye_lm).condition == pytest.approx(1.0)


def test_flat_gaussian_is_ill_conditioned_but_solvable():
    landmarks, _, _ = gen_case(CaseSpec("square-shift-32"))
    t = solve_transform(Gaussian(0.2), landmarks)
    cond_gauss = t.condition
    assert cond_gauss > 1e12
    assert t.ill_conditioned
    assert t.precision != "double"  # float64 cannot honor the conditions here
    assert np.abs(t(landmarks.sources) - landmarks.targets).max() <= 1e-6
    cond_wendland = solve_transform(WendlandRadial(2, 1, 0.5), landmarks).condition
    assert cond_gauss / cond_wendland >= 1e6


def test_collinear_sources_with_tps_raise():
    src = np.column_stack([np.linspace(0, 1, 5), np.zeros(5)])
    lm = LandmarkSet(src, src + [0.0, 0.1])
    with pytest.raises(SolveError):
        solve_transform(ThinPlateSpline(), lm)


def test_tail_larger_than_landmark_count_rejected():
    src = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    lm = LandmarkSet(src, src)
    with pytest.raises(ValueError):
        solve_transform(ThinPlateSpline(), lm)  # U = 3 needs N > 3


def test_neighborhoods_must_be_a_nonempty_index_array():
    src = grid_landmarks()
    lm = LandmarkSet(src, src + 0.02)
    for bad in ([], [[]], np.zeros((0, 3), dtype=int), [0, 1, 2], np.zeros((2, 2, 2), dtype=int)):
        with pytest.raises(ValueError, match="non-empty"):
            solve_transform(Gaussian(1.0), lm, bad)
    for bad in ([[0, 1.5]], [[0, 16]], [[-1, 0]], [[True, False]]):
        with pytest.raises(ValueError, match="subset indices"):
            solve_transform(Gaussian(1.0), lm, bad)
    with pytest.raises(ValueError, match="coincide"):
        solve_transform(Gaussian(1.0), lm, [[0, 1, 0]])
    # the rows are checked at once, and the first bad one raises subset's error for it
    for rows, first in (([[0, 1, 2], [3, 4, 3]], 1),                 # a valid row, then a repeat
                        ([[5, 6, 7], [0, 1, 2], [4, 16, 1]], 2),     # out of range in the last row
                        ([[0, 1, 0], [-1, 2, 3]], 0),
                        ([[0, 1, 2], [2, -1, 2]], 1),               # range before repeat, as subset
                        ([[1, 5, 9, 5, 1]], 0),
                        (np.array([[2, 9, 4], [7, 1, 7]], dtype=np.int32), 1),
                        (np.array([[2, 9, 4], [3, 16, 1]], dtype=np.uint16), 1)):
        index = np.asarray(rows)
        with pytest.raises(ValueError) as want:
            lm.subset(index[first])
        with pytest.raises(ValueError) as got:
            solve_transform(Gaussian(1.0), lm, index)
        assert str(got.value) == str(want.value)
    rows = np.array([[0, 5, 10, 15], [3, 2, 1, 0]])
    wide = solve_transform(Gaussian(1.0), lm, rows)
    for dtype in (np.int32, np.uint16):
        for t, want in zip(solve_transform(Gaussian(1.0), lm, rows.astype(dtype)), wide):
            assert np.array_equal(t._z, want._z) and t.residual == want.residual
            assert np.array_equal(t.landmarks.sources, want.landmarks.sources)
    with pytest.raises(ValueError, match="polynomial tail"):
        solve_transform(ThinPlateSpline(), lm, [[0, 1, 2], [3, 4, 5]])
    with pytest.raises(ValueError, match="even spline order"):
        solve_transform(LobachevskySpline(3, alpha=1.0), lm, [[0, 1, 2]])
    stacked = solve_transform(Gaussian(1.0), lm, [np.arange(16), np.arange(16)[::-1]])
    assert len(stacked) == 2 and all(t.residual <= 1e-10 for t in stacked)
    assert all(t.kind == "global-radial" for t in stacked)
    tensor = solve_transform(Wendland1D(1, 0.8), lm, [[0, 5, 10], [3, 4, 7]])
    assert all(isinstance(t, TensorProductTransform) for t in tensor)
    assert np.array_equal(tensor[1].landmarks.sources, src[[3, 4, 7]])


@st.composite
def neighborhood_problems(draw):
    """A kernel, a 1-3-D landmark set on a 1/32 lattice, and (S, K) neighbourhood rows."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m + 2, 14 if m > 1 else 12))
    cells = draw(st.lists(st.tuples(*[st.integers(0, 32)] * m), min_size=n, max_size=n,
                          unique=True))
    src = np.array(cells, dtype=float) / 32.0
    shift = np.array(draw(st.lists(st.floats(-0.05, 0.05), min_size=n * m, max_size=n * m)))
    kernel = draw(st.sampled_from([Gaussian(0.5), Gaussian(3.0), ThinPlateSpline(),
                                   WendlandRadial(2, 1, 1.5), Wendland1D(2, 2.0)]))
    k = draw(st.integers(m + 2 if kernel == ThinPlateSpline() else 1, n))
    rows = draw(st.lists(st.permutations(range(n)).map(lambda p: p[:k]), min_size=1, max_size=4))
    return kernel, LandmarkSet(src, src + shift.reshape(n, m)), np.array(rows)


def solution_bits(t):
    z = t._z
    return (z.hi, z.lo) if t.precision == "mp" else (z,)


# 7 landmarks on a line: for the two kernels of the examples below, all three
# neighbourhood rows reach the double-double rung, as one stack of 3
FLAT_SOURCES = np.array([1, 5, 8, 13, 17, 18, 20])[:, None] / 32.0
FLAT_LINE = LandmarkSet(FLAT_SOURCES, FLAT_SOURCES + np.array(
    [0.041, -0.037, 0.0, 0.024, 0.047, -0.02, -0.018])[:, None])
FLAT_ROWS = np.array([[1, 2, 5, 6, 4, 3, 0], [3, 2, 4, 1, 6, 0, 5], [2, 4, 3, 0, 5, 1, 6]])


@settings(max_examples=100, deadline=None)
@given(neighborhood_problems())
@example((Gaussian(0.5), FLAT_LINE, FLAT_ROWS))
@example((LobachevskySpline(8, alpha=0.2), FLAT_LINE, FLAT_ROWS))
def test_each_neighborhood_solves_as_its_own_subset(problem):
    """A stacked solve gives every row the bits of solving its subset alone."""
    kernel, lm, rows = problem
    alone = []
    for i, row in enumerate(rows):
        try:
            alone.append(solve_transform(kernel, lm.subset(row)))
        except SolveError:
            with pytest.raises(SolveError) as caught:
                solve_transform(kernel, lm, rows)
            assert caught.value.index == i
            return
    stacked = solve_transform(kernel, lm, rows)
    assert len(stacked) == len(rows)
    for t, want, row in zip(stacked, alone, rows):
        assert type(t) is type(want) and t.precision == want.precision
        assert t.residual == want.residual and t.condition == want.condition
        for got_bits, want_bits in zip(solution_bits(t), solution_bits(want)):
            assert got_bits.dtype == want_bits.dtype and np.array_equal(got_bits, want_bits)
        assert np.array_equal(t.landmarks.sources, lm.sources[row])
        assert np.array_equal(t.landmarks.targets, lm.targets[row])


def test_interpolation_residual_recorded():
    src = grid_landmarks()
    lm = LandmarkSet(src, src + 0.02)
    t = solve_transform(WendlandRadial(2, 1, 0.5), lm)
    direct = np.abs(t(src) - lm.targets).max()
    assert t.residual <= 1e-10
    assert direct <= max(1e-10, 2 * t.residual + 1e-14)


@pytest.mark.parametrize("method, value", [
    ("tps", None), ("g", 1.2), ("w2-2d", 0.6), ("w2-1dx1d", 0.6), ("l4", 1.2),
    ("shep-tps", None)])
def test_transform_rejects_non_finite_and_misshaped_points(method, value):
    landmarks, _, _ = gen_case(CaseSpec("square-shift-32"))
    t = build_method(method, landmarks, "square-shift-32", value)
    assert t([0.5, 0.5]).shape == (2,) and t(np.zeros((0, 2))).shape == (0, 2)
    for bad in ([[np.nan, 0.5]], [0.5, np.inf], [[0.1, 0.2], [0.3, -np.inf]]):
        with pytest.raises(ValueError, match="finite"):
            t(bad)
    for bad in ([[0.1, 0.2, 0.3]], [0.5], np.zeros((2, 2, 2)), 0.5):
        with pytest.raises(ValueError, match="shape"):
            t(bad)


def test_subset_checks_only_its_indices(monkeypatch):
    from landreg import landmarks as landmarks_module
    src = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    lm = LandmarkSet(src, src + 0.1, [False, False, False, False])
    monkeypatch.setattr(landmarks_module, "_distance_blocks", None)   # the separation check
    sub = lm.subset(np.array([3, 0], dtype=np.int32))
    assert np.array_equal(sub.sources, src[[3, 0]]) and np.array_equal(sub.targets, src[[3, 0]] + 0.1)
    assert sub.quasi.shape == (2,) and not sub.quasi.any()
    for arr in (sub.sources, sub.targets, sub.quasi):
        assert not arr.flags.writeable
    assert lm.subset([2]).n == 1 and lm.subset(range(4)).n == 4
    with pytest.raises(ValueError, match=r"landmarks 1 and 3 coincide \(separation 0\.000e\+00\)"):
        lm.subset([2, 0, 1, 0])
    for bad in ([1.0, 2.0], [True, False], ["1"], [], [[0, 1]], [0, 4], [-1, 0]):
        with pytest.raises(ValueError, match="subset indices"):
            lm.subset(bad)
