"""Tensor-product kernel matrices: per-distinct-coordinate evaluation.

``_tensor_matrix`` evaluates a coordinate's factor once per distinct value
when at most half the values are distinct, and entry by entry otherwise.
Both paths must give the bits of the entry-by-entry product below.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landreg import transform
from landreg.bench import CASE_KINDS, CaseSpec, build_method, gen_case
from landreg.kernels import Wendland1D
from landreg.lobachevsky import LobachevskySpline
from landreg.transform import _Problem, _tensor_matrix, _univariate_factor


def direct_tensor_matrix(kernel, x, centers):
    """The product kernel matrix, every factor evaluated on all P x N entries."""
    out = _univariate_factor(kernel, x[:, None, 0] - centers[None, :, 0])
    for d in range(1, x.shape[1]):
        out = out * _univariate_factor(kernel, x[:, None, d] - centers[None, :, d])
    return out


def assert_same_bits(got, want):
    """Equal values and sign bits: the same numbers, without longdouble's padding bytes."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# ---------------------------------------------------------------------------
# random geometries

coordinates = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5]),
                        st.floats(-2.0, 2.0, allow_nan=False))

kernels = st.one_of(
    st.builds(Wendland1D, st.integers(0, 3), st.floats(0.3, 4.0)),
    st.builds(lambda n, alpha: LobachevskySpline(n, alpha=alpha),
              st.sampled_from([2, 4, 6]), st.floats(0.2, 3.0)),
    st.builds(lambda n, a: LobachevskySpline(n, a=a),
              st.sampled_from([2, 4, 6]), st.floats(0.05, 1.0)),
)


@st.composite
def axis_values(draw, p):
    """p coordinates drawn from a pool of 1..p values, so 1..p of them distinct."""
    pool = draw(st.lists(coordinates, min_size=1, max_size=p))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=p, max_size=p))
    return [pool[i] for i in picks]


@st.composite
def point_sets(draw, m):
    """(P, m) points: a lattice, pooled coordinates, or all-distinct ones."""
    kind = draw(st.sampled_from(["lattice", "pooled", "distinct"]))
    if kind == "lattice":
        axes = [draw(st.lists(coordinates, min_size=1, max_size=6)) for _ in range(m)]
        grid = np.meshgrid(*axes, indexing="ij")
        x = np.column_stack([g.ravel() for g in grid])
    elif kind == "pooled":
        p = draw(st.integers(1, 40))
        x = np.column_stack([draw(axis_values(p)) for _ in range(m)])
    else:
        p = draw(st.integers(1, 40))
        x = np.column_stack([draw(st.lists(coordinates, min_size=p, max_size=p, unique=True))
                             for _ in range(m)])
    for d in range(1, m):
        if draw(st.booleans()):
            x[:, d] = x[:, draw(st.integers(0, d - 1))]    # a repeated column
    return x


@st.composite
def tensor_problems(draw):
    m = draw(st.integers(1, 3))
    x = draw(point_sets(m))
    sources = x if draw(st.booleans()) else draw(point_sets(m))
    subset = draw(st.one_of(st.none(), st.lists(st.integers(0, len(sources) - 1),
                                                unique=True, max_size=len(sources))))
    cols = slice(None) if subset is None else np.array(sorted(subset), dtype=np.intp)
    dtype = draw(st.sampled_from([np.float64, np.longdouble]))
    return draw(kernels), x, sources, cols, dtype


@settings(max_examples=300, deadline=None)
@given(tensor_problems())
def test_kernel_rows_match_the_entrywise_product(problem):
    kernel, x, sources, cols, dtype = problem
    rows = _Problem(kernel, True, sources, None).kernel_rows(x.astype(dtype), cols)
    want = direct_tensor_matrix(kernel, x.astype(dtype), sources[cols].astype(dtype))
    assert_same_bits(rows, want)


def _entries(monkeypatch, kernel, x, centers):
    """Number of spline entries _tensor_matrix evaluates, per call."""
    want = direct_tensor_matrix(kernel, x, centers)
    sizes = []
    original = transform.eval_spline

    def counting(spline, delta):
        sizes.append(delta.size)
        return original(spline, delta)

    with monkeypatch.context() as patch:
        patch.setattr(transform, "eval_spline", counting)
        got = _tensor_matrix(kernel, x, centers)
    assert_same_bits(got, want)
    return sizes


def test_each_axis_picks_its_path_from_its_distinct_values(monkeypatch):
    kernel = LobachevskySpline(6, alpha=0.4)
    centers = np.linspace(0.1, 0.9, 9).reshape(-1, 1).repeat(2, axis=1)
    grid = gen_case(CaseSpec("square-shift-32"))[1].points          # 40 x 40, 40 values per axis
    assert _entries(monkeypatch, kernel, grid, centers) == [40 * 9, 40 * 9]
    rng = np.random.default_rng(3)
    scattered = rng.uniform(0, 1, (1600, 2))
    assert _entries(monkeypatch, kernel, scattered, centers) == [1600 * 9, 1600 * 9]
    # 800 distinct values of 1600 takes the distinct path; 801 does not
    half = np.column_stack([np.repeat(np.linspace(0, 1, 800), 2),
                            np.concatenate([np.linspace(0, 1, 801), np.zeros(799)])])
    assert _entries(monkeypatch, kernel, half, centers) == [800 * 9, 1600 * 9]


# ---------------------------------------------------------------------------
# the seed cases

@pytest.mark.parametrize("case", CASE_KINDS)
@pytest.mark.parametrize("method, value", [("w2-1dx1d", 0.6), ("w4-1dx1d", 0.2),
                                           ("l4", 1.2), ("l6", 0.4)])
def test_seed_case_matrices_and_grid_match_the_oracle(method, value, case):
    landmarks, grid, _ = gen_case(CaseSpec(case))
    solved = build_method(method, landmarks, case, value)
    problem = solved._problem
    for dtype in (np.float64, np.longdouble):
        src = landmarks.sources.astype(dtype)
        assert_same_bits(problem.build(dtype), direct_tensor_matrix(problem.kernel, src, src))
    assert solved.precision in ("double", "longdouble")
    dtype = np.longdouble if solved.precision == "longdouble" else np.float64
    kernel_matrix = direct_tensor_matrix(problem.kernel, grid.points.astype(dtype),
                                         landmarks.sources.astype(dtype))
    assert_same_bits(solved(grid.points), (kernel_matrix @ solved.coef).astype(float))
