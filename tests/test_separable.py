"""Gaussian evaluation in product form: exp(-a^2 |x - c|^2) = Prod_d exp(-a^2 (x_d - c_d)^2).

Where some coordinate of the evaluation points has at most P/2 distinct
values, each axis factor is evaluated once per distinct value, at every
rung.  The product form moves values at rounding level only; assembly
stays radial.  The other radial kernels take such an axis's squared
distances from a table built once per distinct value, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from landreg import transform
from landreg._dd import DDArray
from landreg.bench import CaseSpec, build_method, gen_case
from landreg.kernels import Gaussian, GeneralizedMultiquadric, ThinPlateSpline, WendlandRadial
from landreg.landmarks import LandmarkSet, chunk_rows, distinct_axes, squared_distances
from landreg.transform import _axis_tables, _entry_bytes, _Problem, solve_transform

# unit roundoff of each rung; the double-double one allows for its exp
UNIT = {np.float64: np.finfo(np.float64).eps / 2, np.longdouble: np.finfo(np.longdouble).eps / 2,
        "dd": 2.0 ** -100}

coordinates = st.floats(-1.5, 1.5, allow_nan=False)


@st.composite
def point_sets(draw, m):
    """(P, m) points: a lattice with at most 6 values per axis, or all-distinct ones."""
    if draw(st.booleans()):
        axes = [draw(st.lists(coordinates, min_size=1, max_size=6, unique=True))
                for _ in range(m)]
        grid = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([g.ravel() for g in grid])
    p = draw(st.integers(1, 30))
    return np.column_stack([draw(st.lists(coordinates, min_size=p, max_size=p, unique=True))
                            for _ in range(m)])


@st.composite
def gaussian_problems(draw):
    m = draw(st.integers(1, 3))
    x = draw(point_sets(m))
    n = draw(st.integers(1, 12))
    centers = np.array(draw(st.lists(st.lists(coordinates, min_size=m, max_size=m),
                                     min_size=n, max_size=n)))
    coef = np.array(draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                                  min_size=n, max_size=n)))
    return Gaussian(draw(st.floats(0.1, 4.0))), x, centers, coef


def radial_rows(kernel, x, centers):
    return _Problem(kernel, centers, None).kernel_rows(x)


def rounding_bound(kernel, x, centers, coef, unit):
    """A rounding-level bound on |product - radial| at each point: u Sum_j (1 + a^2 r^2) |K| |c|.

    Each exp argument a^2 r^2 carries a few roundings, relative to itself,
    so each kernel value a few relative to 1 + a^2 r^2.  A term K c below
    the normal range rounds with an absolute error of up to half a
    subnormal, which no relative term covers (the relative bound itself
    underflows to 0 there), so each of the N terms adds a few smallest
    subnormals.
    """
    y = kernel.alpha ** 2 * ((x[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
    k = np.exp(-y)
    underflow = 4 * len(centers) * np.finfo(float).smallest_subnormal
    return 16 * unit * ((1.0 + y) * k) @ np.abs(coef) + underflow


# The two forms' products K c are subnormal here (about 7e-311), and at the
# second point they differ by one subnormal, 5e-324, where the relative bound is 0.
SUBNORMAL_TERM = (Gaussian(alpha=1.455723546698458),
                  np.array([[1.25, 0.0, 0.0], [1.25, 0.0, 0.19921875]]),
                  np.array([[-0.90625, 0.0, 0.0]]), np.array([1.3922227699999503e-306]))


@settings(max_examples=200, deadline=None)
@given(gaussian_problems(), st.sampled_from([np.float64, np.longdouble]))
@example(SUBNORMAL_TERM, np.float64)
def test_product_form_matches_the_radial_form_in_float64_and_80_bit(problem, dtype):
    kernel, x, centers, coef = problem
    xd = x.astype(dtype)
    product = _Problem(kernel, centers, None).eval_rows(xd) @ coef.astype(dtype)
    radial = radial_rows(kernel, xd, centers.astype(dtype)) @ coef.astype(dtype)
    gap = np.abs(np.asarray(product - radial, dtype=float))
    assert (gap <= rounding_bound(kernel, x, centers, coef, UNIT[dtype])).all()


@settings(max_examples=60, deadline=None)
@given(gaussian_problems())
def test_product_form_matches_the_radial_form_in_double_double(problem):
    kernel, x, centers, coef = problem
    coef_dd = DDArray(coef[:, None])
    got = _Problem(kernel, centers, None).evaluate(coef_dd, x)[:, 0]
    radial = radial_rows(kernel, DDArray(x), centers) @ coef_dd
    want = radial.to_float()[:, 0]
    # both are rounded to float64 at the end: allow one spacing of the result
    bound = rounding_bound(kernel, x, centers, coef, UNIT["dd"]) + np.spacing(np.abs(want))
    assert (np.abs(got - want) <= bound).all()


# ---------------------------------------------------------------------------
# per-axis distance tables

@st.composite
def table_problems(draw):
    """Points (P, m) whose axes repeat few or many values, sources, a column cull, a dtype.

    An 80-bit problem moves some coordinates off the float64 numbers, so
    distinct_axes sorts those axes in longdouble.
    """
    m = draw(st.integers(1, 3))
    p = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dtype = draw(st.sampled_from([np.float64, np.longdouble]))
    x = np.empty((p, m), dtype)
    for d in range(m):
        pool = rng.uniform(-1.5, 1.5, draw(st.integers(1, p))).astype(dtype)
        if dtype is np.longdouble and draw(st.booleans()):
            pool += np.longdouble(2.0) ** -60
        x[:, d] = pool[rng.integers(len(pool), size=p)]
    sources = rng.uniform(-1.5, 1.5, (draw(st.integers(1, 20)), m))
    cols = slice(None)
    if draw(st.booleans()):
        cols = np.flatnonzero(rng.random(len(sources)) < 0.5)
        assume(len(cols))
    return x, sources, cols


@settings(max_examples=200, deadline=None)
@given(table_problems())
def test_table_form_of_the_squared_distances_is_the_broadcast_form(problem):
    x, sources, cols = problem
    src = sources[cols].astype(x.dtype)
    product, tables = _axis_tables(ThinPlateSpline(), distinct_axes(x), src)
    assert not product
    want = squared_distances(x, src)
    assert np.array_equal(squared_distances(x, src, tables), want)
    work = [np.full(want.shape, np.nan, x.dtype) for _ in range(2)]
    got = squared_distances(x, src, tables, work)
    assert np.shares_memory(got, work[0]) and np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(table_problems(),
       st.sampled_from([ThinPlateSpline(), GeneralizedMultiquadric(0.7, -1),
                        GeneralizedMultiquadric(0.7, 3), WendlandRadial(2, 1, 0.8)]))
def test_evaluation_blocks_from_tables_and_a_workspace_are_the_assembly_blocks(problem, kernel):
    x, sources, cols = problem
    problem = _Problem(kernel, sources, None)
    want = problem.kernel_rows(x, cols)
    assert np.array_equal(problem.eval_rows(x, cols), want)
    # a workspace with room to spare, as a chunked evaluation's last chunk has
    work = [np.full(2 * want.size + 3, np.nan, x.dtype) for _ in range(2)]
    assert np.array_equal(problem.eval_rows(x, cols, work), want)


# ---------------------------------------------------------------------------
# which form each input takes

def radial_entries(monkeypatch, solved, points):
    """The size of every eval_radial call one evaluation makes."""
    sizes = []
    original = transform.eval_radial

    def counting(kernel, r, *work):
        sizes.append(np.size(r))
        return original(kernel, r, *work)

    with monkeypatch.context() as patch:
        patch.setattr(transform, "eval_radial", counting)
        solved(points)
    return sizes


LATTICE = np.linspace(0.1, 0.9, 3)
SOURCES = np.array([(x, y) for y in LATTICE for x in LATTICE])      # N = 9


@pytest.fixture
def float64_gaussian():
    t = solve_transform(Gaussian(4.0), LandmarkSet(SOURCES, SOURCES + 0.01))
    assert t.precision == "double"
    return t


def test_grid_points_take_the_product_form_scattered_ones_the_radial(monkeypatch,
                                                                     float64_gaussian):
    grid = gen_case(CaseSpec("square-shift-32"))[1].points          # 40 x 40
    assert radial_entries(monkeypatch, float64_gaussian, grid) == [40 * 9, 40 * 9]
    scattered = np.random.default_rng(3).uniform(0, 1, (1600, 2))
    assert radial_entries(monkeypatch, float64_gaussian, scattered) == [1600 * 9]
    # one axis of 800 distinct values in 1600 is enough; the other is evaluated entry by entry
    half = np.column_stack([np.repeat(np.linspace(0, 1, 800), 2),
                            np.concatenate([np.linspace(0, 1, 801), np.zeros(799)])])
    assert radial_entries(monkeypatch, float64_gaussian, half) == [800 * 9, 1600 * 9]
    one_more = half.copy()
    one_more[1, 0] = 0.5 / 799                                      # 801 distinct values
    assert radial_entries(monkeypatch, float64_gaussian, one_more) == [1600 * 9]
    assert radial_entries(monkeypatch, float64_gaussian, grid[:1]) == [9]


def test_assembly_stays_radial(monkeypatch):
    sizes = []
    original = transform.eval_radial

    def counting(kernel, r, *work):
        sizes.append(np.size(r))
        return original(kernel, r, *work)

    monkeypatch.setattr(transform, "eval_radial", counting)
    solve_transform(Gaussian(4.0), LandmarkSet(SOURCES, SOURCES + 0.01))
    assert sizes == [81]


def dd_radial_entries(monkeypatch, points):
    """The size of every kernel formula call of a double-double Gaussian evaluation over SOURCES.

    Double-double blocks take kernels._radial itself, as transform looks it up.
    """
    sizes = []
    original = transform._radial

    def counting(kernel, r, *work):
        sizes.append(np.size(r.hi))
        return original(kernel, r, *work)

    coef = DDArray(np.random.default_rng(5).standard_normal((len(SOURCES), 2)))
    with monkeypatch.context() as patch:
        patch.setattr(transform, "_radial", counting)
        _Problem(Gaussian(1.0), SOURCES, None).evaluate(coef, points)
    return sizes


def test_double_double_tables_cover_the_whole_point_set(monkeypatch):
    """An evaluation builds each axis's table once, over all its points, and chunks gather rows."""
    grid = gen_case(CaseSpec("square-shift-32"))[1].points              # 40 x 40
    step = chunk_rows(len(SOURCES), _entry_bytes(DDArray(np.zeros((len(SOURCES), 2)))))
    rows = [step, len(grid) - step]                                     # two chunks
    assert step < len(grid) <= 2 * step
    assert dd_radial_entries(monkeypatch, grid) == [40 * 9, 40 * 9]
    scattered = np.random.default_rng(3).uniform(0, 1, (1600, 2))
    assert dd_radial_entries(monkeypatch, scattered) == [p * 9 for p in rows]
    mixed = np.column_stack([grid[:, 0], scattered[:, 1]])
    assert dd_radial_entries(monkeypatch, mixed) == [40 * 9] + [p * 9 for p in rows]
    assert dd_radial_entries(monkeypatch, grid[:1]) == [9]


def test_double_double_product_form_spans_several_blocks():
    landmarks, grid, _ = gen_case(CaseSpec("square-shift-32"))
    t = build_method("g", landmarks, "square-shift-32", 0.2)
    assert t.precision == "mp" and len(grid.points) > chunk_rows(landmarks.n, _entry_bytes(t._z))
    z = t._z
    radial = (t._problem.kernel_rows(DDArray(grid.points)) @ z).to_float()
    bound = rounding_bound(t.kernel, grid.points, landmarks.sources,
                           np.abs(z.to_float()).max(1), UNIT["dd"])
    gap = np.abs(t(grid.points) - radial).max(1)
    assert (gap <= bound + np.spacing(np.abs(radial)).max(1)).all()
