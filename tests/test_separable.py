"""Gaussian evaluation in product form: exp(-a^2 |x - c|^2) = Prod_d exp(-a^2 (x_d - c_d)^2).

Where some coordinate of the evaluation points has at most P/2 distinct
values, each axis factor is evaluated once per distinct value, at every
rung.  The product form moves values at rounding level only; assembly
stays radial.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landreg import _precision, transform
from landreg._dd import DDArray
from landreg.bench import CaseSpec, build_method, gen_case
from landreg.kernels import Gaussian
from landreg.landmarks import LandmarkSet
from landreg.transform import _Problem, solve_transform

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
    so each kernel value a few relative to 1 + a^2 r^2.
    """
    y = kernel.alpha ** 2 * ((x[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
    k = np.exp(-y)
    return 16 * unit * ((1.0 + y) * k) @ np.abs(coef)


@settings(max_examples=200, deadline=None)
@given(gaussian_problems(), st.sampled_from([np.float64, np.longdouble]))
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
    got = _precision.mp_evaluate(kernel, False, coef_dd, None, [], x, centers)[:, 0]
    radial = _precision._kernel_rows(kernel, False, DDArray(x), DDArray(centers)) @ coef_dd
    want = radial.to_float()[:, 0]
    # both are rounded to float64 at the end: allow one spacing of the result
    bound = rounding_bound(kernel, x, centers, coef, UNIT["dd"]) + np.spacing(np.abs(want))
    assert (np.abs(got - want) <= bound).all()


# ---------------------------------------------------------------------------
# which form each input takes

def radial_entries(monkeypatch, solved, points):
    """The size of every eval_radial call one evaluation makes."""
    sizes = []
    original = transform.eval_radial

    def counting(kernel, r):
        sizes.append(np.size(r))
        return original(kernel, r)

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

    def counting(kernel, r):
        sizes.append(np.size(r))
        return original(kernel, r)

    monkeypatch.setattr(transform, "eval_radial", counting)
    solve_transform(Gaussian(4.0), LandmarkSet(SOURCES, SOURCES + 0.01))
    assert sizes == [81]


def test_double_double_tables_cover_the_whole_point_set():
    grid = gen_case(CaseSpec("square-shift-32"))[1].points
    centers = DDArray(SOURCES)
    tables = _precision._axis_tables(Gaussian(1.0), False, grid, centers)
    assert [table[0].shape for table in tables] == [(40, 9), (40, 9)]
    scattered = np.random.default_rng(3).uniform(0, 1, (1600, 2))
    assert _precision._axis_tables(Gaussian(1.0), False, scattered, centers) is None
    mixed = np.column_stack([grid[:, 0], scattered[:, 1]])
    assert [t if t is None else t[0].shape
            for t in _precision._axis_tables(Gaussian(1.0), False, mixed, centers)] \
        == [(40, 9), None]


def test_double_double_product_form_spans_several_blocks():
    landmarks, grid, _ = gen_case(CaseSpec("square-shift-32"))
    t = build_method("g", landmarks, "square-shift-32", 0.2)
    assert t.precision == "mp" and len(grid.points) * landmarks.n > _precision.EVAL_BLOCK
    z = t._z
    radial = (_precision._kernel_rows(t.kernel, False, DDArray(grid.points),
                                      DDArray(landmarks.sources)) @ z).to_float()
    bound = rounding_bound(t.kernel, grid.points, landmarks.sources,
                           np.abs(z.to_float()).max(1), UNIT["dd"])
    gap = np.abs(t(grid.points) - radial).max(1)
    assert (gap <= bound + np.spacing(np.abs(radial)).max(1)).all()
