"""Exact k-nearest queries and chunked, support-culled evaluation.

The dense functions below are the all-pairs implementations that the
chunked code replaced.  They are kept here as oracles: the neighbour
queries, the hypercube radii, the Shepard weights and the separation check
must reproduce them bit for bit, ties included.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import landreg.landmarks
from landreg import _precision
from landreg._dd import DDArray
from landreg.bench import CASE_KINDS, CaseSpec, build_method, default_grid, gen_case
from landreg.kernels import Gaussian, ThinPlateSpline, Wendland1D, WendlandRadial
from landreg.landmarks import (CHUNK_BYTES, MIN_SEPARATION, LandmarkSet, chunk_rows,
                               k_nearest)
from landreg.shepard import (SNAP_RADIUS, ShepardConfig, build_shepard_transform,
                             nearest_landmarks, node_radii)
from landreg.transform import (GlobalRadialTransform, _entry_bytes, _Problem, monomial_matrix,
                               solve_transform)
from weights import scattered_weights

# ---------------------------------------------------------------------------
# dense oracles


def dense_nearest(sources, x, k):
    d2 = ((sources - np.asarray(x, dtype=float)) ** 2).sum(1)
    return np.argsort(d2, kind="stable")[:k]


def dense_node_radii(sources, n_w):
    d2 = ((sources[:, None, :] - sources[None, :, :]) ** 2).sum(-1)
    d2.sort(axis=1)
    return 2.0 * np.sqrt(d2[:, n_w - 1])


def dense_weights(src, n_w, rho, pts):
    d2 = ((pts[:, None, :] - src[None, :, :]) ** 2).sum(-1)
    order = np.argsort(d2, axis=1, kind="stable")
    among_nearest = np.zeros_like(d2, dtype=bool)
    np.put_along_axis(among_nearest, order[:, :n_w], True, axis=1)
    in_cube = np.abs(pts[:, None, :] - src[None, :, :]).max(-1) <= rho[None, :] / 2.0
    tau = among_nearest & in_cube
    uncovered = ~tau.any(axis=1)
    tau[uncovered] = among_nearest[uncovered]
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.where(tau, 1.0 / d2, 0.0)
        # normalized over the row's N_W nearest, summed in (d2, index) order
        wbar = weights / np.take_along_axis(weights, order[:, :n_w], axis=1).sum(axis=1)[:, None]
    snapped = d2.min(axis=1) < SNAP_RADIUS ** 2
    if snapped.any():
        wbar[snapped] = 0.0
        wbar[np.flatnonzero(snapped), order[snapped, 0]] = 1.0    # the nearest landmark
    return wbar


def dense_separation_error(sources):
    n = len(sources)
    diff = sources[:, None, :] - sources[None, :, :]
    dist = np.sqrt((diff * diff).sum(-1))
    dist[np.diag_indices(n)] = np.inf
    if dist.min() <= MIN_SEPARATION:
        i, j = divmod(int(dist.argmin()), n)
        return (f"degenerate input: source landmarks {i} and {j} coincide "
                f"(separation {dist.min():.3e})")
    return None


def assert_queries_match(landmarks, pts, k):
    src = landmarks.sources
    indices, dist2 = k_nearest(src, pts, k)
    for row, x in enumerate(pts):
        expected = dense_nearest(src, x, k)
        assert np.array_equal(indices[row], expected)
        assert np.array_equal(nearest_landmarks(landmarks, x, k), expected)
        assert np.array_equal(dist2[row], ((src[expected] - x) ** 2).sum(1))
    cfg = ShepardConfig(Gaussian(1.0), 1, k)
    rho = node_radii(landmarks, cfg)
    assert np.array_equal(rho, dense_node_radii(src, k))
    for radii in (rho, np.full(landmarks.n, 1e-9)):   # the second leaves most points uncovered
        assert np.array_equal(scattered_weights(landmarks, cfg, radii, pts),
                              dense_weights(src, k, radii, pts))


# ---------------------------------------------------------------------------
# neighbour queries against the oracles


@st.composite
def geometries(draw):
    """(landmarks, probes, k) over random points in [-1, 1]^m."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    src = rng.uniform(-1.0, 1.0, (n, m))
    assume(dense_separation_error(src) is None)
    pts = np.vstack([rng.uniform(-1.5, 1.5, (draw(st.integers(1, 30)), m)), src[:3]])
    k = draw(st.sampled_from([1, n, draw(st.integers(1, n))]))
    return LandmarkSet(src, src), pts, k


@st.composite
def lattices(draw):
    """Integer lattices scaled by a power of two, probed where distances tie.

    Probes sit on lattice nodes, edge midpoints and cell centres, so many
    landmarks are exactly equidistant from them.
    """
    m = draw(st.integers(1, 3))
    side = draw(st.integers(2, {1: 12, 2: 6, 3: 3}[m]))
    h = 2.0 ** draw(st.integers(-3, 2))
    axes = np.meshgrid(*[np.arange(side)] * m, indexing="ij")
    src = h * np.column_stack([a.ravel() for a in axes]).astype(float)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    halves = rng.integers(-1, 2 * side, (draw(st.integers(1, 30)), m)) / 2.0
    pts = np.vstack([h * halves, np.full((1, m), h * (side - 1) / 2.0)])
    n = len(src)
    k = draw(st.sampled_from([1, n, draw(st.integers(1, n))]))
    return LandmarkSet(src, src), pts, k


@settings(max_examples=150, deadline=None)
@given(geometries())
def test_queries_match_dense_oracle_on_random_geometry(case):
    assert_queries_match(*case)


@settings(max_examples=150, deadline=None)
@given(lattices())
def test_queries_match_dense_oracle_on_tied_lattices(case):
    assert_queries_match(*case)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_weights_match_dense_oracle_within_snap_radius(seed, m):
    rng = np.random.default_rng(seed)
    src = rng.uniform(0.0, 1.0, (12, m))
    assume(dense_separation_error(src) is None)
    landmarks = LandmarkSet(src, src)
    near = src + rng.uniform(-0.5, 0.5, src.shape) * SNAP_RADIUS / np.sqrt(m)
    pts = np.vstack([near, src, rng.uniform(0.0, 1.0, (5, m))])
    for k in (1, 3, landmarks.n):
        assert_queries_match(landmarks, pts, k)
        wbar = scattered_weights(landmarks, ShepardConfig(Gaussian(1.0), 1, k),
                                 node_radii(landmarks, ShepardConfig(Gaussian(1.0), 1, k)),
                                 pts[:2 * landmarks.n])
        assert np.array_equal(wbar, np.vstack([np.eye(landmarks.n)] * 2))


def test_queries_match_dense_oracle_on_seed_cases():
    for kind in CASE_KINDS:
        landmarks, grid, _ = gen_case(CaseSpec(kind))
        pts = np.vstack([grid.points[::7], landmarks.sources])
        for k in (1, min(25, landmarks.n), landmarks.n):
            assert_queries_match(landmarks, pts, k)


def test_k_nearest_spans_several_chunks():
    rng = np.random.default_rng(3)
    src = rng.uniform(0.0, 1.0, (700, 2))
    pts = rng.uniform(0.0, 1.0, (3 * chunk_rows(len(src)) + 5, 2))
    indices, dist2 = k_nearest(src, pts, 9)
    d2 = ((pts[:, None, :] - src[None, :, :]) ** 2).sum(-1)
    order = np.argsort(d2, axis=1, kind="stable")[:, :9]
    assert np.array_equal(indices, order)
    assert np.array_equal(dist2, np.take_along_axis(d2, order, axis=1))


def query_in_chunks(sources, points, k, rows):
    """k_nearest with CHUNK_BYTES shrunk to `rows` rows of the sources, so more points are tiled."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(landreg.landmarks, "CHUNK_BYTES", rows * len(sources) * 8)
        assert chunk_rows(len(sources)) == rows
        return k_nearest(sources, points, k)


@st.composite
def tiled_queries(draw):
    """(landmarks, probes, k, rows): a geometry or lattice, its probes laid out
    as drawn, partly far outside the sources' hull, repeated, on one line
    (axis-parallel or not) or all one point, to be queried in chunks of rows."""
    landmarks, pts, k = draw(st.one_of(geometries(), lattices()))
    m = landmarks.dimension
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    layout = draw(st.sampled_from(["drawn", "far", "repeated", "line", "point"]))
    if layout == "far":
        scale = 10.0 ** draw(st.integers(1, 8))
        pts = np.vstack([pts, scale * rng.uniform(-1.0, 1.0, pts.shape)])
    elif layout == "repeated":
        pts = pts[rng.integers(0, len(pts), 3 * len(pts))]
    elif layout == "line":
        axis = np.eye(m)[rng.integers(m)] if draw(st.booleans()) else rng.normal(size=m)
        pts = pts[0] + rng.uniform(-2.0, 2.0, (len(pts), 1)) * axis
    elif layout == "point":
        pts = np.repeat(pts[:1], len(pts), axis=0)
    rows = draw(st.integers(1, max(1, len(pts) - 1)))
    return landmarks, pts, k, rows


@settings(max_examples=200, deadline=None)
@given(tiled_queries())
def test_tiled_k_nearest_is_bitwise_the_one_chunk_query(case):
    landmarks, pts, k, rows = case
    src = landmarks.sources
    assert len(pts) <= chunk_rows(len(src))
    indices, dist2 = query_in_chunks(src, pts, k, rows)
    expected, expected_d2 = k_nearest(src, pts, k)
    assert np.array_equal(indices, expected)
    assert np.array_equal(dist2, expected_d2)
    for row, x in enumerate(pts):
        assert np.array_equal(indices[row], dense_nearest(src, x, k))
        assert np.array_equal(dist2[row], ((src[indices[row]] - x) ** 2).sum(1))


def nearest_by_both_paths(d2, k):
    """_nearest_in_block's whole-row sort and its partition path on one block."""
    nearest = landreg.landmarks._nearest_in_block
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(landreg.landmarks, "SORT_WIDTH", np.inf)
        by_sort = nearest(d2, k)
        patch.setattr(landreg.landmarks, "SORT_WIDTH", 0)
        by_partition = nearest(d2, k)
    return by_sort, by_partition


def assert_paths_agree(d2, k):
    """Both paths give the columns and values of a stable row argsort, bit for bit."""
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    for columns, values in nearest_by_both_paths(d2, k):
        assert columns.dtype == np.intp and values.dtype == d2.dtype
        assert np.array_equal(columns, order)
        assert values.tobytes() == np.take_along_axis(d2, order, axis=1).tobytes()


@settings(max_examples=100, deadline=None)
@given(lattices())
def test_both_nearest_paths_agree_on_points_equidistant_from_several_landmarks(case):
    landmarks, pts, k = case
    d2 = landreg.landmarks.squared_distances(pts, landmarks.sources)
    for kk in {1, k, landmarks.n}:
        assert_paths_agree(d2, kk)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 4))
def test_both_nearest_paths_agree_on_ties_at_the_kth_value(seed, width, levels):
    """Few distinct values per row, so most rows tie across their k-th smallest entry."""
    rng = np.random.default_rng(seed)
    d2 = rng.integers(0, levels, (30, width)) * 0.25
    d2[0] = 0.5                                    # one row tied throughout
    for k in {1, int(rng.integers(1, width + 1)), width}:
        assert_paths_agree(d2, k)


def test_k_nearest_on_each_side_of_the_whole_row_sort():
    """Blocks SORT_WIDTH * k and one column wider give the dense oracle's order, ties included."""
    k = 4
    for n in (landreg.landmarks.SORT_WIDTH * k, landreg.landmarks.SORT_WIDTH * k + 1):
        src = np.column_stack([np.arange(n) % 4, np.arange(n) // 4]).astype(float)
        pts = np.vstack([src + 0.5, src[::3] + [0.5, 0.0]])
        indices, dist2 = k_nearest(src, pts, k)
        for row, x in enumerate(pts):
            expected = dense_nearest(src, x, k)
            assert np.array_equal(indices[row], expected)
            assert np.array_equal(dist2[row], ((src[expected] - x) ** 2).sum(1))


def test_k_nearest_of_no_points():
    src = np.random.default_rng(8).uniform(0.0, 1.0, (30, 2))
    for k in (1, 7, 30):
        for indices, dist2 in (k_nearest(src, np.zeros((0, 2)), k),
                               query_in_chunks(src, np.zeros((0, 2)), k, 1)):
            assert indices.shape == dist2.shape == (0, k)


def test_k_nearest_rejects_points_that_are_not_finite_rows_of_the_sources_dimension():
    src = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    many = np.random.default_rng(10).uniform(0.0, 1.0, (40, 2))
    many[17, 1] = np.nan
    for points in ([[np.nan, 0.5]], [[0.5, np.inf]], many):
        with pytest.raises(ValueError, match="points must be finite"):
            k_nearest(src, points, 3)
        with pytest.raises(ValueError, match="points must be finite"):
            query_in_chunks(src, points, 3, 1)
    for points in ([[0.5, 0.5, 0.5]], [0.5, 0.5], np.zeros((2, 2, 1)), [["a", "b"]]):
        with pytest.raises(ValueError, match=r"points must be a \(P, 2\) array of numbers"):
            k_nearest(src, points, 3)


# ---------------------------------------------------------------------------
# separation check


def test_separation_check_reports_the_dense_pair_across_chunks():
    rng = np.random.default_rng(4)
    src = rng.uniform(0.0, 1.0, (1000, 2))
    assert chunk_rows(len(src)) < 900
    src[950] = src[900] + [1e-13, 0.0]
    with pytest.raises(ValueError) as err:
        LandmarkSet(src, src)
    assert str(err.value) == dense_separation_error(src)
    assert "landmarks 900 and 950" in str(err.value)


def test_separation_check_reports_first_of_equal_pairs():
    src = np.array([[0.0, 0.0], [5.0, 5.0], [5.0, 5.0], [0.0, 0.0]])
    with pytest.raises(ValueError) as err:
        LandmarkSet(src, src)
    assert str(err.value) == dense_separation_error(src)


def test_single_landmark_passes_separation_check():
    assert LandmarkSet([[0.3, 0.4]], [[0.5, 0.5]]).n == 1
    assert LandmarkSet([[0.3]], [[0.5]]).n == 1


# ---------------------------------------------------------------------------
# chunked, support-culled evaluation


def jittered_lattice(side, seed, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    h = (hi - lo) / side
    ix, iy = np.meshgrid(np.arange(side), np.arange(side))
    cells = np.column_stack([ix.ravel(), iy.ravel()])
    src = lo + (cells + 0.5 + rng.uniform(-0.35, 0.35, cells.shape)) * h
    x, y = src[:, 0], src[:, 1]
    shift = 0.03 * np.column_stack([np.sin(np.pi * x) * np.sin(2 * np.pi * y),
                                    np.sin(2 * np.pi * x) * np.sin(np.pi * y)])
    return LandmarkSet(src, src + shift)


def one_block(transform, x):
    """The kernel part of an evaluation as a single kernel_rows product, in x's dtype."""
    return transform._problem.kernel_rows(x) @ transform.coef


def mp_solved(kernel, landmarks):
    """The transform of a radial kernel without tail, solved by the double-double mp_solve."""
    [(z, residual)] = _precision.mp_solve(kernel, False, landmarks.sources[None], None, [],
                                          landmarks.targets[None])
    return GlobalRadialTransform(_Problem(kernel, landmarks.sources, None), landmarks, z,
                                 residual, 1.0, "mp")


def multi_chunk_case(name):
    """(transform, points) of an evaluation of more than one chunk."""
    if name == "flat-gaussian-double-double":
        landmarks, grid, _ = gen_case(CaseSpec("square-shift-32"))
        return build_method("g", landmarks, "square-shift-32", 0.2), grid.points
    side = 8 if name.endswith("double-double") else 20
    landmarks = jittered_lattice(side, seed=5)
    x = default_grid(5 * side, 5 * side).points * 1.2 - 0.1
    if name == "wendland-1dx1d":
        return solve_transform(Wendland1D(1, 12.0), landmarks), x
    solve = mp_solved if name.endswith("double-double") else solve_transform
    return solve(WendlandRadial(2, 1, np.sqrt(np.pi * landmarks.n / 30)), landmarks), x


@pytest.mark.parametrize("name", ["wendland-radial", "wendland-1dx1d",
                                  "wendland-radial-double-double", "flat-gaussian-double-double"])
def test_multi_chunk_evaluation_matches_one_block(name):
    transform, x = multi_chunk_case(name)
    problem = transform._problem
    step = chunk_rows(problem.n, _entry_bytes(transform._z))
    assert len(x) > 4 * step
    values = transform(x)
    if isinstance(transform.kernel, Gaussian):
        # no culling, and a double-double product is a pairwise sum per row: the same bits
        assert transform.precision == "mp"
        block = problem.eval_rows(DDArray(x))
        assert np.array_equal(values, (block @ transform.coef).to_float())
        return
    assert len(problem.reaching(x[:step])) < problem.n          # the chunks are culled
    if transform.precision == "double":
        expected = one_block(transform, x)
        assert np.abs(values - expected).max() <= 1e-14 * np.abs(expected).max()
        return
    # culling drops exact zeros from each row's pairwise sum, which moves its rounding
    assert transform.precision == "mp"
    block = problem.kernel_rows(DDArray(x))
    expected = (block @ transform.coef).to_float()
    bound = 16 * 2.0 ** -100 * np.abs(block.to_float()) @ np.abs(transform.coef.to_float())
    assert (np.abs(values - expected) <= bound + np.spacing(np.abs(expected))).all()


@pytest.mark.parametrize("method,value", [("w2-2d", 0.6), ("w4-1dx1d", 1.0), ("tps", None),
                                          ("l6", 0.4)])
def test_single_chunk_evaluation_is_bitwise_one_block(method, value):
    landmarks, grid, _ = gen_case(CaseSpec("square-scale-64"))
    transform = build_method(method, landmarks, "square-scale-64", value)
    x = grid.points
    assert len(x) <= chunk_rows(landmarks.n, 16)
    assert transform.precision in ("double", "longdouble")
    if transform.precision == "longdouble":
        x = x.astype(np.longdouble)
    expected = one_block(transform, x)
    if transform.tail_degree is not None:
        expected = expected + monomial_matrix(x, transform.tail_degree) @ transform.poly_coef
    assert np.array_equal(transform(grid.points), np.asarray(expected, dtype=float))


def dense_lattice():
    """1000 landmarks of a jittered 32 x 32 lattice, as the scale-dense benchmark has."""
    landmarks = jittered_lattice(32, seed=6)
    return landmarks.subset(np.sort(np.random.default_rng(7).choice(landmarks.n, 1000,
                                                                    replace=False)))


def traced_peak(evaluate):
    """(result, tracemalloc peak in bytes) of one call."""
    tracemalloc.start()
    try:
        result = evaluate()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_wendland_evaluation_memory_is_bounded():
    landmarks = dense_lattice()
    transform = solve_transform(WendlandRadial(2, 1, np.sqrt(np.pi * 1000 / 30)), landmarks)
    values, peak = traced_peak(lambda: transform(default_grid(141, 141).points))
    assert np.isfinite(values).all()
    assert peak < 32 * 2 ** 20


def test_dense_tps_evaluation_memory_is_one_workspace():
    """The TPS warp of scale-dense's size holds what its chunk workspace design allows.

    Two blocks of one chunk (CHUNK_BYTES each), the per-axis distance
    tables of the whole grid (two of 141 x N here, about half a chunk
    together), the kernel's two boolean masks over a block (an eighth of a
    chunk each), and four (P, m) float64 arrays: the output, the tables'
    row indices (one array's worth) and two spare.
    """
    landmarks = dense_lattice()
    transform = solve_transform(ThinPlateSpline(), landmarks)
    grid = default_grid(141, 141).points
    values, peak = traced_peak(lambda: transform(grid))
    assert np.isfinite(values).all()
    assert peak < 2 * CHUNK_BYTES + CHUNK_BYTES // 2 + 2 * CHUNK_BYTES // 8 + 4 * grid.nbytes


def test_dense_shepard_evaluation_holds_no_points_by_landmarks_array():
    landmarks = dense_lattice()
    transform = build_shepard_transform(landmarks, ShepardConfig(ThinPlateSpline(), 25, 25))
    grid = default_grid(141, 141).points
    values, peak = traced_peak(lambda: transform(grid))
    assert np.isfinite(values).all()
    assert peak < len(grid) * landmarks.n * 8 / 2     # half a dense (P, N) float64 array


def test_tiled_k_nearest_measures_a_fraction_of_all_pairs(monkeypatch):
    src = dense_lattice().sources
    pts = default_grid(141, 141).points
    entries = []
    measure = landreg.landmarks.squared_distances

    def counted(points, sources):
        entries.append(len(points) * len(sources))
        return measure(points, sources)

    monkeypatch.setattr(landreg.landmarks, "squared_distances", counted)
    indices, dist2 = k_nearest(src, pts, 25)
    assert len(entries) > 1
    assert sum(entries) <= 0.25 * len(pts) * len(src)
    sample = np.sort(np.random.default_rng(11).choice(len(pts), 400, replace=False))
    assert len(sample) <= chunk_rows(len(src))
    expected, expected_d2 = k_nearest(src, pts[sample], 25)
    assert np.array_equal(indices[sample], expected)
    assert np.array_equal(dist2[sample], expected_d2)
