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

from landreg.bench import CASE_KINDS, CaseSpec, build_method, default_grid, gen_case
from landreg.kernels import Gaussian, Wendland1D, WendlandRadial
from landreg.landmarks import MIN_SEPARATION, LandmarkSet, chunk_rows, k_nearest
from landreg.shepard import (SNAP_RADIUS, ShepardConfig, _weights_matrix,
                             nearest_landmarks, node_radii)
from landreg.transform import monomial_matrix, solve_transform

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
        wbar = weights / weights.sum(axis=1)[:, None]
    snapped = d2.min(axis=1) < SNAP_RADIUS ** 2
    if snapped.any():
        hit = np.argmax(d2[snapped] < SNAP_RADIUS ** 2, axis=1)
        wbar[snapped] = 0.0
        wbar[np.flatnonzero(snapped), hit] = 1.0
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
        assert np.array_equal(_weights_matrix(landmarks, cfg, radii, pts),
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
        wbar = _weights_matrix(landmarks, ShepardConfig(Gaussian(1.0), 1, k),
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
    indices, _ = k_nearest(src, pts, 9)
    d2 = ((pts[:, None, :] - src[None, :, :]) ** 2).sum(-1)
    assert np.array_equal(indices, np.argsort(d2, axis=1, kind="stable")[:, :9])


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


@pytest.mark.parametrize("build", [
    lambda lm: solve_transform(WendlandRadial(2, 1, np.sqrt(np.pi * lm.n / 30)), lm),
    lambda lm: solve_transform(Wendland1D(1, 12.0), lm),
], ids=["wendland-radial", "wendland-1dx1d"])
def test_multi_chunk_evaluation_matches_one_block(build):
    landmarks = jittered_lattice(20, seed=5)
    transform = build(landmarks)
    assert transform.precision == "double"
    x = default_grid(100, 100).points * 1.2 - 0.1
    assert len(x) > 4 * chunk_rows(landmarks.n)
    values = transform(x)
    expected = one_block(transform, x)
    assert np.abs(values - expected).max() <= 1e-14 * np.abs(expected).max()


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


def test_dense_wendland_evaluation_memory_is_bounded():
    landmarks = jittered_lattice(32, seed=6)
    landmarks = landmarks.subset(np.sort(np.random.default_rng(7).choice(landmarks.n, 1000,
                                                                         replace=False)))
    transform = solve_transform(WendlandRadial(2, 1, np.sqrt(np.pi * 1000 / 30)), landmarks)
    grid = default_grid(141, 141).points
    tracemalloc.start()
    try:
        values = transform(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(values).all()
    assert peak < 32 * 2 ** 20
