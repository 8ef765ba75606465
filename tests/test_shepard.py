import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landreg import shepard, transform
from landreg.bench import CASE_KINDS, CaseSpec, build_method, default_grid, gen_case
from landreg.kernels import Gaussian, ThinPlateSpline, WendlandRadial
from landreg.landmarks import CHUNK_BYTES, LandmarkSet
from landreg.shepard import (SNAP_RADIUS, NodalSolveError, ShepardConfig,
                             build_nodal_interpolants, build_shepard_transform,
                             nearest_landmarks, node_radii)
from landreg.transform import _Problem, solve_transform
from weights import scattered_weights


def square_cloud(n_side=5, lo=0.1, hi=0.9, jitter=0.0, seed=0):
    xs = np.linspace(lo, hi, n_side)
    src = np.array([(x, y) for y in xs for x in xs])
    if jitter:
        rng = np.random.RandomState(seed)
        src = src + rng.uniform(-jitter, jitter, src.shape)
    return src


def displaced(src, seed=1, amplitude=0.04):
    rng = np.random.RandomState(seed)
    return src + rng.uniform(-amplitude, amplitude, src.shape)


TPS_CFG = ShepardConfig(ThinPlateSpline(), n_l=10, n_w=8)


def shepard_weights(lm, cfg, x):
    """Partition-of-unity weight vector Wbar(x) of length N at one point x."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    return scattered_weights(lm, cfg, node_radii(lm, cfg), pts)[0]


def test_nearest_landmarks_basics():
    lm = LandmarkSet([[0.0], [1.0], [2.0]], [[0.0], [1.0], [2.0]])
    assert list(nearest_landmarks(lm, [0.9], 1)) == [1]
    assert list(nearest_landmarks(lm, [0.9], 3)) == [1, 0, 2]


def test_nearest_landmarks_tie_breaks_by_index():
    lm = LandmarkSet([[0.0], [2.0], [4.0]], [[0.0], [2.0], [4.0]])
    # x = 1 is exactly equidistant from landmarks 0 and 1
    assert list(nearest_landmarks(lm, [1.0], 2)) == [0, 1]
    lm2 = LandmarkSet([[5.0], [0.0], [2.0]], [[5.0], [0.0], [2.0]])
    assert list(nearest_landmarks(lm2, [1.0], 1)) == [1]


def test_nearest_landmarks_k_bounds():
    lm = LandmarkSet([[0.0], [1.0]], [[0.0], [1.0]])
    with pytest.raises(ValueError):
        nearest_landmarks(lm, [0.5], 3)
    with pytest.raises(ValueError):
        nearest_landmarks(lm, [0.5], 0)


def test_nearest_landmarks_rejects_bad_points_and_k():
    lm = LandmarkSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                     [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    for x in ([0.95], [0.1, 0.2, 0.3], [[0.1, 0.2]], 0.5, [np.nan, 0.0], [0.0, np.inf]):
        with pytest.raises(ValueError, match="x must be a finite point of shape"):
            nearest_landmarks(lm, x, 2)
    for k in (2.5, 2.0, True, "2", None, 0, 5):
        with pytest.raises(ValueError, match=r"k must be an integer in 1\.\.4"):
            nearest_landmarks(lm, [0.9, 0.1], k)
    assert list(nearest_landmarks(lm, (0.9, 0.1), np.int64(2))) == [1, 0]


def test_config_validation():
    with pytest.raises(ValueError):
        ShepardConfig(ThinPlateSpline(), n_l=0, n_w=5)
    for n_l, n_w in ((2.5, 4), (2, 4.0), ("4", 4), (4, True), (None, 4)):
        with pytest.raises(ValueError, match="must be an integer"):
            ShepardConfig(Gaussian(1.0), n_l=n_l, n_w=n_w)
    cfg = ShepardConfig(Gaussian(1.0), n_l=np.int64(2), n_w=np.int32(4))
    src = square_cloud(3)
    assert build_shepard_transform(LandmarkSet(src, src), cfg).residual < 1e-12
    with pytest.raises(ValueError):
        ShepardConfig(ThinPlateSpline(), n_l=5, n_w=5, rho=-1.0)
    src = square_cloud(3)
    lm = LandmarkSet(src, src)
    with pytest.raises(ValueError):  # n_l > N
        build_nodal_interpolants(lm, ShepardConfig(ThinPlateSpline(), 25, 5))
    with pytest.raises(ValueError):  # TPS tail needs n_l > 3
        build_nodal_interpolants(lm, ShepardConfig(ThinPlateSpline(), 3, 5))


def test_nodal_interpolants_satisfy_local_conditions():
    src = square_cloud(5, jitter=0.02)
    lm = LandmarkSet(src, displaced(src))
    nodal = build_nodal_interpolants(lm, TPS_CFG)
    assert len(nodal) == lm.n
    for nf in nodal:
        assert nf.center in nf.neighbors
        local = nf.interpolant
        assert np.abs(local(lm.sources[nf.neighbors]) - lm.targets[nf.neighbors]).max() < 1e-6
        assert np.abs(local(lm.sources[nf.center]) - lm.targets[nf.center]).max() < 1e-8


def test_nodal_with_full_neighborhood_is_global():
    from landreg.transform import solve_transform
    src = square_cloud(4)
    lm = LandmarkSet(src, displaced(src))
    cfg = ShepardConfig(ThinPlateSpline(), n_l=lm.n, n_w=lm.n)
    t = build_shepard_transform(lm, cfg)
    global_t = solve_transform(ThinPlateSpline(), lm)
    probes = square_cloud(7, 0.15, 0.85)
    # every nodal function is the global interpolant, so the blend is too
    assert np.abs(t(probes) - global_t(probes)).max() < 1e-9


def test_single_point_nodal_function():
    src = square_cloud(3)
    lm = LandmarkSet(src, displaced(src))
    cfg = ShepardConfig(Gaussian(1.0), n_l=1, n_w=4)
    nodal = build_nodal_interpolants(lm, cfg)
    for j, nf in enumerate(nodal):
        # L_j has one term c = t_j / Phi(0) = t_j
        assert np.allclose(nf.interpolant.coef[0], lm.targets[j], atol=1e-14)


def test_weights_are_cardinal_at_landmarks():
    src = square_cloud(4, jitter=0.03, seed=3)
    lm = LandmarkSet(src, src)
    cfg = ShepardConfig(ThinPlateSpline(), n_l=8, n_w=6)
    for j in range(lm.n):
        w = shepard_weights(lm, cfg, lm.sources[j])
        expected = np.zeros(lm.n)
        expected[j] = 1.0
        assert np.array_equal(w, expected)


def test_points_within_snap_radius_take_the_landmark_target():
    src = square_cloud(4, jitter=0.03, seed=3)
    lm = LandmarkSet(src, displaced(src, seed=14))
    # one-landmark Gaussian nodal functions: L_j(x) = t_j exp(-|x - x_j|^2),
    # and exp(-r^2) rounds to exactly 1 for r below the snap radius
    cfg = ShepardConfig(Gaussian(1.0), n_l=1, n_w=6)
    t = build_shepard_transform(lm, cfg)
    j = 5
    near = lm.sources[j] + [0.5 * SNAP_RADIUS, 0.0]
    assert not np.array_equal(near, lm.sources[j])
    expected = np.zeros(lm.n)
    expected[j] = 1.0
    assert np.array_equal(shepard_weights(lm, cfg, near), expected)
    assert np.array_equal(t(near), lm.targets[j])
    outside = lm.sources[j] + [2.0 * SNAP_RADIUS, 0.0]
    assert (shepard_weights(lm, cfg, outside) > 0).sum() > 1


def test_snapped_point_takes_the_weight_of_its_nearest_landmark():
    # landmarks 0 and 1 are 1.5e-12 apart, so the probe is within SNAP_RADIUS
    # of both; it is nearer landmark 1, and that one takes all its weight
    src = np.vstack([[[0.5, 0.5], [0.5 + 1.5e-12, 0.5]], square_cloud(2, 0.0, 1.0)])
    lm = LandmarkSet(src, displaced(src))
    probe = np.array([0.5 + 0.9e-12, 0.5])
    d = np.sqrt(((src[:2] - probe) ** 2).sum(1))
    assert d[1] < d[0] < SNAP_RADIUS
    cfg = ShepardConfig(Gaussian(1.0), n_l=1, n_w=4)
    expected = np.zeros(lm.n)
    expected[1] = 1.0
    assert np.array_equal(shepard_weights(lm, cfg, probe), expected)
    assert np.array_equal(build_shepard_transform(lm, cfg)(probe), lm.targets[1])


def test_weights_partition_of_unity_and_nonnegative():
    src = square_cloud(5, jitter=0.02, seed=4)
    lm = LandmarkSet(src, src)
    cfg = ShepardConfig(ThinPlateSpline(), n_l=8, n_w=7)
    rng = np.random.RandomState(5)
    pts = rng.uniform(-0.2, 1.2, (500, 2))
    for x in pts[:50]:
        w = shepard_weights(lm, cfg, x)
        assert (w >= 0.0).all()
        assert abs(w.sum() - 1.0) <= 1e-12


def test_weights_symmetric_pair():
    lm = LandmarkSet([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]])
    cfg = ShepardConfig(Gaussian(1.0), n_l=1, n_w=2)
    w = shepard_weights(lm, cfg, [0.5, 0.0])
    assert w[0] == pytest.approx(0.5, abs=1e-15)
    assert w[1] == pytest.approx(0.5, abs=1e-15)


def test_weights_fall_back_to_nearest_rule_outside_all_cubes():
    src = square_cloud(3, 0.4, 0.6)
    lm = LandmarkSet(src, src)
    cfg = ShepardConfig(Gaussian(1.0), n_l=2, n_w=3, rho=1e-6)
    w = shepard_weights(lm, cfg, [0.0, 0.0])  # far outside every tiny cube
    assert abs(w.sum() - 1.0) <= 1e-12
    assert (w > 0).sum() == 3  # exactly the three nearest carry weight


def test_shepard_interpolates_landmarks():
    src = square_cloud(5, jitter=0.02, seed=6)
    lm = LandmarkSet(src, displaced(src, seed=7))
    t = build_shepard_transform(lm, TPS_CFG)
    assert np.abs(t(lm.sources) - lm.targets).max() < 1e-8
    assert t.residual < 1e-8


def test_identity_targets_reproduced_between_landmarks():
    src = square_cloud(5)
    lm = LandmarkSet(src, src)
    t = build_shepard_transform(lm, TPS_CFG)
    rng = np.random.RandomState(8)
    probes = rng.uniform(0.1, 0.9, (100, 2))
    assert np.abs(t(probes) - probes).max() < 1e-8


@st.composite
def affine_problems(draw):
    """Landmarks on a jittered 1-3-D lattice mapped by a random affine F, probes, (N_L, N_W)."""
    m = draw(st.integers(1, 3))
    side = draw(st.integers(3 if m == 1 else 2, {1: 12, 2: 5, 3: 3}[m]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cells = np.stack(np.meshgrid(*[np.arange(side)] * m, indexing="ij"), -1).reshape(-1, m)
    src = (cells + 0.5 + rng.uniform(-0.35, 0.35, cells.shape)) / side
    a, b = rng.uniform(-2.0, 2.0, (m, m)), rng.uniform(-1.0, 1.0, m)
    probes = rng.uniform(-0.2, 1.2, (30, m))
    n_l = draw(st.integers(m + 2, len(src)))
    n_w = draw(st.integers(1, len(src)))
    return LandmarkSet(src, src @ a.T + b), probes, probes @ a.T + b, n_l, n_w


@settings(max_examples=60, deadline=None)
@given(affine_problems())
def test_tps_and_shepard_tps_reproduce_affine_maps(problem):
    """A degree-1 tail reproduces an affine map, and Shepard's weights sum to one."""
    lm, probes, want, n_l, n_w = problem
    tolerance = 1e-9 * np.maximum(1.0, np.abs(want).max(axis=1))
    for t in (solve_transform(ThinPlateSpline(), lm),
              build_shepard_transform(lm, ShepardConfig(ThinPlateSpline(), n_l, n_w))):
        assert (np.abs(t(probes) - want).max(axis=1) <= tolerance).all()


def test_locality_perturbation_is_bit_exact():
    # two well-separated clusters; neighborhoods stay inside one cluster
    rng = np.random.RandomState(10)
    cluster_a = square_cloud(3, 0.05, 0.25, jitter=0.01, seed=11)
    cluster_b = square_cloud(3, 0.75, 0.95, jitter=0.01, seed=12)
    src = np.vstack([cluster_a, cluster_b])
    tgt = displaced(src, seed=13)
    cfg = ShepardConfig(Gaussian(2.0), n_l=6, n_w=6)
    x = np.array([0.15, 0.15])  # deep inside cluster a's territory

    base = build_shepard_transform(LandmarkSet(src, tgt), cfg)
    tgt_perturbed = tgt.copy()
    j = len(cluster_a) + 4  # a cluster-b landmark
    tgt_perturbed[j] += rng.uniform(0.01, 0.05, 2)
    perturbed = build_shepard_transform(LandmarkSet(src, tgt_perturbed), cfg)

    w = scattered_weights(LandmarkSet(src, tgt), cfg,
                          node_radii(LandmarkSet(src, tgt), cfg), x[None])[0]
    assert w[j] == 0.0
    assert np.array_equal(base(x), perturbed(x))


@st.composite
def local_problems(draw):
    """Landmarks on a jittered 1-3-D lattice, their targets, probes and a Shepard config."""
    m = draw(st.integers(1, 3))
    side = draw(st.integers(3 if m == 1 else 2, {1: 16, 2: 6, 3: 3}[m]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cells = np.stack(np.meshgrid(*[np.arange(side)] * m, indexing="ij"), -1).reshape(-1, m)
    src = (cells + 0.5 + rng.uniform(-0.35, 0.35, cells.shape)) / side
    tgt = src + rng.uniform(-0.3, 0.3, src.shape) / side
    probes = np.concatenate([rng.uniform(-0.2, 1.2, (40, m)), src[rng.permutation(len(src))[:3]]])
    kernel = draw(st.sampled_from([Gaussian(0.1 * side), Gaussian(3.0 * side), ThinPlateSpline()]))
    low = m + 2 if isinstance(kernel, ThinPlateSpline) else 1
    n_l = draw(st.integers(low, max(low, len(src) // 2)))
    n_w = draw(st.integers(1, len(src)))
    rho = draw(st.one_of(st.none(), st.floats(0.05, 1.5)))
    return LandmarkSet(src, tgt), probes, ShepardConfig(kernel, n_l, n_w, rho), rng


@settings(max_examples=40, deadline=None)
@given(local_problems())
def test_shepard_weights_and_values_are_local(problem):
    """Weights are a partition of unity over the N_W nearest, and F(x) reads only their fits.

    A landmark in no neighbourhood of x's weighted nodes may have its
    target moved without a bit of F(x) moving.
    """
    lm, probes, cfg, rng = problem
    t = build_shepard_transform(lm, cfg)
    wbar = scattered_weights(lm, cfg, t.rho, probes)
    assert (wbar >= 0.0).all()
    assert np.abs(wbar.sum(axis=1) - 1.0).max() <= 4 * cfg.n_w * np.finfo(float).eps
    d2 = ((probes[:, None] - lm.sources[None]) ** 2).sum(-1)
    kth = np.sort(d2, axis=1)[:, cfg.n_w - 1]
    weighted = wbar > 0.0
    assert (weighted.sum(axis=1) <= cfg.n_w).all()
    assert (np.where(weighted, d2, 0.0) <= kth[:, None] * (1.0 + 1e-12)).all()

    k = int(rng.integers(lm.n))
    moved = lm.targets.copy()
    moved[k] += rng.uniform(-0.5, 0.5, lm.dimension) / lm.n ** (1.0 / lm.dimension)
    neighbors = np.array([nf.neighbors for nf in t.nodal])
    reads = np.array([np.isin(k, neighbors[row]) for row in weighted])
    far = probes[~reads]
    if len(far):
        other = build_shepard_transform(LandmarkSet(lm.sources, moved), cfg)
        assert np.array_equal(t(far), other(far))


def test_degenerate_neighborhood_reports_node():
    src = np.column_stack([np.linspace(0.0, 1.0, 6), np.zeros(6)])
    lm = LandmarkSet(src, src + [0.0, 0.1])
    cfg = ShepardConfig(ThinPlateSpline(), n_l=4, n_w=4)
    with pytest.raises(NodalSolveError, match="nodal interpolant"):
        build_nodal_interpolants(lm, cfg)


def test_degenerate_neighborhood_after_the_first_names_its_own_node():
    """Only landmark 3's neighborhood is collinear; the stacked solve names it.

    The message carries the residual and condition estimate of node 3's own
    system, as a solve of that neighborhood alone reports them.
    """
    src = np.array([[-0.2, 0.05], [0.0, 0.0], [0.38, 0.05],
                    [0.1, 0.0], [0.2, 0.0], [0.35, 0.0]])
    lm = LandmarkSet(src, src + [0.0, 0.1])
    cfg = ShepardConfig(ThinPlateSpline(), n_l=4, n_w=4)
    neighbors = [nearest_landmarks(lm, x, 4) for x in src]
    collinear = [j for j, idx in enumerate(neighbors)
                 if np.linalg.matrix_rank(np.c_[np.ones(4), src[idx]]) < 3]
    assert collinear == [3]
    from landreg.transform import SolveError, solve_transform
    with pytest.raises(SolveError) as alone:
        solve_transform(ThinPlateSpline(), lm.subset(neighbors[3]))
    with pytest.raises(NodalSolveError) as stacked:
        build_nodal_interpolants(lm, cfg)
    assert str(stacked.value) == f"nodal interpolant 3: {alone.value}"
    assert "best residual" in str(stacked.value) and "condition estimate" in str(stacked.value)


def test_stacked_nodal_solves_equal_single_solves():
    """Each nodal interpolant of a stacked build carries the bits of its own solve.

    At alpha = 1.2 some Gaussian nodal systems stay in float64 and the
    others go on as one 80-bit stack; the TPS ones all stay in float64.
    """
    src = square_cloud(6, jitter=0.02, seed=2)
    lm = LandmarkSet(src, displaced(src))
    from landreg.transform import solve_transform
    for kernel in (Gaussian(1.2), ThinPlateSpline()):
        nodal = build_nodal_interpolants(lm, ShepardConfig(kernel, n_l=12, n_w=8))
        for nf in nodal:
            alone = solve_transform(kernel, lm.subset(nf.neighbors))
            assert nf.interpolant.precision == alone.precision
            assert nf.interpolant.residual == alone.residual
            assert nf.interpolant.condition == alone.condition
            got, want = nf.interpolant._z, alone._z
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
        rungs = {nf.interpolant.precision for nf in nodal}
        assert rungs == ({"double", "longdouble"} if isinstance(kernel, Gaussian) else {"double"})


def test_case1_nodal_residuals():
    from landreg.bench import CaseSpec, gen_case
    landmarks, _, _ = gen_case(CaseSpec("square-shift-32"))
    cfg = ShepardConfig(ThinPlateSpline(), n_l=25, n_w=25)
    nodal = build_nodal_interpolants(landmarks, cfg)
    assert len(nodal) == 36
    for nf in nodal:
        neighbors = nf.neighbors
        gap = np.abs(nf.interpolant(landmarks.sources[neighbors])
                     - landmarks.targets[neighbors]).max()
        assert gap <= 1e-6


def test_node_radii_rules():
    src = square_cloud(3)
    lm = LandmarkSet(src, src)
    fixed = node_radii(lm, ShepardConfig(Gaussian(1.0), 2, 3, rho=0.7))
    assert np.array_equal(fixed, np.full(lm.n, 0.7))
    auto = node_radii(lm, ShepardConfig(Gaussian(1.0), 2, 3))
    for j in range(lm.n):
        d = np.sort(np.sqrt(((src - src[j]) ** 2).sum(1)))
        assert auto[j] == pytest.approx(2.0 * d[2], rel=1e-15)


# ---------------------------------------------------------------------------
# nodal evaluation from one shared kernel block per rung


def per_node_evaluation(t, points):
    """Shepard evaluation with one interpolant call per node: the reference for shared blocks."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    wbar = scattered_weights(t.landmarks, t.config, t.rho, pts)
    out = np.zeros((len(pts), t.landmarks.dimension))
    for nf in t.nodal:
        active = np.flatnonzero(wbar[:, nf.center])
        if len(active):
            out[active] += wbar[active, nf.center, None] * nf.interpolant(pts[active])
    return out


@pytest.fixture
def shared_blocks(monkeypatch):
    """(rung, taken) of every shared block an evaluation asks for; taken is False where refused."""
    built = []
    shared_values = shepard._shared_values

    def spy(kernel, landmarks, members, pts):
        values = shared_values(kernel, landmarks, members, pts)
        if members:
            built.append((members[0][0].interpolant.precision, values is not None))
        return values

    monkeypatch.setattr(shepard, "_shared_values", spy)
    return built


@pytest.fixture
def gathered(monkeypatch, shared_blocks):
    """(rung, bitwise) of every member evaluated from a shared block.

    bitwise: its values carry the bits of its interpolant's own evaluation at its points.
    """
    out = []
    shared_values = shepard._shared_values

    def spy(kernel, landmarks, members, pts):
        values = shared_values(kernel, landmarks, members, pts)
        if values is None:
            return None

        def checked(nf, active):
            got = values(nf, active)
            out.append((nf.interpolant.precision,
                        np.array_equal(got, nf.interpolant(pts[active]))))
            return got
        return checked

    monkeypatch.setattr(shepard, "_shared_values", spy)
    return out


def assert_same_bits(got, want):
    """Equal values, dtypes and sign bits, without longdouble's padding bytes."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def assert_bitwise_per_node(t, points):
    got, want = np.atleast_2d(t(points)), per_node_evaluation(t, points)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def rungs(t):
    return {nf.interpolant.precision for nf in t.nodal}


GRID = default_grid(40, 40).points


def test_shared_block_tps_with_tail_on_a_grid_is_bitwise(shared_blocks):
    src = square_cloud(6, jitter=0.02, seed=2)
    t = build_shepard_transform(LandmarkSet(src, displaced(src)), TPS_CFG)
    assert rungs(t) == {"double"} and t.nodal[0].interpolant.tail_degree == 1
    assert_bitwise_per_node(t, GRID)
    assert shared_blocks == [("double", True)]


def test_shared_blocks_of_mixed_float64_and_80bit_nodes_are_bitwise(shared_blocks):
    src = square_cloud(6, jitter=0.02, seed=2)
    t = build_shepard_transform(LandmarkSet(src, displaced(src)),
                                ShepardConfig(Gaussian(1.2), n_l=16, n_w=12))
    assert rungs(t) == {"double", "longdouble"}
    assert_bitwise_per_node(t, GRID)
    assert shared_blocks == [("double", True), ("longdouble", True)]


@pytest.mark.parametrize("alpha, mp_nodes", [(2.0, 4), (1.2, 2), (0.4, 1)])
def test_double_double_nodes_share_a_block_or_record_the_refusal(shared_blocks, gathered,
                                                                 alpha, mp_nodes):
    landmarks, grid, _ = gen_case(CaseSpec("square-scale-64"))
    t = build_method("shep-g", landmarks, "square-scale-64", alpha)
    mp = [nf for nf in t.nodal if nf.interpolant.precision == "mp"]
    assert len(mp) == mp_nodes
    assert_bitwise_per_node(t, grid.points)
    # one node's block is its own; on the grid, that of several is larger than theirs together.
    # The refused rung is then cut into cells: alpha = 2.0's 4 nodes into two cells of 2, one
    # of which takes its block; alpha = 1.2's 2 nodes into two cells of 1, which ask for none
    cells = {4: [("mp", True), ("mp", False)], 2: [], 1: []}[mp_nodes]
    assert shared_blocks == [("longdouble", True), ("mp", mp_nodes == 1)] + cells
    assert all(bitwise for rung, bitwise in gathered if rung == "mp")
    assert [rung for rung, _ in gathered].count("mp") == {4: 2, 2: 0, 1: 1}[mp_nodes]
    # around each double-double centre it is one chunk of that rung, and taken
    for nf in mp:
        near = grid.points[np.abs(grid.points - landmarks.sources[nf.center]).max(1) < 0.08]
        shared_blocks.clear()
        gathered.clear()
        t(near)
        assert ("mp", True) in shared_blocks
        from_block = [bitwise for rung, bitwise in gathered if rung == "mp"]
        assert from_block and all(from_block)


def test_shared_block_of_1d_nodes_keeps_the_layouts_of_their_own_blocks(shared_blocks):
    # with one output coordinate a float64 product is a gemv, whose bits follow the operands'
    # memory order: the gathered kernel rows are C-ordered and the tail's Fortran-ordered,
    # as a node's own evaluation makes them
    rng = np.random.default_rng(4)
    src = (np.arange(12)[:, None] + 0.5 + rng.uniform(-0.35, 0.35, (12, 1))) / 12
    t = build_shepard_transform(LandmarkSet(src, src + rng.uniform(-0.02, 0.02, src.shape)),
                                ShepardConfig(ThinPlateSpline(), n_l=6, n_w=8))
    probes = rng.uniform(-0.1, 1.1, (300, 1))
    assert_same_bits(t(probes), per_node_evaluation(t, probes))
    assert shared_blocks == [("double", True)]


def test_block_larger_than_the_separate_blocks_is_refused(shared_blocks):
    src = square_cloud(20, 0.0, 1.0)
    t = build_shepard_transform(LandmarkSet(src, displaced(src, amplitude=0.01)),
                                ShepardConfig(ThinPlateSpline(), n_l=4, n_w=4))
    assert t.landmarks.n == 400
    assert_bitwise_per_node(t, GRID)
    # the whole rung's refusal comes first; then each of its 100 cells of 2 x 2 nodes asks
    # for a block of its own, and 4 of them pay
    assert shared_blocks[0] == ("double", False)
    assert [len(cell) for cell in shepard._cells(t.landmarks, [(nf, None) for nf in t.nodal])] \
        == [4] * 100
    assert len(shared_blocks) == 101 and {rung for rung, _ in shared_blocks} == {"double"}
    assert [taken for _, taken in shared_blocks[1:]].count(True) == 4


@pytest.fixture
def cell_calls(monkeypatch):
    """(centres of the members, taken) of every _shared_values call with members."""
    calls = []
    shared_values = shepard._shared_values

    def spy(kernel, landmarks, members, pts):
        values = shared_values(kernel, landmarks, members, pts)
        if members:
            calls.append(([nf.center for nf, _ in members], values is not None))
        return values

    monkeypatch.setattr(shepard, "_shared_values", spy)
    return calls


def jittered_lattice(n_side, seed, extra=()):
    """An n_side x n_side jittered lattice in [0, 1]^2, plus the extra sources, displaced."""
    src = np.vstack([square_cloud(n_side, 0.02, 0.98, jitter=0.3 / n_side, seed=seed),
                     np.reshape(extra, (-1, 2))])
    return LandmarkSet(src, displaced(src, seed=seed + 1, amplitude=0.2 / n_side))


def expected_cells(t, calls):
    """The cells of the rung whose whole block the first call refused, as centre lists."""
    whole, taken = calls[0]
    assert not taken
    cells = shepard._cells(t.landmarks, [(t.nodal[j], None) for j in whole])
    return [[nf.center for nf, _ in cell] for cell in cells]


@pytest.mark.parametrize("kernel", [ThinPlateSpline(), WendlandRadial(2, 1, 4.0)],
                         ids=["tps", "wendland"])
def test_grouped_warp_is_bitwise_per_node(cell_calls, kernel):
    t = build_shepard_transform(jittered_lattice(20, 3), ShepardConfig(kernel, n_l=16, n_w=9))
    assert rungs(t) == {"double"}
    got = t(GRID)
    assert_same_bits(got, per_node_evaluation(t, GRID))
    # the whole rung is refused, then every cell of two or more nodes asks once, in cell order
    cells = expected_cells(t, cell_calls)
    assert [centres for centres, _ in cell_calls[1:]] == [cell for cell in cells if len(cell) > 1]
    assert sum(taken for _, taken in cell_calls[1:]) > len(cells) // 2


def test_a_cell_of_one_node_asks_for_no_block(cell_calls):
    # a landmark far to the right of the lattice sits in a cell of its own
    t = build_shepard_transform(jittered_lattice(20, 5, extra=[1.4, 0.5]), TPS_CFG)
    lone = t.landmarks.n - 1
    pts = default_grid(40, 60).points * [1.5, 1.0]
    assert_same_bits(t(pts), per_node_evaluation(t, pts))
    cells = expected_cells(t, cell_calls)
    assert [lone] in cells and lone in cell_calls[0][0]
    assert all(lone not in centres and len(centres) > 1 for centres, _ in cell_calls[1:])
    assert [centres for centres, _ in cell_calls[1:]] == [cell for cell in cells if len(cell) > 1]


def test_one_cell_block_is_alive_at_a_time(monkeypatch):
    alive = []
    shared_values = shepard._shared_values

    def spy(kernel, landmarks, members, pts):
        assert all(block() is None for block in alive)
        values = shared_values(kernel, landmarks, members, pts)
        if values is not None:
            alive.append(weakref.ref(values))
        return values

    monkeypatch.setattr(shepard, "_shared_values", spy)
    t = build_shepard_transform(jittered_lattice(20, 3), ShepardConfig(ThinPlateSpline(), 16, 9))
    t(GRID)
    assert len(alive) > 10 and all(block() is None for block in alive)


def test_a_point_weighed_from_several_cells_blocks_keeps_its_bits(cell_calls):
    t = build_shepard_transform(jittered_lattice(20, 3), ShepardConfig(ThinPlateSpline(), 16, 9))
    got, want = t(GRID), per_node_evaluation(t, GRID)
    cell_of = {j: i for i, (centres, taken) in enumerate(cell_calls[1:]) if taken
               for j in centres}
    wbar = scattered_weights(t.landmarks, t.config, t.rho, GRID)
    spread = [p for p, row in enumerate(wbar)
              if len({cell_of.get(j) for j in np.flatnonzero(row)} - {None}) > 1]
    assert spread
    for p in spread[:20]:
        assert_same_bits(got[p], want[p])


@st.composite
def grouped_problems(draw):
    """A Shepard warp whose whole nodal block is refused: a 1-3-D jittered lattice of 81-216
    landmarks, radial nodes with bits of their own form, and probes over the lattice."""
    m = draw(st.integers(1, 3))
    side = draw(st.integers(*{1: (90, 200), 2: (9, 14), 3: (5, 6)}[m]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cells = np.stack(np.meshgrid(*[np.arange(side)] * m, indexing="ij"), -1).reshape(-1, m)
    src = (cells + 0.5 + rng.uniform(-0.35, 0.35, cells.shape)) / side
    tgt = src + rng.uniform(-0.3, 0.3, src.shape) / side
    probes = rng.uniform(-0.1, 1.1, (draw(st.integers(100, 400)), m))
    kernel = draw(st.sampled_from([ThinPlateSpline(), WendlandRadial(m, 1, side / 4.0)]))
    low = m + 2 if isinstance(kernel, ThinPlateSpline) else 1
    n_l = draw(st.integers(low, low + 8))
    n_w = draw(st.integers(1, 8))
    rho = draw(st.one_of(st.none(), st.floats(0.5 / side, 4.0 / side)))
    return LandmarkSet(src, tgt), probes, ShepardConfig(kernel, n_l, n_w, rho)


@settings(max_examples=30, deadline=None)
@given(grouped_problems())
def test_grouped_evaluation_is_bitwise_per_node(problem):
    lm, probes, cfg = problem
    t = build_shepard_transform(lm, cfg)
    side = shepard._cell_side(lm, t.nodal)
    assert np.isfinite(side) and side > 0
    calls = []
    shared_values = shepard._shared_values

    def spy(kernel, landmarks, members, pts):
        values = shared_values(kernel, landmarks, members, pts)
        if members:
            calls.append(values is not None)
        return values

    shepard._shared_values = spy
    try:
        got = t(probes)
    finally:
        shepard._shared_values = shared_values
    assert_same_bits(got, per_node_evaluation(t, probes))
    assert not calls[0]      # the first rung's whole block is refused


def test_nodes_that_weigh_no_point_and_tiny_inputs(shared_blocks):
    src = square_cloud(6, jitter=0.02, seed=2)
    t = build_shepard_transform(LandmarkSet(src, displaced(src)),
                                ShepardConfig(Gaussian(1.2), n_l=16, n_w=12))
    corner = GRID[(GRID < 0.3).all(1)]
    wbar = scattered_weights(t.landmarks, t.config, t.rho, corner)
    idle = [nf for nf in t.nodal if not wbar[:, nf.center].any()]
    assert idle and {nf.interpolant.precision for nf in idle} == {"double", "longdouble"}
    assert_bitwise_per_node(t, corner)
    assert_bitwise_per_node(t, GRID[123])
    assert t(GRID[123]).shape == (2,)
    assert t(np.zeros((0, 2))).shape == (0, 2)


# ---------------------------------------------------------------------------
# nodal assembly from one landmarks x landmarks block per build


def block_decisions(monkeypatch):
    """(rows, cols, separate, entry_bytes, approved) of every _block_pays call of an assembly."""
    decisions = []
    pays = transform._block_pays

    def spy(rows, cols, separate, entry_bytes):
        approved = pays(rows, cols, separate, entry_bytes)
        decisions.append((rows, cols, separate, entry_bytes, approved))
        return approved

    monkeypatch.setattr(transform, "_block_pays", spy)
    return decisions


def nodal_stack(t):
    """The stack of t's nodal systems, as the fit assembles it at float64."""
    problem = t.nodal[0].interpolant._problem
    index = np.array([nf.neighbors for nf in t.nodal])
    return _Problem(problem.kernel, t.landmarks.sources[index], problem.tail_degree,
                    t.landmarks.sources, index)


def assert_stack_is_bitwise_per_system(stack, dtype):
    built = stack.build(np.dtype(dtype))
    for i, matrix in enumerate(built):
        alone = stack[i]
        assert_same_bits(matrix, _Problem(alone.kernel, alone.sources, alone.tail_degree)
                         .build(np.dtype(dtype)))


LONGDOUBLE_BYTES = np.dtype(np.longdouble).itemsize


@pytest.mark.parametrize("case", CASE_KINDS)
@pytest.mark.parametrize("method, value", [("shep-g", 0.4), ("shep-g", 2.0), ("shep-tps", None)])
def test_shared_nodal_block_is_bitwise_per_system_assembly(monkeypatch, case, method, value):
    landmarks, _, _ = gen_case(CaseSpec(case))
    decisions = block_decisions(monkeypatch)
    t = build_method(method, landmarks, case, value)
    fit = list(decisions)
    n, n_l = landmarks.n, len(t.nodal[0].neighbors)
    shared = n <= n_l * n_l
    assert shared == (case != "circle-contract")            # N_L = 5 there: 60 > 25
    # the float64 rung decides on all N systems, the 80-bit rung on those that climbed
    climbers = sum(nf.interpolant.precision != "double" for nf in t.nodal)
    want = [(n, n, n * n_l * n_l, 8, shared)]
    if climbers and transform.LONGDOUBLE_IS_EXTENDED:
        want.append((n, n, climbers * n_l * n_l, LONGDOUBLE_BYTES,
                     n * n <= climbers * n_l * n_l and n * n * LONGDOUBLE_BYTES <= CHUNK_BYTES))
    assert fit == want
    stack = nodal_stack(t)
    decisions.clear()
    for dtype in (np.float64, np.longdouble):
        assert_stack_is_bitwise_per_system(stack, dtype)
    assert [approved for *_, approved in decisions] == [shared] * 2
    assert_center_values_per_node(t)


def test_large_landmark_sets_refuse_the_shared_nodal_block(monkeypatch):
    rng = np.random.default_rng(7)
    src = np.unique(rng.integers(0, 2000, (1100, 2)), axis=0)[:1000] / 2000.0
    lm = LandmarkSet(src, src + 0.001 * rng.standard_normal(src.shape))
    assert lm.n == 1000 and lm.n > 25 * 25
    decisions = block_decisions(monkeypatch)
    t = build_shepard_transform(lm, ShepardConfig(ThinPlateSpline(), n_l=25, n_w=25))
    assert decisions == [(1000, 1000, 1000 * 25 * 25, 8, False)]
    assert t.residual < 1e-10 and rungs(t) == {"double"}
    assert_center_values_per_node(t)


def test_block_pays_for_no_more_entries_than_the_separate_blocks_within_a_chunk():
    # N = 600 <= 25^2: the float64 block fits CHUNK_BYTES, an x87 80-bit one does not
    assert transform._block_pays(600, 600, 600 * 25 * 25, 8)
    assert transform._block_pays(600, 600, 600 * 25 * 25, LONGDOUBLE_BYTES) == (
        600 * 600 * LONGDOUBLE_BYTES <= CHUNK_BYTES)
    assert not transform._block_pays(600, 600, 600 * 24 * 24, 8)
    assert transform._block_pays(3, 4, 12, CHUNK_BYTES // 12)
    assert not transform._block_pays(3, 4, 12, CHUNK_BYTES // 12 + 1)


def test_a_few_80bit_climbers_assemble_their_own_blocks(monkeypatch):
    landmarks, _, _ = gen_case(CaseSpec("square-shift-64"))
    t = build_method("shep-tps", landmarks, "square-shift-64", None)
    stack = nodal_stack(t)
    assert landmarks.n == 68 and stack.n == 25
    decisions = block_decisions(monkeypatch)
    assert_stack_is_bitwise_per_system(stack[[0, 1]], np.longdouble)
    assert decisions == [(68, 68, 2 * 25 * 25, LONGDOUBLE_BYTES, False)]
    decisions.clear()
    assert_stack_is_bitwise_per_system(stack, np.longdouble)
    assert decisions == [(68, 68, 68 * 25 * 25, LONGDOUBLE_BYTES, True)]


def assert_center_values_per_node(t):
    """_center_values carries the bits of each node's own evaluation at its centre."""
    centers = shepard._center_values(t.nodal, t.landmarks)
    for nf, value in zip(t.nodal, centers):
        assert_same_bits(value, nf.interpolant(t.landmarks.sources[nf.center]))
    assert t.residual == np.abs(centers - t.landmarks.targets).max()


@pytest.mark.parametrize("case, mp_nodes", [("square-shift-64", 0), ("square-scale-64", 4)])
def test_center_values_of_80bit_and_double_double_nodes_are_each_nodes_own(case, mp_nodes):
    landmarks, _, _ = gen_case(CaseSpec(case))
    t = build_method("shep-g", landmarks, case, 2.0)
    precisions = [nf.interpolant.precision for nf in t.nodal]
    assert precisions.count("mp") == mp_nodes
    assert precisions.count("longdouble") == landmarks.n - mp_nodes
    assert_center_values_per_node(t)


def test_rho_must_be_a_positive_finite_real():
    for rho in ("1", [1.0], 1 + 0j, True, np.inf, -np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="must be positive"):
            ShepardConfig(Gaussian(1.0), 2, 2, rho=rho)
    for rho in (0.5, 2, np.float64(0.25), np.int64(3)):
        assert ShepardConfig(Gaussian(1.0), 2, 2, rho=rho).rho == rho
    assert ShepardConfig(Gaussian(1.0), 2, 2).rho is None
