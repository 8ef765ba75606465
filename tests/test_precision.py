"""The top (double-double) rung against a 60-digit mpmath oracle, and the ladder."""

import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import landreg
from landreg import _precision, transform
from landreg._dd import DDArray
from landreg.bench import CaseSpec, build_method, default_grid, gen_case
from landreg.kernels import Gaussian, ThinPlateSpline, Wendland1D, polynomial_tail_degree
from landreg.lobachevsky import LobachevskySpline
from landreg.transform import monomial_exponents, solve_transform

GRID = default_grid().points
PROBES = GRID[np.linspace(0, len(GRID) - 1, 60).round().astype(int)]

# Max |F - oracle| over PROBES with the 30-digit mpmath top rung that the
# double-double rung replaced, measured on the same probes and oracle.
MP30_ERROR = {
    ("square-scale-32", 0.4): 4.15e-8,
    ("square-scale-64", 0.4): 1.63e-6,
    ("square-shift-32", 0.2): 6.9e-10,
}
# shep-g at alpha = 2.0 on square-scale-64: its nodal interpolants that land on
# the top rung, by centre landmark, with the same 30-digit error measurement
MP30_NODAL_ERROR = {23: 2.12e-2, 26: 6.62e-3, 55: 3.02e-2, 57: 2.96e-2}


def gaussian_oracle(alpha, landmarks, probes, dps=60):
    """Solve and evaluate the Gaussian interpolant at dps digits."""
    with mp.workdps(dps):
        a2 = mp.mpf(alpha) ** 2
        src = [[mp.mpf(float(v)) for v in p] for p in landmarks.sources]

        def row(p):
            return [mp.exp(-a2 * sum((x - y) ** 2 for x, y in zip(p, s))) for s in src]

        matrix = mp.matrix([row(p) for p in src])
        coef = [mp.lu_solve(matrix, mp.matrix([mp.mpf(float(v)) for v in col]))
                for col in landmarks.targets.T]
        out = np.empty((len(probes), landmarks.dimension))
        for k, p in enumerate(probes):
            values = row([mp.mpf(float(v)) for v in p])
            for d, c in enumerate(coef):
                out[k, d] = float(mp.fsum(v * w for v, w in zip(values, c)))
        return out


@pytest.mark.parametrize("case, alpha", sorted(MP30_ERROR))
def test_top_rung_matches_oracle_off_node(case, alpha):
    landmarks, _, _ = gen_case(CaseSpec(case))
    t = solve_transform(Gaussian(alpha), landmarks)
    assert t.precision == "mp"
    err = np.abs(t(PROBES) - gaussian_oracle(alpha, landmarks, PROBES)).max()
    assert err <= MP30_ERROR[(case, alpha)]


def test_shepard_nodal_top_rung_matches_oracle():
    landmarks, _, _ = gen_case(CaseSpec("square-scale-64"))
    shep = build_method("shep-g", landmarks, "square-scale-64", 2.0)
    on_top = {nf.center: nf.interpolant for nf in shep.nodal
              if nf.interpolant.precision == "mp"}
    assert sorted(on_top) == sorted(MP30_NODAL_ERROR)
    for center, local in on_top.items():
        err = np.abs(local(PROBES) - gaussian_oracle(2.0, local.landmarks, PROBES)).max()
        assert err <= MP30_NODAL_ERROR[center], center


def test_import_does_not_load_mpmath():
    src = str(Path(landreg.__file__).resolve().parents[1])
    code = "import sys, landreg; sys.exit('mpmath' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                          timeout=60)
    assert done.returncode == 0


def test_ladder_skips_80bit_where_longdouble_is_double(monkeypatch):
    """The flat Gaussian of test_flat_gaussian_is_ill_conditioned_but_solvable."""
    def no_extended(*args):
        raise AssertionError("80-bit rung ran")

    monkeypatch.setattr(transform, "LONGDOUBLE_IS_EXTENDED", False)
    monkeypatch.setattr(_precision, "lu_extended", no_extended)
    landmarks, _, _ = gen_case(CaseSpec("square-shift-32"))
    t = solve_transform(Gaussian(0.2), landmarks)
    assert t.precision == "mp"
    assert np.abs(t(landmarks.sources) - landmarks.targets).max() <= 1e-6


def test_extended_lu_solves_with_row_pivoting():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((12, 12))
    a[[0, 5]] = a[[5, 0]] * 1e-3           # force row exchanges
    lu, order = _precision.lu_extended(a)
    assert lu.dtype == np.longdouble and sorted(order) == list(range(12))
    for rhs in (rng.standard_normal((12, 3)), rng.standard_normal(12)):
        x = _precision.lu_solve_extended(lu, order, rhs)
        assert x.shape == rhs.shape and x.dtype == np.longdouble
        assert np.allclose(x.astype(float), np.linalg.solve(a, rhs), rtol=1e-12, atol=1e-12)


def test_extended_lu_marks_a_zero_pivot():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    lu, order = _precision.lu_extended(a)
    x = _precision.lu_solve_extended(lu, order, np.array([1.0, 1.0]))
    assert np.isnan(x[-1])


def test_shepard_ladder_skips_80bit_where_longdouble_is_double(monkeypatch):
    """The stacked nodal solves honour LONGDOUBLE_IS_EXTENDED as single solves do.

    shep-g at alpha = 0.2 on circle-contract solves 4 of its 60 nodal
    systems at 80 bits; without that rung they go to double-double.
    """
    def no_extended(*args):
        raise AssertionError("80-bit rung ran")

    monkeypatch.setattr(transform, "LONGDOUBLE_IS_EXTENDED", False)
    monkeypatch.setattr(_precision, "lu_extended", no_extended)
    landmarks, _, _ = gen_case(CaseSpec("circle-contract"))
    shep = build_method("shep-g", landmarks, "circle-contract", 0.2)
    rungs = [nf.interpolant.precision for nf in shep.nodal]
    assert "longdouble" not in rungs and rungs.count("mp") >= 1
    assert shep.residual <= 1e-6


# ---------------------------------------------------------------------------
# the stacked 80-bit LU and refinement against the per-system row loops

def row_loop_lu(a):
    """Partial-pivot LU of one system, one row at a time: the stacked LU's oracle."""
    lu = a.astype(np.longdouble, copy=True)
    n = lu.shape[0]
    order = np.arange(n)
    for k in range(n - 1):
        p = k + int(np.abs(lu[k:, k]).argmax())
        if p != k:
            row = lu[k].copy()
            lu[k] = lu[p]
            lu[p] = row
            order[k], order[p] = order[p], order[k]
        pivot = lu[k, k]
        if pivot == 0:
            continue
        col = lu[k + 1:, k]
        col /= pivot
        lu[k + 1:, k + 1:] -= col[:, None] * lu[k, k + 1:]
    return lu, order


def row_loop_solve(lu, order, rhs):
    """Row-wise substitution with the factors of row_loop_lu, for one system."""
    x = rhs.astype(np.longdouble)[order]
    n = lu.shape[0]
    rows = list(x.reshape(n, -1))
    for k in range(1, n):
        rows[k] -= np.dot(lu[k, :k], x[:k])
    diagonal = lu.diagonal()
    for k in range(n - 1, -1, -1):
        row = rows[k]
        row -= np.dot(lu[k, k + 1:], x[k + 1:])
        if diagonal[k] != 0:
            row /= diagonal[k]
        else:
            row[...] = np.nan
    return x


def row_loop_refine(matrix, solve_once, rhs, n_interp, max_steps):
    """Monitored refinement of one system, keeping its best iterate."""
    z = solve_once(rhs)
    best_z, best_res = z, np.inf
    for step in range(max_steps + 1):
        r = rhs - matrix @ z
        finite = np.isfinite(r).all()
        res = float(np.abs(r[:n_interp]).max()) if finite else np.inf
        if res < best_res:
            best_z, best_res = z, res
        if not finite or step == max_steps:
            break
        z = z + solve_once(r)
    return best_z, best_res


def value_bytes(x):
    """The bytes of x's values; an x87 extended value drops its 6 padding bytes."""
    x = np.ascontiguousarray(x)
    if x.dtype == np.longdouble and np.finfo(x.dtype).nmant == 63 and x.dtype.itemsize > 10:
        return x.reshape(-1).view(np.uint8).reshape(-1, x.dtype.itemsize)[:, :10].tobytes()
    return x.tobytes()


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert value_bytes(got) == value_bytes(want)


def random_stack(seed, size, n):
    """A stack of random systems, each with row exchanges forced at step 0."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((size, n, n))
    if n > 1:
        a[:, 0] *= 1e-3
    return a


def check_against_row_loops(a, rng):
    lu, order = _precision.lu_extended(a)
    assert lu.shape == a.shape and order.shape == a.shape[:2] and lu.dtype == np.longdouble
    oracle = [row_loop_lu(member) for member in a]
    for i, (lu_i, order_i) in enumerate(oracle):
        assert_same_bits(lu[i], lu_i)
        assert np.array_equal(order[i], order_i)
    n = a.shape[1]
    for rhs in (rng.standard_normal((len(a), n)), rng.standard_normal((len(a), n, 3))):
        x = _precision.lu_solve_extended(lu, order, rhs)
        assert x.shape == rhs.shape
        for i, (lu_i, order_i) in enumerate(oracle):
            assert_same_bits(x[i], row_loop_solve(lu_i, order_i, rhs[i]))
    return lu, order


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 12))
def test_stacked_lu_matches_row_loops(seed, size, n):
    check_against_row_loops(random_stack(seed, size, n), np.random.default_rng(seed))


def test_stacked_lu_pivots_each_system_on_its_own_rows():
    a = random_stack(3, 4, 9)
    a[2] = a[2][::-1]
    lu, order = check_against_row_loops(a, np.random.default_rng(3))
    assert len({tuple(o) for o in order}) > 1


@pytest.mark.parametrize("make_singular", [
    lambda m: m.__setitem__(4, m[2]),                        # two equal rows: the last pivot is 0
    lambda m: m.__setitem__((slice(None), 2), 0.0),          # a zero column: step 2's pivot is 0
], ids=["equal-rows", "zero-column"])
def test_singular_member_is_nan_alone(make_singular):
    a = random_stack(5, 3, 6)
    make_singular(a[1])
    lu, order = check_against_row_loops(a, np.random.default_rng(5))
    assert (np.diagonal(lu[1]) == 0).any() and np.diagonal(lu[[0, 2]], axis1=1, axis2=2).all()
    x = _precision.lu_solve_extended(lu, order, np.ones((3, 6, 2)))
    assert np.isnan(x[1]).any() and np.isfinite(x[[0, 2]]).all()
    alone = _precision.lu_solve_extended(*_precision.lu_extended(a[[0, 2]]), np.ones((2, 6, 2)))
    assert_same_bits(x[[0, 2]], alone)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_member_leaves_its_neighbours(bad):
    a = random_stack(11, 3, 5)
    a[0, 3, 1] = bad
    lu, order = _precision.lu_extended(a)
    assert not np.isfinite(lu[0]).all()
    rhs = np.ones((3, 5, 2))
    x = _precision.lu_solve_extended(lu, order, rhs)
    alone = _precision.lu_extended(a[1:])
    assert_same_bits(lu[1:], alone[0])
    assert_same_bits(x[1:], _precision.lu_solve_extended(*alone, rhs[1:]))


def test_two_dimensional_input_is_a_stack_of_one():
    a = random_stack(13, 1, 7)
    lu, order = _precision.lu_extended(a[0])
    stacked = _precision.lu_extended(a)
    assert lu.shape == (7, 7) and order.shape == (7,)
    assert_same_bits(lu, stacked[0][0])
    for rhs in (np.arange(7.0), np.arange(14.0).reshape(7, 2)):
        x = _precision.lu_solve_extended(lu, order, rhs)
        assert x.shape == rhs.shape
        assert_same_bits(x, _precision.lu_solve_extended(*stacked, rhs[None])[0])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(2, 10),
       st.integers(0, 3), st.booleans())
def test_stacked_refinement_matches_row_loops(seed, size, n, steps, vector):
    rng = np.random.default_rng(seed)
    # graded rows make refinement do real work in 80 bits
    a = random_stack(seed, size, n) * np.logspace(0, 12, n)[:, None]
    rhs = rng.standard_normal((size, n) if vector else (size, n, 2))
    n_interp = max(1, n - 1)
    matrix = a.astype(np.longdouble)
    lu, order = _precision.lu_extended(matrix)
    z, res = _precision._refined_solve(
        matrix.__matmul__, lambda b: _precision.lu_solve_extended(lu, order, b), rhs,
        n_interp, steps)
    assert z.shape == rhs.shape and len(res) == size
    for i in range(size):
        lu_i, order_i = row_loop_lu(matrix[i])
        z_i, res_i = row_loop_refine(matrix[i], lambda b: row_loop_solve(lu_i, order_i, b),
                                     rhs[i], n_interp, steps)
        assert_same_bits(z[i], z_i)
        assert res[i] == res_i


def test_refinement_freezes_a_member_whose_residual_goes_non_finite():
    a = random_stack(17, 3, 5).astype(np.longdouble)
    a[1, 2] = a[1, 0]                       # singular: its solve is NaN from the start
    rhs = np.random.default_rng(17).standard_normal((3, 5, 2))
    lu, order = _precision.lu_extended(a)
    calls = []

    def solve_once(b):
        calls.append(b.copy())
        return _precision.lu_solve_extended(lu, order, b)

    z, res = _precision._refined_solve(a.__matmul__, solve_once, rhs, 5, 3)
    assert res[1] == np.inf and np.isfinite([res[0], res[2]]).all()
    assert len(calls) == 4 and all((b[1] == 0).all() for b in calls[1:])
    for i in (0, 2):
        lu_i, order_i = row_loop_lu(a[i])
        z_i, res_i = row_loop_refine(a[i], lambda b: row_loop_solve(lu_i, order_i, b),
                                     rhs[i], 5, 3)
        assert_same_bits(z[i], z_i)
        assert res[i] == res_i


# ---------------------------------------------------------------------------
# the stacked double-double LU and mp_solve against per-system solves

def dd_row_loop_lu(a):
    """Partial-pivot LU of one (n, n) DDArray, as the rung factored each system on its own."""
    lu = a.copy()
    n = len(lu)
    order = np.arange(n)
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(lu.hi[k:, k])))
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            order[[k, p]] = order[[p, k]]
        if lu.hi[k, k] == 0:
            continue
        col = lu[k + 1:, k] / lu[k, k]
        lu[k + 1:, k] = col
        lu[k + 1:, k + 1:] = lu[k + 1:, k + 1:] - col[:, None] * lu[k, k + 1:]
    return lu, order


def dd_row_loop_solve(lu, order, rhs):
    """Substitution with the factors of dd_row_loop_lu; rhs is (n, m), float64 or DDArray."""
    x = (rhs if isinstance(rhs, DDArray) else DDArray(rhs))[order]
    n = len(lu)
    for k in range(n - 1):
        x[k + 1:] = x[k + 1:] - lu[k + 1:, k, None] * x[k]
    for k in range(n - 1, -1, -1):
        x[k] = x[k] / lu[k, k]
        if k:
            x[:k] = x[:k] - lu[:k, k, None] * x[k]
    return x


def assert_same_dd(got, want):
    assert got.shape == want.shape
    assert_same_bits(got.hi, want.hi)
    assert_same_bits(got.lo, want.lo)


def check_dd_against_row_loops(a, rng, solve=None):
    """lu_dd of the stack a against dd_row_loop_lu, and lu_solve_dd for the members in solve."""
    lu, order = _precision.lu_dd(a)
    assert lu.shape == a.shape and order.shape == a.shape[:2] and order.dtype == np.intp
    oracle = [dd_row_loop_lu(a[i]) for i in range(len(a))]
    for i, (lu_i, order_i) in enumerate(oracle):
        assert_same_dd(lu[i], lu_i)
        assert np.array_equal(order[i], order_i)
    solve = list(range(len(a))) if solve is None else solve
    rhs = rng.standard_normal((len(solve), a.shape[1], 2))
    for b in (rhs, DDArray(rhs) / 7.0):
        x = _precision.lu_solve_dd(lu[solve], order[solve], b)
        assert x.shape == rhs.shape
        for j, i in enumerate(solve):
            assert_same_dd(x[j], dd_row_loop_solve(*oracle[i], b[j]))
    return lu, order


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 10))
def test_stacked_dd_lu_matches_row_loops(seed, size, n):
    a = DDArray(random_stack(seed, size, n)) / 3.0    # nonzero low words
    check_dd_against_row_loops(a, np.random.default_rng(seed))


def test_stacked_dd_lu_pivots_each_system_on_its_own_rows():
    a = random_stack(3, 4, 9)
    a[2] = a[2][::-1]
    lu, order = check_dd_against_row_loops(DDArray(a) / 3.0, np.random.default_rng(3))
    assert len({tuple(o) for o in order}) > 1


def test_stacked_dd_lu_of_a_stack_that_never_pivots():
    a = np.random.default_rng(4).standard_normal((3, 9, 9)) + 20.0 * np.eye(9)
    _, order = check_dd_against_row_loops(DDArray(a) / 3.0, np.random.default_rng(4))
    assert (order == np.arange(9)).all()


@pytest.mark.parametrize("make_singular", [
    lambda m: m.__setitem__(4, m[2]),                        # two equal rows: the last pivot is 0
    lambda m: m.__setitem__((slice(None), 2), 0.0),          # a zero column: step 2's pivot is 0
], ids=["equal-rows", "zero-column"])
def test_singular_dd_member_leaves_its_neighbours(make_singular):
    a = random_stack(5, 3, 6)
    make_singular(a[1])
    lu, _ = check_dd_against_row_loops(DDArray(a) / 3.0, np.random.default_rng(5), solve=[0, 2])
    diagonal = np.diagonal(lu.hi, axis1=1, axis2=2)
    assert (diagonal[1] == 0).any() and diagonal[[0, 2]].all()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_dd_member_leaves_its_neighbours(bad):
    a = random_stack(11, 3, 5)
    a[0, 3, 1] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        lu, order = _precision.lu_dd(DDArray(a))
    assert not np.isfinite(lu.hi[0]).all()
    alone = _precision.lu_dd(DDArray(a[1:]))
    assert_same_dd(lu[1:], alone[0])
    assert np.array_equal(order[1:], alone[1])


def mp_problem(kernel, seed, size, n, m):
    """mp_solve's arguments for a stack of random systems of one kernel."""
    rng = np.random.default_rng(seed)
    sources = rng.uniform(0.0, 1.0, (size, n, m))
    degree = polynomial_tail_degree(kernel)
    exponents = [] if degree is None else monomial_exponents(m, degree)
    rhs = np.zeros((size, n + len(exponents), m))
    rhs[:, :n] = sources + rng.uniform(-0.05, 0.05, (size, n, m))
    tensor = isinstance(kernel, (Wendland1D, LobachevskySpline))
    return [kernel, tensor, sources, degree, exponents, rhs]


def solve_alone(args, i):
    """mp_solve's result for member i of the stack args, solved as a stack of one."""
    kernel, tensor, sources, degree, exponents, rhs = args
    return _precision.mp_solve(kernel, tensor, sources[i:i + 1], degree, exponents,
                               rhs[i:i + 1])


def assert_stack_of_one_bits(args, got, members):
    for i in members:
        (want_z, want_res), = solve_alone(args, i)
        z, res = got[i]
        assert res == want_res and np.isfinite(res)
        assert_same_dd(z, want_z)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([ThinPlateSpline(), Wendland1D(2, 1.5), LobachevskySpline(4, alpha=1.0),
                        Gaussian(2.0)]),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(5, 10), st.integers(1, 3))
def test_stacked_mp_solve_matches_stacks_of_one(kernel, seed, size, n, m):
    """Tails (thin-plate spline) and tensor kernels, which no seed operation sends to this rung."""
    args = mp_problem(kernel, seed, size, n, m)
    got = _precision.mp_solve(*args)
    assert len(got) == size and all(z.shape == args[5].shape[1:] for z, _ in got)
    assert_stack_of_one_bits(args, got, range(size))


def test_mp_solve_gives_a_member_with_equal_rows_none():
    args = mp_problem(Gaussian(2.0), 19, 3, 8, 2)
    args[2][1, 5] = args[2][1, 2]             # coinciding sources: two equal rows
    got = _precision.mp_solve(*args)
    assert got[1] == (None, np.inf)
    assert_stack_of_one_bits(args, got, [0, 2])
    assert solve_alone(args, 1) == [(None, np.inf)]
