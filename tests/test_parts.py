"""Large evaluation chunks split into parts of rows that run on threads.

A chunk of more than PART_ENTRIES kernel entries runs as parts that
depend on the chunk alone, each with a product that calls no BLAS.  So a
result's bits must not depend on the number of threads: neither the
evaluation's nor BLAS's.  The parts must also behave as a caller expects
of a plain function call: errors and numpy's error state reach across
them, a forked child can evaluate, work that does not split starts no
thread, and work that does leaves none behind.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from landreg import transform
from landreg.bench import CaseSpec, build_method, default_grid, gen_case
from landreg.cli import cli_main
from landreg.kernels import ThinPlateSpline, WendlandRadial
from landreg.transform import _Problem, _run_parts, solve_transform
from test_locality import jittered_lattice

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def threads(monkeypatch):
    """threads(n): evaluate on n threads; returns the list of (parts, pool used?) of each chunk."""
    calls = []
    part_values = _Problem._part_values

    def counting(parts, pool):
        calls.append((len(parts), pool is not None))
        _run_parts(parts, pool)

    def whole(self, *args):
        if args[-1]:                                  # BLAS's product: a chunk of one part
            calls.append((1, False))
        part_values(self, *args)

    def install(count):
        monkeypatch.setattr(transform, "PART_THREADS", count)
        calls.clear()
        return calls

    monkeypatch.setattr(transform, "_run_parts", counting)
    monkeypatch.setattr(_Problem, "_part_values", whole)
    return install


def split_case(name):
    """(transform, points, PART_ENTRIES that splits each of its chunks into several parts)."""
    rng = np.random.default_rng(3)
    if name == "wendland-culled":
        landmarks = jittered_lattice(20, seed=5)
        x = default_grid(100, 100).points * 1.2 - 0.1
        return solve_transform(WendlandRadial(2, 1, np.sqrt(np.pi * landmarks.n / 30)),
                               landmarks), x, 1 << 13
    case, method, value = {"tps": ("square-shift-32", "tps", None),
                           "gaussian-product-form": ("real-life", "g", 1.2),
                           "gaussian-80-bit-radial": ("square-shift-32", "g", 1.2),
                           "gaussian-double-double": ("square-shift-32", "g", 0.2)}[name]
    landmarks, grid, _ = gen_case(CaseSpec(case))
    t = build_method(method, landmarks, case, value)
    x = rng.uniform(0.0, 1.0, (1500, 2)) if name.endswith("radial") else grid.points
    return t, x, 2048 if t.precision == "mp" else 4096


RUNGS = {"tps": "double", "wendland-culled": "double", "gaussian-product-form": "double",
         "gaussian-80-bit-radial": "longdouble", "gaussian-double-double": "mp"}


@pytest.mark.parametrize("name", list(RUNGS))
def test_split_evaluation_has_the_same_bits_on_1_2_and_3_threads(name, threads, monkeypatch):
    t, x, part_entries = split_case(name)
    assert t.precision == RUNGS[name]
    whole = t(x)
    monkeypatch.setattr(transform, "PART_ENTRIES", part_entries)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)                   # the threads interleave as often as they can
    try:
        for count in (1, 2, 3):
            calls = threads(count)
            results.append(t(x))
            # every chunk split, enough for three threads, and only one thread runs them all
            assert min(parts for parts, _ in calls) >= 3
            assert {pooled for _, pooled in calls} == {count > 1}
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(results[0], other) for other in results[1:])
    if t.precision == "mp":
        # a double-double product is a pairwise sum per row and runs as @ in a part too
        assert np.array_equal(results[0], whole)
        return
    # the parts' einsum sums in another order than the unsplit BLAS or longdouble product
    problem, dtype = t._problem, np.dtype(np.longdouble if t.precision == "longdouble" else float)
    block = np.abs(problem.kernel_rows(x.astype(dtype)).astype(float))
    scale = block @ np.abs(t.coef.astype(float))
    if t.tail_degree is not None:
        scale = scale + np.abs(problem.tail_rows(x)) @ np.abs(t.poly_coef.astype(float))
    bound = 4 * problem.n * np.finfo(dtype).eps * scale + np.spacing(np.abs(whole))
    assert (np.abs(results[0] - whole) <= bound).all()


def test_dense_tps_chunks_split_in_two_at_the_default_part_size(threads):
    """scale-dense's TPS warp: N = 1000 and 141 x 141 points, 38 chunks of at most 524 rows."""
    rng = np.random.default_rng(4)
    problem = _Problem(ThinPlateSpline(), rng.uniform(0.0, 1.0, (1000, 2)), 1)
    calls = threads(transform.PART_THREADS)
    before = threading.active_count()
    problem.evaluate(rng.standard_normal((1003, 2)), default_grid(141, 141).points)
    assert calls == [(2, True)] * 38
    assert threading.active_count() == before         # the pool closed on return


def sharp_gaussian_points():
    """real-life's float64 Gaussian at alpha = 2 and 1600 scattered points in two halves.

    The first half lies among the landmarks, where no kernel value
    underflows; the second lies 40 away, where every one does.
    """
    landmarks, _, _ = gen_case(CaseSpec("real-life"))
    t = build_method("g", landmarks, "real-life", 2.0)
    rng = np.random.default_rng(8)
    x = np.concatenate([rng.uniform(0.0, 1.0, (800, 2)), rng.uniform(40.0, 41.0, (800, 2))])
    return t, x


@pytest.mark.parametrize("count, under", [(1, "raise"), (2, "raise"), (1, "call"), (2, "call")],
                         ids=["1", "2", "1-call", "2-call"])
def test_every_part_runs_under_the_callers_errstate(count, under, threads, monkeypatch):
    t, x = sharp_gaussian_points()
    assert t.precision == "double"
    monkeypatch.setattr(transform, "PART_ENTRIES", 800 * t._problem.n)
    calls = threads(count)
    assert np.isfinite(t(x)).all()                    # numpy's default ignores underflow
    seen = []
    with np.errstate(under=under, call=lambda kind, flag: seen.append(kind)):
        if under == "raise":
            with pytest.raises(FloatingPointError, match="underflow"):
                t(x)
        else:
            t(x)
    assert seen == ([] if under == "raise" else ["underflow"])
    assert calls == [(2, count > 1)] * 2             # the second part, a worker's, underflows


def test_an_exception_in_a_worker_part_reaches_the_caller():
    def fails():
        raise KeyError("part 2")
    with ThreadPoolExecutor(1) as pool:
        with pytest.raises(KeyError, match="part 2"):
            _run_parts([lambda: None, fails], pool)


def test_run_parts_returns_or_raises_only_once_every_part_has_returned():
    done = []

    def slow():
        time.sleep(0.2)
        done.append(True)

    def fails():
        raise ValueError("caller's part")
    with ThreadPoolExecutor(1) as pool:
        with pytest.raises(ValueError, match="caller's part"):
            _run_parts([fails, slow], pool)
        assert done == [True]


def _evaluate_in_child(t, x, conn):
    conn.send(t(x))
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method on this platform")
def test_a_forked_child_evaluates_a_split_grid_with_the_parents_bits(threads, monkeypatch):
    t, x, part_entries = split_case("tps")
    monkeypatch.setattr(transform, "PART_ENTRIES", part_entries)
    calls = threads(2)
    expected = t(x)
    assert all(pooled for _, pooled in calls)         # the parent ran its parts on a pool
    receive, send = multiprocessing.Pipe(duplex=False)
    child = multiprocessing.get_context("fork").Process(target=_evaluate_in_child,
                                                        args=(t, x, send))
    child.start()
    send.close()
    try:
        assert receive.poll(60), "the forked child did not finish its evaluation"
        values = receive.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join(10)
    assert not child.is_alive() and child.exitcode == 0
    assert np.array_equal(values, expected)


EVALUATE = """
import sys
import numpy as np
from landreg.kernels import ThinPlateSpline
from landreg.landmarks import chunk_rows
from landreg.transform import PART_ENTRIES, _Problem
from landreg.bench import default_grid
sources, z = np.load(sys.argv[1]), np.load(sys.argv[2])
grid = default_grid(141, 141).points
assert chunk_rows(len(sources)) * len(sources) > PART_ENTRIES     # every chunk splits
np.save(sys.argv[3], _Problem(ThinPlateSpline(), sources, 1).evaluate(z, grid))
"""


def test_split_evaluation_has_the_same_bits_at_one_and_two_blas_threads(tmp_path):
    rng = np.random.default_rng(9)
    np.save(tmp_path / "sources.npy", rng.uniform(0.0, 1.0, (1000, 2)))
    np.save(tmp_path / "z.npy", rng.standard_normal((1003, 2)))
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-c", EVALUATE, str(tmp_path / "sources.npy"),
                        str(tmp_path / "z.npy"), str(tmp_path / f"out{threads}.npy")],
                       env=env, check=True, timeout=120)
    assert np.array_equal(np.load(tmp_path / "out1.npy"), np.load(tmp_path / "out2.npy"))


def test_a_sweep_warp_and_a_regcli_solve_start_no_thread(threads, tmp_path):
    calls = threads(transform.PART_THREADS)
    before = threading.active_count()
    landmarks, grid, _ = gen_case(CaseSpec("square-scale-64"))
    for method, value in [("tps", None), ("g", 1.2), ("w2-2d", 0.6), ("shep-tps", None)]:
        build_method(method, landmarks, "square-scale-64", value)(grid.points)
    lm, cfg, out = tmp_path / "lm.csv", tmp_path / "tps.cfg", tmp_path / "grid.csv"
    cfg.write_text("kernel = tps\n")
    assert cli_main(["gen-case", "--case", "square-scale-64", "--out", str(lm)]) == 0
    assert cli_main(["solve", "--landmarks", str(lm), "--config", str(cfg),
                     "--grid-out", str(out)]) == 0
    assert threading.active_count() == before
    assert calls and set(calls) == {(1, False)}
