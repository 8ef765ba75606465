"""The top (double-double) rung against a 60-digit mpmath oracle, and the ladder."""

import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import landreg
from landreg import _precision, transform
from landreg.bench import CaseSpec, build_method, default_grid, gen_case
from landreg.kernels import Gaussian
from landreg.transform import solve_transform

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
