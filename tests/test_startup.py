"""landreg's cold start: scipy's LAPACK routines without scipy.linalg's Python layer."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import landreg.transform

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.linalg", "numpy.f2py", "numpy.testing")


def fresh_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def test_importing_landreg_leaves_scipy_linalg_unloaded():
    out = fresh_python("import sys, landreg, landreg.cli\n"
                       f"print(sorted(set({HEAVY!r}) & set(sys.modules)))")
    assert out.split("\n")[0] == "[]"


@pytest.mark.parametrize("modules", ["landreg.transform, scipy.linalg.lapack",
                                     "scipy.linalg.lapack, landreg.transform"])
def test_scipy_linalg_exports_the_routines_landreg_calls_in_either_import_order(modules):
    out = fresh_python(f"import {modules}\n"
                       "from scipy.linalg import lapack\n"
                       "from landreg import transform\n"
                       "print(lapack.dgetrf is transform.lu_factor, lapack.dgetrs is transform.dgetrs,"
                       " lapack.dgecon is transform.dgecon, lapack.dlange is transform.dlange)")
    assert out.split() == ["True"] * 4


def test_this_process_calls_scipy_linalgs_own_routines():
    import scipy.linalg.lapack as lapack
    assert lapack.dgetrf is landreg.transform.lu_factor
    assert lapack.dgetrs is landreg.transform.dgetrs
    assert lapack.dgecon is landreg.transform.dgecon
    assert lapack.dlange is landreg.transform.dlange
