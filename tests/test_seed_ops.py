"""tools/seed_ops.py: the seed-case record and its bitwise comparison."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from landreg.bench import CASE_KINDS

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "seed_ops.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("seed_ops", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_operations_cover_every_method_and_case():
    ops = list(load_tool().operations())
    assert len(ops) == 238 and len(set(ops)) == 238
    assert ("tps", "real-life", None) in ops and ("l6", "circle-expand", 2.0) in ops


def test_record_holds_the_fields_of_one_operation():
    fields = load_tool().record("w2-1dx1d", "square-shift-32", 0.6)
    assert set(fields) == {"grid", "landmarks", "residual", "condition", "rung"}
    assert fields["grid"].shape == (1600, 2) and fields["landmarks"].shape == (36, 2)
    assert str(fields["rung"]) == "double"


def test_compare_reports_every_differing_bit(tmp_path, capsys):
    tool = load_tool()
    grid = np.linspace(0.0, 1.0, 6).reshape(3, 2)
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    np.savez(a, **{"g|c|0.2|grid": grid, "g|c|0.2|rung": np.array("double")})
    np.savez(b, **{"g|c|0.2|grid": grid.copy(), "g|c|0.2|rung": np.array("double")})
    assert tool.main(["compare", str(a), str(b)]) == 0
    flipped = grid.copy()
    flipped[1, 1] = np.nextafter(flipped[1, 1], 2.0)
    np.savez(b, **{"g|c|0.2|grid": flipped, "g|c|0.2|error": np.array("singular")})
    assert tool.main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "g|c|0.2|grid: differs" in out
    assert f"g|c|0.2|rung: only in {a}" in out and f"g|c|0.2|error: only in {b}" in out
    assert "3 of 3 fields differ" in out


def test_compare_summarises_the_moved_fields_by_method(tmp_path, capsys):
    tool = load_tool()
    grid = np.linspace(0.0, 1.0, 6).reshape(3, 2)
    same = {"tps|c|None|grid": grid, "blas|OPENBLAS_NUM_THREADS": np.array("1")}
    a = {**same, "g|c|0.2|grid": grid, "g|c|0.4|grid": grid, "g|c|0.4|rung": np.array("double"),
         "regcli|c|tps|svg": np.array(b"<svg/>")}
    b = {**same, "g|c|0.2|grid": grid + 1e-9, "g|c|0.4|grid": grid - 3e-7,
         "g|c|0.4|rung": np.array("longdouble"), "regcli|c|tps|svg": np.array(b"<svg />")}
    np.savez(tmp_path / "a.npz", **a)
    np.savez(tmp_path / "b.npz", **b)
    assert tool.main(["compare", str(tmp_path / "a.npz"), str(tmp_path / "b.npz")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3] == "4 of 6 fields differ"
    assert lines[-2:] == ["g: fields moved 3, max |a - b| 3.000e-07", "regcli: fields moved 1"]


def test_record_holds_each_nodal_interpolant_of_a_shepard_operation():
    fields = load_tool().record("shep-g", "real-life", 0.2)
    n = len(fields["landmarks"])
    assert {f"nodal{j}_solution" for j in range(n)} <= set(fields)
    assert fields["nodal_residual"].shape == fields["nodal_condition"].shape == (n,)
    rungs = list(fields["nodal_rung"])
    assert ",".join(rungs) == str(fields["rung"])
    top = fields[f"nodal{rungs.index('mp')}_solution"]     # double-double: hi and lo words
    assert top.dtype == np.float64 and top.shape[0] == 2 and top.shape[2] == 2
    assert fields["nodal_center"].shape == (n, 2) and fields["nodal_center"].dtype == np.float64


def test_record_dense_holds_the_three_scale_dense_transforms():
    tool = load_tool()
    records = dict(tool.record_dense())
    assert list(records) == ["wendland", "tps", "shepard-tps"]
    for method, fields in records.items():
        shepard = {"nodal_center"} if method == "shepard-tps" else set()
        assert set(fields) == {"grid", "landmarks", "residual", "condition"} | shepard
        assert fields["grid"].shape == (141 * 141, 2) and fields["landmarks"].shape == (1000, 2)
        assert fields["residual"].shape == fields["condition"].shape == ()
        assert all(array.dtype == np.float64 for array in fields.values())
    shepard = records["shepard-tps"]
    _, targets = tool._workloads().dense_landmarks(tool.DENSE_SEED)
    assert np.abs(shepard["nodal_center"] - targets).max() == shepard["residual"]



def test_record_regcli_holds_the_bytes_of_every_emitted_file():
    records = dict(load_tool().record_regcli())
    assert list(records) == [f"{case}|tps" for case in CASE_KINDS] + [
        "square-shift-32|w2-2d", "real-life|report"]
    for case in CASE_KINDS:
        fields = records[f"{case}|tps"]
        assert set(fields) == {"landmark_csv", "grid_csv", "svg"}
        assert all(array.dtype.kind == "S" for array in fields.values())
        assert fields["landmark_csv"].item().startswith(b"sx,sy,tx,ty,quasi\n")
        assert fields["grid_csv"].item().count(b"\n") == 1601
        svg = fields["svg"].item()
        assert svg.count(b"<polyline") == 80 and svg.count(b"<circle") > 0
    sweep = records["square-shift-32|w2-2d"]["sweep_csv"].item().splitlines()
    assert sweep[0].startswith(b"method,case,") and sweep[1].startswith(b"w2-2d,square-shift-32,c,")
    assert records["real-life|report"]["real_life_csv"].item().count(b"\n") == 7

def test_a_script_run_pins_blas_threads_before_numpy_loads(tmp_path):
    # landreg is made unimportable, so the dump stops at its first operation
    code = ("import os, runpy, sys\n"
            "assert 'numpy' not in sys.modules\n"
            f"sys.argv = [{str(TOOL_PATH)!r}, 'dump', {str(tmp_path / 'x.npz')!r}]\n"
            "sys.modules['landreg'] = None\n"
            "try:\n"
            "    runpy.run_path(sys.argv[0], run_name='__main__')\n"
            "except ImportError:\n"
            "    print(os.environ['OPENBLAS_NUM_THREADS'])\n")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    for caller, pinned in ((None, "1"), ("2", "2")):
        if caller is not None:
            env["OPENBLAS_NUM_THREADS"] = caller
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout
        assert out.split() == [pinned]


def test_dump_records_the_blas_thread_setting_and_compare_lists_it(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    for name in ("operations", "record_dense", "record_regcli"):
        monkeypatch.setattr(tool, name, lambda: iter(()))
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    tool.dump(str(a))
    with np.load(a) as fields:
        assert fields.files == ["blas|OPENBLAS_NUM_THREADS"]
        assert str(fields["blas|OPENBLAS_NUM_THREADS"]) == "1"
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    tool.dump(str(b))
    capsys.readouterr()
    assert tool.main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "blas|OPENBLAS_NUM_THREADS: differs" in out and "1 of 1 fields differ" in out


X87 = np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize > 10


@pytest.mark.skipif(not X87, reason="np.longdouble is not the x87 80-bit format here")
def test_compare_reads_only_the_value_bytes_of_extended_floats(tmp_path, capsys):
    tool = load_tool()
    key = "shep-g|c|0.4|nodal0_solution"
    values = np.array([1.0, -2.5, 0.1], dtype=np.longdouble) / 3
    padded = values.copy()
    padded.view(np.uint8).reshape(3, -1)[:, 10:] = 0xA5     # the 6 bytes after the value
    assert padded.tobytes() != values.tobytes()
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    np.savez(a, **{key: values})
    np.savez(b, **{key: padded})
    assert tool.main(["compare", str(a), str(b)]) == 0
    one_ulp = padded.copy()
    one_ulp[2] = np.nextafter(one_ulp[2], np.longdouble(1.0))
    np.savez(b, **{key: one_ulp})
    assert tool.main(["compare", str(a), str(b)]) == 1
    assert f"{key}: differs" in capsys.readouterr().out


def test_compare_reports_the_size_of_a_float_difference(tmp_path, capsys):
    tool = load_tool()
    grid = np.linspace(0.0, 1.0, 6).reshape(3, 2)
    moved = grid.copy()
    moved[2, 0] -= 2.0 ** -30
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    np.savez(a, **{"g|c|0.2|grid": grid, "g|c|0.2|rung": np.array("double"),
                   "g|c|0.2|condition": np.array(1.0)})
    np.savez(b, **{"g|c|0.2|grid": moved, "g|c|0.2|rung": np.array("longdouble"),
                   "g|c|0.2|condition": np.array(1.0, dtype=np.float32)})
    assert tool.main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "g|c|0.2|grid: differs, max |a - b| 9.313e-10, max |a| 1.000e+00" in out
    assert "g|c|0.2|rung: differs" in out
    # equal values of another dtype: a bitwise difference of size 0
    assert "g|c|0.2|condition: differs, max |a - b| 0.000e+00, max |a| 1.000e+00" in out
