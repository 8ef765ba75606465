"""tools/seed_ops.py: the seed-case record and its bitwise comparison."""

import importlib.util
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


def test_record_holds_each_nodal_interpolant_of_a_shepard_operation():
    fields = load_tool().record("shep-g", "real-life", 0.2)
    n = len(fields["landmarks"])
    assert {f"nodal{j}_solution" for j in range(n)} <= set(fields)
    assert fields["nodal_residual"].shape == fields["nodal_condition"].shape == (n,)
    rungs = list(fields["nodal_rung"])
    assert ",".join(rungs) == str(fields["rung"])
    top = fields[f"nodal{rungs.index('mp')}_solution"]     # double-double: hi and lo words
    assert top.dtype == np.float64 and top.shape[0] == 2 and top.shape[2] == 2


def test_record_dense_holds_the_three_scale_dense_transforms():
    records = dict(load_tool().record_dense())
    assert list(records) == ["wendland", "tps", "shepard-tps"]
    for fields in records.values():
        assert set(fields) == {"grid", "landmarks", "residual", "condition"}
        assert fields["grid"].shape == (141 * 141, 2) and fields["landmarks"].shape == (1000, 2)
        assert fields["residual"].shape == fields["condition"].shape == ()
        assert all(array.dtype == np.float64 for array in fields.values())



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
