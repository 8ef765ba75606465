"""tools/seed_ops.py: the seed-case record and its bitwise comparison."""

import importlib.util
from pathlib import Path

import numpy as np

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
