import argparse
import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landreg import bench, cli
from landreg.cli import cli_main
from test_io import config_texts


def run(*argv):
    return cli_main(list(argv))


def test_gen_case_writes_landmarks(tmp_path):
    out = tmp_path / "rl.csv"
    assert run("gen-case", "--case", "real-life", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "sx,sy,tx,ty,quasi"
    assert len(lines) == 19  # 6 landmarks + 12 quasi + header
    assert sum(line.endswith(",1") for line in lines[1:]) == 12


def test_solve_rmse_and_render_pipeline(tmp_path):
    lm = tmp_path / "lm.csv"
    cfg = tmp_path / "k.cfg"
    grid = tmp_path / "grid.csv"
    svg = tmp_path / "grid.svg"
    assert run("gen-case", "--case", "square-shift-32", "--out", str(lm)) == 0
    cfg.write_text("kernel = tps\n")
    assert run("solve", "--landmarks", str(lm), "--config", str(cfg),
               "--grid-out", str(grid)) == 0
    assert len(grid.read_text().splitlines()) == 1601

    assert run("rmse", "--a", str(grid), "--b", str(grid)) == 0

    assert run("render", "--grid", str(grid), "--out", str(svg),
               "--landmarks", str(lm)) == 0
    assert svg.read_text().count("<polyline") == 80


def test_rmse_prints_zero_for_identical_grids(tmp_path, capsys):
    lm = tmp_path / "lm.csv"
    cfg = tmp_path / "k.cfg"
    grid = tmp_path / "grid.csv"
    run("gen-case", "--case", "real-life", "--out", str(lm))
    cfg.write_text("kernel = gaussian\nalpha = 1.6\n")
    run("solve", "--landmarks", str(lm), "--config", str(cfg),
        "--grid-out", str(grid))
    capsys.readouterr()
    assert run("rmse", "--a", str(grid), "--b", str(grid)) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_sweep_requires_reference(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = run("sweep", "--case", "square-shift-32", "--method", "tps",
               "--out", str(out))
    capsys.readouterr()
    assert code == 1
    assert run("sweep", "--case", "square-shift-32", "--method", "tps",
               "--reference", "identity", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2  # header + single parameter-free row
    assert lines[1].startswith("tps,square-shift-32,")


def test_sweep_csv_fields_of_a_parameter_free_method(tmp_path):
    out = tmp_path / "report.csv"
    assert run("sweep", "--case", "square-shift-32", "--method", "tps",
               "--reference", "identity", "--out", str(out)) == 0
    with open(out, newline="") as handle:
        (row,) = list(csv.DictReader(handle))
    assert row["parameter"] == row["value"] == row["reported_value"] == ""
    report = bench.sweep("tps", bench.CaseSpec("square-shift-32"))
    assert float(row["rmse"]) == report.rmses[0]
    assert float(row["condition"]) == report.conditions[0]
    assert float(row["reported_rmse"]) == report.reported_rmse
    assert row["optimal"] == "1"


def test_sweep_truth_reference_needs_ground_truth(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = run("sweep", "--case", "real-life", "--method", "tps",
               "--reference", "truth", "--out", str(out))
    capsys.readouterr()
    assert code == 1
    assert run("sweep", "--case", "square-shift-32", "--method", "tps",
               "--reference", "truth", "--out", str(out)) == 0


def test_sweep_with_custom_range(tmp_path):
    out = tmp_path / "report.csv"
    assert run("sweep", "--case", "square-shift-32", "--method", "w2-2d",
               "--reference", "identity", "--out", str(out),
               "--start", "0.2", "--stop", "0.6", "--count", "3") == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert sum(line.split(",")[6] == "1" for line in lines[1:]) == 1


def test_sweep_refuses_a_range_for_a_parameter_free_method(tmp_path, capsys):
    out = tmp_path / "report.csv"
    for method in ("tps", "shep-tps"):
        assert run("sweep", "--case", "square-shift-32", "--method", method,
                   "--reference", "identity", "--out", str(out),
                   "--start", "0.4", "--stop", "2", "--count", "3") == 1
        assert "no shape parameter" in capsys.readouterr().err
    assert not out.exists()
    assert run("sweep", "--case", "square-shift-32", "--method", "w2-2d",
               "--reference", "identity", "--out", str(out),
               "--start", "0.2", "--stop", "0.6", "--count", "2.9") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_sweep_refuses_an_infinite_range(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert run("sweep", "--case", "square-shift-32", "--method", "g",
               "--reference", "identity", "--out", str(out),
               "--start", "0.2", "--stop", "inf", "--count", "3") == 1
    assert "error: parameter range must be finite and increasing" in capsys.readouterr().err
    assert not out.exists()


def run_module(module, *argv, cwd):
    """python -m module argv in a fresh interpreter, with this checkout's landreg on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", module, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ["landreg", "landreg.cli"])
def test_python_m_runs_the_cli_and_exits_with_its_code(module, tmp_path):
    done = run_module(module, "sweep", "--case", "square-shift-32", "--method", "g",
                      "--reference", "identity", "--out", "report.csv",
                      "--start", "0.2", "--stop", "inf", "--count", "3", cwd=tmp_path)
    assert done.returncode == 1
    assert "error: parameter range must be finite and increasing" in done.stderr
    assert not (tmp_path / "report.csv").exists()
    done = run_module(module, "--help", cwd=tmp_path)
    assert done.returncode == 0 and "real-life" in done.stdout


def test_real_life_report(tmp_path):
    out = tmp_path / "rl-report.csv"
    assert run("real-life", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,parameter,value,rmse,reported_rmse"
    assert len(lines) == 7
    assert lines[1].startswith("g,alpha,")


def test_usage_errors(tmp_path, capsys):
    assert run("no-such-command") == 1
    assert run("sweep", "--bogus") == 1
    assert run("--help") == 0
    assert run("gen-case", "--case", "not-a-case", "--out", "x.csv") == 1
    assert run("rmse", "--a", "missing.csv", "--b", "missing.csv") == 1
    capsys.readouterr()


def test_numerical_failure_exits_2(tmp_path, capsys):
    lm = tmp_path / "lm.csv"
    rows = ["sx,sy,tx,ty,quasi"]
    for x in np.linspace(0.1, 0.9, 5):
        rows.append(f"{x},0.5,{x},0.6,0")
    lm.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "k.cfg"
    cfg.write_text("kernel = tps\n")
    grid = tmp_path / "grid.csv"
    code = run("solve", "--landmarks", str(lm), "--config", str(cfg),
               "--grid-out", str(grid))
    capsys.readouterr()
    assert code == 2  # collinear sources, rank-deficient saddle system


def test_render_rejects_mismatched_grids(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text("x,y,fx,fy\n0,0,0,0\n1,0,1,0\n0.5,1,0.5,1\n")
    code = run("render", "--grid", str(grid), "--out", str(tmp_path / "o.svg"))
    capsys.readouterr()
    assert code == 1


def test_render_rejects_points_off_the_lattice(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text("x,y,fx,fy\n0,0,0,0\n1,0,1,0\n0,1,0,1\n5,7,5,7\n")
    out = tmp_path / "o.svg"
    code = run("render", "--grid", str(grid), "--out", str(out))
    assert code == 1 and "rectangular grid" in capsys.readouterr().err
    assert not out.exists()


def test_rmse_rejects_grids_whose_points_differ_slightly(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("x,y,fx,fy\n0.5,0.5,0.5,0.5\n1,0.5,1,0.5\n")
    b.write_text("x,y,fx,fy\n0.500001,0.5,0.5,0.5\n1,0.5,1,0.5\n")
    code = run("rmse", "--a", str(a), "--b", str(b))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and "same evaluation points" in captured.err


def test_shape_parameter_with_overflowing_square_exits_1(tmp_path, capsys):
    lm = tmp_path / "lm.csv"
    assert run("gen-case", "--case", "square-shift-32", "--out", str(lm)) == 0
    for text in ("kernel = gaussian\nalpha = 1e200\n", "kernel = gmq\ngamma = 1e200\nmu = -1\n"):
        cfg = tmp_path / "k.cfg"
        cfg.write_text(text)
        grid = tmp_path / "grid.csv"
        code = run("solve", "--landmarks", str(lm), "--config", str(cfg),
                   "--grid-out", str(grid))
        err = capsys.readouterr().err
        assert code == 1, text
        assert "positive and finite" in err and "Traceback" not in err
        assert not grid.exists()


def test_non_finite_kernel_parameters_exit_1(tmp_path, capsys):
    lm = tmp_path / "lm.csv"
    assert run("gen-case", "--case", "square-shift-32", "--out", str(lm)) == 0
    configs = [
        "kernel = gaussian\nalpha = inf\n",
        "kernel = wendland2d\nh = 1\nc = inf\n",
        "kernel = wendland1d\nh = 1\nc = inf\n",
        "kernel = gmq\ngamma = inf\nmu = -1\n",
        "kernel = lobachevsky\nn = 4\nalpha = inf\n",
        "kernel = lobachevsky\nn = 4\na = inf\n",
        "method = shepard\nnodal_kernel = gaussian\nalpha = inf\nn_l = 5\nn_w = 5\n",
    ]
    for text in configs:
        cfg = tmp_path / "k.cfg"
        cfg.write_text(text)
        grid = tmp_path / "grid.csv"
        code = run("solve", "--landmarks", str(lm), "--config", str(cfg),
                   "--grid-out", str(grid))
        err = capsys.readouterr().err
        assert code == 1, text
        assert "positive and finite" in err and "Traceback" not in err
        assert not grid.exists()


def landmark_rows(rows):
    lines = ["sx,sy,tx,ty,quasi"]
    lines += [f"{sx},{sy},{sx if q else tx},{sy if q else ty},{int(q)}" for sx, sy, tx, ty, q in rows]
    return "\n".join(lines) + "\n"


def grid_rows(shape_and_values):
    (rows, cols), values = shape_and_values
    points = bench.default_grid(rows, cols).points
    lines = ["x,y,fx,fy"] + [f"{x},{y},{x + dx},{y + dy}" for (x, y), (dx, dy)
                             in zip(points.tolist(), values[:len(points)] * len(points))]
    return "\n".join(lines) + "\n"


UNIT = st.floats(0.0, 1.0)
JUNK = st.text(alphabet="0123456789.,-e \nxyfsqtuai", max_size=40)
LANDMARK_TEXTS = st.one_of(
    st.lists(st.tuples(UNIT, UNIT, UNIT, UNIT, st.booleans()), min_size=1, max_size=6).map(landmark_rows),
    JUNK)
GRID_TEXTS = st.one_of(
    st.tuples(st.tuples(st.integers(1, 4), st.integers(1, 4)),
              st.lists(st.tuples(UNIT, UNIT), min_size=1, max_size=3)).map(grid_rows),
    JUNK)
# moderate parameters: each solve stays a small, quick one
SMALL_NUMBERS = st.sampled_from(["auto", "nan", "inf", "frog", "-1", "0", "1", "2", "3", "4",
                                 "0.5", "1.6", "1e300", "1e-300"])


@settings(max_examples=60, deadline=None)
@given(LANDMARK_TEXTS, config_texts(SMALL_NUMBERS), GRID_TEXTS)
def test_cli_exits_0_1_or_2_on_any_input_files(landmarks, config, grid):
    with tempfile.TemporaryDirectory() as tmp:
        path = {name: str(Path(tmp) / name) for name in ("lm.csv", "k.cfg", "grid.csv", "out")}
        Path(path["lm.csv"]).write_text(landmarks)
        Path(path["k.cfg"]).write_text(config)
        Path(path["grid.csv"]).write_text(grid)
        codes = [
            run("solve", "--landmarks", path["lm.csv"], "--config", path["k.cfg"],
                "--grid-out", path["out"]),
            run("render", "--grid", path["grid.csv"], "--landmarks", path["lm.csv"],
                "--out", path["out"]),
            run("rmse", "--a", path["grid.csv"], "--b", path["grid.csv"]),
        ]
    assert set(codes) <= {0, 1, 2}, codes


def test_commands_share_one_parser_and_behave_as_with_fresh_ones(tmp_path, monkeypatch, capsys):
    """gen-case, solve, render, a usage error, a numerical failure, --help and another usage
    error, then solve and render again: one parser build, and a fresh parser's codes and files."""
    def sequence(out):
        out.mkdir()
        lm, collinear, cfg = out / "lm.csv", out / "collinear.csv", out / "k.cfg"
        assert run("gen-case", "--case", "square-shift-32", "--out", str(lm)) == 0
        collinear.write_text("sx,sy,tx,ty,quasi\n" + "".join(
            f"{x},0.5,{x},0.6,0\n" for x in np.linspace(0.1, 0.9, 5)))
        cfg.write_text("kernel = tps\n")
        solve = ["solve", "--config", str(cfg), "--grid-out", str(out / "grid.csv")]
        render = ["render", "--grid", str(out / "grid.csv"), "--out", str(out / "grid.svg"),
                  "--landmarks", str(lm)]
        codes = [run(*solve, "--landmarks", str(lm)), run(*render),
                 run("render", "--grid", str(out / "grid.csv"), "--bogus"),
                 run(*solve[:-1], str(out / "failed.csv"), "--landmarks", str(collinear)),
                 run("--help"),
                 run("solve", "--landmarks", str(lm), "--config", str(cfg)),
                 run(*solve, "--landmarks", str(lm)), run(*render[:-2])]
        capsys.readouterr()
        return codes, {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    shared = sequence(tmp_path / "shared")
    one_build = len(built)
    cli._build_parser.__wrapped__()
    assert one_build == len(built) - one_build > 0          # the whole sequence built one parser
    assert cli._build_parser() is cli._build_parser()

    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = sequence(tmp_path / "fresh")
    assert len(built) > 3 * one_build                       # a parser per command
    assert shared == fresh
    assert shared[0] == [0, 0, 1, 2, 0, 1, 0, 0]
    assert "failed.csv" not in shared[1]
