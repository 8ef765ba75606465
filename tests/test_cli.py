import csv

import numpy as np

from landreg import bench
from landreg.cli import cli_main


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
