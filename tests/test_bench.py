import numpy as np
import pytest

from landreg import bench
from landreg.bench import (CaseSpec, EvaluationGrid, default_grid, gen_case,
                           real_life_run, rmse, shepard_locality, sweep)
from landreg.transform import SolveError


def test_default_grid_geometry():
    grid = default_grid()
    assert grid.rows == grid.cols == 40
    assert grid.points.shape == (1600, 2)
    assert grid.points.min() == 0.0 and grid.points.max() == 1.0
    assert grid.points[1, 0] == pytest.approx(1.0 / 39.0, rel=1e-15)
    assert np.array_equal(grid.points[0], [0.0, 0.0])
    assert np.array_equal(grid.points[-1], [1.0, 1.0])


def test_grid_validation():
    with pytest.raises(ValueError):
        EvaluationGrid(np.zeros((5, 2)), 2, 2)
    with pytest.raises(ValueError):
        EvaluationGrid(np.full((4, 2), np.nan), 2, 2)


def test_square_cases_have_expected_counts():
    for kind, count in (("square-shift-32", 36), ("square-scale-32", 36),
                        ("square-shift-64", 68), ("square-scale-64", 68)):
        landmarks, grid, truth = gen_case(CaseSpec(kind))
        assert landmarks.n == count
        assert landmarks.quasi.sum() == 4
        q = landmarks.quasi
        assert np.array_equal(landmarks.sources[q], landmarks.targets[q])
        assert truth is not None
        assert grid.rows == 40


def test_shift_case_geometry():
    landmarks, _, truth = gen_case(CaseSpec("square-shift-32"))
    moving = ~landmarks.quasi
    assert np.allclose(landmarks.targets[moving],
                       landmarks.sources[moving] + [0.0, 0.2], atol=0)
    pts = np.array([[0.3, 0.3], [0.7, 0.1]])
    assert np.allclose(truth(pts), pts + [0.0, 0.2], atol=0)
    # 32 points equispaced on the perimeter of a side-0.25 square at (0.5, 0.4)
    src = landmarks.sources[moving]
    assert src.min(axis=0) == pytest.approx([0.375, 0.275], abs=1e-15)
    assert src.max(axis=0) == pytest.approx([0.625, 0.525], abs=1e-15)


def test_scale_case_geometry():
    landmarks, _, truth = gen_case(CaseSpec("square-scale-32"))
    moving = ~landmarks.quasi
    center = np.array([0.5, 0.4])
    expected = center + 2.0 * (landmarks.sources[moving] - center)
    assert np.allclose(landmarks.targets[moving], expected, atol=0)
    assert np.allclose(truth(np.array([[0.6, 0.5]])), [[0.7, 0.6]], atol=1e-15)


def test_circle_cases():
    landmarks, _, truth = gen_case(CaseSpec("circle-expand"))
    assert landmarks.n == 60
    assert landmarks.quasi.sum() == 40
    center = np.array([0.5, 0.5])
    inner = landmarks.sources[~landmarks.quasi]
    radii = np.sqrt(((inner - center) ** 2).sum(1))
    assert np.allclose(radii, 0.15, atol=1e-15)
    target_radii = np.sqrt(((landmarks.targets[~landmarks.quasi] - center) ** 2).sum(1))
    assert np.allclose(target_radii, 0.30, atol=1e-14)
    landmarks_c, _, _ = gen_case(CaseSpec("circle-contract"))
    target_radii = np.sqrt(((landmarks_c.targets[~landmarks_c.quasi] - center) ** 2).sum(1))
    assert np.allclose(target_radii, 0.075, atol=1e-14)


def test_real_life_case():
    landmarks, _, truth = gen_case(CaseSpec("real-life"))
    assert landmarks.n == 18
    assert landmarks.quasi.sum() == 12
    assert truth is None
    assert np.array_equal(landmarks.sources[0], [0.3135, 0.8232])
    assert np.array_equal(landmarks.targets[0], [0.3467, 0.8525])


def test_gen_case_is_deterministic():
    a, _, _ = gen_case(CaseSpec("circle-contract"))
    b, _, _ = gen_case(CaseSpec("circle-contract"))
    assert np.array_equal(a.sources, b.sources)
    assert np.array_equal(a.targets, b.targets)


def test_geometry_overrides_and_bounds():
    spec = CaseSpec("square-shift-32", square_side=0.3, shift=(0.1, 0.1))
    landmarks, _, _ = gen_case(spec)
    assert landmarks.n == 36
    with pytest.raises(ValueError):
        gen_case(CaseSpec("square-shift-32", shift=(0.0, 0.9)))
    with pytest.raises(ValueError):
        gen_case(CaseSpec("circle-expand", target_radius=0.8))
    with pytest.raises(ValueError):
        CaseSpec("no-such-case")


def test_rmse_values():
    grid = default_grid(10, 10)
    identity = lambda pts: np.asarray(pts, float)
    assert rmse(identity, grid) == 0.0
    shifted = lambda pts: np.asarray(pts, float) + [0.3, 0.4]
    assert rmse(shifted, grid) == pytest.approx(0.5, rel=1e-12)
    ref = lambda pts: np.asarray(pts, float) + [0.25, 0.0]
    assert rmse(identity, grid, ref) == pytest.approx(0.25, rel=1e-12)
    assert rmse(shifted, grid, shifted) == 0.0


def test_sweep_parameter_free_method():
    report = sweep("tps", CaseSpec("square-shift-32"))
    assert report.parameter is None
    assert report.values == (None,)
    assert len(report.rmses) == 1
    assert report.optimal_rmse == report.rmses[0]
    assert np.isfinite(report.optimal_rmse)
    assert report.reported_rmse == pytest.approx(4.3460e-2)


def test_sweep_refuses_a_range_for_a_parameter_free_method():
    for method in ("tps", "shep-tps"):
        with pytest.raises(ValueError, match="no shape parameter"):
            sweep(method, CaseSpec("square-shift-32"), param_range=(0.4, 2.0, 3))


def test_sweep_refuses_a_count_that_is_not_an_integer():
    for count in (2.9, 3.0, "3"):
        with pytest.raises(ValueError, match="must be an integer"):
            sweep("w2-2d", CaseSpec("square-shift-32"), param_range=(0.2, 0.4, count))
    report = sweep("w2-2d", CaseSpec("square-shift-32"), param_range=(0.2, 0.4, np.int64(3)))
    assert len(report.values) == 3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("start, stop", [
    (0.2, np.inf), (-np.inf, 0.2), (-np.inf, np.inf), (0.2, np.nan), (np.nan, 0.2),
    (-1e308, 1e308), (np.float64(-1e308), np.float64(1e308)),
])
def test_parameter_values_refuse_a_range_that_is_not_finite(start, stop):
    """An infinite end, or an end-to-end span past float64's range, is refused before numpy warns."""
    with pytest.raises(ValueError, match="must be finite and increasing"):
        bench.parameter_values(start, stop, 3)


def test_sweep_l4_produces_finite_report():
    report = sweep("l4", CaseSpec("square-shift-32"))
    assert report.parameter == "alpha"
    values = np.array(report.values)
    assert len(values) == 10
    assert values[0] == 0.2 and values[-1] == 2.0
    spacing = np.diff(values)
    assert np.allclose(spacing, spacing[0], atol=1e-15)
    assert all(np.isfinite(r) for r in report.rmses)
    assert report.optimal_value in report.values
    assert report.optimal_rmse == min(report.rmses)


def test_sweep_records_failures_as_missing(monkeypatch):
    real_build = bench.build_method

    def flaky(name, landmarks, case_kind=None, value=None):
        if value is not None and abs(value - 0.2) < 1e-12:
            raise SolveError("synthetic failure")
        return real_build(name, landmarks, case_kind, value)

    monkeypatch.setattr(bench, "build_method", flaky)
    report = sweep("w2-2d", CaseSpec("square-shift-32"),
                   param_range=(0.2, 0.4, 3))
    assert report.rmses[0] is None and report.conditions[0] is None
    assert report.optimal_value == pytest.approx(0.3) or report.optimal_value == 0.4

    def always_fails(name, landmarks, case_kind=None, value=None):
        raise SolveError("synthetic failure")

    monkeypatch.setattr(bench, "build_method", always_fails)
    with pytest.raises(SolveError):
        sweep("w2-2d", CaseSpec("square-shift-32"), param_range=(0.2, 0.4, 3))


def test_sweep_argmin_tie_breaks_to_smaller_value(monkeypatch):
    monkeypatch.setattr(bench, "rmse", lambda *args, **kwargs: 0.125)
    report = sweep("w2-2d", CaseSpec("square-shift-32"), param_range=(0.1, 0.5, 5))
    assert report.optimal_value == 0.1


def test_sweep_truth_reference():
    report = sweep("tps", CaseSpec("square-shift-32"),
                   reference=gen_case(CaseSpec("square-shift-32"))[2])
    assert np.isfinite(report.optimal_rmse)


def test_ground_truth_sanity_tps_beats_identity_inside_square():
    case = CaseSpec("square-shift-32")
    landmarks, grid, truth = gen_case(case)
    inside = (np.abs(grid.points - [0.5, 0.4]).max(axis=1) <= 0.125)
    interior = grid.points[inside]
    assert len(interior) > 0
    transform = bench.build_method("tps", landmarks, case.kind)
    fitted = rmse(transform, interior, truth)
    untouched = rmse(lambda pts: np.asarray(pts, float), interior, truth)
    assert fitted < untouched


def test_shepard_locality_defaults():
    assert shepard_locality("square-shift-32", 36) == (25, 25)
    assert shepard_locality("circle-expand", 60) == (16, 60)
    assert shepard_locality("circle-contract", 60) == (5, 60)
    assert shepard_locality("real-life", 18) == (18, 18)
    assert shepard_locality(None, 10) == (10, 10)


def test_build_method_validation():
    landmarks, _, _ = gen_case(CaseSpec("square-shift-32"))
    with pytest.raises(ValueError):
        bench.build_method("nope", landmarks)
    with pytest.raises(ValueError):
        bench.build_method("g", landmarks)             # missing parameter
    with pytest.raises(ValueError):
        bench.build_method("tps", landmarks, value=1.0)  # spurious parameter


def test_real_life_run_rows():
    rows = real_life_run()
    assert [row.method for row in rows] == ["g", "tps", "w2-2d", "w4-2d",
                                            "w2-1dx1d", "l4"]
    for row in rows:
        assert np.isfinite(row.rmse)
        assert row.reported_rmse is not None
    by_method = {row.method: row.rmse for row in rows}
    assert by_method["tps"] < by_method["g"]
    assert by_method["w2-2d"] < by_method["g"]
    assert by_method["l4"] < by_method["g"]


def test_quasi_landmarks_are_fixed_points():
    for kind in ("square-shift-32", "circle-expand", "real-life"):
        landmarks, _, _ = gen_case(CaseSpec(kind))
        for method, value in (("tps", None), ("w2-2d", 0.5)):
            transform = bench.build_method(method, landmarks, kind, value)
            q = landmarks.quasi
            assert np.abs(transform(landmarks.sources[q])
                          - landmarks.sources[q]).max() < 1e-6
