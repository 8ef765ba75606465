"""The public names and the call sites the benchmark's tracer wraps.

perfbench/spans.py reassigns the attributes listed in its WRAPS table by
name, so renaming or deleting one of them breaks only traced benchmark
runs.  These tests load that module read-only and check its names here.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import landreg
from landreg.bench import CaseSpec, build_method, gen_case
from landreg.kernels import ThinPlateSpline
from landreg.landmarks import LandmarkSet
from landreg.shepard import ShepardConfig, build_shepard_transform, node_radii
from landreg.transform import LONGDOUBLE_IS_EXTENDED, PRECISIONS, solve_transform

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
needs_80bit = pytest.mark.skipif(not LONGDOUBLE_IS_EXTENDED,
                                 reason="np.longdouble is no wider than float64")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_names_resolve():
    assert len(set(landreg.__all__)) == len(landreg.__all__)
    for name in landreg.__all__:
        assert getattr(landreg, name) is not None, name


def test_traced_call_sites_exist():
    spans = load_spans()
    for owner, attr, *_ in spans.WRAPS:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_traced_solve_and_evaluation_record_spans():
    spans = load_spans()
    src = np.array([[0.1, 0.1], [0.9, 0.1], [0.1, 0.9], [0.9, 0.9], [0.5, 0.4]])
    landmarks = LandmarkSet(src, src + 0.01)
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, *_ in spans.WRAPS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        t = solve_transform(ThinPlateSpline(), landmarks)
        t(np.array([[0.3, 0.3], [0.7, 0.6]]))
    finally:
        tracer.active = False
        tracer.restore()
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in originals.items())
    calls = tracer.calls()
    for name in ("transform.solve", "transform.assemble", "transform.lu64",
                 "transform.cond_est", "transform.refine", "transform.eval64",
                 "kernels.eval_radial"):
        assert calls.get(name, 0) >= 1, name
    metrics = tracer.layer_metrics(1)
    assert metrics["transform.rung_double"] == 1
    assert metrics["transform.eval_points"] == 2


def test_traced_double_double_fit_and_warp_record_spans():
    """A double-double g and a shep-g with double-double nodes, fitted and warped under the tracer.

    No DDArray may reach a wrapped call whose detail reads an ndarray.
    """
    spans = load_spans()
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, *_ in spans.WRAPS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        for method, case, value in [("g", "square-shift-32", 0.2),
                                    ("shep-g", "square-scale-64", 1.2)]:
            landmarks, grid, _ = gen_case(CaseSpec(case))
            t = build_method(method, landmarks, case, value)
            t(grid.points)
    finally:
        tracer.active = False
        tracer.restore()
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in originals.items())
    calls = tracer.calls()
    for name in ("precision.mp_solve", "precision.mp_eval", "transform.eval_mp"):
        assert calls.get(name, 0) >= 1, name
    metrics = tracer.layer_metrics(1)
    assert metrics["precision.mp_solve_calls"] == 2        # one stack per fit
    assert metrics["precision.mp_eval_points"] >= len(grid.points)


def test_traced_shepard_weights_detail_resolves():
    spans = load_spans()
    xs = np.linspace(0.1, 0.9, 6)
    src = np.array([(x, y) for y in xs for x in xs])
    landmarks = LandmarkSet(src, src + 0.01)
    cfg = ShepardConfig(ThinPlateSpline(), n_l=8, n_w=6)
    probes = np.random.default_rng(0).uniform(0.0, 1.0, (50, 2))
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        build_shepard_transform(landmarks, cfg)(probes)
    finally:
        tracer.active = False
        tracer.restore()
    details = [span[5] for span in tracer.spans if span[0] == "shepard.weights"]
    assert details and details[-1][1] == len(probes)
    # the terms each probe blends: its n_w nearest inside their own cubes, or all n_w if none is
    d2 = ((probes[:, None, :] - src[None, :, :]) ** 2).sum(-1)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :cfg.n_w]
    rho = node_radii(landmarks, cfg)
    in_cube = (np.abs(probes[:, None, :] - src[nearest]).max(-1) <= rho[nearest] / 2.0).sum(1)
    terms = np.where(in_cube > 0, in_cube, cfg.n_w)
    assert terms.min() < cfg.n_w
    assert tracer.layer_metrics(1)["shepard.active_terms"] == terms.sum() / len(probes)


def traced_fit(method, case, value):
    """The tracer after one fit of a bench method, its spans recorded."""
    spans = load_spans()
    landmarks, _, _ = gen_case(CaseSpec(case))
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        build_method(method, landmarks, case, value)
    finally:
        tracer.active = False
        tracer.restore()
    return tracer


@pytest.mark.parametrize("method, case, value, rungs, ladder_yield", [
    ("tps", "square-shift-32", None, (1, 0, 0), 1.0),
    pytest.param("g", "square-shift-32", 0.4, (0, 1, 0), 1 / 2, marks=needs_80bit),
    pytest.param("g", "square-shift-32", 0.2, (0, 0, 1), 1 / 3, marks=needs_80bit),
])
def test_traced_fit_counts_one_attempt_per_rung(method, case, value, rungs, ladder_yield):
    """The rung a fit is accepted at, and ladder_yield: fits over rung attempts."""
    metrics = traced_fit(method, case, value).layer_metrics(1)
    assert tuple(metrics[f"transform.rung_{tag}"] for tag in PRECISIONS) == rungs
    assert metrics["transform.ladder_yield"] == pytest.approx(ladder_yield)


@needs_80bit
def test_traced_shepard_fit_attempts_each_rung_once():
    """shep-g's nodal stack climbs every rung, one stack per rung.

    float64 and 80-bit each assemble one stack; double-double assembles inside mp_solve.
    """
    calls = traced_fit("shep-g", "square-scale-64", 1.2).calls()
    assert calls.get("precision.lu80_factor") == 1
    assert calls.get("precision.mp_solve") == 1
    assert calls.get("transform.assemble") == 2
