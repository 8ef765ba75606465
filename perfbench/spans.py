"""Span tracing at the call sites between landreg's modules.

The tracer reassigns module and class attributes that one landreg module
looks up in another at call time (``landreg.transform.lu_factor``,
``landreg._precision.mp_solve``, ``_SolvedTransform.__call__`` ...), records
one span per call (name, start, end, parent, operation id, detail) in memory
and puts every attribute back on ``restore``.  Spans are only recorded while
``active`` is set, so correctness checks between timed segments leave no
trace.  Per-layer metrics are derived from the spans after the run: a
layer's self time is its span durations minus the time of its child spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

import landreg._precision as precision
from landreg import bench, cli, io, shepard, transform
from landreg.landmarks import LandmarkSet

# name: (unit, better) for every per-layer metric; BENCHMARK.json lists the same.
# A metric reads 0 on a workload where its layer does not run.  run.py adds
# trace.wall_s and failed_frac, which come from the passes, not the spans.
LAYER_METRICS = {
    "precision.mp_eval_s": ("s", "lower"),
    "precision.mp_eval_points": ("count", "lower"),
    "precision.mp_solve_s": ("s", "lower"),
    "precision.mp_solve_calls": ("count", "lower"),
    "precision.lu80_s": ("s", "lower"),
    "transform.eval80_s": ("s", "lower"),
    "transform.rung_double": ("count", "higher"),
    "transform.rung_longdouble": ("count", "lower"),
    "transform.rung_mp": ("count", "lower"),
    "transform.ladder_yield": ("ratio", "higher"),
    "transform.assemble_s": ("s", "lower"),
    "transform.lu64_s": ("s", "lower"),
    "transform.cond_est_s": ("s", "lower"),
    "transform.cond_est_max_ms": ("ms", "lower"),
    "transform.refine_s": ("s", "lower"),
    "kernels.eval_radial_s": ("s", "lower"),
    "kernels.eval_radial_entries": ("count", "lower"),
    "kernels.eval_univariate_s": ("s", "lower"),
    "lobachevsky.eval_spline_s": ("s", "lower"),
    "lobachevsky.eval_spline_entries": ("count", "lower"),
    "transform.eval64_s": ("s", "lower"),
    "transform.eval_points": ("count", "lower"),
    "transform.eval_tmp_bytes": ("bytes-computed", "lower"),
    "landmarks.init_s": ("s", "lower"),
    "landmarks.init_calls": ("count", "lower"),
    "shepard.radii_s": ("s", "lower"),
    "shepard.weights_s": ("s", "lower"),
    "shepard.nodal_build_s": ("s", "lower"),
    "shepard.nodal_solves": ("count", "lower"),
    "shepard.active_terms": ("terms/point", "lower"),
    "shepard.nodal_eval_s": ("s", "lower"),
    "io.parse_s": ("s", "lower"),
    "io.emit_s": ("s", "lower"),
    "io.bytes_out": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "bench.gen_case_s": ("s", "lower"),
    "bench.rmse_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "failed_frac": ("ratio", "lower"),
}

_EVAL_SPAN = {"double": "transform.eval64", "longdouble": "transform.eval80",
              "mp": "transform.eval_mp"}
_ITEMSIZE = {"double": 8, "longdouble": np.dtype(np.longdouble).itemsize}


def _eval_name(args):
    return _EVAL_SPAN[args[0].precision]


def _eval_detail(args, kwargs, result):
    """(points, computed temporary bytes, N) of one transform evaluation."""
    solved, points = args[0], np.atleast_2d(args[1])
    sources = solved._problem.sources
    tmp = 0
    if solved.precision in _ITEMSIZE:
        # the P x N x m difference array built by _pairwise_distances
        tmp = len(points) * sources.shape[0] * sources.shape[1] * _ITEMSIZE[solved.precision]
    return len(points), tmp, len(sources)


def _weights_detail(args, kwargs, result):
    return int(np.count_nonzero(result)), result.shape[0]


def _size(args, kwargs, result):
    return int(np.size(result))


def _length(args, kwargs, result):
    return len(result)


def _order(args, kwargs, result):
    """Order of the matrix passed as the first argument."""
    return len(args[0])


# (owner, attribute, span name, detail) for every call site the tracer wraps.
WRAPS = [
    (cli, "cli_main", "cli.main", None),
    (bench, "gen_case", "bench.gen_case", None),
    (bench, "rmse", "bench.rmse", None),
    (io, "parse_landmarks", "io.parse", None),
    (io, "parse_grid_csv", "io.parse", None),
    (io, "method_from_config", "io.parse", None),
    (io, "write_landmarks", "io.emit", _length),
    (io, "write_grid_csv", "io.emit", _length),
    (io, "render_grid_svg", "io.emit", _length),
    (LandmarkSet, "__post_init__", "landmarks.init", None),
    (shepard, "solve_transform", "shepard.nodal_solve", None),
    (shepard, "build_nodal_interpolants", "shepard.nodal_build", None),
    (shepard, "node_radii", "shepard.radii", None),
    (shepard, "_weights_matrix", "shepard.weights", _weights_detail),
    (shepard, "_evaluate", "shepard.evaluate", None),
    (transform, "_solve_dense", "transform.solve", lambda a, k, r: r[3]),
    (transform._Problem, "build", "transform.assemble",
     lambda a, k, r: (r.dtype.name, len(r))),
    (transform, "lu_factor", "transform.lu64", _order),
    (transform, "_condition_from_lu", "transform.cond_est", _order),
    (transform, "_refined_solve", "transform.refine", None),
    (transform._SolvedTransform, "__call__", _eval_name, _eval_detail),
    (transform, "eval_radial", "kernels.eval_radial", _size),
    (transform, "eval_univariate", "kernels.eval_univariate", None),
    (transform, "eval_spline", "lobachevsky.eval_spline", _size),
    (precision, "lu_extended", "precision.lu80_factor", _order),
    (precision, "lu_solve_extended", "precision.lu80_solve", None),
    (precision, "mp_solve", "precision.mp_solve", lambda a, k, r: len(a[2])),
    (precision, "mp_evaluate", "precision.mp_eval",
     lambda a, k, r: (len(np.atleast_2d(a[5])), len(a[6]))),
]


class Tracer:
    """Installs the wrappers, records spans, derives per-layer metrics."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op id, detail]
        self.active = False
        self.op = None
        self._stack = []
        self._patches = []     # (owner, attribute, original object)

    def _wrap(self, owner, attr, name, detail=None):
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span = [name(args) if callable(name) else name, time.perf_counter(), None,
                    tracer._stack[-1] if tracer._stack else -1, tracer.op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if detail is not None:
                span[5] = detail(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self):
        for owner, attr, name, detail in WRAPS:
            self._wrap(owner, attr, name, detail)

    def restore(self):
        """Put every original attribute back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def calls(self) -> dict:
        """Number of recorded spans per span name."""
        out = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return dict(out)

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics per pass, from the recorded spans (all but trace.wall_s and failed_frac).

        Times are self times, except shepard.nodal_eval_s (inclusive time of
        the nodal interpolants' evaluations) and transform.cond_est_max_ms
        (the longest single condition estimate).  transform.eval_tmp_bytes is
        computed, not measured: the largest P x N x m x itemsize difference
        array a float64 or 80-bit evaluation builds.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int, self.calls())
        detail = defaultdict(list)
        for i, (name, start, end, parent, _, extra) in enumerate(spans):
            self_s[name] += end - start - child[i]
            if extra is not None:
                detail[name].append(extra)
        rungs = detail["transform.solve"]
        attempts = (calls["transform.solve"] + calls["precision.lu80_factor"]
                    + calls["precision.mp_solve"])
        evals = [d for name in _EVAL_SPAN.values() for d in detail[name]]
        weights = detail["shepard.weights"]
        cond_est = [end - start for name, start, end, *_ in spans if name == "transform.cond_est"]
        nodal_eval = sum(end - start for name, start, end, parent, *_ in spans
                         if name in _EVAL_SPAN.values() and parent >= 0
                         and spans[parent][0] == "shepard.evaluate")
        per_pass = lambda value: value / passes
        metrics = {
            "precision.mp_eval_s": per_pass(self_s["precision.mp_eval"]),
            "precision.mp_eval_points": per_pass(sum(p for p, _ in detail["precision.mp_eval"])),
            "precision.mp_solve_s": per_pass(self_s["precision.mp_solve"]),
            "precision.mp_solve_calls": per_pass(calls["precision.mp_solve"]),
            "precision.lu80_s": per_pass(self_s["precision.lu80_factor"]
                                         + self_s["precision.lu80_solve"]),
            "transform.eval80_s": per_pass(self_s["transform.eval80"]),
            "transform.rung_double": per_pass(rungs.count("double")),
            "transform.rung_longdouble": per_pass(rungs.count("longdouble")),
            "transform.rung_mp": per_pass(rungs.count("mp")),
            "transform.ladder_yield": len(rungs) / attempts if attempts else 1.0,
            "transform.assemble_s": per_pass(self_s["transform.assemble"]),
            "transform.lu64_s": per_pass(self_s["transform.lu64"]),
            "transform.cond_est_s": per_pass(self_s["transform.cond_est"]),
            "transform.cond_est_max_ms": 1e3 * max(cond_est, default=0.0),
            "transform.refine_s": per_pass(self_s["transform.refine"]),
            "kernels.eval_radial_s": per_pass(self_s["kernels.eval_radial"]),
            "kernels.eval_radial_entries": per_pass(sum(detail["kernels.eval_radial"])),
            "kernels.eval_univariate_s": per_pass(self_s["kernels.eval_univariate"]),
            "lobachevsky.eval_spline_s": per_pass(self_s["lobachevsky.eval_spline"]),
            "lobachevsky.eval_spline_entries": per_pass(sum(detail["lobachevsky.eval_spline"])),
            "transform.eval64_s": per_pass(self_s["transform.eval64"]),
            "transform.eval_points": per_pass(sum(points for points, _, _ in evals)),
            "transform.eval_tmp_bytes": max((tmp for _, tmp, _ in evals), default=0),
            "landmarks.init_s": per_pass(self_s["landmarks.init"]),
            "landmarks.init_calls": per_pass(calls["landmarks.init"]),
            "shepard.radii_s": per_pass(self_s["shepard.radii"]),
            "shepard.weights_s": per_pass(self_s["shepard.weights"]),
            "shepard.nodal_build_s": per_pass(self_s["shepard.nodal_build"]),
            "shepard.nodal_solves": per_pass(calls["shepard.nodal_solve"]),
            "shepard.active_terms": (sum(n for n, _ in weights) / sum(p for _, p in weights)
                                     if weights else 0.0),
            "shepard.nodal_eval_s": per_pass(nodal_eval),
            "io.parse_s": per_pass(self_s["io.parse"]),
            "io.emit_s": per_pass(self_s["io.emit"]),
            "io.bytes_out": per_pass(sum(detail["io.emit"])),
            "cli.self_s": per_pass(self_s["cli.main"]),
            "bench.gen_case_s": per_pass(self_s["bench.gen_case"]),
            "bench.rmse_s": per_pass(self_s["bench.rmse"]),
        }
        return metrics
