"""Benchmark lab: test-case geometry, RMSE, parameter sweeps, reports.

The square shift/scaling and circle expansion/contraction cases rebuild the
standard synthetic deformations of landmark-registration studies; the
real-life case uses a published six-landmark cervical X-ray pairing plus
twelve boundary quasi-landmarks.  The exact coordinates behind published
square/circle RMSE tables were never released, so this module's geometry
defaults are explicit, overridable stand-ins; the published RMSE optima are
carried as display-only reference columns and are never assertion targets.

RMSE follows the deformation-magnitude convention: it compares F(x) against
a reference map R over a fixed evaluation grid (R = identity by default,
i.e. how much the transformation moves the grid).  Pass the case's ground
truth as the reference to measure misregistration instead; the two disagree
on purpose and callers must choose.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .kernels import Gaussian, ThinPlateSpline, Wendland1D, WendlandRadial
from .landmarks import LandmarkSet
from .lobachevsky import LobachevskySpline
from .shepard import ShepardConfig, build_shepard_transform
from .transform import SolveError, solve_transform

SQUARE_CASES = ("square-shift-32", "square-scale-32", "square-shift-64", "square-scale-64")
CIRCLE_CASES = ("circle-expand", "circle-contract")
CASE_KINDS = SQUARE_CASES + CIRCLE_CASES + ("real-life",)

# published six-landmark cervical pairing (source x, y, target x, y)
REAL_LIFE_LANDMARKS = (
    (0.3135, 0.8232, 0.3467, 0.8525),
    (0.3330, 0.7080, 0.3584, 0.7334),
    (0.3643, 0.5967, 0.3877, 0.6162),
    (0.4131, 0.5068, 0.4229, 0.5068),
    (0.4580, 0.4053, 0.4600, 0.3916),
    (0.5146, 0.3057, 0.5205, 0.2783),
)

# published per-case optima (parameter value, RMSE) on the original
# unpublished landmark geometry; display-only comparison columns.
REPORTED_SQUARE_OPTIMA = {
    ("g", "square-shift-32"): (0.2, 6.0461e-2),
    ("g", "square-scale-32"): (2.0, 1.8654e-1),
    ("g", "square-shift-64"): (0.4, 1.3639e-1),
    ("g", "square-scale-64"): (2.0, 2.0206e-1),
    ("tps", "square-shift-32"): (None, 4.3460e-2),
    ("tps", "square-scale-32"): (None, 2.0929e-1),
    ("tps", "square-shift-64"): (None, 1.0310e-1),
    ("tps", "square-scale-64"): (None, 2.0929e-1),
    ("shep-g", "square-shift-32"): (1.6, 5.9351e-2),
    ("shep-g", "square-scale-32"): (2.0, 1.7087e-1),
    ("shep-g", "square-shift-64"): (2.0, 1.2891e-1),
    ("shep-g", "square-scale-64"): (2.0, 1.6464e-1),
    ("shep-tps", "square-shift-32"): (None, 6.4435e-2),
    ("shep-tps", "square-scale-32"): (None, 2.0929e-1),
    ("shep-tps", "square-shift-64"): (None, 1.3275e-1),
    ("shep-tps", "square-scale-64"): (None, 2.0929e-1),
    ("w2-2d", "square-shift-32"): (0.1, 4.8120e-2),
    ("w2-2d", "square-scale-32"): (0.3, 1.0033e-1),
    ("w2-2d", "square-shift-64"): (0.1, 1.0911e-1),
    ("w2-2d", "square-scale-64"): (0.5, 1.2671e-1),
    ("w4-2d", "square-shift-32"): (0.2, 5.3417e-2),
    ("w4-2d", "square-scale-32"): (0.4, 1.1990e-1),
    ("w4-2d", "square-shift-64"): (0.7, 1.1349e-1),
    ("w4-2d", "square-scale-64"): (0.6, 1.4067e-1),
    ("w2-1dx1d", "square-shift-32"): (0.1, 4.7013e-2),
    ("w2-1dx1d", "square-scale-32"): (0.4, 1.1098e-1),
    ("w2-1dx1d", "square-shift-64"): (0.2, 1.0310e-1),
    ("w2-1dx1d", "square-scale-64"): (0.6, 1.3089e-1),
    ("w4-1dx1d", "square-shift-32"): (0.1, 5.0482e-2),
    ("w4-1dx1d", "square-scale-32"): (0.5, 1.2341e-1),
    ("w4-1dx1d", "square-shift-64"): (0.1, 1.0820e-1),
    ("w4-1dx1d", "square-scale-64"): (0.7, 1.4178e-1),
    ("l4", "square-shift-32"): (0.2, 4.6950e-2),
    ("l4", "square-scale-32"): (1.4, 1.2368e-1),
    ("l4", "square-shift-64"): (0.6, 1.0314e-1),
    ("l4", "square-scale-64"): (2.0, 1.3462e-1),
    ("l6", "square-shift-32"): (0.4, 5.0566e-2),
    ("l6", "square-scale-32"): (2.0, 1.2374e-1),
    ("l6", "square-shift-64"): (0.2, 1.0825e-1),
    ("l6", "square-scale-64"): (2.0, 1.6880e-1),
}

# published real-life RMSEs at alpha = 1.6 / c = 0.1; display-only.
REPORTED_REAL_LIFE = {
    "g": 1.0314e-1,
    "tps": 1.9685e-2,
    "w2-2d": 1.9526e-2,
    "w4-2d": 2.5981e-2,
    "w2-1dx1d": 2.7157e-2,
    "l4": 1.9843e-2,
}

REAL_LIFE_PARAMETERS = (("g", 1.6), ("tps", None), ("w2-2d", 0.1),
                        ("w4-2d", 0.1), ("w2-1dx1d", 0.1), ("l4", 1.6))


@dataclass(frozen=True)
class EvaluationGrid:
    """Rectangular evaluation lattice, row-major (x varies fastest)."""

    points: np.ndarray
    rows: int
    cols: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.shape != (self.rows * self.cols, 2):
            raise ValueError("grid points must have shape (rows * cols, 2)")
        if not np.isfinite(pts).all():
            raise ValueError("grid points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


def default_grid(rows: int = 40, cols: int = 40) -> EvaluationGrid:
    """The default evaluation grid: rows x cols spanning [0, 1]^2 inclusive."""
    xs = np.linspace(0.0, 1.0, cols)
    ys = np.linspace(0.0, 1.0, rows)
    gx, gy = np.meshgrid(xs, ys)
    return EvaluationGrid(np.column_stack([gx.ravel(), gy.ravel()]), rows, cols)


@dataclass(frozen=True)
class CaseSpec:
    """Test-case selector plus geometry overrides (defaults per kind)."""

    kind: str
    square_center: tuple[float, float] = (0.5, 0.4)
    square_side: Optional[float] = None      # 0.25 for shifts, 0.2 for scalings
    shift: tuple[float, float] = (0.0, 0.2)
    scale: float = 2.0
    circle_center: tuple[float, float] = (0.5, 0.5)
    inner_radius: float = 0.15
    outer_radius: float = 0.48
    target_radius: Optional[float] = None    # 0.30 expansion, 0.075 contraction

    def __post_init__(self):
        if self.kind not in CASE_KINDS:
            raise ValueError(f"unknown case kind {self.kind!r}; choose from {CASE_KINDS}")


def _square_perimeter(center, side, count):
    cx, cy = center
    h = side / 2.0
    corners = np.array([[cx - h, cy - h], [cx + h, cy - h],
                        [cx + h, cy + h], [cx - h, cy + h]])
    per_side = count // 4
    pts = []
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        for k in range(per_side):
            pts.append(a + (b - a) * (k / per_side))
    return np.array(pts)


def _unit_square_boundary(count):
    """count points equispaced along the perimeter of [0, 1]^2, from (0, 0)."""
    pts = []
    for k in range(count):
        t = 4.0 * k / count
        side, frac = int(t), t - int(t)
        pts.append([(frac, 0.0), (1.0, frac), (1.0 - frac, 1.0), (0.0, 1.0 - frac)][side])
    return np.array(pts)


def _check_bounds(points):
    if points.min() < 0.0 or points.max() > 1.0:
        raise ValueError("case geometry places landmarks outside [0, 1]^2")


def gen_case(case: CaseSpec):
    """Landmarks, evaluation grid and analytic ground truth for a case.

    The ground-truth callable is the known deformation of the moving region
    (shift, scaling about the square center, or radial circle map); it is
    None for the real-life case.  Generation is fully deterministic.
    """
    grid = default_grid()
    kind = case.kind
    if kind in SQUARE_CASES:
        count = 32 if kind.endswith("32") else 64
        center = np.asarray(case.square_center, dtype=float)
        if "shift" in kind:
            side = 0.25 if case.square_side is None else case.square_side
            src = _square_perimeter(center, side, count)
            shift = np.asarray(case.shift, dtype=float)
            tgt = src + shift
            truth = lambda pts: np.asarray(pts, float) + shift
        else:
            side = 0.2 if case.square_side is None else case.square_side
            src = _square_perimeter(center, side, count)
            factor = float(case.scale)
            tgt = center + factor * (src - center)
            truth = lambda pts: center + factor * (np.asarray(pts, float) - center)
        quasi_pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        sources = np.vstack([src, quasi_pts])
        targets = np.vstack([tgt, quasi_pts])
        quasi = np.arange(len(sources)) >= count
    elif kind in CIRCLE_CASES:
        center = np.asarray(case.circle_center, dtype=float)
        r_in = float(case.inner_radius)
        r_out = float(case.outer_radius)
        if case.target_radius is None:
            r_tgt = 0.30 if kind == "circle-expand" else 0.075
        else:
            r_tgt = float(case.target_radius)
        angles_in = 2.0 * np.pi * np.arange(20) / 20.0
        angles_out = 2.0 * np.pi * np.arange(40) / 40.0
        ring_in = np.column_stack([np.cos(angles_in), np.sin(angles_in)])
        ring_out = np.column_stack([np.cos(angles_out), np.sin(angles_out)])
        sources = np.vstack([center + r_in * ring_in, center + r_out * ring_out])
        targets = np.vstack([center + r_tgt * ring_in, center + r_out * ring_out])
        quasi = np.arange(len(sources)) >= 20
        ratio = r_tgt / r_in
        truth = lambda pts: center + ratio * (np.asarray(pts, float) - center)
    else:
        table = np.asarray(REAL_LIFE_LANDMARKS, dtype=float)
        boundary = _unit_square_boundary(12)
        sources = np.vstack([table[:, :2], boundary])
        targets = np.vstack([table[:, 2:], boundary])
        quasi = np.arange(len(sources)) >= 6
        truth = None
    _check_bounds(sources)
    _check_bounds(targets)
    return LandmarkSet(sources, targets, quasi), grid, truth


def rmse(transform, grid, reference: Optional[Callable] = None) -> float:
    """Root mean squared distance between F and the reference map.

    ``reference = None`` compares against the identity (the grid points
    themselves), i.e. measures how strongly F deforms the grid.
    """
    pts = grid.points if isinstance(grid, EvaluationGrid) else np.atleast_2d(np.asarray(grid, float))
    if len(pts) == 0:
        raise ValueError("evaluation grid is empty")
    values = np.asarray(transform(pts), dtype=float)
    ref = pts if reference is None else np.asarray(reference(pts), dtype=float)
    delta = ref - values
    return float(np.sqrt((delta * delta).sum(axis=1).mean()))


# ---------------------------------------------------------------------------
# method registry and sweeps

# name: (shape parameter, kernel of its value); "shep-" methods blend nodal interpolants
METHODS = {
    "g": ("alpha", Gaussian),
    "tps": (None, lambda _: ThinPlateSpline()),
    "shep-g": ("alpha", Gaussian),
    "shep-tps": (None, lambda _: ThinPlateSpline()),
    "w2-2d": ("c", lambda c: WendlandRadial(2, 1, c)),
    "w4-2d": ("c", lambda c: WendlandRadial(2, 2, c)),
    "w2-1dx1d": ("c", lambda c: Wendland1D(1, c)),
    "w4-1dx1d": ("c", lambda c: Wendland1D(2, c)),
    "l4": ("alpha", lambda alpha: LobachevskySpline(4, alpha=alpha)),
    "l6": ("alpha", lambda alpha: LobachevskySpline(6, alpha=alpha)),
}
METHOD_PARAMETERS = {name: param for name, (param, _) in METHODS.items()}
METHOD_NAMES = tuple(METHOD_PARAMETERS)

DEFAULT_RANGES = {"alpha": (0.2, 2.0, 10), "c": (0.1, 1.0, 10)}


def shepard_locality(case_kind: Optional[str], n_landmarks: int) -> tuple[int, int]:
    """Default (N_L, N_W) per case family, clamped to the landmark count."""
    if case_kind == "circle-expand":
        n_l, n_w = 16, 60
    elif case_kind == "circle-contract":
        n_l, n_w = 5, 60
    else:
        n_l, n_w = 25, 25
    return min(n_l, n_landmarks), min(n_w, n_landmarks)


def build_method(name: str, landmarks: LandmarkSet, case_kind: Optional[str] = None,
                 value: Optional[float] = None):
    """Build the named method's transformation on the given landmarks."""
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r}; choose from {METHOD_NAMES}")
    param, kernel_of = METHODS[name]
    if param is not None and value is None:
        raise ValueError(f"method {name!r} needs a value for its parameter {param!r}")
    if param is None and value is not None:
        raise ValueError(f"method {name!r} takes no shape parameter")
    kernel = kernel_of(value)
    if name.startswith("shep-"):
        n_l, n_w = shepard_locality(case_kind, landmarks.n)
        return build_shepard_transform(landmarks, ShepardConfig(kernel, n_l, n_w))
    return solve_transform(kernel, landmarks)


@dataclass(frozen=True)
class SweepReport:
    """Per-parameter-value RMSE records plus the optimum (argmin)."""

    method: str
    case_kind: str
    parameter: Optional[str]
    values: tuple
    rmses: tuple
    conditions: tuple
    optimal_value: Optional[float]
    optimal_rmse: float
    reported_value: Optional[float] = None
    reported_rmse: Optional[float] = None


def parameter_values(start: float, stop: float, count: int) -> np.ndarray:
    if not isinstance(count, numbers.Integral):
        raise ValueError(f"a parameter sweep's count must be an integer, got {count!r}")
    if count < 2:
        raise ValueError("parameter sweeps need at least 2 values")
    # the span in Python floats: a numpy float64 one warns where it overflows
    if not (stop > start and np.isfinite(float(stop) - float(start))):
        raise ValueError(f"parameter range must be finite and increasing, got {start} to {stop}")
    return np.linspace(start, stop, count)


def sweep(method: str, case: CaseSpec, param_range: Optional[tuple] = None,
          reference: Optional[Callable] = None) -> SweepReport:
    """Sweep a method's shape parameter over a case and locate the optimum.

    Solve failures are recorded as missing values (None) and skipped by the
    argmin; the sweep only fails if every value fails.  Parameter-free
    methods produce a single-row report and take no param_range.
    """
    landmarks, grid, _ = gen_case(case)
    param = METHOD_PARAMETERS.get(method)
    if method not in METHOD_PARAMETERS:
        raise ValueError(f"unknown method {method!r}; choose from {METHOD_NAMES}")
    if param is None:
        if param_range is not None:
            raise ValueError(f"method {method!r} has no shape parameter to sweep over a range")
        values = [None]
    else:
        start, stop, count = DEFAULT_RANGES[param] if param_range is None else param_range
        values = list(parameter_values(start, stop, count))
    rmses, conditions = [], []
    for value in values:
        try:
            transform = build_method(method, landmarks, case.kind, value)
            rmses.append(rmse(transform, grid, reference))
            conditions.append(transform.condition)
        except SolveError:
            rmses.append(None)
            conditions.append(None)
    solved = [(r, i) for i, r in enumerate(rmses) if r is not None]
    if not solved:
        raise SolveError(f"sweep failed: no parameter value of {method!r} solved {case.kind!r}")
    best_rmse, best_index = min(solved)
    reported_value, reported_rmse = REPORTED_SQUARE_OPTIMA.get((method, case.kind), (None, None))
    return SweepReport(
        method=method,
        case_kind=case.kind,
        parameter=param,
        values=tuple(values),
        rmses=tuple(rmses),
        conditions=tuple(conditions),
        optimal_value=values[best_index],
        optimal_rmse=best_rmse,
        reported_value=reported_value,
        reported_rmse=reported_rmse,
    )


@dataclass(frozen=True)
class RealLifeRow:
    method: str
    parameter: Optional[str]
    value: Optional[float]
    rmse: float
    reported_rmse: Optional[float]


def real_life_run() -> list[RealLifeRow]:
    """Run the six reference methods on the real-life case.

    RMSE (identity reference) is evaluated on the full default grid; the
    published values are attached for display only.
    """
    landmarks, grid, _ = gen_case(CaseSpec("real-life"))
    rows = []
    for method, value in REAL_LIFE_PARAMETERS:
        transform = build_method(method, landmarks, "real-life", value)
        rows.append(RealLifeRow(
            method=method,
            parameter=METHOD_PARAMETERS[method],
            value=value,
            rmse=rmse(transform, grid),
            reported_rmse=REPORTED_REAL_LIFE.get(method),
        ))
    return rows
