"""Serialization: landmark CSV, grid CSV, config files, SVG grid renders.

All emitters are deterministic (identical inputs give byte-identical text)
and locale independent.  Floats are written with 17 significant digits in
CSV, which round-trips doubles losslessly, and with 3 decimals in SVG,
which is display-only.
"""

from __future__ import annotations

import numpy as np

from .bench import EvaluationGrid
from .kernels import (Gaussian, GeneralizedMultiquadric, KernelError,
                      ThinPlateSpline, Wendland1D, WendlandRadial)
from .landmarks import LandmarkSet
from .lobachevsky import LobachevskySpline
from .shepard import ShepardConfig, build_shepard_transform
from .transform import build_tensor_transform, solve_transform

LANDMARK_HEADER = "sx,sy,tx,ty,quasi"
GRID_HEADER = "x,y,fx,fy"
QUASI_TOLERANCE = 1e-12


class ParseError(ValueError):
    """Malformed input text (message carries the offending line number)."""


class ConfigError(ValueError):
    """Invalid or incomplete method configuration."""


def _fmt(x) -> str:
    """17 significant digits (lossless for doubles); "" for a missing value."""
    return "" if x is None else format(float(x), ".17g")


def _parse_float(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"line {lineno}: {token!r} is not a number") from None
    if not np.isfinite(value):
        raise ParseError(f"line {lineno}: non-finite coordinate {token!r}")
    return value


# ---------------------------------------------------------------------------
# landmark CSV

def write_landmarks(landmarks: LandmarkSet) -> str:
    """Landmark set as `sx,sy,tx,ty,quasi` CSV text (2D only)."""
    if landmarks.dimension != 2:
        raise ValueError("landmark CSV files are 2D only")
    lines = [LANDMARK_HEADER]
    for (sx, sy), (tx, ty), q in zip(landmarks.sources, landmarks.targets, landmarks.quasi):
        lines.append(f"{_fmt(sx)},{_fmt(sy)},{_fmt(tx)},{_fmt(ty)},{1 if q else 0}")
    return "\n".join(lines) + "\n"


def parse_landmarks(text: str) -> LandmarkSet:
    """Parse landmark CSV; quasi rows must satisfy source == target."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != LANDMARK_HEADER:
        raise ParseError(f"line 1: expected header {LANDMARK_HEADER!r}")
    sources, targets, quasi = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 5:
            raise ParseError(f"line {lineno}: expected 5 fields, got {len(fields)}")
        sx, sy, tx, ty = (_parse_float(f, lineno) for f in fields[:4])
        flag = fields[4].strip()
        if flag not in ("0", "1"):
            raise ParseError(f"line {lineno}: quasi flag must be 0 or 1, got {flag!r}")
        is_quasi = flag == "1"
        if is_quasi and (abs(sx - tx) > QUASI_TOLERANCE or abs(sy - ty) > QUASI_TOLERANCE):
            raise ParseError(f"line {lineno}: quasi-landmark must have source == target")
        if is_quasi:
            tx, ty = sx, sy
        sources.append((sx, sy))
        targets.append((tx, ty))
        quasi.append(is_quasi)
    if not sources:
        raise ParseError("no landmark rows found")
    return LandmarkSet(np.array(sources), np.array(targets), np.array(quasi))


# ---------------------------------------------------------------------------
# grid CSV

def write_grid_csv(points, values) -> str:
    """Grid evaluation as `x,y,fx,fy` rows, row-major point order."""
    points = np.atleast_2d(np.asarray(points, float))
    values = np.atleast_2d(np.asarray(values, float))
    if points.shape != values.shape or points.shape[1] != 2:
        raise ValueError("points and values must both have shape (P, 2)")
    lines = [GRID_HEADER]
    for (x, y), (fx, fy) in zip(points, values):
        lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(fx)},{_fmt(fy)}")
    return "\n".join(lines) + "\n"


def parse_grid_csv(text: str):
    """Parse `x,y,fx,fy` text back into (points, values) arrays."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != GRID_HEADER:
        raise ParseError(f"line 1: expected header {GRID_HEADER!r}")
    points, values = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 4:
            raise ParseError(f"line {lineno}: expected 4 fields, got {len(fields)}")
        x, y, fx, fy = (_parse_float(f, lineno) for f in fields)
        points.append((x, y))
        values.append((fx, fy))
    if not points:
        raise ParseError("no grid rows found")
    return np.array(points), np.array(values)


def infer_grid_shape(points) -> tuple[int, int]:
    """Recover (rows, cols) from row-major lattice points (x varies fastest)."""
    points = np.asarray(points)
    ys = points[:, 1]
    changes = np.flatnonzero(ys[1:] != ys[:-1])
    cols = int(changes[0]) + 1 if len(changes) else len(points)
    if cols == 0 or len(points) % cols != 0:
        raise ValueError("points do not form a row-major rectangular grid")
    return len(points) // cols, cols


# ---------------------------------------------------------------------------
# SVG rendering

SVG_SCALE = 1000.0


def _svg_coord(v: float) -> str:
    return format(v * SVG_SCALE, ".3f")


def render_grid_svg(original: EvaluationGrid, deformed, landmarks: LandmarkSet | None = None) -> str:
    """Deformed grid as an SVG document: one polyline per row and column.

    ``original`` fixes the lattice shape; the polylines connect the deformed
    positions.  Optional landmark markers: circles at sources, crosses at
    targets.  Output is byte-deterministic.
    """
    pts = np.atleast_2d(np.asarray(deformed, float))
    rows, cols = original.rows, original.cols
    if pts.shape != (rows * cols, 2):
        raise ValueError(
            f"deformed grid has {pts.shape} points, expected ({rows * cols}, 2)"
        )
    grid = pts.reshape(rows, cols, 2)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="0 0 1000 1000">',
    ]
    def polyline(points_xy):
        coords = " ".join(f"{_svg_coord(x)},{_svg_coord(y)}" for x, y in points_xy)
        lines.append(f'<polyline fill="none" stroke="black" stroke-width="1" '
                     f'points="{coords}"/>')
    for i in range(rows):
        polyline(grid[i])
    for j in range(cols):
        polyline(grid[:, j])
    if landmarks is not None:
        for x, y in landmarks.sources:
            lines.append(f'<circle cx="{_svg_coord(x)}" cy="{_svg_coord(y)}" r="5" '
                         f'fill="none" stroke="blue" stroke-width="1.5"/>')
        for x, y in landmarks.targets:
            cx, cy = x * SVG_SCALE, y * SVG_SCALE
            lines.append(f'<path stroke="red" stroke-width="1.5" '
                         f'd="M {cx - 5:.3f} {cy:.3f} L {cx + 5:.3f} {cy:.3f} '
                         f'M {cx:.3f} {cy - 5:.3f} L {cx:.3f} {cy + 5:.3f}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# method configuration files

_KERNEL_KEYS = {
    "gaussian": {"alpha"},
    "tps": set(),
    "gmq": {"gamma", "mu"},
    "wendland1d": {"h", "c"},
    "wendland2d": {"h", "c"},
    "lobachevsky": {"n", "alpha", "a"},
}


def parse_config(text: str) -> dict:
    """Parse flat `key = value` lines; unknown keys are rejected downstream."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if not key or not value:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key in entries:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _take_float(entries: dict, key: str) -> float:
    try:
        return float(entries.pop(key))
    except KeyError:
        raise ConfigError(f"missing required key {key!r}") from None
    except ValueError:
        raise ConfigError(f"key {key!r} must be a number") from None


def _take_int(entries: dict, key: str) -> int:
    try:
        return int(entries.pop(key))
    except KeyError:
        raise ConfigError(f"missing required key {key!r}") from None
    except ValueError:
        raise ConfigError(f"key {key!r} must be an integer") from None


def _reject_extras(entries: dict):
    if entries:
        raise ConfigError(f"unknown config keys: {sorted(entries)}")


def method_from_config(text: str):
    """Turn config text into a builder: landmarks -> Transformation.

    Grammar (one `key = value` per line):

        method = global | shepard          # optional; default global
        kernel = gaussian | tps | gmq | wendland2d | wendland1d | lobachevsky
        alpha / gamma / mu / h / c / n / a # family parameters
        nodal_kernel = tps | gaussian      # shepard only
        n_l / n_w / rho                    # shepard only (rho: auto or number)

    wendland1d and lobachevsky kernels build tensor-product transforms.
    Unknown keys are errors.
    """
    entries = parse_config(text)
    method = entries.pop("method", "global").lower()
    if method == "shepard":
        nodal_name = entries.pop("nodal_kernel", None)
        if nodal_name is None:
            raise ConfigError("shepard method needs 'nodal_kernel = tps|gaussian'")
        nodal_name = nodal_name.lower()
        if nodal_name == "tps":
            nodal = ThinPlateSpline()
        elif nodal_name == "gaussian":
            nodal = Gaussian(_take_float(entries, "alpha"))
        else:
            raise ConfigError(f"unsupported nodal kernel {nodal_name!r}")
        n_l = _take_int(entries, "n_l")
        n_w = _take_int(entries, "n_w")
        rho_raw = entries.pop("rho", "auto")
        if rho_raw.lower() == "auto":
            rho = None
        else:
            try:
                rho = float(rho_raw)
            except ValueError:
                raise ConfigError("key 'rho' must be 'auto' or a number") from None
        _reject_extras(entries)
        try:
            cfg = ShepardConfig(nodal, n_l, n_w, rho)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return lambda landmarks: build_shepard_transform(landmarks, cfg)
    if method != "global":
        raise ConfigError(f"unsupported method {method!r}; use global or shepard")
    name = entries.pop("kernel", None)
    if name is None:
        raise ConfigError("missing required key 'kernel'")
    name = name.lower()
    if name not in _KERNEL_KEYS:
        raise ConfigError(f"unsupported kernel {name!r}; choose from {sorted(_KERNEL_KEYS)}")
    try:
        if name == "gaussian":
            kernel = Gaussian(_take_float(entries, "alpha"))
        elif name == "tps":
            kernel = ThinPlateSpline()
        elif name == "gmq":
            kernel = GeneralizedMultiquadric(_take_float(entries, "gamma"),
                                             _take_int(entries, "mu"))
        elif name == "wendland2d":
            kernel = WendlandRadial(2, _take_int(entries, "h"), _take_float(entries, "c"))
        elif name == "wendland1d":
            kernel = Wendland1D(_take_int(entries, "h"), _take_float(entries, "c"))
        else:
            n = _take_int(entries, "n")
            if "alpha" in entries and "a" in entries:
                raise ConfigError("give either 'alpha' or 'a' for lobachevsky, not both")
            if "alpha" in entries:
                kernel = LobachevskySpline(n, alpha=_take_float(entries, "alpha"))
            elif "a" in entries:
                kernel = LobachevskySpline(n, a=_take_float(entries, "a"))
            else:
                raise ConfigError("lobachevsky kernel needs 'alpha' or 'a'")
    except (KernelError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None
    _reject_extras(entries)
    if isinstance(kernel, (Wendland1D, LobachevskySpline)):
        return lambda landmarks: build_tensor_transform(kernel, landmarks)
    return lambda landmarks: solve_transform(kernel, landmarks)
