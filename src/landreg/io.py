"""Serialization: landmark CSV, grid CSV, config files, SVG grid renders.

Both CSV formats go through one reader, ``_rows``, which checks the header
and each row's field count, and one writer, ``_csv``, which also emits
``regcli``'s sweep and real-life reports.  All emitters are deterministic
(identical inputs give byte-identical text) and locale independent.
Floats are written with 17 significant digits in CSV, which round-trips
doubles losslessly, and with 3 decimals in SVG, which is display-only.
Config files name their kernel from one table, ``_KERNELS``.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .bench import EvaluationGrid
from .kernels import (Gaussian, GeneralizedMultiquadric, ThinPlateSpline,
                      Wendland1D, WendlandRadial)
from .landmarks import LandmarkSet
from .lobachevsky import LobachevskySpline
from .shepard import ShepardConfig, build_shepard_transform
from .transform import solve_transform

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


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then one line per row of formatted fields."""
    return "\n".join([header, *map(",".join, rows)]) + "\n"


def _formatted(*arrays) -> list[str]:
    """The 17-digit text of each value of the arrays side by side, row by row."""
    return [format(v, ".17g") for v in np.hstack(arrays).ravel().tolist()]


def _rows(text: str, header: str, width: int):
    """Yield (line number, fields) of each non-blank row after the header line."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise ParseError(f"line 1: expected header {header!r}")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise ParseError(f"line {lineno}: expected {width} fields, got {len(fields)}")
        yield lineno, fields


def _parse_float(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"line {lineno}: {token!r} is not a number") from None
    if not math.isfinite(value):
        raise ParseError(f"line {lineno}: non-finite coordinate {token!r}")
    return value


# ---------------------------------------------------------------------------
# landmark CSV

def write_landmarks(landmarks: LandmarkSet) -> str:
    """Landmark set as `sx,sy,tx,ty,quasi` CSV text (2D only)."""
    if landmarks.dimension != 2:
        raise ValueError("landmark CSV files are 2D only")
    coords = iter(_formatted(landmarks.sources, landmarks.targets))
    flags = ("1" if q else "0" for q in landmarks.quasi.tolist())
    return _csv(LANDMARK_HEADER, zip(coords, coords, coords, coords, flags))


def parse_landmarks(text: str) -> LandmarkSet:
    """Parse landmark CSV; quasi rows must satisfy source == target."""
    coords, quasi = [], []
    for lineno, fields in _rows(text, LANDMARK_HEADER, 5):
        sx, sy, tx, ty = (_parse_float(f, lineno) for f in fields[:4])
        flag = fields[4].strip()
        if flag not in ("0", "1"):
            raise ParseError(f"line {lineno}: quasi flag must be 0 or 1, got {flag!r}")
        is_quasi = flag == "1"
        if is_quasi and (abs(sx - tx) > QUASI_TOLERANCE or abs(sy - ty) > QUASI_TOLERANCE):
            raise ParseError(f"line {lineno}: quasi-landmark must have source == target")
        if is_quasi:
            tx, ty = sx, sy
        coords += (sx, sy, tx, ty)
        quasi.append(is_quasi)
    if not quasi:
        raise ParseError("no landmark rows found")
    coords = np.array(coords).reshape(-1, 2, 2)
    return LandmarkSet(coords[:, 0].copy(), coords[:, 1].copy(), np.array(quasi))


# ---------------------------------------------------------------------------
# grid CSV

def write_grid_csv(points, values) -> str:
    """Grid evaluation as `x,y,fx,fy` rows, row-major point order."""
    points = np.atleast_2d(np.asarray(points, float))
    values = np.atleast_2d(np.asarray(values, float))
    if points.shape != values.shape or points.shape[1] != 2:
        raise ValueError("points and values must both have shape (P, 2)")
    fields = iter(_formatted(points, values))
    return _csv(GRID_HEADER, zip(fields, fields, fields, fields))


def parse_grid_csv(text: str):
    """Parse `x,y,fx,fy` text back into (points, values) arrays."""
    flat = []
    for lineno, fields in _rows(text, GRID_HEADER, 4):
        flat += (_parse_float(f, lineno) for f in fields)
    if not flat:
        raise ParseError("no grid rows found")
    table = np.array(flat).reshape(-1, 2, 2)
    return table[:, 0].copy(), table[:, 1].copy()


def infer_grid_shape(points) -> tuple[int, int]:
    """Recover (rows, cols) from row-major lattice points (x varies fastest).

    Every row must share one y and every column one x.
    """
    points = np.asarray(points)
    ys = points[:, 1]
    changes = np.flatnonzero(ys[1:] != ys[:-1])
    cols = int(changes[0]) + 1 if len(changes) else len(points)
    if cols == 0 or len(points) % cols != 0:
        raise ValueError("points do not form a row-major rectangular grid")
    lattice = points.reshape(-1, cols, 2)
    if not ((lattice[:, :, 1] == lattice[:, :1, 1]).all()
            and (lattice[:, :, 0] == lattice[:1, :, 0]).all()):
        raise ValueError("points do not form a row-major rectangular grid")
    return len(points) // cols, cols


# ---------------------------------------------------------------------------
# SVG rendering

SVG_SCALE = 1000.0


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
    coords = iter([format(v, ".3f") for v in (pts * SVG_SCALE).ravel().tolist()])
    pairs = [f"{x},{y}" for x, y in zip(coords, coords)]

    def polyline(strand):
        return f'<polyline fill="none" stroke="black" stroke-width="1" points="{" ".join(strand)}"/>'

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="0 0 1000 1000">',
    ]
    lines += (polyline(pairs[i * cols:(i + 1) * cols]) for i in range(rows))
    lines += (polyline(pairs[j::cols]) for j in range(cols))
    if landmarks is not None:
        for x, y in (landmarks.sources * SVG_SCALE).tolist():
            lines.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="5" '
                         f'fill="none" stroke="blue" stroke-width="1.5"/>')
        for cx, cy in (landmarks.targets * SVG_SCALE).tolist():
            lines.append(f'<path stroke="red" stroke-width="1.5" '
                         f'd="M {cx - 5:.3f} {cy:.3f} L {cx + 5:.3f} {cy:.3f} '
                         f'M {cx:.3f} {cy - 5:.3f} L {cx:.3f} {cy + 5:.3f}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# method configuration files

# config name -> (constructor, its (key, type) pairs in reading order); a
# tuple of keys takes exactly one of them
_KERNELS = {
    "gaussian": (Gaussian, (("alpha", float),)),
    "tps": (ThinPlateSpline, ()),
    "gmq": (GeneralizedMultiquadric, (("gamma", float), ("mu", int))),
    "wendland1d": (Wendland1D, (("h", int), ("c", float))),
    "wendland2d": (partial(WendlandRadial, 2), (("h", int), ("c", float))),
    "lobachevsky": (LobachevskySpline, (("n", int), (("alpha", "a"), float))),
}
_NODAL_KERNELS = ("tps", "gaussian")
_TYPE_NAMES = {float: "a number", int: "an integer"}


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


def _take(entries: dict, key: str, kind: type):
    """Pop entries[key] as a float or an int."""
    try:
        raw = entries.pop(key)
    except KeyError:
        raise ConfigError(f"missing required key {key!r}") from None
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"key {key!r} must be {_TYPE_NAMES[kind]}") from None


def _kernel(name: str, entries: dict):
    """Build the _KERNELS entry `name` from its keys, popped from entries."""
    constructor, keys = _KERNELS[name]
    args = {}
    for key, kind in keys:
        if isinstance(key, tuple):
            given = [k for k in key if k in entries]
            if len(given) > 1:
                raise ConfigError(f"give either {key[0]!r} or {key[1]!r} for {name}, not both")
            if not given:
                raise ConfigError(f"{name} kernel needs {key[0]!r} or {key[1]!r}")
            key = given[0]
        args[key] = _take(entries, key, kind)
    return _construct(constructor, **args)


def _construct(constructor, *args, **kwargs):
    """constructor(*args, **kwargs), its ValueError (KernelError included) a ConfigError."""
    try:
        return constructor(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
        if nodal_name not in _NODAL_KERNELS:
            raise ConfigError(f"unsupported nodal kernel {nodal_name!r}")
        nodal = _kernel(nodal_name, entries)
        n_l = _take(entries, "n_l", int)
        n_w = _take(entries, "n_w", int)
        rho_raw = entries.pop("rho", "auto")
        if rho_raw.lower() == "auto":
            rho = None
        else:
            try:
                rho = float(rho_raw)
            except ValueError:
                raise ConfigError("key 'rho' must be 'auto' or a number") from None
        _reject_extras(entries)
        cfg = _construct(ShepardConfig, nodal, n_l, n_w, rho)
        return lambda landmarks: build_shepard_transform(landmarks, cfg)
    if method != "global":
        raise ConfigError(f"unsupported method {method!r}; use global or shepard")
    name = entries.pop("kernel", None)
    if name is None:
        raise ConfigError("missing required key 'kernel'")
    name = name.lower()
    if name not in _KERNELS:
        raise ConfigError(f"unsupported kernel {name!r}; choose from {sorted(_KERNELS)}")
    kernel = _kernel(name, entries)
    _reject_extras(entries)
    return lambda landmarks: solve_transform(kernel, landmarks)
