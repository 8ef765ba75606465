"""Serialization: landmark CSV, grid CSV, config files, SVG grid renders.

Both CSV formats go through one reader, ``_table``, which reads a whole
file in one pass: one numpy conversion of every field, and checks on whole
arrays; only a malformed file goes on to a row loop that names its first
bad line.  The grid and landmark CSVs and the SVG fill one template per
file with one ``%`` operation (``_filled``); ``_csv`` writes ``regcli``'s
sweep and real-life reports.  All emitters are deterministic (identical
inputs give byte-identical text) and locale independent.  Floats are
written with 17 significant digits in CSV, which round-trips doubles
losslessly, and with 3 decimals in SVG, which is display-only.
Config files name their kernel from one table, ``_KERNELS``.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import repeat

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


def _filled(*parts) -> str:
    """Each (template, table) part's template once per row of its table, filled from the rows.

    One % operation formats every value of every part.
    """
    template = "".join(line * len(table) for line, table in parts)
    return template % tuple(np.concatenate([np.ravel(table) for _, table in parts]).tolist())


def _check_row(lineno: int, fields: list[str], width: int):
    """Raise the ParseError of a malformed CSV row, checking in reading order.

    The row has width fields.  Four numbers come first, each finite as
    float() reads it; a landmark row's fifth field is its quasi flag, and a
    quasi row's source must be its target.
    """
    if len(fields) != width:
        raise ParseError(f"line {lineno}: expected {width} fields, got {len(fields)}")
    for token in fields[:4]:
        try:
            value = float(token)
        except ValueError:
            raise ParseError(f"line {lineno}: {token!r} is not a number") from None
        if not math.isfinite(value):
            raise ParseError(f"line {lineno}: non-finite coordinate {token!r}")
    if width == 5:
        flag = fields[4].strip()
        if flag not in ("0", "1"):
            raise ParseError(f"line {lineno}: quasi flag must be 0 or 1, got {flag!r}")
        sx, sy, tx, ty = map(float, fields[:4])
        if flag == "1" and (abs(sx - tx) > QUASI_TOLERANCE or abs(sy - ty) > QUASI_TOLERANCE):
            raise ParseError(f"line {lineno}: quasi-landmark must have source == target")


def _table(text: str, header: str, kind: str) -> np.ndarray:
    """The non-blank rows after the header line as one (rows, fields) float array.

    Every field is read as float() reads it, a landmark row's quasi flag
    too.  A file is checked whole: the field count of each row, one numpy
    conversion of all fields, then finiteness, flags and quasi coordinates
    on whole arrays.  Only a malformed file goes on to the row loop, which
    raises the ParseError of its first bad line.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise ParseError(f"line 1: expected header {header!r}")
    rows = list(filter(str.strip, lines[1:]))
    if not rows:
        raise ParseError(f"no {kind} rows found")
    width = header.count(",") + 1
    if set(map(str.count, rows, repeat(","))) == {width - 1}:
        tokens = ",".join(rows).split(",")
        try:
            table = np.array(tokens, dtype=float).reshape(-1, width)
        except ValueError:              # some field is not a number
            pass
        else:
            if np.isfinite(table).all() and (width == 4 or _quasi_rows_hold(table, tokens[4::5])):
                return table
    for lineno, line in enumerate(lines[1:], start=2):
        if line.strip():
            _check_row(lineno, line.split(","), width)
    raise AssertionError("the bulk checks refused a CSV file whose rows all pass")


def _quasi_rows_hold(table, flags) -> bool:
    """Every quasi flag is 0 or 1, and each quasi row's source is its target."""
    if not set(map(str.strip, flags)) <= {"0", "1"}:
        return False
    quasi = table[table[:, 4] == 1.0]
    return not (np.abs(quasi[:, :2] - quasi[:, 2:4]) > QUASI_TOLERANCE).any()


# ---------------------------------------------------------------------------
# landmark CSV

def write_landmarks(landmarks: LandmarkSet) -> str:
    """Landmark set as `sx,sy,tx,ty,quasi` CSV text (2D only)."""
    if landmarks.dimension != 2:
        raise ValueError("landmark CSV files are 2D only")
    table = np.column_stack([landmarks.sources, landmarks.targets, landmarks.quasi])
    return f"{LANDMARK_HEADER}\n" + _filled(("%.17g,%.17g,%.17g,%.17g,%d\n", table))


def parse_landmarks(text: str) -> LandmarkSet:
    """Parse landmark CSV; quasi rows must satisfy source == target."""
    table = _table(text, LANDMARK_HEADER, "landmark")
    quasi = table[:, 4] == 1.0
    sources = table[:, :2].copy()
    return LandmarkSet(sources, np.where(quasi[:, None], sources, table[:, 2:4]), quasi)


# ---------------------------------------------------------------------------
# grid CSV

def write_grid_csv(points, values) -> str:
    """Grid evaluation as `x,y,fx,fy` rows, row-major point order.

    A lattice repeats each x and y value along its columns and rows, so each
    distinct point coordinate is formatted once and its text gathered into
    every row.  Coordinates are told apart by their bits: -0.0 stays "-0".
    """
    points = np.atleast_2d(np.asarray(points, float))
    values = np.atleast_2d(np.asarray(values, float))
    if points.shape != values.shape or points.shape[1] != 2:
        raise ValueError("points and values must both have shape (P, 2)")
    bits, inverse = np.unique(points.ravel().view(np.int64), return_inverse=True)
    texts = _filled(("%.17g,", bits.view(float))).split(",")
    cells = np.hstack([points, values]).ravel().tolist()
    cells[0::4] = map(texts.__getitem__, inverse[0::2].tolist())
    cells[1::4] = map(texts.__getitem__, inverse[1::2].tolist())
    return f"{GRID_HEADER}\n" + ("%s,%s,%.17g,%.17g\n" * len(points)) % tuple(cells)


def parse_grid_csv(text: str):
    """Parse `x,y,fx,fy` text back into (points, values) arrays."""
    table = _table(text, GRID_HEADER, "grid")
    return table[:, :2].copy(), table[:, 2:].copy()


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
_SVG_HEAD = ('<?xml version="1.0" encoding="UTF-8"?>\n'
             '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 1000 1000">\n')
_CIRCLE = '<circle cx="%.3f" cy="%.3f" r="5" fill="none" stroke="blue" stroke-width="1.5"/>\n'
_CROSS = '<path stroke="red" stroke-width="1.5" d="M %.3f %.3f L %.3f %.3f M %.3f %.3f L %.3f %.3f"/>\n'


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
    parts = [("%.3f,%.3f\n", pts * SVG_SCALE)]
    if landmarks is not None:
        if landmarks.dimension != 2:
            raise ValueError("landmark markers are 2D only")
        cx, cy = (landmarks.targets * SVG_SCALE).T
        parts += [(_CIRCLE, landmarks.sources * SVG_SCALE),
                  (_CROSS, np.column_stack([cx - 5, cy, cx + 5, cy, cx, cy - 5, cx, cy + 5]))]
    # each point's "x,y" on a line of its own, then the markers' lines
    *pairs, markers = _filled(*parts).split("\n", rows * cols)
    strands = ([pairs[i * cols:(i + 1) * cols] for i in range(rows)]
               + [pairs[j::cols] for j in range(cols)])
    polylines = "".join(f'<polyline fill="none" stroke="black" stroke-width="1" '
                        f'points="{" ".join(strand)}"/>\n' for strand in strands)
    return _SVG_HEAD + polylines + markers + "</svg>\n"


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
