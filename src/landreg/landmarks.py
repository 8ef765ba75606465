"""Paired source/target landmark sets.

A landmark pair maps a point in the source image onto its known position in
the target image and acts as an interpolation constraint.  Quasi-landmarks
are pairs whose source and target coincide; they pin the transformation in
place and prevent an overall drift.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from ._dd import DDArray

MIN_SEPARATION = 1e-12
CHUNK_BYTES = 1 << 22    # size of one (rows, landmarks) block of a chunked points x landmarks pass
# Most points in one tile of a k_nearest query of more than one chunk.  On 1000 landmarks
# and a 141 x 141 grid at k = 25 (2-core x86_64), tiles of at most 64 / 128 / 256 / 524
# points took 146 / 110 / 114 / 118 ms, against 440-495 ms for the query without tiles.
TILE_ROWS = 128
TILE_SLACK = 1e-12       # relative widening of a tile's candidate radius, over rounding


def chunk_rows(width: int, itemsize: int = 8) -> int:
    """Rows per chunk, so that a (rows, width) block of the itemsize fits CHUNK_BYTES."""
    return max(1, CHUNK_BYTES // max(1, width * itemsize))


def squared_distances(points, sources, tables=None, work=None):
    """(..., P, N) squared Euclidean distances of points (..., P, m) and sources (..., N, m).

    In the operands' array type: an ndarray of their dtype, or a DDArray.
    The per-axis squares are added in coordinate order, the order of
    numpy's ``sum(-1)`` over m <= 3, without a (P, N, m) array.  tables
    holds, per axis of 2-D points, None or (the (U, N) table of (v - c_d)^2
    over the axis's distinct values v, each point's row in it): such an axis
    takes its squares as rows of the table, the same squares, so the same
    bits.  work, a pair of (P, N) ndarrays of the operands' dtype, holds the
    sum in work[0] and the squares of each later axis in work[1].
    """
    d2 = None
    for d, table in enumerate(tables or [None] * points.shape[-1]):
        into = None if work is None else work[min(d, 1)]
        if table is None:
            diff = np.subtract(points[..., :, None, d], sources[..., None, :, d], out=into)
            diff *= diff
        elif into is None:
            diff = table[0][table[1]]
        else:
            # every row is in the table, so clip moves no index; it keeps take
            # from buffering its output, as the default mode does
            diff = np.take(*table, axis=0, out=into, mode="clip")
        if d2 is None:
            d2 = diff
        else:
            d2 += diff
    return d2


def distinct_axes(x, limit=None):
    """Per coordinate of x (P, m): (its distinct values, each point's row in them), or None.

    None where more than P/2 of the values, or more than limit, are
    distinct.  The values are ascending.  A coordinate whose values are all
    float64 numbers (as the 80-bit and double-double rungs' points are) is
    sorted, and its values kept, in float64, several times faster than in
    longdouble; a double-double coordinate that is not is None.
    """
    out = []
    for d in range(x.shape[1]):
        column = x[:, d]
        if isinstance(column, DDArray):
            if column.lo.any():
                out.append(None)
                continue
            column = column.hi
        else:
            narrow = column.astype(float, copy=False)
            if narrow is not column and np.array_equal(narrow, column):
                column = narrow
        ordered = np.sort(column)
        fresh = ordered[1:] != ordered[:-1]
        count = 1 + np.count_nonzero(fresh)
        if 2 * count > len(x) or (limit is not None and count > limit):
            out.append(None)
        else:
            values = ordered[np.concatenate(([True], fresh))]
            out.append((values, np.searchsorted(values, column)))
    return out


def _nearest_in_block(d2, k):
    """The k smallest entries of each row of d2: (columns, values), each (rows, k).

    Rows are ordered by (value, column), as a stable argsort of the row
    would order them.  Only the entries within a row's k-th smallest value
    (``np.partition``) are sorted.  They are packed in column order into a
    row padded with +inf to the block's largest candidate count, so a
    stable row-wise argsort breaks ties by column and leaves the padding last.
    """
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    rows, cols = np.nonzero(d2 <= kth)           # row-major: column order within a row
    counts = np.bincount(rows, minlength=len(d2))
    slot = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    packed = np.full((len(d2), counts.max()), np.inf)
    packed[rows, slot] = d2[rows, cols]
    candidates = np.zeros(packed.shape, dtype=np.intp)
    candidates[rows, slot] = cols
    order = np.argsort(packed, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(candidates, order, axis=1), np.take_along_axis(packed, order, axis=1)


def _tiles(points, size):
    """Row indices of compact groups of at most size points, with each group's box.

    A group is halved at the median of its widest coordinate until it holds
    at most size points, as the leaves of a k-d tree are.  Yields
    (rows, lo, hi), lo and hi the corners of the rows' bounding box.
    """
    coords = np.ascontiguousarray(points.T)   # (m, P): reductions run over contiguous values
    stack = [np.arange(len(points))]
    while stack:
        rows = stack.pop()
        x = coords.take(rows, axis=1)
        lo, hi = x.min(1), x.max(1)
        if len(rows) <= size:
            yield rows, lo, hi
            continue
        half = len(rows) // 2
        order = np.argpartition(x[np.argmax(hi - lo)], half)
        stack += [rows[order[:half]], rows[order[half:]]]


def _tile_blocks(sources, points, k):
    """(rows, columns) blocks of a multi-chunk k_nearest, columns ascending.

    Every p in a tile of centre c and half-diagonal h has its k-th nearest
    source within d_k(c) + h (d_k is 1-Lipschitz), so all of its k nearest
    lie within d_k(c) + 2h of c.  That radius, widened by TILE_SLACK and by
    the smallest normal float64 in the square (for squares that underflow),
    picks the tile's candidate columns; where it is not finite, every
    source is a candidate.  A tile holds at most one chunk of points, so its
    block fits CHUNK_BYTES even when every source is a candidate.
    """
    n = len(sources)
    tiles, lo, hi = zip(*_tiles(points, min(TILE_ROWS, chunk_rows(n))))
    lo, hi = np.array(lo), np.array(hi)
    centre = (lo + hi) / 2
    half = np.maximum(hi - centre, centre - lo)
    radius = 2.0 * np.sqrt((half * half).sum(1))
    step = chunk_rows(n)
    for start in range(0, len(tiles), step):
        d2 = squared_distances(centre[start:start + step], sources)
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        reach = (np.sqrt(kth) + radius[start:start + step]) * (1.0 + TILE_SLACK)
        within = d2 <= (reach * reach + np.finfo(float).tiny)[:, None]
        for rows, near in zip(tiles[start:start + step], within):
            yield rows, np.flatnonzero(near)


def k_nearest(sources, points, k: int):
    """The k sources nearest each point: (indices, squared distances), each (P, k).

    Each row is ordered by (squared distance, index), as a stable argsort of
    the row would order it.  Points that fit one chunk of CHUNK_BYTES are
    measured against every source.  More points are grouped into spatial
    tiles, and each tile is measured only against the sources that can be
    among its points' k nearest (_tile_blocks), in index order.  A row's
    result depends on that row alone, so both give the same bits.
    """
    n = len(sources)
    if not (isinstance(k, numbers.Integral) and not isinstance(k, bool) and 1 <= k <= n):
        raise ValueError(f"k must be an integer in 1..{n}, got {k!r}")
    points = np.asarray(points)
    m = sources.shape[1]
    if points.ndim != 2 or points.shape[1] != m or points.dtype.kind not in "fiu":
        raise ValueError(f"points must be a (P, {m}) array of numbers, got shape "
                         f"{points.shape} and dtype {points.dtype}")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    indices = np.empty((len(points), k), dtype=np.intp)
    dist2 = np.empty((len(points), k))
    step = chunk_rows(n)
    if len(points) <= step:
        blocks = [(slice(None), slice(None))] if len(points) else []
    else:
        blocks = _tile_blocks(sources, points, k)
    for rows, cols in blocks:
        near, d2 = _nearest_in_block(squared_distances(points[rows], sources[cols]), k)
        indices[rows] = near if isinstance(cols, slice) else cols[near]
        dist2[rows] = d2
    return indices, dist2


def _distance_blocks(sources):
    """(first row, block) over row chunks of the squared distance matrix, diagonal inf."""
    step = chunk_rows(len(sources))
    for start in range(0, len(sources), step):
        with np.errstate(over="ignore"):      # an overflowed square is +inf: not coincident
            d2 = squared_distances(sources[start:start + step], sources)
        d2[np.arange(len(d2)), np.arange(start, start + len(d2))] = np.inf
        yield start, d2


_FIELDS = ("sources", "targets", "quasi")


@dataclass(frozen=True)
class LandmarkSet:
    """Immutable set of N landmark pairs in R^m (m = 1, 2 or 3)."""

    sources: np.ndarray
    targets: np.ndarray
    quasi: np.ndarray = field(default=None)

    def __post_init__(self):
        sources = np.atleast_2d(np.asarray(self.sources, dtype=float))
        targets = np.atleast_2d(np.asarray(self.targets, dtype=float))
        if sources.ndim != 2 or targets.shape != sources.shape:
            raise ValueError("sources and targets must both have shape (N, m)")
        n, m = sources.shape
        if n < 1:
            raise ValueError("at least one landmark pair is required")
        if not 1 <= m <= 3:
            raise ValueError(f"dimension must be 1, 2 or 3, got {m}")
        if not (np.isfinite(sources).all() and np.isfinite(targets).all()):
            raise ValueError("landmark coordinates must be finite")
        quasi = self.quasi
        if quasi is None:
            quasi = np.zeros(n, dtype=bool)
        else:
            quasi = np.asarray(quasi, dtype=bool)
            if quasi.shape != (n,):
                raise ValueError("quasi flags must have shape (N,)")
        separation = np.sqrt(min(d2.min() for _, d2 in _distance_blocks(sources)))
        if separation <= MIN_SEPARATION:
            # report the first pair in row-major order at that separation
            for start, d2 in _distance_blocks(sources):
                hits = np.flatnonzero(np.sqrt(d2) == separation)
                if len(hits):
                    i, j = divmod(int(hits[0]), n)
                    raise ValueError(
                        f"degenerate input: source landmarks {start + i} and {j} "
                        f"coincide (separation {separation:.3e})"
                    )
        if quasi.any() and not np.array_equal(sources[quasi], targets[quasi]):
            raise ValueError("quasi-landmarks must satisfy source == target")
        for arr in (sources, targets, quasi):
            arr.setflags(write=False)
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "quasi", quasi)

    @property
    def n(self) -> int:
        return self.sources.shape[0]

    @property
    def dimension(self) -> int:
        return self.sources.shape[1]

    def __len__(self) -> int:
        return self.n

    def subset(self, indices) -> "LandmarkSet":
        """Landmark set restricted to (and renumbered by) the given indices.

        The subset inherits this set's checks, so only the indices are
        checked: a non-empty 1-D sequence of distinct integers in 0..N-1.  A
        repeated index is a pair of coinciding landmarks.
        """
        idx = np.asarray(indices)
        if idx.ndim != 1 or not len(idx):
            raise ValueError("subset indices must be a non-empty 1-D sequence")
        self._check_rows(idx[None])
        return LandmarkSet._unchecked(*(getattr(self, name)[idx] for name in _FIELDS))

    def _check_rows(self, index):
        """Check each row of an (S, K) index array as subset checks its indices.

        One pass over the whole array: its dtype, its range, and repeats
        within each row by a row-wise sort.  The first bad row raises the
        error subset raises for it.
        """
        if index.dtype.kind not in "iu":
            raise ValueError(f"subset indices must be integers, got dtype {index.dtype}")
        ordered = np.sort(index, axis=1)
        outside = (ordered[:, 0] < 0) | (ordered[:, -1] >= self.n)
        repeats = ordered[:, 1:] == ordered[:, :-1]
        bad = outside | repeats.any(axis=1)
        if not bad.any():
            return
        first = int(bad.argmax())
        if outside[first]:
            raise ValueError(f"subset indices must be in 0..{self.n - 1}")
        row = index[first]
        i = int(np.flatnonzero(np.isin(row, ordered[first, 1:][repeats[first]]))[0])
        j = int(np.flatnonzero(row == row[i])[1])
        raise ValueError(f"degenerate input: source landmarks {i} and {j} "
                         f"coincide (separation {0.0:.3e})")

    @staticmethod
    def _unchecked(sources, targets, quasi) -> "LandmarkSet":
        """A set of arrays cut from a checked set, made read-only and taken as they are."""
        out = object.__new__(LandmarkSet)
        for name, arr in zip(_FIELDS, (sources, targets, quasi)):
            arr.setflags(write=False)
            object.__setattr__(out, name, arr)
        return out
