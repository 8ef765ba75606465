"""Paired source/target landmark sets.

A landmark pair maps a point in the source image onto its known position in
the target image and acts as an interpolation constraint.  Quasi-landmarks
are pairs whose source and target coincide; they pin the transformation in
place and prevent an overall drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MIN_SEPARATION = 1e-12
CHUNK_BYTES = 1 << 22    # size of one (rows, landmarks) block of a chunked points x landmarks pass


def chunk_rows(width: int, itemsize: int = 8) -> int:
    """Rows per chunk, so that a (rows, width) block of the itemsize fits CHUNK_BYTES."""
    return max(1, CHUNK_BYTES // max(1, width * itemsize))


def squared_distances(points, sources):
    """(P, N) squared Euclidean distances, in the dtype of the operands.

    The per-axis squares are added in coordinate order, the order of numpy's
    ``sum(-1)`` over m <= 3 coordinates, without a (P, N, m) difference array.
    """
    d2 = None
    for d in range(points.shape[1]):
        diff = points[:, None, d] - sources[None, :, d]
        diff *= diff
        if d2 is None:
            d2 = diff
        else:
            d2 += diff
    return d2


def distinct_axes(x):
    """Per coordinate of x (P, m): its distinct values, or None where more than P/2 are distinct.

    A coordinate whose values are all float64 numbers (as the 80-bit rung's
    points are) is sorted in float64, several times faster than in longdouble.
    """
    out = []
    for d in range(x.shape[1]):
        column = x[:, d]
        narrow = column.astype(float, copy=False)
        if narrow is not column and np.array_equal(narrow, column):
            column = narrow
        ordered = np.sort(column)
        fresh = ordered[1:] != ordered[:-1]
        if 2 * (1 + np.count_nonzero(fresh)) > len(x):
            out.append(None)
        else:
            out.append(ordered[np.concatenate(([True], fresh))].astype(x.dtype, copy=False))
    return out


def k_nearest(sources, points, k: int):
    """The k sources nearest each point: (indices, squared distances), each (P, k).

    Each row is ordered by (squared distance, index), as a stable argsort of
    the row would order it.  Points are taken in chunks of CHUNK_BYTES; in
    each row only the candidates within its k-th smallest distance
    (``np.partition``) are sorted.  They are packed in index order into a
    row padded with +inf to the chunk's largest candidate count, so a
    stable row-wise argsort breaks ties by index and leaves the padding last.
    """
    n = len(sources)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    indices = np.empty((len(points), k), dtype=np.intp)
    dist2 = np.empty((len(points), k))
    step = chunk_rows(n)
    for start in range(0, len(points), step):
        d2 = squared_distances(points[start:start + step], sources)
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        rows, cols = np.nonzero(d2 <= kth)           # row-major: index order within a row
        counts = np.bincount(rows, minlength=len(d2))
        slot = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        packed = np.full((len(d2), counts.max()), np.inf)
        packed[rows, slot] = d2[rows, cols]
        candidates = np.zeros(packed.shape, dtype=np.intp)
        candidates[rows, slot] = cols
        order = np.argsort(packed, axis=1, kind="stable")[:, :k]
        indices[start:start + len(d2)] = np.take_along_axis(candidates, order, axis=1)
        dist2[start:start + len(d2)] = np.take_along_axis(packed, order, axis=1)
    return indices, dist2


def _distance_blocks(sources):
    """(first row, block) over row chunks of the squared distance matrix, diagonal inf."""
    step = chunk_rows(len(sources))
    for start in range(0, len(sources), step):
        d2 = squared_distances(sources[start:start + step], sources)
        d2[np.arange(len(d2)), np.arange(start, start + len(d2))] = np.inf
        yield start, d2


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
        if idx.dtype.kind not in "iu":
            raise ValueError(f"subset indices must be integers, got dtype {idx.dtype}")
        ordered = np.sort(idx)
        if ordered[0] < 0 or ordered[-1] >= self.n:
            raise ValueError(f"subset indices must be in 0..{self.n - 1}")
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if len(repeated):
            i = int(np.flatnonzero(np.isin(idx, repeated))[0])
            j = int(np.flatnonzero(idx == idx[i])[1])
            raise ValueError(f"degenerate input: source landmarks {i} and {j} "
                             f"coincide (separation {0.0:.3e})")
        out = object.__new__(LandmarkSet)
        for name in ("sources", "targets", "quasi"):
            arr = getattr(self, name)[idx]
            arr.setflags(write=False)
            object.__setattr__(out, name, arr)
        return out
