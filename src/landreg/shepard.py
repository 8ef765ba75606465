"""Modified Shepard's transformation.

F(x) = sum_j L_j(x) Wbar_j(x), where the nodal function L_j is a local
radial-kernel interpolant fitted on the N_L source landmarks closest to
x_j, and the weights Wbar_j are localized inverse squared distances,
normalized into a partition of unity.  A landmark only influences nearby
evaluations: its weight is nonzero only where x falls both among the N_W
landmarks nearest to x and inside the hypercube of side rho_j centred at
x_j.  Should the hypercubes fail to cover x, the N_W-nearest rule alone is
used, so the weight sum never vanishes.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .kernels import RadialKernel, _positive_finite, polynomial_tail_degree
from .landmarks import LandmarkSet, k_nearest
from ._dd import DDArray
from .transform import (PRECISIONS, GlobalRadialTransform, SolveError, Transformation, _as_type_of,
                        _block_pays, _entry_bytes, _Problem, solve_transform, tail_dimension)


SNAP_RADIUS = 1e-12   # points this close to a landmark take its weight alone


class NodalSolveError(SolveError):
    """A nodal interpolant could not be solved (neighborhood degenerate)."""


@dataclass(frozen=True)
class ShepardConfig:
    """Locality parameters: neighborhood sizes and hypercube rule.

    ``rho = None`` sizes each hypercube automatically as twice the distance
    from its landmark to that landmark's N_W-th nearest neighbor, so the
    cube roughly covers the evaluation neighborhood; pass a number to fix
    one side length for all landmarks.
    """

    nodal_kernel: RadialKernel
    n_l: int
    n_w: int
    rho: float | None = None

    def __post_init__(self):
        for name in ("n_l", "n_w"):
            size = getattr(self, name)
            if not isinstance(size, numbers.Integral) or isinstance(size, bool):
                raise ValueError(f"neighborhood size {name} must be an integer, got {size!r}")
        if self.n_l < 1 or self.n_w < 1:
            raise ValueError("neighborhood sizes n_l and n_w must be >= 1")
        rho = self.rho
        if rho is not None and not _positive_finite(rho):
            raise ValueError(f"fixed hypercube side rho must be positive and finite, got {rho!r}")


def _validate(cfg: ShepardConfig, landmarks: LandmarkSet):
    if cfg.n_l > landmarks.n or cfg.n_w > landmarks.n:
        raise ValueError(
            f"neighborhood sizes (n_l={cfg.n_l}, n_w={cfg.n_w}) cannot exceed "
            f"the number of landmarks N={landmarks.n}"
        )
    u = tail_dimension(landmarks.dimension, polynomial_tail_degree(cfg.nodal_kernel))
    if u and cfg.n_l <= u:
        raise ValueError(
            f"nodal kernel needs n_l > {u} for its polynomial tail, got {cfg.n_l}"
        )


def nearest_landmarks(landmarks: LandmarkSet, x, k: int) -> np.ndarray:
    """Indices of the k source landmarks nearest to x; ties break by index."""
    point = np.asarray(x, dtype=float)
    m = landmarks.dimension
    if point.shape != (m,) or not np.isfinite(point).all():
        raise ValueError(f"x must be a finite point of shape ({m},), got {np.shape(x)}")
    return k_nearest(landmarks.sources, point[None], k)[0][0]


def node_radii(landmarks: LandmarkSet, cfg: ShepardConfig) -> np.ndarray:
    """Hypercube side rho_j for every landmark (auto rule or fixed)."""
    if cfg.rho is not None:
        return np.full(landmarks.n, float(cfg.rho))
    src = landmarks.sources
    # the N_W nearest include the landmark itself at distance 0
    return 2.0 * np.sqrt(k_nearest(src, src, cfg.n_w)[1][:, -1])


@dataclass(frozen=True)
class NodalFunction:
    """Local interpolant L_j and the neighborhood it was fitted on."""

    center: int
    neighbors: np.ndarray
    interpolant: GlobalRadialTransform


def build_nodal_interpolants(landmarks: LandmarkSet, cfg: ShepardConfig) -> list[NodalFunction]:
    """Fit one local interpolant per landmark on its N_L nearest sources.

    All N local systems are solved by one call to solve_transform, as one
    stack per precision rung.
    """
    _validate(cfg, landmarks)
    neighbors, _ = k_nearest(landmarks.sources, landmarks.sources, cfg.n_l)
    try:
        local = solve_transform(cfg.nodal_kernel, landmarks, neighbors)
    except SolveError as exc:
        raise NodalSolveError(f"nodal interpolant {exc.index}: {exc}") from exc
    return [NodalFunction(j, idx, t) for j, (idx, t) in enumerate(zip(neighbors, local))]


def _weights_matrix(landmarks: LandmarkSet, cfg: ShepardConfig, rho, pts, near, d2) -> np.ndarray:
    """Normalized weights Wbar for a batch of points, shape (P, N_W), aligned with near.

    near and d2 are k_nearest(landmarks.sources, pts, cfg.n_w): entry [p, s]
    is the weight of landmark near[p, s] at point p.  A point within
    SNAP_RADIUS of its nearest landmark gives all its weight to it (slot 0).
    """
    gap = np.abs(pts[:, None, 0] - landmarks.sources[near, 0])     # Chebyshev distance, axis by axis
    for axis in range(1, pts.shape[1]):
        np.maximum(gap, np.abs(pts[:, None, axis] - landmarks.sources[near, axis]), out=gap)
    tau = gap <= rho[near] / 2.0
    tau[~tau.any(axis=1)] = True     # outside every cube: the N_W-nearest rule alone
    with np.errstate(divide="ignore", invalid="ignore"):
        wbar = np.where(tau, 1.0 / d2, 0.0)
        wbar /= wbar.sum(axis=1)[:, None]
    snapped = d2[:, 0] < SNAP_RADIUS ** 2
    wbar[snapped] = 0.0
    wbar[snapped, 0] = 1.0
    return wbar


def _submatrix(a, rows, cols):
    """a[rows][:, cols] of a 2-D block, C-ordered, by one flat take of just those entries."""
    if isinstance(a, DDArray):
        return DDArray(_submatrix(a.hi, rows, cols), _submatrix(a.lo, rows, cols))
    return a.reshape(-1).take(rows[:, None] * a.shape[1] + cols)


def _shared_values(kernel, landmarks, members, pts):
    """Evaluate the members' interpolants from one shared kernel block, or None.

    members is [(NodalFunction, the points it weighs)], all of one rung:
    a whole rung, or one spatial cell of it (_evaluate).  The block pairs
    every such point with every landmark of the members' neighborhoods, in
    the rung's array type, and the tail's monomials are computed once on
    its points.  Kernel values and monomials are elementwise, so the
    (P_j, N_L) sub-block and the tail rows a member gathers carry the bits
    of its own eval_rows and tail_rows wherever both take the same (radial
    or product) form.  They are gathered in the memory order of its own
    (C for the kernel rows, monomial_matrix's Fortran order for the tail):
    with one output coordinate a float64 product is a gemv, whose bits
    follow its operands' order.  None where _block_pays refuses the block
    against the members' separate blocks at the rung's bytes per entry: a
    block it approves fits one evaluation chunk, and so does each member's
    own evaluation, so the gathered product is the one it would run.  The
    unions are masks over the points and the landmarks, counted before
    anything is built.  The block lives as long as the returned function.
    """
    if not members:
        return None
    in_block = np.zeros(len(pts), dtype=bool)
    in_block[np.concatenate([active for _, active in members])] = True
    in_cols = np.zeros(landmarks.n, dtype=bool)
    in_cols[np.concatenate([nf.neighbors for nf, _ in members])] = True
    problem, z = members[0][0].interpolant._problem, members[0][0].interpolant._z
    if not _block_pays(np.count_nonzero(in_block), np.count_nonzero(in_cols),
                       sum(len(active) * len(nf.neighbors) for nf, active in members),
                       _entry_bytes(z)):
        return None
    row_of, col_of = np.cumsum(in_block) - 1, np.cumsum(in_cols) - 1   # positions in the block
    x = _as_type_of(pts[in_block], z)
    block = _Problem(kernel, landmarks.sources[in_cols], None).eval_rows(x)
    tail = problem.tail_rows(x)

    def values(nf, active):
        rows = row_of[active]
        sub = _submatrix(block, rows, col_of[nf.neighbors])
        own = None if tail is None else tail[rows]
        if isinstance(tail, np.ndarray) and not tail.flags.c_contiguous:
            own = np.asfortranarray(own)
        return nf.interpolant._problem.block_values(nf.interpolant._z, sub, own)
    return values


def _cells(landmarks, rung):
    """The nodes of rung cut into spatial cells, each a list of rung's entries in node order.

    rung is [(NodalFunction, anything)].  A node falls in the cell of its
    centre on a lattice of side _cell_side anchored at the centres' lower
    corner.  Cells come in the lexicographic order of their lattice
    coordinates.
    """
    centres = landmarks.sources[[nf.center for nf, _ in rung]]
    keys = np.floor((centres - centres.min(0)) / _cell_side(landmarks, [nf for nf, _ in rung]))
    cell = np.unique(keys, axis=0, return_inverse=True)[1].ravel()
    order = np.argsort(cell, kind="stable")
    return [[rung[i] for i in part]
            for part in np.split(order, np.flatnonzero(np.diff(cell[order])) + 1)]


def _cell_side(landmarks, nodal):
    """Side of the cells that _cells cuts nodal (two or more nodes) into: positive.

    The median Chebyshev extent (widest coordinate range) of the nodes'
    N_L neighbourhoods, so that a cell spans about one neighbourhood.  A
    neighbourhood of one landmark (n_l = 1) has none; there the side is the
    extent of the nodes' centres, which are distinct landmarks.
    """
    hoods = landmarks.sources[np.array([nf.neighbors for nf in nodal])]
    side = np.median((hoods.max(1) - hoods.min(1)).max(1))
    if side > 0:
        return side
    centres = landmarks.sources[[nf.center for nf in nodal]]
    return (centres.max(0) - centres.min(0)).max()


def _evaluate(cfg, landmarks, rho, nodal, pts):
    """F = sum_j L_j Wbar_j at pts, summed in one pass over the nonzero weights.

    Every term L_j(x_p) Wbar_j(x_p) with a nonzero weight is one row of a
    (T, m) buffer, the terms ordered by node and, within a node, by point.
    np.bincount then sums each coordinate into its point in that order, so
    each point adds its terms in node order, as one += per node into a
    zeroed output would: the order in which the nodes are evaluated does
    not touch the bits.  The nodes of one rung share _shared_values's
    block where it pays for all of them.  Where it does not, a rung of two
    or more nodes is cut into spatial cells (_cells), and each cell of two
    or more nodes asks _shared_values for its own block, built, read and
    dropped before the next; a lone node, and the nodes of a refused block,
    evaluate their own interpolant.
    """
    near, d2 = k_nearest(landmarks.sources, pts, cfg.n_w)
    wbar = _weights_matrix(landmarks, cfg, rho, pts, near, d2)
    # the points each landmark weighs, grouped by landmark, ascending within a group;
    # numpy radix-sorts keys of 16 bits or fewer, in the same stable order
    terms = np.flatnonzero(wbar)
    keys = near.ravel()[terms].astype(np.min_scalar_type(landmarks.n - 1))
    terms = terms[np.argsort(keys, kind="stable")]
    rows, nodes, weights = terms // cfg.n_w, near.ravel()[terms], wbar.ravel()[terms]
    bounds = np.searchsorted(nodes, np.arange(landmarks.n + 1))
    del near, d2, wbar, terms, keys, nodes      # the (P, N_W) arrays, before the nodal blocks
    groups = [(nf, slice(bounds[nf.center], bounds[nf.center + 1])) for nf in nodal]
    groups = [(nf, group) for nf, group in groups if group.start < group.stop]
    values = np.empty((len(rows), landmarks.dimension))

    def block(cell):
        return _shared_values(cfg.nodal_kernel, landmarks,
                              [(nf, rows[group]) for nf, group in cell], pts)

    def fill(cell, shared):
        for nf, group in cell:
            active = rows[group]
            values[group] = nf.interpolant(pts[active]) if shared is None else shared(nf, active)

    for precision in PRECISIONS:
        rung = [(nf, group) for nf, group in groups if nf.interpolant.precision == precision]
        shared = block(rung)
        if shared is None and len(rung) > 1:
            for cell in _cells(landmarks, rung):
                # a cell's block lives for its fill alone: one block at a time
                fill(cell, block(cell) if len(cell) > 1 else None)
        else:
            fill(rung, shared)
        del shared
    values *= weights[:, None]
    out = np.empty((pts.shape[0], landmarks.dimension))
    for d in range(landmarks.dimension):
        out[:, d] = np.bincount(rows, values[:, d], minlength=pts.shape[0])
    return out


def _center_values(nodal, landmarks: LandmarkSet) -> np.ndarray:
    """L_j(x_j) of every nodal function, (len(nodal), m), in one stacked evaluation per rung.

    The (S, 1, N_L) kernel rows of a rung's S centres come from one stacked
    kernel_rows, and one stacked matmul, plus the tail's, gives the values.
    Each row is the kernel_rows of the single point x_j, and each float64
    or 80-bit coefficient slice keeps its interpolant's memory layout, so a
    stacked product, which runs each member's own BLAS call, carries the
    bits of the interpolant's own evaluation at x_j.  A double-double
    product is a pairwise sum per row, stacked or not.
    """
    out = np.empty((len(nodal), landmarks.dimension))
    for precision in PRECISIONS:
        rung = [j for j, nf in enumerate(nodal) if nf.interpolant.precision == precision]
        if not rung:
            continue
        members = [nodal[j] for j in rung]
        centers = np.array([nf.center for nf in members])
        index = np.array([nf.neighbors for nf in members])
        problem = members[0].interpolant._problem
        x = _as_type_of(landmarks.sources[centers][:, None], members[0].interpolant._z)
        rows = _Problem(problem.kernel, landmarks.sources[index], None).kernel_rows(x)
        z = [nf.interpolant._z for nf in members]
        if precision == "mp":
            z = DDArray(np.stack([z_j.hi for z_j in z]), np.stack([z_j.lo for z_j in z]))
        else:    # each (N_L + U, m) slice column-major, as getrs leaves a solution
            z = np.stack([z_j.T for z_j in z]).transpose(0, 2, 1)
        out[rung] = problem.block_values(z, rows, problem.tail_rows(x))[:, 0]
    return out


class ShepardTransform(Transformation):
    """Built modified-Shepard transformation (immutable, reentrant)."""

    kind = "shepard"

    def __init__(self, landmarks, config, nodal, rho):
        self.landmarks = landmarks
        self.config = config
        self.nodal = nodal
        self.rho = rho
        centers = _center_values(nodal, landmarks)
        self.residual = float(np.abs(centers - landmarks.targets).max())
        self.condition = max(nf.interpolant.condition for nf in nodal)
        self.ill_conditioned = any(nf.interpolant.ill_conditioned for nf in nodal)

    def __call__(self, points):
        pts, single = self._wrap(points)
        out = _evaluate(self.config, self.landmarks, self.rho, self.nodal, pts)
        return out[0] if single else out


def build_shepard_transform(landmarks: LandmarkSet, cfg: ShepardConfig) -> ShepardTransform:
    """Fit all nodal interpolants and freeze the Shepard transformation."""
    nodal = build_nodal_interpolants(landmarks, cfg)
    return ShepardTransform(landmarks, cfg, nodal, node_radii(landmarks, cfg))
