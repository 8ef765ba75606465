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
from .landmarks import CHUNK_BYTES, LandmarkSet, k_nearest
from .transform import (GlobalRadialTransform, SolveError, Transformation, _Problem,
                        solve_transform, tail_dimension)


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


def _shared_values(kernel, landmarks, members, pts, dtype):
    """Evaluate the members' interpolants from one shared kernel block, or None.

    members is [(NodalFunction, the points it weighs)], all of one rung.
    The block pairs every such point with every landmark of the members'
    neighborhoods, in the rung's dtype.  Kernel values are elementwise, so
    the (P_j, N_L) sub-block a member gathers carries the bits of its own
    eval_rows wherever both take the same (radial or product) form.  None
    when the block would hold more entries than the members' separate
    blocks together, or more than CHUNK_BYTES; within CHUNK_BYTES each
    member's own evaluation is one chunk too, so the gathered product is
    the one it would run.
    """
    if not members:
        return None
    points = np.unique(np.concatenate([active for _, active in members]))
    cols = np.unique(np.concatenate([nf.neighbors for nf, _ in members]))
    entries = len(points) * len(cols)
    if (entries > sum(len(active) * len(nf.neighbors) for nf, active in members)
            or entries * dtype.itemsize > CHUNK_BYTES):
        return None
    x = pts[points].astype(dtype)
    block = _Problem(kernel, landmarks.sources[cols], None).eval_rows(x)

    def values(nf, active):
        rows = np.searchsorted(points, active)
        sub = block[np.ix_(rows, np.searchsorted(cols, nf.neighbors))]
        return nf.interpolant._block_values(x[rows], sub)
    return values


def _evaluate(cfg, landmarks, rho, nodal, pts):
    """F = sum_j L_j Wbar_j at pts; the float64 or 80-bit L_j of a rung may share a kernel block."""
    near, d2 = k_nearest(landmarks.sources, pts, cfg.n_w)
    wbar = _weights_matrix(landmarks, cfg, rho, pts, near, d2)
    out = np.zeros((pts.shape[0], landmarks.dimension))
    # the points each landmark weighs, grouped by landmark, ascending within a group
    terms = np.flatnonzero(wbar)
    terms = terms[np.argsort(near.ravel()[terms], kind="stable")]
    rows, nodes, weights = terms // cfg.n_w, near.ravel()[terms], wbar.ravel()[terms]
    bounds = np.searchsorted(nodes, np.arange(landmarks.n + 1))
    groups = [(nf, slice(bounds[nf.center], bounds[nf.center + 1])) for nf in nodal]
    groups = [(nf, group) for nf, group in groups if group.start < group.stop]
    shared = {}
    for precision, dtype in (("double", float), ("longdouble", np.longdouble)):
        rung = [(nf, rows[group]) for nf, group in groups if nf.interpolant.precision == precision]
        shared[precision] = _shared_values(cfg.nodal_kernel, landmarks, rung, pts, np.dtype(dtype))
    for nf, group in groups:
        active = rows[group]
        from_block = shared.get(nf.interpolant.precision)
        values = from_block(nf, active) if from_block else nf.interpolant(pts[active])
        out[active] += weights[group, None] * values
    return out


def _center_value(nf: NodalFunction, landmarks: LandmarkSet):
    """L_j(x_j), from the nodal systems' shared landmark block where its rung took one.

    The block row is the kernel_rows of the single point x_j, so the value
    carries the bits of the interpolant's own evaluation there.
    """
    local = nf.interpolant
    problem = local._problem
    dtype = {"double": float, "longdouble": np.longdouble}.get(local.precision)
    row = None
    if problem.shared is not None and dtype is not None:
        row = problem.shared.take([nf.center], problem.index, dtype)
    if row is None:
        return local(landmarks.sources[nf.center])
    return local._block_values(landmarks.sources[[nf.center]].astype(dtype), row)[0]


class ShepardTransform(Transformation):
    """Built modified-Shepard transformation (immutable, reentrant)."""

    kind = "shepard"

    def __init__(self, landmarks, config, nodal, rho):
        self.landmarks = landmarks
        self.config = config
        self.nodal = nodal
        self.rho = rho
        centers = np.array([_center_value(nf, landmarks) for nf in nodal])
        for shared in {nf.interpolant._problem.shared for nf in nodal} - {None}:
            shared.release()     # the transform would otherwise hold up to CHUNK_BYTES per rung
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
