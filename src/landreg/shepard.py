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

from .kernels import RadialKernel, polynomial_tail_degree
from .landmarks import CHUNK_BYTES, LandmarkSet, k_nearest, squared_distances
from .transform import (GlobalRadialTransform, SharedKernelBlock, SolveError, Transformation,
                        _Problem, solve_transform, tail_dimension)


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
        if rho is not None and not (isinstance(rho, numbers.Real) and not isinstance(rho, bool)
                                    and 0 < rho < np.inf):
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
    return k_nearest(landmarks.sources, np.asarray(x, dtype=float).reshape(1, -1), k)[0][0]


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


def _landmark_block(kernel, landmarks: LandmarkSet, n_l: int) -> SharedKernelBlock | None:
    """The landmarks x landmarks kernel block the nodal systems share, or None.

    A float64 or 80-bit rung takes the block only when its N^2 entries are
    no more than the N separate (N_L, N_L) blocks hold together, and it
    fits CHUNK_BYTES; a refused rung, and the double-double rung, assemble
    each system on its own.
    """
    n = landmarks.n
    dtypes = [dtype for dtype in (np.dtype(float), np.dtype(np.longdouble))
              if n <= n_l * n_l and n * n * dtype.itemsize <= CHUNK_BYTES]
    return SharedKernelBlock(kernel, landmarks.sources, dtypes) if dtypes else None


def build_nodal_interpolants(landmarks: LandmarkSet, cfg: ShepardConfig) -> list[NodalFunction]:
    """Fit one local interpolant per landmark on its N_L nearest sources.

    All N local systems are solved by one call, as one stack per precision
    rung, and gather their kernel blocks from one shared block where
    _landmark_block allows it.
    """
    _validate(cfg, landmarks)
    neighbors, _ = k_nearest(landmarks.sources, landmarks.sources, cfg.n_l)
    shared = _landmark_block(cfg.nodal_kernel, landmarks, cfg.n_l)
    try:
        local = solve_transform(cfg.nodal_kernel, [landmarks.subset(idx) for idx in neighbors],
                                shared=shared, index=neighbors)
    except SolveError as exc:
        raise NodalSolveError(f"nodal interpolant {exc.index}: {exc}") from exc
    return [NodalFunction(j, idx, t) for j, (idx, t) in enumerate(zip(neighbors, local))]


def _weights_matrix(landmarks: LandmarkSet, cfg: ShepardConfig, rho, pts) -> np.ndarray:
    """Normalized weights Wbar for a batch of points, shape (P, N)."""
    src = landmarks.sources
    near, d2 = k_nearest(src, pts, cfg.n_w)
    tau = np.abs(pts[:, None, :] - src[near]).max(-1) <= rho[near] / 2.0
    tau[~tau.any(axis=1)] = True     # outside every cube: the N_W-nearest rule alone
    wbar = np.zeros((len(pts), landmarks.n))
    with np.errstate(divide="ignore", invalid="ignore"):
        wbar[np.arange(len(pts))[:, None], near] = np.where(tau, 1.0 / d2, 0.0)
        wbar /= wbar.sum(axis=1)[:, None]
    snapped = np.flatnonzero(d2[:, 0] < SNAP_RADIUS ** 2)
    if len(snapped):
        hit = np.argmax(squared_distances(pts[snapped], src) < SNAP_RADIUS ** 2, axis=1)
        wbar[snapped] = 0.0
        wbar[snapped, hit] = 1.0
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
    block = _Problem(kernel, False, landmarks.sources[cols], None).eval_rows(x)

    def values(nf, active):
        rows = np.searchsorted(points, active)
        sub = block[np.ix_(rows, np.searchsorted(cols, nf.neighbors))]
        return nf.interpolant._block_values(x[rows], sub)
    return values


def _evaluate(cfg, landmarks, rho, nodal, pts):
    """F = sum_j L_j Wbar_j at pts; the float64 or 80-bit L_j of a rung may share a kernel block."""
    wbar = _weights_matrix(landmarks, cfg, rho, pts)
    out = np.zeros((pts.shape[0], landmarks.dimension))
    # the points each landmark weighs, grouped by landmark, ascending within a group
    rows, nodes = np.nonzero(wbar)
    order = np.argsort(nodes, kind="stable")
    rows, nodes = rows[order], nodes[order]
    bounds = np.searchsorted(nodes, np.arange(landmarks.n + 1))
    members = [(nf, rows[bounds[nf.center]:bounds[nf.center + 1]]) for nf in nodal]
    members = [(nf, active) for nf, active in members if len(active)]
    shared = {}
    for precision, dtype in (("double", float), ("longdouble", np.longdouble)):
        rung = [(nf, active) for nf, active in members if nf.interpolant.precision == precision]
        shared[precision] = _shared_values(cfg.nodal_kernel, landmarks, rung, pts, np.dtype(dtype))
    for nf, active in members:
        from_block = shared.get(nf.interpolant.precision)
        values = from_block(nf, active) if from_block else nf.interpolant(pts[active])
        out[active] += wbar[active, nf.center, None] * values
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
