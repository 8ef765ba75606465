"""Global interpolation transforms: radial kernels and tensor products.

Each coordinate of the map F: R^m -> R^m is an independent scalar
interpolant of the target coordinates over the source landmarks.  For a
conditionally positive definite kernel the expansion carries a polynomial
tail and the moment side conditions Q^T a = 0, giving the symmetric saddle
system

    [ M  Q ] [a]   [t]
    [ Q^T 0 ] [b] = [0],

with M_ij = Phi(||x_i - x_j||) and Q_jk = pi_k(x_j).  The system is
factored once and back-substituted for all m coordinates.

Solves run on a precision ladder: float64 -> 80-bit -> double-double.
float64 LU with monitored iterative refinement handles everything
well-conditioned.  Flat shape parameters, however, drive these matrices to
condition numbers far beyond 1/eps (up to 4.6e36 for flat Gaussians) where
the exact coefficient vectors grow to max-norms of 1e30, so the residual
floor eps * ||A|| * ||c|| of a fixed-precision pipeline is unreachable in
float64 and marginal even in 80-bit arithmetic; such systems escalate to a
multi-precision (double-double, about 32 digits) rung, tagged ``"mp"``.
Where ``np.longdouble`` is no wider than float64 (Windows, macOS on arm64)
the 80-bit rung is skipped.  A transform keeps the precision it was solved
at and evaluates its kernels at that same precision, since rounding its
coefficients or kernel values any lower would re-inject the full error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from . import _precision
from ._precision import _refined_solve
from .kernels import (Gaussian, Wendland1D, eval_radial, eval_univariate,
                      polynomial_tail_degree, support_radius)
from .landmarks import CHUNK_BYTES, LandmarkSet, chunk_rows, distinct_axes, squared_distances
from .lobachevsky import LobachevskySpline, eval_spline

RESIDUAL_LIMIT = 1e-6        # relative to max(1, |t|_inf); the solve failed beyond this
ESCALATE_THRESHOLD = 1e-11   # float64 residual above this retries in 80-bit precision
MP_THRESHOLD = 1e-7          # 80-bit residual above this retries in double-double
ILL_CONDITIONED = 1e16       # warning-flag threshold (double-precision cliff)
SUPPORT_SLACK = 1e-12        # relative widening of a kernel's support when culling sources
# the 80-bit rung runs only where np.longdouble carries more digits than float64
LONGDOUBLE_IS_EXTENDED = np.finfo(np.longdouble).nmant > np.finfo(float).nmant


class SolveError(RuntimeError):
    """The interpolation system could not be solved to tolerance.

    ``index`` is the position of the failing system in a stacked solve.
    """

    def __init__(self, message, index=0):
        super().__init__(message)
        self.index = index


# ---------------------------------------------------------------------------
# assembly

def monomial_exponents(dimension: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent multi-indices up to the given total degree.

    Ordered by total degree, then lexicographically by coordinate index:
    1, x1, ..., xm, x1^2, x1 x2, ...
    """
    out = []
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(dimension), total):
            exps = [0] * dimension
            for var in combo:
                exps[var] += 1
            out.append(tuple(exps))
    return out


def monomial_matrix(points, degree: int):
    """Matrix of the monomial basis evaluated at the points (..., P, m), (..., P, U)."""
    points = np.atleast_2d(points)
    return _precision._monomials(points, monomial_exponents(points.shape[-1], degree))


def tail_dimension(dimension: int, degree) -> int:
    """Number of monomials of total degree <= degree (0 when no tail)."""
    if degree is None:
        return 0
    return math.comb(dimension + degree, dimension)


def _univariate_factor(kernel, delta):
    """psi(delta) of a univariate tensor factor, or a Gaussian's factor along one axis."""
    if isinstance(kernel, Wendland1D):
        return eval_univariate(kernel, delta)
    if isinstance(kernel, LobachevskySpline):
        return eval_spline(kernel, delta)
    if isinstance(kernel, Gaussian):
        return eval_radial(kernel, np.abs(delta))
    raise ValueError(f"kernel {kernel!r} is not a univariate tensor factor")


def _axis_factor(kernel, x, centers, values):
    """psi(x_i - c_j) for one coordinate of x (..., P) and centers (..., N), (..., P, N).

    In x's dtype.  values is the coordinate's distinct values (a grid axis,
    or the coordinates of landmarks on a lattice) for a 1-D x, or None.
    Given values, psi is evaluated once per distinct value and the rows are
    gathered back; psi is elementwise, so the bits are those of the direct
    evaluation.
    """
    if values is None:
        return _univariate_factor(kernel, x[..., :, None] - centers[..., None, :])
    rows = _univariate_factor(kernel, values[:, None] - centers[None, :])
    return rows[np.searchsorted(values, x)]


def _tensor_matrix(kernel, x, centers, distinct=None):
    """Product kernel matrix Prod_d psi(x_d - c_d) of x (..., P, m) and centers (..., N, m).

    dtype-preserving.  distinct is distinct_axes(x), computed here for a
    2-D x when not given; a stacked x evaluates its factors directly.
    """
    if distinct is None:
        distinct = distinct_axes(x) if x.ndim == 2 else [None] * x.shape[-1]
    out = _axis_factor(kernel, x[..., 0], centers[..., 0], distinct[0])
    for d in range(1, x.shape[-1]):
        out = out * _axis_factor(kernel, x[..., d], centers[..., d], distinct[d])
    return out


class SharedKernelBlock:
    """The kernel matrix between all sources of one landmark set, built once per dtype.

    Systems over subsets of the set gather their kernel blocks from it.
    Kernel values are elementwise, so a gathered block carries the bits of
    the subset's own kernel_rows.  Only the dtypes given take a block; each
    is built the first time it is asked for.
    """

    def __init__(self, kernel, sources, dtypes):
        self.kernel = kernel
        self.sources = sources
        self.dtypes = frozenset(np.dtype(d) for d in dtypes)
        self._blocks = {}

    def take(self, rows, cols, dtype):
        """block[rows[..., :, None], cols[..., None, :]] in dtype, or None where dtype takes no block.

        rows (..., R) and cols (..., C) index the set's sources.  1-D ones
        give the (R, C) sub-block; (S, R) and (S, C) ones give the (S, R, C)
        stack of the S sub-blocks in one fancy index.
        """
        dtype = np.dtype(dtype)
        if dtype not in self.dtypes:
            return None
        block = self._blocks.get(dtype)
        if block is None:
            whole = _Problem(self.kernel, self.sources, None)
            block = self._blocks[dtype] = whole.kernel_rows(self.sources.astype(dtype))
        rows, cols = np.asarray(rows), np.asarray(cols)
        return block[rows[..., :, None], cols[..., None, :]]

    def release(self):
        """Drop the built blocks, which the solved systems no longer need; take rebuilds them."""
        self._blocks.clear()


def _landmark_block(kernel, landmarks: LandmarkSet, k: int) -> SharedKernelBlock | None:
    """The landmarks x landmarks kernel block that systems over k of them share, or None.

    A float64 or 80-bit rung takes the block only when its N^2 entries
    are no more than the N separate (k, k) blocks hold together, and it
    fits CHUNK_BYTES.  A refused rung, and the double-double rung, which
    holds few systems, evaluate their stack's kernel blocks in one pass.
    """
    n = landmarks.n
    dtypes = [dtype for dtype in (np.dtype(float), np.dtype(np.longdouble))
              if n <= k * k and n * n * dtype.itemsize <= CHUNK_BYTES]
    return SharedKernelBlock(kernel, landmarks.sources, dtypes) if dtypes else None


@dataclass(frozen=True)
class _Problem:
    """One interpolation system, or a stack of equally sized ones.

    Kernel, geometry (sources (N, m), or (S, N, m) for a stack) and
    optional polynomial tail.
    """

    kernel: object
    sources: np.ndarray
    tail_degree: Optional[int]
    # a block shared with other systems, and the positions of these sources in it:
    # (N,), or (S, N) for a stack
    shared: Optional[SharedKernelBlock] = None
    index: Optional[np.ndarray] = None

    def __getitem__(self, rows):
        """The systems at rows of a stack: one for an integer, a stack for a list.

        None makes a single system a stack of one.
        """
        index = None if self.index is None else self.index[rows]
        return _Problem(self.kernel, self.sources[rows], self.tail_degree, self.shared, index)

    @property
    def n(self) -> int:
        return self.sources.shape[-2]

    @property
    def tensor(self) -> bool:
        """Whether the kernel is a univariate factor of a tensor product."""
        return isinstance(self.kernel, (Wendland1D, LobachevskySpline))

    @property
    def exponents(self):
        if self.tail_degree is None:
            return []
        return monomial_exponents(self.sources.shape[-1], self.tail_degree)

    def kernel_rows(self, x, cols=slice(None)):
        """Kernel matrix between points x (..., P, m) and the sources[cols], in x's dtype.

        A stack's points x (S, P, m) pair with its sources (S, N, m).
        """
        return self._kernel_matrix(x, self.sources[cols].astype(x.dtype))

    def _kernel_matrix(self, x, src):
        """Kernel matrix between points x (..., P, m) and centres src (..., N, m)."""
        if self.tensor:
            return _tensor_matrix(self.kernel, x, src)
        return eval_radial(self.kernel, np.sqrt(squared_distances(x, src)))

    def eval_rows(self, x, cols=slice(None)):
        """kernel_rows for evaluation: a Gaussian takes its product form where it pays.

        exp(-alpha^2 |x - c|^2) = Prod_d exp(-alpha^2 (x_d - c_d)^2).  Where
        some coordinate of x has at most P/2 distinct values (a grid, or a
        patch of one), each axis factor is evaluated as a tensor factor, once
        per distinct value on such an axis.  The values differ from the
        radial form's at rounding level.  Points with no such axis keep the
        radial form: there the product would cost one exp per axis and entry.
        """
        if not self.tensor and isinstance(self.kernel, Gaussian):
            distinct = distinct_axes(x)
            if any(values is not None for values in distinct):
                return _tensor_matrix(self.kernel, x, self.sources[cols].astype(x.dtype),
                                      distinct)
        return self.kernel_rows(x, cols)

    def reaching(self, x):
        """The sources whose support meets the bounding box of x, as an index for kernel_rows.

        The box is widened by the support radius times 1 + SUPPORT_SLACK, so
        a source left out has an exactly zero kernel value at every point.
        """
        reach = support_radius(self.kernel) * (1.0 + SUPPORT_SLACK)
        if not np.isfinite(reach):
            return slice(None)
        return np.flatnonzero(((self.sources >= x.min(0) - reach)
                               & (self.sources <= x.max(0) + reach)).all(1))

    def build(self, dtype):
        """The saddle matrix [[M, Q], [Q^T, 0]] (M alone when U = 0), (..., N+U, N+U).

        A stack is assembled at once: its kernel blocks M come from the
        shared block in one gather, or from one kernel evaluation, and its
        tails Q from one monomial_matrix.  Kernel values and monomials are
        elementwise, so each system carries the bits of its own assembly.
        A stack of one is assembled as its single system, so a tensor
        product keeps evaluating its axis factors per distinct coordinate.
        """
        src = self.sources.astype(dtype)
        m_mat = None if self.shared is None else self.shared.take(self.index, self.index, dtype)
        if m_mat is None:
            if src.ndim == 3 and len(src) == 1:
                m_mat = self._kernel_matrix(src[0], src[0])[None]
            else:
                m_mat = self._kernel_matrix(src, src)
        if self.tail_degree is None:
            return m_mat
        return _precision._saddle(m_mat, monomial_matrix(src, self.tail_degree))


# ---------------------------------------------------------------------------
# the solver ladder

def _lu_solve(lu_piv, b):
    """scipy.linalg.lu_solve for float64 factors and finite b, minus its wrapper.

    The same LAPACK getrs call; skipping scipy's argument checks and batch
    dispatch matters for the many small systems of Shepard's nodal solves.
    """
    x, info = dgetrs(lu_piv[0], lu_piv[1], b)
    if info:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


def _lu_solve_stack(factors, b):
    """Solve the stack b (S, n, m), system i with the float64 factors[i].

    Each solution is Fortran-ordered, as getrs returns it for one system,
    so BLAS products with it carry the bits of a single system's solve.
    """
    x = np.empty((len(b), b.shape[2], b.shape[1])).transpose(0, 2, 1)
    for lu_piv, x_i, b_i in zip(factors, x, b):
        x_i[...] = _lu_solve(lu_piv, b_i)
    return x


def _condition_from_lu(matrix, lu_piv):
    if lu_piv is None:
        return np.inf
    inv = _lu_solve(lu_piv, np.eye(matrix.shape[0]))
    if not np.isfinite(inv).all():
        return np.inf
    return float(np.abs(matrix).sum(0).max() * np.abs(inv).sum(0).max())


# LAPACK getrf of one float64 matrix, returning (LU, pivots, info): the call
# scipy.linalg.lu_factor makes, without its wrapper.  Looked up by this name at
# call time, so perfbench's tracer can time it.
lu_factor = dgetrf


def _factor64(a):
    """float64 LU factors of a, or None where LAPACK fails or leaves a zero pivot."""
    lu, piv, info = lu_factor(a)
    if info < 0 or np.abs(np.diag(lu)).min() == 0.0:
        return None
    return lu, piv


def _solve_stack(problem: _Problem, rhs, context: str):
    """Solve a stack of S equally sized systems on the float64 -> 80-bit -> double-double ladder.

    problem is the stack (sources (S, N, m)) and rhs is (S, N+U, m).  The
    float64 stack is assembled once.  float64 factors it system by system
    and refines the stack, on the assembled stack itself when every system
    factors.  The systems it rejects are assembled once more as one 80-bit
    stack, and those the 80-bit rung rejects go on as one double-double
    stack.  Returns one (solution, interpolation residual, condition
    estimate, precision tag) per system.  Raises SolveError, with ``index``
    naming the first such system, when even the top rung leaves a system's
    interpolation conditions violated (numerically singular).
    """
    n_interp = problem.n
    count = len(rhs)
    scale = np.maximum(1.0, np.abs(rhs[:, :n_interp]).max(axis=(1, 2)))
    matrices = problem.build(np.dtype(float))
    factors = [_factor64(a) for a in matrices]
    conds = [_condition_from_lu(a, lu_piv) for a, lu_piv in zip(matrices, factors)]
    lower = [(None, np.inf)] * count      # float64 (solution, residual)
    solved = [None] * count
    ok = [i for i, lu_piv in enumerate(factors) if lu_piv is not None]
    if ok:
        rows = slice(None) if len(ok) == count else ok
        ok_factors = [factors[i] for i in ok]
        z64, res64 = _refined_solve(matrices[rows].__matmul__,
                                    lambda b: _lu_solve_stack(ok_factors, b),
                                    rhs[rows], n_interp, 2)
        for i, z, res in zip(ok, z64, res64):
            lower[i] = (z, res)
            if res <= ESCALATE_THRESHOLD * scale[i]:
                solved[i] = (z, res, conds[i], "double")
    rest = [i for i, done in enumerate(solved) if done is None]
    extended = [(None, np.inf)] * count   # 80-bit (solution, residual)
    if rest and LONGDOUBLE_IS_EXTENDED:
        a_ext = problem[rest].build(np.longdouble)
        lu_ext, order = _precision.lu_extended(a_ext)
        z_ext, res_ext = _refined_solve(
            a_ext.__matmul__, lambda b: _precision.lu_solve_extended(lu_ext, order, b),
            rhs[rest], n_interp, 3)
        for i, z, res in zip(rest, z_ext, res_ext):
            extended[i] = (z, res)
            if res <= min(MP_THRESHOLD * scale[i], lower[i][1]):
                solved[i] = (z, res, conds[i], "longdouble")
    top = [i for i in rest if solved[i] is None]
    mp = [] if not top else _precision.mp_solve(
        problem.kernel, problem.tensor, problem.sources[top],
        problem.tail_degree, problem.exponents, rhs[top])
    for i, (coef_mp, res_mp) in zip(top, mp):
        (z, res), (z_ext, res_ext) = lower[i], extended[i]
        candidates = [(res_mp, coef_mp, "mp"), (res_ext, z_ext, "longdouble"), (res, z, "double")]
        best_res, best_z, precision = min(candidates, key=lambda item: item[0])
        if best_z is None or best_res > RESIDUAL_LIMIT * scale[i]:
            raise SolveError(
                f"{context}: system is numerically singular or rank deficient "
                f"(best residual {best_res:.2e}, condition estimate {conds[i]:.2e}); "
                "check for degenerate source configurations such as collinear "
                "landmarks with a polynomial tail", index=i)
        solved[i] = (best_z, best_res, conds[i], precision)
    return solved


def _solve_dense(problem: _Problem, rhs, context: str):
    """Solve one system on the precision ladder: the stack of one of _solve_stack."""
    return _solve_stack(problem[None], rhs[None], context)[0]


# ---------------------------------------------------------------------------
# transformations

class Transformation:
    """Evaluable map R^m -> R^m; immutable after construction.

    Attributes shared by all kinds: ``kind``, ``landmarks``, ``residual``
    (max landmark interpolation error recorded at construction),
    ``condition`` (estimate for the solved system), ``ill_conditioned``.
    """

    kind = "abstract"

    def __call__(self, points):
        raise NotImplementedError

    def _wrap(self, points):
        """Points as a finite (P, m) float array, and whether one was given."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        m = self.landmarks.dimension
        if pts.ndim not in (1, 2) or pts.shape[-1] != m:
            raise ValueError(
                f"points must have shape (P, {m}) or ({m},), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        return np.atleast_2d(pts), single


class _SolvedTransform(Transformation):
    """Shared machinery for transforms backed by one dense solve."""

    def __init__(self, problem, landmarks, z, residual, condition, precision):
        self._problem = problem
        self.landmarks = landmarks
        for arr in ((z.hi, z.lo) if precision == "mp" else (z,)):
            arr.setflags(write=False)
        self._z = z
        self.coef = z[:problem.n]        # a DDArray on the "mp" rung
        self.poly_coef = z[problem.n:]
        self.tail_degree = problem.tail_degree
        self.residual = residual
        self.condition = condition
        self.ill_conditioned = condition > ILL_CONDITIONED
        self.precision = precision

    def __call__(self, points):
        pts, single = self._wrap(points)
        problem = self._problem
        if self.precision == "mp":
            out = _precision.mp_evaluate(
                problem.kernel, problem.tensor, self._z, problem.tail_degree,
                problem.exponents, pts, problem.sources)
        else:
            out = self._evaluate_chunked(pts)
        return out[0] if single else out

    def _evaluate_chunked(self, pts):
        """float64 or 80-bit evaluation, in row chunks of CHUNK_BYTES per kernel block.

        With more than one chunk, each uses only the sources whose support
        reaches its bounding box; a single chunk is one eval_rows product.
        """
        problem = self._problem
        dtype = np.dtype(np.longdouble if self.precision == "longdouble" else float)
        x = pts.astype(dtype)
        out = np.empty(pts.shape)
        step = chunk_rows(problem.n, dtype.itemsize)
        chunks = range(0, len(x), step)
        for start in chunks:
            xc = x[start:start + step]
            cols = problem.reaching(xc) if len(chunks) > 1 else slice(None)
            out[start:start + step] = self._block_values(xc, problem.eval_rows(xc, cols), cols)
        return out

    def _block_values(self, x, block, cols=slice(None)):
        """float64 values at points x, in the rung's dtype, from their kernel block.

        block is eval_rows(x, cols).  A float64 product's bits depend on its
        row count, so a caller holding a larger kernel block gathers exactly
        these rows into a block of their own.
        """
        values = block @ self.coef[cols]
        if self.tail_degree is not None:
            values = values + monomial_matrix(x, self.tail_degree) @ self.poly_coef
        return values.astype(float, copy=False)

    @property
    def kernel(self):
        return self._problem.kernel


class GlobalRadialTransform(_SolvedTransform):
    """F_k(x) = sum_j a_jk Phi(||x - x_j||) + sum_u b_uk pi_u(x)."""

    kind = "global-radial"


class TensorProductTransform(_SolvedTransform):
    """F_k(x) = sum_j c_jk psi(x_1 - x_j1) ... psi(x_m - x_jm)."""

    kind = "tensor-product"


def solve_transform(kernel, landmarks: LandmarkSet, neighborhoods=None):
    """Solve the landmark interpolation system of a kernel.

    A radial kernel gives a GlobalRadialTransform.  A Wendland1D or an
    even-order LobachevskySpline gives a TensorProductTransform (odd orders
    are not strictly positive definite).  ``neighborhoods``, an (S, K)
    integer array of indices into ``landmarks`` (Shepard's nodal
    neighbourhoods), solves the S systems over ``landmarks.subset(row)`` as
    one stack per precision rung: a list of S transforms comes back, and a
    SolveError's ``index`` names the row that failed.  The array is checked
    in one pass, and its first bad row raises the error ``subset`` raises
    for it.  The S subsets, the stacked sources and the right-hand sides
    are then cut from ``landmarks`` by one fancy index each.  Where
    _landmark_block allows it, the systems gather their kernel blocks from
    one landmarks x landmarks block.
    """
    if isinstance(kernel, LobachevskySpline) and kernel.n % 2 != 0:
        raise ValueError("tensor-product transforms need an even spline order n")
    degree = polynomial_tail_degree(kernel)
    if neighborhoods is None:
        index = shared = None
        sources, targets = landmarks.sources[None], landmarks.targets[None]
    else:
        index = np.asarray(neighborhoods)
        if index.ndim != 2 or not index.size:
            raise ValueError("neighborhoods must be a non-empty (S, K) array of landmark indices")
        landmarks._check_rows(index)
        sources, targets, quasi = (arr[index] for arr in
                                   (landmarks.sources, landmarks.targets, landmarks.quasi))
        shared = _landmark_block(kernel, landmarks, index.shape[1])
    count, n, dim = sources.shape
    u = tail_dimension(dim, degree)
    if u and u >= n:
        raise ValueError(
            f"polynomial tail needs more landmarks: U = {u} must be < N = {n}"
        )
    stack = _Problem(kernel, sources, degree, shared, index)
    rhs = np.zeros((count, n + u, dim))
    rhs[:, :n] = targets
    kind = TensorProductTransform if stack.tensor else GlobalRadialTransform
    context = type(kernel).__name__ + (" tensor" if stack.tensor else "")
    if neighborhoods is None:
        problem = stack[0]
        return kind(problem, landmarks, *_solve_dense(problem, rhs[0], context))
    for arr in (sources, targets, quasi):
        arr.setflags(write=False)
    sets = map(LandmarkSet._unchecked, sources, targets, quasi)
    return [kind(stack[i], lm, *result)
            for i, (lm, result) in enumerate(zip(sets, _solve_stack(stack, rhs, context)))]
