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
the 80-bit rung is skipped.  Each rung attempts the systems no lower rung
accepted, and a system keeps its best attempt so far: least max |r| over
the interpolation rows, a tie going to the higher rung.  float64 and 80-bit
accept a system whose best attempt is their own and within
ESCALATE_THRESHOLD or MP_THRESHOLD times max(1, |t|_inf).  The top rung
takes the best attempt of any rung, with its tag, within RESIDUAL_LIMIT
times that scale, and raises SolveError beyond it.  A transform keeps the
precision it was solved at and evaluates its kernels at that same
precision, since rounding its coefficients or kernel values any lower would
re-inject the full error.  Every rung assembles and evaluates by the same
_Problem code, on ndarrays of its dtype or, for double-double, on DDArrays.
"""

from __future__ import annotations

import contextvars
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import partial
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from itertools import combinations_with_replacement
from typing import Optional

import numpy as np

from . import _precision
from ._dd import DDArray
from ._precision import _refined_solve
from .kernels import (Gaussian, Wendland1D, _radial, _univariate, eval_radial, eval_univariate,
                      polynomial_tail_degree, support_radius)
from .landmarks import CHUNK_BYTES, LandmarkSet, chunk_rows, distinct_axes, squared_distances
from .lobachevsky import LobachevskySpline, _spline, eval_spline

RESIDUAL_LIMIT = 1e-6        # relative to max(1, |t|_inf); the solve failed beyond this
ESCALATE_THRESHOLD = 1e-11   # float64 residual above this retries in 80-bit precision
MP_THRESHOLD = 1e-7          # 80-bit residual above this retries in double-double
ILL_CONDITIONED = 1e16       # warning-flag threshold (double-precision cliff)
# significant digits of a condition estimate: a lower bound within a small factor of
# the condition number carries fewer, and LAPACK's own wobble sits in the 16th
CONDITION_DIGITS = 12
SUPPORT_SLACK = 1e-12        # relative widening of a kernel's support when culling sources
# the 80-bit rung runs only where np.longdouble carries more digits than float64
LONGDOUBLE_IS_EXTENDED = np.finfo(np.longdouble).nmant > np.finfo(float).nmant
PRECISIONS = ("double", "longdouble", "mp")   # the rungs' tags, bottom up
# Most kernel entries in one part of an evaluation chunk; a chunk holding more runs as
# parts of whole rows on PART_THREADS threads.  A float64 chunk holds at most 2^19
# entries, so it runs as one part or two: scale-dense's TPS warp (19,881 points,
# N = 1000) splits every chunk in two, in 107 ms against 186 and 210 ms in parts of at
# most 2^16 and 2^15 entries.  Smaller chunks stay whole: split at 2^16, scale-dense's
# Wendland warp right after its fit, beside a BLAS worker still spinning, took 99-114
# against 57-79 ms (medians of 8 and 10, in process, 2-core x86_64).
PART_ENTRIES = 1 << 18
# Threads the parts of a split chunk run on, the caller's included: no chunk has more than
# two parts, so a second thread is all they can use.
PART_THREADS = 2


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
    """Matrix of the monomial basis evaluated at the points (..., P, m), (..., P, U).

    In the points' array type and dtype.
    """
    exponents = monomial_exponents(points.shape[-1], degree)
    out = points[..., [0] * len(exponents)] ** 0          # ones, in the points' type
    for u, exps in enumerate(exponents):
        for d, e in enumerate(exps):
            if e:
                out[..., u] = out[..., u] * points[..., d] ** e
    return out


def _saddle(m_mat, q_mat):
    """The saddle matrices [[M, Q], [Q^T, 0]] of a stack of M and Q, ndarrays or DDArrays."""
    if isinstance(m_mat, DDArray):
        return DDArray(_saddle(m_mat.hi, q_mat.hi), _saddle(m_mat.lo, q_mat.lo))
    n, u = q_mat.shape[-2:]
    full = np.zeros(m_mat.shape[:-2] + (n + u, n + u), dtype=m_mat.dtype)
    full[..., :n, :n] = m_mat
    full[..., :n, n:] = q_mat
    full[..., n:, :n] = np.swapaxes(q_mat, -1, -2)
    return full


def tail_dimension(dimension: int, degree) -> int:
    """Number of monomials of total degree <= degree (0 when no tail)."""
    if degree is None:
        return 0
    return math.comb(dimension + degree, dimension)


def _univariate_factor(kernel, delta):
    """psi(delta) of a univariate tensor factor, or a Gaussian's factor along one axis.

    A DDArray takes the formulas themselves: the public evaluators take ndarrays.
    """
    dd = isinstance(delta, DDArray)
    if isinstance(kernel, Wendland1D):
        return _univariate(kernel, delta) if dd else eval_univariate(kernel, delta)
    if isinstance(kernel, LobachevskySpline):
        return _spline(kernel, delta, DDArray(1.0)) if dd else eval_spline(kernel, delta)
    if isinstance(kernel, Gaussian):
        return _radial(kernel, np.abs(delta)) if dd else eval_radial(kernel, np.abs(delta))
    raise ValueError(f"kernel {kernel!r} is not a univariate tensor factor")


def _axis_tables(kernel, distinct, centers):
    """(product form?, per coordinate (its table, each point's row in it) or None).

    distinct is distinct_axes of the points.  A tensor factor takes the
    product form, and so does a Gaussian where some coordinate has a table.
    A table pairs each distinct value v of the coordinate (a grid axis, or
    the coordinates of landmarks on a lattice) with every centre: psi(v - c_d)
    for the product form, (v - c_d)^2 for the radial one.  Each entry is the
    one the direct evaluation computes, so rows gathered from it carry its bits.
    """
    product = (isinstance(kernel, (Wendland1D, LobachevskySpline))
               or isinstance(kernel, Gaussian) and any(axis is not None for axis in distinct))
    tables = []
    for d, axis in enumerate(distinct):
        if axis is not None:
            values, rows = axis
            delta = values[:, None] - centers[None, :, d]
            if product:
                delta = _univariate_factor(kernel, delta)
            else:
                delta *= delta
            axis = (delta, rows)
        tables.append(axis)
    return product, tables


def _tensor_matrix(kernel, x, centers, tables=None):
    """Product kernel matrix Prod_d psi(x_d - c_d) of x (..., P, m) and centers (..., N, m).

    In x's array type.  tables is _axis_tables of x, built here for a 2-D x
    when not given; a stacked x evaluates its factors directly.
    """
    if tables is None:
        tables = ([None] * x.shape[-1] if x.ndim != 2
                  else _axis_tables(kernel, distinct_axes(x), centers)[1])
    def factor(d):
        if tables[d] is None:
            return _univariate_factor(kernel, x[..., :, None, d] - centers[..., None, :, d])
        return tables[d][0][tables[d][1]]

    out = factor(0)
    for d in range(1, len(tables)):
        # each factor is freed as soon as it is multiplied in: holding it longer left
        # glibc's heap trimmed and re-faulted, +50 % page faults on a 40 x 40 grid warp
        out = out * factor(d)
    return out


def _block_pays(rows, cols, separate, entry_bytes) -> bool:
    """Whether one rows x cols kernel block pays, shared by systems instead of their own blocks.

    It does when it holds no more entries than separate, the entries of
    the systems' separate blocks together, and fits CHUNK_BYTES at
    entry_bytes per entry.  Kernel values are elementwise, so a system's
    sub-block gathered from it carries the bits of its own.
    """
    return rows * cols <= separate and rows * cols * entry_bytes <= CHUNK_BYTES


@dataclass(frozen=True)
class _Problem:
    """One interpolation system, or a stack of equally sized ones.

    Kernel, geometry (sources (N, m), or (S, N, m) for a stack) and
    optional polynomial tail.  Systems over subsets of one landmark set,
    as Shepard's nodal systems are, also hold that set's sources, whole,
    and their positions in it, index: build may gather their kernel
    blocks from one block over whole.
    """

    kernel: object
    sources: np.ndarray
    tail_degree: Optional[int]
    # the landmark sources these are drawn from, and their positions in them:
    # (N,), or (S, N) for a stack
    whole: Optional[np.ndarray] = None
    index: Optional[np.ndarray] = None

    def __getitem__(self, rows):
        """The systems at rows of a stack: one for an integer, a stack for a list.

        None makes a single system a stack of one.
        """
        index = None if self.index is None else self.index[rows]
        return _Problem(self.kernel, self.sources[rows], self.tail_degree, self.whole, index)

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

    def tail_rows(self, x):
        """The tail's monomial_matrix at points x (..., P, m), or None without a tail."""
        return None if self.tail_degree is None else monomial_matrix(x, self.tail_degree)

    def kernel_rows(self, x, cols=slice(None)):
        """Kernel matrix between points x (..., P, m) and the sources[cols], in x's array type.

        x is an ndarray of a rung's dtype or a DDArray.  A stack's points x
        (S, P, m) pair with its sources (S, N, m).
        """
        return self._kernel_matrix(x, _as_type_of(self.sources[cols], x))

    def _kernel_matrix(self, x, src, tables=None, work=None):
        """Kernel matrix between points x (..., P, m) and centres src (..., N, m).

        A radial kernel's block takes tables, _axis_tables of the radial
        form at a 2-D x, to squared_distances, and is built in work, a pair
        of (P, N) arrays of x's dtype, where given.  A DDArray block takes
        the formula itself: eval_radial takes ndarrays.
        """
        if self.tensor:
            return _tensor_matrix(self.kernel, x, src)
        d2 = squared_distances(x, src, tables, work)
        if isinstance(d2, DDArray):
            return _radial(self.kernel, np.sqrt(d2))
        return eval_radial(self.kernel, np.sqrt(d2, out=d2), None if work is None else work[1])

    def eval_rows(self, x, cols=slice(None), work=None, plan=None):
        """kernel_rows for evaluation of 2-D x, from per-axis tables where they pay.

        Where some coordinate of x has at most P/2 distinct values (a grid,
        or a patch of one), a radial kernel takes that axis's squared
        distances from a table built once per distinct value, with the bits
        of kernel_rows.  A Gaussian then takes its product form instead,
        exp(-alpha^2 |x - c|^2) = Prod_d exp(-alpha^2 (x_d - c_d)^2), each
        axis factor evaluated as a tensor factor; its values differ from the
        radial form's at rounding level.  Points with no such axis keep the
        radial form: there the product would cost one exp per axis and entry.
        plan is _axis_tables of x and the sources[cols], made here when not
        given.

        work, a pair of 1-D ndarrays of x's dtype, each with at least the
        block's entries, holds a radial block's distances and values: the
        block returned may be a view of one.
        """
        src = _as_type_of(self.sources[cols], x)
        product, tables = plan or _axis_tables(self.kernel, distinct_axes(x), src)
        if product:
            return _tensor_matrix(self.kernel, x, src, tables)
        if work is not None:
            work = [w[:len(x) * len(src)].reshape(len(x), len(src)) for w in work]
        return self._kernel_matrix(x, src, tables, work)

    def reaching(self, pts):
        """The sources whose support meets the box of float64 pts, as an index for kernel_rows.

        The box is widened by the support radius times 1 + SUPPORT_SLACK, so
        a source left out has an exactly zero kernel value at every point.
        """
        reach = support_radius(self.kernel) * (1.0 + SUPPORT_SLACK)
        if not np.isfinite(reach):
            return slice(None)
        return np.flatnonzero(((self.sources >= pts.min(0) - reach)
                               & (self.sources <= pts.max(0) + reach)).all(1))

    def build(self, dtype):
        """The saddle matrix [[M, Q], [Q^T, 0]] (M alone when U = 0), (..., N+U, N+U), in dtype.

        assemble's.  Systems drawn from whole gather their kernel blocks from
        its whole x whole kernel matrix where _block_pays approves it for
        them; it is built in this call and dropped on return.
        """
        m_mat, dtype = None, np.dtype(dtype)
        if self.whole is not None and _block_pays(len(self.whole), len(self.whole),
                                                  self.index.size * self.n, dtype.itemsize):
            whole, index = self.whole.astype(dtype), self.index
            m_mat = self._kernel_matrix(whole, whole)[index[..., :, None], index[..., None, :]]
        return self.assemble(self.sources.astype(dtype), m_mat)

    def assemble(self, src, m_mat=None):
        """The saddle matrices of these systems with the sources src in a rung's array type.

        src is the sources as an ndarray of the rung's dtype, or as a
        DDArray for the double-double rung.  A stack is assembled at once:
        its kernel blocks M are m_mat where given, or else one kernel
        evaluation, and its tails Q one monomial_matrix.  Kernel values and
        monomials are elementwise, so each system carries the bits of its
        own assembly.  A stack of one is assembled as its single system, so
        a tensor product keeps evaluating its axis factors per distinct
        coordinate.
        """
        if m_mat is None:
            if src.ndim == 3 and len(src) == 1:
                m_mat = self._kernel_matrix(src[0], src[0])[None]
            else:
                m_mat = self._kernel_matrix(src, src)
        if self.tail_degree is None:
            return m_mat
        return _saddle(m_mat, monomial_matrix(src, self.tail_degree))

    def evaluate(self, z, pts):
        """float64 values at float64 points pts (P, m) of the expansion with solution z.

        The points are taken to the array type of z (N+U, m), the rung's:
        float64, longdouble or DDArray.  The form and the per-axis tables of
        eval_rows are chosen once, over all the points; an axis takes a table
        only if it has at most chunk_rows(N) distinct values, so the table
        fits a float64 chunk.  The points are then evaluated in row chunks of
        CHUNK_BYTES at the rung's bytes per kernel entry (_entry_bytes), each
        gathering its rows of the tables.  With more than one chunk, each
        uses only the sources whose support reaches its bounding box, culled
        from the tables once per chunk; a single chunk is one eval_rows
        product.  A radial kernel's float64 or 80-bit chunks build their
        blocks in one workspace, two chunk-sized arrays made once per call.

        A chunk of more than PART_ENTRIES entries is cut into the fewest
        parts of whole rows that each hold at most that many, which run on
        PART_THREADS threads (_run_parts): the caller's and those of a pool
        opened at the first split chunk and closed on return.  Each part
        builds its rows of the block in its own rows of the workspace, takes
        its product without BLAS (block_values) and writes its own rows of
        the output.  The parts depend on the chunk alone, so the bits do not
        depend on the number of threads, neither the evaluation's nor
        BLAS's.  A chunk of at most PART_ENTRIES is one part, run by the
        caller, whose product keeps BLAS and its bits.
        """
        x = _as_type_of(pts, z)
        product, tables = _axis_tables(self.kernel, distinct_axes(x, chunk_rows(self.n)),
                                       _as_type_of(self.sources, z))
        out = np.empty(pts.shape)
        step = chunk_rows(self.n, _entry_bytes(z))
        chunks = range(0, len(pts), step)
        size = min(step, len(pts)) * self.n
        radial = isinstance(x, np.ndarray) and not product
        work = (np.empty(size, x.dtype), np.empty(size, x.dtype)) if radial else None
        pool = None
        try:
            for start in chunks:
                stop = min(start + step, len(pts))
                cols = self.reaching(pts[start:stop]) if len(chunks) > 1 else slice(None)
                width = self.n if isinstance(cols, slice) else len(cols)
                plan = (product, [None if t is None else (t[0][:, cols], t[1]) for t in tables])
                count = -(-(stop - start) * width // PART_ENTRIES)
                if count < 2:
                    self._part_values(out, z, x, slice(start, stop), cols, plan, work, True)
                    continue
                if pool is None and PART_THREADS > 1:
                    # imported only where a chunk splits: a cold import takes 10 ms
                    from concurrent.futures import ThreadPoolExecutor
                    pool = ThreadPoolExecutor(PART_THREADS - 1, "landreg-eval")
                cuts = [start + (stop - start) * i // count for i in range(count + 1)]
                _run_parts([partial(self._part_values, out, z, x, slice(a, b), cols, plan,
                                    None if work is None else
                                    [w[(a - start) * width:(b - start) * width] for w in work],
                                    False)
                            for a, b in zip(cuts, cuts[1:])], pool)
        finally:
            if pool is not None:
                pool.shutdown()
        return out

    def _part_values(self, out, z, x, rows, cols, plan, work, blas):
        """out[rows] = values at x[rows], from the sources[cols]: one part of evaluate's chunk.

        plan is (product form?, per axis None or (its table culled to cols,
        every point's row in it)), and work the part's own slices of the
        workspace, or None.
        """
        product, tables = plan
        own = [None if t is None else (t[0], t[1][rows]) for t in tables]
        block = self.eval_rows(x[rows], cols, work, (product, own))
        out[rows] = self.block_values(z, block, self.tail_rows(x[rows]), cols, blas)

    def block_values(self, z, block, tail, cols=slice(None), blas=True):
        """float64 values at points x (..., P, m) of the expansion with solution z, from blocks.

        z, (..., N+U, m), is in the rung's array type, block is eval_rows(x,
        cols), or a stack's kernel_rows, and tail is tail_rows(x), both in
        that type too.  A float64 product's bits depend on its row count, so
        a caller holding larger blocks gathers exactly these rows into blocks
        of their own.  A double-double product is a pairwise sum per row,
        whose bits do not.  With blas False, a 2-D ndarray product calls no
        BLAS (_product), so it starts no BLAS thread and its bits do not
        depend on BLAS's thread count.
        """
        values = _product(block, z[..., :self.n, :][..., cols, :], blas)
        if tail is not None:
            values = values + _product(tail, z[..., self.n:, :], blas)
        if isinstance(values, DDArray):
            return values.to_float()
        return values.astype(float, copy=False)


def _product(a, b, blas=True):
    """a @ b, or with blas False and ndarrays, np.einsum's sums over a Fortran-ordered copy of b.

    einsum without optimize calls no BLAS.  Its loop over b's contiguous
    columns took 0.20 ms on a (262, 1000) by (1000, 2) float64 part, against
    1.26 ms over a C-ordered b (2-core x86_64).  DDArray products call no
    BLAS either: they are always @.
    """
    if blas or isinstance(a, DDArray):
        return a @ b
    return np.einsum("pk,km->pm", a, np.asfortranarray(b))


def _run_parts(parts, pool):
    """Call every function of parts, the first in the caller and the rest on pool, if any.

    Returns once every part has returned.  An exception of a part is raised
    once no part runs any more: the caller's own first, else the first
    part's in order.  A part on the pool runs in a copy of the caller's
    context, so under the caller's numpy error state, which numpy keeps in
    a context variable.
    """
    if pool is None:
        for part in parts:
            part()
        return
    from concurrent.futures import wait
    futures = [pool.submit(contextvars.copy_context().run, part) for part in parts[1:]]
    try:
        parts[0]()
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _as_type_of(values, like):
    """float64 values in the array type of like: a DDArray, or an ndarray of like's dtype."""
    return DDArray(values) if isinstance(like, DDArray) else values.astype(like.dtype, copy=False)


def _entry_bytes(z):
    """Bytes per kernel entry that size the evaluation chunks of a solution z (N+U, m).

    An ndarray entry counts z's itemsize.  A double-double entry counts the
    float64 words its product with the coefficients allocates: 36 per
    column, 16 in the TwoProd and renormalization and about 20 in the
    pairwise sum.  That keeps a 2-D chunk near 7300 entries, whose
    temporaries stay in cache: a flat Gaussian at N = 68 evaluated the
    40 x 40 grid in 38-40 ms in chunks of 7300 to 29000 entries, and in
    50 ms as one float64-sized chunk (2-core x86_64, bitwise equal).
    """
    if isinstance(z, DDArray):
        return 36 * z.hi.itemsize * z.shape[-1]
    return z.dtype.itemsize


# ---------------------------------------------------------------------------
# the solver ladder

def _load_flapack():
    """scipy's compiled LAPACK module, scipy.linalg._flapack, without importing scipy.linalg.

    landreg calls four of its routines.  scipy.linalg's Python layer would
    more than double landreg's import time and add about 24 MB at every
    start (its array-API layer alone imports numpy.f2py, numpy.testing,
    numpy.random and numpy.ma).  Only the top-level scipy package is
    imported: its start-up makes scipy's bundled OpenBLAS findable on
    Windows.  The module is loaded under its own name and recorded in
    sys.modules, so a later import of scipy.linalg reuses it and its routines
    are the very objects scipy.linalg.lapack exports.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy
    finder = FileFinder(os.path.join(scipy.__path__[0], "linalg"),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no compiled {name} module", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgecon, dgetrf, dgetrs, dlange = _flapack.dgecon, _flapack.dgetrf, _flapack.dgetrs, _flapack.dlange


def _lu_solve_stack(factors, b):
    """Solve the stack b (S, n, m), system i with the float64 factors[i], by LAPACK getrs.

    The call scipy.linalg.lu_solve makes, without the argument checks and
    batch dispatch of its wrapper, which matter for Shepard's many small
    systems.  Each solution is Fortran-ordered, as getrs returns it for one
    system, so BLAS products with it carry the bits of a single system's solve.
    """
    x = np.empty((len(b), b.shape[2], b.shape[1])).transpose(0, 2, 1)
    for (lu, piv), x_i, b_i in zip(factors, x, b):
        x_i[...], info = dgetrs(lu, piv, b_i)
        if info:
            raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


def _condition_from_lu(matrix, lu_piv):
    """1-norm condition estimate of a float64 matrix from its LU factors (LAPACK dgecon).

    Hager's estimator as refined by Higham (ACM TOMS 14, 1988): O(n^2) on
    the factors _factor64 made, against O(n^3) for the inverse.  It is a
    lower bound on ||A||_1 ||A^-1||_1.  Above ILL_CONDITIONED it carries no
    digits.  inf where there are no factors (a zero pivot) and where the
    estimate is zero or not finite, as for a matrix with a NaN or inf entry.

    The estimate is rounded to CONDITION_DIGITS significant digits.  On a
    large system LAPACK's last digits move from call to call with the
    heap's layout (n = 1027: in 15-30 % of calls between which small blocks
    came and went, at one BLAS thread or two).  The rounded value repeats,
    unless the wobble straddles a rounding boundary: about 1 estimate in 10^4.
    """
    if lu_piv is None:
        return np.inf
    # ||A||_1 is the max-row-sum norm of A^T, which is Fortran-ordered: LAPACK reads it in place
    rcond, info = dgecon(lu_piv[0], dlange("I", matrix.T), norm="1")
    if info or not rcond > 0.0:
        return np.inf
    return float(f"{1.0 / rcond:.{CONDITION_DIGITS - 1}e}")


# LAPACK getrf of one float64 matrix, returning (LU, pivots, info), from the
# module _load_flapack loads: the call scipy.linalg.lu_factor makes, without
# its wrapper.  Looked up by this name at call time, so perfbench's tracer can time it.
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
    float64 stack is assembled, factored system by system and condition
    estimated once.  Each rung is then (tag, threshold, attempt), bottom up:
    an attempt solves the systems no rung has accepted as one stack, one
    (solution or None, residual) per system.  Returns one (solution,
    residual, condition estimate, tag) per system by the module docstring's
    rule, whose SolveError names the first failing system as ``index``.
    """
    n_interp = problem.n
    scale = np.maximum(1.0, np.abs(rhs[:, :n_interp]).max(axis=(1, 2)))
    matrices = problem.build(np.dtype(float))
    factors = [_factor64(a) for a in matrices]
    conds = [_condition_from_lu(a, lu_piv) for a, lu_piv in zip(matrices, factors)]

    def double(rows):         # every system; on the assembled stack itself when all factor
        out = [(None, np.inf)] * len(rows)
        ok = [i for i in rows if factors[i] is not None]
        if ok:
            stack = slice(None) if len(ok) == len(rows) else ok
            ok_factors = [factors[i] for i in ok]
            z64, res64 = _refined_solve(matrices[stack].__matmul__,
                                        lambda b: _lu_solve_stack(ok_factors, b),
                                        rhs[stack], n_interp, 2)
            for i, z, res in zip(ok, z64, res64):
                out[i] = (z, res)
        return out

    def extended(rows):
        a_ext = problem[rows].build(np.longdouble)
        lu_ext, order = _precision.lu_extended(a_ext)
        return zip(*_refined_solve(a_ext.__matmul__,
                                   lambda b: _precision.lu_solve_extended(lu_ext, order, b),
                                   rhs[rows], n_interp, 3))

    def double_double(rows):
        return _precision.mp_solve(problem.kernel, problem.tensor, problem.sources[rows],
                                   problem.tail_degree, problem.exponents, rhs[rows])

    rungs = [("double", ESCALATE_THRESHOLD, double)]
    if LONGDOUBLE_IS_EXTENDED:
        rungs.append(("longdouble", MP_THRESHOLD, extended))
    rungs.append(("mp", RESIDUAL_LIMIT, double_double))
    best = [(None, np.inf, None)] * len(rhs)     # each system's best (solution, residual, tag)
    rest = list(range(len(rhs)))                 # the systems no rung has accepted
    for tag, threshold, attempt in rungs:
        if not rest:
            break
        for i, (z, res) in zip(rest, attempt(rest)):
            if res <= best[i][1]:                # a tie goes to the higher rung
                best[i] = (z, res, tag)
        rest = [i for i in rest if best[i][2] != tag or best[i][1] > threshold * scale[i]]
    for i in rest:                               # the top rung takes the best of any rung
        if best[i][1] > RESIDUAL_LIMIT * scale[i]:
            raise SolveError(
                f"{context}: system is numerically singular or rank deficient "
                f"(best residual {best[i][1]:.2e}, condition estimate {conds[i]:.2e}); "
                "check for degenerate source configurations such as collinear "
                "landmarks with a polynomial tail", index=i)
    return [(z, res, cond, tag) for (z, res, tag), cond in zip(best, conds)]


def _solve_dense(problem: _Problem, rhs, context: str):
    """Solve one system on the precision ladder: the stack of one of _solve_stack."""
    return _solve_stack(problem[None], rhs[None], context)[0]


# ---------------------------------------------------------------------------
# transformations

class Transformation:
    """Evaluable map R^m -> R^m; immutable after construction.

    Attributes shared by all kinds: ``kind``, ``landmarks``, ``residual``
    (max landmark interpolation error recorded at construction),
    ``condition`` (LAPACK's 1-norm estimate from the float64 LU of the solved
    system, a lower bound that carries no digits above 1e16), and
    ``ill_conditioned`` (condition above 1e16).
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
        """float64 values at points (P, m) or (m,), by _Problem.evaluate at the rung solved at.

        The double-double rung enters it through _precision.mp_evaluate.
        """
        pts, single = self._wrap(points)
        problem = self._problem
        if self.precision == "mp":
            out = _precision.mp_evaluate(
                problem.kernel, problem.tensor, self._z, problem.tail_degree,
                problem.exponents, pts, problem.sources)
        else:
            out = problem.evaluate(self._z, pts)
        return out[0] if single else out

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
    _block_pays approves it for the systems a rung assembles, they gather
    their kernel blocks from one landmarks x landmarks block (_Problem.build).
    """
    if isinstance(kernel, LobachevskySpline) and kernel.n % 2 != 0:
        raise ValueError("tensor-product transforms need an even spline order n")
    degree = polynomial_tail_degree(kernel)
    if neighborhoods is None:
        index = whole = None
        sources, targets = landmarks.sources[None], landmarks.targets[None]
    else:
        index = np.asarray(neighborhoods)
        if index.ndim != 2 or not index.size:
            raise ValueError("neighborhoods must be a non-empty (S, K) array of landmark indices")
        landmarks._check_rows(index)
        sources, targets, quasi = (arr[index] for arr in
                                   (landmarks.sources, landmarks.targets, landmarks.quasi))
        whole = landmarks.sources
    count, n, dim = sources.shape
    u = tail_dimension(dim, degree)
    if u and u >= n:
        raise ValueError(
            f"polynomial tail needs more landmarks: U = {u} must be < N = {n}"
        )
    stack = _Problem(kernel, sources, degree, whole, index)
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
