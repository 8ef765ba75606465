"""Extended-precision rungs of the solver ladder: 80-bit and double-double.

Flat shape parameters push interpolation matrices to condition numbers far
beyond 1/eps (a 60-digit 1-norm condition of 4.6e36 for the Gaussian at
alpha = 0.2 on square-shift-32), and the exact coefficient vectors grow
with them (max-norm 1.1e30 on square-scale-64 at alpha = 0.4).  The residual
floor of a precision-eps pipeline is roughly eps * ||A|| * ||c||, so float64
stalls near 1e-4 and 80-bit extended precision near 3e-6 on such systems,
and the ladder ends in a multi-precision (double-double) rung of about 32
significant digits.  A transform solved at a given precision must also be
*evaluated* at that precision: its huge coefficients turn any lower-precision
kernel value into O(1) output noise.

The double-double rung runs the kernel formulas of :mod:`landreg.kernels`
and :mod:`landreg.lobachevsky` on :class:`~landreg._dd.DDArray` operands,
factors the system by a partial-pivot LU that updates the whole trailing
block at each step, and evaluates with pairwise-summed dot products.  Its
precision tag is ``"mp"``.
"""

from __future__ import annotations

import numpy as np

from ._dd import DDArray
from .kernels import Gaussian, Wendland1D, _radial, _univariate
from .landmarks import distinct_axes, squared_distances
from .lobachevsky import LobachevskySpline, _spline

EVAL_BLOCK = 8192   # kernel entries per evaluation block: temporaries stay in cache
_ONE = DDArray(1.0)


# ---------------------------------------------------------------------------
# refinement (shared by the float64 and 80-bit rungs)

def _refined_solve(product, solve_once, rhs, n_interp, max_steps):
    """Solve a stack of S systems with monitored iterative refinement.

    rhs is (S, n) or (S, n, m).  solve_once maps an (S, n, m) stack of
    right-hand sides to its solutions, and product maps solutions to their
    products with the system matrices.  Each system keeps its own best
    iterate and residual, the max |r| over its first n_interp rows.  A
    system whose residual goes non-finite is updated no further: its best
    iterate and residual stand, and refinement stops once no system is left
    to update.  Returns (solutions in rhs's shape, list of S float
    residuals).  The per-system bookkeeping is on Python lists: for the
    many stacks of one, numpy calls on one-element arrays would cost more.
    """
    shape = rhs.shape
    rhs = rhs.reshape(len(rhs), shape[1], -1)     # one column per right-hand side
    z = solve_once(rhs)
    best_z, best_res = z, [np.inf] * len(z)
    live = [True] * len(z)
    for step in range(max_steps + 1):
        r = rhs - product(z)
        finite = np.isfinite(r)
        if not finite.all():
            live = [a and b for a, b in zip(live, finite.all((1, 2)).tolist())]
        res = np.abs(r[:, :n_interp]).reshape(len(r), -1).max(1).astype(float).tolist()
        better = [i for i, (new, old, on) in enumerate(zip(res, best_res, live)) if on and new < old]
        if len(better) == len(z):
            best_z, best_res = z, res
        elif better:
            best_z[better] = z[better]      # best_z is z or an earlier iterate
            for i in better:
                best_res[i] = res[i]
        if step == max_steps or not any(live):
            break
        if all(live):
            z = z + solve_once(r)
        else:
            keep = np.array(live)[:, None, None]
            z = np.where(keep, z + solve_once(np.where(keep, r, 0.0)), z)
    return best_z.reshape(shape), best_res


# ---------------------------------------------------------------------------
# 80-bit extended precision (numpy longdouble)

def lu_extended(a):
    """Partial-pivot LU in extended precision of a stack of systems.

    a is (S, n, n), or (n, n) for a stack of one.  Returns (LU, row order),
    (S, n, n) and (S, n), or unstacked for a 2-D input.  Each system pivots
    on its own column.  A system whose pivot is exactly zero skips that
    step's elimination, and the zero stays on its diagonal, where
    lu_solve_extended finds it; the other systems are not affected.

    Shepard's nodal systems have 25 rows, so numpy call overhead outweighs
    arithmetic: the loop runs once per row for the whole stack, not once
    per row of every system.  Each step acts elementwise within a system
    (row swap, division by the pivot, rank-one update), so every system's
    factors carry the bits of its own unstacked factorization.
    """
    if a.ndim == 2:
        lu, order = lu_extended(a[None])
        return lu[0], order[0]
    s, n, _ = a.shape
    # the row order rides along as an extra column, so each row swap carries it
    work = np.empty((s, n, n + 1), dtype=np.longdouble)
    work[:, :, :n] = a
    work[:, :, n] = np.arange(n)
    lu = work[:, :, :n]
    rows = work.reshape(s * n, n + 1)
    row_k = np.arange(0, s * n, n)           # each system's row k in rows
    for k in range(n - 1):
        p = np.abs(lu[:, k:, k]).argmax(axis=1)
        if np.count_nonzero(p):
            pair = np.array((row_k, row_k + p))
            rows[pair] = rows[pair[::-1]]
        row_k += 1
        pivot = lu[:, k, k]
        live = slice(None) if np.count_nonzero(pivot) == s else np.flatnonzero(pivot)
        lu[live, k + 1:, k] /= pivot[live, None]
        lu[live, k + 1:, k + 1:] -= lu[live, k + 1:, k, None] * lu[live, k, None, k + 1:]
    return lu, work[:, :, n].astype(np.intp)


def lu_solve_extended(lu, order, rhs):
    """Solve with the factors of lu_extended by row-wise substitution.

    lu and order are stacked as lu_extended returns them, and rhs is (S, n)
    or (S, n, m); a 2-D lu is a stack of one, with rhs (n,) or (n, m).
    Returns the longdouble solutions in rhs's shape.  A system with a zero
    on its diagonal gets NaN in that row and, through the substitution, in
    every row above it.  The dot products are matmuls over the stack, which
    sum in the same order as one system's np.dot, so each solution carries
    the bits of its own unstacked solve.
    """
    if lu.ndim == 2:
        return lu_solve_extended(lu[None], order[None], rhs[None])[0]
    s, n, _ = lu.shape
    x = rhs.astype(np.longdouble)[np.arange(s)[:, None], order]
    x3 = x.reshape(s, n, -1)                              # a view: updating x3 updates x
    rows = list(x3[:, :, None].transpose(1, 0, 2, 3))     # row k of every system, (S, 1, m)
    lu_rows = list(lu[:, :, None].transpose(1, 0, 2, 3))   # row k of every factor, (S, 1, n)
    for k in range(1, n):
        rows[k] -= lu_rows[k][..., :k] @ x3[:, :k]
    diagonal = lu.diagonal(axis1=1, axis2=2)
    zero = diagonal == 0
    divisors = list(np.where(zero, 1, diagonal).T[:, :, None, None])
    singular = zero.any(axis=0).tolist()
    for k in range(n - 1, -1, -1):
        row = rows[k]
        row -= lu_rows[k][..., k + 1:] @ x3[:, k + 1:]
        row /= divisors[k]
        if singular[k]:
            row[zero[:, k]] = np.nan
    return x


# ---------------------------------------------------------------------------
# double-double

def _factor(kernel, delta):
    """A tensor factor psi(delta), or a Gaussian's factor along one axis, as DDArrays."""
    if isinstance(kernel, Wendland1D):
        return _univariate(kernel, delta)
    if isinstance(kernel, LobachevskySpline):
        return _spline(kernel, delta, _ONE)
    if isinstance(kernel, Gaussian):
        return _radial(kernel, abs(delta))
    raise ValueError(f"kernel {kernel!r} is not a univariate tensor factor")


def _kernel_rows(kernel, tensor, x, centers):
    """Kernel matrix between points x (P, m) and centers (N, m), as DDArrays."""
    if tensor:
        return _product_rows(kernel, [None] * x.shape[1], x, centers, None)
    return _radial(kernel, np.sqrt(squared_distances(x, centers)))


def _monomials(x, exponents):
    """Monomial basis at the points x (P, m), (P, U)."""
    out = DDArray(np.ones((len(x), len(exponents))))
    for u, exps in enumerate(exponents):
        for d, e in enumerate(exps):
            if e:
                out[:, u] = out[:, u] * x[:, d] ** e
    return out


def lu_dd(a):
    """Partial-pivot LU of a DDArray; returns (LU, row order) like lu_extended."""
    lu = a.copy()
    n = len(lu)
    order = np.arange(n)
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(lu.hi[k:, k])))
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            order[[k, p]] = order[[p, k]]
        if lu.hi[k, k] == 0:
            continue
        col = lu[k + 1:, k] / lu[k, k]
        lu[k + 1:, k] = col
        lu[k + 1:, k + 1:] = lu[k + 1:, k + 1:] - col[:, None] * lu[k, k + 1:]
    return lu, order


def lu_solve_dd(lu, order, rhs):
    """Solve with the factors of lu_dd; rhs is (n, m), float64 or DDArray."""
    x = (rhs if isinstance(rhs, DDArray) else DDArray(rhs))[order]
    n = len(lu)
    for k in range(n - 1):
        x[k + 1:] = x[k + 1:] - lu[k + 1:, k, None] * x[k]
    for k in range(n - 1, -1, -1):
        x[k] = x[k] / lu[k, k]
        if k:
            x[:k] = x[:k] - lu[:k, k, None] * x[k]
    return x


def mp_solve(kernel, tensor, sources, tail_degree, exponents, rhs):
    """Assemble and solve the saddle system in double-double precision.

    One factorization serves all coordinates.  Returns (coefficient
    DDArray (N+U, m), max interpolation residual); (None, inf) when the
    system is exactly singular.
    """
    x = DDArray(sources)
    n = len(sources)
    system = _kernel_rows(kernel, tensor, x, x)
    if tail_degree is not None:
        u = len(exponents)
        q = _monomials(x, exponents)
        full = DDArray(np.zeros((n + u, n + u)))
        full[:n, :n] = system
        full[:n, n:] = q
        full[n:, :n] = q.T
        system = full
    lu, order = lu_dd(system)
    if not np.all(np.diagonal(lu.hi)):
        return None, np.inf
    # Fixed-precision refinement never lowered the residual of a double-double
    # solve on the square cases (each step grew it 2-1000x: cond * 2^-106 > 1
    # there), so the rung keeps its first solve and only measures its residual.
    z = lu_solve_dd(lu, order, rhs)
    r = rhs - system @ z
    return z, (float(np.abs(r[:n]).max()) if np.isfinite(r).all() else np.inf)


def _axis_tables(kernel, tensor, pts, centers):
    """Per coordinate: (factor rows over its distinct values, each point's row), or None.

    A tensor kernel, and a Gaussian at points with some coordinate of at most
    P/2 distinct values, are evaluated as products of axis factors; an axis
    of that many distinct values gets its table here, over the whole point
    set, and an axis with more is evaluated per block (None).  Returns None
    for the radial form.
    """
    distinct = distinct_axes(pts)
    if not (tensor or (isinstance(kernel, Gaussian)
                       and any(values is not None for values in distinct))):
        return None
    return [None if values is None
            else (_factor(kernel, DDArray(values)[:, None] - centers[None, :, d]),
                  np.searchsorted(values, pts[:, d]))
            for d, values in enumerate(distinct)]


def _product_rows(kernel, tables, x, centers, rows):
    """Prod_d psi(x_d - c_d) for the points at rows, from the axis tables or directly."""
    out = None
    for d, table in enumerate(tables):
        if table is None:
            factor = _factor(kernel, x[:, None, d] - centers[None, :, d])
        else:
            factor = table[0][table[1][rows]]
        out = factor if out is None else out * factor
    return out


def mp_evaluate(kernel, tensor, coef, tail_degree, exponents, points, centers):
    """Evaluate a transform with double-double coefficients, as float64.

    Kernel rows are built in blocks of EVAL_BLOCK entries, from the axis
    tables of _axis_tables where it gives them.
    """
    pts = np.atleast_2d(points)
    ctr = DDArray(centers)
    n = len(ctr)
    kernel_coef, tail_coef = coef[:n], coef[n:]
    out = np.empty((len(pts), coef.shape[1]))
    tables = _axis_tables(kernel, tensor, pts, ctr)
    step = max(1, EVAL_BLOCK // n)
    for start in range(0, len(pts), step):
        x = DDArray(pts[start:start + step])
        if tables is None:
            kernel_rows = _kernel_rows(kernel, tensor, x, ctr)
        else:
            kernel_rows = _product_rows(kernel, tables, x, ctr, slice(start, start + step))
        values = kernel_rows @ kernel_coef
        if tail_degree is not None:
            values = values + _monomials(x, exponents) @ tail_coef
        out[start:start + step] = values.to_float()
    return out
