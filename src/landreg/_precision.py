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

The double-double rung, tagged ``"mp"``, assembles and evaluates its
systems with the lower rungs' code in :mod:`landreg.transform`, on
:class:`~landreg._dd.DDArray` operands; here it factors a stack of systems
by a partial-pivot LU that updates every trailing block at each step.
"""

from __future__ import annotations

import numpy as np

from ._dd import DDArray, _new


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

def lu_dd(a):
    """Partial-pivot LU of an (S, n, n) DDArray stack, as lu_extended factors its stack.

    Each system pivots on the high words of its own column; an exactly zero
    pivot skips that system's step.  Returns (LU DDArray, row order (S, n)).
    """
    s, n, _ = a.shape
    # high words, low words and the row order side by side, so one swap moves all three
    work = np.empty((s, n, 2 * n + 1))
    work[:, :, :n], work[:, :, n:2 * n], work[:, :, 2 * n] = a.hi, a.lo, np.arange(n)
    lu = _new(work[:, :, :n], work[:, :, n:2 * n])
    rows = work.reshape(s * n, 2 * n + 1)
    row_k = np.arange(0, s * n, n)           # each system's row k in rows
    for k in range(n - 1):
        p = np.abs(lu.hi[:, k:, k]).argmax(axis=1)
        if np.count_nonzero(p):
            pair = np.array((row_k, row_k + p))
            rows[pair] = rows[pair[::-1]]
        row_k += 1
        pivot = lu[:, k, k]
        live = slice(None) if np.count_nonzero(pivot.hi) == s else np.flatnonzero(pivot.hi)
        lu[live, k + 1:, k] /= pivot[live, None]
        lu[live, k + 1:, k + 1:] -= lu[live, k + 1:, k, None] * lu[live, k, None, k + 1:]
    return lu, work[:, :, 2 * n].astype(np.intp)


def lu_solve_dd(lu, order, rhs):
    """Solve with the factors of lu_dd, whose diagonals must be nonzero; rhs is (S, n, m)."""
    x = (rhs if isinstance(rhs, DDArray) else DDArray(rhs))[np.arange(len(lu))[:, None], order]
    n = lu.shape[1]
    for k in range(n - 1):
        x[:, k + 1:] -= lu[:, k + 1:, k, None] * x[:, k, None]
    for k in range(n - 1, -1, -1):
        x[:, k] /= lu[:, k, k, None]
        if k:
            x[:, :k] -= lu[:, :k, k, None] * x[:, k, None]
    return x


def mp_solve(kernel, tensor, sources, tail_degree, exponents, rhs):
    """Assemble and solve a stack of saddle systems in double-double precision.

    sources is (S, N, m) and rhs (S, N+U, m); one factorization per system
    serves all its coordinates.  The systems are assembled by
    transform._Problem, as the lower rungs' are; tensor and exponents follow
    from kernel and tail_degree there, and keep the arguments' positions.
    Returns a list of S (coefficient DDArray (N+U, m), max interpolation
    residual), (None, inf) for a system that is exactly singular.
    """
    from .transform import _Problem       # transform imports this module
    n = sources.shape[1]
    system = _Problem(kernel, sources, tail_degree).assemble(DDArray(sources))
    lu, order = lu_dd(system)
    ok = np.flatnonzero(np.diagonal(lu.hi, axis1=1, axis2=2).all(axis=1))
    # Fixed-precision refinement never lowered the residual of a double-double
    # solve on the square cases (each step grew it 2-1000x: cond * 2^-106 > 1
    # there), so the rung keeps its first solve and only measures its residual.
    z = lu_solve_dd(lu[ok], order[ok], rhs[ok])
    r = abs(rhs[ok] - system[ok] @ z)
    hi, lo = (part[:, :n].reshape(len(ok), n * rhs.shape[2]) for part in (r.hi, r.lo))
    top = hi.argmax(axis=1)          # the largest |r|: hi + lo at its largest high word
    res = np.where(np.isfinite(r).all(axis=(1, 2)), (hi + lo)[np.arange(len(ok)), top], np.inf)
    out = [(None, np.inf)] * len(sources)
    for j, i in enumerate(ok.tolist()):
        out[i] = (z[j], float(res[j]))
    return out


def mp_evaluate(kernel, tensor, coef, tail_degree, exponents, points, centers):
    """Evaluate a transform with double-double coefficients at float64 points, as float64.

    The double-double rung's entry to transform._Problem.evaluate, which
    every rung evaluates by; tensor and exponents follow from kernel and
    tail_degree there, and keep the arguments' positions.
    """
    from .transform import _Problem       # transform imports this module
    return _Problem(kernel, centers, tail_degree).evaluate(coef, points)
