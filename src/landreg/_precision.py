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
from .kernels import Wendland1D, _radial, _univariate
from .lobachevsky import LobachevskySpline, _spline

# Fixed-precision refinement never lowered the residual of a double-double
# solve on the square cases (each step grew it 2-1000x: cond * 2^-106 > 1
# there), so the rung keeps its first solve and only measures its residual.
DD_REFINE_STEPS = 0
EVAL_BLOCK = 8192   # kernel entries per evaluation block: temporaries stay in cache
_ONE = DDArray(1.0)


# ---------------------------------------------------------------------------
# refinement (shared by every rung)

def _refined_solve(matrix, solve_once, rhs, n_interp, max_steps):
    """Solve with monitored iterative refinement; keep the best iterate."""
    z = solve_once(rhs)
    best_z, best_res = z, np.inf
    for step in range(max_steps + 1):
        r = rhs - matrix @ z
        finite = np.isfinite(r).all()
        res = float(np.abs(r[:n_interp]).max()) if finite else np.inf
        if res < best_res:
            best_z, best_res = z, res
        if not finite or step == max_steps:
            break
        z = z + solve_once(r)
    return best_z, best_res


# ---------------------------------------------------------------------------
# 80-bit extended precision (numpy longdouble)

def lu_extended(a):
    """Partial-pivot LU in extended precision.  Returns (LU, row order).

    The systems are small (Shepard's nodal solves have 25 rows), so numpy
    call overhead outweighs arithmetic: each step uses the cheapest calls,
    a row swap by copies and a broadcast rank-one update.
    """
    lu = a.astype(np.longdouble, copy=True)
    n = lu.shape[0]
    order = np.arange(n)
    for k in range(n - 1):
        p = k + int(np.abs(lu[k:, k]).argmax())
        if p != k:
            row = lu[k].copy()
            lu[k] = lu[p]
            lu[p] = row
            order[k], order[p] = order[p], order[k]
        pivot = lu[k, k]
        if pivot == 0:
            continue
        col = lu[k + 1:, k]
        col /= pivot
        lu[k + 1:, k + 1:] -= col[:, None] * lu[k, k + 1:]
    return lu, order


def lu_solve_extended(lu, order, rhs):
    """Solve with the factors of lu_extended by row-wise substitution."""
    x = rhs.astype(np.longdouble)[order]
    n = lu.shape[0]
    rows = list(x.reshape(n, -1))     # views: updating a row updates x
    for k in range(1, n):
        rows[k] -= np.dot(lu[k, :k], x[:k])
    diagonal = lu.diagonal()
    for k in range(n - 1, -1, -1):
        row = rows[k]
        row -= np.dot(lu[k, k + 1:], x[k + 1:])
        if diagonal[k] != 0:
            row /= diagonal[k]
        else:
            row[...] = np.nan
    return x


# ---------------------------------------------------------------------------
# double-double

def _factor(kernel, delta):
    if isinstance(kernel, Wendland1D):
        return _univariate(kernel, delta)
    if isinstance(kernel, LobachevskySpline):
        return _spline(kernel, delta, _ONE)
    raise ValueError(f"kernel {kernel!r} is not a univariate tensor factor")


def _kernel_rows(kernel, tensor, x, centers):
    """Kernel matrix between points x (P, m) and centers (N, m), as DDArrays."""
    if tensor:
        out = _factor(kernel, x[:, None, 0] - centers[None, :, 0])
        for d in range(1, x.shape[1]):
            out = out * _factor(kernel, x[:, None, d] - centers[None, :, d])
        return out
    diff = x[:, None, :] - centers[None, :, :]
    return _radial(kernel, np.sqrt((diff * diff).sum(-1)))


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
    return _refined_solve(system, lambda b: lu_solve_dd(lu, order, b),
                          rhs, n, DD_REFINE_STEPS)


def mp_evaluate(kernel, tensor, coef, tail_degree, exponents, points, centers):
    """Evaluate a transform with double-double coefficients, as float64."""
    pts = np.atleast_2d(points)
    ctr = DDArray(centers)
    n = len(ctr)
    kernel_coef, tail_coef = coef[:n], coef[n:]
    out = np.empty((len(pts), coef.shape[1]))
    step = max(1, EVAL_BLOCK // n)
    for start in range(0, len(pts), step):
        x = DDArray(pts[start:start + step])
        values = _kernel_rows(kernel, tensor, x, ctr) @ kernel_coef
        if tail_degree is not None:
            values = values + _monomials(x, exponents) @ tail_coef
        out[start:start + step] = values.to_float()
    return out
