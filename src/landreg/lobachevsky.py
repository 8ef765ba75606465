"""Lobachevsky spline evaluation.

f_n is the density of a sum of n independent uniforms on [-a, a]: a scaled
centered uniform B-spline, C^(n-2), supported on [-na, na], converging
uniformly to the standard normal density as n grows.  The standardized
form f*_n rescales f_n to the fixed support [-sqrt(3n), sqrt(3n)].

Two evaluation paths are provided.  The explicit truncated-power sum is
simple and serves as the oracle, but its alternating terms cancel
catastrophically for large n, so it is capped at n = 20.  The three-term
recurrence has nonnegative weights throughout and is the production path
(safe up to n = 64).  Both paths use the half-open base case f_1 = 1/(2a)
on [-a, a) so that they agree pointwise at the knots.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

EXPLICIT_MAX_ORDER = 20
RECURRENCE_MAX_ORDER = 64


def _is_real(value) -> bool:
    """A real number of any numeric type; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    """An integer of any integer type; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_order(n, a, cap):
    if not (_is_integer(n) and n >= 1):
        raise ValueError("spline order n must be an integer >= 1")
    if n > cap:
        raise ValueError(f"spline order n = {n} exceeds the stability cap {cap}")
    if not (_is_real(a) and 0 < a < math.inf):
        raise ValueError("support half-width a must be positive and finite")


def _as_float(x):
    x = np.asarray(x)
    return x if x.dtype.kind == "f" else x.astype(float)


def _base_box(x, a, one, j=0):
    """f_1(x + j a): 1/(2a) on [-(j + 1) a, -(j - 1) a); a is in x's precision.

    The bounds are integer multiples of a rather than a rounded shift of x,
    so adjacent boxes share one computed bound and a knot lies in exactly one.
    """
    return np.where((x >= -(j + 1) * a) & (x < -(j - 1) * a), one / (2 * a), 0)


def eval_fn_explicit(n: int, a: float, x):
    """Truncated-power form of f_n (oracle path, n <= 20).

    Evaluates at -|x| so that the alternating sum only runs over its short,
    cancellation-free prefix; f_n is even for n >= 2, so this loses nothing.
    """
    _check_order(n, a, EXPLICIT_MAX_ORDER)
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.asarray(x, dtype=float)
    if n == 1:
        out = _base_box(x, np.float64(a), np.float64(1))
        return out.item() if scalar else out
    y = -np.abs(x)
    total = np.zeros_like(y)
    for k in range(n + 1):
        arg = y + (n - 2 * k) * a
        total += ((-1) ** k * math.comb(n, k)) * np.where(arg > 0, arg, 0.0) ** (n - 1)
    total /= (2.0 * a) ** n * math.factorial(n - 1)
    out = np.where(np.abs(x) < n * a, np.maximum(total, 0.0), 0.0)
    return out.item() if scalar else out


def eval_fn_recurrence(n: int, a: float, x):
    """Three-term recurrence form of f_n (production path, n <= 64).

    Same values as :func:`eval_fn_explicit`; all recurrence weights are
    nonnegative inside the support, so no significance is lost.
    """
    _check_order(n, a, RECURRENCE_MAX_ORDER)
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = _as_float(x)
    out = _recurrence(n, a, x, x.dtype.type(1))
    return out.item() if scalar else out


def _recurrence(n: int, a: float, x, one):
    """f_n(x) by the three-term recurrence, in the precision of ``one`` (1 in
    the array type of x), so that every constant is formed at that precision."""
    a = one * a
    if n == 1:
        return _base_box(x, a, one)
    level_values = {j: _base_box(x, a, one, j) for j in range(-(n - 1), n, 2)}
    for level in range(2, n + 1):
        la = level * a
        denom = 2 * a * (level - 1)
        level_values = {
            j: ((la + (x + j * a)) * level_values[j + 1]
                + (la - (x + j * a)) * level_values[j - 1]) / denom
            for j in range(-(n - level), n - level + 1, 2)
        }
    return np.where(np.abs(x) < n * a, level_values[0], 0)


def eval_fn_star(n: int, x):
    """Standardized spline f*_n with support [-sqrt(3n), sqrt(3n)].

    f*_n(x) = a sqrt(n/3) f_n(a sqrt(n/3) x) for any a; the a's cancel, so
    a = 1 is used internally.
    """
    _check_order(n, 1.0, RECURRENCE_MAX_ORDER)
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = _as_float(x)
    out = _fn_star(n, x, x.dtype.type(1))
    return out.item() if scalar else out


def _fn_star(n: int, x, one):
    s = np.sqrt(one * n / 3)
    # mask on the exact support [-sqrt(3n), sqrt(3n)]: the internal argument
    # scaling can round an endpoint to just inside the f_n support
    limit = np.sqrt(one * 3 * n)
    return np.where(np.abs(x) < limit, s * _recurrence(n, 1.0, s * x, one), 0)


@dataclass(frozen=True)
class LobachevskySpline:
    """Spline parameters: order n plus exactly one of the two shapes.

    ``a`` selects f_n with support [-na, na]; ``alpha`` selects the peaked /
    flattened standardized form x -> f*_n(alpha x).  Both parameterizations
    span the same family; matched parameters give the same transform.
    """

    n: int
    a: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if not (_is_integer(self.n) and self.n >= 1):
            raise ValueError("spline order n must be an integer >= 1")
        if (self.a is None) == (self.alpha is None):
            raise ValueError("exactly one of a and alpha must be given")
        shape = self.a if self.a is not None else self.alpha
        if not (_is_real(shape) and 0 < shape < math.inf):
            raise ValueError("shape parameter must be positive and finite")

    def support(self) -> tuple[float, float]:
        """Closed support interval of the spline in its chosen parameterization."""
        if self.a is not None:
            half = self.n * self.a
        else:
            half = math.sqrt(3.0 * self.n) / self.alpha
        return (-half, half)


def eval_spline(spline: LobachevskySpline, x):
    """Evaluate the spline kernel: f_n(x; a) or f*_n(alpha x)."""
    if spline.a is not None:
        return eval_fn_recurrence(spline.n, spline.a, x)
    return eval_fn_star(spline.n, np.multiply(spline.alpha, x))


def _spline(spline: LobachevskySpline, x, one):
    """eval_spline in the precision of ``one`` (1 in the array type of x)."""
    if spline.a is not None:
        return _recurrence(spline.n, spline.a, x, one)
    return _fn_star(spline.n, spline.alpha * x, one)
