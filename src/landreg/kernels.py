"""Radial and univariate kernel families used to build transformations.

Radial kernels are functions of the Euclidean distance r alone.  The
Gaussian, the inverse multiquadric and the compactly supported Wendland
family are strictly positive definite; the thin plate spline and the
multiquadric are conditionally positive definite and need a low-degree
polynomial tail (see :func:`polynomial_tail_degree`).

All evaluators are pure, preserve the input dtype and return *exact* zeros
outside a compact support.  The formulas themselves (``_radial``,
``_univariate``) take any array type with float arithmetic: float64, 80-bit
longdouble, or the double-double arrays of the solver's top rung.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .lobachevsky import LobachevskySpline, _is_integer, _is_real


class KernelError(ValueError):
    """Invalid kernel configuration (unsupported family parameters)."""


def _positive_finite(value) -> bool:
    """A real number with 0 < value < inf."""
    return _is_real(value) and 0 < value < np.inf


def _positive_finite_square(value) -> bool:
    """_positive_finite, with a finite square: the formulas use value * value."""
    try:
        return _positive_finite(value) and float(value) * float(value) < np.inf
    except OverflowError:        # an integer beyond the float range
        return False


@dataclass(frozen=True)
class Gaussian:
    """exp(-alpha^2 r^2), strictly positive definite, globally supported."""

    alpha: float

    def __post_init__(self):
        if not _positive_finite_square(self.alpha):
            raise KernelError("Gaussian shape parameter alpha must be positive and finite, "
                              "and so must its square")


@dataclass(frozen=True)
class ThinPlateSpline:
    """r^2 log r with the removable singularity closed by Phi(0) = 0."""


@dataclass(frozen=True)
class GeneralizedMultiquadric:
    """(r^2 + gamma^2)^(mu/2) for nonzero integer mu.

    mu < 0 gives the strictly positive definite inverse multiquadrics.
    Odd mu > 0 gives the classical multiquadrics, conditionally positive
    definite with minimal polynomial-tail degree mu - 1.  Even positive mu
    is rejected: the degree rule covers only the classical odd family.
    """

    gamma: float
    mu: int

    def __post_init__(self):
        if not _positive_finite_square(self.gamma):
            raise KernelError("multiquadric parameter gamma must be positive and finite, "
                              "and so must its square")
        if not _is_integer(self.mu) or self.mu == 0:
            raise KernelError("multiquadric exponent mu must be a nonzero integer")
        if self.mu > 0 and self.mu % 2 == 0:
            raise KernelError(
                "even positive mu is not supported (reduces to a polynomial family)"
            )


def _check_wendland(h, c):
    if not (_is_integer(h) and 0 <= h <= 3):
        raise KernelError("Wendland smoothness index h must be an integer in 0..3")
    if not _positive_finite(c):
        raise KernelError("Wendland scale c must be positive and finite")


@dataclass(frozen=True)
class WendlandRadial:
    """Compactly supported Wendland kernel, zero for c*r >= 1.

    h in {0, 1, 2, 3} selects smoothness C^(2h); m is the space dimension
    (m <= 3).  The m = 2 polynomials remain strictly positive definite on
    R^3, so m = 3 shares them.
    """

    m: int
    h: int
    c: float

    def __post_init__(self):
        if not (_is_integer(self.m) and 1 <= self.m <= 3):
            raise KernelError("Wendland dimension m must be an integer 1, 2 or 3")
        _check_wendland(self.h, self.c)


@dataclass(frozen=True)
class Wendland1D:
    """Univariate Wendland kernel phi(|x|), building block of tensor products."""

    h: int
    c: float

    def __post_init__(self):
        _check_wendland(self.h, self.c)


RadialKernel = Union[Gaussian, ThinPlateSpline, GeneralizedMultiquadric, WendlandRadial]


def _wendland_poly(group: int, h: int, u):
    """Polynomial part on [0, 1); group 1 covers m=1, group 2 covers m=2,3."""
    if group == 1:
        if h == 0:
            return 1.0 - u
        if h == 1:
            return (1.0 - u) ** 3 * (3.0 * u + 1.0)
        if h == 2:
            return (1.0 - u) ** 5 * (8.0 * u * u + 5.0 * u + 1.0)
        return (1.0 - u) ** 7 * (21.0 * u ** 3 + 19.0 * u * u + 7.0 * u + 1.0)
    if h == 0:
        return (1.0 - u) ** 2
    if h == 1:
        return (1.0 - u) ** 4 * (4.0 * u + 1.0)
    if h == 2:
        return (1.0 - u) ** 6 * (35.0 * u * u + 18.0 * u + 3.0)
    return (1.0 - u) ** 8 * (32.0 * u ** 3 + 25.0 * u * u + 8.0 * u + 1.0)


def _wendland_value(group: int, h: int, c: float, r, work=None):
    """The Wendland function of u = c r: the polynomial on [0, 1), exact zeros beyond.

    u goes into work where given.  Where every u < 1, the polynomial runs on
    the whole block.  Otherwise an ndarray takes it on the entries inside
    only, and its values go into u's array, +0.0 elsewhere: the bits of the
    polynomial at u = 1, without its powers of a zero base, which send pow
    down a slow path (about four times the cost of a base in (0, 1] in
    float64; a negative base is slower still).  A DDArray clamps those u to
    1 instead.
    """
    u = np.multiply(r, c, out=work)
    inside = u < 1.0
    if inside.all():
        return _wendland_poly(group, h, u)
    if not isinstance(u, np.ndarray):
        u[~inside] = 1.0
        return _wendland_poly(group, h, u)
    values = _wendland_poly(group, h, u[inside])
    u.fill(0.0)
    u[inside] = values
    return u


def _square(r, out=None):
    """r * r, into out where given: numpy's one-input square loop for an ndarray, same bits."""
    return np.square(r, out=out) if isinstance(r, np.ndarray) else r * r


def _radial(kernel: RadialKernel, r, work=None):
    """Phi(r) in the precision of the array r.

    Each formula runs its first step into work (a new array without it) and
    the rest in place, in the order of the plain expression, so the bits are
    the same; Wendland's polynomial of u = c r then makes new arrays, of the
    entries inside the support only where some are outside.  With
    work, r is overwritten too: the thin plate spline takes log r there.  A
    DDArray takes no work; its steps make new arrays.
    """
    if isinstance(kernel, Gaussian):
        out = np.multiply(r, -(kernel.alpha * kernel.alpha), out=work)
        out *= r
        return np.exp(out, out=out if isinstance(out, np.ndarray) else None)
    if isinstance(kernel, ThinPlateSpline):
        zero = ~(r > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = _square(r, work)
            out *= np.log(r, out=None if work is None else r)
        if zero.any():
            out[zero] = 0.0
        return out
    if isinstance(kernel, GeneralizedMultiquadric):
        out = _square(r, work)
        out += kernel.gamma * kernel.gamma
        out **= kernel.mu / 2.0
        return out
    if isinstance(kernel, WendlandRadial):
        group = 1 if kernel.m == 1 else 2
        return _wendland_value(group, kernel.h, kernel.c, r, work)
    raise KernelError(f"unknown radial kernel {kernel!r}")


def _univariate(kernel: Wendland1D, x):
    """phi(|x|) in the precision of the array x."""
    return _wendland_value(1, kernel.h, kernel.c, np.abs(x))


def eval_radial(kernel: RadialKernel, r, work=None):
    """Evaluate a radial kernel at distance(s) r >= 0, elementwise.

    work, a float array of r's shape and dtype, is space for the values:
    each kernel builds them there (Wendland's, its u = c r, and its values
    where some u >= 1), and r may be overwritten.
    """
    scalar = np.isscalar(r) or np.ndim(r) == 0
    r = np.atleast_1d(r)
    if r.dtype.kind != "f":
        r = r.astype(float)
    # one pass: fmin passes over NaN, as r < 0 does, and the start 0 covers an empty r
    if np.fmin.reduce(r, axis=None, initial=0.0) < 0:
        raise ValueError("radial kernels are defined for r >= 0 only")
    out = _radial(kernel, r, work)
    return out.item() if scalar else out


def eval_univariate(kernel: Wendland1D, x):
    """Evaluate phi(|x|) for a univariate Wendland kernel; even in x."""
    if not isinstance(kernel, Wendland1D):
        raise KernelError(f"unknown univariate kernel {kernel!r}")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(x)
    if x.dtype.kind != "f":
        x = x.astype(float)
    out = _univariate(kernel, x)
    return out.item() if scalar else out


def polynomial_tail_degree(kernel: RadialKernel):
    """Degree of the polynomial tail required for solvability, or None.

    Strictly positive definite kernels need no tail, and neither do the
    tensor-product factors.  The thin plate spline needs degree 1; the
    multiquadric with odd mu > 0 needs degree mu - 1.
    """
    if isinstance(kernel, (Gaussian, WendlandRadial, Wendland1D, LobachevskySpline)):
        return None
    if isinstance(kernel, ThinPlateSpline):
        return 1
    if isinstance(kernel, GeneralizedMultiquadric):
        return None if kernel.mu < 0 else kernel.mu - 1
    raise KernelError(f"unknown kernel {kernel!r}")


def support_radius(kernel) -> float:
    """Radius beyond which the kernel is exactly zero (inf if global).

    For the univariate tensor factors (Wendland1D, LobachevskySpline) it is
    the distance along one coordinate.
    """
    if isinstance(kernel, (WendlandRadial, Wendland1D)):
        return 1.0 / kernel.c
    if isinstance(kernel, LobachevskySpline):
        return kernel.support()[1]
    if isinstance(kernel, (Gaussian, ThinPlateSpline, GeneralizedMultiquadric)):
        return np.inf
    raise KernelError(f"unknown kernel {kernel!r}")
