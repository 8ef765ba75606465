"""Double-double arithmetic on numpy arrays.

A double-double number is the unevaluated sum hi + lo of two float64 values
with |lo| <= ulp(hi) / 2: about 32 significant digits (unit roundoff 2^-106)
over the exponent range of float64.  :class:`DDArray` holds one hi and one lo
array and overloads the arithmetic operators, the comparisons, ``np.exp``,
``np.log``, ``np.sqrt``, ``np.abs``, ``np.isfinite`` and ``np.where``, so the
dtype-generic kernel formulas of :mod:`landreg.kernels` and
:mod:`landreg.lobachevsky` run on it as written.

The error-free transformations are Dekker's (1971): TwoSum, and TwoProd by
Veltkamp splitting, since numpy has no fused multiply-add.  Addition,
multiplication, division, sqrt and exp follow the QD library of Hida, Li &
Bailey (2001).  log reduces its argument to [1/sqrt(2), sqrt(2)) and sums
the atanh series: QD's single Newton step from the float64 logarithm leaves
an absolute error of about 1e-32 near 1 and an error of (ulp of log x)^2 / 2,
up to 2e-27, at the ends of the float64 range.

Splitting overflows for |x| > 2^996 (about 6.7e299), and a low word below
2^-1022 is subnormal, so the 2^-106 unit roundoff holds between about 1e-292
and 1e299.  The solver's values stay far inside that range.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np

_SPLITTER = 134217729.0  # 2^27 + 1


def two_sum(a, b):
    """s + e == a + b exactly, with s = fl(a + b) (Knuth/Dekker TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b):
    """TwoSum for |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def _split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a, b):
    """p + e == a * b exactly, with p = fl(a * b) (Dekker TwoProd)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _add(ah, al, bh, bl):
    s1, s2 = two_sum(ah, bh)
    t1, t2 = two_sum(al, bl)
    s1, s2 = _quick_two_sum(s1, s2 + t1)
    return _quick_two_sum(s1, s2 + t2)


def _add_no_cancel(ah, al, bh, bl):
    """QD's sloppy addition: accurate only when a and b do not cancel."""
    s, e = two_sum(ah, bh)
    return _quick_two_sum(s, e + (al + bl))


def _mul(ah, al, bh, bl):
    p1, p2 = two_prod(ah, bh)
    return _quick_two_sum(p1, p2 + (ah * bl + al * bh))


def _div(ah, al, bh, bl):
    q1 = ah / bh
    ph, pl = _mul(q1, 0.0, bh, bl)
    rh, rl = _add(ah, al, -ph, -pl)
    q2 = rh / bh
    ph, pl = _mul(q2, 0.0, bh, bl)
    rh, rl = _add(rh, rl, -ph, -pl)
    q1, q2 = _quick_two_sum(q1, q2)
    return _add(q1, q2, rh / bh, 0.0)


def _const(value: Fraction):
    hi = float(value)
    return hi, float(value - Fraction(hi))


# ln 2 in three words, so that m * ln 2 is exact to 2^-150 for |m| <= 1100
_LN2 = Fraction("0.69314718055994530941723212145817656807550013436025525412068")
_LN2_WORDS = (float(_LN2), float(_LN2 - Fraction(float(_LN2))))
_LN2_WORDS += (float(_LN2 - Fraction(_LN2_WORDS[0]) - Fraction(_LN2_WORDS[1])),)
# exp: expm1 of r = (a - m ln 2) / 2^5, |r| <= 0.011, by Taylor series: the
# terms 1/j! r^j for j >= 8 are below 2^-60 |r| and are summed in float64
_EXP_SQUARINGS = 5
_EXP_DD_TERMS = [_const(Fraction(1, factorial(j))) for j in range(1, 8)]
_EXP_TAIL_TERMS = [1.0 / factorial(j) for j in range(8, 14)]
_ATANH = [_const(Fraction(2, 2 * j + 1)) for j in range(22)]            # 2/(2j+1)


def _scale_by_ln2(mh, ml, m, sign):
    """(mh, ml) + sign * m * ln 2."""
    for word in _LN2_WORDS:
        ph, pl = two_prod(m, word)
        mh, ml = _add(mh, ml, sign * ph, sign * pl)
    return mh, ml


def _exp(ah, al):
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        m = np.clip(np.nan_to_num(np.floor(ah / _LN2_WORDS[0] + 0.5)), -1100.0, 1100.0)
        rh, rl = _scale_by_ln2(ah, al, m, -1.0)
        scale = 0.5 ** _EXP_SQUARINGS
        rh, rl = rh * scale, rl * scale
        # expm1(r) by Horner, then expm1(2r) = 2 expm1(r) + expm1(r)^2
        sh = _EXP_TAIL_TERMS[-1]
        for c in reversed(_EXP_TAIL_TERMS[:-1]):
            sh = sh * rh + c
        sl = 0.0
        for ch, cl in reversed(_EXP_DD_TERMS):
            sh, sl = _add_no_cancel(*_mul(sh, sl, rh, rl), ch, cl)
        sh, sl = _mul(sh, sl, rh, rl)
        for _ in range(_EXP_SQUARINGS):   # |s^2| / |2s| = |s| / 2 <= 0.21: no cancellation
            sh, sl = _add_no_cancel(2.0 * sh, 2.0 * sl, *_mul(sh, sl, sh, sl))
        sh, sl = _add(sh, sl, 1.0, 0.0)
        e = m.astype(np.int64)
        hi, lo = np.ldexp(sh, e), np.ldexp(sl, e)
    overflow, underflow = ah > 710.0, ah < -746.0
    hi = np.where(overflow, np.inf, np.where(underflow, 0.0, hi))
    lo = np.where(overflow | underflow, 0.0, lo)
    return hi, lo


def _log(ah, al):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        frac, e = np.frexp(ah)
        e = e - (frac < np.sqrt(0.5))
        mh, ml = np.ldexp(ah, -e), np.ldexp(al, -e)      # a / 2^e in [1/sqrt2, sqrt2)
        th, tl = _div(*_add(mh, ml, -1.0, 0.0), *_add(mh, ml, 1.0, 0.0))
        t2h, t2l = _mul(th, tl, th, tl)
        sh, sl = _ATANH[-1]
        for ch, cl in reversed(_ATANH[:-1]):   # t^2 <= 0.03
            sh, sl = _add_no_cancel(*_mul(sh, sl, t2h, t2l), ch, cl)
        sh, sl = _mul(sh, sl, th, tl)
        hi, lo = _scale_by_ln2(sh, sl, e.astype(float), 1.0)
    special = ~(np.isfinite(ah) & (ah > 0))
    if special.any():
        hi = np.where(special, np.log(np.where(ah < 0, np.nan, ah)), hi)
        lo = np.where(special, 0.0, lo)
    return hi, lo


def _sqrt(ah, al):
    with np.errstate(divide="ignore", invalid="ignore"):
        x = 1.0 / np.sqrt(ah)
        ax = ah * x
        ph, pl = two_prod(ax, ax)
        dh, _ = _add(ah, al, -ph, -pl)
        hi, lo = two_sum(ax, dh * (x * 0.5))
    zero = ah == 0.0
    return np.where(zero, 0.0, hi), np.where(zero, 0.0, lo)


def _tree_sum(h, l, axis):
    """Pairwise (tree) sum along an axis: error grows with log2 of the length."""
    h, l = np.moveaxis(h, axis, -1), np.moveaxis(l, axis, -1)
    while h.shape[-1] > 1:
        half = h.shape[-1] // 2
        sh, sl = _add(h[..., :half], l[..., :half], h[..., half:2 * half], l[..., half:2 * half])
        if h.shape[-1] % 2:
            sh = np.concatenate([sh, h[..., -1:]], axis=-1)
            sl = np.concatenate([sl, l[..., -1:]], axis=-1)
        h, l = sh, sl
    return h[..., 0], l[..., 0]


def _parts(x):
    """(hi, lo) of a DDArray, or of a float array read as exact doubles."""
    if isinstance(x, DDArray):
        return x.hi, x.lo
    return np.asarray(x, dtype=float), 0.0


def _less(ah, al, bh, bl):
    return (ah < bh) | ((ah == bh) & (al < bl))


def binary_power(x, k: int):
    """x ** k for an integer k >= 1 by binary powering, in x's arithmetic.

    Squares x once per bit of k and multiplies the squares of its set
    bits into the result, lowest first: x^3 = x * x^2, x^6 = x^2 * x^4.
    An ndarray's products go in place into the arrays made here, never
    into x or a square the result still holds, so an 80-bit power holds
    at most two arrays of x's size besides x.  (A DDArray has no in-place
    product; its ``*=`` makes a new array.)
    """
    result, base = None, x
    while True:
        if k & 1:
            if result is None:
                result = base
            elif result is x:
                result = result * base
            else:
                result *= base
        k >>= 1
        if not k:
            return result
        if base is x or base is result:
            base = base * base
        else:
            base *= base


def _new(hi, lo):
    out = DDArray.__new__(DDArray)
    out.hi, out.lo = hi, lo
    return out


class DDArray:
    """Array of double-double numbers: hi + lo, element by element."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo=None):
        self.hi = np.asarray(hi, dtype=float)
        self.lo = np.zeros_like(self.hi) if lo is None else np.broadcast_to(
            np.asarray(lo, dtype=float), self.hi.shape).copy()

    # -- shape and indexing ------------------------------------------------
    @property
    def shape(self):
        return self.hi.shape

    @property
    def ndim(self):
        return self.hi.ndim

    @property
    def T(self):
        """The transpose of each matrix in the stack: the last two axes swapped."""
        return _new(np.swapaxes(self.hi, -1, -2), np.swapaxes(self.lo, -1, -2))

    def __len__(self):
        return len(self.hi)

    def __getitem__(self, key):
        return _new(self.hi[key], self.lo[key])

    def __setitem__(self, key, value):
        vh, vl = _parts(value)
        self.hi[key] = vh
        self.lo[key] = vl

    def copy(self):
        return _new(self.hi.copy(), self.lo.copy())

    def to_float(self):
        """Nearest float64 values."""
        return self.hi + self.lo

    def __float__(self):
        return float(self.hi + self.lo)

    def __repr__(self):
        return f"DDArray(hi={self.hi!r}, lo={self.lo!r})"

    # -- arithmetic --------------------------------------------------------
    def __neg__(self):
        return _new(-self.hi, -self.lo)

    def __abs__(self):
        neg = self.hi < 0
        return _new(np.where(neg, -self.hi, self.hi), np.where(neg, -self.lo, self.lo))

    def __add__(self, other):
        return _new(*_add(self.hi, self.lo, *_parts(other)))

    __radd__ = __add__

    def __sub__(self, other):
        oh, ol = _parts(other)
        return _new(*_add(self.hi, self.lo, -oh, -ol))

    def __rsub__(self, other):
        oh, ol = _parts(other)
        return _new(*_add(oh, ol, -self.hi, -self.lo))

    def __mul__(self, other):
        return _new(*_mul(self.hi, self.lo, *_parts(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _new(*_div(self.hi, self.lo, *_parts(other)))

    def __rtruediv__(self, other):
        return _new(*_div(*_parts(other), self.hi, self.lo))

    def __pow__(self, power):
        """Integer and half-integer powers (the multiquadric's mu / 2)."""
        if not float(2 * power).is_integer():
            raise ValueError(f"double-double power {power} is not a multiple of 1/2")
        if not float(power).is_integer():
            return self.sqrt() ** int(2 * power)
        k = abs(int(power))
        if not k:
            return _new(np.ones(self.shape), np.zeros(self.shape))
        result = binary_power(self, k)
        return 1.0 / result if power < 0 else result

    def __matmul__(self, other):
        """Matrix product over the last two axes, batched over leading axes; pairwise sums."""
        bh, bl = _parts(other)
        bh, bl = bh[..., None, :, :], np.broadcast_to(bl, bh.shape)[..., None, :, :]
        ph, pl = _mul(self.hi[..., None], self.lo[..., None], bh, bl)
        return _new(*_tree_sum(ph, pl, axis=-2))

    # -- comparisons (element-wise, as bool arrays) -------------------------
    def __lt__(self, other):
        return _less(self.hi, self.lo, *_parts(other))

    def __gt__(self, other):
        return _less(*_parts(other), self.hi, self.lo)

    def __le__(self, other):
        return ~self.__gt__(other)

    def __ge__(self, other):
        return ~self.__lt__(other)

    # -- elementary functions ----------------------------------------------
    def exp(self):
        return _new(*_exp(self.hi, self.lo))

    def log(self):
        return _new(*_log(self.hi, self.lo))

    def sqrt(self):
        return _new(*_sqrt(self.hi, self.lo))

    # -- numpy protocols ---------------------------------------------------
    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        if ufunc in _UNARY:
            return _UNARY[ufunc](inputs[0])
        if ufunc in _BINARY:
            a, b = inputs
            a = a if isinstance(a, DDArray) else DDArray(a)
            return _BINARY[ufunc](a, b)
        return NotImplemented

    def __array_function__(self, func, types, args, kwargs):
        if func is not np.where or kwargs or len(args) != 3:
            return NotImplemented
        cond, x, y = args
        (xh, xl), (yh, yl) = _parts(x), _parts(y)
        return _new(np.where(cond, xh, yh), np.where(cond, xl, yl))


_UNARY = {
    np.absolute: DDArray.__abs__,
    np.exp: DDArray.exp,
    np.log: DDArray.log,
    np.sqrt: DDArray.sqrt,
    np.isfinite: lambda a: np.isfinite(a.hi) & np.isfinite(a.lo),
}
_BINARY = {
    np.add: DDArray.__add__,
    np.subtract: DDArray.__sub__,
    np.multiply: DDArray.__mul__,
    np.true_divide: DDArray.__truediv__,
    np.less: DDArray.__lt__,
    np.less_equal: DDArray.__le__,
    np.greater: DDArray.__gt__,
    np.greater_equal: DDArray.__ge__,
}
