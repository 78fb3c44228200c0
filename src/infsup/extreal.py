"""Two extended-real image spaces and their residuated arithmetic.

The extended reals support two different additions: one where +inf wins
against -inf (the right convention when the surrounding problem takes
infima) and one where -inf wins (for suprema).  Mixing the conventions
silently is the classic source of wrong identities, so the two readings
live on distinct types, ``UpReal`` and ``DownReal``.  Crossing between
them happens only through the negation duality or through an explicit
reinterpret call.

Each addition has a residual "difference" recovering subtraction on
finite values and making a definite, order-theoretically forced choice
on every infinite combination.  Those closed forms are what the rest of
the package leans on.
"""

from __future__ import annotations

import math

import numpy as np


def _float_repr(x):
    """Source text that evaluates to the float x bit for bit, infinities included."""
    return repr(x) if math.isfinite(x) else f"float('{x}')"


class _Tagged:
    """Shared machinery for both spaces; not exported."""

    __slots__ = ("v",)

    def __init__(self, value):
        v = float(value)
        if math.isnan(v):
            raise ValueError("NaN is not an extended real")
        self.v = v

    @classmethod
    def top(cls):
        return cls(math.inf)

    @classmethod
    def bottom(cls):
        return cls(-math.inf)

    @property
    def value(self):
        return self.v

    @property
    def is_top(self):
        return self.v == math.inf

    @property
    def is_bottom(self):
        return self.v == -math.inf

    @property
    def is_finite(self):
        return math.isfinite(self.v)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.v == other.v

    def __hash__(self):
        return hash((self.__class__.__name__, self.v))

    def __lt__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.v < other.v

    def __le__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.v <= other.v

    def __gt__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.v > other.v

    def __ge__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.v >= other.v

    def __repr__(self):
        return f"{type(self).__name__}({_float_repr(self.v)})"


class UpReal(_Tagged):
    """Extended real living in the space whose addition lets +inf dominate."""

    __slots__ = ()

    def __add__(self, other):
        return isum(self, other)

    def __sub__(self, other):
        return idif(self, other)

    def __neg__(self):
        return negate_up(self)

    def __rmul__(self, t):
        return scale(t, self)


class DownReal(_Tagged):
    """Extended real living in the space whose addition lets -inf dominate."""

    __slots__ = ()

    def __add__(self, other):
        return ssum(self, other)

    def __sub__(self, other):
        return sdif(self, other)

    def __neg__(self):
        return negate_down(self)

    def __rmul__(self, t):
        return scale(t, self)


def _want(cls, x, op):
    if type(x) is not cls:
        raise TypeError(f"{op} expects {cls.__name__}, got {type(x).__name__}")


def isum(a: UpReal, b: UpReal) -> UpReal:
    """Addition with +inf dominant; Bottom + Bottom stays Bottom."""
    _want(UpReal, a, "isum")
    _want(UpReal, b, "isum")
    s = a.v + b.v
    if math.isnan(s):
        return UpReal.top()
    return UpReal(s)


def ssum(a: DownReal, b: DownReal) -> DownReal:
    """Addition with -inf dominant; Top + Top stays Top."""
    _want(DownReal, a, "ssum")
    _want(DownReal, b, "ssum")
    s = a.v + b.v
    if math.isnan(s):
        return DownReal.bottom()
    return DownReal(s)


def idif(a: UpReal, b: UpReal) -> UpReal:
    """Residual of isum: the least t with a <= isum(b, t).

    On finite pairs this is plain subtraction.  On infinite input the
    value is forced: if b is Top then every t works and the least is
    Bottom; if a is Bottom likewise; if a is Top (and b below it) no
    finite t works, so Top; if b is Bottom (and a above it) same.  The
    IEEE difference already lands on the right answer everywhere except
    the two nan cases (Top-Top and Bottom-Bottom), both of which resolve
    to Bottom here.
    """
    _want(UpReal, a, "idif")
    _want(UpReal, b, "idif")
    d = a.v - b.v
    if math.isnan(d):
        return UpReal.bottom()
    return UpReal(d)


def sdif(a: DownReal, b: DownReal) -> DownReal:
    """Residual of ssum: the greatest t with ssum(b, t) <= a.

    Mirror image of idif; the two nan cases resolve to Top.
    """
    _want(DownReal, a, "sdif")
    _want(DownReal, b, "sdif")
    d = a.v - b.v
    if math.isnan(d):
        return DownReal.top()
    return DownReal(d)


def negate_up(a: UpReal) -> DownReal:
    """The duality: negation carries the up space onto the down space."""
    _want(UpReal, a, "negate_up")
    return DownReal(-a.v)


def negate_down(a: DownReal) -> UpReal:
    _want(DownReal, a, "negate_down")
    return UpReal(-a.v)


def as_down(a: UpReal) -> DownReal:
    """Reinterpret the same tagged scalar under the other addition.

    The number does not change, only which convention it participates
    in.  This exists so the cross-space identities between the two
    differences can even be stated; ordinary code should not need it.
    """
    _want(UpReal, a, "as_down")
    return DownReal(a.v)


def as_up(a: DownReal) -> UpReal:
    _want(DownReal, a, "as_up")
    return UpReal(a.v)


def _scale_factor(t):
    """t as a float; raises ValueError unless it is a finite real >= 0."""
    t = float(t)
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"scale factor must be a finite real >= 0, got {t}")
    return t


def scale(t, a):
    """Multiply by a non-negative real; 0 times anything is 0.

    The convention 0 * (+/-inf) = 0 is what keeps scaling monotone and
    compatible with the residuals, so it is enforced here rather than
    left to IEEE (which would produce NaN).
    """
    if not isinstance(a, _Tagged):
        raise TypeError(f"scale expects UpReal or DownReal, got {type(a).__name__}")
    t = _scale_factor(t)
    if t == 0:
        return type(a)(0.0)
    return type(a)(t * a.v)


def _extremum(cls, pick, empty, ms, op):
    """``pick`` (min or max) of a finite collection of ``cls`` values, ``empty`` if none."""
    vs = []
    for m in ms:
        _want(cls, m, op)
        vs.append(m.v)
    return cls(pick(vs, default=empty))


def inf_up(ms) -> UpReal:
    """Infimum of a finite collection; empty collection gives Top."""
    return _extremum(UpReal, min, math.inf, ms, "inf_up")


def sup_up(ms) -> UpReal:
    """Supremum of a finite collection; empty collection gives Bottom."""
    return _extremum(UpReal, max, -math.inf, ms, "sup_up")


def inf_down(ms) -> DownReal:
    return _extremum(DownReal, min, math.inf, ms, "inf_down")


def sup_down(ms) -> DownReal:
    return _extremum(DownReal, max, -math.inf, ms, "sup_down")


# ---------------------------------------------------------------------------
# Bulk layer: the same semantics on float64 arrays, with +/-inf encoding
# Top/Bottom.  IEEE addition and subtraction agree with the tables except
# where they produce nan, and each operation patches its nan cases to the
# value the residuation forces.  The elementwise agreement with the scalar
# functions above is itself under test; the bulk layer exists so that the
# randomized law suites can run at six-digit sample counts.
# ---------------------------------------------------------------------------


def _clean(a):
    a = np.asarray(a, dtype=float)
    if np.isnan(a).any():
        raise ValueError("NaN is not an extended real")
    return a


def _bulk(op, nan_value, a, b):
    """``op`` on the cleaned arrays, its nan cases (opposite infinities)
    patched to ``nan_value``."""
    a, b = _clean(a), _clean(b)
    with np.errstate(invalid="ignore"):
        r = op(a, b)
    return np.where(np.isnan(r), nan_value, r)


def isum_arr(a, b):
    return _bulk(np.add, np.inf, a, b)


def ssum_arr(a, b):
    return _bulk(np.add, -np.inf, a, b)


def idif_arr(a, b):
    return _bulk(np.subtract, -np.inf, a, b)


def sdif_arr(a, b):
    return _bulk(np.subtract, np.inf, a, b)


def scale_arr(t, a):
    a = _clean(a)
    t = _scale_factor(t)
    if t == 0:
        return np.zeros_like(a)
    return t * a
