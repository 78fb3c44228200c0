"""Extended-real-valued functions of one real variable.

Two classes cover every closed convex function into the up space and
enough non-convex ones to exercise the hull machinery:

* ``PLProper``: piecewise linear, finite on a closed interval domain
  (possibly unbounded), Top outside.  Canonical form folds finite
  domain endpoints into breakpoints, so a stored end slope exists
  exactly when the domain is unbounded on that side.
* ``ImproperSplit``: Bottom on a closed interval, Top off it.  Closed
  improper convex functions take only infinite values, and on the line
  they look exactly like this.  The interval may be empty or the whole
  line; those two cases carry the names ``ConstTop`` and
  ``ConstBottom``.

Dual elements are continuous linear functionals (``proper``) plus their
inf-extensions (``hat``).  The affine dual element xi_r is the pair
(xi, r) of a ``DualElem`` and a finite offset, passed as two arguments
(``affine_eval(xi, r, x)``); no class wraps it.  A proper xi_r is
x -> a*x - r.  A hat takes Bottom where a*x - r <= 0 and Top elsewhere,
which makes it positively homogeneous but deliberately not additive;
(hat(t*a), t*r) is the same function for every t > 0.  A ``DualElem``
is its functional and compares by (kind, slope), so ``dual_add`` and
``dual_scale`` act on elements, not on classes of them.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from itertools import chain, islice

import numpy as np

from .extreal import (
    UpReal,
    _float_repr,
    _scale_factor,
    as_down,
    as_up,
    idif,
    ssum,
)

INF = math.inf

# Neighbouring slopes within this of each other are treated as collinear
# during canonicalization.  The tolerance is absolute on slopes: it does
# not scale with the data, so on float data a slope change from rounding
# alone survives when it exceeds 1e-12.
COLLINEAR_TOL = 1e-12

# The size rule of the O(k) passes.  From this many breakpoints on, the
# constructor checks a sequence input on float64 arrays
# (:func:`_checked_arrays`) and takes its chord slopes from them
# (:func:`_slopes`) for its prune and convexity test; it does so for a
# float64 array input at every size.  ``calculus._pl_legendre`` (the
# transform of a convex function) and ``calculus._epigraph_sum`` (both
# operands counted) read their operands as arrays (:func:`_chords`) and
# hand their results to the constructor as arrays, which it turns into
# lists once.  The prune skips its stack loop when the arrays show that
# it would pop nothing; otherwise the loop runs as below the rule.  Both
# routes round every number alike, so the output is the same bit for bit.
# The rule only picks array or list arithmetic; whether a hull pass runs
# is decided by convexity alone.  Below the rule a list input costs one
# size comparison and one type test more, and a bounded side one test of
# None more.  Crossover on 2 vCPU, convex random-slope data, list inputs,
# best of 5: at k = 4 and 16 every array route is 1.5-8x slower; at 64
# the constructor and the transform break even; at 256 they are
# 1.2-1.9x faster.  So the rule sits at 256.  The merge, timed with the
# constructor of its result (best of 200), is 0.7x the walk's speed at 64
# breakpoints in all, 1.3x at 128 and 1.5-2.8x from 256 to 2 * 10^5.
ARRAY_MIN_K = 256


def _require_finite(x, what):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x}")
    return x


def _slopes(x, v):
    """The chord slopes (v[i + 1] - v[i]) / (x[i + 1] - x[i]) of float64 arrays x, v.

    numpy rounds each subtraction and the division as the stack loops
    do, so each slope is the loops' bit for bit; differences that
    overflow give inf or nan there too.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return (v[1:] - v[:-1]) / (x[1:] - x[:-1])


def _chords(xs, vs):
    """The lists xs, vs as float64 arrays x, v, with their chord slopes :func:`_slopes`.

    Only the transforms' operand reads use it (``calculus._pl_legendre``
    and ``calculus._epigraph_sum``); the constructor takes its arrays from
    :func:`_checked_arrays`.  At 10^5 breakpoints it takes about 4 ms
    (2 vCPU), nearly all of it in the two ``np.fromiter`` reads.
    """
    x, v = np.fromiter(xs, float, len(xs)), np.fromiter(vs, float, len(vs))
    return x, v, _slopes(x, v)


def _checked_arrays(xs, vs):
    """The breakpoint checks of :class:`PLProper` on arrays: a sequence of ARRAY_MIN_K or more, or an array.

    Each of xs, vs is a float64 array (a transform's output) or a
    sequence of numbers.  Returns the lists xs, vs and the float64
    arrays xa, va of the same floats.  A sequence becomes the list of its
    floats, ``list(map(float, ...))``, which holds the caller's own float
    objects, and one ``np.fromiter``; an array becomes one ``tolist``.
    The checks and their messages are the list route's: equal lengths,
    finite entries (naming the first bad index), strictly increasing
    positions, and no span that overflows.
    """
    pair = []
    for a in (xs, vs):
        if isinstance(a, np.ndarray):
            a = np.asarray(a, float)
            pair.append((a.tolist(), a))
        else:
            a = list(map(float, a))
            pair.append((a, np.fromiter(a, float, len(a))))
    (xs, xa), (vs, va) = pair
    if len(xs) == 0 or len(xs) != len(vs):
        raise ValueError("need equally many breakpoint positions and values, at least one")
    for what, a in (("breakpoint x", xa), ("breakpoint value v", va)):
        finite = np.isfinite(a)
        if not finite.all():
            i = int(finite.argmin())
            _require_finite(a[i], f"{what}[{i}]")
    if not (xa[1:] > xa[:-1]).all():
        raise ValueError("breakpoints must be strictly increasing")
    _require_finite_span(xs)
    return xs, vs, xa, va


def _any_within_tol(s):
    """Whether two neighbouring entries of the slope array s lie within COLLINEAR_TOL.

    inf - inf is nan and never within, as in the constructor's loop.
    """
    with np.errstate(invalid="ignore"):
        return bool((abs(s[1:] - s[:-1]) <= COLLINEAR_TOL).any())


def _require_finite_span(xs):
    """Raise ValueError when two neighbours of the increasing list xs lie more than the largest float apart.

    Floats of one sign differ by at most the larger magnitude, so only
    the chord across 0 can overflow, and only when the whole span does.
    """
    if xs[-1] - xs[0] == INF:
        i = bisect_right(xs, 0.0)
        if xs[i] - xs[i - 1] == INF:
            raise ValueError(f"the chord from breakpoint x = {xs[i - 1]!r} to x = {xs[i]!r} spans more than the largest float")


def _strictly_increasing(xs):
    return all(map(operator.lt, xs, islice(xs, 1, None)))


def _piece(xs, x):
    """Index of the piece of the breakpoint list ``xs`` that holds x.

    Piece i runs from xs[i] up to (not including) xs[i + 1]; -1 is the
    ray left of xs[0] and len(xs) - 1 the ray from xs[-1] on.
    """
    return bisect_right(xs, x) - 1


def _pl_value(xs, vs, slope_left, slope_right, x):
    """Value at x of breakpoint data extended by the end slopes; exact at breakpoints."""
    i = _piece(xs, x)
    if i < 0:
        return vs[0] + slope_left * (x - xs[0])
    if x == xs[i]:
        return vs[i]
    if i == len(xs) - 1:
        return vs[-1] + slope_right * (x - xs[-1])
    t = (x - xs[i]) / (xs[i + 1] - xs[i])
    return vs[i] + t * (vs[i + 1] - vs[i])


class UpFunction:
    """Base of the up-space representations, which share ``eval``, ``dom`` and ``is_convex``.

    Every instance is canonical, so a function is its data: ``hash``
    reads the key of :func:`_key`, the canonical fields as one flat
    tuple, and ``==`` compares as those keys do, so it is function
    equality.  ``==`` compares the variants and breakpoint counts first
    and then each sequence of :func:`_fields` with ``==``, so it never
    builds a key: two equal functions of 10^5 breakpoints, built from
    separate lists, compare in 2.3 ms instead of 9.3 ms (2 vCPU), and a
    first breakpoint that differs is found at once.
    """

    def __eq__(self, other):
        if not isinstance(other, UpFunction):
            return NotImplemented
        return _variant(self) == _variant(other) and all(
            p == q for p, q in zip(_fields(self), _fields(other))
        )

    def __hash__(self):
        return hash(_key(self))


class ImproperSplit(UpFunction):
    """Bottom on the closed interval [lo, hi] (intersected with the reals), Top off it.

    ``lo > hi`` is the empty interval, where the function is identically
    Top.  Construct through :func:`improper_split`, which canonicalizes
    the empty interval to ConstTop and the whole line to ConstBottom.
    """

    def __init__(self, lo, hi):
        lo, hi = float(lo), float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]; use improper_split")
        if lo == -INF and hi == INF:
            raise ValueError("full-line split is ConstBottom; use improper_split")
        if lo == INF or hi == -INF:
            raise ValueError(f"degenerate interval [{lo}, {hi}]; use improper_split")
        self.lo = lo
        self.hi = hi

    def eval(self, x):
        x = _require_finite(x, "x")
        if self.lo <= x <= self.hi:
            return UpReal.bottom()
        return UpReal.top()

    def dom(self):
        """The effective domain {x : f(x) < Top}, [lo, hi], as (lo, hi); None if empty."""
        return None if self.lo > self.hi else (self.lo, self.hi)

    def is_convex(self):
        return True

    def __repr__(self):
        return f"ImproperSplit({_float_repr(self.lo)}, {_float_repr(self.hi)})"


class ConstTop(ImproperSplit):
    """Identically Top; the function with empty domain."""

    def __init__(self):
        self.lo, self.hi = INF, -INF

    def __repr__(self):
        return "ConstTop()"


class ConstBottom(ImproperSplit):
    """Identically Bottom; the split over the whole line."""

    def __init__(self):
        self.lo, self.hi = -INF, INF

    def __repr__(self):
        return "ConstBottom()"


def improper_split(lo, hi):
    """Build the Bottom-on-[lo,hi] function, canonicalizing degenerate intervals."""
    lo, hi = float(lo), float(hi)
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError("interval endpoints must not be NaN")
    if lo > hi or lo == INF or hi == -INF:
        return ConstTop()
    if lo == -INF and hi == INF:
        return ConstBottom()
    return ImproperSplit(lo, hi)


class PLProper(UpFunction):
    """Piecewise-linear function, finite on its interval domain, Top outside.

    The constructor is the one place that checks and canonicalizes, so
    every instance is canonical:

    * ``xs`` strictly increasing, ``vs`` finite, at least one breakpoint;
    * ``dom_lo`` is either -inf or exactly ``xs[0]``, same on the right:
      finite domain bounds are folded into the breakpoint list;
    * ``slope_left`` is present iff ``dom_lo`` is -inf, ``slope_right``
      iff ``dom_hi`` is +inf;
    * every chord span and slope finite (an overflow raises, naming the chord);
    * no two neighbouring slopes (:meth:`all_slopes`) within
      COLLINEAR_TOL of each other, except the two end slopes of an
      affine function, which has its one breakpoint at x = 0.

    Equal functions therefore have equal representations, and ``==``
    (equal keys, :func:`_key`) is function equality.

    Values at finite domain endpoints are attained, so the epigraph is
    closed by construction.

    ``xs`` and ``vs`` are never mutated after construction: every
    operation builds new lists, so anything derived from them stays
    valid for the instance's lifetime.  The constructor decides
    convexity from the chord slopes its prune holds and stores one bool
    for :meth:`is_convex`, which picks every hull route: a convex
    function is its own hull, and only a non-convex one runs the stack.

    The constructor also declares ``_conjugate``, the memo of
    ``calculus._pl_legendre``: None until the first transform of the
    instance, then a ``weakref.ref`` to that transform, so the function
    never keeps alive a conjugate its caller dropped.  It is declared
    here, not set on first use, so that every instance has the same
    attributes in the same order, the layout CPython's shared-key
    instance dicts serve best.  Pickling and copying drop the memo.

    The constructor follows the size rule ARRAY_MIN_K.  From that many
    breakpoints on, or at any size when ``xs`` is a float64 array (the
    transforms pass theirs), it runs the breakpoint checks in numpy with
    the list route's messages (:func:`_checked_arrays`), clips the arrays
    along with the lists, and computes the chord slopes from its arrays.
    It skips its prune stack when no two neighbours lie within
    COLLINEAR_TOL, because the stack would pop nothing, and tests the
    slopes on the array.  Either way it stores lists of Python floats: an
    array becomes one ``tolist``, and a list keeps the caller's own float
    objects, so a caller that keeps its lists does not hold every number
    twice.  Measured on convex random-slope data (2 vCPU), the array
    route is even with the stack at k = 64, 1.6x faster at 256 and 2.5x
    at 10^5.  At k = 10^5 (best of 7) the constructor takes about 4 ms
    from float64 arrays and 9-13 ms from lists of floats.
    """

    def __init__(self, xs, vs, slope_left=None, slope_right=None, dom_lo=-INF, dom_hi=INF):
        """Breakpoints (x-sorted) with their values, end slopes and domain bounds.

        Finite domain bounds may lie anywhere: the breakpoint list is
        clipped, or extended by the end slopes, so the bounds become
        breakpoints.  A slope given on a bounded side serves that
        extension and is then dropped; an unbounded side needs one.
        Collinear breakpoints are removed, and an affine function is
        anchored at x = 0.
        """
        if len(xs) < ARRAY_MIN_K and not isinstance(xs, np.ndarray):
            xs = list(map(float, xs))
            vs = list(map(float, vs))
            if len(xs) == 0 or len(xs) != len(vs):
                raise ValueError("need equally many breakpoint positions and values, at least one")
            # whole-list checks first; the loops run only on failure, to name the index
            if not all(map(math.isfinite, xs)):
                for i, x in enumerate(xs):
                    _require_finite(x, f"breakpoint x[{i}]")
            if not all(map(math.isfinite, vs)):
                for i, v in enumerate(vs):
                    _require_finite(v, f"breakpoint value v[{i}]")
            if not _strictly_increasing(xs):
                raise ValueError("breakpoints must be strictly increasing")
            _require_finite_span(xs)
            xa = None
        else:
            xs, vs, xa, va = _checked_arrays(xs, vs)
        sl = None if slope_left is None else _require_finite(slope_left, "slope_left")
        sr = None if slope_right is None else _require_finite(slope_right, "slope_right")
        dom_lo, dom_hi = float(dom_lo), float(dom_hi)
        if not dom_lo <= dom_hi or dom_lo == INF or dom_hi == -INF:
            raise ValueError(f"empty domain [{dom_lo}, {dom_hi}]")
        if dom_lo == -INF and sl is None:
            raise ValueError("unbounded domain on the left needs slope_left")
        if dom_hi == INF and sr is None:
            raise ValueError("unbounded domain on the right needs slope_right")

        # xs and vs are new lists here, so they are clipped in place; on the
        # array route the arrays xa, va are clipped alongside them
        if dom_lo > -INF:
            if dom_lo < xs[0] and sl is None:
                raise ValueError("dom_lo below the first breakpoint needs slope_left")
            v_at = _require_finite(_pl_value(xs, vs, sl, sr, dom_lo), "the value at dom_lo")
            i = bisect_right(xs, dom_lo)
            xs[:i], vs[:i], sl = [dom_lo], [v_at], None
            if xa is not None:
                xa, va = np.concatenate(([dom_lo], xa[i:])), np.concatenate(([v_at], va[i:]))
        if dom_hi < INF:
            if dom_hi > xs[-1] and sr is None:
                raise ValueError("dom_hi above the last breakpoint needs slope_right")
            v_at = _require_finite(_pl_value(xs, vs, sl, sr, dom_hi), "the value at dom_hi")
            i = bisect_left(xs, dom_hi)
            xs[i:], vs[i:], sr = [dom_hi], [v_at], None
            if xa is not None:
                xa, va = np.concatenate((xa[:i], [dom_hi])), np.concatenate((va[:i], [v_at]))

        # drop collinear interior breakpoints in one pass: the stack holds a
        # prefix with none left, so a deletion only exposes the triple that
        # ends at the incoming point; s[k] is the chord slope from xs[k].
        # It pops nothing when no two neighbouring chord slopes are within
        # COLLINEAR_TOL, which the array route checks first
        if xa is None or _any_within_tol(s := _slopes(xa, va)):
            px, pv, s = xs[:1], vs[:1], []
            for x, v in zip(islice(xs, 1, None), islice(vs, 1, None)):
                s1 = (v - pv[-1]) / (x - px[-1])
                while s and abs(s[-1] - s1) <= COLLINEAR_TOL:
                    s.pop()
                    px.pop()
                    pv.pop()
                    s1 = (v - pv[-1]) / (x - px[-1])
                s.append(s1)
                px.append(x)
                pv.append(v)
            xs, vs = px, pv
        # a pop merges two chords, which may overflow across 0
        _require_finite_span(xs)
        # then end breakpoints that sit on the continuation of the adjacent
        # infinite ray; removing one creates no new interior triple
        i, j = 0, len(xs)
        while j - i >= 2:
            if sl is not None and abs(sl - s[i]) <= COLLINEAR_TOL:
                i += 1
            elif sr is not None and abs(sr - s[j - 2]) <= COLLINEAR_TOL:
                j -= 1
            else:
                break
        if j - i < len(xs):
            xs, vs, s = xs[i:j], vs[i:j], s[i : j - 1]
        if isinstance(s, np.ndarray):
            finite, rising = bool(np.isfinite(s).all()), bool((s[1:] > s[:-1]).all())
        else:
            finite, rising = all(map(math.isfinite, s)), _strictly_increasing(s)
        if not finite:
            i = next(k for k, t in enumerate(s) if not math.isfinite(t))
            raise ValueError(f"the chord from breakpoint x = {xs[i]!r} to x = {xs[i + 1]!r} has slope {s[i]}")
        # an affine function has no distinguished breakpoint: anchor it at
        # +0.0 (x = -0.0 counts as +0.0, so an anchored function anchors to
        # itself bit for bit, -0.0 values included)
        affine = len(xs) == 1 and sl is not None and sr is not None and abs(sl - sr) <= COLLINEAR_TOL
        if affine:
            xs, vs = [0.0], [vs[0] - sl * (xs[0] or 0.0)]
        # of sl, s, sr only an affine function's two can now lie within
        # COLLINEAR_TOL, so the function is convex iff they strictly rise or it is affine
        if len(s):
            convex = rising and (sl is None or sl < s[0]) and (sr is None or s[-1] < sr)
        else:
            convex = affine or sl is None or sr is None or sl < sr

        self.xs = xs
        self.vs = vs
        self.slope_left = sl
        self.slope_right = sr
        self.dom_lo = dom_lo
        self.dom_hi = dom_hi
        self._convex = bool(convex)
        # the memo of calculus._pl_legendre (see the class docstring)
        self._conjugate = None

    def __getstate__(self):
        """The instance's attributes without the transform memo, which a weak reference holds and cannot be pickled."""
        return {**self.__dict__, "_conjugate": None}

    # -- construction ---------------------------------------------------------

    @classmethod
    def make(cls, breaks, slope_left=None, slope_right=None, dom_lo=-INF, dom_hi=INF):
        """The constructor on a sequence of (x, v) pairs in any order."""
        pts = sorted((float(x), float(v)) for x, v in breaks)
        return cls([p[0] for p in pts], [p[1] for p in pts], slope_left, slope_right, dom_lo, dom_hi)

    # -- evaluation and structure ---------------------------------------------

    def eval(self, x):
        x = _require_finite(x, "x")
        if x < self.dom_lo or x > self.dom_hi:
            return UpReal.top()
        return UpReal(_pl_value(self.xs, self.vs, self.slope_left, self.slope_right, x))

    def dom(self):
        """The effective domain {x : f(x) < Top} as (dom_lo, dom_hi); never empty."""
        return (self.dom_lo, self.dom_hi)

    def segment_slopes(self):
        """Chord slopes between consecutive breakpoints (may be empty)."""
        xs, vs = self.xs, self.vs
        return [(v1 - v0) / (x1 - x0) for x0, x1, v0, v1 in zip(xs, xs[1:], vs, vs[1:])]

    def all_slopes(self):
        """End slopes (where present) and chord slopes, left to right."""
        out = []
        if self.slope_left is not None:
            out.append(self.slope_left)
        out.extend(self.segment_slopes())
        if self.slope_right is not None:
            out.append(self.slope_right)
        return out

    def slope_window(self):
        """Slopes (lo, hi) that affine minorants may have; lo > hi means there are none.

        A ray to -inf with slope s admits only a >= s, a ray to +inf
        only a <= s, and a bounded side sets no limit.  The conjugate
        curve is finite exactly on this window.
        """
        return (
            self.slope_left if self.dom_lo == -INF else -INF,
            self.slope_right if self.dom_hi == INF else INF,
        )

    def is_convex(self):
        """Whether no slope (:meth:`all_slopes`) falls below the one before by more than COLLINEAR_TOL.

        Decided by the constructor, which prunes every smaller slope
        change: the slopes strictly rise, or are an affine function's two.
        """
        return self._convex

    def _piece_slope(self, i):
        if i < 0:
            return self.slope_left
        if i == len(self.xs) - 1:
            return self.slope_right
        return (self.vs[i + 1] - self.vs[i]) / (self.xs[i + 1] - self.xs[i])

    def slope_before(self, x0):
        """Slope immediately to the left of finite x0, or None when x0 is not in (dom_lo, dom_hi]."""
        x0 = _require_finite(x0, "x0")
        if x0 <= self.dom_lo or x0 > self.dom_hi:
            return None
        i = _piece(self.xs, x0)
        if i >= 0 and self.xs[i] == x0:
            i -= 1  # a breakpoint starts its piece, so the one before it is to the left
        return self._piece_slope(i)

    def slope_after(self, x0):
        """Slope immediately to the right of finite x0, or None when x0 is not in [dom_lo, dom_hi)."""
        x0 = _require_finite(x0, "x0")
        if x0 < self.dom_lo or x0 >= self.dom_hi:
            return None
        return self._piece_slope(_piece(self.xs, x0))

    def __repr__(self):
        return (
            f"PLProper([{', '.join(map(_float_repr, self.xs))}], "
            f"[{', '.join(map(_float_repr, self.vs))}], "
            f"slope_left={self.slope_left!r}, slope_right={self.slope_right!r}, "
            f"dom_lo={_float_repr(self.dom_lo)}, dom_hi={_float_repr(self.dom_hi)})"
        )


def pl(breaks, slope_left=None, slope_right=None, dom_lo=-INF, dom_hi=INF):
    """Shorthand for PLProper.make."""
    return PLProper.make(breaks, slope_left, slope_right, dom_lo, dom_hi)


# ---------------------------------------------------------------------------
# Identity and closeness.
# ---------------------------------------------------------------------------


def _variant(f):
    """The variant name of the up-space function f and its breakpoint count (0 for ``ImproperSplit``).

    Raises TypeError for anything that is not an up-space function.
    """
    if isinstance(f, PLProper):
        return "PLProper", len(f.xs)
    if isinstance(f, ImproperSplit):
        return "ImproperSplit", 0
    raise TypeError(f"not an up-space function: {type(f).__name__}")


def _fields(f):
    """The canonical fields of the up-space function f, in key order, as a tuple of sequences.

    ``(lo, hi)`` of an ``ImproperSplit``; ``xs``, ``vs`` and ``(slope_left,
    slope_right, dom_lo, dom_hi)`` (None where a slope is absent) of a
    ``PLProper``.
    """
    if isinstance(f, PLProper):
        return f.xs, f.vs, (f.slope_left, f.slope_right, f.dom_lo, f.dom_hi)
    return ((f.lo, f.hi),)


def _key(f):
    """The canonical key of the up-space function f: its variant name, then :func:`_fields`, as one flat tuple.

    Two ``PLProper`` keys of one length have equally many breakpoints, so
    their fields line up.  Raises TypeError for anything that is not an
    up-space function.
    """
    return (_variant(f)[0], *chain.from_iterable(_fields(f)))


def _close(a, b, tol):
    """``|a - b| <= tol * max(1, |a|, |b|)`` for finite a and b; an infinity is close only to itself."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def fn_allclose(f, g, tol=1e-9):
    """Structural closeness of two up-space functions: their keys (:func:`_key`) entry by entry.

    Variant names and absent slopes must match exactly; each pair of
    floats must lie within ``tol`` relative to its size,
    ``|a - b| <= tol * max(1, |a|, |b|)``, so ``tol`` is absolute below 1
    and relative above, and ``tol=0`` is ``==``, function equality.
    Raises TypeError when f or g is not an up-space function.

    Variants and breakpoint counts are compared first.  Then each
    sequence of :func:`_fields` is compared with ``==``, at C speed, and
    only one that differs is walked entry by entry; the walk stops at
    the first pair that is not close.  Stored floats are never nan, so
    sequence ``==`` is the walk's exact equality.
    """
    if _variant(f) != _variant(g):
        return False
    return all(
        p == q
        or all(x == y or (isinstance(x, float) and isinstance(y, float) and _close(x, y, tol)) for x, y in zip(p, q))
        for p, q in zip(_fields(f), _fields(g))
    )


# ---------------------------------------------------------------------------
# Closed convex hull.
# ---------------------------------------------------------------------------


def _lower_hull(xs, vs):
    """Lower convex hull of the points (xs[i], vs[i]), xs strictly increasing.

    Returns the vertices hx, hv and the chord slopes hs[k] = (hv[k + 1] -
    hv[k]) / (hx[k + 1] - hx[k]).  One stack pass: the top vertex goes
    while the chord into it is at least as steep as the chord on to the
    incoming point, so hs strictly increases as computed, and an input
    whose chord slopes already do comes back whole.  ``closure_hull``
    clips this hull to the slope window; ``calculus._pl_legendre`` reads
    it in the dual, where hs are the conjugate's breakpoints.

    Only non-convex input runs it: both callers read a convex function,
    which the stack would return whole, directly.
    """
    hx, hv, hs = xs[:1], vs[:1], []
    for x, v in zip(islice(xs, 1, None), islice(vs, 1, None)):
        s = (v - hv[-1]) / (x - hx[-1])
        while hs and hs[-1] >= s:
            hs.pop()
            hx.pop()
            hv.pop()
            s = (v - hv[-1]) / (x - hx[-1])
        hs.append(s)
        hx.append(x)
        hv.append(v)
    return hx, hv, hs


def closure_hull(f):
    """Closed convex hull: the function whose epigraph is cl co(epi f).

    An improper function's representation is already closed and
    convex.  For a piecewise-linear proper function the hull is the
    supremum of all affine minorants a*x + b.  A slope a admits a
    minorant iff it lies in :meth:`PLProper.slope_window`; within it
    the best offset is b = min_i (v_i - a*x_i) over the breakpoints,
    because canonical form makes every domain endpoint a breakpoint and
    the rays bind exactly at the end breakpoints for admissible slopes.
    Geometrically that is the lower convex hull of the breakpoints with
    its end slopes clipped to the window; an empty window means no
    affine minorant exists at all and the hull collapses to ConstBottom.
    A convex f with a nonempty window is its own hull and comes back
    as is.
    """
    if isinstance(f, ImproperSplit):
        return f
    if not isinstance(f, PLProper):
        raise TypeError(f"not an up-space function: {type(f).__name__}")

    a_lo, a_hi = f.slope_window()
    if a_lo > a_hi:
        return ConstBottom()
    if f.is_convex():
        return f
    xs, vs, ss = _lower_hull(f.xs, f.vs)
    # an end vertex on or above the window's ray drawn from its neighbour
    # is not a hull vertex; clip those by moving the two end indices
    i, j = 0, len(xs)
    if a_lo > -INF:
        while j - i >= 2 and ss[i] <= a_lo:
            i += 1
    if a_hi < INF:
        while j - i >= 2 and ss[j - 2] >= a_hi:
            j -= 1
    return PLProper(xs[i:j], vs[i:j], f.slope_left, f.slope_right, f.dom_lo, f.dom_hi)


# ---------------------------------------------------------------------------
# Dual elements: linear functionals and their inf-extensions.
# ---------------------------------------------------------------------------


class DualElem:
    """A proper linear functional x -> a*x, or the hat (inf-extension) of one.

    The element is its functional: equality and hashing are the pair
    (kind, a).  Hats of positively proportional slopes are different
    elements, because every consumer reads the slope together with an
    offset: (hat(a), r) is Bottom where a*x - r <= 0, so hat(2) and
    hat(1) at the same offset r = 1 split the line at 1/2 and 1.  Only
    the pairs (hat(t*a), t*r), t > 0, coincide as functions.
    """

    __slots__ = ("kind", "a")

    def __init__(self, kind, a):
        if kind not in ("proper", "hat"):
            raise ValueError(f"kind must be 'proper' or 'hat', got {kind!r}")
        self.kind = kind
        self.a = _require_finite(a, "slope")

    @classmethod
    def proper(cls, a):
        return cls("proper", a)

    @classmethod
    def hat(cls, a):
        return cls("hat", a)

    @property
    def is_hat(self):
        return self.kind == "hat"

    def __eq__(self, other):
        if not isinstance(other, DualElem):
            return NotImplemented
        return self.kind == other.kind and self.a == other.a

    def __hash__(self):
        return hash((self.kind, self.a))

    def __repr__(self):
        return f"DualElem.{self.kind}({self.a!r})"


def dual_add(xi, eta):
    """Addition on the inf-dual: hats absorb proper elements.

    hat + hat is the hat of the summed slopes; hat + proper is the hat
    unchanged; proper + proper adds slopes.  It adds the functionals, so
    it is well defined on elements, and it is not the pointwise ``isum``
    of their values: hat(1) + hat(-1) is hat(0), Bottom everywhere at
    offset 0, while the pointwise up-sum of the two hats at offset 0 is
    Bottom only at x = 0.
    """
    if not isinstance(xi, DualElem) or not isinstance(eta, DualElem):
        raise TypeError("dual_add expects DualElem arguments")
    if xi.is_hat and eta.is_hat:
        return DualElem.hat(xi.a + eta.a)
    if xi.is_hat:
        return xi
    if eta.is_hat:
        return eta
    return DualElem.proper(xi.a + eta.a)


def dual_scale(t, xi):
    """Pointwise multiplication by t >= 0 on the inf-dual.

    For t > 0 both kinds just scale their slope (a hat's values are
    fixed points of positive scaling, and its defining slope scales).
    t = 0 sends everything to the proper zero functional, the neutral
    element of the dual's conlinear structure.
    """
    if not isinstance(xi, DualElem):
        raise TypeError("dual_scale expects a DualElem")
    t = _scale_factor(t)
    if t == 0:
        return DualElem.proper(0.0)
    return DualElem(xi.kind, t * xi.a)


def affine_eval(xi, r, x):
    """Value of the affine dual element (xi, r) at x, in the up space.

    Proper: a*x - r.  Hat: Bottom where a*x - r <= 0, Top elsewhere
    (the inf-extension of the affine function).  The offset r must be
    finite.
    """
    if not isinstance(xi, DualElem):
        raise TypeError("affine_eval needs a DualElem")
    r = _require_finite(r, "offset")
    x = _require_finite(x, "x")
    t = xi.a * x - r
    if xi.is_hat:
        return UpReal.bottom() if t <= 0 else UpReal.top()
    return UpReal(t)


def _witness_split(xi, r, x1, x2):
    # The one offset r1 of the split r = r1 + r2 that decides the sup over
    # all splits of xi_r1(x1) and xi_r2(x2).  For a proper xi every split
    # gives the same value.  For a hat both factors are Top iff
    # r - a*x2 < r1 < a*x1, an interval that is nonempty iff the margin
    # m = a*(x1 + x2) - r is positive; r1 = a*x1 - m/2 is its midpoint,
    # where each factor keeps margin m/2.
    if not isinstance(xi, DualElem):
        raise TypeError("the split laws need a DualElem")
    return xi.a * x1 - (xi.a * (x1 + x2) - r) / 2.0


def affine_split_sup(xi, r, x1, x2):
    """Supremum over splits r1+r2=r of xi_r1(x1) down-plus xi_r2(x2).

    One split attains it: for proper xi every split gives the same
    finite value, and for hats the sup is Top exactly when some split
    puts both factors at Top, which (by the margin argument) happens iff
    it happens at the witness split.  Callers compare the result with
    affine_eval at x1+x2.
    """
    x1, x2 = _require_finite(x1, "x1"), _require_finite(x2, "x2")
    r1 = _witness_split(xi, r, x1, x2)
    return as_up(ssum(as_down(affine_eval(xi, r1, x1)), as_down(affine_eval(xi, r - r1, x2))))


def affine_split_dif(xi, r, x1, x2):
    """Supremum over splits r1+r2=r of xi_r1(x1) up-minus xi_{-r2}(x2).

    The difference-form companion of affine_split_sup, attained at the
    witness split for x1 and -x2; callers compare with affine_eval at
    x1-x2.
    """
    x1, x2 = _require_finite(x1, "x1"), _require_finite(x2, "x2")
    r1 = _witness_split(xi, r, x1, -x2)
    return idif(affine_eval(xi, r1, x1), affine_eval(xi, -(r - r1), x2))
