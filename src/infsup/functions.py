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

The down space is reached through negation: a ``DownFunction`` stores
the up-space mirror of its pointwise negation, which keeps the two
value conventions from blurring while sharing all the representation
code.

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
from itertools import islice

import numpy as np

from .extreal import (
    DownReal,
    UpReal,
    _scale_factor,
    as_down,
    as_up,
    idif,
    negate_up,
    ssum,
)

INF = math.inf

# Slope changes below this are treated as collinear during
# canonicalization.  All fixtures use small integer or dyadic data, so
# the threshold only ever removes genuinely redundant breakpoints.
COLLINEAR_TOL = 1e-12


def _require_finite(x, what):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x}")
    return x


def _require_finite_array(xs, what):
    """xs as a float64 array; a non-finite entry raises, naming the first one."""
    x = np.asarray(xs, dtype=float)
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{what}[{i}] must be finite, got {x.flat[i]}")
    return x


def _float_repr(x):
    """Source text that evaluates to the float x bit for bit, infinities included."""
    return repr(x) if math.isfinite(x) else f"float('{x}')"


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
    """Base for the up-space representations; use the concrete classes."""

    def eval(self, x):
        raise NotImplementedError

    def eval_many(self, xs):
        """``eval`` at every finite x of an array, as float64 with Top = +inf, Bottom = -inf.

        That is the bulk encoding of ``extreal``'s ``*_arr`` operations;
        ``out[i]`` equals ``self.eval(xs[i]).value`` bit for bit.
        """
        raise NotImplementedError

    def dom(self):
        """Effective domain {x : f(x) < Top} as (lo, hi), or None if empty."""
        raise NotImplementedError

    def is_convex(self):
        raise NotImplementedError

    def __eq__(self, other):
        return fn_allclose(self, other, tol=0.0) if isinstance(other, UpFunction) else NotImplemented

    def __hash__(self):
        return hash(type(self).__name__)


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

    def eval_many(self, xs):
        x = _require_finite_array(xs, "x")
        return np.where((self.lo <= x) & (x <= self.hi), -INF, INF)

    def dom(self):
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
    * no two neighbouring slopes (:meth:`all_slopes`) within
      COLLINEAR_TOL of each other, except the two end slopes of an
      affine function, which has its one breakpoint at x = 0.

    Equal functions therefore have equal representations, and ``==``
    (:func:`fn_allclose` with ``tol=0``) is function equality.

    Values at finite domain endpoints are attained, so the epigraph is
    closed by construction.

    ``xs`` and ``vs`` are never mutated after construction: every
    operation builds new lists, so anything derived from them stays
    valid for the instance's lifetime.  :meth:`is_convex` relies on
    that: its slope pass runs on the first call and leaves one bool on
    the instance, so repeated queries on one function (``dirderiv``,
    ``is_subgradient``, ``infconv``) pay the O(k) pass once.
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
        sl = None if slope_left is None else _require_finite(slope_left, "slope_left")
        sr = None if slope_right is None else _require_finite(slope_right, "slope_right")
        dom_lo, dom_hi = float(dom_lo), float(dom_hi)
        if not dom_lo <= dom_hi or dom_lo == INF or dom_hi == -INF:
            raise ValueError(f"empty domain [{dom_lo}, {dom_hi}]")
        if dom_lo == -INF and sl is None:
            raise ValueError("unbounded domain on the left needs slope_left")
        if dom_hi == INF and sr is None:
            raise ValueError("unbounded domain on the right needs slope_right")

        if dom_lo > -INF:
            if dom_lo < xs[0] and sl is None:
                raise ValueError("dom_lo below the first breakpoint needs slope_left")
            v_at = _require_finite(_pl_value(xs, vs, sl, sr, dom_lo), "the value at dom_lo")
            i = bisect_right(xs, dom_lo)
            xs, vs, sl = [dom_lo] + xs[i:], [v_at] + vs[i:], None
        if dom_hi < INF:
            if dom_hi > xs[-1] and sr is None:
                raise ValueError("dom_hi above the last breakpoint needs slope_right")
            v_at = _require_finite(_pl_value(xs, vs, sl, sr, dom_hi), "the value at dom_hi")
            i = bisect_left(xs, dom_hi)
            xs, vs, sr = xs[:i] + [dom_hi], vs[:i] + [v_at], None

        # drop collinear interior breakpoints in one pass: the stack holds a
        # prefix with none left, so a deletion only exposes the triple that
        # ends at the incoming point; ps[k] is the chord slope from px[k]
        px, pv, ps = xs[:1], vs[:1], []
        for x, v in zip(islice(xs, 1, None), islice(vs, 1, None)):
            s1 = (v - pv[-1]) / (x - px[-1])
            while ps and abs(ps[-1] - s1) <= COLLINEAR_TOL:
                ps.pop()
                px.pop()
                pv.pop()
                s1 = (v - pv[-1]) / (x - px[-1])
            ps.append(s1)
            px.append(x)
            pv.append(v)
        xs, vs = px, pv
        # then end breakpoints that sit on the continuation of the adjacent
        # infinite ray; removing one creates no new interior triple
        while len(xs) >= 2:
            if sl is not None and abs(sl - (vs[1] - vs[0]) / (xs[1] - xs[0])) <= COLLINEAR_TOL:
                del xs[0], vs[0]
            elif sr is not None and abs(sr - (vs[-1] - vs[-2]) / (xs[-1] - xs[-2])) <= COLLINEAR_TOL:
                del xs[-1], vs[-1]
            else:
                break
        # an affine function has no distinguished breakpoint: anchor it at
        # +0.0 (x = -0.0 counts as +0.0, so an anchored function anchors to
        # itself bit for bit, -0.0 values included)
        if len(xs) == 1 and sl is not None and sr is not None and abs(sl - sr) <= COLLINEAR_TOL:
            xs, vs = [0.0], [vs[0] - sl * (xs[0] or 0.0)]

        self.xs = xs
        self.vs = vs
        self.slope_left = sl
        self.slope_right = sr
        self.dom_lo = dom_lo
        self.dom_hi = dom_hi
        self._convex = None  # is_convex(), once asked

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

    def eval_many(self, xs):
        """:func:`_pl_value` over an array: the same case split and IEEE operations, Top off the domain."""
        x = _require_finite_array(xs, "x")
        bx, bv = np.asarray(self.xs), np.asarray(self.vs)
        last = len(bx) - 1
        i = np.searchsorted(bx, x, side="right") - 1
        at = (i >= 0) & (x == bx[np.maximum(i, 0)])
        inner = (i >= 0) & (i < last) & ~at
        out = np.full(x.shape, INF)
        out[at] = bv[i[at]]
        j = i[inner]
        with np.errstate(over="ignore", invalid="ignore"):
            t = (x[inner] - bx[j]) / (bx[j + 1] - bx[j])
            out[inner] = bv[j] + t * (bv[j + 1] - bv[j])
            if self.slope_left is not None:
                m = i < 0
                out[m] = bv[0] + self.slope_left * (x[m] - bx[0])
            if self.slope_right is not None:
                m = (i == last) & ~at
                out[m] = bv[-1] + self.slope_right * (x[m] - bx[-1])
        return out

    def dom(self):
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

        Computed once per instance.  The constructor prunes every slope
        change within COLLINEAR_TOL, by the same test, so a convex
        function's slopes strictly rise, except the two end slopes of an
        affine one.
        """
        if self._convex is None:
            s = self.all_slopes()
            self._convex = _strictly_increasing(s) or all(
                b > a or abs(a - b) <= COLLINEAR_TOL for a, b in zip(s, s[1:])
            )
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


def abs_fn():
    """|x|, the workhorse example."""
    return pl([(0.0, 0.0)], slope_left=-1.0, slope_right=1.0)


# ---------------------------------------------------------------------------
# Down-space functions via the negation duality.
# ---------------------------------------------------------------------------


class DownFunction:
    """A function into the down space, stored as the up-space mirror of -h.

    ``h(x) = -(mirror(x))`` pointwise.  The effective domain follows the
    down-space reading {x : Bottom < h(x)}, which lands on the same
    interval as the mirror's up-space domain; the two readings use the
    same word for genuinely different formulas, and the wrapper keeps
    that straight by type.
    """

    def __init__(self, mirror):
        if not isinstance(mirror, UpFunction):
            raise TypeError("DownFunction wraps an UpFunction mirror")
        self.mirror = mirror

    def eval(self, x):
        return negate_up(self.mirror.eval(x))

    def dom(self):
        return self.mirror.dom()

    def is_concave(self):
        return self.mirror.is_convex()

    def hypo_contains(self, x, r):
        r = _require_finite(r, "r")
        return self.eval(x) >= DownReal(r)

    def __eq__(self, other):
        if not isinstance(other, DownFunction):
            return NotImplemented
        return self.mirror == other.mirror

    def __hash__(self):
        return hash(("DownFunction", type(self.mirror).__name__))

    def __repr__(self):
        return f"DownFunction({self.mirror!r})"


def negate_fn(f):
    """Pointwise negation, swapping the image space.

    UpFunction -> DownFunction and back; applying it twice returns a
    function equal to the original.
    """
    if isinstance(f, UpFunction):
        return DownFunction(f)
    if isinstance(f, DownFunction):
        return f.mirror
    raise TypeError(f"negate_fn expects a function, got {type(f).__name__}")


# ---------------------------------------------------------------------------
# Structure predicates as module functions.
# ---------------------------------------------------------------------------


def epi_contains(f, x, r):
    """Whether (x, r) lies in the epigraph; r must be finite."""
    r = _require_finite(r, "r")
    return f.eval(x) <= UpReal(r)


def _close(a, b, tol):
    """``|a - b| <= tol * max(1, |a|, |b|)`` for finite a and b; an infinity is close only to itself."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def fn_allclose(f, g, tol=1e-9):
    """Structural closeness of two up-space functions.

    Compares variant, breakpoints, slopes and domain markers, each pair
    within ``tol`` relative to its size: ``|a - b| <= tol * max(1, |a|, |b|)``,
    so ``tol`` is absolute below 1 and relative above, and ``tol=0`` is exact.
    Every instance is canonical (see :class:`PLProper`), so ``tol=0`` is
    function equality.
    """

    def close(a, b):
        if a is None or b is None:
            return a is None and b is None
        return _close(a, b, tol)

    if isinstance(f, ImproperSplit):
        return isinstance(g, ImproperSplit) and close(f.lo, g.lo) and close(f.hi, g.hi)
    if isinstance(f, PLProper):
        if not isinstance(g, PLProper):
            return False
        if len(f.xs) != len(g.xs):
            return False
        return (
            all(close(a, b) for a, b in zip(f.xs, g.xs))
            and all(close(a, b) for a, b in zip(f.vs, g.vs))
            and close(f.slope_left, g.slope_left)
            and close(f.slope_right, g.slope_right)
            and close(f.dom_lo, g.dom_lo)
            and close(f.dom_hi, g.dom_hi)
        )
    raise TypeError(f"not an up-space function: {type(f).__name__}")


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
    """
    if isinstance(f, ImproperSplit):
        return f
    if not isinstance(f, PLProper):
        raise TypeError(f"not an up-space function: {type(f).__name__}")

    a_lo, a_hi = f.slope_window()
    if a_lo > a_hi:
        return ConstBottom()
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
