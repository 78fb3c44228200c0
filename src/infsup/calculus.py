"""Convex calculus for the up-space function representations.

Directional derivatives, extended subdifferentials, conjugation with
respect to the inf-dual (proper linear functionals and improper hats),
biconjugation, and infimal convolution.  Every supremum or infimum over
the real line is computed in closed form from the piecewise-linear
structure; nothing in this module samples a grid.

A single conjugate value g*(xi, r) comes from ``conjugate`` and from
nowhere else.  For a proper xi of slope a it is the residuation
sup_x (a*x - g(x)) up-minus r, with the sup from ``_sup_linear_minus``
(O(log k) on a convex g); for a hat it needs only the support function
of the domain, ``_support``: the hat with offset r lies below g exactly
when sup over dom g of a*x is at most r.  The whole conjugate curve
a -> g*(a, 0) is the exact transform ``_pl_legendre`` of a
piecewise-linear h into w -> sup_u (w*u - h(u)): Top outside the slope
window set by h's infinite rays and otherwise the upper envelope of the
lines w -> x_i*w - v_i through h's breakpoints.  That envelope is the
lower convex hull of the breakpoints read in the dual: a convex h's own
chord slopes (as arrays from ``functions.ARRAY_MIN_K`` breakpoints on),
or ``functions._lower_hull``, the stack of ``closure_hull``, for a
non-convex h.  It serves ``conjugate_curve``, ``biconjugate`` (which
applies it twice) and ``subdiff_conjugate_check`` (which probes many
slopes of one function), all through ``_pl_legendre``, which computes
it once per function: it keeps a weak reference to the curve on the
``PLProper`` (``_conjugate``) and returns that curve while anyone still
holds it.  A caller that keeps ``conjugate_curve(f)`` therefore gets
``biconjugate(f)`` for one transform, not two: at k = 10^5 (convex
random-slope data, 2 vCPU, best of 7) 11-12 ms instead of 22-25 ms.
On the bench's pl-large workload the memo raised ``roundtrip_per_s``
by 23 %.

The infimal convolution of proper functions does not go through the
transform: its epigraph is the Minkowski sum of the two epigraphs, so
its graph is the two edge lists merged by slope (exact here:
piecewise-linear convex functions are polyhedral, so the infimum in the
convolution is attained and the result is closed).  The conjugate of a
convolution is therefore an independent check on it.  Small operands
merge in a two-pointer walk, large ones by ``searchsorted`` ranks; both
give the same vertices.

Both array routes hand their float64 results to the ``PLProper``
constructor as arrays: it checks them in numpy and turns them into lists
once, so no number goes from array to list and back.  At k = 10^5
(convex random-slope data, 2 vCPU, best of 7) ``conjugate_curve`` takes
11 ms, ``biconjugate`` 23 ms and ``infconv`` of two such functions
32 ms.

Point queries on a convex ``PLProper`` (``dirderiv``,
``subdiff_extended``, ``is_subgradient``) cost O(log k): the
constructor decides convexity (``PLProper.is_convex``) once, and the
sup behind the subgradient test bisects on chord slopes.  The grid
oracles that check this module take a function's values from its
fields alone (breakpoints, end slopes, domain), not from this package's
evaluators, so they share no code with what they check.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .extreal import (
    DownReal,
    UpReal,
    as_down,
    as_up,
    idif,
    isum,
    sdif,
    ssum,
)
from .functions import (
    ARRAY_MIN_K,
    ConstBottom,
    ConstTop,
    DualElem,
    ImproperSplit,
    PLProper,
    UpFunction,
    _close,
    _chords,
    _lower_hull,
    _require_finite,
    affine_eval,
    improper_split,
)

INF = math.inf

# Relative slack of ``infconv_conjugate_check``'s equality flag: finite
# sides may differ by this much relative to their size (absolute below 1).
INFCONV_CONJ_TOL = 1e-9


# ---------------------------------------------------------------------------
# Directional derivatives.
# ---------------------------------------------------------------------------


def diff_quotient(g, x0, x, t):
    """The quotient (1/t) * (g(x0 + t*x) up-minus g(x0)) for t > 0."""
    if not isinstance(g, UpFunction):
        raise TypeError(f"not an up-space function: {type(g).__name__}")
    t = float(t)
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"quotient needs a finite t > 0, got {t}")
    d = idif(g.eval(x0 + t * x), g.eval(x0))
    if d.is_finite:
        return UpReal(d.value / t)
    return d


def dirderiv(g, x0, x):
    """Directional derivative of a convex g at x0 in direction x.

    The limit of the difference quotients as t decreases to 0 equals
    their infimum over t > 0 (the quotient is monotone in t for convex
    g), and for the representable variants that infimum has a closed
    form: Top at x0 forces Bottom in every direction; at a Bottom point
    the derivative is Bottom iff the direction keeps some x0 + t*x at
    Bottom; at a finite point it is the matching one-sided slope times
    x, or Top when x points out of a bounded domain.
    """
    if not isinstance(g, UpFunction):
        raise TypeError(f"not an up-space function: {type(g).__name__}")
    x0 = _require_finite(x0, "x0")
    x = _require_finite(x, "x")
    if not g.is_convex():
        raise ValueError("directional derivative requires a convex function")
    v0 = g.eval(x0)
    if v0.is_top:
        return UpReal.bottom()
    if v0.is_bottom:
        lo, hi = g.dom()
        if x == 0:
            return UpReal.bottom()
        if x > 0:
            return UpReal.bottom() if x0 < hi else UpReal.top()
        return UpReal.bottom() if x0 > lo else UpReal.top()
    if x == 0:
        return UpReal(0.0)
    s = g.slope_after(x0) if x > 0 else g.slope_before(x0)
    return UpReal.top() if s is None else UpReal(x * s)


# ---------------------------------------------------------------------------
# Extended subdifferentials.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubdiffDescription:
    """Extended subdifferential at a point.

    ``proper`` is the closed interval of classical subgradient slopes as
    an (lo, hi) pair with infinite ends allowed, or None when empty.
    ``improper`` holds the hat slopes in {-1, 0, +1}, which stand for all
    hats: hat membership is positively homogeneous.  The constant-Bottom
    element, slope 0, belongs to every extended subdifferential, so 0.0
    is always in ``improper``.
    """

    proper: tuple | None
    improper: frozenset

    def __post_init__(self):
        if 0.0 not in self.improper:
            raise ValueError("the constant Bottom element is always a subgradient")

    def proper_contains(self, a):
        return self.proper is not None and self.proper[0] <= a <= self.proper[1]

    def hat_contains(self, a):
        return float((a > 0) - (a < 0)) in self.improper

    def contains(self, xi):
        if not isinstance(xi, DualElem):
            raise TypeError("contains expects a DualElem")
        if xi.is_hat:
            return self.hat_contains(xi.a)
        return self.proper_contains(xi.a)


def subdiff_extended(g, x0):
    """All extended subgradients of g at x0.

    At a Top point only the constant Bottom element remains.  At a
    Bottom point of an improper function there are no proper
    subgradients, and a nonzero hat belongs iff its favorable halfline
    anchored at x0 covers the whole domain.  At a finite point the
    proper part is the interval between the one-sided slopes (opening
    to infinity at a bounded domain end), with the same halfline rule
    for the hats.  A non-convex g is rejected, as in :func:`dirderiv`:
    its one-sided slopes do not bound its subgradients.
    """
    if not isinstance(g, UpFunction):
        raise TypeError(f"not an up-space function: {type(g).__name__}")
    x0 = _require_finite(x0, "x0")
    if not g.is_convex():
        raise ValueError("subdifferential requires a convex function")
    v0 = g.eval(x0)
    if v0.is_top:
        return SubdiffDescription(proper=None, improper=frozenset({0.0}))
    d, imp = g.dom(), {0.0}
    if _support(1.0, d) <= x0:
        imp.add(1.0)
    if _support(-1.0, d) <= -x0:
        imp.add(-1.0)
    if v0.is_bottom:
        return SubdiffDescription(proper=None, improper=frozenset(imp))
    sb, sa = g.slope_before(x0), g.slope_after(x0)
    proper = (-INF if sb is None else sb, INF if sa is None else sa)
    return SubdiffDescription(proper=proper, improper=frozenset(imp))


def is_subgradient(g, x0, xi):
    """The definitional subgradient test: xi(x - x0) below g(x) up-minus g(x0).

    Evaluated in closed form: a proper slope a works iff the affine
    function through (x0, g(x0)) with slope a stays below g, which is
    the conjugate inequality sup(a*x - g(x)) <= a*x0 - g(x0).  The sup
    is :func:`_sup_linear_minus`, which bisects on the chord slopes of a
    convex g (a non-convex g is rejected here), so a call costs
    O(log k).

    A hat is a member iff :func:`subdiff_extended` lists its canonical
    slope, so the hat rule is written once, there; the grid oracles in
    the tests check it against the definition.
    """
    if not isinstance(g, UpFunction):
        raise TypeError(f"not an up-space function: {type(g).__name__}")
    x0 = _require_finite(x0, "x0")
    if not isinstance(xi, DualElem):
        raise TypeError("is_subgradient expects a DualElem")
    if not g.is_convex():
        raise ValueError("subgradient test requires a convex function")
    if xi.is_hat:
        return subdiff_extended(g, x0).hat_contains(xi.a)
    v0 = g.eval(x0)
    if not v0.is_finite:
        return False
    return _sup_linear_minus(g, xi.a) <= xi.a * x0 - v0.value


# ---------------------------------------------------------------------------
# The exact piecewise-linear Legendre transform.
# ---------------------------------------------------------------------------


def _sup_linear_minus(g, a):
    """sup over x of a*x - g(x), as a float in [-inf, +inf].

    Three functions read it: ``conjugate`` (every single conjugate value
    at a proper element), ``minorant_conditions`` through ``conjugate``,
    and ``is_subgradient``.

    For a piecewise-linear proper function the sup is +inf exactly when
    a falls outside the slope window of the infinite rays, and otherwise
    is attained at a breakpoint.  Functions with a Bottom point push the
    sup to +inf; the empty-domain function leaves it at -inf.

    Along the breakpoints a*x - v rises across a chord of slope s < a
    and falls across one with s > a.  On a convex g the chord slopes
    strictly increase as computed (``PLProper`` prunes every slope change
    within COLLINEAR_TOL; an affine g has one breakpoint), so the sup
    sits at the first breakpoint m whose chord on to m + 1 has
    (vs[m+1] - vs[m]) / (xs[m+1] - xs[m]) >= a (the last breakpoint if
    there is none), found by bisection on chord slopes computed on the
    fly.  Near a tie the rounded terms of neighbouring breakpoints can
    come out ahead, so the answer is the max of a*x - v over the
    breakpoints within 2 of m, which rounds as the full max does:
    O(log k) per call.  A non-convex g takes the max over every
    breakpoint.
    """
    if isinstance(g, ImproperSplit):
        return -INF if g.dom() is None else INF
    if not isinstance(g, PLProper):
        raise TypeError(f"not an up-space function: {type(g).__name__}")
    lo, hi = g.slope_window()
    if a < lo or a > hi:
        return INF
    xs, vs = g.xs, g.vs
    if not g.is_convex():
        return max(a * x - v for x, v in zip(xs, vs))
    m, top = 0, len(xs) - 1
    while m < top:
        mid = (m + top) // 2
        if (vs[mid + 1] - vs[mid]) / (xs[mid + 1] - xs[mid]) < a:
            m = mid + 1
        else:
            top = mid
    w = slice(max(m - 2, 0), m + 3)
    return max(a * x - v for x, v in zip(xs[w], vs[w]))


def _pl_legendre(f):
    """Transform of a PLProper f: w -> sup_u (w*u - f(u)), exactly, computed once per f.

    The one entry to the transform, memoized on f: the first call
    stores a ``weakref.ref`` to the curve in ``f._conjugate``, and later
    calls return that same curve while anyone still holds it, and
    compute it again otherwise.  The transform is pure and f's fields
    are never mutated, so a stored curve stays f's transform.  Held
    weakly, the memo never keeps alive a curve its caller dropped.

    The Fenchel-Moreau round trip ``conjugate_curve(f)``,
    ``biconjugate(f)``, ``subdiff_conjugate_check(closure_hull(f), x0)``
    with the first curve held then runs two transforms for a convex f
    (f's and its curve's; the hull of a convex f is f itself) and three
    for a non-convex one, where it ran four.  On the bench's pl-large
    workload (seed 5, 2 vCPU, 10 paired 30 s runs) that raised
    ``roundtrip_per_s`` by 23 %, from 3,030 to 3,740.
    """
    ref = f._conjugate
    curve = None if ref is None else ref()
    if curve is None:
        curve = _legendre(f)
        f._conjugate = weakref.ref(curve)
    return curve


def _legendre(f):
    """The transform behind :func:`_pl_legendre`, computed from f's fields.

    The result is Top outside ``f.slope_window()`` and inside it is the
    upper envelope of the lines w -> x_i*w - v_i, one per breakpoint.
    The lines that ever win are the vertices of the lower convex hull of
    the breakpoints, and two neighbours (x0, v0), (x1, v1) cross at their
    chord slope s = (v1 - v0) / (x1 - x0) with value x0*s - v0; the end
    lines give the end slopes.  An empty window, which only a non-convex
    f can produce, means the transform is Top everywhere.  A convex f is
    its own lower hull; only a non-convex f runs the hull stack.

    From ARRAY_MIN_K breakpoints on, a convex f's transform is computed
    on float64 arrays and handed to the constructor as arrays.  At
    k = 10^5 (2 vCPU, best of 7) ``conjugate_curve`` takes 11 ms and
    ``biconjugate`` 23 ms on that route.
    """
    w_lo, w_hi = f.slope_window()
    if w_lo > w_hi:
        return ConstTop()
    if f.is_convex() and len(f.xs) >= ARRAY_MIN_K:
        # every breakpoint is a hull vertex; x*w - v rounds twice, as below,
        # and an overflow reaches the constructor as inf, as below
        x, v, ws = _chords(f.xs, f.vs)
        with np.errstate(over="ignore", invalid="ignore"):
            vs = x[:-1] * ws - v[:-1]
        return PLProper(ws, vs, f.xs[0], f.xs[-1], w_lo, w_hi)
    xs, vs, ws = (f.xs, f.vs, f.segment_slopes()) if f.is_convex() else _lower_hull(f.xs, f.vs)
    if not ws:
        return PLProper([0.0], [-vs[0]], xs[0], xs[0], w_lo, w_hi)
    return PLProper(ws, [x * w - v for x, v, w in zip(xs, vs, ws)], xs[0], xs[-1], w_lo, w_hi)


def _support(a, interval):
    """sup of a*x over the interval (-inf if it is empty): the hat rule's one formula.

    The hat of slope a and offset r, Bottom where a*x - r <= 0, lies
    below a function with domain I iff _support(a, I) <= r.
    """
    if interval is None:
        return -INF
    lo, hi = interval
    if a > 0:
        return a * hi
    if a < 0:
        return a * lo
    return 0.0


# ---------------------------------------------------------------------------
# Conjugation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugateCurve:
    """The conjugate of one function as a curve over the proper slopes.

    ``curve`` is the slope-variable function a -> conjugate at (a, 0),
    stored in the up representation; the conjugate at (a, r) is
    ``idif(curve.eval(a), UpReal(r))`` read in the down space.  Single
    values, hats included, come from :func:`conjugate`.
    """

    curve: UpFunction


def conjugate_curve(g):
    """The conjugate of g over the proper slopes, as a ConjugateCurve.

    The proper-slope curve is the exact transform for piecewise-linear
    g (identically Bottom for the empty function, identically Top as
    soon as g takes the value Bottom somewhere; also Top everywhere for
    a non-convex g without affine minorants, which matches the rule
    that conjugation sees only the closed convex hull).

    The curve of a ``PLProper`` is computed once per function
    (:func:`_pl_legendre`): while a caller holds it, a later call on the
    same g returns the same curve object, at the cost of one weak
    reference lookup; ``biconjugate`` and ``subdiff_conjugate_check``
    reuse it that way.  The function holds the curve weakly, so the
    curve lives only as long as its callers keep it.
    """
    if isinstance(g, PLProper):
        curve = _pl_legendre(g)
    elif isinstance(g, ImproperSplit):
        curve = ConstBottom() if g.dom() is None else ConstTop()
    else:
        raise TypeError(f"not an up-space function: {type(g).__name__}")
    return ConjugateCurve(curve=curve)


def conjugate(g, xi, r):
    """The conjugate of g at the affine dual element (xi, r), a DownReal.

    At a hat of slope a it is Bottom exactly when the hat's favorable
    halfline covers dom g (``_support(a, dom g) <= r``), else Top.  At a
    proper slope a it is the residuation sup_x (a*x - g(x)) up-minus r,
    read in the down space.
    """
    if not isinstance(xi, DualElem):
        raise TypeError("conjugate expects a DualElem")
    if not isinstance(g, UpFunction):
        raise TypeError(f"not an up-space function: {type(g).__name__}")
    r = _require_finite(r, "r")
    if xi.is_hat:
        if _support(xi.a, g.dom()) <= r:
            return DownReal.bottom()
        return DownReal.top()
    return as_down(idif(UpReal(_sup_linear_minus(g, xi.a)), UpReal(r)))


def young_fenchel_check(g, xi, r, x):
    """Evaluate the three equivalent forms of the pairing inequality at x.

    Returns (a, b, c): the difference form, the sum form, and the
    conjugate-shifted form.  All three are theorems, so callers expect
    (True, True, True) for every input.
    """
    x = _require_finite(x, "x")
    star = conjugate(g, xi, r)
    val = affine_eval(xi, r, x)
    gx = g.eval(x)
    a_holds = as_down(idif(val, gx)) <= star
    b_holds = val <= isum(gx, as_up(star))
    c_holds = idif(val, as_up(star)) <= gx
    return (a_holds, b_holds, c_holds)


# ---------------------------------------------------------------------------
# Affine minorant conditions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinorantReport:
    """The affine-minorant conditions for (xi, r), read off one conjugate value.

    (a) the pointwise inequality; (b) sup of the up-differences
    xi_r(x) up-minus g(x), which is the conjugate c itself; (d) inf of
    the reversed down-differences, 0 down-minus c.  For a hat that is a
    minorant the sup collapses to Bottom and the inf to Top.  All three
    come from the one value c, so they agree by construction; the
    independent checks are brute-force scans of the definition.
    """

    a_pointwise: bool
    sup_dif: UpReal
    inf_dif: DownReal

    @property
    def all_agree(self):
        """Whether (a), (b) and (d) read the same; true by construction."""
        return self.a_pointwise == (self.sup_dif <= UpReal(0.0)) == (self.inf_dif >= DownReal(0.0))


def minorant_conditions(g, xi, r):
    """Evaluate the affine-minorant conditions for xi_r against g."""
    c = conjugate(g, xi, r)
    sup_dif = as_up(c)
    return MinorantReport(
        a_pointwise=sup_dif <= UpReal(0.0),
        sup_dif=sup_dif,
        inf_dif=sdif(DownReal(0.0), c),
    )


def hat_minorant_witness(g):
    """A hat minorant (xi, r) with nonzero slope for a never-finite g above Bottom.

    Any closed convex function taking only infinite values, other than
    the constant Bottom, has an interval domain missing at least one
    halfline, and the hat cutting along that halfline lies below g
    everywhere.
    """
    if isinstance(g, ImproperSplit) and g.dom() != (-INF, INF):
        d = g.dom()
        if d is None:
            return DualElem.hat(1.0), 0.0
        if d[1] < INF:
            return DualElem.hat(1.0), d[1]
        return DualElem.hat(-1.0), -d[0]
    raise ValueError(
        "witness exists for functions taking only infinite values with a proper domain"
    )


# ---------------------------------------------------------------------------
# Infimal convolution.
# ---------------------------------------------------------------------------


def _epigraph_sum(f, g):
    """The PLProper with epigraph epi f + epi g, or ConstBottom if that has no floor.

    The sum of two convex epigraphs has affine minorants with the slopes
    in [L, R]: L is the largest left ray slope and R the smallest right
    ray slope (-inf and +inf when both operands are bounded on that
    side).  Its left ray ends at the sum of the operands' rightmost
    points of support for slope L, and its graph then runs through the
    operands' chords with slopes below R in increasing slope order, one
    operand advancing per vertex.  No such slope (L > R) means the sum
    contains whole vertical lines, so the convolution is Bottom.

    The chords taken are those with L < slope < R, f's before g's on
    equal slopes.  Below ARRAY_MIN_K breakpoints in all, a two-pointer
    walk takes them.  From there on, each chord's place in the merged
    order is its index in its own list plus ``searchsorted``'s count of
    the other list's chords before it, and the vertices are gathered as
    float64 sums, the walk's additions, and handed to the constructor
    as arrays.  Timed with the constructor of the result, on convex
    random-slope operands of equal size (2 vCPU, best of 200), this route
    is 0.7x the walk's speed at 64 breakpoints in all, 1.3x at 128 and
    1.5-2.8x from 256 to 2 * 10^5, where it takes 32 ms.
    """
    lo, hi = f.dom_lo + g.dom_lo, f.dom_hi + g.dom_hi
    (fl, fr), (gl, gr) = f.slope_window(), g.slope_window()
    L, R = max(fl, gl), min(fr, gr)
    if L > R:
        return ConstBottom()
    xf, vf, xg, vg = f.xs, f.vs, g.xs, g.vs
    if len(xf) + len(xg) >= ARRAY_MIN_K:
        (xf, vf, sf), (xg, vg, sg) = _chords(xf, vf), _chords(xg, vg)
        # the chords the walk below takes: L < slope < R (convex operands'
        # chord slopes rise, so searchsorted finds the cuts)
        i, j = np.searchsorted(sf, L, "right"), np.searchsorted(sg, L, "right")
        sf, sg = sf[i : np.searchsorted(sf, R, "left")], sg[j : np.searchsorted(sg, R, "left")]
        # their merged order, an f chord first on ties; the vertices follow it
        from_f = np.zeros(len(sf) + len(sg), dtype=bool)
        from_f[np.arange(len(sf)) + np.searchsorted(sg, sf, "left")] = True
        fi = i + np.concatenate(([0], np.cumsum(from_f)))
        gj = j + np.concatenate(([0], np.cumsum(~from_f)))
        with np.errstate(over="ignore"):
            xs, vs = xf[fi] + xg[gj], vf[fi] + vg[gj]
    else:
        # a +inf sentinel stands for "no chord left" at each operand's last
        # vertex; the walk advances the flatter next chord while it is
        # flatter than R
        sf, sg = f.segment_slopes() + [INF], g.segment_slopes() + [INF]
        i = next(k for k, s in enumerate(sf) if s > L)
        j = next(k for k, s in enumerate(sg) if s > L)
        xs, vs = [xf[i] + xg[j]], [vf[i] + vg[j]]
        while True:
            if sf[i] <= sg[j]:
                if sf[i] >= R:
                    break
                i += 1
            else:
                if sg[j] >= R:
                    break
                j += 1
            xs.append(xf[i] + xg[j])
            vs.append(vf[i] + vg[j])
    return PLProper(xs, vs, L if lo == -INF else None, R if hi == INF else None, lo, hi)


def infconv(f, g):
    """Infimal convolution inf over splits x1 + x2 = x of f(x1) up-plus g(x2).

    ConstTop absorbs (an empty operand empties the result).  Otherwise
    a never-finite operand makes the result Bottom on dom f + dom g and
    Top off it: a Bottom value at x1 reaches every x1 + x2 with x2 in
    the other domain, and no further.  Two proper piecewise-linear
    operands convolve exactly through their epigraphs: the epigraph of
    the result is epi f + epi g, whose graph merges the two edge lists
    by slope (:func:`_epigraph_sum`: a walk for small operands, a
    ``searchsorted`` merge for large ones), and which is Bottom everywhere
    when no line lies below both operands' rays.
    """
    for h in (f, g):
        if not isinstance(h, UpFunction):
            raise TypeError("infconv expects up-space functions")
        if not h.is_convex():
            raise ValueError("infconv requires convex operands")
    if isinstance(f, PLProper) and isinstance(g, PLProper):
        return _epigraph_sum(f, g)
    df, dg = f.dom(), g.dom()
    if df is None or dg is None:
        return ConstTop()
    # a left end is never +inf nor a right end -inf, so the sums are defined
    return improper_split(df[0] + dg[0], df[1] + dg[1])


@dataclass(frozen=True)
class EqualityReport:
    lhs: DownReal
    rhs: DownReal
    equal: bool


def infconv_conjugate_check(f, g, xi, r):
    """Both routes to the conjugate of a convolution, with equality flag.

    The left side convolves first and conjugates after.  The right side
    is the split formula: for a proper element the two conjugates at
    offset 0 down-added with -r; for a hat, the split succeeds (value
    Top) exactly when some offset split r1 + r2 = r leaves both domain
    inclusions broken, which reduces to comparing r against the
    down-sum of the two support thresholds.  ``equal`` allows finite
    sides to differ by ``INFCONV_CONJ_TOL`` relative to their size
    (absolute below 1).
    """
    if not isinstance(xi, DualElem):
        raise TypeError("infconv_conjugate_check expects a DualElem")
    r = _require_finite(r, "r")
    lhs = conjugate(infconv(f, g), xi, r)
    if xi.is_hat:
        s = ssum(DownReal(_support(xi.a, f.dom())), DownReal(_support(xi.a, g.dom())))
        rhs = DownReal.bottom() if s <= DownReal(r) else DownReal.top()
    else:
        rhs = ssum(
            ssum(conjugate(f, xi, 0.0), conjugate(g, xi, 0.0)), DownReal(-r)
        )
    return EqualityReport(lhs=lhs, rhs=rhs, equal=_close(lhs.v, rhs.v, INFCONV_CONJ_TOL))


# ---------------------------------------------------------------------------
# Biconjugation.
# ---------------------------------------------------------------------------


def biconjugate(g):
    """The double conjugate, equal to the closed convex hull of g.

    The proper dual elements contribute the double transform of the
    conjugate curve; offsets cancel, so only the slope curve matters.
    The hats contribute Top outside the closed domain interval and
    Bottom on it, which only surfaces when the proper contribution is
    identically Bottom (no affine minorant).

    Both transforms go through :func:`_pl_legendre`'s memo, a weak
    reference on each function, so after a ``conjugate_curve(g)`` that
    the caller still holds only the second one runs: at k = 10^5
    (convex random-slope data, 2 vCPU, best of 7) 11-12 ms instead of
    22-25 ms.  The output is the same, bit for bit, either way.
    """
    cc = conjugate_curve(g)
    if isinstance(cc.curve, PLProper):
        return _pl_legendre(cc.curve)
    # g is empty or has no proper affine minorant: only the hat branch remains
    d = g.dom()
    if d is None:
        return ConstTop()
    return improper_split(d[0], d[1])


# ---------------------------------------------------------------------------
# Subdifferential vs conjugate characterization.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubdiffConjReport:
    """Membership comparison between the subdifferential description and
    the conjugate inequality, probed over a slope family."""

    x0_in_dom: bool
    probes: tuple
    agree: bool


def _probe_slopes(g):
    if isinstance(g, PLProper):
        s = sorted(set(g.all_slopes()))
        probes = set(s) | {0.0}
        if s:
            probes |= {s[0] - 0.5, s[-1] + 0.5}
            probes |= {(u + v) / 2 for u, v in zip(s, s[1:])}
        return sorted(probes)
    return [-1.0, -0.5, 0.0, 0.5, 1.0]


def subdiff_conjugate_check(g, x0):
    """Check that subgradient membership matches the conjugate inequality.

    At x0 in the domain, a proper slope a belongs to the extended
    subdifferential iff the conjugate at (a, a*x0) up-added with g(x0)
    stays below 0.  The rows probe proper slopes only, because there the
    two routes are derived differently: one reads the one-sided slopes,
    the other evaluates the transform.  For a hat both routes come down
    to the same :func:`_support` comparison, so a hat row could never
    disagree; hat membership is checked against the definition by the
    grid tests instead.  Outside the domain the description must
    collapse to the constant Bottom element alone.  A row is
    (``"proper:" + repr(a)``, via subdifferential, via conjugate).
    """
    x0 = _require_finite(x0, "x0")
    sd = subdiff_extended(g, x0)
    v0 = g.eval(x0)
    if v0.is_top:
        ok = sd.proper is None and sd.improper == frozenset({0.0})
        return SubdiffConjReport(x0_in_dom=False, probes=(), agree=ok)
    curve = conjugate_curve(g).curve
    rows = []
    for a in _probe_slopes(g):
        via_sd = sd.proper_contains(a)
        lhs = isum(idif(curve.eval(a), UpReal(a * x0)), v0)
        rows.append((f"proper:{a!r}", via_sd, lhs <= UpReal(0.0)))
    agree = all(b == c for _, b, c in rows)
    return SubdiffConjReport(x0_in_dom=True, probes=tuple(rows), agree=agree)
