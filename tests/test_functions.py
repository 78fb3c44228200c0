"""Tests for the function representations and the dual pairing laws.

Independent routes used as oracles:

* convexity: the structural slope test is compared against the
  definitional chord inequality evaluated on targeted probes around
  every breakpoint (sized to stay inside the adjacent segments, so a
  slope descent is always caught) plus a random triple sample;
* closure_hull: the geometric hull construction is compared against a
  sup-of-affine-minorants oracle that enumerates candidate slopes (all
  pairwise breakpoint chords plus the clipped window ends);
* split laws: the closed-form candidate splits are compared against
  direct affine evaluation at the combined point.
"""

import math
import operator
import re
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import infsup.calculus as calculus
import infsup.extreal as xr
import infsup.functions as functions
from infsup.extreal import UpReal
from infsup.calculus import biconjugate, dirderiv, infconv, is_subgradient, subdiff_conjugate_check
from infsup.functions import (
    COLLINEAR_TOL,
    ConstBottom,
    ConstTop,
    DualElem,
    ImproperSplit,
    PLProper,
    affine_eval,
    affine_split_dif,
    affine_split_sup,
    closure_hull,
    dual_add,
    dual_scale,
    fn_allclose,
    improper_split,
    pl,
)
from infsup.laws import (
    random_closed_convex_fn,
    random_convex_pl,
    random_improper_split,
    random_nonconvex_pl,
    random_pl,
)
from test_size_rule import _single_inputs

INF = math.inf
up = UpReal


def abs_fn():
    """|x|, the workhorse example."""
    return pl([(0.0, 0.0)], slope_left=-1.0, slope_right=1.0)


TOP = UpReal.top()
BOT = UpReal.bottom()

dyadic = st.integers(-40, 40).map(lambda k: k / 4.0)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_abs_eval_frozen():
    f = abs_fn()
    assert f.eval(-2.0) == up(2.0)
    assert f.eval(0.0) == up(0.0)
    assert f.eval(1.5) == up(1.5)


def test_pl_eval_interpolation_and_rays():
    f = pl([(0.0, 0.0), (1.0, 1.0)], slope_left=-2.0, slope_right=3.0)
    assert f.eval(0.5) == up(0.5)
    assert f.eval(-1.0) == up(2.0)
    assert f.eval(2.0) == up(4.0)


def test_pl_eval_outside_dom_is_top():
    f = pl([(0.0, 0.0)], slope_right=1.0, dom_lo=0.0, dom_hi=2.0)
    assert f.eval(-0.5) == TOP
    assert f.eval(0.0) == up(0.0)
    assert f.eval(2.0) == up(2.0)  # boundary value attained
    assert f.eval(2.5) == TOP


def test_improper_split_eval():
    f = improper_split(0.0, INF)
    assert f.eval(-1.0) == TOP
    assert f.eval(0.0) == BOT
    assert f.eval(5.0) == BOT


def test_const_eval():
    assert ConstBottom().eval(7.25) == BOT
    assert ConstTop().eval(-3.0) == TOP


def test_eval_rejects_nonfinite_points():
    for f in (abs_fn(), improper_split(0.0, 1.0), ConstTop(), ConstBottom()):
        with pytest.raises(ValueError):
            f.eval(INF)
        with pytest.raises(ValueError):
            f.eval(math.nan)


# ---------------------------------------------------------------------------
# Construction and canonicalization
# ---------------------------------------------------------------------------


def test_make_folds_bounded_domain_into_breakpoints():
    f = pl([(0.0, 0.0)], slope_left=-1.0, slope_right=1.0, dom_lo=-2.0, dom_hi=3.0)
    assert f.xs == [-2.0, 0.0, 3.0]
    assert f.vs == [2.0, 0.0, 3.0]
    assert f.slope_left is None and f.slope_right is None
    assert f.dom() == (-2.0, 3.0)


def test_make_removes_collinear_breakpoints():
    f = pl(
        [(-1.0, 1.0), (0.0, 0.0), (1.0, 1.0), (2.0, 2.0)],
        slope_left=-1.0,
        slope_right=1.0,
    )
    assert fn_allclose(f, abs_fn(), tol=0.0)


def test_allclose_tolerance_is_relative_above_one():
    f = pl([(1e6, 2e7)], slope_left=1.0, slope_right=3.0)
    assert fn_allclose(f, pl([(1e6 + 1e-4, 2e7 - 1e-3)], slope_left=1.0, slope_right=3.0), tol=1e-9)
    assert not fn_allclose(f, pl([(1e6 + 1e-2, 2e7)], slope_left=1.0, slope_right=3.0), tol=1e-9)
    g = pl([(0.0, 0.0)], slope_left=-1.0, slope_right=1.0)
    assert not fn_allclose(g, pl([(0.0, 2e-9)], slope_left=-1.0, slope_right=1.0), tol=1e-9)
    assert not fn_allclose(f, pl([(1e6, math.nextafter(2e7, 0.0))], slope_left=1.0, slope_right=3.0), tol=0.0)


def test_make_point_domain():
    f = pl([(0.0, 5.0), (1.0, 6.0)], dom_lo=0.5, dom_hi=0.5)
    assert f.xs == [0.5] and f.vs == [5.5]
    assert f.eval(0.5) == up(5.5)
    assert f.eval(0.6) == TOP


def test_make_keeps_value_at_bound_on_a_breakpoint():
    # a finite bound on a raw breakpoint takes that breakpoint's value,
    # not the left chord re-evaluated there (0.7000000000000001)
    f = PLProper.make([(0.0, 0.0), (0.3, 0.7), (5.0, 0.0)], slope_right=1.0, dom_lo=0.3)
    assert f.xs[0] == 0.3 and f.vs[0] == 0.7


def _restart_prune(xs, vs, sl, sr):
    """Collinear pruning as a scan that restarts after every deletion.

    The quadratic reference for the one-pass stack in ``make``: both
    compare the same two chord slopes against COLLINEAR_TOL, so their
    outputs must agree bit for bit.
    """
    xs, vs = list(xs), list(vs)
    changed = True
    while changed and len(xs) >= 2:
        changed = False
        for i in range(1, len(xs) - 1):
            s0 = (vs[i] - vs[i - 1]) / (xs[i] - xs[i - 1])
            s1 = (vs[i + 1] - vs[i]) / (xs[i + 1] - xs[i])
            if abs(s0 - s1) <= COLLINEAR_TOL:
                del xs[i], vs[i]
                changed = True
                break
        if changed or len(xs) < 2:
            continue
        if sl is not None:
            s1 = (vs[1] - vs[0]) / (xs[1] - xs[0])
            if abs(sl - s1) <= COLLINEAR_TOL:
                del xs[0], vs[0]
                changed = True
                continue
        if sr is not None:
            s0 = (vs[-1] - vs[-2]) / (xs[-1] - xs[-2])
            if abs(sr - s0) <= COLLINEAR_TOL:
                del xs[-1], vs[-1]
                changed = True
    return xs, vs


def _raw_with_collinear_runs(rng, n_parabola, n_tail):
    """A parabola on non-dyadic points, then a collinear tail from its
    last point, with short collinear runs (some nudged by less than
    COLLINEAR_TOL) spliced into the parabola."""
    xs = np.sort(rng.uniform(-10.0, 0.0, size=n_parabola))
    pts = [(x, x * x) for x in np.unique(xs).tolist()]
    out = []
    for a, b in zip(pts, pts[1:]):
        out.append(a)
        if rng.random() < 0.3:
            slope = (b[1] - a[1]) / (b[0] - a[0])
            for t in sorted(rng.uniform(0.0, 1.0, size=int(rng.integers(1, 4))).tolist()):
                x = a[0] + t * (b[0] - a[0])
                if a[0] < x < b[0]:
                    nudge = float(rng.uniform(-4e-13, 4e-13)) * (x - a[0])
                    out.append((x, a[1] + slope * (x - a[0]) + nudge))
    x0, v0 = pts[-1]
    out.append((x0, v0))
    c = 0.75
    out += [(x0 + 0.125 * i, v0 + c * 0.125 * i) for i in range(1, n_tail + 1)]
    return sorted(dict(out).items())


def test_make_prunes_like_the_restart_scan():
    rng = np.random.default_rng(2024)
    cases = 0
    for n_parabola, n_tail in ((3, 40), (30, 5), (60, 200), (200, 60)):
        raw = _raw_with_collinear_runs(rng, n_parabola, n_tail)
        xs = [p[0] for p in raw]
        vs = [p[1] for p in raw]
        first_chord = (vs[1] - vs[0]) / (xs[1] - xs[0])
        # the left ray either continues the first chord (so that end
        # breakpoint goes too) or bends away from it; the right ray
        # continues the collinear tail
        for sl in (first_chord, first_chord - 1.3):
            for left_bounded in (False, True):
                for right_bounded in (False, True):
                    args = (
                        None if left_bounded else sl,
                        None if right_bounded else 0.75,
                        xs[0] if left_bounded else -INF,
                        xs[-1] if right_bounded else INF,
                    )
                    f = PLProper.make(raw, *args)
                    want = _restart_prune(xs, vs, args[0], args[1])
                    assert (f.xs, f.vs) == want, (n_parabola, n_tail, args)
                    assert len(f.xs) >= 2
                    cases += 1
    assert cases == 32


def test_affine_function_has_one_form():
    # x -> x given through different points is one function, and its
    # biconjugate (built by the transform at x = 0) is its hull
    f = pl([(2.0, 2.0)], 1.0, 1.0)
    assert f == pl([(0.0, 0.0)], 1.0, 1.0)
    assert f == pl([(-3.5, -3.5), (1.0, 1.0), (7.25, 7.25)], 1.0, 1.0)
    assert biconjugate(f) == closure_hull(f)
    g = pl([(0.3, 1.7)], -0.4, -0.4)
    assert g.xs == [0.0] and g.vs == [1.7 + 0.4 * 0.3]
    assert g.eval(0.3).value == pytest.approx(1.7, rel=1e-15)


def _reference_slopes(f, x):
    """(slope before x, slope after x) by a linear scan over the pieces."""
    pieces = list(zip(f.xs, f.xs[1:], f.segment_slopes()))
    if f.slope_left is not None:
        pieces.insert(0, (-INF, f.xs[0], f.slope_left))
    if f.slope_right is not None:
        pieces.append((f.xs[-1], INF, f.slope_right))
    before = next((s for a, b, s in pieces if a < x <= b), None)
    after = next((s for a, b, s in pieces if a <= x < b), None)
    return before, after


def _float_pl(xs, vs, left_bounded, right_bounded, slope_left=-1.7, slope_right=0.9):
    return PLProper(
        xs,
        vs,
        slope_left=None if left_bounded else slope_left,
        slope_right=None if right_bounded else slope_right,
        dom_lo=xs[0] if left_bounded else -INF,
        dom_hi=xs[-1] if right_bounded else INF,
    )


def _slope_probes(f):
    """Every breakpoint and midpoint, and points just inside and outside each end."""
    xs = f.xs
    pts = set(xs) | {(a + b) / 2 for a, b in zip(xs, xs[1:])}
    for e in (xs[0], xs[-1]):
        pts |= {math.nextafter(e, -INF), math.nextafter(e, INF), e - 1.0, e + 1.0}
    return sorted(pts)


def test_one_sided_slopes_match_segment_slopes():
    rng = np.random.default_rng(77)
    fns = []
    for left_bounded in (False, True):
        for right_bounded in (False, True):
            fns.append(_float_pl([-2.7, -0.3, 0.1, 1.9, 3.3], [1.1, -0.7, 0.45, 2.2, -1.3],
                                 left_bounded, right_bounded))
            fns.append(_float_pl([0.3], [1.1], left_bounded, right_bounded))
    for _ in range(40):
        k = int(rng.integers(1, 7))
        xs = sorted(set(rng.uniform(-10.0, 10.0, size=k).tolist()))
        vs = rng.uniform(-10.0, 10.0, size=len(xs)).tolist()
        sl, sr = rng.uniform(-5.0, 5.0, size=2).tolist()
        fns.append(_float_pl(xs, vs, rng.random() < 0.5, rng.random() < 0.5, sl, sr))
    for f in fns:
        for x in _slope_probes(f):
            assert (f.slope_before(x), f.slope_after(x)) == _reference_slopes(f, x), (f, x)


def test_one_sided_slopes_reject_non_finite_points():
    # an infinite or nan x0 is no point of the line, so it has no ray slope
    f = pl([(0, 0), (1, 1)], slope_left=-1, slope_right=2)
    for x0 in (math.nan, INF, -INF):
        for query in (f.slope_before, f.slope_after):
            with pytest.raises(ValueError, match="x0 must be finite"):
                query(x0)


def test_constructor_rejects_bad_data():
    for xs, vs in (([], []), ([0.0, 1.0], [0.0])):
        with pytest.raises(ValueError, match="equally many"):
            PLProper(xs, vs, slope_left=0.0, slope_right=0.0)
    with pytest.raises(ValueError, match="needs slope_right"):
        PLProper([0.0], [1.0], slope_left=0.0)
    with pytest.raises(ValueError):
        PLProper([0.0, 0.0], [1.0, 2.0], slope_left=0.0, slope_right=0.0)
    with pytest.raises(ValueError, match="needs slope_left"):
        PLProper([0.0], [1.0], slope_right=0.0, dom_lo=-1.0)  # the fold below dom_lo needs slope_left
    with pytest.raises(ValueError):
        PLProper([0.0], [1.0], slope_left=0.0, dom_hi=2.0)
    with pytest.raises(ValueError):
        PLProper([0.0], [1.0], slope_right=1.0)  # missing slope_left
    with pytest.raises(ValueError):
        PLProper([0.0], [math.nan], slope_left=0.0, slope_right=0.0)
    with pytest.raises(ValueError, match=r"breakpoint x\[2\] must be finite, got inf"):
        PLProper([0.0, 1.0, INF, 3.0], [0.0, 1.0, 2.0, 3.0], slope_left=0.0, slope_right=0.0)
    with pytest.raises(ValueError, match=r"breakpoint value v\[1\] must be finite, got nan"):
        PLProper([0.0, 1.0, 2.0], [0.0, math.nan, 2.0], slope_left=0.0, slope_right=0.0)
    with pytest.raises(ValueError, match="slope_right must be finite"):
        PLProper([0.0], [1.0], slope_left=0.0, slope_right=INF)
    for lo, hi in ((2.0, 1.0), (math.nan, 1.0), (INF, INF), (-INF, -INF)):
        with pytest.raises(ValueError, match="empty domain"):
            PLProper([0.0], [1.0], slope_left=0.0, slope_right=0.0, dom_lo=lo, dom_hi=hi)
    with pytest.raises(ValueError, match="value at dom_lo must be finite"):
        PLProper([0.0], [1.0], slope_left=1e300, slope_right=0.0, dom_lo=-1e300)
    with pytest.raises(ValueError):
        pl([(0.0, 0.0)], slope_left=0.0, slope_right=0.0, dom_lo=2.0, dom_hi=1.0)
    with pytest.raises(ValueError):
        pl([(0.0, 0.0)], slope_right=1.0, dom_lo=-1.0)  # fold needs slope_left


def test_constructor_folds_a_bound_below_the_first_breakpoint():
    # a slope on a bounded side extends the data to the bound and is then dropped
    f = PLProper([0.0], [1.0], slope_left=0.0, slope_right=0.0, dom_lo=-1.0)
    assert _stored_bits(f) == _stored_bits(PLProper([-1.0], [1.0], slope_right=0.0, dom_lo=-1.0))
    g = PLProper([0.0, 2.0], [1.0, 3.0], slope_left=-2.0, slope_right=0.5, dom_lo=-1.0, dom_hi=1.0)
    assert (g.xs, g.vs, g.slope_left, g.slope_right) == ([-1.0, 0.0, 1.0], [3.0, 1.0, 2.0], None, None)


def test_a_breakpoint_span_that_overflows_is_rejected():
    # each would be read as a flat chord, (2 - 0) / inf = 0, and evaluate wrongly
    big = 1e308
    message = re.escape(f"the chord from breakpoint x = {-big!r} to x = {big!r} spans more than the largest float")
    for args in (
        ([-big, big], [0.0, 2.0], None, None, -big, big),  # f(5e307) would read 0.0, not 1.5
        ([-big, 0.0, big], [0.0, 1.0, 2.0], None, None, -big, big),  # the prune would merge across 0
        ([-big, big], [0.0, 2.0], 0.0, 5.0),  # the end-ray prune would drop x = -1e308
        ([-big, big], [0.0, 2.0], None, 5.0, -big, 0.0),  # clipping would set f(0) = 0.0
        ([-big, big], [0.0, 2.0], None, None, 0.0, big),
    ):
        with pytest.raises(ValueError, match=message):
            PLProper(*args)
    # spans up to the largest float stay, however steep the chords
    f = PLProper([-big, 0.0, big], [0.0, 1e297, 0.0], None, None, -big, big)
    assert f.xs == [-big, 0.0, big] and f.eval(0.0) == UpReal(1e297)


def test_improper_split_factory_canonicalizes():
    assert isinstance(improper_split(3.0, 2.0), ConstTop)
    assert isinstance(improper_split(-INF, INF), ConstBottom)
    assert type(improper_split(2.0, 2.0)) is ImproperSplit
    assert isinstance(improper_split(INF, INF), ConstTop)
    with pytest.raises(ValueError, match="empty interval"):
        ImproperSplit(3.0, 2.0)
    with pytest.raises(ValueError, match="full-line"):
        ImproperSplit(-INF, INF)
    for lo, hi in ((INF, INF), (-INF, -INF)):
        with pytest.raises(ValueError, match="degenerate interval"):
            ImproperSplit(lo, hi)
    for make in (ImproperSplit, improper_split):
        with pytest.raises(ValueError, match="NaN"):
            make(math.nan, 1.0)
        with pytest.raises(ValueError, match="NaN"):
            make(0.0, math.nan)


# ---------------------------------------------------------------------------
# Domain and epigraph
# ---------------------------------------------------------------------------


def test_dom_variants():
    assert abs_fn().dom() == (-INF, INF)
    assert pl([(0.0, 0.0)], slope_right=1.0, dom_lo=0.0).dom() == (0.0, INF)
    assert improper_split(0.0, INF).dom() == (0.0, INF)
    assert ConstTop().dom() is None
    assert ConstBottom().dom() == (-INF, INF)


def test_epi_contains_examples():
    # (x, r) lies in epi f iff f(x) <= r in the up-space order
    f = abs_fn()
    assert f.eval(1.0) <= UpReal(2.0)
    assert f.eval(1.0) <= UpReal(1.0)  # boundary
    assert not f.eval(1.0) <= UpReal(0.5)
    g = improper_split(0.0, INF)
    assert g.eval(3.0) <= UpReal(-100.0)  # Bottom is below everything
    assert not g.eval(-1.0) <= UpReal(100.0)
    assert not ConstTop().eval(0.0) <= UpReal(0.0)


# ---------------------------------------------------------------------------
# Convexity: structural test against the definitional chord inequality
# ---------------------------------------------------------------------------


def chord_holds(f, x1, x2, t, tol=1e-9):
    """f(t*x1 + (1-t)*x2) <= t*f(x1) up-plus (1-t)*f(x2), within tol."""
    lhs = f.eval(t * x1 + (1 - t) * x2)
    rhs = xr.isum(xr.scale(t, f.eval(x1)), xr.scale(1 - t, f.eval(x2)))
    if lhs.is_bottom or rhs.is_top:
        return True
    if lhs.is_top or rhs.is_bottom:
        return False
    return lhs.value <= rhs.value + tol


def joint_probes(f):
    # Midpoint probes around each breakpoint, sized to stay inside the two
    # adjacent segments; any adjacent slope descent is then caught exactly.
    out = []
    if not isinstance(f, PLProper):
        return out
    xs = f.xs
    for i, b in enumerate(xs):
        left_gap = (b - xs[i - 1]) if i > 0 else (1.0 if f.dom_lo == -INF else None)
        right_gap = (
            (xs[i + 1] - b) if i < len(xs) - 1 else (1.0 if f.dom_hi == INF else None)
        )
        if left_gap is None or right_gap is None:
            continue
        h = min(left_gap, right_gap) / 2.0
        out.append((b - h, b + h, 0.5))
    return out


def random_triples(rng, n):
    out = []
    for _ in range(n):
        x1 = float(rng.integers(-48, 49)) / 4.0
        x2 = float(rng.integers(-48, 49)) / 4.0
        t = float(rng.integers(0, 5)) / 4.0
        out.append((x1, x2, t))
    return out


def definitional_convex(f, rng, n_random=16):
    probes = joint_probes(f) + random_triples(rng, n_random)
    return all(chord_holds(f, *tr) for tr in probes)


def test_is_convex_examples():
    assert abs_fn().is_convex()
    assert improper_split(-1.0, 1.0).is_convex()
    assert not pl([(0.0, 0.0)], slope_left=1.0, slope_right=-1.0).is_convex()


def test_convexity_structural_matches_definitional():
    rng = np.random.default_rng(2024)
    fns = [random_pl(rng) for _ in range(45)]
    fns += [random_convex_pl(rng) for _ in range(15)]
    fns += [
        improper_split(-1.0, 1.0),
        improper_split(0.0, INF),
        improper_split(-INF, 3.0),
        ConstTop(),
        ConstBottom(),
        abs_fn(),
    ]
    for f in fns:
        assert f.is_convex() == definitional_convex(f, rng), repr(f)


def test_nonconvex_generator_always_detected():
    rng = np.random.default_rng(99)
    for _ in range(25):
        f = random_nonconvex_pl(rng)
        assert not f.is_convex()
        assert not definitional_convex(f, rng)


def _slope_rule(f):
    """The slope rule, recomputed from all_slopes: no slope falls below the one before by more than COLLINEAR_TOL."""
    s = f.all_slopes()
    return all(map(operator.lt, s, s[1:])) or all(b > a or abs(a - b) <= COLLINEAR_TOL for a, b in zip(s, s[1:]))


def _non_canonical_inputs():
    """Constructor arguments (xs, vs, slope_left, slope_right, dom_lo, dom_hi) that canonicalization changes."""
    xs = [float(i * i) for i in range(60)]
    return [
        ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], 1.0, 1.0, -INF, INF),
        ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0 - 1e-13], 1.0, 1.0, -INF, INF),
        ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0 - 1e-9], 1.0, 1.0, -INF, INF),
        ([0.0, 1.0], [0.0, 0.0], 0.0, 0.0, -INF, INF),
        ([0.3], [0.7], 1.0 + 2.0**-44, 1.0, -INF, INF),  # affine within COLLINEAR_TOL, falling
        ([-0.0], [-0.0], -1.0, -1.0, -INF, INF),
        ([0.0, 1.0, 3.0], [5.0, 4.0, 6.0], None, None, 0.5, 2.0),
        ([0.0, 1.0, 3.0], [5.0, 4.0, 6.0], -1.0, 2.0, -1.0, 4.0),
        ([0.0, 1.0, 3.0], [5.0, 4.0, 6.0], -1.0, 2.0, 1.0, 1.0),
        (xs, [-(2.0**-60) * x * x for x in xs], -1.0, 1.0, -INF, INF),
        (xs, [-(2.0**-30) * x * x for x in xs], -1.0, 1.0, -INF, INF),
    ]


def test_constructor_canonicalizes_like_make():
    # the identity through three collinear points is the identity anchored at 0
    assert PLProper([0, 1, 2], [0, 1, 2], slope_left=1, slope_right=1) == PLProper(
        [0], [0], slope_left=1, slope_right=1
    )
    rng = np.random.default_rng(2030)
    cases = _non_canonical_inputs()
    for _ in range(300):
        k = int(rng.integers(1, 9))
        xs = sorted(set(rng.choice(np.arange(-8.0, 8.5, 0.5), size=k).tolist()))
        vs = (rng.integers(-4, 5) * np.asarray(xs) + rng.integers(-2, 3, size=len(xs)) / 2.0).tolist()
        sl, sr = (float(s) for s in rng.choice([-1.0, 0.0, 0.5, 1.0], size=2))
        lo = float(rng.choice([-INF, xs[0] - 1.0, xs[0], xs[0] + 0.25]))
        hi = float(rng.choice([INF, xs[-1] + 1.0, xs[-1], max(lo, xs[-1] - 0.25)]))
        cases.append((xs, vs, sl, sr, lo, max(lo, hi)))
    for xs, vs, sl, sr, lo, hi in cases:
        f = PLProper(xs, vs, sl, sr, lo, hi)
        g = PLProper.make(list(zip(xs, vs))[::-1], sl, sr, lo, hi)
        assert _stored_bits(f) == _stored_bits(g), (xs, vs, sl, sr, lo, hi)
        again = PLProper(f.xs, f.vs, f.slope_left, f.slope_right, f.dom_lo, f.dom_hi)
        assert _stored_bits(again) == _stored_bits(f), repr(f)


def _convexity_edge_cases():
    """Constructor arguments at the edges of the convexity decision."""
    k = functions.ARRAY_MIN_K + 44
    return [
        ([0.3], [0.7], 1.0, 1.0 + 2.0**-44, -INF, INF),  # affine within COLLINEAR_TOL, rising
        ([0.3], [0.7], 1.0 + 2.0**-44, 1.0, -INF, INF),  # affine within COLLINEAR_TOL, falling
        ([1.0], [2.0], None, None, 1.0, 1.0),  # a single point
        ([0.0], [0.0], -1.0, 1.0, -INF, INF),
        ([0.0], [0.0], 1.0, -1.0, -INF, INF),
        ([0.0], [0.0], None, 1.0, 0.0, INF),  # one breakpoint, bounded on the left
        ([0.0], [0.0], -1.0, None, -INF, 0.0),
        ([0.0, 1.0], [0.0, 1.0], None, 2.0, 0.0, INF),  # one bounded side
        ([0.0, 1.0], [0.0, 1.0], None, 0.5, 0.0, INF),
        ([0.0, 1.0], [0.0, 1.0], -1.0, None, -INF, 1.0),
        ([0.0, 1.0], [0.0, 1.0], 2.0, None, -INF, 1.0),
        # raw collinear input: the end prune trims both ends down to one kink
        ([0.0, 1.0, 2.0, 3.0], [0.0, -1.0, -2.0, 0.0], -1.0, 2.0, -INF, INF),
        # the same past the size rule, where no interior pair is collinear
        (list(range(k)), [i * i for i in range(k)], 1.0, 2.0 * k - 3.0, -INF, INF),
        (list(range(k)), [i * i for i in range(k)], 1.0, 1.0, -INF, INF),
    ]


def _convexity_sample():
    """PLProper instances from the laws generators, the size-rule inputs and the edge cases."""
    rng = np.random.default_rng(2031)
    fns = [random_closed_convex_fn(rng) for _ in range(80)] + [random_pl(rng) for _ in range(80)]
    fns += [random_nonconvex_pl(rng) for _ in range(40)]
    args = _non_canonical_inputs() + _convexity_edge_cases()
    for k in (2, 16, functions.ARRAY_MIN_K, 2000):
        args += _single_inputs(k).values()
    return [f for f in fns if isinstance(f, PLProper)] + [PLProper(*a) for a in args]


def test_cached_convexity_is_the_slope_rule():
    seen = set()
    for f in _convexity_sample():
        want = _slope_rule(f)
        assert f.is_convex() is want, repr(f)
        # canonical form: a convex function's slopes strictly rise, unless it is affine
        s = f.all_slopes()
        rising = all(a < b for a, b in zip(s, s[1:]))
        if want and not rising:
            assert len(f.xs) == 1 and f.xs == [0.0] and len(s) == 2, repr(f)
        seen.add((want, rising))
    assert seen == {(False, False), (True, True), (True, False)}


def test_convex_functions_are_their_own_lower_hull():
    n_convex = 0
    for f in _convexity_sample():
        if not f.is_convex():
            continue
        n_convex += 1
        # the hull stack, which convex input skips, would return it whole
        assert functions._lower_hull(f.xs, f.vs) == (f.xs, f.vs, f.segment_slopes()), repr(f)
        lo, hi = f.slope_window()
        assert closure_hull(f) is f if lo <= hi else isinstance(closure_hull(f), ConstBottom), repr(f)
    assert n_convex > 100
    # an affine pair falling within COLLINEAR_TOL is convex, but admits no affine minorant
    f = PLProper([0.3], [0.7], 1.0 + 2.0**-44, 1.0)
    assert f.is_convex() and isinstance(closure_hull(f), ConstBottom)


def _query_sample():
    """Small and large functions, convex and not, the last two past the size rule."""
    rng = np.random.default_rng(2032)
    k = functions.ARRAY_MIN_K
    fns = [random_convex_pl(rng), random_nonconvex_pl(rng), *(PLProper(*a) for a in _non_canonical_inputs())]
    return fns + [pl([(i, i * i) for i in range(k)], -1.0, 2.0 * k), pl([(i, i % 2) for i in range(k)], -2.0, 2.0)]


def test_convexity_is_decided_at_construction(monkeypatch):
    rule = [_slope_rule(f) for f in _query_sample()]
    # small convex operands, which merge in the walk (it reads segment_slopes)
    pairs = [(i, j) for i in range(len(rule) - 2) for j in range(len(rule) - 2) if rule[i] and rule[j]]
    assert rule[-2:] == [True, False] and len(pairs) >= 9

    def queries(fns):
        out = [f.is_convex() for f in fns]
        for f in fns:
            x = f.xs[len(f.xs) // 2]
            for q in (lambda: dirderiv(f, x, 1.0), lambda: is_subgradient(f, x, DualElem.proper(0.5))):
                try:
                    out.append(q())
                except ValueError as e:
                    out.append(str(e))
        return out + [infconv(fns[i], fns[j]) for i, j in pairs]

    want = queries(_query_sample())
    assert want[: len(rule)] == rule
    fns = _query_sample()

    def no_pass(*args):
        raise AssertionError("a slope pass after construction")

    monkeypatch.setattr(PLProper, "all_slopes", no_pass)
    for module in (functions, calculus):
        monkeypatch.setattr(module, "_chords", no_pass)
    assert queries(fns) == want


def test_cached_false_still_raises():
    rng = np.random.default_rng(2033)
    g = random_nonconvex_pl(rng)
    for call in (
        lambda: dirderiv(g, 0.0, 1.0),
        lambda: is_subgradient(g, 0.0, DualElem.proper(0.0)),
        lambda: infconv(g, abs_fn()),
        lambda: infconv(abs_fn(), g),
        lambda: subdiff_conjugate_check(g, 0.0),
    ):
        for _ in range(2):
            with pytest.raises(ValueError, match="convex"):
                call()
    assert not g.is_convex()


# ---------------------------------------------------------------------------
# Closed convex hull
# ---------------------------------------------------------------------------


def test_hull_of_double_well():
    f = pl([(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)], slope_left=-1.0, slope_right=1.0)
    h = closure_hull(f)
    expect = pl([(-1.0, 0.0), (1.0, 0.0)], slope_left=-1.0, slope_right=1.0)
    assert fn_allclose(h, expect, tol=0.0)
    assert h.eval(0.0) == up(0.0)


def test_hull_idempotent_on_closed_convex():
    rng = np.random.default_rng(7)
    for _ in range(60):
        f = random_closed_convex_fn(rng)
        assert fn_allclose(closure_hull(f), f, tol=1e-9), repr(f)
    assert isinstance(closure_hull(ConstBottom()), ConstBottom)
    assert isinstance(closure_hull(ConstTop()), ConstTop)


def test_hull_collapses_without_affine_minorant():
    # end slopes descend and the domain is unbounded both ways: any affine
    # candidate is beaten on one of the rays, so the hull is Bottom
    f = pl([(0.0, 0.0)], slope_left=1.0, slope_right=-1.0)
    assert isinstance(closure_hull(f), ConstBottom)


def test_hull_left_clip_frozen():
    f = pl([(0.0, 0.0), (1.0, -5.0)], slope_left=-1.0, slope_right=0.0)
    h = closure_hull(f)
    expect = pl([(1.0, -5.0)], slope_left=-1.0, slope_right=0.0)
    assert fn_allclose(h, expect, tol=0.0)
    assert h.eval(-1.0) == up(-3.0)
    assert h.eval(1.0) == up(-5.0)


def slope_window(f):
    a_lo = f.slope_left if f.dom_lo == -INF else -INF
    a_hi = f.slope_right if f.dom_hi == INF else INF
    return a_lo, a_hi


def oracle_hull_value(f, x):
    # Sup of affine minorants, enumerating candidate slopes.  A minorant's
    # slope must lie in the window set by the infinite rays; within the
    # window the best offset is min over breakpoints of v - a*xx.  On the
    # domain the sup over the whole window is attained at a hull segment
    # slope (a chord between breakpoints) or at a clipped window end, so
    # enumerating those is exact there.
    a_lo, a_hi = slope_window(f)
    if a_lo > a_hi:
        return BOT
    pts = list(zip(f.xs, f.vs))
    cands = set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            s = (pts[j][1] - pts[i][1]) / (pts[j][0] - pts[i][0])
            if a_lo <= s <= a_hi:
                cands.add(s)
    for s in (a_lo, a_hi):
        if math.isfinite(s):
            cands.add(s)
    cands.add(min(max(0.0, a_lo), a_hi))
    best = -INF
    for a in cands:
        b = min(v - a * xx for xx, v in pts)
        best = max(best, a * x + b)
    return up(best)


def hull_probe_points(f):
    xs = list(f.xs)
    out = xs + [(a + b) / 2.0 for a, b in zip(xs, xs[1:])]
    if f.dom_lo == -INF:
        out.append(xs[0] - 7.5)
    if f.dom_hi == INF:
        out.append(xs[-1] + 7.5)
    return out


def test_hull_matches_minorant_enumeration_oracle():
    rng = np.random.default_rng(31)
    fns = [random_nonconvex_pl(rng) for _ in range(40)]
    fns += [random_pl(rng) for _ in range(30)]
    for f in fns:
        h = closure_hull(f)
        a_lo, a_hi = slope_window(f)
        if isinstance(h, ConstBottom):
            assert a_lo > a_hi, repr(f)
            continue
        assert h.is_convex(), repr(f)
        assert h.dom() == f.dom(), repr(f)
        for x in hull_probe_points(f):
            got = h.eval(x)
            want = oracle_hull_value(f, x)
            assert got.is_finite and want.is_finite, repr(f)
            assert abs(got.value - want.value) <= 1e-9, (repr(f), x)
            # the hull never exceeds the function
            assert got <= f.eval(x), (repr(f), x)
        if f.dom_lo > -INF:
            assert h.eval(f.dom_lo - 1.0) == TOP
        if f.dom_hi < INF:
            assert h.eval(f.dom_hi + 1.0) == TOP


# ---------------------------------------------------------------------------
# Dual elements
# ---------------------------------------------------------------------------


def test_dual_add_table():
    assert dual_add(DualElem.proper(2.0), DualElem.proper(3.0)) == DualElem.proper(5.0)
    assert dual_add(DualElem.hat(1.0), DualElem.proper(5.0)) == DualElem.hat(1.0)
    assert dual_add(DualElem.proper(5.0), DualElem.hat(1.0)) == DualElem.hat(1.0)
    two = dual_add(DualElem.hat(1.0), DualElem.hat(1.0))
    assert two == DualElem.hat(2.0)
    assert two != DualElem.hat(1.0)  # an element is its slope, not the slope's sign
    assert dual_add(DualElem.hat(-1.0), DualElem.hat(1.0)) == DualElem.hat(0.0)
    # it adds functionals, not values: hat(0) at offset 0 is Bottom
    # everywhere, the pointwise up-sum of hat(1) and hat(-1) only at 0
    xs = [k / 2.0 for k in range(-6, 7)]
    assert {affine_eval(DualElem.hat(0.0), 0.0, x) for x in xs} == {BOT}
    pointwise = [xr.isum(affine_eval(DualElem.hat(1.0), 0.0, x), affine_eval(DualElem.hat(-1.0), 0.0, x)) for x in xs]
    assert [x for x, v in zip(xs, pointwise) if v == BOT] == [0.0]
    with pytest.raises(TypeError):
        dual_add(DualElem.hat(1.0), 3.0)


def test_dual_scale():
    assert dual_scale(2.0, DualElem.proper(3.0)) == DualElem.proper(6.0)
    assert dual_scale(2.0, DualElem.hat(3.0)) == DualElem.hat(6.0)
    assert dual_scale(0.0, DualElem.hat(3.0)) == DualElem.proper(0.0)
    assert dual_scale(0.0, DualElem.proper(-2.0)) == DualElem.proper(0.0)
    with pytest.raises(ValueError):
        dual_scale(-1.0, DualElem.proper(1.0))
    with pytest.raises(ValueError):
        dual_scale(INF, DualElem.proper(1.0))
    with pytest.raises(TypeError):
        dual_scale(2.0, 3.0)


def test_dual_elem_equality_is_kind_and_slope():
    assert DualElem.hat(2.0) != DualElem.hat(1.0)
    assert DualElem.hat(-3.0) != DualElem.hat(-0.5)
    assert DualElem.hat(1.0) != DualElem.hat(-1.0)
    assert DualElem.hat(2.0) == DualElem.hat(2.0)
    assert hash(DualElem.hat(2.0)) == hash(DualElem.hat(2.0))
    assert DualElem.hat(-0.0) == DualElem.hat(0.0)
    assert hash(DualElem.proper(-0.0)) == hash(DualElem.proper(0.0))
    assert len({DualElem.hat(1.0), DualElem.hat(2.0), DualElem.hat(2.0)}) == 2
    assert DualElem.proper(2.0) != DualElem.proper(3.0)
    assert DualElem.hat(0.0) != DualElem.proper(0.0)
    with pytest.raises(ValueError):
        DualElem("linear", 1.0)
    with pytest.raises(ValueError):
        DualElem.proper(INF)


def test_affine_pairs_equal_as_functions():
    # (hat(t*a), t*r) is the function (hat(a), r) for every t > 0, a hat
    # of slope 0 is constant by the sign of r, and proper pairs that
    # differ differ somewhere on a grid that covers every threshold
    grid = [k / 2.0 for k in range(-12, 13)]

    def values(xi, r):
        return [affine_eval(xi, r, x) for x in grid]

    for a in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0):
        for r in (-5.0, -1.0, 0.0, 1.5, 4.0):
            for t in (0.25, 0.5, 2.0, 3.0, 8.0):
                assert values(DualElem.hat(t * a), t * r) == values(DualElem.hat(a), r), (a, r, t)
    for r in (-5.0, -1.0, 0.0, 3.0):
        assert set(values(DualElem.hat(0.0), r)) == {BOT if r >= 0 else TOP}
    pairs = [(a, r) for a in (-2.0, 0.0, 1.0) for r in (-1.0, 0.0, 1.0)]
    for p in pairs:
        for q in pairs:
            if p != q:
                assert values(DualElem.proper(p[0]), p[1]) != values(DualElem.proper(q[0]), q[1]), (p, q)


def test_affine_eval_rejects_bad_input():
    with pytest.raises(TypeError):
        affine_eval(1.0, 0.0, 0.0)
    for bad in (INF, -INF, math.nan):
        with pytest.raises(ValueError):
            affine_eval(DualElem.proper(1.0), bad, 0.0)
    with pytest.raises(ValueError):
        affine_eval(DualElem.hat(1.0), 0.0, INF)


def test_affine_eval_examples():
    assert affine_eval(DualElem.hat(1.0), 0.0, -1.0) == BOT
    assert affine_eval(DualElem.hat(1.0), 0.0, 0.0) == BOT  # boundary
    assert affine_eval(DualElem.hat(1.0), 0.0, 1.0) == TOP
    assert affine_eval(DualElem.proper(2.0), 1.0, 3.0) == up(5.0)
    assert affine_eval(DualElem.hat(-2.0), 1.0, -0.5) == BOT
    assert affine_eval(DualElem.hat(-2.0), 1.0, -1.0) == TOP


def test_hat_positive_homogeneity_excluding_zero():
    xs = [k / 2.0 for k in range(-8, 9)]
    for a in (-2.0, 1.0, 0.0):
        xi = DualElem.hat(a)
        for t in (0.25, 0.5, 1.0, 2.0, 4.0):
            for x in xs:
                assert affine_eval(xi, 0.0, t * x) == xr.scale(t, affine_eval(xi, 0.0, x))
    # t = 0 fails: 0 * Top is finite 0, but the hat at the origin is Bottom
    xi = DualElem.hat(1.0)
    assert xr.scale(0.0, affine_eval(xi, 0.0, 1.0)) == up(0.0)
    assert affine_eval(xi, 0.0, 0.0) == BOT


def test_hat_sub_and_superadditive_but_not_additive():
    # valid laws: hat(x+y) <= hat(x) up-plus hat(y), and hat(x+y) >=
    # hat(x) down-plus hat(y); additivity itself fails at x = -y != 0
    def val(x):
        return affine_eval(DualElem.hat(1.0), 0.0, x)

    pts = [k / 2.0 for k in range(-6, 7)]
    for x in pts:
        for y in pts:
            v = val(x + y)
            assert v <= xr.isum(val(x), val(y))
            assert v >= xr.as_up(xr.ssum(xr.as_down(val(x)), xr.as_down(val(y))))
    assert val(0.0) == BOT
    assert xr.isum(val(1.0), val(-1.0)) == TOP  # so the up-sum is not additive


# ---------------------------------------------------------------------------
# The split laws for affine duals
# ---------------------------------------------------------------------------


def test_split_sup_frozen_examples():
    assert affine_split_sup(DualElem.proper(2.0), 1.5, 1.0, 2.0) == up(4.5)
    assert affine_split_sup(DualElem.hat(1.0), 0.0, 2.0, -3.0) == BOT
    assert affine_split_sup(DualElem.hat(1.0), 0.0, 1.0, 1.0) == TOP


def test_split_dif_frozen_examples():
    assert affine_split_dif(DualElem.proper(-1.0), 0.5, 2.0, 3.0) == up(0.5)
    assert affine_split_dif(DualElem.hat(1.0), 0.0, 1.0, 2.0) == BOT
    assert affine_split_dif(DualElem.hat(1.0), 0.0, 3.0, 1.0) == TOP


@given(kind=st.sampled_from(["proper", "hat"]), a=dyadic, r=dyadic, x1=dyadic, x2=dyadic)
def test_split_sup_matches_direct_eval(kind, a, r, x1, x2):
    xi = DualElem(kind, a)
    assert affine_split_sup(xi, r, x1, x2) == affine_eval(xi, r, x1 + x2)


@given(kind=st.sampled_from(["proper", "hat"]), a=dyadic, r=dyadic, x1=dyadic, x2=dyadic)
def test_split_dif_matches_direct_eval(kind, a, r, x1, x2):
    xi = DualElem(kind, a)
    assert affine_split_dif(xi, r, x1, x2) == affine_eval(xi, r, x1 - x2)


def test_split_laws_equal_a_brute_force_max_over_splits():
    # Draws are quarters in [-4, 4], so each end of a feasible r1-interval
    # (a*x1, r - a*x2 or r + a*x2) is a multiple of 1/16 within [-20, 20].
    # A nonempty interval between two such ends is at least 1/16 wide, and
    # the grid of multiples of 1/32 hits its inside: (2p + 1)/32 lies
    # strictly between p/16 and (p + 1)/16.  Every value below is exact.
    rng = np.random.default_rng(29)
    r1 = np.arange(-640, 641) / 32.0

    def factor(xi, offsets, x):
        t = xi.a * x - offsets
        return np.where(t <= 0, -INF, INF) if xi.is_hat else t

    tops = 0
    for a, r, x1, x2 in rng.integers(-16, 17, size=(300, 4)) / 4.0:
        for xi in (DualElem.proper(a), DualElem.hat(a)):
            sup = xr.ssum_arr(factor(xi, r1, x1), factor(xi, r - r1, x2)).max()
            dif = xr.idif_arr(factor(xi, r1, x1), factor(xi, -(r - r1), x2)).max()
            assert affine_split_sup(xi, r, x1, x2).value == sup, (xi, r, x1, x2)
            assert affine_split_dif(xi, r, x1, x2).value == dif, (xi, r, x1, x2)
            tops += xi.is_hat and sup == INF
    assert 100 < tops < 500  # both answers occur for hats


def test_function_readers_reject_non_functions():
    with pytest.raises(TypeError, match="not an up-space function"):
        fn_allclose(3.0, abs_fn())
    with pytest.raises(TypeError, match="not an up-space function"):
        fn_allclose(abs_fn(), 3.0)
    with pytest.raises(TypeError, match="not an up-space function"):
        closure_hull(3.0)


def test_split_laws_reject_a_non_dual():
    for law in (affine_split_sup, affine_split_dif):
        with pytest.raises(TypeError, match="need a DualElem"):
            law(2.0, 0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Fixture pathologies
# ---------------------------------------------------------------------------


def test_mixed_addition_pathology():
    # f Bottom on [2, inf), g Bottom on [-1, 1]: their Bottom sets are
    # disjoint, so the up-sum is Top everywhere (empty, hence convex,
    # epigraph) while the down-sum is Bottom on the union and Top in the
    # gaps, making both the epigraph and the hypograph non-convex.
    f = improper_split(2.0, INF)
    g = improper_split(-1.0, 1.0)
    assert f.is_convex() and g.is_convex()

    def up_combo(x):
        return xr.isum(f.eval(x), g.eval(x))

    def down_combo(x):
        return xr.as_up(xr.ssum(xr.as_down(f.eval(x)), xr.as_down(g.eval(x))))

    grid = [k / 4.0 for k in range(-16, 25)]
    assert all(up_combo(x) == TOP for x in grid)

    frozen = {-2.0: TOP, -1.0: BOT, 0.0: BOT, 1.0: BOT, 1.5: TOP, 2.0: BOT, 3.0: BOT}
    for x, v in frozen.items():
        assert down_combo(x) == v, x

    def epi_member(x, r):
        return down_combo(x) <= up(r)

    def hypo_member(x, r):
        return down_combo(x) >= up(r)

    # epigraph: (1,0) and (2,0) are members, their midpoint is not
    assert epi_member(1.0, 0.0) and epi_member(2.0, 0.0)
    assert not epi_member(1.5, 0.0)
    # hypograph: (-2,5) and (1.5,5) are members, their midpoint is not
    assert hypo_member(-2.0, 5.0) and hypo_member(1.5, 5.0)
    assert not hypo_member(-0.25, 5.0)


def test_positive_homogeneity_excludes_zero_fixture():
    g = improper_split(-INF, 0.0)
    xs = [k / 2.0 for k in range(-8, 9)]
    for t in (0.5, 1.0, 2.0, 3.0):
        for x in xs:
            assert g.eval(t * x) == xr.scale(t, g.eval(x))
    for x in xs:
        assert xr.scale(0.0, g.eval(x)) == up(0.0)
    assert g.eval(0.0) == BOT  # so homogeneity genuinely stops at t = 0


# ---------------------------------------------------------------------------
# Equality plumbing and generators
# ---------------------------------------------------------------------------


def test_function_equality():
    assert abs_fn() == abs_fn()
    assert abs_fn() != pl([(0.0, 0.5)], slope_left=-1.0, slope_right=1.0)
    assert ConstTop() == ConstTop()
    assert ConstTop() != ConstBottom()
    assert improper_split(0.0, 1.0) == improper_split(0.0, 1.0)
    assert improper_split(0.0, 1.0) != improper_split(0.0, 2.0)
    assert abs_fn() != improper_split(0.0, 1.0) and not fn_allclose(abs_fn(), ConstTop())
    # g agrees with f on f's breakpoints, slopes and domain, and has one breakpoint more
    f = PLProper([0.0, 1.0], [0.0, 1.0], slope_left=-1.0, slope_right=2.0)
    g = PLProper([0.0, 1.0, 2.0], [0.0, 1.0, 2.5], slope_left=-1.0, slope_right=2.0)
    assert f != g and g != f and not fn_allclose(f, g, tol=1.0)



def _field_allclose(f, g, tol):
    """``fn_allclose`` as a ladder over the variants and their fields, the reference for the key."""

    def close(a, b):
        if a is None or b is None:
            return a is None and b is None
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))

    if isinstance(f, ImproperSplit):
        return isinstance(g, ImproperSplit) and close(f.lo, g.lo) and close(f.hi, g.hi)
    if not isinstance(g, PLProper) or len(f.xs) != len(g.xs):
        return False
    return (
        all(close(a, b) for a, b in zip(f.xs, g.xs))
        and all(close(a, b) for a, b in zip(f.vs, g.vs))
        and close(f.slope_left, g.slope_left)
        and close(f.slope_right, g.slope_right)
        and close(f.dom_lo, g.dom_lo)
        and close(f.dom_hi, g.dom_hi)
    )


def _identity_corpus(seed, n):
    """Seeded functions and near copies of them.

    The four improper kinds (empty, whole line, a half-line and a bounded
    interval), signed zeros, bounded sides without end slopes, and copies
    with the breakpoints, the values or the end slopes nudged by one ulp or
    by relative steps from 1e-12 to 0.5.
    """
    rng = np.random.default_rng(seed)
    out = [ConstTop(), ConstBottom(), improper_split(-INF, 0.0), improper_split(-0.0, INF), improper_split(0.0, 0.0)]
    out += [PLProper([-0.0], [-0.0], -1.0, 1.0), PLProper([0.0, 1.0], [0.0, -0.0], None, 2.0, dom_lo=-0.0)]
    while len(out) < n:
        k = int(rng.integers(1, 5))
        xs = np.sort(rng.choice(np.arange(-8, 9), size=k, replace=False)) / 4.0 * 10.0 ** rng.integers(-3, 4)
        vs = rng.integers(-8, 9, size=k) / 4.0
        bounded = rng.random(2) < 0.3
        f = PLProper(
            xs.tolist(), vs.tolist(),
            None if bounded[0] else float(rng.integers(-8, 1)),
            None if bounded[1] else float(rng.integers(1, 9)),
            xs[0] if bounded[0] else -INF,
            xs[-1] if bounded[1] else INF,
        )
        lo, hi = sorted(rng.integers(-8, 9, size=2) / 4.0)
        g = improper_split(-INF if rng.random() < 0.2 else lo, INF if rng.random() < 0.2 else hi)
        out += [f, g]
        for step in (None, 1e-12, 1e-9, 1e-6, 1e-3, 0.5):
            nudge = (lambda x: math.nextafter(x, INF)) if step is None else (lambda x: x * (1 + step) + step)
            fields = [f.xs, f.vs, [f.slope_left, f.slope_right]]
            i = int(rng.integers(3))
            fields[i] = [x if x is None else nudge(x) for x in fields[i]]
            try:
                out.append(PLProper(*fields[:2], *fields[2], f.dom_lo, f.dom_hi))
            except ValueError:
                pass
            out.append(improper_split(nudge(g.lo) if math.isfinite(g.lo) else g.lo, g.hi))
    return out


def test_the_key_decides_like_the_field_ladder():
    fns = _identity_corpus(3, 110)
    for tol in (0.0, 1e-9, 1e-3, 1.0):
        for f in fns:
            for g in fns:
                assert fn_allclose(f, g, tol) == _field_allclose(f, g, tol), (f, g, tol)
    for f in fns:
        for g in fns:
            assert (f == g) == _field_allclose(f, g, 0.0), (f, g)
            assert f != g or hash(f) == hash(g), (f, g)


def _eq_cases():
    """Pairs of up-space functions for ``==``: laws draws, large equal copies and near misses."""
    rng = np.random.default_rng(17)
    draws = [random_closed_convex_fn(rng) for _ in range(60)] + [random_pl(rng) for _ in range(60)]
    pairs = [(f, g) for f in draws for g in draws[:20]]
    # two equal functions of 10^5 breakpoints built from separate lists
    x = np.cumsum(rng.uniform(0.5, 1.5, 10**5))
    v = np.cumsum(np.sort(rng.uniform(-50.0, 50.0, 10**5)) * 0.5)
    f = PLProper(x.tolist(), v.tolist(), -60.0, 60.0)
    pairs.append((f, PLProper(x.tolist(), v.tolist(), -60.0, 60.0)))
    # pairs that differ only in the first x, the last v, or one end slope
    x2, v2 = x.tolist(), v.tolist()
    x2[0] -= 0.25
    pairs.append((f, PLProper(x2, v.tolist(), -60.0, 60.0)))
    v2[-1] += 1.0
    pairs.append((f, PLProper(x.tolist(), v2, -60.0, 60.0)))
    pairs.append((f, PLProper(x.tolist(), v.tolist(), -60.0, 61.0)))
    pairs.append((f, PLProper(x.tolist(), v.tolist(), -61.0, 60.0)))
    # signed zeros
    pairs.append((PLProper([-0.0, 1.0], [-0.0, 1.0], -1.0, 2.0), PLProper([0.0, 1.0], [0.0, 1.0], -1.0, 2.0)))
    pairs.append((improper_split(-0.0, 1.0), improper_split(0.0, 1.0)))
    pairs.append((PLProper([0.0, 1.0], [0.0, 1.0], None, 2.0, dom_lo=-0.0), PLProper([0.0, 1.0], [0.0, 1.0], None, 2.0, dom_lo=0.0)))
    return pairs


def test_eq_compares_as_the_keys_do():
    pairs = _eq_cases()
    outcomes = set()
    for f, g in pairs:
        want = functions._key(f) == functions._key(g)
        assert (f == g) is want and (g == f) is want and (f != g) is not want, (f, g)
        outcomes.add((isinstance(f, PLProper) and len(f.xs) == 10**5, want))
    # every large pair but the first differs; the draws hold equal and unequal pairs
    assert [f == g for f, g in pairs[-7:-3]] == [False] * 4
    assert outcomes == {(False, True), (False, False), (True, True), (True, False)}
    assert pairs[-3][0] == pairs[-3][1] and pairs[-2][0] == pairs[-2][1]


def test_a_set_of_distinct_functions_builds_fast():
    rng = np.random.default_rng(0)
    fns = [PLProper([0.0, 1.0], [0.0, float(v)], -1.0, 4.0) for v in rng.permutation(3000)]
    start = time.perf_counter()
    distinct = set(fns)
    assert time.perf_counter() - start < 1.0
    assert len(distinct) == 3000 and len(set(fns + fns[:10])) == 3000

def _stored_bits(f):
    """Every number a function or dual element stores, as exact hex strings."""

    def h(x):
        return None if x is None else x.hex()

    if isinstance(f, PLProper):
        return ([*map(h, f.xs)], [*map(h, f.vs)], h(f.slope_left), h(f.slope_right), h(f.dom_lo), h(f.dom_hi))
    if isinstance(f, DualElem):
        return (f.kind, h(f.a))
    return (h(f.lo), h(f.hi))


def test_repr_evaluates_back_bit_for_bit():
    rng = np.random.default_rng(11)
    objs = [random_closed_convex_fn(rng) for _ in range(40)]
    objs += [random_pl(rng) for _ in range(20)] + [random_nonconvex_pl(rng) for _ in range(10)]
    objs += [random_improper_split(rng) for _ in range(10)]
    third = 1 / 3
    objs += [
        PLProper([0.1, third, 2.0], [-0.0, 1e300, 7e-5], slope_left=-third, dom_hi=2.0),
        PLProper([-0.0, 1.0], [-0.0, 2.0], slope_right=-1.0, dom_lo=-0.0),
        pl([(-0.0, -0.0)], slope_left=-1.0, slope_right=-1.0),
        pl([(0.0, -0.0)], slope_left=1.0, slope_right=1.0),
        pl([(-0.0, -0.0)], slope_left=-0.0, slope_right=-0.0),
        pl([(third, 0.25)], slope_left=-third, slope_right=-third - 2.0**-50),
        pl([(0.1, third)], slope_left=-math.pi, slope_right=5e-324),
        ImproperSplit(-INF, 0.1),
        ImproperSplit(third, INF),
        ImproperSplit(-1e-310, 2 / 3),
        ConstTop(),
        ConstBottom(),
    ]
    for a, _ in rng.standard_normal((10, 2)):
        objs += [DualElem.proper(a), DualElem.hat(a)]
    for f in objs:
        g = eval(repr(f), vars(functions))
        assert type(g) is type(f) and _stored_bits(g) == _stored_bits(f), repr(f)


def test_generators_produce_advertised_shapes():
    rng = np.random.default_rng(5)
    for _ in range(30):
        assert random_convex_pl(rng).is_convex()
    for _ in range(30):
        f = random_closed_convex_fn(rng)
        assert f.is_convex()
