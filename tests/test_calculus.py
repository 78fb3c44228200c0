"""Tests for the convex calculus layer.

The shipped operations compute every sup and inf in closed form from
the piecewise-linear structure.  The tests here go the other way:
finite-difference quotients for directional derivatives, definitional
scans over point grids for subgradients, brute-force sups for
conjugates (with widening-grid evidence for the infinite
classifications), and direct split enumeration for the infimal
convolution.  Expected values quoted as frozen numbers were computed
by hand from the definitions.
"""

import math

import numpy as np
import pytest

from infsup.extreal import (
    DownReal,
    UpReal,
    as_down,
    as_up,
    idif,
    idif_arr,
    isum,
    negate_down,
    negate_up,
    scale,
    sdif,
    ssum,
)
from infsup.functions import (
    ConstBottom,
    ConstTop,
    DualElem,
    ImproperSplit,
    PLProper,
    affine_eval,
    closure_hull,
    fn_allclose,
    improper_split,
    pl,
)
from infsup import calculus
from infsup.calculus import (
    _pl_legendre,
    _sup_linear_minus,
    MinorantReport,
    SubdiffDescription,
    biconjugate,
    conjugate,
    conjugate_curve,
    diff_quotient,
    dirderiv,
    hat_minorant_witness,
    infconv,
    infconv_conjugate_check,
    is_subgradient,
    minorant_conditions,
    subdiff_conjugate_check,
    subdiff_extended,
    young_fenchel_check,
)
from infsup.laws import (
    random_closed_convex_fn,
    random_convex_pl,
    random_improper_split,
    random_nonconvex_pl,
    random_pl,
)

INF = math.inf


def abs_fn():
    """|x|, the workhorse example."""
    return pl([(0.0, 0.0)], slope_left=-1.0, slope_right=1.0)


BOT = UpReal.bottom()
TOP = UpReal.top()
DBOT = DownReal.bottom()
DTOP = DownReal.top()


# ---------------------------------------------------------------------------
# Shared probe machinery.
# ---------------------------------------------------------------------------


def le_loose(a, b, tol=1e-9):
    """Tagged comparison with slack for rounding in interpolated evals."""
    if a.is_finite and b.is_finite:
        return a.value <= b.value + tol
    return a <= b


def point_grid(g, x0=0.0):
    """Points that pin down any piecewise-linear comparison against g:
    all breakpoints, domain edges from both sides, offsets around x0,
    and far points that expose ray-slope violations."""
    pts = {x0, 0.0}
    if isinstance(g, PLProper):
        pts |= set(g.xs)
        pts |= {(a + b) / 2 for a, b in zip(g.xs, g.xs[1:])}
    d = g.dom()
    if d is not None:
        for e in d:
            if math.isfinite(e):
                pts |= {e, e - 0.25, e + 0.25, e - 2.0, e + 2.0}
    pts |= {x0 + s for s in (-4.0, -1.0, -0.5, 0.5, 1.0, 4.0)}
    pts |= {-1e4, 1e4}
    return sorted(pts)


def candidate_slopes(g):
    """Proper slopes worth probing: each slope of g, midpoints between
    adjacent ones, a step past each extreme, and zero."""
    if isinstance(g, PLProper):
        s = sorted(set(g.all_slopes()))
        out = set(s) | {0.0}
        if s:
            out |= {s[0] - 0.5, s[-1] + 0.5}
            out |= {(u + v) / 2 for u, v in zip(s, s[1:])}
        return sorted(out)
    return [-1.0, -0.5, 0.0, 0.5, 1.0]


def candidate_duals(g):
    duals = [DualElem.proper(a) for a in candidate_slopes(g)]
    duals += [DualElem.hat(a) for a in (-1.0, 0.0, 1.0)]
    return duals


def x0_probes(g):
    pts = {0.0}
    if isinstance(g, PLProper):
        pts |= set(g.xs)
        pts |= {(a + b) / 2 for a, b in zip(g.xs, g.xs[1:])}
    d = g.dom()
    if d is not None:
        for e in d:
            if math.isfinite(e):
                pts |= {e, e - 0.5, e + 0.5}
    else:
        pts |= {-1.5, 2.0}
    return sorted(pts)


def convex_corpus(seed, n):
    rng = np.random.default_rng(seed)
    fns = [abs_fn(), ConstTop(), ConstBottom(), improper_split(0.0, INF),
           improper_split(-1.0, 1.0)]
    while len(fns) < n:
        fns.append(random_closed_convex_fn(rng))
    return fns


def mixed_corpus(seed, n):
    rng = np.random.default_rng(seed)
    fns = [abs_fn(), ConstTop(), ConstBottom(), improper_split(2.0, INF)]
    while len(fns) < n:
        u = rng.random()
        if u < 0.4:
            fns.append(random_pl(rng))
        elif u < 0.7:
            fns.append(random_convex_pl(rng))
        elif u < 0.85:
            fns.append(random_nonconvex_pl(rng))
        else:
            fns.append(random_improper_split(rng))
    return fns


def bits(v):
    return float(v).hex()


# ---------------------------------------------------------------------------
# Directional derivatives.
# ---------------------------------------------------------------------------


class TestDirDeriv:
    def test_abs_at_origin(self):
        g = abs_fn()
        assert dirderiv(g, 0.0, 1.0) == UpReal(1.0)
        assert dirderiv(g, 0.0, -1.0) == UpReal(1.0)
        assert dirderiv(g, 0.0, 0.0) == UpReal(0.0)
        assert dirderiv(g, 2.0, -1.0) == UpReal(-1.0)
        assert dirderiv(g, 2.0, 3.0) == UpReal(3.0)

    def test_split_function(self):
        g = improper_split(0.0, INF)
        # at a Bottom point the derivative stays Bottom while the ray
        # remains inside the domain and jumps to Top when it leaves
        assert dirderiv(g, 1.0, 1.0) == BOT
        assert dirderiv(g, 1.0, -1.0) == BOT
        assert dirderiv(g, 0.0, 1.0) == BOT
        assert dirderiv(g, 0.0, -1.0) == TOP
        assert dirderiv(g, 0.0, 0.0) == BOT
        # outside the domain everything is Bottom
        assert dirderiv(g, -1.0, 1.0) == BOT
        assert dirderiv(g, -1.0, -1.0) == BOT

    def test_bounded_domain_edge(self):
        g = pl([(0.0, 0.0), (2.0, 1.0)], None, None, dom_lo=0.0, dom_hi=2.0)
        assert dirderiv(g, 2.0, 1.0) == TOP
        assert dirderiv(g, 2.0, -1.0) == UpReal(-0.5)
        assert dirderiv(g, 0.0, -0.5) == TOP
        assert dirderiv(g, 0.0, 2.0) == UpReal(1.0)

    def test_const_variants(self):
        assert dirderiv(ConstBottom(), 0.0, 1.0) == BOT
        assert dirderiv(ConstTop(), 0.0, 1.0) == BOT

    def test_nonconvex_rejected(self):
        g = pl([(-1.0, 0.0), (0.0, 2.0), (1.0, 0.0)], -1.0, 1.0)
        with pytest.raises(ValueError):
            dirderiv(g, 0.0, 1.0)

    def test_matches_small_step_quotient(self):
        # for piecewise-linear data the quotient equals the derivative
        # once the step stays within the adjacent segment; rounding in
        # the interpolated eval leaves a tiny residue after dividing by t
        rng = np.random.default_rng(404)
        t = 2.0 ** -12
        for _ in range(40):
            g = random_convex_pl(rng)
            for x0 in x0_probes(g):
                for x in (-2.0, -1.0, -0.5, 1.0, 1.5):
                    d = dirderiv(g, x0, x)
                    q = diff_quotient(g, x0, x, t)
                    if d.is_finite and q.is_finite:
                        assert abs(d.value - q.value) <= 1e-9
                    else:
                        assert d == q

    def test_quotient_monotone_in_t(self):
        rng = np.random.default_rng(405)
        ts = [2.0 ** k for k in range(-4, 3)]
        for _ in range(25):
            g = random_closed_convex_fn(rng)
            for x0 in (-1.0, 0.0, 0.5, 3.0):
                for x in (-1.0, 1.0, 2.0):
                    qs = [diff_quotient(g, x0, x, t) for t in ts]
                    for a, b in zip(qs, qs[1:]):
                        assert le_loose(a, b)

    def test_positively_homogeneous(self):
        rng = np.random.default_rng(406)
        for _ in range(25):
            g = random_closed_convex_fn(rng)
            for x0 in (-1.0, 0.0, 2.5):
                for x in (-2.0, -0.5, 1.0):
                    d = dirderiv(g, x0, x)
                    for s in (0.5, 2.0, 4.0):
                        assert dirderiv(g, x0, s * x) == scale(s, d)

    def test_sublinear_in_direction(self):
        rng = np.random.default_rng(407)
        for _ in range(25):
            g = random_closed_convex_fn(rng)
            for x0 in (-0.5, 0.0, 1.0):
                for x1, x2 in ((-1.0, 1.0), (0.5, 2.0), (-2.0, -0.5)):
                    d1 = dirderiv(g, x0, x1)
                    d2 = dirderiv(g, x0, x2)
                    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                        mix = dirderiv(g, x0, t * x1 + (1 - t) * x2)
                        bound = isum(scale(t, d1), scale(1 - t, d2))
                        assert le_loose(mix, bound)

    def test_negation_swaps_spaces(self):
        # the down-space derivative of -g is the negation of the
        # up-space derivative of g; the down quotient is exact at the
        # same small step
        rng = np.random.default_rng(408)
        t = 2.0 ** -12
        fns = [abs_fn(), improper_split(0.0, INF), ConstTop(), ConstBottom()]
        for _ in range(20):
            fns.append(random_convex_pl(rng))
        for g in fns:
            for x0 in (-1.0, 0.0, 0.75):
                for x in (-1.0, 1.0, 2.0):
                    q = sdif(negate_up(g.eval(x0 + t * x)), negate_up(g.eval(x0)))
                    q = scale(1.0 / t, q)
                    d = negate_up(dirderiv(g, x0, x))
                    if d.is_finite and q.is_finite:
                        assert abs(d.value - q.value) <= 1e-9
                    else:
                        assert d == q


# ---------------------------------------------------------------------------
# Extended subdifferentials.
# ---------------------------------------------------------------------------


def defn_subgradient(g, x0, xi):
    """The definition itself, scanned over a pinning grid: xi applied to
    x - x0 must sit below g(x) up-minus g(x0) everywhere.  Slack covers
    eval rounding at tangency; real violations exceed it by orders of
    magnitude on this grid."""
    v0 = g.eval(x0)
    for x in point_grid(g, x0):
        if not le_loose(affine_eval(xi, xi.a * x0, x), idif(g.eval(x), v0)):
            return False
    return True


class TestSubdiff:
    def test_abs_at_kink(self):
        sd = subdiff_extended(abs_fn(), 0.0)
        assert sd.proper == (-1.0, 1.0)
        assert sd.improper == frozenset({0.0})
        assert 0.0 in sd.improper

    def test_abs_off_kink(self):
        sd = subdiff_extended(abs_fn(), 2.0)
        assert sd.proper == (1.0, 1.0)
        assert sd.improper == frozenset({0.0})

    def test_split_left_edge(self):
        sd = subdiff_extended(improper_split(0.0, INF), 0.0)
        assert sd.proper is None
        assert sd.improper == frozenset({0.0, -1.0})

    def test_split_interior(self):
        sd = subdiff_extended(improper_split(0.0, INF), 3.0)
        assert sd.proper is None
        assert sd.improper == frozenset({0.0})

    def test_outside_domain_only_bottom(self):
        for g in (ConstTop(), improper_split(0.0, INF), pl([(0.0, 0.0)], None, 1.0, dom_lo=0.0)):
            sd = subdiff_extended(g, -5.0)
            assert sd.proper is None
            assert sd.improper == frozenset({0.0})

    def test_bounded_end_opens_interval(self):
        g = pl([(0.0, 0.0), (2.0, 1.0)], None, None, dom_lo=0.0, dom_hi=2.0)
        sd = subdiff_extended(g, 0.0)
        assert sd.proper == (-INF, 0.5)
        assert sd.improper == frozenset({0.0, -1.0})
        sd = subdiff_extended(g, 2.0)
        assert sd.proper == (0.5, INF)
        assert sd.improper == frozenset({0.0, 1.0})

    def test_constbottom(self):
        sd = subdiff_extended(ConstBottom(), 1.0)
        assert sd.proper is None
        assert sd.improper == frozenset({0.0})

    def test_nonconvex_rejected(self):
        # read off the one-sided slopes, g would have 0 as a subgradient at
        # -1, yet g(2) = -3 < g(-1) = 0
        g = pl([(-1, 0), (0, 1), (2, -3)], slope_left=-1, slope_right=1)
        assert g.eval(2.0) < g.eval(-1.0)
        for query in (subdiff_extended, subdiff_conjugate_check):
            with pytest.raises(ValueError, match="convex"):
                query(g, -1.0)
        with pytest.raises(ValueError, match="convex"):
            is_subgradient(g, -1.0, DualElem.hat(1.0))

    def test_description_rejections(self):
        with pytest.raises(ValueError, match="constant Bottom"):
            SubdiffDescription(proper=(0.0, 1.0), improper=frozenset({1.0}))
        with pytest.raises(TypeError):
            subdiff_extended(abs_fn(), 0.0).contains(1.0)
        with pytest.raises(TypeError):
            is_subgradient(abs_fn(), 0.0, 1.0)

    def test_three_routes_agree(self):
        # interval/endpoint description vs conjugate-style closed form
        # vs the raw definition scanned on a grid
        for i, g in enumerate(convex_corpus(505, 45)):
            for x0 in x0_probes(g):
                sd = subdiff_extended(g, x0)
                for xi in candidate_duals(g):
                    via_defn = defn_subgradient(g, x0, xi)
                    assert sd.contains(xi) == via_defn
                    assert is_subgradient(g, x0, xi) == via_defn

    def test_derivative_characterization(self):
        # xi is a subgradient at x0 iff xi stays below the directional
        # derivative in every direction
        for g in convex_corpus(506, 30):
            for x0 in x0_probes(g):
                for xi in candidate_duals(g):
                    member = is_subgradient(g, x0, xi)
                    below = all(
                        le_loose(affine_eval(xi, 0.0, x), dirderiv(g, x0, x))
                        for x in (-2.0, -1.0, -0.25, 0.0, 0.25, 1.0, 2.0)
                    )
                    assert member == below


# ---------------------------------------------------------------------------
# The sup behind the subgradient test.
# ---------------------------------------------------------------------------


def linear_sup(g, a):
    """The reference for _sup_linear_minus: Top outside the slope window,
    else the max of a*x - v over every breakpoint."""
    if isinstance(g, ImproperSplit):
        return -INF if g.dom() is None else INF
    lo, hi = g.slope_window()
    if a < lo or a > hi:
        return INF
    return max(a * x - v for x, v in zip(g.xs, g.vs))


def sup_probes(g):
    """Each chord slope and its float neighbours, midpoints, steps of
    +-1, both ends of the slope window with their neighbours, and 0."""
    s = g.segment_slopes()
    out = {0.0, *s}
    out |= {math.nextafter(t, d) for t in s for d in (-INF, INF)}
    out |= {(u + v) / 2 for u, v in zip(s, s[1:])}
    out |= {t + d for t in s for d in (-1.0, 1.0)}
    for e in g.slope_window():
        out |= {e, math.nextafter(e, -INF), math.nextafter(e, INF)}
    return sorted(a for a in out if math.isfinite(a))


def assert_sup_is_linear(g):
    for a in sup_probes(g):
        assert bits(_sup_linear_minus(g, a)) == bits(linear_sup(g, a)), (g, a)


class TestBisectedSup:
    def test_laws_draws(self):
        rng = np.random.default_rng(1301)
        convex = set()
        for _ in range(300):
            for g in (random_closed_convex_fn(rng), random_convex_pl(rng, max_breaks=12), random_pl(rng)):
                if isinstance(g, PLProper):
                    assert_sup_is_linear(g)
                    convex.add(g.is_convex())
                else:
                    assert _sup_linear_minus(g, 0.5) == linear_sup(g, 0.5)
        assert convex == {False, True}

    def test_float_data_across_scales(self):
        rng = np.random.default_rng(1302)
        for scale in (1e-3, 1.0, 1e3, 1e6):
            for lb in (False, True):
                for rb in (False, True):
                    for k in (1, 2, 3, 8, 40, 120):
                        assert_sup_is_linear(float_convex_pl(rng, k, scale, lb, rb))

    def test_one_and_two_breakpoints(self):
        for g in (
            pl([(0.3, 0.7)], -1.0, 2.0),
            pl([(0.3, 0.7)], None, 2.0, dom_lo=0.3),
            pl([(0.3, 0.7)], -1.0, None, dom_hi=0.3),
            pl([(0.3, 0.7)], None, None, dom_lo=0.3, dom_hi=0.3),
            pl([(-0.1, 0.2), (0.7, -0.3)], -2.5, 1.5),
            pl([(-0.1, 0.2), (0.7, -0.3)], None, None, dom_lo=-0.1, dom_hi=0.7),
            pl([(-0.1, 0.2), (0.7, -0.3)], None, 0.1, dom_lo=-0.1),
        ):
            assert len(g.xs) <= 2 and g.is_convex()
            assert_sup_is_linear(g)

    def test_window_ends(self):
        g = pl([(-1.0, 1.0), (0.0, 0.0), (2.0, 1.0)], -3.0, 4.0)
        assert _sup_linear_minus(g, -3.0) == linear_sup(g, -3.0) == 2.0
        assert _sup_linear_minus(g, 4.0) == linear_sup(g, 4.0) == 7.0
        assert _sup_linear_minus(g, math.nextafter(-3.0, -INF)) == INF
        assert _sup_linear_minus(g, math.nextafter(4.0, INF)) == INF

    def test_non_convex_takes_the_full_max(self):
        # two wells, the deeper far right: a bisection for the first chord
        # with slope >= 0 stops in the left well
        xs = [float(i) for i in range(12)]
        vs = [0.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 1.0, 0.0, -5.0]
        g = PLProper(xs, vs, slope_left=-1.0, slope_right=1.0)
        assert not g.is_convex()
        assert _sup_linear_minus(g, 0.0) == 5.0
        rng = np.random.default_rng(1303)
        for _ in range(100):
            assert_sup_is_linear(random_nonconvex_pl(rng, max_breaks=9))

    def test_tolerance_convex_data_is_pruned_before_the_bisect(self):
        # chord slopes that fall by less than COLLINEAR_TOL at every step:
        # the constructor treats them as collinear, so what it keeps has
        # strictly rising slopes and the bisect is exact on it
        xs = [float(i * i) for i in range(400)]
        g = PLProper(xs, [-(2.0**-60) * x * x for x in xs], slope_left=-1.0, slope_right=1.0)
        s = g.all_slopes()
        assert g.is_convex() and len(g.xs) < len(xs) and all(a < b for a, b in zip(s, s[1:]))
        assert_sup_is_linear(g)
        # the one convex shape whose slopes do not strictly rise: an affine
        # function whose end slopes fall within COLLINEAR_TOL; its slope
        # window is empty, so the sup is +inf at every slope
        h = PLProper([0.3], [0.7], slope_left=1.0 + 2.0**-44, slope_right=1.0)
        assert h.is_convex() and h.xs == [0.0] and h.slope_left > h.slope_right
        for a in (1.0, 1.0 + 2.0**-45, 1.0 + 2.0**-44):
            assert _sup_linear_minus(h, a) == linear_sup(h, a) == INF


# ---------------------------------------------------------------------------
# Conjugates.
# ---------------------------------------------------------------------------


def affine_eval_many(xi, r, xs):
    """``affine_eval`` at every point of an array, in the bulk encoding."""
    t = xi.a * xs - r
    if xi.is_hat:
        return np.where(t <= 0, -INF, INF)
    return t


def fn_eval_many(g, xs):
    """g at every point of the array xs, in the bulk encoding (Top = +inf, Bottom = -inf).

    Reads only g's fields, so the grid oracle shares no code with the
    package's evaluators: Bottom on an ``ImproperSplit``'s interval and
    Top off it; for a ``PLProper``, ``np.interp`` between the
    breakpoints, the end slopes beyond them and Top off the domain.
    """
    if isinstance(g, ImproperSplit):
        return np.where((g.lo <= xs) & (xs <= g.hi), -INF, INF)
    bx, bv = np.array(g.xs), np.array(g.vs)
    out = np.interp(xs, bx, bv)
    if g.slope_left is not None:
        m = xs < bx[0]
        out[m] = bv[0] + g.slope_left * (xs[m] - bx[0])
    if g.slope_right is not None:
        m = xs > bx[-1]
        out[m] = bv[-1] + g.slope_right * (xs[m] - bx[-1])
    return np.where((g.dom_lo <= xs) & (xs <= g.dom_hi), out, INF)


def conj_grid_terms(g, xi, r, radius, far=1e4):
    """The terms xi_r(x) up-minus g(x) over a grid, as a float64 array (Top = +inf)."""
    pts = set(np.arange(-radius, radius + 0.25, 0.25).tolist())
    pts |= set(point_grid(g))
    pts |= {-far, far}
    if xi.is_hat and xi.a != 0:
        th = r / xi.a
        pts |= {th - 0.25, th, th + 0.25}
    xs = np.array(sorted(pts))
    return idif_arr(affine_eval_many(xi, r, xs), fn_eval_many(g, xs))


def assert_sup_matches(value_up, terms, wide_terms, tol=1e-9):
    """value_up is a claimed sup of the terms (arrays, Top = +inf): every
    term stays below it; a finite sup is attained on the grid; Top shows
    either a Top term or strict growth on the widened grid; Bottom forces
    every term to Bottom."""
    v = value_up.value
    finite = np.isfinite(terms)
    if value_up.is_finite:
        assert np.all(terms[finite] <= v + tol)
        assert np.all(terms[~finite] == -INF)
        best = terms[finite].max()
        assert abs(best - v) <= tol
    elif value_up.is_top:
        if not np.any(terms == INF):
            narrow = terms[finite].max()
            wide = wide_terms[np.isfinite(wide_terms)].max()
            assert wide > narrow + 10.0
    else:
        assert np.all(terms == -INF)


class TestConjugate:
    def test_abs_frozen_values(self):
        g = abs_fn()
        assert conjugate(g, DualElem.proper(0.5), 0.0) == DownReal(0.0)
        assert conjugate(g, DualElem.proper(1.0), 0.0) == DownReal(0.0)
        assert conjugate(g, DualElem.proper(0.5), 2.0) == DownReal(-2.0)
        assert conjugate(g, DualElem.proper(2.0), 0.0) == DTOP
        # divergence evidence for the Top classification
        narrow = max(
            2.0 * x - abs(x) for x in np.arange(-100.0, 100.5, 0.5)
        )
        wide = max(2.0 * x - abs(x) for x in np.arange(-200.0, 200.5, 0.5))
        assert wide > narrow

    def test_hat_frozen_values(self):
        g = improper_split(0.0, INF)
        assert conjugate(g, DualElem.hat(-1.0), 0.0) == DBOT
        assert conjugate(g, DualElem.hat(1.0), 0.0) == DTOP
        assert conjugate(g, DualElem.hat(0.0), 0.0) == DBOT
        assert conjugate(g, DualElem.hat(0.0), -1.0) == DTOP

    def test_empty_function(self):
        g = ConstTop()
        for xi in (DualElem.proper(1.0), DualElem.hat(1.0), DualElem.hat(0.0)):
            for r in (-2.0, 0.0, 2.0):
                assert conjugate(g, xi, r) == DBOT

    def test_bottom_anywhere_blows_up_proper(self):
        for g in (ConstBottom(), improper_split(-1.0, 1.0)):
            assert conjugate(g, DualElem.proper(0.5), 0.0) == DTOP

    def test_proper_conjugate_shifts_linearly_in_r(self):
        g = abs_fn()
        base = conjugate(g, DualElem.proper(0.5), 0.0)
        for r in (-3.0, -0.5, 1.0, 4.0):
            assert conjugate(g, DualElem.proper(0.5), r) == DownReal(base.value - r)

    def test_against_grid_sup(self):
        for g in mixed_corpus(606, 40):
            curve = conjugate_curve(g).curve
            for xi in candidate_duals(g):
                for r in (-2.0, 0.0, 1.5):
                    c = as_up(conjugate(g, xi, r))
                    terms = conj_grid_terms(g, xi, r, 30.0)
                    wide = conj_grid_terms(g, xi, r, 120.0, far=4e4)
                    assert_sup_matches(c, terms, wide)
                    if not xi.is_hat:
                        # the whole-curve transform against the same grid
                        assert_sup_matches(idif(curve.eval(xi.a), UpReal(r)), terms, wide)

    def test_curve_is_convex_and_down_valued(self):
        for g in mixed_corpus(607, 25):
            cc = conjugate_curve(g)
            assert cc.curve.is_convex()
            assert isinstance(conjugate(g, DualElem.proper(0.5), 0.0), DownReal)

    def test_sees_only_the_hull(self):
        # conjugation cannot distinguish a function from its closed
        # convex hull
        rng = np.random.default_rng(608)
        for _ in range(30):
            g = random_nonconvex_pl(rng)
            h = closure_hull(g)
            a = conjugate_curve(g).curve
            b = conjugate_curve(h).curve
            assert fn_allclose(a, b, 1e-9)

    def test_one_value_for_minorant_conditions(self):
        # minorant_conditions reads the same conjugate value, bit for bit,
        # on float data where rounding would separate two formulas
        rng = np.random.default_rng(609)
        for scale in (1e-3, 1.0, 1e3, 1e6):
            for _ in range(12):
                k = int(rng.integers(2, 41))
                g = float_convex_pl(rng, k, scale, *(rng.random(2) < 0.3))
                lo, hi = g.slope_window()
                slopes = g.all_slopes()
                lo, hi = max(lo, min(slopes) - 1.0), min(hi, max(slopes) + 1.0)
                for a in rng.uniform(lo, hi, size=10).tolist() + slopes[:5]:
                    r = float(rng.uniform(-10.0, 10.0)) * scale
                    for xi in (DualElem.proper(a), DualElem.hat(a)):
                        c = as_up(conjugate(g, xi, r))
                        assert bits(c.value) == bits(minorant_conditions(g, xi, r).sup_dif.value), (g, xi, r)

    def test_point_values_skip_the_curve(self, monkeypatch):
        # single conjugate values never build the whole transform
        def refuse(f):
            raise AssertionError("_pl_legendre called for a single value")

        monkeypatch.setattr(calculus, "_pl_legendre", refuse)
        gs = mixed_corpus(610, 30)
        for g in gs:
            for xi in candidate_duals(g):
                assert isinstance(conjugate(g, xi, 0.5), DownReal)
                assert isinstance(minorant_conditions(g, xi, 0.5), MinorantReport)
                assert young_fenchel_check(g, xi, 0.5, 1.0) == (True, True, True)
        convex = [g for g in gs if g.is_convex()]
        for f, g in zip(convex, convex[1:]):
            for xi in candidate_duals(f):
                assert infconv_conjugate_check(f, g, xi, 0.5).equal


class TestYoungFenchel:
    def test_spec_triple(self):
        assert young_fenchel_check(abs_fn(), DualElem.proper(2.0), 0.0, 1.0) == (
            True,
            True,
            True,
        )

    def test_always_true(self):
        for g in mixed_corpus(707, 35):
            for xi in candidate_duals(g):
                for r in (-1.5, 0.0, 2.0):
                    for x in (-3.0, -0.5, 0.0, 1.0, 4.0):
                        assert young_fenchel_check(g, xi, r, x) == (True, True, True)


# ---------------------------------------------------------------------------
# Infimal convolution.
# ---------------------------------------------------------------------------


def infconv_oracle_terms(f, g, x, extra_radius=None):
    cands = {x / 2.0}
    if isinstance(f, PLProper):
        cands |= set(f.xs)
    if isinstance(g, PLProper):
        cands |= {x - b for b in g.xs}
    for d, flip in ((f.dom(), False), (g.dom(), True)):
        if d is not None:
            for e in d:
                if math.isfinite(e):
                    cands.add(x - e if flip else e)
    if extra_radius is not None:
        cands |= set(np.arange(-extra_radius, extra_radius + 1.0, 1.0).tolist())
    return [isum(f.eval(x1), g.eval(x - x1)) for x1 in sorted(cands)]


class TestInfconv:
    def test_abs_self(self):
        assert fn_allclose(infconv(abs_fn(), abs_fn()), abs_fn(), 0.0)

    def test_const_absorption(self):
        assert isinstance(infconv(abs_fn(), ConstTop()), ConstTop)
        assert isinstance(infconv(ConstBottom(), abs_fn()), ConstBottom)
        assert isinstance(infconv(ConstTop(), ConstBottom()), ConstTop)

    def test_split_with_proper(self):
        # a Bottom value anywhere drags every point down once the
        # domains can reach it
        out = infconv(improper_split(0.0, INF), abs_fn())
        assert isinstance(out, ConstBottom)

    def test_split_with_split(self):
        out = infconv(improper_split(0.0, 1.0), improper_split(2.0, 3.0))
        assert type(out) is ImproperSplit
        assert out.dom() == (2.0, 4.0)

    def test_opposite_rays_collapse(self):
        f = pl([(0.0, 0.0)], 1.0, 1.0)
        g = pl([(0.0, 0.0)], -1.0, -1.0)
        assert isinstance(infconv(f, g), ConstBottom)

    def test_bounded_domain_example(self):
        f = pl([(0.0, 0.0), (1.0, -5.0)], None, 0.0, dom_lo=0.0)
        g = pl([(0.0, 0.0)], -2.0, 2.0)
        out = infconv(f, g)
        expected = pl([(1.0, -5.0)], -2.0, 0.0)
        assert fn_allclose(out, expected, 0.0)

    def test_nonconvex_rejected(self):
        bad = pl([(-1.0, 0.0), (0.0, 2.0), (1.0, 0.0)], -1.0, 1.0)
        with pytest.raises(ValueError):
            infconv(bad, abs_fn())

    def test_against_split_enumeration(self):
        rng = np.random.default_rng(808)
        pairs = []
        while len(pairs) < 25:
            pairs.append((random_closed_convex_fn(rng), random_closed_convex_fn(rng)))
        for f, g in pairs:
            out = infconv(f, g)
            xs = {0.0, 1.25, -2.5}
            if isinstance(f, PLProper) and isinstance(g, PLProper):
                xs |= {a + b for a in f.xs for b in g.xs}
                xs |= {a + b + 0.25 for a in f.xs[:2] for b in g.xs[:2]}
            for x in sorted(xs):
                val = out.eval(x)
                terms = infconv_oracle_terms(f, g, x)
                for t in terms:
                    assert val <= t
                if val.is_finite:
                    best = min(t.value for t in terms if t.is_finite)
                    assert abs(best - val.value) <= 1e-9
                elif val.is_bottom:
                    narrow = infconv_oracle_terms(f, g, x, extra_radius=50.0)
                    wide = infconv_oracle_terms(f, g, x, extra_radius=200.0)
                    if not any(t.is_bottom for t in narrow):
                        lo_n = min(t.value for t in narrow if t.is_finite)
                        lo_w = min(t.value for t in wide if t.is_finite)
                        assert lo_w < lo_n - 10.0
                else:
                    assert all(t.is_top for t in terms)


def _pl_add_reference(p, q):
    """Exact sum of two PLProper functions, or None if the domains miss,
    by evaluating both at every breakpoint of either."""
    lo = max(p.dom_lo, q.dom_lo)
    hi = min(p.dom_hi, q.dom_hi)
    if lo > hi:
        return None
    pts = {x for x in p.xs + q.xs if lo <= x <= hi}
    if math.isfinite(lo):
        pts.add(lo)
    if math.isfinite(hi):
        pts.add(hi)
    pts = sorted(pts)
    vals = [p.eval(x).value + q.eval(x).value for x in pts]
    sl = p.slope_left + q.slope_left if lo == -INF else None
    sr = p.slope_right + q.slope_right if hi == INF else None
    return PLProper.make(list(zip(pts, vals)), sl, sr, dom_lo=lo, dom_hi=hi)


def infconv_via_conjugates(f, g):
    """Proper-times-proper infimal convolution by three transforms: the
    inverse transform of the sum of the two conjugate curves."""
    s = _pl_add_reference(_pl_legendre(f), _pl_legendre(g))
    return ConstBottom() if s is None else _pl_legendre(s)


def float_convex_pl(rng, k, scale, left_bounded, right_bounded):
    """A convex PLProper on k non-dyadic breakpoints in [-10, 10]*scale,
    with chord slopes in [-5, 5] and rays bending away by 0.1 to 1."""
    xs = np.unique(rng.uniform(-10.0, 10.0, size=k) * scale).tolist()
    slopes = np.sort(rng.uniform(-5.0, 5.0, size=len(xs) - 1)).tolist()
    vs = [float(rng.uniform(-10.0, 10.0)) * scale]
    for x0, x1, s in zip(xs, xs[1:], slopes):
        vs.append(vs[-1] + s * (x1 - x0))
    mid = float(rng.uniform(-5.0, 5.0))
    sl = (slopes[0] if slopes else mid) - float(rng.uniform(0.1, 1.0))
    sr = (slopes[-1] if slopes else mid) + float(rng.uniform(0.1, 1.0))
    return pl(
        list(zip(xs, vs)),
        None if left_bounded else sl,
        None if right_bounded else sr,
        dom_lo=xs[0] if left_bounded else -INF,
        dom_hi=xs[-1] if right_bounded else INF,
    )


def value_scale(f, g):
    """Size of the operands' values over the region the test evaluates:
    the largest breakpoint value plus the largest slope times the
    largest breakpoint position."""
    vs = [abs(v) for h in (f, g) for v in h.vs]
    xs = [abs(x) for h in (f, g) for x in h.xs]
    ss = [abs(s) for h in (f, g) for s in h.all_slopes()]
    return max(vs) + max(ss, default=0.0) * max(xs)


def test_infconv_matches_the_conjugate_route():
    rng = np.random.default_rng(4242)
    sides = [(lb, rb) for lb in (False, True) for rb in (False, True)]
    names = set()
    for scale in (1e-3, 1.0, 1e3, 1e6):
        pairs = []
        for f_sides in sides:
            for g_sides in sides:
                for kf, kg in ((6, 9), (1, 5), (1, 1)):
                    pairs.append(
                        (float_convex_pl(rng, kf, scale, *f_sides), float_convex_pl(rng, kg, scale, *g_sides))
                    )
        # an affine operand inside the other's ray window: L == R
        line = pl([(0.37 * scale, 1.9 * scale)], 0.61, 0.61)
        pairs.append((line, pl([(-0.2 * scale, 0.3 * scale), (0.9 * scale, 0.1 * scale)], -1.3, 2.2)))
        pairs.append((float_convex_pl(rng, 7, scale, True, True), line))
        # the rays cross (L = 2.1 > R = 1.3): Bottom everywhere
        pairs.append(
            (pl([(0.7 * scale, 0.2 * scale)], 2.1, 3.4), pl([(-0.4 * scale, 1.1 * scale)], -1.9, 1.3))
        )
        for f, g in pairs:
            out, ref = infconv(f, g), infconv_via_conjugates(f, g)
            assert type(out) is type(ref), (f, g, out, ref)
            names.add(type(out).__name__)
            if not isinstance(out, PLProper):
                continue
            assert out.dom() == ref.dom(), (f, g, out, ref)
            assert (out.slope_left, out.slope_right) == (ref.slope_left, ref.slope_right), (f, g)
            tol = 1e-12 * value_scale(f, g)
            for x in sorted(set(out.xs) | set(ref.xs)):
                a, b = out.eval(x), ref.eval(x)
                assert abs(a.value - b.value) <= tol, (f, g, x, a, b)
    assert names == {"PLProper", "ConstBottom"}


def test_conjugate_breakpoints_are_chord_slopes():
    # the duality the hull kernel rests on: for convex f the lower hull is
    # f itself, so inside its domain the conjugate breaks exactly at f's
    # chord slopes s_i, with values x_i*s_i - v_i, bit for bit
    rng = np.random.default_rng(1004)
    sides = [(lb, rb) for lb in (False, True) for rb in (False, True)]
    checked = 0
    for i in range(400):
        scale = (1e-3, 1.0, 1e3, 1e6)[i % 4]
        f = float_convex_pl(rng, int(rng.integers(2, 16)), scale, *sides[i // 4 % 4])
        if not f.is_convex():
            continue
        curve = conjugate_curve(f).curve
        inside = [(w, v) for w, v in zip(curve.xs, curve.vs) if curve.dom_lo < w < curve.dom_hi]
        s = f.segment_slopes()
        assert [w for w, _ in inside] == s, f
        assert [v for _, v in inside] == [x * w - v for x, v, w in zip(f.xs, f.vs, s)], f
        checked += 1
    assert checked >= 350


def test_transform_where_hull_chords_tie_in_rounding():
    # the three chords agree to nine digits and are not convex, so the
    # hull is the end chord alone; the transform must see the same two
    # vertices, not a third whose rounded chord slope ties with its
    # neighbour's and so repeats a conjugate breakpoint
    f = PLProper(
        [-0.026527516038629687, -0.014949895418674544, 0.06141203071389871, 0.0862180844910749],
        [0.1109517481212274, 0.06512224487434343, -0.23715308934514012, -0.3353467648548177],
        slope_left=-10.0,
        slope_right=10.0,
    )
    hull = closure_hull(f)
    assert len(hull.xs) == 2
    assert conjugate_curve(f).curve.xs == [-10.0, *hull.segment_slopes(), 10.0]
    assert fn_allclose(biconjugate(f), hull, 1e-15)


class TestInfconvConjugate:
    def test_proper_frozen(self):
        rep = infconv_conjugate_check(abs_fn(), abs_fn(), DualElem.proper(0.5), 0.0)
        assert rep.equal and rep.lhs == DownReal(0.0)
        rep = infconv_conjugate_check(abs_fn(), abs_fn(), DualElem.proper(0.5), 3.0)
        assert rep.equal and rep.lhs == DownReal(-3.0)

    def test_hat_frozen(self):
        f = improper_split(0.0, INF)
        g = improper_split(2.0, INF)
        rep = infconv_conjugate_check(f, g, DualElem.hat(-1.0), -2.0)
        assert rep.equal and rep.lhs == DBOT
        rep = infconv_conjugate_check(f, g, DualElem.hat(-1.0), -2.5)
        assert rep.equal and rep.lhs == DTOP
        rep = infconv_conjugate_check(f, abs_fn(), DualElem.hat(-1.0), 0.0)
        assert rep.equal and rep.lhs == DTOP

    def test_report_repr_evaluates_back(self):
        f, g = improper_split(0.0, INF), improper_split(2.0, INF)
        for r in (-2.0, -2.5):
            rep = infconv_conjugate_check(f, g, DualElem.hat(-1.0), r)
            assert not rep.lhs.is_finite
            assert eval(repr(rep), vars(calculus)) == rep

    def test_randomized_equality(self):
        rng = np.random.default_rng(909)
        for _ in range(40):
            f = random_closed_convex_fn(rng)
            g = random_closed_convex_fn(rng)
            duals = candidate_duals(f if isinstance(f, PLProper) else g)
            for xi in duals:
                for r in (-2.0, 0.0, 1.25):
                    rep = infconv_conjugate_check(f, g, xi, r)
                    assert rep.equal, (f, g, xi, r, rep)


    def test_float_pairs_at_every_scale(self):
        # both sides are sums of values of size up to about 100 * scale, so
        # their rounding gap grows with the scale; equality must be relative
        rng = np.random.default_rng(910)
        sides = [(lb, rb) for lb in (False, True) for rb in (False, True)]
        for scale in (1e-3, 1.0, 1e3, 1e6):
            checked = 0
            for _ in range(24):
                f = float_convex_pl(rng, int(rng.integers(1, 9)), scale, *sides[rng.integers(4)])
                g = float_convex_pl(rng, int(rng.integers(1, 9)), scale, *sides[rng.integers(4)])
                for a in (*f.segment_slopes(), *g.segment_slopes(), float(rng.uniform(-5.0, 5.0))):
                    r = float(rng.uniform(-10.0, 10.0)) * scale
                    for xi in (DualElem.proper(a), DualElem.hat(a)):
                        rep = infconv_conjugate_check(f, g, xi, r)
                        assert rep.equal, (f, g, xi, r, rep)
                        checked += rep.lhs.is_finite
            assert checked >= 100


# ---------------------------------------------------------------------------
# Biconjugation.
# ---------------------------------------------------------------------------


class TestBiconjugate:
    def test_identity_on_closed_convex(self):
        for g in convex_corpus(1001, 50):
            assert fn_allclose(biconjugate(g), g, 1e-9), g

    def test_equals_hull_on_nonconvex(self):
        rng = np.random.default_rng(1002)
        for _ in range(35):
            g = random_nonconvex_pl(rng)
            assert fn_allclose(biconjugate(g), closure_hull(g), 1e-9), g

    def test_float_data_across_scales(self):
        # Fenchel-Moreau on non-dyadic data: f** = cl co f must hold to a
        # scale-relative tolerance, on convex inputs and on convex inputs
        # with some values pushed up or down (non-convex, same rays)
        rng = np.random.default_rng(1003)
        sides = [(lb, rb) for lb in (False, True) for rb in (False, True)]
        n_nonconvex = 0
        for scale in (1e-3, 1.0, 1e3, 1e6):
            for lb, rb in sides:
                for k in (1, 2, 5, 12):
                    f = float_convex_pl(rng, k, scale, lb, rb)
                    vs = [v + float(rng.choice([0.0, 3.0, -3.0])) * scale for v in f.vs]
                    g = pl(list(zip(f.xs, vs)), f.slope_left, f.slope_right, f.dom_lo, f.dom_hi)
                    n_nonconvex += not g.is_convex()
                    for h in (f, g):
                        tol = 1e-9 * value_scale(h, h)
                        out, hull = biconjugate(h), closure_hull(h)
                        assert type(out) is type(hull), (h, out, hull)
                        assert out.dom() == hull.dom(), (h, out, hull)
                        refs = [hull, h] if h.is_convex() else [hull]
                        for ref in refs:
                            for x in sorted(set(out.xs) | set(ref.xs)):
                                a, b = out.eval(x), ref.eval(x)
                                assert abs(a.value - b.value) <= tol, (h, x, a, b)
        assert n_nonconvex >= 30

    def test_allclose_to_hull_at_every_scale(self):
        # fn_allclose's tolerance is relative to each compared number, so
        # one rounding step in values of size 1e7 is no disagreement
        rng = np.random.default_rng(1011)
        for scale in (1e-3, 1.0, 1e3, 1e6):
            for _ in range(200):
                f = float_convex_pl(rng, 12, scale, False, False)
                vs = [v + float(rng.choice([0.0, 3.0, -3.0])) * scale for v in f.vs]
                g = pl(list(zip(f.xs, vs)), f.slope_left, f.slope_right)
                assert fn_allclose(biconjugate(g), closure_hull(g), 1e-9), g

    def test_collinear_hull_vertices(self):
        # the hull runs through three breakpoints on one line (slope 1/2):
        # the middle one is no vertex, so the conjugate breaks once there
        g = pl([(-2.0, 0.0), (-1.0, 3.0), (0.0, 1.0), (1.0, 3.0), (2.0, 2.0)], -1.0, 1.0)
        expect = pl([(-2.0, 0.0), (2.0, 2.0)], -1.0, 1.0)
        assert fn_allclose(closure_hull(g), expect, 0.0)
        assert conjugate_curve(g).curve.xs == [-1.0, 0.5, 1.0]
        assert fn_allclose(biconjugate(g), expect, 0.0)

    def test_double_well(self):
        g = pl([(-1.0, 0.0), (0.0, 2.0), (1.0, 0.0)], -1.0, 1.0)
        out = biconjugate(g)
        assert fn_allclose(out, pl([(-1.0, 0.0), (1.0, 0.0)], -1.0, 1.0), 0.0)

    def test_no_minorant_collapses_to_bottom(self):
        g = pl([(0.0, 0.0)], 2.0, -1.0)  # descending rays, no affine minorant
        assert isinstance(biconjugate(g), ConstBottom)
        assert isinstance(closure_hull(g), ConstBottom)

    def test_improper_variants(self):
        assert isinstance(biconjugate(ConstTop()), ConstTop)
        assert isinstance(biconjugate(ConstBottom()), ConstBottom)
        out = biconjugate(improper_split(0.0, 5.0))
        assert fn_allclose(out, improper_split(0.0, 5.0), 0.0)


def test_entry_points_reject_foreign_arguments():
    g, xi = abs_fn(), DualElem.proper(1.0)
    for t in (0.0, -1.0, INF, math.nan):
        with pytest.raises(ValueError, match="finite t > 0"):
            diff_quotient(g, 0.0, 1.0, t)
    with pytest.raises(TypeError, match="expects a DualElem"):
        conjugate(g, 1.0, 0.0)
    not_up = object()
    with pytest.raises(TypeError, match="not an up-space function"):
        conjugate(not_up, xi, 0.0)
    with pytest.raises(TypeError, match="not an up-space function"):
        conjugate_curve(not_up)
    for call in (
        lambda f: dirderiv(f, 0.0, 1.0),
        lambda f: subdiff_extended(f, 0.0),
        lambda f: is_subgradient(f, 0.0, xi),
        lambda f: diff_quotient(f, 0.0, 1.0, 0.5),
        lambda f: subdiff_conjugate_check(f, 0.0),
    ):
        with pytest.raises(TypeError, match="not an up-space function: float"):
            call(1.5)
    with pytest.raises(TypeError, match="up-space functions"):
        infconv(g, not_up)
    with pytest.raises(TypeError, match="expects a DualElem"):
        infconv_conjugate_check(g, g, 1.0, 0.0)


def test_outputs_name_their_improper_case():
    # readers that dispatch on the class name (bench/oracles.py does)
    # need ConstTop to be the only empty function and ConstBottom the
    # only improper one on the whole line
    rng = np.random.default_rng(1011)
    convex = [random_closed_convex_fn(rng) for _ in range(80)]
    nonconvex = [random_nonconvex_pl(rng) for _ in range(40)]
    outs = []
    for f in convex + nonconvex:
        outs += [closure_hull(f), conjugate_curve(f).curve, biconjugate(f)]
    partners = convex + [closure_hull(f) for f in nonconvex]
    outs += [infconv(f, g) for f, g in zip(partners, partners[1:] + partners[:1])]
    names = [type(out).__name__ for out in outs]
    assert set(names) == {"PLProper", "ImproperSplit", "ConstTop", "ConstBottom"}
    for name, out in zip(names, outs):
        assert (name == "ConstTop") == (out.dom() is None), out
        if name != "PLProper":
            assert (name == "ConstBottom") == (out.dom() == (-INF, INF)), out


# ---------------------------------------------------------------------------
# Minorant conditions.
# ---------------------------------------------------------------------------


def minorant_grid_check(g, xi, r, report):
    """Recompute all five conditions through their own extended-real
    routes on a pinning grid and compare with the closed-form report."""
    xs = point_grid(g)
    if xi.is_hat and xi.a != 0:
        th = r / xi.a
        xs = sorted(set(xs) | {th - 0.25, th, th + 0.25})
    b_terms = []
    d_terms = []
    a_ok = True
    for x in xs:
        val = affine_eval(xi, r, x)
        gx = g.eval(x)
        if not val <= gx:
            a_ok = False
        b = idif(val, gx)
        c = ssum(as_down(val), negate_up(gx))
        d = sdif(as_down(gx), as_down(val))
        e = isum(gx, negate_down(as_down(val)))
        # the dual-difference identities, pointwise on real data
        assert as_down(b) == c
        assert as_up(d) == e
        assert negate_up(b) == d
        b_terms.append(b)
        d_terms.append(d)

    # validity of the claimed sup and inf against the grid
    for b in b_terms:
        if b.is_finite and report.sup_dif.is_finite:
            assert b.value <= report.sup_dif.value + 1e-9
        else:
            assert b <= report.sup_dif or report.sup_dif.is_top
    if report.sup_dif.is_finite:
        best = max(b.value for b in b_terms if b.is_finite)
        assert abs(best - report.sup_dif.value) <= 1e-9
    if report.sup_dif.is_bottom:
        assert all(b.is_bottom for b in b_terms)
    for d in d_terms:
        if d.is_finite and report.inf_dif.is_finite:
            assert d.value >= report.inf_dif.value - 1e-9
        else:
            assert report.inf_dif <= d or report.inf_dif.is_bottom
    if report.inf_dif.is_finite:
        low = min(d.value for d in d_terms if d.is_finite)
        assert abs(low - report.inf_dif.value) <= 1e-9
    if report.inf_dif.is_top:
        assert all(d.is_top for d in d_terms)

    # grid view of condition (a); Top sups escape the grid only through
    # ray growth, which the pointwise scan still catches at far points
    assert a_ok == report.a_pointwise


class TestMinorantConditions:
    def test_all_conditions_agree(self):
        for g in mixed_corpus(1103, 40):
            for xi in candidate_duals(g):
                for r in (-2.0, 0.0, 1.5):
                    rep = minorant_conditions(g, xi, r)
                    assert rep.all_agree, (g, xi, r, rep)
                    minorant_grid_check(g, xi, r, rep)

    def test_hat_minorant_collapses_sup(self):
        # once a hat lies below g the sup of differences is Bottom and
        # the reversed inf is Top
        g = improper_split(0.0, INF)
        rep = minorant_conditions(g, DualElem.hat(-1.0), 0.0)
        assert rep.a_pointwise
        assert rep.sup_dif == BOT
        assert rep.inf_dif == DTOP

    def test_proper_frozen_values(self):
        rep = minorant_conditions(abs_fn(), DualElem.proper(0.5), 1.0)
        assert rep.a_pointwise
        assert rep.sup_dif == UpReal(-1.0)
        assert rep.inf_dif == DownReal(1.0)
        rep = minorant_conditions(abs_fn(), DualElem.proper(2.0), 0.0)
        assert not rep.a_pointwise
        assert rep.sup_dif == TOP
        assert rep.inf_dif == DBOT

    def test_witness_for_improper_functions(self):
        rng = np.random.default_rng(1104)
        gs = [ConstTop(), improper_split(0.0, INF), improper_split(-INF, 3.0),
              improper_split(-1.0, 1.0)]
        for _ in range(20):
            g = random_improper_split(rng)
            if not isinstance(g, ConstBottom):
                gs.append(g)
        for g in gs:
            xi, r = hat_minorant_witness(g)
            assert xi.is_hat and xi.a != 0
            rep = minorant_conditions(g, xi, r)
            assert rep.a_pointwise
            minorant_grid_check(g, xi, r, rep)

    def test_witness_rejections(self):
        with pytest.raises(ValueError):
            hat_minorant_witness(ConstBottom())
        with pytest.raises(ValueError):
            hat_minorant_witness(abs_fn())


# ---------------------------------------------------------------------------
# Subdifferential vs conjugate characterization.
# ---------------------------------------------------------------------------


class TestSubdiffConjugate:
    def test_abs_at_kink(self):
        rep = subdiff_conjugate_check(abs_fn(), 0.0)
        assert rep.x0_in_dom and rep.agree
        rows = dict((label, (u, v)) for label, u, v in rep.probes)
        assert rows["proper:1.0"] == (True, True)
        assert rows["proper:1.5"] == (False, False)
        assert all(label.startswith("proper:") for label in rows)

    def test_split_edge(self):
        rep = subdiff_conjugate_check(improper_split(0.0, INF), 0.0)
        assert rep.agree
        rows = dict((label, (u, v)) for label, u, v in rep.probes)
        assert all(label.startswith("proper:") for label in rows)
        assert rows["proper:0.0"] == (False, False)

    def test_outside_domain(self):
        rep = subdiff_conjugate_check(improper_split(0.0, INF), -2.0)
        assert not rep.x0_in_dom
        assert rep.agree

    def test_labels_read_back_as_slopes(self):
        # six significant digits would give these 8 probes 6 labels
        g = pl([(0, 0), (1, 1.0000001)], slope_left=-1, slope_right=1.0000003)
        rep = subdiff_conjugate_check(g, 1.0)
        labels = [label for label, _, _ in rep.probes]
        assert len(labels) == len(set(labels)) == 8
        assert [float(label[7:]) for label in labels] == calculus._probe_slopes(g)

    def test_randomized_agreement(self):
        for g in convex_corpus(1205, 45):
            for x0 in x0_probes(g):
                rep = subdiff_conjugate_check(g, x0)
                assert rep.agree, (g, x0, rep.probes)
