"""Tests for the planar polyhedra of ``infsup.poly2``.

Every check compares against a route that shares no code with the
construction: the raw halfplane system for membership, a brute-force
enumeration of pairwise boundary crossings for vertices, support
functions computed from closed-form polygon vertices, and the hull of
all pairwise vertex sums for Minkowski sums.  The fuzz is sampled
(seeded systems), not exhaustive.
"""

import math

import numpy as np
import pytest

from infsup.poly2 import TOL, ConvexPoly2, _hull_ccw, hull_union, intersect_all

build = ConvexPoly2.from_halfplanes


def _u(t):
    return (math.cos(t), math.sin(t))


# (name, halfplanes, empty, number of vertices, number of rays)
DEGENERATE = [
    ("infeasible zero row", [((0.0, 0.0), -1.0), ((1.0, 0.0), 1.0)], True, 0, 0),
    ("plane", [], False, 1, 4),
    ("vacuous zero row", [((0.0, 0.0), 1.0)], False, 1, 4),
    ("halfplane", [((0.0, 2.0), 2.0)], False, 1, 3),
    ("strip", [((0.0, 1.0), 1.0), ((0.0, -1.0), 1.0)], False, 2, 2),
    ("line", [((0.0, 1.0), 1.0), ((0.0, -1.0), -1.0)], False, 1, 2),
    ("empty slab", [((0.0, 1.0), -1.0), ((0.0, -1.0), -1.0)], True, 0, 0),
    ("thin strip", [((0.0, 1.0), 1e-6), ((0.0, -1.0), 0.0)], False, 2, 2),
    ("thin empty slab", [((0.0, 1.0), 0.0), ((0.0, -1.0), -1e-6)], True, 0, 0),
    ("wedge", [((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0)], False, 1, 2),
    ("halfline", [((0.0, 1.0), 0.0), ((0.0, -1.0), 0.0), ((1.0, 0.0), 0.0)], False, 1, 1),
    (
        "segment",
        [((0.0, 1.0), 0.0), ((0.0, -1.0), 0.0), ((1.0, 0.0), 1.0), ((-1.0, 0.0), 0.0)],
        False,
        2,
        0,
    ),
    (
        "point",
        [((1.0, 0.0), 0.5), ((-1.0, 0.0), -0.5), ((0.0, 1.0), 0.25), ((0.0, -1.0), -0.25)],
        False,
        1,
        0,
    ),
    (
        "point from three rows",
        [((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((-1.0, -1.0), 0.0)],
        False,
        1,
        0,
    ),
    ("triangle", [((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0), ((-1.0, -1.0), 1.0)], False, 3, 0),
    (
        "empty triangle",
        [((1.0, 0.0), -1.0), ((0.0, 1.0), -1.0), ((-1.0, -1.0), 1.0)],
        True,
        0,
        0,
    ),
    ("ray recession", [((0.0, 1.0), 1.0), ((0.0, -1.0), 0.0), ((-1.0, 0.0), 0.0)], False, 2, 1),
    ("open corner", [((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0), ((-1.0, -1.0), -1.0)], False, 2, 2),
    (
        "duplicate directions",
        [
            ((1.0, 0.0), 1.0),
            ((2.0, 0.0), 1.0),
            ((1.0, -1e-12), 3.0),
            ((0.0, 1.0), 1.0),
            ((0.0, 3.0), 9.0),
            ((-1.0, -1.0), 1.0),
        ],
        False,
        3,
        0,
    ),
]


CASES = {name: hps for name, hps, *_ in DEGENERATE}


@pytest.mark.parametrize("name,hps,empty,nv,nr", DEGENERATE, ids=[c[0] for c in DEGENERATE])
def test_degenerate_table(name, hps, empty, nv, nr):
    P = build(hps)
    assert P.empty is empty
    assert (len(P.verts), len(P.rays)) == (nv, nr)
    assert P.validate()
    rows = [(n, c) for n, c in hps if math.hypot(*n) > 0]
    for n, c in rows:
        assert P.support(n) <= c + 1e-9
    for x in np.arange(-1.5, 1.75, 0.25):
        for y in np.arange(-1.5, 1.75, 0.25):
            p = (float(x), float(y))
            inside = not empty and (not rows or _raw_margin(rows, p) <= 1e-12)
            assert P.contains(p) == inside, p


@pytest.mark.parametrize(
    "rows,verts",
    [(slice(0, 2), slice(None)), (slice(None), slice(0, 2))],
    ids=["row dropped, contains (-5, -5)", "vertex dropped"],
)
def test_validate_rejects_rows_and_generators_that_disagree(rows, verts):
    T = build(CASES["triangle"])
    assert T.validate()
    assert not ConvexPoly2(False, T.hs[rows], T.verts[verts], T.rays).validate()


def test_duplicate_directions_keep_the_tightest_row():
    P = build(CASES["duplicate directions"])
    assert sorted(P.verts) == sorted([(0.5, 1.0), (0.5, -1.5), (-2.0, 1.0)])


@pytest.mark.parametrize(
    "hps",
    [
        [((math.nan, 0.0), 1.0), ((0.0, 1.0), 1.0)],
        [((1.0, 0.0), math.nan)],
        [((1.0, 0.0), math.inf), ((-1.0, 0.0), 0.0)],
        [((0.0, -math.inf), 0.0)],
    ],
)
def test_rejects_non_finite_rows(hps):
    with pytest.raises(ValueError, match="finite"):
        build(hps)


def test_rejects_non_finite_generators():
    with pytest.raises(ValueError):
        ConvexPoly2.from_generators([(0.0, 0.0), (math.inf, 1.0), (1.0, 1.0)])


def _raw_margin(hps, p):
    """max over rows of the signed distance of p past the row's boundary."""
    return max((n[0] * p[0] + n[1] * p[1] - c) / math.hypot(*n) for n, c in hps)


def _feasible_crossings(hps, tol):
    """Every crossing of two non-parallel boundary lines that meets all rows."""
    out = []
    for i, (ni, ci) in enumerate(hps):
        for nj, cj in hps[i + 1 :]:
            det = ni[0] * nj[1] - ni[1] * nj[0]
            if abs(det) <= 1e-6:
                continue
            p = ((ci * nj[1] - cj * ni[1]) / det, (ni[0] * cj - nj[0] * ci) / det)
            if _raw_margin(hps, p) <= tol:
                out.append(p)
    return out


def _raw_feasible(hps, tol):
    """Whether the system has a point with margin <= tol.  Rows with normals
    spanning the plane leave a pointed set, which is non-empty iff it has a
    vertex; rows along one line are feasible iff opposite rows leave a gap."""
    n0 = hps[0][0]
    if all(abs(n0[0] * n[1] - n0[1] * n[0]) <= 1e-12 for n, _ in hps):
        up = [c for n, c in hps if n[0] * n0[0] + n[1] * n0[1] > 0]
        down = [c for n, c in hps if n[0] * n0[0] + n[1] * n0[1] < 0]
        return not up or not down or min(up) + min(down) >= -2 * tol
    return bool(_feasible_crossings(hps, tol))


def _random_system(rng, grid):
    k = int(rng.integers(1, 7))
    if grid:
        angles = rng.integers(0, 16, size=k) * (math.pi / 8)
    else:
        angles = rng.uniform(0, 2 * math.pi, size=k)
    hps = [(_u(t), float(c)) for t, c in zip(angles, rng.uniform(-0.5, 1.5, size=k))]
    if rng.random() < 0.2:  # a flat set: one row and its exact opposite
        n, c = hps[int(rng.integers(k))]
        hps.append(((-n[0], -n[1]), -c))
    return hps


@pytest.mark.parametrize("grid", [True, False], ids=["pi/8 grid", "random angles"])
def test_halfplane_fuzz(grid):
    rng = np.random.default_rng(20101114 + grid)
    kinds = set()
    for _ in range(1000):
        hps = _random_system(rng, grid)
        P = build(hps)
        assert P.validate(), hps
        kinds.add((P.empty, len(P.rays)))
        for p in rng.uniform(-3.0, 3.0, size=(12, 2)):
            m = _raw_margin(hps, p)
            if abs(m) > 1e-6:
                assert P.contains(tuple(p)) == (m < 0), (hps, p)
        if _raw_feasible(hps, -1e-7):
            assert not P.empty, hps
        if not _raw_feasible(hps, 1e-6):
            assert P.empty, hps
        crossings = _feasible_crossings(hps, 1e-9)
        for q in crossings:
            d = min(math.hypot(q[0] - v[0], q[1] - v[1]) for v in P.verts)
            assert d <= 1e-7 * (1 + math.hypot(*q)), (hps, q, P.verts)
    # the fuzz reaches empty sets and every recession shape a pointed set can have
    assert {(True, 0), (False, 0), (False, 1), (False, 2)} <= kinds


def tangent_polygon(rng, k, center, radius):
    """Halfplanes tangent to a circle at jittered angles, and the vertices in
    closed form.  For k >= 4 every angular gap stays below pi, so the polygon
    is bounded."""
    th = np.sort(np.mod(2 * np.pi * (np.arange(k) + 0.8 * rng.random(k)) / k + rng.uniform(0, 2 * np.pi), 2 * np.pi))
    hp = [(_u(t), math.cos(t) * center[0] + math.sin(t) * center[1] + radius) for t in th]
    nxt = np.roll(th, -1)
    nxt[-1] += 2 * np.pi
    mid, half = (th + nxt) / 2, (nxt - th) / 2
    verts = np.stack([center[0] + radius * np.cos(mid) / np.cos(half), center[1] + radius * np.sin(mid) / np.cos(half)], 1)
    return hp, verts


def _operands(rng):
    """Two bounded polygons, a wedge and a halfline, with their vertices or None."""
    hp, vp = tangent_polygon(rng, int(rng.integers(4, 12)), rng.uniform(-1, 1, 2), 1.0)
    hq, vq = tangent_polygon(rng, int(rng.integers(4, 12)), rng.uniform(-1, 1, 2), 0.5)
    t = rng.uniform(0, 2 * np.pi)
    wedge = [(_u(t), 0.3), (_u(t + 2.0), 0.1)]
    n = _u(rng.uniform(0, 2 * np.pi))
    halfline = [(n, 0.2), ((-n[0], -n[1]), -0.2), ((n[1], -n[0]), 0.5)]
    return [(hp, vp), (hq, vq), (wedge, None), (halfline, None)]


DIRS = [_u(t) for t in np.linspace(0, 2 * np.pi, 64, endpoint=False) + 0.01]
DEGENERATE_POLYS = [build(hps) for _, hps, *_ in DEGENERATE]
FLAT_POLYS = [build(CASES[name]) for name in ("plane", "halfplane", "strip", "line", "halfline", "segment", "point")]


def _minkowski_by_vertex_sums(A, B):
    """The pairwise route: the hull of every vertex sum plus both ray lists
    (no vertex sum when an operand is empty, so the empty set)."""
    sums = [(a[0] + b[0], a[1] + b[1]) for a in A.verts for b in B.verts]
    return ConvexPoly2.from_generators(sums, A.rays + B.rays)


def _close(got, want):
    return got == want if math.isinf(want) else abs(got - want) <= 1e-7 * (1 + abs(want))


def test_minkowski_matches_vertex_sums():
    rng = np.random.default_rng(4004)
    pairs = [(A, B) for A in DEGENERATE_POLYS for B in DEGENERATE_POLYS]
    for _ in range(40):
        polys = [build(hps) for hps, _ in _operands(rng)]
        pairs += [(A, B) for A in polys for B in polys + FLAT_POLYS]
    for A, B in pairs:
        S, want = A.minkowski(B), _minkowski_by_vertex_sums(A, B)
        assert S.validate() and S.empty is want.empty and S.same_set(want), (A, B)
        assert (len(S.verts), len(S.rays)) == (len(want.verts), len(want.rays)), (A, B)


def test_vertex_sums_along_a_long_edge_add_no_vertex():
    # the sums of adjacent vertices of A lie on the edges of 2A; rounding
    # pushes some of them about 1e-12 outside, which the hull must not keep
    rows = [
        ((0.7906987897172065, 0.6122053772548431), 0.5050659897443803),
        ((3.408619616397363e-05, 0.9999999994190656), 0.8581697894682495),
        ((-0.7683722279462962, -0.6400032182113188), 1.4873523421029153),
        ((0.6128469260711074, -0.7902016484449996), 0.795742426291709),
    ]
    for scale in (1e-3, 1.0, 1e3, 1e6):
        A = build([(n, c * scale) for n, c in rows])
        want = A.minkowski(A)
        got = _minkowski_by_vertex_sums(A, A)
        assert len(want.verts) == len(got.verts) == 4, (scale, got.verts)
        for v in got.verts:
            assert min(math.hypot(v[0] - w[0], v[1] - w[1]) for w in want.verts) <= 1e-9 * scale, (scale, v)


def test_hull_drops_points_within_tolerance_of_an_edge_at_every_scale():
    # three points on the hypotenuse of a right triangle of size s, pushed
    # outward together: by 0.1 * TOL * s they sit on the edge as far as the
    # hull can tell; by 1e3 * TOL * s the outer two are vertices and the
    # middle one lies on the chord between them
    for s in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        counts = []
        for rel in (0.1, 1e3):
            push = rel * TOL * max(1.0, s) / math.sqrt(2.0)
            on_edge = [(s * t + push, s * (1.0 - t) + push) for t in (0.25, 0.5, 0.8)]
            counts.append(len(_hull_ccw([(0.0, 0.0), (s, 0.0), (0.0, s), *on_edge])))
        assert counts == [3, 5], s


def test_support_identities():
    rng = np.random.default_rng(1011)
    for A in DEGENERATE_POLYS:
        for B in DEGENERATE_POLYS:
            if not (A.empty or B.empty):
                S = A.minkowski(B)
                assert all(_close(S.support(d), A.support(d) + B.support(d)) for d in DIRS), (A, B)
    for _ in range(40):
        ops = _operands(rng)
        polys = [build(hps) for hps, _ in ops]
        for (hps, verts), P in zip(ops, polys):
            if verts is not None:
                for d in DIRS:
                    want = float(np.max(verts @ np.asarray(d)))
                    assert P.support(d) == pytest.approx(want, abs=1e-9)
        for A in polys:
            for B in polys:
                S, H = A.minkowski(B), hull_union([A, B])
                assert S.validate() and H.validate()
                for d in DIRS:
                    assert _close(S.support(d), A.support(d) + B.support(d))
                    assert _close(H.support(d), max(A.support(d), B.support(d)))
        I = intersect_all(polys[:2] + polys[2:3])
        assert I.validate()
        for p in rng.uniform(-2.5, 2.5, size=(64, 2)):
            p = tuple(p)
            margins = [_raw_margin(hps, p) for hps, _ in ops[:3]]
            if min(abs(m) for m in margins) > 1e-6:
                assert I.contains(p) == all(m < 0 for m in margins)
                assert I.contains(p) == all(P.contains(p) for P in polys[:3])


def test_empty_and_plane_operands():
    E, R2 = ConvexPoly2.empty_set(), ConvexPoly2.plane()
    T = build(CASES["triangle"])
    assert T.minkowski(E).empty and E.minkowski(T).empty
    assert intersect_all([T, E]).empty
    assert intersect_all([]).same_set(R2)
    assert hull_union([]).empty and hull_union([E, T]).same_set(T)
    assert T.minkowski(R2).same_set(R2)
    assert E.support((1.0, 0.0)) == -math.inf and R2.support((0.0, 1.0)) == math.inf
    assert T.is_subset(R2) and not R2.is_subset(T) and E.is_subset(T)


def test_sizes():
    rng = np.random.default_rng(128)
    hp, verts = tangent_polygon(rng, 128, (0.2, -0.1), 1.0)
    hq, _ = tangent_polygon(rng, 128, (0.4, 0.1), 0.8)
    P, Q = build(hp), build(hq)
    assert (len(P.verts), len(P.rays), len(Q.verts)) == (128, 0, 128)
    for v in verts:
        assert min(math.hypot(v[0] - w[0], v[1] - w[1]) for w in P.verts) <= 1e-9
    W = build([(_u(0.3), 0.3), (_u(2.5), 0.2)])
    I = intersect_all([P, Q, W])
    assert not I.empty and I.validate()
    assert P.minkowski(Q).validate()
