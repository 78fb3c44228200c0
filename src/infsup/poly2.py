"""Closed convex polyhedra in the plane.

Everything is kept in both representations at once: a canonical list of
halfplanes (the source of truth for membership) and a generator pair
(vertices plus recession rays, with P = conv(verts) + cone(rays)).

``from_halfplanes`` is the one construction path; ``from_generators``
turns a hull and rays into rows and goes through it too.  It sorts the
rows by normal angle, keeps the tightest row per direction, and clips
each row's boundary line by every other row to an interval of positions
along it, O(k^2) for k rows.  Rows whose interval has positive length
are the edges, in counterclockwise order; their finite interval ends are
the vertices and their infinite ends give the recession rays.  A pair of
opposite rows with touching lines makes the set flat (a segment, halfline
or line), and rows that all touch at one point make it a point; both get
a canonical row list of their own.  No linear programming and no vertex
search is needed in the plane.  Tolerance is 1e-9 throughout on roughly
unit-scale data.

The algebra goes through support functions: ``minkowski`` adds them,
h_{A+B} = h_A + h_B, and ``validate`` rebuilds the set from ``hs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

TOL = 1e-9
INF = math.inf


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _rot90(a):
    return (-a[1], a[0])


def _rot270(a):
    return (a[1], -a[0])


def _neg(a):
    return (-a[0], -a[1])


def _norm(a):
    return math.hypot(a[0], a[1])


def _unit(a):
    n = _norm(a)
    if n <= TOL:
        raise ValueError(f"cannot normalize a zero vector: {a}")
    return (a[0] / n, a[1] / n)


def _angle(a):
    t = math.atan2(a[1], a[0])
    return t + 2.0 * math.pi if t < 0 else t


def _half_hull(pts, tol):
    """One monotone chain over sorted points, without its last point.

    The chain's last point goes when it is not more than ``tol`` to the
    right of the chord from the point before it to the incoming point.
    """
    chain = []
    for p in pts:
        while len(chain) >= 2:
            (ax, ay), (bx, by) = chain[-2], chain[-1]
            # cross((b - a), (p - b)) is |p - a| times how far b lies right of the chord a -> p
            if _cross((bx - ax, by - ay), (p[0] - bx, p[1] - by)) > tol * _norm((p[0] - ax, p[1] - ay)):
                break
            chain.pop()
        chain.append(p)
    return chain[:-1]


def _hull_ccw(points):
    """Monotone-chain convex hull, counterclockwise, with points within
    TOL times the data's size (at least 1) of a hull edge removed.
    Returns the degenerate chains as they are."""
    pts = sorted(set((round(p[0], 12), round(p[1], 12)) for p in points))
    if len(pts) > 2:
        tol = TOL * max(1.0, *(abs(c) for p in pts for c in p))
        pts = _half_hull(pts, tol) + _half_hull(reversed(pts), tol)
    return [tuple(map(float, p)) for p in pts]


@dataclass(frozen=True)
class ConvexPoly2:
    """A closed convex subset of the plane, possibly empty or unbounded.

    ``hs`` lists canonical halfplanes (unit normal, offset) whose
    intersection is the set; ``verts`` and ``rays`` generate the same
    set as conv(verts) + cone(rays).  For bounded sets verts is the
    counterclockwise vertex ring; for unbounded full-dimensional sets it
    is the finite boundary chain and rays holds the recession
    directions in counterclockwise span order.
    """

    empty: bool
    hs: tuple
    verts: tuple
    rays: tuple

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty_set(cls):
        return cls(empty=True, hs=(), verts=(), rays=())

    @classmethod
    def plane(cls):
        return cls(
            empty=False,
            hs=(),
            verts=((0.0, 0.0),),
            rays=((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)),
        )

    @classmethod
    def from_halfplanes(cls, halfplanes):
        """Build from (normal, offset) pairs meaning normal . z <= offset.

        Row i's boundary line is p_i + t d_i with p_i = c_i n_i and
        d_i = rot90(n_i), so the set lies on its left.  Clipping by row
        j bounds t from above when n_j . d_i > 0 and from below when it
        is < 0; a parallel row j keeps the whole line or empties the set.
        """
        rows = _clean_rows(halfplanes)
        if rows is None:
            return cls.empty_set()
        if not rows:
            return cls.plane()
        spans = []  # the rows whose boundary line meets the set
        flat = None  # the span whose line an opposite row pins the set to
        for i, (n, c) in enumerate(rows):
            d = _rot90(n)
            p = (c * n[0], c * n[1])
            lo, hi = -INF, INF
            pinned = False
            for j, (m, e) in enumerate(rows):
                if j == i:
                    continue
                a = _dot(m, d)
                b = e - _dot(m, p)
                if abs(a) <= TOL:  # opposite rows, as _clean_rows merged the rest
                    slack = TOL * (1 + abs(c) + abs(e))
                    if b < -slack:
                        return cls.empty_set()
                    pinned = pinned or b <= slack
                elif a > 0:
                    hi = min(hi, b / a)
                else:
                    lo = max(lo, b / a)
            gap = hi - lo
            tol = TOL * (1 + abs(c) + abs(lo) + abs(hi)) if gap < INF else 0.0
            if gap < -tol:
                continue
            span = _Span(n, c, p, d, lo, hi, gap > tol)
            spans.append(span)
            if pinned and flat is None:
                flat = span
        if not spans:
            return cls.empty_set()
        if flat is not None:
            if flat.is_edge:
                return _canon_flat(flat.p, flat.d, flat.lo, flat.hi)
            return _canon_point(flat.at(flat.lo))
        edges = [s for s in spans if s.is_edge]
        if not edges:  # every row touches the set at the same point
            return _canon_point(spans[0].at(spans[0].lo))
        hs = tuple((s.n, s.c) for s in edges)
        first = next((k for k, s in enumerate(edges) if s.lo == -INF), None)
        if first is None:
            verts = tuple(s.at(s.lo) for s in edges)
            return cls(empty=False, hs=hs, verts=verts, rays=())
        edges = edges[first:] + edges[:first]
        into = edges[0]
        if into.hi == INF:  # whole lines: a halfplane or a strip
            verts = tuple(s.p for s in edges)
            d = into.d
            rays = (d, _neg(into.n), _neg(d)) if len(edges) == 1 else (d, _neg(d))
            return cls(empty=False, hs=hs, verts=verts, rays=rays)
        verts = tuple(s.at(s.hi) for s in edges[:-1])
        out, back = edges[-1].d, _neg(into.d)
        rays = (out,) if _same_direction(out, back) else (out, back)
        return cls(empty=False, hs=hs, verts=verts, rays=rays)

    @classmethod
    def from_generators(cls, verts, rays=()):
        verts = [tuple(map(float, v)) for v in verts]
        rays = [_unit(r) for r in rays if _norm(r) > TOL]
        if not verts:
            return cls.empty_set()
        hull = _hull_ccw(verts)
        cands = []
        if len(hull) >= 3:
            for a, b in zip(hull, hull[1:] + hull[:1]):
                e = (b[0] - a[0], b[1] - a[1])
                cands.append(_unit(_rot270(e)))
        elif len(hull) == 2:
            u = _unit((hull[1][0] - hull[0][0], hull[1][1] - hull[0][1]))
            cands += [_rot90(u), _rot270(u), u, _neg(u)]
        for r in rays:
            cands += [_rot90(r), _rot270(r), _neg(r)]
        cands += [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
        free = [n for n in cands if all(_dot(n, r) <= TOL for r in rays)]
        return cls.from_halfplanes([(n, max(_dot(n, v) for v in hull)) for n in free])

    # -- basic queries -------------------------------------------------------

    def contains(self, p, tol=1e-7):
        if self.empty:
            return False
        s = tol * (1 + _norm(p))
        return all(_dot(n, p) <= c + s for n, c in self.hs)

    def support(self, d):
        """sup of d . z over the set; -inf when empty, +inf when a
        recession ray points along d."""
        if self.empty:
            return -INF
        if any(_dot(d, r) > TOL for r in self.rays):
            return INF
        return max(_dot(d, v) for v in self.verts)

    def recession_contains(self, d, tol=TOL):
        if self.empty:
            return False
        s = tol * (1 + _norm(d))
        return all(_dot(n, d) <= s for n, c in self.hs)

    def is_subset(self, other, tol=1e-7):
        if self.empty:
            return True
        return all(other.contains(v, tol) for v in self.verts) and all(
            other.recession_contains(r, tol) for r in self.rays
        )

    def same_set(self, other, tol=1e-7):
        return self.is_subset(other, tol) and other.is_subset(self, tol)

    def validate(self, tol=1e-7):
        """Rebuild the set from ``hs`` alone; the rebuilt generators must be
        ``verts`` and ``rays`` as point sets within ``tol``."""
        if self.empty:
            return self.hs == self.verts == self.rays == ()
        H = ConvexPoly2.from_halfplanes(self.hs)
        return _same_points(self.verts, H.verts, tol) and _same_points(self.rays, H.rays, tol)

    # -- algebra -------------------------------------------------------------

    def minkowski(self, other):
        """A + B from h_{A+B} = h_A + h_B on the normals of both row lists,
        which hold every edge normal of A + B (flats list both sides).  A
        row whose summed support is +inf bounds nothing and is dropped."""
        if self.empty or other.empty:
            return ConvexPoly2.empty_set()
        rows = [(n, self.support(n) + other.support(n)) for n, _ in self.hs + other.hs]
        return ConvexPoly2.from_halfplanes([(n, h) for n, h in rows if h < INF])


def intersect_all(polys):
    """Intersection of finitely many polyhedra (the plane for none)."""
    hs = []
    for p in polys:
        if p.empty:
            return ConvexPoly2.empty_set()
        hs.extend(p.hs)
    return ConvexPoly2.from_halfplanes(hs)


def hull_union(polys):
    """Closed convex hull of a finite union (empty for none)."""
    verts, rays = [], []
    for p in polys:  # an empty operand has no generators
        verts.extend(p.verts)
        rays.extend(p.rays)
    return ConvexPoly2.from_generators(verts, rays)


# ---------------------------------------------------------------------------
# Construction internals.
# ---------------------------------------------------------------------------


def _clean_rows(halfplanes):
    """Unit-normal rows sorted by normal angle, the tightest one per
    direction.  None flags an infeasible zero-normal row (empty set)."""
    rows = []
    for n, c in halfplanes:
        n = (float(n[0]), float(n[1]))
        c = float(c)
        if not all(map(math.isfinite, (n[0], n[1], c))):
            raise ValueError(f"halfplane row must be finite, got normal {n}, offset {c}")
        ln = _norm(n)
        if ln <= TOL:
            if c < -TOL:
                return None
            continue
        rows.append(((n[0] / ln, n[1] / ln), c / ln))
    rows.sort(key=lambda r: _angle(r[0]))
    out = []
    for n, c in rows:
        if out and _same_direction(n, out[-1][0]):
            out[-1] = (out[-1][0], min(c, out[-1][1]))
        else:
            out.append((n, c))
    if len(out) > 1 and _same_direction(out[0][0], out[-1][0]):  # angles near 0 and 2 pi
        _, c = out.pop()
        out[0] = (out[0][0], min(c, out[0][1]))
    return out


def _same_points(ps, qs, tol):
    """Equal counts, and each point of either list within tol of one in the
    other; the search for point i starts at index i, the usual match."""
    k = len(ps)

    def near(p, b, i):  # p is within tol of a point of b, searched from b[i] on
        return any(_norm((p[0] - b[j % k][0], p[1] - b[j % k][1])) <= tol * (1 + _norm(p)) for j in range(i, i + k))

    return len(qs) == k and all(near(ps[i], qs, i) and near(qs[i], ps, i) for i in range(k))


def _same_direction(n, m):
    """Unit normals parallel within TOL and not opposite."""
    return abs(_cross(n, m)) <= TOL and _dot(n, m) > 0


class _Span(NamedTuple):
    """Row n . z <= c whose boundary line p + t d meets the set for lo <= t <= hi."""

    n: tuple
    c: float
    p: tuple
    d: tuple
    lo: float
    hi: float
    is_edge: bool  # the interval has positive length

    def at(self, t):
        return _at(self.p, self.d, t)


def _at(p, d, t):
    return (p[0] + t * d[0], p[1] + t * d[1])


def _canon_point(p):
    hs = (
        ((1.0, 0.0), p[0]),
        ((0.0, 1.0), p[1]),
        ((-1.0, 0.0), -p[0]),
        ((0.0, -1.0), -p[1]),
    )
    return ConvexPoly2(empty=False, hs=hs, verts=(p,), rays=())


def _canon_flat(p, u, lo, hi):
    """The segment, halfline or line {p + t u : lo <= t <= hi}."""
    n = _rot90(u)
    c = _dot(n, p)
    s = _dot(u, p)
    hs, verts, rays = [(n, c), (_neg(n), -c)], [], []
    if hi < INF:
        hs.append((u, s + hi))
        verts.append(_at(p, u, hi))
    else:
        rays.append(u)
    if lo > -INF:
        hs.append((_neg(u), -s - lo))
        verts.append(_at(p, u, lo))
    else:
        rays.append(_neg(u))
    return ConvexPoly2(
        empty=False, hs=tuple(hs), verts=tuple(verts) or (p,), rays=tuple(rays)
    )
