"""Closed convex polyhedra in the plane.

Everything is kept in both representations at once: a canonical list of
halfplanes (the source of truth for membership) and a generator pair
(vertices plus recession rays, with P = conv(verts) + cone(rays)).

``from_halfplanes`` is the one construction path; ``from_generators``
turns a hull and rays into rows and goes through it too.  It sorts the
rows by normal angle, keeps the tightest row per direction, and clips
each row's boundary line by every other row to an interval of positions
along it.  Rows whose interval has positive length
are the edges, in counterclockwise order; their finite interval ends are
the vertices and their infinite ends give the recession rays.  A pair of
opposite rows with touching lines makes the set flat (a segment, halfline
or line), and rows that all touch at one point make it a point; both get
a canonical row list of their own.  No linear programming and no vertex
search is needed in the plane.  Construction works to ``TOL`` = 1e-9 on
roughly unit-scale data.  Every set query (``contains``, ``is_subset``,
``same_set``, ``validate``) uses the one looser ``QUERY_TOL`` = 1e-7,
times 1 + |p| at a point or direction p, so that a vertex or ray that
construction placed within rounding of a boundary still counts as inside.

The algebra goes through support functions: ``minkowski`` adds them,
h_{A+B} = h_A + h_B, and ``validate`` rebuilds the set from ``hs``.

The two all-pairs steps run as numpy passes: ``_clip`` clips all k rows
against each other (k^2 row pairs), and ``_max_dots`` takes the support
values of many directions over all vertices at once; ``support``,
``supports`` (the batch query under ``minkowski`` and
``setvalued.residual``) and ``from_generators`` read it.  Both do the
scalar arithmetic of a per-row loop in the same order, so their results
are those of the loop bit for bit (``tests/test_poly2_arrays.py`` holds
the loops).  Both take their rows in blocks of at most ``BLOCK`` pairs,
so that their temporaries stay at a few ``BLOCK``-element arrays for any
number of rows; the value comes from a measured time and peak-memory
table (CHANGES.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

TOL = 1e-9
QUERY_TOL = 1e-7
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


def _unit(a, tol=TOL):
    n = _norm(a)
    if n <= tol:
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


def _size_unit(points):
    """The largest coordinate, capped at 1: the unit that tolerances on
    lengths shrink to below unit-size data (0 when every point is 0)."""
    return min(1.0, max(abs(c) for p in points for c in p))


def _hull_ccw(points):
    """Monotone-chain convex hull, counterclockwise, with points within
    TOL times the data's size (at least 1) of a hull edge removed.
    Coordinates are first rounded to 12 decimals of ``_size_unit``.
    Returns the degenerate chains as they are."""
    unit = _size_unit(points)
    digits = 12 - math.floor(math.log10(unit)) if unit > 0 else 12
    pts = sorted(set((round(p[0], digits), round(p[1], digits)) for p in points))
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
        clipped = _clip(rows)
        if clipped is None:
            return cls.empty_set()
        spans = []  # the rows whose boundary line meets the set
        flat = None  # the span whose line an opposite row pins the set to
        for (n, c), lo, hi, pinned in zip(rows, *clipped):
            gap = hi - lo
            tol = TOL * (1 + abs(c) + abs(lo) + abs(hi)) if gap < INF else 0.0
            if gap < -tol:
                continue
            span = _Span(n, c, (c * n[0], c * n[1]), _rot90(n), lo, hi, gap > tol)
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
        """conv(verts) + cone(rays), empty when there is no vertex.

        Tolerances on lengths scale with the data below unit size: the
        hull rounds to 12 decimals, and an edge shorter than ``TOL``
        cannot give a normal, both relative to the largest coordinate
        when it is below 1.
        """
        verts = [_finite(v, "vertex") for v in verts]
        rays = [_unit(r) for r in (_finite(r, "ray") for r in rays) if _norm(r) > TOL]
        if not verts:
            return cls.empty_set()
        unit = _size_unit(verts)
        hull = _hull_ccw(verts)
        cands = []
        if len(hull) >= 3:
            for a, b in zip(hull, hull[1:] + hull[:1]):
                e = (b[0] - a[0], b[1] - a[1])
                cands.append(_unit(_rot270(e), TOL * unit))
        elif len(hull) == 2:
            u = _unit((hull[1][0] - hull[0][0], hull[1][1] - hull[0][1]), TOL * unit)
            cands += [_rot90(u), _rot270(u), u, _neg(u)]
        for r in rays:
            cands += [_rot90(r), _rot270(r), _neg(r)]
        cands += [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
        h = _max_dots(cands, *_generators(hull, rays)).tolist()
        return cls.from_halfplanes([(n, c) for n, c in zip(cands, h) if c < INF])

    # -- basic queries -------------------------------------------------------

    def contains(self, p):
        if not (math.isfinite(p[0]) and math.isfinite(p[1])):
            raise ValueError(f"point must be finite, got {p}")
        if self.empty:
            return False
        s = QUERY_TOL * (1 + _norm(p))
        return all(_dot(n, p) <= c + s for n, c in self.hs)

    def support(self, d):
        """sup of d . z over the set; -inf when empty, +inf when a
        recession ray points along d."""
        if not (math.isfinite(d[0]) and math.isfinite(d[1])):
            raise ValueError(f"direction must be finite, got {d}")
        if self.empty:
            return -INF
        return float(_max_dots([d], *self._gens)[0])

    def supports(self, dirs):
        """``support`` of each direction in ``dirs``, as a list, in one array pass."""
        D = np.asarray(dirs, dtype=float).reshape(-1, 2)
        if not np.isfinite(D).all():
            i = int(np.flatnonzero(~np.isfinite(D).all(axis=1))[0])
            raise ValueError(f"direction must be finite, got {tuple(D[i].tolist())}")
        if self.empty:
            return [-INF] * len(D)
        return _max_dots(D, *self._gens).tolist()

    @cached_property
    def _gens(self):
        """The generators in the form ``_max_dots`` reads, made on first use."""
        return _generators(self.verts, self.rays)

    def recession_contains(self, d):
        if not (math.isfinite(d[0]) and math.isfinite(d[1])):
            raise ValueError(f"direction must be finite, got {d}")
        if self.empty:
            return False
        s = QUERY_TOL * (1 + _norm(d))
        return all(_dot(n, d) <= s for n, c in self.hs)

    def is_subset(self, other):
        if self.empty:
            return True
        return all(other.contains(v) for v in self.verts) and all(
            other.recession_contains(r) for r in self.rays
        )

    def same_set(self, other):
        return self.is_subset(other) and other.is_subset(self)

    def validate(self):
        """Rebuild the set from ``hs`` alone; the rebuilt generators must be
        ``verts`` and ``rays`` as point sets within ``QUERY_TOL``."""
        if self.empty:
            return self.hs == self.verts == self.rays == ()
        H = ConvexPoly2.from_halfplanes(self.hs)
        return _same_points(self.verts, H.verts) and _same_points(self.rays, H.rays)

    # -- algebra -------------------------------------------------------------

    def minkowski(self, other):
        """A + B from h_{A+B} = h_A + h_B on the normals of both row lists,
        which hold every edge normal of A + B (flats list both sides).  A
        row whose summed support is +inf bounds nothing and is dropped."""
        if self.empty or other.empty:
            return ConvexPoly2.empty_set()
        dirs = [n for n, _ in self.hs + other.hs]
        h = zip(dirs, self.supports(dirs), other.supports(dirs))
        return ConvexPoly2.from_halfplanes([(n, a + b) for n, a, b in h if a + b < INF])


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


# Elements in each temporary of the array passes: ``_clip`` and
# ``_max_dots`` take rows in blocks of BLOCK // width, so a pass over k
# rows holds a few BLOCK-element arrays however large k is.  Chosen from
# the time and peak-memory table in CHANGES.md: 2^14 was the fastest at
# 64..1024 rows; smaller blocks were slower, and larger ones no faster
# and up to 50x the peak memory at 1024 rows.
BLOCK = 1 << 14


def _clip(rows):
    """Clip each row's boundary line by every other row, in one array pass.

    Returns the lists lo, hi and pinned, one entry per row (pinned: an
    opposite row touches the line), or None when an opposite row leaves
    nothing between the two.  Row i against row j is the arithmetic of
    ``from_halfplanes``' docstring, done in the same order:
    a = n_j . d_i, b = c_j - n_j . p_i, with |a| <= TOL an opposite row,
    a > TOL a bound b / a on hi and a < -TOL one on lo.  Ties keep the
    first bound in row order, as a running ``min``/``max`` would.
    """
    k = len(rows)
    normals = np.array([n for n, _ in rows])
    offs = np.array([c for _, c in rows])
    m0, m1 = normals[:, 0], normals[:, 1]
    d0, p0, p1 = -m1, offs * m0, offs * m1
    lo, hi, pinned = np.empty(k), np.empty(k), np.zeros(k, dtype=bool)
    step = min(k, max(1, BLOCK // k))
    a, b, t = np.empty((step, k)), np.empty((step, k)), np.empty((step, k))
    mask = np.empty((step, k), dtype=bool)
    with np.errstate(over="ignore"):
        for s in range(0, k, step):
            r = slice(s, min(s + step, k))
            w = r.stop - s
            A, B, T, M, at = a[:w], b[:w], t[:w], mask[:w], np.arange(w)
            np.multiply(m0, d0[r, None], out=A)
            np.multiply(m1, m0[r, None], out=T)
            A += T
            np.multiply(m0, p0[r, None], out=B)
            np.multiply(m1, p1[r, None], out=T)
            B += T
            np.subtract(offs, B, out=B)
            np.abs(A, out=T)
            np.less_equal(T, TOL, out=M)
            M[at, at + s] = False  # a row does not clip itself
            if M.any():  # opposite rows, as _clean_rows merged the rest
                i, j = np.divmod(np.flatnonzero(M), k)
                slack = TOL * (1 + np.abs(offs[i + s]) + np.abs(offs[j]))
                gap = B[i, j]
                if (gap < -slack).any():
                    return None
                pinned[i[gap <= slack] + s] = True
            np.greater(A, TOL, out=M)
            T.fill(INF)
            np.divide(B, A, out=T, where=M)
            hi[r] = T[at, T.argmin(axis=1)]
            np.less(A, -TOL, out=M)
            T.fill(-INF)
            np.divide(B, A, out=T, where=M)
            lo[r] = T[at, T.argmax(axis=1)]
    return lo.tolist(), hi.tolist(), pinned.tolist()


def _generators(pts, rays):
    """``pts`` then ``rays`` as the rows x and y of one float array, and the
    number of points: the form ``_max_dots`` reads."""
    return np.array([*pts, *rays], dtype=float).reshape(-1, 2).T.copy(), len(pts)


def _max_dots(dirs, gens, npts):
    """For each direction d, the largest d . v over the first ``npts``
    columns v of ``gens``, or +inf when d . r > TOL for a later column r
    (a ray): the support value of conv(points) + cone(rays), as an array,
    over blocks of directions.  Ties keep the first maximum, as ``max``
    does, so a zero keeps its sign."""
    D = np.asarray(dirs, dtype=float).reshape(-1, 2)
    out = np.empty(len(D))
    step = max(1, BLOCK // gens.shape[1])
    with np.errstate(over="ignore"):
        for s in range(0, len(D), step):
            dots = D[s : s + step, :1] * gens[0]
            dots += D[s : s + step, 1:] * gens[1]
            v = dots[:, :npts]
            block = out[s : s + step]
            block[:] = v[np.arange(len(v)), v.argmax(axis=1)]
            if npts < gens.shape[1]:
                block[(dots[:, npts:] > TOL).any(axis=1)] = INF
    return out


def _finite(p, what):
    p = (float(p[0]), float(p[1]))
    if not (math.isfinite(p[0]) and math.isfinite(p[1])):
        raise ValueError(f"generator {what} must be finite, got {p}")
    return p


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


def _same_points(ps, qs):
    """Equal counts, and each point of either list within QUERY_TOL of one in
    the other; the search for point i starts at index i, the usual match."""
    k = len(ps)

    def near(p, b, i):  # p is within QUERY_TOL of a point of b, searched from b[i] on
        return any(_norm((p[0] - b[j % k][0], p[1] - b[j % k][1])) <= QUERY_TOL * (1 + _norm(p)) for j in range(i, i + k))

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
