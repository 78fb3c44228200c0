"""Closed convex polyhedra and convex cones in the plane.

Everything is kept in both representations at once: a canonical list of
halfplanes (the source of truth for membership) and a generator pair
(vertices plus recession rays, with P = conv(verts) + cone(rays)).
Vertices of a pointed polyhedron are exactly the feasible crossings of
two constraint boundaries, so no linear programming is needed in the
plane; recession rays come from the constraint normals.  Tolerance is
1e-9 throughout on roughly unit-scale data.

Cones get their own small taxonomy (zero, ray, sector, line, halfplane,
plane) because the dual-cone table and the spanning families for
support arguments differ by kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _close(a, b, tol=1e-7):
    return abs(a[0] - b[0]) <= tol and abs(a[1] - b[1]) <= tol


def _angle(a):
    t = math.atan2(a[1], a[0])
    return t + 2.0 * math.pi if t < 0 else t


def _dedup_dirs(dirs, tol=1e-9):
    out = []
    for d in dirs:
        if not any(_close(d, e, tol) for e in out):
            out.append(d)
    return out


# ---------------------------------------------------------------------------
# Cones.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cone2:
    """A closed convex cone containing the origin.

    ``kind`` is one of zero, ray, sector, line, halfplane, plane;
    ``gens`` positively span the cone in every case (a halfplane keeps
    its two boundary directions plus an interior one).
    """

    kind: str
    gens: tuple

    @classmethod
    def zero(cls):
        return cls("zero", ())

    @classmethod
    def ray(cls, u):
        return cls("ray", (_unit(u),))

    @classmethod
    def sector(cls, u, v):
        u, v = _unit(u), _unit(v)
        if _cross(u, v) < 0:
            u, v = v, u
        if _cross(u, v) <= TOL:
            raise ValueError("sector needs two rays at a positive angle below pi")
        return cls("sector", (u, v))

    @classmethod
    def line(cls, u):
        u = _unit(u)
        return cls("line", (u, _neg(u)))

    @classmethod
    def halfplane(cls, normal):
        n = _unit(normal)
        u = _rot90(n)
        return cls("halfplane", (u, _neg(u), _neg(n)))

    @classmethod
    def plane(cls):
        return cls("plane", ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)))

    @property
    def halfplane_normal(self):
        if self.kind != "halfplane":
            raise ValueError("normal defined for halfplane cones only")
        return _neg(self.gens[2])

    def contains(self, z, tol=TOL):
        if _norm(z) <= tol:
            return True
        if self.kind == "zero":
            return False
        if self.kind == "plane":
            return True
        if self.kind == "ray":
            u = self.gens[0]
            return abs(_cross(u, z)) <= tol * (1 + _norm(z)) and _dot(u, z) > 0
        if self.kind == "line":
            u = self.gens[0]
            return abs(_cross(u, z)) <= tol * (1 + _norm(z))
        if self.kind == "halfplane":
            return _dot(self.halfplane_normal, z) <= tol * (1 + _norm(z))
        u, v = self.gens
        s = tol * (1 + _norm(z))
        return _cross(u, z) >= -s and _cross(z, v) >= -s


def cone_from_rays(dirs):
    """The closed convex cone positively spanned by the directions."""
    dirs = _dedup_dirs([_unit(d) for d in dirs if _norm(d) > TOL])
    if not dirs:
        return Cone2.zero()
    if len(dirs) == 1:
        return Cone2.ray(dirs[0])
    order = sorted(range(len(dirs)), key=lambda i: _angle(dirs[i]))
    angles = [_angle(dirs[i]) for i in order]
    gaps = []
    for j in range(len(order)):
        nxt = angles[(j + 1) % len(order)] + (2.0 * math.pi if j + 1 == len(order) else 0.0)
        gaps.append(nxt - angles[j])
    jmax = max(range(len(gaps)), key=lambda j: gaps[j])
    gap = gaps[jmax]
    start = dirs[order[(jmax + 1) % len(order)]]
    end = dirs[order[jmax]]
    atol = 1e-9
    if gap > math.pi + atol:
        span = 2.0 * math.pi - gap
        if span <= atol:
            return Cone2.ray(start)
        return Cone2.sector(start, end)
    if gap >= math.pi - atol:
        on_line = all(
            abs(_cross(start, d)) <= 1e-9 for d in dirs
        )
        if on_line:
            return Cone2.line(start)
        # boundary along start/-start, interior on the spanned side
        mid_angle = _angle(start) + (2.0 * math.pi - gap) / 2.0
        w = (math.cos(mid_angle), math.sin(mid_angle))
        return Cone2.halfplane(_neg(w))
    return Cone2.plane()


def dual_cone(c: Cone2) -> Cone2:
    """The negative dual {w : w.z <= 0 for all z in the cone}."""
    if c.kind == "zero":
        return Cone2.plane()
    if c.kind == "plane":
        return Cone2.zero()
    if c.kind == "ray":
        return Cone2.halfplane(c.gens[0])
    if c.kind == "line":
        return Cone2.line(_rot90(c.gens[0]))
    if c.kind == "halfplane":
        return Cone2.ray(c.halfplane_normal)
    u, v = c.gens
    return Cone2.sector(_rot90(v), _rot270(u))


def cone_to_poly(c: Cone2) -> "ConvexPoly2":
    """The cone as a polyhedron anchored at the origin."""
    return ConvexPoly2.from_generators([(0.0, 0.0)], list(c.gens))


# ---------------------------------------------------------------------------
# Polyhedra.
# ---------------------------------------------------------------------------


def _hull_ccw(points):
    """Monotone-chain convex hull, counterclockwise, collinear interior
    points removed.  Returns the degenerate chains as they are."""
    pts = sorted(set((round(p[0], 12), round(p[1], 12)) for p in points))
    if len(pts) <= 2:
        return [tuple(map(float, p)) for p in pts]
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(
            (lower[-1][0] - lower[-2][0], lower[-1][1] - lower[-2][1]),
            (p[0] - lower[-1][0], p[1] - lower[-1][1]),
        ) <= 1e-12:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(
            (upper[-1][0] - upper[-2][0], upper[-1][1] - upper[-2][1]),
            (p[0] - upper[-1][0], p[1] - upper[-1][1]),
        ) <= 1e-12:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return [tuple(map(float, p)) for p in hull]


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
        """Build from (normal, offset) pairs meaning normal . z <= offset."""
        cleaned = _clean_halfplanes(halfplanes)
        if cleaned is None:
            return cls.empty_set()
        if not cleaned:
            return cls.plane()
        dirs = _dedup_dirs([h[0] for h in cleaned])
        parallel = len(dirs) == 1 or (
            len(dirs) == 2 and _close(dirs[0], _neg(dirs[1]))
        )
        if parallel:
            return _build_parallel(cleaned)
        return _build_general(cleaned)

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
        out = []
        for n in _dedup_dirs(cands):
            if any(_dot(n, r) > TOL for r in rays):
                continue
            c = max(_dot(n, v) for v in verts)
            out.append((n, c))
        return cls.from_halfplanes(out)

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

    def is_bounded(self):
        return not self.empty and not self.rays

    def dim(self):
        if self.empty:
            return -1
        pts = list(self.verts) + [
            (self.verts[0][0] + r[0], self.verts[0][1] + r[1]) for r in self.rays
        ]
        if len(pts) == 1:
            return 0
        base = pts[0]
        u = None
        for p in pts[1:]:
            d = (p[0] - base[0], p[1] - base[1])
            if _norm(d) > 1e-9:
                if u is None:
                    u = _unit(d)
                elif abs(_cross(u, d)) > 1e-7 * (1 + _norm(d)):
                    return 2
        return 0 if u is None else 1

    def recession_contains(self, d, tol=TOL):
        if self.empty:
            return False
        s = tol * (1 + _norm(d))
        return all(_dot(n, d) <= s for n, c in self.hs)

    def is_subset(self, other, tol=1e-7):
        if self.empty:
            return True
        if other.empty:
            return False
        return all(other.contains(v, tol) for v in self.verts) and all(
            other.recession_contains(r, tol) for r in self.rays
        )

    def same_set(self, other, tol=1e-7):
        return self.is_subset(other, tol) and other.is_subset(self, tol)

    def validate(self, tol=1e-7):
        """Cross-check the two representations against each other."""
        if self.empty:
            return self.hs == () and self.verts == () and self.rays == ()
        for v in self.verts:
            if not self.contains(v, tol):
                return False
        for r in self.rays:
            if not self.recession_contains(r, tol):
                return False
        rebuilt = ConvexPoly2.from_generators(list(self.verts), list(self.rays))
        return self.same_set(rebuilt, tol)

    # -- algebra -------------------------------------------------------------

    def translate(self, z):
        if self.empty:
            return self
        return ConvexPoly2.from_generators(
            [(v[0] + z[0], v[1] + z[1]) for v in self.verts], list(self.rays)
        )

    def scale(self, t):
        t = float(t)
        if t <= 0:
            raise ValueError("scale expects t > 0 here; t = 0 is handled per lattice")
        if self.empty:
            return self
        return ConvexPoly2.from_generators(
            [(t * v[0], t * v[1]) for v in self.verts], list(self.rays)
        )

    def minkowski(self, other):
        if self.empty or other.empty:
            return ConvexPoly2.empty_set()
        verts = [
            (a[0] + b[0], a[1] + b[1]) for a in self.verts for b in other.verts
        ]
        return ConvexPoly2.from_generators(verts, list(self.rays) + list(other.rays))


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
    for p in polys:
        if p.empty:
            continue
        verts.extend(p.verts)
        rays.extend(p.rays)
    if not verts:
        return ConvexPoly2.empty_set()
    return ConvexPoly2.from_generators(verts, rays)


# ---------------------------------------------------------------------------
# Construction internals.
# ---------------------------------------------------------------------------


def _clean_halfplanes(halfplanes):
    """Normalize, drop vacuous rows, keep the tightest per direction.
    None flags an infeasible zero-normal row (empty set)."""
    rows = []
    for n, c in halfplanes:
        n = (float(n[0]), float(n[1]))
        c = float(c)
        ln = _norm(n)
        if ln <= TOL:
            if c < -TOL:
                return None
            continue
        rows.append(((n[0] / ln, n[1] / ln), c / ln))
    out = []
    for n, c in rows:
        merged = False
        for i, (m, d) in enumerate(out):
            if _close(n, m, 1e-9):
                out[i] = (m, min(c, d))
                merged = True
                break
        if not merged:
            out.append((n, c))
    return out


def _build_parallel(cleaned):
    """All normals along one line: halfplane, slab, line, or empty."""
    n0 = cleaned[0][0]
    c_plus = None
    c_minus = None
    for n, c in cleaned:
        if _close(n, n0):
            c_plus = c if c_plus is None else min(c_plus, c)
        else:
            c_minus = c if c_minus is None else min(c_minus, c)
    u = _rot90(n0)
    if c_minus is None:
        p = (c_plus * n0[0], c_plus * n0[1])
        return ConvexPoly2(
            empty=False,
            hs=((n0, c_plus),),
            verts=(p,),
            rays=tuple(sorted([u, _neg(u), _neg(n0)], key=_angle)),
        )
    if c_plus is None:
        m = _neg(n0)
        p = (c_minus * m[0], c_minus * m[1])
        return ConvexPoly2(
            empty=False,
            hs=((m, c_minus),),
            verts=(p,),
            rays=tuple(sorted([u, _neg(u), n0], key=_angle)),
        )
    if c_plus + c_minus < -TOL:
        return ConvexPoly2.empty_set()
    a = (c_plus * n0[0], c_plus * n0[1])
    b = (-c_minus * n0[0], -c_minus * n0[1])
    rays = tuple(sorted([u, _neg(u)], key=_angle))
    if _close(a, b, 1e-9):
        return ConvexPoly2(
            empty=False, hs=((n0, c_plus), (_neg(n0), c_minus)), verts=(a,), rays=rays
        )
    verts = tuple(sorted([a, b]))
    return ConvexPoly2(
        empty=False, hs=((n0, c_plus), (_neg(n0), c_minus)), verts=verts, rays=rays
    )


def _feasible(p, cleaned, tol=1e-7):
    s = tol * (1 + _norm(p))
    return all(_dot(n, p) <= c + s for n, c in cleaned)


def _build_general(cleaned):
    """At least two non-parallel normals: the set is empty or has a
    pointed recession cone and at least one vertex."""
    verts = []
    k = len(cleaned)
    for i in range(k):
        ni, ci = cleaned[i]
        for j in range(i + 1, k):
            nj, cj = cleaned[j]
            det = _cross(ni, nj)
            if abs(det) <= 1e-12:
                continue
            x = (ci * nj[1] - cj * ni[1]) / det
            y = (ni[0] * cj - nj[0] * ci) / det
            p = (x, y)
            if _feasible(p, cleaned) and not any(_close(p, q) for q in verts):
                verts.append(p)
    if not verts:
        return ConvexPoly2.empty_set()

    ray_cands = []
    for n, c in cleaned:
        for d in (_rot90(n), _rot270(n)):
            if all(_dot(m, d) <= TOL for m, _ in cleaned):
                ray_cands.append(d)
    cone = cone_from_rays(ray_cands)
    if cone.kind == "zero":
        rays = ()
    elif cone.kind == "ray":
        rays = (cone.gens[0],)
    elif cone.kind == "sector":
        rays = cone.gens
    else:
        raise AssertionError("non-parallel constraints force a pointed recession cone")

    pts = list(verts) + [(verts[0][0] + r[0], verts[0][1] + r[1]) for r in rays]
    flat = True
    base = pts[0]
    u = None
    for p in pts[1:]:
        d = (p[0] - base[0], p[1] - base[1])
        if _norm(d) > 1e-9:
            if u is None:
                u = _unit(d)
            elif abs(_cross(u, d)) > 1e-7 * (1 + _norm(d)):
                flat = False
                break
    if u is None:
        return _canon_point(verts[0])
    if flat:
        return _canon_flat(verts, rays, u)
    if not rays:
        ring = _hull_ccw(verts)
        return _canon_bounded(ring)
    chain = _order_chain(verts, rays, cleaned)
    return _canon_wedge(chain, rays)


def _order_chain(verts, rays, cleaned):
    """Counterclockwise finite boundary chain of an unbounded
    full-dimensional pointed polyhedron."""
    if len(verts) == 1:
        return [verts[0]]
    e_in = _neg(rays[-1])
    e_out = rays[0]
    if len(verts) == 2:
        a, b = verts
        d = (b[0] - a[0], b[1] - a[1])
        if _cross(e_in, d) >= -1e-9 and _cross(d, e_out) >= -1e-9:
            return [a, b]
        return [b, a]
    ring = _hull_ccw(verts)
    m = len(ring)
    closing = None
    for i in range(m):
        a, b = ring[i], ring[(i + 1) % m]
        tight = any(
            abs(_dot(n, a) - c) <= 1e-7 * (1 + _norm(a))
            and abs(_dot(n, b) - c) <= 1e-7 * (1 + _norm(b))
            for n, c in cleaned
        )
        if not tight:
            closing = i
            break
    if closing is None:
        raise AssertionError("unbounded polyhedron must have one open hull edge")
    start = (closing + 1) % m
    return [ring[(start + j) % m] for j in range(m)]


def _canon_point(p):
    hs = (
        ((1.0, 0.0), p[0]),
        ((0.0, 1.0), p[1]),
        ((-1.0, 0.0), -p[0]),
        ((0.0, -1.0), -p[1]),
    )
    return ConvexPoly2(empty=False, hs=hs, verts=(p,), rays=())


def _canon_flat(verts, rays, u):
    """A one-dimensional set: segment, halfline, or line along u."""
    n = _rot90(u)
    base = verts[0]
    c0 = _dot(n, base)
    ts = [_dot(u, (v[0] - base[0], v[1] - base[1])) for v in verts]
    t_lo, t_hi = min(ts), max(ts)
    lo_open = any(_dot(u, r) < -TOL for r in rays)
    hi_open = any(_dot(u, r) > TOL for r in rays)
    hs = [(n, c0), (_neg(n), -c0)]
    out_rays = []
    if hi_open:
        out_rays.append(u)
    else:
        hs.append((u, _dot(u, base) + t_hi))
    if lo_open:
        out_rays.append(_neg(u))
    else:
        hs.append((_neg(u), -(_dot(u, base) + t_lo)))
    pts = []
    if not lo_open:
        pts.append((base[0] + t_lo * u[0], base[1] + t_lo * u[1]))
    if not hi_open and (lo_open or t_hi > t_lo + 1e-9):
        pts.append((base[0] + t_hi * u[0], base[1] + t_hi * u[1]))
    if not pts:
        pts = [base]
    return ConvexPoly2(
        empty=False,
        hs=tuple(hs),
        verts=tuple(sorted(pts)),
        rays=tuple(sorted(out_rays, key=_angle)),
    )


def _canon_bounded(ring):
    if len(ring) == 1:
        return _canon_point(ring[0])
    if len(ring) == 2:
        u = _unit((ring[1][0] - ring[0][0], ring[1][1] - ring[0][1]))
        return _canon_flat(list(ring), (), u)
    start = min(range(len(ring)), key=lambda i: ring[i])
    ring = [ring[(start + j) % len(ring)] for j in range(len(ring))]
    hs = []
    for a, b in zip(ring, ring[1:] + ring[:1]):
        e = (b[0] - a[0], b[1] - a[1])
        n = _unit(_rot270(e))
        hs.append((n, _dot(n, a)))
    return ConvexPoly2(empty=False, hs=tuple(hs), verts=tuple(ring), rays=())


def _canon_wedge(chain, rays):
    hs = []
    n_in = _rot90(rays[-1])
    hs.append((n_in, _dot(n_in, chain[0])))
    for a, b in zip(chain, chain[1:]):
        e = (b[0] - a[0], b[1] - a[1])
        n = _unit(_rot270(e))
        hs.append((n, _dot(n, a)))
    n_out = _rot270(rays[0])
    last = (n_out, _dot(n_out, chain[-1]))
    if not any(_close(last[0], n) and abs(last[1] - c) <= 1e-9 for n, c in hs):
        hs.append(last)
    return ConvexPoly2(
        empty=False, hs=tuple(hs), verts=tuple(chain), rays=tuple(rays)
    )
