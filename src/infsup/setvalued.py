"""The image space G(R^2, C) of set-valued functions into the plane.

Fix a closed convex polyhedral cone C in the plane (C = {0} is allowed).
G(R^2, C) holds the closed convex sets A with A = A + C, here polyhedra
(``ConvexPoly2``), each as an ``UpperSet``.  Ordered by inclusion the
other way round, A <= B iff A contains B, it is an order complete
lattice with the plane as its least element and the empty set as its
greatest (Hamel, "A duality theory for set-valued functions I", 2009):

- inf of a family: the closed convex hull of the union, plus C; the
  empty set for no members.
- sup of a family: the intersection; the plane for no members.
- A + B: the Minkowski sum, closed for polyhedra.  C is its neutral
  element, and the empty set absorbs everything, as +inf does in the
  extended reals.
- t A for t >= 0: the scaled set for t > 0, and 0 A = C for every A,
  the empty set included (0 * empty = C), as Hamel (2009) defines the
  scaling of G(Z, C); 0 A is then the neutral element, as the conlinear
  axioms ask (``laws.check_conlinear``).
- the residual A -. B = {z : B + z is a subset of A}, the greatest X with
  B + X inside A, so that B + X is inside A iff X is inside A -. B.  For
  each row n . z <= c of A, B + z lies on its side iff h_B(n) + n . z <= c,
  with h_B the support function; so A -. B has the rows
  (n, c - h_B(n)).  B empty gives the plane, A empty and B not gives the
  empty set, and so does a row with h_B(n) = +inf.

Elements compare with ``same_set`` (see ``UpperSet.__eq__``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .extreal import _scale_factor
from .poly2 import INF, QUERY_TOL, ConvexPoly2, hull_union, intersect_all


def cone(*rays):
    """The closed convex cone generated by ``rays``: {0} for none."""
    return ConvexPoly2.from_generators([(0.0, 0.0)], rays)


@dataclass(frozen=True, eq=False)
class UpperSet:
    """An element A = A + C of G(R^2, C); build it with ``UpperSet.of``.

    ``poly`` is the set A and ``cone`` the space's cone C.
    """

    poly: ConvexPoly2
    cone: ConvexPoly2

    @classmethod
    def of(cls, P, C):
        """P + C as an element of G(R^2, C).  Raises ValueError when C is
        not a cone: empty, or with a vertex away from the origin."""
        if C.empty or any(math.hypot(*v) > QUERY_TOL for v in C.verts):
            raise ValueError(f"not a closed convex cone: {C}")
        return cls(P.minkowski(C), C)

    def __eq__(self, other):
        """The same set, by ``ConvexPoly2.same_set`` on both the sets and
        the cones.  Its ``QUERY_TOL`` makes the relation reflexive and
        symmetric but, in principle, not transitive: A near B and B near
        C leave A up to twice the tolerance from C."""
        if not isinstance(other, UpperSet):
            return NotImplemented
        return _same_cone(self.cone, other.cone) and self.poly.same_set(other.poly)


def _same_cone(C, D):
    return C is D or C.same_set(D)


def _check_cone(C, elems):
    """C, once every element of ``elems`` is checked to have the cone C."""
    for a in elems:
        if not _same_cone(C, a.cone):
            raise ValueError(f"an element of another space: cone {a.cone}, not {C}")
    return C


def leq(a, b):
    """a <= b in G(R^2, C): a contains b."""
    _check_cone(a.cone, [b])
    return b.poly.is_subset(a.poly)


def add(a, b):
    """a + b, the Minkowski sum."""
    return UpperSet(a.poly.minkowski(b.poly), _check_cone(a.cone, [b]))


def scale(t, a):
    """t a for a real t >= 0, with 0 a = C for every a (the empty set too)."""
    t = _scale_factor(t)
    if t == 0:
        return UpperSet(a.cone, a.cone)
    if a.poly.empty:
        return a
    return UpperSet(ConvexPoly2.from_halfplanes([(n, t * c) for n, c in a.poly.hs]), a.cone)


def inf(elems, C):
    """The infimum of ``elems`` in G(R^2, C): their closed convex hull plus C."""
    elems = list(elems)
    _check_cone(C, elems)
    return UpperSet.of(hull_union([a.poly for a in elems]), C)


def sup(elems, C):
    """The supremum of ``elems`` in G(R^2, C): their intersection."""
    elems = list(elems)
    _check_cone(C, elems)
    return UpperSet(intersect_all([a.poly for a in elems]), C)


def residual(a, b):
    """a -. b = {z : b + z is a subset of a}, the least x (the greatest
    set) with a <= b + x."""
    C = _check_cone(a.cone, [b])
    A, B = a.poly, b.poly
    if B.empty:
        return UpperSet(ConvexPoly2.plane(), C)
    if A.empty:
        return a
    rows = [(n, c - h) for (n, c), h in zip(A.hs, B.supports([n for n, _ in A.hs]))]
    if any(c == -INF for _, c in rows):
        return UpperSet(ConvexPoly2.empty_set(), C)
    return UpperSet(ConvexPoly2.from_halfplanes(rows), C)
