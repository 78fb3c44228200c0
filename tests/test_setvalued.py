"""Tests for the image space G(R^2, C) of ``infsup.setvalued``.

The residual is checked against oracles that do not use its formula:
membership of z through ``is_subset`` of the translate B + z, the
adjoint law B + X inside A iff X inside A -. B on seeded X, and the
scalarization phi_X(w) = inf{w . z : z in X}, for which
phi_{A -. B} >= phi_A - phi_B is an inequality only (an equality in
fewer than a third of the directions checked here).  The lattice operations are checked
through phi too: phi of a sum is the sum of the phis, phi of an inf the
min.  The conlinear axioms run through ``laws.check_conlinear``.  Four
cones: {0}, a quadrant, a halfline and a skewed wedge.
"""

import math

import numpy as np
import pytest
from test_poly2 import _u, tangent_polygon

from infsup.laws import check_conlinear
from infsup.poly2 import ConvexPoly2
from infsup.setvalued import UpperSet, add, cone, inf, leq, residual, scale, sup

CONES = {
    "zero": cone(),
    "quadrant": cone((1.0, 0.0), (0.0, 1.0)),
    "halfline": cone((1.0, 1.0)),
    "wedge": cone((1.0, 0.2), (-0.3, 1.0)),
}
DIRS = [_u(t) for t in np.linspace(0, 2 * np.pi, 64, endpoint=False) + 0.01]
EMPTY, PLANE = ConvexPoly2.empty_set(), ConvexPoly2.plane()


def _polygon(rng, scale):
    hp, _ = tangent_polygon(rng, int(rng.integers(4, 9)), rng.uniform(-1, 1, 2) * scale, rng.uniform(0.2, 1.0) * scale)
    return ConvexPoly2.from_halfplanes(hp)


def _translate(P, z):
    return ConvexPoly2.from_generators([(v[0] + z[0], v[1] + z[1]) for v in P.verts], P.rays)


def _point(z):
    return ConvexPoly2.from_generators([z])


def _phi(X, w):
    """inf of w . z over X: +inf when X is empty, -inf when unbounded below."""
    return -X.poly.support((-w[0], -w[1]))


def _pairs(name, n, seed):
    """Seeded pairs (A, B) of the space of cone ``name``, at scales 1e-2..1e3,
    A larger than B, so that most residuals are not empty."""
    rng = np.random.default_rng(seed)
    C = CONES[name]
    for _ in range(n):
        s = float(10.0 ** rng.uniform(-2, 3))
        yield UpperSet.of(_polygon(rng, 3 * s), C), UpperSet.of(_polygon(rng, s), C), s


@pytest.mark.parametrize("name", CONES)
def test_residual_members_translate_b_into_a(name):
    rng = np.random.default_rng(31)
    nonempty = 0
    for A, B, s in _pairs(name, 40, 11):
        R = residual(A, B)
        if R.poly.empty:
            continue
        nonempty += 1
        for z in R.poly.verts:
            assert _translate(B.poly, z).is_subset(A.poly), (A, B, z)
        for z in rng.uniform(-4 * s, 4 * s, size=(24, 2)):
            z = tuple(z)
            assert _translate(B.poly, z).is_subset(A.poly) == R.poly.contains(z), (A, B, z)
    assert nonempty >= 10


@pytest.mark.parametrize("name", CONES)
def test_residual_is_the_adjoint_of_addition(name):
    rng = np.random.default_rng(32)
    C = CONES[name]
    held = 0
    for A, B, s in _pairs(name, 30, 12):
        R = residual(A, B)
        xs = [UpperSet.of(_point(z), C) for z in R.poly.verts]  # on the residual's boundary
        xs += [UpperSet.of(_translate(_polygon(rng, 0.1 * s), rng.uniform(-s, s, 2)), C) for _ in range(6)]
        for X in xs:
            inside = add(B, X).poly.is_subset(A.poly)
            assert inside == X.poly.is_subset(R.poly), (A, B, X)
            assert inside == leq(A, add(B, X)) and inside == leq(R, X)
            held += inside
    assert held >= 20


@pytest.mark.parametrize("name", CONES)
def test_scalarization_bounds_the_residual(name):
    checked = 0
    for A, B, s in _pairs(name, 40, 13):
        R = residual(A, B)
        for w in DIRS:
            a, b, r = _phi(A, w), _phi(B, w), _phi(R, w)
            if math.isfinite(a) and math.isfinite(b):
                assert r >= a - b - 1e-9 * (1 + abs(a) + abs(b)), (A, B, w)
                checked += 1
    assert checked >= 500


@pytest.mark.parametrize("name", CONES)
def test_sum_inf_and_sup_through_the_scalarization(name):
    C = CONES[name]
    for A, B, s in _pairs(name, 20, 14):
        S, I, M = add(A, B), inf([A, B], C), sup([A, B], C)
        assert leq(I, A) and leq(I, B) and leq(A, M) and leq(B, M)
        for w in DIRS:
            a, b = _phi(A, w), _phi(B, w)
            for got, want in ((_phi(S, w), a + b), (_phi(I, w), min(a, b))):
                assert got == want if math.isinf(want) else abs(got - want) <= 1e-9 * (1 + abs(want)), (A, B, w)


def test_empty_cases():
    C = CONES["zero"]
    T = UpperSet.of(ConvexPoly2.from_generators([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]), C)
    E, R2 = UpperSet.of(EMPTY, C), UpperSet.of(PLANE, C)
    assert residual(T, E) == R2 and residual(E, E) == R2
    assert residual(E, T).poly.empty
    halfline = UpperSet.of(ConvexPoly2.from_generators([(0.0, 0.0)], [(1.0, 0.0)]), C)
    assert residual(T, halfline).poly.empty  # h_B = +inf on the row with normal (1, 1)
    assert residual(R2, halfline) == R2
    assert inf([], C).poly.empty and sup([], C) == R2
    assert leq(R2, T) and leq(T, E) and not leq(E, T)


def test_scaling_at_zero_and_out_of_range():
    for C in CONES.values():
        neutral = UpperSet(C, C)
        assert scale(0, UpperSet.of(EMPTY, C)) == neutral  # 0 * empty = C
        assert scale(0.0, UpperSet.of(PLANE, C)) == neutral
        assert scale(2.5, UpperSet.of(EMPTY, C)).poly.empty
    T = UpperSet.of(ConvexPoly2.from_generators([(1.0, 0.0), (2.0, 0.0), (1.0, 3.0)]), CONES["zero"])
    assert scale(2, T) == UpperSet.of(ConvexPoly2.from_generators([(2.0, 0.0), (4.0, 0.0), (2.0, 6.0)]), CONES["zero"])
    for t in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="scale factor"):
            scale(t, T)


def test_cone_and_space_checks():
    strip = ConvexPoly2.from_halfplanes([((0.0, 1.0), 1.0), ((0.0, -1.0), 1.0)])
    with pytest.raises(ValueError, match="not a closed convex cone"):
        UpperSet.of(PLANE, strip)
    with pytest.raises(ValueError, match="not a closed convex cone"):
        UpperSet.of(PLANE, EMPTY)
    A = UpperSet.of(strip, CONES["zero"])
    B = UpperSet.of(strip, CONES["quadrant"])
    for op in (add, leq, residual):
        with pytest.raises(ValueError, match="another space"):
            op(A, B)
    with pytest.raises(ValueError, match="another space"):
        sup([A, B], CONES["zero"])
    # a cone is an upper set of its own space, the same by either route
    for C in CONES.values():
        assert UpperSet.of(C, C) == UpperSet(C, C)


@pytest.mark.parametrize("name", CONES)
def test_conlinear_axioms(name):
    rng = np.random.default_rng(15)
    C = CONES[name]
    elems = [UpperSet(C, C), UpperSet.of(EMPTY, C)]
    elems += [UpperSet.of(_polygon(rng, 1.0), C) for _ in range(4)]
    report = check_conlinear(elems, add, scale, [0, 0.5, 1, 2, 4])
    assert report.violations == []
    assert report.neutral == UpperSet(C, C)
    assert len(report.convex_elements) == len(elems)
