"""The conlinear-space axioms, checked through one checker on every image space."""

from fractions import Fraction

import numpy as np
import pytest

from infsup import extreal as xr
from infsup.calculus import conjugate
from infsup.functions import DualElem, affine_eval, dual_add, dual_scale, improper_split, pl
from infsup.laws import check_conlinear, random_closed_convex_fn

PROBES = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]


def _dyadics(seed, n=5):
    """n seeded quarter-grid reals in [-4, 4]."""
    return [float(v) for v in np.random.default_rng(seed).integers(-16, 17, size=n) / 4]


def _extreal(cls, add):
    elems = [cls(v) for v in (0.0, np.inf, -np.inf, *_dyadics(1))]
    return elems, add, xr.scale, cls(0.0)


def _dual():
    a = _dyadics(2)
    elems = [DualElem.proper(0.0), DualElem.hat(0.0), DualElem.hat(1.0), DualElem.hat(-1.0)]
    elems += [DualElem.proper(x) for x in a] + [DualElem.hat(x) for x in a]
    return elems, dual_add, dual_scale, DualElem.proper(0.0)


SPACES = {
    "UpReal": lambda: _extreal(xr.UpReal, xr.isum),
    "DownReal": lambda: _extreal(xr.DownReal, xr.ssum),
    "dual": _dual,
}


@pytest.mark.parametrize("space", SPACES)
def test_every_image_space_is_conlinear(space):
    elems, add, scale, neutral = SPACES[space]()
    rep = check_conlinear(elems, add, scale, PROBES)
    assert rep.is_conlinear, rep.violations
    assert rep.neutral == neutral
    assert rep.convex_elements == list(elems)
    for probes in (PROBES[1:], [t for t in PROBES if t != 1]):
        with pytest.raises(ValueError, match="0 and 1"):
            check_conlinear(elems, add, scale, probes)


class _BySign:
    """A DualElem under a coarser equality: a hat compares by the sign of its slope."""

    def __init__(self, xi):
        self.xi = xi

    def _key(self):
        a = self.xi.a
        return (self.xi.kind, float((a > 0) - (a < 0)) if self.xi.is_hat else a)

    def __eq__(self, other):
        return self._key() == other._key()

    __hash__ = None

    def __repr__(self):
        return f"_BySign({self.xi!r})"


def test_congruence_rejects_a_coarser_dual_equality():
    # hat(1) and hat(2.75) share a sign, but their sums with hat(-1) do
    # not: under the coarser equality dual_add reads representatives
    elems, add, scale, _ = _dual()
    rep = check_conlinear(
        [_BySign(x) for x in elems],
        lambda x, y: _BySign(add(x.xi, y.xi)),
        lambda t, x: _BySign(scale(t, x.xi)),
        PROBES,
    )
    assert {axiom for axiom, _ in rep.violations} == {"C0-congruence"}
    x1, x2, y = next(w for axiom, w in rep.violations if axiom == "C0-congruence")
    assert x1 == x2 and add(x1.xi, y.xi) != add(x2.xi, y.xi)


def test_equal_dual_elements_have_equal_values():
    # the sample twice over, as distinct objects, with signed zeros
    def sample():
        return _dual()[0] + [DualElem.hat(-0.0), DualElem.proper(-0.0), DualElem.hat(2.0)]

    elems = sample() + sample()
    pairs = [(x, y) for x in elems for y in elems if x is not y and x == y]
    assert len(pairs) >= 2 * len(sample())
    rng = np.random.default_rng(14)
    fns = [random_closed_convex_fn(rng) for _ in range(12)]
    fns += [pl([(0, 0), (0.75, 1)], dom_lo=0, dom_hi=0.75), improper_split(0.0, 1.0)]
    offsets = [-2.0, -0.5, 0.0, 1.0, 3.0]
    xs = [k / 4.0 for k in range(-16, 17)]
    for xi, eta in pairs:
        for r in offsets:
            assert [affine_eval(xi, r, x) for x in xs] == [affine_eval(eta, r, x) for x in xs], (xi, eta, r)
            for g in fns:
                assert conjugate(g, xi, r) == conjugate(g, eta, r), (g, xi, eta, r)


def test_hats_of_one_sign_are_different_elements():
    # the two hats read differently at offset 1 against g, so they are
    # different elements, and dual_add keeps them apart
    g = pl([(0, 0), (0.75, 1)], dom_lo=0, dom_hi=0.75)
    one, two = DualElem.hat(1.0), DualElem.hat(2.0)
    assert one != two
    assert conjugate(g, one, 1.0) == xr.DownReal.bottom()
    assert conjugate(g, two, 1.0) == xr.DownReal.top()
    assert affine_eval(one, 1.0, 0.6) != affine_eval(two, 1.0, 0.6)
    assert dual_add(one, DualElem.hat(-1.0)) != dual_add(two, DualElem.hat(-1.0))


def _shifted(t, x):
    """t*x + t(1 - t): additive only at t = 0 and t = 1."""
    return xr.isum(xr.scale(t, x), xr.up(float(t * (1 - t))))


# Broken operations on UpReal, and the exact set of axioms each one breaks.
BROKEN = {
    "left-projection": (lambda x, y: x, xr.scale, {"C1-commutative", "C1-neutral"}),
    "midpoint": (
        lambda x, y: xr.scale(0.5, xr.isum(x, y)),
        xr.scale,
        {"C1-associative", "C1-neutral"},
    ),
    "shifted-sum": (
        lambda x, y: xr.isum(xr.isum(x, y), xr.up(1.0)),
        xr.scale,
        {"C1-neutral", "C2-i"},
    ),
    "affine-scale": (xr.isum, _shifted, {"C2-i", "C2-ii"}),
    "saturating-scale": (xr.isum, lambda t, x: xr.scale(min(t, 1), x), {"C2-ii"}),
    "doubled-one": (
        xr.isum,
        lambda t, x: xr.scale(2 if t == 1 else t, x),
        {"C2-ii", "C2-iii"},
    ),
    "zero-to-top": (
        xr.isum,
        lambda t, x: xr.scale(t, x) if t else xr.UpReal.top(),
        {"C2-iv"},
    ),
}


@pytest.mark.parametrize("case", BROKEN)
def test_each_axiom_names_its_violations(case):
    add, scale, broken = BROKEN[case]
    elems = _extreal(xr.UpReal, xr.isum)[0]
    rep = check_conlinear(elems, add, scale, PROBES)
    assert {axiom for axiom, _ in rep.violations} == broken
