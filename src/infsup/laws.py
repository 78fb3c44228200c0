"""Seeded random fixtures, and the conlinear-space axioms over callables.

The fixtures are deterministic given a numpy Generator: the same seed
produces the same corpus, which is what lets the tests and the bench pin
counterexample-free runs.  Fixture values live on coarse dyadic grids
(halves) so that the exact-arithmetic laws can be asserted without
tolerances wherever the operations themselves are exact.

``check_conlinear`` checks the axioms every image space of the package
shares (a commutative monoid with a non-negative scaling) on a finite
sample, given the space's addition and scaling as callables: ``UpReal``
with ``isum``/``scale``, ``DownReal`` with ``ssum``/``scale``, and the
inf-dual with ``dual_add``/``dual_scale``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .functions import (
    ConstBottom,
    ConstTop,
    PLProper,
    improper_split,
)
from .groupoid import MAX_WITNESSES

X_GRID = np.arange(-8.0, 8.5, 0.5)
SLOPE_GRID = np.arange(-5.0, 5.5, 0.5)
BOUNDED_PROB = 0.4  # chance that a drawn PLProper's domain is bounded on a given side


def random_ext_values(rng, n, inf_prob=0.25):
    """Array of n extended reals on a quarter grid in [-20, 20].

    Each entry is +inf with probability inf_prob and -inf with
    probability inf_prob (inf_prob <= 0.5), finite otherwise.
    """
    vals = np.round(rng.uniform(-20, 20, size=n) * 4) / 4
    kind = rng.random(n)
    vals[kind < inf_prob] = np.inf
    vals[kind > 1 - inf_prob] = -np.inf
    return vals


def random_pl(rng, convex=False, max_breaks=5):
    """Random PLProper on dyadic data.

    Slopes are drawn without replacement, so adjacent segments never
    coincide and no breakpoint is redundant.  With ``convex`` the slope
    list is sorted ascending.
    """
    k = int(rng.integers(1, max_breaks + 1))
    xs = np.sort(rng.choice(X_GRID, size=k, replace=False))
    left_bounded = rng.random() < BOUNDED_PROB
    right_bounded = rng.random() < BOUNDED_PROB
    n_slopes = (k - 1) + (0 if left_bounded else 1) + (0 if right_bounded else 1)
    slopes = list(rng.choice(SLOPE_GRID, size=max(n_slopes, 1), replace=False))
    if convex:
        slopes.sort()
    sl = None if left_bounded else float(slopes.pop(0))
    sr = None if right_bounded else float(slopes.pop())
    seg = slopes[: k - 1]
    vs = [float(np.round(rng.uniform(-5, 5) * 2) / 2)]
    for i in range(k - 1):
        vs.append(vs[-1] + float(seg[i]) * float(xs[i + 1] - xs[i]))
    return PLProper(
        [float(x) for x in xs],
        vs,
        slope_left=sl,
        slope_right=sr,
        dom_lo=float(xs[0]) if left_bounded else -np.inf,
        dom_hi=float(xs[-1]) if right_bounded else np.inf,
    )


def random_convex_pl(rng, max_breaks=5):
    return random_pl(rng, convex=True, max_breaks=max_breaks)


def random_nonconvex_pl(rng, max_breaks=5):
    """Random PLProper guaranteed to have at least one slope descent."""
    for _ in range(50):
        f = random_pl(rng, convex=False, max_breaks=max_breaks)
        s = f.all_slopes()
        if any(b < a for a, b in zip(s, s[1:])):
            return f
    raise RuntimeError("failed to draw a non-convex function")


def random_improper_split(rng):
    lo = float(rng.choice([-np.inf, *X_GRID]))
    hi = float(rng.choice([np.inf, *X_GRID[X_GRID >= lo]]))
    return improper_split(lo, hi)


def random_closed_convex_fn(rng):
    """Random closed convex up-space function across all four variants."""
    u = rng.random()
    if u < 0.70:
        return random_convex_pl(rng)
    if u < 0.85:
        g = random_improper_split(rng)
        return g
    if u < 0.925:
        return ConstTop()
    return ConstBottom()


@dataclass
class ConlinearReport:
    """Axiom violations as (axiom, witness) pairs; ``neutral`` is None if none was found."""

    neutral: object
    violations: list
    convex_elements: list

    @property
    def is_conlinear(self):
        return not self.violations


def check_conlinear(elems, add, scale, probes):
    """Check the conlinear-space axioms (Hamel 2009) on a finite sample of a space.

    ``add(x, y)`` and ``scale(t, x)`` are the space's operations and
    ``probes`` the scalars t >= 0 tried; elements are compared with ``==``.
    C0-congruence: x == x' implies x + y == x' + y and tx == tx', so the
    axioms below speak of elements, not of representatives.  C1: ``add``
    is commutative and associative and has a neutral element θ in
    ``elems``.  C2-i: t(x + y) = tx + ty.  C2-ii: s(rx) = (rs)x when rs
    is a probe.  C2-iii: 1x = x.  C2-iv: 0θ = θ.  Each axiom lists at most
    ``MAX_WITNESSES`` witnesses.  The convex elements, those with
    (s + t)x = sx + tx whenever s + t is a probe, are listed too.

    The axioms do not fix 0·(±∞): a scale with 0·(±∞) = ±∞ passes all of
    them on an extreal sample, so ``extreal.scale``'s 0·(±∞) = 0 is a
    convention, pinned by its own tests.  Raises ValueError when
    ``probes`` lacks 0 or 1.
    """
    elems = list(elems)
    probes = sorted(set(probes))
    if 0 not in probes or 1 not in probes:
        raise ValueError(f"probes must contain 0 and 1, got {probes}")
    pairs = list(itertools.product(elems, repeat=2))
    violations = []

    def note(axiom, *witness):
        if sum(a == axiom for a, _ in violations) < MAX_WITNESSES:
            violations.append((axiom, witness))

    for x, x2 in pairs:
        if x is not x2 and x == x2:
            for y in elems:
                if add(x, y) != add(x2, y):
                    note("C0-congruence", x, x2, y)
            for t in probes:
                if scale(t, x) != scale(t, x2):
                    note("C0-congruence", t, x, x2)

    for x, y in pairs:
        xy = add(x, y)
        if xy != add(y, x):
            note("C1-commutative", x, y)
        for z in elems:
            if add(xy, z) != add(x, add(y, z)):
                note("C1-associative", x, y, z)
    neutral = next((e for e in elems if all(add(e, w) == w for w in elems)), None)
    if neutral is None:
        note("C1-neutral")

    for t in probes:
        for x, y in pairs:
            if scale(t, add(x, y)) != add(scale(t, x), scale(t, y)):
                note("C2-i", t, x, y)
    for r, s in itertools.product(probes, repeat=2):
        if r * s in probes:
            for x in elems:
                if scale(s, scale(r, x)) != scale(r * s, x):
                    note("C2-ii", r, s, x)
    for x in elems:
        if scale(1, x) != x:
            note("C2-iii", x)
    if neutral is not None and scale(0, neutral) != neutral:
        note("C2-iv", neutral)

    sums = [(s, t) for s, t in itertools.product(probes, repeat=2) if s + t in probes]
    convex = [
        x for x in elems if all(scale(s + t, x) == add(scale(s, x), scale(t, x)) for s, t in sums)
    ]
    return ConlinearReport(neutral, violations, convex)
