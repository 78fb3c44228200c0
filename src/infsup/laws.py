"""Seeded random fixtures and law suites.

Everything here is deterministic given a numpy Generator: the same seed
produces the same corpus, which is what lets the CLI expose the law
suites as reproducible checks and lets the tests pin counterexample-free
runs.  Fixture values live on coarse dyadic grids (halves) so that the
exact-arithmetic laws can be asserted without tolerances wherever the
operations themselves are exact.
"""

from __future__ import annotations

import numpy as np

from . import extreal as xr
from .functions import (
    ConstBottom,
    ConstTop,
    PLProper,
    improper_split,
)

X_GRID = np.arange(-8.0, 8.5, 0.5)
SLOPE_GRID = np.arange(-5.0, 5.5, 0.5)


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


def random_pl(rng, convex=False, max_breaks=5, bounded_prob=0.4):
    """Random PLProper on dyadic data.

    Slopes are drawn without replacement, so adjacent segments never
    coincide and the representation is canonical as built.  With
    ``convex`` the slope list is sorted ascending.
    """
    k = int(rng.integers(1, max_breaks + 1))
    xs = np.sort(rng.choice(X_GRID, size=k, replace=False))
    left_bounded = rng.random() < bounded_prob
    right_bounded = rng.random() < bounded_prob
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


def random_convex_pl(rng, max_breaks=5, bounded_prob=0.4):
    return random_pl(rng, convex=True, max_breaks=max_breaks, bounded_prob=bounded_prob)


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
    hi = float(rng.choice([np.inf, *X_GRID[X_GRID >= lo]])) if lo > -np.inf else float(
        rng.choice([np.inf, *X_GRID])
    )
    if lo > hi:
        lo, hi = hi, lo
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
