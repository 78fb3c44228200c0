"""Seeded inputs for the three workloads.

Everything here runs during set-up: it turns ``--seed`` into the objects
the timed passes hand to the library, and the same seed always gives the
same inputs.  Library calls made while generating (the ``laws``
generators, ``random_groupoid``, groupoid construction, the ``make`` of
infconv partners) go through ``call`` so the traced run can attribute
set-up time to them.

Besides the library inputs, each case carries the closed-form facts the
oracles need (polygon vertices, lattice coordinates), computed here with
numpy and never with the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from infsup import extreal as xr
from infsup import functions as fn
from infsup import groupoid as gp
from infsup import laws

INF = math.inf

# One table per workload.  ``pl`` maps breakpoint count to the number of
# float PL functions at that size (types cycle through PL_TYPES);
# ``collinear`` lists (type, base points) of dyadic raw inputs with a
# midpoint inserted into every other gap.
CONFIGS = {
    "pl-large": dict(
        pl={100: 30, 1000: 9, 10000: 3, 100000: 1},
        collinear=(("convex-unbounded", 2000), ("nonconvex-bounded", 2000)),
        tiny=400,
        chains=(8, 12),
        products=((3, 4),),
        random_groupoids=(4,),
        nonlattice=False,
        poly_edges=(16,) * 6,
        lower=False,
        bulk_n=10_000,
        scalar_pairs=500,
    ),
    "law-corpus": dict(
        pl={},
        collinear=(),
        tiny=2000,
        chains=(4,),
        products=((2, 3),),
        random_groupoids=(3, 4, 5, 6) * 4,
        nonlattice=False,
        poly_edges=(16,) * 6,
        lower=False,
        bulk_n=1_000_000,
        scalar_pairs=2000,
    ),
    "lattice-geometry": dict(
        pl={},
        collinear=(),
        tiny=640,
        chains=(16, 32, 48),
        products=((4, 4), (6, 8)),
        random_groupoids=(5,),
        nonlattice=True,
        poly_edges=(16, 32, 64, 128),
        lower=True,
        bulk_n=10_000,
        scalar_pairs=200,
    ),
}

PL_TYPES = ("convex-unbounded", "convex-bounded", "nonconvex-bounded")


@dataclass
class LawSample:
    """Law-check arguments for one tiny function (dyadic, so the laws are exact)."""

    yf: list  # (xi, r, x) for young_fenchel_check
    minorant: list  # (xi, r) for minorant_conditions
    x0: float  # point for subdiff_conjugate_check
    iccc: tuple  # (xi, r) for infconv_conjugate_check


@dataclass
class FnCase:
    label: str
    raw: list | None  # (x, v) pairs for PLProper.make, or None for a ready function
    make_args: tuple  # slope_left, slope_right, dom_lo, dom_hi
    given: object  # the ready function when raw is None
    partner: object  # closed convex infconv partner
    points: list  # query points
    law: LawSample | None = None
    minkowski_lower: np.ndarray | None = None  # lower chain of P + Q, for polygon lower boundaries

    @property
    def size(self):
        return len(self.raw) if self.raw is not None else len(getattr(self.given, "xs", ()))


@dataclass
class GroupoidCase:
    label: str
    G: object
    kind: str  # "lattice" (chain or product of chains) or "small" (brute-forced)
    coords: dict = field(default_factory=dict)  # label -> coordinate tuple, lattices only
    dims: tuple = ()


@dataclass
class PolyCase:
    label: str
    hp_p: list
    hp_q: list
    wedge: list
    strip: list
    dirs: list
    points: list
    verts_p: np.ndarray
    verts_q: np.ndarray


@dataclass
class BulkCase:
    a: np.ndarray
    b: np.ndarray
    t: float
    sample: np.ndarray


@dataclass
class Inputs:
    fns: list
    scalars: list
    bulk: BulkCase
    groupoids: list
    polys: list
    sizes: dict


def plain(op, f, *args):
    return f(*args)


# ---------------------------------------------------------------------------
# PL functions with float data.
# ---------------------------------------------------------------------------


def pl_data(rng, k, convex, dyadic):
    """Breakpoints, values and end slopes of a random PL function."""
    if dyadic:
        xs = np.sort(rng.choice(np.arange(-4000, 4001), size=k, replace=False)) / 4.0
        slopes = rng.integers(-3200, 3201, size=k + 1) / 64.0
        v0 = float(rng.integers(-1000, 1001))
    else:
        xs = np.unique(rng.uniform(-1e3, 1e3, size=k))
        slopes = rng.uniform(-50.0, 50.0, size=len(xs) + 1)
        v0 = float(rng.uniform(-1e3, 1e3))
    if convex:
        slopes.sort()
    vs = v0 + np.concatenate([[0.0], np.cumsum(slopes[1:-1] * np.diff(xs))])
    return xs, vs, float(slopes[0]), float(slopes[-1])


def with_midpoints(xs, vs):
    """Insert the exact midpoint of every other gap (collinear with its neighbours)."""
    mx = (xs[:-1:2] + xs[1::2]) / 2.0
    mv = (vs[:-1:2] + vs[1::2]) / 2.0
    order = np.argsort(np.concatenate([xs, mx]), kind="stable")
    return np.concatenate([xs, mx])[order], np.concatenate([vs, mv])[order]


def convex_partner(call, f):
    """The closed convex hull of ``f``, an infconv partner that is convex in floats.

    Values built from sorted float slopes can round into a slope descent
    of about 1e-8 where two slopes nearly tie, and ``infconv`` rightly
    refuses a non-convex operand.  The hull drops that rounding and
    leaves the function otherwise as drawn.
    """
    return call("functions.closure_hull", fn.closure_hull, f)


def _pl_case(rng, call, kind, k, collinear, partner_cache):
    convex = kind.startswith("convex")
    xs, vs, sl, sr = pl_data(rng, k, convex, dyadic=collinear)
    if collinear:
        xs, vs = with_midpoints(xs, vs)
    raw = list(zip(xs.tolist(), vs.tolist()))
    if kind == "convex-unbounded":
        make_args = (sl, sr, -INF, INF)
    else:
        make_args = (None, None, float(xs[0]), float(xs[-1]))
    # partner: a convex unbounded function of the same size, built once per size
    if k not in partner_cache:
        pxs, pvs, psl, psr = pl_data(rng, k, True, dyadic=False)
        made = call("functions.make", fn.PLProper.make, list(zip(pxs.tolist(), pvs.tolist())), psl, psr)
        partner_cache[k] = convex_partner(call, made)
    # between breakpoints at fixed index fractions, and on the middle one:
    # the slope lookups scan to the point, so fixed fractions keep the work
    # the same from seed to seed
    n = len(xs)
    points = [float((xs[int(q * n)] + xs[int(q * n) + 1]) / 2) for q in (0.3, 0.7)] + [float(xs[n // 2])]
    tag = "collinear-" if collinear else ""
    return FnCase(f"{tag}{kind}/k={len(raw)}", raw, make_args, None, partner_cache[k], points)


# ---------------------------------------------------------------------------
# Tiny dyadic functions from the law generators.
# ---------------------------------------------------------------------------


def _tiny_case(rng, call, i):
    if i % 5 < 3:
        f = call("laws.random_closed_convex_fn", laws.random_closed_convex_fn, rng)
    else:
        f = call("laws.random_nonconvex_pl", laws.random_nonconvex_pl, rng)
    partner = call("laws.random_closed_convex_fn", laws.random_closed_convex_fn, rng)
    X, A = laws.X_GRID, laws.SLOPE_GRID

    def pick(grid):
        return float(rng.choice(grid))

    xi_p, xi_h = fn.DualElem.proper(pick(A)), fn.DualElem.hat(pick(A))
    law = LawSample(
        yf=[(xi_p, pick(X), pick(X)), (xi_h, pick(X), pick(X))],
        minorant=[(fn.DualElem.proper(pick(A)), pick(X)), (fn.DualElem.hat(pick(A)), pick(X))],
        x0=pick(X),
        iccc=((xi_p if i % 2 else xi_h), pick(X)),
    )
    points = [pick(X) for _ in range(3)]
    if isinstance(f, fn.PLProper):
        raw = list(zip(f.xs, f.vs))
        make_args = (f.slope_left, f.slope_right, f.dom_lo, f.dom_hi)
        return FnCase(f"tiny/{i}", raw, make_args, None, partner, points, law)
    return FnCase(f"tiny/{i}", None, (), f, partner, points, law)


# ---------------------------------------------------------------------------
# Polygons: halfplanes tangent to a circle at seeded angles.
# ---------------------------------------------------------------------------


def tangent_polygon(rng, k, center, radius):
    """Halfplanes tangent to a circle, and the polygon's vertices in closed form.

    Angles jitter around a regular grid, so consecutive gaps stay below
    pi and the polygon is bounded.  Consecutive tangent lines at angles
    t1 < t2 meet at center + radius * u((t1+t2)/2) / cos((t2-t1)/2).
    """
    th = 2.0 * np.pi * (np.arange(k) + 0.8 * rng.random(k)) / k + rng.uniform(0, 2 * np.pi)
    th = np.sort(np.mod(th, 2 * np.pi))
    cx, cy = center
    hp = [((math.cos(t), math.sin(t)), math.cos(t) * cx + math.sin(t) * cy + radius) for t in th]
    nxt = np.roll(th, -1)
    nxt[-1] += 2 * np.pi
    mid, half = (th + nxt) / 2.0, (nxt - th) / 2.0
    verts = np.stack([cx + radius * np.cos(mid) / np.cos(half), cy + radius * np.sin(mid) / np.cos(half)], 1)
    return hp, verts


def _poly_case(rng, k, i):
    """Two overlapping k-gons, a wedge at a point of both, and a strip.

    Sizes, offsets and angles are fixed and only the orientations are
    seeded, so the cost of a job hardly depends on the seed.
    """
    c = rng.uniform(-1.0, 1.0, size=2)
    hp_p, verts_p = tangent_polygon(rng, k, (c[0], c[1]), 1.0)
    t = rng.uniform(0, 2 * np.pi)
    d = c + 0.3 * np.array([math.cos(t), math.sin(t)])
    hp_q, verts_q = tangent_polygon(rng, k, (d[0], d[1]), 0.7)
    phi, alpha = rng.uniform(0, 2 * np.pi), 0.55 * np.pi
    apex = (c + d) / 2.0  # inside both P and Q, so P, Q and the wedge always meet
    wedge = []
    for t in (phi, phi + alpha):
        n = (math.cos(t), math.sin(t))
        wedge.append((n, n[0] * apex[0] + n[1] * apex[1]))
    psi = rng.uniform(0, 2 * np.pi)
    n = (math.cos(psi), math.sin(psi))
    off = n[0] * c[0] + n[1] * c[1]
    strip = [(n, off + 0.5), ((-n[0], -n[1]), -off + 0.5)]
    ang = rng.uniform(0, 2 * np.pi, size=64)
    dirs = [(math.cos(t), math.sin(t)) for t in ang]
    pts = c + rng.uniform(-2.0, 2.0, size=(32, 2))
    points = [(float(x), float(y)) for x, y in pts]
    return PolyCase(f"poly/{i}/edges={k}", hp_p, hp_q, wedge, strip, dirs, points, verts_p, verts_q)


def lower_chain(points):
    """Lower convex chain of a point set, left to right (monotone chain)."""
    pts = sorted({(float(x), float(y)) for x, y in points})
    out = []
    for p in pts:
        while len(out) >= 2:
            (x1, y1), (x2, y2) = out[-2], out[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                out.pop()
            else:
                break
        out.append(p)
    return np.array(out)


def _lower_case(call, pc):
    """A polygon's lower boundary as a bounded convex PL function; partner is Q's."""
    lp, lq = lower_chain(pc.verts_p), lower_chain(pc.verts_q)
    made = call("functions.make", fn.PLProper.make, [tuple(p) for p in lq.tolist()], None, None, lq[0, 0], lq[-1, 0])
    partner = convex_partner(call, made)
    sums = (pc.verts_p[:, None, :] + pc.verts_q[None, :, :]).reshape(-1, 2)
    lo, hi = lp[0, 0], lp[-1, 0]
    points = [float(lo + (hi - lo) * t) for t in (0.2, 0.5, 0.8)]
    return FnCase(
        f"lower/{pc.label}",
        [tuple(p) for p in lp.tolist()],
        (None, None, float(lo), float(hi)),
        None,
        partner,
        points,
        minkowski_lower=lower_chain(sums),
    )


# ---------------------------------------------------------------------------
# Finite ordered groupoids.
# ---------------------------------------------------------------------------


def lattice(call, dims):
    """Product of chains 0..d-1 with saturating addition; a chain when len(dims) == 1.

    The carrier is listed in a fixed order: the checks search it front to
    back, so a seeded order would make their work depend on the seed.
    """
    coords = [()]
    for d in dims:
        coords = [c + (i,) for c in coords for i in range(d)]
    labels = ["x" + "_".join(map(str, c)) for c in coords]
    index = {c: i for i, c in enumerate(coords)}

    def add(u, v):
        return tuple(min(a + b, d - 1) for a, b, d in zip(u, v, dims))

    table = [[labels[index[add(u, v)]] for v in coords] for u in coords]
    leq = [[all(a <= b for a, b in zip(u, v)) for v in coords] for u in coords]
    G = call("groupoid.FiniteOrderedGroupoid", gp.FiniteOrderedGroupoid, labels, table, leq)
    name = "chain" if len(dims) == 1 else "product"
    return GroupoidCase(f"{name}/{'x'.join(map(str, dims))}", G, "lattice", dict(zip(labels, coords)), dims)


# A compatible ordered groupoid whose order is not a lattice: "b" is a top
# element, there is no bottom, and "a" and "c" have no common lower bound.
_NONLATTICE_ADD = [
    [0, 1, 0, 0, 0, 0],
    [1, 1, 1, 1, 1, 1],
    [0, 1, 2, 2, 4, 5],
    [0, 1, 2, 3, 4, 5],
    [0, 1, 4, 4, 4, 5],
    [0, 1, 5, 5, 5, 5],
]
_NONLATTICE_LEQ = [
    [1, 1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [0, 1, 1, 0, 1, 1],
    [0, 1, 0, 1, 1, 1],
    [0, 1, 0, 0, 1, 1],
    [0, 1, 0, 0, 0, 1],
]


def _nonlattice(rng, call):
    p = [int(j) for j in rng.permutation(6)]  # new position -> old index
    labels = ["abcdef"[j] for j in p]
    table = [["abcdef"[_NONLATTICE_ADD[p[i]][p[j]]] for j in range(6)] for i in range(6)]
    leq = [[_NONLATTICE_LEQ[p[i]][p[j]] for j in range(6)] for i in range(6)]
    G = call("groupoid.FiniteOrderedGroupoid", gp.FiniteOrderedGroupoid, labels, table, leq)
    return GroupoidCase("nonlattice/6", G, "small")


# ---------------------------------------------------------------------------
# Extended reals.
# ---------------------------------------------------------------------------


def _scalar_cases(rng, call, n, chunks=10):
    """Scalar triples and factors, split into chunks that run as separate jobs."""
    vals = call("laws.random_ext_values", laws.random_ext_values, rng, 3 * n, 0.125)
    ts = rng.integers(1, 9, size=n) / 4.0
    out = []
    for i in range(n):
        a, b, c = (float(v) for v in vals[3 * i : 3 * i + 3])
        out.append((xr.UpReal(a), xr.UpReal(b), xr.UpReal(c), xr.DownReal(a), xr.DownReal(b), xr.DownReal(c), float(ts[i])))
    return [out[i::chunks] for i in range(chunks)]


def _bulk_case(rng, call, n):
    a = call("laws.random_ext_values", laws.random_ext_values, rng, n, 0.125)
    b = call("laws.random_ext_values", laws.random_ext_values, rng, n, 0.125)
    sample = np.sort(rng.choice(n, size=min(n, 256), replace=False))
    return BulkCase(a, b, float(rng.integers(1, 9)) / 4.0, sample)


# ---------------------------------------------------------------------------


def generate(workload, seed, call=plain):
    """All inputs of one workload for one seed."""
    cfg = CONFIGS[workload]
    rng = np.random.default_rng([seed, list(CONFIGS).index(workload)])
    fns, partners = [], {}
    for k, count in cfg["pl"].items():
        for j in range(count):
            fns.append(_pl_case(rng, call, PL_TYPES[j % len(PL_TYPES)], k, False, partners))
    for kind, base in cfg["collinear"]:
        fns.append(_pl_case(rng, call, kind, base, True, partners))
    polys = [_poly_case(rng, k, i) for i, k in enumerate(cfg["poly_edges"])]
    if cfg["lower"]:
        fns += [_lower_case(call, pc) for pc in polys]
    fns += [_tiny_case(rng, call, i) for i in range(cfg["tiny"])]

    groupoids = [lattice(call, (n,)) for n in cfg["chains"]]
    groupoids += [lattice(call, dims) for dims in cfg["products"]]
    for n in cfg["random_groupoids"]:
        G = call("groupoid.random_groupoid", gp.random_groupoid, rng, n)
        groupoids.append(GroupoidCase(f"random/{n}", G, "small"))
    if cfg["nonlattice"]:
        groupoids.append(_nonlattice(rng, call))

    scalars = _scalar_cases(rng, call, cfg["scalar_pairs"])
    bulk = _bulk_case(rng, call, cfg["bulk_n"])
    sizes = {
        "pl_functions": {str(k): c for k, c in cfg["pl"].items()},
        "collinear_raw_points": [f.size for f in fns if f.label.startswith("collinear")],
        "fn_cases": len(fns),
        "max_breakpoints": max((f.size for f in fns), default=0),
        "groupoids": [g.label for g in groupoids],
        "poly_edges": list(cfg["poly_edges"]),
        "bulk_elements": cfg["bulk_n"],
        "scalar_pairs": cfg["scalar_pairs"],
    }
    return Inputs(fns, scalars, bulk, groupoids, polys, sizes)
