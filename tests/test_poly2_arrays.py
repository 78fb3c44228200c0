"""The array passes of ``poly2`` against the loops they replaced, bit for bit.

``_clip`` clips every row's boundary line by every other row, and
``_max_dots`` takes every support value, each in one numpy pass over
blocks of rows.  The per-row loops below are the reference: they do the
same arithmetic in the same order with Python floats, a running
``min``/``max`` and ``max`` over a generator.  Patched in for the array
passes, they must give every output the same full ``repr``.

The inputs: the seeded halfplane fuzz and the degenerate table of
``test_poly2``, and tangent polygons of 16..256 rows with duplicate rows,
opposite touching rows (a flat set) and concurrent rows (several
boundary lines through one vertex) injected, with their Minkowski sums,
hulls and intersections.  A block cap small enough to split every pass
into several blocks is tried too.
"""

import math

import numpy as np
import pytest
from test_poly2 import DEGENERATE, _random_system, _u, tangent_polygon

import infsup.poly2 as poly2
from infsup.poly2 import INF, TOL, ConvexPoly2, hull_union, intersect_all

build = ConvexPoly2.from_halfplanes
DIRS = [_u(t) for t in np.linspace(0, 2 * np.pi, 16, endpoint=False) + 0.01]
DIRS += [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (-0.0, -1.0)]


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _clip_loop(rows):
    """The per-row clipping loop: lo, hi, pinned per row, or None when empty."""
    los, his, pins = [], [], []
    for i, (n, c) in enumerate(rows):
        d = (-n[1], n[0])
        p = (c * n[0], c * n[1])
        lo, hi = -INF, INF
        pinned = False
        for j, (m, e) in enumerate(rows):
            if j == i:
                continue
            a = _dot(m, d)
            b = e - _dot(m, p)
            if abs(a) <= TOL:
                slack = TOL * (1 + abs(c) + abs(e))
                if b < -slack:
                    return None
                pinned = pinned or b <= slack
            elif a > 0:
                hi = min(hi, b / a)
            else:
                lo = max(lo, b / a)
        los.append(lo)
        his.append(hi)
        pins.append(pinned)
    return los, his, pins


def _max_dots_loop(dirs, gens, npts):
    """Support values with Python ``max``: +inf when a ray points along d."""
    pts, rays = gens.T[:npts].tolist(), gens.T[npts:].tolist()
    return np.array(
        [INF if any(_dot(d, r) > TOL for r in rays) else max(_dot(d, v) for v in pts) for d in dirs]
    )


def _inject(rng, hps):
    """The tangent rows with a duplicate, concurrent rows and, as a second
    system, an opposite row touching one of them."""
    k = len(hps)
    out = list(hps)
    n, c = hps[int(rng.integers(k))]
    out.append(((2.0 * n[0], 2.0 * n[1]), 2.0 * c + 0.5))  # same direction, looser
    out.append(((n[0], n[1]), c))  # an exact duplicate
    # rows through the vertex between rows i and i + 1, at normals between theirs
    i = int(rng.integers(k))
    (n1, c1), (n2, c2) = hps[i], hps[(i + 1) % k]
    det = n1[0] * n2[1] - n1[1] * n2[0]
    v = ((c1 * n2[1] - c2 * n1[1]) / det, (n1[0] * c2 - n2[0] * c1) / det)
    for w in (0.25, 0.5, 0.75):
        m = (n1[0] * (1 - w) + n2[0] * w, n1[1] * (1 - w) + n2[1] * w)
        out.append((m, m[0] * v[0] + m[1] * v[1]))
    flat = list(out) + [((-n[0], -n[1]), -c)]
    return out, flat


def _systems():
    """Halfplane systems, by name."""
    out = {name: hps for name, hps, *_ in DEGENERATE}
    for grid in (True, False):
        rng = np.random.default_rng(20101114 + grid)
        for i in range(200):
            out[f"fuzz/{grid}/{i}"] = _random_system(rng, grid)
    rng = np.random.default_rng(1703)
    for i in range(40):  # rows through the origin with offsets 0.0 and -0.0: bounds tie with either sign
        angles = rng.integers(0, 16, size=int(rng.integers(2, 7))) * (math.pi / 8)
        out[f"zeros/{i}"] = [(_u(t), float(z)) for t, z in zip(angles, rng.choice([0.0, -0.0], size=len(angles)))]
    for k in (16, 65, 256):
        hp, _ = tangent_polygon(rng, k, rng.uniform(-1, 1, 2), 1.0)
        out[f"tangent/{k}"] = hp
        out[f"injected/{k}"], out[f"flat/{k}"] = _inject(rng, hp)
    return out


def _read(op, *args):
    try:
        out = op(*args)
    except ValueError as e:
        return f"ValueError: {e}"
    return repr(out)


def _outputs():
    """Output reprs by name, and the shapes (empty, vertex and ray counts) built."""
    polys = {name: build(hps) for name, hps in _systems().items()}
    out = {name: repr(P) + repr(P.validate()) for name, P in polys.items()}
    for name, P in polys.items():
        out["support/" + name] = repr([P.support(d) for d in DIRS])
    for verts in (((0.0, 1.0), (-0.0, -1.0)), ((-0.0, -1.0), (0.0, 1.0))):
        # supports along (1, 0) tie 0.0 with -0.0; the first vertex's zero is kept
        out[f"zeros/{verts}"] = repr([ConvexPoly2(False, (), verts, ()).support(d) for d in DIRS])
    names = [n for n in polys if not n.startswith("fuzz")]
    names += [f"fuzz/{g}/{i}" for g in (True, False) for i in range(0, 200, 10)]
    for a, b in zip(names, names[1:] + names[:1]):
        A, B = polys[a], polys[b]
        out[f"sum/{a}/{b}"] = _read(A.minkowski, B)
        out[f"hull/{a}/{b}"] = _read(hull_union, [A, B])
        out[f"meet/{a}/{b}"] = _read(intersect_all, [A, B])
    shapes = {(P.empty, min(len(P.verts), 3), len(P.rays)) for P in polys.values()}
    return out, shapes


@pytest.fixture(scope="module")
def loops():
    with pytest.MonkeyPatch.context() as m:
        m.setattr(poly2, "_clip", _clip_loop)
        m.setattr(poly2, "_max_dots", _max_dots_loop)
        return _outputs()[0]


@pytest.mark.parametrize("block", [poly2.BLOCK, 64], ids=["BLOCK", "64 elements"])
def test_array_passes_match_the_loops_bit_for_bit(block, loops, monkeypatch):
    monkeypatch.setattr(poly2, "BLOCK", block)
    fast, shapes = _outputs()
    assert fast.keys() == loops.keys()
    assert [k for k in loops if loops[k] != fast[k]] == []
    # empty sets, points, segments, polygons, halflines, wedges and halfplanes
    assert {(True, 0, 0), (False, 1, 0), (False, 2, 0), (False, 3, 0), (False, 1, 1), (False, 1, 2), (False, 1, 3)} <= shapes
