"""The size rule: array routes against the stack loops, bit for bit.

From ``functions.ARRAY_MIN_K`` breakpoints on, the constructor's prune
and convexity test, the transform values of a convex function and the
epigraph merge read their chord slopes as float64 arrays; the prune
skips its stack loop when the arrays show that it would pop nothing.
The stack loops are the reference: raising the constant above every
size forces them, and every output must then read the same, by full
``repr``, exceptions included.  The size rule never decides whether a
hull pass runs: only a non-convex function runs the hull stack, at
every size.

The inputs make every fallback fire at large k: raw data with exactly
collinear midpoints (the prune pops), a convex function with one slope
descent (the hull pops) and non-convex data.  The convolution pairs
have exactly tied chord slopes, L and R cuts that drop chords at both
ends, an R that ties a chord exactly, and two right-bounded operands
(R = +inf).  Values sit near 1e6, so that sums round and a vertex
placed by a wrong tie order survives the prune.

The transforms hand the constructor float64 arrays, and it checks an
array input on arrays at every size.  So every input above is also built
from arrays, and must read as it does from lists, with the rule in place
and with the stack forced; a bounded domain clips one below the rule.
Every stored breakpoint list holds Python floats, every constructor
error reads the same from arrays as from lists, and a list input keeps
the caller's own float objects.
"""

import re

import numpy as np
import pytest

import infsup.calculus as calculus
import infsup.functions as functions
from infsup.calculus import biconjugate, conjugate_curve, infconv
from infsup.functions import ARRAY_MIN_K, PLProper, closure_hull

INF = float("inf")


def _points(rng, k):
    """k strictly increasing points spread over [-1e3, 1e3]."""
    return -1e3 + np.cumsum(rng.uniform(0.5, 1.5, k)) * (2e3 / k)


def _values(x, slopes):
    """Values near 1e6 whose chords have slopes[1:-1] (rounded); slopes[0], slopes[-1] are the rays."""
    return 1e6 + np.concatenate(([0.0], np.cumsum(slopes[1:-1] * np.diff(x))))


def _args(x, v, sl, sr, dom_lo=-INF, dom_hi=INF):
    return (x.tolist(), v.tolist(), float(sl), float(sr), dom_lo, dom_hi)


def _single_inputs(k):
    """Constructor arguments, by name, each with about k breakpoints."""
    rng = np.random.default_rng(k)
    x = _points(rng, k)
    s = np.sort(rng.uniform(-50.0, 50.0, k + 1))
    v = _values(x, s)
    out = {
        "convex": _args(x, v, s[0], s[-1]),
        "convex-bounded": _args(x, v, s[0], s[-1], float(x[0]), float(x[-1])),
    }
    # dyadic data with the exact midpoint of every other gap: the prune pops
    dx = np.cumsum(rng.integers(1, 9, k)) / 4.0
    dv = 1024.0 + np.concatenate(([0.0], np.cumsum(np.sort(rng.integers(-640, 640, k - 1)) / 64.0 * np.diff(dx))))
    mx, mv = (dx[:-1:2] + dx[1::2]) / 2.0, (dv[:-1:2] + dv[1::2]) / 2.0
    order = np.argsort(np.concatenate((dx, mx)))
    out["collinear"] = _args(np.concatenate((dx, mx))[order], np.concatenate((dv, mv))[order], -20.0, 20.0)
    # one chord falls 1e-9 below the one before: not convex, and the hull pops
    d = s.copy()
    d[k // 2 + 1] = d[k // 2] - 1e-9
    out["one-descent"] = _args(x, _values(x, d), d[0], d[-1])
    out["non-convex"] = _args(x, _values(x, rng.uniform(-50.0, 50.0, k + 1)), -60.0, 60.0)
    if k >= 4:
        # bounds between breakpoints that keep fewer than ARRAY_MIN_K of them
        m = min(k - 3, ARRAY_MIN_K // 2)
        out["clipped"] = _args(x, v, s[0], s[-1], float(x[1] + x[2]) / 2.0, float(x[m] + x[m + 1]) / 2.0)
    return out


def _pairs(k):
    """Convex operand pairs for ``infconv``, by name."""
    rng = np.random.default_rng(10_000 + k)
    x = _points(rng, k)
    s = np.sort(rng.uniform(-50.0, 50.0, k + 1))
    f = PLProper(*_args(x, _values(x, s), s[0], s[-1]))
    out = {"tied": (f, PLProper([2.0 * t for t in f.xs], [2.0 * t for t in f.vs], f.slope_left, f.slope_right))}
    # g's rays sit exactly on two of f's chord slopes, so L and R cut f's
    # chords at both ends and the chord at R ties it
    sf = np.diff(f.vs) / np.diff(f.xs)
    lo, hi = sf[len(sf) // 4], sf[(3 * len(sf)) // 4]
    xg = _points(rng, k)
    sg = np.concatenate(([lo], np.sort(rng.uniform(lo, hi, k - 1)), [hi]))
    out["cut"] = (f, PLProper(*_args(xg, _values(xg, sg), lo, hi)))
    # both operands bounded on the right: R = +inf
    bounded = []
    for _ in range(2):
        xb = _points(rng, k)
        sb = np.sort(rng.uniform(-50.0, 50.0, k + 1))
        bounded.append(PLProper(*_args(xb, _values(xb, sb), sb[0], sb[-1], -INF, float(xb[-1]))))
    out["right-bounded"] = tuple(bounded)
    return out


def _read(op, *args):
    try:
        out = op(*args)
    except ValueError as e:
        return f"ValueError: {e}"
    return repr(out)


def _outputs(k):
    """The outputs by input name, and the single-input functions by name."""
    out, fns = {}, {}
    for name, args in _single_inputs(k).items():
        f = fns[name] = PLProper(*args)
        out[name] = (
            repr(f),
            f.is_convex(),
            _read(closure_hull, f),
            _read(lambda g: conjugate_curve(g).curve, f),
            _read(biconjugate, f),
        )
    for name, (f, g) in _pairs(k).items():
        assert f.is_convex() and g.is_convex(), name
        out["infconv-" + name] = (_read(infconv, f, g), _read(infconv, g, f))
    return out, fns


def _record(monkeypatch, name, sink):
    """Wrap the helper ``name`` in both modules so that each call also runs sink(args, output)."""
    inner = getattr(functions, name)

    def recorded(*args):
        out = inner(*args)
        sink(args, out)
        return out

    monkeypatch.setattr(functions, name, recorded)
    if hasattr(calculus, name):
        monkeypatch.setattr(calculus, name, recorded)


def _force_the_stack(monkeypatch):
    """Raise the size rule above every size, so that every list input runs the stack loops."""
    for module in (functions, calculus):
        monkeypatch.setattr(module, "ARRAY_MIN_K", 10**9)


@pytest.mark.parametrize("k", sorted({2, 16, ARRAY_MIN_K - 1, ARRAY_MIN_K, 256, 10**4}))
def test_array_routes_match_the_stack_bit_for_bit(k, monkeypatch):
    within, hulled = set(), []
    with monkeypatch.context() as m:
        _record(m, "_any_within_tol", lambda args, out: within.add(out))
        _record(m, "_lower_hull", lambda args, out: hulled.append(args[0]))
        fast, fns = _outputs(k)
    assert {f.is_convex() for f in fns.values()} == {True, False}
    # the hull stack runs on the breakpoints of the non-convex inputs and on nothing else
    assert {id(xs) for xs in hulled} == {id(f.xs) for f in fns.values() if not f.is_convex()}
    if k >= ARRAY_MIN_K:
        # the prune's array test both skipped its stack and fell back to it
        assert within == {True, False}
    _force_the_stack(monkeypatch)
    assert _outputs(k)[0] == fast


def test_an_infinite_chord_slope_is_rejected(monkeypatch):
    # the last two chords of a convex function overflow to +inf; the
    # array route rejects them, and so does the stack route, forced after
    k = ARRAY_MIN_K
    rng = np.random.default_rng(k)
    x = _points(rng, k)
    s = np.sort(rng.uniform(-50.0, 50.0, k + 1))
    v = _values(x, s)
    x[-2:] = x[-3] + np.array([1e-10, 2e-10])
    v[-2:] = [1e300, 1.5e300]
    args = _args(x, v, s[0], s[-1], -INF, float(x[-1]))
    message = re.escape(f"chord from breakpoint x = {float(x[-3])!r} to x = {float(x[-2])!r} has slope inf")
    with pytest.raises(ValueError, match=message):
        PLProper(*args)
    monkeypatch.setattr(functions, "ARRAY_MIN_K", 10**9)
    with pytest.raises(ValueError, match=message):
        PLProper(*args)


def _as_arrays(args):
    """Constructor arguments with xs and vs as float64 arrays, the form the transforms pass."""
    return (np.array(args[0]), np.array(args[1]), *args[2:])


def _stores_floats(f):
    """Whether f stores lists of Python floats (no numpy scalars), if it stores breakpoints at all."""
    return not isinstance(f, PLProper) or all(
        type(a) is list and all(type(t) is float for t in a) for a in (f.xs, f.vs)
    )


ROUTE_KS = sorted({ARRAY_MIN_K - 1, ARRAY_MIN_K, 10**4})


@pytest.mark.parametrize("stack", [False, True], ids=["rule", "stack"])
@pytest.mark.parametrize("k", sorted({2, 16, *ROUTE_KS}))
def test_array_inputs_build_what_list_inputs_build(k, stack, monkeypatch):
    if stack:
        _force_the_stack(monkeypatch)
    for name, args in _single_inputs(k).items():
        f, g = PLProper(*args), PLProper(*_as_arrays(args))
        assert repr(g) == repr(f), name
        out = [f, g, conjugate_curve(f).curve, biconjugate(f)]
        assert all(_stores_floats(h) for h in out), name
    for name, (f, g) in _pairs(k).items():
        assert _stores_floats(infconv(f, g)), name


def _bad_inputs(k):
    """Constructor arguments with about k breakpoints that fail, one check each, by name."""
    x = np.arange(k, dtype=float)
    v = x * x / k
    out = {"lengths": _args(x, v[:-1], -1.0, 3.0)}
    for name, i in (("x-nan", k // 2), ("x-inf", k - 1)):
        bad = x.copy()
        bad[i] = np.nan if name == "x-nan" else np.inf
        out[name] = _args(bad, v, -1.0, 3.0)
    for name, i in (("v-inf", 0), ("v-nan", k // 3)):
        bad = v.copy()
        bad[i] = -np.inf if name == "v-inf" else np.nan
        out[name] = _args(x, bad, -1.0, 3.0)
    bad = x.copy()
    bad[k // 2] = bad[k // 2 - 1]
    out["not-increasing"] = _args(bad, v, -1.0, 3.0)
    # one chord across 0 is longer than the largest float
    wide = np.concatenate((np.linspace(-1e308, -9e307, k // 2), np.linspace(9e307, 1e308, k - k // 2)))
    out["span"] = _args(wide, v, -1.0, 3.0)
    out["value-at-dom-lo"] = _args(x, v, 1e300, 3.0, -1e300)
    out["needs-slope"] = (x.tolist(), v.tolist(), -1.0, None, -INF, float(k))
    # the last two chords are steeper than the largest float
    steep, high = x.copy(), v.copy()
    steep[-2:] = steep[-3] + np.array([1e-10, 2e-10])
    high[-2:] = [1e300, 1.5e300]
    out["chord-slope"] = (steep.tolist(), high.tolist(), -1.0, None, -INF, float(steep[-1]))
    return out


@pytest.mark.parametrize("stack", [False, True], ids=["rule", "stack"])
@pytest.mark.parametrize("k", ROUTE_KS)
def test_array_inputs_raise_what_list_inputs_raise(k, stack, monkeypatch):
    if stack:
        _force_the_stack(monkeypatch)
    for name, args in _bad_inputs(k).items():
        want = _read(PLProper, *args)
        assert want.startswith("ValueError: "), (name, want)
        assert _read(PLProper, *_as_arrays(args)) == want, name


@pytest.mark.parametrize("k", [ARRAY_MIN_K, 10**4])
def test_list_inputs_keep_the_callers_floats(k):
    # storing copies would hold every breakpoint twice while the caller
    # keeps its lists, as a transform's operand does
    for name in ("convex", "non-convex"):
        xs, vs, *rest = _single_inputs(k)[name]
        f = PLProper(xs, vs, *rest)
        assert len(f.xs) == len(xs), name
        for i in np.random.default_rng(k).integers(len(xs), size=20):
            assert f.xs[i] is xs[i] and f.vs[i] is vs[i], (name, i)
