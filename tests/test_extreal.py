import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from infsup.extreal import (
    UpReal,
    DownReal,
    isum,
    ssum,
    idif,
    sdif,
    negate_up,
    negate_down,
    as_up,
    as_down,
    scale,
    inf_up,
    sup_up,
    inf_down,
    sup_down,
    isum_arr,
    ssum_arr,
    idif_arr,
    sdif_arr,
    scale_arr,
)

INF = math.inf
up, down = UpReal, DownReal
TAGS = [-INF, 2.0, INF]

# Frozen full difference tables over {Bottom, finite, Top} x {Bottom, finite, Top}.
# Each entry was worked out directly from the residual definitions:
# idif(a, b) is the least t with a <= isum(b, t) and sdif(a, b) the greatest t
# with ssum(b, t) <= a.  The finite/finite entries use a=5, b=3.
IDIF_TABLE = {
    (-INF, -INF): -INF,
    (-INF, 3.0): -INF,
    (-INF, INF): -INF,
    (5.0, -INF): INF,
    (5.0, 3.0): 2.0,
    (5.0, INF): -INF,
    (INF, -INF): INF,
    (INF, 3.0): INF,
    (INF, INF): -INF,
}
SDIF_TABLE = {
    (-INF, -INF): INF,
    (-INF, 3.0): -INF,
    (-INF, INF): -INF,
    (5.0, -INF): INF,
    (5.0, 3.0): 2.0,
    (5.0, INF): -INF,
    (INF, -INF): INF,
    (INF, 3.0): INF,
    (INF, INF): INF,
}


def oracle_idif(a, b):
    # Independent residual computation.  The solution set {t : a <= isum(b, t)}
    # is upward closed and always contains +inf, and its least element can only
    # be -inf, +inf, or a-b (finite case): with both arguments finite the
    # predicate is t >= a-b; with any argument infinite the predicate is
    # constant over finite t, so the least solution is an endpoint.  Scanning
    # a candidate grid containing those three values is therefore exact.
    cands = [-INF, INF, -9.0, 0.0, 9.0]
    if math.isfinite(a.v) and math.isfinite(b.v):
        cands.append(a.v - b.v)
    ok = [t for t in cands if a <= isum(b, UpReal(t))]
    return UpReal(min(ok))


def oracle_sdif(a, b):
    cands = [-INF, INF, -9.0, 0.0, 9.0]
    if math.isfinite(a.v) and math.isfinite(b.v):
        cands.append(a.v - b.v)
    ok = [t for t in cands if ssum(b, DownReal(t)) <= a]
    return DownReal(max(ok))


def test_idif_frozen_table():
    for (a, b), want in IDIF_TABLE.items():
        assert idif(up(a), up(b)) == up(want), (a, b)


def test_sdif_frozen_table():
    for (a, b), want in SDIF_TABLE.items():
        assert sdif(down(a), down(b)) == down(want), (a, b)


def test_difference_tables_match_residual_oracle():
    for a in TAGS + [5.0, -5.0]:
        for b in TAGS + [3.0, -4.0]:
            assert idif(up(a), up(b)) == oracle_idif(up(a), up(b))
            assert sdif(down(a), down(b)) == oracle_sdif(down(a), down(b))


def test_difference_by_top_and_bottom():
    # r minus Top in the up space is always Bottom, and r minus Bottom in the
    # down space is always Top, for every r including the infinities.
    for r in TAGS:
        assert idif(up(r), UpReal.top()).is_bottom
        assert sdif(down(r), DownReal.bottom()).is_top


def test_sum_domination():
    assert isum(UpReal.top(), UpReal.bottom()).is_top
    assert ssum(DownReal.top(), DownReal.bottom()).is_bottom
    assert isum(UpReal.bottom(), UpReal.bottom()).is_bottom
    assert ssum(DownReal.top(), DownReal.top()).is_top
    assert isum(up(2), up(3)) == up(5)
    assert ssum(down(-1), down(4)) == down(3)


# Dyadic grid plus the two infinities: sums, differences and small scalings of
# these are exact in double precision, so the algebraic laws can be asserted
# with == rather than a tolerance.
ext = st.sampled_from([-INF, INF]) | st.integers(-96, 96).map(lambda k: k / 8.0)


@given(ext, ext, ext)
def test_residuation_characterization(a, b, t):
    # 1. a <= isum(b, t)  iff  idif(a, b) <= t
    lhs = up(a) <= isum(up(b), up(t))
    rhs = idif(up(a), up(b)) <= up(t)
    assert lhs == rhs
    # 2. ssum(b, t) <= a  iff  t <= sdif(a, b)
    lhs = ssum(down(b), down(t)) <= down(a)
    rhs = down(t) <= sdif(down(a), down(b))
    assert lhs == rhs


@given(ext, ext)
def test_order_via_differences(a, b):
    # a <= b  iff  idif(a, b) <= 0  iff  0 <= sdif(b, a)
    assert (up(a) <= up(b)) == (idif(up(a), up(b)) <= up(0))
    assert (up(a) <= up(b)) == (down(0) <= sdif(down(b), down(a)))


@given(ext, ext)
def test_sums_commute(a, b):
    assert isum(up(a), up(b)) == isum(up(b), up(a))
    assert ssum(down(a), down(b)) == ssum(down(b), down(a))


@given(ext, ext, ext)
def test_sums_associate(a, b, c):
    assert isum(isum(up(a), up(b)), up(c)) == isum(up(a), isum(up(b), up(c)))
    assert ssum(ssum(down(a), down(b)), down(c)) == ssum(down(a), ssum(down(b), down(c)))


@given(ext, ext, ext)
def test_sums_monotone(a, b, t):
    if up(a) <= up(b):
        assert isum(up(a), up(t)) <= isum(up(b), up(t))
        assert ssum(down(a), down(t)) <= ssum(down(b), down(t))


@given(ext, ext, ext)
def test_differences_monotone(r, s, t):
    # increasing the minuend or decreasing the subtrahend grows the difference
    if up(r) <= up(s):
        assert idif(up(r), up(t)) <= idif(up(s), up(t))
        assert idif(up(t), up(s)) <= idif(up(t), up(r))
        assert sdif(down(r), down(t)) <= sdif(down(s), down(t))
        assert sdif(down(t), down(s)) <= sdif(down(t), down(r))


def test_self_difference():
    assert idif(up(7), up(7)) == up(0)
    assert idif(UpReal.top(), UpReal.top()).is_bottom
    assert idif(UpReal.bottom(), UpReal.bottom()).is_bottom
    assert sdif(down(7), down(7)) == down(0)
    assert sdif(DownReal.top(), DownReal.top()).is_top
    assert sdif(DownReal.bottom(), DownReal.bottom()).is_top


@given(ext, ext, ext, ext)
def test_difference_subadditivity(a, b, r, s):
    # up space: (a+r) - (b+s) <= (a-b) + (r-s); mirrored in the down space
    lhs = idif(isum(up(a), up(r)), isum(up(b), up(s)))
    rhs = isum(idif(up(a), up(b)), idif(up(r), up(s)))
    assert lhs <= rhs
    lhs2 = ssum(sdif(down(a), down(b)), sdif(down(r), down(s)))
    rhs2 = sdif(ssum(down(a), down(r)), ssum(down(b), down(s)))
    assert lhs2 <= rhs2


@given(ext, st.lists(ext, max_size=5))
def test_difference_against_family_extremes(a, ms):
    # a - inf(M) is the sup of the a - m, and dually; holds for the empty family
    lhs = idif(up(a), inf_up([up(m) for m in ms]))
    rhs = sup_up([idif(up(a), up(m)) for m in ms])
    assert lhs == rhs
    lhs = sdif(down(a), sup_down([down(m) for m in ms]))
    rhs = inf_down([sdif(down(a), down(m)) for m in ms])
    assert lhs == rhs


@given(st.integers(0, 16).map(lambda k: k / 4.0), ext, ext)
def test_scaling_commutes_with_differences(t, a, b):
    assert scale(t, idif(up(a), up(b))) == idif(scale(t, up(a)), scale(t, up(b)))
    assert scale(t, sdif(down(a), down(b))) == sdif(scale(t, down(a)), scale(t, down(b)))


@given(ext, ext)
def test_negation_swaps_the_sums(r, s):
    assert negate_up(isum(up(r), up(s))) == ssum(negate_up(up(r)), negate_up(up(s)))
    assert negate_down(ssum(down(r), down(s))) == isum(negate_down(down(r)), negate_down(down(s)))


@given(ext, ext)
def test_cross_space_difference_identities(r, s):
    # The five ways of writing one difference through the other space.
    # Reinterpretation is explicit so each side typechecks.
    # 1. idif(r, s) = r (down-plus) (-s), read back in the up space
    assert idif(up(r), up(s)) == as_up(ssum(as_down(up(r)), negate_up(up(s))))
    # 2. sdif(r, s) = r (up-plus) (-s), read back in the down space
    assert sdif(down(r), down(s)) == as_down(isum(as_up(down(r)), negate_down(down(s))))
    # 3. sdif(s, r) = -idif(r, s)
    assert sdif(down(s), down(r)) == negate_up(idif(up(r), up(s)))
    # 4. idif(s, r) = idif(-r, -s)
    assert idif(up(s), up(r)) == idif(as_up(negate_up(up(r))), as_up(negate_up(up(s))))
    # 5. sdif(s, r) = sdif(-r, -s)
    assert sdif(down(s), down(r)) == sdif(as_down(negate_down(down(r))), as_down(negate_down(down(s))))


def test_scale_conventions():
    assert scale(0, UpReal.top()) == up(0)
    assert scale(0, DownReal.bottom()) == down(0)
    assert scale(2, UpReal.bottom()).is_bottom
    assert scale(2, DownReal.top()).is_top
    assert scale(3, up(4)) == up(12)
    with pytest.raises(ValueError):
        scale(-1, up(3))
    with pytest.raises(ValueError):
        scale(math.nan, up(3))
    with pytest.raises(TypeError, match="scale expects"):
        scale(2, 3.0)
    for t in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="scale factor"):
            scale_arr(t, np.array([1.0, -np.inf]))


def test_strict_order_within_a_space():
    for cls in (UpReal, DownReal):
        chain = [cls.bottom(), cls(-1.5), cls(0.0), cls(2.0), cls.top()]
        for i, p in enumerate(chain):
            for j, q in enumerate(chain):
                assert (p < q) == (i < j) and (p > q) == (i > j), (p, q)
    for p, q in ((up(1), down(2)), (down(1), up(2))):
        with pytest.raises(TypeError):
            p < q
        with pytest.raises(TypeError):
            p > q


def test_nan_values_rejected():
    with pytest.raises(ValueError):
        UpReal(math.nan)
    with pytest.raises(ValueError):
        DownReal(float("nan"))


def test_spaces_do_not_mix():
    with pytest.raises(TypeError):
        isum(up(1), down(1))
    with pytest.raises(TypeError):
        sdif(down(1), up(1))
    assert not (up(3) == down(3))


def test_family_extremes_and_empty_conventions():
    assert inf_up([]).is_top
    assert sup_up([]).is_bottom
    assert inf_down([]).is_top
    assert sup_down([]).is_bottom
    assert inf_up([up(3), UpReal.bottom(), up(7)]).is_bottom
    assert sup_down([down(3), DownReal.top()]).is_top


@given(st.lists(ext, max_size=4), st.lists(ext, max_size=4))
def test_family_extremes_distribute_over_sums(ms, ns):
    # Minkowski sums of families: the inf distributes exactly in the up space,
    # the sup distributes exactly in the down space, and the other pairings
    # only satisfy an inequality (strict when an empty family meets a Top).
    M = [up(m) for m in ms]
    N = [up(n) for n in ns]
    S = [isum(m, n) for m in M for n in N]
    assert inf_up(S) == isum(inf_up(M), inf_up(N))
    assert sup_up(S) <= isum(sup_up(M), sup_up(N))
    Md = [down(m) for m in ms]
    Nd = [down(n) for n in ns]
    Sd = [ssum(m, n) for m in Md for n in Nd]
    assert sup_down(Sd) == ssum(sup_down(Md), sup_down(Nd))
    assert ssum(inf_down(Md), inf_down(Nd)) <= inf_down(Sd)


def test_distribution_inequality_can_be_strict():
    # empty M against N = {Top}: the sum family is empty
    assert sup_up([]).is_bottom
    assert isum(sup_up([]), UpReal.top()).is_top


def test_operator_sugar_matches_functions():
    assert up(2) + up(3) == isum(up(2), up(3))
    assert up(5) - up(3) == idif(up(5), up(3))
    assert down(5) - down(3) == sdif(down(5), down(3))
    assert -up(4) == down(-4)
    assert 2 * down(3) == down(6)
    assert negate_down(negate_up(up(9))) == up(9)
    assert down(INF) + down(-INF) == ssum(down(INF), down(-INF)) == DownReal.bottom()
    assert up(INF) + up(-INF) == UpReal.top()
    assert -down(4) == negate_down(down(4)) == up(-4)
    assert -down(-INF) == UpReal.top()
    assert 2 * up(3) == scale(2, up(3)) == up(6)
    assert 0 * up(INF) == up(0.0)


def test_repr_evaluates_back():
    for cls in (UpReal, DownReal):
        for v in (INF, -INF, 0.0, -0.0, 2.5, 1 / 3):
            x = cls(v)
            y = eval(repr(x), {cls.__name__: cls})
            assert type(y) is cls and y == x and math.copysign(1.0, y.value) == math.copysign(1.0, v), repr(x)


# ---------------------------------------------------------------------------
# Bulk layer agreement: the array functions must agree elementwise with the
# scalar reference implementation, corner cases included.
# ---------------------------------------------------------------------------


def _random_ext_array(rng, n):
    vals = rng.uniform(-40, 40, size=n)
    kind = rng.random(n)
    vals[kind < 0.25] = INF
    vals[kind > 0.75] = -INF
    return vals


def test_bulk_layer_matches_scalar_ops():
    rng = np.random.default_rng(20240817)
    a = _random_ext_array(rng, 400)
    b = _random_ext_array(rng, 400)
    corners = np.array([-INF, 0.0, INF])
    a = np.concatenate([a, np.repeat(corners, 3)])
    b = np.concatenate([b, np.tile(corners, 3)])
    got = {
        "isum": isum_arr(a, b),
        "ssum": ssum_arr(a, b),
        "idif": idif_arr(a, b),
        "sdif": sdif_arr(a, b),
        "scale0": scale_arr(0.0, a),
        "scale2": scale_arr(2.5, a),
    }
    for i in range(len(a)):
        au, bu = up(a[i]), up(b[i])
        ad, bd = down(a[i]), down(b[i])
        assert got["isum"][i] == isum(au, bu).v
        assert got["ssum"][i] == ssum(ad, bd).v
        assert got["idif"][i] == idif(au, bu).v
        assert got["sdif"][i] == sdif(ad, bd).v
        assert got["scale0"][i] == scale(0.0, au).v
        assert got["scale2"][i] == scale(2.5, au).v


def test_bulk_layer_rejects_nan():
    with pytest.raises(ValueError):
        isum_arr(np.array([1.0, math.nan]), np.array([1.0, 2.0]))
