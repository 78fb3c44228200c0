import itertools
import math

import numpy as np
import pytest

from infsup import extreal as xr
from infsup.groupoid import (
    MAX_WITNESSES,
    FiniteOrderedGroupoid,
    _random_tables,
    check_condition,
    check_equivalence,
    random_groupoid,
    residual,
)

B, Z, T = "-inf", "0", "+inf"
CHAIN = [B, Z, T]
CHAIN_LEQ = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]

# Frozen addition tables for the three-point chain under the two conventions.
# Worked out from the domination rules: +inf wins in the up table, -inf wins
# in the down table, and the doubled infinities stay put in both.
UP_ADD = [
    [B, B, T],
    [B, Z, T],
    [T, T, T],
]
DOWN_ADD = [
    [B, B, B],
    [B, Z, T],
    [B, T, T],
]


def up3():
    return FiniteOrderedGroupoid(CHAIN, UP_ADD, CHAIN_LEQ)


def down3():
    return FiniteOrderedGroupoid(CHAIN, DOWN_ADD, CHAIN_LEQ)


def _as_up(label):
    return xr.UpReal({B: -math.inf, Z: 0.0, T: math.inf}[label])


def _as_down(label):
    return xr.DownReal({B: -math.inf, Z: 0.0, T: math.inf}[label])


def _lab(v):
    return {-math.inf: B, 0.0: Z, math.inf: T}[v]


def test_frozen_tables_match_scalar_arithmetic():
    # dual route: the hand-frozen tables must agree with the scalar operations
    for i, a in enumerate(CHAIN):
        for j, b in enumerate(CHAIN):
            assert UP_ADD[i][j] == _lab(xr.isum(_as_up(a), _as_up(b)).v)
            assert DOWN_ADD[i][j] == _lab(xr.ssum(_as_down(a), _as_down(b)).v)


def test_up_chain_is_inf_residuated_not_sup():
    G = up3()
    for c in "ABCD":
        assert check_condition(G, c, "inf").holds, c
        assert not check_condition(G, c, "sup").holds, c


def test_down_chain_is_sup_residuated_not_inf():
    G = down3()
    for c in "ABCD":
        assert not check_condition(G, c, "inf").holds, c
        assert check_condition(G, c, "sup").holds, c


def test_down_chain_inf_witness():
    # the residual set {w : +inf <= -inf (down-plus) w} is empty, so the
    # attainment condition fails exactly there
    rep = check_condition(down3(), "D", "inf")
    assert not rep.holds
    assert (T, B) in rep.witnesses


def test_equivalence_report_on_the_chains():
    for G in (up3(), down3()):
        for mode in ("inf", "sup"):
            rep = check_equivalence(G, mode)
            assert rep.agree
            assert set(rep.reports) == set("ABCD")


def test_trivial_groupoid_satisfies_everything():
    G = FiniteOrderedGroupoid(["e"], [["e"]], [[1]])
    for c in "ABCD":
        for mode in ("inf", "sup"):
            assert check_condition(G, c, mode).holds


def test_residual_examples():
    assert residual(up3(), Z, Z, "inf") == Z
    # {w : +inf <= -inf (up-plus) w} = {+inf}
    assert residual(up3(), T, B, "inf") == T
    assert residual(down3(), T, B, "inf") is None


def test_residual_reproduces_the_scalar_differences():
    # the order-theoretic residual on the chain IS the difference operation
    for a in CHAIN:
        for b in CHAIN:
            got = residual(up3(), a, b, "inf")
            assert got == _lab(xr.idif(_as_up(a), _as_up(b)).v)
            got = residual(down3(), a, b, "sup")
            assert got == _lab(xr.sdif(_as_down(a), _as_down(b)).v)


def test_residual_exists_everywhere_iff_condition_b():
    for G, mode in [(up3(), "inf"), (up3(), "sup"), (down3(), "inf"), (down3(), "sup")]:
        all_exist = all(
            residual(G, u, v, mode) is not None for u in G.carrier for v in G.carrier
        )
        assert all_exist == check_condition(G, "B", mode).holds


def test_construction_rejects_bad_tables():
    with pytest.raises(ValueError, match="commutative"):
        FiniteOrderedGroupoid(["a", "b"], [["a", "a"], ["b", "b"]], [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="reflexive"):
        FiniteOrderedGroupoid(["a", "b"], [["a", "b"], ["b", "a"]], [[0, 0], [0, 1]])
    with pytest.raises(ValueError, match="antisymmetric"):
        FiniteOrderedGroupoid(["a", "b"], [["a", "b"], ["b", "a"]], [[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="transitive"):
        FiniteOrderedGroupoid(
            ["a", "b", "c"],
            [["a", "b", "c"], ["b", "b", "c"], ["c", "c", "c"]],
            [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
        )
    with pytest.raises(ValueError, match="incompatible"):
        # b <= c but b+b = a and c+b = c with a not <= c
        FiniteOrderedGroupoid(
            ["a", "b", "c"],
            [["a", "a", "a"], ["a", "a", "c"], ["a", "c", "c"]],
            [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
        )


def test_structures_reject_bad_shapes():
    with pytest.raises(ValueError, match="leq matrix"):
        FiniteOrderedGroupoid(CHAIN, UP_ADD, [[1, 1, 1], [0, 1, 1]])
    with pytest.raises(ValueError, match="leq matrix"):
        FiniteOrderedGroupoid(CHAIN, UP_ADD, [[1, 1, 1], [0, 1], [0, 0, 1]])
    for size in (0, -3):
        with pytest.raises(ValueError, match="size must be"):
            random_groupoid(np.random.default_rng(0), size)


def test_condition_arguments_validated():
    with pytest.raises(ValueError):
        check_condition(up3(), "E", "inf")
    with pytest.raises(ValueError):
        check_condition(up3(), "A", "min")
    with pytest.raises(ValueError):
        residual(up3(), Z, Z, "least")
    with pytest.raises(ValueError):
        residual(up3(), "nope", Z, "inf")


def test_random_groupoids_agree_on_all_conditions():
    rng = np.random.default_rng(7)
    for _ in range(60):
        G = random_groupoid(rng, int(rng.integers(2, 7)))
        assert G.is_lattice()
        assert any(
            G.leq[i][j] for i in range(G.size) for j in range(G.size) if i != j
        )
        for mode in ("inf", "sup"):
            rep = check_equivalence(G, mode)
            assert rep.agree, (G.carrier, G.add, G.leq, mode)


# A six-element ordered commutative groupoid whose order is a valid partial
# order but not a lattice (b is a top element, there is no bottom, and a and
# c have no common lower bound).
NONLATTICE_LABELS = ["a", "b", "c", "d", "e", "f"]
NONLATTICE_ADD = [
    [0, 1, 0, 0, 0, 0],
    [1, 1, 1, 1, 1, 1],
    [0, 1, 2, 2, 4, 5],
    [0, 1, 2, 3, 4, 5],
    [0, 1, 4, 4, 4, 5],
    [0, 1, 5, 5, 5, 5],
]
NONLATTICE_LEQ = [
    [1, 1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [0, 1, 1, 0, 1, 1],
    [0, 1, 0, 1, 1, 1],
    [0, 1, 0, 0, 1, 1],
    [0, 1, 0, 0, 0, 1],
]


def nonlattice6():
    labels = NONLATTICE_LABELS
    return FiniteOrderedGroupoid(
        labels, [[labels[k] for k in row] for row in NONLATTICE_ADD], NONLATTICE_LEQ
    )


def test_agreement_needs_a_lattice_order():
    # Frozen witness: for the pair (u, v) = (a, a) the residual set of the
    # non-lattice carrier is the whole carrier, which has no least element
    # and no infimum, so conditions A, B, D all fail; yet the distribution
    # condition C holds because it only quantifies over subsets whose
    # infimum exists.  The four-way equivalence is genuinely a theorem about
    # lattice orders, which is why the random generator filters for them.
    G = nonlattice6()
    assert not G.is_lattice()
    assert check_condition(G, "C", "inf").holds
    for c in "ABD":
        rep = check_condition(G, c, "inf")
        assert not rep.holds
        assert ("a", "a") in rep.witnesses


@pytest.mark.parametrize(
    "carrier, add, message",
    [
        ([], [], "nonempty"),
        (["a", "a"], [["a", "a"], ["a", "a"]], "distinct"),
        (["a", "b"], [["a", "b"]], "n x n"),
        (["a", "b"], [["a", "b"], ["b"]], "n x n"),
        (["a", "b"], [["a", "b"], ["b", "c"]], r"add\[1\]\[1\] = 'c'"),
    ],
    ids=["empty", "repeated-label", "short-table", "short-row", "foreign-entry"],
)
def test_construction_checks_carrier_and_table(carrier, add, message):
    leq = [[i == j for j in range(len(carrier))] for i in range(len(carrier))]
    with pytest.raises(ValueError, match=message):
        FiniteOrderedGroupoid(carrier, add, leq)


# ---------------------------------------------------------------------------
# A list-based reference checker: residual sets as lists, infima by
# scanning lower bounds, and condition C over every subset (or, with more
# than six elements and ``full`` unset, a seeded sample of subsets).
# ---------------------------------------------------------------------------


def _ref_glb(G, S):
    lbs = [x for x in range(G.size) if all(G.leq[x][s] for s in S)]
    return next((c for c in lbs if all(G.leq[b][c] for b in lbs)), None)


def _ref_lub(G, S):
    ubs = [x for x in range(G.size) if all(G.leq[s][x] for s in S)]
    return next((c for c in ubs if all(G.leq[c][b] for b in ubs)), None)


def _ref_pick(G, S, mode):
    if mode == "inf":
        return next((m for m in S if all(G.leq[m][s] for s in S)), None)
    return next((m for m in S if all(G.leq[s][m] for s in S)), None)


def _ref_residual_set(G, u, v, mode):
    if mode == "inf":
        return [w for w in range(G.size) if G.leq[u][G.add[v][w]]]
    return [w for w in range(G.size) if G.leq[G.add[v][w]][u]]


def _ref_subsets(n, full=False):
    if n <= 6 or full:
        for r in range(n + 1):
            yield from itertools.combinations(range(n), r)
        return
    yield ()
    for i in range(n):
        yield (i,)
    yield tuple(range(n))
    rng = np.random.default_rng(0)
    for _ in range(64):
        mask = rng.random(n) < 0.5
        yield tuple(i for i in range(n) if mask[i])


def _ref_check(G, condition, mode, full=False):
    n, lab = G.size, G.carrier
    ref_ext = _ref_glb if mode == "inf" else _ref_lub
    cache = {}  # full enumeration meets the same sets many times

    def ext_of(S):
        key = frozenset(S)
        if key not in cache:
            cache[key] = ref_ext(G, key)
        return cache[key]

    witnesses = []
    if condition == "C":
        for M in _ref_subsets(n, full):
            ext = ext_of(M)
            if ext is None:
                continue
            for u in range(n):
                if ext_of([G.add[u][m] for m in M]) != G.add[u][ext]:
                    witnesses.append((lab[u], tuple(lab[m] for m in M)))
        return witnesses
    for u in range(n):
        for v in range(n):
            S = _ref_residual_set(G, u, v, mode)
            if condition == "A":
                le = (lambda w, wp: G.leq[w][wp]) if mode == "inf" else (lambda w, wp: G.leq[wp][w])
                ok = any(all((wp in S) == le(w, wp) for wp in range(n)) for w in range(n))
            elif condition == "B":
                ok = _ref_pick(G, S, mode) is not None
            else:
                ext = ext_of(S)
                w = None if ext is None else G.add[v][ext]
                ok = w is not None and (G.leq[u][w] if mode == "inf" else G.leq[w][u])
            if not ok:
                witnesses.append((lab[u], lab[v]))
    return witnesses


def _ref_fails_c(G, mode, witness):
    """Whether the witness (v, M) breaks condition C by its definition."""
    ext_of = _ref_glb if mode == "inf" else _ref_lub
    v, M = G.index(witness[0]), [G.index(m) for m in witness[1]]
    ext = ext_of(G, M)
    return ext is not None and ext_of(G, [G.add[v][m] for m in M]) != G.add[v][ext]


def _ref_residual(G, u, v, mode):
    picked = _ref_pick(G, _ref_residual_set(G, G.index(u), G.index(v), mode), mode)
    return None if picked is None else G.carrier[picked]


def product_lattice(dims, add):
    """Product of chains 0..d-1 with labels like "x01", ordered coordinatewise."""
    coords = list(itertools.product(*(range(d) for d in dims)))
    labels = ["x" + "".join(map(str, c)) for c in coords]
    index = {c: i for i, c in enumerate(coords)}
    table = [[labels[index[add(u, v)]] for v in coords] for u in coords]
    leq = [[all(a <= b for a, b in zip(u, v)) for v in coords] for u in coords]
    return FiniteOrderedGroupoid(labels, table, leq)


def saturating(dims):
    return product_lattice(dims, lambda u, v: tuple(min(a + b, d - 1) for a, b, d in zip(u, v, dims)))


def discrete7():
    # the discrete order on seven elements with addition mod 7
    labels = [f"d{i}" for i in range(7)]
    return FiniteOrderedGroupoid(
        labels,
        [[labels[(i + j) % 7] for j in range(7)] for i in range(7)],
        [[i == j for j in range(7)] for i in range(7)],
    )


# A seven-element non-lattice (e2, e3 <= e1 and e6 <= e5, nothing else)
# where mode sup breaks C at one two-element subset only: e2 join e3 = e1
# and e3 + e1 = e1, but e3 + e2 = e3 + e3 = e3.
PINNED7_ADD = [
    [0, 0, 0, 0, 0, 5, 6],
    [0, 1, 1, 1, 4, 5, 6],
    [0, 1, 2, 3, 4, 5, 6],
    [0, 1, 3, 3, 4, 5, 6],
    [0, 4, 4, 4, 4, 5, 6],
    [5, 5, 5, 5, 5, 5, 5],
    [6, 6, 6, 6, 6, 5, 6],
]


def pinned7():
    labels = [f"e{i}" for i in range(7)]
    strict = {(2, 1), (3, 1), (6, 5)}
    leq = [[i == j or (i, j) in strict for j in range(7)] for i in range(7)]
    return FiniteOrderedGroupoid(labels, [[labels[k] for k in row] for row in PINNED7_ADD], leq)


def crown8():
    """a, b, c above m, each pair of them also above its own lower bound, and a top t.

    The addition is t when a summand is in U = {a, b, c, t}, else m.  For
    v outside U the residual set {w : t <= v + w} is U, whose infimum is
    m; no two of a, b, c have a meet, so C's witness needs all three.
    """
    labels = ["m", "xab", "xbc", "xac", "a", "b", "c", "t"]
    below = {"m": "abct", "xab": "abt", "xbc": "bct", "xac": "act", "a": "t", "b": "t", "c": "t"}
    leq = [[x == y or y in below.get(x, "") for y in labels] for x in labels]
    table = [["t" if x in "abct" or y in "abct" else "m" for y in labels] for x in labels]
    return FiniteOrderedGroupoid(labels, table, leq)


def _reference_carriers():
    rng = np.random.default_rng(2024)
    out = [random_groupoid(rng, n) for n in range(1, 8) for _ in range(8)]
    out += [nonlattice6(), discrete7(), pinned7(), crown8(), up3(), down3()]
    return out + [saturating((16,)), saturating((4, 4))]


def test_matches_the_list_based_reference():
    for G in _reference_carriers():
        for mode in ("inf", "sup"):
            for c in "ABD":
                want = _ref_check(G, c, mode)[: MAX_WITNESSES]
                rep = check_condition(G, c, mode)
                assert rep.witnesses == want, (G.carrier, c, mode)
            rep = check_condition(G, "C", mode)
            assert all(_ref_fails_c(G, mode, w) for w in rep.witnesses), (G.carrier, mode)
            assert len(set(rep.witnesses)) == len(rep.witnesses), (G.carrier, mode)
            if G.size <= 10:
                assert rep.holds == (not _ref_check(G, "C", mode, full=True)), (G.carrier, mode)
            elif _ref_check(G, "C", mode):
                # the sampled reference found a real counterexample
                assert not rep.holds, (G.carrier, mode)
            for u in G.carrier:
                for v in G.carrier:
                    assert residual(G, u, v, mode) == _ref_residual(G, u, v, mode)


def _boolean_cube_all_or_nothing():
    # the Boolean lattice 2^3; u + v is the top unless u and v are both the bottom
    return product_lattice((2, 2, 2), lambda u, v: (1, 1, 1) if any(u + v) else (0, 0, 0))


def _m3_times_2(addition):
    """M3 (bottom 0, atoms 1-3, top 4) times a two-element chain, u + v = u join v or u meet v.

    A non-distributive lattice of ten elements, ordered coordinatewise.
    """
    m3 = [[i == j or i == 0 or j == 4 for j in range(5)] for i in range(5)]
    elems = [(a, b) for a in range(5) for b in range(2)]
    leq = [[m3[a][c] and b <= d for c, d in elems] for a, b in elems]
    labels = [f"m{a}{b}" for a, b in elems]
    up = addition == "join"

    def le(x, y):
        return leq[x][y] if up else leq[y][x]

    def bound(i, j):
        cands = [c for c in range(10) if le(i, c) and le(j, c)]
        return next(c for c in cands if all(le(c, d) for d in cands))

    table = [[labels[bound(i, j)] for j in range(10)] for i in range(10)]
    return FiniteOrderedGroupoid(labels, table, leq)


def test_pair_reduced_c_equals_full_enumeration_on_lattices():
    rng = np.random.default_rng(99)
    lattices = [random_groupoid(rng, n) for n in (7, 8, 9, 10)]
    lattices += [
        _boolean_cube_all_or_nothing(),
        saturating((2, 4)),
        saturating((2, 5)),
        _m3_times_2("join"),
        _m3_times_2("meet"),
    ]
    seen = set()
    for G in lattices:
        assert G.is_lattice()
        for mode in ("inf", "sup"):
            rep = check_condition(G, "C", mode)
            want = not _ref_check(G, "C", mode, full=True)
            assert rep.holds == want, (G.carrier, mode)
            assert all(len(M) in (0, 2) for _, M in rep.witnesses)
            seen.add(want)
    assert seen == {True, False}


def test_c_on_a_lattice_reports_a_pair_witness():
    G = _boolean_cube_all_or_nothing()
    assert G.size == 8 and G.is_lattice()
    for mode in ("inf", "sup"):
        for c in "ABCD":
            rep = check_condition(G, c, mode)
            assert not rep.holds, (c, mode)
    rep = check_condition(G, "C", "inf")
    # x000 + (x001 meet x010) = x000 + x000 = x000, but the meet of
    # x000 + x001 = x111 and x000 + x010 = x111 is x111
    assert rep.witnesses[0] == ("x000", ("x001", "x010"))
    # every u above x000 has this residual set for v = x000; it is listed once
    assert rep.witnesses.count(rep.witnesses[0]) == 1


def test_c_on_a_large_non_lattice_is_exact():
    G = pinned7()
    assert not G.is_lattice()
    assert check_condition(G, "C", "inf").holds
    rep = check_condition(G, "C", "sup")
    assert rep.witnesses == [("e3", ("e2", "e3"))]
    assert _ref_check(G, "C", "sup", full=True) == rep.witnesses
    # the reference's seeded 64-subset sample misses the one failing subset
    assert _ref_check(G, "C", "sup") == []
    for mode in ("inf", "sup"):
        assert check_condition(discrete7(), "C", mode).holds
    assert check_condition(crown8(), "C", "inf").witnesses[0] == ("m", ("a", "b", "c"))


def test_c_equals_full_enumeration_on_unfiltered_draws():
    # random_groupoid keeps only lattices; its raw draws also give
    # non-lattices and discrete orders
    rng = np.random.default_rng(31)
    seen = set()
    for _ in range(300):
        n = int(rng.integers(1, 9))
        add, leq = _random_tables(rng, n)
        labels = [f"e{i}" for i in range(n)]
        G = FiniteOrderedGroupoid(labels, [[labels[k] for k in row] for row in add], leq)
        for mode in ("inf", "sup"):
            rep = check_condition(G, "C", mode)
            want = not _ref_check(G, "C", mode, full=True)
            assert rep.holds == want, (add, leq, mode)
            assert all(_ref_fails_c(G, mode, w) for w in rep.witnesses), (add, leq, mode)
            seen.add((G.is_lattice(), want))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}
