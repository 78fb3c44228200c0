import itertools
import math

import tracemalloc

import numpy as np
import pytest

from infsup import extreal as xr
from infsup import groupoid
from infsup.groupoid import (
    CONDITIONS,
    MAX_SIZE,
    MAX_WITNESSES,
    SLAB_CELLS,
    FiniteOrderedGroupoid,
    ConditionReport,
    _c_failure,
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


AXIOMS = ("commutative", "reflexive", "antisymmetric", "transitive", "incompatible")


def _loop_validation_error(carrier, add, leq):
    """The first axiom a plain loop finds violated, as the message it raises, or None.

    ``add`` and ``leq`` are index and boolean matrices.  This is the loop
    ``FiniteOrderedGroupoid`` ran before its array passes, kept as the
    reference for their order.
    """
    n, lab = len(carrier), carrier
    for i in range(n):
        for j in range(i + 1, n):
            if add[i][j] != add[j][i]:
                return f"add is not commutative at ({lab[i]!r}, {lab[j]!r})"
    for i in range(n):
        if not leq[i][i]:
            return f"leq is not reflexive at {lab[i]!r}"
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                return f"leq is not antisymmetric on ({lab[i]!r}, {lab[j]!r})"
    for i in range(n):
        for j in range(n):
            if not leq[i][j]:
                continue
            for k in range(n):
                if leq[j][k] and not leq[i][k]:
                    return f"leq is not transitive: {lab[i]!r} <= {lab[j]!r} <= {lab[k]!r}"
                if not leq[add[i][k]][add[j][k]]:
                    return (
                        f"order incompatible with addition: {lab[i]!r} <= {lab[j]!r} "
                        f"but adding {lab[k]!r} breaks it"
                    )
    return None


def _validation_error(carrier, add, leq):
    try:
        FiniteOrderedGroupoid(carrier, [[carrier[k] for k in row] for row in add], leq)
    except ValueError as e:
        return str(e)
    return None


def test_validation_names_the_first_fault_in_loop_order(monkeypatch):
    # a <= b <= c without a <= c breaks transitivity at (a, b, c); earlier,
    # a <= b but a + a = c is not below b + a = a breaks compatibility at (a, b, a)
    carrier = ["a", "b", "c"]
    add = [[2, 0, 2], [0, 1, 2], [2, 2, 2]]
    leq = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    want = "order incompatible with addition: 'a' <= 'b' but adding 'a' breaks it"
    assert _loop_validation_error(carrier, add, leq) == want
    assert _validation_error(carrier, add, leq) == want
    # random draws with a few entries flipped hit every axiom, at n <= 5; the
    # triple axioms run in blocks of one slab, of 1-4 slabs and in one block
    for cells in (1, 40, SLAB_CELLS):
        monkeypatch.setattr(groupoid, "SLAB_CELLS", cells)
        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(300):
            n = int(rng.integers(1, 6))
            add, leq = _random_tables(rng, n)
            for _ in range(int(rng.integers(0, 3))):
                i, j, k = (int(x) for x in rng.integers(n, size=3))
                if rng.random() < 0.5:
                    leq[i][j] = not leq[i][j]
                else:
                    add[i][j] = k
            carrier = [f"e{i}" for i in range(n)]
            want = _loop_validation_error(carrier, add, leq)
            assert _validation_error(carrier, add, leq) == want, (cells, add, leq)
            seen.add(next((a for a in AXIOMS if want and a in want), want))
        assert seen == {None, *AXIOMS}, cells


def test_validation_holds_no_cubic_array():
    # one n^3 boolean array of the 256-chain is 16.7 MB; the validator's
    # blocks keep the whole build, tables included, below that
    n = MAX_SIZE
    tracemalloc.start()
    try:
        G = saturating((n,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.size == n and peak < n**3


def test_structures_reject_bad_shapes():
    with pytest.raises(ValueError, match="leq matrix"):
        FiniteOrderedGroupoid(CHAIN, UP_ADD, [[1, 1, 1], [0, 1, 1]])
    with pytest.raises(ValueError, match="leq matrix"):
        FiniteOrderedGroupoid(CHAIN, UP_ADD, [[1, 1, 1], [0, 1], [0, 0, 1]])
    for size in (0, -3, MAX_SIZE + 1):
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


# ---------------------------------------------------------------------------
# The residual-set table and the byte-table residuals against the scalar
# loop that built one mask per pair, and the reports against the scan that
# read it.
# ---------------------------------------------------------------------------


def _residual_mask(G, u, v):
    """Indices w' with u <= v+w' as a mask, one bit test per w'."""
    target = G._up[u]
    mask = 0
    for w, s in enumerate(G.add[v]):
        if target >> s & 1:
            mask |= 1 << w
    return mask


def _loop_residual(G, u, v, mode):
    """The residual through the loop's mask and ``_up_of``, the reference for the byte tables."""
    H = G if mode == "inf" else G._dual
    w = H._up_of.get(_residual_mask(H, H.index(u), H.index(v)))
    return None if w is None else H.carrier[w]


def _loop_failures(G, condition, mode):
    """The witness scan ``check_condition`` ran with one ``_residual_mask`` per (u, v)."""
    lab = G.carrier
    H = G if mode == "inf" else G._dual
    for u in range(G.size):
        for v in range(G.size):
            S = _residual_mask(H, u, v)
            if S in H._up_of:
                continue
            if condition != "C":
                yield (lab[u], lab[v])
                continue
            M = _c_failure(H, S)
            if M is not None:
                yield (lab[v], tuple(lab[m] for m in M))


def _loop_report(G, condition, mode):
    witnesses = []
    for w in _loop_failures(G, condition, mode):
        if w not in witnesses:
            witnesses.append(w)
            if len(witnesses) == MAX_WITNESSES:
                break
    return ConditionReport(condition, mode, witnesses)


def test_the_residual_table_matches_the_scalar_masks():
    # saturating((9, 8)) has 72 elements: its masks span two 64-bit words
    for G in _reference_carriers() + [saturating((9, 8))]:
        n = G.size
        for x in range(n):
            assert G._up[x] == sum(1 << y for y in range(n) if G.leq[x][y])
            assert G._down[x] == sum(1 << y for y in range(n) if G.leq[y][x])
        for H in (G, G._dual):
            want = [_residual_mask(H, u, v) for u in range(n) for v in range(n)]
            assert H._residual_masks() == want, (G.carrier, H is G)


def test_checks_read_the_table_not_the_scalar_masks(monkeypatch):
    # checks gather the whole table; a residual query builds its own set and never the table
    carriers = [saturating((16,)), saturating((4, 4)), nonlattice6(), crown8(), up3()]
    want = [repr(check_condition(G, c, m)) for G in carriers for c in "ABCD" for m in ("inf", "sup")]
    assert want == [repr(_loop_report(G, c, m)) for G in carriers for c in "ABCD" for m in ("inf", "sup")]
    pairs = [(G, u, v, m) for G in carriers for u in G.carrier for v in G.carrier for m in ("inf", "sup")]
    want_res = [_loop_residual(*p) for p in pairs]

    def table(*args):
        raise AssertionError("residual built the n^3 residual-set table")

    monkeypatch.setattr(FiniteOrderedGroupoid, "_residual_masks", table)
    assert [residual(*p) for p in pairs] == want_res
    monkeypatch.undo()
    got = [repr(check_condition(G, c, m)) for G in carriers for c in "ABCD" for m in ("inf", "sup")]
    assert got == want


def _loop_carriers():
    carriers = [saturating((n,)) for n in (16, 32, 48)]
    carriers += [saturating((4, 4)), saturating((6, 8)), nonlattice6(), pinned7(), crown8()]
    rng = np.random.default_rng(5)
    return carriers + [random_groupoid(rng, int(rng.integers(1, 9))) for _ in range(200)]


def test_reports_match_the_loop_reference():
    for G in _loop_carriers():
        for mode in ("inf", "sup"):
            for c in "ABCD":
                assert repr(check_condition(G, c, mode)) == repr(_loop_report(G, c, mode))


def test_residuals_match_the_loop_reference():
    # saturating((9, 8)) has 72 elements: its masks span two 64-bit words
    carriers = _reference_carriers() + [saturating((9, 8))] + _loop_carriers()
    for G in carriers:
        for mode in ("inf", "sup"):
            for u in G.carrier:
                for v in G.carrier:
                    assert residual(G, u, v, mode) == _loop_residual(G, u, v, mode), (G.carrier, u, v, mode)


def test_carrier_size_is_limited_to_a_byte():
    # the limit is checked before the table is read, so no table is needed
    with pytest.raises(ValueError, match=f"more than the limit of {MAX_SIZE}"):
        FiniteOrderedGroupoid(range(MAX_SIZE + 1), None, None)
    G = saturating((MAX_SIZE,))
    assert G.size == MAX_SIZE and G._adds[-1][-1] == MAX_SIZE - 1
    rng = np.random.default_rng(256)
    for u, v in rng.integers(MAX_SIZE, size=(300, 2)):
        u, v = G.carrier[u], G.carrier[v]
        for mode in ("inf", "sup"):
            assert residual(G, u, v, mode) == _loop_residual(G, u, v, mode), (u, v, mode)


# ---------------------------------------------------------------------------
# Mode sup on a structure is mode inf on its order-dual, and the generator's
# array passes are the loops they replaced.
# ---------------------------------------------------------------------------


def _transposed(G):
    """The order-dual of G, built and validated from scratch."""
    table = [[G.carrier[k] for k in row] for row in G.add]
    return FiniteOrderedGroupoid(G.carrier, table, [list(col) for col in zip(*G.leq)])


def test_the_dual_is_the_validated_transposed_structure():
    rng = np.random.default_rng(11)
    carriers = _reference_carriers() + [saturating((9, 8))]
    carriers += [random_groupoid(rng, int(rng.integers(1, 9))) for _ in range(40)]
    for G in carriers:
        D, T = G._dual, _transposed(G)
        assert D._dual is G and isinstance(D, FiniteOrderedGroupoid)
        assert (D.carrier, D.add, D.leq) == (T.carrier, T.add, T.leq)
        assert (D._up, D._down, D._up_of, D._down_of) == (T._up, T._down, T._up_of, T._down_of)
        assert np.array_equal(D._leq, T._leq) and np.array_equal(D._add, T._add)
        assert (D._adds, D._rows, D._row_of) == (T._adds, T._rows, T._row_of)
        assert D.is_lattice() == G.is_lattice()
        for c in CONDITIONS:
            assert check_condition(G, c, "sup").witnesses == check_condition(T, c, "inf").witnesses
            assert check_condition(G, c, "inf").witnesses == check_condition(T, c, "sup").witnesses
        for u in G.carrier:
            for v in G.carrier:
                assert residual(G, u, v, "sup") == residual(T, u, v, "inf")


def _loop_random_tables(rng, n):
    """``_random_tables`` with its closure and shrink as the nested loops it had."""
    ranking = [int(x) for x in rng.permutation(n)]
    rank = {e: r for r, e in enumerate(ranking)}
    add = [[0] * n for _ in range(n)]
    style = rng.random()
    for i in range(n):
        for j in range(i, n):
            if style < 0.4:
                k = int(rng.integers(n))
            elif style < 0.7:
                k = ranking[min(rank[i] + rank[j], n - 1)]
            else:
                k = ranking[max(rank[i], rank[j])]
            add[i][j] = add[j][i] = k
    if style >= 0.4 and rng.random() < 0.3 and n > 1:
        i, j = int(rng.integers(n)), int(rng.integers(n))
        k = int(rng.integers(n))
        add[i][j] = add[j][i] = k
    leq = [[i == j for j in range(n)] for i in range(n)]
    chain = rng.random() < 0.5
    for i in range(n):
        for j in range(n):
            if i != j and rank[i] < rank[j] and (chain or rng.random() < 0.6):
                leq[i][j] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if leq[i][k] and leq[k][j]:
                    leq[i][j] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j or not leq[i][j]:
                    continue
                if any(not leq[add[i][w]][add[j][w]] for w in range(n)):
                    leq[i][j] = False
                    changed = True
    return add, leq


@pytest.mark.parametrize("n", range(1, 10))
def test_random_tables_match_the_loops(n):
    for seed in range(300):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _random_tables(rng, n) == _loop_random_tables(ref, n), (seed, n)
        assert rng.bit_generator.state == ref.bit_generator.state, (seed, n)
