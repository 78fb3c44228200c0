"""Finite ordered commutative groupoids and the residuation existence tests.

The scalar difference operations in this package are instances of a
general order-algebraic fact.  On a partially ordered commutative
groupoid take four conditions: (A) a pointwise adjoint characterization,
(B) a least/greatest element in every residual set, (C) distribution of
addition over existing infima/suprema, and (D) attainment of the residual
bound.  By compatibility every residual set {w : u <= v + w} is an up-set
(mode sup: {w : v + w <= u}, a down-set), and an up-set of a finite
order has a least element iff it is principal iff it holds its own
infimum.  So A, B and D are one statement, "every residual set is
principal", on every valid carrier, and it implies C.  When the order is
a lattice, C implies it back (Blyth & Janowitz, *Residuation Theory*,
1972), and all four are equivalent; on a bare partial order C can hold
while the others fail.  On a finite carrier all four are decided
exactly, which makes these statements testable.  This module implements
the checks, a residual lookup, and a generator of random valid
structures for fuzzing.

Elements are opaque labels; nothing here assumes numeric semantics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

CONDITIONS = ("A", "B", "C", "D")
MODES = ("inf", "sup")

# Witness lists are capped so a thoroughly broken structure produces a
# readable report instead of thousands of tuples.
MAX_WITNESSES = 25

# Draws random_groupoid makes before it gives up on a carrier size.
MAX_TRIES = 400


def _to_index(index, label, where):
    try:
        return index[label]
    except KeyError:
        raise ValueError(f"{where} = {label!r} is not a carrier element") from None


def _carrier_and_table(carrier, add):
    """The carrier as a tuple, its label -> index map, and ``add`` as an index table.

    Raises ValueError for an empty carrier, repeated labels, a table that
    is not n x n, or an entry outside the carrier (naming the entry).
    """
    carrier = tuple(carrier)
    n = len(carrier)
    if n == 0:
        raise ValueError("carrier must be nonempty")
    if len(set(carrier)) != n:
        raise ValueError("carrier labels must be distinct")
    index = {lab: i for i, lab in enumerate(carrier)}
    if len(add) != n or any(len(row) != n for row in add):
        raise ValueError("add table must be n x n")
    table = [
        [_to_index(index, lab, f"add[{i}][{j}]") for j, lab in enumerate(row)]
        for i, row in enumerate(add)
    ]
    return carrier, index, table


class FiniteOrderedGroupoid:
    """A finite carrier with a commutative addition table and a compatible partial order.

    Construction validates everything the theory needs: totality and
    commutativity of the table, the partial-order axioms for ``leq``,
    and compatibility (u <= v implies u+w <= v+w).  Invalid input
    raises ValueError with the offending entries.

    Order queries run on integer bitmasks: ``_down[y]`` has bit x set iff
    x <= y, ``_up[x]`` has bit y set iff x <= y.  By antisymmetry each
    principal down-set (up-set) belongs to one element, which
    ``_down_of`` (``_up_of``) maps it back to.
    """

    def __init__(self, carrier, add, leq):
        self.carrier, self._index, self.add = _carrier_and_table(carrier, add)
        n = len(self.carrier)
        if len(leq) != n or any(len(row) != n for row in leq):
            raise ValueError("leq matrix must be n x n")
        self.leq = [[bool(x) for x in row] for row in leq]

        self._validate()

        self._up = [sum(1 << y for y in range(n) if row[y]) for row in self.leq]
        self._down = [sum(1 << x for x in range(n) if self.leq[x][y]) for y in range(n)]
        self._up_of = {m: x for x, m in enumerate(self._up)}
        self._down_of = {m: y for y, m in enumerate(self._down)}

    def _validate(self):
        n = len(self.carrier)
        add, leq, lab = self.add, self.leq, self.carrier
        for i in range(n):
            for j in range(i + 1, n):
                if add[i][j] != add[j][i]:
                    raise ValueError(f"add is not commutative at ({lab[i]!r}, {lab[j]!r})")
        for i in range(n):
            if not leq[i][i]:
                raise ValueError(f"leq is not reflexive at {lab[i]!r}")
        for i in range(n):
            for j in range(n):
                if i != j and leq[i][j] and leq[j][i]:
                    raise ValueError(f"leq is not antisymmetric on ({lab[i]!r}, {lab[j]!r})")
        for i in range(n):
            for j in range(n):
                if not leq[i][j]:
                    continue
                for k in range(n):
                    if leq[j][k] and not leq[i][k]:
                        raise ValueError(
                            f"leq is not transitive: {lab[i]!r} <= {lab[j]!r} <= {lab[k]!r}"
                        )
                    if not leq[add[i][k]][add[j][k]]:
                        raise ValueError(
                            f"order incompatible with addition: {lab[i]!r} <= {lab[j]!r} "
                            f"but adding {lab[k]!r} breaks it"
                        )

    # -- order queries on bitmasks --------------------------------------------

    @property
    def size(self):
        return len(self.carrier)

    def index(self, label):
        return _to_index(self._index, label, "label")

    def _bound(self, mask, mode):
        """Infimum (mode inf) or supremum (mode sup) of the index set ``mask``, or None.

        The lower bounds of S are the x whose up-set contains S, and S has
        an infimum iff they form a principal down-set; the empty set's
        infimum is the top element when there is one.
        """
        sets, of = (self._up, self._down_of) if mode == "inf" else (self._down, self._up_of)
        bounds = 0
        for x, s in enumerate(sets):
            if s & mask == mask:
                bounds |= 1 << x
        return of.get(bounds)

    def _pair_bound(self, a, b, mode):
        """Meet (mode inf) or join (mode sup) of elements a and b, or None."""
        sets, of = (self._down, self._down_of) if mode == "inf" else (self._up, self._up_of)
        return of.get(sets[a] & sets[b])

    def _residual_mask(self, u, v, mode):
        """Indices w' with u <= v+w' (mode inf) or v+w' <= u (mode sup), as a mask."""
        target = self._up[u] if mode == "inf" else self._down[u]
        mask = 0
        for w, s in enumerate(self.add[v]):
            if target >> s & 1:
                mask |= 1 << w
        return mask

    def is_lattice(self):
        """Whether every pair of elements has a meet and a join.

        On a finite carrier this implies every subset (the empty one
        included) has an infimum and a supremum, which is the setting
        where condition C agrees with A, B and D.  On a bare partial
        order it can come apart from them; see the tests for a
        six-element witness.
        """
        n = self.size
        return all(
            self._pair_bound(a, b, mode) is not None
            for mode in MODES
            for a in range(n)
            for b in range(a + 1, n)
        )


@dataclass
class ConditionReport:
    """Outcome of one condition in one mode; every check is exact."""

    condition: str
    mode: str
    witnesses: list

    @property
    def holds(self):
        return not self.witnesses


@dataclass
class EquivalenceReport:
    mode: str
    reports: dict

    @property
    def agree(self):
        """Whether all four conditions hold, or all four fail."""
        return len({r.holds for r in self.reports.values()}) == 1


def _c_failure(G, S, mode):
    """A subset of the non-principal residual set S with an infimum outside S, or None.

    Mode sup reads supremum for infimum and down for up throughout.  S is
    an up-set without a least element, so an infimum of S lies outside it
    and is the one to use.  Otherwise the elements m outside S are tried
    in order: m is the infimum of some subset of S iff it is the infimum
    of the part of S above it.  The subset returned is the first pair of
    minimal elements of that part that has an infimum (on a lattice, the
    first pair), else all of its minimal elements, which have the same
    infimum as the part.  The infimum of two distinct minimal elements
    lies above m, so it cannot be in S without equalling both.
    """
    near, far = (G._up, G._down) if mode == "inf" else (G._down, G._up)
    m = G._bound(S, mode)
    if m is None:
        outside = (x for x in range(G.size) if not S >> x & 1)
        m = next((x for x in outside if G._bound(S & near[x], mode) == x), None)
        if m is None:
            return None
    part = S & near[m]
    ends = [a for a in range(G.size) if part >> a & 1 and part & far[a] == 1 << a]
    pairs = itertools.combinations(ends, 2)
    pair = next((p for p in pairs if G._pair_bound(*p, mode) is not None), None)
    return pair or tuple(ends)


def _failures(G, condition, mode):
    """Witnesses against one condition, in scan order, possibly repeated.

    Every condition reads the residual sets S(u, v): {w : u <= v + w} in
    mode inf, an up-set by compatibility, and {w : v + w <= u} in mode
    sup, a down-set.  A (an adjoint w exists), B (S has a least, resp.
    greatest, member) and D (the infimum, resp. supremum, of S lies in S)
    all say that S is principal, and fail at (u, v).  C (adding v
    preserves every existing infimum, resp. supremum) fails at (v, M)
    exactly when M is a subset of some S(u, v) whose infimum exists and
    lies outside it, which a principal S cannot have.
    """
    lab = G.carrier
    principal = G._up_of if mode == "inf" else G._down_of
    for u in range(G.size):
        for v in range(G.size):
            S = G._residual_mask(u, v, mode)
            if S in principal:
                continue
            if condition != "C":
                yield (lab[u], lab[v])
                continue
            M = _c_failure(G, S, mode)
            if M is not None:
                yield (lab[v], tuple(lab[m] for m in M))


def check_condition(G, condition, mode):
    """Decide one of the four residuation conditions exactly.

    mode "inf" checks the version whose residual sets are {w' : u <= v + w'}
    and whose distribution law is over infima; mode "sup" is the mirror.
    Witnesses of A, B and D are the pairs (u, v) whose residual set has no
    least (greatest) member; a witness of C is (v, M) where M has an
    infimum (supremum) e but v + e is not the infimum (supremum) of the
    v + m.  At most ``MAX_WITNESSES`` distinct witnesses are listed.
    """
    condition = condition.upper()
    if condition not in CONDITIONS:
        raise ValueError(f"condition must be one of {CONDITIONS}, got {condition!r}")
    if mode not in MODES:
        raise ValueError(f"mode must be 'inf' or 'sup', got {mode!r}")
    witnesses = []
    for w in _failures(G, condition, mode):
        if w not in witnesses:
            witnesses.append(w)
            if len(witnesses) == MAX_WITNESSES:
                break
    return ConditionReport(condition, mode, witnesses)


def check_equivalence(G, mode):
    """Check all four conditions and report whether they agree.

    A, B and D agree on every valid structure; C agrees with them when
    the order is a lattice (see the module docstring).
    """
    return EquivalenceReport(mode, {c: check_condition(G, c, mode) for c in CONDITIONS})


def residual(G, u, v, mode):
    """The residual element of (u, v) if it exists inside the residual set.

    mode "inf": least w' with u <= v + w'.  mode "sup": greatest w' with
    v + w' <= u.  Returns the label, or None when the set has no
    least/greatest member (including when it is empty).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be 'inf' or 'sup', got {mode!r}")
    principal = G._up_of if mode == "inf" else G._down_of
    w = principal.get(G._residual_mask(G.index(u), G.index(v), mode))
    return None if w is None else G.carrier[w]


# ---------------------------------------------------------------------------
# Random structures for fuzzing.
# ---------------------------------------------------------------------------


def random_groupoid(rng, size):
    """Generate a random valid FiniteOrderedGroupoid with the given carrier size.

    Strategy: draw a random commutative table and a random partial order,
    then shrink the order to its largest addition-compatible sub-relation.
    That shrink provably preserves reflexivity, antisymmetry and
    transitivity (the surviving relation is closed under shifting by any
    element, and a shifted chain is again a chain), so the result is a
    valid ordered groupoid whenever any strict pair survives.  Fully
    uniform tables rarely leave a compatible pair beyond four or five
    elements, so the table distribution is a mixture: free uniform
    tables for chaos, plus saturating-sum and max-join tables in a
    random ranking (sometimes with a flipped entry) that keep enough
    structure alive at size six.  Degenerate draws are discarded, and
    so are draws whose surviving order is not a lattice: the four-way
    equivalence of the residuation conditions is a statement about
    lattice orders, and it genuinely fails on bare posets.
    """
    n = int(size)
    if n < 1:
        raise ValueError("size must be >= 1")
    labels = [f"e{i}" for i in range(n)]
    for _ in range(MAX_TRIES):
        add, leq = _random_tables(rng, n)
        if n > 1 and not any(leq[i][j] for i in range(n) for j in range(n) if i != j):
            continue  # degenerate: order collapsed to equality
        G = FiniteOrderedGroupoid(labels, [[labels[k] for k in row] for row in add], leq)
        if G.is_lattice():
            return G
    raise RuntimeError(f"could not generate a nondegenerate groupoid of size {n}")


def _random_tables(rng, n):
    """One draw of :func:`random_groupoid`'s generator, unfiltered.

    Returns the addition table and the compatible order as index
    matrices; the order may be the bare equality or not a lattice.
    """
    ranking = [int(x) for x in rng.permutation(n)]  # ranking[r] = element at rank r
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

    # random partial order with edges forward along the ranking (full
    # chain half the time), then reflexive-transitive closure
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

    # greatest compatible sub-relation
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
