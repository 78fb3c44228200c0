"""Finite ordered commutative groupoids and the residuation existence tests.

The scalar difference operations in this package are instances of a
general order-algebraic fact.  On a partially ordered commutative
groupoid take four conditions: (A) a pointwise adjoint characterization,
(B) a least/greatest element in every residual set, (C) distribution of
addition over existing infima/suprema, and (D) attainment of the residual
bound.  By compatibility every residual set {w : u <= v + w} is an
up-set, and an up-set of a finite order has a least element iff it is
principal iff it holds its own infimum.  So A, B and D are one
statement, "every residual set is principal", on every valid carrier,
and it implies C.  When the order is a lattice, C implies it back
(Blyth & Janowitz, *Residuation Theory*, 1972), and all four are
equivalent; on a bare partial order C can hold while the others fail.
On a finite carrier all four are decided exactly, which makes these
statements testable.  This module implements the checks, a residual
lookup, and a generator of random valid structures for fuzzing.

Mode sup is mode inf on the order-dual, the same table under the
reversed order, and every axiom is self-dual.  So each structure builds
its dual once, without validating it again, every check is written for
mode inf, and ``check_condition`` and ``residual`` pick G or its dual.

Each ``check_condition`` call builds every residual set in one numpy
gather, R[u, v, w] = leq[u][add[v][w]], an n^3-byte boolean table that
lives only for that call.  A ``residual`` query builds its one set in one
C call: each structure keeps the rows of its table and of its order as
bytes, and ``add[v].translate(leq[u])`` is S(u, v) as n bytes, principal
iff it equals the up-set row of some x, its least element.  Nothing
derived from a check or a query is kept per (u, v), so timing repeated
checks or queries times the work and not a lookup.

Elements are opaque labels; nothing here assumes numeric semantics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

CONDITIONS = ("A", "B", "C", "D")
MODES = ("inf", "sup")

# Witness lists are capped so a thoroughly broken structure produces a
# readable report instead of thousands of tuples.
MAX_WITNESSES = 25

# Draws random_groupoid makes before it gives up on a carrier size.
MAX_TRIES = 400

# Largest carrier: ``residual`` reads table entries as bytes.
MAX_SIZE = 256

# Entries per block of the validator's triple-axiom arrays: one block up
# to n = 64, so a small carrier is checked in one pass, and 4 slabs of
# 256 x 256 at n = 256, where one n^3 pass would hold 16.7 MB per array.
SLAB_CELLS = 1 << 18


def _to_index(index, label, where):
    try:
        return index[label]
    except KeyError:
        raise ValueError(f"{where} = {label!r} is not a carrier element") from None


def _carrier_and_table(carrier, add):
    """The carrier as a tuple, its label -> index map, and ``add`` as an index table.

    Raises ValueError for an empty carrier, one of more than ``MAX_SIZE``
    elements, repeated labels, a table that is not n x n, or an entry
    outside the carrier (naming the entry).
    """
    carrier = tuple(carrier)
    n = len(carrier)
    if n == 0:
        raise ValueError("carrier must be nonempty")
    if n > MAX_SIZE:
        raise ValueError(f"carrier has {n} elements, more than the limit of {MAX_SIZE}")
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


def _row_masks(rows):
    """The rows along the last axis of a boolean array as Python ints, in C order.

    Bit w of a row's mask is row[w].  ``packbits`` packs each row
    little-endian into bytes.  Rows of up to 8 bits are one byte each;
    wider rows are padded to whole 64-bit words, and one ``tolist`` per
    word column reads them, shifted into place.
    """
    packed = np.packbits(rows, axis=-1, bitorder="little")
    nbytes = packed.shape[-1]
    if nbytes == 1:
        return packed.ravel().tolist()
    words = -(-nbytes // 8)
    padded = np.zeros((packed.size // nbytes, 8 * words), dtype=np.uint8)
    padded[:, :nbytes] = packed.reshape(-1, nbytes)
    columns = padded.view("<u8")
    masks = columns[:, 0].tolist()
    for k in range(1, words):
        masks = [mask | word << (64 * k) for mask, word in zip(masks, columns[:, k].tolist())]
    return masks


def _byte_rows(leq):
    """The rows of an n x n boolean order as 0/1 ``bytes.translate`` tables, and a map back.

    Each row is zero-padded to 256 bytes; the map takes a row's first n
    bytes to its index.
    """
    n = len(leq)
    padded = np.zeros((n, 256), dtype=np.uint8)
    padded[:, :n] = leq
    rows = [row.tobytes() for row in padded]
    return rows, {row[:n]: x for x, row in enumerate(rows)}


def _shifted(leq, add, rows=slice(None)):
    """The compatibility gather: entry [i, j, w] is leq[add[i][w]][add[j][w]], whether i + w <= j + w.

    ``rows``, a slice, picks the i.
    """
    return leq[add[rows][..., None, :], add]


class FiniteOrderedGroupoid:
    """A finite carrier with a commutative addition table and a compatible partial order.

    Construction validates everything the theory needs: totality and
    commutativity of the table, the partial-order axioms for ``leq``,
    and compatibility (u <= v implies u+w <= v+w).  Invalid input
    raises ValueError with the offending entries.  The triple axioms
    (transitivity, compatibility) are checked in blocks of n x n boolean
    slabs, one per element, of at most ``SLAB_CELLS`` entries, so a large
    carrier's validation never holds an n^3 array.

    A carrier has at most ``MAX_SIZE`` = 256 elements, so that every
    table entry fits in a byte; a larger one raises ValueError before its
    table is read.  The limit costs little: ``check_condition``'s n^3
    table is already 16.7 MB at n = 256.

    Order queries run on integer bitmasks: ``_down[y]`` has bit x set iff
    x <= y, ``_up[x]`` has bit y set iff x <= y.  By antisymmetry each
    principal down-set (up-set) belongs to one element, which
    ``_down_of`` (``_up_of``) maps it back to.  ``_leq`` and ``_add`` hold
    the input order and table as numpy arrays for the residual-set
    gather of ``check_condition``, which stores nothing on the instance.

    ``residual`` reads the same order and table as bytes: ``_adds[v]`` is
    add row v, ``_rows[x]`` is leq row x as 0/1 bytes padded to 256 (a
    ``bytes.translate`` table), and ``_row_of`` maps a row's first n bytes
    back to x.  They take about n^2 + 256 n bytes, built once; no
    residual set is stored.

    ``_dual`` is the order-dual: ``leq`` transposed, the up and down maps
    swapped, the byte rows built from the transpose, and the table shared.
    Its ``_dual`` is this structure.
    """

    def __init__(self, carrier, add, leq):
        self.carrier, self._index, self.add = _carrier_and_table(carrier, add)
        n = len(self.carrier)
        if len(leq) != n or any(len(row) != n for row in leq):
            raise ValueError("leq matrix must be n x n")
        self.leq = [[bool(x) for x in row] for row in leq]
        self._leq = np.array(self.leq, dtype=bool)
        self._add = np.array(self.add, dtype=np.intp)

        self._validate()

        self._up = _row_masks(self._leq)
        self._down = _row_masks(self._leq.T)
        self._up_of = {m: x for x, m in enumerate(self._up)}
        self._down_of = {m: y for y, m in enumerate(self._down)}
        self._adds = [row.tobytes() for row in self._add.astype(np.uint8)]
        self._rows, self._row_of = _byte_rows(self._leq)

        # every axiom is self-dual, so the dual skips validation; copy.copy would
        # give it a plain __dict__, which slows the attribute reads of a check
        dual = self._dual = object.__new__(FiniteOrderedGroupoid)
        dual.carrier, dual._index, dual.add, dual._add = self.carrier, self._index, self.add, self._add
        dual.leq, dual._leq, dual._dual = self._leq.T.tolist(), self._leq.T, self
        dual._up, dual._down, dual._up_of, dual._down_of = self._down, self._up, self._down_of, self._up_of
        dual._adds, (dual._rows, dual._row_of) = self._adds, _byte_rows(dual._leq)

    def _validate(self):
        """Raise ValueError at the first violated axiom, in the order of a plain loop.

        Commutativity over i < j, reflexivity, antisymmetry over i != j,
        then the triples (i, j, k) with i <= j in C order, where at one
        triple transitivity is reported before compatibility.
        """
        add, leq, lab = self._add, self._leq, self.carrier
        bad = np.flatnonzero(np.triu(add != add.T, 1))
        if bad.size:
            i, j = divmod(int(bad[0]), len(lab))
            raise ValueError(f"add is not commutative at ({lab[i]!r}, {lab[j]!r})")
        bad = np.flatnonzero(~leq.diagonal())
        if bad.size:
            raise ValueError(f"leq is not reflexive at {lab[bad[0]]!r}")
        bad = np.flatnonzero(leq & leq.T & ~np.eye(len(lab), dtype=bool))
        if bad.size:
            i, j = divmod(int(bad[0]), len(lab))
            raise ValueError(f"leq is not antisymmetric on ({lab[i]!r}, {lab[j]!r})")
        # [i, j, k]: i <= j <= k but not i <= k; i <= j but not i+k <= j+k,
        # over blocks of whole i-slabs of at most SLAB_CELLS entries in all
        n = len(lab)
        step = max(1, SLAB_CELLS // (n * n))
        for lo in range(0, n, step):
            rows = slice(lo, lo + step)
            below = leq[rows, :, None]
            intransitive = below & leq & ~leq[rows, None, :]
            incompatible = below & ~_shifted(leq, add, rows)
            bad = np.flatnonzero(intransitive | incompatible)
            if bad.size:
                b, j, k = np.unravel_index(bad[0], intransitive.shape)
                i = lo + b
                if intransitive[b, j, k]:
                    raise ValueError(
                        f"leq is not transitive: {lab[i]!r} <= {lab[j]!r} <= {lab[k]!r}"
                    )
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

    def _bound(self, mask):
        """Infimum of the index set ``mask``, or None.

        The lower bounds of S are the x whose up-set contains S, and S has
        an infimum iff they form a principal down-set; the empty set's
        infimum is the top element when there is one.
        """
        bounds = 0
        for x, s in enumerate(self._up):
            if s & mask == mask:
                bounds |= 1 << x
        return self._down_of.get(bounds)

    def _pair_bound(self, a, b):
        """Meet of elements a and b, or None."""
        return self._down_of.get(self._down[a] & self._down[b])

    def _residual_masks(self):
        """Every residual set as a mask; S(u, v) is at index u * n + v.

        The rows of one n^3 gather, packed: R[u, v, w] = leq[u][add[v][w]].
        """
        return _row_masks(self._leq.take(self._add, axis=1))

    def is_lattice(self):
        """Whether every pair of elements has a meet and a join.

        On a finite carrier this implies every subset (the empty one
        included) has an infimum and a supremum, which is the setting
        where condition C agrees with A, B and D.  On a bare partial
        order it can come apart from them; see the tests for a
        six-element witness.  A join is a meet of the dual.
        """
        return all(
            H._pair_bound(a, b) is not None
            for H in (self, self._dual)
            for a, b in itertools.combinations(range(self.size), 2)
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


def _c_failure(G, S):
    """A subset of the non-principal residual set S with an infimum outside S, or None.

    S is an up-set without a least element, so an infimum of S lies
    outside it and is the one to use.  Otherwise the elements m outside S
    are tried in order: m is the infimum of some subset of S iff it is
    the infimum of the part of S above it.  The subset returned is the
    first pair of minimal elements of that part that has an infimum (on a
    lattice, the first pair), else all of its minimal elements, which
    have the same infimum as the part.  The infimum of two distinct
    minimal elements lies above m, so it cannot be in S without equalling
    both.
    """
    m = G._bound(S)
    if m is None:
        outside = (x for x in range(G.size) if not S >> x & 1)
        m = next((x for x in outside if G._bound(S & G._up[x]) == x), None)
        if m is None:
            return None
    part = S & G._up[m]
    ends = [a for a in range(G.size) if part >> a & 1 and part & G._down[a] == 1 << a]
    pairs = itertools.combinations(ends, 2)
    pair = next((p for p in pairs if G._pair_bound(*p) is not None), None)
    return pair or tuple(ends)


def _failures(G, condition):
    """Witnesses against one condition, in scan order, possibly repeated.

    Every condition reads the residual sets S(u, v) = {w : u <= v + w},
    up-sets by compatibility.  A (an adjoint w exists), B (S has a least
    member) and D (the infimum of S lies in S) all say that S is
    principal, and fail at (u, v).  C (adding v preserves every existing
    infimum) fails at (v, M) exactly when M is a subset of some S(u, v)
    whose infimum exists and lies outside it, which a principal S cannot
    have.  The sets come from one ``_residual_masks`` table, scanned with
    u outer and v inner.
    """
    lab = G.carrier
    for uv, S in enumerate(G._residual_masks()):
        if S in G._up_of:
            continue
        u, v = divmod(uv, G.size)
        if condition != "C":
            yield (lab[u], lab[v])
            continue
        M = _c_failure(G, S)
        if M is not None:
            yield (lab[v], tuple(lab[m] for m in M))


def check_condition(G, condition, mode):
    """Decide one of the four residuation conditions exactly.

    mode "inf" checks the version whose residual sets are {w' : u <= v + w'}
    and whose distribution law is over infima; mode "sup" checks the dual.
    Witnesses of A, B and D are the pairs (u, v) whose residual set has no
    least (greatest) member; a witness of C is (v, M) where M has an
    infimum (supremum) e but v + e is not the infimum (supremum) of the
    v + m.  At most ``MAX_WITNESSES`` distinct witnesses are listed.

    Each call gathers all n^2 residual sets at once into an n^3-byte
    table (n = 48: 110 kB) and drops it on return.  The table is not
    cached on G: G is typically built once and checked many times, and a
    cache would turn every later check into a lookup.
    """
    condition = condition.upper()
    if condition not in CONDITIONS:
        raise ValueError(f"condition must be one of {CONDITIONS}, got {condition!r}")
    if mode not in MODES:
        raise ValueError(f"mode must be 'inf' or 'sup', got {mode!r}")
    H = G if mode == "inf" else G._dual
    witnesses = []
    for w in _failures(H, condition):
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

    One ``bytes.translate`` builds the residual set: byte w of
    ``_adds[v].translate(_rows[u])`` is leq[u][add[v][w]] (on the dual
    for mode "sup").  The set is principal iff it is the up-set row of
    some x, and then x is its least member.  Each call builds its own
    set; nothing is kept per (u, v).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be 'inf' or 'sup', got {mode!r}")
    H = G if mode == "inf" else G._dual
    i, j = H.index(u), H.index(v)
    w = H._row_of.get(H._adds[j].translate(H._rows[i]))
    return None if w is None else H.carrier[w]


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
    lattice orders, and it genuinely fails on bare posets.  A size outside
    1..``MAX_SIZE`` raises ValueError before any draw.
    """
    n = int(size)
    if not 1 <= n <= MAX_SIZE:
        raise ValueError(f"size must be in 1..{MAX_SIZE}, got {n}")
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
    order = np.array(leq, dtype=bool)
    for k in range(n):
        order |= order[:, k, None] & order[None, k, :]
    # greatest compatible sub-relation: no compatible one holds a dropped pair
    table = np.array(add, dtype=np.intp)
    while True:
        kept = order & _shifted(order, table).all(axis=2)
        if (kept == order).all():
            return add, order.tolist()
        order = kept
