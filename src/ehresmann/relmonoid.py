"""Binary relations on a finite ground set, packed as bit masks.

Relations live on ground set {0, ..., n-1}; pair (x, y) is bit x*n + y.
Composition reads left to right: (x, z) in a b iff x a y and y b z for
some y.  dom/ran give the sub-identity relations on the domain and range.
"""

from __future__ import annotations

import functools
import operator
import os
from dataclasses import dataclass, field
from itertools import chain, product as iproduct, repeat

from . import core
from .core import OpTableSemigroup

DEFAULT_CLOSURE_CAP = 100000


class ClosureOverflowError(RuntimeError):
    """Closure grew past the configured element cap."""


def closure_cap(cap: int | None = None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get("EHRESMANN_MAX_CLOSURE")
    if not env:
        return DEFAULT_CLOSURE_CAP
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"EHRESMANN_MAX_CLOSURE must be an integer, "
                         f"not {env!r}") from None


@dataclass(frozen=True)
class Rel:
    n: int
    bits: int

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Rel":
        bits = 0
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"pair ({x},{y}) outside ground set of size {n}")
            bits |= 1 << (x * n + y)
        return cls(n, bits)

    def pairs(self):
        """The pairs (x, y) in lexicographic order: the set bits of the
        n^2 bits, lowest first, bit x n + y standing for (x, y)."""
        n, out = self.n, []
        bits = self.bits & ((1 << n * n) - 1)
        while bits:
            low = bits & -bits
            out.append(divmod(low.bit_length() - 1, n))
            bits ^= low
        return tuple(out)

    def has(self, x: int, y: int) -> bool:
        return bool(self.bits >> (x * self.n + y) & 1)

    def row(self, x: int) -> int:
        return self.bits >> (x * self.n) & ((1 << self.n) - 1)

    def issubset(self, other: "Rel") -> bool:
        return self.bits & other.bits == self.bits

    def converse(self) -> "Rel":
        return Rel.from_pairs(self.n, [(y, x) for x, y in self.pairs()])

    def __repr__(self):
        if self.bits == 0:
            return "Rel{}"
        return "Rel{" + ",".join(f"({x},{y})" for x, y in self.pairs()) + "}"


def identity(n: int) -> Rel:
    return Rel.from_pairs(n, [(x, x) for x in range(n)])


def empty(n: int) -> Rel:
    return Rel(n, 0)


def diagonal(n: int, members) -> Rel:
    return Rel.from_pairs(n, [(x, x) for x in members])


def _right_multiplier(n: int, b: int):
    """The map a -> a ; b on bit masks of relations on n points.  Row x of
    a ; b is the union of the rows of b that row x of a selects; the image
    of each row mask is computed once."""
    mask = (1 << n) - 1
    rows = [b >> (y * n) & mask for y in range(n)]
    shifts = range(0, n * n, n)
    image = {0: 0}

    def times(a: int) -> int:
        out = 0
        for s in shifts:
            m = a >> s & mask
            r = image.get(m)
            if r is None:
                r = image[m] = functools.reduce(
                    operator.or_, (rows[y] for y in range(n) if m >> y & 1), 0)
            out |= r << s
        return out
    return times


def compose(a: Rel, b: Rel) -> Rel:
    if a.n != b.n:
        raise ValueError(f"ground sizes differ: {a.n} vs {b.n}")
    return Rel(a.n, _right_multiplier(a.n, b.bits)(a.bits))


def _dom_ran_bits(n: int, a: int):
    """dom and ran of the relation with bit mask a, as bit masks."""
    mask = (1 << n) - 1
    d = image = 0
    for x in range(n):
        row = a >> (x * n) & mask
        if row:
            d |= 1 << (x * n + x)
            image |= row
    r = 0
    for y in range(n):
        if image >> y & 1:
            r |= 1 << (y * n + y)
    return d, r


def dom_ran(a: Rel):
    d, r = _dom_ran_bits(a.n, a.bits)
    return Rel(a.n, d), Rel(a.n, r)


def dom(a: Rel) -> Rel:
    return dom_ran(a)[0]


def ran(a: Rel) -> Rel:
    return dom_ran(a)[1]


def classify(a: Rel) -> dict:
    """Row/column uniqueness flags: PT = partial maps, PT^c = their converses.
    No two rows share a column exactly when their sizes sum to the size of
    their union."""
    rows = [a.row(x) for x in range(a.n)]
    sizes = [bin(r).count("1") for r in rows]
    in_pt = all(k <= 1 for k in sizes)
    in_ptc = sum(sizes) == bin(functools.reduce(operator.or_, rows, 0)).count("1")
    return {"in_PT": in_pt, "in_PTc": in_ptc, "in_I": in_pt and in_ptc}


def natural_le(a: Rel, b: Rel) -> bool:
    """a <= b in the Ehresmann order: a = e b f for sub-identities e, f."""
    if a.n != b.n:
        raise ValueError("ground sizes differ")
    n = a.n
    subsets = range(1 << n)
    diags = [diagonal(n, [x for x in range(n) if s >> x & 1]) for s in subsets]
    for e in diags:
        eb = compose(e, b)
        for f in diags:
            if compose(eb, f) == a:
                return True
    return False


def all_relations(n: int):
    return [Rel(n, bits) for bits in range(1 << (n * n))]


def all_partial_maps(n: int):
    """All relations with at most one image per point ((n+1)^n of them)."""
    out = []
    for choice in iproduct(range(n + 1), repeat=n):
        pairs = [(x, y) for x, y in enumerate(choice) if y < n]
        out.append(Rel.from_pairs(n, pairs))
    return out


def all_partial_comaps(n: int):
    return [a.converse() for a in all_partial_maps(n)]


def all_partial_bijections(n: int):
    return [a for a in all_partial_maps(n) if classify(a)["in_I"]]


def _table(n: int, bits: list, register, candidates=None) -> list:
    """The multiplication table of the relations bits[0], bits[1], ...,
    read off the right Cayley graph of a greedy generating set A.

    A is taken from candidates, ids scanned in order; by default every id
    in index order, including those register appends.  register(mask) is
    the id of a relation; it may append a new relation to bits, which is
    then reached as well.  Composition is associative, so for y = p a_j a
    generator's row follows the graph, a y = (a p) a_j, and every other
    row is an earlier row read through a generator's row, y x = p (a_j x):
    n |A| compositions and n^2 lookups instead of n^2 compositions, each
    row of lookups one R.read of R = core.row_form(len(bits)).
    """
    times = {}

    def every_id():
        i = 0
        while i < len(bits):
            yield i
            i += 1

    def multiply(y, g):
        if g not in times:
            times[g] = _right_multiplier(n, bits[g])
        return register(times[g](bits[y]))

    gens, order, word, right = core.right_cayley_graph(
        every_id() if candidates is None else candidates, multiply)
    words = [(z, *word[z]) for z in order]
    size = len(bits)
    R = core.row_form(size)
    rows = [None] * size
    for g in gens:
        row = [None] * size
        for z, p, j in words:
            row[z] = right[g if p is None else row[p]][j]
        rows[g] = R.row(row)
    for z, p, j in words:
        if p is not None:
            rows[z] = R.read(rows[gens[j]], R.lookup(rows[p]))
    return rows


def _plus_star(dom_ran_bits: list, id_of):
    """The plus and star tables: the ids of the masks of dom and ran of
    each relation, looked up relation by relation, dom first."""
    pairs = [[id_of(x) for x in d_r] for d_r in dom_ran_bits]
    return [d for d, _ in pairs], [r for _, r in pairs]


@dataclass
class RelationAlgebra:
    """Relations closed under compose, dom and ran, numbered by their
    position in elements.

    The elements never change after construction, so the multiplication,
    plus and star tables are built once and kept in _tables, a memo slot
    that takes no part in construction, repr or equality: generate fills it
    from its own closure, and to_semigroup fills it for a listed algebra.
    The mult table is kept as _table builds it, in its core.row_form, and
    every semigroup to_semigroup returns shares it as its mult; nothing
    mutates it.
    """

    n: int
    elements: list  # Rel values, closed under compose/dom/ran
    index: dict = field(init=False)     # Rel value -> its position in elements
    _tables: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)

    def __post_init__(self):
        self.index = {r: i for i, r in enumerate(self.elements)}

    def to_semigroup(self) -> OpTableSemigroup:
        """The algebra as a table semigroup named by its relations.

        The tables are read from _tables.  A listed algebra, such as
        full_PT(n), has them built by _table over candidates ranked by
        |ran|, then |dom|, both descending, ties in index order: a relation
        with a large range and domain reaches many others by right
        products, so A is small (4 on PT(3) and I(4), 5 on PT(4), 10 on
        B(3), against 20, 30, 66 and 37 in index order).  The ranks are
        popcounts of the dom and ran masks, so a product outside the
        elements raises ValueError from _table before a dom or ran outside
        them raises from the plus and star lookups.
        """
        if self._tables is None:
            n, bits = self.n, [a.bits for a in self.elements]
            index_of = {b: i for i, b in enumerate(bits)}

            def element(b):
                if b not in index_of:
                    raise ValueError(f"{Rel(n, b)!r} is a product or projection "
                                     "of the elements but not one of them")
                return index_of[b]

            dom_ran_bits = [_dom_ran_bits(n, b) for b in bits]
            ranked = sorted(range(len(bits)), key=lambda i: (
                -dom_ran_bits[i][1].bit_count(), -dom_ran_bits[i][0].bit_count()))
            mult = _table(n, bits, element, ranked)
            self._tables = (mult, *_plus_star(dom_ran_bits, element))
        mult, plus, star = self._tables
        names = [repr(a) for a in self.elements]
        return OpTableSemigroup(len(self.elements), mult, plus, star, names)


def _round_order(seeds, mult, plus, star) -> list:
    """The order in which the round-by-round closure meets the elements of
    a table: the seeds first; then each round adds plus and star of the
    elements the last round added, then every product a b and b a of such
    an a with an element b met so far, in that order.

    It returns as soon as every element has been met: elements are only
    ever appended, so later products would meet nothing new and the order
    is that of replaying every round to the end.

    Up to 256 elements (list rows are made bytes first) every id is a byte
    and the order met so far is a bytearray.  A round's plus and star are
    two translates of the frontier, interleaved by slice assignment; for a
    frontier element a, row a and column a (a strided slice of the joined
    rows) are read at the snapshot by one translate each and interleaved
    the same way.  One translate deletes the ids already met, so the
    Python-level dedup runs only over what is met for the first time.
    Above 256 elements the rows are lists and each product is one loop
    step.
    """
    size = len(mult)
    if size > 256:
        return _round_order_lists(seeds, mult, plus, star)
    rows = mult if size and type(mult[0]) is bytes else list(map(bytes, mult))
    pad = bytes(256 - size)
    plus, star, flat = bytes(plus) + pad, bytes(star) + pad, b"".join(rows)
    order = bytearray(dict.fromkeys(seeds))

    def meet(first, second):
        """Append the ids of first and second, read alternately, that are
        not met yet; true once every element is met."""
        buf = bytearray(2 * len(first))
        buf[0::2], buf[1::2] = first, second
        order.extend(dict.fromkeys(buf.translate(None, order)))
        return len(order) == size

    start = 0
    while start < len(order) < size:
        frontier = order[start:]
        start = len(order)
        if meet(frontier.translate(plus), frontier.translate(star)):
            break
        snapshot = bytes(order)
        for a in frontier:
            if meet(snapshot.translate(rows[a] + pad),
                    snapshot.translate(flat[a::size] + pad)):
                break
    return list(order)


def _round_order_lists(seeds, mult, plus, star) -> list:
    """_round_order on list rows, one loop step per product."""
    size = len(mult)
    seen = bytearray(size)
    order = []

    def meet(items):
        """Append the items not met yet; true once every element is met."""
        for c in dict.fromkeys(items):
            if not seen[c]:
                seen[c] = 1
                order.append(c)
        return len(order) == size

    meet(seeds)
    start = 0
    while start < len(order):
        frontier = order[start:]
        start = len(order)
        if meet(x for a in frontier for x in (plus[a], star[a])):
            return order
        snapshot = list(order)
        for a in frontier:
            if meet(chain.from_iterable(zip(
                    map(mult[a].__getitem__, snapshot), [mult[b][a] for b in snapshot]))):
                return order
    return order


def _renumbered(order, mult, plus, star):
    """The tables with element order[i] renamed i: rank[order[i]] = i, and
    each row read through the order, then mapped by rank: in the
    core.row_form of mult, rank read through row x read through the
    order."""
    rank = [0] * len(order)
    for i, x in enumerate(order):
        rank[x] = i
    R = core.row_form(len(order))
    renamed = R.through(R.row(order), R.lookups(map(mult.__getitem__, order)))
    rows = list(R.pairwise(renamed, repeat(R.lookup(R.row(rank)))))
    return rows, [rank[plus[x]] for x in order], [rank[star[x]] for x in order]


def generate(n: int, generators, cap: int | None = None) -> RelationAlgebra:
    """Least set of relations containing the generators and closed under
    composition, dom and ran.

    The closure is found Froidure-Pin style, by right multiplication with
    the generators and every dom and ran met on the way, candidates in the
    order they are met; its multiplication table is read off that right
    Cayley graph (_table).  register computes the dom and ran masks of each
    new relation once and keeps them for the plus and star tables.  The
    elements are then numbered in the order of the round-by-round closure,
    which adds dom and ran of each new relation, then its products with
    every known relation on both sides, replayed on the table by
    _round_order (bytes rows up to 256 elements), and the tables are
    renumbered to match and kept on the algebra, so to_semigroup builds
    none.
    """
    cap = closure_cap(cap)
    gens = sorted(set(generators), key=lambda r: r.bits)
    for g in gens:
        if g.n != n:
            raise ValueError("generator ground size mismatch")
    bits, dom_ran_bits, index_of = [], [], {}

    def register(b):
        if b not in index_of:
            if len(bits) >= cap:
                raise ClosureOverflowError(
                    f"closure exceeded cap of {cap} elements")
            index_of[b] = len(bits)
            bits.append(b)
            masks = _dom_ran_bits(n, b)
            dom_ran_bits.append(masks)
            for x in masks:
                register(x)
        return index_of[b]

    seeds = [register(g.bits) for g in gens]
    mult = _table(n, bits, register)
    plus, star = _plus_star(dom_ran_bits, index_of.__getitem__)
    order = _round_order(seeds, mult, plus, star)
    if len(order) != len(bits):
        raise core.InvariantError(
            f"the round-by-round closure met {len(order)} of the "
            f"{len(bits)} relations of the Froidure-Pin closure")
    alg = RelationAlgebra(n, [Rel(n, bits[i]) for i in order])
    alg._tables = _renumbered(order, mult, plus, star)
    return alg


def full_B(n: int) -> RelationAlgebra:
    return RelationAlgebra(n, all_relations(n))


def full_PT(n: int) -> RelationAlgebra:
    return RelationAlgebra(n, sorted(all_partial_maps(n), key=lambda r: r.bits))


def full_PTc(n: int) -> RelationAlgebra:
    return RelationAlgebra(n, sorted(all_partial_comaps(n), key=lambda r: r.bits))


def full_I(n: int) -> RelationAlgebra:
    return RelationAlgebra(n, sorted(all_partial_bijections(n), key=lambda r: r.bits))
