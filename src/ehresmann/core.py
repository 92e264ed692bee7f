"""Finite Ehresmann semigroups presented by operation tables.

An element is its index in the multiplication table; the two unary tables
send each element to its domain projection (``plus``) and range projection
(``star``).  Names are display strings only and never affect identity.
"""

from __future__ import annotations

import functools
import operator
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat, starmap

from .report import Check, FAIL, INCONCLUSIVE, PASS, Report, first_witness


class MalformedTableError(ValueError):
    """An operation table has the wrong shape or an out-of-range entry."""


class InvariantError(ValueError):
    """A result breaks an invariant that holds for every valid input, so the
    input is not what the algorithm assumes (or its data were corrupted)."""


# ---------------------------------------------------------------------------
# the table kernel shared by every class built on an operation table

def _check_row(row, n: int, label: str) -> None:
    if not isinstance(row, list) or len(row) != n:
        raise MalformedTableError(f"{label} must be a list of length {n}")
    for j, v in enumerate(row):
        # bool is an int subclass; JSON true must not pass as 1
        if type(v) is not int or not 0 <= v < n:
            raise MalformedTableError(f"{label}[{j}] = {v!r} out of range")


def validate_table(table, n: int, label: str = "mult") -> None:
    """Raise MalformedTableError unless table is a list of n list rows of
    ints in range(n); table_rows checks list rows here."""
    if not isinstance(table, list) or len(table) != n:
        raise MalformedTableError(f"{label} table must be a list of {n} rows")
    # a row is accepted by C-level scans, types first so that every entry is
    # hashable; _check_row runs on a rejected row only, to name its first bad
    # entry
    ids = frozenset(range(n))
    for i, row in enumerate(table):
        if not (isinstance(row, list) and len(row) == n
                and {int}.issuperset(map(type, row)) and ids.issuperset(row)):
            _check_row(row, n, f"{label}[{i}]")


def right_cayley_graph(candidates, multiply):
    """A greedy generating set, its right Cayley graph and a word over it
    for every element reached (Froidure & Pin, "Algorithms for computing
    finite semigroups", 1997).

    candidates is an iterable of element ids, scanned in order; it may
    yield ids that multiply created.  A candidate not yet reached becomes
    the next generator a_j, every element reached so far is multiplied on
    the right by it, and what is new is multiplied by every generator.
    multiply(y, g) is the id of y g.  Returns (gens, order, word, right):
    order lists the reached elements in the order they were reached;
    word[y] is (None, j) when y = a_j and (p, j) when y = p a_j with p
    earlier in order; right[y][j] is the id of y a_j.  With n elements
    reached this takes n * len(gens) products.
    """
    gens, order, word, right = [], [], {}, {}

    def reach(y, j):
        z = multiply(y, gens[j])
        right[y].append(z)
        if z not in word:
            word[z], right[z] = (y, j), []
            order.append(z)

    for g in candidates:
        if g in word:
            continue
        j = len(gens)
        gens.append(g)
        old = len(order)
        word[g], right[g] = (None, j), []
        order.append(g)
        for y in order[:old]:
            reach(y, j)
        k = old
        while k < len(order):   # order grows while it is scanned
            for i in range(j + 1):
                reach(order[k], i)
            k += 1
    return gens, order, word, right


def saturate(start, steps, bound=None) -> dict:
    """Breadth-first from start, new states only: state -> level first
    reached, in insertion order, up to the first level that adds none or
    to bound levels."""
    seen = dict.fromkeys(start, 0)
    level, k = list(seen), 0
    while level and (bound is None or k < bound):
        k += 1
        level = dict.fromkeys(t for s in level for t in steps(s) if t not in seen)
        seen.update(dict.fromkeys(level, k))
    return seen


def first_paths(states, moves, paths) -> dict:
    """The path to each state of a saturate search, in a copy of paths,
    which gives one to each start: moves(s) lists the (step, t) pairs of
    state s in the order steps listed its states t, each step a tuple.  The
    path to a state t new at level k + 1 is that to the first state s of
    level k with a step to t, followed by its first such step.

    Where the steps of a path depend only on its state, this is the first
    path to t in path order (by length, then prefix, then step).  A path
    whose state is new at level k + 1 extends one whose state is new at
    level k (an older state would have stepped there sooner), and saturate
    steps the states of a level in order, each by its steps in order; so,
    by induction on the level, the first paths come in the order of the
    states."""
    paths = dict(paths)
    for s, k in states.items():
        for step, t in moves(s):
            if t not in paths and states.get(t) == k + 1:
                paths[t] = paths[s] + step
    return paths


def _find(parent, x):
    """Root of x in a union-find forest (Tarjan 1975), halving the path;
    parent is a list or a dict of every node."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


# ---------------------------------------------------------------------------
# the row primitive, one implementation per representation of the rows

# the table sizes held as bytes rows
BYTE_ROW_SIZES = range(8, 257)

_BYTE_IDS = bytes(range(256))


class _ListRows:
    """Rows as lists of n ids, each its own lookup and read through by
    itemgetter, or below two ids (all 0) by a slice, since itemgetter of
    one index returns an item."""

    row = list
    lookup = lookups = staticmethod(lambda g: g)
    missing = staticmethod(lambda rows: [len(row) - len(set(row)) for row in rows])
    columns = staticmethod(lambda rows: list(map(list, zip(*rows))))

    def __init__(self, n: int):
        self.getter = operator.itemgetter if n > 1 else (
            lambda *f: operator.itemgetter(slice(len(f))))

    def read(self, f, g):
        return list(self.getter(*f)(g))

    def pairwise(self, fs, gs):
        return map(list, map(operator.itemgetter.__call__, starmap(self.getter, fs), gs))

    def through(self, f, gs):
        return map(list, map(self.getter(*f), gs))


class _ByteRows:
    """Rows as bytes of at most 256 ids; a lookup is a row padded to the 256
    entries of a translate table, so a read is one translate."""

    row = bytes
    lookup = staticmethod(lambda g: g.ljust(256))
    lookups = staticmethod(lambda gs: map(bytes.ljust, gs, repeat(256)))
    read = staticmethod(bytes.translate)
    pairwise = staticmethod(functools.partial(map, bytes.translate))
    through = staticmethod(lambda f, gs: map(f.translate, gs))
    # the ids left when those in a row are deleted from range(n)
    missing = staticmethod(
        lambda rows: [len(_BYTE_IDS[:len(r)].translate(None, r)) for r in rows])

    @staticmethod
    def columns(rows):
        n, flat = len(rows[0]), b"".join(rows)
        return [flat[a::n] for a in range(n)]


def row_form(n: int):
    """The row primitive for tables of n elements: bytes rows at
    BYTE_ROW_SIZES (8 to 256 elements), list rows at any other size, as
    below 8 elements converting the rows costs more than it saves and above
    256 an id does not fit in a byte.

    R = row_form(n) gives R.row(ids), a row; rows of one form are equal
    exactly when their entries are.  Row g read through row f, z -> g[f[z]],
    is R.read(f, R.lookup(g)), a lookup made once per row and table;
    R.through(f, R.lookups(gs)) reads each g through one f, and
    R.pairwise(fs, R.lookups(gs)) each through the f beside it, one C-level
    batch each.  R.missing(rows) counts the ids of range(n) each row
    misses, and R.columns(rows) gives the columns of rows of one length.
    Every table class holds its table in this form, as table_rows gives it."""
    return _ByteRows if n in BYTE_ROW_SIZES else _ListRows(n)


def table_rows(table, n: int, label: str = "mult") -> list:
    """The rows of an n-element table in row_form(n), checked: list rows by
    validate_table, and bytes rows at C level, where no entry is left when
    the ids range(n) are deleted from the joined rows.  A bad entry raises
    MalformedTableError naming the first one, by the same message in either
    form.  Rows given in row_form(n) are returned as they are, so a table
    is held once, in the form every row kernel reads."""
    if not (isinstance(table, list) and table and type(table[0]) is bytes):
        validate_table(table, n, label)
        # bytearray reads a list of ints about twice as fast as bytes does
        return list(map(bytes, map(bytearray, table))) if n in BYTE_ROW_SIZES else table
    if len(table) != n or set(map(type, table)) != {bytes} or set(map(len, table)) != {n}:
        raise MalformedTableError(f"{label} table must be a list of {n} bytes rows "
                                  f"of length {n}")
    ids = _BYTE_IDS[:n]
    if b"".join(table).translate(None, ids):
        i = next(i for i, row in enumerate(table) if row.translate(None, ids))
        _check_row(list(table[i]), n, f"{label}[{i}]")
    return table if n in BYTE_ROW_SIZES else list(map(list, table))


def greedy_generators(table) -> list:
    """A generating set of the table by right products: the greedy one of
    right_cayley_graph over the elements in decreasing order of |xS|, the
    number of distinct entries of row x, ties in index order.  An element
    with a large row reaches many others by right products, so few are
    needed (B(3): 5 of 512 elements, PT(4): 5 of 625).  The rows are in
    row_form(len(table)), as table_rows gives them."""
    missing = row_form(len(table)).missing(table)
    rank = sorted(range(len(table)), key=missing.__getitem__)
    return right_cayley_graph(rank, lambda y, g: table[y][g])[0]


# below this many elements Light's test on all of S beats finding a greedy
# generating set first on the tables validated most (semilattices: 10-60%
# less time up to 16 elements), though a cyclic group takes up to 40% more
# from 6 elements on
ALL_ROWS_BELOW = 13


def associativity_witness(table, gens=None):
    """First (x, y, z) in lexicographic order with (x y) z != x (y z), or
    None when the validated table, its rows in row_form(len(table)) as
    table_rows gives them, is associative.

    Light's test (Clifford & Preston, The Algebraic Theory of Semigroups I,
    1.2) compares rows for y in a generating set A only: gens, or else all
    of S below ALL_ROWS_BELOW elements and greedy_generators(table) from
    there.  The y with (x y) z = x (y z) for all x, z are closed under the
    product even in a non-associative table, and A reaches every element by
    right products, so n^2 |A| lookups decide a pass: row x a against row
    x read through row a, for every x, in the table's row_form.  On a
    failure every row is compared, so the witness is the first triple
    whichever A was used.
    """
    n = len(table)
    R, rng, rows = row_form(n), range(n), table
    if gens is None:
        gens = rng if n < ALL_ROWS_BELOW else greedy_generators(rows)
    lookups = list(R.lookups(rows))
    if not any(any(map(operator.ne, map(rows.__getitem__, map(operator.itemgetter(a), rows)),
                       R.through(rows[a], lookups)))
               for a in gens):
        return None
    # row x y against row x read through row y, for every x and y
    x, y = next((x, y) for x in rng for y, differs in enumerate(map(
        operator.ne, map(rows.__getitem__, rows[x]),
        R.pairwise(rows, repeat(lookups[x])))) if differs)
    mx, my = rows[x], rows[y]
    return (x, y, next(z for z in rng if rows[mx[y]][z] != mx[my[z]]))


@dataclass
class OpTableSemigroup:
    """A finite semigroup with its two unary operations as tables.

    The tables are never mutated after construction, so the analyses that
    depend only on them (projections, natural orders, sigma, fibers) are
    computed once per object and cached in a private field that takes no
    part in construction, repr or equality.

    mult may be given as list rows or as bytes rows; table_rows checks it
    and holds it in row_form(n), bytes rows from 8 to 256 elements and list
    rows at any other size, so the object is the same whichever was given.
    """

    n: int
    mult: list
    plus: list
    star: list
    names: list | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        if self.n <= 0:
            raise MalformedTableError("need at least one element")
        self.mult = table_rows(self.mult, self.n)
        _check_row(self.plus, self.n, "plus")
        _check_row(self.star, self.n, "star")
        if self.names is not None and len(self.names) != self.n:
            raise MalformedTableError("names must have length n")

    def mul(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def prod(self, seq) -> int:
        seq = list(seq)
        if not seq:
            raise ValueError("empty product")
        acc = seq[0]
        for s in seq[1:]:
            acc = self.mult[acc][s]
        return acc

    def name(self, i: int) -> str:
        return self.names[i] if self.names else str(i)

    def elements(self):
        return range(self.n)


def _memoised(fn):
    """Cache fn(X) on X, a table or graph; valid because X's tables never
    change after construction.  Every caller gets the same result object and
    must not mutate it.  A cached value must not refer back to X, or X would
    sit in a reference cycle."""
    key = fn.__name__

    @functools.wraps(fn)
    def cached(X):
        memo = X._memo
        if key not in memo:
            memo[key] = fn(X)
        return memo[key]
    return cached


@_memoised
def _light(S: OpTableSemigroup) -> tuple:
    """A = greedy_generators(S.mult) and the associativity_witness of
    Light's test on A."""
    gens = greedy_generators(S.mult)
    return gens, associativity_witness(S.mult, gens)


def _each(name, lhs, rhs) -> Check:
    """An identity in x, both sides given as sequences over x; the witness
    is the first x where they differ."""
    lhs, rhs = list(lhs), list(rhs)
    if lhs == rhs:
        return Check(name, PASS)
    return Check(name, FAIL, (next(x for x, a in enumerate(lhs) if a != rhs[x]),))


def _by_rows(name, rows) -> Check:
    """An identity in x and y, rows yielding both sides of row x for every
    y, as two sequences of the same type, x = 0, 1, ... in turn; the
    witness is the first (x, y) in lexicographic order where they differ."""
    for x, (lhs, rhs) in enumerate(rows):
        if lhs != rhs:
            return Check(name, FAIL, (x, next(y for y, a in enumerate(lhs) if a != rhs[y])))
    return Check(name, PASS)


def _commute(name, m, u) -> Check:
    """u(x) u(y) = u(y) u(x).  Both sides depend on u(x) and u(y) only, so
    the table restricted to the image of u is compared with its transpose,
    and a witness is sought only at the first x whose value has a partner
    it does not commute with."""
    image = list(set(u))
    if len(image) < 2:      # one value commutes, and itemgetter(e) is an item
        return Check(name, PASS)
    at = operator.itemgetter(*image)
    rows = [at(m[e]) for e in image]
    cols = list(zip(*rows))
    if rows == cols:
        return Check(name, PASS)
    bad = {e for e, row, col in zip(image, rows, cols) if row != col}
    x = next(x for x, e in enumerate(u) if e in bad)
    e = u[x]
    return Check(name, FAIL, (x, next(y for y, f in enumerate(u) if m[e][f] != m[f][e])))


@_memoised
def verify_ehresmann(S: OpTableSemigroup) -> Report:
    """Check associativity and the eight defining unary identities.

    Each check is reported PASS or FAIL with a witness tuple on FAIL, the
    first in lexicographic order of its variables.  The identities in two
    variables are compared by whole rows at C level, one x at a time.
    """
    m, p, st = S.mult, S.plus, S.star
    rng = range(S.n)
    R = row_form(S.n)
    P = R.row(p)

    def plus_rows():
        # row x of (x y)^+, plus read through row x, against the same row
        # read at y^+, that row read through plus
        lhs = list(R.pairwise(m, repeat(R.lookup(P))))
        return zip(lhs, R.through(P, R.lookups(lhs)))

    def star_rows():
        # row x of (x y)^*, star read through row x, against row x^* of it
        at = list(R.pairwise(m, repeat(R.lookup(R.row(st)))))
        return zip(at, map(at.__getitem__, st))

    assoc = _light(S)[1]
    return Report([
        Check("associativity", FAIL if assoc else PASS, assoc),
        _each("x^+ x = x", map(operator.getitem, map(m.__getitem__, p), rng), rng),
        _commute("x^+ y^+ = y^+ x^+", m, p),
        _by_rows("(x y)^+ = (x y^+)^+", plus_rows()),
        _each("x x^* = x", map(operator.getitem, m, st), rng),
        _commute("x^* y^* = y^* x^*", m, st),
        _by_rows("(x y)^* = (x^* y)^*", star_rows()),
        _each("(x^+)^* = x^+", map(st.__getitem__, p), p),
        _each("(x^*)^+ = x^*", map(p.__getitem__, st), st),
    ])


def verify_restriction(S: OpTableSemigroup, side: str = "both") -> Report:
    """Check the ample identity for the requested side(s), by whole rows one
    x at a time; the witness is the first failing (x, y) in lexicographic
    order."""
    if side not in ("left", "right", "both"):
        raise ValueError(f"side must be left, right or both, not {side!r}")
    R, rows = row_form(S.n), S.mult

    def left_rows():
        # x y^+ against (x y)^+ x: row x read through plus, against column
        # x, taken at the image of plus only, read through plus, then row x
        image = sorted(set(S.plus))
        pos = dict(zip(image, range(len(image))))
        at_plus = R.through(R.row(map(pos.__getitem__, S.plus)),
                            R.lookups(R.columns([rows[e] for e in image])))
        return zip(R.through(R.row(S.plus), R.lookups(rows)),
                   R.pairwise(rows, R.lookups(at_plus)))

    def right_rows():
        # x^* y against y (x y)^*: star read through row x, then row y read
        # at entry y of that, for every y
        at_star = R.pairwise(rows, repeat(R.lookup(R.row(S.star))))
        return zip(map(rows.__getitem__, S.star),
                   (R.row(map(operator.getitem, rows, t)) for t in at_star))

    checks = []
    if side in ("left", "both"):
        checks.append(_by_rows("x y^+ = (x y)^+ x", left_rows()))
    if side in ("right", "both"):
        checks.append(_by_rows("x^* y = y (x y)^*", right_rows()))
    return Report(checks)


@_memoised
def projections(S: OpTableSemigroup) -> tuple:
    """The projections, in increasing order: the common image of the two
    unary operations."""
    plus_img = sorted(set(S.plus))
    star_img = sorted(set(S.star))
    if plus_img != star_img:
        raise ValueError(
            f"images of plus {plus_img} and star {star_img} differ; "
            "the (x^+)^* = x^+ identities do not hold on this data")
    for e in plus_img:
        if S.plus[e] != e or S.star[e] != e:
            raise ValueError(f"projection {e} is not fixed by the unary operations")
    return tuple(plus_img)


@dataclass
class OrderRelations:
    le_l: list
    le_r: list
    le: list


@_memoised
def natural_orders(S: OpTableSemigroup) -> OrderRelations:
    """The natural left/right/two-sided partial orders as boolean tables.

    a <=_l b iff a = a^+ b;  a <=_r b iff a = b a^*;
    a <= b iff a = a^+ b f for some projection f (Lawson, J. Algebra 1991).
    When verify_ehresmann passes and P is closed under the product, f = a^*
    is the only candidate: from a = a^+ b f, a^* = (a^+ b)^* f as
    (x f)^* = (x^* f)^* = x^* f, so a^+ b a^* = a^+ b (a^+ b)^* f = a.
    Otherwise every f in P is tried.
    """
    m, p, st = S.mult, S.plus, S.star
    P = projections(S)
    fast = verify_ehresmann(S).ok and {m[e][f] for e in P for f in P} <= set(P)
    R = row_form(S.n)
    col = R.columns(m)
    at = {f: R.lookup(col[f]) for f in P}
    le_l, le_r, le = [], [], []
    for a in range(S.n):
        pa = m[p[a]]
        le_l.append([x == a for x in pa])
        le_r.append([x == a for x in col[st[a]]])
        # column f read through row a^+ is a^+ b f for every b; a <= b when
        # it is a at f = a^*, or off the fast path at some f in P
        if fast:
            le.append([x == a for x in R.read(pa, at[st[a]])])
        else:
            le.append([a in t for t in zip(*(R.read(pa, at[f]) for f in P))])
    return OrderRelations(le_l, le_r, le)


@dataclass
class Congruence:
    n: int
    class_of: list
    classes: list

    def same(self, a: int, b: int) -> bool:
        return self.class_of[a] == self.class_of[b]

    def num_classes(self) -> int:
        return len(self.classes)


@_memoised
def sigma(S: OpTableSemigroup):
    """Least congruence identifying all projections, plus the reduced quotient.

    Union-find from the projection pairs, each merged pair translated on
    both sides by every z in Z until fixpoint.  Z is A =
    greedy_generators(S.mult) when Light's test on A passes: a relation
    closed under translation by A is then closed under translation by every
    product of A (East, Egri-Nagy, Mitchell & Peresse, J. Symb. Comput.
    2019).  Otherwise Z is range(n).  The classes are numbered by least
    member, so they do not depend on which A was chosen.  The unary
    operations need no closure: projections() checks that every x^+ and x^*
    is in P, and the first |P| - 1 pairs merge P into one class."""
    P = projections(S)
    m, n = S.mult, S.n
    gens, assoc = _light(S)
    parent = list(range(n))
    find = functools.partial(_find, parent)
    work = deque((P[0], e) for e in P[1:])
    while work:
        a, b = work.popleft()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[rb] = ra
        ma, mb = m[a], m[b]
        for z in range(n) if assoc else gens:
            mz = m[z]
            for x, y in ((mz[a], mz[b]), (ma[z], mb[z])):
                if x != y and find(x) != find(y):
                    work.append((x, y))
    groups = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    index = {r: i for i, r in enumerate(groups)}
    co = [index[find(x)] for x in range(n)]
    reps = [c[0] for c in groups.values()]
    R = row_form(len(reps))
    quotient = OpTableSemigroup(
        len(reps), [R.row([co[m[r][t]] for t in reps]) for r in reps],
        [co[S.plus[r]] for r in reps], [co[S.star[r]] for r in reps],
        ["[" + S.name(r) + "]" for r in reps])
    return Congruence(n, co, [tuple(c) for c in groups.values()]), quotient


@_memoised
def fibers(S: OpTableSemigroup) -> tuple:
    """For each element s, the elements sharing its coordinates
    (s^+, s^*, sigma-class of s), in increasing order."""
    keys = list(zip(S.plus, S.star, sigma(S)[0].class_of))
    groups = {}
    for s, key in enumerate(keys):
        groups.setdefault(key, []).append(s)
    return tuple(tuple(groups[key]) for key in keys)


def proper_elements(S: OpTableSemigroup) -> frozenset:
    """Elements uniquely determined by (s^+, s^*, sigma-class of s)."""
    return frozenset(s for s, fiber in enumerate(fibers(S)) if len(fiber) == 1)


def is_strictly_proper(S: OpTableSemigroup) -> bool:
    return len(proper_elements(S)) == S.n


def is_matching(S: OpTableSemigroup, seq) -> bool:
    """True iff star of each factor equals plus of the next."""
    seq = list(seq)
    if not seq:
        raise ValueError("empty sequence")
    return all(S.star[seq[i]] == S.plus[seq[i + 1]] for i in range(len(seq) - 1))


def _corestrict_factorization(S: OpTableSemigroup, seq, e: int):
    """Shrink a matching factorization on the right down to range projection e.

    Returns s_n' = s_n e, s_{n-1}' = s_{n-1} (s_n')^+, ... ; the result is a
    matching factorization of (product e) with componentwise smaller factors.
    """
    m, p = S.mult, S.plus
    out = list(seq)
    out[-1] = m[out[-1]][e]
    for i in range(len(out) - 2, -1, -1):
        out[i] = m[out[i]][p[out[i + 1]]]
    return out


def matchify(S: OpTableSemigroup, seq):
    """Shrink the factors of a product so they match, keeping the product.

    Factor by factor: with t the product of the factors before s, split off
    t^* s on the right and run a corestriction pass down to t^* s^+ over the
    factors matched so far.
    """
    seq = list(seq)
    if not seq:
        raise ValueError("empty sequence")
    m, p, st = S.mult, S.plus, S.star
    head, t = seq[:1], seq[0]
    for s in seq[1:]:
        head = _corestrict_factorization(S, head, m[st[t]][p[s]])
        head.append(m[st[t]][s])
        t = m[t][s]
    return head


def _matching_products(S: OpTableSemigroup, Y):
    """Element -> least length of a matching Y-factorization, if any."""
    m, p, st = S.mult, S.plus, S.star
    return {q: k + 1 for q, k in saturate(
        Y, lambda x: [m[x][y] for y in Y if p[y] == st[x]]).items()}


def _matching_factorizations(S, Y, max_len, cap, minlen):
    """The matching Y-sequences of length at most max_len, grouped by
    product: product -> the first cap + 1 of them in depth-first order.  A
    product with more than cap sequences had its enumeration truncated.
    minlen is _matching_products(S, Y): the walk stops once every product
    with a sequence of length at most max_len has its cap + 1."""
    m = S.mult
    Y = sorted(Y)
    successors = {y: [z for z in Y if S.plus[z] == S.star[y]] for y in Y}
    open_groups = sum(1 for k in minlen.values() if k <= max_len)
    found = {}
    stack = [((y,), y) for y in Y]
    while stack and open_groups:
        seq, prod = stack.pop()
        group = found.setdefault(prod, [])
        if len(group) <= cap:
            group.append(seq)
            open_groups -= len(group) > cap
        if len(seq) < max_len:
            for z in successors[seq[-1]]:
                stack.append((seq + (z,), m[prod][z]))
    return found


def contract_expand_neighbours(seq, times, contracts_to, expand, max_len):
    """The sequences one contract or expand move away from seq, in order.

    First the contractions, by block start and then block end: a block of
    two or more consecutive factors whose product, folded left to right by
    times(prod, factor), lies in contracts_to becomes that one factor.  Then
    the expansions, by position and in block order: a factor becomes each
    block in expand(factor, cap) of length at most cap = max_len - k + 1,
    k the length of seq, so that no result is longer than max_len.
    """
    k = len(seq)
    out = []
    for i in range(k - 1):
        prod = seq[i]
        for j in range(i + 1, k):
            prod = times(prod, seq[j])
            if prod in contracts_to:
                out.append(seq[:i] + (prod,) + seq[j + 1:])
    cap = max_len - k + 1
    if cap >= 2:
        for i in range(k):
            for block in expand(seq[i], cap):
                if len(block) <= cap:
                    out.append(seq[:i] + block + seq[i + 1:])
    return out


def _first_unreached_factorization(S, Yset, start, goals, max_len, expansions,
                                   budget):
    """First of goals (in order) not reached from start by contract/expand moves.

    One BFS from start serves every goal: the visiting order does not depend
    on the goal, and a goal counts as reached as soon as it is generated as a
    neighbour, before the budget is consulted, so each answer is the one a
    separate search for that goal would give.  At most budget nodes are
    kept; the search stops when every goal is reached or the frontier is
    exhausted.  Returns None when all goals are reached.
    """
    m = S.mult
    remaining = set(goals)
    remaining.discard(start)
    seen = {start}
    frontier = deque([start])
    while remaining and frontier:
        for nb in contract_expand_neighbours(
                frontier.popleft(), lambda a, b: m[a][b], Yset,
                lambda y, cap: expansions.get(y, ()), max_len):
            remaining.discard(nb)
            if nb not in seen and len(seen) < budget:
                seen.add(nb)
                frontier.append(nb)
    return next((g for g in goals if g in remaining), None)


def ideal_members(S: OpTableSemigroup, Y=None) -> frozenset:
    """Y (all of S when None) as a set, after checking that every member is
    an element of S; raises ValueError otherwise."""
    Yset = frozenset(range(S.n) if Y is None else Y)
    for y in Yset:
        if not 0 <= y < S.n:
            raise ValueError(f"Y member {y} out of range")
    return Yset


def ideal_checks(S: OpTableSemigroup, Y) -> list:
    """Conditions (1)-(3) of a proper generating ideal Y: the projections
    lie in Y, Y is an order ideal, and the members of Y are proper.
    Raises ValueError for a member of Y outside S."""
    Yset = ideal_members(S, Y)
    missing = tuple(e for e in projections(S) if e not in Yset)
    le = natural_orders(S).le
    ideal_witness = next(((s, y) for y in sorted(Yset) for s in range(S.n)
                          if le[s][y] and s not in Yset), None)
    fib = fibers(S)
    improper_witness = next(((y, next(t for t in fib[y] if t != y))
                             for y in sorted(Yset) if len(fib[y]) > 1), None)
    return [Check("projections_in_Y", FAIL if missing else PASS, missing or None),
            Check("Y_is_order_ideal", FAIL if ideal_witness else PASS, ideal_witness),
            Check("Y_elements_proper", FAIL if improper_witness else PASS,
                  improper_witness)]


def _one_component(S: OpTableSemigroup, Yset, facts) -> bool:
    """True when the contractions of facts join them all: one union-find
    pass joins each factorization to every sequence one contraction away
    (contract_expand_neighbours with no expansions).  Contraction and
    expansion are inverse moves, so facts in one component are pairwise
    joined by moves through sequences no longer than the longest of them."""
    m = S.mult
    parent = dict(zip(facts, facts))
    for f in facts:
        for c in contract_expand_neighbours(f, lambda a, b: m[a][b], Yset,
                                            lambda y, cap: (), len(f)):
            parent.setdefault(c, c)
            parent[_find(parent, c)] = _find(parent, f)
    return len({_find(parent, f) for f in facts}) == 1


def check_proper_ideal(S: OpTableSemigroup, Y, max_len: int,
                       budget: int = 20000) -> Report:
    """Check the defining conditions of a proper generating ideal Y.

    (1) projections lie in Y; (2) Y is an order ideal; (3) Y-elements are
    proper; (4) every element has a matching Y-factorization of length at
    most max_len; (5) factorizations of length at most max_len are pairwise
    equivalent under contract/expand moves, searched with intermediate
    length cap max_len + 2.

    The matching Y-sequences of length at most max_len are walked once and
    grouped by product, at most budget + 1 per product (more make condition
    (5) INCONCLUSIVE).  Condition (5) then settles an element s without a
    search in two ways:
    - s in Y: each factorization of length two or more is one block whose
      product s lies in Y, so it contracts to (s,) in one move, and (s,)
      expands back to each of them;
    - s outside Y: one union-find pass over the contractions of its listed
      factorizations (_one_component) puts them all in one component.
    Only the elements left open walk the sequences of length max_len + 1
    (the blocks a member of Y expands to) and run one breadth-first search
    each, in element order, from the first factorization towards all the
    others; budget bounds the nodes that search keeps and the blocks kept
    per member of Y.  Its verdicts and witnesses are those of a separate
    search per pair of factorizations.  Condition (5) is a bounded search
    and may come back INCONCLUSIVE; factorization length is unbounded in
    general, so no completeness is claimed.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    Yset = ideal_members(S, Y)
    checks = ideal_checks(S, Yset)

    minlen = _matching_products(S, Yset)
    unreachable = [s for s in range(S.n) if s not in minlen]
    too_long = [s for s in range(S.n) if minlen.get(s, 0) > max_len]
    if unreachable:
        checks.append(Check("factorization_exists", FAIL, (unreachable[0],)))
    elif too_long:
        checks.append(Check("factorization_exists", INCONCLUSIVE,
                            (too_long[0], minlen[too_long[0]])))
    else:
        checks.append(Check("factorization_exists", PASS))

    if any(c.status == FAIL for c in checks):
        checks.append(Check("factorizations_equivalent", INCONCLUSIVE,
                            ("skipped: earlier condition failed",)))
        return Report(checks)

    factorizations = _matching_factorizations(S, Yset, max_len, budget, minlen)
    trunc = any(len(facts) > budget for facts in factorizations.values())
    unsettled = [s for s, facts in sorted(factorizations.items())
                 if len(facts) > 1 and s not in Yset
                 and not _one_component(S, Yset, facts)]
    status, witness = PASS, None
    if unsettled:
        blocks = _matching_factorizations(S, Yset, max_len + 1, budget, minlen)
        expansions = {y: [b for b in blocks.get(y, ()) if len(b) > 1] for y in Yset}
        trunc = trunc or any(len(blocks.get(y, ())) > budget for y in Yset)
    for s in unsettled:
        facts = factorizations[s]
        other = _first_unreached_factorization(S, Yset, facts[0], facts[1:],
                                               max_len + 2, expansions, budget)
        if other is not None:
            # saturation inside the length cap cannot prove inequivalence
            status, witness = INCONCLUSIVE, (s, facts[0], other)
            break
    if status == PASS and trunc:
        status, witness = INCONCLUSIVE, ("enumeration truncated",)
    checks.append(Check("factorizations_equivalent", status, witness))
    return Report(checks)


def isomorphism_checks(S: OpTableSemigroup, T: OpTableSemigroup, psi,
                       name_of) -> list:
    """Checks that psi, the list of images in T of the elements of S, is a
    bijection preserving multiplication and both unary operations.  FAIL
    witnesses show elements of S through name_of."""
    onto = sorted(psi) == list(range(T.n))
    rng = range(S.n)
    return [
        Check("bijective", PASS if onto else FAIL,
              None if onto else (len(set(psi)), T.n)),
        first_witness("preserves_multiplication", (
            (name_of(a), name_of(b)) for a in rng for b in rng
            if psi[S.mult[a][b]] != T.mult[psi[a]][psi[b]])),
        first_witness("preserves_unary_operations", (
            (name_of(a),) for a in rng
            if psi[S.plus[a]] != T.plus[psi[a]] or psi[S.star[a]] != T.star[psi[a]])),
    ]
