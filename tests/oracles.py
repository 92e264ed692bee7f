"""Independent brute-force oracles used to cross-check the main algorithms."""

import functools
import itertools
import json
import operator
import random
from collections import deque

from ehresmann import actions, core, corpus, cover, io, product, relmonoid, resgraph
from ehresmann.report import Check, FAIL, INCONCLUSIVE, PASS, Report, first_witness


def set_partitions(items):
    """All partitions of a list, via restricted growth strings."""
    items = list(items)
    if not items:
        yield []
        return
    n = len(items)
    rgs = [0] * n
    maxes = [0] * n
    while True:
        blocks = {}
        for i, b in enumerate(rgs):
            blocks.setdefault(b, []).append(items[i])
        yield list(blocks.values())
        i = n - 1
        while i > 0 and rgs[i] > maxes[i - 1]:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        maxes[i] = max(maxes[i - 1], rgs[i])
        for j in range(i + 1, n):
            rgs[j] = 0
            maxes[j] = maxes[i]


def is_mult_congruence(S, class_of):
    """Partition compatible with multiplication: x ~ y forces zx ~ zy, xz ~ yz."""
    n = S.n
    m = S.mult
    groups = {}
    for x in range(n):
        groups.setdefault(class_of[x], []).append(x)
    for members in groups.values():
        for i, x in enumerate(members):
            for y in members[i + 1:]:
                for z in range(n):
                    if class_of[m[z][x]] != class_of[m[z][y]]:
                        return False
                    if class_of[m[x][z]] != class_of[m[y][z]]:
                        return False
    return True


def brute_min_congruence(S):
    """Minimum congruence containing P x P, by enumerating every partition
    with the projections merged and intersecting the congruences among them.

    Independent of the union-find closure: the answer is read off the full
    congruence lattice above P x P.
    """
    P = core.projections(S)
    nonprojs = [x for x in range(S.n) if x not in P]
    items = ["P"] + nonprojs
    valid = []
    for partition in set_partitions(items):
        class_of = [0] * S.n
        for idx, block in enumerate(partition):
            for member in block:
                if member == "P":
                    for e in P:
                        class_of[e] = idx
                else:
                    class_of[member] = idx
        if is_mult_congruence(S, class_of):
            valid.append(class_of)
    assert valid, "the universal congruence is always present"
    # intersection of all congruences above P x P
    related = [[all(c[a] == c[b] for c in valid) for b in range(S.n)]
               for a in range(S.n)]
    class_of = [-1] * S.n
    classes = []
    for a in range(S.n):
        if class_of[a] >= 0:
            continue
        idx = len(classes)
        block = [b for b in range(S.n) if related[a][b]]
        for b in block:
            class_of[b] = idx
        classes.append(tuple(block))
    return class_of, classes


def perturbed_table(S, rng):
    """S with one entry of plus, star or mult changed."""
    mult = [list(row) for row in S.mult]
    plus, star = S.plus[:], S.star[:]
    table = rng.choice((plus, star, mult, mult))
    row = rng.choice(table) if table is mult else table
    row[rng.randrange(S.n)] = rng.randrange(S.n)
    return core.OpTableSemigroup(S.n, mult, plus, star)


def reference_associativity_witness(table):
    """First (x, y, z) in lexicographic order with (x y) z != x (y z), by the
    plain triple loop over the table; None when the table is associative.
    The answer is kept for the last 256 tables by content."""
    return _associativity_witness(tuple(map(tuple, table)))


@functools.lru_cache(maxsize=256)
def _associativity_witness(table):
    rng = range(len(table))
    for x in rng:
        for y in rng:
            for z in rng:
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    return (x, y, z)
    return None


def _reference_pairwise(name, rng, rows):
    """Check an identity in x and y one x at a time: rows(x) gives both
    sides for every y as two lists.  The witness is the first (x, y) in
    lexicographic order where they differ."""
    def witnesses():
        for x in rng:
            lhs, rhs = rows(x)
            if lhs != rhs:
                yield x, next(y for y in rng if lhs[y] != rhs[y])
    return first_witness(name, witnesses())


def reference_verify_ehresmann(S):
    """Associativity by Light's test on the greedy generating set taken in
    index order, and the eight unary identities by pairwise scans, each in
    lexicographic order of its variables."""
    m, p, st = S.mult, S.plus, S.star
    rng = range(S.n)

    def each(name, holds):
        return first_witness(name, ((x,) for x in rng if not holds(x)))

    def commute(name, u):
        # u(x) u(y) = u(y) u(x): row u(x) against column u(x), both read at u
        cols = {e: [row[e] for row in m] for e in set(u)}
        return _reference_pairwise(name, rng, lambda x: (
            list(map(m[u[x]].__getitem__, u)), list(map(cols[u[x]].__getitem__, u))))

    gens = core.right_cayley_graph(rng, lambda y, g: m[y][g])[0]
    assoc = parent_associativity_witness(m, gens)
    return Report([
        Check("associativity", FAIL if assoc else PASS, assoc),
        each("x^+ x = x", lambda x: m[p[x]][x] == x),
        commute("x^+ y^+ = y^+ x^+", p),
        _reference_pairwise("(x y)^+ = (x y^+)^+", rng, lambda x: (
            list(map(p.__getitem__, m[x])),
            [p[m[x][q]] for q in p])),
        each("x x^* = x", lambda x: m[x][st[x]] == x),
        commute("x^* y^* = y^* x^*", st),
        _reference_pairwise("(x y)^* = (x^* y)^*", rng, lambda x: (
            list(map(st.__getitem__, m[x])),
            list(map(st.__getitem__, m[st[x]])))),
        each("(x^+)^* = x^+", lambda x: st[p[x]] == p[x]),
        each("(x^*)^+ = x^*", lambda x: p[st[x]] == st[x]),
    ])


def reference_verify_restriction(S, side="both"):
    """The ample identities for the requested side(s), pair by pair."""
    if side not in ("left", "right", "both"):
        raise ValueError(f"side must be left, right or both, not {side!r}")
    m, p, st = S.mult, S.plus, S.star
    rng = range(S.n)
    checks = []
    if side in ("left", "both"):
        checks.append(first_witness("x y^+ = (x y)^+ x", (
            (x, y) for x in rng for y in rng if m[x][p[y]] != m[p[m[x][y]]][x])))
    if side in ("right", "both"):
        checks.append(first_witness("x^* y = y (x y)^*", (
            (x, y) for x in rng for y in rng if m[st[x]][y] != m[y][st[m[x][y]]])))
    return Report(checks)


# ---------------------------------------------------------------------------
# the list-row parent of the byte-row kernel: Light's test, its greedy A and
# verify_ehresmann comparing rows by itemgetter at every table size, with
# copies of the row helpers they used, so that a rewrite of core's leaves
# them as they were; parent_verify_ehresmann calls the two functions above
# it where core reads them off the memoised _light


def _parent_rows_differ(table, y):
    """The test x -> (x y) z != x (y z) for some z, by whole rows: row x y
    of the table against row y read through row x.  Needs len(table) >= 2,
    since itemgetter returns a tuple only for two or more indices."""
    through = operator.itemgetter(*table[y])
    return lambda x: tuple(table[table[x][y]]) != through(table[x])


def _parent_gather(idx):
    """seq -> tuple(seq[i] for i in idx) in one C-level itemgetter call;
    itemgetter returns a bare item for a single index, so that is wrapped."""
    if len(idx) == 1:
        i, = idx
        return lambda seq: (seq[i],)
    return operator.itemgetter(*idx)


def _parent_commute(name, m, u):
    """u(x) u(y) = u(y) u(x).  Both sides depend on u(x) and u(y) only, so
    the table restricted to the image of u is compared with its transpose,
    and a witness is sought only at the first x whose value has a partner
    it does not commute with."""
    image = list(set(u))
    at = _parent_gather(image)
    rows = [at(m[e]) for e in image]
    cols = list(zip(*rows))
    if rows == cols:
        return Check(name, PASS)
    bad = {e for e, row, col in zip(image, rows, cols) if row != col}
    x = next(x for x, e in enumerate(u) if e in bad)
    e = u[x]
    return Check(name, FAIL, (x, next(y for y, f in enumerate(u) if m[e][f] != m[f][e])))


def parent_greedy_generators(table) -> list:
    """A generating set of the table by right products: the greedy one of
    right_cayley_graph over the elements in decreasing order of |xS|, the
    number of distinct entries of row x, ties in index order.  An element
    with a large row reaches many others by right products, so few are
    needed (B(3): 5 of 512 elements, PT(4): 5 of 625)."""
    rank = sorted(range(len(table)), key=lambda x: -len(set(table[x])))
    return core.right_cayley_graph(rank, lambda y, g: table[y][g])[0]


def parent_associativity_witness(table, gens=None):
    """First (x, y, z) in lexicographic order with (x y) z != x (y z), or
    None when the validated table is associative.

    Light's test (Clifford & Preston, The Algebraic Theory of Semigroups I,
    1.2) compares rows for y in a generating set A only: gens, or
    greedy_generators(table).  The y with (x y) z = x (y z) for all x, z
    are closed under the product even in a non-associative table, and A
    reaches every element by right products, so n^2 |A| lookups decide a
    pass.  On a failure every row is compared, so the witness is the first
    triple whichever A was used.
    """
    n = len(table)
    if n < 2:
        return None     # [] and [[0]]
    rng = range(n)
    if gens is None:
        gens = parent_greedy_generators(table)
    if not any(any(map(_parent_rows_differ(table, a), rng)) for a in gens):
        return None
    differs = [_parent_rows_differ(table, y) for y in rng]
    x, y = next((x, y) for x in rng for y in rng if differs[y](x))
    mx, my = table[x], table[y]
    return (x, y, next(z for z in rng if table[mx[y]][z] != mx[my[z]]))


def parent_verify_ehresmann(S) -> Report:
    """Check associativity and the eight defining unary identities.

    Each check is reported PASS or FAIL with a witness tuple on FAIL, the
    first in lexicographic order of its variables.  The identities in two
    variables are compared by whole rows at C level, one x at a time.
    """
    _gather = _parent_gather
    m, p, st = S.mult, S.plus, S.star
    rng = range(S.n)
    through_p = _gather(p)

    def plus_rows():
        # row x of (x y)^+ against the same row read at y^+
        for row in m:
            lhs = _gather(row)(p)
            yield lhs, through_p(lhs)

    def star_rows():
        # row x of (x y)^* against row x^* of it, one per value of x^*
        at = {}
        for row, e in zip(m, st):
            if e not in at:
                at[e] = _gather(m[e])(st)
            yield _gather(row)(st), at[e]

    assoc = parent_associativity_witness(m, parent_greedy_generators(m))
    return Report([
        Check("associativity", FAIL if assoc else PASS, assoc),
        core._each("x^+ x = x", map(operator.getitem, map(m.__getitem__, p), rng), rng),
        _parent_commute("x^+ y^+ = y^+ x^+", m, p),
        core._by_rows("(x y)^+ = (x y^+)^+", plus_rows()),
        core._each("x x^* = x", map(operator.getitem, m, st), rng),
        _parent_commute("x^* y^* = y^* x^*", m, st),
        core._by_rows("(x y)^* = (x^* y)^*", star_rows()),
        core._each("(x^+)^* = x^+", map(st.__getitem__, p), p),
        core._each("(x^*)^+ = x^*", map(p.__getitem__, st), st),
    ])


# ---------------------------------------------------------------------------
# the list-row parent of the byte-row loader: a semigroup document read by
# json.load and every table checked as lists of ints, whatever its size

def _parent_check_row(row, n, label):
    if not isinstance(row, list) or len(row) != n:
        raise core.MalformedTableError(f"{label} must be a list of length {n}")
    for j, v in enumerate(row):
        # bool is an int subclass; JSON true must not pass as 1
        if type(v) is not int or not 0 <= v < n:
            raise core.MalformedTableError(f"{label}[{j}] = {v!r} out of range")


def parent_validate_table(table, n, label="mult"):
    """Raise MalformedTableError unless table is a list of n list rows of
    ints in range(n)."""
    if not isinstance(table, list) or len(table) != n:
        raise core.MalformedTableError(f"{label} table must be a list of {n} rows")
    ids = frozenset(range(n))
    for i, row in enumerate(table):
        if not (isinstance(row, list) and len(row) == n
                and {int}.issuperset(map(type, row)) and ids.issuperset(row)):
            _parent_check_row(row, n, f"{label}[{i}]")


def _parent_load_semigroup(doc):
    elements = io._need_strings(doc, "elements", "semigroup")
    mult = io._need(doc, "mult", "semigroup")
    plus = io._need(doc, "plus", "semigroup")
    star = io._need(doc, "star", "semigroup")
    n = len(elements)
    if n <= 0:
        raise core.MalformedTableError("need at least one element")
    parent_validate_table(mult, n)
    _parent_check_row(plus, n, "plus")
    _parent_check_row(star, n, "star")
    return core.OpTableSemigroup(n, mult, plus, star, list(elements))


def parent_load_path(path):
    """(kind, object) of the document in the file at path by the parent's
    route, semigroup tables checked by parent_validate_table; SchemaError
    with the parent's message if it is unreadable or malformed."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise io.SchemaError(f"cannot read {path}: {exc}") from exc
    kind = io._need(doc, "kind", "document")
    if kind != "semigroup":
        return io.load_document(doc)
    version = io._need(doc, "version", kind)
    if type(version) is not int or version != io.VERSION:
        raise io.SchemaError(f"unsupported version {version!r}; expected {io.VERSION}")
    try:
        return kind, _parent_load_semigroup(doc)
    except io.SchemaError:
        raise
    except ValueError as exc:
        raise io.SchemaError(str(exc)) from exc


def reference_generating_closure(S, gens):
    """Closure of gens under the three operations, remembering one flat word
    of generators and projections for every element reached: every round
    multiplies every pair of the elements reached so far."""
    decomp = {g: (("g", g),) for g in gens}
    changed = True
    while changed:
        changed = False
        for a in list(decomp):
            for v in (S.plus[a], S.star[a]):
                if v not in decomp:
                    decomp[v] = (("p", v),)
                    changed = True
        current = list(decomp)
        for a in current:
            for b in current:
                ab = S.mult[a][b]
                if ab not in decomp:
                    decomp[ab] = decomp[a] + decomp[b]
                    changed = True
    return decomp


def reference_natural_orders(S):
    """The natural orders as tables, trying every projection f in
    a = a^+ b f for each pair, whatever axioms the table satisfies."""
    m, p, st = S.mult, S.plus, S.star
    P = core.projections(S)
    rng = range(S.n)
    le_l = [[m[p[a]][b] == a for b in rng] for a in rng]
    le_r = [[m[b][st[a]] == a for b in rng] for a in rng]
    le = [[any(m[m[p[a]][b]][f] == a for f in P) for b in rng] for a in rng]
    return core.OrderRelations(le_l, le_r, le)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def reference_sigma(S):
    """sigma by union-find over the projection pairs, each merged pair
    translated on both sides by every element, whatever axioms the table
    satisfies; the quotient is built from the least member of each class."""
    P = core.projections(S)
    m = S.mult
    uf = _UnionFind(S.n)
    work = deque((P[0], e) for e in P[1:])
    while work:
        a, b = work.popleft()
        if not uf.union(a, b):
            continue
        for z in range(S.n):
            za, zb = m[z][a], m[z][b]
            if uf.find(za) != uf.find(zb):
                work.append((za, zb))
            az, bz = m[a][z], m[b][z]
            if uf.find(az) != uf.find(bz):
                work.append((az, bz))
    reps, classes, class_of = {}, [], [0] * S.n
    for x in range(S.n):
        r = uf.find(x)
        if r not in reps:
            reps[r] = len(classes)
            classes.append([])
        class_of[x] = reps[r]
        classes[reps[r]].append(x)
    co = class_of
    assert all(co[S.plus[x]] == co[S.star[x]] == co[P[0]] for x in range(S.n))
    reps = [cls[0] for cls in classes]
    k = len(reps)
    qmult = [[co[m[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    qplus = [co[S.plus[reps[i]]] for i in range(k)]
    qstar = [co[S.star[reps[i]]] for i in range(k)]
    qnames = ["[" + S.name(reps[i]) + "]" for i in range(k)]
    quotient = core.OpTableSemigroup(k, qmult, qplus, qstar, qnames)
    return core.Congruence(S.n, class_of, [tuple(c) for c in classes]), quotient


def compose_pairs(pairs_a, pairs_b):
    """Set-level relation composition, the definitional oracle."""
    return {(x, z) for (x, y) in pairs_a for (y2, z) in pairs_b if y == y2}


def reference_equivalent_factorizations(S, Yset, start, goal, max_len,
                                        expansions, budget):
    """One BFS per pair of factorizations over contract/expand moves, keeping
    at most budget nodes: True when goal is reached, False when the search
    saturates without it, None when the budget pruned a node."""
    if start == goal:
        return True
    seen = {start}
    frontier = deque([start])
    pruned = False
    while frontier:
        fact = frontier.popleft()
        neighbours = []
        k = len(fact)
        for i in range(k):
            for j in range(i + 1, k):
                prod = S.prod(fact[i:j + 1])
                if prod in Yset:
                    neighbours.append(fact[:i] + (prod,) + fact[j + 1:])
        for i in range(k):
            for block in expansions.get(fact[i], ()):
                if k - 1 + len(block) <= max_len:
                    neighbours.append(fact[:i] + block + fact[i + 1:])
        for nb in neighbours:
            if nb == goal:
                return True
            if nb not in seen:
                if len(seen) >= budget:
                    pruned = True
                    continue
                seen.add(nb)
                frontier.append(nb)
    return None if pruned else False


def reference_matching_factorizations(S, Y, target, max_len, cap):
    """Matching Y-sequences with product target of length at most max_len,
    by one depth-first walk for this target that stops at the first cap + 1;
    returns (sequences, truncated)."""
    Y = sorted(Y)
    found = []
    stack = [((y,), y) for y in Y]
    while stack:
        seq, prod = stack.pop()
        if prod == target:
            found.append(seq)
            if len(found) > cap:
                return found, True
        if len(seq) < max_len:
            for y in Y:
                if S.plus[y] == S.star[seq[-1]]:
                    stack.append((seq + (y,), S.mult[prod][y]))
    return found, False


def reference_matching_lengths(S, Y):
    """Element -> least length of a matching Y-sequence with that product,
    by listing every matching sequence of length 1, 2, ... (each factor's
    star the next factor's plus) until a length adds no new product."""
    Y = sorted(Y)
    minlen, length = {}, 1
    sequences = [((y,), y) for y in Y]
    while True:
        new = {prod for _, prod in sequences if prod not in minlen}
        if not new:
            return minlen
        minlen.update(dict.fromkeys(new, length))
        length += 1
        sequences = [(seq + (y,), S.mult[prod][y]) for seq, prod in sequences
                     for y in Y if S.plus[y] == S.star[seq[-1]]]


def reference_matchify(S, seq):
    """matchify by recursion on the prefix: match it, split off t^* s_n on
    the right, where t is the prefix's product, and corestrict the matched
    prefix factor by factor from the right down to t^* (s_n)^+."""
    seq = list(seq)
    if not seq:
        raise ValueError("empty sequence")
    if len(seq) == 1:
        return seq
    head = reference_matchify(S, seq[:-1])
    t, sn = S.prod(seq[:-1]), seq[-1]
    head[-1] = S.mult[head[-1]][S.mult[S.star[t]][S.plus[sn]]]
    for i in range(len(head) - 2, -1, -1):
        head[i] = S.mult[head[i]][S.plus[head[i + 1]]]
    return head + [S.mult[S.star[t]][sn]]


def reference_matching_walk(S, Y, max_len):
    """Every matching Y-sequence of length at most max_len, grouped by
    product, each group in depth-first order."""
    Y = sorted(Y)
    found = {}
    stack = [((y,), y) for y in Y]
    while stack:
        seq, prod = stack.pop()
        found.setdefault(prod, []).append(seq)
        if len(seq) < max_len:
            for y in Y:
                if S.plus[y] == S.star[seq[-1]]:
                    stack.append((seq + (y,), S.mult[prod][y]))
    return found


def reference_contraction_components(S, Y, max_len):
    """Every matching Y-sequence of length at most max_len, mapped to the
    first sequence of its component, in reference_matching_walk order.  Two
    sequences are adjacent when one replaces a block of two or more
    consecutive factors of the other by their product, which lies in Y;
    each component is walked depth first over adjacency taken both ways."""
    Yset = set(Y)
    seqs = [seq for group in reference_matching_walk(S, Y, max_len).values()
            for seq in group]
    adjacent = {seq: [] for seq in seqs}
    for seq in seqs:
        for i in range(len(seq)):
            prod = seq[i]
            for j in range(i + 1, len(seq)):
                prod = S.mult[prod][seq[j]]
                if prod in Yset:
                    shorter = seq[:i] + (prod,) + seq[j + 1:]
                    adjacent[seq].append(shorter)
                    adjacent.setdefault(shorter, []).append(seq)
    first = {}
    for seq in seqs:
        if seq in first:
            continue
        first[seq] = seq
        stack = [seq]
        while stack:
            for nb in adjacent[stack.pop()]:
                if nb not in first:
                    first[nb] = seq
                    stack.append(nb)
    return first


def _reference_first_unreached(S, Yset, facts, max_len, expansions, budget):
    """The first of facts[1:] not met by one BFS from facts[0] over
    contract/expand moves that keeps at most budget nodes."""
    remaining = set(facts[1:])
    remaining.discard(facts[0])
    seen = {facts[0]}
    frontier = deque([facts[0]])
    while remaining and frontier:
        fact = frontier.popleft()
        k = len(fact)
        neighbours = []
        for i in range(k):
            for j in range(i + 1, k):
                prod = S.prod(fact[i:j + 1])
                if prod in Yset:
                    neighbours.append(fact[:i] + (prod,) + fact[j + 1:])
        for i in range(k):
            for block in expansions.get(fact[i], ()):
                if k - 1 + len(block) <= max_len:
                    neighbours.append(fact[:i] + block + fact[i + 1:])
        for nb in neighbours:
            remaining.discard(nb)
            if nb not in seen and len(seen) < budget:
                seen.add(nb)
                frontier.append(nb)
    return next((g for g in facts[1:] if g in remaining), None)


def reference_check_proper_ideal(S, Y, max_len, budget=20000):
    """check_proper_ideal before condition (5) was settled by components:
    one walk per member of Y for its blocks, one walk per element for its
    factorizations, and a search for every element with two or more."""
    Yset = core.ideal_members(S, Y)
    checks = core.ideal_checks(S, Yset)
    minlen = core._matching_products(S, Yset)
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

    expansions, trunc = {}, False
    for y in sorted(Yset):
        seqs, t = reference_matching_factorizations(S, Yset, y, max_len + 1, budget)
        expansions[y] = [s for s in seqs if len(s) >= 2]
        trunc = trunc or t
    status, witness = PASS, None
    for s in range(S.n):
        facts, t = reference_matching_factorizations(S, Yset, s, max_len, budget)
        trunc = trunc or t
        if len(facts) < 2:
            continue
        other = _reference_first_unreached(S, Yset, facts, max_len + 2,
                                           expansions, budget)
        if other is not None:
            status, witness = INCONCLUSIVE, (s, facts[0], other)
            break
    if status == PASS and trunc:
        status, witness = INCONCLUSIVE, ("enumeration truncated",)
    checks.append(Check("factorizations_equivalent", status, witness))
    return Report(checks)


def _reference_contractions(G, p):
    out = []
    for i in range(1, len(p)):
        for j in range(i + 1, len(p) + 1):
            q = resgraph.contract_step(G, p, i, j)
            if q is not None:
                out.append(q)
    return out


def _reference_expansions_of_edge(G, c, max_block):
    """Composable edge chains of length 2..max_block with the same
    endpoints and label product as c."""
    target = c[1]
    out = []
    stack = [((e,), e[1]) for e in G.edges_from(c[0])]
    while stack:
        chain, lab = stack.pop()
        if len(chain) >= 2 and chain[-1][2] == c[2] and lab == target:
            out.append(chain)
        if len(chain) >= max_block:
            continue
        if G.mon.is_free and not (len(lab) <= len(target)
                                  and tuple(target[:len(lab)]) == tuple(lab)):
            continue
        for e in G.edges_from(chain[-1][2]):
            stack.append((chain + (e,), G.mon.mul(lab, e[1])))
    return out


def reference_equivalent_paths(G, p, q, max_nodes=20000, max_len=None):
    """equivalent_paths with the neighbours of each node rebuilt from
    contract_step and a fresh enumeration of the expansions of each edge."""
    p, q = resgraph.make_path(G, p), resgraph.make_path(G, q)
    label = resgraph.path_label
    if resgraph.path_d(p) != resgraph.path_d(q) or resgraph.path_r(p) != resgraph.path_r(q):
        return Check("equivalent_paths", FAIL, ("endpoints differ",))
    if label(G, p) != label(G, q):
        return Check("equivalent_paths", FAIL, ("labels differ",))
    if p == q:
        return Check("equivalent_paths", PASS, ("equal paths",))
    if resgraph.check_pm(G) is None:
        return Check("equivalent_paths", PASS, ("partial multiaction normal form",))
    if resgraph.cover_shape_problem(G) is None:
        status = PASS if [c for c in p if c[1]] == [c for c in q if c[1]] else FAIL
        return Check("equivalent_paths", status, ("cover normal form",))
    if max_len is None:
        max_len = max(len(p), len(q)) + 2

    def neighbours(path):
        out = _reference_contractions(G, path)
        for i, c in enumerate(path):
            cap = max_len - len(path) + 1
            if cap >= 2:
                for block in _reference_expansions_of_edge(G, c, cap):
                    out.append(path[:i] + block + path[i + 1:])
        return out

    seen = {p: 0, q: 1}
    frontier = deque([p, q])
    while frontier:
        if len(seen) > max_nodes:
            return Check("equivalent_paths", INCONCLUSIVE, ("node budget exhausted",))
        cur = frontier.popleft()
        side = seen[cur]
        for nb in neighbours(cur):
            if nb in seen:
                if seen[nb] != side:
                    return Check("equivalent_paths", PASS, ("search met",))
                continue
            seen[nb] = side
            frontier.append(nb)
    return Check("equivalent_paths", INCONCLUSIVE, ("search saturated within length cap",))


def reference_generate(n, generators, cap=None):
    """The round-by-round closure: each round adds dom and ran of the new
    relations, then every product of a new relation with a known one, in
    both orders; elements are numbered in the order they are first met."""
    cap = relmonoid.closure_cap(cap)
    gens = sorted(set(generators), key=lambda r: r.bits)
    for g in gens:
        if g.n != n:
            raise ValueError("generator ground size mismatch")
    elements = []
    index = {}

    def add(r):
        if r not in index:
            if len(elements) >= cap:
                raise relmonoid.ClosureOverflowError(
                    f"closure exceeded cap of {cap} elements")
            index[r] = len(elements)
            elements.append(r)
            return True
        return False

    for g in gens:
        add(g)
    frontier = list(elements)
    while frontier:
        new = []
        for a in frontier:
            d, r = relmonoid.dom_ran(a)
            for x in (d, r):
                if add(x):
                    new.append(x)
        snapshot = list(elements)
        for a in frontier:
            for b in snapshot:
                for c in (relmonoid.compose(a, b), relmonoid.compose(b, a)):
                    if add(c):
                        new.append(c)
        frontier = new
    return relmonoid.RelationAlgebra(n, elements)


def reference_table(alg):
    """The relation algebra as a semigroup, from all n^2 compositions."""
    mult = [[alg.index[relmonoid.compose(a, b)] for b in alg.elements]
            for a in alg.elements]
    plus = [alg.index[relmonoid.dom(a)] for a in alg.elements]
    star = [alg.index[relmonoid.ran(a)] for a in alg.elements]
    names = [repr(a) for a in alg.elements]
    return core.OpTableSemigroup(len(alg.elements), mult, plus, star, names)


def parent_round_order(seeds, mult, plus, star):
    """The round-by-round order, every round replayed to the end: no early
    return once every element has been met."""
    seen = bytearray(len(mult))
    order = []

    def meet(items):
        for c in dict.fromkeys(items):
            if not seen[c]:
                seen[c] = 1
                order.append(c)

    meet(seeds)
    start = 0
    while start < len(order) < len(mult):
        frontier = order[start:]
        start = len(order)
        meet(x for a in frontier for x in (plus[a], star[a]))
        snapshot = list(order)
        for a in frontier:
            meet(itertools.chain.from_iterable(zip(
                map(mult[a].__getitem__, snapshot), [mult[b][a] for b in snapshot])))
    return order


def parent_table(n, bits, register, candidates=None):
    """relmonoid._table with list rows at every size: the generators' rows
    follow the right Cayley graph, and every other row y = p a_j is row
    a_j read through row p, entry by entry."""
    times = {}

    def every_id():
        i = 0
        while i < len(bits):
            yield i
            i += 1

    def multiply(y, g):
        if g not in times:
            times[g] = relmonoid._right_multiplier(n, bits[g])
        return register(times[g](bits[y]))

    gens, order, word, right = core.right_cayley_graph(
        every_id() if candidates is None else candidates, multiply)
    words = [(z, *word[z]) for z in order]
    rows = [None] * len(bits)
    for g in gens:
        row = rows[g] = [None] * len(bits)
        for z, p, j in words:
            row[z] = right[g if p is None else row[p]][j]
    for z, p, j in words:
        if p is not None:
            rows[z] = list(map(rows[p].__getitem__, rows[gens[j]]))
    return rows


def parent_renumbered(order, mult, plus, star):
    """relmonoid._renumbered on list rows: each row read through the order,
    then mapped by rank, entry by entry."""
    if len(order) < 2:
        return mult, plus, star
    rank = [0] * len(order)
    for i, x in enumerate(order):
        rank[x] = i
    get, to_rank = operator.itemgetter(*order), rank.__getitem__
    return ([list(map(to_rank, get(mult[x]))) for x in order],
            list(map(to_rank, get(plus))), list(map(to_rank, get(star))))


def parent_to_semigroup(alg):
    """to_semigroup as a fresh table build that ignores the memo slot:
    parent_table over candidates in index order, then the dom and ran
    lookups."""
    n, bits = alg.n, [a.bits for a in alg.elements]
    index_of = {b: i for i, b in enumerate(bits)}

    def element(b):
        if b not in index_of:
            raise ValueError(f"{relmonoid.Rel(n, b)!r} is a product or projection "
                             "of the elements but not one of them")
        return index_of[b]

    mult = parent_table(n, bits, element)
    pairs = [[element(x) for x in relmonoid._dom_ran_bits(n, b)] for b in bits]
    names = [repr(a) for a in alg.elements]
    return core.OpTableSemigroup(len(bits), mult, [d for d, _ in pairs],
                                 [r for _, r in pairs], names)


def parent_generate(n, generators, cap=None):
    """generate on list rows: the Froidure-Pin closure of parent_table,
    numbered by parent_round_order, its tables renumbered to match by
    parent_renumbered and kept in the memo slot."""
    cap = relmonoid.closure_cap(cap)
    gens = sorted(set(generators), key=lambda r: r.bits)
    for g in gens:
        if g.n != n:
            raise ValueError("generator ground size mismatch")
    bits, index_of = [], {}

    def register(b):
        if b not in index_of:
            if len(bits) >= cap:
                raise relmonoid.ClosureOverflowError(
                    f"closure exceeded cap of {cap} elements")
            index_of[b] = len(bits)
            bits.append(b)
            for x in relmonoid._dom_ran_bits(n, b):
                register(x)
        return index_of[b]

    seeds = [register(g.bits) for g in gens]
    mult = parent_table(n, bits, register)
    pairs = [[index_of[x] for x in relmonoid._dom_ran_bits(n, b)] for b in bits]
    plus, star = [d for d, _ in pairs], [r for _, r in pairs]
    order = parent_round_order(seeds, mult, plus, star)
    alg = relmonoid.RelationAlgebra(n, [relmonoid.Rel(n, bits[i]) for i in order])
    alg._tables = parent_renumbered(order, mult, plus, star)
    return alg


class ReferenceResGraph:
    """The per-call restriction structure that the integer tables of
    resgraph.ResGraph replace: restrict and corestrict are dicts keyed by
    (edge, vertex) or callables (edge, vertex) -> edge, and every call checks
    edge membership, the order and the value it finds."""

    def __init__(self, sl, mon, edges, restrict=None, corestrict=None):
        self.sl = sl
        self.mon = mon
        self.edges = frozenset(edges)
        self._edge_list = sorted(self.edges)
        self.edge_id = {c: i for i, c in enumerate(self._edge_list)}
        self._restrict = restrict
        self._corestrict = corestrict
        self._out = {}
        for c in self._edge_list:
            self._out.setdefault(c[0], []).append(c)

    @property
    def has_restrictions(self):
        return self._restrict is not None and self._corestrict is not None

    def sorted_edges(self):
        return list(self._edge_list)

    def edges_from(self, v):
        return self._out.get(v, [])

    def edge_str(self, c):
        d, lab, r = c
        return f"({self.sl.name(d)},{self.mon.label_str(lab)},{self.sl.name(r)})"

    def _apply(self, table, c, v, kind):
        if table is None:
            raise resgraph.RestrictionUndefinedError(f"graph has no {kind} structure")
        if callable(table):
            out = table(c, v)
        else:
            out = table.get((c, v))
        if out is None:
            raise resgraph.RestrictionUndefinedError(
                f"{kind} of {self.edge_str(c)} to {self.sl.name(v)} is undefined")
        if out not in self.edges:
            raise resgraph.RestrictionUndefinedError(
                f"{kind} of {self.edge_str(c)} to {self.sl.name(v)} "
                f"gives {out!r}, which is not an edge")
        return out

    def restrict(self, c, g):
        if c not in self.edges:
            raise ValueError(f"{c!r} is not an edge")
        if not self.sl.leq(g, c[0]):
            raise resgraph.RestrictionUndefinedError(
                f"restriction of {self.edge_str(c)} to non-lower vertex {g}")
        return self._apply(self._restrict, c, g, "restriction")

    def corestrict(self, c, h):
        if c not in self.edges:
            raise ValueError(f"{c!r} is not an edge")
        if not self.sl.leq(h, c[2]):
            raise resgraph.RestrictionUndefinedError(
                f"corestriction of {self.edge_str(c)} to non-lower vertex {h}")
        return self._apply(self._corestrict, c, h, "corestriction")

    def _table(self, apply, end):
        # -1 wherever a call raises, as the old try_restrict returned None
        index = self.edge_id
        table = []
        for c in self._edge_list:
            row = [-1] * self.sl.n
            for v in self.sl.below(c[end]):
                try:
                    row[v] = index[apply(c, v)]
                except resgraph.RestrictionUndefinedError:
                    pass
            table.append(row)
        return table

    @property
    def restrict_table(self):
        return self._table(self.restrict, 0)

    @property
    def corestrict_table(self):
        return self._table(self.corestrict, 2)


def reference_totality_checks(G):
    """restriction_total and corestriction_total by calling G.restrict and
    G.corestrict on every edge and lower vertex, None where a call raises."""

    def attempt(f, c, v):
        try:
            return f(c, v)
        except resgraph.RestrictionUndefinedError:
            return None

    sl = G.sl
    return [first_witness("restriction_total", (
                (c, g) for c in G.sorted_edges() for g in sl.below(c[0])
                if attempt(G.restrict, c, g) is None)),
            first_witness("corestriction_total", (
                (c, h) for c in G.sorted_edges() for h in sl.below(c[2])
                if attempt(G.corestrict, c, h) is None))]


def reference_cover_graph(S, gens):
    """The cover graph of S over gens with restriction and corestriction as
    callables, computed in S from the valuation on every call; every value
    is checked edge by edge, restrictions first, and the first one that is
    not an edge raises."""
    sl, proj_list, proj_index = product.projection_semilattice(S)
    valuation = {f"x{g}": g for g in sorted(set(gens))}
    edges = {(i, (), i) for i in range(sl.n)}
    for letter, g in valuation.items():
        for i, e in enumerate(proj_list):
            for j, f in enumerate(proj_list):
                w = S.mult[S.mult[e][g]][f]
                if S.plus[w] == e and S.star[w] == f:
                    edges.add((i, (letter,), j))

    def restrict_rule(c, gv):
        d0, lab, r0 = c
        if not lab:
            return (gv, (), gv)
        abar = valuation[lab[0]]
        new_r = S.mult[S.star[S.mult[proj_list[gv]][abar]]][proj_list[r0]]
        return (gv, lab, proj_index[new_r])

    def corestrict_rule(c, hv):
        d0, lab, r0 = c
        if not lab:
            return (hv, (), hv)
        abar = valuation[lab[0]]
        new_d = S.mult[proj_list[d0]][S.plus[S.mult[abar][proj_list[hv]]]]
        return (proj_index[new_d], lab, hv)

    graph = ReferenceResGraph(sl, resgraph.FreeMonoid(tuple(valuation)), edges,
                              restrict_rule, corestrict_rule)
    for c in graph.sorted_edges():
        for g in sl.below(c[0]):
            graph.restrict(c, g)
        for h in sl.below(c[2]):
            graph.corestrict(c, h)
    return graph


def reference_edge_tables(graph):
    """Restriction and corestriction of every edge as rows of edge ids,
    edge -> ([id of its restriction to g], [id of its corestriction to h])
    with -1 off the down-sets, read off graph.restrict and graph.corestrict;
    ids number graph.sorted_edges()."""
    edges = graph.sorted_edges()
    n = graph.sl.n
    out = {}
    for c in edges:
        rrow, crow = [-1] * n, [-1] * n
        for g in graph.sl.below(c[0]):
            rrow[g] = edges.index(graph.restrict(c, g))
        for h in graph.sl.below(c[2]):
            crow[h] = edges.index(graph.corestrict(c, h))
        out[c] = (rrow, crow)
    return out


def random_generating_set(S, rng):
    """The elements of S in random order, each kept when the ones kept
    before it do not generate it."""
    gens, reached = [], {}
    for x in rng.sample(range(S.n), S.n):
        if x not in reached:
            gens.append(x)
            reached = cover._generating_closure(S, gens)
    return gens


def reference_enumerate_canonical(cg, max_len):
    """The canonical forms up to max_len as paths of letter edges, each path
    extended by the letter edges out of its end, with the loops dropped."""
    out = [cover.CanonicalPath.loop_at(e) for e in range(cg.sl.n)]
    letter_edges = [c for c in cg.graph.sorted_edges() if c[1]]
    frontier = [(c,) for c in letter_edges]
    for _ in range(max_len):
        for p in frontier:
            entries = [p[0][0]]
            for c in p:
                entries += [c[1][0], c[2]]
            out.append(cover.CanonicalPath(tuple(entries)))
        frontier = [p + (c,) for p in frontier for c in letter_edges if c[0] == p[-1][2]]
    return out


def reference_unfactored_forms(cg, forms):
    """The cover's forms_factor_through_edges witnesses: every form, in
    order, that is not the product of its edges multiplied out left to
    right."""
    def product_of_edges(u):
        ent = u.entries
        acc = cover.CanonicalPath(ent[:3])
        for i in range(2, len(ent) - 2, 2):
            acc = cover.cover_mult(cg, acc, cover.CanonicalPath(ent[i:i + 3]))
        return acc

    return ((str(u),) for u in forms if not u.is_loop and product_of_edges(u) != u)


def reference_canonicalize(cg, path):
    """The canonical form of a cover-graph path: its identity loops
    deleted."""
    letters = [c for c in path if c[1]]
    if not letters:
        return cover.CanonicalPath.loop_at(path[0][0])
    entries = [letters[0][0]]
    for c in letters:
        entries.append(c[1][0])
        entries.append(c[2])
    return cover.CanonicalPath(tuple(entries))


def to_path(cg, u):
    """The cover-graph path of a canonical form: its letter edges, or the
    identity loop of a loop form."""
    if u.is_loop:
        return ((u.d, (), u.d),)
    ent = u.entries
    return tuple((ent[i], (ent[i + 1],), ent[i + 2])
                 for i in range(0, len(ent) - 1, 2))


def reference_canonical_preimage(cg, s):
    """A canonical path mapping to s under phi, built in S: the stored word
    for s is padded with projections so that every generator occurrence
    sits between explicit projections, the resulting bricks are made
    matching, and the brick endpoints become the path vertices."""
    S = cg.S
    if s in cg.proj_index:
        return cover.CanonicalPath.loop_at(cg.proj_index[s])
    word = cg.decomp[s]
    letter_of = {g: a for a, g in cg.valuation.items()}

    gens_seq = []
    projs = [None]          # projs[i] sits between generator i and i+1
    for tag, v in word:
        if tag == "p":
            projs[-1] = v if projs[-1] is None else S.mult[projs[-1]][v]
        else:
            gens_seq.append(v)
            projs.append(None)
    if not gens_seq:
        raise core.InvariantError(
            f"stored word for {s} has no generator, but {s} is not a projection")

    m = len(gens_seq)
    fences = []
    for i in range(m + 1):
        parts = []
        if i > 0:
            parts.append(S.star[gens_seq[i - 1]])
        if projs[i] is not None:
            parts.append(projs[i])
        if i < m:
            parts.append(S.plus[gens_seq[i]])
        fences.append(S.prod(parts))
    bricks = [S.prod([fences[i], gens_seq[i], fences[i + 1]]) for i in range(m)]
    if S.prod(bricks) != s:
        raise core.InvariantError(
            f"bricks {bricks} of the stored word multiply to {S.prod(bricks)}, not {s}")

    matched = core.matchify(S, bricks)
    if S.prod(matched) != s:
        raise core.InvariantError(
            f"matching factors {matched} multiply to {S.prod(matched)}, not {s}")

    entries = [cg.proj_index[S.plus[matched[0]]]]
    for i, b in enumerate(matched):
        e_prev = cg.proj_list[entries[-1]]
        e_next = S.star[b]
        if S.prod([e_prev, gens_seq[i], e_next]) != b:
            raise core.InvariantError(
                f"factor {b} of {s} is not {e_prev} {gens_seq[i]} {e_next}")
        entries.append(letter_of[gens_seq[i]])
        entries.append(cg.proj_index[e_next])
    u = cover.CanonicalPath(tuple(entries))
    for c in to_path(cg, u):
        if c not in cg.graph.edges:
            raise core.InvariantError(f"preimage {u} of {s} uses {c}, which is not an edge")
    return u


def reference_mult_witnesses(cg, forms, phis):
    """The cover's phi_preserves_multiplication check pair by pair: every
    (u, v) over the forms in enumeration order, u first, with
    phi(u v) != phi(u) phi(v); phis[i] is phi of forms[i]."""
    mult = cg.S.mult
    return ((str(u), str(v)) for u, fu in zip(forms, phis) for v, fv in zip(forms, phis)
            if cover.phi(cg, cover.cover_mult(cg, u, v)) != mult[fu][fv])


def reference_signatures(cg, forms, phis):
    """The cover's multiplication signatures from one cover product per
    form and projection: (left, right), with (phi u, u.r, C[u]) and
    (phi v, v.d, R[v]) mapped to their first index in forms, where
    C[u][m] = phi(u loop(m)) and R[v][m] = phi(loop(m) v) for m below u.r
    (v.d) and -1 elsewhere; None when S is not associative or one of those
    products is undefined."""
    if reference_associativity_witness(cg.S.mult) is not None:
        return None
    loops = [cover.CanonicalPath.loop_at(m) for m in range(cg.sl.n)]

    def first_of_signature(end, times_loop):
        first = {}
        for i, (u, fu) in enumerate(zip(forms, phis)):
            row = [-1] * cg.sl.n
            for m in cg.sl.below(u.entries[end]):
                row[m] = cover.phi(cg, times_loop(u, loops[m]))
            first.setdefault((fu, u.entries[end], tuple(row)), i)
        return first

    try:
        return (first_of_signature(-1, lambda u, loop: cover.cover_mult(cg, u, loop)),
                first_of_signature(0, lambda v, loop: cover.cover_mult(cg, loop, v)))
    except resgraph.RestrictionUndefinedError:
        return None


def reference_verify_cover(S, gens, len_bound=3):
    """The cover verification product by product: phi of every form from
    its entries, u^+ and u^* through cover_plus_star, the multiplication
    check from reference_signatures (every pair when that is None), and
    one cover product per form in the factor check."""
    cg = cover.build_cover_graph(S, gens)
    checks = []
    graph_report = resgraph.check_axioms(cg.graph, max_chain=2)
    checks.append(Check("cover_graph_axioms", graph_report.status,
                        tuple(c.name for c in graph_report.failures()) or None))
    forms = cover.enumerate_canonical(cg, len_bound)
    phis = [cover.phi(cg, u) for u in forms]

    def unary_preserved(u, fu):
        up, us = cover.cover_plus_star(cg, u)
        return cover.phi(cg, up) == S.plus[fu] and cover.phi(cg, us) == S.star[fu]

    checks.append(first_witness("phi_preserves_unary_operations", (
        (str(u),) for u, fu in zip(forms, phis) if not unary_preserved(u, fu))))
    signatures = reference_signatures(cg, forms, phis)
    if signatures is None:
        witnesses = reference_mult_witnesses(cg, forms, phis)
    else:
        left, right = signatures
        meet, mult = cg.sl.meet, S.mult
        witnesses = ((str(forms[i]), str(forms[j]))
                     for (fu, r, C), i in left.items() for (fv, d, R), j in right.items()
                     if mult[C[meet[r][d]]][R[meet[r][d]]] != mult[fu][fv])
    checks.append(first_witness("phi_preserves_multiplication", witnesses))
    checks.append(first_witness("phi_projection_separating", (
        (e,) for e in range(cg.sl.n)
        if cover.phi(cg, cover.CanonicalPath.loop_at(e)) != cg.proj_list[e]
        or cg.proj_list[e] in cg.proj_list[:e])))
    for s in range(S.n):
        cover.canonical_preimage(cg, s)
    checks.append(Check("phi_surjective_via_preimages", PASS))

    def below_letter_maximum(c):
        top = cover.max_edge_for_letter(cg, c[1][0])
        return top in cg.graph.edges and product.edge_le(cg.graph, c, top)

    checks.append(first_witness("edges_below_letter_maximum", (
        (c,) for c in cg.graph.sorted_edges() if c[1] and not below_letter_maximum(c))))
    ok = product.check_properness_criterion(cg.graph)
    checks.append(Check("properness_criterion", PASS if ok else FAIL))
    checks.append(first_witness("forms_factor_through_edges", (
        (str(u),) for u in forms if len(u.entries) > 3
        and cover.cover_mult(cg, cover.CanonicalPath(u.entries[:-2]),
                             cover.CanonicalPath(u.entries[-3:])) != u)))
    return Report(checks)


# ---------------------------------------------------------------------------
# the bounded parent of cover.verify_cover: every canonical form up to the
# length bound listed, phi, the signature rows and the factor check of each
# form one table step from a form one letter shorter


def _parent_form_index(forms):
    """Index of every form by its entries, so that a form's prefix
    (entries[:-2]) and suffix (entries[2:]) are found in one lookup: both
    are forms one letter shorter, listed before it."""
    return {u.entries: i for i, u in enumerate(forms)}


def _parent_phis(cg, forms, index):
    """phi of every form, each from its prefix: phi is a left fold, so
    phi(u) = phi(prefix) val[a] proj[e] for u = prefix (a, e), exactly, on
    any table."""
    m, proj, val = cg.S.mult, cg.proj_list, cg.valuation
    out = []
    for u in forms:
        ent = u.entries
        out.append(proj[ent[0]] if len(ent) == 1
                   else m[m[out[index[ent[:-2]]]][val[ent[-2]]]][proj[ent[-1]]])
    return out


def _parent_signature_rows(cg, forms, index, end):
    """The rows C[u] (end -1) or R[u] (end 0) of every form, as tuples with
    -1 off the down-set of u's range (domain), each one table step from the
    row of a form one letter shorter.  A step is undefined when its table
    entry is -1 or the vertex it moves to has -1 in the shorter row; that
    entry is then phi of the cover product itself, which raises
    RestrictionUndefinedError exactly where the product does."""
    mult, proj, val = cg.S.mult, cg.proj_list, cg.valuation
    below, ids, edges = cg.sl.below, cg.graph.edge_id, cg.edges
    loops = [cover.CanonicalPath.loop_at(m) for m in range(cg.sl.n)]
    table, near = (cg.graph.corestrict_table, 0) if end else (cg.graph.restrict_table, 2)
    rows = []
    for u in forms:
        ent = u.entries
        row = [-1] * cg.sl.n
        if len(ent) == 1:
            for m in below(ent[0]):
                row[m] = proj[m]
        else:
            d, a, r = ent[-3:] if end else ent[:3]
            moved, va = table[ids[(d, (a,), r)]], val[a]
            shorter = rows[index[ent[:-2] if end else ent[2:]]]
            for m in below(ent[end]):
                j = moved[m]
                x = -1 if j < 0 else shorter[edges[j][near]]
                if x < 0:
                    row[m] = cover.phi(cg, cover.cover_mult(cg, u, loops[m]) if end
                                       else cover.cover_mult(cg, loops[m], u))
                elif end:
                    row[m] = mult[mult[x][va]][proj[m]]
                else:
                    row[m] = mult[mult[proj[m]][va]][x]
        rows.append(tuple(row))
    return rows


def _parent_signatures(cg, forms, phis, index):
    """(left, right): the signatures (phi u, u.r, C[u]) and (phi v, v.d,
    R[v]) of the forms, each mapped to its first index in forms, or None
    when S is not associative or a row raises."""
    if not core.verify_ehresmann(cg.S)["associativity"].ok:
        return None

    def first_of_signature(end):
        first = {}
        for i, (u, fu, row) in enumerate(zip(forms, phis,
                                              _parent_signature_rows(cg, forms, index, end))):
            first.setdefault((fu, u.entries[end], row), i)
        return first

    try:
        return first_of_signature(-1), first_of_signature(0)
    except resgraph.RestrictionUndefinedError:
        return None


def _parent_mult_failures(cg, forms, phis, index):
    """Failing pairs led by the first pair of the pairwise check, each pair
    of signatures checked once at the first index of each; every pair when
    _parent_signatures is None."""
    signatures = _parent_signatures(cg, forms, phis, index)
    if signatures is None:
        return reference_mult_witnesses(cg, forms, phis)
    left, right = signatures
    meet, mult = cg.sl.meet, cg.S.mult
    return ((str(forms[i]), str(forms[j]))
            for (fu, r, C), i in left.items() for (fv, d, R), j in right.items()
            if mult[C[meet[r][d]]][R[meet[r][d]]] != mult[fu][fv])


def _parent_unfactored_forms(cg, forms):
    """The first form, in order, that is not its prefix times its last edge,
    or the exception of that product: two table steps when the prefix's
    last edge corestricted to the last edge's source is itself and the last
    edge restricted to that source is defined, a cover product otherwise."""
    ids, edges = cg.graph.edge_id, cg.edges
    restrict, corestrict = cg.graph.restrict_table, cg.graph.corestrict_table
    for u in forms:
        ent = u.entries
        if len(ent) <= 3:
            continue
        k = ids[(ent[-5], (ent[-4],), ent[-3])]
        c = ids[(ent[-3], (ent[-2],), ent[-1])]
        x = ent[-3]
        if corestrict[k][x] == k and restrict[c][x] >= 0:
            factors = edges[restrict[c][x]][2] == ent[-1]
        else:
            factors = cover.cover_mult(cg, cover.CanonicalPath(ent[:-2]),
                                       cover.CanonicalPath(ent[-3:])) == u
        if not factors:
            yield (str(u),)
            return


def parent_state_checks(cg, len_bound, forms=None):
    """The unary and the multiplication checks of the bounded parent, over
    the canonical forms up to len_bound (or the given list of them)."""
    if forms is None:
        forms = cover.enumerate_canonical(cg, len_bound)
    index = _parent_form_index(forms)
    phis = _parent_phis(cg, forms, index)
    proj, S = cg.proj_list, cg.S
    return [first_witness("phi_preserves_unary_operations", (
                (str(u),) for u, fu in zip(forms, phis)
                if proj[u.d] != S.plus[fu] or proj[u.r] != S.star[fu])),
            first_witness("phi_preserves_multiplication",
                          _parent_mult_failures(cg, forms, phis, index))]


def parent_verify_cover(S, gens, len_bound=3):
    """The cover verification over every canonical form up to len_bound,
    with phi, the signature rows and the factor check of each form one
    table step from a form one letter shorter."""
    cg = cover.build_cover_graph(S, gens)
    checks = []
    graph_report = resgraph.check_axioms(cg.graph, max_chain=2)
    checks.append(Check("cover_graph_axioms", graph_report.status,
                        tuple(c.name for c in graph_report.failures()) or None))
    forms = cover.enumerate_canonical(cg, len_bound)
    checks += parent_state_checks(cg, len_bound, forms)
    checks.append(Check("phi_projection_separating", PASS))
    for s in range(S.n):
        cover.canonical_preimage(cg, s)
    checks.append(Check("phi_surjective_via_preimages", PASS))

    def below_letter_maximum(c):
        top = cover.max_edge_for_letter(cg, c[1][0])
        return top in cg.graph.edges and product.edge_le(cg.graph, c, top)

    checks.append(first_witness("edges_below_letter_maximum", (
        (c,) for c in cg.graph.sorted_edges() if c[1] and not below_letter_maximum(c))))
    ok = product.check_properness_criterion(cg.graph)
    checks.append(Check("properness_criterion", PASS if ok else FAIL))
    checks.append(first_witness("forms_factor_through_edges",
                                _parent_unfactored_forms(cg, forms)))
    return Report(checks)


# ---------------------------------------------------------------------------
# random down-rectangle graphs

def random_down_rectangle_graphs(rng, count):
    """count graphs over the two- and three-element chains and the diamond,
    labelled in the monoids T2 and T3 with zero: identity loops and, per
    other label, one to three down-rectangles of edges, closed under
    composable products, as rectangle_graphs."""
    lattices = [resgraph.chain_semilattice(2), resgraph.chain_semilattice(3),
                resgraph.Semilattice(4, corpus._diamond_meet())]
    monoids = [corpus.t2_monoid(), corpus.t3_zero_monoid()]
    for _ in range(count):
        sl, mon = rng.choice(lattices), rng.choice(monoids)
        edges = {(e, mon.one, e) for e in range(sl.n)}
        for t in mon.elements():
            if t == mon.one:
                continue
            for _seed in range(rng.randint(1, 3)):
                e = rng.randrange(sl.n)
                f = rng.randrange(sl.n)
                edges |= {(g, t, h) for g in sl.below(e) for h in sl.below(f)}
        # close under composable label products (down-rectangles compose
        # into down-rectangles, so this terminates quickly)
        changed = True
        while changed:
            changed = False
            for (d1, l1, r1) in list(edges):
                for (d2, l2, r2) in list(edges):
                    if r1 == d2:
                        comp = (d1, mon.mul(l1, l2), r2)
                        if comp[1] != mon.one and comp not in edges:
                            edges.add(comp)
                            changed = True
        yield resgraph.rectangle_graph(sl, mon, edges)


def search_sigma_label_violation(seed, tries=200):
    """Random search for a compatible graph whose product separates two
    same-label edges under sigma: (witness graph, edge pair), or None.
    Finding none at this scale reports absence only; it is no
    nonexistence claim."""
    for G in random_down_rectangle_graphs(random.Random(seed), tries):
        if resgraph.check_axioms(G, max_chain=2).ok:
            ok, witness = actions.check_sigma_iff_label(G)
            if not ok:
                return G, witness
    return None


# ---------------------------------------------------------------------------
# the graph laws written side by side, one restriction or corestriction call
# per edge; the kernel in resgraph and product writes each dual pair once

def reference_all_paths(G, max_len):
    """All paths of length 1..max_len, in deterministic order."""
    out = []
    frontier = [(c,) for c in G.sorted_edges()]
    for _ in range(max_len):
        out.extend(frontier)
        frontier = [p + (c,) for p in frontier for c in G.edges_from(p[-1][2])]
    return out


def reference_restrict_path(G, p, e):
    """Left-to-right fold of edge restriction; source becomes e."""
    if not G.sl.leq(e, p[0][0]):
        raise resgraph.RestrictionUndefinedError(f"{e} is not below the path source")
    out = []
    cur = e
    for c in p:
        nc = G.restrict(c, cur)
        out.append(nc)
        cur = nc[2]
    return tuple(out)


def reference_corestrict_path(G, p, f):
    """Right-to-left fold of edge corestriction; target becomes f."""
    if not G.sl.leq(f, p[-1][2]):
        raise resgraph.RestrictionUndefinedError(f"{f} is not below the path target")
    out = []
    cur = f
    for c in reversed(p):
        nc = G.corestrict(c, cur)
        out.append(nc)
        cur = nc[0]
    return tuple(reversed(out))


def reference_check_axioms(G, max_chain=3):
    """The edge axioms with R1-R5 and CR1-CR5 written out separately, R4
    and CR4 over every chain up to max_chain.  Each chain is folded to each
    vertex once per call, from the fold of the chain one edge shorter: its
    prefix when restricting, its suffix when corestricting."""
    checks = []
    sl, mon = G.sl, G.mon
    one = mon.one
    rfolds, cfolds = {}, {}

    def restrict_path(G, p, e):
        out = rfolds.get((p, e))
        if out is None:
            if len(p) == 1:
                out = reference_restrict_path(G, p, e)
            else:
                head = restrict_path(G, p[:-1], e)
                out = head + (G.restrict(p[-1], head[-1][2]),)
            rfolds[p, e] = out
        return out

    def corestrict_path(G, p, f):
        out = cfolds.get((p, f))
        if out is None:
            if len(p) == 1:
                out = reference_corestrict_path(G, p, f)
            else:
                tail = corestrict_path(G, p[1:], f)
                out = (G.corestrict(p[0], tail[0][0]),) + tail
            cfolds[p, f] = out
        return out

    checks.append(first_witness("identity_loops_present", (
        (e,) for e in range(sl.n) if (e, one, e) not in G.edges)))

    edges = G.sorted_edges()
    checks.append(first_witness("restriction_total", (
        (c, g) for c, row in zip(edges, G.restrict_table) for g in sl.below(c[0])
        if row[g] < 0)))
    checks.append(first_witness("corestriction_total", (
        (c, h) for c, row in zip(edges, G.corestrict_table) for h in sl.below(c[2])
        if row[h] < 0)))
    if not all(c.ok for c in checks):
        return Report(checks)

    # the chains with a composite edge, in path order
    composites = [(chain, comp) for chain in reference_all_paths(G, max_chain)
                  if len(chain) >= 2
                  for comp in [(chain[0][0], resgraph.path_label(G, chain), chain[-1][2])]
                  if comp in G.edges]

    def gen_r1():
        for c in G.sorted_edges():
            for g in sl.below(c[0]):
                rc = G.restrict(c, g)
                if rc[0] != g or rc[1] != c[1] or not sl.leq(rc[2], c[2]):
                    yield (c, g, rc)

    def gen_r2():
        for c in G.sorted_edges():
            if G.restrict(c, c[0]) != c:
                yield (c,)

    def gen_r3():
        for c in G.sorted_edges():
            for g in sl.below(c[0]):
                rc = G.restrict(c, g)
                for h in sl.below(g):
                    if G.restrict(rc, h) != G.restrict(c, h):
                        yield (c, g, h)

    def gen_r5():
        for e in range(sl.n):
            for f in sl.below(e):
                if G.restrict((e, one, e), f) != (f, one, f):
                    yield (e, f)

    def gen_cr1():
        for c in G.sorted_edges():
            for h in sl.below(c[2]):
                cc = G.corestrict(c, h)
                if cc[2] != h or cc[1] != c[1] or not sl.leq(cc[0], c[0]):
                    yield (c, h, cc)

    def gen_cr2():
        for c in G.sorted_edges():
            if G.corestrict(c, c[2]) != c:
                yield (c,)

    def gen_cr3():
        for c in G.sorted_edges():
            for g in sl.below(c[2]):
                cc = G.corestrict(c, g)
                for h in sl.below(g):
                    if G.corestrict(cc, h) != G.corestrict(c, h):
                        yield (c, g, h)

    def gen_cr5():
        for e in range(sl.n):
            for f in sl.below(e):
                if G.corestrict((e, one, e), f) != (f, one, f):
                    yield (e, f)

    def gen_r4():
        for chain, comp in composites:
            for e0 in sl.below(comp[0]):
                restricted = restrict_path(G, chain, e0)
                expected = (e0, comp[1], restricted[-1][2])
                if G.restrict(comp, e0) != expected:
                    yield (chain, e0)

    def gen_cr4():
        for chain, comp in composites:
            for en in sl.below(comp[2]):
                corestricted = corestrict_path(G, chain, en)
                expected = (corestricted[0][0], comp[1], en)
                if G.corestrict(comp, en) != expected:
                    yield (chain, en)

    def gen_c():
        for c in G.sorted_edges():
            for g in sl.below(c[0]):
                rc = G.restrict(c, g)
                for h in sl.below(c[2]):
                    ch = G.corestrict(c, h)
                    lhs = G.corestrict(rc, sl.meet[rc[2]][h])
                    rhs = G.restrict(ch, sl.meet[ch[0]][g])
                    target = (sl.meet[g][ch[0]], c[1], sl.meet[rc[2]][h])
                    if lhs != rhs or lhs != target:
                        yield (c, g, h)

    checks += [first_witness("R1", gen_r1()), first_witness("R2", gen_r2()),
               first_witness("R3", gen_r3()), first_witness("R4", gen_r4()),
               first_witness("R5", gen_r5()), first_witness("CR1", gen_cr1()),
               first_witness("CR2", gen_cr2()), first_witness("CR3", gen_cr3()),
               first_witness("CR4", gen_cr4()), first_witness("CR5", gen_cr5()),
               first_witness("C", gen_c())]

    if not G.mon.is_free:
        labels = set()
        seen = set()
        frontier = deque()
        for c in G.sorted_edges():
            state = (c[2], c[1])
            labels.add(c[1])
            if state not in seen:
                seen.add(state)
                frontier.append(state)
        while frontier:
            v, lab = frontier.popleft()
            for c in G.edges_from(v):
                state = (c[2], mon.mul(lab, c[1]))
                labels.add(state[1])
                if state not in seen:
                    seen.add(state)
                    frontier.append(state)
        missing = [t for t in mon.elements() if t not in labels]
        checks.append(Check("every_label_has_a_path", FAIL if missing else PASS,
                            tuple(missing) or None))
    return Report(checks)


def parent_chains(G, max_chain):
    """The chains up to max_chain that R4 and CR4 check or extend, in path
    order: by length, then prefix, then last edge id.  Entry k is (prefix,
    last edge id, composite edge id or -1, the chain's edges), the edges
    first with prefix -1.  Implied chains are left out: only the chains
    without a composite edge are extended."""
    edges, ids, mul = G.sorted_edges(), G.edge_id, G.mon.mul
    chains = [(-1, i, -1, (c,)) for i, c in enumerate(edges)]
    # (chain, label) of the chains extended next
    level = [(i, c[1]) for i, c in enumerate(edges)]
    for length in range(2, max_chain + 1):
        extended, level = level, []
        for f, lab in extended:
            path = chains[f][3]
            for c in G.edges_from(path[-1][2]):
                label = mul(lab, c[1])
                comp = ids.get((path[0][0], label, c[2]), -1)
                if comp < 0:
                    if length == max_chain:
                        continue
                    level.append((len(chains), label))
                chains.append((f, ids[c], comp, path + (c,)))
    return chains


def _parent_r4(s, chains):
    """The witnesses of R4 on the restriction side, CR4 on corestriction,
    over the listed chains with a composite edge."""
    edges, table, end, far = s.edges, s.table, s.end, s.far
    below = s.sl.below
    # rows[k][v]: the far end of chain k folded to v, -1 where v is not
    # below its near end or the fold is undefined, and a last -1 that index
    # -1 reads; wants[c][v]: the far end R4 asks of a chain with composite
    # edge c, -2 where c moved to v is not a c-labelled edge at v
    steps = [[edges[j][far] if j >= 0 else -1 for j in row] + [-1] for row in table]
    wants = [[-1] * (s.sl.n + 1) for _ in edges]
    for c, row, want in zip(edges, table, wants):
        for v in below(c[end]):
            x = edges[row[v]]
            want[v] = x[far] if x[end] == v and x[1] == c[1] else -2
    rows = []
    for prefix, i, comp, path in chains:
        step = steps[i]
        if prefix < 0:
            row = step
        elif end == 0:
            row = [step[w] for w in rows[prefix]]
        else:
            prev = rows[prefix]
            row = [prev[w] for w in step]
        rows.append(row)
        if comp >= 0 and row != wants[comp]:
            yield from ((path, v) for v in below(edges[comp][end])
                        if row[v] != wants[comp][v])


def parent_check_axioms(G, max_chain=3, chains=None):
    """check_axioms with R4 and CR4 over the listed chains up to max_chain
    that are not implied, PASS when none of them fails, as the capped
    version answered; the other checks are check_axioms' own.  chains is
    parent_chains(G, max_chain), when the caller has it."""
    rep = resgraph.check_axioms(G, max_chain=0)
    if not any(c.name == "R4" for c in rep.checks):
        return rep
    if chains is None:
        chains = parent_chains(G, max_chain)
    laws = {s.prefix + "4": first_witness(s.prefix + "4", _parent_r4(s, chains))
            for s in (resgraph.Side(G, 0), resgraph.Side(G, 2))}
    return Report([laws.get(c.name, c) for c in rep.checks])


def reference_check_path_axioms(G, bound=3):
    """The path laws with every composable pair of paths tried for R4a and
    CR4a.  Each path is folded to each vertex once per call: a pair p q is
    itself a path, so its fold is met again for every partner."""
    sl = G.sl
    paths = reference_all_paths(G, bound)
    restricted, corestricted = {}, {}

    def restrict_path(G, p, e):
        if (p, e) not in restricted:
            restricted[p, e] = reference_restrict_path(G, p, e)
        return restricted[p, e]

    def corestrict_path(G, p, f):
        if (p, f) not in corestricted:
            corestricted[p, f] = reference_corestrict_path(G, p, f)
        return corestricted[p, f]

    def path_d(p):
        return p[0][0]

    def path_r(p):
        return p[-1][2]

    def gen_r3a():
        for p in paths:
            for e in sl.below(path_d(p)):
                rp = restrict_path(G, p, e)
                for g in sl.below(e):
                    if restrict_path(G, rp, g) != restrict_path(G, p, g):
                        yield (p, e, g)

    def gen_cr3a():
        for p in paths:
            for f in sl.below(path_r(p)):
                cp = corestrict_path(G, p, f)
                for g in sl.below(f):
                    if corestrict_path(G, cp, g) != corestrict_path(G, p, g):
                        yield (p, f, g)

    # the paths from each vertex, in paths order
    starting = {}
    for q in paths:
        starting.setdefault(path_d(q), []).append(q)

    def gen_r4a():
        for p in paths:
            for q in starting.get(path_r(p), ()):
                if len(p) + len(q) > bound:
                    continue
                for e in sl.below(path_d(p)):
                    rp = restrict_path(G, p, e)
                    if restrict_path(G, p + q, e) != rp + restrict_path(G, q, path_r(rp)):
                        yield (p, q, e)

    def gen_cr4a():
        for p in paths:
            for q in starting.get(path_r(p), ()):
                if len(p) + len(q) > bound:
                    continue
                for g in sl.below(path_r(q)):
                    cq = corestrict_path(G, q, g)
                    if corestrict_path(G, p + q, g) != corestrict_path(G, p, path_d(cq)) + cq:
                        yield (p, q, g)

    def gen_ca():
        for p in paths:
            for e in sl.below(path_d(p)):
                rp = restrict_path(G, p, e)
                for f in sl.below(path_r(p)):
                    cp = corestrict_path(G, p, f)
                    lhs = corestrict_path(G, rp, sl.meet[path_r(rp)][f])
                    rhs = restrict_path(G, cp, sl.meet[path_d(cp)][e])
                    if lhs != rhs:
                        yield (p, e, f)

    return Report([
        first_witness("R3a", gen_r3a()), first_witness("R4a", gen_r4a()),
        first_witness("CR3a", gen_cr3a()), first_witness("CR4a", gen_cr4a()),
        first_witness("Ca", gen_ca())])


# ---------------------------------------------------------------------------
# the bounded parent of resgraph.check_path_axioms: the path laws run over
# every path up to the bound, the paths kept as a trie over edge ids and the
# fold of every path at every vertex as a table of path indices


class _TriePaths:
    """The paths of length 1..max_len, by length, then by prefix, then by
    last edge id, as a trie over edge ids: path k is path parent[k] (-1 for
    none) followed by edge last[k], from vertex starts[k] to vertex ends[k].
    The paths of each length are consecutive, from levels[length - 1] on,
    and so are the one-edge extensions of a path k shorter than max_len, in
    edge id order from first_child[k] on: path f followed by edge j is
    first_child[f] + j - out_start[source of j].  Edge ids index
    G.sorted_edges()."""

    def __init__(self, G, max_len: int):
        edges = G.sorted_edges()
        n = len(edges) if max_len > 0 else 0
        self.src = [c[0] for c in edges]
        self.out_start = [0] * G.sl.n
        for j in range(len(edges) - 1, -1, -1):
            self.out_start[edges[j][0]] = j
        after = [[G.edge_id[c] for c in G.edges_from(d[2])] for d in edges]
        self.parent, self.last, self.starts = [-1] * n, list(range(n)), self.src[:n]
        self.first_child, self.levels = [], [0, n]
        for _ in range(max_len - 1):
            for k in range(self.levels[-2], self.levels[-1]):
                ext = after[self.last[k]]
                self.first_child.append(len(self.last))
                self.parent += [k] * len(ext)
                self.starts += [self.starts[k]] * len(ext)
                self.last += ext
            self.levels.append(len(self.last))
        self.top = self.levels[-2]
        self.ends = [edges[j][2] for j in self.last]

    def path(self, k: int) -> tuple:
        """Path k as a tuple of edge ids."""
        out = []
        while k >= 0:
            out.append(self.last[k])
            k = self.parent[k]
        return tuple(out[::-1])


class _TrieFolds:
    """The fold of every path on one side at every vertex, as a path index.

    Row k holds at v the index of the fold of path k at v, or -1 where that
    fold raises or is not a path; the laws call Side.fold there, so the
    witness and the exception are the scalar fold's.  A row is built from
    the row of the path's prefix p by one table step per vertex: on the
    restriction side the fold of p c at v is the fold of p at v followed by
    c moved to where that one ends; on the corestriction side it is the fold
    of p at the source of c moved to v, followed by that edge.  Rows are kept
    for the paths shorter than the longest; those are built when asked for.
    near and far are the vertices a fold starts at and ends at: the source
    and target of a path on the restriction side, the other way round on
    the corestriction side."""

    def __init__(self, s, P: _TriePaths):
        self.s, self.P = s, P
        self.near, self.far = (P.starts, P.ends) if s.end == 0 else (P.ends, P.starts)
        self.rows = s.table[:P.levels[1]]
        below = [s.sl.below(v) for v in range(s.sl.n)]
        # what row reads, unpacked at once, for speed
        self._step = (self.rows, P.parent, P.last, s.table, below, self.near,
                      P.src, P.ends, P.first_child, P.out_start, s.sl.n, s.end)
        for k in range(len(self.rows), P.top):
            self.rows.append(self.row(k))

    def row(self, k: int) -> list:
        """The row of path k, kept or built from its prefix's row."""
        if k < len(self.rows):
            return self.rows[k]
        (rows, parent, last, table, below, near,
         src, ends, first_child, out_start, n, end) = self._step
        prev, tab, out = rows[parent[k]], table[last[k]], [-1] * n
        if end == 0:
            for v in below[near[k]]:
                f = prev[v]
                if f >= 0:
                    w = ends[f]
                    j = tab[w]
                    if j >= 0 and src[j] == w:
                        out[v] = first_child[f] + j - out_start[w]
        else:
            for v in below[near[k]]:
                j = tab[v]
                if j >= 0:
                    w = src[j]
                    f = prev[w]
                    if f >= 0 and ends[f] == w:
                        out[v] = first_child[f] + j - out_start[w]
        return out


def _trie_fold_laws(F: _TrieFolds) -> list:
    """R3a and R4a on the restriction side, CR3a and CR4a on corestriction,
    for the paths up to the trie's length bound.  Folds are compared as path
    indices; where a fold index is -1 the law's statements run on
    Side.fold."""
    s, P, near, far = F.s, F.P, F.near, F.far
    bound = len(P.levels) - 1
    fold, below = s.fold, s.sl.below
    last = -1 if s.end == 0 else 0  # the position of the edge moved last

    def differ(k, e, g):
        p = P.path(k)
        return fold(fold(p, e), g) != fold(p, g)

    def r3a():
        for k in range(len(P.last)):
            row = F.row(k)
            for e in below(near[k]):
                r = row[e]
                twice = F.row(r) if r >= 0 else None
                for g in below(e):
                    # two folds are equal when their indices are; a -1 reruns
                    # the scalar folds
                    a, b = (twice[g], row[g]) if r >= 0 else (-1, -1)
                    if a != b if min(a, b) >= 0 else differ(k, e, g):
                        yield (s.triples(P.path(k)), e, g)

    # the paths that can follow a vertex, in path order, so by length
    starting = {}
    for q, v in enumerate(P.starts):
        starting.setdefault(v, []).append(q)

    def r4a():
        for length in range(1, bound):
            limit = P.levels[bound - length]  # the paths q with len(p q) > bound
            for k in range(P.levels[length - 1], P.levels[length]):
                for q in starting.get(P.ends[k], ()):
                    if q >= limit:
                        break
                    first, second = (k, q) if s.end == 0 else (q, k)
                    folds, rest = F.row(first), F.row(second)
                    for v in below(near[first]):
                        # the fold of p q is the fold of the first path
                        # followed by the fold of the second from where that
                        # one ends
                        if folds[v] < 0 or rest[far[folds[v]]] < 0:
                            p, q_path = P.path(k), P.path(q)
                            m = fold(P.path(first), v)
                            whole = fold(p + q_path, v)
                            tail = fold(P.path(second), s.edges[m[last]][s.far])
                            if whole != (m + tail if s.end == 0 else tail + m):
                                yield (s.triples(p), s.triples(q_path), v)

    return [first_witness(s.prefix + "3a", r3a()), first_witness(s.prefix + "4a", r4a())]


def _trie_path_compatibility(RF: _TrieFolds, CF: _TrieFolds):
    """Law Ca: law C for paths."""
    R, C, P = RF.s, CF.s, RF.P
    edges, meet, below = R.edges, R.sl.meet, R.sl.below

    def differ(p, e, f):
        rp, cp = R.fold(p, e), C.fold(p, f)
        return (C.fold(rp, meet[edges[rp[-1]][2]][f])
                != R.fold(cp, meet[edges[cp[0]][0]][e]))

    for k in range(len(P.last)):
        rrow, crow = RF.row(k), CF.row(k)
        # the corestrictions of path k, each with the row of its restrictions
        cps = [(f, crow[f], RF.row(crow[f]) if crow[f] >= 0 else None)
               for f in below(CF.near[k])]
        for e in below(RF.near[k]):
            r = rrow[e]
            lhs = CF.row(r) if r >= 0 else None
            for f, c, rhs in cps:
                a = lhs[meet[RF.far[r]][f]] if r >= 0 and c >= 0 else -1
                b = rhs[meet[CF.far[c]][e]] if a >= 0 else -1
                if a != b if b >= 0 else differ(P.path(k), e, f):
                    yield (R.triples(P.path(k)), e, f)


def parent_check_path_axioms(G, bound=3):
    """R3a, R4a, CR3a, CR4a and Ca over all paths up to the length bound,
    on the folds of resgraph.Side, with the scalar fold's witnesses and
    exceptions where a fold raises."""
    P = _TriePaths(G, bound)
    RF, CF = _TrieFolds(resgraph.Side(G, 0), P), _TrieFolds(resgraph.Side(G, 2), P)
    return Report(_trie_fold_laws(RF) + _trie_fold_laws(CF)
                  + [first_witness("Ca", _trie_path_compatibility(RF, CF))])


def reference_build_product(G):
    """The product table with one corestriction and one restriction call
    per pair of edges; a product that is not an edge raises KeyError."""
    witness = resgraph.check_pm(G)
    if witness is not None:
        raise product.PMViolationError(witness)
    one = G.mon.one
    for e in range(G.sl.n):
        if (e, one, e) not in G.edges:
            raise ValueError(f"missing identity loop at vertex {e}")
    edges = G.sorted_edges()
    idx = {c: i for i, c in enumerate(edges)}
    k = len(edges)
    mult = [[0] * k for _ in range(k)]
    for i, c in enumerate(edges):
        for j, d in enumerate(edges):
            m = G.sl.meet[c[2]][d[0]]
            c2 = G.corestrict(c, m)
            d2 = G.restrict(d, m)
            comp = (c2[0], G.mon.mul(c2[1], d2[1]), d2[2])
            mult[i][j] = idx[comp]
    plus = [idx[(c[0], one, c[0])] for c in edges]
    star = [idx[(c[2], one, c[2])] for c in edges]
    names = [G.edge_str(c) for c in edges]
    return core.OpTableSemigroup(k, mult, plus, star, names), edges


def reference_edge_le_l(G, u, v):
    return any(G.restrict(v, g) == u for g in G.sl.below(v[0]))


def reference_edge_le_r(G, u, v):
    return any(G.corestrict(v, h) == u for h in G.sl.below(v[2]))


def reference_edge_le(G, u, v):
    """u is a corestriction of a restriction of v."""
    for g in G.sl.below(v[0]):
        m = G.restrict(v, g)
        for h in G.sl.below(m[2]):
            if G.corestrict(m, h) == u:
                return True
    return False


def reference_check_partial_action_laws(pa):
    """The partial-action laws with the LD and RD halves written out."""
    sides = []
    if all(relmonoid.classify(r)["in_PT"] for r in pa.phi.values()):
        sides.append("LD")
    if all(relmonoid.classify(r)["in_PTc"] for r in pa.phi.values()):
        sides.append("RD")
    if not sides:
        raise ValueError("laws need a deterministic premorphism (LD or RD)")
    sl = pa.sl
    checks = []
    items = [(t, pa.phi[t]) for t in sorted(pa.phi)]
    if "LD" in sides:
        domains = {t: [x for x in range(sl.n) if rel.row(x)] for t, rel in items}
        checks.append(first_witness("domains_are_order_ideals", (
            (t, f, e) for t, domain in domains.items() for e in domain
            for f in sl.below(e) if f not in domain)))
        images = {t: dict(rel.pairs()) for t, rel in items}
        checks.append(first_witness("maps_order_preserving", (
            (t, f, e) for t, image in images.items() for e in image for f in image
            if sl.leq(f, e) and not sl.leq(image[f], image[e]))))
    if "RD" in sides:
        ranges = {t: [y for y in range(sl.n) if any(rel.has(x, y) for x in range(sl.n))]
                  for t, rel in items}
        checks.append(first_witness("ranges_are_order_ideals", (
            (t, f, e) for t, rng in ranges.items() for e in rng
            for f in sl.below(e) if f not in rng)))
        preimages = {t: {y: x for (x, y) in rel.pairs()} for t, rel in items}
        checks.append(first_witness("inverse_maps_order_preserving", (
            (t, f, e) for t, preimage in preimages.items() for e in preimage
            for f in preimage
            if sl.leq(f, e) and not sl.leq(preimage[f], preimage[e]))))
    return Report(checks)


def product_outcome(build, G):
    """What build(G) gives: the product's tables, names and edges, or the
    type and message of the exception it raises."""
    try:
        S, edges = build(G)
    except Exception as exc:  # the exception itself is the outcome compared
        return ("raise", type(exc), str(exc))
    return ("value", S.mult, S.plus, S.star, S.names, edges)


def parent_build_product(G):
    """The product table with check_pm's scan first, then one corestriction,
    restriction and composite per pair of edges read off resgraph.Side,
    where a table entry of -1 calls the graph's map for its error."""
    witness = next(((c, d) for c in G.sorted_edges() for d in G.edges_from(c[2])
                    if (c[0], G.mon.mul(c[1], d[1]), d[2]) not in G.edges), None)
    if witness is not None:
        raise product.PMViolationError(witness)
    one = G.mon.one
    for e in range(G.sl.n):
        if (e, one, e) not in G.edges:
            raise ValueError(f"missing identity loop at vertex {e}")
    R, C = resgraph.Side(G, 0), resgraph.Side(G, 2)
    edges, ids, meet, mul = R.edges, R.ids, G.sl.meet, G.mon.mul
    mult = []
    for i, c in enumerate(edges):
        row, crow, at = [], C.table[i], meet[c[2]]
        for j, d in enumerate(edges):
            m = at[d[0]]
            x, y = crow[m], R.table[j][m]
            if x < 0 or y < 0:
                x, y = C.id(i, m), R.id(j, m)
            x, y = edges[x], edges[y]
            comp = (x[0], mul(x[1], y[1]), y[2])
            z = ids.get(comp)
            if z is None:
                raise product.MissingProductError(c, d, comp)
            row.append(z)
        mult.append(row)
    plus = [ids[(c[0], one, c[0])] for c in edges]
    star = [ids[(c[2], one, c[2])] for c in edges]
    names = [G.edge_str(c) for c in edges]
    return core.OpTableSemigroup(len(edges), mult, plus, star, names), edges


def parent_validate_premorphism(pm):
    """The premorphism laws with one relmonoid.compose per pair of labels."""
    n = pm.ground if isinstance(pm, actions.Premorphism) else pm.sl.n

    def problem(t):
        if t not in pm.phi:
            return "missing"
        if pm.phi[t].n != n:
            return "ground size mismatch"
        if pm.phi[t].bits == 0:
            return "empty relation"
        return None

    checks = [first_witness("relations_nonempty", (
        (t, why) for t in pm.mon.elements() for why in [problem(t)] if why))]
    if not checks[0].ok:
        return Report(checks)

    ident = relmonoid.identity(n)
    ok = ident.issubset(pm.phi[pm.mon.one])
    checks.append(Check("identity_in_phi_1", PASS if ok else FAIL,
                        None if ok else (pm.mon.one,)))

    labels = pm.mon.elements()
    checks.append(first_witness("phi_s_phi_t_in_phi_st", (
        (s, t) for s in labels for t in labels
        if not relmonoid.compose(pm.phi[s], pm.phi[t]).issubset(
            pm.phi[pm.mon.mul(s, t)]))))
    return Report(checks)


def random_partial_action(rng, k):
    """The cyclic group of a random permutation of k coordinates acting
    partially on a random order ideal D of the Boolean lattice 2^k (subsets
    as bit masks): phi_g is g restricted to the points of D that g keeps
    inside D.  Monoid products read left to right, as relation composition
    does."""
    perm = list(range(k))
    rng.shuffle(perm)
    group, p = [tuple(range(k))], tuple(perm)
    while p != group[0]:
        group.append(p)
        p = tuple(perm[i] for i in p)
    index = {g: i for i, g in enumerate(group)}
    mult = [[index[tuple(t[s[i]] for i in range(k))] for t in group] for s in group]
    tops = [rng.randrange(1 << k) for _ in range(rng.randint(1, 2))]
    points = [x for x in range(1 << k) if any(x & t == x for t in tops)]
    at = {x: i for i, x in enumerate(points)}
    sl = resgraph.Semilattice(len(points), [[at[a & b] for b in points] for a in points])

    def act(g, x):
        return sum(1 << g[i] for i in range(k) if x >> i & 1)

    phi = {s: relmonoid.Rel.from_pairs(sl.n, [(at[x], at[act(g, x)]) for x in points
                                              if act(g, x) in at])
           for s, g in enumerate(group)}
    return actions.PartialAction(sl, resgraph.FiniteMonoid(len(group), mult, 0), phi)


def parent_validate_partial_action(pa):
    """The premorphism laws, then the partial bijections by one
    relmonoid.classify per relation, then the order laws with the LD and RD
    halves written out."""
    checks = list(actions.validate_premorphism(pa).checks)
    if not all(c.ok for c in checks):
        return Report(checks)
    checks.append(first_witness("relations_are_partial_bijections", (
        (t,) for t in sorted(pa.phi) if not relmonoid.classify(pa.phi[t])["in_I"])))
    if checks[-1].ok:
        checks.extend(reference_check_partial_action_laws(pa).checks)
    return Report(checks)


def parent_verify_reports(kind, obj, source, side=None, max_chain=3):
    """The text lines and reports of `verify` on a loaded document, by the
    per-kind table the command kept before it shared one with corpus-run:
    a relgen is checked without its restriction side, and a premorphism on
    a semilattice ground by the premorphism laws alone."""
    reports, lines = [], []
    if kind == "semigroup":
        rep = core.verify_ehresmann(obj)
        reports.append(rep)
        lines += [f"ehresmann axioms on {source}:"] + rep.lines()
        if side:
            if not rep.ok:
                lines.append("skipping restriction check: Ehresmann axioms failed")
            else:
                rrep = core.verify_restriction(obj, side)
                reports.append(rrep)
                lines += [f"restriction ({side}):"] + rrep.lines()
    elif kind == "relgen":
        n, gens = obj
        alg = relmonoid.generate(n, gens)
        rep = core.verify_ehresmann(alg.to_semigroup())
        reports.append(rep)
        lines += [f"generated {len(alg.elements)} relations on ground size {n}",
                  "ehresmann axioms:"] + rep.lines()
    elif kind == "resgraph":
        rep = resgraph.check_axioms(obj, max_chain=max_chain)
        reports.append(rep)
        lines += [f"graph axioms on {source}:"] + rep.lines()
    elif kind == "premorphism":
        rep = actions.validate_premorphism(obj)
        reports.append(rep)
        lines += [f"premorphism laws on {source}:"] + rep.lines()
    return lines, reports


def parent_corpus_results(kind, obj):
    """The verdicts of `corpus-run` on a loaded document, by the per-kind
    table the command kept before it shared one with verify."""
    if kind == "semigroup":
        return {"ehresmann": core.verify_ehresmann(obj).ok}
    if kind == "resgraph":
        return {"graph_axioms": resgraph.check_axioms(obj).ok}
    if kind == "relgen":
        n, gens = obj
        return {"ehresmann": core.verify_ehresmann(
            relmonoid.generate(n, gens).to_semigroup()).ok}
    if isinstance(obj, actions.PartialAction):
        return {"partial_action": actions.validate_partial_action(obj).ok}
    return {"partial_action": actions.validate_premorphism(obj).ok}


def perturbed_document(doc, rng):
    """A copy of a semigroup, resgraph, relgen or premorphism document with
    one entry changed, so that it still loads: a table entry set to another
    element, a restriction or corestriction sent to another edge, or one
    pair added to or removed from a generator or a relation."""
    doc = json.loads(json.dumps(doc))
    kind = doc["kind"]
    if kind == "semigroup":
        n = len(doc["mult"])
        table = rng.choice(("plus", "star", "mult", "mult"))
        row = rng.choice(doc["mult"]) if table == "mult" else doc[table]
        row[rng.randrange(n)] = rng.randrange(n)
        return doc
    if kind == "resgraph":
        entries = doc["restrict"] + doc["corestrict"]
        if entries:
            rng.choice(entries)["to"] = rng.randrange(len(doc["edges"]))
        return doc
    if kind == "relgen":
        n, pairs = doc["ground_size"], rng.choice(doc["generators"])
    else:
        ground = doc["ground"]
        n = (len(ground["semilattice"]["elements"]) if "semilattice" in ground
             else ground["size"])
        pairs = doc["phi"][rng.choice(sorted(doc["phi"]))]
    pair = [rng.randrange(n), rng.randrange(n)]
    if pair in pairs:
        pairs.remove(pair)
    else:
        pairs.append(pair)
    return doc
