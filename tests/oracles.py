"""Independent brute-force oracles used to cross-check the main algorithms."""

from collections import deque

from ehresmann import core, cover, product, relmonoid, resgraph
from ehresmann.report import first_witness


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
    P = core.projections(S).members
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


def reference_associativity_witness(table):
    """First (x, y, z) in lexicographic order with (x y) z != x (y z), by the
    plain triple loop over the table; None when the table is associative."""
    rng = range(len(table))
    for x in rng:
        for y in rng:
            for z in rng:
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    return (x, y, z)
    return None


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
    return relmonoid.RelationAlgebra(n, elements, index)


def reference_table(alg):
    """The relation algebra as a semigroup, from all n^2 compositions."""
    mult = [[alg.index[relmonoid.compose(a, b)] for b in alg.elements]
            for a in alg.elements]
    plus = [alg.index[relmonoid.dom(a)] for a in alg.elements]
    star = [alg.index[relmonoid.ran(a)] for a in alg.elements]
    names = [repr(a) for a in alg.elements]
    return core.OpTableSemigroup(len(alg.elements), mult, plus, star, names)


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
        index = {c: i for i, c in enumerate(self._edge_list)}
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


def reference_letter_edge_tables(graph):
    """Restriction and corestriction of every letter edge as vertex rows,
    (d, a, r) -> [target of the restriction to g / source of the
    corestriction to h, or -1], read off graph.restrict and graph.corestrict."""
    n = graph.sl.n
    restr, corestr = {}, {}
    for c in graph.sorted_edges():
        d, lab, r = c
        if not lab:
            continue
        rrow, crow = [-1] * n, [-1] * n
        for g in graph.sl.below(d):
            rrow[g] = graph.restrict(c, g)[2]
        for h in graph.sl.below(r):
            crow[h] = graph.corestrict(c, h)[0]
        restr[(d, lab[0], r)] = rrow
        corestr[(d, lab[0], r)] = crow
    return restr, corestr


def reference_mult_witnesses(cg, forms, phis):
    """The cover's phi_preserves_multiplication check pair by pair: every
    (u, v) over the forms in enumeration order, u first, with
    phi(u v) != phi(u) phi(v); phis[i] is phi of forms[i]."""
    mult = cg.S.mult
    return ((str(u), str(v)) for u, fu in zip(forms, phis) for v, fv in zip(forms, phis)
            if cover.phi(cg, cover.cover_mult(cg, u, v)) != mult[fu][fv])
