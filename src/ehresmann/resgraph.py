"""Labelled directed graphs over a semilattice with restriction structure.

An edge is a triple (d, label, r) of source vertex, label and target
vertex; a path is a tuple of consecutive edges.  Restriction shrinks the
source of an edge down the semilattice order, corestriction the target.
Labels come from a finite monoid (ints) or a free monoid (tuples of
letter strings, the empty tuple being the identity).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import associativity_witness, validate_table
from .report import Check, FAIL, INCONCLUSIVE, PASS, Report, first_witness


class RestrictionUndefinedError(ValueError):
    """A required restriction or corestriction is missing or invalid."""


@dataclass
class Semilattice:
    n: int
    meet: list
    names: list | None = None

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("need at least one element")
        validate_table(self.meet, self.n, "meet")
        rng = range(self.n)
        for e in rng:
            for f in rng:
                if self.meet[e][f] != self.meet[f][e]:
                    raise ValueError(f"meet not commutative at ({e},{f})")
            if self.meet[e][e] != e:
                raise ValueError(f"meet not idempotent at {e}")
        w = associativity_witness(self.meet)
        if w is not None:
            raise ValueError("meet not associative at ({},{},{})".format(*w))
        if self.names is not None and len(self.names) != self.n:
            raise ValueError("names must have length n")
        # the down-set of every element, computed once; callers only read it
        self._below = [[g for g in rng if self.meet[g][e] == g] for e in rng]

    def leq(self, e: int, f: int) -> bool:
        return self.meet[e][f] == e

    def below(self, e: int):
        return self._below[e]

    def name(self, e: int) -> str:
        return self.names[e] if self.names else str(e)


def chain_semilattice(k: int, names=None) -> Semilattice:
    """k-chain 0 < 1 < ... < k-1 (meet = min)."""
    return Semilattice(k, [[min(i, j) for j in range(k)] for i in range(k)], names)


@dataclass
class FiniteMonoid:
    n: int
    mult: list
    identity: int
    names: list | None = None

    def __post_init__(self):
        validate_table(self.mult, self.n)
        w = associativity_witness(self.mult)
        if w is not None:
            raise ValueError("monoid not associative at ({},{},{})".format(*w))
        e = self.identity
        if type(e) is not int or not 0 <= e < self.n or any(
                self.mult[e][a] != a or self.mult[a][e] != a for a in range(self.n)):
            raise ValueError("identity element is not a two-sided identity")

    is_free = False

    @property
    def one(self):
        return self.identity

    def mul(self, a, b):
        return self.mult[a][b]

    def is_identity(self, label) -> bool:
        return label == self.identity

    def elements(self):
        return range(self.n)

    def check_label(self, label):
        if not (type(label) is int and 0 <= label < self.n):
            raise ValueError(f"label {label!r} not a monoid element")

    def label_str(self, label) -> str:
        return self.names[label] if self.names else str(label)


@dataclass
class FreeMonoid:
    alphabet: tuple

    def __post_init__(self):
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet letters must be distinct")
        self.alphabet = tuple(self.alphabet)

    is_free = True

    @property
    def one(self):
        return ()

    def mul(self, a, b):
        return tuple(a) + tuple(b)

    def is_identity(self, label) -> bool:
        return len(label) == 0

    def check_label(self, label):
        if not isinstance(label, tuple) or any(x not in self.alphabet for x in label):
            raise ValueError(f"label {label!r} not a word over {self.alphabet}")

    def label_str(self, label) -> str:
        return "1" if not label else "".join(str(x) for x in label)


class ResGraph:
    """Labelled directed graph with optional restriction/corestriction maps.

    restrict and corestrict are dicts keyed by (edge, vertex), or None when
    the structure is absent.  The constructor numbers the sorted edges and
    stores each map once as an integer table, restrict_table[edge id][g]
    and corestrict_table[edge id][h], holding the id of the resulting edge,
    or -1 where the map is undefined, gives a non-edge, or the vertex is not
    below the edge's source (target).
    """

    def __init__(self, sl: Semilattice, mon, edges, restrict=None, corestrict=None):
        self.sl = sl
        self.mon = mon
        for (d, lab, r) in edges:
            if not all(type(v) is int and 0 <= v < sl.n for v in (d, r)):
                raise ValueError(f"edge ({d},{lab!r},{r}) has a bad vertex")
            mon.check_label(lab)
        self.edges = frozenset(edges)
        self._edge_list = sorted(self.edges)
        self.edge_id = {c: i for i, c in enumerate(self._edge_list)}
        self._restrict = restrict
        self._corestrict = corestrict
        self.restrict_table = self._table(restrict, 0)
        self.corestrict_table = self._table(corestrict, 2)
        self._out = {}
        for c in self._edge_list:
            self._out.setdefault(c[0], []).append(c)

    def _table(self, given, end):
        ids, below = self.edge_id, self.sl.below
        table = []
        for c in self._edge_list:
            row = [-1] * self.sl.n
            if given is not None:
                for v in below(c[end]):
                    row[v] = ids.get(given.get((c, v)), -1)
            table.append(row)
        return table

    @property
    def has_restrictions(self) -> bool:
        return self._restrict is not None and self._corestrict is not None

    def sorted_edges(self):
        return list(self._edge_list)

    def edges_from(self, v: int):
        return self._out.get(v, [])

    def edge_str(self, c) -> str:
        d, lab, r = c
        return f"({self.sl.name(d)},{self.mon.label_str(lab)},{self.sl.name(r)})"

    def restrict(self, c, g: int):
        try:
            i = self.restrict_table[self.edge_id[c]][g]
        except (KeyError, IndexError, TypeError):
            i = -1
        if i < 0 or g < 0:
            self._undefined(c, g, 0, self._restrict, "restriction")
        return self._edge_list[i]

    def corestrict(self, c, h: int):
        try:
            i = self.corestrict_table[self.edge_id[c]][h]
        except (KeyError, IndexError, TypeError):
            i = -1
        if i < 0 or h < 0:
            self._undefined(c, h, 2, self._corestrict, "corestriction")
        return self._edge_list[i]

    def _undefined(self, c, v, end, given, kind):
        """Raise the error for a table entry of -1 (or a bad argument)."""
        if c not in self.edges:
            raise ValueError(f"{c!r} is not an edge")
        if not self.sl.leq(v, c[end]):
            raise RestrictionUndefinedError(
                f"{kind} of {self.edge_str(c)} to non-lower vertex {v}")
        if given is None:
            raise RestrictionUndefinedError(f"graph has no {kind} structure")
        out = given.get((c, v))
        if out is None:
            raise RestrictionUndefinedError(
                f"{kind} of {self.edge_str(c)} to {self.sl.name(v)} is undefined")
        raise RestrictionUndefinedError(
            f"{kind} of {self.edge_str(c)} to {self.sl.name(v)} "
            f"gives {out!r}, which is not an edge")


# ---------------------------------------------------------------------------
# paths

def make_path(G: ResGraph, edges) -> tuple:
    edges = tuple(edges)
    if not edges:
        raise ValueError("paths are non-empty")
    for c in edges:
        if c not in G.edges:
            raise ValueError(f"{c!r} is not an edge")
    for a, b in zip(edges, edges[1:]):
        if a[2] != b[0]:
            raise ValueError(f"edges {a!r} and {b!r} are not composable")
    return edges


def path_d(p) -> int:
    return p[0][0]


def path_r(p) -> int:
    return p[-1][2]


def path_label(G: ResGraph, p):
    lab = p[0][1]
    for c in p[1:]:
        lab = G.mon.mul(lab, c[1])
    return lab


def restrict_path(G: ResGraph, p, e: int) -> tuple:
    """Left-to-right fold of edge restriction; source becomes e."""
    if not G.sl.leq(e, path_d(p)):
        raise RestrictionUndefinedError(f"{e} is not below the path source")
    out = []
    cur = e
    for c in p:
        nc = G.restrict(c, cur)
        out.append(nc)
        cur = nc[2]
    return tuple(out)


def corestrict_path(G: ResGraph, p, f: int) -> tuple:
    """Right-to-left fold of edge corestriction; target becomes f."""
    if not G.sl.leq(f, path_r(p)):
        raise RestrictionUndefinedError(f"{f} is not below the path target")
    out = []
    cur = f
    for c in reversed(p):
        nc = G.corestrict(c, cur)
        out.append(nc)
        cur = nc[0]
    return tuple(reversed(out))


def all_paths(G: ResGraph, max_len: int):
    """All paths of length 1..max_len, in deterministic order."""
    out = []
    frontier = [(c,) for c in G.sorted_edges()]
    for _ in range(max_len):
        out.extend(frontier)
        frontier = [p + (c,) for p in frontier for c in G.edges_from(p[-1][2])]
    return out


def composable_chains(G: ResGraph, min_len: int, max_len: int):
    for p in all_paths(G, max_len):
        if len(p) >= min_len:
            yield p


# ---------------------------------------------------------------------------
# axiom checking

def check_axioms(G: ResGraph, max_chain: int = 3) -> Report:
    """Machine-check the edge-level restriction/corestriction axioms.

    The chain axioms quantify over arbitrarily long edge chains; they are
    checked for chains up to max_chain.  For partial multiactions chains of
    length 2 plus induction already cover the general case, since the
    composite edges exist at every intermediate step.
    """
    checks = []
    sl, mon = G.sl, G.mon
    one = mon.one

    checks.append(first_witness("identity_loops_present", (
        (e,) for e in range(sl.n) if (e, one, e) not in G.edges)))

    edges = G.sorted_edges()
    checks.append(first_witness("restriction_total", (
        (c, g) for c, row in zip(edges, G.restrict_table) for g in sl.below(c[0])
        if row[g] < 0)))
    checks.append(first_witness("corestriction_total", (
        (c, h) for c, row in zip(edges, G.corestrict_table) for h in sl.below(c[2])
        if row[h] < 0)))

    # the remaining axioms evaluate restrictions of identity loops and are
    # only meaningful once the structural checks hold
    if not all(c.ok for c in checks):
        return Report(checks)

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
        for chain in composable_chains(G, 2, max_chain):
            comp = (chain[0][0], path_label(G, chain), chain[-1][2])
            if comp not in G.edges:
                continue
            for e0 in sl.below(comp[0]):
                restricted = restrict_path(G, chain, e0)
                expected = (e0, comp[1], restricted[-1][2])
                if G.restrict(comp, e0) != expected:
                    yield (chain, e0)

    def gen_cr4():
        for chain in composable_chains(G, 2, max_chain):
            comp = (chain[0][0], path_label(G, chain), chain[-1][2])
            if comp not in G.edges:
                continue
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


def check_path_axioms(G: ResGraph, bound: int = 3) -> Report:
    """Check the path-level laws over all paths up to the length bound."""
    sl = G.sl
    paths = all_paths(G, bound)

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

    def gen_r4a():
        for p in paths:
            for q in paths:
                if path_r(p) != path_d(q) or len(p) + len(q) > bound:
                    continue
                for e in sl.below(path_d(p)):
                    rp = restrict_path(G, p, e)
                    if restrict_path(G, p + q, e) != rp + restrict_path(G, q, path_r(rp)):
                        yield (p, q, e)

    def gen_cr4a():
        for p in paths:
            for q in paths:
                if path_r(p) != path_d(q) or len(p) + len(q) > bound:
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
# the congruence ~ generated by contracting composable blocks

def contract_step(G: ResGraph, p, i: int, j: int):
    """Replace the block of edges at 1-based positions i..j by the composite
    edge, when it exists; None otherwise."""
    if not (1 <= i <= j <= len(p)) or j - i < 1:
        raise ValueError(f"bad block positions ({i},{j}) for length {len(p)}")
    block = p[i - 1:j]
    comp = (block[0][0], path_label(G, block), block[-1][2])
    if comp not in G.edges:
        return None
    return p[:i - 1] + (comp,) + p[j:]


def _contractions(G: ResGraph, p):
    out = []
    for i in range(1, len(p)):
        for j in range(i + 1, len(p) + 1):
            q = contract_step(G, p, i, j)
            if q is not None:
                out.append(q)
    return out


def _expansions_of_edge(G: ResGraph, c, max_block: int):
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
        if G.mon.is_free and not _is_prefix(lab, target):
            continue
        for e in G.edges_from(chain[-1][2]):
            stack.append((chain + (e,), G.mon.mul(lab, e[1])))
    return out


def _is_prefix(word, target):
    return len(word) <= len(target) and tuple(target[:len(word)]) == tuple(word)


def check_pm(G: ResGraph):
    """Return a witness composable pair with no composite edge, or None."""
    return next(((c, d) for c in G.sorted_edges() for d in G.edges_from(c[2])
                 if (c[0], G.mon.mul(c[1], d[1]), d[2]) not in G.edges), None)


def _is_cover_shaped(G: ResGraph) -> bool:
    if not G.mon.is_free:
        return False
    for (d, lab, r) in G.edges:
        if len(lab) > 1:
            return False
        if len(lab) == 0 and d != r:
            return False
    return True


@dataclass
class EquivalenceResult:
    status: str
    reason: str = ""


def equivalent_paths(G: ResGraph, p, q, max_nodes: int = 20000,
                     max_len: int | None = None) -> EquivalenceResult:
    """Semi-decide whether two paths are identified by the congruence ~.

    Endpoint or label disagreement is an immediate FAIL.  In the two
    normal-form regimes (partial multiaction; cover-shaped graph) the
    answer is exact; otherwise a bounded bidirectional search over
    contract/expand moves returns PASS or INCONCLUSIVE.
    """
    p, q = make_path(G, p), make_path(G, q)
    if path_d(p) != path_d(q) or path_r(p) != path_r(q):
        return EquivalenceResult(FAIL, "endpoints differ")
    if path_label(G, p) != path_label(G, q):
        return EquivalenceResult(FAIL, "labels differ")
    if p == q:
        return EquivalenceResult(PASS, "equal paths")

    if check_pm(G) is None:
        nf_p = (path_d(p), path_label(G, p), path_r(p))
        nf_q = (path_d(q), path_label(G, q), path_r(q))
        status = PASS if nf_p == nf_q else FAIL
        return EquivalenceResult(status, "partial multiaction normal form")
    if _is_cover_shaped(G):
        nf_p = tuple(c for c in p if c[1])
        nf_q = tuple(c for c in q if c[1])
        status = PASS if nf_p == nf_q else FAIL
        return EquivalenceResult(status, "cover normal form")

    if max_len is None:
        max_len = max(len(p), len(q)) + 2

    def neighbours(path):
        out = _contractions(G, path)
        for i, c in enumerate(path):
            cap = max_len - len(path) + 1
            if cap >= 2:
                for block in _expansions_of_edge(G, c, cap):
                    out.append(path[:i] + block + path[i + 1:])
        return out

    seen = {p: 0, q: 1}
    frontier = deque([p, q])
    while frontier:
        if len(seen) > max_nodes:
            return EquivalenceResult(INCONCLUSIVE, "node budget exhausted")
        cur = frontier.popleft()
        side = seen[cur]
        for nb in neighbours(cur):
            if nb in seen:
                if seen[nb] != side:
                    return EquivalenceResult(PASS, "search met")
                continue
            seen[nb] = side
            frontier.append(nb)
    return EquivalenceResult(INCONCLUSIVE, "search saturated within length cap")
