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
from functools import reduce
from operator import getitem, itemgetter

from .core import (_memoised, associativity_witness, contract_expand_neighbours, first_paths,
                   row_form, saturate, table_rows)
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
        self.meet = table_rows(self.meet, self.n, "meet")
        rng = range(self.n)
        # the table against its transpose and its diagonal against the ids
        # at C level; the pair loop runs on a rejected table only, to name
        # its first error
        if (row_form(self.n).columns(self.meet) != self.meet
                or list(map(getitem, self.meet, rng)) != list(rng)):
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
        self.mult = table_rows(self.mult, self.n)
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
    below the edge's source (target).  It keeps the dicts only to name a
    value that is not an edge in the error.  from_tables takes such tables
    directly and keeps no dicts.  has_restrictions is true when both maps
    are present, as they are on every graph built from tables.

    Edges, out-lists, monoid and tables never change after construction, so
    the analyses that depend only on them (the normal-form regime, the edge
    orders, the expansions of each edge) are computed once per graph and
    cached in the private _memo, as on core.OpTableSemigroup.
    """

    def __init__(self, sl: Semilattice, mon, edges, restrict=None, corestrict=None):
        self._number(sl, mon, edges)
        self._restrict = restrict
        self._corestrict = corestrict
        self.has_restrictions = restrict is not None and corestrict is not None
        self.restrict_table = self._table(restrict, 0)
        self.corestrict_table = self._table(corestrict, 2)

    @classmethod
    def from_tables(cls, sl: Semilattice, mon, edges, restrict_table, corestrict_table):
        """The graph on edges, a sorted list without repeats, with the given
        tables: rows numbered as edges, entries as in the constructor.  It
        has both maps and keeps no dicts: a table holds only edge ids, so
        its -1 entries below an edge's end are undefined."""
        G = cls.__new__(cls)
        G._number(sl, mon, edges, edges)
        G.restrict_table, G.corestrict_table = restrict_table, corestrict_table
        G._restrict = G._corestrict = None
        G.has_restrictions = True
        return G

    def _number(self, sl, mon, edges, edge_list=None):
        """Check the edges in the order given, then number edge_list, by
        default the sorted edges."""
        n = sl.n
        for (d, lab, r) in edges:
            if not (type(d) is int and type(r) is int and 0 <= d < n and 0 <= r < n):
                raise ValueError(f"edge ({d},{lab!r},{r}) has a bad vertex")
            mon.check_label(lab)
        self.sl = sl
        self.mon = mon
        self.edges = frozenset(edges)
        self._edge_list = edge_list = sorted(self.edges) if edge_list is None else edge_list
        self.edge_id = {c: i for i, c in enumerate(edge_list)}
        self._out = {}
        for c in edge_list:
            self._out.setdefault(c[0], []).append(c)
        self._memo = {}

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

    def sorted_edges(self):
        return list(self._edge_list)

    def edges_from(self, v: int):
        return self._out.get(v, [])

    def edge_str(self, c) -> str:
        d, lab, r = c
        return f"({self.sl.name(d)},{self.mon.label_str(lab)},{self.sl.name(r)})"

    def restrict(self, c, g: int):
        return self._move(c, g, 0)

    def corestrict(self, c, h: int):
        return self._move(c, h, 2)

    def _move(self, c, v, end):
        table = self.restrict_table if end == 0 else self.corestrict_table
        try:
            i = table[self.edge_id[c]][v]
        except (KeyError, IndexError, TypeError):
            i = -1
        if i >= 0 and v >= 0:
            return self._edge_list[i]
        # the error for a table entry of -1 (or a bad argument)
        given, kind = ((self._restrict, "restriction") if end == 0
                       else (self._corestrict, "corestriction"))
        if c not in self.edges:
            raise ValueError(f"{c!r} is not an edge")
        if not self.sl.leq(v, c[end]):
            raise RestrictionUndefinedError(
                f"{kind} of {self.edge_str(c)} to non-lower vertex {v}")
        if given is None and not self.has_restrictions:
            raise RestrictionUndefinedError(f"graph has no {kind} structure")
        out = None if given is None else given.get((c, v))
        if out is None:
            raise RestrictionUndefinedError(
                f"{kind} of {self.edge_str(c)} to {self.sl.name(v)} is undefined")
        raise not_an_edge(self.sl, self.mon, kind, c, v, out)


def not_an_edge(sl: Semilattice, mon, kind: str, c, v: int, out) -> RestrictionUndefinedError:
    """The error for a restriction or corestriction (kind) of the edge c to
    the vertex v that gives out, which is not an edge."""
    d, lab, r = c
    return RestrictionUndefinedError(
        f"{kind} of ({sl.name(d)},{mon.label_str(lab)},{sl.name(r)}) to {sl.name(v)} "
        f"gives {out!r}, which is not an edge")


class Side:
    """Restriction (end 0) or corestriction (end 2) of a graph, with its
    table read once.  End 0 moves the source of an edge and folds a path
    left to right; end 2 moves the target and folds right to left.  Every
    law is written once over a Side: edges are handled by id and turned back
    into triples only for witnesses.  Where the table holds -1 the graph's
    own map is called, so the error raised is the map's.  The edge list is
    the graph's own, shared and only read."""

    def __init__(self, G, end: int):
        self.sl, self.ids, self.edges = G.sl, G.edge_id, G._edge_list
        self.end, self.far = end, 2 - end
        # the position in a path of the edge moved first
        self.first = 0 if end == 0 else -1
        self.kind, self.prefix, self.map, self.table = (
            ("restriction", "R", G.restrict, G.restrict_table) if end == 0
            else ("corestriction", "CR", G.corestrict, G.corestrict_table))

    def id(self, i: int, v: int) -> int:
        """The id of edge i moved to v."""
        j = self.table[i][v]
        if j < 0:
            self.map(self.edges[i], v)
        return j

    def index(self, c) -> int:
        """The id of edge c; a non-edge raises as the map does."""
        i = self.ids.get(c)
        if i is None:
            self.map(c, c[self.end])
        return i

    def moves(self, i: int):
        """The ids of edge i moved to each vertex below its end, in order."""
        return (self.id(i, v) for v in self.sl.below(self.edges[i][self.end]))

    def triples(self, p) -> tuple:
        return tuple(self.edges[i] for i in p)

    def fold(self, p, v: int) -> tuple:
        """The path p of edge ids moved so that its end is v: the edges are
        moved from that end on, each to the far end of the one before."""
        edges, table, far = self.edges, self.table, self.far
        if self.sl.meet[v][edges[p[self.first]][self.end]] != v:
            raise RestrictionUndefinedError(
                f"{v} is not below the path {'source' if self.end == 0 else 'target'}")
        out = list(p)
        for k in (range(len(p)) if self.end == 0 else range(len(p) - 1, -1, -1)):
            j = table[p[k]][v]
            if j < 0:
                self.map(edges[p[k]], v)
            out[k] = j
            v = edges[j][far]
        return tuple(out)

    def path(self, p, v: int) -> tuple:
        """fold for a path of edge triples."""
        return self.triples(self.fold(tuple(map(self.index, p)), v))


def rectangle_graph(sl: Semilattice, mon, edges) -> ResGraph:
    """The graph on edges with the restriction that keeps targets and the
    corestriction that keeps sources, identity loops staying loops; an edge
    set closed downwards at both ends per label carries these maps."""
    def moved(c, v, end):
        far = v if mon.is_identity(c[1]) else c[2 - end]
        return (v, c[1], far) if end == 0 else (far, c[1], v)

    return ResGraph(sl, mon, edges, *({(c, v): moved(c, v, end) for c in edges
                                       for v in sl.below(c[end])} for end in (0, 2)))


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
    return reduce(G.mon.mul, (c[1] for c in p[1:]), p[0][1])


def restrict_path(G: ResGraph, p, e: int) -> tuple:
    """Left-to-right fold of edge restriction; source becomes e."""
    return Side(G, 0).path(p, e)


def corestrict_path(G: ResGraph, p, f: int) -> tuple:
    """Right-to-left fold of edge corestriction; target becomes f."""
    return Side(G, 2).path(p, f)


# ---------------------------------------------------------------------------
# axiom checking

def _chain_moves(G: ResGraph, R: Side, C: Side):
    """(starts, moves) of the chain search of check_axioms, which defines
    the states.  starts maps the state of each edge to the edge as a
    chain; moves(s) lists ((c,), t) for each edge c out of the target, in
    id order, t the state of the chain followed by c, and leaves out the
    chains that can never close.  A row holds -1 where v is not below the
    near end or the fold is undefined, and a last -1 that index -1 reads."""
    edges, ids, mul, below, n = R.edges, R.ids, G.mon.mul, R.sl.below, R.sl.n
    # steps[i][v]: the far end of edge i moved to v; wants[c][v]: the far
    # end R4 asks of a chain with composite edge c, -2 where c moved to v is
    # not a c-labelled edge at v.  The laws run on total maps, so a table
    # entry is -1 exactly where v is not below the edge's end.
    steps, wants = [], []
    for s in (R, C):
        fars = [c[s.far] for c in edges] + [-1]
        steps.append([tuple(map(fars.__getitem__, row)) + (-1,) for row in s.table])
        wants.append([])
        for c, row, step in zip(edges, s.table, steps[-1]):
            want = list(step)
            for v in below(c[s.end]):
                x = edges[row[v]]
                if x[s.end] != v or x[1] != c[1]:
                    want[v] = -2
            wants[-1].append(tuple(want))
    rwants, cwants = wants
    closable = [{c[1][:k] for c in G.edges_from(v) for k in range(len(c[1]) + 1)}
                for v in range(n)] if G.mon.is_free else None
    starts, nexts = {}, [[] for _ in range(n)]
    for c, rstep, cstep in zip(edges, *steps):
        starts[c + (rstep, cstep)] = (c,)
        # rows have n + 1 >= 2 entries, so an itemgetter of one gives a tuple
        nexts[c[0]].append(((c,), c[1], c[2], rstep, itemgetter(*cstep)))

    def first_off(row, want, v):
        return -1 if row == want else next((u for u in below(v) if row[u] != want[u]), -1)

    def moves(state):
        if len(state) == 3:
            return ()
        d, lab, r, rrow, crow = state
        folded, out = itemgetter(*rrow), []
        for step, a, t, rstep, unfolded in nexts[r]:
            label = mul(lab, a)
            if closable is not None and label not in closable[d]:
                continue
            rrow2, crow2 = folded(rstep), unfolded(crow)
            comp = ids.get((d, label, t), -1)
            out.append((step, (d, label, t, rrow2, crow2) if comp < 0 else (
                comp, first_off(rrow2, rwants[comp], d), first_off(crow2, cwants[comp], t))))
        return out

    return starts, moves


def _chain_laws(G: ResGraph, R: Side, C: Side, max_chain: int | None) -> list:
    """R4 and CR4 off one saturate over the chain states (see check_axioms)
    of the chains up to max_chain, or of every length when it is None."""
    starts, moves = _chain_moves(G, R, C)
    # one level past the cap: a state there means the cap cut the search
    states = saturate(starts, lambda s: [t for _, t in moves(s)], max_chain)
    cut = max_chain is not None and max(states.values()) >= max_chain
    verdicts = [s for s, k in states.items()
                if len(s) == 3 and (max_chain is None or k < max_chain)]
    failing = [next((v for v in verdicts if v[i] >= 0), None) for i in (1, 2)]
    paths = first_paths(states, moves, starts) if any(failing) else None
    return [Check(s.prefix + "4", FAIL, (paths[f], f[i])) if f
            else Check(s.prefix + "4", INCONCLUSIVE, ("chain cap reached", max_chain)) if cut
            else Check(s.prefix + "4", PASS) for s, i, f in zip((R, C), (1, 2), failing)]


def _edge_laws(s: Side, r4: Check, one) -> list:
    """R1-R5 on the restriction side, CR1-CR5 on the corestriction side,
    R4 (CR4) given.  With total maps a left side is undefined only where R1
    (CR1) fails, by moving an image to a vertex not below its end; that
    fails the law."""
    edges, table, end, far = s.edges, s.table, s.end, s.far
    below, meet = s.sl.below, s.sl.meet

    def r1():
        for c, row in zip(edges, table):
            for v in below(c[end]):
                x = edges[row[v]]
                if x[end] != v or x[1] != c[1] or meet[x[far]][c[far]] != x[far]:
                    yield (c, v, x)

    def r3():
        for c, row in zip(edges, table):
            for g in below(c[end]):
                twice = table[row[g]]
                yield from ((c, g, h) for h in below(g) if twice[h] != row[h])

    loop = [s.ids[(e, one, e)] for e in range(s.sl.n)]
    return [
        first_witness(s.prefix + "1", r1()),
        first_witness(s.prefix + "2", (
            (c,) for i, (c, row) in enumerate(zip(edges, table)) if row[c[end]] != i)),
        first_witness(s.prefix + "3", r3()),
        r4,
        first_witness(s.prefix + "5", (
            (e, f) for e in range(s.sl.n) for f in below(e)
            if table[loop[e]][f] != loop[f]))]


def _compatibility(R: Side, C: Side):
    """Law C: restricting and corestricting an edge commute, and land on the
    meets of its ends with the two vertices."""
    edges, rt, ct = R.edges, R.table, C.table
    below, meet = R.sl.below, R.sl.meet
    for i, c in enumerate(edges):
        for g in below(c[0]):
            rc = rt[i][g]
            for h in below(c[2]):
                ch = ct[i][h]
                m, n = meet[edges[rc][2]][h], meet[g][edges[ch][0]]
                if ct[rc][m] != rt[ch][n] or edges[ct[rc][m]] != (n, c[1], m):
                    yield (c, g, h)


def check_axioms(G: ResGraph, max_chain: int | None = None) -> Report:
    """Machine-check the edge-level restriction/corestriction axioms.

    The chain axioms R4 and CR4 quantify over edge chains of every length:
    a chain p of length >= 2 from d to r with a composite edge e, the edge
    (d, label of p, r), needs e restricted to each v <= d to be the edge
    from v with that label to where p folded to v ends (R4), and dually for
    corestriction (CR4).  The witness is the first failing chain in path
    order (by length, then prefix, then last edge id) with the first
    failing v.  They are decided at every length, or for the chains up to
    max_chain when it is given.

    Implied chains.  A chain is implied when a proper prefix p1 of it, of
    length >= 2, has a composite edge e.  For p = p1 p2, e p2 has the
    composite edge of p, and the fold of p at v is the fold of p1 at v
    followed by that of p2 from where it ends, so R4 for p at v follows
    from R4 for p1 at v and for e p2 at v; CR4 likewise, with p1 taken at
    the source of the folded p2.  Both shorter chains come earlier by
    length, so a failing implied chain has an earlier failing chain: the
    first witness is never implied, and by induction on length the laws
    hold for every chain when they hold for those that are not implied.
    So a chain with a composite edge is checked and not extended.  Over a
    free monoid labels only grow, and a composite edge starts at the
    chain's source with the chain's label; so a chain whose label is no
    prefix of an edge label out of its source has no composite edge, nor
    has any extension of it, and it is not extended either.

    States.  The state of a chain (_chain_moves) is its source, label,
    target and its two fold rows: the far end of the chain folded to each
    vertex, on each side.  The composite edge is looked up by the first
    three, and a law at v compares a row at v with that edge moved to v;
    the state of p c is the state of p with c's label multiplied in, c's
    target, and each row one table step on.  So chains with one state have
    one verdict and, edge by edge, extensions with one state.  A chain
    with a composite edge has the state (composite id, first failing v for
    R4 or -1, the same for CR4).  core.saturate, breadth-first from the
    states of the edges keeping only new states, reaches at level k the
    states of the chains of length k + 1 that are checked or extended and
    not reached earlier.  There are finitely many: sources and targets are
    vertices, labels are monoid elements, or over a free monoid prefixes
    of the finitely many edge labels out of the source, and rows are
    tuples over -1..n-1.  So the search stops after at most as many levels
    as there are states, at the first level that adds none; no later level
    would add one, and the verdict states reached are those of the chains
    of every length.  Under max_chain = k the search runs to level k, one
    past the chains up to length k, and reads the verdicts of the levels
    below k.  A state at level k means the cap cut the search short: a law
    that no chain up to k fails is then INCONCLUSIVE, with the witness
    ("chain cap reached", k), since a longer chain may fail it.

    Witnesses.  The representative of a state is the first chain with it
    in path order; core.first_paths rebuilds them, only when a law fails,
    and they come in the order of the states, as the search steps each
    state by the edges out of its target in id order.  The first failing
    chain F (up to the cap) is not implied, and no prefix of it is
    dropped, as it has a composite edge; so its state is reached, a
    verdict state.  The representative of that state fails at the same v
    and is not after F, so it is F, and the states before it have
    representatives before F, none failing: the witness is the
    representative of the first failing verdict state.
    """
    sl, mon = G.sl, G.mon
    one = mon.one
    sides = Side(G, 0), Side(G, 2)
    edges = sides[0].edges
    checks = [first_witness("identity_loops_present", (
        (e,) for e in range(sl.n) if (e, one, e) not in G.edges))]
    checks += [first_witness(s.kind + "_total", (
        (c, v) for c, row in zip(edges, s.table) for v in sl.below(c[s.end])
        if row[v] < 0)) for s in sides]

    # the remaining axioms evaluate restrictions of identity loops and are
    # only meaningful once the structural checks hold
    if not all(c.ok for c in checks):
        return Report(checks)

    for s, r4 in zip(sides, _chain_laws(G, *sides, max_chain)):
        checks += _edge_laws(s, r4, one)
    checks.append(first_witness("C", _compatibility(*sides)))

    if not mon.is_free:
        # the (target, label) states of all paths
        states = saturate(((c[2], c[1]) for c in edges), lambda state: (
            (c[2], mon.mul(state[1], c[1])) for c in G.edges_from(state[0])))
        labels = {lab for _, lab in states}
        missing = tuple(t for t in mon.elements() if t not in labels)
        checks.append(Check("every_label_has_a_path", FAIL if missing else PASS,
                            missing or None))

    return Report(checks)


# the edge laws the proof in path_laws reads, with the structural
# checks that check_axioms passes before it runs any law
_PATH_PREMISES = ("identity_loops_present", "restriction_total", "corestriction_total",
                  "R1", "R3", "CR1", "CR3", "C")


def path_laws(edge_report: Report) -> Report:
    """The path laws R3a, R4a, CR3a, CR4a and Ca, read off check_axioms'
    report on a graph.

    The laws hold for every path, of any length, when the edge laws named
    next hold.  The edge laws are check_axioms' rows: the totality checks,
    R1, R3, CR1, CR3 and C (check_axioms runs the laws once identity loops
    are present and the maps are total).  None of them reads the chains, so
    they are the same at every max_chain.  Where all of them pass, the five
    path laws PASS; otherwise each is INCONCLUSIVE, with the witness
    ("edge laws fail", <the names of the failing checks>).  Write p|e for
    the path p = c_1 ... c_n restricted to e (folded left to right: c_1 to
    x_0 = e, then c_i to x_{i-1}, the target of the edge before), and p°f
    for p corestricted to f (right to left: c_n to z_n = f, then c_i to
    z_i, the source of the edge after).  By totality and R1 every x_i is
    below the source of c_{i+1}, so p|e is defined; dually by CR1 for p°f.

    R3a, (p|e)|g = p|g for g <= e, by induction along the path.  Let y_i
    be the vertices of p|g, so y_0 = g <= e = x_0; on the first edge the
    law is R3.  If y_{i-1} <= x_{i-1}, then R3 gives (c_i|x_{i-1})|y_{i-1}
    = c_i|y_{i-1}, and by R1 its target y_i is below the target x_i of
    c_i|x_{i-1}.  So the next edge is moved to the same vertex on both
    sides, and the two folds agree edge by edge.  CR3a is the dual, by
    CR1 and CR3 from the last edge back.

    R4a, (p q)|e = (p|e)(q|r), where r is the target of p|e, and CR4a,
    (p q)°f = (p°s)(q°f), where s is the source of q°f, each compare two
    evaluations of one fold: the left-to-right fold of p q runs through p
    and then on through q from where p|e ends, and the right-to-left fold
    likewise through q and then p.  They can fail only by raising, and
    totality with R1 (CR1) keeps every step of both defined.

    Ca, (p|e)°(r ∧ f) = (p°f)|(s ∧ e), where r is the target of p|e and s
    the source of p°f.  Let u_i = x_i ∧ z_i.  Law C on the edge c_i with
    g = x_{i-1} and h = z_i says that (c_i|x_{i-1})°u_i = (c_i°z_i)|u_{i-1}
    and that this edge runs from u_{i-1} to u_i.  On the left, the fold
    starts at r ∧ f = u_n and corestricts c_n|x_{n-1} to u_n, which C puts
    at source u_{n-1}, where the next edge is corestricted, and so on; on
    the right it starts at s ∧ e = u_0 and restricts c_1°z_1 to u_0, which
    C puts at target u_1.  Both sides are the path through u_0, ..., u_n.
    """
    failing = tuple(c.name for c in edge_report.checks
                    if c.name in _PATH_PREMISES and not c.ok)
    status, witness = (INCONCLUSIVE, ("edge laws fail",) + failing) if failing else (PASS, None)
    return Report([Check(name, status, witness) for name in ("R3a", "R4a", "CR3a", "CR4a", "Ca")])


def check_path_axioms(G: ResGraph, bound: int = 3) -> Report:
    """The path laws of G (see path_laws); they hold for paths of every
    length, so bound only names the length the caller asked about."""
    return path_laws(check_axioms(G, max_chain=2))


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


def cover_shape_problem(G: ResGraph):
    """Why G is not cover-shaped, or None when it is: labels are single
    letters of a free monoid or the empty word, and the empty-word edges are
    loops."""
    if not G.mon.is_free:
        return "criterion needs free-monoid labels"
    for (d, lab, r) in G.sorted_edges():
        if len(lab) > 1:
            return f"label {lab!r} is not a letter or identity"
        if len(lab) == 0 and d != r:
            return f"identity-labelled edge ({d},{r}) is not a loop"
    return None


_PM_FORM, _COVER_FORM = "partial multiaction normal form", "cover normal form"


@_memoised
def _normal_form(G: ResGraph):
    """The normal-form regime that decides ~ on G, as its reason string, or
    None outside both.  Decided once per graph."""
    if check_pm(G) is None:
        return _PM_FORM
    if cover_shape_problem(G) is None:
        return _COVER_FORM
    return None


def equivalent_paths(G: ResGraph, p, q, max_nodes: int = 20000,
                     max_len: int | None = None) -> Check:
    """Semi-decide whether two paths are identified by the congruence ~.

    Endpoint or label disagreement is an immediate FAIL.  In the two
    normal-form regimes (partial multiaction; cover-shaped graph) the
    answer is exact; otherwise a bounded bidirectional search over
    contract/expand moves (core.contract_expand_neighbours) returns PASS or
    INCONCLUSIVE.  The witness is the one-tuple of the reason for the
    verdict.  The regime is decided once per graph, and the expansions of
    an edge under a length cap are enumerated once per graph, in a table of
    G's memo keyed by (edge, cap): they depend only on G's edges, out-lists
    and monoid, so every call sees the lists, in the order, that a fresh
    enumeration gives.
    """
    p, q = make_path(G, p), make_path(G, q)
    if path_d(p) != path_d(q) or path_r(p) != path_r(q):
        return Check("equivalent_paths", FAIL, ("endpoints differ",))
    if path_label(G, p) != path_label(G, q):
        return Check("equivalent_paths", FAIL, ("labels differ",))
    if p == q:
        return Check("equivalent_paths", PASS, ("equal paths",))

    regime = _normal_form(G)
    if regime == _PM_FORM:
        # the normal form (d, label, r) is what was just compared
        return Check("equivalent_paths", PASS, (regime,))
    if regime == _COVER_FORM:
        nf_p = tuple(c for c in p if c[1])
        nf_q = tuple(c for c in q if c[1])
        status = PASS if nf_p == nf_q else FAIL
        return Check("equivalent_paths", status, (regime,))

    if max_len is None:
        max_len = max(len(p), len(q)) + 2

    mul = G.mon.mul

    def times(c, e):  # the composite of a block, then edge e
        return (c[0], mul(c[1], e[1]), e[2])

    expansions = G._memo.setdefault("expansions", {})

    def expand(c, cap):
        out = expansions.get((c, cap))
        if out is None:
            out = expansions[c, cap] = _expansions_of_edge(G, c, cap)
        return out

    seen = {p: 0, q: 1}
    frontier = deque([p, q])
    while frontier:
        if len(seen) > max_nodes:
            return Check("equivalent_paths", INCONCLUSIVE, ("node budget exhausted",))
        cur = frontier.popleft()
        side = seen[cur]
        for nb in contract_expand_neighbours(cur, times, G.edges, expand, max_len):
            if nb in seen:
                if seen[nb] != side:
                    return Check("equivalent_paths", PASS, ("search met",))
                continue
            seen[nb] = side
            frontier.append(nb)
    return Check("equivalent_paths", INCONCLUSIVE, ("search saturated within length cap",))
