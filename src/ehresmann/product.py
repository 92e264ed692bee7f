"""The Ehresmann semigroup built from a labelled graph with restrictions.

When the graph is a partial multiaction (edges closed under composable
label products), path classes are single edges and the whole semigroup is
a finite operation table: c . d corestricts c and restricts d to the meet
of the adjacent endpoints and composes the results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import getitem

from . import core
from .core import OpTableSemigroup
from .report import Check, FAIL, PASS, Report, first_witness
from .resgraph import (FiniteMonoid, ResGraph, Semilattice, Side, check_pm,
                       cover_shape_problem)


class PMViolationError(ValueError):
    """A composable pair of edges has no composite edge."""

    check = "partial multiaction"

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"missing composite edge for {witness!r}")


class MissingProductError(ValueError):
    """The product of two edges is a triple that is not an edge."""

    check = "edge product"

    def __init__(self, c, d, triple):
        self.witness = (c, d, triple)
        super().__init__(f"product of {c!r} and {d!r} is {triple!r}, which is not an edge")


class InapplicableError(ValueError):
    """Operation precondition not met by this graph."""


def projection_semilattice(S: OpTableSemigroup):
    """P(S) as a Semilattice, with maps between projection elements of S
    and semilattice indices."""
    P = core.projections(S)
    index = {e: i for i, e in enumerate(P)}
    outside = next(((e, f) for e in P for f in P if S.mult[e][f] not in index), None)
    if outside is not None:
        e, f = outside
        raise ValueError(f"product of projections {e} and {f} is {S.mult[e][f]}, "
                         "which is not a projection")
    meet = [[index[S.mult[e][f]] for f in P] for e in P]
    names = [S.name(e) for e in P]
    return Semilattice(len(P), meet, names), list(P), index


def build_product(G: ResGraph):
    """Operation table of the product semigroup over the edge set.

    Requires the graph to satisfy (PM) and to carry total restriction and
    corestriction maps; full axiom conformance is the caller's business
    (see resgraph.check_axioms).

    The composite of each composable pair is read once into comp[x][y], by
    edge id, in check_pm's order, so the first missing one is check_pm's
    witness.  Row i is gathered as comp[x_j][y_j] for x_j, y_j edge i
    corestricted and edge j restricted to their meet; index -1 reads the
    sentinel -1 ending each list.  A row holding -1 (an undefined move, a
    composite that is not an edge, or a pair that inconsistent tables make
    non-composable) is recomputed pair by pair by the definition, so the
    first error in row order, with its type and message, is the
    definition's.  Each row is handed over in core.row_form.
    """
    edges, ids, mul = G.sorted_edges(), G.edge_id, G.mon.mul
    blank = [-1] * (len(edges) + 1)
    comp = []
    for c in edges:
        row, x, lab = blank[:], c[0], c[1]
        for d in G.edges_from(c[2]):
            z = ids.get((x, mul(lab, d[1]), d[2]))
            if z is None:
                raise PMViolationError((c, d))
            row[ids[d]] = z
        comp.append(row)
    comp.append(blank)
    one = G.mon.one
    loops = [ids.get((e, one, e)) for e in range(G.sl.n)]
    if None in loops:
        raise ValueError(f"missing identity loop at vertex {loops.index(None)}")
    meet, rtab, ctab = G.sl.meet, G.restrict_table, G.corestrict_table
    sources = [d[0] for d in edges]
    # per target of a left factor: the meet with each source, and each
    # right factor restricted to it
    at_target, R = {}, core.row_form(len(edges))
    mult = []
    for c, crow in zip(edges, ctab):
        gather = at_target.get(c[2])
        if gather is None:
            ms = list(map(meet[c[2]].__getitem__, sources))
            gather = at_target[c[2]] = ms, list(map(getitem, rtab, ms))
        ms, ys = gather
        row = list(map(getitem, map(comp.__getitem__, map(crow.__getitem__, ms)), ys))
        if -1 in row:
            row = [_edge_product(G, c, d) for d in edges]
        mult.append(R.row(row))
    plus = list(map(loops.__getitem__, sources))
    star = [loops[c[2]] for c in edges]
    names = [G.edge_str(c) for c in edges]
    return OpTableSemigroup(len(edges), mult, plus, star, names), edges


def _edge_product(G: ResGraph, c, d) -> int:
    """The id of c . d by the definition: an undefined move raises the
    map's error, and a composite that is not an edge MissingProductError."""
    m = G.sl.meet[c[2]][d[0]]
    x, y = G.corestrict(c, m), G.restrict(d, m)
    composite = (x[0], G.mon.mul(x[1], y[1]), y[2])
    if composite not in G.edge_id:
        raise MissingProductError(c, d, composite)
    return G.edge_id[composite]


@core._memoised
def edge_orders(G: ResGraph):
    """The edge orders <=_l, <=_r and <= as down-sets of edge ids: u <=_l v
    when u is a restriction of v, u <=_r v when u is a corestriction of v,
    and u <= v when u is a corestriction of a restriction of v.  Computed
    once per graph; callers only read the sets."""
    R, C = Side(G, 0), Side(G, 2)
    down_l, down_r = ([set(s.moves(i)) for i in range(len(s.edges))] for s in (R, C))
    return down_l, down_r, [set().union(*(down_r[m] for m in ms)) for ms in down_l]


def edge_le(G: ResGraph, u, v) -> bool:
    """u <= v in the edge order: u is a corestriction of a restriction of v."""
    R, C = Side(G, 0), Side(G, 2)
    u = R.ids.get(u)
    return any(u in C.moves(m) for m in R.moves(R.index(v)))


def check_construction_claims(G: ResGraph, built=None) -> Report:
    """Verify the structure-theorem claims about the product semigroup:
    sigma refines label fibers, the natural orders are restriction
    reachability, and the projections form a copy of the vertex
    semilattice."""
    S, edges = built if built is not None else build_product(G)
    cong, _ = core.sigma(S)
    checks = [first_witness("sigma_implies_equal_labels", (
        tuple(edges[i] for i in cls[:2]) for cls in cong.classes
        if len({edges[i][1] for i in cls}) > 1))]

    orders = core.natural_orders(S)
    rng = range(S.n)
    for name, table, down in zip(
            ("le_l_is_restriction_reachability", "le_r_is_corestriction_reachability",
             "le_is_two_sided_reachability"),
            (orders.le_l, orders.le_r, orders.le), edge_orders(G)):
        checks.append(first_witness(name, (
            (edges[i], edges[j]) for i in rng for j in rng
            if table[i][j] != (i in down[j]))))

    one = G.mon.one
    P = core.projections(S)
    expected = {(e, one, e) for e in range(G.sl.n)}
    actual = {edges[i] for i in P}
    if actual != expected:
        checks.append(Check("projections_are_identity_loops", FAIL,
                            (tuple(sorted(actual)),)))
    else:
        loop_at = {edges[i][0]: i for i in P}
        meet, vertices = G.sl.meet, range(G.sl.n)
        checks.append(first_witness("projections_are_identity_loops", (
            (e, f) for e in vertices for f in vertices
            if edges[S.mult[loop_at[e]][loop_at[f]]] != (meet[e][f], one, meet[e][f]))))
    return Report(checks)


def check_properness_criterion(G: ResGraph) -> bool:
    """Common-upper-bound test for same-letter edges.

    Applies to graphs labelled by single letters of a free monoid or the
    empty word, with empty-word edges exactly the identity loops.  True
    means every pair of edges sharing a non-identity label lies below a
    common edge in the edge order, which forces the sigma classes of the
    product to be exactly the label fibers.
    """
    problem = cover_shape_problem(G)
    if problem is not None:
        raise InapplicableError(problem)
    by_letter = {}
    for i, c in enumerate(G.sorted_edges()):
        if c[1]:
            by_letter.setdefault(c[1], []).append(i)
    down = edge_orders(G)[2]
    return all(any(u in down[w] and v in down[w] for w in group)
               for group in by_letter.values()
               for k, u in enumerate(group) for v in group[k:])


@dataclass
class UnderlyingGraphResult:
    graph: ResGraph
    to_element: dict      # edge -> element of S in Y
    of_element: dict      # element of S in Y -> edge
    cong: core.Congruence
    quotient: OpTableSemigroup
    proj_list: list
    proj_index: dict


def underlying_graph(S: OpTableSemigroup, Y=None) -> UnderlyingGraphResult:
    """The labelled graph on P(S) whose edges are the triples of Y-elements.

    Y must contain the projections, be an order ideal and consist of proper
    elements; the restriction of an edge to g is the triple of g*a, the
    corestriction to h the triple of a*h.
    """
    Yset = core.ideal_members(S, Y)
    bad = next((c for c in core.ideal_checks(S, Yset) if not c.ok), None)
    if bad is not None:
        raise ValueError(f"Y fails {bad.name}: witness={bad.witness!r}")
    cong, quotient = core.sigma(S)
    sl, proj_list, proj_index = projection_semilattice(S)

    mon = FiniteMonoid(quotient.n, quotient.mult, cong.class_of[proj_list[0]],
                       quotient.names)
    of_element, to_element = {}, {}
    for a in sorted(Yset):
        edge = (proj_index[S.plus[a]], cong.class_of[a], proj_index[S.star[a]])
        if edge in to_element:
            raise core.InvariantError(
                f"triple map not injective on Y: {to_element[edge]} and {a} give {edge}")
        of_element[a] = edge
        to_element[edge] = a

    m, restrict, corestrict = S.mult, {}, {}
    for a, edge in of_element.items():
        restrict.update(((edge, g), of_element[m[proj_list[g]][a]])
                        for g in sl.below(edge[0]))
        corestrict.update(((edge, h), of_element[m[a][proj_list[h]]])
                          for h in sl.below(edge[2]))
    graph = ResGraph(sl, mon, set(to_element), restrict, corestrict)
    return UnderlyingGraphResult(graph, to_element, of_element, cong,
                                 quotient, proj_list, proj_index)


def structure_iso_check(S: OpTableSemigroup, Y=None) -> Report:
    """Check that a |-> (a^+, [a], a^*) is an isomorphism onto the product
    of the underlying graph.  Requires a strictly proper S (Y defaults to
    all of S)."""
    Yset = core.ideal_members(S, Y)
    fib = core.fibers(S)
    first_in_Y = {a: min(Yset.intersection(fib[a])) for a in Yset}
    checks = [first_witness("triple_map_injective", (
        (first_in_Y[a], a) for a in sorted(Yset) if first_in_Y[a] != a))]
    if not checks[0].ok:
        return Report(checks)
    whole = Yset == frozenset(range(S.n))
    if not whole:
        failed = [c for c in core.ideal_checks(S, Yset) if not c.ok]
        if failed:
            return Report(checks + failed)

    ug = underlying_graph(S, Yset)
    pm_witness = check_pm(ug.graph)
    checks.append(Check("underlying_graph_is_partial_multiaction",
                        FAIL if pm_witness else PASS, pm_witness))
    if pm_witness is not None:
        return Report(checks)
    # the product has one element per member of Y, so S maps into it only
    # when Y is all of S
    if not whole:
        outside = next(a for a in range(S.n) if a not in Yset)
        return Report(checks + [Check("triple_map_defined_on_S", FAIL, (outside,))])

    S2, _ = build_product(ug.graph)
    psi = [ug.graph.edge_id[ug.of_element[a]] for a in range(S.n)]
    return Report(checks + core.isomorphism_checks(S, S2, psi, lambda a: a))


def round_trip_check(G: ResGraph) -> Report:
    """Build the product of G, recover its underlying graph, and check it is
    isomorphic to G (vertex by vertex, with labels matched through the
    sigma classes).  Needs sigma classes to be exactly the label fibers."""
    checks = []
    S, edges = build_product(G)
    cong, _ = core.sigma(S)

    # every class's label is that of its first edge; sigma refines the label
    # fibers when no edge disagrees with it, and coarsens them when no
    # label spans two classes
    label_of_class = [edges[cls[0]][1] for cls in cong.classes]
    classes_of_label = {}
    for i, c in enumerate(edges):
        classes_of_label.setdefault(c[1], set()).add(cong.class_of[i])
    checks.append(first_witness("sigma_classes_are_label_fibers", itertools.chain(
        ((c,) for i, c in enumerate(edges)
         if c[1] != label_of_class[cong.class_of[i]]),
        ((lab,) for lab, classes in classes_of_label.items() if len(classes) > 1))))
    if not checks[0].ok:
        return Report(checks)

    ug = underlying_graph(S)
    one = G.mon.one
    # underlying vertex j is the projection (e,1,e) of the product; read e back
    vertex_map = {}
    for j, elem in enumerate(ug.proj_list):
        loop = edges[elem]
        if loop[1] != one or loop[0] != loop[2]:
            raise core.InvariantError(
                f"projection {elem} of the product is {loop!r}, not an identity loop")
        vertex_map[j] = loop[0]

    recovered = {(vertex_map[d], label_of_class[cls], vertex_map[r])
                 for (d, cls, r) in ug.graph.edges}
    diff = sorted(recovered ^ set(G.edges))
    checks.append(Check("edge_sets_match", FAIL if diff else PASS,
                        (tuple(diff[:2]),) if diff else None))
    if diff:
        return Report(checks)

    # compare restriction actions through the correspondence
    def translate(c):
        return (vertex_map[c[0]], label_of_class[c[1]], vertex_map[c[2]])

    sides = {end: (Side(ug.graph, end), Side(G, end)) for end in (0, 2)}

    def mismatch(i, c, end):
        # the first vertex where moving c and moving its translation disagree
        mine, theirs = sides[end]
        g_edge = translate(c)
        j = theirs.index(g_edge)
        return next(((g_edge, vertex_map[v])
                     for v, x in zip(mine.sl.below(c[end]), mine.moves(i))
                     if translate(mine.edges[x])
                     != theirs.edges[theirs.id(j, vertex_map[v])]), None)

    def mismatches():
        for i, c in enumerate(ug.graph.sorted_edges()):
            bad = [mismatch(i, c, end) for end in (0, 2)]
            if bad[0] or bad[1]:
                yield bad[1] or bad[0]

    checks.append(first_witness("restrictions_match", mismatches()))
    return Report(checks)
