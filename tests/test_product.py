import collections
import random

import pytest

from ehresmann import actions, core, corpus, cover, resgraph
from ehresmann.product import (InapplicableError, PMViolationError,
                               build_product, check_construction_claims,
                               check_pm, check_properness_criterion, edge_le,
                               round_trip_check, structure_iso_check,
                               underlying_graph)
from ehresmann.resgraph import FreeMonoid, ResGraph, Semilattice

from oracles import parent_build_product, product_outcome, random_partial_action


def test_singleton_product_is_label_monoid():
    mon = corpus.flip_flop_monoid()
    S, edges = build_product(corpus.singleton_graph(mon))
    assert S.n == 3
    assert len(core.projections(S)) == 1  # reduced
    idx = {c: i for i, c in enumerate(edges)}
    for s in mon.elements():
        for t in mon.elements():
            prod = S.mult[idx[(0, s, 0)]][idx[(0, t, 0)]]
            assert edges[prod] == (0, mon.mul(s, t), 0)


def test_e2t2_product_frozen_table():
    """Hand evaluation of the product on the two-chain example.

    With f < e and edges c0=(f,1,f), c1=(f,t,f), c2=(e,1,e), c3=(e,t,f):
    everything with target f corestricts to itself, so the c3 row is
    constant c3, while left factors at f pull e-sourced edges down.
    """
    S, edges = build_product(corpus.e2t2_graph())
    assert edges == [(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 0)]
    c0, c1, c2, c3 = range(4)
    expected_mult = [
        [c0, c1, c0, c1],
        [c1, c1, c1, c1],
        [c0, c1, c2, c3],
        [c3, c3, c3, c3],
    ]
    assert S.mult == expected_mult
    assert S.plus == [c0, c0, c2, c2]
    assert S.star == [c0, c0, c2, c0]


def test_e2t2_product_axioms():
    S, _ = build_product(corpus.e2t2_graph())
    assert core.verify_ehresmann(S).ok
    rep = core.verify_restriction(S, "both")
    assert rep["x y^+ = (x y)^+ x"].ok
    assert not rep["x^* y = y (x y)^*"].ok


def test_pm_violation_reported_with_witness():
    # complete graph on the two-chain minus the (e,t,e) edge: restrictions
    # stay total but the composite of (e,t,f)(f,t,e) is missing
    sl = resgraph.chain_semilattice(2)
    mon = corpus.t2_monoid()
    edges = {(0, 0, 0), (1, 0, 1), (1, 1, 0), (0, 1, 0), (0, 1, 1)}
    restrict, corestrict = {}, {}
    for c in edges:
        d, lab, r = c
        for g in sl.below(d):
            restrict[(c, g)] = (g, lab, g) if lab == 0 else (g, lab, r)
        for h in sl.below(r):
            corestrict[(c, h)] = (h, lab, h) if lab == 0 else (d, lab, h)
    G = ResGraph(sl, mon, edges, restrict, corestrict)
    witness = check_pm(G)
    assert witness is not None
    with pytest.raises(PMViolationError):
        build_product(G)


def test_projections_of_product_are_loops():
    for name, G in corpus.pm_graphs():
        S, edges = build_product(G)
        P = core.projections(S)
        one = G.mon.one
        assert {edges[i] for i in P} == {(e, one, e) for e in range(G.sl.n)}, name
        # meets in the product match the vertex semilattice
        idx = {c: i for i, c in enumerate(edges)}
        for e in range(G.sl.n):
            for f in range(G.sl.n):
                ef = G.sl.meet[e][f]
                assert S.mult[idx[(e, one, e)]][idx[(f, one, f)]] == idx[(ef, one, ef)], name


def test_construction_claims_corpus():
    for name, G in corpus.pm_graphs():
        rep = check_construction_claims(G)
        assert rep.ok, (name, [c.line() for c in rep.failures()])


def test_e2t2_sigma_classes_are_label_fibers():
    G = corpus.e2t2_graph()
    S, edges = build_product(G)
    cong, _ = core.sigma(S)
    classes = {frozenset(edges[i] for i in cls) for cls in cong.classes}
    assert classes == {
        frozenset({(0, 0, 0), (1, 0, 1)}),
        frozenset({(0, 1, 0), (1, 1, 0)}),
    }


def test_order_claim_on_e2t2():
    G = corpus.e2t2_graph()
    S, edges = build_product(G)
    orders = core.natural_orders(S)
    idx = {c: i for i, c in enumerate(edges)}
    # (f,t,f) <=_l (e,t,f) via restriction to f
    assert orders.le_l[idx[(0, 1, 0)]][idx[(1, 1, 0)]]
    assert G.restrict((1, 1, 0), 0) == (0, 1, 0)


def test_properness_criterion_cover_graph():
    cg = cover.build_cover_graph(corpus.chain(2), [0, 1])
    assert check_properness_criterion(cg.graph) is True


def test_properness_criterion_no_upper_bound():
    # two same-letter loops on incomparable vertices: no common upper edge
    sl = Semilattice(3, [[0, 0, 0], [0, 1, 0], [0, 0, 2]])
    mon = FreeMonoid(("a",))
    edges = {(0, (), 0), (1, (), 1), (2, (), 2),
             (0, ("a",), 0), (1, ("a",), 1), (2, ("a",), 2)}
    restrict = {}
    for c in edges:
        for g in sl.below(c[0]):
            restrict[(c, g)] = (g, c[1], g)
    G = ResGraph(sl, mon, edges, restrict, dict(restrict))
    assert resgraph.check_axioms(G).ok
    assert check_properness_criterion(G) is False


def test_properness_criterion_single_edge_vacuous():
    sl = Semilattice(1, [[0]])
    mon = FreeMonoid(("a",))
    edges = {(0, (), 0), (0, ("a",), 0)}
    table = {(c, 0): c for c in edges}
    G = ResGraph(sl, mon, edges, table, dict(table))
    assert check_properness_criterion(G) is True


def test_properness_criterion_inapplicable():
    with pytest.raises(InapplicableError):
        check_properness_criterion(corpus.e2t2_graph())


def test_underlying_graph_of_semilattice():
    S = corpus.chain(3)
    ug = underlying_graph(S)
    one = ug.graph.mon.one
    assert ug.graph.edges == {(e, one, e) for e in range(3)}


def test_underlying_graph_bijection_strictly_proper():
    S = corpus.eight_monoid()
    assert core.is_strictly_proper(S)
    ug = underlying_graph(S)
    assert len(ug.graph.edges) == S.n
    assert sorted(ug.to_element.values()) == list(range(S.n))


def test_underlying_graph_rejects_bad_ideal():
    S = corpus.rel_i2()
    with pytest.raises(ValueError):
        underlying_graph(S)  # contains non-proper elements


def test_round_trip_corpus():
    for name, G in corpus.pm_graphs():
        rep = round_trip_check(G)
        assert rep.ok, (name, [c.line() for c in rep.failures()])


def test_structure_iso_semilattice():
    assert structure_iso_check(corpus.chain(3)).ok


def test_structure_iso_e2t2_product():
    S, _ = build_product(corpus.e2t2_graph())
    assert structure_iso_check(S).ok


def test_structure_iso_all_strictly_proper_corpus():
    for name, S in corpus.semigroups():
        if core.is_strictly_proper(S):
            rep = structure_iso_check(S)
            assert rep.ok, (name, [c.line() for c in rep.failures()])


def test_structure_iso_collision_reported():
    S = corpus.rel_pt2()
    rep = structure_iso_check(S)
    assert not rep.ok
    bad = rep["triple_map_injective"]
    assert not bad.ok
    a, b = bad.witness
    cong, _ = core.sigma(S)
    assert (S.plus[a], S.star[a], cong.class_of[a]) == \
        (S.plus[b], S.star[b], cong.class_of[b])


def test_edge_le_is_partial_order_on_edges():
    for name, G in corpus.pm_graphs():
        edges = G.sorted_edges()
        for u in edges:
            assert edge_le(G, u, u), name
        for u in edges:
            for v in edges:
                if edge_le(G, u, v) and edge_le(G, v, u):
                    assert u == v, name


def test_underlying_graph_of_strict_ideal():
    """Dropping a maximal element of the eight-element monoid leaves a
    proper generating ideal whose underlying graph keeps the compatibility
    axioms but is no longer closed under composable products."""
    from ehresmann.core import check_proper_ideal
    from ehresmann.report import PASS
    from ehresmann.resgraph import equivalent_paths, make_path

    S = corpus.eight_monoid()
    u = 0  # a maximal element
    Y = [x for x in range(S.n) if x != u]
    assert check_proper_ideal(S, Y, max_len=3).status == PASS

    ug = underlying_graph(S, Y)
    assert resgraph.check_axioms(ug.graph, max_chain=3).ok
    assert check_pm(ug.graph) is not None  # not a partial multiaction
    with pytest.raises(PMViolationError):
        build_product(ug.graph)

    # matching Y-factorizations of the dropped element become equivalent
    # paths in the underlying graph
    from ehresmann.core import _matching_factorizations
    facts = _matching_factorizations(S, frozenset(Y), 3, 1000,
                                     core._matching_products(S, frozenset(Y)))[u]
    assert 2 <= len(facts) <= 1000  # at most 1000: not truncated
    paths = [make_path(ug.graph, [ug.of_element[a] for a in fact])
             for fact in facts]
    base = paths[0]
    for other in paths[1:]:
        res = equivalent_paths(ug.graph, base, other, max_len=5)
        assert res.status == PASS, (facts, res.witness)


def test_edge_order_compositions_commute():
    # restrict-then-corestrict reachability equals the other way round
    for name, G in corpus.pm_graphs():
        edges = G.sorted_edges()
        for u in edges:
            for v in edges:
                lr = edge_le(G, u, v)
                rl = any(
                    G.restrict(m, g) == u
                    for h in G.sl.below(v[2])
                    for m in [G.corestrict(v, h)]
                    for g in G.sl.below(m[0]))
                assert lr == rl, (name, u, v)


def _broken_copies(G, rng):
    """Copies of G with a restriction or corestriction entry dropped or
    sent to a random edge, one to three composite edges deleted, and an
    identity loop deleted."""
    maps, edges, one = (G._restrict, G._corestrict), G.sorted_edges(), G.mon.one
    out = []
    for side in (0, 1):
        for key in rng.sample(sorted(maps[side]), 2):
            for to in (None, rng.choice(edges), rng.choice(edges)):
                moved = [dict(m) for m in maps]
                if to is None:
                    del moved[side][key]
                else:
                    moved[side][key] = to
                out.append(ResGraph(G.sl, G.mon, G.edges, *moved))
    composites = sorted({(c[0], G.mon.mul(c[1], d[1]), d[2])
                         for c in edges for d in G.edges_from(c[2])})
    loops = [(e, one, e) for e in range(G.sl.n)]
    for k in (1, 1, 2, 3):
        gone = rng.sample(composites, min(k, len(composites)))
        out.append(ResGraph(G.sl, G.mon, G.edges.difference(gone), *maps))
    out.append(ResGraph(G.sl, G.mon, G.edges - {rng.choice(loops)}, *maps))
    return out


def test_build_product_matches_parent_on_broken_graphs():
    # the composite table, its gathered rows and the scalar recomputation
    # of a row that holds -1 against check_pm's scan and the pair-by-pair
    # double loop: the same table, names, plus and star, or the same first
    # error with its type and message
    rng = random.Random(5)
    graphs = [G for _, G in corpus.pm_graphs()]
    graphs += [actions.partial_action_graph(random_partial_action(rng, 3 + i % 2))
               for i in range(24)]
    seen = collections.Counter()
    for G in graphs:
        for H in [G] + _broken_copies(G, rng):
            want = product_outcome(parent_build_product, H)
            assert product_outcome(build_product, H) == want, sorted(H.edges)
            if want[0] == "value":
                seen["value"] += 1
            elif want[2].startswith("missing identity loop"):
                seen["missing loop"] += 1
            else:
                seen[want[1].__name__] += 1
    assert min(seen[kind] for kind in (
        "value", "PMViolationError", "MissingProductError",
        "RestrictionUndefinedError", "missing loop")) >= 5, seen
