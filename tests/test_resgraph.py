import collections
import random

import pytest

from ehresmann import core, corpus, cover, io, product, relmonoid, resgraph
from ehresmann.report import FAIL, INCONCLUSIVE, PASS, Check, Report
from ehresmann.resgraph import (FiniteMonoid, FreeMonoid, ResGraph,
                                RestrictionUndefinedError, Semilattice,
                                chain_semilattice, contract_step,
                                corestrict_path, equivalent_paths, make_path,
                                path_d, path_label, path_r, restrict_path)
from oracles import (ReferenceResGraph, parent_chains, parent_check_axioms,
                     parent_check_path_axioms, reference_all_paths,
                     reference_corestrict_path, reference_restrict_path,
                     reference_build_product, reference_check_axioms,
                     reference_check_path_axioms,
                     reference_cover_graph, reference_edge_le, reference_edge_le_l,
                     reference_edge_le_r, reference_edge_tables,
                     reference_totality_checks, perturbed_table, product_outcome,
                     random_down_rectangle_graphs, random_generating_set)


def test_semilattice_validation():
    with pytest.raises(ValueError):
        Semilattice(2, [[0, 0], [1, 1]])  # not commutative
    with pytest.raises(ValueError):
        Semilattice(2, [[1, 0], [0, 1]])  # not idempotent
    # the first error in row order names its pair or element, commutativity
    # of a row before idempotence of its element
    for edits, message in ((((1, 2, 0), (2, 2, 1)), "meet not commutative at (1,2)"),
                           (((1, 1, 0), (2, 3, 0)), "meet not idempotent at 1")):
        meet = [[min(e, f) for f in range(4)] for e in range(4)]
        for e, f, v in edits:
            meet[e][f] = v
        with pytest.raises(ValueError) as info:
            Semilattice(4, meet)
        assert str(info.value) == message
    sl = chain_semilattice(3)
    assert sl.leq(0, 2) and not sl.leq(2, 0)
    assert sl.below(1) == [0, 1]


def test_finite_monoid_validation():
    with pytest.raises(ValueError):
        FiniteMonoid(2, [[0, 1], [1, 1]], 1)  # wrong identity
    mon = corpus.t2_monoid()
    assert mon.mul(1, 1) == 1 and mon.one == 0


def test_free_monoid_labels():
    mon = FreeMonoid(("a", "b"))
    assert mon.mul(("a",), ("b", "a")) == ("a", "b", "a")
    assert mon.is_identity(())
    with pytest.raises(ValueError):
        mon.check_label(("c",))


def test_one_vertex_complete_graph_passes():
    for mon in (corpus.t2_monoid(), corpus.flip_flop_monoid(), corpus.z2_monoid()):
        G = corpus.singleton_graph(mon)
        assert resgraph.check_axioms(G, max_chain=3).ok


def test_corpus_graphs_pass_axioms():
    for name, G in corpus.pm_graphs():
        rep = resgraph.check_axioms(G, max_chain=3)
        assert rep.ok, (name, [c.line() for c in rep.failures()])


def test_r1_violation_detected():
    # restriction that moves the source to the wrong vertex
    sl = chain_semilattice(2)
    mon = corpus.t2_monoid()
    edges = {(0, 0, 0), (1, 0, 1), (1, 1, 1), (0, 1, 0)}
    restrict = {
        ((0, 0, 0), 0): (0, 0, 0),
        ((1, 0, 1), 1): (1, 0, 1), ((1, 0, 1), 0): (0, 0, 0),
        ((1, 1, 1), 1): (1, 1, 1), ((1, 1, 1), 0): (1, 1, 1),  # breaks R1
        ((0, 1, 0), 0): (0, 1, 0),
    }
    corestrict = {
        ((0, 0, 0), 0): (0, 0, 0),
        ((1, 0, 1), 1): (1, 0, 1), ((1, 0, 1), 0): (0, 0, 0),
        ((1, 1, 1), 1): (1, 1, 1), ((1, 1, 1), 0): (0, 1, 0),
        ((0, 1, 0), 0): (0, 1, 0),
    }
    G = ResGraph(sl, mon, edges, restrict, corestrict)
    rep = resgraph.check_axioms(G)
    assert not rep["R1"].ok
    assert rep["R1"].witness[0] == (1, 1, 1)


def test_missing_identity_loop_is_structural_failure():
    sl = chain_semilattice(2)
    mon = corpus.t2_monoid()
    edges = {(1, 0, 1), (1, 1, 1), (0, 1, 0)}  # no loop at the bottom
    table = {(c, g): (g, c[1], g) for c in edges for g in sl.below(c[0])}
    G = ResGraph(sl, mon, edges, table, dict(table))
    rep = resgraph.check_axioms(G)
    assert not rep["identity_loops_present"].ok
    assert rep["identity_loops_present"].witness == (0,)


def test_missing_restriction_is_structural_failure():
    sl = chain_semilattice(2)
    mon = corpus.t2_monoid()
    edges = {(0, 0, 0), (1, 0, 1), (1, 1, 1)}
    restrict = {((0, 0, 0), 0): (0, 0, 0), ((1, 0, 1), 1): (1, 0, 1),
                ((1, 1, 1), 1): (1, 1, 1)}
    G = ResGraph(sl, mon, edges, restrict, dict(restrict))
    rep = resgraph.check_axioms(G)
    assert not rep["restriction_total"].ok


def test_path_restriction_laws_on_corpus():
    for name, G in corpus.pm_graphs():
        sl = G.sl
        for p in reference_all_paths(G, 3):
            assert restrict_path(G, p, path_d(p)) == p, name      # R2a
            assert corestrict_path(G, p, path_r(p)) == p, name    # CR2a
            for e in sl.below(path_d(p)):
                rp = restrict_path(G, p, e)
                assert sl.leq(path_r(rp), path_r(p)), name        # R1a
                assert path_label(G, rp) == path_label(G, p), name
                assert len(rp) == len(p), name
            for f in sl.below(path_r(p)):
                cp = corestrict_path(G, p, f)
                assert sl.leq(path_d(cp), path_d(p)), name        # CR1a
                assert path_label(G, cp) == path_label(G, p), name
                assert len(cp) == len(p), name


def test_loop_power_restriction():
    G = corpus.e2t2_graph()
    e = 1  # top vertex
    loop = (e, 0, e)
    for n in (1, 2, 3):
        p = make_path(G, (loop,) * n)
        assert restrict_path(G, p, 0) == ((0, 0, 0),) * n      # R5a
        assert corestrict_path(G, p, 0) == ((0, 0, 0),) * n    # CR5a


def test_restrict_path_requires_lower_vertex():
    G = corpus.e2t2_graph()
    p = make_path(G, [(0, 1, 0)])  # source is the bottom
    with pytest.raises(RestrictionUndefinedError):
        restrict_path(G, p, 1)


def test_path_axioms_e2t2_up_to_4():
    rep = resgraph.check_path_axioms(corpus.e2t2_graph(), bound=4)
    assert rep.ok, [c.line() for c in rep.failures()]


def test_path_axioms_corpus():
    for name, G in corpus.pm_graphs():
        rep = resgraph.check_path_axioms(G, bound=3)
        assert rep.ok, name


def test_split_point_independence():
    # (R4a) gives the same answer however pq is split, since both sides
    # equal the fold over the concatenation
    G = corpus.complete2_t2_graph()
    for p in reference_all_paths(G, 3):
        if len(p) < 2:
            continue
        for e in G.sl.below(path_d(p)):
            whole = restrict_path(G, p, e)
            for k in range(1, len(p)):
                left, right = p[:k], p[k:]
                rl = restrict_path(G, left, e)
                assert whole == rl + restrict_path(G, right, path_r(rl))


def test_contract_step():
    G = corpus.e2t2_graph()
    loop = (1, 0, 1)
    p = make_path(G, (loop, loop))
    assert contract_step(G, p, 1, 2) == (loop,)

    # every length-2 block contracts in a partial multiaction
    for q in reference_all_paths(G, 2):
        if len(q) == 2:
            assert contract_step(G, q, 1, 2) is not None

    with pytest.raises(ValueError):
        contract_step(G, p, 1, 1)


def test_contract_step_no_edge_gives_none():
    # cover graphs are not closed under composition of letter edges
    cg = cover.build_cover_graph(corpus.chain(2), [0, 1])
    G = cg.graph
    p = make_path(G, [(1, ("x1",), 1), (1, ("x1",), 1)])
    assert contract_step(G, p, 1, 2) is None


def test_equivalent_paths_reflexive():
    G = corpus.e2t2_graph()
    for p in reference_all_paths(G, 2):
        assert equivalent_paths(G, p, p).status == PASS


def test_equivalent_paths_label_mismatch_fails():
    G = corpus.e2t2_graph()
    p = make_path(G, [(1, 0, 1)])
    q = make_path(G, [(1, 1, 0), (0, 0, 0)])
    res = equivalent_paths(G, p, q)
    assert res.status == FAIL


def test_equivalent_paths_loop_insertion_in_cover():
    cg = cover.build_cover_graph(corpus.chain(2), [0, 1])
    G = cg.graph
    base = make_path(G, [(1, ("x1",), 1), (1, ("x1",), 1)])
    padded = make_path(G, [(1, (), 1), (1, ("x1",), 1), (1, (), 1),
                           (1, ("x1",), 1), (1, (), 1)])
    assert equivalent_paths(G, base, padded).status == PASS
    other = make_path(G, [(1, ("x1",), 1), (1, ("x1",), 1), (1, ("x1",), 1)])
    assert equivalent_paths(G, base, other).status == FAIL


def test_equivalent_paths_pm_normal_form():
    G = corpus.complete2_t2_graph()
    p = make_path(G, [(1, 1, 1), (1, 1, 0)])
    q = make_path(G, [(1, 1, 0), (0, 1, 0)])
    # both contract to (1, t t = t, 0)
    assert equivalent_paths(G, p, q).status == PASS
    r = make_path(G, [(1, 1, 1)])
    assert equivalent_paths(G, p, r).status == FAIL  # targets differ


def test_equivalent_paths_budget_exhaustion_is_inconclusive():
    # the non-PM graph from the product tests forces the generic search;
    # a zero node budget cannot conclude anything
    sl = chain_semilattice(2)
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
    p = make_path(G, [(1, 1, 0), (0, 0, 0)])
    q = make_path(G, [(1, 0, 1), (1, 1, 0)])
    res = equivalent_paths(G, p, q, max_nodes=1)
    assert res.status == INCONCLUSIVE
    assert equivalent_paths(G, p, q).status == PASS


def test_restriction_respects_equivalence():
    # p ~ q implies the restrictions stay equivalent
    G = corpus.complete2_t2_graph()
    for p in reference_all_paths(G, 2):
        for q in reference_all_paths(G, 2):
            res = equivalent_paths(G, p, q)
            if res.status != PASS:
                continue
            for e in G.sl.below(path_d(p)):
                rp, rq = restrict_path(G, p, e), restrict_path(G, q, e)
                assert equivalent_paths(G, rp, rq).status == PASS


def _rows(checks):
    return [(c.name, c.status, c.witness) for c in checks]


def _outcome(f, *args):
    try:
        value = f(*args)
    except Exception as exc:  # the exception itself is the outcome compared
        return ("raise", type(exc), str(exc))
    if isinstance(value, Report):
        return ("report", _rows(value.checks))
    return ("value", value)


def _assert_same_structure(G, ref, what):
    sl = G.sl
    probes = G.sorted_edges() + [(sl.n + 1, G.mon.one, 0)]
    for c in probes:
        for v in range(-1, sl.n + 1):
            for kind in ("restrict", "corestrict"):
                assert (_outcome(getattr(G, kind), c, v)
                        == _outcome(getattr(ref, kind), c, v)), (what, kind, c, v)
    assert G.has_restrictions == ref.has_restrictions, what
    report = _outcome(resgraph.check_axioms, G, 2)
    assert report == _outcome(resgraph.check_axioms, ref, 2), what
    # the totality scan reads the tables; the reference calls the maps
    assert report[0] == "report", what
    assert report[1][1:3] == _rows(reference_totality_checks(ref)), what
    assert (_outcome(resgraph.check_path_axioms, G, 2)
            == _outcome(resgraph.check_path_axioms, ref, 2)), what


def _maps_of(G):
    """The dicts the graph was built from; a graph built from tables keeps
    none, so they are those of its document twin, which the constructor
    builds from dicts."""
    if G.has_restrictions and G._restrict is None:
        G = io.load_document(io.dump_resgraph(G))[1]
    return G._restrict, G._corestrict


def _perturbed(G, maps):
    """Copies of the maps with an entry dropped, an entry sent to a
    non-edge, entries added at non-lower vertices, and no maps at all."""
    sl, edges = G.sl, G.sorted_edges()
    out = [(None, None), (maps[0], None)]
    for side in (0, 1):
        keys = sorted(maps[side])
        for key in {keys[0], keys[len(keys) // 2], keys[-1]}:
            dropped = [dict(m) for m in maps]
            del dropped[side][key]
            out.append(tuple(dropped))
            sent = [dict(m) for m in maps]
            sent[side][key] = ("not an edge", key[1])
            out.append(tuple(sent))
        extra = [dict(m) for m in maps]
        for c in edges:
            for v in range(sl.n):
                if not sl.leq(v, c[2 * side]):
                    extra[side][(c, v)] = c
        out.append(tuple(extra))
    return out


def _kernel_graphs():
    """(name, graph, reference) over the corpus graphs (partial-action
    graphs among them), the underlying graphs of the strictly proper corpus
    semigroups and the cover graphs, each reference given its maps the old
    way."""
    out = []
    for name, G in corpus.pm_graphs():
        out.append((name, G, ReferenceResGraph(G.sl, G.mon, G.edges, *_maps_of(G))))
    for name, S in corpus.semigroups():
        if core.proper_elements(S) == frozenset(range(S.n)):
            G = product.underlying_graph(S).graph
            out.append((name + "_underlying", G,
                        ReferenceResGraph(G.sl, G.mon, G.edges, *_maps_of(G))))
    for name, S, gens in corpus.cover_cases():
        out.append((name + "_cover", cover.build_cover_graph(S, gens).graph,
                    reference_cover_graph(S, gens)))
    return out


def test_kernel_matches_reference_maps():
    graphs = _kernel_graphs()
    assert len(graphs) > 30
    for name, G, ref in graphs:
        _assert_same_structure(G, ref, name)
        for restrict, corestrict in _perturbed(G, _maps_of(G)):
            _assert_same_structure(
                ResGraph(G.sl, G.mon, G.edges, restrict, corestrict),
                ReferenceResGraph(G.sl, G.mon, G.edges, restrict, corestrict), name)


def _cover_cases():
    """(name, S, gens): the corpus cover cases and I(3), PT(3) and B(2) over
    random generating sets."""
    rng = random.Random(20)
    cases = list(corpus.cover_cases())
    for build, k, count in ((relmonoid.full_I, 3, 3), (relmonoid.full_PT, 3, 3),
                            (relmonoid.full_B, 2, 3)):
        S = build(k).to_semigroup()
        for i in range(count):
            cases.append((f"{build.__name__}({k})_{i}", S, random_generating_set(S, rng)))
    return cases


def test_cover_rows_match_reference_tables():
    for name, S, gens in _cover_cases():
        G = cover.build_cover_graph(S, gens).graph
        ref = reference_cover_graph(S, gens)
        assert G.sorted_edges() == ref.sorted_edges(), name
        assert G.edge_id == ref.edge_id, name
        rows = {c: (G.restrict_table[i], G.corestrict_table[i]) for c, i in G.edge_id.items()}
        assert rows == reference_edge_tables(ref), name


def test_cover_graph_raises_where_the_reference_does():
    # unary tables that are not Ehresmann and tables with one entry of
    # plus, star or mult changed send some restrictions and corestrictions
    # off the edge set, over all of S and over a smaller generating set;
    # the first such value raises, with the same message
    rng = random.Random(5)
    raised = collections.Counter()
    for name, S in corpus.semigroups()[:18]:
        tables = [perturbed_table(S, rng) for _ in range(20)]
        for _ in range(40):
            plus, star = list(S.plus), list(S.star)
            for _ in range(rng.randint(1, 2)):
                (plus if rng.random() < .5 else star)[rng.randrange(S.n)] = \
                    rng.randrange(S.n)
            tables.append(core.OpTableSemigroup(S.n, S.mult, plus, star))
        for T in tables:
            for gens in (range(S.n), random_generating_set(S, rng)):
                got = _outcome(cover.build_cover_graph, T, gens)
                if got[:2] == ("raise", cover.GeneratorError):
                    continue
                want = _outcome(reference_cover_graph, T, gens)
                if "raise" in (got[0], want[0]):
                    assert got == want, name
                if got[:2] == ("raise", RestrictionUndefinedError):
                    raised[got[2].split(" of ")[0]] += 1
    assert raised["restriction"] > 10 and raised["corestriction"] > 10, raised


def test_table_built_cover_graph_round_trips_through_a_document():
    # the graph loaded from the dump is built from dicts by the constructor
    rng = random.Random(7)
    cases = list(corpus.cover_cases())
    for build in (relmonoid.full_I, relmonoid.full_PT):
        S = build(3).to_semigroup()
        cases.append((build.__name__, S, random_generating_set(S, rng)))
    for name, S, gens in cases:
        G = cover.build_cover_graph(S, gens).graph
        kind, H = io.load_document(io.dump_resgraph(G))
        assert kind == "resgraph", name
        assert H.edge_id == G.edge_id, name
        assert H.restrict_table == G.restrict_table, name
        assert H.corestrict_table == G.corestrict_table, name
        assert H.has_restrictions and G.has_restrictions, name
        assert _maps_of(G) == _maps_of(H), name
        _assert_same_structure(H, G, name)


def test_cover_graph_has_restrictions_without_reading_its_maps_back():
    """A cover graph, built from tables, answers has_restrictions and is
    written to a document without building an entry dict; its restrict and
    corestrict give the values and messages of the same graph built from
    its document's dicts by the constructor."""
    cases = list(corpus.cover_cases())
    cases.append(("PT(3)", relmonoid.full_PT(3).to_semigroup(), [27, 39, 41]))
    for name, S, gens in cases:
        G = cover.build_cover_graph(S, gens).graph
        assert G.has_restrictions, name
        io.dump_resgraph(G)
        assert (G._restrict, G._corestrict) == (None, None), name
        H = ResGraph(G.sl, G.mon, G.edges, *_maps_of(G))
        _assert_same_structure(G, H, name)


def test_table_built_graph_reads_minus_one_as_undefined():
    """A table holds only edge ids, so an entry of -1 below an edge's end
    is undefined: a cover graph's tables with one entry cut give the
    message, values and verdicts of the graph built from its document's
    dicts without that entry."""
    for name, S, gens in corpus.cover_cases():
        G = cover.build_cover_graph(S, gens).graph
        edges, maps = G.sorted_edges(), _maps_of(G)
        c = edges[-1]
        for side, kind in enumerate(("restrict", "corestrict")):
            v = c[2 * side]
            tables = [[list(row) for row in t] for t in (G.restrict_table, G.corestrict_table)]
            tables[side][G.edge_id[c]][v] = -1
            cut = [dict(m) for m in maps]
            del cut[side][(c, v)]
            H = ResGraph.from_tables(G.sl, G.mon, edges, *tables)
            assert _outcome(getattr(H, kind), c, v)[2].endswith("is undefined"), name
            _assert_same_structure(H, ResGraph(G.sl, G.mon, G.edges, *cut), name)


def _wrong_end(G, maps):
    """Copies of the maps with one entry sent to an edge whose source
    (restriction) or target (corestriction) is not the vertex asked for."""
    edges, out = G.sorted_edges(), []
    for side, end in ((0, 0), (1, 2)):
        keys = sorted(maps[side])
        for key in dict.fromkeys([keys[0], keys[len(keys) // 2], keys[-1]]):
            wrong = next((d for d in edges if d[end] != key[1]), None)
            if wrong is not None:
                moved = [dict(m) for m in maps]
                moved[side][key] = wrong
                out.append(tuple(moved))
    return out


# the edge checks check_path_axioms reads the path laws off, and those laws
_PATH_PREMISES = ("identity_loops_present", "restriction_total", "corestriction_total",
                  "R1", "R3", "CR1", "CR3", "C")
_PATH_LAWS = ("R3a", "R4a", "CR3a", "CR4a", "Ca")


def _path_count(G, bound):
    """The number of paths of length 1..bound, by a tally of the paths of
    each length at their targets."""
    edges, total = G.sorted_edges(), 0
    ending = collections.Counter(c[2] for c in edges)
    for _ in range(bound):
        total += sum(ending.values())
        step = collections.Counter()
        for d, _, r in edges:
            step[r] += ending[d]
        ending = step
    return total


def _without_premises(failing):
    """check_path_axioms' outcome on a graph whose edge checks failing fail."""
    return ("report", [(name, INCONCLUSIVE, ("edge laws fail",) + failing)
                       for name in _PATH_LAWS])


def _compare_with_reference(G, what, seen):
    """The kernel against the laws written side by side in oracles.py:
    equal reports, witnesses and exceptions, except that a left side the
    reference raises on in check_axioms is a FAIL, only where R1 or CR1
    fails, and that the path laws are INCONCLUSIVE where the edge laws
    they are read off fail."""
    for max_chain in (2, 3, 4):
        want = _outcome(reference_check_axioms, G, max_chain)
        got = _outcome(resgraph.check_axioms, G, max_chain)
        if want[0] == "raise":
            seen["axioms raised"] += 1
            assert want[1] is RestrictionUndefinedError, what
            status = {name: st for name, st, _ in got[1]}
            assert FAIL in (status["R1"], status["CR1"]), what
        else:
            seen["axioms " + Report([Check(*row) for row in want[1]]).status] += 1
            assert got == want, what
    # the path laws are read off the edge laws in _PATH_PREMISES: where
    # those pass, the answer is the reference's, which tries every pair of
    # paths for R4a, so beyond bound 2 only where there are at most 150
    # paths up to the bound, and the bounded parent's at bounds 4 and 5
    # where there are more, up to 3,000; where they fail, INCONCLUSIVE
    # naming them
    failing = tuple(name for name, status, _ in _outcome(resgraph.check_axioms, G, 2)[1]
                    if name in _PATH_PREMISES and status != PASS)
    seen["path premises fail" if failing else "path premises hold"] += 1
    for bound in (2, 3, 4, 5):
        got = _outcome(resgraph.check_path_axioms, G, bound)
        if failing:
            assert got == _without_premises(failing), (what, bound)
            continue
        paths = _path_count(G, bound) if bound > 2 else 0
        if paths <= 150:
            want = _outcome(reference_check_path_axioms, G, bound)
        elif bound >= 4 and paths <= 3000:
            want = _outcome(parent_check_path_axioms, G, bound)
        else:
            continue
        seen["path axioms " + want[0]] += 1
        assert got == want, (what, bound)

    want = product_outcome(reference_build_product, G)
    got = product_outcome(product.build_product, G)
    if want[:2] == ("raise", KeyError):
        seen["product not an edge"] += 1
        assert got[1] is product.MissingProductError, what
        assert got[2].endswith(f" is {want[2]}, which is not an edge"), what
    else:
        seen["product " + want[0]] += 1
        assert got == want, what

    edges = G.sorted_edges()
    for u in edges:
        for v in edges:
            assert (_outcome(product.edge_le, G, u, v)
                    == _outcome(reference_edge_le, G, u, v)), what
    references = (reference_edge_le_l, reference_edge_le_r, reference_edge_le)
    pairs = [(rel, u, v) for rel in references for v in edges for u in edges]
    raised = next((out for rel, u, v in pairs
                   for out in [_outcome(rel, G, u, v)] if out[0] == "raise"), None)
    got = _outcome(product.edge_orders, G)
    if raised is not None:
        assert got == raised, what
    else:
        ids = G.edge_id
        assert [[{ids[u] for u in edges if rel(G, u, v)} for v in edges]
                for rel in references] == list(got[1]), what


def test_kernel_matches_side_by_side_laws():
    seen = collections.Counter()
    for name, G, _ in _kernel_graphs():
        maps = _maps_of(G)
        for restrict, corestrict in [maps] + _perturbed(G, maps) + _wrong_end(G, maps):
            _compare_with_reference(ResGraph(G.sl, G.mon, G.edges, restrict, corestrict),
                                    name, seen)
    for i, G in enumerate(random_down_rectangle_graphs(random.Random(11), 30)):
        _compare_with_reference(G, f"random graph {i}", seen)
        for restrict, corestrict in _wrong_end(G, _maps_of(G))[:0 if i % 3 else 1]:
            _compare_with_reference(ResGraph(G.sl, G.mon, G.edges, restrict, corestrict),
                                    f"random graph {i}, wrong end", seen)
    assert min(seen[k] for k in ("axioms raised", "axioms PASS", "axioms FAIL",
                                 "path premises hold", "path premises fail",
                                 "product not an edge", "product value")) >= 5, seen


def test_undefined_left_side_fails_its_law():
    # on the two-chain f < e, move (e,1,e) to its own end e onto (f,1,f):
    # moving that again to e is undefined, which the side-by-side laws
    # raise on and the kernel reports at the law's witness
    G = corpus.e2t2_graph()
    loop_e, loop_f = (1, 0, 1), (0, 0, 0)
    for side, law in ((0, "R3"), (1, "CR3")):
        maps = [dict(m) for m in _maps_of(G)]
        maps[side][(loop_e, 1)] = loop_f
        H = ResGraph(G.sl, G.mon, G.edges, *maps)
        with pytest.raises(RestrictionUndefinedError,
                           match=r"restriction of \(f,1,f\) to non-lower vertex 1"):
            reference_check_axioms(H)
        assert resgraph.check_axioms(H)[law].witness == (loop_e, 1, 1), law


def _changed_rectangle(sl, edges, changes):
    """The rectangle graph on edges, labelled in the monoid {1, a} with
    a a = a (1 is 0, a is 1), with the map entries in changes replaced:
    (0 for restriction or 1 for corestriction, (edge, vertex), new edge or
    None to leave the entry out)."""
    G = resgraph.rectangle_graph(sl, FiniteMonoid(2, [[0, 1], [1, 1]], 0), edges)
    maps = [dict(m) for m in _maps_of(G)]
    for side, key, to in changes:
        if to is None:
            del maps[side][key]
        else:
            maps[side][key] = to
    return ResGraph(sl, G.mon, edges, *maps)


def test_path_laws_need_each_edge_law():
    # on each graph exactly one of the edge checks the path laws are read
    # off fails: the path law it proves fails (R3, CR3, C, or R3 unchecked
    # without identity loops), or folds raise (totality, R1, CR1), and
    # check_path_axioms answers INCONCLUSIVE naming that check
    chain3, chain2 = chain_semilattice(3), chain_semilattice(2)
    a_edges = [(d, 1, r) for d in range(3) for r in range(3)]
    full = [(e, 0, e) for e in range(3)] + a_edges
    cases = [
        ("R3", "R3a", chain3, full, [(0, ((2, 1, 2), 1), (1, 1, 1))]),
        ("CR3", "CR3a", chain3, full, [(1, ((2, 1, 1), 0), (1, 1, 0))]),
        ("C", "Ca", chain3, full, [(1, ((1, 1, 1), 0), (0, 1, 0)),
                                   (1, ((1, 1, 2), 0), (0, 1, 0))]),
        ("identity_loops_present", "R3a", chain3, a_edges,
         [(0, ((2, 1, 2), 1), (1, 1, 1))]),
        ("restriction_total", None, chain3, full, [(0, ((2, 1, 2), 0), None)]),
        ("corestriction_total", None, chain3, full, [(1, ((2, 1, 2), 0), None)]),
        ("R1", None, chain2, [(0, 0, 0), (1, 0, 1), (0, 1, 0), (0, 1, 1), (1, 1, 0)],
         [(0, ((1, 1, 0), 0), (0, 1, 1)), (1, ((1, 1, 0), 0), (0, 1, 0))]),
        ("CR1", None, chain2, [(0, 0, 0), (1, 0, 1), (0, 1, 0), (0, 1, 1), (1, 1, 0)],
         [(1, ((0, 1, 1), 0), (1, 1, 0)), (0, ((0, 1, 1), 0), (0, 1, 0))]),
    ]
    for law, path_law, sl, edges, changes in cases:
        G = _changed_rectangle(sl, edges, changes)
        checks = resgraph.check_axioms(G, 2).checks
        assert [c.name for c in checks if c.name in _PATH_PREMISES and not c.ok] == [law], law
        if path_law is None:
            with pytest.raises(RestrictionUndefinedError):
                reference_check_path_axioms(G, 2)
        else:
            assert reference_check_path_axioms(G, 2)[path_law].status == FAIL, law
        for bound in (0, 2, 6):
            assert _outcome(resgraph.check_path_axioms, G, bound) == _without_premises((law,))
        # the premises read no chain, so any max_chain's report gives the same
        for max_chain in range(6):
            rep = resgraph.path_laws(resgraph.check_axioms(G, max_chain))
            assert rep.checks == resgraph.check_path_axioms(G).checks, (law, max_chain)


def test_chain_label_is_the_product_in_path_order():
    # in the flip-flop monoid z0 z1 = z1 and z1 z0 = z0: the chain
    # (1,z1,1)(1,z0,1) composes to (1,z0,1), whose restriction and
    # corestriction to 0 are the loop (0,z0,0), while the chain restricts
    # to a path ending at 1 and corestricts to one starting at 1
    sl, mon = chain_semilattice(2), corpus.flip_flop_monoid()
    l0, l1, a, b = (0, 0, 0), (1, 0, 1), (1, 1, 1), (1, 2, 1)
    a0, b01, b10, b00 = (0, 1, 0), (0, 2, 1), (1, 2, 0), (0, 2, 0)
    restrict = {(l0, 0): l0, (l1, 1): l1, (l1, 0): l0, (a, 1): a, (a, 0): a0, (b, 1): b,
                (b, 0): b01, (a0, 0): a0, (b01, 0): b01, (b10, 1): b10, (b10, 0): b00,
                (b00, 0): b00}
    corestrict = {(l0, 0): l0, (l1, 1): l1, (l1, 0): l0, (a, 1): a, (a, 0): a0, (b, 1): b,
                  (b, 0): b10, (a0, 0): a0, (b01, 1): b01, (b01, 0): b00, (b10, 0): b10,
                  (b00, 0): b00}
    G = ResGraph(sl, mon, {c for c, _ in restrict}, restrict, corestrict)
    for max_chain in (2, 3):
        rep = resgraph.check_axioms(G, max_chain)
        assert [(c.name, c.witness) for c in rep.failures()] == [
            ("R4", ((b, a), 0)), ("CR4", ((b, a), 0))]
        assert (_outcome(resgraph.check_axioms, G, max_chain)
                == _outcome(reference_check_axioms, G, max_chain))


ABC = (1, ("a", "b", "c"), 1)


def _abc_graph(word="abc"):
    """The rectangle graph on the two-chain 0 < 1 with the edges (1,a,0),
    (0,b,0), (0,c,1) and (1,abc,1), each with the edges below it, and the
    identity loops; for another word the same, with an edge (0,x,0) for
    each inner letter x.  No edge is labelled by a proper part of the word
    longer than a letter, so no proper part of the chain along it has a
    composite edge."""
    sl = chain_semilattice(2)
    tops = ([(1, (word[0],), 0)] + [(0, (x,), 0) for x in word[1:-1]]
            + [(0, (word[-1],), 1), (1, tuple(word), 1)])
    edges = {(d, lab, r) for d0, lab, r0 in tops for d in sl.below(d0) for r in sl.below(r0)}
    return resgraph.rectangle_graph(sl, FreeMonoid(tuple(word)),
                                    edges | {(0, (), 0), (1, (), 1)})


def _abc_far_end_moved(G, maps, label=ABC[1]):
    """Copies of the maps with one entry of an edge labelled label (abc)
    sent to the edge with the same near end and label but the other far
    end."""
    out = []
    for side, end in ((0, 0), (1, 2)):
        for key, image in sorted(maps[side].items()):
            if key[0][1] != label:
                continue
            for other in G.sorted_edges():
                if other[end] == image[end] and other[1] == label and other != image:
                    moved = [dict(m) for m in maps]
                    moved[side][key] = other
                    out.append(tuple(moved))
    return out


def test_chain_without_composite_prefix_is_checked():
    # restricting (1,abc,1) to 0 should keep its target 1; sent to (0,abc,0)
    # it breaks R4 only for chains a b c, which no chain of length 2 decides
    # (the corestriction side likewise, keeping the source)
    G = _abc_graph()
    chain = ((1, ("a",), 0), (0, ("b",), 0), (0, ("c",), 1))
    assert resgraph.check_axioms(G, 4).ok
    for side, law in ((0, "R4"), (1, "CR4")):
        maps = [dict(m) for m in _maps_of(G)]
        maps[side][(ABC, 0)] = (0, ABC[1], 0)
        H = ResGraph(G.sl, G.mon, G.edges, *maps)
        # chains of length 2 leave the search open: cap 2 cuts it short
        assert [(c.name, c.status, c.witness) for c in resgraph.check_axioms(H, 2).failures()] == [
            (name, INCONCLUSIVE, ("chain cap reached", 2)) for name in ("R4", "CR4")]
        assert [(c.name, c.witness) for c in resgraph.check_axioms(H).failures()] == [
            (law, (chain, 0))]
        for max_chain in (3, 4):
            rep = resgraph.check_axioms(H, max_chain)
            assert [(c.name, c.witness) for c in rep.failures()] == [(law, (chain, 0))]
            assert (_outcome(resgraph.check_axioms, H, max_chain)
                    == _outcome(reference_check_axioms, H, max_chain))


def _composite_chains(G, max_chain):
    """The chains of length >= 2 with a composite edge, from the reference
    paths: (the set of implied ones, the others in path order).  A chain is
    implied when a proper prefix of it, of length >= 2, has a composite
    edge."""
    def composite(p):
        return (p[0][0], path_label(G, p), p[-1][2]) in G.edges

    chains = [p for p in reference_all_paths(G, max_chain) if len(p) >= 2 and composite(p)]
    implied = {p for p in chains if any(composite(p[:i]) for i in range(2, len(p)))}
    return implied, [p for p in chains if p not in implied]


def _search_checked(G, max_chain):
    """The chains check_axioms' chain search checks up to max_chain: the
    first chain to each state with a composite edge."""
    starts, moves = resgraph._chain_moves(G, resgraph.Side(G, 0), resgraph.Side(G, 2))
    states = core.saturate(starts, lambda s: [t for _, t in moves(s)], max_chain - 1)
    paths = core.first_paths(states, moves, starts)
    return [paths[s] for s in states if len(s) == 3]


def _first_failing(vertices, law):
    """The first vertex at which law is false or raises, or None."""
    for v in vertices:
        try:
            if not law(v):
                return v
        except RestrictionUndefinedError:
            return v
    return None


def _first_per_verdict(G, chains):
    """The first of chains, each with a composite edge, for each verdict:
    (composite, the first vertex at which R4 fails or None, the same for
    CR4), by the reference folds, a fold that raises failing."""
    out = {}
    for p in chains:
        comp = (p[0][0], path_label(G, p), p[-1][2])
        r4 = _first_failing(G.sl.below(comp[0]), lambda v: G.restrict(comp, v) == (
            v, comp[1], reference_restrict_path(G, p, v)[-1][2]))
        cr4 = _first_failing(G.sl.below(comp[2]), lambda v: G.corestrict(comp, v) == (
            reference_corestrict_path(G, p, v)[0][0], comp[1], v))
        out.setdefault((comp, r4, cr4), p)
    return list(out.values())


def test_pruned_chain_laws_match_reference():
    # the kernel checks R4 and CR4 on the first of the chains that are not
    # implied with each verdict; the reference checks every chain, and the
    # reports are the same
    seen = collections.Counter()
    graphs = list(corpus.pm_graphs()) + [("abc", _abc_graph())] + [
        (f"random graph {i}", G)
        for i, G in enumerate(random_down_rectangle_graphs(random.Random(7), 8))]
    for name, G in graphs:
        maps = _maps_of(G)
        variants = [maps] + _perturbed(G, maps) + _wrong_end(G, maps)
        if name == "abc":
            variants += _abc_far_end_moved(G, maps)
        for max_chain in (3, 4):
            implied, checked = _composite_chains(G, max_chain)
            seen["implied"] += len(implied)
            for restrict, corestrict in variants:
                H = ResGraph(G.sl, G.mon, G.edges, restrict, corestrict)
                want = _outcome(reference_check_axioms, H, max_chain)
                got = _outcome(resgraph.check_axioms, H, max_chain)
                seen["cases"] += 1
                if want[0] == "raise":
                    # the reference raises on an undefined fold, where the
                    # kernel fails R1 or CR1
                    statuses = {law: st for law, st, _ in got[1]}
                    assert FAIL in (statuses["R1"], statuses["CR1"]), name
                    continue
                if "R4" in [row[0] for row in got[1]]:
                    searched = _search_checked(H, max_chain)
                    assert searched == _first_per_verdict(H, checked), (name, max_chain)
                    seen["checked at length >= 3"] += sum(len(p) >= 3 for p in searched)
                # where the cap cut the search, a law the reference passes is
                # INCONCLUSIVE
                cut = (INCONCLUSIVE, ("chain cap reached", max_chain))
                seen["cut"] += sum(row[1:] == cut for row in got[1])
                got = ("report", [(law, PASS, None) if (status, witness) == cut
                                  else (law, status, witness) for law, status, witness in got[1]])
                assert got == want, (name, max_chain)
                for law, status, witness in want[1]:
                    if law in ("R4", "CR4") and status == FAIL:
                        seen[f"witness of length {len(witness[0])}"] += 1
    assert seen["implied"] and seen["checked at length >= 3"], seen
    assert seen["witness of length 2"] and seen["witness of length 3"], seen


def test_chain_of_length_four_is_checked_at_every_length():
    # the top edge moved to the wrong far end breaks R4 (CR4) only for the
    # chain a b c d: the parent's default cap 3 passed it, the uncapped
    # search fails it with the parent's witness at cap 4
    G = _abc_graph("abcd")
    top = (1, tuple("abcd"), 1)
    chain = ((1, ("a",), 0), (0, ("b",), 0), (0, ("c",), 0), (0, ("d",), 1))
    assert resgraph.check_axioms(G).ok
    for side, law in ((0, "R4"), (1, "CR4")):
        maps = [dict(m) for m in _maps_of(G)]
        maps[side][(top, 0)] = (0, top[1], 0)
        H = ResGraph(G.sl, G.mon, G.edges, *maps)
        assert parent_check_axioms(H).ok
        assert [(c.name, c.witness) for c in resgraph.check_axioms(H).failures()] == [
            (law, (chain, 0))]
        assert _outcome(resgraph.check_axioms, H) == _outcome(parent_check_axioms, H, 4)


def _two_paths_graph():
    """The rectangle graph on the two-chain 0 < 1 with every edge labelled
    a, b, c or abc, and the identity loops.  The chains a b from 1 to 1,
    through 0 and through 1, have one source, label and target."""
    sl, words = chain_semilattice(2), [("a",), ("b",), ("c",), ("a", "b", "c")]
    return resgraph.rectangle_graph(sl, FreeMonoid(("a", "b", "c")), {
        (d, w, r) for w in words for d in range(2) for r in range(2)} | {(0, (), 0), (1, (), 1)})


def _letters_moved_down(maps):
    """Copies of the two-paths graph's maps with, on one side, each letter
    edge (1,x,1) moved to 0 sent to (0,x,0): then the chain a b through 1
    folds to 0 there, while the one through 0 does not, in that side's row
    alone, and a b c through 1 breaks R4 (CR4)."""
    out = []
    for side in (0, 1):
        moved = [dict(m) for m in maps]
        for x in "abc":
            moved[side][((1, (x,), 1), 0)] = (0, (x,), 0)
        out.append(tuple(moved))
    return out


def test_chain_states_match_the_capped_parent():
    # with no cap the chain states answer as the parent's listed chains at
    # its top bound, 8, or the bound where it first lists over 5,000 chains
    # (6 on the abc graphs, with 10^4 chains, 10^6 at 8); under a cap k the
    # answer is the parent's at k, except that a law the parent passed at k
    # is INCONCLUSIVE where the search was cut, which needs a chain of
    # length k + 1 that is not implied; and a law that passes under a cap
    # passes at every length
    seen = collections.Counter()
    graphs = [(name, G, []) for name, G in corpus.pm_graphs()]
    for word in ("abc", "abcd"):
        G = _abc_graph(word)
        graphs.append((word, G, _abc_far_end_moved(G, _maps_of(G), tuple(word))))
    G = _two_paths_graph()
    graphs.append(("two paths", G, _letters_moved_down(_maps_of(G))))
    graphs += [(f"random graph {i}", G, [])
               for i, G in enumerate(random_down_rectangle_graphs(random.Random(33), 40))]
    for name, G, moved in graphs:
        # the parent's chains depend on the edges alone
        listed = {}
        for k in range(1, 9):
            listed[k] = parent_chains(G, k)
            if len(listed[k]) > 5000:
                break
        top = k
        maps = _maps_of(G)
        for restrict, corestrict in [maps] + _perturbed(G, maps) + _wrong_end(G, maps) + moved:
            H = ResGraph(G.sl, G.mon, G.edges, restrict, corestrict)
            seen["cases"] += 1
            uncapped = _outcome(resgraph.check_axioms, H)
            assert uncapped == _outcome(parent_check_axioms, H, top, listed[top]), name
            laws = {law: status for law, status, _ in uncapped[1]}
            for k in range(1, top + 1):
                got = _outcome(resgraph.check_axioms, H, k)
                want = _outcome(parent_check_axioms, H, k, listed[k])
                assert len(got[1]) == len(want[1]), (name, k)
                for row, wanted in zip(got[1], want[1]):
                    assert row == wanted or (wanted[1] == PASS and row == (
                        wanted[0], INCONCLUSIVE, ("chain cap reached", k))), (name, k)
                    assert row[1] != PASS or laws[row[0]] == PASS, (name, k, row)
                if got != want:
                    seen[f"cut at cap {k}"] += 1
                    if k + 2 not in listed:
                        listed[k + 2] = parent_chains(G, k + 2)
                    assert len(listed[k + 2][-1][3]) > k, (name, k)
            seen["uncapped " + Report([Check(*row) for row in uncapped[1]]).status] += 1
    assert seen["uncapped FAIL"] and seen["cut at cap 3"], seen


def test_round_trip_names_the_first_mismatch():
    # an underlying graph with one restriction or corestriction moved to a
    # wrong edge: the maps recovered from its product differ from its own
    semigroups = dict(corpus.semigroups())
    found = []
    for name in ("sub_b2_row", "eight_monoid"):
        G = product.underlying_graph(semigroups[name]).graph
        for maps in _wrong_end(G, _maps_of(G)):
            rep = _outcome(product.round_trip_check, ResGraph(G.sl, G.mon, G.edges, *maps))
            if rep[0] == "report" and rep[1][-1][:2] == ("restrictions_match", FAIL):
                found.append((name, rep[1][-1][2]))
    assert found == [("sub_b2_row", ((0, 0, 0), 0)), ("sub_b2_row", ((0, 0, 1), 1)),
                     ("eight_monoid", ((0, 0, 0), 0))]
