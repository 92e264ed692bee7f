"""The two bounded searches over contract/expand moves against their
oracles: condition (5) of a proper generating ideal, and path equivalence."""

import gc
import random
import weakref
from collections import Counter, defaultdict

from ehresmann import core, corpus, cover, product, resgraph
from ehresmann.report import FAIL, INCONCLUSIVE, PASS

from oracles import (perturbed_table, reference_all_paths, reference_check_proper_ideal,
                     reference_contraction_components, reference_equivalent_paths,
                     reference_matching_lengths, reference_matching_walk)


def _all_order_ideals(S):
    """Every non-empty order ideal of S under the natural partial order."""
    le = core.natural_orders(S).le
    down = [frozenset(t for t in range(S.n) if le[t][s]) for s in range(S.n)]
    ideals = {frozenset()}
    for s in range(S.n):
        ideals |= {I | down[s] for I in ideals}
    return sorted(sorted(I) for I in ideals if I)


def test_contract_expand_neighbours_order():
    """Contractions by block start then end, then expansions by position in
    block order, each block at most max_len - k + 1 long."""
    expansions = {"b": [("x", "y"), ("p", "q", "r")], "c": [("u", "v")]}

    def moves(max_len):
        return core.contract_expand_neighbours(
            ("a", "b", "c"), lambda s, t: s + t, {"ab", "abc", "bc"},
            lambda f, cap: expansions.get(f, ()), max_len)

    contractions = [("ab", "c"), ("abc",), ("a", "bc")]
    assert moves(3) == contractions
    assert moves(4) == contractions + [("a", "x", "y", "c"), ("a", "b", "u", "v")]
    assert moves(5) == contractions + [("a", "x", "y", "c"), ("a", "p", "q", "r", "c"),
                                       ("a", "b", "u", "v")]


def _small_tables():
    return [S for _, S in corpus.semigroups() if S.n <= 16]


def test_matching_factorizations_stop_at_full_groups():
    """A walk that stops once every product has cap + 1 sequences keeps the
    first cap + 1 of the whole walk per product."""
    for _, S in corpus.semigroups():
        Y = range(S.n)
        minlen = core._matching_products(S, Y)
        for max_len in (1, 3, 5):
            whole = reference_matching_walk(S, Y, max_len)
            for cap in (1, 2, 5, 20000):
                assert core._matching_factorizations(S, Y, max_len, cap, minlen) == {
                    p: seqs[:cap + 1] for p, seqs in whole.items()}, (S.names, max_len, cap)


def _matching_star_law(S):
    """x^* = y^+ implies (x y)^* = y^*: then the product of a matching
    sequence has the star of its last factor.  Every Ehresmann semigroup
    satisfies it, (x y)^* = (x^* y)^* = (y^+ y)^* = y^*."""
    m, p, st = S.mult, S.plus, S.star
    return all(st[m[x][y]] == st[y] for x in range(S.n) for y in range(S.n)
               if st[x] == p[y])


def test_matching_products_match_least_length_oracle():
    """Condition (4)'s least lengths against listing the matching sequences
    length by length: on every corpus semigroup with every order ideal that
    holds the projections, and on perturbed tables with Y = S and random Y.
    The product automaton reads a sequence's star off its product, so the
    two agree on every table with the matching star law; on the others they
    may differ, and the cases are counted."""
    cases = []
    for _, S in corpus.semigroups():
        P = set(core.projections(S))
        cases += [(S, Y) for Y in _all_order_ideals(S) if P <= set(Y)]
    assert len(cases) > 100
    rng = random.Random(25)
    for _, S in corpus.semigroups():
        for _ in range(20):
            T = perturbed_table(S, rng)
            cases += [(T, range(T.n)),
                      (T, sorted(rng.sample(range(T.n), rng.randint(1, T.n))))]
    outcomes = Counter()
    for S, Y in cases:
        law = _matching_star_law(S)
        same = core._matching_products(S, frozenset(Y)) == reference_matching_lengths(S, Y)
        assert same or not law, (S.mult, S.plus, S.star, Y)
        outcomes[law, same] += 1
    assert outcomes[True, True] > outcomes[False, True] > 0, outcomes


def _record_settling(monkeypatch):
    """Record, per check_proper_ideal call, the factorizations condition (5)
    settles without a search: those of members of Y, and those that
    _one_component joins."""
    settled, walks = [], []
    one_component, walk = core._one_component, core._matching_factorizations

    def recording_component(S, Yset, facts):
        joined = one_component(S, Yset, facts)
        if joined:
            settled.append(facts)
        return joined

    def recording_walk(S, Yset, max_len, cap, minlen):
        found = walk(S, Yset, max_len, cap, minlen)
        if not walks:
            walks.append(found)
            settled.extend(facts for s, facts in found.items()
                           if s in Yset and len(facts) > 1)
        return found

    monkeypatch.setattr(core, "_one_component", recording_component)
    monkeypatch.setattr(core, "_matching_factorizations", recording_walk)
    return settled, walks


def test_check_proper_ideal_matches_walk_per_target(monkeypatch):
    """Against the search of every element (reference_check_proper_ideal),
    on every order ideal of the small corpus tables: the same report
    wherever the reference's condition (5) is PASS or skipped.  Elsewhere
    the reference is INCONCLUSIVE, and settling elements without a search
    may make it PASS, 'enumeration truncated' (the walk of blocks no longer
    runs), or the witness of a later element.  Every settled element has
    its factorizations in one component of the contraction graph of all
    matching sequences (reference_contraction_components)."""
    settled, walks = _record_settling(monkeypatch)
    kinds, changes = Counter(), Counter()
    for S in _small_tables():
        for Y in _all_order_ideals(S):
            for max_len in (1, 2, 3, 4):
                components = None
                for budget in (2, 50, 20000):
                    settled.clear()
                    walks.clear()
                    got = core.check_proper_ideal(S, Y, max_len, budget)
                    want = reference_check_proper_ideal(S, Y, max_len, budget)
                    case = (S.names, Y, max_len, budget)
                    last, ref = got.checks[-1], want.checks[-1]
                    assert got.lines()[:-1] == want.lines()[:-1], case
                    if ref.status == PASS or "skipped" in str(ref.witness):
                        assert got.lines() == want.lines(), case
                    elif got.lines() != want.lines():
                        assert ref.status == INCONCLUSIVE and last.status != FAIL, case
                        if last.status == PASS:
                            changes["PASS"] += 1
                        elif last.witness == ("enumeration truncated",):
                            changes["truncated"] += 1
                        else:
                            assert last.witness[0] > ref.witness[0], case
                            changes["later witness"] += 1
                    if settled and components is None:
                        components = reference_contraction_components(S, Y, max_len)
                    for facts in settled:
                        assert len({components[f] for f in facts}) == 1, (case, facts)
                    kinds[next((k for k in ("skipped", "truncated", "INCONCLUSIVE")
                                if k in got.lines()[-1]), last.status)] += 1
    assert set(kinds) == {"PASS", "INCONCLUSIVE", "skipped", "truncated"}, kinds
    assert changes == {"PASS": 91, "truncated": 132, "later witness": 60}, changes


def _generating_ideals(S):
    """The order ideals of S that pass conditions (1)-(4) at any length."""
    return [Y for Y in _all_order_ideals(S)
            if all(c.ok for c in core.ideal_checks(S, Y))
            and len(core._matching_products(S, Y)) == S.n]


def _count_calls(monkeypatch, name):
    calls = [0]
    fn = getattr(core, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(core, name, counted)
    return calls


def test_condition_5_settled_without_search(monkeypatch):
    """S3 and Z4 with Y = S, and the generating ideals of the eight-element
    monoid: every element is in Y or one component of contractions, so
    condition (5) passes with one walk of the factorizations, no walk of
    blocks and no search."""
    def no_search(*args):
        raise AssertionError("condition (5) searched")

    monkeypatch.setattr(core, "_first_unreached_factorization", no_search)
    walks = _count_calls(monkeypatch, "_matching_factorizations")
    named = dict(corpus.semigroups())
    cases = [(named[name], range(named[name].n), max_len)
             for name in ("s3", "z4") for max_len in (3, 4, 5, 6)]
    eight = named["eight_monoid"]
    ideals = _generating_ideals(eight)
    assert len(ideals) > 1
    cases += [(eight, Y, max_len) for Y in ideals for max_len in (3, 4)]
    for S, Y, max_len in cases:
        walks[0] = 0
        assert core.check_proper_ideal(S, Y, max_len).status == PASS, (S.names, Y, max_len)
        assert walks[0] == 1, (S.names, Y, max_len)


def test_condition_5_searches_an_open_element(monkeypatch):
    """In Z4 = {0, 1, 2, 3} with Y = {0, 1, 2}, 3 = 1 + 2 = 2 + 1 has no
    contraction at length 2, so its factorizations stay apart; the search
    joins them through an expansion: (1, 2) -> (1, 1, 1) -> (2, 1)."""
    S = dict(corpus.semigroups())["z4"]
    Y = [0, 1, 2]
    assert core._matching_factorizations(S, Y, 2, 20000, core._matching_products(S, Y))[3] \
        == [(2, 1), (1, 2)]
    assert not core._one_component(S, frozenset(Y), [(2, 1), (1, 2)])
    searches = _count_calls(monkeypatch, "_first_unreached_factorization")
    assert core.check_proper_ideal(S, Y, 2).status == PASS
    assert searches[0] == 1


def _underlying_graphs(tables):
    return [product.underlying_graph(S, Y).graph
            for S in tables for Y in _all_order_ideals(S)
            if all(c.ok for c in core.ideal_checks(S, Y))]


def _cover_graphs():
    return [cover.build_cover_graph(S, gens).graph for _, S, gens in corpus.cover_cases()]


def _graphs():
    return ([G for _, G in corpus.pm_graphs()] + _underlying_graphs(_small_tables())
            + _cover_graphs())


def test_equivalent_paths_matches_neighbours_rebuilt_per_node():
    """Moves built once per call give the verdicts of moves rebuilt at every
    node, on seeded pairs of paths with the same endpoints and label."""
    rng = random.Random(1)
    kinds = Counter()
    for G in _graphs():
        groups = defaultdict(list)
        for p in reference_all_paths(G, 3):
            groups[p[0][0], resgraph.path_label(G, p), p[-1][2]].append(p)
        keys = sorted(k for k, paths in groups.items() if len(paths) > 1)
        if not keys:
            continue
        for _ in range(8):
            paths = groups[rng.choice(keys)]
            p, q = rng.choice(paths), rng.choice(paths)
            for max_nodes in (1, 5, 30, 20000):
                got = resgraph.equivalent_paths(G, p, q, max_nodes)
                ref = reference_equivalent_paths(G, p, q, max_nodes)
                assert got == ref, (p, q, max_nodes)
                kinds[got.witness[0]] += 1
    assert set(kinds) >= {"equal paths", "partial multiaction normal form",
                          "cover normal form", "search met", "node budget exhausted",
                          "search saturated within length cap"}, kinds


def _differential_graphs():
    """The underlying graphs of the small corpus tables outside both
    normal-form regimes, every underlying graph of the eight-element monoid
    (some of them partial multiactions), and the corpus cover graphs."""
    return ([G for G in _underlying_graphs(_small_tables())
             if resgraph._normal_form(G) is None]
            + _underlying_graphs([dict(corpus.semigroups())["eight_monoid"]])
            + _cover_graphs())


def _queries(G, rng, count):
    """count seeded (p, q, max_nodes, max_len) on G: mostly two paths of
    length at most 4 sharing endpoints and label, else any two, with
    max_len (2-6, or the default) and max_nodes interleaved."""
    paths = reference_all_paths(G, 4)
    groups = defaultdict(list)
    for p in paths:
        groups[p[0][0], resgraph.path_label(G, p), p[-1][2]].append(p)
    keys = sorted(k for k, group in groups.items() if len(group) > 1)
    out = []
    for _ in range(count):
        group = groups[rng.choice(keys)] if keys and rng.random() < 0.8 else paths
        p, q = rng.choice(group), rng.choice(group)
        out.append((p, q, rng.choice((1, 5, 30, 300)), rng.choice((2, 3, 4, 5, 6, None))))
    return out


def test_equivalent_paths_per_graph_memo_matches_reference():
    """One graph object answers interleaved length caps and node budgets
    with the reference's verdicts, its expansions and regime taken from the
    graph's memo after the first query that needs them."""
    rng = random.Random(27)
    kinds = Counter()
    for G in _differential_graphs():
        for p, q, max_nodes, max_len in _queries(G, rng, 12):
            got = resgraph.equivalent_paths(G, p, q, max_nodes, max_len)
            assert got == reference_equivalent_paths(G, p, q, max_nodes, max_len), \
                (p, q, max_nodes, max_len)
            kinds[got.witness[0]] += 1
    assert set(kinds) == {"endpoints differ", "labels differ", "equal paths",
                          "partial multiaction normal form", "cover normal form",
                          "search met", "node budget exhausted",
                          "search saturated within length cap"}, kinds


def test_equivalent_paths_second_batch_enumerates_no_expansion(monkeypatch):
    """The expansions live on the graph: a second identical batch of
    queries on the same graph object enumerates none and answers the same."""
    calls = [0]
    enumerate_expansions = resgraph._expansions_of_edge

    def counted(*args):
        calls[0] += 1
        return enumerate_expansions(*args)

    monkeypatch.setattr(resgraph, "_expansions_of_edge", counted)
    rng = random.Random(5)
    enumerated = 0
    for G in _differential_graphs():
        if resgraph._normal_form(G) is not None:
            continue
        batch = _queries(G, rng, 10)
        calls[0] = 0
        first = [resgraph.equivalent_paths(G, *query) for query in batch]
        assert len(G._memo.get("expansions", ())) == calls[0]
        enumerated += calls[0]
        calls[0] = 0
        assert [resgraph.equivalent_paths(G, *query) for query in batch] == first
        assert calls[0] == 0
    assert enumerated > 0


def test_graph_memo_holds_no_reference_to_the_graph():
    """With the cycle collector off, a graph whose memo holds expansions,
    its regime and its edge orders is freed when its last name goes."""
    S = dict(corpus.semigroups())["eight_monoid"]
    G = product.underlying_graph(S, [0, 1, 2, 3, 4, 6, 7]).graph
    gc.disable()
    try:
        paths = [(a, b) for a in G.sorted_edges() for b in G.edges_from(a[2])]
        for x in paths:
            for y in paths:
                resgraph.equivalent_paths(G, x, y, 300, 4)
        product.edge_orders(G)
        assert {"expansions", "_normal_form", "edge_orders"} <= set(G._memo)
        assert G._memo["expansions"]
        ref = weakref.ref(G)
        del G
        assert ref() is None
    finally:
        gc.enable()
