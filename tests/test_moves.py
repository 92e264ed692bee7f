"""The two bounded searches over contract/expand moves against their
oracles: condition (5) of a proper generating ideal, and path equivalence."""

import random
from collections import Counter, defaultdict

from ehresmann import core, corpus, cover, product, resgraph

from oracles import (reference_all_paths, reference_check_proper_ideal,
                     reference_equivalent_paths, reference_matching_walk)


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


def test_check_proper_ideal_matches_walk_per_target():
    """Grouped walks give the reports of one walk per member of Y and per
    element, on every order ideal of the small corpus tables."""
    kinds = Counter()
    for S in _small_tables():
        for Y in _all_order_ideals(S):
            for max_len in (1, 2, 3, 4):
                for budget in (2, 50, 20000):
                    got = core.check_proper_ideal(S, Y, max_len, budget).lines()
                    assert got == reference_check_proper_ideal(
                        S, Y, max_len, budget).lines(), (S.names, Y, max_len, budget)
                    last = got[-1]
                    kinds[next((k for k in ("skipped", "truncated", "INCONCLUSIVE")
                                if k in last), last.split()[0])] += 1
    assert set(kinds) == {"PASS", "INCONCLUSIVE", "skipped", "truncated"}, kinds


def _graphs():
    graphs = [G for _, G in corpus.pm_graphs()]
    graphs += [product.underlying_graph(S, Y).graph
               for S in _small_tables() for Y in _all_order_ideals(S)
               if all(c.ok for c in core.ideal_checks(S, Y))]
    graphs += [cover.build_cover_graph(S, gens).graph
               for _, S, gens in corpus.cover_cases()]
    return graphs


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
