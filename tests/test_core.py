import random

import pytest

from ehresmann import core, corpus, product, relmonoid
from ehresmann.core import MalformedTableError, OpTableSemigroup
from ehresmann.relmonoid import ClosureOverflowError, Rel
from ehresmann.resgraph import ResGraph
from ehresmann.report import FAIL, INCONCLUSIVE, PASS

from oracles import (brute_min_congruence, parent_associativity_witness,
                     parent_greedy_generators, parent_verify_ehresmann, perturbed_table,
                     reference_associativity_witness,
                     reference_equivalent_factorizations, reference_matchify,
                     reference_natural_orders,
                     reference_sigma, reference_verify_ehresmann,
                     reference_verify_restriction)


def small_corpus():
    return [(name, S) for name, S in corpus.semigroups() if S.n <= 9]


def test_saturate_levels_and_bounds():
    """Breadth-first from the starts: each state at the level where it was
    first reached, in that order; every state is stepped once and the search
    stops at the first level that adds nothing, or after bound levels."""
    edges = {0: [1, 2], 1: [2], 2: [3], 3: [0]}
    stepped = []

    def steps(x):
        stepped.append(x)
        return edges[x]

    assert list(core.saturate([0], steps).items()) == [(0, 0), (1, 1), (2, 1), (3, 2)]
    assert stepped == [0, 1, 2, 3]
    # a duplicate start is kept once, at level 0, where it first appears
    assert list(core.saturate([2, 0, 2], steps).items()) == [(2, 0), (0, 0), (3, 1), (1, 1)]
    # bound counts levels like range: 0 and -1 take no step
    for bound, reached in ((None, {0: 0, 1: 1, 2: 1, 3: 2}), (5, {0: 0, 1: 1, 2: 1, 3: 2}),
                           (1, {0: 0, 1: 1, 2: 1}), (0, {0: 0}), (-1, {0: 0})):
        stepped.clear()
        assert core.saturate([0, 0], steps, bound) == reached, bound
        assert len(stepped) == len([k for k in reached.values() if bound is None or k < bound])
    # an infinite space ends at the bound
    assert core.saturate([0], lambda x: [x + 1, x + 2], 3) == {
        0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3}
    assert core.saturate([], steps) == {}


def test_find_halves_paths_over_lists_and_dicts():
    parent = [1, 2, 3, 3]
    assert core._find(parent, 0) == 3
    assert parent == [2, 2, 3, 3]
    parent = {"a": "b", "b": "c", "c": "c"}
    assert core._find(parent, "a") == "c" and core._find(parent, "c") == "c"


def test_semilattice_is_ehresmann():
    S = corpus.chain(2)
    rep = core.verify_ehresmann(S)
    assert rep.ok


def test_b2_is_ehresmann():
    rep = core.verify_ehresmann(corpus.rel_b2())
    assert rep.ok


def test_planted_violation_fails_with_witness():
    # plus[1] = 0 breaks x^+ x = x at x = 1 on the 2-chain
    S = OpTableSemigroup(2, [[0, 0], [0, 1]], [0, 0], [0, 1])
    rep = core.verify_ehresmann(S)
    bad = rep["x^+ x = x"]
    assert not bad.ok and bad.witness == (1,)


def test_malformed_table_rejected():
    with pytest.raises(MalformedTableError):
        OpTableSemigroup(2, [[0, 5], [0, 1]], [0, 1], [0, 1])
    with pytest.raises(MalformedTableError):
        OpTableSemigroup(2, [[0, 0]], [0, 1], [0, 1])


def test_pt2_left_restriction_only():
    S = corpus.rel_pt2()
    rep = core.verify_restriction(S, "both")
    assert rep["x y^+ = (x y)^+ x"].ok
    right = rep["x^* y = y (x y)^*"]
    assert not right.ok
    x, y = right.witness
    assert S.mult[S.star[x]][y] != S.mult[y][S.star[S.mult[x][y]]]


def test_i2_restriction_both_sides():
    assert core.verify_restriction(corpus.rel_i2(), "both").ok


def test_b2_ample_failure_matches_exhaustive_search():
    """The reported witness is a genuine violation, and the known violating
    pair from the relation picture is among the violations."""
    alg = relmonoid.full_B(2)
    S = alg.to_semigroup()
    rep = core.verify_restriction(S, "left")
    x, y = rep["x y^+ = (x y)^+ x"].witness
    assert S.mult[x][S.plus[y]] != S.mult[S.plus[S.mult[x][y]]][x]

    violations = {(a, b) for a in range(S.n) for b in range(S.n)
                  if S.mult[a][S.plus[b]] != S.mult[S.plus[S.mult[a][b]]][a]}
    s = alg.index[relmonoid.Rel.from_pairs(2, [(0, 0), (0, 1)])]
    e = alg.index[relmonoid.Rel.from_pairs(2, [(1, 1)])]
    assert (s, e) in violations


def test_projections_semilattice_cases():
    S = corpus.chain(3)
    assert core.projections(S) == (0, 1, 2)

    b2 = corpus.rel_b2()
    P = core.projections(b2)
    assert len(P) == 4  # the sub-identity relations
    ident = relmonoid.identity(2)
    alg = relmonoid.full_B(2)
    for e in P:
        assert alg.elements[e].issubset(ident)

    reduced = corpus.cyclic_group(4)
    assert len(core.projections(reduced)) == 1


def test_projection_image_mismatch_rejected():
    S = OpTableSemigroup(2, [[0, 1], [1, 1]], [0, 0], [1, 1])
    with pytest.raises(ValueError):
        core.projections(S)


def test_natural_orders_reflexive_and_composed():
    for name, S in small_corpus():
        orders = core.natural_orders(S)
        P = core.projections(S)
        n = S.n
        for a in range(n):
            assert orders.le_l[a][a] and orders.le_r[a][a] and orders.le[a][a]
        # le = le_l o le_r = le_r o le_l, and le matches its two-sided definition
        for a in range(n):
            for b in range(n):
                two_sided = any(S.mult[S.mult[e][b]][f] == a for e in P for f in P)
                assert orders.le[a][b] == two_sided, name
                comp_lr = any(orders.le_l[a][c] and orders.le_r[c][b] for c in range(n))
                comp_rl = any(orders.le_r[a][c] and orders.le_l[c][b] for c in range(n))
                assert orders.le[a][b] == comp_lr == comp_rl, name


def test_natural_orders_are_partial_orders():
    for name, S in small_corpus():
        orders = core.natural_orders(S)
        for table in (orders.le_l, orders.le_r, orders.le):
            n = S.n
            for a in range(n):
                assert table[a][a], name
                for b in range(n):
                    if table[a][b] and table[b][a]:
                        assert a == b, name
                    for c in range(n):
                        if table[a][b] and table[b][c]:
                            assert table[a][c], name


def test_le_l_implies_plus_le():
    for name, S in small_corpus():
        orders = core.natural_orders(S)
        for a in range(S.n):
            for b in range(S.n):
                if orders.le_l[a][b]:
                    assert orders.le[S.plus[a]][S.plus[b]], name


def test_le_implies_sigma():
    for name, S in small_corpus():
        orders = core.natural_orders(S)
        cong, _ = core.sigma(S)
        for a in range(S.n):
            for b in range(S.n):
                if orders.le[a][b]:
                    assert cong.same(a, b), name


def test_projection_shift_identities():
    # (s e)^* = s^* e and (e s)^+ = e s^+ for projections e
    for name, S in small_corpus():
        P = core.projections(S)
        for s in range(S.n):
            for e in P:
                assert S.star[S.mult[s][e]] == S.mult[S.star[s]][e], name
                assert S.plus[S.mult[e][s]] == S.mult[e][S.plus[s]], name


def test_sigma_trivial_cases():
    cong, quotient = core.sigma(corpus.chain(3))
    assert cong.num_classes() == 1 and quotient.n == 1

    cong, quotient = core.sigma(corpus.cyclic_group(4))
    assert cong.num_classes() == 4
    assert quotient.n == 4


def test_sigma_quotient_is_reduced_monoid():
    for name, S in small_corpus():
        cong, quotient = core.sigma(S)
        assert core.verify_ehresmann(quotient).ok, name
        assert len(core.projections(quotient)) == 1, name


def test_sigma_matches_bruteforce_on_pt2():
    S = corpus.rel_pt2()
    cong, _ = core.sigma(S)
    class_of, classes = brute_min_congruence(S)
    pairs_fast = {(a, b) for a in range(S.n) for b in range(S.n)
                  if cong.same(a, b)}
    pairs_brute = {(a, b) for a in range(S.n) for b in range(S.n)
                   if class_of[a] == class_of[b]}
    assert pairs_fast == pairs_brute


def test_sigma_on_restriction_semigroup_has_translation_witnesses():
    # on a restriction semigroup, s sigma t iff es = et for a projection e,
    # iff se = te for a projection e
    S = corpus.rel_i2()
    cong, _ = core.sigma(S)
    P = core.projections(S)
    for s in range(S.n):
        for t in range(S.n):
            left = any(S.mult[e][s] == S.mult[e][t] for e in P)
            right = any(S.mult[s][e] == S.mult[t][e] for e in P)
            assert left == right == cong.same(s, t)


def test_proper_elements():
    S = corpus.chain(4)
    assert core.proper_elements(S) == frozenset(range(4))

    e2t2 = corpus.semigroups()
    by_name = dict(e2t2)
    prod = by_name["e2t2_product"]
    assert core.proper_elements(prod) == frozenset(range(prod.n))

    # strictly proper iff every element proper, by definition of the set
    for name, S in small_corpus():
        assert core.is_strictly_proper(S) == (
            core.proper_elements(S) == frozenset(range(S.n))), name


def test_is_matching():
    S = corpus.rel_pt2()
    for s in range(S.n):
        assert core.is_matching(S, [s])
    e = core.projections(S)[0]
    assert core.is_matching(S, [e, e])
    found_mismatch = False
    for s in range(S.n):
        for t in range(S.n):
            if S.star[s] != S.plus[t]:
                assert not core.is_matching(S, [s, t])
                found_mismatch = True
    assert found_mismatch


def test_matching_factorization_endpoints():
    # for any matching pair and triple, the product keeps the first plus
    # and the last star
    for name, S in small_corpus():
        if S.n > 6:
            continue
        for a in range(S.n):
            for b in range(S.n):
                if S.star[a] != S.plus[b]:
                    continue
                ab = S.mult[a][b]
                assert S.plus[ab] == S.plus[a], name
                assert S.star[ab] == S.star[b], name
                for c in range(S.n):
                    if S.star[b] != S.plus[c]:
                        continue
                    abc = S.mult[ab][c]
                    assert S.plus[abc] == S.plus[a], name
                    assert S.star[abc] == S.star[c], name


def test_corestriction_pass_law():
    # shrinking a matching factorization on the right keeps it matching,
    # multiplies the product by the chosen projection, and only shrinks
    # factors
    from ehresmann.core import _corestrict_factorization
    rng = random.Random(23)
    for name, S in small_corpus():
        orders = core.natural_orders(S)
        P = core.projections(S)
        for _ in range(100):
            seq = core.matchify(
                S, [rng.randrange(S.n) for _ in range(rng.randint(1, 3))])
            prod = S.prod(seq)
            below = [e for e in P if S.mult[e][S.star[prod]] == e]
            e = rng.choice(below)
            out = _corestrict_factorization(S, seq, e)
            assert core.is_matching(S, out), name
            assert S.prod(out) == S.mult[prod][e], name
            assert S.star[out[-1]] == e, name
            for x, y in zip(out, seq):
                assert orders.le[x][y], name


def test_matchify_projection_pair():
    S = corpus.diamond()
    e, f = 1, 2
    out = core.matchify(S, [e, f])
    ef = S.mult[e][f]
    assert out == [ef, ef]


def test_matchify_laws_random():
    # criterion 4's laws, and agreement with the recursion on the prefix,
    # on short sequences over the small corpus and on longer ones over the
    # whole corpus, full B(2), PT(3) and I(3) and seeded random subalgebras
    rng = random.Random(7)
    cases = [(name, S, [rng.randint(1, 4) for _ in range(200)])
             for name, S in small_corpus()]
    named = list(corpus.semigroups()) + _random_subalgebras(random.Random(481))
    named += [(f"full_{build.__name__}", build(n).to_semigroup()) for build, n in (
        (relmonoid.full_B, 2), (relmonoid.full_PT, 3), (relmonoid.full_I, 3))]
    cases += [(name, S, [rng.randint(1, 6) for _ in range(40)] + [60])
              for name, S in named]
    for name, S, lengths in cases:
        assert core.verify_ehresmann(S).ok, name
        le = core.natural_orders(S).le
        for k in lengths:
            seq = [rng.randrange(S.n) for _ in range(k)]
            out = core.matchify(S, seq)
            assert out == reference_matchify(S, seq), (name, seq)
            prod = S.prod(seq)
            assert core.is_matching(S, out), (name, seq)
            assert S.prod(out) == prod, (name, seq)
            assert all(le[a][b] for a, b in zip(out, seq)), (name, seq)
            assert S.plus[out[0]] == S.plus[prod], (name, seq)
            assert S.star[out[-1]] == S.star[prod], (name, seq)


def test_matchify_idempotent_on_matching_input():
    S = corpus.rel_pt2()
    rng = random.Random(11)
    for _ in range(100):
        seq = [rng.randrange(S.n) for _ in range(rng.randint(1, 3))]
        out = core.matchify(S, seq)
        again = core.matchify(S, out)
        assert core.is_matching(S, again)
        assert S.prod(again) == S.prod(out)


def test_check_proper_ideal_strictly_proper_pass():
    S = corpus.diamond()
    rep = core.check_proper_ideal(S, range(S.n), max_len=3)
    assert rep.status == PASS


def test_check_proper_ideal_product_pass():
    S = dict(corpus.semigroups())["e2t2_product"]
    rep = core.check_proper_ideal(S, range(S.n), max_len=3)
    assert rep.status == PASS


def test_check_proper_ideal_missing_projection():
    S = corpus.chain(3)
    rep = core.check_proper_ideal(S, [1, 2], max_len=3)
    assert rep["projections_in_Y"].status == FAIL
    assert rep.status == FAIL


def test_check_proper_ideal_not_an_ideal():
    S = corpus.chain(3)
    # take Y = projections plus nothing else is fine; to break the ideal
    # condition we need a semigroup with non-projections, use e2t2 product
    S = dict(corpus.semigroups())["e2t2_product"]
    # element 3 = (e,t,f) is above (f,t,f)=2 in the natural order; drop 2
    orders = core.natural_orders(S)
    below = [a for a in range(S.n) if orders.le[a][3] and a != 3]
    assert below
    Y = [x for x in range(S.n) if x not in below]
    rep = core.check_proper_ideal(S, Y, max_len=3)
    assert rep["Y_is_order_ideal"].status == FAIL


def test_check_proper_ideal_non_proper_member():
    S = corpus.rel_i2()
    assert not core.is_strictly_proper(S)
    rep = core.check_proper_ideal(S, range(S.n), max_len=3)
    bad = rep["Y_elements_proper"]
    assert bad.status == FAIL
    y, other = bad.witness
    cong, _ = core.sigma(S)
    assert (S.plus[y], S.star[y], cong.class_of[y]) == \
        (S.plus[other], S.star[other], cong.class_of[other])
    assert y != other


def test_check_proper_ideal_bad_max_len():
    with pytest.raises(ValueError):
        core.check_proper_ideal(corpus.chain(2), [0, 1], max_len=0)


def test_check_proper_ideal_inconclusive_at_tight_bound():
    # drop a maximal element of the eight-element monoid from Y: it still
    # factors as a matching product of two Y-elements, which a length
    # bound of 1 cannot see
    S = corpus.eight_monoid()
    orders = core.natural_orders(S)
    maximal = [u for u in range(S.n)
               if all(not orders.le[u][w] or w == u for w in range(S.n))]
    target = None
    for u in maximal:
        Y = [x for x in range(S.n) if x != u]
        pairs = [(a, b) for a in Y for b in Y
                 if S.mult[a][b] == u and S.star[a] == S.plus[b]]
        if pairs and frozenset(core.projections(S)) <= frozenset(Y):
            target = u
            break
    assert target is not None
    Y = [x for x in range(S.n) if x != target]
    rep = core.check_proper_ideal(S, Y, max_len=1)
    assert rep["factorization_exists"].status == INCONCLUSIVE
    assert rep.status == INCONCLUSIVE
    rep2 = core.check_proper_ideal(S, Y, max_len=2)
    assert rep2["factorization_exists"].status == PASS


def _order_ideals(S):
    """The whole set, the projections, and the projections together with the
    principal order ideal of each non-projection."""
    P = frozenset(core.projections(S))
    le = core.natural_orders(S).le
    ideals = {frozenset(range(S.n)), P}
    for s in range(S.n):
        if s not in P:
            ideals.add(P | {t for t in range(S.n) if le[t][s]})
    return sorted(sorted(Y) for Y in ideals)


def _per_pair_search(S, Yset, start, goals, max_len, expansions, budget):
    for goal in goals:
        if reference_equivalent_factorizations(S, Yset, start, goal, max_len,
                                               expansions, budget) is not True:
            return goal
    return None


def test_check_proper_ideal_matches_per_pair_search(monkeypatch):
    """One shared search per element gives the reports, witnesses included,
    of one search per pair of factorizations."""
    cases = [(S, Y, max_len, budget)
             for _, S in corpus.semigroups() if S.n <= 12
             for Y in _order_ideals(S)
             for max_len in (2, 3)
             for budget in (3, 300, 20000)]
    fast = [core.check_proper_ideal(*case).lines() for case in cases]
    monkeypatch.setattr(core, "_first_unreached_factorization", _per_pair_search)
    reference = [core.check_proper_ideal(*case).lines() for case in cases]
    assert fast == reference
    searched_out = [lines for lines in reference
                    if lines[-1].startswith(INCONCLUSIVE)
                    and "skipped" not in lines[-1] and "truncated" not in lines[-1]]
    assert searched_out


def _kernel_corpus_tables():
    """Every square table of the corpus with at most 64 entries per row:
    semigroup multiplications, semilattice meets and monoid tables."""
    tables = [S.mult for _, S in corpus.semigroups()]
    tables += [G.sl.meet for _, G in corpus.pm_graphs()]
    tables += [G.mon.mult for _, G in corpus.pm_graphs() if not G.mon.is_free]
    for alg in (relmonoid.full_B(2), relmonoid.full_I(3), relmonoid.full_PT(3)):
        tables.append(alg.to_semigroup().mult)
    return [t for t in tables if len(t) <= 64]


def _right_closure(table, gens):
    """The elements reached from gens by right products of gens."""
    reached, frontier = set(gens), list(gens)
    while frontier:
        y = frontier.pop()
        for g in gens:
            z = table[y][g]
            if z not in reached:
                reached.add(z)
                frontier.append(z)
    return reached


def test_associativity_kernel_matches_triple_loop_oracle():
    rng = random.Random(3)
    tables = _kernel_corpus_tables()
    assert len(tables) > 30 and max(len(t) for t in tables) == 64
    fails = 0
    for table in tables:
        n = len(table)
        assert _right_closure(table, core.greedy_generators(table)) == set(range(n))
        assert core.associativity_witness(table) is None
        assert reference_associativity_witness(table) is None
        if n == 1:
            continue
        for _ in range(2):
            bad = [list(row) for row in table]
            x, y = rng.randrange(n), rng.randrange(n)
            bad[x][y] = (bad[x][y] + rng.randrange(1, n)) % n
            rows = core.table_rows(bad, n)
            assert _right_closure(bad, core.greedy_generators(rows)) == set(range(n))
            witness = core.associativity_witness(rows)
            assert witness == reference_associativity_witness(bad)
            fails += witness is not None
    assert fails > 50
    # every row of Z_12 has 12 entries, so the rank order is the index order
    # and Z_12 is generated by 0 and 1: Light's test compares two rows only;
    # one changed entry breaks associativity
    z12 = [[(x + y) % 12 for y in range(12)] for x in range(12)]
    assert core.greedy_generators(core.table_rows(z12, 12)) == [0, 1]
    assert core.associativity_witness(core.table_rows(z12, 12)) is None
    z12[3][4] = 0
    witness = reference_associativity_witness(z12)
    assert witness is not None
    assert core.associativity_witness(core.table_rows(z12, 12)) == witness
    # in the rank order PT(3) needs 4 generators, in index order 20
    pt3 = relmonoid.full_PT(3).to_semigroup().mult
    index_order = core.right_cayley_graph(range(64), lambda y, g: pt3[y][g])[0]
    assert (len(core.greedy_generators(pt3)), len(index_order)) == (4, 20)


def _direct_product(S, T):
    """S x T with every operation taken coordinatewise, (s, t) numbered
    s |T| + t."""
    k = T.n
    pairs = [(s, t) for s in range(S.n) for t in range(k)]
    return OpTableSemigroup(
        S.n * k, [[S.mult[s][u] * k + T.mult[t][v] for u, v in pairs] for s, t in pairs],
        [S.plus[s] * k + T.plus[t] for s, t in pairs],
        [S.star[s] * k + T.star[t] for s, t in pairs])


def _with_identity(S):
    """S with an identity 1 = n adjoined, 1^+ = 1^* = 1."""
    n = S.n
    mult = [list(row) + [x] for x, row in enumerate(S.mult)] + [list(range(n + 1))]
    return OpTableSemigroup(n + 1, mult, S.plus + [n], S.star + [n])


def _byte_row_inputs(rng):
    """The corpus semigroups, full B(2), I(3) and PT(3), and tables of 7, 8,
    255, 256 and 257 elements, at both ends of the byte rows (cyclic groups,
    chains and direct products of corpus tables, one with an identity
    adjoined); then, eight times for each of the first and three times for
    each boundary table, a copy with one random edit of mult, plus or star
    and a copy of that with a second edit; last, each boundary table with
    star of 0 set to the first element that does not commute with some
    value of star, where there is one, so that x^* y^* = y^* x^* fails on
    list rows too."""
    small = [S for _, S in corpus.semigroups()]
    small += [alg.to_semigroup() for alg in (relmonoid.full_B(2), relmonoid.full_I(3),
                                             relmonoid.full_PT(3))]
    pt3_chain4 = _direct_product(small[-1], corpus.chain(4))
    boundary = [corpus.cyclic_group(k) for k in (7, 8, 255, 256, 257)]
    boundary += [corpus.chain(7), corpus.chain(8),
                 _direct_product(corpus.cyclic_group(15), corpus.chain(17)), pt3_chain4,
                 _direct_product(small[-3], corpus.cyclic_group(16)), _with_identity(pt3_chain4)]
    assert sorted({S.n for S in boundary}) == [7, 8, 255, 256, 257]
    edited = []
    for S in small * 8 + boundary * 3:
        T = perturbed_table(S, rng)
        edited += [T, perturbed_table(T, rng)]
    for S in boundary:
        m, image = S.mult, set(S.star)
        a = next((a for a in range(S.n) if any(m[a][e] != m[e][a] for e in image)), None)
        if a is not None:
            edited.append(OpTableSemigroup(S.n, S.mult, [*S.plus], [a, *S.star[1:]]))
    return small + boundary + edited


def test_byte_rows_match_parent_kernel():
    """Light's test, its generating set A and the nine checks of
    verify_ehresmann by byte rows give the parent's answers, witnesses
    included, on every table of the kernel corpus, at both ends of the byte
    rows and on edited copies, where each check fails somewhere with byte
    rows and somewhere without."""
    for table in _kernel_corpus_tables():
        assert core.greedy_generators(table) == parent_greedy_generators(table)
        assert core.associativity_witness(table) == parent_associativity_witness(table)
    fails = {}
    for S in _byte_row_inputs(random.Random(29)):
        got = core.verify_ehresmann(S)
        assert core._light(S)[0] == parent_greedy_generators(S.mult)
        assert got.checks == parent_verify_ehresmann(S).checks
        assert core.associativity_witness(S.mult) == got["associativity"].witness
        for check in got.checks:
            if check.status == FAIL:
                fails.setdefault(check.name, set()).add(S.n not in core.BYTE_ROW_SIZES)
    assert len(fails) == 9 and all(sides == {False, True} for sides in fails.values()), fails


def test_sigma_and_orders_are_computed_once_per_semigroup():
    S = corpus.rel_pt2()
    cong, quotient = core.sigma(S)
    again = core.sigma(S)
    assert again[0] is cong and again[1] is quotient
    assert core.natural_orders(S) is core.natural_orders(S)
    assert core.fibers(S) is core.fibers(S)
    assert core.projections(S) is core.projections(S)
    # the cache takes no part in equality, repr or the interchange format
    fresh = OpTableSemigroup(S.n, S.mult, S.plus, S.star, S.names)
    assert fresh == S and repr(fresh) == repr(S)
    assert "_memo" not in repr(S)
    from ehresmann import io
    assert io.dump_semigroup(fresh) == io.dump_semigroup(S)


def _random_subalgebras(rng):
    """Subalgebras of B(2), B(3) and PT(3) generated by one to three random
    relations or partial maps, each under 130 elements."""
    out = []
    for family, n, tries in (("B2", 2, 10), ("B3", 3, 24), ("PT3", 3, 24)):
        for _ in range(tries):
            if family == "PT3":
                images = [[rng.randrange(n + 1) for _ in range(n)]
                          for _ in range(rng.randint(1, 3))]
                gens = [Rel.from_pairs(n, [(x, y) for x, y in enumerate(im) if y < n])
                        for im in images]
            else:
                gens = [Rel.from_pairs(n, [(i, j) for i in range(n) for j in range(n)
                                           if rng.random() < 0.35])
                        for _ in range(rng.randint(1, 3))]
            try:
                alg = relmonoid.generate(n, gens, cap=129)
            except ClosureOverflowError:
                continue
            out.append((f"{family}_sub{len(out)}", alg.to_semigroup()))
    return out


def _perturbed_tables(rng, named):
    """Each table with one entry of plus, star or mult changed, and the
    products of the corpus graphs with one restriction or corestriction
    entry sent to another edge."""
    out = []
    for name, S in named:
        out += [(f"{name}_perturbed{k}", perturbed_table(S, rng)) for k in range(3)]
    # one product changed, so that translation by the generating set of
    # Light's test alone leaves apart a pair that translation by every
    # element merges
    tables = dict(corpus.semigroups())
    for name, x, y, v in (("e2t2_product", 1, 1, 3), ("complete2_t2_product", 5, 5, 0)):
        S = tables[name]
        mult = [list(row) for row in S.mult]
        mult[x][y] = v
        out.append((f"{name}_mult{x}{y}", OpTableSemigroup(S.n, mult, S.plus, S.star)))
    for name, G in corpus.pm_graphs():
        edges = G.sorted_edges()
        for side in (0, 1):
            keys = sorted((G._restrict, G._corestrict)[side])
            for key in (keys[0], keys[-1]):
                maps = [dict(G._restrict), dict(G._corestrict)]
                maps[side][key] = rng.choice(edges)
                try:
                    S, _ = product.build_product(ResGraph(G.sl, G.mon, G.edges, *maps))
                except ValueError:
                    continue
                out.append((f"{name}_product{side}", S))
    return out


def _sigma_and_orders(sigma, orders, S):
    """sigma's classes and quotient tables and the three order tables of S,
    each replaced by the type and message of the ValueError it raises."""
    def outcome(fn, read):
        try:
            return read(fn(S))
        except ValueError as exc:
            return type(exc), str(exc)
    return (outcome(sigma, lambda r: (r[0].n, r[0].class_of, r[0].classes, r[1].mult,
                                      r[1].plus, r[1].star, r[1].names)),
            outcome(orders, lambda o: (o.le_l, o.le_r, o.le)))


def test_sigma_and_orders_match_reference_loops():
    # sigma translates by the generating set of Light's test and <= tries
    # the one candidate a^* only on tables that pass their gates; the
    # reference translates by every element and tries every projection
    rng = random.Random(104)
    named = list(corpus.semigroups())
    named += [(f"full_{name}", build(n).to_semigroup()) for name, build, n in (
        ("B2", relmonoid.full_B, 2), ("PT3", relmonoid.full_PT, 3),
        ("I3", relmonoid.full_I, 3))]
    subalgebras = _random_subalgebras(rng)
    assert len(subalgebras) >= 30 and max(S.n for _, S in subalgebras) < 130
    named += subalgebras
    named += _perturbed_tables(rng, [(name, S) for name, S in named if S.n <= 64])
    # they pass verify_ehresmann, but a product of two of the projections
    # 0..k-1 is k, whose x^+ = x^* is 0: <= must try every projection
    for k in (2, 3):
        mult = [[i if i == j < k else k for j in range(k + 1)] for i in range(k + 1)]
        unary = list(range(k)) + [0]
        named.append((f"projections{k}_not_closed",
                      OpTableSemigroup(k + 1, mult, unary, unary)))
    paths = {"ehresmann": 0, "not associative": 0, "associative only": 0,
             "raises": 0, "P not closed": 0}
    for name, S in named:
        got = _sigma_and_orders(core.sigma, core.natural_orders, S)
        T = OpTableSemigroup(S.n, S.mult, S.plus, S.star, S.names)
        assert got == _sigma_and_orders(reference_sigma, reference_natural_orders, T), name
        if isinstance(got[0][1], str):
            paths["raises"] += 1
            continue
        report = core.verify_ehresmann(S)
        assert report["associativity"].witness == core.associativity_witness(S.mult), name
        if report.ok:
            P = core.projections(S)
            closed = {S.mult[e][f] for e in P for f in P} <= set(P)
            paths["ehresmann" if closed else "P not closed"] += 1
        else:
            paths["associative only" if report["associativity"].ok
                  else "not associative"] += 1
        if S.n <= 9:
            assert got[0][1] == brute_min_congruence(S)[0], name
    not_closed = paths.pop("P not closed")
    assert not_closed >= 2 and min(paths.values()) >= 5, (not_closed, paths)


def _verify_inputs(rng):
    """Tables for the verify differential: the corpus, full B(1..2),
    PT(1..3), I(1..3) and PTc(2..3), seeded random subalgebras, copies of
    those with 1, 2 and 5 successive random edits, and every table with one
    or two elements."""
    named = list(corpus.semigroups())
    for name, build, sizes in (("B", relmonoid.full_B, (1, 2)),
                               ("PT", relmonoid.full_PT, (1, 2, 3)),
                               ("I", relmonoid.full_I, (1, 2, 3)),
                               ("PTc", relmonoid.full_PTc, (2, 3))):
        named += [(f"full_{name}{k}", build(k).to_semigroup()) for k in sizes]
    named += _random_subalgebras(rng)
    for name, S in list(named):
        T = S
        for edits in range(1, 6):
            T = perturbed_table(T, rng)
            if edits in (1, 2, 5):
                named.append((f"{name}_edits{edits}", T))
    named.append(("one", OpTableSemigroup(1, [[0]], [0], [0])))
    for code in range(1 << 8):
        bits = [code >> i & 1 for i in range(8)]
        named.append((f"two{code}", OpTableSemigroup(2, [bits[0:2], bits[2:4]],
                                                     bits[4:6], bits[6:8])))
    return named


def test_verify_matches_reference_scans():
    # whole-row checks against pair-by-pair scans: the same statuses and
    # the same first witness on every failure
    named = _verify_inputs(random.Random(104))
    fails = {}
    for name, S in named:
        T = OpTableSemigroup(S.n, S.mult, S.plus, S.star)
        got = core.verify_ehresmann(S)
        assert got.checks == reference_verify_ehresmann(T).checks, name
        for side in ("left", "right", "both"):
            restriction = core.verify_restriction(S, side)
            assert restriction.checks == reference_verify_restriction(T, side).checks, name
        for check in got.checks + restriction.checks:
            fails[check.name] = fails.get(check.name, 0) + (check.status == FAIL)
    assert len(fails) == 11 and min(fails.values()) >= 5, fails
    # and at both ends of the byte rows, where each restriction identity
    # fails on bytes rows and on list rows
    sides = {}
    for S in _byte_row_inputs(random.Random(29)):
        if S.n not in (7, 8, 255, 256, 257):
            continue
        want = reference_verify_restriction(OpTableSemigroup(S.n, S.mult, S.plus, S.star)).checks
        assert core.verify_restriction(S, "both").checks == want
        assert core.verify_restriction(S, "left").checks + core.verify_restriction(
            S, "right").checks == want
        for check in want:
            if check.status == FAIL:
                sides.setdefault(check.name, set()).add(S.n not in core.BYTE_ROW_SIZES)
    assert len(sides) == 2 and all(band == {False, True} for band in sides.values()), sides


def test_row_forms_match_comprehensions():
    """Both row forms against plain comprehensions, on seeded random rows at
    the ends of the byte rows and at 1 and 2 elements: a row read through
    another, one at a time, through one row and pairwise; the ids each row
    misses; and the columns.  List rows serve only above 256 elements and
    are checked from 2 elements up, as itemgetter of one index returns an
    item."""
    rng = random.Random(36)
    for n in (1, 2, 7, 8, 255, 256, 257):
        fs, gs = ([[rng.randrange(n) for _ in range(n)] for _ in range(n)] for _ in range(2))
        fs[0], gs[-1] = list(range(n)), [n - 1] * n     # nothing and all but one missed
        assert core.row_form(n) is (core._ByteRows if n <= 256 else core._ListRows)
        for R in ([core._ListRows] if n > 1 else []) + ([core._ByteRows] if n <= 256 else []):
            F, G = list(map(R.row, fs)), list(map(R.row, gs))
            assert list(map(R.read, F, map(R.lookup, G))) == [
                R.row([g[z] for z in f]) for f, g in zip(fs, gs)]
            assert list(R.pairwise(F, R.lookups(G))) == [
                R.row([g[z] for z in f]) for f, g in zip(fs, gs)]
            for f in fs[0], fs[n // 2]:
                assert list(R.through(R.row(f), R.lookups(G))) == [
                    R.row([g[z] for z in f]) for g in gs]
            assert R.missing(F + G) == [n - len(set(f)) for f in fs + gs]
            assert R.columns(F) == [R.row([f[a] for f in fs]) for a in range(n)]
            assert R.columns(F[:3]) == [R.row([f[a] for f in fs[:3]]) for a in range(n)]
