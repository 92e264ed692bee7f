import random
import re
from collections import Counter

import pytest

from ehresmann import core, corpus, relmonoid
from ehresmann.relmonoid import ClosureOverflowError, Rel

from oracles import (compose_pairs, parent_generate, parent_round_order,
                     parent_to_semigroup, reference_generate, reference_table)


def rel(n, *pairs):
    return Rel.from_pairs(n, pairs)


def test_compose_identity_and_empty():
    a = rel(3, (0, 1), (2, 2))
    assert relmonoid.compose(relmonoid.identity(3), a) == a
    assert relmonoid.compose(a, relmonoid.identity(3)) == a
    assert relmonoid.compose(relmonoid.empty(3), a) == relmonoid.empty(3)


def test_compose_matches_set_oracle():
    # the example on a 4-point ground set: {(0,2),(1,3)} ; {(2,2)} = {(0,2)}
    a = rel(4, (0, 2), (1, 3))
    b = rel(4, (2, 2))
    out = relmonoid.compose(a, b)
    assert set(out.pairs()) == compose_pairs(set(a.pairs()), set(b.pairs()))
    assert out == rel(4, (0, 2))

    import random
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 4)
        pa = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 6))}
        pb = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 6))}
        x, y = Rel.from_pairs(n, pa), Rel.from_pairs(n, pb)
        assert set(relmonoid.compose(x, y).pairs()) == compose_pairs(pa, pb)


def test_compose_ground_mismatch():
    with pytest.raises(ValueError):
        relmonoid.compose(rel(2, (0, 0)), rel(3, (0, 0)))


def test_dom_ran():
    ident = relmonoid.identity(2)
    assert relmonoid.dom_ran(ident) == (ident, ident)

    tau = rel(2, (0, 0), (0, 1))
    d, r = relmonoid.dom_ran(tau)
    assert d == rel(2, (0, 0))
    assert r == ident

    e = relmonoid.empty(2)
    assert relmonoid.dom_ran(e) == (e, e)

    for a in relmonoid.all_relations(2):
        d, r = relmonoid.dom_ran(a)
        assert relmonoid.compose(d, a) == a
        assert relmonoid.compose(a, r) == a


def test_classify():
    assert relmonoid.classify(relmonoid.identity(2)) == {
        "in_PT": True, "in_PTc": True, "in_I": True}
    assert relmonoid.classify(rel(2, (0, 0), (0, 1))) == {
        "in_PT": False, "in_PTc": True, "in_I": False}
    assert relmonoid.classify(rel(3, (0, 2), (1, 2))) == {
        "in_PT": True, "in_PTc": False, "in_I": False}


def _classify_pairwise(a):
    """classify by definition: at most one pair per row and per column."""
    rng = range(a.n)
    in_pt = all(sum(a.has(x, y) for y in rng) <= 1 for x in rng)
    in_ptc = all(sum(a.has(x, y) for x in rng) <= 1 for y in rng)
    return {"in_PT": in_pt, "in_PTc": in_ptc, "in_I": in_pt and in_ptc}


def test_classify_matches_pairwise_definition():
    """Every relation on at most 3 points, and random relations on 4 and 5
    points: uniform ones, sparse ones, and converses of partial maps."""
    rng = random.Random(25)
    rels = [a for n in range(4) for a in relmonoid.all_relations(n)]
    for n in (4, 5):
        pairs = [(x, y) for x in range(n) for y in range(n)]
        for _ in range(300):
            rels.append(Rel(n, rng.getrandbits(n * n)))
            rels.append(Rel.from_pairs(n, rng.sample(pairs, rng.randint(0, n + 1))))
            rels.append(Rel.from_pairs(n, [(rng.randrange(n), x) for x in range(n)
                                           if rng.random() < 0.8]))
    flags = Counter()
    for a in rels:
        got = relmonoid.classify(a)
        assert got == _classify_pairwise(a), a
        flags.update(k for k, v in got.items() if v)
        flags.update(k + "=False" for k, v in got.items() if not v)
    assert len(flags) == 6, flags


def test_classify_closed_under_operations():
    for flag, rels in (("in_PT", relmonoid.all_partial_maps(2)),
                       ("in_PTc", relmonoid.all_partial_comaps(2)),
                       ("in_I", relmonoid.all_partial_bijections(2))):
        for a in rels:
            d, r = relmonoid.dom_ran(a)
            assert relmonoid.classify(d)[flag] and relmonoid.classify(r)[flag]
            for b in rels:
                assert relmonoid.classify(relmonoid.compose(a, b))[flag]


def test_generate_single_relation():
    alg = relmonoid.generate(1, [rel(1, (0, 0))])
    assert len(alg.elements) == 1
    alg = relmonoid.generate(1, [rel(1, (0, 0)), relmonoid.empty(1)])
    assert len(alg.elements) == 2


def test_generate_full_b2():
    alg = relmonoid.generate(2, relmonoid.all_relations(2))
    assert len(alg.elements) == 16
    S = alg.to_semigroup()
    assert core.verify_ehresmann(S).ok


def test_generate_all_partial_maps_is_pt2():
    alg = relmonoid.generate(2, relmonoid.all_partial_maps(2))
    assert len(alg.elements) == 9
    S = alg.to_semigroup()
    assert core.verify_ehresmann(S).ok
    assert core.verify_restriction(S, "left").ok


def test_full_monoid_sizes():
    assert len(relmonoid.full_B(2).elements) == 16
    assert len(relmonoid.full_PT(2).elements) == 9
    assert len(relmonoid.full_PTc(2).elements) == 9
    assert len(relmonoid.full_I(2).elements) == 7
    assert len(relmonoid.full_I(3).elements) == 34


def test_closure_cap_overflow():
    with pytest.raises(ClosureOverflowError):
        relmonoid.generate(2, relmonoid.all_relations(2), cap=5)


def test_closure_cap_env(monkeypatch):
    monkeypatch.setenv("EHRESMANN_MAX_CLOSURE", "5")
    with pytest.raises(ClosureOverflowError):
        relmonoid.generate(2, relmonoid.all_relations(2))


def test_natural_le_contained_in_inclusion():
    rels = relmonoid.all_relations(2)
    for a in rels:
        for b in rels:
            if relmonoid.natural_le(a, b):
                assert a.issubset(b)


def test_natural_le_equals_inclusion_on_partial_bijections():
    rels = relmonoid.all_partial_bijections(2)
    for a in rels:
        for b in rels:
            assert relmonoid.natural_le(a, b) == a.issubset(b)


def test_inclusion_strictly_bigger_on_b4():
    # mu subset of tau but mu not <= tau, on the 4-point ground set
    mu = rel(4, (0, 2), (1, 3))
    tau = rel(4, (0, 2), (0, 3), (1, 2), (1, 3))
    assert mu.issubset(tau)
    assert not relmonoid.natural_le(mu, tau)


def test_natural_le_on_table_agrees_with_relation_level():
    alg = relmonoid.full_B(2)
    S = alg.to_semigroup()
    orders = core.natural_orders(S)
    for i, a in enumerate(alg.elements):
        for j, b in enumerate(alg.elements):
            assert orders.le[i][j] == relmonoid.natural_le(a, b)


def test_i2_table_order_is_inclusion():
    # on the symmetric inverse monoid the natural order of the table is
    # exactly relation inclusion
    alg = relmonoid.full_I(2)
    S = alg.to_semigroup()
    orders = core.natural_orders(S)
    for i, a in enumerate(alg.elements):
        for j, b in enumerate(alg.elements):
            assert orders.le[i][j] == a.issubset(b)


def _assert_same_algebra(alg, ref):
    """Same element order and the same tables as the reference closure and
    the reference n^2-composition table build."""
    assert alg.elements == ref.elements and alg.index == ref.index
    S, T = alg.to_semigroup(), reference_table(ref)
    assert (S.mult, S.plus, S.star, S.names) == (T.mult, T.plus, T.star, T.names)


@pytest.mark.parametrize("builder, sizes", [
    (relmonoid.full_B, (1, 2)), (relmonoid.full_PT, (1, 2, 3)),
    (relmonoid.full_I, (1, 2, 3)), (relmonoid.full_PTc, (2,))])
def test_tables_match_reference_on_full_monoids(builder, sizes):
    for n in sizes:
        alg = builder(n)
        _assert_same_algebra(alg, alg)
        _assert_same_algebra(relmonoid.generate(n, alg.elements),
                             reference_generate(n, alg.elements))


@pytest.mark.parametrize("build, n, gens", [
    (corpus.sub_b2_row, 2, [[(0, 0), (0, 1)]]),
    (corpus.eight_monoid, 2, [[(0, 0), (0, 1)], [(1, 0)]]),
    (corpus.sub_pt2_swap, 2, [[(0, 1), (1, 0)]])])
def test_tables_match_reference_on_corpus_generators(build, n, gens):
    # names are the relations, so equal names pin the element order
    S = build()
    T = reference_table(reference_generate(n, [Rel.from_pairs(n, g) for g in gens]))
    assert (S.mult, S.plus, S.star, S.names) == (T.mult, T.plus, T.star, T.names)


@pytest.mark.parametrize("n, density", [(2, 0.5), (3, 0.35)])
def test_generate_matches_reference_on_random_generators(n, density):
    rng = random.Random(n)
    cap, overflows = 150, 0
    for _ in range(40):
        gens = [Rel.from_pairs(n, [(i, j) for i in range(n) for j in range(n)
                                   if rng.random() < density])
                for _ in range(rng.randint(1, 3))]
        try:
            ref = reference_generate(n, gens, cap=cap)
        except ClosureOverflowError:
            overflows += 1
            with pytest.raises(ClosureOverflowError):
                relmonoid.generate(n, gens, cap=cap)
            continue
        _assert_same_algebra(relmonoid.generate(n, gens, cap=cap), ref)
    assert overflows < 40


def _scanned_pairs(r):
    """The pairs of r by a scan of all n^2 bits."""
    return tuple((x, y) for x in range(r.n) for y in range(r.n)
                 if r.bits >> (x * r.n + y) & 1)


def test_pairs_match_the_full_scan():
    """Walking the set bits gives the n^2 scan's pairs, in its
    lexicographic order: every relation on at most 3 points and seeded
    relations of every density on 4 to 16 points."""
    for n in range(1, 4):
        for bits in range(1 << (n * n)):
            r = Rel(n, bits)
            assert r.pairs() == _scanned_pairs(r), r
    rng = random.Random(26)
    for n in range(4, 17):
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            bits = sum(1 << k for k in range(n * n) if rng.random() < density)
            r = Rel(n, bits)
            assert r.pairs() == _scanned_pairs(r), r
            assert Rel.from_pairs(n, r.pairs()) == r


# a transposition, a 4-cycle and the partial identity on three points:
# they generate I(4), 209 elements
I4_GENERATORS = ([(0, 1), (1, 0), (2, 2), (3, 3)], [(0, 1), (1, 2), (2, 3), (3, 0)],
                 [(0, 0), (1, 1), (2, 2)])


def _same_tables(S, T):
    assert (S.mult, S.plus, S.star, S.names) == (T.mult, T.plus, T.star, T.names)


def _kept_band(alg, S):
    """S holds the mult table alg keeps rather than a second conversion of
    it: S.mult is the kept table, of int rows in S's core.row_form, bytes
    rows up to 256 elements and list rows above.  Returns the size band."""
    kept = alg._tables[0]
    assert S.mult is kept and type(S.mult) is list
    assert {type(v) for row in S.mult for v in row} == {int}
    if S.n <= 256:
        assert {type(row) for row in kept} == {bytes}
        return "bytes"
    assert {type(row) for row in kept} == {list}
    return "lists above 256"


def _check_against_parent(n, gens, cap=None):
    """generate against the list-based parent: the same elements, the
    same tables as the parent's kept ones and as a fresh build in index
    order, and the same round order, or ClosureOverflowError from both.
    Returns what was compared."""
    try:
        parent = parent_generate(n, gens, cap=cap)
    except ClosureOverflowError:
        with pytest.raises(ClosureOverflowError):
            relmonoid.generate(n, gens, cap=cap)
        return "overflow"
    alg = relmonoid.generate(n, gens, cap=cap)
    assert alg.elements == parent.elements and alg.index == parent.index
    if not alg.elements:
        for a in (alg, parent):
            with pytest.raises(core.MalformedTableError, match="at least one element"):
                a.to_semigroup()
        return "empty"
    S = alg.to_semigroup()
    # the kept tables against the parent's renumbered lists, then against a
    # fresh build in index order
    _same_tables(S, parent.to_semigroup())
    _same_tables(S, parent_to_semigroup(parent))
    _kept_band(alg, S)
    # the generators come first and the tables are renumbered into round
    # order, so the round order of the new tables is the identity
    seeds = range(len(set(gens)))
    order = relmonoid._round_order(seeds, S.mult, S.plus, S.star)
    assert order == parent_round_order(seeds, S.mult, S.plus, S.star) == list(range(S.n))
    return "tables"


def _random_relation(rng, n, kind):
    if kind == "bijection":
        image = rng.sample(range(n), n)
        return Rel.from_pairs(n, [(x, image[x]) for x in range(n) if rng.random() < 0.8])
    if kind == "map":
        return Rel.from_pairs(n, [(x, rng.randrange(n)) for x in range(n)
                                  if rng.random() < 0.8])
    return Rel.from_pairs(n, [(x, y) for x in range(n) for y in range(n)
                              if rng.random() < 0.3])


def test_generate_matches_parent_path_on_random_generators():
    """Ground sizes 1 to 4, no generator to three, partial bijections,
    partial maps and arbitrary relations, caps from 1 to 400."""
    rng = random.Random(30)
    seen = Counter()
    for n in range(1, 5):
        for count in range(4):
            for kind in ("bijection", "map", "relation"):
                for cap in (1, 8, 60, 400):
                    gens = [_random_relation(rng, n, kind) for _ in range(count)]
                    seen[_check_against_parent(n, gens, cap)] += 1
    assert set(seen) == {"overflow", "empty", "tables"}, seen


@pytest.mark.parametrize("n, gens, size", [
    (2, [[(0, 0), (0, 1)]], 3),
    (2, [[(0, 0), (0, 1)], [(1, 0)]], 8),
    (2, [[(0, 1), (1, 0)]], 2),
    (4, I4_GENERATORS, 209)])
def test_generate_matches_parent_path_on_corpus_and_bench_generators(n, gens, size):
    rels = [Rel.from_pairs(n, g) for g in gens]
    assert _check_against_parent(n, rels) == "tables"
    assert len(relmonoid.generate(n, rels).elements) == size


@pytest.mark.parametrize("builder, sizes", [
    (relmonoid.full_B, (1, 2, 3)), (relmonoid.full_PT, (1, 2, 3, 4)),
    (relmonoid.full_PTc, (1, 2, 3)), (relmonoid.full_I, (1, 2, 3, 4))])
def test_listed_tables_match_parent_path(builder, sizes):
    """The ranked candidates give the tables of the index order."""
    for n in sizes:
        alg = builder(n)
        S = alg.to_semigroup()
        _same_tables(S, parent_to_semigroup(alg))
        # the table is built once and read again
        assert _kept_band(alg, S) == _kept_band(alg, alg.to_semigroup())


def _greedy_generators(alg):
    """The relations of the table's greedy generating set by right
    products: 5 of B(3)'s 512, 5 of PT(4)'s 625."""
    return [alg.elements[g] for g in core.greedy_generators(alg.to_semigroup().mult)]


def test_byte_band_boundaries_match_parent_path():
    """generate and to_semigroup against the list-based parent on closures
    of 2 to 256 elements, where the tables are bytes rows, and above 256,
    where they are list rows: the tables, the round order and the handover
    of the kept rows, each band reached by both."""
    generated = [(2, [rel(2, (0, 0), (0, 1))]), (2, [rel(2, (0, 1), (1, 0))]),
                 (2, [rel(2, (0, 0), (0, 1)), rel(2, (1, 0))]),
                 (4, [Rel.from_pairs(4, g) for g in I4_GENERATORS]),
                 (3, _greedy_generators(relmonoid.full_B(3))),
                 (4, _greedy_generators(relmonoid.full_PT(4)))]
    bands, sizes = Counter(), []
    for n, gens in generated:
        assert _check_against_parent(n, gens) == "tables"
        alg = relmonoid.generate(n, gens)
        bands[_kept_band(alg, alg.to_semigroup())] += 1
        sizes.append(len(alg.elements))
    assert sizes == [3, 2, 8, 209, 512, 625]
    listed = [relmonoid.full_PT(1), relmonoid.full_I(2), relmonoid.full_PT(2),
              relmonoid.full_I(4), relmonoid.full_B(3), relmonoid.full_PT(4)]
    for alg in listed:
        S = alg.to_semigroup()
        _same_tables(S, parent_to_semigroup(alg))
        bands[_kept_band(alg, S)] += 1
    assert [len(alg.elements) for alg in listed] == [2, 7, 9, 209, 512, 625]
    assert bands == {"bytes": 8, "lists above 256": 4}, bands


def test_round_order_matches_parent_on_raw_closure_tables(monkeypatch):
    """_round_order on the tables generate hands it, before renumbering,
    against the parent's list loop: random closures below 8 elements, up
    to 256 and above, whose orders are not the identity."""
    calls = []

    def recording(seeds, mult, plus, star):
        order = round_order(seeds, mult, plus, star)
        calls.append((order, parent_round_order(seeds, mult, plus, star), len(mult)))
        return order

    round_order = relmonoid._round_order
    monkeypatch.setattr(relmonoid, "_round_order", recording)
    rng = random.Random(35)
    for _ in range(40):
        n, kind = rng.choice((2, 3, 4)), rng.choice(("bijection", "map", "relation"))
        relmonoid.generate(n, [_random_relation(rng, n, kind)
                               for _ in range(rng.randint(1, 4))])
    bands, moved = Counter(), 0
    for got, want, size in calls:
        assert got == want
        bands["below 8" if size < 8 else "8 to 256" if size <= 256 else "above 256"] += 1
        moved += got != list(range(size))
    assert set(bands) == {"below 8", "8 to 256", "above 256"}, bands
    assert moved >= len(calls) // 2, (moved, len(calls))


def _random_total_table(rng, size, closed):
    """A random table with random plus and star on range(size) in which
    the first `closed` ids are closed under all three, shuffled, and seeds
    among those ids, one of them repeated."""
    perm = rng.sample(range(size), size)

    def pick(*args):
        inside = all(x < closed for x in args)
        return perm[rng.randrange(closed if inside else size)]

    rank = {x: i for i, x in enumerate(perm)}
    mult = [[pick(rank[a], rank[b]) for b in range(size)] for a in range(size)]
    plus = [pick(rank[a]) for a in range(size)]
    star = [pick(rank[a]) for a in range(size)]
    seeds = [perm[rng.randrange(closed)] for _ in range(rng.randint(1, 4))]
    seeds.insert(rng.randrange(len(seeds) + 1), rng.choice(seeds))
    return seeds, mult, plus, star


@pytest.mark.parametrize("size", [1, 2, 7, 8, 9, 255, 256, 257])
def test_round_order_matches_parent_on_random_tables(size):
    """Random total tables, not Ehresmann, with seeds repeated and out of
    order; some have a closed part that the seeds never leave, so the
    order stops short of size.  Each table goes in as core.table_rows
    gives it, bytes rows up to 256 elements and list rows above."""
    rng = random.Random(size)
    short = 0
    for trial in range(6):
        closed = size if trial % 2 else rng.randint(1, size)
        seeds, mult, plus, star = _random_total_table(rng, size, closed)
        want = parent_round_order(seeds, mult, plus, star)
        assert relmonoid._round_order(seeds, core.table_rows(mult, size), plus, star) == want
        short += len(want) < size
    assert short or size == 1


@pytest.mark.parametrize("elements, missing", [
    # {(0,1)} ; {(0,1)} is the empty relation, which is not listed
    ([[(0, 1)], [(0, 0)], [(1, 1)]], "Rel{}"),
    # {(0,0),(0,1)} is idempotent, but its dom {(0,0)} is not listed
    ([[(0, 0), (0, 1)]], "Rel{(0,0)}")])
def test_to_semigroup_of_a_non_closed_algebra_is_value_error(elements, missing):
    alg = relmonoid.RelationAlgebra(2, [Rel.from_pairs(2, e) for e in elements])
    message = re.escape(f"{missing} is a product or projection of the elements "
                        "but not one of them")
    for _ in range(2):   # nothing is kept from a failed build
        with pytest.raises(ValueError, match=message):
            alg.to_semigroup()
    with pytest.raises(ValueError, match=message):
        parent_to_semigroup(alg)
