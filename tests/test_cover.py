import collections
import itertools
import random
import types

import pytest

from ehresmann import core, corpus, cover, product, relmonoid, resgraph
from ehresmann.core import InvariantError
from ehresmann.cover import (CanonicalPath, GeneratorError,
                             build_cover_graph, canonical_preimage,
                             cover_mult, cover_plus_star,
                             enumerate_canonical, fes_witness_check,
                             max_edge_for_letter, phi, verify_cover)
from ehresmann.report import INCONCLUSIVE, PASS, Check, Report, first_witness
from ehresmann.resgraph import (RestrictionUndefinedError, corestrict_path,
                                restrict_path)
from oracles import (parent_state_checks, parent_verify_cover, perturbed_table,
                     random_generating_set, reference_all_paths,
                     reference_associativity_witness, reference_canonical_preimage,
                     reference_canonicalize, reference_enumerate_canonical,
                     reference_generating_closure, reference_mult_witnesses,
                     reference_verify_cover, to_path)


def e2_cover():
    return build_cover_graph(corpus.chain(2), [0, 1])


def test_e2_cover_edge_sets():
    """Edges solved by hand on the two-chain f < e (0 = f, 1 = e): the top
    generator acts everywhere, the bottom one only at the bottom."""
    cg = e2_cover()
    by_letter = {}
    for (d, lab, r) in cg.graph.edges:
        by_letter.setdefault(lab, set()).add((d, r))
    assert by_letter[()] == {(0, 0), (1, 1)}
    assert by_letter[("x1",)] == {(1, 1), (0, 0)}   # letter for e
    assert by_letter[("x0",)] == {(0, 0)}           # letter for f


def test_cover_graph_axioms_all_cases():
    for name, S, gens in corpus.cover_cases():
        cg = build_cover_graph(S, gens)
        rep = resgraph.check_axioms(cg.graph, max_chain=3)
        assert rep.ok, (name, [c.line() for c in rep.failures()])


def test_vertices_are_projections():
    for name, S, gens in corpus.cover_cases():
        cg = build_cover_graph(S, gens)
        assert list(cg.proj_list) == list(core.projections(S)), name


def test_non_generating_set_rejected():
    with pytest.raises(GeneratorError):
        build_cover_graph(corpus.rel_pt2(), [0])


def test_edges_below_letter_maximum():
    for name, S, gens in corpus.cover_cases():
        cg = build_cover_graph(S, gens)
        for c in cg.graph.sorted_edges():
            if not c[1]:
                continue
            top = max_edge_for_letter(cg, c[1][0])
            assert top in cg.graph.edges, name
            assert product.edge_le(cg.graph, c, top), name


def test_cover_mult_loops():
    cg = e2_cover()
    assert cover_mult(cg, CanonicalPath.loop_at(1), CanonicalPath.loop_at(0)) \
        == CanonicalPath.loop_at(0)
    assert cover_mult(cg, CanonicalPath.loop_at(1), CanonicalPath.loop_at(1)) \
        == CanonicalPath.loop_at(1)


def test_cover_mult_two_chain_example():
    # (e,e,e) . (f,f,f) corestricts the left factor to the bottom
    cg = e2_cover()
    u = CanonicalPath((1, "x1", 1))
    v = CanonicalPath((0, "x0", 0))
    assert cover_mult(cg, u, v) == CanonicalPath((0, "x1", 0, "x0", 0))


def test_cover_mult_matches_path_restriction():
    for name, S, gens in corpus.cover_cases():
        cg = build_cover_graph(S, gens)
        forms = enumerate_canonical(cg, 2)
        for u in forms:
            for v in forms:
                m = cg.sl.meet[u.r][v.d]
                expected = reference_canonicalize(
                    cg, corestrict_path(cg.graph, to_path(cg, u), m)
                    + restrict_path(cg.graph, to_path(cg, v), m))
                assert cover_mult(cg, u, v) == expected, (name, str(u), str(v))


def test_cover_mult_rejects_missing_letter_edge():
    # the letter for f acts only at the bottom of the two-chain f < e
    cg = e2_cover()
    u = CanonicalPath((1, "x0", 1))
    assert (1, ("x0",), 1) not in cg.graph.edges
    with pytest.raises(RestrictionUndefinedError):
        cover_mult(cg, u, CanonicalPath.loop_at(1))
    with pytest.raises(RestrictionUndefinedError):
        cover_mult(cg, CanonicalPath.loop_at(1), u)


def test_cover_mult_associative_bounded():
    for name, S, gens in corpus.cover_cases()[:2]:
        cg = build_cover_graph(S, gens)
        forms = enumerate_canonical(cg, 2)
        sample = forms if len(forms) <= 25 else forms[::  len(forms) // 25 + 1]
        for u in sample:
            for v in sample:
                uv = cover_mult(cg, u, v)
                for w in sample:
                    assert cover_mult(cg, uv, w) == \
                        cover_mult(cg, u, cover_mult(cg, v, w)), name


def test_cover_unary_identities_bounded():
    cg = e2_cover()
    forms = enumerate_canonical(cg, 3)
    for u in forms:
        up, us = cover_plus_star(cg, u)
        assert cover_mult(cg, up, u) == u              # x^+ x = x
        assert cover_mult(cg, u, us) == u              # x x^* = x
        for v in forms:
            vp, vs = cover_plus_star(cg, v)
            assert cover_mult(cg, up, vp) == cover_mult(cg, vp, up)
            uv = cover_mult(cg, u, v)
            assert cover_plus_star(cg, uv)[0] == \
                cover_plus_star(cg, cover_mult(cg, u, vp))[0]


def test_cover_plus_star():
    cg = e2_cover()
    assert cover_plus_star(cg, CanonicalPath.loop_at(1)) == \
        (CanonicalPath.loop_at(1), CanonicalPath.loop_at(1))
    u = CanonicalPath((1, "x1", 1))
    assert cover_plus_star(cg, u) == \
        (CanonicalPath.loop_at(1), CanonicalPath.loop_at(1))
    v = CanonicalPath((0, "x1", 0, "x0", 0))
    assert cover_plus_star(cg, v) == \
        (CanonicalPath.loop_at(0), CanonicalPath.loop_at(0))


def test_phi_examples():
    cg = e2_cover()
    S = cg.S
    assert phi(cg, CanonicalPath.loop_at(1)) == 1
    w = CanonicalPath((0, "x1", 0, "x0", 0))
    assert phi(cg, w) == S.prod([0, 1, 0, 0, 0]) == 0
    u = CanonicalPath((1, "x1", 1))
    v = CanonicalPath((0, "x0", 0))
    assert phi(cg, cover_mult(cg, u, v)) == S.mult[phi(cg, u)][phi(cg, v)]


def test_phi_injective_on_loops():
    """phi_projection_separating holds by construction: phi sends the loop
    at each vertex to its own projection, and distinct vertices to distinct
    projections."""
    for name, S, gens in corpus.cover_cases():
        cg = build_cover_graph(S, gens)
        images = [phi(cg, CanonicalPath.loop_at(e)) for e in range(cg.sl.n)]
        assert images == cg.proj_list == list(core.projections(S)), name
        assert len(set(images)) == cg.sl.n, name


def test_phi_of_canonicalize_agrees_on_raw_paths():
    cg = e2_cover()
    for p in reference_all_paths(cg.graph, 3):
        u = reference_canonicalize(cg, p)
        raw = cg.proj_list[p[0][0]]
        for c in p:
            if c[1]:
                raw = cg.S.mult[raw][cg.valuation[c[1][0]]]
            raw = cg.S.mult[raw][cg.proj_list[c[2]]]
        assert phi(cg, u) == raw


def _transposition_cycle_rank2_sets():
    """(name, S, gens) for every generating set of I(3) and PT(3) made of a
    transposition, a 3-cycle and a rank-2 element: a partial bijection that
    is not a projection for I(3), a total map for PT(3)."""
    Rel = relmonoid.Rel
    transpositions = [Rel.from_pairs(3, enumerate(p))
                      for p in ((1, 0, 2), (0, 2, 1), (2, 1, 0))]
    cycles = [Rel.from_pairs(3, enumerate(p)) for p in ((1, 2, 0), (2, 0, 1))]
    for name, alg, size in (("I3", relmonoid.full_I(3), 2), ("PT3", relmonoid.full_PT(3), 3)):
        S = alg.to_semigroup()
        rank2 = [a for a in alg.elements
                 if len(a.pairs()) == size and len({y for _, y in a.pairs()}) == 2
                 and a != relmonoid.diagonal(3, {x for x, _ in a.pairs()})]
        for t in transpositions:
            for c in cycles:
                for a in rank2:
                    yield name, S, sorted(alg.index[r] for r in (t, c, a))


def _preimage_covers():
    """The corpus cover cases, covers of I(3) and PT(3) over every set of a
    transposition, a 3-cycle and a rank-2 element, covers of I(3), PT(3)
    and B(2) over ten random generating sets each, and I(4) over one."""
    rng = random.Random(16)
    for _, S, gens in corpus.cover_cases():
        yield build_cover_graph(S, gens)
    for _, S, gens in _transposition_cycle_rank2_sets():
        yield build_cover_graph(S, gens)
    for build, k, count in ((relmonoid.full_I, 3, 10), (relmonoid.full_PT, 3, 10),
                            (relmonoid.full_B, 2, 10), (relmonoid.full_I, 4, 1)):
        S = build(k).to_semigroup()
        for _ in range(count):
            yield build_cover_graph(S, random_generating_set(S, rng))


def test_preimage_round_trip_all_cases():
    # the cover product of the stored word is the path that
    # reference_canonical_preimage builds in S from fences, bricks and
    # matchify
    for cg in _preimage_covers():
        for s in range(cg.S.n):
            u = canonical_preimage(cg, s)
            assert phi(cg, u) == s, (cg.gens, s)
            assert u == reference_canonical_preimage(cg, s), (cg.gens, s)


def test_preimage_maps_back_or_raises_on_perturbed_tables():
    # on a table that fails the axioms the cover product may miss s: that
    # must raise an input error, never return a path with another image
    # (reference_canonical_preimage returns three such paths on these tables)
    rng = random.Random(20221)
    outcomes = {"returned": 0, "raised": 0}
    for _, S, gens in corpus.cover_cases():
        for _ in range(150):
            T = perturbed_table(S, rng)
            try:
                cg = build_cover_graph(T, gens)
            except ValueError:
                continue
            for s in range(T.n):
                try:
                    u = canonical_preimage(cg, s)
                except ValueError:
                    outcomes["raised"] += 1
                    continue
                assert phi(cg, u) == s, (T.mult, T.plus, T.star, s, str(u))
                outcomes["returned"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_preimage_rejects_corrupted_word():
    name, S, gens = corpus.cover_cases()[1]
    cg = build_cover_graph(S, gens)
    s, t = [x for x in range(S.n) if x not in cg.proj_index][:2]
    cg.decomp[s] = cg.decomp[t]
    with pytest.raises(InvariantError):
        canonical_preimage(cg, s)


def test_preimage_of_projection_is_loop():
    for name, S, gens in corpus.cover_cases():
        cg = build_cover_graph(S, gens)
        for e in core.projections(S):
            u = canonical_preimage(cg, e)
            assert u.is_loop and cg.proj_list[u.d] == e, name


def test_preimage_of_generator_is_single_edge():
    S = corpus.eight_monoid()
    name, _, gens = corpus.cover_cases()[2]
    cg = build_cover_graph(S, gens)
    for g in gens:
        if g in core.projections(S):
            continue
        u = canonical_preimage(cg, g)
        assert u.length == 1
        assert cg.proj_list[u.d] == S.plus[g]
        assert cg.proj_list[u.r] == S.star[g]


def test_phi_morphism_sampled():
    rng = random.Random(5)
    for name, S, gens in corpus.cover_cases():
        cg = build_cover_graph(S, gens)
        forms = enumerate_canonical(cg, 2)
        for _ in range(300):
            u = rng.choice(forms)
            v = rng.choice(forms)
            assert phi(cg, cover_mult(cg, u, v)) == \
                S.mult[phi(cg, u)][phi(cg, v)], name
            up, us = cover_plus_star(cg, u)
            assert phi(cg, up) == S.plus[phi(cg, u)], name
            assert phi(cg, us) == S.star[phi(cg, u)], name


def test_sigma_label_on_canonical_forms():
    # same letter word <=> sigma-related; tested through the constructive
    # chain: every form is the product of its edges, each edge below the
    # letter maximum
    cg = e2_cover()
    forms = [u for u in enumerate_canonical(cg, 2) if not u.is_loop]
    for u in forms:
        for v in forms:
            if u.word == v.word:
                for i in range(u.length):
                    a = u.word[i]
                    top = max_edge_for_letter(cg, a)
                    eu = (u.entries[2 * i], (a,), u.entries[2 * i + 2])
                    ev = (v.entries[2 * i], (a,), v.entries[2 * i + 2])
                    assert product.edge_le(cg.graph, eu, top)
                    assert product.edge_le(cg.graph, ev, top)


def test_verify_cover_e2():
    rep = verify_cover(corpus.chain(2), [0, 1], len_bound=3)
    assert rep.ok, [c.line() for c in rep.failures()]


def test_verify_cover_pt2_len2():
    name, S, gens = corpus.cover_cases()[1]
    rep = verify_cover(S, gens, len_bound=2)
    assert rep.ok, [c.line() for c in rep.failures()]


def test_verify_cover_pt3():
    # 64-element partial transformation monoid; cycle, swap, merge and a
    # partial identity generate it
    alg = relmonoid.full_PT(3)
    S = alg.to_semigroup()
    gens = [alg.index[relmonoid.Rel.from_pairs(3, pairs)] for pairs in (
        [(0, 1), (1, 2), (2, 0)],
        [(0, 1), (1, 0), (2, 2)],
        [(0, 0), (1, 0), (2, 2)],
        [(0, 0), (1, 1)],
    )]
    rep = verify_cover(S, gens, len_bound=2)
    assert rep.ok, [c.line() for c in rep.failures()]


def test_fes_witness_found_in_b2():
    rep = fes_witness_check()
    assert rep.status == PASS
    n, x, y = rep.witness
    assert n == 2
    left = relmonoid.compose(x, relmonoid.dom(y))
    right = relmonoid.compose(relmonoid.dom(relmonoid.compose(x, y)), x)
    assert relmonoid.dom(left) == relmonoid.dom(right)
    assert relmonoid.ran(left) != relmonoid.ran(right)


def test_fes_witness_known_candidate():
    # the candidate pair from the one-row relation and the point fixer
    x = relmonoid.Rel.from_pairs(2, [(0, 0), (0, 1)])
    y = relmonoid.Rel.from_pairs(2, [(1, 1)])
    left = relmonoid.compose(x, relmonoid.dom(y))
    right = relmonoid.compose(relmonoid.dom(relmonoid.compose(x, y)), x)
    assert relmonoid.dom(left) == relmonoid.dom(right)
    assert relmonoid.ran(left) != relmonoid.ran(right)


def test_fes_terms_sigma_related_in_b2():
    # in the relation monoid all projections collapse, so the two term
    # values are sigma-related in any interpretation
    alg = relmonoid.full_B(2)
    S = alg.to_semigroup()
    cong, _ = core.sigma(S)
    rep = fes_witness_check()
    n, x, y = rep.witness
    left = relmonoid.compose(x, relmonoid.dom(y))
    right = relmonoid.compose(relmonoid.dom(relmonoid.compose(x, y)), x)
    assert cong.same(alg.index[left], alg.index[right])


def _verify_outcome(verify, S, gens, length):
    """The checks of a cover verification, or the type and message of the
    exception it raised."""
    try:
        return verify(S, gens, length).checks
    except Exception as exc:     # compared, not hidden
        return type(exc), str(exc)


def _status(outcome):
    return "raised" if isinstance(outcome, tuple) else Report(outcome).status


def _pinned_verify(monkeypatch):
    """verify(S, gens, length): the outcome of verify_cover, asserting that
    it called neither enumerate_canonical nor, outside canonical_preimage,
    cover_mult.  Such a call raises at once, so a listing that would never
    end fails fast; the oracles, called outside verify, use both freely."""
    pinned, forbidden = [False], []

    def pin(name):
        original = getattr(cover, name)

        def guarded(*args):
            if pinned[0]:
                forbidden.append(name)
                raise RuntimeError(f"verify_cover called {name}")
            return original(*args)

        monkeypatch.setattr(cover, name, guarded)

    pin("enumerate_canonical")
    pin("cover_mult")
    preimage = cover.canonical_preimage

    def preimage_unpinned(cg, s):
        was, pinned[0] = pinned[0], False
        try:
            return preimage(cg, s)
        finally:
            pinned[0] = was

    monkeypatch.setattr(cover, "canonical_preimage", preimage_unpinned)

    def verify(S, gens, length):
        pinned[0] = True
        try:
            got = _verify_outcome(verify_cover, S, gens, length)
        finally:
            pinned[0] = False
        assert not forbidden, (forbidden, gens, length)
        return got

    return verify


_GATED = ("phi_preserves_unary_operations", "phi_preserves_multiplication",
          "forms_factor_through_edges")


def _gate_reason(cg, S):
    """None when the cover graph axioms pass and S is associative, else the
    witness of verify_cover's INCONCLUSIVE answers."""
    failing = tuple(c.name for c in resgraph.check_axioms(cg.graph, max_chain=2).failures())
    if failing:
        return ("cover graph axioms fail",) + failing
    if reference_associativity_witness(S.mult) is not None:
        return ("S is not associative",)
    return None


def _differential(monkeypatch):
    """compare(S, gens, length), which runs verify_cover pinned
    (_pinned_verify) and returns (outcome, path): the outcome is PASS,
    FAIL, INCONCLUSIVE or raised, and the path "states" under the gate
    (the cover graph axioms pass and S is associative), "off gate"
    otherwise, and None when the cover graph build raised.

    Under the gate every check's name, status and witness, or the
    exception, is that of the bounded parent and of the product-by-product
    reference, and the state checks are the parent's also when a later
    check raises; compare.failing_states counts the failing ones by name.
    Off the gate the unary, the multiplication and the factor checks are
    INCONCLUSIVE with the gate's reason, every other check is the
    parent's, and verify_cover raises only where the parent does."""
    verify = _pinned_verify(monkeypatch)
    states = []
    state_checks = cover._state_checks

    def recorded(cg, length):
        states.append(state_checks(cg, length))
        return states[-1]

    monkeypatch.setattr(cover, "_state_checks", recorded)

    def compare(S, gens, length):
        states.clear()
        got = verify(S, gens, length)
        parent = _verify_outcome(parent_verify_cover, S, gens, length)
        where = (S.mult, S.plus, S.star, gens, length)
        try:
            cg = cover.build_cover_graph(S, gens)
        except ValueError:
            assert got == parent, where
            return "raised", None
        reason = _gate_reason(cg, S)
        if reason is None:
            assert got == parent == _verify_outcome(
                reference_verify_cover, S, gens, length), where
            assert states == [parent_state_checks(cg, length)], where
            compare.failing_states.update(c.name for c in states[0] if not c.ok)
            return _status(got), "states"
        assert not states, where
        if isinstance(got, tuple):
            assert isinstance(parent, tuple), where
        else:
            assert [c for c in got if c.name in _GATED] == [
                Check(name, INCONCLUSIVE, reason) for name in _GATED], where
            if not isinstance(parent, tuple):
                assert [c for c in got if c.name not in _GATED] == [
                    c for c in parent if c.name not in _GATED], where
        return _status(got), "off gate"

    compare.failing_states = collections.Counter()
    return compare


def _pairwise_mult_check(cg, length):
    """phi_preserves_multiplication over every pair of forms up to length."""
    forms = enumerate_canonical(cg, length)
    return first_witness("phi_preserves_multiplication",
                         reference_mult_witnesses(cg, forms, [phi(cg, u) for u in forms]))


def test_factored_mult_check_matches_pairwise_on_cover_cases(monkeypatch):
    # the saturated states at every length bound up to 8, against the parent
    # that lists every form and the reference that makes every product; the
    # multiplication check also against every pair of forms up to length 4
    compare = _differential(monkeypatch)
    for name, S, gens in corpus.cover_cases():
        cg = build_cover_graph(S, gens)
        for length in range(9):
            assert compare(S, gens, length) == ("PASS", "states"), (name, length)
            if length <= 4:
                assert verify_cover(S, gens, length).checks[2] == _pairwise_mult_check(
                    cg, length), (name, length)


def _i3_pt3_covers():
    """The covers of I(3) and PT(3) over a transposition, a 3-cycle and a
    rank-2 element: a partial bijection that is not a projection for I(3),
    a total map for PT(3)."""
    Rel = relmonoid.Rel
    perms = [Rel.from_pairs(3, enumerate(p)) for p in ((1, 0, 2), (1, 2, 0))]
    for alg, rank2 in ((relmonoid.full_I(3), [(0, 1), (1, 0)]),
                       (relmonoid.full_PT(3), [(0, 0), (1, 0), (2, 1)])):
        S = alg.to_semigroup()
        yield build_cover_graph(S, [alg.index[a] for a in perms + [Rel.from_pairs(3, rank2)]])


def test_factored_mult_check_matches_pairwise_on_i3_and_pt3(monkeypatch):
    compare = _differential(monkeypatch)
    for cg in _i3_pt3_covers():
        for length in range(5):
            assert compare(cg.S, cg.gens, length) == ("PASS", "states"), (cg.gens, length)
        assert verify_cover(cg.S, cg.gens, 2).checks[2] == _pairwise_mult_check(cg, 2)


def test_verify_cover_matches_parent_on_random_generating_sets(monkeypatch):
    compare = _differential(monkeypatch)
    rng = random.Random(24)
    for build, k in ((relmonoid.full_B, 2), (relmonoid.full_I, 3), (relmonoid.full_PT, 3)):
        S = build(k).to_semigroup()
        for _ in range(3):
            gens = random_generating_set(S, rng)
            for length in range(4):
                assert compare(S, gens, length) == ("PASS", "states"), (gens, length)


def test_enumerate_canonical_matches_reference():
    covers = [build_cover_graph(S, gens) for _, S, gens in corpus.cover_cases()]
    for cg in covers + list(_i3_pt3_covers()):
        for length in range(5):
            assert enumerate_canonical(cg, length) == reference_enumerate_canonical(cg, length)


def test_negative_length_bound_lists_the_loops_only(monkeypatch):
    """len_bound -1 (the CLI's --len -1) takes no step, as range(-1) does in
    the parent: the forms are the loops, and the states those of the loops."""
    compare = _differential(monkeypatch)
    for name, S, gens in corpus.cover_cases():
        cg = build_cover_graph(S, gens)
        loops = [CanonicalPath.loop_at(e) for e in range(cg.sl.n)]
        assert enumerate_canonical(cg, -1) == reference_enumerate_canonical(cg, -1) == loops
        assert compare(S, gens, -1) == ("PASS", "states"), name


def _perturb_letter_edge_rows(cg, rng):
    """Change one or two entries of the letter edges' restriction and
    corestriction rows in cg.graph to another letter edge's id or to
    undefined (-1)."""
    G = cg.graph
    letter_ids = [i for c, i in G.edge_id.items() if c[1]]
    for _ in range(rng.randint(1, 2)):
        row = rng.choice((G.restrict_table, G.corestrict_table))[rng.choice(letter_ids)]
        row[rng.randrange(len(row))] = rng.choice(letter_ids + [-1])


def _perturbed_covers(seed):
    """Covers of the corpus cases with perturbed plus, star or mult tables,
    perturbed letter-edge rows, or both, each with its table and a length
    bound."""
    rng = random.Random(seed)
    for name, S, gens in corpus.cover_cases():
        length = 2 if name == "pt2" else 3
        for _ in range(150):
            kind = rng.choice(("table", "rows", "both"))
            T = S if kind == "rows" else perturbed_table(S, rng)
            try:
                cg = build_cover_graph(T, gens)
            except ValueError:
                continue
            if kind != "table":
                _perturb_letter_edge_rows(cg, rng)
            yield T, cg, length


def _perturbed_tables(seed, count):
    """count perturbed tables per corpus cover case, each with its
    generators and the length bounds to check them at."""
    rng = random.Random(seed)
    for name, S, gens in corpus.cover_cases():
        for _ in range(count):
            yield perturbed_table(S, rng), gens, range(3 if name == "pt2" else 4)


def _random_plus_star(seed, count):
    """count tables each of two associative ones, the six relations on two
    points holding (0,0) that {(0,0),(0,1),(1,0)} and {(0,0)} generate, and
    the corpus product complete2_t2, with x^+ and x^* random maps onto a
    random set of commuting idempotents closed under products (each fixed
    by both maps), and a random generating set.  Their covers often pass
    the gate with a failing state, of either kind; most of those then fail
    to map a preimage back."""
    rng = random.Random(seed)
    Rel = relmonoid.Rel
    alg = relmonoid.generate(2, [Rel.from_pairs(2, [(0, 0), (0, 1), (1, 0)]),
                                 Rel.from_pairs(2, [(0, 0)])])
    for base in (alg.to_semigroup(), dict(corpus.semigroups())["complete2_t2_product"]):
        mult, n = base.mult, base.n
        idempotents = [x for x in range(n) if mult[x][x] == x]
        made = 0
        while made < count:
            P = rng.sample(idempotents, rng.randint(1, len(idempotents)))
            if any(mult[a][b] != mult[b][a] or mult[a][b] not in P for a in P for b in P):
                continue
            plus = [x if x in P else rng.choice(P) for x in range(n)]
            star = [x if x in P else rng.choice(P) for x in range(n)]
            T = core.OpTableSemigroup(n, mult, plus, star)
            made += 1
            yield T, random_generating_set(T, rng)


def test_factored_mult_check_matches_pairwise_on_perturbed_tables(monkeypatch):
    # every length bound up to the given one, on perturbed tables and on
    # covers with perturbed letter-edge rows, which reach verify_cover
    # through its graph build: non-associative tables and failing graph
    # axioms answer INCONCLUSIVE, and a failing state gives the parent's
    # first witness
    compare = _differential(monkeypatch)
    seen = collections.Counter()
    for T, gens, lengths in _perturbed_tables(24, 60):
        for length in lengths:
            seen.update(compare(T, gens, length))
    for T, cg, length in _perturbed_covers(20221):
        with monkeypatch.context() as patch:
            patch.setattr(cover, "build_cover_graph", lambda S, gens, cg=cg: cg)
            for bound in range(length + 1):
                seen.update(compare(T, cg.gens, bound))
    assert all(seen[k] for k in ("PASS", "FAIL", "INCONCLUSIVE", "raised", "states",
                                 "off gate")), seen
    assert compare.failing_states["phi_preserves_unary_operations"], compare.failing_states


def _revalued_covers(seed, count):
    """count covers each of the corpus cover cases and the I(3) and PT(3)
    covers, with one or two letters valued at a random element: the graph,
    and so the gate, stays, and phi often fails to preserve the operations,
    on forms that share a signature with other forms."""
    rng = random.Random(seed)
    covers = [(S, gens) for _, S, gens in corpus.cover_cases()]
    for S, gens in covers + [(cg.S, cg.gens) for cg in _i3_pt3_covers()]:
        for _ in range(count):
            cg = build_cover_graph(S, gens)
            for _ in range(rng.randint(1, 2)):
                cg.valuation[rng.choice(cg.letters)] = rng.randrange(S.n)
            yield cg


def test_state_witnesses_match_parent_on_failing_states(monkeypatch):
    # failing states of both kinds under the gate: the unary witness is the
    # representative of the first failing state, the multiplication witness
    # that of the first failing pair of signatures, as the parent's listing
    compare = _differential(monkeypatch)
    seen = collections.Counter()
    for T, gens in _random_plus_star(28, 100):
        for length in range(4):
            seen.update(compare(T, gens, length))
    for cg in _revalued_covers(2, 30):
        with monkeypatch.context() as patch:
            patch.setattr(cover, "build_cover_graph", lambda S, gens, cg=cg: cg)
            for length in range(4 if cg.S.n < 10 else 3):
                seen.update(compare(cg.S, cg.gens, length))
    failing = compare.failing_states
    assert failing["phi_preserves_unary_operations"] >= 100, failing
    assert failing["phi_preserves_multiplication"] >= 100, failing
    assert all(seen[k] for k in ("PASS", "FAIL", "raised", "states")), seen


def test_state_checks_raise_where_a_move_is_undefined():
    # the gate keeps every move of a letter edge defined; a -1 entry in its
    # restriction or corestriction row raises InvariantError instead of
    # being read as an index
    _, S, gens = corpus.cover_cases()[1]
    for table in ("restrict_table", "corestrict_table"):
        cg = build_cover_graph(S, gens)
        j = next(i for i, c in enumerate(cg.edges) if c[1])
        row = getattr(cg.graph, table)[j]
        row[next(v for v, i in enumerate(row) if i >= 0)] = -1
        with pytest.raises(InvariantError):
            cover._state_checks(cg, 3)


def _unperturbed_covers():
    """The corpus cover cases at lengths 0 to 5 and the I(3) and PT(3)
    covers at 2 and 3, each with its length bound."""
    for _, S, gens in corpus.cover_cases():
        cg = build_cover_graph(S, gens)
        for length in range(6):
            yield cg, length
    for cg in _i3_pt3_covers():
        for length in (2, 3):
            yield cg, length


def test_saturated_states_list_no_forms_and_make_no_products(monkeypatch):
    # no form is listed and the checks make no cover product, whatever the
    # answer (canonical_preimage still makes its own); _differential pins
    # every input of the differential tests, and here the same holds at a
    # length bound whose listing would never end: Ehresmann covers pass, and
    # failing and off-gate inputs answer
    verify = _pinned_verify(monkeypatch)
    _, pt2, pt2_gens = corpus.cover_cases()[1]
    cases = [(cg.S, cg.gens, length) for cg, length in _unperturbed_covers()]
    for S, gens, length in cases + [(pt2, pt2_gens, 40)]:
        assert all(c.ok for c in verify(S, gens, length)), (gens, length)
    seen = collections.Counter()
    for T, gens in _random_plus_star(28, 30):
        seen[_status(verify(T, gens, 40))] += 1
    for T, gens, _ in _perturbed_tables(24, 10):
        seen[_status(verify(T, gens, 40))] += 1
    for T, cg, _ in itertools.islice(_perturbed_covers(20221), 60):
        with monkeypatch.context() as patch:
            patch.setattr(cover, "build_cover_graph", lambda S, gens, cg=cg: cg)
            seen[_status(verify(T, cg.gens, 40))] += 1
    assert all(seen[k] for k in ("PASS", "FAIL", "INCONCLUSIVE", "raised")), seen


def test_verify_cover_matches_product_by_product_reference(monkeypatch):
    # every check's name, status and witness, or the exception, against the
    # verification that makes one cover product per form and projection,
    # under the gate; off it, the INCONCLUSIVE answers (_differential)
    compare = _differential(monkeypatch)
    outcomes = collections.Counter()
    for cg, length in _unperturbed_covers():
        outcomes.update(compare(cg.S, cg.gens, length))
    for T, gens, lengths in _perturbed_tables(18, 110):
        outcomes.update(compare(T, gens, lengths[-1]))
    # perturbed letter-edge rows reach verify_cover through its graph build
    for T, cg, length in _perturbed_covers(20221):
        with monkeypatch.context() as patch:
            patch.setattr(cover, "build_cover_graph", lambda S, gens, cg=cg: cg)
            outcomes.update(compare(T, cg.gens, length))
    assert all(outcomes[k] for k in ("PASS", "FAIL", "raised", "states", "off gate")), outcomes


def test_generating_closure_matches_every_pair_rounds():
    # each round multiplies only the pairs with an element new since the
    # last one, and the closure stops once every element has a word; the
    # reference multiplies every pair in every round, and the elements,
    # their order and their words must agree
    rng = random.Random(11)
    cases = [(name, S, gens) for name, S, gens in corpus.cover_cases()]
    cases += _transposition_cycle_rank2_sets()
    named = list(corpus.semigroups()) + [
        (f"full_{name}", build(k).to_semigroup()) for name, build, k in (
            ("B2", relmonoid.full_B, 2), ("PT3", relmonoid.full_PT, 3),
            ("I3", relmonoid.full_I, 3))]
    named += [(f"{name}_perturbed", perturbed_table(S, rng)) for name, S in named]
    for name, S in named:
        cases += [(name, S, sorted(rng.sample(range(S.n), min(k, S.n))))
                  for k in range(5)]
    # sets whose generators with their x^+ and x^* are all of S: S itself,
    # and the elements that are not x^+ or x^* of another one when they are
    unary = [(name, S, list(range(S.n))) for name, S in named]
    for name, S in named:
        others = {v for a in range(S.n) for v in (S.plus[a], S.star[a]) if v != a}
        gens = [x for x in range(S.n) if x not in others]
        if len(gens) < S.n and {v for g in gens for v in (g, S.plus[g], S.star[g])} == set(
                range(S.n)):
            unary.append((name, S, gens))
    assert len(unary) >= len(named) + 10, len(unary) - len(named)
    generating = 0
    for name, S, gens in cases:
        got = cover._generating_closure(S, gens)
        assert list(got.items()) == list(reference_generating_closure(S, gens).items()), (
            name, gens)
        generating += len(got) == S.n
    assert 20 <= generating <= len(cases) - 20, (generating, len(cases))
    # the transposition, cycle and rank-2 sets generate: the closure stops
    # part way through the products
    assert all(len(cover._generating_closure(S, gens)) == S.n
               for _, S, gens in _transposition_cycle_rank2_sets())
    # the unary sets return before any product: the table given has no mult
    for name, S, gens in unary:
        no_mult = types.SimpleNamespace(n=S.n, plus=S.plus, star=S.star, mult=None)
        assert list(cover._generating_closure(no_mult, gens).items()) == list(
            reference_generating_closure(S, gens).items()), (name, gens)
