import collections
import dataclasses
import random
import re

import pytest

from ehresmann import actions, core, corpus, product, relmonoid
from ehresmann.actions import (PartialAction, Premorphism, build_pair_form,
                               check_determinism, check_partial_action_laws,
                               check_sigma_iff_label, classify_restriction,
                               graph_to_premorphism, pair_form_iso_check,
                               partial_action_graph, premorphism_to_graph,
                               validate_partial_action, validate_premorphism)
from ehresmann.relmonoid import Rel
from ehresmann.resgraph import Semilattice, chain_semilattice

from oracles import (parent_validate_premorphism, random_partial_action,
                     reference_check_partial_action_laws, search_sigma_label_violation)


def test_premorphism_from_e2t2_graph():
    pm = graph_to_premorphism(corpus.e2t2_graph())
    assert pm.phi[0] == relmonoid.identity(2)
    assert pm.phi[1] == Rel.from_pairs(2, [(1, 0), (0, 0)])  # e->f, f->f


def test_premorphism_round_trip():
    for name, G in corpus.pm_graphs():
        pm = graph_to_premorphism(G)
        back = premorphism_to_graph(pm)
        assert back.edges == frozenset(G.edges), name
        again = graph_to_premorphism(back)
        assert again.phi == pm.phi, name


def test_trivial_action_premorphism():
    G = corpus.singleton_graph(corpus.flip_flop_monoid())
    pm = graph_to_premorphism(G)
    for t in pm.mon.elements():
        assert pm.phi[t] == Rel.from_pairs(1, [(0, 0)])


def test_identity_premorphism_gives_complete_loops():
    mon = corpus.t2_monoid()
    pm = Premorphism(mon, 3, {0: relmonoid.identity(3), 1: relmonoid.identity(3)})
    G = premorphism_to_graph(pm)
    assert G.edges == frozenset((x, t, x) for x in range(3) for t in (0, 1))
    det = check_determinism(G)
    assert det == {"LD": True, "RD": True}


def test_prem2_violation_rejected():
    mon = corpus.t2_monoid()
    # t.t = t but phi_t phi_t reaches a pair outside phi_t
    phi = {0: relmonoid.identity(2), 1: Rel.from_pairs(2, [(0, 1), (1, 0)])}
    pm = Premorphism(mon, 2, phi)
    rep = validate_premorphism(pm)
    assert not rep.ok and rep["phi_s_phi_t_in_phi_st"].witness == (1, 1)
    with pytest.raises(ValueError):
        premorphism_to_graph(pm)


def test_empty_relation_rejected():
    mon = corpus.t2_monoid()
    pm = Premorphism(mon, 2, {0: relmonoid.identity(2), 1: relmonoid.empty(2)})
    assert not validate_premorphism(pm).ok


def test_missing_label_edge_rejected():
    sl = chain_semilattice(1)
    mon = corpus.t2_monoid()
    from ehresmann.resgraph import ResGraph
    G = ResGraph(sl, mon, {(0, 0, 0)})
    with pytest.raises(ValueError):
        graph_to_premorphism(G)


def test_determinism_examples():
    assert check_determinism(corpus.e2t2_graph()) == {"LD": True, "RD": False}
    assert check_determinism(corpus.e2t2_reverse_graph()) == {"LD": False, "RD": True}
    assert check_determinism(corpus.complete2_t2_graph()) == {"LD": False, "RD": False}


def test_determinism_matches_classify():
    # LD <=> all relations partial maps, RD <=> all converses partial maps
    for name, G in corpus.pm_graphs():
        pm = graph_to_premorphism(G)
        det = check_determinism(G)
        assert det["LD"] == all(relmonoid.classify(r)["in_PT"]
                                for r in pm.phi.values()), name
        assert det["RD"] == all(relmonoid.classify(r)["in_PTc"]
                                for r in pm.phi.values()), name


def test_sigma_iff_label_corpus():
    for name, G in corpus.pm_graphs():
        ok, witness = check_sigma_iff_label(G)
        assert ok, (name, witness)


def test_classify_e2t2():
    cls = classify_restriction(corpus.e2t2_graph())
    assert cls.left and not cls.right
    cls = classify_restriction(corpus.e2t2_reverse_graph())
    assert cls.right and not cls.left


def test_classify_partial_action_both():
    for name, pa in corpus.partial_actions():
        cls = classify_restriction(partial_action_graph(pa))
        assert cls.left and cls.right, name


def test_classify_agrees_with_determinism_theorem():
    # proper left restriction <=> LD, proper right <=> RD, given that
    # sigma classes are the label fibers on every corpus graph
    for name, G in corpus.pm_graphs():
        ok, _ = check_sigma_iff_label(G)
        assert ok, name
        det = check_determinism(G)
        cls = classify_restriction(G)
        assert cls.left == det["LD"], name
        assert cls.right == det["RD"], name


def test_products_of_deterministic_graphs_strictly_proper():
    for name, G in corpus.pm_graphs():
        det = check_determinism(G)
        if det["LD"] or det["RD"]:
            S, _ = product.build_product(G)
            assert core.is_strictly_proper(S), name


def test_build_pair_form_rejects_non_injective():
    sl = chain_semilattice(2)
    mon = corpus.t2_monoid()
    phi = {0: relmonoid.identity(2), 1: Rel.from_pairs(2, [(1, 0), (0, 0)])}
    pa = PartialAction(sl, mon, phi)
    with pytest.raises(ValueError):
        build_pair_form(pa)


def test_build_pair_form_three_elements():
    S, pairs = build_pair_form(corpus.pa_chain2())
    assert S.n == 3
    assert pairs == [(0, 0), (1, 0), (0, 1)]
    assert core.verify_ehresmann(S).ok
    assert core.verify_restriction(S, "both").ok
    # proper: (a^+, sigma class) determines the element
    cong, _ = core.sigma(S)
    seen = set()
    for a in range(S.n):
        key = (S.plus[a], cong.class_of[a])
        assert key not in seen
        seen.add(key)


def test_pair_form_identity_action_is_semilattice():
    sl = chain_semilattice(3)
    mon = corpus.t2_monoid()
    pa = PartialAction(sl, mon, {0: relmonoid.identity(3),
                                 1: relmonoid.identity(3)})
    S, pairs = build_pair_form(pa)
    assert S.n == 6
    assert core.verify_restriction(S, "both").ok


def test_pair_form_outputs_proper_restriction():
    for name, pa in corpus.partial_actions():
        S, pairs = build_pair_form(pa)
        assert core.verify_restriction(S, "both").ok, name
        cong, _ = core.sigma(S)
        plus_pairs = {(S.plus[a], cong.class_of[a]) for a in range(S.n)}
        star_pairs = {(S.star[a], cong.class_of[a]) for a in range(S.n)}
        assert len(plus_pairs) == S.n, name
        assert len(star_pairs) == S.n, name


def test_pair_form_iso_with_product():
    for name, pa in corpus.partial_actions():
        rep = pair_form_iso_check(pa)
        assert rep.ok, (name, [c.line() for c in rep.failures()])


def test_partial_action_laws_pass():
    for name, pa in corpus.partial_actions():
        rep = check_partial_action_laws(pa)
        assert rep.ok, name
        assert validate_partial_action(pa).ok, name


def test_partial_action_laws_violation():
    # domain {e} on the chain f < e is not downward closed
    sl = chain_semilattice(2)
    mon = corpus.t2_monoid()
    pa = PartialAction(sl, mon, {0: relmonoid.identity(2),
                                 1: Rel.from_pairs(2, [(1, 1)])})
    rep = check_partial_action_laws(pa)
    bad = rep["domains_are_order_ideals"]
    assert not bad.ok
    assert bad.witness == (1, 0, 1)  # label t, missing 0 below 1


def test_partial_action_laws_need_determinism():
    sl = chain_semilattice(2)
    mon = corpus.t2_monoid()
    full = Rel.from_pairs(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    pa = PartialAction(sl, mon, {0: full, 1: full})
    with pytest.raises(ValueError):
        check_partial_action_laws(pa)


def test_ld_restriction_formula_and_monotonicity():
    # restricting (e, t, e phi_t) to f <= e gives (f, t, f phi_t), with
    # f phi_t <= e phi_t
    for name, pa in corpus.partial_actions():
        G = partial_action_graph(pa)
        for (e, t, r) in G.sorted_edges():
            rel = pa.phi[t]
            for f in pa.sl.below(e):
                restricted = G.restrict((e, t, r), f)
                image = dict(rel.pairs())
                assert restricted == (f, t, image[f]), name
                assert pa.sl.leq(image[f], image[e]), name


def test_pair_form_sigma_class_is_second_coordinate():
    for name, pa in corpus.partial_actions():
        S, pairs = build_pair_form(pa)
        cong, _ = core.sigma(S)
        for i, (e, s) in enumerate(pairs):
            assert S.plus[i] == pairs.index((e, pa.mon.one)), name
            for j, (f, t) in enumerate(pairs):
                assert cong.same(i, j) == (s == t), name


def test_sigma_label_violation_search_reports_absence():
    # deterministic seed; down-rectangle graphs always turn out to satisfy
    # the biconditional at this scale, and absence is all that is reported
    found = search_sigma_label_violation(seed=0, tries=40)
    assert found is None


def test_sigma_label_violation_search_is_deterministic():
    a = search_sigma_label_violation(seed=3, tries=10)
    b = search_sigma_label_violation(seed=3, tries=10)
    assert (a is None) == (b is None)


def test_partial_map_application_rejects_two_valued_relations():
    two_valued = Rel.from_pairs(2, [(0, 0), (0, 1), (1, 1)])
    assert actions._apply(two_valued, 1) == 1
    with pytest.raises(core.InvariantError):
        actions._apply(two_valued, 0)
    inverse = actions._inverse(two_valued)
    assert inverse(0) == 0
    with pytest.raises(core.InvariantError, match="not defined or not injective at 1"):
        inverse(1)


def test_partial_action_laws_match_side_by_side():
    # random partial maps and converses of partial maps on small semilattices,
    # against the laws with the LD and RD halves written out
    rng = random.Random(3)
    diamond = Semilattice(4, [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]])
    lattices = [chain_semilattice(2), chain_semilattice(3), diamond]
    seen = collections.Counter()
    for _ in range(400):
        sl = rng.choice(lattices)
        xs = rng.sample(range(sl.n), rng.randint(1, sl.n))
        pairs = [(x, rng.randrange(sl.n)) for x in xs]
        if rng.random() < .5:
            pairs = [(y, x) for x, y in pairs]
        if rng.random() < .2:  # often neither a partial map nor a converse one
            pairs += [(rng.randrange(sl.n), rng.randrange(sl.n)) for _ in range(2)]
        pa = PartialAction(sl, corpus.t2_monoid(),
                           {0: relmonoid.identity(sl.n), 1: Rel.from_pairs(sl.n, pairs)})
        try:
            want = reference_check_partial_action_laws(pa).checks
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                check_partial_action_laws(pa)
            seen["raised"] += 1
            continue
        assert check_partial_action_laws(pa).checks == want, pairs
        seen.update(c.name for c in want if not c.ok)
    assert min(seen[name] for name in (
        "domains_are_order_ideals", "maps_order_preserving", "ranges_are_order_ideals",
        "inverse_maps_order_preserving", "raised")) >= 5, seen


def _flipped(pm, rng, count):
    """Copies of pm with one bit of one relation flipped."""
    out = []
    for _ in range(count):
        t = rng.choice(sorted(pm.phi))
        n = pm.phi[t].n
        phi = dict(pm.phi)
        phi[t] = Rel(n, phi[t].bits ^ 1 << rng.randrange(n * n))
        out.append(dataclasses.replace(pm, phi=phi))
    return out


def test_premorphism_laws_match_parent_on_flipped_relations(monkeypatch):
    # one right multiplier per label against one relmonoid.compose per pair
    # of labels: the same names, statuses and first witnesses, for the
    # premorphism laws and for the partial-action checks built on them
    rng = random.Random(7)
    originals = [graph_to_premorphism(G) for _, G in corpus.pm_graphs()]
    originals += [pa for _, pa in corpus.partial_actions()]
    originals += [random_partial_action(rng, 3 + i % 2) for i in range(12)]
    for mon in (corpus.t2_monoid(), corpus.flip_flop_monoid(), corpus.z2_monoid()):
        for n in (2, 3):
            phi = {t: Rel(n, rng.randrange(1, 1 << n * n)) for t in mon.elements()}
            phi[mon.one] = Rel(n, phi[mon.one].bits | relmonoid.identity(n).bits)
            originals.append(Premorphism(mon, n, phi))
    seen = collections.Counter()
    for pm in originals:
        for variant in [pm] + _flipped(pm, rng, 12):
            checks = parent_validate_premorphism(variant).checks
            assert validate_premorphism(variant).checks == checks
            seen.update(f"{c.name} {c.status}" for c in checks)
            if isinstance(variant, PartialAction):
                with monkeypatch.context() as m:
                    m.setattr(actions, "validate_premorphism", parent_validate_premorphism)
                    want = validate_partial_action(variant).checks
                assert validate_partial_action(variant).checks == want
                seen.update(f"partial action {c.status}" for c in want[len(checks):])
    assert min(seen[key] for key in (
        "relations_nonempty FAIL", "identity_in_phi_1 FAIL", "phi_s_phi_t_in_phi_st PASS",
        "phi_s_phi_t_in_phi_st FAIL", "partial action PASS",
        "partial action FAIL")) >= 5, seen


def test_pair_form_iso_check_validates_once(monkeypatch):
    calls = []
    validate = actions.validate_partial_action
    monkeypatch.setattr(actions, "validate_partial_action",
                        lambda pa: calls.append(pa) or validate(pa))
    for name, pa in corpus.partial_actions():
        calls.clear()
        assert pair_form_iso_check(pa).ok, name
        assert calls == [pa], name


def test_pair_form_iso_check_rejects_what_build_pair_form_rejects():
    # the relation of t is not injective; the message is the one that
    # build_pair_form and partial_action_graph raise
    sl = chain_semilattice(2)
    pa = PartialAction(sl, corpus.t2_monoid(),
                       {0: relmonoid.identity(2), 1: Rel.from_pairs(2, [(1, 0), (0, 0)])})
    message = "not a partial action: relations_are_partial_bijections witness=(1,)"
    for build in (pair_form_iso_check, build_pair_form, partial_action_graph):
        with pytest.raises(ValueError) as raised:
            build(pa)
        assert str(raised.value) == message, build
