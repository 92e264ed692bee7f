"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they pass.
"""

import random
import time

from ehresmann import actions, core, corpus, cover, product, relmonoid
from ehresmann.relmonoid import Rel
from ehresmann.report import PASS

from oracles import brute_min_congruence


def _ok(n, text):
    print(f"[criterion {n}] PASS - {text}")


def test_criterion_01_axiom_suites():
    t0 = time.time()
    b2 = corpus.rel_b2()
    assert b2.n == 16
    assert core.verify_ehresmann(b2).ok

    pt2 = corpus.rel_pt2()
    assert pt2.n == 9
    rep = core.verify_restriction(pt2, "both")
    assert rep["x y^+ = (x y)^+ x"].ok
    right = rep["x^* y = y (x y)^*"]
    assert not right.ok and right.witness is not None
    witness_line = right.line()
    assert "witness" in witness_line

    i2 = corpus.rel_i2()
    assert core.verify_restriction(i2, "both").ok
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"axiom suites took {elapsed:.2f}s"
    _ok(1, f"B(2) Ehresmann, PT(2) left-only ({witness_line.strip()}), "
           f"I(2) both, in {elapsed:.2f}s")


def test_criterion_02_inclusion_vs_natural_order():
    mu = Rel.from_pairs(4, [(0, 2), (1, 3)])
    tau = Rel.from_pairs(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert mu.issubset(tau)
    assert not relmonoid.natural_le(mu, tau)
    _ok(2, "mu inside tau but mu not below tau in the natural order of B(4)")


def test_criterion_03_sigma_oracle():
    checked = 0
    for name, S in corpus.semigroups():
        if S.n > 9:
            continue
        cong, _ = core.sigma(S)
        class_of, _ = brute_min_congruence(S)
        for a in range(S.n):
            for b in range(S.n):
                assert cong.same(a, b) == (class_of[a] == class_of[b]), name
        checked += 1
    assert checked >= 20
    _ok(3, f"sigma equals the brute-force minimum congruence on {checked} "
           f"semigroups with n <= 9")


def test_criterion_04_matchify_laws():
    rng = random.Random(20240)
    total = 0
    for name, S in corpus.semigroups():
        orders = core.natural_orders(S)
        for _ in range(1000):
            seq = [rng.randrange(S.n) for _ in range(rng.randint(1, 4))]
            out = core.matchify(S, seq)
            assert core.is_matching(S, out), name
            assert S.prod(out) == S.prod(seq), name
            for a, b in zip(out, seq):
                assert orders.le[a][b], name
            prod = S.prod(seq)
            assert S.plus[out[0]] == S.plus[prod], name
            assert S.star[out[-1]] == S.star[prod], name
            total += 1
    _ok(4, f"matchify laws on {total} random sequences "
           f"across {len(corpus.semigroups())} semigroups")


def test_criterion_05_product_construction():
    graphs = corpus.pm_graphs()
    assert len(graphs) >= 6  # e2t2 plus at least five others
    for name, G in graphs:
        S, edges = product.build_product(G)
        rep = core.verify_ehresmann(S)  # includes exhaustive associativity
        assert rep.ok, (name, [c.line() for c in rep.failures()])
        claims = product.check_construction_claims(G, built=(S, edges))
        assert claims.ok, (name, [c.line() for c in claims.failures()])
    _ok(5, f"product construction and construction claims on "
           f"{len(graphs)} partial multiactions")


def test_criterion_06_structure_theorem():
    strictly = 0
    for name, S in corpus.semigroups():
        if not core.is_strictly_proper(S):
            continue
        rep = product.structure_iso_check(S)
        assert rep.ok, (name, [c.line() for c in rep.failures()])
        strictly += 1
    for name, G in corpus.pm_graphs():
        rep = product.round_trip_check(G)
        assert rep.ok, (name, [c.line() for c in rep.failures()])
    _ok(6, f"structure isomorphism on {strictly} strictly proper instances "
           f"and round trips on {len(corpus.pm_graphs())} graphs")


def test_criterion_07_covers():
    t0 = time.time()
    cases = corpus.cover_cases()
    names = [name for name, _, _ in cases]
    assert names == ["e2", "pt2", "eight_monoid"]
    S8 = cases[2][1]
    assert 6 <= S8.n <= 8
    assert not core.verify_restriction(S8, "both").ok  # non-restriction
    for name, S, gens in cases:
        rep = cover.verify_cover(S, gens, len_bound=3)
        assert rep.ok, (name, [c.line() for c in rep.failures()])
    elapsed = time.time() - t0
    assert elapsed < 120, f"covers took {elapsed:.1f}s"
    _ok(7, f"verify_cover at length 3 on e2, pt2 and the {S8.n}-element "
           f"non-restriction monoid in {elapsed:.1f}s")


def test_criterion_08_restriction_recovery():
    cases = corpus.partial_actions()
    assert len(cases) >= 3
    for name, pa in cases:
        S, pairs = actions.build_pair_form(pa)
        assert core.verify_restriction(S, "both").ok, name
        cong, _ = core.sigma(S)
        keys = {(S.plus[a], cong.class_of[a]) for a in range(S.n)}
        assert len(keys) == S.n, name  # two-coordinate determination
        iso = actions.pair_form_iso_check(pa)
        assert iso.ok, (name, [c.line() for c in iso.failures()])
    _ok(8, f"pair form builds proper restriction semigroups isomorphic to "
           f"the graph products on {len(cases)} partial actions")


def test_criterion_09_determinism_biconditionals():
    for name, G in corpus.pm_graphs():
        ok, witness = actions.check_sigma_iff_label(G)
        assert ok, (name, witness)
        det = actions.check_determinism(G)
        cls = actions.classify_restriction(G)
        assert cls.left == det["LD"], name
        assert cls.right == det["RD"], name
    _ok(9, f"LD <=> proper left restriction and RD <=> proper right "
           f"restriction on {len(corpus.pm_graphs())} graphs")


def test_criterion_10_fes_witness():
    rep = cover.fes_witness_check(max_ground=3)
    assert rep.status == PASS
    n, x, y = rep.witness
    assert n <= 3
    left = relmonoid.compose(x, relmonoid.dom(y))
    right = relmonoid.compose(relmonoid.dom(relmonoid.compose(x, y)), x)
    assert relmonoid.dom(left) == relmonoid.dom(right)
    assert relmonoid.ran(left) != relmonoid.ran(right)
    _ok(10, f"witness in B({n}): x={x!r}, y={y!r}")
