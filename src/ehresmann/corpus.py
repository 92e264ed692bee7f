"""Built-in corpus of small semigroups, graphs and partial actions.

Every builder is deterministic; the collection functions return
(name, object) lists used by the test suite and the corpus-run command.
"""

from __future__ import annotations

from . import relmonoid
from .actions import PartialAction
from .core import OpTableSemigroup
from .relmonoid import Rel
from .resgraph import (FiniteMonoid, ResGraph, Semilattice, chain_semilattice,
                       rectangle_graph)


# ---------------------------------------------------------------------------
# semilattices and monoids

def chain(k: int) -> OpTableSemigroup:
    """k-chain meet semilattice as an Ehresmann semigroup (identity unaries)."""
    mult = [[min(i, j) for j in range(k)] for i in range(k)]
    ident = list(range(k))
    return OpTableSemigroup(k, mult, ident, ident, [f"e{i}" for i in range(k)])


def _diamond_meet() -> list:
    """Meet table of 0 < a, b < 1 with a ^ b = 0."""
    return [
        [0, 0, 0, 0],
        [0, 1, 0, 1],
        [0, 0, 2, 2],
        [0, 1, 2, 3],
    ]


def diamond() -> OpTableSemigroup:
    """0 < a, b < 1 with a ^ b = 0."""
    ident = [0, 1, 2, 3]
    return OpTableSemigroup(4, _diamond_meet(), ident, ident, ["0", "a", "b", "1"])


def fan() -> OpTableSemigroup:
    """Bottom 0 and four pairwise-incomparable atoms."""
    k = 5
    meet = [[i if i == j else 0 for j in range(k)] for i in range(k)]
    ident = list(range(k))
    return OpTableSemigroup(k, meet, ident, ident)


def reduced(mult, names=None) -> OpTableSemigroup:
    """A monoid with both unary operations constantly its identity."""
    k = len(mult)
    ident = next((e for e in range(k)
                  if all(mult[e][x] == x == mult[x][e] for x in range(k))), None)
    if ident is None:
        raise ValueError("not a monoid")
    return OpTableSemigroup(k, mult, [ident] * k, [ident] * k, names)


def cyclic_group(k: int) -> OpTableSemigroup:
    return reduced([[(i + j) % k for j in range(k)] for i in range(k)],
                   [f"g{i}" for i in range(k)])


def flip_flop() -> OpTableSemigroup:
    """{1, z0, z1} with z_i z_j = z_j."""
    mult = [[0, 1, 2], [1, 1, 2], [2, 1, 2]]
    return reduced(mult, ["1", "z0", "z1"])


def symmetric_group_3() -> OpTableSemigroup:
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {p: i for i, p in enumerate(perms)}
    mult = [[index[tuple(q[p[x]] for x in range(3))] for q in perms] for p in perms]
    return reduced(mult)


def t2_monoid() -> FiniteMonoid:
    """{1, t} with t t = t."""
    return FiniteMonoid(2, [[0, 1], [1, 1]], 0, ["1", "t"])


def flip_flop_monoid() -> FiniteMonoid:
    return FiniteMonoid(3, [[0, 1, 2], [1, 1, 2], [2, 1, 2]], 0, ["1", "z0", "z1"])


def z2_monoid() -> FiniteMonoid:
    return FiniteMonoid(2, [[0, 1], [1, 0]], 0, ["1", "g"])


def t3_zero_monoid() -> FiniteMonoid:
    """{1, t, z} with t t = z and z absorbing."""
    return FiniteMonoid(3, [[0, 1, 2], [1, 2, 2], [2, 2, 2]], 0, ["1", "t", "z"])


# ---------------------------------------------------------------------------
# relation semigroups

def rel_pt2() -> OpTableSemigroup:
    return relmonoid.full_PT(2).to_semigroup()


def rel_ptc2() -> OpTableSemigroup:
    return relmonoid.full_PTc(2).to_semigroup()


def rel_i2() -> OpTableSemigroup:
    return relmonoid.full_I(2).to_semigroup()


def rel_b1() -> OpTableSemigroup:
    return relmonoid.full_B(1).to_semigroup()


def rel_b2() -> OpTableSemigroup:
    return relmonoid.full_B(2).to_semigroup()


def sub_b2_row() -> OpTableSemigroup:
    """Subalgebra of B(2) generated by {(0,0),(0,1)}: three elements."""
    s = Rel.from_pairs(2, [(0, 0), (0, 1)])
    return relmonoid.generate(2, [s]).to_semigroup()


def _eight_generators() -> list:
    """The generators {(0,0),(0,1)} and {(1,0)} of eight_monoid."""
    return [Rel.from_pairs(2, [(0, 0), (0, 1)]), Rel.from_pairs(2, [(1, 0)])]


def eight_monoid() -> OpTableSemigroup:
    """Eight-element Ehresmann monoid inside B(2); not left restriction."""
    return relmonoid.generate(2, _eight_generators()).to_semigroup()


def sub_pt2_swap() -> OpTableSemigroup:
    tau = Rel.from_pairs(2, [(0, 1), (1, 0)])
    return relmonoid.generate(2, [tau]).to_semigroup()


# ---------------------------------------------------------------------------
# partial multiaction graphs with compatible restrictions

def e2t2_graph() -> ResGraph:
    """Two-chain f < e acted on by {1, t}: edges (e,t,f) and (f,t,f)."""
    f, e = 0, 1
    return rectangle_graph(chain_semilattice(2, ["f", "e"]), t2_monoid(),
                           {(e, 0, e), (f, 0, f), (e, 1, f), (f, 1, f)})


def e2t2_reverse_graph() -> ResGraph:
    """Mirror image of e2t2: right deterministic, not left."""
    f, e = 0, 1
    return rectangle_graph(chain_semilattice(2, ["f", "e"]), t2_monoid(),
                           {(e, 0, e), (f, 0, f), (f, 1, e), (f, 1, f)})


def singleton_graph(mon: FiniteMonoid) -> ResGraph:
    """One vertex, one edge per label; the product is the label monoid."""
    return rectangle_graph(Semilattice(1, [[0]]), mon, {(0, t, 0) for t in mon.elements()})


def identity_action_graph(k: int, mon: FiniteMonoid) -> ResGraph:
    """Every label acts as the identity on a k-chain."""
    sl = chain_semilattice(k)
    edges = {(e, t, e) for e in range(k) for t in mon.elements()}
    restrict = {((e, t, e), g): (g, t, g)
                for (e, t, _) in edges for g in sl.below(e)}
    return ResGraph(sl, mon, edges, dict(restrict), dict(restrict))


def complete2_t2_graph() -> ResGraph:
    """All t-edges on a two-chain: neither LD nor RD, still compatible."""
    sl = chain_semilattice(2)
    mon = t2_monoid()
    edges = {(0, 0, 0), (1, 0, 1)} | {(d, 1, r) for d in (0, 1) for r in (0, 1)}
    return rectangle_graph(sl, mon, edges)


# ---------------------------------------------------------------------------
# partial actions (LD and RD)

def pa_chain2() -> PartialAction:
    """{1, t} acting on the two-chain by the partial identity on the bottom."""
    sl = chain_semilattice(2, ["f", "e"])
    mon = t2_monoid()
    phi = {0: relmonoid.identity(2), 1: Rel.from_pairs(2, [(0, 0)])}
    return PartialAction(sl, mon, phi)


def pa_chain3() -> PartialAction:
    sl = chain_semilattice(3)
    mon = t2_monoid()
    phi = {0: relmonoid.identity(3), 1: Rel.from_pairs(3, [(0, 0)])}
    return PartialAction(sl, mon, phi)


def pa_diamond() -> PartialAction:
    """t moves atom a to atom b over the diamond; t t fixes the bottom."""
    sl = Semilattice(4, _diamond_meet(), ["0", "a", "b", "1"])
    mon = t2_monoid()
    phi = {0: relmonoid.identity(4), 1: Rel.from_pairs(4, [(1, 2), (0, 0)])}
    return PartialAction(sl, mon, phi)


def pa_z2() -> PartialAction:
    """Z2 swapping the two atoms above a bottom."""
    sl = Semilattice(3, [
        [0, 0, 0],
        [0, 1, 0],
        [0, 0, 2],
    ], ["0", "x", "y"])
    mon = z2_monoid()
    phi = {0: relmonoid.identity(3),
           1: Rel.from_pairs(3, [(0, 0), (1, 2), (2, 1)])}
    return PartialAction(sl, mon, phi)


# ---------------------------------------------------------------------------
# collections

def semigroups():
    """Named corpus semigroups; all pass the Ehresmann axioms."""
    from .product import build_product
    out = [
        ("chain1", chain(1)),
        ("chain2", chain(2)),
        ("chain3", chain(3)),
        ("chain4", chain(4)),
        ("diamond", diamond()),
        ("fan5", fan()),
        ("z2", cyclic_group(2)),
        ("z3", cyclic_group(3)),
        ("z4", cyclic_group(4)),
        ("flipflop", flip_flop()),
        ("s3", symmetric_group_3()),
        ("b1", rel_b1()),
        ("pt2", rel_pt2()),
        ("ptc2", rel_ptc2()),
        ("i2", rel_i2()),
        ("sub_b2_row", sub_b2_row()),
        ("sub_pt2_swap", sub_pt2_swap()),
        ("eight_monoid", eight_monoid()),
    ]
    for name, G in pm_graphs():
        S, _ = build_product(G)
        out.append((name + "_product", S))
    from .actions import build_pair_form
    for name, pa in partial_actions():
        S, _ = build_pair_form(pa)
        out.append((name + "_pairform", S))
    return out


def pm_graphs():
    """Named partial multiactions with compatible restrictions."""
    from .actions import partial_action_graph
    out = [
        ("e2t2", e2t2_graph()),
        ("e2t2_rev", e2t2_reverse_graph()),
        ("singleton_z2", singleton_graph(z2_monoid())),
        ("singleton_flipflop", singleton_graph(flip_flop_monoid())),
        ("singleton_t3zero", singleton_graph(t3_zero_monoid())),
        ("chain3_identity", identity_action_graph(3, t2_monoid())),
        ("complete2_t2", complete2_t2_graph()),
    ]
    for name, pa in partial_actions():
        out.append((name + "_graph", partial_action_graph(pa)))
    return out


def partial_actions():
    return [
        ("pa_chain2", pa_chain2()),
        ("pa_chain3", pa_chain3()),
        ("pa_diamond", pa_diamond()),
        ("pa_z2", pa_z2()),
    ]


def cover_cases():
    """(name, semigroup, generating set) triples for cover verification."""
    pt2_alg = relmonoid.full_PT(2)
    # the swap, the partial identity on 0 and the constant map to 0
    pt2_gens = [pt2_alg.index[Rel.from_pairs(2, pairs)]
                for pairs in ([(0, 1), (1, 0)], [(0, 0)], [(0, 0), (1, 0)])]
    eight_gens = _eight_generators()
    eight_alg = relmonoid.generate(2, eight_gens)
    return [
        ("e2", chain(2), [0, 1]),
        ("pt2", pt2_alg.to_semigroup(), pt2_gens),
        ("eight_monoid", eight_alg.to_semigroup(),
         [eight_alg.index[g] for g in eight_gens]),
    ]
