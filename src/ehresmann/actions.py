"""Partial multiactions of monoids, premorphisms, and the recovery of
proper restriction semigroups from partial actions on semilattices.

A premorphism sends each label to a binary relation on the ground set,
laxly compatibly with the monoid product; its graph form has one edge per
related pair.  Left/right determinism of the graph corresponds to the
relations being partial maps / their converses, and both together to
partial bijections, which is the classical partial-action setting.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core, product, relmonoid
from .core import OpTableSemigroup
from .relmonoid import Rel
from .report import Check, FAIL, PASS, Report, first_witness
from .resgraph import FiniteMonoid, ResGraph, Semilattice


@dataclass
class Premorphism:
    mon: FiniteMonoid
    ground: int
    phi: dict  # label index -> Rel


@dataclass
class PartialAction:
    """A premorphism whose ground set carries a semilattice order."""

    sl: Semilattice
    mon: FiniteMonoid
    phi: dict


def _phi_items(pm):
    return [(t, pm.phi[t]) for t in sorted(pm.phi)]


def _phi_edges(pm) -> set:
    """The edges (x, t, y) of the pairs (x, y) of every phi_t."""
    return {(x, t, y) for t, rel in _phi_items(pm) for (x, y) in rel.pairs()}


def validate_premorphism(pm) -> Report:
    """Nonempty relations, id inside phi_1, and phi_s phi_t inside phi_st.

    The last law tests times[t](phi_s) & ~phi_st on bit masks, with one
    right multiplier a -> a phi_t per label t, for the pairs (s, t) in the
    order of one relmonoid.compose per pair: the first witness is the same."""
    n = pm.ground if isinstance(pm, Premorphism) else pm.sl.n

    def problem(t):
        if t not in pm.phi:
            return "missing"
        if pm.phi[t].n != n:
            return "ground size mismatch"
        if pm.phi[t].bits == 0:
            return "empty relation"
        return None

    checks = [first_witness("relations_nonempty", (
        (t, why) for t in pm.mon.elements() for why in [problem(t)] if why))]
    if not checks[0].ok:
        return Report(checks)

    ident = relmonoid.identity(n)
    ok = ident.issubset(pm.phi[pm.mon.one])
    checks.append(Check("identity_in_phi_1", PASS if ok else FAIL,
                        None if ok else (pm.mon.one,)))

    labels, mul = pm.mon.elements(), pm.mon.mul
    bits = {t: pm.phi[t].bits for t in labels}
    times = {t: relmonoid._right_multiplier(n, bits[t]) for t in labels}
    checks.append(first_witness("phi_s_phi_t_in_phi_st", (
        (s, t) for s in labels for t in labels
        if times[t](bits[s]) & ~bits[mul(s, t)])))
    return Report(checks)


def _require(report: Report, what: str) -> None:
    """Raise ValueError naming what and the first failed check of report,
    with its witness, unless report passes."""
    if not report.ok:
        bad = report.failures()[0]
        raise ValueError(f"{what}: {bad.name} witness={bad.witness}")


@dataclass
class PMGraph:
    """Labelled graph over a plain set, closed under composable label
    products; the category form of a premorphism."""

    n_vertices: int
    mon: FiniteMonoid
    edges: frozenset


def graph_to_premorphism(G) -> Premorphism:
    """Read the label-indexed relations off a partial multiaction."""
    mon = G.mon
    if mon.is_free:
        raise ValueError("premorphisms need a finite label monoid")
    n = G.n_vertices if isinstance(G, PMGraph) else G.sl.n
    phi = {}
    for t in mon.elements():
        pairs = [(d, r) for (d, lab, r) in G.edges if lab == t]
        if not pairs:
            raise ValueError(f"label {t} has no edge; relation would be empty")
        phi[t] = Rel.from_pairs(n, pairs)
    pm = Premorphism(mon, n, phi)
    _require(validate_premorphism(pm), "graph is not a partial multiaction")
    return pm


def premorphism_to_graph(pm) -> PMGraph:
    """Edges (x, t, y) for the pairs of phi_t; (PM) holds by the lax
    compatibility law."""
    _require(validate_premorphism(pm), "not a premorphism")
    n = pm.ground if isinstance(pm, Premorphism) else pm.sl.n
    return PMGraph(n, pm.mon, frozenset(_phi_edges(pm)))


def check_determinism(G) -> dict:
    """LD: at most one target per (source, label); RD dually."""
    return {side: len({(c[end], c[1]) for c in G.edges}) == len(G.edges)
            for side, end in (("LD", 0), ("RD", 2))}


def check_sigma_iff_label(G: ResGraph):
    """Test, on the product table, whether sigma-related means same label.

    Returns (ok, witness); guaranteed true for deterministic graphs.
    """
    S, edges = product.build_product(G)
    cong, _ = core.sigma(S)
    rng = range(S.n)
    witness = next(((edges[i], edges[j]) for i in rng for j in rng
                    if cong.same(i, j) != (edges[i][1] == edges[j][1])), None)
    return witness is None, witness


@dataclass
class RestrictionClass:
    left: bool
    right: bool
    report: Report


def classify_restriction(G: ResGraph) -> RestrictionClass:
    """Is the product a proper left / proper right restriction semigroup?

    Each side needs the ample identity together with the one-sided
    properness condition (equal projection and sigma class force equality).
    """
    S, edges = product.build_product(G)
    cong, _ = core.sigma(S)
    rep = core.verify_restriction(S, "both")
    checks = list(rep.checks)
    for name, unary in (("left_proper", S.plus), ("right_proper", S.star)):
        checks.append(first_witness(name, (
            (edges[a], edges[b]) for a in range(S.n) for b in range(a + 1, S.n)
            if unary[a] == unary[b] and cong.same(a, b))))

    report = Report(checks)
    left = report["x y^+ = (x y)^+ x"].ok and report["left_proper"].ok
    right = report["x^* y = y (x y)^*"].ok and report["right_proper"].ok
    return RestrictionClass(left, right, report)


def check_partial_action_laws(pa: PartialAction) -> Report:
    """For deterministic relations: domains (ranges) are order ideals and
    the maps are order-preserving in the available direction."""
    classes = [relmonoid.classify(r) for r in pa.phi.values()]
    sides = [side for side, flag in (("LD", "in_PT"), ("RD", "in_PTc"))
             if all(c[flag] for c in classes)]
    if not sides:
        raise ValueError("laws need a deterministic premorphism (LD or RD)")
    return _order_laws(pa, sides)


def _order_laws(pa: PartialAction, sides) -> Report:
    """check_partial_action_laws on the given sides.  The order is read off
    the meet rows: f <= e exactly when meet[f][e] == f."""
    meet, checks = pa.sl.meet, []
    for side, ideal, monotone in (
            ("LD", "domains_are_order_ideals", "maps_order_preserving"),
            ("RD", "ranges_are_order_ideals", "inverse_maps_order_preserving")):
        if side in sides:
            # each relation as a map, read forwards (LD) or backwards (RD)
            maps = {t: dict(p if side == "LD" else p[::-1] for p in rel.pairs())
                    for t, rel in _phi_items(pa)}
            checks.append(first_witness(ideal, (
                (t, f, e) for t, m in maps.items() for e in sorted(m)
                for f in pa.sl.below(e) if f not in m)))
            checks.append(first_witness(monotone, (
                (t, f, e) for t, m in maps.items() for e, me in m.items()
                for f, mf in m.items() if meet[f][e] == f and meet[mf][me] != mf)))
    return Report(checks)


def validate_partial_action(pa: PartialAction) -> Report:
    """Premorphism laws plus: every relation is a partial bijection that is
    an order isomorphism between order ideals."""
    checks = list(validate_premorphism(pa).checks)
    if not all(c.ok for c in checks):
        return Report(checks)
    checks.append(first_witness("relations_are_partial_bijections", (
        (t,) for t, rel in _phi_items(pa) if not relmonoid.classify(rel)["in_I"])))
    if checks[-1].ok:  # partial bijections are deterministic on both sides
        checks.extend(_order_laws(pa, ("LD", "RD")).checks)
    return Report(checks)


def _maps(pa: PartialAction):
    """Each phi_t read once into two rows, fwd[t][x] = x phi_t and
    bwd[t][y] = y phi_t^{-1}, with -1 off the domain and the range.  It
    raises InvariantError where a relation is not single-valued or not
    injective, which a validated partial action never is."""
    fwd, bwd = {}, {}
    for t, rel in _phi_items(pa):
        f, b = [-1] * pa.sl.n, [-1] * pa.sl.n
        for x, y in rel.pairs():
            if f[x] >= 0:
                raise core.InvariantError(f"phi_{t} is not single-valued at {x}")
            if b[y] >= 0:
                raise core.InvariantError(f"phi_{t} is not injective at {y}")
            f[x], b[y] = y, x
        fwd[t], bwd[t] = f, b
    return fwd, bwd


def partial_action_graph(pa: PartialAction) -> ResGraph:
    """The partial multiaction of a partial action, with the induced
    restriction (g, t, g phi_t) and corestriction (h phi_t^{-1}, t, h)."""
    _require(validate_partial_action(pa), "not a partial action")
    return _action_graph(pa)


def _action_graph(pa: PartialAction) -> ResGraph:
    """partial_action_graph of a validated partial action, its maps read
    off the rows of _maps: an edge (x, t, y) restricts to g below x as
    (g, t, fwd[t][g]) and corestricts to h below y as (bwd[t][h], t, h)."""
    fwd, bwd = _maps(pa)
    below, edges = pa.sl.below, _phi_edges(pa)
    restrict = {((x, t, y), g): (g, t, fwd[t][g]) for (x, t, y) in edges for g in below(x)}
    corestrict = {((x, t, y), h): (bwd[t][h], t, h) for (x, t, y) in edges for h in below(y)}
    return ResGraph(pa.sl, pa.mon, edges, restrict, corestrict)


def build_pair_form(pa: PartialAction):
    """The pair semigroup of a partial action: elements (e, s) with e in
    dom(phi_s), product (e,s)(f,t) = ((e phi_s ^ f) phi_s^{-1}, s t),
    plus (e, 1), star (e phi_s, 1)."""
    _require(validate_partial_action(pa), "not a partial action")
    return _pair_form(pa)


def _pair_form(pa: PartialAction):
    """build_pair_form of a validated partial action, read off the rows of
    _maps, its rows handed over in core.row_form."""
    sl, mon = pa.sl, pa.mon
    fwd, bwd = _maps(pa)
    pairs = [(e, s) for s in sorted(mon.elements()) for e in range(sl.n) if fwd[s][e] >= 0]
    idx = {p: i for i, p in enumerate(pairs)}
    k = len(pairs)
    R, mult = core.row_form(k), []
    for e, s in pairs:
        # ranges are order ideals, so the meet stays in ran(phi_s)
        meet, inv, times = sl.meet[fwd[s][e]], bwd[s], mon.mult[s]
        mult.append(R.row([idx[(inv[meet[f]], times[t])] for f, t in pairs]))
    plus = [idx[(e, mon.one)] for (e, s) in pairs]
    star = [idx[(fwd[s][e], mon.one)] for (e, s) in pairs]
    names = [f"({sl.name(e)},{mon.label_str(s)})" for (e, s) in pairs]
    return OpTableSemigroup(k, mult, plus, star, names), pairs


def pair_form_iso_check(pa: PartialAction) -> Report:
    """(e, s) -> (e, s, e phi_s) is an isomorphism onto the product of the
    induced graph.  The partial action is validated once, for both."""
    _require(validate_partial_action(pa), "not a partial action")
    S1, pairs = _pair_form(pa)
    G = _action_graph(pa)
    S2, _ = product.build_product(G)
    # the star of (e, s) is (e phi_s, 1)
    psi = [G.edge_id[(e, s, pairs[j][0])] for (e, s), j in zip(pairs, S1.star)]
    return Report(core.isomorphism_checks(S1, S2, psi, pairs.__getitem__))
