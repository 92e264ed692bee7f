"""Proper covers of finite Ehresmann semigroups.

The cover graph has the projections as vertices, one letter per chosen
generator, an identity loop at every vertex, and a letter edge (e,a,f)
exactly when e and f absorb the value of a from the two sides.  Cover
elements are kept symbolic as loop-free canonical paths; the cover itself
is infinite whenever there is at least one generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from . import core, product, relmonoid
from .core import InvariantError, OpTableSemigroup
from .report import Check, FAIL, INCONCLUSIVE, PASS, Report, first_witness
# restrict_path and corestrict_path stay importable from here: they are the
# path-level definition that cover_mult computes on tables
from .resgraph import (FreeMonoid, ResGraph, RestrictionUndefinedError,  # noqa: F401
                       check_axioms, corestrict_path, not_an_edge, restrict_path)


class GeneratorError(ValueError):
    """The chosen set does not generate the semigroup."""


@dataclass(frozen=True)
class CanonicalPath:
    """Either a single vertex (e,) or an alternating tuple
    (e0, a1, e1, ..., an, en) of vertices and letters."""

    entries: tuple

    @classmethod
    def loop_at(cls, e: int) -> "CanonicalPath":
        return cls((e,))

    @property
    def is_loop(self) -> bool:
        return len(self.entries) == 1

    @property
    def d(self) -> int:
        return self.entries[0]

    @property
    def r(self) -> int:
        return self.entries[-1]

    @property
    def length(self) -> int:
        return len(self.entries) // 2

    @property
    def word(self) -> tuple:
        return self.entries[1::2]

    def __str__(self):
        if self.is_loop:
            return f"loop({self.entries[0]})"
        return "(" + ",".join(str(x) for x in self.entries) + ")"


class CoverGraph:
    def __init__(self, S, gens, letters, valuation, proj_list, proj_index,
                 sl, graph, decomp):
        self.S = S
        self.gens = gens
        self.letters = letters
        self.valuation = valuation      # letter -> element of S
        self.proj_list = proj_list      # semilattice vertex -> projection of S
        self.proj_index = proj_index    # projection of S -> semilattice vertex
        self.sl = sl
        self.graph = graph
        self.edges = graph.sorted_edges()   # edge id -> edge
        self.decomp = decomp            # element -> tuple of ('g', x) / ('p', e)


def _generating_closure(S: OpTableSemigroup, gens):
    """Closure of gens under the three operations, remembering one flat word
    of generators and projections for every element reached.

    Semi-naive: a round takes x^+ and x^* of the elements not taken yet,
    then multiplies, in lexicographic order of the elements reached, only
    the pairs with an element reached since the last round's products.  The
    other pairs were multiplied in an earlier round and add nothing, so the
    elements, their order and their words are those of multiplying every
    pair in every round.

    It returns as soon as every element of S has a word.  The keys are
    elements of S (the generators are range-checked by the caller, and
    mult, plus and star of a validated table stay in range), and entries
    are only ever added, never replaced, so a dict with S.n keys is already
    the final one: the same elements, in the same order, with the same
    words.  A set that does not generate never gets there and runs to the
    end."""
    decomp = {g: (("g", g),) for g in gens}
    unary_done = mult_done = 0
    while True:
        size = len(decomp)
        for a in list(decomp)[unary_done:]:
            for v in (S.plus[a], S.star[a]):
                if v not in decomp:
                    decomp[v] = (("p", v),)
        if len(decomp) == S.n:
            return decomp
        unary_done = size
        current = list(decomp)
        new = current[mult_done:]
        for i, a in enumerate(current):
            row, word = S.mult[a], decomp[a]
            for b in new if i < mult_done else current:
                ab = row[b]
                if ab not in decomp:
                    decomp[ab] = word + decomp[b]
                    if len(decomp) == S.n:
                        return decomp
        mult_done = len(current)
        if len(decomp) == size:
            return decomp


def build_cover_graph(S: OpTableSemigroup, gens) -> CoverGraph:
    """Cover graph of S over the generating set gens (element indices).

    The edge-id tables are filled straight from S.  With P the projections
    and g the value of a letter a, the vertices st[v] = (P[v] g)^* and
    pl[v] = (g P[v])^+ are |P| lookups per letter; restricting (d, a, r)
    to v <= d gives (v, a, meet[st[v]][r]), corestricting it to v <= r
    gives (meet[d][pl[v]], a, v), and loops go to loops.  These are
    (v, a, (P[v] g)^* P[r]) and (P[d] (g P[v])^+, a, v) computed in S:
    core.projections makes every x^+ and x^* a projection, and
    projection_semilattice defines meet[i][j] as the vertex of P[i] P[j].

    Edges are scanned in sorted order, each its restriction row before its
    corestriction row, vertices in below order; the first value that is not
    an edge raises RestrictionUndefinedError.
    """
    gens = sorted(set(gens))
    for g in gens:
        if not 0 <= g < S.n:
            raise ValueError(f"generator {g} out of range")
    decomp = _generating_closure(S, gens)
    if len(decomp) != S.n:
        missing = sorted(set(range(S.n)) - set(decomp))
        raise GeneratorError(f"{gens} does not generate: missing {missing}")
    sl, proj_list, proj_index = product.projection_semilattice(S)
    mult, plus, star = S.mult, S.plus, S.star
    n, meet, below = sl.n, sl.meet, sl.below

    letters = [f"x{g}" for g in gens]
    valuation = dict(zip(letters, gens))
    mon = FreeMonoid(tuple(letters))

    # (d, a, r) is an edge when d and r absorb P[d] g P[r].  Edges are
    # listed in sorted order: at each source its loop, then the letters by
    # name.  loop_id[v] is the id of the loop at v, ids[k][d][r] that of
    # (d, letters[k], r) or -1, and letter_of[id] is k, or None for a loop.
    by_name = sorted(range(len(gens)), key=letters.__getitem__)
    ids = [[[-1] * n for _ in range(n)] for _ in gens]
    edges, letter_of, loop_id = [], [], []
    for d, e in enumerate(proj_list):
        loop_id.append(len(edges))
        edges.append((d, (), d))
        letter_of.append(None)
        for k in by_name:
            row = mult[mult[e][gens[k]]]
            for r, f in enumerate(proj_list):
                if plus[row[f]] == e and star[row[f]] == f:
                    ids[k][d][r] = len(edges)
                    edges.append((d, (letters[k],), r))
                    letter_of.append(k)
    st = [[proj_index[star[mult[e][g]]] for e in proj_list] for g in gens]
    pl = [[proj_index[plus[mult[g][e]]] for e in proj_list] for g in gens]

    restrict, corestrict = [], []
    for (d, lab, r), k in zip(edges, letter_of):
        rrow, crow = [-1] * n, [-1] * n
        if k is None:
            for v in below(d):
                rrow[v] = crow[v] = loop_id[v]
        else:
            ids_k, st_k, pl_k, meet_d = ids[k], st[k], pl[k], meet[d]
            for v in below(d):
                rrow[v] = j = ids_k[v][meet[st_k[v]][r]]
                if j < 0:
                    raise not_an_edge(sl, mon, "restriction", (d, lab, r), v,
                                      (v, lab, meet[st_k[v]][r]))
            for v in below(r):
                crow[v] = j = ids_k[meet_d[pl_k[v]]][v]
                if j < 0:
                    raise not_an_edge(sl, mon, "corestriction", (d, lab, r), v,
                                      (meet_d[pl_k[v]], lab, v))
        restrict.append(rrow)
        corestrict.append(crow)
    graph = ResGraph.from_tables(sl, mon, edges, restrict, corestrict)

    return CoverGraph(S, gens, letters, valuation, proj_list, proj_index, sl, graph, decomp)


def _undefined(ent, i, cur, k, kind) -> RestrictionUndefinedError:
    edge = f"({ent[i]},{ent[i + 1]},{ent[i + 2]})"
    if k is None:
        return RestrictionUndefinedError(f"{edge} is not a letter edge")
    return RestrictionUndefinedError(f"{kind} of {edge} to {cur} is undefined")


def cover_mult(cg: CoverGraph, u: CanonicalPath, v: CanonicalPath) -> CanonicalPath:
    """Corestrict u and restrict v to the meet of u.r and v.d, then join them.

    Folds over the entries with the graph's edge-id tables: each letter edge
    is moved to the current vertex and the next vertex is read off the edge
    it becomes.  Identity loops never appear in canonical forms, so the
    joined entries are already canonical.
    """
    ue, ve = u.entries, v.entries
    n = len(ue)
    out = list(ue)
    out.extend(ve[1:])
    meet = cur = out[n - 1] = cg.sl.meet[ue[-1]][ve[0]]
    ids, edges = cg.graph.edge_id, cg.edges
    table = cg.graph.corestrict_table
    for i in range(n - 3, -1, -2):
        k = ids.get((ue[i], (ue[i + 1],), ue[i + 2]))
        if k is None or (j := table[k][cur]) < 0:
            raise _undefined(ue, i, cur, k, "corestriction")
        out[i] = cur = edges[j][0]
    cur = meet
    table = cg.graph.restrict_table
    for i in range(1, len(ve), 2):
        k = ids.get((ve[i - 1], (ve[i],), ve[i + 1]))
        if k is None or (j := table[k][cur]) < 0:
            raise _undefined(ve, i - 1, cur, k, "restriction")
        out[n + i] = cur = edges[j][2]
    return CanonicalPath(tuple(out))


def cover_plus_star(cg: CoverGraph, u: CanonicalPath):
    return CanonicalPath.loop_at(u.d), CanonicalPath.loop_at(u.r)


def phi(cg: CoverGraph, u: CanonicalPath) -> int:
    """The covering morphism: alternating product of vertices and generator
    values in S."""
    m, proj, val = cg.S.mult, cg.proj_list, cg.valuation
    ent = u.entries
    acc = proj[ent[0]]
    for i in range(1, len(ent), 2):
        acc = m[m[acc][val[ent[i]]]][proj[ent[i + 1]]]
    return acc


def canonical_preimage(cg: CoverGraph, s: int) -> CanonicalPath:
    """A canonical path mapping to s under phi: the loop at s when s is a
    projection, otherwise the cover product of the stored word for s with
    each projection read as its loop and each generator as the maximal edge
    of its letter.

    phi is a (2,1,1)-morphism onto S, so on an Ehresmann semigroup that
    product maps back to s; InvariantError says that it does not.
    """
    if s in cg.proj_index:
        return CanonicalPath.loop_at(cg.proj_index[s])

    def part(tag, v):
        if tag == "p":
            return CanonicalPath.loop_at(cg.proj_index[v])
        d, (letter,), r = max_edge_for_letter(cg, f"x{v}")
        return CanonicalPath((d, letter, r))

    u = reduce(lambda a, b: cover_mult(cg, a, b), (part(*x) for x in cg.decomp[s]))
    back = phi(cg, u)
    if back != s:
        raise InvariantError(f"preimage {u} of {s} maps to {back}")
    return u


def enumerate_canonical(cg: CoverGraph, max_len: int):
    """All canonical paths of length up to max_len (loops have length 0), by
    length, then by prefix, then by last edge: each form of one length is
    extended by every letter edge out of its end, and no two are equal."""
    steps = {}
    for d, lab, r in cg.edges:
        if lab:
            steps.setdefault(d, []).append((lab[0], r))
    forms = core.saturate([(e,) for e in range(cg.sl.n)],
                          lambda u: [u + step for step in steps.get(u[-1], ())], max_len)
    return list(map(CanonicalPath, forms))


def max_edge_for_letter(cg: CoverGraph, letter: str):
    g = cg.valuation[letter]
    return (cg.proj_index[cg.S.plus[g]], (letter,), cg.proj_index[cg.S.star[g]])


def _pairwise_mult_failures(cg: CoverGraph, forms, phis):
    """(u, v) with phi(u v) != phi(u) phi(v), over all pairs of forms in
    enumeration order (u first)."""
    mult = cg.S.mult
    return ((str(u), str(v)) for u, fu in zip(forms, phis) for v, fv in zip(forms, phis)
            if phi(cg, cover_mult(cg, u, v)) != mult[fu][fv])


def _unfactored_forms(cg: CoverGraph, forms):
    """The first form, in order, that is not the product of its edges (a
    generator of at most one witness), or the exception of that product.

    forms, as enumerate_canonical lists them, are paths of letter edges with
    every prefix before its extensions, so the first form that is not its
    prefix times its last edge is the first that is not the product of its
    edges multiplied out left to right, and a product that raises is met at
    the same form.
    """
    for u in forms:
        ent = u.entries
        if len(ent) > 3 and cover_mult(cg, CanonicalPath(ent[:-2]),
                                       CanonicalPath(ent[-3:])) != u:
            yield (str(u),)
            return


def _saturated_pass(cg: CoverGraph, len_bound: int) -> bool:
    """Whether phi preserves u^+, u^* and every product u v of canonical
    forms up to len_bound, read off the forms' signature states; see
    verify_cover, which calls it only when S is associative and the cover
    graph axioms pass."""
    mult, plus, star = cg.S.mult, cg.S.plus, cg.S.star
    proj, val, edges = cg.proj_list, cg.valuation, cg.edges
    n, below, meet = cg.sl.n, cg.sl.below, cg.sl.meet
    rt, ct = cg.graph.restrict_table, cg.graph.corestrict_table
    # a letter edge (d, a, e) extends a form ending at d to the right and one
    # starting at e to the left; each move lists, for every vertex m below
    # the new end, where the edge moved to m meets the old form
    extend, prepend = [[] for _ in range(n)], [[] for _ in range(n)]
    for j, (d, lab, e) in enumerate(edges):
        if lab:
            va = val[lab[0]]
            extend[d].append((e, va, [(m, edges[ct[j][m]][0]) for m in below(e)]))
            prepend[e].append((d, va, [(m, edges[rt[j][m]][2]) for m in below(d)]))

    def row(entries):
        out = [-1] * n
        for m, x in entries:
            out[m] = x
        return tuple(out)

    def left_steps(state):
        d, f, r, C = state
        for e, va, moved in extend[r]:
            yield (d, mult[mult[f][va]][proj[e]], e,
                   row((m, mult[mult[C[s]][va]][proj[m]]) for m, s in moved))

    def right_steps(state):
        f, d, R = state
        for e, va, moved in prepend[d]:
            yield (mult[mult[proj[e]][va]][f], e,
                   row((m, mult[mult[proj[m]][va]][R[t]]) for m, t in moved))

    loops = [row((m, proj[m]) for m in below(e)) for e in range(n)]
    left = core.saturate([(e, proj[e], e, loops[e]) for e in range(n)], left_steps, len_bound)
    if any(proj[d] != plus[f] or proj[r] != star[f] for d, f, r, _ in left):
        return False
    right = core.saturate([(proj[e], e, loops[e]) for e in range(n)], right_steps, len_bound)
    return all(mult[C[m]][R[m]] == mult[fu][fv]
               for fu, r, C in {state[1:] for state in left} for fv, d, R in right
               for m in (meet[r][d],))


def verify_cover(S: OpTableSemigroup, gens, len_bound: int = 3) -> Report:
    """End-to-end verification of the cover over the given generators.

    Checks, on all canonical forms up to len_bound: that phi is a
    (2,1,1)-morphism, projection-separating and surjective (by round trips
    through canonical_preimage); that every letter edge is bounded by the
    letter's maximal edge; that the common-upper-bound properness criterion
    holds, which makes sigma classes the label fibers; and that every form
    is the product of its edges.

    When S is associative and the cover graph axioms pass, the unary, the
    multiplication and the factor checks are read off signature states
    (_saturated_pass) and PASS when every state does.  Otherwise, or when a
    state fails, the forms are listed (enumerate_canonical) and checked one
    by one and pair by pair, one cover product per pair and per form, so
    every witness and exception is that of the products themselves.  The
    states give the listing's verdict at every len_bound:

    States.  The left state of a form u is (u.d, phi u, u.r, C[u]) and the
    right state of v is (phi v, v.d, R[v]), where C[u][m] = phi(u loop(m))
    for m <= u.r and R[v][m] = phi(loop(m) v) for m <= v.d.  u^+ and u^*
    are the loops at u.d and u.r, so the unary check reads the left state.
    u v corestricts u and restricts v to m = meet(u.r, v.d) and joins them
    at m, and phi alternates vertex projections, which are idempotent, and
    generator values; so when S is associative phi(u v) = C[u][m] R[v][m],
    and the multiplication check reads the two states.

    Steps.  A form of length k + 1 is u j, a form u of length k followed by
    a letter edge j = (u.r, a, e), and also j' v, a letter edge
    j' = (d, a', v.d) followed by a form v of length k.  Its state is one
    step from u's (v's), read off that state alone:
    - phi(u j) = phi(u) val[a] proj[e], since phi is a left fold, and
      C[u j][m] = C[u][s] val[a] proj[m], where (s, a, m) is j corestricted
      to m: u j loop(m) corestricts j to m and then u to s;
    - phi(j' v) = proj[d] val[a'] phi(v) and R[j' v][m] =
      proj[m] val[a'] R[v][t], where (m, a', t) is j' restricted to m, by
      the mirror argument and associativity.
    The gate keeps every step defined: corestriction_total gives (s, a, m)
    for every m <= e, and CR1 puts s below u.r, where C[u] is defined;
    restriction_total and R1 do the same for t <= v.d.  So no product the
    three checks read is undefined, and none of them raises
    RestrictionUndefinedError.

    Closure.  The states of the forms of length k + 1 are the steps of the
    states of the forms of length k.  So a breadth-first search from the
    loops that keeps only new states reaches, at level k, exactly the states
    of the forms up to length k.  When a level adds no state, the next one
    would step only from states already stepped, so no later level adds one
    either, and stopping there gives the states of the forms up to every
    len_bound from that level on.  The states are finitely many, so the
    search ends after at most as many levels as there are states, whatever
    len_bound is.

    Factors.  u = p c, with c the last edge, is p times c when p
    corestricted to x = p.r is p and c restricted to x = c.d is c.  CR2
    and R2 say that an edge corestricted to its own target, or restricted
    to its own source, is itself; so p corestricted to x is p, edge by edge
    from its last, and c restricted to x is c.  Under the gate every form
    factors, and the factor check passes at every len_bound.
    """
    cg = build_cover_graph(S, gens)
    checks = []

    graph_report = check_axioms(cg.graph, max_chain=2)
    checks.append(Check("cover_graph_axioms", graph_report.status,
                        tuple(c.name for c in graph_report.failures()) or None))

    if (graph_report.ok and core.verify_ehresmann(S)["associativity"].ok
            and _saturated_pass(cg, len_bound)):
        forms = None
        checks += [Check("phi_preserves_unary_operations", PASS),
                   Check("phi_preserves_multiplication", PASS)]
    else:
        forms = enumerate_canonical(cg, len_bound)
        phis = [phi(cg, u) for u in forms]
        proj = cg.proj_list
        checks.append(first_witness("phi_preserves_unary_operations", (
            (str(u),) for u, fu in zip(forms, phis)
            if proj[u.d] != S.plus[fu] or proj[u.r] != S.star[fu])))
        checks.append(first_witness("phi_preserves_multiplication",
                                    _pairwise_mult_failures(cg, forms, phis)))
    # phi(loop e) = proj[e], and proj lists the distinct projections of S
    checks.append(Check("phi_projection_separating", PASS))
    for s in range(S.n):
        canonical_preimage(cg, s)   # raises InvariantError unless phi maps it to s
    checks.append(Check("phi_surjective_via_preimages", PASS))

    # the cover graph's maps are total, so its edge orders are defined
    ids, down = cg.graph.edge_id, product.edge_orders(cg.graph)[2]

    def below_letter_maximum(i, c):
        top = ids.get(max_edge_for_letter(cg, c[1][0]))
        return top is not None and i in down[top]

    checks.append(first_witness("edges_below_letter_maximum", (
        (c,) for i, c in enumerate(cg.edges)
        if c[1] and not below_letter_maximum(i, c))))

    ok = product.check_properness_criterion(cg.graph)
    checks.append(Check("properness_criterion", PASS if ok else FAIL))

    # sigma iff labels, constructively: each canonical form is the product
    # of its edges, and same-word forms are chained through the letter
    # maxima found above.
    checks.append(Check("forms_factor_through_edges", PASS) if forms is None else
                  first_witness("forms_factor_through_edges", _unfactored_forms(cg, forms)))
    return Report(checks)


def fes_witness_check(max_ground: int = 3) -> Check:
    """Search the relation monoids for an interpretation of two letters
    where the terms x y^+ and (x y)^+ x share their plus but differ in
    their star, certifying that the two terms are distinct as elements of
    the free algebra while sigma-related.  PASS with the witness (n, x, y),
    x and y relations on n points, or INCONCLUSIVE when no B(n) with
    n <= max_ground holds one."""
    for n in range(2, max_ground + 1):
        for xb in range(1 << (n * n)):
            x = relmonoid.Rel(n, xb)
            for yb in range(1 << (n * n)):
                y = relmonoid.Rel(n, yb)
                left = relmonoid.compose(x, relmonoid.dom(y))
                right = relmonoid.compose(relmonoid.dom(relmonoid.compose(x, y)), x)
                if (relmonoid.dom(left) == relmonoid.dom(right)
                        and relmonoid.ran(left) != relmonoid.ran(right)):
                    return Check("fes_witness", PASS, (n, x, y))
    return Check("fes_witness", INCONCLUSIVE)
