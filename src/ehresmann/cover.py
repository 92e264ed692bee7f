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
    extended by every letter edge out of its end, and no two are equal.
    verify_cover lists no form: its search reaches the forms' states in
    this order instead."""
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


def _state_checks(cg: CoverGraph, len_bound: int):
    """The unary and the multiplication checks off the states of the forms
    up to len_bound, with representatives of failing states as witnesses
    (see verify_cover, which calls it under its gate).  A letter edge
    (d, a, e) corestricted to m <= e starts below d (CR1), and restricted to
    x <= d ends below e (R1); InvariantError says that one does not."""
    mult, plus, star, proj, edges = cg.S.mult, cg.S.plus, cg.S.star, cg.proj_list, cg.edges
    n, below, meet = cg.sl.n, cg.sl.below, cg.sl.meet
    rt, ct = cg.graph.restrict_table, cg.graph.corestrict_table

    def moved(table, j, x, end, bound):
        i = table[j][x]
        if i < 0 or meet[edges[i][end]][bound] != edges[i][end]:
            raise InvariantError(f"{edges[j]} moved to {x} is not an edge below {bound}")
        return edges[i][end]

    out = [[] for _ in range(n)]
    for j, (d, lab, e) in enumerate(edges):
        if lab:
            forth = [-1] * n
            for x in below(d):
                forth[x] = moved(rt, j, x, 2, e)
            out[d].append((lab[0], e, cg.valuation[lab[0]],
                           [(m, moved(ct, j, m, 0, d)) for m in below(e)], forth))

    def moves(state):
        d, f, r, C, R, E = state
        for a, e, va, back, forth in out[r]:
            C2, R2, E2 = [-1] * n, list(R), list(E)
            for m, s in back:
                C2[m] = mult[mult[C[s]][va]][proj[m]]
            for m in below(d):
                E2[m] = t = forth[E[m]]
                R2[m] = mult[mult[R[m]][va]][proj[t]]
            yield (a, e), (d, mult[mult[f][va]][proj[e]], e, tuple(C2), tuple(R2), tuple(E2))

    def down(e, row):
        return tuple(row[m] if meet[m][e] == m else -1 for m in range(n))

    starts = {(e, proj[e], e, down(e, proj), down(e, proj), down(e, range(n))): (e,)
              for e in range(n)}
    states = core.saturate(starts, lambda s: [t for _, t in moves(s)], len_bound)
    unary = [s for s in states if proj[s[0]] != plus[s[1]] or proj[s[2]] != star[s[1]]][:1]
    left, right = {}, {}
    for s in states:
        left.setdefault(s[1:4], s)
        right.setdefault((s[1], s[0], s[4]), s)
    pair = next(([u, v] for (fu, r, C), u in left.items() for (fv, d, R), v in right.items()
                 for m in (meet[r][d],) if mult[C[m]][R[m]] != mult[fu][fv]), [])
    if unary or pair:
        rep = core.first_paths(states, moves, starts)

    def check(name, failing):
        if not failing:
            return Check(name, PASS)
        return Check(name, FAIL, tuple(str(CanonicalPath(rep[s])) for s in failing))

    return [check("phi_preserves_unary_operations", unary),
            check("phi_preserves_multiplication", pair)]


def verify_cover(S: OpTableSemigroup, gens, len_bound: int = 3) -> Report:
    """End-to-end verification of the cover over the given generators.

    Checks, on all canonical forms up to len_bound: that phi is a
    (2,1,1)-morphism, projection-separating and surjective (by round trips
    through canonical_preimage); that every letter edge is bounded by the
    letter's maximal edge; that the common-upper-bound properness criterion
    holds, which makes sigma classes the label fibers; and that every form
    is the product of its edges.

    Gate.  The unary, the multiplication and the factor checks are decided
    when the cover graph axioms pass and S is associative.  Otherwise each
    is INCONCLUSIVE, with the witness ("cover graph axioms fail", <the
    names of the failing checks>) or ("S is not associative",), as
    resgraph.path_laws answers.  Under the gate they read one state per
    form (_state_checks); no form is listed and no cover product made.

    State.  The state of a form u is (u.d, phi u, u.r, C[u], R[u], E[u]),
    rows with -1 off the vertices m they are defined at: C[u][m] =
    phi(u loop(m)) for m <= u.r, and R[u][m] = phi(loop(m) u) and E[u][m]
    = (u restricted to m).r for m <= u.d.  u^+ and u^* are the loops at u.d
    and u.r, so the unary check reads (u.d, phi u, u.r).  u v corestricts u
    and restricts v to m = meet(u.r, v.d) and joins them at m, and phi
    alternates vertex projections, which are idempotent, and generator
    values; so when S is associative phi(u v) = C[u][m] R[v][m], and the
    multiplication check reads the left signature (phi u, u.r, C[u]) of u
    and the right signature (phi v, v.d, R[v]) of v.

    Step.  A form of length k + 1 is u j, a form u of length k followed by
    a letter edge j = (u.r, a, e), and its state is one step from u's.
    Each part is a left fold, like phi(u j) = phi(u) val[a] proj[e]:
    - C[u j][m] = C[u][s] val[a] proj[m], where (s, a, m) is j
      corestricted to m: u j loop(m) corestricts j to m and then u to s;
    - u j restricted to m is u restricted to m, which ends at t = E[u][m],
      followed by j restricted to t, say (t, a, t'); so E[u j][m] = t' and
      R[u j][m] = R[u][m] val[a] proj[t'].
    The gate keeps every step defined: corestriction_total gives (s, a, m)
    for every m <= e, and CR1 puts s below u.r, where C[u] is defined;
    restriction_total gives (t, a, t') as R1 keeps t below u.r, and R1 puts
    t' below e.

    Closure.  The states of the forms of length k + 1 are the steps of the
    states of the forms of length k.  So core.saturate, a breadth-first
    search from the loops that keeps only new states, reaches at level k
    exactly the states of the forms up to length k.  When a level adds no
    state, the next one would step only from states already stepped, so no
    later level adds one either, and stopping there gives the states of
    the forms up to every len_bound from that level on.  The states are
    finitely many, so the search ends after at most as many levels as
    there are states, whatever len_bound is.

    Witnesses.  The representative of a state is the first form with it in
    enumerate_canonical's order, by length, then prefix, then last edge;
    core.first_paths rebuilds them, only when a check fails, and they come
    in the order of the states.  The unary witness is the representative
    of the first failing state.  The first form with a signature is the
    representative of the first state with it, so the first failing pair
    of forms, u first, is (rep of the first left signature that fails with
    some right signature, rep of the first right signature it fails with).

    Factors.  u = p c, with c the last edge, is p times c when p
    corestricted to x = p.r is p and c restricted to x = c.d is c.  CR2
    and R2 say that an edge corestricted to its own target, or restricted
    to its own source, is itself; so p corestricted to x is p, edge by edge
    from its last, and c restricted to x is c.  Under the gate every form
    factors, and the factor check passes at every len_bound.
    """
    cg = build_cover_graph(S, gens)
    graph_report = check_axioms(cg.graph)
    failing = tuple(c.name for c in graph_report.failures())
    checks = [Check("cover_graph_axioms", graph_report.status, failing or None)]
    off_gate = (("cover graph axioms fail",) + failing if failing
                else None if core.verify_ehresmann(S)["associativity"].ok
                else ("S is not associative",))
    checks += _state_checks(cg, len_bound) if off_gate is None else [
        Check(name, INCONCLUSIVE, off_gate)
        for name in ("phi_preserves_unary_operations", "phi_preserves_multiplication")]
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
    checks.append(Check("forms_factor_through_edges", INCONCLUSIVE if off_gate else PASS,
                        off_gate))
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
