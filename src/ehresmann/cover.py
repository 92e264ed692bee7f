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
                       check_axioms, corestrict_path, restrict_path)


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
    pair in every round."""
    decomp = {g: (("g", g),) for g in gens}
    unary_done = mult_done = 0
    while True:
        size = len(decomp)
        for a in list(decomp)[unary_done:]:
            for v in (S.plus[a], S.star[a]):
                if v not in decomp:
                    decomp[v] = (("p", v),)
        unary_done = size
        current = list(decomp)
        new = current[mult_done:]
        for i, a in enumerate(current):
            row, word = S.mult[a], decomp[a]
            for b in new if i < mult_done else current:
                ab = row[b]
                if ab not in decomp:
                    decomp[ab] = word + decomp[b]
        mult_done = len(current)
        if len(decomp) == size:
            return decomp


def build_cover_graph(S: OpTableSemigroup, gens) -> CoverGraph:
    """Cover graph of S over the generating set gens (element indices)."""
    gens = sorted(set(gens))
    for g in gens:
        if not 0 <= g < S.n:
            raise ValueError(f"generator {g} out of range")
    decomp = _generating_closure(S, gens)
    if len(decomp) != S.n:
        missing = sorted(set(range(S.n)) - set(decomp))
        raise GeneratorError(f"{gens} does not generate: missing {missing}")
    sl, proj_list, proj_index = product.projection_semilattice(S)

    letters = [f"x{g}" for g in gens]
    valuation = dict(zip(letters, gens))
    mon = FreeMonoid(tuple(letters))

    edges = set()
    for i in range(sl.n):
        edges.add((i, (), i))
    for letter, g in valuation.items():
        for i, e in enumerate(proj_list):
            for j, f in enumerate(proj_list):
                w = S.mult[S.mult[e][g]][f]
                if S.plus[w] == e and S.star[w] == f:
                    edges.add((i, (letter,), j))

    def rule(c, v, end):
        # restriction (end 0) moves the source down to v, corestriction
        # (end 2) the target
        d0, lab, r0 = c
        if not lab:
            return (v, (), v)
        a, e = valuation[lab[0]], proj_list[v]
        if end == 0:
            return (v, lab, proj_index[S.mult[S.star[S.mult[e][a]]][proj_list[r0]]])
        return (proj_index[S.mult[proj_list[d0]][S.plus[S.mult[a][e]]]], lab, v)

    # edge by edge, the restrictions then the corestrictions, up to the first
    # value that is not an edge
    maps = {}, {}
    keys = [(c, end, v) for c in sorted(edges) for end in (0, 2) for v in sl.below(c[end])]
    for c, end, v in keys:
        maps[end // 2][(c, v)] = out = rule(c, v, end)
        if out not in edges:
            break
    graph = ResGraph(sl, mon, edges, *maps)
    if out not in edges:
        # raises RestrictionUndefinedError, naming the value
        (graph.restrict if end == 0 else graph.corestrict)(c, v)

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
    extended by every letter edge out of its end."""
    steps = {}
    for d, lab, r in cg.edges:
        if lab:
            steps.setdefault(d, []).append((lab[0], r))
    level = [CanonicalPath.loop_at(e) for e in range(cg.sl.n)]
    out = list(level)
    for _ in range(max_len):
        level = [CanonicalPath(u.entries + step)
                 for u in level for step in steps.get(u.r, ())]
        out += level
    return out


def max_edge_for_letter(cg: CoverGraph, letter: str):
    g = cg.valuation[letter]
    return (cg.proj_index[cg.S.plus[g]], (letter,), cg.proj_index[cg.S.star[g]])


def _pairwise_mult_failures(cg: CoverGraph, forms, phis):
    """(u, v) with phi(u v) != phi(u) phi(v), over all pairs of forms in
    enumeration order (u first)."""
    mult = cg.S.mult
    return ((str(u), str(v)) for u, fu in zip(forms, phis) for v, fv in zip(forms, phis)
            if phi(cg, cover_mult(cg, u, v)) != mult[fu][fv])


def _mult_failures(cg: CoverGraph, forms, phis):
    """Failing pairs led by the first pair of _pairwise_mult_failures, or
    the same exception, from N |P| cover products (see verify_cover for the
    identity).

    The check on (u, v) reads only the signatures (phi u, u.r, C[u]) and
    (phi v, v.d, R[v]), so each pair of signatures is checked once, at the
    first index of each.  When S is not associative, or some u loop(m) or
    loop(m) v is undefined, every pair is checked in order: (u, loop(m)) is
    itself a pair, so the exception comes from the same first pair.
    """
    if not core.verify_ehresmann(cg.S)["associativity"].ok:
        return _pairwise_mult_failures(cg, forms, phis)
    below = cg.sl.below
    loops = [CanonicalPath.loop_at(m) for m in range(cg.sl.n)]

    def first_of_signature(end, times_loop):
        first = {}
        for i, (u, fu) in enumerate(zip(forms, phis)):
            row = [-1] * cg.sl.n
            for m in below(u.entries[end]):
                row[m] = phi(cg, times_loop(u, loops[m]))
            first.setdefault((fu, u.entries[end], tuple(row)), i)
        return first

    try:
        left = first_of_signature(-1, lambda u, loop: cover_mult(cg, u, loop))
        right = first_of_signature(0, lambda v, loop: cover_mult(cg, loop, v))
    except RestrictionUndefinedError:
        return _pairwise_mult_failures(cg, forms, phis)
    # both dicts list their signatures by first index, so the first failing
    # pair met here is the least (u index, v index)
    meet, mult = cg.sl.meet, cg.S.mult
    return ((str(forms[i]), str(forms[j]))
            for (fu, r, C), i in left.items() for (fv, d, R), j in right.items()
            if mult[C[meet[r][d]]][R[meet[r][d]]] != mult[fu][fv])


def _unfactored_forms(cg: CoverGraph, forms):
    """The forms, in order, that are not the product of their edges.

    forms lists every prefix before its extensions, so the first form that
    is not its prefix times its last edge is the first that is not the
    product of its edges multiplied out left to right, and a product that
    raises is met at the same form.
    """
    for u in forms:
        ent = u.entries
        if len(ent) > 3 and cover_mult(cg, CanonicalPath(ent[:-2]),
                                       CanonicalPath(ent[-3:])) != u:
            yield (str(u),)


def verify_cover(S: OpTableSemigroup, gens, len_bound: int = 3) -> Report:
    """End-to-end verification of the cover over the given generators.

    Checks, on all canonical forms up to len_bound: that phi is a
    (2,1,1)-morphism, projection-separating and surjective (by round trips
    through canonical_preimage); that every letter edge is bounded by the
    letter's maximal edge; and that the common-upper-bound properness
    criterion holds, which makes sigma classes the label fibers.

    u v corestricts u and restricts v to m = meet(u.r, v.d) and joins them
    at m; phi alternates vertex projections, which are idempotent, and
    generator values.  So when S is associative
    phi(u v) = C[u][m] R[v][m], with C[u][m] = phi(u loop(m)) for m <= u.r
    and R[v][m] = phi(loop(m) v) for m <= v.d, and multiplication is checked
    with N |P| cover products for N forms and |P| projections.  When S is
    not associative, or a product with a loop is undefined, it falls back to
    all N^2 pairs; the verdict, witness and any exception are the same
    either way.
    """
    cg = build_cover_graph(S, gens)
    checks = []

    graph_report = check_axioms(cg.graph, max_chain=2)
    checks.append(Check("cover_graph_axioms", graph_report.status,
                        tuple(c.name for c in graph_report.failures()) or None))

    forms = enumerate_canonical(cg, len_bound)
    phis = [phi(cg, u) for u in forms]

    def unary_preserved(u, fu):
        up, us = cover_plus_star(cg, u)
        return phi(cg, up) == S.plus[fu] and phi(cg, us) == S.star[fu]

    checks.append(first_witness("phi_preserves_unary_operations", (
        (str(u),) for u, fu in zip(forms, phis) if not unary_preserved(u, fu))))
    checks.append(first_witness("phi_preserves_multiplication",
                                _mult_failures(cg, forms, phis)))
    checks.append(first_witness("phi_projection_separating", (
        (e,) for e in range(cg.sl.n)
        if phi(cg, CanonicalPath.loop_at(e)) != cg.proj_list[e]
        or cg.proj_list[e] in cg.proj_list[:e])))
    for s in range(S.n):
        canonical_preimage(cg, s)   # raises InvariantError unless phi maps it to s
    checks.append(Check("phi_surjective_via_preimages", PASS))

    def below_letter_maximum(c):
        top = max_edge_for_letter(cg, c[1][0])
        return top in cg.graph.edges and product.edge_le(cg.graph, c, top)

    checks.append(first_witness("edges_below_letter_maximum", (
        (c,) for c in cg.graph.sorted_edges()
        if c[1] and not below_letter_maximum(c))))

    ok = product.check_properness_criterion(cg.graph)
    checks.append(Check("properness_criterion", PASS if ok else FAIL))

    # sigma iff labels, constructively: each canonical form is the product
    # of its edges, and same-word forms are chained through the letter
    # maxima found above.
    checks.append(first_witness("forms_factor_through_edges", _unfactored_forms(cg, forms)))
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
