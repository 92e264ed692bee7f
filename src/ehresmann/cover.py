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


def _form_index(forms):
    """Index of every form by its entries, so that a form's prefix
    (entries[:-2]) and suffix (entries[2:]) are found in one lookup: both
    are forms one letter shorter, listed before it."""
    return {u.entries: i for i, u in enumerate(forms)}


def _phis(cg: CoverGraph, forms, index):
    """phi of every form, each from its prefix: phi is a left fold, so
    phi(u) = phi(prefix) val[a] proj[e] for u = prefix (a, e), exactly, on
    any table.  index is _form_index(forms)."""
    m, proj, val = cg.S.mult, cg.proj_list, cg.valuation
    out = []
    for u in forms:
        ent = u.entries
        out.append(proj[ent[0]] if len(ent) == 1
                   else m[m[out[index[ent[:-2]]]][val[ent[-2]]]][proj[ent[-1]]])
    return out


def _signature_rows(cg: CoverGraph, forms, index, end):
    """The rows C[u] (end -1) or R[u] (end 0) of every form, as tuples with
    -1 off the down-set of u's range (domain); see _signatures.

    Each row is one table step from the row of a form one letter shorter
    (forms are paths of the graph's letter edges, as enumerate_canonical
    lists them).  A step is undefined when its table entry is -1 or the
    vertex it moves to has -1 in the shorter row; that entry is then phi of
    the cover product itself, which raises RestrictionUndefinedError
    exactly where the product does.
    """
    mult, proj, val = cg.S.mult, cg.proj_list, cg.valuation
    below, ids, edges = cg.sl.below, cg.graph.edge_id, cg.edges
    loops = [CanonicalPath.loop_at(m) for m in range(cg.sl.n)]
    # C moves the last edge by corestriction and reads its new source, R
    # the first edge by restriction and reads its new target
    table, near = (cg.graph.corestrict_table, 0) if end else (cg.graph.restrict_table, 2)
    rows = []
    for u in forms:
        ent = u.entries
        row = [-1] * cg.sl.n
        if len(ent) == 1:
            for m in below(ent[0]):
                row[m] = proj[m]
        else:
            d, a, r = ent[-3:] if end else ent[:3]
            moved, va = table[ids[(d, (a,), r)]], val[a]
            shorter = rows[index[ent[:-2] if end else ent[2:]]]
            for m in below(ent[end]):
                j = moved[m]
                x = -1 if j < 0 else shorter[edges[j][near]]
                if x < 0:
                    row[m] = phi(cg, cover_mult(cg, u, loops[m]) if end
                                 else cover_mult(cg, loops[m], u))
                elif end:
                    row[m] = mult[mult[x][va]][proj[m]]
                else:
                    row[m] = mult[mult[proj[m]][va]][x]
        rows.append(tuple(row))
    return rows


def _signatures(cg: CoverGraph, forms, phis, index):
    """(left, right): the signatures (phi u, u.r, C[u]) and (phi v, v.d,
    R[v]) of the forms, each mapped to its first index in forms, or None
    where _mult_failures checks every pair.  index is _form_index(forms).

    C[u][m] = phi(u loop(m)) for m <= u.r and R[v][m] = phi(loop(m) v) for
    m <= v.d (see verify_cover).  The rows are built from the forms one
    letter shorter (_signature_rows):

    - C[loop e][m] = R[loop e][m] = proj[m];
    - C[u][m] = C[prefix][m'] val[a] proj[m], where u ends with the edge
      (e, a, u.r) and m' is the source of its corestriction to m: u loop(m)
      corestricts that edge to m and then the prefix to m', which is
      prefix loop(m').  phi is a left fold, so this holds on any table;
    - R[v][m] = proj[m] val[a] R[suffix][r'], where v starts with the edge
      (v.d, a, e) and r' is the target of its restriction to m, by the
      mirror argument and associativity.

    Where a step is undefined the entry is phi of the product itself, so
    every entry is phi(u loop(m)) or phi(loop(m) v), and the rows raise
    exactly where one of those products does.  None when S is not
    associative or a row raises: then every pair is checked in order, and
    (u, loop(m)) is itself a pair, so the exception comes from the same
    first pair.
    """
    if not core.verify_ehresmann(cg.S)["associativity"].ok:
        return None

    def first_of_signature(end):
        first = {}
        for i, (u, fu, row) in enumerate(zip(forms, phis,
                                              _signature_rows(cg, forms, index, end))):
            first.setdefault((fu, u.entries[end], row), i)
        return first

    try:
        return first_of_signature(-1), first_of_signature(0)
    except RestrictionUndefinedError:
        return None


def _mult_failures(cg: CoverGraph, forms, phis, index):
    """Failing pairs led by the first pair of _pairwise_mult_failures, or
    the same exception, from one table step per form and projection.

    The check on (u, v) reads only the signatures of u and v (_signatures),
    so each pair of signatures is checked once, at the first index of each.
    Every row entry equals phi(u loop(m)) or phi(loop(m) v), and every pair
    is checked exactly when S is not associative or one of those products
    is undefined, so the verdict, the witness and any exception are those
    of making each of those products with cover_mult.
    """
    signatures = _signatures(cg, forms, phis, index)
    if signatures is None:
        return _pairwise_mult_failures(cg, forms, phis)
    # both dicts list their signatures by first index, so the first failing
    # pair met here is the least (u index, v index)
    left, right = signatures
    meet, mult = cg.sl.meet, cg.S.mult
    return ((str(forms[i]), str(forms[j]))
            for (fu, r, C), i in left.items() for (fv, d, R), j in right.items()
            if mult[C[meet[r][d]]][R[meet[r][d]]] != mult[fu][fv])


def _unfactored_forms(cg: CoverGraph, forms):
    """The first form, in order, that is not the product of its edges (a
    generator of at most one witness), or the exception of that product.

    forms, as enumerate_canonical lists them, are paths of letter edges with
    every prefix before its extensions, so the first form that is not its
    prefix times its last edge is the first that is not the product of its
    edges multiplied out left to right, and a product that raises is met at
    the same form.

    For u = prefix c, with x the source of c, that product corestricts the
    prefix to x and restricts c to x.  The check stops at its first witness,
    so every earlier form factors, the prefix included: corestricting the
    prefix's own prefix to its range gives it back.  So corestricting the
    prefix to x is the identity as soon as its last edge, corestricted to
    x, is that edge again, and then u factors exactly when c restricted to
    x ends at u.r: two table steps.  Where the first step gives another
    edge or is undefined, or the second is undefined, the product is made
    with cover_mult, which gives the same answer or raises the same error.
    """
    ids, edges = cg.graph.edge_id, cg.edges
    restrict, corestrict = cg.graph.restrict_table, cg.graph.corestrict_table
    for u in forms:
        ent = u.entries
        if len(ent) <= 3:
            continue
        k = ids[(ent[-5], (ent[-4],), ent[-3])]
        c = ids[(ent[-3], (ent[-2],), ent[-1])]
        x = ent[-3]
        if corestrict[k][x] == k and restrict[c][x] >= 0:
            factors = edges[restrict[c][x]][2] == ent[-1]
        else:
            factors = cover_mult(cg, CanonicalPath(ent[:-2]), CanonicalPath(ent[-3:])) == u
        if not factors:
            yield (str(u),)
            return


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
    and R[v][m] = phi(loop(m) v) for m <= v.d.  When S is not associative,
    or a product with a loop is undefined, it falls back to all N^2 pairs;
    the verdict, witness and any exception are the same either way.

    Every per-form quantity is one table step from a form one letter
    shorter, found by its entries; u = prefix (a, u.r) = (u.d, a, e) suffix:
    - phi(u) = phi(prefix) val[a] proj[u.r] (_phis);
    - C[u][m] = C[prefix][m'] val[a] proj[m], m' the source of u's last
      edge corestricted to m, and R[u][m] = proj[m] val[a] R[suffix][r'],
      r' the target of u's first edge restricted to m (_signatures);
    - u is its prefix times its last edge c when the prefix's last edge
      corestricted to c's source is that edge and c restricted to its own
      source ends at u.r (_unfactored_forms);
    - u^+ and u^* are the loops at u.d and u.r, with images proj[u.d] and
      proj[u.r].
    Where a step is undefined, the product is made with cover_mult, so
    every witness and exception is that of the products themselves.
    """
    cg = build_cover_graph(S, gens)
    checks = []

    graph_report = check_axioms(cg.graph, max_chain=2)
    checks.append(Check("cover_graph_axioms", graph_report.status,
                        tuple(c.name for c in graph_report.failures()) or None))

    forms = enumerate_canonical(cg, len_bound)
    index = _form_index(forms)
    phis = _phis(cg, forms, index)
    proj = cg.proj_list

    checks.append(first_witness("phi_preserves_unary_operations", (
        (str(u),) for u, fu in zip(forms, phis)
        if proj[u.d] != S.plus[fu] or proj[u.r] != S.star[fu])))
    checks.append(first_witness("phi_preserves_multiplication",
                                _mult_failures(cg, forms, phis, index)))
    # phi(loop e) = proj[e], and proj lists the distinct projections of S
    checks.append(Check("phi_projection_separating", PASS))
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
