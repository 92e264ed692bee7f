"""Seeded inputs for the benchmark workloads.

Relation monoids, partial actions and the JSON documents the command line
reads are built here with the benchmark's own code, so the inputs of a run
depend only on the seed and not on the package under test.  Only the
built-in corpus documents come from the package, since the corpus is part
of it.

Relations on {0, ..., n-1} are ints with bit x*n + y set for the pair
(x, y); composition reads left to right.
"""

from __future__ import annotations

import functools
import itertools
import json
import os


# ---------------------------------------------------------------------------
# binary relations as bit masks

def rel_from_pairs(n, pairs):
    bits = 0
    for x, y in pairs:
        bits |= 1 << (x * n + y)
    return bits


def rel_pairs(n, a):
    return [(x, y) for x in range(n) for y in range(n) if a >> (x * n + y) & 1]


def _row(n, a, x):
    return a >> (x * n) & ((1 << n) - 1)


@functools.lru_cache(maxsize=None)
def _row_unions(n, b):
    """For each set r of points (a bit mask), the union of the rows of b at r."""
    rows = [_row(n, b, y) for y in range(n)]
    out = [0] * (1 << n)
    for r in range(1, 1 << n):
        low = r & -r
        out[r] = out[r ^ low] | rows[low.bit_length() - 1]
    return out


def compose(n, a, b):
    unions = _row_unions(n, b)
    mask = (1 << n) - 1
    out = 0
    for x in range(n):
        out |= unions[a >> (x * n) & mask] << (x * n)
    return out


def dom(n, a):
    return sum(1 << (x * n + x) for x in range(n) if _row(n, a, x))


def ran(n, a):
    cols = 0
    for x in range(n):
        cols |= _row(n, a, x)
    return sum(1 << (y * n + y) for y in range(n) if cols >> y & 1)


def rel_name(n, a):
    return "Rel{" + ",".join(f"({x},{y})" for x, y in rel_pairs(n, a)) + "}"


def parse_rel_name(n, name):
    """Inverse of rel_name; None when the string is not of that form."""
    if not (name.startswith("Rel{") and name.endswith("}")):
        return None
    body = name[4:-1]
    if not body:
        return 0
    pairs = []
    for item in body[1:-1].split("),("):
        x, _, y = item.partition(",")
        if not (x.isdigit() and y.isdigit()):
            return None
        pairs.append((int(x), int(y)))
    return rel_from_pairs(n, pairs)


def closure(n, gens):
    """Least set of relations containing gens, closed under compose, dom, ran."""
    seen = set(gens)
    frontier = sorted(seen)
    while frontier:
        new = []
        elems = sorted(seen)
        for a in frontier:
            for c in (dom(n, a), ran(n, a)):
                if c not in seen:
                    seen.add(c)
                    new.append(c)
            for b in elems:
                for c in (compose(n, a, b), compose(n, b, a)):
                    if c not in seen:
                        seen.add(c)
                        new.append(c)
        frontier = new
    return sorted(seen)


def full_monoid(kind, n):
    """All relations (B), partial maps (PT) or partial bijections (I) on n points."""
    rels = []
    for a in range(1 << (n * n)):
        rows_ok = all(bin(_row(n, a, x)).count("1") <= 1 for x in range(n))
        cols_ok = all(sum(a >> (x * n + y) & 1 for x in range(n)) <= 1
                      for y in range(n))
        if kind == "B" or (kind == "PT" and rows_ok) or (kind == "I" and rows_ok and cols_ok):
            rels.append(a)
    return rels


def semigroup_doc(n, rels):
    """The relation algebra on rels (closed) as a semigroup document."""
    index = {a: i for i, a in enumerate(rels)}
    return {
        "kind": "semigroup",
        "version": 1,
        "elements": [rel_name(n, a) for a in rels],
        "mult": [[index[compose(n, a, b)] for b in rels] for a in rels],
        "plus": [index[dom(n, a)] for a in rels],
        "star": [index[ran(n, a)] for a in rels],
    }


def relgen_doc(n, gens):
    return {"kind": "relgen", "version": 1, "ground_size": n,
            "generators": [[list(p) for p in rel_pairs(n, g)] for g in gens]}


B3_CATALOG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "b3_generators.json")


def find_b3_generators(rng, count, lo, hi):
    """count distinct sets of two or three random relations in B(3) whose
    closures have lo..hi elements, as [(generators, closure size)].

    Too slow to run at set-up, where the number of draws would vary with
    the seed; `python3 bench/gen.py` writes its result to B3_CATALOG."""
    found = {}
    while len(found) < count:
        gens = tuple(sorted(rng.sample(range(512), rng.choice((2, 3)))))
        size = len(closure(3, gens))
        if lo <= size <= hi:
            found.setdefault(gens, size)
    return list(found.items())


def relabel_relation(n, a, perm, converse):
    """Image of a under the point permutation perm, then its converse if
    asked.  Both maps preserve the size of a closure."""
    pairs = [(perm[x], perm[y]) for x, y in rel_pairs(n, a)]
    return rel_from_pairs(n, [(y, x) for x, y in pairs] if converse else pairs)


def random_b3_generators(rng, count, cubes):
    """count generator sets drawn from the catalog, each relabelled at
    random, as [(generators, closure size)].  The sets are drawn again until
    the sum of their cubed closure sizes is within 5% of cubes: the n^3
    associativity scans, and so the work per seed, stay nearly constant
    while the sets themselves vary."""
    with open(B3_CATALOG) as fh:
        catalog = json.load(fh)
    while True:
        entries = rng.sample(catalog, count)
        if abs(sum(e["closure"] ** 3 for e in entries) - cubes) <= 0.05 * cubes:
            break
    out = []
    for entry in entries:
        perm = rng.sample(range(3), 3)
        converse = rng.random() < 0.5
        gens = sorted(relabel_relation(3, g, perm, converse) for g in entry["generators"])
        out.append((gens, entry["closure"]))
    return out


# ---------------------------------------------------------------------------
# partial actions of permutation groups on order ideals of Boolean lattices

def perm_group(k, gens):
    """Closure of the permutations gens of range(k); identity first."""
    ident = tuple(range(k))
    group, frontier = {ident}, [ident]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[i]] for i in range(k))
                if q not in group:
                    group.add(q)
                    new.append(q)
        frontier = new
    return [ident] + sorted(group - {ident})


def act(p, x):
    """Image of the subset x (a bit mask) under the coordinate permutation p."""
    return sum(1 << p[i] for i in range(len(p)) if x >> i & 1)


class PartialActionInput:
    """A group G of coordinate permutations acting partially on an order
    ideal D of the Boolean lattice 2^k: phi_g is g restricted to the points
    of D that g keeps inside D.  Monoid products read left to right, as
    relation composition does."""

    def __init__(self, k, gens, ideal):
        self.group = perm_group(k, gens)
        self.points = sorted(ideal)
        gi = {p: i for i, p in enumerate(self.group)}
        pi = {x: i for i, x in enumerate(self.points)}
        self.mult = [[gi[tuple(q[p[i]] for i in range(k))] for q in self.group]
                     for p in self.group]
        self.meet = [[pi[a & b] for b in self.points] for a in self.points]
        # phi[s] maps point index -> point index on the domain of phi_s
        self.phi = [{pi[x]: pi[act(p, x)] for x in self.points if act(p, x) in ideal}
                    for p in self.group]
        self.names = ["{" + ",".join(str(i) for i in range(k) if x >> i & 1) + "}"
                      for x in self.points]

    def pairs(self):
        """Elements (e, s) of the pair form, ordered by s then e."""
        return [(e, s) for s in range(len(self.group)) for e in sorted(self.phi[s])]

    def restriction_entries(self):
        """Entries of the graph's restriction and corestriction tables: one
        per edge and vertex below its source, and per vertex below its target."""
        below = [sum(1 for g in range(len(self.points)) if self.meet[g][e] == g)
                 for e in range(len(self.points))]
        return sum(below[e] + below[m[e]] for m in self.phi for e in m)

    def _monoid(self):
        return {"kind": "finite", "elements": [f"g{i}" for i in range(len(self.group))],
                "mult": self.mult, "identity": 0}

    def _semilattice(self):
        return {"elements": self.names, "meet": self.meet}

    def premorphism_doc(self):
        return {"kind": "premorphism", "version": 1, "monoid": self._monoid(),
                "ground": {"semilattice": self._semilattice()},
                "phi": {str(s): [[e, f] for e, f in sorted(m.items())]
                        for s, m in enumerate(self.phi)}}

    def pair_form_doc(self):
        pairs = self.pairs()
        idx = {p: i for i, p in enumerate(pairs)}
        inv = [{f: e for e, f in m.items()} for m in self.phi]
        mult = [[idx[(inv[s][self.meet[self.phi[s][e]][f]], self.mult[s][t])]
                 for (f, t) in pairs] for (e, s) in pairs]
        return {"kind": "semigroup", "version": 1,
                "elements": [f"({self.names[e]},g{s})" for e, s in pairs],
                "mult": mult,
                "plus": [idx[(e, 0)] for e, s in pairs],
                "star": [idx[(self.phi[s][e], 0)] for e, s in pairs]}

    def graph_doc(self):
        pairs = self.pairs()
        edges = [(e, s, self.phi[s][e]) for e, s in pairs]
        idx = {c: i for i, c in enumerate(edges)}
        inv = [{f: e for e, f in m.items()} for m in self.phi]
        below = [[g for g in range(len(self.points)) if self.meet[g][e] == g]
                 for e in range(len(self.points))]
        return {"kind": "resgraph", "version": 1, "semilattice": self._semilattice(),
                "monoid": self._monoid(),
                "edges": [{"d": d, "l": s, "r": r} for d, s, r in edges],
                "restrict": [{"edge": i, "g": g, "to": idx[(g, s, self.phi[s][g])]}
                             for i, (d, s, r) in enumerate(edges) for g in below[d]],
                "corestrict": [{"edge": i, "h": h, "to": idx[(inv[s][h], s, h)]}
                               for i, (d, s, r) in enumerate(edges) for h in below[r]]}


def random_down_set(rng, k):
    """The down-closure in 2^k of one to three random subsets."""
    tops = [rng.randrange(1 << k) for _ in range(rng.randint(1, 3))]
    return {x for x in range(1 << k) if any(x & t == x for t in tops)}


def random_partial_action(rng, k, perms, lo, hi):
    """The group generated by perms, with coordinates relabelled at random,
    acting on a random order ideal of 2^k; drawn again until the graph has
    lo..hi restriction entries, which keeps the work per seed nearly
    constant."""
    while True:
        pa = PartialActionInput(k, relabel(rng, k, perms), random_down_set(rng, k))
        if lo <= pa.restriction_entries() <= hi:
            return pa


def relabel(rng, k, perms):
    """Conjugate the permutations by a random relabelling of the coordinates."""
    sigma = list(range(k))
    rng.shuffle(sigma)
    inv = [0] * k
    for i, s in enumerate(sigma):
        inv[s] = i
    return [tuple(sigma[p[inv[i]]] for i in range(k)) for p in perms]


# ---------------------------------------------------------------------------
# documents

def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    return path


class DocDir:
    """A directory of generated documents with unique file names."""

    def __init__(self, root):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def path(self, name):
        return os.path.join(self.root, name)

    def write(self, name, doc):
        return write_json(self.path(name), doc)


def malformed_documents(graph, premorphism, semigroup):
    """The six malformed inputs that must exit 2 (input error), built from
    well-formed documents: (name, command, document) triples."""
    out = []
    g = json.loads(json.dumps(graph))
    g["restrict"][0]["edge"] = len(g["edges"]) + 5
    out.append(("restrict_edge_out_of_range", "graph-check", g))
    g = json.loads(json.dumps(graph))
    g["edges"][0] = 7
    out.append(("edge_not_object", "verify", g))
    p = json.loads(json.dumps(premorphism))
    p["ground"] = 3
    out.append(("premorphism_ground_not_object", "verify", p))
    s = json.loads(json.dumps(semigroup))
    s["mult"] = 4
    out.append(("mult_not_list", "verify", s))
    s = json.loads(json.dumps(semigroup))
    i, j = next((i, j) for i, row in enumerate(s["mult"]) for j, v in enumerate(row)
                if v == 1)
    s["mult"][i][j] = True
    out.append(("true_as_table_entry", "verify", s))
    out.append(("corpus_entry_without_payload", "corpus-run",
                [{"name": "no_payload", "expect": {"ehresmann": True}}]))
    return out


def matching_factorizations(mult, plus, star, Y, length):
    """Matching sequences over Y of the given length, grouped by product."""
    out = {}
    for seq in itertools.product(sorted(Y), repeat=length):
        if all(star[seq[i]] == plus[seq[i + 1]] for i in range(length - 1)):
            prod = seq[0]
            for y in seq[1:]:
                prod = mult[prod][y]
            out.setdefault(prod, []).append(seq)
    return out


if __name__ == "__main__":
    import random
    write_json(B3_CATALOG, [{"generators": list(g), "closure": size} for g, size in
                            find_b3_generators(random.Random("b3 catalog"), 240, 90, 129)])
