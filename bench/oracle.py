"""Independent checks of the verdicts the package prints.

Every FAIL witness is evaluated again against the operation table, and the
facts a report states (restriction sides, sigma classes, cover preimages)
are recomputed here by brute force.  A function returns None when the
output holds and a short description of the problem otherwise.
"""

from __future__ import annotations

import json

from gen import compose, dom, parse_rel_name, ran


class Table:
    """An operation table read from a semigroup document."""

    def __init__(self, doc):
        self.names = doc["elements"]
        self.m = doc["mult"]
        self.p = doc["plus"]
        self.s = doc["star"]
        self.n = len(self.names)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls(json.load(fh))


# identity name -> predicate on (mult, plus, star, *witness)
IDENTITIES = {
    "associativity": lambda m, p, s, x, y, z: m[m[x][y]][z] == m[x][m[y][z]],
    "x^+ x = x": lambda m, p, s, x: m[p[x]][x] == x,
    "x^+ y^+ = y^+ x^+": lambda m, p, s, x, y: m[p[x]][p[y]] == m[p[y]][p[x]],
    "(x y)^+ = (x y^+)^+": lambda m, p, s, x, y: p[m[x][y]] == p[m[x][p[y]]],
    "x x^* = x": lambda m, p, s, x: m[x][s[x]] == x,
    "x^* y^* = y^* x^*": lambda m, p, s, x, y: m[s[x]][s[y]] == m[s[y]][s[x]],
    "(x y)^* = (x^* y)^*": lambda m, p, s, x, y: s[m[x][y]] == s[m[s[x]][y]],
    "(x^+)^* = x^+": lambda m, p, s, x: s[p[x]] == p[x],
    "(x^*)^+ = x^*": lambda m, p, s, x: p[s[x]] == s[x],
    "x y^+ = (x y)^+ x": lambda m, p, s, x, y: m[x][p[y]] == m[p[m[x][y]]][x],
    "x^* y = y (x y)^*": lambda m, p, s, x, y: m[s[x]][y] == m[y][s[m[x][y]]],
}
LEFT, RIGHT = "x y^+ = (x y)^+ x", "x^* y = y (x y)^*"


def identity_witness_problem(T, name, witness):
    """None when witness violates the identity called name in T."""
    pred = IDENTITIES.get(name)
    if pred is None:
        return f"no independent check for FAIL {name!r}"
    try:
        holds = pred(T.m, T.p, T.s, *witness)
    except (TypeError, IndexError):
        return f"malformed witness {witness!r} for {name!r}"
    return f"witness {witness!r} does not violate {name!r}" if holds else None


def holds_everywhere(T, name):
    pred = IDENTITIES[name]
    rng = range(T.n)
    return all(pred(T.m, T.p, T.s, x, y) for x in rng for y in rng)


def restriction_sides(T):
    return holds_everywhere(T, LEFT), holds_everywhere(T, RIGHT)


def sigma_classes(T):
    """class_of list of the least congruence identifying all projections."""
    parent = list(range(T.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    proj = sorted(set(T.p))
    work = [(proj[0], e) for e in proj[1:]]
    while work:
        a, b = work.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[max(ra, rb)] = min(ra, rb)
        for z in range(T.n):
            work.append((T.m[z][a], T.m[z][b]))
            work.append((T.m[a][z], T.m[b][z]))
    roots = {}
    return [roots.setdefault(find(x), len(roots)) for x in range(T.n)]


def triple_collision_problem(T, witness):
    """None when a != b share plus, star and sigma class."""
    try:
        a, b = witness
        cls = sigma_classes(T)
        same = (a != b and T.p[a] == T.p[b] and T.s[a] == T.s[b]
                and cls[a] == cls[b])
    except (TypeError, ValueError, IndexError):
        return f"malformed witness {witness!r}"
    return None if same else f"witness {witness!r} is no triple collision"


def matching_products(T, Y):
    """Elements with a matching factorization over Y, of any length."""
    reached = set(Y)
    frontier = set(Y)
    while frontier:
        new = set()
        for a in frontier:
            for y in Y:
                if T.s[a] == T.p[y]:
                    c = T.m[a][y]
                    if c not in reached:
                        reached.add(c)
                        new.add(c)
        frontier = new
    return reached


def fail_witness_problem(T, name, witness, ideal=None):
    """Re-evaluate one FAIL witness from a report against the table T."""
    if name == "triple_map_injective":
        return triple_collision_problem(T, witness)
    if name == "factorization_exists":
        if not (isinstance(witness, list) and len(witness) == 1):
            return f"malformed witness {witness!r}"
        if witness[0] in matching_products(T, ideal):
            return f"{witness[0]} has a matching factorization over {sorted(ideal)}"
        return None
    return identity_witness_problem(T, name, witness)


def report_problems(T, payload):
    """Check every FAIL witness in a --json report payload; returns the
    first problem or None."""
    reports = payload.get("reports", [payload])
    for rep in reports:
        for chk in rep.get("checks", []):
            if not chk["ok"]:
                prob = fail_witness_problem(T, chk["name"], chk["witness"])
                if prob:
                    return prob
    return None


def relation_table_problem(T, n):
    """None when T is the relation algebra its element names describe:
    every product, dom and ran agrees with composing the named relations."""
    rels = [parse_rel_name(n, name) for name in T.names]
    if None in rels or len(set(rels)) != T.n:
        return "element names are not distinct relations"
    for i, a in enumerate(rels):
        if rels[T.p[i]] != dom(n, a) or rels[T.s[i]] != ran(n, a):
            return f"plus/star of {T.names[i]} disagree with dom/ran"
        row = T.m[i]
        for j, b in enumerate(rels):
            if rels[row[j]] != compose(n, a, b):
                return f"product of {T.names[i]} and {T.names[j]} is wrong"
    return None


def phi_problem(T, gens, canonical, element):
    """Recompute the covering morphism on a printed canonical form.

    Cover vertices are the projections in index order; letter x<g> stands
    for generator g."""
    proj = sorted(set(T.p))
    if "loop" in canonical:
        value = proj[canonical["loop"]]
    else:
        seq = canonical["seq"]
        value = proj[seq[0]]
        for i in range(1, len(seq), 2):
            g = int(seq[i][1:])
            if g not in gens:
                return f"letter {seq[i]} is not a generator"
            value = T.m[T.m[value][g]][proj[seq[i + 1]]]
    return None if value == element else f"phi of {canonical} is {value}, not {element}"
