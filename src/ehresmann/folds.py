"""Paths of a graph as a trie over edge ids, and the fold of every path at
every vertex as a table of path indices.

A path is moved down the semilattice by folding restriction (resgraph.Side
at end 0) or corestriction (end 2) along it.  The path laws R3a, R4a,
CR3a, CR4a and Ca compare such folds; here they compare table entries, and
where an entry is -1 they run their statements on the scalar Side.fold, so
their witnesses and exceptions are the scalar fold's.
"""

from __future__ import annotations

from .report import first_witness


class Paths:
    """The paths of length 1..max_len, by length, then by prefix, then by
    last edge id, as a trie over edge ids: path k is path parent[k] (-1 for
    none) followed by edge last[k], from vertex starts[k] to vertex ends[k].
    The paths of each length are consecutive, from levels[length - 1] on,
    and so are the one-edge extensions of a path k shorter than max_len, in
    edge id order from first_child[k] on: path f followed by edge j is
    first_child[f] + j - out_start[source of j].  Edge ids index
    G.sorted_edges()."""

    def __init__(self, G, max_len: int):
        edges = G.sorted_edges()
        n = len(edges) if max_len > 0 else 0
        self.src = [c[0] for c in edges]
        self.out_start = [0] * G.sl.n
        for j in range(len(edges) - 1, -1, -1):
            self.out_start[edges[j][0]] = j
        after = [[G.edge_id[c] for c in G.edges_from(d[2])] for d in edges]
        self.parent, self.last, self.starts = [-1] * n, list(range(n)), self.src[:n]
        self.first_child, self.levels = [], [0, n]
        for _ in range(max_len - 1):
            for k in range(self.levels[-2], self.levels[-1]):
                ext = after[self.last[k]]
                self.first_child.append(len(self.last))
                self.parent += [k] * len(ext)
                self.starts += [self.starts[k]] * len(ext)
                self.last += ext
            self.levels.append(len(self.last))
        self.top = self.levels[-2]
        self.ends = [edges[j][2] for j in self.last]

    def path(self, k: int) -> tuple:
        """Path k as a tuple of edge ids."""
        out = []
        while k >= 0:
            out.append(self.last[k])
            k = self.parent[k]
        return tuple(out[::-1])


class Folds:
    """The fold of every path on one side at every vertex, as a path index.

    Row k holds at v the index of the fold of path k at v, or -1 where that
    fold raises or is not a path; the laws call Side.fold there, so the
    witness and the exception are the scalar fold's.  A row is built from
    the row of the path's prefix p by one table step per vertex: on the
    restriction side the fold of p c at v is the fold of p at v followed by
    c moved to where that one ends; on the corestriction side it is the fold
    of p at the source of c moved to v, followed by that edge.  Rows are kept
    for the paths shorter than the longest; those are built when asked for.
    near and far are the vertices a fold starts at and ends at: the source
    and target of a path on the restriction side, the other way round on
    the corestriction side."""

    def __init__(self, s, P: Paths):
        self.s, self.P = s, P
        self.near, self.far = (P.starts, P.ends) if s.end == 0 else (P.ends, P.starts)
        self.rows = s.table[:P.levels[1]]
        below = [s.sl.below(v) for v in range(s.sl.n)]
        # what row reads, unpacked at once, for speed
        self._step = (self.rows, P.parent, P.last, s.table, below, self.near,
                      P.src, P.ends, P.first_child, P.out_start, s.sl.n, s.end)
        for k in range(len(self.rows), P.top):
            self.rows.append(self.row(k))

    def row(self, k: int) -> list:
        """The row of path k, kept or built from its prefix's row."""
        if k < len(self.rows):
            return self.rows[k]
        (rows, parent, last, table, below, near,
         src, ends, first_child, out_start, n, end) = self._step
        prev, tab, out = rows[parent[k]], table[last[k]], [-1] * n
        if end == 0:
            for v in below[near[k]]:
                f = prev[v]
                if f >= 0:
                    w = ends[f]
                    j = tab[w]
                    if j >= 0 and src[j] == w:
                        out[v] = first_child[f] + j - out_start[w]
        else:
            for v in below[near[k]]:
                j = tab[v]
                if j >= 0:
                    w = src[j]
                    f = prev[w]
                    if f >= 0 and ends[f] == w:
                        out[v] = first_child[f] + j - out_start[w]
        return out


def fold_laws(F: Folds) -> list:
    """R3a and R4a on the restriction side, CR3a and CR4a on corestriction,
    for the paths up to the trie's length bound.  Folds are compared as path
    indices; where a fold index is -1 the law's statements run on
    Side.fold."""
    s, P, near, far = F.s, F.P, F.near, F.far
    bound = len(P.levels) - 1
    fold, below = s.fold, s.sl.below

    def differ(k, e, g):
        p = P.path(k)
        return fold(fold(p, e), g) != fold(p, g)

    def r3a():
        for k in range(len(P.last)):
            row = F.row(k)
            for e in below(near[k]):
                r = row[e]
                twice = F.row(r) if r >= 0 else None
                for g in below(e):
                    # two folds are equal when their indices are; a -1 reruns
                    # the scalar folds
                    a, b = (twice[g], row[g]) if r >= 0 else (-1, -1)
                    if a != b if min(a, b) >= 0 else differ(k, e, g):
                        yield (s.triples(P.path(k)), e, g)

    # the paths that can follow a vertex, in path order, so by length
    starting = {}
    for q, v in enumerate(P.starts):
        starting.setdefault(v, []).append(q)

    def r4a():
        for length in range(1, bound):
            limit = P.levels[bound - length]  # the paths q with len(p q) > bound
            for k in range(P.levels[length - 1], P.levels[length]):
                for q in starting.get(P.ends[k], ()):
                    if q >= limit:
                        break
                    first, second = (k, q) if s.end == 0 else (q, k)
                    folds, rest = F.row(first), F.row(second)
                    for v in below(near[first]):
                        # the fold of p q is the fold of the first path
                        # followed by the fold of the second from where that
                        # one ends
                        if folds[v] < 0 or rest[far[folds[v]]] < 0:
                            p, q_path = P.path(k), P.path(q)
                            m = fold(P.path(first), v)
                            whole = fold(p + q_path, v)
                            tail = fold(P.path(second), s.edges[m[s.last]][s.far])
                            if whole != (m + tail if s.end == 0 else tail + m):
                                yield (s.triples(p), s.triples(q_path), v)

    return [first_witness(s.prefix + "3a", r3a()), first_witness(s.prefix + "4a", r4a())]


def path_compatibility(RF: Folds, CF: Folds):
    """Law Ca: law C for paths."""
    R, C, P = RF.s, CF.s, RF.P
    edges, meet, below = R.edges, R.sl.meet, R.sl.below

    def differ(p, e, f):
        rp, cp = R.fold(p, e), C.fold(p, f)
        return (C.fold(rp, meet[edges[rp[-1]][2]][f])
                != R.fold(cp, meet[edges[cp[0]][0]][e]))

    for k in range(len(P.last)):
        rrow, crow = RF.row(k), CF.row(k)
        # the corestrictions of path k, each with the row of its restrictions
        cps = [(f, crow[f], RF.row(crow[f]) if crow[f] >= 0 else None)
               for f in below(CF.near[k])]
        for e in below(RF.near[k]):
            r = rrow[e]
            lhs = CF.row(r) if r >= 0 else None
            for f, c, rhs in cps:
                a = lhs[meet[RF.far[r]][f]] if r >= 0 and c >= 0 else -1
                b = rhs[meet[CF.far[c]][e]] if a >= 0 else -1
                if a != b if b >= 0 else differ(P.path(k), e, f):
                    yield (R.triples(P.path(k)), e, f)
