"""The three benchmark workloads as fixed job lists with expected verdicts.

A job is one `ehresmann` command line run through `cli.main(argv)`, or one
library call for functionality that has no command.  Each job carries the
exit code it must return and a check of what it prints.  Expected verdicts
come from the mathematics where it settles them (brute force in oracle.py
or a theorem named beside the job) and otherwise from the verdicts of the
package at the commit that introduced the benchmark.

- tables: builds and scans relation monoids.  Time goes to the n^2 table
  build in relmonoid and the n^3 associativity scan, sigma and the orders
  in core; the -o writes sit beside reads of the same tables.
- searches: bounded symbolic searches over tables of at most 64 elements.
  Time goes to cover multiplication through path restriction, phi and the
  contract/expand factorization search; the table kernel idles.
- structures: many mid-size structures (10 to 200 elements or edges).
  Time goes to the graph axioms, the product build and its claims, the
  partial-action checks, and sigma and the orders recomputed by several
  commands on one semigroup; per-document io and cli cost counts here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import gen
import oracle

WORKLOADS = ("tables", "searches", "structures")


@dataclass
class Job:
    jid: str
    argv: list | None = None        # command line for cli.main
    call: Callable | None = None    # library call, for functions without a command
    expect: int | None = None       # exit code of a command-line job
    check: Callable | None = None   # output text or call result -> problem or None
    robustness: bool = False        # malformed input; failure is a known defect


def _json_check(fn):
    """Wrap a check taking the parsed --json payload."""
    def check(out):
        try:
            payload = json.loads(out)
        except ValueError:
            return "output is not JSON"
        return fn(payload)
    return check


def _all_ok(payload):
    reports = payload.get("reports", [payload])
    bad = [c["name"] for r in reports for c in r["checks"] if not c["ok"]]
    return f"unexpected FAIL {bad}" if bad else None


def _fails_checked(load_table, expect_fail):
    """Exactly the checks named in expect_fail FAIL, each with a witness
    that violates its identity in the table."""
    def fn(payload):
        T = load_table()
        prob = oracle.report_problems(T, payload)
        if prob:
            return prob
        reports = payload.get("reports", [payload])
        failed = {c["name"] for r in reports for c in r["checks"] if not c["ok"]}
        return None if failed == set(expect_fail) else f"FAIL set {sorted(failed)}"
    return _json_check(fn)


def _restriction_expect(sides, left, right):
    """Exit code and FAIL names of `verify --side sides` given the truth of
    the left and right ample identities."""
    fails = []
    if sides in ("left", "both") and not left:
        fails.append(oracle.LEFT)
    if sides in ("right", "both") and not right:
        fails.append(oracle.RIGHT)
    return (1 if fails else 0), fails


def _analyze_check(load_table, strictly_proper=None):
    def fn(payload):
        T = load_table()
        left, right = oracle.restriction_sides(T)
        classes = len(set(oracle.sigma_classes(T)))
        got = (payload["n"], payload["left_restriction"], payload["right_restriction"],
               payload["quotient_size"])
        if got != (T.n, left, right, classes):
            return f"analyze reported {got}, expected {(T.n, left, right, classes)}"
        if strictly_proper is not None and payload["strictly_proper"] != strictly_proper:
            return f"strictly_proper is {payload['strictly_proper']}"
        return None
    return _json_check(fn)


def _sigma_check(load_table, out_path):
    def fn(payload):
        classes = len(set(oracle.sigma_classes(load_table())))
        written = oracle.Table.load(out_path).n
        if (len(payload["classes"]), written) != (classes, classes):
            return (f"sigma gave {len(payload['classes'])} classes and wrote "
                    f"{written} elements; expected {classes}")
        return None
    return _json_check(fn)


# ---------------------------------------------------------------------------
# tables

# (left, right) ample identities of the full monoids: PT(n) is left
# restriction only and I(n) is restriction on both sides (mathematics);
# B(2) is neither, as the package reports at the benchmark's first commit.
FULL_MONOIDS = {("B", 1): (True, True), ("B", 2): (False, False),
                ("PT", 1): (True, True), ("PT", 2): (True, False),
                ("PT", 3): (True, False), ("I", 1): (True, True),
                ("I", 2): (True, True), ("I", 3): (True, True)}

# generators of I(4): a transposition, a 4-cycle and the partial identity
# on three points; |I(4)| = sum over k of C(4,k)^2 k! = 209
I4_SIZE = 209
I4_GENERATORS = ([(0, 1), (1, 0), (2, 2), (3, 3)], [(0, 1), (1, 2), (2, 3), (3, 0)],
                 [(0, 0), (1, 1), (2, 2)])
B3_COUNT = 6            # seeded B(3) generator sets, closures of 90 to 129 elements
B3_CUBES = 7_000_000    # sum of their cubed closure sizes


def _relgen_check(n, size):
    def check(out):
        lines = out.splitlines()
        head = f"generated {size} relations on ground size {n}"
        if not lines or lines[0] != head:
            return f"expected {head!r}, got {lines[:1]}"
        checks = [ln for ln in lines[2:] if ln.strip()]
        if len(checks) != 9 or not all(ln.startswith("PASS") for ln in checks):
            return "relation subalgebra not reported Ehresmann"
        return None
    return check


def tables(rng, docs):
    jobs = []
    for (kind, n), (left, right) in FULL_MONOIDS.items():
        out = docs.path(f"full_{kind}{n}.json")
        flag = f"--full-{kind}"

        def load(out=out, n=n):
            T = oracle.Table.load(out)
            prob = oracle.relation_table_problem(T, n)
            if prob:
                raise ValueError(f"written table is wrong: {prob}")
            return T

        for sides in ("left", "right", "both"):
            code, fails = _restriction_expect(sides, left, right)
            jobs.append(Job(f"verify {flag} {n} --side {sides}",
                            ["verify", flag, str(n), "--side", sides, "-o", out, "--json"],
                            expect=code, check=_fails_checked(load, fails)))
        jobs.append(Job(f"analyze {kind}{n}", ["analyze", out, "--json"], expect=0,
                        check=_analyze_check(load)))
        quotient = docs.path(f"full_{kind}{n}_sigma.json")
        jobs.append(Job(f"sigma {kind}{n}", ["sigma", out, "-o", quotient, "--json"],
                        expect=0, check=_sigma_check(load, quotient)))

    gens = [gen.rel_from_pairs(4, pairs) for pairs in I4_GENERATORS]
    seeded = [(4, gens, I4_SIZE)]
    seeded += [(3, g, size) for g, size in
               gen.random_b3_generators(rng, B3_COUNT, B3_CUBES)]
    for i, (n, g, size) in enumerate(seeded):
        path = docs.write(f"relgen{i}.json", gen.relgen_doc(n, g))
        # relation subalgebras are Ehresmann (mathematics)
        jobs.append(Job(f"verify relgen{i} ({size} elements)", ["verify", path],
                        expect=0, check=_relgen_check(n, size)))
    return jobs


# ---------------------------------------------------------------------------
# searches

def _preimage_check(load_table, gens, element):
    def fn(payload):
        if payload["phi_round_trip"] != element:
            return f"round trip gave {payload['phi_round_trip']}"
        return oracle.phi_problem(load_table(), gens, payload["canonical"], element)
    return _json_check(fn)


def _proper_ideal_check(load_table, ideal, statuses):
    def fn(payload):
        got = [c["status"] for c in payload["conditions"]]
        if got != statuses:
            return f"conditions {got}, expected {statuses}"
        T = load_table()
        for c in payload["conditions"]:
            if c["status"] == "FAIL":
                prob = oracle.fail_witness_problem(T, c["name"], c["witness"], ideal)
                if prob:
                    return prob
        return None
    return _json_check(fn)


def _order_ideals(T):
    """Order ideals of the natural order containing every projection,
    other than the whole semigroup; a <= b iff a = a^+ b f, f a projection."""
    proj = sorted(set(T.p))
    below = [[a for a in range(T.n)
              if any(T.m[T.m[T.p[a]][b]][f] == a for f in proj)] for b in range(T.n)]
    others = [x for x in range(T.n) if x not in proj]
    out = []
    for mask in range(1 << len(others)):
        Y = set(proj) | {x for i, x in enumerate(others) if mask >> i & 1}
        if len(Y) < T.n and all(set(below[y]) <= Y for y in Y):
            out.append(sorted(Y))
    return out


def _relation_cover_generators(rng, kind, rels):
    """A transposition, a 3-cycle and a rank-2 element of I(3) or PT(3), as
    indices into rels.  With the projections they generate the monoid: a
    partial bijection of rank 2 for I(3), a total map of rank 2 for PT(3)."""
    def rank2(a):
        pairs = gen.rel_pairs(3, a)
        xs, ys = {x for x, _ in pairs}, {y for _, y in pairs}
        if kind == "I":
            return len(pairs) == 2 and len(ys) == 2 and a != gen.dom(3, a)
        return len(xs) == 3 and len(ys) == 2

    transposition = rng.choice([(1, 0, 2), (0, 2, 1), (2, 1, 0)])
    cycle = rng.choice([(1, 2, 0), (2, 0, 1)])
    gens = [gen.rel_from_pairs(3, enumerate(transposition)),
            gen.rel_from_pairs(3, enumerate(cycle)),
            rng.choice([a for a in rels if rank2(a)])]
    if len(gen.closure(3, gens)) != len(rels):
        raise ValueError(f"{gens} do not generate {kind}(3)")
    index = {a: i for i, a in enumerate(rels)}
    return sorted(index[g] for g in gens)


def searches(rng, docs):
    from ehresmann import corpus, io, product, resgraph
    jobs = []
    cases = []   # (name, path, generators, length bounds)
    for name, S, gens in corpus.cover_cases():
        cases.append((name, docs.write(f"cover_{name}.json", io.dump_semigroup(S)),
                      sorted(gens), (3, 4)))
    for kind, bounds in (("I", (2, 3)), ("PT", (2,))):
        rels = gen.full_monoid(kind, 3)
        path = docs.write(f"cover_{kind}3.json", gen.semigroup_doc(3, rels))
        cases.append((f"{kind}3", path, _relation_cover_generators(rng, kind, rels),
                      bounds))

    for name, path, gens, bounds in cases:
        g = ",".join(map(str, gens))
        for length in bounds:
            # the cover over a generating set always verifies (mathematics)
            jobs.append(Job(f"cover verify {name} --len {length}",
                            ["cover", "verify", path, "--gens", g, "--len", str(length),
                             "--json"], expect=0, check=_json_check(_all_ok)))
    for name, path, gens, _ in cases:
        g = ",".join(map(str, gens))
        T = oracle.Table.load(path)
        for element in range(T.n):
            jobs.append(Job(f"preimage {name} {element}",
                            ["preimage", path, "--gens", g, "--element", str(element),
                             "--json"], expect=0,
                            check=_preimage_check(lambda T=T: T, gens, element)))

    named = dict(corpus.semigroups())
    for name in ("s3", "z4"):
        path = docs.write(f"ideal_{name}.json", io.dump_semigroup(named[name]))
        for max_len in (3, 4):
            # the package's verdict at the benchmark's first commit
            jobs.append(Job(f"proper-ideal {name} --max-len {max_len}",
                            ["proper-ideal", path, "--max-len", str(max_len), "--json"],
                            expect=0, check=_proper_ideal_check(
                                lambda: None, None, ["PASS"] * 5)))
    path = docs.write("ideal_eight.json", io.dump_semigroup(named["eight_monoid"]))
    T = oracle.Table.load(path)
    S = io.load_path(path)[1]
    for Y in _order_ideals(T):
        generating = oracle.matching_products(T, Y) == set(range(T.n))
        # every element of the eight-element monoid is proper, so the first
        # three conditions hold; without factorizations condition 4 FAILs
        # and 5 is skipped.  The bounded search answers PASS at the
        # benchmark's first commit.
        statuses = ["PASS"] * 5 if generating else ["PASS"] * 3 + ["FAIL", "INCONCLUSIVE"]
        ys = ",".join(map(str, Y))
        for max_len in (3, 4):
            jobs.append(Job(f"proper-ideal eight {{{ys}}} --max-len {max_len}",
                            ["proper-ideal", path, "--ideal", ys, "--max-len",
                             str(max_len), "--json"], expect=0 if generating else 1,
                            check=_proper_ideal_check(lambda: T, Y, statuses)))
        if generating:
            jobs.append(_equivalence_job(rng, T, S, Y, product, resgraph))
    return jobs


EQUIVALENCE_PAIRS = 80


def _equivalence_job(rng, T, S, Y, product, resgraph):
    """Pairs of matching Y-factorizations of one element, of lengths 2..5,
    as paths in the underlying graph of Y.  In a proper generating ideal
    such paths are equivalent (mathematics), so FAIL is wrong and PASS or
    an honest INCONCLUSIVE is accepted."""
    ug = product.underlying_graph(S, Y)
    groups = {}
    for length in range(2, 6):
        for prod, seqs in gen.matching_factorizations(T.m, T.p, T.s, Y, length).items():
            groups.setdefault(prod, []).extend(seqs)
    keys = sorted(k for k, v in groups.items() if len(v) > 1)
    pairs = []
    for _ in range(EQUIVALENCE_PAIRS):
        p, q = rng.sample(groups[rng.choice(keys)], 2)
        pairs.append((tuple(ug.of_element[y] for y in p),
                      tuple(ug.of_element[y] for y in q)))
    G = ug.graph

    def call():
        return [resgraph.equivalent_paths(G, p, q).status for p, q in pairs]

    def check(statuses):
        return "FAIL on equivalent factorizations" if "FAIL" in statuses else None

    return Job(f"equivalent_paths eight {{{','.join(map(str, Y))}}}", call=call,
               check=check)


# ---------------------------------------------------------------------------
# structures

# (k, generating permutations, range of restriction entries): the groups
# act on 2^k by permuting coordinates; the seed relabels coordinates and
# draws the order ideal.  Narrow ranges keep the work per seed nearly
# constant; the pair forms have 13 to 64 elements.
PARTIAL_ACTION_SHAPES = (
    (4, [(1, 2, 3, 0), (3, 2, 1, 0)], 352, 352),     # D4
    (4, [(1, 2, 0, 3), (0, 2, 3, 1)], 324, 324),     # A4
    (4, [(1, 0, 2, 3), (1, 2, 0, 3)], 324, 324),     # S3 fixing a point
    (4, [(1, 2, 3, 0)], 272, 280),                   # C4
    (4, [(1, 0, 2, 3), (0, 1, 3, 2)], 200, 208),     # V4
    (3, [(1, 0, 2), (1, 2, 0)], 148, 148),           # S3
    (4, [(1, 0, 3, 2)], 100, 108),                   # C2
    (3, [(1, 2, 0)], 74, 74),                        # C3
)

# product of corpus graph -> (left, right) restriction at the first commit
CORPUS_CLASSES = {"e2t2": (True, False), "e2t2_rev": (False, True),
                  "complete2_t2": (False, False)}


def _classify_check(left, right):
    def check(rc):
        got = (rc.left, rc.right)
        return None if got == (left, right) else f"classified {got}, expected {(left, right)}"
    return check


def _report_ok_check(rep):
    return None if rep.ok else f"unexpected FAIL {[c.name for c in rep.failures()]}"


def _semigroup_jobs(name, path, expect_proper=None):
    T = oracle.Table.load(path)
    left, right = oracle.restriction_sides(T)
    code, fails = _restriction_expect("both", left, right)
    cls = oracle.sigma_classes(T)
    triples = {(T.p[a], T.s[a], cls[a]) for a in range(T.n)}
    injective = len(triples) == T.n
    load = lambda: T  # noqa: E731
    return [
        Job(f"verify --side both {name}", ["verify", path, "--side", "both", "--json"],
            expect=code, check=_fails_checked(load, fails)),
        Job(f"analyze {name}", ["analyze", path, "--json"], expect=0,
            check=_analyze_check(load, expect_proper)),
        # the triple map is an isomorphism onto the product of the
        # underlying graph exactly when it is injective (mathematics)
        Job(f"iso {name}", ["iso", path, "--json"], expect=0 if injective else 1,
            check=_fails_checked(load, [] if injective else ["triple_map_injective"])),
    ]


def _graph_jobs(name, path, docs, path_bound):
    built = docs.path(f"{name}_product.json")
    ok = _json_check(_all_ok)
    with open(path) as fh:
        edges = len(json.load(fh)["edges"])

    def built_check(payload):
        # a partial multiaction's product has one element per edge
        return None if payload["n"] == edges == oracle.Table.load(built).n else (
            f"product has {payload['n']} elements for {edges} edges")

    return [
        Job(f"verify {name}", ["verify", path, "--json"], expect=0, check=ok),
        Job(f"graph-check {name}", ["graph-check", path, "--path-bound", str(path_bound),
                                    "--json"], expect=0, check=ok),
        Job(f"product build {name}", ["product", "build", path, "-o", built, "--json"],
            expect=0, check=_json_check(built_check)),
        Job(f"product check {name}", ["product", "check", path, "--json"], expect=0,
            check=ok),
    ]


def structures(rng, docs):
    from ehresmann import actions, corpus, io
    jobs = []
    first = None
    for i, (k, perms, lo, hi) in enumerate(PARTIAL_ACTION_SHAPES):
        pa = gen.random_partial_action(rng, k, perms, lo, hi)
        graph, premorphism, pair_form = pa.graph_doc(), pa.premorphism_doc(), pa.pair_form_doc()
        first = first or (graph, premorphism, pair_form)
        pm_path = docs.write(f"pa{i}_premorphism.json", premorphism)
        pf_path = docs.write(f"pa{i}_pairform.json", pair_form)
        g_path = docs.write(f"pa{i}_graph.json", graph)
        # partial actions satisfy the premorphism laws; their pair forms are
        # proper restriction semigroups on both sides, strictly proper, and
        # isomorphic to the product of the induced graph (mathematics)
        jobs.append(Job(f"verify pa{i} premorphism", ["verify", pm_path, "--json"],
                        expect=0, check=_json_check(_all_ok)))
        jobs += _semigroup_jobs(f"pa{i}_pairform", pf_path, expect_proper=True)
        jobs += _graph_jobs(f"pa{i}_graph", g_path, docs, path_bound=2)
        pa_obj = io.load_path(pm_path)[1]
        g_obj = io.load_path(g_path)[1]
        jobs.append(Job(f"pair_form_iso_check pa{i}",
                        call=lambda p=pa_obj: actions.pair_form_iso_check(p),
                        check=_report_ok_check))
        jobs.append(Job(f"classify_restriction pa{i}",
                        call=lambda G=g_obj: actions.classify_restriction(G),
                        check=_classify_check(True, True)))

    for name, S in corpus.semigroups():
        jobs += _semigroup_jobs(name, docs.write(f"corpus_{name}.json",
                                                 io.dump_semigroup(S)))
    for name, G in corpus.pm_graphs():
        jobs += _graph_jobs(name, docs.write(f"corpus_{name}.json", io.dump_resgraph(G)),
                            docs, path_bound=3)
        jobs.append(Job(f"classify_restriction {name}",
                        call=lambda G=G: actions.classify_restriction(G),
                        check=_classify_check(*CORPUS_CLASSES.get(name, (True, True)))))
    for name, pa in corpus.partial_actions():
        path = docs.write(f"corpus_{name}.json", io.dump_premorphism(pa))
        jobs.append(Job(f"verify {name}", ["verify", path, "--json"], expect=0,
                        check=_json_check(_all_ok)))
        jobs.append(Job(f"pair_form_iso_check {name}",
                        call=lambda p=pa: actions.pair_form_iso_check(p),
                        check=_report_ok_check))

    def corpus_run_check(out):
        last = out.splitlines()[-1] if out else ""
        done, _, total = last.partition(" ")[0].partition("/")
        return None if done == total and done else f"corpus-run ended {last!r}"

    jobs.append(Job("corpus-run --builtin", ["corpus-run", "--builtin"], expect=0,
                    check=corpus_run_check))

    # malformed documents must give an input error (exit 2, the README's
    # exit-code contract); at the benchmark's first commit they raise or
    # exit 0, which counts as a failed job
    for name, command, doc in gen.malformed_documents(*first):
        path = docs.write(f"malformed_{name}.json", doc)
        jobs.append(Job(f"malformed {name}", [command, path], expect=2, robustness=True))
    return jobs


BUILDERS = {"tables": tables, "searches": searches, "structures": structures}
