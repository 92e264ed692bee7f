"""Command-line front end.

Exit codes: 0 all checks pass, 1 a check failed (witness printed),
2 input error, 3 no check failed but one is INCONCLUSIVE.
"""

from __future__ import annotations

import argparse
import sys

from . import actions, core, corpus, cover, io, product, relmonoid, resgraph
from .report import FAIL, INCONCLUSIVE, PASS, Report

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


def _emit(args, payload: dict, text_lines):
    if getattr(args, "json", False):
        print(io.dumps(payload, default=str))
    else:
        for line in text_lines:
            print(line)


def _report_payload(name, report):
    return {
        "report": name,
        "ok": report.ok,
        "checks": [{"name": c.name, "ok": c.ok, "witness": c.witness}
                   for c in report.checks],
    }


def _exit(reports) -> int:
    """The exit code of the combined status of all checks in reports."""
    status = Report([c for r in reports for c in r.checks]).status
    return {PASS: EXIT_OK, FAIL: EXIT_FAIL, INCONCLUSIVE: EXIT_INCONCLUSIVE}[status]


def _load(path, kind, command):
    """Load the document at path, which must be of the given kind."""
    got, obj = io.load_path(path)
    if got != kind:
        raise io.SchemaError(f"{command} expects a {kind} document")
    return obj


def _synthesized_semigroup(args):
    # largest ground sizes, by element count: |B(3)| = 512 (|B(4)| = 65,536),
    # |PT(4)| = 625 and |I(4)| = 209
    for flag, builder, bound in (("full_B", relmonoid.full_B, 3),
                                 ("full_PT", relmonoid.full_PT, 4),
                                 ("full_I", relmonoid.full_I, 4)):
        n = getattr(args, flag, None)
        if n is not None:
            if not 1 <= n <= bound:
                raise io.SchemaError(f"--{flag.replace('_', '-')} needs "
                                     f"ground size 1..{bound}, not {n}")
            return builder(n).to_semigroup()
    return None


def _document_reports(kind, obj, source, side=None, max_chain=None):
    """What verify checks on a document, and corpus-run reads: a (verdict,
    header lines, Report) triple per verdict, the Report None for a check
    that is skipped.  A relgen is checked as the semigroup it generates, and
    a premorphism on a semilattice ground as a partial action."""
    header = None
    if kind == "relgen":
        n, gens = obj
        alg = relmonoid.generate(n, gens)
        kind, obj = "semigroup", alg.to_semigroup()
        header = [f"generated {len(alg.elements)} relations on ground size {n}",
                  "ehresmann axioms:"]
    if kind == "semigroup":
        rep = core.verify_ehresmann(obj)
        out = [("ehresmann", header or [f"ehresmann axioms on {source}:"], rep)]
        if side and not rep.ok:
            out.append(("restriction",
                        ["skipping restriction check: Ehresmann axioms failed"], None))
        elif side:
            out.append(("restriction", [f"restriction ({side}):"],
                        core.verify_restriction(obj, side)))
        return out
    if kind == "resgraph":
        return [("graph_axioms", [f"graph axioms on {source}:"],
                 resgraph.check_axioms(obj, max_chain=max_chain))]
    if isinstance(obj, actions.PartialAction):
        return [("partial_action", [f"partial action laws on {source}:"],
                 actions.validate_partial_action(obj))]
    return [("partial_action", [f"premorphism laws on {source}:"],
             actions.validate_premorphism(obj))]


def cmd_verify(args) -> int:
    synth = _synthesized_semigroup(args)
    if synth is not None:
        kind, obj = "semigroup", synth
        if args.out:
            io.save(args.out, io.dump_semigroup(synth))
    elif args.path:
        kind, obj = io.load_path(args.path)
    else:
        raise io.SchemaError("verify needs a file or a --full-* flag")
    source = args.path if args.path else "synthesized monoid"
    reports, lines = [], []
    for _, header, rep in _document_reports(kind, obj, source, args.side, args.max_chain):
        lines += header
        if rep is not None:
            reports.append(rep)
            lines += rep.lines()
    _emit(args, {"reports": [_report_payload(source, r) for r in reports]}, lines)
    return _exit(reports)


class _NotEhresmannError(Exception):
    """The semigroup a command works on fails the Ehresmann axioms."""

    def __init__(self, report):
        super().__init__("not an Ehresmann semigroup")
        self.report = report


def _require_ehresmann(S):
    """Raise _NotEhresmannError when S fails the Ehresmann axioms; main then
    prints the failing ones and exits 1."""
    rep = core.verify_ehresmann(S)
    if not rep.ok:
        raise _NotEhresmannError(rep)


def _not_ehresmann(args, rep) -> int:
    """Print the failing Ehresmann axioms of a semigroup that fails them."""
    _emit(args, _report_payload("ehresmann", rep),
          ["not an Ehresmann semigroup:"] + [c.line() for c in rep.failures()])
    return _exit([rep])


def cmd_analyze(args) -> int:
    S = _load(args.path, "semigroup", args.command)
    _require_ehresmann(S)
    P = core.projections(S)
    orders = core.natural_orders(S)
    cong, quotient = core.sigma(S)
    proper = core.proper_elements(S)
    restr = core.verify_restriction(S, "both")
    strictly = len(proper) == S.n
    sizes = {
        "le_l": sum(row.count(True) for row in orders.le_l),
        "le_r": sum(row.count(True) for row in orders.le_r),
        "le": sum(row.count(True) for row in orders.le),
    }
    payload = {
        "n": S.n,
        "projections": [S.name(e) for e in P],
        "order_pair_counts": sizes,
        "sigma_classes": [[S.name(x) for x in cls] for cls in cong.classes],
        "quotient_size": quotient.n,
        "proper_elements": sorted(S.name(x) for x in proper),
        "strictly_proper": strictly,
        "left_restriction": restr["x y^+ = (x y)^+ x"].ok,
        "right_restriction": restr["x^* y = y (x y)^*"].ok,
    }
    lines = [
        f"elements: {S.n}",
        f"projections ({len(P)}): " + " ".join(S.name(e) for e in P),
        f"order pairs: le_l={sizes['le_l']} le_r={sizes['le_r']} le={sizes['le']}",
        f"sigma classes ({cong.num_classes()}): "
        + " | ".join(",".join(S.name(x) for x in cls) for cls in cong.classes),
        "quotient multiplication table:",
    ]
    for i in range(quotient.n):
        lines.append("  " + " ".join(quotient.name(quotient.mult[i][j])
                                     for j in range(quotient.n)))
    lines += [
        f"proper elements ({len(proper)}): "
        + " ".join(S.name(x) for x in sorted(proper)),
        f"strictly proper: {strictly}",
        f"left restriction: {payload['left_restriction']}",
        f"right restriction: {payload['right_restriction']}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_sigma(args) -> int:
    S = _load(args.path, "semigroup", args.command)
    _require_ehresmann(S)
    cong, quotient = core.sigma(S)
    payload = {
        "classes": [[S.name(x) for x in cls] for cls in cong.classes],
        "quotient": io.dump_semigroup(quotient),
    }
    lines = [f"sigma has {cong.num_classes()} classes:"]
    lines += ["  " + ",".join(S.name(x) for x in cls) for cls in cong.classes]
    _emit(args, payload, lines)
    if args.out:
        io.save(args.out, io.dump_semigroup(quotient))
    return EXIT_OK


def cmd_factorize(args) -> int:
    S = _load(args.path, "semigroup", args.command)
    seq = [int(x) for x in args.seq.split(",")]
    for s in seq:
        if not 0 <= s < S.n:
            raise io.SchemaError(f"element {s} out of range")
    _require_ehresmann(S)
    matching = core.is_matching(S, seq)
    out = core.matchify(S, seq)
    prod = S.prod(seq)
    payload = {
        "input": seq,
        "already_matching": matching,
        "matchified": out,
        "product": prod,
    }
    lines = [
        f"input, matching={matching}: " + " ".join(S.name(s) for s in seq),
        "matchified:               " + " ".join(S.name(s) for s in out),
        f"product: {S.name(prod)}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_graph_check(args) -> int:
    G = _load(args.path, "resgraph", args.command)
    rep = resgraph.check_axioms(G, max_chain=args.max_chain)
    reports = [rep]
    lines = ["edge axioms:"] + rep.lines()
    if rep.ok:
        prep = resgraph.path_laws(rep)
        reports.append(prep)
        lines += [f"path axioms up to length {args.path_bound}:"] + prep.lines()
    _emit(args, {"reports": [_report_payload(args.path, r) for r in reports]}, lines)
    return _exit(reports)


def cmd_product(args) -> int:
    G = _load(args.path, "resgraph", args.command)
    try:
        S, edges = product.build_product(G)
    except (product.PMViolationError, product.MissingProductError) as exc:
        print(f"FAIL  {exc.check}: {exc}")
        return EXIT_FAIL
    lines = [f"product has {S.n} elements"]
    reports = []
    if args.action == "build":
        if args.out:
            io.save(args.out, io.dump_semigroup(S))
            lines.append(f"wrote {args.out}")
    else:
        rep = core.verify_ehresmann(S)
        claims = product.check_construction_claims(G, built=(S, edges))
        reports = [rep, claims]
        lines += ["ehresmann axioms:"] + rep.lines()
        lines += ["construction claims:"] + claims.lines()
        try:
            ok = product.check_properness_criterion(G)
            lines.append(f"properness criterion: {ok}")
        except product.InapplicableError as exc:
            lines.append(f"properness criterion inapplicable: {exc}")
    _emit(args, {"n": S.n,
                 "reports": [_report_payload(args.path, r) for r in reports]},
          lines)
    return _exit(reports)


def _parse_gens(raw):
    return [int(x) for x in raw.split(",")]


def cmd_cover(args) -> int:
    S = _load(args.path, "semigroup", args.command)
    gens = _parse_gens(args.gens)
    if args.action == "build":
        cg = cover.build_cover_graph(S, gens)
        doc = io.dump_resgraph(cg.graph)
        doc["valuation"] = {a: cg.valuation[a] for a in cg.letters}
        lines = [f"cover graph: {len(cg.graph.edges)} edges "
                 f"over {cg.sl.n} projections"]
        if args.out:
            io.save(args.out, doc)
            lines.append(f"wrote {args.out}")
        _emit(args, doc, lines)
        return EXIT_OK
    if not core.verify_ehresmann(S).ok:
        cover.build_cover_graph(S, gens)  # input errors come before failed axioms
    _require_ehresmann(S)
    rep = cover.verify_cover(S, gens, len_bound=args.len_bound)
    _emit(args, _report_payload("cover", rep),
          [f"cover verification at length bound {args.len_bound}:"] + rep.lines())
    return _exit([rep])


def cmd_iso(args) -> int:
    S = _load(args.path, "semigroup", args.command)
    Y = _parse_gens(args.ideal) if args.ideal else None
    core.ideal_members(S, Y)  # input errors come before failed axioms
    _require_ehresmann(S)
    rep = product.structure_iso_check(S, Y)
    _emit(args, _report_payload("structure_iso", rep),
          ["structure isomorphism:"] + rep.lines())
    return _exit([rep])


def cmd_preimage(args) -> int:
    S = _load(args.path, "semigroup", args.command)
    gens = _parse_gens(args.gens)
    cg = cover.build_cover_graph(S, gens)
    s = args.element
    if not 0 <= s < S.n:
        raise io.SchemaError(f"element {s} out of range")
    # raises InvariantError, an input error, unless phi maps u back to s
    u = cover.canonical_preimage(cg, s)
    payload = {"element": s, "canonical": io.dump_canonical(u),
               "phi_round_trip": s}
    lines = [f"canonical preimage of {S.name(s)}: {u}",
             f"phi(preimage) = {S.name(s)}"]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_proper_ideal(args) -> int:
    S = _load(args.path, "semigroup", args.command)
    Y = _parse_gens(args.ideal) if args.ideal else list(range(S.n))
    # input errors come before failed axioms
    core.ideal_members(S, Y)
    if args.max_len < 1:
        raise io.SchemaError("max_len must be at least 1")
    _require_ehresmann(S)
    rep = core.check_proper_ideal(S, Y, max_len=args.max_len)
    payload = {"status": rep.status,
               "conditions": [{"name": c.name, "status": c.status,
                               "witness": c.witness} for c in rep.checks]}
    _emit(args, payload, [f"proper ideal check: {rep.status}"] + rep.lines())
    return _exit([rep])


def _corpus_expectations():
    out = []
    for name, S in corpus.semigroups():
        out.append((name, "semigroup", S, {"ehresmann": True}))
    for name, G in corpus.pm_graphs():
        out.append((name, "resgraph", G, {"graph_axioms": True}))
    for name, pa in corpus.partial_actions():
        out.append((name, "premorphism", pa, {"partial_action": True}))
    return out


def cmd_corpus_run(args) -> int:
    if args.builtin:
        entries = _corpus_expectations()
    elif not args.path:
        raise io.SchemaError("corpus-run needs a file or --builtin")
    else:
        raw = io.read_json(args.path)
        if not isinstance(raw, list):
            raise io.SchemaError("a corpus file must be a list of entries")
        entries = []
        for item in raw:
            kind, obj = io.load_document(io._need(item, "payload", "corpus entry"))
            name = io._need(item, "name", "corpus entry")
            expect = item.get("expect", {})
            if not isinstance(name, str) or not isinstance(expect, dict):
                raise io.SchemaError(f"corpus entry {name!r} needs a string name "
                                     "and an object expect")
            entries.append((name, kind, obj, expect))
    bad = 0
    for name, kind, obj, expect in entries:
        results = {verdict: rep.ok for verdict, _, rep in _document_reports(kind, obj, name)}
        ok = all(results.get(k) == v for k, v in expect.items())
        bad += 0 if ok else 1
        marks = " ".join(f"{k}={v}" for k, v in sorted(results.items()))
        print(f"{'PASS' if ok else 'FAIL'}  {name:<28} {marks}")
    print(f"{len(entries) - bad}/{len(entries)} corpus entries as expected")
    return EXIT_OK if bad == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehresmann",
        description="finite Ehresmann and restriction semigroup toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="axiom checks by document kind")
    p.add_argument("path", nargs="?")
    p.add_argument("--side", choices=["left", "right", "both"])
    p.add_argument("--max-chain", type=int, dest="max_chain",
                   help="cap on the chain length of R4/CR4 (default: none)")
    p.add_argument("--full-B", type=int, dest="full_B",
                   help="synthesize the full relation monoid on 1..3 points")
    p.add_argument("--full-PT", type=int, dest="full_PT",
                   help="synthesize the partial transformation monoid on 1..4 points")
    p.add_argument("--full-I", type=int, dest="full_I",
                   help="synthesize the symmetric inverse monoid on 1..4 points")
    p.add_argument("-o", "--out", help="write the synthesized semigroup")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="projections, orders, sigma, properness")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sigma", help="sigma classes and reduced quotient")
    p.add_argument("path")
    p.add_argument("-o", "--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("factorize", help="matching factorization of a sequence")
    p.add_argument("path")
    p.add_argument("--seq", required=True, help="comma-separated element indices")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("graph-check", help="edge and path axiom checks")
    p.add_argument("path")
    p.add_argument("--max-chain", type=int, dest="max_chain",
                   help="cap on the chain length of R4/CR4 (default: none)")
    p.add_argument("--path-bound", type=int, default=3, dest="path_bound",
                   help="kept for compatibility; only names the header, since the "
                        "path laws are read off the edge laws at every length")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_graph_check)

    p = sub.add_parser("product", help="build or check the product semigroup")
    p.add_argument("action", choices=["build", "check"])
    p.add_argument("path")
    p.add_argument("-o", "--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("cover", help="build or verify a proper cover")
    p.add_argument("action", choices=["build", "verify"])
    p.add_argument("path")
    p.add_argument("--gens", required=True)
    p.add_argument("--len", type=int, default=3, dest="len_bound")
    p.add_argument("-o", "--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("iso", help="structure isomorphism check")
    p.add_argument("path")
    p.add_argument("--ideal", help="comma-separated generating ideal")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("preimage", help="canonical cover preimage of an element")
    p.add_argument("path")
    p.add_argument("--gens", required=True)
    p.add_argument("--element", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_preimage)

    p = sub.add_parser("proper-ideal", help="proper generating ideal conditions")
    p.add_argument("path")
    p.add_argument("--ideal")
    p.add_argument("--max-len", type=int, default=3, dest="max_len")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_proper_ideal)

    p = sub.add_parser("corpus-run", help="run the corpus with expectations")
    p.add_argument("path", nargs="?")
    p.add_argument("--builtin", action="store_true")
    p.set_defaults(func=cmd_corpus_run)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except _NotEhresmannError as exc:
        return _not_ehresmann(args, exc.report)
    # io.SchemaError, core.MalformedTableError and cover.GeneratorError are
    # ValueErrors
    except (ValueError, relmonoid.ClosureOverflowError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
