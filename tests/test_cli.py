import contextlib
import json
import sys
from io import StringIO

import pytest

from ehresmann import cli, core, corpus, cover, io
from ehresmann.cli import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_INPUT, EXIT_OK


def _first_difference(text):
    """The first line where text differs from the indent=2, sort_keys=True
    encoding of its own content, or None where they are equal."""
    want = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    if text == want:
        return None
    return next((i, a, b) for i, (a, b) in enumerate(zip(text.split("\n") + [None],
                                                          want.split("\n") + [None]))
                if a != b)


@pytest.fixture(autouse=True)
def canonical_json(monkeypatch):
    """Every cli.main call in this module: the stdout of a --json command
    that does not end in an input error, and every file written with -o,
    equal the indent=2, sort_keys=True encoding of their own content."""
    main = cli.main

    def checked(argv):
        out = StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = main(argv)
        finally:
            sys.stdout.write(out.getvalue())
        if code != EXIT_INPUT:
            if "--json" in argv:
                assert _first_difference(out.getvalue()) is None, argv
            if "-o" in argv:
                with open(argv[argv.index("-o") + 1]) as fh:
                    assert _first_difference(fh.read()) is None, argv
        return code

    monkeypatch.setattr(cli, "main", checked)


@pytest.fixture
def b2_file(tmp_path):
    path = tmp_path / "b2.json"
    io.save(path, io.dump_semigroup(corpus.rel_b2()))
    return str(path)


@pytest.fixture
def pt2_file(tmp_path):
    path = tmp_path / "pt2.json"
    io.save(path, io.dump_semigroup(corpus.rel_pt2()))
    return str(path)


@pytest.fixture
def e2_file(tmp_path):
    path = tmp_path / "e2.json"
    io.save(path, io.dump_semigroup(corpus.chain(2)))
    return str(path)


@pytest.fixture
def e2t2_graph_file(tmp_path):
    path = tmp_path / "e2t2.json"
    io.save(path, io.dump_resgraph(corpus.e2t2_graph()))
    return str(path)


def test_verify_b2_passes(b2_file, capsys):
    assert cli.main(["verify", b2_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_broken_semigroup(tmp_path, capsys):
    doc = io.dump_semigroup(corpus.chain(2))
    doc["plus"] = [0, 0]  # breaks x^+ x = x
    path = tmp_path / "broken.json"
    io.save(path, doc)
    assert cli.main(["verify", str(path)]) == EXIT_FAIL
    out = capsys.readouterr().out
    assert "witness" in out


def _edited(doc, edit):
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return doc


def test_verify_malformed_table(tmp_path, capsys):
    # each True or False stands where a valid document has a 1 or a 0
    docs = []
    for mult in ([[0, 9], [0, 1]], 4, [[0, 0], 1], [[0, 0], [0, True]]):
        doc = io.dump_semigroup(corpus.chain(2))
        doc["mult"] = mult
        docs.append(doc)
    for part, key, tables in (
            ("semilattice", "meet", (4, [[0, 0], 1], [[0, 0], [0, True]])),
            ("monoid", "mult", (4, [[0, 1], 1], [[0, True], [1, 1]]))):
        for table in tables:
            doc = io.dump_resgraph(corpus.e2t2_graph())
            doc[part][key] = table
            docs.append(doc)
    graph = io.dump_resgraph(corpus.e2t2_graph())
    assert graph["edges"][1]["l"] == graph["edges"][2]["d"] == 1
    assert graph["monoid"]["identity"] == 0
    docs += [_edited(graph, edit) for edit in (
        lambda d: d["edges"][1].update(l=True),
        lambda d: d["edges"][2].update(d=True),
        lambda d: d["monoid"].update(identity=False),
        lambda d: d["restrict"][0].update(edge=len(d["edges"]) + 5),
        lambda d: d["restrict"][0].update(edge=-1),
        lambda d: d["edges"].__setitem__(0, 7),
        lambda d: d.update(edges=5),
        lambda d: d.update(restrict=5),
        lambda d: d.update(corestrict={"edge": 0}),
        lambda d: d["edges"][0].update(d=[1]),
        lambda d: d["edges"][0].update(r={"v": 1}),
        lambda d: d["restrict"][0].update(g=[0]),
        lambda d: d["corestrict"][0].update(h={"v": 0}))]
    cover_graph = io.dump_resgraph(cover.build_cover_graph(
        corpus.chain(2), [0, 1]).graph)
    docs += [_edited(cover_graph, edit) for edit in (
        lambda d: d["edges"][0].update(l=[["x0"]]),
        lambda d: d["monoid"].update(alphabet=[["x0"], "x1"]),
        lambda d: d["monoid"].update(alphabet=5))]
    premorphism = io.dump_premorphism(corpus.pa_chain2())
    docs += [_edited(premorphism, edit) for edit in (
        lambda d: d.update(ground=3),
        lambda d: d.update(phi=[[0, 0]]),
        lambda d: d["phi"].update({"0": 5}),
        lambda d: d["phi"].update({"0": [[0, 0], 1]}),
        lambda d: d["phi"].update({"1": [[0, "1"]]}))]
    docs.append(_edited(io.dump_semigroup(corpus.chain(2)),
                        lambda d: d["elements"].__setitem__(0, 7)))
    for version in (9, True):
        docs.append(_edited(io.dump_semigroup(corpus.chain(2)),
                            lambda d: d.update(version=version)))
    docs.append(_edited(io.dump_semigroup(corpus.chain(2)),
                        lambda d: d.update(elements=2)))
    relgen = io.dump_relgen(2, [corpus.Rel.from_pairs(2, [(0, 1), (1, 0)])])
    assert relgen["ground_size"] == 2 and relgen["generators"] == [[[0, 1], [1, 0]]]
    docs += [_edited(relgen, lambda d: d.update(**edit)) for edit in (
        {"ground_size": "2"}, {"ground_size": True, "generators": [[[0, 0]]]},
        {"generators": 5}, {"generators": [[0, 1]]}, {"generators": [[[0, "1"]]]})]
    cases = [(["verify"], doc, []) for doc in docs]
    entry = {"name": "e2", "payload": io.dump_semigroup(corpus.chain(2)),
             "expect": {"ehresmann": True}}
    cases += [(["corpus-run"], corpus_doc, []) for corpus_doc in (
        [{"name": "no_payload", "expect": {"ehresmann": True}}],
        7,
        [dict(entry, expect=[True])],
        [dict(entry, name=["e2"])])]
    # the projection 1 times itself is 2, which is not a projection
    t3zero = _edited(io.dump_semigroup(dict(corpus.semigroups())["singleton_t3zero_product"]),
                     lambda d: d.update(plus=[0, 1, 0], star=[0, 1, 0]))
    cases += [(command, t3zero, ["--gens", "0,1,2"] + extra) for command, extra in (
        (["cover", "build"], []), (["cover", "verify"], []), (["preimage"], ["--element", "0"]))]
    for i, (command, doc, extra) in enumerate(cases):
        path = tmp_path / f"malformed{i}.json"
        io.save(path, doc)
        assert cli.main(command + [str(path)] + extra) == EXIT_INPUT, doc


def test_verify_unreadable_file():
    assert cli.main(["verify", "/nonexistent/file.json"]) == EXIT_INPUT
    assert cli.main(["corpus-run", "/nonexistent/file.json"]) == EXIT_INPUT


@pytest.mark.parametrize("command", [
    ["verify", "--full-B", "1"],
    ["sigma", "PT2"],
    ["product", "build", "E2T2"],
    ["cover", "build", "PT2", "--gens", "1,4,5"],
])
def test_unwritable_output_is_input_error(command, pt2_file, e2t2_graph_file, tmp_path,
                                          capsys):
    # a file that cannot be written is an input error, not a traceback
    out = tmp_path / "missing" / "x.json"
    argv = [{"PT2": pt2_file, "E2T2": e2t2_graph_file}.get(a, a) for a in command]
    assert cli.main(argv + ["-o", str(out)]) == EXIT_INPUT
    assert f"input error: cannot write {out}:" in capsys.readouterr().err
    assert not out.parent.exists()


def test_verify_restriction_side(pt2_file, capsys):
    assert cli.main(["verify", pt2_file, "--side", "left"]) == EXIT_OK
    assert cli.main(["verify", pt2_file, "--side", "right"]) == EXIT_FAIL
    out = capsys.readouterr().out
    assert "witness" in out


def test_verify_resgraph_max_chain(e2t2_graph_file):
    assert cli.main(["verify", e2t2_graph_file, "--max-chain", "4"]) == EXIT_OK


def test_verify_relgen(tmp_path):
    doc = io.dump_relgen(2, [corpus.Rel.from_pairs(2, [(0, 1), (1, 0)])])
    path = tmp_path / "gen.json"
    io.save(path, doc)
    assert cli.main(["verify", str(path)]) == EXIT_OK


def test_relgen_closure_over_the_cap_is_input_error(tmp_path, monkeypatch, capsys):
    # these two relations on two points generate 8 elements
    doc = io.dump_relgen(2, [corpus.Rel.from_pairs(2, [(0, 0), (0, 1)]),
                             corpus.Rel.from_pairs(2, [(1, 0)])])
    path, entries = tmp_path / "gen.json", tmp_path / "corpus.json"
    io.save(path, doc)
    io.save(entries, [{"name": "gen", "payload": doc, "expect": {"ehresmann": True}}])
    monkeypatch.setenv("EHRESMANN_MAX_CLOSURE", "3")
    assert cli.main(["verify", str(path)]) == EXIT_INPUT
    assert cli.main(["corpus-run", str(entries)]) == EXIT_INPUT
    assert capsys.readouterr().err == "input error: closure exceeded cap of 3 elements\n" * 2


def test_relgen_cap_that_is_not_an_integer_is_input_error(tmp_path, monkeypatch, capsys):
    doc = io.dump_relgen(2, [corpus.Rel.from_pairs(2, [(0, 1), (1, 0)])])
    path, entries = tmp_path / "gen.json", tmp_path / "corpus.json"
    io.save(path, doc)
    io.save(entries, [{"name": "gen", "payload": doc, "expect": {"ehresmann": True}}])
    monkeypatch.setenv("EHRESMANN_MAX_CLOSURE", "abc")
    assert cli.main(["verify", str(path)]) == EXIT_INPUT
    assert cli.main(["corpus-run", str(entries)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "input error: EHRESMANN_MAX_CLOSURE must be an integer, not 'abc'\n" * 2)


def test_analyze_semilattice(e2_file, capsys):
    assert cli.main(["analyze", e2_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "sigma classes (1)" in out
    assert "strictly proper: True" in out


def test_analyze_pt2(pt2_file, capsys):
    assert cli.main(["analyze", pt2_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "left restriction: True" in out
    assert "right restriction: False" in out


def test_analyze_reduced(tmp_path, capsys):
    path = tmp_path / "z4.json"
    io.save(path, io.dump_semigroup(corpus.cyclic_group(4)))
    assert cli.main(["analyze", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "projections (1):" in out


def test_sigma_command(pt2_file, capsys):
    assert cli.main(["sigma", pt2_file]) == EXIT_OK
    assert "classes" in capsys.readouterr().out


def test_factorize_command(pt2_file, capsys):
    assert cli.main(["factorize", pt2_file, "--seq", "3,5,7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "matchified" in out


def test_graph_check(e2t2_graph_file, capsys):
    # the path laws follow from the edge laws at every length, so each bound
    # gives the same lines under its own header
    laws = ["R3a", "R4a", "CR3a", "CR4a", "Ca"]
    for bound in ("0", "1", "3", "6"):
        assert cli.main(["graph-check", e2t2_graph_file, "--path-bound", bound]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert "PASS  R4" in out
        header = out.index(f"path axioms up to length {bound}:")
        assert out[header + 1:] == [f"PASS  {law}" for law in laws]
        assert cli.main(["graph-check", e2t2_graph_file, "--path-bound", bound,
                         "--json"]) == EXIT_OK
        edge, path = json.loads(capsys.readouterr().out)["reports"]
        assert edge["ok"] and path["ok"]
        assert path["checks"] == [{"name": law, "ok": True, "witness": None}
                                  for law in laws]


def test_product_build_and_check(e2t2_graph_file, tmp_path, capsys):
    out_path = tmp_path / "prod.json"
    assert cli.main(["product", "build", e2t2_graph_file,
                     "-o", str(out_path)]) == EXIT_OK
    kind, S = io.load_path(out_path)
    assert kind == "semigroup" and S.n == 4
    assert cli.main(["product", "check", e2t2_graph_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "construction claims" in out


def test_cover_build_and_verify(e2_file, tmp_path, capsys):
    out_path = tmp_path / "cover.json"
    assert cli.main(["cover", "build", e2_file, "--gens", "0,1",
                     "-o", str(out_path)]) == EXIT_OK
    with open(out_path) as fh:
        doc = json.load(fh)
    assert doc["kind"] == "resgraph" and "valuation" in doc
    assert cli.main(["cover", "verify", e2_file, "--gens", "0,1",
                     "--len", "3"]) == EXIT_OK


def test_cover_bad_generators(pt2_file):
    assert cli.main(["cover", "verify", pt2_file, "--gens", "0"]) == EXIT_INPUT


def test_iso_command(e2_file, tmp_path, capsys):
    assert cli.main(["iso", e2_file]) == EXIT_OK
    # a non strictly proper semigroup fails with the collision printed
    path = tmp_path / "i2.json"
    io.save(path, io.dump_semigroup(corpus.rel_i2()))
    assert cli.main(["iso", str(path)]) == EXIT_FAIL
    assert "triple_map_injective" in capsys.readouterr().out


def test_iso_ideal_failures(tmp_path, capsys):
    # a Y that is not a proper ideal is reported with the failing conditions
    # (1)-(3) of proper-ideal; a Y short of S fails at the first element of S
    # outside it
    named = dict(corpus.semigroups())
    for name, ideal, lines in (
            ("pt2", "0,1,6,7", ["FAIL  Y_elements_proper  witness=(7, 5)"]),
            ("pt2", "1,2", ["FAIL  projections_in_Y  witness=(0, 6, 7)",
                            "FAIL  Y_is_order_ideal  witness=(0, 1)"]),
            ("z2", "0", ["FAIL  triple_map_defined_on_S  witness=(1,)"]),
            ("e2t2_product", "0,2", ["FAIL  triple_map_defined_on_S  witness=(1,)"])):
        path = tmp_path / f"{name}.json"
        io.save(path, io.dump_semigroup(named[name]))
        capsys.readouterr()
        assert cli.main(["iso", str(path), "--ideal", ideal]) == EXIT_FAIL
        assert capsys.readouterr().out.splitlines()[-len(lines):] == lines
        if name == "pt2":
            assert cli.main(["proper-ideal", str(path), "--ideal", ideal]) == EXIT_FAIL
            assert set(lines) <= set(capsys.readouterr().out.splitlines())


def test_preimage_command(pt2_file, capsys):
    _, _, gens = corpus.cover_cases()[1]
    gens_arg = ",".join(str(g) for g in gens)
    for element in (0, 4, 8):
        assert cli.main(["preimage", pt2_file, "--gens", gens_arg,
                         "--element", str(element)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "phi(preimage)" in out


@pytest.mark.parametrize("command, extra", [(["cover", "build"], []),
                                            (["preimage"], ["--element", "0"])])
def test_non_generating_set_is_input_error(command, extra, pt2_file, capsys):
    # the closure of 1 and 4 never reaches every element, so it runs to the
    # end and names all six it misses
    assert cli.main(command + [pt2_file, "--gens", "1,4"] + extra) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == "input error: [1, 4] does not generate: missing [0, 2, 3, 5, 6, 8]\n"
    assert captured.out == ""


def test_proper_ideal_command(e2_file, tmp_path, capsys):
    assert cli.main(["proper-ideal", e2_file]) == EXIT_OK
    path = tmp_path / "i2.json"
    io.save(path, io.dump_semigroup(corpus.rel_i2()))
    assert cli.main(["proper-ideal", str(path)]) == EXIT_FAIL


def test_proper_ideal_inconclusive(tmp_path, capsys):
    # on S3 the element 2 needs a factorization of length 2 over {0, 1, 3}
    path = tmp_path / "s3.json"
    io.save(path, io.dump_semigroup(corpus.symmetric_group_3()))
    argv = ["proper-ideal", str(path), "--ideal", "0,1,3", "--max-len", "1"]
    capsys.readouterr()
    assert cli.main(argv) == EXIT_INCONCLUSIVE
    assert capsys.readouterr().out.splitlines() == [
        "proper ideal check: INCONCLUSIVE",
        "PASS  projections_in_Y",
        "PASS  Y_is_order_ideal",
        "PASS  Y_elements_proper",
        "INCONCLUSIVE  factorization_exists  witness=(2, 2)",
        "PASS  factorizations_equivalent",
    ]
    assert cli.main(argv + ["--json"]) == EXIT_INCONCLUSIVE
    assert json.loads(capsys.readouterr().out) == {
        "status": "INCONCLUSIVE",
        "conditions": [
            {"name": "projections_in_Y", "status": "PASS", "witness": None},
            {"name": "Y_is_order_ideal", "status": "PASS", "witness": None},
            {"name": "Y_elements_proper", "status": "PASS", "witness": None},
            {"name": "factorization_exists", "status": "INCONCLUSIVE",
             "witness": [2, 2]},
            {"name": "factorizations_equivalent", "status": "PASS",
             "witness": None},
        ]}


def test_corpus_run_builtin(capsys):
    assert cli.main(["corpus-run", "--builtin"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "corpus entries as expected" in out


def test_corpus_run_file(tmp_path, capsys):
    entries = [
        {"name": "e2", "payload": io.dump_semigroup(corpus.chain(2)),
         "expect": {"ehresmann": True}},
        {"name": "e2t2", "payload": io.dump_resgraph(corpus.e2t2_graph()),
         "expect": {"graph_axioms": True}},
        {"name": "pa", "payload": io.dump_premorphism(corpus.pa_chain2()),
         "expect": {"partial_action": True}},
    ]
    path = tmp_path / "corpus.json"
    with open(path, "w") as fh:
        json.dump(entries, fh)
    assert cli.main(["corpus-run", str(path)]) == EXIT_OK
    assert "3/3" in capsys.readouterr().out


def test_kind_mismatch_is_input_error(e2t2_graph_file, e2_file, capsys):
    assert cli.main(["analyze", e2t2_graph_file]) == EXIT_INPUT
    assert cli.main(["graph-check", e2_file]) == EXIT_INPUT
    assert cli.main(["product", "check", e2_file]) == EXIT_INPUT


def test_analyze_non_ehresmann(tmp_path, capsys):
    doc = io.dump_semigroup(corpus.chain(2))
    doc["star"] = [0, 0]
    path = tmp_path / "broken.json"
    io.save(path, doc)
    assert cli.main(["analyze", str(path)]) == EXIT_FAIL
    assert "not an Ehresmann semigroup" in capsys.readouterr().out


def test_sigma_quotient_output(pt2_file, tmp_path):
    out = tmp_path / "q.json"
    assert cli.main(["sigma", pt2_file, "-o", str(out)]) == EXIT_OK
    kind, Q = io.load_path(out)
    assert kind == "semigroup" and Q.n == 1  # the empty map collapses sigma


def test_factorize_long_sequence(tmp_path, capsys):
    # matchify runs one pass per factor, not one stack frame
    path = tmp_path / "s3.json"
    S = corpus.symmetric_group_3()
    io.save(path, io.dump_semigroup(S))
    seq = [1, 2, 3, 4, 5, 0] * 250
    assert cli.main(["factorize", str(path), "--seq", ",".join(map(str, seq)),
                     "--json"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)["matchified"]
    assert len(out) == 1500
    assert core.is_matching(S, out) and S.prod(out) == S.prod(seq)


def test_factorize_element_out_of_range(pt2_file):
    assert cli.main(["factorize", pt2_file, "--seq", "3,99"]) == EXIT_INPUT


def test_json_flag_outputs_json(b2_file, capsys):
    assert cli.main(["verify", b2_file, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["reports"][0]["ok"] is True


def test_full_monoid_synthesis_flags(tmp_path, capsys):
    assert cli.main(["verify", "--full-B", "2"]) == EXIT_OK
    assert cli.main(["verify", "--full-I", "2", "--side", "both"]) == EXIT_OK
    assert cli.main(["verify", "--full-PT", "2", "--side", "right"]) == EXIT_FAIL
    out_path = tmp_path / "i2.json"
    assert cli.main(["verify", "--full-I", "2", "-o", str(out_path)]) == EXIT_OK
    kind, S = io.load_path(out_path)
    assert kind == "semigroup" and S.n == 7
    capsys.readouterr()
    assert cli.main(["verify", "--full-I", "4", "--side", "both"]) == EXIT_OK
    assert cli.main(["verify", "--full-B", "4"]) == EXIT_INPUT
    assert cli.main(["verify", "--full-PT", "5"]) == EXIT_INPUT
    assert cli.main(["verify"]) == EXIT_INPUT


def test_premorphism_document(tmp_path):
    path = tmp_path / "pm.json"
    io.save(path, io.dump_premorphism(corpus.pa_chain2()))
    assert cli.main(["verify", str(path)]) == EXIT_OK


@pytest.mark.parametrize("side", ["left", "right", "both"])
def test_relgen_verify_reads_the_side_of_its_semigroup(side, tmp_path, capsys):
    # the eight-element monoid is Ehresmann and right but not left restriction
    relgen, table = tmp_path / "eight_relgen.json", tmp_path / "eight.json"
    io.save(relgen, io.dump_relgen(2, corpus._eight_generators()))
    io.save(table, io.dump_semigroup(corpus.eight_monoid()))
    code = cli.main(["verify", str(relgen), "--side", side])
    out = capsys.readouterr().out.splitlines()
    assert cli.main(["verify", str(table), "--side", side]) == code
    assert out[2:] == capsys.readouterr().out.splitlines()[1:]
    assert out[:2] == ["generated 8 relations on ground size 2", "ehresmann axioms:"]
    assert code == (EXIT_OK if side == "right" else EXIT_FAIL)
    assert ("FAIL  x y^+ = (x y)^+ x  witness=(0, 0)" in out) == (side != "right")


def test_verify_non_injective_partial_action_fails(tmp_path, capsys):
    # phi_t = {(0,0),(1,0)} satisfies the premorphism laws but is not a
    # partial bijection
    pa = corpus.pa_chain2()
    pa.phi[1] = corpus.Rel.from_pairs(2, [(0, 0), (1, 0)])
    path = tmp_path / "pa.json"
    io.save(path, io.dump_premorphism(pa))
    assert cli.main(["verify", str(path)]) == EXIT_FAIL
    assert capsys.readouterr().out.splitlines() == [
        f"partial action laws on {path}:", "PASS  relations_nonempty",
        "PASS  identity_in_phi_1", "PASS  phi_s_phi_t_in_phi_st",
        "FAIL  relations_are_partial_bijections  witness=(1,)"]


def test_deterministic_output(e2t2_graph_file, capsys):
    cli.main(["product", "check", e2t2_graph_file])
    first = capsys.readouterr().out
    cli.main(["product", "check", e2t2_graph_file])
    second = capsys.readouterr().out
    assert first == second


def test_failed_laws_exit_1_not_2(tmp_path, capsys):
    # restriction of the loop (f,1,f) to f gives (e,1,e): R1 fails, and
    # the product of (f,1,f) with itself is (f,1,e), which is not an edge
    G = corpus.e2t2_graph()
    edges = G.sorted_edges()
    doc = io.dump_resgraph(G)
    for item in doc["restrict"]:
        if (edges[item["edge"]], item["g"]) == ((0, 0, 0), 0):
            item["to"] = edges.index((1, 0, 1))
    graph = tmp_path / "e2t2_r1.json"
    io.save(graph, doc)
    for command in (["verify"], ["graph-check"]):
        assert cli.main(command + [str(graph)]) == EXIT_FAIL
        out = capsys.readouterr().out
        assert "FAIL  R1  witness=((0, 0, 0), 0, (1, 0, 1))" in out, command
        assert "FAIL  R3  witness=((0, 0, 0), 0, 0)" in out, command
        assert "FAIL  R4  witness=(((0, 0, 0), (0, 0, 0)), 0)" in out, command
    for action in ("build", "check"):
        assert cli.main(["product", action, str(graph)]) == EXIT_FAIL
        assert capsys.readouterr().out == (
            "FAIL  edge product: product of (0, 0, 0) and (0, 0, 0) is (0, 0, 1), "
            "which is not an edge\n")

    # cover verify checks the Ehresmann axioms first
    doc = io.dump_semigroup(dict(corpus.semigroups())["pt2"])
    doc["mult"][3][8] = 2
    table = tmp_path / "pt2_bad.json"
    io.save(table, doc)
    assert cli.main(["verify", str(table)]) == EXIT_FAIL
    assert "FAIL  associativity  witness=(1, 3, 8)" in capsys.readouterr().out
    assert cli.main(["cover", "verify", str(table), "--gens", "1,4,5"]) == EXIT_FAIL
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["not an Ehresmann semigroup:",
                       "FAIL  associativity  witness=(1, 3, 8)"]
    # a generator out of range is still an input error
    assert cli.main(["cover", "verify", str(table), "--gens", "1,99"]) == EXIT_INPUT


def test_table_commands_check_the_axioms_first(tmp_path, capsys):
    # corpus pt2 with one product changed is not associative; sigma, iso,
    # proper-ideal and factorize print the failing axioms instead of their
    # results
    doc = io.dump_semigroup(dict(corpus.semigroups())["pt2"])
    doc["mult"][3][8] = 2
    table = str(tmp_path / "pt2_bad.json")
    io.save(table, doc)
    for command in (["sigma"], ["iso"], ["proper-ideal"], ["iso", "--ideal", "0,1,6,7"],
                    ["factorize", "--seq", "0,1"]):
        assert cli.main([command[0], table] + command[1:]) == EXIT_FAIL, command
        assert capsys.readouterr().out.splitlines() == [
            "not an Ehresmann semigroup:",
            "FAIL  associativity  witness=(1, 3, 8)",
            "FAIL  (x y)^+ = (x y^+)^+  witness=(3, 8)"], command
    assert cli.main(["sigma", table, "--json"]) == EXIT_FAIL
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"] == "ehresmann" and not payload["ok"]
    # an ideal member or factor out of range, a bad sequence or no length
    # bound is still an input error
    for command in ("iso", "proper-ideal"):
        assert cli.main([command, table, "--ideal", "0,99"]) == EXIT_INPUT, command
    assert cli.main(["proper-ideal", table, "--max-len", "0"]) == EXIT_INPUT
    for seq in ("0,99", "0,x", ""):
        assert cli.main(["factorize", table, "--seq", seq]) == EXIT_INPUT, seq


# one value of each JSON type for the document fuzzer, with ints that are in
# and out of range (of a table and of a byte) and containers that are empty
# or not
_FUZZ_VALUES = [None, "x", "0", -1, 0, 1, 2, 7, 255, 256, 300, 0.5, 1.0, True, False,
                [], [0, 1], [[0, 1]], {}, {"0": [[0, 0]]}]


def _semigroup_commands(gens):
    """The commands that read a semigroup document, over generators gens."""
    return ["verify {}", "verify {} --side both", "analyze {}", "sigma {}",
            f"factorize {{}} --seq {gens}", f"cover build {{}} --gens {gens}",
            f"cover verify {{}} --gens {gens} --len 2", "iso {}",
            f"preimage {{}} --gens {gens} --element 1", "proper-ideal {} --max-len 2"]


def _fuzz_documents():
    """(document, commands that read it, {} standing for its path) for every
    document kind, each also wrapped as the one entry of a corpus file.  The
    eight-element monoid's table is loaded as bytes rows."""
    from ehresmann import actions, relmonoid

    pm = actions.graph_to_premorphism(corpus.e2t2_graph())
    kinds = [
        (io.dump_semigroup(corpus.flip_flop()), _semigroup_commands("0,1,2")),
        (io.dump_semigroup(corpus.eight_monoid()), _semigroup_commands("0,1")),
        (io.dump_resgraph(corpus.e2t2_graph()),
         ["verify {}", "graph-check {}", "product build {}", "product check {}"]),
        (io.dump_resgraph(cover.build_cover_graph(corpus.chain(2), [0, 1]).graph),
         ["verify {}", "graph-check {}", "product check {}"]),
        (io.dump_relgen(2, [relmonoid.Rel.from_pairs(2, [(0, 1)]),
                            relmonoid.Rel.from_pairs(2, [(0, 0), (1, 0)])]),
         ["verify {}", "verify {} --side both"]),
        (io.dump_premorphism(pm), ["verify {}"]),
        (io.dump_premorphism(corpus.pa_chain2()), ["verify {}"]),
        (io.dump_premorphism(actions.Premorphism(pm.mon, pm.ground, pm.phi)),
         ["verify {}"]),
    ]
    wrapped = [([{"name": "fuzzed", "expect": {}, "payload": doc}], ["corpus-run {}"])
               for doc, _ in kinds]
    return kinds + wrapped


def _slots(doc, path=()):
    """The path of every value inside doc, nested list entries included."""
    if path:
        yield path
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _slots(value, path + (key,))


def test_document_fuzzer_never_raises(tmp_path, capsys):
    """One field of a valid document set to another JSON type or deleted:
    every command that reads the document exits 0, 1, 2 or 3."""
    import copy
    import random

    rng = random.Random(7)
    path = tmp_path / "fuzzed.json"
    codes = set()
    for doc, commands in _fuzz_documents():
        slots = list(_slots(doc))
        for _ in range(40):
            fuzzed = copy.deepcopy(doc)
            where = rng.choice(slots)
            parent = fuzzed
            for key in where[:-1]:
                parent = parent[key]
            if isinstance(parent, dict) and rng.random() < 0.2:
                del parent[where[-1]]
            else:
                parent[where[-1]] = copy.deepcopy(rng.choice(_FUZZ_VALUES))
            path.write_text(json.dumps(fuzzed))
            for command in commands:
                argv = [str(path) if a == "{}" else a for a in command.split()]
                code = cli.main(argv)
                capsys.readouterr()
                assert code in (EXIT_OK, EXIT_FAIL, EXIT_INPUT, EXIT_INCONCLUSIVE), (
                    argv, where, fuzzed)
                codes.add(code)
    assert codes >= {EXIT_OK, EXIT_FAIL, EXIT_INPUT}, codes


def _differential_documents(rng):
    """Every builtin corpus entry, plain premorphisms, seeded partial actions
    and seeded relgens, each followed by two one-edit and two two-edit
    perturbations of it."""
    from ehresmann import actions, relmonoid
    from oracles import perturbed_document, random_partial_action

    dump = {"semigroup": io.dump_semigroup, "resgraph": io.dump_resgraph,
            "premorphism": io.dump_premorphism}
    docs = [dump[kind](obj) for _, kind, obj, _ in cli._corpus_expectations()]
    docs += [io.dump_premorphism(actions.graph_to_premorphism(G))
             for G in (corpus.e2t2_graph(), corpus.e2t2_reverse_graph(),
                       corpus.complete2_t2_graph())]
    docs += [io.dump_premorphism(random_partial_action(rng, k)) for k in (2, 3, 3, 4)]
    docs.append(io.dump_relgen(2, corpus._eight_generators()))
    docs += [io.dump_relgen(2, [relmonoid.Rel(2, rng.randrange(16))
                                for _ in range(rng.randint(1, 3))]) for _ in range(6)]
    docs += [io.dump_relgen(3, [relmonoid.Rel(3, rng.randrange(512))]) for _ in range(2)]
    out = []
    for doc in docs:
        out.append(doc)
        for edits in (1, 1, 2, 2):
            for _ in range(edits):
                doc = perturbed_document(doc, rng)
            out.append(doc)
    return out


def test_verify_and_corpus_run_share_one_verdict(tmp_path, capsys):
    """Against the per-kind tables verify and corpus-run each kept before
    they shared one dispatch: every answer is the same, except that a relgen
    under --side answers as the document of the semigroup it generates, and
    a partial action by validate_partial_action; verify's exit code without
    --side is 0 exactly when corpus-run reads every verdict true."""
    import collections
    import random

    from ehresmann import actions, relmonoid
    from oracles import (parent_corpus_results, parent_validate_partial_action,
                         parent_verify_reports)

    path, generated = tmp_path / "doc.json", tmp_path / "generated.json"
    seen, entries, plain_codes = collections.Counter(), [], []
    for i, doc in enumerate(_differential_documents(random.Random(11))):
        path.write_text(json.dumps(doc))
        try:
            kind, obj = io.load_path(path)
        except ValueError:
            continue
        for side in ([None, "left", "right", "both"]
                     if kind in ("semigroup", "relgen") else [None]):
            argv = ["verify", str(path)] + (["--side", side] if side else [])
            code = cli.main(argv)
            out = capsys.readouterr().out.splitlines()
            try:
                lines, reports = parent_verify_reports(kind, obj, str(path), side)
            except (ValueError, relmonoid.ClosureOverflowError):
                assert code == EXIT_INPUT, argv
                continue
            if kind == "relgen" and side:
                generated.write_text(json.dumps(io.dump_semigroup(
                    relmonoid.generate(*obj).to_semigroup())))
                assert cli.main(["verify", str(generated), "--side", side]) == code
                assert out[2:] == capsys.readouterr().out.splitlines()[1:], argv
                assert out[:len(lines)] == lines, argv
                seen[f"relgen --side exit {cli._exit(reports)} -> {code}"] += 1
            elif isinstance(obj, actions.PartialAction):
                rep = parent_validate_partial_action(obj)
                assert actions.validate_partial_action(obj).checks == rep.checks
                assert out == [f"partial action laws on {path}:"] + rep.lines(), argv
                assert code == cli._exit([rep]), argv
                seen[f"partial action exit {cli._exit(reports)} -> {code}"] += 1
            else:
                assert (code, out) == (cli._exit(reports), lines), argv
            if side is None:
                plain_codes.append(code)
        entries.append({"name": f"doc{i}", "expect": {}, "payload": doc})
        seen[kind] += 1

    corpus_file = tmp_path / "corpus.json"
    corpus_file.write_text(json.dumps(entries))
    assert cli.main(["corpus-run", str(corpus_file)]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[:-1]
    assert len(rows) == len(entries) == len(plain_codes)
    for row, entry, code in zip(rows, entries, plain_codes):
        results = dict(mark.split("=") for mark in row.split()[2:])
        kind, obj = io.load_document(entry["payload"])
        assert results == {k: str(v) for k, v in parent_corpus_results(kind, obj).items()}
        assert (code == EXIT_OK) == all(v == "True" for v in results.values()), row
    assert min(seen[key] for key in (
        "semigroup", "resgraph", "relgen", "premorphism", "relgen --side exit 0 -> 0",
        "relgen --side exit 0 -> 1", "partial action exit 0 -> 0",
        "partial action exit 0 -> 1", "partial action exit 1 -> 1")) >= 3, seen
