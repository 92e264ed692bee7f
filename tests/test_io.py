import pytest

from ehresmann import actions, core, corpus, io


def test_semigroup_round_trip(tmp_path):
    for name, S in corpus.semigroups()[:8]:
        path = tmp_path / f"{name}.json"
        io.save(path, io.dump_semigroup(S))
        kind, back = io.load_path(path)
        assert kind == "semigroup"
        assert back.n == S.n and back.mult == S.mult
        assert back.plus == S.plus and back.star == S.star


def test_resgraph_round_trip(tmp_path):
    for name, G in corpus.pm_graphs():
        path = tmp_path / f"{name}.json"
        io.save(path, io.dump_resgraph(G))
        kind, back = io.load_path(path)
        assert kind == "resgraph"
        assert back.edges == G.edges, name
        for c in G.sorted_edges():
            for g in G.sl.below(c[0]):
                assert back.restrict(c, g) == G.restrict(c, g), name
            for h in G.sl.below(c[2]):
                assert back.corestrict(c, h) == G.corestrict(c, h), name


def test_premorphism_round_trip(tmp_path):
    for name, pa in corpus.partial_actions():
        path = tmp_path / f"{name}.json"
        io.save(path, io.dump_premorphism(pa))
        kind, back = io.load_path(path)
        assert kind == "premorphism"
        assert isinstance(back, actions.PartialAction)
        assert back.phi == pa.phi, name
        assert back.sl.meet == pa.sl.meet, name


def test_plain_premorphism_round_trip(tmp_path):
    pm = actions.graph_to_premorphism(corpus.e2t2_graph())
    flat = actions.Premorphism(pm.mon, pm.ground, pm.phi)
    path = tmp_path / "pm.json"
    io.save(path, io.dump_premorphism(flat))
    kind, back = io.load_path(path)
    assert isinstance(back, actions.Premorphism)
    assert back.phi == flat.phi


def test_relgen_round_trip(tmp_path):
    gens = [corpus.Rel.from_pairs(2, [(0, 1)]),
            corpus.Rel.from_pairs(2, [(1, 0), (1, 1)])]
    path = tmp_path / "gen.json"
    io.save(path, io.dump_relgen(2, gens))
    kind, (n, back) = io.load_path(path)
    assert kind == "relgen" and n == 2 and back == gens


def test_unknown_kind_rejected():
    with pytest.raises(io.SchemaError):
        io.load_document({"kind": "nonsense"})
    with pytest.raises(io.SchemaError):
        io.load_document(["not", "an", "object"])


def test_missing_key_rejected():
    for doc in ({"kind": "semigroup", "elements": ["a"]},
                {"kind": "semigroup", "version": 1, "elements": ["a"]}):
        with pytest.raises(io.SchemaError):
            io.load_document(doc)


def test_semigroup_schema_error_on_bad_entry():
    doc = io.dump_semigroup(corpus.chain(2))
    doc["plus"] = [0, 99]
    with pytest.raises(io.SchemaError):
        io.load_document(doc)


def _constructor_errors():
    """(document, message) for each constructor a loader calls, each
    document holding an input that constructor rejects."""
    from ehresmann import cover

    def finite():
        return io.dump_resgraph(corpus.e2t2_graph())

    def free():
        return io.dump_resgraph(cover.build_cover_graph(corpus.chain(2), [0, 1]).graph)

    semigroup = io.dump_semigroup(corpus.chain(2))
    semigroup["plus"] = [0, 99]
    meet = finite()
    meet["semilattice"]["meet"][0][1] = 1
    identity = finite()
    identity["monoid"]["identity"] = 1
    letters = free()
    letters["monoid"]["alphabet"] = ["x0", "x0"]
    label = free()
    label["edges"][-1]["l"] = ["zz"]
    vertex = finite()
    vertex["edges"][0]["d"] = 7
    relgen = io.dump_relgen(2, [])
    relgen["generators"] = [[[0, 2]]]
    pm = actions.graph_to_premorphism(corpus.e2t2_graph())
    premorphism = io.dump_premorphism(actions.Premorphism(pm.mon, pm.ground, pm.phi))
    premorphism["phi"]["0"] = [[0, 5]]
    return [
        (semigroup, "plus[1] = 99 out of range"),
        (meet, "meet not commutative at (0,1)"),
        (identity, "identity element is not a two-sided identity"),
        (letters, "alphabet letters must be distinct"),
        (label, "label ('zz',) not a word over ('x0', 'x1')"),
        (vertex, "edge (7,0,0) has a bad vertex"),
        (relgen, "pair (0,2) outside ground set of size 2"),
        (premorphism, "pair (0,5) outside ground set of size 2"),
    ]


def test_constructor_errors_are_schema_errors():
    for doc, message in _constructor_errors():
        with pytest.raises(io.SchemaError) as info:
            io.load_document(doc)
        assert str(info.value) == message


def test_canonical_form_serialization():
    from ehresmann.cover import CanonicalPath
    loop = CanonicalPath.loop_at(2)
    assert io.dump_canonical(loop) == {"loop": 2}
    assert io.load_canonical({"loop": 2}) == loop
    u = CanonicalPath((0, "x1", 1, "x0", 0))
    assert io.dump_canonical(u) == {"seq": [0, "x1", 1, "x0", 0]}
    assert io.load_canonical(io.dump_canonical(u)) == u
    with pytest.raises(io.SchemaError):
        io.load_canonical({"neither": 1})
