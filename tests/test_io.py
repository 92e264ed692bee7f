import enum
import json
import math
import random

import pytest

from ehresmann import actions, core, corpus, cover, io


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


def _loader_documents():
    """Semigroup documents of 2, 7, 8, 9, 34, 64, 256 and 257 elements, on
    both sides of the byte rows, each as it is and with one entry, row or
    name edited to a value the schema rejects or a byte boundary."""
    from ehresmann import relmonoid

    tables = [corpus.chain(2), corpus.cyclic_group(7), corpus.eight_monoid(),
              corpus.rel_pt2(), relmonoid.full_I(3).to_semigroup(),
              relmonoid.full_PT(3).to_semigroup(), corpus.cyclic_group(256),
              corpus.cyclic_group(257)]
    rng = random.Random(34)
    for S in tables:
        doc = io.dump_semigroup(S)
        n = S.n
        yield doc
        for value in (True, False, 1.0, -1, n, 255, 256, "3", None, []):
            for x, y in ((0, 0), (rng.randrange(n), rng.randrange(n))):
                edited = json.loads(json.dumps(doc))
                edited["mult"][x][y] = value
                yield edited
        for row in (n, "row", {"0": 0}, doc["mult"][1][:-1], doc["mult"][1] + [0]):
            edited = json.loads(json.dumps(doc))
            edited["mult"][rng.randrange(n)] = row
            yield edited
        for key, value in (("plus", n), ("star", True)):
            edited = json.loads(json.dumps(doc))
            edited[key][n - 1] = value
            yield edited
        edited = json.loads(json.dumps(doc))
        edited["elements"][0] = "true"
        yield edited


def test_loader_matches_parent_route(tmp_path):
    """load_path gives the parent's object, or SchemaError with the parent's
    message, on every loader document; those it accepts hold their rows in
    their core.row_form, bytes rows from 8 to 256 elements."""
    from oracles import parent_load_path

    path = tmp_path / "doc.json"
    errors = accepted = 0
    for doc in _loader_documents():
        text = json.dumps(doc)
        path.write_text(text)
        try:
            want = parent_load_path(path)
        except io.SchemaError as exc:
            with pytest.raises(io.SchemaError) as info:
                io.load_path(path)
            assert str(info.value) == str(exc)
            errors += 1
            continue
        kind, got = io.load_path(path)
        S = want[1]
        assert (kind, got.n, got.names) == ("semigroup", S.n, S.names)
        assert (got.mult, got.plus, got.star) == (S.mult, S.plus, S.star)
        assert {type(v) for row in got.mult for v in row} == {int}
        assert {type(row) for row in got.mult} == {core.row_form(S.n).row}
        accepted += 1
    assert errors > 100 and accepted > 20


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


def _library(value, default=None):
    return json.dumps(value, indent=2, sort_keys=True, default=default)


class _Level(enum.IntEnum):
    LOW = -3
    HIGH = 7


_ODD = object()    # only default=str encodes it


def _value(rng, depth=0):
    """A random value for the JSON encoders: containers nest up to depth 4."""
    pick = rng.randrange(12 if depth < 4 else 6)
    if pick == 0:
        return rng.choice([0, -1, 7, -(10 ** 25), 3 ** 80, True, False, None])
    if pick == 1:
        return rng.choice([math.nan, math.inf, -math.inf, -0.0, 0.25, 1e300])
    if pick == 2:
        alphabet = "az\"\\/\n\t\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600"
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(4)))
    if pick == 3:
        return rng.choice([_Level.LOW, _Level.HIGH, _ODD])
    if pick in (4, 5):
        # a table row, now and then holding a bool or an IntEnum member
        row = [rng.randrange(-5, 300) for _ in range(rng.randrange(5))]
        if row and rng.random() < 0.3:
            row[rng.randrange(len(row))] = rng.choice([True, False, _Level.HIGH])
        return row if pick == 4 else tuple(row)
    if pick in (6, 7):
        return [_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if pick == 8:
        return tuple(_value(rng, depth + 1) for _ in range(rng.randrange(3)))
    if pick in (9, 10):
        keys = ["".join(rng.choice("ba\u00e9\n") for _ in range(rng.randrange(3)))
                for _ in range(rng.randrange(5))]
        return {k: _value(rng, depth + 1) for k in keys}
    keys = rng.choice([[2, -1], [True, None], [1.5, -0.0], [_Level.HIGH, 0]])
    return {k: _value(rng, depth + 1) for k in keys}


def _outcome(encode, value, default):
    try:
        return encode(value, default)
    except (TypeError, ValueError) as exc:
        return type(exc)


def test_dumps_matches_the_library_on_generated_values():
    rng = random.Random(20221)
    for _ in range(1500):
        value = _value(rng)
        for default in (None, str):
            assert (_outcome(io.dumps, value, default)
                    == _outcome(_library, value, default)), repr(value)


def test_dumps_matches_the_library_on_edge_cases():
    values = [[], {}, (), [[]], {"a": {}}, [True, 1], [1, False], (1, 2), [1, _Level.LOW],
              {"b": 1, "a": [2, {"d": None, "c": -0.0}]}, [{1: [2, 3]}, {"x": [1.5, [2]]}],
              {"k": {None: {"n": [1]}}}, 3 ** 200, "\u00e9\n\x00", math.nan]
    for value in values:
        assert io.dumps(value) == _library(value), repr(value)
    assert io.dumps([[_ODD]], default=str) == _library([[_ODD]], default=str)
    with pytest.raises(TypeError):
        io.dumps({"a": [_ODD]})


def _documents():
    yield from (io.dump_semigroup(S) for _, S in corpus.semigroups())
    yield from (io.dump_resgraph(G) for _, G in corpus.pm_graphs())
    yield from (io.dump_premorphism(pa) for _, pa in corpus.partial_actions())
    pm = actions.graph_to_premorphism(corpus.e2t2_graph())
    yield io.dump_premorphism(actions.Premorphism(pm.mon, pm.ground, pm.phi))
    yield io.dump_relgen(2, [corpus.Rel.from_pairs(2, [(0, 1)]),
                             corpus.Rel.from_pairs(2, [(1, 0), (1, 1)])])
    for _, S, gens in corpus.cover_cases():
        cg = cover.build_cover_graph(S, gens)
        yield io.dump_resgraph(cg.graph)
        yield [io.dump_canonical(u) for u in cover.enumerate_canonical(cg, 2)]


def test_dumps_matches_the_library_on_corpus_documents(tmp_path):
    path = tmp_path / "doc.json"
    for doc in _documents():
        assert io.dumps(doc) == _library(doc)
        io.save(path, doc)
        assert path.read_text() == _library(doc) + "\n"


def test_save_rejected_document_leaves_file_unchanged(tmp_path):
    path = tmp_path / "pt2.json"
    io.save(path, io.dump_semigroup(corpus.rel_pt2()))
    before = path.read_bytes()
    doc = io.dump_semigroup(corpus.chain(2))
    doc["mult"][1].append(object())
    with pytest.raises(TypeError):
        io.save(path, doc)
    assert path.read_bytes() == before
