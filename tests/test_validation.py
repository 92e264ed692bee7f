"""Constructor and precondition error paths that the CLI exit codes rely on."""

import pytest

from ehresmann import actions, core, corpus, cover, io, product, relmonoid
from ehresmann.core import MalformedTableError, OpTableSemigroup
from ehresmann.relmonoid import Rel
from ehresmann.resgraph import (FiniteMonoid, FreeMonoid, ResGraph,
                                Semilattice, chain_semilattice)


def test_semigroup_rejects_empty():
    with pytest.raises(MalformedTableError):
        OpTableSemigroup(0, [], [], [])


def test_semigroup_rejects_bad_unary_and_names():
    with pytest.raises(MalformedTableError):
        OpTableSemigroup(2, [[0, 1], [1, 1]], [0], [0, 1])
    with pytest.raises(MalformedTableError):
        OpTableSemigroup(2, [[0, 1], [1, 1]], [0, 1], [0, 2])
    with pytest.raises(MalformedTableError):
        OpTableSemigroup(2, [[0, 1], [1, 1]], [0, 1], [0, 1], names=["a"])


def test_tables_reject_non_lists_and_bools():
    # JSON true is a bool, which Python counts as the int 1
    for bad in (4, [[0, 1], 1], ((0, 1), (1, 1)), [[0, True], [1, 1]]):
        with pytest.raises(MalformedTableError):
            OpTableSemigroup(2, bad, [0, 1], [0, 1])
        with pytest.raises(ValueError):
            Semilattice(2, bad)
        with pytest.raises(ValueError):
            FiniteMonoid(2, bad, 0)
    with pytest.raises(MalformedTableError):
        OpTableSemigroup(2, [[0, 1], [1, 1]], [0, True], [0, 1])
    with pytest.raises(MalformedTableError):
        OpTableSemigroup(2, [[0, 1], [1, 1]], [0, 1], 7)


def test_table_errors_name_the_first_bad_entry():
    # rows are accepted by whole-row scans; the message still names the
    # first bad entry of the first bad row
    ok = [[0, 1, 2], [2, 2, 2], [1, 0, 0]]
    for row, message in (
            ([0, 3, True], "mult[1][1] = 3 out of range"),
            ([0, True, 3], "mult[1][1] = True out of range"),
            ([-1, 0, 0], "mult[1][0] = -1 out of range"),
            ([0, 1, 2.0], "mult[1][2] = 2.0 out of range"),
            ([0, None, 0], "mult[1][1] = None out of range"),
            ([0, 1, [2]], "mult[1][2] = [2] out of range")):
        with pytest.raises(MalformedTableError) as exc:
            core.validate_table([ok[0], row, [5, 0, 0]], 3)
        assert str(exc.value) == message
    core.validate_table(ok, 3)
    core.validate_table([], 0)
    with pytest.raises(MalformedTableError):
        core.validate_table([[]], 1)


def test_bytes_rows_are_checked_and_kept():
    """A mult of bytes rows, as the relation monoids hand theirs over, is
    checked for shape and range: a bad entry still raises, naming the
    first one, and a good table is kept as the semigroup's mult."""
    S = relmonoid.full_I(3).to_semigroup()
    n, rows = S.n, list(map(bytes, S.mult))
    T = OpTableSemigroup(n, rows, S.plus, S.star, S.names)
    assert T == S and T.mult is rows

    def edited(i, row):
        return rows[:i] + [row] + rows[i + 1:]

    for bad, message in (
            (edited(5, rows[5][:3] + bytes([n]) + rows[5][4:]), f"mult[5][3] = {n} out of range"),
            (edited(n - 1, rows[n - 1][:-1] + b"\xff"), f"mult[{n - 1}][{n - 1}] = 255 out of range"),
            (edited(2, rows[2][:-1]), None), (edited(2, rows[2] + b"\x00"), None),
            # n^2 bytes in all, one row short and the next one long
            (edited(2, rows[2][:-1])[:3] + [rows[3] + b"\x00"] + rows[4:], None),
            (rows[:-1], None), (rows + rows[:1], None),
            (edited(3, list(rows[3])), None), (edited(3, bytearray(rows[3])), None)):
        with pytest.raises(MalformedTableError) as exc:
            OpTableSemigroup(n, bad, S.plus, S.star)
        assert message is None or str(exc.value) == message
    # at 2 elements the rows are checked the same way and kept as bytes
    rows = [b"\x00\x01", b"\x01\x01"]
    small = OpTableSemigroup(2, rows, [0, 1], [0, 1])
    assert small.mult is rows and [list(row) for row in small.mult] == [[0, 1], [1, 1]]
    with pytest.raises(MalformedTableError, match=r"mult\[0\]\[1\] = 2 out of range"):
        OpTableSemigroup(2, [b"\x00\x02", b"\x01\x01"], [0, 1], [0, 1])


def test_table_classes_hold_rows_in_row_form():
    """Each table class, built from list rows and from bytes rows, is one
    object holding its rows in core.row_form(n), bytes rows at 1, 2, 7, 8,
    255 and 256 elements and list rows at 257, and is written back as the
    int lists that went in; a bad entry raises the same message, naming it,
    in either form.  With 257 elements bytes rows hold ids below 256 only, so x & y & 255,
    a semigroup, is given as bytes there, and the semilattice x & y and the
    cyclic group, which use id 256, as lists only."""
    for n in (1, 2, 7, 8, 255, 256, 257):
        rng = range(n)
        tables = {"mult": [[x & y & 255 for y in rng] for x in rng],
                  "meet": [[x & y for y in rng] for x in rng],
                  "monoid": [[(x + y) % n for y in rng] for x in rng]}
        builders = {"mult": lambda t: OpTableSemigroup(n, t, list(rng), list(rng)),
                    "meet": lambda t: Semilattice(n, t),
                    "monoid": lambda t: FiniteMonoid(n, t, 0)}
        dumps = {"mult": lambda X: io.dump_semigroup(X)["mult"],
                 "meet": lambda X: io._dump_semilattice(X)["meet"],
                 "monoid": lambda X: io._dump_monoid(X)["mult"]}
        for kind, table in tables.items():
            forms = [table] + ([list(map(bytes, table))] if max(map(max, table)) < 256 else [])
            assert len(forms) == (1 if n == 257 and kind != "mult" else 2)
            built = [builders[kind](rows) for rows in forms]
            for X in built:
                rows = X.meet if kind == "meet" else X.mult
                assert {type(row) for row in rows} == {bytes if n <= 256 else list}
                assert core.row_form(n).row is (bytes if n <= 256 else list)
                assert X == built[0] and dumps[kind](X) == table
            if n == 256:    # every byte is an id
                continue
            x, y = n // 2, n - 1
            bad = [list(row) for row in table]
            bad[x][y] = n
            messages = []
            for rows in [bad] + ([list(map(bytes, bad))] if n < 256 else []):
                with pytest.raises(MalformedTableError) as exc:
                    builders[kind](rows)
                messages.append(str(exc.value))
            label = "meet" if kind == "meet" else "mult"
            assert set(messages) == {f"{label}[{x}][{y}] = {n} out of range"}


def test_empty_product_rejected():
    with pytest.raises(ValueError):
        corpus.chain(2).prod([])


def test_matchify_empty_rejected():
    with pytest.raises(ValueError):
        core.matchify(corpus.chain(2), [])
    with pytest.raises(ValueError):
        core.is_matching(corpus.chain(2), [])


def test_restriction_side_validated():
    with pytest.raises(ValueError):
        core.verify_restriction(corpus.chain(2), "up")


def test_proper_ideal_member_out_of_range():
    with pytest.raises(ValueError):
        core.check_proper_ideal(corpus.chain(2), [0, 7], max_len=2)
    # [0, 1, 7] holds both projections of chain(2), so only the range
    # check can reject it
    for Y in ([0, 7], [-1, 0, 1], [0, 1, 7]):
        for check in (product.structure_iso_check, product.underlying_graph):
            with pytest.raises(ValueError):
                check(corpus.chain(2), Y)


def test_rel_from_pairs_out_of_range():
    with pytest.raises(ValueError):
        Rel.from_pairs(2, [(0, 2)])


def test_generate_ground_mismatch():
    with pytest.raises(ValueError):
        relmonoid.generate(2, [Rel.from_pairs(3, [(0, 0)])])


def test_semilattice_associativity_violation():
    # commutative and idempotent but not associative
    meet = [
        [0, 0, 0, 0],
        [0, 1, 0, 1],
        [0, 0, 2, 2],
        [0, 1, 2, 3],
    ]
    meet[1][2] = 3  # breaks both symmetry repair and associativity
    meet[2][1] = 3
    with pytest.raises(ValueError):
        Semilattice(4, meet)


def test_finite_monoid_needs_associativity():
    FiniteMonoid(2, [[0, 1], [1, 1]], 0)  # fine
    with pytest.raises(ValueError):
        FiniteMonoid(3, [[0, 1, 2], [1, 2, 1], [2, 1, 0]], 0)


def test_free_monoid_duplicate_letters():
    with pytest.raises(ValueError):
        FreeMonoid(("a", "a"))


def test_resgraph_rejects_bad_vertex_and_label():
    sl = chain_semilattice(2)
    mon = corpus.t2_monoid()
    with pytest.raises(ValueError):
        ResGraph(sl, mon, {(0, 0, 5)})
    with pytest.raises(ValueError):
        ResGraph(sl, mon, {(0, 7, 0)})


def test_build_product_needs_identity_loops():
    sl = chain_semilattice(1)
    mon = corpus.t2_monoid()
    edges = {(0, 1, 0)}
    table = {((0, 1, 0), 0): (0, 1, 0)}
    G = ResGraph(sl, mon, edges, table, dict(table))
    with pytest.raises(ValueError):
        product.build_product(G)


def test_cover_generator_out_of_range():
    with pytest.raises(ValueError):
        cover.build_cover_graph(corpus.chain(2), [5])


def test_graph_to_premorphism_needs_finite_monoid():
    cg = cover.build_cover_graph(corpus.chain(2), [0, 1])
    with pytest.raises(ValueError):
        actions.graph_to_premorphism(cg.graph)


def test_premorphism_missing_and_mismatched_labels():
    mon = corpus.t2_monoid()
    pm = actions.Premorphism(mon, 2, {0: relmonoid.identity(2)})
    rep = actions.validate_premorphism(pm)
    assert not rep.ok and rep.checks[0].witness == (1, "missing")
    pm = actions.Premorphism(mon, 2, {0: relmonoid.identity(2),
                                      1: relmonoid.identity(3)})
    rep = actions.validate_premorphism(pm)
    assert not rep.ok and rep.checks[0].witness == (1, "ground size mismatch")


def test_path_restriction_outside_edge_set():
    G = corpus.e2t2_graph()
    with pytest.raises(ValueError):
        G.restrict((1, 1, 1), 0)  # not an edge
