"""JSON interchange for semigroups, graphs, relation generators and
premorphisms.

Every document carries "kind" and "version": 1.  Indices are 0-based
row-major; mult[i][j] is the product of element i by element j.  Free
labels are lists of letter strings, the empty list being the identity.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .actions import PartialAction, Premorphism
from .core import BYTE_ROW_SIZES, OpTableSemigroup
from .cover import CanonicalPath
from .relmonoid import Rel
from .resgraph import FiniteMonoid, FreeMonoid, ResGraph, Semilattice, Side

VERSION = 1
KINDS = ("semigroup", "resgraph", "relgen", "premorphism")


class SchemaError(ValueError):
    """Document does not match the interchange schema."""


def _need(doc, key, kind):
    if not isinstance(doc, dict):
        raise SchemaError(f"{kind} must be an object, not {type(doc).__name__}")
    if key not in doc:
        raise SchemaError(f"{kind} document is missing {key!r}")
    return doc[key]


def _need_list(doc, key, kind):
    value = _need(doc, key, kind)
    if not isinstance(value, list):
        raise SchemaError(f"{kind} {key!r} must be a list, not {type(value).__name__}")
    return value


def _need_strings(doc, key, kind):
    value = _need_list(doc, key, kind)
    if not all(isinstance(x, str) for x in value):
        raise SchemaError(f"{kind} {key!r} must be a list of strings")
    return value


def _need_object(doc, key, kind):
    value = _need(doc, key, kind)
    if not isinstance(value, dict):
        raise SchemaError(f"{kind} {key!r} must be an object, not {type(value).__name__}")
    return value


def _need_int(doc, key, kind):
    value = _need(doc, key, kind)
    if type(value) is not int:
        raise SchemaError(f"{kind} {key!r} must be an int, not {value!r}")
    return value


def _is_pair(p) -> bool:
    return isinstance(p, list) and len(p) == 2 and all(type(v) is int for v in p)


def _pair_list(value, what):
    """value as a list of (x, y) tuples of ints; SchemaError otherwise."""
    if not isinstance(value, list) or not all(map(_is_pair, value)):
        raise SchemaError(f"{what} {value!r} is not a list of [x, y] pairs of ints")
    return [tuple(p) for p in value]


def _read(path):
    """(text, JSON value) of the file at path; SchemaError if it cannot be
    read.  json.load reads a file the same way: json.loads(fh.read())."""
    try:
        with open(path) as fh:
            text = fh.read()
            return text, json.loads(text)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def read_json(path):
    """The JSON value in the file at path; SchemaError if it cannot be read."""
    return _read(path)[1]


def load_path(path):
    text, doc = _read(path)
    return load_document(doc, text)


def load_document(doc, text=None):
    """(kind, object) for a document; SchemaError if it is malformed,
    including the ValueErrors of the constructors that check its tables.
    text is the JSON text doc was parsed from, if known (load_semigroup)."""
    kind = _need(doc, "kind", "document")
    if kind not in KINDS:
        raise SchemaError(f"unknown kind {kind!r}")
    version = _need(doc, "version", kind)
    if type(version) is not int or version != VERSION:
        raise SchemaError(f"unsupported version {version!r}; expected {VERSION}")
    loader = {
        "semigroup": load_semigroup,
        "resgraph": load_resgraph,
        "relgen": load_relgen,
        "premorphism": load_premorphism,
    }[kind]
    try:
        return kind, loader(doc, text) if kind == "semigroup" else loader(doc)
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def load_semigroup(doc, text=None) -> OpTableSemigroup:
    """The semigroup of a document.  Given text, the JSON text doc was
    parsed from, a table of 8 to 256 elements (BYTE_ROW_SIZES) whose rows
    are lists goes to OpTableSemigroup as bytes rows, checked at C level.
    bytearray takes exactly the ints 0..255 from a JSON value, and JSON
    true and false too, so that route is taken only when text holds
    neither token.  A table it rejects is checked again as lists, so every
    document is accepted or named in error as the list route alone would."""
    elements = _need_strings(doc, "elements", "semigroup")
    mult = _need(doc, "mult", "semigroup")
    plus = _need(doc, "plus", "semigroup")
    star = _need(doc, "star", "semigroup")
    n, names = len(elements), list(elements)
    if (text is not None and n in BYTE_ROW_SIZES and type(mult) is list
            and {list}.issuperset(map(type, mult))
            and not ("true" in text or "false" in text)):
        try:
            return OpTableSemigroup(n, list(map(bytes, map(bytearray, mult))),
                                    plus, star, names)
        except (TypeError, ValueError):     # bytearray's, or MalformedTableError
            pass
    return OpTableSemigroup(n, mult, plus, star, names)


def dump_semigroup(S: OpTableSemigroup) -> dict:
    return {
        "kind": "semigroup",
        "version": VERSION,
        "elements": [S.name(i) for i in range(S.n)],
        "mult": [list(row) for row in S.mult],
        "plus": list(S.plus),
        "star": list(S.star),
    }


def _load_semilattice(doc) -> Semilattice:
    elements = _need_strings(doc, "elements", "semilattice")
    meet = _need(doc, "meet", "semilattice")
    return Semilattice(len(elements), meet, list(elements))


def _dump_semilattice(sl: Semilattice) -> dict:
    return {
        "elements": [sl.name(i) for i in range(sl.n)],
        "meet": [list(row) for row in sl.meet],
    }


def _load_monoid(doc):
    kind = _need(doc, "kind", "monoid")
    if kind == "finite":
        elements = _need_strings(doc, "elements", "monoid")
        mult = _need(doc, "mult", "monoid")
        ident = _need(doc, "identity", "monoid")
        return FiniteMonoid(len(elements), mult, ident, list(elements))
    if kind == "free":
        return FreeMonoid(tuple(_need_strings(doc, "alphabet", "monoid")))
    raise SchemaError(f"unknown monoid kind {kind!r}")


def _dump_monoid(mon) -> dict:
    if mon.is_free:
        return {"kind": "free", "alphabet": list(mon.alphabet)}
    return {
        "kind": "finite",
        "elements": [mon.label_str(t) for t in mon.elements()],
        "mult": [list(row) for row in mon.mult],
        "identity": mon.identity,
    }


def _label_from_json(mon, raw):
    if mon.is_free:
        if not isinstance(raw, list):
            raise SchemaError(f"free label must be a list, not {raw!r}")
        raw = tuple(raw)
    elif type(raw) is not int:
        raise SchemaError(f"finite label must be an int, not {raw!r}")
    mon.check_label(raw)
    return raw


def _label_to_json(mon, label):
    return list(label) if mon.is_free else label


def load_resgraph(doc) -> ResGraph:
    sl = _load_semilattice(_need(doc, "semilattice", "resgraph"))
    mon = _load_monoid(_need(doc, "monoid", "resgraph"))
    edges = [(_need_int(item, "d", "edge"), _label_from_json(mon, _need(item, "l", "edge")),
              _need_int(item, "r", "edge"))
             for item in _need_list(doc, "edges", "resgraph")]

    def edge_at(item, key, kind):
        i = _need(item, key, kind)
        if type(i) is not int or not 0 <= i < len(edges):
            raise SchemaError(f"{kind} {key} {i!r} is not an edge index")
        return edges[i]

    maps = []
    for kind, vertex in (("restrict", "g"), ("corestrict", "h")):
        items = _need_list(doc, kind, "resgraph") if kind in doc else []
        maps.append({(edge_at(item, "edge", kind), _need_int(item, vertex, kind)):
                     edge_at(item, "to", kind) for item in items} or None)
    return ResGraph(sl, mon, edges, *maps)


def dump_resgraph(G: ResGraph) -> dict:
    edges = G.sorted_edges()
    doc = {
        "kind": "resgraph",
        "version": VERSION,
        "semilattice": _dump_semilattice(G.sl),
        "monoid": _dump_monoid(G.mon),
        "edges": [{"d": c[0], "l": _label_to_json(G.mon, c[1]), "r": c[2]}
                  for c in edges],
    }
    if G.has_restrictions:
        for key, vertex, side in (("restrict", "g", Side(G, 0)),
                                  ("corestrict", "h", Side(G, 2))):
            doc[key] = [{"edge": i, vertex: v, "to": j} for i, c in enumerate(edges)
                        for v, j in zip(G.sl.below(c[side.end]), side.moves(i))]
    return doc


def load_relgen(doc):
    n = _need(doc, "ground_size", "relgen")
    if type(n) is not int or n < 1:
        raise SchemaError(f"relgen ground_size must be an int >= 1, not {n!r}")
    gens = []
    for pairs in _need_list(doc, "generators", "relgen"):
        gens.append(Rel.from_pairs(n, _pair_list(pairs, "relgen generator")))
    return n, gens


def dump_relgen(n, gens) -> dict:
    return {
        "kind": "relgen",
        "version": VERSION,
        "ground_size": n,
        "generators": [[list(p) for p in g.pairs()] for g in gens],
    }


def load_premorphism(doc):
    mon = _load_monoid(_need(doc, "monoid", "premorphism"))
    if mon.is_free:
        raise SchemaError("premorphisms need a finite monoid")
    ground = _need(doc, "ground", "premorphism")
    raw_phi = _need_object(doc, "phi", "premorphism")
    if isinstance(ground, dict) and "semilattice" in ground:
        sl = _load_semilattice(ground["semilattice"])
        n = sl.n
    else:
        sl = None
        n = _need_int(ground, "size", "premorphism ground")
    phi = {}
    for key, pairs in raw_phi.items():
        try:
            t = int(key)
        except ValueError as exc:
            raise SchemaError(f"phi key {key!r} is not a label index") from exc
        phi[t] = Rel.from_pairs(n, _pair_list(pairs, f"phi entry {key!r}"))
    if sl is not None:
        return PartialAction(sl, mon, phi)
    return Premorphism(mon, n, phi)


def dump_premorphism(pm) -> dict:
    if isinstance(pm, PartialAction):
        ground = {"semilattice": _dump_semilattice(pm.sl)}
    else:
        ground = {"size": pm.ground}
    return {
        "kind": "premorphism",
        "version": VERSION,
        "monoid": _dump_monoid(pm.mon),
        "ground": ground,
        "phi": {str(t): [list(p) for p in rel.pairs()]
                for t, rel in sorted(pm.phi.items())},
    }


def dump_canonical(u: CanonicalPath) -> dict:
    if u.is_loop:
        return {"loop": u.d}
    return {"seq": list(u.entries)}


def load_canonical(doc) -> CanonicalPath:
    if "loop" in doc:
        return CanonicalPath.loop_at(doc["loop"])
    if "seq" in doc:
        return CanonicalPath(tuple(doc["seq"]))
    raise SchemaError("canonical form needs 'loop' or 'seq'")


def dumps(doc, default=None) -> str:
    """json.dumps(doc, indent=2, sort_keys=True, default=default), byte for
    byte, at the speed of the C pieces it is joined from.

    The library writes indented JSON with its pure-Python encoder.  Here
    strings and str keys go through the C string encoder, exact ints
    through int.__repr__ (a list of them, such as a table row, in one
    join), and True, False and None as their literals; dicts with only str
    keys are written in sorted key order.  Every other value (empty
    containers, floats, subclasses of int, str, list or dict, non-str
    keys, objects that need default) is encoded by the library on its own,
    with its newlines moved to the current depth.  That gives the same
    bytes, since the library's indentation depends only on depth and a
    JSON string never holds a raw newline.  The one difference: a cyclic list or dict raises
    RecursionError, not ValueError.
    """
    def enc(o, pad):
        t = type(o)
        if t is str:
            return _quote(o)
        if t is int:
            return int.__repr__(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if (t is list or t is tuple) and o:
            inner = pad + "  "
            if {int}.issuperset(map(type, o)):
                items = map(int.__repr__, o)
            else:
                items = [enc(x, inner) for x in o]
            return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
        if t is dict and o and {str}.issuperset(map(type, o)):
            inner = pad + "  "
            items = [_quote(k) + ": " + enc(o[k], inner) for k in sorted(o)]
            return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
        text = json.dumps(o, indent=2, sort_keys=True, default=default)
        return text.replace("\n", "\n" + pad) if pad else text

    return enc(doc, "")


def save(path, doc):
    """Write doc to the file at path; SchemaError if it cannot be written.
    The document is encoded before the file is opened, so one the encoder
    rejects leaves the file as it was."""
    text = dumps(doc) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc
