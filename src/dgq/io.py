"""Canonical on-disk documents: one JSON object per value, format version 1.

Every table is stored explicitly (identities, inverses and both compositions
included) and re-derived on load where possible; a mismatch between stored
and derived redundant tables is rejected as a format error, since hand
authoring is the dominant failure mode.  Purely mathematical defects (axiom
violations) are *not* rejected here: they parse fine and are reported by the
validators, so the CLI can distinguish malformed files (exit 2) from false
mathematics (exit 1).

Canonical emission sorts every index list ascending and is idempotent:
``emit(parse(emit(d))) == emit(d)``.  An arrow without an inverse raises
:class:`StructureError`.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter

from .double import DoubleGroupoid
from .errors import FormatError, InternalConsistencyError, StructureError
from .fields import FieldSpec
from .groupoids import UNDEF, Groupoid

FORMAT_VERSION = "1"
KINDS = ("groupoid", "double_groupoid", "matched_pair", "cocycle_pair",
         "field_spec")


class Document:
    def __init__(self, kind: str, payload: object):
        self.kind = kind
        self.payload = payload


class CocycleDocument:
    """A cocycle pair keyed by explicit box pairs; bind it to a double
    groupoid with :func:`cocycle_pair_for`.  The (a, b, value) entries are
    kept sorted."""

    def __init__(self, modulus: int, sigma: tuple[tuple[int, int, int], ...],
                 tau: tuple[tuple[int, int, int], ...]):
        self.modulus = modulus
        self.sigma = sigma
        self.tau = tau


def _no_duplicates(pairs):
    out = {}
    for k, v in pairs:
        if k in out:
            raise FormatError(f"duplicate key {k!r}")
        out[k] = v
    return out


def _expect_keys(obj: dict, required: tuple, context: str) -> None:
    missing = [k for k in required if k not in obj]
    if missing:
        raise FormatError(f"{context}: missing keys {missing}")
    unknown = [k for k in obj if k not in required]
    if unknown:
        raise FormatError(f"{context}: unknown keys {unknown}")


def _is_int(v) -> bool:
    """Whether a loaded JSON value is an integer; ``true`` and ``false``
    load as bool, a subclass of int, and are not."""
    return isinstance(v, int) and not isinstance(v, bool)


def _all_ints(values) -> bool:
    """Whether every value is an integer: read whole by the types present,
    and value by value only where a type other than int is."""
    return set(map(type, values)) <= {int} or all(map(_is_int, values))


def _int(obj, key, context):
    val = obj[key]
    if not _is_int(val):
        raise FormatError(f"{context}: {key} must be an integer")
    return val


def _int_list(obj, key, context):
    val = obj[key]
    if not isinstance(val, list) or not _all_ints(val):
        raise FormatError(f"{context}: {key} must be a list of integers")
    return val


def _triples(obj, key, context):
    """The entries of a list of [a, b, v] triples, as tuples, each (a, b)
    once.  The list is checked whole; only one that fails is walked entry
    by entry, for the first that does."""
    val = obj[key]
    if not isinstance(val, list):
        raise FormatError(f"{context}: {key} must be a list of triples")
    if (set(map(type, val)) <= {list} and set(map(len, val)) <= {3}
            and _all_ints(list(chain.from_iterable(val)))
            and len(set(map(itemgetter(0, 1), val))) == len(val)):
        return list(map(tuple, val))
    out = []
    seen = set()
    for item in val:
        if (not isinstance(item, list) or len(item) != 3
                or not all(map(_is_int, item))):
            raise FormatError(f"{context}: entry {item!r} is not a triple of integers")
        if (item[0], item[1]) in seen:
            raise FormatError(f"{context}: duplicate entry for {item[:2]}")
        seen.add((item[0], item[1]))
        out.append(tuple(item))
    return out


# -- groupoid ---------------------------------------------------------------


def _compose_from_triples(triples, n_arrows, context):
    table = [[UNDEF] * n_arrows for _ in range(n_arrows)]
    values = list(chain.from_iterable(triples))
    if values and not (0 <= min(values) and max(values) < n_arrows):
        bad = next(x for x in triples if not all(0 <= v < n_arrows for v in x))
        raise FormatError(f"{context}: composition triple {bad} out of range")
    for f, g, c in triples:
        table[f][g] = c
    return table


def _compose_to_triples(g: Groupoid):
    return sorted([f, h, g.compose[f][h]]
                  for f in g.arrows() for h in g.arrows()
                  if g.compose[f][h] != UNDEF)


def _groupoid_from_obj(obj: dict, context: str) -> Groupoid:
    _expect_keys(obj, ("n_objects", "source", "target", "identity", "inverse",
                       "compose"), context)
    n_objects = _int(obj, "n_objects", context)
    source = _int_list(obj, "source", context)
    target = _int_list(obj, "target", context)
    identity = _int_list(obj, "identity", context)
    inverse = _int_list(obj, "inverse", context)
    compose = _compose_from_triples(_triples(obj, "compose", context),
                                    len(source), context)
    try:
        g = Groupoid(n_objects, source, target, identity, compose)
    except StructureError as exc:
        raise FormatError(f"{context}: {exc}") from exc
    if len(inverse) != g.n_arrows or any(not 0 <= v < g.n_arrows for v in inverse):
        raise FormatError(f"{context}: inverse table malformed")
    derived = _try_inverse(g)
    if derived is not None and tuple(inverse) != derived:
        raise FormatError(f"{context}: stored inverse table disagrees with the "
                          "one derived from the composition")
    return g


def _try_inverse(g: Groupoid):
    try:
        return g.inverse
    except StructureError:
        return None   # not a groupoid; leave it to the validators


def _groupoid_to_obj(g: Groupoid) -> dict:
    return {
        "n_objects": g.n_objects,
        "source": list(g.source),
        "target": list(g.target),
        "identity": list(g.identity),
        "inverse": list(g.inverse),
        "compose": _compose_to_triples(g),
    }


# -- double groupoid ---------------------------------------------------------


def _double_from_obj(obj: dict, context: str) -> DoubleGroupoid:
    _expect_keys(obj, ("n_points", "horiz", "vert", "top", "bottom", "left",
                       "right", "vid", "hid", "vcomp", "hcomp",
                       "box_inverse_h", "box_inverse_v"), context)
    horiz = _groupoid_from_obj(obj["horiz"], context + ".horiz")
    vert = _groupoid_from_obj(obj["vert"], context + ".vert")
    if _int(obj, "n_points", context) != horiz.n_objects:
        raise FormatError(f"{context}: n_points disagrees with the edge groupoids")
    top = _int_list(obj, "top", context)
    n = len(top)
    vcomp = _compose_from_triples(_triples(obj, "vcomp", context), n, context)
    hcomp = _compose_from_triples(_triples(obj, "hcomp", context), n, context)
    try:
        t = DoubleGroupoid(horiz, vert, top, _int_list(obj, "bottom", context),
                           _int_list(obj, "left", context),
                           _int_list(obj, "right", context),
                           _int_list(obj, "vid", context),
                           _int_list(obj, "hid", context), vcomp, hcomp)
    except StructureError as exc:
        raise FormatError(f"{context}: {exc}") from exc
    for key, derived in (("box_inverse_h", _try_inverse(t.horizontal_boxes)),
                         ("box_inverse_v", _try_inverse(t.vertical_boxes))):
        stored = _int_list(obj, key, context)
        if len(stored) != n or any(not 0 <= v < n for v in stored):
            raise FormatError(f"{context}: {key} malformed")
        if derived is not None and tuple(stored) != derived:
            raise FormatError(f"{context}: stored {key} disagrees with the "
                              "derived inverse table")
    return t


def _double_to_obj(t: DoubleGroupoid) -> dict:
    return {
        "n_points": t.n_points,
        "horiz": _groupoid_to_obj(t.horiz),
        "vert": _groupoid_to_obj(t.vert),
        "top": list(t.top),
        "bottom": list(t.bottom),
        "left": list(t.left),
        "right": list(t.right),
        "vid": list(t.vid),
        "hid": list(t.hid),
        "vcomp": _compose_to_triples(t.vertical_boxes),
        "hcomp": _compose_to_triples(t.horizontal_boxes),
        "box_inverse_h": list(t.horizontal_boxes.inverse),
        "box_inverse_v": list(t.vertical_boxes.inverse),
    }


# -- matched pair -------------------------------------------------------------


def _matched_from_obj(obj: dict, context: str) -> MatchedPair:
    # imported here: only a matched_pair document loads matched
    from .matched import MatchedPair
    _expect_keys(obj, ("n_points", "vert", "horiz", "act_left", "act_right"),
                 context)
    vert = _groupoid_from_obj(obj["vert"], context + ".vert")
    horiz = _groupoid_from_obj(obj["horiz"], context + ".horiz")
    if _int(obj, "n_points", context) != vert.n_objects:
        raise FormatError(f"{context}: n_points disagrees with the groupoids")
    act_left = [[UNDEF] * vert.n_arrows for _ in range(horiz.n_arrows)]
    act_right = [[UNDEF] * vert.n_arrows for _ in range(horiz.n_arrows)]
    for key, table in (("act_left", act_left), ("act_right", act_right)):
        for x, g, out in _triples(obj, key, context):
            if not (0 <= x < horiz.n_arrows and 0 <= g < vert.n_arrows):
                raise FormatError(f"{context}: {key} index {(x, g)} out of range")
            table[x][g] = out
    try:
        return MatchedPair(vert, horiz, act_left, act_right)
    except StructureError as exc:
        raise FormatError(f"{context}: {exc}") from exc


def _matched_to_obj(mp: MatchedPair) -> dict:
    return {
        "n_points": mp.n_points,
        "vert": _groupoid_to_obj(mp.vert),
        "horiz": _groupoid_to_obj(mp.horiz),
        "act_left": sorted([x, g, mp.act_left[x][g]] for x, g in mp.pairs()),
        "act_right": sorted([x, g, mp.act_right[x][g]] for x, g in mp.pairs()),
    }


# -- cocycle pair and field spec ----------------------------------------------


def _cocycle_from_obj(obj: dict, context: str) -> CocycleDocument:
    _expect_keys(obj, ("modulus", "sigma", "tau"), context)
    m = obj["modulus"]
    if not _is_int(m) or m < 1:
        raise FormatError(f"{context}: modulus must be a positive integer")
    sigma = _triples(obj, "sigma", context)
    tau = _triples(obj, "tau", context)
    for _, _, v in sigma + tau:
        if not 0 <= v < m:
            raise FormatError(f"{context}: value {v} not reduced mod {m}")
    return CocycleDocument(m, tuple(sorted(sigma)), tuple(sorted(tau)))


def _cocycle_to_obj(doc: CocycleDocument) -> dict:
    return {
        "modulus": doc.modulus,
        "sigma": [list(e) for e in doc.sigma],
        "tau": [list(e) for e in doc.tau],
    }


def cocycle_pair_for(t: DoubleGroupoid, doc: CocycleDocument) -> CocyclePair:
    """Bind a cocycle document to a double groupoid, requiring the keys to be
    exactly the composable pairs."""
    # imported here: only commands that bind a cocycle document load cocycles
    from .cocycles import CocyclePair
    vp, hp, vindex, hindex = t.pair_domains()
    sigma = [None] * len(vp)
    for a, b, v in doc.sigma:
        i = vindex.get((a, b))
        if i is None:
            raise FormatError(f"sigma entry {(a, b)} is not a vertically "
                              "composable pair of this double groupoid")
        sigma[i] = v
    tau = [None] * len(hp)
    for a, b, v in doc.tau:
        j = hindex.get((a, b))
        if j is None:
            raise FormatError(f"tau entry {(a, b)} is not a horizontally "
                              "composable pair of this double groupoid")
        tau[j] = v
    if None in sigma or None in tau:
        raise FormatError("cocycle tables must cover every composable pair")
    return CocyclePair(doc.modulus, tuple(sigma), tuple(tau))


def cocycle_document(t: DoubleGroupoid, cp: CocyclePair) -> CocycleDocument:
    vp, hp, _, _ = t.pair_domains()
    sigma = tuple(sorted((a, b, v) for (a, b), v in zip(vp, cp.sigma)))
    tau = tuple(sorted((a, b, v) for (a, b), v in zip(hp, cp.tau)))
    return CocycleDocument(cp.modulus, sigma, tau)


def cocycle_texts(t: DoubleGroupoid, pairs):
    """The JSON text of each pair of ``pairs``, the :class:`CocyclePairs`
    view of ``t``'s pairs, one pair at a time: what
    ``json.dumps(body, sort_keys=True)`` writes for the body that
    :func:`emit` writes for its document, without ``kind`` and ``version``.

    Every pair's text is one template, built here once: the entries of
    ``t.pair_domains()`` in their (sorted) order, ``[a, b, v]`` with a hole
    for v where the entry takes a solution column and ``[a, b, 0]`` where
    normalization forces it.  The constraint system's ``where`` numbers the
    free sigma entries and then the free tau entries in increasing order,
    so the holes take the columns 0, 1, ... in turn.  That order is checked
    here, before any text is written.

    Where every value fits in a byte (m <= 256), the texts are written a
    block of solutions at a time (``pairs.blocks()``), column by column,
    into a buffer holding the template once per pair.  Each hole is as
    wide as m - 1 in decimal; a block's values, as bytes, go through one
    ``bytes.translate`` table per digit, and each hole takes its column's
    digits in one strided slice assignment per digit.  A value with fewer
    digits leaves NUL bytes in front, which one ``translate`` deletes.
    Past m = 256 a pair's text is ``template % solution``, with ``%d`` in
    each hole.
    """
    vp, hp, _, _ = t.pair_domains()
    _, ncols, where = pairs.system
    if [k for k in where if k < ncols] != list(range(ncols)):
        raise InternalConsistencyError(
            "the free cocycle entries do not take the solution columns in "
            "order")
    # the template around its holes: pieces[c] comes before column c's
    entries = [f"[{a}, {b}, {'%d' if k < ncols else 0}]"
               for (a, b), k in zip(vp + hp, where)]
    pieces = (f'{{"modulus": {pairs.modulus}, '
              f'"sigma": [{", ".join(entries[:len(vp)])}], '
              f'"tau": [{", ".join(entries[len(vp):])}]}}').split("%d")
    m = pairs.modulus
    if m > 256:
        return map("%d".join(pieces).__mod__, pairs.solutions)
    return _filled_texts(pieces, m, pairs.blocks())


def _filled_texts(pieces, m: int, blocks):
    """The texts of the blocks of solutions, each value below m <= 256
    written into its hole as ``width`` decimal digits, NUL-padded in front.
    One buffer, grown to the largest block, holds a block's texts, each
    followed by a newline; the holes are all rewritten for each block."""
    width = len(str(m - 1))
    record = ("\0" * width).join(pieces).encode() + b"\n"
    size = len(record)
    holes, start = [], 0
    for piece in pieces[:-1]:
        start += len(piece)
        holes.append(start)
        start += width
    padded = [str(v).rjust(width, "\0").encode() for v in range(m)]
    digits = [bytes(s[d] for s in padded).ljust(256, b"\0")
              for d in range(width)]
    ncols = len(holes)
    residues = bytes(range(m))
    buf = bytearray()
    for block in blocks:
        count, end = len(block), len(block) * size
        if len(buf) < end:
            buf = bytearray(record) * count
        values = block.values
        del block
        if values.translate(None, residues):
            raise InternalConsistencyError(
                f"a solution to write has a value outside 0..{m - 1}")
        for d, table in enumerate(digits):
            column = values.translate(table)
            for c, hole in enumerate(holes):
                buf[hole + d:end:size] = column[c::ncols]
        texts = buf if width == 1 else buf[:end].translate(None, b"\0")
        start = 0
        for _ in range(count):
            end = texts.index(b"\n", start)
            yield texts[start:end].decode()
            start = end + 1


def _field_from_obj(obj: dict, context: str) -> FieldSpec:
    _expect_keys(obj, ("characteristic", "modulus", "zeta"), context)
    p, m, z = obj["characteristic"], obj["modulus"], obj["zeta"]
    if not all(map(_is_int, (p, m, z))):
        raise FormatError(f"{context}: characteristic, modulus and zeta must "
                          "be integers")
    try:
        return FieldSpec(p, m, z)
    except (StructureError, ValueError) as exc:
        raise FormatError(f"{context}: {exc}") from exc


def _field_to_obj(fs: FieldSpec) -> dict:
    return {
        "characteristic": fs.characteristic,
        "modulus": fs.modulus,
        "zeta": int(fs.zeta),
    }


# -- entry points --------------------------------------------------------------


_PARSERS = {
    "groupoid": _groupoid_from_obj,
    "double_groupoid": _double_from_obj,
    "matched_pair": _matched_from_obj,
    "cocycle_pair": _cocycle_from_obj,
    "field_spec": _field_from_obj,
}

_EMITTERS = {
    "groupoid": _groupoid_to_obj,
    "double_groupoid": _double_to_obj,
    "matched_pair": _matched_to_obj,
    "cocycle_pair": _cocycle_to_obj,
    "field_spec": _field_to_obj,
}


def parse(text) -> Document:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"input is not UTF-8: {exc}") from exc
    try:
        obj = json.loads(text, object_pairs_hook=_no_duplicates)
    except FormatError:
        raise
    except RecursionError as exc:
        raise FormatError("malformed JSON: nested too deeply") from exc
    except ValueError as exc:
        # a JSONDecodeError, or an integer literal longer than the
        # interpreter converts (sys.get_int_max_str_digits())
        raise FormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError("document must be a JSON object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise FormatError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if obj.get("version") != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {obj.get('version')!r}; "
                          f"this reader handles version {FORMAT_VERSION!r}")
    body = {k: v for k, v in obj.items() if k not in ("kind", "version")}
    return Document(kind, _PARSERS[kind](body, kind))


def emit(doc: Document) -> str:
    body = _EMITTERS[doc.kind](doc.payload)
    out = {"kind": doc.kind, "version": FORMAT_VERSION}
    out.update(body)
    return json.dumps(out, sort_keys=True, indent=1) + "\n"


def load_path(path) -> Document:
    with open(path, "rb") as fh:
        return parse(fh.read())


def save_path(path, doc: Document) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit(doc))
