"""Finite double groupoids as explicit tables.

A box ``A`` has a frame of four edges::

                top(A)            (an arrow of the horizontal edge groupoid)
        left(A)  [A]  right(A)    (arrows of the vertical edge groupoid)
               bottom(A)

Horizontal edges x run ``l(x) -> r(x)`` and vertical edges g run
``t(g) -> b(g)``, both on the common point set.  ``vcomp(A, B)`` stacks A on
top of B and is defined when ``bottom(A) == top(B)``; ``hcomp(A, B)`` pastes
A left of B and is defined when ``right(A) == left(B)``.  ``vid(x)`` is the
identity box for stacking on the edge x, ``hid(g)`` the identity box for
horizontal pasting on g.

A double groupoid is four groupoids, each stored as a :class:`Groupoid`:

* ``horiz``, the horizontal edges over the points;
* ``vert``, the vertical edges over the points;
* ``vertical_boxes``, the boxes over the horizontal edges, stacked by
  ``vcomp``: source ``top``, target ``bottom``, identity ``vid``;
* ``horizontal_boxes``, the boxes over the vertical edges, pasted by
  ``hcomp``: source ``left``, target ``right``, identity ``hid``.

The ten tables the constructor takes are the two edge groupoids and the
tables of the two box groupoids; ``top``, ``vid``, ``vcomp`` and the others
stay readable as attributes.
"""

from __future__ import annotations

from .errors import (InternalConsistencyError, Report, StructureError,
                     VacancyError)
from .groupoids import (UNDEF, Groupoid, direct_product, disjoint_union,
                        groupoid_on, relation_groupoid, validate_groupoid)


class DoubleGroupoid:
    """The four groupoids of a double groupoid, built from ten tables.

    Construction checks shapes and ranges only, through the
    :class:`Groupoid` constructor of each box groupoid;
    :func:`validate_double_groupoid` checks the axioms, which
    :func:`is_vacant` and :meth:`cocycle_identities` assume.  Instances are
    immutable by convention; derived caches (axiom report, inverse tables,
    identity flags) are computed lazily.
    """

    __slots__ = ("horiz", "vert", "vertical_boxes", "horizontal_boxes",
                 "n_points", "n_boxes",
                 "top", "bottom", "left", "right", "vid", "hid",
                 "vcomp", "hcomp", "_inv", "_hash", "_pairs", "_squares",
                 "_identities", "_report")

    def __init__(self, horiz: Groupoid, vert: Groupoid, top, bottom, left, right,
                 vid, hid, vcomp, hcomp):
        if horiz.n_objects != vert.n_objects:   # before the box tables are read
            raise StructureError("edge groupoids must share the point set")
        self._attach(horiz, vert,
                     _box_groupoid("top/bottom/vid/vcomp", horiz.n_arrows,
                                   top, bottom, vid, vcomp),
                     _box_groupoid("left/right/hid/hcomp", vert.n_arrows,
                                   left, right, hid, hcomp))

    def _attach(self, horiz: Groupoid, vert: Groupoid, vboxes: Groupoid,
                hboxes: Groupoid) -> None:
        """Fill the slots from the four groupoids, once their shapes fit."""
        if horiz.n_objects != vert.n_objects:
            raise StructureError("edge groupoids must share the point set")
        if (vboxes.n_objects, hboxes.n_objects) != (horiz.n_arrows, vert.n_arrows):
            raise StructureError("box groupoids must lie over the edges")
        if vboxes.n_arrows != hboxes.n_arrows:
            raise StructureError(
                f"left/right/hid/hcomp: {hboxes.n_arrows} boxes, but "
                f"top/bottom/vid/vcomp has {vboxes.n_arrows}")
        self.horiz = horiz
        self.vert = vert
        self.vertical_boxes = vboxes
        self.horizontal_boxes = hboxes
        self.n_points = horiz.n_objects
        self.n_boxes = vboxes.n_arrows
        self.top, self.bottom = vboxes.source, vboxes.target
        self.vid, self.vcomp = vboxes.identity, vboxes.compose
        self.left, self.right = hboxes.source, hboxes.target
        self.hid, self.hcomp = hboxes.identity, hboxes.compose
        self._inv = None
        self._hash = None
        self._pairs = None
        self._squares = None
        self._identities = None
        self._report = None

    # -- queries ---------------------------------------------------------

    def boxes(self):
        return range(self.n_boxes)

    def frame(self, a: int) -> tuple[int, int, int, int]:
        return (self.top[a], self.bottom[a], self.left[a], self.right[a])

    def is_vid(self, a: int) -> bool:
        return self.vid[self.top[a]] == a

    def is_hid(self, a: int) -> bool:
        return self.hid[self.left[a]] == a

    def _by_left_top(self):
        """Boxes listed by left edge and by top edge, in increasing order."""
        by_left: dict[int, list[int]] = {}
        by_top: dict[int, list[int]] = {}
        for a in range(self.n_boxes):
            by_left.setdefault(self.left[a], []).append(a)
            by_top.setdefault(self.top[a], []).append(a)
        return by_left, by_top

    def squares(self):
        """All 2x2 composable arrangements (a, b, c, d):  a|b over c|d."""
        if self._squares is None:
            by_left, by_top = self._by_left_top()
            # d is read off its left and top edges, which c and b fix
            corner = {}
            for d, key in enumerate(zip(self.left, self.top)):
                corner.setdefault(key, []).append(d)
            out = []
            for a in range(self.n_boxes):
                for b in by_left.get(self.right[a], ()):
                    for c in by_top.get(self.bottom[a], ()):
                        for d in corner.get((self.right[c], self.bottom[b]),
                                            ()):
                            out.append((a, b, c, d))
            self._squares = out
        return iter(self._squares)

    @property
    def inverses(self) -> "BoxInverseTable":
        if self._inv is None:
            self._inv = compute_inverses(self)
        return self._inv

    def tables(self):
        return (self.horiz.tables(), self.vert.tables(), self.top, self.bottom,
                self.left, self.right, self.vid, self.hid, self.vcomp, self.hcomp)

    def __eq__(self, other):
        return isinstance(other, DoubleGroupoid) and self.tables() == other.tables()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.tables())
        return self._hash

    def pair_domains(self):
        """Sorted vertically/horizontally composable pair lists with their
        index maps (:class:`PairIndex`); the canonical index sets for
        cocycle tables."""
        if self._pairs is None:
            vp = list(self.vertical_boxes.composable_pairs())
            hp = list(self.horizontal_boxes.composable_pairs())
            self._pairs = (vp, hp, PairIndex(self.vertical_boxes),
                           PairIndex(self.horizontal_boxes))
        return self._pairs

    def cocycle_identities(self) -> "CocycleIdentities":
        """The identities a cocycle pair must satisfy, over the indices of
        :meth:`pair_domains`; built once and shared by the validator and the
        Z/m constraint system of :mod:`dgq.cocycles`.  Its lookups assume the
        axioms, so a table that fails them is refused first."""
        if self._identities is None:
            validate_double_groupoid(self).raise_if_failed()
            self._identities = _compile_identities(self)
        return self._identities

    def __repr__(self):
        return (f"DoubleGroupoid(points={self.n_points}, hedges={self.horiz.n_arrows}, "
                f"vedges={self.vert.n_arrows}, boxes={self.n_boxes})")


def _box_groupoid(family: str, n_edges: int, source, target, identity,
                  compose) -> Groupoid:
    """A box groupoid, its table errors prefixed with the table family."""
    try:
        return Groupoid(n_edges, source, target, identity, compose)
    except StructureError as exc:
        raise StructureError(f"{family}: {exc}") from None


class CocycleIdentities:
    """Every identity on a pair (sigma, tau), written additively over Z/m.

    ``s`` and ``u`` below stand for the sigma and tau tables, indexed like
    the vertically and horizontally composable pairs of ``pair_domains``.
    Each tuple ends with its witness, the boxes a failure is reported at.
    Only composable triples and squares are listed.
    """

    def __init__(self, sigma_normalization: tuple, tau_normalization: tuple,
                 sigma_cocycle: tuple, tau_cocycle: tuple, compatibility: tuple,
                 sigma_symmetry: tuple, tau_symmetry: tuple):
        # (i, (a, b)): s_i = 0, where a or b is a vertical identity
        self.sigma_normalization = sigma_normalization
        # (i, (a, b)): u_i = 0, where a or b is a horizontal identity
        self.tau_normalization = tau_normalization
        # (i, j, k, l, (a, b, c)): s(a,b) + s(ab,c) = s(b,c) + s(a,bc)
        self.sigma_cocycle = sigma_cocycle
        # (i, j, k, l, (a, b, c)): the same for u and horizontal pasting
        self.tau_cocycle = tau_cocycle
        # (i, j, k, l, p, q, (a, b, c, d)) for the square a|b over c|d:
        # s(ab,cd) + u(ac,bd) = u(a,b) + u(c,d) + s(a,c) + s(b,d)
        self.compatibility = compatibility
        # (a, i, j): s(a, a^v) = s(a^v, a), a consequence of the rules above
        self.sigma_symmetry = sigma_symmetry
        # (a, i, j): u(a, a^h) = u(a^h, a)
        self.tau_symmetry = tau_symmetry


class PairIndex:
    """The index of each composable pair (a, b) of a box groupoid in its
    sorted list, read off two arrays as ``start[a] + place[b]``: the pairs
    of a come after those of every box before it, and b is ``place[b]``-th
    of the boxes out of its source.  A mapping from pairs to indices, with
    ``get`` and ``[]`` as on a dict, that holds no tuple per pair."""

    __slots__ = ("boxes", "start", "place")

    def __init__(self, boxes: Groupoid):
        self.boxes = boxes
        self.start, n = [], 0
        for out in map(boxes.leaving().__getitem__, boxes.target):
            self.start.append(n)
            n += len(out)
        self.place = [0] * boxes.n_arrows
        for out in boxes.leaving():
            for k, b in enumerate(out):
                self.place[b] = k

    def get(self, pair, default=None):
        a, b = pair
        g = self.boxes
        if 0 <= a < g.n_arrows and 0 <= b < g.n_arrows and (
                g.target[a] == g.source[b]):
            return self.start[a] + self.place[b]
        return default

    def __getitem__(self, pair):
        i = self.get(pair)
        if i is None:
            raise KeyError(pair)
        return i


def _compile_identities(t: DoubleGroupoid) -> CocycleIdentities:
    """The identities over the pair indices, each term read off the index
    arrays of :class:`PairIndex`."""
    vp, hp, vindex, hindex = t.pair_domains()
    vc, hc = t.vcomp, t.hcomp
    vs, vk = vindex.start, vindex.place
    hs, hk = hindex.start, hindex.place
    below, right = t.vertical_boxes.leaving(), t.horizontal_boxes.leaving()
    inv = t.inverses
    return CocycleIdentities(
        sigma_normalization=tuple(
            (i, (a, b)) for i, (a, b) in enumerate(vp)
            if t.is_vid(a) or t.is_vid(b)),
        tau_normalization=tuple(
            (i, (a, b)) for i, (a, b) in enumerate(hp)
            if t.is_hid(a) or t.is_hid(b)),
        sigma_cocycle=tuple(
            (i, vs[vc[a][b]] + vk[c], vs[b] + vk[c], vs[a] + vk[vc[b][c]],
             (a, b, c))
            for i, (a, b) in enumerate(vp)
            for c in below[t.bottom[b]]),
        tau_cocycle=tuple(
            (i, hs[hc[a][b]] + hk[c], hs[b] + hk[c], hs[a] + hk[hc[b][c]],
             (a, b, c))
            for i, (a, b) in enumerate(hp)
            for c in right[t.right[b]]),
        compatibility=tuple(
            (vs[hc[a][b]] + vk[hc[c][d]], hs[vc[a][c]] + hk[vc[b][d]],
             hs[a] + hk[b], hs[c] + hk[d], vs[a] + vk[c], vs[b] + vk[d],
             (a, b, c, d))
            for a, b, c, d in t.squares()),
        sigma_symmetry=tuple(
            (a, vs[a] + vk[inv.v_inv[a]], vs[inv.v_inv[a]] + vk[a])
            for a in t.boxes()),
        tau_symmetry=tuple(
            (a, hs[a] + hk[inv.h_inv[a]], hs[inv.h_inv[a]] + hk[a])
            for a in t.boxes()))


class BoxInverseTable:
    """Horizontal, vertical and full inverses of every box."""

    def __init__(self, h_inv: tuple[int, ...], v_inv: tuple[int, ...],
                 full_inv: tuple[int, ...]):
        self.h_inv = h_inv
        self.v_inv = v_inv
        self.full_inv = full_inv


def validate_double_groupoid(t: DoubleGroupoid) -> Report:
    """Exhaustive check of the double-groupoid axioms, keyed by axiom number.

    ``axiom0.*`` covers the four component categories being groupoids (for the
    box categories this subsumes the invertibility of every box in both
    directions); the remaining keys follow the axiom numbering 1..6.  The
    report is computed once and kept on ``t``.
    """
    if t._report is None:
        t._report = _axiom_report(t)
    return t._report


def _axiom_report(t: DoubleGroupoid) -> Report:
    rep = Report("double groupoid")
    pieces = (("axiom0.horizontal-edges", t.horiz),
              ("axiom0.vertical-edges", t.vert),
              ("axiom0.vertical-boxes", t.vertical_boxes),
              ("axiom0.horizontal-boxes", t.horizontal_boxes))
    for key, gpd in pieces:
        sub = validate_groupoid(gpd)
        for f in sub.failures:
            rep.add(f"{key}.{f.rule}", f.witness, f.message)
    hz, vt = t.horiz, t.vert
    for a in t.boxes():
        if vt.source[t.right[a]] != hz.target[t.top[a]]:
            rep.add("axiom1", (a, "tr=rt"))
        if vt.source[t.left[a]] != hz.source[t.top[a]]:
            rep.add("axiom1", (a, "tl=lt"))
        if vt.target[t.left[a]] != hz.source[t.bottom[a]]:
            rep.add("axiom1", (a, "bl=lb"))
        if vt.target[t.right[a]] != hz.target[t.bottom[a]]:
            rep.add("axiom1", (a, "br=rb"))
    if not rep.ok:
        # frame bookkeeping is broken; composite checks would be noise
        return rep
    for a, b in t.horizontal_boxes.composable_pairs():
        c = t.hcomp[a][b]
        if c == UNDEF:
            continue
        if (t.top[c] != hz.compose[t.top[a]][t.top[b]]
                or t.bottom[c] != hz.compose[t.bottom[a]][t.bottom[b]]
                or t.left[c] != t.left[a] or t.right[c] != t.right[b]):
            rep.add("axiom2", (a, b, c), "horizontal composite frame")
    for a, b in t.vertical_boxes.composable_pairs():
        c = t.vcomp[a][b]
        if c == UNDEF:
            continue
        if (t.left[c] != vt.compose[t.left[a]][t.left[b]]
                or t.right[c] != vt.compose[t.right[a]][t.right[b]]
                or t.top[c] != t.top[a] or t.bottom[c] != t.bottom[b]):
            rep.add("axiom2", (a, b, c), "vertical composite frame")
    for a, b, c, d in t.squares():
        top_row, bot_row = t.hcomp[a][b], t.hcomp[c][d]
        ac, bd = t.vcomp[a][c], t.vcomp[b][d]
        if UNDEF in (top_row, bot_row, ac, bd):
            rep.add("axiom3", (a, b, c, d), "square not closed under composition")
            continue
        rows_then_cols = t.vcomp[top_row][bot_row]
        cols_then_rows = t.hcomp[ac][bd]
        if rows_then_cols == UNDEF or rows_then_cols != cols_then_rows:
            rep.add("axiom3", (a, b, c, d))
    for x in range(hz.n_arrows):
        a = t.vid[x]
        if (t.top[a] != x or t.bottom[a] != x
                or t.left[a] != vt.identity[hz.source[x]]
                or t.right[a] != vt.identity[hz.target[x]]):
            rep.add("axiom4", (x, a), "vid frame")
    for g in range(vt.n_arrows):
        a = t.hid[g]
        if (t.left[a] != g or t.right[a] != g
                or t.top[a] != hz.identity[vt.source[g]]
                or t.bottom[a] != hz.identity[vt.target[g]]):
            rep.add("axiom4", (g, a), "hid frame")
    for p in range(t.n_points):
        if t.vid[hz.identity[p]] != t.hid[vt.identity[p]]:
            rep.add("axiom5", (p,))
    for g, h in vt.composable_pairs():
        if t.vcomp[t.hid[g]][t.hid[h]] != t.hid[vt.compose[g][h]]:
            rep.add("axiom6", (g, h), "hid functoriality")
    for x, y in hz.composable_pairs():
        if t.hcomp[t.vid[x]][t.vid[y]] != t.vid[hz.compose[x][y]]:
            rep.add("axiom6", (x, y), "vid functoriality")
    return rep


def compute_inverses(t: DoubleGroupoid) -> BoxInverseTable:
    """Horizontal/vertical/full inverse of every box, with the frame of the
    full inverse (b^-1, t^-1, r^-1, l^-1) verified."""
    h_inv = t.horizontal_boxes.inverse
    v_inv = t.vertical_boxes.inverse
    full = tuple(v_inv[h_inv[a]] for a in t.boxes())
    other = tuple(h_inv[v_inv[a]] for a in t.boxes())
    if full != other:
        raise InternalConsistencyError("(A^h)^v and (A^v)^h disagree")
    hz_inv, vt_inv = t.horiz.inverse, t.vert.inverse
    for a in t.boxes():
        fa = full[a]
        expect = (hz_inv[t.bottom[a]], hz_inv[t.top[a]],
                  vt_inv[t.right[a]], vt_inv[t.left[a]])
        if t.frame(fa) != expect:
            raise InternalConsistencyError(f"frame of full inverse wrong at box {a}")
    return BoxInverseTable(h_inv, v_inv, full)


# -- vacancy ----------------------------------------------------------------


class VacancyReport:
    def __init__(self, vacant: bool, witness: tuple | None):
        self.vacant = vacant
        self.witness = witness  # (condition, edge pair, filler list) when non-vacant

    def __bool__(self):
        return self.vacant


def is_vacant(t: DoubleGroupoid) -> VacancyReport:
    """Decide vacancy: every (top, right) corner has exactly one filler.

    A table that fails the axioms raises :class:`StructureError` first.  The
    three other corner conditions (left+bottom, top+left, right+bottom) are
    cross-checked; on a double groupoid they agree, so any disagreement is
    an internal-consistency failure, never a quiet answer.  The witness is
    the first corner in edge order without exactly one filler.
    """
    validate_double_groupoid(t).raise_if_failed()
    hz, vt = t.horiz, t.vert
    witnesses = {}
    # (condition, frame tables, end and start of the corner's two edges)
    for name, first, second, ends, starts in (
            ("top-right", t.top, t.right, hz.target, vt.source),
            ("left-bottom", t.left, t.bottom, vt.target, hz.source),
            ("top-left", t.top, t.left, hz.source, vt.source),
            ("right-bottom", t.right, t.bottom, vt.target, hz.target)):
        fillers = corner_fillers(first, second)
        witnesses[name] = next(
            ((name, (e, f), tuple(fillers.get((e, f), ())))
             for e, end in enumerate(ends) for f, start in enumerate(starts)
             if end == start and len(fillers.get((e, f), ())) != 1), None)
    verdicts = {name: bad is None for name, bad in witnesses.items()}
    if len(set(verdicts.values())) != 1:
        raise InternalConsistencyError(
            f"vacancy conditions disagree: {verdicts}")
    return VacancyReport(verdicts["top-right"], witnesses["top-right"])


def corner_fillers(first, second) -> dict[tuple[int, int], list[int]]:
    """Each corner (first[a], second[a]) of two frame tables, such as ``top``
    and ``right``, with its boxes a in increasing order."""
    out: dict[tuple[int, int], list[int]] = {}
    for a, corner in enumerate(zip(first, second)):
        out.setdefault(corner, []).append(a)
    return out


def require_vacant(t: DoubleGroupoid) -> None:
    rep = is_vacant(t)
    if not rep.vacant:
        raise VacancyError(
            f"double groupoid is not vacant; corner {rep.witness[1]} has "
            f"{len(rep.witness[2])} fillers")


# -- transpose and constructions --------------------------------------------


def transpose(t: DoubleGroupoid) -> DoubleGroupoid:
    """Swap the horizontal and vertical structures; an involution."""
    return _from_box_groupoids(t.vert, t.horiz, t.horizontal_boxes,
                               t.vertical_boxes)


class DoubleRelation:
    """Two equivalence relations on a common finite base, given as class
    labels (label = least member of the class)."""

    def __init__(self, n_points: int, rel_h: tuple[int, ...],
                 rel_v: tuple[int, ...]):
        for name, rel in (("rel_h", rel_h), ("rel_v", rel_v)):
            if len(rel) != n_points:
                raise StructureError(f"{name} must label every point")
            for p, c in enumerate(rel):
                if not 0 <= c < n_points or rel[c] != c or c > p:
                    raise StructureError(f"{name} labels are not canonical at {p}")
        self.n_points = n_points
        self.rel_h = rel_h
        self.rel_v = rel_v


def equivalence_from_pairs(n: int, pairs) -> tuple[int, ...]:
    """Class labels from an explicit pair list, rejected unless the list is
    reflexive, symmetric and transitive."""
    have = set(map(tuple, pairs))
    for (p, q) in have:
        if not (0 <= p < n and 0 <= q < n):
            raise StructureError(f"relation pair {(p, q)} out of range")
    for p in range(n):
        if (p, p) not in have:
            raise StructureError(f"relation is not reflexive at {p}")
    for (p, q) in have:
        if (q, p) not in have:
            raise StructureError(f"relation is not symmetric at {(p, q)}")
    for (p, q) in have:
        for (q2, r) in have:
            if q2 == q and (p, r) not in have:
                raise StructureError(f"relation is not transitive at {(p, q, r)}")
    return tuple(min(q for q in range(n) if (p, q) in have) for p in range(n))


def from_double_relation(rel: DoubleRelation) -> DoubleGroupoid:
    """Boxes are the compatible corner quadruples (P Q / R S); compositions
    paste matrices along shared edges."""
    n = rel.n_points
    horiz = relation_groupoid(rel.rel_h)
    vert = relation_groupoid(rel.rel_v)
    hindex = {(horiz.source[f], horiz.target[f]): f for f in horiz.arrows()}
    vindex = {(vert.source[f], vert.target[f]): f for f in vert.arrows()}
    quads = [(p, q, r, s)
             for p in range(n) for q in range(n) for r in range(n) for s in range(n)
             if rel.rel_h[p] == rel.rel_h[q] and rel.rel_v[p] == rel.rel_v[r]
             and rel.rel_h[r] == rel.rel_h[s] and rel.rel_v[q] == rel.rel_v[s]]
    vboxes = groupoid_on(
        horiz.n_arrows, quads, lambda b: hindex[b[:2]], lambda b: hindex[b[2:]],
        lambda x: (horiz.source[x], horiz.target[x]) * 2,
        lambda a, b: a[:2] + b[2:])
    hboxes = groupoid_on(
        vert.n_arrows, quads, lambda b: vindex[b[0], b[2]],
        lambda b: vindex[b[1], b[3]],
        lambda g: (vert.source[g],) * 2 + (vert.target[g],) * 2,
        lambda a, b: (a[0], b[1], a[2], b[3]))
    return _from_box_groupoids(horiz, vert, vboxes, hboxes)


def build_Xrs(r: int, s: int) -> DoubleGroupoid:
    """The grid double relation on {0..r-1} x {0..s-1}: rows are one relation,
    columns the other.  Point (i, j) has index i*s + j."""
    if r < 1 or s < 1:
        raise StructureError("grid dimensions must be positive")
    n = r * s
    rel_h = tuple((p // s) * s for p in range(n))        # same row
    rel_v = tuple(p % s for p in range(n))               # same column
    return from_double_relation(DoubleRelation(n, rel_h, rel_v))


def is_double_relation(t: DoubleGroupoid) -> bool:
    """True when both edge groupoids are principal (at most one arrow between
    any ordered pair of points) and boxes are determined by their frames."""
    for gpd in (t.horiz, t.vert):
        seen = set()
        for f in gpd.arrows():
            key = (gpd.source[f], gpd.target[f])
            if key in seen:
                return False
            seen.add(key)
    frames = {t.frame(a) for a in t.boxes()}
    return len(frames) == t.n_boxes


def classify_vacant_relation(t: DoubleGroupoid):
    """Identify a connected vacant double relation with the r x s grid.

    Returns ``(r, s, point_map)`` where ``point_map[p] = (i, j)`` is the
    verified base bijection onto the grid of :func:`build_Xrs`.  The column
    of p is read off the unique point of the base row that shares p's
    vertical class, mirroring the phi_i bijections of the classification.
    """
    if not is_double_relation(t):
        raise StructureError("not a double relation: boxes or edges are not "
                             "determined by points")
    rep = is_vacant(t)
    if not rep.vacant:
        raise VacancyError(
            "a double relation is classifiable only when vacant: the diagonal "
            f"relation fails at corner {rep.witness[1]}")
    h_classes = t.horiz.object_components()
    if len(diagonal_components(t)) != 1:
        raise StructureError("double relation is not connected; classify "
                             "components separately")
    v_label = _component_labels(t.vert)
    r, s = len(h_classes), len(set(v_label))
    base_row = h_classes[0]
    col_of = {v_label[p]: j for j, p in enumerate(sorted(base_row))}
    if len(col_of) != len(base_row):
        raise InternalConsistencyError(
            "two base-row points share a vertical class despite vacancy")
    point_map = {}
    for i, cls in enumerate(h_classes):
        for p in cls:
            if v_label[p] not in col_of:
                raise InternalConsistencyError(
                    "vertical class misses the base row; relation cannot be a grid")
            point_map[p] = (i, col_of[v_label[p]])
    if sorted(point_map.values()) != sorted(
            (i, j) for i in range(r) for j in range(s)):
        raise InternalConsistencyError("grid coordinates are not a bijection")
    _check_grid_iso(t, r, s, point_map)
    return r, s, point_map


def _check_grid_iso(t: DoubleGroupoid, r: int, s: int, point_map: dict) -> None:
    """Exhaustively verify that point_map carries t onto build_Xrs(r, s)."""
    grid = build_Xrs(r, s)
    to_grid_point = {p: i * s + j for p, (i, j) in point_map.items()}
    hmap = {}
    for x in t.horiz.arrows():
        cands = grid.horiz.arrows_between(to_grid_point[t.horiz.source[x]],
                                          to_grid_point[t.horiz.target[x]])
        if len(cands) != 1:
            raise InternalConsistencyError("horizontal edge does not transport")
        hmap[x] = cands[0]
    vmap = {}
    for g in t.vert.arrows():
        cands = grid.vert.arrows_between(to_grid_point[t.vert.source[g]],
                                         to_grid_point[t.vert.target[g]])
        if len(cands) != 1:
            raise InternalConsistencyError("vertical edge does not transport")
        vmap[g] = cands[0]
    bmap = {}
    for a in t.boxes():
        cands = [b for b in grid.boxes()
                 if grid.top[b] == hmap[t.top[a]] and grid.right[b] == vmap[t.right[a]]
                 and grid.bottom[b] == hmap[t.bottom[a]] and grid.left[b] == vmap[t.left[a]]]
        if len(cands) != 1:
            raise InternalConsistencyError("box does not transport")
        bmap[a] = cands[0]
    if sorted(bmap.values()) != list(range(grid.n_boxes)):
        raise InternalConsistencyError("box map is not a bijection")
    for a, b in t.vertical_boxes.composable_pairs():
        if grid.vcomp[bmap[a]][bmap[b]] != bmap[t.vcomp[a][b]]:
            raise InternalConsistencyError("vertical composition not preserved")
    for a, b in t.horizontal_boxes.composable_pairs():
        if grid.hcomp[bmap[a]][bmap[b]] != bmap[t.hcomp[a][b]]:
            raise InternalConsistencyError("horizontal composition not preserved")


def _from_box_groupoids(horiz: Groupoid, vert: Groupoid, vboxes: Groupoid,
                        hboxes: Groupoid) -> DoubleGroupoid:
    """The double groupoid whose box i is arrow i of both ``vboxes`` (over
    the arrows of ``horiz``) and ``hboxes`` (over the arrows of ``vert``),
    which it keeps as they are."""
    t = DoubleGroupoid.__new__(DoubleGroupoid)
    t._attach(horiz, vert, vboxes, hboxes)
    return t


def _on_each_groupoid(construction, t1: DoubleGroupoid,
                      t2: DoubleGroupoid) -> DoubleGroupoid:
    return _from_box_groupoids(
        construction(t1.horiz, t2.horiz), construction(t1.vert, t2.vert),
        construction(t1.vertical_boxes, t2.vertical_boxes),
        construction(t1.horizontal_boxes, t2.horizontal_boxes))


def double_disjoint_union(t1: DoubleGroupoid, t2: DoubleGroupoid) -> DoubleGroupoid:
    """The disjoint union of each of the four groupoids: t1's points, edges
    and boxes first, then t2's."""
    return _on_each_groupoid(disjoint_union, t1, t2)


def double_direct_product(t1: DoubleGroupoid, t2: DoubleGroupoid) -> DoubleGroupoid:
    """The direct product of each of the four groupoids: box (a1, a2) has
    index a1 * t2.n_boxes + a2, and likewise for points and edges."""
    return _on_each_groupoid(direct_product, t1, t2)


def diagonal_components(t: DoubleGroupoid) -> list[list[int]]:
    """Partition of the points under P ~ Q iff some R has P ~h R and R ~v Q.

    For a non-vacant input the relation can fail to be an equivalence; the
    failure is raised with the offending pair or triple.
    """
    h_lab = _component_labels(t.horiz)
    v_lab = _component_labels(t.vert)
    n = t.n_points
    rel = {(p, q)
           for p in range(n) for q in range(n)
           if any(h_lab[p] == h_lab[r] and v_lab[r] == v_lab[q] for r in range(n))}
    for (p, q) in sorted(rel):
        if (q, p) not in rel:
            raise StructureError(f"diagonal relation is not symmetric at {(p, q)}")
    for (p, q) in sorted(rel):
        for r in range(n):
            if (q, r) in rel and (p, r) not in rel:
                raise StructureError(
                    f"diagonal relation is not transitive at {(p, q, r)}")
    classes: dict[int, list[int]] = {}
    for p in range(n):
        root = min(q for q in range(n) if (p, q) in rel)
        classes.setdefault(root, []).append(p)
    return [classes[k] for k in sorted(classes)]


def _component_labels(g: Groupoid) -> list[int]:
    labels = [0] * g.n_objects
    for comp in g.object_components():
        for p in comp:
            labels[p] = comp[0]
    return labels
