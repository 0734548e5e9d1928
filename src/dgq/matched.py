"""Matched pairs of groupoids, vacant double groupoids, exact factorizations.

A matched pair consists of a vertical groupoid V (arrows g: t(g) -> b(g)) and
a horizontal groupoid H (arrows x: l(x) -> r(x)) on the same points, with a
left action ``x |> g`` of H on V-sources and a right action ``x <| g`` of V on
H-targets, both defined when ``r(x) == t(g)``.  The unique box with top x and
right g of the corresponding vacant double groupoid is::

              x
    x |> g   [ ]   g
            x <| g
"""

from __future__ import annotations

from operator import itemgetter

from .errors import (FactorizationError, InternalConsistencyError, Report,
                     StructureError)
from .double import (DoubleGroupoid, _from_box_groupoids, corner_fillers,
                     require_vacant)
from .groupoids import (UNDEF, Groupoid, WideSubgroupoidData,
                        closure_defect, group_times_coarse, groupoid_on,
                        one_object_group, validate_groupoid,
                        validate_subgroupoid_data, wide_subgroupoid_from_data)


class MatchedPair:
    """Action tables over the composable-pair set, stored densely with -1
    outside the domain."""

    __slots__ = ("vert", "horiz", "n_points", "act_left", "act_right")

    def __init__(self, vert: Groupoid, horiz: Groupoid, act_left, act_right):
        if vert.n_objects != horiz.n_objects:
            raise StructureError("matched pair needs a common base")
        self.vert = vert
        self.horiz = horiz
        self.n_points = vert.n_objects
        act_left = tuple(tuple(row) for row in act_left)
        act_right = tuple(tuple(row) for row in act_right)
        shape_ok = (len(act_left) == horiz.n_arrows
                    and len(act_right) == horiz.n_arrows
                    and all(len(r) == vert.n_arrows for r in act_left)
                    and all(len(r) == vert.n_arrows for r in act_right))
        if not shape_ok:
            raise StructureError("action tables must be |H| x |V|")
        for x in range(horiz.n_arrows):
            for g in range(vert.n_arrows):
                indom = horiz.target[x] == vert.source[g]
                for name, tab, bound in (("act_left", act_left, vert.n_arrows),
                                         ("act_right", act_right, horiz.n_arrows)):
                    v = tab[x][g]
                    if indom and not 0 <= v < bound:
                        raise StructureError(f"{name}[{x}][{g}] missing or out of range")
                    if not indom and v != UNDEF:
                        raise StructureError(f"{name}[{x}][{g}] defined off-domain")
        self.act_left = act_left
        self.act_right = act_right

    def pairs(self):
        for x in range(self.horiz.n_arrows):
            for g in range(self.vert.n_arrows):
                if self.horiz.target[x] == self.vert.source[g]:
                    yield x, g

    def left(self, x: int, g: int) -> int:
        v = self.act_left[x][g]
        if v == UNDEF:
            raise StructureError(f"action undefined at ({x}, {g})")
        return v

    def right(self, x: int, g: int) -> int:
        v = self.act_right[x][g]
        if v == UNDEF:
            raise StructureError(f"action undefined at ({x}, {g})")
        return v

    def tables(self):
        return (self.vert.tables(), self.horiz.tables(), self.act_left, self.act_right)

    def __eq__(self, other):
        return isinstance(other, MatchedPair) and self.tables() == other.tables()

    def __hash__(self):
        return hash(self.tables())

    def __repr__(self):
        return (f"MatchedPair(points={self.n_points}, vert={self.vert.n_arrows}, "
                f"horiz={self.horiz.n_arrows})")


def validate_matched_pair(mp: MatchedPair) -> Report:
    """Exhaustively check the action and compatibility identities."""
    rep = Report("matched pair")
    for name, gpd in (("vert", mp.vert), ("horiz", mp.horiz)):
        sub = validate_groupoid(gpd)
        for f in sub.failures:
            rep.add(f"{name}.{f.rule}", f.witness, f.message)
    if not rep.ok:
        return rep
    vt, hz = mp.vert, mp.horiz
    for x, g in mp.pairs():
        if vt.source[mp.left(x, g)] != hz.source[x]:
            rep.add("left-action-endpoint", (x, g), "t(x|>g) = l(x)")
        if hz.target[mp.right(x, g)] != vt.target[g]:
            rep.add("right-action-endpoint", (x, g), "r(x<|g) = b(g)")
        if vt.target[mp.left(x, g)] != hz.source[mp.right(x, g)]:
            rep.add("corner-compatibility", (x, g), "b(x|>g) = l(x<|g)")
    if not rep.ok:
        # the composites below would leave the domains of the actions
        return rep
    for g in vt.arrows():
        x = hz.identity[vt.source[g]]
        if mp.left(x, g) != g:
            rep.add("left-unit", (g,), "id |> g = g")
    for x in hz.arrows():
        g = vt.identity[hz.target[x]]
        if mp.right(x, g) != x:
            rep.add("right-unit", (x,), "x <| id = x")
    for x, y in hz.composable_pairs():
        for g in vt.arrows():
            if hz.target[y] != vt.source[g]:
                continue
            lhs = mp.left(hz.compose[x][y], g)
            rhs = mp.left(x, mp.left(y, g))
            if lhs != rhs:
                rep.add("left-action-composition", (x, y, g), "xy |> g = x |> (y |> g)")
    for g, h in vt.composable_pairs():
        for x in hz.arrows():
            if hz.target[x] != vt.source[g]:
                continue
            lhs = mp.right(x, vt.compose[g][h])
            rhs = mp.right(mp.right(x, g), h)
            if lhs != rhs:
                rep.add("right-action-composition", (x, g, h), "x <| gh = (x <| g) <| h")
    for x in hz.arrows():
        for f, g in vt.composable_pairs():
            if hz.target[x] != vt.source[f]:
                continue
            lhs = mp.left(x, vt.compose[f][g])
            rhs = vt.compose[mp.left(x, f)][mp.left(mp.right(x, f), g)]
            if lhs != rhs:
                rep.add("left-distributivity", (x, f, g),
                        "x |> fg = (x |> f)((x <| f) |> g)")
    for x, y in hz.composable_pairs():
        for g in vt.arrows():
            if hz.target[y] != vt.source[g]:
                continue
            lhs = mp.right(hz.compose[x][y], g)
            rhs = hz.compose[mp.right(x, mp.left(y, g))][mp.right(y, g)]
            if lhs != rhs:
                rep.add("right-distributivity", (x, y, g),
                        "xy <| g = (x <| (y |> g))(y <| g)")
    if rep.ok:
        # these follow from the axioms; failing here means a validator bug
        for x in hz.arrows():
            if mp.left(x, vt.identity[hz.target[x]]) != vt.identity[hz.source[x]]:
                raise InternalConsistencyError(f"x |> id is not id at x={x}")
        for g in vt.arrows():
            if mp.right(hz.identity[vt.source[g]], g) != hz.identity[vt.target[g]]:
                raise InternalConsistencyError(f"id <| g is not id at g={g}")
    return rep


# -- matched pair <-> vacant double groupoid --------------------------------


def to_vacant_double(mp: MatchedPair) -> DoubleGroupoid:
    """Boxes are the composable pairs (x, g), ordered lexicographically."""
    vt, hz = mp.vert, mp.horiz
    boxes = sorted(mp.pairs())
    vboxes = groupoid_on(
        hz.n_arrows, boxes, itemgetter(0), lambda b: mp.right(*b),
        lambda x: (x, vt.identity[hz.target[x]]),
        lambda a, b: (a[0], vt.compose[a[1]][b[1]]))
    hboxes = groupoid_on(
        vt.n_arrows, boxes, lambda b: mp.left(*b), itemgetter(1),
        lambda g: (hz.identity[vt.source[g]], g),
        lambda a, b: (hz.compose[a[0]][b[0]], b[1]))
    return _from_box_groupoids(hz, vt, vboxes, hboxes)


def from_vacant_double(t: DoubleGroupoid) -> MatchedPair:
    """Read the actions off the unique corner fillers of a vacant T."""
    require_vacant(t)
    hz, vt = t.horiz, t.vert
    act_left = [[UNDEF] * vt.n_arrows for _ in range(hz.n_arrows)]
    act_right = [[UNDEF] * vt.n_arrows for _ in range(hz.n_arrows)]
    for (x, g), (a,) in corner_fillers(t.top, t.right).items():
        act_left[x][g] = t.left[a]
        act_right[x][g] = t.bottom[a]
    return MatchedPair(vt, hz, act_left, act_right)


# -- diagonal groupoid -------------------------------------------------------


class DiagonalGroupoid:
    """The groupoid V |><| H with arrows (f, y), b(f) = l(y), together with
    the embeddings of V and H realizing the exact factorization."""

    def __init__(self, groupoid: Groupoid, pairs: list[tuple[int, int]],
                 v_embed: tuple[int, ...], h_embed: tuple[int, ...]):
        self.groupoid = groupoid
        self.pairs = pairs
        self.v_embed = v_embed
        self.h_embed = h_embed


def diagonal_groupoid(mp: MatchedPair) -> DiagonalGroupoid:
    vt, hz = mp.vert, mp.horiz
    pairs = sorted((f, y) for f in vt.arrows() for y in hz.arrows()
                   if vt.target[f] == hz.source[y])
    gpd = groupoid_on(
        mp.n_points, pairs, lambda a: vt.source[a[0]], lambda a: hz.target[a[1]],
        lambda p: (vt.identity[p], hz.identity[p]),
        lambda a, b: (vt.compose[a[0]][mp.left(a[1], b[0])],
                      hz.compose[mp.right(a[1], b[0])][b[1]]))
    validate_groupoid(gpd).raise_if_failed()
    index = {p: i for i, p in enumerate(pairs)}
    v_embed = tuple(index[(f, hz.identity[vt.target[f]])] for f in vt.arrows())
    h_embed = tuple(index[(vt.identity[hz.source[y]], y)] for y in hz.arrows())
    for (f, y), i in index.items():
        if gpd.compose[v_embed[f]][h_embed[y]] != i:
            raise InternalConsistencyError("embedded factors do not multiply back")
    for i in gpd.arrows():
        count = sum(1 for f in vt.arrows() for y in hz.arrows()
                    if gpd.compose[v_embed[f]][h_embed[y]] == i)
        if count != 1:
            raise InternalConsistencyError("diagonal factorization is not exact")
    return DiagonalGroupoid(gpd, pairs, v_embed, h_embed)


# -- exact factorizations ----------------------------------------------------


def subgroupoid(d: Groupoid, arrows) -> tuple[Groupoid, list[int]]:
    """The wide subgroupoid on an arrow subset, rejected unless closed.
    Returns the reindexed groupoid and the sorted ambient arrow list."""
    bad = closure_defect(d, arrows)
    if bad is not None:
        raise StructureError(f"arrow set is not a wide subgroupoid: {bad}")
    order = sorted(arrows)
    return groupoid_on(d.n_objects, order, d.source.__getitem__,
                       d.target.__getitem__, d.identity.__getitem__,
                       lambda f, g: d.compose[f][g]), order


def from_exact_factorization(d: Groupoid, v_arrows, h_arrows):
    """Build the matched pair of an exact factorization D = V H.

    Exactness is verified by counting: every arrow of D must factor as
    (V-arrow)(H-arrow) exactly once; no order-arithmetic shortcut, so
    non-connected D works too.  Returns (mp, sorted V list, sorted H list).
    """
    validate_groupoid(d).raise_if_failed()
    vsub, v_list = subgroupoid(d, v_arrows)
    hsub, h_list = subgroupoid(d, h_arrows)
    factor = {}
    for f in v_list:
        for y in h_list:
            c = d.compose[f][y]
            if c == UNDEF:
                continue
            factor.setdefault(c, []).append((f, y))
    for alpha in d.arrows():
        found = factor.get(alpha, [])
        if len(found) != 1:
            raise FactorizationError(
                f"arrow {alpha} has {len(found)} factorizations (V then H); "
                "need exactly one")
    vpos = {f: i for i, f in enumerate(v_list)}
    hpos = {y: i for i, y in enumerate(h_list)}
    act_left = [[UNDEF] * vsub.n_arrows for _ in range(hsub.n_arrows)]
    act_right = [[UNDEF] * vsub.n_arrows for _ in range(hsub.n_arrows)]
    for x_amb in h_list:
        for g_amb in v_list:
            if d.target[x_amb] != d.source[g_amb]:
                continue
            f, y = factor[d.compose[x_amb][g_amb]][0]
            act_left[hpos[x_amb]][vpos[g_amb]] = vpos[f]
            act_right[hpos[x_amb]][vpos[g_amb]] = hpos[y]
    mp = MatchedPair(vsub, hsub, act_left, act_right)
    return mp, v_list, h_list


# -- connected-case group data ----------------------------------------------


class ConnectedFactorizationData:
    """Two wide-subgroupoid data sets over the same group, points and
    transversal, describing candidate V and H inside D(O) x P^2."""

    def __init__(self, table: tuple[tuple[int, ...], ...], n_points: int,
                 v_data: WideSubgroupoidData, h_data: WideSubgroupoidData):
        self.table = table
        self.n_points = n_points
        self.v_data = v_data      # relation ~V, subgroups V_P, reps e_PQ
        self.h_data = h_data      # relation ~H, subgroups H_P, reps d_PQ


class FactorizationVerdict:
    def __init__(self, exact: bool, failures: list[tuple],
                 partition_sizes: dict[tuple[int, int], list[int]]):
        self.exact = exact
        self.failures = failures  # ("a", (P, Q), element, count) / ("b", P, elem)
        self.partition_sizes = partition_sizes


def verify_connected_factorization(data: ConnectedFactorizationData) -> FactorizationVerdict:
    """Check the double-coset conditions for D = V H on D(O) x P^2.

    Condition (a): for every ordered pair (P, Q) the products
    ``V_P e_PR d_RQ H_Q`` over the admissible intermediate points R
    (P ~V R and R ~H Q) cover the group exactly once.
    Condition (b): V_P and H_P meet only in the identity.
    The verdict is cross-checked against the counting definition of exactness
    on the assembled subgroupoids.
    """
    table = [list(r) for r in data.table]
    n = data.n_points
    if data.v_data.transversal != data.h_data.transversal:
        raise StructureError("V and H data must share the transversal")
    for sub in (data.v_data, data.h_data):
        validate_subgroupoid_data(sub, table).raise_if_failed()
    order = len(table)
    eid = one_object_group(table).identity[0]
    failures: list[tuple] = []
    sizes: dict[tuple[int, int], list[int]] = {}
    for p in range(n):
        vh = data.v_data.vertex_groups[p] & data.h_data.vertex_groups[p]
        if vh != frozenset({eid}):
            bad = min(vh - {eid}) if vh - {eid} else eid
            failures.append(("b", p, bad))
    for p in range(n):
        for q in range(n):
            # each (R, v, h) triple contributes one product; exactness means
            # every group element is hit exactly once
            counts = [0] * order
            chunk = []
            for r in range(n):
                if not (data.v_data.related(p, r) and data.h_data.related(r, q)):
                    continue
                e_pr = data.v_data.coset_reps[(p, r)]
                d_rq = data.h_data.coset_reps[(r, q)]
                members = set()
                for v in data.v_data.vertex_groups[p]:
                    left = table[v][e_pr]
                    for h in data.h_data.vertex_groups[q]:
                        elem = table[left][table[d_rq][h]]
                        members.add(elem)
                        counts[elem] += 1
                chunk.append(len(members))
            sizes[(p, q)] = chunk
            for elem, c in enumerate(counts):
                if c != 1:
                    failures.append(("a", (p, q), elem, c))
                    break
    verdict = FactorizationVerdict(not failures, failures, sizes)
    _cross_check_factorization(data, table, verdict)
    return verdict


def _cross_check_factorization(data, table, verdict) -> None:
    ambient = group_times_coarse(table, data.n_points)
    v_arrows = wide_subgroupoid_from_data(data.v_data, table)
    h_arrows = wide_subgroupoid_from_data(data.h_data, table)
    try:
        from_exact_factorization(ambient, v_arrows, h_arrows)
        counted_exact = True
    except FactorizationError:
        counted_exact = False
    if counted_exact != verdict.exact:
        raise InternalConsistencyError(
            "double-coset verdict disagrees with factorization counting")
