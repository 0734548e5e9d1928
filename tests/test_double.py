import itertools
import json
import re
from pathlib import Path

import pytest

from dgq import io as dio
from dgq.double import (DoubleGroupoid, DoubleRelation, _from_box_groupoids,
                        build_Xrs, classify_vacant_relation, compute_inverses,
                        diagonal_components, double_direct_product,
                        double_disjoint_union, equivalence_from_pairs,
                        from_double_relation, is_vacant, relation_groupoid,
                        transpose, validate_double_groupoid)
from dgq.errors import FormatError, StructureError, VacancyError
from dgq.groupoids import UNDEF, direct_product, disjoint_union
from dgq.samples import commuting_squares_z2, full_corpus

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def brute_fillers(t, x, g):
    return [a for a in t.boxes() if t.top[a] == x and t.right[a] == g]


def filler(t, x, g):
    """The unique box with top x and right g of a vacant double groupoid."""
    found = brute_fillers(t, x, g)
    if len(found) != 1:
        raise VacancyError(f"corner ({x}, {g}) has {len(found)} fillers")
    return found[0]


# -- validation ---------------------------------------------------------------


def test_s3_double_valid(s3_T):
    assert validate_double_groupoid(s3_T).ok


def test_x22_valid_and_box_count():
    t = build_Xrs(2, 2)
    assert t.n_boxes == 16
    assert validate_double_groupoid(t).ok


def test_corrupt_vcomp_detected():
    t = build_Xrs(2, 2)
    vcomp = [list(r) for r in t.vcomp]
    a, b = next(iter(t.vertical_boxes.composable_pairs()))
    old = vcomp[a][b]
    vcomp[a][b] = (old + 1) % t.n_boxes
    bad = DoubleGroupoid(t.horiz, t.vert, t.top, t.bottom, t.left, t.right,
                         t.vid, t.hid, vcomp, t.hcomp)
    rep = validate_double_groupoid(bad)
    assert not rep.ok
    assert all(f.rule.startswith(("axiom0", "axiom2", "axiom3", "axiom6"))
               for f in rep.failures)
    assert rep.failures[0].witness


# -- inverses -----------------------------------------------------------------


def test_vid_of_inverse_edge(s3_T):
    inv = compute_inverses(s3_T)
    hz = s3_T.horiz
    for x in hz.arrows():
        assert inv.h_inv[s3_T.vid[x]] == s3_T.vid[hz.inv(x)]


def test_theta_inverses_fixed(s3_T):
    inv = compute_inverses(s3_T)
    for p in range(s3_T.n_points):
        theta = s3_T.vid[s3_T.horiz.identity[p]]
        assert inv.h_inv[theta] == theta
        assert inv.v_inv[theta] == theta
        assert inv.full_inv[theta] == theta


def test_vertical_inverse_formula_on_matched_pair_boxes(s3_T):
    # the vertical inverse of the box with corner (x, g) has corner
    # (bottom, g^-1): top moves to the acted edge, right edge inverts
    inv = compute_inverses(s3_T)
    vt = s3_T.vert
    for a in s3_T.boxes():
        expected = filler(s3_T, s3_T.bottom[a], vt.inv(s3_T.right[a]))
        assert inv.v_inv[a] == expected


def test_full_inverse_frame(s3_T):
    inv = compute_inverses(s3_T)
    hz, vt = s3_T.horiz, s3_T.vert
    for a in s3_T.boxes():
        fa = inv.full_inv[a]
        assert s3_T.top[fa] == hz.inv(s3_T.bottom[a])
        assert s3_T.bottom[fa] == hz.inv(s3_T.top[a])
        assert s3_T.left[fa] == vt.inv(s3_T.right[a])
        assert s3_T.right[fa] == vt.inv(s3_T.left[a])


# -- vacancy -----------------------------------------------------------------


def test_s3_vacant(s3_T):
    assert is_vacant(s3_T).vacant


def test_commuting_squares_not_vacant():
    rep = is_vacant(commuting_squares_z2())
    assert not rep.vacant
    _, corner, fillers = rep.witness
    assert len(fillers) != 1


def test_x22_every_corner_has_one_filler():
    t = build_Xrs(2, 2)
    assert is_vacant(t).vacant
    corners = [(x, g) for x in t.horiz.arrows() for g in t.vert.arrows()
               if t.horiz.target[x] == t.vert.source[g]]
    assert len(corners) == 16
    for x, g in corners:
        assert len(brute_fillers(t, x, g)) == 1


def test_the_axiom_report_is_computed_once(corpus):
    for t in corpus.values():
        assert validate_double_groupoid(t) is validate_double_groupoid(t)


def test_vacancy_is_decided_only_on_a_double_groupoid(s3_T):
    bad_hcomp = [list(row) for row in s3_T.hcomp]
    a, b = next(iter(s3_T.horizontal_boxes.composable_pairs()))
    bad_hcomp[a][b] = (bad_hcomp[a][b] + 1) % s3_T.n_boxes
    bad = DoubleGroupoid(s3_T.horiz, s3_T.vert, s3_T.top, s3_T.bottom,
                         s3_T.left, s3_T.right, s3_T.vid, s3_T.hid,
                         s3_T.vcomp, bad_hcomp)
    for routine in (is_vacant, DoubleGroupoid.cocycle_identities):
        with pytest.raises(StructureError, match="double groupoid: "):
            routine(bad)


def test_vacancy_conditions_consistent_on_corpus(corpus):
    # is_vacant raises InternalConsistencyError if the four corner
    # conditions ever disagree; running it is the check
    for name, t in corpus.items():
        is_vacant(t)


# -- transpose ----------------------------------------------------------------


def test_transpose_involution(corpus):
    for t in corpus.values():
        assert transpose(transpose(t)) == t


def test_transpose_frame(s3_T):
    tt = transpose(s3_T)
    for a in s3_T.boxes():
        assert tt.top[a] == s3_T.left[a]
        assert tt.bottom[a] == s3_T.right[a]
        assert tt.left[a] == s3_T.top[a]
        assert tt.right[a] == s3_T.bottom[a]


def test_transpose_of_grid_classifies_swapped():
    t = transpose(build_Xrs(2, 3))
    assert validate_double_groupoid(t).ok
    r, s, _ = classify_vacant_relation(t)
    assert (r, s) == (3, 2)


# -- double relations ----------------------------------------------------------


def test_equality_relations_give_theta_boxes():
    rel = DoubleRelation(3, (0, 1, 2), (0, 1, 2))
    t = from_double_relation(rel)
    assert t.n_boxes == 3
    assert all(t.is_vid(a) and t.is_hid(a) for a in t.boxes())
    assert validate_double_groupoid(t).ok


def test_x22_from_relations_counts():
    t = build_Xrs(2, 2)
    assert t.n_boxes == 2 * 2 * 2 * 2
    assert t.n_points == 4


def test_total_relations_on_two_points_not_vacant():
    rel = DoubleRelation(2, (0, 0), (0, 0))
    t = from_double_relation(rel)
    assert validate_double_groupoid(t).ok
    rep = is_vacant(t)
    assert not rep.vacant


def test_equivalence_from_pairs_validation():
    pairs = [(0, 0), (1, 1), (0, 1)]
    with pytest.raises(StructureError, match="symmetric"):
        equivalence_from_pairs(2, pairs)
    pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)]
    with pytest.raises(StructureError, match="transitive"):
        equivalence_from_pairs(3, pairs)
    full = [(p, q) for p in range(2) for q in range(2)]
    assert equivalence_from_pairs(2, full) == (0, 0)


def test_build_x11_single_box_and_classify():
    t = build_Xrs(1, 1)
    assert t.n_boxes == 1 and t.n_points == 1
    assert classify_vacant_relation(t)[:2] == (1, 1)


def test_build_x23_classify_with_witness():
    t = build_Xrs(2, 3)
    assert t.n_points == 6 and t.n_boxes == 36
    r, s, point_map = classify_vacant_relation(t)
    assert (r, s) == (2, 3)
    assert sorted(point_map.values()) == sorted(
        (i, j) for i in range(2) for j in range(3))


def test_classify_rejects_non_vacant_relation():
    rel = DoubleRelation(2, (0, 0), (0, 0))
    with pytest.raises(VacancyError):
        classify_vacant_relation(from_double_relation(rel))


def test_classify_rejects_non_relation(s3_T):
    with pytest.raises(StructureError):
        classify_vacant_relation(s3_T)


# -- unions, products, diagonal components -------------------------------------


def test_diagonal_components_of_grid():
    assert diagonal_components(build_Xrs(2, 2)) == [[0, 1, 2, 3]]


def test_diagonal_components_of_union(s3_T):
    t = double_disjoint_union(build_Xrs(2, 2), s3_T)
    comps = diagonal_components(t)
    assert comps == [[0, 1, 2, 3], [4]]


def test_diagonal_relation_failure_exposed():
    # horizontal classes {0,1},{2}; vertical classes {0},{1,2}: then
    # 0 ~ 2 through 1 but not back, so the diagonal relation is asymmetric
    rel = DoubleRelation(3, (0, 0, 2), (0, 1, 1))
    t = from_double_relation(rel)
    assert validate_double_groupoid(t).ok
    with pytest.raises(StructureError, match="symmetric|transitive"):
        diagonal_components(t)


def test_union_and_product_of_vacant_are_vacant(s3_T):
    u = double_disjoint_union(s3_T, build_Xrs(2, 2))
    p = double_direct_product(s3_T, build_Xrs(2, 1))
    for t in (u, p):
        assert validate_double_groupoid(t).ok
        assert is_vacant(t).vacant


def test_product_filler_counts():
    p = double_direct_product(build_Xrs(1, 1), build_Xrs(2, 2))
    for x in p.horiz.arrows():
        for g in p.vert.arrows():
            if p.horiz.target[x] == p.vert.source[g]:
                assert len(brute_fillers(p, x, g)) == 1


# -- lemma-level properties ------------------------------------------------------


def test_stacked_horizontal_inverse(corpus):
    # {X over R}^h = {X^h over R^h} whenever X over R is defined
    for t in corpus.values():
        inv = compute_inverses(t)
        for x, r in t.vertical_boxes.composable_pairs():
            c = t.vcomp[x][r]
            if c == UNDEF:
                continue
            other = t.vcomp[inv.h_inv[x]][inv.h_inv[r]]
            assert other == inv.h_inv[c]


def _unit_triples(t):
    """Horizontally composable triples whose product is a vertical identity."""
    for a, b in t.horizontal_boxes.composable_pairs():
        ab = t.hcomp[a][b]
        for c in t.boxes():
            if t.right[ab] != t.left[c]:
                continue
            abc = t.hcomp[ab][c]
            if t.is_vid(abc):
                yield a, b, c


def test_unit_factorization_unique(s3_T):
    """For A|B|C with ABC a vertical identity there are unique U, V with
    U over V = B, AU and VC vertical identities, in the displayed layout."""
    t = s3_T
    count_triples = 0
    for a, b, c in _unit_triples(t):
        count_triples += 1
        found = []
        for u in t.boxes():
            if t.hcomp[a][u] == UNDEF or not t.is_vid(t.hcomp[a][u]):
                continue
            for v in t.boxes():
                if t.vcomp[u][v] != b:
                    continue
                if t.hcomp[v][c] == UNDEF or not t.is_vid(t.hcomp[v][c]):
                    continue
                found.append((u, v))
        assert len(found) == 1, (a, b, c, found)
        u, v = found[0]
        # displayed 2x3 grid: A U vid(t C) / vid(b A) V C
        assert t.hcomp[u][t.vid[t.top[c]]] != UNDEF
        assert t.hcomp[t.vid[t.bottom[a]]][v] != UNDEF
    assert count_triples > 0


def test_counit_factorization_unique_via_transpose(s3_T):
    t = transpose(s3_T)
    for a, b, c in _unit_triples(t):
        found = []
        for u in t.boxes():
            if t.hcomp[a][u] == UNDEF or not t.is_vid(t.hcomp[a][u]):
                continue
            for v in t.boxes():
                if t.vcomp[u][v] != b:
                    continue
                if t.hcomp[v][c] == UNDEF or not t.is_vid(t.hcomp[v][c]):
                    continue
                found.append((u, v))
        assert len(found) == 1


def triple_inverse_solutions(t, a):
    """Brute-force solutions (X, Y, Z) of the three-box identity used by the
    antipode-composite axiom: the cross layout with X Y Z = A and the
    stacked X^-1 / Y / Z^-1 = A^-1."""
    inv = compute_inverses(t)
    out = []
    for x in t.boxes():
        xi = inv.full_inv[x]
        for y in t.boxes():
            if t.hcomp[x][y] == UNDEF or t.vcomp[xi][y] == UNDEF:
                continue
            xy = t.hcomp[x][y]
            for z in t.boxes():
                zi = inv.full_inv[z]
                if (t.hcomp[y][z] == UNDEF or t.hcomp[xy][z] != a
                        or t.vcomp[y][zi] == UNDEF):
                    continue
                stacked = t.vcomp[t.vcomp[xi][y]][zi]
                if stacked == inv.full_inv[a]:
                    out.append((x, y, z))
    return out


@pytest.mark.parametrize("name", ["s3_matched_pair", "x22"])
def test_triple_inverse_unique_on_vacant(name, vacant_corpus):
    t = vacant_corpus[name]
    inv = compute_inverses(t)
    for a in t.boxes():
        sols = triple_inverse_solutions(t, a)
        assert sols == [(a, inv.h_inv[a], a)]


def test_triple_inverse_equivalence_non_vacant():
    # in any double groupoid the two conditions are equivalent: every
    # solution of X Y Z = A in the cross layout also satisfies the stacked
    # identity, even without vacancy
    t = commuting_squares_z2()
    inv = compute_inverses(t)
    for a in t.boxes():
        for x in t.boxes():
            xi = inv.full_inv[x]
            for y in t.boxes():
                if t.hcomp[x][y] == UNDEF or t.vcomp[xi][y] == UNDEF:
                    continue
                for z in t.boxes():
                    zi = inv.full_inv[z]
                    if (t.hcomp[y][z] == UNDEF
                            or t.vcomp[y][zi] == UNDEF
                            or t.hcomp[t.hcomp[x][y]][z] != a):
                        continue
                    stacked = t.vcomp[t.vcomp[xi][y]][zi]
                    assert stacked == inv.full_inv[a]


# -- corner-solution formulas on vacant instances ---------------------------------


def test_identity_side_forces_identity_box(vacant_corpus):
    for t in vacant_corpus.values():
        for a in t.boxes():
            if (t.horiz.is_identity(t.top[a]) or t.horiz.is_identity(t.bottom[a])):
                assert t.is_hid(a)
            if (t.vert.is_identity(t.left[a]) or t.vert.is_identity(t.right[a])):
                assert t.is_vid(a)


def _theta(t, p):
    return t.vid[t.horiz.identity[p]]


def test_counital_pair_sets(s3_T):
    """The two corner-solution sets behind the target counital map: empty
    unless C is a horizontal identity, else indexed by edges at a point."""
    t = s3_T
    for c in t.boxes():
        found = []
        for a in t.boxes():
            if t.vcomp[a][c] == UNDEF:
                continue
            ac = t.vcomp[a][c]
            if not t.is_hid(ac):
                continue
            for b in t.boxes():
                if t.hcomp[a][b] == UNDEF:
                    continue
                if t.is_vid(t.hcomp[a][b]):
                    found.append((a, b))
        if not t.is_hid(c):
            assert found == []
        else:
            g = t.left[c]
            p = t.vert.source[g]
            expected = sorted((_theta(t, p), t.vid[x])
                              for x in t.horiz.arrows()
                              if t.horiz.source[x] == p)
            assert sorted(found) == expected


def test_fold_pair_sets(s3_T):
    """Solutions of A|B with B^-1 under A and AB = C exist only for C a
    horizontal identity and are indexed by edges out of its top point."""
    t = s3_T
    inv = compute_inverses(t)
    for c in t.boxes():
        found = []
        for a in t.boxes():
            for b in t.boxes():
                if t.hcomp[a][b] != c:
                    continue
                if t.vcomp[a][inv.full_inv[b]] == UNDEF:
                    continue
                found.append((a, b))
        if not t.is_hid(c):
            assert found == []
        else:
            g = t.left[c]
            p = t.vert.source[g]
            zs = [z for z in t.horiz.arrows() if t.horiz.source[z] == p]
            assert len(found) == len(zs)
            for a, b in found:
                z = t.top[a]
                assert t.left[a] == g and t.top[b] == t.horiz.inv(z)
                assert t.right[b] == g


# -- construction: the table checks of the two box groupoids --------------------


VBOXES = "top/bottom/vid/vcomp"
HBOXES = "left/right/hid/hcomp"
FAMILY = {"top": VBOXES, "bottom": VBOXES, "vid": VBOXES, "vcomp": VBOXES,
          "horiz": VBOXES, "left": HBOXES, "right": HBOXES, "hid": HBOXES,
          "hcomp": HBOXES, "vert": HBOXES}
# the words a message may use for a family: its tables, or the kind of table
FAMILY_WORDS = {VBOXES: r"top|bottom|vid|vcomp|frame|identity-box",
                HBOXES: r"left|right|hid|hcomp|frame|identity-box"}
ARGS = ("horiz", "vert", "top", "bottom", "left", "right", "vid", "hid",
        "vcomp", "hcomp")


def _x22_tables():
    t = build_Xrs(2, 2)
    return {"horiz": t.horiz, "vert": t.vert,
            **{k: [list(r) for r in getattr(t, k)] if k.endswith("comp")
               else list(getattr(t, k)) for k in ARGS[2:]}}


def _malformed(table, fault):
    """The ten tables of x22 with one of them broken."""
    t = build_Xrs(2, 2)
    args = _x22_tables()
    if table in ("horiz", "vert"):
        # an edge groupoid with fewer or more edges than the boxes are over
        labels = (0, 1, 2, 3) if fault == "range" else (0, 0, 0, 0)
        args[table] = relation_groupoid(labels)
    elif table.endswith("comp"):
        if fault == "range":
            args[table][0][0] = t.n_boxes
        else:
            del args[table][-1]
    elif fault == "range":
        bound = (t.horiz.n_arrows if table in ("top", "bottom") else
                 t.vert.n_arrows if table in ("left", "right") else t.n_boxes)
        args[table][3] = bound + 1
    else:
        del args[table][-1]
    return [args[k] for k in ARGS]


MALFORMED = [(table, fault) for table in ARGS for fault in ("range", "length")]


@pytest.mark.parametrize("table,fault", MALFORMED,
                         ids=[f"{t}-{f}" for t, f in MALFORMED])
def test_malformed_table_raises_structure_error(table, fault):
    with pytest.raises(StructureError) as exc:
        DoubleGroupoid(*_malformed(table, fault))
    assert re.search(FAMILY_WORDS[FAMILY[table]], str(exc.value))


def test_edge_groupoids_on_different_point_sets_rejected():
    args = _x22_tables()
    args["vert"] = build_Xrs(2, 3).vert
    with pytest.raises(StructureError, match="edge groupoids"):
        DoubleGroupoid(*[args[k] for k in ARGS])


def test_malformed_document_raises_format_error():
    doc = json.loads((CORPUS / "x22.json").read_text())
    doc["top"][3] = 9
    with pytest.raises(FormatError, match=r"top.*\b9 out of range"):
        dio.parse(json.dumps(doc))


def test_malformed_table_message_starts_with_its_family():
    for table, fault in MALFORMED:
        with pytest.raises(StructureError) as exc:
            DoubleGroupoid(*_malformed(table, fault))
        assert str(exc.value).startswith(FAMILY[table] + ": "), (table, fault)


def test_malformed_table_message_example():
    args = _x22_tables()
    args["top"][3] = 9
    with pytest.raises(StructureError) as exc:
        DoubleGroupoid(*[args[k] for k in ARGS])
    assert str(exc.value) == "top/bottom/vid/vcomp: source[3] = 9 out of range"


def test_box_groupoids_must_share_their_boxes():
    # the horizontal box groupoid of the boxes that are vertical edges only
    args = _x22_tables()
    vert = args["vert"]
    args["left"] = args["right"] = args["hid"] = list(vert.arrows())
    args["hcomp"] = [[g if g == h else UNDEF for h in vert.arrows()]
                     for g in vert.arrows()]
    with pytest.raises(StructureError) as exc:
        DoubleGroupoid(*[args[k] for k in ARGS])
    assert str(exc.value).startswith(HBOXES + ": 8 boxes")


def test_box_groupoids_are_kept_as_handed_over(corpus):
    for t in corpus.values():
        swapped = transpose(t)
        assert swapped.vertical_boxes is t.horizontal_boxes
        assert swapped.horizontal_boxes is t.vertical_boxes
        assert (swapped.horiz, swapped.vert) == (t.vert, t.horiz)


def test_box_groupoids_must_lie_over_their_edges(s3_T):
    # the vertical boxes of the transpose lie over the vertical edges
    with pytest.raises(StructureError, match="must lie over the edges"):
        _from_box_groupoids(s3_T.horiz, s3_T.vert, s3_T.horizontal_boxes,
                            s3_T.vertical_boxes)


# -- the four groupoids --------------------------------------------------------


def test_box_tables_are_the_box_groupoids(corpus):
    for t in corpus.values():
        vb, hb = t.vertical_boxes, t.horizontal_boxes
        assert (t.top, t.bottom, t.vid, t.vcomp) == (
            vb.source, vb.target, vb.identity, vb.compose)
        assert t.top is vb.source and t.vcomp is vb.compose
        assert t.left is hb.source and t.hcomp is hb.compose
        assert (vb.n_objects, hb.n_objects) == (t.horiz.n_arrows, t.vert.n_arrows)
        assert list(vb.composable_pairs()) == [
            (a, b) for a in t.boxes() for b in t.boxes()
            if t.bottom[a] == t.top[b]]
        assert list(hb.composable_pairs()) == [
            (a, b) for a in t.boxes() for b in t.boxes()
            if t.right[a] == t.left[b]]
        inv = compute_inverses(t)
        assert inv.h_inv is hb.inverse and inv.v_inv is vb.inverse


def _reference_union(t1, t2):
    """The disjoint union written out table by table."""
    oh, ov, ob = t1.horiz.n_arrows, t1.vert.n_arrows, t1.n_boxes
    top = list(t1.top) + [x + oh for x in t2.top]
    bottom = list(t1.bottom) + [x + oh for x in t2.bottom]
    left = list(t1.left) + [x + ov for x in t2.left]
    right = list(t1.right) + [x + ov for x in t2.right]
    vid = list(t1.vid) + [a + ob for a in t2.vid]
    hid = list(t1.hid) + [a + ob for a in t2.hid]
    n = ob + t2.n_boxes
    vcomp = [[UNDEF] * n for _ in range(n)]
    hcomp = [[UNDEF] * n for _ in range(n)]
    for (tt, off) in ((t1, 0), (t2, ob)):
        for a in tt.boxes():
            for b in tt.boxes():
                c = tt.vcomp[a][b]
                if c != UNDEF:
                    vcomp[a + off][b + off] = c + off
                c = tt.hcomp[a][b]
                if c != UNDEF:
                    hcomp[a + off][b + off] = c + off
    return (disjoint_union(t1.horiz, t2.horiz), disjoint_union(t1.vert, t2.vert),
            top, bottom, left, right, vid, hid, vcomp, hcomp)


def _reference_product(t1, t2):
    """The direct product written out table by table."""
    mh2, mv2, mb2 = t2.horiz.n_arrows, t2.vert.n_arrows, t2.n_boxes
    n = t1.n_boxes * mb2

    def bidx(a1, a2):
        return a1 * mb2 + a2
    top = [t1.top[a1] * mh2 + t2.top[a2]
           for a1 in t1.boxes() for a2 in t2.boxes()]
    bottom = [t1.bottom[a1] * mh2 + t2.bottom[a2]
              for a1 in t1.boxes() for a2 in t2.boxes()]
    left = [t1.left[a1] * mv2 + t2.left[a2]
            for a1 in t1.boxes() for a2 in t2.boxes()]
    right = [t1.right[a1] * mv2 + t2.right[a2]
             for a1 in t1.boxes() for a2 in t2.boxes()]
    vid = [bidx(t1.vid[x1], t2.vid[x2])
           for x1 in t1.horiz.arrows() for x2 in t2.horiz.arrows()]
    hid = [bidx(t1.hid[g1], t2.hid[g2])
           for g1 in t1.vert.arrows() for g2 in t2.vert.arrows()]
    vcomp = [[UNDEF] * n for _ in range(n)]
    hcomp = [[UNDEF] * n for _ in range(n)]
    for a1 in t1.boxes():
        for a2 in t2.boxes():
            i = bidx(a1, a2)
            for b1 in t1.boxes():
                cv1, ch1 = t1.vcomp[a1][b1], t1.hcomp[a1][b1]
                for b2 in t2.boxes():
                    j = bidx(b1, b2)
                    if cv1 != UNDEF and t2.vcomp[a2][b2] != UNDEF:
                        vcomp[i][j] = bidx(cv1, t2.vcomp[a2][b2])
                    if ch1 != UNDEF and t2.hcomp[a2][b2] != UNDEF:
                        hcomp[i][j] = bidx(ch1, t2.hcomp[a2][b2])
    return (direct_product(t1.horiz, t2.horiz), direct_product(t1.vert, t2.vert),
            top, bottom, left, right, vid, hid, vcomp, hcomp)


def _ten_tables(t):
    return (t.horiz, t.vert, t.top, t.bottom, t.left, t.right, t.vid, t.hid,
            t.vcomp, t.hcomp)


def _as_tuples(tables):
    return tables[:2] + tuple(tuple(map(tuple, x)) if x and isinstance(x[0], list)
                              else tuple(x) for x in tables[2:])


UNION_PAIRS = list(itertools.product(full_corpus(), repeat=2))
PRODUCT_PAIRS = [(k1, k2) for k1, k2 in UNION_PAIRS
                 if full_corpus()[k1].n_boxes * full_corpus()[k2].n_boxes <= 400]


@pytest.mark.parametrize("k1,k2", UNION_PAIRS,
                         ids=[f"{k1}+{k2}" for k1, k2 in UNION_PAIRS])
def test_union_matches_the_table_by_table_reference(corpus, k1, k2):
    t1, t2 = corpus[k1], corpus[k2]
    got = _ten_tables(double_disjoint_union(t1, t2))
    assert got == _as_tuples(_reference_union(t1, t2))


@pytest.mark.parametrize("k1,k2", PRODUCT_PAIRS,
                         ids=[f"{k1}*{k2}" for k1, k2 in PRODUCT_PAIRS])
def test_product_matches_the_table_by_table_reference(corpus, k1, k2):
    t1, t2 = corpus[k1], corpus[k2]
    got = _ten_tables(double_direct_product(t1, t2))
    assert got == _as_tuples(_reference_product(t1, t2))
