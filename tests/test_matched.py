import pytest

from dgq.double import (diagonal_components, is_vacant, transpose,
                        validate_double_groupoid)
from dgq.errors import FactorizationError, StructureError
from dgq.groupoids import (UNDEF, Groupoid, WideSubgroupoidData,
                           coarse_groupoid, one_object_group,
                           trivial_transversal)
from dgq.matched import (ConnectedFactorizationData, MatchedPair,
                         diagonal_groupoid, from_exact_factorization,
                         from_vacant_double, subgroupoid, to_vacant_double,
                         validate_matched_pair, verify_connected_factorization)
from dgq.samples import (build_Xrs, cyclic_table, s3_factorization,
                         symmetric_table)


def identities_only(g: Groupoid) -> Groupoid:
    arrows = sorted(set(g.identity))
    pos = {f: i for i, f in enumerate(arrows)}
    compose = [[UNDEF] * len(arrows) for _ in arrows]
    for f in arrows:
        for h in arrows:
            c = g.compose[f][h]
            if c != UNDEF:
                compose[pos[f]][pos[h]] = pos[c]
    return Groupoid(g.n_objects, [g.source[f] for f in arrows],
                    [g.target[f] for f in arrows],
                    [pos[g.identity[p]] for p in range(g.n_objects)], compose)


def test_trivial_actions_validate():
    horiz = coarse_groupoid(2)
    vert = identities_only(coarse_groupoid(2))
    act_left = [[UNDEF] * vert.n_arrows for _ in range(horiz.n_arrows)]
    act_right = [[UNDEF] * vert.n_arrows for _ in range(horiz.n_arrows)]
    for x in horiz.arrows():
        g = vert.identity[horiz.target[x]]
        act_left[x][g] = vert.identity[horiz.source[x]]
        act_right[x][g] = x
    mp = MatchedPair(vert, horiz, act_left, act_right)
    assert validate_matched_pair(mp).ok


def test_s3_matched_pair_validates(s3_mp):
    assert validate_matched_pair(s3_mp).ok


def test_s3_actions_match_group_refactorization(s3_mp):
    # x g refactors as (x |> g)(x <| g) inside the ambient group
    table, v_list, h_list = s3_factorization()
    for x_i, x_amb in enumerate(h_list):
        for g_i, g_amb in enumerate(v_list):
            prod = table[x_amb][g_amb]
            f = v_list[s3_mp.left(x_i, g_i)]
            y = h_list[s3_mp.right(x_i, g_i)]
            assert table[f][y] == prod


def test_perturbed_action_fails_distributivity(s3_mp):
    act_left = [list(r) for r in s3_mp.act_left]
    x, g = next((x, g) for x, g in s3_mp.pairs()
                if not s3_mp.vert.is_identity(g)
                and not s3_mp.horiz.is_identity(x))
    old = act_left[x][g]
    candidates = [f for f in s3_mp.vert.arrows()
                  if f != old
                  and s3_mp.vert.source[f] == s3_mp.vert.source[old]
                  and s3_mp.vert.target[f] == s3_mp.vert.target[old]]
    act_left[x][g] = candidates[0]
    bad = MatchedPair(s3_mp.vert, s3_mp.horiz, act_left, s3_mp.act_right)
    rep = validate_matched_pair(bad)
    assert not rep.ok
    rules = {f.rule for f in rep.failures}
    assert rules & {"left-distributivity", "left-action-composition",
                    "left-unit", "corner-compatibility"}


def test_to_vacant_double_box_count(s3_mp, s3_T):
    # one point: boxes are all pairs (horizontal edge, vertical edge)
    assert s3_T.n_boxes == s3_mp.horiz.n_arrows * s3_mp.vert.n_arrows
    assert validate_double_groupoid(s3_T).ok
    assert is_vacant(s3_T).vacant


def test_round_trip_mp_double_mp(s3_mp, s3_T):
    assert from_vacant_double(s3_T) == s3_mp


def test_round_trip_double_mp_double(vacant_corpus):
    for name, t in vacant_corpus.items():
        again = to_vacant_double(from_vacant_double(t))
        # canonical relabeling: box -> (top, right)
        relabel = {a: (t.top[a], t.right[a]) for a in t.boxes()}
        back = {i: (again.top[i], again.right[i]) for i in again.boxes()}
        assert sorted(relabel.values()) == sorted(back.values())
        mapping = {a: next(i for i, v in back.items() if v == relabel[a])
                   for a in t.boxes()}
        for a, b in t.vertical_boxes.composable_pairs():
            c = t.vcomp[a][b]
            if c != UNDEF:
                assert again.vcomp[mapping[a]][mapping[b]] == mapping[c]
        for a, b in t.horizontal_boxes.composable_pairs():
            c = t.hcomp[a][b]
            if c != UNDEF:
                assert again.hcomp[mapping[a]][mapping[b]] == mapping[c]


def test_x22_matched_pair_has_relation_actions():
    t = build_Xrs(2, 2)
    mp = from_vacant_double(t)
    assert validate_matched_pair(mp).ok
    # edge groupoids come from relations, so actions are forced by endpoints
    for x, g in mp.pairs():
        lft = mp.left(x, g)
        arrows = mp.vert.arrows_between(mp.vert.source[lft], mp.vert.target[lft])
        assert arrows == [lft]


# -- diagonal groupoid --------------------------------------------------------


def test_diagonal_of_s3_is_s3(s3_mp):
    table, v_list, h_list = s3_factorization()
    diag = diagonal_groupoid(s3_mp)
    assert diag.groupoid.n_arrows == 6
    # witness: (f, y) -> f.y in the ambient group is an isomorphism
    ambient = one_object_group(table)
    image = {}
    for i, (f, y) in enumerate(diag.pairs):
        image[i] = ambient.compose[v_list[f]][h_list[y]]
    assert sorted(image.values()) == list(range(6))
    for i in range(6):
        for j in range(6):
            c = diag.groupoid.compose[i][j]
            assert image[c] == ambient.compose[image[i]][image[j]]


def test_diagonal_with_identity_horiz_is_vert():
    vert = coarse_groupoid(2)
    horiz = identities_only(coarse_groupoid(2))
    act_left = [[UNDEF] * vert.n_arrows for _ in range(horiz.n_arrows)]
    act_right = [[UNDEF] * vert.n_arrows for _ in range(horiz.n_arrows)]
    for x in horiz.arrows():
        for g in vert.arrows():
            if horiz.target[x] != vert.source[g]:
                continue
            act_left[x][g] = g
            act_right[x][g] = horiz.identity[vert.target[g]]
    mp = MatchedPair(vert, horiz, act_left, act_right)
    assert validate_matched_pair(mp).ok
    diag = diagonal_groupoid(mp)
    assert diag.groupoid.n_arrows == vert.n_arrows
    for f in vert.arrows():
        i = diag.v_embed[f]
        assert diag.pairs[i][0] == f


def test_diagonal_of_x22_is_coarse4():
    mp = from_vacant_double(build_Xrs(2, 2))
    diag = diagonal_groupoid(mp).groupoid
    assert diag.n_arrows == 16
    assert diag.is_connected()
    for x in range(4):
        for y in range(4):
            assert len(diag.arrows_between(x, y)) == 1


def test_triangle_diagonal_components(vacant_corpus):
    for t in vacant_corpus.values():
        mp = from_vacant_double(t)
        diag = diagonal_groupoid(mp).groupoid
        assert diag.object_components() == diagonal_components(t)


# -- exact factorizations -----------------------------------------------------


def test_from_exact_factorization_s3(s3_mp):
    table, v, h = s3_factorization()
    mp, _, _ = from_exact_factorization(one_object_group(table), v, h)
    assert mp == s3_mp
    assert validate_matched_pair(mp).ok


def test_degenerate_factorization_v_everything():
    table = symmetric_table(3)[0]
    d = one_object_group(table)
    mp, _, _ = from_exact_factorization(d, set(range(6)), {d.identity[0]})
    assert validate_matched_pair(mp).ok
    assert mp.horiz.n_arrows == 1


def test_z4_overlap_not_exact():
    d = one_object_group(cyclic_table(4))
    with pytest.raises(FactorizationError):
        from_exact_factorization(d, {0, 2}, {0, 2})


def test_transpose_compatibility(s3_mp, s3_T):
    # swapping the two factors of the factorization yields the matched pair
    # of the transposed double groupoid
    table, v, h = s3_factorization()
    swapped, _, _ = from_exact_factorization(one_object_group(table), h, v)
    assert swapped == from_vacant_double(transpose(s3_T))


def test_group_compatibilities_from_intro(s3_mp):
    # at one point the distributivity identities are the classical matched
    # pair-of-groups conditions; check them in raw action-table form
    mp = s3_mp
    vt, hz = mp.vert, mp.horiz
    for x in hz.arrows():
        for f in vt.arrows():
            for g in vt.arrows():
                assert mp.left(x, vt.compose[f][g]) == vt.compose[
                    mp.left(x, f)][mp.left(mp.right(x, f), g)]
    for x in hz.arrows():
        for y in hz.arrows():
            for g in vt.arrows():
                assert mp.right(hz.compose[x][y], g) == hz.compose[
                    mp.right(x, mp.left(y, g))][mp.right(y, g)]


# -- connected-case data ------------------------------------------------------


def _one_point_data(table, v_set, h_set):
    e = one_object_group(table).identity[0]
    tv = trivial_transversal(1, table)
    v_data = WideSubgroupoidData(1, (0,), (frozenset(v_set),), {(0, 0): e}, tv)
    h_data = WideSubgroupoidData(1, (0,), (frozenset(h_set),), {(0, 0): e}, tv)
    return ConnectedFactorizationData(
        tuple(tuple(r) for r in table), 1, v_data, h_data)


def test_s3_connected_data_exact():
    table, v, h = s3_factorization()
    verdict = verify_connected_factorization(_one_point_data(table, v, h))
    assert verdict.exact
    assert verdict.partition_sizes[(0, 0)] == [6]        # 6 = 3 * 2


def test_z4_overlap_fails_condition_a():
    table = cyclic_table(4)
    verdict = verify_connected_factorization(_one_point_data(table, {0, 2}, {0, 2}))
    assert not verdict.exact
    kinds = {f[0] for f in verdict.failures}
    assert "a" in kinds
    a_failure = next(f for f in verdict.failures if f[0] == "a")
    assert a_failure[1] == (0, 0)
    assert "b" in kinds        # the subgroups also overlap


def test_two_point_overlap_fails_condition_a():
    table = cyclic_table(2)
    e = 0
    tv = trivial_transversal(2, table)
    reps = {(p, q): e for p in range(2) for q in range(2)}
    v_data = WideSubgroupoidData(2, (0, 0), (frozenset({e}),) * 2, reps, tv)
    h_data = WideSubgroupoidData(2, (0, 0), (frozenset({e}),) * 2, reps, tv)
    data = ConnectedFactorizationData(
        tuple(tuple(r) for r in table), 2, v_data, h_data)
    verdict = verify_connected_factorization(data)
    assert not verdict.exact
    # two admissible intermediate points double-count the identity coset
    a_failures = [f for f in verdict.failures if f[0] == "a"]
    assert a_failures and a_failures[0][3] != 1


def test_nontrivial_intersection_fails_condition_b():
    table, v, h = s3_factorization()
    verdict = verify_connected_factorization(_one_point_data(table, v, v))
    assert any(f[0] == "b" for f in verdict.failures)


def test_subgroupoid_rejects_non_closed_arrow_set_with_witness():
    s3 = one_object_group(symmetric_table(3)[0])
    e = s3.identity[0]
    order2 = [f for f in s3.arrows() if f != e and s3.compose[f][f] == e]
    order3 = [f for f in s3.arrows() if f != e and f not in order2]
    t1, t2 = order2[:2]
    c = order3[0]
    cases = [({t1}, ("identity", 0)),
             ({e, c}, ("inverse", c)),
             ({e, t1, t2}, None)]
    for arrows, witness in cases:
        with pytest.raises(StructureError) as err:
            subgroupoid(s3, arrows)
        message = str(err.value)
        assert "not a wide subgroupoid" in message
        if witness is not None:
            assert str(witness) in message
        else:
            # a product of the two transpositions is a 3-cycle outside the set
            assert any(f"('compose', {f}, {h})" in message
                       and s3.compose[f][h] not in arrows
                       for f, h in ((t1, t2), (t2, t1)))
    sub, order = subgroupoid(s3, {e, t1})
    assert order == sorted({e, t1}) and sub.n_arrows == 2
