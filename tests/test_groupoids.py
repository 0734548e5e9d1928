import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgq.errors import StructureError
from dgq.groupoids import (UNDEF, Groupoid, WideSubgroupoidData,
                           ambient_parts, coarse_groupoid,
                           connected_decomposition, data_from_wide_subgroupoid,
                           direct_product, disjoint_union, group_times_coarse,
                           groupoid_on, one_object_group, reassemble, same_double_coset,
                           trivial_transversal, validate_groupoid,
                           validate_subgroupoid_data, wide_subgroupoid_from_data)
from dgq.samples import cyclic_table, symmetric_table

S3_TABLE = symmetric_table(3)[0]

# a magma with two-sided identity 0 that fails associativity at (1, 1, 1)
NON_ASSOC = [[0, 1, 2], [1, 2, 1], [2, 2, 1]]


def test_one_object_group_z2_is_valid():
    g = one_object_group(cyclic_table(2))
    assert g.n_objects == 1 and g.n_arrows == 2
    assert validate_groupoid(g).ok


def test_one_object_group_z3_and_s3():
    assert one_object_group(cyclic_table(3)).n_arrows == 3
    assert one_object_group(S3_TABLE).n_arrows == 6


def test_non_associative_table_rejected_with_witness():
    with pytest.raises(StructureError, match=r"\(1, 1, 1\)"):
        one_object_group(NON_ASSOC)


def test_coarse_groupoid_shapes():
    assert coarse_groupoid(1).n_arrows == 1
    g3 = coarse_groupoid(3)
    assert g3.n_arrows == 9
    assert validate_groupoid(g3).ok
    assert g3.is_connected()
    comp = connected_decomposition(g3)
    assert len(comp) == 1 and comp[0].vertex_order == 1
    assert validate_groupoid(coarse_groupoid(2)).ok


def test_coarse_composition_law():
    g = coarse_groupoid(3)
    # (x, y)(y, v) = (x, v) with arrow (x, y) at index x*3+y
    for x, y, v in itertools.product(range(3), repeat=3):
        assert g.compose[x * 3 + y][y * 3 + v] == x * 3 + v


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coarse_groupoid_keeps_arrow_x_y_at_index_x_n_plus_y(n):
    g = coarse_groupoid(n)
    assert [(g.source[i], g.target[i]) for i in g.arrows()] == [
        (x, y) for x in range(n) for y in range(n)]
    assert g.identity == tuple(x * n + x for x in range(n))


def test_groupoid_on_asks_only_composable_pairs_and_rejects_a_stray_composite():
    # arrows "a": 0 -> 1 and "b": 1 -> 0 with their identities; a b is
    # defined, b a would be the identity at 1, left out of the labels
    ends = {"e0": (0, 0), "e1": (1, 1), "a": (0, 1), "b": (1, 0)}
    asked = []

    def compose(f, g):
        assert ends[f][1] == ends[g][0], (f, g)
        asked.append((f, g))
        return {("a", "b"): "e0", ("b", "a"): "e1"}.get(
            (f, g), f if g.startswith("e") else g)

    g = groupoid_on(2, ["e0", "e1", "a", "b"], lambda f: ends[f][0],
                    lambda f: ends[f][1], lambda p: f"e{p}", compose)
    assert g.source == (0, 1, 0, 1) and g.identity == (0, 1)
    assert g.compose[2][3] == 0 and g.compose[3][2] == 1
    assert g.compose[2][2] == UNDEF and len(asked) == 8
    assert validate_groupoid(g).ok
    with pytest.raises(StructureError,
                       match="composite of arrows b and a is e1, not an arrow"):
        groupoid_on(2, ["e0", "a", "b"], lambda f: ends[f][0],
                    lambda f: ends[f][1], lambda p: "e0", compose)
    with pytest.raises(StructureError, match="identity e1 at object 1"):
        groupoid_on(2, ["e0", "a"], lambda f: ends[f][0],
                    lambda f: ends[f][1], lambda p: f"e{p}",
                    lambda f, g: "e0")


def test_empty_base_rejected():
    with pytest.raises(StructureError):
        coarse_groupoid(0)


def test_corrupted_z2_reports_missing_inverse():
    # compose(g, g) = g instead of e: g loses its inverse
    table = [[0, 1], [1, 1]]
    g = Groupoid(1, [0, 0], [0, 0], [0], table)
    rep = validate_groupoid(g)
    assert not rep.ok
    assert any(f.rule == "inverse" and f.witness == (1,) for f in rep.failures)


def test_validate_flags_structural_domain_errors():
    g = coarse_groupoid(2)
    compose = [list(r) for r in g.compose]
    compose[0][3] = UNDEF   # (0,0)(1,1) is composable through object 0? no:
    # arrow 0 = (0,0) ends at 0, arrow 3 = (1,1) starts at 1: already UNDEF.
    # Remove a genuinely required entry instead.
    compose[0][0] = UNDEF
    bad = Groupoid(2, g.source, g.target, g.identity, compose)
    rep = validate_groupoid(bad)
    assert any(f.rule == "structure" for f in rep.failures)


def test_disjoint_union_counts_and_components():
    g = disjoint_union(one_object_group(cyclic_table(2)),
                       one_object_group(cyclic_table(3)))
    assert g.n_objects == 2 and g.n_arrows == 5
    assert validate_groupoid(g).ok
    comps = connected_decomposition(g)
    assert sorted(c.vertex_order for c in comps) == [2, 3]


def test_direct_product_z2_by_coarse2():
    # one object times two objects: 2 objects, 2*4 = 8 arrows, one component
    g = direct_product(one_object_group(cyclic_table(2)), coarse_groupoid(2))
    assert g.n_objects == 2 and g.n_arrows == 8
    assert validate_groupoid(g).ok
    comps = connected_decomposition(g)
    assert len(comps) == 1
    assert comps[0].vertex_order == 2


def test_decomposition_reassembly_is_isomorphic():
    g = disjoint_union(
        direct_product(one_object_group(cyclic_table(2)), coarse_groupoid(2)),
        one_object_group(cyclic_table(3)))
    comps = connected_decomposition(g)
    rebuilt = reassemble(comps)
    assert rebuilt.n_arrows == g.n_arrows
    # assemble the global witness from the per-component ones
    offset = 0
    iso = {}
    for comp in comps:
        for f, pf in comp.iso.items():
            iso[f] = pf + offset
        offset += comp.product.n_arrows
    assert sorted(iso.values()) == list(range(rebuilt.n_arrows))
    for f, h in g.composable_pairs():
        c = g.compose[f][h]
        assert rebuilt.compose[iso[f]][iso[h]] == iso[c]


def test_associativity_exhaustive_on_s3():
    g = one_object_group(S3_TABLE)
    for f, h in g.composable_pairs():
        for k in g.arrows():
            assert g.compose[g.compose[f][h]][k] == g.compose[f][g.compose[h][k]]


# -- wide subgroupoid data ---------------------------------------------------


def _identity_of(table):
    return one_object_group(table).identity[0]


def test_identities_only_data():
    table = cyclic_table(2)
    e = _identity_of(table)
    data = WideSubgroupoidData(
        n_objects=2, relation=(0, 1),
        vertex_groups=(frozenset({e}), frozenset({e})),
        coset_reps={(0, 0): e, (1, 1): e},
        transversal=trivial_transversal(2, table))
    assert validate_subgroupoid_data(data, table).ok
    arrows = wide_subgroupoid_from_data(data, table)
    ambient = group_times_coarse(table, 2)
    assert arrows == frozenset(ambient.identity)


def test_one_object_subgroup_of_s3():
    table = S3_TABLE
    e = _identity_of(table)
    swap = next(a for a in range(6) if table[a][a] == e and a != e)
    data = WideSubgroupoidData(
        1, (0,), (frozenset({e, swap}),), {(0, 0): e},
        trivial_transversal(1, table))
    arrows = wide_subgroupoid_from_data(data, table)
    assert len(arrows) == 2


def test_coarse_inside_z2_times_coarse2():
    table = cyclic_table(2)
    e = _identity_of(table)
    data = WideSubgroupoidData(
        2, (0, 0), (frozenset({e}), frozenset({e})),
        {(p, q): e for p in range(2) for q in range(2)},
        trivial_transversal(2, table))
    arrows = wide_subgroupoid_from_data(data, table)
    assert len(arrows) == 4
    for f in arrows:
        d, p, q = ambient_parts(f, 2)
        assert d == e


def test_full_ambient_round_trip():
    table = cyclic_table(2)
    ambient = group_times_coarse(table, 2)
    arrows = frozenset(ambient.arrows())
    data = data_from_wide_subgroupoid(arrows, table, 2)
    assert data.vertex_groups == (frozenset({0, 1}),) * 2
    assert wide_subgroupoid_from_data(data, table) == arrows


def test_round_trip_from_data_and_back():
    table = S3_TABLE
    e = _identity_of(table)
    swap = next(a for a in range(6) if table[a][a] == e and a != e)
    data = WideSubgroupoidData(
        2, (0, 0), (frozenset({e, swap}),) * 2,
        {(p, q): e for p in range(2) for q in range(2)},
        trivial_transversal(2, table))
    arrows = wide_subgroupoid_from_data(data, table)
    back = data_from_wide_subgroupoid(arrows, table, 2)
    assert wide_subgroupoid_from_data(back, table) == arrows
    # data recovered up to double-coset representatives
    assert back.relation == data.relation
    assert back.vertex_groups == data.vertex_groups
    for key, d in data.coset_reps.items():
        p, q = key
        assert same_double_coset(table, data.vertex_groups[p],
                                 data.vertex_groups[q], d, back.coset_reps[key])


def test_unclosed_arrow_set_rejected():
    table = cyclic_table(2)
    ambient = group_times_coarse(table, 2)
    one_way = next(f for f in ambient.arrows()
                   if ambient.source[f] == 0 and ambient.target[f] == 1)
    arrows = frozenset(ambient.identity) | {one_way}   # inverse missing
    with pytest.raises(StructureError):
        data_from_wide_subgroupoid(arrows, table, 2)


def test_bad_coset_data_rejected():
    table = cyclic_table(4)
    e = 0
    sub = frozenset({0, 2})
    # d_PQ = 1 but d_QP = 1 as well: d_PQ d_QP = 2 must lie in H_P d_PP = {0,2};
    # it does, so break the diagonal instead: d_PP = 1 is not in H_P
    data = WideSubgroupoidData(
        2, (0, 0), (sub, sub),
        {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): e},
        trivial_transversal(2, table))
    rep = validate_subgroupoid_data(data, table)
    assert any(f.rule == "coset-diagonal" for f in rep.failures)


def _oracle_report(g):
    """The groupoid axioms by the plain scan of every pair and triple: the
    failures as (rule, witness), in the order :func:`validate_groupoid`
    reports them."""
    out = []
    n = g.n_arrows
    for p in range(g.n_objects):
        e = g.identity[p]
        if g.source[e] != p or g.target[e] != p:
            out.append(("identity-endpoints", (p, e)))
    for f in range(n):
        for h in range(n):
            c = g.compose[f][h]
            defined, should = c != UNDEF, g.target[f] == g.source[h]
            if defined != should:
                out.append(("structure", (f, h)))
            elif defined and (g.source[c] != g.source[f]
                              or g.target[c] != g.target[h]):
                out.append(("composite-endpoints", (f, h, c)))
    for f in range(n):
        if g.compose[g.identity[g.source[f]]][f] != f:
            out.append(("left-unit", (f,)))
        if g.compose[f][g.identity[g.target[f]]] != f:
            out.append(("right-unit", (f,)))
    for f, h, k in itertools.product(range(n), repeat=3):
        fh = g.compose[f][h]
        if (g.target[f] == g.source[h] and fh != UNDEF
                and g.target[h] == g.source[k]
                and g.compose[fh][k] != g.compose[f][g.compose[h][k]]):
            out.append(("associativity", (f, h, k)))
    for f in range(n):
        if _oracle_inverse(g, f) is None:
            out.append(("inverse", (f,)))
    return out


def _oracle_inverse(g, f):
    return next((h for h in range(g.n_arrows)
                 if g.compose[f][h] == g.identity[g.source[f]]
                 and g.compose[h][f] == g.identity[g.target[f]]), None)


SMALL_GROUPOIDS = (
    coarse_groupoid(2), one_object_group(S3_TABLE),
    disjoint_union(one_object_group(cyclic_table(2)), coarse_groupoid(2)),
    direct_product(one_object_group(cyclic_table(2)), coarse_groupoid(2)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_groupoid_reports_as_the_plain_scan(data):
    """Row by row, validate_groupoid reports the failures of the scan over
    every pair and triple, in the same order, on valid tables and on tables
    with a few entries of any table moved (composites in range or UNDEF);
    the inverse found by searching a row is the scan's least one; and the
    report is kept, so that a second call returns it."""
    g = data.draw(st.sampled_from(SMALL_GROUPOIDS))
    n, k = g.n_arrows, g.n_objects
    compose = [list(row) for row in g.compose]
    source, target, identity = (list(g.source), list(g.target),
                                list(g.identity))
    for _ in range(data.draw(st.integers(0, 3))):
        which = data.draw(st.sampled_from(("compose", "compose", "source",
                                           "target", "identity")))
        if which == "compose":
            f, h = data.draw(st.integers(0, n - 1)), data.draw(
                st.integers(0, n - 1))
            compose[f][h] = data.draw(st.integers(UNDEF, n - 1))
        elif which == "identity":
            identity[data.draw(st.integers(0, k - 1))] = data.draw(
                st.integers(0, n - 1))
        else:
            table = source if which == "source" else target
            table[data.draw(st.integers(0, n - 1))] = data.draw(
                st.integers(0, k - 1))
    bad = Groupoid(k, source, target, identity, compose)
    rep = validate_groupoid(bad)
    assert [(f.rule, f.witness) for f in rep.failures] == _oracle_report(bad)
    assert validate_groupoid(bad) is rep
    assert [bad._find_inverse(f) for f in bad.arrows()] == [
        _oracle_inverse(bad, f) for f in bad.arrows()]
    assert list(bad.composable_pairs()) == [
        (f, h) for f in range(n) for h in range(n)
        if bad.target[f] == bad.source[h]]
    assert all(bad.arrows_between(x, y) == [
        f for f in range(n) if (bad.source[f], bad.target[f]) == (x, y)]
        for x in range(k) for y in range(k))


@pytest.mark.parametrize("table,bad", [
    ("source", [0, 2, 0, 1]), ("target", [0, 0, -1, 1]),
    ("identity", [0, 4]), ("compose", [[0, 5], [1, -2]])])
def test_construction_names_the_first_entry_out_of_range(table, bad):
    tables = {"source": [0, 0, 1, 1], "target": [0, 1, 0, 1],
              "identity": [0, 3], "compose": [[UNDEF] * 4] * 4}
    tables[table] = bad
    if table == "compose":
        tables.update(source=[0, 0], target=[0, 0], identity=[0])
    where = {"source": r"source\[1\] = 2", "target": r"target\[2\] = -1",
             "identity": r"identity\[1\] = 4",
             "compose": r"compose\[0\]\[1\] = 5"}[table]
    with pytest.raises(StructureError, match=where):
        Groupoid(2 if table != "compose" else 1, tables["source"],
                 tables["target"], tables["identity"], tables["compose"])
