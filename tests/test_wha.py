from fractions import Fraction

import pytest

from dgq.cocycles import enumerate_cocycle_pairs, gauge_transform
from dgq.double import build_Xrs, transpose
from dgq.errors import StructureError, UnsupportedFeatureError, VacancyError
from dgq.fields import FieldSpec
from dgq.samples import commuting_squares_z2
from dgq.wha import (CocyclePair, antipode, block_structure, build,
                     check_involutory, comultiply, counit, counital_maps,
                     duality_check, gauge_isomorphism_check, is_hopf, multiply,
                     product_union_check, simple_algebra_conditions,
                     algebra_is_simple, unit_object_simple, verify_axioms)

F3 = FieldSpec(3, 2, 2)


def test_build_s3_dimension_and_unit(s3_T):
    w = build(s3_T)
    assert w.dim == 6
    one = w.unit()
    assert multiply(w, one, one) == one
    # Delta(1) = 1 (x) 1 at one point
    assert is_hopf(w)


def test_build_refuses_non_vacant():
    with pytest.raises(VacancyError):
        build(commuting_squares_z2())


def test_one_box_instance_is_the_ground_field():
    w = build(build_Xrs(1, 1))
    assert w.dim == 1
    a = {0: Fraction(1)}
    assert multiply(w, a, a) == a
    assert counit(w, a) == Fraction(1)
    assert antipode(w, a) == a


def test_x22_not_hopf():
    w = build(build_Xrs(2, 2))
    d1 = w.delta_one()
    cross = [(b, c) for (b, c) in d1 if w.double.top[b] != w.double.top[c]
             or not w.double.is_vid(b) or not w.double.is_vid(c)]
    assert not is_hopf(w)
    # a concrete cross-term witness: some (b, c) with b, c identity boxes over
    # different points appears in Delta(1) but not in 1 (x) 1
    one = w.unit()
    missing = [(b, c) for b in one for c in one if (b, c) not in d1]
    assert missing


def test_identity_boxes_idempotent(vacant_corpus):
    for t in vacant_corpus.values():
        w = build(t)
        for x in t.horiz.arrows():
            e = {t.vid[x]: w.field.one}
            assert multiply(w, e, e) == e


def test_untwisted_antipode_is_full_inverse(vacant_corpus):
    for t in vacant_corpus.values():
        w = build(t)
        inv = t.inverses
        for a in t.boxes():
            assert w.antipode_table[a] == (inv.full_inv[a], w.field.one)


def test_counital_maps_closed_form(s3_T):
    w = build(s3_T)
    t = s3_T
    for a in t.boxes():
        eps_s, eps_t = counital_maps(w, {a: w.field.one})
        if t.is_hid(a):
            g = t.left[a]
            assert eps_t == w.local_unit_left(t.vert.source[g])
            assert eps_s == w.local_unit_right(t.vert.target[g])
        else:
            assert eps_t == {}
            assert eps_s == {}


def test_counital_images_span_local_units(vacant_corpus):
    for t in vacant_corpus.values():
        w = build(t)
        seen_t, seen_s = set(), set()
        for a in t.boxes():
            eps_s, eps_t = counital_maps(w, {a: w.field.one})
            if eps_t:
                seen_t.add(tuple(sorted(eps_t)))
            if eps_s:
                seen_s.add(tuple(sorted(eps_s)))
        units_t = {tuple(sorted(w.local_unit_left(p)))
                   for p in range(t.n_points)}
        units_s = {tuple(sorted(w.local_unit_right(p)))
                   for p in range(t.n_points)}
        assert seen_t == units_t and seen_s == units_s
        assert len(units_t) == t.n_points == len(units_s)
        # the local units commute pairwise (the subalgebras are commutative)
        for p in range(t.n_points):
            for q in range(t.n_points):
                ep, eq = w.local_unit_left(p), w.local_unit_left(q)
                assert multiply(w, ep, eq) == multiply(w, eq, ep)


def test_axioms_pass_untwisted(vacant_corpus):
    for name, t in vacant_corpus.items():
        rep = verify_axioms(build(t))
        assert rep.ok, (name, rep.failures[:3])


def test_corrupt_product_scalar_fails_comultiplicativity(s3_T):
    w = build(s3_T, fs=FieldSpec(5))
    a, b = next((a, b) for a, b in s3_T.vertical_boxes.composable_pairs()
                if not s3_T.is_vid(a) and not s3_T.is_vid(b))
    c, s = w.product_table[a][b]
    w.product_table[a][b] = (c, (s * 2) % 5)
    rep = verify_axioms(w)
    rules = {f.rule for f in rep.failures}
    assert "comultiplicativity" in rules
    assert any(f.rule == "comultiplicativity" and len(f.witness) == 2
               for f in rep.failures)


def test_twisted_axioms_and_involutory(s3_T):
    for cp in enumerate_cocycle_pairs(s3_T, 2):
        w = build(s3_T, cp, F3)
        assert verify_axioms(w).ok
        assert check_involutory(w)


def test_twisted_axioms_across_corpus(vacant_corpus):
    # every enumerated twist passes the suite; instances with large twist
    # sets are covered by a deterministic stride (the grid and product
    # instances have 1024 valid pairs each at modulus two)
    for name, t in vacant_corpus.items():
        pairs = list(enumerate_cocycle_pairs(t, 2, budget=10 ** 7))
        if len(pairs) > 64:
            step = len(pairs) // 16
            pairs = pairs[::step] + [pairs[-1]]
        for cp in pairs:
            w = build(t, cp, F3)
            assert verify_axioms(w).ok, (name, cp)
            assert check_involutory(w), (name, cp)


def test_involutory_untwisted(vacant_corpus):
    for t in vacant_corpus.values():
        assert check_involutory(build(t))


# -- blocks and simplicity ------------------------------------------------------


def test_block_structure_x22():
    w = build(build_Xrs(2, 2))
    bs = block_structure(w)
    assert [(o, n) for _, o, n in bs.algebra_blocks] == [(1, 2)] * 4
    assert sum(o * n * n for _, o, n in bs.algebra_blocks) == 16
    assert [(o, n) for _, o, n in bs.coalgebra_blocks] == [(1, 2)] * 4


def test_block_structure_s3(s3_T):
    w = build(s3_T)
    bs = block_structure(w)
    # vertical boxes over the two-element horizontal edge set form a group
    # bundle with vertex groups of order three
    assert sorted((o, n) for _, o, n in bs.algebra_blocks) == [(3, 1), (3, 1)]
    # coalgebra side: an order-two vertex group on a singleton class plus a
    # trivial-group class of size two
    assert sorted((o, n) for _, o, n in bs.coalgebra_blocks) == [(1, 2), (2, 1)]
    assert sum(o * n * n for _, o, n in bs.coalgebra_blocks) == 6


def test_block_structure_refuses_twisted(s3_T):
    cp = [c for c in enumerate_cocycle_pairs(s3_T, 2) if any(c.sigma) or any(c.tau)]
    w = build(s3_T, cp[0], F3)
    with pytest.raises(UnsupportedFeatureError):
        block_structure(w)


def test_unit_object_simplicity(s3_T):
    assert unit_object_simple(s3_T)          # one point
    assert not unit_object_simple(build_Xrs(2, 2))
    assert unit_object_simple(build_Xrs(2, 1))


def test_action_on_left_local_units():
    # the unit-object action of a basis box on _P 1 is eps_t(A . _P 1); it is
    # _Q 1 exactly when A is the identity box on a vertical edge Q -> P
    t = build_Xrs(2, 2)
    w = build(t)
    for a in t.boxes():
        for p in range(t.n_points):
            prod = multiply(w, {a: w.field.one}, w.local_unit_left(p))
            _, acted = counital_maps(w, prod)
            if t.is_hid(a) and t.vert.target[t.left[a]] == p:
                g = t.left[a]
                assert acted == w.local_unit_left(t.vert.source[g])
            else:
                assert acted == {}


def test_simple_algebra_equivalence():
    simple = build_Xrs(3, 1)
    conds = simple_algebra_conditions(simple)
    assert all(conds.values())
    assert algebra_is_simple(build(simple))
    not_simple = build_Xrs(2, 2)
    conds = simple_algebra_conditions(not_simple)
    assert not all(conds.values())
    assert not algebra_is_simple(build(not_simple))


# -- duality ---------------------------------------------------------------------


def test_duality_untwisted(vacant_corpus):
    for name, t in vacant_corpus.items():
        w = build(t)
        wt = build(transpose(t))
        assert duality_check(w, wt), name


def test_duality_x23_vs_x32():
    w = build(build_Xrs(2, 3))
    wt = build(transpose(build_Xrs(2, 3)))
    assert duality_check(w, wt)


def test_duality_twisted(s3_T):
    for cp in enumerate_cocycle_pairs(s3_T, 2):
        w = build(s3_T, cp, F3)
        swapped = CocyclePair(cp.modulus, cp.tau, cp.sigma)
        wt = build(transpose(s3_T), swapped, F3)
        assert duality_check(w, wt)


# -- gauge isomorphisms and products ---------------------------------------------


def test_gauge_identity_isomorphism(s3_T):
    w = build(s3_T, fs=FieldSpec(5))
    psi = [w.field.one] * w.dim
    assert gauge_isomorphism_check(w, w, psi)


def test_gauge_transported_pair_isomorphic():
    t = build_Xrs(2, 2)
    pairs = list(enumerate_cocycle_pairs(t, 2))
    cp1 = pairs[-1]
    psi_add = [0] * t.n_boxes
    free = [a for a in t.boxes() if not (t.is_vid(a) or t.is_hid(a))]
    psi_add[free[0]] = 1
    cp2 = gauge_transform(t, cp1, tuple(psi_add))
    w1 = build(t, cp1, F3)
    w2 = build(t, cp2, F3)
    psi = [F3.embed_exponent(v) for v in psi_add]
    assert gauge_isomorphism_check(w1, w2, psi)
    if cp1 != cp2:
        assert not gauge_isomorphism_check(w1, w2, [F3.one] * w1.dim)


def test_zero_gauge_value_rejected(s3_T):
    w = build(s3_T)
    psi = [w.field.one] * w.dim
    psi[0] = w.field.zero
    with pytest.raises(StructureError):
        gauge_isomorphism_check(w, w, psi)


def test_product_union_check(s3_T):
    assert product_union_check(build_Xrs(1, 1), s3_T)
    assert product_union_check(build_Xrs(2, 1), build_Xrs(1, 2))


def test_foreign_basis_rejected(s3_T):
    w = build(s3_T)
    small = build(build_Xrs(1, 1))
    foreign = {w.dim + 3: w.field.one}
    with pytest.raises(StructureError, match="basis"):
        multiply(w, foreign, w.unit())
    with pytest.raises(StructureError, match="basis"):
        counit(small, {5: small.field.one})


def _combine(fs, terms):
    """The sum of c x over the (c, x) in ``terms``, x a sparse vector."""
    out = {}
    for c, x in terms:
        for k, v in x.items():
            out[k] = fs.add(out.get(k, fs.zero), fs.mul(c, v))
    return {k: v for k, v in out.items() if v != fs.zero}


def test_comultiply_is_the_linear_extension_of_the_factorizations(
        vacant_corpus):
    """Over Q untwisted and over F_3 with the last twist at modulus two:
    Delta(1) is ``delta_one``, Delta of a box sums its factorization terms,
    Delta is linear, and a key outside the basis is refused."""
    for name, t in vacant_corpus.items():
        twist = list(enumerate_cocycle_pairs(t, 2, budget=10 ** 7))[-1]
        for w in (build(t), build(t, twist, F3)):
            fs = w.field
            one, two = fs.one, fs.add(fs.one, fs.one)
            assert comultiply(w, w.unit()) == w.delta_one(), name
            for a in range(w.dim):
                assert comultiply(w, {a: one}) == _combine(
                    fs, [(s, {(b, c): one}) for b, c, s in w.factorizations[a]])
            x = {a: one for a in range(0, w.dim, 2)}
            y = {a: two for a in range(0, w.dim, 3)}
            assert comultiply(w, _combine(fs, [(one, x), (two, y)])) == _combine(
                fs, [(one, comultiply(w, x)), (two, comultiply(w, y))]), name
            for key in (w.dim, -1, "0"):
                with pytest.raises(StructureError, match="basis"):
                    comultiply(w, {key: one})
