"""The sparse axiom scans of ``dgq.wha`` against dense oracles.

``verify_axioms``, ``duality_check`` and ``gauge_isomorphism_check`` visit
only the tuples where some term can be nonzero.  The oracles below are the
full n^2 / n^3 scans over every basis tuple; they read the same tables, so
on intact and on corrupted tables alike both routes must return the same
failures (rule, witness and order) or the same verdict.  The per-rule tuple
counts are checked against composable tuples counted from the double
groupoid's own composition tables.
"""

from functools import lru_cache

import pytest

from dgq.cocycles import CocyclePair, enumerate_cocycle_pairs, gauge_transform
from dgq.double import build_Xrs, transpose
from dgq.fields import FieldSpec
from dgq.groupoids import UNDEF
from dgq.samples import vacant_corpus
from dgq.wha import (_delta2, _tadd, build, counital_maps, duality_check,
                     gauge_isomorphism_check, verify_axioms)

QQ = FieldSpec(0)
F3 = FieldSpec(3, 2, 2)
F5 = FieldSpec(5)
RULES = ("associativity", "coassociativity", "comultiplicativity",
         "weak-unit", "weak-counit", "antipode-target", "antipode-source",
         "antipode-composite")


def _instances():
    out = {name: t for name, t in vacant_corpus().items() if t.n_boxes <= 36}
    for r, s in ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 2), (2, 3), (3, 2)):
        out[f"X{r}{s}"] = build_Xrs(r, s)
    return out


INSTANCES = _instances()
NAMES = sorted(INSTANCES)


@lru_cache(maxsize=None)
def _twists(name):
    """A middle and the last of the instance's cocycle pairs at modulus two."""
    pairs = list(enumerate_cocycle_pairs(INSTANCES[name], 2, budget=10 ** 7))
    return [pairs[k] for k in sorted({len(pairs) // 2, len(pairs) - 1})]


# -- dense oracles ----------------------------------------------------------------


def dense_verify_axioms(w):
    """Every axiom on every basis tuple: [(rule, witness)] in scan order."""
    fs = w.field
    t = w.double
    fails = []
    n = w.dim
    for a in range(n):
        for b in range(n):
            ab = w.product_table[a][b]
            for c in range(n):
                bc = w.product_table[b][c]
                left = None
                if ab is not None:
                    hit = w.product_table[ab[0]][c]
                    if hit is not None:
                        left = (hit[0], fs.mul(ab[1], hit[1]))
                right = None
                if bc is not None:
                    hit = w.product_table[a][bc[0]]
                    if hit is not None:
                        right = (hit[0], fs.mul(bc[1], hit[1]))
                if left != right:
                    fails.append(("associativity", (a, b, c)))
    for a in range(n):
        left, right = {}, {}
        for b, c, s in w.factorizations[a]:
            for x, y, s2 in w.factorizations[b]:
                _tadd(fs, left, (x, y, c), fs.mul(s, s2))
            for x, y, s2 in w.factorizations[c]:
                _tadd(fs, right, (b, x, y), fs.mul(s, s2))
        if left != right:
            fails.append(("coassociativity", (a,)))
    for a in range(n):
        for b in range(n):
            lhs = {}
            hit = w.product_table[a][b]
            if hit is not None:
                for x, y, s in w.factorizations[hit[0]]:
                    _tadd(fs, lhs, (x, y), fs.mul(hit[1], s))
            rhs = {}
            for x, y, s1 in w.factorizations[a]:
                for r, s_, s2 in w.factorizations[b]:
                    p1 = w.product_table[x][r]
                    p2 = w.product_table[y][s_]
                    if p1 is not None and p2 is not None:
                        coeff = fs.mul(fs.mul(s1, s2), fs.mul(p1[1], p2[1]))
                        _tadd(fs, rhs, (p1[0], p2[0]), coeff)
            if lhs != rhs:
                fails.append(("comultiplicativity", (a, b)))
    d1 = w.delta_one()
    d2_one = {}
    for x in t.horiz.arrows():
        for key, s in _delta2(w, t.vid[x]).items():
            _tadd(fs, d2_one, key, s)
    first, second = {}, {}
    for (b, c), s in d1.items():
        for (b2, c2), s2 in d1.items():
            hit = w.product_table[c][b2]
            if hit is not None:
                _tadd(fs, first, (b, hit[0], c2), fs.mul(fs.mul(s, s2), hit[1]))
            hit = w.product_table[b2][c]
            if hit is not None:
                _tadd(fs, second, (b, hit[0], c2), fs.mul(fs.mul(s2, s), hit[1]))
    if d2_one != first:
        fails.append(("weak-unit", ("(Delta(1)x1)(1xDelta(1))",)))
    if d2_one != second:
        fails.append(("weak-unit", ("(1xDelta(1))(Delta(1)x1)",)))

    def eps_of_product(a, b):
        hit = w.product_table[a][b]
        if hit is None:
            return fs.zero
        return fs.mul(hit[1], w.counit_table[hit[0]])

    for a in range(n):
        for b in range(n):
            for c in range(n):
                abc = fs.zero
                hit = w.product_table[a][b]
                if hit is not None:
                    abc = fs.mul(hit[1], eps_of_product(hit[0], c))
                one_way = other = fs.zero
                for b1, b2, s in w.factorizations[b]:
                    one_way = fs.add(one_way, fs.mul(
                        s, fs.mul(eps_of_product(a, b1), eps_of_product(b2, c))))
                    other = fs.add(other, fs.mul(
                        s, fs.mul(eps_of_product(a, b2), eps_of_product(b1, c))))
                if abc != one_way or abc != other:
                    fails.append(("weak-counit", (a, b, c)))
    for a in range(n):
        eps_s_a, eps_t_a = counital_maps(w, {a: fs.one})
        lhs_t, lhs_s = {}, {}
        for b, c, s in w.factorizations[a]:
            sc = w.antipode_table[c]
            hit = w.product_table[b][sc[0]]
            if hit is not None:
                _tadd(fs, lhs_t, hit[0], fs.mul(s, fs.mul(sc[1], hit[1])))
            sb = w.antipode_table[b]
            hit = w.product_table[sb[0]][c]
            if hit is not None:
                _tadd(fs, lhs_s, hit[0], fs.mul(s, fs.mul(sb[1], hit[1])))
        if lhs_t != eps_t_a:
            fails.append(("antipode-target", (a,)))
        if lhs_s != eps_s_a:
            fails.append(("antipode-source", (a,)))
        lhs3 = {}
        for (x, y, z), s in _delta2(w, a).items():
            sx, sz = w.antipode_table[x], w.antipode_table[z]
            hit = w.product_table[sx[0]][y]
            if hit is None:
                continue
            hit2 = w.product_table[hit[0]][sz[0]]
            if hit2 is None:
                continue
            coeff = fs.mul(fs.mul(s, fs.mul(sx[1], sz[1])),
                           fs.mul(hit[1], hit2[1]))
            _tadd(fs, lhs3, hit2[0], coeff)
        j, s = w.antipode_table[a]
        if lhs3 != {j: s}:
            fails.append(("antipode-composite", (a,)))
    return fails


def dense_duality(w, wt):
    fs = w.field
    n = w.dim
    for p, q in ((wt, w), (w, wt)):
        for a in range(n):
            for b in range(n):
                hit = p.product_table[a][b]
                for c in range(n):
                    lhs = fs.zero if hit is None or hit[0] != c else hit[1]
                    rhs = fs.zero
                    for c1, c2, s in q.factorizations[c]:
                        if c1 == a and c2 == b:
                            rhs = fs.add(rhs, s)
                    if lhs != rhs:
                        return False
    unit_wt, unit_w = wt.unit(), w.unit()
    for c in range(n):
        if unit_wt.get(c, fs.zero) != w.counit_table[c]:
            return False
        if unit_w.get(c, fs.zero) != wt.counit_table[c]:
            return False
    for a in range(n):
        ja, sa = wt.antipode_table[a]
        for c in range(n):
            jc, sc = w.antipode_table[c]
            if (sa if ja == c else fs.zero) != (sc if jc == a else fs.zero):
                return False
    return True


def dense_gauge(w1, w2, psi):
    fs = w1.field
    n = w1.dim
    for a in range(n):
        for b in range(n):
            h1, h2 = w1.product_table[a][b], w2.product_table[a][b]
            if (h1 is None) != (h2 is None):
                return False
            if h1 is None:
                continue
            if h1[0] != h2[0] or (fs.mul(h1[1], psi[h1[0]])
                                  != fs.mul(fs.mul(psi[a], psi[b]), h2[1])):
                return False
    for a in range(n):
        f1 = {(b, c): s for b, c, s in w1.factorizations[a]}
        f2 = {(b, c): s for b, c, s in w2.factorizations[a]}
        if f1.keys() != f2.keys():
            return False
        if any(fs.mul(s, fs.mul(psi[b], psi[c])) != fs.mul(psi[a], f2[(b, c)])
               for (b, c), s in f1.items()):
            return False
        if fs.mul(psi[a], w2.counit_table[a]) != w1.counit_table[a]:
            return False
        j1, s1 = w1.antipode_table[a]
        j2, s2 = w2.antipode_table[a]
        if j1 != j2 or fs.mul(s1, psi[j1]) != fs.mul(psi[a], s2):
            return False
    return all(psi[w1.double.vid[x]] == fs.one for x in w1.double.horiz.arrows())


def _failures(rep):
    return [(f.rule, f.witness) for f in rep.failures]


# -- intact tables ----------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_sparse_scan_matches_dense_untwisted(name):
    w = build(INSTANCES[name], fs=QQ)
    assert _failures(verify_axioms(w)) == dense_verify_axioms(w) == []


@pytest.mark.parametrize("name", NAMES)
def test_sparse_scan_matches_dense_twisted(name):
    for cp in _twists(name):
        w = build(INSTANCES[name], cp, F3)
        assert _failures(verify_axioms(w)) == dense_verify_axioms(w) == [], cp


@pytest.mark.parametrize("name", NAMES)
def test_sparse_duality_matches_dense(name):
    t = INSTANCES[name]
    w, wt = build(t, fs=QQ), build(transpose(t), fs=QQ)
    assert duality_check(w, wt) and dense_duality(w, wt)
    cp = _twists(name)[-1]
    w = build(t, cp, F3)
    wt = build(transpose(t), CocyclePair(cp.modulus, cp.tau, cp.sigma), F3)
    assert duality_check(w, wt) and dense_duality(w, wt)


# -- corrupted tables -------------------------------------------------------------


def _free_pair(w):
    """The first defined product of two boxes that are not vertical identities."""
    t = w.double
    return next((a, b) for a in t.boxes() for b in t.boxes()
                if w.product_table[a][b] is not None
                and not t.is_vid(a) and not t.is_vid(b))


def _flip_sigma(w):
    a, b = _free_pair(w)
    c, s = w.product_table[a][b]
    w.product_table[a][b] = (c, w.field.neg(s))


def _redirect_product(w):
    a, b = _free_pair(w)
    c, s = w.product_table[a][b]
    w.product_table[a][b] = ((c + 1) % w.dim, s)


def _define_missing_product(w):
    # a product that the frames forbid; only a scan that reads the table's
    # own pattern, not the frames, sees it
    a, b = next((a, b) for a in range(w.dim) for b in range(w.dim)
                if w.product_table[a][b] is None)
    w.product_table[a][b] = (a, w.field.one)


def _drop_coproduct_term(w):
    a = max(range(w.dim), key=lambda a: len(w.factorizations[a]))
    w.factorizations[a].pop()


def _wrong_antipode_scalar(w):
    t = w.double
    a = next((a for a in t.boxes() if not t.is_vid(a)), 0)
    j, s = w.antipode_table[a]
    w.antipode_table[a] = (j, w.field.add(s, s))


MUTATIONS = {
    "flip-sigma": (_flip_sigma, "associativity"),
    "redirect-product": (_redirect_product, "associativity"),
    "define-missing-product": (_define_missing_product, "associativity"),
    "drop-coproduct-term": (_drop_coproduct_term, "comultiplicativity"),
    "wrong-antipode-scalar": (_wrong_antipode_scalar, "antipode-target"),
}
MUTATED = ("s3_matched_pair", "x22", "product_s3_x21", "X23", "X32")


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("name", MUTATED)
@pytest.mark.parametrize("fs", [QQ, F5], ids=["Q", "F5"])
def test_mutation_caught_by_both_routes(name, mutation, fs):
    mutate, rule = MUTATIONS[mutation]
    w = build(INSTANCES[name], fs=fs)
    mutate(w)
    sparse = _failures(verify_axioms(w))
    assert sparse == dense_verify_axioms(w)
    assert rule in {r for r, _ in sparse}, sparse[:5]


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("name", ("s3_matched_pair", "x22", "X23"))
def test_mutation_caught_twisted(name, mutation):
    mutate, rule = MUTATIONS[mutation]
    w = build(INSTANCES[name], _twists(name)[-1], F3)
    mutate(w)
    sparse = _failures(verify_axioms(w))
    assert sparse == dense_verify_axioms(w)
    assert rule in {r for r, _ in sparse}, sparse[:5]


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("name", ("s3_matched_pair", "x22", "X23"))
def test_duality_and_gauge_catch_mutations(name, mutation):
    mutate, _ = MUTATIONS[mutation]
    t = INSTANCES[name]
    for side in (0, 1):
        w, wt = build(t, fs=QQ), build(transpose(t), fs=QQ)
        mutate((w, wt)[side])
        assert duality_check(w, wt) == dense_duality(w, wt) is False
    w1, w2 = build(t, fs=F5), build(t, fs=F5)
    psi = [F5.one] * w1.dim
    mutate(w2)
    assert gauge_isomorphism_check(w1, w2, psi) == dense_gauge(w1, w2, psi) \
        is False


def test_gauge_matches_dense_on_transported_pairs():
    t = build_Xrs(2, 2)
    pairs = list(enumerate_cocycle_pairs(t, 2))
    free = [a for a in t.boxes() if not (t.is_vid(a) or t.is_hid(a))]
    for cp in (pairs[0], pairs[-1]):
        for k in free[:3]:
            psi_add = [0] * t.n_boxes
            psi_add[k] = 1
            w1 = build(t, cp, F3)
            w2 = build(t, gauge_transform(t, cp, tuple(psi_add)), F3)
            for psi in ([F3.embed_exponent(v) for v in psi_add], [F3.one] * t.n_boxes):
                assert gauge_isomorphism_check(w1, w2, psi) == dense_gauge(w1, w2, psi)


# -- per-rule tuple counts ---------------------------------------------------------


def composable_counts(t):
    """Tuples each rule must examine, counted from ``t.vcomp``/``t.hcomp``."""
    n = t.n_boxes
    V, H = t.vcomp, t.hcomp

    def unit_pair(u, v):       # eps(u.v) != 0: defined, a horizontal identity
        return V[u][v] != UNDEF and t.is_hid(V[u][v])

    splits = [[] for _ in range(n)]
    for b1 in range(n):
        for b2 in range(n):
            if H[b1][b2] != UNDEF:
                splits[H[b1][b2]].append((b1, b2))
    assoc = counit = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                ab = V[a][b]
                assoc += ab != UNDEF and V[b][c] != UNDEF
                counit += ((ab != UNDEF and unit_pair(ab, c)) or any(
                    (unit_pair(a, b1) and unit_pair(b2, c))
                    or (unit_pair(a, b2) and unit_pair(b1, c))
                    for b1, b2 in splits[b]))
    d1 = [(b, c) for b in range(n) for c in range(n)
          if H[b][c] != UNDEF and t.is_vid(H[b][c])]
    unit = sum(1 for _, c in d1 for b2, _ in d1
               if V[c][b2] != UNDEF or V[b2][c] != UNDEF)
    pairs = sum(1 for a in range(n) for b in range(n) if V[a][b] != UNDEF)
    return {"associativity": assoc, "coassociativity": n,
            "comultiplicativity": pairs, "weak-unit": unit,
            "weak-counit": counit, "antipode-target": n,
            "antipode-source": n, "antipode-composite": n}


@pytest.mark.parametrize("name", NAMES)
def test_checked_counts_equal_composable_tuples(name):
    t = INSTANCES[name]
    expect = composable_counts(t)
    for w in (build(t, fs=QQ), build(t, _twists(name)[-1], F3)):
        rep = verify_axioms(w)
        assert rep.checked == expect
        assert set(rep.checked) == set(RULES)
        assert all(k > 0 for k in rep.checked.values()), rep.checked
