"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Stated runtime budgets are asserted.
"""

import time

from dgq.cocycles import (CocyclePair, count_modulo_gauge,
                          enumerate_cocycle_pairs, zero_pair)
from dgq.cohomology import (aut_and_opext, build_double_complex,
                            groupoid_cohomology, kac_report, nerve,
                            total_matrix)
from dgq.double import build_Xrs, compute_inverses, is_vacant, transpose
from dgq.fields import FieldSpec
from dgq.groupoids import UNDEF, coarse_groupoid, one_object_group
from dgq.linalg import is_zero_matrix, matmul
from dgq.matched import (diagonal_groupoid, from_exact_factorization,
                         from_vacant_double, to_vacant_double,
                         validate_matched_pair)
from dgq.samples import (cyclic_table, full_corpus, s3_factorization,
                         symmetric_table, vacant_corpus)
from dgq.wha import (block_structure, build, check_involutory, duality_check,
                     is_hopf, verify_axioms)
from dgq.matched import ConnectedFactorizationData
from dgq.groupoids import WideSubgroupoidData, trivial_transversal
from dgq.matched import verify_connected_factorization

from full_nerve import differential_matrix

F3_M2 = FieldSpec(3, 2, 2)
QQ = FieldSpec(0)

VACANT = vacant_corpus()
ALL = full_corpus()


def announce(criterion, ok, detail=""):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_untwisted_axioms_executable():
    """Every vacant corpus instance passes the complete quantum-groupoid
    axiom suite exhaustively, under five seconds each."""
    worst = 0.0
    for name, t in VACANT.items():
        t0 = time.monotonic()
        rep = verify_axioms(build(t, fs=QQ))
        elapsed = time.monotonic() - t0
        worst = max(worst, elapsed)
        assert rep.ok, (name, rep.failures[:3])
        assert elapsed < 5.0, (name, elapsed)
    announce(1, True, f"{len(VACANT)} instances, worst {worst:.2f}s")


def test_criterion_02_twisted_axioms_executable():
    """All enumerated twists (modulus 2 over F3, modulus 1 over Q) on the
    one-point and grid instances pass the suite, with the twisted antipode
    scalars matching their defining expression."""
    t0 = time.monotonic()
    checked = 0
    for name in ("s3_matched_pair", "x22"):
        t = VACANT[name]
        inv = compute_inverses(t)
        for cp in enumerate_cocycle_pairs(t, 2):
            w = build(t, cp, F3_M2)
            assert verify_axioms(w).ok, (name, cp)
            for a in t.boxes():
                box, scal = w.antipode_table[a]
                assert box == inv.full_inv[a]
                expect = F3_M2.inv(F3_M2.mul(
                    w.tau_hat[(a, inv.h_inv[a])],
                    w.sigma_hat[(inv.full_inv[a], inv.h_inv[a])]))
                assert scal == expect
            checked += 1
        w = build(t, zero_pair(t, 1), QQ)
        assert verify_axioms(w).ok, (name, "untwisted rational")
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, elapsed
    announce(2, True, f"{checked} builds in {elapsed:.1f}s")


def test_criterion_03_hopf_iff_one_point():
    """Delta(1) = 1 (x) 1 exactly on the one-point instances; the grid
    instance exhibits cross-terms."""
    for name, t in VACANT.items():
        w = build(t)
        assert is_hopf(w) == (t.n_points == 1), name
    w = build(build_Xrs(2, 2))
    d1 = w.delta_one()
    one = w.unit()
    cross_missing = [(b, c) for b in one for c in one if (b, c) not in d1]
    assert cross_missing, "expected cross-terms distinguishing Delta(1) from 1x1"
    announce(3, True, f"{len(cross_missing)} missing tensor terms exhibited")


def test_criterion_04_antipode_involutory():
    """S squared is the identity on every basis box, twisted and untwisted."""
    count = 0
    for name, t in VACANT.items():
        assert check_involutory(build(t, fs=QQ)), name
        count += 1
    for name in ("s3_matched_pair", "x22"):
        t = VACANT[name]
        for cp in enumerate_cocycle_pairs(t, 2):
            assert check_involutory(build(t, cp, F3_M2)), (name, cp)
            count += 1
    announce(4, True, f"{count} builds involutory")


def test_criterion_05_block_dimension_identity():
    """Sum of block dimensions equals dim on both sides; the 2x2 grid gives
    four 2x2 matrix blocks over the trivial group."""
    for name, t in VACANT.items():
        w = build(t)
        bs = block_structure(w)   # raises internally if the sums mismatch
        assert sum(o * n * n for _, o, n in bs.algebra_blocks) == w.dim
        assert sum(o * n * n for _, o, n in bs.coalgebra_blocks) == w.dim
    bs = block_structure(build(build_Xrs(2, 2)))
    assert [(o, n) for _, o, n in bs.algebra_blocks] == [(1, 2)] * 4
    assert 16 == 4 * (1 * 2 * 2)
    announce(5, True, "16 = 4 * (2x2 over trivial group)")


def _corner_counts(t):
    """Filler counts for the four corner conditions, brute force."""
    hz, vt = t.horiz, t.vert
    conds = {
        "top-right": [(t.top, x, t.right, g)
                      for x in hz.arrows() for g in vt.arrows()
                      if hz.target[x] == vt.source[g]],
        "left-bottom": [(t.left, f, t.bottom, y)
                        for f in vt.arrows() for y in hz.arrows()
                        if vt.target[f] == hz.source[y]],
        "top-left": [(t.top, x, t.left, f)
                     for x in hz.arrows() for f in vt.arrows()
                     if hz.source[x] == vt.source[f]],
        "right-bottom": [(t.right, g, t.bottom, y)
                         for g in vt.arrows() for y in hz.arrows()
                         if vt.target[g] == hz.target[y]],
    }
    out = {}
    for name, corners in conds.items():
        out[name] = all(
            sum(1 for a in t.boxes() if t1[a] == v1 and t2[a] == v2) == 1
            for t1, v1, t2, v2 in corners)
    return out


def test_criterion_06_vacancy_conditions_and_triple_uniqueness():
    """The four corner-filling conditions agree on every corpus instance,
    and the three-box identity has the unique solution (A, A^h, A) on all
    vacant instances with at most fifty boxes."""
    for name, t in ALL.items():
        counts = _corner_counts(t)
        assert len(set(counts.values())) == 1, (name, counts)
        assert counts["top-right"] == is_vacant(t).vacant, name
    for name, t in VACANT.items():
        if t.n_boxes > 50:
            continue
        inv = compute_inverses(t)
        for a in t.boxes():
            sols = []
            for x in t.boxes():
                xi = inv.full_inv[x]
                for y in t.boxes():
                    if t.hcomp[x][y] == UNDEF or t.vcomp[xi][y] == UNDEF:
                        continue
                    for z in t.boxes():
                        zi = inv.full_inv[z]
                        if (t.hcomp[y][z] == UNDEF
                                or t.hcomp[t.hcomp[x][y]][z] != a
                                or t.vcomp[y][zi] == UNDEF):
                            continue
                        if t.vcomp[t.vcomp[xi][y]][zi] == inv.full_inv[a]:
                            sols.append((x, y, z))
            assert sols == [(a, inv.h_inv[a], a)], (name, a, sols)
    announce(6, True, "all four corner conditions and triple uniqueness")


def test_criterion_07_round_trips_and_s3_diagonal():
    """Matched pair <-> double groupoid round trips are the identity up to
    the canonical box relabeling; the diagonal of the one-point instance is
    the symmetric group again."""
    for name, t in VACANT.items():
        mp = from_vacant_double(t)
        assert validate_matched_pair(mp).ok, name
        again = to_vacant_double(mp)
        relabel = sorted((t.top[a], t.right[a]) for a in t.boxes())
        back = sorted((again.top[a], again.right[a]) for a in again.boxes())
        assert relabel == back, name
        assert from_vacant_double(again) == mp, name
    table, v_list, h_list = s3_factorization()
    ambient = one_object_group(table)
    mp, v_sorted, h_sorted = from_exact_factorization(ambient, v_list, h_list)
    diag = diagonal_groupoid(mp)
    image = {i: ambient.compose[v_sorted[f]][h_sorted[y]]
             for i, (f, y) in enumerate(diag.pairs)}
    assert sorted(image.values()) == list(range(6))
    for i in range(6):
        for j in range(6):
            assert image[diag.groupoid.compose[i][j]] == \
                ambient.compose[image[i]][image[j]]
    announce(7, True, "round trips identity; diagonal isomorphic to the group")


def test_criterion_08_connected_factorization_data():
    """The double-coset test accepts the three-cycle/transposition data
    (partition 6 = 3 * 2) and rejects the order-four overlap control with a
    covering-condition witness."""
    table, v, h = s3_factorization()
    tv = trivial_transversal(1, table)
    e = one_object_group(table).identity[0]
    good = ConnectedFactorizationData(
        tuple(tuple(r) for r in table), 1,
        WideSubgroupoidData(1, (0,), (frozenset(v),), {(0, 0): e}, tv),
        WideSubgroupoidData(1, (0,), (frozenset(h),), {(0, 0): e}, tv))
    verdict = verify_connected_factorization(good)
    assert verdict.exact
    assert verdict.partition_sizes[(0, 0)] == [6]
    assert len(v) * len(h) == 6
    z4 = cyclic_table(4)
    tv4 = trivial_transversal(1, z4)
    bad = ConnectedFactorizationData(
        tuple(tuple(r) for r in z4), 1,
        WideSubgroupoidData(1, (0,), (frozenset({0, 2}),), {(0, 0): 0}, tv4),
        WideSubgroupoidData(1, (0,), (frozenset({0, 2}),), {(0, 0): 0}, tv4))
    verdict = verify_connected_factorization(bad)
    assert not verdict.exact
    a_failures = [f for f in verdict.failures if f[0] == "a"]
    assert a_failures, "expected a covering-condition witness"
    assert a_failures[0][1] == (0, 0) and a_failures[0][3] != 1
    announce(8, True, f"6 = 3*2 accepted; overlap witness {a_failures[0][2:]}")


def test_criterion_09_cohomology_engine():
    """d.d = 0 on all constructed complexes; the reference dimensions match
    an independent dense row-reduction oracle; under ten seconds."""
    from test_cohomology import dense_rank, oracle_cochain_matrix
    t0 = time.monotonic()
    z2 = one_object_group(cyclic_table(2))
    c3 = coarse_groupoid(3)
    s3 = one_object_group(symmetric_table(3)[0])
    for g in (z2, c3, s3):
        for n in range(3):
            assert is_zero_matrix(matmul(differential_matrix(g, n + 1),
                                         differential_matrix(g, n)))
    for t in (VACANT["s3_matched_pair"], VACANT["x22"]):
        spec = build_double_complex(t, 4)
        for part in ("D", "A", "E"):
            for n in range(3):
                assert is_zero_matrix(matmul(total_matrix(spec, part, n + 1),
                                             total_matrix(spec, part, n)))
    rep = groupoid_cohomology(z2, 2, ("Fp", 2))
    assert [g.dim for g in rep.groups][1:] == [1, 1]
    rep5 = groupoid_cohomology(c3, 2, ("Fp", 5))
    assert [g.dim for g in rep5.groups][1:] == [0, 0]
    for g, p, expected in ((z2, 2, [1, 1, 1]), (c3, 5, [1, 0, 0])):
        mats = [oracle_cochain_matrix(g, n) for n in range(3)]
        dims = [len(nerve(g, n)) for n in range(3)]
        for n in range(3):
            rank_prev = dense_rank(mats[n - 1], dims[n - 1], p) if n else 0
            null_n = dims[n] - dense_rank(mats[n], dims[n], p)
            assert null_n - rank_prev == expected[n], (p, n)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, elapsed
    announce(9, True, f"oracle agreement in {elapsed:.1f}s")


def test_criterion_10_long_exact_sequence():
    """Total-complex cohomology matches the diagonal groupoid in degrees one
    and two, and the nine-term sequence is exact at every node by rank
    arithmetic, on both reference instances; within two minutes."""
    t0 = time.monotonic()
    reports = {}
    for name, p in (("s3_matched_pair", 2), ("x22", 3)):
        t = VACANT[name] if name != "x22" else build_Xrs(2, 2)
        rep = kac_report(t, p)
        reports[name] = rep
        assert rep.kes_aux[1] and rep.kes_aux[2], (name, rep.kes_aux)
        for node in rep.nodes:
            assert node.exact, (name, node.label, node.dim,
                                node.rank_in, node.rank_out)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, elapsed
    announce(10, True, f"kes-aux and nine-node exactness in {elapsed:.1f}s")


def _joint_component_count(*groupoids):
    """Components of the point set under the arrows of all the given
    groupoids together, by union-find (no cohomology involved)."""
    parent = list(range(groupoids[0].n_objects))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for g in groupoids:
        for f in g.arrows():
            a, b = find(g.source[f]), find(g.target[f])
            if a != b:
                parent[max(a, b)] = min(a, b)
    return len({find(x) for x in range(len(parent))})


def test_criterion_10_edge_splitting():
    """The edge splitting in its exact Mayer-Vietoris form, asserted
    numerically per instance.

    Tot E is the fibre product of the cochain complexes of the vertical and
    horizontal edge groupoids over their shared degree-0 term, the functions
    on the points P.  The long exact sequence of
    0 -> Tot E -> C(vert) + C(horiz) -> C^0(P)[0] -> 0 gives
    H^n(Tot E) = H^n(horiz) + H^n(vert) for n >= 2,
    dim H^1(Tot E) = dim H^1(horiz) + dim H^1(vert) + delta and
    dim H^0(Tot E) = c_{H v V}, where delta = |P| - c_H - c_V + c_{H v V}
    and c counts components of the horizontal, the vertical and the joint
    edge groupoids.  delta and c_{H v V} are counted here from the edge
    tables, independently of the cohomology code.

    The naive splitting therefore fails at degree one by exactly delta.  On
    one point (the Hopf case) delta = 0 and it holds; on the 2x2 grid x22
    delta = 1: H^1(Tot E) is one-dimensional while both edge groupoids are
    acyclic, even though the long sequence itself stays exact.
    """
    deltas = []
    for name, p in (("s3_matched_pair", 2), ("x22", 3)):
        t = VACANT[name]
        rep = kac_report(t, p)
        c_h = len(t.horiz.object_components())
        c_v = len(t.vert.object_components())
        c_hv = _joint_component_count(t.horiz, t.vert)
        delta = t.n_points - c_h - c_v + c_hv
        assert rep.tot_e[0] == c_hv, (name, rep.tot_e[0], c_hv)
        assert rep.tot_e[1] == rep.h_horiz[1] + rep.h_vert[1] + delta, \
            (name, rep.tot_e[1], rep.h_horiz[1], rep.h_vert[1], delta)
        for n in (2, 3):
            assert rep.tot_e[n] == rep.h_horiz[n] + rep.h_vert[n], \
                (name, n, rep.tot_e[n], rep.h_horiz[n] + rep.h_vert[n])
        deltas.append(f"{name}: delta={delta}"
                      + (" (naive splitting fails at n=1)" if delta else ""))
    announce("10-splitting", True,
             "H^1(Tot E) = H^1(horiz)+H^1(vert)+delta, "
             "H^n split for n=2,3; " + "; ".join(deltas))


def test_criterion_11_opext_cross_module():
    """The order of the degree-one total-interior cohomology equals the
    gauge-class count from independent cocycle enumeration."""
    details = []
    for name in ("s3_matched_pair", "x22"):
        t = VACANT[name]
        _, opx = aut_and_opext(t, 2)
        classes = count_modulo_gauge(t, 2)
        assert opx.order() == classes, (name, opx, classes)
        details.append(f"{name}: {classes}")
    announce(11, True, "; ".join(details))


def test_criterion_12_duality_pairing():
    """The transpose pairing intertwines product/coproduct, unit/counit and
    antipodes on every corpus instance, untwisted and twisted."""
    count = 0
    for name, t in VACANT.items():
        assert duality_check(build(t, fs=QQ), build(transpose(t), fs=QQ)), name
        count += 1
    for name in ("s3_matched_pair", "x22"):
        t = VACANT[name]
        for cp in enumerate_cocycle_pairs(t, 2):
            w = build(t, cp, F3_M2)
            wt = build(transpose(t), CocyclePair(cp.modulus, cp.tau, cp.sigma),
                       F3_M2)
            assert duality_check(w, wt), (name, cp)
            count += 1
    announce(12, True, f"{count} dual pairs checked")
