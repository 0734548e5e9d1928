"""Cohomology tests.  The oracle here is an independently written dense
row-reduction over F_p, fed with matrices rebuilt directly from the cochain
formulas, so library and test share no linear-algebra code path.  Further
down, the universal-coefficient test checks the library's Z and F_p
reductions against each other, and call counts check that each matrix is
built and reduced once."""

import gc
import weakref
from pathlib import Path

import pytest

from dgq import cohomology as coh
from dgq.cli import run
from dgq.cohomology import (ZGroup, _cohomology, _total_complex,
                            aut_and_opext, build_double_complex,
                            commutation_defect, differential_matrix,
                            groupoid_cohomology, kac_report, nerve,
                            total_cohomology, total_dim, total_matrix)
from dgq.cocycles import count_modulo_gauge
from dgq.double import build_Xrs, transpose
from dgq.errors import InternalConsistencyError, TruncationError
from dgq.groupoids import coarse_groupoid, one_object_group
from dgq.linalg import is_zero_matrix, matmul
from dgq.samples import (corpus_product, corpus_union, cyclic_table,
                         s3_double, symmetric_table)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


# -- oracle: dense reduced row echelon over F_p ------------------------------


def dense_rank(rows, ncols, p):
    m = [[v % p for v in row] for row in rows if any(v % p for v in row)]
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(m)):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(v * inv) % p for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(u - f * v) % p for u, v in zip(m[i], m[rank])]
        rank += 1
    return rank


def oracle_cochain_matrix(g, n):
    """Rebuild the degree-n differential directly from the alternating-sum
    formula, evaluated entry by entry (independent of the library path)."""
    src = nerve(g, n)
    tgt = nerve(g, n + 1)
    out = []
    for chain in tgt:
        row = []
        for basis in src:
            val = 0
            if n == 0:
                x = chain[0]
                val += 1 if basis == (g.target[x],) else 0
                val -= 1 if basis == (g.source[x],) else 0
            else:
                if chain[1:] == basis:
                    val += 1
                sign = -1
                for i in range(n):
                    comp = g.compose[chain[i]][chain[i + 1]]
                    merged = chain[:i] + (comp,) + chain[i + 2:]
                    if not g.is_identity(comp) and merged == basis:
                        val += sign
                    sign = -sign
                if chain[:-1] == basis:
                    val += sign
            row.append(val)
        out.append(row)
    return out


# -- nerve and single complexes ----------------------------------------------


def test_nerve_sizes():
    z2 = one_object_group(cyclic_table(2))
    assert nerve(z2, 1) == [(1,)]
    assert len(nerve(coarse_groupoid(3), 2)) == 12
    assert nerve(coarse_groupoid(3), 0) == [(0,), (1,), (2,)]


def test_differentials_square_to_zero_on_corpus_groupoids():
    for g in (one_object_group(cyclic_table(2)), coarse_groupoid(3),
              one_object_group(symmetric_table(3)[0])):
        for n in range(3):
            d_n = differential_matrix(g, n)
            d_next = differential_matrix(g, n + 1)
            assert is_zero_matrix(matmul(d_next, d_n))


def test_library_matrices_match_oracle_construction():
    for g in (one_object_group(cyclic_table(2)), coarse_groupoid(3)):
        for n in range(3):
            ncols = len(nerve(g, n))
            dense = [[row.get(j, 0) for j in range(ncols)]
                     for row in differential_matrix(g, n)]
            assert dense == oracle_cochain_matrix(g, n)


@pytest.mark.parametrize("p,expected", [(2, [1, 1, 1]), (3, [1, 0, 0]),
                                        (5, [1, 0, 0])])
def test_z2_cohomology_against_oracle(p, expected):
    z2 = one_object_group(cyclic_table(2))
    rep = groupoid_cohomology(z2, 2, ("Fp", p))
    assert [g.dim for g in rep.groups] == expected
    # oracle recomputation with dense row reduction
    mats = [oracle_cochain_matrix(z2, n) for n in range(3)]
    dims = [len(nerve(z2, n)) for n in range(3)]
    for n in range(3):
        rank_prev = dense_rank(mats[n - 1], dims[n - 1], p) if n else 0
        null_n = dims[n] - dense_rank(mats[n], dims[n], p)
        assert null_n - rank_prev == expected[n]


def test_coarse3_cohomology_vanishes_mod5():
    g = coarse_groupoid(3)
    rep = groupoid_cohomology(g, 2, ("Fp", 5))
    assert [x.dim for x in rep.groups] == [1, 0, 0]
    mats = [oracle_cochain_matrix(g, n) for n in range(3)]
    dims = [len(nerve(g, n)) for n in range(3)]
    for n in (1, 2):
        rank_prev = dense_rank(mats[n - 1], dims[n - 1], 5)
        null_n = dims[n] - dense_rank(mats[n], dims[n], 5)
        assert null_n - rank_prev == 0


def test_integral_cohomology_of_z2():
    z2 = one_object_group(cyclic_table(2))
    rep = groupoid_cohomology(z2, 3, "Z")
    assert rep.groups == [ZGroup(1, ()), ZGroup(0, ()), ZGroup(0, (2,)),
                          ZGroup(0, ())]


def test_degree_budget_guard():
    from dgq.errors import ResourceBudgetError
    g = one_object_group(symmetric_table(3)[0])
    with pytest.raises(ResourceBudgetError):
        groupoid_cohomology(g, 4, ("Fp", 2), budget=100)


def test_h0_counts_components():
    g = coarse_groupoid(3)
    assert groupoid_cohomology(g, 0, ("Fp", 7)).groups[0].dim == 1
    from dgq.groupoids import disjoint_union
    g2 = disjoint_union(g, one_object_group(cyclic_table(2)))
    assert groupoid_cohomology(g2, 0, ("Fp", 7)).groups[0].dim == 2


# -- the vertex-group route against the full nerve ----------------------------


def _route_cases():
    """Every corpus groupoid, and the diagonal and both edge groupoids of
    each vacant corpus instance."""
    from dgq import io as dio
    from dgq.matched import diagonal_groupoid, from_vacant_double
    from dgq.samples import vacant_corpus
    cases = {path.stem: doc.payload for path in sorted(CORPUS.glob("*.json"))
             if (doc := dio.load_path(path)).kind == "groupoid"}
    for name, t in vacant_corpus().items():
        cases[f"{name}.diagonal"] = diagonal_groupoid(
            from_vacant_double(t)).groupoid
        cases[f"{name}.horiz"] = t.horiz
        cases[f"{name}.vert"] = t.vert
    return cases


ROUTE_CASES = _route_cases()
# Over Z the full nerve is reduced through degree 3, as over F_p: the
# largest Smith form is that of d_3 of product_s3_x21's diagonal,
# 29,282 x 2,662, which stays sparse.
Z_ORACLE_DEGREE = 3


@pytest.mark.parametrize("name", sorted(ROUTE_CASES))
def test_vertex_groups_agree_with_the_full_nerve(name):
    g = ROUTE_CASES[name]
    for coefficients, top in ((("Fp", 2), 3), (("Fp", 3), 3),
                              ("Z", Z_ORACLE_DEGREE)):
        full = coh._bar_cohomology(g, top, coefficients, 10 ** 6)
        assert groupoid_cohomology(g, top, coefficients).groups == full, (
            coefficients)


def test_integral_torsion_of_a_union_is_merged_into_invariant_factors():
    from dgq.groupoids import disjoint_union
    g = disjoint_union(one_object_group(cyclic_table(2)),
                       one_object_group(cyclic_table(3)))
    skeleton = groupoid_cohomology(g, 2, "Z").groups
    assert skeleton == coh._bar_cohomology(g, 2, "Z", 10 ** 6)
    # Z/2 + Z/3 is Z/6; listing the parts' torsion side by side gives (2, 3)
    assert skeleton[2] == ZGroup(0, (6,))
    assert skeleton[0] == ZGroup(2, ())


# -- double complex -----------------------------------------------------------


def test_grid_basis_counts_x22():
    spec = build_double_complex(build_Xrs(2, 2), 3)
    # strict normalization: the four boxes that are not identities
    assert spec.dim(1, 1) == 4
    literal = build_double_complex(build_Xrs(2, 2), 2, "literal")
    assert literal.dim(1, 1) == 16       # all boxes admitted there


def test_one_point_trivial_interior_vanishes():
    spec = build_double_complex(build_Xrs(1, 1), 4)
    for (r, s), basis in spec.basis.items():
        if r >= 1 and s >= 1:
            assert basis == []
    for n in range(1, 4):
        assert total_cohomology(spec, "D", n, ("Fp", 2)).dim == 0
        assert total_dim(spec, "E", n) == total_dim(spec, "D", n)


def test_commutation_before_sign_trick(s3_T):
    spec = build_double_complex(s3_T, 4)
    assert commutation_defect(spec) is None
    spec22 = build_double_complex(build_Xrs(2, 2), 4)
    assert commutation_defect(spec22) is None


def test_total_differential_squares_to_zero(s3_T):
    for t in (s3_T, build_Xrs(2, 2), transpose(build_Xrs(2, 3))):
        spec = build_double_complex(t, 4)
        for part in ("D", "A", "E"):
            for n in range(3):
                d_n = total_matrix(spec, part, n)
                d_next = total_matrix(spec, part, n + 1)
                assert is_zero_matrix(matmul(d_next, d_n)), (part, n)


def test_truncation_error():
    spec = build_double_complex(build_Xrs(1, 1), 2)
    with pytest.raises(TruncationError):
        total_cohomology(spec, "D", 2, ("Fp", 2))


def test_literal_normalization_is_not_a_complex(s3_T):
    # the asymmetric degeneracy thresholds do not give a sub-double-complex:
    # single-box functions are unnormalized there, so the first commuting
    # square already fails; the mode stays available for experiment only
    spec = build_double_complex(s3_T, 4, "literal")
    assert commutation_defect(spec) == (1, 1)
    d0 = total_matrix(spec, "D", 1)
    d1 = total_matrix(spec, "D", 2)
    assert not is_zero_matrix(matmul(d1, d0))
    strict = build_double_complex(s3_T, 4, "strict")
    assert commutation_defect(strict) is None


def test_tot_d_degree1_matches_diagonal_s3(s3_T):
    spec = build_double_complex(s3_T, 4)
    h1 = total_cohomology(spec, "D", 1, ("Fp", 2)).dim
    s3 = one_object_group(symmetric_table(3)[0])
    assert h1 == groupoid_cohomology(s3, 1, ("Fp", 2)).groups[1].dim == 1


def test_tot_e_split_s3(s3_T):
    spec = build_double_complex(s3_T, 4)
    for n in (1, 2, 3):
        te = total_cohomology(spec, "E", n, ("Fp", 2)).dim
        hh = groupoid_cohomology(s3_T.horiz, n, ("Fp", 2)).groups[n].dim
        hv = groupoid_cohomology(s3_T.vert, n, ("Fp", 2)).groups[n].dim
        assert te == hh + hv


# -- kac report ----------------------------------------------------------------


def test_kac_s3_f2(s3_T):
    rep = kac_report(s3_T, 2)
    assert rep.h_diag == [1, 1, 1, 1]
    assert rep.kes_aux == {1: True, 2: True, 3: True}
    assert rep.tot_e_split == {1: True, 2: True, 3: True}
    assert rep.exact
    assert rep.aut_dim == 0 and rep.opext_dim == 0


def test_kac_x22_f3():
    rep = kac_report(build_Xrs(2, 2), 3)
    assert rep.h_diag == [1, 0, 0, 0]
    assert rep.kes_aux == {1: True, 2: True, 3: True}
    # the edge complex does NOT split off the corner at degree one here:
    # H^1(Tot E) is one-dimensional although both edge groupoids are acyclic
    assert rep.tot_e == [1, 1, 0, 0]
    assert rep.tot_e_split == {1: False, 2: True, 3: True}
    assert rep.exact                      # the true sequence is still exact
    assert rep.aut_dim == 1 and rep.opext_dim == 0


def test_kac_one_point_trivial():
    rep = kac_report(build_Xrs(1, 1), 2)
    assert all(dim == 0 for _, dim in rep.paper_groups())
    assert rep.exact


def test_kac_rejects_non_vacant():
    from dgq.errors import VacancyError
    from dgq.samples import commuting_squares_z2
    with pytest.raises(VacancyError):
        kac_report(commuting_squares_z2(), 2)


# -- aut / opext ----------------------------------------------------------------


def test_aut_opext_trivial_instance():
    aut, opx = aut_and_opext(build_Xrs(1, 1), 2)
    assert aut.order() == 1 and opx.order() == 1


# composite m goes through universal coefficients: s3 has Z/3 torsion one
# degree up, which Z/4 does not see and Z/6 does
@pytest.mark.parametrize("name,m", [("s3", 2), ("s3", 3), ("x22", 2), ("x22", 3),
                                    ("s3", 4), ("s3", 6), ("union", 4),
                                    ("union", 6), ("x22", 4), ("x22", 6),
                                    ("x23", 3), ("product", 3), ("product", 6)])
def test_opext_matches_gauge_classes(name, m):
    t = {"s3": s3_double, "x22": lambda: build_Xrs(2, 2),
         "x23": lambda: build_Xrs(2, 3), "union": corpus_union,
         "product": corpus_product}[name]()
    _, opx = aut_and_opext(t, m)
    assert opx.order() == count_modulo_gauge(t, m)


def test_x22_opext_m3_trivial():
    _, opx = aut_and_opext(build_Xrs(2, 2), 3)
    assert opx.divisors == ()


def test_aut_opext_integral_path_m6(s3_T):
    # composite modulus goes through the integral route; the Z/3 torsion of
    # H^2(Tot A; Z) enters H^1(Tot A; Z/6) as Tor(Z/3, Z/6) = Z/3
    aut, opx = aut_and_opext(s3_T, 6)
    assert aut.divisors == (3,) and opx.divisors == (3,)
    assert opx.order() == count_modulo_gauge(s3_T, 6) == 3


# -- universal coefficients: the Z and F_p reductions against each other ------


@pytest.mark.parametrize("name", ["s3_matched_pair", "x11", "x22", "x23",
                                  "union_x22_s3"])
def test_universal_coefficients_over_fp(vacant_corpus, name):
    """dim H^n(Tot; F_p) = rank H^n(Tot; Z) + #{d in torsion H^n : p | d}
    + #{d in torsion H^(n+1) : p | d}, for parts D, E, A in degrees 0-2."""
    spec = build_double_complex(vacant_corpus[name], 6)
    for part in ("D", "E", "A"):
        shift = 2 if part == "A" else 0
        top = shift + 4                     # H^0..H^3 at internal degrees
        cx = _total_complex(spec, part, top)
        integral = _cohomology(*cx, "Z")[shift:]
        for p in (2, 3):
            mod_p = _cohomology(*cx, ("Fp", p))[shift:]
            for n in range(3):
                expected = (integral[n].rank
                            + sum(1 for d in integral[n].torsion if d % p == 0)
                            + sum(1 for d in integral[n + 1].torsion
                                  if d % p == 0))
                assert mod_p[n].dim == expected, (part, p, n)


# -- one build and one reduction per matrix ----------------------------------


def _count_calls(monkeypatch, names):
    """Record the arguments of each call through the named bindings of
    dgq.cohomology."""
    calls = {name: [] for name in names}
    for name in names:
        fn = getattr(coh, name)

        def counted(*args, _fn=fn, _log=calls[name], **kwargs):
            _log.append(args)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(coh, name, counted)
    return calls


def test_kac_report_builds_each_matrix_and_nerve_once(monkeypatch,
                                                      vacant_corpus):
    calls = _count_calls(monkeypatch, ["total_matrix", "nerve",
                                       "groupoid_cohomology",
                                       "build_double_complex"])
    t = vacant_corpus["x23"]
    coh.kac_report(t, 2)
    built = [(part, n) for _, part, n in calls["total_matrix"]]
    assert sorted(built) == sorted((part, n) for part in "DEA"
                                   for n in range(4))
    # The double complex's edge bases are the edge groupoids' nerves in
    # degrees 1..4.  groupoid_cohomology builds no nerve of the diagonal or
    # edge groupoids, only those of their vertex groups in degrees 0..4:
    # every component of x23's three groupoids has the trivial vertex group,
    # so each call reduces one vertex table.
    cohomology_of = {id(g) for g, *_ in calls["groupoid_cohomology"]}
    assert len(cohomology_of) == 3
    assert {id(t.horiz), id(t.vert)} <= cohomology_of
    of_given = [(id(g), n) for g, n in calls["nerve"] if id(g) in cohomology_of]
    assert sorted(of_given) == sorted((id(g), n) for g in (t.vert, t.horiz)
                                      for n in range(1, 5))
    vertex = [(g, n) for g, n in calls["nerve"] if id(g) not in cohomology_of]
    groups = {id(g): g for g, _ in vertex}
    assert len(groups) == 3
    assert all(g.n_objects == 1 and g.n_arrows == 1 for g in groups.values())
    assert sorted((id(g), n) for g, n in vertex) == sorted(
        (k, n) for k in groups for n in range(5))
    assert len(calls["build_double_complex"]) == 1


def test_kac_report_reduces_each_total_matrix_once(monkeypatch,
                                                   vacant_corpus):
    calls = _count_calls(monkeypatch, ["nullity_fp", "nullspace_fp",
                                       "rank_fp"])
    rep = coh.kac_report(vacant_corpus["x23"], 2)
    # one nullspace out of each degree the sequence reads: 0..3 of Tot D and
    # Tot E, internal 2..3 of Tot A; the rank arithmetic takes its nullities
    # from them.  The vertex groups of x23's three groupoids are trivial, so
    # none of their differentials has a row to reduce.  rank_fp serves only
    # the 7 maps
    assert len(calls["nullspace_fp"]) == 4 + 4 + 2
    assert calls["nullity_fp"] == []
    assert len(calls["rank_fp"]) == 7
    assert rep.exact


def test_kac_report_checks_each_total_h_by_rank_arithmetic(monkeypatch,
                                                          vacant_corpus):
    class Off(coh.SubquotientFp):
        @property
        def dim(self):
            return super().dim + 1
    monkeypatch.setattr(coh, "SubquotientFp", Off)
    with pytest.raises(InternalConsistencyError,
                       match="two routes to H of Tot D disagree in internal "
                             "degree 0"):
        coh.kac_report(vacant_corpus["x23"], 2)


def test_composite_opext_one_smith_form_per_total_differential(
        monkeypatch, vacant_corpus):
    calls = _count_calls(monkeypatch, ["elementary_divisors", "rank_z",
                                       "total_matrix"])
    aut, opx = coh.aut_and_opext(vacant_corpus["x23"], 6)
    assert aut.divisors == (6, 6) and opx.divisors == ()
    assert [n for _, _, n in calls["total_matrix"]] == [0, 1, 2, 3, 4]
    # Tot A has no term in degree 1, so its differential out of degree 0
    # has no rows and is not reduced
    assert len(calls["elementary_divisors"]) == 4
    assert calls["rank_z"] == []


def test_literal_kac_fails_before_groupoid_cohomology(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("groupoid cohomology ran before d.d was checked")
    monkeypatch.setattr(coh, "groupoid_cohomology", refuse)
    for name in ("x22", "x23"):
        code = run(["--format", "machine", "kac", str(CORPUS / f"{name}.json"),
                    "--p", "2", "--strict-normalization", "off"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "d.d != 0 into total degree 3 of part D" in err


class _Tracked(list):
    """A list that can be weakly referenced."""


def test_no_total_matrix_alive_during_groupoid_cohomology(monkeypatch,
                                                          vacant_corpus):
    refs, seen = [], []
    total_matrix, groupoid_cohomology = coh.total_matrix, coh.groupoid_cohomology

    def tracked(*args, **kwargs):
        out = _Tracked(total_matrix(*args, **kwargs))
        refs.append(weakref.ref(out))
        return out

    def checked(*args, **kwargs):
        gc.collect()
        seen.append(sum(r() is not None for r in refs))
        return groupoid_cohomology(*args, **kwargs)
    monkeypatch.setattr(coh, "total_matrix", tracked)
    monkeypatch.setattr(coh, "groupoid_cohomology", checked)
    coh.kac_report(vacant_corpus["x23"], 2)
    assert seen == [0, 0, 0]
