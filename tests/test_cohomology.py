"""Cohomology tests.  The oracle here is an independently written dense
row-reduction over F_p, fed with matrices rebuilt directly from the cochain
formulas, so library and test share no linear-algebra code path.  Further
down, the universal-coefficient test checks the library's Z and F_p
reductions against each other, and call counts check that each matrix is
built and reduced once."""

import gc
import itertools
import weakref
from math import prod
from pathlib import Path
from unittest import mock

import pytest
from sympy import factorint

from dgq import cohomology as coh
from dgq import linalg
from dgq.cli import run
from dgq.cohomology import (ZGroup, _cohomology, _total_complex,
                            aut_and_opext, build_double_complex,
                            commutation_defect, groupoid_cohomology,
                            kac_report, nerve, total_cohomology, total_dim,
                            total_matrix)
from dgq.cocycles import count_modulo_gauge
from dgq.double import build_Xrs, transpose
from dgq.errors import (InternalConsistencyError, StructureError,
                        TruncationError)
from dgq.groupoids import (coarse_groupoid, connected_decomposition,
                           one_object_group)
from dgq.linalg import is_zero_matrix, matmul, sparse_row
from dgq.samples import (corpus_product, corpus_union, cyclic_table,
                         perm_closure, perm_mul, s3_double, symmetric_table)

from full_nerve import differential_matrix

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


def test_budget_is_checked_before_any_row_is_built(monkeypatch):
    """k^n is known up front: Z/2 (k = 1) fits any budget, S3 (k = 5) has
    125 cells in degree 3, so with a budget of 100 the union raises before
    either vertex group builds a resolution.  Within the budget, each
    distinct vertex group is resolved once."""
    from dgq.errors import ResourceBudgetError
    from dgq.groupoids import disjoint_union
    calls = _count_calls(monkeypatch, ["_resolution_cohomology"])
    z2 = one_object_group(cyclic_table(2))
    g = disjoint_union(disjoint_union(
        z2, one_object_group(symmetric_table(3)[0])), z2)
    for top in (2, 4):
        with pytest.raises(ResourceBudgetError,
                           match="^degree 3 basis exceeds the budget 100$"):
            groupoid_cohomology(g, top, ("Fp", 2), budget=100)
    assert calls["_resolution_cohomology"] == []
    # at a budget of 125, degree 3 fits: each group is resolved to degree 2
    assert [grp.dim for grp in groupoid_cohomology(
        g, 2, ("Fp", 2), budget=125).groups] == [3, 3, 3]
    assert [(len(table), n, p) for table, n, p, _ in
            calls["_resolution_cohomology"]] == [(2, 2, 2), (6, 2, 2)]


@pytest.mark.parametrize("coefficients", [("Z/m", 4), ("Z/m", 2)])
def test_groupoid_cohomology_takes_no_z_mod_m(coefficients):
    """('Z/m', m) parses, but only a total complex is read over it; a
    groupoid's resolutions run over F_p or over Z."""
    with pytest.raises(StructureError, match="^groupoid cohomology takes "
                                             r"'Z' or \('Fp', p\)$"):
        groupoid_cohomology(one_object_group(cyclic_table(2)), 1,
                            coefficients)


@pytest.mark.parametrize("first", ("S3", "C11"))
def test_budget_error_names_the_first_degree_over_all_vertex_groups(first):
    """At a budget of 99, C_11 (k = 10) is over it in degree 2 and S3
    (k = 5) in degree 3: degree 2 is named whichever comes first."""
    from dgq.errors import ResourceBudgetError
    from dgq.groupoids import disjoint_union
    groups = {"S3": one_object_group(symmetric_table(3)[0]),
              "C11": one_object_group(cyclic_table(11))}
    second = "C11" if first == "S3" else "S3"
    g = disjoint_union(groups[first], groups[second])
    with pytest.raises(ResourceBudgetError,
                       match="^degree 2 basis exceeds the budget 99$"):
        groupoid_cohomology(g, 2, ("Fp", 2), budget=99)


@pytest.mark.parametrize("coefficients", (("Fp", 2), ("Fp", 3), "Z"))
def test_resolution_checks_the_budget_before_each_kernel(monkeypatch,
                                                         coefficients):
    """S3 to degree 0 needs 5 bar cells, within a budget of 5, but its
    resolution starts from F_0 = F_pG, of |G| = 6 cells: the budget is
    checked before the kernel of the augmentation is taken."""
    from dgq.errors import ResourceBudgetError
    calls = _count_calls(monkeypatch, ["nullspace_fp"])
    s3 = ROUTE_CASES["s3_group"]
    with pytest.raises(ResourceBudgetError,
                       match="^degree 0 of the resolution exceeds the budget "
                             "5$"):
        groupoid_cohomology(s3, 0, coefficients, budget=5)
    assert calls["nullspace_fp"] == []
    assert [grp.dim for grp in groupoid_cohomology(
        s3, 0, ("Fp", 2), budget=6).groups] == [1]


def test_cli_refuses_a_degree_past_the_budget_at_once(capsys):
    """S3 to degree 8 needs the 5^9 = 1,953,125 cells of degree 9."""
    code = run(["--format", "machine", "cohomology",
                str(CORPUS / "s3_group.json"), "--p", "2", "--degree", "8"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: degree 9 basis exceeds the budget 500000\n"


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


def full_nerve_cohomology(g, top, coefficients):
    """H^0..H^top of ``g`` from its whole normalized bar complex, built on
    the nerves of every degree up to top + 1: the route that the vertex
    groups replace."""
    return _cohomology([differential_matrix(g, n) for n in range(top + 1)],
                       [len(nerve(g, n)) for n in range(top + 1)],
                       coefficients)


@pytest.mark.parametrize("name", sorted(ROUTE_CASES))
def test_vertex_groups_agree_with_the_full_nerve(name):
    g = ROUTE_CASES[name]
    for coefficients, top in ((("Fp", 2), 3), (("Fp", 3), 3),
                              ("Z", Z_ORACLE_DEGREE)):
        full = full_nerve_cohomology(g, top, coefficients)
        assert groupoid_cohomology(g, top, coefficients).groups == full, (
            coefficients)
        if coefficients != "Z":
            # with the plane store at 0 every elimination of the
            # resolutions runs on dict rows
            with mock.patch.object(linalg, "_PLANE_STORE", 0):
                assert groupoid_cohomology(
                    g, top, coefficients).groups == full, coefficients


# -- the vertex groups --------------------------------------------------------


def _vertex_groups():
    """Each distinct vertex group of the ROUTE_CASES groupoids, and C_2 to
    C_6."""
    tables = {}
    for name, g in sorted(ROUTE_CASES.items()):
        for comp in connected_decomposition(g):
            tables.setdefault(tuple(map(tuple, comp.vertex_table)), name)
    for n in range(2, 7):
        tables.setdefault(tuple(map(tuple, cyclic_table(n))), f"C{n}")
    return {f"{name}:{len(table)}": one_object_group(table)
            for table, name in tables.items()}


VERTEX_GROUPS = _vertex_groups()


def test_vertex_groups_cover_the_corpus():
    # the trivial group, Z/2, C_3 and two labellings of S3 from the corpus,
    # each under the first groupoid it is a vertex group of; C_2 and C_3
    # are among them
    assert sorted(VERTEX_GROUPS) == [
        "C4:4", "C5:5", "C6:6", "coarse3_group:1",
        "product_s3_x21.diagonal:6", "product_s3_x21.horiz:2",
        "product_s3_x21.vert:3", "s3_group:6"]


@pytest.mark.parametrize("p", (2, 3))
def test_s3_face_rows_over_f2_and_f3_agree_with_the_full_nerve(p):
    s3 = ROUTE_CASES["s3_group"]
    full = full_nerve_cohomology(s3, 4, ("Fp", p))
    assert groupoid_cohomology(s3, 4, ("Fp", p)).groups == full
    with mock.patch.object(linalg, "_PLANE_STORE", 0):
        assert groupoid_cohomology(s3, 4, ("Fp", p)).groups == full
    assert [grp.dim for grp in full] == ([1] * 5 if p == 2
                                         else [1, 0, 0, 1, 1])


# -- the free resolution against the bar complex -----------------------------


@pytest.mark.parametrize("name", sorted(VERTEX_GROUPS))
def test_resolution_agrees_with_the_digit_bar_route(name):
    """The bar complex of the group, whose C^n has the k^n n-tuples of its
    k non-identity elements as cells, numbered by their base-k digits."""
    g = VERTEX_GROUPS[name]
    table = tuple(map(tuple, g.compose))
    k = g.n_arrows - 1
    for p in (2, 3, 5):
        bar = _cohomology([differential_matrix(g, n) for n in range(5)],
                          [k ** n for n in range(5)], ("Fp", p))
        assert coh._resolution_cohomology(table, 4, p, coh.BUDGET) == bar, p


@pytest.mark.parametrize("p,expected", [
    # the Poincare series (1 + t^2) / ((1 - t)(1 - t^3)) of H^*(S_4; F_2)
    (2, [1, 1, 2, 3, 3, 4, 5, 5, 6, 7, 7]),
    (3, [1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0])])
def test_s4_to_degree_10(p, expected):
    """S_4's bar complex has 23^10 cells in degree 10, past any budget; its
    resolution has at most 336 cells in a degree."""
    s4 = tuple(map(tuple, symmetric_table(4)[0]))
    assert [grp.dim for grp in coh._resolution_cohomology(
        s4, 10, p, coh.BUDGET)] == expected
    if p == 2:
        # 1 / ((1 - t)(1 - t^3)) has n // 3 + 1 at t^n
        assert expected == [n // 3 + 1 + (n - 2) // 3 + 1 if n >= 2 else 1
                            for n in range(11)]


def test_resolution_checks_its_kernels(monkeypatch):
    """A kernel vector that d_n does not kill fails d_(n-1) d_n = 0, and a
    kernel that claims one generator more than it has, repeating one, leaves
    the span of the translates short of its order."""
    s3 = tuple(map(tuple, symmetric_table(3)[0]))
    real = linalg.kernel_mod_m

    def off(rows, ncols, m):
        order, kernel = real(rows, ncols, m)
        return order, [{**kernel[0], ncols - 1: kernel[0].get(ncols - 1, 0)
                        + 1}, *kernel[1:]] if kernel else kernel

    def repeated(rows, ncols, m):
        order, kernel = real(rows, ncols, m)
        return order * m, kernel + kernel[:1]
    for fake, match in ((off, "^d_0 d_1 is not 0 mod 2$"),
                        (repeated, "^the translates of the generators of "
                                   "F_1 span a group of order 32 in a "
                                   "kernel of order 64$")):
        monkeypatch.setattr(coh, "kernel_mod_m", fake)
        with pytest.raises(InternalConsistencyError, match=match):
            coh._resolution_cohomology(s3, 2, 2, coh.BUDGET)


def _smallest_prime_not_dividing(order):
    return next(q for q in itertools.count(2)
                if all(q % d for d in range(2, q)) and order % q)


@pytest.mark.parametrize("name", sorted(VERTEX_GROUPS))
def test_fp_ranks_on_coface_rows_count_smith_divisors(name):
    """|G| kills H^n(G; Z) for n >= 1, so every Smith divisor of d_n over Z
    divides |G|; and the rank of d_n over F_p counts the divisors that p
    does not divide, which is all of them for a prime not dividing |G|.
    The ranks are taken on the transposed rows (plane rows at p = 2, 3,
    dict rows above), the divisors on the face rows over Z."""
    g = VERTEX_GROUPS[name]
    order = g.n_arrows
    primes = sorted({q for q in (2, 3, 5) if order % q == 0}
                    | {_smallest_prime_not_dividing(order)})
    for n in range(4):
        face = differential_matrix(g, n)
        ncols = len(nerve(g, n))
        coface = linalg.transpose(face, ncols)
        divisors = linalg.elementary_divisors(face, ncols)
        assert all(order % d == 0 for d in divisors), n
        for q in primes:
            rank = linalg.rank_fp(coface, q) if any(coface) else 0
            assert rank == sum(1 for d in divisors if d % q), (n, q)


# -- integral cohomology from resolutions over Z/q^v ------------------------


def _permutation_group(*gens):
    elems = perm_closure(list(gens))
    index = {x: i for i, x in enumerate(elems)}
    return one_object_group([[index[perm_mul(x, y)] for y in elems]
                             for x in elems])


# orders 6 and 10, squarefree, and orders that a square divides; Q_8 is
# generated by i and j acting on +-1, +-i, +-j, +-k by left multiplication
LOCAL_CASES = {
    "s3_group": ROUTE_CASES["s3_group"],
    "C6": _permutation_group((1, 2, 3, 4, 5, 0)),
    "D5": _permutation_group((1, 2, 3, 4, 0), (0, 4, 3, 2, 1)),
    "C4": _permutation_group((1, 2, 3, 0)),
    "C8": _permutation_group((1, 2, 3, 4, 5, 6, 7, 0)),
    "C9": _permutation_group((1, 2, 3, 4, 5, 6, 7, 8, 0)),
    "Q8": _permutation_group((1, 4, 3, 6, 5, 0, 7, 2),
                             (2, 7, 4, 1, 6, 3, 0, 5)),
    "D4": _permutation_group((1, 2, 3, 0), (0, 3, 2, 1)),
    "V4": _permutation_group((1, 0, 3, 2), (2, 3, 0, 1)),
    "C12": _permutation_group(tuple(range(1, 12)) + (0,)),
    "A4": _permutation_group((1, 2, 0, 3), (0, 2, 3, 1)),
}


@pytest.mark.parametrize("name", sorted(LOCAL_CASES))
def test_local_ranks_agree_with_the_full_nerve_over_z(name, monkeypatch):
    """No Smith form runs: the groups come from one resolution over F_q for
    each prime q of the order, and one over Z/q^v where q^v, v >= 2,
    exactly divides it; they are those of the Smith form of the whole
    nerve's differentials."""
    g = LOCAL_CASES[name]
    full = full_nerve_cohomology(g, Z_ORACLE_DEGREE, "Z")
    calls = _count_calls(monkeypatch, ["elementary_divisors",
                                       "_resolution_cohomology"])
    assert groupoid_cohomology(g, Z_ORACLE_DEGREE, "Z").groups == full
    assert calls["elementary_divisors"] == []
    assert g.n_arrows == {"s3_group": 6, "C6": 6, "D5": 10, "C4": 4, "C8": 8,
                          "C9": 9, "Q8": 8, "D4": 8, "V4": 4, "C12": 12,
                          "A4": 12}[name]
    powers = factorint(g.n_arrows).items()
    assert sorted((args[2], *args[4:])
                  for args in calls["_resolution_cohomology"]) == sorted(
        [(q,) for q, _ in powers] + [(q, v) for q, v in powers if v > 1])


# the eliminations of S3's resolutions to degree 5: per degree one kernel
# and one span echelon on the columns of F_n, then one span per coboundary,
# on its rows
S3_ELIMINATIONS = {2: ([6, 12, 24, 30, 24, 18], [2, 4, 5, 4, 3, 4]),
                   3: ([6, 12, 18, 24, 24, 24], [2, 3, 4, 4, 4, 4])}


@pytest.mark.parametrize("coefficients", ["Z", ("Fp", 2), ("Fp", 3)])
def test_s3_routes_keep_their_fp_eliminations(coefficients, monkeypatch):
    """S3 has order 6, so v = 1 at both primes: over Z it takes the
    resolutions over F_2 and F_3 and nothing more, with the
    ``kernel_mod_m``, ``_echelon`` and ``span_length`` calls of each, and
    no ``nullspace_fp`` or ``rank_fp`` call."""
    names = ["kernel_mod_m", "_echelon", "span_length"]
    calls = _count_calls(monkeypatch, names + ["nullspace_fp", "rank_fp"])
    groupoid_cohomology(ROUTE_CASES["s3_group"], 5, coefficients)
    expected = {name: [] for name in names}
    for q in (2, 3) if coefficients == "Z" else coefficients[1:]:
        dims, coboundary_rows = S3_ELIMINATIONS[q]
        expected["kernel_mod_m"] += [(below, dim, q) for below, dim
                                     in zip([1] + dims, dims)]
        expected["_echelon"] += [(q, dim) for dim in dims]
        expected["span_length"] += [(rows, q, 1) for rows in coboundary_rows]
    assert {name: [tuple(len(a) if isinstance(a, list) else a for a in args)
                   for args in calls[name]] for name in names} == expected
    assert calls["nullspace_fp"] == calls["rank_fp"] == []


def _z_groups(*torsion):
    return [ZGroup(1, ())] + [ZGroup(0, t) for t in torsion]


@pytest.mark.parametrize("name,expected", [
    # H^4 = Z/2 + Z/12 (C. B. Thomas, Characteristic classes and the
    # cohomology of finite groups, 1986)
    ("S4", None),
    # (Z/2)^(2k) + Z/4, (Z/2)^(2k), (Z/2)^(2k+2), (Z/2)^(2k+1) in degrees
    # 4k, 4k + 1, 4k + 2, 4k + 3 (Handel, Tohoku Math. J. 45, 1993)
    ("D4", _z_groups((), (2, 2), (2,), (2, 2, 4), (2, 2), (2,) * 4, (2,) * 3,
                     (2,) * 4 + (4,))),
    # periodic of period 4: Z/8 in degrees 4k, (Z/2)^2 in 4k + 2
    ("Q8", _z_groups((), (2, 2), (), (8,), (), (2, 2), (), (8,)))])
def test_integral_cohomology_to_degree_8(name, expected):
    """Past the bar cells that the budget allows, through the resolutions:
    dim H^n(G; F_p) counts the summands of H^n(G; Z) and H^(n+1)(G; Z) that
    p divides, for n >= 1 (universal coefficients)."""
    g = (one_object_group(symmetric_table(4)[0]) if name == "S4"
         else LOCAL_CASES[name])
    table = tuple(map(tuple, g.compose))
    integral = coh._integral_cohomology(table, 8, coh.BUDGET)
    for p in (2, 3):
        dims = [grp.dim for grp in coh._resolution_cohomology(
            table, 7, p, coh.BUDGET)]

        def summands(grp, _p=p):
            return sum(1 for d in grp.torsion if d % _p == 0)
        assert dims == [1] + [summands(integral[n]) + summands(integral[n + 1])
                              for n in range(1, 8)], p
    if expected is None:
        assert integral[:5] == _z_groups((), (2,), (2,), (2, 12))
    else:
        assert integral == expected


def test_a_span_grown_unseen_fails_the_fp_cross_check(monkeypatch):
    """Were ``_Echelon.add`` to miss the growth of a gcd step, the
    resolution over Z/8 of D_4 would lose generators that no span check
    sees, and its types would miss summands that the resolution over F_2
    counts."""
    real = linalg._Echelon.add

    def unseen(self, row, low=0):
        stored = len(self.rows)
        real(self, row, low)
        return len(self.rows) > stored
    monkeypatch.setattr(linalg._Echelon, "add", unseen)
    d4 = tuple(map(tuple, LOCAL_CASES["D4"].compose))
    with pytest.raises(InternalConsistencyError,
                       match=r"^H\^0\.\.H\^5 over Z/8 read .*, over F_2 "
                             r"dimensions \[1, 2, 3, 4, 5, 6\]$"):
        coh._integral_cohomology(d4, 5, coh.BUDGET)


def test_a_wrong_rank_over_fp_raises(monkeypatch):
    """A dimension of H^1 over F_q too large makes T_2, all of H^1, too
    large to lie in H^2; one below zero gives H^1 no type."""
    s3 = ROUTE_CASES["s3_group"]
    real = coh._resolution_cohomology
    for shift, match in (
            (1, r"^T_2 = \[2, 2\] does not lie in H\^2 over Z/2, \(2,\)$"),
            (-100, r"^H\^0\.\.H\^2 over Z/2 read \[\(2,\), \(\), \(2,\)\], "
                   r"over F_2 dimensions \[1, -99, 1\]$")):
        def shifted(*args, _s=shift):
            groups = real(*args)
            groups[1] = coh.FpGroup(groups[1].dim + _s)
            return groups
        monkeypatch.setattr(coh, "_resolution_cohomology", shifted)
        with pytest.raises(InternalConsistencyError, match=match):
            groupoid_cohomology(s3, 2, "Z")


@pytest.mark.parametrize("p", (2, 3))
def test_no_divisor_of_s3_is_divisible_by_a_square(p):
    """The Howell count mod p^2 of d_1..d_4 of S3 is p**(2 (ncols - r)) p**t,
    r the rank over F_5 (which no divisor's prime divides) and t the number
    of divisors that p divides: it would be larger if p^2 divided one."""
    s3 = ROUTE_CASES["s3_group"]
    ts = []
    for n in range(1, 5):
        face = differential_matrix(s3, n)
        ncols = 5 ** n
        echelon = linalg._Echelon(p * p)
        for row in face:
            echelon.add(row)
        howell = (p * p) ** (ncols - len(echelon.rows)) * prod(
            row[c] for c, row in echelon.rows.items())
        r = linalg.rank_fp(face, 5)
        ts.append(r - linalg.rank_fp(face, p))
        assert howell == p ** (2 * (ncols - r) + ts[-1]), n
    # the torsion Z/2 of H^2 and Z/6 of H^4
    assert ts == ([1, 0, 1, 0] if p == 2 else [0, 0, 1, 0])


# -- one-pass row assembly against the two-pass formulation -------------------


def _rows_by_sparse_row(src_index, tgt, faces):
    """The coboundary rows as two passes build them: the (column, sign)
    entries of each row summed by ``sparse_row``, which then drops the
    zeros."""
    return [sparse_row((src_index[f], sign) for f, sign in faces(chain)
                       if f in src_index)
            for chain in tgt]


@pytest.fixture
def checked_rows(monkeypatch):
    """Checks every matrix that ``_coboundary_rows`` builds against
    :func:`_rows_by_sparse_row`, and that no row stores a zero; the list of
    the checked matrices' row counts is returned."""
    checked = []
    one_pass = coh._coboundary_rows

    def checking(src_index, tgt, faces):
        rows = one_pass(src_index, tgt, faces)
        assert rows == _rows_by_sparse_row(src_index, tgt, faces)
        assert all(v for row in rows for v in row.values())
        checked.append(len(rows))
        return rows
    monkeypatch.setattr(coh, "_coboundary_rows", checking)
    return checked


@pytest.mark.parametrize("name", sorted(ROUTE_CASES))
def test_one_pass_rows_match_sparse_row_on_groupoids(name, checked_rows):
    g = ROUTE_CASES[name]
    for n in range(4):
        assert len(differential_matrix(g, n)) == len(nerve(g, n + 1))
    assert len(checked_rows) == 4


@pytest.mark.parametrize("name", ["s3_matched_pair", "x11", "x22", "x23",
                                  "union_x22_s3", "product_s3_x21"])
def test_one_pass_rows_match_sparse_row_on_grid_matrices(vacant_corpus, name,
                                                         checked_rows):
    spec = build_double_complex(vacant_corpus[name], 4)
    assert len(checked_rows) == len(spec.d_h) + len(spec.d_v) == 20


def test_one_pass_rows_cancel(checked_rows):
    """On Z/2 = {e, a}: d(a, a, a) = (a, a) - (e, a) + (a, e) - (a, a)
    cancels to the empty row, and d(a, a) = (a) - (e) + (a) holds a 2."""
    z2 = one_object_group(cyclic_table(2))
    assert nerve(z2, 3) == [(1, 1, 1)] and nerve(z2, 1) == [(1,)]
    assert differential_matrix(z2, 2) == [{}]
    assert differential_matrix(z2, 1) == [{0: 2}]
    assert checked_rows == [1, 1]


def test_integral_torsion_of_a_union_is_merged_into_invariant_factors():
    from dgq.groupoids import disjoint_union
    g = disjoint_union(one_object_group(cyclic_table(2)),
                       one_object_group(cyclic_table(3)))
    skeleton = groupoid_cohomology(g, 2, "Z").groups
    assert skeleton == full_nerve_cohomology(g, 2, "Z")
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


# s3 has Z/3 torsion in H^2(Tot A; Z), which Z/4 does not see and Z/6 does
@pytest.mark.parametrize("name,m", [("s3", 2), ("s3", 3), ("x22", 2), ("x22", 3),
                                    ("s3", 4), ("s3", 6), ("union", 4),
                                    ("union", 6), ("x22", 4), ("x22", 6),
                                    ("x23", 3), ("product", 3), ("product", 6),
                                    ("s3", 8), ("s3", 9), ("s3", 12),
                                    ("union", 8), ("union", 9), ("union", 12),
                                    ("x22", 8), ("x22", 9), ("x22", 12)])
def test_opext_matches_gauge_classes(name, m, monkeypatch):
    """Neither side takes a Smith form."""
    t = {"s3": s3_double, "x22": lambda: build_Xrs(2, 2),
         "x23": lambda: build_Xrs(2, 3), "union": corpus_union,
         "product": corpus_product}[name]()

    def refuse(rows, ncols):
        raise AssertionError("a Smith form ran")
    monkeypatch.setattr(linalg, "smith_diagonal", refuse)
    _, opx = aut_and_opext(t, m)
    assert opx.order() == count_modulo_gauge(t, m)


@pytest.mark.parametrize("m", (0, -2))
def test_aut_opext_refuses_a_modulus_below_1(m):
    with pytest.raises(StructureError, match="^modulus must be >= 1$"):
        aut_and_opext(build_Xrs(2, 2), m)


def test_x22_opext_m3_trivial():
    _, opx = aut_and_opext(build_Xrs(2, 2), 3)
    assert opx.divisors == ()


def test_aut_opext_integral_path_m6(s3_T):
    # the Z/3 torsion of H^2(Tot A; Z) enters H^1(Tot A; Z/6) as
    # Tor(Z/3, Z/6) = Z/3
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
    dgq.cohomology, positional ones first, then the values of the keyword
    ones."""
    calls = {name: [] for name in names}
    for name in names:
        fn = getattr(coh, name)

        def counted(*args, _fn=fn, _log=calls[name], **kwargs):
            _log.append(args + tuple(kwargs.values()))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(coh, name, counted)
    return calls


def test_kac_report_builds_each_matrix_and_nerve_once(monkeypatch,
                                                      vacant_corpus):
    calls = _count_calls(monkeypatch, ["total_matrix", "nerve",
                                       "groupoid_cohomology",
                                       "build_double_complex",
                                       "_resolution_cohomology"])
    t = vacant_corpus["x23"]
    coh.kac_report(t, 2)
    built = [(part, n) for _, part, n in calls["total_matrix"]]
    assert sorted(built) == sorted((part, n) for part in "DEA"
                                   for n in range(4))
    # The double complex's edge bases are the edge groupoids' nerves in
    # degrees 1..4.  groupoid_cohomology builds no nerve, of the diagonal
    # or edge groupoids or of their vertex groups.
    cohomology_of = {id(g) for g, *_ in calls["groupoid_cohomology"]}
    assert len(cohomology_of) == 3
    assert {id(t.horiz), id(t.vert)} <= cohomology_of
    assert sorted((id(g), n) for g, n in calls["nerve"]) == sorted(
        (id(g), n) for g in (t.vert, t.horiz) for n in range(1, 5))
    # Every component of x23's three groupoids has the trivial vertex
    # group, so each call resolves that one vertex table once, to degree 3
    assert [args[:3] for args in calls["_resolution_cohomology"]] == [
        (((0,),), 3, 2)] * 3
    assert len(calls["build_double_complex"]) == 1


def test_kac_report_reduces_each_total_matrix_once(monkeypatch,
                                                   vacant_corpus):
    calls = _count_calls(monkeypatch, ["nullity_fp", "nullspace_fp",
                                       "rank_fp", "kernel_mod_m"])
    built, total_matrix = [], coh.total_matrix

    def recorded(*args):
        built.append(total_matrix(*args))
        return built[-1]
    monkeypatch.setattr(coh, "total_matrix", recorded)
    rep = coh.kac_report(vacant_corpus["x23"], 2)
    # one nullspace out of each degree the sequence reads: 0..3 of Tot D and
    # Tot E, internal 2..3 of Tot A; the rank arithmetic takes its nullities
    # from them.  No total matrix is reduced twice, and no nullspace is
    # taken of anything else.  The kernels of d_0..d_3 of the three
    # resolutions of the trivial vertex group of x23's groupoids come from
    # kernel_mod_m.  rank_fp serves only the 7 maps
    reduced = [i for rows, *_ in calls["nullspace_fp"]
               for i, m in enumerate(built) if rows is m]
    assert len(built) == 4 * 3
    assert len(reduced) == len(set(reduced)) == 4 + 4 + 2
    assert len(calls["nullspace_fp"]) == len(reduced)
    assert len(calls["kernel_mod_m"]) == 3 * 4
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


def test_composite_opext_takes_counts_and_no_smith_form(monkeypatch,
                                                        vacant_corpus):
    calls = _count_calls(monkeypatch, ["elementary_divisors", "rank_z",
                                       "total_matrix", "span_length"])
    aut, opx = coh.aut_and_opext(vacant_corpus["x23"], 6)
    assert aut.divisors == (6, 6) and opx.divisors == ()
    # Tot A is built to degree 4, as at a prime m, and each differential
    # out of degrees 0..3 is counted once mod 2 and once mod 3
    assert [n for _, _, n in calls["total_matrix"]] == [0, 1, 2, 3]
    assert [args[1:] for args in calls["span_length"]] == [(2, 1)] * 4 + [
        (3, 1)] * 4
    assert calls["elementary_divisors"] == calls["rank_z"] == []


def test_total_cohomology_refuses_malformed_coefficients(vacant_corpus):
    """Every coefficient form is parsed in one place, which names all
    three; H^0 of Tot D on x22 is Z/4 mod 4 and of dimension 1 over F_2."""
    spec = build_double_complex(vacant_corpus["x22"], 3)
    assert str(total_cohomology(spec, "D", 0, ("Z/m", 4))) == "Z/4"
    assert total_cohomology(spec, "D", 0, ("Fp", 2)).dim == 1
    for coefficients in (("Z/m", 0), ("Z/m", -4), ("Z/m", 2.0), ("Z/m", True),
                         ("Fp", 2.0), ("Q", 3), "Q", ("Z/m",), None):
        with pytest.raises(StructureError, match=r"^coefficients must be "
                           r"'Z', \('Fp', p\) with p prime or \('Z/m', m\) "
                           r"with m >= 1 an int$"):
            total_cohomology(spec, "D", 0, coefficients)


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
