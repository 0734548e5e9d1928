"""Property tests of ``dgq.linalg`` on small random sparse matrices.

Each F_p routine is checked against a dense row reduction written here, the
integer Smith form against ``sympy``, and the solutions over Z/m against a
brute-force sweep, so the library and its oracles share no code."""

import itertools
import random
import sys
from math import gcd, prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, factorint, isprime, nextprime
from sympy.matrices.normalforms import smith_normal_form

from dgq import fields, linalg
from dgq.cocycles import _constraint_system, count_modulo_gauge
from dgq.cohomology import (build_double_complex, groupoid_cohomology,
                            nerve, total_dim, total_matrix)
from dgq.double import build_Xrs
from dgq.errors import InternalConsistencyError, StructureError
from dgq.groupoids import coarse_groupoid, one_object_group
from dgq.fields import prime_powers
from dgq.linalg import (SubquotientFp, _Echelon, _on_planes, _Planes, _walk,
                        count_solutions_mod_m, elementary_divisors,
                        kernel_mod_m, matmul, nullity_fp, nullspace_fp,
                        rank_fp, smith_diagonal, solutions_mod_m, span_length,
                        transpose)
from dgq.samples import cyclic_table, s3_double, symmetric_table

from full_nerve import differential_matrix

PRIMES = (2, 3, 5)
SETTINGS = settings(max_examples=60, deadline=None)


# -- dense oracle ------------------------------------------------------------


def dense_rref(rows, ncols, p):
    """Reduced row echelon form over F_p; returns (nonzero rows, pivots)."""
    m = [[v % p for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(m)) if m[i][col]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = pow(m[r][col], p - 2, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m[:len(pivots)], pivots


def dense_rank(rows, ncols, p):
    return len(dense_rref(rows, ncols, p)[1])


def to_sparse(dense):
    return [{j: v for j, v in enumerate(row) if v} for row in dense]


def to_dense(rows, ncols):
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


ENTRY = st.sampled_from((0, 0, 0, 1, -1, 2, 3, -4))


@st.composite
def dense_matrices(draw, max_rows=6, max_cols=6, min_size=0, entry=ENTRY):
    nrows = draw(st.integers(min_size, max_rows))
    ncols = draw(st.integers(min_size, max_cols))
    return draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows)), ncols


@st.composite
def wide_rows(draw, ncols, max_rows=8):
    """Up to ``max_rows`` dense rows of ``ncols`` entries, each with a few
    nonzero ones, so that a plane row spans several machine words."""
    nrows = draw(st.integers(0, max_rows))
    entries = st.dictionaries(st.integers(0, max(ncols - 1, 0)), ENTRY,
                              max_size=12 if ncols else 0)
    rows = []
    for _ in range(nrows):
        row = [0] * ncols
        for c, v in draw(entries).items():
            row[c] = v
        rows.append(row)
    return rows


@st.composite
def wide_matrices(draw, max_rows=8, max_cols=200):
    ncols = draw(st.integers(0, max_cols))
    return draw(wide_rows(ncols, max_rows)), ncols


# -- F_p ---------------------------------------------------------------------


def on_both_row_kinds(check, p, *args):
    """``check(*args)`` as ``linalg`` routes it, which at p = 2 and 3 is on
    plane rows for every matrix drawn here; at those primes again with the
    plane store at 0, which sends every elimination to dict rows."""
    check(*args)
    if p in (2, 3):
        with mock.patch.object(linalg, "_PLANE_STORE", 0):
            check(*args)


def check_rank_and_nullity(mat, p):
    dense, ncols = mat
    rank = dense_rank(dense, ncols, p)
    assert rank_fp(to_sparse(dense), p) == rank
    assert nullity_fp(to_sparse(dense), ncols, p) == ncols - rank


@SETTINGS
@given(dense_matrices(), st.sampled_from(PRIMES))
def test_rank_and_nullity_match_dense_oracle(mat, p):
    """Also, at each prime q: ``count_solutions_mod_m``, through
    ``_Echelon(q)``, counts q to the nullity that ``nullity_fp`` finds, on
    plane rows at q = 2 and 3."""
    on_both_row_kinds(check_rank_and_nullity, p, mat, p)
    rows, ncols = to_sparse(mat[0]), mat[1]
    for q in PRIMES:
        assert count_solutions_mod_m(rows, ncols, q) == q ** nullity_fp(
            rows, ncols, q)


@SETTINGS
@given(wide_matrices(), st.sampled_from(PRIMES))
def test_rank_and_nullity_of_wide_rows_match_dense_oracle(mat, p):
    on_both_row_kinds(check_rank_and_nullity, p, mat, p)


@SETTINGS
@given(dense_matrices(), st.sampled_from(PRIMES), st.randoms())
def test_rank_is_invariant_under_row_and_column_permutations(mat, p, rnd):
    dense, ncols = mat
    rows = [list(row) for row in dense]
    rnd.shuffle(rows)
    perm = list(range(ncols))
    rnd.shuffle(perm)
    permuted = [[row[j] for j in perm] for row in rows]
    assert rank_fp(to_sparse(permuted), p) == rank_fp(to_sparse(dense), p)


@SETTINGS
@given(dense_matrices(), st.sampled_from(PRIMES))
def test_nullspace_is_the_rref_basis(mat, p):
    """The basis is the reduced echelon one under rightmost pivots, which is
    the dense oracle's (leftmost pivots) on the matrix with its columns
    reversed, read back in the original column order."""
    on_both_row_kinds(check_nullspace, p, mat, p)


@SETTINGS
@given(wide_matrices(), st.sampled_from(PRIMES))
def test_nullspace_of_wide_rows_is_the_rref_basis(mat, p):
    on_both_row_kinds(check_nullspace, p, mat, p)


def check_nullspace(mat, p):
    dense, ncols = mat
    basis = nullspace_fp(to_sparse(dense), ncols, p)
    for x in basis:
        assert all(v % p for v in x.values())
        for row in dense:
            assert sum(a * x.get(j, 0) for j, a in enumerate(row)) % p == 0
    last = ncols - 1
    rref, rev_pivots = dense_rref([row[::-1] for row in dense], ncols, p)
    pivots = [last - c for c in rev_pivots]
    assert len(basis) == ncols - len(pivots)
    expected = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[free] = 1
        for r, c in enumerate(pivots):
            vec[c] = -rref[r][last - free] % p
        expected.append(vec)
    assert to_dense(basis, ncols) == expected


@SETTINGS
@given(dense_matrices(max_rows=5), dense_matrices(max_rows=5),
       st.sampled_from(PRIMES), st.data())
def test_subquotient_dim_and_coords_round_trip(zmat, bmat, p, data):
    z_dense, ncols = zmat
    b_dense = [row[:ncols] + [0] * (ncols - len(row)) for row in bmat[0]]
    on_both_row_kinds(check_subquotient, p, z_dense, b_dense, ncols, p, data)


@SETTINGS
@given(wide_matrices(), st.sampled_from(PRIMES), st.data())
def test_subquotient_of_wide_rows_round_trips(zmat, p, data):
    z_dense, ncols = zmat
    on_both_row_kinds(check_subquotient, p, z_dense,
                      data.draw(wide_rows(ncols)), ncols, p, data)


def check_subquotient(z_dense, b_dense, ncols, p, data):
    h = SubquotientFp(ncols, to_sparse(z_dense), to_sparse(b_dense), p)
    # representatives: the Z vectors that raise the rank, taken in order
    kept, expected = list(b_dense), []
    for v in z_dense:
        if dense_rank(kept + [v], ncols, p) > dense_rank(kept, ncols, p):
            kept.append(v)
            expected.append([x % p for x in v])
    assert h.dim == len(expected)
    assert to_dense(h.reps, ncols) == expected
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=h.dim,
                                max_size=h.dim))
    noise = data.draw(st.lists(st.integers(0, p - 1), min_size=len(b_dense),
                               max_size=len(b_dense)))
    v = [0] * ncols
    for c, rep in zip(coeffs, expected):
        v = [a + c * x for a, x in zip(v, rep)]
    for c, b in zip(noise, b_dense):
        v = [a + c * x for a, x in zip(v, b)]
    v = {j: x for j, x in enumerate(v) if x % p}
    assert h.coords(v) == {k: c for k, c in enumerate(coeffs) if c}


def test_coords_rejects_a_vector_outside_the_span():
    h = SubquotientFp(3, [{0: 1}], [{1: 2}], 3)
    assert h.coords({0: 2, 1: 1}) == {0: 2}
    with pytest.raises(StructureError):
        h.coords({2: 1})


@pytest.mark.parametrize("x", (1, 2))
@pytest.mark.parametrize("s", (1, 2))
def test_f3_planes_add_and_negate_every_pair_of_values(x, s):
    """A stored row s (b, 1), scaled to (b, 1), meets a row (a, x): the
    reduction leaves a - x b, which adds the negated b for x = 1 and adds b
    for x = 2.  Each of the 9 pairs (a, b) sits in a column of its own."""
    pairs = list(itertools.product(range(3), repeat=2))
    top = len(pairs)
    planes = _Planes(3)
    assert planes.add({top: s, **{k: s * b for k, (_, b) in enumerate(pairs)}})
    assert planes.reduced() == {top: {
        top: 1, **{k: b for k, (_, b) in enumerate(pairs) if b}}}
    left = planes.reduce({top: x, **{k: a for k, (a, _) in enumerate(pairs)}})
    assert left == {
        k: (a - x * b) % 3 for k, (a, b) in enumerate(pairs) if (a - x * b) % 3}


# -- plane rows against dict rows ----------------------------------------------


S3 = one_object_group(symmetric_table(3)[0])


def _both_routes(monkeypatch, compute):
    """``compute()`` on plane rows, then with the plane store at 0, which
    sends every elimination on a nonempty matrix to dict rows."""
    planes = compute()
    monkeypatch.setattr(linalg, "_PLANE_STORE", 0)
    return planes, compute()


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("n", (3, 4))
def test_plane_and_dict_rows_agree_on_s3_bar_differentials(monkeypatch, n, p):
    """Rank, nullspace basis and the subquotient H^n = ker d_n / im d_(n-1)
    with its reps and coords, on plane rows and through ``_Echelon(p)``."""
    d_n, d_prev = differential_matrix(S3, n), differential_matrix(S3, n - 1)
    ncols = len(nerve(S3, n))
    assert _on_planes(p, ncols, ncols)
    echelon = _Echelon(p)
    rank = sum(echelon.add(row) for row in d_n)
    assert rank_fp(d_n, p) == rank == ncols - nullity_fp(d_n, ncols, p)

    def compute():
        z = nullspace_fp(d_n, ncols, p)
        h = SubquotientFp(ncols, z, transpose(d_prev, len(nerve(S3, n - 1))),
                          p)
        return z, h.reps, [h.coords(v) for v in z]

    planes, dicts = _both_routes(monkeypatch, compute)
    assert len(planes[0]) == ncols - rank
    assert planes == dicts


@pytest.mark.parametrize("p", (2, 3))
def test_groupoid_cohomology_through_dict_rows(monkeypatch, p):
    planes, dicts = _both_routes(
        monkeypatch, lambda: groupoid_cohomology(S3, 4, ("Fp", p)).groups)
    assert [g.dim for g in planes] == [g.dim for g in dicts] == (
        [1] * 5 if p == 2 else [1, 0, 0, 1, 1])


# -- products and producers --------------------------------------------------


@SETTINGS
@given(dense_matrices(), st.integers(0, 5), st.data())
def test_matmul_matches_naive_product(amat, ncols_b, data):
    a, k = amat
    entry = st.integers(-3, 3)
    b = data.draw(st.lists(st.lists(entry, min_size=ncols_b, max_size=ncols_b),
                           min_size=k, max_size=k))
    naive = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(ncols_b)]
             for i in range(len(a))]
    assert matmul(to_sparse(a), to_sparse(b)) == to_sparse(naive)


def test_matmul_rejects_a_shape_mismatch():
    with pytest.raises(StructureError):
        matmul([{2: 1}], [{0: 1}, {1: 1}])


def _assert_sparse(rows, ncols):
    for row in rows:
        assert all(v != 0 for v in row.values())
        assert all(0 <= j < ncols for j in row)


def test_produced_matrices_store_no_zero():
    for g in (one_object_group(cyclic_table(2)), coarse_groupoid(3),
              one_object_group(symmetric_table(3)[0])):
        for n in range(3):
            rows = differential_matrix(g, n)
            assert len(rows) == len(nerve(g, n + 1))
            _assert_sparse(rows, len(nerve(g, n)))
    for t in (s3_double(), build_Xrs(2, 2)):
        for normalization in ("strict", "literal"):
            spec = build_double_complex(t, 4, normalization)
            for part in ("D", "A", "E"):
                for n in range(4):
                    rows = total_matrix(spec, part, n)
                    assert len(rows) == total_dim(spec, part, n + 1)
                    _assert_sparse(rows, total_dim(spec, part, n))


# -- integers ----------------------------------------------------------------


def sympy_divisors(dense):
    snf = smith_normal_form(Matrix(dense))
    return sorted(abs(snf[i, i]) for i in range(min(snf.shape))
                  if snf[i, i] != 0)


INTEGER_MATRICES = dense_matrices(
    max_rows=8, max_cols=8, min_size=1,
    entry=st.one_of(st.just(0), st.integers(-35, 35)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(dense_matrices(max_rows=5, max_cols=5, min_size=1),
                 INTEGER_MATRICES))
def test_elementary_divisors_match_sympy(mat):
    """Also the diagonal they come from is positive and as long as the
    rank."""
    dense, ncols = mat
    divisors = sympy_divisors(dense)
    assert elementary_divisors(to_sparse(dense), ncols) == divisors
    diag = smith_diagonal(to_sparse(dense), ncols)
    assert len(diag) == len(divisors) and all(d > 0 for d in diag)


@settings(max_examples=40, deadline=None)
@given(INTEGER_MATRICES)
def test_reduced_z_echelon_bounds_its_entries(mat):
    """Over Z each entry of a stored row at another row's pivot column lies
    below that pivot once the rows are reduced."""
    dense, ncols = mat
    echelon = _Echelon(0)
    for row in to_sparse(dense):
        echelon.add(row)
    rows = echelon.reduced()
    for c, row in rows.items():
        assert all(row[k] // rows[k][k] == 0 for k in row if k != c and k in rows)


# With the reduction step of the echelon passes switched off, the alternating
# passes never end on this matrix: they cycle, one state repeating every 12
# passes.  With it they end after one pass on the rows and one on the columns.
PINNED = [[0, 0, 3, 2, -4], [0, -4, 0, -1, 3], [0, 0, 1, 0, 1],
          [1, 3, 2, 2, -4], [-1, 0, 3, 0, 1]]


@pytest.mark.parametrize("m", (2, 6, 11))
def test_smith_ends_on_a_matrix_whose_passes_need_the_reduction(m):
    assert elementary_divisors(to_sparse(PINNED), 5) == sympy_divisors(PINNED)
    count, solutions = solutions_mod_m(to_sparse(PINNED), 5, m)
    brute = [x for x in itertools.product(range(m), repeat=5)
             if all(sum(a * v for a, v in zip(row, x)) % m == 0
                    for row in PINNED)]
    assert list(solutions) == brute and count == len(brute)


def test_smith_rejects_a_column_outside_the_matrix():
    with pytest.raises(StructureError):
        smith_diagonal([{0: 1, 3: 2}], 3)


def _refuse_smith(rows, ncols):
    raise AssertionError("a Smith form ran")


@settings(max_examples=40, deadline=None)
@given(dense_matrices(max_rows=4, max_cols=4),
       st.sampled_from((1, 2, 3, 4, 5, 6, 7, 8, 9, 12)))
def test_solutions_mod_m_match_brute_force(mat, m):
    """Every solution once, in increasing lexicographic order; no Smith
    form runs."""
    mat, ncols = mat
    with mock.patch.object(linalg, "smith_diagonal", _refuse_smith):
        count, solutions = solutions_mod_m(to_sparse(mat), ncols, m)
    found = list(solutions)
    brute = [x for x in itertools.product(range(m), repeat=ncols)
             if all(sum(a * v for a, v in zip(row, x)) % m == 0 for row in mat)]
    assert found == brute
    assert count == len(found) == count_solutions_mod_m(to_sparse(mat), ncols, m)


@SETTINGS
@given(st.one_of(dense_matrices(), wide_matrices(max_cols=70)),
       st.sampled_from((2, 3)))
def test_the_howell_walk_agrees_on_plane_and_dict_rows(mat, m):
    """At m = 2 and 3 ``solutions_mod_m`` and ``kernel_mod_m`` walk an
    echelon form on plane rows; with ``_on_planes`` refusing, on dict rows.
    The counts, the walked tuples in their order (the first 800 of them),
    and the kernels' orders and generators agree."""
    dense, ncols = mat
    rows = to_sparse(dense)

    def compute():
        count, solutions = solutions_mod_m(rows, ncols, m)
        return (count, list(itertools.islice(solutions, 800)),
                kernel_mod_m(rows, ncols, m))
    assert isinstance(linalg._echelon(m, rows, ncols), _Planes)
    planes = compute()
    with mock.patch.object(linalg, "_on_planes", lambda *args: False):
        assert isinstance(linalg._echelon(m, rows, ncols), _Echelon)
        dicts = compute()
    assert planes == dicts


def test_the_walk_needs_the_howell_closure_row():
    """x0 + 2 x1 = 0 mod 4 pivots on x1 with g = 2, which has a value only
    for even x0; the closure row 2 (1, 2) = (2, 0) says so.  ``add`` stores
    it with the row, and without it the walk meets a dead end."""
    echelon = _Echelon(4)
    assert echelon.add({0: 1, 1: 2})
    assert echelon.rows == {1: {0: 1, 1: 2}, 0: {0: 2}}
    bare = _Echelon(4)
    bare.rows = {c: dict(row) for c, row in echelon.rows.items() if c != 0}
    with pytest.raises(InternalConsistencyError, match="no value"):
        list(_walk(bare, 2))
    count, solutions = solutions_mod_m([{0: 1, 1: 2}], 2, 4)
    assert count == 4
    assert list(solutions) == [(0, 0), (0, 2), (2, 1), (2, 3)]


def test_echelon_add_reports_a_span_grown_by_a_gcd_step():
    """Mod 4, {0: 1} after {0: 2} reduces to 0, but the gcd step that
    stores it takes the span from {0, 2} to Z/4."""
    echelon = _Echelon(4)
    assert echelon.add({0: 2}) and echelon.order() == 2
    assert echelon.add({0: 1}) and echelon.order() == 4
    assert not echelon.add({0: 3}) and echelon.rows == {0: {0: 1}}


@settings(max_examples=60, deadline=None)
@given(dense_matrices(max_rows=5, max_cols=3, min_size=1,
                      entry=st.integers(-12, 12)),
       st.sampled_from((4, 6, 8, 9, 12)))
def test_echelon_add_says_whether_the_span_grew(mat, m):
    """``add`` is True exactly when the row lay outside the span, whose
    elements are listed by brute force, and ``order`` is their number."""
    dense, ncols = mat
    echelon = _Echelon(m)
    span = {(0,) * ncols}
    for row in dense:
        grew = tuple(v % m for v in row) not in span
        assert echelon.add(to_sparse([row])[0]) == grew
        while True:
            more = {tuple((a + v) % m for a, v in zip(x, row)) for x in span}
            if more <= span:
                break
            span |= more
        assert echelon.order() == len(span)


@settings(max_examples=60, deadline=None)
@given(dense_matrices(max_rows=4, max_cols=3, entry=st.integers(-12, 12)),
       st.sampled_from((2, 4, 6, 8, 9, 12)))
def test_kernel_mod_m_generates_the_solutions(mat, m):
    """The generators lie in the kernel and generate all of it, which
    brute force lists; the order is its size, and at a prime m they are
    the basis of ``nullspace_fp``."""
    dense, ncols = mat
    order, gens = kernel_mod_m(to_sparse(dense), ncols, m)
    brute = {x for x in itertools.product(range(m), repeat=ncols)
             if all(sum(a * v for a, v in zip(row, x)) % m == 0
                    for row in dense)}
    span = {(0,) * ncols}
    for gen in gens:
        x = tuple(gen.get(j, 0) for j in range(ncols))
        assert x in brute
        span = {tuple((a + k * b) % m for a, b in zip(y, x))
                for y in span for k in range(m)}
    assert span == brute and order == len(brute)
    if m == 2:
        assert gens == nullspace_fp(to_sparse(dense), ncols, m)


@settings(max_examples=60, deadline=None)
@given(dense_matrices(max_rows=4, max_cols=4, entry=st.integers(-12, 12)),
       st.sampled_from(((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))))
def test_span_length_is_the_log_of_the_span_order(mat, qj):
    """The kernel and the span of the rows together have m**ncols elements,
    m = q**j."""
    (dense, ncols), (q, j) = mat, qj
    m = q ** j
    kernel = sum(1 for x in itertools.product(range(m), repeat=ncols)
                 if all(sum(a * v for a, v in zip(row, x)) % m == 0
                        for row in dense))
    assert q ** span_length(to_sparse(dense), q, j) * kernel == m ** ncols


def test_prime_powers_match_factorisation():
    for n in range(1, 400):
        assert prime_powers(n) == sorted(factorint(n).items()), n
    # a cofactor past the trial bound is tested for primality, not divided
    for n in (10 ** 14 + 31, 2 * 3 ** 5 * (2 ** 61 - 1), 65521 * 65537):
        assert prime_powers(n) == sorted(factorint(n).items()), n


@pytest.mark.parametrize("n,match", [
    (65537 * 65539, "no factorisation"),
    (2 * (2 ** 31 - 1) ** 2, "no factorisation"),
    ((2 ** 61 - 1) ** 2, "bound of the primality test")])
def test_prime_powers_refuse_a_composite_cofactor(n, match):
    """A cofactor with no prime factor up to the trial bound that is not
    prime, or is too large to test, is refused, not left to trial division
    for minutes."""
    with pytest.raises(StructureError, match=match):
        prime_powers(n)


def test_is_prime_matches_sympy():
    """Miller-Rabin on every n below 20,000, on strong pseudoprimes to the
    first 7, 9 and 12 prime bases, on primes and semiprimes near the bound,
    and on random draws below it; past the bound it refuses."""
    cases = [*range(-3, 20000), 341550071728321, 3825123056546413051,
             318665857834031151167461, 2 ** 61 - 1, 10 ** 14 + 31,
             fields._PRIME_BOUND - 2]
    rnd = random.Random(29)
    cases += [rnd.randrange(fields._PRIME_BOUND) | 1 for _ in range(2000)]
    for n in cases:
        assert fields._is_prime(n) == isprime(n), n
    with pytest.raises(StructureError, match="bound of the primality test"):
        fields._is_prime(fields._PRIME_BOUND)


@settings(max_examples=60, deadline=None)
@given(dense_matrices(max_rows=5, max_cols=5, min_size=1,
                      entry=st.integers(-12, 12)),
       st.sampled_from((2, 3, 4, 5, 6, 8, 9, 12, 36)))
def test_howell_count_is_the_smith_count(mat, m):
    """m per free column times g per pivot column of the Howell form equals
    m**(ncols - r) times the product of gcd(d_k, m) over the r divisors
    that sympy finds, and every pivot divides m."""
    dense, ncols = mat
    echelon = _Echelon(m)
    for row in to_sparse(dense):
        echelon.add(row)
    assert all(m % row[c] == 0 for c, row in echelon.rows.items())
    howell = m ** (ncols - len(echelon.rows)) * prod(
        row[c] for c, row in echelon.rows.items())
    divisors = sympy_divisors(dense)
    assert howell == m ** (ncols - len(divisors)) * prod(
        gcd(d, m) for d in divisors)


# -- one count of solutions mod m, checked by the transpose --------------------


def test_x22_counts_alike_at_large_and_composite_moduli():
    """At every m, x22 has m**3 solutions and one gauge class: at a large
    prime, at a squarefree product of two, at a prime power, at 65537 *
    65539, whose cofactor past the trial bound of ``prime_powers`` is
    composite, and at 2 * nextprime(4 * 10**24), whose cofactor is past the
    bound of the primality test."""
    t = build_Xrs(2, 2)
    rows, ncols, _ = _constraint_system(t)
    for m in (65537, 2 * 65521, 2 ** 70, 65537 * 65539,
              2 * nextprime(4 * 10 ** 24)):
        assert count_solutions_mod_m(rows, ncols, m) == m ** 3
        assert solutions_mod_m(rows, ncols, m)[0] == m ** 3
        assert count_modulo_gauge(t, m) == 1


def test_no_count_factors_its_modulus(monkeypatch):
    """A gauge count calls ``prime_powers`` under none of the names that
    ``dgq`` binds it to, at a prime, at a modulus that ``prime_powers``
    refuses, and at one past the bound of the primality test."""
    real, calls = fields.prime_powers, []

    def counted(n):
        calls.append(n)
        return real(n)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dgq" and getattr(
                module, "prime_powers", None) is real:
            monkeypatch.setattr(module, "prime_powers", counted)
    for m in (2, 4295229443, 2 * nextprime(4 * 10 ** 24)):
        assert count_modulo_gauge(build_Xrs(2, 2), m) == 1
    assert calls == []


@settings(max_examples=80, deadline=None)
@given(dense_matrices(max_rows=6, max_cols=6, entry=st.integers(-12, 12)),
       st.sampled_from((1, 2, 3, 5, 6, 10, 30, 4, 12)))
def test_count_solutions_mod_m_is_the_smith_count(mat, m):
    """The count is m**(ncols - r) times the product of gcd(d_k, m) over
    the r divisors of the Smith form; and at a squarefree m it is the
    product over its primes, which ``sympy`` finds, of p**(ncols - rank
    over F_p)."""
    dense, ncols = mat
    rows = to_sparse(dense)
    diag = smith_diagonal(rows, ncols)
    smith = m ** (ncols - len(diag)) * prod(gcd(d, m) for d in diag)
    assert count_solutions_mod_m(rows, ncols, m) == smith
    primes = factorint(m)
    if set(primes.values()) <= {1}:
        assert smith == prod(p ** (ncols - dense_rank(dense, ncols, p))
                             for p in primes)


def _a_column_row_lost(monkeypatch, m):
    """Make every elimination of 2 columns, the transpose of the rows below,
    lose one stored row: on the planes at m = 2, on dict rows elsewhere."""
    real = linalg._echelon

    def off(modulus, rows=(), ncols=None, extra=0):
        echelon = real(modulus, rows, ncols, extra)
        if ncols == 2:
            assert isinstance(echelon, _Planes if m == 2 else _Echelon)
            echelon.rows.popitem()
        return echelon
    monkeypatch.setattr(linalg, "_echelon", off)


@pytest.mark.parametrize("m", (2, 6))
def test_a_wrong_plane_rank_raises(monkeypatch, m):
    rows = [{0: 1, 2: 1}, {1: 1}]
    assert count_solutions_mod_m(rows, 3, m) == m
    _a_column_row_lost(monkeypatch, m)
    lost = f"counts {m} solutions mod {m}, the Howell form of the transpose"
    with pytest.raises(InternalConsistencyError, match=lost):
        count_solutions_mod_m(rows, 3, m)
    with pytest.raises(InternalConsistencyError, match=lost):
        solutions_mod_m(rows, 3, m)


@pytest.mark.parametrize("m", (2, 3, 4, 5, 6, 7, 12, 30))
def test_a_prime_modulus_eliminates_the_rows_and_their_transpose_once(
        monkeypatch, m):
    """At a prime modulus as at any other, ``solutions_mod_m`` and
    ``count_solutions_mod_m`` each make two eliminations: the rows on their
    columns, then the transpose on as many columns as there are rows.  The
    orders of the two spans must give the same count; a row lost from the
    transpose raises.  The three rows span two dimensions of four columns."""
    rows = [{0: 1, 2: 1}, {1: 1}, {0: 2, 1: 1, 2: 2}]
    real, calls = linalg._echelon, []

    def counted(m, rows=(), ncols=None, extra=0):
        calls.append((len(rows), ncols))
        return real(m, rows, ncols, extra)
    monkeypatch.setattr(linalg, "_echelon", counted)
    count, solutions = solutions_mod_m(rows, 4, m)
    assert calls == [(3, 4), (4, 3)]
    assert count == len(list(solutions)) == m * m
    calls.clear()
    assert count_solutions_mod_m(rows, 4, m) == m * m
    assert calls == [(3, 4), (4, 3)]

    def off(m, matrix=(), ncols=None, extra=0):
        # every elimination but that of the rows themselves loses a row
        echelon = real(m, matrix, ncols, extra)
        if matrix is not rows:
            echelon.rows.popitem()
        return echelon
    monkeypatch.setattr(linalg, "_echelon", off)
    for count_of in (solutions_mod_m, count_solutions_mod_m):
        with pytest.raises(InternalConsistencyError,
                           match=f"counts {m * m} solutions mod {m}, the "
                                 f"Howell form of the transpose"):
            count_of(rows, 4, m)


def _value_bytes(m):
    """The fewest bytes, at least 1, that hold m - 1."""
    return (len(f"{m - 1:x}") + 1) // 2


@pytest.mark.parametrize("m,bad", [(2, 256), (2, -1), (257, 65536),
                                   (257, -1)])
def test_the_packer_refuses_a_value_it_cannot_hold(m, bad):
    """A value below 0, or past the bytes that hold m - 1, cannot be packed
    into a block; one of m or more that fits is left to the checks."""
    top = 256 ** _value_bytes(m) - 1
    assert len(linalg._pack([(0, top), (1, m)], 2, m)) == 2
    with pytest.raises(InternalConsistencyError,
                       match=f"a value outside 0..{top}"):
        linalg._pack([(0, 1), (bad, 0)], 2, m)


@settings(max_examples=120, deadline=None)
@given(dense_matrices(max_rows=4, max_cols=9),
       st.sampled_from((1, 2, 3, 4, 5, 6, 12, 128, 129, 256, 257, 65537,
                        2 ** 70)),
       st.sampled_from((1, 4, 32)))
def test_blocks_cut_the_walk_in_its_order(mat, m, size):
    """``blocks`` gives the walk's tuples, in its order, in nonempty blocks
    of at most ``size``, each value in the fewest bytes that hold m - 1:
    made from the tail of free levels by lane sums at m = 2 and up to 128,
    and packed from the walk elsewhere.  The solutions' bytes increase as
    the tuples do."""
    dense, ncols = mat
    rows = to_sparse(dense)
    count, solutions = solutions_mod_m(rows, ncols, m)
    walked = list(itertools.islice(solutions, 3000))
    tuples, packed = [], []
    for block in solutions.blocks(size):
        assert 0 < len(block) <= size
        w, stride = block.w, ncols * block.w
        assert (block.ncols, w) == (ncols, _value_bytes(m))
        assert len(block.values) == len(block) * stride
        for i in range(len(block)):
            sol = block.values[i * stride:(i + 1) * stride]
            packed.append(sol)
            tuples.append(tuple(int.from_bytes(sol[j:j + w], "big")
                                for j in range(0, stride, w)))
        if len(tuples) >= len(walked):
            break
    assert tuples[:len(walked)] == walked
    assert all(type(sol) is tuple for sol in walked)
    assert all(a < b for a, b in zip(packed, packed[1:]))
