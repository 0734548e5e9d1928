"""The compiled cocycle identities and the gauge-class count of ``dgq``
against loop-based oracles.

``validate_cocycle_pair`` and ``_constraint_system`` read the identities from
``DoubleGroupoid.cocycle_identities``, a table of pair indices built once per
double groupoid, and ``solutions_mod_m`` walks a Howell form over Z/m.  The
oracles below are the loops those routines replaced: they walk the box
tables directly and look every term up by its box pair.  On enumerated
pairs, on corrupted pairs and on drawn tables alike, both routes must report
the same failures (rule, witness and order), raise the same
``InternalConsistencyError``, count the same tuples and emit the same rows.
The solver's solutions must solve the system, strictly increase, and number
what the Smith diagonal counts.  The block check that decides each
enumerated pair, one solution per lane, must flag exactly the solutions
whose pairs the validator fails, with one failing system row per failing
tuple and each distinct row decided once.

``count_modulo_gauge`` counts classes as |Z| |ker G| / m**|free| from two
Smith forms.  Its oracle is the orbit sweep it replaced, which enumerates
every pair and every normalized gauge; its second route is the double
complex, whose H^1(Tot A) and H^0(Tot A) are the classes and ker G.
"""

import itertools
from functools import lru_cache
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgq import cocycles
from dgq import io as dio
from dgq.cocycles import (_BLOCK, CocyclePair, _BlockCheck, _constraint_system,
                          _gauge_matrix, _vanishes, count_modulo_gauge,
                          enumerate_cocycle_pairs, free_boxes, gauge_delta,
                          gauge_transform, validate_cocycle_pair, zero_pair)
from dgq.cohomology import aut_and_opext
from dgq.double import CocycleIdentities, build_Xrs
from dgq.errors import InternalConsistencyError, Report, StructureError
from dgq.linalg import (is_zero_matrix, matmul, smith_diagonal,
                        solutions_mod_m, sparse_row, transpose)
from dgq.matched import to_vacant_double
from dgq.samples import vacant_corpus

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
INSTANCES = vacant_corpus()
NAMES = sorted(INSTANCES)
MODULI = (2, 3)
# every vacant double groupoid of the corpus; s3_matched_pair.json is a
# matched pair, swept through its vacant double groupoid
CORPUS_DOUBLES = ("product_s3_x21", "s3_double", "s3_matched_pair",
                  "union_x22_s3", "x11", "x22", "x23")
# the orbit sweep walks m**|free| gauges: 3**10 and more is left out
SWEPT = [(stem, m) for stem in CORPUS_DOUBLES for m in (2, 3, 4, 6)
         if m == 2 or stem not in ("x23", "product_s3_x21")]
# x23 and product_s3_x21 have 3^10 pairs at m = 3; the oracle compares every
# pair up to this many and an evenly spaced selection beyond it
COMPARED = 1024


# -- oracles ----------------------------------------------------------------------


def oracle_validate(t, cp) -> Report:
    """Every identity by direct loops over the box tables, counting the
    tuples each rule examines."""
    rep = Report("cocycle pair")
    vp, hp, vindex, hindex = t.pair_domains()
    m = cp.modulus
    if m < 1:
        rep.add("domain", (), "modulus must be >= 1")
        return rep
    if len(cp.sigma) != len(vp) or len(cp.tau) != len(hp):
        rep.add("domain", (len(cp.sigma), len(cp.tau)),
                "tables must cover exactly the composable pairs")
        return rep
    if any(not 0 <= v < m for v in cp.sigma) or any(not 0 <= v < m for v in cp.tau):
        rep.add("domain", (), "values must be reduced mod m")
        return rep

    def sig(a, b):
        return cp.sigma[vindex[(a, b)]]

    def tau(a, b):
        return cp.tau[hindex[(a, b)]]

    rep.checked = dict.fromkeys(("sigma-normalization", "tau-normalization",
                                 "sigma-cocycle", "tau-cocycle",
                                 "compatibility"), 0)
    for (a, b) in vp:
        if t.is_vid(a) or t.is_vid(b):
            rep.checked["sigma-normalization"] += 1
            if sig(a, b) != 0:
                rep.add("sigma-normalization", (a, b))
    for (a, b) in hp:
        if t.is_hid(a) or t.is_hid(b):
            rep.checked["tau-normalization"] += 1
            if tau(a, b) != 0:
                rep.add("tau-normalization", (a, b))
    for (a, b) in vp:
        ab = t.vcomp[a][b]
        for c in t.boxes():
            if t.bottom[b] != t.top[c]:
                continue
            rep.checked["sigma-cocycle"] += 1
            lhs = (sig(a, b) + sig(ab, c)) % m
            rhs = (sig(b, c) + sig(a, t.vcomp[b][c])) % m
            if lhs != rhs:
                rep.add("sigma-cocycle", (a, b, c))
    for (a, b) in hp:
        ab = t.hcomp[a][b]
        for c in t.boxes():
            if t.right[b] != t.left[c]:
                continue
            rep.checked["tau-cocycle"] += 1
            lhs = (tau(a, b) + tau(ab, c)) % m
            rhs = (tau(b, c) + tau(a, t.hcomp[b][c])) % m
            if lhs != rhs:
                rep.add("tau-cocycle", (a, b, c))
    for a, b, c, d in t.squares():
        rep.checked["compatibility"] += 1
        lhs = (sig(t.hcomp[a][b], t.hcomp[c][d])
               + tau(t.vcomp[a][c], t.vcomp[b][d])) % m
        rhs = (tau(a, b) + tau(c, d) + sig(a, c) + sig(b, d)) % m
        if lhs != rhs:
            rep.add("compatibility", (a, b, c, d))
    if rep.ok:
        inv = t.inverses
        rep.checked["sigma-symmetry"] = rep.checked["tau-symmetry"] = t.n_boxes
        for a in t.boxes():
            if sig(a, inv.v_inv[a]) != sig(inv.v_inv[a], a):
                raise InternalConsistencyError(f"sigma symmetry broken at box {a}")
            if tau(a, inv.h_inv[a]) != tau(inv.h_inv[a], a):
                raise InternalConsistencyError(f"tau symmetry broken at box {a}")
    return rep


def oracle_constraint_system(t):
    """The constraint rows by direct loops over the box tables."""
    vp, hp, vindex, hindex = t.pair_domains()
    svars = [i for i, (a, b) in enumerate(vp)
             if not (t.is_vid(a) or t.is_vid(b))]
    tvars = [j for j, (a, b) in enumerate(hp)
             if not (t.is_hid(a) or t.is_hid(b))]
    scol = {i: k for k, i in enumerate(svars)}
    tcol = {j: len(svars) + k for k, j in enumerate(tvars)}
    rows = []

    def sv(a, b):
        return scol.get(vindex[(a, b)])

    def tv(a, b):
        return tcol.get(hindex[(a, b)])

    def add_row(terms):
        row = sparse_row((k, c) for k, c in terms if k is not None)
        if row:
            rows.append(row)

    for (a, b) in vp:
        ab = t.vcomp[a][b]
        for c in t.boxes():
            if t.bottom[b] != t.top[c]:
                continue
            add_row(((sv(a, b), 1), (sv(ab, c), 1), (sv(b, c), -1),
                     (sv(a, t.vcomp[b][c]), -1)))
    for (a, b) in hp:
        ab = t.hcomp[a][b]
        for c in t.boxes():
            if t.right[b] != t.left[c]:
                continue
            add_row(((tv(a, b), 1), (tv(ab, c), 1), (tv(b, c), -1),
                     (tv(a, t.hcomp[b][c]), -1)))
    for a, b, c, d in t.squares():
        add_row(((sv(t.hcomp[a][b], t.hcomp[c][d]), 1),
                 (tv(t.vcomp[a][c], t.vcomp[b][d]), 1),
                 (tv(a, b), -1), (tv(c, d), -1), (sv(a, c), -1), (sv(b, d), -1)))
    return rows, len(svars) + len(tvars), svars, tvars


def all_normalized_gauges(t, m):
    """Every gauge function that vanishes on the identity boxes."""
    free = free_boxes(t)
    for values in itertools.product(range(m), repeat=len(free)):
        psi = [0] * t.n_boxes
        for a, v in zip(free, values):
            psi[a] = v
        yield tuple(psi)


def is_gauge_equivalent(t, cp1, cp2):
    """Search all normalized gauge functions; return a witness psi or None."""
    if cp1.modulus != cp2.modulus:
        raise StructureError("moduli differ")
    for psi in all_normalized_gauges(t, cp1.modulus):
        if gauge_transform(t, cp1, psi) == cp2:
            return psi
    return None


def oracle_orbit_count(t, m):
    """Number of gauge orbits on the enumerated pairs, by sweeping each
    orbit with the full normalized gauge group."""
    pairs = list(enumerate_cocycle_pairs(t, m))
    zero = zero_pair(t, m)
    deltas = {gauge_transform(t, zero, psi) for psi in all_normalized_gauges(t, m)}
    index = {cp: k for k, cp in enumerate(pairs)}
    seen = [False] * len(pairs)
    orbits = 0
    for k, cp in enumerate(pairs):
        if seen[k]:
            continue
        orbits += 1
        for delta in deltas:
            moved = CocyclePair(
                m,
                tuple((a + b) % m for a, b in zip(cp.sigma, delta.sigma)),
                tuple((a + b) % m for a, b in zip(cp.tau, delta.tau)))
            assert moved in index, "gauge transform left the set of valid pairs"
            seen[index[moved]] = True
    return orbits


# -- helpers ----------------------------------------------------------------------


def _outcome(validate, t, cp):
    """What a validator says about cp: its report, or the error it raised."""
    try:
        rep = validate(t, cp)
    except InternalConsistencyError as exc:
        return ("raised", str(exc))
    return (rep.failures, rep.checked)


def _assert_same(t, cp):
    """Both routes agree on cp; return what they say."""
    got = _outcome(validate_cocycle_pair, t, cp)
    assert got == _outcome(oracle_validate, t, cp)
    return got


@lru_cache(maxsize=None)
def _solutions(name, m):
    """The compared solutions: every solution up to COMPARED of them, else
    an evenly spaced selection that keeps the first and the last."""
    rows, ncols, _ = _constraint_system(INSTANCES[name])
    count, solutions = solutions_mod_m(rows, ncols, m)
    stride = -(-count // COMPARED)
    keep = set(range(0, count, stride)) | {count - 1}
    return tuple(sol for n, sol in enumerate(solutions) if n in keep)


def _pair_of(t, m, sol):
    """The pair whose free entries are the solution's values, in the
    order of the constraint system's columns."""
    nv = len(t.pair_domains()[0])
    _, ncols, where = _constraint_system(t)
    entries = [sol[k] if k < ncols else 0 for k in where]
    return CocyclePair(m, tuple(entries[:nv]), tuple(entries[nv:]))


@lru_cache(maxsize=None)
def _pairs(name, m):
    """The pairs of the compared solutions; enumerated whole when they are
    all compared."""
    t = INSTANCES[name]
    rows, ncols, _ = _constraint_system(t)
    if solutions_mod_m(rows, ncols, m)[0] <= COMPARED:
        return tuple(enumerate_cocycle_pairs(t, m))
    return tuple(_pair_of(t, m, sol) for sol in _solutions(name, m))


# -- enumerated and corrupted pairs -----------------------------------------------


@pytest.mark.parametrize("m", MODULI)
@pytest.mark.parametrize("name", NAMES)
def test_enumerated_pairs_match_oracle(name, m):
    t = INSTANCES[name]
    pairs = _pairs(name, m)
    assert pairs
    for cp in pairs:
        failures, _ = _assert_same(t, cp)
        assert failures == []


def _single_entry_corruptions(cp):
    """cp with one entry moved by a nonzero shift mod m, for every entry and
    every shift."""
    m = cp.modulus
    for side in ("sigma", "tau"):
        table = getattr(cp, side)
        for i in range(len(table)):
            for shift in range(1, m):
                moved = list(table)
                moved[i] = (moved[i] + shift) % m
                yield CocyclePair(m, **{"sigma": cp.sigma, "tau": cp.tau,
                                        side: tuple(moved)})


@pytest.mark.parametrize("m", MODULI)
@pytest.mark.parametrize("name", NAMES)
def test_single_entry_corruptions_match_oracle(name, m):
    """Every entry of the first and the last compared pair, moved by each
    nonzero shift mod m."""
    t = INSTANCES[name]
    pairs = _pairs(name, m)
    failing = 0
    for cp in dict.fromkeys((pairs[0], pairs[-1])):
        for bad in _single_entry_corruptions(cp):
            failures, _ = _assert_same(t, bad)
            failing += bool(failures)
    assert failing


def _lane(check, k):
    """The top bit of lane k, where the check marks solution k."""
    return 1 << (k + 1) * 8 * check.width - 1


def _single_column_corruptions(sol, m):
    """sol with one value moved by a nonzero shift mod m, for every column
    and every shift (three shifts when m is large)."""
    shifts = range(1, m) if m < 8 else (1, m // 2, m - 1)
    for c in range(len(sol)):
        for shift in shifts:
            yield sol[:c] + ((sol[c] + shift) % m,) + sol[c + 1:]


def _distinct(rows):
    """The distinct rows, each once, in the order of its first occurrence."""
    distinct = []
    for row in rows:
        if row not in distinct:
            distinct.append(row)
    return distinct


def _flag_corruptions(t, m, solutions):
    """Three solutions in a block, one of them corrupted in one column: the
    block check flags that lane, and only it, exactly when the validator
    fails its pair, and as many rule rows fail there as the validator
    reports failing tuples, each distinct one once.  Returns how many
    corruptions failed."""
    system = _constraint_system(t)
    rows = system[0]
    check = _BlockCheck(t, m, system)
    sequence = (solutions[0], solutions[-1], solutions[len(solutions) // 2])
    for sol in sequence:
        assert validate_cocycle_pair(t, _pair_of(t, m, sol)).ok
    failing = 0
    for n in (0, 1):
        top = _lane(check, n)
        for bad in _single_column_corruptions(sequence[n], m):
            block = check.lanes(sequence[:n] + (bad,) + sequence[n + 1:])
            rules, symmetry = check.masks(block)
            failures = validate_cocycle_pair(t, _pair_of(t, m, bad)).failures
            # only the corrupted lane can fail, and it does exactly when
            # the validator fails its pair, on as many rule rows
            assert rules & ~top == 0
            assert bool(rules) == bool(failures)
            # one row of the system fails per failing tuple, and the
            # check evaluates each distinct row once
            failed = [row for row in rows
                      if sum(v * bad[k] for k, v in row.items()) % m]
            assert len(failed) == len(failures)
            columns, _ = check._columns(block)
            assert sum(bool(f & top) for f in check._failing(
                columns, check.rules)) == len(_distinct(failed))
            # a pair that passes every rule passes every symmetry row
            assert not symmetry & ~rules
            failing += bool(failures)
    return failing


@pytest.mark.parametrize("m", MODULI)
@pytest.mark.parametrize("name", NAMES)
def test_residual_sweep_flags_exactly_the_failing_pair(name, m):
    """The first, last and middle compared solutions in one block, the
    first or the second corrupted in one column by each nonzero shift.  x11
    has no free column, so none of its solutions can be corrupted."""
    t = INSTANCES[name]
    failing = _flag_corruptions(t, m, _solutions(name, m))
    assert failing or not _constraint_system(t)[1]


@pytest.mark.parametrize("m", MODULI)
@pytest.mark.parametrize("name", NAMES)
def test_block_check_rules_are_the_distinct_system_rows(name, m):
    """The check compiles its rules from the constraint system: each
    distinct row once, in the order of its first occurrence, with every
    column repeated as often as its coefficient."""
    t = INSTANCES[name]
    system = _constraint_system(t)
    rules = [sparse_row([(c, 1) for c in pos] + [(c, -1) for c in neg])
             for _, pos, neg, _ in _BlockCheck(t, m, system).rules]
    assert rules == _distinct(system[0])


# 1, where every value is 0; composite 4 and 6; and two moduli whose lanes
# take more than a byte, where the prefixes below reach the value m - 1.
# The lanes do not depend on the instance, so the four with fewer columns
# are enough.
EDGE_MODULI = (1, 4, 6, 257, 2 ** 70)
EDGE_NAMES = ("s3_matched_pair", "union_x22_s3", "x11", "x22")


@pytest.mark.parametrize("m", EDGE_MODULI)
@pytest.mark.parametrize("name", EDGE_NAMES)
def test_block_check_at_edge_moduli(name, m):
    """A prefix of the solutions that spans more than two blocks: the walk
    passes it (in tuple order, whatever the width of a lane), the validator
    passes each of its pairs, and corruptions are flagged as at m = 2, 3."""
    t = INSTANCES[name]
    system = _constraint_system(t)
    rows, ncols, _ = system
    prefix = tuple(itertools.islice(solutions_mod_m(rows, ncols, m)[1],
                                    2 * _BLOCK + 1))
    check = _BlockCheck(t, m, system)
    assert check.walk(prefix) == len(prefix)
    for sol in prefix:
        assert validate_cocycle_pair(t, _pair_of(t, m, sol)).ok
    failing = _flag_corruptions(t, m, prefix)
    assert failing or m == 1 or not ncols
    if m >= 256:
        assert check.width > 1


@pytest.mark.parametrize("name", NAMES)
def test_domain_failures_match_oracle(name):
    t = INSTANCES[name]
    cp = _pairs(name, 2)[-1]
    for bad in (CocyclePair(0, cp.sigma, cp.tau),
                CocyclePair(2, cp.sigma[1:], cp.tau),
                CocyclePair(2, cp.sigma, cp.tau + (0,)),
                CocyclePair(2, (2,) + cp.sigma[1:], cp.tau),
                CocyclePair(2, cp.sigma, (-1,) + cp.tau[1:])):
        failures, checked = _assert_same(t, bad)
        assert [f.rule for f in failures] == ["domain"] and checked == {}
    # the block check mod 2 fails solutions of the wrong size, and values
    # of m or more (within a lane or past it) or below 0
    sol = _solutions(name, 2)[-1]
    check = _BlockCheck(t, 2, _constraint_system(t))
    for bad in (sol[1:], sol + (0,))[not sol:]:
        with pytest.raises(InternalConsistencyError,
                           match=f"the solver's pair 1 has {len(bad)} values "
                                 f"for {len(sol)} columns"):
            check.walk([sol, bad])
    for k in range(len(sol))[:3]:
        for v in (2, 127, 128, 255, 256, -1):
            bad = sol[:k] + (v,) + sol[k + 1:]
            with pytest.raises(InternalConsistencyError,
                               match="solver produced an invalid pair: domain"):
                check.walk([bad])
    assert check.walk([sol]) == 1


@st.composite
def sparse_tables(draw):
    """An instance, a modulus, and a pair that is zero or an enumerated pair
    off a few drawn entries."""
    name = draw(st.sampled_from(NAMES))
    m = draw(st.sampled_from((1, 2, 3, 4, 6)))
    t = INSTANCES[name]
    base = (draw(st.sampled_from(_pairs(name, m))) if m in MODULI and draw(st.booleans())
            else zero_pair(t, m))
    sigma, tau = list(base.sigma), list(base.tau)
    for table in (sigma, tau):
        entries = draw(st.dictionaries(st.integers(0, len(table) - 1),
                                       st.integers(0, m - 1), max_size=4))
        for i, v in entries.items():
            table[i] = v
    return t, CocyclePair(m, tuple(sigma), tuple(tau))


@settings(max_examples=150, deadline=None)
@given(sparse_tables())
def test_drawn_sparse_tables_match_oracle(drawn):
    t, cp = drawn
    _assert_same(t, cp)


@pytest.mark.parametrize("side", ("sigma", "tau"))
def test_symmetry_check_raises_on_a_broken_table(side):
    """The symmetry consequences stay checked: with one side's identities
    emptied from the table, a pair breaking its symmetry passes them, and
    the validator and the block check raise the same error."""
    t = build_Xrs(2, 2)
    ids = t.cocycle_identities()
    _, i, _ = next(s for s in getattr(ids, f"{side}_symmetry") if s[1] != s[2])
    cp = zero_pair(t, 2)
    table = list(getattr(cp, side))
    table[i] = 1
    cp = CocyclePair(cp.modulus, **{"sigma": cp.sigma, "tau": cp.tau,
                                    side: tuple(table)})
    t._identities = CocycleIdentities(**{**vars(ids), f"{side}_normalization": (),
                                         f"{side}_cocycle": (), "compatibility": ()})
    with pytest.raises(InternalConsistencyError,
                       match=f"{side} symmetry") as raised:
        validate_cocycle_pair(t, cp)
    system = _constraint_system(t)
    _, ncols, where = system
    entries = cp.sigma + cp.tau
    sol = tuple(entries[where.index(k)] for k in range(ncols))
    with pytest.raises(InternalConsistencyError, match=str(raised.value)):
        _BlockCheck(t, 2, system).walk([sol])


# -- constraint rows and solutions ------------------------------------------------


@pytest.mark.parametrize("m", MODULI)
@pytest.mark.parametrize("name", NAMES)
def test_constraint_system_matches_oracle(name, m):
    """The rows are integral and serve every modulus; at each m they vanish
    on the free entries of every unit gauge's coboundary."""
    t = INSTANCES[name]
    rows, ncols, where = _constraint_system(t)
    want_rows, want_ncols, svars, tvars = oracle_constraint_system(t)
    assert (rows, ncols) == (want_rows, want_ncols)
    assert [list(row) for row in rows] == [list(row) for row in want_rows]
    # the column of each sigma entry, then of each tau entry, as the
    # oracle numbers them; ncols where normalization forces the entry
    vp, hp, _, _ = t.pair_domains()
    assert len(where) == len(vp) + len(hp)
    for i in range(len(vp)):
        assert where[i] == (svars.index(i) if i in svars else ncols)
    for j in range(len(hp)):
        assert where[len(vp) + j] == (len(svars) + tvars.index(j)
                                      if j in tvars else ncols)
    for moved in _unit_gauge_moves(t, m):
        x = [moved.sigma[i] for i in svars] + [moved.tau[j] for j in tvars]
        assert all(sum(v * x[k] for k, v in row.items()) % m == 0 for row in rows)


@pytest.mark.parametrize("m", MODULI)
@pytest.mark.parametrize("name", NAMES)
def test_solutions_match_oracle(name, m):
    """The solver's first COMPARED solutions, or all of them if fewer, solve
    the system and strictly increase, and its count is the one the Smith
    diagonal d_k gives, m**(ncols - r) times the product of gcd(d_k, m).
    Where they are all, that is the solution set: that many distinct
    solutions leave none out."""
    rows, ncols, _ = _constraint_system(INSTANCES[name])
    count, solutions = solutions_mod_m(rows, ncols, m)
    first = list(itertools.islice(solutions, COMPARED))
    assert len(first) == min(count, COMPARED)
    assert all(a < b for a, b in zip(first, first[1:]))
    assert all(sum(v * x[k] for k, v in row.items()) % m == 0
               for x in first for row in rows)
    diag = smith_diagonal(rows, ncols)
    assert count == m ** (ncols - len(diag)) * prod(gcd(d, m) for d in diag)


# -- gauge classes ----------------------------------------------------------------


def _corpus_double(stem):
    doc = dio.load_path(CORPUS / f"{stem}.json")
    return (to_vacant_double(doc.payload) if doc.kind == "matched_pair"
            else doc.payload)


def _unit_gauge_moves(t, m):
    """For each free box, the pair its unit gauge adds, mod m."""
    zero = zero_pair(t, m)
    out = []
    for a in free_boxes(t):
        psi = [0] * t.n_boxes
        psi[a] = 1
        out.append(gauge_transform(t, zero, psi))
    return out


def _primary_parts(orders):
    """The prime-power orders of the cyclic primary factors of the group
    that is the sum of Z/d over ``orders``, sorted."""
    parts = []
    for d in orders:
        p = 2
        while d > 1:
            q = 1
            while d % p == 0:
                d, q = d // p, q * p
            if q > 1:
                parts.append(q)
            p += 1
    return sorted(parts)


@pytest.mark.parametrize("stem,m", SWEPT)
def test_count_modulo_gauge_matches_orbit_sweep(stem, m):
    t = _corpus_double(stem)
    assert count_modulo_gauge(t, m) == oracle_orbit_count(t, m)


@pytest.mark.parametrize("m", (2, 3, 4, 6))
@pytest.mark.parametrize("name", NAMES)
def test_gauge_kernel_is_aut_and_classes_are_opext(name, m):
    """ker G is H^0(Tot A; Z/m) as a group, and the classes number
    |H^1(Tot A; Z/m)|.  G is rebuilt here from ``gauge_transform`` on the
    unit gauges; its kernel over Z/m is the sum of Z/gcd(d_k, m) over the
    Smith diagonal, with d_k = 0 past the diagonal's end."""
    t = INSTANCES[name]
    vp, hp, _, _ = t.pair_domains()
    columns = [sparse_row(enumerate(cp.sigma + cp.tau))
               for cp in _unit_gauge_moves(t, m)]
    nfree = len(columns)
    diag = smith_diagonal(transpose(columns, len(vp) + len(hp)), nfree)
    diag += [0] * (nfree - len(diag))
    aut, opext = aut_and_opext(t, m)
    assert (_primary_parts(gcd(d, m) for d in diag)
            == _primary_parts(aut.divisors))
    assert count_modulo_gauge(t, m) == opext.order()


# -- index arrays, the gauge map and A G = 0 --------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_pair_index_is_the_sorted_pair_list(name):
    """``pair_domains`` maps each composable pair to its place in the sorted
    list, through two index arrays; any other pair, or a box out of range,
    has no index."""
    t = INSTANCES[name]
    vp, hp, vindex, hindex = t.pair_domains()
    for pairs, index in ((vp, vindex), (hp, hindex)):
        places = {pq: i for i, pq in enumerate(pairs)}
        for a, b in itertools.product(range(-1, t.n_boxes + 1), repeat=2):
            assert index.get((a, b)) == places.get((a, b))
            if (a, b) not in places:
                with pytest.raises(KeyError):
                    index[a, b]
        assert [index[pq] for pq in pairs] == list(range(len(pairs)))


def _unit_gauge_matrix(t, where, ncols):
    """G from :func:`gauge_delta` of each free box's unit gauge, one column
    a box, transposed; the first box whose gauge moves a forced entry
    raises."""
    cols = []
    for a in free_boxes(t):
        psi = [0] * t.n_boxes
        psi[a] = 1
        delta = list(itertools.chain(*gauge_delta(t, psi)))
        if any(d for k, d in zip(where, delta) if k == ncols):
            raise InternalConsistencyError(
                f"the unit gauge on box {a} moves a normalized entry")
        cols.append(sparse_row((k, d) for k, d in zip(where, delta)
                               if k < ncols))
    return transpose(cols, ncols)


@pytest.mark.parametrize("name", NAMES)
def test_gauge_matrix_is_made_of_the_unit_gauges(name):
    """G, read entry by entry, is the transpose of the unit gauges' deltas,
    row for row and key for key; with a free entry marked forced, both
    routes name the same box that moves it."""
    t = INSTANCES[name]
    rows, ncols, where = _constraint_system(t)
    gauge = _gauge_matrix(t, where, ncols)
    want = _unit_gauge_matrix(t, where, ncols)
    assert [list(row.items()) for row in gauge] == [
        list(row.items()) for row in want]
    assert _vanishes(rows, gauge)
    for e in range(len(where))[::7]:
        if where[e] == ncols:
            continue
        forced = list(where)
        forced[e] = ncols
        try:
            _unit_gauge_matrix(t, forced, ncols)
        except InternalConsistencyError as exc:
            with pytest.raises(InternalConsistencyError, match=str(exc)):
                _gauge_matrix(t, forced, ncols)
        else:
            _gauge_matrix(t, forced, ncols)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_vanishing_is_a_zero_product(nrows, ncols, nfree, data):
    """A G = 0 by packed lanes exactly when the sparse product is zero, on
    drawn matrices with few nonzero entries, and on pairs made to vanish:
    G's columns drawn in the kernel of one row repeated."""
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 7))
    a = [sparse_row(enumerate(data.draw(st.lists(entry, min_size=ncols,
                                                 max_size=ncols))))
         for _ in range(nrows)]
    g = [sparse_row(enumerate(data.draw(st.lists(entry, min_size=nfree,
                                                 max_size=nfree))))
         for _ in range(ncols)]
    assert _vanishes(a, g) == is_zero_matrix(matmul(a, g))
    if ncols >= 2 and nfree:
        # (1, -1, 0, ...) and G with equal first two rows
        g[1] = dict(g[0])
        row = {0: 1, 1: -1}
        assert _vanishes([row] * nrows, g) == is_zero_matrix(
            matmul([row] * nrows, g)) is True


def test_a_gauge_map_off_the_cocycles_raises(monkeypatch):
    """A gauge map with one entry moved no longer vanishes on the system,
    and counting classes raises."""
    t = INSTANCES["x22"]
    real = cocycles._gauge_matrix

    def moved(t, where, ncols):
        gauge = real(t, where, ncols)
        row = next(row for row in gauge if row)
        row[min(row)] += 1
        return gauge
    monkeypatch.setattr(cocycles, "_gauge_matrix", moved)
    with pytest.raises(InternalConsistencyError,
                       match="a gauge coboundary fails the cocycle system"):
        count_modulo_gauge(t, 2)
