"""The compiled cocycle identities of ``dgq`` against loop-based oracles.

``validate_cocycle_pair`` and ``_constraint_system`` read the identities from
``DoubleGroupoid.cocycle_identities``, a table of pair indices built once per
double groupoid, and ``solutions_mod_m`` reads only the columns of its
transform whose coordinate can be nonzero.  The oracles below are the loops
those routines replaced: they walk the box tables directly, look every term
up by its box pair, and rebuild each solution from the whole transform.  On
enumerated pairs, on corrupted pairs and on drawn tables alike, both routes
must report the same failures (rule, witness and order), raise the same
``InternalConsistencyError``, count the same tuples and emit the same rows.
"""

import itertools
from dataclasses import replace
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgq.cocycles import (CocyclePair, _constraint_system,
                          enumerate_cocycle_pairs, validate_cocycle_pair,
                          zero_pair)
from dgq.double import build_Xrs
from dgq.errors import InternalConsistencyError, Report
from dgq.linalg import smith_with_transform, solutions_mod_m, sparse_row
from dgq.samples import vacant_corpus

INSTANCES = vacant_corpus()
NAMES = sorted(INSTANCES)
MODULI = (2, 3)
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


def oracle_constraint_system(t, m):
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


def oracle_solutions(rows, ncols, m):
    """Every solution x = T y in turn, summed over the whole transform."""
    diag, t = smith_with_transform(rows, ncols)
    steps = []
    for k in range(ncols):
        g = gcd((diag[k] if k < len(diag) else 0) % m, m)
        steps.append([(m // g) * i for i in range(g)] if m > 1 else [0])
    for y in itertools.product(*steps):
        yield tuple(sum(t[i][k] * y[k] for k in range(ncols)) % m
                    for i in range(ncols))


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
def _pairs(name, m):
    """The compared pairs: every enumerated pair up to COMPARED of them, else
    an evenly spaced selection that keeps the first and the last."""
    t = INSTANCES[name]
    rows, ncols, svars, tvars = _constraint_system(t, m)
    count, solutions = solutions_mod_m(rows, ncols, m)
    if count <= COMPARED:
        return tuple(enumerate_cocycle_pairs(t, m))
    stride = -(-count // COMPARED)
    keep = set(range(0, count, stride)) | {count - 1}
    vp, hp, _, _ = t.pair_domains()
    out = []
    for n, sol in enumerate(solutions):
        if n in keep:
            sigma, tau = [0] * len(vp), [0] * len(hp)
            for k, i in enumerate(svars):
                sigma[i] = sol[k]
            for k, j in enumerate(tvars):
                tau[j] = sol[len(svars) + k]
            out.append(CocyclePair(m, tuple(sigma), tuple(tau)))
    return tuple(out)


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


@pytest.mark.parametrize("m", MODULI)
@pytest.mark.parametrize("name", NAMES)
def test_single_entry_corruptions_match_oracle(name, m):
    """Every entry of the first and the last compared pair, moved by each
    nonzero shift mod m."""
    t = INSTANCES[name]
    pairs = _pairs(name, m)
    failing = 0
    for cp in dict.fromkeys((pairs[0], pairs[-1])):
        for side in ("sigma", "tau"):
            table = getattr(cp, side)
            for i in range(len(table)):
                for shift in range(1, m):
                    moved = list(table)
                    moved[i] = (moved[i] + shift) % m
                    bad = replace(cp, **{side: tuple(moved)})
                    failures, _ = _assert_same(t, bad)
                    failing += bool(failures)
    assert failing


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
    emptied from the table, a pair breaking its symmetry passes them and the
    validator raises."""
    t = build_Xrs(2, 2)
    ids = t.cocycle_identities()
    _, i, _ = next(s for s in getattr(ids, f"{side}_symmetry") if s[1] != s[2])
    cp = zero_pair(t, 2)
    table = list(getattr(cp, side))
    table[i] = 1
    cp = replace(cp, **{side: tuple(table)})
    t._identities = replace(ids, **{f"{side}_normalization": (),
                                    f"{side}_cocycle": (), "compatibility": ()})
    with pytest.raises(InternalConsistencyError, match=f"{side} symmetry"):
        validate_cocycle_pair(t, cp)


# -- constraint rows and solutions ------------------------------------------------


@pytest.mark.parametrize("m", MODULI)
@pytest.mark.parametrize("name", NAMES)
def test_constraint_system_matches_oracle(name, m):
    t = INSTANCES[name]
    got = _constraint_system(t, m)
    want = oracle_constraint_system(t, m)
    assert got == want
    assert [list(row) for row in got[0]] == [list(row) for row in want[0]]


@pytest.mark.parametrize("m", MODULI)
@pytest.mark.parametrize("name", NAMES)
def test_solutions_match_oracle(name, m):
    """The first COMPARED solutions, in order."""
    rows, ncols, _, _ = _constraint_system(INSTANCES[name], m)
    _, solutions = solutions_mod_m(rows, ncols, m)
    assert (list(itertools.islice(solutions, COMPARED))
            == list(itertools.islice(oracle_solutions(rows, ncols, m), COMPARED)))
