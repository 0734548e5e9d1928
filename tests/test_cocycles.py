import itertools

import pytest
from fractions import Fraction

from dgq.cocycles import (CocyclePair, count_modulo_gauge, embed_in_field,
                          enumerate_cocycle_pairs, gauge_transform,
                          identity_boxes, validate_cocycle_pair, zero_pair)
from dgq.double import build_Xrs
from dgq import cocycles, linalg
from dgq.errors import (InternalConsistencyError, ResourceBudgetError,
                        StructureError, UnembeddableError)
from dgq.fields import RATIONALS, FieldSpec
from dgq.samples import s3_double
from packing import Packed
from test_cocycles_oracle import all_normalized_gauges, is_gauge_equivalent


def brute_force_pairs(t, m):
    """Oracle: filter the full function space on the free entries through the
    validator.  Only usable when the space is tiny."""
    vp, hp, _, _ = t.pair_domains()
    svars = [i for i, (a, b) in enumerate(vp)
             if not (t.is_vid(a) or t.is_vid(b))]
    tvars = [j for j, (a, b) in enumerate(hp)
             if not (t.is_hid(a) or t.is_hid(b))]
    found = []
    for svals in itertools.product(range(m), repeat=len(svars)):
        sigma = [0] * len(vp)
        for i, v in zip(svars, svals):
            sigma[i] = v
        for tvals in itertools.product(range(m), repeat=len(tvars)):
            tau = [0] * len(hp)
            for j, v in zip(tvars, tvals):
                tau[j] = v
            cp = CocyclePair(m, tuple(sigma), tuple(tau))
            if validate_cocycle_pair(t, cp).ok:
                found.append(cp)
    return sorted(found, key=lambda c: (c.sigma, c.tau))


def test_zero_pair_valid_everywhere(corpus):
    for t in corpus.values():
        assert validate_cocycle_pair(t, zero_pair(t, 2)).ok


def test_enumeration_matches_brute_force_on_s3():
    t = s3_double()
    assert list(enumerate_cocycle_pairs(t, 2)) == brute_force_pairs(t, 2)


def test_enumeration_matches_brute_force_on_x22_m2():
    t = build_Xrs(2, 2)
    assert list(enumerate_cocycle_pairs(t, 2)) == brute_force_pairs(t, 2)


def test_modulus_one_single_pair(vacant_corpus):
    for t in vacant_corpus.values():
        assert list(enumerate_cocycle_pairs(t, 1)) == [zero_pair(t, 1)]


def test_one_box_instance_single_pair():
    t = build_Xrs(1, 1)
    assert list(enumerate_cocycle_pairs(t, 5)) == [zero_pair(t, 5)]


def test_normalization_violation_reported():
    t = s3_double()
    vp, hp, _, _ = t.pair_domains()
    idx = next(i for i, (a, b) in enumerate(vp) if t.is_vid(a))
    sigma = [0] * len(vp)
    sigma[idx] = 1
    cp = CocyclePair(2, tuple(sigma), (0,) * len(hp))
    rep = validate_cocycle_pair(t, cp)
    assert any(f.rule == "sigma-normalization" for f in rep.failures)


def test_wrong_domain_reported():
    t = s3_double()
    cp = CocyclePair(2, (0,), (0,))
    rep = validate_cocycle_pair(t, cp)
    assert any(f.rule == "domain" for f in rep.failures)


# -- gauge action --------------------------------------------------------------


def test_zero_gauge_is_identity():
    t = s3_double()
    for cp in enumerate_cocycle_pairs(t, 2):
        assert gauge_transform(t, cp, (0,) * t.n_boxes) == cp


def test_gauge_inverse_action():
    t = s3_double()
    m = 3
    cp = list(enumerate_cocycle_pairs(t, m))[-1]
    for psi in all_normalized_gauges(t, m):
        neg = tuple((-v) % m for v in psi)
        assert gauge_transform(t, gauge_transform(t, cp, psi), neg) == cp


def test_gauge_preserves_validity():
    t = build_Xrs(2, 2)
    for cp in enumerate_cocycle_pairs(t, 2):
        for psi in all_normalized_gauges(t, 2):
            assert validate_cocycle_pair(t, gauge_transform(t, cp, psi)).ok


def test_unnormalized_gauge_rejected():
    t = s3_double()
    psi = [0] * t.n_boxes
    psi[identity_boxes(t)[0]] = 1
    with pytest.raises(StructureError):
        gauge_transform(t, zero_pair(t, 2), psi)


def test_x22_all_pairs_gauge_trivial():
    # Opext at m = 2 is trivial here: every valid pair is equivalent to zero
    t = build_Xrs(2, 2)
    zero = zero_pair(t, 2)
    for cp in enumerate_cocycle_pairs(t, 2):
        assert is_gauge_equivalent(t, cp, zero) is not None
    assert count_modulo_gauge(t, 2) == 1


def test_s3_m3_has_nontrivial_class():
    t = s3_double()
    zero = zero_pair(t, 3)
    classes = count_modulo_gauge(t, 3)
    assert classes == 3
    nontrivial = [cp for cp in enumerate_cocycle_pairs(t, 3)
                  if is_gauge_equivalent(t, cp, zero) is None]
    assert nontrivial


def test_budget_guard():
    t = build_Xrs(2, 3)
    with pytest.raises(ResourceBudgetError):
        enumerate_cocycle_pairs(t, 2, budget=1)


def _solver_that(change):
    """``solutions_mod_m`` with its solutions, as a list of tuples, passed
    through ``change`` and packed into blocks; the count it gives is the
    true one."""
    real = cocycles.solutions_mod_m

    def solver(rows, ncols, m):
        count, solutions = real(rows, ncols, m)
        return count, Packed(change(list(solutions)), ncols, m)
    return solver


def test_repeated_solutions_raise(monkeypatch):
    # a solver that repeats a solution must not shrink the list silently
    def repeat(solutions):
        solutions[-1] = solutions[0]
        return solutions

    monkeypatch.setattr(cocycles, "solutions_mod_m", _solver_that(repeat))
    with pytest.raises(InternalConsistencyError, match="repeats"):
        enumerate_cocycle_pairs(build_Xrs(2, 2), 2)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_an_invalid_solution_in_order_raises(monkeypatch, where):
    # solution tuples and their pairs sort alike, so a solution moved in one
    # value to another tuple strictly between its neighbours keeps the order
    t, m = build_Xrs(2, 2), 3
    rows, ncols, _ = cocycles._constraint_system(t)
    solutions = list(cocycles.solutions_mod_m(rows, ncols, m)[1])
    n = {"first": 0, "middle": len(solutions) // 2,
         "last": len(solutions) - 1}[where]
    bad = _moved_in_order(t, m, solutions, n)

    def corrupt(solutions):
        solutions[n] = bad
        return solutions

    monkeypatch.setattr(cocycles, "solutions_mod_m", _solver_that(corrupt))
    with pytest.raises(InternalConsistencyError,
                       match="solver produced an invalid pair"):
        enumerate_cocycle_pairs(t, m)


def test_a_dropped_solution_raises(monkeypatch):
    def drop(solutions):
        del solutions[len(solutions) // 2]
        return solutions

    monkeypatch.setattr(cocycles, "solutions_mod_m", _solver_that(drop))
    with pytest.raises(InternalConsistencyError,
                       match="the solver gave 26 pairs for 27 solutions"):
        enumerate_cocycle_pairs(build_Xrs(2, 2), 3)


def test_a_sweep_that_disagrees_with_the_validator_raises(monkeypatch):
    # a block check that fails every lane, on pairs the validator passes
    monkeypatch.setattr(cocycles._BlockCheck, "masks",
                        lambda self, block: (self.high, 0))
    with pytest.raises(InternalConsistencyError,
                       match="the block check fails pair 0, which "
                             "validate_cocycle_pair passes"):
        enumerate_cocycle_pairs(build_Xrs(2, 2), 2)


def _moved_in_order(t, m, solutions, n):
    """Solution n moved in one value to a tuple strictly between its
    neighbours whose pair the validator fails."""
    system = cocycles._constraint_system(t)
    low = solutions[n - 1] if n else ()
    high = solutions[n + 1] if n + 1 < len(solutions) else (m,)
    moved = (solutions[n][:k] + (v,) + solutions[n][k + 1:]
             for k in range(system[1]) for v in range(m))
    return next(x for x in moved if low < x < high and not validate_cocycle_pair(
        t, next(cocycles._pairs(t, m, system, [x]))).ok)


@pytest.mark.parametrize("fault", ["invalid", "repeat"])
def test_pairs_are_counted_across_the_block_boundary(monkeypatch, fault):
    # x23 = X_{2,3} has 1,024 pairs mod 2, so solution _BLOCK is the first
    # of the second block; the validator is made to pass it, so the error
    # names the pair
    t, m, n = build_Xrs(2, 3), 2, cocycles._BLOCK
    rows, ncols, _ = cocycles._constraint_system(t)
    solutions = list(cocycles.solutions_mod_m(rows, ncols, m)[1])
    bad = (_moved_in_order(t, m, solutions, n) if fault == "invalid"
           else solutions[n - 1])

    def corrupt(solutions):
        solutions[n] = bad
        return solutions

    monkeypatch.setattr(cocycles, "solutions_mod_m", _solver_that(corrupt))
    monkeypatch.setattr(cocycles, "validate_cocycle_pair",
                        lambda t, cp: validate_cocycle_pair(t, zero_pair(t, m)))
    with pytest.raises(InternalConsistencyError,
                       match=f"the block check fails pair {n}, which" if
                       fault == "invalid" else f"the solver's pair {n} repeats"):
        enumerate_cocycle_pairs(t, m)


def test_the_earliest_offending_pair_is_reported(monkeypatch):
    # in one block an invalid pair comes before a pair out of order, and a
    # later pair is both: the first is reported; at one pair, the order
    t, m = build_Xrs(2, 2), 3
    rows, ncols, _ = cocycles._constraint_system(t)
    solutions = list(cocycles.solutions_mod_m(rows, ncols, m)[1])
    invalid = _moved_in_order(t, m, solutions, 3)

    def corrupt(changes):
        def change(solutions):
            for n, sol in changes.items():
                solutions[n] = sol
            return solutions
        return _solver_that(change)

    first_invalid = corrupt({3: invalid, 10: solutions[9]})
    monkeypatch.setattr(cocycles, "solutions_mod_m", first_invalid)
    with pytest.raises(InternalConsistencyError,
                       match="solver produced an invalid pair"):
        enumerate_cocycle_pairs(t, m)
    # solution 3, invalid and before solution 2, breaks the order first
    both = corrupt({3: invalid, 2: solutions[4]})
    monkeypatch.setattr(cocycles, "solutions_mod_m", both)
    with pytest.raises(InternalConsistencyError,
                       match="the solver's pair 3 repeats or precedes"):
        enumerate_cocycle_pairs(t, m)


class _ByteBlocks:
    """Solutions handed over as the solver's byte blocks, edited first."""

    def __init__(self, blocks):
        self.list = blocks

    def blocks(self, size):
        return iter(self.list)


@pytest.mark.parametrize("fault", ["swap", "width"])
def test_byte_blocks_are_checked_for_order_and_size(fault):
    # x23 = X_{2,3} mod 2 comes in 32 byte blocks of 32 solutions; two
    # solutions swapped in block 3, or block 2 read with one more value a
    # solution, are reported at the pair where the fault shows
    t = build_Xrs(2, 3)
    system = cocycles._constraint_system(t)
    rows, ncols, _ = system
    blocks = list(cocycles.solutions_mod_m(rows, ncols, 2)[1].blocks(32))
    assert all(type(b) is linalg._Block for b in blocks) and len(blocks) == 32
    if fault == "swap":
        values = blocks[3].values
        sols = [values[i:i + ncols] for i in range(0, len(values), ncols)]
        sols[5], sols[6] = sols[6], sols[5]
        blocks[3] = linalg._Block(b"".join(sols), ncols, 1, 32)
        match = f"the solver's pair {3 * 32 + 6} repeats or precedes"
    else:
        blocks[2] = linalg._Block(blocks[2].values, ncols + 1, 1, 32)
        match = (f"the solver's pair {2 * 32} has {ncols + 1} values for "
                 f"{ncols} columns")
    check = cocycles._BlockCheck(t, 2, system)
    with pytest.raises(InternalConsistencyError, match=match):
        check.walk(_ByteBlocks(blocks))


def test_the_order_check_starts_from_no_previous_pair():
    # x11 has no free column: its one solution packs to no bytes, which no
    # previous pair precedes, and a second one repeats it
    t = build_Xrs(1, 1)
    for m in (1, 2, 2 ** 70):
        system = cocycles._constraint_system(t)
        assert system[1] == 0
        check = cocycles._BlockCheck(t, m, system)
        assert check.walk(Packed([()], 0, m)) == 1
        with pytest.raises(InternalConsistencyError,
                           match="the solver's pair 1 repeats"):
            check.walk(Packed([(), ()], 0, m))
        assert list(enumerate_cocycle_pairs(t, m)) == [zero_pair(t, m)]


def test_a_wide_modulus_on_a_small_instance():
    # X_{1,3} has 12 free columns and only the zero pair at every m; past
    # 255 its lanes take two bytes, and past 2**63 nine or more
    t = build_Xrs(1, 3)
    for m in (257, 65537, 2 ** 70):
        system = cocycles._constraint_system(t)
        assert system[1] == 12
        assert cocycles._BlockCheck(t, m, system).width > 1
        assert list(enumerate_cocycle_pairs(t, m, budget=1)) == [zero_pair(t, m)]


# -- field embedding -------------------------------------------------------------


def test_embed_m2_p3():
    t = s3_double()
    fs = FieldSpec(3, 2, 2)
    cp = list(enumerate_cocycle_pairs(t, 2))[-1]
    sigma_hat, tau_hat = embed_in_field(t, cp, fs)
    assert set(sigma_hat.values()) <= {1, 2}
    assert set(tau_hat.values()) <= {1, 2}


def test_embed_m1_constant_one(vacant_corpus):
    for t in vacant_corpus.values():
        sigma_hat, tau_hat = embed_in_field(t, zero_pair(t, 1), FieldSpec(0))
        assert set(sigma_hat.values()) <= {Fraction(1)}
        assert set(tau_hat.values()) <= {Fraction(1)}


def test_embed_m3_p7_multiplicative_identities():
    t = s3_double()
    fs = FieldSpec(7, 3, 2)      # 2 has order 3 mod 7
    assert pow(2, 3, 7) == 1 and pow(2, 1, 7) != 1 and pow(2, 2, 7) != 1
    cp = list(enumerate_cocycle_pairs(t, 3))[-1]
    sigma_hat, tau_hat = embed_in_field(t, cp, fs)
    # re-verify the multiplicative cocycle identity in the field
    for (a, b) in t.pair_domains()[0]:
        ab = t.vcomp[a][b]
        for c in t.boxes():
            if t.bottom[b] != t.top[c]:
                continue
            lhs = sigma_hat[(a, b)] * sigma_hat[(ab, c)] % 7
            rhs = sigma_hat[(b, c)] * sigma_hat[(a, t.vcomp[b][c])] % 7
            assert lhs == rhs
    for a, b, c, d in t.squares():
        lhs = (sigma_hat[(t.hcomp[a][b], t.hcomp[c][d])]
               * tau_hat[(t.vcomp[a][c], t.vcomp[b][d])]) % 7
        rhs = (tau_hat[(a, b)] * tau_hat[(c, d)]
               * sigma_hat[(a, c)] * sigma_hat[(b, d)]) % 7
        assert lhs == rhs


def test_embed_modulus_mismatch_rejected():
    t = s3_double()
    with pytest.raises(UnembeddableError):
        embed_in_field(t, zero_pair(t, 2), FieldSpec(3))
    with pytest.raises(UnembeddableError):
        FieldSpec(3, 3, 1)       # 3 does not divide 3 - 1
    with pytest.raises(UnembeddableError):
        FieldSpec(0, 3)          # no rational root of unity of order 3


def test_field_spec_picks_and_normalizes_zeta():
    assert FieldSpec(3, 2).zeta == 2
    assert FieldSpec(7, 3).zeta == 2
    assert FieldSpec(7, 6).zeta == 3
    assert FieldSpec(0, 2).zeta == -1
    assert FieldSpec(0, 2, Fraction(-1)) == FieldSpec(0, 2)
    assert type(FieldSpec(0, 2, Fraction(-1)).zeta) is int
    with pytest.raises(UnembeddableError):
        FieldSpec(0, 2, Fraction(1, 2))  # no order at all in Q


def test_rational_scalars_are_ints_when_integral():
    qq = FieldSpec(0, 2)
    assert type(qq.zero) is int and type(qq.one) is int
    assert [qq.embed_exponent(k) for k in range(3)] == [1, -1, 1]
    assert all(type(qq.embed_exponent(k)) is int for k in range(3))
    assert type(qq.inv(-1)) is int and qq.inv(-1) == -1
    assert qq.inv(2) == Fraction(1, 2)
    assert qq.mul(qq.inv(2), 2) == qq.one


@pytest.mark.parametrize("p", (2, 3, 7))
def test_field_inverse_refuses_every_multiple_of_p(p):
    fs = FieldSpec(p)
    for a in range(1, 2 * p):
        if a % p:
            assert fs.mul(fs.inv(a), a) == fs.one
    for a in (0, p, -p, 2 * p):
        with pytest.raises(ZeroDivisionError):
            fs.inv(a)
    with pytest.raises(ZeroDivisionError):
        FieldSpec(0).inv(0)


def test_rational_inverse_of_a_unit_is_the_same_int():
    assert RATIONALS.inv(-1) == -1 and type(RATIONALS.inv(-1)) is int
    assert RATIONALS.inv(1) == 1 and type(RATIONALS.inv(1)) is int
    assert RATIONALS.inv(2) == Fraction(1, 2)
    assert RATIONALS.inv(Fraction(-1)) == -1
    assert type(RATIONALS.inv(Fraction(-1))) is int
    with pytest.raises(ZeroDivisionError):
        RATIONALS.inv(0)
