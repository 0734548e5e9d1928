"""The designated root of unity of a field, against the scan it replaced."""

import time
from fractions import Fraction

import pytest
from sympy import n_order

from dgq.errors import UnembeddableError
from dgq.fields import FieldSpec, _is_prime, smallest_root

MERSENNE = 2 ** 61 - 1


def _scanned_root(p, m):
    """The smallest z in 1..p-1 of exact order m, by trying every z and
    every d < m; None if there is none."""
    return next((z for z in range(1, p)
                 if pow(z, m, p) == 1
                 and all(pow(z, d, p) != 1 for d in range(1, m))), None)


def test_default_zeta_matches_the_scan_below_200():
    """Every prime p < 200 and every m dividing p - 1: the root search and
    the scan give the same zeta, which FieldSpec takes by default; an m
    that does not divide p - 1 has no root on either route."""
    checked = 0
    for p in filter(_is_prime, range(2, 200)):
        for m in range(1, p + 2):
            if (p - 1) % m == 0:
                zeta = smallest_root(p, m)
                assert zeta == _scanned_root(p, m) == FieldSpec(p, m).zeta
                checked += 1
            else:
                assert _scanned_root(p, m) is None
                with pytest.raises(UnembeddableError):
                    smallest_root(p, m)
    assert checked == 354


@pytest.mark.parametrize("m", (2, 3, 6, 7, 11, 151, 1321, MERSENNE - 1))
def test_default_zeta_at_a_large_prime_within_a_second(m):
    """At p = 2**61 - 1 the search takes a root of unity of exact order m
    (by sympy's order) in well under a second; the only element of order 2
    is p - 1.  A zeta of another order is refused."""
    start = time.perf_counter()
    spec = FieldSpec(MERSENNE, m)
    assert time.perf_counter() - start < 0.5
    assert spec.zeta == smallest_root(MERSENNE, m)
    assert n_order(spec.zeta, MERSENNE) == m
    if m == 2:
        assert spec.zeta == MERSENNE - 1
    with pytest.raises(UnembeddableError, match="exact order"):
        FieldSpec(MERSENNE, m, 1 if m > 1 else 2)


def test_exact_order_over_the_rationals():
    """Over Q the order test reads the primes of m as over F_p, and only 1
    and -1 have a finite order: a zeta of 2 at m = 10**12 is refused at
    once, with no power taken."""
    assert FieldSpec(0, 2, Fraction(-1)).zeta == -1
    assert FieldSpec(0, 1, 1).zeta == 1
    for m, zeta in ((2, 1), (1, -1), (4, -1), (6, -1), (2, Fraction(1, 2)),
                    (10 ** 12, 2), (10 ** 12, -1)):
        start = time.perf_counter()
        with pytest.raises(UnembeddableError, match="exact order"):
            FieldSpec(0, m, zeta)
        assert time.perf_counter() - start < 0.5
