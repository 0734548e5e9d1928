"""Exact scalar arithmetic: the rationals or a prime field, never floats.

A :class:`FieldSpec` also designates, when a twist modulus m > 1 is in play,
an element zeta of exact multiplicative order m, so that additive cocycle
values k in Z/m embed as zeta**k.
"""

from __future__ import annotations

from .errors import StructureError, UnembeddableError


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# _PRIME_BOUND, the least strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
# 2017); the first 12 bases alone fail at 318665857834031151167461
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981

# the largest factor that trial division looks for
_TRIAL = 1 << 16


def _is_prime(n: int) -> bool:
    """Whether n is prime, by a deterministic Miller-Rabin test; an n past
    :data:`_PRIME_BOUND` is refused."""
    if n >= _PRIME_BOUND:
        raise StructureError(
            f"{n} is past {_PRIME_BOUND}, the bound of the primality test")
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    # n - 1 = d 2**s, d odd: b**d is 1, or squares to -1 within s - 1 steps
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _BASES:
        x = pow(b, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def prime_powers(n: int) -> list[tuple[int, int]]:
    """(q, v) for each prime q of n >= 1, in increasing order, q**v exactly
    dividing n: by trial division up to :data:`_TRIAL`, which leaves 1 or a
    cofactor with no prime factor up to there.  That cofactor must be prime,
    and is refused otherwise."""
    out = []
    for q in range(2, _TRIAL + 1):
        if q * q > n:
            break
        v = 0
        while n % q == 0:
            n, v = n // q, v + 1
        out += [(q, v)] if v else []
    if n > 1 and not _is_prime(n):
        raise StructureError(
            f"no factorisation: {n} has no prime factor up to {_TRIAL} and "
            "is not prime")
    return out + [(n, 1)] if n > 1 else out


def smallest_root(p: int, m: int) -> int:
    """The default zeta: the smallest element of exact order m in F_p, or
    over Q (p = 0) the only one, -1 for m = 2 and 1 for m = 1."""
    if p == 0:
        if m > 2:
            raise UnembeddableError(
                f"the rationals have no element of order {m}")
        return -1 if m == 2 else 1
    for z in range(1, p):
        if pow(z, m, p) == 1 and all(pow(z, d, p) != 1 for d in range(1, m)):
            return z
    raise UnembeddableError(f"no element of order {m} in F_{p}")


def _rational(x):
    """x as an exact rational: an int when integral, else a Fraction.

    ``fractions`` (which loads ``decimal``) is imported on the first value
    that is not an int, so a command that never divides over Q never loads
    it."""
    if type(x) is int:
        return x
    from fractions import Fraction
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class FieldSpec:
    """char 0 (the rationals) or char p (ints mod p).

    Over Q a scalar is a plain int whenever it is integral and a Fraction
    only otherwise; int and Fraction arithmetic mix exactly, and
    ``Fraction(1) == 1``.  ``modulus`` is the order of the designated root of
    unity ``zeta``; untwisted constructions use modulus 1 with zeta = 1.
    ``zeta`` defaults to :func:`smallest_root`.  Instances are immutable by
    convention.
    """

    def __init__(self, characteristic: int, modulus: int = 1, zeta=None):
        p, m = characteristic, modulus
        if p != 0 and not _is_prime(p):
            raise StructureError(f"characteristic {p} is neither 0 nor prime")
        if m < 1:
            raise StructureError("modulus must be >= 1")
        if p and (p - 1) % m != 0:
            raise UnembeddableError(
                f"modulus {m} does not divide p - 1 = {p - 1}")
        zeta = smallest_root(p, m) if zeta is None else zeta
        if p == 0:
            zeta = _rational(zeta)
            if zeta ** m != 1 or any(zeta ** d == 1 for d in range(1, m)):
                raise UnembeddableError(
                    f"zeta = {zeta} does not have exact order {m} in Q")
        else:
            if not isinstance(zeta, int) or not 0 <= zeta < p:
                raise StructureError("zeta must be a residue mod p")
            if pow(zeta, m, p) != 1 or any(pow(zeta, d, p) == 1 for d in range(1, m)):
                raise UnembeddableError(
                    f"zeta = {zeta} does not have exact order {m} mod {p}")
        self.characteristic = p
        self.modulus = m
        self.zeta = zeta

    def _key(self):
        return self.characteristic, self.modulus, self.zeta

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"FieldSpec({self.characteristic}, {self.modulus}, {self.zeta!r})"

    # -- arithmetic ------------------------------------------------------

    zero = 0
    one = 1

    def add(self, a, b):
        if self.characteristic == 0:
            return a + b
        return (a + b) % self.characteristic

    def sub(self, a, b):
        if self.characteristic == 0:
            return a - b
        return (a - b) % self.characteristic

    def neg(self, a):
        if self.characteristic == 0:
            return -a
        return (-a) % self.characteristic

    def mul(self, a, b):
        if self.characteristic == 0:
            return a * b
        return (a * b) % self.characteristic

    def inv(self, a):
        p = self.characteristic
        if (a % p if p else a) == 0:
            raise ZeroDivisionError("inverting zero")
        if p == 0:
            if type(a) is int and (a == 1 or a == -1):
                return a    # its own inverse; no need to load fractions
            from fractions import Fraction
            return _rational(1 / Fraction(a))
        return pow(a, -1, p)

    def embed_exponent(self, k: int):
        """zeta ** k for an additive value k in Z/m."""
        k %= self.modulus
        if self.characteristic == 0:
            return self.zeta ** k
        return pow(self.zeta, k, self.characteristic)


RATIONALS = FieldSpec(0)
