"""Exact linear algebra: prime fields and integer Smith normal form.

A matrix is a list of rows.  A row, and likewise a vector, is a
``{column: value}`` dict of ints that never stores a zero; where the number
of columns matters it is passed alongside.  Differentials of bar complexes
are very sparse, and every routine here keeps them so, with one exception:
the integer Smith form densifies its input once on entry.

Over F_p there is one eliminator, :class:`_Echelon`, which pivots each row
on its rightmost column.  Rank, nullity, nullspaces and subquotients all go
through it.  Over Z, :func:`invariant_factors` is the one normalisation of
a list of cyclic orders to d1 | d2 | ...; Smith forms and direct sums of
torsion both end in it.
"""

from __future__ import annotations

import itertools
from math import gcd, prod

from .errors import StructureError


def sparse_row(entries) -> dict[int, int]:
    """The row summing ``(column, value)`` entries, with zeros dropped."""
    row: dict[int, int] = {}
    for c, v in entries:
        row[c] = row.get(c, 0) + v
    return {c: v for c, v in row.items() if v}


def transpose(rows, ncols: int) -> list[dict[int, int]]:
    """The columns of a matrix with ``ncols`` columns, as rows."""
    cols: list[dict[int, int]] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols


def matmul(a, b):
    """Integer product of two sparse matrices; ``b`` has one row per column
    of ``a``."""
    out = []
    for row in a:
        acc: dict[int, int] = {}
        for k, v in row.items():
            if k >= len(b):
                raise StructureError("matmul shape mismatch")
            for j, w in b[k].items():
                acc[j] = acc.get(j, 0) + v * w
        out.append({j: x for j, x in acc.items() if x})
    return out


def is_zero_matrix(a) -> bool:
    return not any(a)


# -- the F_p eliminator ------------------------------------------------------


def _mod(row, p: int) -> dict[int, int]:
    return {c: v % p for c, v in row.items() if v % p}


def _eliminate(row, f: int, piv, p: int) -> None:
    """row -= f * piv over F_p, in place, storing no zero."""
    for c, v in piv.items():
        nv = (row.get(c, 0) - f * v) % p
        if nv:
            row[c] = nv
        else:
            del row[c]


class _Echelon:
    """Rows over F_p in echelon form, each stored under its rightmost
    (largest) column and scaled so that its entry there is 1.

    A row that enters is reduced by the stored rows, rightmost column first,
    until that column has no stored row.  Where a ``combo`` is passed it
    follows the row through every step: it records which combination of
    tracked inputs the row equals (see :class:`SubquotientFp`).

    On the bar differentials of this package rightmost pivots meet much less
    fill-in than leftmost ones: the F_2 rank of S3's d_4 (3125 x 625) runs
    about five times faster."""

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[int, dict[int, int]] = {}
        self.combos: dict[int, dict[int, int]] = {}

    def reduce(self, row, combo=None):
        """Reduce ``row`` in place; return its new rightmost column, or None
        once it is zero."""
        rows, p = self.rows, self.p
        while row:
            c = max(row)
            piv = rows.get(c)
            if piv is None:
                return c
            f = row[c]
            _eliminate(row, f, piv, p)
            if combo is not None:
                _eliminate(combo, f, self.combos[c], p)
        return None

    def add(self, row, combo=None) -> bool:
        """Reduce ``row`` and store what is left; False if nothing is."""
        c = self.reduce(row, combo)
        if c is None:
            return False
        p = self.p
        inv = pow(row[c], p - 2, p)
        for vec in (row, combo or {}):
            for k, v in vec.items():
                vec[k] = v * inv % p
        self.rows[c] = row
        if combo is not None:
            self.combos[c] = combo
        return True

    def reduced(self) -> dict[int, dict[int, int]]:
        """The stored rows in reduced echelon form (combos are not kept up).

        Rows are cleared left to right, so each row subtracted is already
        zero at every other stored column and adds none back."""
        rows, p = self.rows, self.p
        for c in sorted(rows):
            row = rows[c]
            for k in [k for k in row if k != c and k in rows]:
                _eliminate(row, row[k], rows[k], p)
        return rows


def rank_fp(rows, p: int) -> int:
    """Rank over F_p."""
    echelon = _Echelon(p)
    return sum(echelon.add(_mod(row, p)) for row in rows)


def nullity_fp(rows, ncols: int, p: int) -> int:
    return ncols - rank_fp(rows, p)


def nullspace_fp(rows, ncols: int, p: int) -> list[dict[int, int]]:
    """Basis of {x : A x = 0} over F_p, one vector per free column of the
    reduced echelon form with rightmost pivots, in increasing order of that
    column: the vector is 1 at its free column, zero at every other free
    column, and solves for the pivot columns.  (This is the reduced echelon
    basis of the matrix read with its columns in reverse order.)"""
    echelon = _Echelon(p)
    for row in rows:
        echelon.add(_mod(row, p))
    basis = {f: {f: 1} for f in range(ncols) if f not in echelon.rows}
    for c, row in echelon.reduced().items():
        for f, v in row.items():
            if f != c:
                basis[f][c] = -v % p
    return list(basis.values())


class SubquotientFp:
    """A subquotient H = span(Z) / span(B) of F_p^n with explicit
    representatives and class coordinates.

    The representatives are the Z vectors, reduced mod p, that are
    independent of span(B) and of the representatives before them.
    ``coords(v)`` expresses the class of v in that basis, as a sparse vector
    over representative indices; v must lie in span(B) + span(reps)."""

    def __init__(self, ambient_dim: int, z_vectors, b_vectors, p: int):
        self.n = ambient_dim
        self.p = p
        # every stored row carries its coordinates over the representatives;
        # B rows have none, since span(B) is quotiented out
        self._echelon = _Echelon(p)
        for v in b_vectors:
            self._echelon.add(_mod(v, p), {})
        self.reps = []
        for v in z_vectors:
            rep = _mod(v, p)
            if self._echelon.add(dict(rep), {len(self.reps): 1}):
                self.reps.append(rep)

    @property
    def dim(self) -> int:
        return len(self.reps)

    def coords(self, v) -> dict[int, int]:
        combo: dict[int, int] = {}
        if self._echelon.reduce(_mod(v, self.p), combo) is not None:
            raise StructureError("vector does not lie in the subquotient span")
        # v minus the stored rows it took is zero, so v is minus their combo
        return {k: -x % self.p for k, x in combo.items()}


# -- integer Smith normal form ------------------------------------------


def _xgcd(a: int, b: int):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def smith_with_transform(rows, ncols: int):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (diagonal entries, T) where T is the accumulated column transform,
    so that x = T y turns A x = 0 into D y = 0.  Divisibility of the diagonal
    is not enforced here; see :func:`elementary_divisors`.  The sparse input
    is made dense once, here.
    """
    d = [[0] * ncols for _ in rows]
    for drow, row in zip(d, rows):
        for j, v in row.items():
            if not 0 <= j < ncols:
                raise StructureError(
                    f"column {j} outside a matrix of {ncols} columns")
            drow[j] = v
    m, n = len(d), ncols
    t = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i1, i2, j):
        # keep the pivot row fixed whenever plain elimination works, so the
        # pivot strictly improves and the sweep terminates
        a, b = d[i1][j], d[i2][j]
        if b == 0:
            return
        if a == 0:
            d[i1], d[i2] = d[i2], d[i1]
            return
        if b % a == 0:
            q = b // a
            r1, r2 = d[i1], d[i2]
            for jj in range(n):
                r2[jj] -= q * r1[jj]
            return
        x, y, g = _xgcd(a, b)
        ag, bg = a // g, b // g
        r1, r2 = d[i1], d[i2]
        for jj in range(n):
            u, v = r1[jj], r2[jj]
            r1[jj] = x * u + y * v
            r2[jj] = -bg * u + ag * v

    def col_op(j1, j2, i):
        a, b = d[i][j1], d[i][j2]
        if b == 0:
            return
        if a == 0:
            for r in d:
                r[j1], r[j2] = r[j2], r[j1]
            for r in t:
                r[j1], r[j2] = r[j2], r[j1]
            return
        if b % a == 0:
            q = b // a
            for r in d:
                r[j2] -= q * r[j1]
            for r in t:
                r[j2] -= q * r[j1]
            return
        x, y, g = _xgcd(a, b)
        ag, bg = a // g, b // g
        for r in d:
            u, v = r[j1], r[j2]
            r[j1] = x * u + y * v
            r[j2] = -bg * u + ag * v
        for r in t:
            u, v = r[j1], r[j2]
            r[j1] = x * u + y * v
            r[j2] = -bg * u + ag * v

    for k in range(min(m, n)):
        while True:
            for i in range(k + 1, m):
                row_op(k, i, k)
            if all(d[k][j] == 0 for j in range(k + 1, n)):
                break
            for j in range(k + 1, n):
                col_op(k, j, k)
            if all(d[i][k] == 0 for i in range(k + 1, m)):
                break
    diag = [abs(d[k][k]) for k in range(min(m, n))]
    return diag, t


def invariant_factors(orders) -> list[int]:
    """The invariant factors d1 | d2 | ... of the direct sum of the cyclic
    groups Z/d, d in ``orders`` (positive), sorted and with any 1s kept:
    pairs are replaced by their gcd and lcm until each divides the next."""
    ds = list(orders)
    changed = True
    while changed:
        changed = False
        for i in range(len(ds) - 1):
            a, b = ds[i], ds[i + 1]
            if b % a != 0:
                g = gcd(a, b)
                ds[i], ds[i + 1] = g, a * b // g
                changed = True
        ds.sort()
    return ds


def elementary_divisors(rows, ncols: int) -> list[int]:
    """Nonzero diagonal of the true Smith form, with d1 | d2 | ... enforced."""
    diag, _ = smith_with_transform(rows, ncols)
    return invariant_factors(abs(v) for v in diag if v != 0)


def rank_z(rows, ncols: int) -> int:
    return len(elementary_divisors(rows, ncols))


def solutions_mod_m(rows, ncols: int, m: int):
    """(count, iterator) of the solutions of A x = 0 over Z/m, both from one
    Smith form with transform.

    With SAT = D the solutions are x = T y where each y_k runs over the
    multiples of m // gcd(d_k, m); the iterator yields each solution once,
    as a tuple.  Only the columns of T whose y_k can be nonzero are read.
    """
    diag, t = smith_with_transform(rows, ncols)
    steps = []
    for k in range(ncols):
        dk = diag[k] if k < len(diag) else 0
        g = gcd(dk % m, m)        # gcd(0, m) = m: y_k free
        # y_k must satisfy d_k y_k = 0 mod m: g choices
        steps.append([(m // g) * i for i in range(g)] if m > 1 else [0])
    free = [k for k in range(ncols) if len(steps[k]) > 1]
    cols = [[(i, t[i][k] % m) for i in range(ncols) if t[i][k] % m]
            for k in free]

    def solutions():
        for y in itertools.product(*(steps[k] for k in free)):
            x = [0] * ncols
            for col, yk in zip(cols, y):
                if yk:
                    for i, v in col:
                        x[i] += v * yk
            yield tuple(v % m for v in x)

    return prod(len(c) for c in steps), solutions()


def count_solutions_mod_m(rows, ncols: int, m: int) -> int:
    return solutions_mod_m(rows, ncols, m)[0]
