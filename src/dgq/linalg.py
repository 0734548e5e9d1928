"""Exact linear algebra over prime fields, over Z/m and over the integers.

A matrix is a list of rows.  A row, and likewise a vector, is a
``{column: value}`` dict of ints that never stores a zero; where the number
of columns matters it is passed alongside.  Differentials of bar complexes
are very sparse, and every routine here keeps them so.

There is one eliminator, :class:`_Echelon`, over F_p, over Z/m and, with
p = 0, over Z; it pivots each row on its rightmost column.  Over F_p rank,
nullity, nullspaces and subquotients go through it; over Z/m the Howell
form, whose depth-first walk lists the solutions of a linear system in
order; over Z the Smith form, by echelon passes on the rows and on the
columns in turn.
:func:`invariant_factors` is the one normalisation of a list of cyclic
orders to d1 | d2 | ...; Smith forms and direct sums of torsion both end
in it.
"""

from __future__ import annotations

from math import gcd, prod

from .errors import InternalConsistencyError, StructureError


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


# -- the eliminator ----------------------------------------------------------


def _mod(row, p: int) -> dict[int, int]:
    return {c: v % p for c, v in row.items() if v % p}


def _eliminate(row, f: int, piv, p: int) -> None:
    """row -= f * piv in place, over F_p, or over Z when p is 0; no zero is
    stored."""
    if p:
        for c, v in piv.items():
            nv = (row.get(c, 0) - f * v) % p
            if nv:
                row[c] = nv
            else:
                del row[c]
    else:
        for c, v in piv.items():
            nv = row.get(c, 0) - f * v
            if nv:
                row[c] = nv
            else:
                row.pop(c, None)


def _eliminate_mod(row, f: int, piv, m: int) -> None:
    """row -= f * piv in place over Z/m; as a product can vanish mod m, an
    entry that ``row`` lacks may stay absent."""
    for c, v in piv.items():
        nv = (row.get(c, 0) - f * v) % m
        if nv:
            row[c] = nv
        else:
            row.pop(c, None)


class _Echelon:
    """Rows over F_p, over Z when p is 0, or over Z/p for any p >= 1 when
    ``ring`` is set, in echelon form: each is stored under its rightmost
    (largest) column, its pivot, which no other stored row shares.

    A row that enters is reduced by the stored rows, rightmost column first,
    until that column has no stored row.  An entry that is a multiple of the
    stored pivot is cleared by that multiple of the stored row; over F_p
    every pivot is 1, so no other step runs.  Over Z and Z/m, any other
    entry first takes a gcd step, Euclid's algorithm on the two rows: the
    stored row ends as a combination of the two whose entry there is their
    gcd, and the entering row as one whose entry there is 0.  All steps are
    unimodular.  Where a ``combo`` is passed it follows the row through
    every step: it records which combination of tracked inputs the row
    equals (see :class:`SubquotientFp` and :func:`smith_with_transform`).

    Over Z/m the stored rows end as a Howell form (Howell, "Spans in the
    module (Z_m)^s", 1986; Storjohann and Mulders, "Fast algorithms for
    linear algebra modulo N", ESA 1998).  Each stored row is scaled by a
    unit so that its pivot is a divisor g of m.  Then :meth:`close` feeds
    back in its closure row (m/g) r, which vanishes at the pivot, until
    none is left.  So every vector of the span that vanishes past a column
    is a combination of the stored rows pivoted at or before it, and
    :func:`solutions_mod_m` walks the columns without a dead end.  For
    prime m every pivot is 1, no closure row survives, and the rows are
    those of F_m.

    On the bar differentials of this package rightmost pivots meet much less
    fill-in than leftmost ones: the F_2 rank of S3's d_4 (3125 x 625) runs
    about five times faster."""

    def __init__(self, p: int, ring: bool = False):
        self.p = p
        self.ring = ring
        self.euclid = ring or not p
        self.eliminate = _eliminate_mod if ring else _eliminate
        self.rows: dict[int, dict[int, int]] = {}
        self.combos: dict[int, dict[int, int]] = {}
        # over Z/m, the pivots whose closure rows are still to be fed in
        self.unclosed: list[int] = []

    def reduce(self, row, combo=None):
        """Reduce ``row`` in place; return its new rightmost column, or None
        once it is zero."""
        rows, combos, p, euclid = self.rows, self.combos, self.p, self.euclid
        eliminate = self.eliminate
        while row:
            c = max(row)
            piv = rows.get(c)
            if piv is None:
                return c
            f = row[c]
            if euclid:
                # over Z and Z/m, Euclid's algorithm on the two rows: each
                # step stores the remainder row and carries on with the other
                while f % piv[c]:
                    q = f // piv[c]
                    for store, vec in ((rows, row), (combos, combo)):
                        if vec is not None:
                            eliminate(vec, q, store[c], p)
                            store[c], held = dict(vec), store[c]
                            vec.clear()
                            vec.update(held)
                    piv, f = rows[c], row[c]
                f //= piv[c]
            eliminate(row, f, piv, p)
            if combo is not None:
                eliminate(combo, f, combos[c], p)
        return None

    def add(self, row, combo=None) -> bool:
        """Reduce ``row`` and store what is left; False if nothing is.  Over
        F_p the stored row, and its combo, are scaled to a pivot of 1, and
        over Z/m to a pivot dividing m (call :meth:`close` after the last
        row)."""
        c = self.reduce(row, combo)
        if c is None:
            return False
        p = self.p
        if p:
            if self.ring:
                # a unit u with row[c] u = g mod m: the inverse of row[c] / g
                # mod m / g, moved by multiples of m / g until prime to m
                g = gcd(row[c], p)
                inv = pow(row[c] // g, -1, p // g)
                while gcd(inv, p) > 1:
                    inv += p // g
                self.unclosed.append(c)
            else:
                inv = pow(row[c], p - 2, p)
            for vec in (row, combo or {}):
                for k, v in vec.items():
                    vec[k] = v * inv % p
        self.rows[c] = row
        if combo is not None:
            self.combos[c] = combo
        return True

    def close(self) -> None:
        """Over Z/m, feed in the closure row (m/g) r of each row r stored
        since the last call, and of each row that this stores in turn,
        until none is left: the rows are then a Howell form.

        Each step only adds to the span of the rows pivoted before a column,
        so a row's check stays true once made.  A row r' that a gcd step
        puts in place of r at column c is not queued again.  While c is
        queued, the row checked is the one stored then.  Once the closure
        row of r is in, r = (g/g') r' + q e, for an integer q and the
        remainder row e, makes (m/g') r' = (m/g) r - (m/g) q e, which lies
        in the span pivoted before c."""
        rows, m, unclosed = self.rows, self.p, self.unclosed
        while unclosed:
            c = unclosed.pop()
            piv = rows[c]
            if piv[c] > 1:
                f = m // piv[c]
                self.add({k: v * f % m for k, v in piv.items() if v * f % m})

    def reduced(self) -> dict[int, dict[int, int]]:
        """The stored rows in reduced echelon form, their combos following:
        each entry at another row's pivot column is cleared over F_p, and
        over Z brought below that pivot, to its remainder by floor division.

        Rows are reduced left to right, each at its pivot columns right to
        left: a row subtracted changes only columns still to come.  Over F_p,
        being reduced already, it adds no pivot column; over Z the ones it
        adds join the queue."""
        rows, combos, p, eliminate = self.rows, self.combos, self.p, self.eliminate
        for c in sorted(rows):
            row = rows[c]
            todo = sorted(k for k in row if k != c and k in rows)
            while todo:
                k = todo.pop()
                piv = rows[k]
                f = row.get(k, 0) // piv[k]
                if f:
                    new = [j for j in piv if j in rows and j not in row]
                    eliminate(row, f, piv, p)
                    if combos:
                        eliminate(combos[c], f, combos[k], p)
                    if new:
                        todo += new
                        todo.sort()
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


def smith_with_transform(rows, ncols: int):
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (diagonal, T), the diagonal positive and T a list of ``ncols``
    sparse columns over the columns of A with |det T| = 1: the first go with
    the diagonal entries, and the rest span ker A.  So x = T y turns A x = 0
    into d_k y_k = 0, with d_k = 0 past the diagonal.  Divisibility along the
    diagonal is not enforced here; see :func:`elementary_divisors`.

    Echelon passes over Z on the rows and on the columns alternate, each
    ended by :meth:`_Echelon.reduced`, until every column has one entry.  A
    pass on the columns carries T as combos; one on the rows carries
    nothing, since row operations do not change the solutions.  Each pass
    lists its lines in the order of their pivots, so its trailing pivot is
    alone in its line, and the next pass replaces it by the gcd of the line
    across, which includes it.  The trailing pivot thus at least halves, or
    divides that line, which the reduction then clears for good.  So the
    trailing pivots descend lexicographically, the classical argument for
    alternating Hermite forms (Kannan and Bachem, SIAM J. Comput. 8, 1979),
    and the loop ends."""
    if any(not 0 <= j < ncols for row in rows for j in row):
        raise StructureError(f"a column outside a matrix of {ncols} columns")
    lines = (dict(row) for row in rows)
    combos, kernel = [{j: 1} for j in range(ncols)], []
    while True:
        echelon = _Echelon(0)
        for row in lines:
            echelon.add(row)
        pivots = sorted(echelon.reduced())
        lines = transpose([echelon.rows[c] for c in pivots], len(combos))
        echelon = _Echelon(0)
        for col, combo in zip(lines, combos):
            if not echelon.add(col, combo):
                kernel.append(combo)
        pivots = sorted(echelon.reduced())
        lines = [echelon.rows[c] for c in pivots]
        combos = [echelon.combos[c] for c in pivots]
        if all(len(col) == 1 for col in lines):
            diag = [abs(v) for col in lines for v in col.values()]
            return diag, combos + kernel
        lines = transpose(lines, len(pivots))


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
    return invariant_factors(smith_with_transform(rows, ncols)[0])


def rank_z(rows, ncols: int) -> int:
    return len(elementary_divisors(rows, ncols))


def solutions_mod_m(rows, ncols: int, m: int):
    """(count, iterator) of the solutions of A x = 0 over Z/m, both from the
    Howell form of A over Z/m (see :class:`_Echelon`).

    A column that pivots no row is free and takes m values; one that pivots
    a row with pivot g takes the g values that solve that row, given the
    columns before it.  The count, m per free column times g per pivot
    column, must equal the one that the Smith diagonal d_k gives,
    m**(ncols - len(d)) times the product of gcd(d_k, m).

    The iterator walks the columns depth first, in increasing order, each
    through its values in increasing order, so it yields each solution
    once, as a tuple, in increasing lexicographic order, and holds only the
    current one.  The Howell form leaves no prefix without a value; a dead
    end raises all the same.
    """
    echelon = _Echelon(m, ring=True)
    for row in rows:
        echelon.add(_mod(row, m))
    echelon.close()
    diag = smith_with_transform(rows, ncols)[0]
    count = m ** (ncols - len(echelon.rows)) * prod(
        row[c] for c, row in echelon.rows.items())
    smith = m ** (ncols - len(diag)) * prod(gcd(d, m) for d in diag)
    if count != smith:
        raise InternalConsistencyError(
            f"the Howell form counts {count} solutions mod {m}, the Smith "
            f"form {smith}")
    return count, _walk(echelon, ncols)


def _walk(echelon: _Echelon, ncols: int):
    """The solutions of the rows of a Howell form over Z/m, in increasing
    lexicographic order; see :func:`solutions_mod_m`.

    Once reduced, a row whose pivot is 1 is 0 at every other such pivot, so
    its column is a fixed combination of the branching columns: the free
    ones and those pivoting with g > 1.  The walk steps the branching
    columns alone, depth first, and moves each fixed column by the change.
    """
    m = echelon.p
    rows = echelon.reduced()
    branching = [b for b in range(ncols) if b not in rows or rows[b][b] > 1]
    fixed = {b: [] for b in branching}
    for c, row in rows.items():
        if row[c] == 1:
            for b, v in row.items():
                if b != c:
                    fixed[b].append((c, -v % m))
    levels = []
    for b in branching:
        row = rows.get(b)
        solve = None if row is None else (
            row[b], [(j, -v) for j, v in row.items() if j != b])
        levels.append((b, m // row[b] if row else 1, solve, fixed[b]))
    x = [0] * ncols
    i = 0
    while True:
        # the levels from i on take their least values
        for b, _, solve, moves in levels[i:]:
            if solve is None:
                least = 0
            else:
                g, terms = solve
                s = sum(v * x[j] for j, v in terms) % m
                if s % g:
                    raise InternalConsistencyError(
                        f"column {b} has no value mod {m} for "
                        f"{tuple(x[:b])}")
                least = s // g
            d = least - x[b]
            if d:
                x[b] = least
                for c, w in moves:
                    x[c] = (x[c] + w * d) % m
        yield tuple(x)
        # step the last level that has a next value
        i = len(levels) - 1
        while i >= 0 and x[levels[i][0]] + levels[i][1] >= m:
            i -= 1
        if i < 0:
            return
        b, d, _, moves = levels[i]
        x[b] += d
        for c, w in moves:
            x[c] = (x[c] + w * d) % m
        i += 1


def count_solutions_mod_m(rows, ncols: int, m: int) -> int:
    return solutions_mod_m(rows, ncols, m)[0]
