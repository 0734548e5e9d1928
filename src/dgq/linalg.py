"""Exact linear algebra over prime fields, over Z/m and over the integers.

A matrix is a list of rows.  A row, and likewise a vector, is a
``{column: value}`` dict of ints that never stores a zero; where the number
of columns matters it is passed alongside.  Differentials of bar complexes
are very sparse, and every routine here takes and returns them so.

Rows are eliminated with rightmost pivots, in echelon forms that only
:func:`_echelon` makes, so the row store is chosen there alone.  Over
Z/m at m = 2 and 3, that is F_2 and F_3, the rows are bit planes,
:class:`_Planes`, where each step is a few word operations on Python ints.
A plane row is dense up to its pivot, so the planes of a matrix with
``ncols`` columns can take ``planes * ncols**2 / 16`` bytes; past
:data:`_PLANE_STORE` (64 MB) the rows are dicts instead.
:class:`_Echelon` is the one eliminator on dict rows: over Z/m for every
m >= 1, and over Z at m = 0.  At a prime m that is F_m, where every pivot
is 1.  :class:`_Planes` takes the same dict rows and gives the same
answers, so the plane format stays inside it.  Over Z/m the rows are a
Howell form, at a prime m the echelon form over F_m, whose depth-first
walk lists the solutions of a linear system in order, and whose branching
columns give generators of them; over Z :class:`_Echelon` gives the
diagonal of a Smith form, by echelon passes on the rows and on the columns
in turn.  No routine here needs the transforms of either form.
:func:`invariant_factors` is the one normalisation of a list of cyclic
orders to d1 | d2 | ...; Smith forms and direct sums of torsion both end
in it.

A count of solutions mod m, at every m, is read off the Howell form of
the rows, :func:`solutions_mod_m`, and checked against the Howell form of
their transpose: the kernel and the column span together have m**ncols
elements.  At a prime m the two orders are m to the rank on the rows and
on the columns.  No count factors m or takes a Smith form.

The solutions of a walk also come in blocks of bytes, :class:`_Block`,
the one shape that the block check of :mod:`dgq.cocycles` and the writer
of :mod:`dgq.io` read.
"""

from __future__ import annotations

from itertools import chain, islice
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


def _eliminate(row, f: int, piv, m: int) -> None:
    """row -= f * piv in place, over Z/m, or over Z when m is 0; no zero is
    stored, and as a product can vanish mod m, an entry that ``row`` lacks
    may stay absent."""
    if m:
        for c, v in piv.items():
            nv = (row.get(c, 0) - f * v) % m
            if nv:
                row[c] = nv
            else:
                row.pop(c, None)
    else:
        for c, v in piv.items():
            nv = row.get(c, 0) - f * v
            if nv:
                row[c] = nv
            else:
                row.pop(c, None)


class _Echelon:
    """Dict rows over Z/m, or over Z when m is 0, in echelon form: each is
    stored under its rightmost (largest) column, its pivot, which no other
    stored row shares.  At a prime m this is F_m.  Over F_2 and F_3
    :func:`_echelon` keeps the same form, behind the same interface, on
    bit-plane rows, :class:`_Planes`, whenever they fit in
    :data:`_PLANE_STORE`, so this class serves F_p for p >= 5, larger
    eliminations over F_2 and F_3, Z/m and Z.

    A row that enters is reduced mod m, then by the stored rows, rightmost
    column first, until that column has no stored row.  An entry that is a
    multiple of the stored pivot is cleared by that multiple of the stored
    row.  Any other entry first takes a gcd step, Euclid's algorithm on the
    two rows: the stored row ends as a combination of the two whose entry
    there is their gcd, and the entering row as one whose entry there is 0.
    A pivot of 1 divides every entry, so at a prime m no gcd step runs.
    Columns below the ``low`` of :meth:`add` never pivot, so they only
    follow the steps: :class:`SubquotientFp` keeps there which inputs each
    row combines.

    Over Z/m the stored rows are a Howell form (Howell, "Spans in the
    module (Z_m)^s", 1986; Storjohann and Mulders, "Fast algorithms for
    linear algebra modulo N", ESA 1998): see :meth:`add`.  So every vector
    of the span that vanishes past a column is a combination of the stored
    rows pivoted at or before it, and :func:`solutions_mod_m` walks the
    columns without a dead end.

    On the bar differentials of this package rightmost pivots meet much less
    fill-in than leftmost ones: the F_2 rank of S3's d_4 (3125 x 625) runs
    about five times faster."""

    def __init__(self, m: int):
        self.m = m
        self.rows: dict[int, dict[int, int]] = {}
        self.steps = 0      # gcd steps taken

    def reduce(self, row) -> dict[int, int]:
        """``row`` reduced, as a new dict: zero, or with a rightmost column
        that no stored row has.  At a composite m a gcd step replaces stored
        rows by rows that also span ``row``, so this is no membership test:
        a row outside the span can reduce to 0, and the span has grown."""
        rows, m = self.rows, self.m
        row = _mod(row, m) if m else dict(row)
        while row:
            c = max(row)
            piv = rows.get(c)
            if piv is None:
                break
            f = row[c]
            # Euclid's algorithm on the two rows: each step stores the
            # remainder row and carries on with the other
            while f % piv[c]:
                self.steps += 1
                _eliminate(row, f // piv[c], piv, m)
                rows[c], row = row, piv
                piv, f = rows[c], row[c]
            _eliminate(row, f // piv[c], piv, m)
        return row

    def add(self, row, low: int = 0) -> bool:
        """Reduce ``row``, store what is left at or above column ``low``, and
        say whether the span grew: also so where a gcd step ran, as no span
        vector ending at that column has a non-multiple of its pivot.  Over Z/m
        the stored row is scaled by a unit to a pivot g dividing m, which is
        1 at a prime m.  For g > 1 the closure row (m/g) r, which vanishes
        at the pivot, is fed in at once, and so on for each row that this
        stores in turn: the rows are then a Howell form.  A pivot of 1 is
        never replaced by a gcd step, and its closure row is 0.

        Each step only adds to the span of the rows pivoted before a column,
        so a closure row, once fed in, stays in that span.  A row r' that a
        gcd step puts in place of r at column c needs no closure row of its
        own: r = (g/g') r' + q e, for an integer q and the remainder row e,
        which is 0 at c and goes on to be reduced below c.  So (m/g') r' =
        (m/g) r - (m/g) q e lies in the span pivoted before c."""
        steps = self.steps
        row = self.reduce(row)
        c = max(row, default=-1)
        if c < low:
            return self.steps > steps
        m = self.m
        # the closure rows form a chain, each pivoted below the one before
        while c >= low:
            if m:
                # a unit u with row[c] u = g mod m: the inverse of row[c] / g
                # mod m / g, moved by multiples of m / g until prime to m
                g = gcd(row[c], m)
                inv = pow(row[c] // g, -1, m // g)
                while gcd(inv, m) > 1:
                    inv += m // g
                for k, v in row.items():
                    row[k] = v * inv % m
            self.rows[c] = row
            if not m or g == 1:
                break
            row = self.reduce({k: v * (m // g) for k, v in row.items()})
            c = max(row, default=-1)
        return True

    def order(self) -> int:
        """The span's order over Z/m, m >= 1: m/g multiplied over pivots g."""
        return prod(self.m // row[c] for c, row in self.rows.items())

    def reduced(self) -> dict[int, dict[int, int]]:
        """The stored rows in reduced echelon form: each entry at another
        row's pivot column is brought below that pivot, to its remainder by
        floor division, so at a prime m it is cleared.

        Rows are reduced left to right, each at its pivot columns right to
        left: a row subtracted changes only columns still to come.  Where
        every pivot is 1 it is reduced already and adds no pivot column;
        elsewhere the ones it adds join the queue."""
        rows, m = self.rows, self.m
        for c in sorted(rows):
            row = rows[c]
            todo = sorted(k for k in row if k != c and k in rows)
            while todo:
                k = todo.pop()
                piv = rows[k]
                f = row.get(k, 0) // piv[k]
                if f:
                    new = [j for j in piv if j in rows and j not in row]
                    _eliminate(row, f, piv, m)
                    if new:
                        todo += new
                        todo.sort()
        return rows


# -- bit-plane rows over F_2 and F_3 ------------------------------------------

# Bytes that the plane rows of one elimination may take.  A stored plane row
# is dense up to its pivot, so an elimination on ``ncols`` columns stores at
# most ``planes * ncols**2 / 16`` bytes; past this bound it takes dict rows.
_PLANE_STORE = 1 << 26


def _on_planes(m: int, ncols: int, extra: int = 0) -> bool:
    """Whether an elimination over Z/m on ``ncols`` columns, with ``extra``
    columns below them that never pivot, goes on plane rows: at m = 2 or 3,
    where they fit in :data:`_PLANE_STORE`."""
    return m in (2, 3) and (
        (m - 1) * ncols * (ncols + 2 * extra) <= 16 * _PLANE_STORE)


def _to_planes(row, p: int) -> tuple[int, int]:
    """The planes (ones, twos) of a dict row mod p."""
    ones = twos = 0
    for c, v in row.items():
        v %= p
        if v == 1:
            ones |= 1 << c
        elif v:
            twos |= 1 << c
    return ones, twos


def _columns(x: int):
    """The set bits of ``x``, in increasing order."""
    digits = bin(x)[:1:-1]
    c = digits.find("1")
    while c >= 0:
        yield c
        c = digits.find("1", c + 1)


def _from_planes(ones: int, twos: int) -> dict[int, int]:
    row = dict.fromkeys(_columns(ones), 1)
    row.update(dict.fromkeys(_columns(twos), 2))
    return row


class _Planes:
    """Rows over F_2 or F_3, Z/m at m = 2 or 3, in the echelon form of
    :class:`_Echelon`, each stored under its rightmost column, with a 1
    there, behind the interface of :class:`_Echelon`: dict rows go in and
    come out, and ``rows`` maps each pivot to its stored row.

    A stored row is a pair of ints (ones, twos): bit c of ``ones`` is set
    where column c holds 1, and of ``twos`` where it holds 2, so the pivot
    is ``(ones | twos).bit_length() - 1``.  Over F_2 ``twos`` stays 0 and
    subtracting a row is an XOR.  Over F_3 negating a row swaps its planes,
    and a + b is ``t = (a1 | b2) ^ (a2 | b1)``, ``ones = (a2 | b2) ^ t``,
    ``twos = (a1 | b1) ^ t`` (Boothby and Bradshaw, "Bitslicing and the
    Method of Four Russians over larger finite fields", arXiv:0901.1413).
    Each step is then a few word operations done in C, on rows as dense as
    the fill-in makes them (machine-word rows as in M4RI: Albrecht, Bard and
    Hart, "Algorithm 898", ACM TOMS 37, 2010)."""

    def __init__(self, m: int):
        self.m = m
        self.rows: dict[int, tuple[int, int]] = {}

    def _reduce(self, ones: int, twos: int) -> tuple[int, int]:
        """The planes reduced by the stored rows, rightmost column first,
        until that column has no stored row."""
        rows = self.rows
        if self.m == 2:
            while True:
                piv = rows.get(ones.bit_length() - 1)
                if piv is None:
                    return ones, 0
                ones ^= piv[0]
        while True:
            c = (ones | twos).bit_length() - 1
            piv = rows.get(c)
            if piv is None:
                return ones, twos
            b1, b2 = piv
            if ones.bit_length() > c:
                # a 1 there: add minus the stored row; a 2: add the row
                b1, b2 = b2, b1
            t = (ones | b2) ^ (twos | b1)
            ones, twos = (twos | b2) ^ t, (ones | b1) ^ t

    def reduce(self, row) -> dict[int, int]:
        """``row`` reduced, as in :meth:`_Echelon.reduce`."""
        return _from_planes(*self._reduce(*_to_planes(row, self.m)))

    def add(self, row, low: int = 0) -> bool:
        """Reduce ``row`` and store what is left, scaled to a pivot of 1;
        False if nothing is left at or above column ``low``, so that every
        stored pivot is."""
        ones, twos = self._reduce(*_to_planes(row, self.m))
        c = (ones | twos).bit_length() - 1
        if c < low:
            return False
        self.rows[c] = (twos, ones) if twos.bit_length() > c else (ones, twos)
        return True

    def order(self) -> int:
        return self.m ** len(self.rows)

    def reduced(self) -> dict[int, dict[int, int]]:
        """The stored rows in reduced echelon form, as dict rows under their
        pivots, in the order they were stored.  Rows are reduced left to
        right; a reduced row is 0 at every other pivot column, so
        subtracting it clears one column and adds no pivot column."""
        rows, m = self.rows, self.m
        pivots = sum(1 << c for c in rows)
        for c in sorted(rows):
            ones, twos = rows[c]
            for k in _columns((ones | twos) & pivots ^ 1 << c):
                b1, b2 = rows[k]
                if m == 2:
                    ones ^= b1
                    continue
                if ones >> k & 1:
                    b1, b2 = b2, b1
                t = (ones | b2) ^ (twos | b1)
                ones, twos = (twos | b2) ^ t, (ones | b1) ^ t
            rows[c] = ones, twos
        return {c: _from_planes(*row) for c, row in rows.items()}


def _echelon(m: int, rows=(), ncols: int | None = None, extra: int = 0):
    """The echelon form of ``rows`` over Z/m, or over Z at m = 0, on
    ``ncols`` columns (by default one past the last that ``rows`` use) with
    ``extra`` below them that never pivot: on plane rows where
    :func:`_on_planes` allows, else in an ``_Echelon(m)``."""
    if ncols is None:
        ncols = 1 + max((max(row) for row in rows if row), default=-1)
    echelon = _Planes(m) if _on_planes(m, ncols, extra) else _Echelon(m)
    for row in rows:
        echelon.add(row)
    return echelon


def rank_fp(rows, p: int) -> int:
    """Rank over F_p."""
    return len(_echelon(p, rows).rows)


def nullity_fp(rows, ncols: int, p: int) -> int:
    return ncols - len(_echelon(p, rows, ncols).rows)


def nullspace_fp(rows, ncols: int, p: int) -> list[dict[int, int]]:
    """Basis of {x : A x = 0} over F_p, one vector per free column of the
    reduced echelon form with rightmost pivots, in increasing order of that
    column: the vector is 1 at its free column, zero at every other free
    column, and solves for the pivot columns.  (This is the reduced echelon
    basis of the matrix read with its columns in reverse order.)"""
    echelon = _echelon(p, rows, ncols)
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
        self.reps = []
        # every row is moved up by ``_shift``, the number of Z vectors, and
        # carries its coordinates over the representatives in the columns
        # below, which never pivot; B rows carry none, since span(B) is
        # quotiented out
        z_vectors = list(z_vectors)
        self._shift = shift = len(z_vectors)
        self._echelon = _echelon(p, ncols=ambient_dim, extra=shift)
        for v in b_vectors:
            self._echelon.add(self._moved(v), shift)
        for v in z_vectors:
            row = self._moved(v)
            row[len(self.reps)] = 1
            if self._echelon.add(row, shift):
                self.reps.append(_mod(v, p))

    def _moved(self, v) -> dict[int, int]:
        shift = self._shift
        return {c + shift: x for c, x in v.items()}

    @property
    def dim(self) -> int:
        return len(self.reps)

    def coords(self, v) -> dict[int, int]:
        left = self._echelon.reduce(self._moved(v))
        if max(left, default=-1) >= self._shift:
            raise StructureError("vector does not lie in the subquotient span")
        # v minus the stored rows it took is zero above the shift, so the
        # class of v is minus the coordinates those rows carried
        return {k: -x % self.p for k, x in left.items()}


# -- integer Smith normal form ------------------------------------------


def _hermite(lines) -> list[dict[int, int]]:
    """The reduced echelon form of ``lines`` over Z, in the order of its
    pivots."""
    rows = _echelon(0, lines).reduced()
    return [rows[c] for c in sorted(rows)]


def smith_diagonal(rows, ncols: int) -> list[int]:
    """The diagonal of an integer matrix reached by unimodular row and
    column operations, its entries positive and as many as the rank.
    Divisibility along it is not enforced here; see
    :func:`elementary_divisors`.

    Echelon passes over Z on the rows and on the columns alternate, each
    ended by :meth:`_Echelon.reduced`, until every column has one entry.
    Each pass lists its lines in the order of their pivots, so its trailing
    pivot is alone in its line, and the next pass replaces it by the gcd of
    the line across, which includes it.  The trailing pivot thus at least
    halves, or divides that line, which the reduction then clears for good.
    So the trailing pivots descend lexicographically, the classical argument
    for alternating Hermite forms (Kannan and Bachem, SIAM J. Comput. 8,
    1979), and the loop ends."""
    if any(not 0 <= j < ncols for row in rows for j in row):
        raise StructureError(f"a column outside a matrix of {ncols} columns")
    lines, width = rows, ncols
    while True:
        cols = _hermite(transpose(_hermite(lines), width))
        if all(len(col) == 1 for col in cols):
            return [abs(v) for col in cols for v in col.values()]
        lines, width = transpose(cols, len(cols)), len(cols)


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
    return invariant_factors(smith_diagonal(rows, ncols))


def rank_z(rows, ncols: int) -> int:
    return len(_hermite(rows))


def count_solutions_mod_m(rows, ncols: int, m: int) -> int:
    """The number of solutions of A x = 0 over Z/m, as
    :func:`solutions_mod_m` counts and checks it."""
    return solutions_mod_m(rows, ncols, m)[0]


def solutions_mod_m(rows, ncols: int, m: int):
    """(count, solutions) of A x = 0 over Z/m, both from the Howell form of
    A that :func:`_echelon` makes; at a prime m every pivot is 1, no closure
    row is stored, and the form is the echelon form over F_m.

    A column that pivots no row is free and takes m values; one that pivots
    a row with pivot g takes the g values that solve that row, given the
    columns before it.  The count, m per free column times g per pivot
    column, is m**ncols over the order of the row span.  It must equal
    m**ncols over the order of the column span, from the Howell form of the
    transpose: the kernel and the column span together have m**ncols
    elements.  At a prime m the two orders are m to the rank on the rows
    and on the columns.

    The solutions keep the Howell form, and each iteration walks it afresh
    with :func:`_walk`: the columns depth first, in increasing order,
    each through its values in increasing order, so it yields each solution
    once, as a tuple, in increasing lexicographic order, and holds only the
    current one.  The Howell form leaves no prefix without a value; a dead
    end raises all the same.
    """
    echelon = _echelon(m, rows, ncols)
    count = m ** ncols // echelon.order()
    other, rest = divmod(m ** ncols, _echelon(
        m, transpose(rows, ncols), len(rows)).order())
    if (other, rest) != (count, 0):
        raise InternalConsistencyError(
            f"the Howell form counts {count} solutions mod {m}, the Howell "
            f"form of the transpose {other}")
    return count, _Solutions(echelon, ncols)


def kernel_mod_m(rows, ncols: int, m: int):
    """(order, generators) of {x : A x = 0} over Z/m: per branching column
    of the Howell form of A, the solution with that column stepped once from
    0 and the later ones at their least values.  A solution less a multiple
    of the generator of its first nonzero branching column starts later, so
    they span; at a prime m they are the basis of :func:`nullspace_fp`."""
    levels = _levels(_echelon(m, rows, ncols), ncols)
    gens = [{c: v for c, v in enumerate(_step(levels, i, [0] * ncols, m)) if v}
            for i in range(len(levels))]
    return prod(m // d for _, d, _, _ in levels), gens


def span_length(rows, q: int, j: int) -> int:
    """k with q**k the order of the span of ``rows`` over Z/q^j, q prime,
    from its echelon form: at j = 1 the rank over F_q."""
    order, k = _echelon(q ** j, rows).order(), 0
    while order > 1:
        order, k = order // q, k + 1
    return k


class _Block:
    """``count`` solutions over Z/m held as ``values``: bytes, ``w`` to a
    value, big-endian, and ``ncols`` values to a solution, so that the
    solutions order as their bytes do.  w is the least number of bytes, at
    least 1, that holds m - 1: 1 up to m = 256."""

    __slots__ = ("values", "ncols", "w", "count")

    def __init__(self, values: bytes, ncols: int, w: int, count: int):
        self.values, self.ncols, self.w, self.count = values, ncols, w, count

    def __len__(self):
        return self.count


def _pack(solutions: list, ncols: int, m: int) -> _Block:
    """The solutions, tuples of ``ncols`` values over Z/m, as one block; a
    value below 0 or past the block's bytes raises."""
    w = max(1, -(-(m - 1).bit_length() // 8))
    try:
        values = (bytes(chain.from_iterable(solutions)) if w == 1 else
                  b"".join(v.to_bytes(w, "big")
                           for sol in solutions for v in sol))
    except (ValueError, OverflowError):
        raise InternalConsistencyError(
            f"a solution to pack has a value outside 0..{256 ** w - 1}"
        ) from None
    return _Block(values, ncols, w, len(solutions))


class _Solutions:
    """The solutions of a Howell form over Z/m, walked afresh each time they
    are iterated, one at a time or in blocks."""

    __slots__ = ("echelon", "ncols")

    def __init__(self, echelon, ncols: int):
        self.echelon = echelon
        self.ncols = ncols

    def __iter__(self):
        return _walk(self.echelon, self.ncols)

    def blocks(self, size: int):
        """The solutions of the walk, in its order, in blocks of at most
        ``size`` (see :func:`_blocks`)."""
        return _blocks(self.echelon, self.ncols, size)


def _levels(echelon, ncols: int) -> list:
    """(column, step, solve, moves) per branching column of a Howell form
    over Z/m: a free one, or one pivoting with g > 1 and stepping by m/g.
    Once reduced, a row whose pivot is 1 is 0 at every other such pivot, so
    its column is fixed: ``moves`` says how it follows each branching one."""
    m = echelon.m
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
    return levels


def _step(levels, i: int, x: list, m: int) -> list:
    """Step the i-th level of x once, then put each later level at its least
    value given the columns before it; the fixed columns follow.  Returns x."""
    b, d, _, moves = levels[i]
    x[b] += d
    for c, w in moves:
        x[c] = (x[c] + w * d) % m
    for b, _, solve, moves in levels[i + 1:]:
        if solve is None:
            least = 0
        else:
            g, terms = solve
            s = sum(v * x[j] for j, v in terms) % m
            if s % g:
                raise InternalConsistencyError(
                    f"column {b} has no value mod {m} for {tuple(x[:b])}")
            least = s // g
        d = least - x[b]
        if d:
            x[b] = least
            for c, w in moves:
                x[c] = (x[c] + w * d) % m
    return x


def _walk(echelon, ncols: int):
    """The solutions of the rows of a Howell form over Z/m, in increasing
    lexicographic order (see :func:`solutions_mod_m`): the branching columns
    of :func:`_levels` are stepped alone, depth first, from 0."""
    return _walk_levels(_levels(echelon, ncols), [0] * ncols, echelon.m)


def _walk_levels(levels, x: list, m: int):
    """The solutions from x on, stepping only the given levels."""
    while True:
        yield tuple(x)
        # step the last level that has a next value
        i = len(levels) - 1
        while i >= 0 and x[levels[i][0]] + levels[i][1] >= m:
            i -= 1
        if i < 0:
            return
        _step(levels, i, x, m)


def _blocks(echelon, ncols: int, size: int):
    """The solutions of :func:`_walk`, in its order, in blocks of at most
    ``size``.

    The free levels at the end of the walk, as many as give at most
    ``size`` solutions together, form its tail.  Each step of the levels
    before them starts a block, from the solution x with the tail at 0: the
    tail's values enter x linearly, so the block is x plus each solution
    of the tail walked from 0, in turn.  Those sums are made in lanes of one
    byte, one per value, all at once: mod 2 by one XOR, and below m = 129
    by one addition that leaves each lane below 2m, after which m is taken
    from every lane that reaches it.  Elsewhere, and where no level is in
    the tail, the walk is cut into blocks of ``size`` and packed."""
    m = echelon.m
    levels = _levels(echelon, ncols)
    j, count = len(levels), 1
    while j and levels[j - 1][2] is None and (
            count * (m // levels[j - 1][1]) <= size):
        j -= 1
        count *= m // levels[j][1]
    if count == 1 or m > 128:
        walk = _walk_levels(levels, [0] * ncols, m)
        while block := list(islice(walk, size)):
            yield _pack(block, ncols, m)
        return
    tail = int.from_bytes(b"".join(map(bytes, _walk_levels(
        levels[j:], [0] * ncols, m))), "little")
    ones = int.from_bytes(b"\1" * (count * ncols), "little")
    above, high = (128 - m) * ones, 128 * ones
    for x in _walk_levels(levels[:j], [0] * ncols, m):
        lanes = int.from_bytes(bytes(x) * count, "little")
        if m == 2:
            lanes ^= tail
        else:
            lanes += tail
            lanes -= (((lanes + above) & high) >> 7) * m
        yield _Block(lanes.to_bytes(count * ncols, "little"), ncols, 1, count)
