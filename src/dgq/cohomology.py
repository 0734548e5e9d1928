"""Groupoid cohomology, the box double complex, and its long exact sequence.

Cochain conventions: ``C^n(G, M)`` has basis the composable n-tuples with no
identity coordinate (objects at n = 0); the differential is the alternating
sum with composed-coordinate terms landing on 0 whenever the composition
degenerates.  The double complex of a double groupoid has ``D^(r,s)`` spanned
by r x s grids of boxes composable in both directions, with edge rows/columns
the plain edge-groupoid complexes and the corner the point functions.

Two degeneracy conventions are implemented:

* ``strict`` (default): a grid is degenerate as soon as any cell is a
  vertical- or horizontal-identity box (any r, s >= 1), matching the
  normalized bar complex in both directions.  This is a genuine sub-double-
  complex: all d.d = 0 checks hold.
* ``literal``: the asymmetric thresholds (horizontal-identity cells only
  degenerate when r > 1, vertical-identity cells only when s > 1, edge tuples
  only in length > 1).  Kept for experiment; it is *not* closed under the
  differentials, so d.d = 0 can fail.

The total differential uses the sign trick: the vertical component out of
bidegree (r, s) carries (-1)**s.

The cohomology of a groupoid is that of its vertex groups.  A group's is
read from a free RG-resolution built greedily over R = Z/q^v, F_p being
Z/p: F_0 = RG over the augmentation, and each next F_(n+1) has one
generator per kernel generator of d_n whose G-translates were still needed
to span that kernel; ``linalg`` gives the kernels and the spans.  The
cochains Hom_G(F_n, R) have one cell per generator, and the coboundary
sums each generator's image coefficients over G.  Over Z the q-torsion,
q^v exactly dividing the order, comes from H^n(G; Z/q^v), whose type the
orders of H^n(G; Z/q^j), j <= v, give.  Only a total complex over Z, whose
torsion has no bound known in advance, takes a Smith form.
"""

from __future__ import annotations

from collections import Counter
from math import prod

from .double import DoubleGroupoid
from .errors import (InternalConsistencyError, ResourceBudgetError,
                     StructureError, TruncationError)
from .fields import _is_prime, prime_powers
from .groupoids import Groupoid, connected_decomposition
# nullity_fp and rank_z are not called here, but perfbench/tracing.py binds
# them under this module's name, so they stay importable from it
from .linalg import (SubquotientFp, _echelon,  # noqa: F401
                     elementary_divisors, invariant_factors, is_zero_matrix,
                     kernel_mod_m, matmul, nullity_fp, nullspace_fp, rank_fp,
                     rank_z, span_length, sparse_row, transpose)
from .matched import diagonal_groupoid, from_vacant_double

# the largest tuple or grid basis a complex is built on; a larger one raises
# a resource error before its differential is built
BUDGET = 500000


# -- single groupoid complex ---------------------------------------------


def nerve(g: Groupoid, n: int) -> list[tuple]:
    """Normalized tuple basis: objects at n = 0, else composable n-tuples of
    non-identity arrows, lexicographically sorted."""
    if n < 0:
        raise StructureError("degree must be nonnegative")
    if n == 0:
        return [(p,) for p in range(g.n_objects)]
    chains = [(f,) for f in g.arrows() if not g.is_identity(f)]
    for _ in range(n - 1):
        chains = [c + (f,) for c in chains for f in g.arrows()
                  if g.target[c[-1]] == g.source[f] and not g.is_identity(f)]
    return sorted(chains)


def _bar_faces(chain, compose_fn):
    """(face, sign) pairs of the bar differential applied at an (n+1)-tuple;
    a composed face outside the source basis is degenerate."""
    n = len(chain) - 1
    out = [(chain[1:], 1)]
    sign = -1
    for i in range(n):
        out.append((compose_fn(chain, i), sign))
        sign = -sign
    out.append((chain[:-1], sign))
    return out


def _groupoid_faces(g: Groupoid, n: int):
    """The faces, with signs, that the degree-n coboundary of g reads at an
    (n+1)-tuple of arrows."""
    if n == 0:
        return lambda chain: [((g.target[chain[0]],), 1),
                              ((g.source[chain[0]],), -1)]

    def compose(chain, i):
        return chain[:i] + (g.compose[chain[i]][chain[i + 1]],) + chain[i + 2:]
    return lambda chain: _bar_faces(chain, compose)


def _coboundary_rows(src_index, tgt, faces):
    """One sparse row per target basis element: the signs of its faces,
    summed over the faces that lie in the source basis (a composed
    coordinate may degenerate and drop out).  Each row is built in one pass
    over its faces; an entry that sums to 0 is deleted, so no row stores a
    zero."""
    where = src_index.get
    rows = []
    for chain in tgt:
        row: dict[int, int] = {}
        for f, sign in faces(chain):
            c = where(f)
            if c is not None:
                v = row.get(c, 0) + sign
                if v:
                    row[c] = v
                else:
                    del row[c]
        rows.append(row)
    return rows


class FpGroup:
    def __init__(self, dim: int):
        self.dim = dim

    def __eq__(self, other):
        return isinstance(other, FpGroup) and self.dim == other.dim

    def __hash__(self):
        return hash(self.dim)

    def __repr__(self):
        return f"FpGroup({self.dim})"

    def __str__(self):
        return f"dim {self.dim}"


class ZGroup:
    def __init__(self, rank: int, torsion: tuple[int, ...]):
        self.rank = rank
        self.torsion = torsion

    def __eq__(self, other):
        return (isinstance(other, ZGroup) and (self.rank, self.torsion)
                == (other.rank, other.torsion))

    def __hash__(self):
        return hash((self.rank, self.torsion))

    def __repr__(self):
        return f"ZGroup({self.rank}, {self.torsion})"

    def __str__(self):
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


class AbelianInvariants:
    """The invariant factors d1 | d2 | ... of a finite abelian group."""

    def __init__(self, divisors: tuple[int, ...]):
        self.divisors = divisors

    def __repr__(self):
        return f"AbelianInvariants({self.divisors})"

    def order(self) -> int:
        return prod(self.divisors)

    def __str__(self):
        return " + ".join(f"Z/{d}" for d in self.divisors) if self.divisors else "0"


class CohomologyReport:
    def __init__(self, coefficients: str, groups: list):
        self.coefficients = coefficients
        self.groups = groups


def _coefficients(coefficients) -> tuple[str, int]:
    """(kind, modulus) of 'Z', with modulus 0, of ('Fp', p), p prime, or of
    ('Z/m', m), m >= 1 an int; anything else raises."""
    if coefficients == "Z":
        return "Z", 0
    pair = type(coefficients) is tuple and len(coefficients) == 2
    kind, m = coefficients if pair else (None, None)
    if kind == "Fp" and type(m) is int and not _is_prime(m):
        raise StructureError("field coefficients need a prime characteristic")
    if kind not in ("Fp", "Z/m") or type(m) is not int or m < 1:
        raise StructureError("coefficients must be 'Z', ('Fp', p) with p "
                             "prime or ('Z/m', m) with m >= 1 an int")
    return kind, m


def _cohomology(mats, dims, coefficients) -> list:
    """H^0..H^N of the cochain complex with differentials ``mats[n]``:
    C^n -> C^(n+1), n = 0..N, where ``dims[n]`` = dim C^n, with coefficients
    'Z', ('Fp', p) or ('Z/m', m), m >= 1.

    A differential comes as face rows, one per cell of C^(n+1) with entries
    at C^n.  Over Z each matrix with a nonzero entry is reduced once, to a
    Smith form, whose length is the rank of d_n and whose entries above 1
    are the torsion of H^(n+1).  A matrix with no nonzero entry has rank 0.

    Over Z/m, for each q^v exactly dividing m and j <= v, |H^n(Z/q^j)| is
    q^(j dim C^n) over the orders of the spans of d_n and d_(n-1) mod q^j;
    that exponent grows from j - 1 to j by the number of summands of
    H^n(Z/q^v) of order q^j or more.  F_p is read as Z/p, and H^n as the
    FpGroup of its number of summands."""
    kind, modulus = _coefficients(coefficients)
    if kind == "Z":
        groups, prev = [], []
        for m, dim in zip(mats, dims):
            divisors = elementary_divisors(m, dim) if any(m) else []
            groups.append(ZGroup(dim - len(divisors) - len(prev),
                                 tuple(d for d in prev if d > 1)))
            prev = divisors
        return groups
    mats, parts = list(mats), [[] for _ in dims]
    for q, v in prime_powers(modulus):
        spans = [[0] * v] + [[span_length(mat, q, j)
                              for j in range(1, v + 1)] for mat in mats]
        for n, (dim, here, below) in enumerate(zip(dims, spans[1:], spans)):
            e = [0] + [j * dim - s - r for j, s, r
                       in zip(range(1, v + 1), here, below)]
            at_least = [y - x for x, y in zip(e, e[1:])] + [0]
            if sorted(at_least, reverse=True) != at_least:
                raise InternalConsistencyError(
                    f"H^{n} has {q}^{e} elements mod {q}^j")
            parts[n] += [q ** sum(k >= i for k in at_least)
                         for i in range(1, at_least[0] + 1)]
    if kind == "Fp":
        return [FpGroup(len(ds)) for ds in parts[:len(mats)]]
    return [AbelianInvariants(tuple(d for d in invariant_factors(ds) if d > 1))
            for ds in parts[:len(mats)]]


def groupoid_cohomology(g: Groupoid, n_max: int, coefficients,
                        budget: int = BUDGET) -> CohomologyReport:
    """H^0..H^n_max with coefficients 'Z' or ('Fp', p), p prime.

    Cohomology with constant coefficients is invariant under equivalence,
    and a groupoid is equivalent to the disjoint union of the vertex groups
    of its components.  So H^n(g) is the direct sum over the components of
    H^n of the vertex group, computed once per distinct vertex table: F_p
    dimensions and Z ranks add, and Z torsion is merged into invariant
    factors.  A vertex group with k non-identity elements has k^n bar cells
    in degree n; if any degree up to n_max + 1 of any vertex group would
    exceed the budget, a resource error names the first such degree before
    any row is built.  A vertex group goes through
    :func:`_resolution_cohomology` over F_p, as over Z/p, and through
    :func:`_integral_cohomology` over Z; no Smith form runs."""
    kind, p = _coefficients(coefficients)
    if kind == "Z/m":
        raise StructureError("groupoid cohomology takes 'Z' or ('Fp', p)")
    if n_max < 0:
        raise StructureError("degree must be nonnegative")
    keys = [tuple(map(tuple, comp.vertex_table))
            for comp in connected_decomposition(g)]
    tables = dict.fromkeys(keys)
    for n in range(n_max + 2):
        if any((len(key) - 1) ** n > budget for key in tables):
            raise ResourceBudgetError(
                f"degree {n} basis exceeds the budget {budget}")
    for key in tables:
        tables[key] = (_resolution_cohomology(key, n_max, p, budget) if p
                       else _integral_cohomology(key, n_max, budget))
    return CohomologyReport("Z" if kind == "Z" else f"F{p}",
                            [_direct_sum(summands) for summands in
                             zip(*(tables[key] for key in keys))])


def _resolution_cohomology(table, n_max: int, q: int, budget: int,
                           v: int = 1) -> list:
    """H^0..H^n_max over F_q at v = 1, else over Z/q^v, of the group with
    Cayley table ``table``, from a free RG-resolution F_n = (RG)^(r_n), R =
    Z/q^v, built greedily (Brown, *Cohomology of Groups*, I.2-I.5; Ellis,
    J. Symbolic Comput. 38, 2004).

    The cell i |G| + h of F_n is h times its i-th generator, and g moves it
    to i |G| + g h; F_0 = RG maps onto R by the augmentation.  The kernel
    of d_n comes from :func:`kernel_mod_m`, with its order.  Its generators
    are walked in order: one outside the span so far, an echelon form over
    Z/q^v, becomes a generator of F_(n+1), which d_(n+1) maps to it, and
    its translates join the span until its order is the kernel's.  A G-map
    F_n -> R is its values on the r_n generators, so the coboundary is
    r_(n+1) x r_n: at a generator, its image's coefficients summed over G.

    |G| r_n is checked against the budget before each kernel is taken.
    d_(n-1) d_n must be 0 mod q^v on every cell, so that the translates lie
    in the kernel, and the order of their span must reach the kernel's."""
    order, m = len(table), q ** v
    images, below = [{0: 1}] * order, 1     # the augmentation, on F_0
    ranks, coboundaries = [1], []
    for n in range(n_max + 1):
        dim = order * ranks[n]
        if dim > budget:
            raise ResourceBudgetError(
                f"degree {n} of the resolution exceeds the budget {budget}")
        size, kernel = kernel_mod_m(transpose(images, below), dim, m)
        span = _echelon(m, ncols=dim)
        gens = []
        for w in kernel:
            if span.order() == size:
                break
            if span.add(w):
                gens.append(w)
                for h in table:
                    if span.order() == size:
                        break
                    span.add(_translate(w, h, order))
        if span.order() != size:
            raise InternalConsistencyError(
                f"the translates of the generators of F_{n + 1} span a group "
                f"of order {span.order()} in a kernel of order {size}")
        new = [_translate(w, h, order) for w in gens for h in table]
        if any(x % m for row in matmul(new, images) for x in row.values()):
            raise InternalConsistencyError(f"d_{n} d_{n + 1} is not 0 mod {m}")
        coboundaries.append([sparse_row((c // order, x) for c, x in w.items())
                             for w in gens])
        ranks.append(len(gens))
        images, below = new, dim
    return _cohomology(coboundaries, ranks,
                       ("Fp", q) if v == 1 else ("Z/m", m))


def _translate(v, h, order: int) -> dict[int, int]:
    """g v, where ``h`` is g's row of the Cayley table."""
    return {c - c % order + h[c % order]: x for c, x in v.items()}


def _integral_cohomology(table, n_max: int, budget: int) -> list:
    """H^0..H^n_max over Z, as :func:`_cohomology` gives them, of the group
    with Cayley table ``table``.  For n >= 1 |G| kills H^n(G; Z) (Brown,
    III.10), so q^v, exactly dividing |G|, kills its q-part T_n, and
    H^n(G; Z/q^v) = T_n + T_(n+1) (universal coefficients).  T_1 = 0, as
    H^1(G; Z) = Hom(G, Z), so T_(n+1) is the type of H^n(G; Z/q^v) less
    T_n, as multisets; at v = 1 that is (Z/q)^(dim H^n(G; F_q)).  Checked:
    H^0(G; Z/q^v) = Z/q^v, T_n lies in H^n, and at v >= 2 H^n has
    dim H^n(G; F_q) summands, from a resolution over F_q of its own."""
    torsion = [Counter() for _ in range(n_max + 1)]
    for q, v in prime_powers(len(table)):
        dims = [grp.dim for grp in
                _resolution_cohomology(table, n_max, q, budget)]
        types = [(q,) * dim for dim in dims] if v == 1 else [
            grp.divisors for grp in
            _resolution_cohomology(table, n_max, q, budget, v)]
        if [len(ds) for ds in types] != dims or types[0] != (q ** v,):
            raise InternalConsistencyError(
                f"H^0..H^{n_max} over Z/{q ** v} read {types}, over F_{q} "
                f"dimensions {dims}")
        t = Counter()
        for n, ds in enumerate(types[1:], 1):
            torsion[n] += t
            if t - Counter(ds):
                raise InternalConsistencyError(
                    f"T_{n} = {sorted(t.elements())} does not lie in "
                    f"H^{n} over Z/{q ** v}, {ds}")
            t = Counter(ds) - t
    return [ZGroup(1, ())] + [
        ZGroup(0, tuple(d for d in invariant_factors(ts.elements()) if d > 1))
        for ts in torsion[1:]]


def _direct_sum(summands):
    """One cohomology group of a disjoint union from those of its parts."""
    if isinstance(summands[0], FpGroup):
        return FpGroup(sum(grp.dim for grp in summands))
    torsion = invariant_factors(d for grp in summands for d in grp.torsion)
    return ZGroup(sum(grp.rank for grp in summands),
                  tuple(d for d in torsion if d > 1))


# -- the double complex -----------------------------------------------------


class DoubleComplexSpec:
    def __init__(self, t: DoubleGroupoid, bound: int, normalization: str):
        self.t = t
        self.bound = bound
        self.normalization = normalization
        self.basis: dict = {}     # (r, s) -> list of grids
        self.index: dict = {}
        self.d_h: dict = {}       # (r, s) -> matrix to (r, s+1)
        self.d_v: dict = {}       # (r, s) -> matrix to (r+1, s)

    def positions(self, degree: int):
        return [(r, degree - r) for r in range(degree + 1)]

    def dim(self, r: int, s: int) -> int:
        return len(self.basis[(r, s)])


def _grid_rows(t: DoubleGroupoid, s: int):
    rows = [(a,) for a in t.boxes()]
    for _ in range(s - 1):
        rows = [row + (b,) for row in rows for b in t.boxes()
                if t.right[row[-1]] == t.left[b]]
    return rows


def _grid_degenerate(t: DoubleGroupoid, grid, r: int, s: int, mode: str) -> bool:
    if mode == "strict":
        return any(t.is_vid(a) or t.is_hid(a) for row in grid for a in row)
    # literal thresholds: hid cells degenerate only for r > 1, vid only s > 1
    if r > 1 and any(t.is_hid(a) for row in grid for a in row):
        return True
    if s > 1 and any(t.is_vid(a) for row in grid for a in row):
        return True
    return False


def build_double_complex(t: DoubleGroupoid, bound: int,
                         normalization: str = "strict") -> DoubleComplexSpec:
    """Bases and both differentials for all bidegrees with r + s <= bound; a
    basis above :data:`BUDGET` raises a resource error."""
    if normalization not in ("strict", "literal"):
        raise StructureError("normalization must be 'strict' or 'literal'")
    spec = DoubleComplexSpec(t, bound, normalization)
    hz, vt = t.horiz, t.vert
    # bases
    for total in range(bound + 1):
        for r in range(total + 1):
            s = total - r
            if r == 0 and s == 0:
                basis = [(p,) for p in range(t.n_points)]
            elif r == 0 or s == 0:
                g, length = (vt, r) if s == 0 else (hz, s)
                if normalization == "literal" and length == 1:
                    # literal thresholds: edge identities are kept here
                    basis = [(f,) for f in g.arrows()]
                else:
                    basis = nerve(g, length)
            else:
                rows = _grid_rows(t, s)
                by_top = {}
                for row in rows:
                    by_top.setdefault(tuple(t.top[a] for a in row), []).append(row)
                grids = [(row,) for row in rows]
                for _ in range(r - 1):
                    grids = [g + (row,)
                             for g in grids
                             for row in by_top.get(
                                 tuple(t.bottom[a] for a in g[-1]), [])]
                basis = sorted(g for g in grids
                               if not _grid_degenerate(t, g, r, s, normalization))
            if len(basis) > BUDGET:
                raise ResourceBudgetError(
                    f"basis at bidegree ({r},{s}) exceeds budget")
            spec.basis[(r, s)] = basis
            spec.index[(r, s)] = {g: i for i, g in enumerate(basis)}
    # differentials
    for total in range(bound):
        for r in range(total + 1):
            s = total - r
            spec.d_v[(r, s)] = _vertical_matrix(spec, r, s)
            spec.d_h[(r, s)] = _horizontal_matrix(spec, r, s)
    return spec


def _vertical_matrix(spec: DoubleComplexSpec, r: int, s: int):
    t = spec.t
    if s == 0:
        faces = _groupoid_faces(t.vert, r)
    elif r == 0:
        # one-row grids: f(bottom edges) - f(top edges)
        def faces(grid):
            (row,) = grid
            return [(tuple(t.bottom[a] for a in row), 1),
                    (tuple(t.top[a] for a in row), -1)]
    else:
        def compose(chain, i):
            merged = tuple(t.vcomp[a][b] for a, b in zip(chain[i], chain[i + 1]))
            return chain[:i] + (merged,) + chain[i + 2:]

        def faces(grid):
            return _bar_faces(grid, compose)
    return _coboundary_rows(spec.index[(r, s)], spec.basis[(r + 1, s)], faces)


def _horizontal_matrix(spec: DoubleComplexSpec, r: int, s: int):
    t = spec.t
    if r == 0:
        faces = _groupoid_faces(t.horiz, s)
    elif s == 0:
        # one-column grids: f(right edges) - f(left edges)
        def faces(grid):
            return [(tuple(t.right[row[0]] for row in grid), 1),
                    (tuple(t.left[row[0]] for row in grid), -1)]
    else:
        def faces(grid):
            out = [(tuple(row[1:] for row in grid), 1)]
            sign = -1
            for j in range(len(grid[0]) - 1):
                merged = tuple(row[:j] + (t.hcomp[row[j]][row[j + 1]],) + row[j + 2:]
                               for row in grid)
                out.append((merged, sign))
                sign = -sign
            out.append((tuple(row[:-1] for row in grid), sign))
            return out
    return _coboundary_rows(spec.index[(r, s)], spec.basis[(r, s + 1)], faces)


# -- total complexes -----------------------------------------------------


_PARTS = ("D", "A", "E")


def _part_positions(spec: DoubleComplexSpec, part: str, degree: int):
    if part == "D":
        keep = lambda r, s: True
    elif part == "A":
        keep = lambda r, s: r >= 1 and s >= 1
    elif part == "E":
        keep = lambda r, s: r == 0 or s == 0
    else:
        raise StructureError(f"unknown part {part!r}; want one of {_PARTS}")
    return [(r, s) for (r, s) in spec.positions(degree) if keep(r, s)]


def total_dim(spec: DoubleComplexSpec, part: str, degree: int) -> int:
    return sum(spec.dim(r, s) for r, s in _part_positions(spec, part, degree))


def _offsets(spec: DoubleComplexSpec, part: str, degree: int) -> dict:
    """Where each position's block starts in the part's total term."""
    off = {}
    acc = 0
    for pos in _part_positions(spec, part, degree):
        off[pos] = acc
        acc += spec.dim(*pos)
    return off


def total_matrix(spec: DoubleComplexSpec, part: str, degree: int):
    """Matrix of the total differential Tot^degree -> Tot^(degree+1).

    Block columns/rows are ordered by increasing r.  The vertical block out
    of (r, s) carries the sign (-1)**s.
    """
    if degree + 1 > spec.bound:
        raise TruncationError(
            f"complex built to total degree {spec.bound}; degree {degree + 1} "
            "is missing")
    tgt_off = _offsets(spec, part, degree + 1)
    out = [{} for _ in range(total_dim(spec, part, degree + 1))]
    for (r, s), coff in _offsets(spec, part, degree).items():
        # horizontal component into (r, s+1); vertical into (r+1, s) with
        # the sign trick.  The two land in different row blocks, so no
        # entry is written twice.
        for pos, block, sign in (((r, s + 1), spec.d_h[(r, s)], 1),
                                 ((r + 1, s), spec.d_v[(r, s)],
                                  -1 if s % 2 else 1)):
            if pos not in tgt_off:
                continue
            for i, brow in enumerate(block, tgt_off[pos]):
                orow = out[i]
                for j, v in brow.items():
                    orow[coff + j] = sign * v
    return out


def _total_complex(spec: DoubleComplexSpec, part: str, top: int):
    """The differentials of a total complex out of degrees 0..top-1, each
    built once, with their term dimensions; d.d = 0 is checked here."""
    mats = [total_matrix(spec, part, n) for n in range(top)]
    for n in range(1, top):
        if not is_zero_matrix(matmul(mats[n], mats[n - 1])):
            raise StructureError(
                f"d.d != 0 into total degree {n + 1} of part {part}; "
                "the chosen normalization is not closed under the "
                "differentials, so these groups do not exist")
    return mats, [total_dim(spec, part, n) for n in range(top)]


def total_cohomology(spec: DoubleComplexSpec, part: str, n: int,
                     coefficients) -> object:
    """H^n of the chosen total complex ('D', 'A' or 'E').

    For part 'A' the degree is the shifted one: H^n(Tot A) is computed at
    internal total degree n + 2, matching A^(r,s) = D^(r+1,s+1).
    """
    internal = n + 2 if part == "A" else n
    if internal < 0:
        raise StructureError("negative degree")
    return _cohomology(*_total_complex(spec, part, internal + 1),
                       coefficients)[internal]


# -- Aut / Opext ------------------------------------------------------------


def aut_and_opext(t: DoubleGroupoid,
                  m: int) -> tuple[AbelianInvariants, AbelianInvariants]:
    """(H^0(Tot A, Z/m), H^1(Tot A, Z/m)) as abelian groups, read by
    :func:`_cohomology` over Z/m from counts: ranks over F_q and Howell
    forms mod q^j, for each q^v exactly dividing m and j <= v.  m = 1 gives
    trivial groups; m < 1 is refused."""
    from .cocycles import _require_modulus
    from .double import require_vacant
    _require_modulus(m)
    require_vacant(t)
    # H^0 and H^1 of Tot A sit at internal degrees 2 and 3
    spec = build_double_complex(t, 4)
    h = _cohomology(*_total_complex(spec, "A", 4), ("Z/m", m))
    return h[2], h[3]


# -- the long exact sequence --------------------------------------------------


class NodeCheck:
    def __init__(self, label: str, dim: int, rank_in: int, rank_out: int,
                 composite_zero: bool):
        self.label = label
        self.dim = dim
        self.rank_in = rank_in
        self.rank_out = rank_out
        self.composite_zero = composite_zero

    @property
    def exact(self) -> bool:
        return self.composite_zero and self.rank_in + self.rank_out == self.dim


class KacReport:
    def __init__(self, p: int, h_diag: list[int], h_horiz: list[int],
                 h_vert: list[int], tot_d: list[int], tot_e: list[int],
                 aut_dim: int, opext_dim: int, kes_aux: dict[int, bool],
                 tot_e_split: dict[int, bool], nodes: list[NodeCheck]):
        self.p = p
        self.h_diag = h_diag          # dim H^n(D_groupoid), n = 0..3
        self.h_horiz = h_horiz
        self.h_vert = h_vert
        self.tot_d = tot_d            # dim H^n(Tot D), n = 0..3
        self.tot_e = tot_e
        self.aut_dim = aut_dim        # dim H^0(Tot A)
        self.opext_dim = opext_dim    # dim H^1(Tot A)
        self.kes_aux = kes_aux
        self.tot_e_split = tot_e_split
        self.nodes = nodes

    @property
    def exact(self) -> bool:
        return all(node.exact for node in self.nodes)

    def paper_groups(self) -> list[tuple[str, int]]:
        """The nine groups in the order of the long sequence, with the
        edge-complex terms under their direct-sum labels.

        The E-terms are H^n(horiz)+H^n(vert), not the H^n(Tot E) used in the
        exactness check; at n = 1 the two differ by delta (see
        :func:`kac_report`), which is nonzero on multi-point grids."""
        return [
            ("H1(diagonal)", self.h_diag[1]),
            ("H1(horiz)+H1(vert)", self.h_horiz[1] + self.h_vert[1]),
            ("H0(Tot A)", self.aut_dim),
            ("H2(diagonal)", self.h_diag[2]),
            ("H2(horiz)+H2(vert)", self.h_horiz[2] + self.h_vert[2]),
            ("H1(Tot A)", self.opext_dim),
            ("H3(diagonal)", self.h_diag[3]),
            ("H3(horiz)+H3(vert)", self.h_horiz[3] + self.h_vert[3]),
        ]


class _TotalH:
    """Cohomology spaces of one total complex with coordinates, plus the
    position layout needed to move vectors between D, A and E.

    Each differential out of a degree in ``degrees`` is reduced once, for
    its nullspace.  The lowest degree has no term below it (Tot A none below
    internal degree 2), so nothing maps into it.  Then dim H^n is reached
    twice: as the dimension of the subquotient, and by rank arithmetic, the
    nullity of d_n less the rank of d_(n-1)."""

    def __init__(self, spec, part, cx, p, degrees):
        mats, dims = cx
        self.layout = {n: _offsets(spec, part, n) for n in range(spec.bound + 1)}
        self.h = {}
        rank_in = 0
        for n in degrees:
            z = nullspace_fp(mats[n], dims[n], p)
            b = transpose(mats[n - 1], dims[n - 1]) if n > 0 else []
            self.h[n] = SubquotientFp(dims[n], z, b, p)
            if self.h[n].dim != len(z) - rank_in:
                raise InternalConsistencyError(
                    f"two routes to H of Tot {part} disagree in internal "
                    f"degree {n}")
            rank_in = dims[n] - len(z)

    def dim(self, n):
        return self.h[n].dim


def _move(spec, vec, layout_from, layout_to):
    """Carry a sparse vector between two part layouts of one total degree:
    entries at positions both share keep their place in the block, the rest
    are dropped (and positions only the target has stay zero)."""
    shifts = [(off, off + spec.dim(*pos), layout_to[pos] - off)
              for pos, off in layout_from.items() if pos in layout_to]
    return {i + shift: v for i, v in vec.items()
            for lo, hi, shift in shifts if lo <= i < hi}


def kac_report(t: DoubleGroupoid, p: int,
               normalization: str = "strict") -> KacReport:
    """Everything the long exact sequence says at desk scale, over F_p.

    Computes H^n of the diagonal groupoid, the two edge groupoids and the
    three total complexes; cross-checks dim H^n(Tot D) = dim H^n(diagonal);
    and verifies exactness of the nine-term sequence by rank arithmetic on
    connecting maps realized from the chain-level inclusion/projection of
    the short exact sequence of complexes.  The dimensions of H(Tot D),
    H(Tot E) and H(Tot A) are each reached twice, by rank arithmetic and by
    explicit subquotients, and must agree.  :func:`from_vacant_double`
    first refuses a table that is not a vacant double groupoid.

    ``tot_e_split[n]`` reports whether the naive edge splitting
    dim H^n(Tot E) = dim H^n(horiz) + dim H^n(vert) holds.  It is expected
    False at n = 1 whenever delta = |P| - c_H - c_V + c_{H v V} > 0 (c counts
    components of the horizontal, vertical and joint edge groupoids): by
    Mayer-Vietoris, H^1(Tot E) exceeds the sum by exactly delta, while the
    splitting holds for n >= 2.
    """
    mp = from_vacant_double(t)
    _coefficients(("Fp", p))
    # The total complexes come first: a grid that fails d.d = 0 (possible
    # under the literal normalization) is refused before any groupoid
    # cohomology runs, and no total matrix is left alive while the
    # diagonal groupoid's nerve is reduced.
    tot_d, tot_e, tot_a, nodes = _sequence(t, p, normalization)
    coeff = ("Fp", p)
    diag = diagonal_groupoid(mp).groupoid
    h_diag, h_horiz, h_vert = (
        [grp.dim for grp in groupoid_cohomology(g, 3, coeff).groups]
        for g in (diag, t.horiz, t.vert))
    kes_aux = {n: tot_d[n] == h_diag[n] for n in (1, 2, 3)}
    split = {n: tot_e[n] == h_horiz[n] + h_vert[n] for n in (1, 2, 3)}
    return KacReport(p, h_diag, h_horiz, h_vert, tot_d, tot_e, *tot_a,
                     kes_aux, split, nodes)


def _sequence(t: DoubleGroupoid, p: int, normalization: str):
    """dim H^n over F_p of Tot D and Tot E for n = 0..3 and of Tot A in
    internal degrees 2 and 3, and the exactness checks of the long sequence
    at each node."""
    spec = build_double_complex(t, 4, normalization)
    # the sequence runs through H^3 of Tot D and Tot E and H^1 of Tot A
    # (internal degree 3); the snake map out of H^3(Tot E) lands in degree 4
    complexes = {part: _total_complex(spec, part, 4) for part in "DEA"}
    hd = _TotalH(spec, "D", complexes["D"], p, range(4))
    he = _TotalH(spec, "E", complexes["E"], p, range(4))
    ha = _TotalH(spec, "A", complexes["A"], p, range(2, 4))   # internal

    # A map between cohomology spaces is kept as the images of the source
    # representatives in target coordinates, one sparse row each: the
    # transpose of its matrix, which has the same rank.
    def induced(src, tgt, n):
        """H^n(src) -> H^n(tgt) from the chain-level inclusion or
        projection."""
        return [tgt.h[n].coords(_move(spec, rep, src.layout[n], tgt.layout[n]))
                for rep in src.h[n].reps]

    def snake_images(n):
        """Cocycles of A' representing the snake map on H^n(E): lift each
        representative by zero fill, apply the D differential, read off the
        interior part."""
        lifts = [_move(spec, rep, he.layout[n], hd.layout[n])
                 for rep in he.h[n].reps]
        d_mats, d_dims = complexes["D"]
        out = []
        for image in matmul(lifts, transpose(d_mats[n], d_dims[n])):
            edge_part = _move(spec, image, hd.layout[n + 1], he.layout[n + 1])
            if any(v % p for v in edge_part.values()):
                raise InternalConsistencyError(
                    "lifted cocycle has a nonzero edge differential")
            out.append(_move(spec, image, hd.layout[n + 1], ha.layout[n + 1]))
        return out

    def connecting(n):
        return [ha.h[n + 1].coords(v) for v in snake_images(n)]

    def connecting_rank_only(n):
        """Rank of H^n(E) -> H^(n+1)(A') without building H^(n+1)(A'): the
        number of images independent modulo the coboundaries of A'."""
        a_mats, a_dims = complexes["A"]
        return SubquotientFp(len(a_mats[n]), snake_images(n),
                             transpose(a_mats[n], a_dims[n]), p).dim

    maps = {
        "pi1": induced(hd, he, 1), "delta1": connecting(1),
        "iota2": induced(ha, hd, 2), "pi2": induced(hd, he, 2),
        "delta2": connecting(2),
        "iota3": induced(ha, hd, 3), "pi3": induced(hd, he, 3),
    }
    ranks = {k: rank_fp(v, p) for k, v in maps.items()}
    ranks["delta3"] = connecting_rank_only(3)

    def composite_zero(m_out, m_in):
        # images of the composite: each image under m_in, carried by m_out
        return all(v % p == 0 for row in matmul(m_in, m_out)
                   for v in row.values())

    # delta3 after pi3 vanishes automatically; checked through ranks below
    nodes = [
        NodeCheck("H1(Tot D)", hd.dim(1), 0, ranks["pi1"], True),
        NodeCheck("H1(Tot E)", he.dim(1), ranks["pi1"], ranks["delta1"],
                  composite_zero(maps["delta1"], maps["pi1"])),
        NodeCheck("H0(Tot A)", ha.dim(2), ranks["delta1"], ranks["iota2"],
                  composite_zero(maps["iota2"], maps["delta1"])),
        NodeCheck("H2(Tot D)", hd.dim(2), ranks["iota2"], ranks["pi2"],
                  composite_zero(maps["pi2"], maps["iota2"])),
        NodeCheck("H2(Tot E)", he.dim(2), ranks["pi2"], ranks["delta2"],
                  composite_zero(maps["delta2"], maps["pi2"])),
        NodeCheck("H1(Tot A)", ha.dim(3), ranks["delta2"], ranks["iota3"],
                  composite_zero(maps["iota3"], maps["delta2"])),
        NodeCheck("H3(Tot D)", hd.dim(3), ranks["iota3"], ranks["pi3"],
                  composite_zero(maps["pi3"], maps["iota3"])),
        NodeCheck("H3(Tot E)", he.dim(3), ranks["pi3"], ranks["delta3"], True),
    ]
    return ([hd.dim(n) for n in range(4)], [he.dim(n) for n in range(4)],
            (ha.dim(2), ha.dim(3)), nodes)


def commutation_defect(spec: DoubleComplexSpec):
    """First bidegree where d_h d_v != d_v d_h before the sign trick, or
    None; the sign trick then makes the total differential square to zero."""
    for (r, s) in sorted(spec.d_h):
        if (r + 1, s) not in spec.d_h or (r, s + 1) not in spec.d_v:
            continue
        left = matmul(spec.d_h[(r + 1, s)], spec.d_v[(r, s)])
        right = matmul(spec.d_v[(r, s + 1)], spec.d_h[(r, s)])
        if left != right:
            return (r, s)
    return None
