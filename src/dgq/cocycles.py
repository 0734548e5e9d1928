"""Normalized 2-cocycle pairs on a double groupoid, with values in Z/m.

A pair (sigma, tau) assigns sigma to vertically composable box pairs and tau
to horizontally composable ones, written additively.  Validity means: each is
a normalized groupoid 2-cocycle on its box groupoid, and the joint square
compatibility holds.  The valid pairs are the solutions Z of a linear system
over Z/m, walked in order through its Howell form in blocks of tuples.
Before any is written, the solutions are checked a block at a time: each
block whole for its sizes and order, then as bytes, read as one int per
solution column with one solution per lane, on which each identity row is
a few additions, its failing lanes ORed into a mask.  The writer
(:func:`dgq.io.cocycle_texts`) takes the same blocks.  The gauge classes
are the cosets in Z of the image of the gauge map, counted without listing
pairs or gauges: from ranks over F_p at a squarefree m, elsewhere from
Howell forms, each checked against that of its transpose; the gauge map
must vanish on the system first.  Field realization (zeta ** value) is a
separate explicit step, so enumeration and counting stay integer problems.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import itemgetter, lt

from .double import DoubleGroupoid
from .errors import (InternalConsistencyError, Report, ResourceBudgetError,
                     StructureError, UnembeddableError)
from .fields import FieldSpec
from .linalg import count_solutions_mod_m, solutions_mod_m


class CocyclePair:
    """Values aligned with ``t.pair_domains()``: ``sigma[i]`` belongs to the
    i-th sorted vertically composable pair, ``tau[j]`` to the j-th sorted
    horizontally composable pair.  Instances are immutable by convention."""

    __slots__ = ("modulus", "sigma", "tau")

    def __init__(self, modulus: int, sigma: tuple[int, ...], tau: tuple[int, ...]):
        self.modulus = modulus
        self.sigma = sigma
        self.tau = tau

    def __eq__(self, other):
        return (isinstance(other, CocyclePair) and (self.modulus, self.sigma, self.tau)
                == (other.modulus, other.sigma, other.tau))

    def __hash__(self):
        return hash((self.modulus, self.sigma, self.tau))

    def __repr__(self):
        return f"CocyclePair({self.modulus}, {self.sigma}, {self.tau})"


def zero_pair(t: DoubleGroupoid, m: int) -> CocyclePair:
    vp, hp, _, _ = t.pair_domains()
    return CocyclePair(m, (0,) * len(vp), (0,) * len(hp))


def validate_cocycle_pair(t: DoubleGroupoid, cp: CocyclePair) -> Report:
    """Exhaustive check of both cocycle identities, both normalizations and
    the square compatibility; every failing tuple is reported, and
    ``checked`` gives the tuples examined per rule."""
    rep = Report("cocycle pair")
    vp, hp, _, _ = t.pair_domains()
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
    ids = t.cocycle_identities()
    s, u = cp.sigma, cp.tau
    failing = (
        ("sigma-normalization", ids.sigma_normalization,
         [w for i, w in ids.sigma_normalization if s[i]]),
        ("tau-normalization", ids.tau_normalization,
         [w for i, w in ids.tau_normalization if u[i]]),
        ("sigma-cocycle", ids.sigma_cocycle,
         [w for i, j, k, l, w in ids.sigma_cocycle
          if (s[i] + s[j] - s[k] - s[l]) % m]),
        ("tau-cocycle", ids.tau_cocycle,
         [w for i, j, k, l, w in ids.tau_cocycle
          if (u[i] + u[j] - u[k] - u[l]) % m]),
        ("compatibility", ids.compatibility,
         [w for i, j, k, l, p, q, w in ids.compatibility
          if (s[i] + u[j] - u[k] - u[l] - s[p] - s[q]) % m]))
    for rule, table, witnesses in failing:
        rep.count(rule, len(table))
        for w in witnesses:
            rep.add(rule, w)
    if rep.ok:
        # consequences of the identities; a failure here is a validator bug
        rep.count("sigma-symmetry", len(ids.sigma_symmetry))
        rep.count("tau-symmetry", len(ids.tau_symmetry))
        for (a, i, j), (_, k, l) in zip(ids.sigma_symmetry, ids.tau_symmetry):
            if s[i] != s[j]:
                raise InternalConsistencyError(f"sigma symmetry broken at box {a}")
            if u[k] != u[l]:
                raise InternalConsistencyError(f"tau symmetry broken at box {a}")
    return rep


# -- gauge action -------------------------------------------------------


def identity_boxes(t: DoubleGroupoid) -> list[int]:
    return [a for a in t.boxes() if t.is_vid(a) or t.is_hid(a)]


def free_boxes(t: DoubleGroupoid) -> list[int]:
    return [a for a in t.boxes() if not (t.is_vid(a) or t.is_hid(a))]


def check_normalized_gauge(t: DoubleGroupoid, psi) -> None:
    if len(psi) != t.n_boxes:
        raise StructureError("gauge function must assign a value to every box")
    for a in identity_boxes(t):
        if psi[a] != 0:
            raise StructureError(
                f"gauge functions are normalized to vanish on identity boxes; "
                f"psi[{a}] = {psi[a]}")


def gauge_delta(t: DoubleGroupoid, psi) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pair (-d_v psi, +d_h psi) that gauge transformation adds, over Z."""
    vp, hp, _, _ = t.pair_domains()
    dsig = tuple(psi[t.vcomp[a][b]] - psi[a] - psi[b] for a, b in vp)
    dtau = tuple(psi[a] - psi[t.hcomp[a][b]] + psi[b] for a, b in hp)
    return dsig, dtau


def gauge_transform(t: DoubleGroupoid, cp: CocyclePair, psi) -> CocyclePair:
    """The unique pair making the rescaling B -> zeta**psi(B) B an isomorphism
    of the twisted quantum groupoids."""
    check_normalized_gauge(t, psi)
    m = cp.modulus
    dsig, dtau = gauge_delta(t, psi)
    return CocyclePair(m,
                       tuple((a + b) % m for a, b in zip(cp.sigma, dsig)),
                       tuple((a + b) % m for a, b in zip(cp.tau, dtau)))


# -- enumeration ---------------------------------------------------------


def _identity_forms(t: DoubleGroupoid, where):
    """Each cocycle and compatibility identity of ``t.cocycle_identities()``,
    in the table's order, as the linear form that vanishes when it holds,
    over the columns that ``where`` gives the entries (the sigma entries
    followed by the tau entries): (positive columns, negative columns), a
    column once per term."""
    nv = len(t.pair_domains()[0])
    s, u = where[:nv], where[nv:]
    ids = t.cocycle_identities()
    for i, j, k, l, _ in ids.sigma_cocycle:
        yield (s[i], s[j]), (s[k], s[l])
    for i, j, k, l, _ in ids.tau_cocycle:
        yield (u[i], u[j]), (u[k], u[l])
    for i, j, k, l, p, q, _ in ids.compatibility:
        yield (s[i], u[j]), (u[k], u[l], s[p], s[q])


def _constraint_system(t: DoubleGroupoid):
    """``(rows, ncols, where)``: the integral rows of the linear system over
    Z/m on the free cocycle entries, as sparse rows over ``ncols`` solution
    columns, and the map from entries to columns; the modulus enters only
    when it is solved.

    The free entries are the sigma and tau entries that normalization does
    not force to zero; they take the columns 0, 1, ... in the order of the
    sigma entries and then the tau entries.  ``where[e]`` is the column of
    sigma entry e, tau entry j being entry ``len(vp) + j``, and ``ncols``
    where the entry is forced.  Each cocycle and compatibility identity
    gives one row (none where every term is forced): its columns in the
    order of their first terms, the forced one dropped, each with the sum
    of its coefficients, and none whose terms cancel.
    """
    vp, hp, _, _ = t.pair_domains()
    ids = t.cocycle_identities()
    forced = ({i for i, _ in ids.sigma_normalization}
              | {len(vp) + j for j, _ in ids.tau_normalization})
    free = [e for e in range(len(vp) + len(hp)) if e not in forced]
    ncols = len(free)
    where = [ncols] * (len(vp) + len(hp))
    for k, e in enumerate(free):
        where[e] = k
    rows = []
    for pos, neg in _identity_forms(t, where):
        row = {}
        for c in pos:
            row[c] = row.get(c, 0) + 1
        for c in neg:
            row[c] = row.get(c, 0) - 1
        row.pop(ncols, None)
        if 0 in row.values():
            row = {c: v for c, v in row.items() if v}
        if row:
            rows.append(row)
    return rows, ncols, where


def _require_modulus(m: int) -> None:
    """Refuse a twist modulus below 1 as malformed input."""
    if m < 1:
        raise StructureError("modulus must be >= 1")


def enumerate_cocycle_pairs(t: DoubleGroupoid, m: int,
                            budget: int = 10 ** 6) -> CocyclePairs:
    """All valid pairs, found by solving the (linear) identity system mod m.

    A table that fails the double-groupoid axioms is refused first.  The
    count of solutions is checked against ``budget``, the most pairs to
    write, before any pair is built; a negative budget is bad input.
    Then one walk of the solutions checks them a block at a time with a
    :class:`_BlockCheck`, which builds no pair: the packed solutions must
    strictly increase (so no pair repeats), and every identity is decided
    on every pair of the block at once.  The earliest pair that fails is
    rebuilt and reported through :func:`validate_cocycle_pair`; a solver
    that breaks the order or misses its count raises, and so does a check
    that disagrees with the validator.  The pairs come back as a
    :class:`CocyclePairs` view, which walks them afresh, in the same order,
    each time it is iterated, so memory does not grow with their number.
    """
    from .double import require_vacant
    _require_modulus(m)
    if budget < 0:
        raise StructureError("budget must be >= 0")
    require_vacant(t)
    system = _constraint_system(t)
    rows, ncols, _ = system
    count, solutions = solutions_mod_m(rows, ncols, m)
    if count > budget:
        raise ResourceBudgetError(
            f"{count} cocycle pairs exceed the budget of {budget} pairs to "
            f"write")
    n = _BlockCheck(t, m, system).walk(solutions)
    if n != count:
        raise InternalConsistencyError(
            f"the solver gave {n} pairs for {count} solutions")
    return CocyclePairs(t, m, system, count, solutions)


# solutions held per block of the check walk, one lane each
_BLOCK = 256


class _BlockCheck:
    """Every identity of ``t.cocycle_identities()`` mod m, decided on a
    block of solutions at once, one solution per lane of a Python int.

    A block holds up to ``_BLOCK`` solutions as bytes, each value in a lane
    of ``width`` bytes, and turns into one int per solution column whose
    lane k holds solution k's value.  The rules are the distinct rows of
    the constraint system, each once, in the order of its first occurrence
    (a normalization identity lies on a forced entry and gives no row).
    The symmetry rows, the consequences of the rules that the validator
    keeps apart, are compiled onto the columns through the system's
    ``where`` (a forced entry reads 0, so a row left with no term always
    holds).  On x23 the 240 rows of the system are 168 distinct rules, and
    42 of the 72 symmetry rows keep a term.  Each row is evaluated as
    offset + positive terms - negative terms, the offset being the least
    multiple of m that keeps every lane nonnegative.  No value reaches the
    top bit of its lane, so a lane of x is nonzero exactly when the top bit
    of x + fill is set, fill being all the lower bits of every lane; a row
    fails in the lanes that equal none of the multiples of m within its
    range.  The rules and the symmetry rows are ORed into two masks, and a
    column value of m or more fails as a rule does.
    """

    __slots__ = ("t", "modulus", "system", "width", "rules",
                 "symmetry", "symmetry_errors", "fill", "above", "high")

    def __init__(self, t: DoubleGroupoid, m: int, system):
        rows, ncols, where = system
        ids = t.cocycle_identities()
        nv = len(t.pair_domains()[0])

        def terms(row):
            """(positive columns, negative columns) of a row, each column
            repeated as often as its coefficient."""
            return (tuple(col for col, c in row.items() if c > 0
                          for _ in range(c)),
                    tuple(col for col, c in row.items() if c < 0
                          for _ in range(-c)))

        rules = list(dict.fromkeys(map(terms, rows)))
        # the symmetry rows, in the validator's order and with its messages
        symmetry, errors = [], []
        for (a, i, j), (_, k, l) in zip(ids.sigma_symmetry, ids.tau_symmetry):
            for side, e, f in (("sigma", i, j), ("tau", nv + k, nv + l)):
                e, f = where[e], where[f]
                if e != f:
                    symmetry.append(((e,) if e < ncols else (),
                                     (f,) if f < ncols else ()))
                    errors.append(f"{side} symmetry broken at box {a}")

        def offset(neg):
            return -(-len(neg) * (m - 1) // m) * m

        # the least lane width whose top bit no value reaches
        largest = max([m - 1] + [offset(neg) + len(pos) * (m - 1)
                                 for pos, neg in chain(rules, symmetry)])
        width = -(-(largest.bit_length() + 1) // 8)
        ones = int.from_bytes((b"\1" + bytes(width - 1)) * _BLOCK, "little")
        spread, compiled = {}, {}

        def every_lane(v):
            # v in every lane, each such int made once
            if v not in spread:
                spread[v] = v * ones
            return spread[v]

        def packed(pos, neg):
            # each distinct row is one tuple, shared by every row that uses
            # it
            if (pos, neg) not in compiled:
                base = offset(neg)
                low = base - len(neg) * (m - 1)
                high = base + len(pos) * (m - 1)
                compiled[pos, neg] = (
                    every_lane(base), pos, neg,
                    tuple(map(every_lane,
                              range(-(-low // m) * m, high + 1, m))))
            return compiled[pos, neg]

        top = 1 << 8 * width - 1
        self.t, self.modulus, self.system, self.width = t, m, system, width
        self.rules = [packed(*r) for r in rules]
        self.symmetry = [packed(*r) for r in symmetry]
        self.symmetry_errors = errors
        self.high = top * ones
        self.fill = (top - 1) * ones
        self.above = (top - m) * ones

    def walk(self, solutions) -> int:
        """Check every solution, in the order given, and return how many
        there were; the first one that fails raises.

        The solutions come in the blocks of :func:`_blocks`.  A block is
        checked whole for its sizes, its order and values that fit a lane;
        only a block that fails that is walked a solution at a time, for the
        first that does.  Its lanes join the k pending ones, which are
        decided ``_BLOCK`` solutions at a time, solution n on."""
        ncols = self.system[1]
        pending, k, n, last = bytearray(), 0, 0, None
        for block in _blocks(solutions):
            if k + len(block) > _BLOCK:
                self._check(pending, n)
                pending, k, n = bytearray(), 0, n + k
            raw = self.lanes(block) if self._in_order(block, last) else None
            if raw is None:
                self._fault_in(block, pending, n, k, last)
            pending += raw
            k += len(block)
            last = block[-1]
        self._check(pending, n)
        return n + k

    def _in_order(self, block, last) -> bool:
        """Whether every solution of a block has ``ncols`` values and each
        is above the one before it, from ``last`` on.  A block that keeps
        its values as bytes, one a value, is compared as bytes, which order
        as the tuples do."""
        ncols = self.system[1]
        values = getattr(block, "values", None)
        if values is None:
            return (all(map(ncols.__eq__, map(len, block)))
                    and (last is None or last < block[0])
                    and all(map(lt, block, block[1:])))
        if block.ncols != ncols:
            return False
        sols = [values[i:i + ncols] for i in range(0, len(values), ncols)]
        return (last is None or last < block[0]) and all(map(lt, sols,
                                                             sols[1:]))

    def _fault_in(self, block, pending, n: int, k: int, last) -> None:
        """Raise for the first solution of a block that has the wrong size,
        breaks the order or has a value that fits no lane, once the k
        pending solutions and those before it in the block are decided."""
        ncols, limit = self.system[1], 1 << 8 * self.width
        for j, sol in enumerate(block):
            packs = all(0 <= v < limit for v in sol)
            if (not packs or len(sol) != ncols
                    or last is not None and not last < sol):
                self._check(pending + self.lanes(block[:j]), n)
                self._fault(sol, n + k + j, packs=packs)
            last = sol
        raise InternalConsistencyError(
            "a block of solutions fails its check, though none of them does")

    def lanes(self, block):
        """The values of a block of solutions, solution by solution, each
        little-endian in a lane of ``width`` bytes; None if a value is
        below 0 or fills its lane."""
        width = self.width
        try:
            values = getattr(block, "values", None) or b"".join(
                map(bytes, block))
        except ValueError:
            try:
                return b"".join(v.to_bytes(width, "little")
                                for sol in block for v in sol)
            except OverflowError:
                return None
        if width == 1:
            return values
        wide = bytearray(len(values) * width)
        wide[::width] = values
        return wide

    def _columns(self, lanes):
        """The column ints of pending lanes, lane k of column c holding
        solution k's value there, and the lanes where a value is m or more
        (as top bits, with noise below them)."""
        ncols, width = self.system[1], self.width
        stride = ncols * width
        fill, above = self.fill, self.above
        columns, wide = [], 0
        for c in range(0, stride, width):
            if width == 1:
                col = lanes[c::stride]
            else:
                col = bytearray(len(lanes) // ncols)
                for j in range(width):
                    col[j::width] = lanes[c + j::stride]
            col = int.from_bytes(col, "little")
            columns.append(col)
            wide |= col | ((col & fill) + above)
        return columns, wide

    def _failing(self, columns, rows):
        """For each row in turn, an int whose lane k has its top bit set
        exactly when the row fails on solution k.  Mod 2 that is the XOR of
        its terms, where every value is 0 or 1 (a larger one fails its
        range apart), moved from the low bit of each lane to the top."""
        if self.modulus == 2:
            shift = 8 * self.width - 1
            low = self.high >> shift
            for _, pos, neg, _ in rows:
                x = 0
                for c in pos:
                    x ^= columns[c]
                for c in neg:
                    x ^= columns[c]
                yield (x & low) << shift
            return
        fill = self.fill
        for offset, pos, neg, multiples in rows:
            v = offset
            for c in pos:
                v += columns[c]
            for c in neg:
                v -= columns[c]
            f = -1
            for c in multiples:
                f &= (v ^ c) + fill
            yield f

    def masks(self, lanes):
        """(rules, symmetry): the top bits of the pending lanes where a
        rule, or a symmetry row, fails."""
        columns, rules = self._columns(lanes)
        for f in self._failing(columns, self.rules):
            rules |= f
        symmetry = 0
        for f in self._failing(columns, self.symmetry):
            symmetry |= f
        return rules & self.high, symmetry & self.high

    def _check(self, lanes, first: int) -> None:
        """Decide the pending lanes, pair ``first`` on; the earliest
        solution that fails raises."""
        if not lanes:
            return
        rules, symmetry = self.masks(lanes)
        bits = 8 * self.width
        bad = rules | symmetry
        if not bad:
            return
        top = bad & -bad
        lane = (top.bit_length() - 1) // bits
        stride = self.system[1] * self.width
        sol = tuple(int.from_bytes(lanes[c:c + self.width], "little")
                    for c in range(lane * stride, (lane + 1) * stride,
                                   self.width))
        if not rules & top:
            # only symmetry rows fail, though the rules imply them
            columns, _ = self._columns(lanes)
            for f, error in zip(self._failing(columns, self.symmetry),
                                self.symmetry_errors):
                if f & top:
                    raise InternalConsistencyError(error)
        self._fault(sol, first + lane)

    def _fault(self, sol, n: int, packs: bool = False):
        """Raise for solution n: it has the wrong size; or it packs, and so
        breaks the order; or else it fails a rule or its range."""
        ncols = self.system[1]
        if len(sol) != ncols:
            raise InternalConsistencyError(
                f"the solver's pair {n} has {len(sol)} values for {ncols} "
                f"columns")
        if packs:
            raise InternalConsistencyError(
                f"the solver's pair {n} repeats or precedes the one before it")
        cp = next(_pairs(self.t, self.modulus, self.system, [sol]))
        bad = validate_cocycle_pair(self.t, cp)
        if not bad.ok:
            raise InternalConsistencyError(
                f"solver produced an invalid pair: {bad.failures[0]}")
        raise InternalConsistencyError(
            f"the block check fails pair {n}, which validate_cocycle_pair "
            f"passes")


# solutions per block that the check walk and the writer take at a time
_TUPLES = 32


def _blocks(solutions):
    """The solutions in order, in lists of at most ``_TUPLES``: the blocks
    of the walk where the solutions are :func:`solutions_mod_m`'s, else
    ``_TUPLES`` at a time."""
    if hasattr(solutions, "blocks"):
        yield from solutions.blocks(_TUPLES)
        return
    solutions = iter(solutions)
    while block := list(islice(solutions, _TUPLES)):
        yield block


def _pairs(t: DoubleGroupoid, m: int, system, solutions):
    """The pair of each solution of the constraint system, in turn."""
    _, ncols, where = system
    nv = len(t.pair_domains()[0])
    # each solution is extended by the 0 that forced entries read; two more
    # picks of it make itemgetter return a tuple at any size
    pick = itemgetter(*where, ncols, ncols)
    for sol in solutions:
        entries = pick(sol + (0,))
        yield CocyclePair(m, entries[:nv], entries[nv:len(where)])


class CocyclePairs:
    """The valid pairs of a double groupoid mod m, sorted by (sigma, tau),
    as a sized, re-iterable view: it keeps the solutions of the constraint
    system, which hold its closed Howell form, and each iteration walks them
    afresh and builds one pair at a time.  The writer,
    :func:`dgq.io.cocycle_texts`, builds no pair: it walks ``solutions``
    and fills one text template with each."""

    __slots__ = ("t", "modulus", "system", "count", "solutions")

    def __init__(self, t: DoubleGroupoid, m: int, system, count: int,
                 solutions):
        self.t = t
        self.modulus = m
        self.system = system
        self.count = count
        self.solutions = solutions

    def __len__(self):
        return self.count

    def __iter__(self):
        return _pairs(self.t, self.modulus, self.system, self.solutions)

    def blocks(self):
        """The solutions, walked afresh, in the lists of :func:`_blocks`."""
        return _blocks(self.solutions)


def _gauge_matrix(t: DoubleGroupoid, where, ncols: int):
    """The gauge map G over Z, from the free boxes to the ``ncols`` columns
    of :func:`_constraint_system`, read through its ``where``: one sparse
    row per column, one column per free box, holding :func:`gauge_delta` of
    that box's unit gauge.  A gauge that moves a normalized entry raises.

    Each entry's terms are read once, from the boxes that its pair and
    their composite name (with the signs of :func:`gauge_delta`), rather
    than one unit gauge at a time."""
    boxes = free_boxes(t)
    free = {a: k for k, a in enumerate(boxes)}
    vp, hp, _, _ = t.pair_domains()
    vc, hc = t.vcomp, t.hcomp
    rows = [None] * ncols
    moved = []
    terms = chain((((vc[a][b], 1), (a, -1), (b, -1)) for a, b in vp),
                  (((a, 1), (hc[a][b], -1), (b, 1)) for a, b in hp))
    for k, entry in zip(where, terms):
        row = {}
        for box, c in entry:
            if box in free:
                row[free[box]] = row.get(free[box], 0) + c
        row = {j: row[j] for j in sorted(row) if row[j]}
        if k < ncols:
            rows[k] = row
        elif row:
            moved.append(min(row))
    if moved:
        raise InternalConsistencyError(
            f"the unit gauge on box {boxes[min(moved)]} moves a normalized "
            f"entry")
    return rows


def _vanishes(rows, gauge) -> bool:
    """Whether A G = 0 over Z.  Row k of G is packed into one int, its entry
    at box x in the lane of ``width`` bits from bit ``width * x``; a row of
    A times G is then the sum of its terms times those ints.  No entry of
    A G reaches half a lane in size, so the sum is 0 exactly when every
    lane is."""
    most = max((abs(v) for row in gauge for v in row.values()), default=0)
    span = max((sum(map(abs, row.values())) for row in rows), default=0)
    width = (most * span).bit_length() + 1
    packed = [sum(v << width * x for x, v in row.items()) for row in gauge]
    return not any(sum(v * packed[k] for k, v in row.items()) for row in rows)


def count_modulo_gauge(t: DoubleGroupoid, m: int) -> int:
    """Number of gauge orbits on the set of valid pairs.

    The valid pairs form the solution group Z of the constraint system, and
    the orbits are the cosets in Z of B, the image of the gauge map G.  As
    |B| = m**|free boxes| / |ker G|, the count is |Z| |ker G| / m**|free|,
    both orders from :func:`count_solutions_mod_m`: at a squarefree m from
    ranks over F_p, elsewhere from a Howell form checked against that of
    the transpose; nothing is enumerated.  A table that fails the
    double-groupoid axioms is refused first.
    """
    from .double import require_vacant
    _require_modulus(m)
    require_vacant(t)
    rows, ncols, where = _constraint_system(t)
    gauge = _gauge_matrix(t, where, ncols)
    if not _vanishes(rows, gauge):
        raise InternalConsistencyError("a gauge coboundary fails the cocycle system")
    nfree = len(free_boxes(t))
    orbits, rest = divmod(count_solutions_mod_m(rows, ncols, m)
                          * count_solutions_mod_m(gauge, nfree, m), m ** nfree)
    if rest:
        raise InternalConsistencyError(
            f"m**{nfree} gauges do not split into orbits of equal size")
    return orbits


# -- field realization -----------------------------------------------------


def embed_in_field(t: DoubleGroupoid, cp: CocyclePair, fs: FieldSpec):
    """Multiplicative tables (sigma_hat, tau_hat) with values zeta**k, keyed
    by the composable box pairs."""
    if fs.modulus != cp.modulus:
        raise UnembeddableError(
            f"field designates a root of order {fs.modulus}, pair has modulus "
            f"{cp.modulus}")
    vp, hp, _, _ = t.pair_domains()
    sigma_hat = {pair: fs.embed_exponent(v) for pair, v in zip(vp, cp.sigma)}
    tau_hat = {pair: fs.embed_exponent(v) for pair, v in zip(hp, cp.tau)}
    return sigma_hat, tau_hat
