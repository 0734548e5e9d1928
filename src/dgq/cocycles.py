"""Normalized 2-cocycle pairs on a double groupoid, with values in Z/m.

A pair (sigma, tau) assigns sigma to vertically composable box pairs and tau
to horizontally composable ones, written additively.  Validity means: each is
a normalized groupoid 2-cocycle on its box groupoid, and the joint square
compatibility holds.  The valid pairs are the solutions Z of a linear system
over Z/m, walked in order through its Howell form, and the gauge classes are
the cosets in Z of the image of the gauge map, counted from two Howell forms
without listing pairs or gauges.  Field
realization (zeta ** value) is a separate explicit step, so enumeration and
counting stay integer problems.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import itemgetter, ne

from .double import DoubleGroupoid
from .errors import (InternalConsistencyError, Report, ResourceBudgetError,
                     StructureError, UnembeddableError)
from .fields import FieldSpec
from .linalg import (count_solutions_mod_m, is_zero_matrix, matmul,
                     solutions_mod_m, sparse_row, transpose)


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


def _identity_forms(t: DoubleGroupoid):
    """Each cocycle and compatibility identity of ``t.cocycle_identities()``,
    in the table's order, as the linear form that vanishes when it holds:
    (entry, coefficient) terms over the sigma entries followed by the tau
    entries."""
    nv = len(t.pair_domains()[0])
    ids = t.cocycle_identities()
    for i, j, k, l, _ in ids.sigma_cocycle:
        yield (i, 1), (j, 1), (k, -1), (l, -1)
    for i, j, k, l, _ in ids.tau_cocycle:
        yield (nv + i, 1), (nv + j, 1), (nv + k, -1), (nv + l, -1)
    for i, j, k, l, p, q, _ in ids.compatibility:
        yield ((i, 1), (nv + j, 1), (nv + k, -1), (nv + l, -1), (p, -1),
               (q, -1))


def _constraint_system(t: DoubleGroupoid):
    """Integral rows of the linear system over Z/m on the free cocycle
    entries, as sparse rows; the modulus enters only when it is solved.

    Free variables are the sigma and tau entries that normalization does not
    force to zero; each cocycle and compatibility identity gives one row
    over them (none where every term is forced).
    """
    vp, hp, _, _ = t.pair_domains()
    ids = t.cocycle_identities()
    forced_s = {i for i, _ in ids.sigma_normalization}
    forced_t = {j for j, _ in ids.tau_normalization}
    svars = [i for i in range(len(vp)) if i not in forced_s]
    tvars = [j for j in range(len(hp)) if j not in forced_t]
    # column of each sigma entry, then of each tau entry; None where
    # normalization forces the entry to zero
    col = [None] * (len(vp) + len(hp))
    for k, e in enumerate(svars + [len(vp) + j for j in tvars]):
        col[e] = k
    rows = []
    for form in _identity_forms(t):
        row = sparse_row((col[e], c) for e, c in form if col[e] is not None)
        if row:
            rows.append(row)
    return rows, len(svars) + len(tvars), svars, tvars


def _require_modulus(m: int) -> None:
    """Refuse a twist modulus below 1 as malformed input."""
    if m < 1:
        raise StructureError("modulus must be >= 1")


def enumerate_cocycle_pairs(t: DoubleGroupoid, m: int,
                            budget: int = 10 ** 6) -> CocyclePairs:
    """All valid pairs, found by solving the (linear) identity system mod m.

    The count of solutions is checked against ``budget``, the most pairs
    to write, before any pair is built; a negative budget is bad input.
    Then one walk of the solutions builds each pair, checks that the pairs
    strictly increase (so none repeats), decides every identity on it with
    a :class:`_ResidualSweep` and counts it.  A pair the sweep fails is
    reported through :func:`validate_cocycle_pair`; a solver that breaks
    the order or misses its count raises, and so does a sweep that
    disagrees with the validator.  The pairs come back as a
    :class:`CocyclePairs` view, which walks them afresh, in the same order,
    each time it is iterated, so memory does not grow with their number.
    """
    from .double import require_vacant
    _require_modulus(m)
    if budget < 0:
        raise StructureError("budget must be >= 0")
    require_vacant(t)
    system = _constraint_system(t)
    rows, ncols, _, _ = system
    count, solutions = solutions_mod_m(rows, ncols, m)
    if count > budget:
        raise ResourceBudgetError(
            f"{count} cocycle pairs exceed the budget of {budget} pairs to "
            f"write")
    sweep = _ResidualSweep(t, m)
    n, last = 0, None
    for cp in _pairs(t, m, system, solutions):
        key = (cp.sigma, cp.tau)
        if last is not None and key <= last:
            raise InternalConsistencyError(
                f"the solver's pair {n} repeats or precedes the one before it")
        if not sweep.holds(cp):
            bad = validate_cocycle_pair(t, cp)
            if not bad.ok:
                raise InternalConsistencyError(
                    f"solver produced an invalid pair: {bad.failures[0]}")
            raise InternalConsistencyError(
                f"the residual sweep fails pair {n}, which "
                f"validate_cocycle_pair passes")
        n, last = n + 1, key
    if n != count:
        raise InternalConsistencyError(
            f"the solver gave {n} pairs for {count} solutions")
    return CocyclePairs(t, m, system, count, solutions)


class _ResidualSweep:
    """Every identity of ``t.cocycle_identities()`` mod m, decided along a
    sequence of pairs by residuals that are updated, not recomputed.

    Each rule row (normalization, cocycle, compatibility) and each symmetry
    row keeps its residual, the value of its linear form on the current
    pair, with a count of the nonzero ones.  :meth:`holds` diffs a pair
    against the one before it (the first against the zero pair, on which
    every row vanishes) and updates only the rows of the entries that
    changed, so every identity is still decided for every pair: the pair
    holds exactly when the count is 0.  The symmetry rows are consequences
    of the rules and are kept apart, as the validator keeps them: nonzero
    symmetry rows under rules that all vanish raise.
    """

    __slots__ = ("modulus", "sizes", "touch", "rules", "symmetry_errors",
                 "residue", "nonzero", "entries")

    def __init__(self, t: DoubleGroupoid, m: int):
        vp, hp, _, _ = t.pair_domains()
        ids = t.cocycle_identities()
        nv = len(vp)
        rules = chain((((i, 1),) for i, _ in ids.sigma_normalization),
                      (((nv + j, 1),) for j, _ in ids.tau_normalization),
                      _identity_forms(t))
        # the symmetry rows, consequences of the rules, follow the rule rows
        # in the validator's order and with its messages
        self.symmetry_errors = []
        symmetry = []
        for (a, i, j), (_, k, l) in zip(ids.sigma_symmetry, ids.tau_symmetry):
            symmetry += [((i, 1), (j, -1)), ((nv + k, 1), (nv + l, -1))]
            self.symmetry_errors += [f"sigma symmetry broken at box {a}",
                                     f"tau symmetry broken at box {a}"]
        # for each entry, the rows it enters, grouped by its coefficient there
        by_coefficient = [{} for _ in range(nv + len(hp))]
        nrows = 0
        for form in chain(rules, symmetry):
            for e, c in sparse_row(form).items():
                by_coefficient[e].setdefault(c, []).append(nrows)
            nrows += 1
        self.touch = [tuple((c, tuple(rows)) for c, rows in groups.items())
                      for groups in by_coefficient]
        self.rules = nrows - len(symmetry)
        self.modulus = m
        self.sizes = (nv, len(hp))
        self.residue = [0] * nrows
        self.nonzero = 0
        self.entries = (0,) * (nv + len(hp))

    def holds(self, cp: CocyclePair) -> bool:
        """Whether ``cp``, a pair of the right size with values reduced mod
        m, satisfies every rule; one that does but breaks a symmetry raises,
        as :func:`validate_cocycle_pair` does.  A pair of the wrong size or
        range fails and leaves the residuals as they were."""
        m = self.modulus
        entries = cp.sigma + cp.tau
        if ((len(cp.sigma), len(cp.tau)) != self.sizes
                or entries and (min(entries) < 0 or max(entries) >= m)):
            return False
        prev, residue, touch = self.entries, self.residue, self.touch
        nonzero = self.nonzero
        for e in compress(range(len(entries)), map(ne, entries, prev)):
            d = entries[e] - prev[e]
            for c, rows in touch[e]:
                step = c * d
                for r in rows:
                    old = residue[r]
                    new = residue[r] = (old + step) % m
                    if old:
                        if not new:
                            nonzero -= 1
                    elif new:
                        nonzero += 1
        self.entries, self.nonzero = entries, nonzero
        if not nonzero:
            return True
        broken = [k for k, v in enumerate(residue[self.rules:]) if v]
        if len(broken) < nonzero:
            return False
        raise InternalConsistencyError(self.symmetry_errors[broken[0]])


def _pairs(t: DoubleGroupoid, m: int, system, solutions):
    """The pair of each solution of the constraint system, in turn."""
    vp, hp, _, _ = t.pair_domains()
    nv, nh = len(vp), len(hp)
    _, ncols, svars, tvars = system
    # where each sigma entry, then each tau entry, sits in the solution
    # extended by a 0 at ncols for the entries that normalization forces;
    # two more picks of that 0 make itemgetter return a tuple at any size
    where = [ncols] * (nv + nh + 2)
    for k, i in enumerate(svars + [nv + j for j in tvars]):
        where[i] = k
    pick = itemgetter(*where)
    for sol in solutions:
        entries = pick(sol + (0,))
        yield CocyclePair(m, entries[:nv], entries[nv:nv + nh])


class CocyclePairs:
    """The valid pairs of a double groupoid mod m, sorted by (sigma, tau),
    as a sized, re-iterable view: it keeps the solutions of the constraint
    system, which hold its closed Howell form, and each iteration walks them
    afresh and builds one pair at a time."""

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


def _gauge_matrix(t: DoubleGroupoid, svars, tvars):
    """The gauge map G over Z, from the free boxes to the free cocycle
    columns of :func:`_constraint_system`: one sparse row per column, one
    column per free box, holding :func:`gauge_delta` of that box's unit
    gauge.  A gauge that moves a normalized entry raises."""
    ids = t.cocycle_identities()
    cols = []
    for a in free_boxes(t):
        psi = [0] * t.n_boxes
        psi[a] = 1
        dsig, dtau = gauge_delta(t, psi)
        if (any(dsig[i] for i, _ in ids.sigma_normalization)
                or any(dtau[j] for j, _ in ids.tau_normalization)):
            raise InternalConsistencyError(
                f"the unit gauge on box {a} moves a normalized entry")
        cols.append(sparse_row(enumerate([dsig[i] for i in svars]
                                         + [dtau[j] for j in tvars])))
    return transpose(cols, len(svars) + len(tvars))


def count_modulo_gauge(t: DoubleGroupoid, m: int) -> int:
    """Number of gauge orbits on the set of valid pairs.

    The valid pairs form the solution group Z of the constraint system, and
    the orbits are the cosets in Z of B, the image of the gauge map G.  As
    |B| = m**|free boxes| / |ker G|, the count is |Z| |ker G| / m**|free|,
    both orders from a Howell form (checked against a Smith form); nothing
    is enumerated.
    """
    from .double import require_vacant
    _require_modulus(m)
    require_vacant(t)
    rows, ncols, svars, tvars = _constraint_system(t)
    gauge = _gauge_matrix(t, svars, tvars)
    if not is_zero_matrix(matmul(rows, gauge)):
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
