"""Normalized 2-cocycle pairs on a double groupoid, with values in Z/m.

A pair (sigma, tau) assigns sigma to vertically composable box pairs and tau
to horizontally composable ones, written additively.  Validity means: each is
a normalized groupoid 2-cocycle on its box groupoid, and the joint square
compatibility holds.  Field realization (zeta ** value) is a separate
explicit step, so enumeration and orbit counting stay integer problems.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .double import DoubleGroupoid
from .errors import (InternalConsistencyError, Report, ResourceBudgetError,
                     StructureError, UnembeddableError)
from .fields import FieldSpec
# count_solutions_mod_m is not called here but stays importable from this
# module, next to solutions_mod_m, for code that counts without enumerating
from .linalg import count_solutions_mod_m, solutions_mod_m, sparse_row  # noqa: F401


@dataclass(frozen=True)
class CocyclePair:
    """Values aligned with ``t.pair_domains()``: ``sigma[i]`` belongs to the
    i-th sorted vertically composable pair, ``tau[j]`` to the j-th sorted
    horizontally composable pair."""

    modulus: int
    sigma: tuple[int, ...]
    tau: tuple[int, ...]


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


def gauge_delta(t: DoubleGroupoid, psi, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pair (-d_v psi, +d_h psi) that gauge transformation adds."""
    vp, hp, _, _ = t.pair_domains()
    dsig = tuple((-(psi[a] - psi[t.vcomp[a][b]] + psi[b])) % m for a, b in vp)
    dtau = tuple((psi[a] - psi[t.hcomp[a][b]] + psi[b]) % m for a, b in hp)
    return dsig, dtau


def gauge_transform(t: DoubleGroupoid, cp: CocyclePair, psi) -> CocyclePair:
    """The unique pair making the rescaling B -> zeta**psi(B) B an isomorphism
    of the twisted quantum groupoids."""
    check_normalized_gauge(t, psi)
    m = cp.modulus
    dsig, dtau = gauge_delta(t, psi, m)
    return CocyclePair(m,
                       tuple((a + b) % m for a, b in zip(cp.sigma, dsig)),
                       tuple((a + b) % m for a, b in zip(cp.tau, dtau)))


def all_normalized_gauges(t: DoubleGroupoid, m: int, budget: int = 10 ** 6):
    free = free_boxes(t)
    if m ** len(free) > budget:
        raise ResourceBudgetError(
            f"{m ** len(free)} gauge functions exceed the budget {budget}")
    for values in itertools.product(range(m), repeat=len(free)):
        psi = [0] * t.n_boxes
        for a, v in zip(free, values):
            psi[a] = v
        yield tuple(psi)


def is_gauge_equivalent(t: DoubleGroupoid, cp1: CocyclePair, cp2: CocyclePair,
                        budget: int = 10 ** 6):
    """Search all normalized gauge functions; return a witness psi or None."""
    if cp1.modulus != cp2.modulus:
        raise StructureError("moduli differ")
    for psi in all_normalized_gauges(t, cp1.modulus, budget):
        if gauge_transform(t, cp1, psi) == cp2:
            return psi
    return None


# -- enumeration ---------------------------------------------------------


def _constraint_system(t: DoubleGroupoid, m: int):
    """Linear system over Z/m for the free cocycle entries, as sparse rows.

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
    # column of each entry, None where normalization forces it to zero
    scol = [None] * len(vp)
    tcol = [None] * len(hp)
    for k, i in enumerate(svars):
        scol[i] = k
    for k, j in enumerate(tvars, len(svars)):
        tcol[j] = k
    rows = []

    def add_row(terms):
        row = sparse_row((k, c) for k, c in terms if k is not None)
        if row:
            rows.append(row)

    for table, col in ((ids.sigma_cocycle, scol), (ids.tau_cocycle, tcol)):
        for i, j, k, l, _ in table:
            add_row(((col[i], 1), (col[j], 1), (col[k], -1), (col[l], -1)))
    for i, j, k, l, p, q, _ in ids.compatibility:
        add_row(((scol[i], 1), (tcol[j], 1), (tcol[k], -1), (tcol[l], -1),
                 (scol[p], -1), (scol[q], -1)))
    return rows, len(svars) + len(tvars), svars, tvars


def enumerate_cocycle_pairs(t: DoubleGroupoid, m: int,
                            budget: int = 10 ** 6) -> list[CocyclePair]:
    """All valid pairs, found by solving the (linear) identity system mod m.

    The list is exhaustive, duplicate-free and sorted.  An over-budget
    solution set raises instead of silently truncating.
    """
    from .double import require_vacant
    require_vacant(t)
    vp, hp, _, _ = t.pair_domains()
    rows, ncols, svars, tvars = _constraint_system(t, m)
    count, solutions = solutions_mod_m(rows, ncols, m)
    if count > budget:
        raise ResourceBudgetError(
            f"{count} cocycle pairs exceed the budget {budget}")
    out = set()
    for sol in solutions:
        sigma = [0] * len(vp)
        tau = [0] * len(hp)
        for k, i in enumerate(svars):
            sigma[i] = sol[k]
        for k, j in enumerate(tvars):
            tau[j] = sol[len(svars) + k]
        out.add(CocyclePair(m, tuple(sigma), tuple(tau)))
    result = sorted(out, key=lambda c: (c.sigma, c.tau))
    for cp in result:
        bad = validate_cocycle_pair(t, cp)
        if not bad.ok:
            raise InternalConsistencyError(
                f"solver produced an invalid pair: {bad.failures[0]}")
    return result


def count_modulo_gauge(t: DoubleGroupoid, m: int, budget: int = 10 ** 6) -> int:
    """Number of gauge orbits on the set of valid pairs, by explicit orbit
    sweeping with the full normalized gauge group."""
    pairs = enumerate_cocycle_pairs(t, m, budget)
    deltas = {gauge_delta(t, psi, m) for psi in all_normalized_gauges(t, m, budget)}
    index = {cp: k for k, cp in enumerate(pairs)}
    seen = [False] * len(pairs)
    orbits = 0
    for k, cp in enumerate(pairs):
        if seen[k]:
            continue
        orbits += 1
        for dsig, dtau in deltas:
            moved = CocyclePair(
                m,
                tuple((a + b) % m for a, b in zip(cp.sigma, dsig)),
                tuple((a + b) % m for a, b in zip(cp.tau, dtau)))
            j = index.get(moved)
            if j is None:
                raise InternalConsistencyError(
                    "gauge transform left the set of valid pairs")
            seen[j] = True
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
