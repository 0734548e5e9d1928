"""Deterministic builders for the instances used in tests and shipped corpus.

Permutations compose left to right ((p * q)(i) = q(p(i))), matching the
juxtaposition convention for arrows; group elements are indexed by sorting
the permutation tuples.
"""

from __future__ import annotations

from operator import itemgetter

from .double import (DoubleGroupoid, _from_box_groupoids, build_Xrs,
                     double_direct_product, double_disjoint_union)
from .groupoids import Groupoid, groupoid_on, one_object_group
from .matched import MatchedPair, from_exact_factorization, to_vacant_double


def cyclic_table(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def perm_mul(p: tuple, q: tuple) -> tuple:
    return tuple(q[p[i]] for i in range(len(p)))


def perm_closure(gens: list[tuple]) -> list[tuple]:
    n = len(gens[0])
    elems = {tuple(range(n))}
    frontier = list(elems)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = perm_mul(p, g)
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(elems)


def symmetric_table(n: int) -> tuple[list[list[int]], list[tuple]]:
    """Cayley table of the symmetric group on n letters plus the sorted
    element list (permutation tuples)."""
    gens = []
    for i in range(n - 1):
        p = list(range(n))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(tuple(p))
    elems = perm_closure(gens)
    index = {p: i for i, p in enumerate(elems)}
    table = [[index[perm_mul(p, q)] for q in elems] for p in elems]
    return table, elems


def s3_factorization():
    """(table, V indices, H indices) for the three-cycle / transposition
    factorization of the symmetric group on 3 letters."""
    table, elems = symmetric_table(3)
    index = {p: i for i, p in enumerate(elems)}
    three = (1, 2, 0)
    swap = (1, 0, 2)
    v = sorted({index[p] for p in perm_closure([three])})
    h = sorted({index[p] for p in perm_closure([swap])})
    return table, v, h


def s3_matched_pair() -> MatchedPair:
    table, v, h = s3_factorization()
    mp, _, _ = from_exact_factorization(one_object_group(table), v, h)
    return mp


def s3_double() -> DoubleGroupoid:
    return to_vacant_double(s3_matched_pair())


def commuting_squares(g: Groupoid) -> DoubleGroupoid:
    """All commuting squares with sides in g: box (x, y, f, k) has frame
    top x, bottom y, left f, right k, and x k = f y."""
    boxes = [(x, y, f, k)
             for x in g.arrows() for y in g.arrows()
             for f in g.arrows() for k in g.arrows()
             if g.source[f] == g.source[x] and g.source[k] == g.target[x]
             and g.source[y] == g.target[f] and g.target[k] == g.target[y]
             and g.compose[x][k] == g.compose[f][y]]
    ids = g.identity
    vboxes = groupoid_on(
        g.n_arrows, boxes, itemgetter(0), itemgetter(1),
        lambda x: (x, x, ids[g.source[x]], ids[g.target[x]]),
        lambda a, b: (a[0], b[1], g.compose[a[2]][b[2]], g.compose[a[3]][b[3]]))
    hboxes = groupoid_on(
        g.n_arrows, boxes, itemgetter(2), itemgetter(3),
        lambda f: (ids[g.source[f]], ids[g.target[f]], f, f),
        lambda a, b: (g.compose[a[0]][b[0]], g.compose[a[1]][b[1]], a[2], b[3]))
    return _from_box_groupoids(g, g, vboxes, hboxes)


def commuting_squares_z2() -> DoubleGroupoid:
    return commuting_squares(one_object_group(cyclic_table(2)))


def corpus_union() -> DoubleGroupoid:
    return double_disjoint_union(build_Xrs(2, 2), s3_double())


def corpus_product() -> DoubleGroupoid:
    return double_direct_product(s3_double(), build_Xrs(2, 1))


def vacant_corpus() -> dict[str, DoubleGroupoid]:
    """The vacant instances the acceptance criteria quantify over."""
    return {
        "s3_matched_pair": s3_double(),
        "x11": build_Xrs(1, 1),
        "x22": build_Xrs(2, 2),
        "x23": build_Xrs(2, 3),
        "union_x22_s3": corpus_union(),
        "product_s3_x21": corpus_product(),
    }


def full_corpus() -> dict[str, DoubleGroupoid]:
    out = vacant_corpus()
    out["commuting_squares_z2"] = commuting_squares_z2()
    return out
