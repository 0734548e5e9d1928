"""A fixed pure-Python workload whose wall time is the unit of ``wall_ref``.

``run.py`` runs this file as a child before each ``dgq`` command and after
the last one, so every command sits between two runs of it.  On a shared host
the speed of a core changes within seconds; this workload, run on the same
core at nearly the same time, slows down with it, and the ratio of the two
times is far steadier than either.  It imports nothing from ``dgq`` and must
stay as it is: a change to it changes the unit of every ``wall_ref`` figure.

It mixes the two kinds of work ``dgq`` does most: an n^3 scan of a sparse
product table with Fraction scalars, as the weak-Hopf axiom checks do, and
row reduction over F_3, as the cohomology engine does.
"""

import random
from fractions import Fraction

N = 40


def _table(rng):
    return [[(rng.randrange(N), Fraction(rng.randrange(1, 5), rng.randrange(1, 5)))
             if rng.random() < 0.3 else None for _ in range(N)]
            for _ in range(N)]


def scan(table) -> int:
    """Count the triples on which the table's product is not associative."""
    bad = 0
    for a in range(N):
        for b in range(N):
            ab = table[a][b]
            for c in range(N):
                bc = table[b][c]
                left = right = None
                if ab is not None:
                    hit = table[ab[0]][c]
                    if hit is not None:
                        left = (hit[0], ab[1] * hit[1])
                if bc is not None:
                    hit = table[a][bc[0]]
                    if hit is not None:
                        right = (hit[0], bc[1] * hit[1])
                if left != right:
                    bad += 1
    return bad


def rank_mod(rng, p=3, rows=120, cols=90) -> int:
    """Rank over F_p of a random matrix, by Gauss-Jordan elimination."""
    m = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        r += 1
    return r


if __name__ == "__main__":
    rng = random.Random(7)
    table = _table(rng)
    for _ in range(2):
        scan(table)
        rank_mod(rng)
