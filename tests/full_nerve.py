"""The full-nerve differential of a groupoid, which the library no longer
builds: it reaches groupoid cohomology through the vertex groups.  The
tests use it as an oracle, and to check the vertex groups' digit tables."""

from dgq import cohomology as coh
from dgq.groupoids import Groupoid


def differential_matrix(g: Groupoid, n: int) -> list[dict[int, int]]:
    """Matrix of d^n: C^n -> C^(n+1), as sparse rows indexed by
    nerve(g, n+1).  The rows come from ``coh._coboundary_rows``, looked up
    at each call, so a test that patches it sees these matrices too."""
    src_index = {c: i for i, c in enumerate(coh.nerve(g, n))}
    return coh._coboundary_rows(src_index, coh.nerve(g, n + 1),
                                coh._groupoid_faces(g, n))
