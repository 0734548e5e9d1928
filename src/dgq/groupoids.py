"""Finite groupoids as explicit integer tables.

An arrow ``f`` runs ``source(f) -> target(f)``.  The product ``f*g`` is written
by juxtaposition and is defined exactly when ``target(f) == source(g)``; the
composite runs ``source(f) -> target(g)``.  This convention is fixed once here
and used by every module in the package.

Objects and arrows are dense integer indices; all maps are explicit tuples, so
exhaustive axiom checks are plain scans.  The coarse, relation, union,
product, sub- and diagonal groupoids, and the box groupoids that
:mod:`dgq.double`, :mod:`dgq.matched` and :mod:`dgq.samples` construct, name
their arrows by labels and are built by :func:`groupoid_on`, which numbers
them in list order and is the one place a composition rule is turned into a
dense table.  A Cayley table and a parsed document are taken as given.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from .errors import InternalConsistencyError, Report, StructureError

UNDEF = -1


class Groupoid:
    """A finite groupoid given by source/target/identity/composition tables.

    ``compose`` is a dense ``n_arrows x n_arrows`` table with ``UNDEF`` (-1)
    for non-composable pairs.  Construction checks shapes and index ranges;
    the algebraic axioms are checked by :func:`validate_groupoid`.
    Instances are immutable by convention.
    """

    __slots__ = ("n_objects", "n_arrows", "source", "target", "identity",
                 "compose", "_inverse", "_hash", "_leaving", "_report")

    def __init__(self, n_objects, source, target, identity, compose):
        source = tuple(source)
        target = tuple(target)
        identity = tuple(identity)
        compose = tuple(tuple(row) for row in compose)
        n_arrows = len(source)
        if n_objects < 1:
            raise StructureError("a groupoid needs a non-empty object set")
        if len(target) != n_arrows:
            raise StructureError("source/target tables differ in length")
        if len(identity) != n_objects:
            raise StructureError("identity table must list one arrow per object")
        if len(compose) != n_arrows or any(len(row) != n_arrows for row in compose):
            raise StructureError("compose table must be n_arrows x n_arrows")
        # each table is read whole by min and max; only a table out of range
        # is walked, for its first bad entry
        for name, table, bound in (("source", source, n_objects),
                                   ("target", target, n_objects),
                                   ("identity", identity, n_arrows)):
            if table and not (0 <= min(table) and max(table) < bound):
                i, v = next((i, v) for i, v in enumerate(table)
                            if not 0 <= v < bound)
                raise StructureError(f"{name}[{i}] = {v} out of range")
        if n_arrows and not (UNDEF <= min(map(min, compose))
                             and max(map(max, compose)) < n_arrows):
            f, g, v = next((f, g, v) for f, row in enumerate(compose)
                           for g, v in enumerate(row)
                           if v != UNDEF and not 0 <= v < n_arrows)
            raise StructureError(f"compose[{f}][{g}] = {v} out of range")
        self.n_objects = n_objects
        self.n_arrows = n_arrows
        self.source = source
        self.target = target
        self.identity = identity
        self.compose = compose
        self._inverse = None
        self._hash = None
        self._leaving = None
        self._report = None

    # -- basic queries -------------------------------------------------

    def mul(self, f: int, g: int) -> int:
        h = self.compose[f][g]
        if h == UNDEF:
            raise StructureError(f"arrows {f} and {g} are not composable")
        return h

    def is_identity(self, f: int) -> bool:
        return self.identity[self.source[f]] == f

    def arrows(self):
        return range(self.n_arrows)

    def leaving(self) -> tuple[tuple[int, ...], ...]:
        """The arrows out of each object, in increasing order; built once."""
        if self._leaving is None:
            out = [[] for _ in range(self.n_objects)]
            for f, p in enumerate(self.source):
                out[p].append(f)
            self._leaving = tuple(map(tuple, out))
        return self._leaving

    def composable_pairs(self):
        leaving = self.leaving()
        for f, q in enumerate(self.target):
            for g in leaving[q]:
                yield f, g

    def arrows_between(self, x: int, y: int) -> list[int]:
        return [f for f in self.leaving()[x] if self.target[f] == y]

    @property
    def inverse(self) -> tuple[int, ...]:
        """Arrow-wise inverse table, derived once and cached."""
        if self._inverse is None:
            inv = []
            for f in range(self.n_arrows):
                g = self._find_inverse(f)
                if g is None:
                    raise StructureError(
                        f"arrow {f} has no inverse; run validate_groupoid for a report")
                inv.append(g)
            self._inverse = tuple(inv)
        return self._inverse

    def _find_inverse(self, f: int):
        """The least g with f g and g f the identities at f's ends; the row
        of f is searched for each candidate by ``tuple.index``."""
        id_s = self.identity[self.source[f]]
        id_t = self.identity[self.target[f]]
        row = self.compose[f]
        try:
            g = row.index(id_s)
            while self.compose[g][f] != id_t:
                g = row.index(id_s, g + 1)
        except ValueError:
            return None
        return g

    def inv(self, f: int) -> int:
        return self.inverse[f]

    # -- comparison ----------------------------------------------------

    def tables(self):
        return (self.n_objects, self.source, self.target, self.identity, self.compose)

    def __eq__(self, other):
        return isinstance(other, Groupoid) and self.tables() == other.tables()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.tables())
        return self._hash

    def __repr__(self):
        return f"Groupoid(objects={self.n_objects}, arrows={self.n_arrows})"

    # -- connectivity ----------------------------------------------------

    def object_components(self) -> list[list[int]]:
        """Partition of the objects by mutual reachability, sorted."""
        parent = list(range(self.n_objects))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for f in range(self.n_arrows):
            a, b = find(self.source[f]), find(self.target[f])
            if a != b:
                parent[max(a, b)] = min(a, b)
        groups: dict[int, list[int]] = {}
        for x in range(self.n_objects):
            groups.setdefault(find(x), []).append(x)
        return [sorted(groups[k]) for k in sorted(groups)]

    def is_connected(self) -> bool:
        return len(self.object_components()) == 1


def validate_groupoid(g: Groupoid) -> Report:
    """Exhaustively check the groupoid axioms, reporting every violation.

    Structural defects (composition defined off its domain) are reported under
    the ``structure`` rule, distinct from axiom failures.  The report is
    computed once and kept on ``g``.
    """
    if g._report is None:
        g._report = _groupoid_report(g)
    return g._report


def _groupoid_report(g: Groupoid) -> Report:
    """The axioms of :func:`validate_groupoid`, each row of the composition
    read whole against the arrows out of one object.

    Row f is defined exactly on the arrows out of target(f) when it holds
    UNDEF nowhere there and as many times as there are other arrows; its
    composites there are checked as one list.  Only a row that fails is
    walked pair by pair, for its failures in the order of the pairs.
    """
    rep = Report("groupoid")
    source, target, compose = g.source, g.target, g.compose
    leaving = g.leaving()
    for p in range(g.n_objects):
        e = g.identity[p]
        if source[e] != p or target[e] != p:
            rep.add("identity-endpoints", (p, e),
                    "identity arrow must loop at its object")
    # rest[f]: row f on the arrows out of target(f)
    rest, whole = [], True
    for f, row in enumerate(compose):
        out = leaving[target[f]]
        rest.append(list(map(row.__getitem__, out)))
        if (UNDEF not in rest[f]
                and row.count(UNDEF) == g.n_arrows - len(out)
                and [(source[c], target[c]) for c in rest[f]]
                == [(source[f], target[h]) for h in out]):
            continue
        whole = False
        for h, c in enumerate(row):
            should = target[f] == source[h]
            if (c != UNDEF) != should:
                rep.add("structure", (f, h),
                        "compose defined exactly when target(f) = source(g)")
            elif should and (source[c] != source[f]
                             or target[c] != target[h]):
                rep.add("composite-endpoints", (f, h, c))
    for f in range(g.n_arrows):
        el = g.identity[source[f]]
        er = g.identity[target[f]]
        if compose[el][f] != f:
            rep.add("left-unit", (f,))
        if compose[f][er] != f:
            rep.add("right-unit", (f,))
    # (f h) k against f (h k), for the k out of target(h) at once; where
    # every row passed, target(f h) = target(h) and rest[f h] is the left
    for f, row_f in enumerate(compose):
        for h, fh in zip(leaving[target[f]], rest[f]):
            if fh == UNDEF:
                continue
            ks = leaving[target[h]]
            left = (rest[fh] if whole
                    else list(map(compose[fh].__getitem__, ks)))
            right = list(map(row_f.__getitem__, rest[h]))
            if left != right:
                for k, x, y in zip(ks, left, right):
                    if x != y:
                        rep.add("associativity", (f, h, k))
    # an inverse table already derived found an inverse for every arrow
    for f in range(g.n_arrows if g._inverse is None else 0):
        if g._find_inverse(f) is None:
            rep.add("inverse", (f,), "no two-sided inverse")
    return rep


# -- constructions ------------------------------------------------------


def groupoid_on(n_objects: int, labels, source, target, identity,
                compose) -> Groupoid:
    """The groupoid whose arrow i is ``labels[i]``.

    ``source`` and ``target`` send a label to its object, ``identity`` sends
    an object to the label of its identity arrow, and ``compose(f, g)``
    gives the label of the composite f g.  It is asked only where
    ``target(f) == source(g)``; a composite or identity that is not a label
    raises :class:`StructureError`.
    """
    index = {f: i for i, f in enumerate(labels)}
    src = [source(f) for f in labels]
    tgt = [target(f) for f in labels]
    leaving: dict[int, list[int]] = {}
    for j, p in enumerate(src):
        leaving.setdefault(p, []).append(j)
    table = [[UNDEF] * len(labels) for _ in labels]
    for f, row, q in zip(labels, table, tgt):
        for j in leaving.get(q, ()):
            h = compose(f, labels[j])
            if h not in index:
                raise StructureError(f"the composite of arrows {f} and "
                                     f"{labels[j]} is {h}, not an arrow")
            row[j] = index[h]
    ids = [index.get(identity(p), UNDEF) for p in range(n_objects)]
    if UNDEF in ids:
        p = ids.index(UNDEF)
        raise StructureError(
            f"the identity {identity(p)} at object {p} is not an arrow")
    return Groupoid(n_objects, src, tgt, ids, table)


def relation_groupoid(labels: tuple[int, ...]) -> Groupoid:
    """The groupoid of an equivalence relation given by class labels: one
    arrow (p, q) per related ordered pair, arrows sorted lexicographically,
    composed by (p, q)(q, v) = (p, v)."""
    n = len(labels)
    return groupoid_on(
        n, [(p, q) for p in range(n) for q in range(n) if labels[p] == labels[q]],
        itemgetter(0), itemgetter(1), lambda p: (p, p),
        lambda f, g: (f[0], g[1]))


def coarse_groupoid(n: int) -> Groupoid:
    """The groupoid with objects 0..n-1 and exactly one arrow (x, y) between
    any ordered pair, composed by (x,y)(y,v) = (x,v).  Arrow (x,y) has index
    x*n + y."""
    if n < 1:
        raise StructureError("coarse groupoid needs a non-empty base")
    return relation_groupoid((0,) * n)


def one_object_group(table) -> Groupoid:
    """A finite group, presented by its Cayley table, as a one-object groupoid.

    The table is rejected (with a witness) if it is not a group.
    """
    n = len(table)
    for row in table:
        if len(row) != n:
            raise StructureError("Cayley table must be square")
        for v in row:
            if not 0 <= v < n:
                raise StructureError("Cayley table entry out of range")
    e = None
    for cand in range(n):
        if all(table[cand][x] == x and table[x][cand] == x for x in range(n)):
            e = cand
            break
    if e is None:
        raise StructureError("table has no two-sided identity")
    for a, b, c in itertools.product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            raise StructureError(f"table is not associative at {(a, b, c)}")
    for a in range(n):
        if not any(table[a][b] == e and table[b][a] == e for b in range(n)):
            raise StructureError(f"element {a} has no inverse")
    compose = [list(row) for row in table]
    return Groupoid(1, [0] * n, [0] * n, [e], compose)


def disjoint_union(g1: Groupoid, g2: Groupoid) -> Groupoid:
    """Tagged sum: objects and arrows of ``g1`` first, then ``g2``."""
    parts, shift, n1 = (g1, g2), (0, g1.n_objects), g1.n_objects
    return groupoid_on(
        n1 + g2.n_objects,
        [(0, f) for f in g1.arrows()] + [(1, f) for f in g2.arrows()],
        lambda a: parts[a[0]].source[a[1]] + shift[a[0]],
        lambda a: parts[a[0]].target[a[1]] + shift[a[0]],
        lambda x: (0, g1.identity[x]) if x < n1 else (1, g2.identity[x - n1]),
        lambda a, b: (a[0], parts[a[0]].compose[a[1]][b[1]]))


def direct_product(g1: Groupoid, g2: Groupoid) -> Groupoid:
    """Componentwise product; object (x1,x2) has index x1*n2+x2 and arrow
    (f1,f2) has index f1*m2+f2."""
    n2 = g2.n_objects
    return groupoid_on(
        g1.n_objects * n2,
        [(f1, f2) for f1 in g1.arrows() for f2 in g2.arrows()],
        lambda a: g1.source[a[0]] * n2 + g2.source[a[1]],
        lambda a: g1.target[a[0]] * n2 + g2.target[a[1]],
        lambda x: (g1.identity[x // n2], g2.identity[x % n2]),
        lambda a, b: (g1.compose[a[0]][b[0]], g2.compose[a[1]][b[1]]))


# -- structure decomposition ---------------------------------------------


class Component:
    """One connected component with its group-times-coarse decomposition.

    ``iso`` sends each arrow of the ambient groupoid lying in this component
    to the corresponding arrow of ``product`` (the groupoid
    ``vertex_group x coarse(len(objects))``); it is a verified isomorphism.
    """

    def __init__(self, objects: list[int], base: int, vertex_arrows: list[int],
                 vertex_order: int, vertex_table: list[list[int]],
                 transversal: dict[int, int], product: Groupoid,
                 iso: dict[int, int]):
        self.objects = objects
        self.base = base
        self.vertex_arrows = vertex_arrows
        self.vertex_order = vertex_order
        self.vertex_table = vertex_table
        self.transversal = transversal
        self.product = product
        self.iso = iso


def connected_decomposition(g: Groupoid) -> list[Component]:
    """Split ``g`` into components and exhibit each as group x coarse.

    Base points and transversal arrows are the smallest available indices, so
    the decomposition is deterministic.  The witness isomorphism
    ``f -> (tau_y f tau_z^-1, (y, z))`` is checked arrow-by-arrow.
    """
    validate_groupoid(g).raise_if_failed()
    comps = []
    for objs in g.object_components():
        base = objs[0]
        # transversal tau_y in G(base, y): breadth-first, smallest arrow wins
        tau = {base: g.identity[base]}
        frontier = [base]
        while frontier:
            nxt = []
            for y in frontier:
                for f in range(g.n_arrows):
                    if g.source[f] == y and g.target[f] not in tau:
                        tau[g.target[f]] = g.compose[tau[y]][f]
                        nxt.append(g.target[f])
            frontier = nxt
        if sorted(tau) != objs:
            raise InternalConsistencyError("transversal missed part of a component")
        vertex = [f for f in range(g.n_arrows)
                  if g.source[f] == base and g.target[f] == base]
        vindex = {f: i for i, f in enumerate(vertex)}
        vtable = [[vindex[g.compose[a][b]] for b in vertex] for a in vertex]
        k = len(objs)
        pos = {y: i for i, y in enumerate(objs)}
        product = direct_product(one_object_group(vtable), coarse_groupoid(k))
        iso = {}
        ncoarse = k * k
        for f in range(g.n_arrows):
            y, z = g.source[f], g.target[f]
            if y not in pos:
                continue
            loop = g.compose[g.compose[tau[y]][f]][g.inv(tau[z])]
            iso[f] = vindex[loop] * ncoarse + (pos[y] * k + pos[z])
        _check_component_iso(g, product, iso)
        comps.append(Component(objs, base, vertex, len(vertex), vtable,
                               tau, product, iso))
    return comps


def _check_component_iso(g: Groupoid, product: Groupoid, iso: dict[int, int]) -> None:
    if sorted(iso.values()) != list(range(product.n_arrows)):
        raise InternalConsistencyError("component witness is not a bijection")
    for f, pf in iso.items():
        for h, ph in iso.items():
            c = g.compose[f][h]
            pc = product.compose[pf][ph]
            if (c == UNDEF) != (pc == UNDEF):
                raise InternalConsistencyError("component witness breaks composability")
            if c != UNDEF and iso[c] != pc:
                raise InternalConsistencyError("component witness is not functorial")


def reassemble(components: list[Component]) -> Groupoid:
    """Disjoint union of the per-component product groupoids."""
    out = components[0].product
    for comp in components[1:]:
        out = disjoint_union(out, comp.product)
    return out


# -- wide subgroupoids of D(O) x coarse(P) --------------------------------


def group_times_coarse(table, n: int) -> Groupoid:
    """The connected groupoid D(O) x P^2 used as ambient for subgroupoid data.

    Arrow (d, (P, Q)) has index d*n*n + P*n + Q; this indexing is relied on by
    :func:`ambient_arrow` / :func:`ambient_parts`.
    """
    return direct_product(one_object_group(table), coarse_groupoid(n))


def ambient_arrow(d: int, p: int, q: int, n: int) -> int:
    return d * n * n + p * n + q


def ambient_parts(f: int, n: int) -> tuple[int, int, int]:
    d, pq = divmod(f, n * n)
    p, q = divmod(pq, n)
    return d, p, q


class WideSubgroupoidData:
    """Group-theoretic data carving a wide subgroupoid out of D(O) x P^2.

    * ``relation``: class label per object (labels are the least member).
    * ``vertex_groups``: subgroup of D attached to each object.
    * ``coset_reps``: representative d_PQ for every related ordered pair,
      including the diagonal.
    * ``transversal``: group part of the arrow tau_P in D(O)xP^2 from the
      fixed origin 0 to P.
    """

    def __init__(self, n_objects: int, relation: tuple[int, ...],
                 vertex_groups: tuple[frozenset[int], ...],
                 coset_reps: dict[tuple[int, int], int],
                 transversal: tuple[int, ...]):
        self.n_objects = n_objects
        self.relation = relation
        self.vertex_groups = vertex_groups
        self.coset_reps = coset_reps
        self.transversal = transversal

    def related(self, p: int, q: int) -> bool:
        return self.relation[p] == self.relation[q]


def trivial_transversal(n: int, table) -> tuple[int, ...]:
    e = one_object_group(table).identity[0]
    return tuple([e] * n)


def validate_subgroupoid_data(data: WideSubgroupoidData, table) -> Report:
    """Check the coset-compatibility equations behind the wide-subgroupoid
    correspondence: d_PQ H_Q = H_P d_PQ, d_PQ d_QR in H_P d_PR, d_PP in H_P."""
    rep = Report("wide-subgroupoid data")
    n = data.n_objects
    order = len(table)
    mul = table
    eid = one_object_group(table).identity[0]
    for p in range(n):
        h = data.vertex_groups[p]
        if not h or any(not 0 <= a < order for a in h):
            rep.add("subgroup", (p,), "empty or out-of-range vertex set")
            continue
        for a in h:
            for b in h:
                if mul[a][b] not in h:
                    rep.add("subgroup", (p, a, b), "not closed under product")
        if eid not in h:
            rep.add("subgroup", (p,), "missing identity")
    for (p, q), d in data.coset_reps.items():
        if not data.related(p, q):
            rep.add("structure", (p, q), "representative for unrelated pair")
    for p in range(n):
        for q in range(n):
            if data.related(p, q) and (p, q) not in data.coset_reps:
                rep.add("structure", (p, q), "missing representative")
    if not rep.ok:
        return rep
    for (p, q), d in data.coset_reps.items():
        left = {mul[d][b] for b in data.vertex_groups[q]}
        right = {mul[a][d] for a in data.vertex_groups[p]}
        if left != right:
            rep.add("coset-exchange", (p, q))
    for p in range(n):
        for q in range(n):
            if not data.related(p, q):
                continue
            for r in range(n):
                if not data.related(q, r):
                    continue
                prod = mul[data.coset_reps[(p, q)]][data.coset_reps[(q, r)]]
                coset = {mul[a][data.coset_reps[(p, r)]] for a in data.vertex_groups[p]}
                if prod not in coset:
                    rep.add("coset-cocycle", (p, q, r))
        if data.coset_reps[(p, p)] not in data.vertex_groups[p]:
            rep.add("coset-diagonal", (p,))
    return rep


def wide_subgroupoid_from_data(data: WideSubgroupoidData, table) -> frozenset[int]:
    """Arrow set of the wide subgroupoid H(P,Q) = tau_P^-1 H_P d_PQ tau_Q of
    the ambient ``group_times_coarse(table, n)``."""
    validate_subgroupoid_data(data, table).raise_if_failed()
    n = data.n_objects
    ginv = one_object_group(table).inverse
    arrows = set()
    for p in range(n):
        for q in range(n):
            if not data.related(p, q):
                continue
            d = data.coset_reps[(p, q)]
            for h in data.vertex_groups[p]:
                grp = table[table[ginv[data.transversal[p]]][h]][table[d][data.transversal[q]]]
                arrows.add(ambient_arrow(grp, p, q, n))
    result = frozenset(arrows)
    ambient = group_times_coarse(table, n)
    bad = closure_defect(ambient, result)
    if bad is not None:
        raise InternalConsistencyError(f"constructed subgroupoid not closed at {bad}")
    return result


def closure_defect(g: Groupoid, arrows) -> tuple | None:
    """The first witness that an arrow set is not a wide subgroupoid of g:
    ("identity", P), ("inverse", f) or ("compose", f, h); None if it is."""
    arrows = frozenset(arrows)
    for p in range(g.n_objects):
        if g.identity[p] not in arrows:
            return ("identity", p)
    for f in arrows:
        if g.inv(f) not in arrows:
            return ("inverse", f)
        for h in arrows:
            c = g.compose[f][h]
            if c != UNDEF and c not in arrows:
                return ("compose", f, h)
    return None


def data_from_wide_subgroupoid(arrows: frozenset[int], table, n: int,
                               transversal=None) -> WideSubgroupoidData:
    """Read the data back off a wide subgroupoid: H_P = tau_P H(P) tau_P^-1,
    d_PQ from the least arrow of H(P,Q)."""
    ambient = group_times_coarse(table, n)
    bad = closure_defect(ambient, arrows)
    if bad is not None:
        raise StructureError(f"input arrow set is not a wide subgroupoid: {bad}")
    if transversal is None:
        transversal = trivial_transversal(n, table)
    ginv = one_object_group(table).inverse
    hom: dict[tuple[int, int], list[int]] = {}
    for f in arrows:
        d, p, q = ambient_parts(f, n)
        hom.setdefault((p, q), []).append(d)
    # closure gives all pairs of each class, so the least partner is the label
    labels = [min(q for q in range(n) if (p, q) in hom or q == p) for p in range(n)]
    # conjugate back to the origin through the transversal
    vertex = []
    for p in range(n):
        tp = transversal[p]
        vertex.append(frozenset(table[table[tp][d]][ginv[tp]] for d in hom[(p, p)]))
    reps = {}
    for (p, q), ds in hom.items():
        if labels[p] != labels[q]:
            raise InternalConsistencyError("relation labels disagree with arrows")
        d = min(ds)
        reps[(p, q)] = table[table[transversal[p]][d]][ginv[transversal[q]]]
    return WideSubgroupoidData(n, tuple(labels), tuple(vertex), reps, tuple(transversal))


def same_double_coset(table, h_left: frozenset[int], h_right: frozenset[int],
                      d1: int, d2: int) -> bool:
    """Orbit enumeration for the class of d in H_P \\ D / H_Q."""
    return any(table[table[a][d1]][b] == d2 for a in h_left for b in h_right)
