"""The box algebra of a vacant double groupoid, optionally cocycle-twisted.

The vector space has the box set as basis.  Multiplication is the (twisted)
groupoid algebra of stacking (boxes over horizontal edges); comultiplication
is dual to the (twisted) groupoid algebra of horizontal pasting::

    A . B   = sigma(A, B) [A over B]        when bottom(A) = top(B), else 0
    Delta(A) = sum tau(B, C) B (x) C        over pastings A = B C
    eps(A)   = 1 iff A is a horizontal identity box
    S(A)     = tau(A, A^h)^-1 sigma(A^-1, A^h)^-1  A^-1

Everything is a finite structure-constant table over an exact field.  The
verifications are exhaustive over basis tuples, but they visit only the
tuples on which some term of an identity can be nonzero.  A term is a
product of table entries, and it vanishes whenever one of them is absent: a
product a.b with ``product_table[a][b] is None``, a coproduct term missing
from ``factorizations``, a counit value of zero.  So the scans enumerate
their tuples from that nonzero pattern (``_products``: the defined products,
read once per scan from the table itself, plus the factorization lists).
At every tuple a scan skips, both sides of the identity are zero, whatever
the tables hold.  No frame axiom is assumed, so a corrupted table is caught as
it would be by the full n^2 or n^3 scan.  ``Report.checked`` counts the
tuples examined per rule.
"""

from __future__ import annotations

from .cocycles import CocyclePair, embed_in_field, zero_pair
# validate_double_groupoid stays importable here; require_vacant calls it
from .double import (DoubleGroupoid, double_direct_product,  # noqa: F401
                     double_disjoint_union, require_vacant,
                     validate_double_groupoid)
from .errors import (InternalConsistencyError, Report, StructureError,
                     UnsupportedFeatureError)
from .fields import FieldSpec
from .groupoids import UNDEF, connected_decomposition

Element = dict  # box index -> nonzero scalar


class QuantumGroupoid:
    """Structure-constant tables of the (twisted) box algebra."""

    __slots__ = ("double", "field", "cocycle", "dim", "product_table",
                 "factorizations", "tau_hat", "sigma_hat", "counit_table",
                 "antipode_table", "_delta_one")

    def __init__(self, double, field, cocycle, product_table, factorizations,
                 sigma_hat, tau_hat, counit_table, antipode_table):
        self.double = double
        self.field = field
        self.cocycle = cocycle
        self.dim = double.n_boxes
        self.product_table = product_table
        self.factorizations = factorizations
        self.sigma_hat = sigma_hat
        self.tau_hat = tau_hat
        self.counit_table = counit_table
        self.antipode_table = antipode_table
        self._delta_one = None

    def is_twisted(self) -> bool:
        return self.cocycle is not None and (
            any(self.cocycle.sigma) or any(self.cocycle.tau))

    # -- distinguished elements ----------------------------------------

    def unit(self) -> Element:
        one = self.field.one
        return {self.double.vid[x]: one for x in self.double.horiz.arrows()}

    def local_unit_left(self, p: int) -> Element:
        """_P 1 = sum of vid(x) over horizontal edges starting at P."""
        one = self.field.one
        hz = self.double.horiz
        return {self.double.vid[x]: one for x in hz.arrows() if hz.source[x] == p}

    def local_unit_right(self, p: int) -> Element:
        """1_P = sum of vid(x) over horizontal edges ending at P."""
        one = self.field.one
        hz = self.double.horiz
        return {self.double.vid[x]: one for x in hz.arrows() if hz.target[x] == p}

    def delta_one(self) -> dict:
        """Delta(1) as a sparse tensor {(b, c): scalar}."""
        if self._delta_one is None:
            out: dict = {}
            for x in self.double.horiz.arrows():
                for b, c, s in self.factorizations[self.double.vid[x]]:
                    _tadd(self.field, out, (b, c), s)
            self._delta_one = out
        return dict(self._delta_one)


def _tadd(fs, acc, key, value):
    new = fs.add(acc.get(key, fs.zero), value)
    if new == fs.zero:
        acc.pop(key, None)
    else:
        acc[key] = new


def _check_element(w: "QuantumGroupoid", el: Element) -> None:
    for key in el:
        if not isinstance(key, int) or not 0 <= key < w.dim:
            raise StructureError(
                f"element key {key!r} is not a basis box of this algebra "
                f"(dimension {w.dim})")


def build(t: DoubleGroupoid, cp: CocyclePair | None = None,
          fs: FieldSpec | None = None) -> QuantumGroupoid:
    """Populate all tables.  Refuses non-vacant input (no antipode would
    exist) and cocycles the field cannot realize."""
    if fs is None:
        fs = FieldSpec(0)
    require_vacant(t)
    if cp is None:
        cp = zero_pair(t, fs.modulus)
    sigma_hat, tau_hat = embed_in_field(t, cp, fs)
    n = t.n_boxes
    product_table = []
    for a in t.boxes():
        row = []
        for b in t.boxes():
            c = t.vcomp[a][b]
            row.append(None if c == UNDEF else (c, sigma_hat[(a, b)]))
        product_table.append(row)
    factorizations = [[] for _ in range(n)]
    for (b, c) in t.horizontal_boxes.composable_pairs():
        factorizations[t.hcomp[b][c]].append((b, c, tau_hat[(b, c)]))
    counit_table = [fs.one if t.is_hid(a) else fs.zero for a in t.boxes()]
    inv = t.inverses
    antipode_table = []
    for a in t.boxes():
        scal = fs.mul(fs.inv(tau_hat[(a, inv.h_inv[a])]),
                      fs.inv(sigma_hat[(inv.full_inv[a], inv.h_inv[a])]))
        antipode_table.append((inv.full_inv[a], scal))
    return QuantumGroupoid(t, fs, cp, product_table, factorizations,
                           sigma_hat, tau_hat, counit_table, antipode_table)


# -- linear-extension element operations -------------------------------------


def multiply(w: QuantumGroupoid, a: Element, b: Element) -> Element:
    _check_element(w, a)
    _check_element(w, b)
    fs = w.field
    out: Element = {}
    for i, av in a.items():
        row = w.product_table[i]
        for j, bv in b.items():
            hit = row[j]
            if hit is not None:
                _tadd(fs, out, hit[0], fs.mul(fs.mul(av, bv), hit[1]))
    return out


def comultiply(w: QuantumGroupoid, a: Element) -> dict:
    _check_element(w, a)
    fs = w.field
    out: dict = {}
    for i, av in a.items():
        for b, c, s in w.factorizations[i]:
            _tadd(fs, out, (b, c), fs.mul(av, s))
    return out


def counit(w: QuantumGroupoid, a: Element):
    _check_element(w, a)
    fs = w.field
    total = fs.zero
    for i, av in a.items():
        total = fs.add(total, fs.mul(av, w.counit_table[i]))
    return total


def antipode(w: QuantumGroupoid, a: Element) -> Element:
    _check_element(w, a)
    fs = w.field
    out: Element = {}
    for i, av in a.items():
        j, s = w.antipode_table[i]
        _tadd(fs, out, j, fs.mul(av, s))
    return out


def counital_maps(w: QuantumGroupoid, a: Element) -> tuple[Element, Element]:
    """(eps_s(a), eps_t(a)) computed from their defining expressions
    eps_s(h) = (id (x) eps)((1 (x) h) Delta(1)) and
    eps_t(h) = (eps (x) id)(Delta(1) (h (x) 1))."""
    _check_element(w, a)
    fs = w.field
    d1 = w.delta_one()
    eps_t: Element = {}
    eps_s: Element = {}
    for i, av in a.items():
        for (b, c), s in d1.items():
            hit = w.product_table[b][i]          # B.h
            if hit is not None and w.counit_table[hit[0]] != fs.zero:
                coeff = fs.mul(fs.mul(av, s),
                               fs.mul(hit[1], w.counit_table[hit[0]]))
                _tadd(fs, eps_t, c, coeff)
            hit = w.product_table[i][c]          # h.C
            if hit is not None and w.counit_table[hit[0]] != fs.zero:
                coeff = fs.mul(fs.mul(av, s),
                               fs.mul(hit[1], w.counit_table[hit[0]]))
                _tadd(fs, eps_s, b, coeff)
    return eps_s, eps_t


# -- axiom verification -------------------------------------------------------


def _delta2(w: QuantumGroupoid, a: int) -> dict:
    """Delta^(2) of a basis element: {(x, y, z): scalar} over x|y|z = a."""
    fs = w.field
    out: dict = {}
    for b, c, s in w.factorizations[a]:
        for x, y, s2 in w.factorizations[b]:
            _tadd(fs, out, (x, y, c), fs.mul(s, s2))
    return out


def _products(w: QuantumGroupoid):
    """Every defined basis product a.b = s c as (a, b, c, s), in (a, b) order:
    the nonzero pattern of ``product_table``, which every sparse scan reads."""
    for a, row in enumerate(w.product_table):
        for b, hit in enumerate(row):
            if hit is not None:
                yield a, b, hit[0], hit[1]


def _partners(w: QuantumGroupoid):
    """right[a] = [(b, c, s)] and left[b] = [(a, c, s)] with a.b = s c, and
    splits[c] = [(a, b, s)], the products that land on c."""
    right = [[] for _ in range(w.dim)]
    left = [[] for _ in range(w.dim)]
    splits = [[] for _ in range(w.dim)]
    for a, b, c, s in _products(w):
        right[a].append((b, c, s))
        left[b].append((a, c, s))
        splits[c].append((a, b, s))
    return right, left, splits


def _differ(lhs: dict, rhs: dict, zero) -> tuple[int, list]:
    """(number of keys of lhs or rhs, sorted keys where the two differ); an
    absent key reads as ``zero``."""
    keys = lhs.keys() | rhs.keys()
    return len(keys), sorted(k for k in keys
                             if lhs.get(k, zero) != rhs.get(k, zero))


def verify_axioms(w: QuantumGroupoid) -> Report:
    """Check every quantum-groupoid axiom on basis tuples.

    Keys: associativity, coassociativity, comultiplicativity (Delta(ab) =
    Delta(a)Delta(b)), weak-unit (the Delta2(1) identities), weak-counit,
    antipode-target, antipode-source, antipode-composite.

    The n^3 and n^2 identities are scanned only on the tuples where some term
    is nonzero, read off the tables' nonzero pattern (see the module
    docstring); ``Report.checked`` counts the tuples examined per rule.
    """
    fs = w.field
    mul = fs.mul
    t = w.double
    rep = Report("quantum groupoid axioms")
    n = w.dim
    pt = w.product_table
    fac = w.factorizations
    right, left, splits = _partners(w)
    # first[r] = [(b, s', scalar)] over the factorizations b = r|s', and
    # second[s'] = [(b, r, scalar)] over the same
    first = [[] for _ in range(n)]
    second = [[] for _ in range(n)]
    for b in range(n):
        for r, s_, s2 in fac[b]:
            first[r].append((b, s_, s2))
            second[s_].append((b, r, s2))
    # associativity: (a.b).c is a term iff a.b = d and d.c are defined, and
    # a.(b.c) iff a.d is with b.c = d; elsewhere both sides are 0
    for a in range(n):
        outer: dict = {}
        for b, d, s in right[a]:
            for c, e, s2 in right[d]:
                outer[(b, c)] = (e, mul(s, s2))
        inner: dict = {}
        for d, e, s2 in right[a]:
            for b, c, s in splits[d]:
                inner[(b, c)] = (e, mul(s, s2))
        examined, bad = _differ(outer, inner, None)
        rep.count("associativity", examined)
        for b, c in bad:
            rep.add("associativity", (a, b, c))
    # coassociativity
    for a in range(n):
        lhs: dict = {}
        rhs: dict = {}
        for b, c, s in fac[a]:
            for x, y, s2 in fac[b]:
                _tadd(fs, lhs, (x, y, c), mul(s, s2))
            for x, y, s2 in fac[c]:
                _tadd(fs, rhs, (b, x, y), mul(s, s2))
        if lhs != rhs:
            rep.add("coassociativity", (a,))
    rep.count("coassociativity", n)
    # Delta(ab) = Delta(a) Delta(b): the left side needs a.b defined, a term
    # x.r (x) y.s' of the right side needs x.r defined with b = r|s'
    for a in range(n):
        rhs_of: dict = {}
        for x, y, s1 in fac[a]:
            for r, p1, h1 in right[x]:
                for b, s_, s2 in first[r]:
                    p2 = pt[y][s_]
                    if p2 is not None:
                        coeff = mul(mul(s1, s2), mul(h1, p2[1]))
                        _tadd(fs, rhs_of.setdefault(b, {}), (p1, p2[0]), coeff)
        bs = {b for b, _, _ in right[a]} | rhs_of.keys()
        rep.count("comultiplicativity", len(bs))
        for b in sorted(bs):
            lhs = {}
            hit = pt[a][b]
            if hit is not None:
                for x, y, s in fac[hit[0]]:
                    _tadd(fs, lhs, (x, y), mul(hit[1], s))
            if lhs != rhs_of.get(b, {}):
                rep.add("comultiplicativity", (a, b))
    # weak unit axiom: pairs of Delta(1) terms (b (x) c, b2 (x) c2) whose
    # middle product c.b2 or b2.c is defined
    d1 = w.delta_one()
    d2_one: dict = {}
    for x in t.horiz.arrows():
        for key, s in _delta2(w, t.vid[x]).items():
            _tadd(fs, d2_one, key, s)
    by_first: dict = {}
    for (b2, c2), s2 in d1.items():
        by_first.setdefault(b2, []).append((c2, s2))
    first_way: dict = {}
    second_way: dict = {}
    pairs = 0
    for (b, c), s in d1.items():
        # (Delta(1) (x) 1)(1 (x) Delta(1)): middle slot multiplies c.b2
        for b2, e, h in right[c]:
            for c2, s2 in by_first.get(b2, ()):
                _tadd(fs, first_way, (b, e, c2), mul(mul(s, s2), h))
        # (1 (x) Delta(1))(Delta(1) (x) 1): middle slot multiplies b2.c
        for b2, e, h in left[c]:
            for c2, s2 in by_first.get(b2, ()):
                _tadd(fs, second_way, (b, e, c2), mul(mul(s2, s), h))
        middles = {b2 for b2, _, _ in right[c]} | {b2 for b2, _, _ in left[c]}
        pairs += sum(len(by_first.get(b2, ())) for b2 in middles)
    rep.count("weak-unit", pairs)
    if d2_one != first_way:
        rep.add("weak-unit", ("(Delta(1)x1)(1xDelta(1))",))
    if d2_one != second_way:
        rep.add("weak-unit", ("(1xDelta(1))(Delta(1)x1)",))
    # weak counit axiom: eps(u.v) is nonzero only for the pairs in
    # eps_right[u], so a triple with no such pair in any term reads 0 = 0 = 0
    eps_right = [[] for _ in range(n)]
    for u, v, c, s in _products(w):
        if w.counit_table[c] != fs.zero:
            eps_right[u].append((v, mul(s, w.counit_table[c])))
    for a in range(n):
        abc: dict = {}
        for b, d, s in right[a]:
            for c, e in eps_right[d]:
                abc[(b, c)] = mul(s, e)
        # sum over b = b1|b2 of eps(a.b1) eps(b2.c), and of eps(a.b2) eps(b1.c)
        one_way: dict = {}
        other: dict = {}
        for acc, by_factor in ((one_way, first), (other, second)):
            for u, e1 in eps_right[a]:
                for b, v, s in by_factor[u]:
                    for c, e2 in eps_right[v]:
                        acc[(b, c)] = fs.add(acc.get((b, c), fs.zero),
                                             mul(s, mul(e1, e2)))
        keys = abc.keys() | one_way.keys() | other.keys()
        rep.count("weak-counit", len(keys))
        for b, c in sorted(keys):
            val = abc.get((b, c), fs.zero)
            if val != one_way.get((b, c), fs.zero) or val != other.get((b, c), fs.zero):
                rep.add("weak-counit", (a, b, c))
    # antipode axioms, against the defining expressions for eps_t / eps_s
    for a in range(n):
        basis = {a: fs.one}
        eps_s_a, eps_t_a = counital_maps(w, basis)
        lhs_t: Element = {}
        lhs_s: Element = {}
        for b, c, s in w.factorizations[a]:
            sc = w.antipode_table[c]
            hit = w.product_table[b][sc[0]]
            if hit is not None:
                _tadd(fs, lhs_t, hit[0], fs.mul(s, fs.mul(sc[1], hit[1])))
            sb = w.antipode_table[b]
            hit = w.product_table[sb[0]][c]
            if hit is not None:
                _tadd(fs, lhs_s, hit[0], fs.mul(s, fs.mul(sb[1], hit[1])))
        if lhs_t != eps_t_a:
            rep.add("antipode-target", (a,))
        if lhs_s != eps_s_a:
            rep.add("antipode-source", (a,))
        lhs3: Element = {}
        for (x, y, z), s in _delta2(w, a).items():
            sx = w.antipode_table[x]
            sz = w.antipode_table[z]
            hit = w.product_table[sx[0]][y]
            if hit is None:
                continue
            hit2 = w.product_table[hit[0]][sz[0]]
            if hit2 is None:
                continue
            coeff = fs.mul(fs.mul(s, fs.mul(sx[1], sz[1])),
                           fs.mul(hit[1], hit2[1]))
            _tadd(fs, lhs3, hit2[0], coeff)
        j, s = w.antipode_table[a]
        if lhs3 != {j: s}:
            rep.add("antipode-composite", (a,))
    for rule in ("antipode-target", "antipode-source", "antipode-composite"):
        rep.count(rule, n)
    return rep


# -- structural propositions --------------------------------------------------


def is_hopf(w: QuantumGroupoid) -> bool:
    """Delta(1) = 1 (x) 1, cross-checked against |points| = 1."""
    fs = w.field
    one_tensor_one = {}
    for x in w.double.horiz.arrows():
        for y in w.double.horiz.arrows():
            one_tensor_one[(w.double.vid[x], w.double.vid[y])] = fs.one
    verdict = w.delta_one() == one_tensor_one
    if verdict != (w.double.n_points == 1):
        raise InternalConsistencyError(
            "Delta(1) = 1x1 disagrees with the one-point criterion")
    return verdict


def check_involutory(w: QuantumGroupoid) -> bool:
    fs = w.field
    for a in range(w.dim):
        b, s = w.antipode_table[a]
        c, s2 = w.antipode_table[b]
        if c != a or fs.mul(s, s2) != fs.one:
            return False
    return True


class BlockStructure:
    """Matrix-algebra blocks of the untwisted algebra and coalgebra:
    (component representative object, vertex group order, component size)."""

    def __init__(self, algebra_blocks: list[tuple[int, int, int]],
                 coalgebra_blocks: list[tuple[int, int, int]]):
        self.algebra_blocks = algebra_blocks
        self.coalgebra_blocks = coalgebra_blocks


def block_structure(w: QuantumGroupoid) -> BlockStructure:
    """Blocks k B(x) (x) M_n from the components of the two box groupoids.
    Twisted algebras are out of scope and refused."""
    if w.is_twisted():
        raise UnsupportedFeatureError(
            "block structure of a twisted algebra is unsupported")
    blocks = []
    for comp in connected_decomposition(w.double.vertical_boxes):
        blocks.append((comp.base, comp.vertex_order, len(comp.objects)))
    coblocks = []
    for comp in connected_decomposition(w.double.horizontal_boxes):
        coblocks.append((comp.base, comp.vertex_order, len(comp.objects)))
    for side in (blocks, coblocks):
        if sum(order * size * size for _, order, size in side) != w.dim:
            raise InternalConsistencyError("block dimensions do not add up")
    return BlockStructure(blocks, coblocks)


def unit_object_simple(t: DoubleGroupoid) -> bool:
    """Simplicity of the unit object: connectivity of the vertical edge
    groupoid on the points."""
    return t.vert.is_connected()


def simple_algebra_conditions(t: DoubleGroupoid) -> dict[str, bool]:
    """The four combinatorial conditions equivalent to the box algebra being
    simple: boxes-over-horizontal coarse, horizontal edges a trivial bundle,
    vertical edges coarse, boxes-over-vertical a trivial bundle."""

    def is_coarse(g):
        return (g.is_connected()
                and all(len(g.arrows_between(x, y)) == 1
                        for x in range(g.n_objects) for y in range(g.n_objects)))

    def is_trivial_bundle(g):
        return all(g.is_identity(f) for f in g.arrows())

    return {
        "boxes-over-horizontal-coarse": is_coarse(t.vertical_boxes),
        "horizontal-trivial-bundle": is_trivial_bundle(t.horiz),
        "vertical-coarse": is_coarse(t.vert),
        "boxes-over-vertical-trivial-bundle": is_trivial_bundle(t.horizontal_boxes),
    }


def algebra_is_simple(w: QuantumGroupoid) -> bool:
    bs = block_structure(w)
    return len(bs.algebra_blocks) == 1 and bs.algebra_blocks[0][1] == 1


# -- duality, gauge isomorphisms, products ------------------------------------


def duality_check(w: QuantumGroupoid, wt: QuantumGroupoid) -> bool:
    """Verify that (B | C) = delta_{B, C^t} pairs wt against w: products
    against coproducts (both ways), units against counits, and antipodes.

    ``wt`` must be built on the transpose double groupoid (same box indices)
    with the two cocycles swapped.
    """
    from .double import transpose
    fs = w.field
    if wt.double != transpose(w.double):
        raise StructureError("duality partner must live on the transpose")
    if wt.field != w.field:
        raise StructureError("duality partners must share the field")
    zero = fs.zero
    # <a.b, c> = sum <a, c1><b, c2>, and <a, c.d> = sum <a1, c><a2, d>: the
    # pairing of a product with c is nonzero only where the product is
    # defined, that of a coproduct only at its factorization terms
    for prod, coprod in ((wt, w), (w, wt)):
        products = {(a, b, c): s for a, b, c, s in _products(prod)}
        terms: dict = {}
        for c, fac in enumerate(coprod.factorizations):
            for a, b, s in fac:
                terms[(a, b, c)] = fs.add(terms.get((a, b, c), zero), s)
        if _differ(products, terms, zero)[1]:
            return False
    # <1, c> = eps(c) and <a, 1> = eps(a)
    unit_wt = wt.unit()
    for c in range(w.dim):
        if unit_wt.get(c, zero) != w.counit_table[c]:
            return False
    unit_w = w.unit()
    for a in range(w.dim):
        if unit_w.get(a, zero) != wt.counit_table[a]:
            return False
    # <S(a), c> = <a, S(c)>: nonzero only at c = S(a), resp. a = S(c)
    lhs = {(a, j): s for a, (j, s) in enumerate(wt.antipode_table)}
    rhs = {(j, c): s for c, (j, s) in enumerate(w.antipode_table)}
    return not _differ(lhs, rhs, zero)[1]


def gauge_isomorphism_check(w1: QuantumGroupoid, w2: QuantumGroupoid,
                            psi_scalars) -> bool:
    """Is B -> psi(B) B an isomorphism of quantum groupoids w1 -> w2?

    Checks multiplicativity, comultiplicativity, unit, counit and antipode
    against the tables.  psi must be nowhere zero.
    """
    fs = w1.field
    if w2.double != w1.double or w2.field != fs:
        raise StructureError("gauge isomorphism needs the same T and field")
    if len(psi_scalars) != w1.dim or any(v == fs.zero for v in psi_scalars):
        raise StructureError("gauge values must be nonzero on every box")
    n = w1.dim
    hits1 = {(a, b): (c, s) for a, b, c, s in _products(w1)}
    hits2 = {(a, b): (c, s) for a, b, c, s in _products(w2)}
    if hits1.keys() != hits2.keys():
        return False
    for (a, b), (c, s) in hits1.items():
        c2, s2 = hits2[(a, b)]
        if c != c2:
            return False
        lhs = fs.mul(s, psi_scalars[c])
        rhs = fs.mul(fs.mul(psi_scalars[a], psi_scalars[b]), s2)
        if lhs != rhs:
            return False
    for a in range(n):
        f1 = {(b, c): s for b, c, s in w1.factorizations[a]}
        f2 = {(b, c): s for b, c, s in w2.factorizations[a]}
        if f1.keys() != f2.keys():
            return False
        for (b, c), s in f1.items():
            lhs = fs.mul(s, fs.mul(psi_scalars[b], psi_scalars[c]))
            rhs = fs.mul(psi_scalars[a], f2[(b, c)])
            if lhs != rhs:
                return False
    for a in range(n):
        if fs.mul(psi_scalars[a], w2.counit_table[a]) != w1.counit_table[a]:
            return False
    if any(psi_scalars[w1.double.vid[x]] != fs.one
           for x in w1.double.horiz.arrows()):
        return False
    for a in range(n):
        # Psi(S1(a)) = s1 psi(j) j must equal S2(Psi(a)) = psi(a) s2 j
        j1, s1 = w1.antipode_table[a]
        j2, s2 = w2.antipode_table[a]
        if j1 != j2:
            return False
        if fs.mul(s1, psi_scalars[j1]) != fs.mul(psi_scalars[a], s2):
            return False
    return True


def product_union_check(t1: DoubleGroupoid, t2: DoubleGroupoid,
                        fs: FieldSpec | None = None) -> bool:
    """Verify k(T1 u T2) = kT1 x kT2 and k(T1 x T2) = kT1 (x) kT2 as
    structure-constant identifications, table by table (untwisted)."""
    if fs is None:
        fs = FieldSpec(0)
    w1, w2 = build(t1, fs=fs), build(t2, fs=fs)
    wu = build(double_disjoint_union(t1, t2), fs=fs)
    n1 = t1.n_boxes
    expect = {(a + off, b + off): (c + off, s)
              for src, off in ((w1, 0), (w2, n1))
              for a, b, c, s in _products(src)}
    if {(a, b): (c, s) for a, b, c, s in _products(wu)} != expect:
        return False
    for a in range(wu.dim):
        src = w1 if a < n1 else w2
        off = 0 if a < n1 else n1
        expect = [(b + off, c + off, s) for b, c, s in src.factorizations[a - off]]
        if sorted(wu.factorizations[a]) != sorted(expect):
            return False
        if wu.counit_table[a] != src.counit_table[a - off]:
            return False
        j, s = src.antipode_table[a - off]
        if wu.antipode_table[a] != (j + off, s):
            return False
    wp = build(double_direct_product(t1, t2), fs=fs)
    m2 = t2.n_boxes

    def pidx(a1, a2):
        return a1 * m2 + a2

    hits2 = list(_products(w2))
    expect = {(pidx(a1, a2), pidx(b1, b2)): (pidx(c1, c2), fs.mul(s1, s2))
              for a1, b1, c1, s1 in _products(w1)
              for a2, b2, c2, s2 in hits2}
    if {(a, b): (c, s) for a, b, c, s in _products(wp)} != expect:
        return False
    for a1 in range(n1):
        for a2 in range(m2):
            a = pidx(a1, a2)
            expect = sorted(
                (pidx(b1, b2), pidx(c1, c2), fs.mul(s1, s2))
                for b1, c1, s1 in w1.factorizations[a1]
                for b2, c2, s2 in w2.factorizations[a2])
            if sorted(wp.factorizations[a]) != expect:
                return False
            if wp.counit_table[a] != fs.mul(w1.counit_table[a1],
                                            w2.counit_table[a2]):
                return False
            j1, s1 = w1.antipode_table[a1]
            j2, s2 = w2.antipode_table[a2]
            if wp.antipode_table[a] != (pidx(j1, j2), fs.mul(s1, s2)):
                return False
    return True
