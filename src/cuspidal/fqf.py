"""Finite quadratic forms (discriminant forms of even lattices).

A form lives on a finite abelian group in invariant-factor shape
Z/d1 + ... + Z/dr (d1 | d2 | ...), with q taking values in Q/2Z and the
associated bilinear form b in Q/Z.  Elements are plain coefficient
tuples reduced modulo the invariant factors; all values are exact
Fractions with canonical representatives (q in [0,2), b in [0,1)).

Forms built from a lattice keep enough provenance to map rational dual
vectors to classes and back; forms built as perp-quotients H^perp/H keep
the transform data needed to project classes of the parent group.  No
matrix is inverted over Q: with U G V = D the generator lifts are the
columns of V divided by the invariant factors, and quotient coordinates
come from back-substitution in a Hermite basis (``exact.hnf_coords``)
and the Smith transform of the sublattice.  ``q`` and ``b`` of a form
and of a direct sum are evaluated by the same two sums.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

from .errors import BadParameter, GroupTooLarge, InternalError, NotIsotropic, OddLattice
from .exact import IntMatrix, hnf_coords, hnf_rows, kernel_basis, smith_normal_form

ENUM_BOUND = 10**6


def _mod2(x) -> Fraction:
    return Fraction(x) % 2


def _mod1(x) -> Fraction:
    return Fraction(x) % 1


def _q_sum(qdiag, bmat, x) -> Fraction:
    """sum_i x_i^2 q_i + 2 sum_{i<j} x_i x_j b_ij, not reduced mod 2."""
    total = Fraction(0)
    for i, a in enumerate(x):
        if a:
            total += a * a * qdiag[i]
            row = bmat[i]
            for j in range(i + 1, len(x)):
                if x[j]:
                    total += 2 * a * x[j] * row[j]
    return total


def _b_sum(bmat, x, y) -> Fraction:
    """sum_ij x_i y_j b_ij, not reduced mod 1."""
    total = Fraction(0)
    for i, a in enumerate(x):
        if a:
            row = bmat[i]
            for j, c in enumerate(y):
                if c:
                    total += a * c * row[j]
    return total


class FiniteQuadraticForm:
    """Finite abelian group with a Q/2Z-valued quadratic form."""

    __slots__ = ("orders", "qdiag", "bmat", "source")

    def __init__(self, orders, qdiag, bmat, source=None):
        orders = tuple(int(d) for d in orders)
        if any(d < 2 for d in orders):
            raise ValueError("invariant factors must be >= 2")
        if any(orders[i + 1] % orders[i] for i in range(len(orders) - 1)):
            raise ValueError("orders must form a divisibility chain")
        r = len(orders)
        qdiag = tuple(_mod2(x) for x in qdiag)
        if len(qdiag) != r:
            raise ValueError("one q value per generator required")
        full = [[Fraction(0)] * r for _ in range(r)]
        for i in range(r):
            full[i][i] = _mod1(qdiag[i])
            for j in range(r):
                if i != j:
                    full[i][j] = _mod1(bmat[i][j])
        for i in range(r):
            for j in range(r):
                if full[i][j] != full[j][i]:
                    raise ValueError("bilinear matrix must be symmetric")
                if _mod1(orders[i] * full[i][j]) != 0:
                    raise ValueError("bilinear value incompatible with orders")
        for i in range(r):
            if _mod2(orders[i] * orders[i] * qdiag[i]) != 0 or _mod1(orders[i] * qdiag[i]) != 0:
                raise ValueError("q value incompatible with generator order")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "qdiag", qdiag)
        object.__setattr__(self, "bmat", tuple(tuple(row) for row in full))
        object.__setattr__(self, "source", source)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteQuadraticForm is immutable")

    # group structure -------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def cardinality(self) -> int:
        return prod(self.orders)

    @property
    def zero(self) -> tuple:
        return (0,) * self.rank

    def reduce(self, x) -> tuple:
        return tuple(int(a) % d for a, d in zip(x, self.orders))

    def add(self, x, y) -> tuple:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.orders))

    def neg(self, x) -> tuple:
        return tuple((-a) % d for a, d in zip(x, self.orders))

    def smul(self, n: int, x) -> tuple:
        return tuple((n * a) % d for a, d in zip(x, self.orders))

    def order_of(self, x) -> int:
        out = 1
        for a, d in zip(x, self.orders):
            out = lcm(out, d // gcd(d, a))
        return out

    def elements(self, bound: int = ENUM_BOUND):
        if self.cardinality > bound:
            raise GroupTooLarge(
                f"group of order {self.cardinality} exceeds enumeration bound {bound}"
            )
        return product(*[range(d) for d in self.orders])

    # form values ------------------------------------------------------

    def q(self, x) -> Fraction:
        return _mod2(_q_sum(self.qdiag, self.bmat, self.reduce(x)))

    def b(self, x, y) -> Fraction:
        return _mod1(_b_sum(self.bmat, self.reduce(x), self.reduce(y)))

    # equality is structural: same presentation, not mere isometry
    def __eq__(self, other):
        return (
            isinstance(other, FiniteQuadraticForm)
            and self.orders == other.orders
            and self.qdiag == other.qdiag
            and self.bmat == other.bmat
        )

    def __hash__(self):
        return hash((self.orders, self.qdiag, self.bmat))

    def __repr__(self):
        qs = ", ".join(str(x) for x in self.qdiag)
        return f"FiniteQuadraticForm(orders={list(self.orders)}, q=[{qs}])"

    # lattice provenance ----------------------------------------------

    def lift(self, x):
        """Rational dual-vector representative in the source lattice, if any."""
        src = self.source
        if not isinstance(src, LatticeSource):
            raise ValueError("form has no lattice provenance")
        n = src.lattice.rank
        out = [Fraction(0)] * n
        for a, vec in zip(self.reduce(x), src.lifts):
            if a:
                for i in range(n):
                    out[i] += a * vec[i]
        return tuple(out)

    def class_of(self, coords) -> tuple:
        """Class in this form of a rational vector lying in the dual lattice."""
        src = self.source
        if not isinstance(src, LatticeSource):
            raise ValueError("form has no lattice provenance")
        pairings = src.lattice.gram.apply(coords)
        ints = []
        for x in pairings:
            f = Fraction(x)
            if f.denominator != 1:
                raise ValueError("vector is not in the dual lattice")
            ints.append(int(f))
        y = src.left.apply(ints)
        return tuple(y[i] % src.invariants[i] for i in src.kept)


@dataclass(frozen=True)
class LatticeSource:
    """Provenance of A_L = L*/L: how its generators sit in the lattice L."""

    lattice: object  # the Lattice L
    lifts: tuple  # dual vectors lifting the generators, rational L coordinates
    left: IntMatrix  # Smith left transform U of the Gram matrix
    kept: tuple  # Smith positions with invariant factor > 1, one per generator
    invariants: tuple  # all Smith invariant factors of the Gram matrix


@dataclass(frozen=True)
class QuotientSource:
    """Provenance of H^perp/H: how its generators sit in the parent form."""

    parent: FiniteQuadraticForm
    rows: _RowQuotient  # H^perp modulo H as a quotient of row lattices
    kept: tuple  # quotient positions with order > 1, one per generator
    generator_lifts: tuple  # parent elements of H^perp lifting the generators


def discriminant_form(lattice) -> FiniteQuadraticForm:
    """Discriminant form A_L = L*/L of an even lattice, with provenance."""
    if not lattice.even:
        raise OddLattice("discriminant form requires an even lattice")
    gram = lattice.gram
    snf = smith_normal_form(gram)
    kept = [i for i, d in enumerate(snf.diag) if d > 1]
    # U G V = D gives G^-1 U^-1 = V D^-1: generator i lifts to column i of V over d_i
    lifts = [
        tuple(Fraction(row[i], snf.diag[i]) for row in snf.right.data) for i in kept
    ]

    orders = tuple(snf.diag[i] for i in kept)
    qdiag = [_mod2(gram.bilinear(v, v)) for v in lifts]
    r = len(kept)
    bmat = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            bmat[i][j] = _mod1(gram.bilinear(lifts[i], lifts[j]))
    source = LatticeSource(lattice, tuple(lifts), snf.left, tuple(kept), snf.diag)
    return FiniteQuadraticForm(orders, qdiag, bmat, source=source)


def trivial_form() -> FiniteQuadraticForm:
    return FiniteQuadraticForm((), (), ())


def direct_sum_form(*forms: FiniteQuadraticForm) -> FiniteQuadraticForm:
    """Orthogonal direct sum, renormalized to invariant-factor shape."""
    orders = [d for f in forms for d in f.orders]
    m = len(orders)
    if m == 0:
        return trivial_form()
    qdiag = [x for f in forms for x in f.qdiag]
    bmat = [[Fraction(0)] * m for _ in range(m)]
    off = 0
    for f in forms:
        for i, row in enumerate(f.bmat):
            bmat[off + i][off:off + f.rank] = row
        off += f.rank
    quotient = _row_quotient(IntMatrix.identity(m), IntMatrix.diagonal(orders))
    kept = [i for i, d in enumerate(quotient.orders) if d > 1]
    gen_rows = [quotient.generator_rows.data[i] for i in kept]
    return FiniteQuadraticForm(
        [quotient.orders[i] for i in kept],
        [_q_sum(qdiag, bmat, row) for row in gen_rows],
        [[_b_sum(bmat, r1, r2) for r2 in gen_rows] for r1 in gen_rows],
    )


# ---------------------------------------------------------------------------
# row-lattice quotients (shared by direct sums and perp quotients)


@dataclass(frozen=True)
class _RowQuotient:
    ambient_rows: IntMatrix  # P: Hermite basis of the ambient row lattice
    vmat: IntMatrix
    generator_rows: IntMatrix  # V^{-1} @ P, one row per invariant factor
    orders: tuple

    def class_coords(self, row) -> tuple:
        """Coordinates of an ambient-lattice row modulo the sublattice."""
        y = hnf_coords(self.ambient_rows, row)
        if y is None:
            raise ValueError("row is not in the ambient row lattice")
        z = self.vmat.T.apply(y)  # row-vector times V
        return tuple(a % d for a, d in zip(z, self.orders))


def _row_quotient(P: IntMatrix, sub_rows: IntMatrix) -> _RowQuotient:
    """Quotient of the row lattice of P by the row lattice of sub_rows.

    P is a full-rank Hermite basis (square, upper triangular), so rows
    get their P-coordinates from ``hnf_coords``.
    """
    srows = []
    for row in sub_rows.data:
        y = hnf_coords(P, row)
        if y is None:
            raise ValueError("sublattice is not contained in the ambient lattice")
        srows.append(y)
    s = IntMatrix(hnf_rows(srows))
    if s.rows != P.rows:
        raise ValueError("sublattice must have finite index")
    snf = smith_normal_form(s)
    # L S R = D gives R^-1 = D^-1 (L S), an exact division row by row
    vinv = [[x // d for x in row] for row, d in zip((snf.left @ s).data, snf.diag)]
    return _RowQuotient(P, snf.right, IntMatrix(vinv) @ P, snf.diag)


# ---------------------------------------------------------------------------
# subgroups


@dataclass(frozen=True)
class FqfSubgroup:
    form: FiniteQuadraticForm
    elements: tuple  # sorted element tuples, closed under addition
    generators: tuple

    @property
    def order(self) -> int:
        return len(self.elements)


def subgroup_span(form: FiniteQuadraticForm, gens) -> FqfSubgroup:
    gens = list(gens)
    if any(len(g) != form.rank for g in gens):
        raise BadParameter(f"subgroup generators need {form.rank} coordinates")
    gens = [form.reduce(g) for g in gens]
    elems = {form.zero}
    frontier = [form.zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = form.add(cur, g)
            if nxt not in elems:
                elems.add(nxt)
                frontier.append(nxt)
    canonical = _minimal_generators(form, sorted(elems))
    return FqfSubgroup(form, tuple(sorted(elems)), tuple(canonical))


def _minimal_generators(form, sorted_elems):
    target = set(sorted_elems)
    span = {form.zero}
    gens = []
    for e in sorted_elems:
        if e in span:
            continue
        gens.append(e)
        grow = [e]
        while grow:
            cur = grow.pop()
            for s in list(span):
                nxt = form.add(cur, s)
                if nxt not in span:
                    span.add(nxt)
                    grow.append(nxt)
        if span == target:
            break
    return gens


def trivial_subgroup(form: FiniteQuadraticForm) -> FqfSubgroup:
    return FqfSubgroup(form, (form.zero,), ())


# ---------------------------------------------------------------------------
# isotropic enumeration


def isotropic_elements(form: FiniteQuadraticForm, bound: int = ENUM_BOUND) -> list:
    """All x with q(x) = 0 in Q/2Z, by exhaustive scan (includes 0)."""
    return [x for x in form.elements(bound) if form.q(x) == 0]


def mod_pm1(form: FiniteQuadraticForm, elems) -> list:
    """One representative per {x, -x} orbit, the lexicographically smaller."""
    reps = []
    seen = set()
    for x in elems:
        x = form.reduce(x)
        if x in seen:
            continue
        mx = form.neg(x)
        seen.add(x)
        seen.add(mx)
        reps.append(min(x, mx))
    return sorted(reps)


def isotropic_subgroups(form: FiniteQuadraticForm, bound: int = ENUM_BOUND) -> list:
    """All subgroups on which q vanishes identically, smallest first."""
    iso = isotropic_elements(form, bound)
    iso_set = set(iso)
    trivial = trivial_subgroup(form)
    found = {trivial.elements: trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for sub in frontier:
            have = set(sub.elements)
            for e in iso:
                if e in have:
                    continue
                bigger = subgroup_span(form, list(sub.generators) + [e])
                if bigger.elements in found:
                    continue
                if all(x in iso_set for x in bigger.elements):
                    found[bigger.elements] = bigger
                    nxt.append(bigger)
        frontier = nxt
    return sorted(found.values(), key=lambda s: (s.order, s.elements))


def perp_quotient(form: FiniteQuadraticForm, subgroup: FqfSubgroup) -> FiniteQuadraticForm:
    """H^perp/H with the induced form; requires H isotropic.

    H^perp = {x : b(x, h) = 0 for all h in H}; the result order is
    |A| / |H|^2 and the induced q is well defined because q vanishes
    on H.
    """
    if subgroup.form != form:
        raise ValueError("subgroup belongs to a different form")
    if any(form.q(x) != 0 for x in subgroup.elements):
        raise NotIsotropic("subgroup is not isotropic")
    n = form.rank
    if n == 0:
        return trivial_form()

    # integer model: P = preimage in Z^n of H^perp, PH = preimage of H
    constraints = []
    for h in subgroup.generators:
        row = [form.b(_unit(n, i), h) for i in range(n)]
        den = lcm(*[f.denominator for f in row]) if row else 1
        constraints.append(([int(f * den) for f in row], den))
    if constraints:
        m = len(constraints)
        aug = []
        for j, (crow, den) in enumerate(constraints):
            aug.append(crow + [den if k == j else 0 for k in range(m)])
        ker = kernel_basis(IntMatrix(aug))
        proj = [list(r[:n]) for r in ker.data]
    else:
        proj = [list(r) for r in IntMatrix.identity(n).data]
    p_rows = hnf_rows(proj + IntMatrix.diagonal(form.orders).to_lists())
    ph_rows = hnf_rows(
        [list(g) for g in subgroup.generators]
        + IntMatrix.diagonal(form.orders).to_lists()
    )
    rq = _row_quotient(IntMatrix(p_rows), IntMatrix(ph_rows))
    kept = [i for i, d in enumerate(rq.orders) if d > 1]
    orders = [rq.orders[i] for i in kept]
    gen_elems = [form.reduce(rq.generator_rows.data[i]) for i in kept]
    expected = form.cardinality // (subgroup.order ** 2)
    if prod(orders) != expected:
        raise InternalError("perp quotient order mismatch")
    qd = [form.q(x) for x in gen_elems]
    bm = [[form.b(x, y) for y in gen_elems] for x in gen_elems]
    source = QuotientSource(form, rq, tuple(kept), tuple(gen_elems))
    return FiniteQuadraticForm(orders, qd, bm, source=source)


def project_to_quotient(quotient: FiniteQuadraticForm, x) -> tuple:
    """Class in H^perp/H of an element x of H^perp in the parent form."""
    src = quotient.source
    if not isinstance(src, QuotientSource):
        raise ValueError("form is not a perp quotient")
    coords = src.rows.class_coords(list(src.parent.reduce(x)))
    return tuple(coords[i] for i in src.kept)


def _unit(n, i):
    return tuple(int(j == i) for j in range(n))


# ---------------------------------------------------------------------------
# isometries between forms, orthogonal groups, embeddings


def _signature_buckets(form: FiniteQuadraticForm, bound: int):
    buckets = {}
    for x in form.elements(bound):
        key = (form.order_of(x), form.q(x))
        buckets.setdefault(key, []).append(x)
    return buckets


def _span_size(form: FiniteQuadraticForm, gens, orders) -> int:
    span = {form.zero}
    for g, d in zip(gens, orders):
        layer = list(span)
        cur = form.zero
        for _ in range(1, d):
            cur = form.add(cur, g)
            for s in layer:
                span.add(form.add(cur, s))
    return len(span)


def _hom_search(a: FiniteQuadraticForm, b: FiniteQuadraticForm, need_size: int,
                bound: int, find_all: bool):
    """Backtracking search for q- and b-preserving maps generator-wise.

    Generator images must match exact order and q value; the candidate
    is accepted when the generated subgroup has ``need_size`` elements.
    """
    buckets = _signature_buckets(b, bound)
    gens = [_unit(a.rank, i) for i in range(a.rank)]
    results = []

    def extend(i, images):
        if i == a.rank:
            if _span_size(b, images, a.orders) == need_size:
                results.append(tuple(images))
                return not find_all
            return False
        key = (a.orders[i], a.qdiag[i])
        for y in buckets.get(key, ()):
            ok = True
            for j in range(i):
                if b.b(images[j], y) != a.bmat[j][i]:
                    ok = False
                    break
            if ok:
                images.append(y)
                if extend(i + 1, images):
                    return True
                images.pop()
        return False

    extend(0, [])
    return results


def are_isometric(
    a: FiniteQuadraticForm, b: FiniteQuadraticForm, bound: int = ENUM_BOUND
):
    """Isometry test; returns (flag, witness images of a's generators)."""
    if a.cardinality != b.cardinality or sorted(a.orders) != sorted(b.orders):
        return False, None
    if a.cardinality > bound:
        raise GroupTooLarge("form too large for isometry search")
    res = _hom_search(a, b, b.cardinality, bound, find_all=False)
    if res:
        return True, res[0]
    return False, None


def orthogonal_group(form: FiniteQuadraticForm, bound: int = ENUM_BOUND) -> list:
    """All q-preserving automorphisms, as tuples of generator images."""
    if form.cardinality > bound:
        raise GroupTooLarge("form too large for automorphism enumeration")
    return sorted(_hom_search(form, form, form.cardinality, bound, find_all=True))


def embeds(
    a: FiniteQuadraticForm, b: FiniteQuadraticForm, bound: int = ENUM_BOUND
) -> bool:
    """True when an injective q-preserving homomorphism a -> b exists."""
    if a.cardinality > b.cardinality:
        return False
    if b.cardinality > bound:
        raise GroupTooLarge("target form too large for embedding search")
    return bool(_hom_search(a, b, a.cardinality, bound, find_all=False))


def apply_map(form: FiniteQuadraticForm, images, x) -> tuple:
    """Evaluate a generator-image map at an arbitrary element."""
    out = form.zero
    for a, img in zip(form.reduce(x), images):
        if a:
            out = form.add(out, form.smul(a, img))
    return out


def compose_maps(form: FiniteQuadraticForm, f, g) -> tuple:
    """Composition f o g of two generator-image maps on the same form."""
    return tuple(apply_map(form, f, img) for img in g)


def identity_map(form: FiniteQuadraticForm) -> tuple:
    return tuple(_unit(form.rank, i) for i in range(form.rank))


# ---------------------------------------------------------------------------
# JSON


def _sym_q(x: Fraction) -> Fraction:
    r = _mod2(x)
    return r - 2 if r > 1 else r


def _sym_b(x: Fraction) -> Fraction:
    r = _mod1(x)
    return r - 1 if r > Fraction(1, 2) else r


def form_to_json(form: FiniteQuadraticForm) -> str:
    obj = {
        "orders": list(form.orders),
        "q": [str(_sym_q(x)) for x in form.qdiag],
        "b": [[str(_sym_b(x)) for x in row] for row in form.bmat],
    }
    return json.dumps(obj, sort_keys=True)


def form_from_json(text: str) -> FiniteQuadraticForm:
    obj = json.loads(text)
    orders = obj["orders"]
    qd = [Fraction(s) for s in obj["q"]]
    bm = [[Fraction(s) for s in row] for row in obj["b"]]
    return FiniteQuadraticForm(orders, qd, bm)
