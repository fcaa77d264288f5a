"""Finite quadratic forms (discriminant forms of even lattices).

A form lives on a finite abelian group in invariant-factor shape
Z/d1 + ... + Z/dr (d1 | d2 | ...) and is stored like a lattice: an
integer symmetric Gram matrix M over the level N = dr (the exponent; 1
for the trivial form), with q(x) = x^T M x / N in Q/2Z and
b(x, y) = x^T M y / N in Q/Z (Nikulin 1979, section 1).  The one
constructor takes these integer rows, and values are compared and
printed as integers over the level (``q_scaled``, ``q_strings``).
Diagonal entries are kept mod 2N and the others mod N, so equal forms
have equal matrices.  Elements are coefficient tuples reduced mod the
invariant factors.

Every construction changes generators by one rule: integer rows R in a
space with Gram G over level L give the form R G R^T over L, rescaled to
the new level.  For A_L = L*/L with U G V = D the rows are N times the
generator lifts V e_i / d_i; H^perp/H uses generator lifts in the
parent.  No matrix is inverted over Q: quotient coordinates come from
``exact.hnf_coords`` and the Smith transform of the sublattice.  No
matrix product is formed either: R G R^T is G r for each row r, one
``apply``, paired with the rows, and the rows of a p-part (below) have
one nonzero entry each, so its Gram is read directly off G.

A form is the orthogonal sum of its p-primary parts A_p (Nikulin 1979,
section 1); ``primary_parts`` builds A_p by the same rule from the rows
(d_i / p^e_i) e_i, p^e_i exactly dividing d_i.  Values on different
parts have coprime denominators, so x is isotropic exactly when every
p-component is, and -1 fixes only elements with 2x = 0, which lie in
the 2-part.  Hence the number of isotropic classes modulo +-1 is
(prod_p I_p + F_2) / 2, with I_p the isotropic elements of A_p and F_2
those of the 2-part killed by 2, found among the at most 2^r elements
of A_2[2].  ``isotropic_pm1_count`` scans no part whole: in A_p =
Z/n_1 + ... + Z/n_r it runs over the cofactor y of the first r - 1
coordinates and counts the last coordinates x in Z/n_r that make (y, x)
isotropic, the roots of one quadratic congruence, by Hensel lifting in
O(log_p n_r) steps.  A cyclic part (every odd part of the A_N of
``cusps``) costs one such count, whatever its order.

Subgroups are element sets grown one element at a time: the span of H
and e is the union of the cosets k e + H, for k up to the order of e
modulo H.  Spans, the isotropic subgroup walk and the image checks of
the isometry search all take this one step.  A subgroup's canonical
generators, which ``glue enum`` prints, are greedy over its sorted
elements: each element that the ones kept before it do not span.
"""

from bisect import bisect_right
from collections import namedtuple
from itertools import product, repeat
from math import gcd, lcm, prod
from operator import add, itemgetter, mod, mul, neg

from .errors import BadParameter, GroupTooLarge, InternalError, NotIsotropic, OddLattice
from .exact import (
    IntMatrix, factorize, hnf_coords, hnf_rows, kernel_basis, smith_normal_form,
)

ENUM_BOUND = 10**6


class FiniteQuadraticForm:
    """Finite abelian group with a Q/2Z-valued quadratic form."""

    __slots__ = ("orders", "level", "gram", "source")

    def __init__(self, orders, gram_rows, source=None):
        """Form on ``orders`` with integer Gram rows over the exponent of ``orders``.

        The rows are trusted to define a form on ``orders``; they are reduced,
        not checked.
        """
        orders = tuple(orders)
        level = orders[-1] if orders else 1
        gram = IntMatrix(
            [[x % (2 * level if i == j else level) for j, x in enumerate(row)]
             for i, row in enumerate(gram_rows)]
        )
        for name, value in zip(self.__slots__, (orders, level, gram, source)):
            object.__setattr__(self, name, value)

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
        return tuple(map(mod, map(int, x), self.orders))

    def add(self, x, y) -> tuple:
        return tuple(map(mod, map(add, x, y), self.orders))

    def neg(self, x) -> tuple:
        return tuple(map(mod, map(neg, x), self.orders))

    def smul(self, n: int, x) -> tuple:
        return tuple([n * a % d for a, d in zip(x, self.orders)])

    def order_of(self, x) -> int:
        out = 1
        for a, d in zip(x, self.orders):
            out = lcm(out, d // gcd(d, a))
        return out

    def elements(self, bound: int = ENUM_BOUND):
        """The elements in lexicographic order of their coordinates."""
        _require_enumerable(self, bound)
        return product(*[range(d) for d in self.orders])

    # form values ------------------------------------------------------

    def q_scaled(self, x) -> int:
        """level * q(x), an integer in [0, 2 level), for a reduced x."""
        return self.gram.bilinear(x, x) % (2 * self.level)

    # equality is structural: same presentation, not mere isometry
    def __eq__(self, other):
        return (
            isinstance(other, FiniteQuadraticForm)
            and self.orders == other.orders
            and self.gram == other.gram
        )

    def __hash__(self):
        return hash((self.orders, self.gram))

    def __repr__(self):
        qs = ", ".join(q_strings(self))
        return f"FiniteQuadraticForm(orders={list(self.orders)}, q=[{qs}])"


class LatticeSource(namedtuple("LatticeSource", "lattice smith kept")):
    """Provenance of A_L = L*/L: the Smith transforms U G V = D of the Gram G of L.

    ``lattice`` is L, ``smith`` the ``SmithDecomposition`` (U, the invariant
    factors d and V) of G and ``kept`` the Smith positions with invariant
    factor > 1, one per generator.  Generator i lifts to the dual vector
    V e_k / d_k for k = kept[i].
    """

    __slots__ = ()

    @classmethod
    def of(cls, lattice) -> "LatticeSource":
        """The Smith transforms of the Gram of ``lattice``."""
        snf = smith_normal_form(lattice.gram)
        return cls(lattice, snf, tuple(i for i, d in enumerate(snf.diag) if d > 1))

    @property
    def left(self) -> IntMatrix:
        return self.smith.left

    def scaled_lift(self, x, level) -> tuple:
        """level times a lift of the class x: sum_i x_i (level / d_k) V e_k, k = kept[i].

        Only the columns V e_k with x_i != 0 are summed, each added as a whole
        vector, not a dense V times a coefficient vector: a class has few
        generators next to the rank of L.
        """
        V, d = self.smith.right.data, self.smith.diag
        out = [0] * len(V)
        for a, k in zip(x, self.kept):
            if a:
                c = a * (level // d[k])
                out = [u + c * v for u, v in zip(out, map(itemgetter(k), V))]
        return tuple(out)


class QuotientSource(namedtuple("QuotientSource", "parent rows kept generator_lifts")):
    """Provenance of H^perp/H: how its generators sit in the parent form.

    ``rows`` is H^perp modulo H as a ``_RowQuotient`` of row lattices,
    ``kept`` the quotient positions with order > 1, one per generator, and
    ``generator_lifts`` the parent elements of H^perp lifting the generators.
    """

    __slots__ = ()


def _generated_form(gram: IntMatrix, level: int, rows, orders, source=None):
    """The form on ``orders`` generated by integer ``rows`` R of a space with
    b(x, y) = x^T gram y / level: R gram R^T over ``level``, rescaled to the
    exponent of ``orders`` (which must divide ``level``).

    Entry (i, j) is the inner product of row i with gram r_j, so each row
    costs one ``apply`` and no matrix is formed."""
    if not orders:
        return FiniteQuadraticForm((), (), source)
    images = [gram.apply(r) for r in rows]
    return _rescaled([[sum(map(mul, r, g)) for g in images] for r in rows],
                     level, orders, source)


def _rescaled(moved, level: int, orders, source=None) -> FiniteQuadraticForm:
    """The form on ``orders`` with integer Gram rows ``moved`` over ``level``,
    divided down to the exponent of ``orders``; every entry must lie over it."""
    scale = level // orders[-1]
    if level % orders[-1] or any(x % scale for row in moved for x in row):
        raise InternalError("generator values do not lie over the new level")
    return FiniteQuadraticForm(
        orders, [[x // scale for x in row] for row in moved], source
    )


def discriminant_form(lattice) -> FiniteQuadraticForm:
    """Discriminant form A_L = L*/L of an even lattice, with provenance."""
    if not lattice.even:
        raise OddLattice("discriminant form requires an even lattice")
    source = LatticeSource.of(lattice)
    orders = tuple(source.smith.diag[i] for i in source.kept)
    # U G V = D gives G^-1 U^-1 = V D^-1: generator i lifts to V e_i / d_i, so
    # its N-fold multiple is an integer row whose values lie over N^2
    level = orders[-1] if orders else 1
    rows = [source.scaled_lift(_unit(len(orders), i), level) for i in range(len(orders))]
    return _generated_form(lattice.gram, level * level, rows, orders, source)


def trivial_form() -> FiniteQuadraticForm:
    return FiniteQuadraticForm((), [])


# ---------------------------------------------------------------------------
# row-lattice quotients (of perp quotients)


class _RowQuotient(namedtuple("_RowQuotient", "ambient_rows vmat_t generator_rows orders")):
    """``ambient_rows`` is the Hermite basis P of the ambient row lattice,
    ``vmat_t`` the transpose of the right Smith transform V, formed once so
    that a row times V is one ``apply``, and ``generator_rows`` V^-1 @ P,
    one row per invariant factor in ``orders``."""

    __slots__ = ()

    def class_coords(self, row) -> tuple:
        """Coordinates of an ambient-lattice row modulo the sublattice."""
        y = hnf_coords(self.ambient_rows, row)
        if y is None:
            raise ValueError("row is not in the ambient row lattice")
        z = self.vmat_t.apply(y)  # row-vector times V
        return tuple(map(mod, z, self.orders))


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
    return _RowQuotient(P, snf.right.T, IntMatrix(vinv) @ P, snf.diag)


# ---------------------------------------------------------------------------
# subgroups


class FqfSubgroup(namedtuple("FqfSubgroup", "form elements generators")):
    """Subgroup of ``form``: ``elements`` are its sorted element tuples."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.elements)


def _cosets(form: FiniteQuadraticForm, span, e) -> list:
    """The elements of the cosets k e + span, for 0 < k below the order of the
    reduced element e modulo the subgroup ``span``: each element of the span
    of ``span`` and e outside ``span``, once."""
    out = []
    cur = e
    while cur not in span:
        out += map(form.add, repeat(cur), span)
        cur = form.add(cur, e)
    return out


def _extend(form: FiniteQuadraticForm, span, e) -> set:
    """The subgroup generated by the subgroup ``span`` and the reduced element e."""
    return set(span).union(_cosets(form, span, e))


def _subgroup(form: FiniteQuadraticForm, elems) -> FqfSubgroup:
    """The subgroup on the element set ``elems``, with canonical generators:
    each sorted element that the ones kept before it do not span."""
    elems = tuple(sorted(elems))
    span, gens = {form.zero}, []
    for e in elems:
        if e not in span:
            gens.append(e)
            span = _extend(form, span, e)
    return FqfSubgroup(form, elems, tuple(gens))


def subgroup_span(form: FiniteQuadraticForm, gens) -> FqfSubgroup:
    gens = list(gens)
    if any(len(g) != form.rank for g in gens):
        raise BadParameter(f"subgroup generators need {form.rank} coordinates")
    span = {form.zero}
    for g in gens:
        span = _extend(form, span, form.reduce(g))
    return _subgroup(form, span)


def trivial_subgroup(form: FiniteQuadraticForm) -> FqfSubgroup:
    return FqfSubgroup(form, (form.zero,), ())


def require_isotropic(subgroup: FqfSubgroup, what: str = "subgroup") -> None:
    """Raise NotIsotropic, naming ``what``, unless q vanishes on the subgroup."""
    form = subgroup.form
    if any(form.q_scaled(x) for x in subgroup.elements):
        raise NotIsotropic(f"{what} is not isotropic")


# ---------------------------------------------------------------------------
# isotropic enumeration


def _require_enumerable(form: FiniteQuadraticForm, bound: int) -> None:
    if form.cardinality > bound:
        raise GroupTooLarge(
            f"group of order {form.cardinality} exceeds enumeration bound {bound}"
        )


def _prefix_values(prefixes, k: int, d: int, row, modulus: int):
    """(y + (t,), v(y + (t,))) for each (y, v(y)) of ``prefixes`` with y of
    length k and each t < d, in lexicographic order, where v(x) = x^T M x
    mod ``modulus`` and ``row`` is row k of M: v(y + (t,)) = v(y) +
    (M_kk t + 2 (M y)_k) t."""
    for y, v in prefixes:
        b = 2 * sum(map(mul, row, y))  # map stops at len(y) = k
        for t in range(d):
            yield y + (t,), (v + (row[k] * t + b) * t) % modulus


def isotropic_elements(form: FiniteQuadraticForm, bound: int = ENUM_BOUND) -> list:
    """All x with q(x) = 0 in Q/2Z (includes 0), in ``elements`` order.

    Every element is visited, but level q(x) = x^T M x mod 2 level is
    accumulated one coordinate at a time (``_prefix_values``), so each
    prefix costs one inner product with a row of M and each element a few
    operations.  The prefixes are generated, not stored.
    """
    _require_enumerable(form, bound)
    if not form.rank:
        return [()]
    M, modulus = form.gram.data, 2 * form.level
    *head, (d, row) = zip(form.orders, M)
    prefixes = [((), 0)]
    for k, (dk, rk) in enumerate(head):
        prefixes = _prefix_values(prefixes, k, dk, rk, modulus)
    # the last coordinate keeps only the isotropic elements
    squares = [row[-1] * t * t for t in range(d)]
    out = []
    for y, v in prefixes:
        b = 2 * sum(map(mul, row, y))
        out += [y + (t,) for t, s in zip(range(d), squares) if (v + s + b * t) % modulus == 0]
    return out


def primary_parts(form: FiniteQuadraticForm, primes=None) -> dict:
    """{p: A_p} for the primes p dividing |A|, each in invariant-factor shape.

    ``primes`` may hold the primes of the level (or more), when the caller
    has them; otherwise the level is factored.  A_p is generated by the
    rows c_a e_(i_a), c_a = d_(i_a) / p^e_a, one nonzero entry each, so its
    Gram over the level is read off the parent's, c_a c_b G[i_a][i_b], with
    no product, and rescaled as ``_generated_form`` rescales.
    """
    if primes is None:
        primes = factorize(form.level)
    G = form.gram.data
    parts = {}
    for p in sorted(p for p in set(primes) if form.level % p == 0):
        gens, orders = [], []
        for i, d in enumerate(form.orders):
            pe = 1
            while d % (pe * p) == 0:
                pe *= p
            if pe > 1:
                gens.append((i, d // pe))
                orders.append(pe)
        moved = [[ca * cb * G[ia][ib] for ib, cb in gens] for ia, ca in gens]
        parts[p] = _rescaled(moved, form.level, tuple(orders))
    if prod(part.cardinality for part in parts.values()) != form.cardinality:
        raise InternalError("the given primes miss a prime of the group order")
    return parts


def _root_count(a: int, b: int, c: int, p: int, m: int) -> int:
    """Number of x mod m with a x^2 + b x + c = 0 mod m, for a power m of a
    prime p.

    A content p^s leaves the congruence mod m / p^s, each root of which
    lifts to p^s roots.  Otherwise a simple root mod p lifts uniquely
    (Hensel) and a double root r, the only root mod p when there is one,
    recurses on f(r + p t) / p mod m / p.  The roots mod p are read off
    the discriminant by Euler's criterion for odd p and tried for p = 2,
    so each of the at most log_p m steps is a few operations.
    """
    lifts = 1
    while True:
        while m > 1 and a % p == 0 and b % p == 0 and c % p == 0:
            a, b, c, m, lifts = a // p, b // p, c // p, m // p, lifts * p
        if m == 1:
            return lifts
        # f'(r) = 2 a r + b; for p = 2 it is b mod 2 at every r
        if p == 2:
            if b % 2:
                return lifts * ((c % 2 == 0) + ((a + b + c) % 2 == 0))
            if a % 2 == 0:
                return 0
            r = c % 2
        elif a % p == 0:
            return lifts if b % p else 0
        else:
            disc = (b * b - 4 * a * c) % p
            if disc:
                return lifts * 2 if pow(disc, (p - 1) // 2, p) == 1 else 0
            r = -b * pow(2 * a, -1, p) % p
        # f(r + p t) = f(r) + (2 a r + b) p t + a p^2 t^2, every term divisible by p
        a, b, c, m = a * p, 2 * a * r + b, (a * r * r + b * r + c) // p, m // p


def _last_coordinate_count(a: int, b: int, c: int, p: int, n: int) -> int:
    """Number of x in Z/n with a x^2 + 2 b x + c = 0 mod 2n, for a power n
    of a prime p.

    The congruence must be well defined on Z/n (a n even), as it is for
    the last coordinate of a p-part.  For odd p it then holds mod 2
    exactly when c is even; for p = 2 its roots mod 2n come in pairs
    x, x + n.
    """
    if p == 2:
        return _root_count(a, 2 * b, c, 2, 2 * n) // 2
    return 0 if c % 2 else _root_count(a, 2 * b, c, p, n)


def _isotropic_count(part: FiniteQuadraticForm, p: int, bound: int) -> int:
    """I_p of the p-part ``part``: for each y in the cofactor Z/n_1 + ... +
    Z/n_(r-1), the x in Z/n_r with q(y, x) = 0.  With Gram G over n_r,
    q(y, x) n_r = G_rr x^2 + 2 (G y)_r x + y^T G y."""
    *head, n = part.orders
    cofactor = prod(head)
    if cofactor > bound:
        raise GroupTooLarge(f"{p}-part of order {part.cardinality}: cofactor of order "
                            f"{cofactor} exceeds enumeration bound {bound}")
    a, last = part.gram.data[-1][-1], part.gram.data[-1][:-1]
    return sum(
        _last_coordinate_count(a, sum(map(mul, last, y)), part.gram.bilinear(y + (0,), y + (0,)),
                               p, n)
        for y in product(*map(range, head))
    )


def isotropic_pm1_count(form: FiniteQuadraticForm, bound: int = ENUM_BOUND,
                        primes=None) -> int:
    """Number of isotropic classes modulo +-1, counted part by part.

    Equals the number of {x, -x} orbits of ``isotropic_elements(form)``
    (the tests' ``mod_pm1`` lists them) without listing an element: each
    p-part scans only its cofactor (``_isotropic_count``) and F_2 comes
    from A_2[2].  ``bound`` caps each cofactor, not a part or
    the whole group; ``primes`` is passed to ``primary_parts``.
    """
    isotropic, fixed = 1, 1
    for p, part in primary_parts(form, primes).items():
        isotropic *= _isotropic_count(part, p, bound)
        if p == 2:
            modulus = 2 * part.level
            fixed = sum(1 for x in product(*[(0, d // 2) for d in part.orders])
                        if part.gram.bilinear(x, x) % modulus == 0)
    return (isotropic + fixed) // 2


def isotropic_subgroups(form: FiniteQuadraticForm, bound: int = ENUM_BOUND) -> list:
    """All subgroups on which q vanishes identically, smallest first.

    An isotropic H grows by an isotropic e with b(e, g) = 0 for every
    generator g of H.  Since q(h + k e) = q(h) + k^2 q(e) + 2k b(h, e),
    these are exactly the e for which q vanishes on the span of H and e.

    Each subgroup is built once, along its canonical chain: if S has
    canonical generators g1 < ... < gk, those of H = <g1, ..., g(k-1)> are
    g1, ..., g(k-1).  So H grows only by the e above its last canonical
    generator, and keeps the span S of H and e only when no element of S
    outside H lies below e; exactly then the canonical generators of S are
    those of H followed by e.  Each subgroup found is extended once and
    charged one attempt per isotropic element, as if every e were tried;
    the walk stops with GroupTooLarge once the attempts pass ``bound``.
    """
    iso = isotropic_elements(form, bound)  # sorted, as ``elements`` is
    rows = [form.gram.apply(e) for e in iso]  # b(e, g) = (M e) . g / N
    level = form.level
    trivial = trivial_subgroup(form)
    found = [trivial]
    frontier = [trivial]
    attempts = 0
    while frontier:
        nxt = []
        for sub in frontier:
            attempts += len(iso)
            if attempts > bound:
                raise GroupTooLarge(
                    f"isotropic subgroup search exceeds enumeration bound {bound}")
            have = set(sub.elements)
            start = bisect_right(iso, sub.generators[-1]) if sub.generators else 0
            for e, row in zip(iso[start:], rows[start:]):
                if e in have or any(sum(map(mul, row, g)) % level for g in sub.generators):
                    continue
                new = _cosets(form, have, e)
                if min(new) < e:
                    continue  # built from its own canonical chain
                nxt.append(FqfSubgroup(form, tuple(sorted(sub.elements + tuple(new))),
                                       sub.generators + (e,)))
        found += nxt
        frontier = nxt
    return sorted(found, key=lambda s: (s.order, s.elements))


def perp_quotient(form: FiniteQuadraticForm, subgroup: FqfSubgroup) -> FiniteQuadraticForm:
    """H^perp/H with the induced form; requires H isotropic.

    H^perp = {x : b(x, h) = 0 for all h in H}; the result order is
    |A| / |H|^2 and the induced q is well defined because q vanishes
    on H.
    """
    if subgroup.form != form:
        raise ValueError("subgroup belongs to a different form")
    require_isotropic(subgroup)
    n = form.rank
    if n == 0:
        return trivial_form()

    # integer model: P = preimage in Z^n of H^perp, PH = preimage of H;
    # x lies in H^perp iff (M h) . x = 0 mod N for every generator h of H
    gens = subgroup.generators
    torsion = list(IntMatrix.diagonal(form.orders).data)
    if gens:
        levels = IntMatrix.diagonal([form.level] * len(gens)).data
        aug = [form.gram.apply(h) + e for h, e in zip(gens, levels)]
        proj = [r[:n] for r in kernel_basis(IntMatrix(aug)).data]
    else:
        proj = list(IntMatrix.identity(n).data)
    rq = _row_quotient(IntMatrix(hnf_rows(proj + torsion)),
                       IntMatrix(hnf_rows(list(gens) + torsion)))
    kept = [i for i, d in enumerate(rq.orders) if d > 1]
    orders = tuple(rq.orders[i] for i in kept)
    gen_elems = [form.reduce(rq.generator_rows.data[i]) for i in kept]
    expected = form.cardinality // (subgroup.order ** 2)
    if prod(orders) != expected:
        raise InternalError("perp quotient order mismatch")
    source = QuotientSource(form, rq, tuple(kept), tuple(gen_elems))
    return _generated_form(form.gram, form.level, gen_elems, orders, source)


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


def _q_pair(scaled: int, level: int) -> tuple:
    """q = scaled / level as a reduced pair of integers, comparable across levels."""
    g = gcd(scaled, level)
    return scaled // g, level // g


def _signature_buckets(form: FiniteQuadraticForm, bound: int):
    buckets = {}
    for x in form.elements(bound):
        key = (form.order_of(x), _q_pair(form.q_scaled(x), form.level))
        buckets.setdefault(key, []).append(x)
    return buckets


def _hom_search(a: FiniteQuadraticForm, b: FiniteQuadraticForm, need_size: int,
                bound: int, find_all: bool):
    """Backtracking search for q- and b-preserving maps generator-wise.

    Generator images must match exact order and q value; the candidate
    is accepted when the generated subgroup has ``need_size`` elements.
    Values are compared as integers: b(x, y) = v / level in [0, 1) on
    both sides, so equal values have equal cross products v_a level_b.
    """
    buckets = _signature_buckets(b, bound)
    la, lb = a.level, b.level
    arows = a.gram.data
    gens = [_unit(a.rank, i) for i in range(a.rank)]
    results = []

    def extend(i, images):
        if i == a.rank:
            span = {b.zero}
            for y in images:
                span = _extend(b, span, y)
            if len(span) == need_size:
                results.append(tuple(images))
                return not find_all
            return False
        key = (a.orders[i], _q_pair(arows[i][i], la))
        for y in buckets.get(key, ()):
            ok = True
            for j in range(i):
                if (b.gram.bilinear(images[j], y) % lb) * la != (arows[j][i] % la) * lb:
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
    res = _hom_search(a, b, b.cardinality, bound, find_all=False)
    if res:
        return True, res[0]
    return False, None


def orthogonal_group(form: FiniteQuadraticForm, bound: int = ENUM_BOUND) -> list:
    """All q-preserving automorphisms, as tuples of generator images."""
    return sorted(_hom_search(form, form, form.cardinality, bound, find_all=True))


def apply_map(form: FiniteQuadraticForm, images, x) -> tuple:
    """Evaluate a generator-image map at an element: coordinate i of the
    image is sum_j x_j img_j[i] mod d_i.  The image of generator j has order
    dividing d_j, so ``x`` may be any integer tuple, unreduced or negative."""
    return tuple([sum(map(mul, x, col)) % d for col, d in zip(zip(*images), form.orders)])


def compose_maps(form: FiniteQuadraticForm, f, g) -> tuple:
    """Composition f o g of two generator-image maps on the same form."""
    return tuple(apply_map(form, f, img) for img in g)


def identity_map(form: FiniteQuadraticForm) -> tuple:
    return tuple(_unit(form.rank, i) for i in range(form.rank))


# ---------------------------------------------------------------------------
# printed values


def _ratio_str(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, from the reduced integer pair."""
    n, d = _q_pair(num, den)
    return f"{n}/{d}" if d > 1 else str(n)


def q_strings(form: FiniteQuadraticForm) -> list:
    """q of the generators, in [0, 2), as the strings of reduced fractions."""
    return [_ratio_str(row[i], form.level) for i, row in enumerate(form.gram.data)]


def form_to_obj(form: FiniteQuadraticForm) -> dict:
    """The invariant factors ``orders`` and the values ``q`` and ``b`` on the
    generators, in symmetric representatives: q in (-1, 1], b in (-1/2, 1/2]."""
    n = form.level
    rows = form.gram.data
    return {
        "orders": list(form.orders),
        "q": [_ratio_str(row[i] - 2 * n if row[i] > n else row[i], n)
              for i, row in enumerate(rows)],
        "b": [[_ratio_str(x % n - n if 2 * (x % n) > n else x % n, n) for x in row]
              for row in rows],
    }
