"""Finite quadratic forms (discriminant forms of even lattices).

A form lives on a finite abelian group in invariant-factor shape
Z/d1 + ... + Z/dr (d1 | d2 | ...) and is a plain record ``Form`` of its
invariant factors ``orders``, its level N = dr (the exponent; 1 for the
trivial form) and an integer symmetric Gram matrix M, a tuple of int rows
as in ``exact``, with q(x) = x^T M x / N in Q/2Z and b(x, y) = x^T M y / N
in Q/Z (Nikulin 1979, section 1), both evaluated by ``exact.bilinear``.
Every form is built by ``make_form`` from its orders and integer rows,
which derives the level and keeps diagonal entries mod 2N and the others
mod N, so equal forms are equal records.  Values are compared and printed
as integers over the level (``q_scaled``, ``q_strings``).  Elements are
coefficient tuples reduced mod the invariant factors; the group
operations ``reduce``, ``add``, ``smul``, ``order_of`` and ``elements``
are module functions of the form, and ``reduce`` refuses a coordinate
that is not an int.

A form holds no provenance.  ``discriminant_form`` returns A_L beside its
``LatticeSource``, the Smith transforms that lift its classes to L*, and
``perp_quotient`` returns H^perp/H beside its ``QuotientSource``, with
which ``project_to_quotient`` projects elements of the parent to it; a
caller that needs them keeps them beside the form.  Each source is a
record that only its function builds.

Every construction changes generators by one rule: integer rows R in a
space with Gram G over level L give the form R G R^T over L, rescaled to
the new level.  For A_L = L*/L with U G V = D the rows are N times the
generator lifts V e_i / d_i, whose pairings G r / N its source keeps;
H^perp/H uses generator lifts in the parent.  No matrix is inverted over
Q: quotient coordinates come from ``exact.hnf_coords`` and the Smith
transform of the sublattice.  No matrix product is formed either:
R G R^T is G r for each row r, one ``exact.apply``, paired with the rows.

A form is the orthogonal sum of its p-primary parts A_p (Nikulin 1979,
section 1).  A_p is generated by the rows (d_i / p^e_i) e_i, p^e_i
exactly dividing d_i, which have one nonzero entry each, so the same
rule reads its Gram straight off G; ``_primary_parts`` builds each part
as a form.  Values on different parts have coprime denominators, so x is
isotropic exactly when every p-component is, and -1 fixes only elements
with 2x = 0, which lie in the 2-part.  Hence the number of isotropic
classes modulo +-1 is (prod_p I_p + F_2) / 2, with I_p the isotropic
elements of A_p and F_2 those of the 2-part killed by 2, found among the
at most 2^r elements of A_2[2].  ``isotropic_pm1_count`` scans no part
whole: in A_p = Z/n_1 + ... + Z/n_r it runs over the cofactor y of the
first r - 1 coordinates and counts the last coordinates x in Z/n_r that
make (y, x) isotropic, the roots of one quadratic congruence, by Hensel
lifting in O(log_p n_r) steps.  A cyclic part (every odd part of the A_N
of ``cusps``) costs one such count, whatever its order.

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
from operator import add as _plus, itemgetter, mod, mul

from .errors import BadParameter, GroupTooLarge, InternalError
from .exact import (
    apply, bilinear, diagonal, factorize, hnf_coords, hnf_rows, kernel_basis, matmul,
    smith_normal_form,
)

ENUM_BOUND = 10**6


class Form(namedtuple("Form", "orders level gram")):
    """Finite abelian group with a Q/2Z-valued quadratic form, as ``make_form``
    builds it: invariant factors ``orders``, their exponent ``level`` and the
    reduced integer Gram rows ``gram`` over it."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def cardinality(self) -> int:
        return prod(self.orders)

    @property
    def zero(self) -> tuple:
        return (0,) * self.rank


def make_form(orders, gram_rows) -> Form:
    """Form on ``orders`` with integer Gram rows over the exponent of ``orders``,
    which are trusted to define a form on ``orders``: reduced, not checked."""
    orders = tuple(orders)
    level = orders[-1] if orders else 1
    gram = tuple(tuple([x % (2 * level if i == j else level) for j, x in enumerate(row)])
                 for i, row in enumerate(gram_rows))
    return Form(orders, level, gram)


def reduce(form: Form, x) -> tuple:
    """The element with integer coordinates ``x``; BadParameter names a
    coordinate that is not an int."""
    for a in x:
        if not isinstance(a, int):
            raise BadParameter(f"coordinate {a!r} is not an integer")
    return tuple(map(mod, x, form.orders))


def add(form: Form, x, y) -> tuple:
    return tuple(map(mod, map(_plus, x, y), form.orders))


def smul(form: Form, n: int, x) -> tuple:
    return tuple([n * a % d for a, d in zip(x, form.orders)])


def order_of(form: Form, x) -> int:
    out = 1
    for a, d in zip(x, form.orders):
        out = lcm(out, d // gcd(d, a))
    return out


def elements(form: Form, bound: int = ENUM_BOUND):
    """The elements in lexicographic order of their coordinates."""
    _require_enumerable(form, bound)
    return product(*[range(d) for d in form.orders])


def q_scaled(form: Form, x) -> int:
    """level * q(x), an integer in [0, 2 level), for a reduced x."""
    return bilinear(form.gram, x, x) % (2 * form.level)


class LatticeSource(namedtuple("LatticeSource", "smith kept pairings")):
    """Where the generators of A_L = L*/L come from, which ``discriminant_form``
    returns beside the form: ``smith``, the Smith transforms U G V = D of the
    Gram G of L (U = ``smith.left``, the invariant factors d and V),
    ``kept``, the positions with d_k > 1, one per generator, and
    ``pairings``, the integer pairings p_i = G l_i with the basis of L of
    the generator lifts l_i = V e_k / d_k, k = kept[i].  A lift
    sum_i x_i l_i of the class x has pairings sum_i x_i p_i, which
    ``class_key``, the one map from pairings to classes, takes back to x.
    """

    __slots__ = ()

    def class_key(self, p) -> tuple:
        """The class (U p)_k mod d_k, k in ``kept``, of the dual vector with
        integer pairings p: G^-1 p = V D^-1 U p is in L iff D^-1 U p is integral."""
        U, d = self.smith.left, self.smith.diag
        return tuple([sum(map(mul, U[k], p)) % d[k] for k in self.kept])

    def scaled_lift(self, x, level) -> tuple:
        """level times a lift of the class x: sum_i x_i (level / d_k) V e_k, k = kept[i].

        Only the columns V e_k with x_i != 0 are summed, each added as a whole
        vector, not a dense V times a coefficient vector: a class has few
        generators next to the rank of L.
        """
        V, d = self.smith.right, self.smith.diag
        out = [0] * len(V)
        for a, k in zip(x, self.kept):
            if a:
                c = a * (level // d[k])
                out = [u + c * v for u, v in zip(out, map(itemgetter(k), V))]
        return tuple(out)


class QuotientSource(namedtuple(
        "QuotientSource", "parent ambient_rows vmat_t orders kept generator_lifts")):
    """Where the generators of H^perp/H come from: how they sit in the parent
    form ``parent``, which ``perp_quotient`` returns beside the quotient.

    H^perp/H is the quotient of two row lattices in the parent's coordinates:
    ``ambient_rows`` is the Hermite basis P of the preimage of H^perp,
    ``vmat_t`` the transpose of the right Smith transform V of the preimage
    of H in P-coordinates, formed once so that a row times V is one
    ``apply``, and ``orders`` its invariant factors.  ``kept`` holds the
    positions with order > 1, one per generator, and ``generator_lifts`` the
    parent elements of H^perp lifting the generators (rows of V^-1 P).
    ``project_to_quotient`` reads the class of a parent element off them:
    its P-coordinates times V, reduced mod ``orders`` at ``kept``.
    """

    __slots__ = ()


def _generated_form(gram, level: int, rows, orders) -> Form:
    """The form on ``orders`` generated by integer ``rows`` R of a space with
    b(x, y) = x^T gram y / level: R gram R^T over ``level``, rescaled to the
    exponent of ``orders`` (which must divide ``level``).

    Entry (i, j) is the inner product of row i with gram r_j, so each row
    costs one ``apply`` and no matrix is formed."""
    return _paired_form(level, rows, [apply(gram, r) for r in rows], orders)


def _paired_form(level: int, rows, images, orders) -> Form:
    """``_generated_form`` from the images gram r_j of the rows, formed by the caller."""
    moved = [[sum(map(mul, r, g)) for g in images] for r in rows]
    return make_form(orders, _over_level(moved, level, orders[-1] if orders else 1))


def _over_level(moved, level: int, new_level: int) -> tuple:
    """Integer Gram rows ``moved`` over ``level`` divided down to ``new_level``,
    over which every entry must lie."""
    scale = level // new_level
    if level % new_level or any(x % scale for row in moved for x in row):
        raise InternalError("generator values do not lie over the new level")
    return tuple(tuple([x // scale for x in row]) for row in moved)


def discriminant_form(lattice) -> tuple:
    """(A_L, its ``LatticeSource``): the discriminant form L*/L of an even
    lattice and the Smith transforms that lift its classes to L*."""
    if not lattice.even:
        raise BadParameter("discriminant form requires an even lattice")
    snf = smith_normal_form(lattice.gram)
    kept = tuple(i for i, d in enumerate(snf.diag) if d > 1)
    orders = tuple(snf.diag[k] for k in kept)
    # G V = U^-1 D: the N-fold generator lift r_i is an integer row with
    # integer pairings p_i = G r_i / N, so R G R^T over N^2 is R P^T over N
    level = orders[-1] if orders else 1
    bare = LatticeSource(snf, kept, None)
    rows = [bare.scaled_lift(e, level) for e in diagonal((1,) * len(kept))]
    images = [apply(lattice.gram, r) for r in rows]
    if any(x % level for image in images for x in image):
        raise InternalError("generator lift is not a dual vector")
    pairings = tuple(tuple([x // level for x in image]) for image in images)
    return _paired_form(level, rows, pairings, orders), bare._replace(pairings=pairings)


# ---------------------------------------------------------------------------
# row-lattice quotients (of perp quotients)


def _row_quotient(P, sub_rows) -> tuple:
    """(V^t, V^-1 P, d) for the quotient of the row lattice of P by that of
    sub_rows: with S the Hermite basis of sub_rows in P-coordinates and
    L S V = D its Smith form, row i of V^-1 P generates a summand of order
    d_i, and a row's P-coordinates times V are its coordinates.

    P is a full-rank Hermite basis (square, upper triangular), so rows
    get their P-coordinates from ``hnf_coords``.
    """
    srows = []
    for row in sub_rows:
        y = hnf_coords(P, row)
        if y is None:
            raise InternalError("sublattice is not contained in the ambient lattice")
        srows.append(y)
    s = hnf_rows(srows)
    if len(s) != len(P):
        raise InternalError("sublattice must have finite index")
    snf = smith_normal_form(s)
    # L S V = D gives V^-1 = D^-1 (L S), an exact division row by row
    vinv = [[x // d for x in row] for row, d in zip(matmul(snf.left, s), snf.diag)]
    return tuple(zip(*snf.right)), matmul(vinv, P), snf.diag


# ---------------------------------------------------------------------------
# subgroups


class FqfSubgroup(namedtuple("FqfSubgroup", "form elements generators")):
    """Subgroup of ``form``: ``elements`` are its sorted element tuples."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.elements)


def _cosets(form: Form, span, e) -> list:
    """The elements of the cosets k e + span, for 0 < k below the order of the
    reduced element e modulo the subgroup ``span``: each element of the span
    of ``span`` and e outside ``span``, once."""
    out = []
    cur = e
    while cur not in span:
        out += map(add, repeat(form), repeat(cur), span)
        cur = add(form, cur, e)
    return out


def _extend(form: Form, span, e) -> set:
    """The subgroup generated by the subgroup ``span`` and the reduced element e."""
    return set(span).union(_cosets(form, span, e))


def _subgroup(form: Form, elems) -> FqfSubgroup:
    """The subgroup on the element set ``elems``, with canonical generators:
    each sorted element that the ones kept before it do not span."""
    elems = tuple(sorted(elems))
    span, gens = {form.zero}, []
    for e in elems:
        if e not in span:
            gens.append(e)
            span = _extend(form, span, e)
    return FqfSubgroup(form, elems, tuple(gens))


def subgroup_span(form: Form, gens) -> FqfSubgroup:
    gens = list(gens)
    if any(len(g) != form.rank for g in gens):
        raise BadParameter(f"subgroup generators need {form.rank} coordinates")
    span = {form.zero}
    for g in gens:
        span = _extend(form, span, reduce(form, g))
    return _subgroup(form, span)


def trivial_subgroup(form: Form) -> FqfSubgroup:
    return FqfSubgroup(form, (form.zero,), ())


def require_isotropic(subgroup: FqfSubgroup, what: str = "subgroup") -> None:
    """Raise BadParameter, naming ``what``, unless q vanishes on the subgroup.

    As q(sum a_i g_i) = sum a_i^2 q(g_i) + 2 sum_(i<j) a_i a_j b(g_i, g_j),
    q vanishes on the span of generators g_1, ..., g_k exactly when every
    q(g_i) and every b(g_i, g_j) does: k(k + 1)/2 pairings of the canonical
    generators, and no element of the subgroup read."""
    form, gens = subgroup.form, subgroup.generators
    for i, g in enumerate(gens):
        if q_scaled(form, g) or any(bilinear(form.gram, g, h) % form.level for h in gens[:i]):
            raise BadParameter(f"{what} is not isotropic")


# ---------------------------------------------------------------------------
# isotropic enumeration


def _require_enumerable(form: Form, bound: int) -> None:
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


def isotropic_elements(form: Form, bound: int = ENUM_BOUND) -> list:
    """All x with q(x) = 0 in Q/2Z (includes 0), in ``elements`` order.

    Every element is visited, but level q(x) = x^T M x mod 2 level is
    accumulated one coordinate at a time (``_prefix_values``), so each
    prefix costs one inner product with a row of M and each element a few
    operations.  The prefixes are generated, not stored.
    """
    _require_enumerable(form, bound)
    if not form.rank:
        return [()]
    M, modulus = form.gram, 2 * form.level
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


def _primary_parts(form: Form, primes=None) -> list:
    """(p, A_p) for the primes p dividing |A|: each p-part a form in
    invariant-factor shape, one ``make_form`` per part.

    ``primes`` may hold the primes of the level (or more), when the caller
    has them; otherwise the level is factored.  A_p is generated by the
    rows c_a e_(i_a), c_a = d_(i_a) / p^e_a, one nonzero entry each, so its
    Gram over the level is read off the parent's, c_a c_b G[i_a][i_b], and
    divided down to the new level (``_over_level``).
    """
    if primes is None:
        primes = factorize(form.level)
    G, level = form.gram, form.level
    parts, order = [], 1
    for p in sorted(p for p in set(primes) if level % p == 0):
        gens, orders = [], []
        for i, d in enumerate(form.orders):
            pe = 1
            while d % (pe * p) == 0:
                pe *= p
            if pe > 1:
                gens.append((i, d // pe))
                orders.append(pe)
        moved = [[ca * cb * G[ia][ib] for ib, cb in gens] for ia, ca in gens]
        parts.append((p, make_form(orders, _over_level(moved, level, orders[-1]))))
        order *= prod(orders)
    if order != form.cardinality:
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


def _isotropic_count(p: int, part: Form, bound: int) -> int:
    """I_p of the p-part ``part``: for each y in the cofactor Z/n_1 + ... +
    Z/n_(r-1), the x in Z/n_r with q(y, x) = 0.  With G its Gram over n_r,
    q(y, x) n_r = G_rr x^2 + 2 (G y)_r x + y^T G y."""
    *head, n = part.orders
    gram = part.gram
    cofactor = prod(head)
    if cofactor > bound:
        raise GroupTooLarge(f"{p}-part of order {cofactor * n}: cofactor of order "
                            f"{cofactor} exceeds enumeration bound {bound}")
    a, last = gram[-1][-1], gram[-1][:-1]
    return sum(
        _last_coordinate_count(a, sum(map(mul, last, y)), bilinear(gram, y + (0,), y + (0,)),
                               p, n)
        for y in product(*map(range, head))
    )


def isotropic_pm1_count(form: Form, bound: int = ENUM_BOUND,
                        primes=None) -> int:
    """Number of isotropic classes modulo +-1, counted part by part.

    Equals the number of {x, -x} orbits of ``isotropic_elements(form)``
    (the tests' ``mod_pm1`` lists them) without listing an element: each
    p-part (``_primary_parts``) is scanned over its cofactor only
    (``_isotropic_count``), and F_2 comes from A_2[2].  ``bound`` caps
    each cofactor, not a part or the whole group; ``primes`` may hold the
    primes of the level, which is factored otherwise.
    """
    isotropic, fixed = 1, 1
    for p, part in _primary_parts(form, primes):
        isotropic *= _isotropic_count(p, part, bound)
        if p == 2:
            modulus = 2 * part.level
            fixed = sum(1 for x in product(*[(0, d // 2) for d in part.orders])
                        if bilinear(part.gram, x, x) % modulus == 0)
    return (isotropic + fixed) // 2


def isotropic_subgroups(form: Form, bound: int = ENUM_BOUND) -> list:
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
    rows = [apply(form.gram, e) for e in iso]  # b(e, g) = (M e) . g / N
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


def perp_quotient(form: Form, subgroup: FqfSubgroup) -> tuple:
    """(H^perp/H with the induced form, its ``QuotientSource``); requires H
    isotropic.

    H^perp = {x : b(x, h) = 0 for all h in H}; the result order is
    |A| / |H|^2 and the induced q is well defined because q vanishes
    on H.
    """
    if subgroup.form != form:
        raise BadParameter("subgroup belongs to a different form")
    require_isotropic(subgroup)
    n = form.rank
    # integer model: P = preimage in Z^n of H^perp, PH = preimage of H;
    # x lies in H^perp iff (M h) . x = 0 mod N for every generator h of H
    gens = subgroup.generators
    torsion = list(diagonal(form.orders))
    if gens:
        levels = diagonal([form.level] * len(gens))
        aug = [apply(form.gram, h) + e for h, e in zip(gens, levels)]
        proj = [r[:n] for r in kernel_basis(aug)]
    else:
        proj = list(diagonal((1,) * n))
    P = hnf_rows(proj + torsion)
    vmat_t, rows, diag = _row_quotient(P, hnf_rows(list(gens) + torsion))
    kept = tuple(i for i, d in enumerate(diag) if d > 1)
    orders = tuple(diag[i] for i in kept)
    gen_elems = tuple(reduce(form, rows[i]) for i in kept)
    expected = form.cardinality // (subgroup.order ** 2)
    if prod(orders) != expected:
        raise InternalError("perp quotient order mismatch")
    source = QuotientSource(form, P, vmat_t, diag, kept, gen_elems)
    return _generated_form(form.gram, form.level, gen_elems, orders), source


def project_to_quotient(source: QuotientSource, x) -> tuple:
    """Class in H^perp/H, given by its ``source``, of an element x of H^perp
    in the parent form."""
    y = hnf_coords(source.ambient_rows, list(reduce(source.parent, x)))
    if y is None:
        raise InternalError("row is not in the ambient row lattice")
    z = apply(source.vmat_t, y)  # row-vector times V
    return tuple(z[i] % source.orders[i] for i in source.kept)


# ---------------------------------------------------------------------------
# isometries between forms, orthogonal groups, embeddings


def _q_pair(scaled: int, level: int) -> tuple:
    """q = scaled / level as a reduced pair of integers, comparable across levels."""
    g = gcd(scaled, level)
    return scaled // g, level // g


def _signature_buckets(form: Form, bound: int):
    buckets = {}
    for x in elements(form, bound):
        key = (order_of(form, x), _q_pair(q_scaled(form, x), form.level))
        buckets.setdefault(key, []).append(x)
    return buckets


def _hom_search(a: Form, b: Form, need_size: int,
                bound: int, find_all: bool):
    """Backtracking search for q- and b-preserving maps generator-wise.

    Generator images must match exact order and q value; the candidate
    is accepted when the generated subgroup has ``need_size`` elements.
    Values are compared as integers: b(x, y) = v / level in [0, 1) on
    both sides, so equal values have equal cross products v_a level_b.
    """
    buckets = _signature_buckets(b, bound)
    la, lb = a.level, b.level
    arows = a.gram
    gens = diagonal((1,) * a.rank)
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
                if (bilinear(b.gram, images[j], y) % lb) * la != (arows[j][i] % la) * lb:
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
    a: Form, b: Form, bound: int = ENUM_BOUND
):
    """Isometry test; returns (flag, witness images of a's generators)."""
    if a.cardinality != b.cardinality or sorted(a.orders) != sorted(b.orders):
        return False, None
    res = _hom_search(a, b, b.cardinality, bound, find_all=False)
    if res:
        return True, res[0]
    return False, None


def orthogonal_group(form: Form, bound: int = ENUM_BOUND) -> list:
    """All q-preserving automorphisms, as tuples of generator images."""
    return sorted(_hom_search(form, form, form.cardinality, bound, find_all=True))


def apply_map(form: Form, images, x) -> tuple:
    """Evaluate a generator-image map at an element: coordinate i of the
    image is sum_j x_j img_j[i] mod d_i.  The image of generator j has order
    dividing d_j, so ``x`` may be any integer tuple, unreduced or negative."""
    return tuple([sum(map(mul, x, col)) % d for col, d in zip(zip(*images), form.orders)])


def compose_maps(form: Form, f, g) -> tuple:
    """Composition f o g of two generator-image maps on the same form."""
    return tuple(apply_map(form, f, img) for img in g)


def identity_map(form: Form) -> tuple:
    return diagonal((1,) * form.rank)


# ---------------------------------------------------------------------------
# printed values


def _ratio_str(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, from the reduced integer pair."""
    n, d = _q_pair(num, den)
    return f"{n}/{d}" if d > 1 else str(n)


def q_strings(form: Form) -> list:
    """q of the generators, in [0, 2), as the strings of reduced fractions."""
    return [_ratio_str(row[i], form.level) for i, row in enumerate(form.gram)]


def form_to_obj(form: Form) -> dict:
    """The invariant factors ``orders`` and the values ``q`` and ``b`` on the
    generators, in symmetric representatives: q in (-1, 1], b in (-1/2, 1/2]."""
    n = form.level
    rows = form.gram
    return {
        "orders": list(form.orders),
        "q": [_ratio_str(row[i] - 2 * n if row[i] > n else row[i], n)
              for i, row in enumerate(rows)],
        "b": [[_ratio_str(x % n - n if 2 * (x % n) > n else x % n, n) for x in row]
              for row in rows],
    }
