"""Helpers that only the tests call: the diagonal matrix of a Smith form,
lattices and forms to and from JSON, finite quadratic forms given by
Fraction values and their Fraction views, the classes of dual vectors in
a discriminant form, the core lattice of A_N, the p-parts of a form,
basis vectors, glues and their root certificate, the base of a glue in
overlattice coordinates, Im tau of one glue, and isometries built as
products, as minus the identity or as signed permutations of a basis."""

from __future__ import annotations

import json
from fractions import Fraction
from operator import mul

from cuspidal import fqf, glue
from cuspidal.errors import MixedLattices
from cuspidal.exact import IntMatrix, hnf_coords, hnf_rows
from cuspidal.fqf import FiniteQuadraticForm
from cuspidal.lattice import check_signed_permutation, direct_sum, make_standard
from fraction_oracles import fraction_presentation
from group_claims import Isometry


def diagonal_matrix(smith) -> IntMatrix:
    """The (rectangular) diagonal matrix of ``smith.diag``."""
    out = [[0] * smith.right.rows for _ in range(smith.left.rows)]
    for i, d in enumerate(smith.diag):
        out[i][i] = d
    return IntMatrix(out)


def lattice_to_json(L) -> str:
    obj = {"rank": L.rank, "gram": L.gram.to_lists()}
    if L.labels is not None:
        obj["labels"] = list(L.labels)
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# finite quadratic forms in Fractions


def fraction_form(orders, qdiag, bmat) -> FiniteQuadraticForm:
    """The form whose generators have q values ``qdiag`` and b values
    ``bmat`` (Fractions), checked by ``fraction_presentation`` and converted
    to integer Gram rows over the level; ValueError when they define no form."""
    orders, qdiag, bmat = fraction_presentation(orders, qdiag, bmat)
    level = orders[-1] if orders else 1
    rows = [[int(level * (qdiag[i] if i == j else x)) for j, x in enumerate(row)]
            for i, row in enumerate(bmat)]
    return FiniteQuadraticForm(orders, rows)


def form_from_json(text: str) -> FiniteQuadraticForm:
    obj = json.loads(text)
    return fraction_form(obj["orders"], [Fraction(s) for s in obj["q"]],
                         [[Fraction(s) for s in row] for row in obj["b"]])


def q_diagonal(form) -> tuple:
    """q of the generators, in [0, 2)."""
    return tuple(Fraction(row[i], form.level) for i, row in enumerate(form.gram.data))


def b_matrix(form) -> tuple:
    """b of pairs of generators, in [0, 1)."""
    n = form.level
    return tuple(tuple(Fraction(x % n, n) for x in row) for row in form.gram.data)


def q_value(form, x) -> Fraction:
    """q(x) in [0, 2)."""
    return Fraction(form.q_scaled(form.reduce(x)), form.level)


def b_value(form, x, y) -> Fraction:
    """b(x, y) in [0, 1)."""
    value = form.gram.bilinear(form.reduce(x), form.reduce(y))
    return Fraction(value % form.level, form.level)


def rational_lift(form, x) -> tuple:
    """A dual vector of the source lattice of a discriminant form in the class x."""
    scaled = form.source.scaled_lift(form.reduce(x), form.level)
    return tuple(Fraction(a, form.level) for a in scaled)


# ---------------------------------------------------------------------------
# classes of dual vectors, and the core of A_N


def class_key(source, pairings) -> tuple:
    """Class coordinates (U p)_k mod d_k, k in ``source.kept``, of the dual
    vector v with integer pairings p = G v against the basis of L, for the
    Smith transforms U G V = D of ``source`` (a ``fqf.LatticeSource``):
    v - w lies in L exactly when D^-1 U (G v - G w) is integral."""
    U, d = source.smith.left.data, source.smith.diag
    return tuple([sum(map(mul, U[k], pairings)) % d[k] for k in source.kept])


def class_of(form, scaled, level: int) -> tuple:
    """Class in the discriminant form ``form`` of the dual vector
    scaled / level, for an integer vector ``scaled`` and a positive integer
    ``level``; ValueError when ``form`` has no lattice or the vector is not
    in the dual lattice."""
    src = form.source
    if not isinstance(src, fqf.LatticeSource):
        raise ValueError("form has no lattice provenance")
    pairings = src.lattice.gram.apply(scaled)
    if any(x % level for x in pairings):
        raise ValueError("vector is not in the dual lattice")
    return class_key(src, [x // level for x in pairings])


def a_n_core(case):
    """The core lattice of A_N, whose discriminant form A_N is: <-2d> + <-2>
    for a split ``case``, B_d for a non-split one."""
    if case.split:
        return direct_sum(make_standard("rank1", -2 * case.d), make_standard("rank1", -2))
    return make_standard("B", case.d)


def part_forms(form, primes=None) -> dict:
    """{p: A_p} for the orders and integer Gram rows of each p-part that
    ``fqf._primary_parts`` reads off ``form``, wrapped in a form here."""
    return {p: FiniteQuadraticForm(orders, gram.data)
            for p, orders, gram in fqf._primary_parts(form, primes)}


# ---------------------------------------------------------------------------
# lattice vectors and glues


def basis(L) -> list:
    """The basis vectors of the lattice L, as ``LatticeVector``s."""
    n = L.rank
    return [L.vector([int(i == j) for j in range(n)]) for i in range(n)]


def glue_of(spec: str, gens):
    """``glue.make_glue(spec)`` and the glue spanned by ``gens`` in it."""
    gd = glue.make_glue(spec)
    return gd, fqf.subgroup_span(gd.disc, gens)


def adds_roots(gd, glue_sub) -> bool:
    """``glue.glue_adds_roots`` with the coset minima of the base built here."""
    return glue.glue_adds_roots(gd, glue_sub, glue._coset_minima(gd))


# ---------------------------------------------------------------------------
# Im tau and isometries


def base_in_overlattice(gd, glue_sub) -> IntMatrix:
    """Rows: the base basis in the coordinates of ``glue.overlattice(gd, glue_sub)``.

    The overlattice basis is B / den, for B the Hermite basis of den R
    plus den times the glue lifts and den the level of A_R; row i is the
    integer y with y B = den e_i."""
    n, den = gd.base.rank, gd.disc.level
    unit = [[den * int(i == j) for j in range(n)] for i in range(n)]
    basis = IntMatrix(hnf_rows(unit + [gd.disc.source.scaled_lift(g, den)
                                       for g in glue_sub.generators]))
    return IntMatrix([hnf_coords(basis, row) for row in unit])


def tau_image(gd, glue_sub=None, quotient=None):
    """Im tau of the glue ``glue_sub`` of the base ``gd`` (trivial when None):
    ``glue.image_of_tau`` on the orbit of the glue alone; ``quotient`` may
    be its perp quotient, built already."""
    if glue_sub is None:
        glue_sub = fqf.trivial_subgroup(gd.disc)
    if quotient is None:
        quotient = fqf.perp_quotient(gd.disc, glue_sub)
    actions = glue._generator_actions(gd)
    orbit, = glue._glue_orbits(actions, [glue_sub])
    return glue.image_of_tau(quotient, orbit, actions)


def compose(g: Isometry, h: Isometry) -> Isometry:
    """g after h; a product of isometries of one lattice is one, so the form
    check of the constructor is not repeated."""
    if h.domain != g.domain:
        raise MixedLattices("isometries of different lattices")
    return tuple.__new__(Isometry, (g.domain, g.matrix @ h.matrix))


def minus_identity(L) -> Isometry:
    return Isometry(L, -IntMatrix.identity(L.rank))


def signed_permutation(domain, perm, signs) -> Isometry:
    """The isometry e_j -> signs[j] e_perm[j], checked by
    ``lattice.check_signed_permutation``."""
    check_signed_permutation(domain, perm, signs)
    n = domain.rank
    m = [[0] * n for _ in range(n)]
    for src, (dst, s) in enumerate(zip(perm, signs)):
        m[dst][src] = s
    return tuple.__new__(Isometry, (domain, IntMatrix._wrap(tuple(map(tuple, m)))))


def tau_generator_isometries(gd) -> list:
    """Base-lattice isometries generating the non-Weyl automorphism candidates,
    each a signed permutation of the basis."""
    return [signed_permutation(gd.base, p, s) for p, s in glue._tau_signed_permutations(gd)]
