"""Helpers that only the tests call: the diagonal matrix of a Smith form,
lattices and forms to and from JSON, and isometries built as products,
as minus the identity or as signed permutations of a basis."""

from __future__ import annotations

import json

from cuspidal import glue
from cuspidal.claims import Isometry
from cuspidal.errors import MixedLattices
from cuspidal.exact import IntMatrix
from cuspidal.fqf import FiniteQuadraticForm
from cuspidal.lattice import check_signed_permutation


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


def form_from_json(text: str) -> FiniteQuadraticForm:
    from fractions import Fraction

    obj = json.loads(text)
    orders = obj["orders"]
    qd = [Fraction(s) for s in obj["q"]]
    bm = [[Fraction(s) for s in row] for row in obj["b"]]
    return FiniteQuadraticForm(orders, qd, bm)


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
