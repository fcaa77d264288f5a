"""Second derivations of the discriminant model A_N, for the tests.

None of these runs in ``cuspidal``: every command takes A_N in the closed
form of ``cusps.disc_model``.  ``build_polarized`` builds it from the
explicit polarized embedding in U^3 + E8^2 + <-2> instead, and
checks the B_d block of the non-split complement with the Gauss
reduction of binary forms (``reduced_binary``, ``rank2_isometric``).
"""

from __future__ import annotations

from collections import namedtuple

from cuspidal.claims import Sublattice, divisibility
from cuspidal.cusps import PolarizationCase, k3_square_lattice
from cuspidal.errors import BadParameter, InternalError
from cuspidal.exact import apply, bilinear, is_symmetric
from cuspidal.fqf import discriminant_form
from cuspidal.lattice import Lattice, from_gram, make_standard
from helpers import class_of


def reduced_binary(gram) -> tuple:
    """Canonical Gauss-reduced representative of a definite binary form.

    Negative definite input is reduced through its positive definite
    flip, so two rank-2 definite lattices are isometric iff their
    reduced Grams are equal.
    """
    if len(gram) != 2 or not is_symmetric(gram):
        raise BadParameter("reduced_binary needs a symmetric 2x2 matrix")
    a, b, c = gram[0][0], gram[0][1], gram[1][1]
    if a == 0 or a * c - b * b <= 0:
        raise BadParameter("binary form is not definite")
    neg = a < 0
    if neg:
        a, b, c = -a, -b, -c
    while True:
        if 2 * b > a or 2 * b <= -a:
            k = -((a - 2 * b) // (2 * a))
            c += k * k * a - 2 * k * b
            b -= k * a
            continue
        if a > c:
            a, c = c, a
            b = -b
            continue
        break
    if (a == c or 2 * b == a) and b < 0:
        b = -b
    if neg:
        a, b, c = -a, -b, -c
    return ((a, b), (b, c))


def rank2_isometric(L1: Lattice, L2: Lattice) -> bool:
    """Isometry test for definite rank-2 lattices via Gauss reduction."""
    return reduced_binary(L1.gram) == reduced_binary(L2.gram)


class PolarizedEmbedding(namedtuple(
    "PolarizedEmbedding", "case ambient h complement disc t_class e_class"
)):
    """h and its complement N in the ambient lattice, with A_N and the
    distinguished classes of ``cusps.DiscModel``."""

    __slots__ = ()


def build_polarized(case: PolarizationCase) -> PolarizedEmbedding:
    """Explicit h and N inside U^3 + E8^2 + <-2>, checked by Gram computation.

    Basis order: v1, w1, v2, w2, v3, w3, two E8 blocks, e.
    """
    L = k3_square_lattice()
    n = L.rank
    d = case.d

    def unit(i):
        return [int(j == i) for j in range(n)]

    if case.split:
        h = (1, d) + (0,) * (n - 2)
        rows = [[1, -d] + [0] * (n - 2)]  # t = v1 - d w1, norm -2d
        rows += [unit(i) for i in range(2, n - 1)]
        rows += [unit(n - 1)]  # e last
        expected_div = 1
    else:
        h = (2, (d + 1) // 2) + (0,) * (n - 3) + (1,)
        b1 = [1, -(d + 1) // 4] + [0] * (n - 2)
        b2 = [0, 1] + [0] * (n - 3) + [1]
        rows = [b1, b2] + [unit(i) for i in range(2, n - 1)]
        expected_div = 2

    if bilinear(L.gram, h, h) != 2 * d:
        raise InternalError("polarization square is not 2d")
    if divisibility(L, h) != expected_div:
        raise InternalError("polarization divisibility mismatch")
    sub = Sublattice.of(L, rows)
    if any(apply(sub.basis_matrix, apply(L.gram, h))):
        raise InternalError("complement basis is not orthogonal to h")
    if not sub.primitive:
        raise InternalError("complement basis is not primitive")
    gram = sub.lattice.gram
    if case.split:
        if gram[0][0] != -2 * d or gram[n - 2][n - 2] != -2:
            raise InternalError("distinguished generators have wrong norms")
    else:
        if not rank2_isometric(
            from_gram([[gram[0][0], gram[0][1]], [gram[1][0], gram[1][1]]]),
            make_standard("B", d),
        ):
            raise InternalError("B_d block mismatch")
    N = sub.lattice
    form, source = discriminant_form(N)
    rank_n = N.rank
    if case.split:
        t_cls = class_of(N, source, [1] + [0] * (rank_n - 1), 2 * d)
        e_cls = class_of(N, source, [0] * (rank_n - 1) + [1], 2)
    else:
        t_cls = class_of(N, source, [2, 1] + [0] * (rank_n - 2), d)
        e_cls = None
    return PolarizedEmbedding(case, L, h, sub, form, t_cls, e_cls)
