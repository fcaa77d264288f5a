"""Sublattices, the paper's rational splitting and fixture, checked by
``verify example-c12``.

A vector is a tuple of its coordinates in the basis of its lattice L, and
its pairings are ``exact.bilinear(L.gram, x, y)``.  A ``Sublattice`` is
spanned by integer basis rows of an ambient lattice, kept as a tuple of
int tuples; ``orthogonal_complement`` gives the primitive complement of
a set of vectors, and ``divisibility`` the positive generator of the
pairing ideal (v, L).  The rational splitting
of a vector along a primitive orthogonal pair and the delta' test follow,
then the cubic-scroll fixture of Hassett-Tschinkel.  The splitting stays
in integers up to one final division: Fractions appear only in its
results.

No command but ``verify example-c12`` runs these, so neither the package
nor the CLI imports this module at start-up.  The paper's other
group-theoretic claims, which no command checks (isometries, reflections
and spinor norms, membership in O+ and the stable groups, H_m, T(m, delta)
and embeddings of forms), live with the tests in ``tests/group_claims.py``.
"""

from collections import namedtuple
from math import gcd

from .cusps import k3_square_lattice
from .errors import BadParameter, SingularMatrix
from .exact import apply, bilinear, kernel_basis, matmul, smith_normal_form
from .fqf import ENUM_BOUND, are_isometric, discriminant_form
from .lattice import Lattice, from_gram, parse_name


# ---------------------------------------------------------------------------
# sublattices and complements


class Sublattice(namedtuple("Sublattice", "ambient basis_matrix lattice primitive")):
    """The sublattice of ``ambient`` spanned by the rows of ``basis_matrix``,
    with ``lattice`` the restricted form and ``primitive`` whether the rows
    span a primitive sublattice."""

    __slots__ = ()

    @classmethod
    def of(cls, ambient: Lattice, basis_rows) -> "Sublattice":
        """One Smith form of the rows gives both their rank and whether they
        are primitive (every invariant factor 1)."""
        basis_rows = tuple(map(tuple, basis_rows))
        # no rows count as one empty row: a matrix without rows has no columns
        if any(len(row) != ambient.rank for row in basis_rows or ((),)):
            raise BadParameter("basis rows must have ambient rank many columns")
        diag = smith_normal_form(basis_rows).diag
        if sum(1 for d in diag if d != 0) != len(basis_rows):
            raise BadParameter("sublattice basis is linearly dependent")
        try:
            lattice = from_gram(matmul(matmul(basis_rows, ambient.gram), tuple(zip(*basis_rows))))
        except SingularMatrix:
            raise BadParameter("form restricted to sublattice is degenerate") from None
        return cls(ambient, basis_rows, lattice, all(d == 1 for d in diag))


def orthogonal_complement(L: Lattice, vectors) -> Sublattice:
    """Primitive basis of the saturation of {x in L : (x, s) = 0 for s in S},
    for integer coordinate tuples S.

    Raises BadParameter when S is empty or dependent, or when the
    restricted form degenerates (e.g. S contains an isotropic vector of U).
    """
    rows = [apply(L.gram, v) for v in vectors]
    if not rows:
        raise BadParameter("complement needs at least one vector")
    kernel = kernel_basis(rows)
    if len(kernel) != L.rank - len(rows):
        raise BadParameter("input vectors are linearly dependent")
    return Sublattice.of(L, kernel)


def divisibility(L: Lattice, v) -> int:
    """Positive generator of the pairing ideal (v, L) of an integer vector."""
    out = gcd(*apply(L.gram, v))
    if out == 0:
        raise BadParameter("divisibility of the zero vector is undefined")
    return out


# ---------------------------------------------------------------------------
# rational splittings


class OrthogonalSplitting(namedtuple("OrthogonalSplitting", "ambient left right")):
    """Primitive orthogonal pair M, N = M-perp (``Sublattice``s ``left`` and
    ``right``) inside an ambient lattice."""

    __slots__ = ()

    def __new__(cls, ambient, left, right):
        if left.ambient != ambient or right.ambient != ambient:
            raise BadParameter("summands live in a different ambient lattice")
        if left.lattice.rank + right.lattice.rank != ambient.rank:
            raise BadParameter("summands do not span the ambient lattice rationally")
        cross = matmul(matmul(left.basis_matrix, ambient.gram), tuple(zip(*right.basis_matrix)))
        if any(any(row) for row in cross):
            raise BadParameter("summands are not orthogonal")
        if not left.primitive or not right.primitive:
            raise BadParameter("summands must be primitive")
        return tuple.__new__(cls, (ambient, left, right))


def splitting_from(L: Lattice, left_vectors) -> OrthogonalSplitting:
    """Splitting with M spanned (and saturated) by the given vectors."""
    right = orthogonal_complement(L, left_vectors)
    left = orthogonal_complement(L, right.basis_matrix)
    return OrthogonalSplitting(L, left, right)


def split_rational(split: OrthogonalSplitting, v) -> tuple:
    """Exact decomposition v = v_M + v_N with v_M in M o Q, v_N in N o Q, as
    two tuples of Fractions.

    N is M-perp, so v_M is the orthogonal projection sum_i a_i m_i with
    G_M a = ((m_i, v))_i.  With U G_M V = D and e the last invariant factor,
    e a = V (e D^-1) U ((m_i, v))_i is an integer vector (for integral v),
    and the one division by e comes last.
    """
    from fractions import Fraction

    rows = split.left.basis_matrix
    snf = smith_normal_form(split.left.lattice.gram)
    e = snf.diag[-1]
    y = apply(snf.left, apply(rows, apply(split.ambient.gram, v)))
    ea = apply(snf.right, [x * (e // d) for x, d in zip(y, snf.diag)])  # e a
    scaled = apply(tuple(zip(*rows)), ea)
    return (tuple(Fraction(x, e) for x in scaled),
            tuple(Fraction(e * a - x, e) for a, x in zip(v, scaled)))


def delta_prime_test(split: OrthogonalSplitting, delta) -> bool:
    """True when both rational projections of delta have negative norm."""
    d_m, d_n = split_rational(split, delta)
    if not any(d_m) or not any(d_n):
        raise BadParameter("delta lies in one of the summands")
    G = split.ambient.gram
    return bilinear(G, d_m, d_m) < 0 and bilinear(G, d_n, d_n) < 0


# ---------------------------------------------------------------------------
# the cubic-scroll verification fixture (Hassett-Tschinkel ample cones)


def example_c12(bound: int = ENUM_BOUND) -> dict:
    """Verification data for the rank-2 polarized family <6> + <-4>.

    Uses the printed coordinates g = 2v1 + 14w1 - 5e, tau = v2 - 2w2,
    delta = 4(v1 - w1) + 6(v2 + w2) - 5e and beta1 = -3g + tau, and checks
    the complement against U + E8^2 + B3 + <4> at the genus level, with
    ``bound`` on the isometry search of its discriminant form.
    """
    L = k3_square_lattice()

    def pair(x, y):
        return bilinear(L.gram, x, y)

    def vec(v1=0, w1=0, v2=0, w2=0, e=0):
        return (v1, w1, v2, w2) + (0,) * (L.rank - 5) + (e,)

    g = vec(v1=2, w1=14, e=-5)
    tau = vec(v2=1, w2=-2)
    delta = vec(v1=4, w1=-4, v2=6, w2=6, e=-5)
    beta1 = tuple(-3 * a + b for a, b in zip(g, tau))

    split = splitting_from(L, [g, tau])
    comp = split.right.lattice
    model = parse_name("U+E8+E8+B3+<4>")
    genus_match = (
        comp.signature == model.signature
        and abs(comp.det) == abs(model.det)
        and are_isometric(discriminant_form(comp)[0], discriminant_form(model)[0], bound)[0]
    )
    d_m, d_n = split_rational(split, delta)
    return {
        "g2": pair(g, g),
        "tau2": pair(tau, tau),
        "g_tau": pair(g, tau),
        "complement_signature": comp.signature,
        "complement_det": comp.det,
        "complement_genus_matches_U_E8_E8_B3_4": genus_match,
        "delta2": pair(delta, delta),
        "delta_div": divisibility(L, delta),
        # the printed delta_M = -g/3 + 3 tau/2, times 6
        "delta_m_matches": [6 * x for x in d_m] == [9 * b - 2 * a for a, b in zip(g, tau)],
        "delta_m2": pair(d_m, d_m),
        "delta_n2": pair(d_n, d_n),
        "delta_prime": delta_prime_test(split, delta),
        "beta1_delta": pair(beta1, delta),
    }


def example_c12_ok(data: dict | None = None) -> bool:
    data = data if data is not None else example_c12()
    return (
        data["g2"] == 6
        and data["tau2"] == -4
        and data["g_tau"] == 0
        and data["complement_signature"] == (2, 19)
        and abs(data["complement_det"]) == 12
        and data["complement_genus_matches_U_E8_E8_B3_4"]
        and data["delta2"] == -10
        and data["delta_div"] == 2
        and data["delta_m_matches"]
        and 3 * data["delta_m2"] == -25
        and 3 * data["delta_n2"] == -5
        and data["delta_prime"] is True
        and data["beta1_delta"] == 0
    )
