"""The paper's rational splitting and fixture, checked by ``verify example-c12``.

The rational splitting of a vector along a primitive orthogonal pair and
the delta' test, and the cubic-scroll fixture of Hassett-Tschinkel.  The
splitting stays in integers up to one final division; rational values
appear only as results.

No command but ``verify example-c12`` runs these, so neither the package
nor the CLI imports this module at start-up.  The paper's other
group-theoretic claims, which no command checks (isometries, reflections
and spinor norms, membership in O+ and the stable groups, H_m, T(m, delta)
and embeddings of forms), live with the tests in ``tests/group_claims.py``.
"""

from collections import namedtuple

from .cusps import k3_square_lattice
from .errors import BadParameter, MemberOfSummand, MixedLattices
from .exact import smith_normal_form
from .fqf import are_isometric, discriminant_form
from .lattice import (
    Lattice,
    LatticeVector,
    divisibility,
    orthogonal_complement,
    pair,
    parse_name,
)


# ---------------------------------------------------------------------------
# rational splittings


class OrthogonalSplitting(namedtuple("OrthogonalSplitting", "ambient left right")):
    """Primitive orthogonal pair M, N = M-perp (``Sublattice``s ``left`` and
    ``right``) inside an ambient lattice."""

    __slots__ = ()

    def __new__(cls, ambient, left, right):
        if left.ambient != ambient or right.ambient != ambient:
            raise MixedLattices("summands live in a different ambient lattice")
        if left.rank + right.rank != ambient.rank:
            raise BadParameter("summands do not span the ambient lattice rationally")
        for u in left.basis():
            for w in right.basis():
                if pair(u, w) != 0:
                    raise BadParameter("summands are not orthogonal")
        if not left.is_primitive() or not right.is_primitive():
            raise BadParameter("summands must be primitive")
        return tuple.__new__(cls, (ambient, left, right))


def splitting_from(L: Lattice, left_vectors) -> OrthogonalSplitting:
    """Splitting with M spanned (and saturated) by the given vectors."""
    right = orthogonal_complement(L, left_vectors)
    left = orthogonal_complement(L, right.basis())
    return OrthogonalSplitting(L, left, right)


def split_rational(split: OrthogonalSplitting, v: LatticeVector):
    """Exact decomposition v = v_M + v_N with v_M in M o Q, v_N in N o Q.

    N is M-perp, so v_M is the orthogonal projection sum_i a_i m_i with
    G_M a = ((m_i, v))_i.  With U G_M V = D and e the last invariant factor,
    e a = V (e D^-1) U ((m_i, v))_i is an integer vector (for integral v),
    and the one division by e comes last.
    """
    from fractions import Fraction

    if v.home != split.ambient:
        raise MixedLattices("vector lives in a different lattice")
    rows = split.left.basis_matrix
    snf = smith_normal_form(split.left.lattice.gram)
    e = snf.diag[-1]
    y = snf.left.apply(rows.apply(split.ambient.gram.apply(v.coords)))
    scaled = rows.T.apply(snf.right.apply([x * (e // d) for x, d in zip(y, snf.diag)]))
    m_part = [Fraction(x, e) for x in scaled]
    n_part = [Fraction(e * a - x, e) for a, x in zip(v.coords, scaled)]
    return LatticeVector(split.ambient, m_part), LatticeVector(split.ambient, n_part)


def delta_prime_test(split: OrthogonalSplitting, delta: LatticeVector) -> bool:
    """True when both rational projections of delta have negative norm."""
    if not delta.is_integral:
        raise BadParameter("delta must be integral")
    d_m, d_n = split_rational(split, delta)
    if d_m.is_zero or d_n.is_zero:
        raise MemberOfSummand("delta lies in one of the summands")
    return d_m.norm < 0 and d_n.norm < 0


# ---------------------------------------------------------------------------
# the cubic-scroll verification fixture (Hassett-Tschinkel ample cones)


def example_c12() -> dict:
    """Verification data for the rank-2 polarized family <6> + <-4>.

    Uses the printed coordinates g = 2v1 + 14w1 - 5e, tau = v2 - 2w2,
    delta = 4(v1 - w1) + 6(v2 + w2) - 5e and beta1 = -3g + tau, and checks
    the complement against U + E8^2 + B3 + <4> at the genus level.
    """
    from fractions import Fraction

    L = k3_square_lattice()
    n = L.rank

    def vec(v1=0, w1=0, v2=0, w2=0, e=0):
        c = [0] * n
        c[0], c[1], c[2], c[3], c[n - 1] = v1, w1, v2, w2, e
        return L.vector(c)

    g = vec(v1=2, w1=14, e=-5)
    tau = vec(v2=1, w2=-2)
    delta = vec(v1=4, w1=-4, v2=6, w2=6, e=-5)
    beta1 = -3 * g + tau

    split = splitting_from(L, [g, tau])
    comp = split.right.lattice
    model = parse_name("U+E8+E8+B3+<4>")
    genus_match = (
        comp.signature == model.signature
        and abs(comp.det) == abs(model.det)
        and are_isometric(discriminant_form(comp), discriminant_form(model))[0]
    )
    d_m, d_n = split_rational(split, delta)
    target_dm = Fraction(-1, 3) * g + Fraction(3, 2) * tau
    return {
        "g2": g.norm,
        "tau2": tau.norm,
        "g_tau": pair(g, tau),
        "complement_signature": comp.signature,
        "complement_det": comp.det,
        "complement_genus_matches_U_E8_E8_B3_4": genus_match,
        "delta2": delta.norm,
        "delta_div": divisibility(delta),
        "delta_m_matches": d_m.coords == target_dm.coords,
        "delta_m2": d_m.norm,
        "delta_n2": d_n.norm,
        "delta_prime": delta_prime_test(split, delta),
        "beta1_delta": pair(beta1, delta),
    }


def example_c12_ok(data: dict | None = None) -> bool:
    from fractions import Fraction

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
        and data["delta_m2"] == Fraction(-25, 3)
        and data["delta_n2"] == Fraction(-5, 3)
        and data["delta_prime"] is True
        and data["beta1_delta"] == 0
    )
