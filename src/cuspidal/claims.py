"""The paper's group-theoretic claims, checked by ``verify example-c12``.

Isometries of a lattice, reflections and real spinor norms; membership of
an isometry in O+, the stable groups and their hatted relaxations; the
rational splitting of a vector along a primitive orthogonal pair and the
delta' test; the isotropic subgroups H_m of A_N, the set T of the
splitting lattices T(m, delta) and q-preserving embeddings of forms; and
the cubic-scroll fixture of Hassett-Tschinkel.

The real spinor norm of an isometry g is read off a maximal positive
definite subspace W, spanned by the positive rows P of the fraction-free
congruence basis: g keeps the orientation of W after projecting back to
W exactly when det(P G g P^T) > 0.  Reflections, splittings and spinor
norms stay in integers; rational values appear only as results.

No command but ``verify example-c12`` runs these, so neither the package
nor the CLI imports this module at start-up.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm

from .cusps import (
    DiscModel,
    PolarizationCase,
    _coefficients,
    _combine,
    det_E,
    disc_model,
    k3_square_lattice,
    predicted_AE,
)
from .errors import (
    BadParameter,
    HypothesisFailed,
    MemberOfSummand,
    MixedLattices,
    NotIsometry,
)
from .exact import IntMatrix, positive_definite_basis, smith_normal_form
from .fqf import (
    ENUM_BOUND,
    FiniteQuadraticForm,
    FqfSubgroup,
    _hom_search,
    are_isometric,
    direct_sum_form,
    discriminant_form,
    subgroup_span,
)
from .lattice import (
    Lattice,
    LatticeVector,
    divisibility,
    orthogonal_complement,
    pair,
    parse_name,
)


# ---------------------------------------------------------------------------
# isometries, reflections, spinor norms


class Isometry(namedtuple("Isometry", "domain matrix")):
    """Isometry of a lattice, acting on coordinate columns: v -> M v."""

    __slots__ = ()

    def __new__(cls, domain, matrix):
        if matrix.rows != matrix.cols or matrix.rows != domain.rank:
            raise NotIsometry("matrix shape does not match the lattice")
        if matrix.T @ domain.gram @ matrix != domain.gram:
            raise NotIsometry("matrix does not preserve the form")
        return tuple.__new__(cls, (domain, matrix))

    def __call__(self, v: LatticeVector) -> LatticeVector:
        if v.home != self.domain:
            raise MixedLattices("vector lives in a different lattice")
        return LatticeVector(self.domain, self.matrix.apply(v.coords))

    @property
    def det(self) -> int:
        return self.matrix.det()

    @classmethod
    def identity(cls, L: Lattice) -> "Isometry":
        return cls(L, IntMatrix.identity(L.rank))


def reflection(L: Lattice, v: LatticeVector) -> Isometry:
    """Reflection x -> x - 2 (x, v) / (v, v) v in a vector of nonzero norm.

    Its matrix I - 2 w (G w)^T / (w, w), for w the smallest positive
    multiple of v with integer coordinates, must be integral: the
    reflection maps L to itself.
    """
    if v.home != L:
        raise MixedLattices("vector lives in a different lattice")
    den = lcm(*(x.denominator for x in v.coords))
    w = [x.numerator * (den // x.denominator) for x in v.coords]
    gw = L.gram.apply(w)
    norm = sum(a * b for a, b in zip(w, gw))
    if norm == 0:
        raise BadParameter("cannot reflect in an isotropic vector")
    if any(2 * a * b % norm for a in w for b in gw):
        raise NotIsometry("reflection does not preserve the lattice")
    return Isometry(
        L, IntMatrix([[int(i == j) - 2 * a * b // norm for j, b in enumerate(gw)]
                      for i, a in enumerate(w)])
    )


def spinor_norm(g: Isometry) -> int:
    """Real spinor norm: the character of O(L) that is -1 on reflections in
    vectors of positive norm and +1 on those in vectors of negative norm.

    It is the sign of det(P G g P^T) for rows P spanning a maximal positive
    definite subspace W (``exact.positive_definite_basis``): P G P^T is
    positive definite, so the sign is that of the determinant of g
    followed by the orthogonal projection to W.  A reflection in v with
    v^2 > 0 reverses W when W contains v; one with v^2 < 0 fixes a W
    orthogonal to v.  +1 on a negative definite lattice.
    """
    G = g.domain.gram
    P = positive_definite_basis(G)
    if not P:
        return 1
    P = IntMatrix(P)
    return 1 if (P @ G @ g.matrix @ P.T).det() > 0 else -1


class MembershipFlags(namedtuple(
    "MembershipFlags",
    "det spinor disc_action in_o_plus stable in_o_tilde_plus in_so_tilde_plus"
    " in_o_hat_plus in_so_hat_plus",
)):
    """Flags of ``group_membership``; ``disc_action`` is "id", "-id" or "other"."""

    __slots__ = ()


def disc_action(g: Isometry, smith, kept) -> tuple:
    """Images under g of the generators V e_i / d_i (i in ``kept``) of L*/L.

    With ``smith`` the Smith form U G V = D of the Gram matrix, coordinate k
    of the image of generator i is (U G g V)_ki / d_i mod d_k, an exact
    division because U G g V = U g^-T U^-1 D.  Only the kept block of
    U G g V is formed: the ``kept`` rows of U times G g times the ``kept``
    columns of V.
    """
    if not kept:
        return ()
    rows = IntMatrix([smith.left.data[k] for k in kept])
    cols = IntMatrix([[row[i] for i in kept] for row in smith.right.data])
    m = (rows @ g.domain.gram @ g.matrix @ cols).data
    d = smith.diag
    return tuple(
        tuple(m[a][b] // d[i] % d[k] for a, k in enumerate(kept))
        for b, i in enumerate(kept)
    )


def group_membership(g: Isometry) -> MembershipFlags:
    """Spinor, determinant and discriminant-action flags for an isometry.

    O+ means real spinor norm +1; "stable" means the induced action on
    the discriminant group is the identity.  The hatted groups relax the
    action to minus the identity, with the determinant pairing of the
    special hatted group.
    """
    det = g.det
    sn = spinor_norm(g)
    smith = smith_normal_form(g.domain.gram)
    kept = [k for k, d in enumerate(smith.diag) if d > 1]
    images = disc_action(g, smith, kept)

    def scalar(sign):
        return tuple(tuple(sign * (k == i) % smith.diag[k] for k in kept) for i in kept)

    action = "id" if images == scalar(1) else "-id" if images == scalar(-1) else "other"
    in_o_plus = sn == 1
    stable = action == "id"
    in_o_tilde = in_o_plus and stable
    return MembershipFlags(
        det=det,
        spinor=sn,
        disc_action=action,
        in_o_plus=in_o_plus,
        stable=stable,
        in_o_tilde_plus=in_o_tilde,
        in_so_tilde_plus=in_o_tilde and det == 1,
        in_o_hat_plus=in_o_plus and action in ("id", "-id"),
        in_so_hat_plus=in_o_plus
        and ((action == "id" and det == 1) or (action == "-id" and det == -1)),
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
# subgroups and embeddings of discriminant forms


def embeds(
    a: FiniteQuadraticForm, b: FiniteQuadraticForm, bound: int = ENUM_BOUND
) -> bool:
    """True when an injective q-preserving homomorphism a -> b exists."""
    if a.cardinality > b.cardinality:
        return False
    return bool(_hom_search(a, b, a.cardinality, bound, find_all=False))


def _element_of_order(model: DiscModel, m: int, n: int) -> tuple:
    return _combine(model.form, model.t_class, model.e_class,
                    *_coefficients(model.case, m, n))


def h_subgroup(case: PolarizationCase, m: int, model: DiscModel | None = None) -> FqfSubgroup:
    """The isotropic subgroup H_m of A_N."""
    if model is None:
        model = disc_model(case)
    gen = _element_of_order(model, m, 1) if m > 1 else model.form.zero
    return subgroup_span(model.form, [gen])


def t_set(case: PolarizationCase, m: int, bound: int = ENUM_BOUND) -> list:
    """All delta in [0, m) whose T(m, delta) is compatible with the splitting.

    T(m, delta) has Gram [[0, m], [m, 2*delta]]; delta is kept when the
    discriminant form of T(m, delta) plus the predicted A_E is isometric
    to A_N.  Requires gcd(m, det E) = 1.
    """
    de = det_E(case, m)
    if gcd(m, de) != 1:
        raise HypothesisFailed(f"gcd(m, det E) = gcd({m}, {de}) != 1")
    model = disc_model(case)
    pred = predicted_AE(case, m)
    out = []
    for delta in range(m):
        t_gram = IntMatrix([[0, m], [m, 2 * delta]])
        t_disc = discriminant_form(Lattice(t_gram))
        total = direct_sum_form(t_disc, pred)
        if are_isometric(total, model.form, bound)[0]:
            out.append((delta, t_gram))
    return out


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
