"""The paper's group-theoretic claims that no command checks, for the tests.

Isometries of a lattice, reflections and real spinor norms; membership of
an isometry in O+, the stable groups and their hatted relaxations; the
isotropic subgroups H_m of A_N, the set T of the splitting lattices
T(m, delta) and q-preserving embeddings of forms.  The tests check the
paper's statements about them; ``cuspidal.claims`` keeps only what
``verify example-c12`` runs.

The real spinor norm of an isometry g is read off a maximal positive
definite subspace W, spanned by the positive rows P of a fraction-free
congruence basis (``positive_definite_basis``): g keeps the orientation
of W after projecting back to W exactly when det(P G g P^T) > 0.
Reflections and spinor norms stay in integers.  ``t_set`` raises
``HypothesisFailed`` for an m outside the paper's hypothesis.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm

from cuspidal.cusps import (
    DiscModel,
    PolarizationCase,
    _order_pattern,
    det_E,
    disc_model,
    predicted_AE,
)
from cuspidal.errors import BadParameter, CuspidalError, SingularMatrix
from cuspidal.exact import apply, diagonal, matmul, smith_normal_form
from cuspidal.fqf import (
    ENUM_BOUND,
    Form,
    FqfSubgroup,
    _hom_search,
    are_isometric,
    discriminant_form,
    subgroup_span,
)
from cuspidal.lattice import Lattice, from_gram
from form_oracles import direct_sum_form
from fraction_oracles import bareiss_det


class HypothesisFailed(CuspidalError):
    """A claim is asked for parameters outside its hypotheses."""


# ---------------------------------------------------------------------------
# isometries, reflections, spinor norms


def positive_definite_basis(A) -> list:
    """Pairwise A-orthogonal integer rows spanning a maximal positive definite
    subspace of a nonsingular symmetric A.

    The elimination of ``exact.det_and_signature``, with its row steps
    also applied to the identity: they give rows T, lower triangular up
    to the swaps and adds, so T A T^T is upper triangular and symmetric,
    hence diagonal, with entry t equal to d_t d_(t+1) for the pivots d.
    The rows whose entry is positive are kept.  Raises SingularMatrix on
    degenerate input.
    """
    n = len(A)
    M = [list(row) for row in A]
    T = [[int(i == j) for j in range(n)] for i in range(n)]
    out = []
    prev = 1
    for t in range(n):
        if M[t][t] == 0:
            k = next((i for i in range(t + 1, n) if M[i][i] != 0), None)
            if k is None:
                pair = next(
                    ((i, j) for i in range(t, n) for j in range(i + 1, n) if M[i][j]),
                    None,
                )
                if pair is None:
                    raise SingularMatrix("degenerate symmetric form")
                i, j = pair
                M[i] = [a + b for a, b in zip(M[i], M[j])]
                for row in M:
                    row[i] += row[j]
                T[i] = [a + b for a, b in zip(T[i], T[j])]
                k = i
            M[t], M[k] = M[k], M[t]
            for row in M:
                row[t], row[k] = row[k], row[t]
            T[t], T[k] = T[k], T[t]
        p = M[t][t]
        if (p > 0) == (prev > 0):
            out.append(T[t])
        pivot_row, pivot_basis = M[t][t + 1:], T[t]
        for i in range(t + 1, n):
            a = M[i][t]
            M[i][t + 1:] = [(p * x - a * y) // prev for x, y in zip(M[i][t + 1:], pivot_row)]
            T[i] = [(p * x - a * y) // prev for x, y in zip(T[i], pivot_basis)]
        prev = p
    return out


class Isometry(namedtuple("Isometry", "domain matrix")):
    """Isometry of a lattice, acting on coordinate columns: v -> M v; the
    constructor keeps the integer rows of M as a tuple of tuples."""

    __slots__ = ()

    def __new__(cls, domain, matrix):
        matrix = tuple(map(tuple, matrix))
        if len(matrix) != domain.rank or any(len(row) != domain.rank for row in matrix):
            raise BadParameter("matrix shape does not match the lattice")
        if matmul(matmul(tuple(zip(*matrix)), domain.gram), matrix) != domain.gram:
            raise BadParameter("matrix does not preserve the form")
        return tuple.__new__(cls, (domain, matrix))

    @property
    def det(self) -> int:
        return bareiss_det(self.matrix)

    @classmethod
    def identity(cls, L: Lattice) -> "Isometry":
        return cls(L, diagonal((1,) * L.rank))


def reflection(L: Lattice, v) -> Isometry:
    """Reflection x -> x - 2 (x, v) / (v, v) v in a vector of nonzero norm,
    given by its coordinates (ints or Fractions).

    Its matrix I - 2 w (G w)^T / (w, w), for w the smallest positive
    multiple of v with integer coordinates, must be integral: the
    reflection maps L to itself.
    """
    den = lcm(*(x.denominator for x in v))
    w = [x.numerator * (den // x.denominator) for x in v]
    gw = apply(L.gram, w)
    norm = sum(a * b for a, b in zip(w, gw))
    if norm == 0:
        raise BadParameter("cannot reflect in an isotropic vector")
    if any(2 * a * b % norm for a in w for b in gw):
        raise BadParameter("reflection does not preserve the lattice")
    return Isometry(
        L, [[int(i == j) - 2 * a * b // norm for j, b in enumerate(gw)] for i, a in enumerate(w)]
    )


def spinor_norm(g: Isometry) -> int:
    """Real spinor norm: the character of O(L) that is -1 on reflections in
    vectors of positive norm and +1 on those in vectors of negative norm.

    It is the sign of det(P G g P^T) for rows P spanning a maximal positive
    definite subspace W (``positive_definite_basis``): P G P^T is
    positive definite, so the sign is that of the determinant of g
    followed by the orthogonal projection to W.  A reflection in v with
    v^2 > 0 reverses W when W contains v; one with v^2 < 0 fixes a W
    orthogonal to v.  +1 on a negative definite lattice.
    """
    G = g.domain.gram
    P = positive_definite_basis(G)
    if not P:
        return 1
    return 1 if bareiss_det(matmul(matmul(matmul(P, G), g.matrix), tuple(zip(*P)))) > 0 else -1


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
    rows = [smith.left[k] for k in kept]
    cols = [[row[i] for i in kept] for row in smith.right]
    m = matmul(matmul(matmul(rows, g.domain.gram), g.matrix), cols)
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
# subgroups and embeddings of discriminant forms


def embeds(
    a: Form, b: Form, bound: int = ENUM_BOUND
) -> bool:
    """True when an injective q-preserving homomorphism a -> b exists."""
    if a.cardinality > b.cardinality:
        return False
    return bool(_hom_search(a, b, a.cardinality, bound, find_all=False))


def _coefficients(case: PolarizationCase, m: int, n: int) -> tuple:
    """(a, b) with x_{m,n} = a t + b e: n t/m, plus n e for the "t+e" pattern.

    t has order 2d (split) or d (non-split), so t/m = (ord t / m) t; a is
    reduced mod ord t and b mod 2, the order of e.  Every non-split m has
    the "t" pattern, so b = 0 there.  Each call validates m and reads its
    pattern, as ``cusps._verified_reps`` does once per order.
    """
    pattern = _order_pattern(case, m)
    ord_t = 2 * case.d if case.split else case.d
    return n * (ord_t // m) % ord_t, (n % 2 if pattern == "t+e" else 0)


def _combine(form: Form, t, e, a: int, b: int) -> tuple:
    """a t + b e as a reduced element of ``form``."""
    return tuple([(a * x + b * y) % d for x, y, d in zip(t, e, form.orders)])


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
        t_gram = ((0, m), (m, 2 * delta))
        t_disc = discriminant_form(from_gram(t_gram))[0]
        total = direct_sum_form(t_disc, pred)
        if are_isometric(total, model.form, bound)[0]:
            out.append((delta, t_gram))
    return out
