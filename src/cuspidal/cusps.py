"""Baily-Borel boundary enumeration for <2d>-polarized K3[2] period domains.

The ambient lattice is U^3 + E8^2 + <-2>.  A polarization of degree 2d
embeds either split (divisibility 1, complement U^2+E8^2+<-2>+<-2d>) or,
when d = 3 mod 4, non-split (divisibility 2, complement U^2+E8^2+B_d).

Zero-dimensional boundary points correspond to isotropic classes of the
complement's discriminant form A_N modulo +-1.  The unimodular summands
add nothing, so A_N is the discriminant form of the core <-2d> + <-2>
(split) or B_d (non-split), which ``disc_model`` writes down in closed
form (Nikulin 1979, section 1) with no lattice and no Smith form;
``TestClosedFormAgainstTheCore`` in tests/test_cusps.py checks it
against the discriminant form of the core.  Writing d = d'*k^2 with d'
square-free, the number of classes is k+1 in the split case with
d' = 3 mod 4 and floor((k+2)/2) otherwise; the trivial class is counted
(it corresponds to the divisibility-1 primitive isotropic vectors).
Orbit representatives are labelled (m, n) with m | K, gcd(m, n) = 1 and
0 <= n <= m/2.  Each x_{m,n} = a t + b e has integer coefficients on the
generator t of order 2d (d non-split) and the class e of order 2 (zero
non-split); once t and e are checked to split A_N, the representatives
are certified on (a, b) alone: isotropic, of order m, distinct modulo
+-1 and as many as the isotropic classes.

One-dimensional components are parametrized, for square-free d, by pairs
(E, l) with E a rank-18 negative definite lattice in the genus of the
complement's transverse part and l a class in O(A_E)/Im tau.  Candidate
lattices E must be supplied (the built-in list covers split d = 1, the
thirteen known rows); Im tau is computed from diagram, permutation and
unit automorphisms and every dependent count is flagged conditional.
"""

from collections import namedtuple
from math import gcd, isqrt, lcm

from .errors import (
    BadCase,
    BadIndex,
    BadParameter,
    GroupTooLarge,
    InternalError,
    NotSquareFree,
)
from .exact import factorize
from . import fqf
from . import glue as glue_mod
from .fqf import FiniteQuadraticForm, trivial_form
from .lattice import Lattice, parse_name


def squarefree_decompose(factors: dict):
    """d = d' * k^2 with d' square-free, from the factorization {p: e} of d;
    returns (d', k)."""
    dprime, k = 1, 1
    for p, e in factors.items():
        dprime *= p ** (e % 2)
        k *= p ** (e // 2)
    return dprime, k


class PolarizationCase(namedtuple("PolarizationCase", "d embedding dprime k K primes")):
    """Degree-2d polarization with a chosen embedding type, "split" or "nonsplit".

    Built from d and the embedding alone: d = dprime * k^2 with dprime
    square-free, K is the largest order of an isotropic subgroup H_m, and
    ``primes`` are the primes of 2d, all from one factorization of d.
    """

    __slots__ = ()

    def __new__(cls, d, embedding):
        if d < 1:
            raise BadCase("d must be a positive integer")
        if embedding not in ("split", "nonsplit"):
            raise BadCase(f"unknown embedding {embedding!r}")
        if embedding == "nonsplit" and d % 4 != 3:
            raise BadCase("non-split embeddings require d = 3 mod 4")
        factors = factorize(d)
        dprime, k = squarefree_decompose(factors)
        big = 2 * k if (embedding == "split" and dprime % 4 == 3) else k
        primes = tuple(sorted(set(factors) | {2}))
        return tuple.__new__(cls, (d, embedding, dprime, k, big, primes))

    def __getnewargs__(self):
        return self.d, self.embedding

    @property
    def split(self) -> bool:
        return self.embedding == "split"


# ---------------------------------------------------------------------------
# discriminant model (distinguished generators)


class DiscModel(namedtuple("DiscModel", "case form t_class e_class")):
    """A_N with the distinguished classes used by all closed formulas:
    ``t_class`` of t/2d (split) or of t = h/d - w2 (nonsplit), and
    ``e_class`` of e/2 in the split case (zero otherwise), as coordinates
    of ``form``."""

    __slots__ = ()


def disc_model(case: PolarizationCase) -> DiscModel:
    """A_N in closed form, as ``predicted_AE`` builds A_E.

    Split: Z/2 + Z/2d with Gram diag(-d, -1) over the level 2d, that is
    q(e/2) = -1/2 and q(t/2d) = -1/2d, and b(t/2d, e/2) = 0.  Non-split:
    Z/d with Gram (-2) over d, q(t) = -2/d.
    """
    d = case.d
    if case.split:
        return DiscModel(case, FiniteQuadraticForm((2, 2 * d), [[-d, 0], [0, -1]]),
                         (0, 1), (1, 0))
    return DiscModel(case, FiniteQuadraticForm((d,), [[-2]]), (1,), (0,))


# ---------------------------------------------------------------------------
# zero-dimensional cusps


def nu_formula(case: PolarizationCase) -> int:
    if case.split and case.dprime % 4 == 3:
        return case.k + 1
    return (case.k + 2) // 2


def nu_enumerate(case: PolarizationCase, bound: int = fqf.ENUM_BOUND) -> int:
    """Isotropic classes of A_N modulo +-1, counted part by part
    (``fqf.isotropic_pm1_count``): the odd parts of A_N are cyclic and the
    cofactor of its 2-part has at most two elements, so nothing is listed."""
    return fqf.isotropic_pm1_count(disc_model(case).form, bound, case.primes)


class NuResult(namedtuple("NuResult", "case formula enumerated")):
    """nu from the closed formula and from the count, each None when not run."""

    __slots__ = ()

    @property
    def agree(self) -> bool | None:
        if self.formula is None or self.enumerated is None:
            return None
        return self.formula == self.enumerated


def _check_nu_mode(mode: str) -> None:
    if mode not in ("formula", "enumerate", "both"):
        raise BadParameter(f"unknown nu mode {mode!r}")


def nu(case: PolarizationCase, mode: str = "both", bound: int = fqf.ENUM_BOUND) -> NuResult:
    _check_nu_mode(mode)
    f = nu_formula(case) if mode in ("formula", "both") else None
    e = nu_enumerate(case, bound) if mode in ("enumerate", "both") else None
    return NuResult(case, f, e)


def valid_orders(case: PolarizationCase) -> list:
    """Orders m of the isotropic subgroups H_m, i.e. the divisors of K, in
    ascending order: the m <= sqrt K, then their cofactors K / m."""
    K = case.K
    low = [m for m in range(1, isqrt(K) + 1) if K % m == 0]
    return low + [K // m for m in reversed(low) if m * m != K]


def _order_pattern(case: PolarizationCase, m: int) -> str:
    if m < 1 or case.K % m:
        raise BadIndex(f"m={m} does not index an isotropic subgroup for this case")
    if case.k % m == 0:
        return "t"
    # remaining divisors of K = 2k: even m with m/2 | k, split d' = 3 mod 4 only
    return "t+e"


def _rep_coefficients(n: int, step: int, with_e: bool, ord_t: int) -> tuple:
    """(a, b) with x_{m,n} = a t + b e: n t/m, plus n e for the "t+e" pattern,
    given the per-order constants ``step`` = ord t / m (t/m = step t) and
    ``with_e``; a is reduced mod ord t and b mod 2, the order of e."""
    return n * step % ord_t, (n % 2 if with_e else 0)


class OrbitRep(namedtuple("OrbitRep", "m n")):
    """The isotropic class x_{m,n} of order m, by its printed label (m, n)."""

    __slots__ = ()


def _verified_reps(model: DiscModel, count: int, bound: int = fqf.ENUM_BOUND) -> list:
    """The x_{m,n}, certified to be all ``count`` isotropic classes modulo +-1.

    Each x_{m,n} = a t + b e is checked on its coefficients in integers read
    off the form once: ord t, ord e, level q(t), level q(e) and
    B = level b(t, e).  First t and e must split A_N: ord t ord e = |A_N|
    and, e having order at most 2, e is not the element (ord t / 2) t of
    order 2 in <t>.  Then (a, b) -> a t + b e is a bijection from
    Z/ord t + Z/ord e onto A_N.  What depends on m alone is found once per
    order: m is validated and its "t" or "t+e" pattern read
    (``_order_pattern``), and t/m = (ord t / m) t, with t of order 2d
    (split) or d (non-split) by construction.  Then per representative,
    (a, b) comes from ``_rep_coefficients`` and is checked: isotropic when
    a^2 q_t + 2ab B + b^2 q_e = 0 mod 2 level, of order
    lcm(ord t / gcd(ord t, a), ord e / gcd(ord e, b)) = m, pairwise distinct
    modulo +-1 on the lesser of (a, b) and (-a, -b), and as many as there
    are classes: nothing is left over.  More than ``bound`` classes raise
    ``GroupTooLarge`` before any representative is built.
    """
    if count > bound:
        raise GroupTooLarge(
            f"{count} isotropic classes modulo +-1 exceed enumeration bound {bound}")
    case, form, t, e = model
    ord_t, ord_e = form.order_of(t), form.order_of(e)
    if (ord_e > 2 or ord_t * ord_e != form.cardinality
            or (ord_e == 2 and form.smul(ord_t // 2, t) == e)):
        raise InternalError("t and e do not split A_N")
    modulus = 2 * form.level
    q_t, q_e, b_te = form.q_scaled(t), form.q_scaled(e), form.gram.bilinear(t, e)
    period = 2 * case.d if case.split else case.d
    reps, keys = [], set()
    for m in valid_orders(case):
        with_e = _order_pattern(case, m) == "t+e"
        step = period // m
        for n in range(0, m // 2 + 1):
            if gcd(m, n) != 1:
                continue
            a, b = _rep_coefficients(n, step, with_e, period)
            if (a * a * q_t + 2 * a * b * b_te + b * b * q_e) % modulus:
                raise InternalError(f"x_({m},{n}) is not isotropic")
            if lcm(ord_t // gcd(ord_t, a), ord_e // gcd(ord_e, b)) != m:
                raise InternalError(f"x_({m},{n}) does not have order {m}")
            keys.add(min((a % ord_t, b % ord_e), (-a % ord_t, -b % ord_e)))
            reps.append(OrbitRep(m, n))
    if len(keys) != len(reps):
        raise InternalError("orbit representatives collide")
    if len(reps) != count:
        raise InternalError("orbit representatives do not exhaust the isotropic classes")
    return reps


def predicted_AE(case: PolarizationCase, m: int) -> FiniteQuadraticForm:
    """The printed discriminant form of E = S-perp/S for H_S = H_m.

    Built as an integer Gram over the level a.  Split with m | k: q of the
    generators is (-1/2, -m^2/2d) = (-1/2, -1/a) on Z/2 + Z/a, a = 2d/m^2
    even.  Split otherwise: q = -(m^2 + 4d)/8d = -(a + 1)/2a on Z/a,
    a = 4d/m^2 odd.  Non-split: q = -2m^2/d = -2/a on Z/a, a = d/m^2.
    """
    pattern = _order_pattern(case, m)
    d = case.d
    if case.split and pattern == "t":
        a = 2 * d // (m * m)
        return FiniteQuadraticForm((2, a), [[-a // 2, 0], [0, -1]])
    if case.split:
        a = 4 * d // (m * m)
        gram = [[-(a + 1) // 2]]
    else:
        a = d // (m * m)
        gram = [[-2]]
    return trivial_form() if a == 1 else FiniteQuadraticForm((a,), gram)


def det_E(case: PolarizationCase, m: int) -> int:
    return (4 * case.d if case.split else case.d) // (m * m)


# ---------------------------------------------------------------------------
# one-dimensional cusps


class Candidate(namedtuple("Candidate", "roots niemeier glue_gens", defaults=(None, None))):
    """Declared root decomposition of a candidate lattice E (plus display data)."""

    __slots__ = ()


TABLE1_ROWS = (
    Candidate("2E8+2A1", "3E8"),
    Candidate("D16+2A1", "E8+D16"),
    Candidate("E8+D10", "E8+D16"),
    Candidate("E7+D10+A1", "2E7+D10"),
    Candidate("2E7+D4", "2E7+D10"),
    Candidate("A17+A1", "E7+A17"),
    Candidate("D18", "D24"),
    Candidate("D12+D6", "2D12"),
    Candidate("2A1+2D8", "3D8"),
    Candidate("A3+A15", "D9+A15"),
    Candidate("E6+A11+<-4>", "E6+D7+A11"),
    Candidate("3D6", "4D6"),
    Candidate("2A9", "D6+2A9"),
)


class OneDimRow(namedtuple(
    "OneDimRow",
    "candidate genus_ok roots_ok computed_roots o_ae im_tau classes note",
    defaults=(None,) * 5,
)):
    """One candidate's row; the counts are None when the genus does not match."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.genus_ok and self.roots_ok

    def to_obj(self, roots: str) -> dict:
        """The row as a report object, listed under ``roots``."""
        return {"roots": roots, "genus_ok": self.genus_ok, "roots_ok": self.roots_ok,
                "o_ae": self.o_ae, "im_tau": self.im_tau, "classes": self.classes,
                "conditional": True}


def total_classes(rows) -> int:
    """Sum of the (conditional) class counts of the rows that pass."""
    return sum(r.classes for r in rows if r.ok)


def _realize_candidate(case: PolarizationCase, cand: Candidate, target_form,
                       bound: int) -> OneDimRow:
    """The row of one candidate, with ``im_tau`` but without |O(A_E)|, which
    ``one_dim_cusps`` takes from the target form ``predicted_AE(case, 1)``."""
    target_det = det_E(case, 1)
    gd = glue_mod.make_glue(cand.roots)
    base_det = abs(gd.base.det)
    if gd.base.rank != 18:
        return OneDimRow(cand, False, False, note="rank is not 18")
    if base_det % target_det:
        return OneDimRow(cand, False, False, note="determinant mismatch")
    h2 = base_det // target_det
    h_order = isqrt(h2)
    if h_order * h_order != h2:
        return OneDimRow(cand, False, False, note="no glue order gives the target determinant")
    declared = glue_mod.root_system_from_spec(cand.roots)
    if cand.glue_gens is not None:
        subgroups = [fqf.subgroup_span(gd.disc, cand.glue_gens)]
    else:
        subgroups = [
            s for s in fqf.isotropic_subgroups(gd.disc, bound) if s.order == h_order
        ]
    if gd.base.signature != (0, 18):
        subgroups = []  # a finite-index overlattice has the signature of its base
    elif cand.glue_gens is not None:
        fqf.require_isotropic(subgroups[0])  # the error perp_quotient gives
    # Glues in one orbit of the tau generators give isometric overlattices,
    # so each orbit is tried once, through its least member, in the order of
    # the least members.  R(E) = R(R) exactly when the glue adds no roots,
    # which the coset minima of H decide without a Gram matrix of E; R(R) is
    # the declared system unless a <-2> summand adds a root.  So without a
    # <-2> summand the root certificate comes first, and only orbits that
    # pass it are checked for the genus: the first orbit that passes both
    # holds the first such glue.  When none does, or a <-2> summand rules
    # the certificate out, the last match is taken among the orbits not yet
    # checked for the genus: the matching orbit with the greatest member,
    # whose roots are enumerated to name them.  Im tau is computed only for
    # the returned glue.  The coset minima depend on the base only, so they
    # are built once for all its orbits, when it has any.
    certifiable = all(c.kind != "unit" or c.param != -2 for c in gd.components)
    actions = glue_mod._generator_actions(gd)
    orbits = glue_mod._glue_orbits(actions, subgroups)
    chosen, rs, unchecked = None, None, orbits
    if certifiable:
        unchecked = []
        minima = glue_mod._coset_minima(gd) if orbits else None
        for orbit in orbits:
            if glue_mod.glue_adds_roots(gd, orbit[0], minima):
                unchecked.append(orbit)
                continue
            quotient = fqf.perp_quotient(gd.disc, orbit[0])
            if fqf.are_isometric(quotient, target_form, bound)[0]:
                chosen, rs = (quotient, orbit), declared
                break
    if chosen is None:
        last = ()
        for orbit in unchecked:
            quotient = fqf.perp_quotient(gd.disc, orbit[0])
            if fqf.are_isometric(quotient, target_form, bound)[0] and max(orbit[1]) > last:
                chosen, last = (quotient, orbit), max(orbit[1])
    if chosen is None:
        return OneDimRow(cand, False, False, note="no isotropic glue realizes the target genus")
    quotient, orbit = chosen
    if rs is None:
        rs = glue_mod.root_system(glue_mod.overlattice(gd, orbit[0]))
    tau = glue_mod.image_of_tau(quotient, orbit, actions)
    return OneDimRow(cand, True, rs.components == declared.components, rs.spec_string(),
                     im_tau=tau.size)


def one_dim_cusps(
    case: PolarizationCase, candidates=None, bound: int = fqf.ENUM_BOUND
) -> list:
    """Per-candidate one-dimensional boundary data; counts are conditional.

    Candidates must be supplied except for the built-in split d = 1 list;
    genus completeness is never assumed, so the total is only a sum over
    verified rows.  Every realized row has A_E = H^perp/H isometric to
    ``predicted_AE(case, 1)``, and isometric forms have orthogonal groups
    of one order, so |O(A_E)| is counted once, on that form, when the first
    row is realized.
    """
    if case.k != 1:
        raise NotSquareFree(f"d = {case.d} is not square-free")
    if candidates is None:
        if case.split and case.d == 1:
            candidates = TABLE1_ROWS
        else:
            raise BadParameter(
                "no built-in candidate list for this case; supply candidates"
            )
    target_form = predicted_AE(case, 1)
    rows, o_ae = [], None
    for cand in candidates:
        row = _realize_candidate(case, cand, target_form, bound)
        if row.genus_ok:
            if o_ae is None:
                o_ae = len(fqf.orthogonal_group(target_form, bound))
            row = row._replace(o_ae=o_ae, classes=o_ae // row.im_tau)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# reports


class CuspReport(namedtuple("CuspReport", "case nu_result reps one_dim", defaults=(None,))):
    """Zero-dimensional cusps and, when computed, the one-dimensional rows."""

    __slots__ = ()

    def to_obj(self) -> dict:
        zero = {
            "formula": self.nu_result.formula,
            "enumerated": self.nu_result.enumerated,
            "reps": [[r.m, r.n] for r in self.reps],
        }
        obj = {
            "case": {"d": self.case.d, "embedding": self.case.embedding},
            "zero_dim": zero,
        }
        if self.one_dim is not None:
            rows = [r.to_obj(r.computed_roots or r.candidate.roots) for r in self.one_dim]
            obj["one_dim"] = {"candidates": rows, "total": total_classes(self.one_dim)}
        return obj


def zero_dim_report(case: PolarizationCase, mode: str = "both",
                    bound: int = fqf.ENUM_BOUND) -> CuspReport:
    """nu and the orbit representatives, certified by one count of the
    isotropic classes of A_N; more than ``bound`` classes raise
    ``GroupTooLarge`` before any representative is built."""
    _check_nu_mode(mode)
    model = disc_model(case)
    count = fqf.isotropic_pm1_count(model.form, bound, case.primes)
    result = NuResult(
        case,
        nu_formula(case) if mode in ("formula", "both") else None,
        count if mode in ("enumerate", "both") else None,
    )
    return CuspReport(case, result, tuple(_verified_reps(model, count, bound)))


def full_report(case: PolarizationCase, candidates=None,
                bound: int = fqf.ENUM_BOUND) -> CuspReport:
    zero = zero_dim_report(case, "both", bound)
    return zero._replace(one_dim=tuple(one_dim_cusps(case, candidates, bound)))


# ---------------------------------------------------------------------------
# the ambient lattice


def k3_square_lattice() -> Lattice:
    """The K3^[2] lattice U^3 + E8^2 + <-2>."""
    return parse_name("U+U+U+E8+E8+<-2>")
