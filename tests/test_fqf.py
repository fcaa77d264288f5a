import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import prod
from operator import mul

import pytest
from hypothesis import assume, event, given, settings, strategies as st

import group_claims
from cuspidal import cusps, fqf, glue
from cuspidal import lattice as lat
from cuspidal.exact import IntMatrix, factorize
from cuspidal.errors import GroupTooLarge, InternalError, NotIsotropic, OddLattice
from form_oracles import direct_sum_form, isotropic_by_scan, mod_pm1
from kernel_oracles import (
    generated_form_by_products, isotropic_by_filter, isotropic_pm1_count_by_forms, primary_parts,
    primary_parts_by_products, scaled_lift_dense,
)
from fraction_oracles import (
    bareiss_det, fraction_presentation, over_common_denominator, rational_inverse,
)
from helpers import (
    a_n_core, b_matrix, b_value, class_key, class_of, form_from_json, fraction_form, part_forms,
    q_diagonal, q_value, rational_lift,
)

HALF = Fraction(-1, 2)


def genus_form():
    # (Z/2)^2 with q = diag(-1/2, -1/2): the form of E8^2 + <-2>^2
    return fraction_form((2, 2), (HALF, HALF), [[0, 0], [0, 0]])


def even_grams(n_max=4):
    """Symmetric integer matrices with even diagonal, possibly singular."""

    def build(rows):
        n = len(rows)
        return [[rows[min(i, j)][max(i, j)] * (1 + (i == j)) for j in range(n)]
                for i in range(n)]

    return st.integers(1, n_max).flatmap(
        lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                           min_size=n, max_size=n)
    ).map(build)


class TestDiscriminantForm:
    @settings(deadline=None)
    @given(even_grams())
    def test_lifts_are_columns_of_g_inverse_u_inverse(self, gram):
        G = IntMatrix(gram)
        assume(bareiss_det(G) != 0)
        a = fqf.discriminant_form(lat.Lattice(G))
        src = a.source
        n = G.rows
        ginv = rational_inverse(G)
        uinv = rational_inverse(src.left)
        assert len(src.kept) == a.rank
        for i, k in enumerate(src.kept):
            unit = tuple(int(j == i) for j in range(a.rank))
            column = tuple(sum(ginv[r][c] * uinv[c][k] for c in range(n)) for r in range(n))
            assert rational_lift(a, unit) == column
            assert class_of(a, *over_common_denominator(rational_lift(a, unit))) == unit

    def test_split_d1(self):
        a = fqf.discriminant_form(lat.parse_name("U+U+E8+E8+<-2>+<-2>"))
        assert a.orders == (2, 2)
        assert all(q == Fraction(3, 2) for q in q_diagonal(a))  # -1/2 mod 2Z
        assert b_matrix(a)[0][1] == 0

    def test_unimodular_trivial(self):
        assert fqf.discriminant_form(lat.U()).cardinality == 1
        assert fqf.discriminant_form(lat.make_standard("E", 8)).cardinality == 1

    def test_b3(self):
        a = fqf.discriminant_form(lat.make_standard("B", 3))
        assert a.orders == (3,)
        assert q_diagonal(a)[0] == Fraction(-2, 3) % 2

    def test_odd_lattice_rejected(self):
        odd = lat.Lattice([[1]])
        with pytest.raises(OddLattice):
            fqf.discriminant_form(odd)

    @pytest.mark.parametrize(
        "name", ["A3", "A5", "D4", "D7", "E6", "E7", "B7", "B11", "<-4>+A2", "A2+A2"]
    )
    def test_cardinality_is_determinant(self, name):
        L = lat.parse_name(name)
        assert fqf.discriminant_form(L).cardinality == abs(L.det)

    def test_class_of_and_lift(self):
        a = fqf.discriminant_form(lat.parse_name("<-6>+<-2>"))
        t = class_of(a, (1, 0), 6)
        assert a.order_of(t) == 6
        assert class_of(a, *over_common_denominator(rational_lift(a, t))) == t
        with pytest.raises(ValueError):
            class_of(a, (1, 0), 5)


# summands whose discriminant forms the kernel tests sum: every ADE type of
# small rank and rank-1 lattices <-2k>
_FORM_ATOMS = ([f"A{n}" for n in range(1, 8)] + [f"D{n}" for n in range(4, 9)]
               + ["E6", "E7"] + [f"<-{2 * k}>" for k in range(1, 7)])


class TestIsotropic:
    def test_split_d2_only_zero(self):
        a = fqf.discriminant_form(lat.parse_name("<-4>+<-2>"))
        iso = fqf.isotropic_elements(a)
        assert iso == [a.zero]
        assert len(mod_pm1(a, iso)) == 1

    def test_split_d3_two_orbits(self):
        a = fqf.discriminant_form(lat.parse_name("<-6>+<-2>"))
        iso = fqf.isotropic_elements(a)
        assert len(iso) == 2
        assert len(mod_pm1(a, iso)) == 2

    def test_trivial_group(self):
        t = fqf.trivial_form()
        assert fqf.isotropic_elements(t) == [()]
        assert mod_pm1(t, [()]) == [()]

    def test_group_too_large(self):
        a = fqf.discriminant_form(lat.parse_name("<-6>+<-2>"))
        named = "^group of order 12 exceeds enumeration bound 5$"
        with pytest.raises(GroupTooLarge, match=named):
            fqf.isotropic_elements(a, bound=5)
        with pytest.raises(GroupTooLarge, match=named):
            fqf.are_isometric(a, a, bound=5)
        with pytest.raises(GroupTooLarge, match=named):
            fqf.orthogonal_group(a, bound=5)
        with pytest.raises(GroupTooLarge, match=named):
            group_claims.embeds(fqf.discriminant_form(lat.parse_name("<-6>")), a, bound=5)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(_FORM_ATOMS), min_size=1, max_size=4))
    def test_scan_matches_the_filter_over_elements(self, atoms):
        form = fqf.discriminant_form(lat.parse_name("+".join(atoms)))
        assert fqf.isotropic_elements(form) == isotropic_by_filter(form, fqf.ENUM_BOUND)

    def test_subgroup_walk_stops_at_the_bound(self):
        # 8A1: the walk extends each of its 902 subgroups by 72 isotropic elements
        a = fqf.discriminant_form(lat.parse_name("8A1"))
        assert len(fqf.isotropic_elements(a)) == 72
        assert len(fqf.isotropic_subgroups(a, bound=72 * 902)) == 902
        with pytest.raises(GroupTooLarge,
                           match="^isotropic subgroup search exceeds enumeration bound 64943$"):
            fqf.isotropic_subgroups(a, bound=72 * 902 - 1)

    def test_subgroups_d1(self):
        a = fqf.discriminant_form(lat.parse_name("<-2>+<-2>"))
        subs = fqf.isotropic_subgroups(a)
        assert [s.order for s in subs] == [1]

    def test_subgroups_d9(self):
        a = fqf.discriminant_form(lat.parse_name("<-18>+<-2>"))
        subs = fqf.isotropic_subgroups(a)
        assert sorted(s.order for s in subs) == [1, 3]
        h3 = [s for s in subs if s.order == 3][0]
        assert all(q_value(a, x) == 0 for x in h3.elements)

    @pytest.mark.parametrize("name", ["2A1+2D8", "3A2+<-6>"])
    def test_subgroups_match_the_definition(self, name):
        # by definition: the spans of isotropic elements on which q vanishes
        # everywhere; |H|^2 divides |A|, so H needs at most log2 sqrt|A| generators
        a = fqf.discriminant_form(lat.parse_name(name))
        iso = [x for x in a.elements() if q_value(a, x) == 0]
        most = (a.cardinality.bit_length() - 1) // 2
        expected = set()
        for k in range(most + 1):
            for gens in itertools.combinations(iso, k):
                span = {a.zero}
                for g in gens:
                    span = {a.add(x, a.smul(c, g)) for x in span for c in range(a.order_of(g))}
                if all(q_value(a, x) == 0 for x in span):
                    expected.add(tuple(sorted(span)))
        walked = [s.elements for s in fqf.isotropic_subgroups(a)]
        assert len(walked) == len(set(walked))
        assert set(walked) == expected


ATOM_FORMS = (
    [fqf.discriminant_form(lat.make_standard("A", n)) for n in range(1, 8)]
    + [fqf.discriminant_form(lat.make_standard("D", n)) for n in range(4, 9)]
    + [fqf.discriminant_form(lat.make_standard("rank1", -2 * k)) for k in range(1, 9)]
)


def _isotropic_subgroups_by_closure(a, iso):
    """Every span of a set of the isotropic elements ``iso`` on which q vanishes.

    A subgroup generated by isotropic elements is reached by adding them
    one at a time, and each subgroup on the way is isotropic when the last
    one is, so closing {0} under "add one isotropic element, keep the span
    if q vanishes on all of it" closes every subset.  Spans are closed under
    addition and q is tested element by element: no bilinear test and no
    canonical generators.  e + h spans with H what e does, for h in H, so
    one element per coset of H is added."""
    found = {frozenset([a.zero])}
    frontier = list(found)
    while frontier:
        nxt = []
        for h in frontier:
            tried = set(h)
            for e in iso:
                if e in tried:
                    continue
                tried.update(a.add(e, x) for x in h)
                span = set(h)
                while True:
                    bigger = span | {a.add(x, e) for x in span}
                    if bigger == span:
                        break
                    span = bigger
                span = frozenset(span)
                if span not in found and all(q_value(a, x) == 0 for x in span):
                    found.add(span)
                    nxt.append(span)
        frontier = nxt
    return {tuple(sorted(h)) for h in found}


def _forms_of_order_at_most_256(picks):
    """The sum of the atoms in ``picks`` up to the last one that keeps |A| <= 256."""
    forms = [ATOM_FORMS[picks[0]]]
    for i in picks[1:]:
        if prod(f.cardinality for f in forms) * ATOM_FORMS[i].cardinality > 256:
            break
        forms.append(ATOM_FORMS[i])
    return direct_sum_form(*forms)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.sampled_from(range(len(ATOM_FORMS))), min_size=1, max_size=4)
       .map(_forms_of_order_at_most_256))
def test_isotropic_subgroups_match_the_closure_of_every_subset(a):
    # 4D4, (Z/2)^8 with 136 isotropic elements and 4006 isotropic
    # subgroups, takes the oracle some 17 s; the walk is checked on 8A1 by
    # its count (test_subgroup_walk_stops_at_the_bound)
    iso = [x for x in a.elements() if q_value(a, x) == 0]
    assume(len(iso) <= 100)
    walked = [s.elements for s in fqf.isotropic_subgroups(a)]
    assert walked == sorted(walked, key=lambda e: (len(e), e))
    assert len(walked) == len(set(walked))
    assert set(walked) == _isotropic_subgroups_by_closure(a, iso)


def _brute_span(a, gens):
    """The closure of {0} under adding the reduced generators."""
    gens = [a.reduce(g) for g in gens]
    span = {a.zero}
    while True:
        bigger = span | {a.add(x, g) for x in span for g in gens}
        if bigger == span:
            return span
        span = bigger


def _assert_canonical(a, sub):
    # the generators are greedy: each is the least element outside the span
    # of the ones before it, and together they span the group
    assert sub.elements == tuple(sorted(sub.elements))
    kept = []
    for g in sub.generators:
        spanned = _brute_span(a, kept)
        assert g == min(x for x in sub.elements if x not in spanned)
        kept.append(g)
    assert _brute_span(a, kept) == set(sub.elements)


class TestCanonicalGenerators:
    NAMES = ["<-18>+<-2>", "3A2+<-6>", "2A1+2D8", "4A3"]

    @pytest.mark.parametrize("name", NAMES)
    def test_span_of_random_generators(self, name):
        a = fqf.discriminant_form(lat.parse_name(name))
        rng = random.Random(name)
        for _ in range(40):
            gens = [tuple(rng.randrange(-d, 2 * d) for d in a.orders)
                    for _ in range(rng.randrange(4))]
            sub = fqf.subgroup_span(a, gens)
            assert set(sub.elements) == _brute_span(a, gens)
            _assert_canonical(a, sub)

    @pytest.mark.parametrize("name", NAMES)
    def test_isotropic_subgroups_carry_canonical_generators(self, name):
        a = fqf.discriminant_form(lat.parse_name(name))
        subs = fqf.isotropic_subgroups(a)
        assert len(subs) > 1
        for sub in subs:
            _assert_canonical(a, sub)
            assert fqf.subgroup_span(a, sub.generators) == sub


class TestPerpQuotient:
    def test_trivial_subgroup_gives_same_form(self):
        a = fqf.discriminant_form(lat.parse_name("<-18>+<-2>"))
        q = fqf.perp_quotient(a, fqf.trivial_subgroup(a))
        assert fqf.are_isometric(q, a)[0]

    def test_split_corollary_shape(self):
        # d = 9, H_3: quotient is Z/2 + Z/2 with q = diag(-1/2, -1/2)
        a = fqf.discriminant_form(lat.parse_name("<-18>+<-2>"))
        h3 = [s for s in fqf.isotropic_subgroups(a) if s.order == 3][0]
        q = fqf.perp_quotient(a, h3)
        assert fqf.are_isometric(q, genus_form())[0]

    def test_order_identity(self):
        for name in ("<-18>+<-2>", "<-32>+<-2>", "A3+A3", "<-50>+<-2>"):
            a = fqf.discriminant_form(lat.parse_name(name))
            for s in fqf.isotropic_subgroups(a):
                q = fqf.perp_quotient(a, s)
                assert q.cardinality * s.order**2 == a.cardinality

    def test_non_isotropic_rejected(self):
        a = fqf.discriminant_form(lat.parse_name("<-2>+<-2>"))
        bad = fqf.subgroup_span(a, [(1, 0)])
        with pytest.raises(NotIsotropic):
            fqf.perp_quotient(a, bad)

    def test_projection_consistency(self):
        a = fqf.discriminant_form(lat.parse_name("<-18>+<-2>"))
        h3 = [s for s in fqf.isotropic_subgroups(a) if s.order == 3][0]
        q = fqf.perp_quotient(a, h3)
        # every element of H projects to zero
        for h in h3.elements:
            assert fqf.project_to_quotient(q, h) == q.zero


class TestIsometryAndGroups:
    def test_d18_is_in_the_genus(self):
        a = fqf.discriminant_form(lat.make_standard("D", 18))
        ok, witness = fqf.are_isometric(a, genus_form())
        assert ok and witness is not None

    def test_sign_distinguishes(self):
        f1 = fraction_form((2,), (HALF,), [[0]])
        f2 = fraction_form((2,), (Fraction(1, 2),), [[0]])
        assert fqf.are_isometric(f1, f2) == (False, None)

    def test_self_isometry_identity_witness(self):
        a = fqf.discriminant_form(lat.make_standard("B", 7))
        ok, witness = fqf.are_isometric(a, a)
        assert ok
        assert fqf.apply_map(a, witness, (1,)) in [(1,), a.smul(-1, (1,))]

    def test_equivalence_relation(self):
        pool = [
            fqf.discriminant_form(lat.parse_name(n))
            for n in ("D18", "<-2>+<-2>", "B3", "A2", "<-6>+<-2>", "A1+A1")
        ]
        pool.append(genus_form())
        for a in pool:
            assert fqf.are_isometric(a, a)[0]
        for a in pool:
            for b in pool:
                ab = fqf.are_isometric(a, b)[0]
                assert ab == fqf.are_isometric(b, a)[0]
        for a in pool:
            for b in pool:
                for c in pool:
                    if fqf.are_isometric(a, b)[0] and fqf.are_isometric(b, c)[0]:
                        assert fqf.are_isometric(a, c)[0]

    def test_orthogonal_group_of_genus_form(self):
        og = fqf.orthogonal_group(genus_form())
        assert len(og) == 2

    def test_orthogonal_group_trivial(self):
        assert fqf.orthogonal_group(fqf.trivial_form()) == [()]

    def test_embeds(self):
        a = fqf.discriminant_form(lat.parse_name("U+U+E8+E8+<-2>+<-2>"))
        small = fraction_form((2,), (HALF,), [[0]])
        assert group_claims.embeds(small, a)
        wrong = fraction_form((2,), (Fraction(1, 2),), [[0]])
        assert not group_claims.embeds(wrong, a)

    def test_direct_sum_matches_lattice_sum(self):
        for n1, n2 in (("A2", "<-4>"), ("B3", "A1"), ("D5", "A3")):
            l1, l2 = lat.parse_name(n1), lat.parse_name(n2)
            ds = direct_sum_form(
                fqf.discriminant_form(l1), fqf.discriminant_form(l2)
            )
            joint = fqf.discriminant_form(lat.direct_sum(l1, l2))
            assert fqf.are_isometric(ds, joint)[0]


def _fold_apply_map(form, images, x):
    """A map evaluated as a fold of add and smul over the reduced coordinates."""
    out = form.zero
    for a, img in zip(form.reduce(x), images):
        out = form.add(out, form.smul(a, img))
    return out


@st.composite
def maps_and_points(draw):
    """A form on a random invariant-factor chain, a homomorphism of it given
    by generator images, and points with unreduced and negative coordinates."""
    orders = [draw(st.integers(2, 6))]
    for _ in range(draw(st.integers(0, 3))):
        orders.append(orders[-1] * draw(st.integers(1, 3)))
    r, level = len(orders), orders[-1]
    form = fqf.FiniteQuadraticForm(orders, [[0] * r for _ in range(r)])
    # (level / d_j) y has order dividing d_j, so e_j -> it is a homomorphism
    images = tuple(
        form.smul(level // d, draw(st.tuples(*(st.integers(0, e - 1) for e in orders))))
        for d in orders
    )
    coords = st.integers(-3 * level, 3 * level)
    points = draw(st.lists(st.tuples(*([coords] * r)), min_size=1, max_size=8))
    return form, images, points


@settings(deadline=None, max_examples=200)
@given(maps_and_points())
def test_apply_map_matches_the_add_smul_fold(data):
    form, images, points = data
    for x in points:
        assert fqf.apply_map(form, images, x) == _fold_apply_map(form, images, x)


def test_apply_map_matches_the_fold_on_isometries():
    a = fqf.discriminant_form(lat.parse_name("2A1+2D8"))
    for f in fqf.orthogonal_group(a)[:50]:
        for x in [(1, -1, 3, 2), (-3, 5, -1, 0), (2, 2, 2, 2)]:
            assert fqf.apply_map(a, f, x) == _fold_apply_map(a, f, x)


class TestJson:
    def test_round_trip(self):
        a = fqf.discriminant_form(lat.parse_name("<-6>+<-2>"))
        text = json.dumps(fqf.form_to_obj(a))
        back = form_from_json(text)
        assert back.orders == a.orders and q_diagonal(back) == q_diagonal(a)
        assert b_matrix(back) == b_matrix(a)

    def test_symmetric_representatives(self):
        obj = fqf.form_to_obj(genus_form())
        assert obj["q"] == ["-1/2", "-1/2"]

    def test_repr_prints_q_of_the_generators_in_zero_to_two(self):
        a = fqf.discriminant_form(lat.parse_name("A1+A2+<-4>"))
        assert repr(a) == "FiniteQuadraticForm(orders=[2, 12], q=[1/2, 7/12])"
        assert repr(fqf.trivial_form()) == "FiniteQuadraticForm(orders=[], q=[])"


# ---------------------------------------------------------------------------
# rational reference: the Fraction presentation the integer Gram replaces


def _mod2(x) -> Fraction:
    return Fraction(x) % 2


def _mod1(x) -> Fraction:
    return Fraction(x) % 1


def _q_sum(qdiag, bmat, x) -> Fraction:
    """sum_i x_i^2 q_i + 2 sum_{i<j} x_i x_j b_ij, not reduced mod 2."""
    total = Fraction(0)
    for i, a in enumerate(x):
        if a:
            total += a * a * qdiag[i]
            row = bmat[i]
            for j in range(i + 1, len(x)):
                if x[j]:
                    total += 2 * a * x[j] * row[j]
    return total


def _b_sum(bmat, x, y) -> Fraction:
    """sum_ij x_i y_j b_ij, not reduced mod 1."""
    total = Fraction(0)
    for i, a in enumerate(x):
        if a:
            row = bmat[i]
            for j, c in enumerate(y):
                if c:
                    total += a * c * row[j]
    return total


def _presentation_or_none(orders, qdiag, bmat):
    try:
        return fraction_presentation(orders, qdiag, bmat)
    except ValueError:
        return None


def _form_or_none(orders, qdiag, bmat):
    try:
        return fraction_form(orders, qdiag, bmat)
    except ValueError:
        return None


@st.composite
def form_inputs(draw):
    """(orders, qdiag, bmat), valid often enough to exercise both branches."""
    r = draw(st.integers(0, 3))
    orders = []
    d = draw(st.sampled_from([1, 2, 3, 4, 6]))
    for _ in range(r):
        orders.append(d)
        d *= draw(st.sampled_from([1, 1, 2, 3]))
    if r > 1 and draw(st.integers(0, 9)) == 0:
        orders[0], orders[-1] = orders[-1], orders[0]

    def value(den_choices):
        return Fraction(draw(st.integers(-24, 24)), draw(st.sampled_from(den_choices)))

    qdiag = [value([1, max(o, 1), max(o, 1), 2 * max(o, 1), 5]) for o in orders]
    bmat = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        bmat[i][i] = value([1, 7])  # never read
        for j in range(i + 1, r):
            bmat[i][j] = value([1, max(orders[i], 1), max(orders[j], 1), 4])
            if draw(st.integers(0, 4)):
                bmat[j][i] = bmat[i][j] + draw(st.integers(-2, 2))
            else:
                bmat[j][i] = value([1, 2, 3])
    return orders, qdiag, bmat


class TestIntegerGramAgainstFractions:
    @settings(deadline=None, max_examples=300)
    @given(form_inputs(), st.data())
    def test_constructor_and_values_match_fraction_sums(self, inputs, data):
        old = _presentation_or_none(*inputs)
        if old is None:
            return
        form = fraction_form(*inputs)
        orders, qdiag, bmat = old
        assert (form.orders, q_diagonal(form), b_matrix(form)) == old
        assert form.level == (orders[-1] if orders else 1)
        elems = st.lists(st.integers(-50, 50), min_size=form.rank, max_size=form.rank)
        for _ in range(5):
            x, y = data.draw(elems), data.draw(elems)
            rx, ry = form.reduce(x), form.reduce(y)
            assert Fraction(form.q_scaled(rx), form.level) == _mod2(_q_sum(qdiag, bmat, rx))
            assert (Fraction(form.gram.bilinear(rx, ry) % form.level, form.level)
                    == _mod1(_b_sum(bmat, rx, ry)))

    @settings(deadline=None, max_examples=200)
    @given(form_inputs(), st.data())
    def test_equality_and_hash_follow_the_fraction_presentation(self, inputs, data):
        orders, qdiag, bmat = inputs
        shifted_q = [x + 2 * data.draw(st.integers(-2, 2)) for x in qdiag]
        if qdiag and data.draw(st.booleans()):
            shifted_q[0] += data.draw(st.sampled_from([1, Fraction(1, 2), Fraction(1, 3)]))
        shifted_b = [[x + data.draw(st.integers(-2, 2)) for x in row] for row in bmat]
        pairs = [(inputs, (orders, shifted_q, shifted_b)), (inputs, data.draw(form_inputs()))]
        for one, two in pairs:
            old1, old2 = _presentation_or_none(*one), _presentation_or_none(*two)
            f1, f2 = _form_or_none(*one), _form_or_none(*two)
            if old1 is None or old2 is None:
                continue
            assert (f1 == f2) == (old1 == old2)
            if f1 == f2:
                assert hash(f1) == hash(f2)

    @settings(deadline=None)
    @given(even_grams(), st.data())
    def test_discriminant_values_are_bilinears_of_lifts(self, gram, data):
        G = IntMatrix(gram)
        assume(bareiss_det(G) != 0)
        a = fqf.discriminant_form(lat.Lattice(G))
        lifts = [rational_lift(a, tuple(int(j == i) for j in range(a.rank)))
                 for i in range(a.rank)]
        for i in range(a.rank):
            assert q_diagonal(a)[i] == G.bilinear(lifts[i], lifts[i]) % 2
            for j in range(a.rank):
                assert b_matrix(a)[i][j] == G.bilinear(lifts[i], lifts[j]) % 1
        x = data.draw(st.lists(st.integers(-9, 9), min_size=a.rank, max_size=a.rank))
        assert q_value(a, x) == G.bilinear(rational_lift(a, x), rational_lift(a, x)) % 2
        scaled = a.source.scaled_lift(a.reduce(x), a.level)
        assert scaled == tuple(a.level * v for v in rational_lift(a, x))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(_FORM_ATOMS), min_size=1, max_size=4), st.data())
    def test_scaled_lift_matches_the_dense_product(self, atoms, data):
        a = fqf.discriminant_form(lat.parse_name("+".join(atoms)))
        x = a.reduce(data.draw(st.lists(st.integers(0, 99), min_size=a.rank,
                                        max_size=a.rank)))
        level = a.level * data.draw(st.integers(1, 3))
        assert a.source.scaled_lift(x, level) == scaled_lift_dense(a.source, x, level)

    @pytest.mark.parametrize("names", [("A2", "<-4>"), ("B3", "A1", "D5"), ("E6", "A3")])
    def test_direct_sum_values_match_fraction_sums(self, names):
        forms = [fqf.discriminant_form(lat.parse_name(n)) for n in names]
        qdiag = [x for f in forms for x in q_diagonal(f)]
        m = len(qdiag)
        bmat = [[Fraction(0)] * m for _ in range(m)]
        off = 0
        for f in forms:
            for i, row in enumerate(b_matrix(f)):
                bmat[off + i][off:off + f.rank] = row
            off += f.rank
        # the generators of the sum as rows in the concatenated coordinates
        orders = [d for f in forms for d in f.orders]
        rq = fqf._row_quotient(IntMatrix.identity(m), IntMatrix.diagonal(orders))
        rows = [rq.generator_rows.data[i] for i, d in enumerate(rq.orders) if d > 1]
        ds = direct_sum_form(*forms)
        assert q_diagonal(ds) == tuple(_mod2(_q_sum(qdiag, bmat, r)) for r in rows)
        assert b_matrix(ds) == tuple(tuple(_mod1(_b_sum(bmat, r, s)) for s in rows) for r in rows)

    def test_perp_quotient_values_are_parent_values_of_lifts(self):
        a = fqf.discriminant_form(lat.parse_name("2A1+2D8"))
        for sub in fqf.isotropic_subgroups(a):
            pq = fqf.perp_quotient(a, sub)
            lifts = pq.source.generator_lifts
            for i, x in enumerate(lifts):
                assert q_diagonal(pq)[i] == q_value(a, x)
                assert all(b_matrix(pq)[i][j] == b_value(a, x, y) for j, y in enumerate(lifts))


# ---------------------------------------------------------------------------
# forms generated by rows, without matrix products, against the products

_SUM_ATOMS = st.one_of(st.sampled_from(_FORM_ATOMS),
                       st.integers(1, 500).map(lambda m: f"<-{2 * m}>"))


def _atom_sums(max_atoms):
    """Lattices that are sums of A1-A7, D4-D8, E6, E7 and <-2m>."""
    return st.lists(_SUM_ATOMS, min_size=1, max_size=max_atoms).map(
        lambda atoms: lat.parse_name("+".join(atoms)))


# the core lattice of A_N: <-2d> + <-2> split, B_d non-split
_A_N_CASES = st.one_of(
    st.integers(1, 10**6).map(lambda d: cusps.PolarizationCase(d, "split")),
    st.integers(0, 10**6).map(lambda j: cusps.PolarizationCase(4 * j + 3, "nonsplit")),
)
_A_N_CORES = _A_N_CASES.map(a_n_core)


def _generator_rows(L):
    """The Gram of L, the level N^2, the rows (N times the generator lifts),
    the orders and the Smith provenance from which ``discriminant_form``
    generates A_L."""
    src = fqf.LatticeSource.of(L)
    orders = tuple(src.smith.diag[k] for k in src.kept)
    level = orders[-1] if orders else 1
    units = [tuple(int(j == i) for j in range(len(orders))) for i in range(len(orders))]
    return L.gram, level * level, [src.scaled_lift(u, level) for u in units], orders, src


class TestFormsWithoutProducts:
    def _check(self, L, primes=None):
        gram, level, rows, orders, src = _generator_rows(L)
        form = fqf._generated_form(gram, level, rows, orders, src)
        assert form == generated_form_by_products(gram, level, rows, orders, src)
        assert form == fqf.discriminant_form(L)
        assert part_forms(form, primes) == primary_parts_by_products(form, primes)

    @settings(deadline=None, max_examples=80)
    @given(_atom_sums(4))
    def test_atom_sums_match_the_triple_product(self, L):
        self._check(L)

    @settings(deadline=None, max_examples=80)
    @given(_A_N_CASES)
    def test_a_n_matches_the_triple_product(self, case):
        L = a_n_core(case)
        self._check(L)
        self._check(L, case.primes)

    @pytest.mark.parametrize("gram, level, orders", [
        ([[1]], 4, (2,)),  # the value 1 over 4 is not a multiple of 4 / 2
        ([[2]], 6, (4,)),  # the new level 4 does not divide 6
        ([[2, 1], [1, 2]], 4, (2, 2)),  # an off-diagonal value 1 over 4
        ([[2, 0], [0, 1]], 4, (2, 2)),  # the last diagonal value 1 over 4
    ])
    def test_values_off_the_new_level_raise_the_same_error(self, gram, level, orders):
        rows = IntMatrix.identity(len(gram)).data
        for build in (fqf._generated_form, generated_form_by_products):
            with pytest.raises(InternalError, match="do not lie over the new level"):
                build(IntMatrix(gram), level, rows, orders)

    def test_a_missed_prime_raises_the_same_error(self):
        form = fqf.discriminant_form(lat.Lattice(IntMatrix([[24]])))  # Z/8 + Z/3
        for parts in (part_forms, primary_parts_by_products):
            with pytest.raises(InternalError, match="miss a prime"):
                parts(form, (2, 5))


class TestClassKeyAgainstRationalCoordinates:
    """``helpers.class_key`` against G^-1 over Q: the dual vectors
    G^-1 p and G^-1 p' share a class exactly when G^-1 (p - p') is
    integral."""

    @settings(deadline=None, max_examples=120)
    @given(st.one_of(_atom_sums(3), _A_N_CORES), st.data())
    def test_pairings_share_a_class_exactly_when_their_difference_is_in_the_lattice(
            self, L, data):
        src = fqf.LatticeSource.of(L)
        G, n = L.gram, L.rank
        vectors = st.lists(st.integers(-60, 60), min_size=n, max_size=n)
        p = data.draw(vectors)
        # p' = p + G z + w: the same class when w = 0, and a random one, near
        # or far, otherwise
        w = data.draw(st.one_of(st.just([0] * n), vectors,
                                st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
        p2 = [a + b + c for a, b, c in zip(p, G.apply(data.draw(vectors)), w)]
        ginv = rational_inverse(G)
        diff = [a - b for a, b in zip(p, p2)]
        integral = all(sum(map(mul, row, diff)).denominator == 1 for row in ginv)
        assert (class_key(src, p) == class_key(src, p2)) == integral
        assert len(class_key(src, p)) == len(src.kept)

    @settings(deadline=None, max_examples=60)
    @given(st.one_of(_atom_sums(3), _A_N_CORES))
    def test_each_generator_lift_maps_to_its_unit_class(self, L):
        src = fqf.LatticeSource.of(L)
        orders = [src.smith.diag[k] for k in src.kept]
        ginv = rational_inverse(L.gram)
        for i, d in enumerate(orders):
            unit = tuple(int(j == i) for j in range(len(orders)))
            lift = [Fraction(x, d) for x in src.scaled_lift(unit, d)]
            # the lift v is a dual vector: p = G v is integral, and G^-1 p over Q
            # gives v back
            pairings = [sum(map(mul, L.gram.data[r], lift)) for r in range(L.rank)]
            assert all(x.denominator == 1 for x in pairings)
            assert [sum(map(mul, row, pairings)) for row in ginv] == lift
            assert class_key(src, [int(x) for x in pairings]) == unit


# ---------------------------------------------------------------------------
# p-primary parts against the whole group


def _lattice_form(gram):
    G = IntMatrix(gram)
    return fqf.discriminant_form(lat.Lattice(G)) if bareiss_det(G) != 0 else None


ROOT_TERMS = ["A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6", "E7", "<-4>", "<-6>"]

small_forms = st.one_of(
    even_grams(3).map(_lattice_form),
    form_inputs().map(lambda inputs: _form_or_none(*inputs)),
    st.lists(st.sampled_from(ROOT_TERMS), min_size=1, max_size=3).map(
        lambda terms: glue.make_glue("+".join(terms)).disc
    ),
)


class TestRequireIsotropic:
    @settings(deadline=None, max_examples=150)
    @given(st.lists(st.sampled_from(ROOT_TERMS), min_size=1, max_size=2), st.data())
    def test_generators_decide_as_the_element_scan(self, pool, data):
        # spans of isotropic elements, isotropic or not, and of any elements,
        # each by its canonical generators and by the drawn ones, which pair
        # to nonzero more often (sums that repeat a term, as 2D4 does)
        terms = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
        form = glue.make_glue("+".join(terms)).disc
        elems = (fqf.isotropic_elements(form) if data.draw(st.booleans())
                 else list(form.elements()))
        gens = tuple(data.draw(st.lists(st.sampled_from(elems), max_size=3)))
        sub = fqf.subgroup_span(form, gens)
        isotropic = isotropic_by_scan(sub)
        event(f"isotropic: {isotropic}")
        for generated in (sub, sub._replace(generators=gens)):
            if isotropic:
                fqf.require_isotropic(generated)
            else:
                with pytest.raises(NotIsotropic, match="^glue is not isotropic$"):
                    fqf.require_isotropic(generated, "glue")

    def test_no_element_is_read(self):
        class Unlisted(fqf.FqfSubgroup):
            __slots__ = ()

            @property
            def elements(self):
                raise AssertionError("the elements were read")

        form = fqf.discriminant_form(lat.parse_name("D4+D4"))
        for sub in fqf.isotropic_subgroups(form)[-3:]:
            fqf.require_isotropic(Unlisted(form, None, sub.generators))
        # both generators are isotropic, but they pair to 1/2
        bad = fqf.subgroup_span(form, [(0, 1, 0, 1), (1, 0, 0, 1)])
        assert bad.generators == ((0, 1, 0, 1), (1, 0, 0, 1))
        with pytest.raises(NotIsotropic):
            fqf.require_isotropic(Unlisted(form, None, bad.generators))


class TestPrimaryParts:
    @settings(deadline=None, max_examples=150)
    @given(small_forms)
    def test_parts_rebuild_the_form_and_count_its_isotropic_classes(self, form):
        assume(form is not None and form.cardinality <= 400)
        parts = part_forms(form)
        assert set(parts) == set(factorize(form.cardinality))
        assert all(set(factorize(part.cardinality)) == {p} for p, part in parts.items())
        assert prod(part.cardinality for part in parts.values()) == form.cardinality
        assert fqf.are_isometric(direct_sum_form(*parts.values()), form)[0]
        whole = mod_pm1(form, fqf.isotropic_elements(form))
        assert fqf.isotropic_pm1_count(form) == len(whole)

    def test_given_primes_may_exceed_the_level_but_not_miss_a_prime(self):
        form = fqf.discriminant_form(lat.Lattice(IntMatrix([[24]])))  # Z/8 + Z/3
        parts = part_forms(form)
        assert part_forms(form, (7, 2, 5, 3)) == parts
        assert fqf.isotropic_pm1_count(form, primes=(2, 3, 5)) == fqf.isotropic_pm1_count(form)
        with pytest.raises(InternalError, match="miss a prime"):
            part_forms(form, (2, 5))

    def test_bound_caps_each_part_and_names_it(self):
        # (Z/2)^3 with q = (1/2, 3/2, 0): the cofactor (Z/2)^2 of the last
        # coordinate is scanned; (0, 0, *) and (1, 1, *) are isotropic
        half = Fraction(1, 2)
        form = fraction_form((2, 2, 2), (half, 3 * half, 0), [[0] * 3] * 3)
        assert fqf.isotropic_pm1_count(form, bound=4) == fqf.isotropic_pm1_count(form) == 4
        with pytest.raises(GroupTooLarge, match="^2-part of order 8: cofactor of order 4 "
                                                "exceeds enumeration bound 3$"):
            fqf.isotropic_pm1_count(form, bound=3)
        # cyclic parts scan nothing, whatever their order
        cyclic = fqf.discriminant_form(lat.Lattice(IntMatrix([[24]])))  # Z/8 + Z/3
        assert fqf.isotropic_pm1_count(cyclic, bound=1) == fqf.isotropic_pm1_count(cyclic)


class TestCountAgainstOneFormPerPart:
    """``fqf.isotropic_pm1_count`` on the integer p-parts against the same
    count on one ``FiniteQuadraticForm`` per p-part (``kernel_oracles``)."""

    def _check(self, form, primes=None, bound=fqf.ENUM_BOUND):
        """Equal parts, and the same count or the same GroupTooLarge text."""
        assert part_forms(form, primes) == primary_parts(form, primes)
        outcomes = []
        for count in (fqf.isotropic_pm1_count, isotropic_pm1_count_by_forms):
            try:
                outcomes.append(count(form, bound, primes))
            except GroupTooLarge as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    @settings(deadline=None, max_examples=100)
    @given(st.one_of(_atom_sums(4), _A_N_CORES))
    def test_forms_with_several_primes_and_a_non_cyclic_part(self, L):
        form = fqf.discriminant_form(L)
        parts = part_forms(form)
        assume(len(parts) >= 2 and any(part.rank > 1 for part in parts.values()))
        # a small bound keeps each scan short; past it both name the same part
        event("counted" if isinstance(self._check(form, bound=2000), int) else "bounded")

    @settings(deadline=None, max_examples=100)
    @given(st.one_of(
        st.integers(1, 10**12).map(lambda d: cusps.PolarizationCase(d, "split")),
        st.integers(0, (10**12 - 3) // 4).map(
            lambda j: cusps.PolarizationCase(4 * j + 3, "nonsplit")),
    ))
    def test_a_n_up_to_d_of_ten_to_the_twelve(self, case):
        # far past any scan of the group: the split A_N has order 4d
        form = cusps.disc_model(case).form
        assert self._check(form, case.primes) == self._check(form) == cusps.nu_formula(case)


class TestLastCoordinate:
    def test_count_matches_brute_force_on_every_congruence(self):
        # every (a, b, c) mod 2N for which a x^2 + 2 b x + c mod 2N is a
        # function on Z/N (a N even), non-unit a and b != 0 among them
        for p, e in ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
                     (5, 1), (5, 2), (7, 1), (7, 2)):
            n = p**e
            m = 2 * n
            for a in range(0, m, 1 if n % 2 == 0 else 2):
                for b in range(m):
                    hits = Counter((a * x * x + 2 * b * x) % m for x in range(n))
                    for c in range(m):
                        got = fqf._last_coordinate_count(a, b, c, p, n)
                        assert got == hits[-c % m], (n, a, b, c)

    @pytest.mark.parametrize("p", [1000000000039, 2**61 - 1])
    def test_large_primes_use_euler_and_hensel(self, p):
        # p = 3 mod 4, so -1 is not a square mod p
        assert p % 4 == 3
        assert fqf._root_count(1, 0, 1, p, p) == 0
        assert fqf._root_count(1, 0, -4, p, p) == 2
        assert fqf._root_count(3, 6, 3, p, p) == 1  # 3 (x + 1)^2, a double root
        assert fqf._root_count(1, 0, 0, p, p**3) == p  # x = 0 mod p^2
        assert fqf._root_count(p, 1, 1, p, p**2) == 1  # a simple root lifts once
