import itertools
import json
import random
from fractions import Fraction
from math import isqrt, prod
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import group_claims
from cuspidal import cusps, fqf, glue
from cuspidal import lattice as lat
from cuspidal.errors import BadParameter, InternalError
from cuspidal.exact import (
    apply, bilinear, integral_gram_schmidt, lll_reduce, matmul, scaled, smith_normal_form,
)
import helpers
from fraction_oracles import bareiss_det, over_common_denominator, rational_inverse
from kernel_oracles import check_signed_permutation_by_product
from helpers import (
    class_key, class_of, fraction_form, q_value, rational_lift, signed_permutation,
    tau_generator_isometries, tau_image,
)

HALF = Fraction(-1, 2)


def genus_form():
    return fraction_form((2, 2), (HALF, HALF), [[0, 0], [0, 0]])


def glue_choices(spec, order):
    gd = glue.make_glue(spec)
    return gd, [s for s in fqf.isotropic_subgroups(gd.disc) if s.order == order]


class TestOverlattice:
    def test_trivial_glue_is_identity(self):
        gd = glue.make_glue("2E8+2A1")
        over = glue.overlattice(gd, fqf.trivial_subgroup(gd.disc))
        assert over.det == gd.base.det == 4
        assert over.gram == gd.base.gram

    def test_a3_a15_row(self):
        gd, subs = glue_choices("A3+A15", 4)
        assert subs, "an order-4 isotropic subgroup must exist"
        hit = None
        for s in subs:
            q = fqf.perp_quotient(gd.disc, s)[0]
            if not fqf.are_isometric(q, genus_form())[0]:
                continue
            over = glue.overlattice(gd, s)
            assert over.det == 4
            rs = glue.root_system(over)
            if rs.components == glue.root_system_from_spec("A3+A15").components:
                hit = over
                break
        assert hit is not None

    def test_d18_already_in_genus(self):
        gd = glue.make_glue("D18")
        assert fqf.are_isometric(fqf.discriminant_form(gd.base)[0], genus_form())[0]

    def test_determinant_identity_and_brieskorn(self):
        for spec in ("A3+A1", "2A2", "D4+A1", "A5+A1", "<-4>+A2+A2"):
            gd = glue.make_glue(spec)
            for s in fqf.isotropic_subgroups(gd.disc):
                over = glue.overlattice(gd, s)
                assert over.det * s.order**2 == gd.base.det
                disc_over = fqf.discriminant_form(over)[0]
                pq = fqf.perp_quotient(gd.disc, s)[0]
                assert fqf.are_isometric(disc_over, pq)[0]
                # index of the base inside the overlattice equals |H|
                M = helpers.base_in_overlattice(gd, s)
                assert prod(smith_normal_form(M).diag) == s.order
                # the base Gram is recovered through the inclusion
                assert matmul(matmul(M, over.gram), tuple(zip(*M))) == gd.base.gram

    def test_non_isotropic_rejected(self):
        gd = glue.make_glue("A1+A1")
        bad = fqf.subgroup_span(gd.disc, [(1, 0)])
        with pytest.raises(BadParameter, match="^glue subgroup is not isotropic$"):
            glue.overlattice(gd, bad)
        with pytest.raises(BadParameter, match="^glue subgroup is not isotropic$"):
            helpers.adds_roots(gd, bad)

    def test_glue_of_another_form_rejected(self):
        gd = glue.make_glue("A1+A1")
        other = fqf.trivial_subgroup(glue.make_glue("A3").disc)
        for call in (glue.overlattice, helpers.adds_roots):
            with pytest.raises(BadParameter, match="does not live in the base discriminant"):
                call(gd, other)


class TestShortVectors:
    def test_a1(self):
        assert len(glue.short_vectors(lat.make_standard("A", 1), -2)) == 1

    def test_e8_roots(self):
        assert len(glue.short_vectors(lat.make_standard("E", 8), -2)) == 120

    def test_d18_roots(self):
        # closed form 2 h (h-1) = 612 roots, 306 sign classes
        assert len(glue.short_vectors(lat.make_standard("D", 18), -2)) == 306

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_a_k_closed_form(self, k):
        assert len(glue.short_vectors(lat.make_standard("A", k), -2)) == k * (k + 1) // 2

    @pytest.mark.parametrize("h", [4, 5, 6])
    def test_d_h_closed_form(self, h):
        assert len(glue.short_vectors(lat.make_standard("D", h), -2)) == h * (h - 1)

    def test_norm_minus_four(self):
        assert glue.short_vectors(lat.rank1(-4), -4) == [(1,)]
        assert glue.short_vectors(lat.rank1(-4), -2) == []

    def test_indefinite_rejected(self):
        with pytest.raises(BadParameter,
                           match="^short vector enumeration needs a negative definite lattice$"):
            glue.short_vectors(lat.U(), -2)

    def test_closed_under_weyl_reflection(self):
        L = lat.make_standard("A", 3)
        roots = glue.short_vectors(L, -2)
        coords = set(roots) | {tuple(-x for x in v) for v in roots}
        rho = group_claims.reflection(L, roots[0])
        for v in roots:
            assert apply(rho.matrix, v) in coords


def _random_negative_definite(rng, n):
    """U^t D U for a random diagonal D < 0 and unimodular U, or -(B B^t + I)."""
    if rng.random() < 0.5:
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(2 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.choice((-1, 1))
                u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        diag = [rng.randint(-4, -1) for _ in range(n)]
        return [[sum(u[k][i] * diag[k] * u[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
    b = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
    return [[-(sum(x * y for x, y in zip(b[i], b[j])) + (i == j)) for j in range(n)]
            for i in range(n)]


def _box_radii(gram, max_norm):
    """Bounds |x_i| <= r_i of every x with -x^t G x <= max_norm.

    x_i^2 <= max_norm * ((-G)^-1)_ii by Cauchy-Schwarz.
    """
    inv = rational_inverse(scaled(gram, -1))
    return [isqrt(int(max_norm * inv[i][i])) for i in range(len(gram))]


def _box_vectors(gram, max_norm):
    """Nonzero vectors of that coordinate box, bucketed by norm."""
    out = {}
    for x in itertools.product(*(range(-r, r + 1) for r in _box_radii(gram, max_norm))):
        if any(x):
            out.setdefault(bilinear(gram, x, x), set()).add(x)
    return out


def _brute_force_grams():
    """Three fixed forms, then random ones of rank <= 4 whose box is small."""
    rng = random.Random(20260)
    out = [
        [[-4, 2], [2, -4]],  # A2(2): leading minors 4, 12
        [[-2, 0], [0, -6]],
        [[-3, 1, 0], [1, -3, 1], [0, 1, -5]],
    ]
    while len(out) < 60:
        gram = _random_negative_definite(rng, rng.randint(1, 4))
        if prod(2 * r + 1 for r in _box_radii(gram, 6)) <= 20000:
            out.append(gram)
    return out


def test_short_vectors_match_box_enumeration():
    reduced_minors = set()
    for gram in _brute_force_grams():
        L = lat.from_gram(gram)
        red, _ = lll_reduce(L.gram)
        d, _ = integral_gram_schmidt(scaled(red, -1))
        reduced_minors.update(d[1:])
        box = _box_vectors(gram, 6)
        for norm in (-2, -4, -6):
            got = glue.short_vectors(L, norm)
            assert got == sorted(got)
            expected = box.get(norm, set())
            assert len(got) * 2 == len(expected), (gram, norm)
            assert set(got) | {tuple(-a for a in v) for v in got} == expected
            for v in got:
                # the kept sign: first nonzero coordinate positive
                assert next(a for a in v if a) > 0
    # the integer search is scaled, not just run on unimodular minors
    assert len(reduced_minors - {1}) > 5


def _scrambled(base, rng):
    """``base`` under a unimodular change of basis of 3n row operations
    (none at rank 1)."""
    n = base.rank
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        t[i] = [a + c * b for a, b in zip(t[i], t[j])]
    assert abs(bareiss_det(t)) == 1
    return lat.from_gram(matmul(matmul(t, base.gram), tuple(zip(*t))))


_SCRAMBLE_ATOMS = ([f"A{n}" for n in range(1, 7)] + [f"D{n}" for n in range(4, 7)]
                   + ["E6", "E7", "E8"])


@st.composite
def _ade_sums(draw):
    """A sum of A_n (n <= 6), D_n (4 <= n <= 6), E6, E7 and E8 of rank <= 16."""
    atoms, rank = [], 0
    for atom in draw(st.lists(st.sampled_from(_SCRAMBLE_ATOMS), min_size=1, max_size=5)):
        if rank + int(atom[1:]) <= 16:
            atoms.append(atom)
            rank += int(atom[1:])
    return "+".join(atoms)


class TestRootSystems:
    def test_2e8_2a1(self):
        rs = glue.root_system(lat.parse_name("E8+E8+A1+A1"))
        assert rs.spec_string() == "2E8+2A1"
        assert rs.total_roots == 484

    @settings(max_examples=60, deadline=None)
    @given(_ade_sums(), st.randoms(use_true_random=False))
    @example("E8+D4+A2", random.Random(41))
    def test_scrambled_basis(self, spec, rng):
        # a unimodular change of basis moves every root off the coordinate
        # blocks, so the lexicographic positive system is in general position
        base = lat.parse_name(spec)
        scrambled = _scrambled(base, rng)
        assume(base.rank == 1 or scrambled.gram != base.gram)
        rs = glue.root_system(scrambled)
        assert rs == glue.root_system_from_spec(spec)
        # one root per +- pair, sorted, each with first nonzero coordinate positive
        pos = glue.short_vectors(scrambled, -2)
        assert len(pos) * 2 == rs.total_roots
        assert pos == sorted(pos)
        assert all(next(filter(None, v)) > 0 and bilinear(scrambled.gram, v, v) == -2
                   for v in pos)

    def test_every_ade_atom_is_itself(self):
        atoms = ([("A", n) for n in range(1, 25)] + [("D", n) for n in range(4, 25)]
                 + [("E", 6), ("E", 7), ("E", 8)])
        for letter, n in atoms:
            rs = glue.root_system(lat.make_standard(letter, n))
            assert rs == glue.root_system_from_spec(f"{letter}{n}"), (letter, n)
            assert rs.components == ((letter, n),)

    @pytest.mark.parametrize("block", [
        [[-2, 1, 1], [1, -2, 1], [1, 1, -2]],  # affine A2, a triangle
        [[-2, 1, 1, 1, 1], [1, -2, 0, 0, 0], [1, 0, -2, 0, 0],
         [1, 0, 0, -2, 0], [1, 0, 0, 0, -2]],  # affine D4, a star
        [[-2, 2], [2, -2]],
        [[-2, -1], [-1, -2]],
    ])
    def test_non_dynkin_blocks_are_internal_errors(self, block):
        with pytest.raises(InternalError, match="not a simply-laced Dynkin diagram"):
            glue._classify_component(block)

    def test_unit_has_no_roots(self):
        rs = glue.root_system(lat.rank1(-4))
        assert rs.components == () and rs.total_roots == 0

    def test_direct_sum_property(self):
        random.seed(3)
        pool = ["A1", "A2", "A3", "D4", "D5", "E6", "<-4>", "<-6>"]
        for _ in range(10):
            n1, n2 = random.choice(pool), random.choice(pool)
            r1 = glue.root_system(lat.parse_name(n1))
            r2 = glue.root_system(lat.parse_name(n2))
            both = glue.root_system(lat.parse_name(n1 + "+" + n2))
            assert both.components == tuple(sorted(r1.components + r2.components))
            assert both.total_roots == r1.total_roots + r2.total_roots

    def test_glue_must_not_create_roots_for_printed_row(self):
        # E7 + D10 + A1 admits a glue that creates E8 + D10; the printed
        # row needs one that keeps the root system fixed
        gd, subs = glue_choices("E7+D10+A1", 2)
        seen = set()
        for s in subs:
            q = fqf.perp_quotient(gd.disc, s)[0]
            if not fqf.are_isometric(q, genus_form())[0]:
                continue
            rs = glue.root_system(glue.overlattice(gd, s))
            seen.add(rs.spec_string())
        assert "E8+D10" in seen
        assert "E7+D10+A1" in seen

    def test_spec_parsing(self):
        comps = glue.parse_root_spec("2E8+2A1")
        assert comps == [("E", 8), ("E", 8), ("A", 1), ("A", 1)]
        comps = glue.parse_root_spec("E6+A11+<-4>")
        assert comps == [("E", 6), ("A", 11), ("unit", -4)]
        with pytest.raises(BadParameter):
            glue.parse_root_spec("F4")

    def test_root_system_from_spec_counts(self):
        rs = glue.root_system_from_spec("E6+A11+<-4>")
        assert rs.total_roots == 72 + 11 * 12
        assert rs.components == (("A", 11), ("E", 6))


class TestImageOfTau:
    def test_two_e8_two_a1_swap_realized(self):
        gd = glue.make_glue("2E8+2A1")
        tau = tau_image(gd)
        assert tau.size == 2
        assert len(fqf.orthogonal_group(gd.disc)) == 2

    def test_e8_d10_diagram_flip(self):
        gd = glue.make_glue("E8+D10")
        tau = tau_image(gd)
        assert tau.size == len(fqf.orthogonal_group(gd.disc)) == 2

    def test_d18_value_reported(self):
        gd = glue.make_glue("D18")
        tau = tau_image(gd)
        assert tau.size == 2  # tool output; surjectivity left open upstream

    def test_a17_a1_proper_subgroup(self):
        # the A17 flip acts by -1, trivial on the 2-torsion quotient, so
        # the image is strictly smaller than O(A_E) here
        gd, subs = glue_choices("A17+A1", 3)
        s = [x for x in subs if fqf.are_isometric(
            fqf.perp_quotient(gd.disc, x)[0], genus_form())[0]][0]
        tau = tau_image(gd, s)
        assert tau.size == 1
        assert len(fqf.orthogonal_group(fqf.perp_quotient(gd.disc, s)[0])) == 2

    def test_every_map_preserves_q(self):
        gd, subs = glue_choices("2A9", 5)
        for s in subs:
            q, source = fqf.perp_quotient(gd.disc, s)
            if not fqf.are_isometric(q, genus_form())[0]:
                continue
            for f in tau_image(gd, s, (q, source)).maps:
                for x in fqf.elements(q):
                    assert q_value(q, fqf.apply_map(q, f, x)) == q_value(q, x)


@pytest.mark.parametrize("spec", [c.roots for c in cusps.TABLE1_ROWS])
def test_integer_disc_action_matches_rational_lifts(spec):
    gd = glue.make_glue(spec)
    disc, src = gd.disc, gd.disc_source
    units = [tuple(int(j == i) for j in range(disc.rank)) for i in range(disc.rank)]
    isos = tau_generator_isometries(gd)
    actions = glue._generator_actions(gd)
    assert len(actions) == len(isos)
    for iso, action in zip(isos, actions):
        expected = tuple(
            class_of(gd.base, src,
                     *over_common_denominator(apply(iso.matrix, rational_lift(disc, src, u))))
            for u in units)
        assert action.images == expected
        assert group_claims.disc_action(iso, src.smith, src.kept) == expected


@pytest.mark.parametrize("spec", [c.roots for c in cusps.TABLE1_ROWS])
def test_tau_generators_pass_the_full_form_check(spec):
    gd = glue.make_glue(spec)
    gens = tau_generator_isometries(gd)
    assert gens
    for iso in gens:
        m = iso.matrix
        # one entry +-1 in every row and column, and M^T G M = G
        assert sorted(abs(x) for row in m for x in row).count(1) == gd.base.rank
        assert all(sum(x != 0 for x in row) == 1 for row in m)
        assert group_claims.Isometry(gd.base, iso.matrix) == iso


def _swap(n, a, b, k):
    p = list(range(n))
    for t in range(k):
        p[a + t], p[b + t] = p[b + t], p[a + t]
    return p


def test_signed_permutation_rejects_non_isometries():
    base = glue.make_glue("E8+D8").base
    plus = (1,) * 16
    preserve = "^signed permutation does not preserve the form$"
    with pytest.raises(BadParameter, match=preserve):  # E8 and D8 are not isomorphic
        signed_permutation(base, _swap(16, 0, 8, 8), plus)
    with pytest.raises(BadParameter, match=preserve):  # a sign flip inside a root chain
        signed_permutation(base, range(16), (-1,) + plus[1:])
    with pytest.raises(BadParameter, match="^not a signed permutation of the basis$"):
        signed_permutation(base, [0] * 16, plus)
    swap = _swap(16, 0, 8, 8)
    iso = signed_permutation(glue.make_glue("2E8").base, swap, plus)
    assert iso.matrix[8][0] == iso.matrix[0][8] == 1


def test_signed_permutation_check_matches_the_matrix_product():
    base = lat.parse_name("A2+A2+<-2>+<-2>+U")
    n = base.rank
    rng = random.Random(5)
    accepted = 0
    for _ in range(300):
        p = list(range(n))
        if rng.random() < 0.5:
            rng.shuffle(p)
        s = [rng.choice((1, 1, -1)) for _ in range(n)]
        m = [[0] * n for _ in range(n)]
        for src, (dst, sign) in enumerate(zip(p, s)):
            m[dst][src] = sign
        try:
            expected = group_claims.Isometry(base, m)
        except BadParameter as exc:
            assert str(exc) == "matrix does not preserve the form"
            expected = None
        try:
            got = signed_permutation(base, p, s)
        except BadParameter as exc:
            assert str(exc) == "signed permutation does not preserve the form"
            got = None
        assert got == expected
        accepted += got is not None
    assert accepted > 10


def _check_outcome(check, domain, perm, signs):
    try:
        check(domain, perm, signs)
    except BadParameter as exc:
        return str(exc)
    return None


_SMALL_ATOMS = ["A1", "A2", "A3", "D4", "E6", "<-2>", "<-4>"]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(_SMALL_ATOMS), min_size=1, max_size=4), st.data())
def test_signed_permutation_gathers_match_the_full_product(atoms, data):
    # a word in the tau generators is an isometry; a random signed
    # permutation, or such a word with two indices swapped, mostly is not
    gd = glue.make_glue("+".join(atoms))
    n = gd.base.rank
    perm, signs = list(range(n)), [1] * n
    for p, s in data.draw(st.lists(st.sampled_from(glue._tau_signed_permutations(gd) or
                                                   [(range(n), (1,) * n)]), max_size=4)):
        perm, signs = [p[k] for k in perm], [t * s[k] for t, k in zip(signs, perm)]
    kind = data.draw(st.sampled_from(("word", "swapped", "random")))
    if kind == "swapped" and n > 1:
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        perm[i], perm[j] = perm[j], perm[i]
    elif kind == "random":
        perm = data.draw(st.permutations(range(n)))
        signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    expected = _check_outcome(check_signed_permutation_by_product, gd.base, perm, signs)
    assert _check_outcome(lat.check_signed_permutation, gd.base, perm, signs) == expected
    if kind == "word":
        assert expected is None


def test_overlattice_and_tau_build_no_rational_lift(monkeypatch):
    # no rational number at all: Fraction refuses to be built
    gd, subs = glue_choices("2A1+2D8", 4)
    expected = [(glue.overlattice(gd, s), tau_image(gd, s)) for s in subs]

    def refuse(*args):
        raise AssertionError("rational lift built")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    for s, (over, tau) in zip(subs, expected):
        assert glue.overlattice(gd, s) == over
        assert tau_image(gd, s) == tau


_ROOT_ATOMS = ([f"A{n}" for n in range(1, 8)] + [f"D{n}" for n in range(4, 9)]
               + ["E6", "E7", "<-2>", "<-4>"])


def _closure_image_of_tau(gd, glue_sub, source, group):
    """Im tau the long way: the stabilizer of the glue inside ``group``, the
    whole subgroup of O(A_R) generated by the generator actions, each
    element evaluated on the generator lifts of A_E.  An automorphism f
    keeps H when it maps the generators of H into H, as then f(H) is a
    subgroup of H of the same order; ``source`` is the ``QuotientSource`` of
    A_E."""
    disc, glue_set = gd.disc, set(glue_sub.elements)
    return tuple(sorted({
        tuple(fqf.project_to_quotient(source, fqf.apply_map(disc, f, z))
              for z in source.generator_lifts)
        for f in group
        if all(fqf.apply_map(disc, f, h) in glue_set for h in glue_sub.generators)
    }))


def _closure_in_o_of_a_r(gd, limit=None):
    """The subgroup of O(A_R) generated by the actions of the tau generators,
    each map as its generator images; a product g f is read off the table
    of g on the elements of A_R.  None once it has more than ``limit`` maps."""
    disc = gd.disc
    tables = [{x: fqf.apply_map(disc, g, x) for x in fqf.elements(disc)}
              for g in (group_claims.disc_action(iso, gd.disc_source.smith, gd.disc_source.kept)
                        for iso in tau_generator_isometries(gd))]
    group = {fqf.identity_map(disc)}
    frontier = list(group)
    while frontier:
        cur = frontier.pop()
        for table in tables:
            nxt = tuple(map(table.__getitem__, cur))
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
        if limit is not None and len(group) > limit:
            return None
    return group


ORACLE_BASES = [c.roots for c in cusps.TABLE1_ROWS] + [
    "4A3", "2D4", "E6+E6", "3A2+<-6>", "2A2+2A1"]


def test_image_of_tau_matches_the_closure_in_o_of_a_r():
    glues = 0
    for spec in ORACLE_BASES:
        gd = glue.make_glue(spec)
        group = _closure_in_o_of_a_r(gd)
        for s in fqf.isotropic_subgroups(gd.disc):
            q = fqf.perp_quotient(gd.disc, s)
            assert tau_image(gd, s, q).maps == _closure_image_of_tau(gd, s, q[1], group), (
                spec, s.generators)
            glues += 1
    assert glues == 154


@st.composite
def _glued_sums(draw, max_order=256):
    """A sum of root atoms, drawn from a small pool so that atoms repeat, cut
    to its longest prefix with |A_R| <= max_order, and an isotropic glue
    grown from random isotropic elements: the base and the glue."""
    pool = draw(st.lists(st.sampled_from(_ROOT_ATOMS), min_size=1, max_size=3))
    atoms = []
    for atom in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5)):
        if abs(glue.root_sum_base("+".join(atoms + [atom]))[0].det) > max_order:
            break
        atoms.append(atom)
    assume(atoms)
    gd = glue.make_glue("+".join(atoms))
    disc = gd.disc
    iso = [e for e in fqf.isotropic_elements(disc) if any(e)]
    gens = []
    for e in draw(st.lists(st.sampled_from(iso), max_size=3) if iso else st.just([])):
        if not any(fqf.q_scaled(disc, x) for x in fqf.subgroup_span(disc, gens + [e]).elements):
            gens.append(e)
    return gd, fqf.subgroup_span(disc, gens)


# a closure of more maps costs image_of_tau seconds to close again in
# O(A_E); a few draws in a hundred exceed it and are not tried
TAU_CLOSURE_CAP = 4096


@settings(max_examples=60, deadline=None)
@given(_glued_sums())
def test_image_of_tau_matches_the_closure_on_random_glues(glued):
    gd, glue_sub = glued
    group = _closure_in_o_of_a_r(gd, TAU_CLOSURE_CAP)
    assume(group is not None)
    q = fqf.perp_quotient(gd.disc, glue_sub)
    assert tau_image(gd, glue_sub, q).maps == _closure_image_of_tau(gd, glue_sub, q[1], group)


@pytest.mark.parametrize("spec, glues, orbits", [
    ("2A1+2D8", 15, 5), ("3D6", 15, 3), ("D12+D4+<-2>+<-2>", 15, 3),
])
def test_glue_orbits_partition_the_target_order_glues(spec, glues, orbits):
    gd, subs = glue_choices(spec, 4)
    disc, src = gd.disc, gd.disc_source
    actions = [group_claims.disc_action(iso, src.smith, src.kept)
               for iso in tau_generator_isometries(gd)]
    found = glue._glue_orbits(glue._generator_actions(gd), subs)
    assert (len(subs), len(found)) == (glues, orbits)
    members = [key for _, words, _ in found for key in words]
    assert sorted(members) == [s.elements for s in subs]  # a cover, with no overlap
    for least, words, _ in found:
        assert least.elements == min(words)
        for key, word in words.items():
            elems = set(least.elements)
            for g in word:
                elems = {fqf.apply_map(disc, actions[g], x) for x in elems}
            assert tuple(sorted(elems)) == key
            for g in actions:  # closed under every generator
                assert tuple(sorted(fqf.apply_map(disc, g, x) for x in key)) in words
    assert [least.elements for least, _, _ in found] == sorted(
        least.elements for least, _, _ in found)


def test_tau_generators_must_be_involutions(monkeypatch):
    # a 3-cycle of equal summands is an isometry of order 3
    gd = glue.make_glue("A1+A1+A1")
    monkeypatch.setattr(glue, "_tau_signed_permutations",
                        lambda gd: [([1, 2, 0], (1, 1, 1))])
    with pytest.raises(InternalError, match="not an involution"):
        tau_image(gd)


def test_generator_actions_check_each_generator_without_its_matrix(monkeypatch):
    gd = glue.make_glue("E8+D8")
    monkeypatch.setattr(helpers, "signed_permutation", None)
    assert glue._generator_actions(gd)
    # E8 and D8 are not isomorphic, so swapping them is no isometry
    monkeypatch.setattr(glue, "_tau_signed_permutations",
                        lambda gd: [(_swap(16, 0, 8, 8), (1,) * 16)])
    with pytest.raises(BadParameter, match="^signed permutation does not preserve the form$"):
        glue._generator_actions(gd)


# ---------------------------------------------------------------------------
# coset minima and the root certificate


def _splac_minimum(kind, param, p):
    """Minimal |norm| of the class of the dual vector with pairings p, from
    the closed forms of Conway-Sloane (SPLAG ch. 4) and the class of each
    fundamental weight: omega_j is j omega_1 in A_n; in D_n the chain weight
    omega_j is j times the vector class v, and the two tips are the spinors."""
    if kind == "unit":
        k = p[0] % abs(param)
        k = min(k, abs(param) - k)
        return Fraction(k * k, abs(param))
    if kind == "A":
        k = sum((j + 1) * x for j, x in enumerate(p)) % (param + 1)
        return Fraction(k * (param + 1 - k), param + 1)
    if kind == "D":
        a = sum(p[j] for j in range(0, param - 2, 2))  # multiple of v
        s, t = p[param - 2], p[param - 1]  # multiples of the two spinors
        if param % 2:  # Z/4 with v = 2, spinors 1 and 3
            c = (2 * a + s + 3 * t) % 4
            return {0: 0, 2: 1}.get(c, Fraction(param, 4))
        c = ((a + s) % 2, (a + t) % 2)  # (Z/2)^2 with v = (1, 1)
        return {(0, 0): 0, (1, 1): 1}.get(c, Fraction(param, 4))
    # p comes from the lift of a class, which is 0 exactly on class 0
    return {6: Fraction(4, 3), 7: Fraction(3, 2)}[param] if any(p) else 0


COSET_COMPONENTS = (
    [("A", n) for n in range(1, 18)] + [("D", n) for n in range(4, 19)]
    + [("E", 6), ("E", 7), ("E", 8), ("unit", -2), ("unit", -4)]
)


def _assert_component_minima(gd, i):
    """The coset minima of component i of the base of ``gd``, as
    ``glue._coset_minima`` reads them off the base's Smith transforms, match
    the closed forms on every class of the component's own R_i*/R_i."""
    comp = gd.components[i]
    sl, _, _, minima = glue._coset_minima(gd)[i]
    L = lat.make_standard("rank1" if comp.kind == "unit" else comp.kind, comp.param)
    disc, disc_src = fqf.discriminant_form(L)
    src, n = gd.disc_source, gd.base.rank
    rng = random.Random(comp.param)
    seen = set()
    for x in fqf.elements(disc):
        b = disc_src.scaled_lift(x, disc.level)
        p = [0] * n
        p[sl] = [v // disc.level for v in apply(L.gram, b)]
        expected = _splac_minimum(comp.kind, comp.param, p[sl])
        c = class_key(src, p)
        got = minima[c] if any(c) else 0
        assert Fraction(got, gd.disc.level) == expected, (x, p[sl])
        # any other vector of the same class has the same minimum
        shifted = list(p)
        shifted[sl] = [a + v for a, v in zip(
            p[sl], apply(L.gram, [rng.randint(-3, 3) for _ in range(L.rank)]))]
        assert class_key(src, shifted) == c
        seen.add(c)
    assert len(seen) == abs(L.det)
    assert set(minima) == {c for c in seen if any(c)}


@pytest.mark.parametrize("kind, param", COSET_COMPONENTS)
def test_coset_minima_match_closed_forms(kind, param):
    spec = f"<{param}>" if kind == "unit" else f"{kind}{param}"
    _assert_component_minima(glue.make_glue(spec), 0)


@pytest.mark.parametrize("roots", [cand.roots for cand in cusps.TABLE1_ROWS])
def test_coset_minima_of_table1_bases_match_closed_forms(roots):
    # each component's minima, written in the presentation of the whole base
    gd = glue.make_glue(roots)
    for i in range(len(gd.components)):
        _assert_component_minima(gd, i)


def _adds_roots_oracle(gd, glue_sub):
    """The certificate's answer, by Fincke-Pohst on the overlattice."""
    over = glue.root_system(glue.overlattice(gd, glue_sub))
    return over.total_roots != glue.root_system(gd.base).total_roots


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(_ROOT_ATOMS), min_size=2, max_size=4), st.data())
def test_root_certificate_matches_fincke_pohst_on_random_glues(atoms, data):
    gd = glue.make_glue("+".join(atoms))
    disc = gd.disc
    # an isotropic glue, grown by nonzero isotropic elements that keep it isotropic
    iso = [e for e in fqf.isotropic_elements(disc) if any(e)]
    gens = []
    for e in data.draw(st.lists(st.sampled_from(iso), min_size=1, max_size=4) if iso
                       else st.just([])):
        if not any(fqf.q_scaled(disc, x) for x in fqf.subgroup_span(disc, gens + [e]).elements):
            gens.append(e)
    s = fqf.subgroup_span(disc, gens)
    # the invariants the overlattice takes from its base and glue, against elimination
    over = glue.overlattice(gd, s)
    assert lat.from_gram(over.gram) == over
    assert helpers.adds_roots(gd, s) is _adds_roots_oracle(gd, s)


def test_root_certificate_on_the_glues_table1_tries():
    # the genus matches of each row, in search order, up to the first that
    # keeps the declared root system: 28 glues, 15 of them adding roots
    target = cusps.predicted_AE(cusps.PolarizationCase(1, "split"), 1)
    tried = []
    for cand in cusps.TABLE1_ROWS:
        gd = glue.make_glue(cand.roots)
        declared = glue.root_system_from_spec(cand.roots).components
        for s in fqf.isotropic_subgroups(gd.disc):
            if s.order ** 2 * 4 != abs(gd.base.det):
                continue
            if not fqf.are_isometric(fqf.perp_quotient(gd.disc, s)[0], target)[0]:
                continue
            tried.append((gd, s, _adds_roots_oracle(gd, s)))
            if glue.root_system(glue.overlattice(gd, s)).components == declared:
                break
    assert len(tried) == 28
    assert sum(adds for _, _, adds in tried) == 15
    for gd, s, adds in tried:
        assert helpers.adds_roots(gd, s) is adds


def test_root_certificate_on_every_order_four_glue_of_2a1_2d8():
    path = Path(__file__).parent / "data" / "glue_enum_2A1+2D8_order4.json"
    listed = json.loads(path.read_text())["glues"]
    gd = glue.make_glue("2A1+2D8")
    verdicts = []
    for g in listed:
        s = fqf.subgroup_span(gd.disc, [tuple(x) for x in g["generators"]])
        assert s.order == 4
        verdicts.append(_adds_roots_oracle(gd, s))
        assert helpers.adds_roots(gd, s) is verdicts[-1]
    assert len(verdicts) == 15 and True in verdicts and False in verdicts


def test_root_certificate_on_the_order_16_glues_of_8a1():
    # the doubly-even self-dual codes of length 8: the 8!/|AGL(3,2)| = 30
    # coordinate permutations of the extended Hamming code, each giving E8
    gd = glue.make_glue("8A1")
    disc = gd.disc
    halves = [class_of(gd.base, gd.disc_source, [int(i == j) for j in range(8)], 2)
              for i in range(8)]
    rows = [(1, 1, 1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 1, 1, 0, 0),
            (0, 0, 0, 0, 1, 1, 1, 1), (0, 1, 0, 1, 0, 1, 0, 1)]
    hamming = {tuple(sum(c * r[i] for c, r in zip(cs, rows)) % 2 for i in range(8))
               for cs in itertools.product((0, 1), repeat=4)}
    codes = {frozenset(tuple(w[p[i]] for i in range(8)) for w in hamming)
             for p in itertools.permutations(range(8))}
    assert len(codes) == 30
    for code in codes:
        gens = []
        for w in code:
            x = disc.zero
            for i in range(8):
                x = fqf.add(disc, x, fqf.smul(disc, w[i], halves[i]))
            gens.append(x)
        s = fqf.subgroup_span(disc, gens)
        assert s.order == 16
        assert glue.root_system(glue.overlattice(gd, s)).spec_string() == "E8"
        assert helpers.adds_roots(gd, s) is True


def test_root_certificate_needs_a_negative_definite_full_rank_base():
    gd = glue.make_glue("A1+<4>")
    with pytest.raises(BadParameter, match="^coset minima need a negative definite base$"):
        helpers.adds_roots(gd, fqf.trivial_subgroup(gd.disc))
    gd = glue.make_glue("A1+A1")
    with pytest.raises(BadParameter, match="^components do not span the base lattice$"):
        helpers.adds_roots(gd._replace(components=gd.components[:1]),
                           fqf.trivial_subgroup(gd.disc))
