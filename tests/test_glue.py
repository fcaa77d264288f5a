import itertools
import random
from fractions import Fraction
from math import isqrt, prod

import pytest

from cuspidal import cusps, fqf, glue
from cuspidal import lattice as lat
from cuspidal.errors import BadParameter, NotIsotropic, NotNegativeDefinite
from cuspidal.exact import (
    IntMatrix,
    integral_gram_schmidt,
    lll_reduce,
    rational_inverse,
    smith_normal_form,
)

HALF = Fraction(-1, 2)


def genus_form():
    return fqf.FiniteQuadraticForm((2, 2), (HALF, HALF), [[0, 0], [0, 0]])


def glue_choices(spec, order):
    gd0 = glue.make_glue(spec)
    return gd0, [s for s in fqf.isotropic_subgroups(gd0.disc) if s.order == order]


class TestOverlattice:
    def test_trivial_glue_is_identity(self):
        gd = glue.make_glue("2E8+2A1")
        over = glue.overlattice(gd)
        assert over.lattice.det == gd.base.det == 4
        assert over.lattice.gram == gd.base.gram

    def test_a3_a15_row(self):
        gd0, subs = glue_choices("A3+A15", 4)
        assert subs, "an order-4 isotropic subgroup must exist"
        hit = None
        for s in subs:
            q = fqf.perp_quotient(gd0.disc, s)
            if not fqf.are_isometric(q, genus_form())[0]:
                continue
            gd = glue.GlueData(gd0.base, gd0.components, gd0.disc, s)
            over = glue.overlattice(gd)
            assert over.lattice.det == 4
            rs = glue.root_system(over.lattice)
            if rs.components == glue.root_system_from_spec("A3+A15").components:
                hit = over
                break
        assert hit is not None

    def test_d18_already_in_genus(self):
        gd = glue.make_glue("D18")
        assert fqf.are_isometric(fqf.discriminant_form(gd.base), genus_form())[0]

    def test_determinant_identity_and_brieskorn(self):
        for spec in ("A3+A1", "2A2", "D4+A1", "A5+A1", "<-4>+A2+A2"):
            gd0 = glue.make_glue(spec)
            for s in fqf.isotropic_subgroups(gd0.disc):
                gd = glue.GlueData(gd0.base, gd0.components, gd0.disc, s)
                over = glue.overlattice(gd)
                assert over.lattice.det * s.order**2 == gd0.base.det
                disc_over = fqf.discriminant_form(over.lattice)
                pq = fqf.perp_quotient(gd0.disc, s)
                assert fqf.are_isometric(disc_over, pq)[0]
                # index of the base inside the overlattice equals |H|
                incl = smith_normal_form(over.base_in_overlattice)
                assert prod(incl.diag) == s.order
                # the base Gram is recovered through the inclusion
                M = over.base_in_overlattice
                assert M @ over.lattice.gram @ M.T == gd0.base.gram

    def test_non_isotropic_rejected(self):
        gd0 = glue.make_glue("A1+A1")
        bad = fqf.subgroup_span(gd0.disc, [(1, 0)])
        with pytest.raises(NotIsotropic):
            glue.GlueData(gd0.base, gd0.components, gd0.disc, bad)


class TestShortVectors:
    def test_a1(self):
        assert len(glue.short_vectors(lat.A(1), -2)) == 1

    def test_e8_roots(self):
        assert len(glue.short_vectors(lat.E(8), -2)) == 120

    def test_d18_roots(self):
        # closed form 2 h (h-1) = 612 roots, 306 sign classes
        assert len(glue.short_vectors(lat.D(18), -2)) == 306

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_a_k_closed_form(self, k):
        assert len(glue.short_vectors(lat.A(k), -2)) == k * (k + 1) // 2

    @pytest.mark.parametrize("h", [4, 5, 6])
    def test_d_h_closed_form(self, h):
        assert len(glue.short_vectors(lat.D(h), -2)) == h * (h - 1)

    def test_norm_minus_four(self):
        vs = glue.short_vectors(lat.rank1(-4), -4)
        assert [v.coords for v in vs] == [(1,)]
        assert glue.short_vectors(lat.rank1(-4), -2) == []

    def test_indefinite_rejected(self):
        with pytest.raises(NotNegativeDefinite):
            glue.short_vectors(lat.U(), -2)

    def test_closed_under_weyl_reflection(self):
        L = lat.A(3)
        roots = glue.short_vectors(L, -2)
        coords = set()
        for v in roots:
            coords.add(v.coords)
            coords.add(tuple(-x for x in v.coords))
        rho = lat.reflection(L, roots[0])
        for v in roots:
            assert rho(v).coords in coords


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
    inv = rational_inverse(-IntMatrix(gram))
    return [isqrt(int(max_norm * inv[i][i])) for i in range(len(gram))]


def _box_vectors(gram, max_norm):
    """Nonzero vectors of that coordinate box, bucketed by norm."""
    g = IntMatrix(gram)
    out = {}
    for x in itertools.product(*(range(-r, r + 1) for r in _box_radii(gram, max_norm))):
        if any(x):
            out.setdefault(g.bilinear(x, x), set()).add(x)
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
        L = lat.Lattice(gram)
        red, t = lll_reduce(L.gram)
        d, _ = integral_gram_schmidt((-red).data)
        reduced_minors.update(d[1:])
        tinv = rational_inverse(t)
        box = _box_vectors(gram, 6)
        for norm in (-2, -4, -6):
            got = [v.coords for v in glue.short_vectors(L, norm)]
            assert got == sorted(got)
            expected = box.get(norm, set())
            assert len(got) * 2 == len(expected), (gram, norm)
            assert set(got) | {tuple(-a for a in v) for v in got} == expected
            for v in got:
                # the kept sign: first nonzero LLL-basis coordinate positive
                y = [sum(row[k] * v[k] for k in range(len(v))) for row in tinv]
                assert next(a for a in y if a) > 0
    # the integer search is scaled, not just run on unimodular minors
    assert len(reduced_minors - {1}) > 5


class TestRootSystems:
    def test_2e8_2a1(self):
        rs = glue.root_system(lat.parse_name("E8+E8+A1+A1"))
        assert rs.spec_string() == "2E8+2A1"
        assert rs.total_roots == 484

    def test_scrambled_basis(self):
        # a unimodular change of basis moves every root off the coordinate
        # blocks, so the lexicographic positive system is in general position
        base = lat.parse_name("E8+D4+A2")
        n = base.rank
        rng = random.Random(41)
        t = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            t[i] = [a + c * b for a, b in zip(t[i], t[j])]
        T = IntMatrix(t)
        assert abs(T.det()) == 1
        scrambled = lat.Lattice(T @ base.gram @ T.T)
        assert scrambled.gram != base.gram
        rs = glue.root_system(scrambled)
        assert rs.spec_string() == "E8+D4+A2"
        assert rs.total_roots == 240 + 24 + 6

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
        gd0, subs = glue_choices("E7+D10+A1", 2)
        seen = set()
        for s in subs:
            q = fqf.perp_quotient(gd0.disc, s)
            if not fqf.are_isometric(q, genus_form())[0]:
                continue
            gd = glue.GlueData(gd0.base, gd0.components, gd0.disc, s)
            rs = glue.root_system(glue.overlattice(gd).lattice)
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
        tau = glue.image_of_tau(gd)
        assert tau.size == 2
        assert len(fqf.orthogonal_group(tau.quotient_form)) == 2
        assert tau.conditional

    def test_e8_d10_diagram_flip(self):
        gd = glue.make_glue("E8+D10")
        tau = glue.image_of_tau(gd)
        assert tau.size == len(fqf.orthogonal_group(tau.quotient_form)) == 2

    def test_d18_value_reported(self):
        gd = glue.make_glue("D18")
        tau = glue.image_of_tau(gd)
        assert tau.size == 2  # tool output; surjectivity left open upstream

    def test_a17_a1_proper_subgroup(self):
        # the A17 flip acts by -1, trivial on the 2-torsion quotient, so
        # the image is strictly smaller than O(A_E) here
        gd0, subs = glue_choices("A17+A1", 3)
        s = [x for x in subs if fqf.are_isometric(
            fqf.perp_quotient(gd0.disc, x), genus_form())[0]][0]
        gd = glue.GlueData(gd0.base, gd0.components, gd0.disc, s)
        tau = glue.image_of_tau(gd)
        assert tau.size == 1
        assert len(fqf.orthogonal_group(tau.quotient_form)) == 2

    def test_every_map_preserves_q(self):
        gd0, subs = glue_choices("2A9", 5)
        for s in subs:
            q = fqf.perp_quotient(gd0.disc, s)
            if not fqf.are_isometric(q, genus_form())[0]:
                continue
            gd = glue.GlueData(gd0.base, gd0.components, gd0.disc, s)
            tau = glue.image_of_tau(gd, q)
            for f in tau.maps:
                for x in tau.quotient_form.elements():
                    fx = fqf.apply_map(tau.quotient_form, f, x)
                    assert tau.quotient_form.q(fx) == tau.quotient_form.q(x)


@pytest.mark.parametrize("spec", [c.roots for c in cusps.TABLE1_ROWS])
def test_integer_disc_action_matches_rational_lifts(spec):
    gd = glue.make_glue(spec)
    disc = gd.disc
    units = [tuple(int(j == i) for j in range(disc.rank)) for i in range(disc.rank)]
    for iso in glue.tau_generator_isometries(gd):
        expected = tuple(disc.class_of(iso.matrix.apply(disc.lift(u))) for u in units)
        assert glue._disc_action(gd, iso) == expected


def test_overlattice_and_tau_build_no_rational_lift(monkeypatch):
    gd0, subs = glue_choices("2A1+2D8", 4)
    expected = [(glue.overlattice(glue.GlueData(gd0.base, gd0.components, gd0.disc, s)),
                 glue.image_of_tau(glue.GlueData(gd0.base, gd0.components, gd0.disc, s)))
                for s in subs]

    def refuse(*args):
        raise AssertionError("rational lift built")

    monkeypatch.setattr(fqf.FiniteQuadraticForm, "lift", refuse)
    monkeypatch.setattr(fqf.LatticeSource, "lifts", property(refuse))
    for s, (over, tau) in zip(subs, expected):
        gd = glue.GlueData(gd0.base, gd0.components, gd0.disc, s)
        assert glue.overlattice(gd).lattice == over.lattice
        assert glue.image_of_tau(gd).maps == tau.maps
