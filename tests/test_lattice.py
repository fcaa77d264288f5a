import itertools
import json
import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

import group_claims
from cuspidal import claims
from cuspidal import lattice as lat
from cuspidal.errors import BadParameter
from cuspidal import glue
from cuspidal.exact import bilinear, matmul, smith_normal_form
from fraction_oracles import rational_inverse
from embedding_oracles import rank2_isometric, reduced_binary
from helpers import (
    basis, compose, glue_of, lattice_to_json, minus_identity, tau_generator_isometries,
)


def k3_square():
    return lat.parse_name("U+U+U+E8+E8+<-2>")


def ambient_vec(L, v1=0, w1=0, v2=0, w2=0, e=0):
    return (v1, w1, v2, w2) + (0,) * (L.rank - 5) + (e,)


class TestConstructors:
    def test_standard_determinants(self):
        for k in range(1, 25):
            assert lat.make_standard("A", k).det == (-1) ** k * (k + 1)
        for h in range(4, 25):
            assert lat.make_standard("D", h).det == (-1) ** h * 4
        assert lat.make_standard("E", 6).det == 3
        assert lat.make_standard("E", 7).det == -2
        assert lat.make_standard("E", 8).det == 1
        assert lat.U().det == -1
        for d in (3, 7, 11, 15, 19):
            assert lat.make_standard("B", d).det == d

    def test_b3_gram(self):
        assert lat.make_standard("B", 3).gram == ((-2, 1), (1, -2))

    def test_u_signature(self):
        assert lat.U().signature == (1, 1)

    def test_e8_negative_definite_even(self):
        e8 = lat.make_standard("E", 8)
        assert e8.signature == (0, 8) and e8.even and e8.rank == 8

    def test_bad_parameters(self):
        with pytest.raises(BadParameter):
            lat.make_standard("B", 5)
        with pytest.raises(BadParameter):
            lat.make_standard("D", 3)
        with pytest.raises(BadParameter):
            lat.rank1(3)
        with pytest.raises(BadParameter):
            lat.make_standard("E", 5)

    def test_direct_sum_and_twist(self):
        n = lat.parse_name("U+U+E8+E8+<-2>+<-2>")
        assert (n.rank, n.det, n.signature) == (22, 4, (2, 20))
        u2 = lat.twist(lat.U(), 2)
        assert u2.gram == ((0, 2), (2, 0)) and u2.det == -4
        with pytest.raises(BadParameter):
            lat.direct_sum()

    def test_refused_gram_and_twist(self):
        with pytest.raises(BadParameter, match="gram matrix must be symmetric"):
            lat.from_gram([[-2, 1], [0, -2]])
        with pytest.raises(BadParameter, match="twist parameter must be a positive integer"):
            lat.twist(lat.U(), 0)

    def test_k3_square_lattice(self):
        L = k3_square()
        assert (L.rank, L.det, L.signature) == (23, 2, (3, 20))


_ATOMS = ("U", "B3", "B7", "B11", "<2>", "<-2>", "<-6>", "<10>", "A1", "A2", "A5",
          "D4", "D6", "E6", "E7", "E8")

# a summand: a named atom, possibly twisted, or an odd rank-1 lattice
summands = st.one_of(
    st.tuples(st.sampled_from(_ATOMS), st.sampled_from(["", "(2)", "(3)"])).map(
        lambda t: lat.parse_name(t[0] + t[1])),
    st.sampled_from([-3, -1, 1, 5]).map(lambda k: lat.from_gram([[k]])),
)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.lists(summands, min_size=1, max_size=3), min_size=1, max_size=3))
def test_direct_sum_invariants_match_elimination(groups):
    # sums of sums too: each inner sum is itself a part of the outer one
    L = lat.direct_sum(*(lat.direct_sum(*g) for g in groups))
    assert lat.from_gram(L.gram) == L


@settings(deadline=None, max_examples=60)
@given(st.lists(summands, min_size=1, max_size=3), st.integers(1, 4), st.integers(1, 3))
def test_twist_invariants_match_elimination(parts, t, u):
    # twisted atoms, twisted sums and twists of twists
    for L in (lat.twist(parts[0], t), lat.twist(lat.twist(lat.direct_sum(*parts), t), u)):
        assert lat.from_gram(L.gram) == L


def test_twist_runs_no_elimination(monkeypatch):
    lat.parse_name("U+E8")  # the untwisted atoms are cached
    calls = []
    monkeypatch.setattr(lat, "det_and_signature", calls.append)
    assert lat.parse_name("U(2)+U(2)+E8(2)").det == 2**8 * (-4) ** 2
    assert calls == []


# one lattice for each way a lattice is built
ROUTES = {
    "standard": lat.make_standard("D", 5),
    "direct sum": lat.direct_sum(lat.U(), lat.make_standard("A", 3), lat.rank1(-6)),
    "twist of twist": lat.twist(lat.twist(lat.make_standard("B", 7), 2), 3),
    "json": lat.lattice_from_json(lattice_to_json(lat.parse_name("U+A2"))),
    "overlattice": glue.overlattice(*glue_of("4A1", [(1, 1, 1, 1)])),
}


@pytest.mark.parametrize("route", ROUTES)
def test_every_route_equals_the_elimination_of_its_gram(route):
    # record equality is over all four fields, so a stored invariant that
    # disagrees with the Gram breaks it
    L = ROUTES[route]
    assert lat.from_gram(L.gram) == L and hash(lat.from_gram(L.gram)) == hash(L)


def _minus_cartan(n, edges):
    g = [[-2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        g[i][j] = g[j][i] = 1
    return g


def _standard_grams():
    """(kind, n, Gram rows) of the standard lattices, with each Gram
    written out from its Dynkin diagram or definition."""
    for n in range(1, 25):
        yield "A", n, _minus_cartan(n, [(i, i + 1) for i in range(n - 1)])
    for n in range(4, 25):
        yield "D", n, _minus_cartan(n, [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)])
    for n in (6, 7, 8):
        yield "E", n, _minus_cartan(n, [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)])
    yield "U", None, [[0, 1], [1, 0]]
    for d in range(3, 401, 4):
        yield "B", d, [[-(d + 1) // 2, 1], [1, -2]]
    for k in range(2, 41, 2):
        yield "rank1", k, [[k]]
        yield "rank1", -k, [[-k]]


def test_standard_invariants_match_elimination():
    # odd ranks are where a closed-form determinant sign can slip
    for kind, n, gram in _standard_grams():
        L = lat.make_standard(kind, n)
        assert L == lat.from_gram(gram), (kind, n)
        assert all(type(x) is int for row in L.gram for x in row)


class TestVectors:
    def test_nonsplit_generator_norm_and_divisibility(self):
        # h = 2w1 + (d+1)/2 w2 + e for d = 3 inside U + <-2>
        m = lat.parse_name("U+<-2>")
        h = (2, 2, 1)
        assert bilinear(m.gram, h, h) == 6
        assert claims.divisibility(m, h) == 2

    def test_divisibility_of_unimodular_basis(self):
        e8 = lat.make_standard("E", 8)
        assert claims.divisibility(e8, basis(e8)[0]) == 1

    def test_divisibility_errors(self):
        with pytest.raises(BadParameter, match="^divisibility of the zero vector is undefined$"):
            claims.divisibility(lat.U(), (0, 0))

    def test_class_of_square_minus_ten(self):
        L = k3_square()
        delta = ambient_vec(L, v1=4, w1=-4, v2=6, w2=6, e=-5)
        assert bilinear(L.gram, delta, delta) == -10
        assert claims.divisibility(L, delta) == 2


class TestComplements:
    def test_bd_complement(self):
        m = lat.parse_name("U+<-2>")
        comp = claims.orthogonal_complement(m, [(2, 2, 1)])
        assert comp.lattice.rank == 2
        assert rank2_isometric(comp.lattice, lat.make_standard("B", 3))
        assert comp.primitive

    def test_rank21_complement(self):
        L = k3_square()
        g = ambient_vec(L, v1=2, w1=14, e=-5)
        tau = ambient_vec(L, v2=1, w2=-2)
        comp = claims.orthogonal_complement(L, [g, tau])
        assert comp.lattice.rank == 21
        assert comp.lattice.signature == (2, 19)
        assert abs(comp.lattice.det) == 12

    def test_isotropic_member_degenerates(self):
        u = lat.U()
        with pytest.raises(BadParameter, match="^form restricted to sublattice is degenerate$"):
            claims.orthogonal_complement(u, [basis(u)[0]])

    def test_dependent_input(self):
        m = lat.parse_name("U+<-2>")
        with pytest.raises(BadParameter, match="^input vectors are linearly dependent$"):
            claims.orthogonal_complement(m, [(2, 2, 1), (4, 4, 2)])
        with pytest.raises(BadParameter, match="at least one vector"):
            claims.orthogonal_complement(m, [])

    def test_complement_always_primitive(self):
        random.seed(5)
        L = lat.parse_name("U+A2+<-2>")
        for _ in range(25):
            v = tuple(random.randint(-3, 3) for _ in range(L.rank))
            if bilinear(L.gram, v, v) == 0:  # the zero vector too
                continue
            try:
                comp = claims.orthogonal_complement(L, [v])
            except BadParameter as exc:
                assert str(exc) == "form restricted to sublattice is degenerate"
                continue
            assert all(d == 1 for d in smith_normal_form(comp.basis_matrix).diag)


class TestSplitting:
    def setup_method(self):
        self.L = k3_square()
        self.g = ambient_vec(self.L, v1=2, w1=14, e=-5)
        self.tau = ambient_vec(self.L, v2=1, w2=-2)
        self.split = claims.splitting_from(self.L, [self.g, self.tau])

    def norm(self, v):
        return bilinear(self.L.gram, v, v)

    def test_projection_values(self):
        delta = ambient_vec(self.L, v1=4, w1=-4, v2=6, w2=6, e=-5)
        d_m, d_n = claims.split_rational(self.split, delta)
        assert d_m == tuple(Fraction(-1, 3) * a + Fraction(3, 2) * b
                            for a, b in zip(self.g, self.tau))
        assert self.norm(d_m) == Fraction(-25, 3)
        assert self.norm(d_n) == Fraction(-5, 3)
        assert tuple(map(add, d_m, d_n)) == delta

    def test_projection_idempotent(self):
        g_m, g_n = claims.split_rational(self.split, self.g)
        assert not any(g_n) and g_m == self.g

    def test_norm_additivity(self):
        random.seed(2)
        for _ in range(20):
            v = tuple(random.randint(-2, 2) for _ in range(23))
            a, b = claims.split_rational(self.split, v)
            assert self.norm(a) + self.norm(b) == self.norm(v)

    def test_delta_prime(self):
        delta = ambient_vec(self.L, v1=4, w1=-4, v2=6, w2=6, e=-5)
        assert claims.delta_prime_test(self.split, delta) is True

    def test_member_of_summand(self):
        with pytest.raises(BadParameter, match="^delta lies in one of the summands$"):
            claims.delta_prime_test(self.split, self.tau)

    def test_positive_projection_fails(self):
        # v1 + w1 has norm 2 > 0 and nonzero parts in both summands
        v = ambient_vec(self.L, v1=1, w1=1)
        a, b = claims.split_rational(self.split, v)
        if any(a) and any(b) and self.norm(a) > 0:
            assert claims.delta_prime_test(self.split, v) is False


class TestIsometries:
    def test_reflection_spinor_signs(self):
        e8 = lat.make_standard("E", 8)
        assert group_claims.spinor_norm(group_claims.reflection(e8, basis(e8)[0])) == 1
        w = (1, 1)  # norm +2 in U
        assert group_claims.spinor_norm(group_claims.reflection(lat.U(), w)) == -1

    def test_minus_id_on_two_torsion(self):
        L = lat.parse_name("<-2>+<-2>")
        flags = group_claims.group_membership(minus_identity(L))
        assert flags.det == 1 and flags.spinor == 1
        assert flags.disc_action == "id"
        assert flags.in_so_tilde_plus

    def test_identity_in_every_subgroup(self):
        L = lat.parse_name("U+A2")
        flags = group_claims.group_membership(group_claims.Isometry.identity(L))
        assert flags.in_o_plus and flags.stable and flags.in_o_tilde_plus
        assert flags.in_so_tilde_plus and flags.in_o_hat_plus and flags.in_so_hat_plus
        # a unimodular lattice keeps no generator of its (trivial) A_L
        unimodular = lat.parse_name("U+E8")
        flags = group_claims.group_membership(group_claims.Isometry.identity(unimodular))
        assert flags.disc_action == "id" and flags.in_so_tilde_plus

    def test_minus_id_spinor_matches_positive_part(self):
        # sn(-id) = (-1)^{r} for signature (r, s)
        assert group_claims.spinor_norm(minus_identity(lat.U())) == -1
        assert group_claims.spinor_norm(minus_identity(lat.make_standard("A", 2))) == 1

    def test_signed_permutation_compares_moved_with_fixed_indices(self):
        # on the path 0 - 1 - 2 each adjacent swap keeps the pairings among
        # the indices it moves and breaks only those with the fixed index,
        # once in the row of the fixed index and once in its column
        L = lat.from_gram([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
        for perm, signs in (([1, 0, 2], (1, 1, 1)), ([0, 2, 1], (1, 1, 1)),
                            ([0, 1, 2], (1, -1, 1)), ([0, 1, 2], (1, 1, -1))):
            with pytest.raises(BadParameter, match="does not preserve the form"):
                lat.check_signed_permutation(L, perm, signs)
        lat.check_signed_permutation(L, [2, 1, 0], (1, 1, 1))  # the diagram flip
        lat.check_signed_permutation(L, [0, 1, 2], (-1, -1, -1))

    def test_not_isometry(self):
        with pytest.raises(BadParameter, match="^matrix does not preserve the form$"):
            group_claims.Isometry(lat.U(), [[1, 1], [0, 1]])

    def test_compose(self):
        # the product of the two simple reflections of A2 is the Coxeter
        # element, of order 3; isometries of two lattices do not compose
        L = lat.make_standard("A", 2)
        r0, r1 = (group_claims.reflection(L, v) for v in basis(L))
        c = compose(r0, r1)
        assert c == group_claims.Isometry(L, matmul(r0.matrix, r1.matrix))
        assert compose(compose(c, c), c) == group_claims.Isometry.identity(L)
        with pytest.raises(BadParameter, match="^isometries of different lattices$"):
            compose(r0, group_claims.Isometry.identity(lat.U()))

    def test_hat_membership(self):
        # -id acts as -id on A_L of <-8>, with det -1 in rank 1
        L = lat.rank1(-8)
        flags = group_claims.group_membership(minus_identity(L))
        assert flags.disc_action == "-id"
        assert flags.det == -1
        assert flags.in_o_hat_plus and flags.in_so_hat_plus
        assert not flags.in_o_tilde_plus

    @pytest.mark.parametrize("spec", ["2A2", "A3+E6", "D4+<-6>", "D5+2<-2>"])
    def test_disc_action_of_diagram_and_component_swaps(self, spec):
        gd = glue.make_glue(spec)
        G = gd.base.gram
        n = len(G)
        ginv = rational_inverse(G)

        def acts_as(m, sign):
            # the definition: (g - sign id) G^-1 is integral
            return all(
                sum((m[i][k] - sign * (i == k)) * ginv[k][j] for k in range(n)).denominator == 1
                for i in range(n)
                for j in range(n)
            )

        actions = []
        for iso in tau_generator_isometries(gd):
            m = iso.matrix
            expected = "id" if acts_as(m, 1) else "-id" if acts_as(m, -1) else "other"
            assert group_claims.group_membership(iso).disc_action == expected
            actions.append(expected)
        assert "other" in actions or "-id" in actions

    def test_membership_takes_one_smith_form(self, monkeypatch):
        calls = []

        def counting(a):
            calls.append(a)
            return smith_normal_form(a)

        monkeypatch.setattr(group_claims, "smith_normal_form", counting)
        gd = glue.make_glue("D5+2<-2>")
        for iso in tau_generator_isometries(gd):
            calls.clear()
            group_claims.group_membership(iso)
            assert len(calls) == 1

    def test_disc_action_examples(self):
        # the diagram flip of A2 is -id on Z/3, that of D5 is -id on Z/4;
        # -1 on <-2> is trivial on Z/2; swapping two equal summands is neither
        def actions(spec):
            gd = glue.make_glue(spec)
            return [group_claims.group_membership(g).disc_action
                    for g in tau_generator_isometries(gd)]

        assert actions("A2") == ["-id"]
        assert actions("2A2") == ["other", "other", "other"]
        assert actions("D5+2<-2>") == ["-id", "id", "id", "other"]


def _reflections(L, rng):
    """(v, rho_v) for vectors v of nonzero norm whose reflections map L to
    itself: every small vector in rank <= 4, random sparse ones beyond."""
    if L.rank <= 4:
        pool = list(itertools.product(range(-2, 3), repeat=L.rank))
    else:
        pool = []
        for _ in range(60):
            c = [0] * L.rank
            for i in rng.sample(range(L.rank), rng.randint(1, 3)):
                c[i] = rng.choice((-1, 1))
            pool.append(tuple(c))
    out = []
    for v in pool:
        if bilinear(L.gram, v, v) != 0:
            try:
                out.append((v, group_claims.reflection(L, v)))
            except BadParameter as exc:
                assert str(exc) == "reflection does not preserve the lattice"
                continue
    return out


@pytest.mark.parametrize("name", ["U+A2", "U+U", "U+<2>", "U+U+U+E8+E8+<-2>"])
def test_spinor_norm_counts_reflections_in_positive_vectors(name):
    # g = rho_{v_1} ... rho_{v_m} has spinor norm (-1)^#{i : v_i^2 > 0} and
    # determinant (-1)^m; products in U+U and U+<2> often move some x to
    # g(x) with g(x) - x isotropic
    rng = random.Random(5)
    L = lat.parse_name(name)
    reflections = [(bilinear(L.gram, v, v), rho) for v, rho in _reflections(L, rng)]
    assert {norm > 0 for norm, _ in reflections} == {True, False}
    for _ in range(150 if L.rank <= 4 else 30):
        factors = [rng.choice(reflections) for _ in range(rng.randint(0, 5))]
        g = group_claims.Isometry.identity(L)
        for _, rho in factors:
            g = compose(g, rho)
        assert matmul(matmul(tuple(zip(*g.matrix)), L.gram), g.matrix) == L.gram
        assert group_claims.spinor_norm(g) == (-1) ** sum(1 for norm, _ in factors if norm > 0)
        assert g.det == (-1) ** len(factors)
    assert group_claims.spinor_norm(minus_identity(L)) == (-1) ** L.signature[0]


def _membership_inputs(name):
    """Isometries of the lattice ``name``: the diagram generators of a root
    sum, or products of reflections of U+U+U+E8+E8+<-2>."""
    if name != "U+U+U+E8+E8+<-2>":
        return tau_generator_isometries(glue.make_glue(name))
    rng = random.Random(9)
    L = lat.parse_name(name)
    reflections = [rho for _, rho in _reflections(L, rng)]
    out = []
    for _ in range(12):
        g = group_claims.Isometry.identity(L)
        for rho in rng.sample(reflections, rng.randint(1, 3)):
            g = compose(g, rho)
        assert matmul(matmul(tuple(zip(*g.matrix)), L.gram), g.matrix) == L.gram
        out.append(g)
    return out


@pytest.mark.parametrize("name", ["U+U+U+E8+E8+<-2>", "A1+A2+A3+D4+E6+E7"])
def test_kept_block_disc_action_matches_full_product(name):
    # the kept block of U G g V, read off the full n x n product
    isometries = _membership_inputs(name)
    assert isometries
    for g in isometries:
        smith = smith_normal_form(g.domain.gram)
        kept = [k for k, d in enumerate(smith.diag) if d > 1]
        assert 0 < len(kept) < g.domain.rank
        m = matmul(matmul(matmul(smith.left, g.domain.gram), g.matrix), smith.right)
        d = smith.diag
        full = tuple(tuple(m[k][i] // d[i] % d[k] for k in kept) for i in kept)
        assert group_claims.disc_action(g, smith, kept) == full


class TestBinaryForms:
    def test_sign_of_off_diagonal_is_absorbed(self):
        a = lat.from_gram([[-2, 1], [1, -2]])
        b = lat.from_gram([[-2, -1], [-1, -2]])
        assert rank2_isometric(a, b)

    def test_distinct_forms(self):
        assert not rank2_isometric(lat.make_standard("B", 3), lat.make_standard("B", 7))

    def test_reduction_canonical(self):
        red = reduced_binary(lat.from_gram([[-4, -2], [-2, -2]]).gram)
        assert red == ((-2, 0), (0, -2))


class TestNamesAndJson:
    def test_parse_with_counts_and_twists(self):
        a = lat.parse_name("2E8+2A1")
        assert a.rank == 18 and a.det == 4
        b = lat.parse_name("U(2)")
        assert b.gram == ((0, 2), (2, 0))

    def test_parse_errors(self):
        with pytest.raises(BadParameter):
            lat.parse_name("Q5")
        with pytest.raises(BadParameter):
            lat.parse_name("U++U")
        # a zero multiplicity is refused by name, not dropped
        for name, term in (("U+0E8", "0E8"), ("00A1", "00A1"), ("E8+0A1", "0A1"),
                           ("0U(2)+U", "0U(2)")):
            with pytest.raises(BadParameter) as err:
                lat.parse_name(name)
            assert str(err.value) == f"lattice term {term!r} has multiplicity 0"
        # so is a twist of 0
        for name, term in (("E8+A1(0)", "A1(0)"), ("U(00)", "U(00)")):
            with pytest.raises(BadParameter) as err:
                lat.parse_name(name)
            assert str(err.value) == f"lattice term {term!r} has twist 0"

    def test_rank_cap_counts_every_summand(self):
        # U and B(d) have rank 2, <n> rank 1, and A, D, E their index
        assert len(lat.parse_terms("490U+E8(2)+A3+B3+<-2>+<4>")) == 495
        assert len(lat.parse_terms("990A1+D10")) == 991
        for name in ("991A1+D10", "500U+<-2>", "496B3+E8+<-2>"):
            with pytest.raises(BadParameter) as err:
                lat.parse_terms(name)
            assert str(err.value) == f"lattice name {name!r} has rank above the cap 1000"

    def test_json_round_trip(self):
        L = lat.parse_name("U+<-2>")
        text = lattice_to_json(L)
        back = lat.lattice_from_json(text)
        assert back.gram == L.gram
        obj = json.loads(text)
        assert obj["rank"] == 3 and obj["gram"] == [list(row) for row in L.gram]

    def test_load_lattice_from_file(self, tmp_path):
        p = tmp_path / "lat.json"
        p.write_text(lattice_to_json(lat.make_standard("B", 7)))
        assert lat.load_lattice(str(p)).gram == lat.make_standard("B", 7).gram
