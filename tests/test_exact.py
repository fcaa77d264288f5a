import ast
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cuspidal import cusps, exact, glue
from cuspidal.errors import BadParameter, GroupTooLarge, SingularMatrix
from cuspidal.exact import (
    apply,
    block_diagonal,
    diagonal,
    factorize,
    hnf_coords,
    hnf_rows,
    kernel_basis,
    lll_reduce,
    matmul,
    _round_div,
    det_and_signature,
    scaled,
    smith_normal_form,
)
from group_claims import positive_definite_basis
from helpers import diagonal_matrix
from kernel_oracles import apply_by_loops, product_by_loops, smith_normal_form_full_rows
from fraction_oracles import (
    bareiss_det,
    full_scan_pivot,
    lagrange_signature,
    rational_inverse,
    solve_rational,
    trial_division,
)

U_GRAM = ((0, 1), (1, 0))
E8_GRAM = (
    (-2, 1, 0, 0, 0, 0, 0, 0),
    (1, -2, 1, 0, 0, 0, 0, 0),
    (0, 1, -2, 1, 0, 0, 0, 1),
    (0, 0, 1, -2, 1, 0, 0, 0),
    (0, 0, 0, 1, -2, 1, 0, 0),
    (0, 0, 0, 0, 1, -2, 1, 0),
    (0, 0, 0, 0, 0, 1, -2, 0),
    (0, 0, 1, 0, 0, 0, 0, -2),
)


def as_matrix(rows) -> tuple:
    """The matrix on integer ``rows``: a tuple of int tuples."""
    return tuple(map(tuple, rows))


def transpose(a) -> tuple:
    return tuple(zip(*a))


def square_ints(n_max=5, lo=-9, hi=9):
    return st.integers(1, n_max).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(lo, hi), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


def symmetric_ints(n_max=5, lo=-6, hi=6):
    def sym(rows):
        n = len(rows)
        return [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]

    return square_ints(n_max, lo, hi).map(sym)


def unimodular_from_ops(n, ops):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in ops:
        i, j, c = i % n, j % n, c
        if i != j:
            for k in range(n):
                m[i][k] += c * m[j][k]
    return as_matrix(m)


@pytest.mark.parametrize("call, message", [
    (lambda: block_diagonal([((1, 2),)]), "block_diagonal needs square blocks"),
    (lambda: apply(((1, 2),), (1,)), "shape mismatch"),
    (lambda: lll_reduce(((-2, 1), (0, -2))), "matrix is not symmetric"),
], ids=["block_diagonal", "apply", "lll_reduce"])
def test_argument_checks_raise_bad_parameter(call, message):
    with pytest.raises(BadParameter, match=f"^{message}$"):
        call()


class TestSmith:
    def test_hyperbolic_plane(self):
        assert smith_normal_form(U_GRAM).diag == (1, 1)

    def test_diagonal_input(self):
        assert smith_normal_form(((-2, 0), (0, -6))).diag == (2, 6)

    def test_b3(self):
        # 2x2 row/column reduction by hand gives diag (1, 3)
        s = smith_normal_form(((-2, 1), (1, -2)))
        assert s.diag == (1, 3)

    @given(square_ints())
    def test_decomposition_invariants(self, rows):
        a = as_matrix(rows)
        s = smith_normal_form(a)
        assert matmul(matmul(s.left, a), s.right) == diagonal_matrix(s)
        assert abs(bareiss_det(s.left)) == 1
        assert abs(bareiss_det(s.right)) == 1
        nonzero = [d for d in s.diag if d]
        assert all(nonzero[i + 1] % nonzero[i] == 0 for i in range(len(nonzero) - 1))
        assert list(s.diag[len(nonzero):]) == [0] * (len(s.diag) - len(nonzero))

    @given(square_ints())
    def test_diag_product_is_det(self, rows):
        a = as_matrix(rows)
        assert math.prod(smith_normal_form(a).diag) == abs(bareiss_det(a))

    def test_no_coefficient_explosion(self):
        # remainder-and-swap elimination grew these entries past a million
        # bits at pivot 2 and never returned; the gcd mix answers at once
        a = (
            (17, -22, -28, -45, 21),
            (-22, 32, 33, 58, -19),
            (-28, 33, 35, 61, -10),
            (-45, 58, 61, 99, -27),
            (21, -19, -10, -27, -30),
        )
        s = smith_normal_form(a)
        assert matmul(matmul(s.left, a), s.right) == diagonal_matrix(s)
        assert abs(bareiss_det(s.left)) == abs(bareiss_det(s.right)) == 1
        assert s.diag == (1, 1, 1, 1, 10083)

    @pytest.mark.parametrize(
        "name, digest",
        sorted(json.loads((Path(__file__).parent / "data" / "smith_pins.json").read_text())
               .items()),
    )
    def test_pinned_presentations(self, name, digest):
        # sha256 of (U, diag, V) for the Table 1 bases and A1-A17, D4-D18 and
        # E6-E8, recorded from the gcd-step Smith form: the coordinates that
        # glue enum prints are written in this presentation
        snf = smith_normal_form(glue.root_sum_base(name)[0].gram)
        text = json.dumps([snf.left, list(snf.diag), snf.right])
        assert hashlib.sha256(text.encode()).hexdigest() == digest


@st.composite
def smith_inputs(draw):
    """Square and rectangular matrices with zero rows and columns, with
    several units in one row, or with no unit entry at all."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    value = draw(st.sampled_from((st.integers(-9, 9),
                                  st.sampled_from((0, 0, 2, -2, 3, -4, 6, -9, 12)))))
    rows = [[draw(value) for _ in range(n)] for _ in range(m)]
    for i in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        rows[i] = [0] * n
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in rows:
            row[j] = 0
    if draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        for j in draw(st.sets(st.integers(0, n - 1), min_size=min(2, n), max_size=n)):
            rows[i][j] = draw(st.sampled_from((1, -1)))
    return as_matrix(rows)


def _full_scan_smith(a):
    with mock.patch.object(exact, "_pivot", full_scan_pivot):
        return smith_normal_form(a)


class TestSmithRowSupport:
    """Column operations on the rows that are nonzero in their columns, and
    row operations on the nonzero entries of their source row, take the
    same steps as operations on whole rows and columns."""

    @settings(max_examples=300)
    @given(smith_inputs())
    def test_matches_whole_row_steps(self, a):
        assert smith_normal_form(a) == smith_normal_form_full_rows(a)

    @pytest.mark.parametrize("spec", [c.roots for c in cusps.TABLE1_ROWS]
                             + ["4A3", "E8+E7+E6+D5+D4+A3+A1", "3A2+<-6>"])
    def test_matches_whole_row_steps_on_root_sums(self, spec):
        gram = glue.make_glue(spec).base.gram
        assert smith_normal_form(gram) == smith_normal_form_full_rows(gram)


class TestSmithUnitPivot:
    """Stopping the pivot search at a unit changes no step of the Smith form."""

    @settings(max_examples=300)
    @given(smith_inputs())
    def test_matches_the_full_scan(self, a):
        assert smith_normal_form(a) == _full_scan_smith(a)

    @pytest.mark.parametrize("spec", [c.roots for c in cusps.TABLE1_ROWS])
    def test_matches_the_full_scan_on_table1_bases(self, spec):
        gram = glue.make_glue(spec).base.gram
        assert smith_normal_form(gram) == _full_scan_smith(gram)


def int_matrices(rows, cols):
    """rows x cols integer matrices, either mostly zero or dense, with negative entries."""
    sparse = st.sampled_from((0,) * 8 + (-3, -1, 1, 2))
    return st.sampled_from((sparse, st.integers(-50, 50))).flatmap(
        lambda value: st.lists(
            st.lists(value, min_size=cols, max_size=cols), min_size=rows, max_size=rows
        )
    )


class TestProduct:
    @settings(max_examples=200)
    @given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7), st.data())
    def test_matches_triple_sum(self, rows, inner, cols, data):
        a = data.draw(int_matrices(rows, inner))
        b = data.draw(int_matrices(inner, cols))
        expected = [
            [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)
        ]
        assert matmul(a, b) == as_matrix(expected)

    @settings(max_examples=300)
    @given(st.integers(0, 9), st.integers(0, 9), st.integers(1, 9), st.data())
    def test_product_and_apply_match_loops_row_by_row(self, rows, inner, cols, data):
        # each row sparse or dense on its own, so one product takes both of
        # its row kernels; a matrix with no rows is 0 x 0, so only a 0 x 0
        # matrix or one with empty rows multiplies it
        inner = inner if rows else 0
        sparse = st.sampled_from((0,) * 8 + (-3, -1, 1, 2))
        row = st.sampled_from((sparse, st.integers(-50, 50))).flatmap(
            lambda value: st.lists(value, min_size=inner, max_size=inner))
        a = data.draw(st.lists(row, min_size=rows, max_size=rows))
        b = data.draw(int_matrices(inner, cols)) if inner else []
        vec = data.draw(st.lists(st.integers(-50, 50), min_size=inner, max_size=inner))
        assert matmul(a, b) == as_matrix(product_by_loops(a, b))
        assert list(apply(a, vec)) == apply_by_loops(a, vec)

    def test_shape_mismatch(self):
        with pytest.raises(BadParameter, match="^shape mismatch$"):
            matmul([[1, 2]], [[1, 2]])

    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    def test_arithmetic_results_match_public_construction(self, rows, cols, data):
        # results are equal matrices of plain tuples of ints, from list rows too
        a = data.draw(int_matrices(rows, cols))
        b = data.draw(int_matrices(rows, cols))
        t = data.draw(st.integers(-3, 3))
        results = {
            "matmul": (matmul(a, transpose(b)), [[sum(x * y for x, y in zip(r, s)) for s in b]
                                                 for r in a]),
            "neg": (scaled(a, -1), [[-x for x in r] for r in a]),
            "scaled": (scaled(a, t), [[t * x for x in r] for r in a]),
            "transpose": (transpose(a), [list(c) for c in zip(*a)]),
        }
        for name, (got, rows_expected) in results.items():
            assert got == as_matrix(rows_expected), name
            assert type(got) is tuple, name
            assert all(type(r) is tuple and all(type(x) is int for x in r)
                       for r in got), name


class TestSignature:
    def test_examples(self):
        assert det_and_signature(U_GRAM) == (-1, (1, 1))
        assert det_and_signature(E8_GRAM) == (1, (0, 8))
        assert det_and_signature(()) == (1, (0, 0))

    def test_k3_square_lattice(self):
        blocks = [U_GRAM, U_GRAM, U_GRAM, E8_GRAM, E8_GRAM, ((-2,),)]
        g = block_diagonal(blocks)
        assert det_and_signature(g) == (2, (3, 20))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            det_and_signature(((1, 1), (1, 1)))
        with pytest.raises(BadParameter, match="^matrix is not symmetric$"):
            det_and_signature(((1, 1), (0, 1)))

    def test_matches_minor_oracle(self):
        # Jacobi: when all leading minors are nonzero, negatives are sign changes
        g = ((2, 1, 0), (1, -3, 2), (0, 2, 1))
        minors = [1]
        for k in range(1, 4):
            minors.append(bareiss_det([row[:k] for row in g[:k]]))
        changes = sum(1 for k in range(1, 4) if minors[k] * minors[k - 1] < 0)
        assert det_and_signature(g) == (minors[3], (3 - changes, changes))

    @given(
        symmetric_ints(),
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-2, 2)),
            max_size=8,
        ),
    )
    def test_congruence_invariance(self, rows, ops):
        g = as_matrix(rows)
        if bareiss_det(g) == 0:
            return
        t = unimodular_from_ops(len(g), ops)
        assert det_and_signature(matmul(matmul(transpose(t), g), t)) == det_and_signature(g)


def nonsingular_symmetric(n_max=8, lo=-4, hi=4):
    """Nonsingular symmetric integer matrices; about half have an all-zero diagonal."""

    def build(args):
        rows, zero_diagonal = args
        n = len(rows)
        return as_matrix([[0 if i == j and zero_diagonal else rows[min(i, j)][max(i, j)]
                           for j in range(n)] for i in range(n)])

    return (
        st.tuples(square_ints(n_max, lo, hi), st.booleans())
        .map(build)
        .filter(lambda a: bareiss_det(a) != 0)
    )


class TestSignatureAgainstLagrange:
    @settings(deadline=None, max_examples=300)
    @given(nonsingular_symmetric())
    def test_matches_fraction_lagrange(self, a):
        assert det_and_signature(a) == (bareiss_det(a), lagrange_signature(a))

    @settings(deadline=None, max_examples=150)
    @given(nonsingular_symmetric())
    def test_positive_basis_is_orthogonal_and_maximal(self, a):
        rows = positive_definite_basis(a)
        assert len(rows) == det_and_signature(a)[1][0]
        if rows:
            gram = matmul(matmul(rows, a), transpose(rows))
            assert all(gram[i][j] == 0 for i in range(len(rows)) for j in range(i))
            assert all(gram[i][i] > 0 for i in range(len(rows)))

    def test_zero_pivots(self):
        # each takes both zero-pivot branches: a swap with a later nonzero
        # diagonal entry, then a row-and-column add
        assert det_and_signature(((0, 0, 1), (0, -2, 0), (1, 0, 0))) == (2, (1, 2))
        assert det_and_signature(block_diagonal([U_GRAM] * 3 + [((-2,),)])) == (2, (3, 4))


class TestLLL:
    def test_rank_one(self):
        red, t = lll_reduce(((-2,),))
        assert red == ((-2,),) and t == ((1,),)

    def test_binary_orthogonalized(self):
        # determinant 4 forces diag(-2, -2); a basis change is expected
        red, t = lll_reduce(((-4, -2), (-2, -2)))
        assert red[0][1] == 0
        assert sorted([red[0][0], red[1][1]]) == [-2, -2]
        assert abs(bareiss_det(t)) == 1

    def test_e8_stable(self):
        red, t = lll_reduce(E8_GRAM)
        assert all(red[i][i] == -2 for i in range(8))
        assert abs(bareiss_det(t)) == 1

    def test_indefinite_rejected(self):
        with pytest.raises(BadParameter, match="^gram matrix is not definite$"):
            lll_reduce(U_GRAM)

    @given(
        symmetric_ints(n_max=4, lo=-3, hi=3),
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-2, 2)),
            max_size=6,
        ),
    )
    def test_preserves_det_and_signature(self, rows, ops):
        n = len(rows)
        # build a definite gram: G = -(T^t T + I scaled)
        t = unimodular_from_ops(n, ops)
        spd = matmul(transpose(t), t)
        g = as_matrix([[-(spd[i][j] + (2 if i == j else 0)) for j in range(n)]
                       for i in range(n)])
        red, tr = lll_reduce(g)
        assert det_and_signature(red) == det_and_signature(g) == (bareiss_det(g), (0, n))
        assert matmul(matmul(transpose(tr), g), tr) == red


def definite_grams(n_max=5):
    """Definite Gram matrices +-(B B^t + I) of random integer B."""

    def gram(b, sign):
        n = len(b)
        return [[sign * (sum(x * y for x, y in zip(b[i], b[j])) + (i == j))
                 for j in range(n)] for i in range(n)]

    return st.builds(gram, square_ints(n_max, -4, 4), st.sampled_from((1, -1)))


def fraction_gram_schmidt(gram):
    """Textbook Gram-Schmidt over Q: mu and the squared norms."""
    n = len(gram)
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = []
    for i in range(n):
        for j in range(i):
            v = Fraction(gram[i][j]) - sum(mu[i][k] * mu[j][k] * norms[k] for k in range(j))
            mu[i][j] = v / norms[j]
        norms.append(gram[i][i] - sum(mu[i][k] ** 2 * norms[k] for k in range(i)))
    return mu, norms


class TestIntegralLLL:
    @settings(max_examples=150, deadline=None)
    @given(definite_grams())
    def test_output_is_lll_reduced(self, rows):
        g = as_matrix(rows)
        red, t = lll_reduce(g)
        assert matmul(matmul(transpose(t), g), t) == red
        assert abs(bareiss_det(t)) == 1
        sign = -1 if rows[0][0] < 0 else 1
        mu, norms = fraction_gram_schmidt(scaled(red, sign))
        n = len(rows)
        for i in range(n):
            for j in range(i):
                assert abs(mu[i][j]) <= Fraction(1, 2)
        for k in range(1, n):
            assert norms[k] >= (Fraction(99, 100) - mu[k][k - 1] ** 2) * norms[k - 1]

    @pytest.mark.parametrize(
        "pin",
        json.loads((Path(__file__).parent / "data" / "lll_pins.json").read_text()),
        ids=lambda pin: pin["name"],
    )
    def test_pinned_outputs(self, pin):
        # (red, T) recorded from the rational-arithmetic LLL; the integral
        # one must take the same decisions and return the same basis
        red, t = lll_reduce(as_matrix(pin["gram"]))
        assert red == as_matrix(pin["red"])
        assert t == as_matrix(pin["T"])

    def test_round_div_matches_fraction_round(self):
        for b in range(1, 9):
            for a in range(-40, 41):
                assert _round_div(a, b) == round(Fraction(a, b)), (a, b)
        # exact ties go to the even neighbour
        assert [_round_div(a, 2) for a in (-5, -3, -1, 1, 3, 5)] == [-2, -2, 0, 0, 2, 2]


class TestSolve:
    def test_identity(self):
        assert solve_rational(diagonal((1, 1)), (3, 4)) == (3, 4)

    def test_dual_of_u(self):
        assert solve_rational(U_GRAM, (1, 0)) == (0, 1)

    def test_dual_of_minus_two(self):
        from fractions import Fraction

        assert solve_rational(((-2,),), (1,)) == (Fraction(-1, 2),)

    def test_no_solution(self):
        assert solve_rational(((1,), (1,)), (1, 2)) is None

    @given(square_ints(n_max=4), st.lists(st.integers(-5, 5), min_size=4, max_size=4))
    def test_solution_satisfies_system(self, rows, b):
        a = as_matrix(rows)
        b = b[: len(a)]
        x = solve_rational(a, b)
        if x is not None:
            assert list(apply(a, x)) == [v for v in b]


class TestFactorize:
    def test_small_numbers(self):
        for n in range(1, 2001):
            f = factorize(n)
            assert math.prod(p**e for p, e in f.items()) == n
            assert all(e >= 1 and all(p % q for q in range(2, math.isqrt(p) + 1))
                       for p, e in f.items())

    def test_large_prime_and_square(self):
        assert factorize(10**12 + 39) == {10**12 + 39: 1}
        assert factorize(2**19 * 3**10 * 7**2) == {2: 19, 3: 10, 7: 2}

    def test_rejects_nonpositive(self):
        with pytest.raises(BadParameter, match="^factorize needs a positive integer$"):
            factorize(0)

    def test_matches_trial_division_up_to_1e5(self):
        for n in range(1, 10**5 + 1):
            f = factorize(n)
            assert f == trial_division(n) and list(f) == sorted(f)

    def test_products_of_two_primes_near_1e9(self):
        primes = (999999929, 999999937, 1000000007, 1000000009, 1000000021)
        assert all(trial_division(p) == {p: 1} for p in primes)
        for i, p in enumerate(primes):
            for q in primes[i:]:
                assert factorize(p * q) == ({p: 2} if p == q else {p: 1, q: 1})
        assert factorize(2**3 * 3 * 127 * 999999929 * 1000000009) == {
            2: 3, 3: 1, 127: 1, 999999929: 1, 1000000009: 1}

    def test_large_prime_beyond_trial_division(self):
        # trial division to the square root of 2^61 - 1 takes about 6 * 10^8 steps
        assert factorize(2**61 - 1) == {2**61 - 1: 1}

    def test_composites_beyond_the_miller_rabin_bound_split_by_rho(self):
        # each lies above 3.3 * 10^24: trial division takes 2^100 * 3^5,
        # and rho splits 131^12 and 137^6 * 139^6, which have no factor below 128
        for n in (131**12, 2**100 * 3**5, 137**6 * 139**6):
            assert factorize(n) == trial_division(n)

    def test_prime_beyond_the_miller_rabin_bound_names_it(self):
        with pytest.raises(GroupTooLarge, match=(
                "^factor 618970019642690137449562111 passes Miller-Rabin but exceeds "
                "its proof bound 3317044064679887385961981$")):
            factorize(3 * (2**89 - 1))

    def test_rho_stops_at_its_step_bound(self, monkeypatch):
        # rho splits 999999929 * 1000000009 after about 1.8 * 10^4 steps
        n = 999999929 * 1000000009
        monkeypatch.setattr(exact, "_RHO_LIMIT", 10**4)
        with pytest.raises(GroupTooLarge, match=(
                f"^Pollard rho finds no factor of {n} within its step bound 10000$")):
            factorize(n)
        monkeypatch.setattr(exact, "_RHO_LIMIT", 2 * 10**4)
        assert factorize(n) == {999999929: 1, 1000000009: 1}

    def test_small_factors_take_trial_division_alone(self, monkeypatch):
        monkeypatch.setattr(exact, "_prime_factors", None)
        assert factorize(30000) == {2: 4, 3: 1, 5: 4}


class TestKernelAndHnf:
    def test_kernel_is_saturated(self):
        k = kernel_basis(((2, 4, 6),))
        # saturation: SNF invariant factors of the basis are all 1
        assert all(d == 1 for d in smith_normal_form(k).diag)
        for row in k:
            assert sum(a * b for a, b in zip((2, 4, 6), row)) == 0

    def test_hnf_pivots(self):
        basis = hnf_rows([[2, 0], [0, 2], [1, 1]])
        assert basis == ((1, 1), (0, 2))

    def test_rational_inverse(self):
        inv = rational_inverse(U_GRAM)
        assert [[int(x) for x in row] for row in inv] == [[0, 1], [1, 0]]

    def test_rational_inverse_of_singular_matrix(self):
        with pytest.raises(SingularMatrix):
            rational_inverse(((1, 2), (2, 4)))
        with pytest.raises(SingularMatrix):
            rational_inverse(((0, 0), (0, 0)))

    @given(square_ints(n_max=4), st.lists(st.integers(-12, 12), min_size=4, max_size=4))
    def test_hnf_coords_match_rational_inverse(self, rows, target):
        basis = hnf_rows(rows)
        n = len(rows)
        if len(basis) != n:
            return  # singular: hnf_coords needs a full-rank basis
        P = basis
        assert all(P[i][j] == 0 for i in range(n) for j in range(i))
        row = target[:n]
        pinv = rational_inverse(P)
        exact = [sum(row[k] * pinv[k][j] for k in range(n)) for j in range(n)]
        y = hnf_coords(P, row)
        if all(x.denominator == 1 for x in exact):
            assert y == [int(x) for x in exact]
        else:
            assert y is None
        # every integer combination of the basis is found again
        member = [sum(c * P[i][j] for i, c in enumerate(target[:n])) for j in range(n)]
        assert hnf_coords(P, member) == target[:n]

    def test_hnf_coords_outside_lattice(self):
        P = hnf_rows([[2, 0], [0, 2], [1, 1]])  # ((1, 1), (0, 2))
        assert hnf_coords(P, [3, 5]) == [3, 1]
        assert hnf_coords(P, [1, 0]) is None
        assert hnf_coords(P, [0, 1]) is None


# No Fraction Gauss-Jordan runs in the package: dual, quotient and
# splitting coordinates come from Smith or Hermite transforms in integers,
# and the Fraction solvers live in tests/fraction_oracles.py as references.
_FRACTION_SOLVERS = {"rational_inverse", "solve_rational"}
_SRC = Path(__file__).resolve().parents[1] / "src" / "cuspidal"


def _solver_calls(tree):
    """(enclosing function, name) for each definition or call of a Fraction solver."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in _FRACTION_SOLVERS:
                out.append((func, node.name))
            func = node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in _FRACTION_SOLVERS:
                out.append((func, name))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_fraction_solvers_only_in_exact_and_rational_splitting():
    found = []
    for path in sorted(_SRC.glob("*.py")):
        for func, name in _solver_calls(ast.parse(path.read_text(encoding="utf-8"))):
            found.append(f"{path.stem}.{func}: {name}")
    assert found == []
    # the scan itself sees a definition and a call
    probe = ast.parse("def solve_rational(a, b):\n    pass\n\ndef f():\n    rational_inverse(a)\n")
    assert _solver_calls(probe) == [(None, "solve_rational"), ("f", "rational_inverse")]


# The integer kernels behind determinants, signatures, spinor norms and
# reflections; the last two, which no command runs, live with the tests.
_INTEGER_KERNELS = {
    _SRC / "exact.py": {"det_and_signature"},
    Path(__file__).parent / "group_claims.py": {
        "positive_definite_basis", "spinor_norm", "reflection"},
}


def _fraction_builders(tree):
    """Names of the top-level functions that call ``Fraction``."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            for call in ast.walk(node):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == "Fraction"):
                    out.add(node.name)
    return out


def test_integer_kernels_construct_no_fraction():
    for path, kernels in _INTEGER_KERNELS.items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        assert kernels <= defined
        assert kernels & _fraction_builders(tree) == set()
    # the scan sees the final division of the rational splitting
    claims_tree = ast.parse((_SRC / "claims.py").read_text(encoding="utf-8"))
    assert "split_rational" in _fraction_builders(claims_tree)
