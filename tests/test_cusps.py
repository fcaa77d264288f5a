import json
from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial, gcd, isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

import group_claims
from cuspidal import claims, cusps, fqf, glue
from cuspidal.cli import run
from cuspidal.exact import bilinear, factorize
from cuspidal.errors import BadParameter, InternalError
from embedding_oracles import build_polarized
from form_oracles import mod_pm1
from helpers import (
    a_n_core, adds_roots, b_value, base_in_overlattice, class_of, glue_orbits, part_forms,
    q_diagonal, q_value, tau_image,
)


class TestCase:
    def test_squarefree_decomposition(self):
        c = cusps.PolarizationCase(12, "split")
        assert (c.dprime, c.k, c.K) == (3, 2, 4)
        c = cusps.PolarizationCase(9, "split")
        assert (c.dprime, c.k, c.K) == (1, 3, 3)
        c = cusps.PolarizationCase(27, "nonsplit")
        assert (c.dprime, c.k, c.K) == (3, 3, 3)

    def test_primes_of_2d_come_with_the_case(self):
        assert cusps.PolarizationCase(1, "split").primes == (2,)
        assert cusps.PolarizationCase(12, "split").primes == (2, 3)
        assert cusps.PolarizationCase(75, "nonsplit").primes == (2, 3, 5)
        assert cusps.squarefree_decompose({2: 3, 3: 1, 5: 2}) == (6, 10)

    def test_nonsplit_requires_three_mod_four(self):
        with pytest.raises(BadParameter, match="^non-split embeddings require d = 3 mod 4$"):
            cusps.PolarizationCase(5, "nonsplit")
        with pytest.raises(BadParameter, match="^d must be a positive integer$"):
            cusps.PolarizationCase(0, "split")


class TestBuildPolarized:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_split_invariants(self, d):
        pe = build_polarized(cusps.PolarizationCase(d, "split"))
        n = pe.complement.lattice
        assert bilinear(pe.ambient.gram, pe.h, pe.h) == 2 * d
        assert claims.divisibility(pe.ambient, pe.h) == 1
        assert n.det == 4 * d
        assert n.signature == (2, 20)
        assert pe.disc.cardinality == 4 * d

    @pytest.mark.parametrize("d", [3, 7, 11])
    def test_nonsplit_invariants(self, d):
        pe = build_polarized(cusps.PolarizationCase(d, "nonsplit"))
        n = pe.complement.lattice
        assert bilinear(pe.ambient.gram, pe.h, pe.h) == 2 * d
        assert claims.divisibility(pe.ambient, pe.h) == 2
        assert n.det == d
        assert pe.disc.orders == (d,)

    def test_matches_generic_complement(self):
        pe = build_polarized(cusps.PolarizationCase(3, "split"))
        generic = claims.orthogonal_complement(pe.ambient, [pe.h])
        assert generic.lattice.det == pe.complement.lattice.det
        assert generic.lattice.signature == pe.complement.lattice.signature

    def test_light_model_agrees(self):
        for d, emb in ((4, "split"), (7, "nonsplit"), (9, "split")):
            case = cusps.PolarizationCase(d, emb)
            pe = build_polarized(case)
            model = cusps.disc_model(case)
            ok, _ = fqf.are_isometric(pe.disc, model.form)
            assert ok


class TestNu:
    def test_double_epw(self):
        assert cusps.nu(cusps.PolarizationCase(2, "split")).formula == 1

    def test_small_examples(self):
        r = cusps.nu(cusps.PolarizationCase(3, "split"))
        assert (r.formula, r.enumerated, r.agree) == (2, 2, True)
        r = cusps.nu(cusps.PolarizationCase(3, "nonsplit"))
        assert r.formula == 1

    def test_mode_selection(self, capsys):
        # zero_dim_report gives both values, as nu does; cusp zero --mode
        # prints the one not asked for as null, and an unknown mode is refused
        case = cusps.PolarizationCase(6, "split")
        result, _ = cusps.zero_dim_report(case)
        assert result == cusps.nu(case) == (1, 1)
        for mode, shown in (("formula", (1, None)), ("enumerate", (None, 1)),
                            ("both", (1, 1))):
            assert run(["cusp", "zero", "--d", "6", "--mode", mode]) == 0
            z = json.loads(capsys.readouterr().out)["zero_dim"]
            assert (z["formula"], z["enumerated"]) == shown
        assert run(["cusp", "zero", "--d", "6", "--mode", "guess"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid choice: 'guess'" in captured.err

    def test_local_count_matches_whole_group_scan(self):
        cases = [cusps.PolarizationCase(d, "split") for d in range(1, 301)]
        cases += [cusps.PolarizationCase(d, "nonsplit") for d in range(3, 301, 4)]
        cases += [cusps.PolarizationCase(d, "split") for d in (3072, 3600)]
        for case in cases:
            form = cusps.disc_model(case).form
            whole = len(mod_pm1(form, fqf.isotropic_elements(form)))
            assert fqf.isotropic_pm1_count(form) == whole == cusps.nu_formula(case), case
        # further out, against a scan of each p-part: (prod_p I_p + F_2) / 2
        cases = [cusps.PolarizationCase(d, "split") for d in range(301, 2001)]
        cases += [cusps.PolarizationCase(d, "nonsplit") for d in range(303, 2001, 4)]
        for case in cases:
            form = cusps.disc_model(case).form
            isotropic, fixed = 1, 1
            for p, part in part_forms(form).items():
                iso = fqf.isotropic_elements(part)
                isotropic *= len(iso)
                if p == 2:
                    fixed = sum(1 for x in iso if fqf.smul(part, 2, x) == part.zero)
            scanned = (isotropic + fixed) // 2
            assert fqf.isotropic_pm1_count(form) == scanned == cusps.nu_formula(case), case

    # 5040 = 2^4 3^2 5 7 split and 5775 = 3 5^2 7 11 non-split: four parts each
    @pytest.mark.parametrize("case", [cusps.PolarizationCase(5040, "split"),
                                      cusps.PolarizationCase(5775, "nonsplit")])
    def test_the_count_builds_one_form_per_part(self, monkeypatch, case):
        form = cusps.disc_model(case).form
        built = []
        make_form = fqf.make_form

        def counted(orders, gram_rows):
            built.append(tuple(orders))
            return make_form(orders, gram_rows)

        monkeypatch.setattr(fqf, "make_form", counted)
        assert fqf.isotropic_pm1_count(form, primes=case.primes) == cusps.nu_formula(case)
        # each part is built once, by the one form constructor, and A_N is not
        assert [prod(orders) for orders in built] == [
            p ** e for p, e in sorted(factorize(form.cardinality).items())]

    def test_depends_only_on_dprime_and_k(self):
        # same (d', k) pairs give the same count
        pairs = [(3, 1), (3, 2), (7, 1), (1, 2), (5, 3)]
        for dprime, k in pairs:
            d = dprime * k * k
            a = cusps.nu_formula(cusps.PolarizationCase(d, "split"))
            assert a == (k + 1 if dprime % 4 == 3 else (k + 2) // 2)


class TestOrbitReps:
    def test_d9(self):
        _, reps = cusps.zero_dim_report(cusps.PolarizationCase(9, "split"))
        assert reps == [(1, 0), (3, 1)]

    def test_d3_split_order_two_rep(self):
        _, reps = cusps.zero_dim_report(cusps.PolarizationCase(3, "split"))
        assert reps == [(1, 0), (2, 1)]
        model = cusps.disc_model(cusps.PolarizationCase(3, "split"))
        form, (m, n) = model.form, reps[1]
        # x_(2,1) = n (2d / m) t + n e: 2 does not divide k = 1, so e is added
        x = fqf.add(form, fqf.smul(form, n * 6 // m, model.t_class),
                    fqf.smul(form, n, model.e_class))
        assert fqf.order_of(form, x) == 2

    def test_nonsplit_trivial(self):
        _, reps = cusps.zero_dim_report(cusps.PolarizationCase(3, "nonsplit"))
        assert reps == [(1, 0)]

    def test_counts_match_nu(self):
        for d in (1, 2, 3, 4, 8, 9, 12, 18, 25, 48, 49, 75):
            case = cusps.PolarizationCase(d, "split")
            assert len(cusps.zero_dim_report(case)[1]) == cusps.nu_formula(case)

    def test_certificate_rejects_colliding_or_too_few_reps(self, monkeypatch):
        case = cusps.PolarizationCase(25, "split")  # K = 5: reps (1,0), (5,1), (5,2)
        real = cusps._rep_coefficients
        # x_(5,2) gets the coefficients of x_(5,1)
        monkeypatch.setattr(cusps, "_rep_coefficients",
                            lambda n, *order: real(min(n, 1), *order))
        with pytest.raises(InternalError, match="collide"):
            cusps.zero_dim_report(case)
        monkeypatch.setattr(cusps, "_rep_coefficients", real)
        count = fqf.isotropic_pm1_count
        monkeypatch.setattr(fqf, "isotropic_pm1_count",
                            lambda form, bound, primes: count(form, bound, primes) + 1)
        with pytest.raises(InternalError, match="do not exhaust"):
            cusps.zero_dim_report(case)

    def test_rep_constraints(self):
        for d in (12, 27, 48):
            case = cusps.PolarizationCase(d, "split")
            for m, n in cusps.zero_dim_report(case)[1]:
                assert case.K % m == 0
                assert gcd(m, n) == 1 and 0 <= 2 * n <= m


def test_valid_orders_match_the_scan_over_one_to_k():
    # m | K scanned for every m <= 10^4 over its multiples K: the scan over
    # 1..K for every K <= 10^4 at once, each list in ascending m
    top = 10**4
    scanned = [[] for _ in range(top + 1)]
    for m in range(1, top + 1):
        for K in range(m, top + 1, m):
            scanned[K].append(m)
    case = cusps.PolarizationCase(1, "split")
    for K in range(1, top + 1):
        assert cusps.valid_orders(case._replace(K=K)) == scanned[K], K
    # and the literal scan at the K of d = 2^36 and of a few cases beyond 10^4
    for d in (2**36, 3 * 10**8, 7 * 3**16):
        case = cusps.PolarizationCase(d, "split")
        assert case.K > top
        assert cusps.valid_orders(case) == [m for m in range(1, case.K + 1) if case.K % m == 0]


def _tuple_reps(model, count):
    """The x_{m,n} built and certified as generic tuples of A_N, without
    ``cusps._rep_coefficients``: an oracle for the coefficient certificate."""
    case, form = model.case, model.form
    reps, elements = [], []
    for m in cusps.valid_orders(case):
        for n in range(0, m // 2 + 1):
            if gcd(m, n) != 1:
                continue
            if case.split:
                x = fqf.smul(form, n * (2 * case.d // m), model.t_class)
                if case.k % m:
                    x = fqf.add(form, x, fqf.smul(form, n, model.e_class))
            else:
                x = fqf.smul(form, n * (case.d // m), model.t_class)
            if fqf.q_scaled(form, fqf.reduce(form, x)) != 0:
                raise InternalError(f"x_({m},{n}) is not isotropic")
            if fqf.order_of(form, x) != m:
                raise InternalError(f"x_({m},{n}) does not have order {m}")
            reps.append((m, n))
            elements.append(x)
    if len({min(x, fqf.smul(form, -1, x)) for x in elements}) != len(reps):
        raise InternalError("orbit representatives collide")
    if len(reps) != count:
        raise InternalError("orbit representatives do not exhaust the isotropic classes")
    return sorted(reps)


def _model_and_count(d, embedding):
    model = cusps.disc_model(cusps.PolarizationCase(d, embedding))
    return model, fqf.isotropic_pm1_count(model.form)


# split d up to 10^6, and non-split d = 3 mod 4 up to 10^6
_CASES_TO_A_MILLION = st.one_of(
    st.integers(1, 10**6).map(lambda d: cusps.PolarizationCase(d, "split")),
    st.integers(0, (10**6 - 3) // 4).map(lambda j: cusps.PolarizationCase(4 * j + 3, "nonsplit")),
)


class TestClosedFormAgainstTheCore:
    """``cusps.disc_model`` against the discriminant form of the core lattice,
    <-2d> + <-2> or B_d (``helpers.a_n_core``), with t and e read as the
    classes of t/2d and e/2 (non-split: t of (2 b1 + b2)/d, e = 0).

    The map (b, a) -> a t + b e from the closed form to the core's form is a
    homomorphism when t and e have the same orders on both sides, and keeps
    q when q(t), q(e) and b(t, e) agree.  It then keeps b, so its kernel is
    b-orthogonal to everything: zero, the closed form being nondegenerate.
    An injective map between groups of one order is an isometry."""

    @staticmethod
    def _check(case):
        model = cusps.disc_model(case)
        closed, t, e = model.form, model.t_class, model.e_class
        core = a_n_core(case)
        form, source = fqf.discriminant_form(core)
        if case.split:
            t_core = class_of(core, source, (1, 0), 2 * case.d)
            e_core = class_of(core, source, (0, 1), 2)
        else:
            t_core, e_core = class_of(core, source, (2, 1), case.d), form.zero
        assert closed.cardinality == form.cardinality, case
        assert fqf.order_of(closed, t) == fqf.order_of(form, t_core), case
        assert fqf.order_of(closed, e) == fqf.order_of(form, e_core), case
        assert (q_value(closed, t), q_value(closed, e), b_value(closed, t, e)) == (
            q_value(form, t_core), q_value(form, e_core), b_value(form, t_core, e_core)), case

    def test_every_d_up_to_2000(self):
        for d in range(1, 2001):
            self._check(cusps.PolarizationCase(d, "split"))
            if d % 4 == 3:
                self._check(cusps.PolarizationCase(d, "nonsplit"))

    @settings(deadline=None, max_examples=120)
    @given(_CASES_TO_A_MILLION)
    def test_d_up_to_a_million(self, case):
        self._check(case)


class TestCoefficientCertificate:
    CASES = ([(d, "split") for d in range(1, 301)]
             + [(d, "nonsplit") for d in range(3, 301, 4)]
             + [(30000, "split"), (3 * 10**6, "split")])

    def test_matches_the_tuple_certificate(self):
        for d, embedding in self.CASES:
            model, count = _model_and_count(d, embedding)
            assert cusps._verified_reps(model, count) == _tuple_reps(model, count), (d, embedding)

    def test_rejects_e_inside_the_span_of_t(self):
        model, count = _model_and_count(12, "split")
        t, form = model.t_class, model.form
        inside = model._replace(e_class=fqf.smul(form, fqf.order_of(form, t) // 2, t))
        with pytest.raises(InternalError, match="do not split"):
            cusps._verified_reps(inside, count)

    def test_rejects_a_rep_of_the_wrong_order(self, monkeypatch):
        model, count = _model_and_count(25, "split")  # reps (1,0), (5,1), (5,2)
        real = cusps._rep_coefficients
        # x_(5,2) becomes x_(1,0) = 0: isotropic, but of order 1
        monkeypatch.setattr(cusps, "_rep_coefficients",
                            lambda n, *order: real(0, *order) if n == 2 else real(n, *order))
        with pytest.raises(InternalError, match=r"x_\(5,2\) does not have order 5"):
            cusps._verified_reps(model, count)


class TestPredictedAE:
    def test_printed_forms(self):
        p = cusps.predicted_AE(cusps.PolarizationCase(1, "split"), 1)
        assert p.orders == (2, 2) and set(q_diagonal(p)) == {Fraction(3, 2)}
        p = cusps.predicted_AE(cusps.PolarizationCase(3, "nonsplit"), 1)
        assert p.orders == (3,) and q_diagonal(p)[0] == Fraction(-2, 3) % 2
        p = cusps.predicted_AE(cusps.PolarizationCase(9, "split"), 3)
        assert p.orders == (2, 2)

    def test_second_split_branch(self):
        # d = 3, m = 2: Z/(4d/m^2) with q = -(m^2+4d)/8d = -2/3
        p = cusps.predicted_AE(cusps.PolarizationCase(3, "split"), 2)
        assert p.orders == (3,)
        assert q_diagonal(p)[0] == Fraction(-2, 3) % 2

    def test_bad_index(self):
        with pytest.raises(BadParameter, match="^m=2 does not index an isotropic subgroup "):
            cusps.predicted_AE(cusps.PolarizationCase(5, "split"), 2)

    def test_bad_index_nonpositive_and_non_divisor(self):
        # d = 12: K = 4, so the orders are 1, 2 and 4
        for m in (0, -2, 8):
            with pytest.raises(BadParameter, match=f"^m={m} does not index an isotropic subgroup "):
                cusps.predicted_AE(cusps.PolarizationCase(12, "split"), m)

    @pytest.mark.parametrize("d", [1, 4, 9, 12, 18, 27, 45, 50])
    def test_brieskorn_square(self, d):
        for emb in ("split", "nonsplit"):
            if emb == "nonsplit" and d % 4 != 3:
                continue
            case = cusps.PolarizationCase(d, emb)
            model = cusps.disc_model(case)
            for m in cusps.valid_orders(case):
                h = group_claims.h_subgroup(case, m, model)
                assert h.order == m
                q = fqf.perp_quotient(model.form, h)[0]
                assert fqf.are_isometric(q, cusps.predicted_AE(case, m))[0]


class TestTSet:
    def test_square_free_only_u(self):
        for d in (1, 5, 6, 7):
            ts = group_claims.t_set(cusps.PolarizationCase(d, "split"), 1)
            assert len(ts) == 1
            delta, gram = ts[0]
            assert delta == 0 and gram == ((0, 1), (1, 0))

    def test_gcd_hypothesis(self):
        with pytest.raises(group_claims.HypothesisFailed):
            group_claims.t_set(cusps.PolarizationCase(4, "split"), 2)

    def test_odd_m_with_coprime_det(self):
        # d = 9, m = 3: det E = 4, gcd(3, 4) = 1; T(3, delta) search runs
        ts = group_claims.t_set(cusps.PolarizationCase(9, "split"), 3)
        assert ts, "at least one compatible delta must exist"
        for delta, gram in ts:
            assert 0 <= delta < 3
            assert gram == ((0, 3), (3, 2 * delta))


class TestOneDim:
    def test_requires_square_free(self):
        with pytest.raises(BadParameter, match="^d = 12 is not square-free$"):
            cusps.one_dim_cusps(cusps.PolarizationCase(12, "split"))

    def test_requires_candidates_off_builtin(self):
        with pytest.raises(BadParameter):
            cusps.one_dim_cusps(cusps.PolarizationCase(2, "split"))

    def test_builtin_row_subset(self):
        rows = cusps.one_dim_cusps(
            cusps.PolarizationCase(1, "split"),
            candidates=[cusps.TABLE1_ROWS[0], cusps.TABLE1_ROWS[5]],
        )
        first, a17 = rows
        assert first.ok and first.classes == 1
        assert a17.ok and a17.classes == 2  # A17+A1: im tau is proper

    def test_rejected_candidate_reported_not_fatal(self):
        rows = cusps.one_dim_cusps(
            cusps.PolarizationCase(1, "split"),
            candidates=[cusps.Candidate("2A2+2D7")],  # wrong determinant class
        )
        assert len(rows) == 1 and not rows[0].ok


def _genus_first_choice(case, cand):
    """The glue that the orbit loop picks when the genus comes first: per
    orbit, perp quotient and isometry test, then the root certificate
    unless a <-2> summand rules it out; the first orbit that passes both,
    else the matching orbit with the greatest member (the last match)."""
    target = cusps.predicted_AE(case, 1)
    gd = glue.make_glue(cand.roots)
    h_order = isqrt(abs(gd.base.det) // cusps.det_E(case, 1))
    subs = [s for s in fqf.isotropic_subgroups(gd.disc) if s.order == h_order]
    certifiable = all(c.kind != "unit" or c.param != -2 for c in gd.components)
    chosen, last = None, ()
    for s, words, _ in glue_orbits(glue._generator_actions(gd), subs):
        if not fqf.are_isometric(fqf.perp_quotient(gd.disc, s)[0], target)[0]:
            continue
        if certifiable and not adds_roots(gd, s):
            return s
        if max(words) > last:
            chosen, last = s, max(words)
    return chosen


def _rows_and_glues(monkeypatch, case, candidates):
    """The rows of ``one_dim_cusps`` and the glue Im tau was computed for,
    one per realized row."""
    glues = []
    image_of_tau = glue.image_of_tau

    def spy(quotient, source, orbit, actions):
        glues.append(orbit[0])
        return image_of_tau(quotient, source, orbit, actions)

    monkeypatch.setattr(glue, "image_of_tau", spy)
    rows = cusps.one_dim_cusps(case, candidates)
    assert len(glues) == sum(1 for r in rows if r.genus_ok)
    return rows, glues


class TestGlueChoice:
    # the two <-2> candidates of the cusp one fixture, and a certifiable
    # base whose two matching orbits both add roots (a spinor class of D8
    # makes it E8; v + (1, 1) makes D8 + 2A1 into D10), so the last match
    # is taken
    EXTRA = (cusps.Candidate("2D8+<-2>+<-2>"), cusps.Candidate("D12+D4+<-2>+<-2>"),
             cusps.Candidate("E8+D8+2A1"))

    def test_certificate_first_picks_the_glue_of_the_genus_first_loop(self, monkeypatch):
        case = cusps.PolarizationCase(1, "split")
        candidates = cusps.TABLE1_ROWS + self.EXTRA
        rows, glues = _rows_and_glues(monkeypatch, case, candidates)
        assert all(r.genus_ok for r in rows)
        for cand, chosen in zip(candidates, glues):
            assert chosen == _genus_first_choice(case, cand), cand.roots
        assert [r.roots_ok for r in rows[-3:]] == [False, False, False]
        assert rows[-1].computed_roots == "2E8+2A1"

    def test_o_ae_of_each_table1_glue_is_the_per_case_value(self, monkeypatch):
        # the quotient of each chosen glue, rebuilt and its O(q) enumerated,
        # against the one count on the target form
        rows, glues = _rows_and_glues(monkeypatch, cusps.PolarizationCase(1, "split"), None)
        assert len(rows) == len(glues) == 13
        for row, chosen in zip(rows, glues):
            quotient = fqf.perp_quotient(chosen.form, chosen)[0]
            assert len(fqf.orthogonal_group(quotient)) == row.o_ae == 2
            assert row.classes == row.o_ae // row.im_tau

    def test_o_ae_is_counted_once_and_not_without_a_realized_row(self, monkeypatch):
        counted = []
        orthogonal_group = fqf.orthogonal_group

        def spy(form, bound):
            counted.append(form)
            return orthogonal_group(form, bound)

        monkeypatch.setattr(fqf, "orthogonal_group", spy)
        case = cusps.PolarizationCase(1, "split")
        cusps.one_dim_cusps(case, [cusps.Candidate("2A2+2D7")])
        assert counted == []
        cusps.one_dim_cusps(case)
        assert counted == [cusps.predicted_AE(case, 1)]

    def test_user_glue_that_is_not_isotropic_keeps_its_error(self):
        # A17+A1: (3, 1) is not isotropic; the message is that of perp_quotient
        gd0 = glue.make_glue("A17+A1")
        bad = next(x for x in fqf.elements(gd0.disc) if q_value(gd0.disc, x) != 0)
        with pytest.raises(BadParameter, match="^subgroup is not isotropic$"):
            cusps.one_dim_cusps(cusps.PolarizationCase(1, "split"),
                                [cusps.Candidate("A17+A1", glue_gens=[bad])])



def _orbit_loop_row(case, cand):
    """The row of a rank-18 candidate from the glue of the orbit loop
    (``_genus_first_choice``), its roots by Fincke-Pohst and Im tau on its
    own orbit."""
    gd = glue.make_glue(cand.roots)
    h2, rem = divmod(abs(gd.base.det), cusps.det_E(case, 1))
    chosen = None if rem or isqrt(h2) ** 2 != h2 else _genus_first_choice(case, cand)
    if chosen is None:
        return cusps.OneDimRow(cand, False, False)
    rs = glue.root_system(glue.overlattice(gd, chosen))
    declared = glue.root_system_from_spec(cand.roots)
    return cusps.OneDimRow(cand, True, rs.components == declared.components,
                           rs.spec_string(), im_tau=tau_image(gd, chosen).size)


# every ADE atom of rank up to 18 and the summand <-2>, with |det|
_RANK18_ATOMS = ([("A", n, n + 1) for n in range(1, 19)] + [("D", n, 4) for n in range(4, 19)]
                 + [("E", 6, 3), ("E", 7, 2), ("E", 8, 1), ("unit", -2, 2)])


@cache
def _rank18_candidates(d: int, minus2: bool) -> tuple:
    """The sums of ``_RANK18_ATOMS`` of rank 18 with |A_R| <= 256, each
    once, whose determinant is 4d times a square, with or without a <-2>
    summand: the bases from which a glue can give det E = 4d."""
    out = []

    def grow(rank, det, start, atoms):
        if rank == 18:
            h2, rem = divmod(det, 4 * d)
            if not rem and isqrt(h2) ** 2 == h2 and (("unit", -2) in atoms) == minus2:
                out.append(atoms)
            return
        for i, (kind, n, a) in enumerate(_RANK18_ATOMS[start:], start):
            r = 1 if kind == "unit" else n
            if rank + r <= 18 and det * a <= 256:
                grow(rank + r, det * a, i, atoms + ((kind, n),))

    grow(0, 1, 0, ())
    return tuple(out)


@pytest.mark.parametrize("d, minus2", [(1, False), (1, True), (3, False), (3, True)])
@settings(max_examples=13, deadline=None)
@given(st.data())
def test_sorted_scan_gives_the_row_of_the_orbit_loop(d, minus2, data):
    # first match without a <-2> summand, last match or none with one
    case = cusps.PolarizationCase(d, "split")
    atoms = data.draw(st.permutations(data.draw(st.sampled_from(_rank18_candidates(d, minus2)))))
    cand = cusps.Candidate(_spell(atoms))
    row = cusps._realize_candidate(case, cand, cusps.predicted_AE(case, 1), fqf.ENUM_BOUND)
    assert row == _orbit_loop_row(case, cand)


# ---------------------------------------------------------------------------
# one isometry class per Table 1 row, and the printed R(N) column


TABLE1_SPECS = [c.roots for c in cusps.TABLE1_ROWS]


@cache
def _printed_table1_rows() -> tuple:
    return tuple(cusps.one_dim_cusps(cusps.PolarizationCase(1, "split")))


def _spell(atoms) -> str:
    return "+".join(f"<{n}>" if kind == "unit" else f"{kind}{n}" for kind, n in atoms)


def _tau_group(gd) -> set:
    """The group that the tau generators generate on the base basis, each
    signed permutation held as its pairs (perm[j], signs[j])."""
    gens = [tuple(zip(p, s)) for p, s in glue._tau_signed_permutations(gd)]
    ident = tuple((j, 1) for j in range(gd.base.rank))
    group, queue = {ident}, [ident]
    for h in queue:
        for g in gens:  # g after h: e_j -> s_h s_g(p_h) e_(p_g(p_h))
            gh = tuple((g[p][0], s * g[p][1]) for p, s in h)
            if gh not in group:
                group.add(gh)
                queue.append(gh)
    return group


def _diagram_group_order(spec: str) -> int:
    """|Aut| of each Dynkin diagram, times k! for k equal components, times 2
    for each rank-1 summand (Bourbaki, Lie Groups and Lie Algebras, plates
    I-VII)."""
    atoms = glue.parse_root_spec(spec)
    aut = {"A": lambda n: 1 if n == 1 else 2, "D": lambda n: 6 if n == 4 else 2,
           "E": lambda n: 2 if n == 6 else 1, "unit": lambda n: 2}
    return (prod(aut[kind](n) for kind, n in atoms)
            * prod(factorial(k) for k in Counter(atoms).values()))


class TestOneIsometryClassPerRow:
    """Two overlattices of one base whose roots are the base's are isometric
    exactly when their glues lie in one orbit of the diagram group, once the
    tau generators generate it and the complement of the roots is the
    declared summand; so one passing orbit makes each row one lattice E."""

    @pytest.mark.parametrize("spec", TABLE1_SPECS)
    def test_exactly_one_glue_orbit_keeps_the_roots_and_matches_the_genus(self, spec):
        case = cusps.PolarizationCase(1, "split")
        target = cusps.predicted_AE(case, 1)
        gd = glue.make_glue(spec)
        h_order = isqrt(abs(gd.base.det) // cusps.det_E(case, 1))
        subs = [s for s in fqf.isotropic_subgroups(gd.disc) if s.order == h_order]
        orbits = glue_orbits(glue._generator_actions(gd), subs)
        assert sorted(k for _, words, _ in orbits for k in words) == [s.elements for s in subs]
        passing = [
            s for s, _, _ in orbits
            if not adds_roots(gd, s)
            and fqf.are_isometric(fqf.perp_quotient(gd.disc, s)[0], target)[0]
        ]
        assert len(passing) == 1
        for unit in (c.offset for c in gd.components if c.kind == "unit"):
            # <-4> of E6+A11+<-4> is primitive in E, so the complement of the
            # roots in E is the declared summand
            assert gcd(*base_in_overlattice(gd, passing[0])[unit]) == 1

    @pytest.mark.parametrize("spec", TABLE1_SPECS)
    def test_tau_generators_generate_the_diagram_group(self, spec):
        assert len(_tau_group(glue.make_glue(spec))) == _diagram_group_order(spec)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_a_respelled_candidate_gives_the_printed_row(self, data):
        i = data.draw(st.integers(0, len(TABLE1_SPECS) - 1))
        spec = _spell(data.draw(st.permutations(glue.parse_root_spec(TABLE1_SPECS[i]))))
        row, = cusps.one_dim_cusps(cusps.PolarizationCase(1, "split"),
                                   [cusps.Candidate(spec)])
        printed = _printed_table1_rows()[i]
        assert (row.genus_ok, row.roots_ok, row.computed_roots, row.im_tau) == (
            printed.genus_ok, printed.roots_ok, printed.computed_roots, printed.im_tau)


@pytest.mark.parametrize("cand", cusps.TABLE1_ROWS, ids=TABLE1_SPECS)
def test_gluing_e_with_d6_gives_the_printed_niemeier_lattice(cand):
    """A_E and A_D6 are (Z/2)^2 with opposite forms, so E + D6 glues into a
    Niemeier lattice N in which E is the complement of D6 (Nikulin 1979,
    Prop. 1.6.1; Conway-Sloane, SPLAG ch. 16 and 18).  On the base R + D6,
    for R the base of E: the unimodular glues that meet A_D6 trivially and
    whose part on A_R adds no root of E each give N, whose roots must be
    the printed R(N)."""
    gd = glue.make_glue(cand.roots + "+D6")
    level, n = gd.disc.level, gd.base.rank - 6
    minima = glue._coset_minima(gd)

    def part_is_zero(h, sl):  # the part of the class h on the summands sl
        return all(x % level == 0 for x in gd.disc_source.scaled_lift(h, level)[sl])

    order = isqrt(abs(gd.base.det))
    kept = 0
    for H in fqf.isotropic_subgroups(gd.disc):
        if H.order != order or any(
                any(h) and part_is_zero(h, slice(n)) for h in H.elements):
            continue
        on_r = fqf.subgroup_span(
            gd.disc, [h for h in H.elements if part_is_zero(h, slice(n, None))])
        if glue.glue_adds_roots(gd, on_r, minima):
            continue
        N = glue.overlattice(gd, H)
        assert abs(N.det) == 1
        assert glue.root_system(N) == glue.root_system_from_spec(cand.niemeier)
        kept += 1
    assert kept


class TestReports:
    def test_zero_dim_schema(self, capsys):
        result, reps = cusps.zero_dim_report(cusps.PolarizationCase(3, "split"))
        assert result == (2, 2) and reps == [(1, 0), (2, 1)]
        assert all(type(m) is int and type(n) is int for m, n in reps)
        assert run(["cusp", "zero", "--d", "3"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"case": {"d": 3, "embedding": "split"},
                       "zero_dim": {"formula": 2, "enumerated": 2, "reps": [[1, 0], [2, 1]]}}

    @pytest.mark.parametrize("mode", ["both", "formula", "enumerate"])
    def test_zero_dim_report_scans_once(self, capsys, monkeypatch, mode):
        calls = []
        count = fqf.isotropic_pm1_count

        def counted(form, bound=fqf.ENUM_BOUND, primes=None):
            calls.append(form.cardinality)
            return count(form, bound, primes)

        monkeypatch.setattr(fqf, "isotropic_pm1_count", counted)
        monkeypatch.setattr(fqf, "isotropic_elements", None)
        case = cusps.PolarizationCase(12, "split")
        assert run(["cusp", "zero", "--d", "12", "--mode", mode]) == 0
        # one count of A_N, |A_N| = 4d = 48, which lists no element of it
        assert calls == [48]
        # d = 12 = 3 * 2^2 with d' = 3 mod 4, so nu = k + 1 = 3
        z = json.loads(capsys.readouterr().out)["zero_dim"]
        assert z["reps"] == [[1, 0], [2, 1], [4, 1]]
        assert z["formula"] == (3 if mode != "enumerate" else None)
        assert z["enumerated"] == (3 if mode != "formula" else None)
        # the public entry points still count on their own
        calls.clear()
        assert len(cusps.zero_dim_report(case)[1]) == cusps.nu(case).enumerated == 3
        assert calls == [48, 48]

    def test_zero_dim_report_rejects_mode_before_scanning(self, capsys, monkeypatch):
        # the mode is an argparse choice of cusp zero, refused before any count
        monkeypatch.setattr(fqf, "isotropic_pm1_count", None)
        monkeypatch.setattr(cusps, "zero_dim_report", None)
        assert run(["cusp", "zero", "--d", "3", "--mode", "guess"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: ")
        assert "argument --mode: invalid choice: 'guess'" in captured.err

    def test_example_c12(self):
        data = claims.example_c12()
        assert data["g2"] == 6 and data["tau2"] == -4 and data["g_tau"] == 0
        assert data["complement_signature"] == (2, 19)
        assert abs(data["complement_det"]) == 12
        assert data["complement_genus_matches_U_E8_E8_B3_4"]
        assert data["delta2"] == -10 and data["delta_div"] == 2
        assert data["delta_m_matches"]
        assert data["delta_m2"] == Fraction(-25, 3)
        assert data["delta_n2"] == Fraction(-5, 3)
        assert data["delta_prime"] is True
        assert data["beta1_delta"] == 0
        assert claims.example_c12_ok(data)
