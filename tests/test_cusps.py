from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

import group_claims
from cuspidal import claims, cusps, fqf, glue
from cuspidal import lattice as lat
from cuspidal.exact import IntMatrix
from cuspidal.errors import (
    BadCase,
    BadIndex,
    BadParameter,
    InternalError,
    NotIsotropic,
    NotSquareFree,
)
from embedding_oracles import build_polarized
from form_oracles import mod_pm1
from helpers import a_n_core, adds_roots, b_value, class_of, part_forms, q_diagonal, q_value
from kernel_oracles import isotropic_pm1_count_by_forms


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
        with pytest.raises(BadCase):
            cusps.PolarizationCase(5, "nonsplit")
        with pytest.raises(BadCase):
            cusps.PolarizationCase(0, "split")


class TestBuildPolarized:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_split_invariants(self, d):
        pe = build_polarized(cusps.PolarizationCase(d, "split"))
        n = pe.complement.lattice
        assert pe.h.norm == 2 * d
        assert lat.divisibility(pe.h) == 1
        assert n.det == 4 * d
        assert n.signature == (2, 20)
        assert pe.disc.cardinality == 4 * d

    @pytest.mark.parametrize("d", [3, 7, 11])
    def test_nonsplit_invariants(self, d):
        pe = build_polarized(cusps.PolarizationCase(d, "nonsplit"))
        n = pe.complement.lattice
        assert pe.h.norm == 2 * d
        assert lat.divisibility(pe.h) == 2
        assert n.det == d
        assert pe.disc.orders == (d,)

    def test_matches_generic_complement(self):
        pe = build_polarized(cusps.PolarizationCase(3, "split"))
        generic = lat.orthogonal_complement(pe.ambient, [pe.h])
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

    def test_mode_selection(self):
        case = cusps.PolarizationCase(6, "split")
        only_f = cusps.nu(case, "formula")
        assert only_f.enumerated is None and only_f.agree is None
        only_e = cusps.nu(case, "enumerate")
        assert only_e.formula is None
        with pytest.raises(BadParameter):
            cusps.nu(case, "guess")

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
                    fixed = sum(1 for x in iso if part.smul(2, x) == part.zero)
            scanned = (isotropic + fixed) // 2
            assert fqf.isotropic_pm1_count(form) == scanned == cusps.nu_formula(case), case

    # 5040 = 2^4 3^2 5 7 split and 5775 = 3 5^2 7 11 non-split: four parts each
    @pytest.mark.parametrize("case", [cusps.PolarizationCase(5040, "split"),
                                      cusps.PolarizationCase(5775, "nonsplit")])
    def test_the_count_builds_no_form_and_no_matrix(self, monkeypatch, case):
        form = cusps.disc_model(case).form
        built = []
        for cls in (fqf.FiniteQuadraticForm, IntMatrix):
            def counted(self, *args, _init=cls.__init__, _name=cls.__name__):
                built.append(_name)
                _init(self, *args)

            monkeypatch.setattr(cls, "__init__", counted)
        assert fqf.isotropic_pm1_count(form, primes=case.primes) == cusps.nu_formula(case)
        assert built == []
        # the counters count: the oracle builds a form, and its matrix, per part
        assert isotropic_pm1_count_by_forms(form, primes=case.primes) == cusps.nu_formula(case)
        assert built == ["FiniteQuadraticForm", "IntMatrix"] * 4

    def test_depends_only_on_dprime_and_k(self):
        # same (d', k) pairs give the same count
        pairs = [(3, 1), (3, 2), (7, 1), (1, 2), (5, 3)]
        for dprime, k in pairs:
            d = dprime * k * k
            a = cusps.nu_formula(cusps.PolarizationCase(d, "split"))
            assert a == (k + 1 if dprime % 4 == 3 else (k + 2) // 2)


class TestOrbitReps:
    def test_d9(self):
        reps = cusps.zero_dim_report(cusps.PolarizationCase(9, "split")).reps
        assert [(r.m, r.n) for r in reps] == [(1, 0), (3, 1)]

    def test_d3_split_order_two_rep(self):
        reps = cusps.zero_dim_report(cusps.PolarizationCase(3, "split")).reps
        assert [(r.m, r.n) for r in reps] == [(1, 0), (2, 1)]
        model = cusps.disc_model(cusps.PolarizationCase(3, "split"))
        form, (m, n) = model.form, reps[1]
        # x_(2,1) = n (2d / m) t + n e: 2 does not divide k = 1, so e is added
        x = form.add(form.smul(n * 6 // m, model.t_class), form.smul(n, model.e_class))
        assert form.order_of(x) == 2

    def test_nonsplit_trivial(self):
        reps = cusps.zero_dim_report(cusps.PolarizationCase(3, "nonsplit")).reps
        assert [(r.m, r.n) for r in reps] == [(1, 0)]

    def test_counts_match_nu(self):
        for d in (1, 2, 3, 4, 8, 9, 12, 18, 25, 48, 49, 75):
            case = cusps.PolarizationCase(d, "split")
            assert len(cusps.zero_dim_report(case).reps) == cusps.nu_formula(case)

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
            for r in cusps.zero_dim_report(case).reps:
                assert case.K % r.m == 0
                from math import gcd

                assert gcd(r.m, r.n) == 1 and 0 <= 2 * r.n <= r.m


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
                x = form.smul(n * (2 * case.d // m), model.t_class)
                if case.k % m:
                    x = form.add(x, form.smul(n, model.e_class))
            else:
                x = form.smul(n * (case.d // m), model.t_class)
            if form.q_scaled(form.reduce(x)) != 0:
                raise InternalError(f"x_({m},{n}) is not isotropic")
            if form.order_of(x) != m:
                raise InternalError(f"x_({m},{n}) does not have order {m}")
            reps.append(cusps.OrbitRep(m, n))
            elements.append(x)
    if len({min(x, form.smul(-1, x)) for x in elements}) != len(reps):
        raise InternalError("orbit representatives collide")
    if len(reps) != count:
        raise InternalError("orbit representatives do not exhaust the isotropic classes")
    return sorted(reps, key=lambda r: (r.m, r.n))


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
        form = fqf.discriminant_form(a_n_core(case))
        if case.split:
            t_core, e_core = class_of(form, (1, 0), 2 * case.d), class_of(form, (0, 1), 2)
        else:
            t_core, e_core = class_of(form, (2, 1), case.d), form.zero
        assert closed.cardinality == form.cardinality, case
        assert closed.order_of(t) == form.order_of(t_core), case
        assert closed.order_of(e) == form.order_of(e_core), case
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
        inside = model._replace(e_class=form.smul(form.order_of(t) // 2, t))
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
        with pytest.raises(BadIndex):
            cusps.predicted_AE(cusps.PolarizationCase(5, "split"), 2)

    def test_bad_index_nonpositive_and_non_divisor(self):
        # d = 12: K = 4, so the orders are 1, 2 and 4
        for m in (0, -2, 8):
            with pytest.raises(BadIndex):
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
                q = fqf.perp_quotient(model.form, h)
                assert fqf.are_isometric(q, cusps.predicted_AE(case, m))[0]


class TestTSet:
    def test_square_free_only_u(self):
        for d in (1, 5, 6, 7):
            ts = group_claims.t_set(cusps.PolarizationCase(d, "split"), 1)
            assert len(ts) == 1
            delta, gram = ts[0]
            assert delta == 0 and gram.to_lists() == [[0, 1], [1, 0]]

    def test_gcd_hypothesis(self):
        with pytest.raises(group_claims.HypothesisFailed):
            group_claims.t_set(cusps.PolarizationCase(4, "split"), 2)

    def test_odd_m_with_coprime_det(self):
        # d = 9, m = 3: det E = 4, gcd(3, 4) = 1; T(3, delta) search runs
        ts = group_claims.t_set(cusps.PolarizationCase(9, "split"), 3)
        assert ts, "at least one compatible delta must exist"
        for delta, gram in ts:
            assert 0 <= delta < 3
            assert gram.to_lists() == [[0, 3], [3, 2 * delta]]


class TestOneDim:
    def test_requires_square_free(self):
        with pytest.raises(NotSquareFree):
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
    for s, words, _ in glue._glue_orbits(glue._generator_actions(gd), subs):
        if not fqf.are_isometric(fqf.perp_quotient(gd.disc, s), target)[0]:
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

    def spy(quotient, orbit, actions):
        glues.append(orbit[0])
        return image_of_tau(quotient, orbit, actions)

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
            quotient = fqf.perp_quotient(chosen.form, chosen)
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
        bad = next(x for x in gd0.disc.elements() if q_value(gd0.disc, x) != 0)
        with pytest.raises(NotIsotropic, match="^subgroup is not isotropic$"):
            cusps.one_dim_cusps(cusps.PolarizationCase(1, "split"),
                                [cusps.Candidate("A17+A1", glue_gens=[bad])])


class TestReports:
    def test_zero_dim_schema(self):
        rep = cusps.zero_dim_report(cusps.PolarizationCase(3, "split"))
        obj = rep.to_obj()
        assert obj["case"] == {"d": 3, "embedding": "split"}
        assert obj["zero_dim"]["formula"] == 2
        assert obj["zero_dim"]["reps"] == [[1, 0], [2, 1]]

    @pytest.mark.parametrize("mode", ["both", "formula", "enumerate"])
    def test_zero_dim_report_scans_once(self, monkeypatch, mode):
        calls = []
        count = fqf.isotropic_pm1_count

        def counted(form, bound=fqf.ENUM_BOUND, primes=None):
            calls.append(form.cardinality)
            return count(form, bound, primes)

        monkeypatch.setattr(fqf, "isotropic_pm1_count", counted)
        monkeypatch.setattr(fqf, "isotropic_elements", None)
        case = cusps.PolarizationCase(12, "split")
        rep = cusps.zero_dim_report(case, mode)
        # one count of A_N, |A_N| = 4d = 48, which lists no element of it
        assert calls == [48]
        # d = 12 = 3 * 2^2 with d' = 3 mod 4, so nu = k + 1 = 3
        assert [[r.m, r.n] for r in rep.reps] == [[1, 0], [2, 1], [4, 1]]
        z = rep.to_obj()["zero_dim"]
        assert z["formula"] == (3 if mode != "enumerate" else None)
        assert z["enumerated"] == (3 if mode != "formula" else None)
        # the public entry points still count on their own
        calls.clear()
        assert len(cusps.zero_dim_report(case).reps) == cusps.nu_enumerate(case) == 3
        assert calls == [48, 48]

    def test_zero_dim_report_rejects_mode_before_scanning(self, monkeypatch):
        monkeypatch.setattr(fqf, "isotropic_pm1_count", None)
        with pytest.raises(BadParameter):
            cusps.zero_dim_report(cusps.PolarizationCase(3, "split"), "guess")

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
