"""The package's immutable records: frozen value objects and validating
constructors.

Every record is built twice from the same field values and must compare
and hash equal; no field can be set and no attribute added.  The
constructors that check their input raise the same error classes as ever.
"""

import copy
import pickle
from fractions import Fraction

import pytest

import group_claims
from cuspidal import claims, cusps, exact, fqf, glue
from cuspidal import lattice as lat
from cuspidal.errors import (
    BadCase,
    BadParameter,
    MixedLattices,
    NotIsometry,
)
from embedding_oracles import build_polarized
from helpers import basis, glue_of, tau_image


def _records():
    """One instance of every record, with a rebuild from its field values
    through the public constructor."""
    L = lat.parse_name("U+A2")
    smith = exact.smith_normal_form(L.gram)
    a2 = fqf.discriminant_form(lat.make_standard("A", 2))
    gd, glue_sub = glue_of("4A1", [(1, 1, 1, 1)])
    quotient = fqf.perp_quotient(gd.disc, glue_sub)
    qsource = quotient.source
    split = claims.splitting_from(L, basis(L)[:2])
    rho = group_claims.reflection(L, basis(L)[2])
    case = cusps.PolarizationCase(12, "split")
    row = cusps.one_dim_cusps(cusps.PolarizationCase(1, "split"))[0]
    zero = cusps.zero_dim_report(case)

    def rebuilt(r):
        return type(r)(*r)

    return [
        (smith, rebuilt),
        (a2.source, rebuilt),
        (qsource, rebuilt),
        (qsource.rows, rebuilt),
        (glue_sub, rebuilt),
        (gd.components[0], rebuilt),
        (gd, rebuilt),
        (glue.root_system_from_spec("E6+A11+<-4>"), rebuilt),
        (tau_image(gd, glue_sub, quotient), rebuilt),
        (L.vector([1, 0, -1, 2]), rebuilt),
        (split, rebuilt),
        (rho, rebuilt),
        (group_claims.group_membership(rho), rebuilt),
        (case, lambda r: cusps.PolarizationCase(r.d, r.embedding)),
        (cusps.disc_model(case), rebuilt),
        (build_polarized(cusps.PolarizationCase(3, "nonsplit")), rebuilt),
        (zero.nu_result, rebuilt),
        (zero.reps[-1], rebuilt),
        (row.candidate, rebuilt),
        (row, rebuilt),
        (zero, rebuilt),
    ]


RECORDS = _records()


def test_every_record_is_covered():
    names = {type(r).__name__ for r, _ in RECORDS}
    assert names == {
        "SmithDecomposition", "LatticeSource", "QuotientSource", "_RowQuotient",
        "FqfSubgroup", "Component", "GlueData", "RootSystem",
        "TauImage", "LatticeVector", "OrthogonalSplitting", "Isometry",
        "MembershipFlags", "PolarizationCase", "DiscModel", "PolarizedEmbedding",
        "NuResult", "OrbitRep", "Candidate", "OneDimRow", "CuspReport",
    }


@pytest.mark.parametrize("record, rebuild", RECORDS,
                         ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_is_frozen_value(record, rebuild):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    twin = rebuild(record)
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    assert type(twin) is type(record)


def test_changed_field_breaks_equality():
    L = lat.make_standard("A", 2)
    assert L.vector([1, 0]) != L.vector([0, 1])
    assert cusps.PolarizationCase(3, "split") != cusps.PolarizationCase(3, "nonsplit")
    assert cusps.Candidate("D18") != cusps.Candidate("D18", "D24")


def test_defaults_and_replace():
    cand = cusps.Candidate("D18")
    assert (cand.niemeier, cand.glue_gens) == (None, None)
    row = cusps.OneDimRow(cand, False, False, None, None, None, None)
    assert row.note is None and not row.ok
    full = cusps.full_report(cusps.PolarizationCase(1, "split"))
    zero = cusps.zero_dim_report(full.case)
    assert zero.one_dim is None and len(full.one_dim) == 13
    assert full._replace(one_dim=None) == zero


def test_polarization_case_derived_fields():
    # d = 12 = 3 * 2^2: d' = 3, k = 2, K = 2k as d' = 3 mod 4 splits
    case = cusps.PolarizationCase(12, "split")
    assert (case.d, case.embedding, case.dprime, case.k, case.K, case.primes) == (
        12, "split", 3, 2, 4, (2, 3)
    )
    assert cusps.PolarizationCase(d=12, embedding="split") == case
    assert copy.copy(case) == case
    assert pickle.loads(pickle.dumps(case)) == case


def test_lattice_vector_coerces_coordinates():
    v = lat.make_standard("A", 2).vector([Fraction(4, 2), Fraction(1, 2)])
    assert v.coords == (2, Fraction(1, 2)) and type(v.coords[0]) is int
    assert v.is_integral is False
    assert -1 * v == lat.make_standard("A", 2).vector([-2, Fraction(-1, 2)])
    assert 2 * v == v * 2 == lat.make_standard("A", 2).vector([4, 1])


class TestValidatingConstructors:
    def test_orthogonal_splitting(self):
        L = lat.parse_name("U+A2")
        split = claims.splitting_from(L, basis(L)[:2])
        M = lat.parse_name("U+A1+A1")
        foreign = claims.splitting_from(M, basis(M)[:2])
        with pytest.raises(MixedLattices):
            claims.OrthogonalSplitting(L, split.left, foreign.right)
        with pytest.raises(BadParameter):
            claims.OrthogonalSplitting(L, split.left, split.left)
        with pytest.raises(BadParameter):
            claims.OrthogonalSplitting(
                L, split.left, lat.Sublattice(L, [[1, 0, 1, 0], [0, 0, 0, 1]])
            )

    def test_isometry(self):
        L = lat.make_standard("A", 2)
        with pytest.raises(NotIsometry):
            group_claims.Isometry(L, exact.IntMatrix([[1, 1], [0, 1]]))
        with pytest.raises(NotIsometry):
            group_claims.Isometry(L, exact.IntMatrix.identity(3))

    def test_lattice_vector(self):
        L = lat.make_standard("A", 2)
        with pytest.raises(BadParameter):
            lat.LatticeVector(L, [1, 2, 3])
        with pytest.raises(BadParameter):
            lat.LatticeVector(L, [1.0, 2])

    def test_polarization_case(self):
        for d, embedding in ((0, "split"), (5, "twisted"), (5, "nonsplit")):
            with pytest.raises(BadCase):
                cusps.PolarizationCase(d, embedding)
