"""The package's immutable records: frozen value objects and validating
constructors.

Every record is built twice from the same field values and must compare
and hash equal; no field can be set and no attribute added.  The
constructors that check their input raise BadParameter, each with the
message of its refusal.
"""

import copy
import pickle

import pytest

import group_claims
from cuspidal import claims, cusps, exact, fqf, glue
from cuspidal import lattice as lat
from cuspidal.errors import BadParameter
from embedding_oracles import build_polarized
from helpers import basis, glue_of, tau_image


def _records():
    """One instance of every record, with a rebuild from its field values
    through the public constructor."""
    L = lat.parse_name("U+A2")
    smith = exact.smith_normal_form(L.gram)
    a2, a2_source = fqf.discriminant_form(lat.make_standard("A", 2))
    gd, glue_sub = glue_of("4A1", [(1, 1, 1, 1)])
    quotient = fqf.perp_quotient(gd.disc, glue_sub)
    qsource = quotient[1]
    split = claims.splitting_from(L, basis(L)[:2])
    rho = group_claims.reflection(L, basis(L)[2])
    case = cusps.PolarizationCase(12, "split")
    row = cusps.one_dim_cusps(cusps.PolarizationCase(1, "split"))[0]
    nu_result, _ = cusps.zero_dim_report(case)

    def rebuilt(r):
        return type(r)(*r)

    return [
        (L, rebuilt),
        (smith, rebuilt),
        (a2, lambda r: fqf.make_form(r.orders, r.gram)),
        (a2_source, rebuilt),
        (qsource, rebuilt),
        (glue_sub, rebuilt),
        (gd.components[0], rebuilt),
        (gd, rebuilt),
        (glue.root_system_from_spec("E6+A11+<-4>"), rebuilt),
        (tau_image(gd, glue_sub, quotient), rebuilt),
        (split.left, rebuilt),
        (split, rebuilt),
        (rho, rebuilt),
        (group_claims.group_membership(rho), rebuilt),
        (case, lambda r: cusps.PolarizationCase(r.d, r.embedding)),
        (cusps.disc_model(case), rebuilt),
        (build_polarized(cusps.PolarizationCase(3, "nonsplit")), rebuilt),
        (nu_result, rebuilt),
        (row.candidate, rebuilt),
        (row, rebuilt),
    ]


RECORDS = _records()


def test_every_record_is_covered():
    names = {type(r).__name__ for r, _ in RECORDS}
    assert names == {
        "Lattice", "SmithDecomposition", "Form", "LatticeSource", "QuotientSource",
        "FqfSubgroup", "Component", "GlueData", "RootSystem",
        "TauImage", "Sublattice", "OrthogonalSplitting", "Isometry",
        "MembershipFlags", "PolarizationCase", "DiscModel", "PolarizedEmbedding",
        "NuResult", "Candidate", "OneDimRow",
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
    assert cusps.PolarizationCase(3, "split") != cusps.PolarizationCase(3, "nonsplit")
    assert cusps.Candidate("D18") != cusps.Candidate("D18", "D24")


def test_defaults_and_replace():
    cand = cusps.Candidate("D18")
    assert (cand.niemeier, cand.glue_gens) == (None, None)
    row = cusps.OneDimRow(cand, False, False)
    assert row == cusps.OneDimRow(cand, False, False, None, None, None, None) and not row.ok
    case = cusps.PolarizationCase(1, "split")
    result, reps = cusps.zero_dim_report(case)
    assert result == cusps.nu(case) == (1, 1) and result.agree is True
    assert reps == [(1, 0)]
    # cusp zero --mode prints the value not asked for as null: agree is then None
    assert result._replace(enumerated=None).agree is None
    assert result._replace(formula=None).agree is None


def test_polarization_case_derived_fields():
    # d = 12 = 3 * 2^2: d' = 3, k = 2, K = 2k as d' = 3 mod 4 splits
    case = cusps.PolarizationCase(12, "split")
    assert (case.d, case.embedding, case.dprime, case.k, case.K, case.primes) == (
        12, "split", 3, 2, 4, (2, 3)
    )
    assert cusps.PolarizationCase(d=12, embedding="split") == case
    assert copy.copy(case) == case
    assert pickle.loads(pickle.dumps(case)) == case


class TestValidatingConstructors:
    def test_orthogonal_splitting(self):
        L = lat.parse_name("U+A2")
        split = claims.splitting_from(L, basis(L)[:2])
        M = lat.parse_name("U+A1+A1")
        foreign = claims.splitting_from(M, basis(M)[:2])
        with pytest.raises(BadParameter, match="^summands live in a different ambient lattice$"):
            claims.OrthogonalSplitting(L, split.left, foreign.right)
        with pytest.raises(BadParameter):
            claims.OrthogonalSplitting(L, split.left, split.left)
        with pytest.raises(BadParameter):
            claims.OrthogonalSplitting(
                L, split.left, claims.Sublattice.of(L, [[1, 0, 1, 0], [0, 0, 0, 1]])
            )

    def test_isometry(self):
        L = lat.make_standard("A", 2)
        with pytest.raises(BadParameter, match="^matrix does not preserve the form$"):
            group_claims.Isometry(L, [[1, 1], [0, 1]])
        with pytest.raises(BadParameter, match="^matrix shape does not match the lattice$"):
            group_claims.Isometry(L, exact.diagonal((1, 1, 1)))

    def test_polarization_case(self):
        for d, embedding, message in (
            (0, "split", "^d must be a positive integer$"),
            (5, "twisted", "^unknown embedding 'twisted'$"),
            (5, "nonsplit", "^non-split embeddings require d = 3 mod 4$"),
        ):
            with pytest.raises(BadParameter, match=message):
                cusps.PolarizationCase(d, embedding)
