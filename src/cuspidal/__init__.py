"""Exact arithmetic of even lattices, discriminant forms, and cusp counts."""

from .exact import (
    IntMatrix,
    SmithDecomposition,
    kernel_basis,
    lll_reduce,
    signature_of_symmetric,
    smith_normal_form,
)
from .lattice import (
    Isometry,
    Lattice,
    LatticeVector,
    OrthogonalSplitting,
    Sublattice,
    delta_prime_test,
    direct_sum,
    divisibility,
    group_membership,
    make_standard,
    orthogonal_complement,
    pair,
    parse_name,
    reflection,
    spinor_norm,
    split_rational,
    splitting_from,
    twist,
)
from .fqf import (
    FiniteQuadraticForm,
    FqfSubgroup,
    are_isometric,
    discriminant_form,
    embeds,
    isotropic_elements,
    isotropic_subgroups,
    mod_pm1,
    orthogonal_group,
    perp_quotient,
)
from .glue import (
    GlueData,
    Overlattice,
    RootSystem,
    image_of_tau,
    make_glue,
    overlattice,
    root_system,
    root_system_from_spec,
    short_vectors,
)
from .cusps import (
    Candidate,
    CuspReport,
    PolarizationCase,
    example_c12,
    example_c12_ok,
    nu,
    one_dim_cusps,
    orbit_reps,
    predicted_AE,
    t_set,
)

__version__ = "0.1.0"
