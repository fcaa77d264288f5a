"""Exact arithmetic of even lattices, discriminant forms, and cusp counts."""

from .exact import (
    SmithDecomposition,
    det_and_signature,
    kernel_basis,
    lll_reduce,
    smith_normal_form,
)
from .lattice import Lattice, direct_sum, from_gram, make_standard, parse_name
from .fqf import (
    Form,
    FqfSubgroup,
    are_isometric,
    discriminant_form,
    isotropic_elements,
    isotropic_subgroups,
    make_form,
    orthogonal_group,
    perp_quotient,
)
from .glue import (
    GlueData,
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
    PolarizationCase,
    nu,
    one_dim_cusps,
    predicted_AE,
)

__version__ = "0.1.0"
