"""Finite-dimensional linear relations, boundary triplets, Krein resolvent
formulas and compressions of exit-space self-adjoint extensions."""

from .linrel import (
    DEFAULT_TOL,
    LinearRelation,
    SpectrumError,
    adjoint,
    classify_symmetry,
    graph_of,
    intersect,
    make_relation,
    negate,
    parts,
    relations_equal,
    resolvent,
    vertical_relation,
    zero_relation,
)
from .triplet import (
    BoundaryTriplet,
    SymmetricSeed,
    TripletError,
    boundary_param_of,
    check_green,
    extension_of,
    forbidden_relation,
    gamma_and_weyl,
    von_neumann_triplet,
)
from .nevanlinna import (
    RationalNevanlinna,
    TauDecomposition,
    decompose_tau,
    eval_tau,
    tau_limits,
)
from .extension import (
    CompressionReport,
    classify_compression,
    compression_param,
    flags_coefficients,
    flags_geometric,
    krein_resolvent,
)
from .exitspace import (
    ExitSpaceModel,
    build_exit_space,
    direct_compression,
    generalized_resolvent_direct,
    minimality,
    model_maps,
)

__version__ = "0.1.0"
