"""Finite-dimensional linear relations, boundary triplets, Krein resolvent
formulas and compressions of exit-space self-adjoint extensions."""

from .linrel import (
    DEFAULT_TOL,
    LinearRelation,
    SpectrumError,
    adjoint,
    as_operator,
    classify_symmetry,
    comp_sum,
    contains,
    graph_of,
    intersect,
    inverse,
    make_relation,
    negate,
    operator_part,
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
    check_weyl_identities,
    defect,
    extension_of,
    forbidden_relation,
    gamma_and_weyl,
    triplet_report,
    von_neumann_triplet,
)
from .nevanlinna import (
    RationalNevanlinna,
    TauDecomposition,
    TauLimits,
    decompose_tau,
    eval_tau,
    tau_limits,
    validate_tau,
)
from .extension import (
    CompressionReport,
    RouteDisagreement,
    classify_compression,
    compression,
    compression_param,
    flags_coefficients,
    flags_geometric,
    krein_resolvent,
)
from .exitspace import (
    ExitSpaceModel,
    ModelTriplet,
    ReducedProblem,
    build_exit_space,
    couple,
    direct_compression,
    generalized_resolvent_direct,
    minimality,
    realize_model,
    reduce_parameter,
)

__version__ = "0.1.0"
