"""Euclidean-geometric invariants of 3->3 Pachner moves on 4-manifolds."""

from .complexes import (
    Complex4,
    MoveRecord,
    bipyramid_sphere,
    boundary_delta5,
    build_complex,
    orient_consistently,
    pachner_33,
    star_of_triangle,
    stellar_subdivide,
    tetra_circle_join,
)
from .errors import (
    ComplexStructureError,
    DegenerateSimplexError,
    MovePreconditionError,
    NonRealizableLengthsError,
    Pachner33Error,
    SchemaError,
    SelectionError,
)
from .flatmetric import (
    FlatMetric,
    check_flat,
    deficit_Omega,
    deficit_omega,
    random_realization,
    realize,
)
from .geometry import gram_embed, signed_volume4, squared_length_table
from .identities import ClusterSix, check_6term, check_basic2, random_clusters
from .invariants import (
    InvariantReport,
    MoveComparison,
    basis_change_factor,
    compare_under_move,
    full_invariant,
    restricted_invariant,
)
from .io import ComplexDocument, load_fixture, parse_complex, serialize_complex
from .jacobians import (
    JacobianSet,
    SubmatrixSelection,
    assemble_domega_dL,
    build_jacobians,
    dtheta_dL_blocks,
    rank_and_submatrix,
)

__version__ = "0.1.0"
