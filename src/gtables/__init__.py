"""Exact-arithmetic equivariant multiplication tables over Q."""

from .exactla import (
    AmbiguousCoordinates,
    ColumnSolver,
    Matrix,
    Subspace,
    coords_modulo,
    kernel,
    scalar_from_str,
    scalar_to_str,
    solve,
)
from .gtable import (
    AmbiguousSystem,
    GMatrix,
    GTable,
    InconsistentSystem,
    MissingChoice,
    NotEquivariant,
    ShapeMismatch,
    check_morphism,
    corollary_check,
    cotable,
    expand,
    extract,
    parse_gtable,
    plain_algebra,
    plain_map,
    render,
)
from .repkit import (
    Decomposition,
    GModule,
    IntertwinerRegistry,
    IrrepId,
    ModelIrrep,
    builtin_labeling,
    decompose_s3,
    decompose_sl2,
    highest_weight_vectors,
    sl2_poly_labeling,
)
from .supercochain import (
    BigradedElement,
    ComplexContext,
    NotACocycle,
    bracket,
    class_coordinates,
    cohomology,
    differential,
    heisenberg_context,
    sl2_act,
    vee,
)

__version__ = "0.1.0"
