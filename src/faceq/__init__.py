"""Face algebras of quivers, their coactions, and quadratic quotients."""

from .errors import ParseError, UnsupportedShapeError, VerificationError
from .quiver import Quiver, parse_quiver
from .pathalg import parse_relations, quadratic_data, quadratic_dual
from .face import face_basis, format_coords, parse_element
from .wba import (
    GradedAlgebra,
    GradedWBA,
    BiidealGens,
    biideal_graded_pieces,
    check_axioms,
    check_biideal,
    counital_subalgebra,
    from_face_algebra,
    quotient_wba,
)
from .coaction import (
    CoactionSpec,
    canonical_coactions,
    check_comodule_algebra,
    check_structure_lemmas,
    check_transposed,
    search_base_iso,
    verify_base_iso,
)
from .uqsgd import UQSGdResult, build_uqsgd, check_quadratic_dualities, coaction_relations

__all__ = [
    "ParseError",
    "UnsupportedShapeError",
    "VerificationError",
    "Quiver",
    "parse_quiver",
    "parse_relations",
    "quadratic_data",
    "quadratic_dual",
    "face_basis",
    "format_coords",
    "parse_element",
    "GradedAlgebra",
    "GradedWBA",
    "BiidealGens",
    "biideal_graded_pieces",
    "check_axioms",
    "check_biideal",
    "counital_subalgebra",
    "from_face_algebra",
    "quotient_wba",
    "CoactionSpec",
    "canonical_coactions",
    "check_comodule_algebra",
    "check_structure_lemmas",
    "check_transposed",
    "search_base_iso",
    "verify_base_iso",
    "UQSGdResult",
    "build_uqsgd",
    "check_quadratic_dualities",
    "coaction_relations",
]
