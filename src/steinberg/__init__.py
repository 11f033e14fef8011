"""Exact computational algebra for Steinberg algebras of finite groupoids.

The package builds finite discrete groupoids, forms their convolution
algebras over the rationals or a prime field, constructs and certifies
minimal left ideals, and computes the socle together with its matrix
decomposition.  A brute-force oracle over small prime fields validates the
structural routines, and a graph frontend covers Leavitt path algebras of
acyclic graphs through their boundary-path groupoids.
"""

from .algebra import (
    AlgebraElement,
    SteinbergAlgebra,
    bisection_product,
    element_to_obj,
)
from .builders import (
    GroupTable,
    all_groupoids_up_to,
    cyclic_group,
    dihedral_group_4,
    direct_product,
    disjoint_union,
    groups_of_order,
    one_object_groupoid,
    pair_groupoid,
    quaternion_group,
    random_bisection,
    random_groupoid,
    symmetric_group_3,
    transitive_groupoid,
    trivial_groupoid,
)
from .fields import PrimeField, Rationals, field_from_designator
from .graphs import (
    INFINITE,
    BoundaryPath,
    DirectedGraph,
    GraphHasCycleError,
    GraphSocleReport,
    boundary_paths,
    line_points,
    lpa_socle,
    make_graph,
    materialize_boundary_groupoid,
    orbit_size,
)
from .groupoid import (
    FiniteGroupoid,
    GroupoidValidationError,
    IsotropyGroup,
    OrbitClass,
    validate,
)
from .limits import MAX_GROUPOID_ELEMENTS, SizeCapExceeded
from .oracle import (
    SemiprimeReport,
    oracle_is_semiprime,
    oracle_minimal_ideals,
    oracle_minimal_right_ideals,
    oracle_right_socle,
    oracle_socle,
)
from .socle import (
    ABSOLUTE_ZERO_DIVISOR,
    DIVISION_IDEMPOTENT,
    LPReport,
    LPViolationError,
    LeftIdeal,
    MinimalIdealCertificate,
    MinimalityReport,
    SocleComponent,
    SocleReport,
    check_condition_LP,
    corner_minimality_transfer,
    is_minimal_left_ideal,
    left_ideal,
    minimal_ideal_generator,
    socle,
    two_sided_ideal,
)

__version__ = "1.0.0"

__all__ = [
    "ABSOLUTE_ZERO_DIVISOR",
    "AlgebraElement",
    "BoundaryPath",
    "DIVISION_IDEMPOTENT",
    "DirectedGraph",
    "FiniteGroupoid",
    "GraphHasCycleError",
    "GraphSocleReport",
    "GroupTable",
    "GroupoidValidationError",
    "INFINITE",
    "IsotropyGroup",
    "LPReport",
    "LPViolationError",
    "LeftIdeal",
    "MAX_GROUPOID_ELEMENTS",
    "MinimalIdealCertificate",
    "MinimalityReport",
    "OrbitClass",
    "PrimeField",
    "Rationals",
    "SemiprimeReport",
    "SizeCapExceeded",
    "SocleComponent",
    "SocleReport",
    "SteinbergAlgebra",
    "all_groupoids_up_to",
    "bisection_product",
    "boundary_paths",
    "check_condition_LP",
    "corner_minimality_transfer",
    "cyclic_group",
    "dihedral_group_4",
    "direct_product",
    "disjoint_union",
    "element_to_obj",
    "field_from_designator",
    "groups_of_order",
    "is_minimal_left_ideal",
    "left_ideal",
    "line_points",
    "lpa_socle",
    "make_graph",
    "materialize_boundary_groupoid",
    "minimal_ideal_generator",
    "one_object_groupoid",
    "oracle_is_semiprime",
    "oracle_minimal_ideals",
    "oracle_minimal_right_ideals",
    "oracle_right_socle",
    "oracle_socle",
    "orbit_size",
    "pair_groupoid",
    "quaternion_group",
    "random_bisection",
    "random_groupoid",
    "socle",
    "symmetric_group_3",
    "transitive_groupoid",
    "trivial_groupoid",
    "two_sided_ideal",
    "validate",
]
