"""starq: exact star-products on polynomial phase spaces and their
equivalence with the Moyal product, order by order in the deformation
parameter."""

__version__ = "0.1.0"

from .scalars import GaussianRational, gr
from .poly import MultiIndex, Poly
from .series import HbarSeries
from .operators import BiDiffOp, DiffOp
from .geometry import (
    Connection,
    SymplecticConnectionSpec,
    curvature,
    flat_connection_from_diffeo,
    is_flat,
    lift_connection,
    ricci,
)
from .products import (
    PoissonTensor,
    StarProduct,
    VectorFieldFrame,
    check_axioms,
    moyal_product,
    natural_cotangent_product,
    quantum_canonicity_check,
    star_bracket,
    truncated_symplectic_product,
    vector_field_product,
)
from .equivalence import (
    EquivalenceMorphism,
    commutator_solution_direct,
    commutator_solution_nested,
    coordinate_rhs,
    derive_equivalence,
    flat_cotangent_morphism,
    flat_cotangent_order2,
    flat_cotangent_order4,
    symmetrized_star_power,
    symplectic_order2,
    verify_intertwining,
)

__all__ = [
    "GaussianRational",
    "gr",
    "MultiIndex",
    "Poly",
    "HbarSeries",
    "BiDiffOp",
    "DiffOp",
    "Connection",
    "SymplecticConnectionSpec",
    "curvature",
    "flat_connection_from_diffeo",
    "is_flat",
    "lift_connection",
    "ricci",
    "PoissonTensor",
    "StarProduct",
    "VectorFieldFrame",
    "check_axioms",
    "moyal_product",
    "natural_cotangent_product",
    "quantum_canonicity_check",
    "star_bracket",
    "truncated_symplectic_product",
    "vector_field_product",
    "EquivalenceMorphism",
    "commutator_solution_direct",
    "commutator_solution_nested",
    "coordinate_rhs",
    "derive_equivalence",
    "flat_cotangent_morphism",
    "flat_cotangent_order2",
    "flat_cotangent_order4",
    "symmetrized_star_power",
    "symplectic_order2",
    "verify_intertwining",
]
