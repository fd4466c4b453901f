"""Exact stabiliser formalism for qudits of arbitrary composite dimension."""

__version__ = "0.1.0"

from .errors import QuditStabError
from .pauli import (
    PauliElement,
    commutation_phase,
    inverse,
    module_vector,
    multiply,
    order,
    order_matched_lift,
    phase_modulus,
    power,
)
from .zmod import (
    SmithForm,
    Submodule,
    ZdMatrix,
    smith_normal_form,
)
from .symplectic import (
    ElementaryBlock,
    LagrangianForm,
    SymplecticSpace,
    classify_isotropic_block,
    extend_isotropic_basis,
    lagrangian_canonical_form,
    perp,
    structure_decomposition,
    symplectic_basis,
)
from .heisenberg import (
    HeisenbergStructure,
    PauliAutomorphism,
    crt_canonical_chain,
    heisenberg_structure,
    lift_symplectic,
    verify_presentation,
)
from .stabilizer import (
    CharacterMap,
    StabilizerGroup,
    StabilizerReport,
    analyze,
    canonical_conjugation,
    character_action,
    css_split,
    free_symplectic_envelope,
    membership,
    normalizer_membership,
    validate,
)
from .oracle import (
    PhasePermutation,
    eigenspace_dimensions,
    protected_basis,
    protected_dimension,
    represent,
    verify_report,
)
from .kitaev import (
    ChargeConfiguration,
    KitaevModel,
    ShiftPair,
    SurfaceGraph,
    apply_shift,
    apply_twist,
    build_model,
    charge_configuration,
    dual_path_operator,
    genus2_bouquet_graph,
    normalizer_generators,
    path_operator,
    tetrahedron_graph,
    torus_grid_graph,
)

__all__ = [
    # submodules
    "errors",
    "heisenberg",
    "kitaev",
    "oracle",
    "pauli",
    "stabilizer",
    "symplectic",
    "zmod",
    # errors
    "QuditStabError",
    # pauli
    "PauliElement",
    "commutation_phase",
    "inverse",
    "module_vector",
    "multiply",
    "order",
    "order_matched_lift",
    "phase_modulus",
    "power",
    # zmod
    "SmithForm",
    "Submodule",
    "ZdMatrix",
    "smith_normal_form",
    # symplectic
    "ElementaryBlock",
    "LagrangianForm",
    "SymplecticSpace",
    "classify_isotropic_block",
    "extend_isotropic_basis",
    "lagrangian_canonical_form",
    "perp",
    "structure_decomposition",
    "symplectic_basis",
    # heisenberg
    "HeisenbergStructure",
    "PauliAutomorphism",
    "crt_canonical_chain",
    "heisenberg_structure",
    "lift_symplectic",
    "verify_presentation",
    # stabilizer
    "CharacterMap",
    "StabilizerGroup",
    "StabilizerReport",
    "analyze",
    "canonical_conjugation",
    "character_action",
    "css_split",
    "free_symplectic_envelope",
    "membership",
    "normalizer_membership",
    "validate",
    # oracle
    "PhasePermutation",
    "eigenspace_dimensions",
    "protected_basis",
    "protected_dimension",
    "represent",
    "verify_report",
    # kitaev
    "ChargeConfiguration",
    "KitaevModel",
    "ShiftPair",
    "SurfaceGraph",
    "apply_shift",
    "apply_twist",
    "build_model",
    "charge_configuration",
    "dual_path_operator",
    "genus2_bouquet_graph",
    "normalizer_generators",
    "path_operator",
    "tetrahedron_graph",
    "torus_grid_graph",
]
