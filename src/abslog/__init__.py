"""abslog: generate, check and verify the internal logic of finite abstractions."""

from .concrete import (
    Abstraction,
    AdjointResult,
    ConcreteSet,
    ConcreteUniverse,
    ConcretizationMap,
    EmbeddingResult,
    PreservationReport,
    check_order_embedding,
    compute_left_adjoint,
    preservation_report,
)
from .lattice import (
    FiniteLattice,
    UnaryOpTable,
    build_lattice,
    co_implication,
    find_order_reversing_involutions,
    hasse_edges,
    heyting_implication,
    is_join_irreducible,
    is_meet_irreducible,
)
from .logicgen import (
    ProofSystem,
    Rule,
    Signature,
    generate_proof_system,
    generate_signature,
    minimize_proof_system,
    parse_machine,
    render,
)
from .proofengine import (
    DerivabilityEngine,
    LindenbaumAlgebra,
    ModelEngine,
    build_lindenbaum,
    derivable,
    engine_for,
    normalize,
    verify_completeness,
    verify_isomorphism,
    verify_soundness,
)
from .syntax import Sequent, parse_formula, parse_sequent, render_sequent

__version__ = "0.1.0"
