"""One-step quantum heat-engine cycles driven by semi-local thermal operations.

Simulates two engine realizations (a two-ladder exchange engine and a
cavity-QED three-level engine), verifies their conservation laws and
performance claims, and fits cavity profiles that realize the required
intensity-dependent couplings.
"""

from .linalg import (
    ATOL_STRUCTURE,
    DensityMatrix,
    DimensionLimitError,
    HermiticityError,
    Operator,
    ShapeError,
    SpectralPropagator,
    StateVector,
    basis_state,
    commutator_norm,
    energy_uncertainty,
    fubini_study_distance,
    identity,
    tensor_product,
    von_neumann_entropy,
)
from .thermal import (
    BathPropertyReport,
    DegeneracyModel,
    GibbsState,
    TailReport,
    TruncatedMode,
    bath_property_suite,
    degeneracy_conservation_check,
    gibbs_probabilities,
    gibbs_state,
    truncation_for_tail,
)
from .engine import (
    BatterySplit,
    ChargeBlock,
    CompactEngineConfig,
    CycleReport,
    NoGradientError,
    SpeedDiagnostics,
    battery_split,
    build_interaction_hamiltonian,
    charge_block,
    enumerate_blocks,
    evolution_operator,
    evolve_cycle,
    speed_and_geodesic,
)
from .optics import (
    CouplingProfile,
    LambdaAtom,
    OpticsEngineConfig,
    SweepPoint,
    WorkRecord,
    adiabatic_elimination_error,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    coupling_profile_from_tables,
    effective_compact_config,
    full_charge_block,
    inverse_intensity_profile,
    run_optics_cycle,
    stimulated_emission_bookkeeping,
    sweep_slopes,
    uniform_exchange_profile,
)
from .designer import (
    AnnealSchedule,
    DesignTargets,
    DesignValidation,
    PotentialAnsatz,
    design_cost,
    fock_matrix_elements,
    mc_optimize,
    position_operator,
    validate_design,
)

__version__ = "0.1.0"
