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
    group_populations,
    tensor_product,
    von_neumann_entropy,
)
from .thermal import (
    TailReport,
    gibbs_probabilities,
    truncation_for_tail,
)
from .engine import (
    BatterySplit,
    CompactEngineConfig,
    CycleReport,
    InvariantError,
    NoGradientError,
    SpeedDiagnostics,
    battery_split,
    build_interaction_hamiltonian,
    enumerate_blocks,
    evolution_operator,
    evolve_cycle,
    speed_and_geodesic,
)
from .optics import (
    CouplingProfile,
    OpticsEngineConfig,
    SweepPoint,
    adiabatic_elimination_error,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    coupling_profile_from_tables,
    effective_compact_config,
    full_charge_blocks,
    inverse_intensity_profile,
    run_optics_cycle,
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
