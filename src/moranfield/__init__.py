"""Moran birth-death chains on strategy counts and their replicator mean-field limit.

The package simulates the multi-strategy Moran process in the weak-selection
scaling regime, integrates the replicator ODE to realize the limiting flow,
and measures the 1-Wasserstein distance between chain snapshot laws and the
flow pushforward of the initial law.
"""

from .engine import (
    DiscreteState,
    ScalingSchedule,
    Trajectory,
    TransitionTable,
    exact_drift,
    export_trajectory,
    largest_remainder_counts,
    simulate,
    step,
    transition_table,
)
from .errors import (
    CapacityError,
    ConfigurationError,
    DimensionError,
    DomainError,
    FitnessDegenerateError,
    InvalidWitnessError,
    RegimeError,
    ResolutionError,
    SimulationError,
    StiffnessError,
)
from .flow import FlowConfig, default_flow_config, flow, pushforward
from .lab import (
    EnsembleResult,
    InitialLaw,
    ResidualEstimate,
    TestFunction,
    convergence_experiment,
    quadrature_checkpoints,
    regime_experiment,
    residual_floor,
    run_ensemble,
    standard_test_functions,
    weak_form_residual,
)
from .simplex import (
    PayoffMatrix,
    SimplexPoint,
    payoff_fitness,
    replicator_field,
)
from .transport import (
    EmpiricalMeasure,
    Witness,
    coordinate_witness,
    distance_witness,
    random_witnesses,
    w1_dual_lower_bound,
    w1_exact,
)

__version__ = "0.1.0"
