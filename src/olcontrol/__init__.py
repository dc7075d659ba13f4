"""Online control of linear time-invariant systems under adversarial convex
costs, with best-in-hindsight benchmarks and a reproducible experiment
harness."""

from .benchmarks import (
    BenchmarkResult,
    adjoint_input_gradients,
    best_dac,
    best_fixed_input,
    best_steady_state,
    grid_oracle_fixed_input,
    solve_benchmarks,
)
from .controllers import (
    DacController,
    OlcController,
    estimate_disturbance,
    project_steady_state,
    regret_optimal_step_size,
)
from .costs import (
    QuadraticBatch,
    QuadraticCost,
    finite_diff_grad,
    smoothness_constant,
)
from .errors import (
    ConfigError,
    InvalidInputError,
    InvalidStateError,
    NotStronglyStableError,
    ProjectionFailureError,
    UnsupportedDimensionError,
)
from .harness import (
    ExperimentConfig,
    RunRecord,
    Trace,
    compute_regret,
    config_from_dict,
    default_system_matrices,
    generate_costs,
    generate_disturbances,
    load_config,
    make_rng,
    run_experiment,
    run_lockstep,
    run_one_seed,
    run_seeds,
    run_single,
    solve_draws,
)
from .linalg import spectral_norm, spectral_radius_estimate
from .system import (
    BoxSet,
    LtiSystem,
    StabilityCert,
    StateBound,
    certify_strong_stability,
    fit_box,
    simulate,
    simulate_decomposed,
    state_bound,
    steady_state_of_input,
    step,
)

__version__ = "0.1.0"
