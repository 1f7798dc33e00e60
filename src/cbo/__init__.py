"""Consensus-based optimization with memory effects and gradient drift."""

from .dynamics import (
    CboParams,
    Ensemble,
    InitSpec,
    RunResult,
    Schedule,
    consensus_point,
    exact_memory_update,
    init_ensemble,
    memory_switch,
    run,
    step,
)
from .errors import ConfigError, DivergedError
from .harness import (
    CsSpec,
    ExperimentConfig,
    PhaseDiagram,
    SuccessRule,
    TrialProblem,
    TrialSummary,
    cs_phase_diagram,
    decay_experiment,
    rastrigin_phase_diagram,
    run_trials,
    wilson_interval,
)
from .objectives import (
    CsObjective,
    Objective,
    Rastrigin,
    Sphere,
    finite_diff_grad,
    generate_cs_instance,
)
from .rng import RngStream
from .theory import (
    AssumptionConstants,
    BoundReport,
    DecayFit,
    Rates,
    chi_rates,
    chi_rates_memoryless,
    fit_exponential_rate,
    laplace_bound,
    lyapunov_V,
    mass_decay_rate_p,
    mollifier_phi_r,
    time_horizon_star,
    wasserstein2_to_dirac,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
