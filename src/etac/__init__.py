"""Event-triggered anytime control over unreliable links.

Simulation of a nonlinear plant whose sensor transmits only outside a target
ball, through an erasure channel, to a controller with random per-step
processor availability; plus the closed-form stochastic-stability machinery
(contraction factors, buffer-length chain, stability boundaries) and
brute-force oracles that cross-check it.
"""

from .analysis import (
    AnalysisResult,
    LambdaChain,
    analyze,
    anytime_contraction,
    anytime_contraction_series,
    anytime_mean_bound,
    baseline_contraction,
    baseline_mean_bound,
    boundary_alpha_anytime,
    boundary_alpha_baseline,
    boundary_curves,
    build_lambda_chain,
    return_time_pmf_truncated,
)
from .domain import (
    NoiseSpec,
    PlantSpec,
    StepRecord,
    StochasticEnv,
    make_sat_plant,
    make_scalar_plant,
    sat,
    validate_env,
)
from .oracle import (
    EmpiricalPmf,
    TransitionEstimate,
    empirical_transition_matrix,
    lambda_path_from_counts,
    lambda_transition_matrix,
    reference_anytime_step,
    simulate_lambda_chain,
    tv_distance,
)
from .runtime import (
    RngStream,
    Trace,
    channel_utilization,
    empirical_cost,
    plan_inputs,
    run_trajectory,
    write_trace_csv,
)

__version__ = "0.1.0"
