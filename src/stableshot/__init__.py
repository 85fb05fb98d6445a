"""stableshot: simulate heavy-tailed session traffic (infinite-source
Poisson shot noise) and verify its alpha-stable scaling limits at desk
scale -- regenerative cycles, centered workload functionals, stable-law
reference samples, and path-space (M1) diagnostics."""

from ._backend import backend_name
from .cycles import (
    CycleDecomposition,
    collect_cycle_lengths,
    cycle_tail_table,
    decompose_cycles,
    hill_alpha,
)
from .functionals import (
    WindowFunctional,
    cdf_indicator,
    clipped,
    cycle_integrals,
    empirical_cdf,
    empirical_path,
    estimate_calE,
    identity,
    idle_indicator,
    integrate_phi,
    window_sup_indicator,
)
from .harness import Report, Scenario, builtin_scenarios, emit, run
from .heavy_rand import (
    StableParams,
    TailDist,
    c_alpha,
    sample_pareto,
    sample_stable,
    stable_cf,
    tail_quantile_a,
)
from .limits import LimitSpec, limit_params, tail_constant_Z
from .rng import RngStream
from .skorokhod import SteppyPath, dist_m1, dist_uniform
from .stats import GofReport, ecf_distance, iqr, ks_two_sample, rate_regression
from .traffic import (
    ConstantRate,
    DeterministicRate,
    IndependentRate,
    JointLaw,
    Sessions,
    ShotNoisePath,
    TrafficConfig,
    build_path,
    named_rate,
    simulate_sessions,
    stationary_snapshot,
    stationary_window_draws,
)

__version__ = "0.1.0"
