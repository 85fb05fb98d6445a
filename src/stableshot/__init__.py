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
from .functionals import WindowFunctional, empirical_cdf
from .harness import Report, Scenario, builtin_scenarios, emit, make_functional, run
from .heavy_rand import (
    StableParams,
    TailDist,
    c_alpha,
    sample_stable,
    tail_quantile_a,
)
from .limits import LimitSpec, limit_params
from .rng import RngStream
from .skorokhod import SteppyPath, dist_m1, dist_uniform
from .stats import GofReport, iqr, ks_two_sample, rate_regression
from .traffic import (
    JointLaw,
    Sessions,
    ShotNoisePath,
    TrafficConfig,
    build_path,
    simulate_sessions,
    stationary_window_draws,
)

__version__ = "0.1.0"
