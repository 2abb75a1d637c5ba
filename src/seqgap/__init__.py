"""Sequential multiple hypothesis testing across parallel data streams.

Implements sequential stopping rules that exploit prior bounds on the
number of signal streams (the gap rule for a known count, the bracketed
gap-intersection rule for lower/upper bounds, and the plain intersection
rule), fixed-sample step-up baselines, Monte Carlo estimation of the usual
multiple-testing error metrics, closed-form threshold formulas with proven
error control, empirical threshold calibration, and an asymptotic-
optimality diagnostic.
"""

from .calibrate import (
    CalibrationError,
    CalibrationProbe,
    CalibrationResult,
    CalibrationSettings,
    calibrate_bh_n,
    calibrate_gap_c,
    calibrate_topm_n,
)
from .config import ConfigError, LoadedConfig, load_config
from .engine import (
    BENCHMARKS,
    BenchmarkReport,
    BenchmarkRow,
    DEFAULT_HORIZON,
    ExperimentConfig,
    ExperimentReport,
    SweepReport,
    SweepRow,
    asymptotic_sweep,
    derive_seed,
    reproduce_table,
    run_experiment,
    run_experiments,
    run_trial,
    trial_rng,
)
from .metrics import (
    BoundConstants,
    ConditioningError,
    ConfusionCounts,
    MetricEstimate,
    MetricKind,
    NoBoundConstants,
    aggregate,
    bound_constants,
    confusion,
)
from .models import (
    BERNOULLI,
    GAUSSIAN_MEAN,
    InfoNumbers,
    StreamModel,
    StreamProfile,
    WorstCaseInfo,
    eta,
)
from .rules import (
    BhRule,
    Decision,
    GapIntersectionRule,
    GapRule,
    IntersectionRule,
    OrderView,
    TopMRule,
    bh_decide,
    order_view,
    run_sequential,
    run_shared,
    top_m_decide,
)
from .thresholds import (
    ErrorBudget,
    GiThresholds,
    gap_threshold,
    gi_thresholds,
    kappa_gap,
    kappa_gi,
)

__version__ = "0.1.0"
