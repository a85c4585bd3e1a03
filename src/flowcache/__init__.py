"""Cached sampling for rectified-flow ODE integration.

Offline, full-step trajectories over a seeded calibration set are decomposed
into per-step magnitude and direction indicators, from which cumulative
variation thresholds build a skip schedule. Online, skipped velocities are
reconstructed from the cached indicators and each sample's own historical
turning direction, with zero extra oracle evaluations. Synthetic velocity
fields with known closed forms stand in for an expensive learned model so
every component is verifiable at desk scale.
"""

from .cached_sampler import CompensationToggles, sample_cached
from .calibration import (
    IndicatorTable,
    ScheduleBundle,
    calibrate,
    read_bundle,
    write_bundle,
)
from .diagnostics import (
    DriftReport,
    ExperimentConfig,
    compare_trajectories,
    count_speedup,
    run_experiment,
)
from .error_bound import BoundTerms, bound_terms, oracle_update, run_bound_sweep
from .errors import (
    BundleFormatError,
    DegenerateVelocityError,
    FlowCacheError,
    InvalidArgumentError,
    NumericDomainError,
)
from .fields import (
    Condition,
    FieldSpec,
    MixtureComponent,
    VelocityField,
    field_digest,
    initial_state,
)
from .schedule import (
    DEFAULT_H_MAX,
    DEFAULT_TAU_D,
    DEFAULT_TAU_K,
    VariationSequence,
    build_schedule,
    max_stable_interval,
    schedule_coverage,
)
from .solver import TimeGrid, TrajectoryRecord, make_uniform_grid, sample_full
from .version import __version__

__all__ = [
    "BoundTerms",
    "BundleFormatError",
    "CompensationToggles",
    "Condition",
    "DEFAULT_H_MAX",
    "DEFAULT_TAU_D",
    "DEFAULT_TAU_K",
    "DegenerateVelocityError",
    "DriftReport",
    "ExperimentConfig",
    "FieldSpec",
    "FlowCacheError",
    "IndicatorTable",
    "InvalidArgumentError",
    "MixtureComponent",
    "NumericDomainError",
    "ScheduleBundle",
    "TimeGrid",
    "TrajectoryRecord",
    "VariationSequence",
    "VelocityField",
    "__version__",
    "bound_terms",
    "build_schedule",
    "calibrate",
    "compare_trajectories",
    "count_speedup",
    "field_digest",
    "initial_state",
    "make_uniform_grid",
    "max_stable_interval",
    "oracle_update",
    "read_bundle",
    "run_bound_sweep",
    "run_experiment",
    "sample_cached",
    "sample_full",
    "schedule_coverage",
    "write_bundle",
]
