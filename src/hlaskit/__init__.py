"""Benchmarking toolkit for human-level actuation claims.

Computes human-equivalence envelope (HEE) coverage and the aggregate
human-level actuation score (HLAS) for robot joints from measured
capability maps and raw dynamometer logs, with pre-registered weights,
guardrails, and a fully synthetic known-answer test plant.
"""

from .atlas import (
    AxisActuationReport,
    JointDofRecord,
    RomInterval,
    dof_sufficiency,
    rom_coverage,
)
from .bands import (
    OperatingBand,
    PointTable,
    build_band_grid,
    normalize_weights,
)
from .envelope import (
    CapabilityMap,
    HeeResult,
    MarginReport,
    hee_coverage,
    margin_report,
    power_margin,
    rate_margin,
    torque_margin,
)
from .prereg import WeightScheme
from .scoring import (
    FeatureVector,
    PairInputs,
    ScoreBreakdown,
    bandwidth_factor,
    efficiency_factor,
    gated_hlas,
    hlas,
    joint_task_score,
    task_score,
    thermal_factor,
)
from .signals import (
    CrossoverResult,
    FrfPoint,
    FrictionFit,
    PlateauResult,
    TimeSeriesLog,
    compute_frf,
    detect_plateau,
    find_crossover,
    fit_friction,
    loaded_bandwidth_check,
    power_balance_check,
    task_weighted_efficiency,
)
from .synthetic import (
    DutyProfile,
    SyntheticActuator,
    generate_backdrive_log,
    generate_capability_map,
    generate_sweep_log,
    generate_thermal_duty_log,
)

__version__ = "0.1.0"
