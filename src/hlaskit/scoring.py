"""Feature assembly and weighted aggregation into the headline score.

Per joint-task pair, six factors in [0, 1] are collected: ROM coverage,
DoF sufficiency, envelope (HEE) coverage, bandwidth margin, normalized
task-weighted efficiency, and thermal margin.  Aggregation is a three-level
weighted mean (features -> joint-task score, joints -> task score, tasks ->
HLAS) with pre-registered weights at every level.

Each level divides by the actual sum of its weights (validated to be within
1e-9 of one), so a subject whose features all evaluate to 1 scores exactly
1.0 regardless of floating-point weight representation.
"""

from __future__ import annotations

from math import fsum, isfinite

from .atlas import (
    AxisActuationReport,
    RomInterval,
    dof_sufficiency,
    rom_coverage,
)
from .bands import OperatingBand, PointTable
from .envelope import CapabilityMap, clip01, hee_coverage, rate_margin
from .errors import (
    ConfigIncomplete,
    EmptyCriticalSet,
    InvalidFeature,
    InvalidRecord,
    MissingJoint,
    ZeroRequirement,
    ZeroTarget,
)
from .prereg import FEATURE_NAMES, WeightScheme, _check_weights
from .record import fields, record
from .signals import task_weighted_efficiency


@record
class FeatureVector:
    """The six factors for one joint-task pair, each in [0, 1]."""

    rom: float
    dof: float
    hee: float
    bandwidth: float
    efficiency: float
    thermal: float

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not 0.0 <= v <= 1.0:
                raise InvalidFeature(f"feature {f.name}={v} outside [0, 1]")

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in FEATURE_NAMES}


def weighted_mean(values: dict[str, float], weights: dict[str, float],
                  label: str) -> float:
    """Weighted mean normalized by the (validated) weight sum."""
    total = _check_weights(weights, label)
    missing = set(weights) - set(values)
    if missing:
        raise MissingJoint(f"{label}: no score for {sorted(missing)}")
    return fsum(weights[k] * values[k] for k in weights) / total


@record
class PairInputs:
    """Everything measured or referenced for one joint-task pair; a scalar
    that is NaN or infinite raises ``InvalidRecord``."""

    task: str
    joint: str
    band: OperatingBand
    capability: CapabilityMap
    robot_rom: dict[str, RomInterval]
    functional_rom: dict[str, RomInterval]
    required_axes: frozenset[str]
    dof_reports: list[AxisActuationReport]
    f_crossover_hz: float
    efficiency_samples: PointTable
    torque_cont_nm: float
    torque_req_nm: float
    omega_max_rad_s: float | None = None
    omega_req_rad_s: float | None = None

    def __post_init__(self) -> None:
        for name in ("f_crossover_hz", "torque_cont_nm", "torque_req_nm",
                     "omega_max_rad_s", "omega_req_rad_s"):
            value = getattr(self, name)
            if value is not None and not isfinite(value):
                raise InvalidRecord(f"({self.task}, {self.joint}) {name} "
                                    f"{value!r} is not finite")


@record
class ScoreBreakdown:
    hlas: float
    task_scores: dict[str, float]
    joint_task_scores: dict[tuple[str, str], float]
    contributions: dict[tuple[str, str], float]
    feature_vectors: dict[tuple[str, str], FeatureVector]
    guardrail_flags: tuple[str, ...] = ()


# --- factor normalizations ------------------------------------------------

def bandwidth_factor(f_crossover: float, f_target: float) -> float:
    """Clipped ratio of measured -3 dB crossover to the task target."""
    if f_target <= 0:
        raise ZeroTarget("bandwidth target must be positive")
    return clip01(f_crossover / f_target)


def efficiency_factor(eta_bar: float, eta_target: float) -> float:
    """Clipped ratio of task-weighted efficiency to the task target."""
    if eta_target <= 0:
        raise ZeroTarget("efficiency target must be positive")
    return clip01(eta_bar / eta_target)


def thermal_factor(torque_cont: float, torque_req: float) -> float:
    """Clipped ratio of sustainable plateau torque to the human plateau
    requirement at the task's duty cycle."""
    if torque_req <= 0:
        raise ZeroRequirement("thermal torque requirement must be positive")
    return clip01(torque_cont / torque_req)


def joint_task_score(x: FeatureVector, alpha: dict[str, float]) -> float:
    """Feature-weighted score for one joint-task pair."""
    return weighted_mean(x.as_dict(), alpha, "feature")


def task_score(scores: dict[str, float], u: dict[str, float]) -> float:
    """Joint-weighted score for one task."""
    return weighted_mean(scores, u, "joint")


# --- assembly --------------------------------------------------------------

def _target(table: dict[str, dict[str, float]], task: str, joint: str,
            label: str) -> float:
    try:
        return table[task][joint]
    except KeyError:
        raise ConfigIncomplete(
            f"no {label} target for ({task}, {joint})"
        ) from None


def compute_features(pair: PairInputs, scheme: WeightScheme) -> FeatureVector:
    """Evaluate the six factors for one pair under a scheme's targets."""
    rom = rom_coverage(pair.robot_rom, pair.functional_rom, pair.required_axes)
    dof = dof_sufficiency(pair.dof_reports, pair.required_axes)
    hee = hee_coverage(pair.band, pair.capability,
                       scheme.headroom_delta).coverage
    if scheme.use_rate_margin:
        if pair.omega_max_rad_s is None or pair.omega_req_rad_s is None:
            raise ConfigIncomplete(
                f"rate-margin scoring needs omega_max and omega_req for "
                f"({pair.task}, {pair.joint})"
            )
        bw = rate_margin(pair.omega_max_rad_s, pair.omega_req_rad_s)
    else:
        bw = bandwidth_factor(
            pair.f_crossover_hz,
            _target(scheme.bandwidth_targets, pair.task, pair.joint,
                    "bandwidth"),
        )
    eta_bar = task_weighted_efficiency(pair.band, pair.efficiency_samples)
    eff = efficiency_factor(
        eta_bar,
        _target(scheme.efficiency_targets, pair.task, pair.joint,
                "efficiency"),
    )
    therm = thermal_factor(pair.torque_cont_nm, pair.torque_req_nm)
    return FeatureVector(rom, dof, hee, bw, eff, therm)


def hlas(pairs: list[PairInputs], scheme: WeightScheme) -> ScoreBreakdown:
    """Full aggregation over every pair the scheme declares.

    Missing pairs abort scoring rather than silently scoring zero; a pair
    listed in the scheme's score_as_zero set is the explicit way to declare
    a known deficit.
    """
    scheme.validate()
    by_pair = {(p.task, p.joint): p for p in pairs}

    feature_vectors: dict[tuple[str, str], FeatureVector] = {}
    joint_task_scores: dict[tuple[str, str], float] = {}
    flags: list[str] = []

    for task, joint in scheme.pairs():
        key = (task, joint)
        if key in by_pair:
            x = compute_features(by_pair[key], scheme)
        elif key in scheme.score_as_zero:
            x = FeatureVector(0, 0, 0, 0, 0, 0)
            flags.append(f"declared_deficit: ({task}, {joint}) scored as zero")
        else:
            raise ConfigIncomplete(
                f"no measurements for declared pair ({task}, {joint}); "
                f"declare it in score_as_zero to score it as a deficit"
            )
        feature_vectors[key] = x
        joint_task_scores[key] = joint_task_score(x, scheme.feature_weights)

    task_scores = {
        task: task_score(
            {j: joint_task_scores[(task, j)]
             for j in scheme.joint_weights[task]},
            scheme.joint_weights[task],
        )
        for task in scheme.task_weights
    }
    total = weighted_mean(task_scores, scheme.task_weights, "task")

    w_sum = fsum(scheme.task_weights.values())
    contributions = {}
    for task, joint in scheme.pairs():
        u = scheme.joint_weights[task]
        u_sum = fsum(u.values())
        contributions[(task, joint)] = (
            (scheme.task_weights[task] / w_sum)
            * (u[joint] / u_sum)
            * joint_task_scores[(task, joint)]
        )

    gated = scheme.critical_tasks or set(scheme.task_weights)
    if scheme.breadth_floor is not None:
        for task, joint in scheme.pairs():
            if task in gated and feature_vectors[(task, joint)].hee \
                    < scheme.breadth_floor:
                flags.append(
                    f"breadth_floor: envelope coverage "
                    f"{feature_vectors[(task, joint)].hee:.3f} < "
                    f"{scheme.breadth_floor:g} for ({task}, {joint})"
                )
    if scheme.task_gate_min is not None:
        for task in sorted(gated):
            if task_scores[task] < scheme.task_gate_min:
                flags.append(
                    f"task_gate: score {task_scores[task]:.3f} < "
                    f"{scheme.task_gate_min:g} for task {task}"
                )

    return ScoreBreakdown(
        hlas=total,
        task_scores=task_scores,
        joint_task_scores=joint_task_scores,
        contributions=contributions,
        feature_vectors=feature_vectors,
        guardrail_flags=tuple(flags),
    )


def gated_hlas(breakdown: ScoreBreakdown,
               critical_tasks: set[str] | frozenset[str]) -> float:
    """Multiplicative gate: geometric mean of critical task scores times
    the aggregate, driving the result to zero if a critical task fails."""
    if not critical_tasks:
        raise EmptyCriticalSet("gating needs at least one critical task")
    unknown = set(critical_tasks) - set(breakdown.task_scores)
    if unknown:
        raise MissingJoint(f"critical tasks {sorted(unknown)} were not scored")
    product = 1.0
    for task in sorted(critical_tasks):
        product *= breakdown.task_scores[task]
    if product <= 0:
        return 0.0
    return product ** (1.0 / len(critical_tasks)) * breakdown.hlas

