"""Human-equivalence envelope coverage and diagnostic margins.

A band sample passes the envelope test only if the robot meets the human
torque AND power demand at that same (q, omega) point; coverage is the sum
of the positive-power weights of passing samples.  Requiring simultaneity
at one operating point is what prevents a design from combining a
high-torque/low-speed peak with a high-speed/low-torque peak into a
"human-level" claim.

Capability maps are matched to band samples by exact (q, omega) equality.
Interpolating a capability map is refused on purpose: the measurement
protocol samples the robot at the band points themselves, and silently
interpolating would invent capability that was never measured.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import fsum

from .bands import OperatingBand, measured_at
from .errors import (
    DegenerateBand,
    DuplicateKey,
    InvalidRecord,
    ZeroDemand,
    ZeroDemandWarning,
    ZeroRequirement,
)

MARGIN_METHODS = ("min", "quantile10")


def clip01(x: float) -> float:
    return min(1.0, max(0.0, x))


@dataclass(frozen=True)
class CapabilitySample:
    """Continuous-safe robot torque at one (q, omega) point."""

    q: float            # deg
    omega: float        # rad/s
    torque_rob: float   # Nm, magnitude on the task-signed axis

    def __post_init__(self) -> None:
        if self.torque_rob < 0:
            raise InvalidRecord(
                f"continuous-safe torque {self.torque_rob!r} must be >= 0")

    @property
    def point(self) -> tuple[float, float]:
        return (self.q, self.omega)


@dataclass(frozen=True)
class CapabilityMap:
    """Continuous-safe torque samples for one joint axis.

    ``conditions`` records the measurement context (ambient, airflow, soak
    state) and is mandatory: a capability number without its thermal context
    is not comparable across systems.
    """

    joint: str
    axis: str
    samples: tuple[CapabilitySample, ...]
    conditions: str
    torque_at: dict[tuple[float, float], float] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.conditions.strip():
            raise InvalidRecord("capability map requires a conditions "
                                "description (a '# conditions:' header)")
        torque_at = {s.point: s.torque_rob for s in self.samples}
        if len(torque_at) != len(self.samples):
            raise DuplicateKey(f"capability map {self.joint}/{self.axis} "
                               f"repeats a (q, omega) sample")
        object.__setattr__(self, "torque_at", torque_at)


@dataclass(frozen=True)
class MaskRow:
    q: float
    omega: float
    weight: float
    torque_ok: bool
    power_ok: bool

    @property
    def passed(self) -> bool:
        return self.torque_ok and self.power_ok


@dataclass(frozen=True)
class HeeResult:
    coverage: float
    per_sample: tuple[MaskRow, ...]

    def pass_rates(self) -> list[float]:
        """Rates (rad/s) of the passing samples, for quick diagnostics."""
        return [r.omega for r in self.per_sample if r.passed]


def hee_coverage(
    band: OperatingBand,
    cap: CapabilityMap,
    headroom_delta: float = 0.0,
) -> HeeResult:
    """Positive-power-weighted fraction of the band where the robot meets
    (1 + delta) times the human torque and power demands simultaneously.

    Equality counts as a pass.  Samples with nonpositive human power carry
    zero weight, so they cannot change coverage either way.  Coverage is
    the ratio of passing weight to total weight, so a map that dominates
    the demands everywhere scores exactly 1.0.
    """
    if headroom_delta < 0:
        raise ValueError("headroom delta must be >= 0")
    if band.degenerate:
        raise DegenerateBand(
            f"band {band.task}/{band.joint} has no positive-power samples"
        )
    torques = measured_at(band, cap.torque_at, "capability")
    scale = 1.0 + headroom_delta
    rows = []
    for s, t_rob in zip(band.samples, torques):
        torque_ok = t_rob >= scale * s.torque_hum
        power_ok = t_rob * s.omega >= scale * s.power_hum
        rows.append(MaskRow(s.q, s.omega, s.weight, torque_ok, power_ok))
    coverage = (fsum(r.weight for r in rows if r.passed)
                / fsum(r.weight for r in rows))
    return HeeResult(coverage, tuple(rows))


def _quantile10(sorted_values: list[float]) -> float:
    """10th percentile by linear interpolation between order statistics at
    position 0.1 * (n - 1)."""
    n = len(sorted_values)
    pos = 0.1 * (n - 1)
    i = int(pos)
    frac = pos - i
    if i + 1 >= n:
        return sorted_values[i]
    return sorted_values[i] + frac * (sorted_values[i + 1] - sorted_values[i])


def _margin(ratios: list[float], method: str) -> float:
    if method not in MARGIN_METHODS:
        raise ValueError(f"margin method must be one of {MARGIN_METHODS}")
    clipped = sorted(clip01(r) for r in ratios)
    if method == "min":
        return clipped[0]
    return _quantile10(clipped)


def _ratio_margin(band: OperatingBand, quantity: str, method: str,
                  robot_human: list[tuple[float, float]]) -> float:
    """Margin over the (robot, human) pairs of one quantity; pairs with
    nonpositive human demand are excluded with a warning."""
    ratios = [robot / human for robot, human in robot_human if human > 0]
    skipped = len(robot_human) - len(ratios)
    if skipped:
        warnings.warn(
            f"{skipped} sample(s) with nonpositive {quantity} demand excluded "
            f"from the {quantity} margin of {band.task}/{band.joint}",
            ZeroDemandWarning,
            stacklevel=3,
        )
    if not ratios:
        raise ZeroDemand(f"no samples with positive {quantity} demand")
    return _margin(ratios, method)


def torque_margin(
    band: OperatingBand, cap: CapabilityMap, method: str = "min"
) -> float:
    """Lower-envelope (or 10th-percentile) of clipped robot/human torque
    ratios over the band.

    Samples with nonpositive human torque are excluded from the ratio set
    with a warning; their HEE weight is already zero, so nothing is lost.
    """
    torques = measured_at(band, cap.torque_at, "capability")
    return _ratio_margin(band, "torque", method, [
        (t_rob, s.torque_hum) for s, t_rob in zip(band.samples, torques)
    ])


def power_margin(
    band: OperatingBand, cap: CapabilityMap, method: str = "min"
) -> float:
    """As torque_margin, with ratios (torque_rob * omega) / power_hum."""
    torques = measured_at(band, cap.torque_at, "capability")
    return _ratio_margin(band, "power", method, [
        (t_rob * s.omega, s.power_hum)
        for s, t_rob in zip(band.samples, torques)
    ])


def rate_margin(omega_max: float, omega_req: float) -> float:
    """Clipped ratio of the robot's maximum safe rate to the task's peak
    rate requirement."""
    if omega_req <= 0:
        raise ZeroRequirement("rate requirement must be positive")
    return clip01(omega_max / omega_req)


@dataclass(frozen=True)
class MarginReport:
    torque_margin: float
    power_margin: float
    rate_margin: float
    method: str


def margin_report(
    band: OperatingBand,
    cap: CapabilityMap,
    omega_max: float,
    omega_req: float,
    method: str = "min",
) -> MarginReport:
    """Diagnostic triplet distinguishing torque-, power-, and rate-limited
    failures.  These margins do not enter the aggregate score when envelope
    coverage is used; they localize bottlenecks."""
    return MarginReport(
        torque_margin=torque_margin(band, cap, method),
        power_margin=power_margin(band, cap, method),
        rate_margin=rate_margin(omega_max, omega_req),
        method=method,
    )
