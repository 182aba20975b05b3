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
from math import fsum

import numpy as np

from .bands import Columnar, OperatingBand, PointTable, SampleView, measured_at
from .errors import (
    DegenerateBand,
    InvalidRecord,
    NegativeHeadroom,
    ZeroDemand,
    ZeroDemandWarning,
    ZeroRequirement,
)
from .prereg import MARGIN_METHODS
from .record import field, record


def clip01(x: float) -> float:
    return min(1.0, max(0.0, x))


@record
class CapabilitySample:
    """Continuous-safe robot torque at one (q, omega) point: a record of
    ``CapabilityMap.samples``."""

    q: float            # deg
    omega: float        # rad/s
    torque_rob: float   # Nm, magnitude on the task-signed axis


@record(eq=False)
class CapabilityMap(Columnar):
    """Continuous-safe torque for one joint axis, one column per quantity.

    ``conditions`` records the measurement context (ambient, airflow, soak
    state) and is mandatory: a capability number without its thermal context
    is not comparable across systems.  ``table`` holds the torque at each
    point for ``measured_at``.
    """

    joint: str
    axis: str
    q: np.ndarray            # deg
    omega: np.ndarray        # rad/s
    torque_rob: np.ndarray   # Nm, magnitude on the task-signed axis
    conditions: str
    table: PointTable = field(init=False)

    def __post_init__(self) -> None:
        self._store_columns("q", "omega", "torque_rob")
        negative = np.flatnonzero(self.torque_rob < 0)
        if negative.size:
            row = int(negative[0])
            raise InvalidRecord(f"continuous-safe torque "
                                f"{self.torque_rob[row].item()!r} must be "
                                f">= 0", row=row)
        if not self.conditions.strip():
            raise InvalidRecord("capability map requires a conditions "
                                "description (a '# conditions:' header)")
        object.__setattr__(self, "table", PointTable(
            self.q, self.omega, self.torque_rob,
            f"capability map {self.joint}/{self.axis}"))

    @property
    def samples(self) -> SampleView:
        return SampleView(CapabilitySample,
                          [self.q, self.omega, self.torque_rob])


@record(eq=False)
class HeeResult:
    """Coverage and, per band sample in band order, the point, its weight
    and whether the robot met the torque and the power demand there."""

    coverage: float
    q: np.ndarray
    omega: np.ndarray
    weight: np.ndarray
    torque_ok: np.ndarray
    power_ok: np.ndarray

    @property
    def passed(self) -> np.ndarray:
        return self.torque_ok & self.power_ok


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
    if not headroom_delta >= 0:                         # NaN too
        raise NegativeHeadroom(
            f"headroom delta {headroom_delta!r} must be >= 0")
    if band.degenerate:
        raise DegenerateBand(
            f"band {band.task}/{band.joint} has no positive-power samples"
        )
    t_rob = measured_at(band, cap.table, "capability")
    scale = 1.0 + headroom_delta
    with np.errstate(over="ignore"):    # overflow gives inf, as in Python
        torque_ok = t_rob >= scale * band.torque_hum
        power_ok = t_rob * band.omega >= scale * band.power_hum
    coverage = (fsum(band.weight[torque_ok & power_ok].tolist())
                / band.total_weight)
    return HeeResult(coverage, band.q, band.omega, band.weight,
                     torque_ok, power_ok)


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
                  robot: np.ndarray, human: np.ndarray) -> float:
    """Margin over the robot/human ratios of one quantity, sample by
    sample; samples with nonpositive human demand are excluded with a
    warning."""
    demanded = human > 0
    with np.errstate(over="ignore"):    # overflow gives inf, as in Python
        ratios = (robot[demanded] / human[demanded]).tolist()
    skipped = len(human) - len(ratios)
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
    torques = measured_at(band, cap.table, "capability")
    return _ratio_margin(band, "torque", method, torques, band.torque_hum)


def power_margin(
    band: OperatingBand, cap: CapabilityMap, method: str = "min"
) -> float:
    """As torque_margin, with ratios (torque_rob * omega) / power_hum."""
    torques = measured_at(band, cap.table, "capability")
    with np.errstate(over="ignore"):
        robot = torques * band.omega
    return _ratio_margin(band, "power", method, robot, band.power_hum)


def rate_margin(omega_max: float, omega_req: float) -> float:
    """Clipped ratio of the robot's maximum safe rate to the task's peak
    rate requirement."""
    if omega_req <= 0:
        raise ZeroRequirement("rate requirement must be positive")
    return clip01(omega_max / omega_req)


@record
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
