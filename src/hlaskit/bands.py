"""Human demand fields on discretized task operating bands.

An operating band is the set of (angle, rate) points where a human produces
positive mechanical work for one joint during one task.  Each sample carries
the human torque and power demand plus a weight proportional to positive
power, normalized to sum to one, so downstream coverage and efficiency
averages emphasize the points where humans do the most work.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from math import fsum, hypot

from .errors import (
    DuplicateKey,
    EmptyBand,
    EmptyGrid,
    EmptyTrajectory,
    InvalidRange,
    SampleMismatch,
    ZeroRate,
)

DEFAULT_BODY_MASS_KG = 75.0
DEFAULT_BODY_HEIGHT_M = 1.75


@dataclass(frozen=True)
class ReferenceBody:
    """Reference subject used to rescale mass-normalized literature values."""

    mass: float = DEFAULT_BODY_MASS_KG
    height: float = DEFAULT_BODY_HEIGHT_M

    def __post_init__(self) -> None:
        if self.mass <= 0 or self.height <= 0:
            raise ValueError("reference body mass and height must be positive")


@dataclass(frozen=True)
class DemandSample:
    """Human demand at one (q, omega) point of a band."""

    q: float            # joint angle, deg
    omega: float        # joint rate, rad/s
    torque_hum: float   # Nm
    power_hum: float    # W
    weight: float = 0.0

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("sample weight must be >= 0")

    @property
    def point(self) -> tuple[float, float]:
        return (self.q, self.omega)


@dataclass(frozen=True)
class OperatingBand:
    """Discretized demand field for one joint-task pair."""

    joint: str
    task: str
    samples: tuple[DemandSample, ...]

    def __post_init__(self) -> None:
        if not self.samples:
            raise EmptyBand(f"band {self.task}/{self.joint} has no samples")
        if len({s.point for s in self.samples}) != len(self.samples):
            raise DuplicateKey(
                f"band {self.task}/{self.joint} repeats a (q, omega) sample"
            )

    @property
    def degenerate(self) -> bool:
        """True when no sample demands positive power (all weights zero)."""
        return all(s.power_hum <= 0 for s in self.samples)

    def total_weight(self) -> float:
        return fsum(s.weight for s in self.samples)


def measured_at(
    band: OperatingBand, measured: dict[tuple[float, float], float],
    quantity: str, samples: Sequence[DemandSample] | None = None,
) -> list[float]:
    """The value measured at each band sample's exact (q, omega) point, in
    sample order (``samples`` narrows the band's samples).  A point without
    a measurement raises ``SampleMismatch``: nothing is interpolated."""
    samples = band.samples if samples is None else samples
    try:
        return [measured[s.point] for s in samples]
    except KeyError:
        s = next(s for s in samples if s.point not in measured)
        raise SampleMismatch(
            f"no {quantity} measurement at (q={s.q} deg, omega={s.omega} "
            f"rad/s) for {band.task}/{band.joint}; measurements are never "
            f"interpolated"
        ) from None


@dataclass(frozen=True)
class PhaseTrajectory:
    """Phase-resolved task data (e.g. a gait cycle) before gridding."""

    phase: tuple[float, ...]
    q: tuple[float, ...]
    omega: tuple[float, ...]
    power: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.phase)
        if n == 0:
            raise EmptyTrajectory("trajectory has no samples")
        if not (len(self.q) == len(self.omega) == len(self.power) == n):
            raise ValueError("trajectory channels must have equal length")
        if any(b <= a for a, b in zip(self.phase, self.phase[1:])):
            raise ValueError("phase must be strictly increasing")
        if self.phase[0] < 0 or self.phase[-1] > 1:
            raise ValueError("phase values must lie in [0, 1]")


def scale_to_absolute(
    body: ReferenceBody,
    normalized_torque: float | None = None,
    normalized_power: float | None = None,
) -> tuple[float | None, float | None]:
    """Convert mass-normalized demands (Nm/kg, W/kg) to absolute values.

    Either argument may be None when the literature reports only one of the
    two; the corresponding output is then None.
    """
    torque = None if normalized_torque is None else body.mass * normalized_torque
    power = None if normalized_power is None else body.mass * normalized_power
    return torque, power


def torque_from_power(power: float, omega: float) -> float:
    """Torque demand implied by a power demand at a nonzero rate.

    Isometric samples (omega == 0) must carry an explicit torque demand in
    the input data; deriving one here would divide by zero.
    """
    if omega == 0:
        raise ZeroRate("cannot derive torque from power at omega = 0")
    return power / omega


def normalize_weights(samples: list[DemandSample]) -> list[DemandSample]:
    """Set each weight to max(power, 0) / total positive power.

    If no sample has positive power every weight is zero and the resulting
    band is degenerate; callers decide whether that is an error.
    """
    if not samples:
        raise EmptyBand("cannot normalize weights of an empty sample list")
    positive = [max(s.power_hum, 0.0) for s in samples]
    total = fsum(positive)
    if total <= 0:
        return [replace(s, weight=0.0) for s in samples]
    return [replace(s, weight=p / total) for s, p in zip(samples, positive)]


def build_band_grid(
    q_range: tuple[float, float],
    omega_range: tuple[float, float],
    n_q: int,
    n_omega: int,
) -> list[tuple[float, float]]:
    """Uniform n_q x n_omega grid with inclusive endpoints.

    A 1 x n rate sweep (or n x 1 posture sweep) is allowed; the collapsed
    dimension then sits at its lower bound.
    """
    if n_q < 1 or n_omega < 1:
        raise InvalidRange("grid counts must be >= 1")

    def _axis(rng: tuple[float, float], n: int, name: str) -> list[float]:
        lo, hi = rng
        if lo > hi:
            raise InvalidRange(f"{name} range [{lo}, {hi}] has lo > hi")
        if n == 1:
            return [lo]
        if lo == hi:
            raise InvalidRange(f"{name} range is degenerate but n = {n}")
        step = (hi - lo) / (n - 1)
        pts = [lo + i * step for i in range(n)]
        pts[-1] = hi  # exact endpoint
        return pts

    qs = _axis(q_range, n_q, "q")
    omegas = _axis(omega_range, n_omega, "omega")
    return [(q, w) for q in qs for w in omegas]


def _nearest_bin(
    q: float, omega: float,
    grid: list[tuple[float, float]],
    q_span: float, omega_span: float,
) -> int:
    best, best_d = 0, float("inf")
    for i, (gq, gw) in enumerate(grid):
        d = hypot((q - gq) / q_span, (omega - gw) / omega_span)
        if d < best_d:
            best, best_d = i, d
    return best


def _bilinear_split(
    q: float, omega: float, qs: list[float], omegas: list[float]
) -> list[tuple[int, int, float]]:
    """(q-index, omega-index, fraction) of the 4 surrounding grid corners."""

    def _bracket(x: float, axis: list[float]) -> tuple[int, int, float]:
        if x <= axis[0]:
            return 0, 0, 0.0
        if x >= axis[-1]:
            return len(axis) - 1, len(axis) - 1, 0.0
        for i in range(len(axis) - 1):
            if axis[i] <= x <= axis[i + 1]:
                frac = (x - axis[i]) / (axis[i + 1] - axis[i])
                return i, i + 1, frac
        raise AssertionError("unreachable: x inside axis bounds")

    i0, i1, u = _bracket(q, qs)
    j0, j1, v = _bracket(omega, omegas)
    return [
        (i0, j0, (1 - u) * (1 - v)),
        (i0, j1, (1 - u) * v),
        (i1, j0, u * (1 - v)),
        (i1, j1, u * v),
    ]


def phase_to_grid(
    traj: PhaseTrajectory,
    grid: list[tuple[float, float]],
    *,
    method: str = "nearest",
    joint: str = "",
    task: str = "",
) -> OperatingBand:
    """Accumulate a phase trajectory's positive power onto a (q, omega) grid.

    Nearest-bin assignment (the default, reproducible choice) measures
    distance in grid-span-normalized coordinates so that degrees and rad/s
    are commensurate.  ``method="bilinear"`` instead splits each sample's
    power over the four surrounding corners of a rectangular grid.

    Per-bin torque demand is the positive-power-weighted mean of the
    contributing samples' torques (power / omega); total accumulated
    positive power equals the trajectory's total positive power.
    """
    if not grid:
        raise EmptyGrid("grid has no points")
    if method not in ("nearest", "bilinear"):
        raise ValueError(f"unknown assignment method {method!r}")

    power_acc = [0.0] * len(grid)
    torque_acc = [0.0] * len(grid)

    if method == "nearest":
        qs = [p[0] for p in grid]
        ws = [p[1] for p in grid]
        q_span = (max(qs) - min(qs)) or 1.0
        w_span = (max(ws) - min(ws)) or 1.0
        for q, omega, power in zip(traj.q, traj.omega, traj.power):
            p_pos = max(power, 0.0)
            if p_pos == 0.0:
                continue
            i = _nearest_bin(q, omega, grid, q_span, w_span)
            power_acc[i] += p_pos
            if omega != 0:
                torque_acc[i] += p_pos * (power / omega)
    else:
        qs = sorted({p[0] for p in grid})
        omegas = sorted({p[1] for p in grid})
        if len(qs) * len(omegas) != len(grid):
            raise InvalidRange("bilinear assignment needs a rectangular grid")
        index = {(q, w): k for k, (q, w) in enumerate(grid)}
        for q, omega, power in zip(traj.q, traj.omega, traj.power):
            p_pos = max(power, 0.0)
            if p_pos == 0.0:
                continue
            for i, j, frac in _bilinear_split(q, omega, qs, omegas):
                if frac == 0.0:
                    continue
                k = index[(qs[i], omegas[j])]
                power_acc[k] += frac * p_pos
                if omega != 0:
                    torque_acc[k] += frac * p_pos * (power / omega)

    samples = []
    for (q, omega), p, tq in zip(grid, power_acc, torque_acc):
        torque = tq / p if p > 0 else 0.0
        samples.append(DemandSample(q, omega, torque, p))
    return OperatingBand(joint, task, tuple(normalize_weights(samples)))
