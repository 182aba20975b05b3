"""Human demand fields on discretized task operating bands.

An operating band is the set of (angle, rate) points where a human produces
positive mechanical work for one joint during one task.  Each sample carries
the human torque and power demand plus a weight proportional to positive
power, normalized to sum to one, so downstream coverage and efficiency
averages emphasize the points where humans do the most work.

Bands (and the capability maps of ``envelope``) hold their samples as
float64 columns, one array per quantity, in sample order; per-sample
records are built only when ``.samples`` is read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from math import fsum, hypot, isfinite

import numpy as np

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


class SampleView(Sequence):
    """Per-sample records of columnar data, each built from the columns
    only when it is read (by index or iteration); its length costs
    nothing."""

    def __init__(self, record, columns: list[np.ndarray]) -> None:
        self._record, self._columns = record, columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index: int):
        return self._record(*(c[index].item() for c in self._columns))


class Columnar:
    """Base of the frozen dataclasses that hold samples as float64 columns.

    ``_store_columns`` keeps each named field as a read-only array and
    checks that they have one length; instances compare by value.
    """

    def _store_columns(self, *names: str) -> int:
        for name in names:
            column = np.array(getattr(self, name), dtype=float)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        lengths = {len(getattr(self, name)) for name in names}
        if len(lengths) > 1:
            raise ValueError(f"columns {names} must have equal length")
        return lengths.pop()

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        for f in fields(self):
            if f.compare:
                a, b = getattr(self, f.name), getattr(other, f.name)
                if not (np.array_equal(a, b) if isinstance(a, np.ndarray)
                        else a == b):
                    return False
        return True

    __hash__ = None


@dataclass(frozen=True)
class DemandSample:
    """Human demand at one (q, omega) point of a band: a record of
    ``OperatingBand.samples``."""

    q: float            # joint angle, deg
    omega: float        # joint rate, rad/s
    torque_hum: float   # Nm
    power_hum: float    # W
    weight: float

    @property
    def point(self) -> tuple[float, float]:
        return (self.q, self.omega)


@dataclass(frozen=True, eq=False)
class OperatingBand(Columnar):
    """Discretized demand field for one joint-task pair, one column per
    quantity.  ``weight`` is computed here by ``normalize_weights``."""

    joint: str
    task: str
    q: np.ndarray            # joint angle, deg
    omega: np.ndarray        # joint rate, rad/s
    torque_hum: np.ndarray   # Nm
    power_hum: np.ndarray    # W
    weight: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self._store_columns("q", "omega", "torque_hum", "power_hum")
        if not n:
            raise EmptyBand(f"band {self.task}/{self.joint} has no samples")
        order = np.lexsort((self.omega, self.q))
        q, omega = self.q[order], self.omega[order]
        if ((q[1:] == q[:-1]) & (omega[1:] == omega[:-1])).any():
            raise DuplicateKey(
                f"band {self.task}/{self.joint} repeats a (q, omega) sample"
            )
        weight = normalize_weights(self.power_hum)
        weight.flags.writeable = False
        object.__setattr__(self, "weight", weight)

    @property
    def samples(self) -> SampleView:
        return SampleView(DemandSample, [self.q, self.omega, self.torque_hum,
                                         self.power_hum, self.weight])

    @property
    def degenerate(self) -> bool:
        """True when no sample demands positive power (all weights zero)."""
        return not (self.power_hum > 0).any()

    def total_weight(self) -> float:
        return fsum(self.weight.tolist())


def measured_at(
    band: OperatingBand, measured: dict[tuple[float, float], float],
    quantity: str, where: np.ndarray | None = None,
) -> np.ndarray:
    """The value measured at each band sample's exact (q, omega) point, in
    sample order (``where``, a boolean column, narrows the samples).  A
    point without a measurement raises ``SampleMismatch``: nothing is
    interpolated."""
    q, omega = band.q, band.omega
    if where is not None:
        q, omega = q[where], omega[where]
    try:
        return np.array([measured[p] for p in zip(q.tolist(),
                                                   omega.tolist())],
                        dtype=float)
    except KeyError as missing:
        q_at, omega_at = missing.args[0]
        raise SampleMismatch(
            f"no {quantity} measurement at (q={q_at} deg, omega={omega_at} "
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


def normalize_weights(power_hum) -> np.ndarray:
    """The weight column: max(power, 0) / total positive power, in sample
    order.

    If no sample has positive power every weight is zero and the resulting
    band is degenerate; callers decide whether that is an error.
    """
    power = np.asarray(power_hum, dtype=float)
    if not power.size:
        raise EmptyBand("cannot normalize weights of an empty sample list")
    positive = np.where(power < 0.0, 0.0, power)    # max(p, 0.0), as Python
    total = fsum(positive.tolist())
    if total <= 0:
        return np.zeros(power.size)
    return positive / total


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
        if not (isfinite(lo) and isfinite(hi)):
            raise InvalidRange(f"{name} range [{lo}, {hi}] is not finite")
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

    q, omega = zip(*grid)
    torque = [tq / p if p > 0 else 0.0 for p, tq in zip(power_acc, torque_acc)]
    return OperatingBand(joint, task, q, omega, torque, power_acc)
