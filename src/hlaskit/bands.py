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
from math import fsum, hypot, isfinite, nan

import numpy as np

from .errors import (
    DuplicateKey,
    EmptyBand,
    EmptyGrid,
    EmptyTrajectory,
    InvalidRange,
    InvalidRecord,
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


def _finite_columns(copy: bool = True, **columns) -> list[np.ndarray]:
    """Each named column as a float64 array, in order: a new one, or
    without ``copy`` the column itself when it is one.  Columns of unequal
    length, or a NaN or infinite value, raise ``InvalidRecord`` at the first
    row at fault, naming its column."""
    names = list(columns)
    arrays = [np.array(values, dtype=float, copy=copy or None)
              for values in columns.values()]
    lengths = [len(a) for a in arrays]
    n, m = min(lengths), max(lengths)
    if n < m:
        raise InvalidRecord(f"column {names[lengths.index(n)]} has {n} "
                            f"values and {names[lengths.index(m)]} {m}: "
                            f"columns must have equal length", row=n)
    if not all(np.isfinite(a).all() for a in arrays):
        bad = ~np.isfinite(np.array(arrays))
        # the first row at fault, then column
        row, i = divmod(int(bad.T.argmax()), len(arrays))
        raise InvalidRecord(f"{names[i]} {arrays[i][row].item()!r} is not "
                            f"finite", row=row)
    return arrays


class Columnar:
    """Base of the frozen dataclasses that hold samples as float64 columns.

    ``_store_columns`` keeps each named field as a read-only array from
    ``_finite_columns``; instances compare by value.
    """

    def _store_columns(self, *names: str) -> int:
        """Store the named fields and return their common length."""
        arrays = _finite_columns(**{name: getattr(self, name)
                                    for name in names})
        for name, column in zip(names, arrays):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        return len(arrays[0])

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


def _point_keys(q, omega, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The (q, omega) points as exact complex keys q + i*omega, equal where
    both parts are (-0.0 matches 0.0), and the order that sorts them; a
    repeated point raises ``DuplicateKey`` naming ``name``."""
    keys = np.empty(len(q), dtype=complex)
    keys.real, keys.imag = q, omega
    order = np.argsort(keys)
    ranked = keys[order]
    if (ranked[1:] == ranked[:-1]).any():
        raise DuplicateKey(f"{name} repeats a (q, omega) sample")
    return keys, order


class PointTable:
    """Finite values measured at distinct (q, omega) points (checked by
    ``_finite_columns``), sorted by point once for ``measured_at`` and ended
    by a NaN key, which a lookup past the last point lands on and does not
    match; its length is the number of points."""

    def __init__(self, q, omega, value, name: str = "point table") -> None:
        q, omega, value = _finite_columns(copy=False, q=q, omega=omega,
                                          value=value)
        keys, order = _point_keys(q, omega, name)
        self._keys = np.append(keys[order], complex(nan, nan))
        self._values = np.append(value[order], nan)

    def __len__(self) -> int:
        return len(self._keys) - 1


@dataclass(frozen=True, eq=False)
class OperatingBand(Columnar):
    """Discretized demand field for one joint-task pair, one column per
    quantity.  ``weight`` (by ``normalize_weights``), ``points`` (each
    sample's complex key q + i*omega), the ``positive``-power mask and
    ``total_weight`` are computed here, once."""

    joint: str
    task: str
    q: np.ndarray            # joint angle, deg
    omega: np.ndarray        # joint rate, rad/s
    torque_hum: np.ndarray   # Nm
    power_hum: np.ndarray    # W
    weight: np.ndarray = field(init=False, repr=False)
    points: np.ndarray = field(init=False, repr=False, compare=False)
    positive: np.ndarray = field(init=False, repr=False, compare=False)
    total_weight: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self._store_columns("q", "omega", "torque_hum", "power_hum")
        if not n:
            raise EmptyBand(f"band {self.task}/{self.joint} has no samples")
        points, _ = _point_keys(self.q, self.omega,
                                f"band {self.task}/{self.joint}")
        weight = normalize_weights(self.power_hum)
        for name, column in (("weight", weight), ("points", points),
                             ("positive", self.power_hum > 0)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "total_weight", fsum(weight.tolist()))

    @property
    def samples(self) -> SampleView:
        return SampleView(DemandSample, [self.q, self.omega, self.torque_hum,
                                         self.power_hum, self.weight])

    @property
    def degenerate(self) -> bool:
        """True when no sample demands positive power (all weights zero)."""
        return not self.positive.any()


def measured_at(
    band: OperatingBand, table: PointTable, quantity: str,
    where: np.ndarray | None = None,
) -> np.ndarray:
    """The value ``table`` holds at each band sample's exact (q, omega)
    point, in sample order (``where``, a boolean column, narrows the
    samples).  A point without a measurement raises ``SampleMismatch``
    naming the first such sample: nothing is interpolated."""
    points = band.points if where is None else band.points[where]
    at = table._keys.searchsorted(points)
    found = table._keys[at] == points
    if not found.all():
        missing = complex(points[found.argmin()])
        raise SampleMismatch(
            f"no {quantity} measurement at (q={missing.real} deg, "
            f"omega={missing.imag} rad/s) for {band.task}/{band.joint}; "
            f"measurements are never interpolated"
        )
    return table._values[at]


@dataclass(frozen=True)
class PhaseTrajectory:
    """Phase-resolved task data (e.g. a gait cycle) before gridding: finite
    channels of one length (checked by ``_finite_columns``)."""

    phase: tuple[float, ...]
    q: tuple[float, ...]
    omega: tuple[float, ...]
    power: tuple[float, ...]

    def __post_init__(self) -> None:
        if not len(self.phase):
            raise EmptyTrajectory("trajectory has no samples")
        _finite_columns(phase=self.phase, q=self.q, omega=self.omega,
                        power=self.power)
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
    try:
        total = fsum(positive.tolist())
    except OverflowError:       # a sum past the float range: scale it first
        positive = positive / positive.max()
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


def phase_to_grid(
    traj: PhaseTrajectory,
    grid: list[tuple[float, float]],
    *,
    joint: str = "",
    task: str = "",
) -> OperatingBand:
    """Accumulate a phase trajectory's positive power onto a (q, omega) grid.

    Each sample goes to its nearest grid point, the one reproducible
    assignment.  Distance is measured in grid-span-normalized coordinates so
    that degrees and rad/s are commensurate.

    Per-bin torque demand is the positive-power-weighted mean of the
    contributing samples' torques (power / omega); total accumulated
    positive power equals the trajectory's total positive power.
    """
    if not grid:
        raise EmptyGrid("grid has no points")

    power_acc = [0.0] * len(grid)
    torque_acc = [0.0] * len(grid)
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

    q, omega = zip(*grid)
    torque = [tq / p if p > 0 else 0.0 for p, tq in zip(power_acc, torque_acc)]
    return OperatingBand(joint, task, q, omega, torque, power_acc)
