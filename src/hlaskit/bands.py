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
from math import fsum, isfinite, nan

import numpy as np

from .errors import (
    DuplicateKey,
    EmptyBand,
    InvalidRange,
    InvalidRecord,
    SampleMismatch,
)
from .record import field, record


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
    """Base of the frozen records that hold samples as float64 columns.

    ``_store_columns`` keeps each named field as a read-only array from
    ``_finite_columns``.
    """

    def _store_columns(self, *names: str) -> int:
        """Store the named fields and return their common length."""
        arrays = _finite_columns(**{name: getattr(self, name)
                                    for name in names})
        for name, column in zip(names, arrays):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        return len(arrays[0])


@record
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


@record(eq=False)
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
    weight: np.ndarray = field(init=False)
    points: np.ndarray = field(init=False)
    positive: np.ndarray = field(init=False)
    total_weight: float = field(init=False)

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

