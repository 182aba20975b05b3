"""Extraction of score inputs from raw measurement logs.

Covers the four log analyses (frequency response and -3 dB crossover,
friction/inertia identification, thermal plateau detection, efficiency
accounting) plus the sanity checks that catch measurement errors before
they reach the score.

All analyses are single-pass or bounded-pass over their log and hold no
global state, so logs may be processed concurrently.
"""

from __future__ import annotations

import warnings
from math import atan2, degrees, exp, fsum, isnan, ldexp, log, log10, nan, sqrt

import numpy as np

from . import lsq
from .bands import OperatingBand, PointTable, _finite_columns, measured_at
from .errors import (
    AliasedFrequency,
    DegenerateBand,
    InsufficientCycles,
    InsufficientExcitation,
    InvalidRecord,
    NotMonotoneWarning,
    RankDeficient,
    WindowTooLong,
)
from .record import record

MIN_SAMPLE_RATE_HZ = 1000.0   # logs below this rate are rejected at load
MIN_CYCLES = 5                # excitation cycles needed per probe frequency
MIN_RATE_OVERSAMPLING = 10.0  # sample_rate / probe frequency floor
CROSSOVER_MAGNITUDE = 1.0 / sqrt(2.0)
DERIVATIVE_SMOOTHING_WINDOW = 5
IRLS_MAX_ITERATIONS = 10
IRLS_MAD_MULTIPLE = 3.0
DEFAULT_SLOPE_LIMIT_C_PER_S = 0.5     # derating onset threshold
STEADY_SLOPE_LIMIT_C_PER_MIN = 0.1    # end-of-test steady-trend threshold
STEADY_TREND_WINDOW_S = 60.0          # trailing window of that check
DEFAULT_PLATEAU_WINDOW_S = 10.0
POWER_BALANCE_SLACK = 1e-6
BANDWIDTH_INFLATION_SLACK = 0.01


CHANNELS = ("t", "q", "omega", "torque", "torque_cmd", "v_bus", "i_bus",
            "temp_motor", "temp_gear")


@record(eq=False)
class TimeSeriesLog:
    """Synchronized multichannel measurement record sampled at >= 1 kHz.

    Channels: time (s), joint angle (deg), joint rate (rad/s), measured and
    commanded torque (Nm), bus voltage (V) and current (A), motor and gear
    temperatures (degC); finite float64 arrays of one length (checked by
    ``_finite_columns``, which keeps a channel given as one).
    """

    t: np.ndarray
    q: np.ndarray
    omega: np.ndarray
    torque: np.ndarray
    torque_cmd: np.ndarray
    v_bus: np.ndarray
    i_bus: np.ndarray
    temp_motor: np.ndarray
    temp_gear: np.ndarray
    sample_rate: float
    conditions: str = ""
    seed: int | None = None

    def __post_init__(self) -> None:
        channels = _finite_columns(copy=False, **{name: getattr(self, name)
                                                  for name in CHANNELS})
        for name, channel in zip(CHANNELS, channels):
            object.__setattr__(self, name, channel)
        if len(self.t) < 2:
            raise InvalidRecord("log must contain at least two samples")
        if not self.sample_rate >= MIN_SAMPLE_RATE_HZ:      # NaN too
            raise InvalidRecord(
                f"sample rate {self.sample_rate} Hz is below the "
                f"{MIN_SAMPLE_RATE_HZ:g} Hz logging requirement"
            )
        late = np.flatnonzero(np.diff(self.t) <= 0)
        if late.size:
            raise InvalidRecord("time channel must be strictly increasing",
                                row=int(late[0]) + 1)

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0])


@record
class FrfPoint:
    freq: float        # Hz
    magnitude: float   # dimensionless actual/commanded amplitude ratio
    phase: float       # deg

    def __post_init__(self) -> None:
        if self.freq <= 0:
            raise ValueError("FRF frequency must be positive")
        if self.magnitude < 0:
            raise ValueError("FRF magnitude must be >= 0")


@record
class CrossoverResult:
    """-3 dB crossover of a torque-tracking FRF.

    ``bound`` is None for an interior crossing, ">=" when the magnitude
    never fell below -3 dB in range (f_crossover is then the range maximum)
    and "<=" when it was already below at the lowest probe.
    """

    f_crossover: float
    phase_margin_deg: float
    bound: str | None = None
    crossings: tuple[float, ...] = ()


@record
class FrictionFit:
    """Parameters of tau ~ J*domega + b*omega + fc*sign(omega)."""

    j_ref: float          # kg m^2, reflected inertia
    b_visc: float         # Nm s/rad
    f_coulomb: float      # Nm
    backdrive_p95: float  # Nm, 95th percentile |tau| on the backdrive log
    residual_rms: float   # Nm


@record
class PlateauResult:
    torque_cont: float            # Nm, largest slope-compliant windowed mean
    time_to_derate: float | None  # s, from the command channel; None if never
    final_temp_motor: float
    final_temp_gear: float


@record
class PowerBalanceResult:
    passed: bool
    mech_energy_j: float
    elec_energy_j: float


# ---------------------------------------------------------------------------
# Frequency response
# ---------------------------------------------------------------------------

def single_frequency_response(
    t: np.ndarray, cmd: np.ndarray, act: np.ndarray, freq: float
) -> complex:
    """Complex ratio act/cmd at one frequency via sin/cos projection.

    Both channels are projected onto e^{-j 2 pi f t} over the largest
    integer number of cycles so the projection is orthogonal to other tones
    of a multisine excitation (no leakage window needed).
    """
    duration = float(t[-1] - t[0])
    cycles = int(duration * freq)
    if cycles < 1:
        raise InsufficientCycles(f"no full cycle of {freq} Hz in the log")
    t_end = t[0] + cycles / freq
    sel = t < t_end + 1e-12
    phase = 2.0 * np.pi * freq * (t[sel] - t[0])
    cos, sin = np.cos(phase), np.sin(phase)

    def project(x: np.ndarray) -> complex:
        # exactly rounded sums of the per-sample products: the same bits on
        # every CPU, which a BLAS or SIMD dot product does not promise
        x = x[sel]
        return complex(fsum((x * cos).tolist()), -fsum((x * sin).tolist()))

    x_cmd = project(cmd)
    if abs(x_cmd) < 1e-12:
        raise InsufficientExcitation(
            f"commanded torque has no content at {freq} Hz"
        )
    return project(act) / x_cmd


def compute_frf(log: TimeSeriesLog, freqs: list[float]) -> list[FrfPoint]:
    """FRF of actual vs. commanded torque at the probe frequencies.

    Uses per-frequency correlation rather than broadband spectral division:
    the excitation protocol is a stepped/multitone sine, so projecting onto
    each probe tone is both simpler and noise-optimal.
    """
    points = []
    for f in sorted(freqs):
        if f <= 0:
            raise ValueError("probe frequencies must be positive")
        if log.sample_rate <= MIN_RATE_OVERSAMPLING * f:
            raise AliasedFrequency(
                f"{f} Hz needs a sample rate above "
                f"{MIN_RATE_OVERSAMPLING * f:g} Hz, log has {log.sample_rate:g}"
            )
        if log.duration * f < MIN_CYCLES:
            raise InsufficientCycles(
                f"{f} Hz has {log.duration * f:.1f} cycles in the log, "
                f"need >= {MIN_CYCLES}"
            )
        g = single_frequency_response(log.t, log.torque_cmd, log.torque, f)
        points.append(FrfPoint(f, float(abs(g)),
                              degrees(atan2(g.imag, g.real))))
    return points


def find_crossover(frf: list[FrfPoint]) -> CrossoverResult:
    """Locate the -3 dB crossover by log-frequency / dB interpolation.

    With multiple crossings the first is returned and all are reported
    alongside a NotMonotoneWarning.  Out-of-range results carry a bound
    flag instead of a frequency estimate.
    """
    if len(frf) < 2:
        raise ValueError("need at least two FRF points to locate a crossover")
    freqs = [p.freq for p in frf]
    if any(b <= a for a, b in zip(freqs, freqs[1:])):
        raise ValueError("FRF points must be sorted by increasing frequency")

    target_db = 20.0 * log10(CROSSOVER_MAGNITUDE)
    mags_db = [20.0 * log10(max(p.magnitude, 1e-12)) for p in frf]

    crossings = []
    for i in range(len(frf) - 1):
        y0, y1 = mags_db[i] - target_db, mags_db[i + 1] - target_db
        if y0 >= 0 > y1:
            x0, x1 = log(freqs[i]), log(freqs[i + 1])
            xc = x0 if y0 == y1 else x0 + (x1 - x0) * y0 / (y0 - y1)
            f_c = exp(xc)
            frac = 0.0 if x1 == x0 else (xc - x0) / (x1 - x0)
            phase_c = frf[i].phase + frac * (frf[i + 1].phase - frf[i].phase)
            crossings.append((f_c, float(phase_c)))

    if not crossings:
        if mags_db[0] - target_db < 0:
            return CrossoverResult(freqs[0], 180.0 + frf[0].phase, bound="<=")
        return CrossoverResult(freqs[-1], 180.0 + frf[-1].phase, bound=">=")

    if len(crossings) > 1:
        warnings.warn(
            f"FRF magnitude crosses -3 dB {len(crossings)} times at "
            f"{[round(f, 3) for f, _ in crossings]} Hz; reporting the first",
            NotMonotoneWarning,
            stacklevel=2,
        )
    f_c, phase_c = crossings[0]
    return CrossoverResult(
        f_c, 180.0 + phase_c, bound=None,
        crossings=tuple(f for f, _ in crossings),
    )


# ---------------------------------------------------------------------------
# Friction identification
# ---------------------------------------------------------------------------

def estimate_rate_derivative(omega: np.ndarray,
                             sample_rate: float) -> np.ndarray:
    """Angular acceleration by central differences plus a
    ``DERIVATIVE_SMOOTHING_WINDOW``-sample moving average, bounding
    derivative noise amplification at 1 kHz rates."""
    omega = np.asarray(omega, dtype=float)
    domega = np.gradient(omega) * sample_rate
    window = DERIVATIVE_SMOOTHING_WINDOW
    padded = np.pad(domega, window // 2, mode="edge")
    return np.convolve(padded, np.ones(window) / window,
                       mode="valid")[: len(omega)]


def _order_pair(values: np.ndarray, k: int) -> tuple[float, float]:
    """The order statistics ``k - 1`` and ``k`` (0-based, ``k >= 1``) of
    ``values``, from one partition at ``k``; NumPy's partition at both
    indices takes about four times as long."""
    part = np.partition(values, k)
    return float(part[:k].max()), float(part[k])


def _median(values: np.ndarray) -> float:
    """``float(np.median(values))`` of a non-empty 1-D array of floats >= 0
    or NaN, bit for bit.  ``np.median`` and ``np.percentile`` import
    ``numpy.ma`` on first use, which a short-lived command pays for in
    start-up time and memory."""
    n = len(values)
    if isnan(values.max()):             # NumPy's median of data with a NaN
        return nan
    if n % 2:
        return float(np.partition(values, n // 2)[n // 2])
    a, b = _order_pair(values, n // 2)
    return (a + b) / 2


def _percentile95(values: np.ndarray) -> float:
    """``float(np.percentile(values, 95))`` of a non-empty 1-D array of
    finite floats, bit for bit: NumPy's linear method."""
    n = len(values)
    if n == 1:
        return float(values[0])
    virtual = (n - 1) * (95 / 100)
    lo = int(virtual)
    a, b = _order_pair(values, lo + 1)
    gamma = virtual - lo
    diff = b - a                        # NumPy's ``_lerp``
    return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma


def fit_friction(log: TimeSeriesLog) -> FrictionFit:
    """Identify reflected inertia, viscous, and Coulomb friction.

    Solves tau ~ J*domega + b*omega + fc*sign(omega) by iteratively
    reweighted least squares with a Huber-style loss (threshold three times
    the median absolute residual), which keeps contact spikes and sensor
    glitches from biasing the fit.  Assumes gravity was already compensated
    when the log was recorded.

    The regressors and the torque are each scaled exactly by a power of
    two and solved by ``lsq``'s QR: the same bits on every machine, and
    torque times 2**k scales every field by 2**k.  Regressors whose
    singular values differ by over 1e12 times are refused as collinear.
    """
    omega, tau = log.omega, log.torque

    if not (np.any(omega > 0) and np.any(omega < 0)):
        raise RankDeficient(
            "joint rate never changes sign; the Coulomb regressor is "
            "degenerate"
        )
    domega = estimate_rate_derivative(omega, log.sample_rate)
    if float(np.max(np.abs(domega))) < 1e-9:
        raise InsufficientExcitation("no measurable acceleration in the log")

    x, e_x = lsq.unit_scale(domega, omega, np.sign(omega))
    (y,), e_y = lsq.unit_scale(tau)
    r, qty = lsq.factor(x, y)
    sv = lsq.singular_values(r)
    if sv[-1] < 1e-12 * sv[0]:
        raise RankDeficient("friction regressors are numerically collinear")

    beta = lsq.solve(r, qty)
    for _ in range(IRLS_MAX_ITERATIONS):
        resid = y - lsq.combine(x, beta)
        mad = _median(np.abs(resid))
        if mad <= 0:
            break
        thr = IRLS_MAD_MULTIPLE * mad
        w = np.minimum(1.0, thr / np.maximum(np.abs(resid), 1e-300))
        sw = np.sqrt(w)
        beta, prev = lsq.lstsq([column * sw for column in x], y * sw), beta
        step = max(abs(a - b) for a, b in zip(beta, prev))
        if step < 1e-12 * max(1.0, *map(abs, prev)):
            break

    return FrictionFit(
        *(ldexp(b, e_y - e_x) for b in beta),   # j_ref, b_visc, f_coulomb
        backdrive_p95=_percentile95(np.abs(tau)),
        residual_rms=ldexp(lsq.rms(y - lsq.combine(x, beta)), e_y),
    )


# ---------------------------------------------------------------------------
# Thermal plateau
# ---------------------------------------------------------------------------

def _windowed_slopes(t: np.ndarray, y: np.ndarray, w: int) -> np.ndarray:
    """Least-squares line slope of y(t) over every window of w samples."""
    csum = np.concatenate([[0.0], np.cumsum(t)])
    csum_y = np.concatenate([[0.0], np.cumsum(y)])
    csum_ty = np.concatenate([[0.0], np.cumsum(t * y)])
    csum_tt = np.concatenate([[0.0], np.cumsum(t * t)])
    s_t = csum[w:] - csum[:-w]
    s_y = csum_y[w:] - csum_y[:-w]
    s_ty = csum_ty[w:] - csum_ty[:-w]
    s_tt = csum_tt[w:] - csum_tt[:-w]
    num = s_ty - s_t * s_y / w
    den = s_tt - s_t * s_t / w
    return num / den


def _windowed_means(y: np.ndarray, w: int) -> np.ndarray:
    csum = np.concatenate([[0.0], np.cumsum(y)])
    return (csum[w:] - csum[:-w]) / w


def _time_to_derate(t: np.ndarray, cmd: np.ndarray) -> float | None:
    """First instant the command envelope dropped below its running maximum.

    Rest phases of a duty cycle (command below 5% of the maximum) are not
    derating; a reduced-but-active command after the last full-level sample
    is.
    """
    peak = float(np.max(cmd))
    if peak <= 0:
        return None
    full = cmd >= peak * (1.0 - 1e-6)
    last_full = int(np.flatnonzero(full)[-1])
    active_reduced = (cmd >= 0.05 * peak) & ~full
    after = np.flatnonzero(active_reduced[last_full + 1:])
    if after.size == 0:
        return None
    return float(t[last_full + 1 + after[0]])


def detect_plateau(
    log: TimeSeriesLog,
    slope_limit: float = DEFAULT_SLOPE_LIMIT_C_PER_S,
    plateau_window: float = DEFAULT_PLATEAU_WINDOW_S,
) -> PlateauResult:
    """Largest mean torque over any window within which both temperature
    sensors' regression slopes stay below the limit.

    Returns 0 Nm when no window qualifies.  The derate instant is read from
    the command channel, which the test rig reduces when thermal limits
    engage.
    """
    w = int(round(plateau_window * log.sample_rate))
    if w > len(log.t):
        raise WindowTooLong(
            f"{plateau_window} s window exceeds the {log.duration:.3f} s log"
        )
    w = max(w, 2)
    slope_motor = _windowed_slopes(log.t, log.temp_motor, w)
    slope_gear = _windowed_slopes(log.t, log.temp_gear, w)
    ok = (slope_motor < slope_limit) & (slope_gear < slope_limit)
    torque_cont = 0.0
    if np.any(ok):
        means = _windowed_means(log.torque, w)
        torque_cont = float(np.max(means[ok]))
    return PlateauResult(
        torque_cont=torque_cont,
        time_to_derate=_time_to_derate(log.t, log.torque_cmd),
        final_temp_motor=float(log.temp_motor[-1]),
        final_temp_gear=float(log.temp_gear[-1]),
    )


# ---------------------------------------------------------------------------
# Efficiency and sanity checks
# ---------------------------------------------------------------------------

def steady_trend(log: TimeSeriesLog) -> tuple[bool, float]:
    """End-of-test steady-state check: motor temperature slope over the
    trailing 60 s (``STEADY_TREND_WINDOW_S``; the whole log if shorter), in
    degC/min, against the 0.1 degC/min steady-trend limit.

    This is the test-termination criterion; the during-plateau limit used
    by detect_plateau is a separate, much looser threshold in degC/s.  The
    slope is ``lsq``'s QR fit over time since the window starts, each axis
    scaled exactly by a power of two: the same bits on every machine.
    """
    w = min(int(round(STEADY_TREND_WINDOW_S * log.sample_rate)), len(log.t))
    t, temp = log.t[-w:], log.temp_motor[-w:]
    x, e_x = lsq.unit_scale(np.ones(w), t - t[0])
    (y,), e_y = lsq.unit_scale(temp)
    slope_per_min = ldexp(lsq.lstsq(x, y)[1], e_y - e_x) * 60.0
    return slope_per_min < STEADY_SLOPE_LIMIT_C_PER_MIN, slope_per_min


def task_weighted_efficiency(band: OperatingBand, table: PointTable) -> float:
    """Positive-power-weighted mean efficiency over the band.

    Every sample where the human does positive work must have a measured
    efficiency at the identical (q, omega) point; the weighting then mirrors
    the envelope weighting so efficiency is judged where work happens.
    """
    etas = measured_at(band, table, "efficiency", band.positive)
    if band.degenerate:
        raise DegenerateBand(
            f"band {band.task}/{band.joint} has no positive-power samples"
        )
    return (fsum((band.weight[band.positive] * etas).tolist())
            / band.total_weight)


def power_balance_check(log: TimeSeriesLog) -> PowerBalanceResult:
    """Mechanical energy out cannot exceed electrical energy in.

    Integrates positive shaft power and bus power with the trapezoid rule;
    a small relative slack absorbs integration rounding.
    """
    p_mech = np.maximum(log.torque * log.omega, 0.0)
    p_elec = log.v_bus * log.i_bus
    mech = float(np.trapezoid(p_mech, log.t))
    elec = float(np.trapezoid(p_elec, log.t))
    passed = mech <= elec * (1.0 + POWER_BALANCE_SLACK) + 1e-12
    return PowerBalanceResult(passed, mech, elec)


def loaded_bandwidth_check(f_loaded: float, f_noload: float) -> bool:
    """Loaded bandwidth above no-load bandwidth indicates measurement error;
    equality (within 1% noise slack) is fine."""
    if f_loaded <= 0 or f_noload <= 0:
        raise ValueError("crossover frequencies must be positive")
    return f_loaded <= f_noload * (1.0 + BANDWIDTH_INFLATION_SLACK)
