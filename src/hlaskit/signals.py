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
from dataclasses import dataclass
from math import atan2, degrees, fsum, log, sqrt

import numpy as np

from .bands import OperatingBand, measured_at
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

MIN_SAMPLE_RATE_HZ = 1000.0   # logs below this rate are rejected at load
MIN_CYCLES = 5                # excitation cycles needed per probe frequency
MIN_RATE_OVERSAMPLING = 10.0  # sample_rate / probe frequency floor
CROSSOVER_MAGNITUDE = 1.0 / sqrt(2.0)
DERIVATIVE_SMOOTHING_WINDOW = 5
IRLS_MAX_ITERATIONS = 10
IRLS_MAD_MULTIPLE = 3.0
DEFAULT_SLOPE_LIMIT_C_PER_S = 0.5     # derating onset threshold
STEADY_SLOPE_LIMIT_C_PER_MIN = 0.1    # end-of-test steady-trend threshold
DEFAULT_PLATEAU_WINDOW_S = 10.0
POWER_BALANCE_SLACK = 1e-6
BANDWIDTH_INFLATION_SLACK = 0.01


@dataclass(frozen=True)
class TimeSeriesLog:
    """Synchronized multichannel measurement record sampled at >= 1 kHz.

    Channels: time (s), joint angle (deg), joint rate (rad/s), measured and
    commanded torque (Nm), bus voltage (V) and current (A), motor and gear
    temperatures (degC).
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
        n = len(self.t)
        channels = (self.q, self.omega, self.torque, self.torque_cmd,
                    self.v_bus, self.i_bus, self.temp_motor, self.temp_gear)
        if any(len(c) != n for c in channels):
            raise InvalidRecord("all log channels must have equal length")
        if n < 2:
            raise InvalidRecord("log must contain at least two samples")
        if self.sample_rate < MIN_SAMPLE_RATE_HZ:
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


@dataclass(frozen=True)
class FrfPoint:
    freq: float        # Hz
    magnitude: float   # dimensionless actual/commanded amplitude ratio
    phase: float       # deg

    def __post_init__(self) -> None:
        if self.freq <= 0:
            raise ValueError("FRF frequency must be positive")
        if self.magnitude < 0:
            raise ValueError("FRF magnitude must be >= 0")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class FrictionFit:
    """Parameters of tau ~ J*domega + b*omega + fc*sign(omega)."""

    j_ref: float          # kg m^2, reflected inertia
    b_visc: float         # Nm s/rad
    f_coulomb: float      # Nm
    backdrive_p95: float  # Nm, 95th percentile |tau| on the backdrive log
    residual_rms: float   # Nm


@dataclass(frozen=True)
class PlateauResult:
    torque_cont: float            # Nm, largest slope-compliant windowed mean
    time_to_derate: float | None  # s, from the command channel; None if never
    final_temp_motor: float
    final_temp_gear: float


@dataclass(frozen=True)
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
    basis = np.cos(phase) - 1j * np.sin(phase)
    x_cmd = np.dot(cmd[sel].astype(float), basis)
    if abs(x_cmd) < 1e-12:
        raise InsufficientExcitation(
            f"commanded torque has no content at {freq} Hz"
        )
    x_act = np.dot(act[sel].astype(float), basis)
    return x_act / x_cmd


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

    target_db = 20.0 * np.log10(CROSSOVER_MAGNITUDE)
    mags_db = [20.0 * np.log10(max(p.magnitude, 1e-12)) for p in frf]

    crossings = []
    for i in range(len(frf) - 1):
        y0, y1 = mags_db[i] - target_db, mags_db[i + 1] - target_db
        if y0 >= 0 > y1:
            x0, x1 = log(freqs[i]), log(freqs[i + 1])
            xc = x0 if y0 == y1 else x0 + (x1 - x0) * y0 / (y0 - y1)
            f_c = float(np.exp(xc))
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

def estimate_rate_derivative(
    omega: np.ndarray,
    sample_rate: float,
    window: int = DERIVATIVE_SMOOTHING_WINDOW,
) -> np.ndarray:
    """Angular acceleration by central differences plus a short moving
    average, bounding derivative noise amplification at 1 kHz rates."""
    omega = np.asarray(omega, dtype=float)
    domega = np.gradient(omega) * sample_rate
    if window > 1:
        kernel = np.ones(window) / window
        padded = np.pad(domega, window // 2, mode="edge")
        domega = np.convolve(padded, kernel, mode="valid")[: len(omega)]
    return domega


def fit_friction(log: TimeSeriesLog) -> FrictionFit:
    """Identify reflected inertia, viscous, and Coulomb friction.

    Solves tau ~ J*domega + b*omega + fc*sign(omega) by iteratively
    reweighted least squares with a Huber-style loss (threshold three times
    the median absolute residual), which keeps contact spikes and sensor
    glitches from biasing the fit.  Assumes gravity was already compensated
    when the log was recorded.
    """
    omega = np.asarray(log.omega, dtype=float)
    tau = np.asarray(log.torque, dtype=float)

    if not (np.any(omega > 0) and np.any(omega < 0)):
        raise RankDeficient(
            "joint rate never changes sign; the Coulomb regressor is "
            "degenerate"
        )
    domega = estimate_rate_derivative(omega, log.sample_rate)
    if float(np.max(np.abs(domega))) < 1e-9:
        raise InsufficientExcitation("no measurable acceleration in the log")

    x = np.column_stack([domega, omega, np.sign(omega)])
    sv = np.linalg.svd(x, compute_uv=False)
    if sv[-1] < 1e-12 * sv[0]:
        raise RankDeficient("friction regressors are numerically collinear")

    beta, *_ = np.linalg.lstsq(x, tau, rcond=None)
    for _ in range(IRLS_MAX_ITERATIONS):
        resid = tau - x @ beta
        mad = float(np.median(np.abs(resid)))
        if mad <= 0:
            break
        thr = IRLS_MAD_MULTIPLE * mad
        w = np.minimum(1.0, thr / np.maximum(np.abs(resid), 1e-300))
        sw = np.sqrt(w)
        beta_new, *_ = np.linalg.lstsq(x * sw[:, None], tau * sw, rcond=None)
        if np.max(np.abs(beta_new - beta)) < 1e-12 * max(
            1.0, float(np.max(np.abs(beta)))
        ):
            beta = beta_new
            break
        beta = beta_new

    resid = tau - x @ beta
    return FrictionFit(
        j_ref=float(beta[0]),
        b_visc=float(beta[1]),
        f_coulomb=float(beta[2]),
        backdrive_p95=float(np.percentile(np.abs(tau), 95)),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
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
    t = np.asarray(log.t, dtype=float)
    slope_motor = _windowed_slopes(t, np.asarray(log.temp_motor, float), w)
    slope_gear = _windowed_slopes(t, np.asarray(log.temp_gear, float), w)
    ok = (slope_motor < slope_limit) & (slope_gear < slope_limit)
    torque_cont = 0.0
    if np.any(ok):
        means = _windowed_means(np.asarray(log.torque, float), w)
        torque_cont = float(np.max(means[ok]))
    return PlateauResult(
        torque_cont=torque_cont,
        time_to_derate=_time_to_derate(t, np.asarray(log.torque_cmd, float)),
        final_temp_motor=float(log.temp_motor[-1]),
        final_temp_gear=float(log.temp_gear[-1]),
    )


# ---------------------------------------------------------------------------
# Efficiency and sanity checks
# ---------------------------------------------------------------------------

def steady_trend(
    log: TimeSeriesLog,
    window_s: float = 60.0,
    limit_c_per_min: float = STEADY_SLOPE_LIMIT_C_PER_MIN,
) -> tuple[bool, float]:
    """End-of-test steady-state check: motor temperature slope over the
    trailing window, in degC/min, against the steady-trend limit.

    This is the test-termination criterion; the during-plateau limit used
    by detect_plateau is a separate, much looser threshold in degC/s.
    """
    w = min(int(round(window_s * log.sample_rate)), len(log.t))
    t = np.asarray(log.t, float)[-w:]
    y = np.asarray(log.temp_motor, float)[-w:]
    slope_per_min = float(np.polyfit(t, y, 1)[0]) * 60.0
    return slope_per_min < limit_c_per_min, slope_per_min


def task_weighted_efficiency(
    band: OperatingBand,
    eff_samples: dict[tuple[float, float], float],
) -> float:
    """Positive-power-weighted mean efficiency over the band.

    Every sample where the human does positive work must have a measured
    efficiency at the identical (q, omega) point; the weighting then mirrors
    the envelope weighting so efficiency is judged where work happens.
    """
    positive = band.power_hum > 0
    etas = measured_at(band, eff_samples, "efficiency", positive)
    weights = band.weight[positive]
    total = fsum(weights.tolist())
    if not weights.size or total <= 0:
        raise DegenerateBand(
            f"band {band.task}/{band.joint} has no positive-power samples"
        )
    return fsum((weights * etas).tolist()) / total


def power_balance_check(log: TimeSeriesLog) -> PowerBalanceResult:
    """Mechanical energy out cannot exceed electrical energy in.

    Integrates positive shaft power and bus power with the trapezoid rule;
    a small relative slack absorbs integration rounding.
    """
    p_mech = np.maximum(
        np.asarray(log.torque, float) * np.asarray(log.omega, float), 0.0
    )
    p_elec = np.asarray(log.v_bus, float) * np.asarray(log.i_bus, float)
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
