"""Synthetic actuator oracle for hardware-free known-answer tests.

The plants are deliberately minimal (linear torque-speed law, single-pole
torque tracking, first-order thermal RC) so that every generated log has a
closed-form answer the analysis code can be checked against.  Every log is
sampled at 1 kHz (``SAMPLE_RATE_HZ``).  Generators are deterministic given
a seed; noise is Gaussian and seed-controlled, and seeds are recorded on the
logs they produced.

Every generated log satisfies the power-balance sanity check by
construction: bus power is synthesized as positive mechanical power divided
by a drive efficiency, plus copper and idle losses.
"""

from __future__ import annotations

from math import exp, inf, log, sqrt

import numpy as np

from .envelope import CapabilityMap
from .errors import NoiseLevel, NoiseSeed, PlantParameter, TemperatureLimit
from .record import fields, record
from .signals import TimeSeriesLog, estimate_rate_derivative

SAMPLE_RATE_HZ = 1000.0           # every generated log
BACKDRIVE_FREQ_HZ = 0.2           # slow enough to stay quasi-static
BACKDRIVE_AMPLITUDE_DEG = 30.0
DEFAULT_AMBIENT_C = 25.0          # every plant
DUTY_OMEGA_RAD_S = 1.0            # joint rate while a duty cycle loads it
DEFAULT_BUS_VOLTAGE_V = 48.0
DRIVE_EFFICIENCY = 0.85
IDLE_POWER_W = 2.0


def _check_positive(name: str, value: float) -> None:
    """Refuse a parameter ``value`` that is not a finite number > 0."""
    if not 0 < value < inf:
        raise PlantParameter(f"{name} {value!r} must be finite and positive")


def _time_column(duration: float) -> np.ndarray:
    """The sample times of a log ``duration`` seconds long at
    ``SAMPLE_RATE_HZ``, both ends included; a duration that gives fewer
    than two samples, or more than can be allocated, raises
    ``PlantParameter``."""
    _check_positive("duration", duration)
    periods = duration * SAMPLE_RATE_HZ     # inf past about 1.8e305 s
    if periods <= 0.5:                      # rounds to none
        raise PlantParameter(
            f"duration {duration!r} s gives fewer than two samples at "
            f"{SAMPLE_RATE_HZ:g} Hz")
    try:
        return np.arange(round(periods) + 1) / SAMPLE_RATE_HZ
    except (MemoryError, OverflowError, ValueError):
        raise PlantParameter(
            f"duration {duration!r} s gives {periods + 1:.6g} samples at "
            f"{SAMPLE_RATE_HZ:g} Hz, more than can be allocated") from None


@record
class SyntheticActuator:
    """Parameter set for the minimal joint plant."""

    stall_torque: float = 44.0          # Nm continuous at zero rate
    torque_speed_slope: float = 1.0     # Nm per rad/s falloff
    gear_ratio: float = 9.0
    j_ref: float = 0.05                 # kg m^2 reflected inertia
    b_visc: float = 0.8                 # Nm s/rad
    f_coulomb: float = 1.2              # Nm
    thermal_resistance: float = 0.5     # degC per W of copper loss
    thermal_time_constant: float = 60.0  # s
    copper_loss_coeff: float = 0.02     # W per Nm^2
    crossover_true: float = 10.0        # Hz, torque-mode tracking pole

    def __post_init__(self) -> None:
        for field in fields(self):
            _check_positive(f"actuator {field.name}",
                            getattr(self, field.name))

    def continuous_torque(self, omega: float) -> float:
        return max(0.0, self.stall_torque - self.torque_speed_slope * abs(omega))

    def tracking_response(self, freq: float) -> complex:
        """Closed-form single-pole torque-tracking transfer at freq (Hz)."""
        return 1.0 / (1.0 + 1j * freq / self.crossover_true)

    def steady_temp_rise(self, torque: float) -> float:
        """Steady-state winding temperature rise above ambient at a torque."""
        return self.copper_loss_coeff * torque**2 * self.thermal_resistance


@record
class DutyProfile:
    """Duty-cycle description for thermal tests.

    ``burst_s``/``period_s`` of None means a constant hold.  ``temp_limit_c``
    is the winding limit, above the 25 C ``DEFAULT_AMBIENT_C``, at which the
    rig derates the command to the largest torque sustainable at that
    temperature.  The loaded joint turns at 1 rad/s (``DUTY_OMEGA_RAD_S``).
    """

    duration_s: float = 120.0
    burst_s: float | None = None
    period_s: float | None = None
    temp_limit_c: float = 100.0

    def __post_init__(self) -> None:
        _check_positive("duty duration_s", self.duration_s)
        if (self.burst_s is None) != (self.period_s is None):
            raise PlantParameter("burst_s and period_s must be given together")
        if self.burst_s is not None and not 0 < self.burst_s < self.period_s:
            raise PlantParameter("need 0 < burst_s < period_s")
        if not DEFAULT_AMBIENT_C < self.temp_limit_c < inf:
            raise TemperatureLimit(
                f"temperature limit {self.temp_limit_c} C must be finite and "
                f"above the ambient {DEFAULT_AMBIENT_C} C")


def _electrical_channels(
    torque: np.ndarray, omega: np.ndarray, act: SyntheticActuator
) -> tuple[np.ndarray, np.ndarray]:
    p_mech_pos = np.maximum(torque * omega, 0.0)
    p_elec = (
        p_mech_pos / DRIVE_EFFICIENCY
        + act.copper_loss_coeff * torque**2
        + IDLE_POWER_W
    )
    v_bus = np.full_like(p_elec, DEFAULT_BUS_VOLTAGE_V)
    return v_bus, p_elec / DEFAULT_BUS_VOLTAGE_V


def _check_noise(noise_std: float, seed: int | None) -> None:
    """Refuse a noise level that is not a finite number >= 0, and a seed
    below 0, which the log would record even without noise."""
    if not 0 <= noise_std < inf:
        raise NoiseLevel(f"noise_std {noise_std} must be finite and >= 0")
    if seed is not None and seed < 0:
        raise NoiseSeed(f"seed {seed} must be >= 0")


def generate_capability_map(
    act: SyntheticActuator,
    grid: list[tuple[float, float]],
    joint: str = "synthetic",
    axis: str = "flexion",
) -> CapabilityMap:
    """Continuous-safe torque over a grid from the linear torque-speed law.

    Posture-independent and deterministic; the closed-form law is the
    oracle for anything computed from the map.
    """
    if not grid:
        raise ValueError("grid must not be empty")
    q, omega = zip(*grid)
    torque = [act.continuous_torque(w) for w in omega]
    conditions = (
        f"synthetic plant, ambient {DEFAULT_AMBIENT_C:g} C still air, "
        f"stall {act.stall_torque:g} Nm, slope {act.torque_speed_slope:g} "
        f"Nm/(rad/s)"
    )
    return CapabilityMap(joint, axis, q, omega, torque, conditions)


def generate_sweep_log(
    act: SyntheticActuator,
    freqs: list[float],
    amplitude: float,
    *,
    noise_std: float = 0.0,
    seed: int | None = None,
) -> TimeSeriesLog:
    """Multitone torque-mode sweep through the single-pole tracking plant.

    Commanded torque is a sum of unit-relative sinusoids at the probe
    frequencies; actual torque is each tone scaled and phase-shifted by the
    closed-form pole response, so the analytic magnitude/phase is available
    exactly.  The joint is held stationary (omega = 0) as in a grounded
    torque-cell test.  The log is sampled at 1 kHz (``SAMPLE_RATE_HZ``) and
    lasts five periods of the lowest probe frequency, at least 1 s.
    """
    if amplitude <= 0:
        raise ValueError("sweep amplitude must be positive")
    if not freqs or any(f <= 0 for f in freqs):
        raise ValueError("need at least one positive probe frequency")
    _check_noise(noise_std, seed)
    t = _time_column(max(5.0 / min(freqs), 1.0))
    n = len(t)
    cmd = np.zeros(n)
    actual = np.zeros(n)
    for f in freqs:
        phase = 2.0 * np.pi * f * t
        cmd += amplitude * np.sin(phase)
        g = act.tracking_response(f)
        actual += amplitude * abs(g) * np.sin(phase + np.angle(g))
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        actual = actual + rng.normal(0.0, noise_std * amplitude, n)
    omega = np.zeros(n)
    v_bus, i_bus = _electrical_channels(actual, omega, act)
    temp = np.full(n, DEFAULT_AMBIENT_C)
    return TimeSeriesLog(
        t=t, q=np.full(n, 10.0), omega=omega, torque=actual, torque_cmd=cmd,
        v_bus=v_bus, i_bus=i_bus, temp_motor=temp, temp_gear=temp.copy(),
        sample_rate=SAMPLE_RATE_HZ,
        conditions=f"synthetic sweep, pole {act.crossover_true:g} Hz, "
                   f"amplitude {amplitude:g} Nm",
        seed=seed,
    )


def derate_torque(act: SyntheticActuator, duty: DutyProfile) -> float:
    """Largest torque whose steady temperature stays at the duty limit."""
    rise = duty.temp_limit_c - DEFAULT_AMBIENT_C
    return sqrt(rise / (act.copper_loss_coeff * act.thermal_resistance))


def thermal_crossing_time(
    act: SyntheticActuator, torque: float, duty: DutyProfile
) -> float | None:
    """Closed-form instant a constant-torque hold reaches the temp limit.

    None when the steady-state temperature never reaches the limit.  This
    is the oracle for the generator's derate instant.
    """
    rise_ss = act.steady_temp_rise(torque)
    rise_lim = duty.temp_limit_c - DEFAULT_AMBIENT_C
    if rise_ss <= rise_lim:
        return None
    return -act.thermal_time_constant * log(1.0 - rise_lim / rise_ss)


def generate_thermal_duty_log(
    act: SyntheticActuator,
    duty: DutyProfile,
    torque_level: float,
) -> TimeSeriesLog:
    """Duty-cycle torque hold through the first-order thermal RC plant.

    Winding temperature follows dT/dt = (loss * R - (T - T_amb)) / tau_th
    integrated exactly per sample of the 1 kHz (``SAMPLE_RATE_HZ``) log.  When the winding reaches the duty's
    temperature limit the commanded torque steps down to the largest
    steadily sustainable level, emulating rig derating; the closed-form
    crossing time is available from thermal_crossing_time.
    """
    if torque_level < 0:
        raise ValueError("torque level must be >= 0")
    t = _time_column(duty.duration_s)
    n = len(t)
    h = 1.0 / SAMPLE_RATE_HZ
    decay = exp(-h / act.thermal_time_constant)

    if duty.burst_s is None:
        active = np.ones(n, dtype=bool)
    else:
        active = (t % duty.period_s) < duty.burst_s

    tau_derated = min(torque_level, derate_torque(act, duty))
    cmd = np.empty(n)
    temp = np.empty(n)
    level = torque_level
    temp_now = DEFAULT_AMBIENT_C
    for k in range(n):
        cmd[k] = level if active[k] else 0.0
        temp[k] = temp_now
        t_ss = DEFAULT_AMBIENT_C + act.steady_temp_rise(cmd[k])
        temp_now = t_ss + (temp_now - t_ss) * decay
        if temp_now >= duty.temp_limit_c and level > tau_derated:
            # rig catches the limit: subsequent samples command the largest
            # steadily sustainable torque, temperature settles to the limit
            level = tau_derated

    omega = np.where(active, DUTY_OMEGA_RAD_S, 0.0)
    v_bus, i_bus = _electrical_channels(cmd, omega, act)
    temp_gear = DEFAULT_AMBIENT_C + 0.3 * (temp - DEFAULT_AMBIENT_C)
    return TimeSeriesLog(
        t=t, q=np.full(n, 30.0), omega=omega, torque=cmd.copy(),
        torque_cmd=cmd, v_bus=v_bus, i_bus=i_bus,
        temp_motor=temp, temp_gear=temp_gear, sample_rate=SAMPLE_RATE_HZ,
        conditions=f"synthetic duty, ambient {DEFAULT_AMBIENT_C:g} C still "
                   f"air, limit {duty.temp_limit_c:g} C",
    )


def generate_backdrive_log(
    act: SyntheticActuator,
    *,
    duration: float = 10.0,
    noise_std: float = 0.0,
    seed: int | None = None,
) -> TimeSeriesLog:
    """Slow sinusoidal backdrive of a gravity-compensated joint: +/-30 deg
    at 0.2 Hz (``BACKDRIVE_AMPLITUDE_DEG``, ``BACKDRIVE_FREQ_HZ``), sampled
    at 1 kHz (``SAMPLE_RATE_HZ``).

    Torque is synthesized from the friction model using the same discrete
    rate-derivative estimator the identification uses, so a noiseless log
    is exactly consistent with the fitted model (the regression residual is
    numerical rounding only).
    """
    _check_noise(noise_std, seed)
    t = _time_column(duration)
    n = len(t)
    phase = 2.0 * np.pi * BACKDRIVE_FREQ_HZ * t
    q = BACKDRIVE_AMPLITUDE_DEG * np.sin(phase)
    omega = (
        np.deg2rad(BACKDRIVE_AMPLITUDE_DEG) * 2.0 * np.pi * BACKDRIVE_FREQ_HZ
        * np.cos(phase)
    )
    domega = estimate_rate_derivative(omega, SAMPLE_RATE_HZ)
    torque = act.j_ref * domega + act.b_visc * omega
    torque = torque + act.f_coulomb * np.sign(omega)
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        torque = torque + rng.normal(
            0.0, noise_std * float(np.sqrt(np.mean(torque**2))), n
        )
    v_bus, i_bus = _electrical_channels(torque, omega, act)
    temp = np.full(n, DEFAULT_AMBIENT_C)
    return TimeSeriesLog(
        t=t, q=q, omega=omega, torque=torque, torque_cmd=np.zeros(n),
        v_bus=v_bus, i_bus=i_bus, temp_motor=temp, temp_gear=temp.copy(),
        sample_rate=SAMPLE_RATE_HZ,
        conditions=f"synthetic backdrive, {BACKDRIVE_FREQ_HZ:g} Hz, "
                   f"+/-{BACKDRIVE_AMPLITUDE_DEG:g} deg, gravity compensated",
        seed=seed,
    )
