import re

import numpy as np
import pytest

from hlaskit.errors import (
    NoiseLevel,
    NoiseSeed,
    PlantParameter,
    TemperatureLimit,
    ValidationError,
)
from hlaskit.record import fields
from hlaskit.signals import (
    compute_frf,
    detect_plateau,
    find_crossover,
    power_balance_check,
)
from hlaskit.synthetic import (
    DEFAULT_AMBIENT_C,
    DutyProfile,
    SyntheticActuator,
    derate_torque,
    generate_backdrive_log,
    generate_capability_map,
    generate_sweep_log,
    generate_thermal_duty_log,
    thermal_crossing_time,
)


class TestCapabilityMap:
    def test_linear_law(self):
        act = SyntheticActuator(stall_torque=36.0, torque_speed_slope=0.75)
        cap = generate_capability_map(act, [(10.0, 8.0)])
        assert cap.samples[0].torque_rob == pytest.approx(30.0)

    def test_clamped_beyond_stall(self):
        act = SyntheticActuator(stall_torque=10.0, torque_speed_slope=1.0)
        cap = generate_capability_map(act, [(0.0, 50.0)])
        assert cap.samples[0].torque_rob == 0.0

    def test_near_but_not_equal_to_worked_example(self):
        # (stall 44, slope 1.0) over the push-off rates gives 36..32,
        # deliberately close to but distinct from the bundled example's
        # measured column (36, 35, 34, 30, 27); golden runs must load the
        # bundled file, not regenerate it from this plant.
        act = SyntheticActuator(stall_torque=44.0, torque_speed_slope=1.0)
        grid = [(10.0, w) for w in (8, 9, 10, 11, 12)]
        torques = [s.torque_rob
                   for s in generate_capability_map(act, grid).samples]
        assert torques == pytest.approx([36, 35, 34, 33, 32])
        assert torques != pytest.approx([36, 35, 34, 30, 27])

    def test_conditions_recorded(self):
        cap = generate_capability_map(SyntheticActuator(), [(0.0, 1.0)])
        assert "ambient" in cap.conditions


class TestSweepLog:
    def test_crossover_recovered(self):
        act = SyntheticActuator(crossover_true=10.0)
        freqs = [2, 5, 10, 20, 40]
        log = generate_sweep_log(act, freqs, 4.0)
        result = find_crossover(compute_frf(log, freqs))
        assert result.f_crossover == pytest.approx(10.0, rel=0.02)

    def test_out_of_range_pole_flags_no_crossing(self):
        act = SyntheticActuator(crossover_true=60.0)
        freqs = [2, 5, 10, 20, 30]
        log = generate_sweep_log(act, freqs, 4.0)
        result = find_crossover(compute_frf(log, freqs))
        assert result.bound == ">="
        assert result.f_crossover == 30

    def test_amplitude_linearity(self):
        act = SyntheticActuator(crossover_true=10.0)
        freqs = [2, 10, 40]
        a = compute_frf(generate_sweep_log(act, freqs, 2.0), freqs)
        b = compute_frf(generate_sweep_log(act, freqs, 4.0), freqs)
        for pa, pb in zip(a, b):
            assert pa.magnitude == pytest.approx(pb.magnitude, rel=1e-9)
            assert pa.phase == pytest.approx(pb.phase, abs=1e-6)

    def test_seeded_noise_is_deterministic(self):
        act = SyntheticActuator()
        l1 = generate_sweep_log(act, [2, 10], 4.0, noise_std=0.01, seed=7)
        l2 = generate_sweep_log(act, [2, 10], 4.0, noise_std=0.01, seed=7)
        assert np.array_equal(l1.torque, l2.torque)
        assert l1.seed == 7


class TestThermalLog:
    ACT = SyntheticActuator(thermal_resistance=0.5, copper_loss_coeff=0.02,
                            thermal_time_constant=20.0)

    def test_below_threshold_returns_commanded_torque(self):
        duty = DutyProfile(duration_s=40.0, temp_limit_c=100.0)
        # steady rise at 48 Nm: 23.04 C -> max slope 1.152 C/s with tau 20 s;
        # use a longer tau so the closed form keeps slope under the limit
        act = SyntheticActuator(thermal_resistance=0.5,
                                copper_loss_coeff=0.02,
                                thermal_time_constant=60.0)
        assert act.steady_temp_rise(48.0) / 60.0 < 0.5
        log = generate_thermal_duty_log(act, duty, 48.0)
        assert detect_plateau(log).torque_cont == pytest.approx(48.0)

    def test_derate_time_matches_closed_form(self):
        duty = DutyProfile(duration_s=60.0, temp_limit_c=60.0)
        torque = 70.0
        oracle = thermal_crossing_time(self.ACT, torque, duty)
        assert oracle is not None
        log = generate_thermal_duty_log(self.ACT, duty, torque)
        result = detect_plateau(log, plateau_window=5.0)
        assert result.time_to_derate is not None
        assert abs(result.time_to_derate - oracle) <= 1.0 / log.sample_rate \
            + 1e-9

    def test_no_derate_below_limit(self):
        duty = DutyProfile(duration_s=30.0, temp_limit_c=100.0)
        assert thermal_crossing_time(self.ACT, 30.0, duty) is None
        log = generate_thermal_duty_log(self.ACT, duty, 30.0)
        assert detect_plateau(log).time_to_derate is None

    def test_zero_torque_stays_at_ambient(self):
        duty = DutyProfile(duration_s=15.0, temp_limit_c=100.0)
        log = generate_thermal_duty_log(self.ACT, duty, 0.0)
        assert np.all(log.temp_motor == DEFAULT_AMBIENT_C)
        result = detect_plateau(log)
        assert result.torque_cont == 0.0
        assert result.time_to_derate is None

    def test_derated_level_sustains_limit_temperature(self):
        duty = DutyProfile(duration_s=120.0, temp_limit_c=60.0)
        log = generate_thermal_duty_log(self.ACT, duty, 70.0)
        level = derate_torque(self.ACT, duty)
        assert float(log.torque[-1]) == pytest.approx(level)
        assert float(log.temp_motor[-1]) == pytest.approx(60.0, abs=0.5)

    def test_burst_profile_duty_cycle(self):
        duty = DutyProfile(duration_s=10.0, burst_s=0.2, period_s=1.0,
                           temp_limit_c=150.0)
        log = generate_thermal_duty_log(self.ACT, duty, 40.0)
        active = np.asarray(log.torque) > 0
        assert 0.15 < active.mean() < 0.25

    @pytest.mark.parametrize("limit", [25.0, -1.0, float("nan"),
                                       float("inf")])
    def test_limit_not_above_ambient_refused(self, limit):
        # at or below ambient no torque holds the limit (a negative rise)
        with pytest.raises(TemperatureLimit, match="above the ambient"):
            DutyProfile(duration_s=10.0, temp_limit_c=limit)


class TestBackdriveLog:
    def test_friction_consistency(self):
        act = SyntheticActuator(j_ref=0.08, b_visc=1.1, f_coulomb=0.9)
        log = generate_backdrive_log(act)
        from hlaskit.signals import fit_friction

        fit = fit_friction(log)
        assert fit.j_ref == pytest.approx(0.08, rel=1e-6)
        assert fit.b_visc == pytest.approx(1.1, rel=1e-6)
        assert fit.f_coulomb == pytest.approx(0.9, rel=1e-6)


def test_every_generator_passes_power_balance():
    act = SyntheticActuator()
    logs = [
        generate_sweep_log(act, [2, 5, 10], 4.0),
        generate_sweep_log(act, [2, 5, 10], 4.0, noise_std=0.01, seed=3),
        generate_thermal_duty_log(
            act, DutyProfile(duration_s=20.0, temp_limit_c=80.0), 30.0),
        generate_thermal_duty_log(
            act, DutyProfile(duration_s=20.0, burst_s=0.2, period_s=1.0,
                             temp_limit_c=80.0), 30.0),
        generate_backdrive_log(act),
        generate_backdrive_log(act, noise_std=0.01, seed=11),
    ]
    for log in logs:
        assert power_balance_check(log).passed, log.conditions


NOISY_GENERATORS = {
    "sweep": lambda **noise: generate_sweep_log(
        SyntheticActuator(), [5, 10], 4.0, seed=7, **noise),  # 1 s
    "backdrive": lambda **noise: generate_backdrive_log(
        SyntheticActuator(), duration=1.0, seed=7, **noise),
}


@pytest.mark.parametrize("kind", sorted(NOISY_GENERATORS))
@pytest.mark.parametrize("noise", [-1.0, -1e-300, float("nan"),
                                   float("inf"), float("-inf")])
def test_noise_level_not_finite_and_non_negative_refused(kind, noise):
    with pytest.raises(NoiseLevel, match="must be finite and >= 0") as raised:
        NOISY_GENERATORS[kind](noise_std=noise)
    assert isinstance(raised.value, ValidationError)
    assert isinstance(raised.value, ValueError)


@pytest.mark.parametrize("make", [
    lambda **kw: generate_sweep_log(SyntheticActuator(), [5, 10], 4.0, **kw),
    lambda **kw: generate_backdrive_log(SyntheticActuator(), duration=1.0,
                                        **kw)], ids=["sweep", "backdrive"])
@pytest.mark.parametrize("noise", [0.0, 0.01])
@pytest.mark.parametrize("seed", [-1, -2**70])
def test_negative_seed_refused(make, noise, seed):
    """A negative seed ended in NumPy's "expected non-negative integer"
    with noise, and without it was recorded on the log."""
    with pytest.raises(NoiseSeed, match=f"^seed {seed} must be >= 0$") \
            as raised:
        make(noise_std=noise, seed=seed)
    assert isinstance(raised.value, ValidationError)
    assert isinstance(raised.value, ValueError)
    assert make(noise_std=noise, seed=0).seed == 0


@pytest.mark.parametrize("kind", sorted(NOISY_GENERATORS))
def test_zero_noise_is_noiseless_and_positive_noise_is_not(kind):
    make = NOISY_GENERATORS[kind]
    noiseless, zero, noisy = make(), make(noise_std=0.0), make(noise_std=0.01)
    assert np.array_equal(zero.torque, noiseless.torque)
    assert not np.array_equal(noisy.torque, noiseless.torque)


def test_actuator_validation():
    with pytest.raises(ValueError):
        SyntheticActuator(stall_torque=-1.0)


# each parameter that must be a finite number > 0, with what takes it
PLANT_PARAMETERS = [*((SyntheticActuator, field.name)
                      for field in fields(SyntheticActuator)),
                    (DutyProfile, "duration_s")]


@pytest.mark.parametrize("make, name", PLANT_PARAMETERS,
                         ids=[name for _, name in PLANT_PARAMETERS])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                   0.0, -1.0])
def test_plant_parameter_not_finite_and_positive_refused(make, name, value):
    """``SyntheticActuator(stall_torque=nan)`` was accepted, and its map
    read all-zero torque under the conditions "stall nan Nm"; a duty of NaN
    or infinite duration was accepted too."""
    with pytest.raises(PlantParameter, match=re.escape(
            f"{name} {value!r} must be finite and positive")) as raised:
        make(**{name: value})
    assert isinstance(raised.value, ValidationError)
    assert isinstance(raised.value, ValueError)


@pytest.mark.parametrize("burst, period, message", [
    (1.0, None, "burst_s and period_s must be given together"),
    (None, 1.0, "burst_s and period_s must be given together"),
    (1.0, 1.0, "need 0 < burst_s < period_s"),
    (0.0, 1.0, "need 0 < burst_s < period_s"),
    (float("nan"), 1.0, "need 0 < burst_s < period_s"),
])
def test_burst_not_inside_its_period_refused(burst, period, message):
    with pytest.raises(PlantParameter, match=re.escape(message)):
        DutyProfile(burst_s=burst, period_s=period)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                   0.0, -1.0])
def test_backdrive_duration_not_finite_and_positive_refused(value):
    """``generate_backdrive_log(duration=nan)`` ended in Python's float
    conversion error, ``inf`` in an ``OverflowError`` and ``0`` or ``-1`` in
    NumPy's gradient error."""
    with pytest.raises(PlantParameter, match=re.escape(
            f"duration {value!r} must be finite and positive")):
        generate_backdrive_log(SyntheticActuator(), duration=value)


def _backdrive(duration):
    return generate_backdrive_log(SyntheticActuator(), duration=duration)


def _thermal(duration):
    return generate_thermal_duty_log(SyntheticActuator(),
                                     DutyProfile(duration_s=duration), 10.0)


# 0.0005 s is half a sample period, which rounds to even: no second sample
@pytest.mark.parametrize("duration", [0.0004, 0.0005])
@pytest.mark.parametrize("generate", [_backdrive, _thermal],
                         ids=["backdrive", "thermal"])
def test_duration_under_two_samples_refused(generate, duration):
    with pytest.raises(PlantParameter, match=re.escape(
            f"duration {duration!r} s gives fewer than two samples at "
            f"1000 Hz")):
        generate(duration)


@pytest.mark.parametrize("duration, n", [(0.001, 2), (0.002, 3),
                                         (0.25, 251)])
def test_log_samples_both_ends_of_its_duration(duration, n):
    for log in (_backdrive(duration), _thermal(duration)):
        assert len(log.t) == n
        assert log.t[0] == 0.0
        assert log.t[-1] == pytest.approx(duration, rel=1e-12)


def _sweep(duration):
    """A sweep whose lowest probe frequency gives five periods of
    ``duration``."""
    return generate_sweep_log(SyntheticActuator(), [5.0 / duration], 4.0)


# each far past 2**47 bytes of float64 samples, which no machine can
# allocate: a duration a machine could allocate is never tried here
@pytest.mark.parametrize("duration, samples", [
    (1e13, "1e+16"), (1e300, "1e+303"), (1e306, "inf")])
@pytest.mark.parametrize("generate", [_backdrive, _thermal, _sweep],
                         ids=["backdrive", "thermal", "sweep"])
def test_duration_past_any_allocation_refused(generate, duration, samples):
    """A duration of ``1e13`` s ended in NumPy's ``_ArrayMemoryError``,
    ``1e300`` s in its ``Maximum allowed size exceeded`` and ``1e306`` s in
    the ``OverflowError`` of ``round(inf)``."""
    with pytest.raises(PlantParameter, match=re.escape(
            f"duration {duration!r} s gives {samples} samples at 1000 Hz, "
            f"more than can be allocated")):
        generate(duration)
