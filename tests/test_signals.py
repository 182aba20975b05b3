import math

import numpy as np
import pytest

from hlaskit.bands import OperatingBand
from hlaskit.errors import (
    AliasedFrequency,
    DegenerateBand,
    InsufficientCycles,
    NotMonotoneWarning,
    RankDeficient,
    SampleMismatch,
    WindowTooLong,
)
from hlaskit.signals import (
    FrfPoint,
    TimeSeriesLog,
    compute_frf,
    detect_plateau,
    find_crossover,
    fit_friction,
    loaded_bandwidth_check,
    power_balance_check,
    task_weighted_efficiency,
)
from hlaskit.synthetic import (
    DutyProfile,
    SyntheticActuator,
    generate_backdrive_log,
    generate_sweep_log,
    generate_thermal_duty_log,
)

FS = 1000.0


def make_log(duration=3.0, **overrides):
    n = int(duration * FS) + 1
    t = np.arange(n) / FS
    zeros = np.zeros(n)
    channels = dict(
        t=t, q=zeros.copy(), omega=zeros.copy(), torque=zeros.copy(),
        torque_cmd=zeros.copy(), v_bus=np.full(n, 48.0),
        i_bus=np.full(n, 0.1), temp_motor=np.full(n, 25.0),
        temp_gear=np.full(n, 25.0), sample_rate=FS,
    )
    channels.update(overrides)
    return TimeSeriesLog(**channels)


class TestLogValidation:
    def test_rejects_low_sample_rate(self):
        with pytest.raises(ValueError, match="1000"):
            make_log(sample_rate=500.0)

    def test_rejects_unequal_channels(self):
        with pytest.raises(ValueError, match="equal length"):
            make_log(q=np.zeros(5))

    def test_rejects_nonincreasing_time(self):
        with pytest.raises(ValueError, match="increasing"):
            make_log(duration=2.0, t=np.zeros(2001))


class TestComputeFrf:
    def test_identity_plant(self):
        act = SyntheticActuator(crossover_true=1000.0)
        log = generate_sweep_log(act, [1, 2, 5], 4.0)
        log = make_log(duration=5.0, torque=log.torque_cmd[:5001],
                       torque_cmd=log.torque_cmd[:5001],
                       t=np.arange(5001) / FS)
        for p in compute_frf(log, [1, 2, 5]):
            assert p.magnitude == pytest.approx(1.0, abs=1e-9)
            assert p.phase == pytest.approx(0.0, abs=1e-6)

    def test_single_pole_magnitude_at_corner(self):
        act = SyntheticActuator(crossover_true=10.0)
        log = generate_sweep_log(act, [2, 5, 10, 20, 40], 4.0)
        frf = {p.freq: p for p in compute_frf(log, [2, 5, 10, 20, 40])}
        assert frf[10].magnitude == pytest.approx(1 / math.sqrt(2), rel=0.01)

    def test_second_order_plant_matches_closed_form(self):
        # underdamped second-order response synthesized per tone
        f_n, zeta = 12.0, 0.4
        freqs = [2.0, 5.0, 8.0, 12.0, 20.0, 40.0]
        duration = 5.0
        n = int(duration * FS) + 1
        t = np.arange(n) / FS
        cmd = np.zeros(n)
        actual = np.zeros(n)
        response = {}
        for f in freqs:
            g = 1.0 / (1.0 - (f / f_n) ** 2 + 1j * 2 * zeta * f / f_n)
            response[f] = g
            cmd += np.sin(2 * np.pi * f * t)
            actual += abs(g) * np.sin(2 * np.pi * f * t + np.angle(g))
        log = make_log(duration=duration, t=t, torque=actual, torque_cmd=cmd)
        for p in compute_frf(log, freqs):
            assert p.magnitude == pytest.approx(abs(response[p.freq]),
                                                rel=0.02)
            want_phase = math.degrees(np.angle(response[p.freq]))
            assert p.phase == pytest.approx(want_phase, abs=1.0)

    def test_insufficient_cycles(self):
        log = make_log(duration=2.0,
                       torque_cmd=np.sin(np.arange(2001) / FS),
                       torque=np.sin(np.arange(2001) / FS))
        with pytest.raises(InsufficientCycles):
            compute_frf(log, [1.0])

    def test_aliased_frequency(self):
        log = make_log(duration=3.0)
        with pytest.raises(AliasedFrequency):
            compute_frf(log, [200.0])


class TestFindCrossover:
    def single_pole_points(self, f_c, freqs):
        return [
            FrfPoint(f, abs(1 / (1 + 1j * f / f_c)),
                     math.degrees(np.angle(1 / (1 + 1j * f / f_c))))
            for f in freqs
        ]

    def test_single_pole_interpolation(self):
        frf = self.single_pole_points(10.0, [5, 8, 10, 12, 20])
        result = find_crossover(frf)
        assert result.bound is None
        assert result.f_crossover == pytest.approx(10.0, rel=0.02)
        # single pole: phase -45 deg at the corner
        assert result.phase_margin_deg == pytest.approx(135.0, abs=2.0)

    def test_no_crossing_flags_range_max(self):
        frf = [FrfPoint(f, 1.0, 0.0) for f in (1, 5, 20, 60)]
        result = find_crossover(frf)
        assert result.bound == ">="
        assert result.f_crossover == 60

    def test_below_at_lowest_probe(self):
        frf = [FrfPoint(f, 0.3, -90.0) for f in (1, 5, 20)]
        result = find_crossover(frf)
        assert result.bound == "<="
        assert result.f_crossover == 1

    def test_multiple_crossings_warn_and_report_first(self):
        mags = [1.0, 0.5, 1.0, 0.5]
        frf = [FrfPoint(f, m, 0.0) for f, m in zip((1, 2, 4, 8), mags)]
        with pytest.warns(NotMonotoneWarning):
            result = find_crossover(frf)
        assert len(result.crossings) == 2
        assert result.f_crossover == result.crossings[0]
        assert 1 < result.f_crossover < 2

    def test_bisection_oracle_on_geared_plant(self):
        # two-pole gear-train response; oracle locates |G| = 1/sqrt(2)
        # by bisection on the closed form
        def mag(f):
            g = 1 / ((1 + 1j * f / 9.0) * (1 + 1j * f / 60.0))
            return abs(g)

        lo, hi = 1.0, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mag(mid) > 1 / math.sqrt(2):
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)

        freqs = [1, 2, 4, 6, 8, 10, 15, 25, 50]
        frf = [
            FrfPoint(f, mag(f), math.degrees(np.angle(
                1 / ((1 + 1j * f / 9.0) * (1 + 1j * f / 60.0)))))
            for f in freqs
        ]
        result = find_crossover(frf)
        assert result.f_crossover == pytest.approx(oracle, rel=0.02)

    def test_rescaling_invariance_through_frf(self):
        act = SyntheticActuator(crossover_true=10.0)
        log = generate_sweep_log(act, [2, 5, 10, 20, 40], 4.0)
        base = find_crossover(compute_frf(log, [2, 5, 10, 20, 40]))
        scaled = make_log(
            duration=log.duration, t=log.t,
            torque=5.0 * log.torque, torque_cmd=5.0 * log.torque_cmd,
        )
        rescaled = find_crossover(compute_frf(scaled, [2, 5, 10, 20, 40]))
        assert rescaled.f_crossover == pytest.approx(base.f_crossover,
                                                     rel=1e-9)

    def test_unsorted_rejected(self):
        frf = [FrfPoint(10, 1.0, 0.0), FrfPoint(5, 0.9, 0.0)]
        with pytest.raises(ValueError):
            find_crossover(frf)


class TestFitFriction:
    PARAMS = dict(j_ref=0.05, b_visc=0.8, f_coulomb=1.2)

    def test_noiseless_exact_recovery(self):
        act = SyntheticActuator(**self.PARAMS)
        log = generate_backdrive_log(act)
        fit = fit_friction(log)
        assert fit.j_ref == pytest.approx(act.j_ref, rel=1e-6)
        assert fit.b_visc == pytest.approx(act.b_visc, rel=1e-6)
        assert fit.f_coulomb == pytest.approx(act.f_coulomb, rel=1e-6)
        assert fit.residual_rms < 1e-9

    def test_noisy_recovery_within_five_percent(self):
        act = SyntheticActuator(**self.PARAMS)
        in_tolerance = 0
        for seed in range(20):
            log = generate_backdrive_log(act, noise_std=0.01, seed=seed)
            fit = fit_friction(log)
            ok = (
                abs(fit.j_ref - act.j_ref) <= 0.05 * act.j_ref
                and abs(fit.b_visc - act.b_visc) <= 0.05 * act.b_visc
                and abs(fit.f_coulomb - act.f_coulomb) <= 0.05 * act.f_coulomb
            )
            in_tolerance += ok
        assert in_tolerance >= 19

    def test_zero_rate_log_rank_deficient(self):
        log = make_log(duration=2.0)
        with pytest.raises(RankDeficient):
            fit_friction(log)

    def test_one_signed_rate_rank_deficient(self):
        n = 2001
        t = np.arange(n) / FS
        omega = 1.0 + 0.5 * np.sin(2 * np.pi * 0.4 * t)  # always positive
        log = make_log(duration=2.0, t=t, omega=omega,
                       torque=omega.copy())
        with pytest.raises(RankDeficient):
            fit_friction(log)

    def test_backdrive_p95(self):
        act = SyntheticActuator(**self.PARAMS)
        log = generate_backdrive_log(act)
        fit = fit_friction(log)
        oracle = np.percentile(np.abs(log.torque), 95)
        assert fit.backdrive_p95 == pytest.approx(oracle, rel=1e-12)


class TestDetectPlateau:
    def test_constant_hold_below_limit(self):
        act = SyntheticActuator(thermal_resistance=0.5, copper_loss_coeff=0.02,
                                thermal_time_constant=60.0)
        duty = DutyProfile(duration_s=40.0, temp_limit_c=100.0)
        # steady rise 0.02 * 48^2 * 0.5 = 23.04 C; max slope 0.384 C/s < 0.5
        log = generate_thermal_duty_log(act, duty, 48.0)
        result = detect_plateau(log)
        assert result.torque_cont == pytest.approx(48.0, rel=1e-9)
        assert result.time_to_derate is None

    def test_all_zero_log(self):
        result = detect_plateau(make_log(duration=15.0))
        assert result.torque_cont == 0.0
        assert result.time_to_derate is None

    def test_window_too_long(self):
        with pytest.raises(WindowTooLong):
            detect_plateau(make_log(duration=5.0), plateau_window=10.0)

    def test_derating_duty_matches_window_scan_oracle(self):
        act = SyntheticActuator(thermal_resistance=0.5, copper_loss_coeff=0.02,
                                thermal_time_constant=20.0)
        duty = DutyProfile(duration_s=60.0, temp_limit_c=60.0)
        log = generate_thermal_duty_log(act, duty, 70.0)  # will derate
        result = detect_plateau(log, plateau_window=5.0)

        # exhaustive window scan at log resolution, coded independently
        w = int(5.0 * FS)
        best = 0.0
        t, tq = np.asarray(log.t), np.asarray(log.torque)
        tm, tg = np.asarray(log.temp_motor), np.asarray(log.temp_gear)
        for start in range(0, len(t) - w + 1, 250):
            sl = slice(start, start + w)
            sm = np.polyfit(t[sl], tm[sl], 1)[0]
            sg = np.polyfit(t[sl], tg[sl], 1)[0]
            if sm < 0.5 and sg < 0.5:
                best = max(best, float(np.mean(tq[sl])))
        assert result.torque_cont >= best - 1e-9
        assert result.torque_cont == pytest.approx(best, rel=0.01)

    def test_steady_trend_criterion(self):
        from hlaskit.signals import steady_trend

        act = SyntheticActuator(thermal_resistance=0.5,
                                copper_loss_coeff=0.02,
                                thermal_time_constant=10.0)
        duty = DutyProfile(duration_s=150.0, temp_limit_c=150.0)
        settled = generate_thermal_duty_log(act, duty, 40.0)
        ok, slope = steady_trend(settled)
        assert ok and slope < 0.1

        early = DutyProfile(duration_s=12.0, temp_limit_c=150.0)
        rising = generate_thermal_duty_log(act, early, 40.0)
        ok, slope = steady_trend(rising, window_s=12.0)
        assert not ok and slope > 0.1

    def test_hotter_samples_never_increase_plateau(self):
        act = SyntheticActuator(thermal_time_constant=30.0)
        duty = DutyProfile(duration_s=30.0, temp_limit_c=120.0)
        log = generate_thermal_duty_log(act, duty, 40.0)
        base = detect_plateau(log, plateau_window=5.0)
        hotter = make_log(
            duration=log.duration, t=log.t, torque=log.torque,
            torque_cmd=log.torque_cmd,
            temp_motor=np.asarray(log.temp_motor) + np.linspace(
                0, 40, len(log.t)),
            temp_gear=log.temp_gear,
        )
        result = detect_plateau(hotter, plateau_window=5.0)
        assert result.torque_cont <= base.torque_cont + 1e-12


class TestEfficiency:
    def band(self, weights_powers, q=10.0):
        n = len(weights_powers)
        return OperatingBand("j", "t", [q] * n, range(1, n + 1), [1.0] * n,
                             weights_powers)

    def test_uniform_field_returns_constant(self):
        band = self.band([240, 288, 340, 363, 360])
        eff = {s.point: 0.781 for s in band.samples}
        assert task_weighted_efficiency(band, eff) == pytest.approx(0.781)

    def test_weighted_mean(self):
        band = self.band([100, 300])  # weights 0.25 / 0.75
        eff = {band.samples[0].point: 0.6, band.samples[1].point: 0.8}
        assert task_weighted_efficiency(band, eff) == pytest.approx(0.75)

    def test_missing_sample(self):
        band = self.band([100, 300])
        with pytest.raises(SampleMismatch):
            task_weighted_efficiency(band, {band.samples[0].point: 0.6})

    def test_degenerate_band(self):
        band = self.band([-5, -10])
        with pytest.raises(DegenerateBand):
            task_weighted_efficiency(band, {})

    def test_nonpositive_power_samples_need_no_measurement(self):
        band = self.band([100, -50, 300])
        eff = {band.samples[0].point: 0.6, band.samples[2].point: 0.8}
        assert task_weighted_efficiency(band, eff) == pytest.approx(0.75)


class TestSanityChecks:
    def test_power_balance_pass_by_construction(self):
        n = 3001
        t = np.arange(n) / FS
        omega = 5 * np.sin(2 * np.pi * 0.5 * t)
        torque = 10 * np.sin(2 * np.pi * 0.5 * t)
        p_mech = np.maximum(torque * omega, 0)
        log = make_log(duration=3.0, t=t, omega=omega, torque=torque,
                       v_bus=np.full(n, 48.0), i_bus=p_mech / 0.8 / 48.0)
        result = power_balance_check(log)
        assert result.passed
        assert result.mech_energy_j == pytest.approx(
            0.8 * result.elec_energy_j, rel=1e-6)

    def test_power_balance_violation(self):
        n = 3001
        t = np.arange(n) / FS
        log = make_log(duration=3.0, t=t, omega=np.full(n, 5.0),
                       torque=np.full(n, 10.0),
                       v_bus=np.full(n, 48.0), i_bus=np.full(n, 0.5))
        assert not power_balance_check(log).passed

    def test_idle_log_passes(self):
        result = power_balance_check(make_log(duration=2.0,
                                              i_bus=np.zeros(2001)))
        assert result.passed
        assert result.mech_energy_j == 0.0

    def test_loaded_bandwidth(self):
        assert loaded_bandwidth_check(8, 12)
        assert not loaded_bandwidth_check(12, 8)
        assert loaded_bandwidth_check(10, 10)
