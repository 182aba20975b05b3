import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hlaskit import lsq, signals
from hlaskit.bands import OperatingBand, PointTable
from hlaskit.errors import (
    AliasedFrequency,
    DegenerateBand,
    InsufficientCycles,
    InsufficientExcitation,
    InvalidRecord,
    NotMonotoneWarning,
    RankDeficient,
    SampleMismatch,
    WindowTooLong,
)
from hlaskit.record import fields, replace
from hlaskit.signals import (
    FrfPoint,
    TimeSeriesLog,
    compute_frf,
    detect_plateau,
    find_crossover,
    fit_friction,
    loaded_bandwidth_check,
    power_balance_check,
    steady_trend,
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

    def test_nan_channel_is_refused_not_balanced_to_nan(self):
        # accepted, it gave power_balance_check an elec_energy_j of nan
        v_bus = np.full(10, 48.0)
        v_bus[3] = math.nan
        with pytest.raises(InvalidRecord, match="^v_bus nan is not finite$") \
                as raised:
            make_log(duration=0.009, v_bus=v_bus)
        assert raised.value.row == 3

    def test_first_row_at_fault_names_its_channel(self):
        torque, temp = np.zeros(3001), np.full(3001, 25.0)
        torque[7], temp[5] = math.inf, -math.inf
        with pytest.raises(InvalidRecord, match="^temp_gear -inf ") as raised:
            make_log(torque=torque, temp_gear=temp)
        assert raised.value.row == 5

    def test_unequal_channel_is_named(self):
        with pytest.raises(InvalidRecord, match="^column i_bus has 5 values "
                           "and t 3001: ") as raised:
            make_log(i_bus=np.ones(5))
        assert raised.value.row == 5

    def test_rejects_nan_sample_rate(self):
        with pytest.raises(InvalidRecord, match="sample rate nan Hz"):
            make_log(sample_rate=math.nan)

    def test_float_channels_are_held_not_copied(self):
        t = np.arange(3001) / FS
        log = make_log(t=t, q=[0.0] * 3001)
        assert log.t is t
        assert log.q.dtype == np.float64 and not log.q.any()


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

    def test_projection_matches_the_dot_product_reference(self):
        """The exactly rounded ``fsum`` projection against the ``np.dot``
        projection it replaced, whose summation order is the BLAS
        kernel's: within a few float64 roundings of the sum's size."""
        act = SyntheticActuator(crossover_true=7.0)
        freqs = [1.0, 2.0, 5.0, 10.0, 20.0, 30.0]
        log = generate_sweep_log(act, freqs, 4.0, noise_std=0.02, seed=5)
        for f in freqs:
            cycles = int(float(log.t[-1] - log.t[0]) * f)
            sel = log.t < log.t[0] + cycles / f + 1e-12
            phase = 2.0 * np.pi * f * (log.t[sel] - log.t[0])
            basis = np.cos(phase) - 1j * np.sin(phase)
            want = (np.dot(log.torque[sel], basis)
                    / np.dot(log.torque_cmd[sel], basis))
            got = signals.single_frequency_response(
                log.t, log.torque_cmd, log.torque, f)
            assert abs(got - want) <= 1e-12 * abs(want)

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

    def test_zero_command_is_insufficient_excitation(self):
        with pytest.raises(InsufficientExcitation, match=(
                "^commanded torque has no content at 2.0 Hz$")):
            compute_frf(make_log(duration=3.0), [2.0])


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

    def test_rate_without_acceleration_is_insufficient_excitation(self):
        # both signs, so the Coulomb regressor is not degenerate
        omega = 1e-15 * (-1.0) ** np.arange(2001)
        with pytest.raises(InsufficientExcitation, match=(
                "^no measurable acceleration in the log$")):
            fit_friction(make_log(duration=2.0, omega=omega))

    def test_backdrive_p95(self):
        act = SyntheticActuator(**self.PARAMS)
        log = generate_backdrive_log(act)
        fit = fit_friction(log)
        oracle = np.percentile(np.abs(log.torque), 95)
        assert fit.backdrive_p95 == pytest.approx(oracle, rel=1e-12)


# non-negative finite float64, as ``np.abs`` of a log gives them: zeros,
# subnormals and values near the largest float, drawn often enough to tie
MAGNITUDES = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1e308,
                     1.7976931348623157e308]),
    st.floats(min_value=0.0, max_value=1.7976931348623157e308,
              allow_subnormal=True).map(abs))


@st.composite
def magnitude_arrays(draw):
    """``MAGNITUDES`` mixed with seeded uniform draws over five decades,
    whose mantissas are full enough that rounding differences show."""
    drawn = draw(hnp.arrays(np.float64, st.integers(0, 100),
                            elements=MAGNITUDES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-310, 1.0, 1e300, 1.7e306]))
    n = draw(st.integers(0 if len(drawn) else 1, 200))
    uniform = rng.random(n) * 10.0 ** rng.integers(-3, 3, n) * scale
    values = np.concatenate([drawn, uniform])
    rng.shuffle(values)
    return values


@given(magnitude_arrays())
# 11 values put the 95th percentile half way between the top two, where
# NumPy's ``_lerp`` counts down from the larger: ``a + (b - a) / 2`` is
# one ulp under it here
@example(np.array([0.0] * 9 + [23.936944299295217, 79.63242702872942]))
@settings(max_examples=300)
def test_order_statistics_match_numpy_bit_for_bit(values):
    with np.errstate(over="ignore", invalid="ignore"):
        median = float(np.median(values))
        p95 = float(np.percentile(values, 95))
    assert signals._median(values).hex() == median.hex()
    assert signals._percentile95(values).hex() == p95.hex()
    values[len(values) // 3] = np.nan       # NumPy's median is then NaN
    assert math.isnan(signals._median(values))


def _values(fit) -> list:
    return [getattr(fit, field.name) for field in fields(fit)]


@pytest.mark.parametrize("seed, duration, noise", [
    (0, 10.0, 0.01), (1, 6.001, 0.05), (2, 25.001, 0.2), (3, 10.0, 1.0),
    (4, 5.001, 0.5)])
def test_fit_friction_matches_numpy_order_statistics(seed, duration, noise,
                                                     monkeypatch):
    """All five fields equal, bit for bit, those of the fit that read the
    MAD median from ``np.median`` and ``backdrive_p95`` from
    ``np.percentile``."""
    log = generate_backdrive_log(SyntheticActuator(), duration=duration,
                                 noise_std=noise, seed=seed)
    fit = _values(fit_friction(log))
    monkeypatch.setattr(signals, "_median",
                        lambda values: float(np.median(values)))
    monkeypatch.setattr(signals, "_percentile95",
                        lambda values: float(np.percentile(values, 95)))
    assert [v.hex() for v in fit] == \
        [v.hex() for v in _values(fit_friction(log))]


@st.composite
def regressions(draw):
    """Well-conditioned 2- and 3-column least-squares problems: Gaussian
    columns over six decades of scale, condition number at most 1e3."""
    k = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(k + 1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-3, 3, k)
    y = x @ rng.standard_normal(k) * draw(st.sampled_from([0.0, 1.0])) \
        + rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    sv = np.linalg.svd(x, compute_uv=False)
    assume(sv[-1] * 1e3 >= sv[0])
    return list(x.T.copy()), y, sv


@given(regressions())
@settings(max_examples=200, deadline=None)
def test_lstsq_matches_lapack(problem):
    """Within 1e-10 of ``|y| / sigma_min``, which bounds the solution: a
    backward stable solve of a problem of condition <= 1e3 is good to a
    small multiple of 1e3 rounding units (1.1e-13) of it."""
    columns, y, sv = problem
    ours = lsq.lstsq(columns, y)
    lapack = np.linalg.lstsq(np.column_stack(columns), y, rcond=None)[0]
    scale = float(np.linalg.norm(y)) / sv[-1]
    assert np.max(np.abs(np.subtract(ours, lapack))) <= 1e-10 * scale


@st.composite
def near_collinear(draw):
    """Three columns with singular values 1, s and ``ratio`` times the
    largest, ``ratio`` a decade or more from the 1e-12 refusal threshold."""
    n = draw(st.integers(3, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ratio = 10.0 ** draw(st.one_of(st.floats(-17, -13), st.floats(-11, -3)))
    u = np.linalg.qr(rng.standard_normal((n, 3)))[0]
    v = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    s = np.array([1.0, 10.0 ** rng.uniform(-2, 0), ratio])
    x = (u * s) @ v.T * 10.0 ** rng.uniform(-3, 3)
    return list(x.T.copy())


@given(near_collinear())
@settings(max_examples=200, deadline=None)
def test_singular_values_of_the_factor_match_lapack(columns):
    """The factor's singular values are within 1e-13 of the largest of
    LAPACK's, so both refuse the same columns as collinear."""
    r, _ = lsq.factor(columns, np.zeros(len(columns[0])))
    ours = lsq.singular_values(r)
    lapack = np.linalg.svd(np.column_stack(columns), compute_uv=False)
    assert np.max(np.abs(np.subtract(ours, lapack))) <= 1e-13 * lapack[0]
    assert (ours[-1] < 1e-12 * ours[0]) == (lapack[-1] < 1e-12 * lapack[0])


def test_three_rows_with_identical_rate_and_sign_are_collinear():
    """omega = +1, -1, +1 makes the rate and Coulomb regressors equal."""
    log = make_log(duration=0.002, omega=np.array([1.0, -1.0, 1.0]))
    with pytest.raises(RankDeficient, match="numerically collinear"):
        fit_friction(log)


@pytest.mark.parametrize("k", [-531, -300, -1, 1, 64, 531])
def test_fit_friction_scales_with_torque_bit_for_bit(k):
    """Torque times 2**k gives every field times 2**k, exactly, up to
    torques near 1e160 and down to near 1e-160, where the squared residuals
    of an unscaled fit overflow or lose their digits."""
    log = generate_backdrive_log(SyntheticActuator(), duration=4.0,
                                 noise_std=0.05, seed=2)
    scaled = replace(log, torque=np.ldexp(log.torque, k))
    assert [v.hex() for v in _values(fit_friction(scaled))] == \
        [math.ldexp(v, k).hex() for v in _values(fit_friction(log))]


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
        act = SyntheticActuator(thermal_resistance=0.5,
                                copper_loss_coeff=0.02,
                                thermal_time_constant=10.0)
        duty = DutyProfile(duration_s=150.0, temp_limit_c=150.0)
        settled = generate_thermal_duty_log(act, duty, 40.0)
        ok, slope = steady_trend(settled)
        assert ok and slope < 0.1

        # a log shorter than the 60 s window is fitted whole
        early = DutyProfile(duration_s=12.0, temp_limit_c=150.0)
        rising = generate_thermal_duty_log(act, early, 40.0)
        ok, slope = steady_trend(rising)
        assert not ok and slope > 0.1

    def test_steady_trend_does_not_depend_on_the_time_origin(self):
        """Shifting time by 1e6 s moves each sample by at most half an ulp
        of 1e6 (5.8e-11 s); the slope moves by under 1e-9 of itself."""
        act = SyntheticActuator(thermal_resistance=0.5,
                                copper_loss_coeff=0.02,
                                thermal_time_constant=10.0)
        for duration in (12.0, 150.0):
            duty = DutyProfile(duration_s=duration, temp_limit_c=150.0)
            log = generate_thermal_duty_log(act, duty, 40.0)
            shifted = replace(log, t=log.t + 1e6)
            assert steady_trend(shifted)[1] == pytest.approx(
                steady_trend(log)[1], rel=1e-9, abs=0)

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

    def table(self, band, etas):
        """The efficiency ``etas[i]`` at the point of each sample ``i``."""
        rows = list(etas)
        return PointTable(band.q[rows], band.omega[rows], list(etas.values()))

    def test_uniform_field_returns_constant(self):
        band = self.band([240, 288, 340, 363, 360])
        eff = self.table(band, dict.fromkeys(range(5), 0.781))
        assert task_weighted_efficiency(band, eff) == pytest.approx(0.781)

    def test_weighted_mean(self):
        band = self.band([100, 300])  # weights 0.25 / 0.75
        eff = self.table(band, {0: 0.6, 1: 0.8})
        assert task_weighted_efficiency(band, eff) == pytest.approx(0.75)

    def test_missing_sample(self):
        band = self.band([100, 300])
        with pytest.raises(SampleMismatch):
            task_weighted_efficiency(band, self.table(band, {0: 0.6}))

    def test_degenerate_band(self):
        band = self.band([-5, -10])
        with pytest.raises(DegenerateBand):
            task_weighted_efficiency(band, PointTable((), (), ()))

    def test_nonpositive_power_samples_need_no_measurement(self):
        band = self.band([100, -50, 300])
        eff = self.table(band, {0: 0.6, 2: 0.8})
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
