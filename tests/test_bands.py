import math

import pytest
from hypothesis import given, strategies as st

from hlaskit.bands import (
    OperatingBand,
    PhaseTrajectory,
    ReferenceBody,
    build_band_grid,
    normalize_weights,
    phase_to_grid,
    scale_to_absolute,
    torque_from_power,
)
from hlaskit.errors import (
    DuplicateKey,
    EmptyBand,
    EmptyGrid,
    InvalidRange,
    ZeroRate,
)


class TestScaleToAbsolute:
    def test_reference_torque(self):
        torque, _ = scale_to_absolute(ReferenceBody(75, 1.75), 1.5, None)
        assert torque == pytest.approx(112.5)

    def test_reference_power(self):
        _, power = scale_to_absolute(ReferenceBody(75, 1.75), None, 2.5)
        assert power == pytest.approx(187.5)

    def test_unit_mass_identity(self):
        assert scale_to_absolute(ReferenceBody(1, 1.75), 3.2, 4.1) == \
            (pytest.approx(3.2), pytest.approx(4.1))

    @given(mass=st.floats(1, 200), c=st.floats(0.1, 10),
           tq=st.floats(0, 5), pw=st.floats(0, 10))
    def test_linear_in_mass(self, mass, c, tq, pw):
        t1, p1 = scale_to_absolute(ReferenceBody(mass, 1.75), tq, pw)
        t2, p2 = scale_to_absolute(ReferenceBody(c * mass, 1.75), tq, pw)
        assert t2 == pytest.approx(c * t1, rel=1e-12)
        assert p2 == pytest.approx(c * p1, rel=1e-12)

    def test_nonpositive_body_rejected(self):
        with pytest.raises(ValueError):
            ReferenceBody(0, 1.75)


class TestTorqueFromPower:
    def test_push_off_row(self):
        assert torque_from_power(340, 10) == pytest.approx(34)
        assert torque_from_power(288, 9) == pytest.approx(32)

    def test_zero_power(self):
        assert torque_from_power(0, 5) == 0

    def test_zero_rate_refused(self):
        with pytest.raises(ZeroRate):
            torque_from_power(100, 0)

    @given(power=st.floats(0.1, 1000), omega=st.floats(0.1, 50))
    def test_round_trip(self, power, omega):
        torque = torque_from_power(power, omega)
        assert torque * omega == pytest.approx(power, rel=1e-12)


class TestNormalizeWeights:
    def band(self, powers):
        """A band with one sample per power, at distinct points."""
        return OperatingBand("j", "t", [float(i) for i in range(len(powers))],
                             [1.0] * len(powers), [1.0] * len(powers), powers)

    def test_push_off_weights(self):
        powers = [240, 288, 340, 363, 360]
        got = normalize_weights(powers).tolist()
        want = [0.151, 0.181, 0.214, 0.228, 0.226]
        assert got == pytest.approx(want, abs=5e-4)
        assert math.fsum(got) == pytest.approx(1.0, abs=1e-9)
        assert self.band(powers).weight.tolist() == got

    def test_single_sample(self):
        assert normalize_weights([100]).tolist() == [1.0]

    def test_all_nonpositive_gives_degenerate_band(self):
        assert normalize_weights([-50, -10]).tolist() == [0.0, 0.0]
        band = self.band([-50, -10])
        assert [s.weight for s in band.samples] == [0.0, 0.0]
        assert band.degenerate

    def test_repeated_point_rejected(self):
        with pytest.raises(DuplicateKey, match="t/j"):
            OperatingBand("j", "t", [0.0, 0.0], [1.0, 1.0], [1.0, 1.0],
                          [100, 50])

    def test_negative_power_carries_no_weight(self):
        assert normalize_weights([-50, 100]).tolist() == [0.0, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(EmptyBand):
            normalize_weights([])

    @given(
        powers=st.lists(st.floats(-100, 1000), min_size=1, max_size=30)
    )
    def test_sum_to_one_when_positive_power_exists(self, powers):
        weights = normalize_weights(powers).tolist()
        # the per-sample rule, written out: max(p, 0) / total positive
        positive = [max(p, 0.0) for p in powers]
        total = math.fsum(positive)
        assert weights == ([p / total for p in positive] if total > 0
                           else [0.0] * len(powers))
        if any(p > 0 for p in powers):
            assert math.fsum(weights) == pytest.approx(1.0, abs=1e-9)
        else:
            assert math.fsum(weights) == 0.0

    @given(
        powers=st.lists(st.floats(0.1, 1000), min_size=2, max_size=12),
        seed=st.randoms(use_true_random=False),
    )
    def test_permutation_equivariance(self, powers, seed):
        base = dict(zip(powers, normalize_weights(powers).tolist()))
        shuffled = list(powers)
        seed.shuffle(shuffled)
        for p, w in zip(shuffled, normalize_weights(shuffled).tolist()):
            assert w == pytest.approx(base[p], rel=1e-12)


class TestBuildBandGrid:
    def test_rate_sweep(self):
        grid = build_band_grid((10, 10), (8, 12), 1, 5)
        assert grid == [(10, 8), (10, 9), (10, 10), (10, 11), (10, 12)]

    def test_5x5(self):
        grid = build_band_grid((0, 25), (8, 12), 5, 5)
        assert len(grid) == 25
        assert grid[0] == (0, 8)
        assert grid[-1] == (25, 12)

    def test_degenerate_1x1(self):
        assert build_band_grid((3, 7), (1, 2), 1, 1) == [(3, 1)]

    def test_inverted_range_rejected(self):
        with pytest.raises(InvalidRange):
            build_band_grid((10, 0), (0, 1), 2, 2)

    def test_degenerate_range_with_multiple_points_rejected(self):
        with pytest.raises(InvalidRange):
            build_band_grid((5, 5), (0, 1), 3, 2)

    @pytest.mark.parametrize("q_range, omega_range", [
        ((0, 10), (float("nan"), 12)), ((0, float("inf")), (8, 12)),
        ((float("-inf"), 0), (8, 8)),
    ])
    def test_non_finite_range_rejected(self, q_range, omega_range):
        with pytest.raises(InvalidRange, match="not finite"):
            build_band_grid(q_range, omega_range, 2, 1)

    @given(n_q=st.integers(1, 8), n_w=st.integers(1, 8))
    def test_point_count_and_endpoints(self, n_q, n_w):
        grid = build_band_grid((-10, 30), (1, 9), n_q, n_w)
        assert len(grid) == n_q * n_w
        qs = {q for q, _ in grid}
        assert min(qs) == -10
        if n_q > 1:
            assert max(qs) == 30


def sinusoidal_gait(n=200):
    phase = [i / n for i in range(n)]
    q = [12.5 + 12.5 * math.sin(2 * math.pi * p) for p in phase]
    omega = [10 + 2 * math.cos(2 * math.pi * p) for p in phase]
    power = [300 * math.sin(2 * math.pi * p) for p in phase]  # half negative
    return PhaseTrajectory(tuple(phase), tuple(q), tuple(omega), tuple(power))


class TestPhaseToGrid:
    def test_single_sample_lands_in_one_bin(self):
        traj = PhaseTrajectory((0.0,), (4.0,), (9.0,), (120.0,))
        grid = build_band_grid((0, 25), (8, 12), 5, 5)
        band = phase_to_grid(traj, grid)
        weights = [s.weight for s in band.samples]
        assert sum(1 for w in weights if w > 0) == 1
        assert max(weights) == pytest.approx(1.0)

    def test_all_nonpositive_power_is_degenerate(self):
        traj = PhaseTrajectory((0.0, 0.5), (0.0, 5.0), (8.0, 9.0),
                               (-10.0, 0.0))
        band = phase_to_grid(traj, build_band_grid((0, 25), (8, 12), 3, 3))
        assert band.degenerate
        assert all(s.weight == 0 for s in band.samples)

    def test_against_histogram_oracle(self):
        traj = sinusoidal_gait()
        grid = build_band_grid((0, 25), (8, 12), 5, 5)
        band = phase_to_grid(traj, grid)

        # independent oracle: per-sample nearest-bin histogram
        q_span = 25.0
        w_span = 4.0
        hist = {point: 0.0 for point in grid}
        for q, omega, power in zip(traj.q, traj.omega, traj.power):
            if power <= 0:
                continue
            nearest = min(
                grid,
                key=lambda p: ((q - p[0]) / q_span) ** 2
                + ((omega - p[1]) / w_span) ** 2,
            )
            hist[nearest] += power
        total = sum(hist.values())

        for s in band.samples:
            assert s.weight == pytest.approx(hist[(s.q, s.omega)] / total,
                                             rel=1e-9, abs=1e-12)
        assert math.fsum(s.weight for s in band.samples) == pytest.approx(
            1.0, abs=1e-9)

    def test_conserves_positive_power(self):
        traj = sinusoidal_gait(n=357)
        band = phase_to_grid(traj, build_band_grid((0, 25), (8, 12), 4, 6))
        total_in = math.fsum(max(p, 0.0) for p in traj.power)
        total_out = math.fsum(s.power_hum for s in band.samples)
        assert total_out == pytest.approx(total_in, rel=1e-9)

    def test_bilinear_conserves_positive_power(self):
        traj = sinusoidal_gait(n=123)
        band = phase_to_grid(traj, build_band_grid((0, 25), (8, 12), 5, 5),
                             method="bilinear")
        total_in = math.fsum(max(p, 0.0) for p in traj.power)
        total_out = math.fsum(s.power_hum for s in band.samples)
        assert total_out == pytest.approx(total_in, rel=1e-9)

    def test_bin_torque_is_power_weighted_mean(self):
        # two samples, same nearest bin, torques P/omega = 10 and 30
        traj = PhaseTrajectory((0.0, 0.1), (0.0, 0.0), (10.0, 10.0),
                               (100.0, 300.0))
        band = phase_to_grid(traj, [(0.0, 10.0)])
        assert band.samples[0].torque_hum == pytest.approx(
            (100 * 10 + 300 * 30) / 400)

    def test_empty_grid_rejected(self):
        with pytest.raises(EmptyGrid):
            phase_to_grid(sinusoidal_gait(), [])

    def test_strictly_increasing_phase_enforced(self):
        with pytest.raises(ValueError):
            PhaseTrajectory((0.0, 0.0), (0, 0), (1, 1), (1, 1))
