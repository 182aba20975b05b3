import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from hlaskit.bands import OperatingBand
from hlaskit.config_io import MASK_COLUMNS, fmt, mask_csv
from hlaskit.envelope import (
    CapabilityMap,
    hee_coverage,
    margin_report,
    power_margin,
    rate_margin,
    torque_margin,
)
from hlaskit.errors import (
    DegenerateBand,
    DuplicateKey,
    InvalidRecord,
    SampleMismatch,
    ZeroDemand,
    ZeroDemandWarning,
    ZeroRequirement,
)

# ankle push-off during walking: the fully worked rate sweep
PUSH_OFF_OMEGA = [8, 9, 10, 11, 12]
PUSH_OFF_T_HUM = [30, 32, 34, 33, 30]
PUSH_OFF_P_HUM = [240, 288, 340, 363, 360]
PUSH_OFF_T_ROB = [36, 35, 34, 30, 27]


def make_band(omegas, torques, powers, q=10.0):
    return OperatingBand("ankle", "Walk", [q] * len(omegas), omegas,
                         torques, powers)


def make_map(omegas, torques, q=10.0):
    return CapabilityMap("ankle", "plantarflexion", [q] * len(omegas),
                         omegas, torques, "ambient 25 C still air, soaked")


@pytest.fixture
def push_off_band():
    return make_band(PUSH_OFF_OMEGA, PUSH_OFF_T_HUM, PUSH_OFF_P_HUM)


@pytest.fixture
def push_off_map():
    return make_map(PUSH_OFF_OMEGA, PUSH_OFF_T_ROB)


class TestHeeCoverage:
    def test_push_off_coverage(self, push_off_band, push_off_map):
        result = hee_coverage(push_off_band, push_off_map)
        assert result.coverage == pytest.approx(0.546, abs=1e-3)
        assert result.omega[result.passed].tolist() == [8, 9, 10]

    def test_equality_counts_as_pass(self, push_off_band):
        cap = make_map(PUSH_OFF_OMEGA, PUSH_OFF_T_HUM)
        result = hee_coverage(push_off_band, cap)
        assert result.coverage == 1.0

    def test_headroom_shrinks_pass_set(self, push_off_band, push_off_map):
        # hand oracle with demands scaled by 1.1:
        #   8:  36 >= 33.0 and 288 >= 264.0 -> pass
        #   9:  35 <  35.2                   -> fail
        #   10: 34 <  37.4                   -> fail
        #   11/12: already failing at delta = 0
        result = hee_coverage(push_off_band, push_off_map, 0.10)
        assert result.omega[result.passed].tolist() == [8]
        assert result.coverage == pytest.approx(0.151, abs=1e-3)

    def test_missing_capability_sample(self, push_off_band):
        cap = make_map(PUSH_OFF_OMEGA[:-1], PUSH_OFF_T_ROB[:-1])
        with pytest.raises(SampleMismatch):
            hee_coverage(push_off_band, cap)

    def test_capability_map_indexes_each_point_once(self, push_off_map):
        assert push_off_map.torque_at[(10.0, 12.0)] == 27
        with pytest.raises(DuplicateKey, match="ankle/plantarflexion"):
            make_map([8, 9, 8], [36, 35, 34])

    def test_negative_capability_torque_rejected(self):
        with pytest.raises(InvalidRecord, match="torque -1.0 ") as raised:
            make_map([8, 9, 10], [36, -1.0, 34])
        assert isinstance(raised.value, ValueError)
        assert raised.value.row == 1

    def test_degenerate_band_rejected(self, push_off_map):
        band = make_band(PUSH_OFF_OMEGA, PUSH_OFF_T_HUM,
                         [-1, -2, -3, -4, -5])
        with pytest.raises(DegenerateBand):
            hee_coverage(band, push_off_map)

    def test_negative_delta_rejected(self, push_off_band, push_off_map):
        with pytest.raises(ValueError):
            hee_coverage(push_off_band, push_off_map, -0.1)

    def test_mask_rows_expose_both_conditions(self, push_off_band):
        # torque passes but power fails at omega = 12: T 30 >= 30 but
        # P 360 = 30*12 >= 360 holds exactly; push torque down instead
        cap = make_map(PUSH_OFF_OMEGA, [30, 32, 34, 33, 29])
        result = hee_coverage(push_off_band, cap)
        assert not result.torque_ok[-1] and not result.power_ok[-1]
        assert result.torque_ok[2] and result.power_ok[2] and result.passed[2]


class TestMargins:
    def test_torque_margin_min(self, push_off_band, push_off_map):
        # clipped ratios {1, 1, 1, 30/33, 27/30} -> min = 0.900
        got = torque_margin(push_off_band, push_off_map, "min")
        assert got == pytest.approx(0.900, abs=1e-9)

    def test_torque_margin_quantile(self, push_off_band, push_off_map):
        # sorted {0.900, 0.9090..., 1, 1, 1}; position 0.1*(5-1) = 0.4
        got = torque_margin(push_off_band, push_off_map, "quantile10")
        want = 0.9 + 0.4 * (30 / 33 - 0.9)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.9036, abs=1e-4)

    def test_power_margin_min(self, push_off_band, push_off_map):
        # ratios {1.2, 1.09375, 1.0, 330/363, 0.9} -> clipped min 0.9
        got = power_margin(push_off_band, push_off_map, "min")
        assert got == pytest.approx(0.900, abs=1e-9)

    def test_equal_maps_give_unit_margins(self, push_off_band):
        cap = make_map(PUSH_OFF_OMEGA, PUSH_OFF_T_HUM)
        for method in ("min", "quantile10"):
            assert torque_margin(push_off_band, cap, method) == 1.0
            assert power_margin(push_off_band, cap, method) == 1.0

    def test_doubled_power_clips_to_one(self, push_off_band):
        cap = make_map(PUSH_OFF_OMEGA, [2 * t for t in PUSH_OFF_T_HUM])
        assert power_margin(push_off_band, cap) == 1.0

    def test_single_sample_power_ratio(self):
        band = make_band([10], [20], [200])
        cap = make_map([10], [10])  # P_rob = 100 = 0.5 * P_hum
        assert power_margin(band, cap) == pytest.approx(0.5)

    def test_zero_demand_excluded_with_warning(self):
        band = make_band([5, 10], [0, 20], [0, 200])
        cap = make_map([5, 10], [15, 30])
        with pytest.warns(ZeroDemandWarning):
            got = torque_margin(band, cap)
        assert got == 1.0

    def test_all_zero_demand_raises(self):
        band = make_band([5, 10], [0, 0], [0, 0])
        cap = make_map([5, 10], [15, 30])
        with pytest.warns(ZeroDemandWarning):
            with pytest.raises(ZeroDemand):
                torque_margin(band, cap)

    def test_rate_margin_values(self):
        assert rate_margin(20, 130) == pytest.approx(20 / 130)
        assert rate_margin(12, 12) == 1.0
        assert rate_margin(24, 12) == 1.0

    def test_rate_margin_zero_requirement(self):
        with pytest.raises(ZeroRequirement):
            rate_margin(10, 0)

    def test_margin_report_bundles_all_three(self, push_off_band,
                                             push_off_map):
        rep = margin_report(push_off_band, push_off_map, 14, 12,
                            "quantile10")
        assert rep.method == "quantile10"
        assert rep.rate_margin == 1.0
        assert 0.9 <= rep.torque_margin <= 1.0


# --- property suite ---------------------------------------------------------

@st.composite
def band_and_map(draw, max_samples=36):
    n = draw(st.integers(1, max_samples))
    omegas = sorted(draw(st.lists(
        st.floats(0.5, 20, allow_nan=False), min_size=n, max_size=n,
        unique=True,
    )))
    torques_hum = draw(st.lists(st.floats(1, 100), min_size=n, max_size=n))
    powers = draw(st.lists(st.floats(-50, 500), min_size=n, max_size=n))
    torques_rob = draw(st.lists(st.floats(0, 150), min_size=n, max_size=n))
    band = make_band(omegas, torques_hum, powers)
    cap = make_map(omegas, torques_rob)
    return band, cap


@given(data=band_and_map(), bump=st.floats(0, 50),
       index=st.integers(0, 1_000_000))
@settings(max_examples=200)
def test_coverage_monotone_in_robot_torque(data, bump, index):
    band, cap = data
    if band.degenerate:
        return
    base = hee_coverage(band, cap).coverage
    i = index % len(cap.samples)
    torque = cap.torque_rob.copy()
    torque[i] += bump
    stronger = replace(cap, torque_rob=torque)
    assert hee_coverage(band, stronger).coverage >= base


@given(data=band_and_map(), d1=st.floats(0, 0.5), d2=st.floats(0, 0.5))
@settings(max_examples=200)
def test_coverage_nonincreasing_in_headroom(data, d1, d2):
    band, cap = data
    if band.degenerate:
        return
    lo, hi = sorted((d1, d2))
    assert hee_coverage(band, cap, hi).coverage <= \
        hee_coverage(band, cap, lo).coverage


@given(data=band_and_map(), delta=st.sampled_from([0.0, 0.1]) | st.floats(
    0, 2, allow_nan=False))
@settings(max_examples=300)
def test_coverage_matches_brute_force_bit_exactly(data, delta):
    band, cap = data
    if band.degenerate:
        return
    result = hee_coverage(band, cap, delta)

    # independently coded per-sample mask-and-sum oracle
    lookup = {(s.q, s.omega): s.torque_rob for s in cap.samples}
    scale = 1.0 + delta
    weights, rows = [], []
    for s in band.samples:
        t_rob = lookup[(s.q, s.omega)]
        torque_ok = t_rob >= scale * s.torque_hum
        power_ok = t_rob * s.omega >= scale * s.power_hum
        if torque_ok and power_ok:
            weights.append(s.weight)
        rows.append([s.q, s.omega, s.weight, torque_ok, power_ok,
                     torque_ok and power_ok])
    want = math.fsum(weights) / math.fsum(s.weight for s in band.samples)
    assert result.coverage == want  # bit-exact
    # the mask, cell by cell as fmt formats it, byte for byte
    assert mask_csv(result) == "".join(
        ",".join(fmt(v) for v in row) + "\n" for row in (MASK_COLUMNS, *rows))


@pytest.mark.filterwarnings("ignore::hlaskit.errors.ZeroDemandWarning")
@given(data=band_and_map())
@settings(max_examples=200)
def test_quantile_margin_at_least_min_margin(data):
    band, cap = data
    if all(s.torque_hum <= 0 for s in band.samples):
        return
    assert torque_margin(band, cap, "quantile10") >= \
        torque_margin(band, cap, "min")
    if any(s.power_hum > 0 for s in band.samples):
        assert power_margin(band, cap, "quantile10") >= \
            power_margin(band, cap, "min")


@given(data=band_and_map())
@settings(max_examples=200)
def test_dominating_map_gives_exactly_one(data):
    band, cap = data
    if band.degenerate:
        return
    dominating = replace(cap, torque_rob=[
        max(t_hum, p_hum / s.omega if s.omega > 0 else 0.0, 0.0) + 1.0
        for s, t_hum, p_hum in zip(
            cap.samples,
            (b.torque_hum for b in band.samples),
            (b.power_hum for b in band.samples),
        )
    ])
    assert hee_coverage(band, dominating).coverage == 1.0
