import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hlaskit.bands import (
    OperatingBand,
    PointTable,
    build_band_grid,
    measured_at,
    normalize_weights,
)
from hlaskit.errors import (
    DuplicateKey,
    EmptyBand,
    InvalidRange,
    InvalidRecord,
    SampleMismatch,
)


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


# a small grid of coordinates; -0.0 and 0.0 are one point
GRID = (-0.0, 0.0, 1.5, -2.0, 7.0)


def _dict_join(band, measured, name, quantity, where):
    """The oracle: the measurements as a dict keyed by (q, omega) tuples
    and one lookup per band sample, refusing a repeated point."""
    table = {}
    for q, omega, value in measured:
        if (q, omega) in table:
            raise DuplicateKey(f"{name} repeats a (q, omega) sample")
        table[(q, omega)] = value
    q, omega = band.q, band.omega
    if where is not None:
        q, omega = q[where], omega[where]
    try:
        return [table[p] for p in zip(q.tolist(), omega.tolist())]
    except KeyError as missing:
        q_at, omega_at = missing.args[0]
        raise SampleMismatch(
            f"no {quantity} measurement at (q={q_at} deg, omega={omega_at} "
            f"rad/s) for {band.task}/{band.joint}; measurements are never "
            f"interpolated") from None


@st.composite
def joins(draw):
    """``(band points, measured (q, omega, value) rows, where)``: the rows
    measure some band points, maybe with the sign of a zero flipped, and
    maybe other points, some of them repeated."""
    point = st.tuples(st.sampled_from(GRID), st.sampled_from(GRID))
    band_points = draw(st.lists(point, min_size=1, max_size=8, unique=True))
    points = [*draw(st.lists(st.sampled_from(band_points), unique=True)),
              *draw(st.lists(point, max_size=3))]
    value = st.floats(-1e6, 1e6, allow_nan=False)
    measured = [(*(draw(st.sampled_from([0.0, -0.0])) if x == 0 else x
                   for x in p), draw(value))
                for p in draw(st.permutations(points))]
    where = draw(st.none() | st.lists(st.booleans(), min_size=len(band_points),
                                      max_size=len(band_points)))
    return band_points, measured, where


class TestPointTable:
    @settings(max_examples=300, deadline=None)
    @given(joins())
    def test_join_matches_the_dict_oracle(self, case):
        band_points, measured, where = case
        ones = [1.0] * len(band_points)
        band = OperatingBand("j", "t", *zip(*band_points), ones, ones)
        where = None if where is None else np.array(where)
        columns = list(zip(*measured)) or [(), (), ()]
        try:
            want = _dict_join(band, measured, "map m", "torque", where)
        except (DuplicateKey, SampleMismatch) as exc:
            with pytest.raises(type(exc)) as raised:
                measured_at(band, PointTable(*columns, "map m"), "torque",
                            where)
            assert str(raised.value) == str(exc)
            return
        table = PointTable(*columns, "map m")
        assert len(table) == len(measured)
        got = measured_at(band, table, "torque", where)
        assert repr(got.tolist()) == repr(want)     # -0.0 is not 0.0


class TestFiniteColumns:
    """The public types refuse what the file readers refuse: a NaN or
    infinite value, or columns of unequal length, naming row and column."""

    def test_infinite_power_is_refused_not_weighted_to_nan(self):
        # accepted, it weighed [nan, 0.0] and scored HEE coverage nan
        with pytest.raises(InvalidRecord, match="^power_hum inf is not "
                           "finite$") as raised:
            OperatingBand("j", "t", [0.0, 1.0], [1.0, 1.0], [1.0, 1.0],
                          [math.inf, 1.0])
        assert raised.value.row == 0

    def test_fault_in_the_first_row_of_the_first_column_is_found(self):
        with pytest.raises(InvalidRecord, match="^q inf is not finite$") \
                as raised:
            OperatingBand("j", "t", [math.inf, 1.0], [1.0, 1.0], [1.0, 1.0],
                          [1.0, 1.0])
        assert raised.value.row == 0

    def test_nan_torque_is_refused_not_scored(self):
        # accepted, a NaN demand failed no comparison and scored 0.5
        from hlaskit.envelope import CapabilityMap
        with pytest.raises(InvalidRecord, match="^torque_hum nan ") as raised:
            OperatingBand("j", "t", [0.0, 1.0], [1.0, 1.0], [math.nan, 100.0],
                          [1.0, 1.0])
        assert raised.value.row == 0
        with pytest.raises(InvalidRecord, match="^torque_rob -inf ") \
                as raised:
            CapabilityMap("j", "a", [0.0, 1.0], [1.0, 1.0],
                          [5.0, -math.inf], "bench")
        assert raised.value.row == 1

    def test_point_table_refuses_a_nan_point(self):
        with pytest.raises(InvalidRecord, match="^q nan ") as raised:
            PointTable([0.0, math.nan], [1.0, 2.0], [0.5, 0.5])
        assert raised.value.row == 1

    def test_first_row_at_fault_then_first_column(self):
        with pytest.raises(InvalidRecord, match="^omega inf ") as raised:
            OperatingBand("j", "t", [0.0, 1.0, 2.0], [1.0, math.inf, 1.0],
                          [1.0, 1.0, math.nan], [1.0, math.nan, 1.0])
        assert raised.value.row == 1

    @pytest.mark.parametrize("column", ["q", "omega", "torque_hum",
                                        "power_hum"])
    def test_every_band_column_is_checked(self, column):
        columns = dict(q=[0.0, 1.0], omega=[1.0, 1.0], torque_hum=[1.0, 1.0],
                       power_hum=[1.0, 1.0])
        columns[column] = [columns[column][0], math.nan]
        with pytest.raises(InvalidRecord, match=f"^{column} nan is not "
                           f"finite$") as raised:
            OperatingBand("j", "t", **columns)
        assert raised.value.row == 1

    @pytest.mark.parametrize("make, column", [
        (lambda: PointTable([0.0, 1.0], [1.0, 2.0], [0.5]), "value"),
        (lambda: OperatingBand("j", "t", [0.0, 1.0], [1.0], [1.0, 1.0],
                               [1.0, 1.0]), "omega"),
    ], ids=["point table", "band"])
    def test_unequal_lengths_name_the_short_column(self, make, column):
        with pytest.raises(InvalidRecord, match=f"^column {column} has 1 "
                           f"values and q 2: ") as raised:
            make()
        assert raised.value.row == 1
