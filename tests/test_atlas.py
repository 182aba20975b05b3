import pytest
from hypothesis import given, strategies as st

from hlaskit.atlas import (
    DOF_INVENTORY,
    AxisActuationReport,
    AxisSpec,
    RomInterval,
    describe_joint,
    dof_sufficiency,
    functional_interval,
    joint_record,
    rom_coverage,
)
from hlaskit.errors import DegenerateInterval, EmptyAxisSet


def iv(lo, hi):
    return RomInterval(lo, hi)


class TestRomCoverage:
    def test_ankle_walk_overlap(self):
        # functional [0, 25], robot [-5, 22] -> 22/25
        cov = rom_coverage({"pf": iv(-5, 22)}, {"pf": iv(0, 25)}, {"pf"})
        assert cov == pytest.approx(0.88, abs=1e-12)

    def test_wrist_reach_overlap(self):
        cov = rom_coverage({"flex": iv(-12, 12)}, {"flex": iv(-15, 15)},
                           {"flex"})
        assert cov == pytest.approx(0.80, abs=1e-12)

    def test_identical_intervals_give_one(self):
        intervals = {"a": iv(-10, 40), "b": iv(0, 90)}
        assert rom_coverage(intervals, intervals, {"a", "b"}) == 1.0

    def test_missing_robot_interval_scores_zero(self):
        cov = rom_coverage({}, {"a": iv(0, 30)}, {"a"})
        assert cov == 0.0

    def test_disjoint_intervals_score_zero(self):
        cov = rom_coverage({"a": iv(50, 60)}, {"a": iv(0, 30)}, {"a"})
        assert cov == 0.0

    def test_averages_across_axes(self):
        cov = rom_coverage(
            {"a": iv(0, 30), "b": iv(0, 15)},
            {"a": iv(0, 30), "b": iv(0, 30)},
            {"a", "b"},
        )
        assert cov == pytest.approx(0.75)

    def test_empty_axis_set(self):
        with pytest.raises(EmptyAxisSet):
            rom_coverage({}, {}, set())

    def test_missing_functional_interval(self):
        with pytest.raises(DegenerateInterval):
            rom_coverage({"a": iv(0, 10)}, {}, {"a"})

    def test_zero_length_interval_rejected_at_construction(self):
        with pytest.raises(DegenerateInterval):
            iv(10, 10)

    @given(
        lo=st.floats(-50, 50),
        width=st.floats(1, 60),
        grow=st.floats(0, 30),
    )
    def test_monotone_in_robot_interval(self, lo, width, grow):
        functional = {"a": iv(-20, 25)}
        narrow = rom_coverage({"a": iv(lo, lo + width)}, functional, {"a"})
        wide = rom_coverage({"a": iv(lo - grow, lo + width + grow)},
                            functional, {"a"})
        assert wide >= narrow - 1e-12

    @given(shift=st.floats(-1000, 1000))
    def test_offset_invariance(self, shift):
        base = rom_coverage({"a": iv(-5, 22)}, {"a": iv(0, 25)}, {"a"})
        shifted = rom_coverage(
            {"a": iv(-5 + shift, 22 + shift)},
            {"a": iv(0 + shift, 25 + shift)},
            {"a"},
        )
        assert shifted == pytest.approx(base, abs=1e-9)


class TestDofSufficiency:
    def report(self, axis, implemented=True, coupling=0.02):
        return AxisActuationReport(AxisSpec("j", axis), implemented, coupling)

    def test_single_passing_axis(self):
        assert dof_sufficiency([self.report("a")], {"a"}) == 1.0

    def test_fraction_of_passing_axes(self):
        reports = [self.report("a"), self.report("b", coupling=0.01)]
        # axis c required but not reported at all
        assert dof_sufficiency(reports, {"a", "b", "c"}) == pytest.approx(2 / 3)

    def test_coupling_at_threshold_fails(self):
        assert dof_sufficiency([self.report("a", coupling=0.15)], {"a"}) == 0.0
        assert dof_sufficiency([self.report("a", coupling=0.10)], {"a"}) == 0.0

    def test_not_implemented_fails(self):
        assert dof_sufficiency([self.report("a", implemented=False)],
                               {"a"}) == 0.0

    def test_empty_axis_set(self):
        with pytest.raises(EmptyAxisSet):
            dof_sufficiency([], set())

    def test_threshold_is_parameter(self):
        report = self.report("a", coupling=0.15)
        assert dof_sufficiency([report], {"a"}, coupling_threshold=0.2) == 1.0

    @given(
        n_pass=st.integers(0, 6),
        n_fail=st.integers(0, 6),
    )
    def test_returns_k_over_n(self, n_pass, n_fail):
        if n_pass + n_fail == 0:
            return
        reports = [self.report(f"p{i}") for i in range(n_pass)]
        reports += [self.report(f"f{i}", coupling=0.5) for i in range(n_fail)]
        axes = {r.axis.axis for r in reports}
        got = dof_sufficiency(reports, axes)
        assert got == pytest.approx(n_pass / (n_pass + n_fail))
        assert (got == 1.0) == (n_fail == 0)


class TestShippedInventory:
    def test_bilateral_totals(self):
        rot = sum(r.rotational_count for r in DOF_INVENTORY)
        trans = sum(r.translational_count for r in DOF_INVENTORY)
        assert rot == 106
        assert trans == 4

    def test_axis_counts_consistent(self):
        for rec in DOF_INVENTORY:
            assert rec.rotational_count + rec.translational_count == len(rec.axes)

    def test_joint_axis_pairs_unique(self):
        pairs = [(rec.joint, ax.axis) for rec in DOF_INVENTORY
                 for ax in rec.axes]
        assert len(pairs) == len(set(pairs))

    def test_functional_lookup(self):
        ankle = functional_interval("left_ankle", "dorsiflexion_plantarflexion")
        assert ankle is not None
        assert (ankle.lo, ankle.hi) == (-20, 10)

    def test_qualitative_norm_is_unavailable(self):
        assert functional_interval("left_thumb", "cmc_abduction") is None

    def test_functional_subset_of_active_where_both_numeric(self):
        from hlaskit.atlas import ROM_NORMS

        for key, norms in ROM_NORMS.items():
            func, active = norms["functional"], norms["active"]
            if func is None or active is None:
                continue
            assert active.lo <= func.lo and func.hi <= active.hi, key

    def test_describe_and_record(self):
        text = describe_joint("left_wrist")
        assert "3R" in text and "flexion_extension" in text
        with pytest.raises(KeyError):
            joint_record("tail")

