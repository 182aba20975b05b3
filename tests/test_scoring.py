import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from hlaskit.errors import (
    ConfigIncomplete,
    EmptyCriticalSet,
    MissingJoint,
    NegativeWeight,
    WeightSumViolation,
    ZeroRequirement,
    ZeroTarget,
)
from hlaskit.scoring import (
    DEFAULT_FEATURE_WEIGHTS,
    FEATURE_NAMES,
    FeatureVector,
    WeightScheme,
    bandwidth_factor,
    efficiency_factor,
    gated_hlas,
    hlas,
    joint_task_score,
    task_score,
    thermal_factor,
)

ALPHA = dict(DEFAULT_FEATURE_WEIGHTS)


class TestFactorNormalizations:
    def test_bandwidth(self):
        assert bandwidth_factor(7, 6) == 1.0      # 1.17 clipped
        assert bandwidth_factor(12, 8) == 1.0
        assert bandwidth_factor(4, 8) == 0.5

    def test_bandwidth_zero_target(self):
        with pytest.raises(ZeroTarget):
            bandwidth_factor(5, 0)

    def test_efficiency(self):
        assert efficiency_factor(0.781, 0.80) == pytest.approx(0.977,
                                                               abs=1e-3)
        assert efficiency_factor(0.80, 0.80) == 1.0
        assert efficiency_factor(0.95, 0.80) == 1.0

    def test_thermal(self):
        assert thermal_factor(48, 50) == pytest.approx(0.96)
        assert thermal_factor(50, 50) == 1.0
        assert thermal_factor(120, 50) == 1.0

    def test_thermal_zero_requirement(self):
        with pytest.raises(ZeroRequirement):
            thermal_factor(10, 0)


class TestJointTaskScore:
    def test_walk_ankle_row(self):
        # published factors are rounded to 3 decimals, so the recomputed
        # score sits within a milli of the published 0.758
        x = FeatureVector(0.880, 1.0, 0.546, 1.0, 0.977, 1.0)
        assert joint_task_score(x, ALPHA) == pytest.approx(0.758, abs=1e-3)

    def test_reach_wrist_row(self):
        x = FeatureVector(0.800, 1.0, 0.375, 1.0, 0.946, 1.0)
        assert joint_task_score(x, ALPHA) == pytest.approx(0.662, abs=5e-4)

    def test_all_ones_is_exactly_one(self):
        assert joint_task_score(FeatureVector(1, 1, 1, 1, 1, 1), ALPHA) == 1.0

    def test_alpha_sum_enforced(self):
        bad = dict(ALPHA, hee=0.4)
        with pytest.raises(WeightSumViolation):
            joint_task_score(FeatureVector(1, 1, 1, 1, 1, 1), bad)

    def test_feature_range_enforced(self):
        with pytest.raises(ValueError):
            FeatureVector(1.2, 1, 1, 1, 1, 1)


class TestTaskScore:
    def test_walk(self):
        scores = {"ankle": 0.758, "knee": 0.620, "hip": 0.529}
        got = task_score(scores, {"ankle": 0.5, "knee": 0.3, "hip": 0.2})
        assert got == pytest.approx(0.671, abs=5e-4)

    def test_stairs(self):
        scores = {"ankle": 0.642, "knee": 0.526, "hip": 0.530}
        got = task_score(scores, {"ankle": 0.1, "knee": 0.5, "hip": 0.4})
        assert got == pytest.approx(0.539, abs=5e-4)

    def test_single_joint_identity(self):
        assert task_score({"knee": 0.71}, {"knee": 1.0}) == 0.71

    def test_missing_joint(self):
        with pytest.raises(MissingJoint):
            task_score({"knee": 0.7}, {"knee": 0.5, "hip": 0.5})

    def test_weight_sum_enforced(self):
        with pytest.raises(WeightSumViolation):
            task_score({"knee": 0.7}, {"knee": 0.9})


class TestSchemeValidation:
    def scheme(self, **overrides):
        base = dict(
            task_weights={"Walk": 0.6, "Reach": 0.4},
            joint_weights={"Walk": {"ankle": 1.0}, "Reach": {"wrist": 1.0}},
        )
        base.update(overrides)
        return WeightScheme(**base)

    def test_valid(self):
        self.scheme().validate()

    def test_task_sum_violation(self):
        with pytest.raises(WeightSumViolation):
            self.scheme(task_weights={"Walk": 0.6, "Reach": 0.3}).validate()

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            self.scheme(
                task_weights={"Walk": 1.2, "Reach": -0.2}).validate()

    def test_joint_tasks_must_match(self):
        with pytest.raises(WeightSumViolation):
            self.scheme(joint_weights={"Walk": {"ankle": 1.0}}).validate()

    def test_unknown_critical_task(self):
        with pytest.raises(WeightSumViolation):
            self.scheme(critical_tasks=frozenset({"Stairs"})).validate()

    def test_feature_names_fixed(self):
        with pytest.raises(WeightSumViolation):
            self.scheme(feature_weights={"rom": 1.0}).validate()


class TestWorkedExample:
    def test_full_breakdown(self, example_pairs, example_scheme):
        breakdown = hlas(example_pairs, example_scheme)
        assert breakdown.hlas == pytest.approx(0.636, abs=5e-3)
        assert breakdown.task_scores["Walk"] == pytest.approx(0.671, abs=2e-3)
        assert breakdown.task_scores["Stairs"] == pytest.approx(0.539,
                                                                abs=2e-3)
        assert breakdown.task_scores["Reach"] == pytest.approx(0.687,
                                                               abs=2e-3)
        assert not breakdown.guardrail_flags

    def test_contributions_match_published_products(self, example_pairs,
                                                    example_scheme):
        breakdown = hlas(example_pairs, example_scheme)
        published = {
            ("Walk", "ankle"): 0.152, ("Walk", "knee"): 0.074,
            ("Walk", "hip"): 0.042, ("Stairs", "ankle"): 0.019,
            ("Stairs", "knee"): 0.079, ("Stairs", "hip"): 0.064,
            ("Reach", "shoulder"): 0.124, ("Reach", "elbow"): 0.062,
            ("Reach", "wrist"): 0.020,
        }
        for key, want in published.items():
            assert breakdown.contributions[key] == pytest.approx(want,
                                                                 abs=1e-3)
        assert math.fsum(breakdown.contributions.values()) == pytest.approx(
            breakdown.hlas, abs=1e-9)

    def test_headroom_sensitivity(self, example_pairs, example_scheme):
        scored = hlas(example_pairs,
                      replace(example_scheme, headroom_delta=0.10))
        assert scored.hlas == pytest.approx(0.515, abs=5e-3)
        # per-task scores under headroom
        assert scored.task_scores["Walk"] == pytest.approx(0.521, abs=2e-3)
        assert scored.task_scores["Stairs"] == pytest.approx(0.486, abs=2e-3)
        assert scored.task_scores["Reach"] == pytest.approx(0.536, abs=2e-3)

    def test_gated_on_stairs(self, example_pairs, example_scheme):
        breakdown = hlas(example_pairs, example_scheme)
        gated = gated_hlas(breakdown, {"Stairs"})
        assert gated == pytest.approx(
            breakdown.task_scores["Stairs"] * breakdown.hlas, rel=1e-12)
        assert gated == pytest.approx(0.343, abs=5e-3)

    def test_rate_margin_switch_leaves_example_unchanged(self, example_pairs,
                                                         example_scheme):
        # every example rate margin clips to 1.0, like the bandwidth slots
        base = hlas(example_pairs, example_scheme)
        swapped = hlas(example_pairs,
                       replace(example_scheme, use_rate_margin=True))
        assert swapped.hlas == pytest.approx(base.hlas, abs=1e-12)

    def test_missing_pair_aborts(self, example_pairs, example_scheme):
        with pytest.raises(ConfigIncomplete):
            hlas(example_pairs[:-1], example_scheme)

    def test_score_as_zero_override(self, example_pairs, example_scheme):
        dropped = example_pairs[:-1]
        missing = example_pairs[-1]
        scheme = replace(
            example_scheme,
            score_as_zero=frozenset({(missing.task, missing.joint)}),
        )
        breakdown = hlas(dropped, scheme)
        assert breakdown.joint_task_scores[(missing.task, missing.joint)] == 0
        assert any("declared_deficit" in f for f in breakdown.guardrail_flags)
        assert breakdown.hlas < 0.636

    def test_guardrail_flags(self, example_pairs, example_scheme):
        scheme = replace(example_scheme, breadth_floor=0.80,
                         task_gate_min=0.60,
                         critical_tasks=frozenset({"Stairs"}))
        breakdown = hlas(example_pairs, scheme)
        assert any("breadth_floor" in f for f in breakdown.guardrail_flags)
        assert any("task_gate" in f for f in breakdown.guardrail_flags)


class TestGatedHlas:
    def test_zero_critical_task_annihilates(self):
        b = _FakeBreakdown({"A": 0.0, "B": 0.9}, 0.45)
        assert gated_hlas(b, {"A"}) == 0.0

    def test_unit_critical_scores_are_identity(self):
        b = _FakeBreakdown({"A": 1.0, "B": 1.0}, 0.8)
        assert gated_hlas(b, {"A", "B"}) == pytest.approx(0.8)

    def test_empty_critical_set(self):
        b = _FakeBreakdown({"A": 0.5}, 0.5)
        with pytest.raises(EmptyCriticalSet):
            gated_hlas(b, set())

    def test_unknown_task(self):
        b = _FakeBreakdown({"A": 0.5}, 0.5)
        with pytest.raises(MissingJoint):
            gated_hlas(b, {"Z"})

    def test_geometric_mean(self):
        b = _FakeBreakdown({"A": 0.25, "B": 1.0}, 0.6)
        assert gated_hlas(b, {"A", "B"}) == pytest.approx(0.5 * 0.6)


class _FakeBreakdown:
    def __init__(self, task_scores, total):
        self.task_scores = task_scores
        self.hlas = total


class TestSensitivityWeights:
    def test_identical_scheme_is_bit_identical(self, example_pairs,
                                               example_scheme):
        first = hlas(example_pairs, example_scheme).hlas
        assert hlas(example_pairs, example_scheme).hlas == first

    def test_all_weight_on_hee(self, example_pairs, example_scheme):
        alpha = {name: 0.0 for name in FEATURE_NAMES}
        alpha["hee"] = 1.0
        scored = hlas(
            example_pairs, replace(example_scheme, feature_weights=alpha)
        ).hlas
        # oracle: weight the published envelope column by u and w
        hee = {
            ("Walk", "ankle"): 0.546, ("Walk", "knee"): 0.284,
            ("Walk", "hip"): 0.087, ("Stairs", "ankle"): 0.290,
            ("Stairs", "knee"): 0.087, ("Stairs", "hip"): 0.085,
            ("Reach", "shoulder"): 0.397, ("Reach", "elbow"): 0.385,
            ("Reach", "wrist"): 0.375,
        }
        w = {"Walk": 0.4, "Stairs": 0.3, "Reach": 0.3}
        u = {"Walk": {"ankle": 0.5, "knee": 0.3, "hip": 0.2},
             "Stairs": {"ankle": 0.1, "knee": 0.5, "hip": 0.4},
             "Reach": {"shoulder": 0.6, "elbow": 0.3, "wrist": 0.1}}
        oracle = sum(
            w[t] * u[t][j] * hee[(t, j)] for t, j in hee
        )
        assert scored == pytest.approx(oracle, abs=1e-3)


# --- randomized aggregation properties (compact versions; the acceptance
# --- suite re-runs these at 1000 cases each) -------------------------------

def random_scheme_and_features(draw):
    n_tasks = draw(st.integers(1, 4))
    tasks = [f"task{i}" for i in range(n_tasks)]
    raw_w = [draw(st.floats(0.05, 1.0)) for _ in tasks]
    total_w = math.fsum(raw_w)
    task_weights = {t: w / total_w for t, w in zip(tasks, raw_w)}
    joint_weights = {}
    features = {}
    for t in tasks:
        n_joints = draw(st.integers(1, 3))
        joints = [f"joint{i}" for i in range(n_joints)]
        raw_u = [draw(st.floats(0.05, 1.0)) for _ in joints]
        total_u = math.fsum(raw_u)
        joint_weights[t] = {j: u / total_u for j, u in zip(joints, raw_u)}
        for j in joints:
            features[(t, j)] = FeatureVector(*[
                draw(st.floats(0.0, 1.0)) for _ in FEATURE_NAMES
            ])
    scheme = WeightScheme(task_weights=task_weights,
                          joint_weights=joint_weights)
    return scheme, features


def score_features(scheme, features):
    """Aggregate pre-computed feature vectors (no measurement plumbing)."""
    joint_scores = {
        key: joint_task_score(x, scheme.feature_weights)
        for key, x in features.items()
    }
    task_scores = {
        t: task_score({j: joint_scores[(t, j)] for j in joints}, joints)
        for t, joints in scheme.joint_weights.items()
    }
    total = math.fsum(
        scheme.task_weights[t] * task_scores[t] for t in task_scores
    ) / math.fsum(scheme.task_weights.values())
    return total


@given(data=st.data())
@settings(max_examples=150)
def test_random_hlas_in_unit_interval(data):
    scheme, features = random_scheme_and_features(data.draw)
    total = score_features(scheme, features)
    assert 0.0 <= total <= 1.0


@given(data=st.data(), bump=st.floats(0.01, 1.0))
@settings(max_examples=150)
def test_random_hlas_monotone_in_features(data, bump):
    scheme, features = random_scheme_and_features(data.draw)
    base = score_features(scheme, features)
    key = sorted(features)[0]
    name = data.draw(st.sampled_from(FEATURE_NAMES))
    x = features[key].as_dict()
    x[name] = min(1.0, x[name] + bump)
    features[key] = FeatureVector(**x)
    assert score_features(scheme, features) >= base - 1e-12


@given(data=st.data())
@settings(max_examples=150)
def test_random_all_ones_equals_one_exactly(data):
    scheme, features = random_scheme_and_features(data.draw)
    ones = {key: FeatureVector(1, 1, 1, 1, 1, 1) for key in features}
    assert score_features(scheme, ones) == 1.0


@given(data=st.data())
@settings(max_examples=100)
def test_permutation_invariance(data):
    scheme, features = random_scheme_and_features(data.draw)
    base = score_features(scheme, features)

    renamed_tasks = {t: f"renamed_{t}" for t in scheme.task_weights}
    permuted = WeightScheme(
        task_weights={renamed_tasks[t]: w
                      for t, w in reversed(scheme.task_weights.items())},
        joint_weights={renamed_tasks[t]: dict(reversed(j.items()))
                       for t, j in scheme.joint_weights.items()},
        feature_weights=scheme.feature_weights,
    )
    relabeled = {(renamed_tasks[t], j): x for (t, j), x in features.items()}
    assert score_features(permuted, relabeled) == pytest.approx(base,
                                                                abs=1e-12)


def test_full_pipeline_all_ones_is_exactly_one():
    """A subject that dominates every demand scores exactly 1.0 end to end."""
    from hlaskit.atlas import AxisActuationReport, AxisSpec, RomInterval
    from hlaskit.bands import OperatingBand
    from hlaskit.envelope import CapabilityMap
    from hlaskit.scoring import PairInputs

    omegas = (2.0, 4.0, 6.0)
    band = OperatingBand("j", "t", [0.0] * 3, omegas,
                         [100.0 / w for w in omegas], [100.0] * 3)
    cap = CapabilityMap("j", "flexion", [0.0] * 3, omegas, [500.0] * 3,
                        "synthetic")
    pair = PairInputs(
        task="t", joint="j", band=band, capability=cap,
        robot_rom={"flexion": RomInterval(-10, 40)},
        functional_rom={"flexion": RomInterval(0, 30)},
        required_axes=frozenset({"flexion"}),
        dof_reports=[AxisActuationReport(AxisSpec("j", "flexion"), True,
                                         0.02)],
        f_crossover_hz=12.0,
        efficiency_samples={s.point: 0.9 for s in band.samples},
        torque_cont_nm=60.0, torque_req_nm=50.0,
    )
    scheme = WeightScheme(
        task_weights={"t": 1.0}, joint_weights={"t": {"j": 1.0}},
        bandwidth_targets={"t": {"j": 8.0}},
        efficiency_targets={"t": {"j": 0.8}},
    )
    breakdown = hlas([pair], scheme)
    assert breakdown.feature_vectors[("t", "j")] == FeatureVector(
        1, 1, 1, 1, 1, 1)
    assert breakdown.hlas == 1.0
