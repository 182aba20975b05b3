"""Every record class of the package: frozen, checked again by ``replace``,
compared and hashed by its fields (the four column records equal only
themselves), strict about its arguments, and pickled whole."""

import copy
import importlib
import math
import pickle
import pkgutil
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

import hlaskit
from hlaskit.atlas import (
    DOF_INVENTORY,
    AxisActuationReport,
    JointDofRecord,
    RomInterval,
)
from hlaskit.bands import OperatingBand
from hlaskit.config_io import BindingReport, ReportBundle
from hlaskit.envelope import (
    CapabilityMap,
    HeeResult,
    MarginReport,
    hee_coverage,
)
from hlaskit.errors import (
    DegenerateInterval,
    InvalidFeature,
    InvalidRecord,
    PlantParameter,
    TemperatureLimit,
)
from hlaskit.example import ExampleRun
from hlaskit.prereg import DEFAULT_FEATURE_WEIGHTS, WeightScheme
from hlaskit.record import fields, replace
from hlaskit.signals import (
    CrossoverResult,
    FrfPoint,
    FrictionFit,
    PlateauResult,
    PowerBalanceResult,
    TimeSeriesLog,
)
from hlaskit.synthetic import (
    DutyProfile,
    SyntheticActuator,
    generate_backdrive_log,
)

RECORDS = sorted(
    {cls for info in pkgutil.iter_modules(hlaskit.__path__)
     for cls in vars(importlib.import_module(f"hlaskit.{info.name}")).values()
     if isinstance(cls, type) and "__record_fields__" in vars(cls)},
    key=lambda cls: cls.__name__)
COLUMN_RECORDS = {OperatingBand, CapabilityMap, HeeResult, TimeSeriesLog}
records = pytest.mark.parametrize("cls", RECORDS,
                                  ids=[cls.__name__ for cls in RECORDS])


@pytest.fixture(scope="session")
def instances(example_inputs):
    """A record of each class, most of them from the scored example."""
    scored = example_inputs
    pair = scored.pairs[0]
    made = [
        scored, scored.prereg, scored.scheme, scored.prereg.bands[0],
        scored.measurements, scored.breakdown, pair,
        next(iter(scored.breakdown.feature_vectors.values())),
        pair.band, pair.band.samples[0], pair.capability,
        pair.capability.samples[0], hee_coverage(pair.band, pair.capability),
        next(iter(pair.functional_rom.values())), pair.dof_reports[0],
        DOF_INVENTORY[0], BindingReport(True, ()),
        ReportBundle(Path("out"), Path("out/manifest.json"), {}),
        MarginReport(0.1, 0.2, 0.3, "min"), ExampleRun(scored, 0.5, 0.6),
        generate_backdrive_log(SyntheticActuator(), duration=6.0),
        FrfPoint(1.0, 0.9, -10.0), CrossoverResult(10.0, 60.0),
        FrictionFit(0.05, 0.8, 1.2, 2.0, 0.01),
        PlateauResult(30.0, None, 80.0, 60.0),
        PowerBalanceResult(True, 1.0, 2.0), SyntheticActuator(), DutyProfile(),
    ]
    return {type(record): record for record in made}


def _values(record) -> list:
    """The values of the fields that ``__init__`` takes, in order."""
    return [getattr(record, f.name) for f in fields(record) if f.init]


def _same(a, b) -> bool:
    """Equal in type and value, down through containers and the attributes
    of objects (a column record's too), and arrays element by element."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(map(_same, a.values(), b.values()))
    if hasattr(a, "__dict__"):
        return _same(vars(a), vars(b))
    return a == b


def test_every_record_class_has_an_instance(instances):
    assert len(RECORDS) == 28
    assert set(instances) == set(RECORDS)


@records
def test_fields_can_be_neither_assigned_nor_deleted(cls, instances):
    record = instances[cls]
    for name in [f.name for f in fields(cls)] + ["other"]:
        with pytest.raises(FrozenInstanceError, match=name):
            setattr(record, name, None)
        with pytest.raises(FrozenInstanceError, match=name):
            delattr(record, name)


@records
def test_equality_and_hash(cls, instances):
    """A value record equals, and hashes as, a record of the same field
    values, and differs from one whose fields differ; a column record
    equals only itself and hashes by identity."""
    record = instances[cls]
    twin = replace(record)
    assert twin is not record
    assert all(map(_same, _values(twin), _values(record)))
    assert record == record and record != object()
    if cls in COLUMN_RECORDS:
        assert twin != record
        assert hash(record) == object.__hash__(record)
        return
    assert twin == record
    changed = copy.copy(record)
    vars(changed)[fields(cls)[0].name] = object()
    assert changed != record
    try:
        expected = hash(tuple(_values(record)))
    except TypeError:                   # a dict or list field
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == expected


@records
def test_missing_unknown_or_repeated_arguments_are_refused(cls, instances):
    values = _values(instances[cls])
    first = fields(cls)[0].name
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*values, bogus=1)
    with pytest.raises(TypeError, match=f"multiple values for argument "
                                        f"'{first}'"):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError, match="arguments but"):
        cls(*values, values[0])
    required = [f.name for f in fields(cls) if f.init
                and f.default_factory is None and not hasattr(cls, f.name)]
    if required:
        with pytest.raises(TypeError, match=f"missing argument "
                                            f"'{required[-1]}'"):
            cls(*values[:len(required) - 1])


@records
def test_pickle_round_trip_keeps_every_field(cls, instances):
    record = instances[cls]
    back = pickle.loads(pickle.dumps(record))
    assert back is not record
    assert _same(back, record)         # the derived fields too


@pytest.mark.parametrize("make, changes, error", [
    (DutyProfile, {"temp_limit_c": 20.0}, TemperatureLimit),
    (SyntheticActuator, {"stall_torque": -1.0}, PlantParameter),
    (lambda: RomInterval(0.0, 1.0), {"hi": -1.0}, DegenerateInterval),
    (lambda: AxisActuationReport("x", True), {"coupling_rms_fraction": -1.0},
     InvalidRecord),
    (lambda: JointDofRecord("knee", ("flexion",), 1, 0),
     {"rotational_count": 2}, ValueError),
    (lambda: FrfPoint(1.0, 0.9, 0.0), {"magnitude": -1.0}, ValueError),
    (lambda: generate_backdrive_log(SyntheticActuator(), duration=6.0),
     {"sample_rate": 10.0}, InvalidRecord),
], ids=["DutyProfile", "SyntheticActuator", "RomInterval",
        "AxisActuationReport", "JointDofRecord", "FrfPoint", "TimeSeriesLog"])
def test_replace_checks_the_new_record(make, changes, error):
    with pytest.raises(error):
        replace(make(), **changes)


def test_replace_checks_and_derives_again(example_inputs):
    """``replace`` runs ``__post_init__`` on the new record: its checks,
    and the derived fields, which follow the new columns."""
    pair = example_inputs.pairs[0]
    with pytest.raises(InvalidRecord, match="torque_req_nm"):
        replace(pair, torque_req_nm=math.nan)
    feature = next(iter(example_inputs.breakdown.feature_vectors.values()))
    with pytest.raises(InvalidFeature, match="hee"):
        replace(feature, hee=1.5)
    with pytest.raises(InvalidRecord, match="conditions"):
        replace(pair.capability, conditions=" ")
    band = pair.band
    moved = replace(band, q=band.q + 1.0)
    assert np.array_equal(moved.points.real, band.q + 1.0)
    assert np.array_equal(moved.weight, band.weight)


def test_weight_schemes_do_not_share_default_dicts():
    a, b = (WeightScheme({"Walk": 1.0}, {"Walk": {"ankle": 1.0}})
            for _ in range(2))
    for name in ("feature_weights", "bandwidth_targets",
                 "efficiency_targets"):
        assert getattr(a, name) is not getattr(b, name)
    assert a.feature_weights == DEFAULT_FEATURE_WEIGHTS
    assert a.feature_weights is not DEFAULT_FEATURE_WEIGHTS


def test_repr_names_the_fields_that_init_takes(instances):
    assert repr(RomInterval(0.0, 1.5)) == "RomInterval(lo=0.0, hi=1.5)"
    band = instances[OperatingBand]
    assert repr(band).startswith("OperatingBand(joint=")
    assert "weight=" not in repr(band) and "points=" not in repr(band)
