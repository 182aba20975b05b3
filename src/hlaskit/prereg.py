"""Pre-registration documents: the weight scheme, its sections and its
digest.

The pre-registration document declares, before any measurement: the task
set and weights, joint sets and weights, feature weights, operating-band
files (with content digests), and the bandwidth/efficiency/thermal targets.
Its canonical serialization is hashed so that any later change to a
weight, target, or band is detectable: JSON with sorted keys, two-space
indents and ASCII escapes, each float written as its shortest ``repr``,
which reads back as the same float.  So the digest names the very values
that are scored.

This module imports nothing from the scorer (``scoring``, ``envelope``),
so a registration is read and checked by code that cannot compute a score.
"""

from __future__ import annotations

import json
from datetime import date, datetime, timezone
from functools import cache
from math import fsum, inf, isfinite
from pathlib import Path

from .atlas import RomInterval
from .errors import (
    DuplicateDeclaration,
    InvalidDeclaration,
    MissingSection,
    NegativeWeight,
    WeightSumViolation,
    ZeroTarget,
)
from .record import field, record
from .tables import _utf8, sha256_hex

MARGIN_METHODS = ("min", "quantile10")

WEIGHT_SUM_TOL = 1e-9

FEATURE_NAMES = ("rom", "dof", "hee", "bandwidth", "efficiency", "thermal")

DEFAULT_FEATURE_WEIGHTS = {
    "rom": 0.10, "dof": 0.10, "hee": 0.50,
    "bandwidth": 0.10, "efficiency": 0.10, "thermal": 0.10,
}


def _check_weights(weights: dict[str, float], label: str) -> float:
    for key, v in weights.items():
        if v < 0:
            raise NegativeWeight(f"{label} weight for {key!r} is negative ({v})")
    try:
        total = fsum(weights.values())
    except OverflowError:
        total = inf
    if not abs(total - 1.0) <= WEIGHT_SUM_TOL:     # a NaN weight too
        raise WeightSumViolation(
            f"{label} weights sum to {total!r}, expected 1 within "
            f"{WEIGHT_SUM_TOL}"
        )
    return total


@record
class WeightScheme:
    """Pre-registered weights, targets, and guardrail parameters.

    All weights must be declared before measurement; the scheme is the
    validated in-memory form of that declaration.
    """

    task_weights: dict[str, float]
    joint_weights: dict[str, dict[str, float]]
    feature_weights: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_FEATURE_WEIGHTS))
    bandwidth_targets: dict[str, dict[str, float]] = field(default_factory=dict)
    efficiency_targets: dict[str, dict[str, float]] = field(default_factory=dict)
    headroom_delta: float = 0.0
    breadth_floor: float | None = None
    critical_tasks: frozenset[str] = frozenset()
    task_gate_min: float | None = None
    margin_method: str = "min"
    use_rate_margin: bool = False
    score_as_zero: frozenset[tuple[str, str]] = frozenset()

    def validate(self) -> None:
        _check_weights(self.task_weights, "task")
        if set(self.joint_weights) != set(self.task_weights):
            raise WeightSumViolation(
                "joint weights must cover exactly the declared tasks"
            )
        for task, joints in self.joint_weights.items():
            _check_weights(joints, f"joint ({task})")
        if set(self.feature_weights) != set(FEATURE_NAMES):
            raise WeightSumViolation(
                f"feature weights must name exactly {FEATURE_NAMES}"
            )
        _check_weights(self.feature_weights, "feature")
        if not self.headroom_delta >= 0:                # NaN too
            raise NegativeWeight("headroom delta must be >= 0")
        for name in ("breadth_floor", "task_gate_min"):     # None: off
            value = getattr(self, name)
            if value is not None and not isfinite(value):
                raise InvalidDeclaration(
                    f"{name} must be finite or None, not {value!r}")
        for table, label in ((self.bandwidth_targets, "bandwidth"),
                             (self.efficiency_targets, "efficiency")):
            for task, joints in table.items():
                for joint, v in joints.items():
                    if not 0 < v < inf:
                        raise ZeroTarget(
                            f"{label} target for ({task}, {joint}) must be "
                            f"positive and finite, not {v!r}"
                        )
        unknown = self.critical_tasks - set(self.task_weights)
        if unknown:
            raise WeightSumViolation(
                f"critical tasks {sorted(unknown)} are not declared tasks"
            )
        undeclared = sorted(self.score_as_zero - set(self.pairs()))
        if undeclared:
            task, joint = undeclared[0]
            raise WeightSumViolation(
                f"score_as_zero pair [{task}, {joint}] is not a declared "
                f"(task, joint) pair"
            )

    def pairs(self) -> list[tuple[str, str]]:
        return [
            (task, joint)
            for task in self.task_weights
            for joint in self.joint_weights[task]
        ]


def parse_timestamp(text: str) -> datetime:
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt


def canonical_json(content) -> str:
    return json.dumps(content, sort_keys=True, indent=2,
                      ensure_ascii=True) + "\n"


def _finite(value, kind: type = float) -> float | None:
    """``kind(value)`` (float or int) when that is a finite number, else
    None."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return number if isfinite(number) else None


@record
class BandRef:
    file: str
    sha256: str


@record
class Preregistration:
    scheme: WeightScheme
    bands: tuple[BandRef, ...]
    thermal_req: dict[tuple[str, str], float]
    required_axes: dict[tuple[str, str], frozenset[str]]
    functional_rom: dict[tuple[str, str], dict[str, RomInterval]]
    rate_req: dict[tuple[str, str], float]
    created: str
    digest: str
    content: dict               # the canonical form that ``digest`` hashes


@cache
def _yaml_reader():
    """The function that reads a registration's YAML text into a document.

    PyYAML is imported, and its loader built, on the first registration
    parse, so a command that reads no registration never loads it.  The
    loader is PyYAML's safe loader, refusing a key given twice in one
    mapping (the plain safe loader keeps the last of them); a ``<<`` merge
    key may still be overridden by the mapping's own keys.
    """
    import yaml

    class _RegistrationLoader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            own = [k for k, _ in node.value
                   if k.tag != "tag:yaml.org,2002:merge"]
            mapping = super().construct_mapping(node, deep)
            first: dict = {}
            for i, k in enumerate(own):
                key = self.constructed_objects[k]
                earlier = first.setdefault(key, i)
                if earlier != i:
                    raise DuplicateDeclaration(
                        f"key {key!r} on line {k.start_mark.line + 1} "
                        f"repeats line {own[earlier].start_mark.line + 1}")
            return mapping

    def read(text: str):
        try:
            return yaml.load(text, Loader=_RegistrationLoader)
        except yaml.YAMLError as exc:
            raise InvalidDeclaration(
                f"pre-registration is not YAML: {exc}") from None

    return read


# Registration shapes: each checker takes a value and the section and entry
# it sits at, and returns the value's canonical form or raises
# ``InvalidDeclaration`` naming that place.

def _checked(ok: bool, value, where: str, shape: str):
    if not ok:
        raise InvalidDeclaration(f"{where}: {value!r} is not {shape}")
    return value


def _number(value, where: str) -> float:
    number = _finite(value)
    _checked(number is not None, value, where, "a finite number")
    return number


def _optional_number(value, where: str) -> float | None:
    return None if value is None else _number(value, where)


def _name(value, where: str) -> str:
    """A task, joint, axis or file name: any YAML scalar, as text."""
    return str(_checked(not isinstance(value, (dict, list, type(None))),
                        value, where, "a name"))


def _keyed(leaf):
    """name -> ``leaf``."""
    return lambda value, where: {
        str(k): leaf(v, f"{where}: {k}") for k, v in _checked(
            isinstance(value, dict), value, where, "a mapping").items()}


def _per_pair(leaf):
    """task -> joint -> ``leaf``, as a table of (task, joint) pairs: a task
    that names no joint is left out."""
    per_joint = _keyed(_keyed(leaf))
    return lambda value, where: {
        t: joints for t, joints in per_joint(value, where).items() if joints}


def _list_of(item, shape: str):
    return lambda value, where: [item(v, where) for v in _checked(
        isinstance(value, list), value, where, shape)]


def _set_of(item, shape: str):
    """A list of ``item`` values, sorted, each once."""
    as_list = _list_of(item, shape)
    return lambda value, where: sorted(set(as_list(value, where)))


def _axes(value, where: str) -> list[str]:
    """A non-empty ``_set_of`` axis names."""
    axes = _set_of(_name, "a list of names")(value, where)
    _checked(bool(axes), value, where, "a non-empty list of names")
    return axes


def _interval(value, where: str) -> list[float]:
    lo, hi = (_number(v, where) for v in _checked(isinstance(value, list)
              and len(value) == 2, value, where, "a [lo, hi] pair"))
    _checked(lo < hi, value, where, "a [lo, hi] pair with lo < hi")
    return [lo, hi]


def _pair(value, where: str) -> tuple[str, str]:
    return tuple(_name(v, where) for v in _checked(isinstance(value, list)
                 and len(value) == 2, value, where, "a [task, joint] pair"))


def _band_ref(value, where: str) -> dict[str, str]:
    """``{file, sha256}``; other keys are not read.  The digest must be YAML
    text: one that YAML reads as a number would lose its leading zeros."""
    _checked(isinstance(value, dict) and {"file", "sha256"} <= value.keys(),
             value, where, "a {file, sha256} mapping")
    file, digest = _name(value["file"], f"{where}: file"), value["sha256"]
    _checked(isinstance(digest, str), digest, f"{where}: {file}: sha256",
             "text; quote the digest")
    return {"file": file, "sha256": digest}


def _margin_method(value, where: str) -> str:
    return _checked(value in MARGIN_METHODS, value, where,
                    f"one of {MARGIN_METHODS}")


def _flag(value, where: str) -> bool:
    return _checked(isinstance(value, bool), value, where, "true or false")


def _timestamp(value, where: str) -> str:
    """ISO 8601 text; a stamp YAML read as a date keeps its ``str()``."""
    try:
        ok = isinstance(value, (str, date)) and bool(parse_timestamp(
            str(value)))
    except ValueError:
        ok = False
    return str(_checked(ok, value, where, "an ISO 8601 timestamp"))


REQUIRED = object()     # absent or null: MissingSection
OMITTED = object()      # absent, null or empty: not in the canonical form

# section -> (shape, the value an absent or null section takes)
SECTIONS = {
    "tasks": (_keyed(_number), REQUIRED),
    "joint_weights": (_keyed(_keyed(_number)), REQUIRED),
    "feature_weights": (_keyed(_number), REQUIRED),
    "bandwidth_targets_hz": (_keyed(_keyed(_number)), REQUIRED),
    "efficiency_targets": (_keyed(_keyed(_number)), REQUIRED),
    "thermal_req_nm": (_per_pair(_number), REQUIRED),
    "required_axes": (_per_pair(_axes), REQUIRED),
    "functional_rom_deg": (_per_pair(_keyed(_interval)), {}),
    "rate_req_rad_s": (_per_pair(_number), OMITTED),
    "headroom_delta": (_number, 0.0),
    "breadth_floor": (_optional_number, None),
    "critical_tasks": (_set_of(_name, "a list of names"), []),
    "task_gate_min": (_optional_number, None),
    "margin_method": (_margin_method, "min"),
    "use_rate_margin": (_flag, False),
    "score_as_zero": (_set_of(_pair, "a list of [task, joint] pairs"), []),
    "bands": (_list_of(_band_ref, "a list of {file, sha256} mappings"),
              REQUIRED),
    "created": (_timestamp, "1970-01-01T00:00:00Z"),
}


def _by_pair(table: dict, f=lambda value: value) -> dict:
    """A task -> joint -> value table keyed by ``(task, joint)``."""
    return {(task, joint): f(value) for task, joints in table.items()
            for joint, value in joints.items()}


def load_preregistration(text: str | bytes) -> Preregistration:
    """Parse and validate a pre-registration document (YAML or JSON text,
    or its UTF-8 bytes).

    Each section of ``SECTIONS`` is checked against its shape; the weight
    scheme and per-pair tables are read from the hashed canonical content.
    """
    if isinstance(text, bytes):
        text = _utf8(text, "pre-registration", InvalidDeclaration)
    doc = _yaml_reader()(text)
    if not isinstance(doc, dict):
        raise MissingSection("pre-registration document is not a mapping")
    content = {}
    for name, (check, default) in SECTIONS.items():
        value = default if doc.get(name) is None else doc[name]
        if value is REQUIRED:
            raise MissingSection(f"missing required section {name!r}")
        if value is not OMITTED:
            value = check(value, name)
            if value or default is not OMITTED:
                content[name] = value

    scheme = WeightScheme(
        task_weights=content["tasks"], joint_weights=content["joint_weights"],
        feature_weights=content["feature_weights"],
        bandwidth_targets=content["bandwidth_targets_hz"],
        efficiency_targets=content["efficiency_targets"],
        headroom_delta=content["headroom_delta"],
        breadth_floor=content["breadth_floor"],
        critical_tasks=frozenset(content["critical_tasks"]),
        task_gate_min=content["task_gate_min"],
        margin_method=content["margin_method"],
        use_rate_margin=content["use_rate_margin"],
        score_as_zero=frozenset(content["score_as_zero"]),
    )
    scheme.validate()
    return Preregistration(
        scheme=scheme,
        bands=tuple(BandRef(**ref) for ref in content["bands"]),
        thermal_req=_by_pair(content["thermal_req_nm"]),
        required_axes=_by_pair(content["required_axes"], frozenset),
        functional_rom=_by_pair(content["functional_rom_deg"], lambda axes: {
            axis: RomInterval(*bounds) for axis, bounds in axes.items()}),
        rate_req=_by_pair(content.get("rate_req_rad_s", {})),
        created=content["created"],
        digest=sha256_hex(canonical_json(content).encode()),
        content=content,
    )


def load_preregistration_file(path: Path) -> Preregistration:
    return load_preregistration(Path(path).read_bytes())
