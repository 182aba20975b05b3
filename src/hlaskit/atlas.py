"""Joint degree-of-freedom inventory, ROM norms, and the two workspace factors.

The shipped inventory enumerates every axis of the reference skeleton (106
rotational and 4 translational DoFs bilaterally) together with active,
passive, and functional range-of-motion norms on the ISB-signed axes
(flexion, abduction, internal rotation, supination, dorsiflexion, radial
deviation, and inversion positive).  Functional intervals are the arcs used
in daily activities; they are the default reference for ROM coverage, and a
pre-registration may override them per task because task bands are narrower
than the task-agnostic norms.

Entries that the source norms only describe qualitatively (for example thumb
opposition or scapular "mid-range") are stored without an interval and are
excluded from scoring.
"""

from __future__ import annotations

from math import fsum, isinf

from .errors import DegenerateInterval, EmptyAxisSet, InvalidRecord
from .record import record

ROM_CATEGORIES = ("active", "passive", "functional")

COUPLING_THRESHOLD = 0.10  # max cross-axis coupling, fraction RMS


@record
class RomInterval:
    """Closed angular interval [lo, hi] in degrees on a signed axis."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise DegenerateInterval(
                f"interval [{self.lo}, {self.hi}] must have lo < hi"
            )

    def covered_by(self, other: "RomInterval | None") -> float:
        """Fraction of this interval inside ``other``; 0 for disjoint or
        missing intervals.

        A width past the float range (``[-1e308, 1e308]``, whose width
        overflowed to inf) is measured on halved bounds, whose width fits; a
        width that fits is measured on the bounds as given.
        """
        if other is None:
            return 0.0
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if not lo < hi:
            return 0.0
        if isinf(width := self.hi - self.lo):
            return (hi / 2 - lo / 2) / (self.hi / 2 - self.lo / 2)
        return (hi - lo) / width


@record
class JointDofRecord:
    """DoF bookkeeping for one joint (one side, or midline)."""

    joint: str
    axes: tuple[str, ...]
    rotational_count: int
    translational_count: int

    def __post_init__(self) -> None:
        if self.rotational_count + self.translational_count != len(self.axes):
            raise ValueError(
                f"{self.joint}: rotational+translational counts must equal the "
                f"number of axes"
            )


@record
class AxisActuationReport:
    """Outcome of the independent-actuation check for one axis."""

    axis: str
    implemented: bool
    coupling_rms_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.coupling_rms_fraction < 0:
            raise InvalidRecord(
                f"coupling_rms_fraction {self.coupling_rms_fraction!r} "
                f"must be >= 0")

    def passes(self) -> bool:
        return (self.implemented
                and self.coupling_rms_fraction < COUPLING_THRESHOLD)


def rom_coverage(
    robot_intervals: dict[str, RomInterval],
    functional_intervals: dict[str, RomInterval],
    required_axes: set[str] | frozenset[str],
) -> float:
    """Mean fractional overlap of robot ROM with functional ROM over the
    required axes.

    A required axis with no robot interval contributes zero coverage rather
    than erroring, so partially built robots can still be scored.
    """
    if not required_axes:
        raise EmptyAxisSet("ROM coverage needs at least one required axis")
    fractions = []
    for axis in sorted(required_axes):
        func = functional_intervals.get(axis)
        if func is None:
            raise DegenerateInterval(
                f"no functional interval for required axis {axis!r}"
            )
        fractions.append(func.covered_by(robot_intervals.get(axis)))
    return fsum(fractions) / len(fractions)


def dof_sufficiency(
    reports: list[AxisActuationReport],
    required_axes: set[str] | frozenset[str],
) -> float:
    """Fraction of required axes that are implemented and independently
    actuated (cross-axis coupling below ``COUPLING_THRESHOLD``, 10% RMS)."""
    if not required_axes:
        raise EmptyAxisSet("DoF sufficiency needs at least one required axis")
    by_axis = {r.axis: r for r in reports}
    passing = 0
    for axis in required_axes:
        report = by_axis.get(axis)
        if report is not None and report.passes():
            passing += 1
    return passing / len(required_axes)


# ---------------------------------------------------------------------------
# Shipped inventory and ROM norms
# ---------------------------------------------------------------------------

def _finger_axes(prefix: str, digits: range,
                 parts: list[str]) -> tuple[str, ...]:
    return tuple(f"{prefix}{d}_{part}" for d in digits for part in parts)


def _limb_records(side: str) -> list[JointDofRecord]:
    s = side
    return [
        JointDofRecord(f"{s}_shoulder", (
            "flexion_extension", "abduction_adduction",
            "internal_external_rotation",
        ), 3, 0),
        JointDofRecord(f"{s}_shoulder_girdle", (
            "upward_downward_rotation", "elevation_depression",
            "protraction_retraction",
        ), 1, 2),
        JointDofRecord(f"{s}_elbow", ("flexion_extension",), 1, 0),
        JointDofRecord(f"{s}_forearm", ("pronation_supination",), 1, 0),
        JointDofRecord(f"{s}_wrist", (
            "flexion_extension", "radial_ulnar_deviation", "axial_rotation",
        ), 3, 0),
        JointDofRecord(
            f"{s}_digits_2_5",
            _finger_axes("finger", range(2, 6),
                         ["mcp_flexion", "mcp_abduction", "pip_flexion",
                          "dip_flexion"]),
            16, 0,
        ),
        JointDofRecord(f"{s}_thumb", (
            "cmc_abduction", "cmc_flexion", "mcp_flexion", "ip_flexion",
        ), 4, 0),
        JointDofRecord(f"{s}_hip", (
            "flexion_extension", "abduction_adduction",
            "internal_external_rotation",
        ), 3, 0),
        JointDofRecord(f"{s}_knee", ("flexion_extension",), 1, 0),
        JointDofRecord(f"{s}_ankle", (
            "dorsiflexion_plantarflexion", "inversion_eversion",
            "axial_rotation",
        ), 3, 0),
        JointDofRecord(f"{s}_hallux", ("mtp_flexion_extension", "ip_flexion"),
                       2, 0),
        JointDofRecord(
            f"{s}_toes_2_5",
            _finger_axes("toe", range(2, 6),
                         ["mtp_flexion", "pip_flexion", "dip_flexion"]),
            12, 0,
        ),
    ]


DOF_INVENTORY: tuple[JointDofRecord, ...] = tuple(
    [
        JointDofRecord("neck", ("axial_rotation", "lateral_flexion",
                                "flexion_extension"), 3, 0),
        JointDofRecord("trunk", ("axial_rotation", "lateral_flexion",
                                 "flexion_extension"), 3, 0),
    ]
    + _limb_records("left")
    + _limb_records("right")
)


def _norm(*bounds) -> dict[str, RomInterval | None]:
    """The active, passive and functional intervals of one motion, keyed by
    ``ROM_CATEGORIES``; None where the norm is qualitative."""
    return {kind: None if b is None else RomInterval(*b)
            for kind, b in zip(ROM_CATEGORIES, bounds, strict=True)}


# Keyed by (joint-or-region, motion axis).  Signs: flexion, abduction,
# internal rotation, supination, dorsiflexion, radial deviation, inversion,
# left yaw and left lateral bend positive.  None marks a qualitative norm
# with no numeric interval.
ROM_NORMS: dict[tuple[str, str], dict[str, RomInterval | None]] = {
    ("neck", "axial_rotation"): _norm((-80, 80), (-85, 85), (-60, 60)),
    ("neck", "flexion_extension"): _norm((-70, 50), (-80, 60), (-50, 40)),
    ("neck", "lateral_flexion"): _norm((-40, 40), (-45, 45), (-25, 25)),
    ("shoulder", "flexion_extension"): _norm((-60, 180), (-60, 180), (-40, 120)),
    ("shoulder", "abduction_adduction"): _norm((0, 175), (0, 180), (0, 120)),
    ("shoulder", "internal_external_rotation"):
        _norm((-90, 70), (-95, 75), (-60, 50)),
    ("shoulder_girdle", "upward_downward_rotation"):
        _norm((0, 55), (0, 60), (0, 30)),
    ("shoulder_girdle", "elevation_depression"): _norm(None, None, None),
    ("shoulder_girdle", "protraction_retraction"): _norm(None, None, None),
    ("elbow", "flexion_extension"): _norm((0, 150), (0, 150), (30, 130)),
    ("forearm", "pronation_supination"): _norm((-85, 85), (-90, 90), (-50, 50)),
    ("wrist", "flexion_extension"): _norm((-70, 80), (-80, 90), (-30, 5)),
    ("wrist", "radial_ulnar_deviation"): _norm((-30, 20), (-35, 25), (-15, 10)),
    ("wrist", "axial_rotation"): _norm((-10, 10), (-15, 15), (-5, 5)),
    ("digits_2_5", "mcp_flexion"): _norm((0, 85), (0, 95), (0, 65)),
    ("digits_2_5", "mcp_abduction"): _norm((0, 22.5), (0, 27.5), None),
    ("digits_2_5", "pip_flexion"): _norm((0, 105), (0, 115), (0, 80)),
    ("digits_2_5", "dip_flexion"): _norm((0, 75), (0, 85), (0, 70)),
    ("thumb", "cmc_abduction"): _norm((0, 45), (0, 50), None),
    ("thumb", "cmc_flexion"): _norm((0, 17.5), (0, 22.5), None),
    ("thumb", "mcp_flexion"): _norm((0, 50), (0, 60), None),
    ("thumb", "ip_flexion"): _norm((0, 80), (0, 90), (0, 70)),
    ("hip", "flexion_extension"): _norm((-20, 120), (-30, 125), (-10, 100)),
    ("hip", "abduction_adduction"): _norm((-30, 45), (-35, 50), (-10, 20)),
    ("hip", "internal_external_rotation"):
        _norm((-45, 35), (-50, 40), (-20, 15)),
    ("knee", "flexion_extension"): _norm((0, 135), (0, 140), (0, 110)),
    ("ankle", "dorsiflexion_plantarflexion"):
        _norm((-50, 20), (-55, 25), (-20, 10)),
    ("ankle", "inversion_eversion"): _norm((-7.5, 25), (-12.5, 32.5), (-5, 5)),
    ("ankle", "axial_rotation"): _norm((-10, 10), (-15, 15), (-5, 5)),
    ("hallux", "mtp_flexion_extension"): _norm((-37.5, 80), (-47.5, 95), (45, 60)),
    ("hallux", "ip_flexion"): _norm((0, 37.5), (0, 47.5), None),
    ("toes_2_5", "mtp_flexion"): _norm((0, 40), (0, 50), None),
    ("toes_2_5", "pip_flexion"): _norm((0, 60), (0, 70), None),
    ("toes_2_5", "dip_flexion"): _norm((0, 45), (0, 55), None),
}


def _region_of(joint: str) -> str:
    """Strip the side prefix so 'left_ankle' looks up 'ankle' norms."""
    for prefix in ("left_", "right_"):
        if joint.startswith(prefix):
            return joint[len(prefix):]
    return joint


def _motion_of(axis: str) -> str:
    """Strip per-digit prefixes so 'finger2_mcp_flexion' maps to 'mcp_flexion'."""
    import re

    return re.sub(r"^(finger|toe)\d_", "", axis)


def functional_interval(joint: str, axis: str) -> RomInterval | None:
    """Default functional interval for an axis, or None if the norm is
    qualitative-only or unknown."""
    norms = ROM_NORMS.get((_region_of(joint), _motion_of(axis)))
    if norms is None:
        return None
    return norms["functional"]


def joint_record(joint: str) -> JointDofRecord:
    for rec in DOF_INVENTORY:
        if rec.joint == joint:
            return rec
    raise KeyError(f"joint {joint!r} is not in the atlas")


def describe_joint(joint: str) -> str:
    """Human-readable atlas entry used by ``hlas atlas show``."""
    rec = joint_record(joint)
    lines = [
        f"{rec.joint}: {rec.rotational_count}R + {rec.translational_count}T",
    ]
    region = _region_of(rec.joint)
    for axis in rec.axes:
        norms = ROM_NORMS.get((region, _motion_of(axis)))
        if norms is None:
            lines.append(f"  {axis}: no ROM norms")
            continue
        parts = []
        for cat in ROM_CATEGORIES:
            iv = norms[cat]
            parts.append(
                f"{cat} n/a" if iv is None
                else f"{cat} [{iv.lo:g}, {iv.hi:g}] deg"
            )
        lines.append(f"  {axis}: " + ", ".join(parts))
    return "\n".join(lines)
