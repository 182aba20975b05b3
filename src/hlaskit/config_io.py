"""Logs, the scoring pipeline and the report bundle.

``load_measurements`` reads each measurement file of a data directory
with its reader (``readers``) and ``build_pairs`` joins them into the
inputs of each joint-task pair; ``verify_prereg_binding`` checks those
files against a registration, ``score_registration`` loads, pairs and
scores them, and ``emit_report`` writes the hashed bundle.  Every file is
read and written through ``tables`` and every registration parsed by
``prereg``.

Timestamps are advisory: the tool verifies that measurement files do not
predate the registration, but it cannot prove provenance.  That is stated
plainly, as ``BINDING_NOTE``, with every binding report.
"""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path

from .atlas import AxisActuationReport, RomInterval, functional_interval
from .bands import OperatingBand, PointTable
from .envelope import CapabilityMap, HeeResult, hee_coverage
from .errors import (
    ConfigIncomplete,
    DataError,
    DuplicateKey,
    InvalidRecord,
)
from .prereg import (
    FEATURE_NAMES,
    BandRef,
    Preregistration,
    WeightScheme,
    _finite,
    canonical_json,
    load_preregistration,
    parse_timestamp,
)
from .readers import (
    read_bands,
    read_bandwidth_file,
    read_capability_map,
    read_dof_file,
    read_efficiency_file,
    read_rom_file,
    read_thermal_file,
)
from .record import record, replace
from .scoring import PairInputs, ScoreBreakdown, hlas
from .signals import CHANNELS, TimeSeriesLog
from .tables import (
    _located,
    _read_columns,
    fmt,
    read_header,
    sha256_hex,
    write_table,
)

LOG_COLUMNS = (
    "t_s", "q_deg", "omega_rad_s", "torque_nm", "torque_cmd_nm",
    "v_bus_v", "i_bus_a", "temp_motor_c", "temp_gear_c",
)


def sha256_file(path: Path) -> str:
    return sha256_hex(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# logs
# ---------------------------------------------------------------------------

def write_log(log: TimeSeriesLog, path: Path) -> str:
    """``write_table`` of ``log``'s channels under ``LOG_COLUMNS``, its
    sample rate, conditions and seed in the comment header."""
    seed = "" if log.seed is None else f"# seed: {log.seed}\n"
    return write_table(
        path, LOG_COLUMNS, [getattr(log, name) for name in CHANNELS],
        f"# sample_rate_hz: {fmt(float(log.sample_rate))}\n"
        f"# conditions: {log.conditions}\n{seed}")


def read_log(path: Path,
             files: dict[Path, str] | None = None) -> TimeSeriesLog:
    """A log in ``write_log``'s format, read by ``_read_columns`` as a file
    with no key columns: every header column holds finite numbers,
    ``LOG_COLUMNS`` among them, and a repeated row breaks the strictly
    increasing time channel.  ``files``, when given, receives under
    ``path`` the sha256 of the bytes parsed."""
    meta, columns, lines = _read_columns(path, (), LOG_COLUMNS, (),
                                         all_float=True, files=files)
    if "sample_rate_hz" not in meta:
        raise DataError(f"log {path} is missing the sample_rate_hz header")
    try:
        return TimeSeriesLog(      # LOG_COLUMNS are its channels, in order
            *(columns[name] for name in LOG_COLUMNS),
            sample_rate=_header_number(meta, "sample_rate_hz", float),
            conditions=meta.get("conditions", ""),
            seed=_header_number(meta, "seed", int) if "seed" in meta else None,
        )
    except InvalidRecord as exc:
        raise _located(path, exc, lines, exc.row) from None


def _header_number(meta: dict[str, str], name: str, kind: type) -> float:
    """The ``# name:`` header as a finite ``kind``; ``InvalidRecord``
    otherwise."""
    number = _finite(meta[name], kind)
    if number is None:
        raise InvalidRecord(f"{name} header {meta[name]!r} is not a finite "
                            f"{kind.__name__}")
    return number


# ---------------------------------------------------------------------------
# registration binding
# ---------------------------------------------------------------------------

# printed with every binding report
BINDING_NOTE = ("timestamps are advisory: ordering is verified, "
                "provenance cannot be proven")


@record
class BindingReport:
    passed: bool
    findings: tuple[str, ...]


def verify_prereg_binding(
    prereg: Preregistration, measurement_files: list[Path], data_dir: Path
) -> BindingReport:
    """Check that measurements postdate the registration, that any
    embedded registration digests match, and that each registered band
    file is at ``data_dir / file``, where ``load_measurements`` reads it,
    with its registered sha256.  The files checked are
    ``measurement_files`` and the registered band files, in sorted order.

    Registered band files are exempt from the ordering check: they are part
    of the declaration (bound by digest instead), so they may predate it.
    Violations are report content, not exceptions: the report is the
    product.  A ``created_utc`` header not in ISO 8601 raises ``DataError``.
    """
    created = parse_timestamp(prereg.created)
    data_dir = Path(data_dir)
    # a band file listed twice is read twice, so both digests are checked
    registered: dict[Path, list[BandRef]] = {}
    for ref in prereg.bands:
        registered.setdefault(data_dir / ref.file, []).append(ref)
    findings = []
    for path in sorted({*map(Path, measurement_files),
                        *filter(Path.is_file, registered)}):
        refs = registered.get(path, [])
        read: dict[Path, str] = {}
        meta, _ = read_header(path, files=read if refs else None)
        findings += (f"{ref.file}: digest {read[path]} does not match "
                     f"registered {ref.sha256}"
                     for ref in refs if read[path] != ref.sha256)
        if "created_utc" in meta:
            try:
                stamp = parse_timestamp(meta["created_utc"])
            except ValueError:
                raise DataError(f"{path}: created_utc header "
                                f"{meta['created_utc']!r} is not an ISO "
                                f"8601 timestamp") from None
        else:
            stamp = datetime.fromtimestamp(path.stat().st_mtime, timezone.utc)
        if not refs and stamp < created:
            findings.append(
                f"{path.name}: measurement timestamp {stamp.isoformat()} "
                f"predates pre-registration {created.isoformat()}"
            )
        declared = meta.get("prereg_sha256")
        if declared is not None and declared != prereg.digest:
            findings.append(
                f"{path.name}: embedded registration digest {declared} does "
                f"not match {prereg.digest}"
            )
    findings += (f"{ref.file}: registered band file not found"
                 for ref in prereg.bands
                 if not (data_dir / ref.file).is_file())
    return BindingReport(passed=not findings, findings=tuple(findings))


# ---------------------------------------------------------------------------
# measurement-set assembly
# ---------------------------------------------------------------------------

@record
class MeasurementSet:
    bands: dict[tuple[str, str], OperatingBand]
    capabilities: dict[str, CapabilityMap]
    robot_rom: dict[str, dict[str, RomInterval]]
    dof_reports: dict[str, list[AxisActuationReport]]
    bandwidth: dict[str, tuple[float, float | None]]
    efficiency: dict[str, PointTable]
    thermal_cont: dict[tuple[str, str], float]
    files: dict[Path, str]      # path -> sha256 of the bytes read, in order


def load_measurements(
    data_dir: Path, prereg: Preregistration,
    read: dict[Path, str] | None = None,
) -> MeasurementSet:
    """Load every measurement file of a data directory, each read once by
    its reader, which hashes the bytes it parses and, for a registered band
    file, checks them against the registration before any value is checked.
    ``files`` lists the digests of ``read`` (files read before, such as the
    registration), then those of the measurement files."""
    data_dir = Path(data_dir)
    sources: dict[tuple[str, str], Path] = {}
    files = dict(read or {})

    def claim(kind: str, subject: str, path: Path) -> None:
        """Refuse a subject that another file of the same kind gave."""
        earlier = sources.setdefault((kind, subject), path)
        if earlier != path:
            raise DuplicateKey(f"{kind} {earlier.name} and {path.name} both "
                               f"describe {subject}")

    bands: dict[tuple[str, str], OperatingBand] = {}
    for ref in prereg.bands:
        path = data_dir / ref.file
        if not path.exists():
            raise DataError(f"registered band file {ref.file} not found")
        for pair, band in read_bands(path, files, ref.sha256).items():
            claim("band files", f"pair {pair}", path)
            bands[pair] = band

    capabilities: dict[str, CapabilityMap] = {}
    for path in sorted(data_dir.glob("capability_*.csv")):
        cap = read_capability_map(path, files)
        claim("capability maps", f"joint {cap.joint!r}", path)
        capabilities[cap.joint] = cap

    def required(name: str, reader):
        path = data_dir / name
        if not path.exists():
            raise DataError(f"measurement file {name} not found in {data_dir}")
        return reader(path, files)

    return MeasurementSet(
        bands=bands, capabilities=capabilities,
        robot_rom=required("rom_robot.csv", read_rom_file),
        dof_reports=required("dof_report.csv", read_dof_file),
        bandwidth=required("bandwidth.csv", read_bandwidth_file),
        efficiency=required("efficiency.csv", read_efficiency_file),
        thermal_cont=required("thermal.csv", read_thermal_file),
        files=files,
    )


def build_pairs(
    prereg: Preregistration, measurements: MeasurementSet
) -> list[PairInputs]:
    """Join registration and measurements into scoring inputs.

    Functional ROM comes from the registration's per-task overrides, falling
    back to the atlas norms for axes without an override.
    """
    pairs = []
    for task, joint in prereg.scheme.pairs():
        key = (task, joint)
        if key in prereg.scheme.score_as_zero:
            continue
        if key not in measurements.bands:
            raise ConfigIncomplete(f"no band for declared pair {key}")
        if joint not in measurements.capabilities:
            raise ConfigIncomplete(f"no capability map for joint {joint!r}")
        if key not in prereg.required_axes:
            raise ConfigIncomplete(f"no required axes declared for {key}")
        axes = prereg.required_axes[key]

        override = prereg.functional_rom.get(key, {})
        functional = {axis: override.get(axis) or functional_interval(
            joint, axis) for axis in axes}
        qualitative = sorted(a for a, iv in functional.items() if iv is None)
        if qualitative:
            raise ConfigIncomplete(
                f"no functional interval for axis {qualitative[0]!r} of "
                f"{key}; the atlas norm is qualitative, declare an override"
            )
        if joint not in measurements.bandwidth:
            raise ConfigIncomplete(f"no bandwidth measurement for {joint!r}")
        if key not in measurements.thermal_cont:
            raise ConfigIncomplete(f"no thermal plateau measurement for {key}")
        if key not in prereg.thermal_req:
            raise ConfigIncomplete(f"no thermal requirement for {key}")
        f_crossover, omega_max = measurements.bandwidth[joint]
        pairs.append(PairInputs(
            task=task, joint=joint, band=measurements.bands[key],
            capability=measurements.capabilities[joint],
            robot_rom=measurements.robot_rom.get(joint, {}),
            functional_rom=functional,
            required_axes=axes,
            dof_reports=measurements.dof_reports.get(joint, []),
            f_crossover_hz=f_crossover,
            efficiency_samples=(measurements.efficiency.get(joint)
                                or PointTable((), (), ())),
            torque_cont_nm=measurements.thermal_cont[key],
            torque_req_nm=prereg.thermal_req[key],
            omega_max_rad_s=omega_max,
            omega_req_rad_s=prereg.rate_req.get(key),
        ))
    return pairs


@record
class ScoredRegistration:
    prereg: Preregistration         # as registered
    scheme: WeightScheme            # as scored, with the updates
    measurements: MeasurementSet
    pairs: list[PairInputs]
    breakdown: ScoreBreakdown


def score_registration(registration: Path, data_dir: Path,
                       **updates) -> ScoredRegistration:
    """Read and parse the registration, replace the scheme fields that
    ``updates`` names (``hlas`` validates them), and load, pair and score
    the measurements, whose ``files`` list the registration first."""
    data = Path(registration).read_bytes()
    prereg = load_preregistration(data)
    scheme = replace(prereg.scheme, **updates)
    measurements = load_measurements(data_dir, prereg, {
        Path(registration): sha256_hex(data)})
    pairs = build_pairs(replace(prereg, scheme=scheme), measurements)
    return ScoredRegistration(prereg, scheme, measurements, pairs,
                              hlas(pairs, scheme))


# ---------------------------------------------------------------------------
# report bundle
# ---------------------------------------------------------------------------

# Whole-robot task trials (gait, lift-and-carry, reach, hand dexterity)
# need an integrated robot and are not computed here; the bundle ships
# header-only stubs in these formats so trial results can be filed
# alongside the joint-level score.
TASK_TRIAL_COLUMNS: dict[str, tuple[str, ...]] = {
    "gait": (
        "trial", "speed_m_s", "ankle_positive_work_j_per_stride",
        "ankle_peak_power_w", "pushoff_rate_rad_s", "knee_peak_moment_nm",
        "hip_peak_moment_nm", "support_torque_duty_fraction", "duty_factor",
        "stride_frequency_hz", "stride_length_m", "stance_efficiency",
        "peak_vertical_grf_n", "missed_steps", "end_temp_motor_c", "derated",
    ),
    "lift": (
        "trial", "box_mass_kg", "knee_torque_duty_fraction",
        "hip_torque_duty_fraction", "peak_knee_torque_nm",
        "peak_hip_torque_nm", "end_continuous_torque_nm", "cop_margin_m",
        "foot_slips", "success_rate",
    ),
    "reach": (
        "trial", "payload_kg", "peak_shoulder_torque_nm",
        "peak_elbow_torque_nm", "rms_position_error_m",
        "p95_position_error_m", "settle_time_s", "overshoot_fraction",
        "mean_mech_power_w", "mean_elec_power_w", "success_rate",
    ),
    "hand": (
        "trial", "grasp_type", "force_bandwidth_hz",
        "min_controllable_force_n", "breakaway_force_n", "hysteresis_n",
        "peak_force_sd_n", "success_rate_at_6hz",
    ),
}


@record
class ReportBundle:
    out_dir: Path
    manifest: Path
    files: dict[Path, str]      # path -> sha256 of the bytes written, in order


MASK_COLUMNS = ("q_deg", "omega_rad_s", "weight", "torque_ok", "power_ok",
                "pass")


def write_file(path: Path, text: str) -> str:
    """Write ``text`` to ``path`` and return the sha256 of the bytes."""
    data = text.encode()
    Path(path).write_bytes(data)
    return sha256_hex(data)


def mask_name(task: str, joint: str) -> str:
    return f"{task}__{joint}.csv"


def mask_table(result: HeeResult) -> tuple[tuple[str, ...], tuple]:
    """``(MASK_COLUMNS, columns)``: one pair's envelope mask as a table for
    ``write_table``, a row per band sample."""
    return MASK_COLUMNS, (result.q, result.omega, result.weight,
                          result.torque_ok, result.power_ok, result.passed)


def emit_report(scored: ScoredRegistration, out_dir: Path) -> ReportBundle:
    """Write the full artifact bundle of ``scored`` with a digest manifest;
    the bundle's ``files`` holds the sha256 of each file as written,
    manifest last.

    The envelope masks (at the scored scheme's headroom) and the ROM
    overlays are built from its pairs, every scored pair but those of
    ``score_as_zero``.
    """
    breakdown, pairs, scheme = scored.breakdown, scored.pairs, scored.scheme
    out_dir = Path(out_dir)
    (out_dir / "hee_masks").mkdir(parents=True, exist_ok=True)
    (out_dir / "task_trials").mkdir(exist_ok=True)
    files: dict[Path, str] = {}     # each file written, with its sha256

    def table(name: str, *content) -> None:
        files[out_dir / name] = write_table(out_dir / name, *content)

    tasks = list(scheme.task_weights)
    table("summary.csv", ("metric", "value"), (
        ["hlas", *(f"task_score:{t}" for t in tasks), "guardrail_flag_count"],
        [breakdown.hlas, *(breakdown.task_scores[t] for t in tasks),
         len(breakdown.guardrail_flags)]))

    table("task_table.csv", ("task", "task_weight", "score"),
          (tasks, [scheme.task_weights[t] for t in tasks],
           [breakdown.task_scores[t] for t in tasks]))

    keys = list(breakdown.feature_vectors)
    pair_tasks, pair_joints = [t for t, _ in keys], [j for _, j in keys]
    pair_scores = [breakdown.joint_task_scores[key] for key in keys]
    table("feature_table.csv", ("task", "joint", *FEATURE_NAMES, "score"),
          (pair_tasks, pair_joints,
           *([getattr(breakdown.feature_vectors[key], n) for key in keys]
             for n in FEATURE_NAMES), pair_scores))

    table("contributions.csv", ("task", "joint", "score", "joint_weight",
                                "task_weight", "contribution"),
          (pair_tasks, pair_joints, pair_scores,
           [scheme.joint_weights[t][j] for t, j in keys],
           [scheme.task_weights[t] for t in pair_tasks],
           [breakdown.contributions[key] for key in keys]))

    flags_path = out_dir / "guardrail_flags.txt"
    files[flags_path] = write_file(
        flags_path, "".join(flag + "\n" for flag in breakdown.guardrail_flags))

    table("rom_overlays.csv",
          ("task", "joint", "axis", "functional_lo_deg", "functional_hi_deg",
           "robot_lo_deg", "robot_hi_deg"),
          # an axis with no robot ROM row has empty robot cells (coverage 0)
          [*zip(*([p.task, p.joint, axis,
                   p.functional_rom[axis].lo, p.functional_rom[axis].hi,
                   *([p.robot_rom[axis].lo, p.robot_rom[axis].hi]
                     if axis in p.robot_rom else ["", ""])]
                  for p in pairs for axis in sorted(p.required_axes)))])

    for p in pairs:
        result = hee_coverage(p.band, p.capability, scheme.headroom_delta)
        table(f"hee_masks/{mask_name(p.task, p.joint)}", *mask_table(result))

    for name, columns in TASK_TRIAL_COLUMNS.items():
        table(f"task_trials/{name}.csv", columns, (), "# whole-robot trial "
              "results; requires an integrated robot and is not computed by "
              "this toolkit\n")

    manifest = out_dir / "manifest.json"
    manifest_content = {
        "artifacts": [
            {"path": str(p.relative_to(out_dir)), "sha256": digest}
            for p, digest in files.items()
        ],
        # FRF tables come from ``hlas analyze frf --out`` and thermal traces
        # are never bundled; both notes stay because the manifest is hashed
        "notes": [
            "frf_tables: none provided (optional)",
            "thermal_traces: none provided (optional)",
            "task_trials: header-only stubs (whole-robot trials are not "
            "computed by this toolkit)",
        ],
    }
    files[manifest] = write_file(manifest, canonical_json(manifest_content))
    return ReportBundle(out_dir, manifest, files)
