import math
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from hlaskit import tables
from hlaskit.bands import OperatingBand, measured_at
from hlaskit.config_io import (
    LOG_COLUMNS,
    emit_report,
    load_measurements,
    mask_name,
    read_log,
    sha256_file,
    verify_prereg_binding,
    write_log,
)
from hlaskit.errors import (
    DataError,
    DuplicateKey,
    InvalidRecord,
    MissingSection,
    WeightSumViolation,
)
from hlaskit.example import example_data_dir
from hlaskit.prereg import (
    BandRef,
    canonical_json,
    load_preregistration,
    load_preregistration_file,
)
from hlaskit.readers import (
    read_bands,
    read_capability_map,
    read_efficiency_file,
    read_thermal_file,
    write_capability_map,
)
from hlaskit.record import replace
from hlaskit.signals import TimeSeriesLog
from hlaskit.synthetic import SyntheticActuator, generate_backdrive_log
from hlaskit.tables import (
    _file_blocks,
    _read_columns,
    _regular_columns,
    fmt,
    read_header,
    sha256_hex,
    table_blocks,
    write_table,
)


@pytest.fixture
def prereg_text(example_dir):
    return (example_dir / "prereg.yaml").read_text()


class TestPreregistration:
    def test_example_loads_and_validates(self, prereg_text):
        prereg = load_preregistration(prereg_text)
        assert prereg.scheme.task_weights["Walk"] == 0.4
        assert prereg.scheme.joint_weights["Reach"]["shoulder"] == 0.6
        assert len(prereg.bands) == 1

    def test_example_digest_is_pinned(self, prereg_text):
        # a change to the canonical form changes every registration's digest
        prereg = load_preregistration(prereg_text)
        assert prereg.digest == ("02f66d72ec08c71605b7a717ab9666f5"
                                 "17bc148a6342c78b06609bf0671e55b9")
        assert sha256_hex(canonical_json(prereg.content).encode()) == \
            prereg.digest

    def test_digest_stable_across_reserialization(self, prereg_text):
        first = load_preregistration(prereg_text)
        second = load_preregistration(canonical_json(first.content))
        assert first.digest == second.digest

    def test_canonical_form_is_fixed_point(self, prereg_text):
        once = canonical_json(load_preregistration(prereg_text).content)
        twice = canonical_json(load_preregistration(once).content)
        assert once == twice

    def test_digest_sensitive_to_any_value_change(self, prereg_text):
        base = load_preregistration(prereg_text).digest
        doc = yaml.safe_load(prereg_text)
        doc["tasks"]["Walk"] = 0.41
        doc["tasks"]["Stairs"] = 0.29
        changed = load_preregistration(yaml.safe_dump(doc)).digest
        assert changed != base

    @pytest.mark.parametrize("old, new", [
        ("knee: 50, hip: 75}", "knee: 50.000000000004, hip: 75}"),
        ("  Walk: 0.4\n", "  Walk: 0.40000000000001\n"),
    ], ids=["thermal target", "task weight"])
    def test_digest_sensitive_past_the_12th_significant_digit(
            self, prereg_text, old, new):
        """Floats were rounded to 12 significant digits before hashing, so
        each pair here shared one digest but scored its own values."""
        assert prereg_text.count(old) == 1
        registrations = [load_preregistration(text) for text in (
            prereg_text, prereg_text.replace(old, new))]
        assert registrations[0].content != registrations[1].content
        assert registrations[0].digest != registrations[1].digest

    def test_digest_sensitive_to_band_digest_change(self, prereg_text):
        doc = yaml.safe_load(prereg_text)
        base = load_preregistration(prereg_text).digest
        doc["bands"][0]["sha256"] = "0" * 64
        assert load_preregistration(yaml.safe_dump(doc)).digest != base

    def test_weight_sum_violation_names_the_sum(self, prereg_text):
        doc = yaml.safe_load(prereg_text)
        doc["tasks"] = {"Walk": 0.4, "Stairs": 0.3, "Reach": 0.2}
        with pytest.raises(WeightSumViolation, match="task"):
            load_preregistration(yaml.safe_dump(doc))

    def test_missing_section_named(self, prereg_text):
        doc = yaml.safe_load(prereg_text)
        del doc["efficiency_targets"]
        with pytest.raises(MissingSection, match="efficiency_targets"):
            load_preregistration(yaml.safe_dump(doc))

    def test_missing_bands_section(self, prereg_text):
        doc = yaml.safe_load(prereg_text)
        del doc["bands"]
        with pytest.raises(MissingSection, match="bands"):
            load_preregistration(yaml.safe_dump(doc))

    def test_merge_keys_may_be_overridden(self, prereg_text):
        # a key repeated in one mapping is refused (tests/test_cli.py), but
        # a YAML merge key stays a way to share values and override some
        walk = "  Walk: {ankle: 30, knee: 50, hip: 75}\n"
        merged = prereg_text.replace(
            "thermal_req_nm:\n" + walk,
            "walk_req: &walk {ankle: 99, knee: 50, hip: 75}\n"
            "thermal_req_nm:\n  Walk: {<<: *walk, ankle: 30}\n")
        assert merged != prereg_text
        assert load_preregistration(merged).digest == \
            load_preregistration(prereg_text).digest


class TestBinding:
    def test_compliant_set_passes(self, example_dir):
        prereg = load_preregistration_file(example_dir / "prereg.yaml")
        files = sorted(example_dir.glob("*.csv"))
        report = verify_prereg_binding(prereg, files, example_dir)
        assert report.passed, report.findings

    def test_backdated_file_flagged(self, example_dir, tmp_path):
        prereg = load_preregistration_file(example_dir / "prereg.yaml")
        stale = tmp_path / "capability_ankle.csv"
        text = (example_dir / "capability_ankle.csv").read_text()
        stale.write_text(text.replace(
            "# created_utc: 2026-08-05T10:00:00Z",
            "# created_utc: 2026-07-01T00:00:00Z",
        ))
        report = verify_prereg_binding(prereg, [stale], tmp_path)
        assert not report.passed
        assert any("predates" in f and "capability_ankle" in f
                   for f in report.findings)

    def test_digest_mismatch_flagged(self, example_dir, tmp_path):
        prereg = load_preregistration_file(example_dir / "prereg.yaml")
        tagged = tmp_path / "bandwidth.csv"
        tagged.write_text(
            f"# created_utc: 2026-08-05T14:00:00Z\n"
            f"# prereg_sha256: {'f' * 64}\n"
            + (example_dir / "bandwidth.csv").read_text()
        )
        report = verify_prereg_binding(prereg, [tagged], tmp_path)
        assert not report.passed
        assert any("f" * 64 in f and prereg.digest in f
                   for f in report.findings)

    def test_matching_digest_passes(self, example_dir, tmp_path):
        prereg = load_preregistration_file(example_dir / "prereg.yaml")
        tagged = tmp_path / "bandwidth.csv"
        tagged.write_text(
            f"# created_utc: 2026-08-05T14:00:00Z\n"
            f"# prereg_sha256: {prereg.digest}\n"
            + (example_dir / "bandwidth.csv").read_text()
        )
        assert verify_prereg_binding(
            prereg, [example_dir / "bands.csv", tagged], example_dir).passed

    @pytest.mark.parametrize("band_file", ["matching", "column added",
                                           "missing", "not ASCII, matching"])
    def test_registered_band_file_is_bound_by_its_digest(
            self, band_file, example_dir, tmp_path, monkeypatch):
        """A registered band file may predate the registration, as its
        sha256 binds it instead; one that is altered or absent fails the
        binding, as ``hlas score`` refuses it.  A file that is not ASCII
        is hashed from the one full read of its header's fallback path,
        not from the blocks read before its first block that is not."""
        prereg = load_preregistration_file(example_dir / "prereg.yaml")
        for f in example_dir.glob("*.csv"):
            shutil.copy(f, tmp_path / f.name)
        bands = tmp_path / "bands.csv"
        if band_file == "column added":
            bands.write_text("".join(
                line if line.startswith("#") else line[:-1] + ",1\n"
                for line in bands.read_text().splitlines(True)))
        elif band_file == "missing":
            bands.unlink()
        elif band_file == "not ASCII, matching":
            bands.write_text("# note: r\u00e9glage\n" + bands.read_text())
            monkeypatch.setattr(tables, "_BLOCK", 64)
            prereg = replace(prereg, bands=(
                BandRef("bands.csv", sha256_file(bands)),))
        report = verify_prereg_binding(prereg, sorted(tmp_path.glob("*.csv")),
                                       tmp_path)
        digest = sha256_file(bands) if bands.exists() else None
        assert report.findings == {
            "matching": (),
            "not ASCII, matching": (),
            "column added": (f"bands.csv: digest {digest} does not match "
                             f"registered {prereg.bands[0].sha256}",),
            "missing": ("bands.csv: registered band file not found",),
        }[band_file]
        assert report.passed == band_file.endswith("matching")


class TestMeasurementLoading:
    def test_band_digest_verified(self, example_dir, tmp_path):
        for f in example_dir.glob("*.csv"):
            shutil.copy(f, tmp_path / f.name)
        shutil.copy(example_dir / "prereg.yaml", tmp_path / "prereg.yaml")
        bands = tmp_path / "bands.csv"
        bands.write_text(bands.read_text().replace("36", "37"))
        prereg = load_preregistration_file(tmp_path / "prereg.yaml")
        with pytest.raises(DataError, match="digest"):
            load_measurements(tmp_path, prereg)

    @pytest.mark.parametrize("defect", ["repeated key", "ragged row"])
    def test_band_digest_is_checked_before_the_rows(self, defect,
                                                    example_dir, tmp_path):
        """A registered band file that is both altered and malformed reports
        the digest mismatch, not its malformed row."""
        for f in example_dir.glob("*.csv"):
            shutil.copy(f, tmp_path / f.name)
        prereg = load_preregistration_file(example_dir / "prereg.yaml")
        bands = tmp_path / "bands.csv"
        lines = bands.read_text().splitlines()
        row = lines[-1]
        lines.append(row if defect == "repeated key" else row + ",1")
        bands.write_text("\n".join(lines) + "\n")
        with pytest.raises(DuplicateKey if defect == "repeated key"
                           else DataError, match="line"):
            read_bands(bands)
        with pytest.raises(DataError) as raised:
            load_measurements(tmp_path, prereg)
        assert str(raised.value) == (
            f"{bands}: digest {sha256_file(bands)} does not match registered "
            f"{prereg.bands[0].sha256}")

    def test_missing_measurement_file(self, example_dir, tmp_path):
        for f in example_dir.glob("*.csv"):
            shutil.copy(f, tmp_path / f.name)
        (tmp_path / "thermal.csv").unlink()
        prereg = load_preregistration_file(example_dir / "prereg.yaml")
        with pytest.raises(DataError, match="thermal.csv"):
            load_measurements(tmp_path, prereg)

    def test_duplicate_capability_maps_rejected(self, example_dir, tmp_path):
        for f in example_dir.glob("*.csv"):
            shutil.copy(f, tmp_path / f.name)
        knee = read_capability_map(example_dir / "capability_knee.csv")
        half = replace(knee, torque_rob=knee.torque_rob / 2)
        write_capability_map(half, tmp_path / "capability_knee_half.csv")
        prereg = load_preregistration_file(example_dir / "prereg.yaml")
        with pytest.raises(DataError, match=r"capability_knee\.csv and "
                           r"capability_knee_half\.csv.*'knee'"):
            load_measurements(tmp_path, prereg)

    def test_pair_given_by_two_band_files_rejected(self, example_dir,
                                                    tmp_path):
        for f in example_dir.glob("*.csv"):
            shutil.copy(f, tmp_path / f.name)
        lines = (example_dir / "bands.csv").read_text().splitlines(True)
        extra = tmp_path / "bands_extra.csv"
        extra.write_text("".join(lines[:4]))   # header and one Walk/ankle row
        prereg = load_preregistration_file(example_dir / "prereg.yaml")
        prereg = replace(prereg, bands=(
            *prereg.bands, BandRef("bands_extra.csv", sha256_file(extra))))
        with pytest.raises(DuplicateKey, match=r"bands\.csv and "
                           r"bands_extra\.csv.*'Walk', 'ankle'"):
            load_measurements(tmp_path, prereg)

    def test_capability_conditions_required(self, tmp_path):
        path = tmp_path / "capability_x.csv"
        path.write_text(
            "joint,axis,q_deg,omega_rad_s,torque_nm\nx,flex,0,1,10\n"
        )
        with pytest.raises(ValueError, match="conditions"):
            read_capability_map(path)

    @pytest.mark.parametrize("reader, header", [
        (read_bands, "task,joint,q_deg,omega_rad_s,torque_hum_nm,power_hum_w"),
        (read_capability_map, "joint,axis,q_deg,omega_rad_s,torque_nm")])
    def test_file_of_no_data_rows_says_so(self, reader, header, tmp_path):
        path = tmp_path / "header_only.csv"
        path.write_text(f"# conditions: rig\n{header}\n")
        with pytest.raises(DataError, match=f"file {path} has no data rows$"):
            reader(path)

    def test_missing_column_names_file_and_columns(self, tmp_path):
        path = tmp_path / "bands.csv"
        path.write_text("task,joint,q_deg,omega_rad_s,torque_hum_nm\n"
                        "Walk,ankle,10,8,30\n")
        with pytest.raises(DataError, match=r"bands\.csv.*power_hum_w"):
            read_bands(path)


class TestFileRoundTrips:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.floats(allow_nan=False, allow_infinity=False).map("{:.6e}".format),
        st.integers(-10**30, 10**30).map(str),
    ), min_size=1, max_size=20))
    def test_numeric_cells_parse_exactly_like_float(self, cells):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "thermal.csv"
            path.write_text("task,joint,torque_cont_nm\n" + "".join(
                f"t{i},knee,{cell}\n" for i, cell in enumerate(cells)))
            got = read_thermal_file(path)
        assert [got[(f"t{i}", "knee")].hex() for i in range(len(cells))] \
            == [float(cell).hex() for cell in cells]

    def test_capability_map_round_trip(self, tmp_path):
        path = example_data_dir() / "capability_wrist.csv"
        cap = read_capability_map(path)
        out = tmp_path / "copy.csv"
        write_capability_map(cap, out)
        again = read_capability_map(out)
        assert (again.joint, again.axis, again.conditions) \
            == (cap.joint, cap.axis, cap.conditions)
        for name in ("q", "omega", "torque_rob"):
            assert np.array_equal(getattr(again, name), getattr(cap, name))

    def test_band_weights_normalized_at_load(self, example_dir):
        bands = read_bands(example_dir / "bands.csv")
        for band in bands.values():
            assert band.total_weight == pytest.approx(1.0, abs=1e-9)

    def test_log_round_trip_bit_identical(self, tmp_path):
        log = generate_backdrive_log(SyntheticActuator(), duration=2.0,
                                     seed=5)
        path = tmp_path / "log.csv"
        write_log(log, path)
        again = read_log(path)
        for name in ("t", "q", "omega", "torque", "torque_cmd", "v_bus",
                     "i_bus", "temp_motor", "temp_gear"):
            assert np.array_equal(getattr(again, name), getattr(log, name))
        assert again.sample_rate == log.sample_rate
        assert again.seed == 5
        out2 = tmp_path / "log2.csv"
        write_log(again, out2)
        assert out2.read_bytes() == path.read_bytes()

    def test_two_reads_of_one_log_compare_by_identity(self, tmp_path):
        """A log compares by identity, as a band or a map does: a generated
        value ``==`` compared the channel arrays and raised NumPy's "truth
        value of an array is ambiguous"."""
        path = tmp_path / "log.csv"
        write_log(generate_backdrive_log(SyntheticActuator(), duration=1.0),
                  path)
        first, second = read_log(path), read_log(path)
        assert first == first
        assert first != second
        assert first != replace(first, t=first.t.copy())
        assert len({first, second}) == 2


# each measurement reader: (reader, text columns, float columns, key)
READERS = {
    "band": (read_bands, ("task", "joint"),
             ("q_deg", "omega_rad_s", "torque_hum_nm", "power_hum_w"),
             ("task", "joint", "q_deg", "omega_rad_s")),
    "capability": (read_capability_map, ("joint", "axis"),
                   ("q_deg", "omega_rad_s", "torque_nm"),
                   ("q_deg", "omega_rad_s")),
    "efficiency": (read_efficiency_file, ("joint",),
                   ("q_deg", "omega_rad_s", "eta"),
                   ("joint", "q_deg", "omega_rad_s")),
}
# these keep a text regular; every other one makes it irregular, and
# "column twice" is refused
REGULAR_TEXTS = (None, "repeat", "crlf")
IRREGULARITIES = (*REGULAR_TEXTS, "comment", "blank", "quoted", "ragged",
                  "non-ascii", "hash", "text cell", "nan cell",
                  "column twice")
POINTS = (0.0, 10.0, 2.5, -7.0)


def _spellings(x: float) -> list[str]:
    """Ways to write ``x`` that parse to it (``0`` also as ``-0.0``)."""
    out = [repr(x), f"{x:.3e}"]
    if x == int(x):
        out.append(str(int(x)))
    if x == 0:
        out.append("-0.0")
    return out


@st.composite
def measurement_texts(draw):
    """``(kind, irregularity, text)``: a band, capability or efficiency
    file, regular or with one irregularity."""
    kind = draw(st.sampled_from(sorted(READERS)))
    _, text_columns, float_columns, key = READERS[kind]
    names = {"task": ("Walk", "Stairs"), "joint": ("ankle", "knee"),
             "axis": ("flexion",)}
    if kind == "capability":
        names["joint"] = ("knee",)      # one joint and axis per map
    keys = draw(st.lists(st.tuples(
        *(st.sampled_from(names[c]) for c in text_columns),
        st.sampled_from(POINTS), st.sampled_from(POINTS)),
        min_size=1, max_size=8, unique=True))
    value = st.floats(0, 1e6, allow_nan=False, allow_infinity=False)
    if kind == "efficiency":        # an eta above 1 is refused
        value = st.floats(0, 1) | value
    rows = [[*point[:-2], *(draw(st.sampled_from(_spellings(x)))
                            for x in point[-2:]),
             *(draw(st.sampled_from(_spellings(draw(value))))
               for _ in float_columns[2:])] for point in keys]
    irregularity = draw(st.sampled_from(IRREGULARITIES))
    row = draw(st.integers(0, len(rows) - 1))
    at = draw(st.integers(0, len(rows)))
    column = len(text_columns) + draw(st.integers(0, len(float_columns) - 1))
    header = [*text_columns, *float_columns]
    if irregularity == "repeat":        # keys given again, maybe respelled
        q = len(text_columns)
        for source in draw(st.lists(st.sampled_from(rows), min_size=1,
                                    max_size=3)):
            rows.insert(draw(st.integers(0, len(rows))), [
                *source[:q], *(draw(st.sampled_from(_spellings(float(cell))))
                               for cell in source[q:q + 2]),
                *source[q + 2:]])
    elif irregularity in ("non-ascii", "hash"):  # rename one text value
        old = rows[row][0]
        new = "Knöchel" if irregularity == "non-ascii" else "j#1"
        rows = [[new if cell == old else cell for cell in r] for r in rows]
    elif irregularity == "quoted":
        cell = draw(st.integers(0, len(rows[row]) - 1))
        rows[row][cell] = f'"{rows[row][cell]}"'
    elif irregularity == "ragged":
        rows[row] = rows[row][:-1] if draw(st.booleans()) \
            else [*rows[row], "1"]
    elif irregularity in ("text cell", "nan cell"):
        rows[row][column] = "abc" if irregularity == "text cell" \
            else draw(st.sampled_from(["nan", "inf", "-inf"]))
    elif irregularity == "column twice":
        twice = draw(st.integers(0, len(header) - 1))
        place = draw(st.integers(0, len(header)))
        header.insert(place, header[twice])
        rows = [[*r[:place], r[twice], *r[place:]] for r in rows]
    preamble = draw(st.lists(st.sampled_from(
        ["# created_utc: 2026-09-01T00:00:00Z", "", "  ", "# free text",
         "  # note: x"]), max_size=3))
    if kind == "capability":
        preamble.insert(0, "# conditions: rig at 25 C")
    lines = [*preamble, ",".join(header), *map(",".join, rows)]
    if irregularity in ("comment", "blank"):
        lines.insert(len(preamble) + 1 + at, "# late: 1"
                     if irregularity == "comment" else draw(
                         st.sampled_from(["", "  "])))
    newline = "\r\n" if irregularity == "crlf" else "\n"
    # a blank last line needs the line break that ends it
    end = newline if irregularity == "blank" else draw(
        st.sampled_from(["", newline]))
    return kind, irregularity, newline.join(lines) + end


@st.composite
def one_column_texts(draw):
    """``("column", irregularity, text)``: a table of one column, with
    blank lines among its data lines ("blank") or none (None)."""
    lines = ["name", *draw(st.lists(st.sampled_from(
        ["x", "1.5", "-0.0", " y ", "a b"]), max_size=6))]
    blanks = draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=3))
    for blank in blanks:
        lines.insert(draw(st.integers(1, len(lines))), blank)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    # a blank last line needs the line break that ends it
    end = newline if blanks else draw(st.sampled_from(["", newline]))
    return "column", "blank" if blanks else None, newline.join(lines) + end


def _refuse_repeated_header(path):
    """Raise the ``DataError`` of a header line that names a column twice,
    naming that line and the first name repeated."""
    number, header = next(
        (number, line) for number, line in enumerate(
            path.read_text().splitlines(), 1)
        if line.strip() and not line.strip().startswith("#"))
    names = header.split(",")
    twice = [name for i, name in enumerate(names) if name in names[:i]]
    if twice:
        raise DataError(f"{path}: line {number}: the header names column "
                        f"{twice[0]!r} twice")


def _read_rows(path):
    """``(meta, header, rows)`` of the table at ``path`` as the library
    reads it (``_read_columns``), every cell as text."""
    meta, columns, _ = _read_columns(path, (), (), ())
    return meta, list(columns), list(map(list, zip(*columns.values())))


def _whole_table(path, required_columns=()):
    """``(meta, header, rows)`` of ``path`` parsed by ``csv`` from its whole
    text (``tables._table``), not a block or a column at a time."""
    return tables._table(path, path.read_bytes().decode(),
                         required_columns)[:3]


def _oracle(path, text_columns, float_columns, key):
    """``_read_columns`` of ``path`` rebuilt from ``_whole_table`` rows and
    ``float``, raising what the per-cell path raises."""
    _refuse_repeated_header(path)
    meta, header, rows = _whole_table(path, (*text_columns, *float_columns))
    lines = [number for number, line in enumerate(
        path.read_text().splitlines(), 1)
        if line.strip() and not line.strip().startswith("#")][1:]
    index = {name: i for i, name in enumerate(header)}
    columns = {c: [row[index[c]] for row in rows] for c in text_columns}
    columns.update((c, []) for c in float_columns)
    for row, line in zip(rows, lines):
        for c in float_columns:
            cell = row[index[c]]
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"{path}: line {line}: {c} {cell!r} is not "
                                f"a number") from None
            if not math.isfinite(value):
                raise DataError(f"{path}: line {line}: {c} {cell!r} is not "
                                f"finite")
            columns[c].append(value)
    first = {}
    for i, point in enumerate(zip(*(columns[c] for c in key))):
        earlier = first.setdefault(point, i)
        if earlier != i:
            raise DuplicateKey(f"{path}: line {lines[i]}: "
                               f"({', '.join(key)}) = {point!r} repeats "
                               f"line {lines[earlier]}")
    return meta, columns, lines


# None and these keep a log regular; every other one makes it irregular
REGULAR_LOGS = (None, "repeat", "reordered", "extra number", "no rate",
                "bad seed", "crlf")
LOG_IRREGULARITIES = (*REGULAR_LOGS, "comment", "blank", "quoted", "ragged",
                      "extra text", "text cell", "nan cell", "column twice",
                      "missing column")
CHANNELS = ("t", "q", "omega", "torque", "torque_cmd", "v_bus", "i_bus",
            "temp_motor", "temp_gear")       # the fields of LOG_COLUMNS


@st.composite
def log_texts(draw):
    """``(irregularity, text)``: a log, regular or with one irregularity."""
    value = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    rows = [[draw(st.sampled_from(_spellings(i / 1000))),
             *(draw(st.sampled_from(_spellings(draw(value))))
               for _ in LOG_COLUMNS[1:])]
            for i in range(draw(st.integers(1, 6)))]
    header = list(LOG_COLUMNS)
    irregularity = draw(st.sampled_from(LOG_IRREGULARITIES))
    row = draw(st.integers(0, len(rows) - 1))
    column = draw(st.integers(0, len(header) - 1))
    at = draw(st.integers(0, len(header)))

    def add_column(name, cells):
        header.insert(at, name)
        for r, cell in zip(rows, cells):
            r.insert(at, cell)

    if irregularity == "repeat":          # breaks the strictly rising time
        rows.insert(draw(st.integers(0, len(rows))), list(rows[row]))
    elif irregularity == "reordered":
        order = draw(st.permutations(range(len(header))))
        header = [header[i] for i in order]
        rows = [[r[i] for i in order] for r in rows]
    elif irregularity in ("extra number", "extra text"):
        add_column("extra", [draw(st.sampled_from(_spellings(draw(value))))
                             if irregularity == "extra number" else "abc"
                             for _ in rows])
    elif irregularity == "column twice":    # refused
        add_column(header[column], [draw(st.sampled_from(_spellings(
            draw(value)))) for _ in rows])
    elif irregularity == "missing column":
        del header[column]
        rows = [r[:column] + r[column + 1:] for r in rows]
    elif irregularity == "quoted":
        rows[row][column] = f'"{rows[row][column]}"'
    elif irregularity == "ragged":
        rows[row] = rows[row][:-1] if draw(st.booleans()) \
            else [*rows[row], "1"]
    elif irregularity in ("text cell", "nan cell"):
        rows[row][column] = "abc" if irregularity == "text cell" \
            else draw(st.sampled_from(["nan", "inf", "-inf"]))
    rate = draw(st.sampled_from(["1000.0", "1e3", "2000", "500"]))
    seed = "two" if irregularity == "bad seed" else draw(
        st.sampled_from([None, "3", "-1"]))
    preamble = [
        *([] if irregularity == "no rate" else [f"# sample_rate_hz: {rate}"]),
        "# conditions: rig at 25 C: still air",
        *([] if seed is None else [f"# seed: {seed}"]),
        *draw(st.lists(st.sampled_from(["", "  ", "# free text"]),
                       max_size=2)),
    ]
    lines = [*preamble, ",".join(header), *map(",".join, rows)]
    if irregularity in ("comment", "blank"):
        lines.insert(len(preamble) + 1 + draw(st.integers(0, len(rows))),
                     "# late: 1" if irregularity == "comment"
                     else draw(st.sampled_from(["", "  "])))
    newline = "\r\n" if irregularity == "crlf" else "\n"
    end = newline if irregularity == "blank" else draw(
        st.sampled_from(["", newline]))
    return irregularity, newline.join(lines) + end


def _log_oracle(path):
    """``read_log`` of ``path`` rebuilt from ``_whole_table`` rows and
    ``float``: a header that names a column twice is refused, every header
    column's cells are checked in row order, and then the headers and the
    channels are checked."""
    _refuse_repeated_header(path)
    meta, header, rows = _whole_table(path, LOG_COLUMNS)
    lines = [number for number, line in enumerate(
        path.read_text().splitlines(), 1)
        if line.strip() and not line.strip().startswith("#")][1:]
    values = []
    for row, line in zip(rows, lines):
        values.append([])
        for c, cell in zip(header, row):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"{path}: line {line}: {c} {cell!r} is not "
                                f"a number") from None
            if not math.isfinite(value):
                raise DataError(f"{path}: line {line}: {c} {cell!r} is not "
                                f"finite")
            values[-1].append(value)
    if "sample_rate_hz" not in meta:
        raise DataError(f"log {path} is missing the sample_rate_hz header")

    def header_number(name, kind):
        try:
            number = kind(meta[name])
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise InvalidRecord(f"{name} header {meta[name]!r} is not a "
                                f"finite {kind.__name__}")
        return number

    try:
        return TimeSeriesLog(
            *(np.array([v[header.index(c)] for v in values], dtype=float)
              for c in LOG_COLUMNS),
            sample_rate=header_number("sample_rate_hz", float),
            conditions=meta.get("conditions", ""),
            seed=header_number("seed", int) if "seed" in meta else None)
    except InvalidRecord as exc:
        where = path if exc.row is None else f"{path}: line {lines[exc.row]}"
        raise InvalidRecord(f"{where}: {exc}") from None


def _is_regular(path, text_columns, float_columns, all_float=False):
    """Whether ``_regular_columns`` takes the blocks of ``path`` as
    regular."""
    with path.open("rb") as file:
        return _regular_columns(path, _file_blocks(file, None), text_columns,
                                float_columns, all_float) is not None


def _check_log(path, regular):
    """``read_log(path)`` gives the values or raises the error of
    ``_log_oracle`` and records the sha256 of the file, and
    ``_regular_columns`` takes the file as regular exactly when
    ``regular``; None skips that check."""
    if regular is not None:
        assert _is_regular(path, (), LOG_COLUMNS, all_float=True) == regular
    try:
        expected = _log_oracle(path)
    except DataError as exc:
        with pytest.raises(DataError) as raised:
            read_log(path)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
        return
    files = {}
    got = read_log(path, files=files)
    assert files == {path: sha256_hex(path.read_bytes())}
    for name in CHANNELS:             # bit for bit: -0.0 is not 0.0
        assert repr(getattr(got, name).tolist()) \
            == repr(getattr(expected, name).tolist())
    assert (got.sample_rate, got.conditions, got.seed) \
        == (expected.sample_rate, expected.conditions, expected.seed)


# a change to one line of a log past the parse's first block, and whether
# the log stays regular
LATE_IRREGULARITIES = {"ragged": False, "text cell": False, "nan cell": False,
                       "blank": False, "no final newline": True}


class TestColumnWiseParse:
    """Both parses against a ``float()`` oracle.  A regular text is parsed
    in blocks of ``tables._BLOCK`` characters; the oracles draw small
    blocks, so that a text's lines, and its irregular line, fall in
    different blocks."""

    @settings(max_examples=300, deadline=None)
    @given(measurement_texts() | one_column_texts(), st.integers(1, 300))
    def test_readers_match_the_per_cell_oracle(self, case, block):
        kind, irregularity, text = case
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(tables, "_BLOCK", block):
            path = Path(tmp) / f"{kind}.csv"
            path.write_bytes(text.encode())
            # the header read, streamed when the text is plain, and the
            # table read are those of the whole text
            for read, header_only in ((read_header, True),
                                      (_read_rows, False)):
                try:
                    expected = tables._table(path, text, (), header_only)
                except DataError as exc:
                    with pytest.raises(DataError) as raised:
                        read(path)
                    assert str(raised.value) == str(exc)
                else:
                    assert read(path) == expected[:2 if header_only else 3]
            if kind == "column":
                assert _is_regular(path, (), ()) == (irregularity is None)
                return
            reader, text_columns, float_columns, key = READERS[kind]
            if irregularity != "column twice":      # raises, as below
                assert _is_regular(path, text_columns, float_columns) \
                    == (irregularity in REGULAR_TEXTS)
            try:
                meta, columns, lines = _oracle(path, text_columns,
                                               float_columns, key)
            except DataError as exc:
                with pytest.raises(DataError) as raised:
                    reader(path)
                assert type(raised.value) is type(exc)
                assert str(raised.value) == str(exc)
                return
            files = {}
            got = _read_columns(path, text_columns, float_columns, key,
                                files=files)
            assert files == {path: sha256_hex(text.encode())}
            assert got[0] == meta
            # the header read records the digest the table read records,
            # whichever of the two paths each takes
            read = {}
            assert read_header(path, read)[0] == meta
            assert read == files
            assert list(got[2]) == lines
            for c in text_columns:
                assert got[1][c] == columns[c]
            for c in float_columns:      # bit for bit: -0.0 is not 0.0
                assert repr(got[1][c].tolist()) == repr(columns[c])
            eta = columns["eta"] if kind == "efficiency" else []
            outside = [i for i, x in enumerate(eta) if not 0 <= x <= 1]
            if outside:
                with pytest.raises(InvalidRecord) as raised:
                    reader(path)
                assert str(raised.value) == (
                    f"{path}: line {lines[outside[0]]}: eta "
                    f"{eta[outside[0]]!r} must lie in [0, 1]")
                return
            result = reader(path)

        groups = {}
        for i, cells in enumerate(zip(*(columns[c] for c in text_columns))):
            groups.setdefault(cells, []).append(i)
        q, omega, *values = (columns[c] for c in float_columns)
        if kind == "band":
            assert list(result) == list(groups)
            for rows, band in zip(groups.values(), result.values()):
                assert repr([c.tolist() for c in (
                    band.q, band.omega, band.torque_hum, band.power_hum)]) \
                    == repr([[c[i] for i in rows] for c in (q, omega,
                                                            *values)])
        elif kind == "efficiency":
            assert list(result) == [joint for (joint,) in groups]
            for rows, table in zip(groups.values(), result.values()):
                ones = [1.0] * len(rows)
                band = OperatingBand("j", "t", [q[i] for i in rows],
                                     [omega[i] for i in rows], ones, ones)
                assert len(table) == len(rows)
                assert repr(measured_at(band, table, "eta").tolist()) \
                    == repr([values[0][i] for i in rows])
        else:
            assert list(groups) == [(result.joint, result.axis)]
            assert repr([c.tolist() for c in (result.q, result.omega,
                                              result.torque_rob)]) \
                == repr([q, omega, values[0]])

    @settings(max_examples=300, deadline=None)
    @given(log_texts(), st.integers(1, 300))
    def test_read_log_matches_the_per_cell_oracle(self, case, block):
        irregularity, text = case
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(tables, "_BLOCK", block):
            path = Path(tmp) / "log.csv"
            path.write_bytes(text.encode())
            _check_log(path, None if irregularity in (
                "missing column", "column twice")     # these raise
                else irregularity in REGULAR_LOGS)

    @pytest.mark.parametrize("irregularity", LATE_IRREGULARITIES)
    def test_irregular_line_after_the_first_block(self, irregularity,
                                                  tmp_path, monkeypatch):
        path = tmp_path / "log.csv"
        write_log(generate_backdrive_log(SyntheticActuator(), duration=0.05),
                  path)
        lines = path.read_text().splitlines()
        monkeypatch.setattr(tables, "_BLOCK", 200)
        at = 40                 # a data line past the body's tenth block
        assert sum(map(len, lines[3:at])) > 10 * tables._BLOCK
        cells = lines[at].split(",")
        if irregularity == "ragged":
            cells.append("1")
        elif irregularity in ("text cell", "nan cell"):
            cells[3] = "abc" if irregularity == "text cell" else "nan"
        lines[at] = ",".join(cells)
        if irregularity == "blank":
            lines.insert(at, "")
        text = "\n".join(lines) + (
            "" if irregularity == "no final newline" else "\n")
        path.write_bytes(text.encode())
        _check_log(path, LATE_IRREGULARITIES[irregularity])


# a change to one data line of a log, in a late block of a streamed read:
# whether the log stays regular
STREAMED_IRREGULARITIES = {
    None: True, "no final newline": True, "crlf": True, "lone cr": False,
    "non-ASCII cell": False, "non-ASCII comment": False,
    "non-UTF-8 byte": False, "ragged": False, "text cell": False,
    "nan cell": False, "blank": False, "comment": False, "quoted": False,
}


@st.composite
def streamed_logs(draw):
    """``(irregularity, data, block)``: the bytes of a log of 8 to 24 rows
    with at most one irregular line, drawn from the last half of its rows,
    and a block size of 1 to 300 bytes that ends before that line starts."""
    value = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    count = draw(st.integers(8, 24))
    lines = [",".join([draw(st.sampled_from(_spellings(i / 1000))), *(
        draw(st.sampled_from(_spellings(draw(value))))
        for _ in LOG_COLUMNS[1:])]) for i in range(count)]
    irregularity = draw(st.sampled_from(list(STREAMED_IRREGULARITIES)))
    at = draw(st.integers(count // 2, count - 1))
    cells = lines[at].split(",")
    column = draw(st.integers(0, len(cells) - 1))
    ends = ["\n"] * count
    if irregularity == "crlf":
        ends[at] = "\r\n"
    elif irregularity == "lone cr":
        ends[at] = "\r"
    elif irregularity == "no final newline":
        ends[-1] = ""
    elif irregularity == "ragged":
        lines[at] += ",1"
    elif irregularity in ("text cell", "nan cell", "non-ASCII cell",
                          "quoted"):
        cells[column] = {
            "text cell": "abc", "nan cell": "nan", "quoted":
            f'"{cells[column]}"', "non-ASCII cell": draw(st.sampled_from(
                ["1.5\u00e9", "\u0661\u0662"]))}[irregularity]
        lines[at] = ",".join(cells)
    elif irregularity in ("blank", "comment", "non-ASCII comment"):
        lines[at] = {"blank": "", "comment": "# late: 1",
                     "non-ASCII comment": "# r\u00e9glage"}[irregularity] \
            + "\n" + lines[at]
    head = "# sample_rate_hz: 1000.0\n# conditions: rig\n" \
        + ",".join(LOG_COLUMNS) + "\n"
    data = head.encode() + b"".join(
        (line + end).encode() for line, end in zip(lines[:at], ends))
    offset = len(data)
    late = (lines[at] + ends[at]).encode()
    if irregularity == "non-UTF-8 byte":
        cut = draw(st.integers(0, len(late) - 1))
        late = late[:cut] + b"\xff" + late[cut:]
    data += late + b"".join((line + end).encode()
                            for line, end in zip(lines[at + 1:], ends[at + 1:]))
    return irregularity, data, draw(st.integers(1, min(300, offset - 1)))


class TestStreamedLog:
    """``read_log(path)`` reads the file ``_BLOCK`` bytes at a time; the
    oracles draw small blocks and put the irregular line past the first."""

    @settings(max_examples=200, deadline=None)
    @given(streamed_logs())
    def test_read_log_matches_the_per_cell_oracle(self, case):
        irregularity, data, block = case
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(tables, "_BLOCK", block):
            path = Path(tmp) / "log.csv"
            path.write_bytes(data)
            if irregularity != "non-UTF-8 byte":
                _check_log(path, STREAMED_IRREGULARITIES[irregularity])
                return
            assert not _is_regular(path, (), LOG_COLUMNS, all_float=True)
            line = data[:data.index(b"\xff")].count(b"\n") + 1
            for read in (read_log, read_header):
                files = {}
                with pytest.raises(DataError) as raised:
                    read(path, files=files)
                assert str(raised.value) \
                    == f"{path}: line {line}: byte 0xff is not UTF-8 text"
                assert files == {}


# cells of a drawn column: (Python values, NumPy dtype or None for a list)
COLUMN_KINDS = {
    "float": (st.floats() | st.sampled_from([-0.0, 0.0]), float),
    "bool": (st.booleans(), bool),
    "int": (st.integers(-2**63, 2**63 - 1), np.int64),
    "text": (st.text(), None),
    "mixed": (st.floats() | st.booleans() | st.integers() | st.text(), None),
}


@st.composite
def written_tables(draw):
    """``(header, columns, preamble, rows)``: the columns as the writer
    takes them (lists, and arrays for the kinds that have a dtype; none
    at all for some tables of no rows) and the rows of their Python
    values."""
    width, count = draw(st.integers(1, 6)), draw(st.integers(0, 40))
    header = draw(st.lists(st.text(min_size=1), min_size=width,
                           max_size=width))
    values, columns = [], []
    for kind in draw(st.lists(st.sampled_from(list(COLUMN_KINDS)),
                              min_size=width, max_size=width)):
        cells, dtype = COLUMN_KINDS[kind]
        column = draw(st.lists(cells, min_size=count, max_size=count))
        values.append(column)
        columns.append(np.array(column, dtype=dtype)
                       if dtype and draw(st.booleans()) else column)
    if not count and draw(st.booleans()):
        columns = ()
    preamble = draw(st.sampled_from(["", "# seed: 7\n",
                                     "# conditions: r\u00e9glage\n"])
                    | st.text())
    return header, columns, preamble, list(zip(*values))


class TestTableWriter:
    """``write_table``, through which every table, mask and log is
    written, formats a block of rows at a time; the oracle is the whole
    text, a line of ``fmt`` cells per row, at blocks of 1 to 300."""

    @settings(max_examples=300, deadline=None)
    @given(written_tables(), st.integers(1, 300))
    def test_bytes_are_those_of_the_fmt_joined_rows(self, table, block):
        header, columns, preamble, rows = table
        text = preamble + "".join(",".join(map(fmt, row)) + "\n"
                                  for row in (header, *rows))
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(tables, "_BLOCK", block):
            blocks = list(table_blocks(header, columns, preamble))
            path = Path(tmp) / "table.csv"
            digest = write_table(path, header, columns, preamble)
            assert path.read_bytes() == text.encode()
        assert "".join(blocks) == text
        assert all(b.endswith("\n") for b in blocks)
        assert digest == sha256_hex(text.encode())

    @pytest.mark.parametrize("seed, conditions",
                             [(None, ""), (0, "r\u00e9glage"), (7, "rig")])
    def test_write_log_is_the_table_of_its_channels(self, seed, conditions,
                                                    tmp_path):
        log = replace(generate_backdrive_log(SyntheticActuator(),
                                             duration=0.01),
                      seed=seed, conditions=conditions)
        text = (f"# sample_rate_hz: {log.sample_rate!r}\n"
                f"# conditions: {conditions}\n"
                + ("" if seed is None else f"# seed: {seed}\n")
                + ",".join(LOG_COLUMNS) + "\n" + "".join(
                    ",".join(repr(float(v)) for v in values) + "\n"
                    for values in zip(*(getattr(log, c) for c in CHANNELS))))
        path = tmp_path / "log.csv"
        assert write_log(log, path) == sha256_hex(text.encode())
        assert path.read_bytes() == text.encode()


class TestEmitReport:
    @pytest.fixture
    def emitted(self, tmp_path, example_inputs):
        return (example_inputs.breakdown,
                emit_report(example_inputs, tmp_path / "out"))

    def test_feature_table_has_all_pairs(self, emitted):
        breakdown, bundle = emitted
        _, header, rows = _read_rows(bundle.out_dir / "feature_table.csv")
        assert len(rows) == 9
        assert header[:2] == ["task", "joint"]

    def test_contributions_total_matches(self, emitted):
        breakdown, bundle = emitted
        _, header, rows = _read_rows(bundle.out_dir / "contributions.csv")
        total = sum(float(r[header.index("contribution")]) for r in rows)
        assert total == pytest.approx(breakdown.hlas, abs=1e-9)

    def test_hee_masks_cover_every_pair(self, emitted):
        breakdown, bundle = emitted
        masks = bundle.out_dir / "hee_masks"
        assert {path for path in bundle.files if path.parent == masks} \
            == {masks / mask_name(*key) for key in breakdown.feature_vectors}
        _, header, rows = _read_rows(masks / mask_name("Walk", "ankle"))
        assert header == ["q_deg", "omega_rad_s", "weight", "torque_ok",
                          "power_ok", "pass"]
        passes = [r[-1] for r in rows]
        assert passes == ["true", "true", "true", "false", "false"]

    def test_artifacts_round_trip_bit_identically(self, emitted, tmp_path):
        _, bundle = emitted
        for name in ("feature_table.csv", "contributions.csv",
                     "task_table.csv", "summary.csv", "rom_overlays.csv",
                     f"hee_masks/{mask_name('Stairs', 'knee')}"):
            path = bundle.out_dir / name
            _, header, rows = _read_rows(path)
            rewritten = tmp_path / ("rt_" + path.name)
            with rewritten.open("w", newline="") as fh:
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join(row) + "\n")
            assert rewritten.read_bytes() == path.read_bytes()

    def test_manifest_lists_every_artifact_with_digest(self, emitted):
        import json

        _, bundle = emitted
        manifest = json.loads(bundle.manifest.read_text())
        listed = {a["path"]: a["sha256"] for a in manifest["artifacts"]}
        assert "feature_table.csv" in listed
        assert listed["feature_table.csv"] == sha256_file(
            bundle.out_dir / "feature_table.csv")
        assert any("frf_tables" in note for note in manifest["notes"])

    def test_mask_name_is_stable(self):
        assert mask_name("Walk", "ankle") == "Walk__ankle.csv"

    def test_task_trial_stubs_emitted(self, emitted):
        from hlaskit.config_io import TASK_TRIAL_COLUMNS

        _, bundle = emitted
        for name, columns in TASK_TRIAL_COLUMNS.items():
            stub = bundle.out_dir / "task_trials" / f"{name}.csv"
            _, header, rows = _read_rows(stub)
            assert header == list(columns)
            assert rows == []  # whole-robot trials are never computed here
