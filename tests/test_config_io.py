import math
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from hlaskit.config_io import (
    LOG_COLUMNS,
    BandRef,
    _read_columns,
    _regular_columns,
    emit_report,
    load_measurements,
    load_preregistration,
    load_preregistration_file,
    mask_name,
    read_bands,
    read_capability_map,
    read_efficiency_file,
    read_log,
    read_table,
    read_thermal_file,
    serialize_preregistration,
    sha256_file,
    sha256_hex,
    verify_prereg_binding,
    write_capability_map,
    write_log,
)
from hlaskit.errors import (
    DataError,
    DuplicateKey,
    IncompleteAnalyses,
    InvalidRecord,
    MissingSection,
    WeightSumViolation,
)
from hlaskit.example import example_data_dir
from hlaskit.scoring import hlas
from hlaskit.signals import TimeSeriesLog
from hlaskit.synthetic import SyntheticActuator, generate_backdrive_log


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
        assert sha256_hex(serialize_preregistration(prereg).encode()) == \
            prereg.digest

    def test_digest_stable_across_reserialization(self, prereg_text):
        first = load_preregistration(prereg_text)
        second = load_preregistration(serialize_preregistration(first))
        assert first.digest == second.digest

    def test_canonical_form_is_fixed_point(self, prereg_text):
        once = serialize_preregistration(load_preregistration(prereg_text))
        twice = serialize_preregistration(load_preregistration(once))
        assert once == twice

    def test_digest_sensitive_to_any_value_change(self, prereg_text):
        base = load_preregistration(prereg_text).digest
        doc = yaml.safe_load(prereg_text)
        doc["tasks"]["Walk"] = 0.41
        doc["tasks"]["Stairs"] = 0.29
        changed = load_preregistration(yaml.safe_dump(doc)).digest
        assert changed != base

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
        report = verify_prereg_binding(prereg, files)
        assert report.passed, report.findings

    def test_backdated_file_flagged(self, example_dir, tmp_path):
        prereg = load_preregistration_file(example_dir / "prereg.yaml")
        stale = tmp_path / "capability_ankle.csv"
        text = (example_dir / "capability_ankle.csv").read_text()
        stale.write_text(text.replace(
            "# created_utc: 2026-08-05T10:00:00Z",
            "# created_utc: 2026-07-01T00:00:00Z",
        ))
        report = verify_prereg_binding(prereg, [stale])
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
        report = verify_prereg_binding(prereg, [tagged])
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
        assert verify_prereg_binding(prereg, [tagged]).passed


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

    def test_missing_column_names_file_and_columns(self, tmp_path):
        path = tmp_path / "bands.csv"
        path.write_text("task,joint,q_deg,omega_rad_s,torque_hum_nm\n"
                        "Walk,ankle,10,8,30\n")
        with pytest.raises(DataError, match=r"bands\.csv.*power_hum_w"):
            read_bands(path)


class TestFileRoundTrips:
    def test_phase_trajectory_reader(self, tmp_path):
        from hlaskit.config_io import read_phase_trajectory

        path = tmp_path / "gait.csv"
        path.write_text(
            "# one stride, stance only\n"
            "phase,q_deg,omega_rad_s,power_w\n"
            "0.0,2.0,8.5,120.0\n"
            "0.5,10.0,10.0,340.0\n"
            "0.9,22.0,11.5,-40.0\n"
        )
        traj = read_phase_trajectory(path)
        assert traj.phase == (0.0, 0.5, 0.9)
        assert traj.power[-1] == -40.0

        empty = tmp_path / "empty.csv"
        empty.write_text("phase,q_deg,omega_rad_s,power_w\n")
        with pytest.raises(DataError):
            read_phase_trajectory(empty)

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
        assert again == cap

    def test_band_weights_normalized_at_load(self, example_dir):
        bands = read_bands(example_dir / "bands.csv")
        for band in bands.values():
            assert band.total_weight() == pytest.approx(1.0, abs=1e-9)

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
# None and "repeat" keep a text regular; every other one makes it irregular
IRREGULARITIES = (None, "repeat", "comment", "blank", "quoted", "crlf",
                  "ragged", "non-ascii", "hash", "text cell", "nan cell")
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
    rows = [[*point[:-2], *(draw(st.sampled_from(_spellings(x)))
                            for x in point[-2:]),
             *(draw(st.sampled_from(_spellings(draw(value))))
               for _ in float_columns[2:])] for point in keys]
    irregularity = draw(st.sampled_from(IRREGULARITIES))
    row = draw(st.integers(0, len(rows) - 1))
    at = draw(st.integers(0, len(rows)))
    column = len(text_columns) + draw(st.integers(0, len(float_columns) - 1))
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
    preamble = draw(st.lists(st.sampled_from(
        ["# created_utc: 2026-09-01T00:00:00Z", "", "  ", "# free text",
         "  # note: x"]), max_size=3))
    if kind == "capability":
        preamble.insert(0, "# conditions: rig at 25 C")
    lines = [*preamble, ",".join((*text_columns, *float_columns)),
             *map(",".join, rows)]
    if irregularity in ("comment", "blank"):
        lines.insert(len(preamble) + 1 + at, "# late: 1"
                     if irregularity == "comment" else draw(
                         st.sampled_from(["", "  "])))
    newline = "\r\n" if irregularity == "crlf" else "\n"
    # a blank last line needs the line break that ends it
    end = newline if irregularity == "blank" else draw(
        st.sampled_from(["", newline]))
    return kind, irregularity, newline.join(lines) + end


def _oracle(path, text_columns, float_columns, key):
    """``_read_columns`` of ``path`` rebuilt from ``read_table`` rows and
    ``float``, raising what the per-cell path raises."""
    meta, header, rows = read_table(path, (*text_columns, *float_columns))
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
                "bad seed")
LOG_IRREGULARITIES = (*REGULAR_LOGS, "comment", "blank", "quoted", "crlf",
                      "ragged", "extra text", "text cell", "nan cell",
                      "column twice", "missing column")
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
    elif irregularity == "column twice":    # the first of the two is read
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
    """``read_log`` of ``path`` rebuilt from ``read_table`` rows and
    ``float``: every header column's cells are checked in row order, the
    first of two columns with one name is read, and then the headers and
    the channels are checked."""
    meta, header, rows = read_table(path, LOG_COLUMNS)
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


class TestColumnWiseParse:
    @settings(max_examples=300, deadline=None)
    @given(measurement_texts())
    def test_readers_match_the_per_cell_oracle(self, case):
        kind, irregularity, text = case
        reader, text_columns, float_columns, key = READERS[kind]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{kind}.csv"
            path.write_bytes(text.encode())
            regular = _regular_columns(path, text, text_columns,
                                       float_columns)
            assert (regular is not None) \
                == (irregularity in IRREGULARITIES[:2])
            try:
                meta, columns, lines = _oracle(path, text_columns,
                                               float_columns, key)
            except DataError as exc:
                with pytest.raises(DataError) as raised:
                    reader(path, text)
                assert type(raised.value) is type(exc)
                assert str(raised.value) == str(exc)
                return
            got = _read_columns(path, text, text_columns, float_columns, key)
            assert got[0] == meta
            assert read_table(path, header_only=True)[0] == meta
            assert list(got[2]) == lines
            for c in text_columns:
                assert got[1][c] == columns[c]
            for c in float_columns:      # bit for bit: -0.0 is not 0.0
                assert repr(got[1][c].tolist()) == repr(columns[c])
            result = reader(path, text)

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
            assert repr(result) == repr({
                joint: {(q[i], omega[i]): values[0][i] for i in rows}
                for (joint,), rows in groups.items()})
        else:
            assert list(groups) == [(result.joint, result.axis)]
            assert repr([c.tolist() for c in (result.q, result.omega,
                                              result.torque_rob)]) \
                == repr([q, omega, values[0]])

    @settings(max_examples=300, deadline=None)
    @given(log_texts())
    def test_read_log_matches_the_per_cell_oracle(self, case):
        irregularity, text = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.csv"
            path.write_bytes(text.encode())
            if irregularity != "missing column":    # raises, as below
                regular = _regular_columns(path, text, (), LOG_COLUMNS,
                                           all_float=True)
                assert (regular is not None) \
                    == (irregularity in REGULAR_LOGS)
            try:
                expected = _log_oracle(path)
            except DataError as exc:
                with pytest.raises(DataError) as raised:
                    read_log(path)
                assert type(raised.value) is type(exc)
                assert str(raised.value) == str(exc)
                return
            got = read_log(path)
        for name in CHANNELS:             # bit for bit: -0.0 is not 0.0
            assert repr(getattr(got, name).tolist()) \
                == repr(getattr(expected, name).tolist())
        assert (got.sample_rate, got.conditions, got.seed) \
            == (expected.sample_rate, expected.conditions, expected.seed)


class TestEmitReport:
    @pytest.fixture
    def emitted(self, tmp_path, example_pairs, example_scheme):
        breakdown = hlas(example_pairs, example_scheme)
        bundle = emit_report(breakdown, example_pairs, tmp_path / "out",
                             example_scheme)
        return breakdown, bundle

    def test_feature_table_has_all_pairs(self, emitted):
        breakdown, bundle = emitted
        _, header, rows = read_table(bundle.feature_table)
        assert len(rows) == 9
        assert header[:2] == ["task", "joint"]

    def test_contributions_total_matches(self, emitted):
        breakdown, bundle = emitted
        _, header, rows = read_table(bundle.contributions)
        total = sum(float(r[header.index("contribution")]) for r in rows)
        assert total == pytest.approx(breakdown.hlas, abs=1e-9)

    def test_hee_masks_cover_every_pair(self, emitted):
        breakdown, bundle = emitted
        assert set(bundle.hee_masks) == set(breakdown.feature_vectors)
        _, header, rows = read_table(
            bundle.hee_masks[("Walk", "ankle")])
        assert header == ["q_deg", "omega_rad_s", "weight", "torque_ok",
                          "power_ok", "pass"]
        passes = [r[-1] for r in rows]
        assert passes == ["true", "true", "true", "false", "false"]

    def test_artifacts_round_trip_bit_identically(self, emitted, tmp_path):
        _, bundle = emitted
        for path in (bundle.feature_table, bundle.contributions,
                     bundle.task_table, bundle.summary,
                     bundle.rom_overlays,
                     bundle.hee_masks[("Stairs", "knee")]):
            _, header, rows = read_table(path)
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
            bundle.feature_table)
        assert any("frf_tables" in note for note in manifest["notes"])

    def test_incomplete_hee_masks_rejected(self, tmp_path, example_pairs,
                                           example_scheme):
        breakdown = hlas(example_pairs, example_scheme)
        with pytest.raises(IncompleteAnalyses):
            emit_report(breakdown, [], tmp_path / "out", example_scheme)

    def test_mask_name_is_stable(self):
        assert mask_name("Walk", "ankle") == "Walk__ankle.csv"

    def test_task_trial_stubs_emitted(self, emitted):
        from hlaskit.config_io import TASK_TRIAL_COLUMNS

        _, bundle = emitted
        for name, columns in TASK_TRIAL_COLUMNS.items():
            stub = bundle.out_dir / "task_trials" / f"{name}.csv"
            _, header, rows = read_table(stub)
            assert header == list(columns)
            assert rows == []  # whole-robot trials are never computed here
