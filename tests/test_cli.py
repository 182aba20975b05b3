import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from hlaskit.cli import main
from hlaskit.config_io import (
    build_pairs,
    load_measurements,
    load_preregistration_file,
    mask_csv,
    read_bandwidth_file,
    read_bands,
    read_capability_map,
    read_dof_file,
    read_efficiency_file,
    read_log,
    read_rom_file,
    read_table,
    read_thermal_file,
    write_log,
)
from hlaskit.envelope import hee_coverage
from hlaskit.errors import DataError, DuplicateKey, InvalidRecord
from hlaskit.example import GOLDEN_TABLES, example_data_dir
from hlaskit.scoring import hlas
from hlaskit.signals import compute_frf, find_crossover
from hlaskit.synthetic import SyntheticActuator, generate_backdrive_log


def run_cli(*args):
    result = subprocess.run(
        [sys.executable, "-m", "hlaskit.cli", *args],
        capture_output=True, text=True,
    )
    return result


@pytest.fixture
def data_dir(tmp_path):
    src = example_data_dir()
    for f in src.glob("*.csv"):
        shutil.copy(f, tmp_path / f.name)
    shutil.copy(src / "prereg.yaml", tmp_path / "prereg.yaml")
    return tmp_path


class TestScore:
    def test_full_run(self, data_dir, tmp_path):
        out = tmp_path / "report"
        result = run_cli("score", "--prereg", str(data_dir / "prereg.yaml"),
                         "--data", str(data_dir), "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert "HLAS 0.636" in result.stdout
        assert (out / "feature_table.csv").exists()
        assert (out / "run_manifest.json").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["toolkit_version"]
        assert any("prereg.yaml" in i["path"] for i in manifest["inputs"])

    def test_delta_flag(self, data_dir, tmp_path):
        result = run_cli("score", "--prereg", str(data_dir / "prereg.yaml"),
                         "--data", str(data_dir),
                         "--out", str(tmp_path / "r"), "--delta", "0.10")
        assert result.returncode == 0
        assert "HLAS 0.515" in result.stdout

    def test_gate_flag(self, data_dir, tmp_path):
        result = run_cli("score", "--prereg", str(data_dir / "prereg.yaml"),
                         "--data", str(data_dir),
                         "--out", str(tmp_path / "r"), "--gate", "Stairs")
        assert result.returncode == 0
        assert "gated (Stairs): 0.343" in result.stdout

    def test_rate_margin_flag(self, data_dir, tmp_path):
        # the example's rate margins all clip to 1.0, like the bandwidth
        # factors, so the substitution leaves the score unchanged
        result = run_cli("score", "--prereg", str(data_dir / "prereg.yaml"),
                         "--data", str(data_dir),
                         "--out", str(tmp_path / "r"), "--rate-margin")
        assert result.returncode == 0
        assert "HLAS 0.636" in result.stdout

    def test_broken_weights_exit_code(self, data_dir, tmp_path):
        prereg = data_dir / "prereg.yaml"
        prereg.write_text(prereg.read_text().replace(
            "Walk: 0.4", "Walk: 0.3"))
        result = run_cli("score", "--prereg", str(prereg),
                         "--data", str(data_dir),
                         "--out", str(tmp_path / "r"))
        assert result.returncode == 2
        assert "WeightSumViolation" in result.stderr

    def test_missing_data_exit_code(self, data_dir, tmp_path):
        (data_dir / "thermal.csv").unlink()
        result = run_cli("score", "--prereg", str(data_dir / "prereg.yaml"),
                         "--data", str(data_dir),
                         "--out", str(tmp_path / "r"))
        assert result.returncode == 3

    def test_strict_gates(self, data_dir, tmp_path):
        result = run_cli("score", "--prereg", str(data_dir / "prereg.yaml"),
                         "--data", str(data_dir),
                         "--out", str(tmp_path / "r"),
                         "--h-min", "0.8", "--strict-gates")
        assert result.returncode == 2
        assert "breadth_floor" in result.stdout

    def test_score_as_zero_pair_is_reported_without_a_mask(self, data_dir,
                                                           tmp_path):
        prereg = data_dir / "prereg.yaml"
        prereg.write_text(prereg.read_text()
                          + "score_as_zero: [[Walk, ankle]]\n")
        out = tmp_path / "r"
        assert main(["score", "--prereg", str(prereg),
                     "--data", str(data_dir), "--out", str(out)]) == 0
        flags = (out / "guardrail_flags.txt").read_text().splitlines()
        assert any(f.startswith("declared_deficit") for f in flags)
        assert not (out / "hee_masks" / "Walk__ankle.csv").exists()
        registration = load_preregistration_file(prereg)
        pairs = build_pairs(registration,
                            load_measurements(data_dir, registration))
        _, _, rows = read_table(out / "summary.csv")
        assert rows[0][0] == "hlas"
        assert float(rows[0][1]) == hlas(pairs, registration.scheme).hlas

    def test_required_axis_without_robot_rom_has_empty_robot_cells(
            self, data_dir, tmp_path):
        prereg = data_dir / "prereg.yaml"
        prereg.write_text(prereg.read_text().replace(
            "  Walk:\n    ankle: [plantarflexion]\n",
            "  Walk:\n    ankle: [plantarflexion, axial_rotation]\n"))
        out = tmp_path / "r"
        assert main(["score", "--prereg", str(prereg),
                     "--data", str(data_dir), "--out", str(out)]) == 0
        _, header, rows = read_table(out / "rom_overlays.csv")
        overlay = {tuple(row[:3]): row[3:] for row in rows}
        assert overlay[("Walk", "ankle", "axial_rotation")][2:] == ["", ""]
        _, header, rows = read_table(out / "feature_table.csv")
        walk_ankle = next(row for row in rows if row[:2] == ["Walk", "ankle"])
        assert 0 < float(walk_ankle[header.index("rom")]) < 1

    def test_determinism(self, data_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli("score", "--prereg", str(data_dir / "prereg.yaml"),
                    "--data", str(data_dir), "--out", str(out))
            outs.append(out)
        for rel in ("feature_table.csv", "contributions.csv", "summary.csv"):
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()


class TestHee:
    def test_mask_output(self, data_dir):
        result = run_cli("hee", "--band", str(data_dir / "bands.csv"),
                         "--task", "Walk", "--joint", "ankle",
                         "--map", str(data_dir / "capability_ankle.csv"))
        assert result.returncode == 0
        assert "coverage 0.546" in result.stdout
        assert result.stdout.count("true,true,true") == 3

    def test_unknown_pair(self, data_dir):
        result = run_cli("hee", "--band", str(data_dir / "bands.csv"),
                         "--task", "Swim", "--joint", "ankle",
                         "--map", str(data_dir / "capability_ankle.csv"))
        assert result.returncode == 3

    def test_mask_file_output(self, data_dir, tmp_path):
        out = tmp_path / "mask.csv"
        run_cli("hee", "--band", str(data_dir / "bands.csv"),
                "--task", "Walk", "--joint", "ankle",
                "--map", str(data_dir / "capability_ankle.csv"),
                "--delta", "0.10", "--out", str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "q_deg,omega_rad_s,weight,torque_ok,power_ok,pass"
        assert sum(l.endswith(",true") for l in lines[1:]) == 1

    def test_closed_pipe_ends_quietly_after_the_mask_file(
            self, data_dir, tmp_path, monkeypatch):
        out, stdout = tmp_path / "mask.csv", tmp_path / "stdout"
        fd = os.open(stdout, os.O_WRONLY | os.O_CREAT)

        class ClosedPipe(io.StringIO):        # as ``hlas hee ... | head -1``
            def write(self, text):
                raise BrokenPipeError

            def fileno(self):
                return fd

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        argv = _hlas_argv("hee", data_dir, None, None) + ["--out", str(out)]
        assert main(argv) == 0
        os.write(fd, b"more output")        # now goes to the null device
        os.close(fd)
        assert stdout.read_bytes() == b""
        band = read_bands(data_dir / "bands.csv")[("Walk", "ankle")]
        cap = read_capability_map(data_dir / "capability_ankle.csv")
        assert out.read_text() == mask_csv(hee_coverage(band, cap))


def _backdrive_log(directory):
    path = directory / "backdrive.csv"
    write_log(generate_backdrive_log(SyntheticActuator(), duration=1.0,
                                     seed=2), path)
    return path


# file kind -> (file in the data dir or a log, reader, hlas command)
MALFORMED_FILES = {
    "band": ("bands.csv", read_bands, "hee"),
    "capability": ("capability_ankle.csv", read_capability_map, "hee"),
    "efficiency": ("efficiency.csv", read_efficiency_file, "score"),
    "rom": ("rom_robot.csv", read_rom_file, "score"),
    "dof": ("dof_report.csv", read_dof_file, "score"),
    "bandwidth": ("bandwidth.csv", read_bandwidth_file, "score"),
    "thermal": ("thermal.csv", read_thermal_file, "score"),
    "log": (None, read_log, "analyze"),
}
CELL_DEFECTS = ("missing field", "text", "nan")
REPEATS = ("repeated row", "repeated point written 10.0")
MALFORMED_CASES = [
    *((kind, defect) for kind in MALFORMED_FILES
      for defect in (*CELL_DEFECTS, REPEATS[0])),
    # the point-keyed kinds carry q and omega in their key
    *((kind, REPEATS[1]) for kind in ("band", "capability", "efficiency")),
    # records that refuse a negative torque or coupling
    ("capability", "negative"), ("dof", "negative"),
]


def _hlas_argv(command, data_dir, log, out):
    return {
        "hee": ["hee", "--band", str(data_dir / "bands.csv"),
                "--task", "Walk", "--joint", "ankle",
                "--map", str(data_dir / "capability_ankle.csv")],
        "score": ["score", "--prereg", str(data_dir / "prereg.yaml"),
                  "--data", str(data_dir), "--out", str(out)],
        "analyze": ["analyze", "qc", str(log)],
        "validate-prereg": ["validate-prereg",
                            "--prereg", str(data_dir / "prereg.yaml"),
                            "--data", str(data_dir)],
    }[command]


def _rewrite_third_row(path, edit):
    """Replace the third data row's cells with ``edit(cells, header cells,
    first data row cells)``; return the 1-based lines of the first data
    row and of the edited row."""
    lines = path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if line[0] != "#")
    first, number = header + 2, header + 4
    lines[number - 1] = ",".join(edit(
        lines[number - 1].split(","), lines[header].split(","),
        lines[first - 1].split(",")))
    path.write_text("\n".join(lines) + "\n")
    return first, number


def _repeat_first_row(cells, header, first):
    return first


def _repeat_first_point_as_float(cells, header, first):
    q = header.index("q_deg")
    respelled = repr(float(first[q]))
    assert respelled != first[q]               # "10" becomes "10.0"
    return [*first[:q], respelled, *first[q + 1:]]


@pytest.mark.parametrize("kind, defect", MALFORMED_CASES)
def test_malformed_cell_is_a_data_error_naming_the_line(kind, defect,
                                                        data_dir, tmp_path,
                                                        capsys):
    name, reader, command = MALFORMED_FILES[kind]
    path = data_dir / name if name else _backdrive_log(tmp_path)
    edit = {
        "missing field": lambda cells, *_: cells[:-1],
        "text": lambda cells, *_: [*cells[:-1], "abc"],
        "nan": lambda cells, *_: [*cells[:-1], "nan"],
        "negative": lambda cells, *_: [*cells[:-1], "-" + cells[-1]],
        REPEATS[0]: _repeat_first_row,
        REPEATS[1]: _repeat_first_point_as_float,
    }[defect]
    first, number = _rewrite_third_row(path, edit)

    with pytest.raises(DataError, match=rf"{path.name}: line {number}:") \
            as raised:
        reader(path)
    if kind == "log" and defect == REPEATS[0] or defect == "negative":
        # a repeated log row breaks the strictly increasing time channel
        assert isinstance(raised.value, InvalidRecord)
        assert isinstance(raised.value, ValueError)
    elif defect in REPEATS:
        assert isinstance(raised.value, DuplicateKey)
        assert f"repeats line {first}" in str(raised.value)
    assert main(_hlas_argv(command, data_dir, path, tmp_path / "r")) == 3
    assert f"line {number}" in capsys.readouterr().err


# header defect -> (file or log, rewrite of the file text, hlas command)
HEADER_DEFECTS = {
    "no conditions header": (
        "capability_ankle.csv",
        lambda text: "".join(line for line in text.splitlines(True)
                             if not line.startswith("# conditions:")),
        "hee"),
    "log below 1 kHz": (
        None,
        lambda text: text.replace("# sample_rate_hz: 1000.0\n",
                                  "# sample_rate_hz: 500.0\n"),
        "analyze"),
    "log rate not a number": (
        None,
        lambda text: text.replace("# sample_rate_hz: 1000.0\n",
                                  "# sample_rate_hz: 1 kHz\n"),
        "analyze"),
    "log seed not a number": (
        None, lambda text: text.replace("# seed: 2\n", "# seed: two\n"),
        "analyze"),
}


@pytest.mark.parametrize("defect", list(HEADER_DEFECTS))
def test_rejected_header_is_a_data_error_naming_the_file(defect, data_dir,
                                                         tmp_path, capsys):
    name, rewrite, command = HEADER_DEFECTS[defect]
    path = data_dir / name if name else _backdrive_log(tmp_path)
    reader = read_capability_map if name else read_log
    text = path.read_text()
    path.write_text(rewrite(text))
    assert path.read_text() != text

    with pytest.raises(InvalidRecord, match=rf"{path.name}: "):
        reader(path)
    assert main(_hlas_argv(command, data_dir, path, tmp_path / "r")) == 3
    err = capsys.readouterr().err
    assert "InvalidRecord" in err and path.name in err


# file kind -> an edit of a row that quotes a cell over csv's default field
# size limit (131,072 characters); the quotes keep it off the column-wise path
OVERSIZED_CELLS = {
    "thermal": lambda cells, *_: [f'"{"T" * 200_000}"', *cells[1:]],
    "log": lambda cells, *_: [*cells[:-1], f'"{"1" * 200_000}"'],
}


@pytest.mark.parametrize("kind", list(OVERSIZED_CELLS))
def test_cell_over_the_csv_field_limit_is_a_data_error_naming_the_line(
        kind, data_dir, tmp_path, capsys):
    name, reader, command = MALFORMED_FILES[kind]
    path = data_dir / name if name else _backdrive_log(tmp_path)
    _, number = _rewrite_third_row(path, OVERSIZED_CELLS[kind])
    where = f"{path.name}: line {number}: field larger than field limit"

    with pytest.raises(DataError, match=where):
        reader(path)
    assert main(_hlas_argv(command, data_dir, path, tmp_path / "r")) == 3
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err


# registration or flag defect -> (prereg.yaml text edit, extra flags,
# what stderr names, hlas commands); each is exit 2 with no traceback
REGISTRATION = ("score", "validate-prereg")
VALIDATION_DEFECTS = {
    "prereg key repeated in a flow mapping": (
        ("  Walk: {ankle: 30, knee: 50, hip: 75}\n",
         "  Walk: {ankle: 30, knee: 50, hip: 75, ankle: 60}\n"), [],
        "DuplicateDeclaration: key 'ankle' on line 37 repeats line 37",
        REGISTRATION),
    "prereg key repeated in a block mapping": (
        ("  Reach: 0.3\n\n", "  Reach: 0.3\n  Walk: 0.4\n\n"), [],
        "DuplicateDeclaration: key 'Walk' on line 12 repeats line 9",
        REGISTRATION),
    "prereg weight not a number": (
        ("  Walk: 0.4\n", "  Walk: heavy\n"), [],
        "InvalidDeclaration: tasks: Walk: 'heavy' is not a finite number",
        REGISTRATION),
    "prereg not YAML": (
        ("  Walk: 0.4\n", "  Walk: [0.4\n"), [],
        "InvalidDeclaration: pre-registration is not YAML", REGISTRATION),
    "prereg score_as_zero entry not a pair": (
        ("use_rate_margin: false\n",
         "use_rate_margin: false\nscore_as_zero: [Walk]\n"), [],
        "InvalidDeclaration: score_as_zero: 'Walk' is not a [task, joint] "
        "pair", REGISTRATION),
    "prereg required axes not a list": (
        ("  Walk:\n    ankle: [plantarflexion]\n",
         "  Walk:\n    ankle: plantarflexion\n"),
        [], "InvalidDeclaration: required_axes: Walk: ankle: 'plantarflexion' "
        "is not a list of names", REGISTRATION),
    "prereg required axes of a task not a mapping": (
        ("  Walk:\n    ankle: [plantarflexion]\n    knee: [flexion]\n"
         "    hip: [flexion]\n  Stairs:\n    ankle: [plantarflexion]\n",
         "  Walk: [ankle]\n  Stairs:\n    ankle: [plantarflexion]\n"),
        [], "InvalidDeclaration: required_axes: Walk: ['ankle'] is not a "
        "mapping", REGISTRATION),
    "prereg margin method unknown": (
        ("margin_method: min\n", "margin_method: bogus\n"), [],
        "InvalidDeclaration: margin_method: 'bogus' is not one of ('min', "
        "'quantile10')", REGISTRATION),
    "prereg rate margin flag quoted": (
        ("use_rate_margin: false\n", 'use_rate_margin: "false"\n'), [],
        "InvalidDeclaration: use_rate_margin: 'false' is not true or false",
        REGISTRATION),
    "prereg critical tasks not a list": (
        ("critical_tasks: []\n", "critical_tasks: Walk\n"), [],
        "InvalidDeclaration: critical_tasks: 'Walk' is not a list of names",
        REGISTRATION),
    "prereg tasks a list": (
        ("tasks:\n  Walk: 0.4\n  Stairs: 0.3\n  Reach: 0.3\n",
         "tasks: [Walk, Stairs, Reach]\n"), [],
        "InvalidDeclaration: tasks: ['Walk', 'Stairs', 'Reach'] is not a "
        "mapping", REGISTRATION),
    "prereg bands a list of names": (
        ("bands:\n  - file: bands.csv\n    sha256:",
         "bands: [bands.csv]\nband_sha256:"), [],
        "InvalidDeclaration: bands: 'bands.csv' is not a {file, sha256} "
        "mapping", REGISTRATION),
    "prereg functional interval a number": (
        ("{plantarflexion: [0, 25]}", "{plantarflexion: 25}"), [],
        "InvalidDeclaration: functional_rom_deg: Walk: ankle: plantarflexion:"
        " 25 is not a [lo, hi] pair", REGISTRATION),
    "prereg functional interval of three": (
        ("{plantarflexion: [0, 25]}", "{plantarflexion: [0, 25, 30]}"), [],
        "InvalidDeclaration: functional_rom_deg: Walk: ankle: plantarflexion:"
        " [0, 25, 30] is not a [lo, hi] pair", REGISTRATION),
    "prereg functional interval reversed": (
        ("{plantarflexion: [0, 25]}", "{plantarflexion: [25, 0]}"), [],
        "InvalidDeclaration: functional_rom_deg: Walk: ankle: plantarflexion:"
        " [25, 0] is not a [lo, hi] pair with lo < hi", REGISTRATION),
    "prereg required axes empty": (
        ("  Walk:\n    ankle: [plantarflexion]\n",
         "  Walk:\n    ankle: []\n"), [],
        "InvalidDeclaration: required_axes: Walk: ankle: [] is not a "
        "non-empty list of names", REGISTRATION),
    "prereg feature weights a list": (
        ("feature_weights:\n  rom: 0.10\n  dof: 0.10\n  hee: 0.50\n"
         "  bandwidth: 0.10\n  efficiency: 0.10\n  thermal: 0.10\n",
         "feature_weights: [0.10, 0.10, 0.50, 0.10, 0.10, 0.10]\n"), [],
        "InvalidDeclaration: feature_weights: [0.1, 0.1, 0.5, 0.1, 0.1, 0.1] "
        "is not a mapping", REGISTRATION),
    "prereg created not a timestamp": (
        ('created: "2026-08-01T00:00:00Z"\n', "created: 5\n"), [],
        "InvalidDeclaration: created: 5 is not an ISO 8601 timestamp",
        REGISTRATION),
    "negative headroom flag": (
        None, ["--delta", "-0.1"], "NegativeHeadroom: headroom delta -0.1",
        ("hee",)),
    "headroom flag not a number": (
        None, ["--delta", "nan"], "headroom delta", ("hee", "score")),
}
VALIDATION_CASES = [(defect, command)
                    for defect, case in VALIDATION_DEFECTS.items()
                    for command in case[-1]]


@pytest.mark.parametrize("defect, command", VALIDATION_CASES)
def test_refused_registration_or_flag_exits_2(defect, command, data_dir,
                                              tmp_path, capsys):
    edit, flags, named, _ = VALIDATION_DEFECTS[defect]
    if edit:
        prereg = data_dir / "prereg.yaml"
        text = prereg.read_text()
        assert text.count(edit[0]) == 1
        prereg.write_text(text.replace(*edit))
    argv = _hlas_argv(command, data_dir, None, tmp_path / "r") + flags
    assert main(argv) == 2
    assert named in capsys.readouterr().err


# flag values the library refuses: (argv ending in the refused value, the
# argument argparse names); each exits 2 before any file is read or written
REFUSED_FLAGS = [
    (["atlas", "show", "foo"], "joint"),
    *((["analyze", "frf", "sweep.csv", "--freqs", freqs], "--freqs")
      for freqs in ("1,x", "0,1", "2", "1,1")),
    (["analyze", "qc", "log.csv", "--f-noload", "1", "--f-loaded", "-1"],
     "--f-loaded"),
    *((["analyze", "thermal", "log.csv", "--window", window], "--window")
      for window in ("-1", "0")),
    (["synth", "map", "--out", "m.csv", "--stall", "-1"], "--stall"),
    (["synth", "map", "--out", "m.csv", "--thermal-tau", "0"],
     "--thermal-tau"),
    (["synth", "sweep", "--out", "s.csv", "--amplitude", "0"],
     "--amplitude"),
    (["synth", "sweep", "--out", "s.csv", "--freqs", "1,-2"], "--freqs"),
    (["synth", "thermal", "--out", "t.csv", "--torque", "-1"], "--torque"),
    (["synth", "backdrive", "--out", "b.csv", "--duration", "-1"],
     "--duration"),
    *((["score", "--prereg", "prereg.yaml", "--data", ".", "--out", "r",
        "--h-min", h_min], "--h-min") for h_min in ("nan", "inf")),
    *((["synth", "thermal", "--out", "t.csv", "--temp-limit", limit],
       "--temp-limit") for limit in ("-1", "25", "nan")),
    *((["synth", "map", "--out", "m.csv", flag, "nan"], flag)
      for flag in ("--q-lo", "--q-hi", "--omega-lo", "--omega-hi")),
    (["synth", "map", "--out", "m.csv", "--omega-hi", "inf"], "--omega-hi"),
    *((["synth", kind, "--out", "s.csv", "--noise", noise], "--noise")
      for kind in ("backdrive", "sweep") for noise in ("-1", "nan")),
]


@pytest.mark.parametrize("argv, flag", REFUSED_FLAGS,
                         ids=[" ".join(argv) for argv, _ in REFUSED_FLAGS])
def test_refused_flag_value_exits_2_at_the_parser(argv, flag, tmp_path,
                                                  monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 2
    assert f"error: argument {flag}: {argv[-1]!r} is not " \
        in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


EXAMPLE_CSVS = sorted(p.name for p in example_data_dir().glob("*.csv"))


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _mutate_cells(data, path):
    """One delimited file's row repeated, or one numeric cell made text,
    NaN or negative."""
    lines = path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if line[0] != "#")
    row = data.draw(st.integers(header + 1, len(lines) - 1))
    mutation = data.draw(st.sampled_from(
        ["repeat row", "abc", "nan", "negative"]))
    if mutation == "repeat row":
        lines.insert(data.draw(st.integers(header + 1, len(lines))),
                     lines[row])
    else:
        cells = lines[row].split(",")
        column = data.draw(st.sampled_from(
            [i for i, cell in enumerate(cells) if _is_number(cell)]))
        if mutation == "negative":
            mutation = repr(data.draw(st.floats(-1e6, -1e-6)))
        cells[column] = mutation
        lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _mutate_registration(data, path):
    """One shape change at one place in ``prereg.yaml``: the value put in a
    list or a mapping, made a scalar or null, or dropped; a mapping key may
    also be renamed."""
    doc = yaml.safe_load(path.read_text())
    parent, key = doc, data.draw(st.sampled_from(list(doc)))
    while (isinstance(parent[key], (dict, list)) and parent[key]
           and data.draw(st.booleans())):
        parent = parent[key]
        key = data.draw(st.sampled_from(
            list(parent) if isinstance(parent, dict) else range(len(parent))))
    mutations = ["list", "mapping", "scalar", "null", "dropped"]
    if isinstance(parent, dict):
        mutations.append("renamed")
    mutation = data.draw(st.sampled_from(mutations))
    value = parent[key]
    if mutation in ("dropped", "renamed"):
        del parent[key]
        if mutation == "renamed":
            parent[f"{key}_renamed"] = value
    elif mutation == "scalar":
        parent[key] = data.draw(st.sampled_from(["x", 0, 1.5, True]))
    else:
        parent[key] = {"list": [value], "mapping": {"x": value},
                       "null": None}[mutation]
    path.write_text(yaml.safe_dump(doc))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_single_file_mutation_scores_or_exits_with_a_documented_code(
        data):
    with tempfile.TemporaryDirectory() as tmp:
        data_dir, out = Path(tmp) / "data", Path(tmp) / "out"
        shutil.copytree(example_data_dir(), data_dir,
                        ignore=shutil.ignore_patterns("golden"))
        path = data_dir / data.draw(st.sampled_from(
            [*EXAMPLE_CSVS, "prereg.yaml"]))
        if path.suffix == ".yaml":
            _mutate_registration(data, path)
        else:
            _mutate_cells(data, path)

        code = main(["score", "--prereg", str(data_dir / "prereg.yaml"),
                     "--data", str(data_dir), "--out", str(out)])
        assert code in (0, 2, 3, 4)
        if code == 0:
            _, _, rows = read_table(out / "summary.csv")
            assert all(math.isfinite(float(value)) for _, value in rows)


class TestSharedPipeline:
    def test_score_and_example_write_the_same_bundle(self, tmp_path, capsys):
        data = example_data_dir()
        assert main(["score", "--prereg", str(data / "prereg.yaml"),
                     "--data", str(data), "--out", str(tmp_path / "A")]) == 0
        assert main(["example", "--out", str(tmp_path / "B")]) == 0
        assert ((tmp_path / "A" / "manifest.json").read_bytes()
                == (tmp_path / "B" / "manifest.json").read_bytes())

        mask = tmp_path / "M"
        assert main(["hee", "--band", str(data / "bands.csv"),
                     "--task", "Walk", "--joint", "ankle",
                     "--map", str(data / "capability_ankle.csv"),
                     "--out", str(mask)]) == 0
        assert mask.read_bytes() == (
            tmp_path / "B" / "hee_masks" / "Walk__ankle.csv").read_bytes()


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _score_argv(data_dir, out):
    return ["score", "--prereg", str(data_dir / "prereg.yaml"),
            "--data", str(data_dir), "--out", str(out)]


class TestOneReadOneHash:
    def test_score_reads_each_input_once_and_no_output(self, data_dir,
                                                       tmp_path, file_reads):
        assert main(_score_argv(data_dir, tmp_path / "r")) == 0
        inputs = ["prereg.yaml", *EXAMPLE_CSVS]
        assert file_reads == {(data_dir / name).resolve(): 1
                              for name in inputs}
        assert sum(file_reads.values()) == 13

    def test_example_reads_each_input_once_and_the_golden_tables(
            self, tmp_path, file_reads):
        out, data = tmp_path / "out", example_data_dir()
        assert main(["example", "--out", str(out)]) == 0
        read = [data / name for name in ["prereg.yaml", *EXAMPLE_CSVS]]
        read += [d / name for d in (out, data / "golden")
                 for name in GOLDEN_TABLES]
        assert file_reads == {path.resolve(): 1 for path in read}
        assert sum(file_reads.values()) == 21

    def test_registered_band_bytes_are_the_bytes_scored(self, data_dir,
                                                        tmp_path,
                                                        file_reads):
        bands = data_dir / "bands.csv"
        registered = bands.read_bytes()
        altered = registered.replace(b"Walk,ankle,10,8,30,240",
                                     b"Walk,ankle,10,8,300,240")
        assert altered != registered
        assert main(_score_argv(data_dir, tmp_path / "plain")) == 0

        def serve_altered():            # to every read after the first
            staged = tmp_path / "staged"
            staged.write_bytes(altered)
            os.replace(staged, bands)

        file_reads.after[bands.resolve()] = serve_altered
        assert main(_score_argv(data_dir, tmp_path / "served")) == 0
        assert bands.read_bytes() == altered
        table = "feature_table.csv"
        assert (tmp_path / "served" / table).read_bytes() == \
            (tmp_path / "plain" / table).read_bytes()
        # scored, the altered row would have lowered Walk/ankle coverage
        cap = read_capability_map(data_dir / "capability_ankle.csv")
        walk_ankle = [read_bands(bands, data.decode())[("Walk", "ankle")]
                      for data in (registered, altered)]
        assert hee_coverage(walk_ankle[1], cap).coverage \
            < hee_coverage(walk_ankle[0], cap).coverage

    def test_analyze_reads_its_log_once(self, tmp_path, capsys, file_reads):
        log = _backdrive_log(tmp_path)
        assert main(["analyze", "qc", str(log)]) == 0
        assert "power balance: pass" in capsys.readouterr().out
        assert file_reads == {log.resolve(): 1}

    @pytest.mark.parametrize("command", ["score", "example"])
    def test_run_manifest_digests_are_the_bytes_on_disk(self, command,
                                                        data_dir, tmp_path):
        out = tmp_path / "r"
        argv = (_score_argv(data_dir, out) if command == "score"
                else ["example", "--out", str(out)])
        assert main(argv) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        listed = manifest["inputs"] + manifest["outputs"]
        assert len(manifest["outputs"]) == len(
            [p for p in out.rglob("*") if p.is_file()]) - 1
        assert all(_sha256(Path(entry["path"])) == entry["sha256"]
                   for entry in listed)


class TestUncoveredWriterBytes:
    def test_synth_map_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["synth", "map", "--out", str(out)]) == 0
        assert _sha256(out) == ("e7f6fb76e14711672f4f986cee437e33"
                                "ea8cba11fa3fde04687802bbefd64cca")

    def test_frf_table_is_the_header_then_repr_rows(self, tmp_path):
        sweep, out = tmp_path / "sweep.csv", tmp_path / "frf.csv"
        assert main(["synth", "sweep", "--out", str(sweep)]) == 0
        assert main(["analyze", "frf", str(sweep), "--out", str(out)]) == 0
        frf = compute_frf(read_log(sweep), [1.0, 2.0, 5.0, 10.0, 20.0, 30.0])
        crossover = find_crossover(frf)
        assert crossover.bound is None
        assert out.read_text() == (
            f"# crossover_hz: {crossover.f_crossover!r}, "
            f"phase_margin_deg: {crossover.phase_margin_deg!r}\n"
            "freq_hz,magnitude,phase_deg\n"
            + "".join(f"{p.freq!r},{p.magnitude!r},{p.phase!r}\n"
                      for p in frf))


class TestAnalyze:
    def test_frf_pipeline(self, tmp_path):
        log = tmp_path / "sweep.csv"
        run_cli("synth", "sweep", "--out", str(log), "--pole", "10",
                "--freqs", "2,5,10,20,40")
        out = tmp_path / "frf.csv"
        result = run_cli("analyze", "frf", str(log),
                         "--freqs", "2,5,10,20,40", "--out", str(out))
        assert result.returncode == 0
        assert "f_c = 10.0" in result.stdout
        text = out.read_text()
        assert text.startswith("# crossover_hz: ")
        assert "freq_hz,magnitude,phase_deg" in text
        # plain numbers, not NumPy reprs: the table reads back
        assert "np." not in text
        meta, header, rows = read_table(out)
        assert header == ["freq_hz", "magnitude", "phase_deg"]
        assert [float(row[0]) for row in rows] == [2, 5, 10, 20, 40]
        assert all(math.isfinite(float(cell)) for row in rows
                   for cell in row)
        crossover, margin = meta["crossover_hz"].split(", phase_margin_deg: ")
        assert abs(float(crossover) - 10.0) < 0.05
        assert math.isfinite(float(margin))

    def test_friction_pipeline(self, tmp_path):
        log = tmp_path / "backdrive.csv"
        run_cli("synth", "backdrive", "--out", str(log),
                "--j-ref", "0.05", "--b-visc", "0.8", "--f-coulomb", "1.2",
                "--noise", "0.01", "--seed", "3", "--duration", "10")
        result = run_cli("analyze", "friction", str(log))
        assert result.returncode == 0
        for name, value in (("j_ref", 0.05), ("b_visc", 0.8),
                            ("f_coulomb", 1.2)):
            line = next(l for l in result.stdout.splitlines()
                        if l.startswith(name))
            got = float(line.split("=")[1].split()[0])
            assert got == pytest.approx(value, rel=0.05)

    def test_thermal_pipeline(self, tmp_path):
        log = tmp_path / "duty.csv"
        run_cli("synth", "thermal", "--out", str(log), "--torque", "48",
                "--duration", "40", "--thermal-tau", "60")
        result = run_cli("analyze", "thermal", str(log))
        assert result.returncode == 0
        assert "plateau torque = 48.000 Nm" in result.stdout

    def test_qc_pipeline(self, tmp_path):
        log = tmp_path / "backdrive.csv"
        run_cli("synth", "backdrive", "--out", str(log))
        result = run_cli("analyze", "qc", str(log),
                         "--f-loaded", "8", "--f-noload", "12")
        assert result.returncode == 0
        assert "power balance: pass" in result.stdout
        assert "inflation: pass" in result.stdout


class TestValidatePrereg:
    def test_pass(self, data_dir):
        result = run_cli("validate-prereg",
                         "--prereg", str(data_dir / "prereg.yaml"),
                         "--data", str(data_dir))
        assert result.returncode == 0
        assert "binding: pass" in result.stdout

    def test_backdated_fails(self, data_dir):
        cap = data_dir / "capability_ankle.csv"
        cap.write_text(cap.read_text().replace(
            "# created_utc: 2026-08-05T10:00:00Z",
            "# created_utc: 2026-07-01T00:00:00Z",
        ))
        result = run_cli("validate-prereg",
                         "--prereg", str(data_dir / "prereg.yaml"),
                         "--data", str(data_dir))
        assert result.returncode == 2
        assert "predates" in result.stdout


class TestExample:
    def test_golden_run(self, tmp_path):
        result = run_cli("example", "--out", str(tmp_path / "out"))
        assert result.returncode == 0, result.stderr
        assert "HLAS 0.636" in result.stdout
        assert "golden tables match" in result.stdout

    def test_variants(self, tmp_path):
        result = run_cli("example", "--out", str(tmp_path / "x"),
                         "--delta", "0.10")
        assert "HLAS 0.515" in result.stdout
        result = run_cli("example", "--out", str(tmp_path / "x"),
                         "--gate", "Stairs")
        assert "HLAS 0.343" in result.stdout

    def test_runs_in_process(self, tmp_path, capsys):
        assert main(["example", "--out", str(tmp_path / "out")]) == 0


class TestAtlas:
    def test_show(self):
        result = run_cli("atlas", "show", "right_knee")
        assert result.returncode == 0
        assert "flexion_extension" in result.stdout

    def test_version(self):
        result = run_cli("--version")
        assert result.returncode == 0
