import argparse
import codecs
import contextlib
import hashlib
import io
import json
import math
import os
import pickle
import platform
import runpy
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from hlaskit import cli, commands, config_io, example, tables
from hlaskit.cli import main
from hlaskit.config_io import (
    build_pairs,
    load_measurements,
    mask_table,
    read_log,
    write_log,
)
from hlaskit.envelope import hee_coverage
from hlaskit.errors import DataError, DuplicateKey, InvalidRecord
from hlaskit.example import GOLDEN_TABLES, example_data_dir
from hlaskit.prereg import load_preregistration_file
from hlaskit.readers import (
    read_bandwidth_file,
    read_bands,
    read_capability_map,
    read_dof_file,
    read_efficiency_file,
    read_rom_file,
    read_thermal_file,
)
from hlaskit.record import replace
from hlaskit.scoring import hlas
from hlaskit.signals import (
    DEFAULT_PLATEAU_WINDOW_S,
    DEFAULT_SLOPE_LIMIT_C_PER_S,
    compute_frf,
    find_crossover,
    fit_friction,
)
from hlaskit.synthetic import (
    DutyProfile,
    SyntheticActuator,
    generate_backdrive_log,
    generate_sweep_log,
)
from hlaskit.tables import _read_columns, read_header, table_blocks


SRC = Path(__file__).resolve().parents[1] / "src"


def _read_rows(path):
    """``(meta, header, rows)`` of the table at ``path`` as the library
    reads it (``_read_columns``), every cell as text."""
    meta, columns, _ = _read_columns(path, (), (), ())
    return meta, list(columns), list(map(list, zip(*columns.values())))


def run_python(*args, env=(), **kwargs):
    """``python *args`` in a child process that imports ``hlaskit`` from
    this checkout, as the tests here do (``pyproject.toml``), with the
    environment variables ``env`` set for the child only."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, **dict(env),
           "PYTHONPATH": os.pathsep.join([str(SRC), *filter(None, [path])])}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, **kwargs)


def run_cli(*args):
    """``python -m hlaskit.cli`` in a child process (``run_python``)."""
    return run_python("-m", "hlaskit.cli", *args)


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
        _, _, rows = _read_rows(out / "summary.csv")
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
        _, header, rows = _read_rows(out / "rom_overlays.csv")
        overlay = {tuple(row[:3]): row[3:] for row in rows}
        assert overlay[("Walk", "ankle", "axial_rotation")][2:] == ["", ""]
        _, header, rows = _read_rows(out / "feature_table.csv")
        walk_ankle = next(row for row in rows if row[:2] == ["Walk", "ankle"])
        assert 0 < float(walk_ankle[header.index("rom")]) < 1

    def test_rom_wider_than_the_float_range_scores(self, data_dir, tmp_path):
        """A functional width of 2e308 overflowed to inf, and ``hlas score``
        exited 3 with ``feature rom=nan outside [0, 1]``."""
        prereg = data_dir / "prereg.yaml"
        prereg.write_text(prereg.read_text().replace(
            "    ankle: {plantarflexion: [0, 25]}\n",
            "    ankle: {plantarflexion: [-1e308, 1e308]}\n", 1))
        rom = data_dir / "rom_robot.csv"
        rom.write_text(rom.read_text().replace(
            "ankle,plantarflexion,-5,22", "ankle,plantarflexion,-1e308,1e308"))
        out = tmp_path / "r"
        assert main(["score", "--prereg", str(prereg),
                     "--data", str(data_dir), "--out", str(out)]) == 0
        _, header, rows = _read_rows(out / "feature_table.csv")
        walk_ankle = next(row for row in rows if row[:2] == ["Walk", "ankle"])
        assert float(walk_ankle[header.index("rom")]) == 1.0

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

    def test_map_of_another_joint_is_refused(self, data_dir, tmp_path,
                                             capsys):
        """A map is matched to a band by its (q, omega) points alone, so a
        map of another joint on the same grid scored as the joint named."""
        other = data_dir / "capability_knee_on_ankle_grid.csv"
        other.write_text((data_dir / "capability_ankle.csv").read_text()
                         .replace("\nankle,", "\nknee,"))
        argv = _hlas_argv("hee", data_dir, None, None)
        argv[argv.index("--map") + 1] = str(other)
        out = tmp_path / "r" / "mask.csv"
        assert main([*argv, "--out", str(out)]) == 3
        assert capsys.readouterr() == ("", (
            f"error: DataError: capability map {other} is of joint 'knee', "
            f"not 'ankle'\n"))
        assert not out.parent.exists()

    def test_mask_file_output(self, data_dir, tmp_path):
        out = tmp_path / "mask.csv"
        run_cli("hee", "--band", str(data_dir / "bands.csv"),
                "--task", "Walk", "--joint", "ankle",
                "--map", str(data_dir / "capability_ankle.csv"),
                "--delta", "0.10", "--out", str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "q_deg,omega_rad_s,weight,torque_ok,power_ok,pass"
        assert sum(l.endswith(",true") for l in lines[1:]) == 1

    def test_mask_file_has_a_run_manifest_and_the_same_stdout(
            self, data_dir, tmp_path, capsys):
        argv = _hlas_argv("hee", data_dir, None, None)
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert sorted(tmp_path.rglob("*")) == before    # nothing written
        out = tmp_path / "r" / "mask.csv"
        out.parent.mkdir()
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == stdout
        assert sorted(out.parent.iterdir()) \
            == [out, out.parent / "run_manifest.json"]
        manifest = json.loads((out.parent / "run_manifest.json").read_text())
        assert manifest["command"] == [*argv, "--out", str(out)]
        band, cap = data_dir / "bands.csv", data_dir / "capability_ankle.csv"
        assert manifest["inputs"] == [
            {"path": str(band), "sha256": _sha256(band)},
            {"path": str(cap), "sha256": _sha256(cap)}]
        assert manifest["outputs"] == [{"path": str(out),
                                        "sha256": _sha256(out)}]

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
        assert out.read_text() == "".join(table_blocks(*mask_table(
            hee_coverage(band, cap))))


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
    # records that refuse a negative torque, coupling or eta, or an eta
    # above 1
    ("capability", "negative"), ("dof", "negative"),
    ("efficiency", "negative"), ("efficiency", "above 1"),
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
        "above 1": lambda cells, *_: [*cells[:-1], "5.0"],
        REPEATS[0]: _repeat_first_row,
        REPEATS[1]: _repeat_first_point_as_float,
    }[defect]
    first, number = _rewrite_third_row(path, edit)

    with pytest.raises(DataError, match=rf"{path.name}: line {number}:") \
            as raised:
        reader(path)
    if kind == "log" and defect == REPEATS[0] \
            or defect in ("negative", "above 1"):
        # a repeated log row breaks the strictly increasing time channel
        assert isinstance(raised.value, InvalidRecord)
        assert isinstance(raised.value, ValueError)
    elif defect in REPEATS:
        assert isinstance(raised.value, DuplicateKey)
        assert f"repeats line {first}" in str(raised.value)
    assert main(_hlas_argv(command, data_dir, path, tmp_path / "r")) == 3
    assert f"line {number}" in capsys.readouterr().err


EXAMPLE_OMEGA_MAX = {"ankle": 14.0, "knee": 8.0, "hip": 6.0,
                     "shoulder": 8.0, "elbow": 8.0, "wrist": 9.0}
# an edit of the example's bandwidth.csv (knee is on line 5, wrist on line
# 9) -> the omega_max_rad_s read per joint, or the error's text after the
# file's path
BANDWIDTH_CASES = {
    "column absent": (
        lambda text: "".join(line.rsplit(",", 1)[0] + "\n"
                             if line.count(",") == 2 else line + "\n"
                             for line in text.splitlines()),
        dict.fromkeys(EXAMPLE_OMEGA_MAX)),
    "empty cells": (
        lambda text: text.replace("knee,7,8", "knee,7,").replace(
            "wrist,12,9", "wrist,12,"),
        {**EXAMPLE_OMEGA_MAX, "knee": None, "wrist": None}),
    "crlf": (lambda text: text.replace("\n", "\r\n"), EXAMPLE_OMEGA_MAX),
    "quoted cell": (lambda text: text.replace("knee,7,8", 'knee,7,"8"'),
                    EXAMPLE_OMEGA_MAX),
    "text cell": (lambda text: text.replace("knee,7,8", "knee,7,abc"),
                  "line 5: omega_max_rad_s 'abc' is not a number"),
    "nan cell": (lambda text: text.replace("knee,7,8", "knee,7,nan"),
                 "line 5: omega_max_rad_s 'nan' is not finite"),
    "space cell": (lambda text: text.replace("knee,7,8", "knee,7, "),
                   "line 5: omega_max_rad_s ' ' is not a number"),
    # every cell is converted before a repeated joint is refused
    "text cell on a repeated joint": (
        lambda text: text.replace("wrist,12,9", "knee,12,abc"),
        "line 9: omega_max_rad_s 'abc' is not a number"),
}


@pytest.mark.parametrize("case", list(BANDWIDTH_CASES))
def test_bandwidth_omega_max_is_optional_per_cell(case, data_dir, tmp_path,
                                                  capsys):
    edit, expected = BANDWIDTH_CASES[case]
    path = data_dir / "bandwidth.csv"
    text = path.read_text()
    path.write_bytes(edit(text).encode())
    assert path.read_bytes() != text.encode()
    code = main(_hlas_argv("score", data_dir, None, tmp_path / "r"))
    err = capsys.readouterr().err
    if isinstance(expected, str):
        with pytest.raises(DataError) as raised:
            read_bandwidth_file(path)
        assert str(raised.value) == f"{path}: {expected}"
        assert (code, err) == (3, f"error: DataError: {path}: {expected}\n")
        return
    read = read_bandwidth_file(path)
    assert read == {joint: (read[joint][0], omega)
                    for joint, omega in expected.items()}
    assert [f for f, _ in read.values()] == [12.0, 7.0, 6.0, 9.0, 10.0, 12.0]
    assert (code, err) == (0, "")


@pytest.mark.parametrize("kind", list(MALFORMED_FILES))
def test_header_naming_a_column_twice_is_a_data_error(kind, data_dir,
                                                      tmp_path, capsys):
    name, reader, command = MALFORMED_FILES[kind]
    path = data_dir / name if name else _backdrive_log(tmp_path)
    lines = path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if line[0] != "#")
    # the last column given twice, the first of the two holding text
    twice = lines[header].rsplit(",", 1)[1]
    lines[header] += f",{twice}"
    for i in range(header + 1, len(lines)):
        cells, last = lines[i].rsplit(",", 1)
        lines[i] = f"{cells},abc,{last}"
    path.write_text("\n".join(lines) + "\n")

    message = (f"{path.name}: line {header + 1}: the header names column "
               f"'{twice}' twice")
    with pytest.raises(DataError, match=message):
        reader(path)
    assert main(_hlas_argv(command, data_dir, path, tmp_path / "r")) == 3
    assert message in capsys.readouterr().err


def _byte_order_marked(path, directory):
    """A copy of ``path`` in ``directory``, under its own name, with a
    UTF-8 byte-order mark in front, as Excel saves "CSV UTF-8"."""
    directory.mkdir(exist_ok=True)
    copy = directory / path.name
    copy.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    return copy


@pytest.mark.parametrize("regular", [True, False],
                         ids=["block path", "per-cell path"])
@pytest.mark.parametrize("kind", list(MALFORMED_FILES))
def test_byte_order_mark_is_dropped(kind, regular, data_dir, tmp_path,
                                    monkeypatch):
    """A byte-order mark was read as part of the first line, so a marked
    copy of ``thermal.csv`` read its first ``#`` line as the header and
    ``hlas score`` refused it for missing columns.  A regular file keeps to
    the block path, mark or not."""
    per_cell, cell_columns = [], tables._cell_columns
    monkeypatch.setattr(tables, "_cell_columns", lambda *args: (
        per_cell.append(args[0]) or cell_columns(*args)))
    name, reader, _ = MALFORMED_FILES[kind]
    path = data_dir / name if name else _backdrive_log(tmp_path)
    if not regular:             # a "#" line after the header is irregular
        path.write_text(path.read_text() + "# end\n")
    marked = _byte_order_marked(path, tmp_path / "marked")
    files = {}
    assert (pickle.dumps(reader(marked, files))
            == pickle.dumps(reader(path)))
    assert files == {marked: _sha256(marked)}
    for read in (_read_rows, read_header):
        assert read(marked) == read(path)
    assert bool(per_cell) != regular


def test_byte_order_marks_change_no_validation_and_no_score(
        data_dir, tmp_path, capsys):
    """Every input marked: ``validate-prereg`` prints the same and ``hlas
    score`` writes the same bundle, but for the input digests in
    ``run_manifest.json``, which are those of the marked bytes.  The band
    file stays unmarked, as its registered digest names its bytes."""
    marked = tmp_path / "marked"
    marked.mkdir()
    for path in data_dir.glob("*.*"):
        if path.name != "bands.csv":
            _byte_order_marked(path, marked)
        else:
            shutil.copy(path, marked / path.name)
    outputs = []
    for directory in (data_dir, marked):
        assert main(_hlas_argv("validate-prereg", directory, None, None)) == 0
        out = tmp_path / f"{directory.name}_out"
        assert main(_hlas_argv("score", directory, None, out)) == 0
        outputs.append((capsys.readouterr().out.replace(str(directory), ""),
                        {p.relative_to(out): p.read_bytes()
                         for p in sorted(out.rglob("*.*"))
                         if p.name != "run_manifest.json"}))
    assert outputs[0] == outputs[1]
    run = json.loads((tmp_path / "marked_out" / "run_manifest.json")
                     .read_text())
    assert all(item["sha256"] == _sha256(Path(item["path"]))
               for item in run["inputs"])


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


def _insert_byte(path, byte, after):
    """Put ``byte`` into the file at ``path`` after the first ``after``;
    return the 1-based line it is on."""
    data = path.read_bytes()
    at = data.index(after) + len(after)
    path.write_bytes(data[:at] + byte + data[at:])
    return data[:at].count(b"\n") + 1


# an input with a byte that is not UTF-8 -> (file in the data dir or a log,
# the bytes it follows, hlas commands)
NOT_UTF8 = {
    "log": (None, b"\n0.003,", ("analyze",)),
    "thermal": ("thermal.csv", b"\nWalk,", ("score", "validate-prereg")),
    "band": ("bands.csv", b"\nWalk,ankle,", ("hee",)),
}


@pytest.mark.parametrize("kind, command", [
    (kind, command) for kind, case in NOT_UTF8.items() for command in case[2]])
def test_input_not_utf8_is_a_data_error_naming_the_line(kind, command,
                                                        data_dir, tmp_path,
                                                        capsys):
    name, after, _ = NOT_UTF8[kind]
    path = data_dir / name if name else _backdrive_log(tmp_path)
    byte = b"\xe9" if name else b"\xff"
    line = _insert_byte(path, byte, after)
    assert main(_hlas_argv(command, data_dir, path, tmp_path / "r")) == 3
    err = capsys.readouterr().err
    assert f"DataError: {path}: line {line}: byte {byte[0]:#04x} is not " \
        f"UTF-8 text" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["score", "validate-prereg"])
def test_registration_not_utf8_is_an_invalid_declaration(command, data_dir,
                                                         tmp_path, capsys):
    line = _insert_byte(data_dir / "prereg.yaml", b"  # r\xe9vis\xe9",
                        b"  Walk: 0.4")
    assert main(_hlas_argv(command, data_dir, None, tmp_path / "r")) == 2
    assert f"InvalidDeclaration: pre-registration: line {line}: byte 0xe9 " \
        f"is not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("analyze", None),
                                           ("score", "--prereg"),
                                           ("hee", "--band")])
def test_unreadable_path_is_a_data_error(command, flag, data_dir, tmp_path,
                                         capsys):
    """A path that names a directory (the log, ``--prereg`` or ``--band``)
    exits 3 with the ``OSError``, not a traceback."""
    directory = tmp_path / "directory"
    directory.mkdir()
    argv = _hlas_argv(command, data_dir, directory, tmp_path / "r")
    if flag:
        argv[argv.index(flag) + 1] = str(directory)
    assert main(argv) == 3
    assert capsys.readouterr().err == (f"error: IsADirectoryError: [Errno "
                                       f"21] Is a directory: '{directory}'\n")


def test_refused_infinity_is_named_not_finite(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["analyze", "thermal", "log.csv", "--window", "inf"])
    assert raised.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "hlas analyze thermal: error: argument --window: 'inf' is not a "
        "finite positive number")


# file kind -> an edit of a row that gives a cell over csv's default field
# size limit (131,072 characters); quotes keep it off the column-wise path,
# and an unquoted text cell is refused on it
OVERSIZED_CELLS = {
    "thermal": lambda cells, *_: [f'"{"T" * 200_000}"', *cells[1:]],
    "log": lambda cells, *_: [*cells[:-1], f'"{"1" * 200_000}"'],
    "thermal unquoted": lambda cells, *_: ["T" * 200_000, *cells[1:]],
}


@pytest.mark.parametrize("kind", list(OVERSIZED_CELLS))
def test_cell_over_the_csv_field_limit_is_a_data_error_naming_the_line(
        kind, data_dir, tmp_path, capsys):
    name, reader, command = MALFORMED_FILES[kind.split()[0]]
    path = data_dir / name if name else _backdrive_log(tmp_path)
    _, number = _rewrite_third_row(path, OVERSIZED_CELLS[kind])
    where = f"{path.name}: line {number}: field larger than field limit"

    for read in (reader, _read_rows):
        with pytest.raises(DataError, match=where):
            read(path)
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
    # accepted, the undeclared pairs were ignored and a typo in a declared
    # deficit scored the intended pair from its data
    "prereg score_as_zero pair not declared": (
        ("use_rate_margin: false\n", "use_rate_margin: false\n"
         "score_as_zero: [[Walk, elbow], [Run, knee]]\n"), [],
        "WeightSumViolation: score_as_zero pair [Run, knee] is not a "
        "declared (task, joint) pair", REGISTRATION),
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
    *((["analyze", "thermal", "log.csv", "--slope-limit", limit],
       "--slope-limit") for limit in ("nan", "-1")),
    *((["hee", "--band", "b.csv", "--task", "Walk", "--joint", "ankle",
        "--map", "m.csv", "--margins", flag, value], flag)
      for flag, value in (("--omega-max", "nan"), ("--omega-max", "-1"),
                          ("--omega-req", "nan"), ("--omega-req", "0"))),
    (["synth", "map", "--out", "m.csv", "--stall", "-1"], "--stall"),
    (["synth", "thermal", "--out", "t", "--thermal-tau", "0"],
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
    # a grid count below 1 (it exited 3 with ``InvalidRange``)
    (["synth", "map", "--out", "m.csv", "--n-q", "0"], "--n-q"),
    (["synth", "map", "--out", "m.csv", "--n-omega", "-3"], "--n-omega"),
    *((["synth", kind, "--out", "s.csv", "--noise", noise], "--noise")
      for kind in ("backdrive", "sweep") for noise in ("-1", "nan")),
    # a negative seed (with noise it ended in NumPy's traceback, exit 1;
    # without it was written to the log's ``# seed:`` header)
    *((["synth", kind, "--out", "s.csv", *noise, "--seed", "-1"], "--seed")
      for kind in ("backdrive", "sweep") for noise in ([], ["--noise", "1"])),
    # a headroom factor must be finite and >= 0 (``--delta inf`` scored
    # every coverage 0)
    *(([*command, "--delta", delta], "--delta")
      for command in (["score", "--prereg", "prereg.yaml", "--data", ".",
                       "--out", "r"], ["example"],
                      ["hee", "--band", "b.csv", "--task", "Walk", "--joint",
                       "ankle", "--map", "m.csv"])
      for delta in ("-0.1", "nan", "inf")),
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


@pytest.mark.parametrize("flags, message", [
    (["--q-lo", "5", "--q-hi", "1", "--n-q", "2"],
     "q range [5.0, 1.0] has lo > hi"),
    (["--omega-lo", "3", "--omega-hi", "3"],
     "omega range is degenerate but n = 5"),
])
def test_refused_grid_range_exits_2(flags, message, tmp_path, capsys):
    """A grid range that ``build_band_grid`` refuses exits 2, as a refused
    flag value does (it exited 3), and writes nothing."""
    assert main(["synth", "map", "--out", str(tmp_path / "m.csv"),
                 *flags]) == 2
    assert capsys.readouterr() == ("", f"error: InvalidRange: {message}\n")
    assert list(tmp_path.iterdir()) == []


# each kind of ``hlas analyze`` with its flags and a value each accepts
ANALYZE_FLAGS = {
    "frf": {"--freqs": "1,2", "--out": "f.csv"},
    "friction": {},
    "thermal": {"--slope-limit": "0.5", "--window": "3"},
    "efficiency": {},
    "qc": {"--f-loaded": "8", "--f-noload": "12"},
}
INAPPLICABLE_FLAGS = [(kind, flag, value) for kind in ANALYZE_FLAGS
                      for other, flags in ANALYZE_FLAGS.items()
                      if other != kind for flag, value in flags.items()]


@pytest.mark.parametrize("kind, flag, value", INAPPLICABLE_FLAGS,
                         ids=[f"{kind} {flag}"
                              for kind, flag, _ in INAPPLICABLE_FLAGS])
def test_analyze_kind_refuses_the_flags_of_other_kinds(
        kind, flag, value, tmp_path, monkeypatch, capsys, file_reads):
    assert len(INAPPLICABLE_FLAGS) == 24
    log = _backdrive_log(tmp_path)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as raised:
        main(["analyze", kind, log.name, flag, value])
    assert raised.value.code == 2
    assert f"error: unrecognized arguments: {flag} {value}" \
        in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [log]
    assert file_reads == {}


# each kind of ``hlas synth`` with the flags that change what it writes,
# and a value each accepts
SYNTH_FLAGS = {
    "map": {"--stall": "40", "--slope": "2", "--joint": "knee",
            "--axis": "abduction", "--q-lo": "-5", "--q-hi": "5",
            "--n-q": "3", "--omega-lo": "1", "--omega-hi": "20",
            "--n-omega": "2"},
    "sweep": {"--pole": "8", "--copper-loss": "0.03", "--freqs": "3",
              "--amplitude": "7", "--noise": "0.2", "--seed": "9"},
    "thermal": {"--thermal-resistance": "0.4", "--thermal-tau": "30",
                "--copper-loss": "0.03", "--duration": "2", "--torque": "40",
                "--temp-limit": "90"},
    "backdrive": {"--j-ref": "0.06", "--b-visc": "0.9", "--f-coulomb": "1.1",
                  "--copper-loss": "0.03", "--duration": "2",
                  "--noise": "0.2", "--seed": "9"},
}
INAPPLICABLE_SYNTH_FLAGS = sorted({
    (kind, flag, value) for kind, flags in SYNTH_FLAGS.items()
    for other in SYNTH_FLAGS.values() for flag, value in other.items()
    if flag not in flags})


@pytest.mark.parametrize("kind, flag, value", INAPPLICABLE_SYNTH_FLAGS,
                         ids=[f"{kind} {flag}"
                              for kind, flag, _ in INAPPLICABLE_SYNTH_FLAGS])
def test_synth_kind_refuses_the_flags_of_other_kinds(
        kind, flag, value, tmp_path, monkeypatch, capsys):
    """With one parser for all kinds, every kind took every flag and
    ignored those that did not apply: ``synth thermal --duration 2 --noise
    0.2 --seed 9 --freqs 3 --amplitude 7`` wrote the bytes of ``synth
    thermal --duration 2``."""
    assert len(INAPPLICABLE_SYNTH_FLAGS) == 67
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as raised:
        main(["synth", kind, "--out", "out.csv", flag, value])
    assert raised.value.code == 2
    assert f"error: unrecognized arguments: {flag} {value}" \
        in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# flags under which each flag of ``SYNTH_FLAGS`` changes what a kind writes
SYNTH_BASE = {"map": ["--q-hi", "10", "--n-q", "2"],
              "sweep": ["--noise", "0.5", "--seed", "1"],
              "thermal": ["--duration", "1"],
              "backdrive": ["--duration", "1", "--noise", "0.5", "--seed", "1"]}


@pytest.mark.parametrize("kind", SYNTH_FLAGS)
def test_synth_kind_flags_each_change_what_it_writes(kind, tmp_path):
    """Each flag a kind takes changes the bytes it writes, so none is
    ignored."""
    base = ["synth", kind, *SYNTH_BASE[kind]]
    assert main([*base, "--out", str(tmp_path / "base.csv")]) == 0
    written = (tmp_path / "base.csv").read_bytes()
    for flag, value in SYNTH_FLAGS[kind].items():
        out = tmp_path / f"{flag[2:]}.csv"
        assert main([*base, flag, value, "--out", str(out)]) == 0
        assert out.read_bytes() != written, flag


@pytest.mark.parametrize("kind", [kind for kind, flags in SYNTH_FLAGS.items()
                                  if "--duration" in flags])
def test_synth_duration_under_two_samples_exits_2(kind, tmp_path, capsys):
    """``--duration 0.0004`` is one 1 kHz sample: backdrive ended in NumPy's
    gradient ``ValueError`` and thermal in a log error (exit 3) naming no
    flag.  ``--duration 0.001`` is two samples and writes a log."""
    out = tmp_path / f"{kind}.csv"
    assert main(["synth", kind, "--out", str(out), "--duration",
                 "0.0004"]) == 2
    assert capsys.readouterr().err == (
        "error: PlantParameter: duration 0.0004 s gives fewer than two "
        "samples at 1000 Hz\n")
    assert list(tmp_path.iterdir()) == []
    assert main(["synth", kind, "--out", str(out), "--duration",
                 "0.001"]) == 0
    assert read_log(out).t.tolist() == [0.0, 0.001]


# each far past 2**47 bytes of float64 samples, which no machine can
# allocate: (argv, duration, sample count)
UNALLOCATABLE_SYNTH = [
    (["thermal", "--duration", "1e13"], "10000000000000.0", "1e+16"),
    (["backdrive", "--duration", "1e13"], "10000000000000.0", "1e+16"),
    (["backdrive", "--duration", "1e300"], "1e+300", "1e+303"),
    (["sweep", "--freqs", "1e-300"], "4.9999999999999997e+300", "5e+303"),
    (["backdrive", "--duration", "1e306"], "1e+306", "inf"),
]


@pytest.mark.parametrize("argv, duration, samples", UNALLOCATABLE_SYNTH,
                         ids=[" ".join(argv) for argv, _, _ in
                              UNALLOCATABLE_SYNTH])
def test_synth_duration_past_any_allocation_exits_2(argv, duration, samples,
                                                     tmp_path, capsys):
    """``--duration 1e13`` ended in NumPy's ``_ArrayMemoryError`` (exit 1),
    ``1e300`` and ``--freqs 1e-300`` in its ``Maximum allowed size
    exceeded`` and ``1e306`` in the ``OverflowError`` of ``round(inf)``."""
    assert main(["synth", *argv, "--out", str(tmp_path / "log.csv")]) == 2
    assert capsys.readouterr().err == (
        f"error: PlantParameter: duration {duration} s gives {samples} "
        f"samples at 1000 Hz, more than can be allocated\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, channel", [
    (["thermal", "--torque", "1e200", "--duration", "1"], "i_bus inf"),
    (["sweep", "--amplitude", "1e308"], "torque -inf"),
])
def test_synth_overflow_is_one_error_line(argv, channel, tmp_path):
    """An overflowing parameter printed NumPy's ``RuntimeWarning``s, each
    with its source line, before the writer's refusal."""
    result = run_cli("synth", *argv, "--out", str(tmp_path / "log.csv"))
    assert result.returncode == 3
    assert result.stderr == \
        f"error: InvalidRecord: {channel} is not finite\n"


def test_library_warning_is_one_line(tmp_path):
    """A library warning printed Python's ``file:line: Category:`` form and
    then a line of source code; ``hlas`` prints its message alone."""
    band, cap = tmp_path / "band.csv", tmp_path / "map.csv"
    band.write_text("task,joint,q_deg,omega_rad_s,torque_hum_nm,power_hum_w\n"
                    "T,j,0,1,10,10\nT,j,0,2,5,0\nT,j,0,3,4,-1\n")
    cap.write_text("# conditions: bench\n"
                   "joint,axis,q_deg,omega_rad_s,torque_nm\n"
                   "j,flexion,0,1,20\nj,flexion,0,2,20\nj,flexion,0,3,20\n")
    result = run_cli("hee", "--band", str(band), "--task", "T", "--joint",
                     "j", "--map", str(cap), "--margins")
    assert result.returncode == 0
    assert result.stderr == (
        "warning: 2 sample(s) with nonpositive power demand excluded from "
        "the power margin of T/j\n")
    assert result.stdout.endswith(
        "torque_margin 1.0000 power_margin 1.0000 rate_margin 1.0000 (min)\n")


def test_frf_warning_is_one_line(tmp_path, capsys, monkeypatch):
    """``analyze frf``'s ``NotMonotoneWarning`` takes the same one line."""
    from hlaskit.signals import FrfPoint

    log = tmp_path / "sweep.csv"
    assert main(["synth", "sweep", "--out", str(log)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(commands, "compute_frf", lambda log, freqs: [
        FrfPoint(f, m, 0.0) for f, m in zip((1, 2, 4, 8), (1, .5, 1, .5))])
    assert main(["analyze", "frf", str(log)]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("f_c = 1.")
    assert err == ("warning: FRF magnitude crosses -3 dB 2 times at "
                   "[1.414, 5.657] Hz; reporting the first\n")


# a fresh interpreter runs ``main`` on each argv in turn, then prints the
# exit codes and which of PyYAML and ``numpy.ma`` it has loaded
STARTUP_SCRIPT = """
import contextlib, io, json, sys
from hlaskit.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps([codes, sorted({"yaml", "numpy.ma"} & set(sys.modules))]))
"""


def _startup(tmp_path, *argvs):
    result = run_python("-c", STARTUP_SCRIPT, json.dumps(argvs),
                        cwd=tmp_path, check=True)
    return json.loads(result.stdout)


def test_log_commands_load_neither_yaml_nor_numpy_ma(tmp_path):
    """Only a registration parse needs PyYAML, and ``np.median`` and
    ``np.percentile`` (which ``analyze friction`` used) import
    ``numpy.ma``: a log command pays for neither."""
    codes, loaded = _startup(
        tmp_path,
        ["synth", "thermal", "--duration", "15", "--out", "thermal.csv"],
        ["synth", "backdrive", "--duration", "10", "--noise", "0.01",
         "--seed", "1", "--out", "backdrive.csv"],
        ["synth", "sweep", "--out", "sweep.csv"],
        ["analyze", "thermal", "thermal.csv"],
        ["analyze", "qc", "thermal.csv"],
        ["analyze", "friction", "backdrive.csv"],
        ["analyze", "frf", "sweep.csv"])
    assert codes == [0] * 7
    assert loaded == []


def test_validate_prereg_loads_yaml(tmp_path, data_dir):
    codes, loaded = _startup(
        tmp_path, _hlas_argv("validate-prereg", data_dir, None, None))
    assert codes == [0]
    assert "yaml" in loaded


# each flag whose default the library defines: (argv, attribute, value)
LIBRARY_DEFAULTS = [
    (["analyze", "thermal", "log.csv"], "slope_limit",
     DEFAULT_SLOPE_LIMIT_C_PER_S),
    (["analyze", "thermal", "log.csv"], "window", DEFAULT_PLATEAU_WINDOW_S),
    (["synth", "thermal", "--out", "t.csv"], "temp_limit",
     DutyProfile.temp_limit_c),
]


@pytest.mark.parametrize("argv, attribute, value", LIBRARY_DEFAULTS,
                         ids=[f"{argv[1]} {attribute}"
                              for argv, attribute, _ in LIBRARY_DEFAULTS])
def test_flag_default_is_the_library_constant(argv, attribute, value):
    """The parser holds the library's own object, not a copy of its value
    that a change to the library would leave behind."""
    args = cli.build_parser(argv).parse_args(argv)
    assert getattr(args, attribute) is value


def test_sweep_and_frf_probe_the_same_frequencies():
    sweep = cli.build_parser(["synth"]).parse_args(
        ["synth", "sweep", "--out", "s.csv"])
    frf = cli.build_parser(["analyze"]).parse_args(
        ["analyze", "frf", "s.csv"])
    assert sweep.freqs == frf.freqs == [1.0, 2.0, 5.0, 10.0, 20.0, 30.0]


@pytest.mark.parametrize("given, missing", [("--f-loaded", "--f-noload"),
                                            ("--f-noload", "--f-loaded")])
def test_qc_refuses_one_bandwidth_flag_without_the_other(
        given, missing, tmp_path, capsys, file_reads):
    log = _backdrive_log(tmp_path)
    with pytest.raises(SystemExit) as raised:
        main(["analyze", "qc", str(log), given, "8"])
    assert raised.value.code == 2
    assert f"hlas analyze qc: error: argument {missing}: required with " \
        f"{given}" in capsys.readouterr().err
    assert file_reads == {}


@pytest.mark.parametrize("flag, value", [("--omega-max", "0"),
                                         ("--omega-req", "2"),
                                         ("--margin-method", "quantile10")])
def test_hee_refuses_a_margin_flag_without_margins(flag, value, data_dir,
                                                   tmp_path, capsys,
                                                   file_reads):
    """The margin flags are read only with ``--margins``; without it they
    exit 2 at the parser, where they used to be ignored."""
    out = tmp_path / "mask.csv"
    argv = _hlas_argv("hee", data_dir, None, None) + [flag, value]
    with pytest.raises(SystemExit) as raised:
        main(argv + ["--out", str(out)])
    assert raised.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"hlas hee: error: argument --margins: required with {flag}" \
        in captured.err
    assert not out.exists() and file_reads == {}
    assert main(argv + ["--margins"]) == 0
    margins = capsys.readouterr().out.splitlines()[-1]
    assert margins.startswith("torque_margin ")


def test_hee_margin_flags_keep_their_defaults(data_dir, capsys):
    argv = _hlas_argv("hee", data_dir, None, None) + ["--margins"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(argv + ["--omega-max", "1", "--omega-req", "1",
                        "--margin-method", "min"]) == 0
    assert capsys.readouterr().out == default


# argvs whose text the parser writes: the help of each of the 18 parsers,
# and each way ``hlas`` exits at the parser (an unrecognized flag prints
# the usage of ``hlas``, which names every command); none reads a file
PARSER_TEXT_ARGVS = [
    [], ["-h"], ["--version"], ["bogus"], ["analyze"], ["analyze", "bogus"],
    ["synth", "bogus"],
    *([command, "-h"] for command in ("score", "hee", "analyze",
                                      "validate-prereg", "synth", "example",
                                      "atlas")),
    *(["analyze", kind, "-h"] for kind in ANALYZE_FLAGS),
    *(["synth", kind, "-h"] for kind in SYNTH_FLAGS),
    ["atlas", "show", "-h"],
    ["score"], ["example", "--delta", "inf"], ["atlas", "show", "nope"],
    ["example", "--bogus"], ["analyze", "thermal", "t.csv", "--f-loaded", "5"],
    ["analyze", "qc", "t.csv", "--f-loaded", "5"],
]
# their exit codes, standard output and standard error at 80 columns
PARSER_TEXT = json.loads(
    Path(__file__).with_name("parser_text.json").read_text())


def _parser_text(argv) -> dict:
    """The exit code, standard output and standard error of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


@pytest.mark.skipif(
    f"{sys.version_info[0]}.{sys.version_info[1]}" != PARSER_TEXT["python"],
    reason="argparse formats help and usage differently in other Pythons")
@pytest.mark.parametrize("argv, expected",
                         zip(PARSER_TEXT_ARGVS, PARSER_TEXT["cases"]),
                         ids=[" ".join(argv) or "no argument"
                              for argv in PARSER_TEXT_ARGVS])
def test_parser_text_is_pinned(argv, expected, monkeypatch):
    """The help, usage and error text of the parser, and its exit codes,
    byte for byte, however much of the parser tree ``main`` builds."""
    assert len(PARSER_TEXT_ARGVS) == len(PARSER_TEXT["cases"]) == 30
    monkeypatch.setenv("COLUMNS", "80")
    assert _parser_text(argv) == expected


@pytest.mark.parametrize("defect", [None, "text cell"])
def test_crlf_log_reads_as_its_lf_twin(defect, tmp_path, capsys):
    """A CRLF log takes the block path, its CRs dropped, and with a defect
    the per-cell path: its values, output, messages and line numbers are
    those of the same log with LF line ends."""
    lf, number = _backdrive_log(tmp_path), None
    if defect:
        _, number = _rewrite_third_row(lf, lambda cells, *_: [*cells[:-1],
                                                              "abc"])
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert crlf.read_bytes().count(b"\r\n") == lf.read_bytes().count(b"\n")
    results = []
    for path in (lf, crlf):
        code = main(["analyze", "efficiency", str(path)])
        out, err = capsys.readouterr()
        results.append((code, out, err.replace(str(path), "LOG")))
    assert results[0] == results[1]
    if defect:
        assert results[0][0] == 3
        assert f"LOG: line {number}: temp_gear_c 'abc'" in results[0][2]
        return
    assert results[0][0] == 0
    got, want = read_log(crlf), read_log(lf)
    for name in ("t", "q", "omega", "torque", "torque_cmd", "v_bus", "i_bus",
                 "temp_motor", "temp_gear"):
        assert repr(getattr(got, name).tolist()) \
            == repr(getattr(want, name).tolist())
    assert (got.sample_rate, got.conditions, got.seed) \
        == (want.sample_rate, want.conditions, want.seed)


def test_crlf_band_and_map_read_as_their_lf_twins(data_dir, tmp_path,
                                                  capsys):
    """CRLF band and capability files take the block path, their CRs
    dropped: their values and output are those of the same files with LF
    line ends."""
    crlf_dir = tmp_path / "crlf"
    crlf_dir.mkdir()
    for name in ("bands.csv", "capability_ankle.csv"):
        lf = (data_dir / name).read_bytes()
        assert b"\r" not in lf
        (crlf_dir / name).write_bytes(lf.replace(b"\n", b"\r\n"))
    results = []
    for directory in (data_dir, crlf_dir):
        code = main([*_hlas_argv("hee", directory, None, None), "--margins",
                     "--omega-max", "12", "--omega-req", "10"])
        results.append((code, *capsys.readouterr()))
    assert results[0] == results[1] and results[0][0] == 0
    got = read_bands(crlf_dir / "bands.csv")
    want = read_bands(data_dir / "bands.csv")
    assert list(got) == list(want)
    for key, band in want.items():
        for name in ("q", "omega", "torque_hum", "power_hum", "weight"):
            assert repr(getattr(got[key], name).tolist()) \
                == repr(getattr(band, name).tolist())
    got = read_capability_map(crlf_dir / "capability_ankle.csv")
    want = read_capability_map(data_dir / "capability_ankle.csv")
    assert (got.joint, got.axis, got.conditions) \
        == (want.joint, want.axis, want.conditions)
    for name in ("q", "omega", "torque_rob"):
        assert repr(getattr(got, name).tolist()) \
            == repr(getattr(want, name).tolist())


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
            _, _, rows = _read_rows(out / "summary.csv")
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

    @pytest.mark.parametrize("command", ["score", "example"])
    def test_undeclared_gate_is_refused_alike(self, command, tmp_path,
                                              monkeypatch, capsys):
        """``example --gate Nope`` exited 3 (``MissingJoint``) where
        ``score --gate Nope`` exits 2; both now validate the gated scheme
        before writing anything."""
        data, out = example_data_dir(), tmp_path / "out"
        monkeypatch.chdir(tmp_path)     # where ``example`` would write
        argv = _score_argv(data, out) if command == "score" else ["example"]
        assert main([*argv, "--gate", "Walk", "--gate", "Nope"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", (
            "error: WeightSumViolation: critical tasks ['Nope'] are not "
            "declared tasks\n"))
        assert list(tmp_path.iterdir()) == []


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _score_argv(data_dir, out):
    return ["score", "--prereg", str(data_dir / "prereg.yaml"),
            "--data", str(data_dir), "--out", str(out)]


# sha256 of the manifest.json of ``hlas score`` on the registration that
# perfbench/gen.py writes for seed 7: 12 joints x 3 tasks, each pair on an
# 8 x 8 grid (2,304 band samples); the manifest lists every bundle file's
# sha256, so this pins the whole bundle
GENERATED_MANIFEST_SHA256 = (
    "d97e88d5b79b5f401ecb746e0834d8ba8f4137e18512f8fb0f053dc0c9d6cd21")


# sha256 of the manifest.json of ``hlas example``, which pins the example
# bundle as the golden tables pin five of its files
EXAMPLE_MANIFEST_SHA256 = (
    "5086f97158b825594aac065d930fc33aafa8fd46bdda1fa14f7908b935e1c760")


# the flags and the sha256 of the output of each ``hlas synth`` kind
SYNTH_PINS = {
    "map": ([], "e7f6fb76e14711672f4f986cee437e33"
                "ea8cba11fa3fde04687802bbefd64cca"),
    "thermal": ([], "f1f1222c26c2402b3afa9668d2b0a722"
                    "29518ea500614a28a02f7ed0161230c7"),
    "backdrive": (["--noise", "0.01", "--seed", "3"],
                  "48097330c42023ac5a650224a242eba0"
                  "f3092cb47e350c5bf6b46515bfb6ad30"),
    "sweep": ([], "6047e335014506d564fb37cde3ea082e"
                  "57f2202771de2fa687106e382b81a323"),
}


def _synth_argv(kind, out):
    return ["synth", kind, *SYNTH_PINS[kind][0], "--out", str(out)]


def _generated_registration(data):
    gen = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    runpy.run_path(str(gen))["write_registration"](
        data, seed=7, n_joints=12, n_tasks=3, grid=8)


def test_generated_registration_bundle_is_pinned(tmp_path, capsys):
    data = tmp_path / "data"
    _generated_registration(data)
    assert main(_score_argv(data, tmp_path / "out")) == 0
    assert _sha256(tmp_path / "out" / "manifest.json") \
        == GENERATED_MANIFEST_SHA256


def test_example_bundle_is_pinned(tmp_path, capsys):
    assert main(["example", "--out", str(tmp_path / "out")]) == 0
    assert _sha256(tmp_path / "out" / "manifest.json") \
        == EXAMPLE_MANIFEST_SHA256


# NumPy's x86-64 dispatch targets above its X86_V3 kernels (NumPy 2.4);
# NumPy refuses to disable AVX512F or AVX512_SKX by name, with an
# ImportWarning
AVX512_TARGETS = "X86_V4 AVX512_ICL AVX512_SPR"

BASELINE_KERNELS_SCRIPT = """
import json, sys
from numpy._core._multiarray_umath import __cpu_features__
from hlaskit.cli import main
targets, argvs = sys.argv[1].split(), json.loads(sys.argv[2])
assert not any(__cpu_features__.get(t) for t in targets), targets
sys.exit(max(map(main, argvs)))
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the CPU targets named are those of x86-64")
def test_pinned_bundles_hold_on_older_kernels(tmp_path, capsys):
    """Both pinned bundles, and so the exact golden check, the pinned
    ``synth`` outputs and the ``analyze frf`` tables of the pinned sweep
    and of a 25 Hz pole's come out the same with OpenBLAS's Sandybridge
    kernels and without NumPy's AVX-512 loops, set for a child process
    only.  The FRF table differed in its last digits while its projections
    were BLAS dot products, and the 25 Hz pole's crossover while its dB
    were NumPy's ``log10``."""
    data, example_out = tmp_path / "data", tmp_path / "example"
    _generated_registration(data)
    sweeps = [tmp_path / "sweep.csv", tmp_path / "pole25.csv"]
    argvs = [["example", "--out", str(example_out)],
             _score_argv(data, tmp_path / "generated"),
             *(_synth_argv(kind, tmp_path / f"{kind}.csv")
               for kind in SYNTH_PINS),
             ["synth", "sweep", "--pole", "25", "--out", str(sweeps[1])],
             *(["analyze", "frf", str(sweep), "--out",
                str(sweep.with_suffix(".frf"))] for sweep in sweeps)]
    result = run_python(
        "-W", "error::ImportWarning", "-c", BASELINE_KERNELS_SCRIPT,
        AVX512_TARGETS, json.dumps(argvs),
        env={"OPENBLAS_CORETYPE": "Sandybridge",
             "NPY_DISABLE_CPU_FEATURES": AVX512_TARGETS})
    assert result.returncode == 0, result.stderr
    assert "golden tables match" in result.stdout
    assert _sha256(example_out / "manifest.json") == EXAMPLE_MANIFEST_SHA256
    assert _sha256(tmp_path / "generated" / "manifest.json") \
        == GENERATED_MANIFEST_SHA256
    for kind, (_, digest) in SYNTH_PINS.items():
        assert _sha256(tmp_path / f"{kind}.csv") == digest, kind
    for sweep in sweeps:
        own = sweep.with_suffix(".own")
        assert main(["analyze", "frf", str(sweep), "--out", str(own)]) == 0
        assert sweep.with_suffix(".frf").read_bytes() == own.read_bytes(), \
            sweep.name


# fit_friction on four backdrive logs, (seed, duration s, noise Nm), and
# steady_trend on a thermal log, as the hex of every field; a script, so
# that a child process runs the same code as this one
KERNEL_FITS_SCRIPT = """
import json, sys
from hlaskit.record import fields
from hlaskit.signals import fit_friction, steady_trend
from hlaskit.synthetic import (DutyProfile, SyntheticActuator,
                               generate_backdrive_log,
                               generate_thermal_duty_log)

def fits():
    hexes = []
    for seed, duration, noise in [(0, 10.0, 0.01), (1, 6.001, 0.05),
                                  (2, 25.001, 0.2), (3, 10.0, 1.0)]:
        fit = fit_friction(generate_backdrive_log(
            SyntheticActuator(), duration=duration, noise_std=noise,
            seed=seed))
        hexes.append([getattr(fit, f.name).hex() for f in fields(fit)])
    act = SyntheticActuator(thermal_resistance=0.5, copper_loss_coeff=0.02,
                            thermal_time_constant=10.0)
    duty = DutyProfile(duration_s=150.0, temp_limit_c=150.0)
    hexes.append(steady_trend(
        generate_thermal_duty_log(act, duty, 40.0))[1].hex())
    return hexes

if __name__ == "__main__":
    from numpy._core._multiarray_umath import __cpu_features__
    targets = sys.argv[1].split()
    assert not any(__cpu_features__.get(t) for t in targets), targets
    print(json.dumps(fits()))
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the CPU targets named are those of x86-64")
def test_fits_hold_on_older_kernels():
    """``fit_friction`` and ``steady_trend`` give the same bits with
    OpenBLAS's Sandybridge kernels and without NumPy's AVX-512 loops, set
    for a child process only.  All four fits differed in their last digits
    while they were LAPACK's ``lstsq``, and the trend while it was
    ``np.polyfit``."""
    result = run_python(
        "-c", KERNEL_FITS_SCRIPT, AVX512_TARGETS,
        env={"OPENBLAS_CORETYPE": "Sandybridge",
             "NPY_DISABLE_CPU_FEATURES": AVX512_TARGETS})
    assert result.returncode == 0, result.stderr
    namespace = {"__name__": "kernel_fits"}
    exec(KERNEL_FITS_SCRIPT, namespace)
    assert json.loads(result.stdout) == namespace["fits"]()


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
        read += [data / "golden" / name for name in GOLDEN_TABLES]
        assert file_reads == {path.resolve(): 1 for path in read}
        assert sum(file_reads.values()) == 18

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
        copies = [tmp_path / "registered.csv", tmp_path / "altered.csv"]
        for copy, data in zip(copies, (registered, altered)):
            copy.write_bytes(data)
        walk_ankle = [read_bands(copy)[("Walk", "ankle")] for copy in copies]
        assert hee_coverage(walk_ankle[1], cap).coverage \
            < hee_coverage(walk_ankle[0], cap).coverage

    def test_analyze_reads_its_log_once(self, tmp_path, capsys, file_reads):
        log = _backdrive_log(tmp_path)
        assert main(["analyze", "qc", str(log)]) == 0
        assert "power balance: pass" in capsys.readouterr().out
        assert file_reads == {log.resolve(): 1}

    def test_frf_out_reads_its_log_once(self, tmp_path, capsys, file_reads):
        sweep, out = tmp_path / "sweep.csv", tmp_path / "frf.csv"
        assert main(["synth", "sweep", "--freqs", "5,10",
                     "--out", str(sweep)]) == 0
        assert main(["analyze", "frf", str(sweep), "--freqs", "5,10",
                     "--out", str(out)]) == 0
        assert file_reads == {sweep.resolve(): 1}
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["inputs"] == [{"path": str(sweep),
                                       "sha256": _sha256(sweep)}]
        assert manifest["outputs"] == [{"path": str(out),
                                        "sha256": _sha256(out)}]

    @pytest.mark.parametrize("argv, seed", [
        (["map"], None),
        (["sweep", "--freqs", "5", "--seed", "7"], 7),
        (["thermal", "--duration", "1"], None),
        (["backdrive", "--duration", "1", "--seed", "7"], 7),
        (["backdrive", "--duration", "1"], None),
    ], ids=lambda case: " ".join(case) if isinstance(case, list) else None)
    def test_synth_reads_nothing_back_and_records_the_log_seed(
            self, argv, seed, tmp_path, capsys, file_reads):
        out = tmp_path / "out.csv"
        assert main(["synth", *argv, "--out", str(out)]) == 0
        assert file_reads == {}
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["inputs"] == []
        assert manifest["outputs"] == [{"path": str(out),
                                        "sha256": _sha256(out)}]
        assert manifest["seed"] == seed

    @pytest.mark.parametrize("command", ["score", "example"])
    def test_run_manifest_digests_are_the_bytes_on_disk(self, command,
                                                        data_dir, tmp_path):
        out = tmp_path / "r"
        argv = (_score_argv(data_dir, out) if command == "score"
                else ["example", "--out", str(out)])
        assert main(argv) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        listed = manifest["inputs"] + manifest["outputs"]
        assert [Path(entry["path"]).name for entry in manifest["inputs"]] \
            == ["prereg.yaml", "bands.csv",
                *(name for name in EXAMPLE_CSVS
                  if name.startswith("capability_")),
                "rom_robot.csv", "dof_report.csv", "bandwidth.csv",
                "efficiency.csv", "thermal.csv"]
        assert len(manifest["outputs"]) == len(
            [p for p in out.rglob("*") if p.is_file()]) - 1
        assert all(_sha256(Path(entry["path"])) == entry["sha256"]
                   for entry in listed)


    @pytest.mark.parametrize("command", [
        "score", "example", "synth", "analyze frf", "process argv"])
    def test_run_manifest_records_the_argv_main_parsed(
            self, command, data_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["host", "--some-host-flag"])
        out, sweep = tmp_path / "r", tmp_path / "sweep.csv"
        argv = {
            "score": _score_argv(data_dir, out),
            "example": ["example", "--out", str(out)],
            "synth": ["synth", "sweep", "--freqs", "5,10",
                      "--out", str(out / "sweep.csv")],
            "analyze frf": ["analyze", "frf", str(sweep), "--freqs", "5,10",
                            "--out", str(out / "frf.csv")],
            "process argv": ["synth", "map", "--out", str(out / "m.csv")],
        }[command]
        out.mkdir()
        assert main(["synth", "sweep", "--freqs", "5,10",
                     "--out", str(sweep)]) == 0
        if command == "process argv":   # main() parses the process's argv
            monkeypatch.setattr(sys, "argv", ["hlas", *argv])
            assert main() == 0
        else:
            assert main(argv) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == argv


class TestOneParserPerCommand:
    """``main`` builds the parser of the command ``argv`` names, with its
    kinds, and no other; only an argv that names no command builds all
    18."""

    @pytest.mark.parametrize("command, parsers", [
        ("example", 2), ("score", 2), ("analyze thermal", 7),
        ("synth thermal", 6), ("-h", 18)])
    def test_parsers_built(self, command, parsers, data_dir, tmp_path,
                           monkeypatch, capsys):
        log, out = tmp_path / "log" / "thermal.csv", str(tmp_path / "out")
        log.parent.mkdir()
        argv = {
            "example": ["example", "--out", out],
            "score": _score_argv(data_dir, out),
            "analyze thermal": ["analyze", "thermal", str(log),
                                "--window", "1"],
            "synth thermal": ["synth", "thermal", "--duration", "2",
                              "--out", str(log)],
            "-h": ["-h"],
        }[command]
        assert main(["synth", "thermal", "--duration", "2",
                     "--out", str(log)]) == 0
        built, init = [], argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        try:
            assert main(argv) == 0
        except SystemExit as exc:
            assert exc.code == 0
        assert len(built) == parsers


class TestOneCopyOfTheLog:
    """Traced peaks of writing and parsing a 12 s, 1 kHz thermal log, as
    multiples of the log's size.  ``write_log`` (``write_table``) formats,
    encodes, writes and hashes one block of rows at a time, and ``hlas
    analyze`` reads and parses the file one block at a time, so neither
    holds the log's text: ``synth thermal`` peaks at 0.99x (0.90x when
    each row was formatted on its own; 3.29x when the whole text was built,
    then encoded) and ``analyze qc`` at 1.27x (2.12x when the bytes were
    read whole and the text decoded; 7.84x when the whole body was split at
    once).  ``read_log`` itself holds one block's bytes, text and cells and
    the float columns: 1.19x (2.04x when it read the text whole).  The CRLF
    twin of the log takes the same block path: ``analyze qc`` 1.24x
    (10.34x when CRLF sent it to the per-cell path)."""

    @pytest.fixture(scope="class")
    def thermal(self, tmp_path_factory):
        log = tmp_path_factory.mktemp("log") / "thermal.csv"
        assert main(["synth", "thermal", "--duration", "12", "--torque",
                     "110", "--thermal-tau", "2.4", "--out", str(log)]) == 0
        return log

    @staticmethod
    def _peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_synth_thermal_peak(self, thermal, tmp_path, capsys):
        argv = ["synth", "thermal", "--duration", "12", "--torque", "110",
                "--thermal-tau", "2.4", "--out", str(tmp_path / "t.csv")]
        assert self._peak(lambda: main(argv)) \
            < 1.5 * thermal.stat().st_size

    def test_analyze_qc_peak(self, thermal, capsys):
        argv = ["analyze", "qc", str(thermal)]
        assert main(argv) == 0      # once untraced, for one-time allocations
        assert self._peak(lambda: main(argv)) \
            < 1.6 * thermal.stat().st_size

    def test_analyze_qc_crlf_peak(self, thermal, tmp_path, capsys):
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(thermal.read_bytes().replace(b"\n", b"\r\n"))
        argv = ["analyze", "qc", str(crlf)]
        assert main(argv) == 0
        assert self._peak(lambda: main(argv)) < 1.6 * crlf.stat().st_size

    def test_read_log_peak(self, thermal):
        assert self._peak(lambda: read_log(thermal)) \
            < 1.5 * thermal.stat().st_size


class TestUncoveredWriterBytes:
    def test_synth_map_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(_synth_argv("map", out)) == 0
        assert _sha256(out) == SYNTH_PINS["map"][1]

    @pytest.mark.parametrize("kind", ["thermal", "backdrive", "sweep"])
    def test_synth_log_bytes_are_pinned(self, kind, tmp_path):
        out = tmp_path / "log.csv"
        assert main(_synth_argv(kind, out)) == 0
        assert _sha256(out) == SYNTH_PINS[kind][1]

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
        meta, header, rows = _read_rows(out)
        assert header == ["freq_hz", "magnitude", "phase_deg"]
        assert [float(row[0]) for row in rows] == [2, 5, 10, 20, 40]
        assert all(math.isfinite(float(cell)) for row in rows
                   for cell in row)
        crossover, margin = meta["crossover_hz"].split(", phase_margin_deg: ")
        assert abs(float(crossover) - 10.0) < 0.05
        assert math.isfinite(float(margin))

    def test_frf_of_a_log_with_no_command_is_one_error_line(self, tmp_path,
                                                             capsys):
        """A sweep log whose commanded torque is zero."""
        sweep = generate_sweep_log(SyntheticActuator(), [2.0], 1.0)
        log = tmp_path / "idle.csv"
        write_log(replace(sweep, torque_cmd=np.zeros(len(sweep.t))), log)
        assert main(["analyze", "frf", str(log), "--freqs", "2,5"]) == 3
        assert capsys.readouterr() == ("", (
            "error: InsufficientExcitation: commanded torque has no content "
            "at 2.0 Hz\n"))

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

    @pytest.mark.parametrize("scale", [1e160, 1e-300])
    def test_friction_of_extreme_torques(self, tmp_path, capsys, scale):
        """Residuals near 1e157 have squares that overflow, and near
        1e-302 squares that underflow; their RMS is still that of the
        unscaled log times the scale, with no warning."""
        log = generate_backdrive_log(SyntheticActuator(), duration=2.0,
                                     noise_std=0.01, seed=1)
        path = tmp_path / "scaled.csv"
        write_log(replace(log, torque=log.torque * scale), path)
        assert main(["analyze", "friction", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        name, _, value, unit = out.splitlines()[-1].split()
        assert (name, unit) == ("residual_rms", "Nm")
        assert float(value) == pytest.approx(
            fit_friction(log).residual_rms * scale, rel=5e-3, abs=0)

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

    @pytest.mark.parametrize("band_file", ["column added", "missing"])
    def test_altered_or_missing_band_file_fails(self, band_file, data_dir):
        bands = data_dir / "bands.csv"
        if band_file == "missing":
            bands.unlink()
        else:
            bands.write_text("".join(
                line if line.startswith("#") else line[:-1] + ",1\n"
                for line in bands.read_text().splitlines(True)))
        result = run_cli("validate-prereg",
                         "--prereg", str(data_dir / "prereg.yaml"),
                         "--data", str(data_dir))
        assert result.returncode == 2
        assert "binding: FAIL" in result.stdout
        assert ("  bands.csv: registered band file not found"
                if band_file == "missing" else
                f"  bands.csv: digest {_sha256(bands)} does not match "
                f"registered ") in result.stdout

    def test_band_file_below_the_data_directory_is_bound_too(
            self, data_dir, tmp_path, capsys):
        """A registered band file may sit below ``--data``, where ``hlas
        score`` reads it; ``validate-prereg`` checks it there."""
        (data_dir / "sub").mkdir()
        bands = (data_dir / "bands.csv").rename(data_dir / "sub" / "bands.csv")
        prereg = data_dir / "prereg.yaml"
        prereg.write_text(prereg.read_text().replace("- file: bands.csv",
                                                     "- file: sub/bands.csv"))
        argv = _hlas_argv("validate-prereg", data_dir, None, None)
        assert main(argv) == 0
        assert main(_hlas_argv("score", data_dir, None, tmp_path / "r")) == 0
        capsys.readouterr()
        bands.write_text(bands.read_text() + "Walk,ankle,99,99,1,1\n")
        assert main(argv) == 2
        assert f"  sub/bands.csv: digest {_sha256(bands)} does not match " \
            f"registered " in capsys.readouterr().out

    @staticmethod
    def _split_bands(data_dir, order):
        """The example's band rows as ``bands.csv`` (the Walk rows) and
        ``sub/bands.csv`` (the rest), each registered with its digest, in
        ``order``."""
        bands, prereg = data_dir / "bands.csv", data_dir / "prereg.yaml"
        registered = f"  - file: bands.csv\n    sha256: {_sha256(bands)}\n"
        lines = bands.read_text().splitlines(True)
        head, rows = lines[:3], lines[3:]
        assert head[-1].startswith("task,joint,")
        (data_dir / "sub").mkdir()
        bands.write_text("".join(head + [r for r in rows
                                         if r.startswith("Walk,")]))
        (data_dir / "sub" / "bands.csv").write_text("".join(
            head + [r for r in rows if not r.startswith("Walk,")]))
        text = prereg.read_text()
        assert text.count(registered) == 1
        prereg.write_text(text.replace(registered, "".join(
            f"  - file: {name}\n    sha256: {_sha256(data_dir / name)}\n"
            for name in order)))

    @pytest.mark.parametrize("order", [("bands.csv", "sub/bands.csv"),
                                       ("sub/bands.csv", "bands.csv")])
    def test_band_files_at_and_below_the_data_directory_bind_in_any_order(
            self, order, data_dir, tmp_path, capsys):
        """A registered band file is ``--data/<file>``, where ``hlas score``
        reads it.  It was matched by the end of its path instead, so with
        ``bands.csv`` listed first, ``sub/bands.csv`` was taken for it: a
        false digest mismatch and "sub/bands.csv: registered band file not
        found", exit 2, while ``score`` exited 0."""
        self._split_bands(data_dir, order)
        assert main(_hlas_argv("score", data_dir, None, tmp_path / "r")) == 0
        capsys.readouterr()
        assert main(_hlas_argv("validate-prereg", data_dir, None, None)) == 0
        assert "\nbinding: pass\n" in capsys.readouterr().out

    @pytest.mark.parametrize("band_file", ["column added", "missing"])
    def test_altered_or_missing_band_file_below_the_data_directory_fails(
            self, band_file, data_dir, capsys):
        self._split_bands(data_dir, ("bands.csv", "sub/bands.csv"))
        bands = data_dir / "sub" / "bands.csv"
        registered = _sha256(bands)
        if band_file == "missing":
            bands.unlink()
        else:
            bands.write_text("".join(
                line if line.startswith("#") else line[:-1] + ",1\n"
                for line in bands.read_text().splitlines(True)))
        assert main(_hlas_argv("validate-prereg", data_dir, None, None)) == 2
        out = capsys.readouterr().out
        assert "\nbinding: FAIL\n" in out
        assert ("  sub/bands.csv: registered band file not found\n"
                if band_file == "missing" else
                f"  sub/bands.csv: digest {_sha256(bands)} does not match "
                f"registered {registered}\n") in out

    def test_band_file_registered_twice_is_checked_against_both_digests(
            self, data_dir, tmp_path, capsys):
        """``hlas score`` reads a band file listed twice once per entry and
        refuses it if either digest does not match, so the binding fails
        too, whichever entry comes last."""
        prereg = data_dir / "prereg.yaml"
        digest = _sha256(data_dir / "bands.csv")
        registered = f"  - file: bands.csv\n    sha256: {digest}\n"
        text = prereg.read_text()
        assert text.count(registered) == 1
        prereg.write_text(text.replace(registered, registered.replace(
            digest, "f" * 64) + registered))
        assert main(_hlas_argv("score", data_dir, None, tmp_path / "r")) == 3
        capsys.readouterr()
        assert main(_hlas_argv("validate-prereg", data_dir, None, None)) == 2
        assert capsys.readouterr().out.splitlines()[1:3] == [
            "binding: FAIL",
            f"  bands.csv: digest {digest} does not match registered "
            f"{'f' * 64}"]

    def test_band_digest_must_be_yaml_text(self, data_dir, tmp_path, capsys):
        """A ``sha256:`` that YAML reads as a number was registered as the
        number's text (64 zeros as ``0``), so it could never bind; both
        commands now refuse it at parse, and a quoted digest still binds
        with the registration digest of the unquoted one."""
        prereg = data_dir / "prereg.yaml"
        digest = _sha256(data_dir / "bands.csv")
        registered = f"    sha256: {digest}\n"
        text = prereg.read_text()
        assert text.count(registered) == 1
        validate = _hlas_argv("validate-prereg", data_dir, None, None)
        assert main(validate) == 0
        plain = capsys.readouterr().out
        prereg.write_text(text.replace(registered,
                                       f"    sha256: {'0' * 64}\n"))
        for command in ("validate-prereg", "score"):
            out = tmp_path / command
            assert main(_hlas_argv(command, data_dir, None, out)) == 2
            assert capsys.readouterr() == ("", (
                "error: InvalidDeclaration: bands: bands.csv: sha256: 0 is "
                "not text; quote the digest\n"))
            assert not out.exists()
        prereg.write_text(text.replace(registered,
                                       f'    sha256: "{digest}"\n'))
        assert main(validate) == 0
        assert capsys.readouterr().out == plain
        assert main(_hlas_argv("score", data_dir, None, tmp_path / "r")) == 0

    def test_digest_names_every_significant_digit(self, data_dir, capsys):
        """The two thermal targets are one float rounded to 12 significant
        digits, which the digest was taken of, so both registrations
        printed ``02f66d72...`` while their HLAS differed."""
        prereg, walk = data_dir / "prereg.yaml", "Walk: {ankle: 30, knee: 50,"
        text = prereg.read_text()
        assert text.count(walk) == 1
        argv = _hlas_argv("validate-prereg", data_dir, None, None)
        digests = []
        for knee in ("50", "50.000000000004"):
            prereg.write_text(text.replace(walk, walk.replace("50", knee)))
            assert main(argv) == 0
            digests.append(capsys.readouterr().out.splitlines()[0])
        assert digests == [
            "pre-registration digest: 02f66d72ec08c71605b7a717ab9666f5"
            "17bc148a6342c78b06609bf0671e55b9",
            "pre-registration digest: 18136206289466dac62ba267003151ce"
            "7f83b7220ade5df7b744a4586dcdf283"]

    def test_bad_created_utc_is_a_data_error_naming_file_and_value(
            self, data_dir, capsys):
        cap = data_dir / "capability_ankle.csv"
        text = cap.read_text()
        cap.write_text(text.replace("# created_utc: 2026-08-05T10:00:00Z",
                                    "# created_utc: not-a-date"))
        assert cap.read_text() != text
        assert main(_hlas_argv("validate-prereg", data_dir, None, None)) == 3
        assert capsys.readouterr() == ("", (
            f"error: DataError: {cap}: created_utc header 'not-a-date' is "
            f"not an ISO 8601 timestamp\n"))

    def test_holds_no_whole_file(self, tmp_path, capsys):
        """The traced peak of ``validate-prereg`` on the 12 x 3 grid-16
        registration, as a multiple of its 515 KB ``bands.csv``: 1.01x
        (2.35x when each file's header was read from its whole text)."""
        data = tmp_path / "data"
        gen = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
        runpy.run_path(str(gen))["write_registration"](
            data, seed=7, n_joints=12, n_tasks=3, grid=16)
        argv = ["validate-prereg", "--prereg", str(data / "prereg.yaml"),
                "--data", str(data)]
        assert main(argv) == 0      # once untraced, for one-time allocations
        assert TestOneCopyOfTheLog._peak(lambda: main(argv)) \
            < 1.5 * (data / "bands.csv").stat().st_size


class TestExample:
    def test_golden_run(self, tmp_path):
        result = run_cli("example", "--out", str(tmp_path / "out"))
        assert result.returncode == 0, result.stderr
        assert "HLAS 0.636" in result.stdout
        assert "golden tables match" in result.stdout

    def test_variants(self):
        result = run_cli("example", "--delta", "0.10")
        assert "HLAS 0.515" in result.stdout
        result = run_cli("example", "--gate", "Stairs")
        assert "HLAS 0.343" in result.stdout

    @pytest.mark.parametrize("flags, lines", [
        (["--delta", "0.10"], ["HLAS 0.515 (delta 0.1)"]),
        (["--alpha-alt"], ["HLAS 0.703 (alternative feature weights)"]),
        (["--gate", "Stairs"], ["HLAS 0.343 (gated on Stairs)"]),
        (["--delta", "0.10", "--alpha-alt", "--gate", "Stairs"],
         ["HLAS 0.515 (delta 0.1)",
          "HLAS 0.703 (alternative feature weights)",
          "HLAS 0.343 (gated on Stairs)"]),
    ], ids=lambda case: " ".join(case) if case[0].startswith("--") else None)
    def test_quick_mode_prints_its_lines_and_writes_nothing(
            self, flags, lines, tmp_path, monkeypatch, capsys, file_reads):
        """Each quick-mode line scores one variant of the registered
        scheme; nothing is written, not even the default ``--out``.  With
        ``--out``, which it used to ignore, quick mode exits 2 at the
        parser, naming ``--out`` and the first of its flags."""
        monkeypatch.chdir(tmp_path)
        assert main(["example", *flags]) == 0
        assert capsys.readouterr().out == "".join(f"{line}\n"
                                                  for line in lines)
        file_reads.clear()
        with pytest.raises(SystemExit) as raised:
            main(["example", "--out", "out", *flags])
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and file_reads == {}
        assert f"hlas example: error: argument --out: not allowed with " \
            f"{flags[0]}" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, passes", [
        (["--gate", "Stairs"], 1),
        (["--delta", "0.10", "--gate", "Stairs"], 2)])
    def test_quick_mode_scores_each_distinct_scheme_once(
            self, flags, passes, monkeypatch, capsys):
        """A gate changes guardrail flags, not scores, so ``--gate`` alone
        prints its line from the one scoring pass of the gated scheme."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return hlas(*args, **kwargs)

        monkeypatch.setattr(commands, "hlas", counted)
        monkeypatch.setattr(config_io, "hlas", counted)
        assert main(["example", *flags]) == 0
        assert len(calls) == passes

    def test_runs_in_process(self, tmp_path, capsys):
        assert main(["example", "--out", str(tmp_path / "out")]) == 0

    @pytest.fixture
    def golden_dir(self, tmp_path, monkeypatch):
        """The golden tables of a copy of the example data, which ``hlas
        example`` reads in place of the bundled data."""
        data = tmp_path / "example_data"
        shutil.copytree(example_data_dir(), data)
        monkeypatch.setattr(example, "example_data_dir", lambda: data)
        return data / "golden"

    def _diverges_at(self, tmp_path, capsys, name, number, got, want):
        """Exit 4 naming the line, and no ``manifest.json`` left behind to
        name the failed run's tables."""
        out = tmp_path / "out"
        assert main(["example", "--out", str(out)]) == 4
        assert capsys.readouterr() == ("", (
            f"error: worked example diverged from golden tables:\n"
            f"  {name} line {number}: {got!r} != golden {want!r}\n"))
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("name", GOLDEN_TABLES)
    def test_one_ulp_in_a_golden_table_exits_4(self, name, golden_dir,
                                                tmp_path, capsys):
        """The last cell of the next-to-last line, one ulp up: the 1e-9
        tolerance of the cell-by-cell check accepted it, and that check
        never read ``summary.csv``."""
        golden = golden_dir / name
        lines = golden.read_bytes().splitlines(True)
        head, _, cell = lines[-2].rstrip(b"\n").rpartition(b",")
        value = float(cell)
        nudged = math.nextafter(value, math.inf)
        assert 0 < nudged - value <= 1e-9 * max(1.0, abs(value))
        edited = head + b"," + repr(nudged).encode() + b"\n"
        golden.write_bytes(b"".join([*lines[:-2], edited, lines[-1]]))
        self._diverges_at(tmp_path, capsys, name, len(lines) - 1, lines[-2],
                          edited)

    def test_summary_edit_alone_exits_4(self, golden_dir, tmp_path, capsys):
        golden = golden_dir / "summary.csv"
        text = golden.read_bytes()
        assert text.endswith(b"\nguardrail_flag_count,0\n")
        golden.write_bytes(text.replace(b"flag_count,0\n", b"flag_count,1\n"))
        self._diverges_at(tmp_path, capsys, "summary.csv", 6,
                          b"guardrail_flag_count,0\n",
                          b"guardrail_flag_count,1\n")

    def test_trailing_newline_alone_exits_4(self, golden_dir, tmp_path,
                                           capsys):
        golden = golden_dir / "task_table.csv"
        lines = golden.read_bytes().splitlines(True)
        golden.write_bytes(b"".join(lines).removesuffix(b"\n"))
        self._diverges_at(tmp_path, capsys, "task_table.csv", len(lines),
                          lines[-1], lines[-1].removesuffix(b"\n"))


class TestAtlas:
    def test_show(self):
        result = run_cli("atlas", "show", "right_knee")
        assert result.returncode == 0
        assert "flexion_extension" in result.stdout

    def test_every_joint_text_is_pinned(self, capsys):
        """The stdout of ``hlas atlas show`` for every joint of the
        inventory, in order, pinned by its sha256: the axis names, their
        order and every ROM norm."""
        from hlaskit.atlas import DOF_INVENTORY

        assert len(DOF_INVENTORY) == 26
        text = ""
        for rec in DOF_INVENTORY:
            assert main(["atlas", "show", rec.joint]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            text += out
        assert text.count("\n") == 136
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2ec2e89ecb5a6cad44b7ebbad35af40451a25f16f56f4b3b57627193a004d09e")

    def test_version(self):
        result = run_cli("--version")
        assert result.returncode == 0
