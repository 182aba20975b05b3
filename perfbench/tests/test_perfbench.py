"""Self-check of the benchmark at tiny sizes.

Checks that every metric ``BENCHMARK.json`` names is emitted with its unit,
by the untraced and the traced run of each workload, and that each
workload's output check rejects a deliberately corrupted output.
"""

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import hlaskit.cli  # noqa: E402
from perfbench import harness  # noqa: E402
from perfbench.cli_call import call  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS, Example, LogPipeline, ScoreDense)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name, work, seed=3):
    if name == "score_dense":
        return ScoreDense(work, seed, n_joints=2, n_tasks=2, grid=6)
    if name == "log_pipeline":
        return LogPipeline(work, seed, thermal_s=20.0, backdrive_s=5.0)
    return Example(work, seed)


def run_job(workload, index=0):
    job = workload.make_job(index)
    return job, [call(hlaskit.cli.main, argv) for argv in job.steps]


def test_benchmark_file_matches_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} \
        == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} \
        == harness.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    result = harness.run(tiny(name, tmp_path / "plain"), ROOT, seconds=0.0,
                         trace=False, probes=1, min_jobs=2)
    assert result["failed"] == 0, result["errors"]
    assert set(result["metrics"]) == set(harness.END_TO_END)
    assert all(v > 0 for v in result["metrics"].values())
    assert result["report"]["failed_frac"] == 0.0
    # the program is still the reference copy's code
    assert 0.5 < result["metrics"]["job_rel_p50"] < 2.0
    assert "job_s_p90" not in result["report"]   # two jobs are too few

    traced = harness.run(tiny(name, tmp_path / "traced"), ROOT, seconds=0.0,
                         trace=True, min_jobs=2)
    assert traced["failed"] == 0, traced["errors"]
    assert set(traced["metrics"]) == set(harness.PER_LAYER)
    assert traced["metrics"]["cli.main.calls"] >= 1
    assert traced["metrics"]["trace.root_cover_frac"] >= 0.95


def test_p90_with_ten_jobs_beyond_it(tmp_path):
    result = harness.run(Example(tmp_path, 1), ROOT, seconds=0.0,
                         trace=False, probes=1, min_jobs=100)
    report = result["report"]
    assert report["job_s_p90"] >= report["job_s_p50"] >= report["job_s_min"]
    assert len(report["ref_job_s"]) == len(report["job_s"])


def test_traced_example_counts(tmp_path):
    """Per-job counts of the example: three ``hlas()`` passes, and half of
    the ``hee_coverage`` calls repeat an earlier (pair, delta)."""
    traced = harness.run(Example(tmp_path, 1), ROOT, seconds=0.0, trace=True)
    m = traced["metrics"]
    assert m["scoring.hlas.calls"] == 3
    assert m["envelope.hee_coverage.calls"] == 36
    assert m["envelope.hee_coverage.useful_ratio"] == 0.5
    assert m["config_io.load_preregistration.calls"] == 1


def test_example_check_rejects_corruption(tmp_path):
    workload = Example(tmp_path, 1)
    job, results = run_job(workload)
    assert workload.check(job, results) == []
    code, text = results[0]
    assert workload.check(job, [(4, text)])
    assert workload.check(job, [(code, text.replace("HLAS 0.636",
                                                    "HLAS 0.637"))])
    manifest = job.dir / "out" / "manifest.json"
    manifest.write_text(manifest.read_text() + " ")
    assert workload.check(job, results)


def _edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


@pytest.fixture
def dense_job(tmp_path):
    workload = tiny("score_dense", tmp_path)
    job, results = run_job(workload)
    assert workload.check(job, results) == []
    return workload, job, results


def test_score_check_rejects_edited_summary(dense_job):
    workload, job, results = dense_job
    summary = job.dir / "out" / "summary.csv"
    cell = summary.read_text().splitlines()[1].split(",")[1]
    _edit(summary, cell, repr(float(cell) + 1e-6))
    assert workload.check(job, results)


def test_score_check_rejects_edited_hee(dense_job):
    workload, job, results = dense_job
    table = job.dir / "out" / "feature_table.csv"
    header, first = table.read_text().splitlines()[:2]
    cell = first.split(",")[header.split(",").index("hee")]
    _edit(table, f",{cell},", f",{float(cell) * 0.99!r},")
    assert workload.check(job, results)


def test_score_check_rejects_truncated_mask(dense_job):
    workload, job, results = dense_job
    mask = next((job.dir / "out" / "hee_masks").iterdir())
    lines = mask.read_text().splitlines(keepends=True)
    mask.write_text("".join(lines[:-1]))
    assert workload.check(job, results)


def test_score_check_rejects_flipped_mask_cell(dense_job):
    workload, job, results = dense_job
    mask = next((job.dir / "out" / "hee_masks").iterdir())
    _edit(mask, ",true\n", ",false\n")
    assert workload.check(job, results)


def test_score_check_rejects_failed_binding(dense_job):
    workload, job, results = dense_job
    (code, text), rest = results[0], results[1:]
    failed = [(code, text.replace("binding: pass", "binding: FAIL")), *rest]
    assert workload.check(job, failed)


@pytest.fixture(scope="module")
def log_job(tmp_path_factory):
    workload = tiny("log_pipeline", tmp_path_factory.mktemp("logs"))
    job, results = run_job(workload)
    assert workload.check(job, results) == []
    return workload, job, results


@pytest.mark.parametrize("step, label, attr, factor", [
    (4, "j_ref", "j_ref", 1.06),
    (4, "b_visc", "b_visc", 0.94),
    (4, "f_coulomb", "f_coulomb", 1.06),
    (6, "f_c", "pole", 1.03),
])
def test_log_check_rejects_wrong_values(log_job, step, label, attr, factor):
    """A printed value just outside its tolerance of the true parameter."""
    workload, job, results = log_job
    wrong = getattr(job.expect, attr) * factor
    code, text = results[step]
    edited = re.sub(rf"^{label} = (>= |<= )?[0-9.e+-]+",
                    f"{label} = {wrong:.6g}", text, flags=re.MULTILINE)
    assert edited != text
    results = [*results[:step], (code, edited), *results[step + 1:]]
    assert workload.check(job, results)


def test_log_check_rejects_late_derate(log_job):
    workload, job, results = log_job
    code, text = results[1]
    derate = re.search(r"^time to derate = ([0-9.]+) s$", text,
                       re.MULTILINE).group(1)
    late = f"{float(derate) + 0.003:.3f}"   # three samples late
    edited = [results[0], (code, text.replace(derate, late)), *results[2:]]
    assert workload.check(job, edited)


def test_log_check_rejects_failed_qc(log_job):
    workload, job, results = log_job
    edited = list(results)
    code, text = edited[2]
    edited[2] = (3, text.replace("power balance: pass", "power balance: FAIL"))
    assert workload.check(job, edited)
