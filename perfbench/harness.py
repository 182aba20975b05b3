"""Closed-loop job runner, set-up probes and metric reduction.

One client runs one job at a time, in-process through
``hlaskit.cli.main(argv)``: the next job starts when the previous one
returns.  A job's clock covers only its ``hlas`` invocations; making its
inputs and checking its outputs happen outside it.

The headline job figure, ``job_rel_p50``, is the median over a run of each
job's time divided by the time of the same job run by a frozen copy of
``hlaskit`` (``perfbench/reference``), run right before or after it.  On
a small share of a shared host the speed of the core follows the other
tenants' load: the same ``example`` job took from 17 ms to over 40 ms
within one run, and the median ``score_dense`` job grew by a third over
ten minutes.  Any time in seconds drifts with the host; two runs of the
same kind of work a second apart drift together, so their ratio holds.
The reference copy is never edited, so only a change to the program moves
the ratio; it is 1 at the commit that made the copy.  The job times in
seconds are printed and written to the run report beside it.
"""

from __future__ import annotations

import copy
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from .cli_call import call
from .tracer import TRACED, Tracer

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60.0
WALL_CAP_S = 120.0          # no new job starts after this much wall time
P90_MIN_JOBS = 100          # at least 10 jobs beyond the 90th percentile

END_TO_END = {
    "setup_s": "s",
    "job_rel_p50": "ratio",
    "peak_rss_mb": "MiB",
}

# (layer function, its metrics) as the traced run reports them, per job
LAYER_FUNCTIONS = [
    ("cli.main", ("calls", "self_s")),
    ("config_io.load_preregistration", ("calls", "self_s")),
    ("config_io.read_bands", ("rows", "self_s")),
    ("config_io.read_capability_map", ("rows", "self_s")),
    ("config_io.read_efficiency_file", ("rows", "self_s")),
    ("bands.normalize_weights", ("self_s",)),
    ("config_io.verify_prereg_binding", ("bytes", "self_s")),
    ("config_io.load_measurements", ("self_s",)),
    ("config_io.build_pairs", ("self_s",)),
    ("envelope.hee_coverage", ("calls", "samples", "self_s")),
    ("scoring.hlas", ("calls", "self_s")),
    ("scoring.compute_features", ("calls", "self_s")),
    ("signals.task_weighted_efficiency", ("self_s",)),
    ("config_io.emit_report", ("files", "bytes", "self_s")),
    ("config_io.sha256_file", ("calls", "bytes", "self_s")),
    ("config_io.write_log", ("rows", "bytes", "self_s")),
    ("config_io.read_log", ("rows", "bytes", "self_s")),
    ("synthetic.generate_thermal_duty_log", ("samples", "self_s")),
    ("synthetic.generate_backdrive_log", ("samples", "self_s")),
    ("synthetic.generate_sweep_log", ("samples", "self_s")),
    ("signals.detect_plateau", ("self_s",)),
    ("signals.steady_trend", ("self_s",)),
    ("signals.fit_friction", ("self_s",)),
    ("signals.compute_frf", ("self_s",)),
    ("signals.find_crossover", ("self_s",)),
    ("signals.power_balance_check", ("self_s",)),
    ("example.run_example", ("self_s",)),
    ("example.compare_to_golden", ("self_s",)),
]
UNITS = {"calls": "count", "self_s": "s", "rows": "count", "bytes": "B",
         "samples": "count", "files": "count"}
PER_LAYER = {f"{fn}.{m}": UNITS[m] for fn, ms in LAYER_FUNCTIONS for m in ms}
PER_LAYER["envelope.hee_coverage.useful_ratio"] = "ratio"
PER_LAYER.update({f"{module}.errors": "count" for module in TRACED})
PER_LAYER["trace.overhead_frac"] = "ratio"
PER_LAYER["trace.root_cover_frac"] = "ratio"


def machine() -> dict:
    import numpy
    import yaml

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "libyaml_csafeloader": bool(getattr(yaml, "__with_libyaml__", False)
                                    and hasattr(yaml, "CSafeLoader")),
    }


def probe_setup(root: Path, steps: list[list[str]]) -> float:
    """Set-up time of one fresh process: import ``hlaskit`` and run
    ``steps``."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "probe.py"), str(root),
         json.dumps(steps)],
        cwd=root, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if any(code != 0 for code in result["codes"]):
        raise RuntimeError(f"warm-up job failed: {result['codes']}")
    return result["setup_s"]


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Reference:
    """The frozen copy of ``hlaskit`` in ``perfbench/reference``, run by a
    worker process one job at a time, while the benchmark waits."""

    def __init__(self, root: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(root / "perfbench" / "worker.py"),
             str(root)],
            cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def run(self, steps: list[list[str]]) -> tuple[float, list]:
        """Run one job's steps; return its time and ``(code, stdout)`` of
        each step."""
        self.proc.stdin.write(json.dumps(steps) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("reference worker ended early")
        answer = json.loads(line)
        return answer["elapsed"], [tuple(r) for r in answer["results"]]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run(workload, root: Path, seconds: float, trace: bool,
        probes: int = SETUP_PROBES, min_jobs: int | None = None) -> dict:
    """Run one workload for ``seconds`` of wall time, and at least
    ``min_jobs`` jobs (the workload's own minimum by default; a traced run
    needs two, one traced and one not), and return
    ``{"attempted", "failed", "metrics", "report", "errors", "tracer"}``.

    An untraced run pairs every job with the same job, on inputs made from
    the same seed in another directory, run by the frozen reference copy;
    the two alternate which goes first.  The wall time covers both, making
    inputs, checking outputs and the set-up probes, which are spread
    evenly over it."""
    import hlaskit.cli

    min_jobs = max(2, workload.min_jobs if min_jobs is None else min_jobs)
    probes = 0 if trace else probes

    warmup = workload.warmup_steps()
    codes = [call(hlaskit.cli.main, argv)[0] for argv in warmup]
    if any(code != 0 for code in codes):
        raise RuntimeError(f"warm-up job failed: {codes}")

    tracer = Tracer() if trace else None
    setup, times, traced_times, failures = [], [], {}, []
    ref_times = []
    reference = None if trace else Reference(root)
    try:
        if reference is not None:
            twin = copy.copy(workload)
            twin.work = workload.work / "reference"
            _, results = reference.run(twin.warmup_steps())
            if any(code != 0 for code, _ in results):
                raise RuntimeError(f"reference warm-up job failed: "
                                   f"{[code for code, _ in results]}")

        def run_reference(index: int) -> None:
            job = twin.make_job(index)
            elapsed, results = reference.run(job.steps)
            errors = twin.check(job, results)
            if errors:
                raise RuntimeError(f"reference job {index} failed: {errors}")
            shutil.rmtree(job.dir, ignore_errors=True)
            ref_times.append(elapsed)

        wall0 = time.perf_counter()
        index = 0
        while True:
            wall = time.perf_counter() - wall0
            if (wall >= seconds and index >= min_jobs) \
                    or wall >= WALL_CAP_S:
                break
            if len(setup) < probes and wall >= len(setup) * seconds / probes:
                setup.append(probe_setup(root, warmup))
                continue
            if reference is not None and index % 2 == 1:
                run_reference(index)
            job = workload.make_job(index)
            traced = trace and index % 2 == 1
            # every job starts from the same heap state, so a collection the
            # previous job's garbage triggers is not charged to this one
            gc.collect()
            if traced:
                tracer.job = index
                tracer.install()
            start = time.perf_counter()
            try:
                results = [call(hlaskit.cli.main, argv) for argv in job.steps]
            finally:
                elapsed = time.perf_counter() - start
                if traced:
                    tracer.uninstall()
            errors = workload.check(job, results)
            if errors:
                failures.append((index, errors))
            shutil.rmtree(job.dir, ignore_errors=True)
            if traced:
                traced_times[index] = elapsed
            else:
                times.append(elapsed)
            if reference is not None and index % 2 == 0:
                run_reference(index)
            samples_per_job = job.samples
            index += 1
        while len(setup) < probes:
            setup.append(probe_setup(root, warmup))
    finally:
        if reference is not None:
            reference.close()

    attempted = index
    report = {"jobs": attempted, "failed_frac": len(failures) / attempted,
              "job_s_p50": statistics.median(times),
              "job_s_min": min(times),
              workload.samples_metric:
                  samples_per_job * len(times) / sum(times),
              "job_s": times}
    if trace:
        metrics = layer_metrics(tracer, times, traced_times)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "job_rel_p50": statistics.median(
                t / r for t, r in zip(times, ref_times)),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if len(times) >= P90_MIN_JOBS:
            report["job_s_p90"] = _percentile(times, 90)
        report["setup_s"] = setup
        report["ref_job_s"] = ref_times
        report["ref_job_s_p50"] = statistics.median(ref_times)
    return {"attempted": attempted, "failed": len(failures),
            "metrics": metrics, "report": report, "errors": failures,
            "tracer": tracer}


def layer_metrics(tracer: Tracer, times: list[float],
                  traced_times: dict[int, float]) -> dict:
    """Median over traced jobs of each layer's per-job figures;
    ``traced_times`` maps each traced job to its time."""
    reduced = tracer.per_job()
    jobs = sorted(traced_times)
    metrics = {}
    for fn, names in LAYER_FUNCTIONS:
        for m in names:
            metrics[f"{fn}.{m}"] = statistics.median(
                reduced["jobs"][j][fn][m] if fn in reduced["jobs"][j] else 0.0
                for j in jobs)
    ratios = []
    for j in jobs:
        hee = reduced["jobs"][j].get("envelope.hee_coverage")
        ratios.append(len(hee["keys"]) / hee["calls"] if hee else 0.0)
    metrics["envelope.hee_coverage.useful_ratio"] = statistics.median(ratios)
    for module in TRACED:
        metrics[f"{module}.errors"] = tracer.errors.get(module, 0)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_times.values()) / statistics.median(times)
        - 1.0)
    metrics["trace.root_cover_frac"] = statistics.median(
        reduced["root_s"][j] / traced_times[j] for j in jobs)
    return metrics
