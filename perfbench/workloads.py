"""The three benchmark workloads: their inputs, jobs and output checks.

Each job is a list of ``hlas`` invocations run back to back in-process.  A
workload makes a job's inputs before the job's clock starts, and checks the
job's outputs after it stops, against answers the benchmark works out
itself.  ``check`` returns the list of failed checks, empty when the job's
output is correct.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gen import write_registration

CHECK_TOL = 1e-9


@dataclass
class Job:
    index: int
    dir: Path
    steps: list[list[str]]
    expect: object = None
    samples: int = 0


def _rc_errors(codes: list) -> list[str]:
    return [f"step {i}: exit {code!r}" for i, code in enumerate(codes)
            if code != 0]


def _csv_rows(path: Path) -> list[list[str]]:
    lines = [line for line in path.read_text().splitlines()
             if line and not line.startswith("#")]
    return [line.split(",") for line in lines]


class Example:
    """``hlas example --out <fresh dir>`` on the bundled data: 9 pairs and
    45 band samples.

    Why: the inputs are tiny, so costs paid once per invocation dominate:
    prereg YAML parsing, three ``hlas()`` passes, 36 ``hee_coverage``
    calls, 21 small files plus ``run_manifest.json``, and the golden
    comparison.  A fix to a fixed per-invocation cost shows here, and
    per-sample work barely registers.  The inputs are the bundled files, so
    the seed changes nothing but directory names.
    """

    name = "example"
    samples_metric = "band_samples_per_s"
    min_jobs = 2
    band_samples = 45
    # headline of README's quick start; the last line names the out dir
    HEADLINE = [
        "HLAS 0.636",
        "  task Walk: 0.671",
        "  task Stairs: 0.539",
        "  task Reach: 0.687",
        "  sensitivity: delta 0.10 -> 0.515, alt feature weights -> 0.703",
    ]
    # sha256 of the bundle's manifest.json, which lists every artifact's
    # digest; it must not change when the code gets faster
    MANIFEST_SHA256 = (
        "5086f97158b825594aac065d930fc33aafa8fd46bdda1fa14f7908b935e1c760")

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work

    def warmup_steps(self) -> list[list[str]]:
        return [["example", "--out", str(self.work / "warmup" / "out")]]

    def make_job(self, index: int) -> Job:
        out = self.work / f"job{index}" / "out"
        return Job(index, out.parent, [["example", "--out", str(out)]],
                   samples=self.band_samples)

    def check(self, job: Job, results: list[tuple[object, str]]) -> list[str]:
        errors = _rc_errors([code for code, _ in results])
        out_dir = Path(job.steps[0][-1])
        want = self.HEADLINE + [f"golden tables match ({out_dir})"]
        got = results[0][1].splitlines()
        if got != want:
            errors.append(f"stdout {got!r} != {want!r}")
        manifest = out_dir / "manifest.json"
        digest = (hashlib.sha256(manifest.read_bytes()).hexdigest()
                  if manifest.is_file() else None)
        if digest != self.MANIFEST_SHA256:
            errors.append(f"manifest.json sha256 {digest}")
        return errors


class ScoreDense:
    """``hlas validate-prereg`` then ``hlas score`` on a synthetic
    registration of 12 joints x 3 tasks, each pair on a 16 x 16 (q, omega)
    grid: 36 pairs and 9,216 band samples, with capability and efficiency
    tables at the same points.

    Why: per-sample work dominates: CSV parsing, ``normalize_weights``,
    ``hee_coverage`` (run twice per pair), efficiency, writing the masks,
    and sha256.  Prereg parsing and the other per-job and per-pair costs
    are about a third of the job.  Each job gets its own data directory, written before its
    clock starts from a seed derived from the workload seed, so no input
    repeats within a run.  The grid is small enough that a job takes well
    under a second and a run holds dozens of them, so that a run's
    median is taken over dozens of jobs.
    """

    name = "score_dense"
    samples_metric = "band_samples_per_s"
    min_jobs = 4    # a median of at least four jobs

    def __init__(self, work: Path, seed: int, n_joints: int = 12,
                 n_tasks: int = 3, grid: int = 16) -> None:
        self.work, self.seed = work, seed
        self.size = dict(n_joints=n_joints, n_tasks=n_tasks, grid=grid)

    def _steps(self, data: Path, out: Path) -> list[list[str]]:
        prereg = str(data / "prereg.yaml")
        return [["validate-prereg", "--prereg", prereg, "--data", str(data)],
                ["score", "--prereg", prereg, "--data", str(data),
                 "--out", str(out)]]

    def warmup_steps(self) -> list[list[str]]:
        data = self.work / "warmup" / "data"
        write_registration(data, seed=self.seed, n_joints=3, n_tasks=2,
                           grid=10)
        return self._steps(data, self.work / "warmup" / "out")

    def make_job(self, index: int) -> Job:
        job_dir = self.work / f"job{index}"
        expect = write_registration(job_dir / "data",
                                    seed=self.seed * 1_000_003 + index,
                                    **self.size)
        return Job(index, job_dir, self._steps(job_dir / "data",
                                               job_dir / "out"),
                   expect=expect, samples=sum(expect.samples.values()))

    def check(self, job: Job, results: list[tuple[object, str]]) -> list[str]:
        errors = _rc_errors([code for code, _ in results])
        if "binding: pass" not in results[0][1].splitlines():
            errors.append("validate-prereg did not report binding: pass")
        expect, out = job.expect, job.dir / "out"
        try:
            summary = {row[0]: row[1] for row in
                       _csv_rows(out / "summary.csv")[1:]}
            want = {"hlas": expect.hlas, **{f"task_score:{t}": v for t, v
                                            in expect.task_scores.items()}}
            for key, value in want.items():
                got = float(summary.get(key, "nan"))
                if not abs(got - value) <= CHECK_TOL:
                    errors.append(f"summary {key} {got!r} != {value!r}")
            header, *rows = _csv_rows(out / "feature_table.csv")
            hee_col = header.index("hee")
            got_hee = {(r[0], r[1]): float(r[hee_col]) for r in rows}
            if set(got_hee) != set(expect.hee):
                errors.append("feature_table pairs differ from the oracle")
            for pair, value in expect.hee.items():
                got = got_hee.get(pair, math.nan)
                if not abs(got - value) <= CHECK_TOL:
                    errors.append(f"hee {pair} {got!r} != {value!r}")
                header, *mask = _csv_rows(
                    out / "hee_masks" / f"{pair[0]}__{pair[1]}.csv")
                col = header.index("pass")
                passes = sum(r[col] == "true" for r in mask if len(r) > col)
                if len(mask) != expect.samples[pair] \
                        or passes != expect.pass_counts[pair]:
                    errors.append(
                        f"mask {pair}: {len(mask)} rows, {passes} pass; "
                        f"oracle {expect.samples[pair]} rows, "
                        f"{expect.pass_counts[pair]} pass")
        except (OSError, ValueError, IndexError) as exc:
            errors.append(f"unreadable score output: {exc}")
        return errors


# plant constants the CLI's synthetic actuator uses unless told otherwise
AMBIENT_C = 25.0
TEMP_LIMIT_C = 100.0
COPPER_LOSS = 0.02
THERMAL_RESISTANCE = 0.5
SAMPLE_RATE_HZ = 1000.0
NOISE = 0.01


def derate_time(torque: float, tau: float) -> float:
    """Closed-form instant a constant hold reaches the winding limit, for a
    first-order thermal RC plant starting at ambient."""
    rise = COPPER_LOSS * torque ** 2 * THERMAL_RESISTANCE
    return -tau * math.log(1.0 - (TEMP_LIMIT_C - AMBIENT_C) / rise)


def _number(pattern: str, text: str) -> float:
    match = re.search(pattern, text, re.MULTILINE)
    return float(match.group(1)) if match else math.nan


@dataclass
class LogParams:
    torque: float
    tau: float
    j_ref: float
    b_visc: float
    f_coulomb: float
    pole: float
    freqs: list[float]


class LogPipeline:
    """Three synth-and-analyse steps on 1 kHz logs, with per-job parameters
    and noise seeds:

    * ``hlas synth thermal``: a 12 s log with the torque above the plant's
      derate level, so derating happens inside the log; then
      ``hlas analyze thermal`` and ``hlas analyze qc`` on it;
    * ``hlas synth backdrive``: 6 s with noise 0.01; then
      ``hlas analyze friction``;
    * ``hlas synth sweep`` with noise; then ``hlas analyze frf``.

    Why: each job writes about 23,000 log rows and reads about 35,000 in
    the same format, and runs the per-sample thermal generator loop.  The
    scoring path is not used at all.  The logs are short enough that a job
    takes about half a second and a run holds dozens of them, so that a
    run's median is taken over dozens of jobs.  The thermal
    log stays longer than the 10 s window of ``hlas analyze thermal``, and
    the backdrive log long enough that the friction fit stays within 2.5%
    of the truth (over 400 seeded jobs; a 3 s log missed 5% on one).
    """

    name = "log_pipeline"
    samples_metric = "log_samples_per_s"
    min_jobs = 4    # a median of at least four jobs

    def __init__(self, work: Path, seed: int, thermal_s: float = 12.0,
                 backdrive_s: float = 6.0) -> None:
        self.work, self.seed = work, seed
        self.thermal_s, self.backdrive_s = thermal_s, backdrive_s

    def _params(self, rng) -> LogParams:
        pole = round(float(rng.uniform(5.0, 12.0)), 2)
        return LogParams(
            torque=round(float(rng.uniform(95.0, 120.0)), 2),
            # the limit is crossed before 45% of the log has passed
            tau=round(float(rng.uniform(0.13, 0.25)) * self.thermal_s, 3),
            j_ref=round(float(rng.uniform(0.03, 0.08)), 4),
            b_visc=round(float(rng.uniform(0.5, 1.0)), 4),
            f_coulomb=round(float(rng.uniform(0.8, 1.6)), 4),
            pole=pole,
            # the lowest probe at 1 Hz makes the sweep exactly 5 s long
            freqs=[1.0] + [round(pole * k, 3) for k in (0.5, 1.0, 2.0, 4.0)],
        )

    def _job(self, index: int, job_dir: Path, rng) -> Job:
        p = self._params(rng)
        thermal, backdrive, sweep = (str(job_dir / name) for name in
                                     ("thermal.csv", "backdrive.csv",
                                      "sweep.csv"))
        noise_seeds = [str(s) for s in rng.integers(0, 2**31, 2)]
        freqs = ",".join(repr(f) for f in p.freqs)
        steps = [
            ["synth", "thermal", "--duration", repr(self.thermal_s),
             "--torque", repr(p.torque), "--thermal-tau", repr(p.tau),
             "--out", thermal],
            ["analyze", "thermal", thermal],
            ["analyze", "qc", thermal],
            ["synth", "backdrive", "--duration", repr(self.backdrive_s),
             "--noise", repr(NOISE), "--seed", noise_seeds[0],
             "--j-ref", repr(p.j_ref), "--b-visc", repr(p.b_visc),
             "--f-coulomb", repr(p.f_coulomb), "--out", backdrive],
            ["analyze", "friction", backdrive],
            ["synth", "sweep", "--pole", repr(p.pole), "--freqs", freqs,
             "--noise", repr(NOISE), "--seed", noise_seeds[1],
             "--out", sweep],
            ["analyze", "frf", sweep, "--freqs", freqs],
        ]
        rows = sum(int(round(d * SAMPLE_RATE_HZ)) + 1 for d in
                   (self.thermal_s, self.backdrive_s, 5.0 / min(p.freqs)))
        return Job(index, job_dir, steps, expect=p, samples=rows)

    def warmup_steps(self) -> list[list[str]]:
        small = LogPipeline(self.work, self.seed, thermal_s=10.0,
                            backdrive_s=2.0)
        rng = np.random.default_rng([self.seed, 2**31])
        job_dir = self.work / "warmup"
        job_dir.mkdir(parents=True, exist_ok=True)
        return small._job(-1, job_dir, rng).steps

    def make_job(self, index: int) -> Job:
        job_dir = self.work / f"job{index}"
        job_dir.mkdir(parents=True, exist_ok=True)
        return self._job(index, job_dir,
                         np.random.default_rng([self.seed, index]))

    def check(self, job: Job, results: list[tuple[object, str]]) -> list[str]:
        errors = _rc_errors([code for code, _ in results])
        p, out = job.expect, [text for _, text in results]
        derate = _number(r"^time to derate = ([0-9.]+) s$", out[1])
        want = derate_time(p.torque, p.tau)
        # one sample, plus the 0.5 ms rounding of the printed value
        if not abs(derate - want) <= 1.0 / SAMPLE_RATE_HZ + 5e-4 + 1e-9:
            errors.append(f"derate at {derate} s, closed form {want:.6f} s")
        if not re.search(r"^power balance: pass ", out[2], re.MULTILINE):
            errors.append("power balance check did not pass")
        for name, value in (("j_ref", p.j_ref), ("b_visc", p.b_visc),
                            ("f_coulomb", p.f_coulomb)):
            got = _number(rf"^{name} = (\S+) ", out[4])
            if not abs(got - value) <= 0.05 * value:
                errors.append(f"{name} {got} not within 5% of {value}")
        f_c = _number(r"^f_c = ([0-9.]+) Hz", out[6])
        if not abs(f_c - p.pole) <= 0.02 * p.pole:
            errors.append(f"f_c {f_c} not within 2% of {p.pole}")
        return errors


WORKLOADS = {w.name: w for w in (Example, ScoreDense, LogPipeline)}
