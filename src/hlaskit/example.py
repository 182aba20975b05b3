"""Bundled worked example: a nine-pair evaluation that runs in one command.

The packaged inputs describe a 12-joint humanoid evaluated on three tasks
(Walk, Stairs, Reach) over the six primary joints, including the ankle
push-off rate sweep worked through in detail in the docs.  The example is
the golden regression target: regenerating it must reproduce the bundled
tables, and its sensitivity variants (demand headroom, alternative feature
weights, task gating) are pinned by the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .config_io import (
    MeasurementSet,
    Preregistration,
    build_pairs,
    emit_report,
    load_measurements,
    load_preregistration_file,
    read_table,
    write_csv,
)
from .errors import GoldenMismatch
from .scoring import PairInputs, ScoreBreakdown, WeightScheme, hlas

# 0.10 of feature weight moved from HEE coverage to efficiency
ALPHA_ALT = {
    "rom": 0.10, "dof": 0.10, "hee": 0.40,
    "bandwidth": 0.10, "efficiency": 0.20, "thermal": 0.10,
}

HEADROOM_SENSITIVITY_DELTA = 0.10

GOLDEN_TABLES = ("feature_table.csv", "contributions.csv", "task_table.csv",
                 "sensitivity.csv")
GOLDEN_RTOL = 1e-9


def example_data_dir() -> Path:
    return Path(resources.files("hlaskit") / "example_data")


def load_example() -> tuple[Preregistration, MeasurementSet, list[PairInputs]]:
    data_dir = example_data_dir()
    prereg = load_preregistration_file(data_dir / "prereg.yaml")
    measurements = load_measurements(data_dir, prereg)
    return prereg, measurements, build_pairs(prereg, measurements)


@dataclass(frozen=True)
class ExampleRun:
    breakdown: ScoreBreakdown
    hlas_headroom: float      # with the 0.10 demand headroom
    hlas_alpha_alt: float     # with the alternative feature weights
    scheme: WeightScheme
    pairs: list[PairInputs]
    outputs: dict[Path, str] | None = None   # sha256 of each file written


def run_example() -> ExampleRun:
    prereg, _, pairs = load_example()
    scheme = prereg.scheme
    breakdown = hlas(pairs, scheme)
    with_headroom = hlas(
        pairs, replace(scheme, headroom_delta=HEADROOM_SENSITIVITY_DELTA)
    )
    with_alpha_alt = hlas(pairs, replace(scheme, feature_weights=ALPHA_ALT))
    return ExampleRun(
        breakdown=breakdown,
        hlas_headroom=with_headroom.hlas,
        hlas_alpha_alt=with_alpha_alt.hlas,
        scheme=scheme,
        pairs=pairs,
    )


def emit_example(run: ExampleRun, out_dir: Path) -> ExampleRun:
    """Write the example's full report bundle plus the sensitivity table;
    ``run`` with the sha256 of each file written."""
    files = emit_report(run.breakdown, run.pairs, out_dir, run.scheme).files
    sensitivity = Path(out_dir) / "sensitivity.csv"
    files[sensitivity] = write_csv(sensitivity, ["variant", "hlas"], [
        ["baseline", run.breakdown.hlas],
        [f"headroom_delta_{HEADROOM_SENSITIVITY_DELTA:g}", run.hlas_headroom],
        ["alpha_alt", run.hlas_alpha_alt],
    ])
    return replace(run, outputs=files)


def compare_to_golden(out_dir: Path) -> list[str]:
    """Cell-by-cell comparison of regenerated tables against the bundled
    golden copies.  Returns the list of divergent cells (empty = match)."""
    golden_dir = example_data_dir() / "golden"
    divergent = []
    for name in GOLDEN_TABLES:
        _, got_header, got_rows = read_table(Path(out_dir) / name)
        _, want_header, want_rows = read_table(golden_dir / name)
        if got_header != want_header:
            divergent.append(f"{name}: header {got_header} != {want_header}")
            continue
        if len(got_rows) != len(want_rows):
            divergent.append(
                f"{name}: {len(got_rows)} rows, golden has {len(want_rows)}"
            )
            continue
        for i, (got, want) in enumerate(zip(got_rows, want_rows)):
            for col, (g, w) in zip(got_header, zip(got, want)):
                if g == w:
                    continue
                try:
                    close = abs(float(g) - float(w)) <= GOLDEN_RTOL * max(
                        1.0, abs(float(w)))
                except ValueError:
                    close = False
                if not close:
                    divergent.append(
                        f"{name} row {i} column {col}: {g} != golden {w}"
                    )
    return divergent


def run_and_check_example(out_dir: Path) -> ExampleRun:
    run = emit_example(run_example(), out_dir)
    divergent = compare_to_golden(out_dir)
    if divergent:
        raise GoldenMismatch(
            "worked example diverged from golden tables:\n  "
            + "\n  ".join(divergent)
        )
    return run
