"""Bundled worked example: a nine-pair evaluation that runs in one command.

The packaged inputs describe a 12-joint humanoid evaluated on three tasks
(Walk, Stairs, Reach) over the six primary joints, including the ankle
push-off rate sweep worked through in detail in the docs.  The example is
the golden regression target: regenerating it must reproduce the bundled
tables, and its sensitivity variants (demand headroom, alternative feature
weights, task gating) are pinned by the acceptance suite.  It is scored by
``hlas score``'s own pipeline, ``config_io.score_registration``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .config_io import ScoredRegistration, emit_report, score_registration
from .errors import GoldenMismatch
from .scoring import hlas
from .tables import read_table, write_table

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
    return Path(__file__).with_name("example_data")


@dataclass(frozen=True)
class ExampleRun:
    scored: ScoredRegistration
    hlas_headroom: float      # with the 0.10 demand headroom
    hlas_alpha_alt: float     # with the alternative feature weights


def run_example() -> ExampleRun:
    data = example_data_dir()
    scored = score_registration(data / "prereg.yaml", data)
    with_headroom = hlas(scored.pairs, replace(
        scored.scheme, headroom_delta=HEADROOM_SENSITIVITY_DELTA))
    with_alpha_alt = hlas(scored.pairs,
                          replace(scored.scheme, feature_weights=ALPHA_ALT))
    return ExampleRun(scored, with_headroom.hlas, with_alpha_alt.hlas)


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


def run_and_check_example(out_dir: Path) -> tuple[ExampleRun,
                                                  dict[Path, str]]:
    """Run the example, write its report bundle and sensitivity table to
    ``out_dir`` and check them against the golden tables; the run, and the
    sha256 of each file written."""
    run = run_example()
    scored = run.scored
    files = emit_report(scored, out_dir).files
    sensitivity = Path(out_dir) / "sensitivity.csv"
    files[sensitivity] = write_table(sensitivity, ("variant", "hlas"), (
        ["baseline", f"headroom_delta_{HEADROOM_SENSITIVITY_DELTA:g}",
         "alpha_alt"],
        [scored.breakdown.hlas, run.hlas_headroom, run.hlas_alpha_alt]))
    divergent = compare_to_golden(out_dir)
    if divergent:
        raise GoldenMismatch(
            "worked example diverged from golden tables:\n  "
            + "\n  ".join(divergent)
        )
    return run, files
