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

from itertools import zip_longest
from pathlib import Path

from .config_io import ScoredRegistration, emit_report, score_registration
from .errors import GoldenMismatch
from .record import record, replace
from .scoring import hlas
from .tables import sha256_hex, write_table

# 0.10 of feature weight moved from HEE coverage to efficiency
ALPHA_ALT = {
    "rom": 0.10, "dof": 0.10, "hee": 0.40,
    "bandwidth": 0.10, "efficiency": 0.20, "thermal": 0.10,
}

HEADROOM_SENSITIVITY_DELTA = 0.10

GOLDEN_TABLES = ("summary.csv", "feature_table.csv", "contributions.csv",
                 "task_table.csv", "sensitivity.csv")


def example_data_dir() -> Path:
    return Path(__file__).with_name("example_data")


@record
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


def compare_to_golden(files: dict[Path, str], out_dir: Path) -> list[str]:
    """Byte-for-byte comparison of the tables written to ``out_dir``, whose
    sha256 ``files`` holds, against the bundled golden copies.  Returns, for
    each table that differs, its first differing line (empty = match)."""
    golden_dir = example_data_dir() / "golden"
    divergent = []
    for name in GOLDEN_TABLES:
        want = (golden_dir / name).read_bytes()
        if sha256_hex(want) != files[Path(out_dir) / name]:
            got = (Path(out_dir) / name).read_bytes()
            divergent.append(_first_difference(name, got, want))
    return divergent


def _first_difference(name: str, got: bytes, want: bytes) -> str:
    """The first line, line ends included, at which ``got`` differs from the
    golden ``want``; a missing line reads as ``b''``."""
    pairs = zip_longest(got.splitlines(True), want.splitlines(True),
                        fillvalue=b"")
    for number, (g, w) in enumerate(pairs, 1):
        if g != w:
            return f"{name} line {number}: {g!r} != golden {w!r}"
    return f"{name}: changed on disk after it was written"


def run_and_check_example(out_dir: Path) -> tuple[ExampleRun,
                                                  dict[Path, str]]:
    """Run the example, write its report bundle and sensitivity table to
    ``out_dir`` and check them against the golden tables; the run, and the
    sha256 of each file written.  On a mismatch the bundle's
    ``manifest.json`` is removed, so no manifest names a failed run."""
    run = run_example()
    scored = run.scored
    bundle = emit_report(scored, out_dir)
    files = bundle.files
    sensitivity = Path(out_dir) / "sensitivity.csv"
    files[sensitivity] = write_table(sensitivity, ("variant", "hlas"), (
        ["baseline", f"headroom_delta_{HEADROOM_SENSITIVITY_DELTA:g}",
         "alpha_alt"],
        [scored.breakdown.hlas, run.hlas_headroom, run.hlas_alpha_alt]))
    divergent = compare_to_golden(files, out_dir)
    if divergent:
        bundle.manifest.unlink()
        raise GoldenMismatch(
            "worked example diverged from golden tables:\n  "
            + "\n  ".join(divergent)
        )
    return run, files
