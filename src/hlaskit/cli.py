"""Command-line front end: the parser of ``hlas`` and ``main``.

Subcommands cover the full pipeline: ``score`` (validation -> factors ->
aggregation -> report bundle), ``hee`` (single-pair envelope mask),
``analyze`` (log analyses), ``validate-prereg``, ``synth`` (known-answer
generators), ``example`` (the bundled worked example with golden check),
and ``atlas show``.  What each command does is in ``commands``.

Exit codes: 0 success, 2 validation error, 3 data error, 4 golden
mismatch.  Configuration comes only from files and flags; environment
variables are never consulted, for reproducibility.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from pathlib import Path

from . import __version__
from .atlas import DOF_INVENTORY
from .commands import (
    EXIT_DATA,
    EXIT_GOLDEN,
    EXIT_OK,
    EXIT_VALIDATION,
    _efficiency,
    _frf,
    _friction,
    _qc,
    _synth_backdrive,
    _synth_map,
    _synth_sweep,
    _synth_thermal,
    _thermal,
    cmd_analyze,
    cmd_atlas,
    cmd_example,
    cmd_hee,
    cmd_score,
    cmd_synth,
    cmd_validate_prereg,
)
from .errors import GoldenMismatch, HlasError, ValidationError
from .prereg import MARGIN_METHODS
from .signals import DEFAULT_PLATEAU_WINDOW_S, DEFAULT_SLOPE_LIMIT_C_PER_S
from .synthetic import DEFAULT_AMBIENT_C, DutyProfile

# the probe frequencies (Hz) of ``synth sweep`` and ``analyze frf``
PROBE_FREQS = "1,2,5,10,20,30"


def _arg_type(parse, ok, shape: str):
    """An argparse ``type``: ``parse(text)`` when that reads and ``ok``
    holds for it, so a value the library would refuse exits 2 at once."""
    def convert(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {shape}")
    return convert


def _frequencies(least: int):
    return _arg_type(lambda text: [float(f) for f in text.split(",")],
                     lambda freqs: len(set(freqs)) == len(freqs) >= least
                     and all(0 < f < math.inf for f in freqs),
                     f"{least} or more distinct positive frequencies")


_positive = _arg_type(float, lambda v: 0 < v < math.inf,
                      "a finite positive number")
_non_negative = _arg_type(float, lambda v: 0 <= v < math.inf,
                          "a finite non-negative number")
_finite = _arg_type(float, math.isfinite, "a finite number")
_count = _arg_type(int, lambda n: n >= 1, "a whole number of 1 or more")
_seed = _arg_type(int, lambda n: n >= 0, "a whole number of 0 or more")
_above_ambient = _arg_type(
    float, lambda v: DEFAULT_AMBIENT_C < v < math.inf,
    f"a finite temperature above the {DEFAULT_AMBIENT_C:g} C ambient")
_atlas_joint = _arg_type(str, lambda joint: any(
    rec.joint == joint for rec in DOF_INVENTORY), "a joint of the atlas")


def _flag_check(parser: argparse.ArgumentParser, flags: tuple[str, ...],
                others: tuple[str, ...], together: bool = True):
    """A ``check`` that refuses, at ``parser``, any of ``flags`` given while
    one of ``others`` is not (``together``) or is (not ``together``),
    naming the first of each; a flag not given is None."""
    def check(args) -> None:
        given = {flag for flag in (*flags, *others)
                 if getattr(args, flag[2:].replace("-", "_")) is not None}
        named = [flag for flag in flags if flag in given]
        broken = [other for other in others if (other in given) != together]
        if named and broken:
            rule = "required" if together else "not allowed"
            parser.error(f"argument {broken[0]}: {rule} with {named[0]}")
    return check


def _plant(field: str) -> dict:
    """The ``add_argument`` keywords of a ``hlas synth`` flag that sets the
    ``SyntheticActuator`` field ``field``; without the flag the plant keeps
    its own default."""
    return dict(type=_positive, dest=field, default=argparse.SUPPRESS)


# every flag of ``hlas synth``; each kind takes those that change what it
# writes (``build_parser``)
SYNTH_FLAGS = {
    "--out": dict(required=True),
    "--stall": _plant("stall_torque"),
    "--slope": _plant("torque_speed_slope"),
    "--pole": _plant("crossover_true"),
    "--j-ref": _plant("j_ref"),
    "--b-visc": _plant("b_visc"),
    "--f-coulomb": _plant("f_coulomb"),
    "--thermal-resistance": _plant("thermal_resistance"),
    "--thermal-tau": _plant("thermal_time_constant"),
    "--copper-loss": _plant("copper_loss_coeff"),
    "--joint": dict(default="synthetic"),
    "--axis": dict(default="flexion"),
    "--q-lo": dict(type=_finite, default=0.0),
    "--q-hi": dict(type=_finite, default=0.0),
    "--n-q": dict(type=_count, default=1),
    "--omega-lo": dict(type=_finite, default=8.0),
    "--omega-hi": dict(type=_finite, default=12.0),
    "--n-omega": dict(type=_count, default=5),
    "--freqs": dict(type=_frequencies(1), default=PROBE_FREQS),
    "--amplitude": dict(type=_positive, default=4.0),
    "--noise": dict(type=_non_negative, default=0.0),
    "--seed": dict(type=_seed, default=None),
    "--duration": dict(type=_positive, default=60.0),
    "--torque": dict(type=_non_negative, default=30.0),
    "--temp-limit": dict(type=_above_ambient,
                         default=DutyProfile.temp_limit_c),
}


def _add_score(sub) -> None:
    p = sub.add_parser("score", help="full evaluation from prereg + data dir")
    p.add_argument("--prereg", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--delta", type=_non_negative, default=None,
                   help="override the demand headroom factor")
    p.add_argument("--h-min", type=_finite, default=None,
                   help="override the envelope-coverage breadth floor")
    p.add_argument("--gate", action="append", default=None,
                   help="critical task for multiplicative gating (repeatable)")
    p.add_argument("--rate-margin", action="store_true",
                   help="score the bandwidth slot with the rate margin")
    p.add_argument("--strict-gates", action="store_true",
                   help="treat guardrail flags as failures")
    p.set_defaults(func=cmd_score)


def _add_hee(sub) -> None:
    p = sub.add_parser("hee", help="envelope mask for one joint-task pair")
    p.add_argument("--band", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--joint", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--delta", type=_non_negative, default=0.0)
    p.add_argument("--out", type=Path,
                   help="also write the mask table to a file")
    p.add_argument("--margins", action="store_true", default=None)
    # read only with ``--margins``; 1.0, 1.0 and "min" when not given
    p.add_argument("--omega-max", type=_non_negative)
    p.add_argument("--omega-req", type=_positive)
    p.add_argument("--margin-method", choices=MARGIN_METHODS)
    p.set_defaults(func=cmd_hee, check=_flag_check(
        p, ("--omega-max", "--omega-req", "--margin-method"), ("--margins",)))


def _add_analyze(sub) -> None:
    p = sub.add_parser("analyze", help="run one log analysis")
    p.set_defaults(func=cmd_analyze)
    kinds = p.add_subparsers(dest="kind", required=True)

    def kind(name: str, analysis, help: str) -> argparse.ArgumentParser:
        k = kinds.add_parser(name, help=help)
        k.add_argument("log", type=Path)
        k.set_defaults(analysis=analysis)
        return k

    k = kind("frf", _frf, "frequency response and -3 dB crossover")
    k.add_argument("--freqs", type=_frequencies(2), default=PROBE_FREQS,
                   help="comma-separated probe frequencies in Hz")
    k.add_argument("--out", type=Path, help="also write the FRF table")
    kind("friction", _friction, "inertia and friction fit of a backdrive log")
    k = kind("thermal", _thermal, "continuous torque plateau and derating")
    k.add_argument("--slope-limit", type=_positive,
                   default=DEFAULT_SLOPE_LIMIT_C_PER_S)
    k.add_argument("--window", type=_positive,
                   default=DEFAULT_PLATEAU_WINDOW_S)
    kind("efficiency", _efficiency, "overall mechanical / electrical energy")
    k = kind("qc", _qc, "power balance and loaded-bandwidth checks")
    k.add_argument("--f-loaded", type=_positive)
    k.add_argument("--f-noload", type=_positive)
    both = ("--f-loaded", "--f-noload")
    k.set_defaults(check=_flag_check(k, both, both))


def _add_validate_prereg(sub) -> None:
    p = sub.add_parser("validate-prereg",
                       help="check measurement binding to a registration")
    p.add_argument("--prereg", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_validate_prereg)


def _add_synth(sub) -> None:
    p = sub.add_parser("synth", help="generate synthetic known-answer data")
    p.set_defaults(func=cmd_synth)
    kinds = p.add_subparsers(dest="kind", required=True)

    def synth(name: str, generate, help: str, *flags: str) -> None:
        k = kinds.add_parser(name, help=help)
        for flag in ("--out", *flags):
            k.add_argument(flag, **SYNTH_FLAGS[flag])
        k.set_defaults(generate=generate)

    synth("map", _synth_map, "capability map of the torque-speed law",
          "--stall", "--slope", "--joint", "--axis", "--q-lo", "--q-hi",
          "--n-q", "--omega-lo", "--omega-hi", "--n-omega")
    synth("sweep", _synth_sweep, "multitone sweep through the torque pole",
          "--pole", "--copper-loss", "--freqs", "--amplitude", "--noise",
          "--seed")
    synth("thermal", _synth_thermal, "torque hold through the thermal RC",
          "--thermal-resistance", "--thermal-tau", "--copper-loss",
          "--duration", "--torque", "--temp-limit")
    synth("backdrive", _synth_backdrive, "slow backdrive against friction",
          "--j-ref", "--b-visc", "--f-coulomb", "--copper-loss", "--duration",
          "--noise", "--seed")


def _add_example(sub) -> None:
    p = sub.add_parser("example",
                       help="run the bundled worked example end to end")
    p.add_argument("--out")             # hlas_example_out when not given
    p.add_argument("--delta", type=_non_negative, default=None)
    p.add_argument("--alpha-alt", action="store_true", default=None)
    p.add_argument("--gate", action="append", default=None)
    p.set_defaults(func=cmd_example, h_min=None, rate_margin=False,
                   check=_flag_check(p, ("--delta", "--alpha-alt", "--gate"),
                                     ("--out",), together=False))


def _add_atlas(sub) -> None:
    p = sub.add_parser("atlas", help="inspect the joint atlas")
    atlas_sub = p.add_subparsers(dest="atlas_command", required=True)
    p_show = atlas_sub.add_parser("show")
    p_show.add_argument("joint", type=_atlas_joint)
    p_show.set_defaults(func=cmd_atlas)


# what adds each command's subparser, in the order ``hlas -h`` lists them
COMMANDS = {"score": _add_score, "hee": _add_hee, "analyze": _add_analyze,
            "validate-prereg": _add_validate_prereg, "synth": _add_synth,
            "example": _add_example, "atlas": _add_atlas}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of ``hlas`` with the subparser of the command ``argv``
    names, or of every command when it names none.  Its usage lists every
    command either way, so no text depends on how many are built."""
    parser = argparse.ArgumentParser(
        prog="hlas", description="Human-level actuation benchmarking toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    parser.set_defaults(check=lambda args: None)
    named = argv[:1] if argv[:1] and argv[0] in COMMANDS else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=(
        named and "{" + ",".join(COMMANDS) + "}"))
    for name in named or COMMANDS:
        COMMANDS[name](sub)
    return parser


def _warning_line(message, *_) -> None:
    """A library warning as the one line ``warning: <message>`` on stderr,
    without Python's ``file:line: Category:`` prefix and source line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """Run the command ``argv`` (the process's arguments when None), which
    ``run_manifest.json`` records as parsed; return its exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    args.check(args)        # flags given together or apart, at the parser
    args.argv = argv
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed standard output (``hlas hee ... | head -1``):
        # what is still buffered goes to the null device, not a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except GoldenMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GOLDEN
    except ValidationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (HlasError, OSError) as exc:
        # OSError: a file that could not be opened, read or written
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
