"""Command-line front end.

Subcommands cover the full pipeline: ``score`` (validation -> factors ->
aggregation -> report bundle), ``hee`` (single-pair envelope mask),
``analyze`` (log analyses), ``validate-prereg``, ``synth`` (known-answer
generators), ``example`` (the bundled worked example with golden check),
and ``atlas show``.

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
from dataclasses import fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .atlas import DOF_INVENTORY, describe_joint
from .config_io import (
    BINDING_NOTE,
    emit_report,
    mask_table,
    read_bands,
    read_capability_map,
    read_log,
    score_registration,
    verify_prereg_binding,
    write_capability_map,
    write_log,
)
from .envelope import CapabilityMap, hee_coverage, margin_report
from .errors import DataError, GoldenMismatch, HlasError, ValidationError
from .example import ALPHA_ALT, example_data_dir, run_and_check_example
from .prereg import MARGIN_METHODS, canonical_json, load_preregistration_file
from .scoring import gated_hlas, hlas
from .signals import (
    DEFAULT_PLATEAU_WINDOW_S,
    DEFAULT_SLOPE_LIMIT_C_PER_S,
    TimeSeriesLog,
    compute_frf,
    detect_plateau,
    find_crossover,
    fit_friction,
    loaded_bandwidth_check,
    power_balance_check,
    steady_trend,
)
from .synthetic import (
    DEFAULT_AMBIENT_C,
    DutyProfile,
    SyntheticActuator,
    generate_backdrive_log,
    generate_capability_map,
    generate_sweep_log,
    generate_thermal_duty_log,
)
from .tables import table_blocks, write_table
from .bands import build_band_grid

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DATA = 3
EXIT_GOLDEN = 4

# the probe frequencies (Hz) of ``synth sweep`` and ``analyze frf``
PROBE_FREQS = "1,2,5,10,20,30"


def _write_manifest(out_dir: Path, args_list: list[str],
                    inputs: dict[Path, str], outputs: dict[Path, str],
                    seed: int | None = None) -> None:
    """``run_manifest.json``: the command and the sha256 of each file it
    read or wrote, as read or written."""
    content = {
        "command": args_list,
        "toolkit_version": __version__,
        "seed": seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "inputs": [{"path": str(p), "sha256": h} for p, h in inputs.items()],
        "outputs": [{"path": str(p), "sha256": h} for p, h in outputs.items()],
    }
    (Path(out_dir) / "run_manifest.json").write_text(canonical_json(content))


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


def _scheme_updates(args) -> dict:
    """The scheme fields that the flags of ``score`` or ``example`` set."""
    updates = {}
    if args.delta is not None:
        updates["headroom_delta"] = args.delta
    if args.h_min is not None:
        updates["breadth_floor"] = args.h_min
    if args.gate:
        updates["critical_tasks"] = frozenset(args.gate)
    if args.rate_margin:
        updates["use_rate_margin"] = True
    return updates


def _print_headline(breakdown, scheme) -> None:
    print(f"HLAS {breakdown.hlas:.3f}")
    for task in scheme.task_weights:
        print(f"  task {task}: {breakdown.task_scores[task]:.3f}")


def cmd_score(args) -> int:
    scored = score_registration(Path(args.prereg), Path(args.data),
                                **_scheme_updates(args))
    breakdown, scheme = scored.breakdown, scored.scheme
    bundle = emit_report(scored, Path(args.out))
    _write_manifest(bundle.out_dir, args.argv, scored.measurements.files,
                    bundle.files)

    _print_headline(breakdown, scheme)
    if scheme.critical_tasks:
        gated = gated_hlas(breakdown, scheme.critical_tasks)
        print(f"  gated ({', '.join(sorted(scheme.critical_tasks))}): "
              f"{gated:.3f}")
    for flag in breakdown.guardrail_flags:
        print(f"  flag: {flag}")
    if args.strict_gates and breakdown.guardrail_flags:
        print("strict gates: guardrail violations are fatal", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_hee(args) -> int:
    inputs = {} if args.out else None
    bands = read_bands(Path(args.band), inputs)
    key = (args.task, args.joint)
    if key not in bands:
        raise DataError(
            f"band file has no ({args.task}, {args.joint}) pair; "
            f"available: {sorted(bands)}"
        )
    cap = read_capability_map(Path(args.map), inputs)
    if cap.joint != args.joint:
        raise DataError(f"capability map {args.map} is of joint "
                        f"{cap.joint!r}, not {args.joint!r}")
    result = hee_coverage(bands[key], cap, args.delta)
    mask = mask_table(result)
    if args.out:
        _write_manifest(args.out.parent, args.argv, inputs,
                        {args.out: write_table(args.out, *mask)})
    print(f"coverage {result.coverage:.3f} (delta {args.delta:g})")
    sys.stdout.writelines(table_blocks(*mask))
    if args.margins:
        omega_max = 1.0 if args.omega_max is None else args.omega_max
        rep = margin_report(bands[key], cap, omega_max, args.omega_req or 1.0,
                            args.margin_method or "min")
        print(f"torque_margin {rep.torque_margin:.4f} "
              f"power_margin {rep.power_margin:.4f} "
              f"rate_margin {rep.rate_margin:.4f} ({rep.method})")
    return EXIT_OK


def cmd_analyze(args) -> int:
    """Read the log once, a block at a time, and run the kind's analysis on
    the log and, for a kind that writes a table (``--out``), the sha256 of
    the bytes read, keyed by the log's path; it returns its exit code or
    None for 0."""
    inputs = {} if getattr(args, "out", None) else None
    log = read_log(args.log, files=inputs)
    return args.analysis(args, log, inputs) or EXIT_OK


def _frf(args, log, inputs: dict | None) -> int | None:
    frf = compute_frf(log, args.freqs)
    crossover = find_crossover(frf)
    bound = {"<=": "<= ", ">=": ">= "}.get(crossover.bound, "")
    print(f"f_c = {bound}{crossover.f_crossover:.2f} Hz "
          f"(phase margin {crossover.phase_margin_deg:.1f} deg)")
    if args.out:
        written = write_table(
            args.out, ("freq_hz", "magnitude", "phase_deg"),
            ([p.freq for p in frf], [p.magnitude for p in frf],
             [p.phase for p in frf]),
            f"# crossover_hz: {bound.strip()}{crossover.f_crossover!r}, "
            f"phase_margin_deg: {crossover.phase_margin_deg!r}\n")
        _write_manifest(args.out.parent, args.argv, inputs,
                        {args.out: written})


def _friction(args, log, inputs: dict | None) -> int | None:
    fit = fit_friction(log)
    print(f"j_ref = {fit.j_ref:.6g} kg m^2")
    print(f"b_visc = {fit.b_visc:.6g} Nm s/rad")
    print(f"f_coulomb = {fit.f_coulomb:.6g} Nm")
    print(f"backdrive_p95 = {fit.backdrive_p95:.6g} Nm")
    print(f"residual_rms = {fit.residual_rms:.3g} Nm")


def _thermal(args, log, inputs: dict | None) -> int | None:
    result = detect_plateau(log, args.slope_limit, args.window)
    print(f"plateau torque = {result.torque_cont:.3f} Nm")
    derate = ("none" if result.time_to_derate is None
              else f"{result.time_to_derate:.3f} s")
    print(f"time to derate = {derate}")
    print(f"final temps: motor {result.final_temp_motor:.1f} C, "
          f"gear {result.final_temp_gear:.1f} C")
    steady, slope = steady_trend(log)
    print(f"steady trend at end of test: "
          f"{'yes' if steady else 'NO'} ({slope:.3f} C/min)")


def _efficiency(args, log, inputs: dict | None) -> int | None:
    balance = power_balance_check(log)
    if balance.elec_energy_j <= 0:
        raise DataError("log has no electrical energy")
    eta = balance.mech_energy_j / balance.elec_energy_j
    print(f"overall efficiency = {eta:.4f} "
          f"(positive mechanical {balance.mech_energy_j:.1f} J / "
          f"electrical {balance.elec_energy_j:.1f} J)")


def _qc(args, log, inputs: dict | None) -> int | None:
    balance = power_balance_check(log)
    print(f"power balance: {'pass' if balance.passed else 'FAIL'} "
          f"(mech {balance.mech_energy_j:.2f} J, "
          f"elec {balance.elec_energy_j:.2f} J)")
    if args.f_loaded is not None:
        ok = loaded_bandwidth_check(args.f_loaded, args.f_noload)
        print(f"loaded-bandwidth inflation: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if balance.passed else EXIT_DATA


def cmd_validate_prereg(args) -> int:
    prereg = load_preregistration_file(Path(args.prereg))
    data = Path(args.data)
    # the CSVs of --data, and each registered band file, which may sit in a
    # directory below it, as ``hlas score`` reads it
    files = sorted({p for p in data.iterdir()
                    if p.is_file() and p.suffix == ".csv"}
                   | {data / ref.file for ref in prereg.bands
                      if (data / ref.file).is_file()})
    report = verify_prereg_binding(prereg, files)
    print(f"pre-registration digest: {prereg.digest}")
    print(f"binding: {'pass' if report.passed else 'FAIL'}")
    for finding in report.findings:
        print(f"  {finding}")
    print(f"note: {BINDING_NOTE}")
    return EXIT_OK if report.passed else EXIT_VALIDATION


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
    "--seed": dict(type=int, default=None),
    "--duration": dict(type=_positive, default=60.0),
    "--torque": dict(type=_non_negative, default=30.0),
    "--temp-limit": dict(type=_above_ambient,
                         default=DutyProfile.temp_limit_c),
}


def cmd_synth(args) -> int:
    """Write the kind's map or log, made by its ``generate`` from a plant
    with the parameters given, and a ``run_manifest.json`` beside it."""
    act = SyntheticActuator(**{f.name: getattr(args, f.name)
                               for f in fields(SyntheticActuator)
                               if hasattr(args, f.name)})
    out = Path(args.out)
    # a parameter that overflows gives inf or NaN samples, which the
    # writer refuses by name: NumPy's warnings would only repeat that
    with np.errstate(over="ignore", invalid="ignore"):
        made = args.generate(args, act)
    if isinstance(made, CapabilityMap):
        digest, seed = write_capability_map(made, out), None
    else:
        digest, seed = write_log(made, out), made.seed
    print(f"wrote {out}")
    _write_manifest(out.parent, args.argv, {}, {out: digest}, seed=seed)
    return EXIT_OK


def _synth_map(args, act: SyntheticActuator) -> CapabilityMap:
    grid = build_band_grid((args.q_lo, args.q_hi),
                           (args.omega_lo, args.omega_hi),
                           args.n_q, args.n_omega)
    return generate_capability_map(act, grid, joint=args.joint,
                                   axis=args.axis)


def _synth_sweep(args, act: SyntheticActuator) -> TimeSeriesLog:
    return generate_sweep_log(act, args.freqs, args.amplitude,
                              noise_std=args.noise, seed=args.seed)


def _synth_thermal(args, act: SyntheticActuator) -> TimeSeriesLog:
    duty = DutyProfile(duration_s=args.duration, temp_limit_c=args.temp_limit)
    return generate_thermal_duty_log(act, duty, args.torque)


def _synth_backdrive(args, act: SyntheticActuator) -> TimeSeriesLog:
    return generate_backdrive_log(act, duration=args.duration,
                                  noise_std=args.noise, seed=args.seed)


def cmd_example(args) -> int:
    """The golden-checked bundle, or with any of ``--delta``, ``--alpha-alt``
    and ``--gate`` (never with ``--out``) a line per flag, each scoring one
    variant of the registered scheme."""
    updates = _scheme_updates(args)
    if updates or args.alpha_alt:
        data = example_data_dir()
        scored = score_registration(data / "prereg.yaml", data, **updates)
        registered, pairs = scored.prereg.scheme, scored.pairs
        # critical tasks change guardrail flags, not scores, so without
        # ``--delta`` the scored breakdown is that of the registered scheme
        if args.delta is not None:
            print(f"HLAS {scored.breakdown.hlas:.3f} (delta {args.delta:g})")
        if args.alpha_alt:
            alt = hlas(pairs, replace(registered, feature_weights=ALPHA_ALT))
            print(f"HLAS {alt.hlas:.3f} (alternative feature weights)")
        if args.gate:
            gate = scored.scheme.critical_tasks
            gated = gated_hlas(scored.breakdown if args.delta is None
                               else hlas(pairs, registered), gate)
            print(f"HLAS {gated:.3f} (gated on {', '.join(sorted(gate))})")
        return EXIT_OK
    out_dir = Path(args.out or "hlas_example_out")
    run, outputs = run_and_check_example(out_dir)
    _write_manifest(out_dir, args.argv, run.scored.measurements.files,
                    outputs)
    _print_headline(run.scored.breakdown, run.scored.scheme)
    print(f"  sensitivity: delta 0.10 -> {run.hlas_headroom:.3f}, "
          f"alt feature weights -> {run.hlas_alpha_alt:.3f}")
    print(f"golden tables match ({out_dir})")
    return EXIT_OK


def cmd_atlas(args) -> int:
    print(describe_joint(args.joint))
    return EXIT_OK


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
