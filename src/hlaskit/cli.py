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
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .atlas import DOF_INVENTORY, describe_joint
from .config_io import (
    build_pairs,
    canonical_json,
    emit_report,
    load_measurements,
    load_preregistration,
    load_preregistration_file,
    mask_csv,
    read_bands,
    read_capability_map,
    read_log,
    sha256_file,
    sha256_hex,
    verify_prereg_binding,
    write_capability_map,
    write_csv,
    write_log,
)
from .envelope import MARGIN_METHODS, hee_coverage, margin_report
from .errors import DataError, GoldenMismatch, HlasError, ValidationError
from .example import ALPHA_ALT, load_example, run_and_check_example
from .scoring import gated_hlas, hlas
from .signals import (
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
from .bands import build_band_grid

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DATA = 3
EXIT_GOLDEN = 4


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


_positive = _arg_type(float, lambda v: 0 < v < math.inf, "a positive number")
_non_negative = _arg_type(float, lambda v: 0 <= v < math.inf,
                          "a non-negative number")
_finite = _arg_type(float, math.isfinite, "a finite number")
_above_ambient = _arg_type(
    float, lambda v: DEFAULT_AMBIENT_C < v < math.inf,
    f"a finite temperature above the {DEFAULT_AMBIENT_C:g} C ambient")
_atlas_joint = _arg_type(str, lambda joint: any(
    rec.joint == joint for rec in DOF_INVENTORY), "a joint of the atlas")


def _apply_scheme_flags(scheme, args):
    updates = {}
    if args.delta is not None:
        updates["headroom_delta"] = args.delta
    if args.h_min is not None:
        updates["breadth_floor"] = args.h_min
    if args.gate:
        updates["critical_tasks"] = frozenset(args.gate)
    if args.rate_margin:
        updates["use_rate_margin"] = True
    return replace(scheme, **updates) if updates else scheme


def _print_headline(breakdown, scheme) -> None:
    print(f"HLAS {breakdown.hlas:.3f}")
    for task in scheme.task_weights:
        print(f"  task {task}: {breakdown.task_scores[task]:.3f}")


def cmd_score(args) -> int:
    registration = Path(args.prereg).read_bytes()
    prereg = load_preregistration(registration.decode())
    scheme = _apply_scheme_flags(prereg.scheme, args)
    measurements = load_measurements(Path(args.data), prereg)
    pairs = build_pairs(replace(prereg, scheme=scheme), measurements)
    breakdown = hlas(pairs, scheme)

    bundle = emit_report(breakdown, pairs, Path(args.out), scheme)
    _write_manifest(bundle.out_dir, sys.argv[1:], {
        Path(args.prereg): sha256_hex(registration), **measurements.files,
    }, bundle.files)

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
    bands = read_bands(Path(args.band))
    key = (args.task, args.joint)
    if key not in bands:
        raise DataError(
            f"band file has no ({args.task}, {args.joint}) pair; "
            f"available: {sorted(bands)}"
        )
    cap = read_capability_map(Path(args.map))
    result = hee_coverage(bands[key], cap, args.delta)
    mask = mask_csv(result)
    if args.out:
        Path(args.out).write_text(mask, newline="")
    print(f"coverage {result.coverage:.3f} (delta {args.delta:g})")
    print(mask, end="")
    if args.margins:
        rep = margin_report(bands[key], cap, args.omega_max, args.omega_req,
                            args.margin_method)
        print(f"torque_margin {rep.torque_margin:.4f} "
              f"power_margin {rep.power_margin:.4f} "
              f"rate_margin {rep.rate_margin:.4f} ({rep.method})")
    return EXIT_OK


def cmd_analyze(args) -> int:
    log = read_log(Path(args.log))
    if args.kind == "frf":
        frf = compute_frf(log, args.freqs)
        crossover = find_crossover(frf)
        bound = {"<=": "<= ", ">=": ">= "}.get(crossover.bound, "")
        print(f"f_c = {bound}{crossover.f_crossover:.2f} Hz "
              f"(phase margin {crossover.phase_margin_deg:.1f} deg)")
        if args.out:
            out = Path(args.out)
            digest = write_csv(
                out, ["freq_hz", "magnitude", "phase_deg"],
                [[p.freq, p.magnitude, p.phase] for p in frf],
                f"# crossover_hz: {bound.strip()}{crossover.f_crossover!r}, "
                f"phase_margin_deg: {crossover.phase_margin_deg!r}\n")
            _write_manifest(out.parent, sys.argv[1:],
                            {Path(args.log): sha256_file(args.log)},
                            {out: digest})
    elif args.kind == "friction":
        fit = fit_friction(log)
        print(f"j_ref = {fit.j_ref:.6g} kg m^2")
        print(f"b_visc = {fit.b_visc:.6g} Nm s/rad")
        print(f"f_coulomb = {fit.f_coulomb:.6g} Nm")
        print(f"backdrive_p95 = {fit.backdrive_p95:.6g} Nm")
        print(f"residual_rms = {fit.residual_rms:.3g} Nm")
    elif args.kind == "thermal":
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
    elif args.kind == "efficiency":
        balance = power_balance_check(log)
        if balance.elec_energy_j <= 0:
            raise DataError("log has no electrical energy")
        eta = balance.mech_energy_j / balance.elec_energy_j
        print(f"overall efficiency = {eta:.4f} "
              f"(positive mechanical {balance.mech_energy_j:.1f} J / "
              f"electrical {balance.elec_energy_j:.1f} J)")
    elif args.kind == "qc":
        balance = power_balance_check(log)
        verdict = "pass" if balance.passed else "FAIL"
        print(f"power balance: {verdict} "
              f"(mech {balance.mech_energy_j:.2f} J, "
              f"elec {balance.elec_energy_j:.2f} J)")
        if args.f_loaded is not None and args.f_noload is not None:
            ok = loaded_bandwidth_check(args.f_loaded, args.f_noload)
            print(f"loaded-bandwidth inflation: {'pass' if ok else 'FAIL'}")
        if not balance.passed:
            return EXIT_DATA
    return EXIT_OK


def cmd_validate_prereg(args) -> int:
    prereg = load_preregistration_file(Path(args.prereg))
    files = sorted(
        p for p in Path(args.data).iterdir()
        if p.is_file() and p.suffix == ".csv"
    )
    report = verify_prereg_binding(prereg, files)
    print(f"pre-registration digest: {prereg.digest}")
    print(f"binding: {'pass' if report.passed else 'FAIL'}")
    for finding in report.findings:
        print(f"  {finding}")
    print(f"note: {report.note}")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _actuator_from(args) -> SyntheticActuator:
    return SyntheticActuator(
        stall_torque=args.stall, torque_speed_slope=args.slope,
        crossover_true=args.pole, j_ref=args.j_ref, b_visc=args.b_visc,
        f_coulomb=args.f_coulomb,
        thermal_resistance=args.thermal_resistance,
        thermal_time_constant=args.thermal_tau,
        copper_loss_coeff=args.copper_loss,
    )


def cmd_synth(args) -> int:
    act = _actuator_from(args)
    out = Path(args.out)
    if args.kind == "map":
        grid = build_band_grid((args.q_lo, args.q_hi),
                               (args.omega_lo, args.omega_hi),
                               args.n_q, args.n_omega)
        cap = generate_capability_map(act, grid, joint=args.joint,
                                      axis=args.axis)
        write_capability_map(cap, out)
    elif args.kind == "sweep":
        log = generate_sweep_log(act, args.freqs, args.amplitude,
                                 noise_std=args.noise, seed=args.seed)
        write_log(log, out)
    elif args.kind == "thermal":
        duty = DutyProfile(duration_s=args.duration,
                           temp_limit_c=args.temp_limit)
        log = generate_thermal_duty_log(act, duty, args.torque)
        write_log(log, out)
    elif args.kind == "backdrive":
        log = generate_backdrive_log(act, duration=args.duration,
                                     noise_std=args.noise, seed=args.seed)
        write_log(log, out)
    print(f"wrote {out}")
    _write_manifest(out.parent, sys.argv[1:], {}, {out: sha256_file(out)},
                    seed=getattr(args, "seed", None))
    return EXIT_OK


def cmd_example(args) -> int:
    out_dir = Path(args.out)
    if args.delta is not None or args.alpha_alt or args.gate:
        prereg, _, pairs = load_example()
        scheme = prereg.scheme
        if args.delta is not None:
            scored = hlas(pairs, replace(scheme, headroom_delta=args.delta))
            print(f"HLAS {scored.hlas:.3f} (delta {args.delta:g})")
        if args.alpha_alt:
            scored = hlas(pairs, replace(scheme, feature_weights=ALPHA_ALT))
            print(f"HLAS {scored.hlas:.3f} (alternative feature weights)")
        if args.gate:
            gated = gated_hlas(hlas(pairs, scheme), set(args.gate))
            print(f"HLAS {gated:.3f} "
                  f"(gated on {', '.join(sorted(args.gate))})")
        return EXIT_OK
    run = run_and_check_example(out_dir)
    _write_manifest(out_dir, sys.argv[1:], {}, run.outputs)
    _print_headline(run.breakdown, run.scheme)
    print(f"  sensitivity: delta 0.10 -> {run.hlas_headroom:.3f}, "
          f"alt feature weights -> {run.hlas_alpha_alt:.3f}")
    print(f"golden tables match ({out_dir})")
    return EXIT_OK


def cmd_atlas(args) -> int:
    print(describe_joint(args.joint))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlas",
        description="Human-level actuation benchmarking toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="full evaluation from prereg + data dir")
    p.add_argument("--prereg", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--delta", type=float, default=None,
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

    p = sub.add_parser("hee", help="envelope mask for one joint-task pair")
    p.add_argument("--band", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--joint", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--out", default=None,
                   help="also write the mask table to a file")
    p.add_argument("--margins", action="store_true")
    p.add_argument("--omega-max", type=float, default=1.0)
    p.add_argument("--omega-req", type=float, default=1.0)
    p.add_argument("--margin-method", choices=MARGIN_METHODS, default="min")
    p.set_defaults(func=cmd_hee)

    p = sub.add_parser("analyze", help="run one log analysis")
    p.add_argument("kind",
                   choices=["frf", "friction", "thermal", "efficiency", "qc"])
    p.add_argument("log")
    p.add_argument("--freqs", type=_frequencies(2), default="1,2,5,10,20,30",
                   help="comma-separated probe frequencies in Hz (frf)")
    p.add_argument("--out", default=None)
    p.add_argument("--slope-limit", type=float, default=0.5)
    p.add_argument("--window", type=_positive, default=10.0)
    p.add_argument("--f-loaded", type=_positive, default=None)
    p.add_argument("--f-noload", type=_positive, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("validate-prereg",
                       help="check measurement binding to a registration")
    p.add_argument("--prereg", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_validate_prereg)

    p = sub.add_parser("synth", help="generate synthetic known-answer data")
    p.add_argument("kind", choices=["map", "sweep", "thermal", "backdrive"])
    p.add_argument("--out", required=True)
    p.add_argument("--stall", type=_positive, default=44.0)
    p.add_argument("--slope", type=_positive, default=1.0)
    p.add_argument("--pole", type=_positive, default=10.0)
    p.add_argument("--j-ref", type=_positive, default=0.05)
    p.add_argument("--b-visc", type=_positive, default=0.8)
    p.add_argument("--f-coulomb", type=_positive, default=1.2)
    p.add_argument("--thermal-resistance", type=_positive, default=0.5)
    p.add_argument("--thermal-tau", type=_positive, default=60.0)
    p.add_argument("--copper-loss", type=_positive, default=0.02)
    p.add_argument("--joint", default="synthetic")
    p.add_argument("--axis", default="flexion")
    p.add_argument("--q-lo", type=_finite, default=0.0)
    p.add_argument("--q-hi", type=_finite, default=0.0)
    p.add_argument("--n-q", type=int, default=1)
    p.add_argument("--omega-lo", type=_finite, default=8.0)
    p.add_argument("--omega-hi", type=_finite, default=12.0)
    p.add_argument("--n-omega", type=int, default=5)
    p.add_argument("--freqs", type=_frequencies(1), default="1,2,5,10,20,30")
    p.add_argument("--amplitude", type=_positive, default=4.0)
    p.add_argument("--noise", type=_non_negative, default=0.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--duration", type=_positive, default=60.0)
    p.add_argument("--torque", type=_non_negative, default=30.0)
    p.add_argument("--temp-limit", type=_above_ambient, default=100.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("example",
                       help="run the bundled worked example end to end")
    p.add_argument("--out", default="hlas_example_out")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--alpha-alt", action="store_true")
    p.add_argument("--gate", action="append", default=None)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("atlas", help="inspect the joint atlas")
    atlas_sub = p.add_subparsers(dest="atlas_command", required=True)
    p_show = atlas_sub.add_parser("show")
    p_show.add_argument("joint", type=_atlas_joint)
    p_show.set_defaults(func=cmd_atlas)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
    except (DataError, FileNotFoundError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except HlasError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
