"""What each ``hlas`` command does.

``cli`` parses the command line and calls the command's ``cmd_*`` with the
parsed arguments; the ``analyze`` kinds and the ``synth`` generators are
the functions its subparsers set as ``analysis`` and ``generate``.  Each
returns its exit code (``EXIT_*``) and raises a typed error for ``cli.main``
to report; a command that writes a file writes ``run_manifest.json``
beside it.
"""

from __future__ import annotations

import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .atlas import describe_joint
from .bands import build_band_grid
from .config_io import (
    BINDING_NOTE,
    emit_report,
    mask_table,
    read_log,
    score_registration,
    verify_prereg_binding,
    write_log,
)
from .envelope import CapabilityMap, hee_coverage, margin_report
from .errors import DataError
from .example import ALPHA_ALT, example_data_dir, run_and_check_example
from .prereg import canonical_json, load_preregistration_file
from .readers import read_bands, read_capability_map, write_capability_map
from .record import fields, replace
from .scoring import gated_hlas, hlas
from .signals import (
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
    DutyProfile,
    SyntheticActuator,
    generate_backdrive_log,
    generate_capability_map,
    generate_sweep_log,
    generate_thermal_duty_log,
)
from .tables import table_blocks, write_table

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
    report = verify_prereg_binding(prereg, sorted(
        p for p in data.iterdir() if p.is_file() and p.suffix == ".csv"), data)
    print(f"pre-registration digest: {prereg.digest}")
    print(f"binding: {'pass' if report.passed else 'FAIL'}")
    for finding in report.findings:
        print(f"  {finding}")
    print(f"note: {BINDING_NOTE}")
    return EXIT_OK if report.passed else EXIT_VALIDATION


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
