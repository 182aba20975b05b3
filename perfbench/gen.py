"""Seeded input generator and numpy oracle for the ``score_dense`` workload.

The benchmark writes its registrations with plain text formatting on top of
numpy, never with ``hlaskit``'s own writers, so that the inputs stay the
same bytes when the toolkit's writers change.  Every float is written with
``repr``, which round-trips exactly, so the oracle below works on the very
values the toolkit parses.

Demands are drawn per sample from the robot's own capability at that point:
each sample passes or fails the torque test and the power test on its own,
with at least a 5% margin on either side, so coverage does not depend on
rounding.  The first four samples of every pair fall in the four classes
(pass, torque only fails, power only fails, both fail), so every pair's
coverage lies strictly between 0 and 1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TASKS = ("Walk", "Stairs", "Reach")
FEATURE_WEIGHTS = {"rom": 0.1, "dof": 0.1, "hee": 0.5,
                   "bandwidth": 0.1, "efficiency": 0.1, "thermal": 0.1}
AXES = ("flexion", "abduction")
COUPLING_THRESHOLD = 0.10
PREREG_CREATED = "2026-08-01T00:00:00Z"
MEASURED = "2026-09-01T00:00:00Z"
OMEGA_STEP = 5          # omega = k / OMEGA_STEP rad/s, k = 1..n
Q_TASK_OFFSET = 60      # tasks use disjoint angle ranges on each joint


@dataclass(frozen=True)
class Expected:
    """What a correct ``hlas score`` must report for one registration."""

    hlas: float
    task_scores: dict[str, float]
    hee: dict[tuple[str, str], float]
    pass_counts: dict[tuple[str, str], int]
    samples: dict[tuple[str, str], int]


def _clip01(x):
    return np.minimum(1.0, np.maximum(0.0, x))


def _interval(rng) -> tuple[float, float]:
    lo = round(float(rng.uniform(-40, 100)), 2)
    return lo, round(lo + float(rng.uniform(20, 80)), 2)


def _fmt(x) -> str:
    return repr(float(x))


def _csv(path: Path, header: list[str], columns: list[list[str]]) -> None:
    # the registered band file is part of the declaration and predates it;
    # measurements are stamped after it, so the binding check passes
    stamp = PREREG_CREATED if path.name == "bands.csv" else MEASURED
    lines = [f"# created_utc: {stamp}"]
    if path.name.startswith("capability_"):
        lines.insert(0, "# conditions: synthetic benchmark rig, ambient 25 C")
    lines.append(",".join(header))
    lines += [",".join(row) for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n")


def _yaml_map(name: str, table: dict[str, dict[str, object]]) -> list[str]:
    out = [f"{name}:"]
    for task, joints in table.items():
        out.append(f"  {task}:")
        out += [f"    {joint}: {value}" for joint, value in joints.items()]
    return out


def write_registration(out_dir: Path, seed: int, n_joints: int = 12,
                       n_tasks: int = 3, grid: int = 50) -> Expected:
    """Write ``prereg.yaml`` plus a measurement directory to ``out_dir`` and
    return the oracle's answer for it.

    Sizes: ``n_joints`` x ``n_tasks`` pairs, each on a ``grid`` x ``grid``
    (q, omega) band, with capability and efficiency measured at the same
    points.
    """
    rng = np.random.default_rng(seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = TASKS[:n_tasks]
    joints = [f"j{i:02d}" for i in range(n_joints)]
    pairs = [(t, j) for t in tasks for j in joints]

    task_w = rng.uniform(0.5, 1.5, n_tasks)
    task_w = task_w / task_w.sum()
    joint_w = {}
    for t in tasks:
        w = rng.uniform(0.5, 1.5, n_joints)
        joint_w[t] = dict(zip(joints, (w / w.sum()).tolist()))
    required = {(t, j): (("flexion",) if ti % 2 == 0 else AXES)
                for ti, t in enumerate(tasks) for j in joints}

    # per-joint scalar measurements
    f_cross = dict(zip(joints, np.round(rng.uniform(4, 14, n_joints), 3)))
    omega_max = dict(zip(joints, np.round(rng.uniform(8, 15, n_joints), 3)))
    robot_rom = {(j, a): _interval(rng) for j in joints for a in AXES}
    coupling = {(j, a): float(rng.choice([0.02, 0.05, 0.15]))
                for j in joints for a in AXES}
    # per-pair targets and requirements
    bw_target = {p: float(np.round(rng.uniform(5, 12), 2)) for p in pairs}
    eff_target = {p: float(np.round(rng.uniform(0.7, 0.9), 3)) for p in pairs}
    therm_req = {p: float(np.round(rng.uniform(20, 120), 2)) for p in pairs}
    therm_cont = {p: float(np.round(rng.uniform(15, 130), 2)) for p in pairs}
    func_rom = {(p, a): _interval(rng) for p in pairs for a in required[p]}

    # band, capability and efficiency samples, one block per pair
    k = np.arange(1, grid + 1)
    cols = {name: [] for name in ("task", "joint", "q", "w", "tau", "p",
                                  "t_rob", "eta")}
    expected_hee, expected_pass, expected_n, eta_bar = {}, {}, {}, {}
    for ti, t in enumerate(tasks):
        for j in joints:
            q = np.repeat(ti * Q_TASK_OFFSET + k - 1, grid).astype(float)
            w = np.tile(k / OMEGA_STEP, grid)
            n = q.size
            stall = rng.uniform(40, 200)
            t_rob = stall * (1.0 - 0.5 * w / w.max()) * rng.uniform(0.9, 1.1, n)
            cls = rng.integers(0, 4, n)
            cls[:4] = np.arange(4)
            torque_fails = (cls == 1) | (cls == 3)
            power_fails = (cls == 2) | (cls == 3)
            r_tau = np.where(torque_fails, rng.uniform(1.05, 1.5, n),
                             rng.uniform(0.5, 0.95, n))
            r_pow = np.where(power_fails, rng.uniform(1.05, 1.5, n),
                             rng.uniform(0.5, 0.95, n))
            tau = t_rob * r_tau
            p = t_rob * w * r_pow
            eta = rng.uniform(0.55, 0.95, n)
            # the same comparisons the envelope test makes, on parsed values
            passed = (t_rob >= tau) & (t_rob * w >= p)
            expected_hee[(t, j)] = float(p[passed].sum() / p.sum())
            expected_pass[(t, j)] = int(passed.sum())
            expected_n[(t, j)] = n
            eta_bar[(t, j)] = float((p * eta).sum() / p.sum())
            for name, values in (("q", q), ("w", w), ("tau", tau), ("p", p),
                                 ("t_rob", t_rob), ("eta", eta)):
                cols[name].append(values)
            cols["task"].append([t] * n)
            cols["joint"].append([j] * n)

    def flat(name):
        return [v for block in cols[name] for v in block]

    def text(name):
        return [_fmt(v) for block in cols[name] for v in block.tolist()]

    q_txt, w_txt = text("q"), text("w")
    _csv(out_dir / "bands.csv",
         ["task", "joint", "q_deg", "omega_rad_s", "torque_hum_nm",
          "power_hum_w"],
         [flat("task"), flat("joint"), q_txt, w_txt, text("tau"), text("p")])
    joint_col = flat("joint")
    t_rob_txt, eta_txt = text("t_rob"), text("eta")
    for j in joints:
        rows = [i for i, jj in enumerate(joint_col) if jj == j]
        _csv(out_dir / f"capability_{j}.csv",
             ["joint", "axis", "q_deg", "omega_rad_s", "torque_nm"],
             [[j] * len(rows), ["flexion"] * len(rows),
              [q_txt[i] for i in rows], [w_txt[i] for i in rows],
              [t_rob_txt[i] for i in rows]])
    _csv(out_dir / "efficiency.csv", ["joint", "q_deg", "omega_rad_s", "eta"],
         [joint_col, q_txt, w_txt, eta_txt])
    _csv(out_dir / "rom_robot.csv", ["joint", "axis", "lo_deg", "hi_deg"],
         [[j for j, _ in robot_rom], [a for _, a in robot_rom],
          [_fmt(v[0]) for v in robot_rom.values()],
          [_fmt(v[1]) for v in robot_rom.values()]])
    _csv(out_dir / "dof_report.csv",
         ["joint", "axis", "implemented", "coupling_rms_fraction"],
         [[j for j, _ in coupling], [a for _, a in coupling],
          ["true"] * len(coupling), [_fmt(v) for v in coupling.values()]])
    _csv(out_dir / "bandwidth.csv",
         ["joint", "f_crossover_hz", "omega_max_rad_s"],
         [joints, [_fmt(f_cross[j]) for j in joints],
          [_fmt(omega_max[j]) for j in joints]])
    _csv(out_dir / "thermal.csv", ["task", "joint", "torque_cont_nm"],
         [[t for t, _ in pairs], [j for _, j in pairs],
          [_fmt(therm_cont[p]) for p in pairs]])

    band_digest = hashlib.sha256((out_dir / "bands.csv").read_bytes())

    def per_pair(table):
        return {t: {j: _fmt(table[(t, j)]) for j in joints} for t in tasks}

    lines = [f'created: "{PREREG_CREATED}"']
    lines += ["tasks:"] + [f"  {t}: {_fmt(w)}" for t, w in zip(tasks, task_w)]
    lines += _yaml_map("joint_weights",
                       {t: {j: _fmt(w) for j, w in joint_w[t].items()}
                        for t in tasks})
    lines += ["feature_weights:"] + [f"  {f}: {_fmt(w)}"
                                     for f, w in FEATURE_WEIGHTS.items()]
    lines += _yaml_map("bandwidth_targets_hz", per_pair(bw_target))
    lines += _yaml_map("efficiency_targets", per_pair(eff_target))
    lines += _yaml_map("thermal_req_nm", per_pair(therm_req))
    lines += _yaml_map("required_axes",
                       {t: {j: "[" + ", ".join(required[(t, j)]) + "]"
                            for j in joints} for t in tasks})
    lines.append("functional_rom_deg:")
    for t in tasks:
        lines.append(f"  {t}:")
        for j in joints:
            axes = ", ".join(
                f"{a}: [{_fmt(func_rom[((t, j), a)][0])}, "
                f"{_fmt(func_rom[((t, j), a)][1])}]"
                for a in required[(t, j)])
            lines.append(f"    {j}: {{{axes}}}")
    lines += ["headroom_delta: 0.0", "breadth_floor: null",
              "critical_tasks: []", "task_gate_min: null",
              "margin_method: min", "use_rate_margin: false",
              "bands:", "  - file: bands.csv",
              f"    sha256: {band_digest.hexdigest()}"]
    (out_dir / "prereg.yaml").write_text("\n".join(lines) + "\n")

    # oracle: the six factors and the three-level weighted mean
    alpha = np.array(list(FEATURE_WEIGHTS.values()))
    jt_score = {}
    for t, j in pairs:
        rom, dof = [], 0
        for a in sorted(required[(t, j)]):
            f_lo, f_hi = func_rom[((t, j), a)]
            r_lo, r_hi = robot_rom[(j, a)]
            rom.append(max(0.0, min(f_hi, r_hi) - max(f_lo, r_lo))
                       / (f_hi - f_lo))
            dof += coupling[(j, a)] < COUPLING_THRESHOLD
        x = np.array([
            sum(rom) / len(rom),
            dof / len(required[(t, j)]),
            expected_hee[(t, j)],
            _clip01(f_cross[j] / bw_target[(t, j)]),
            _clip01(eta_bar[(t, j)] / eff_target[(t, j)]),
            _clip01(therm_cont[(t, j)] / therm_req[(t, j)]),
        ])
        jt_score[(t, j)] = float((alpha * x).sum() / alpha.sum())
    task_scores = {
        t: sum(joint_w[t][j] * jt_score[(t, j)] for j in joints)
        / sum(joint_w[t].values())
        for t in tasks
    }
    total = float(sum(w * task_scores[t] for t, w in zip(tasks, task_w))
                  / task_w.sum())
    return Expected(hlas=total, task_scores=task_scores, hee=expected_hee,
                    pass_counts=expected_pass, samples=expected_n)
