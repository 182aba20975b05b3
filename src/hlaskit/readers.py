"""Measurement files: the readers of each file of a data directory, and
the capability map's writer.

Each reader turns one measurement file into the records of the pairs or
joints it describes, read, hashed and refused line by line through
``tables``.  This module imports nothing from the scorer (``scoring``)
or the pipeline (``config_io``), so a bundle's measurements can be read
and checked by code that cannot compute a score.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .atlas import AxisActuationReport, RomInterval
from .bands import OperatingBand, PointTable
from .envelope import CapabilityMap
from .errors import DataError, InvalidRecord
from .tables import (
    _cell_float,
    _codes,
    _groups,
    _located,
    _read_columns,
    _records,
    _refuse_repeats,
    write_table,
)


def read_bands(
    path: Path, files: dict[Path, str] | None = None,
    sha256: str | None = None,
) -> dict[tuple[str, str], OperatingBand]:
    """Band file: ``task,joint,q_deg,omega_rad_s,torque_hum_nm,power_hum_w``.

    Each pair's band holds its rows in file order; its weights are computed
    at load (proportional to positive power per pair).  As in
    ``_read_columns``, the sha256 of the bytes read goes in ``files`` and
    must be ``sha256``, a registered band file's digest, when given.
    """
    demand = ("q_deg", "omega_rad_s", "torque_hum_nm", "power_hum_w")
    codes: dict = {}
    _, columns, _ = _read_columns(path, ("task", "joint"), demand,
                                  ("task", "joint", "q_deg", "omega_rad_s"),
                                  codes=codes, files=files, sha256=sha256)
    groups = _groups(columns, codes, ("task", "joint"))
    if not groups:
        raise DataError(f"band file {path} has no data rows")
    return {
        (task, joint): OperatingBand(joint, task,
                                     *(columns[c][rows] for c in demand))
        for (task, joint), rows in groups.items()
    }


def read_capability_map(
    path: Path, files: dict[Path, str] | None = None,
) -> CapabilityMap:
    """Capability file: ``joint,axis,q_deg,omega_rad_s,torque_nm`` with the
    measurement conditions carried in the comment header."""
    meta, columns, lines = _read_columns(
        path, ("joint", "axis"), ("q_deg", "omega_rad_s", "torque_nm"),
        ("q_deg", "omega_rad_s"), files=files)
    joints = set(zip(columns["joint"], columns["axis"]))
    if not joints:
        raise DataError(f"capability file {path} has no data rows")
    if len(joints) != 1:
        raise DataError(f"capability file {path} must give one joint/axis, "
                        f"not {sorted(joints)}")
    (joint, axis), = joints
    try:
        return CapabilityMap(joint, axis, columns["q_deg"],
                             columns["omega_rad_s"], columns["torque_nm"],
                             meta.get("conditions", ""))
    except InvalidRecord as exc:
        raise _located(path, exc, lines, exc.row) from None


def write_capability_map(cap: CapabilityMap, path: Path) -> str:
    """``write_table`` of ``cap``, its conditions in the comment header."""
    return write_table(
        path, ("joint", "axis", "q_deg", "omega_rad_s", "torque_nm"),
        ([cap.joint] * len(cap.q), [cap.axis] * len(cap.q), cap.q, cap.omega,
         cap.torque_rob), f"# conditions: {cap.conditions}\n")


def read_rom_file(
    path: Path, files: dict[Path, str] | None = None,
) -> dict[str, dict[str, RomInterval]]:
    """Robot ROM per joint and axis: ``joint,axis,lo_deg,hi_deg``."""
    codes: dict = {}
    _, columns, lines = _read_columns(
        path, ("joint", "axis"), ("lo_deg", "hi_deg"), ("joint", "axis"),
        codes=codes, files=files)
    rom = _records(path, columns, lines, ("lo_deg", "hi_deg"), RomInterval)
    return {joint: {columns["axis"][i]: rom[i] for i in rows}
            for (joint,), rows in _groups(columns, codes, ("joint",)).items()}


def read_dof_file(
    path: Path, files: dict[Path, str] | None = None,
) -> dict[str, list[AxisActuationReport]]:
    """DoF report: ``joint,axis,implemented,coupling_rms_fraction``."""
    codes: dict = {}
    _, columns, lines = _read_columns(
        path, ("joint", "axis", "implemented"), ("coupling_rms_fraction",),
        ("joint", "axis"), codes=codes, files=files)
    reports = _records(
        path, columns, lines, ("axis", "implemented", "coupling_rms_fraction"),
        lambda axis, implemented, coupling: AxisActuationReport(
            axis, implemented.strip().lower() in ("true", "1", "yes"),
            coupling))
    return {joint: [reports[i] for i in rows]
            for (joint,), rows in _groups(columns, codes, ("joint",)).items()}


def read_bandwidth_file(
    path: Path, files: dict[Path, str] | None = None,
) -> dict[str, tuple[float, float | None]]:
    """Per joint: ``f_crossover_hz`` and the optional ``omega_max_rad_s``,
    None where that column is absent or its cell empty.  Every cell is
    converted before a repeated joint is refused."""
    _, columns, lines = _read_columns(path, ("joint",), ("f_crossover_hz",),
                                      (), files=files)
    cells = columns.get("omega_max_rad_s", [""] * len(lines))
    omega_max = [_cell_float(path, lines, i, "omega_max_rad_s", cell)
                 if cell else None for i, cell in enumerate(cells)]
    _refuse_repeats(path, columns, {"joint": _codes(columns["joint"])},
                    ("joint",), lines)
    return dict(zip(columns["joint"],
                    zip(columns["f_crossover_hz"].tolist(), omega_max)))


def read_efficiency_file(
    path: Path, files: dict[Path, str] | None = None,
) -> dict[str, PointTable]:
    """Point efficiency: ``joint,q_deg,omega_rad_s,eta``; per joint, the
    efficiency at each (q, omega) point.  Efficiency is mechanical power
    out over bus power in, so an ``eta`` outside [0, 1] is refused."""
    names = ("q_deg", "omega_rad_s", "eta")
    codes: dict = {}
    _, columns, lines = _read_columns(path, ("joint",), names,
                                      ("joint", "q_deg", "omega_rad_s"),
                                      codes=codes, files=files)
    q, omega, eta = (columns[c] for c in names)
    outside = np.flatnonzero((eta < 0) | (eta > 1))
    if outside.size:
        raise _located(path, InvalidRecord(f"eta {eta[outside[0]].item()!r} "
                                           f"must lie in [0, 1]"),
                       lines, outside[0])
    return {joint: PointTable(q[rows], omega[rows], eta[rows],
                              f"efficiency of joint {joint}")
            for (joint,), rows in _groups(columns, codes, ("joint",)).items()}


def read_thermal_file(
    path: Path, files: dict[Path, str] | None = None,
) -> dict[tuple[str, str], float]:
    """Plateau torques: ``task,joint,torque_cont_nm``."""
    _, columns, _ = _read_columns(path, ("task", "joint"), ("torque_cont_nm",),
                                  ("task", "joint"), files=files)
    return dict(zip(zip(columns["task"], columns["joint"]),
                    columns["torque_cont_nm"].tolist()))
