"""Pre-registration documents, measurement file formats, and report output.

The pre-registration document declares, before any measurement: the task
set and weights, joint sets and weights, feature weights, operating-band
files (with content digests), and the bandwidth/efficiency/thermal targets.
Its canonical serialization (sorted keys, 12 significant digits) is hashed
so that any later change to a weight, target, or band is detectable.

Timestamps are advisory: the tool verifies that measurement files do not
predate the registration, but it cannot prove provenance.  That is stated
plainly in every binding report.

All file formats here are toolkit plumbing - delimited text with ``#``
comment headers - designed for diffability and spreadsheet import, not
interchange with any external standard.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import json
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from datetime import date, datetime, timezone
from itertools import chain, repeat
from pathlib import Path

import numpy as np
import yaml

from .atlas import AxisActuationReport, AxisSpec, RomInterval, functional_interval
from .bands import OperatingBand, PointTable
from .envelope import MARGIN_METHODS, CapabilityMap, HeeResult, hee_coverage
from .errors import (
    ConfigIncomplete,
    DataError,
    DuplicateDeclaration,
    DuplicateKey,
    IncompleteAnalyses,
    InvalidDeclaration,
    InvalidRecord,
    MissingSection,
)
from .scoring import (
    FEATURE_NAMES,
    PairInputs,
    ScoreBreakdown,
    WeightScheme,
    hlas,
)
from .signals import CHANNELS, TimeSeriesLog

CANONICAL_SIG_DIGITS = 12

LOG_COLUMNS = (
    "t_s", "q_deg", "omega_rad_s", "torque_nm", "torque_cmd_nm",
    "v_bus_v", "i_bus_a", "temp_motor_c", "temp_gear_c",
)


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    return sha256_hex(Path(path).read_bytes())


def _utf8(data: bytes, where, error: type = DataError) -> str:
    """``data`` decoded as UTF-8, without one leading byte-order mark;
    otherwise ``error`` naming ``where`` and the line, as
    ``str.splitlines`` numbers lines, of the first byte that does not
    decode."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # the bytes before it decode; "." stands for the line it starts
        line = len((data[:exc.start].decode("utf-8") + ".").splitlines())
        raise error(f"{where}: line {line}: byte {data[exc.start]:#04x} is "
                    f"not UTF-8 text") from None


def fmt(value) -> str:
    """Cell formatting that round-trips floats bit-identically."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_timestamp(text: str) -> datetime:
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt


def _quantize(obj):
    """Recursively round floats to 12 significant digits for canonical form."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.{CANONICAL_SIG_DIGITS}g}")
    if isinstance(obj, dict):
        return {str(k): _quantize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_quantize(v) for v in obj]
    return obj


def canonical_json(content) -> str:
    return json.dumps(_quantize(content), sort_keys=True, indent=2,
                      ensure_ascii=True) + "\n"


def _table(
    path: Path, text: str, required_columns: tuple[str, ...] = (),
    header_only: bool = False,
) -> tuple[dict[str, str], list[str], list[list[str]], list[int]]:
    """Read a delimited-text file with ``# key: value`` metadata lines from
    ``text``, its contents at ``path``.

    Returns ``(meta, header, rows, lines)``: the metadata of every ``#``
    line wherever it appears, the header cells, each data row's string cells
    and its 1-based file line; blank lines are skipped.  ``header_only``
    still collects all metadata but builds no rows.  A header that names a
    column twice, a missing required column or a row whose field count
    differs from the header raises ``DataError``.
    """
    meta: dict[str, str] = {}
    lines: list[tuple[int, str]] = []
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if stripped.startswith("#"):
            key, sep, value = stripped.lstrip("#").strip().partition(":")
            if sep:
                meta[key.strip()] = value.strip()
        elif stripped and not (header_only and lines):
            lines.append((number, line))
    reader = csv.reader(line for _, line in lines)
    try:
        table = list(reader)
    except csv.Error as exc:        # e.g. a cell over csv's field size limit
        raise DataError(f"{path}: line {lines[reader.line_num - 1][0]}: "
                        f"{exc}") from None
    if len(table) != len(lines):
        raise DataError(f"{path}: a quoted field runs past the end of a line")
    header, rows = (table[0], table[1:]) if table else ([], [])
    seen: set[str] = set()
    twice = [name for name in header if name in seen or seen.add(name)]
    if twice:
        raise DataError(f"{path}: line {lines[0][0]}: the header names "
                        f"column {twice[0]!r} twice")
    missing = set(required_columns) - set(header)
    if missing:
        raise DataError(
            f"{path}: missing column(s) {sorted(missing)}; expected "
            f"{list(required_columns)}"
        )
    numbers = [number for number, _ in lines[1:]]
    for number, row in zip(numbers, rows):
        if len(row) != len(header):
            raise DataError(f"{path}: line {number}: {len(row)} fields, "
                            f"header has {len(header)}")
    return meta, header, rows, numbers


# a quote, and the line breaks of ``str.splitlines`` other than "\n" that
# ASCII holds
_NOT_PLAIN = '"\r\v\f\x1c\x1d\x1e'


def _plain(text: str) -> bool:
    """Whether ``text`` is ASCII without quotes, breaking lines only at
    "\n"."""
    return text.isascii() and not any(c in text for c in _NOT_PLAIN)


def _header_end(text: str) -> int | None:
    """Where the header line of ``text`` (its first line neither blank nor
    a ``#`` comment) ends, its "\n" included; None when it has none."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        stripped = text[start:end].strip()
        if stripped and not stripped.startswith("#"):
            return end
        start = end
    return None


def read_table(
    path: Path, header_only: bool = False,
) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """``(meta, header, rows)`` of the file at ``path``; see ``_table``.

    A whole table is read by ``_read_columns``, every column as text.  With
    ``header_only`` a plain text is read a block at a time
    (``_file_blocks``), keeping its lines up to the header line and each
    ``#`` line after it, which is all ``_table`` reads of it; any other
    text is parsed from one full read of the same open file (``_utf8``).
    """
    if not header_only:
        meta, columns, _ = _read_columns(path, (), (), ())
        return meta, list(columns), list(map(list, zip(*columns.values())))
    with open(path, "rb") as file:
        text = _header_text(_file_blocks(file, None))
        if text is None:
            file.seek(0)
            text = _utf8(file.read(), path)
    return _table(path, text, (), True)[:3]


def _header_text(blocks: Iterable[str]) -> str | None:
    """The lines of a plain text (``_plain``), given as ``_file_blocks``
    gives them, up to and with its header line (``_header_end``), then its
    ``#`` lines after it, each ended by "\n"; None as soon as a block is not
    plain.  It holds one block and the lines it keeps."""
    head, comments, end = "", [], None
    for block in blocks:
        if not _plain(block):
            return None
        if end is None:             # up to and with the header line
            head += block + "\n"
            end = _header_end(head)
            if end is None:
                continue
            head, block = head[:end], head[end:-1]
        if "#" in block:
            comments += (line + "\n" for line in block.split("\n")
                         if line.strip().startswith("#"))
    return head + "".join(comments)


def _located(path: Path, exc: DataError, lines: Sequence[int],
             row: int | None) -> DataError:
    """``exc`` again, naming ``path`` and, for data row ``row``, its line."""
    where = path if row is None else f"{path}: line {lines[row]}"
    return type(exc)(f"{where}: {exc}")


def _cell_float(path: Path, lines: list[int], row: int, column: str,
                cell: str) -> float:
    """One numeric cell of data row ``row``; a non-numeric or non-finite
    cell raises ``DataError`` naming its file line."""
    try:
        value = float(cell)
    except ValueError:
        problem = "is not a number"
    else:
        if math.isfinite(value):
            return value
        problem = "is not finite"
    raise _located(path, DataError(f"{column} {cell!r} {problem}"), lines,
                   row)


_Columns = tuple[dict[str, str], dict[str, list | np.ndarray], Sequence[int]]


def _cell_columns(
    path: Path, text: str, text_columns: tuple[str, ...],
    float_columns: tuple[str, ...], all_float: bool = False,
) -> _Columns:
    """``_read_columns`` before its key check, parsed a cell at a time: the
    first non-numeric or non-finite float cell, in row order, raises
    ``DataError``."""
    meta, header, rows, lines = _table(path, text,
                                       (*text_columns, *float_columns))
    index = {name: i for i, name in enumerate(header)}
    names = tuple(header) if all_float else float_columns
    cells = rows if all_float else [[row[index[c]] for c in names]
                                    for row in rows]
    try:
        numbers = np.array(cells, dtype=float).reshape(len(rows), len(names))
        finite = np.isfinite(numbers).all()
    except ValueError:
        finite = False
    if not finite:      # bad input only: find the offending cell one by one
        numbers = np.array([
            [_cell_float(path, lines, i, c, cell)
             for c, cell in zip(names, row)]
            for i, row in enumerate(cells)
        ]).reshape(len(rows), len(names))
    floats = dict(zip(names, np.ascontiguousarray(numbers.T)))
    return meta, {c: floats[c] if c in floats else [row[i] for row in rows]
                  for i, c in enumerate(header)}, lines


# bytes of a file read at a time, and about the characters of a table
# written at a time (``table_blocks``)
_BLOCK = 1 << 16


def _file_blocks(file, digest) -> Iterator[str]:
    """The bytes of the binary ``file``, read ``_BLOCK`` at a time, as
    blocks of whole lines, each cut at the last "\n" of a read: every line
    in order, lines joined by "\n", and no block keeping the "\n" that ends
    its last line.  A CR that ends a line before its "\n" is dropped, so the
    lines are those ``str.splitlines`` gives; a lone CR is kept.  A block is
    decoded as Latin-1 (each byte one character), so a lone CR or a byte
    outside ASCII keeps it from being plain.  One leading UTF-8 byte-order
    mark is dropped.  ``digest``, unless None, is updated with each read,
    the mark included."""
    pieces: list[bytes] = []        # a line not yet ended
    first = True
    while data := file.read(_BLOCK):
        if digest is not None:
            digest.update(data)
        if first:
            data, first = data.removeprefix(codecs.BOM_UTF8), False
        cut = data.rfind(b"\n")
        if cut < 0:
            pieces.append(data)
            continue
        pieces.append(data[:cut])
        block = b"".join(pieces)
        if b"\r" in block:      # ``in`` scans ~50x faster than ``replace``
            block = block.replace(b"\r\n", b"\n").removesuffix(b"\r")
        yield block.decode("latin-1")
        pieces = [data[cut + 1:]]
    if any(pieces):
        yield b"".join(pieces).replace(b"\r\n", b"\n").decode("latin-1")


def _regular_columns(
    path: Path, blocks: Iterable[str], text_columns: tuple[str, ...],
    float_columns: tuple[str, ...], all_float: bool = False,
) -> _Columns | None:
    """``_cell_columns`` of a regular text, parsed a column at a time from
    its ``blocks`` (as ``_file_blocks`` gives them); None as soon as a block
    shows that the text is not regular.

    Regular text is plain (``_plain``), has a header line that ``_table``
    accepts, no ``#`` and no blank line after its header line, and the
    header's field count on every data line.  Its float cells convert as
    ``_cell_columns`` converts them; a cell that does not convert to a
    finite float, or any cell over csv's field size limit, makes the text
    irregular, so its error or its value comes from the per-cell path.

    The header is parsed once, from the blocks up to the header line; each
    block is then checked, split and converted before the next is taken,
    so the parse holds one block's cells and the float columns; a float
    column of more than one block is concatenated once at the end.
    """
    blocks = iter(blocks)
    head = ""
    for block in blocks:            # up to and with the header line
        if not _plain(block):
            return None
        head += block + "\n"
        end = _header_end(head)
        if end is not None:
            break
    else:
        return None
    try:
        meta, header, _, _ = _table(path, head[:end],
                                    (*text_columns, *float_columns))
    except DataError:       # raised again, in file order, by the per-cell path
        return None
    width = len(header)
    names = tuple(header) if all_float else float_columns
    columns: dict = {c: [] for c in header}
    pieces: dict = {c: [] for c in names}
    texts = [(i, c) for i, c in enumerate(header) if c not in pieces]
    rows = 0
    first = head.count("\n", 0, end - 1) + 2      # the first data line
    # the lines after the header line in its block, then the other blocks
    blocks = chain([head[end:-1]] if end < len(head) else [], blocks)
    del head
    for block in blocks:
        lines = block.split("\n")
        # a blank line has the field count of a header of one column
        if not _plain(block) or "#" in block or set(map(
                str.count, lines, repeat(","))) != {width - 1} \
                or width == 1 and not all(map(str.strip, lines)):
            return None
        del lines
        cells = block.replace("\n", ",").split(",")
        # the per-cell path refuses a cell over csv's field size limit
        limit = csv.field_size_limit()
        if len(block) > limit and max(map(len, cells)) > limit:
            return None
        del block
        for i, c in texts:
            columns[c] += cells[i::width]
        try:
            values = [np.array(cells[header.index(c)::width], dtype=float)
                      for c in names]
        except ValueError:
            return None
        if not all(np.isfinite(v).all() for v in values):
            return None
        for c, v in zip(names, values):
            pieces[c].append(v)
        rows += len(cells) // width
        del cells           # before the next block is taken
    for c in names:     # each column's pieces are freed once it is joined
        parts = pieces.pop(c)
        columns[c] = parts[0] if len(parts) == 1 else np.concatenate(
            [np.empty(0), *parts])
    return meta, columns, range(first, first + rows)


def _read_columns(
    path: Path, text_columns: tuple[str, ...],
    float_columns: tuple[str, ...], key: tuple[str, ...],
    all_float: bool = False, codes: dict[str, np.ndarray] | None = None,
    files: dict[Path, str] | None = None, sha256: str | None = None,
) -> _Columns:
    """Metadata, every header column's cells in file order, in header
    order, and each row's line: a float64 array per float column and a list
    of strings per other column.  ``text_columns`` and ``float_columns``
    name the columns that must be there; the float columns are
    ``float_columns``, or with ``all_float`` every header column.

    The file is opened once and a regular text (``_regular_columns``) is
    read and parsed a block at a time (``_file_blocks``); any other text is
    parsed a cell at a time from one full read of the same open file, with
    the same values and the same errors.  The sha256 of the bytes parsed
    must be ``sha256`` when that is given; it is checked before the per-cell
    parse and before any key or value check.  ``files``, when given,
    receives it under ``path`` once the file parses.
    ``key`` names the columns that identify a measurement: a repeated key
    raises ``DuplicateKey`` naming both lines, comparing numeric cells as
    floats (``10`` and ``10.0`` are one point).  ``codes``, when given,
    receives the ``_codes`` of the text columns of ``key``, for ``_groups``.
    """
    digest = None if files is None and sha256 is None else hashlib.sha256()
    with open(path, "rb") as file:
        parsed = _regular_columns(path, _file_blocks(file, digest),
                                  text_columns, float_columns, all_float)
        if parsed is None:
            file.seek(0)
            data = file.read()
            if digest is not None:
                digest = hashlib.sha256(data)
    if sha256 is not None and digest.hexdigest() != sha256:
        raise DataError(f"{path}: digest {digest.hexdigest()} does not match "
                        f"registered {sha256}")
    if parsed is None:
        text = _utf8(data, path)
        del data
        parsed = _cell_columns(path, text, text_columns, float_columns,
                               all_float)
        del text
    if files is not None:
        files[path] = digest.hexdigest()
    meta, columns, lines = parsed
    codes = {} if codes is None else codes
    codes.update((c, _codes(columns[c])) for c in key if c in text_columns)
    _refuse_repeats(path, columns, codes, key, lines)
    return meta, columns, lines


def _codes(cells: list[str]) -> np.ndarray:
    """Each cell's index among the distinct cells, numbered in order of
    first appearance."""
    index = {cell: i for i, cell in enumerate(dict.fromkeys(cells))}
    return np.fromiter(map(index.__getitem__, cells), np.intp, len(cells))


def _refuse_repeats(path: Path, columns: dict, codes: dict,
                    key: tuple[str, ...], lines: Sequence[int]) -> None:
    """Raise ``DuplicateKey`` at the first row whose cells in the ``key``
    columns (float, or text by their ``codes``) repeat an earlier row's,
    naming both lines; no check without ``key`` columns."""
    if not key or len(lines) < 2:
        return
    cells = [columns[c] for c in key]
    keys = np.array([codes.get(c, columns[c]) for c in key],
                    dtype=float)                    # one row per column
    order = np.lexsort(keys)            # stable: equal keys in file order
    ranked = keys[:, order]
    repeats = order[1:][(ranked[:, 1:] == ranked[:, :-1]).all(axis=0)]
    if repeats.size:
        i = int(repeats.min())
        earlier = int(np.flatnonzero((keys == keys[:, [i]]).all(axis=0))[0])
        found = tuple(c[i].item() if isinstance(c, np.ndarray) else c[i]
                      for c in cells)
        raise _located(path, DuplicateKey(
            f"({', '.join(key)}) = {found!r} repeats line "
            f"{lines[earlier]}"), lines, i)


def _groups(columns: dict, codes: dict, names: tuple[str, ...]) -> dict:
    """The rows of each distinct combination of the named text columns'
    cells (by their ``codes``), in order of first appearance, each group's
    rows in file order."""
    label = np.zeros(len(columns[names[0]]), dtype=np.intp)
    for name in names:
        label = label * len(label) + codes[name]
    order = np.argsort(label, kind="stable")
    ranked = label[order]
    groups = np.split(order, np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
                      ) if len(order) else []
    return {tuple(columns[c][rows[0]] for c in names): rows
            for rows in sorted(groups, key=lambda rows: rows[0])}


def _records(path: Path, columns: dict, lines: Sequence[int],
             names: tuple[str, ...], make) -> list:
    """``make(*cells)`` for each data row, in file order, of its cells in
    the ``names`` columns, a float cell as a Python float (a NumPy scalar
    would reach ``fmt`` as ``np.float64(...)``); a ``DataError`` from
    ``make`` is raised again naming the row's line."""
    cells = (columns[c].tolist() if isinstance(columns[c], np.ndarray)
             else columns[c] for c in names)
    records: list = []
    try:
        for row in zip(*cells):
            records.append(make(*row))
    except DataError as exc:
        raise _located(path, exc, lines, len(records)) from None
    return records


# ---------------------------------------------------------------------------
# measurement file formats
# ---------------------------------------------------------------------------

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
        path, columns, lines,
        ("joint", "axis", "implemented", "coupling_rms_fraction"),
        lambda joint, axis, implemented, coupling: AxisActuationReport(
            AxisSpec(joint, axis),
            implemented.strip().lower() in ("true", "1", "yes"), coupling))
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


def write_log(log: TimeSeriesLog, path: Path) -> str:
    """``write_table`` of ``log``'s channels under ``LOG_COLUMNS``, its
    sample rate, conditions and seed in the comment header."""
    seed = "" if log.seed is None else f"# seed: {log.seed}\n"
    return write_table(
        path, LOG_COLUMNS, [getattr(log, name) for name in CHANNELS],
        f"# sample_rate_hz: {fmt(float(log.sample_rate))}\n"
        f"# conditions: {log.conditions}\n{seed}")


def read_log(path: Path,
             files: dict[Path, str] | None = None) -> TimeSeriesLog:
    """A log in ``write_log``'s format, read by ``_read_columns`` as a file
    with no key columns: every header column holds finite numbers,
    ``LOG_COLUMNS`` among them, and a repeated row breaks the strictly
    increasing time channel.  ``files``, when given, receives under
    ``path`` the sha256 of the bytes parsed."""
    meta, columns, lines = _read_columns(path, (), LOG_COLUMNS, (),
                                         all_float=True, files=files)
    if "sample_rate_hz" not in meta:
        raise DataError(f"log {path} is missing the sample_rate_hz header")
    try:
        return TimeSeriesLog(      # LOG_COLUMNS are its channels, in order
            *(columns[name] for name in LOG_COLUMNS),
            sample_rate=_header_number(meta, "sample_rate_hz", float),
            conditions=meta.get("conditions", ""),
            seed=_header_number(meta, "seed", int) if "seed" in meta else None,
        )
    except InvalidRecord as exc:
        raise _located(path, exc, lines, exc.row) from None


def _finite(value, kind: type = float) -> float | None:
    """``kind(value)`` (float or int) when that is a finite number, else
    None."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return number if math.isfinite(number) else None


def _header_number(meta: dict[str, str], name: str, kind: type) -> float:
    """The ``# name:`` header as a finite ``kind``; ``InvalidRecord``
    otherwise."""
    number = _finite(meta[name], kind)
    if number is None:
        raise InvalidRecord(f"{name} header {meta[name]!r} is not a finite "
                            f"{kind.__name__}")
    return number


# ---------------------------------------------------------------------------
# pre-registration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandRef:
    file: str
    sha256: str


@dataclass(frozen=True)
class Preregistration:
    scheme: WeightScheme
    bands: tuple[BandRef, ...]
    thermal_req: dict[tuple[str, str], float]
    required_axes: dict[tuple[str, str], frozenset[str]]
    functional_rom: dict[tuple[str, str], dict[str, RomInterval]]
    rate_req: dict[tuple[str, str], float]
    created: str
    digest: str
    content: dict               # the canonical form that ``digest`` hashes


class _RegistrationLoader(yaml.SafeLoader):
    """PyYAML's safe loader, refusing a key given twice in one mapping (the
    plain safe loader keeps the last of them).  A ``<<`` merge key may
    still be overridden by the mapping's own keys."""

    def construct_mapping(self, node, deep=False):
        own = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep)
        first: dict = {}
        for i, k in enumerate(own):
            key = self.constructed_objects[k]
            earlier = first.setdefault(key, i)
            if earlier != i:
                raise DuplicateDeclaration(
                    f"key {key!r} on line {k.start_mark.line + 1} "
                    f"repeats line {own[earlier].start_mark.line + 1}")
        return mapping


# Registration shapes: each checker takes a value and the section and entry
# it sits at, and returns the value's canonical form or raises
# ``InvalidDeclaration`` naming that place.

def _checked(ok: bool, value, where: str, shape: str):
    if not ok:
        raise InvalidDeclaration(f"{where}: {value!r} is not {shape}")
    return value


def _number(value, where: str) -> float:
    number = _finite(value)
    _checked(number is not None, value, where, "a finite number")
    return number


def _optional_number(value, where: str) -> float | None:
    return None if value is None else _number(value, where)


def _name(value, where: str) -> str:
    """A task, joint, axis or file name: any YAML scalar, as text."""
    return str(_checked(not isinstance(value, (dict, list, type(None))),
                        value, where, "a name"))


def _keyed(leaf):
    """name -> ``leaf``."""
    return lambda value, where: {
        str(k): leaf(v, f"{where}: {k}") for k, v in _checked(
            isinstance(value, dict), value, where, "a mapping").items()}


def _per_pair(leaf):
    """task -> joint -> ``leaf``, as a table of (task, joint) pairs: a task
    that names no joint is left out."""
    per_joint = _keyed(_keyed(leaf))
    return lambda value, where: {
        t: joints for t, joints in per_joint(value, where).items() if joints}


def _list_of(item, shape: str):
    return lambda value, where: [item(v, where) for v in _checked(
        isinstance(value, list), value, where, shape)]


def _set_of(item, shape: str):
    """A list of ``item`` values, sorted, each once."""
    as_list = _list_of(item, shape)
    return lambda value, where: sorted(set(as_list(value, where)))


def _axes(value, where: str) -> list[str]:
    """A non-empty ``_set_of`` axis names."""
    axes = _set_of(_name, "a list of names")(value, where)
    _checked(bool(axes), value, where, "a non-empty list of names")
    return axes


def _interval(value, where: str) -> list[float]:
    lo, hi = (_number(v, where) for v in _checked(isinstance(value, list)
              and len(value) == 2, value, where, "a [lo, hi] pair"))
    _checked(lo < hi, value, where, "a [lo, hi] pair with lo < hi")
    return [lo, hi]


def _pair(value, where: str) -> tuple[str, str]:
    return tuple(_name(v, where) for v in _checked(isinstance(value, list)
                 and len(value) == 2, value, where, "a [task, joint] pair"))


def _band_ref(value, where: str) -> dict[str, str]:
    """``{file, sha256}``; other keys are not read."""
    _checked(isinstance(value, dict) and {"file", "sha256"} <= value.keys(),
             value, where, "a {file, sha256} mapping")
    return {k: _name(value[k], f"{where}: {k}") for k in ("file", "sha256")}


def _margin_method(value, where: str) -> str:
    return _checked(value in MARGIN_METHODS, value, where,
                    f"one of {MARGIN_METHODS}")


def _flag(value, where: str) -> bool:
    return _checked(isinstance(value, bool), value, where, "true or false")


def _timestamp(value, where: str) -> str:
    """ISO 8601 text; a stamp YAML read as a date keeps its ``str()``."""
    try:
        ok = isinstance(value, (str, date)) and bool(parse_timestamp(
            str(value)))
    except ValueError:
        ok = False
    return str(_checked(ok, value, where, "an ISO 8601 timestamp"))


REQUIRED = object()     # absent or null: MissingSection
OMITTED = object()      # absent, null or empty: not in the canonical form

# section -> (shape, the value an absent or null section takes)
SECTIONS = {
    "tasks": (_keyed(_number), REQUIRED),
    "joint_weights": (_keyed(_keyed(_number)), REQUIRED),
    "feature_weights": (_keyed(_number), REQUIRED),
    "bandwidth_targets_hz": (_keyed(_keyed(_number)), REQUIRED),
    "efficiency_targets": (_keyed(_keyed(_number)), REQUIRED),
    "thermal_req_nm": (_per_pair(_number), REQUIRED),
    "required_axes": (_per_pair(_axes), REQUIRED),
    "functional_rom_deg": (_per_pair(_keyed(_interval)), {}),
    "rate_req_rad_s": (_per_pair(_number), OMITTED),
    "headroom_delta": (_number, 0.0),
    "breadth_floor": (_optional_number, None),
    "critical_tasks": (_set_of(_name, "a list of names"), []),
    "task_gate_min": (_optional_number, None),
    "margin_method": (_margin_method, "min"),
    "use_rate_margin": (_flag, False),
    "score_as_zero": (_set_of(_pair, "a list of [task, joint] pairs"), []),
    "bands": (_list_of(_band_ref, "a list of {file, sha256} mappings"),
              REQUIRED),
    "created": (_timestamp, "1970-01-01T00:00:00Z"),
}


def _by_pair(table: dict, f=lambda value: value) -> dict:
    """A task -> joint -> value table keyed by ``(task, joint)``."""
    return {(task, joint): f(value) for task, joints in table.items()
            for joint, value in joints.items()}


def load_preregistration(text: str | bytes) -> Preregistration:
    """Parse and validate a pre-registration document (YAML or JSON text,
    or its UTF-8 bytes).

    Each section of ``SECTIONS`` is checked against its shape; the weight
    scheme and per-pair tables are read from the hashed canonical content.
    """
    if isinstance(text, bytes):
        text = _utf8(text, "pre-registration", InvalidDeclaration)
    try:
        doc = yaml.load(text, Loader=_RegistrationLoader)
    except yaml.YAMLError as exc:
        raise InvalidDeclaration(f"pre-registration is not YAML: {exc}") \
            from None
    if not isinstance(doc, dict):
        raise MissingSection("pre-registration document is not a mapping")
    content = {}
    for name, (check, default) in SECTIONS.items():
        value = default if doc.get(name) is None else doc[name]
        if value is REQUIRED:
            raise MissingSection(f"missing required section {name!r}")
        if value is not OMITTED:
            value = check(value, name)
            if value or default is not OMITTED:
                content[name] = value

    scheme = WeightScheme(
        task_weights=content["tasks"], joint_weights=content["joint_weights"],
        feature_weights=content["feature_weights"],
        bandwidth_targets=content["bandwidth_targets_hz"],
        efficiency_targets=content["efficiency_targets"],
        headroom_delta=content["headroom_delta"],
        breadth_floor=content["breadth_floor"],
        critical_tasks=frozenset(content["critical_tasks"]),
        task_gate_min=content["task_gate_min"],
        margin_method=content["margin_method"],
        use_rate_margin=content["use_rate_margin"],
        score_as_zero=frozenset(content["score_as_zero"]),
    )
    scheme.validate()
    return Preregistration(
        scheme=scheme,
        bands=tuple(BandRef(**ref) for ref in content["bands"]),
        thermal_req=_by_pair(content["thermal_req_nm"]),
        required_axes=_by_pair(content["required_axes"], frozenset),
        functional_rom=_by_pair(content["functional_rom_deg"], lambda axes: {
            axis: RomInterval(*bounds) for axis, bounds in axes.items()}),
        rate_req=_by_pair(content.get("rate_req_rad_s", {})),
        created=content["created"],
        digest=sha256_hex(canonical_json(content).encode()),
        content=content,
    )


def load_preregistration_file(path: Path) -> Preregistration:
    return load_preregistration(Path(path).read_bytes())


@dataclass(frozen=True)
class BindingReport:
    passed: bool
    findings: tuple[str, ...]
    note: str = ("timestamps are advisory: ordering is verified, "
                 "provenance cannot be proven")


def verify_prereg_binding(
    prereg: Preregistration, measurement_files: list[Path]
) -> BindingReport:
    """Check that measurements postdate the registration and that any
    embedded registration digests match.

    Registered band files are exempt from the ordering check: they are part
    of the declaration (bound by digest instead), so they may predate it.
    Violations are report content, not exceptions: the report is the
    product.  A ``created_utc`` header not in ISO 8601 raises ``DataError``.
    """
    created = parse_timestamp(prereg.created)
    registered = {ref.file for ref in prereg.bands}
    findings = []
    for path in measurement_files:
        path = Path(path)
        meta, _, _ = read_table(path, header_only=True)
        if "created_utc" in meta:
            try:
                stamp = parse_timestamp(meta["created_utc"])
            except ValueError:
                raise DataError(f"{path}: created_utc header "
                                f"{meta['created_utc']!r} is not an ISO "
                                f"8601 timestamp") from None
        else:
            stamp = datetime.fromtimestamp(path.stat().st_mtime, timezone.utc)
        if path.name not in registered and stamp < created:
            findings.append(
                f"{path.name}: measurement timestamp {stamp.isoformat()} "
                f"predates pre-registration {created.isoformat()}"
            )
        declared = meta.get("prereg_sha256")
        if declared is not None and declared != prereg.digest:
            findings.append(
                f"{path.name}: embedded registration digest {declared} does "
                f"not match {prereg.digest}"
            )
    return BindingReport(passed=not findings, findings=tuple(findings))


# ---------------------------------------------------------------------------
# measurement-set assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementSet:
    bands: dict[tuple[str, str], OperatingBand]
    capabilities: dict[str, CapabilityMap]
    robot_rom: dict[str, dict[str, RomInterval]]
    dof_reports: dict[str, list[AxisActuationReport]]
    bandwidth: dict[str, tuple[float, float | None]]
    efficiency: dict[str, PointTable]
    thermal_cont: dict[tuple[str, str], float]
    files: dict[Path, str]      # path -> sha256 of the bytes read, in order


def load_measurements(
    data_dir: Path, prereg: Preregistration,
    read: dict[Path, str] | None = None,
) -> MeasurementSet:
    """Load every measurement file of a data directory, each read once by
    its reader, which hashes the bytes it parses and, for a registered band
    file, checks them against the registration before any value is checked.
    ``files`` lists the digests of ``read`` (files read before, such as the
    registration), then those of the measurement files."""
    data_dir = Path(data_dir)
    sources: dict[tuple[str, str], Path] = {}
    files = dict(read or {})

    def claim(kind: str, subject: str, path: Path) -> None:
        """Refuse a subject that another file of the same kind gave."""
        earlier = sources.setdefault((kind, subject), path)
        if earlier != path:
            raise DuplicateKey(f"{kind} {earlier.name} and {path.name} both "
                               f"describe {subject}")

    bands: dict[tuple[str, str], OperatingBand] = {}
    for ref in prereg.bands:
        path = data_dir / ref.file
        if not path.exists():
            raise DataError(f"registered band file {ref.file} not found")
        for pair, band in read_bands(path, files, ref.sha256).items():
            claim("band files", f"pair {pair}", path)
            bands[pair] = band

    capabilities: dict[str, CapabilityMap] = {}
    for path in sorted(data_dir.glob("capability_*.csv")):
        cap = read_capability_map(path, files)
        claim("capability maps", f"joint {cap.joint!r}", path)
        capabilities[cap.joint] = cap

    def required(name: str, reader):
        path = data_dir / name
        if not path.exists():
            raise DataError(f"measurement file {name} not found in {data_dir}")
        return reader(path, files)

    return MeasurementSet(
        bands=bands, capabilities=capabilities,
        robot_rom=required("rom_robot.csv", read_rom_file),
        dof_reports=required("dof_report.csv", read_dof_file),
        bandwidth=required("bandwidth.csv", read_bandwidth_file),
        efficiency=required("efficiency.csv", read_efficiency_file),
        thermal_cont=required("thermal.csv", read_thermal_file),
        files=files,
    )


def build_pairs(
    prereg: Preregistration, measurements: MeasurementSet
) -> list[PairInputs]:
    """Join registration and measurements into scoring inputs.

    Functional ROM comes from the registration's per-task overrides, falling
    back to the atlas norms for axes without an override.
    """
    pairs = []
    for task, joint in prereg.scheme.pairs():
        key = (task, joint)
        if key in prereg.scheme.score_as_zero:
            continue
        if key not in measurements.bands:
            raise ConfigIncomplete(f"no band for declared pair {key}")
        if joint not in measurements.capabilities:
            raise ConfigIncomplete(f"no capability map for joint {joint!r}")
        if key not in prereg.required_axes:
            raise ConfigIncomplete(f"no required axes declared for {key}")
        axes = prereg.required_axes[key]

        override = prereg.functional_rom.get(key, {})
        functional = {axis: override.get(axis) or functional_interval(
            joint, axis) for axis in axes}
        qualitative = sorted(a for a, iv in functional.items() if iv is None)
        if qualitative:
            raise ConfigIncomplete(
                f"no functional interval for axis {qualitative[0]!r} of "
                f"{key}; the atlas norm is qualitative, declare an override"
            )
        if joint not in measurements.bandwidth:
            raise ConfigIncomplete(f"no bandwidth measurement for {joint!r}")
        if key not in measurements.thermal_cont:
            raise ConfigIncomplete(f"no thermal plateau measurement for {key}")
        if key not in prereg.thermal_req:
            raise ConfigIncomplete(f"no thermal requirement for {key}")
        f_crossover, omega_max = measurements.bandwidth[joint]
        pairs.append(PairInputs(
            task=task, joint=joint, band=measurements.bands[key],
            capability=measurements.capabilities[joint],
            robot_rom=measurements.robot_rom.get(joint, {}),
            functional_rom=functional,
            required_axes=axes,
            dof_reports=measurements.dof_reports.get(joint, []),
            f_crossover_hz=f_crossover,
            efficiency_samples=(measurements.efficiency.get(joint)
                                or PointTable((), (), ())),
            torque_cont_nm=measurements.thermal_cont[key],
            torque_req_nm=prereg.thermal_req[key],
            omega_max_rad_s=omega_max,
            omega_req_rad_s=prereg.rate_req.get(key),
        ))
    return pairs


@dataclass(frozen=True)
class ScoredRegistration:
    prereg: Preregistration         # as registered
    scheme: WeightScheme            # as scored, with the updates
    measurements: MeasurementSet
    pairs: list[PairInputs]
    breakdown: ScoreBreakdown


def score_registration(registration: Path, data_dir: Path,
                       **updates) -> ScoredRegistration:
    """Read and parse the registration, replace the scheme fields that
    ``updates`` names (``hlas`` validates them), and load, pair and score
    the measurements, whose ``files`` list the registration first."""
    data = Path(registration).read_bytes()
    prereg = load_preregistration(data)
    scheme = replace(prereg.scheme, **updates)
    measurements = load_measurements(data_dir, prereg, {
        Path(registration): sha256_hex(data)})
    pairs = build_pairs(replace(prereg, scheme=scheme), measurements)
    return ScoredRegistration(prereg, scheme, measurements, pairs,
                              hlas(pairs, scheme))


# ---------------------------------------------------------------------------
# report bundle
# ---------------------------------------------------------------------------

# Whole-robot task trials (gait, lift-and-carry, reach, hand dexterity)
# need an integrated robot and are not computed here; the bundle ships
# header-only stubs in these formats so trial results can be filed
# alongside the joint-level score.
TASK_TRIAL_COLUMNS: dict[str, tuple[str, ...]] = {
    "gait": (
        "trial", "speed_m_s", "ankle_positive_work_j_per_stride",
        "ankle_peak_power_w", "pushoff_rate_rad_s", "knee_peak_moment_nm",
        "hip_peak_moment_nm", "support_torque_duty_fraction", "duty_factor",
        "stride_frequency_hz", "stride_length_m", "stance_efficiency",
        "peak_vertical_grf_n", "missed_steps", "end_temp_motor_c", "derated",
    ),
    "lift": (
        "trial", "box_mass_kg", "knee_torque_duty_fraction",
        "hip_torque_duty_fraction", "peak_knee_torque_nm",
        "peak_hip_torque_nm", "end_continuous_torque_nm", "cop_margin_m",
        "foot_slips", "success_rate",
    ),
    "reach": (
        "trial", "payload_kg", "peak_shoulder_torque_nm",
        "peak_elbow_torque_nm", "rms_position_error_m",
        "p95_position_error_m", "settle_time_s", "overshoot_fraction",
        "mean_mech_power_w", "mean_elec_power_w", "success_rate",
    ),
    "hand": (
        "trial", "grasp_type", "force_bandwidth_hz",
        "min_controllable_force_n", "breakaway_force_n", "hysteresis_n",
        "peak_force_sd_n", "success_rate_at_6hz",
    ),
}


@dataclass(frozen=True)
class ReportBundle:
    out_dir: Path
    summary: Path
    task_table: Path
    feature_table: Path
    contributions: Path
    guardrail_flags: Path
    rom_overlays: Path
    hee_masks: dict[tuple[str, str], Path]
    manifest: Path
    files: dict[Path, str]      # path -> sha256 of the bytes written, in order


MASK_COLUMNS = ("q_deg", "omega_rad_s", "weight", "torque_ok", "power_ok",
                "pass")


def write_file(path: Path, text: str) -> str:
    """Write ``text`` to ``path`` and return the sha256 of the bytes."""
    data = text.encode()
    Path(path).write_bytes(data)
    return sha256_hex(data)


def table_blocks(header: Sequence[str], columns: Sequence[Sequence],
                 preamble: str = "") -> Iterator[str]:
    """The text of a delimited table as blocks of whole lines: ``preamble``
    and the header line, then a line per row of ``columns`` (a list or an
    array of cells per header column; none for a table of no rows), each
    cell as ``fmt`` formats it.  A block holds the rows of about ``_BLOCK``
    characters, some 16 a cell, formatted from one slice of each column,
    an array's slice turned into Python values by one ``tolist``."""
    yield preamble + ",".join(header) + "\n"
    rows = max(1, _BLOCK // (16 * len(header)))
    for start in range(0, len(columns[0]) if columns else 0, rows):
        parts = (c[start:start + rows] for c in columns)
        cells = [map(fmt, p.tolist() if isinstance(p, np.ndarray) else p)
                 for p in parts]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def write_table(path: Path, header: Sequence[str],
                columns: Sequence[Sequence], preamble: str = "") -> str:
    """Write the ``table_blocks`` of a table to ``path``, encoding, writing
    and hashing one block at a time; the sha256 of the bytes written."""
    digest = hashlib.sha256()
    with open(path, "wb") as file:
        for block in table_blocks(header, columns, preamble):
            data = block.encode()
            file.write(data)
            digest.update(data)
    return digest.hexdigest()


def mask_name(task: str, joint: str) -> str:
    return f"{task}__{joint}.csv"


def mask_table(result: HeeResult) -> tuple[tuple[str, ...], tuple]:
    """``(MASK_COLUMNS, columns)``: one pair's envelope mask as a table for
    ``write_table``, a row per band sample."""
    return MASK_COLUMNS, (result.q, result.omega, result.weight,
                          result.torque_ok, result.power_ok, result.passed)


def emit_report(
    breakdown: ScoreBreakdown,
    pairs: list[PairInputs],
    out_dir: Path,
    scheme: WeightScheme,
) -> ReportBundle:
    """Write the full artifact bundle with a digest manifest; the bundle's
    ``files`` holds the sha256 of each file as written, manifest last.

    The envelope masks (at the scheme's headroom) and the ROM overlays are
    built from ``pairs``, which must hold every scored pair that the scheme
    does not declare in ``score_as_zero``.
    """
    scored = list(breakdown.feature_vectors)
    given = {(p.task, p.joint) for p in pairs}
    missing = [key for key in scored
               if key not in given and key not in scheme.score_as_zero]
    if missing:
        raise IncompleteAnalyses(
            f"no envelope mask for scored pair(s) {missing}"
        )

    out_dir = Path(out_dir)
    (out_dir / "hee_masks").mkdir(parents=True, exist_ok=True)
    files: dict[Path, str] = {}     # each file written, with its sha256

    tasks = list(scheme.task_weights)
    summary = out_dir / "summary.csv"
    files[summary] = write_table(summary, ("metric", "value"), (
        ["hlas", *(f"task_score:{t}" for t in tasks), "guardrail_flag_count"],
        [breakdown.hlas, *(breakdown.task_scores[t] for t in tasks),
         len(breakdown.guardrail_flags)]))

    task_table = out_dir / "task_table.csv"
    files[task_table] = write_table(
        task_table, ("task", "task_weight", "score"),
        (tasks, [scheme.task_weights[t] for t in tasks],
         [breakdown.task_scores[t] for t in tasks]))

    pair_tasks, pair_joints = [t for t, _ in scored], [j for _, j in scored]
    pair_scores = [breakdown.joint_task_scores[key] for key in scored]
    feature_table = out_dir / "feature_table.csv"
    files[feature_table] = write_table(
        feature_table, ("task", "joint", *FEATURE_NAMES, "score"),
        (pair_tasks, pair_joints,
         *([getattr(breakdown.feature_vectors[key], n) for key in scored]
           for n in FEATURE_NAMES), pair_scores))

    contributions = out_dir / "contributions.csv"
    files[contributions] = write_table(
        contributions, ("task", "joint", "score", "joint_weight",
                        "task_weight", "contribution"),
        (pair_tasks, pair_joints, pair_scores,
         [scheme.joint_weights[t][j] for t, j in scored],
         [scheme.task_weights[t] for t in pair_tasks],
         [breakdown.contributions[key] for key in scored]))

    flags_path = out_dir / "guardrail_flags.txt"
    files[flags_path] = write_file(
        flags_path, "".join(flag + "\n" for flag in breakdown.guardrail_flags))

    rom_path = out_dir / "rom_overlays.csv"
    files[rom_path] = write_table(
        rom_path,
        ("task", "joint", "axis", "functional_lo_deg", "functional_hi_deg",
         "robot_lo_deg", "robot_hi_deg"),
        # an axis with no robot ROM row has empty robot cells (coverage 0)
        [*zip(*([p.task, p.joint, axis,
                 p.functional_rom[axis].lo, p.functional_rom[axis].hi,
                 *([p.robot_rom[axis].lo, p.robot_rom[axis].hi]
                   if axis in p.robot_rom else ["", ""])]
                for p in pairs for axis in sorted(p.required_axes)))])

    hee_paths = {}
    for p in pairs:
        path = out_dir / "hee_masks" / mask_name(p.task, p.joint)
        result = hee_coverage(p.band, p.capability, scheme.headroom_delta)
        files[path] = write_table(path, *mask_table(result))
        hee_paths[(p.task, p.joint)] = path

    (out_dir / "task_trials").mkdir(exist_ok=True)
    for name, columns in TASK_TRIAL_COLUMNS.items():
        path = out_dir / "task_trials" / f"{name}.csv"
        files[path] = write_table(path, columns, (), "# whole-robot trial "
                                  "results; requires an integrated robot "
                                  "and is not computed by this toolkit\n")

    manifest = out_dir / "manifest.json"
    manifest_content = {
        "artifacts": [
            {"path": str(p.relative_to(out_dir)), "sha256": digest}
            for p, digest in files.items()
        ],
        # FRF tables come from ``hlas analyze frf --out`` and thermal traces
        # are never bundled; both notes stay because the manifest is hashed
        "notes": [
            "frf_tables: none provided (optional)",
            "thermal_traces: none provided (optional)",
            "task_trials: header-only stubs (whole-robot trials are not "
            "computed by this toolkit)",
        ],
    }
    files[manifest] = write_file(manifest, canonical_json(manifest_content))
    return ReportBundle(
        out_dir=out_dir, summary=summary, task_table=task_table,
        feature_table=feature_table, contributions=contributions,
        guardrail_flags=flags_path, rom_overlays=rom_path,
        hee_masks=hee_paths, manifest=manifest, files=files,
    )
