"""Delimited text: the one reader and the one writer of every table.

Every measurement file, log, golden table and report table is delimited
text with ``#`` comment headers, designed for diffability and spreadsheet
import, not interchange with any external standard.  ``_read_columns`` is
the only place that turns such a file into rows: it reads a regular file a
block at a time and any other text a cell at a time, with the same values
and the same errors.  It and ``read_header`` open and hash a file, and
read it again when its blocks do not parse, through one function,
``_parsed``.  ``write_table`` writes, and hashes, every table a block of
rows at a time.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import math
from collections.abc import Iterator, Sequence
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import DataError, DuplicateKey


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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


def _plain_head(blocks: Iterator[str]) -> tuple[str, Iterator] | None:
    """The lines of a plain text (``_plain``) given as ``_file_blocks``
    gives them, up to and with its header line (its first line neither
    blank nor ``#``), each ended by "\n", and ``_plain_rest`` of the rest,
    from one scan; None when a block up to it is not plain or it has none."""
    head, start = "", 0
    for block in blocks:
        if not _plain(block):
            return None
        head += block + "\n"
        while start < len(head):
            end = head.index("\n", start) + 1
            stripped = head[start:end].strip()
            if stripped and not stripped.startswith("#"):
                return head[:end], _plain_rest(
                    head[end:-1] if end < len(head) else None, blocks)
            start = end
    return None


def _plain_rest(block: str | None, blocks: Iterator[str]) -> Iterator:
    """``block``, the plain rest of a header line's block, unless None,
    then each of ``blocks``, or None for one not plain; unlike ``chain``,
    it lets ``block`` go once the next is asked for."""
    if block is not None:
        yield block
    del block
    for block in blocks:
        yield block if _plain(block) else None


def _parsed(path: Path, from_blocks, from_text,
            files: dict[Path, str] | None = None, sha256: str | None = None):
    """``from_blocks`` of the file at ``path``, opened once and read a block
    at a time (``_file_blocks``), which reads every block unless it gives
    None; then ``from_text`` of one full read of the same open file
    (``_utf8``).  The sha256 of the bytes parsed must be ``sha256`` when
    that is given, checked before the full text is decoded; ``files``, when
    given, receives it under ``path`` once the file parses."""
    digest = None if files is None and sha256 is None else hashlib.sha256()
    with open(path, "rb") as file:
        parsed = from_blocks(_file_blocks(file, digest))
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
        del data                    # before the text is parsed
        parsed = from_text(text)
    if files is not None:
        files[path] = digest.hexdigest()
    return parsed


def read_header(
    path: Path, files: dict[Path, str] | None = None,
) -> tuple[dict[str, str], list[str]]:
    """``(meta, header)`` of the file at ``path`` as ``_table`` reads them,
    through ``_parsed`` as ``_read_columns`` reads a table, so ``files``
    receives the same sha256.  A plain text is read a block at a time,
    keeping its lines up to the header line (``_plain_head``) and each
    ``#`` line after it, which is all ``_table`` reads of it."""
    def header(text: str) -> tuple[dict[str, str], list[str]]:
        return _table(path, text, (), True)[:2]

    def from_blocks(blocks: Iterator[str]):
        found = _plain_head(blocks)
        if found is None:
            return None
        head, comments = found[0], []
        for block in found[1]:
            if block is None:
                return None
            if "#" in block:        # before the split, which costs more
                comments += (line + "\n" for line in block.split("\n")
                             if line.strip().startswith("#"))
        return header(head + "".join(comments))

    return _parsed(path, from_blocks, header, files)


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


def _columns(header: list[str], names: tuple[str, ...],
             cells: list) -> dict[str, list | np.ndarray] | None:
    """Each ``header`` column's cells, from ``cells``, the cells of whole
    rows one row after another: a float64 array for each column of
    ``names`` and a list for each other column; None when a cell of
    ``names`` does not convert to a finite float."""
    width = len(header)
    try:
        columns = {c: np.array(cells[i::width], dtype=float) if c in names
                   else cells[i::width] for i, c in enumerate(header)}
    except ValueError:
        return None
    return columns if all(np.isfinite(columns[c]).all() for c in names) \
        else None


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
    names = tuple(header) if all_float else float_columns
    columns = _columns(header, names, list(chain.from_iterable(rows)))
    if columns is None:     # bad input only: find the bad cell one by one
        index = {c: header.index(c) for c in names}
        for i, row in enumerate(rows):
            for c, j in index.items():
                row[j] = _cell_float(path, lines, i, c, row[j])
        columns = _columns(header, names, list(chain.from_iterable(rows)))
    return meta, columns, lines


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
    path: Path, blocks: Iterator[str], text_columns: tuple[str, ...],
    float_columns: tuple[str, ...], all_float: bool = False,
) -> _Columns | None:
    """``_cell_columns`` of a regular text, parsed a column at a time from
    its ``blocks`` (as ``_file_blocks`` gives them); None as soon as a block
    shows that the text is not regular.

    Regular text is plain (``_plain``), has a header line that ``_table``
    accepts, no ``#`` and no blank line after its header line, and the
    header's field count on every data line.  Its cells become columns as
    in ``_cell_columns`` (``_columns``); a cell that does not convert to a
    finite float, or any cell over csv's field size limit, makes the text
    irregular, so its error or its value comes from the per-cell path.

    The header is parsed once (``_plain_head``); each block is then
    checked, split and converted before the next is taken, so the parse
    holds one block's cells and the float columns, each joined once at the
    end.
    """
    found = _plain_head(blocks)
    if found is None:
        return None
    head, blocks = found
    try:
        meta, header = _table(path, head, (*text_columns, *float_columns))[:2]
    except DataError:       # raised again, in file order, by the per-cell path
        return None
    width = len(header)
    names = tuple(header) if all_float else float_columns
    columns: dict = {c: [] for c in header}
    pieces: dict = {c: [] for c in names}
    rows = 0
    first = head.count("\n") + 1        # the first data line
    del head
    for block in blocks:
        if block is None or "#" in block:
            return None
        lines = block.split("\n")
        # a blank line has the field count of a header of one column
        if set(map(str.count, lines, repeat(","))) != {width - 1} \
                or width == 1 and not all(map(str.strip, lines)):
            return None
        del lines
        cells = block.replace("\n", ",").split(",")
        # the per-cell path refuses a cell over csv's field size limit
        limit = csv.field_size_limit()
        if len(block) > limit and max(map(len, cells)) > limit:
            return None
        del block
        part = _columns(header, names, cells)
        if part is None:
            return None
        rows += len(cells) // width
        for c, column in part.items():
            if c in pieces:
                pieces[c].append(column)
            else:
                columns[c] += column
        del cells, part, column     # before the next block is taken
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

    A regular text (``_regular_columns``) is parsed a block at a time, any
    other a cell at a time (``_cell_columns``), with the same values and
    errors, through ``_parsed`` as ``read_header`` reads: the sha256 of the
    bytes parsed must be ``sha256`` when that is given, checked before any
    key or value check, and ``files``, when given, receives it.
    ``key`` names the columns that identify a measurement: a repeated key
    raises ``DuplicateKey`` naming both lines, comparing numeric cells as
    floats (``10`` and ``10.0`` are one point).  ``codes``, when given,
    receives the ``_codes`` of the text columns of ``key``, for ``_groups``.
    """
    wanted = (text_columns, float_columns, all_float)
    meta, columns, lines = _parsed(
        path, lambda blocks: _regular_columns(path, blocks, *wanted),
        lambda text: _cell_columns(path, text, *wanted), files, sha256)
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
