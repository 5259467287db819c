"""The CSV and JSON artifact format, decided in one place.

Input tables are UTF-8 CSV with a header row, read by one ``csv.reader``
pass in ``csv_blocks`` only: it holds at most ``BLOCK_ROWS`` rows at a time
and hands them on transposed, one tuple of cells per column, with each row's
physical line number. ``csv_rows`` yields the same rows one at a time. An
input file that is not UTF-8, or that the ``csv`` module rejects (a cell
over its field-size limit), raises ParseError naming the file.
A columnar loader (``read_table``) converts each block column by column
(``numbers``, ``TextCodes``) and checks it with ``raise_first``, which
reports the block's first bad row, and of that row the first check it
fails, as a loader that reads row by row would. Such a table reads as a
sequence of its row records (``Columns``).
A number must be spelled in ASCII without '_', as numpy's reader takes it
(``number``, ``integer``); ``finite_number`` also needs it finite. Every
date is spelled ``YYYY-MM-DD`` (``iso_date``).
Output tables are CSV with ``\\n`` line ends, and callers pass cells as values,
which ``write_csv`` spells with ``str``: a float (a numpy float64 too) as its
shortest repr (``0.1``, ``-0.0``, ``1e+16``), an int or a date as ``3`` or
``2024-06-01``, and None as an empty cell. A boolean has no spelling of its
own, so the caller writes it as text.
JSON artifacts carry sorted keys, a two-space indent and a final newline.
Every artifact is written to a temporary file beside its target and then
renamed over it, so a failed write leaves the target as it was. An artifact
whose bytes are already in place is left as it is, so its mtime does not
change; nor do its mode, owner or hard links, which a replaced artifact
takes fresh from the write.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
import os
import re
import stat
from contextlib import contextmanager
from itertools import filterfalse, islice, repeat
from operator import attrgetter

import numpy as np

from .errors import ParseError

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_COMPARE_BLOCK = 1 << 16  # bytes of each file the same-bytes compare reads at a time
BLOCK_ROWS = 512  # data rows a table reader holds as rows at a time


@contextmanager
def decoding(path):
    """Turn a UnicodeDecodeError inside the block into a ParseError naming ``path``."""
    try:
        yield
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None


@contextmanager
def _csv_errors(path, reader):
    """Turn a csv.Error inside the block into a ParseError naming ``path`` and the line."""
    try:
        yield
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}", line=reader.line_num) from None


def _python_only(text: str) -> bool:
    """Whether ``text`` holds a '_' or a non-ASCII character.

    Python's ``float`` and ``int`` take those (``1_000``, full-width
    digits, non-ASCII spaces); numpy's reader does not, and neither does
    any number parsed here.
    """
    return "_" in text or not text.isascii()


def number(text: str) -> float:
    """``float(text)``; float's ValueError for a spelling with a '_' or a non-ASCII character as well."""
    if _python_only(text):
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def finite_number(text: str, what: str, line: int) -> float:
    """``number(text)``; ParseError at ``line`` naming ``what`` unless it is a finite number."""
    try:
        value = number(text)
    except ValueError:
        raise ParseError(f"non-numeric {what}: {text!r}", line=line) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what}: {text!r}", line=line)
    return value


def integer(text: str) -> int:
    """``int(text)``; ValueError for a spelling with a '_' or a non-ASCII character as well."""
    if _python_only(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def iso_date(text: str) -> datetime.date:
    """The date ``text`` spells as ``YYYY-MM-DD``; ValueError for any other spelling.

    ``date.fromisoformat`` also takes ``YYYYMMDD`` and week dates from Python
    3.11 on, so the spelling is checked first and every version reads alike.
    """
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return datetime.date.fromisoformat(text)


def _check_header(path, fieldnames, required) -> None:
    if fieldnames is None or not set(required).issubset(fieldnames):
        raise ParseError(f"{path}: need columns {sorted(required)}, got {fieldnames}", line=1)


def csv_blocks(path, required, optional=()):
    """Yield ``(lines, columns)`` for each block of up to ``BLOCK_ROWS`` data rows.

    ``columns`` holds one tuple of cells per column of ``required`` and then
    of ``optional``, row after row, and the sequence ``lines`` each row's
    line number. A row is numbered by the physical line it ends on, so
    quoted multi-line cells and blank lines do not shift later numbers.
    Blank lines are skipped; a cell missing from a short row, or of an
    optional column the header lacks, reads as blank; cells beyond the
    header are ignored; of two columns with one name the later one wins.
    Raises ParseError at line 1 when the header lacks a ``required`` column.
    """
    with decoding(path), open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        with _csv_errors(path, reader):
            header = next(reader, None)
            _check_header(path, header, required)
            width = len(header)
            index = {name: i for i, name in enumerate(header)}
            # a column the header lacks reads a blank column one past the header
            where = [index.get(name, width) for name in required + optional]
            absent = width in where
            # each row with the line it ends on, read without a Python-level step per row
            numbered = zip(reader, map(attrgetter("line_num"), repeat(reader)))
            while block := list(islice(numbered, BLOCK_ROWS)):
                rows, lines = zip(*block)
                del block
                if set(map(len, rows)) != {width}:  # blank lines, short or long rows
                    lines = [line for row, line in zip(rows, lines) if row]
                    rows = [(row + [""] * width)[:width] for row in rows if row]
                if rows:
                    columns = tuple(zip(*rows))
                    if absent:
                        columns += (("",) * len(rows),)
                    del rows  # no row, nor a block's cells, is held past its block
                    yield lines, tuple(columns[i] for i in where)
                    del columns, lines


def read_table(path, required, optional, convert) -> dict | None:
    """Each named array of ``convert``'s blocks, joined in file order; None for a table with no rows.

    ``convert(lines, columns)`` turns each block of ``csv_blocks`` into a
    dict of named arrays, joined along their last axis. No block's cells
    outlive its conversion, and each name's blocks are freed as that name is
    joined, so a load holds about one block's rows above what it keeps.
    """
    blocks = []
    for lines, columns in csv_blocks(path, required, optional):
        blocks.append(convert(lines, columns))
        del lines, columns  # freed before the next block is read
    if not blocks:
        return None
    return {name: np.concatenate([block.pop(name) for block in blocks], axis=-1) for name in list(blocks[0])}


def csv_rows(path, required, optional=()):
    """Yield ``(line number, cells)`` for each data row that ``csv_blocks`` reads.

    ``cells`` is a tuple of one string per column of ``required`` and then
    of ``optional``.
    """
    for lines, columns in csv_blocks(path, required, optional):
        yield from zip(lines, zip(*columns) if columns else [()] * len(lines))


def numbers(cells, blank=False, read=number):
    """Read a column of cells by ``read``: ``(values, present, errors)``.

    ``read`` is ``number``, for a float64 array, or ``integer``, for int64
    (a cell past its range is not one). With ``blank``, each cell is
    stripped of whitespace first, and a blank one is absent: NaN, and False
    in the boolean array ``present``. ``errors`` maps the row of each other
    cell that ``read`` rejects to its message. The column is checked and
    converted at once; only one that holds a bad cell is read again cell by
    cell.
    """
    texts = list(map(str.strip, cells)) if blank else cells
    present = np.fromiter(map(bool, texts), bool, len(texts)) if blank else np.ones(len(texts), bool)
    convert, dtype, absent = (int, np.int64, 0) if read is integer else (float, np.float64, np.nan)
    try:
        if not _python_only("".join(texts)):
            spelled = [text or "nan" for text in texts] if blank else texts
            return np.fromiter(map(convert, spelled), dtype, len(texts)), present, {}
    except (ValueError, OverflowError):
        pass
    values, errors = np.full(len(texts), absent, dtype), {}
    for i in np.flatnonzero(present).tolist():
        try:
            values[i] = read(texts[i])
        except (ValueError, OverflowError) as exc:
            errors[i] = str(exc)
    return values, present, errors


def codes(keys, index: dict) -> np.ndarray:
    """The int32 code of each of ``keys`` in ``index`` (key -> code), which takes a new key at the next code.

    Equal text cells of one table thus share the one string object that ``index`` keeps.
    """
    for key in dict.fromkeys(keys):
        index.setdefault(key, len(index))
    return np.fromiter(map(index.__getitem__, keys), np.int32, len(keys))


class TextCodes(dict):
    """One table's distinct texts (text -> code, codes in order of first appearance; 0 is blank).

    Called on a column of cells, it returns each cell's int32 code, the cell
    stripped of whitespace; each distinct cell is stripped once per table.
    """

    def __init__(self):
        super().__init__({"": 0})
        self._cells: dict = {}  # cell as read -> code

    def __call__(self, cells) -> np.ndarray:
        for cell in filterfalse(self._cells.__contains__, dict.fromkeys(cells)):
            self._cells[cell] = self.setdefault(cell.strip(), len(self))
        return np.fromiter(map(self._cells.__getitem__, cells), np.int32, len(cells))


def raise_first(lines, checks) -> None:
    """Raise the ParseError of a block's first bad row, for the first check that row fails.

    ``lines`` numbers the block's rows. ``checks`` pairs, in the order a row
    is checked, the rows that fail a check (a sorted index array, or a dict
    keyed by row) with the message for a failing row.
    """
    failures = [(int(min(rows)), k) for k, (rows, _) in enumerate(checks) if len(rows)]
    if failures:
        row, k = min(failures)
        raise ParseError(checks[k][1](row), line=lines[row])


class Columns:
    """A table held as columns, which reads as a sequence of its row records.

    Its text columns are int32 codes into ``strings``, the table's distinct
    texts, each one string object; code 0 is the blank text. A subclass
    defines ``__len__`` and ``__getitem__`` (row ``i``'s record), and
    compares as its records do.
    """

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        return type(other) is type(self) and list(self) == list(other)

    def code(self, text) -> int:
        """The code of ``text`` in ``strings``; -1 where no cell holds it."""
        try:
            return self.strings.index(text)
        except ValueError:
            return -1


def _holds_bytes_of(path, tmp) -> bool:
    """Whether ``path`` is a regular file (not a link to one) with the bytes of ``tmp``.

    Compared block by block; False when either file cannot be read.
    """
    try:
        target = os.lstat(path)
        if not stat.S_ISREG(target.st_mode) or target.st_size != os.stat(tmp).st_size:
            return False
        with open(path, "rb") as old, open(tmp, "rb") as new:
            while (chunk := new.read(_COMPARE_BLOCK)) == old.read(_COMPARE_BLOCK):
                if not chunk:
                    return True
            return False
    except OSError:
        return False


@contextmanager
def replacing(path, newline=None):
    """Open a new text file that replaces ``path`` once the block succeeds.

    The file is written beside ``path`` under a temporary name, creating the
    directory if needed, and renamed over it on success; on any failure it is
    deleted and ``path`` is left untouched. An artifact whose bytes are
    already in place is left as it is, so its mtime does not change, as in
    make: when ``path`` is a regular file holding the new bytes, the
    temporary file is deleted instead, and ``path`` keeps all of its
    metadata (mtime, mode, owner, hard links). A rerun into the same
    directory also skips the flush a filesystem such as ext4 makes on a
    rename over an existing file.
    """
    head, tail = os.path.split(path)
    os.makedirs(head or os.curdir, exist_ok=True)
    tmp = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline=newline)
    try:
        with fh:
            yield fh
        if _holds_bytes_of(path, tmp):
            os.remove(tmp)
        else:
            os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then each row of the iterable ``rows``, cells spelled as above."""
    with replacing(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    """Write ``payload`` as indented, key-sorted JSON ending in a newline."""
    with replacing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_json_rows(path, payload, name, rows) -> None:
    """``write_json(path, {**payload, name: {key: [repr(v) for v in row] for key, row in rows}})``'s
    bytes, for keys of digits, ',' and ';' and non-empty rows of finite floats: as no character of
    the table needs escaping, it is spelled here, not by json's pure-Python indenting encoder."""
    fields = {key: json.dumps(value) for key, value in payload.items()}
    table = ",\n    ".join(f'"{key}": [\n      "' + '",\n      "'.join(map(repr, row)) + '"\n    ]'
                           for key, row in sorted(rows))
    fields[name] = "{\n    " + table + "\n  }" if table else "{}"
    with replacing(path) as fh:
        fh.write("{\n  " + ",\n  ".join(f"{json.dumps(k)}: {fields[k]}" for k in sorted(fields)) + "\n}\n")
