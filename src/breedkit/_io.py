"""The CSV and JSON artifact format, decided in one place.

Input tables are UTF-8 CSV with a header row, read by ``csv_rows`` only. An
input file that is not UTF-8, or that the ``csv`` module rejects (a cell
over its field-size limit), raises ParseError naming the file.
A number read by ``finite_number`` must be finite and spelled in ASCII
without '_', as numpy's reader takes it (so must an ``integer``), and every
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
from operator import itemgetter

from .errors import ParseError

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_COMPARE_BLOCK = 1 << 16  # bytes of each file the same-bytes compare reads at a time


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


def finite_number(text: str, what: str, line: int) -> float:
    """``float(text)``; ParseError at ``line`` naming ``what`` unless it is a finite number.

    A spelling with a '_' or a non-ASCII character is not a number.
    """
    try:
        if _python_only(text):
            raise ValueError
        value = float(text)
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


def csv_rows(path, required, optional=()):
    """Yield ``(line number, cells)`` for each data row.

    ``cells`` is a tuple of one string per column of ``required`` and then
    of ``optional``. A row is numbered by the physical line it ends on, so
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
            # a column the header lacks reads the blank cell one past the header
            where = [index.get(name, width) for name in required + optional]
            absent = width in where
            take = itemgetter(*where) if len(where) > 1 else lambda row: tuple(row[i] for i in where)
            blank = [""] * width
            for row in reader:
                if row:
                    if absent or len(row) != width:
                        row = (row + blank)[:width] + [""]
                    yield reader.line_num, take(row)


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
