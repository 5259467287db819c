"""The CSV and JSON artifact format, decided in one place.

Input tables are UTF-8 CSV with a header row. ``csv_rows`` reads them one
row at a time and is the parser of record: it numbers each row by its
physical line. ``csv_columns`` reads the same cells column by column, for
loaders that convert a whole column at once; a loader that finds a cell it
cannot convert or validate re-reads the file with ``csv_rows``, so the error
it raises names the same line with the same message. An input file that is
not UTF-8, or that the ``csv`` module rejects (a cell over its field-size
limit), raises ParseError naming the file.
Every number in a data file must be finite. ``finite_number`` reads one
cell by that rule; a cell that is not a number, or is ``nan`` or ``inf``, is
a ParseError at its line.
Output tables are CSV with ``\\n`` line ends; callers format their own cells.
JSON artifacts carry sorted keys, a two-space indent and a final newline.
Every artifact is written to a temporary file beside its target and then
renamed over it, so a failed write leaves the target as it was.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from itertools import islice

from .errors import ParseError


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


def finite_number(text: str, what: str, line: int) -> float:
    """``float(text)``; ParseError at ``line`` naming ``what`` unless it is a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"non-numeric {what}: {text!r}", line=line) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what}: {text!r}", line=line)
    return value


def _check_header(path, fieldnames, required) -> None:
    if fieldnames is None or not set(required).issubset(fieldnames):
        raise ParseError(f"{path}: need columns {sorted(required)}, got {fieldnames}", line=1)


def csv_rows(path, required):
    """Yield ``(line number, row dict)`` for each data row.

    A row is numbered by the physical line it ends on, so quoted multi-line
    cells and blank lines do not shift later numbers. Cells missing from a
    short row read as blank. Raises ParseError at line 1 when the header
    lacks a ``required`` column.
    """
    with decoding(path), open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        # the inner reader: DictReader.line_num moves only once a row is read
        with _csv_errors(path, reader.reader):
            _check_header(path, reader.fieldnames, required)
            for row in reader:
                yield reader.line_num, row


# Rows transposed at a time by csv_columns: few enough that a block's row
# lists are freed before they add up to a garbage collection
_BLOCK_ROWS = 512


def csv_columns(path, required) -> dict:
    """``{column name: list of cells}`` for every header column, in one pass.

    The cells are the ones ``csv_rows`` yields for that column, row by row:
    the header check, the skipped blank lines and the blank cells of short
    rows are the same, and of two columns with one name the later one wins.
    """
    with decoding(path), open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        with _csv_errors(path, reader):
            header = next(reader, None)
            _check_header(path, header, required)
            width = len(header)
            columns = [[] for _ in range(width)]
            for block in iter(lambda: list(islice(reader, _BLOCK_ROWS)), []):
                rows = [row if len(row) >= width else row + [""] * (width - len(row))
                        for row in block if row]
                for column, cells in zip(columns, zip(*rows)):
                    column.extend(cells)
    return {name: columns[i] for i, name in enumerate(header)}


@contextmanager
def replacing(path, newline=None):
    """Open a new text file that replaces ``path`` once the block succeeds.

    The file is written beside ``path`` under a temporary name, creating the
    directory if needed, and renamed over it on success; on any failure it is
    deleted and ``path`` is left untouched.
    """
    head, tail = os.path.split(path)
    os.makedirs(head or os.curdir, exist_ok=True)
    tmp = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline=newline)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then each row of the iterable ``rows``."""
    with replacing(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    """Write ``payload`` as indented, key-sorted JSON ending in a newline."""
    with replacing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
