"""The CSV and JSON artifact format, decided in one place.

Input tables are UTF-8 CSV with a header row, read one row at a time.
Output tables are CSV with ``\\n`` line ends; callers format their own cells.
JSON artifacts carry sorted keys, a two-space indent and a final newline.
Every artifact is written to a temporary file beside its target and then
renamed over it, so a failed write leaves the target as it was.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager

from .errors import ParseError


def csv_rows(path, required):
    """Yield ``(line number, row dict)`` for each data row.

    A row is numbered by the physical line it ends on, so quoted multi-line
    cells and blank lines do not shift later numbers. Cells missing from a
    short row read as blank. Raises ParseError at line 1 when the header
    lacks a ``required`` column.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames is None or not set(required).issubset(reader.fieldnames):
            raise ParseError(
                f"{path}: need columns {sorted(required)}, got {reader.fieldnames}", line=1
            )
        for row in reader:
            yield reader.line_num, row


@contextmanager
def replacing(path, newline=None):
    """Open a new text file that replaces ``path`` once the block succeeds.

    The file is written beside ``path`` under a temporary name and renamed
    over it on success; on any failure it is deleted and ``path`` is left
    untouched.
    """
    head, tail = os.path.split(path)
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
