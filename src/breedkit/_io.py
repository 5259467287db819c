"""The CSV and JSON artifact format, decided in one place.

Input tables are UTF-8 CSV with a header row, read one row at a time.
Output tables are CSV with ``\\n`` line ends; callers format their own cells.
JSON artifacts carry sorted keys, a two-space indent and a final newline.
"""

from __future__ import annotations

import csv
import json

from .errors import ParseError


def csv_rows(path, required):
    """Yield ``(line number, row dict)`` for each data row, numbered from 2.

    Raises ParseError at line 1 when the header lacks a ``required`` column.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(required).issubset(reader.fieldnames):
            raise ParseError(
                f"{path}: need columns {sorted(required)}, got {reader.fieldnames}", line=1
            )
        yield from enumerate(reader, start=2)


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then each row of the iterable ``rows``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    """Write ``payload`` as indented, key-sorted JSON ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
