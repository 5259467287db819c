"""Structured knowledge base: germplasm traits and seed prices.

Two read-only record stores loaded from UTF-8 CSV. Matching is exact-string
or numeric only; Chinese and English values both pass through as opaque
strings. Queries are pure and deterministic.
"""

from __future__ import annotations

import datetime as _dt
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from ._io import Columns, TextCodes, codes, csv_rows, iso_date, number, numbers, raise_first, read_table
from .errors import EmptyInput, InvalidInput, ParseError, UnknownField

QUALITY_FIELDS = ("crude_protein", "lysine", "sedimentation_value")
RESISTANCE_FIELDS = ("stripe_rust", "leaf_rust", "powdery_mildew", "drought", "cold")
AGRONOMIC_FIELDS = ("maturity", "plant_height", "thousand_grain_weight", "grain_hardness")
GERMPLASM_FIELDS = ("variety_name", "origin") + QUALITY_FIELDS + RESISTANCE_FIELDS + AGRONOMIC_FIELDS

# Each criterion operator and its comparison. The key order is the parse
# precedence: a two-character operator comes before the one it starts with.
CRITERION_OPS = {
    "<=": operator.le, ">=": operator.ge, "!=": operator.ne, "==": operator.eq,
    "<": operator.lt, ">": operator.gt,
}

PRICE_DATE_WINDOW_DAYS = 31


@dataclass(frozen=True, slots=True)
class GermplasmRecord:
    """One variety with quality, resistance, and agronomic traits."""

    variety_name: str
    origin: str = ""
    quality: dict = field(default_factory=dict)
    resistance: dict = field(default_factory=dict)
    agronomic: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.variety_name:
            raise InvalidInput("variety_name must be non-empty")
        for group in (self.quality, self.agronomic):
            for key, value in group.items():
                if isinstance(value, (int, float)) and not 0 <= value < math.inf:
                    raise InvalidInput(f"{self.variety_name}: {key} must be finite and >= 0")

    def get_field(self, name: str):
        """Flat field lookup across identity, quality, resistance, agronomic."""
        if name == "variety_name":
            return self.variety_name
        if name == "origin":
            return self.origin
        for group in (self.quality, self.resistance, self.agronomic):
            if name in group:
                return group[name]
        _check_field(name)
        return None  # known field, value absent for this record


def _check_field(name: str) -> None:
    if name not in GERMPLASM_FIELDS:
        raise UnknownField(f"unknown germplasm field {name!r}")


@dataclass(frozen=True, slots=True)
class PriceRecord:
    """One seed-price observation."""

    observation_point: str
    variety_name: str
    price: float
    specification: float  # kg per bag
    planting_area: str
    date: _dt.date

    def __post_init__(self):
        if not 0 < self.price < math.inf:
            raise InvalidInput("price must be finite and > 0")
        if not 0 < self.specification < math.inf:
            raise InvalidInput("specification must be finite and > 0")


@dataclass(frozen=True, eq=False)
class PriceTable(Columns):
    """Price observations as columns; each row reads as its ``PriceRecord``.

    Text columns are codes into ``strings``; ``date`` holds each date's
    proleptic Gregorian ordinal.
    """

    strings: tuple
    observation_point: np.ndarray
    variety_name: np.ndarray
    price: np.ndarray
    specification: np.ndarray
    planting_area: np.ndarray
    date: np.ndarray

    def __len__(self) -> int:
        return len(self.price)

    def __getitem__(self, i) -> PriceRecord:
        text = self.strings
        return PriceRecord(text[self.observation_point[i]], text[self.variety_name[i]],
                           float(self.price[i]), float(self.specification[i]),
                           text[self.planting_area[i]], _dt.date.fromordinal(int(self.date[i])))


def _price_table(records) -> PriceTable:
    """``records`` as a PriceTable: a table as it is, any other iterable of records converted once."""
    if isinstance(records, PriceTable):
        return records
    records = list(records)
    strings = {"": 0}
    texts = {name: codes([getattr(r, name) for r in records], strings)
             for name in ("observation_point", "variety_name", "planting_area")}
    return PriceTable(strings=tuple(strings), **texts,
                      price=np.array([r.price for r in records], dtype=np.float64),
                      specification=np.array([r.specification for r in records], dtype=np.float64),
                      date=np.array([r.date.toordinal() for r in records], dtype=np.int64))


@dataclass(frozen=True)
class Criterion:
    """One conjunctive screening predicate: field op value."""

    field: str
    op: str
    value: object

    def __post_init__(self):
        if self.op not in CRITERION_OPS:
            raise InvalidInput(f"criterion op must be one of {tuple(CRITERION_OPS)}, got {self.op!r}")

    def matches(self, record: GermplasmRecord) -> bool:
        actual = record.get_field(self.field)
        if actual is None:
            return False
        want = self.value
        a_num, w_num = _as_number(actual), _as_number(want)
        if a_num is not None and w_num is not None:
            actual, want = a_num, w_num
        elif self.op not in ("==", "!="):
            # ordering comparisons need numbers on both sides
            return False
        return CRITERION_OPS[self.op](actual, want)


def _as_number(value):
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(str(value))
    except (TypeError, ValueError):
        return None


def parse_criterion(text: str) -> Criterion:
    """Parse "field<=value" style criteria (ops: <=, >=, !=, ==, <, >).

    A value that reads as a number must be finite; any other value is text.
    """
    for op in CRITERION_OPS:
        if op in text:
            fieldname, _, raw = text.partition(op)
            fieldname, raw = fieldname.strip(), raw.strip()
            if not fieldname or not raw:
                raise InvalidInput(f"malformed criterion {text!r}")
            num = _as_number(raw)
            if num is not None and not math.isfinite(num):
                raise InvalidInput(f"criterion {text!r} compares with a non-finite number")
            return Criterion(field=fieldname, op=op, value=num if num is not None else raw)
    raise InvalidInput(f"criterion {text!r} has no operator (expected one of {tuple(CRITERION_OPS)})")


def screen_germplasm(records, criteria) -> list[GermplasmRecord]:
    """Records satisfying every criterion, sorted by variety_name ascending."""
    criteria = list(criteria)
    if not criteria:
        raise InvalidInput("criteria must be non-empty")
    for c in criteria:
        # surface unknown fields even if no record would be tested against them
        _check_field(c.field)
    hits = [r for r in records if all(c.matches(r) for c in criteria)]
    return sorted(hits, key=lambda r: r.variety_name)


# ---------------------------------------------------------------------------
# Trait flags for screening subtasks and the germplasm feature domain
# ---------------------------------------------------------------------------


# Documented conventions, not values from any monitoring standard.
HQ_MIN_CRUDE_PROTEIN = 14.0
RESISTANT_LEVELS = ("HR", "R", "MR")
MP_MAX_DAYS = 200.0
MP_CLASSES = ("early",)
AM_MAX_HEIGHT_CM = 80.0


def trait_flags(record: GermplasmRecord) -> dict:
    """0/1 indicator for each of the five screening traits.

    HQ = crude protein >= ``HQ_MIN_CRUDE_PROTEIN`` %; DS = disease resistance
    level in ``RESISTANT_LEVELS`` for at least one of stripe rust / leaf rust /
    powdery mildew; DR likewise for drought; MP = maturity <= ``MP_MAX_DAYS``
    days (or a class in ``MP_CLASSES``); AM = plant height <=
    ``AM_MAX_HEIGHT_CM`` cm.
    """
    protein = _as_number(record.quality.get("crude_protein"))
    hq = protein is not None and protein >= HQ_MIN_CRUDE_PROTEIN

    disease = [record.resistance.get(k) for k in ("stripe_rust", "leaf_rust", "powdery_mildew")]
    ds = any(level in RESISTANT_LEVELS for level in disease)

    dr = record.resistance.get("drought") in RESISTANT_LEVELS

    maturity = record.agronomic.get("maturity")
    m_num = _as_number(maturity)
    if m_num is not None:
        mp = m_num <= MP_MAX_DAYS
    else:
        mp = maturity in MP_CLASSES

    height = _as_number(record.agronomic.get("plant_height"))
    am = height is not None and height <= AM_MAX_HEIGHT_CM

    return {"HQ": int(hq), "DS": int(ds), "DR": int(dr), "MP": int(mp), "AM": int(am)}


# ---------------------------------------------------------------------------
# Price queries
# ---------------------------------------------------------------------------


def query_price(records, observation_point: str, date, variety: str | None = None) -> list[PriceRecord]:
    """Price records at an observation point nearest a date.

    Exact match on observation point (and variety when given); the date
    matches the nearest record within +-31 days, ties resolved toward the
    earlier date. An empty result is the honest "no data" answer, not an
    error.
    """
    when = _parse_date(date)
    table = _price_table(records)
    gap = np.abs(table.date - when.toordinal())
    hit = (table.observation_point == table.code(observation_point)) & (gap <= PRICE_DATE_WINDOW_DAYS)
    if variety is not None:
        hit &= table.variety_name == table.code(variety)
    rows = np.flatnonzero(hit)
    if not len(rows):
        return []
    best_gap, best_date = min(zip(gap[rows].tolist(), table.date[rows].tolist()))
    rows = rows[(gap[rows] == best_gap) & (table.date[rows] == best_date)]
    return sorted(map(table.__getitem__, rows), key=lambda r: (r.variety_name, r.price))


def _parse_date(date) -> _dt.date:
    if isinstance(date, _dt.date):
        return date
    try:
        return iso_date(str(date))
    except ValueError:
        raise InvalidInput(f"unparseable ISO date: {date!r}")


# ---------------------------------------------------------------------------
# CSV loaders
# ---------------------------------------------------------------------------


def _cell_number(text: str, key: str, line: int, labels=None):
    """``number(text)``; ParseError at ``line`` naming ``key`` unless it is one.

    Given ``labels`` (a dict of shared strings), a text that ``float`` does
    not read either is a class label instead, kept as its shared string.
    """
    try:
        return number(text)
    except ValueError:
        if labels is not None and _as_number(text) is None:
            return labels.setdefault(text, text)
        raise ParseError(f"non-numeric {key}: {text!r}", line=line) from None


def load_germplasm(path) -> list[GermplasmRecord]:
    """Read germplasm.csv; trait columns are optional and may be blank.

    Quality cells are numbers (``_io.number``); an agronomic cell that
    ``float`` does not read is a class label (``early``). A bad number, an
    agronomic ``1_0`` too, is a ParseError at its line.
    """
    records = []
    texts: dict = {}  # one shared string per distinct text cell
    for i, cells in csv_rows(path, GERMPLASM_FIELDS[:1], GERMPLASM_FIELDS[1:]):
        rec = dict(zip(GERMPLASM_FIELDS, map(str.strip, cells)))
        quality = {key: _cell_number(rec[key], key, i) for key in QUALITY_FIELDS if rec[key]}
        resistance = {key: texts.setdefault(rec[key], rec[key]) for key in RESISTANCE_FIELDS if rec[key]}
        agronomic = {key: _cell_number(rec[key], key, i, labels=texts)
                     for key in AGRONOMIC_FIELDS if rec[key]}
        name, origin = rec["variety_name"], rec["origin"]
        try:
            records.append(GermplasmRecord(variety_name=texts.setdefault(name, name),
                                           origin=texts.setdefault(origin, origin),
                                           quality=quality, resistance=resistance,
                                           agronomic=agronomic))
        except InvalidInput as exc:
            raise ParseError(str(exc), line=i)
    if not records:
        raise EmptyInput(f"no rows in {path}")
    return records


PRICE_CSV_COLUMNS = (
    "observation_point", "variety_name", "price", "specification", "planting_area", "date",
)


def _price_block(lines, cells, strings: TextCodes, dates: dict) -> dict:
    """One block's PriceTable columns, checked in the order a price row is: ParseError at the first bad row.

    ``strings`` gains the block's new texts, and ``dates`` (text -> ordinal,
    -1 for a bad date) each new date text, parsed once.
    """
    point, variety, price, specification, area, date = cells
    price, _, price_errors = numbers(price)
    specification, _, specification_errors = numbers(specification)
    texts = list(map(str.strip, date))
    for text in dict.fromkeys(texts).keys() - dates.keys():
        try:
            dates[text] = _parse_date(text).toordinal()
        except InvalidInput:
            dates[text] = -1
    date = np.fromiter(map(dates.__getitem__, texts), np.int64, len(texts))
    rows = np.flatnonzero
    raise_first(lines, [
        (price_errors, lambda i: f"bad price row: {price_errors[i]}"),
        (specification_errors, lambda i: f"bad price row: {specification_errors[i]}"),
        (rows(date < 0), lambda i: f"bad price row: unparseable ISO date: {texts[i]!r}"),
        (rows(~((0 < price) & (price < math.inf))), lambda i: "bad price row: price must be finite and > 0"),
        (rows(~((0 < specification) & (specification < math.inf))),
         lambda i: "bad price row: specification must be finite and > 0"),
    ])
    return {"observation_point": strings(point),
            "variety_name": strings(variety),
            "price": price, "specification": specification,
            "planting_area": strings(area), "date": date}


def load_prices(path) -> PriceTable:
    """Read a price table, a block of rows at a time (``_io.csv_blocks``), column by column.

    Each distinct date text is parsed once. The first bad row is a
    ParseError at its line, for the first check it fails: its price, its
    specification and its date read, then ``PriceRecord``'s checks.
    """
    strings, dates = TextCodes(), {}
    columns = read_table(path, PRICE_CSV_COLUMNS, (),
                         lambda lines, cells: _price_block(lines, cells, strings, dates))
    if columns is None:
        raise EmptyInput(f"no rows in {path}")
    return PriceTable(strings=tuple(strings), **columns)
