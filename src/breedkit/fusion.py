"""Cross-domain feature assembly and yield regression.

One feature row per plot, columns tagged with the domain that produced them
(RS, phenotyping, weather, germplasm) so ablation subsets fall out of a
column filter. The regressor is ridge regression on z-scored columns with a
closed-form solve; evaluation is R^2/RMSE under seeded k-fold
cross-validation with normalization constants fit on the training folds only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kb, spectral
from ._io import (Columns, TextCodes, codes, csv_rows, iso_date, number, numbers, raise_first,
                  read_table)
from .errors import (
    EmptyDataset,
    InvalidInput,
    NumericalError,
    ParseError,
    SingularSystem,
    UndefinedR2,
)

MOISTURE_STANDARD = 0.125

# Provincial per-unit-area reference yield (kg/ha) used to flag predictions.
YIELD_REFERENCE_KG_HA = 4230.2

RS_FEATURES = (
    "NDVI_MS", "SAVI_MS", "kNDVI_MS", "NIRv_MS", "PSRI_MS",
    "NDVI_HS", "SAVI_HS", "kNDVI_HS", "NIRv_HS", "PSRI_HS",
    "CH", "CV", "FVC", "PL_ratio", "WL_ratio", "WH_density",
)
PHENOTYPING_FEATURES = ("SPAD", "LAI", "measured_CH")
WEATHER_FEATURES = (
    "t_mean_mean", "dew_point_mean", "precip_total",
    "net_radiation_mean", "wind_speed_mean",
)
GERMPLASM_FEATURES = ("HQ", "DS", "DR", "MP", "AM")

DOMAINS = ("RS", "phenotyping", "weather", "germplasm")

FEATURE_DOMAIN = {
    **{name: "RS" for name in RS_FEATURES},
    **{name: "phenotyping" for name in PHENOTYPING_FEATURES},
    **{name: "weather" for name in WEATHER_FEATURES},
    **{name: "germplasm" for name in GERMPLASM_FEATURES},
}


@dataclass(frozen=True, slots=True)
class PlotFeatureRecord:
    """All extracted features for one plot on one date, plus provenance."""

    plot_id: str
    germplasm_id: str
    date: str
    features: dict
    yield_kg_ha: float | None = None
    site: str = ""

    def __post_init__(self):
        if not self.plot_id:
            raise InvalidInput("plot_id must be non-empty")
        if self.yield_kg_ha is not None and not math.isfinite(self.yield_kg_ha):
            raise InvalidInput(f"plot {self.plot_id}: yield is not finite")
        if self.yield_kg_ha is not None and self.yield_kg_ha < 0:
            raise InvalidInput(f"plot {self.plot_id}: yield must be >= 0")
        for name, value in self.features.items():
            if value is not None and not math.isfinite(value):
                raise InvalidInput(f"plot {self.plot_id}: feature {name} is not finite")


@dataclass(frozen=True, eq=False)
class FeatureTable(Columns):
    """Plot feature rows as columns; each row reads as its ``PlotFeatureRecord``.

    Text columns are codes into ``strings``. ``values`` holds one float64 row
    per feature of ``names`` and ``present`` whether each cell holds a value
    (NaN where it does not); ``yield_kg_ha`` is NaN where absent.
    """

    strings: tuple
    plot_id: np.ndarray
    germplasm_id: np.ndarray
    date: np.ndarray
    site: np.ndarray
    names: tuple
    values: np.ndarray
    present: np.ndarray
    yield_kg_ha: np.ndarray

    def __len__(self) -> int:
        return len(self.yield_kg_ha)

    def __getitem__(self, i) -> PlotFeatureRecord:
        text, present = self.strings, self.present[:, i]
        yield_kg_ha = self.yield_kg_ha[i]
        return PlotFeatureRecord(
            plot_id=text[self.plot_id[i]], germplasm_id=text[self.germplasm_id[i]],
            date=text[self.date[i]], site=text[self.site[i]],
            features={name: float(v) for name, v, p in zip(self.names, self.values[:, i], present) if p},
            yield_kg_ha=None if math.isnan(yield_kg_ha) else float(yield_kg_ha))


def _feature_table(records) -> FeatureTable:
    """``records`` as a FeatureTable: a table as it is, any other iterable of records converted
    once, with a row for each feature of FEATURE_DOMAIN."""
    if isinstance(records, FeatureTable):
        return records
    records = list(records)
    strings = {"": 0}
    texts = {name: codes([getattr(rec, name) for rec in records], strings)
             for name in ("plot_id", "germplasm_id", "date", "site")}
    values = np.array([[rec.features.get(name) for rec in records] for name in FEATURE_DOMAIN],
                      dtype=np.float64)  # None reads as NaN
    return FeatureTable(strings=tuple(strings), **texts, names=tuple(FEATURE_DOMAIN), values=values,
                        present=~np.isnan(values),
                        yield_kg_ha=np.array([rec.yield_kg_ha for rec in records], dtype=np.float64))


_WEATHER_VALUES = ("t_mean", "dew_point", "precip", "net_radiation", "wind_speed")


@dataclass(frozen=True, slots=True)
class WeatherRecord:
    """One day of station weather."""

    site: str
    date: str
    t_mean: float
    dew_point: float
    precip: float
    net_radiation: float
    wind_speed: float

    def __post_init__(self):
        for name in _WEATHER_VALUES:
            if not math.isfinite(getattr(self, name)):
                raise InvalidInput(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("precip", "wind_speed"):
            if getattr(self, name) < 0:
                raise InvalidInput(f"{name} must be >= 0")


@dataclass(frozen=True)
class FeatureMatrix:
    """Assembled design matrix with domain-tagged columns."""

    X: np.ndarray
    y: np.ndarray
    columns: tuple
    domains: tuple  # domain tag per column
    plot_ids: tuple
    germplasm_ids: tuple
    dropped: tuple = ()  # (plot_id, (missing features...)) pairs

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise InvalidInput("X must be 2-D with one y per row")
        if X.shape[1] != len(self.columns) or len(self.columns) != len(self.domains):
            raise InvalidInput("columns/domains must match X's width")
        if not np.isfinite(X).all() or not np.isfinite(y).all():
            raise InvalidInput("feature matrix must be fully observed and finite")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    def restrict(self, domains) -> "FeatureMatrix":
        """Column subset for an ablation run."""
        wanted = _known_domains(domains)
        keep = [i for i, d in enumerate(self.domains) if d in wanted]
        if not keep:
            raise EmptyDataset(f"no columns in domains {wanted}")
        return FeatureMatrix(
            X=self.X[:, keep],
            y=self.y,
            columns=tuple(self.columns[i] for i in keep),
            domains=tuple(self.domains[i] for i in keep),
            plot_ids=self.plot_ids,
            germplasm_ids=self.germplasm_ids,
            dropped=self.dropped,
        )


def _known_domains(domains) -> tuple:
    """``domains`` as a tuple; InvalidInput for a name not in DOMAINS."""
    domains = tuple(domains)
    for d in domains:
        if d not in DOMAINS:
            raise InvalidInput(f"unknown domain {d!r}, expected subset of {DOMAINS}")
    return domains


@dataclass(frozen=True)
class RidgeModel:
    """Ridge fit on z-scored columns: prediction = intercept + sum w_j z_j."""

    weights: np.ndarray
    intercept: float
    column_means: np.ndarray
    column_stds: np.ndarray
    columns: tuple
    lam: float
    dropped_columns: tuple = ()

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        Z = (X - self.column_means) / self.column_stds
        return self.intercept + Z @ self.weights


def standardize_yield(raw_mass: float, plot_area: float, moisture: float) -> float:
    """Plot yield in kg/ha standardized to 12.5 % grain moisture.

    Dry matter is conserved: yield = (mass/area) * (1 - moisture) / (1 - 0.125).
    """
    if not plot_area > 0:
        raise InvalidInput(f"plot_area must be > 0 ha, got {plot_area}")
    if not (0.0 <= moisture < 1.0):
        raise InvalidInput(f"moisture must be in [0, 1), got {moisture}")
    if raw_mass < 0:
        raise InvalidInput(f"raw_mass must be >= 0, got {raw_mass}")
    return (raw_mass / plot_area) * (1.0 - moisture) / (1.0 - MOISTURE_STANDARD)


def _aggregate_weather(records) -> dict:
    days = sorted(records, key=lambda r: r.date)
    if not days:
        return {}
    return {
        "t_mean_mean": float(np.mean([r.t_mean for r in days])),
        "dew_point_mean": float(np.mean([r.dew_point for r in days])),
        "precip_total": float(np.sum([r.precip for r in days])),
        "net_radiation_mean": float(np.mean([r.net_radiation for r in days])),
        "wind_speed_mean": float(np.mean([r.wind_speed for r in days])),
    }


def _plot_means(keys, values, has, n_plots: int):
    """Per-plot means of each row of ``values`` over its entries where ``has``.

    ``keys[i]`` is the plot of entry ``i``. Returns ``(means, present)``, each
    of shape plots × rows; a plot without values has mean NaN and is not
    present. Entries are stably sorted by plot once, so each plot's values
    lie together in entry order, and ``spectral.plot_means`` reduces each
    row: every mean equals ``np.mean`` over that plot's values, bit for bit.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    values, has = values[:, order], has[:, order]
    counts = np.array([np.bincount(sorted_keys[h], minlength=n_plots) for h in has])
    means = np.array([spectral.plot_means(v[h], n) for v, h, n in zip(values, has, counts)])
    return means.T, (counts > 0).T


def assemble(
    records,
    weather=(),
    germplasm=(),
    domains=DOMAINS,
) -> FeatureMatrix:
    """Build one feature row per plot from the selected domains.

    Plots are indexed in ``plot_id`` order (Python's ``str`` order) from the
    start, so rows, errors and the dropped plots all follow it. Multiple
    dates for a plot average per feature over the dates where the feature is
    present, all plots at once (see ``_plot_means``); each mean equals
    ``np.mean`` over that plot's values in record order, bit for bit.
    Weather aggregates over the growing season (means, precipitation
    total), joined by site when the record carries one. Germplasm trait
    flags come from the knowledge-base records via ``kb.trait_flags``, built
    only when that domain is selected and once per variety that a plot
    names. Rows missing any selected feature are dropped and reported on
    the returned matrix.
    """
    domains = _known_domains(domains)
    if not domains:
        raise InvalidInput("select at least one domain")
    table = _feature_table(records)
    if not len(table):
        raise EmptyDataset("no plot feature records")

    # each plot's index in plot_id order (Python's str order), and its first row
    text = table.strings
    plot_codes, first, keys = np.unique(table.plot_id, return_index=True, return_inverse=True)
    by_id = sorted(range(len(plot_codes)), key=lambda g: text[plot_codes[g]])
    keys = np.argsort(by_id)[keys]
    first = first[by_id]
    plot_ids = [text[code] for code in plot_codes[by_id]]
    conflicting = table.germplasm_id != table.germplasm_id[first][keys]
    if conflicting.any():
        raise InvalidInput(f"plot {text[table.plot_id[np.argmax(conflicting)]]}: conflicting germplasm_id")
    germplasm_ids = [text[code] for code in table.germplasm_id[first]]
    sites = [text[code] for code in table.site[first]]

    candidates = [c for c, d in FEATURE_DOMAIN.items() if d in domains]

    # one row per candidate column, absent where the table has no such
    # column, and the yield last
    rows = {name: j for j, name in enumerate(table.names)}
    values = np.full((len(candidates) + 1, len(table)), np.nan)
    has = np.zeros(values.shape, dtype=bool)
    for k, c in enumerate(candidates):
        if c in rows:
            values[k], has[k] = table.values[rows[c]], table.present[rows[c]]
    values[-1], has[-1] = table.yield_kg_ha, ~np.isnan(table.yield_kg_ha)
    means, present = _plot_means(keys, values, has, len(plot_ids))
    y, has_yield = means[:, -1], present[:, -1]
    means, present = means[:, :-1], present[:, :-1]
    if not has_yield.all():
        raise InvalidInput(f"plot {plot_ids[np.argmin(has_yield)]} has no yield")

    # season weather and trait flags replace any record values of their columns
    if "weather" in domains:
        weather = list(weather)
        weather_by_site: dict[str, dict] = {}
        cols = [candidates.index(c) for c in WEATHER_FEATURES]
        for g, site in enumerate(sites):
            if site not in weather_by_site:
                rows = [w for w in weather if w.site == site] if site else weather
                weather_by_site[site] = _aggregate_weather(rows)
            summary = weather_by_site[site]
            if summary:
                means[g, cols] = [summary[c] for c in WEATHER_FEATURES]
                present[g, cols] = True
    if "germplasm" in domains:
        # flags only for the varieties plots name; a repeated variety's later record wins
        named = set(germplasm_ids)
        latest = {g.variety_name: g for g in germplasm if g.variety_name in named}
        flags_by_variety = {name: kb.trait_flags(g) for name, g in latest.items()}
        cols = [candidates.index(c) for c in GERMPLASM_FEATURES]
        for g, germplasm_id in enumerate(germplasm_ids):
            flags = flags_by_variety.get(germplasm_id)
            if flags:
                means[g, cols] = [flags[c] for c in GERMPLASM_FEATURES]
                present[g, cols] = True

    # a selected column must exist somewhere; columns absent from every plot
    # are pruned, rows missing a surviving column are dropped and reported
    kept_cols = np.flatnonzero(present.any(axis=0))
    columns = tuple(candidates[j] for j in kept_cols)
    if not columns:
        raise EmptyDataset(f"no data for any column of domains {domains}")

    present = present[:, kept_cols]
    complete = present.all(axis=1)
    kept = np.flatnonzero(complete)
    dropped = [(plot_ids[g], tuple(c for c, p in zip(columns, present[g]) if not p))
               for g in np.flatnonzero(~complete)]
    if not kept.size:
        raise EmptyDataset(f"no plots survive assembly; dropped: {dropped}")
    return FeatureMatrix(
        X=means[np.ix_(kept, kept_cols)],
        y=y[kept],
        columns=columns,
        domains=tuple(FEATURE_DOMAIN[c] for c in columns),
        plot_ids=tuple(plot_ids[g] for g in kept),
        germplasm_ids=tuple(germplasm_ids[g] for g in kept),
        dropped=tuple(dropped),
    )


def fit_ridge(m: FeatureMatrix, lam: float = 1.0) -> RidgeModel:
    """Closed-form ridge on z-scored columns.

    Solves (Z^T Z + lam I) w = Z^T (y - mean(y)); the intercept is mean(y).
    Zero-variance columns are dropped with a warning. A singular system at
    lam = 0 raises SingularSystem (use lam > 0).
    """
    model = _ridge(m.X, m.y, m.columns, lam)
    if model.dropped_columns:
        warnings.warn(f"dropping zero-variance columns: {model.dropped_columns}", stacklevel=2)
    return model


def _ridge(X: np.ndarray, y: np.ndarray, columns: tuple, lam: float) -> RidgeModel:
    """``fit_ridge`` of ``y`` on the columns of ``X``, named ``columns``, without its warning."""
    if lam < 0:
        raise InvalidInput(f"lambda must be >= 0, got {lam}")
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    keep = stds > 0.0
    if not keep.any():
        raise EmptyDataset("all columns have zero variance")

    Z = (X[:, keep] - means[keep]) / stds[keep]
    y_bar = float(y.mean())
    A = Z.T @ Z + lam * np.eye(int(keep.sum()))
    b = Z.T @ (y - y_bar)
    if lam == 0.0 and np.linalg.cond(A) > 1e12:
        raise SingularSystem("normal equations singular at lambda=0; use lambda > 0")
    try:
        w = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        raise SingularSystem("normal equations singular at lambda=0; use lambda > 0")
    return RidgeModel(
        weights=w,
        intercept=y_bar,
        column_means=means[keep],
        column_stds=stds[keep],
        columns=tuple(c for c, k in zip(columns, keep) if k),
        lam=lam,
        dropped_columns=tuple(c for c, k in zip(columns, keep) if not k),
    )


def metrics(y_true, y_pred) -> tuple[float, float]:
    """(R^2, RMSE). R^2 = 1 - SSE/SST; undefined for zero-variance y_true.

    Finite inputs can still overflow: a non-finite SSE, SST or R^2 is a
    NumericalError, checked before the zero-variance case.
    """
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1 or y_true.size == 0:
        raise InvalidInput("metrics need equal-length non-empty vectors")
    with np.errstate(over="ignore"):
        sse = float(np.sum((y_true - y_pred) ** 2))
        sst = float(np.sum((y_true - y_true.mean()) ** 2))
    if not (math.isfinite(sse) and math.isfinite(sst)):
        raise NumericalError(f"metrics overflow: SSE={sse}, SST={sst}")
    rmse = float(np.sqrt(sse / y_true.size))
    if sst == 0.0:
        raise UndefinedR2("y_true has zero variance")
    r2 = 1.0 - sse / sst
    if not math.isfinite(r2):  # SSE over a subnormal SST
        raise NumericalError(f"metrics overflow: SSE={sse}, SST={sst}")
    return r2, rmse


@dataclass(frozen=True)
class CrossValidationResult:
    """Per-fold and pooled metrics plus out-of-fold prediction rows."""

    per_fold: tuple  # (fold_index, r2 or None, rmse) triples
    pooled_r2: float
    pooled_rmse: float
    rows: tuple  # (plot_id, germplasm_id, measured, predicted, exceeds_reference)
    k: int
    lam: float
    seed: int
    dropped_columns: tuple  # per fold, the zero-variance columns its training fit dropped


def kfold_cv(
    m: FeatureMatrix,
    k: int,
    lam: float = 1.0,
    seed: int = 0,
) -> CrossValidationResult:
    """Seeded k-fold cross-validation of the ridge model.

    Folds are a seeded shuffle split into sizes floor(n/k) or ceil(n/k);
    normalization and weights are fit on the training folds only. Pooled
    metrics are computed over the concatenated out-of-fold predictions.
    Per-fold R^2 is None when that fold's measured values have zero variance
    (always the case for leave-one-out). A column constant over a fold's
    training rows is dropped from that fold's fit without a warning and
    recorded in ``dropped_columns``: each fold is fit on row slices of
    ``m.X`` and ``m.y`` as ``fit_ridge`` fits a matrix, less its warning.
    """
    n = m.n_rows
    if k < 2:
        raise InvalidInput(f"k must be >= 2, got {k}")
    if k > n:
        raise InvalidInput(f"k={k} exceeds the {n} available rows")
    if seed < 0:
        raise InvalidInput("seed must be >= 0")  # numpy seeds are non-negative
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    folds = np.array_split(order, k)

    oof_pred = np.empty(n, dtype=np.float64)
    seen = np.zeros(n, dtype=bool)
    per_fold = []
    dropped = []
    for fold_index, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(order, test_idx, assume_unique=True)
        assert not np.intersect1d(train_idx, test_idx).size, "fold leakage"
        model = _ridge(m.X[train_idx], m.y[train_idx], m.columns, lam)
        dropped.append(model.dropped_columns)
        keep = [m.columns.index(c) for c in model.columns]
        pred = model.predict(m.X[test_idx][:, keep])
        oof_pred[test_idx] = pred
        seen[test_idx] = True
        try:
            r2, rmse = metrics(m.y[test_idx], pred)
        except UndefinedR2:  # zero-variance fold: RMSE is still defined (SSE was finite)
            r2 = None
            rmse = float(np.sqrt(np.mean((m.y[test_idx] - pred) ** 2)))
        per_fold.append((fold_index, r2, rmse))

    assert seen.all(), "every row must receive exactly one out-of-fold prediction"
    pooled_r2, pooled_rmse = metrics(m.y, oof_pred)
    rows = tuple(
        (m.plot_ids[i], m.germplasm_ids[i], float(m.y[i]), float(oof_pred[i]),
         bool(oof_pred[i] > YIELD_REFERENCE_KG_HA))
        for i in range(n)
    )
    return CrossValidationResult(
        per_fold=tuple(per_fold),
        pooled_r2=pooled_r2,
        pooled_rmse=pooled_rmse,
        rows=rows,
        k=k,
        lam=lam,
        seed=seed,
        dropped_columns=tuple(dropped),
    )


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

FEATURE_CSV_COLUMNS = ("plot_id", "germplasm_id", "date", "site",
                       *RS_FEATURES, *PHENOTYPING_FEATURES, "yield_kg_ha")


def _feature_block(lines, cells, strings: TextCodes) -> dict:
    """One block's FeatureTable columns, checked in the order a feature row is.

    ParseError at the first bad row. ``strings`` gains the block's new texts.
    """
    plot_id, germplasm_id, date, site, *features, yield_kg_ha = cells
    texts = {name: strings(column) for name, column in (
        ("plot_id", plot_id), ("germplasm_id", germplasm_id), ("date", date), ("site", site))}
    columns = features + [yield_kg_ha]
    read = [numbers(column, blank=True) for column in columns]
    values = np.array([v for v, _, _ in read])
    present = np.array([p for _, p, _ in read])

    def plot(i):
        return list(strings)[texts["plot_id"][i]]

    rows = np.flatnonzero
    raise_first(lines, [
        *((errors, lambda i, name=name, column=column: f"non-numeric {name}: {column[i].strip()!r}")
          for name, column, (_, _, errors) in zip(FEATURE_CSV_COLUMNS[4:], columns, read)),
        (rows(texts["plot_id"] == 0), lambda i: "plot_id must be non-empty"),
        (rows(present[-1] & ~np.isfinite(values[-1])), lambda i: f"plot {plot(i)}: yield is not finite"),
        (rows(values[-1] < 0), lambda i: f"plot {plot(i)}: yield must be >= 0"),
        *((rows(p & ~np.isfinite(v)), lambda i, name=name: f"plot {plot(i)}: feature {name} is not finite")
          for name, v, p in zip(FEATURE_CSV_COLUMNS[4:-1], values, present)),
    ])
    return dict(texts, values=values[:-1], present=present[:-1], yield_kg_ha=values[-1])


def load_feature_records(path) -> FeatureTable:
    """Read a feature table, a block of rows at a time (``_io.csv_blocks``), column by column.

    A blank cell is an absent value. The first bad row is a ParseError at
    its line, for the first check it fails: each number read in column
    order, then ``PlotFeatureRecord``'s checks.
    """
    strings = TextCodes()
    columns = read_table(path, FEATURE_CSV_COLUMNS[:3], FEATURE_CSV_COLUMNS[3:],
                         lambda lines, cells: _feature_block(lines, cells, strings))
    if columns is None:
        raise EmptyDataset(f"no feature rows in {path}")
    return FeatureTable(strings=tuple(strings), names=FEATURE_CSV_COLUMNS[4:-1], **columns)


def load_weather(path) -> list[WeatherRecord]:
    """Read daily station weather; a repeated (site, date) is a ParseError at its line."""
    rows = []
    seen = set()
    texts: dict = {}  # one shared string per distinct site and date
    for i, (site, date, *values) in csv_rows(path, ("site", "date") + _WEATHER_VALUES):
        try:
            site, date = site.strip(), str(iso_date(date.strip()))
            record = WeatherRecord(texts.setdefault(site, site), texts.setdefault(date, date),
                                   *map(number, values))
        except (ValueError, InvalidInput) as exc:
            raise ParseError(f"bad weather row: {exc}", line=i)
        if (record.site, record.date) in seen:
            raise ParseError(f"site {record.site}: duplicate weather row for {record.date}", line=i)
        seen.add((record.site, record.date))
        rows.append(record)
    if not rows:
        raise EmptyDataset(f"no weather rows in {path}")
    return rows
