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

from . import kb
from ._io import csv_rows, iso_date, write_csv
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


@dataclass(frozen=True)
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


_WEATHER_VALUES = ("t_mean", "dew_point", "precip", "net_radiation", "wind_speed")


@dataclass(frozen=True)
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


def _plot_means(keys, raw, n_plots: int):
    """Per-plot means of each list in ``raw`` over its entries that are not None.

    ``keys[i]`` is the plot of entry ``i``. Returns ``(means, present)``, each
    of shape plots × lists; a plot without values has mean NaN and is not
    present. Entries are stably sorted by plot once, so each plot's values
    lie together in entry order. The plots of a list that hold the same
    number ``n`` of values are gathered into one ``(plots, n)`` array and
    summed along its rows: numpy sums each contiguous row as it sums the
    1-D array in ``np.mean`` (pairwise from 8 values), so every mean has
    ``np.mean``'s bits. The cost is O(entries · lists) whatever the counts.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    values = np.array(raw, dtype=np.float64)[:, order]  # None reads as NaN
    has = np.array([[v is not None for v in row] for row in raw], dtype=bool)[:, order]
    means = np.full((len(raw), n_plots), np.nan)
    counts = np.zeros((len(raw), n_plots), dtype=np.intp)
    for j in range(len(raw)):
        present = values[j, has[j]]  # grouped by plot, entry order within a plot
        counts[j] = count = np.bincount(sorted_keys[has[j]], minlength=n_plots)
        start = np.cumsum(count) - count
        for n in np.unique(count[count > 0]):
            plots = np.flatnonzero(count == n)
            means[j, plots] = present[start[plots, None] + np.arange(n)].sum(axis=1) / n
    return means.T, (counts > 0).T


def assemble(
    records,
    weather=(),
    germplasm=(),
    domains=DOMAINS,
) -> FeatureMatrix:
    """Build one feature row per plot from the selected domains.

    Multiple dates for a plot average per feature over the dates where the
    feature is present, all plots at once (see ``_plot_means``); each mean
    equals ``np.mean`` over that plot's values in record order, bit for bit.
    Weather aggregates over the growing season (means, precipitation
    total), joined by site when the record carries one. Germplasm trait
    flags come from the knowledge-base records via ``kb.trait_flags``, built
    only when that domain is selected. Rows missing any selected feature are
    dropped and reported on the returned matrix.
    """
    domains = _known_domains(domains)
    if not domains:
        raise InvalidInput("select at least one domain")
    records = list(records)
    if not records:
        raise EmptyDataset("no plot feature records")

    # each plot's index, in order of first appearance
    plot_index: dict[str, int] = {}
    germplasm_ids, sites, keys = [], [], []
    for rec in records:
        g = plot_index.setdefault(rec.plot_id, len(germplasm_ids))
        if g == len(germplasm_ids):
            germplasm_ids.append(rec.germplasm_id)
            sites.append(rec.site)
        elif rec.germplasm_id != germplasm_ids[g]:
            raise InvalidInput(f"plot {rec.plot_id}: conflicting germplasm_id")
        keys.append(g)

    candidates = [c for c, d in FEATURE_DOMAIN.items() if d in domains]

    raw = [[rec.features.get(c) for rec in records] for c in candidates]
    raw.append([rec.yield_kg_ha for rec in records])
    means, present = _plot_means(np.array(keys, dtype=np.intp), raw, len(germplasm_ids))
    y, has_yield = means[:, -1], present[:, -1]
    means, present = means[:, :-1], present[:, :-1]

    plot_ids = sorted(plot_index)
    for plot_id in plot_ids:
        if not has_yield[plot_index[plot_id]]:
            raise InvalidInput(f"plot {plot_id} has no yield")

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
        flags_by_variety = {g.variety_name: kb.trait_flags(g) for g in germplasm}
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
    kept_ids, kept, dropped = [], [], []
    for plot_id in plot_ids:
        g = plot_index[plot_id]
        if complete[g]:
            kept_ids.append(plot_id)
            kept.append(g)
        else:
            dropped.append((plot_id, tuple(c for c, p in zip(columns, present[g]) if not p)))

    if not kept:
        raise EmptyDataset(f"no plots survive assembly; dropped: {dropped}")
    return FeatureMatrix(
        X=means[np.ix_(kept, kept_cols)],
        y=y[kept],
        columns=columns,
        domains=tuple(FEATURE_DOMAIN[c] for c in columns),
        plot_ids=tuple(kept_ids),
        germplasm_ids=tuple(germplasm_ids[g] for g in kept),
        dropped=tuple(dropped),
    )


def fit_ridge(m: FeatureMatrix, lam: float = 1.0) -> RidgeModel:
    """Closed-form ridge on z-scored columns.

    Solves (Z^T Z + lam I) w = Z^T (y - mean(y)); the intercept is mean(y).
    Zero-variance columns are dropped with a warning. A singular system at
    lam = 0 raises SingularSystem (use lam > 0).
    """
    if lam < 0:
        raise InvalidInput(f"lambda must be >= 0, got {lam}")
    X, y = m.X, m.y
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    keep = stds > 0.0
    dropped = tuple(c for c, k in zip(m.columns, keep) if not k)
    if dropped:
        warnings.warn(f"dropping zero-variance columns: {dropped}", stacklevel=2)
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
        columns=tuple(c for c, k in zip(m.columns, keep) if k),
        lam=lam,
        dropped_columns=dropped,
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
    (always the case for leave-one-out).
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
    for fold_index, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(order, test_idx, assume_unique=True)
        assert not np.intersect1d(train_idx, test_idx).size, "fold leakage"
        train = FeatureMatrix(
            X=m.X[train_idx],
            y=m.y[train_idx],
            columns=m.columns,
            domains=m.domains,
            plot_ids=tuple(m.plot_ids[i] for i in train_idx),
            germplasm_ids=tuple(m.germplasm_ids[i] for i in train_idx),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = fit_ridge(train, lam=lam)
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
    )


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

FEATURE_CSV_COLUMNS = (
    ("plot_id", "germplasm_id", "date", "site")
    + RS_FEATURES
    + PHENOTYPING_FEATURES
    + ("yield_kg_ha",)
)


def write_feature_records(records, path) -> None:
    """Write PlotFeatureRecord rows with a fixed column order."""
    write_csv(path, FEATURE_CSV_COLUMNS, (_feature_row(rec) for rec in records))


def _feature_row(rec: PlotFeatureRecord) -> list:
    values = [rec.features.get(name) for name in RS_FEATURES + PHENOTYPING_FEATURES]
    values.append(rec.yield_kg_ha)
    return [rec.plot_id, rec.germplasm_id, rec.date, rec.site] + [
        "" if value is None else repr(float(value)) for value in values
    ]


def load_feature_records(path) -> list[PlotFeatureRecord]:
    """One PlotFeatureRecord per row of a feature table; a blank cell is an absent value."""
    names = RS_FEATURES + PHENOTYPING_FEATURES
    records = []
    for i, (plot_id, germplasm_id, date, site, *cells, raw_yield) in csv_rows(
            path, FEATURE_CSV_COLUMNS[:3], FEATURE_CSV_COLUMNS[3:]):
        features = {}
        for name, raw in zip(names, cells):
            raw = raw.strip()
            if raw:
                try:
                    features[name] = float(raw)
                except ValueError:
                    raise ParseError(f"non-numeric {name}: {raw!r}", line=i)
        raw_yield = raw_yield.strip()
        try:
            yield_kg_ha = float(raw_yield) if raw_yield else None
        except ValueError:
            raise ParseError(f"non-numeric yield_kg_ha: {raw_yield!r}", line=i)
        try:
            records.append(PlotFeatureRecord(
                plot_id=plot_id.strip(), germplasm_id=germplasm_id.strip(), date=date.strip(),
                features=features, yield_kg_ha=yield_kg_ha, site=site.strip()))
        except InvalidInput as exc:
            raise ParseError(str(exc), line=i)
    if not records:
        raise EmptyDataset(f"no feature rows in {path}")
    return records


def load_weather(path) -> list[WeatherRecord]:
    """Read daily station weather; a repeated (site, date) is a ParseError at its line."""
    rows = []
    seen = set()
    for i, (site, date, *values) in csv_rows(path, ("site", "date") + _WEATHER_VALUES):
        try:
            record = WeatherRecord(site.strip(), str(iso_date(date.strip())), *map(float, values))
        except (ValueError, InvalidInput) as exc:
            raise ParseError(f"bad weather row: {exc}", line=i)
        if (record.site, record.date) in seen:
            raise ParseError(f"site {record.site}: duplicate weather row for {record.date}", line=i)
        seen.add((record.site, record.date))
        rows.append(record)
    if not rows:
        raise EmptyDataset(f"no weather rows in {path}")
    return rows
