import warnings

import numpy as np
import pytest

from breedkit import fusion, kb
from breedkit.errors import (
    EmptyDataset,
    InvalidInput,
    NumericalError,
    ParseError,
    SingularSystem,
    UndefinedR2,
)


def planted_matrix(rng, n=40, weights=(2.0, -1.0, 0.5), noise=0.0, domains=None):
    p = len(weights)
    X = rng.normal(size=(n, p))
    y = X @ np.array(weights) + 100.0 + noise * rng.normal(size=n)
    columns = tuple(f"f{i}" for i in range(p))
    domains = domains or tuple(["RS"] * p)
    return fusion.FeatureMatrix(
        X=X, y=y, columns=columns, domains=domains,
        plot_ids=tuple(f"p{i}" for i in range(n)),
        germplasm_ids=tuple(f"g{i}" for i in range(n)),
    )


def record(plot_id, germplasm_id="gA", date="2023-04-22", site="", yield_kg_ha=5000.0, **features):
    return fusion.PlotFeatureRecord(
        plot_id=plot_id, germplasm_id=germplasm_id, date=date, site=site,
        features=features, yield_kg_ha=yield_kg_ha,
    )


class TestStandardizeYield:
    def test_reference_moisture_is_identity(self):
        assert fusion.standardize_yield(100.0, 0.02, 0.125) == pytest.approx(5000.0, rel=1e-12)

    def test_dry_matter_conservation(self):
        value = fusion.standardize_yield(100.0, 0.02, 0.20)
        assert value == pytest.approx(5000.0 * 0.8 / 0.875, rel=1e-12)
        assert value == pytest.approx(4571.428571428572, rel=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInput):
            fusion.standardize_yield(100.0, 0.02, 1.0)
        with pytest.raises(InvalidInput):
            fusion.standardize_yield(100.0, 0.0, 0.1)
        with pytest.raises(InvalidInput):
            fusion.standardize_yield(-1.0, 0.02, 0.1)


class TestAssemble:
    def test_domain_filter_excludes_other_columns(self):
        recs = [record("p1", NDVI_MS=0.5, CH=0.8, SPAD=40.0),
                record("p2", NDVI_MS=0.6, CH=0.9, SPAD=41.0)]
        m = fusion.assemble(recs, domains=("RS",))
        assert set(m.columns) <= set(fusion.RS_FEATURES)
        assert "SPAD" not in m.columns
        assert all(d == "RS" for d in m.domains)

    def test_missing_feature_drops_row_and_reports(self):
        recs = [record("p1", NDVI_MS=0.5, SPAD=40.0, LAI=3.0, measured_CH=0.8),
                record("p2", NDVI_MS=0.6, SPAD=41.0, measured_CH=0.9)]  # no LAI
        m = fusion.assemble(recs, domains=("phenotyping",))
        assert m.plot_ids == ("p1",)
        assert m.dropped == (("p2", ("LAI",)),)

    def test_two_plot_hand_fixture(self):
        weather = [
            fusion.WeatherRecord(site="", date="2023-04-01", t_mean=10.0, dew_point=5.0,
                                 precip=2.0, net_radiation=100.0, wind_speed=1.0),
            fusion.WeatherRecord(site="", date="2023-04-02", t_mean=14.0, dew_point=7.0,
                                 precip=0.0, net_radiation=140.0, wind_speed=3.0),
        ]
        germ = [
            kb.GermplasmRecord(variety_name="gA", quality={"crude_protein": 15.0},
                               resistance={"drought": "R"},
                               agronomic={"plant_height": 75.0, "maturity": 190.0}),
            kb.GermplasmRecord(variety_name="gB", quality={"crude_protein": 12.0},
                               resistance={"drought": "S"},
                               agronomic={"plant_height": 95.0, "maturity": 215.0}),
        ]
        recs = [record("p1", germplasm_id="gA", NDVI_MS=0.5, SPAD=40.0, LAI=3.0, measured_CH=0.8),
                record("p2", germplasm_id="gB", NDVI_MS=0.7, SPAD=44.0, LAI=3.5, measured_CH=0.9,
                       yield_kg_ha=6000.0)]
        m = fusion.assemble(recs, weather=weather, germplasm=germ,
                            domains=("RS", "phenotyping", "weather", "germplasm"))
        assert m.plot_ids == ("p1", "p2")
        assert m.y.tolist() == [5000.0, 6000.0]
        # the single RS feature present on both rows survives; others are missing
        assert m.dropped == ()
        row1 = dict(zip(m.columns, m.X[0]))
        assert row1["NDVI_MS"] == 0.5
        assert row1["t_mean_mean"] == 12.0
        assert row1["precip_total"] == 2.0
        assert row1["HQ"] == 1.0 and row1["DR"] == 1.0 and row1["AM"] == 1.0 and row1["MP"] == 1.0
        row2 = dict(zip(m.columns, m.X[1]))
        assert row2["HQ"] == 0.0 and row2["DR"] == 0.0 and row2["AM"] == 0.0 and row2["MP"] == 0.0

    def test_multiple_dates_average_per_feature(self):
        recs = [record("p1", date="2023-04-01", NDVI_MS=0.4),
                record("p1", date="2023-05-01", NDVI_MS=0.6)]
        m = fusion.assemble(recs, domains=("RS",))
        assert m.X[0][m.columns.index("NDVI_MS")] == pytest.approx(0.5)

    def test_weather_joins_by_site(self):
        weather = [
            fusion.WeatherRecord(site="north", date="2023-04-01", t_mean=10.0, dew_point=5.0,
                                 precip=1.0, net_radiation=100.0, wind_speed=1.0),
            fusion.WeatherRecord(site="south", date="2023-04-01", t_mean=20.0, dew_point=9.0,
                                 precip=3.0, net_radiation=180.0, wind_speed=2.0),
        ]
        recs = [record("p1", site="north", NDVI_MS=0.5),
                record("p2", site="south", NDVI_MS=0.6)]
        m = fusion.assemble(recs, weather=weather, domains=("weather",))
        t_col = m.columns.index("t_mean_mean")
        assert m.X[0][t_col] == 10.0
        assert m.X[1][t_col] == 20.0

    def test_missing_yield_rejected(self):
        recs = [record("p1", NDVI_MS=0.5, yield_kg_ha=None)]
        with pytest.raises(InvalidInput, match="yield"):
            fusion.assemble(recs, domains=("RS",))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_yield_rejected_naming_the_plot(self, bad):
        with pytest.raises(InvalidInput, match="^plot p1: yield is not finite$"):
            record("p1", NDVI_MS=0.5, yield_kg_ha=bad)

    def test_zero_surviving_rows(self):
        recs = [record("p1", NDVI_MS=0.5)]  # no phenotyping columns at all
        with pytest.raises(EmptyDataset):
            fusion.assemble(recs, domains=("phenotyping",))

    def test_partial_rs_columns_drop_rows(self):
        # only one of the 16 RS features is present, so the row survives only
        # if every selected column exists; here the other 15 are missing
        recs = [record("p1", NDVI_MS=0.5)]
        m_ok = fusion.assemble(recs, domains=("RS",))
        assert m_ok.columns == ("NDVI_MS",)  # absent-everywhere columns are pruned

    def test_columns_missing_on_some_rows_only(self):
        recs = [record("p1", NDVI_MS=0.5, CH=0.8), record("p2", NDVI_MS=0.6)]
        m = fusion.assemble(recs, domains=("RS",))
        assert m.plot_ids == ("p1",)
        assert m.dropped == (("p2", ("CH",)),)


class TestFitRidge:
    def test_recovers_planted_model_at_zero_lambda(self):
        m = planted_matrix(np.random.default_rng(5), n=60)
        model = fusion.fit_ridge(m, lam=0.0)
        pred = model.predict(m.X)
        r2, rmse = fusion.metrics(m.y, pred)
        assert r2 == pytest.approx(1.0, abs=1e-10)
        # weights are in z-score space: w_j = beta_j * std_j
        stds = m.X.std(axis=0)
        for w, beta, s in zip(model.weights, (2.0, -1.0, 0.5), stds):
            assert w == pytest.approx(beta * s, abs=1e-8)

    def test_huge_lambda_shrinks_to_mean(self):
        m = planted_matrix(np.random.default_rng(6), n=50)
        model = fusion.fit_ridge(m, lam=1e9)
        assert np.all(np.abs(model.weights) < 1e-6)
        assert model.predict(m.X) == pytest.approx(np.full(50, model.intercept), abs=1e-4)
        assert model.intercept == pytest.approx(float(m.y.mean()))

    def test_against_independent_lstsq_oracle(self):
        rng = np.random.default_rng(7)
        m = planted_matrix(rng, n=5, weights=(1.0, 2.0, 3.0), noise=0.5)
        lam = 0.7
        model = fusion.fit_ridge(m, lam=lam)
        # oracle: least squares on the augmented system [Z; sqrt(lam) I]
        Z = (m.X - m.X.mean(axis=0)) / m.X.std(axis=0)
        A = np.vstack([Z, np.sqrt(lam) * np.eye(3)])
        b = np.concatenate([m.y - m.y.mean(), np.zeros(3)])
        expected, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert model.weights == pytest.approx(expected, abs=1e-8)

    def test_zero_variance_column_dropped_with_warning(self):
        rng = np.random.default_rng(8)
        X = np.column_stack([rng.normal(size=20), np.full(20, 3.0)])
        m = fusion.FeatureMatrix(
            X=X, y=rng.normal(size=20), columns=("a", "const"), domains=("RS", "RS"),
            plot_ids=tuple(f"p{i}" for i in range(20)),
            germplasm_ids=tuple(f"g{i}" for i in range(20)),
        )
        with pytest.warns(UserWarning, match="const"):
            model = fusion.fit_ridge(m, lam=0.1)
        assert model.columns == ("a",)
        assert model.dropped_columns == ("const",)

    def test_collinear_columns_singular_at_zero_lambda(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=25)
        X = np.column_stack([a, 2.0 * a])
        m = fusion.FeatureMatrix(
            X=X, y=rng.normal(size=25), columns=("a", "b"), domains=("RS", "RS"),
            plot_ids=tuple(f"p{i}" for i in range(25)),
            germplasm_ids=tuple(f"g{i}" for i in range(25)),
        )
        with pytest.raises(SingularSystem):
            fusion.fit_ridge(m, lam=0.0)
        fusion.fit_ridge(m, lam=0.1)  # regularized solve goes through

    def test_training_mse_monotone_in_lambda(self):
        m = planted_matrix(np.random.default_rng(10), n=30, noise=1.0)
        def train_mse(lam):
            model = fusion.fit_ridge(m, lam=lam)
            return float(np.mean((m.y - model.predict(m.X)) ** 2))
        base = train_mse(0.0)
        for lam in (0.1, 1.0, 10.0, 1000.0):
            assert train_mse(lam) >= base - 1e-12

    def test_prediction_invariant_to_column_affine_rescaling(self):
        rng = np.random.default_rng(11)
        m = planted_matrix(rng, n=30, noise=0.3)
        model_a = fusion.fit_ridge(m, lam=1.0)
        X_scaled = m.X.copy()
        X_scaled[:, 1] = X_scaled[:, 1] * 10.0 - 7.0  # z-scoring absorbs both
        m_scaled = fusion.FeatureMatrix(
            X=X_scaled, y=m.y, columns=m.columns, domains=m.domains,
            plot_ids=m.plot_ids, germplasm_ids=m.germplasm_ids,
        )
        model_b = fusion.fit_ridge(m_scaled, lam=1.0)
        assert model_b.predict(X_scaled) == pytest.approx(model_a.predict(m.X), abs=1e-8)


class TestMetrics:
    def test_perfect_prediction(self):
        r2, rmse = fusion.metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r2 == 1.0 and rmse == 0.0

    def test_mean_predictor_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        r2, _ = fusion.metrics(y, np.full(3, y.mean()))
        assert r2 == 0.0

    def test_hand_arithmetic(self):
        r2, rmse = fusion.metrics([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert rmse == pytest.approx(np.sqrt(1.0 / 3.0), rel=1e-12)
        assert r2 == pytest.approx(0.5, rel=1e-12)

    def test_zero_variance_truth(self):
        with pytest.raises(UndefinedR2):
            fusion.metrics([2.0, 2.0], [1.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(InvalidInput):
            fusion.metrics([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("y_true, y_pred, message", [
        ([1e308, -1e308], [1e308, -1e308], "SSE=0.0, SST=inf"),
        ([1e308, -1e308], [-1e308, 1e308], "SSE=inf, SST=inf"),
        ([2.0, 2.0], [1e308, -1e308], "SSE=inf, SST=0.0"),  # before the zero-variance case
        ([0.0, 1e-160], [1.0, 1.0], "SSE=2.0, SST=5e-321"),  # R^2 overflows
    ])
    def test_overflow_is_a_numerical_error(self, y_true, y_pred, message):
        with pytest.raises(NumericalError, match=message):
            fusion.metrics(y_true, y_pred)


class TestKfoldCv:
    def test_leave_one_out_recovers_planted_model(self):
        rng = np.random.default_rng(12)
        m = planted_matrix(rng, n=6, weights=(1.5,), noise=0.0)
        result = fusion.kfold_cv(m, k=6, lam=1e-8, seed=3)
        assert result.pooled_r2 > 0.99
        assert all(r2 is None for _, r2, _ in result.per_fold)  # 1-row folds

    def test_single_row_folds_report_absolute_error_as_rmse(self):
        m = planted_matrix(np.random.default_rng(14), n=5, noise=1.0)
        result = fusion.kfold_cv(m, k=5, lam=1.0, seed=2)
        fold_rmse = sorted(rmse for _, _, rmse in result.per_fold)
        assert fold_rmse == sorted(abs(meas - pred) for _, _, meas, pred, _ in result.rows)

    def test_overflowing_single_row_fold_is_a_numerical_error(self):
        m = planted_matrix(np.random.default_rng(1), n=4)
        m = fusion.FeatureMatrix(
            X=m.X, y=np.array([1e300, -1e300, 1e300, -1e300]), columns=m.columns,
            domains=m.domains, plot_ids=m.plot_ids, germplasm_ids=m.germplasm_ids,
        )
        with pytest.raises(NumericalError, match="SSE=inf, SST=0.0"):
            fusion.kfold_cv(m, k=4, lam=1.0, seed=0)

    def test_same_seed_identical_results(self):
        m = planted_matrix(np.random.default_rng(13), n=24, noise=1.0)
        a = fusion.kfold_cv(m, k=4, lam=1.0, seed=42)
        b = fusion.kfold_cv(m, k=4, lam=1.0, seed=42)
        assert a == b
        c = fusion.kfold_cv(m, k=4, lam=1.0, seed=43)
        assert c.rows != a.rows

    def test_reference_threshold_flags(self):
        rng = np.random.default_rng(14)
        m = planted_matrix(rng, n=12, noise=0.0)
        result = fusion.kfold_cv(m, k=3, lam=0.0, seed=1)
        for _, _, measured, predicted, flagged in result.rows:
            assert flagged == (predicted > 4230.2)
        # the synthetic yields sit near 100, so nothing should be flagged
        assert not any(r[4] for r in result.rows)
        flagged_rows = [
            ("p", "g", 4000.0, 4300.0, True),
            ("p", "g", 4000.0, 4200.0, False),
        ]
        for _, _, _, predicted, expected in flagged_rows:
            assert (predicted > fusion.YIELD_REFERENCE_KG_HA) == expected

    def test_fold_sizes_balanced(self):
        m = planted_matrix(np.random.default_rng(15), n=10, noise=0.5)
        result = fusion.kfold_cv(m, k=3, lam=1.0, seed=0)
        assert len(result.per_fold) == 3
        assert result.pooled_rmse >= 0.0

    def test_k_larger_than_n_rejected(self):
        m = planted_matrix(np.random.default_rng(16), n=4)
        with pytest.raises(InvalidInput):
            fusion.kfold_cv(m, k=5, lam=1.0, seed=0)
        with pytest.raises(InvalidInput):
            fusion.kfold_cv(m, k=1, lam=1.0, seed=0)

    def test_out_of_fold_prediction_ignores_own_yield(self):
        rng = np.random.default_rng(17)
        m = planted_matrix(rng, n=15, noise=0.5)
        base = fusion.kfold_cv(m, k=5, lam=1.0, seed=9)
        y2 = m.y.copy()
        y2[4] += 500.0  # perturb one plot's yield
        m2 = fusion.FeatureMatrix(
            X=m.X, y=y2, columns=m.columns, domains=m.domains,
            plot_ids=m.plot_ids, germplasm_ids=m.germplasm_ids,
        )
        other = fusion.kfold_cv(m2, k=5, lam=1.0, seed=9)
        assert other.rows[4][3] == base.rows[4][3]  # own prediction unchanged
        assert any(other.rows[i][3] != base.rows[i][3] for i in range(15) if i != 4)


class TestDomainAblation:
    def test_all_domains_beat_rs_only(self):
        rng = np.random.default_rng(18)
        n = 80
        X = rng.normal(size=(n, 8))
        weights = np.array([1.0, 1.0, 0.8, 0.8, 0.8, 0.8, 0.6, 0.6])
        y = X @ weights + 50.0 + 0.8 * rng.normal(size=n)
        columns = tuple(f"c{i}" for i in range(8))
        domains = ("RS", "RS", "phenotyping", "phenotyping",
                   "weather", "weather", "germplasm", "germplasm")
        m = fusion.FeatureMatrix(
            X=X, y=y, columns=columns, domains=domains,
            plot_ids=tuple(f"p{i}" for i in range(n)),
            germplasm_ids=tuple(f"g{i}" for i in range(n)),
        )
        full = fusion.kfold_cv(m, k=5, lam=1.0, seed=2)
        rs_only = fusion.kfold_cv(m.restrict(("RS",)), k=5, lam=1.0, seed=2)
        assert full.pooled_r2 >= rs_only.pooled_r2
        assert m.restrict(("RS",)).columns == ("c0", "c1")
        assert m.restrict(("phenotyping",)).columns == ("c2", "c3")


class TestFeatureCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        recs = [record("p1", NDVI_MS=0.5123456789, CH=0.8, SPAD=40.0),
                record("p2", NDVI_MS=0.6, yield_kg_ha=None)]
        path = tmp_path / "features.csv"
        fusion.write_feature_records(recs, path)
        back = fusion.load_feature_records(path)
        assert back[0].features["NDVI_MS"] == 0.5123456789
        assert back[0].yield_kg_ha == 5000.0
        assert back[1].yield_kg_ha is None
        assert back[1].features.get("CH") is None

    def test_non_numeric_yield_is_a_parse_error(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("plot_id,germplasm_id,date,NDVI_MS,yield_kg_ha\n"
                        "p1,g1,2023-04-01,0.5,5000\n"
                        "p2,g1,2023-04-01,0.6,n/a\n")
        with pytest.raises(ParseError) as info:
            fusion.load_feature_records(path)
        assert str(info.value) == "line 3: non-numeric yield_kg_ha: 'n/a'"

    def test_non_finite_yield_is_rejected_naming_the_plot(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("plot_id,germplasm_id,date,NDVI_MS,yield_kg_ha\n"
                        "p1,g1,2023-04-01,0.5,5000\n"
                        "p2,g1,2023-04-01,0.6,nan\n")
        with pytest.raises(ParseError, match="^line 3: plot p2: yield is not finite$"):
            fusion.load_feature_records(path)

    def test_weather_csv(self, tmp_path):
        path = tmp_path / "weather.csv"
        path.write_text(
            "site,date,t_mean,dew_point,precip,net_radiation,wind_speed\n"
            "north,2023-04-01,10,5,2,100,1\n"
        )
        rows = fusion.load_weather(path)
        assert rows[0].site == "north"
        assert rows[0].t_mean == 10.0

    def test_weather_csv_rejects_a_repeated_site_and_date(self, tmp_path):
        path = tmp_path / "weather.csv"
        path.write_text(
            "site,date,t_mean,dew_point,precip,net_radiation,wind_speed\n"
            "north,2023-04-01,10,5,2,100,1\n"
            "south,2023-04-01,10,5,2,100,1\n"
            " north ,2023-04-01,11,5,2,100,1\n"
        )
        with pytest.raises(ParseError, match="^line 4: site north: duplicate weather row for 2023-04-01$"):
            fusion.load_weather(path)


def _assemble_row_loop(records, weather=(), germplasm=(), domains=fusion.DOMAINS):
    """``fusion.assemble`` as a row loop with one ``np.mean`` per plot and feature.

    The reference the grouped implementation must match bit for bit.
    """
    domains = tuple(domains)
    if not domains:
        raise InvalidInput("select at least one domain")
    for d in domains:
        if d not in fusion.DOMAINS:
            raise InvalidInput(f"unknown domain {d!r}, expected subset of {fusion.DOMAINS}")
    records = list(records)
    if not records:
        raise EmptyDataset("no plot feature records")

    plots = {}
    for rec in records:
        entry = plots.setdefault(
            rec.plot_id,
            {"germplasm_id": rec.germplasm_id, "site": rec.site, "features": {}, "yields": []},
        )
        if rec.germplasm_id != entry["germplasm_id"]:
            raise InvalidInput(f"plot {rec.plot_id}: conflicting germplasm_id")
        for name, value in rec.features.items():
            if value is not None:
                entry["features"].setdefault(name, []).append(float(value))
        if rec.yield_kg_ha is not None:
            entry["yields"].append(float(rec.yield_kg_ha))

    weather = list(weather)
    weather_by_site = {}

    def weather_summary(site):
        if site not in weather_by_site:
            rows = [w for w in weather if w.site == site] if site else weather
            weather_by_site[site] = fusion._aggregate_weather(rows)
        return weather_by_site[site]

    flags_by_variety = {g.variety_name: kb.trait_flags(g) for g in germplasm}

    candidates = []
    if "RS" in domains:
        candidates += list(fusion.RS_FEATURES)
    if "phenotyping" in domains:
        candidates += list(fusion.PHENOTYPING_FEATURES)
    if "weather" in domains:
        candidates += list(fusion.WEATHER_FEATURES)
    if "germplasm" in domains:
        candidates += list(fusion.GERMPLASM_FEATURES)

    values_by_plot = {}
    for plot_id in sorted(plots):
        entry = plots[plot_id]
        if not entry["yields"]:
            raise InvalidInput(f"plot {plot_id} has no yield")
        values = {name: float(np.mean(vals)) for name, vals in entry["features"].items()}
        if "weather" in domains:
            values.update(weather_summary(entry["site"]))
        if "germplasm" in domains:
            values.update(flags_by_variety.get(entry["germplasm_id"], {}))
        values_by_plot[plot_id] = values

    columns = [c for c in candidates if any(c in v for v in values_by_plot.values())]
    if not columns:
        raise EmptyDataset(f"no data for any column of domains {domains}")

    rows, ys, kept_plots, kept_germs, dropped = [], [], [], [], []
    for plot_id in sorted(plots):
        entry = plots[plot_id]
        values = values_by_plot[plot_id]
        missing = tuple(c for c in columns if c not in values)
        if missing:
            dropped.append((plot_id, missing))
            continue
        rows.append([values[c] for c in columns])
        ys.append(float(np.mean(entry["yields"])))
        kept_plots.append(plot_id)
        kept_germs.append(entry["germplasm_id"])

    if not rows:
        raise EmptyDataset(f"no plots survive assembly; dropped: {dropped}")
    return fusion.FeatureMatrix(
        X=np.array(rows, dtype=np.float64),
        y=np.array(ys, dtype=np.float64),
        columns=tuple(columns),
        domains=tuple(fusion.FEATURE_DOMAIN[c] for c in columns),
        plot_ids=tuple(kept_plots),
        germplasm_ids=tuple(kept_germs),
        dropped=tuple(dropped),
    )


DOMAIN_SUBSETS = [
    tuple(d for i, d in enumerate(fusion.DOMAINS) if mask >> i & 1)
    for mask in range(1, 2 ** len(fusion.DOMAINS))
]


def _random_scene(rng):
    """Records, weather and germplasm with 1-20 dates per plot and gaps everywhere."""
    names = fusion.RS_FEATURES + fusion.PHENOTYPING_FEATURES
    # a record may also carry a weather or germplasm column, which the
    # season summary or the trait flags replace when they exist
    extra = ("t_mean_mean", "HQ")
    n_plots = int(rng.integers(1, 9))
    sites = ["", "north", "south", "east"]
    varieties = [f"g{i}" for i in range(5)]
    always = set(rng.choice(names, size=int(rng.integers(0, 4)), replace=False))
    p_blank = float(rng.choice([0.0, 0.1, 0.5]))
    records = []
    for p in range(n_plots):
        plot_id = f"p{int(rng.integers(0, 100)):02d}"
        germ = str(rng.choice(varieties))
        site = str(rng.choice(sites))
        scale = 10.0 ** rng.uniform(-3, 4)
        no_yield = rng.random() < 0.05
        for d in range(int(rng.integers(1, 21))):
            features = {}
            for name in names + extra:
                if name in always or rng.random() >= p_blank:
                    if name in extra and rng.random() < 0.8:
                        continue
                    kind = rng.random()
                    if kind < 0.05:
                        features[name] = float(rng.choice([0.0, -0.0]))
                    elif kind < 0.1:
                        features[name] = int(rng.integers(-5, 5))
                    else:
                        features[name] = float(rng.normal() * scale)
            y = None if no_yield or rng.random() < 0.2 else float(rng.uniform(0, 9000))
            records.append(fusion.PlotFeatureRecord(
                plot_id=plot_id, germplasm_id=germ, date=f"2023-04-{d + 1:02d}",
                site=site, features=features, yield_kg_ha=y))
    if rng.random() < 0.05:  # a later date of one plot names another variety
        i = int(rng.integers(0, len(records)))
        rec = records[i]
        records.append(fusion.PlotFeatureRecord(
            plot_id=rec.plot_id, germplasm_id=rec.germplasm_id + "x", date="2023-05-01",
            site=rec.site, features=dict(rec.features), yield_kg_ha=rec.yield_kg_ha))
    order = rng.permutation(len(records))
    records = [records[i] for i in order]
    weather = [
        fusion.WeatherRecord(site=site, date=f"2023-04-{day + 1:02d}",
                             t_mean=float(rng.normal(15, 3)), dew_point=float(rng.normal(8, 2)),
                             precip=float(rng.uniform(0, 5)), net_radiation=float(rng.uniform(90, 180)),
                             wind_speed=float(rng.uniform(0, 4)))
        for site in sites[1:3] for day in range(int(rng.integers(0, 12)))
    ]
    germplasm = [
        kb.GermplasmRecord(variety_name=v, quality={"crude_protein": float(rng.uniform(10, 18))},
                           resistance={"drought": str(rng.choice(["R", "S"]))},
                           agronomic={"plant_height": float(rng.uniform(60, 100)),
                                      "maturity": float(rng.uniform(180, 230))})
        for v in varieties[:3]
    ]
    return records, weather, germplasm


def _outcome(fn, *args, **kwargs):
    try:
        m = fn(*args, **kwargs)
    except (InvalidInput, EmptyDataset) as exc:
        return ("raised", type(exc), str(exc))
    return ("ok", m.X.shape, m.X.tobytes(), m.y.tobytes(), m.columns, m.domains,
            m.plot_ids, m.germplasm_ids, m.dropped)


# numpy's sum adds 8 or more values pairwise, fewer in sequence
PAIRWISE_SUM_MIN = 8


class TestAssembleMatchesRowLoop:
    def test_seeded_scenes_match_bit_for_bit(self):
        rng = np.random.default_rng(20241018)
        seen = {"ok": 0, "raised": 0, "pairwise": 0, "dropped": 0}
        for _ in range(80):
            records, weather, germplasm = _random_scene(rng)
            counts = {}
            for rec in records:
                for name in rec.features:
                    counts[rec.plot_id, name] = counts.get((rec.plot_id, name), 0) + 1
            seen["pairwise"] += any(n >= PAIRWISE_SUM_MIN for n in counts.values())
            for domains in DOMAIN_SUBSETS:
                want = _outcome(_assemble_row_loop, records, weather, germplasm, domains)
                got = _outcome(fusion.assemble, records, weather, germplasm, domains)
                assert got == want, domains
                seen[want[0]] += 1
                seen["dropped"] += want[0] == "ok" and bool(want[-1])
        # the scenes reach every branch: results, errors, dropped rows and
        # plots whose means numpy sums pairwise
        assert min(seen.values()) >= 20, seen

    def test_long_seasons_match_bit_for_bit(self):
        # past numpy's 128-value pairwise block, with gaps that give every
        # plot of a column its own count
        rng = np.random.default_rng(7)
        names = fusion.RS_FEATURES + fusion.PHENOTYPING_FEATURES
        records = [
            fusion.PlotFeatureRecord(
                plot_id=f"p{p}", germplasm_id="g1", date=str(d), site="",
                features={n: float(rng.normal() * 10.0 ** rng.uniform(-3, 6))
                          for n in names if rng.random() < 0.9},
                yield_kg_ha=float(rng.uniform(0, 9000)))
            for p in range(6) for d in range(int(rng.integers(100, 300)))
        ]
        records = [records[i] for i in rng.permutation(len(records))]
        for domains in (("RS",), ("RS", "phenotyping")):
            want = _outcome(_assemble_row_loop, records, domains=domains)
            assert want[0] == "ok"
            assert _outcome(fusion.assemble, records, domains=domains) == want

    def test_errors_match(self):
        rec = fusion.PlotFeatureRecord
        cases = [
            ([rec("p1", "g1", "d1", {"NDVI_MS": 1.0}, 1.0),
              rec("p1", "g2", "d2", {"NDVI_MS": 2.0}, 1.0)], ("RS",)),
            ([rec("p2", "g1", "d1", {"NDVI_MS": 1.0}, None),
              rec("p1", "g1", "d1", {"NDVI_MS": 1.0}, None)], ("RS",)),
            ([rec("p1", "g1", "d1", {"SPAD": 1.0}, 1.0)], ("RS",)),
            ([rec("p1", "g1", "d1", {"SPAD": 1.0}, 1.0),
              rec("p2", "g1", "d1", {"LAI": 1.0}, 1.0)], ("phenotyping",)),
            ([], ("RS",)),
            ([rec("p1", "g1", "d1", {"SPAD": 1.0}, 1.0)], ()),
            ([rec("p1", "g1", "d1", {"SPAD": 1.0}, 1.0)], ("soil",)),
        ]
        for records, domains in cases:
            want = _outcome(_assemble_row_loop, records, domains=domains)
            assert want[0] == "raised"
            assert _outcome(fusion.assemble, records, domains=domains) == want
