import datetime

import numpy as np
import pytest

from breedkit import kb
from breedkit.errors import InvalidInput, ParseError, UnknownField


def germ(name, height=None, maturity=None, protein=None, drought=None,
         stripe=None, leaf=None, mildew=None, origin=""):
    quality = {"crude_protein": protein} if protein is not None else {}
    resistance = {}
    if drought is not None:
        resistance["drought"] = drought
    if stripe is not None:
        resistance["stripe_rust"] = stripe
    if leaf is not None:
        resistance["leaf_rust"] = leaf
    if mildew is not None:
        resistance["powdery_mildew"] = mildew
    agronomic = {}
    if height is not None:
        agronomic["plant_height"] = height
    if maturity is not None:
        agronomic["maturity"] = maturity
    return kb.GermplasmRecord(variety_name=name, origin=origin, quality=quality,
                              resistance=resistance, agronomic=agronomic)


FIXTURE = [
    germ("Alpha", height=75.0, maturity=195.0, protein=15.2, drought="R", stripe="R"),
    germ("Bravo", height=92.0, maturity=210.0, protein=13.1, drought="S", stripe="MR"),
    germ("Charlie", height=78.0, maturity=188.0, protein=14.5, drought="MR", stripe="S"),
    germ("Delta", height=101.0, maturity=220.0, protein=11.0, drought="S", stripe="S"),
    germ("Echo", height=88.0, maturity=200.0, protein=14.0, drought="R", stripe="HR"),
]


def price(point, date, variety="Nongda 3486", value=150.0, spec=25.0, area="Beijing"):
    return kb.PriceRecord(
        observation_point=point, variety_name=variety, price=value,
        specification=spec, planting_area=area,
        date=datetime.date.fromisoformat(date),
    )


class TestScreenGermplasm:
    def test_height_threshold_selects_two(self):
        hits = kb.screen_germplasm(FIXTURE, [kb.Criterion("plant_height", "<=", 80.0)])
        assert [r.variety_name for r in hits] == ["Alpha", "Charlie"]

    # Echo's height is 88 exactly; parsing also tests that "<=" wins over "<"
    @pytest.mark.parametrize("op, want", [
        ("<=", ["Alpha", "Charlie", "Echo"]), ("<", ["Alpha", "Charlie"]),
        (">=", ["Bravo", "Delta", "Echo"]), (">", ["Bravo", "Delta"]),
        ("==", ["Echo"]), ("!=", ["Alpha", "Bravo", "Charlie", "Delta"]),
    ])
    def test_each_operator_at_its_boundary(self, op, want):
        hits = kb.screen_germplasm(FIXTURE, [kb.parse_criterion(f"plant_height{op}88")])
        assert [r.variety_name for r in hits] == want

    def test_empty_result_is_valid(self):
        hits = kb.screen_germplasm(FIXTURE, [kb.Criterion("plant_height", "<=", 10.0)])
        assert hits == []

    def test_conjunction_equals_intersection(self):
        rng = np.random.default_rng(4)
        pools = [
            kb.Criterion("plant_height", "<=", 90.0),
            kb.Criterion("maturity", "<", 205.0),
            kb.Criterion("crude_protein", ">=", 14.0),
            kb.Criterion("drought", "==", "R"),
        ]
        for _ in range(20):
            picks = rng.choice(len(pools), size=2, replace=False)
            a, b = pools[picks[0]], pools[picks[1]]
            both = {r.variety_name for r in kb.screen_germplasm(FIXTURE, [a, b])}
            left = {r.variety_name for r in kb.screen_germplasm(FIXTURE, [a])}
            right = {r.variety_name for r in kb.screen_germplasm(FIXTURE, [b])}
            assert both == left & right

    def test_unknown_field(self):
        with pytest.raises(UnknownField):
            kb.screen_germplasm(FIXTURE, [kb.Criterion("grain_color", "==", "red")])

    def test_every_declared_field_is_known_and_no_other(self):
        bare = kb.GermplasmRecord(variety_name="Zulu")
        assert [bare.get_field(name) for name in kb.GERMPLASM_FIELDS] == ["Zulu", ""] + [None] * 12
        for records in ([], FIXTURE):  # unknown even with no record to test
            for name in kb.GERMPLASM_FIELDS:
                kb.screen_germplasm(records, [kb.Criterion(name, "==", "x")])
            with pytest.raises(UnknownField) as info:
                kb.screen_germplasm(records, [kb.Criterion("grain_color", "==", "red")])
            assert str(info.value) == "unknown germplasm field 'grain_color'"
        with pytest.raises(UnknownField) as info:
            bare.get_field("grain_color")
        assert str(info.value) == "unknown germplasm field 'grain_color'"

    def test_string_equality_matching(self):
        hits = kb.screen_germplasm(FIXTURE, [kb.Criterion("drought", "==", "R")])
        assert [r.variety_name for r in hits] == ["Alpha", "Echo"]

    def test_results_sorted_and_deterministic(self):
        criteria = [kb.Criterion("plant_height", "<=", 200.0)]
        a = kb.screen_germplasm(reversed(FIXTURE), criteria)
        b = kb.screen_germplasm(FIXTURE, criteria)
        assert [r.variety_name for r in a] == [r.variety_name for r in b]
        assert [r.variety_name for r in a] == sorted(r.variety_name for r in FIXTURE)

    def test_criteria_required(self):
        with pytest.raises(InvalidInput):
            kb.screen_germplasm(FIXTURE, [])

    def test_parse_criterion(self):
        c = kb.parse_criterion("plant_height<=80")
        assert (c.field, c.op, c.value) == ("plant_height", "<=", 80.0)
        c = kb.parse_criterion("drought==R")
        assert c.value == "R"
        with pytest.raises(InvalidInput):
            kb.parse_criterion("plant_height")

    @pytest.mark.parametrize("text", ["crude_protein>=nan", "plant_height<inf",
                                      "plant_height>-Infinity", "plant_height<1e999"])
    def test_a_numeric_criterion_value_must_be_finite(self, text):
        with pytest.raises(InvalidInput, match=f"criterion {text!r} compares with a non-finite"):
            kb.parse_criterion(text)


class TestTraitFlags:
    def test_default_thresholds(self):
        flags = kb.trait_flags(FIXTURE[0])  # Alpha
        assert flags == {"HQ": 1, "DS": 1, "DR": 1, "MP": 1, "AM": 1}
        flags = kb.trait_flags(FIXTURE[3])  # Delta
        assert flags == {"HQ": 0, "DS": 0, "DR": 0, "MP": 0, "AM": 0}

    def test_maturity_class_strings(self):
        record = germ("F", maturity="early")
        assert kb.trait_flags(record)["MP"] == 1
        record = germ("G", maturity="late")
        assert kb.trait_flags(record)["MP"] == 0

    def test_ds_needs_one_resistant_disease(self):
        record = germ("H", stripe="R", leaf="S", mildew="R")
        assert kb.trait_flags(record)["DS"] == 1


class TestQueryPrice:
    FIXTURE = [
        price("Miyun District", "2024-06-01"),
        price("Miyun District", "2024-07-10", variety="Jingdong 22", value=140.0),
        price("Chengdu", "2024-07-24", variety="Kechengmai 4", value=25.0, spec=2.5),
    ]

    def test_exact_match(self):
        hits = kb.query_price(self.FIXTURE, "Miyun District", "2024-06-01")
        assert len(hits) == 1
        record = hits[0]
        assert record.variety_name == "Nongda 3486"
        assert record.price == 150.0
        assert record.specification == 25.0

    def test_nearest_within_window(self):
        hits = kb.query_price(self.FIXTURE, "Miyun District", "2024-06-15")
        assert len(hits) == 1
        assert hits[0].date.isoformat() == "2024-06-01"  # 14-day gap beats 25

    def test_outside_window_is_not_found(self):
        assert kb.query_price(self.FIXTURE, "Miyun District", "2024-09-30") == []

    def test_unknown_point_is_not_found(self):
        assert kb.query_price(self.FIXTURE, "Nowhere", "2024-06-01") == []

    def test_tie_breaks_to_earlier_date(self):
        records = [
            price("P", "2024-06-01", variety="A", value=100.0),
            price("P", "2024-06-11", variety="B", value=120.0),
        ]
        hits = kb.query_price(records, "P", "2024-06-06")  # 5 days either way
        assert [r.variety_name for r in hits] == ["A"]

    def test_variety_filter(self):
        hits = kb.query_price(self.FIXTURE, "Miyun District", "2024-07-01",
                              variety="Jingdong 22")
        assert len(hits) == 1 and hits[0].price == 140.0

    def test_never_returns_other_points(self):
        rng = np.random.default_rng(2)
        points = ["P1", "P2", "P3"]
        records = [
            price(points[int(rng.integers(0, 3))], f"2024-0{int(rng.integers(1, 10))}-15",
                  variety=f"v{i}")
            for i in range(30)
        ]
        for point in points:
            for month in range(1, 10):
                hits = kb.query_price(records, point, f"2024-0{month}-01")
                assert all(r.observation_point == point for r in hits)

    def test_repeat_queries_identical(self):
        a = kb.query_price(self.FIXTURE, "Miyun District", "2024-06-01")
        b = kb.query_price(self.FIXTURE, "Miyun District", "2024-06-01")
        assert a == b

    def test_bad_date(self):
        with pytest.raises(InvalidInput):
            kb.query_price(self.FIXTURE, "Miyun District", "last tuesday")

    # Python 3.11's date.fromisoformat takes these, 3.10's does not
    @pytest.mark.parametrize("date", ["20240601", "2024-W22-6", "2024-6-1", " 2024-06-01"])
    def test_date_must_be_spelled_yyyy_mm_dd(self, date):
        with pytest.raises(InvalidInput) as info:
            kb.query_price(self.FIXTURE, "Miyun District", date)
        assert str(info.value) == f"unparseable ISO date: {date!r}"


class TestLoaders:
    def test_germplasm_csv(self, tmp_path):
        path = tmp_path / "germplasm.csv"
        path.write_text(
            "variety_name,origin,crude_protein,lysine,sedimentation_value,"
            "stripe_rust,leaf_rust,powdery_mildew,drought,cold,"
            "maturity,plant_height,thousand_grain_weight,grain_hardness\n"
            "Alpha,China,15.2,0.42,35,R,MR,S,R,MR,195,75,42,hard\n"
            "Bravo,Japan,,,,,,,,,early,92,,\n"
        )
        records = kb.load_germplasm(path)
        assert records[0].quality["crude_protein"] == 15.2
        assert records[0].resistance["stripe_rust"] == "R"
        assert records[0].agronomic["grain_hardness"] == "hard"
        assert records[1].agronomic["maturity"] == "early"
        assert "crude_protein" not in records[1].quality

    def test_prices_csv(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text(
            "observation_point,variety_name,price,specification,planting_area,date\n"
            "Miyun District,Nongda 3486,150,25,Beijing,2024-06-01\n"
        )
        records = kb.load_prices(path)
        assert records[0].price == 150.0
        assert records[0].date == datetime.date(2024, 6, 1)

    def test_prices_csv_rejects_bad_row(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text(
            "observation_point,variety_name,price,specification,planting_area,date\n"
            "Miyun District,Nongda 3486,-3,25,Beijing,2024-06-01\n"
        )
        with pytest.raises(ParseError):
            kb.load_prices(path)
