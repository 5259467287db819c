import json
import os

import numpy as np
import pytest

from breedkit import _io, bench, cli, fusion, geodata, kb, structural
from breedkit.errors import ParseError

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "breedkit")

# each loader with a header that lacks one of its required columns
SHORT_HEADERS = [
    (geodata.load_plots, "plot_id,germplasm_id,vertex_index,x"),
    (structural.load_head_counts, "plot_id,image_id"),
    (cli._load_measurements, "plot,SPAD"),
    (fusion.load_feature_records, "plot_id,germplasm_id,site"),
    (fusion.load_weather, "site,date,t_mean,dew_point,precip,net_radiation"),
    (kb.load_germplasm, "name,origin"),
    (kb.load_prices, "observation_point,variety_name,price,specification,planting_area"),
    (bench.load_trials, "model_id,task,subtask,question_id"),
    (bench.load_ballots, "test_id,model_id,axis"),
]


@pytest.mark.parametrize("loader, header", SHORT_HEADERS,
                         ids=[f"{f.__module__}.{f.__name__}" for f, _ in SHORT_HEADERS])
def test_missing_required_column_is_a_parse_error_at_line_1(loader, header, tmp_path):
    path = tmp_path / "table.csv"
    n_columns = header.count(",") + 1
    path.write_text(header + "\n" + ",".join(["1"] * n_columns) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        loader(path)
    assert info.value.line == 1
    assert str(path) in str(info.value)


def test_only_the_io_module_reads_and_writes_tables_and_json():
    offenders = []
    for name in sorted(os.listdir(SRC_DIR)):
        if not name.endswith(".py") or name == "_io.py":
            continue
        with open(os.path.join(SRC_DIR, name), encoding="utf-8") as fh:
            text = fh.read()
        offenders += [f"{name}: {call}" for call in ("csv.DictReader(", "csv.writer(", "json.dump(")
                      if call in text]
    assert offenders == []


# each loader with a full header and one complete data row
FULL_ROWS = [
    (geodata.load_plots, "plot_id,germplasm_id,vertex_index,x,y", "p1,g1,0,0.0,1.0", ParseError),
    (structural.load_head_counts, "plot_id,image_id,count", "p1,img1,12", ParseError),
    (cli._load_measurements, "plot_id,SPAD,LAI", "p1,40.5,3.2", None),
    (fusion.load_feature_records, "plot_id,germplasm_id,date,site", "p1,g1,2024-06-01,s1", None),
    (fusion.load_weather, "site,date,t_mean,dew_point,precip,net_radiation,wind_speed",
     "s1,2024-06-01,18.5,9.0,0.0,12.1,2.5", ParseError),
    (kb.load_germplasm, "variety_name,origin,plant_height", "Alpha,CN,80", None),
    (kb.load_prices, "observation_point,variety_name,price,specification,planting_area,date",
     "Miyun,N,150,50,large,2024-06-01", ParseError),
    (bench.load_trials, ",".join(bench.TRIAL_CSV_COLUMNS),
     "m1,phenotyping_estimation,Yield,q1,0,4008.2,,,4000.0,,consistency,1", None),
    (bench.load_ballots, "test_id,model_id,score", "t1,m1,1", ParseError),
]


@pytest.mark.parametrize("loader, header, row, error", FULL_ROWS,
                         ids=[f"{f.__module__}.{f.__name__}" for f, *_ in FULL_ROWS])
def test_row_missing_its_last_cell_loads_or_is_a_parse_error(loader, header, row, error, tmp_path):
    short = tmp_path / "short.csv"
    short.write_text(f"{header}\n{row.rsplit(',', 1)[0]}\n", encoding="utf-8")
    if error is not None:
        with pytest.raises(error) as info:
            loader(short)
        assert info.value.line == 2
        return
    # a missing cell reads as a blank one
    blank = tmp_path / "blank.csv"
    blank.write_text(f"{header}\n{row.rsplit(',', 1)[0]},\n", encoding="utf-8")
    assert loader(short) == loader(blank)


def test_rows_are_numbered_by_physical_line(tmp_path):
    path = tmp_path / "heads.csv"
    path.write_text('plot_id,image_id,count\np1,"img\n1",3\n\np1,img2,x\n', encoding="utf-8")
    assert [line for line, _ in _io.csv_rows(path, ())][:1] == [3]
    with pytest.raises(ParseError) as info:
        structural.load_head_counts(path)
    assert info.value.line == 5


class TestAtomicWrites:
    def rows_failing_after(self, n):
        for i in range(n):
            yield [i, repr(float(i))]
        raise RuntimeError("row source failed")

    def test_failed_csv_write_leaves_no_file(self, tmp_path):
        with pytest.raises(RuntimeError):
            _io.write_csv(tmp_path / "out.csv", ("a", "b"), self.rows_failing_after(5000))
        assert os.listdir(tmp_path) == []

    def test_failed_write_keeps_the_previous_artifact(self, tmp_path):
        path = tmp_path / "out.csv"
        _io.write_csv(path, ("a", "b"), [[1, 2]])
        with pytest.raises(RuntimeError):
            _io.write_csv(path, ("a", "b"), self.rows_failing_after(5000))
        assert os.listdir(tmp_path) == ["out.csv"]
        assert path.read_text(encoding="utf-8") == "a,b\n1,2\n"

    def test_failed_json_write_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            _io.write_json(tmp_path / "out.json", {"a": list(range(5000)), "b": object()})
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("write", [geodata.write_raster, geodata.write_point_cloud])
    def test_failed_grid_and_cloud_writes_leave_no_file(self, write, tmp_path):
        with pytest.raises(AttributeError):
            write(None, tmp_path / "out.txt")  # fails once the output file is open
        assert os.listdir(tmp_path) == []

    def test_written_artifacts_are_complete(self, tmp_path):
        _io.write_json(tmp_path / "out.json", {"b": 1, "a": [1.5]})
        assert json.loads((tmp_path / "out.json").read_text(encoding="utf-8")) == {"a": [1.5], "b": 1}
        assert os.listdir(tmp_path) == ["out.json"]
