import os

import pytest

from breedkit import bench, cli, fusion, geodata, kb, structural
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
