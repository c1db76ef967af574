import re

import numpy as np
import pytest

from isacsim.manifest import read_csv, read_floats, write_csv


def test_write_csv_formats_each_cell_type(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        ("f64", "i64", "float", "none", "str"),
        [(np.float64(0.001), np.int64(7), 2.5, None, "walking"),
         (np.float64(1e16), np.int64(-3), 0.1 + 0.2, None, "a b")],
    )
    assert path.read_text(encoding="utf-8") == (
        "f64,i64,float,none,str\n"
        "0.001,7,2.5,,walking\n"
        "1e+16,-3,0.30000000000000004,,a b\n"
    )


def test_write_csv_numbers_round_trip(tmp_path):
    values = np.random.default_rng(0).standard_normal(50) * 1e3
    path = write_csv(tmp_path / "v.csv", ("v",), ((v,) for v in values))
    back = [float(row["v"]) for _, row in read_csv(path)]
    assert back == values.tolist()


def test_read_csv_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text(
        "# leading comment\n"
        "C,A  # header comment\n"
        "   # indented comment\n"
        "\n"
        "200,0.788\n"
        "300,0.902   # inline comment\n",
        encoding="utf-8",
    )
    assert read_csv(path) == [
        (5, {"C": "200", "A": "0.788"}),
        (6, {"C": "300", "A": "0.902"}),
    ]


def test_write_csv_formats_header_cells_like_rows(tmp_path):
    path = write_csv(tmp_path / "z.csv", ("f_hz", 0.1 + 0.2, np.float64(1e16)), [(1.0, 2.0, 3.0)])
    assert path.read_text(encoding="utf-8").splitlines()[0] == "f_hz,0.30000000000000004,1e+16"


def test_read_floats_parses_named_columns_only(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("name,x,y\nfirst,1.5,-2\n# skipped\nsecond,1e-300,3\n", encoding="utf-8")
    assert read_floats(path, ("y", "x")) == [(2, (-2.0, 1.5)), (4, (3.0, 1e-300))]


@pytest.mark.parametrize("text, message", [
    ("x\n1\n", "2: missing column 'y'"),
    ("x,y\n1,2\n1,\n", "3: y: not a number: ''"),
    ("x,y\n1,-inf\n", "2: y: not a finite number: '-inf'"),
])
def test_read_floats_names_line_and_column(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{message}')}$"):
        read_floats(path, ("x", "y"))
