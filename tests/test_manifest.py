import numpy as np

from isacsim.manifest import read_csv, write_csv


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
    back = [float(row["v"]) for row in read_csv(path)]
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
    assert read_csv(path) == [{"C": "200", "A": "0.788"}, {"C": "300", "A": "0.902"}]
