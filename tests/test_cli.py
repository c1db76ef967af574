import argparse
import json
from pathlib import Path

import numpy as np
import pytest

import isacsim
import isacsim.cli as cli
from isacsim.cli import _usable, build_parser, main
from isacsim.curvefit import make_fit
from isacsim.dsp import read_pgm
from isacsim.kinematics import MOTION_CLASSES, SUBJECT_HEIGHTS
from isacsim.manifest import read_csv

DESK_CFG = """\
carrier_freq_hz = 3.5e9
bandwidth_hz = 1.0e7
sample_rate_hz = 1.0e7
sweep_time_s = 1.0e-5
slot_time_s = 2.0e-5
pri_s = 1.0e-3
tx_power_w = 1.0
noise_power_dbm = -100
sensing_gain_db = 25
comm_gain_db = 0
total_time_s = 1.0
num_targets = 1
num_users = 5
user_pathloss_db = -50,-50,-50,-50,-50
seed = 77
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "desk.cfg"
    path.write_text(DESK_CFG, encoding="utf-8")
    return str(path)


PACKAGE_DIR = str(Path(isacsim.__file__).resolve().parent)
FITS_HEADER = ("family", "param1", "param2", "param3", "param4", "ssr", "ssr_over_q")


def manifest_of(out_dir):
    return (out_dir / "manifest.json").read_text()


def assert_table(path, header, num_rows):
    """``path`` reads back through ``manifest.read_csv``: ``num_rows`` rows,
    each holding every column of ``header`` and no other."""
    rows = read_csv(path)
    assert len(rows) == num_rows
    for _, row in rows:
        assert tuple(row) == tuple(header)
        assert None not in row.values()


def assert_numeric_cells(path, skip_columns=0):
    """Every non-empty cell after the header (and the skipped columns) is a number."""
    for row in path.read_text().splitlines()[1:]:
        for cell in row.split(",")[skip_columns:]:
            if cell:
                float(cell)


class TestHelp:
    @pytest.mark.parametrize(
        "cmd", ["spectrogram", "dataset", "calibrate", "fit", "region", "pipeline"]
    )
    def test_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "cmd", [["spectrogram"], ["calibrate", "--reference", "ref.pgm"], ["region"]]
    )
    def test_threads_rejected_where_unused(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main(cmd + ["--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["dataset", "pipeline"])
    def test_threads_accepted_for_sample_generation(self, cmd):
        assert build_parser().parse_args([cmd, "--threads", "2"]).threads == 2

    @pytest.mark.parametrize(
        "cmd, flag",
        [
            (["calibrate", "--reference", "ref.pgm", "--grid-step", "0"], "--grid-step"),
            (["calibrate", "--reference", "ref.pgm", "--grid-step", "nan"], "--grid-step"),
            (["pipeline", "--cycles-list", "64,abc"], "--cycles-list"),
            (["pipeline", "--cycles-list", "64,-128"], "--cycles-list"),
            (["region", "--params", "1,x,2"], "--params"),
            (["dataset", "--threads", "-2"], "--threads"),
            (["spectrogram", "--cycles", "0"], "--cycles"),
            (["dataset", "--n-per-class", "0"], "--n-per-class"),
            (["pipeline", "--n-train", "-1"], "--n-train"),
            (["pipeline", "--n-test", "0"], "--n-test"),
            (["region", "--num-points", "0"], "--num-points"),
            (["calibrate", "--reference", "ref.pgm", "--samples-per-point", "0"],
             "--samples-per-point"),
            (["dataset", "--cycles", "1.5"], "--cycles"),
            (["region", "--family", "bogus"], "--family"),
            (["region", "--family", "bogus", "--params", "1,2,3"], "--family"),
            (["fit", "--families", "pow3,bogus"], "--families"),
            (["fit", "--families", "bogus"], "--families"),
            (["region", "--params", "nan,1,1"], "--params"),
            (["region", "--params", "1,nan,1"], "--params"),
            (["region", "--params", "inf,1,1"], "--params"),
            (["region", "--params", "1,1,inf"], "--params"),
            (["spectrogram", "--rho", "1.5"], "--rho"),
            (["dataset", "--rho", "-1"], "--rho"),
            (["pipeline", "--rho", "nan"], "--rho"),
            (["spectrogram", "--stft-window", "0"], "--stft-window"),
            (["spectrogram", "--pmf-bins", "1"], "--pmf-bins"),
            (["spectrogram", "--svd-threshold", "0"], "--svd-threshold"),
            (["spectrogram", "--dynamic-range-db", "-5"], "--dynamic-range-db"),
            (["spectrogram", "--dynamic-range-db", "inf"], "--dynamic-range-db"),
            (["dataset", "--stft-window", "0"], "--stft-window"),
            (["calibrate", "--reference", "ref.pgm", "--stft-window", "1"],
             "--stft-window"),
            (["calibrate", "--reference", "ref.pgm", "--pmf-bins", "1"], "--pmf-bins"),
            (["pipeline", "--stft-window", "1"], "--stft-window"),
            (["region", "--num-points", "1"], "--num-points"),
            (["pipeline", "--num-points", "1"], "--num-points"),
            # classify_zones needs tradeoff.MIN_ZONE_POINTS boundary points
            (["region", "--num-points", "2"], "--num-points"),
            (["pipeline", "--num-points", "2"], "--num-points"),
            (["region", "--slope-hi", "nan"], "--slope-hi"),
            (["region", "--slope-lo", "-1"], "--slope-lo"),
            (["calibrate", "--reference", "ref.pgm", "--grid-stop", "1.2",
              "--grid-step", "0.1"], "--grid-stop"),
            (["calibrate", "--reference", "ref.pgm", "--grid-start", "-0.1"],
             "--grid-start"),
            (["spectrogram", "--heading", "nan", "0"], "--heading"),
            (["spectrogram", "--start", "1", "nan", "0"], "--start"),
            (["calibrate", "--reference", "ref.pgm", "--start", "1", "inf", "0"],
             "--start"),
            (["fit", "--families", "pow3,pow3"], "--families"),
            (["pipeline", "--cycles-list", "128,64"], "--cycles-list"),
            (["pipeline", "--cycles-list", "64,64"], "--cycles-list"),
            (["pipeline", "--n-train", "1"], "--n-train"),
            (["spectrogram", "--seed", "-1"], "--seed"),
            (["dataset", "--seed", "18446744073709551616"], "--seed"),
            (["calibrate", "--reference", "ref.pgm", "--seed", "-1"], "--seed"),
            (["region", "--seed", "-1"], "--seed"),
            (["region", "--seed", "18446744073709551616"], "--seed"),
            (["fit", "--seed", "-1"], "--seed"),
            (["pipeline", "--seed", "1.5"], "--seed"),
        ],
    )
    def test_malformed_value_exits_2_naming_its_flag(self, cmd, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(cmd + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "cmd, flag",
        [
            (["fit", "--points", "{tmp}/none.csv"], "--points"),
            (["region", "--gains", "{tmp}/none.csv"], "--gains"),
            (["calibrate", "--reference", "{tmp}/none.pgm"], "--reference"),
            (["spectrogram", "--config", "{tmp}/none.cfg"], "--config"),
            (["pipeline", "--config", "{tmp}/none.cfg"], "--config"),
            (["calibrate", "--reference", "{ref}", "--grid-start", "1.0",
              "--grid-stop", "0.99"], "--grid-start"),
            (["spectrogram", "--cycles", "64"], "--cycles"),
            (["dataset", "--cycles", "64", "--stft-window", "65"], "--cycles"),
            (["calibrate", "--reference", "{ref}", "--cycles", "100"], "--cycles"),
            (["pipeline", "--cycles-list", "16,64,128"], "--cycles-list"),
            # one cycle count fits no curve family; found before any simulation
            (["pipeline", "--cycles-list", "64"], "--cycles-list"),
            (["spectrogram", "--heading", "0", "0"], "--heading"),
            (["region", "--slope-lo", "6"], "--slope-lo"),
            (["region", "--params", "1,2"], "--params"),
            (["region", "--family", "pow4", "--params", "1,2,3"], "--params"),
            (["spectrogram", "--heading", "1e-200", "1e-200"], "--heading"),
            (["spectrogram", "--heading", "1e200", "1e200"], "--heading"),
        ],
    )
    def test_usage_error_exits_2_before_out_exists(self, cmd, flag, tmp_path, capsys):
        ref = tmp_path / "ref.pgm"
        ref.write_bytes(b"")
        cmd = [a.format(tmp=tmp_path, ref=ref) for a in cmd]
        assert main(cmd + ["--out", str(tmp_path / "out")]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_numeric_options_are_range_checked(self):
        # A bare int or float type lets an out-of-range value through to the
        # library, which fails after --out is made.
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        bare = [(cmd, action.option_strings[0])
                for cmd, p in sub.choices.items() for action in p._actions
                if action.type in (int, float)]
        assert bare == []

    def test_motion_choices_come_from_the_kinematics_tables(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        choices = {(action.dest, tuple(action.choices))
                   for p in sub.choices.values() for action in p._actions
                   if action.dest in ("motion", "subject")}
        assert choices == {("motion", MOTION_CLASSES), ("subject", tuple(SUBJECT_HEIGHTS))}
        assert MOTION_CLASSES == ("standing", "walking", "pacing")

    @pytest.mark.parametrize("cmd", ["spectrogram", "region", "fit"])
    def test_seed_range_ends_are_accepted(self, cmd):
        for seed in (0, 2**64 - 1):
            assert build_parser().parse_args([cmd, "--seed", str(seed)]).seed == seed

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


class TestSpectrogram:
    def test_writes_pgm_and_manifest(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        code = main([
            "spectrogram", "--config", cfg_file, "--out", str(out),
            "--cycles", "256", "--stft-window", "64", "--z-csv", "--tracks-csv",
            "--motion", "walking", "--start", "1.5", "4.0", "0.0",
            "--heading", "0", "-1",
        ])
        assert code == 0
        gray = read_pgm(out / "spectrogram.pgm")
        assert gray.shape == (64, 256 - 64 + 1)
        manifest = json.loads(manifest_of(out))
        names = {a["file"] for a in manifest["artifacts"]}
        assert names == {"spectrogram.pgm", "zmatrix.csv", "tracks.csv"}
        assert_numeric_cells(out / "tracks.csv")
        assert_table(out / "tracks.csv", ("t_s", "b", "x_m", "y_m", "z_m", "D_m", "G"),
                     16 * 256)  # one row per primitive and cycle

    def test_zmatrix_reads_back_exact_doubles(self, cfg_file, tmp_path, monkeypatch):
        # A header of frame times, then per frequency (the image's row
        # order) its dB values, each cell the double the matrix holds.
        results = []
        simulate = cli.simulate_spectrogram
        monkeypatch.setattr(cli, "simulate_spectrogram",
                            lambda *a, **k: results.append(simulate(*a, **k)) or results[-1])
        out = tmp_path / "out"
        assert main(["spectrogram", "--config", cfg_file, "--out", str(out),
                     "--cycles", "256", "--stft-window", "64", "--z-csv"]) == 0
        spec = results[0].spectrogram
        header = ("f_hz", *map(repr, spec.times.tolist()))
        assert_table(out / "zmatrix.csv", header, 64)
        rows = [[float(row[key]) for key in header] for _, row in read_csv(out / "zmatrix.csv")]
        db = 20.0 * np.log10(np.maximum(spec.values, 1e-300))
        assert [row[0] for row in rows] == spec.freqs.tolist()
        assert [row[1:] for row in rows] == db.tolist()

    def test_same_seed_same_hashes(self, cfg_file, tmp_path):
        args = ["spectrogram", "--config", cfg_file, "--cycles", "192",
                "--stft-window", "64", "--seed", "5"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        m1 = json.loads(manifest_of(out1))
        m2 = json.loads(manifest_of(out2))
        assert m1["artifacts"] == m2["artifacts"]

    def test_bad_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(DESK_CFG.replace("carrier_freq_hz = 3.5e9", "carrier_freq_hz = fast"))
        code = main(["spectrogram", "--config", str(bad), "--out",
                     str(tmp_path / "d")])
        assert code == 2
        assert "configuration error: carrier_freq_hz: " in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_config_seed_outside_64_bits_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(DESK_CFG.replace("seed = 77", "seed = -1"))
        code = main(["spectrogram", "--config", str(bad), "--out",
                     str(tmp_path / "d")])
        assert code == 2
        assert "configuration error: seed: " in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_missing_config_exit_2(self, tmp_path):
        code = main(["spectrogram", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_radar_inside_a_primitive_exits_3_naming_it(self, cfg_file, tmp_path, capsys):
        # A walk that starts under the radar has its abdomen 0.055 m from it.
        code = main(["spectrogram", "--config", cfg_file, "--out", str(tmp_path / "s"),
                     "--cycles", "256", "--stft-window", "64", "--start", "1.5", "1.0", "0"])
        assert code == 3
        assert ("error: radar_position: radar lies 0.055 m from abdomen at t = 0 s, "
                "inside its 0.15 m bounding sphere\n") in capsys.readouterr().err


class TestDataset:
    def test_writes_samples_and_labels(self, cfg_file, tmp_path):
        out = tmp_path / "ds"
        code = main([
            "dataset", "--config", cfg_file, "--out", str(out),
            "--classes", "motions3", "--n-per-class", "2",
            "--cycles", "128", "--stft-window", "32",
        ])
        assert code == 0
        assert len(list(out.glob("*.pgm"))) == 6
        labels = (out / "labels.csv").read_text().splitlines()
        assert labels[0] == "file,label,C,seed"
        assert len(labels) == 7
        assert_table(out / "labels.csv", ("file", "label", "C", "seed"), 6)

    def test_motion_longer_than_the_room_exits_3_naming_its_cause(self, cfg_file, tmp_path,
                                                                  capsys):
        # At pri 1 ms a walker covers 8 m; no draw can place that on the floor.
        code = main(["dataset", "--config", cfg_file, "--out", str(tmp_path / "ds"),
                     "--cycles", "8000", "--n-per-class", "1"])
        assert code == 3
        assert ("error: cannot place the motion inside the room: adult walking for 8 s "
                "reaches 8 m; the floor inside the 0.4 m wall margins has a 4.305 m "
                "diagonal\n") in capsys.readouterr().err

    def test_paper_dwell_is_placed(self, tmp_path):
        # The bundled config's 3 s dwell at C = 3000. Seed 2 places a diagonal
        # walk whose trajectory box holds the radar, though no primitive nears it.
        out = tmp_path / "ds"
        assert main(["dataset", "--out", str(out), "--cycles", "3000",
                     "--n-per-class", "3", "--seed", "2"]) == 0
        assert_table(out / "labels.csv", ("file", "label", "C", "seed"), 9)


class TestCalibrate:
    def test_self_calibration_smoke(self, cfg_file, tmp_path, capsys):
        # Tiny grid around the generating rate; a smoke-scale version of
        # the full acceptance experiment.
        ref_dir = tmp_path / "ref"
        code = main([
            "dataset", "--config", cfg_file, "--out", str(ref_dir),
            "--classes", "motions3", "--n-per-class", "1",
            "--cycles", "256", "--stft-window", "64", "--rho", "0.997",
        ])
        assert code == 0
        out = tmp_path / "cal"
        code = main([
            "calibrate", "--config", cfg_file, "--out", str(out),
            "--reference", str(ref_dir), "--cycles", "256",
            "--stft-window", "64", "--grid-start", "0.95",
            "--grid-stop", "1.0", "--grid-step", "0.025",
            "--samples-per-point", "2",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "rho_star" in printed
        lines = (out / "rho_kl.csv").read_text().splitlines()
        assert lines[0] == "rho,kl"
        assert len(lines) == 4  # 0.95, 0.975, 1.0
        assert_numeric_cells(out / "rho_kl.csv")
        assert_table(out / "rho_kl.csv", ("rho", "kl"), 3)

    @pytest.mark.parametrize("start, stop, step, rhos", [
        ("0.9", "0.98", "0.03", [0.9, 0.93, 0.9600000000000001]),
        ("0.95", "1.0", "0.03", [0.95, 0.98]),
    ])
    def test_grid_ends_at_or_before_its_stop(self, cfg_file, tmp_path, start, stop,
                                             step, rhos, capsys):
        # np.arange(start, stop + step / 2, step) alone ends at 0.99 and 1.01,
        # past the stop.
        ref_dir = tmp_path / "ref"
        assert main(["dataset", "--config", cfg_file, "--out", str(ref_dir),
                     "--n-per-class", "1", "--cycles", "64", "--stft-window", "32"]) == 0
        out = tmp_path / "cal"
        assert main([
            "calibrate", "--config", cfg_file, "--out", str(out),
            "--reference", str(ref_dir), "--cycles", "64", "--stft-window", "32",
            "--grid-start", start, "--grid-stop", stop, "--grid-step", step,
            "--samples-per-point", "1",
        ]) == 0
        rows = (out / "rho_kl.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == rhos
        assert float(capsys.readouterr().out.split("rho_star = ")[1]) in rhos


class TestFit:
    def test_bundled_points_rank_pow3_top2(self, tmp_path, capsys):
        out = tmp_path / "fit"
        code = main(["fit", "--out", str(out)])
        assert code == 0
        lines = (out / "fits.csv").read_text().splitlines()
        families = [row.split(",")[0] for row in lines[1:]]
        assert "pow3" in families[:2]
        assert_numeric_cells(out / "fits.csv", skip_columns=1)
        assert_numeric_cells(out / "curve_best.csv")
        assert_table(out / "fits.csv", FITS_HEADER, 7)
        assert_table(out / "curve_best.csv", ("C", "A"), 200)
        assert "ranking" in capsys.readouterr().out
        manifest = manifest_of(out)
        assert PACKAGE_DIR not in manifest
        assert json.loads(manifest)["config"] == "isacsim/data/reference_accuracy_points.csv"

    def test_custom_points(self, tmp_path):
        pts = tmp_path / "points.csv"
        pts.write_text("C,A\n100,0.5\n200,0.7\n400,0.8\n800,0.85\n")
        out = tmp_path / "fit"
        assert main(["fit", "--points", str(pts), "--out", str(out),
                     "--families", "pow3,ilog2"]) == 0
        lines = (out / "fits.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_points_with_repeated_cycles_exit_3(self, tmp_path, capsys):
        pts = tmp_path / "points.csv"
        pts.write_text("C,A\n100,0.5\n200,0.7\n100,0.6\n")
        assert main(["fit", "--points", str(pts), "--out", str(tmp_path / "fit")]) == 3
        assert f"error: {pts}:4: C: repeats line 2's 100.0" in capsys.readouterr().err

    def test_points_with_non_positive_cycles_exit_3(self, tmp_path, capsys):
        # A bad point is the caller's error, named once, not "infeasible".
        pts = tmp_path / "points.csv"
        pts.write_text("C,A\n-100,0.5\n200,0.7\n400,0.8\n800,0.85\n")
        assert main(["fit", "--points", str(pts), "--out", str(tmp_path / "fit")]) == 3
        assert capsys.readouterr().err == "error: cycles must be positive\n"

    @pytest.mark.parametrize("row", ["nan,0.6", "300,inf", "300,1e400"])
    def test_points_with_non_finite_cell_exit_3(self, tmp_path, capsys, row):
        pts = tmp_path / "points.csv"
        pts.write_text(f"C,A\n100,0.5\n200,0.7\n{row}\n400,0.8\n")
        assert main(["fit", "--points", str(pts), "--out", str(tmp_path / "fit")]) == 3
        column = "C" if row.startswith("nan") else "A"
        assert f"error: {pts}:4: {column}: not a finite number" in capsys.readouterr().err

    def test_points_without_accuracy_column_exit_3(self, tmp_path, capsys):
        pts = tmp_path / "points.csv"
        pts.write_text("C,B\n100,0.5\n200,0.7\n")
        assert main(["fit", "--points", str(pts), "--out", str(tmp_path / "fit")]) == 3
        assert f"error: {pts}:2: missing column 'A'" in capsys.readouterr().err


class TestRegion:
    def test_boundary_csv_with_three_zones(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "region"
        code = main([
            "region", "--config", cfg_file, "--out", str(out),
            "--num-points", "300", "--seed", "3",
        ])
        assert code == 0
        lines = (out / "boundary.csv").read_text().splitlines()
        assert lines[0] == "C,A,R_bps,zone"
        assert_table(out / "boundary.csv", ("C", "A", "R_bps", "zone"), 300)
        zones = [row.split(",")[3] for row in lines[1:]]
        bands = [zones[0]]
        for z in zones[1:]:
            if z != bands[-1]:
                bands.append(z)
        assert bands == ["comm_saturation", "adversarial", "sensing_saturation"]
        # Crossed zone thresholds are a configuration error naming both flags.
        code = main(["region", "--config", cfg_file, "--out", str(out),
                     "--slope-lo", "6"])
        assert code == 2
        assert "--slope-lo 6.0 exceeds --slope-hi 5.0" in capsys.readouterr().err

    def test_bundled_config_named_by_package_path(self, tmp_path):
        out = tmp_path / "region"
        assert main(["region", "--out", str(out), "--num-points", "50"]) == 0
        manifest = manifest_of(out)
        assert PACKAGE_DIR not in manifest
        assert json.loads(manifest)["config"] == "isacsim/data/default.cfg"

    def test_saturating_fit_exit_4(self, tmp_path, capsys):
        code = main(["region", "--params", "51.18,19.01,0.9375", "--out",
                     str(tmp_path / "r")])
        assert code == 4
        assert "fitted curve saturates" in capsys.readouterr().err

    def test_fit_domain_ending_below_budget_exit_4(self, tmp_path, capsys):
        code = main(["region", "--family", "pow4", "--params=-1,1000,1,0.5",
                     "--out", str(tmp_path / "r")])
        assert code == 4
        err = capsys.readouterr().err
        assert "feasible cycle range [999, 999]" in err
        assert "must be positive" not in err

    @pytest.mark.parametrize("args", [
        ["--family", "pow4", "--params=-1,-5,1,0.5"],
        ["--family", "pow4", "--params=0,0,1,0.5"],
        ["--family", "log_log_linear", "--params=-1,-800"],
    ])
    def test_empty_domain_exit_4(self, tmp_path, capsys, args):
        code = main(["region", *args, "--out", str(tmp_path / "r")])
        assert code == 4
        assert f"{args[1]}: empty domain" in capsys.readouterr().err

    def test_malformed_gain_exit_3(self, tmp_path, capsys):
        gains = tmp_path / "gains.csv"
        gains.write_text("gain\n1e-5\nabc\n")
        code = main(["region", "--gains", str(gains), "--out", str(tmp_path / "r")])
        assert code == 3
        assert f"error: {gains}:3: gain: not a number: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("gain\n1e-5\nnan\n", ":3: gain: not a finite number: 'nan'"),
        ("1e-5\n2e-5\n", ":2: missing column 'gain'"),  # no header line
        ("gain\n1e-5\ngain\n2e-5\n", ":3: gain: not a number: 'gain'"),
    ], ids=["nan", "headerless", "mid-file-header"])
    def test_gains_cell_rule_exit_3(self, tmp_path, capsys, text, message):
        gains = tmp_path / "gains.csv"
        gains.write_text(text)
        code = main(["region", "--gains", str(gains), "--out", str(tmp_path / "r")])
        assert code == 3
        assert f"error: {gains}{message}" in capsys.readouterr().err

    def test_infeasible_exit_4(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(DESK_CFG.replace("total_time_s = 1.0",
                                        "total_time_s = 1.0e-3"))
        code = main(["region", "--config", str(cfg), "--out",
                     str(tmp_path / "r")])
        assert code == 4
        assert "infeasible" in capsys.readouterr().err


class TestPipeline:
    def test_usable_probes_inside_a_bounded_domain(self):
        # Increasing on its domain (0, 1000): the probe may not reach 1e6.
        assert _usable(make_fit("pow4", (-1.0, 1000.0, 1.0, 0.5)))
        assert not _usable(make_fit("pow4", (1.0, 1.0, 0.9, 0.5)))  # decreasing

    def test_runs_and_reproduces_manifest(self, cfg_file, tmp_path):
        args = [
            "pipeline", "--config", cfg_file, "--seed", "9",
            "--classes", "motions3", "--n-train", "4", "--n-test", "2",
            "--cycles-list", "64,96", "--stft-window", "32",
            "--num-points", "60",
        ]
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        m1 = json.loads(manifest_of(out1))
        m2 = json.loads(manifest_of(out2))
        assert m1["artifacts"] == m2["artifacts"]
        assert {a["file"] for a in m1["artifacts"]} == {
            "accuracy.csv", "fits.csv", "boundary.csv"
        }
        assert_table(out1 / "accuracy.csv", ("C", "A", "n_test"), 2)
        # Two points fit the three two-parameter families only.
        assert_table(out1 / "fits.csv", FITS_HEADER, 3)
        assert_table(out1 / "boundary.csv", ("C", "A", "R_bps", "zone"), 60)
