import json
from pathlib import Path

import pytest

import isacsim
from isacsim.cli import _usable, build_parser, main
from isacsim.curvefit import make_fit
from isacsim.dsp import read_pgm
from isacsim.manifest import read_manifest

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


def manifest_of(out_dir):
    return (out_dir / "manifest.json").read_text()


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
        ],
    )
    def test_malformed_value_exits_2_naming_its_flag(self, cmd, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(cmd + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        manifest = read_manifest(out / "manifest.json")
        names = {a["file"] for a in manifest.artifacts}
        assert names == {"spectrogram.pgm", "zmatrix.csv", "tracks.csv"}
        assert_numeric_cells(out / "tracks.csv")

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
        bad.write_text("carrier_freq_hz = fast\n")
        code = main(["spectrogram", "--config", str(bad), "--out",
                     str(tmp_path / "o")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        code = main(["spectrogram", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == 2


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

    def test_malformed_gain_exit_3(self, tmp_path, capsys):
        gains = tmp_path / "gains.csv"
        gains.write_text("gain\n1e-5\nabc\n")
        code = main(["region", "--gains", str(gains), "--out", str(tmp_path / "r")])
        assert code == 3
        assert f"error: {gains}:3: not a number: 'abc'" in capsys.readouterr().err

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
