"""Command-line interface.

Subcommands: ``spectrogram``, ``dataset``, ``calibrate``, ``fit``,
``region``, and ``pipeline`` (dataset -> accuracy-vs-cycles -> fit ->
region in one run).  Each command writes its artifacts into ``--out`` and
returns its input reference, seed and files; :func:`main` then writes the
one manifest.json listing their content hashes, so identical inputs
reproduce identical manifests.

Exit codes: 0 success, 2 usage or configuration error, 3 pipeline
failure, 4 infeasible model or problem.
"""

from __future__ import annotations

import argparse
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .calibration import DEFAULT_SAMPLES_PER_POINT, fit_rho, reference_pmf_from_pgms
from .channel import DEFAULT_RHO, ClutterConfig
from .config import ConfigError, RngStream, load_config, sample_user_gains
from .curvefit import (
    DEFAULT_FIT_SEED,
    FAMILY_NAMES,
    CurveFitError,
    eval_curve,
    get_family,
    make_fit,
    select_model,
)
from .dsp import (
    DEFAULT_DYNAMIC_RANGE_DB,
    DEFAULT_PMF_BINS,
    DEFAULT_STFT_WINDOW,
    DEFAULT_SVD_THRESHOLD,
    write_pgm,
)
from .kinematics import DEFAULT_HEADING, DEFAULT_START, MotionSpec
from .manifest import read_csv, write_csv, write_manifest
from .recognition import (
    CLASS_SETS,
    accuracy_points_from_csv,
    accuracy_points_to_csv,
    accuracy_vs_cycles,
    generate_dataset,
)
from .simulate import simulate_spectrogram
from .tradeoff import (
    DEFAULT_NUM_POINTS,
    DEFAULT_SLOPE_HI,
    DEFAULT_SLOPE_LO,
    InfeasibleError,
    classify_zones,
    gains_from_csv,
    region_boundary,
    zone_bands,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_INFEASIBLE = 4


def _data_path(name: str) -> Path:
    return Path(resources.files("isacsim").joinpath("data", name))


def _input(given, bundled: str) -> tuple[Path, str]:
    """An input file and the name a manifest records; bundled ones by package path."""
    if given is None:
        return _data_path(bundled), f"isacsim/data/{bundled}"
    return Path(given), str(Path(given))


def _load_cfg(args):
    """The config, the name the manifest records, and the run's seed."""
    path, ref = _input(args.config, "default.cfg")
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    cfg = load_config(path)
    return cfg, ref, cfg.seed if args.seed is None else args.seed


def _default_fit_params(family: str) -> list[float]:
    for _, row in read_csv(_data_path("reference_curve_fits.csv")):
        if row["family"] == family:
            keys = ("alpha", "beta", "gamma", "epsilon")
            return [float(row[k]) for k in keys if row[k]]
    raise ConfigError(f"no bundled parameters for family {family!r}")


def _arg_type(convert, what: str):
    """An argparse ``type=``: a value ``convert`` rejects with ValueError
    exits 2 with a message naming the flag and ``what`` it must be."""

    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}") from None

    return parse


def _positive(value):
    if not 0 < value < math.inf:
        raise ValueError(value)
    return value


def _finite(value):
    if not math.isfinite(value):
        raise ValueError(value)
    return value


def _unit(value):
    if not 0.0 <= value <= 1.0:
        raise ValueError(value)
    return value


_positive_int = _arg_type(lambda t: _positive(int(t)), "a positive integer")
_unit_float = _arg_type(lambda t: _unit(float(t)), "a number in [0, 1]")


def _motion_from_args(args, duration: float) -> MotionSpec:
    return MotionSpec(
        motion_class=args.motion,
        subject=args.subject,
        duration=duration,
        start_position=tuple(args.start),
        heading=tuple(args.heading),
    )


def cmd_spectrogram(args, out: Path):
    cfg, cfg_ref, seed = _load_cfg(args)
    clutter = ClutterConfig()
    duration = args.cycles * cfg.pri
    motion = _motion_from_args(args, duration)
    rng = RngStream(seed, "spectrogram")
    result = simulate_spectrogram(
        cfg,
        motion,
        args.cycles,
        rng,
        clutter=clutter,
        rho=args.rho,
        svd_threshold=args.svd_threshold,
        stft_window=args.stft_window,
        dynamic_range_db=args.dynamic_range_db,
        pmf_bins=args.pmf_bins,
    )
    pgm = out / "spectrogram.pgm"
    write_pgm(pgm, result.gray)
    files = [pgm]
    if args.z_csv:
        # A lossy dump of the dB matrix, not a table: no header, six digits.
        z = out / "zmatrix.csv"
        db = 20.0 * np.log10(np.maximum(result.spectrogram.values, 1e-300))
        np.savetxt(z, db, fmt="%.6e", delimiter=",")
        files.append(z)
    if args.tracks_csv:
        files.append(result.tracks.to_csv(out / "tracks.csv"))
    print(f"wrote {pgm} ({result.gray.shape[1]}x{result.gray.shape[0]})")
    return cfg_ref, seed, files


def cmd_dataset(args, out: Path):
    cfg, cfg_ref, seed = _load_cfg(args)
    clutter = ClutterConfig()
    rng = RngStream(seed, "dataset")
    ds = generate_dataset(
        cfg,
        clutter,
        args.classes,
        args.n_per_class,
        args.cycles,
        args.rho,
        rng,
        stft_window=args.stft_window,
        threads=args.threads,
    )
    files = ds.save(out)
    print(f"wrote {len(ds)} samples ({ds.num_classes} classes) to {out}")
    return cfg_ref, seed, files


def cmd_calibrate(args, out: Path):
    cfg, cfg_ref, seed = _load_cfg(args)
    reference = reference_pmf_from_pgms(args.reference, bins=args.pmf_bins)
    clutter = ClutterConfig()
    duration = args.cycles * cfg.pri
    motion = _motion_from_args(args, duration)

    def simulate_pmf(rho, rng):
        return simulate_spectrogram(
            cfg,
            motion,
            args.cycles,
            rng,
            clutter=clutter,
            rho=rho,
            stft_window=args.stft_window,
            pmf_bins=args.pmf_bins,
        ).pmf

    grid = np.arange(args.grid_start, args.grid_stop + args.grid_step / 2, args.grid_step)
    grid = np.clip(grid, 0.0, 1.0)
    rng = RngStream(seed, "calibrate")
    fit = fit_rho(reference, simulate_pmf, grid, rng, args.samples_per_point)
    print(f"rho_star = {fit.rho}")
    return cfg_ref, seed, [fit.to_csv(out / "rho_kl.csv")]


def cmd_fit(args, out: Path):
    points_path, points_ref = _input(args.points, "reference_accuracy_points.csv")
    cycles, acc = accuracy_points_from_csv(points_path)
    selection = select_model(cycles, acc, args.families, seed=args.seed)
    fits_csv = selection.to_csv(out / "fits.csv")
    grid = np.linspace(cycles.min(), cycles.max(), 200)
    curve = ((c, eval_curve(selection.best, c)) for c in grid)
    curve_csv = write_csv(out / "curve_best.csv", ("C", "A"), curve)
    print("family ranking by SSR:")
    for f in selection.fits:
        params = ", ".join(f"{n}={v:.6g}" for n, v in zip(f.param_names, f.params))
        print(f"  {f.family}: ssr={f.ssr:.6g} ({params})")
    for name, reason in selection.failures.items():
        print(f"  {name}: FAILED ({reason})")
    return points_ref, args.seed, [fits_csv, curve_csv]


def cmd_region(args, out: Path):
    if args.slope_lo > args.slope_hi:
        raise ConfigError(
            f"--slope-lo {args.slope_lo!r} exceeds --slope-hi {args.slope_hi!r}"
        )
    cfg, cfg_ref, seed = _load_cfg(args)
    fit = make_fit(args.family, args.params or _default_fit_params(args.family))
    if args.gains:
        gains = gains_from_csv(args.gains)
    else:
        gains = sample_user_gains(cfg, RngStream(seed, "gains"))
    boundary = region_boundary(fit, gains, cfg, num_points=args.num_points)
    classify_zones(boundary, slope_hi=args.slope_hi, slope_lo=args.slope_lo)
    csv_path = boundary.to_csv(out / "boundary.csv")
    a = boundary.accuracies
    for zone, first, last in zone_bands(boundary):
        print(f"{zone}: A in [{a[first]:.4f}, {a[last]:.4f}], {last - first + 1} points")
    return cfg_ref, seed, [csv_path]


def _usable(fit) -> bool:
    """Whether an increasing fit rises measurably between C=2 and C=1e6,
    both ends moved inside the fit's domain."""
    lo, hi = fit.domain
    c_lo = max(lo * (1 + 1e-9), 2.0)
    c_hi = min(hi * (1 - 1e-9), 1e6)
    if not fit.increasing or c_lo >= c_hi:
        return False
    span = eval_curve(fit, c_hi) - eval_curve(fit, c_lo)
    return np.isfinite(span) and span > 1e-6


def cmd_pipeline(args, out: Path):
    cfg, cfg_ref, seed = _load_cfg(args)
    clutter = ClutterConfig()
    rng = RngStream(seed, "pipeline")

    points = accuracy_vs_cycles(
        cfg,
        clutter,
        args.classes,
        args.cycles_list,
        rng,
        n_train=args.n_train,
        n_test=args.n_test,
        rho=args.rho,
        stft_window=args.stft_window,
        threads=args.threads,
    )
    acc_csv = accuracy_points_to_csv(points, out / "accuracy.csv")

    cycles = np.asarray([p.cycles for p in points], float)
    acc = np.asarray([p.accuracy for p in points])
    selection = select_model(cycles, acc, seed=seed)
    fits_csv = selection.to_csv(out / "fits.csv")

    best = next((f for f in selection.fits if _usable(f)), None)
    if best is None:
        # Degenerate measured points (e.g. saturated accuracy at desk
        # scale): trace the region with the bundled reference curve.
        best = make_fit("pow3", _default_fit_params("pow3"))
        print("measured fit degenerate; using the bundled pow3 reference curve")
    gains = sample_user_gains(cfg, RngStream(seed, "gains"))
    boundary = region_boundary(best, gains, cfg, num_points=args.num_points)
    classify_zones(boundary)
    boundary_csv = boundary.to_csv(out / "boundary.csv")

    print(f"accuracy points: {[(p.cycles, p.accuracy) for p in points]}")
    print(f"best increasing fit: {best.family} (ssr={best.ssr:.6g})")
    print(f"boundary: {len(boundary)} points, zones "
          f"{[z for z, _, _ in zone_bands(boundary)]}")
    return cfg_ref, seed, [acc_csv, fits_csv, boundary_csv]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isacsim",
        description="FMCW micro-Doppler sensing simulator and "
        "accuracy-rate tradeoff toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, threads=False):
        p.add_argument("--config", help="config file (default: bundled default.cfg)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory")
        if threads:
            p.add_argument("--threads", type=_positive_int, default=1,
                           help="worker threads for sample generation")

    def motion_args(p):
        p.add_argument("--motion", default="walking",
                       choices=("standing", "walking", "pacing"))
        p.add_argument("--subject", default="adult", choices=("adult", "child"))
        p.add_argument("--start", type=float, nargs=3, default=DEFAULT_START,
                       metavar=("X", "Y", "Z"))
        p.add_argument("--heading", type=float, nargs=2, default=DEFAULT_HEADING,
                       metavar=("HX", "HY"))

    p = sub.add_parser("spectrogram", help="simulate one motion spectrogram")
    common(p)
    motion_args(p)
    p.add_argument("--cycles", type=_positive_int, default=3000)
    p.add_argument("--rho", type=_unit_float, default=DEFAULT_RHO)
    p.add_argument("--svd-threshold", type=int, default=DEFAULT_SVD_THRESHOLD)
    p.add_argument("--stft-window", type=int, default=DEFAULT_STFT_WINDOW)
    p.add_argument("--dynamic-range-db", type=float, default=DEFAULT_DYNAMIC_RANGE_DB)
    p.add_argument("--pmf-bins", type=int, default=DEFAULT_PMF_BINS)
    p.add_argument("--z-csv", action="store_true", help="also dump the dB matrix")
    p.add_argument("--tracks-csv", action="store_true", help="also dump the tracks")
    p.set_defaults(func=cmd_spectrogram)

    p = sub.add_parser("dataset", help="generate a labeled spectrogram dataset")
    common(p, threads=True)
    p.add_argument("--classes", default="motions3", choices=tuple(CLASS_SETS))
    p.add_argument("--n-per-class", type=_positive_int, default=10)
    p.add_argument("--cycles", type=_positive_int, default=512)
    p.add_argument("--rho", type=_unit_float, default=DEFAULT_RHO)
    p.add_argument("--stft-window", type=int, default=DEFAULT_STFT_WINDOW)
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("calibrate", help="fit the clutter evolution rate to a reference")
    common(p)
    motion_args(p)
    p.add_argument("--reference", required=True,
                   help="reference spectrogram PGM file or directory")
    p.add_argument("--grid-start", type=float, default=0.99)
    p.add_argument("--grid-stop", type=float, default=1.0)
    p.add_argument("--grid-step", default=0.001,
                   type=_arg_type(lambda t: _positive(float(t)), "a positive number"))
    p.add_argument("--samples-per-point", type=_positive_int,
                   default=DEFAULT_SAMPLES_PER_POINT)
    p.add_argument("--cycles", type=_positive_int, default=1000)
    p.add_argument("--stft-window", type=int, default=DEFAULT_STFT_WINDOW)
    p.add_argument("--pmf-bins", type=int, default=DEFAULT_PMF_BINS)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("fit", help="fit learning-curve families to accuracy points")
    p.add_argument("--points", help="C,A csv (default: bundled benchmark points)")
    p.add_argument("--families", help="comma list (default: all seven)",
                   type=_arg_type(lambda t: [get_family(tok).name for tok in t.split(",")],
                                  f"a comma list of curve families {FAMILY_NAMES}"))
    p.add_argument("--seed", type=int, default=DEFAULT_FIT_SEED)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("region", help="trace the accuracy-rate boundary and zones")
    common(p)
    p.add_argument("--family", default="pow3", choices=FAMILY_NAMES)
    p.add_argument("--params", help="comma list (default: bundled fit parameters)",
                   type=_arg_type(lambda t: [_finite(float(tok)) for tok in t.split(",")],
                                  "a comma list of finite numbers"))
    p.add_argument("--gains", help="per-user gains CSV (default: sample from config)")
    p.add_argument("--num-points", type=_positive_int, default=DEFAULT_NUM_POINTS)
    p.add_argument("--slope-hi", type=float, default=DEFAULT_SLOPE_HI)
    p.add_argument("--slope-lo", type=float, default=DEFAULT_SLOPE_LO)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser(
        "pipeline",
        help="desk-scale end-to-end run: dataset, accuracy curve, fit, region",
    )
    common(p, threads=True)
    p.add_argument("--classes", default="motions3", choices=tuple(CLASS_SETS))
    p.add_argument("--n-train", type=_positive_int, default=8)
    p.add_argument("--n-test", type=_positive_int, default=4)
    p.add_argument("--cycles-list", default="64,128,256,384",
                   type=_arg_type(lambda t: [_positive(int(tok)) for tok in t.split(",")],
                                  "a comma list of positive integers"))
    p.add_argument("--rho", type=_unit_float, default=DEFAULT_RHO)
    p.add_argument("--stft-window", type=int, default=32)
    p.add_argument("--num-points", type=_positive_int, default=120)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        ref, seed, files = args.func(args, out)
        write_manifest(out, args.command, ref, seed, files)
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleError, CurveFitError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as exc:  # pipeline failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
