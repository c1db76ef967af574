"""FMCW micro-Doppler sensing simulator and accuracy-rate tradeoff toolkit."""

from .calibration import RhoFit, fit_rho, kl_divergence
from .channel import ClutterConfig, ClutterProcess
from .config import (
    ConfigError,
    RngStream,
    SPEED_OF_LIGHT,
    SystemConfig,
    load_config,
    sample_user_gains,
)
from .curvefit import (
    CurveFit,
    CurveFitError,
    FAMILY_NAMES,
    eval_curve,
    fit_curve,
    invert_curve,
    make_fit,
    select_model,
)
from .dsp import (
    Spectrogram,
    dechirp,
    dechirp_and_collapse,
    gray_pmf,
    read_pgm,
    stft,
    svd_denoise,
    synthesize_chirp,
    to_gray,
    to_gray_and_pmf,
    write_pgm,
)
from .kinematics import (
    MotionSpec,
    PrimitiveTracks,
    ellipsoid_rcs,
    gait_frequency,
    synthesize_tracks,
)
from .recognition import (
    AccuracyPoint,
    LabeledDataset,
    SpectrogramClassifier,
    accuracy_vs_cycles,
    evaluate_accuracy,
    generate_dataset,
    train_classifier,
)
from .simulate import SpectrogramResult, simulate_spectrogram
from .tradeoff import (
    AllocationResult,
    InfeasibleError,
    RegionBoundary,
    classify_zones,
    optimal_allocation,
    region_boundary,
)

__version__ = "0.1.0"
