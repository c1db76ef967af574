import os

# One BLAS thread, as perfbench/run.py runs: set before numpy is first
# imported (through isacsim below), since OpenBLAS reads it at load time.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from importlib import resources  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from isacsim import (  # noqa: E402
    ClutterConfig,
    MotionSpec,
    RngStream,
    SystemConfig,
    select_model,
)
from isacsim.recognition import accuracy_points_from_csv  # noqa: E402


@pytest.fixture
def base_cfg():
    """Production-scale sub-6 GHz link (500 fast-time samples per slot)."""
    return SystemConfig(
        carrier_freq=3.5e9,
        bandwidth=1.0e7,
        sample_rate=1.0e7,
        sweep_time=1.0e-5,
        slot_time=5.0e-5,
        pri=1.0e-3,
        tx_power=1.0,
        noise_power=1.0e-13,
        total_time=3.0,
        num_users=5,
        user_pathloss=(1.0e-5,) * 5,
    )


@pytest.fixture
def desk_cfg():
    """Small fast-time grid for cheap full-pipeline runs (L=100)."""
    return SystemConfig(
        carrier_freq=2.4e10,
        bandwidth=2.0e6,
        sample_rate=2.0e6,
        sweep_time=1.0e-5,
        slot_time=5.0e-5,
        pri=1.0e-3,
        tx_power=1.0,
        noise_power=1.0e-13,
        total_time=1.0,
        num_users=5,
        user_pathloss=(1.0e-5,) * 5,
    )


@pytest.fixture
def clutter_cfg():
    return ClutterConfig()


@pytest.fixture
def rng():
    return RngStream(1234, "tests")


@pytest.fixture
def walking_radial():
    """Walker approaching the radar head-on (maximal radial Doppler)."""
    return MotionSpec(
        "walking",
        "adult",
        duration=2.5,
        start_position=(1.5, 4.2, 0.0),
        heading=(0.0, -1.0),
    )


@pytest.fixture(scope="session")
def bench_selection():
    """``select_model`` at seed 0 on the bundled accuracy points: the fits
    of perfbench's ``curves_region`` check job."""
    points = resources.files("isacsim").joinpath("data", "reference_accuracy_points.csv")
    return select_model(*accuracy_points_from_csv(points), seed=0)


@pytest.fixture(scope="session")
def curves_region_reference():
    """perfbench's stored ``curves_region`` check outputs, read only."""
    path = Path(__file__).parents[1] / "perfbench" / "reference" / "curves_region.npz"
    with np.load(path) as ref:
        return {name: ref[name] for name in ref.files}
