"""Metamorphic properties checked over generated inputs (Hypothesis).

Runs are derandomized and small, so the suite stays deterministic and
fast; each property states an invariant that holds for every input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from isacsim import (
    ClutterConfig,
    ClutterProcess,
    MotionSpec,
    RngStream,
    SystemConfig,
    fit_curve,
    optimal_allocation,
    to_gray,
)
from isacsim.channel import draw_primitive_phases
from isacsim.curvefit import get_family
from isacsim.dsp import dechirp_and_collapse, svd_denoise, synthesize_chirp
from isacsim.kinematics import PrimitiveTracks, synthesize_tracks
from isacsim.simulate import synthesize_received_matrix

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)

DESK = SystemConfig(
    carrier_freq=2.4e10, bandwidth=2.0e6, sample_rate=2.0e6,
    sweep_time=1.0e-5, slot_time=5.0e-5, pri=1.0e-3,
    tx_power=1.0, noise_power=1.0e-13, total_time=1.0,
    num_users=5, user_pathloss=(1.0e-5,) * 5,
)

unit = st.floats(-1.0, 1.0)


@st.composite
def clutter_taps(draw):
    """(amps_a, amps_b, delays) for K taps over C cycles, in the slot."""
    k = draw(st.integers(1, 4))
    c = draw(st.integers(1, 6))
    last = DESK.fast_time_len - 1
    delays = draw(arrays(float, k, elements=st.floats(0.0, last))) / DESK.sample_rate

    def amps():
        re = draw(arrays(float, (k, c), elements=unit))
        im = draw(arrays(float, (k, c), elements=unit))
        return re + 1j * im

    return amps(), amps(), delays


def _received(amps, delays):
    """Noiseless received matrix of clutter taps only (no primitives)."""
    c = amps.shape[1]
    tracks = PrimitiveTracks(
        names=(), times=np.arange(c) * DESK.pri, positions=np.zeros((0, c, 3)),
        distances=np.zeros((0, c)), gains=np.zeros((0, c)), v_max=1.0,
        spec=MotionSpec("standing", "adult", duration=1.0),
    )
    return synthesize_received_matrix(DESK, tracks, np.zeros(0), amps, delays, None)


@PROPERTY
@given(clutter_taps(), unit, unit)
def test_received_matrix_linear_in_tap_amplitudes(taps, a, b):
    amps_a, amps_b, delays = taps
    mixed = _received(a * amps_a + b * amps_b, delays)
    parts = a * _received(amps_a, delays) + b * _received(amps_b, delays)
    scale = np.abs(amps_a).sum() + np.abs(amps_b).sum()
    assert np.allclose(mixed, parts, rtol=0.0, atol=1e-12 * scale)


@PROPERTY
@given(
    arrays(float, st.tuples(st.integers(1, 8), st.integers(1, 8)),
           elements=st.floats(0.0, 1e6)),
    st.integers(-30, 30),
    st.floats(1.0, 120.0),
)
def test_to_gray_invariant_under_power_of_two_scaling(z, k, dynamic_range_db):
    # z / peak is exact under a power-of-two scale, so no level can flip.
    z[0, 0] = max(z[0, 0], 1.0)  # at least one positive magnitude
    assert np.array_equal(to_gray(z, dynamic_range_db),
                          to_gray(z * 2.0**k, dynamic_range_db))


@PROPERTY
@given(
    arrays(float, DESK.num_users, elements=st.floats(1e-12, 1e-3)),
    st.integers(0, 15_000),
)
def test_optimal_allocation_equal_rates_full_budget(gains, cycles):
    result = optimal_allocation(cycles, gains, DESK)
    snr = gains * DESK.tx_power / DESK.noise_power
    rates = result.times / DESK.total_time * DESK.bandwidth * np.log2(1.0 + snr)
    assert np.allclose(rates, result.rate, rtol=1e-12, atol=0.0)
    sensing = DESK.num_targets * DESK.slot_time * cycles
    assert result.times.sum() + sensing == pytest.approx(DESK.total_time, rel=1e-12)


@PROPERTY
@given(
    st.sampled_from(("adult", "child")),
    st.floats(0.5, 2.5),
    st.floats(2.0, 4.0),
    st.integers(0, 2**32 - 1),
    st.integers(8, 64),
)
def test_static_scene_leaves_no_slow_time_signal(subject, x, y, seed, cycles):
    # A standing subject and frozen clutter (rho=1) repeat the same column
    # every cycle, so X has rank one and removing its strongest component
    # leaves nothing to dechirp.
    rng = RngStream(seed, "static")
    clutter = ClutterConfig()
    motion = MotionSpec("standing", subject, start_position=(x, y, 0.0))
    tracks = synthesize_tracks(motion, clutter.radar_position,
                               np.arange(cycles) * DESK.pri)
    process = ClutterProcess(clutter, DESK, rng.spawn("clutter"), 1.0)
    x_mat = synthesize_received_matrix(
        DESK, tracks, draw_primitive_phases(16, rng.spawn("phases")),
        process.run(cycles), process.delays, None,
    )
    slow = dechirp_and_collapse(svd_denoise(x_mat, 2), synthesize_chirp(DESK))
    assert np.linalg.norm(slow) <= 1e-9 * np.linalg.norm(x_mat)


PLANTED = {  # family -> parameter ranges inside its bounds and domain (C >= 2)
    "vapor_pressure": ((-1.0, 0.5), (-300.0, 0.0)),
    "log_log_linear": ((0.1, 5.0), (0.5, 5.0)),
    "ilog2": ((0.1, 5.0), (0.5, 2.0)),
}


@PROPERTY
@given(
    st.sampled_from(sorted(PLANTED)),
    st.data(),
    st.lists(st.integers(2, 4000), min_size=3, max_size=8, unique=True),
)
def test_fit_curve_recovers_planted_curve(family, data, cycles):
    # The first start of these families is a linear least-squares solve
    # that is exact on noiseless points, so one start suffices.
    params = [data.draw(st.floats(lo, hi)) for lo, hi in PLANTED[family]]
    c = np.sort(np.asarray(cycles, dtype=float))
    a = get_family(family).evaluate(params, c)
    fit = fit_curve(c, a, family, n_starts=1)
    assert fit.ssr <= 1e-20
