"""Metamorphic properties checked over generated inputs (Hypothesis).

Runs are derandomized and small, so the suite stays deterministic and
fast; each property states an invariant that holds for every input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from isacsim import MotionSpec, SystemConfig, optimal_allocation, to_gray, user_rate
from isacsim.kinematics import PrimitiveTracks
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
        re = draw(arrays(float, (c, k), elements=unit))
        im = draw(arrays(float, (c, k), elements=unit))
        return re + 1j * im

    return amps(), amps(), delays


def _received(amps, delays):
    """Noiseless received matrix of clutter taps only (no primitives)."""
    c = amps.shape[0]
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
    rates = [user_rate(t, g, DESK) for t, g in zip(result.times, gains)]
    assert np.allclose(rates, result.rate, rtol=1e-12, atol=0.0)
    sensing = DESK.num_targets * DESK.slot_time * cycles
    assert result.times.sum() + sensing == pytest.approx(DESK.total_time, rel=1e-12)
