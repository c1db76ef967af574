import math

import numpy as np
import pytest

from isacsim import MotionSpec, ellipsoid_rcs, gait_frequency, synthesize_tracks
from isacsim.kinematics import PRIMITIVE_NAMES

RADAR = (1.5, 1.0, 1.0)


def grid(duration, step=1e-3):
    return np.arange(0.0, duration + step / 2, step)


class TestMotionSpec:
    def test_class_defaults(self):
        assert MotionSpec("standing").effective_speed == 0.0
        assert MotionSpec("walking").effective_speed == 1.0
        assert MotionSpec("pacing").effective_speed == 0.5

    def test_unknown_class(self):
        with pytest.raises(ValueError, match="motion_class"):
            MotionSpec("running")


class TestTracks:
    def test_standing_distances_constant(self):
        spec = MotionSpec("standing", "adult", duration=2.0,
                          start_position=(1.5, 4.0, 0.0))
        tracks = synthesize_tracks(spec, RADAR, grid(2.0))
        spread = tracks.distances.max(axis=1) - tracks.distances.min(axis=1)
        assert np.all(spread < 1e-9)

    def test_walking_displacement_exact(self):
        # 3 s at 1 m/s covers exactly 3 m of torso translation.
        spec = MotionSpec("walking", "adult", duration=3.0,
                          start_position=(3.0, 4.2, 0.0), heading=(-1.0, 0.0))
        t = np.linspace(0.0, 3.0, 3001)
        tracks = synthesize_tracks(spec, RADAR, t)
        chest = list(tracks.names).index("chest")
        disp = np.linalg.norm(tracks.positions[chest, -1] - tracks.positions[chest, 0])
        assert disp == pytest.approx(3.0, abs=1e-9)

    def test_foot_oscillates_at_gait_frequency(self):
        # FFT oracle on the generated track: the radial-velocity peak of a
        # foot must sit at the gait frequency within one resolution bin.
        # Walking straight away from the radar keeps the bulk trend linear;
        # a fitted quadratic removes the residual geometric drift.
        spec = MotionSpec("walking", "adult", duration=8.0,
                          start_position=(1.5, 2.5, 0.0), heading=(0.0, 1.0))
        t = grid(8.0)
        tracks = synthesize_tracks(spec, RADAR, t)
        f_g = gait_frequency(1.0, spec.height)
        foot = list(tracks.names).index("foot_l")
        v_rad = np.diff(tracks.distances[foot]) / np.diff(t)
        tm = t[:-1]
        v_rad = v_rad - np.polyval(np.polyfit(tm, v_rad, 2), tm)
        spectrum = np.abs(np.fft.rfft(v_rad, 8 * v_rad.size))
        freqs = np.fft.rfftfreq(8 * v_rad.size, d=t[1] - t[0])
        resolution = 1.0 / (t[-1] - t[0])
        assert abs(freqs[np.argmax(spectrum)] - f_g) <= resolution

    def test_pacing_returns_to_start(self):
        # One out-and-back lap of the torso lands back on the start point;
        # 4 s at 0.5 m/s covers one lap of the default 1 m segment.
        spec = MotionSpec("pacing", "adult", duration=4.0,
                          start_position=(1.0, 3.0, 0.0), heading=(1.0, 0.0))
        assert spec.effective_segment == 1.0
        lap = 2.0 * spec.effective_segment / spec.effective_speed
        t = np.array([0.0, lap / 4, lap / 2, 3 * lap / 4, lap])
        tracks = synthesize_tracks(spec, RADAR, t)
        chest = list(tracks.names).index("chest")
        assert np.linalg.norm(
            tracks.positions[chest, -1] - tracks.positions[chest, 0]
        ) < 1e-6

    def test_speed_bound_holds(self):
        spec = MotionSpec("walking", "adult", duration=2.0,
                          start_position=(1.5, 4.2, 0.0), heading=(0.0, -1.0))
        t = grid(2.0)
        tracks = synthesize_tracks(spec, RADAR, t)
        step = np.linalg.norm(np.diff(tracks.positions, axis=1), axis=-1)
        assert np.all(step <= tracks.v_max * (t[1] - t[0]) + 1e-12)

    def test_refined_grid_interpolates_coarse(self):
        # Halving the slow-time step must stay within v_max * dt/2 of the
        # linear interpolation of the coarse track (spatial consistency).
        spec = MotionSpec("walking", "adult", duration=2.0,
                          start_position=(3.0, 4.2, 0.0), heading=(-1.0, 0.0))
        coarse_t = np.arange(1000) * 2e-3
        fine_t = np.arange(1999) * 1e-3
        coarse = synthesize_tracks(spec, RADAR, coarse_t)
        fine = synthesize_tracks(spec, RADAR, fine_t)
        # Fine sample 2k+1 sits midway between coarse samples k and k+1.
        interp = 0.5 * (coarse.positions[:, :-1] + coarse.positions[:, 1:])
        err = np.linalg.norm(fine.positions[:, 1::2] - interp, axis=-1)
        assert np.all(err <= fine.v_max * 1e-3 / 2 + 1e-12)

    def test_determinism(self):
        spec = MotionSpec("walking", "adult", duration=1.0)
        t = grid(1.0)
        a = synthesize_tracks(spec, RADAR, t)
        b = synthesize_tracks(spec, RADAR, t)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.gains, b.gains)

    def test_radar_inside_subject_rejected(self):
        spec = MotionSpec("standing", "adult", duration=1.0,
                          start_position=(1.5, 1.0, 0.0))
        with pytest.raises(ValueError, match="bounding box"):
            synthesize_tracks(spec, (1.5, 1.0, 1.0), grid(1.0))

    def test_empty_grid_rejected(self):
        spec = MotionSpec("walking", "adult", duration=1.0)
        with pytest.raises(ValueError, match="empty"):
            synthesize_tracks(spec, RADAR, np.array([]))

    def test_sixteen_tracks(self):
        spec = MotionSpec("walking", "adult", duration=1.0)
        tracks = synthesize_tracks(spec, RADAR, grid(1.0))
        assert tracks.num_primitives == 16
        assert tracks.names == PRIMITIVE_NAMES
        assert np.all(tracks.distances > 0)
        assert np.all(tracks.gains > 0)

    def test_sides_in_anti_phase(self):
        # Half a gait period later, each right limb primitive sits where the
        # left one was, mirrored across the sagittal plane (body frame,
        # relative to the chest); left primitives sit on the left-hand side.
        spec = MotionSpec("walking", "adult", duration=3.0, heading=(0.6, -0.8))
        half = 0.5 / gait_frequency(spec.effective_speed, spec.height)
        t0 = np.linspace(0.0, 0.4, 9)
        tracks = synthesize_tracks(spec, RADAR, np.concatenate([t0, t0 + half]))
        fwd = np.array([0.6, -0.8])
        lat = np.array([0.8, 0.6])
        rel = tracks.positions - tracks.positions[PRIMITIVE_NAMES.index("chest")]
        body = np.stack([rel[..., :2] @ fwd, rel[..., :2] @ lat, rel[..., 2]], axis=-1)
        limbs = [n[:-2] for n in PRIMITIVE_NAMES if n.endswith("_l")]
        assert len(limbs) == 6
        for part in limbs:
            left = body[PRIMITIVE_NAMES.index(part + "_l"), : t0.size]
            right = body[PRIMITIVE_NAMES.index(part + "_r"), t0.size :]
            assert np.allclose(right, left * [1.0, -1.0, 1.0], rtol=0, atol=1e-9), part
            assert np.all(left[:, 1] > 0), part

    def test_standing_height_order(self):
        spec = MotionSpec("standing", "adult", duration=1.0,
                          start_position=(1.5, 4.0, 0.0))
        tracks = synthesize_tracks(spec, RADAR, grid(0.1))
        z = dict(zip(tracks.names, tracks.positions[:, 0, 2]))
        assert z["head"] > z["neck"] > z["chest"] > z["abdomen"]
        for side in "lr":
            assert z[f"upper_leg_{side}"] > z[f"lower_leg_{side}"] > z[f"foot_{side}"]
            assert z[f"upper_arm_{side}"] > z[f"lower_arm_{side}"] > z[f"hand_{side}"]

    def test_csv_export(self, tmp_path):
        spec = MotionSpec("standing", "adult", duration=0.01,
                          start_position=(1.5, 4.0, 0.0))
        tracks = synthesize_tracks(spec, RADAR, grid(0.01))
        out = tmp_path / "tracks.csv"
        tracks.to_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "t_s,b,x_m,y_m,z_m,D_m,G"


class TestEllipsoidRcs:
    def test_sphere_aspect_independent(self):
        # Classical sphere cross section pi*r^2 from any direction.
        r = 0.3
        rng = np.random.default_rng(0)
        dirs = rng.normal(size=(100, 3))
        rcs = ellipsoid_rcs((r, r, r), dirs)
        assert np.allclose(rcs, math.pi * r**2, rtol=1e-12)

    def test_principal_axis_closed_form(self):
        a, b, c = 0.11, 0.15, 0.25
        assert ellipsoid_rcs((a, b, c), (1, 0, 0)) == pytest.approx(
            math.pi * (b * c) ** 2 / a**2
        )
        assert ellipsoid_rcs((a, b, c), (0, 1, 0)) == pytest.approx(
            math.pi * (a * c) ** 2 / b**2
        )
        assert ellipsoid_rcs((a, b, c), (0, 0, 1)) == pytest.approx(
            math.pi * (a * b) ** 2 / c**2
        )

    def test_scaling_law(self):
        d = (0.4, 0.25, 0.9)
        base = ellipsoid_rcs((0.1, 0.2, 0.3), d)
        doubled = ellipsoid_rcs((0.2, 0.4, 0.6), d)
        assert doubled == pytest.approx(4.0 * base, rel=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="semi_axes"):
            ellipsoid_rcs((0.0, 0.1, 0.1), (1, 0, 0))

    def test_torso_stronger_than_hand(self):
        # Broadside: the subject faces -x, so the radar looks along its
        # lateral axis.
        spec = MotionSpec("standing", "adult", duration=1.0,
                          start_position=(1.5, 4.0, 0.0))
        tracks = synthesize_tracks(spec, (1.5, 1.0, 1.2), grid(0.1))
        g = dict(zip(tracks.names, tracks.gains[:, 0]))
        assert g["chest"] > g["hand_l"]
        assert g["chest"] > g["hand_r"]

    def test_stacked_semi_axes_equal_single_calls(self):
        rng = np.random.default_rng(3)
        axes = rng.uniform(0.01, 0.5, size=(200, 3))
        dirs = rng.normal(size=(200, 4, 3))
        stacked = ellipsoid_rcs(axes[:, None, :], dirs)
        single = [[ellipsoid_rcs(tuple(a), d) for d in row] for a, row in zip(axes, dirs)]
        assert np.array_equal(stacked, np.array(single))
