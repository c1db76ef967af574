import math
import warnings

import numpy as np
import pytest

from isacsim import MotionSpec, ellipsoid_rcs, gait_frequency, synthesize_tracks
from isacsim import kinematics as kin
from isacsim.kinematics import MOTION_CLASSES, PRIMITIVE_NAMES, SUBJECT_HEIGHTS

RADAR = (1.5, 1.0, 1.0)


def grid(duration, step=1e-3):
    return np.arange(0.0, duration + step / 2, step)


def tracks_reference(spec, radar_position, t):
    """Reference: positions, distances and gains from (B, T, 3) arrays.

    The limb offsets are those of ``synthesize_tracks``; the world
    positions, the bounding box, the distances (``np.linalg.norm``) and
    the ellipsoid cross sections are reduced over a trailing axis of 3.
    """
    H, speed = spec.height, spec.effective_speed
    radar = np.asarray(radar_position, dtype=float)
    h2 = np.array(spec.heading) / np.linalg.norm(spec.heading)
    ground, sign = kin._body_origin(spec, h2, t)
    origin = np.column_stack([ground, np.full(t.size, float(spec.start_position[2]))])
    fwd = sign[:, None] * h2[None, :]
    lat = np.stack([-fwd[:, 1], fwd[:, 0]], axis=-1)
    phase = 2.0 * math.pi * gait_frequency(speed, H) * t
    amp_thigh = kin._THIGH_SWING_PER_MPS * speed
    swing = phase + np.array([[0.0], [math.pi]])
    side = np.array([[1.0], [-1.0]])
    th_thigh = amp_thigh * np.sin(swing)
    th_shank = kin._SHANK_SWING_RATIO * amp_thigh * np.sin(swing - kin._SHANK_PHASE_LAG)
    th_arm = kin._ARM_SWING_RATIO * amp_thigh * np.sin(swing + math.pi)
    th_fore = th_arm + kin._ELBOW_FLEX

    def limb(theta, length):
        return np.stack([np.sin(theta), -np.cos(theta)], axis=-1) * (length * H)

    lengths, stations, lateral_of = kin._LENGTHS, kin._STATIONS, kin._LATERAL
    d_th, d_sh = limb(th_thigh, lengths["thigh"]), limb(th_shank, lengths["shank"])
    hip_z = stations["hip"] * H
    knee_f, knee_z = d_th[..., 0], hip_z + d_th[..., 1]
    ankle_f, ankle_z = knee_f + d_sh[..., 0], knee_z + d_sh[..., 1]
    d_ua, d_fa = limb(th_arm, lengths["upper_arm"]), limb(th_fore, lengths["forearm"])
    d_hand = limb(th_fore, lengths["hand"])
    sh_z = stations["shoulder"] * H
    elbow_f, elbow_z = d_ua[..., 0], sh_z + d_ua[..., 1]
    wrist_f, wrist_z = elbow_f + d_fa[..., 0], elbow_z + d_fa[..., 1]
    lat_sh, lat_hip = side * lateral_of["shoulder"] * H, side * lateral_of["hip"] * H
    limbs = (
        (elbow_f / 2.0, lat_sh, (sh_z + elbow_z) / 2.0),
        ((elbow_f + wrist_f) / 2.0, lat_sh, (elbow_z + wrist_z) / 2.0),
        (wrist_f + d_hand[..., 0], lat_sh, wrist_z + d_hand[..., 1]),
        (knee_f / 2.0, lat_hip, (hip_z + knee_z) / 2.0),
        ((knee_f + ankle_f) / 2.0, lat_hip, (knee_z + ankle_z) / 2.0),
        (ankle_f + lengths["foot_forward"] * H, lat_hip, ankle_z - lengths["foot_drop"] * H),
    )
    f_limb, l_limb, z_limb = zip(*limbs)
    torso_z = np.array([[stations[name] * H] for name in kin._TORSO_AXES])
    forward = np.concatenate([np.zeros((torso_z.size, t.size)), *f_limb])
    lateral = np.concatenate([np.zeros_like(torso_z), *l_limb])
    vertical = np.concatenate([np.repeat(torso_z, t.size, axis=1), *z_limb])

    pos = np.repeat(origin[None], len(PRIMITIVE_NAMES), axis=0)
    pos[..., :2] += forward[..., None] * fwd + lateral[..., None] * lat
    pos[..., 2] += vertical
    lo = pos.min(axis=(0, 1)) - 0.05
    hi = pos.max(axis=(0, 1)) + 0.05
    if np.all(radar >= lo) and np.all(radar <= hi):
        raise ValueError(
            "radar_position: radar lies inside the subject bounding box "
            f"[{lo}, {hi}]"
        )
    delta = radar[None, None, :] - pos
    dist = np.linalg.norm(delta, axis=-1)
    u_fwd = delta[..., 0] * fwd[None, :, 0] + delta[..., 1] * fwd[None, :, 1]
    u_lat = delta[..., 0] * lat[None, :, 0] + delta[..., 1] * lat[None, :, 1]
    u = np.stack([u_fwd, u_lat, delta[..., 2]], axis=-1)
    u = u / np.linalg.norm(u, axis=-1)[..., None]
    a, b, c = np.moveaxis(kin._AXES[:, None, :] * (H / kin._REFERENCE_HEIGHT), -1, 0)
    denom = np.square(a * u[..., 0]) + np.square(b * u[..., 1]) + np.square(c * u[..., 2])
    return pos, dist, math.pi * np.square(a * b * c) / np.square(denom)


class TestMotionSpec:
    def test_class_defaults(self):
        assert MotionSpec("standing").effective_speed == 0.0
        assert MotionSpec("walking").effective_speed == 1.0
        assert MotionSpec("pacing").effective_speed == 0.5

    def test_unknown_class(self):
        with pytest.raises(ValueError, match="motion_class"):
            MotionSpec("running")

    @pytest.mark.parametrize("field, value", [
        ("start_position", (math.nan, 4.0, 0.0)),
        ("start_position", (1.0, 4.0, math.inf)),
        ("heading", (math.nan, 1.0)),
        ("heading", (-math.inf, 0.0)),
        ("start_position", (1.0, 2.0)),
        ("start_position", (1.0, 2.0, 0.0, 4.0)),
        ("heading", (1.0, 0.0, 0.0)),
        ("heading", (1.0,)),
        ("duration", math.nan),
        ("duration", math.inf),
        ("duration", 0.0),
    ])
    def test_non_finite_field_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: must be"):
            MotionSpec("walking", **{field: value})

    @pytest.mark.parametrize("heading", [
        (0.0, 0.0), (1e-200, 1e-200), (1e-200, 0.0), (1e200, 1e200), (-1e300, 0.0),
    ])
    def test_heading_norm_must_be_positive_and_finite(self, heading):
        # synthesize_tracks divides by np.linalg.norm, which underflows to 0
        # (NaN positions) or overflows to inf (a walker that never moves).
        with pytest.raises(ValueError, match="^heading: must be a non-zero direction"):
            MotionSpec("walking", heading=heading)

    @pytest.mark.parametrize("heading", [(1e-150, 1e-150), (1e150, -1e150)])
    def test_heading_near_the_norm_limits_walks(self, heading):
        # 3 s at 1 m/s covers 3 m of torso translation, with no warning.
        spec = MotionSpec("walking", start_position=(3.0, 4.2, 0.0), heading=heading)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tracks = synthesize_tracks(spec, RADAR, np.linspace(0.0, 3.0, 301))
        chest = tracks.positions[list(tracks.names).index("chest")]
        assert np.linalg.norm(chest[-1] - chest[0]) == pytest.approx(3.0, abs=1e-9)


class TestBodyOrigin:
    """The one motion rule against closed forms written out here: a start
    of (2, 3), a unit heading of (0.6, -0.8) and a 3 s duration, so pacing
    at 0.5 m/s turns back every 0.75 m, a triangle wave of period 3 s."""

    START = (2.0, 3.0, 0.25)
    HEADING = np.array([0.6, -0.8])
    T = np.linspace(-4.0, 8.0, 1201)  # negative times and four pacing laps

    def origin(self, motion_class, subject):
        spec = MotionSpec(motion_class, subject, start_position=self.START,
                          heading=tuple(self.HEADING), duration=3.0)
        origin, sign = kin._body_origin(spec, self.HEADING, self.T)
        assert origin.shape == (self.T.size, 2)
        return origin, sign

    @pytest.mark.parametrize("subject", sorted(SUBJECT_HEIGHTS))
    def test_standing_stays_at_start(self, subject):
        origin, sign = self.origin("standing", subject)
        assert np.array_equal(origin, np.broadcast_to(self.START[:2], origin.shape))
        assert np.array_equal(sign, np.ones(self.T.size))

    @pytest.mark.parametrize("subject", sorted(SUBJECT_HEIGHTS))
    def test_walking_is_a_straight_line(self, subject):
        origin, sign = self.origin("walking", subject)
        want = np.array(self.START[:2]) + (1.0 * self.T)[:, None] * self.HEADING
        assert np.allclose(origin, want, rtol=0, atol=1e-12)
        assert np.array_equal(sign, np.ones(self.T.size))

    @pytest.mark.parametrize("subject", sorted(SUBJECT_HEIGHTS))
    def test_pacing_is_a_triangle_wave(self, subject):
        origin, sign = self.origin("pacing", subject)
        frac = self.T / 3.0 - np.floor(self.T / 3.0)  # position within a lap
        travel = 0.75 * (1.0 - np.abs(1.0 - 2.0 * frac))
        want = np.array(self.START[:2]) + travel[:, None] * self.HEADING
        assert np.allclose(origin, want, rtol=0, atol=1e-12)
        # Outbound in the first half of each lap; the turns themselves
        # (frac 0 and 1/2) may round either way.
        turning = np.isclose(frac, 0.5, atol=1e-9) | np.isclose(np.abs(frac - 0.5), 0.5, atol=1e-9)
        assert np.array_equal(sign[~turning], np.where(frac < 0.5, 1.0, -1.0)[~turning])
        # Turns at -3, -1.5, 0, 1.5, 3, 4.5, 6 and 7.5 s.
        assert np.count_nonzero(np.diff(sign)) == 8


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

    @pytest.mark.parametrize("cycles", [1, 64, 3000])
    @pytest.mark.parametrize("subject", sorted(SUBJECT_HEIGHTS))
    @pytest.mark.parametrize("motion_class", MOTION_CLASSES)
    def test_component_arrays_equal_the_stacked_reference(self, motion_class, subject, cycles):
        """Byte pin of positions, distances and gains against
        ``tracks_reference``.

        Invariants guarded, each checked layout-free by its own test:

        - the body origin covers the class speed along the heading, folded
          back for pacing (:class:`TestBodyOrigin`);

        - the distances are the ranges |radar - position| of every primitive
          and sample (``test_distances_are_ranges_to_the_radar``);
        - the gains are the ellipsoid RCS of the height-scaled semi-axes
          seen along the body-frame direction to the radar
          (``test_gains_are_the_ellipsoid_rcs_seen_from_the_radar``);
        - half a gait period later each right limb primitive sits where the
          left one was, mirrored (``test_sides_in_anti_phase``);
        - no primitive moves faster than ``v_max`` (``test_speed_bound_holds``)
          and a pacing lap returns to its start
          (``test_pacing_returns_to_start``).
        """
        rng = np.random.default_rng(cycles)
        t = np.arange(cycles) * 1e-3
        for _ in range(4):
            theta = rng.uniform(-math.pi, math.pi)
            spec = MotionSpec(motion_class, subject, duration=max(t[-1], 1e-3),
                              start_position=(rng.uniform(0.4, 2.6), rng.uniform(1.5, 4.1), 0.0),
                              heading=(math.cos(theta), math.sin(theta)))
            got = synthesize_tracks(spec, RADAR, t)
            for name, ref in zip(("positions", "distances", "gains"),
                                 tracks_reference(spec, RADAR, t)):
                assert getattr(got, name).tobytes() == ref.tobytes(), name

    @staticmethod
    def random_tracks(motion_class, subject, seed):
        """Tracks of a randomly placed and headed subject on a random grid."""
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-math.pi, math.pi)
        spec = MotionSpec(motion_class, subject, duration=2.0,
                          start_position=(rng.uniform(0.4, 2.6), rng.uniform(1.5, 4.1), 0.0),
                          heading=(3.0 * math.cos(theta), 3.0 * math.sin(theta)))
        return synthesize_tracks(spec, RADAR, np.sort(rng.uniform(0.0, 2.0, 200)))

    @pytest.mark.parametrize("subject", sorted(SUBJECT_HEIGHTS))
    @pytest.mark.parametrize("motion_class", MOTION_CLASSES)
    def test_distances_are_ranges_to_the_radar(self, motion_class, subject):
        tracks = self.random_tracks(motion_class, subject, 11)
        ranges = np.sqrt(np.sum(np.square(np.subtract(RADAR, tracks.positions)), axis=-1))
        assert tracks.distances.shape == (16, 200)
        assert np.allclose(tracks.distances, ranges, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("subject", sorted(SUBJECT_HEIGHTS))
    @pytest.mark.parametrize("motion_class", MOTION_CLASSES)
    def test_gains_are_the_ellipsoid_rcs_seen_from_the_radar(self, motion_class, subject):
        # The body frame is (forward, left, up); an ellipsoid's RCS is even in
        # each component of the direction, so a pacing subject facing back on
        # its return leg sees the same gains as one facing along the heading.
        tracks = self.random_tracks(motion_class, subject, 12)
        h = np.asarray(tracks.spec.heading) / math.hypot(*tracks.spec.heading)
        to_radar = np.subtract(RADAR, tracks.positions)
        body = np.stack([to_radar[..., :2] @ h, to_radar[..., :2] @ [-h[1], h[0]],
                         to_radar[..., 2]], axis=-1)
        axes = kin._AXES * (tracks.spec.height / kin._REFERENCE_HEIGHT)
        expected = ellipsoid_rcs(axes[:, None, :], body)
        assert tracks.gains.shape == (16, 200)
        assert np.allclose(tracks.gains, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("start", [(1.5, 1.0, 0.0), (2.0, 1.2, 0.0)])
    def test_inside_bounding_box_error_equals_the_reference(self, start):
        spec = MotionSpec("walking", "adult", duration=0.8, start_position=start)
        with pytest.raises(ValueError, match="bounding box") as ref:
            tracks_reference(spec, RADAR, grid(0.8))
        with pytest.raises(ValueError, match="bounding box") as got:
            synthesize_tracks(spec, RADAR, grid(0.8))
        assert str(got.value) == str(ref.value)

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
