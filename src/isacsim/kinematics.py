"""Human motion synthesis: per-primitive trajectories, distances and gains.

A subject is a cloud of 16 ellipsoidal primitives (head, neck, two torso
segments, and three segments per limb).  The torso translates rigidly at
the commanded speed while limbs swing sinusoidally at the gait frequency

    f_g = speed / (1.346 * sqrt(height))    [cycles/s]

with arms in anti-phase to the ipsilateral leg.  Standing is walking at
speed 0, and pacing is walking folded back at the ends of a segment.  The
model is deterministic: identical specs yield identical tracks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifest import write_csv
from .validation import as_float_array, check_heading

SUBJECT_HEIGHTS = {"adult": 1.75, "child": 1.0}
DEFAULT_SPEEDS = {"standing": 0.0, "walking": 1.0, "pacing": 0.5}
MOTION_CLASSES = tuple(DEFAULT_SPEEDS)
DEFAULT_START = (3.0, 4.2, 0.0)  # m, subject start position
DEFAULT_HEADING = (-1.0, 0.0)  # walking direction in the floor plane

GAIT_FREQ_COEFF = 1.346  # f_g = speed / (GAIT_FREQ_COEFF * sqrt(height))

# Segment geometry as fractions of body height. Stations give the vertical
# positions of fixed primitives and joints; lengths are segment lengths.
_STATIONS = {
    "head": 0.93,
    "neck": 0.86,
    "chest": 0.72,
    "abdomen": 0.54,
    "shoulder": 0.81,
    "hip": 0.53,
}
_LATERAL = {"shoulder": 0.129, "hip": 0.060}
_LENGTHS = {
    "upper_arm": 0.186,
    "forearm": 0.145,
    "hand": 0.054,
    "thigh": 0.245,
    "shank": 0.246,
    "foot_forward": 0.060,
    "foot_drop": 0.020,
}

# Swing amplitudes (rad) per 1 m/s of speed, and fixed joint offsets (rad).
_THIGH_SWING_PER_MPS = 0.30
_SHANK_SWING_RATIO = 1.25  # shank amplitude relative to thigh amplitude
_SHANK_PHASE_LAG = 0.50  # rad, shank swing lags the thigh swing
_ARM_SWING_RATIO = 0.60  # arm amplitude relative to thigh amplitude
_ELBOW_FLEX = 0.35  # rad, constant elbow flexion

# Ellipsoid semi-axes in metres for a 1.75 m subject, in the body frame
# (forward, lateral, vertical); scaled linearly with height.  Each limb part
# exists on the left and on the right side.
_REFERENCE_HEIGHT = 1.75
_TORSO_AXES = {
    "head": (0.080, 0.080, 0.110),
    "neck": (0.055, 0.055, 0.045),
    "chest": (0.110, 0.150, 0.250),
    "abdomen": (0.100, 0.140, 0.150),
}
_LIMB_AXES = {
    "upper_arm": (0.045, 0.045, 0.140),
    "lower_arm": (0.040, 0.040, 0.130),
    "hand": (0.035, 0.040, 0.090),
    "upper_leg": (0.070, 0.070, 0.220),
    "lower_leg": (0.050, 0.050, 0.200),
    "foot": (0.120, 0.040, 0.035),
}

# The torso, then each limb part left and right; _AXES (B, 3) is aligned.
PRIMITIVE_NAMES = (
    *_TORSO_AXES,
    *(f"{part}_{side}" for part in _LIMB_AXES for side in "lr"),
)
_AXES = np.concatenate(
    [list(_TORSO_AXES.values()), np.repeat(list(_LIMB_AXES.values()), 2, axis=0)]
)


def gait_frequency(speed: float, height: float) -> float:
    """Gait (limb swing) frequency in cycles per second."""
    if height <= 0:
        raise ValueError(f"height must be positive, got {height!r}")
    return abs(speed) / (GAIT_FREQ_COEFF * math.sqrt(height))


@dataclass(frozen=True)
class MotionSpec:
    """A single human motion sample.

    The speed is the class default (standing 0, walking 1.0, pacing
    0.5 m/s).  A pacing segment is half the distance covered in
    ``duration``, i.e. one out-and-back lap; other segments are infinite.
    The start position (x, y, z), heading (x, y) and duration must be
    finite, and the heading's ``np.linalg.norm`` positive and finite.
    """

    motion_class: str
    subject: str = "adult"
    start_position: tuple[float, float, float] = DEFAULT_START
    heading: tuple[float, float] = DEFAULT_HEADING
    duration: float = 3.0

    def __post_init__(self):
        if self.motion_class not in MOTION_CLASSES:
            raise ValueError(
                f"motion_class: unknown class {self.motion_class!r}; "
                f"choose from {MOTION_CLASSES}"
            )
        if self.subject not in SUBJECT_HEIGHTS:
            raise ValueError(
                f"subject: unknown subject {self.subject!r}; "
                f"choose from {tuple(SUBJECT_HEIGHTS)}"
            )
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration: must be positive and finite, got {self.duration!r}")
        for name, size in (("start_position", 3), ("heading", 2)):
            value = getattr(self, name)
            if np.shape(value) != (size,) or not all(map(math.isfinite, value)):
                raise ValueError(f"{name}: must be {size} finite numbers, got {value!r}")
        check_heading("heading", self.heading)  # synthesize_tracks divides by its norm

    @property
    def height(self) -> float:
        return SUBJECT_HEIGHTS[self.subject]

    @property
    def effective_speed(self) -> float:
        return DEFAULT_SPEEDS[self.motion_class]

    @property
    def effective_segment(self) -> float:
        if self.motion_class != "pacing":
            return math.inf
        return max(self.effective_speed * self.duration / 2.0, 1e-6)


@dataclass
class PrimitiveTracks:
    """Sampled primitive trajectories on a slow-time grid.

    positions has shape (B, T, 3); distances and gains have shape (B, T).
    ``v_max`` bounds the speed of any primitive (torso speed plus limb
    swing), so consecutive samples satisfy |dp| <= v_max * dt.
    """

    names: tuple[str, ...]
    times: np.ndarray
    positions: np.ndarray
    distances: np.ndarray
    gains: np.ndarray
    v_max: float
    spec: MotionSpec

    @property
    def num_primitives(self) -> int:
        return self.positions.shape[0]

    def to_csv(self, path):
        """Export as CSV with header ``t_s,b,x_m,y_m,z_m,D_m,G``; returns the path."""
        rows = (
            (t, b, *self.positions[b, i], self.distances[b, i], self.gains[b, i])
            for b in range(self.num_primitives)
            for i, t in enumerate(self.times)
        )
        return write_csv(path, ("t_s", "b", "x_m", "y_m", "z_m", "D_m", "G"), rows)


def ellipsoid_rcs(semi_axes, direction) -> float | np.ndarray:
    """Monostatic radar cross section of an ellipsoid.

    For semi-axes (a, b, c) and a unit aspect direction u in the ellipsoid
    principal frame:

        rcs = pi a^2 b^2 c^2 / (a^2 u_x^2 + b^2 u_y^2 + c^2 u_z^2)^2

    which reduces to ``pi r^2`` for a sphere and to
    ``pi (b c)^2 / a^2`` when viewed along the ``a`` axis.

    ``semi_axes`` (..., 3) and ``direction`` (..., 3) may carry leading
    batch dimensions that broadcast against each other; directions are
    normalized internally.
    """
    s = np.asarray(semi_axes, dtype=float)
    if s.shape[-1:] != (3,) or not np.all(s > 0):
        raise ValueError(f"semi_axes: expected positive (..., 3) values, got {semi_axes!r}")
    u = np.asarray(direction, dtype=float)
    return _rcs(*np.moveaxis(s, -1, 0), *np.moveaxis(u, -1, 0))


def _rcs(a, b, c, ux, uy, uz):
    """:func:`ellipsoid_rcs` on the components of positive semi-axes and a
    direction, each broadcasting against the others."""
    # The order np.linalg.norm(axis=-1) sums a (..., 3) vector in.
    norm = np.sqrt((ux * ux + uy * uy) + uz * uz)
    if np.any(norm == 0):
        raise ValueError("direction: zero vector")
    # np.square, not ** 2: a numpy scalar's ** 2 calls pow(), which can round
    # differently from x * x, and a batched call must equal the single calls.
    denom = (
        np.square(a * (ux / norm)) + np.square(b * (uy / norm)) + np.square(c * (uz / norm))
    )
    return math.pi * np.square(a * b * c) / np.square(denom)


def _body_origin(spec: MotionSpec, h: np.ndarray, t: np.ndarray):
    """Ground-plane origin (T, 2) of the body and signed travel direction (T,).

    One rule for every class: the body covers ``effective_speed * t`` along
    the unit heading ``h`` (so standing stays at the start), and pacing
    folds it at ``effective_segment``, facing back on the return leg.
    """
    dist = spec.effective_speed * t
    sign = np.ones(t.size)
    if spec.motion_class == "pacing":
        seg = spec.effective_segment
        phase = np.mod(dist, 2.0 * seg)
        dist = np.where(phase <= seg, phase, 2.0 * seg - phase)
        sign = np.where(phase <= seg, 1.0, -1.0)
    return np.asarray(spec.start_position[:2], dtype=float) + dist[:, None] * h, sign


def _limb_dir(theta: np.ndarray, length: float) -> tuple[np.ndarray, np.ndarray]:
    """(forward, vertical) components of a pendulum segment of ``length``:
    theta=0 points straight down."""
    return np.sin(theta) * length, -np.cos(theta) * length


def synthesize_tracks(
    spec: MotionSpec,
    radar_position,
    slow_time_grid,
) -> PrimitiveTracks:
    """Generate the 16 primitive tracks of one motion sample.

    Positions are sampled at ``slow_time_grid`` (strictly increasing, in
    seconds).  Gains are the instantaneous ellipsoid cross sections seen
    from the radar; primitive ellipsoid axes remain body-aligned.  Raises
    if the grid is empty or the radar sits inside the subject's bounding
    box at any sample.
    """
    t = as_float_array(slow_time_grid, "slow_time_grid")
    if t.size == 0:
        raise ValueError("slow_time_grid: empty time grid")
    if t.size > 1 and np.any(np.diff(t) <= 0):
        raise ValueError("slow_time_grid: must be strictly increasing")
    radar = as_float_array(radar_position, "radar_position")
    if radar.shape != (3,):
        raise ValueError(f"radar_position: expected 3 coordinates, got {radar.shape}")

    H = spec.height
    speed = spec.effective_speed
    f_g = gait_frequency(speed, H)

    h = np.asarray(spec.heading, dtype=float)
    h = h / np.linalg.norm(h)
    origin, sign = _body_origin(spec, h, t)
    fwd_x, fwd_y = sign * h[0], sign * h[1]  # (T,) facing direction
    lat_x, lat_y = -fwd_y, fwd_x  # left-hand lateral

    phase = 2.0 * math.pi * f_g * t
    amp_thigh = _THIGH_SWING_PER_MPS * speed
    amp_shank = _SHANK_SWING_RATIO * amp_thigh
    amp_arm = _ARM_SWING_RATIO * amp_thigh

    # Both sides at once: row 0 is the left limb, row 1 the right one.
    swing = phase + np.array([[0.0], [math.pi]])  # (2, T)
    side = np.array([[1.0], [-1.0]])  # lateral sign, (2, 1)
    th_thigh = amp_thigh * np.sin(swing)
    th_shank = amp_shank * np.sin(swing - _SHANK_PHASE_LAG)
    th_arm = amp_arm * np.sin(swing + math.pi)
    th_fore = th_arm + _ELBOW_FLEX

    # Legs: hip -> knee -> ankle -> foot.
    th_f, th_z = _limb_dir(th_thigh, _LENGTHS["thigh"] * H)
    sh_f, sh_z = _limb_dir(th_shank, _LENGTHS["shank"] * H)
    hip_z = _STATIONS["hip"] * H
    knee_f, knee_z = th_f, hip_z + th_z
    ankle_f, ankle_z = knee_f + sh_f, knee_z + sh_z
    lat_hip = side * _LATERAL["hip"] * H

    # Arms: shoulder -> elbow -> wrist -> hand.
    ua_f, ua_z = _limb_dir(th_arm, _LENGTHS["upper_arm"] * H)
    fa_f, fa_z = _limb_dir(th_fore, _LENGTHS["forearm"] * H)
    hand_f, hand_z = _limb_dir(th_fore, _LENGTHS["hand"] * H)
    shoulder_z = _STATIONS["shoulder"] * H
    elbow_f, elbow_z = ua_f, shoulder_z + ua_z
    wrist_f, wrist_z = elbow_f + fa_f, elbow_z + fa_z
    lat_sh = side * _LATERAL["shoulder"] * H

    # Body-frame (forward, lateral, vertical) offsets of each limb part, in
    # _LIMB_AXES order; forward and vertical are (2, T), lateral (2, 1).
    limbs = (
        (elbow_f / 2.0, lat_sh, (shoulder_z + elbow_z) / 2.0),
        ((elbow_f + wrist_f) / 2.0, lat_sh, (elbow_z + wrist_z) / 2.0),
        (wrist_f + hand_f, lat_sh, wrist_z + hand_z),
        (knee_f / 2.0, lat_hip, (hip_z + knee_z) / 2.0),
        ((knee_f + ankle_f) / 2.0, lat_hip, (knee_z + ankle_z) / 2.0),
        (ankle_f + _LENGTHS["foot_forward"] * H, lat_hip, ankle_z - _LENGTHS["foot_drop"] * H),
    )
    f_limb, l_limb, z_limb = zip(*limbs)
    torso_z = np.array([[_STATIONS[name] * H] for name in _TORSO_AXES])  # (4, 1)
    forward = np.concatenate([np.zeros((torso_z.size, t.size)), *f_limb])
    lateral = np.concatenate([np.zeros_like(torso_z), *l_limb])
    vertical = np.concatenate([np.repeat(torso_z, t.size, axis=1), *z_limb])

    # World positions as (B, T) components: the ground origin plus the offsets.
    x = origin[:, 0] + (forward * fwd_x + lateral * lat_x)
    y = origin[:, 1] + (forward * fwd_y + lateral * lat_y)
    z = spec.start_position[2] + vertical  # the heading has no vertical part

    lo = np.array([x.min(), y.min(), z.min()]) - 0.05
    hi = np.array([x.max(), y.max(), z.max()]) + 0.05
    if np.all(radar >= lo) and np.all(radar <= hi):
        raise ValueError(
            "radar_position: radar lies inside the subject bounding box "
            f"[{lo}, {hi}]"
        )

    dx, dy, dz = radar[0] - x, radar[1] - y, radar[2] - z
    # The order np.linalg.norm(axis=-1) sums a (..., 3) vector in.
    dist = np.sqrt((dx * dx + dy * dy) + dz * dz)

    # Aspect direction in the body frame (forward, lateral, vertical).
    u_fwd = dx * fwd_x + dy * fwd_y
    u_lat = dx * lat_x + dy * lat_y
    gains = _rcs(*(_AXES.T[:, :, None] * (H / _REFERENCE_HEIGHT)), u_fwd, u_lat, dz)

    omega = 2.0 * math.pi * f_g
    leg_reach = (_LENGTHS["thigh"] + _LENGTHS["shank"] + _LENGTHS["foot_forward"]) * H
    arm_reach = (_LENGTHS["upper_arm"] + _LENGTHS["forearm"] + _LENGTHS["hand"]) * H
    v_limb = omega * max(amp_shank * leg_reach, amp_arm * arm_reach)
    v_max = speed + v_limb + 1e-12

    return PrimitiveTracks(
        names=PRIMITIVE_NAMES,
        times=t,
        positions=np.stack([x, y, z], axis=-1),
        distances=dist,
        gains=gains,
        v_max=v_max,
        spec=spec,
    )
