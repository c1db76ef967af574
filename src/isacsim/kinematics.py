"""Human motion synthesis: per-primitive trajectories, distanceses and gains.

A subject is a cloud of 16 ellipsoidal primitives (head, neck, two torso
segments, and three segments per limb).  The torso translates rigidly at
the commanded speed while limbs swing sinusoidally at the gait frequency

    f_g = speed / (1.346 * sqrt(height))    [cycles/s]

with arms in anti-phase to the ipsilateral leg.  Pacing subjects reverse
heading at the ends of a straight segment.  The model is deterministic:
identical specs yield identical tracks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .validation import as_float_array

MOTION_CLASSES = ("standing", "walking", "pacing")
SUBJECT_HEIGHTS = {"adult": 1.75, "child": 1.0}
DEFAULT_SPEEDS = {"standing": 0.0, "walking": 1.0, "pacing": 0.5}

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
# (forward, lateral, vertical); scaled linearly with height.
_REFERENCE_HEIGHT = 1.75
_PRIMITIVE_AXES = {
    "head": (0.080, 0.080, 0.110),
    "neck": (0.055, 0.055, 0.045),
    "chest": (0.110, 0.150, 0.250),
    "abdomen": (0.100, 0.140, 0.150),
    "upper_arm": (0.045, 0.045, 0.140),
    "lower_arm": (0.040, 0.040, 0.130),
    "hand": (0.035, 0.040, 0.090),
    "upper_leg": (0.070, 0.070, 0.220),
    "lower_leg": (0.050, 0.050, 0.200),
    "foot": (0.120, 0.040, 0.035),
}

PRIMITIVE_NAMES = (
    "head",
    "neck",
    "chest",
    "abdomen",
    "upper_arm_l",
    "upper_arm_r",
    "lower_arm_l",
    "lower_arm_r",
    "hand_l",
    "hand_r",
    "upper_leg_l",
    "upper_leg_r",
    "lower_leg_l",
    "lower_leg_r",
    "foot_l",
    "foot_r",
)


def gait_frequency(speed: float, height: float) -> float:
    """Gait (limb swing) frequency in cycles per second."""
    if height <= 0:
        raise ValueError(f"height must be positive, got {height!r}")
    if speed == 0:
        return 0.0
    return abs(speed) / (GAIT_FREQ_COEFF * math.sqrt(height))


@dataclass(frozen=True)
class MotionSpec:
    """A single human motion sample.

    ``speed=None`` selects the class default (standing 0, walking 1.0,
    pacing 0.5 m/s).  ``segment_length`` applies to pacing only and
    defaults to half the distance covered in ``duration``, i.e. one
    out-and-back lap.
    """

    motion_class: str
    subject: str = "adult"
    speed: float | None = None
    start_position: tuple[float, float, float] = (3.0, 4.2, 0.0)
    heading: tuple[float, float] = (-1.0, 0.0)
    duration: float = 3.0
    segment_length: float | None = None

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
        if self.duration <= 0:
            raise ValueError(f"duration: must be positive, got {self.duration!r}")
        if self.speed is not None:
            if self.motion_class == "standing" and self.speed != 0.0:
                raise ValueError("speed: standing requires speed 0")
            if self.motion_class != "standing" and self.speed <= 0:
                raise ValueError(f"speed: must be positive, got {self.speed!r}")
        if math.hypot(*self.heading) == 0.0:
            raise ValueError("heading: must be a non-zero direction")
        if self.segment_length is not None and self.segment_length <= 0:
            raise ValueError(f"segment_length: must be positive, got {self.segment_length!r}")

    @property
    def height(self) -> float:
        return SUBJECT_HEIGHTS[self.subject]

    @property
    def effective_speed(self) -> float:
        if self.speed is not None:
            return float(self.speed)
        return DEFAULT_SPEEDS[self.motion_class]

    @property
    def effective_segment(self) -> float:
        if self.motion_class != "pacing":
            return math.inf
        if self.segment_length is not None:
            return float(self.segment_length)
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

    def to_csv(self, path) -> None:
        """Export as CSV with header ``t_s,b,x_m,y_m,z_m,D_m,G``."""
        path = Path(path)
        lines = ["t_s,b,x_m,y_m,z_m,D_m,G"]
        for b in range(self.num_primitives):
            for i, t in enumerate(self.times):
                x, y, z = self.positions[b, i]
                lines.append(
                    f"{t!r},{b},{x!r},{y!r},{z!r},"
                    f"{self.distances[b, i]!r},{self.gains[b, i]!r}"
                )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def ellipsoid_rcs(semi_axes, direction) -> float | np.ndarray:
    """Monostatic radar cross section of an ellipsoid.

    For semi-axes (a, b, c) and a unit aspect direction u in the ellipsoid
    principal frame:

        rcs = pi a^2 b^2 c^2 / (a^2 u_x^2 + b^2 u_y^2 + c^2 u_z^2)^2

    which reduces to ``pi r^2`` for a sphere and to
    ``pi (b c)^2 / a^2`` when viewed along the ``a`` axis.

    ``direction`` may carry leading batch dimensions (..., 3); directions
    are normalized internally.
    """
    a, b, c = (float(s) for s in semi_axes)
    if min(a, b, c) <= 0:
        raise ValueError(f"semi_axes: must all be positive, got {semi_axes!r}")
    u = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(u, axis=-1)
    if np.any(norm == 0):
        raise ValueError("direction: zero vector")
    u = u / norm[..., None]
    denom = (a * u[..., 0]) ** 2 + (b * u[..., 1]) ** 2 + (c * u[..., 2]) ** 2
    return math.pi * (a * b * c) ** 2 / denom**2


def primitive_gain(name: str, direction, height: float = _REFERENCE_HEIGHT):
    """Reflection gain of one named primitive seen from ``direction``."""
    base = name.rsplit("_", 1)[0] if name.endswith(("_l", "_r")) else name
    if base not in _PRIMITIVE_AXES:
        raise ValueError(f"unknown primitive {name!r}")
    scale = height / _REFERENCE_HEIGHT
    axes = tuple(s * scale for s in _PRIMITIVE_AXES[base])
    return ellipsoid_rcs(axes, direction)


def _body_origin(spec: MotionSpec, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ground-plane origin of the body and signed travel direction.

    Returns (origin (T, 3), direction_sign (T,)).  Pacing folds the travel
    distance into a triangle wave and flips the facing direction on the
    return leg.
    """
    speed = spec.effective_speed
    h = np.array([spec.heading[0], spec.heading[1], 0.0])
    h = h / np.linalg.norm(h)
    start = np.asarray(spec.start_position, dtype=float)

    if spec.motion_class == "standing" or speed == 0.0:
        origin = np.broadcast_to(start, (t.size, 3)).copy()
        return origin, np.ones(t.size)

    dist = speed * t
    if spec.motion_class == "pacing":
        seg = spec.effective_segment
        phase = np.mod(dist, 2.0 * seg)
        folded = np.where(phase <= seg, phase, 2.0 * seg - phase)
        sign = np.where(phase <= seg, 1.0, -1.0)
        origin = start[None, :] + folded[:, None] * h[None, :]
        return origin, sign
    origin = start[None, :] + dist[:, None] * h[None, :]
    return origin, np.ones(t.size)


def _limb_dir(theta: np.ndarray) -> np.ndarray:
    """Unit vector of a pendulum segment: theta=0 points straight down.

    Returned in (forward, vertical) components, shape (T, 2).
    """
    return np.stack([np.sin(theta), -np.cos(theta)], axis=-1)


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
    t = as_float_array(slow_time_grid, "slow_time_grid", ndim=1)
    if t.size == 0:
        raise ValueError("slow_time_grid: empty time grid")
    if t.size > 1 and np.any(np.diff(t) <= 0):
        raise ValueError("slow_time_grid: must be strictly increasing")
    radar = as_float_array(radar_position, "radar_position", ndim=1)
    if radar.shape != (3,):
        raise ValueError(f"radar_position: expected 3 coordinates, got {radar.shape}")

    H = spec.height
    speed = spec.effective_speed
    f_g = gait_frequency(speed, H)

    origin, sign = _body_origin(spec, t)
    h2 = np.array([spec.heading[0], spec.heading[1]])
    h2 = h2 / np.linalg.norm(h2)
    fwd = sign[:, None] * h2[None, :]  # (T, 2) facing direction
    lat = np.stack([-fwd[:, 1], fwd[:, 0]], axis=-1)  # left-hand lateral

    phase = 2.0 * math.pi * f_g * t
    amp_thigh = _THIGH_SWING_PER_MPS * speed
    amp_shank = _SHANK_SWING_RATIO * amp_thigh
    amp_arm = _ARM_SWING_RATIO * amp_thigh

    def place(forward_offset, lateral_offset, vertical):
        """World position (T, 3) from body-frame offsets (per-time arrays)."""
        pos = origin.copy()
        pos[:, :2] += forward_offset[:, None] * fwd + lateral_offset[:, None] * lat
        pos[:, 2] += vertical
        return pos

    zeros = np.zeros(t.size)
    positions = {}
    positions["head"] = place(zeros, zeros, np.full(t.size, _STATIONS["head"] * H))
    positions["neck"] = place(zeros, zeros, np.full(t.size, _STATIONS["neck"] * H))
    positions["chest"] = place(zeros, zeros, np.full(t.size, _STATIONS["chest"] * H))
    positions["abdomen"] = place(zeros, zeros, np.full(t.size, _STATIONS["abdomen"] * H))

    for side, side_sign, leg_phase in (("l", +1.0, 0.0), ("r", -1.0, math.pi)):
        th_thigh = amp_thigh * np.sin(phase + leg_phase)
        th_shank = amp_shank * np.sin(phase + leg_phase - _SHANK_PHASE_LAG)
        th_arm = amp_arm * np.sin(phase + leg_phase + math.pi)
        th_fore = th_arm + _ELBOW_FLEX

        lat_hip = np.full(t.size, side_sign * _LATERAL["hip"] * H)
        lat_sh = np.full(t.size, side_sign * _LATERAL["shoulder"] * H)

        # Legs: hip -> knee -> ankle -> foot.
        d_th = _limb_dir(th_thigh) * (_LENGTHS["thigh"] * H)
        d_sh = _limb_dir(th_shank) * (_LENGTHS["shank"] * H)
        hip_z = _STATIONS["hip"] * H
        knee_f, knee_z = d_th[:, 0], hip_z + d_th[:, 1]
        ankle_f, ankle_z = knee_f + d_sh[:, 0], knee_z + d_sh[:, 1]
        positions[f"upper_leg_{side}"] = place(knee_f / 2.0, lat_hip, (hip_z + knee_z) / 2.0)
        positions[f"lower_leg_{side}"] = place(
            (knee_f + ankle_f) / 2.0, lat_hip, (knee_z + ankle_z) / 2.0
        )
        positions[f"foot_{side}"] = place(
            ankle_f + _LENGTHS["foot_forward"] * H,
            lat_hip,
            ankle_z - _LENGTHS["foot_drop"] * H,
        )

        # Arms: shoulder -> elbow -> wrist -> hand.
        d_ua = _limb_dir(th_arm) * (_LENGTHS["upper_arm"] * H)
        d_fa = _limb_dir(th_fore) * (_LENGTHS["forearm"] * H)
        sh_z = _STATIONS["shoulder"] * H
        elbow_f, elbow_z = d_ua[:, 0], sh_z + d_ua[:, 1]
        wrist_f, wrist_z = elbow_f + d_fa[:, 0], elbow_z + d_fa[:, 1]
        d_hand = _limb_dir(th_fore) * (_LENGTHS["hand"] * H)
        positions[f"upper_arm_{side}"] = place(elbow_f / 2.0, lat_sh, (sh_z + elbow_z) / 2.0)
        positions[f"lower_arm_{side}"] = place(
            (elbow_f + wrist_f) / 2.0, lat_sh, (elbow_z + wrist_z) / 2.0
        )
        positions[f"hand_{side}"] = place(
            wrist_f + d_hand[:, 0], lat_sh, wrist_z + d_hand[:, 1]
        )

    pos = np.stack([positions[name] for name in PRIMITIVE_NAMES])  # (B, T, 3)

    lo = pos.min(axis=(0, 1)) - 0.05
    hi = pos.max(axis=(0, 1)) + 0.05
    if np.all(radar >= lo) and np.all(radar <= hi):
        raise ValueError(
            "radar_position: radar lies inside the subject bounding box "
            f"[{lo}, {hi}]"
        )

    delta = radar[None, None, :] - pos  # (B, T, 3)
    dist = np.linalg.norm(delta, axis=-1)

    # Aspect direction in the body frame (forward, lateral, vertical).
    u_fwd = delta[..., 0] * fwd[None, :, 0] + delta[..., 1] * fwd[None, :, 1]
    u_lat = delta[..., 0] * lat[None, :, 0] + delta[..., 1] * lat[None, :, 1]
    aspect = np.stack([u_fwd, u_lat, delta[..., 2]], axis=-1)

    gains = np.empty_like(dist)
    for b, name in enumerate(PRIMITIVE_NAMES):
        gains[b] = primitive_gain(name, aspect[b], H)

    omega = 2.0 * math.pi * f_g
    leg_reach = (_LENGTHS["thigh"] + _LENGTHS["shank"] + _LENGTHS["foot_forward"]) * H
    arm_reach = (_LENGTHS["upper_arm"] + _LENGTHS["forearm"] + _LENGTHS["hand"]) * H
    v_limb = omega * max(amp_shank * leg_reach, amp_arm * arm_reach)
    v_max = speed + v_limb + 1e-12

    return PrimitiveTracks(
        names=PRIMITIVE_NAMES,
        times=t,
        positions=pos,
        distances=dist,
        gains=gains,
        v_max=v_max,
        spec=spec,
    )
