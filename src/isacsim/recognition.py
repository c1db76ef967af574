"""Motion recognition: dataset generation, classifier, accuracy-vs-cycles.

The classifier is deliberately lightweight: spectrogram images are block
averaged onto a fixed grid and classified with a multinomial logistic
model trained by full-batch gradient descent.  Its purpose is to expose
the learning-curve phenomenon (accuracy rising with the cycle count), not
to match the absolute accuracy of a deep network.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import DEFAULT_RHO, ClutterConfig
from .config import RngStream, SystemConfig
from .dsp import DEFAULT_STFT_WINDOW, write_pgm
from .kinematics import MotionSpec
from .manifest import read_csv, write_csv
from .simulate import simulate_spectrogram

# Class presets: name -> list of (label, candidate (subject, motion) pairs).
# When a label lists several candidates, the subject is drawn per sample.
CLASS_SETS: dict[str, list[tuple[str, list[tuple[str, str]]]]] = {
    "motions3": [
        ("standing", [("adult", "standing")]),
        ("walking", [("adult", "walking")]),
        ("pacing", [("adult", "pacing")]),
    ],
    "motions5": [
        ("standing", [("adult", "standing"), ("child", "standing")]),
        ("child_walking", [("child", "walking")]),
        ("child_pacing", [("child", "pacing")]),
        ("adult_walking", [("adult", "walking")]),
        ("adult_pacing", [("adult", "pacing")]),
    ],
}


@dataclass
class LabeledDataset:
    """Gray-scale spectrograms with integer labels."""

    grays: np.ndarray  # (n, F, T) uint8
    labels: np.ndarray  # (n,) int
    class_names: tuple[str, ...]
    cycles: int
    seed: int

    def __post_init__(self):
        if self.grays.ndim != 3:
            raise ValueError(f"grays: expected (n, F, T), got {self.grays.shape}")
        if self.labels.shape != (self.grays.shape[0],):
            raise ValueError("labels: one label per spectrogram required")

    def __len__(self) -> int:
        return self.grays.shape[0]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def save(self, out_dir) -> list[Path]:
        """Write PGM files plus ``labels.csv`` (file,label,C,seed)."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        names = [f"sample_{i:05d}.pgm" for i in range(len(self))]
        for name, gray in zip(names, self.grays):
            write_pgm(out / name, gray)
        rows = ((n, lab, self.cycles, self.seed) for n, lab in zip(names, self.labels))
        labels = write_csv(out / "labels.csv", ("file", "label", "C", "seed"), rows)
        return [out / name for name in names] + [labels]


_MARGIN = 0.4  # m, kept between a sampled trajectory and the walls
_RADAR_CLEARANCE = 0.8  # m, least distance from a sampled trajectory to the radar


def _segment_point_distance(ax, ay, bx, by, px, py) -> float:
    """Distance from point (px, py) to the segment (a, b)."""
    abx, aby = bx - ax, by - ay
    norm2 = abx * abx + aby * aby
    if norm2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * abx + (py - ay) * aby) / norm2))
    return math.hypot(px - (ax + t * abx), py - (ay + t * aby))


def _sample_motion(
    subject: str,
    motion_class: str,
    room: tuple[float, float, float],
    radar_position,
    duration: float,
    rng: RngStream,
    min_radial_fraction: float = 0.0,
) -> MotionSpec:
    """Random placement keeping the trajectory inside the room and clear
    of the radar.

    ``min_radial_fraction`` > 0 additionally requires the heading to have
    at least that cosine along the line of sight, restricting samples to
    subjects crossing the sensing beam radially (useful at desk scale,
    where a purely tangential walker is indistinguishable from a slower
    radial one).
    """
    lx, ly, _ = room
    rx, ry = radar_position[0], radar_position[1]
    for _ in range(500):
        x = rng.uniform(_MARGIN, lx - _MARGIN)
        y = rng.uniform(_MARGIN, ly - _MARGIN)
        theta = rng.uniform(-math.pi, math.pi)
        heading = (math.cos(theta), math.sin(theta))
        spec = MotionSpec(
            motion_class=motion_class,
            subject=subject,
            start_position=(x, y, 0.0),
            heading=heading,
            duration=duration,
        )
        reach = spec.effective_speed * duration
        if spec.motion_class == "pacing":
            reach = spec.effective_segment
        end_x = x + heading[0] * reach
        end_y = y + heading[1] * reach
        if not (_MARGIN <= end_x <= lx - _MARGIN and _MARGIN <= end_y <= ly - _MARGIN):
            continue
        if _segment_point_distance(x, y, end_x, end_y, rx, ry) < _RADAR_CLEARANCE:
            continue
        if min_radial_fraction > 0.0 and spec.motion_class != "standing":
            # The clearance test above keeps the start >= 0.8 m from the radar.
            to_radar = np.array([rx - x, ry - y])
            norm = np.linalg.norm(to_radar)
            cosine = abs(heading[0] * to_radar[0] + heading[1] * to_radar[1]) / norm
            if cosine < min_radial_fraction:
                continue
        return spec
    raise RuntimeError("could not place the motion inside the room")


def generate_dataset(
    cfg: SystemConfig,
    clutter: ClutterConfig,
    class_set,
    n_per_class: int,
    cycles: int,
    rho: float,
    rng: RngStream,
    *,
    stft_window: int = DEFAULT_STFT_WINDOW,
    threads: int = 1,
    min_radial_fraction: float = 0.0,
) -> LabeledDataset:
    """Full-pipeline labeled spectrograms, ``n_per_class`` per class.

    ``class_set`` is a preset name from :data:`CLASS_SETS` or a list in
    the same format.  Start positions and headings are randomized inside
    the room; clutter and noise are fresh per sample.  The samples are
    mapped over ``threads`` worker threads and come back in job order,
    so the output is deterministic for a given ``rng`` regardless of
    ``threads``.
    """
    classes = CLASS_SETS[class_set] if isinstance(class_set, str) else list(class_set)
    if n_per_class < 1:
        raise ValueError(f"n_per_class must be >= 1, got {n_per_class}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    duration = cycles * cfg.pri

    jobs = []
    for label, candidates in enumerate(classes):
        _, pairs = candidates
        class_rng = rng.spawn(f"class{label}")
        for s in range(n_per_class):
            jobs.append((label, pairs, class_rng.spawn(f"sample{s}")))

    def run(job):
        label, pairs, sample_rng = job
        subject, motion_class = pairs[
            int(sample_rng.spawn("subject").integers(0, len(pairs)))
        ]
        spec = _sample_motion(
            subject,
            motion_class,
            clutter.room,
            clutter.radar_position,
            duration,
            sample_rng.spawn("place"),
            min_radial_fraction=min_radial_fraction,
        )
        result = simulate_spectrogram(
            cfg,
            spec,
            cycles,
            sample_rng.spawn("pipeline"),
            clutter=clutter,
            rho=rho,
            stft_window=stft_window,
        )
        return label, result.gray

    # One worker maps in the calling thread: a pool thread allocates from a
    # second malloc arena, which adds about 4 MB (5%) to a desk-scale
    # accuracy_vs_cycles run's peak RSS.  No thread starts until a submit.
    with ThreadPoolExecutor(max_workers=threads) as pool:
        outputs = list((pool.map if threads > 1 else map)(run, jobs))

    grays = np.stack([g for _, g in outputs])
    labels = np.asarray([lab for lab, _ in outputs], dtype=int)
    return LabeledDataset(
        grays=grays,
        labels=labels,
        class_names=tuple(name for name, _ in classes),
        cycles=cycles,
        seed=rng.seed,
    )


def _pool_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Averaging matrix mapping n_in samples onto n_out blocks."""
    edges = (np.arange(n_in) * n_out) // n_in
    mat = np.zeros((n_out, n_in))
    mat[edges, np.arange(n_in)] = 1.0
    return mat / np.maximum(mat.sum(axis=1, keepdims=True), 1.0)


def block_features(grays: np.ndarray, pool: int) -> np.ndarray:
    """Block-average an (n, F, T) image stack to (n, pool * pool + 1):
    each image pooled to (pool x pool), flattened, with a bias appended.

    Pooling is two matrix products, rows after columns, and the 1/255
    gray scaling rides on the small column-pooling matrix, so the only
    full-size float array is the one copy of the input.
    """
    x = np.asarray(grays, dtype=float)
    if x.ndim != 3:
        raise ValueError(f"expected (n, F, T) images, got shape {x.shape}")
    n, h, w = x.shape
    pr = _pool_matrix(h, pool)
    pc = _pool_matrix(w, pool)
    pooled = pr @ (x @ (pc.T / 255.0))
    feats = pooled.reshape(n, -1)
    return np.hstack([feats, np.ones((n, 1))])


class SpectrogramClassifier:
    """Multinomial logistic regression over block-averaged spectrograms.

    Full-batch gradient descent with step halving whenever a step would
    increase the loss, so the training loss is non-increasing by
    construction.  Training stops when the per-epoch loss decrease falls
    below ``tol`` or ``max_epochs`` is reached.
    """

    pool = 16  # images are pooled to pool x pool blocks
    learning_rate = 2.0  # first step; halved while a step would raise the loss
    max_epochs = 3000  # also read from fitted instances by perfbench/run.py
    tol = 1e-6  # least per-epoch loss decrease that continues training

    @staticmethod
    def _softmax(z: np.ndarray) -> np.ndarray:
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def fit(self, x, y):
        y = np.asarray(y, dtype=int)
        feats = block_features(x, self.pool)
        if feats.shape[0] != y.size:
            raise ValueError("number of samples and labels differ")
        self.classes_ = np.unique(y)
        if self.classes_.size < 2:
            raise ValueError("degenerate dataset: need at least 2 classes")
        counts = np.bincount(np.searchsorted(self.classes_, y))
        if counts.min() < 2:
            raise ValueError("degenerate dataset: need at least 2 samples per class")

        n, d = feats.shape
        m = self.classes_.size
        onehot = np.zeros((n, m))
        onehot[np.arange(n), np.searchsorted(self.classes_, y)] = 1.0

        w = np.zeros((d, m))
        lr = self.learning_rate
        losses = []

        def loss_of(weights):
            """Mean cross-entropy at ``weights``, and the softmax it came from."""
            p = self._softmax(feats @ weights)
            return -float(np.mean(np.log(np.sum(p * onehot, axis=1) + 1e-300))), p

        cur, p = loss_of(w)
        losses.append(cur)
        for _ in range(self.max_epochs):
            grad = feats.T @ (p - onehot) / n
            stepped = False
            while lr >= 1e-12:
                cand = w - lr * grad
                cand_loss, cand_p = loss_of(cand)
                if cand_loss <= cur:
                    w, p, prev, cur = cand, cand_p, cur, cand_loss
                    stepped = True
                    break
                lr *= 0.5
            if not stepped:
                break
            losses.append(cur)
            if prev - cur < self.tol:
                break

        self.coef_ = w
        self.loss_curve_ = np.asarray(losses)
        self.n_epochs_ = len(losses) - 1
        return self

    def predict(self, x) -> np.ndarray:
        if not hasattr(self, "coef_"):
            raise RuntimeError("this SpectrogramClassifier instance is not fitted yet")
        scores = block_features(x, self.pool) @ self.coef_
        return self.classes_[np.argmax(scores, axis=1)]


def train_classifier(train: LabeledDataset) -> SpectrogramClassifier:
    """Fit the default classifier on a labeled dataset."""
    return SpectrogramClassifier().fit(train.grays, train.labels)


@dataclass(frozen=True)
class AccuracyPoint:
    cycles: int
    accuracy: float
    n_test: int

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must lie in [0, 1], got {self.accuracy!r}")
        if self.cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {self.cycles}")


def evaluate_accuracy(
    clf: SpectrogramClassifier, test: LabeledDataset
) -> AccuracyPoint:
    """Exact fraction of correct predictions on a held-out dataset."""
    if len(test) == 0:
        raise ValueError("empty test dataset")
    correct = int(np.sum(clf.predict(test.grays) == test.labels))
    return AccuracyPoint(
        cycles=test.cycles, accuracy=correct / len(test), n_test=len(test)
    )


def accuracy_vs_cycles(
    cfg: SystemConfig,
    clutter: ClutterConfig,
    class_set,
    c_values,
    rng: RngStream,
    *,
    n_train: int = 50,
    n_test: int = 25,
    rho: float = DEFAULT_RHO,
    stft_window: int = DEFAULT_STFT_WINDOW,
    threads: int = 1,
    min_radial_fraction: float = 0.0,
) -> list[AccuracyPoint]:
    """Measure accuracy at each cycle count with fresh train/test splits."""
    c_values = list(c_values)
    if any(b <= a for a, b in zip(c_values, c_values[1:])):
        raise ValueError("c_values must be strictly ascending")
    points = []
    for c in c_values:
        c_rng = rng.spawn(f"C{c}")
        train = generate_dataset(
            cfg, clutter, class_set, n_train, c, rho, c_rng.spawn("train"),
            stft_window=stft_window, threads=threads,
            min_radial_fraction=min_radial_fraction,
        )
        test = generate_dataset(
            cfg, clutter, class_set, n_test, c, rho, c_rng.spawn("test"),
            stft_window=stft_window, threads=threads,
            min_radial_fraction=min_radial_fraction,
        )
        clf = train_classifier(train)
        points.append(evaluate_accuracy(clf, test))
    return points


def accuracy_points_to_csv(points, path):
    """CSV ``C,A,n_test``; returns the path."""
    rows = ((p.cycles, p.accuracy, p.n_test) for p in points)
    return write_csv(path, ("C", "A", "n_test"), rows)


def accuracy_points_from_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read ``C,A[,n_test]`` rows; returns (cycles, accuracy) arrays.

    A missing column or a cell that is not a number raises ValueError
    naming the path, the line and the column.
    """
    columns = {"C": [], "A": []}
    for line, row in read_csv(path):
        for key, values in columns.items():
            text = row.get(key)
            if text is None:
                raise ValueError(f"{path}:{line}: missing column {key!r}")
            try:
                values.append(float(text))
            except ValueError:
                raise ValueError(f"{path}:{line}: {key}: not a number: {text!r}") from None
    return np.asarray(columns["C"]), np.asarray(columns["A"])
