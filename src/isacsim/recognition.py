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
from .manifest import read_floats, write_csv
from .simulate import simulate_spectrogram
from .validation import check_count

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
    duration: float,
    rng: RngStream,
    min_radial_fraction: float = 0.0,
) -> MotionSpec:
    """Random placement keeping the trajectory inside the room of
    :class:`ClutterConfig` and clear of its radar.

    ``min_radial_fraction`` > 0 additionally requires the heading to have
    at least that cosine along the line of sight, restricting samples to
    subjects crossing the sensing beam radially (useful at desk scale,
    where a purely tangential walker is indistinguishable from a slower
    radial one).  A reach beyond the diagonal of the floor inside the wall
    margins, which no placement can hold, raises before any draw.
    """
    lx, ly, _ = ClutterConfig.room
    rx, ry, _ = ClutterConfig.radar_position
    spec = MotionSpec(motion_class, subject, duration=duration)
    # Pacing turns back at its segment; other segments are infinite.
    reach = min(spec.effective_speed * duration, spec.effective_segment)
    diagonal = math.hypot(lx - 2 * _MARGIN, ly - 2 * _MARGIN)
    facts = (f"{subject} {motion_class} for {duration:.4g} s reaches {reach:.4g} m; the floor "
             f"inside the {_MARGIN} m wall margins has a {diagonal:.4g} m diagonal")
    if reach > diagonal:
        raise ValueError(f"cannot place the motion inside the room: {facts}")
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
    radial = f", with min_radial_fraction {min_radial_fraction!r}" if min_radial_fraction else ""
    raise RuntimeError(f"could not place the motion inside the room in 500 draws: {facts}{radial}")


def generate_dataset(
    cfg: SystemConfig,
    clutter: ClutterConfig,
    class_set: str,
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

    ``class_set`` is a preset name from :data:`CLASS_SETS`.  Start
    positions and headings are randomized inside the room; clutter and
    noise are fresh per sample.  The samples are mapped over ``threads``
    worker threads and written in job order into one preallocated uint8
    stack, so the output is deterministic for a given ``rng`` regardless
    of ``threads`` and the split is held once, with no list to stack.
    ``min_radial_fraction`` (in [0, 1)) is the least cosine between a
    moving subject's heading and the line of sight (see ``_sample_motion``).
    """
    try:
        classes = CLASS_SETS[class_set]
    except KeyError:
        raise ValueError(
            f"unknown class set {class_set!r}; choose from {tuple(CLASS_SETS)}"
        ) from None
    n_per_class = check_count("n_per_class", n_per_class, 1)
    threads = check_count("threads", threads, 1)
    cycles = check_count("cycles", cycles, 1)
    min_radial_fraction = float(min_radial_fraction)
    if not 0.0 <= min_radial_fraction < 1.0:  # no drawn heading is exactly radial
        raise ValueError("min_radial_fraction: must lie in [0.0, 1.0] and stay below 1.0, "
                         f"got {min_radial_fraction!r}")
    duration = cycles * cfg.pri

    jobs = []
    for label, candidates in enumerate(classes):
        _, pairs = candidates
        class_rng = rng.spawn(f"class{label}")
        for s in range(n_per_class):
            jobs.append((label, pairs, class_rng.spawn(f"sample{s}")))

    def run(job):
        _, pairs, sample_rng = job
        subject, motion_class = pairs[
            int(sample_rng.spawn("subject").integers(0, len(pairs)))
        ]
        spec = _sample_motion(
            subject,
            motion_class,
            duration,
            sample_rng.spawn("place"),
            min_radial_fraction=min_radial_fraction,
        )
        return simulate_spectrogram(
            cfg,
            spec,
            cycles,
            sample_rng.spawn("pipeline"),
            clutter=clutter,
            rho=rho,
            stft_window=stft_window,
        ).gray

    # One worker maps in the calling thread: a pool thread allocates from a
    # second malloc arena, which adds about 4 MB (5%) to a desk-scale
    # accuracy_vs_cycles run's peak RSS.  No thread starts until a submit.
    # The stack takes its shape from the first sample, so a sample that
    # cannot be simulated raises the simulator's own error first.
    grays = None
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for i, gray in enumerate((pool.map if threads > 1 else map)(run, jobs)):
            if grays is None:
                grays = np.empty((len(jobs), *gray.shape), dtype=gray.dtype)
            grays[i] = gray

    return LabeledDataset(
        grays=grays,
        labels=np.asarray([label for label, _, _ in jobs], dtype=int),
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


# Bytes of the float64 copy that block_features pools at a time.  Pooling
# one image at a time would hold less, but freeing a copy of a few MB
# raises glibc's dynamic mmap and trim thresholds, and without that every
# desk-scale sample of accuracy_vs_cycles grows and trims the heap again
# (about 700 page faults per C=512 sample at one image per chunk, 2 on
# average at 2 MB, under 0.1 at 4 MB).
_POOL_CHUNK_BYTES = 4 << 20


def block_features(grays: np.ndarray, pool: int) -> np.ndarray:
    """Block-average an (n, F, T) image stack to (n, pool * pool + 1):
    each image pooled to (pool x pool), flattened, with a bias appended.

    Pooling is two matrix products, rows after columns, and the 1/255
    gray scaling rides on the small column-pooling matrix.  The images
    are converted to float in chunks of at most ``_POOL_CHUNK_BYTES``
    (at least one image), so the float work block has a fixed size
    whatever ``n`` is; each image is pooled by the same BLAS calls as a
    whole-stack product, so the features do not depend on the chunking.
    """
    grays = np.asarray(grays)
    if grays.ndim != 3:
        raise ValueError(f"expected (n, F, T) images, got shape {grays.shape}")
    n, h, w = grays.shape
    pr = _pool_matrix(h, pool)
    pc = _pool_matrix(w, pool).T / 255.0
    feats = np.ones((n, pool * pool + 1))
    step = max(1, _POOL_CHUNK_BYTES // max(8 * h * w, 1))
    for i in range(0, n, step):
        pooled = pr @ (np.asarray(grays[i:i + step], dtype=float) @ pc)
        feats[i:i + step, :-1] = pooled.reshape(len(pooled), -1)
    return feats


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
        object.__setattr__(self, "cycles", check_count("cycles", self.cycles, 1))
        object.__setattr__(self, "n_test", check_count("n_test", self.n_test, 1))


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
    class_set: str,
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
    """Measure accuracy at each cycle count with fresh train/test splits.

    At each C the train split is generated, trained on and dropped before
    the test split is generated, so at most one split is held at a time.
    Each split draws from its own stream, so the order changes no byte.
    """
    c_values = [check_count("c_values", c, 1) for c in c_values]
    check_count("n_train", n_train, 2)  # the classifier needs two samples per class
    check_count("n_test", n_test, 1)
    if any(b <= a for a, b in zip(c_values, c_values[1:])):
        raise ValueError("c_values must be strictly ascending")

    def split(c, name, n):
        return generate_dataset(
            cfg, clutter, class_set, n, c, rho, rng.spawn(f"C{c}").spawn(name),
            stft_window=stft_window, threads=threads,
            min_radial_fraction=min_radial_fraction,
        )

    points = []
    for c in c_values:
        clf = train_classifier(split(c, "train", n_train))
        points.append(evaluate_accuracy(clf, split(c, "test", n_test)))
    return points


def accuracy_points_to_csv(points, path):
    """CSV ``C,A,n_test``; returns the path."""
    rows = ((p.cycles, p.accuracy, p.n_test) for p in points)
    return write_csv(path, ("C", "A", "n_test"), rows)


def accuracy_points_from_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read ``C,A[,n_test]`` rows; returns (cycles, accuracy) arrays.

    A missing column, a cell that is not a finite number (see
    :func:`~isacsim.manifest.read_floats`) or a C that repeats an earlier
    row's raises ValueError naming the path, the line and the column.
    """
    rows = read_floats(path, ("C", "A"))
    first_line = {}  # C -> the line it first appears on
    for line, (c, _) in rows:
        if c in first_line:
            raise ValueError(f"{path}:{line}: C: repeats line {first_line[c]}'s {c!r}")
        first_line[c] = line
    return np.array([c for _, (c, _) in rows]), np.array([a for _, (_, a) in rows])
