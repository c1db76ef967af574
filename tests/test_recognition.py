import tracemalloc

import numpy as np
import pytest

from isacsim import (
    AccuracyPoint,
    RngStream,
    SpectrogramClassifier,
    evaluate_accuracy,
    generate_dataset,
    train_classifier,
)
from isacsim.recognition import (
    LabeledDataset,
    accuracy_points_from_csv,
    accuracy_points_to_csv,
    block_features,
)


def synthetic_dataset(n_per_class, centers, noise=0.05, seed=0, cycles=128):
    """Gaussian-blob gray images, one blob location per class."""
    rng = np.random.default_rng(seed)
    grays, labels = [], []
    for label, (r, c) in enumerate(centers):
        for _ in range(n_per_class):
            img = noise * rng.random((32, 48))
            img[r - 2 : r + 2, c - 4 : c + 4] += 0.9
            grays.append(np.clip(img * 255, 0, 255).astype(np.uint8))
            labels.append(label)
    return LabeledDataset(
        grays=np.stack(grays),
        labels=np.asarray(labels),
        class_names=tuple(f"c{i}" for i in range(len(centers))),
        cycles=cycles,
        seed=seed,
    )


class TestBlockFeatures:
    def test_shape_and_bias(self):
        feats = block_features(np.zeros((3, 32, 48), np.uint8), 16)
        assert feats.shape == (3, 16 * 16 + 1)
        assert np.all(feats[:, -1] == 1.0)
        with pytest.raises(ValueError, match=r"\(n, F, T\) images"):
            block_features(np.zeros((32, 48), np.uint8), 16)

    def test_average_preserved(self):
        img = np.full((1, 32, 48), 128, np.uint8)
        feats = block_features(img, 16)
        assert np.allclose(feats[0, :-1], 128 / 255.0)

    @staticmethod
    def block_means(img, pool):
        """Oracle: the mean of each block, scaled to [0, 1], row-major."""
        rows = (np.arange(img.shape[0]) * pool) // img.shape[0]
        cols = (np.arange(img.shape[1]) * pool) // img.shape[1]
        return np.array([
            img[rows == r][:, cols == c].mean() / 255.0
            for r in range(pool)
            for c in range(pool)
        ])

    @pytest.mark.parametrize("width", [33, 97, 225, 481])
    def test_matches_block_mean_oracle(self, width):
        # None of the widths divides by 16, so blocks differ in size.
        imgs = np.random.default_rng(width).integers(
            0, 256, (3, 32, width), dtype=np.uint8
        )
        feats = block_features(imgs, 16)
        for img, row in zip(imgs, feats):
            assert np.abs(row[:-1] - self.block_means(img, 16)).max() <= 1e-12

    def test_peak_memory_one_float_copy(self):
        # A C=512 training set: the pooling may hold one float64 copy of
        # the stack, not a second scaled one.
        imgs = np.random.default_rng(0).integers(
            0, 256, (150, 32, 481), dtype=np.uint8
        )
        tracemalloc.start()
        try:
            block_features(imgs, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * imgs.size * 8


class TestClassifier:
    def test_separable_dataset_memorized(self):
        ds = synthetic_dataset(10, [(8, 10), (24, 38)])
        clf = train_classifier(ds)
        assert evaluate_accuracy(clf, ds).accuracy == 1.0

    def test_loss_non_increasing(self):
        ds = synthetic_dataset(10, [(8, 10), (24, 38), (8, 38)])
        clf = train_classifier(ds)
        diffs = np.diff(clf.loss_curve_)
        assert np.all(diffs <= 1e-12)

    def test_permuted_labels_chance_level(self):
        # Chance-level oracle: shuffling labels destroys the signal, so
        # held-out accuracy falls within 3 binomial sigmas of 1/M.
        m = 4
        ds = synthetic_dataset(30, [(8, 10), (24, 38), (8, 38), (24, 10)])
        rng = np.random.default_rng(5)
        shuffled = rng.permutation(ds.labels)
        clf = SpectrogramClassifier().fit(ds.grays, shuffled)
        test = synthetic_dataset(50, [(8, 10), (24, 38), (8, 38), (24, 10)], seed=9)
        acc = evaluate_accuracy(clf, test).accuracy
        sigma = np.sqrt((1 / m) * (1 - 1 / m) / len(test))
        assert abs(acc - 1 / m) <= 3 * sigma + 1e-9

    def test_duplicated_dataset_same_boundary(self):
        ds = synthetic_dataset(10, [(8, 10), (24, 38)])
        doubled = LabeledDataset(
            grays=np.concatenate([ds.grays, ds.grays]),
            labels=np.concatenate([ds.labels, ds.labels]),
            class_names=ds.class_names,
            cycles=ds.cycles,
            seed=ds.seed,
        )
        w1 = train_classifier(ds).coef_
        w2 = train_classifier(doubled).coef_
        assert np.allclose(w1, w2, atol=1e-9)

    def test_one_class_rejected(self):
        ds = synthetic_dataset(5, [(8, 10)])
        with pytest.raises(ValueError, match="degenerate"):
            train_classifier(ds)

    def test_two_samples_per_class_required(self):
        ds = synthetic_dataset(1, [(8, 10), (24, 38)])
        with pytest.raises(ValueError, match="degenerate"):
            train_classifier(ds)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            SpectrogramClassifier().predict(np.zeros((1, 8, 8), np.uint8))


class TestEvaluate:
    def test_constant_predictor_balanced_accuracy(self):
        # A model that always answers class 0 scores 1/M on a balanced set.
        ds = synthetic_dataset(10, [(8, 10), (24, 38), (8, 38), (24, 10), (16, 24)])

        class AlwaysZero:
            def predict(self, x):
                return np.zeros(len(x), dtype=int)

        point = evaluate_accuracy(AlwaysZero(), ds)
        assert point.accuracy == pytest.approx(0.2)
        assert point.n_test == 50

    def test_empty_test_rejected(self):
        ds = synthetic_dataset(2, [(8, 10), (24, 38)])
        clf = train_classifier(ds)
        empty = LabeledDataset(
            grays=np.zeros((0, 32, 48), np.uint8),
            labels=np.zeros(0, int),
            class_names=ds.class_names,
            cycles=ds.cycles,
            seed=0,
        )
        with pytest.raises(ValueError, match="empty"):
            evaluate_accuracy(clf, empty)

    def test_accuracy_point_bounds(self):
        with pytest.raises(ValueError, match="accuracy"):
            AccuracyPoint(cycles=100, accuracy=1.2, n_test=5)


class TestGenerateDataset:
    def test_shapes_and_labels(self, desk_cfg, clutter_cfg):
        ds = generate_dataset(
            desk_cfg, clutter_cfg, "motions3", 2, 128, 0.997,
            RngStream(3, "ds"), stft_window=32,
        )
        assert len(ds) == 6
        assert ds.num_classes == 3
        assert sorted(np.bincount(ds.labels)) == [2, 2, 2]
        assert ds.grays.dtype == np.uint8

    def test_determinism_byte_identical(self, desk_cfg, clutter_cfg):
        a = generate_dataset(desk_cfg, clutter_cfg, "motions3", 2, 128, 0.997,
                             RngStream(4, "ds"), stft_window=32)
        b = generate_dataset(desk_cfg, clutter_cfg, "motions3", 2, 128, 0.997,
                             RngStream(4, "ds"), stft_window=32)
        assert np.array_equal(a.grays, b.grays)
        assert np.array_equal(a.labels, b.labels)

    def test_threads_do_not_change_bytes(self, desk_cfg, clutter_cfg):
        a = generate_dataset(desk_cfg, clutter_cfg, "motions3", 2, 128, 0.997,
                             RngStream(5, "ds"), stft_window=32, threads=1)
        b = generate_dataset(desk_cfg, clutter_cfg, "motions3", 2, 128, 0.997,
                             RngStream(5, "ds"), stft_window=32, threads=4)
        assert np.array_equal(a.grays, b.grays)

    def test_threads_below_one_rejected(self, desk_cfg, clutter_cfg):
        with pytest.raises(ValueError, match="threads must be >= 1, got 0"):
            generate_dataset(desk_cfg, clutter_cfg, "motions3", 1, 128, 0.997,
                             RngStream(6, "ds"), stft_window=32, threads=0)

    def test_cycles_below_window_rejected(self, desk_cfg, clutter_cfg):
        with pytest.raises(ValueError, match="window"):
            generate_dataset(desk_cfg, clutter_cfg, "motions3", 1, 16, 0.997,
                             RngStream(6, "ds"), stft_window=32)

    def test_five_class_preset(self, desk_cfg, clutter_cfg):
        ds = generate_dataset(desk_cfg, clutter_cfg, "motions5", 1, 128, 0.997,
                              RngStream(7, "ds"), stft_window=32)
        assert ds.num_classes == 5
        assert len(ds) == 5

    def test_save_writes_pgms_and_labels(self, desk_cfg, clutter_cfg, tmp_path):
        ds = generate_dataset(desk_cfg, clutter_cfg, "motions3", 1, 128, 0.997,
                              RngStream(8, "ds"), stft_window=32)
        files = ds.save(tmp_path)
        assert (tmp_path / "labels.csv").exists()
        pgms = sorted(tmp_path.glob("*.pgm"))
        assert len(pgms) == 3
        header = (tmp_path / "labels.csv").read_text().splitlines()[0]
        assert header == "file,label,C,seed"
        assert len(files) == 4


class TestAccuracyCsv:
    def test_round_trip(self, tmp_path):
        pts = [AccuracyPoint(100, 0.8, 25), AccuracyPoint(200, 0.9, 25)]
        path = tmp_path / "acc.csv"
        accuracy_points_to_csv(pts, path)
        c, a = accuracy_points_from_csv(path)
        assert np.array_equal(c, [100, 200])
        assert np.array_equal(a, [0.8, 0.9])

    def test_bad_value_named(self, tmp_path):
        path = tmp_path / "acc.csv"
        path.write_text("C,A\n100,0.8\n# comment\n200,abc\n")
        with pytest.raises(ValueError, match=r"acc\.csv:4: A: not a number: 'abc'$"):
            accuracy_points_from_csv(path)
