import math
import tracemalloc
import weakref

import numpy as np
import pytest

from isacsim import (
    AccuracyPoint,
    RngStream,
    SpectrogramClassifier,
    accuracy_vs_cycles,
    evaluate_accuracy,
    generate_dataset,
    train_classifier,
)
from isacsim import recognition
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

    @staticmethod
    def whole_stack_features(grays, pool):
        """The unchunked formula: one float copy of the whole stack."""
        x = np.asarray(grays, dtype=float)
        n, h, w = x.shape
        pr, pc = recognition._pool_matrix(h, pool), recognition._pool_matrix(w, pool)
        pooled = pr @ (x @ (pc.T / 255.0))
        return np.hstack([pooled.reshape(n, -1), np.ones((n, 1))])

    @pytest.mark.parametrize("shape, chunk", [
        ((1, 32, 481), None),
        ((150, 32, 481), None),  # a C=512 training set: 5 chunks of 34
        ((7, 32, 225), 1),
        ((40, 17, 97), 8),  # neither side divides by 16
        ((65, 32, 33), 32),  # a short last chunk
    ])
    def test_chunking_is_bit_equal_to_whole_stack(self, monkeypatch, shape, chunk):
        n, h, w = shape
        if chunk is not None:
            monkeypatch.setattr(recognition, "_POOL_CHUNK_BYTES", chunk * 8 * h * w)
        imgs = np.random.default_rng(n).integers(0, 256, shape, dtype=np.uint8)
        feats = block_features(imgs, 16)
        assert feats.flags.c_contiguous
        assert feats.tobytes() == self.whole_stack_features(imgs, 16).tobytes()

    @staticmethod
    def traced_peak(n):
        imgs = np.random.default_rng(0).integers(0, 256, (n, 32, 481), dtype=np.uint8)
        tracemalloc.start()
        try:
            block_features(imgs, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_peak_memory_one_float_copy(self):
        # A C=512 training set (150 images, 18.5 MB as float64) holds one
        # float chunk of the stack at a time, never the whole copy.
        # The pooled products and pooling matrices add well under 1 MB.
        peak, peak_x4 = self.traced_peak(150), self.traced_peak(600)
        feature_bytes = 8 * (16 * 16 + 1)
        assert peak_x4 < recognition._POOL_CHUNK_BYTES + 600 * feature_bytes + (1 << 20)
        assert peak_x4 - peak < 450 * feature_bytes + (1 << 16)  # only the features grow


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

    def test_accuracy_point_cycles_below_one_rejected(self):
        with pytest.raises(ValueError, match="cycles must be >= 1, got 0"):
            AccuracyPoint(cycles=0, accuracy=0.5, n_test=5)


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

    def test_n_per_class_below_one_rejected(self, desk_cfg, clutter_cfg):
        with pytest.raises(ValueError, match="n_per_class must be >= 1, got 0"):
            generate_dataset(desk_cfg, clutter_cfg, "motions3", 0, 128, 0.997,
                             RngStream(6, "ds"), stft_window=32)

    @pytest.mark.parametrize("fraction", [math.nan, -1.0, 1.5, 1.0])
    def test_min_radial_fraction_outside_unit_interval_rejected(self, desk_cfg,
                                                                clutter_cfg, fraction):
        # NaN and -1 would place as 0; 1.5 and 1.0 would fail only after
        # 500 draws, since no drawn heading is exactly radial.
        with pytest.raises(ValueError, match=r"^min_radial_fraction: must lie in \[0.0, 1.0\]"):
            generate_dataset(desk_cfg, clutter_cfg, "motions3", 1, 128, 0.997,
                             RngStream(6, "ds"), stft_window=32,
                             min_radial_fraction=fraction)

    def test_unknown_class_set_named(self, desk_cfg, clutter_cfg):
        # The CLI's choices hide this; a library caller gets the presets.
        calls = [
            lambda: generate_dataset(desk_cfg, clutter_cfg, "motions7", 1, 128, 0.997,
                                     RngStream(6, "ds"), stft_window=32),
            lambda: accuracy_vs_cycles(desk_cfg, clutter_cfg, "motions7", [128],
                                       RngStream(6, "acc"), stft_window=32),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"^unknown class set 'motions7'; "
                                                 r"choose from \('motions3', 'motions5'\)$"):
                call()

    def test_cycles_below_window_rejected(self, desk_cfg, clutter_cfg):
        with pytest.raises(ValueError, match="window"):
            generate_dataset(desk_cfg, clutter_cfg, "motions3", 1, 16, 0.997,
                             RngStream(6, "ds"), stft_window=32)

    def test_motion_longer_than_the_room_rejected_before_any_draw(self, desk_cfg, clutter_cfg,
                                                                  monkeypatch):
        # A 7 s walk reaches 7 m against a 4.3 m floor diagonal; the placement
        # used to spend 500 draws and report no cause.
        drawn = set()
        uniform = RngStream.uniform
        monkeypatch.setattr(RngStream, "uniform", lambda self, *args, **kwargs: (
            drawn.add(self.stream_id) or uniform(self, *args, **kwargs)))
        with pytest.raises(ValueError, match=(
                r"^cannot place the motion inside the room: adult walking for 7 s reaches "
                r"7 m; the floor inside the 0\.4 m wall margins has a 4\.305 m diagonal$")):
            generate_dataset(desk_cfg, clutter_cfg, "motions3", 1, 7000, 0.997,
                             RngStream(6, "ds"), stft_window=32)
        # The standing sample is placed; the walk makes no placement draw.
        assert {s for s in drawn if s.endswith("/place")} == {"ds/class0/sample0/place"}

    def test_unplaced_motion_names_its_facts(self):
        # 4.3 m fits the 4.305 m diagonal only from a corner, along it.
        with pytest.raises(RuntimeError, match=(
                r"^could not place the motion inside the room in 500 draws: adult walking "
                r"for 4\.3 s reaches 4\.3 m; the floor inside the 0\.4 m wall margins has "
                r"a 4\.305 m diagonal, with min_radial_fraction 0\.5$")):
            recognition._sample_motion("adult", "walking", 4.3, RngStream(0, "place"),
                                       min_radial_fraction=0.5)

    def test_standing_is_placed_whatever_its_duration(self):
        # Standing reaches 0 m, so the reach check never rejects it.
        spec = recognition._sample_motion("adult", "standing", 60.0, RngStream(0, "place"))
        assert (spec.motion_class, spec.duration) == ("standing", 60.0)

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


class TestAccuracyVsCycles:
    def test_cycles_must_ascend(self, desk_cfg, clutter_cfg):
        with pytest.raises(ValueError, match="c_values must be strictly ascending"):
            accuracy_vs_cycles(desk_cfg, clutter_cfg, "motions3", [128, 64], RngStream(0))

    def test_train_split_dropped_before_test_split(self, monkeypatch, desk_cfg, clutter_cfg):
        events, train_refs = [], []

        def fake_dataset(cfg, clutter, class_set, n, c, rho, rng, **kwargs):
            ds = synthetic_dataset(n, [(8, 10), (24, 38)], cycles=c)
            if rng.stream_id.endswith("/train"):
                events.append(("train", c))
                train_refs.append(weakref.ref(ds))
            else:  # which train splits are still alive
                events.append(("test", c, [ref() is not None for ref in train_refs]))
            return ds

        monkeypatch.setattr(recognition, "generate_dataset", fake_dataset)
        points = accuracy_vs_cycles(desk_cfg, clutter_cfg, "motions3", [64, 128],
                                    RngStream(0), n_train=4, n_test=2)
        assert [p.cycles for p in points] == [64, 128]
        assert events == [("train", 64), ("test", 64, [False]),
                          ("train", 128), ("test", 128, [False, False])]


class TestAccuracyCsv:
    def test_round_trip(self, tmp_path):
        pts = [AccuracyPoint(100, 0.8, 25), AccuracyPoint(200, 0.9, 25)]
        path = tmp_path / "acc.csv"
        accuracy_points_to_csv(pts, path)
        c, a = accuracy_points_from_csv(path)
        assert np.array_equal(c, [100, 200])
        assert np.array_equal(a, [0.8, 0.9])

    def test_repeated_cycles_named(self, tmp_path):
        path = tmp_path / "acc.csv"
        path.write_text("C,A\n100,0.8\n# comment\n200,0.9\n1e2,0.7\n")
        with pytest.raises(ValueError, match=r"acc\.csv:5: C: repeats line 2's 100\.0$"):
            accuracy_points_from_csv(path)

    def test_bad_value_named(self, tmp_path):
        path = tmp_path / "acc.csv"
        path.write_text("C,A\n100,0.8\n# comment\n200,abc\n")
        with pytest.raises(ValueError, match=r"acc\.csv:4: A: not a number: 'abc'$"):
            accuracy_points_from_csv(path)

    @pytest.mark.parametrize("column, text", [
        ("C", "nan"), ("C", "inf"), ("C", "1e400"), ("A", "-inf"), ("A", "NaN"), ("A", "1e400"),
    ])
    def test_non_finite_value_named(self, tmp_path, column, text):
        # float() parses these; unchecked they reached every family's fit.
        row = f"{text},0.9" if column == "C" else f"200,{text}"
        path = tmp_path / "acc.csv"
        path.write_text(f"C,A\n100,0.8\n# comment\n{row}\n300,0.95\n")
        with pytest.raises(ValueError, match=rf"acc\.csv:4: {column}: not a finite number: "
                                             rf"'{text}'$"):
            accuracy_points_from_csv(path)
