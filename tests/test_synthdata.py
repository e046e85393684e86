import hashlib

import numpy as np
import pytest
from scipy import stats

from detlab.config import load_config
from detlab.seeding import derive_seed
from detlab.synthdata import (
    FeatureModel,
    RpnQualityModel,
    Scene,
    SceneConfig,
    generate_dataset,
    generate_proposals,
    generate_scene,
    load_dataset,
    proposal_features,
    quality_at,
    save_dataset,
)
from test_harness import DESK_CFG


class TestSceneGeneration:
    def test_fixed_count(self):
        cfg = SceneConfig(gt_count_weights={3: 1.0})
        scene = generate_scene(cfg, 42)
        assert scene.gt_boxes.shape == (3, 4) and scene.gt_classes.shape == (3,)
        w, h = cfg.extent
        x1, y1, x2, y2 = scene.gt_boxes.T
        assert np.all((0 <= x1) & (x1 < x2) & (x2 <= w))
        assert np.all((0 <= y1) & (y1 < y2) & (y2 <= h))
        assert np.all((1 <= scene.gt_classes) & (scene.gt_classes <= cfg.num_classes))

    def test_deterministic(self):
        cfg = SceneConfig()
        assert_same_scenes([generate_scene(cfg, 9)], [generate_scene(cfg, 9)])

    def test_rejects_oversized_boxes(self):
        with pytest.raises(ValueError):
            SceneConfig(extent=(10, 10), box_size_range=(20, 30))

    def test_mixture_frequencies(self):
        cfg = SceneConfig(gt_count_weights={1: 0.5, 8: 0.5})
        counts = [len(generate_scene(cfg, derive_seed("mix", i)).gt_classes)
                  for i in range(10000)]
        frac_one = np.mean([c == 1 for c in counts])
        assert abs(frac_one - 0.5) < 0.02
        assert set(counts) == {1, 8}


class TestQuality:
    def test_endpoints_and_midpoint(self):
        assert quality_at(0, 100) == 0.0
        assert quality_at(100, 100) == 1.0
        assert quality_at(50, 100) == 0.5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            quality_at(101, 100)


def assert_same_scenes(a, b):
    """Equal ids and extents, and exactly equal ground-truth arrays."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.id, x.extent) == (y.id, y.extent)
        np.testing.assert_array_equal(x.gt_boxes, y.gt_boxes, strict=True)
        np.testing.assert_array_equal(x.gt_classes, y.gt_classes, strict=True)


def _scene(n=2, cls=2):
    boxes = [(10 + 30 * i, 10, 30 + 30 * i, 30) for i in range(n)]
    return Scene(1, (100.0, 100.0), boxes, [cls] * n)


class TestProposals:
    def test_perfect_quality_zero_jitter(self):
        model = RpnQualityModel(jitter_start=0.6, jitter_end=0.0)
        pool = generate_proposals(_scene(), 1.0, model, 5, num_classes=3)
        # every instance keeps at least one exact copy
        for g in range(len(_scene().gt_classes)):
            exact = (pool.matched == g) & (pool.max_ious == 1.0)
            assert exact.any()

    def test_zero_gt_scene(self):
        scene = Scene(2, (100.0, 100.0), [], [])
        model = RpnQualityModel()
        pool = generate_proposals(scene, 0.5, model, 3, num_classes=3)
        assert len(pool) == model.bg_per_scene
        assert (pool.classes == 0).all()

    def test_deterministic(self):
        model = RpnQualityModel()
        a = generate_proposals(_scene(), 0.3, model, 7, num_classes=3)
        b = generate_proposals(_scene(), 0.3, model, 7, num_classes=3)
        np.testing.assert_array_equal(a.boxes, b.boxes)
        np.testing.assert_array_equal(a.features, b.features)
        with pytest.raises(TypeError):  # feature width never follows the scene's classes
            generate_proposals(_scene(), 0.3, model, 7)

    def test_low_quality_means_low_overlap(self):
        # default starting jitter leaves the mean per-instance best IoU below 0.5
        model = RpnQualityModel()
        best = []
        for i in range(1000):
            scene = generate_scene(SceneConfig(gt_count_weights={2: 1.0}),
                                   derive_seed("lowq", i))
            pool = generate_proposals(scene, 0.0, model, derive_seed("lowq-p", i),
                                      num_classes=3)
            for g in range(2):
                mask = pool.matched == g
                best.append(pool.max_ious[mask].max() if mask.any() else 0.0)
        assert np.mean(best) < 0.5

    def test_positive_count_increases_with_quality(self):
        model = RpnQualityModel()
        cfg = SceneConfig()
        means = []
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            counts = []
            for i in range(300):
                scene = generate_scene(cfg, derive_seed("shortage", i))
                pool = generate_proposals(scene, q, model,
                                          derive_seed("shortage-p", q, i),
                                          num_classes=3)
                counts.append(int((pool.classes > 0).sum()))
            means.append(np.mean(counts))
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_gt_count_correlates_with_positives_at_full_quality(self):
        model = RpnQualityModel()
        cfg = SceneConfig()
        gt_counts, pos_counts = [], []
        for i in range(2000):
            scene = generate_scene(cfg, derive_seed("corr", i))
            pool = generate_proposals(scene, 1.0, model, derive_seed("corr-p", i),
                                      num_classes=3)
            gt_counts.append(len(scene.gt_classes))
            pos_counts.append(int((pool.classes > 0).sum()))
        rho = stats.spearmanr(gt_counts, pos_counts).statistic
        assert rho > 0.5


class TestFeatures:
    def test_background_noise_free_is_zero(self):
        feat = FeatureModel(noise_dims=4, noise_sigma=0.0)
        out = proposal_features(np.array([0]), np.array([0.3]), 3, feat,
                                np.random.default_rng(0))
        np.testing.assert_array_equal(out, np.zeros((1, 7)))

    def test_exact_copy_signal(self):
        feat = FeatureModel(noise_dims=4, noise_sigma=0.0)
        out = proposal_features(np.array([2]), np.array([1.0]), 3, feat,
                                np.random.default_rng(0))
        assert out[0, 1] == 1.0
        assert out[0, 0] == 0.0 and out[0, 2] == 0.0

    def test_noise_stddev(self):
        feat = FeatureModel(noise_dims=1, noise_sigma=0.3)
        out = proposal_features(np.zeros(100000, dtype=int), np.zeros(100000),
                                1, feat, np.random.default_rng(3))
        sd = out[:, 1].std()
        assert abs(sd - 0.3) / 0.3 < 0.02


class TestSerialization:
    def test_round_trip(self, tmp_path):
        scenes = generate_dataset(SceneConfig(), 5, 123)
        scenes.append(Scene(5, (100.0, 100.0), [], []))
        path = tmp_path / "data.txt"
        save_dataset(scenes, path)
        assert_same_scenes(load_dataset(path), scenes)

    @pytest.mark.parametrize("tag, n, sha256", [
        ("train", 2000, "eae26a11377897f9dbc364c72622ed69be0d6a222f9ec634ba17609806cb4801"),
        ("eval", 500, "6dd0526d40052f6688a4418d0a998a0313edba5c43e674eaa0f26eca771be7d9"),
    ])
    def test_desk_cache_bytes_are_pinned(self, tmp_path, tag, n, sha256):
        # the dataset_<tag>_*.txt file that `detlab train --config configs/desk.cfg
        # --seed 7` writes
        scene_cfg = load_config(DESK_CFG, seed=7).scene
        path = tmp_path / "data.txt"
        save_dataset(generate_dataset(scene_cfg, n, 7, tag=tag), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    def test_short_record_names_line(self, tmp_path):
        path = tmp_path / "data.txt"
        save_dataset(generate_dataset(SceneConfig(gt_count_weights={3: 1.0}), 2, 9), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:6]) + "\n")  # second scene loses an instance
        with pytest.raises(ValueError, match="line 7: file ends"):
            load_dataset(path)

    def test_malformed_record_names_line(self, tmp_path):
        path = tmp_path / "data.txt"
        save_dataset(generate_dataset(SceneConfig(gt_count_weights={3: 1.0}), 2, 9), path)
        lines = path.read_text().splitlines()
        lines[2] = "inst 1 0.0 0.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 3: expected"):
            load_dataset(path)

    def test_dataset_scene_ids_are_indices(self):
        scenes = generate_dataset(SceneConfig(), 4, 55)
        assert [s.id for s in scenes] == [0, 1, 2, 3]
