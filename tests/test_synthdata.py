import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from detlab import synthdata
from detlab.config import SCENE
from detlab.files import write_arrays
from detlab.geometry import label_arrays, pool_max_iou
from detlab.harness import POOL_BLOCK
from detlab.seeding import derive_seed, generators
from detlab.synthdata import (
    DEFAULT_GT_COUNT_WEIGHTS,
    POS_IOU_THRESHOLD,
    SCENE_ARRAYS,
    FeatureModel,
    RpnQualityModel,
    SceneConfig,
    SceneTable,
    generate_dataset,
    generate_proposals,
    generate_scenes,
    load_dataset,
    proposal_features,
    quality_at,
    save_dataset,
)
import proposal_oracle
import scene_oracle
from scene_oracle import scene_table, scenes_of


class TestSceneGeneration:
    def test_fixed_count(self):
        cfg = SceneConfig(gt_count_weights={3: 1.0})
        scenes = generate_scenes(cfg, [42])
        assert scenes.boxes.shape == (3, 4) and scenes.classes.shape == (3,)
        w, h = cfg.extent
        x1, y1, x2, y2 = scenes.boxes.T
        assert np.all((0 <= x1) & (x1 < x2) & (x2 <= w))
        assert np.all((0 <= y1) & (y1 < y2) & (y2 <= h))
        assert np.all((1 <= scenes.classes) & (scenes.classes <= cfg.num_classes))

    def test_deterministic(self):
        cfg = SceneConfig()
        assert_same_scenes(generate_scenes(cfg, [9]), generate_scenes(cfg, [9]))

    def test_rejects_oversized_boxes(self):
        with pytest.raises(ValueError):
            SceneConfig(extent=(10, 10), box_size_range=(20, 30))

    def test_mixture_frequencies(self):
        cfg = SceneConfig(gt_count_weights={1: 0.5, 8: 0.5})
        counts = generate_scenes(cfg, [derive_seed("mix", i) for i in range(10000)]).counts
        frac_one = np.mean([c == 1 for c in counts])
        assert abs(frac_one - 0.5) < 0.02
        assert set(counts.tolist()) == {1, 8}

    @pytest.mark.parametrize("config", [
        SceneConfig(gt_count_weights={0: 0.3, 1: 0.2, 4: 0.5}),
        SceneConfig(gt_count_weights={2: 0.0, 3: 0.6, 7: 0.4, 9: 0.0}),
        SceneConfig(extent=(40.0, 120.0), box_size_range=(8.0, 60.0)),
        SceneConfig(num_classes=1),
    ], ids=["zero-instance-count", "zero-weight", "non-square-clipped", "one-class"])
    def test_table_equals_per_scene_generation(self, config):
        # the non-square extent clips the widest box to the scene's 40-wide extent
        seeds = [derive_seed("scene-oracle", i) for i in range(600)]
        alone = [scene_oracle.generate_scene(config, seed) for seed in seeds]
        expected = scene_table([(s.gt_boxes, s.gt_classes) for s in alone],
                               extent=config.extent)
        table = generate_scenes(config, seeds)
        assert_same_scenes(table, expected)
        drawn = set(table.counts.tolist())
        assert drawn == {c for c, w in config.gt_count_weights.items() if w > 0}


class TestSceneTable:
    """A table is checked once, where it is made; `take` gathers from a checked one."""

    def test_take_does_not_check_rows_again(self, monkeypatch):
        scenes = generate_dataset(SceneConfig(), 6, 3)
        index = [4, 0, 4, 5, 2]
        per_scene = scenes_of(scenes)
        expected = scene_table([(per_scene[i].gt_boxes, per_scene[i].gt_classes) for i in index],
                               ids=index, extent=SceneConfig().extent)
        empty = scene_table([])

        def refuse(boxes):
            raise AssertionError("take checked its rows again")

        monkeypatch.setattr(synthdata, "valid_boxes", refuse)
        assert_same_scenes(scenes.take(index), expected)
        assert_same_scenes(scenes.take([]), empty)
        with pytest.raises(AssertionError, match="checked its rows again"):
            SceneTable(scenes.ids, scenes.extents, scenes.offsets, scenes.boxes, scenes.classes)

    @pytest.mark.parametrize("row, column, value, message", [
        (3, 2, float("nan"), "ground-truth boxes must be finite and non-degenerate"),
        (3, 2, None, "ground-truth boxes must be finite and non-degenerate"),  # x2 = x1
        (3, None, 0, "ground-truth class ids must be >= 1"),
    ], ids=["nan", "degenerate", "background"])
    def test_construction_refuses_a_corrupt_row(self, row, column, value, message):
        scenes = generate_dataset(SceneConfig(gt_count_weights={3: 1.0}), 2, 9)
        boxes, classes = scenes.boxes.copy(), scenes.classes.copy()
        if column is None:
            classes[row] = value
        else:
            boxes[row, column] = boxes[row, 0] if value is None else value
        with pytest.raises(ValueError, match=f"scene 1: {message}"):  # row 3 is in scene 1
            SceneTable(scenes.ids, scenes.extents, scenes.offsets, boxes, classes)

    @pytest.mark.parametrize("name", SCENE_ARRAYS)
    def test_a_column_that_does_not_cast_safely_is_named(self, name):
        dtype = np.dtype(SCENE_ARRAYS[name][0])
        scenes = generate_dataset(SceneConfig(), 2, 9)
        columns = {n: getattr(scenes, n) for n in SCENE_ARRAYS}
        unsafe = ["complex128", "<U32", *(["float64", "uint64"] if dtype.kind == "i" else [])]
        for stored in unsafe:
            with pytest.raises(ValueError, match=f"^array '{name}' is {stored}, which does not "
                                                 f"cast safely to {dtype}$"):
                SceneTable(**columns | {name: columns[name].astype(stored)})
        narrow = columns[name].astype("int32" if dtype.kind == "i" else "float32")
        held = getattr(SceneTable(**columns | {name: narrow}), name)
        assert held.dtype == dtype and (held == narrow).all()

    @pytest.mark.parametrize("name", SCENE_ARRAYS)
    def test_a_column_of_another_shape_is_named(self, name):
        want = f"(rows{''.join(f', {d}' for d in SCENE_ARRAYS[name][1]) or ','})"
        scenes = generate_dataset(SceneConfig(), 2, 9)
        columns = {n: getattr(scenes, n) for n in SCENE_ARRAYS}
        a = columns[name]
        for shaped in (a[:, None], a[None] if a.ndim == 1 else a.ravel(), a[0]):
            with pytest.raises(ValueError, match=re.escape(
                    f"array '{name}' has shape {shaped.shape}, not {want}")):
                SceneTable(**columns | {name: shaped})

    def test_load_dataset_refuses_a_corrupt_row(self, tmp_path):
        path = tmp_path / "data.npz"
        scenes = generate_dataset(SceneConfig(gt_count_weights={3: 1.0}), 2, 9)
        arrays = {n: getattr(scenes, n) for n in SCENE_ARRAYS}
        arrays["boxes"] = arrays["boxes"].copy()
        arrays["boxes"][4, 1] = np.inf
        write_arrays(path, arrays)
        with pytest.raises(ValueError, match=f"corrupt scene cache {re.escape(str(path))}: "
                                             f"scene 1: ground-truth boxes must be finite"):
            load_dataset(path)


class TestQuality:
    def test_endpoints_and_midpoint(self):
        assert quality_at(0, 100) == 0.0
        assert quality_at(100, 100) == 1.0
        assert quality_at(50, 100) == 0.5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            quality_at(101, 100)


def assert_same_scenes(a, b):
    """Two scene tables equal array for array, dtypes included."""
    for name in ("ids", "extents", "offsets", "boxes", "classes"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), strict=True,
                                      err_msg=name)


def best_matches(scene, pool):
    """The best IoU and matched instance (-1 for background) of each proposal
    in `pool`, labeled as a one-pool block by `pool_max_iou` and
    `label_arrays` as `generate_proposals` labeled it, for one
    `scene_oracle.Scene`."""
    best, instance = pool_max_iou(pool.boxes, np.array([0, len(pool)]), scene.gt_boxes,
                                  np.array([0, len(scene.gt_boxes)]))
    classes, _, _ = label_arrays(best, instance, pool.boxes, scene.gt_boxes,
                                 scene.gt_classes, POS_IOU_THRESHOLD)
    return best, np.where(classes > 0, instance, -1)


def _scene(n=2, cls=2):
    boxes = [(10 + 30 * i, 10, 30 + 30 * i, 30) for i in range(n)]
    return scene_table([(boxes, [cls] * n)], ids=[1])


class TestProposals:
    def test_perfect_quality_zero_jitter(self):
        model = RpnQualityModel(jitter_start=0.6, jitter_end=0.0)
        pool = generate_proposals(_scene(), [1.0], model, generators([5]), num_classes=3)
        max_ious, matched = best_matches(scenes_of(_scene())[0], pool)
        # every instance keeps at least one exact copy
        for g in range(len(_scene().classes)):
            exact = (matched == g) & (max_ious == 1.0)
            assert exact.any()

    def test_zero_gt_scene(self):
        scene = scene_table([([], [])], ids=[2])
        model = RpnQualityModel()
        pool = generate_proposals(scene, [0.5], model, generators([3]), num_classes=3)
        assert len(pool) == model.bg_per_scene
        assert (pool.classes == 0).all()

    def test_deterministic(self):
        model = RpnQualityModel()
        a = generate_proposals(_scene(), [0.3], model, generators([7]), num_classes=3)
        b = generate_proposals(_scene(), [0.3], model, generators([7]), num_classes=3)
        np.testing.assert_array_equal(a.boxes, b.boxes)
        np.testing.assert_array_equal(a.features, b.features)
        with pytest.raises(TypeError):  # feature width never follows the scene's classes
            generate_proposals(_scene(), [0.3], model, generators([7]))

    def test_low_quality_means_low_overlap(self):
        # default starting jitter leaves the mean per-instance best IoU below 0.5
        model = RpnQualityModel()
        scenes = generate_scenes(SceneConfig(gt_count_weights={2: 1.0}),
                                 [derive_seed("lowq", i) for i in range(1000)])
        pools = generate_proposals(scenes, [0.0] * 1000, model,
                                   generators([derive_seed("lowq-p", i) for i in range(1000)]),
                                   num_classes=3)
        best = []
        for i, scene in enumerate(scenes_of(scenes)):
            max_ious, matched = best_matches(scene, pools.pool(i))
            for g in range(2):
                mask = matched == g
                best.append(max_ious[mask].max() if mask.any() else 0.0)
        assert np.mean(best) < 0.5

    def test_positive_count_increases_with_quality(self):
        model = RpnQualityModel()
        scenes = generate_scenes(SceneConfig(), [derive_seed("shortage", i) for i in range(300)])
        means = []
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            pools = generate_proposals(scenes, [q] * 300, model,
                                       generators([derive_seed("shortage-p", q, i)
                                                   for i in range(300)]),
                                       num_classes=3)
            means.append(np.mean([int((pools.pool(i).classes > 0).sum()) for i in range(300)]))
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_gt_count_correlates_with_positives_at_full_quality(self):
        model = RpnQualityModel()
        scenes = generate_scenes(SceneConfig(), [derive_seed("corr", i) for i in range(2000)])
        pools = generate_proposals(scenes, [1.0] * 2000, model,
                                   generators([derive_seed("corr-p", i) for i in range(2000)]),
                                   num_classes=3)
        gt_counts = scenes.counts
        pos_counts = [int((pools.pool(i).classes > 0).sum()) for i in range(2000)]
        rho = stats.spearmanr(gt_counts, pos_counts).statistic
        assert rho > 0.5


def oracle_scenes(n, kind):
    """`n` scenes cycling through four kinds from `kind` on: a drawn scene, a
    scene without ground truth, one with 12 instances, and one whose first
    instance is repeated under another class (tied IoUs across columns)."""
    scenes = []
    for i in range(n):
        seed = derive_seed("oracle", n, kind, i)
        which = (kind + i) % 4
        if which == 1:
            scenes.append(([], []))
            continue
        scene = generate_scenes(SceneConfig(gt_count_weights={12: 1.0} if which == 2
                                            else DEFAULT_GT_COUNT_WEIGHTS), [seed])
        boxes, classes = scene.boxes, scene.classes
        if which == 3:
            boxes = np.concatenate([boxes[:1], boxes])
            classes = np.concatenate([[classes[0] % 3 + 1], classes])
        scenes.append((boxes, classes))
    return scene_table(scenes)


class TestMatchesOracle:
    """The block path equals the per-pool generation it replaced, exactly."""

    @pytest.mark.parametrize("noise_sigma", [0.25, 0.0], ids=["noise", "noise-free"])
    @pytest.mark.parametrize("kind", range(4))
    @pytest.mark.parametrize("n", [1, 2, 32, 33, 64, 65, POOL_BLOCK, POOL_BLOCK + 1])
    def test_block_equals_pools_built_alone(self, n, kind, noise_sigma):
        scenes = oracle_scenes(n, kind)
        qualities = [(0.0, 0.5, 1.0)[(kind + i) % 3] for i in range(n)]
        seeds = [derive_seed("oracle-p", n, kind, i) for i in range(n)]
        model = RpnQualityModel(jitter_end=0.15)
        feat = FeatureModel(noise_sigma=noise_sigma)
        block = generate_proposals(scenes, qualities, model, generators(seeds), feat,
                                   num_classes=3, box_size_range=(8.0, 30.0))
        alone = [proposal_oracle.generate_proposals(scene, q, model, seed, feat, num_classes=3,
                                                    box_size_range=(8.0, 30.0))
                 for scene, q, seed in zip(scenes_of(scenes), qualities, seeds)]
        assert len(block.offsets) == n + 1
        assert len(block) == sum(len(pool) for pool in alone)
        np.testing.assert_array_equal(np.diff(block.offsets), [len(pool) for pool in alone])
        # and as blocks of at most 2 pools taking their generators from one pass
        rngs = generators(seeds)
        halves = [generate_proposals(scenes.take(range(lo, min(lo + 2, n))), qualities[lo:lo + 2],
                                     model, rngs, feat, num_classes=3, box_size_range=(8.0, 30.0))
                  for lo in range(0, n, 2)]
        for i, expected in enumerate(alone):
            for got in (block.pool(i), halves[i // 2].pool(i % 2)):
                for name in ("boxes", "classes", "reg_targets", "features"):
                    np.testing.assert_array_equal(getattr(got, name), getattr(expected, name),
                                                  strict=True, err_msg=f"pool {i} {name}")

    def test_ties_go_to_the_lowest_instance(self):
        # an exact copy of a repeated instance takes the first one's class
        scene = oracle_scenes(1, 3)
        pool = generate_proposals(scene, [1.0], RpnQualityModel(jitter_end=0.0),
                                  generators([1]), num_classes=3)
        copies = np.all(pool.boxes == scene.boxes[0], axis=1)
        assert copies.any() and (pool.classes[copies] == scene.classes[0]).all()
        assert scene.classes[1] != scene.classes[0]


def test_block_memory_stays_near_its_output():
    # the labeling passes allocate columns of the block's rows, never a
    # (rows, K) table against every instance slot of the largest scene
    scenes = generate_dataset(SCENE, POOL_BLOCK, 7, tag="eval")
    rngs = generators([derive_seed(7, "evalprop", i) for i in range(POOL_BLOCK)])
    tracemalloc.start()
    try:
        block = generate_proposals(scenes, [1.0] * POOL_BLOCK, RpnQualityModel(jitter_end=0.15),
                                   rngs, num_classes=SCENE.num_classes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(a.nbytes for a in (block.boxes, block.classes, block.reg_targets,
                                  block.features, block.offsets))
    assert peak < 4 * size, f"peak {peak / 1e6:.2f} MB for a {size / 1e6:.2f} MB block"


class TestFeatures:
    def test_background_noise_free_is_zero(self):
        feat = FeatureModel(noise_dims=4, noise_sigma=0.0)
        out = proposal_features(np.array([0]), np.array([0.3]),
                                feat.noise(np.random.default_rng(0), 1, 3))
        np.testing.assert_array_equal(out, np.zeros((1, 7)))

    def test_exact_copy_signal(self):
        feat = FeatureModel(noise_dims=4, noise_sigma=0.0)
        out = proposal_features(np.array([2]), np.array([1.0]),
                                feat.noise(np.random.default_rng(0), 1, 3))
        assert out[0, 1] == 1.0
        assert out[0, 0] == 0.0 and out[0, 2] == 0.0

    def test_noise_stddev(self):
        feat = FeatureModel(noise_dims=1, noise_sigma=0.3)
        out = proposal_features(np.zeros(100000, dtype=int), np.zeros(100000),
                                feat.noise(np.random.default_rng(3), 100000, 1))
        sd = out[:, 1].std()
        assert abs(sd - 0.3) / 0.3 < 0.02

    def test_rejects_negative_or_non_finite_noise(self):
        assert FeatureModel(noise_sigma=0.0).noise_sigma == 0.0  # noise-free stays valid
        for sigma in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="noise_sigma must be finite and >= 0"):
                FeatureModel(noise_sigma=sigma)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        drawn = generate_dataset(SceneConfig(), 5, 123)
        scenes = scene_table([(s.gt_boxes, s.gt_classes) for s in scenes_of(drawn)] + [([], [])])
        path = tmp_path / "data.npz"
        save_dataset(scenes, path)
        assert_same_scenes(load_dataset(path), scenes)

    def test_empty_record_between_two_round_trips(self, tmp_path):
        drawn = scenes_of(generate_dataset(SceneConfig(gt_count_weights={3: 1.0}), 2, 9))
        scenes = scene_table([(drawn[0].gt_boxes, drawn[0].gt_classes), ([], []),
                              (drawn[1].gt_boxes, drawn[1].gt_classes)])
        path = tmp_path / "data.npz"
        save_dataset(scenes, path)
        assert_same_scenes(load_dataset(path), scenes)

    @pytest.mark.parametrize("tag, n, sha256", [
        ("train", 2000, "f82bc9c7e557d789276b37b600d47742271541f02a3992f6f649a611351ac9bf"),
        ("eval", 500, "af51b59111146f29f7b95d0417f45f2810519b09efd411c7a8dc0b9540f015ec"),
    ], ids=["train-2000", "eval-500"])
    def test_desk_cache_bytes_are_pinned(self, tmp_path, tag, n, sha256):
        # the dataset_<tag>_*.npz file that `detlab train --config configs/desk.cfg
        # --seed 7` writes; zip entries carry a fixed timestamp, so the bytes are
        # those of the arrays alone
        path = tmp_path / "data.npz"
        scenes = generate_dataset(SCENE, n, 7, tag=tag)
        save_dataset(scenes, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
        assert_same_scenes(load_dataset(path), scenes)

    def test_missing_array_names_file_and_array(self, tmp_path):
        path = tmp_path / "data.npz"
        scenes = generate_dataset(SceneConfig(gt_count_weights={3: 1.0}), 2, 9)
        write_arrays(path, {name: getattr(scenes, name) for name in SCENE_ARRAYS
                            if name != "offsets"})
        with pytest.raises(ValueError, match=f"array file {re.escape(str(path))} holds no "
                                             f"array 'offsets'"):
            load_dataset(path)

    @pytest.mark.parametrize("name", SCENE_ARRAYS)
    def test_mismatched_lengths_name_file(self, tmp_path, name):
        path = tmp_path / "data.npz"
        scenes = generate_dataset(SceneConfig(gt_count_weights={3: 1.0}), 2, 9)
        arrays = {n: getattr(scenes, n) for n in SCENE_ARRAYS}
        arrays[name] = arrays[name][:-1]  # one scene or instance short
        write_arrays(path, arrays)
        with pytest.raises(ValueError, match=f"corrupt scene cache {re.escape(str(path))}: "
                                             f"mismatched ground-truth array lengths"):
            load_dataset(path)

    @pytest.mark.parametrize("name, dtype", [
        ("ids", "float64"), ("offsets", "float64"), ("classes", "float64"), ("ids", "uint64"),
    ])
    def test_unsafe_integer_cast_names_file_and_array(self, tmp_path, name, dtype):
        # a cast would load them changed: classes 1.7 as 1, an id 2**63 as -2**63
        path = tmp_path / "data.npz"
        scenes = generate_dataset(SceneConfig(gt_count_weights={3: 1.0}), 2, 9)
        arrays = {n: getattr(scenes, n) for n in SCENE_ARRAYS}
        arrays[name] = arrays[name].astype(dtype) + (0.7 if name == "classes" else 0)
        if dtype == "uint64":
            arrays[name][-1] = 2**63
        write_arrays(path, arrays)
        with pytest.raises(ValueError, match=f"corrupt scene cache {re.escape(str(path))}: "
                                             f"array '{name}' is {dtype}, which does not cast "
                                             f"safely to int64"):
            load_dataset(path)

    def test_decreasing_offsets_rejected(self, tmp_path):
        path = tmp_path / "data.npz"
        scenes = generate_dataset(SceneConfig(gt_count_weights={3: 1.0}), 3, 9)
        arrays = {n: getattr(scenes, n) for n in SCENE_ARRAYS}
        arrays["offsets"] = np.array([0, 5, 4, 9])  # scene 1 would hold -1 instances
        write_arrays(path, arrays)
        with pytest.raises(ValueError, match="mismatched ground-truth array lengths"):
            load_dataset(path)

    def test_dataset_scene_ids_are_indices(self):
        scenes = generate_dataset(SceneConfig(), 4, 55)
        assert scenes.ids.tolist() == [0, 1, 2, 3]
