"""Synthetic scenes and simulated region proposals with a training-time quality ramp.

Early in training the simulated proposal source is noisy (large jitter), so few
proposals overlap any object well enough to count as positive; as quality rises
the jitter shrinks and positives become plentiful. Scene difficulty is driven
by a mixture over ground-truth counts (`SceneConfig.gt_count_weights`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .files import read_arrays, write_arrays
from .geometry import iou, iou_matrix, label_arrays, valid_boxes  # iou_matrix: perfbench patches it here
from .seeding import derive_seed, generators

POS_IOU_THRESHOLD = 0.5
SCENE_STREAM = 1  # how generate_dataset draws; a new way takes the next number

DEFAULT_GT_COUNT_WEIGHTS = {
    1: 0.12, 2: 0.12, 3: 0.12,
    4: 0.08, 5: 0.08, 6: 0.08,
    8: 0.14, 10: 0.13, 12: 0.13,
}


@dataclass(frozen=True)
class SceneConfig:
    extent: tuple[float, float] = (100.0, 100.0)
    num_classes: int = 3
    gt_count_weights: dict[int, float] = field(
        default_factory=lambda: dict(DEFAULT_GT_COUNT_WEIGHTS)
    )
    box_size_range: tuple[float, float] = (8.0, 30.0)

    def __post_init__(self):
        if self.num_classes < 1:
            raise ValueError("need at least one foreground class")
        if not all(0.0 <= w < np.inf for w in self.gt_count_weights.values()):
            raise ValueError(f"gt_count_weights must be finite and >= 0, got "
                             f"{self.gt_count_weights}")
        total = sum(self.gt_count_weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"gt_count_weights must sum to 1, got {total}")
        if any(c < 0 for c in self.gt_count_weights):
            raise ValueError("gt counts must be non-negative")
        if not all(0.0 < e < np.inf for e in self.extent):
            raise ValueError(f"scene extent must be finite and > 0, got {self.extent}")
        lo, hi = self.box_size_range
        if not (0 < lo <= hi):
            raise ValueError("invalid box size range")
        if lo > min(self.extent):
            raise ValueError("minimum box size exceeds scene extent")


@dataclass(frozen=True)
class RpnQualityModel:
    """Jitter magnitudes (as fractions of box size) and proposal counts."""

    jitter_start: float = 0.6
    jitter_end: float = 0.03
    fg_per_gt: int = 8
    bg_per_scene: int = 56

    def __post_init__(self):
        if not self.jitter_start < np.inf:
            raise ValueError(f"jitter_start must be finite, got {self.jitter_start}")
        if not (self.jitter_start >= self.jitter_end >= 0.0):
            raise ValueError("jitter must be non-negative and non-increasing")
        if self.fg_per_gt < 1 or self.bg_per_scene < 1:
            raise ValueError("proposal counts must be >= 1")

    def sigma(self, q):
        """The jitter at quality q, a float or an array of them."""
        return self.jitter_start + q * (self.jitter_end - self.jitter_start)


@dataclass(frozen=True)
class FeatureModel:
    """Surrogate RoI features: IoU-scaled class one-hot plus gaussian noise."""

    noise_dims: int = 8
    noise_sigma: float = 0.25

    def __post_init__(self):
        if self.noise_dims < 0:
            raise ValueError("noise_dims must be >= 0")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be finite and >= 0")

    def dim(self, num_classes: int) -> int:
        return num_classes + self.noise_dims

    def noise(self, rng: np.random.Generator, rows: int, num_classes: int) -> np.ndarray:
        """(rows, dim) gaussian feature noise, +0.0 everywhere when noise_sigma is 0."""
        return rng.normal(0.0, self.noise_sigma, size=(rows, self.dim(num_classes)))


class SceneTable:
    """Struct-of-arrays ground truth of a sequence of scenes: scene i has id
    `ids[i]`, extent `extents[i]` (w, h) and the instances at rows
    `offsets[i]:offsets[i + 1]` of `boxes`, (K, 4) corner boxes, and of
    `classes`, (K,) class ids from 1 (0 is background)."""

    def __init__(self, ids, extents, offsets, boxes, classes):
        self.ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        self.extents = np.asarray(extents, dtype=np.float64).reshape(-1, 2)
        self.offsets = np.asarray(offsets, dtype=np.int64).reshape(-1)
        self.boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        self.classes = np.asarray(classes, dtype=np.int64).reshape(-1)
        if not len(self.ids) == len(self.extents) == len(self.offsets) - 1 or not (
                self.offsets[0] == 0 and self.offsets[-1] == len(self.boxes) == len(self.classes)
                and (np.diff(self.offsets) >= 0).all()):
            raise ValueError("mismatched ground-truth array lengths")
        bad_box = ~valid_boxes(self.boxes)
        if (bad := bad_box | (self.classes < 1)).any():
            i = int(np.searchsorted(self.offsets, np.argmax(bad), side="right")) - 1
            raise ValueError(f"scene {self.ids[i]}: " + (
                "ground-truth boxes must be finite and non-degenerate"
                if bad_box[self.offsets[i]:self.offsets[i + 1]].any()
                else "ground-truth class ids must be >= 1"))

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def counts(self) -> np.ndarray:
        """(n,) instances per scene."""
        return np.diff(self.offsets)

    def take(self, index) -> "SceneTable":
        """The scenes at positions `index`, in that order. Rows gathered from
        this valid table are valid, so they are not checked again."""
        index = np.asarray(index, dtype=np.int64)
        starts = self.offsets[index]
        counts = self.offsets[index + 1] - starts
        offsets = np.concatenate([[0], np.cumsum(counts)])
        rows = np.repeat(starts - offsets[:-1], counts) + np.arange(offsets[-1])
        table = object.__new__(SceneTable)
        table.ids, table.extents = self.ids[index], self.extents.take(index, axis=0)
        table.offsets = offsets
        table.boxes, table.classes = self.boxes.take(rows, axis=0), self.classes[rows]
        return table


class ProposalSet:
    """Struct-of-arrays labeled, featurized proposals of one or more pools, in
    pool order: pool i holds rows `offsets[i]:offsets[i + 1]`."""

    def __init__(self, boxes, classes, reg_targets, features, offsets=None):
        self.boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        self.classes = np.asarray(classes, dtype=np.int64)
        self.reg_targets = np.asarray(reg_targets, dtype=np.float64).reshape(-1, 4)
        self.features = np.asarray(features, dtype=np.float64)
        n = len(self.classes)
        if not len(self.boxes) == len(self.reg_targets) == len(self.features) == n:
            raise ValueError("mismatched proposal array lengths")
        self.offsets = np.asarray((0, n) if offsets is None else offsets)

    def __len__(self) -> int:
        return len(self.classes)

    def pool(self, i: int) -> "ProposalSet":
        """Pool i alone, as views of this set's arrays."""
        rows = slice(self.offsets[i], self.offsets[i + 1])
        return ProposalSet(self.boxes[rows], self.classes[rows], self.reg_targets[rows],
                           self.features[rows])


def generate_scenes(config: SceneConfig, rng_seeds: Sequence[int]) -> SceneTable:
    """Scene i, with id i, drawn from its own `default_rng(rng_seeds[i])`
    (`seeding.generators`): an instance count from the configured mixture,
    then per instance four uniforms (width, height, x1, y1) and a class."""
    counts = sorted(config.gt_count_weights)
    weights = np.array([config.gt_count_weights[c] for c in counts])
    cdf = (weights / weights.sum()).cumsum()  # as Generator.choice builds it
    cdf /= cdf[-1]
    n_inst, uniforms, classes = [], [], []
    for rng in generators(rng_seeds):
        n_inst.append(counts[cdf.searchsorted(rng.random(), side="right")])
        for _ in range(n_inst[-1]):
            uniforms.append(rng.random(4))
            classes.append(rng.integers(1, config.num_classes + 1))
    u = np.reshape(uniforms, (-1, 4))
    (lo, hi), extent = config.box_size_range, np.array(config.extent)
    # each of the four by Generator.uniform's own low + (high - low) * u, to the bit
    size = lo + (np.minimum(hi, extent) - lo) * u[:, :2]
    corner = (extent - size) * u[:, 2:]
    return SceneTable(np.arange(len(n_inst)), np.tile(extent, (len(n_inst), 1)),
                      np.cumsum([0, *n_inst]), np.hstack([corner, corner + size]),
                      np.array(classes, dtype=np.int64))


def quality_at(t: int, total_steps: int) -> float:
    """Linear proposal-quality ramp from 0 at the first step to 1 at the last."""
    if not (0 <= t <= total_steps):
        raise ValueError(f"step {t} outside [0, {total_steps}]")
    return t / total_steps


def proposal_features(classes: np.ndarray, max_ious: np.ndarray,
                      noise: np.ndarray) -> np.ndarray:
    """Features for labeled proposals: `noise` with, added in place, each
    proposal's overlap in the dimension of the class given in `classes`.

    Given the class of the max-IoU ground truth, near-miss proposals below the
    positive threshold still look partly like their class. Proposals of class
    0 (zero overlap) are pure noise.
    """
    rows = np.flatnonzero(classes > 0)
    noise[rows, classes[rows] - 1] += max_ious[rows]
    return noise


def _jitter_boxes(gt_boxes: np.ndarray, copies: int, sigma: np.ndarray,
                  normal: np.ndarray) -> np.ndarray:
    """`copies` copies of each box, moved by `normal` (one standard-normal row
    per copy) times `sigma` (one per box) of the box's width and height."""
    boxes = np.repeat(gt_boxes, copies, axis=0)
    sigma = np.repeat(sigma, copies)
    w = boxes[:, 2] - boxes[:, 0]
    h = boxes[:, 3] - boxes[:, 1]
    scale = np.stack([sigma * w, sigma * h, sigma * w, sigma * h], axis=1)
    jittered = boxes + normal * scale
    # heavy jitter can cross the corners; repair to keep boxes valid
    x1 = np.minimum(jittered[:, 0], jittered[:, 2])
    x2 = np.maximum(jittered[:, 0], jittered[:, 2])
    y1 = np.minimum(jittered[:, 1], jittered[:, 3])
    y2 = np.maximum(jittered[:, 1], jittered[:, 3])
    x2 = np.maximum(x2, x1 + 0.1)
    y2 = np.maximum(y2, y1 + 0.1)
    return np.stack([x1, y1, x2, y2], axis=1)


def generate_proposals(
    scenes: SceneTable,
    qualities: Sequence[float],
    model: RpnQualityModel,
    rngs: Iterable[np.random.Generator],
    feat: FeatureModel = FeatureModel(),
    *,
    num_classes: int,
    box_size_range: tuple[float, float] = SceneConfig.box_size_range,
    pos_threshold: float = POS_IOU_THRESHOLD,
) -> ProposalSet:
    """A block of simulated proposal pools, one per scene at its quality and
    generator: jittered copies of each instance plus uniform background
    boxes, labeled and featurized.

    Pool i draws from the i-th generator taken from `rngs` (say, a
    `seeding.generators` pass, which may hold the next blocks' too) exactly
    as a pool built alone would: the jitter, 4 * bg_per_scene background
    uniforms, then noise. The geometry then runs once over the block's rows.
    """
    q = np.asarray(qualities, dtype=np.float64)
    if not len(scenes) == len(q) > 0:
        raise ValueError("need one quality per scene, for at least one scene")
    if not ((q >= 0.0) & (q <= 1.0)).all():
        raise ValueError("quality must lie in [0, 1]")
    lo, hi = box_size_range
    n_bg = model.bg_per_scene
    gt_counts = scenes.counts
    fg_counts = gt_counts * model.fg_per_gt
    sizes = fg_counts + n_bg
    normals, uniforms, noise = [], [], []
    # zip takes a count before a generator, so it stops without taking one
    for n_fg, rng in zip(fg_counts.tolist(), rngs):
        normals.append(rng.normal(0.0, 1.0, size=(n_fg, 4)))
        uniforms.append(rng.random(4 * n_bg))
        noise.append(feat.noise(rng, n_fg + n_bg, num_classes))
    if len(noise) < len(scenes):
        raise ValueError(f"{len(noise)} generators for {len(scenes)} scenes")

    gt_boxes, gt_classes = scenes.boxes, scenes.classes
    fg = _jitter_boxes(gt_boxes, model.fg_per_gt, np.repeat(model.sigma(q), gt_counts),
                       np.concatenate(normals))
    u, extents = np.reshape(uniforms, (len(scenes), 4, n_bg)), scenes.extents[:, :, None]
    # width and height by Generator.uniform's own low + (high - low) * u, to the bit
    size = lo + (np.minimum(hi, extents) - lo) * u[:, :2]
    corner = u[:, 2:] * (extents - size)
    bg = np.concatenate([corner, corner + size], axis=1).transpose(0, 2, 1).reshape(-1, 4)
    # pool by pool, fg then bg: one gather of the 2S (pool, part) runs of rows
    # from where each starts in the stacked (fg, bg) table
    runs = np.stack([fg_counts, np.full(len(scenes), n_bg)], axis=1).ravel()
    run_from = np.stack([np.cumsum(fg_counts) - fg_counts,
                         len(fg) + n_bg * np.arange(len(scenes))], axis=1).ravel()
    rows = np.repeat(run_from - (np.cumsum(runs) - runs), runs) + np.arange(runs.sum())
    boxes = np.concatenate([fg, bg]).take(rows, axis=0)

    # One IoU pass over the block, each row against every column of its own
    # scene. A scene with fewer instances gets all-zero boxes in the later
    # columns: a degenerate box at the origin has IoU exactly 0 with every valid box.
    first_gt = scenes.offsets[:-1]
    padded = np.zeros((len(scenes), gt_counts.max(), 4))
    inst_scene = np.repeat(np.arange(len(scenes)), gt_counts)
    padded[inst_scene, np.arange(len(gt_classes)) - first_gt[inst_scene]] = gt_boxes
    ious = iou(boxes[:, None], np.repeat(padded, sizes, axis=0))
    classes, max_ious, nearest, reg = label_arrays(
        ious, boxes, gt_boxes, gt_classes, pos_threshold, np.repeat(first_gt, sizes))
    # the feature signal follows the nearest instance, below the threshold too
    signal_classes = np.zeros(len(boxes), dtype=np.int64)
    overlaps = np.flatnonzero(nearest >= 0)
    signal_classes[overlaps] = gt_classes[nearest[overlaps]]
    features = proposal_features(signal_classes, max_ious, np.concatenate(noise))
    return ProposalSet(boxes, classes, reg, features, np.cumsum([0, *sizes]))


def generate_dataset(config: SceneConfig, n_scenes: int, base_seed: int,
                     tag: str = "scene") -> SceneTable:
    """Scenes 0, 1, ..., each from a seed derived from (base_seed, tag, its id)."""
    return generate_scenes(config, [int(rng.integers(0, 2**63)) for rng in generators(
        [derive_seed(base_seed, tag, i) for i in range(n_scenes)])])


# --- scene cache -------------------------------------------------------------

SCENE_ARRAYS = ("ids", "extents", "offsets", "boxes", "classes")  # SceneTable's arguments


def save_dataset(scenes: SceneTable, path) -> None:
    """Writes the table's five arrays as one `.npz` file (`files.write_arrays`)."""
    write_arrays(path, {name: getattr(scenes, name) for name in SCENE_ARRAYS})


def load_dataset(path) -> SceneTable:
    """Inverse of :func:`save_dataset`; every fault raises ValueError naming the file."""
    arrays = read_arrays(path)
    columns = [arrays[name] for name in SCENE_ARRAYS]
    # SceneTable casts unsafely, so float classes would load truncated, uint64 ids wrapped
    if bad := [name for name in ("ids", "offsets", "classes")
               if not np.can_cast(arrays[name].dtype, np.int64)]:
        raise ValueError(f"corrupt scene cache {path}: array {bad[0]!r} is "
                         f"{arrays[bad[0]].dtype}, which does not cast safely to int64")
    try:
        scenes = SceneTable(*columns)
    except ValueError as exc:
        raise ValueError(f"corrupt scene cache {path}: {exc}") from exc
    # what generate_dataset guarantees, and a SceneTable of taken rows need not hold
    box_extents = np.repeat(scenes.extents, scenes.counts, axis=0)
    inside = (scenes.boxes[:, :2] >= 0.0) & (scenes.boxes[:, 2:] <= box_extents)
    for name, bad, rule in (
            ("ids", scenes.ids != np.arange(len(scenes)), "the ids must be 0, 1, ... in order"),
            ("extents", ~((scenes.extents > 0.0) & (scenes.extents < np.inf)).all(axis=1),
             "extents must be finite and positive"),
            ("boxes", ~inside.all(axis=1), "boxes must lie inside their scene's extent")):
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(f"corrupt scene cache {path}: array {name!r} row {row} is "
                             f"{getattr(scenes, name)[row]}, but {rule}")
    return scenes
