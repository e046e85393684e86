"""Synthetic scenes and simulated region proposals with a training-time quality ramp.

Early in training the simulated proposal source is noisy (large jitter), so few
proposals overlap any object well enough to count as positive; as quality rises
the jitter shrinks and positives become plentiful. Scene difficulty is driven
by a configurable mixture over ground-truth counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .files import atomic_write
from .geometry import check_boxes, iou, iou_matrix, label_arrays  # iou_matrix: perfbench patches it here
from .seeding import derive_seed

POS_IOU_THRESHOLD = 0.5

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
        total = sum(self.gt_count_weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"gt_count_weights must sum to 1, got {total}")
        if any(c < 0 for c in self.gt_count_weights):
            raise ValueError("gt counts must be non-negative")
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
        if not (self.jitter_start >= self.jitter_end >= 0.0):
            raise ValueError("jitter must be non-negative and non-increasing")
        if self.fg_per_gt < 1 or self.bg_per_scene < 1:
            raise ValueError("proposal counts must be >= 1")

    def sigma(self, q: float) -> float:
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
        """(rows, dim) gaussian feature noise; nothing is drawn when noise_sigma is 0."""
        shape = (rows, self.dim(num_classes))
        if self.noise_sigma == 0:
            return np.zeros(shape)
        return rng.normal(0.0, self.noise_sigma, size=shape)


class Scene:
    """Struct-of-arrays ground truth of one scene: (K, 4) corner boxes and
    their (K,) class ids, which start at 1 (0 is background)."""

    def __init__(self, id, extent, gt_boxes, gt_classes):
        self.id = id
        self.extent = extent
        self.gt_boxes = check_boxes(gt_boxes, "ground-truth boxes")
        self.gt_classes = np.asarray(gt_classes, dtype=np.int64)
        if len(self.gt_classes) != len(self.gt_boxes):
            raise ValueError("mismatched ground-truth array lengths")
        if np.any(self.gt_classes < 1):
            raise ValueError("ground-truth class ids must be >= 1")


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


def generate_scene(config: SceneConfig, rng_seed: int) -> Scene:
    """Draw a scene whose instance count follows the configured mixture."""
    rng = np.random.default_rng(rng_seed)
    counts = sorted(config.gt_count_weights)
    weights = np.array([config.gt_count_weights[c] for c in counts])
    count = int(rng.choice(counts, p=weights / weights.sum()))
    lo, hi = config.box_size_range
    w_ext, h_ext = config.extent
    boxes, classes = [], []
    for _ in range(count):
        bw = rng.uniform(lo, min(hi, w_ext))
        bh = rng.uniform(lo, min(hi, h_ext))
        x1 = rng.uniform(0.0, w_ext - bw)
        y1 = rng.uniform(0.0, h_ext - bh)
        classes.append(int(rng.integers(1, config.num_classes + 1)))
        boxes.append((x1, y1, x1 + bw, y1 + bh))
    return Scene(rng_seed & 0x7FFFFFFF, config.extent, boxes, classes)


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
    scenes: Sequence[Scene],
    qualities: Sequence[float],
    model: RpnQualityModel,
    rng_seeds: Sequence[int],
    feat: FeatureModel = FeatureModel(),
    *,
    num_classes: int,
    box_size_range: tuple[float, float] = SceneConfig.box_size_range,
    pos_threshold: float = POS_IOU_THRESHOLD,
) -> ProposalSet:
    """A block of simulated proposal pools, one per scene at its quality and
    seed: jittered copies of each instance plus uniform background boxes,
    labeled and featurized.

    Each pool draws from its own `default_rng(seed)` exactly as a pool built
    alone would: the jitter, four background uniforms, then the feature noise.
    The geometry then runs once over the block's rows.
    """
    if not len(scenes) == len(qualities) == len(rng_seeds) > 0:
        raise ValueError("need one quality and one seed per scene, for at least one scene")
    lo, hi = box_size_range
    n_bg = model.bg_per_scene
    gt_counts = [len(scene.gt_classes) for scene in scenes]
    fg_counts = [n * model.fg_per_gt for n in gt_counts]
    sizes = [n + n_bg for n in fg_counts]
    sigmas, normals, uniforms, noise = [], [], [], []
    for scene, q, seed, n_fg in zip(scenes, qualities, rng_seeds, fg_counts):
        if not 0.0 <= q <= 1.0:
            raise ValueError("quality must lie in [0, 1]")
        rng = np.random.default_rng(seed)
        w_ext, h_ext = scene.extent
        sigmas.append(model.sigma(q))
        normals.append(rng.normal(0.0, 1.0, size=(n_fg, 4)) if n_fg else np.zeros((0, 4)))
        uniforms.append((rng.uniform(lo, min(hi, w_ext), size=n_bg),
                         rng.uniform(lo, min(hi, h_ext), size=n_bg),
                         rng.uniform(0.0, 1.0, size=n_bg),
                         rng.uniform(0.0, 1.0, size=n_bg)))
        noise.append(feat.noise(rng, n_fg + n_bg, num_classes))

    gt_boxes = np.concatenate([scene.gt_boxes for scene in scenes])
    gt_classes = np.concatenate([scene.gt_classes for scene in scenes])
    fg = _jitter_boxes(gt_boxes, model.fg_per_gt, np.repeat(sigmas, gt_counts),
                       np.concatenate(normals))
    bw, bh, ux, uy = map(np.concatenate, zip(*uniforms))
    extents = np.repeat(np.array([scene.extent for scene in scenes], dtype=np.float64),
                        n_bg, axis=0)
    bx = ux * (extents[:, 0] - bw)
    by = uy * (extents[:, 1] - bh)
    bg = np.stack([bx, by, bx + bw, by + bh], axis=1)
    fg_starts = np.cumsum([0, *fg_counts]).tolist()
    boxes = np.concatenate([part for i in range(len(scenes)) for part in (  # pool by pool,
        fg[fg_starts[i]:fg_starts[i + 1]], bg[i * n_bg:(i + 1) * n_bg])])  # fg then bg

    # One IoU pass per ground-truth column, each row against its own scene.
    # A scene with fewer instances gets all-zero boxes in the later columns:
    # a degenerate box at the origin has IoU exactly 0 with every valid box.
    padded = np.zeros((len(scenes), max(gt_counts), 4))
    for i, scene in enumerate(scenes):
        padded[i, :gt_counts[i]] = scene.gt_boxes
    first_gt = np.cumsum(gt_counts) - gt_counts
    ious = np.empty((len(boxes), padded.shape[1]))
    for k in range(padded.shape[1]):
        ious[:, k] = iou(boxes, np.repeat(padded[:, k], sizes, axis=0))
    classes, max_ious, nearest, reg = label_arrays(
        ious, boxes, gt_boxes, gt_classes, pos_threshold, np.repeat(first_gt, sizes))
    # the feature signal follows the nearest instance, below the threshold too
    signal_classes = np.zeros(len(boxes), dtype=np.int64)
    overlaps = np.flatnonzero(nearest >= 0)
    signal_classes[overlaps] = gt_classes[nearest[overlaps]]
    features = proposal_features(signal_classes, max_ious, np.concatenate(noise))
    return ProposalSet(boxes, classes, reg, features, np.cumsum([0, *sizes]))


def generate_dataset(config: SceneConfig, n_scenes: int, base_seed: int,
                     tag: str = "scene") -> list[Scene]:
    """Scenes with per-scene derived seeds; embarrassingly parallel by design."""
    scenes = []
    for i in range(n_scenes):
        seed = int(np.random.default_rng(derive_seed(base_seed, tag, i)).integers(0, 2**63))
        scenes.append(generate_scene(config, seed))
        scenes[-1].id = i
    return scenes


# --- line-delimited dataset serialization ----------------------------------

def save_dataset(scenes: Iterable[Scene], path) -> None:
    """One record per scene: a header line, then one line per instance.

    Floats are written with `repr` so the round trip is lossless.
    """
    lines = []
    for scene in scenes:
        lines.append(f"scene {scene.id} {scene.extent[0]!r} {scene.extent[1]!r} "
                     f"{len(scene.gt_classes)}")
        # .tolist() gives Python scalars, whose repr is the bare number
        for cls, box in zip(scene.gt_classes.tolist(), scene.gt_boxes.tolist()):
            lines.append(f"inst {cls} " + " ".join(map(repr, box)))
    with atomic_write(path) as fh:
        fh.write("".join(line + "\n" for line in lines))


def _fields(lines: list[str], i: int, kind: str, n: int) -> list[str]:
    if i >= len(lines):
        raise ValueError("file ends inside a scene record")
    parts = lines[i].split()
    if len(parts) != n or parts[0] != kind:
        raise ValueError(f"expected a {kind!r} line of {n} fields, got {lines[i]!r}")
    return parts


def load_dataset(path) -> list[Scene]:
    """Inverse of :func:`save_dataset`; a short or malformed record raises
    ValueError naming its line."""
    lines = Path(path).read_text().splitlines()
    scenes = []
    i = 0
    try:
        while i < len(lines):
            head = _fields(lines, i, "scene", 5)
            boxes, classes = [], []
            for _ in range(int(head[4])):
                i += 1
                p = _fields(lines, i, "inst", 6)
                classes.append(int(p[1]))
                boxes.append([float(v) for v in p[2:]])
            scenes.append(Scene(int(head[1]), (float(head[2]), float(head[3])),
                                boxes, classes))
            i += 1
    except ValueError as exc:
        raise ValueError(f"line {i + 1}: {exc}") from exc
    return scenes
