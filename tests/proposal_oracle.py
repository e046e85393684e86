"""Slow reference for proposal generation: `generate_proposals` as it was when
each pool was built alone, kept unchanged so that the block path in
`detlab.synthdata` can be checked against it for exact equality.

`ProposalSet`, `label_arrays`, `proposal_features`, `_jitter_boxes` and
`generate_proposals` are the old implementation verbatim: one pool per call,
one `iou_matrix` per pool, and `np.argmax` for the max-IoU ground truth. Its
scene is one `scene_oracle.Scene` of a table.
"""

from __future__ import annotations

import numpy as np

from detlab.geometry import encode_deltas_array, iou_matrix
from detlab.synthdata import POS_IOU_THRESHOLD, FeatureModel, RpnQualityModel, SceneConfig
from scene_oracle import Scene


class ProposalSet:
    """Struct-of-arrays view of a scene's labeled, featurized proposals."""

    def __init__(self, boxes, classes, reg_targets, features):
        self.boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        self.classes = np.asarray(classes, dtype=np.int64)
        self.reg_targets = np.asarray(reg_targets, dtype=np.float64).reshape(-1, 4)
        self.features = np.asarray(features, dtype=np.float64)
        n = len(self.classes)
        if not len(self.boxes) == len(self.reg_targets) == len(self.features) == n:
            raise ValueError("mismatched proposal array lengths")

    def __len__(self) -> int:
        return len(self.classes)


def label_arrays(
    ious: np.ndarray,
    proposal_boxes: np.ndarray,
    gt_boxes: np.ndarray,
    gt_classes: np.ndarray,
    pos_threshold: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Assign each proposal its max-IoU ground truth, or background below
    `pos_threshold`, given the (N, M) proposal-by-ground-truth `ious`.

    Returns (classes, max_ious, matched, reg_targets) where `matched` is -1 for
    background and `reg_targets` rows are zero for background.
    """
    if not (0.0 < pos_threshold < 1.0):
        raise ValueError("pos_threshold must lie in (0, 1)")
    proposal_boxes = np.asarray(proposal_boxes, dtype=np.float64).reshape(-1, 4)
    n = proposal_boxes.shape[0]
    if len(gt_boxes) == 0:
        return (
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=np.float64),
            np.full(n, -1, dtype=np.int64),
            np.zeros((n, 4), dtype=np.float64),
        )
    # np.argmax breaks ties toward the lowest ground-truth index
    matched = np.argmax(ious, axis=1)
    max_ious = ious[np.arange(n), matched]
    positive = max_ious >= pos_threshold
    classes = np.where(positive, np.asarray(gt_classes, dtype=np.int64)[matched], 0)
    matched = np.where(positive, matched, -1)
    reg = np.zeros((n, 4), dtype=np.float64)
    if np.any(positive):
        reg[positive] = encode_deltas_array(
            proposal_boxes[positive], np.asarray(gt_boxes, dtype=np.float64)[matched[positive]]
        )
    return classes, max_ious, matched, reg


def proposal_features(
    classes: np.ndarray,
    max_ious: np.ndarray,
    num_classes: int,
    feat: FeatureModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """Features for labeled proposals.

    The class dimension of the max-IoU ground truth carries the overlap value,
    so near-miss proposals below the positive threshold still look partly like
    their class. Proposals with zero overlap are pure noise.
    """
    classes = np.asarray(classes, dtype=np.int64)
    max_ious = np.asarray(max_ious, dtype=np.float64)
    n = len(classes)
    d = feat.dim(num_classes)
    out = rng.normal(0.0, feat.noise_sigma, size=(n, d)) if feat.noise_sigma > 0 else np.zeros((n, d))
    pos = classes > 0
    out[pos, classes[pos] - 1] += max_ious[pos]
    return out


def _jitter_boxes(gt_boxes: np.ndarray, copies: int, sigma: float,
                  rng: np.random.Generator) -> np.ndarray:
    boxes = np.repeat(gt_boxes, copies, axis=0)
    w = boxes[:, 2] - boxes[:, 0]
    h = boxes[:, 3] - boxes[:, 1]
    scale = np.stack([sigma * w, sigma * h, sigma * w, sigma * h], axis=1)
    jittered = boxes + rng.normal(0.0, 1.0, size=boxes.shape) * scale
    # heavy jitter can cross the corners; repair to keep boxes valid
    x1 = np.minimum(jittered[:, 0], jittered[:, 2])
    x2 = np.maximum(jittered[:, 0], jittered[:, 2])
    y1 = np.minimum(jittered[:, 1], jittered[:, 3])
    y2 = np.maximum(jittered[:, 1], jittered[:, 3])
    x2 = np.maximum(x2, x1 + 0.1)
    y2 = np.maximum(y2, y1 + 0.1)
    return np.stack([x1, y1, x2, y2], axis=1)


def generate_proposals(
    scene: Scene,
    q: float,
    model: RpnQualityModel,
    rng_seed: int,
    feat: FeatureModel = FeatureModel(),
    *,
    num_classes: int,
    box_size_range: tuple[float, float] = SceneConfig.box_size_range,
    pos_threshold: float = POS_IOU_THRESHOLD,
) -> ProposalSet:
    """Simulated proposals at quality `q`: jittered copies of each instance plus
    uniform background boxes, labeled and featurized."""
    if not (0.0 <= q <= 1.0):
        raise ValueError("quality must lie in [0, 1]")
    rng = np.random.default_rng(rng_seed)
    gt_boxes = scene.gt_boxes
    sigma = model.sigma(q)
    if len(gt_boxes):
        fg = _jitter_boxes(gt_boxes, model.fg_per_gt, sigma, rng)
    else:
        fg = np.zeros((0, 4))
    lo, hi = box_size_range
    w_ext, h_ext = scene.extent
    bw = rng.uniform(lo, min(hi, w_ext), size=model.bg_per_scene)
    bh = rng.uniform(lo, min(hi, h_ext), size=model.bg_per_scene)
    bx = rng.uniform(0.0, 1.0, size=model.bg_per_scene) * (w_ext - bw)
    by = rng.uniform(0.0, 1.0, size=model.bg_per_scene) * (h_ext - bh)
    bg = np.stack([bx, by, bx + bw, by + bh], axis=1)
    boxes = np.concatenate([fg, bg], axis=0)
    ious = iou_matrix(boxes, gt_boxes)
    classes, max_ious, _, reg = label_arrays(
        ious, boxes, gt_boxes, scene.gt_classes, pos_threshold
    )
    if len(gt_boxes):
        nearest = np.argmax(ious, axis=1)
        signal_classes = np.where(max_ious > 0.0, scene.gt_classes[nearest], 0)
    else:
        signal_classes = np.zeros(len(boxes), dtype=np.int64)
    features = proposal_features(signal_classes, max_ious, num_classes, feat, rng)
    return ProposalSet(boxes, classes, reg, features)
