"""Axis-aligned box arithmetic: IoU, proposal labeling, and regression codecs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# log-space size deltas are clamped here before exponentiation
LOG_SIZE_CLAMP = 4.0


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in scene units, corners (x1, y1) < (x2, y2)."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        coords = (self.x1, self.y1, self.x2, self.y2)
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"box coordinates must be finite, got {coords}")
        if not (self.x2 > self.x1 and self.y2 > self.y1):
            raise ValueError(f"degenerate box {coords}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=np.float64)

    @staticmethod
    def from_array(a) -> "Box":
        return Box(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


@dataclass(frozen=True)
class GroundTruthInstance:
    """One annotated object; class ids start at 1 (0 is background)."""

    box: Box
    class_id: int

    def __post_init__(self):
        if self.class_id < 1:
            raise ValueError("ground-truth class_id must be >= 1")


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between (N,4) and (M,4) corner-format box arrays."""
    boxes_a = np.asarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    boxes_b = np.asarray(boxes_b, dtype=np.float64).reshape(-1, 4)
    ix = np.minimum(boxes_a[:, None, 2], boxes_b[None, :, 2]) - np.maximum(
        boxes_a[:, None, 0], boxes_b[None, :, 0]
    )
    iy = np.minimum(boxes_a[:, None, 3], boxes_b[None, :, 3]) - np.maximum(
        boxes_a[:, None, 1], boxes_b[None, :, 1]
    )
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    area_a = (boxes_a[:, 2] - boxes_a[:, 0]) * (boxes_a[:, 3] - boxes_a[:, 1])
    area_b = (boxes_b[:, 2] - boxes_b[:, 0]) * (boxes_b[:, 3] - boxes_b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    return np.where(inter > 0.0, inter / union, 0.0)


def encode_deltas_array(proposals: np.ndarray, gts: np.ndarray) -> np.ndarray:
    """Center/size log-space regression targets for row-aligned (N,4) box arrays."""
    proposals = np.asarray(proposals, dtype=np.float64).reshape(-1, 4)
    gts = np.asarray(gts, dtype=np.float64).reshape(-1, 4)
    pw = proposals[:, 2] - proposals[:, 0]
    ph = proposals[:, 3] - proposals[:, 1]
    pcx = 0.5 * (proposals[:, 0] + proposals[:, 2])
    pcy = 0.5 * (proposals[:, 1] + proposals[:, 3])
    gw = gts[:, 2] - gts[:, 0]
    gh = gts[:, 3] - gts[:, 1]
    gcx = 0.5 * (gts[:, 0] + gts[:, 2])
    gcy = 0.5 * (gts[:, 1] + gts[:, 3])
    return np.stack(
        [(gcx - pcx) / pw, (gcy - pcy) / ph, np.log(gw / pw), np.log(gh / ph)], axis=1
    )


def decode_deltas_array(proposals: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_deltas_array`; size deltas clamped to LOG_SIZE_CLAMP."""
    proposals = np.asarray(proposals, dtype=np.float64).reshape(-1, 4)
    deltas = np.asarray(deltas, dtype=np.float64).reshape(-1, 4)
    pw = proposals[:, 2] - proposals[:, 0]
    ph = proposals[:, 3] - proposals[:, 1]
    pcx = 0.5 * (proposals[:, 0] + proposals[:, 2])
    pcy = 0.5 * (proposals[:, 1] + proposals[:, 3])
    cx = pcx + deltas[:, 0] * pw
    cy = pcy + deltas[:, 1] * ph
    w = pw * np.exp(np.minimum(deltas[:, 2], LOG_SIZE_CLAMP))
    h = ph * np.exp(np.minimum(deltas[:, 3], LOG_SIZE_CLAMP))
    return np.stack([cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h], axis=1)


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
