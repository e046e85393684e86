"""Axis-aligned box arithmetic: IoU, proposal labeling, and regression codecs."""

from __future__ import annotations

import numpy as np

# log-space size deltas are clamped here before exponentiation
LOG_SIZE_CLAMP = 4.0


def check_boxes(boxes, what: str) -> np.ndarray:
    """`boxes` as a float (N, 4) corner array. Raises ValueError naming `what`
    unless every box is finite with x1 < x2 and y1 < y2."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    if not (np.all(np.isfinite(boxes)) and np.all(boxes[:, 2:] > boxes[:, :2])):
        raise ValueError(f"{what} must be finite and non-degenerate")
    return boxes


def iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of corner-format boxes along the last axis, broadcasting the rest:
    row-aligned (N,4) arrays give (N,) IoUs."""
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    union = ((a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
             + (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1]) - inter)
    return np.where(inter > 0.0, inter / union, 0.0)


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between (N,4) and (M,4) corner-format box arrays."""
    return iou(np.asarray(boxes_a, dtype=np.float64).reshape(-1, 1, 4),
               np.asarray(boxes_b, dtype=np.float64).reshape(1, -1, 4))


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
    first_gt=0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Assign each proposal its max-IoU ground truth, or background below
    `pos_threshold`, given the (N, M) proposal-by-ground-truth `ious`.

    Column k of row r is ground truth `first_gt + k` (`first_gt` may be one
    value per row), so a block of scenes is labeled at once: their ground
    truths concatenated, each row's IoUs against its own scene's, and 0 in the
    columns past that scene's last instance. The first column with the largest
    IoU wins (np.argmax's tie rule), so such padding never wins.

    Returns (classes, max_ious, nearest, reg_targets): `nearest` indexes the
    max-IoU ground truth, -1 where a proposal overlaps none; `classes` and
    `reg_targets` rows are zero for background.
    """
    if not (0.0 < pos_threshold < 1.0):
        raise ValueError("pos_threshold must lie in (0, 1)")
    proposal_boxes = np.asarray(proposal_boxes, dtype=np.float64).reshape(-1, 4)
    n = proposal_boxes.shape[0]
    max_ious = np.zeros(n)
    nearest = np.full(n, -1, dtype=np.int64)
    if ious.shape[1]:
        column = np.argmax(ious, axis=1)
        max_ious = ious[np.arange(n), column]
        nearest = np.where(max_ious > 0.0, first_gt + column, -1)
    positive = np.flatnonzero(max_ious >= pos_threshold)
    matched = nearest[positive]
    classes = np.zeros(n, dtype=np.int64)
    classes[positive] = np.asarray(gt_classes, dtype=np.int64)[matched]
    reg = np.zeros((n, 4), dtype=np.float64)
    reg[positive] = encode_deltas_array(proposal_boxes.take(positive, axis=0),
                                        np.take(gt_boxes, matched, axis=0))
    return classes, max_ious, nearest, reg
