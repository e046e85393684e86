"""Axis-aligned box arithmetic: IoU, proposal labeling, and regression codecs."""

from __future__ import annotations

import numpy as np

# log-space size deltas are clamped here before exponentiation
LOG_SIZE_CLAMP = 4.0


def valid_boxes(boxes: np.ndarray) -> np.ndarray:
    """(N,) mask of the boxes of an (N, 4) corner array that are finite with
    x1 < x2 and y1 < y2."""
    x1, y1, x2, y2 = boxes.T  # column by column: a row reduction over 4 is slower
    return (np.isfinite(x1) & np.isfinite(y1) & np.isfinite(x2) & np.isfinite(y2)
            & (x2 > x1) & (y2 > y1))


def check_boxes(boxes, what: str) -> np.ndarray:
    """`boxes` as a float (N, 4) corner array. Raises ValueError naming `what`
    unless every box is valid (see :func:`valid_boxes`)."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    if not valid_boxes(boxes).all():
        raise ValueError(f"{what} must be finite and non-degenerate")
    return boxes


def box_columns(boxes: np.ndarray) -> tuple[np.ndarray, ...]:
    """The x1, y1, x2, y2 and area columns of corner-format boxes along the
    last axis: views, so contiguous for a Fortran-ordered (N,4) array."""
    x1, y1, x2, y2 = boxes[..., 0], boxes[..., 1], boxes[..., 2], boxes[..., 3]
    return x1, y1, x2, y2, (x2 - x1) * (y2 - y1)


def column_iou(a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]) -> np.ndarray:
    """IoU of boxes given as :func:`box_columns` tuples, broadcasting: the one
    IoU formula, which :func:`iou` and :func:`iou_matrix` use too."""
    ax1, ay1, ax2, ay2, a_area = a
    bx1, by1, bx2, by2, b_area = b
    # in place where it can be: fewer temporaries, the same operations
    ix = np.asarray(np.minimum(ax2, bx2))
    ix -= np.maximum(ax1, bx1)
    iy = np.asarray(np.minimum(ay2, by2))
    iy -= np.maximum(ay1, by1)
    inter = np.maximum(ix, 0.0, out=ix)
    inter *= np.maximum(iy, 0.0, out=iy)
    union = np.add(a_area, b_area, out=iy)
    union -= inter
    return np.where(inter > 0.0, np.divide(inter, union, out=union), 0.0)


def iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of corner-format boxes along the last axis, broadcasting the rest:
    row-aligned (N,4) arrays give (N,) IoUs."""
    return column_iou(box_columns(a), box_columns(b))


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between (N,4) and (M,4) corner-format box arrays."""
    return iou(np.asarray(boxes_a, dtype=np.float64).reshape(-1, 1, 4),
               np.asarray(boxes_b, dtype=np.float64).reshape(1, -1, 4))


def pool_max_iou(boxes: np.ndarray, offsets: np.ndarray, gt_boxes: np.ndarray,
                 gt_offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's largest IoU against its own pool's ground truths and the
    first column with it, the bits np.argmax gives over :func:`iou_matrix` of
    that pool alone (0 and 0 without any). Pool i is the `boxes` rows
    `offsets[i]:offsets[i + 1]` and the `gt_boxes` rows of `gt_offsets` alike.
    Only real pairs are computed: with the pools stably sorted by descending
    instance count, pass k takes the prefix of the reordered rows whose pool
    has more than k instances, against instance k of that pool. The best is
    replaced only where strictly greater: argmax's first-index tie rule."""
    order = np.argsort(-np.diff(gt_offsets), kind="stable")
    sizes, counts = np.diff(offsets)[order], np.diff(gt_offsets)[order]
    ends = np.cumsum(sizes)
    rows = np.repeat(offsets[:-1][order] - (ends - sizes), sizes) + np.arange(len(boxes))
    a = box_columns(boxes.T.take(rows, axis=1).T)  # the reordered rows' columns
    gts, first = np.stack(box_columns(gt_boxes)), np.repeat(gt_offsets[:-1][order], sizes)
    best, column = np.zeros(len(rows)), np.zeros(len(rows), dtype=np.int64)
    for k in range(counts.max(initial=0)):
        m = ends[np.count_nonzero(counts > k) - 1]
        ious = column_iou(tuple(c[:m] for c in a), tuple(gts.take(first[:m] + k, axis=1)))
        np.copyto(column[:m], k, where=ious > best[:m])
        np.maximum(best[:m], ious, out=best[:m])
    out_best, out_column = np.empty_like(best), np.empty_like(column)
    out_best[rows], out_column[rows] = best, column
    return out_best, out_column


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
    value per row), so a block of scenes is labeled at once: as one column,
    each row's best IoU from :func:`pool_max_iou` with the instance that has
    it as `first_gt`, or each row's IoUs against its own scene's, 0 past its
    last instance. The first column with the largest IoU wins (np.argmax's
    tie rule), so such padding never wins.

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
