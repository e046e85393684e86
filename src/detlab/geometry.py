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
    IoU formula, which :func:`iou_matrix` uses too."""
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


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between (N,4) and (M,4) corner-format box arrays."""
    return column_iou(box_columns(np.asarray(boxes_a, dtype=np.float64).reshape(-1, 1, 4)),
                      box_columns(np.asarray(boxes_b, dtype=np.float64).reshape(1, -1, 4)))


def pool_max_iou(boxes: np.ndarray, offsets: np.ndarray, gt_boxes: np.ndarray,
                 gt_offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's largest IoU against its own pool's ground truths and the
    `gt_boxes` row of the first instance with it, to the bit the pool's first
    row plus np.argmax over :func:`iou_matrix` of that pool alone give (0 and
    that first row without any). Pool i is the `boxes` rows
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
    out_best, instance = np.empty_like(best), np.empty_like(column)
    out_best[rows], instance[rows] = best, first + column
    return out_best, instance


def _size_center(boxes: np.ndarray) -> tuple[np.ndarray, ...]:
    """Width, height and center x, y of (N, 4) corner boxes."""
    return (boxes[:, 2] - boxes[:, 0], boxes[:, 3] - boxes[:, 1],
            0.5 * (boxes[:, 0] + boxes[:, 2]), 0.5 * (boxes[:, 1] + boxes[:, 3]))


def encode_deltas_array(proposals: np.ndarray, gts: np.ndarray) -> np.ndarray:
    """Center/size log-space regression targets for row-aligned (N,4) float box arrays."""
    pw, ph, pcx, pcy = _size_center(proposals)
    gw, gh, gcx, gcy = _size_center(gts)
    return np.stack(
        [(gcx - pcx) / pw, (gcy - pcy) / ph, np.log(gw / pw), np.log(gh / ph)], axis=1
    )


def decode_deltas_array(proposals: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_deltas_array`; size deltas clamped to LOG_SIZE_CLAMP."""
    pw, ph, pcx, pcy = _size_center(proposals)
    cx = pcx + deltas[:, 0] * pw
    cy = pcy + deltas[:, 1] * ph
    w = pw * np.exp(np.minimum(deltas[:, 2], LOG_SIZE_CLAMP))
    h = ph * np.exp(np.minimum(deltas[:, 3], LOG_SIZE_CLAMP))
    return np.stack([cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h], axis=1)


def label_arrays(best: np.ndarray, instance: np.ndarray, proposal_boxes: np.ndarray,
                 gt_boxes: np.ndarray, gt_classes: np.ndarray,
                 pos_threshold: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label each proposal from its best IoU `best` and the `gt_boxes` row
    `instance` of the ground truth that has it, as :func:`pool_max_iou` gives
    them: that instance's class at IoU >= `pos_threshold`, else background.

    Returns (classes, signal, reg_targets): `signal` is the instance's class
    wherever the IoU is above 0, below the threshold too, and 0 elsewhere, so
    `instance` is read only there; `classes` and `reg_targets` rows are zero
    for background.
    """
    if not (0.0 < pos_threshold < 1.0):
        raise ValueError("pos_threshold must lie in (0, 1)")
    signal = np.zeros(len(best), dtype=np.int64)
    overlaps = np.flatnonzero(best > 0.0)
    signal[overlaps] = gt_classes[instance[overlaps]]
    positive = np.flatnonzero(best >= pos_threshold)
    classes = np.where(best >= pos_threshold, signal, 0)
    reg = np.zeros((len(best), 4))
    reg[positive] = encode_deltas_array(proposal_boxes.take(positive, axis=0),
                                        gt_boxes.take(instance[positive], axis=0))
    return classes, signal, reg
