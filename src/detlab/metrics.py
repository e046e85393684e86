"""Evaluation and instrumentation: batch accuracies, NMS, COCO-style AP with
ground-truth-count buckets, and head score-disagreement statistics."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .files import atomic_write
from .geometry import check_boxes, iou, iou_matrix  # iou_matrix: perfbench patches it here
from .synthdata import Scene

DEFAULT_IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
DEFAULT_BUCKETS = (("1_3", 1, 3), ("8_inf", 8, None))
RECALL_POINTS = np.linspace(0.0, 1.0, 101)
PAIR_CHUNK = 1 << 14  # pairs whose IoUs nms takes at once: bounds its memory on a block


class Detections:
    """Struct-of-arrays foreground detections, one row each: the index of its
    scene in the evaluated scene sequence, its class (>= 1), score and box."""

    def __init__(self, scenes, classes, scores, boxes):
        self.scenes = np.asarray(scenes, dtype=np.int64)
        self.classes = np.asarray(classes, dtype=np.int64)
        self.scores = np.asarray(scores, dtype=np.float64)
        self.boxes = check_boxes(boxes, "detection boxes")
        if not len(self.scenes) == len(self.classes) == len(self.scores) == len(self.boxes):
            raise ValueError("mismatched detection array lengths")
        if np.any(self.classes < 1):
            raise ValueError("detections are foreground only")

    def __len__(self) -> int:
        return len(self.scores)


@dataclass(frozen=True)
class APResult:
    per_threshold: dict[float, float]
    mean_ap: float
    per_bucket: dict[str, float]

    @property
    def ap50(self) -> float:
        return self.per_threshold[0.5]

    @property
    def ap75(self) -> float:
        return self.per_threshold[0.75]


def proposal_accuracy(logits: np.ndarray, targets: np.ndarray):
    """Fractions of positives / backgrounds whose argmax matches their label.

    One batch, (N, C+1) logits and (N,) targets, gives two floats; a stack of
    batches, (..., N, C+1) and (..., N), gives two nested lists with one value
    per batch. A negative target pads a batch and counts in neither group. An
    empty group reports None rather than 0; a batch without rows raises.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if not (targets >= 0).any(axis=-1).all():
        raise ValueError("empty batch")
    hits = np.argmax(logits, axis=-1) == targets  # ties break toward the lowest index

    def fraction(group):
        n = group.sum(axis=-1)
        return np.where(n > 0, (hits & group).sum(axis=-1) / np.maximum(n, 1), None).tolist()

    return fraction(targets > 0), fraction(targets == 0)


def nms(boxes: np.ndarray, scores: np.ndarray, groups: np.ndarray,
        iou_threshold: float) -> np.ndarray:
    """Greedy suppression within each integer group (say, a (scene, class)
    pair) of candidates. Returns the kept row indices, groups ascending, then
    descending score; equal scores keep row order."""
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError("NMS threshold must lie in (0, 1)")
    order = np.lexsort((-np.asarray(scores, dtype=np.float64), groups))  # stable
    boxes = check_boxes(boxes, "detection boxes").take(order, axis=0)
    groups = np.asarray(groups)[order]
    # every pair (i, j) of sorted rows i < j in one group, j-major
    first = np.searchsorted(groups, groups)
    n_before = np.arange(len(order)) - first
    j = np.repeat(np.arange(len(order)), n_before)
    i = np.repeat(first - np.cumsum(n_before) + n_before, n_before) + np.arange(len(j))
    hit = [iou(*boxes.take([i[s:s + PAIR_CHUNK], j[s:s + PAIR_CHUNK]], axis=0)) >= iou_threshold
           for s in range(0, len(j), PAIR_CHUNK)]
    i, j = np.compress(np.concatenate([np.zeros(0, dtype=bool), *hit]), [i, j], axis=1)
    # greedy NMS is the one fixed point of "j is kept iff no kept i < j suppresses it"
    keep, kept = None, np.ones(len(order), dtype=bool)
    while not np.array_equal(keep, kept):
        keep, kept = kept, np.ones_like(kept)
        kept[j[keep[i]]] = False
    return order[keep]


def _ap(is_tp: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP from true-positive flags in ranking order."""
    if n_gt == 0 or len(is_tp) == 0:
        return 0.0
    tp = np.cumsum(is_tp)
    recall = tp / n_gt
    precision = tp / np.arange(1, len(tp) + 1)
    # precision envelope, then sample at the fixed recall grid
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, RECALL_POINTS, side="left")
    sampled = np.where(idx < len(precision), precision[np.minimum(idx, len(precision) - 1)], 0.0)
    return float(sampled.mean())


def _match(dets: Detections, inst_scene: np.ndarray, inst_class: np.ndarray,
           inst_boxes: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """(N, T) true-positive flags. Per (scene, class), detections in descending
    score (ties in row order) each take the unmatched ground-truth instance with
    the highest IoU at or above the threshold; ties go to the lowest instance."""
    n_keys = int(max(dets.classes.max(initial=0), inst_class.max(initial=0))) + 1
    keys = dets.scenes * n_keys + dets.classes
    ranked = np.lexsort((-dets.scores, keys))
    keys = keys[ranked]
    # ground truths grouped by (scene, class), in instance order within each
    gt_keys = inst_scene * n_keys + inst_class
    gt_order = np.argsort(gt_keys, kind="stable")
    first = np.searchsorted(gt_keys[gt_order], keys)
    n_gts = np.searchsorted(gt_keys[gt_order], keys, side="right") - first
    # rows in ranked order, column k the k-th ground truth of the row's
    # (scene, class); -1 pads the rest and can never match
    ious = np.full((len(keys), max(1, n_gts.max(initial=0))), -1.0)
    for k in range(ious.shape[1]):
        rows = np.flatnonzero(n_gts > k)
        ious[rows, k] = iou(dets.boxes.take(ranked[rows], axis=0),
                            inst_boxes.take(gt_order[first[rows] + k], axis=0))
    # a row whose best IoU is below every threshold is a false positive at each and takes
    # nothing, so only the live rest is matched: the k-th ranked of every group at once
    live = np.flatnonzero(ious.max(axis=1) >= thresholds.min())
    ious, keys = ious.take(live, axis=0), keys[live]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    lengths = np.diff(starts, append=len(keys))
    n_thr = len(thresholds)
    matched = np.zeros((len(starts), n_thr, ious.shape[1]), dtype=bool)
    is_tp = np.zeros((len(ranked), n_thr), dtype=bool)
    for k in range(int(lengths.max(initial=0))):
        groups = np.flatnonzero(lengths > k)
        rows = starts[groups] + k
        cand = np.where(matched.take(groups, axis=0), -1.0, ious.take(rows, axis=0)[:, None, :])
        best = cand.argmax(axis=2)
        hit = np.take_along_axis(cand, best[:, :, None], axis=2)[:, :, 0] >= thresholds
        is_tp[ranked[live[rows]]] = hit
        matched[groups[:, None], np.arange(n_thr), best] |= hit
    return is_tp


def compute_ap(
    dets: Detections,
    scenes: Sequence[Scene],
    iou_thresholds: Sequence[float] = DEFAULT_IOU_THRESHOLDS,
    buckets: Sequence[tuple[str, int, Optional[int]]] = DEFAULT_BUCKETS,
) -> APResult:
    """COCO-style AP: averaged over classes then IoU thresholds, plus AP over
    scene subsets bucketed by ground-truth count. Detections must be NMS'd.

    Matching never crosses scenes, so each detection is matched once per
    threshold and a bucket's AP reuses those matches for its scenes' rows."""
    if len(dets) and not (dets.scenes.min() >= 0 and dets.scenes.max() < len(scenes)):
        raise ValueError("detection scene index out of range")
    # one entry per ground-truth instance: its scene, class and box
    n_inst = np.array([len(s.gt_classes) for s in scenes], dtype=np.int64)
    inst_scene = np.repeat(np.arange(len(scenes)), n_inst)
    inst_class = np.concatenate([s.gt_classes for s in scenes] + [np.zeros(0, np.int64)])
    inst_boxes = np.concatenate([s.gt_boxes for s in scenes] + [np.zeros((0, 4))])
    is_tp = _match(dets, inst_scene, inst_class, inst_boxes, np.asarray(iou_thresholds))
    # ranking for AP: descending score, ties by scene, then row order
    ranked = np.lexsort((dets.scenes, -dets.scores))
    is_tp, classes, det_scene = is_tp[ranked], dets.classes[ranked], dets.scenes[ranked]

    def ap_over(scene_mask: np.ndarray) -> dict[float, float]:
        gts = inst_class[scene_mask[inst_scene]]
        in_scenes = scene_mask[det_scene]
        per_class = [(is_tp[in_scenes & (classes == c)], int(np.count_nonzero(gts == c)))
                     for c in np.unique(gts)]
        return {thr: float(np.mean([_ap(tp[:, t], n) for tp, n in per_class]))
                if per_class else 0.0 for t, thr in enumerate(iou_thresholds)}

    per_threshold = ap_over(np.ones(len(scenes), dtype=bool))
    mean_ap = float(np.mean(list(per_threshold.values())))
    per_bucket: dict[str, float] = {}
    for name, lo, hi in buckets:
        sub = ap_over((n_inst >= lo) & (n_inst <= (np.inf if hi is None else hi)))
        per_bucket[name] = float(np.mean(list(sub.values()))) if sub else 0.0
    return APResult(per_threshold=per_threshold, mean_ap=mean_ap, per_bucket=per_bucket)


@dataclass(frozen=True)
class ScoreGapStats:
    mean_fg: tuple[float, ...]  # per-head mean foreground score
    median_gap: float  # median |score_h1 - score_h2|
    frac_large_gap: float  # fraction of pairs with gap above the threshold
    gap_threshold: float


def score_gap_stats(fg_scores: Sequence[np.ndarray],
                    gap_threshold: float = 0.1) -> ScoreGapStats:
    """Per-head foreground-score levels and the first-two-heads disagreement,
    from each head's (N,) largest non-background probability per row."""
    if len(fg_scores) < 2:
        raise ValueError("need at least two heads to compare")
    gaps = np.abs(fg_scores[0] - fg_scores[1])
    return ScoreGapStats(
        mean_fg=tuple(float(s.mean()) for s in fg_scores),
        median_gap=float(np.median(gaps)),
        frac_large_gap=float((gaps > gap_threshold).mean()),
        gap_threshold=gap_threshold,
    )


# --- per-iteration instrumentation log --------------------------------------

@dataclass
class MetricsLog:
    """A per-step log, {CSV header: one value per step} in CSV order."""
    columns: dict[str, list] = field(default_factory=dict)

    def extend(self, block: dict[str, list]) -> None:
        """Appends a block of steps, given as its columns."""
        for name, values in block.items():
            self.columns.setdefault(name, []).extend(values)

    def to_csv(self, path) -> None:
        """Raises ValueError, keeping any previous file, on a ragged table."""
        with atomic_write(path, newline="") as fh:
            writer = csv.writer(fh)  # writes a float as its repr, None as ""
            writer.writerow(self.columns)
            writer.writerows(zip(*self.columns.values(), strict=True))
