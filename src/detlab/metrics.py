"""Evaluation and instrumentation: batch accuracies, NMS, COCO-style AP with
ground-truth-count buckets, and head score-disagreement statistics."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .files import atomic_write
from .geometry import check_boxes, iou_matrix
from .net import softmax
from .synthdata import Scene

DEFAULT_IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
DEFAULT_BUCKETS = (("1_3", 1, 3), ("8_inf", 8, None))
RECALL_POINTS = np.linspace(0.0, 1.0, 101)


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

    def __getitem__(self, rows) -> "Detections":
        return Detections(self.scenes[rows], self.classes[rows], self.scores[rows],
                          self.boxes[rows])

    @staticmethod
    def concat(parts: Sequence["Detections"]) -> "Detections":
        """All rows of `parts` in order; no parts give an empty table."""
        return Detections(*(np.concatenate([getattr(p, name) for p in parts] or [[]])
                            for name in ("scenes", "classes", "scores", "boxes")))


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


def proposal_accuracy(logits: np.ndarray, targets: np.ndarray
                      ) -> tuple[Optional[float], Optional[float]]:
    """Fractions of positives / backgrounds whose argmax matches their label.

    An empty group reports None rather than 0.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if len(targets) == 0:
        raise ValueError("empty batch")
    pred = np.argmax(logits, axis=1)  # ties break toward the lowest index
    pos = targets > 0
    neg = ~pos
    pos_acc = float((pred[pos] == targets[pos]).mean()) if pos.any() else None
    neg_acc = float((pred[neg] == 0).mean()) if neg.any() else None
    return pos_acc, neg_acc


def nms(boxes: np.ndarray, scores: np.ndarray, classes: np.ndarray,
        iou_threshold: float) -> np.ndarray:
    """Greedy same-class suppression over one scene's candidates. Returns the
    kept row indices, classes ascending, then descending score; equal scores
    keep row order."""
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError("NMS threshold must lie in (0, 1)")
    classes = np.asarray(classes)
    order = np.lexsort((-np.asarray(scores, dtype=np.float64), classes))  # stable
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)[order]
    same_class = classes[order, None] == classes[None, order]
    suppresses = (iou_matrix(boxes, boxes) >= iou_threshold) & same_class
    keep = np.ones(len(order), dtype=bool)
    for i in range(len(order)):
        if keep[i]:
            keep[i + 1:] &= ~suppresses[i, i + 1:]
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


def _match(dets: Detections, gt_boxes: list[np.ndarray], gt_classes: list[np.ndarray],
           thresholds: np.ndarray) -> np.ndarray:
    """(N, T) true-positive flags. Per (scene, class), detections in descending
    score (ties in row order) each take the unmatched ground truth with the
    highest IoU at or above the threshold; ties go to the lowest instance."""
    keys = dets.scenes * (int(dets.classes.max(initial=0)) + 1) + dets.classes
    ranked = np.lexsort((-dets.scores, keys))
    keys = keys[ranked]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    lengths = np.diff(starts, append=len(keys))
    # rows in ranked order, one column per ground truth of the row's (scene,
    # class); -1 pads the rest and can never match
    ious = np.full((len(keys), max([1] + [len(c) for c in gt_classes])), -1.0)
    for start, n in zip(starts, lengths):
        rows = ranked[start:start + n]
        scene = dets.scenes[rows[0]]
        gts = gt_boxes[scene][gt_classes[scene] == dets.classes[rows[0]]]
        if len(gts):
            ious[start:start + n, :len(gts)] = iou_matrix(dets.boxes[rows], gts)
    # the k-th ranked detection of every (scene, class) at once, per threshold
    n_thr = len(thresholds)
    matched = np.zeros((len(starts), n_thr, ious.shape[1]), dtype=bool)
    is_tp = np.zeros((len(keys), n_thr), dtype=bool)
    for k in range(int(lengths.max(initial=0))):
        groups = np.flatnonzero(lengths > k)
        rows = starts[groups] + k
        cand = np.where(matched[groups], -1.0, ious[rows, None, :])
        best = cand.argmax(axis=2)
        hit = np.take_along_axis(cand, best[:, :, None], axis=2)[:, :, 0] >= thresholds
        is_tp[rows] = hit
        matched[groups[:, None], np.arange(n_thr), best] |= hit
    out = np.empty_like(is_tp)
    out[ranked] = is_tp
    return out


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
    gt_boxes = [s.gt_boxes for s in scenes]
    gt_classes = [s.gt_classes for s in scenes]
    is_tp = _match(dets, gt_boxes, gt_classes, np.asarray(iou_thresholds, dtype=np.float64))
    # ranking for AP: descending score, ties by scene, then row order
    ranked = np.lexsort((dets.scenes, -dets.scores))
    is_tp, classes, det_scene = is_tp[ranked], dets.classes[ranked], dets.scenes[ranked]
    n_inst = np.array([len(c) for c in gt_classes], dtype=np.int64)
    # one entry per ground-truth instance: its scene and its class
    inst_scene = np.repeat(np.arange(len(scenes)), n_inst)
    inst_class = np.concatenate(gt_classes + [np.zeros(0, np.int64)])

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


def foreground_scores(logits: np.ndarray) -> np.ndarray:
    """Max softmax probability over non-background classes, per row."""
    return softmax(np.asarray(logits, dtype=np.float64))[:, 1:].max(axis=1)


def score_gap_stats(head_logits: Sequence[np.ndarray],
                    gap_threshold: float = 0.1) -> ScoreGapStats:
    """Per-head foreground-score levels and the first-two-heads disagreement."""
    if len(head_logits) < 2:
        raise ValueError("need at least two heads to compare")
    scores = [foreground_scores(lg) for lg in head_logits]
    gaps = np.abs(scores[0] - scores[1])
    return ScoreGapStats(
        mean_fg=tuple(float(s.mean()) for s in scores),
        median_gap=float(np.median(gaps)),
        frac_large_gap=float((gaps > gap_threshold).mean()),
        gap_threshold=gap_threshold,
    )


# --- per-iteration instrumentation log --------------------------------------

@dataclass(frozen=True)
class MetricsRow:
    step: int
    pos_count_unique: int
    pos_count_effective: int
    pos_acc: Optional[float]
    neg_acc: Optional[float]
    lam: float
    fg_scores: tuple[float, ...]  # per-head mean foreground score


@dataclass
class MetricsLog:
    rows: list[MetricsRow] = field(default_factory=list)

    def append(self, row: MetricsRow) -> None:
        if self.rows and row.step <= self.rows[-1].step:
            raise ValueError("steps must be strictly increasing")
        self.rows.append(row)

    def num_heads(self) -> int:
        return len(self.rows[0].fg_scores) if self.rows else 0

    def to_csv(self, path) -> None:
        with atomic_write(path, newline="") as fh:
            writer = csv.writer(fh)
            header = ["step", "pos_count_unique", "pos_count_effective",
                      "pos_acc", "neg_acc", "lambda"]
            header += [f"fg_score_h{i + 1}" for i in range(self.num_heads())]
            writer.writerow(header)
            for r in self.rows:
                row = [r.step, r.pos_count_unique, r.pos_count_effective,
                       "" if r.pos_acc is None else repr(r.pos_acc),
                       "" if r.neg_acc is None else repr(r.neg_acc),
                       repr(r.lam)]
                row += [repr(v) for v in r.fg_scores]
                writer.writerow(row)

    @staticmethod
    def from_csv(path) -> "MetricsLog":
        log = MetricsLog()
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            heads = [k for k in reader.fieldnames if k.startswith("fg_score_h")]
            for rec in reader:
                log.append(MetricsRow(
                    step=int(rec["step"]),
                    pos_count_unique=int(rec["pos_count_unique"]),
                    pos_count_effective=int(rec["pos_count_effective"]),
                    pos_acc=float(rec["pos_acc"]) if rec["pos_acc"] else None,
                    neg_acc=float(rec["neg_acc"]) if rec["neg_acc"] else None,
                    lam=float(rec["lambda"]),
                    fg_scores=tuple(float(rec[k]) for k in heads),
                ))
        return log
