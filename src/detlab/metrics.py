"""Evaluation and instrumentation: batch accuracies, NMS, COCO-style AP with
ground-truth-count buckets, and head score-disagreement statistics."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .geometry import Box, iou_matrix
from .synthdata import Scene

DEFAULT_IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
DEFAULT_BUCKETS = (("1_3", 1, 3), ("8_inf", 8, None))
RECALL_POINTS = np.linspace(0.0, 1.0, 101)


@dataclass(frozen=True)
class Detection:
    scene_id: int
    box: Box
    class_id: int
    score: float

    def __post_init__(self):
        if self.class_id < 1:
            raise ValueError("detections are foreground only")


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


def nms(detections: Sequence[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy per-class suppression within each scene; ties in score keep
    insertion order. Output preserves descending-score order per group."""
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError("NMS threshold must lie in (0, 1)")
    groups: dict[tuple[int, int], list[Detection]] = {}
    for det in detections:
        groups.setdefault((det.scene_id, det.class_id), []).append(det)
    kept: list[Detection] = []
    for key in sorted(groups):
        dets = sorted(groups[key], key=lambda d: -d.score)  # stable: ties keep order
        boxes = np.stack([d.box.as_array() for d in dets])
        ious = iou_matrix(boxes, boxes)
        keep_idx: list[int] = []
        for i in range(len(dets)):
            if all(ious[i, j] < iou_threshold for j in keep_idx):
                keep_idx.append(i)
        kept.extend(dets[i] for i in keep_idx)
    return kept


def _ap_from_matches(scored: list[tuple[float, int, bool]], n_gt: int) -> float:
    """101-point interpolated AP from (score, order, is_tp) records."""
    if n_gt == 0 or not scored:
        return 0.0
    scored = sorted(scored, key=lambda r: (-r[0], r[1]))
    tp = np.cumsum([1 if s[2] else 0 for s in scored])
    fp = np.cumsum([0 if s[2] else 1 for s in scored])
    recall = tp / n_gt
    precision = tp / (tp + fp)
    # precision envelope, then sample at the fixed recall grid
    for i in range(len(precision) - 2, -1, -1):
        precision[i] = max(precision[i], precision[i + 1])
    idx = np.searchsorted(recall, RECALL_POINTS, side="left")
    sampled = np.where(idx < len(precision), precision[np.minimum(idx, len(precision) - 1)], 0.0)
    return float(sampled.mean())


def _eval_class_threshold(per_scene, thr: float) -> list[tuple[float, int, bool]]:
    """Greedy matching of detections (descending score) to unmatched ground
    truths with the highest IoU at or above `thr`, per scene."""
    scored = []
    order = 0
    for scores, ious, n_gt, max_ious in per_scene:
        if n_gt == 0 or max_ious.max(initial=0.0) < thr:
            for s in scores:
                scored.append((s, order, False))
                order += 1
            continue
        matched = np.zeros(n_gt, dtype=bool)
        for i in range(len(scores)):
            if max_ious[i] < thr:
                scored.append((scores[i], order, False))
            else:
                cand = np.where(matched, -1.0, ious[i])
                j = int(np.argmax(cand))
                if cand[j] >= thr:
                    matched[j] = True
                    scored.append((scores[i], order, True))
                else:
                    scored.append((scores[i], order, False))
            order += 1
    return scored


def _ap_over(detections: Sequence[Detection], scenes: Sequence[Scene],
             iou_thresholds: Sequence[float]) -> dict[float, float]:
    classes = sorted({g.class_id for s in scenes for g in s.instances})
    dets_by_class: dict[int, dict[int, list[Detection]]] = {c: {} for c in classes}
    for det in detections:
        if det.class_id in dets_by_class:
            dets_by_class[det.class_id].setdefault(det.scene_id, []).append(det)
    per_threshold: dict[float, float] = {}
    prepared = {}
    n_gts = {}
    for c in classes:
        per_scene = []
        n_gt = 0
        for scene in scenes:
            gt_boxes = [g.box.as_array() for g in scene.instances if g.class_id == c]
            n_gt += len(gt_boxes)
            dets = sorted(dets_by_class[c].get(scene.id, []), key=lambda d: -d.score)
            if not dets:
                continue
            boxes = np.stack([d.box.as_array() for d in dets])
            ious = (iou_matrix(boxes, np.stack(gt_boxes)) if gt_boxes
                    else np.zeros((len(dets), 0)))
            max_ious = ious.max(axis=1, initial=0.0)
            per_scene.append(([d.score for d in dets], ious, len(gt_boxes), max_ious))
        prepared[c] = per_scene
        n_gts[c] = n_gt
    for thr in iou_thresholds:
        aps = [
            _ap_from_matches(_eval_class_threshold(prepared[c], thr), n_gts[c])
            for c in classes if n_gts[c] > 0
        ]
        per_threshold[thr] = float(np.mean(aps)) if aps else 0.0
    return per_threshold


def compute_ap(
    detections: Sequence[Detection],
    scenes: Sequence[Scene],
    iou_thresholds: Sequence[float] = DEFAULT_IOU_THRESHOLDS,
    buckets: Sequence[tuple[str, int, Optional[int]]] = DEFAULT_BUCKETS,
) -> APResult:
    """COCO-style AP: averaged over classes then IoU thresholds, plus AP over
    scene subsets bucketed by ground-truth count. Detections must be NMS'd."""
    per_threshold = _ap_over(detections, scenes, iou_thresholds)
    mean_ap = float(np.mean(list(per_threshold.values())))
    per_bucket: dict[str, float] = {}
    for name, lo, hi in buckets:
        subset = [s for s in scenes
                  if len(s.instances) >= lo and (hi is None or len(s.instances) <= hi)]
        ids = {s.id for s in subset}
        sub_dets = [d for d in detections if d.scene_id in ids]
        sub = _ap_over(sub_dets, subset, iou_thresholds)
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
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    return p[:, 1:].max(axis=1)


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
        with open(path, "w", newline="") as fh:
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
