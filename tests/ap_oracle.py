"""Slow reference for evaluation: the per-object NMS and COCO-style AP that
detlab used before evaluation moved onto arrays, kept unchanged so that
`detlab.metrics` can be checked against it for exact equality.

`Detection`, `nms`, `_ap_from_matches`, `_eval_class_threshold`, `_ap_over`
and `compute_ap` are the old implementation verbatim; `detections_for` is the
old per-scene candidate extraction (score floor, NMS, detection cap).
They read the scenes of a `SceneTable` one `scene_oracle.Scene` at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from detlab.geometry import iou_matrix
from detlab.metrics import DEFAULT_BUCKETS, DEFAULT_IOU_THRESHOLDS, APResult
from detlab.synthdata import SceneTable
from scene_oracle import Scene, scenes_of
from test_geometry import Box

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
    classes = sorted({c for s in scenes for c in s.gt_classes.tolist()})
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
            gt_boxes = list(scene.gt_boxes[scene.gt_classes == c])
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
    table: SceneTable,
    iou_thresholds: Sequence[float] = DEFAULT_IOU_THRESHOLDS,
    buckets: Sequence[tuple[str, int, Optional[int]]] = DEFAULT_BUCKETS,
) -> APResult:
    """COCO-style AP: averaged over classes then IoU thresholds, plus AP over
    scene subsets bucketed by ground-truth count. Detections must be NMS'd."""
    scenes = scenes_of(table)
    per_threshold = _ap_over(detections, scenes, iou_thresholds)
    mean_ap = float(np.mean(list(per_threshold.values())))
    per_bucket: dict[str, float] = {}
    for name, lo, hi in buckets:
        subset = [s for s in scenes
                  if len(s.gt_classes) >= lo and (hi is None or len(s.gt_classes) <= hi)]
        ids = {s.id for s in subset}
        sub_dets = [d for d in detections if d.scene_id in ids]
        sub = _ap_over(sub_dets, subset, iou_thresholds)
        per_bucket[name] = float(np.mean(list(sub.values()))) if sub else 0.0
    return APResult(per_threshold=per_threshold, mean_ap=mean_ap, per_bucket=per_bucket)



def detections_for(scene: Scene, scores: np.ndarray, boxes: np.ndarray, *,
                   num_classes: int, score_floor: float, nms_threshold: float,
                   max_detections: int) -> list[Detection]:
    dets = []
    for c in range(1, num_classes + 1):
        keep = scores[:, c] >= score_floor
        for i in np.flatnonzero(keep):
            dets.append(Detection(scene_id=scene.id, box=Box(*map(float, boxes[i])),
                                  class_id=c, score=float(scores[i, c])))
    dets = nms(dets, nms_threshold)
    if len(dets) > max_detections:
        dets = sorted(dets, key=lambda d: -d.score)[:max_detections]
    return dets
