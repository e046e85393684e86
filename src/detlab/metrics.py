"""Evaluation and instrumentation: batch accuracies, NMS, COCO-style AP with
ground-truth-count buckets, and head score-disagreement statistics."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .files import atomic_write
from .geometry import box_columns, check_boxes, column_iou
from .geometry import iou_matrix  # noqa: F401 -- perfbench patches it here
from .synthdata import SceneTable

DEFAULT_IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
DEFAULT_BUCKETS = (("1_3", 1, 3), ("8_inf", 8, None))
RECALL_POINTS = np.linspace(0.0, 1.0, 101)
PAIR_CHUNK = 1 << 13  # about as many window pairs as nms builds and tests at once: bounds its memory
# Relative widening of the NMS window, far above the few roundings by which a
# computed IoU can exceed the exact one
WINDOW_SLACK = 1e-9


class Detections:
    """Struct-of-arrays foreground detections, one row each: the index of its
    scene in the evaluated scene sequence, its class (>= 1), score and box."""

    def __init__(self, scenes, classes, scores, boxes):
        self.scenes = np.asarray(scenes, dtype=np.int64)
        self.classes = np.asarray(classes, dtype=np.int64)
        self.scores = check_scores(scores, "detection scores")
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


def check_scores(scores, what: str) -> np.ndarray:
    """`scores` as a float array. Raises ValueError naming `what`, the first
    non-finite score and its row."""
    scores = np.asarray(scores, dtype=np.float64)
    if len(bad := np.flatnonzero(~np.isfinite(scores))):
        raise ValueError(f"{what} must be finite, got {scores[bad[0]]} at row {bad[0]}")
    return scores


def _complex(real, imag) -> np.ndarray:
    """real + 1j * imag, built exactly (1j * inf would give a NaN real part).
    numpy sorts and searches complex numbers by real, then imaginary part."""
    out = np.empty(len(real), dtype=np.complex128)
    out.real, out.imag = real, imag
    return out


def _float_keys(keys: np.ndarray) -> np.ndarray:
    """Integer keys as floats that order and tie as they do: the keys, or
    their dense ranks where a key is too large (|key| >= 2**53) to be exact."""
    if len(keys) and not (-2**53 < keys.min() and keys.max() < 2**53):
        return np.unique(keys, return_inverse=True)[1].reshape(-1)
    return keys


def key_score_order(keys, scores) -> np.ndarray:
    """The rows by ascending integer key, then descending score, ties in row
    order: the permutation of ``np.lexsort((-scores, keys))``, from one stable
    sort of ``keys - 1j * scores``, which timsort runs fast on keys that
    arrive in runs."""
    keys, scores = np.asarray(keys), np.asarray(scores, dtype=np.float64)
    return np.argsort(_complex(_float_keys(keys), -scores), kind="stable")


def nms(boxes: np.ndarray, scores: np.ndarray, groups: np.ndarray,
        iou_threshold: float) -> np.ndarray:
    """Greedy suppression within each integer group (say, a (scene, class)
    pair) of candidates. Returns the kept row indices, groups ascending, then
    descending score; equal scores keep row order."""
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError(f"NMS threshold must lie in (0, 1), got {iou_threshold}")
    scores = check_scores(scores, "detection scores")
    boxes = check_boxes(boxes, "detection boxes")
    groups = np.asarray(groups)
    if not len(boxes) == len(scores) == len(groups):
        raise ValueError(f"mismatched NMS array lengths: {len(boxes)} boxes, "
                         f"{len(scores)} scores, {len(groups)} groups")
    # IoU >= t needs an x-overlap of t times either box's width, so of two boxes
    # the one that starts later in x starts within (1 - t) w of the other's x1,
    # w that other box's width: each box's candidates are the window after it
    # in (group, x1) order, widened by WINDOW_SLACK against rounding
    x1, width = boxes[:, 0], boxes[:, 2] - boxes[:, 0]
    start_key = _complex(_float_keys(groups), x1)
    by_x = np.argsort(start_key, kind="stable")  # rows in (group, x1) order
    reach = _complex(start_key.real, x1 + width * (1.0 - iou_threshold + WINDOW_SLACK))
    n_pairs = np.searchsorted(start_key[by_x], reach[by_x], side="right")
    n_pairs -= np.arange(1, len(by_x) + 1)
    cols = box_columns(np.asfortranarray(boxes.take(by_x, axis=0)))
    # every window pair (p, q), p < q in (group, x1) order, built and tested a
    # chunk of positions at a time; a chunk starts at the first position whose
    # pairs begin at or past a multiple of PAIR_CHUNK, and only its hits are kept
    start = np.cumsum(n_pairs) - n_pairs
    cuts = np.unique(np.append(np.searchsorted(start, np.arange(0, n_pairs.sum(), PAIR_CHUNK)),
                               len(by_x)))
    hits = [np.zeros((2, 0), dtype=np.int64)]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        n = n_pairs[lo:hi]
        q = np.repeat(np.arange(lo + 1, hi + 1) - start[lo:hi], n)
        q += np.arange(start[lo], start[lo] + len(q))
        hit = np.flatnonzero(column_iou([np.repeat(c[lo:hi], n) for c in cols],
                                        [c.take(q) for c in cols]) >= iou_threshold)
        hits.append(by_x.take(np.stack([np.repeat(np.arange(lo, hi), n).take(hit), q.take(hit)])))
    a, b = np.concatenate(hits, axis=1)
    a_first = (scores[a] > scores[b]) | ((scores[a] == scores[b]) & (a < b))
    i, j = np.where(a_first, a, b), np.where(a_first, b, a)  # row i outranks row j
    # greedy NMS is the one fixed point of "j is kept iff no kept i that
    # outranks it suppresses it"; only the kept rows need ranking
    keep, kept = None, np.ones(len(scores), dtype=bool)
    while not np.array_equal(keep, kept):
        keep, kept = kept, np.ones_like(kept)
        kept[j[keep[i]]] = False
    rows = np.flatnonzero(keep)
    return rows[key_score_order(groups[rows], scores[rows])]


def _ap(is_tp: np.ndarray, n_gt: int) -> list[float]:
    """101-point interpolated AP per column of (N, T) true-positive flags in
    ranking order, one column per IoU threshold."""
    # recall rises, and the precision envelope can change, only at a true
    # positive, and every recall point is first reached at one; the envelope
    # at rank 0 is its value at the first true positive, so both are read there
    if n_gt == 0 or not is_tp.any():
        return [0.0] * is_tp.shape[1]
    # the true positives column by column, in ranking order
    cols, ranks = np.divmod(np.flatnonzero(is_tp.T), len(is_tp))
    n_tp = np.bincount(cols, minlength=is_tp.shape[1])
    k = np.arange(len(ranks)) - (n_tp.cumsum() - n_tp)[cols]  # k + 1 true positives so far
    # row t: column t's precision at each true positive, then zeros (at least one)
    precision = np.zeros((len(n_tp), n_tp.max() + 1))
    precision[cols, k] = (k + 1) / (ranks + 1)
    # precision envelope, then sample at the fixed recall grid; the k-th true
    # positive reaches recall k / n_gt, and a recall a column never reaches reads 0
    precision = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    idx = np.searchsorted(np.arange(1, n_tp.max() + 1) / n_gt, RECALL_POINTS, side="left")
    return precision.take(idx, axis=1).mean(axis=1).tolist()  # C order: each row sums as 1-D


def _match(dets: Detections, inst_scene: np.ndarray, inst_class: np.ndarray,
           inst_boxes: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """(N, T) true-positive flags. Per (scene, class), detections in descending
    score (ties in row order) each take the unmatched ground-truth instance with
    the highest IoU at or above the threshold; ties go to the lowest instance."""
    n_keys = int(max(dets.classes.max(initial=0), inst_class.max(initial=0))) + 1
    keys = dets.scenes * n_keys + dets.classes
    ranked = key_score_order(keys, dets.scores)
    keys = keys[ranked]
    # ground truths grouped by (scene, class), in instance order within each
    gt_keys = inst_scene * n_keys + inst_class
    gt_order = np.argsort(gt_keys, kind="stable")
    first = np.searchsorted(gt_keys[gt_order], keys)
    n_gts = np.searchsorted(gt_keys[gt_order], keys, side="right") - first
    # the ranked rows with ground truths of their (scene, class), column k the
    # k-th of those; -1 pads the rest and can never match
    has_gt = np.flatnonzero(n_gts)
    first, n_gts = first[has_gt], n_gts[has_gt]
    ious = np.full((len(has_gt), max(1, n_gts.max(initial=0))), -1.0)
    det_cols, gt_cols = box_columns(dets.boxes), box_columns(inst_boxes)
    for k in range(ious.shape[1]):
        rows = np.flatnonzero(n_gts > k)
        dets_k, gts_k = ranked[has_gt[rows]], gt_order[first[rows] + k]
        ious[rows, k] = column_iou([c.take(dets_k) for c in det_cols],
                                   [c.take(gts_k) for c in gt_cols])
    # a row whose best IoU is below every threshold is a false positive at each and takes
    # nothing, so only the live rest is matched: the k-th ranked of every group at once
    alive = np.flatnonzero(ious.max(axis=1) >= thresholds.min())
    ious, live = ious.take(alive, axis=0), has_gt[alive]
    keys = keys[live]
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
    scenes: SceneTable,
    iou_thresholds: Sequence[float] = DEFAULT_IOU_THRESHOLDS,
    buckets: Sequence[tuple[str, int, Optional[int]]] = DEFAULT_BUCKETS,
) -> APResult:
    """COCO-style AP: averaged over classes then IoU thresholds, plus AP over
    scene subsets bucketed by ground-truth count. Detections must be NMS'd.

    Matching never crosses scenes, so each detection is matched once per
    threshold and a bucket's AP reuses those matches for its scenes' rows."""
    if len(dets) and not (dets.scenes.min() >= 0 and dets.scenes.max() < len(scenes)):
        raise ValueError("detection scene index out of range")
    thresholds = np.asarray(iou_thresholds, dtype=np.float64).reshape(-1)
    if not len(thresholds):
        raise ValueError("AP needs at least one IoU threshold, got none")
    if len(bad := thresholds[~((thresholds > 0.0) & (thresholds <= 1.0))]):  # NaN included
        raise ValueError(f"AP IoU thresholds must lie in (0, 1], got {bad[0]}")
    # one entry per ground-truth instance: its scene, class and box
    n_inst = scenes.counts
    inst_scene = np.repeat(np.arange(len(scenes)), n_inst)
    inst_class, inst_boxes = scenes.classes, scenes.boxes
    is_tp = _match(dets, inst_scene, inst_class, inst_boxes, thresholds)
    # ranking for AP: descending score, ties by scene, then row order
    ranked = np.lexsort((dets.scenes, -dets.scores))
    is_tp, classes, det_scene = is_tp[ranked], dets.classes[ranked], dets.scenes[ranked]

    def ap_over(scene_mask: np.ndarray) -> dict[float, float]:
        gts = inst_class[scene_mask[inst_scene]]
        in_scenes = scene_mask[det_scene]
        per_class = [_ap(is_tp[in_scenes & (classes == c)], int(np.count_nonzero(gts == c)))
                     for c in np.unique(gts)]  # each class's AP per threshold
        return {thr: float(np.mean([aps[t] for aps in per_class]))
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
