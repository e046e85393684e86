import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from detlab import harness, metrics
from detlab.config import SCENE
from detlab.geometry import iou_matrix
from detlab.harness import _block_detections
from detlab.metrics import (
    DEFAULT_BUCKETS,
    DEFAULT_IOU_THRESHOLDS,
    PAIR_CHUNK,
    APResult,
    Detections,
    MetricsLog,
    _ap,
    compute_ap,
    key_score_order,
    nms,
    proposal_accuracy,
    score_gap_stats,
)
from detlab.net import softmax
from detlab.synthdata import ProposalSet

import ap_oracle
import train_step_oracle
from scene_oracle import scene_table, scenes_of
from test_geometry import Box, iou


def table(*scenes):
    """A scene table whose scene i has the (Box, class) pairs scenes[i]."""
    return scene_table([([b.as_array() for b, _ in pairs], [c for _, c in pairs])
                        for pairs in scenes])


def dets(*rows):
    """Detections from (scene index, Box, class, score) rows."""
    return Detections([r[0] for r in rows], [r[2] for r in rows], [r[3] for r in rows],
                      [r[1].as_array() for r in rows])


def take(detections, rows):
    """The given rows of `detections`, in that order."""
    return Detections(detections.scenes[rows], detections.classes[rows],
                      detections.scores[rows], detections.boxes[rows])


class TestProposalAccuracy:
    def test_all_correct(self):
        logits = np.array([[0.0, 5.0], [5.0, 0.0]])
        targets = np.array([1, 0])
        assert proposal_accuracy(logits, targets) == (1.0, 1.0)

    def test_uniform_tie_goes_to_background(self):
        logits = np.zeros((4, 3))
        targets = np.array([1, 2, 0, 0])
        pos_acc, neg_acc = proposal_accuracy(logits, targets)
        assert pos_acc == 0.0 and neg_acc == 1.0

    def test_empty_group_is_none(self):
        logits = np.zeros((2, 3))
        pos_acc, neg_acc = proposal_accuracy(logits, np.array([0, 0]))
        assert pos_acc is None and neg_acc == 1.0

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logits = rng.normal(size=(6, 4))
            targets = rng.integers(0, 4, size=6)
            pos_acc, neg_acc = proposal_accuracy(logits, targets)
            for v in (pos_acc, neg_acc):
                assert v is None or 0.0 <= v <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 9), st.integers(1, 4))
    def test_block_equals_each_batch(self, seed, n_batches, width, classes):
        rng = np.random.default_rng(seed)
        logits = rng.integers(-2, 3, size=(n_batches, width, classes + 1)).astype(float)  # ties
        targets = rng.integers(0, classes + 1, size=(n_batches, width))
        rows = rng.random((n_batches, width)) < 0.7
        rows[np.arange(n_batches), rng.integers(0, width, size=n_batches)] = True
        pos_acc, neg_acc = proposal_accuracy(logits, np.where(rows, targets, -1))
        for i in range(n_batches):
            want = train_step_oracle.proposal_accuracy(logits[i][rows[i]], targets[i][rows[i]])
            assert (pos_acc[i], neg_acc[i]) == want
            assert proposal_accuracy(logits[i][rows[i]], targets[i][rows[i]]) == want
            assert all(type(v) in (float, type(None)) for v in (pos_acc[i], neg_acc[i]))

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError, match="empty batch"):
            proposal_accuracy(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="empty batch"):  # the second batch is padding only
            proposal_accuracy(np.zeros((2, 3, 3)), np.array([[1, 0, -1], [-1, -1, -1]]))


def brute_force_nms(boxes, scores, classes, thr):
    """Independent greedy implementation over explicit candidate lists."""
    out = []
    for c in sorted(set(classes)):
        remaining = sorted((i for i in range(len(scores)) if classes[i] == c),
                           key=lambda i: -scores[i])
        while remaining:
            best = remaining.pop(0)
            out.append(best)
            remaining = [i for i in remaining
                         if iou(Box(*boxes[i]), Box(*boxes[best])) < thr]
    return out


def window_pairs(boxes, thr):
    """The pairs of one group's boxes whose later-starting box begins within
    (1 - thr) w of the other's x1, w that other box's width: the pairs that
    can reach IoU thr, counted over every pair."""
    x1, width = np.asarray(boxes)[:, 0], np.asarray(boxes)[:, 2] - np.asarray(boxes)[:, 0]
    later = x1[None, :] - x1[:, None]  # [i, j]: how much later box j starts than box i
    reach = (1 - thr) * width
    return int(np.triu(np.where(later >= 0, later <= reach[:, None], -later <= reach[None, :]),
                       1).sum())


@st.composite
def window_cases(draw):
    """(t, boxes, groups, scores) with boxes at the NMS window's edge: each
    box after the first is free, or starts exactly at, one ulp inside or one
    ulp outside x1 + (1 - t) w of an earlier box (so ending with it gives IoU
    about t), touches it, or duplicates it. Scores tie; half the time t is the
    IoU of two drawn boxes, which then sit exactly at the threshold."""
    thr = draw(st.floats(0.01, 0.99))
    quarter = st.integers(0, 80).map(lambda v: v / 4)
    boxes, groups = [], []
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(["free", "at", "inside", "outside", "touching",
                                     "duplicate"])) if boxes else "free"
        if kind == "free":
            x, y, w, h = draw(quarter), draw(quarter), 1 + draw(quarter), 1 + draw(quarter)
            boxes.append([x, y, x + w, y + h])
            groups.append(draw(st.integers(0, 2)))
            continue
        k = draw(st.integers(0, len(boxes) - 1))
        x1, y1, x2, y2 = boxes[k]
        edge = x1 + (1 - thr) * (x2 - x1)
        start = {"at": edge, "inside": np.nextafter(edge, -np.inf),
                 "outside": np.nextafter(edge, np.inf), "touching": x2, "duplicate": x1}[kind]
        end = x2 if kind != "touching" and draw(st.booleans()) else start + x2 - x1
        assume(end > start)
        boxes.append([float(start), y1, float(end), y2])
        groups.append(groups[k])
    if draw(st.booleans()):
        a, b = draw(st.integers(0, len(boxes) - 1)), draw(st.integers(0, len(boxes) - 1))
        pair_iou = float(iou_matrix(boxes[a], boxes[b])[0, 0])
        if 0 < pair_iou < 1:
            thr = pair_iou
    scores = draw(st.lists(st.sampled_from([0.25, 0.5, 0.75]) | st.floats(0, 1),
                           min_size=len(boxes), max_size=len(boxes)))
    return thr, boxes, groups, scores


class TestKeyScoreOrder:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([0, 7, 2**53 - 9, 2**53 - 2, 2**53, -2**53 + 8, -2**53 + 1,
                            -2**53 - 2, 2**62]),
           st.lists(st.tuples(st.integers(-8, 8),
                              st.sampled_from([0.0, -0.0, 0.5, -0.5, np.inf, -np.inf, 5e-324])
                              | st.floats(allow_nan=False)), max_size=40))
    @example(2**53, [(1, 0.1), (0, 0.2), (1, 0.3), (0, 0.4)])  # 2**53 + 1 rounds to 2**53
    def test_equals_lexsort(self, base, rows):
        # keys at and around +-2**53, where a float stops holding every integer
        keys = np.array([base + k for k, _ in rows], dtype=np.int64)
        values = np.array([v for _, v in rows], dtype=np.float64)
        assert key_score_order(keys, values).tolist() == np.lexsort((-values, keys)).tolist()


class TestNms:
    def test_single_detection(self):
        assert nms([[0, 0, 5, 5]], [0.9], [1], 0.5).tolist() == [0]

    def test_duplicate_keeps_higher_score(self):
        assert nms([[0, 0, 5, 5], [0, 0, 5, 5]], [0.9, 0.8], [1, 1], 0.5).tolist() == [0]

    def test_different_classes_not_suppressed(self):
        kept = nms([[0, 0, 5, 5], [0, 0, 5, 5]], [0.9, 0.8], [1, 2], 0.5)
        assert set(kept.tolist()) == {0, 1}

    def test_chain_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            x, y = rng.uniform(0, 20, size=(2, 12))
            w = rng.uniform(3, 10, size=12)
            boxes = np.stack([x, y, x + w, y + w], axis=1)
            scene_ids = rng.integers(0, 2, size=12)
            classes = rng.integers(1, 3, size=12)
            scores = rng.uniform(0.1, 1.0, size=12)
            for sid in (0, 1):  # NMS runs per scene
                rows = np.flatnonzero(scene_ids == sid)
                kept = nms(boxes[rows], scores[rows], classes[rows], 0.4)
                expected = brute_force_nms(boxes[rows].tolist(), scores[rows].tolist(),
                                           classes[rows].tolist(), 0.4)
                assert set(kept.tolist()) == set(expected)

    def test_iou_at_threshold_suppresses(self):
        # IoU exactly 0.5 suppresses at 0.5 and not above
        boxes, scores, groups = [[0, 0, 10, 10], [0, 0, 10, 5]], [0.9, 0.8], [1, 1]
        assert nms(boxes, scores, groups, 0.5).tolist() == [0]
        assert nms(boxes, scores, groups, 0.55).tolist() == [0, 1]

    def test_concatenated_groups_equal_separate_calls(self):
        # one call over many groups keeps, group by group, what a call on each
        # group alone keeps, shifted by the group's first row
        rng = np.random.default_rng(3)
        for trial in range(300):
            parts = []
            for _ in range(int(rng.integers(1, 7))):
                n = int(rng.choice([0, 1, 2, 5, 12, 30]))  # empty and one-row groups
                xy = rng.integers(0, 16, size=(n, 2)) / 2
                boxes = np.concatenate([xy, xy + rng.integers(2, 12, size=(n, 2)) / 2], axis=1)
                halves = np.flatnonzero(rng.random(n) < 0.3)[1:]
                boxes[halves] = boxes[halves - 1]
                boxes[halves, 3] = (boxes[halves, 1] + boxes[halves, 3]) / 2  # IoU 0.5
                scores = (rng.choice([0.3, 0.6, 0.9], size=n) if trial % 2  # ties
                          else rng.uniform(0.0, 1.0, size=n))
                parts.append((boxes, scores))
            thr = (0.3, 0.5, 0.7)[trial % 3]
            groups = np.repeat(3 * np.arange(len(parts)) + 1, [len(b) for b, _ in parts])
            kept = nms(np.concatenate([b for b, _ in parts]),
                       np.concatenate([p for _, p in parts]), groups, thr)
            offsets = np.cumsum([0] + [len(b) for b, _ in parts])
            expected = [offset + nms(b, p, np.zeros(len(b), np.int64), thr)
                        for offset, (b, p) in zip(offsets, parts)]
            assert kept.tolist() == np.concatenate(expected).tolist()

    def test_groups_spanning_pair_chunks_match_the_oracle(self, monkeypatch):
        # (scene, class) groups of 150-250 rows: their window pairs run over
        # several chunks, with tied scores and IoUs exactly at the threshold
        chunk = 1 << 8
        monkeypatch.setattr(metrics, "PAIR_CHUNK", chunk)
        rng = np.random.default_rng(6)
        for trial in range(4):
            rows = []
            for sid, c, n in ((0, 1, 150), (0, 2, 250), (1, 1, 200), (1, 3, 1)):
                xy = rng.integers(0, 120, size=(n, 2)) / 4
                boxes = np.concatenate([xy, xy + rng.integers(16, 60, size=(n, 2)) / 4], axis=1)
                halves = np.flatnonzero(rng.random(n) < 0.3)[1:]
                boxes[halves] = boxes[halves - 1]
                boxes[halves, 3] = (boxes[halves, 1] + boxes[halves, 3]) / 2  # IoU 0.5
                scores = (rng.choice([0.3, 0.6, 0.9], size=n) if trial % 2  # ties
                          else rng.uniform(0.0, 1.0, size=n))
                rows += [(sid, Box(*b), c, float(s)) for b, s in zip(boxes.tolist(), scores)]
            detections = take(dets(*rows), rng.permutation(len(rows)))
            thr = (0.5, 0.7)[trial // 2]
            groups = detections.scenes * 4 + detections.classes
            assert min(window_pairs(detections.boxes[groups == g], thr)
                       for g in (1, 2, 5)) > 3 * chunk  # so chunks cut every large group
            kept = nms(detections.boxes, detections.scores,
                       detections.scenes * 4 + detections.classes, thr)
            expected = ap_oracle.nms(oracle_rows(detections), thr)
            assert as_tuples(take(detections, kept)) == as_tuples(expected), trial

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_any_pair_chunk_keeps_the_same_rows(self, monkeypatch, chunk):
        # chunks that cut groups apart, and a group of 12 rows at one x1, whose
        # first row alone has 11 window pairs, more than any of these chunks
        rng = np.random.default_rng(8)
        cases = [dets(),
                 dets(*[(s, Box(0, 0, 5, 5), 1 + s % 4, 0.5) for s in range(6)]),  # one-row groups
                 dets(*[(0, Box(0, k, 10, k + 10), 2, 1 - k / 16) for k in range(12)])]
        assert window_pairs(cases[2].boxes, 0.5) == 66
        cases += [random_case(rng, n_scenes=3)[1] for _ in range(40)]
        default = [nms(d.boxes, d.scores, d.scenes * 5 + d.classes, 0.5) for d in cases]
        monkeypatch.setattr(metrics, "PAIR_CHUNK", chunk)
        for d, expected in zip(cases, default):
            kept = nms(d.boxes, d.scores, d.scenes * 5 + d.classes, 0.5)
            assert kept.tolist() == expected.tolist()
            assert as_tuples(take(d, kept)) == as_tuples(ap_oracle.nms(oracle_rows(d), 0.5))

    def test_peak_memory_is_bounded_by_the_chunk(self):
        # 1,000 disjoint boxes in one group, stacked in y at one x1, have
        # 499,500 window pairs, ~61 PAIR_CHUNKs: built at once, their two int64
        # indices alone would take 8 MB, four times the bound
        n = 1000
        xy = np.stack([np.zeros(n), 2.0 * np.arange(n)], axis=1)
        args = np.concatenate([xy, xy + 1.0], axis=1), np.linspace(1, 0, n), np.zeros(n, int), 0.5
        assert window_pairs(args[0], 0.5) == n * (n - 1) // 2 > 3 * PAIR_CHUNK
        nms(*args)  # allocations made once per process are not the bound's
        tracemalloc.start()
        try:
            kept = nms(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept.tolist() == list(range(n))
        assert peak < 256 * PAIR_CHUNK

    def test_window_edge_hand_case(self):
        # the second box starts at x1 + (1 - t) w of the first and ends with it:
        # IoU exactly t = 0.5, so it is suppressed; one ulp later it is not
        edge = 0 + (1 - 0.5) * 10
        for x, kept in ((np.nextafter(edge, 0), [0]), (edge, [0]),
                        (np.nextafter(edge, 10), [0, 1])):
            assert nms([[0, 0, 10, 10], [x, 0, 10, 10]], [0.9, 0.8], [1, 1], 0.5).tolist() == kept

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_window_edges_match_both_oracles(self, data):
        thr, boxes, groups, scores = data.draw(window_cases())
        kept = nms(boxes, scores, groups, thr)
        assert kept.tolist() == brute_force_nms(boxes, scores, groups, thr)
        rows = [ap_oracle.Detection(0, Box(*b), g + 1, s) for b, g, s in zip(boxes, groups, scores)]
        assert [rows[k] for k in kept.tolist()] == ap_oracle.nms(rows, thr)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_scores(self, bad):
        with pytest.raises(ValueError, match=f"detection scores must be finite, got {bad} at row 1"):
            nms([[0, 0, 5, 5], [1, 1, 6, 6]], [0.9, bad], [1, 1], 0.5)
        with pytest.raises(ValueError, match=f"detection scores must be finite, got {bad} at row 1"):
            dets((0, Box(0, 0, 5, 5), 1, 0.9), (0, Box(1, 1, 6, 6), 1, bad))

    @pytest.mark.parametrize("n_boxes, n_scores, n_groups", [(2, 3, 2), (2, 2, 1), (3, 2, 2)])
    def test_rejects_mismatched_lengths(self, n_boxes, n_scores, n_groups):
        with pytest.raises(ValueError, match=f"mismatched NMS array lengths: {n_boxes} boxes, "
                                             f"{n_scores} scores, {n_groups} groups"):
            nms([[0, 0, 5, 5]] * n_boxes, [0.9] * n_scores, [1] * n_groups, 0.5)

    @pytest.mark.parametrize("thr", [0.0, 1.0, float("nan"), -0.5])
    def test_rejects_threshold_outside_the_open_interval(self, thr):
        with pytest.raises(ValueError, match=rf"NMS threshold must lie in \(0, 1\), got {thr}"):
            nms([[0, 0, 5, 5]], [0.9], [1], thr)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        x, y = rng.uniform(0, 30, size=(2, 20))
        w = rng.uniform(3, 12, size=20)
        boxes = np.stack([x, y, x + w, y + w], axis=1)
        scores = rng.uniform(0, 1, size=20)
        classes = np.ones(20, dtype=np.int64)
        once = nms(boxes, scores, classes, 0.5)
        again = nms(boxes[once], scores[once], classes[once], 0.5)
        assert once[again].tolist() == once.tolist()


class TestComputeAp:
    def perfect_case(self):
        scenes = table(
            [(Box(0, 0, 10, 10), 1), (Box(30, 30, 40, 45), 2)],
            [(Box(5, 5, 20, 20), 3)],
        )
        return dets(*[(s.id, Box(*b), c, 1.0) for s in scenes_of(scenes)
                      for b, c in zip(s.gt_boxes.tolist(), s.gt_classes.tolist())]), scenes

    def test_perfect_detections(self):
        detections, scenes = self.perfect_case()
        result = compute_ap(detections, scenes, buckets=())
        assert result.mean_ap == 1.0
        assert all(v == 1.0 for v in result.per_threshold.values())

    def test_no_detections(self):
        _, scenes = self.perfect_case()
        assert compute_ap(dets(), scenes, buckets=()).mean_ap == 0.0

    def test_fp_above_tp_hand_case(self):
        scenes = table([(Box(0, 0, 10, 10), 1)])
        detections = dets(
            (0, Box(0, 0, 10, 10), 1, 0.9),  # TP
            (0, Box(50, 50, 60, 60), 1, 0.95),  # FP, higher score
        )
        result = compute_ap(detections, scenes, iou_thresholds=[0.5], buckets=())
        # precision envelope is 0.5 across the whole recall axis
        assert result.per_threshold[0.5] == pytest.approx(0.5)

    def test_iou_at_threshold_is_a_match(self):
        scenes = table([(Box(0, 0, 10, 10), 1)])
        half = dets((0, Box(0, 0, 10, 5), 1, 0.9))  # IoU exactly 0.5
        result = compute_ap(half, scenes, iou_thresholds=[0.5, 0.55], buckets=())
        assert result.per_threshold == {0.5: 1.0, 0.55: 0.0}

    def test_iou_tie_goes_to_lowest_instance(self):
        scenes = table([(Box(0, 0, 10, 10), 1), (Box(5, 0, 15, 10), 1)])
        detections = dets(
            (0, Box(2.5, 0, 12.5, 10), 1, 0.9),  # IoU 0.6 with both: takes the first
            (0, Box(0, 0, 10, 10), 1, 0.8),  # so this one is left with IoU 1/3
        )
        result = compute_ap(detections, scenes, iou_thresholds=[0.5], buckets=())
        assert result.per_threshold[0.5] == pytest.approx(51 / 101)
        assert result == ap_oracle.compute_ap(oracle_rows(detections), scenes,
                                              iou_thresholds=[0.5], buckets=())

    def test_adding_top_scoring_tp_never_decreases_ap(self):
        scenes = table([(Box(0, 0, 10, 10), 1), (Box(40, 40, 55, 55), 1)])
        rows = [
            (0, Box(1, 0, 10, 10), 1, 0.7),
            (0, Box(70, 70, 80, 80), 1, 0.6),
        ]
        base = compute_ap(dets(*rows), scenes, buckets=()).mean_ap
        rows.append((0, Box(40, 40, 55, 55), 1, 0.99))
        improved = compute_ap(dets(*rows), scenes, buckets=()).mean_ap
        assert improved >= base

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(4)
        scenes = []
        rows = []
        for sid in range(10):
            boxes = []
            for _ in range(3):
                x, y = rng.uniform(0, 80, size=2)
                w = rng.uniform(5, 15)
                boxes.append((Box(x, y, x + w, y + w), int(rng.integers(1, 3))))
            scenes.append(boxes)
            for b, c in boxes:
                jx = rng.uniform(-2, 2)
                rows.append((sid, Box(b.x1 + jx, b.y1, b.x2 + jx, b.y2),
                             c, float(rng.uniform(0.2, 1.0))))
        result = compute_ap(dets(*rows), table(*scenes), buckets=())
        assert result.per_threshold[0.75] <= result.per_threshold[0.5]

    def test_buckets_partition_scenes(self):
        scenes = table(
            [(Box(0, 0, 10, 10), 1)],
            [(Box(10 * i, 0, 10 * i + 8, 8), 1) for i in range(9)],
        )
        result = compute_ap(dets((0, Box(0, 0, 10, 10), 1, 0.9)), scenes)
        assert result.per_bucket["1_3"] == 1.0
        assert result.per_bucket["8_inf"] == 0.0

    def test_bucket_equals_ap_of_its_scenes_alone(self):
        for seed in range(20):
            scenes, detections = random_case(np.random.default_rng(seed))
            result = compute_ap(detections, scenes)
            for name, lo, hi in DEFAULT_BUCKETS:
                idx = [i for i, n in enumerate(scenes.counts.tolist())
                       if n >= lo and (hi is None or n <= hi)]
                remap = np.full(len(scenes), -1)
                remap[idx] = np.arange(len(idx))
                sub = take(detections, np.isin(detections.scenes, idx))
                sub = Detections(remap[sub.scenes], sub.classes, sub.scores, sub.boxes)
                alone = compute_ap(sub, scenes.take(idx), buckets=())
                assert result.per_bucket[name] == alone.mean_ap

    @pytest.mark.parametrize("thresholds, message", [
        ((), "AP needs at least one IoU threshold, got none"),
        ((float("nan"),), r"AP IoU thresholds must lie in \(0, 1\], got nan"),
        ((0.5, 0.0), r"AP IoU thresholds must lie in \(0, 1\], got 0.0"),
        ((1.5,), r"AP IoU thresholds must lie in \(0, 1\], got 1.5"),
        ((-0.25, 0.5), r"AP IoU thresholds must lie in \(0, 1\], got -0.25"),
    ], ids=["empty", "nan", "zero", "above-one", "negative"])
    def test_rejects_bad_thresholds(self, thresholds, message):
        detections, scenes = self.perfect_case()
        with pytest.raises(ValueError, match=message):
            compute_ap(detections, scenes, iou_thresholds=thresholds)

    def test_threshold_one_takes_only_exact_boxes(self):
        detections, scenes = self.perfect_case()
        assert compute_ap(detections, scenes, iou_thresholds=(1.0,), buckets=()).mean_ap == 1.0

    def test_rejects_unknown_scene_index(self):
        _, scenes = self.perfect_case()
        with pytest.raises(ValueError, match="scene index"):
            compute_ap(dets((2, Box(0, 0, 10, 10), 1, 0.9)), scenes)


# --- exact equality with the per-object reference (tests/ap_oracle.py) -------

def random_case(rng, n_scenes=None):
    """Scenes (ids 0..n-1, 0-12 instances, some duplicated boxes, some all of
    one class) and detections near them in shuffled rows: tied scores, empty
    scenes, and class 4, which no ground truth has. Coordinates lie on a
    quarter grid, so IoUs tie and hit the thresholds exactly."""
    def grid(a):
        return np.round(np.asarray(a) * 4) / 4

    scenes, rows = [], []
    for sid in range(rng.integers(0, 8) if n_scenes is None else n_scenes):
        n_inst = int(rng.choice([0, 1, 2, 3, 5, 8, 9, 12]))
        one_class = rng.random() < 0.3  # up to 12 instances of class 1
        insts = []
        for _ in range(n_inst):
            if insts and rng.random() < 0.15:
                insts.append(insts[-1])  # exact duplicate: argmax ties
                continue
            x, y = grid(rng.uniform(0, 40, size=2))
            w, h = grid(rng.uniform(4, 15, size=2))
            insts.append((Box(x, y, x + w, y + h), 1 if one_class else int(rng.integers(1, 4))))
        scenes.append(insts)
        for _ in range(rng.integers(0, 15)):
            if insts and rng.random() < 0.7:
                b, c = insts[rng.integers(len(insts))]
                jx, jy = grid(rng.uniform(-3, 3, size=2))
                box = Box(b.x1 + jx, b.y1 + jy, b.x2 + jx, b.y2 + jy)
                if rng.random() < 0.2:
                    box = Box(b.x1, b.y1, b.x2, (b.y1 + b.y2) / 2)  # IoU exactly 0.5
                if rng.random() < 0.2:
                    c = int(rng.integers(1, 5))
            else:
                x, y = grid(rng.uniform(0, 40, size=2))
                box, c = Box(x, y, x + 10, y + 10), int(rng.integers(1, 5))
            score = (float(rng.choice([0.3, 0.5, 0.9])) if rng.random() < 0.5
                     else float(rng.uniform(0.05, 1.0)))
            rows.append((sid, box, c, score))
    return table(*scenes), take(dets(*rows), rng.permutation(len(rows)))  # rows not in scene order


def oracle_rows(detections):
    return [ap_oracle.Detection(int(s), Box(*map(float, b)), int(c), float(p))
            for s, c, p, b in zip(detections.scenes, detections.classes,
                                  detections.scores, detections.boxes)]


def as_tuples(detections):
    if isinstance(detections, Detections):
        return [(int(s), int(c), float(p), tuple(map(float, b)))
                for s, c, p, b in zip(detections.scenes, detections.classes,
                                      detections.scores, detections.boxes)]
    return [(d.scene_id, d.class_id, d.score, (d.box.x1, d.box.y1, d.box.x2, d.box.y2))
            for d in detections]


class TestMatchesOracle:
    def test_nms_keeps_the_same_rows_in_the_same_order(self):
        for seed in range(100):
            scenes, detections = random_case(np.random.default_rng(seed), n_scenes=1)
            kept = nms(detections.boxes, detections.scores, detections.classes, 0.5)
            expected = ap_oracle.nms(oracle_rows(detections), 0.5)
            assert as_tuples(take(detections, kept)) == as_tuples(expected)

    def test_ap_equals_the_oracle_on_flag_vectors(self):
        rng = np.random.default_rng(12)
        cases = [(np.zeros(0, bool), 3), (np.zeros(7, bool), 3), (np.ones(7, bool), 7),
                 (np.ones(5, bool), 0), (rng.random(9) < 0.5, 0), (np.ones(4, bool), 9)]
        # ground-truth counts whose recalls k / n_gt land on the 101-point grid
        for n_gt in (1, 2, 4, 5, 10, 20, 25, 50, 100):
            for _ in range(20):
                flags = np.zeros(int(rng.integers(0, 3 * n_gt + 4)), bool)
                flags[:int(rng.integers(0, min(n_gt, len(flags)) + 1))] = True  # n_gt >= TPs
                cases.append((rng.permutation(flags), n_gt))
        for flags, n_gt in cases:
            scored = [(-float(k), k, bool(f)) for k, f in enumerate(flags)]  # already ranked
            assert repr(_ap(flags, n_gt)) == repr(ap_oracle._ap_from_matches(scored, n_gt))

    def test_compute_ap_is_equal_in_every_field(self):
        most = 0  # ground truths of one (scene, class)
        for seed in range(200):
            scenes, detections = random_case(np.random.default_rng(seed))
            most = max([most] + [np.bincount(s.gt_classes).max()
                                 for s in scenes_of(scenes) if len(s.gt_classes)])
            thresholds = (0.3, 0.5, 0.75, 0.9) if seed % 2 else DEFAULT_IOU_THRESHOLDS
            result = compute_ap(detections, scenes, iou_thresholds=thresholds)
            expected = ap_oracle.compute_ap(oracle_rows(detections), scenes,
                                            iou_thresholds=thresholds)
            assert result == expected, seed
        assert most == 12  # so every ground-truth column of the matching is filled

    # matching runs only over the detections that reach the lowest threshold
    # with a ground truth of their (scene, class); the rest must stay false
    # positives at every threshold and never take a ground truth

    def assert_equals_oracle(self, detections, scenes, thresholds):
        result = compute_ap(detections, scenes, iou_thresholds=thresholds)
        assert result == ap_oracle.compute_ap(oracle_rows(detections), scenes,
                                              iou_thresholds=thresholds)
        return result

    def test_most_detections_below_the_lowest_threshold(self):
        live = total = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            scenes, detections = random_case(rng)
            rows = [(s, Box(*b), c, p) for s, c, p, b in as_tuples(detections)]
            # near misses: each ground truth shifted by 0.4-0.9 of its width
            for s in scenes_of(scenes):
                for b, c in zip(s.gt_boxes.tolist(), s.gt_classes.tolist()):
                    for f in rng.choice([0.4, 0.5, 0.6, 0.75, 0.9], size=3):
                        shift = f * (b[2] - b[0])
                        rows.append((s.id, Box(b[0] + shift, b[1], b[2] + shift, b[3]), c,
                                     float(rng.choice([0.3, 0.95, rng.uniform(0.05, 1.0)]))))
            detections = take(dets(*rows), rng.permutation(len(rows)))
            thresholds = (0.3, 0.5, 0.75, 0.9) if seed % 2 else DEFAULT_IOU_THRESHOLDS
            self.assert_equals_oracle(detections, scenes, thresholds)
            per_scene = scenes_of(scenes)
            best = [max([iou(Box(*b), Box(*g)) for g, gc in zip(per_scene[s].gt_boxes.tolist(),
                                                               per_scene[s].gt_classes.tolist())
                         if gc == c], default=0.0)
                    for s, c, b in zip(detections.scenes, detections.classes,
                                       detections.boxes.tolist())]
            live += sum(v >= min(thresholds) for v in best)
            total += len(best)
        assert live < 0.4 * total, (live, total)

    def test_no_detection_reaches_the_lowest_threshold(self):
        scenes = table([(Box(0, 0, 10, 10), 1), (Box(20, 0, 30, 10), 2)],
                       [(Box(0, 0, 10, 10), 1)])
        detections = dets(
            (0, Box(6, 0, 16, 10), 1, 0.9),  # IoU 0.25
            (0, Box(0, 0, 10, 10), 2, 0.8),  # another class's box
            (1, Box(5, 0, 15, 10), 1, 0.8),  # IoU 1/3
            (1, Box(50, 50, 60, 60), 3, 0.7),  # a class without ground truths
        )
        for thresholds in ((0.5,), DEFAULT_IOU_THRESHOLDS, (0.4, 0.9)):
            result = self.assert_equals_oracle(detections, scenes, thresholds)
            assert set(result.per_threshold.values()) == {0.0}
            assert set(result.per_bucket.values()) == {0.0}

    def test_live_row_ranked_after_dead_rows(self):
        scenes = table([(Box(0, 0, 10, 10), 1), (Box(20, 0, 30, 10), 1)])
        detections = dets(
            (0, Box(6, 0, 16, 10), 1, 0.9),  # IoU 0.25: dead
            (0, Box(50, 50, 60, 60), 1, 0.8),  # IoU 0: dead
            (0, Box(0, 0, 10, 5), 1, 0.7),  # IoU exactly 0.5 with the first
            (0, Box(20, 0, 30, 10), 1, 0.7),  # tied score, IoU 1 with the second
            (0, Box(0, 0, 10, 10), 1, 0.6),  # IoU 1 with the first, once it is free
        )
        result = self.assert_equals_oracle(detections, scenes, (0.5, 0.55))
        assert result.per_threshold == {0.5: pytest.approx(0.5), 0.55: pytest.approx(0.4)}

    def test_single_threshold(self):
        for seed in range(100):
            scenes, detections = random_case(np.random.default_rng(seed))
            self.assert_equals_oracle(detections, scenes, ((0.5,), (0.75,), (0.3,))[seed % 3])

    def test_detection_extraction_and_ap_match(self, monkeypatch):
        # an ensemble and two heads in blocks of 1, 2 and 5 scenes share one
        # NMS call per block; each output must equal the old extraction run on
        # that output alone, scene by scene
        cap = 6
        monkeypatch.setattr(harness, "MAX_DETECTIONS", cap)
        protocol = dict(num_classes=SCENE.num_classes, score_floor=harness.SCORE_FLOOR,
                        nms_threshold=harness.NMS_THRESHOLD)
        segments = {"empty": 0, "under the cap": 0, "over the cap": 0}
        for seed in range(30):
            rng = np.random.default_rng(seed)
            scenes, _ = random_case(rng, n_scenes=5)
            outputs, theirs = [], [[], [], []]  # per scene (scores, boxes); per output
            for s in scenes_of(scenes):
                n = int(rng.choice([0, 1, 2, 12, 25, 40]))
                x, y = rng.uniform(0, 40, size=(2, 3, n))
                w, h = rng.uniform(4, 15, size=(2, 3, n))
                boxes = np.stack([x, y, x + w, y + h], axis=-1)
                scores = rng.dirichlet(np.ones(4), size=(3, n))
                scores[rng.random((3, n)) < 0.3] = [0.1, 0.3, 0.3, 0.3]  # tied rows
                scores[rng.random(3) < 0.2] = [0.97, 0.01, 0.01, 0.01]  # below the floor
                outputs.append((scores, boxes))
                for expected, o_scores, o_boxes in zip(theirs, scores, boxes):
                    expected.extend(ap_oracle.detections_for(
                        s, o_scores, o_boxes, **protocol, max_detections=cap))
                    n_kept = len(ap_oracle.detections_for(
                        s, o_scores, o_boxes, **protocol, max_detections=10**6))
                    segments["empty" if n_kept == 0 else "over the cap"
                             if n_kept > cap else "under the cap"] += 1
            for size in (1, 2, 5):
                found = []
                for start in range(0, len(scenes), size):
                    index = range(start, min(start + size, len(scenes)))
                    scores, boxes = (np.concatenate(a, axis=1)
                                     for a in zip(*(outputs[i] for i in index)))
                    n = [outputs[i][0].shape[1] for i in index]
                    block = ProposalSet(np.zeros((sum(n), 4)), np.zeros(sum(n), int),
                                        np.zeros((sum(n), 4)), np.zeros((sum(n), 1)),
                                        np.cumsum([0] + n))
                    # the model is read only to name a diverged output
                    found.append(_block_detections(None, block, index, scenes, scores, boxes))
                for ours, expected in zip(zip(*found), theirs, strict=True):
                    ours = Detections(*map(np.concatenate, zip(*ours)))
                    assert as_tuples(ours) == as_tuples(expected), (seed, size)
                    assert compute_ap(ours, scenes) == ap_oracle.compute_ap(expected, scenes)
        assert min(segments.values()) >= 20, segments


def foreground(logits):
    """Each row's largest non-background probability."""
    return softmax(logits)[..., 1:].max(axis=-1)


class TestScoreGap:
    def test_identical_heads_point_mass_at_zero(self):
        fg = foreground(np.random.default_rng(0).normal(size=(50, 4)))
        stats = score_gap_stats(np.stack([fg, fg]))
        assert stats.median_gap == 0.0
        assert stats.frac_large_gap == 0.0

    def test_shifted_foreground_class_increases_scores(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(100, 3))
        shifted = logits.copy()
        shifted[:, 1] += 2.0
        stats = score_gap_stats(foreground(np.stack([shifted, logits])))
        assert stats.mean_fg[0] > stats.mean_fg[1]
        assert stats.median_gap > 0.0

    def test_matches_brute_force_pairwise(self):
        rng = np.random.default_rng(2)
        h1 = rng.normal(size=(200, 4))
        h2 = rng.normal(size=(200, 4))
        s1, s2 = foreground(h1), foreground(h2)
        stats = score_gap_stats([s1, s2])
        gaps = [abs(a - b) for a, b in zip(s1, s2)]
        assert stats.frac_large_gap == pytest.approx(
            sum(g > 0.1 for g in gaps) / len(gaps))
        assert stats.median_gap == pytest.approx(float(np.median(gaps)))

    def test_needs_two_heads(self):
        with pytest.raises(ValueError):
            score_gap_stats(np.zeros((1, 3)))


class TestMetricsLog:
    def test_csv_round_trip(self, tmp_path):
        log = MetricsLog()
        log.extend({"step": [0], "pos_count_unique": [3], "pos_count_effective": [5],
                    "pos_acc": [0.5], "neg_acc": [0.9], "lambda": [2.5],
                    "fg_score_h1": [0.3], "fg_score_h2": [0.2]})
        log.extend({"step": [1, 2], "pos_count_unique": [3, 0], "pos_count_effective": [5, 0],
                    "pos_acc": [None, None], "neg_acc": [0.1 + 0.2, 1.0], "lambda": [2.5, 1.0],
                    "fg_score_h1": [1 / 3, 0.25], "fg_score_h2": [0.2, 1e-300]})
        path = tmp_path / "metrics.csv"
        log.to_csv(path)
        counts = ("step", "pos_count_unique", "pos_count_effective")
        with open(path, newline="") as fh:  # the CSV alone gives back every column
            header, *rows = csv.reader(fh)
        loaded = {name: [int(v) if name in counts else float(v) if v else None for v in column]
                  for name, column in zip(header, zip(*rows, strict=True), strict=True)}
        assert loaded == log.columns
