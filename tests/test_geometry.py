import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from detlab.geometry import (
    check_boxes,
    decode_deltas_array,
    encode_deltas_array,
    iou_matrix,
    label_arrays,
    pool_max_iou,
    valid_boxes,
)
from scene_oracle import scene_table


@dataclass(frozen=True)
class Box:
    """Scalar corner box: input to the scalar IoU reference and the hand cases."""

    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=np.float64)


def boxes(min_size=0.5, max_size=50.0):
    coord = st.floats(-100, 100, allow_nan=False)
    size = st.floats(min_size, max_size)
    return st.builds(
        lambda x, y, w, h: Box(x, y, x + w, y + h), coord, coord, size, size
    )


class TestBox:
    """Box validity is defined once, by valid_boxes, for detections and scenes."""

    def test_rejects_degenerate(self):
        np.testing.assert_array_equal(check_boxes([1, 2, 4, 6], "boxes"), [[1, 2, 4, 6]])
        for bad in ([0, 0, 0, 1], [0, 0, 1, float("nan")], [0, 0, float("inf"), 1]):
            with pytest.raises(ValueError, match="detection boxes must be finite"):
                check_boxes([[0, 0, 1, 1], bad], "detection boxes")
            with pytest.raises(ValueError, match="ground-truth boxes must be finite"):
                scene_table([([bad], [1])])

    def test_valid_boxes_equals_the_row_reduction(self):
        def row_reduction(boxes):  # the form valid_boxes had before it worked by column
            return np.isfinite(boxes).all(axis=1) & (boxes[:, 2:] > boxes[:, :2]).all(axis=1)

        rows = [[0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 1], [0, 1, 1, 0]]
        for col in range(4):
            for value in (np.inf, -np.inf, np.nan):
                rows.append([0, 0, 1, 1])
                rows[-1][col] = value
        boxes = np.concatenate([np.array(rows, dtype=np.float64),
                                np.random.default_rng(5).integers(0, 3, size=(200, 4))])
        np.testing.assert_array_equal(valid_boxes(boxes), row_reduction(boxes))
        assert valid_boxes(boxes)[:6].tolist() == [True] + [False] * 5
        assert valid_boxes(np.zeros((0, 4))).shape == (0,)

    def test_scene_rejects_background_class_and_length_mismatch(self):
        with pytest.raises(ValueError, match="class ids must be >= 1"):
            scene_table([([[0, 0, 1, 1]], [0])])
        with pytest.raises(ValueError, match="mismatched"):
            scene_table([([[0, 0, 1, 1]], [1, 2])])


def iou(a: Box, b: Box) -> float:
    """Scalar reference for iou_matrix: intersection over union of two boxes."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def iou_of(a: Box, b: Box) -> float:
    return float(iou_matrix(a.as_array(), b.as_array())[0, 0])


class TestIou:
    def test_identity(self):
        b = Box(3, 4, 9, 11)
        assert iou_of(b, b) == 1.0

    def test_disjoint(self):
        assert iou_of(Box(0, 0, 1, 1), Box(5, 5, 6, 6)) == 0.0

    def test_hand_case(self):
        # intersection 1, union 7
        assert iou_of(Box(0, 0, 2, 2), Box(1, 1, 3, 3)) == pytest.approx(1 / 7)

    @given(boxes(), boxes())
    def test_symmetric_and_bounded(self, a, b):
        v = iou_of(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou_of(b, a)

    @given(st.lists(boxes(), min_size=1, max_size=6),
           st.lists(boxes(), min_size=1, max_size=6))
    @settings(max_examples=30)
    def test_matrix_matches_scalar(self, xs, ys):
        m = iou_matrix(np.stack([b.as_array() for b in xs]),
                       np.stack([b.as_array() for b in ys]))
        for i, a in enumerate(xs):
            for j, b in enumerate(ys):
                assert m[i, j] == pytest.approx(iou(a, b), abs=1e-12)


def encode(p: Box, g: Box) -> np.ndarray:
    return encode_deltas_array(p.as_array(), g.as_array())[0]


def decode(p: Box, deltas) -> Box:
    return Box(*map(float, decode_deltas_array(p.as_array(), deltas)[0]))


class TestDeltas:
    def test_identity(self):
        b = Box(2, 3, 8, 9)
        np.testing.assert_allclose(encode(b, b), np.zeros(4), atol=0)

    def test_hand_case(self):
        d = encode(Box(0, 0, 10, 10), Box(5, 0, 15, 10))
        np.testing.assert_allclose(d, [0.5, 0, 0, 0], atol=1e-12)

    def test_decode_inverse_hand_case(self):
        out = decode(Box(0, 0, 10, 10), [0.5, 0, 0, 0])
        np.testing.assert_allclose(out.as_array(), [5, 0, 15, 10], atol=1e-9)

    def test_decode_zero(self):
        b = Box(1, 1, 5, 7)
        assert decode(b, np.zeros(4)) == b

    def test_clamp(self):
        out = decode(Box(0, 0, 10, 10), [0, 0, 10.0, 0])
        assert out.width == pytest.approx(10 * math.exp(4.0))

    @given(boxes(), boxes())
    @settings(max_examples=200)
    def test_round_trip(self, p, g):
        # decode is the exact inverse only below the log-space size clamp
        assume(abs(math.log(g.width / p.width)) < 4.0)
        assume(abs(math.log(g.height / p.height)) < 4.0)
        out = decode(p, encode(p, g))
        np.testing.assert_allclose(out.as_array(), g.as_array(), atol=1e-9)


def label(proposals, gts, thr):
    """label_arrays on Box proposals and (Box, class) ground truths."""
    props = np.array([p.as_array() for p in proposals]).reshape(-1, 4)
    gt_boxes = np.array([b.as_array() for b, _ in gts]).reshape(-1, 4)
    gt_classes = np.array([c for _, c in gts], dtype=np.int64)
    return label_arrays(iou_matrix(props, gt_boxes), props, gt_boxes, gt_classes, thr)


class TestLabeling:
    def gts(self):
        return [(Box(0, 0, 10, 10), 3), (Box(20, 20, 30, 30), 1)]

    def test_exact_match(self):
        classes, max_ious, matched, reg = label([Box(0, 0, 10, 10)], self.gts(), 0.5)
        assert classes[0] == 3
        assert max_ious[0] == 1.0
        assert matched[0] == 0
        np.testing.assert_allclose(reg[0], np.zeros(4))

    def test_below_threshold_is_background(self):
        # IoU 3/17 < 0.5: background, though its nearest instance is still named
        classes, _, nearest, reg = label([Box(7, 7, 12, 12), Box(50, 50, 60, 60)],
                                         self.gts(), 0.5)
        assert classes.tolist() == [0, 0] and nearest.tolist() == [0, -1]
        np.testing.assert_array_equal(reg, np.zeros((2, 4)))

    def test_empty_gts(self):
        classes, max_ious, _, _ = label([Box(0, 0, 5, 5), Box(1, 1, 2, 2)], [], 0.5)
        assert (classes == 0).all() and (max_ious == 0.0).all()

    def test_block_of_scenes_equals_each_alone(self):
        # two scenes labeled in one call: the second's ground truths follow the
        # first's, and its missing second column holds IoU 0
        props = [Box(0, 0, 10, 10), Box(7, 7, 12, 12), Box(21, 21, 30, 30)]
        other_props = [Box(0, 0, 10, 10), Box(50, 50, 60, 60)]
        other_gts = [(Box(1, 1, 10, 10), 2)]
        alone = [label(props, self.gts(), 0.5), label(other_props, other_gts, 0.5)]
        boxes = np.array([b.as_array() for b in props + other_props])
        gts = self.gts() + other_gts
        ious = np.zeros((5, 2))
        ious[:3] = iou_matrix(boxes[:3], np.array([b.as_array() for b, _ in gts[:2]]))
        ious[3:, :1] = iou_matrix(boxes[3:], gts[2][0].as_array())
        block = label_arrays(ious, boxes, np.array([b.as_array() for b, _ in gts]),
                             np.array([c for _, c in gts]), 0.5, np.array([0, 0, 0, 2, 2]))
        np.testing.assert_array_equal(block[1], np.concatenate([alone[0][1], alone[1][1]]))
        np.testing.assert_array_equal(block[2], [0, 0, 1, 2, -1])
        for got, a, b in zip((block[0], block[3]), (alone[0][0], alone[0][3]),
                             (alone[1][0], alone[1][3])):
            np.testing.assert_array_equal(got, np.concatenate([a, b]), strict=True)

    def test_iou_at_threshold_is_positive(self):
        # the lower half of the first instance: IoU exactly 50/100
        classes, max_ious, _, _ = label([Box(0, 0, 10, 5)], self.gts(), 0.5)
        assert max_ious[0] == 0.5 and classes[0] == 3

    def test_tie_breaks_to_lowest_gt_index(self):
        gts = [(Box(0, 0, 10, 10), 2), (Box(0, 0, 10, 10), 3)]
        classes, _, matched, _ = label([Box(0, 0, 10, 10)], gts, 0.5)
        assert matched[0] == 0 and classes[0] == 2

    @given(st.lists(boxes(), min_size=1, max_size=8),
           st.floats(0.2, 0.6), st.floats(0.05, 0.39))
    @settings(max_examples=50)
    def test_raising_threshold_never_adds_positives(self, props, thr, bump):
        gts = [(Box(0, 0, 15, 15), 1), (Box(-20, -20, -5, -5), 2)]
        low = label(props, gts, thr)[0]
        high = label(props, gts, min(thr + bump, 0.99))[0]
        assert not (high[low == 0] > 0).any()


@st.composite
def pool_blocks(draw):
    """A block of pools: each pool 0-12 instances, repeats among them so that
    IoUs tie, and proposals that may equal one of them or overlap nothing."""
    pools = []
    for _ in range(draw(st.integers(1, 6))):
        shapes = draw(st.lists(boxes(), min_size=1, max_size=3))
        gts = draw(st.lists(st.sampled_from(shapes), max_size=12))
        far = st.builds(lambda x, y: Box(x, y, x + 5, y + 5), st.floats(200, 300), st.floats(200, 300))
        props = draw(st.lists(st.one_of(boxes(), far, st.sampled_from(shapes)),
                              min_size=1, max_size=8))
        pools.append((gts, props))
    return pools


class TestPoolMaxIou:
    @given(pool_blocks())
    @settings(max_examples=100)
    def test_equals_argmax_of_each_pool_alone(self, pools):
        def as_array(bs):
            return np.array([b.as_array() for b in bs]).reshape(-1, 4)

        offsets = np.cumsum([0, *(len(props) for _, props in pools)])
        gt_offsets = np.cumsum([0, *(len(gts) for gts, _ in pools)])
        best, column = pool_max_iou(as_array(p for _, ps in pools for p in ps), offsets,
                                    as_array(g for gs, _ in pools for g in gs), gt_offsets)
        for i, (gts, props) in enumerate(pools):
            rows = slice(offsets[i], offsets[i + 1])
            ious = iou_matrix(as_array(props), as_array(gts))
            want = np.argmax(ious, axis=1) if gts else np.zeros(len(props), dtype=np.int64)
            want_best = ious[np.arange(len(props)), want] if gts else np.zeros(len(props))
            assert best[rows].tobytes() == want_best.tobytes(), f"pool {i}"
            np.testing.assert_array_equal(column[rows], want, strict=True, err_msg=f"pool {i}")
