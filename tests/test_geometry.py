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
)
from detlab.synthdata import Scene


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
    """Box validity is defined once, by check_boxes, for detections and scenes."""

    def test_rejects_degenerate(self):
        np.testing.assert_array_equal(check_boxes([1, 2, 4, 6], "boxes"), [[1, 2, 4, 6]])
        for bad in ([0, 0, 0, 1], [0, 0, 1, float("nan")], [0, 0, float("inf"), 1]):
            with pytest.raises(ValueError, match="detection boxes must be finite"):
                check_boxes([[0, 0, 1, 1], bad], "detection boxes")
            with pytest.raises(ValueError, match="ground-truth boxes must be finite"):
                Scene(0, (100.0, 100.0), [bad], [1])

    def test_scene_rejects_background_class_and_length_mismatch(self):
        with pytest.raises(ValueError, match="class ids must be >= 1"):
            Scene(0, (100.0, 100.0), [[0, 0, 1, 1]], [0])
        with pytest.raises(ValueError, match="mismatched"):
            Scene(0, (100.0, 100.0), [[0, 0, 1, 1]], [1, 2])


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
        # IoU 3/17 < 0.5
        classes, _, matched, reg = label([Box(7, 7, 12, 12)], self.gts(), 0.5)
        assert classes[0] == 0 and matched[0] == -1
        np.testing.assert_array_equal(reg[0], np.zeros(4))

    def test_empty_gts(self):
        classes, max_ious, _, _ = label([Box(0, 0, 5, 5), Box(1, 1, 2, 2)], [], 0.5)
        assert (classes == 0).all() and (max_ious == 0.0).all()

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
