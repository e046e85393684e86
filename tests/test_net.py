import math

import numpy as np
import pytest

from detlab.net import (
    BackboneParams,
    ForwardCache,
    Gradients,
    HeadParams,
    TrainConfig,
    _smooth_l1_grad,
    backward,
    class_max,
    cls_loss,
    flatten,
    forward,
    init_backbone,
    init_head,
    load_params,
    reg_loss,
    save_params,
    sgd_step,
    softmax,
    stack_heads,
    total_loss,
)
from detlab.prm import mean_fg_scores


def zeros_like_backbone(p):
    return BackboneParams(w=np.zeros_like(p.w), b=np.zeros_like(p.b))


def zeros_like_head(p):
    return HeadParams(*[np.zeros_like(a) for a in p.arrays()])


def tiny_model(d=4, h=3, c=2, seed=0):
    rng = np.random.default_rng(seed)
    return init_backbone(d, h, rng), init_head(h, c, rng)


def random_batch(n, d, c, seed=0, pos_frac=0.5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    targets = rng.integers(0, c + 1, size=n)
    # force at least one positive so the regression branch is exercised
    targets[0] = 1
    reg_targets = rng.normal(size=(n, 4))
    mults = rng.integers(1, 4, size=n)
    return x, targets, reg_targets, targets > 0, mults


class TestForward:
    def test_zero_params_zero_logits(self):
        backbone = BackboneParams(w=np.zeros((4, 3)), b=np.zeros(3))
        head = HeadParams(np.zeros((3, 3)), np.zeros(3), np.zeros((3, 3)),
                         np.zeros(3), np.zeros((3, 4)), np.zeros(4))
        logits, deltas, _ = forward(backbone, head, np.ones((5, 4)))
        np.testing.assert_array_equal(logits, 0)
        np.testing.assert_array_equal(deltas, 0)

    def test_hand_scalar_case(self):
        backbone = BackboneParams(w=np.ones((1, 1)), b=np.zeros(1))
        head = HeadParams(np.ones((1, 1)), np.zeros(1), np.ones((1, 1)),
                         np.zeros(1), np.ones((1, 4)), np.zeros(4))
        logits, _, _ = forward(backbone, head, np.array([[1.0]]))
        assert logits[0, 0] == pytest.approx(math.tanh(math.tanh(1.0)), abs=1e-12)
        assert logits[0, 0] == pytest.approx(0.6420, abs=1e-4)

    def test_shapes(self):
        backbone, head = tiny_model(d=6, h=4, c=3)
        logits, deltas, _ = forward(backbone, head, np.zeros((7, 6)))
        assert logits.shape == (7, 4)
        assert deltas.shape == (7, 4)

    def test_shape_mismatch(self):
        backbone, head = tiny_model()
        with pytest.raises(ValueError):
            forward(backbone, head, np.zeros((2, 9)))


class TestLosses:
    def test_uniform_logits(self):
        assert cls_loss(np.zeros((3, 2)), np.array([0, 1, 0])) == pytest.approx(
            math.log(2), abs=1e-12)

    def test_saturated_correct(self):
        logits = np.array([[20.0, -20.0, -20.0]])
        assert cls_loss(logits, np.array([0])) < 1e-8

    def test_hand_softmax(self):
        loss = cls_loss(np.array([[1.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(-math.log(math.e / (math.e + 1)), abs=1e-12)
        assert loss == pytest.approx(0.31326, abs=1e-5)

    def test_reg_zero_at_target(self):
        d = np.random.default_rng(0).normal(size=(3, 4))
        assert reg_loss(d, d, np.ones(3, bool)) == 0.0

    def test_reg_quadratic_branch(self):
        deltas = np.array([[0.5, 0, 0, 0]])
        assert reg_loss(deltas, np.zeros((1, 4)), np.array([True])) == pytest.approx(0.125)

    def test_reg_linear_branch(self):
        deltas = np.array([[2.0, 0, 0, 0]])
        assert reg_loss(deltas, np.zeros((1, 4)), np.array([True])) == pytest.approx(1.5)

    def test_reg_no_positives(self):
        assert reg_loss(np.ones((2, 4)), np.zeros((2, 4)), np.zeros(2, bool)) == 0.0

    def test_losses_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            logits = rng.normal(size=(5, 3))
            targets = rng.integers(0, 3, size=5)
            assert cls_loss(logits, targets) >= 0.0
            deltas = rng.normal(size=(5, 4))
            goals = rng.normal(size=(5, 4))
            assert reg_loss(deltas, goals, rng.random(5) > 0.5) >= 0.0


def numeric_grads(backbone, head, x, targets, reg_targets, pos, mults, h_step=1e-5):
    """Central finite differences over every parameter array."""
    def loss():
        logits, deltas, _ = forward(backbone, head, x)
        return total_loss(logits, deltas, targets, reg_targets, pos, mults)

    grads = []
    for arr in backbone.arrays() + head.arrays():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h_step
            up = loss()
            arr[idx] = orig - h_step
            down = loss()
            arr[idx] = orig
            g[idx] = (up - down) / (2 * h_step)
        grads.append(g)
    return grads


class TestBackward:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 7))
        h = int(rng.integers(2, 6))
        c = int(rng.integers(1, 4))
        backbone, head = tiny_model(d, h, c, seed=seed)
        x, targets, reg_targets, pos, mults = random_batch(n, d, c, seed=seed + 100)
        _, _, cache = forward(backbone, head, x)
        g_backbone, g_head = backward(cache, targets, reg_targets, pos, mults)
        numeric = numeric_grads(backbone, head, x, targets, reg_targets, pos, mults)
        analytic = g_backbone.arrays() + g_head.arrays()
        for a, n_grad in zip(analytic, numeric):
            denom = np.maximum(np.abs(a) + np.abs(n_grad), 1e-8)
            rel = np.abs(a - n_grad) / denom
            assert rel.max() < 1e-4

    def test_loss_scaling_linearity(self):
        backbone, head = tiny_model()
        x, targets, reg_targets, pos, mults = random_batch(5, 4, 2, seed=3)
        _, _, cache = forward(backbone, head, x)
        g1_b, g1_h = backward(cache, targets, reg_targets, pos, mults)
        g2_b, g2_h = backward(cache, targets, reg_targets, pos, mults,
                              cls_weight=2.0, reg_weight=2.0)
        for a, b in zip(g1_b.arrays() + g1_h.arrays(), g2_b.arrays() + g2_h.arrays()):
            np.testing.assert_allclose(b, 2.0 * a, rtol=1e-12)

    def test_saturated_correct_gives_tiny_cls_grads(self):
        backbone = BackboneParams(w=np.zeros((2, 2)), b=np.zeros(2))
        head = HeadParams(np.zeros((2, 2)), np.zeros(2),
                          np.array([[0.0, 0.0], [0.0, 0.0]]),
                          np.array([50.0, -50.0]), np.zeros((2, 4)), np.zeros(4))
        x = np.ones((3, 2))
        targets = np.zeros(3, dtype=int)
        _, _, cache = forward(backbone, head, x)
        g_b, g_h = backward(cache, targets, np.zeros((3, 4)), np.zeros(3, bool))
        for arr in g_b.arrays() + g_h.arrays():
            assert np.abs(arr).max() < 1e-8

    def test_multiplicity_equivalence(self):
        backbone, head = tiny_model()
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 4))
        targets = np.array([1, 0, 2, 0])
        reg_targets = rng.normal(size=(4, 4))
        pos = targets > 0
        mults = np.array([3, 1, 2, 1])
        _, _, cache = forward(backbone, head, x)
        weighted = backward(cache, targets, reg_targets, pos, mults)

        rep = np.repeat(np.arange(4), mults)
        _, _, cache2 = forward(backbone, head, x[rep])
        expanded = backward(cache2, targets[rep], reg_targets[rep], pos[rep], None)
        for a, b in zip(weighted[0].arrays() + weighted[1].arrays(),
                        expanded[0].arrays() + expanded[1].arrays()):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)


class TestStackedHeads:
    """Heads stacked along a leading axis give each head's own results."""

    def make(self):
        backbone, _ = tiny_model(d=4, h=3, c=2)
        rng = np.random.default_rng(11)
        heads = [init_head(3, 2, rng) for _ in range(3)]
        stack = stack_heads(heads)
        x = rng.normal(size=(8, 4))
        return backbone, heads, stack, x

    def test_forward_equals_each_head(self):
        backbone, heads, stack, x = self.make()
        logits, deltas, _ = forward(backbone, stack, x)
        for i, head in enumerate(heads):
            one_logits, one_deltas, _ = forward(backbone, head, x)
            assert np.array_equal(logits[i], one_logits)
            assert np.array_equal(deltas[i], one_deltas)

    def test_padded_batches_equal_each_heads_backward(self):
        # head 2 has a shorter batch, head 3 a batch without positives; rows
        # of multiplicity 0 pad them to the longest
        backbone, heads, stack, x = self.make()
        rng = np.random.default_rng(12)
        classes = np.array([1, 0, 2, 0, 0, 1, 0, 0])
        reg_targets = rng.normal(size=(8, 4))
        batches = [(np.array([0, 1, 2, 3, 5, 6]), np.array([2, 1, 1, 1, 3, 1])),
                   (np.array([2, 4, 7, 1]), np.array([1, 1, 1, 1])),
                   (np.array([1, 3, 4, 6, 7, 1]), np.ones(6, dtype=int))]
        rows = np.zeros((3, 6), dtype=int)
        mults = np.zeros((3, 6))
        for i, (idx, m) in enumerate(batches):
            rows[i, :len(idx)], mults[i, :len(idx)] = idx, m
        logits, deltas, cache = forward(backbone, stack, x)
        at = (np.arange(3)[:, None], rows)
        batch = ForwardCache(stack, x[rows], cache.hidden[rows], cache.shared[at],
                             logits[at], deltas[at])
        g_backbone, g_heads = backward(batch, classes[rows], reg_targets[rows],
                                       classes[rows] > 0, mults)
        for i, (head, (idx, m)) in enumerate(zip(heads, batches)):
            _, _, one = forward(backbone, head, x[idx])
            want_b, want_h = backward(one, classes[idx], reg_targets[idx], classes[idx] > 0, m)
            got = [g_backbone.w[i], g_backbone.b[i], *(a[i] for a in g_heads.arrays())]
            for a, b in zip(got, want_b.arrays() + want_h.arrays(), strict=True):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)
        assert not g_heads.w_reg[2].any() and not g_heads.b_reg[2].any()


class TestSgd:
    def cfg(self, total=1200):
        return TrainConfig(learning_rate=0.02, total_steps=total)

    def test_zero_grad_no_change(self):
        params, backbone, head = flatten(*tiny_model())
        before = params.copy()
        grads = Gradients(backbone=zeros_like_backbone(backbone),
                          heads=zeros_like_head(head))
        sgd_step(params, grads, 0, self.cfg())
        np.testing.assert_array_equal(params, before)

    def test_hand_update(self):
        params, backbone, head = flatten(
            BackboneParams(w=np.array([[1.0]]), b=np.array([0.0])),
            HeadParams(np.ones((1, 1)), np.zeros(1), np.ones((1, 1)),
                       np.zeros(1), np.ones((1, 4)), np.zeros(4)))
        g = Gradients(
            backbone=BackboneParams(w=np.array([[0.5]]), b=np.array([0.0])),
            heads=zeros_like_head(head),
        )
        sgd_step(params, g, 0, self.cfg())
        assert backbone.w[0, 0] == pytest.approx(0.99, abs=1e-15)

    def test_flat_gradients_update_each_array_bit_for_bit(self):
        backbone, head = tiny_model(seed=3)
        rng = np.random.default_rng(4)
        grads = Gradients(BackboneParams(*(rng.normal(size=a.shape) for a in backbone.arrays())),
                          HeadParams(*(rng.normal(size=a.shape) for a in head.arrays())))
        flat, flat_backbone, flat_heads = flatten(grads.backbone, grads.heads)
        # per-array gradients, and views of one vector with the rate given
        for g, lr in ((grads, None), (Gradients(flat_backbone, flat_heads, flat), 0.002)):
            params, p_backbone, p_head = flatten(backbone, head)
            sgd_step(params, g, 900, self.cfg(), lr=lr)
            for param, before, grad in zip(p_backbone.arrays() + p_head.arrays(),
                                           backbone.arrays() + head.arrays(),
                                           grads.backbone.arrays() + grads.heads.arrays()):
                assert param.tobytes() == (before - self.cfg().lr_at(900) * grad).tobytes()

    def test_decay_points(self):
        cfg = self.cfg(total=1200)
        assert cfg.lr_at(0) == 0.02
        first_decay = math.floor(8 * 1200 / 12)
        assert cfg.lr_at(first_decay - 1) == 0.02
        assert cfg.lr_at(first_decay) == pytest.approx(0.002)
        second_decay = math.floor(11 * 1200 / 12)
        assert cfg.lr_at(second_decay) == pytest.approx(0.0002)

    @pytest.mark.parametrize("points", [(8 / 12, 11 / 12), (0.5, 0.25, 0.5), (), (-1.0, 2.0)])
    def test_schedule_counts_the_points_passed(self, points):
        cfg = TrainConfig(learning_rate=0.3, total_steps=120, decay_points=points,
                          decay_factor=0.5)
        steps = range(120)
        want = [0.3 * 0.5 ** sum(1 for f in points if t >= math.floor(f * 120)) for t in steps]
        assert cfg.lr_schedule(steps) == want
        assert [cfg.lr_at(t) for t in steps] == want

    def test_step_beyond_schedule(self):
        params, backbone, head = flatten(*tiny_model())
        grads = Gradients(backbone=zeros_like_backbone(backbone),
                          heads=zeros_like_head(head))
        with pytest.raises(ValueError, match="beyond schedule"):
            sgd_step(params, grads, 1200, self.cfg(total=1200))


def reference_softmax(logits):
    """The softmax as written before the class maxima became np.maximum chains."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def logit_cases():
    rng = np.random.default_rng(21)
    return {
        "random": rng.normal(size=(3, 50, 4)),
        "tied": rng.integers(-2, 3, size=(3, 50, 4)).astype(float),
        "signed-zeros": rng.choice([0.0, -0.0], size=(3, 50, 4)),
        "zeros-and-ties": rng.choice([0.0, -0.0, 1.0, -1.0], size=(2, 40, 4)),
        "large": rng.normal(size=(3, 50, 4)) * 1e300,
        "one-class": rng.normal(size=(4, 2)),
    }


class TestClassMaxima:
    """The class-axis maxima are chains of np.maximum; they must give the
    bits of the `.max(axis=-1)` formulas they replace."""

    @pytest.mark.parametrize("case", logit_cases())
    def test_softmax_equals_the_max_formula(self, case):
        logits = logit_cases()[case]
        assert softmax(logits).tobytes() == reference_softmax(logits).tobytes()

    @pytest.mark.parametrize("case", logit_cases())
    def test_maxima_equal_max(self, case):
        logits = logit_cases()[case]
        for start in range(logits.shape[-1]):
            assert (class_max(logits, start).tobytes()
                    == logits[..., start:].max(axis=-1).tobytes())

    @pytest.mark.parametrize("case", logit_cases())
    def test_mean_foreground_scores_equal_the_max_formula(self, case):
        for a in (logit_cases()[case], reference_softmax(logit_cases()[case])):
            assert (mean_fg_scores(a).tobytes()
                    == a[..., 1:].max(axis=-1).mean(axis=-1).tobytes())

    def test_smooth_l1_gradient_equals_the_branch_formula(self):
        x = np.concatenate([np.random.default_rng(5).normal(size=200) * 2,
                            [1.0, -1.0, 0.0, -0.0, np.inf, -np.inf, np.nan,
                             np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0), 1e300]])
        want = np.where(np.abs(x) < 1.0, x / 1.0, np.sign(x))
        assert _smooth_l1_grad(x).tobytes() == want.tobytes()


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        backbone = init_backbone(5, 4, rng)
        heads = [init_head(4, 3, rng), init_head(4, 3, rng)]
        stack = stack_heads(heads)
        params, flat_backbone, flat_heads = flatten(backbone, stack)  # a model's layout
        for name, (b, h) in {"arrays": (backbone, stack), "flat": (flat_backbone, flat_heads)
                             }.items():
            path = tmp_path / f"{name}.npz"
            save_params(path, b, h, ((1, 1), (1, 9)))
            loaded_backbone, loaded_heads, ratios = load_params(path)
            np.testing.assert_array_equal(ratios, [[1, 1], [1, 9]])
            np.testing.assert_array_equal(loaded_backbone.w, backbone.w)
            np.testing.assert_array_equal(loaded_backbone.b, backbone.b)
            assert len(loaded_heads.b_reg) == 2
            for i, orig in enumerate(heads):
                for a, b in zip(orig.arrays(), loaded_heads.arrays()):
                    np.testing.assert_array_equal(a, b[i])
            assert flatten(loaded_backbone, loaded_heads)[0].tobytes() == params.tobytes()
        assert (tmp_path / "arrays.npz").read_bytes() == (tmp_path / "flat.npz").read_bytes()

    def test_missing_ratios_named(self, tmp_path):
        backbone = init_backbone(5, 4, np.random.default_rng(12))
        path = tmp_path / "ckpt.npz"
        np.savez(path, **{"backbone/w": backbone.w, "backbone/b": backbone.b,
                          "num_heads": np.array(0)})
        with pytest.raises(ValueError, match="records no head ratios"):
            load_params(path)
