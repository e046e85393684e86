import math

import numpy as np
import pytest

from detlab.net import (
    BackboneParams,
    HeadParams,
    _smooth_l1_grad,
    backward,
    class_max,
    cls_loss,
    flatten,
    forward,
    init_backbone,
    init_head,
    load_params,
    loss_weights,
    lr_schedule,
    reg_loss,
    save_params,
    sgd_step,
    softmax,
    stack_heads,
    total_loss,
)
from detlab.prm import mean_fg_scores
from step_forms import backward_of, flat_gradients, unwritten_like


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
        g_backbone, g_head = backward_of(head, x, forward(backbone, head, x), targets,
                                         reg_targets, pos, mults)
        numeric = numeric_grads(backbone, head, x, targets, reg_targets, pos, mults)
        analytic = g_backbone.arrays() + g_head.arrays()
        for a, n_grad in zip(analytic, numeric):
            denom = np.maximum(np.abs(a) + np.abs(n_grad), 1e-8)
            rel = np.abs(a - n_grad) / denom
            assert rel.max() < 1e-4

    def test_saturated_correct_gives_tiny_cls_grads(self):
        backbone = BackboneParams(w=np.zeros((2, 2)), b=np.zeros(2))
        head = HeadParams(np.zeros((2, 2)), np.zeros(2),
                          np.array([[0.0, 0.0], [0.0, 0.0]]),
                          np.array([50.0, -50.0]), np.zeros((2, 4)), np.zeros(4))
        x = np.ones((3, 2))
        targets = np.zeros(3, dtype=int)
        g_b, g_h = backward_of(head, x, forward(backbone, head, x), targets, np.zeros((3, 4)),
                               np.zeros(3, bool))
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
        weighted = backward_of(head, x, forward(backbone, head, x), targets, reg_targets, pos,
                               mults)

        rep = np.repeat(np.arange(4), mults)
        expanded = backward_of(head, x[rep], forward(backbone, head, x[rep]), targets[rep],
                               reg_targets[rep], pos[rep], None)
        for a, b in zip(weighted[0].arrays() + weighted[1].arrays(),
                        expanded[0].arrays() + expanded[1].arrays()):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_writes_into_out_and_returns_its_arrays(self):
        # as prm_train_step passes them: the backbone's at one step of (S, ·)
        # stacks, the head's views of one vector, all NaN until written
        backbone, head = tiny_model()
        x, targets, reg_targets, pos, mults = random_batch(5, 4, 2, seed=3)
        outputs = logits, deltas, (hidden, shared) = forward(backbone, head, x)
        grad_w = np.full((2,) + backbone.w.shape, np.nan)
        grad_b = np.full((2,) + backbone.b.shape, np.nan)
        out = (BackboneParams(grad_w[1], grad_b[1]),
               unwritten_like(flat_gradients(backbone, head)).heads)
        probs = softmax(logits)
        got = backward(head, reg_targets, probs, deltas, x, hidden, shared,
                       loss_weights(targets, pos, mults, probs.shape[-1]), out)
        arrays = out[0].arrays() + out[1].arrays()
        assert all(a is b for a, b in zip(got[0].arrays() + got[1].arrays(), arrays,
                                          strict=True))
        assert np.isnan(grad_w[0]).all() and np.isnan(grad_b[0]).all()
        want_b, want_h = backward_of(head, x, outputs, targets, reg_targets, pos, mults)
        for a, b in zip(arrays, want_b.arrays() + want_h.arrays(), strict=True):
            assert a.tobytes() == b.tobytes()


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
        logits, deltas, (hidden, shared) = forward(backbone, stack, x)
        at = (np.arange(3)[:, None], rows)
        batch = logits[at], deltas[at], (hidden[rows], shared[at])
        g_backbone, g_heads = backward_of(stack, x[rows], batch, classes[rows], reg_targets[rows],
                                          classes[rows] > 0, mults)
        for i, (head, (idx, m)) in enumerate(zip(heads, batches)):
            want_b, want_h = backward_of(head, x[idx], forward(backbone, head, x[idx]),
                                         classes[idx], reg_targets[idx], classes[idx] > 0, m)
            got = [g_backbone.w[i], g_backbone.b[i], *(a[i] for a in g_heads.arrays())]
            for a, b in zip(got, want_b.arrays() + want_h.arrays(), strict=True):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)
        assert not g_heads.w_reg[2].any() and not g_heads.b_reg[2].any()


class TestSgd:
    def lrs(self, steps, total=1200):
        return lr_schedule(0.02, total, steps)

    def test_zero_grad_no_change(self):
        params, backbone, head = flatten(*tiny_model())
        before = params.copy()
        grads = flat_gradients(zeros_like_backbone(backbone), zeros_like_head(head))
        sgd_step(params, grads, 0.02)
        np.testing.assert_array_equal(params, before)

    def test_hand_update(self):
        params, backbone, head = flatten(
            BackboneParams(w=np.array([[1.0]]), b=np.array([0.0])),
            HeadParams(np.ones((1, 1)), np.zeros(1), np.ones((1, 1)),
                       np.zeros(1), np.ones((1, 4)), np.zeros(4)))
        g = flat_gradients(BackboneParams(w=np.array([[0.5]]), b=np.array([0.0])),
                           zeros_like_head(head))
        sgd_step(params, g, 0.02)
        assert backbone.w[0, 0] == pytest.approx(0.99, abs=1e-15)

    def test_flat_gradients_update_each_array_bit_for_bit(self):
        backbone, head = tiny_model(seed=3)
        rng = np.random.default_rng(4)
        grads = flat_gradients(
            BackboneParams(*(rng.normal(size=a.shape) for a in backbone.arrays())),
            HeadParams(*(rng.normal(size=a.shape) for a in head.arrays())))
        params, p_backbone, p_head = flatten(backbone, head)
        lr = self.lrs([900])[0]
        sgd_step(params, grads, lr)
        for param, before, grad in zip(p_backbone.arrays() + p_head.arrays(),
                                       backbone.arrays() + head.arrays(),
                                       grads.backbone.arrays() + grads.heads.arrays()):
            assert param.tobytes() == (before - lr * grad).tobytes()

    def test_decay_points(self):
        first_decay = math.floor(8 * 1200 / 12)
        second_decay = math.floor(11 * 1200 / 12)
        at_0, before_first, at_first, at_second = self.lrs(
            [0, first_decay - 1, first_decay, second_decay], total=1200)
        assert at_0 == 0.02
        assert before_first == 0.02
        assert at_first == pytest.approx(0.002)
        assert at_second == pytest.approx(0.0002)

    @pytest.mark.parametrize("total", [1, 12, 121, 3000])
    def test_schedule_counts_the_points_passed(self, total):
        steps = range(total)
        # Faster R-CNN's recipe: x0.1 at 8/12 and at 11/12 of the run
        want = [0.3 * 0.1 ** sum(1 for f in (8 / 12, 11 / 12) if t >= math.floor(f * total))
                for t in steps]
        assert lr_schedule(0.3, total, steps) == want
        assert [lr_schedule(0.3, total, [t])[0] for t in steps] == want

    def test_step_beyond_schedule(self):
        # a block's steps are checked once, where their learning rates are read
        with pytest.raises(ValueError, match="step 1200 beyond schedule"):
            self.lrs([1198, 1199, 1200], total=1200)


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
        # prm_predict's (O, N, C+1) scores of one block of pools
        "prediction": rng.normal(size=(3, 7000, 4)) * 3,
        "non-finite": rng.choice([np.nan, np.inf, -np.inf, 0.0, 1.0, -1.0], size=(3, 50, 4)),
    }


class TestClassMaxima:
    """The class-axis maxima are chains of np.maximum; they must give the
    bits of the `.max(axis=-1)` formulas they replace."""

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
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

    # summarize_block refuses a non-finite mean, so the sign of its NaN never shows
    @pytest.mark.parametrize("case", [case for case in logit_cases() if case != "non-finite"])
    def test_mean_foreground_scores_equal_the_max_formula(self, case):
        for a in (logit_cases()[case], reference_softmax(logit_cases()[case])):
            # one pool of every row, and two pools split at row 3
            for offsets in ([0, a.shape[-2]], [0, 3, a.shape[-2]]):
                want = [a[..., lo:hi, 1:].max(axis=-1).mean(axis=-1)
                        for lo, hi in zip(offsets[:-1], offsets[1:])]
                assert mean_fg_scores(a, offsets).tobytes() == np.stack(want).tobytes()

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
