import numpy as np
import pytest

from detlab import net
from detlab.net import Gradients, TrainConfig, sgd_step, stack_heads
from detlab.rga import AnnealSchedule, anneal_factor, apply_rga


def random_grads(seed=0, heads=None, flat=False):
    """Gradients of one head, or of a stack of `heads` heads; with `flat`,
    as views of one vector."""
    rng = np.random.default_rng(seed)
    backbone = net.init_backbone(4, 3, rng)
    if heads is None:
        grads = Gradients(backbone=backbone, heads=net.init_head(3, 2, rng))
    else:
        grads = Gradients(backbone=backbone,
                          heads=stack_heads([net.init_head(3, 2, rng) for _ in range(heads)]))
    if flat:
        vector, backbone, heads = net.flatten(grads.backbone, grads.heads)
        grads = Gradients(backbone, heads, vector)
    return grads


class TestSchedule:
    def test_start_is_lambda0(self):
        assert anneal_factor(0, AnnealSchedule(7.0, 1000)) == 7.0

    def test_end_is_one(self):
        for lam0 in (1.0, 3.0, 7.0, 9.5):
            assert anneal_factor(1000, AnnealSchedule(lam0, 1000)) == 1.0

    def test_midpoint(self):
        assert anneal_factor(500, AnnealSchedule(7.0, 1000)) == 4.0

    def test_linearity(self):
        sched = AnnealSchedule(5.0, 1000)
        for t1, t2 in ((0, 1000), (100, 300), (250, 750)):
            mid = anneal_factor((t1 + t2) // 2, sched)
            assert anneal_factor(t1, sched) + anneal_factor(t2, sched) == pytest.approx(
                2 * mid, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            anneal_factor(1001, AnnealSchedule(7.0, 1000))

    def test_invalid_lambda0(self):
        with pytest.raises(ValueError):
            AnnealSchedule(0.5, 1000)


class TestConstantMode:
    def test_constant_at_end(self):
        sched = AnnealSchedule(7.0, 1000, constant=True)
        assert anneal_factor(1000, sched) == 7.0

    def test_lambda0_one_is_identity(self):
        sched = AnnealSchedule(1.0, 1000, constant=True)
        grads = random_grads()
        out = apply_rga(grads, anneal_factor(300, sched))
        for a, b in zip(out.heads.arrays(), grads.heads.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_differs_from_annealed_at_midpoint(self):
        assert anneal_factor(500, AnnealSchedule(7.0, 1000, constant=True)) == 7.0
        assert anneal_factor(500, AnnealSchedule(7.0, 1000)) == 4.0


class TestApply:
    def test_identity_at_one(self):
        for flat in (False, True):
            grads = random_grads(flat=flat)
            out = apply_rga(grads, 1.0)
            for a, b in zip(out.heads.arrays(), grads.heads.arrays()):
                np.testing.assert_array_equal(a, b)
            assert out.backbone is grads.backbone

    def test_scales_heads_only(self):
        for flat in (False, True):
            grads = random_grads(seed=2, heads=2, flat=flat)
            before = grads.vector().copy()
            out = apply_rga(grads, 7.0)
            assert grads.vector().tobytes() == before.tobytes()  # the input is left untouched
            for a, b in zip(grads.heads.arrays(), out.heads.arrays()):
                assert a.shape[0] == 2
                np.testing.assert_allclose(b, 7.0 * a, rtol=1e-12)
            for a, b in zip(grads.backbone.arrays(), out.backbone.arrays()):
                assert a is b

    def test_writes_into_out(self):
        grads = random_grads(seed=3, heads=2, flat=True)
        buffer = random_grads(seed=4, heads=2, flat=True)
        got = apply_rga(grads, 3.5, out=buffer)
        assert got.flat is buffer.flat
        assert all(a is b for a, b in zip(got.heads.arrays(), buffer.heads.arrays()))
        assert all(a is b for a, b in zip(got.backbone.arrays(), grads.backbone.arrays()))
        # the same bits as from separate arrays
        assert got.vector().tobytes() == apply_rga(random_grads(seed=3, heads=2),
                                                   3.5).vector().tobytes()

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError):
            apply_rga(random_grads(), 0.5)


class TestUpdateEquivalence:
    def test_rga_step_equals_split_learning_rates(self):
        """One step with magnification lam matches head lr lam*alpha and
        backbone lr alpha applied separately."""
        lam = 3.5
        alpha = 0.01
        cfg = TrainConfig(learning_rate=alpha, total_steps=100)
        grads = random_grads(seed=5)

        rng = np.random.default_rng(9)
        params, backbone_a, head_a = net.flatten(
            net.init_backbone(4, 3, rng), net.init_head(3, 2, np.random.default_rng(10)))
        backbone_b = net.BackboneParams(backbone_a.w.copy(), backbone_a.b.copy())
        head_b = net.HeadParams(*[a.copy() for a in head_a.arrays()])

        sgd_step(params, apply_rga(grads, lam), 0, cfg)

        for param, grad in zip(backbone_b.arrays(), grads.backbone.arrays()):
            param -= alpha * grad
        for param, grad in zip(head_b.arrays(), grads.heads.arrays()):
            param -= lam * alpha * grad

        for a, b in zip(backbone_a.arrays() + head_a.arrays(),
                        backbone_b.arrays() + head_b.arrays()):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)
