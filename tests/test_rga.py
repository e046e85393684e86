import numpy as np
import pytest

from detlab import net
from detlab.net import lr_schedule, sgd_step, stack_heads
from detlab.rga import anneal_factors, apply_rga
from step_forms import flat_gradients, unwritten_like


def random_grads(seed=0, heads=None):
    """Gradients of one head, or of a stack of `heads` heads, as views of one
    vector."""
    rng = np.random.default_rng(seed)
    backbone = net.init_backbone(4, 3, rng)
    if heads is None:
        return flat_gradients(backbone, net.init_head(3, 2, rng))
    return flat_gradients(backbone,
                          stack_heads([net.init_head(3, 2, rng) for _ in range(heads)]))


def rga(grads, lam):
    """`apply_rga` into a new `out`."""
    return apply_rga(grads, lam, unwritten_like(grads))


class TestSchedule:
    def test_start_is_lambda0(self):
        assert anneal_factors(7.0, 1000, [0]) == [7.0]

    def test_end_is_one(self):
        for lam0 in (1.0, 3.0, 7.0, 9.5):
            assert anneal_factors(lam0, 1000, [1000]) == [1.0]

    def test_midpoint(self):
        assert anneal_factors(7.0, 1000, [500]) == [4.0]

    def test_linearity(self):
        for t1, t2 in ((0, 1000), (100, 300), (250, 750)):
            at_1, at_2, mid = anneal_factors(5.0, 1000, [t1, t2, (t1 + t2) // 2])
            assert at_1 + at_2 == pytest.approx(2 * mid, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            anneal_factors(7.0, 1000, [1001])


class TestConstantMode:
    def test_constant_at_end(self):
        assert anneal_factors(7.0, 1000, [1000], constant=True) == [7.0]

    def test_lambda0_one_is_identity(self):
        grads = random_grads()
        out = rga(grads, anneal_factors(1.0, 1000, [300], constant=True)[0])
        for a, b in zip(out.heads.arrays(), grads.heads.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_differs_from_annealed_at_midpoint(self):
        assert anneal_factors(7.0, 1000, [500], constant=True) == [7.0]
        assert anneal_factors(7.0, 1000, [500]) == [4.0]


class TestApply:
    def test_identity_at_one(self):
        grads = random_grads()
        out = rga(grads, 1.0)
        assert out.flat.tobytes() == grads.flat.tobytes()

    def test_scales_heads_only(self):
        grads = random_grads(seed=2, heads=2)
        before = grads.flat.copy()
        out = rga(grads, 7.0)
        assert grads.flat.tobytes() == before.tobytes()  # the input is left untouched
        for a, b in zip(grads.heads.arrays(), out.heads.arrays()):
            assert a.shape[0] == 2
            np.testing.assert_allclose(b, 7.0 * a, rtol=1e-12)
        for a, b in zip(grads.backbone.arrays(), out.backbone.arrays()):
            assert a.tobytes() == b.tobytes()

    def test_writes_into_out(self):
        grads = random_grads(seed=3, heads=2)
        buffer = random_grads(seed=4, heads=2)
        got = apply_rga(grads, 3.5, buffer)
        assert got is buffer
        # the same bits as scaling each head array on its own
        want = [a.ravel() for a in grads.backbone.arrays()]
        want += [(3.5 * a).ravel() for a in grads.heads.arrays()]
        assert got.flat.tobytes() == np.concatenate(want).tobytes()

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError):
            rga(random_grads(), 0.5)


class TestUpdateEquivalence:
    def test_rga_step_equals_split_learning_rates(self):
        """One step with magnification lam matches head lr lam*alpha and
        backbone lr alpha applied separately."""
        lam = 3.5
        alpha = 0.01
        grads = random_grads(seed=5)

        rng = np.random.default_rng(9)
        params, backbone_a, head_a = net.flatten(
            net.init_backbone(4, 3, rng), net.init_head(3, 2, np.random.default_rng(10)))
        backbone_b = net.BackboneParams(backbone_a.w.copy(), backbone_a.b.copy())
        head_b = net.HeadParams(*[a.copy() for a in head_a.arrays()])

        sgd_step(params, rga(grads, lam), lr_schedule(alpha, 100, [0])[0])

        for param, grad in zip(backbone_b.arrays(), grads.backbone.arrays()):
            param -= alpha * grad
        for param, grad in zip(head_b.arrays(), grads.heads.arrays()):
            param -= lam * alpha * grad

        for a, b in zip(backbone_a.arrays() + head_a.arrays(),
                        backbone_b.arrays() + head_b.arrays()):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)
