import numpy as np
import pytest

import detlab.prm as prm_mod
from detlab import net
from detlab.net import BackboneParams, HeadParams, TrainConfig, softmax
from detlab.prm import (
    PrmModel,
    ensemble_scores,
    init_model,
    prm_predict,
    prm_train_step,
    select_regression,
)
from detlab.rga import AnnealSchedule
from detlab.sampler import SamplingPolicy
from detlab.seeding import derive_seed
from detlab.synthdata import RpnQualityModel, SceneConfig, generate_proposals, generate_scene

import train_step_oracle

C = 3
FEATURE_DIM = C + 8


def make_pool(seed=0, q=0.8, gt_count=4):
    scene = generate_scene(SceneConfig(gt_count_weights={gt_count: 1.0}), seed)
    return generate_proposals(scene, q, RpnQualityModel(), seed + 1, num_classes=C)


def policy(ratio=(1, 3), mode="soft", batch=32):
    return SamplingPolicy(mode=mode, ratio=ratio, batch_size=batch)


def train_cfg(total=100):
    return TrainConfig(learning_rate=0.02, total_steps=total)


class TestEnsembleScores:
    def test_idempotent_on_copies(self):
        logits = np.random.default_rng(0).normal(size=(5, 4))
        np.testing.assert_allclose(ensemble_scores([logits, logits.copy(), logits.copy()]),
                                   logits, rtol=1e-15)

    def test_arithmetic(self):
        out = ensemble_scores([np.array([[2.0, 0.0]]), np.array([[0.0, 2.0]])])
        np.testing.assert_array_equal(out, [[1.0, 1.0]])

    def test_matches_brute_force_mean(self):
        rng = np.random.default_rng(3)
        heads = [rng.normal(size=(6, 4)) for _ in range(3)]
        brute = sum(heads) / 3  # independent elementwise mean
        np.testing.assert_allclose(ensemble_scores(heads), brute, rtol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        heads = [rng.normal(size=(4, 4)) for _ in range(3)]
        a = ensemble_scores(heads)
        b = ensemble_scores([heads[2], heads[0], heads[1]])
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ensemble_scores([np.zeros((2, 3)), np.zeros((2, 4))])


class TestSelectRegression:
    def test_highest_positive_fraction_wins(self):
        deltas = [np.zeros((3, 4)), np.ones((3, 4))]
        out = select_regression([policy((1, 1)), policy((1, 9))], deltas)
        assert out is deltas[0]

    def test_single_head(self):
        deltas = [np.ones((2, 4))]
        assert select_regression([policy((1, 3))], deltas) is deltas[0]

    def test_tie_breaks_to_lowest_index(self):
        deltas = [np.zeros((2, 4)), np.ones((2, 4))]
        out = select_regression([policy((1, 3)), policy((1, 3))], deltas)
        assert out is deltas[0]


class TestLogitAveragingChoice:
    def test_average_before_softmax_differs_from_after(self):
        h1 = np.array([[10.0, 0.0]])
        h2 = np.array([[0.0, 1.0]])
        avg_then_softmax = softmax(ensemble_scores([h1, h2]))
        softmax_then_avg = (softmax(h1) + softmax(h2)) / 2
        assert np.abs(avg_then_softmax - softmax_then_avg).max() > 0.1


class TestPredict:
    def model(self, n_heads=2, seed=0):
        policies = [policy((1, 1)), policy((1, 9))][:n_heads]
        return init_model(FEATURE_DIM, 5, C, policies, seed)

    def test_matches_composition_oracle(self):
        model = self.model()
        pool = make_pool(seed=2)
        pool.boxes = pool.boxes[:5]
        pool.features = pool.features[:5]
        pool.classes = pool.classes[:5]
        pool.max_ious = pool.max_ious[:5]
        pool.matched = pool.matched[:5]
        pool.reg_targets = pool.reg_targets[:5]
        pred = prm_predict(model, pool)

        logits = [net.forward(model.backbone, h, pool.features)[0] for h in model.heads]
        expected_scores = softmax((logits[0] + logits[1]) / 2)
        np.testing.assert_allclose(pred.scores, expected_scores, rtol=1e-12)
        from detlab.geometry import decode_deltas_array

        deltas0 = net.forward(model.backbone, model.heads[0], pool.features)[1]
        np.testing.assert_allclose(
            pred.boxes, decode_deltas_array(pool.boxes, deltas0), rtol=1e-12)

    def test_identical_heads_match_single_head(self):
        single = self.model(n_heads=1)
        double = PrmModel(
            backbone=single.backbone,
            heads=[single.heads[0], HeadParams(*[a.copy() for a in single.heads[0].arrays()])],
            policies=[single.policies[0], single.policies[0]],
        )
        pool = make_pool(seed=3)
        np.testing.assert_allclose(prm_predict(double, pool).scores,
                                   prm_predict(single, pool).scores, rtol=1e-12)


class TestTrainStep:
    def test_zero_weight_second_head_matches_single_head(self):
        seed = 42
        single = init_model(FEATURE_DIM, 5, C, [policy((1, 3))], seed)
        double = init_model(FEATURE_DIM, 5, C,
                            [policy((1, 3)), policy((1, 9))], seed)
        cfg = train_cfg()
        for t in range(10):
            pool = make_pool(seed=100 + t)
            prm_train_step(single, pool, t, cfg, None, base_seed=7)
            prm_train_step(double, pool, t, cfg, None, base_seed=7,
                           head_weights=[1.0, 0.0])
        for a, b in zip(single.backbone.arrays(), double.backbone.arrays()):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(single.heads[0].arrays(), double.heads[0].arrays()):
            np.testing.assert_array_equal(a, b)

    def test_triangle_inequality_every_step(self):
        model = init_model(FEATURE_DIM, 5, C,
                           [policy((1, 1)), policy((1, 9))], 1)
        cfg = train_cfg()
        for t in range(50):
            pool = make_pool(seed=200 + t, q=t / 50)
            record, _, _ = prm_train_step(model, pool, t, cfg, None, base_seed=3)
            assert record.norm_sum <= sum(record.head_norms) + 1e-9

    def test_identical_policies_and_seeds_parallel_gradients(self, monkeypatch):
        # force both heads to draw the same batch
        monkeypatch.setattr(prm_mod, "batch_seed",
                            lambda base, t, i: derive_seed(base, "batch", t))
        base = init_model(FEATURE_DIM, 5, C, [policy((1, 3))], 5)
        model = PrmModel(
            backbone=base.backbone,
            heads=[base.heads[0],
                   HeadParams(*[a.copy() for a in base.heads[0].arrays()])],
            policies=[policy((1, 3)), policy((1, 3))],
        )
        pool = make_pool(seed=9)
        record, _, _ = prm_train_step(model, pool, 0, train_cfg(), None, base_seed=11)
        assert record.head_norms[0] == pytest.approx(record.head_norms[1], rel=1e-12)
        assert record.norm_sum == pytest.approx(2 * record.head_norms[0], rel=1e-12)
        assert record.cosine == pytest.approx(1.0, abs=1e-12)

    def test_distinct_ratios_give_distinct_gradients(self):
        model = init_model(FEATURE_DIM, 5, C,
                           [policy((1, 1)), policy((1, 9))], 2)
        cfg = train_cfg(total=200)
        cosines = []
        for t in range(200):
            pool = make_pool(seed=300 + t, q=t / 200)
            record, _, _ = prm_train_step(model, pool, t, cfg, None, base_seed=13)
            if record.cosine is not None:
                cosines.append(record.cosine)
        assert np.median(cosines) < 1 - 1e-6

    def test_determinism(self):
        results = []
        for _ in range(2):
            model = init_model(FEATURE_DIM, 5, C, [policy((1, 3))], 4)
            cfg = train_cfg()
            for t in range(5):
                prm_train_step(model, make_pool(seed=400 + t), t, cfg, None, base_seed=5)
            results.append(np.concatenate(
                [a.ravel() for a in model.backbone.arrays() + model.heads[0].arrays()]))
        np.testing.assert_array_equal(results[0], results[1])


def copy_model(model):
    return PrmModel(
        backbone=BackboneParams(*[a.copy() for a in model.backbone.arrays()]),
        heads=[HeadParams(*[a.copy() for a in h.arrays()]) for h in model.heads],
        policies=list(model.policies),
    )


ORACLE_STEPS = 20
# (policies, head_weights, annealed); batches of 64 on pools of 64-112 rows, so
# hard batches at low proposal quality repeat scarce positives (multiplicity
# above 1) and hold fewer than 64 rows.
ORACLE_CASES = {
    "soft": ([policy((1, 3), batch=64)], None, False),
    "hard-annealed": ([policy((1, 1), "hard", 64)], None, True),
    "two-heads": ([policy((1, 1), batch=64), policy((1, 9), "hard", 64)], None, False),
    "two-heads-annealed": ([policy((1, 1), "hard", 64), policy((1, 9), batch=64)], None, True),
    "zero-weight": ([policy((1, 3), batch=64), policy((1, 9), "hard", 64)], (1.0, 0.0), False),
    "three-heads-annealed": ([policy((1, 1), batch=64), policy((1, 3), "hard", 64),
                              policy((1, 9), batch=64)], None, True),
}


def all_params(model):
    return model.backbone.arrays() + [a for h in model.heads for a in h.arrays()]


def oracle_pool(t):
    return make_pool(seed=500 + t, q=t / ORACLE_STEPS, gt_count=1 + t % 5)


class TestTrainStepOracle:
    """The step takes each head's batch from its one pool forward; the oracle is
    the step as it was, with a forward on the batch and another on the pool."""

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_equals_oracle_exactly(self, case):
        policies, weights, annealed = ORACLE_CASES[case]
        model = init_model(FEATURE_DIM, 5, C, policies, 17)
        oracle = copy_model(model)
        cfg = train_cfg(total=ORACLE_STEPS)
        schedule = AnnealSchedule(lambda0=4.0, total_steps=ORACLE_STEPS) if annealed else None
        repeated = [False] * len(policies)
        for t in range(ORACLE_STEPS):
            pool = oracle_pool(t)
            record, stats, lam = prm_train_step(model, pool, t, cfg, schedule, 3, weights)
            want_record, want_stats, want_lam = train_step_oracle.prm_train_step(
                oracle, pool, t, cfg, schedule, 3, weights)
            for got, want in zip(all_params(model), all_params(oracle), strict=True):
                assert np.array_equal(got, want), f"step {t}"
            assert record == want_record
            assert lam == want_lam
            for i, (got, want) in enumerate(zip(stats, want_stats, strict=True)):
                assert (got.pos_count_unique, got.pos_count_effective, got.pos_acc,
                        got.neg_acc, got.mean_fg_score) == (
                    want.pos_count_unique, want.pos_count_effective, want.pos_acc,
                    want.neg_acc, want.mean_fg_score), f"step {t} head {i}"
                repeated[i] |= got.pos_count_effective > got.pos_count_unique
        assert repeated == [p.mode == "hard" for p in policies]

    def test_one_pool_forward_per_head_and_no_loss(self, monkeypatch):
        rows = []
        forward = net.forward

        def counted(backbone, head, features):
            rows.append(len(features))
            return forward(backbone, head, features)

        def no_loss(*args, **kwargs):
            raise AssertionError("the step computes a loss that nothing reads")

        monkeypatch.setattr(net, "forward", counted)
        monkeypatch.setattr(net, "total_loss", no_loss)
        policies, _, _ = ORACLE_CASES["three-heads-annealed"]
        model = init_model(FEATURE_DIM, 5, C, policies, 17)
        for t in range(5):
            pool = oracle_pool(t)
            rows.clear()
            prm_train_step(model, pool, t, train_cfg(total=5), None, 3)
            assert rows == [len(pool)] * 3
