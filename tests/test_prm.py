import numpy as np
import pytest

import detlab.prm as prm_mod
from detlab import net
from detlab.geometry import decode_deltas_array
from detlab.net import BackboneParams, HeadParams, lr_schedule, softmax
from detlab.harness import POOL_BLOCK, train_block
from detlab.prm import (
    BlockArrays,
    BlockInputs,
    PrmModel,
    StepBatch,
    batch_generators,
    draw_batches,
    ensemble_scores,
    init_model,
    prm_predict,
    select_regression,
    summarize_block,
)
from detlab.rga import anneal_factors
from detlab.sampler import SamplingPolicy, sample
from detlab.seeding import derive_seed, generators
from detlab.synthdata import (ProposalSet, RpnQualityModel, SceneConfig, generate_proposals,
                               generate_scenes)

import train_step_oracle

C = 3
FEATURE_DIM = C + 8


def make_pool(seed=0, q=0.8, gt_count=4):
    scene = generate_scenes(SceneConfig(gt_count_weights={gt_count: 1.0}), [seed])
    return generate_proposals(scene, [q], RpnQualityModel(), generators([seed + 1]),
                              num_classes=C)


def policy(ratio=(1, 3), mode="soft", batch=32):
    return SamplingPolicy(mode=mode, ratio=ratio, batch_size=batch)


def as_block(pools):
    """The pools as one block, pool i at rows offsets[i]:offsets[i + 1]."""
    columns = [np.concatenate([getattr(p, k) for p in pools])
               for k in ("boxes", "classes", "reg_targets", "features")]
    return ProposalSet(*columns, offsets=np.cumsum([0] + [len(p) for p in pools]))


def train(model, pools, total=100, base_seed=3):
    """Steps 0, 1, ... of a `total`-step run on `pools` as one block, without
    annealing: its metrics.csv and gradnorm.csv columns."""
    steps = range(len(pools))
    return train_block(model, as_block(pools), steps, lr_schedule(0.02, total, steps),
                       [1.0] * len(steps),
                       batch_generators(base_seed, steps, len(model.policies)), {})


def head(model, i):
    """Head i of a model, as views of its stack."""
    return HeadParams(*(a[i] for a in model.heads.arrays()))


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
        pool.reg_targets = pool.reg_targets[:5]
        scores, boxes = prm_predict(model, pool)

        def head_outputs(head):  # the network written out in numpy
            h = np.tanh(pool.features @ model.backbone.w + model.backbone.b)
            s = np.tanh(h @ head.w_shared + head.b_shared)
            return s @ head.w_cls + head.b_cls, s @ head.w_reg + head.b_reg

        (logits0, deltas0), (logits1, deltas1) = (head_outputs(head(model, i)) for i in range(2))
        assert scores.shape == (3, 5, C + 1) and boxes.shape == (3, 5, 4)
        for out, (logits, deltas) in enumerate([((logits0 + logits1) / 2, deltas0),
                                                (logits0, deltas0), (logits1, deltas1)]):
            np.testing.assert_allclose(scores[out], softmax(logits), rtol=1e-12)
            np.testing.assert_allclose(
                boxes[out], decode_deltas_array(pool.boxes, deltas), rtol=1e-12)

    def test_identical_heads_match_single_head(self):
        single = self.model(n_heads=1)
        double = PrmModel(
            backbone=single.backbone,
            heads=net.stack_heads([head(single, 0), head(single, 0)]),
            policies=[single.policies[0], single.policies[0]],
        )
        pool = make_pool(seed=3)
        np.testing.assert_allclose(prm_predict(double, pool)[0][0],
                                   prm_predict(single, pool)[0][0], rtol=1e-12)

    @pytest.mark.parametrize("n_heads", [1, 2, 3])
    def test_decodes_each_head_once(self, monkeypatch, n_heads):
        decoded = []

        def counted(boxes, deltas):
            decoded.append(decode_deltas_array(boxes, deltas))
            return decoded[-1]

        monkeypatch.setattr(prm_mod, "decode_deltas_array", counted)
        policies = [policy((1, 3)), policy((1, 1)), policy((1, 9))][:n_heads]
        model = init_model(FEATURE_DIM, 5, C, policies, 6)
        pool = make_pool(seed=4)
        scores, boxes = prm_predict(model, pool)
        assert len(decoded) == n_heads
        assert len(scores) == len(boxes) == (1 if n_heads == 1 else 1 + n_heads)
        # the ensemble adopts the boxes decoded for the head with the largest
        # positive fraction, which is head 2 (1:1) when there are several
        np.testing.assert_array_equal(boxes[0], decoded[0 if n_heads == 1 else 1])
        if n_heads > 1:
            logits, _, _ = net.forward(model.backbone, model.heads, pool.features)
            np.testing.assert_array_equal(boxes[1:], decoded)
            np.testing.assert_array_equal(scores[1:], softmax(logits))

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_a_block_equals_its_pools_bit_for_bit(self, n_heads):
        # each row's outputs do not depend on the other rows, so evaluation may
        # predict a POOL_BLOCK of pools at once
        config = SceneConfig()
        scenes = generate_scenes(config, [40 + i for i in range(POOL_BLOCK)])
        block = generate_proposals(scenes, [1.0] * POOL_BLOCK, RpnQualityModel(),
                                   generators([90 + i for i in range(POOL_BLOCK)]),
                                   num_classes=C)
        model = self.model(n_heads, seed=7)
        together = prm_predict(model, block)
        apart = [prm_predict(model, block.pool(i)) for i in range(POOL_BLOCK)]
        for ours, theirs in zip(together, zip(*apart)):
            assert ours.tobytes() == np.concatenate(theirs, axis=1).tobytes()


class TestTrainStep:
    def test_triangle_inequality_every_step(self):
        model = init_model(FEATURE_DIM, 5, C,
                           [policy((1, 1)), policy((1, 9))], 1)
        pools = [make_pool(seed=200 + t, q=t / 50) for t in range(50)]
        _, norms = train(model, pools)
        for n1, n2, norm_sum in zip(norms["norm_h1"], norms["norm_h2"], norms["norm_sum"],
                                    strict=True):
            assert norm_sum <= n1 + n2 + 1e-9

    def test_identical_policies_and_seeds_parallel_gradients(self, monkeypatch):
        # force both heads to draw the same batch
        monkeypatch.setattr(prm_mod, "batch_seed",
                            lambda base, t, i: derive_seed(base, "batch", t))
        base = init_model(FEATURE_DIM, 5, C, [policy((1, 3))], 5)
        model = PrmModel(
            backbone=base.backbone,
            heads=net.stack_heads([head(base, 0), head(base, 0)]),
            policies=[policy((1, 3)), policy((1, 3))],
        )
        _, norms = train(model, [make_pool(seed=9)], base_seed=11)
        (n1,), (n2,), (norm_sum,), (cosine,) = (norms[k] for k in ("norm_h1", "norm_h2",
                                                                   "norm_sum", "cosine"))
        assert n1 == pytest.approx(n2, rel=1e-12)
        assert norm_sum == pytest.approx(2 * n1, rel=1e-12)
        assert cosine == pytest.approx(1.0, abs=1e-12)

    def test_distinct_ratios_give_distinct_gradients(self):
        model = init_model(FEATURE_DIM, 5, C,
                           [policy((1, 1)), policy((1, 9))], 2)
        pools = [make_pool(seed=300 + t, q=t / 200) for t in range(200)]
        _, norms = train(model, pools, total=200, base_seed=13)
        cosines = [c for c in norms["cosine"] if c is not None]
        assert np.median(cosines) < 1 - 1e-6

    def test_determinism(self):
        results = []
        for _ in range(2):
            model = init_model(FEATURE_DIM, 5, C, [policy((1, 3))], 4)
            train(model, [make_pool(seed=400 + t) for t in range(5)], base_seed=5)
            results.append(np.concatenate(
                [a.ravel() for a in model.backbone.arrays() + model.heads.arrays()]))
        np.testing.assert_array_equal(results[0], results[1])

    def test_parameters_are_views_of_one_vector(self):
        model = init_model(FEATURE_DIM, 5, C, [policy((1, 1)), policy((1, 9))], 4)
        arrays = model.backbone.arrays() + model.heads.arrays()
        assert model.params.size == sum(a.size for a in arrays)
        assert all(np.shares_memory(a, model.params) for a in arrays)
        np.testing.assert_array_equal(model.params, np.concatenate([a.ravel() for a in arrays]))
        before = model.params.copy()
        train(model, [make_pool(seed=410)])
        assert not np.array_equal(model.params, before)
        np.testing.assert_array_equal(model.params, np.concatenate([a.ravel() for a in arrays]))


class TestDrawBatches:
    def test_tables_hold_each_heads_draw_padded(self):
        policies, _, pool_at = ORACLE_CASES["two-hard-heads"]
        pools = [pool_at(t) for t in range(6)]
        rows, mults, widths = draw_batches(as_block(pools), policies, range(6),
                                           batch_generators(3, range(6), len(policies)))
        assert rows.shape == mults.shape == (6, 2, max(widths))
        for t, pool in enumerate(pools):
            batches = [sample(pool.classes, p,
                              np.random.default_rng(prm_mod.batch_seed(3, t, i)))
                       for i, p in enumerate(policies)]
            assert widths[t] == max(len(b.indices) for b in batches)
            for h, b in enumerate(batches):
                n = len(b.indices)
                np.testing.assert_array_equal(rows[t, h, :n], b.indices)
                np.testing.assert_array_equal(mults[t, h, :n], b.multiplicities)
                assert not rows[t, h, n:].any() and not mults[t, h, n:].any()
        assert len(set(widths)) > 1


def block_arrays(steps=4, heads=2, width=6, pool=5, seed=0):
    """Random inputs and raw arrays of a block of pools of `pool` rows with
    every statistic defined."""
    rng = np.random.default_rng(seed)
    model = init_model(3, 2, C, [policy()] * heads, seed)
    targets = rng.integers(0, C + 1, size=(steps, heads, width))
    targets[..., :2] = [1, 0]  # a positive and a background in every batch
    rows = np.zeros(targets.shape, dtype=np.int64)
    rows[:] = np.arange(width) % pool
    mults = np.ones(targets.shape)
    weights = net.loss_weights(targets, targets > 0, mults, C + 1)
    batches = [StepBatch(r, r, rng.normal(size=(heads, width, 3)), np.zeros((heads, width, 4)),
                         net.LossWeights(*(a[i] for a in weights)))
               for i, r in enumerate(rows)]
    inputs = BlockInputs(range(10, 10 + steps), list(range(0, pool * steps + 1, pool)), batches,
                         rows, targets, mults, [0.02] * steps, [1.0] * steps)
    arrays = BlockArrays.empty(model, inputs)
    arrays.grad_w[:], arrays.grad_b[:] = rng.normal(size=arrays.grad_w.shape), rng.normal(
        size=arrays.grad_b.shape)
    arrays.logits[:], arrays.probs[:] = rng.normal(size=arrays.logits.shape), rng.uniform(
        size=arrays.probs.shape)
    return inputs, arrays


class TestSummarizeBlock:
    def test_head_without_positives_has_no_positive_accuracy(self):
        inputs, arrays = block_arrays()
        inputs.targets[2, 0] = np.where(inputs.targets[2, 0] > 0, 0, inputs.targets[2, 0])
        metrics, _ = summarize_block(inputs, arrays)
        assert [v is None for v in metrics["pos_acc"]] == [False, False, True, False]
        assert metrics["neg_acc"][2] is not None

    def test_zero_backbone_contribution_has_no_cosine(self):
        # pyproject turns warnings into errors, so a 0/0 would fail here
        inputs, arrays = block_arrays()
        arrays.grad_w[1, 1] = arrays.grad_b[1, 1] = 0.0
        _, norms = summarize_block(inputs, arrays)
        assert [v is None for v in norms["cosine"]] == [False, True, False, False]
        assert norms["norm_h2"][1] == 0.0

    def test_non_finite_names_the_first_bad_step(self):
        inputs, arrays = block_arrays()
        arrays.probs[1, 10, 2] = np.nan  # a row of step 12's pool
        arrays.grad_w[3, 0, 0, 0] = np.inf
        with pytest.raises(FloatingPointError,
                           match=r"non-finite at step 12: backbone gradient norm [\d.]+, "
                                 r"mean foreground scores \([\d.]+, nan\)"):
            summarize_block(inputs, arrays)


def copy_model(model):
    return PrmModel(
        backbone=BackboneParams(*[a.copy() for a in model.backbone.arrays()]),
        heads=HeadParams(*[a.copy() for a in model.heads.arrays()]),
        policies=list(model.policies),
    )


ORACLE_STEPS = 20
ORACLE_BLOCK = 8  # blocks of 8, 8 and 4 steps


def oracle_pool(t):
    return make_pool(seed=500 + t, q=t / ORACLE_STEPS, gt_count=1 + t % 5)


def scarce_pool(t):
    """One object at the lowest proposal quality: some pools hold no positive."""
    return make_pool(seed=700 + t, q=0.0, gt_count=1)


# (policies, annealed, pool at step t); batches of 64 on pools of 64-112 rows,
# so hard batches at low proposal quality repeat scarce positives
# (multiplicity above 1) and hold fewer than 64 rows.
ORACLE_CASES = {
    "soft": ([policy((1, 3), batch=64)], False, oracle_pool),
    "hard-annealed": ([policy((1, 1), "hard", 64)], True, oracle_pool),
    "two-heads": ([policy((1, 1), batch=64), policy((1, 9), "hard", 64)], False, oracle_pool),
    "two-heads-annealed": ([policy((1, 1), "hard", 64), policy((1, 9), batch=64)], True,
                           oracle_pool),
    "three-heads-annealed": ([policy((1, 1), batch=64), policy((1, 3), "hard", 64),
                              policy((1, 9), batch=64)], True, oracle_pool),
    "two-hard-heads": ([policy((1, 1), "hard", 64), policy((1, 3), "hard", 64)], False,
                       scarce_pool),
}


def all_params(model):
    return model.backbone.arrays() + model.heads.arrays()


class TestTrainStepOracle:
    """Blocks of steps are drawn, run and summarized in three phases, taking
    every head's batch from one stacked pool forward; the oracle is the step
    as it was, per head and per step, with a forward on the batch and another
    on the pool, and its statistics built at once."""

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_equals_oracle_exactly(self, case):
        policies, annealed, pool_at = ORACLE_CASES[case]
        model = init_model(FEATURE_DIM, 5, C, policies, 17)
        oracle = copy_model(model)
        # the oracle steps without annealing when given no lambda0
        lambda0 = 4.0 if annealed else None
        repeated = [False] * len(policies)
        for start in range(0, ORACLE_STEPS, ORACLE_BLOCK):
            steps = range(start, min(start + ORACLE_BLOCK, ORACLE_STEPS))
            pools = [pool_at(t) for t in steps]
            lams = (anneal_factors(lambda0, ORACLE_STEPS, steps) if annealed
                    else [1.0] * len(steps))
            metrics, norms = train_block(model, as_block(pools), steps,
                                         lr_schedule(0.02, ORACLE_STEPS, steps), lams,
                                         batch_generators(3, steps, len(policies)), {})
            heads = [str(i + 1) for i in range(len(policies))]
            assert list(metrics) == ["step", "pos_count_unique", "pos_count_effective",
                                     "pos_acc", "neg_acc", "lambda",
                                     *("fg_score_h" + h for h in heads)]
            assert list(norms) == ["step", *("norm_h" + h for h in heads), "norm_sum", "cosine"]
            rows = zip(*metrics.values(), strict=True)
            records = zip(*norms.values(), strict=True)
            for t, pool, row, record in zip(steps, pools, rows, records, strict=True):
                want_record, want_stats, want_lam = train_step_oracle.prm_train_step(
                    oracle, pool, t, 0.02, ORACLE_STEPS, lambda0, 3)
                head0 = want_stats[0]
                assert record == (want_record.step, *want_record.head_norms,
                                  want_record.norm_sum, want_record.cosine), f"step {t}"
                assert row == (t, head0.pos_count_unique, head0.pos_count_effective,
                               head0.pos_acc, head0.neg_acc, want_lam,
                               *(s.mean_fg_score for s in want_stats)), f"step {t}"
                repeated = [r or s.pos_count_effective > s.pos_count_unique
                            for r, s in zip(repeated, want_stats)]
            for got, want in zip(all_params(model), all_params(oracle), strict=True):
                assert np.array_equal(got, want), f"block from step {start}"
        assert repeated == [p.mode == "hard" for p in policies]

    def test_two_hard_heads_pad_and_miss_positives(self):
        # the case exercises the padding of shorter batches and a head
        # without positives, which has no regression gradient
        policies, _, pool_at = ORACLE_CASES["two-hard-heads"]
        lengths, positives = [], []
        for t in range(ORACLE_STEPS):
            pool = pool_at(t)
            batches = [sample(pool.classes, p,
                              np.random.default_rng(prm_mod.batch_seed(3, t, i)))
                       for i, p in enumerate(policies)]
            lengths.append({len(b.indices) for b in batches})
            positives += [b.pos_count_unique for b in batches]
        assert any(len(step) > 1 for step in lengths)
        assert 0 in positives

    def test_one_pool_forward_per_step_and_no_loss(self, monkeypatch):
        calls = []
        forward = net.forward

        def counted(backbone, heads, features):
            calls.append((len(features), len(heads.w_cls)))
            return forward(backbone, heads, features)

        def no_loss(*args, **kwargs):
            raise AssertionError("the step computes a loss that nothing reads")

        monkeypatch.setattr(net, "forward", counted)
        monkeypatch.setattr(net, "total_loss", no_loss)
        policies, _, _ = ORACLE_CASES["three-heads-annealed"]
        model = init_model(FEATURE_DIM, 5, C, policies, 17)
        pools = [oracle_pool(t) for t in range(5)]
        train(model, pools, total=5)
        # once over each pool, for all three heads
        assert calls == [(len(pool), 3) for pool in pools]
