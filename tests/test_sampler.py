import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from detlab.sampler import SamplingPolicy, sample

import sampler_oracle


def pool(n_pos, n_neg):
    return np.array([1] * n_pos + [0] * n_neg, dtype=np.int64)


SOFT_512 = SamplingPolicy(mode="soft", ratio=(1, 3), batch_size=512)
HARD_512 = SamplingPolicy(mode="hard", ratio=(1, 3), batch_size=512)


class TestPolicy:
    def test_pos_target(self):
        assert SOFT_512.pos_target == 128
        assert SamplingPolicy("soft", (1, 1), 8).pos_target == 4

    def test_invalid(self):
        with pytest.raises(ValueError):
            SamplingPolicy("medium", (1, 3), 512)
        with pytest.raises(ValueError):
            SamplingPolicy("soft", (0, 3), 512)
        with pytest.raises(ValueError):
            SamplingPolicy("soft", (1, 3), 3)


class TestSoft:
    def test_plenty_of_positives(self):
        batch = sample(pool(200, 600), SOFT_512, np.random.default_rng(0))
        assert batch.pos_count_effective == 128
        assert len(batch.indices) - batch.pos_count_unique == 384
        assert (batch.multiplicities == 1).all()

    def test_scarce_positives_all_used(self):
        batch = sample(pool(40, 600), SOFT_512, np.random.default_rng(0))
        assert batch.pos_count_unique == 40
        assert len(batch.indices) - batch.pos_count_unique == 472

    def test_zero_positives(self):
        batch = sample(pool(0, 600), SOFT_512, np.random.default_rng(0))
        assert batch.pos_count_effective == 0
        assert len(batch.indices) - batch.pos_count_unique == 512

    def test_pool_too_small(self):
        with pytest.raises(ValueError, match="pool of 110 proposals cannot fill a batch of 512"):
            sample(pool(10, 100), SOFT_512, np.random.default_rng(0))

    def test_no_duplicate_indices(self):
        batch = sample(pool(300, 700), SOFT_512, np.random.default_rng(3))
        assert len(np.unique(batch.indices)) == len(batch.indices)

    def test_deterministic(self):
        a = sample(pool(60, 700), SOFT_512, np.random.default_rng(5))
        b = sample(pool(60, 700), SOFT_512, np.random.default_rng(5))
        np.testing.assert_array_equal(a.indices, b.indices)


class TestHard:
    def test_single_positive_duplicated(self):
        policy = SamplingPolicy("hard", (1, 1), 8)
        batch = sample(pool(1, 20), policy, np.random.default_rng(0))
        assert batch.pos_count_unique == 1
        assert batch.pos_count_effective == 4
        assert len(batch.indices) - batch.pos_count_unique == 4
        assert batch.multiplicities[0] == 4

    def test_enough_positives_no_duplication(self):
        batch = sample(pool(200, 600), HARD_512, np.random.default_rng(0))
        assert batch.pos_count_unique == 128
        assert (batch.multiplicities == 1).all()

    def test_zero_positive_fallback(self):
        batch = sample(pool(0, 600), HARD_512, np.random.default_rng(0))
        assert batch.pos_count_effective == 0
        assert len(batch.indices) - batch.pos_count_unique == 512

    def test_even_distribution_extras_to_lowest(self):
        policy = SamplingPolicy("hard", (1, 1), 16)  # target 8
        batch = sample(pool(3, 30), policy, np.random.default_rng(0))
        mults = batch.multiplicities[:3]
        assert sorted(mults, reverse=True) == list(mults)
        assert mults.sum() == 8
        assert mults.max() - mults.min() <= 1


class TestCounts:
    def test_soft_counts(self):
        batch = sample(pool(40, 600), SOFT_512, np.random.default_rng(0))
        assert (batch.pos_count_unique, batch.pos_count_effective) == (40, 40)

    def test_hard_counts(self):
        policy = SamplingPolicy("hard", (1, 1), 8)
        batch = sample(pool(1, 20), policy, np.random.default_rng(0))
        assert (batch.pos_count_unique, batch.pos_count_effective) == (1, 4)

    def test_all_negative(self):
        batch = sample(pool(0, 600), SOFT_512, np.random.default_rng(0))
        assert (batch.pos_count_unique, batch.pos_count_effective) == (0, 0)


class TestProperties:
    @given(st.integers(0, 64), st.integers(0, 1_000_000),
           st.sampled_from(["soft", "hard"]))
    @settings(max_examples=120)
    def test_batch_size_conservation(self, n_pos, seed, mode):
        policy = SamplingPolicy(mode, (1, 3), 64)
        batch = sample(pool(n_pos, 128), policy, np.random.default_rng(seed))
        assert batch.pos_count_effective + (len(batch.indices) - batch.pos_count_unique) == 64
        assert batch.multiplicities.sum() == 64

    @given(st.integers(0, 64), st.integers(0, 1_000_000))
    @settings(max_examples=60)
    def test_soft_ceiling(self, n_pos, seed):
        policy = SamplingPolicy("soft", (1, 3), 64)
        batch = sample(pool(n_pos, 128), policy, np.random.default_rng(seed))
        assert batch.pos_count_effective == min(n_pos, policy.pos_target)
        assert (batch.multiplicities == 1).all()

    @given(st.integers(1, 64), st.integers(0, 1_000_000))
    @settings(max_examples=60)
    def test_hard_exactness(self, n_pos, seed):
        policy = SamplingPolicy("hard", (1, 3), 64)
        batch = sample(pool(n_pos, 128), policy, np.random.default_rng(seed))
        assert batch.pos_count_effective == policy.pos_target
        assert batch.multiplicities.max() - batch.multiplicities[
            batch.multiplicities >= 1
        ].min() <= batch.multiplicities.max()  # all >= 1
        pos_mults = batch.multiplicities[: batch.pos_count_unique]
        assert pos_mults.max() - pos_mults.min() <= 1

    @given(st.sampled_from([8, 16, 64]), st.sampled_from([(1, 1), (1, 3), (1, 9)]),
           st.data(), st.integers(0, 1_000_000))
    @settings(max_examples=80)
    def test_hard_scarce_positives_take_the_rest_as_negatives(self, b, ratio, data, seed):
        assume(b >= sum(ratio))
        policy = SamplingPolicy("hard", ratio, b)
        target = policy.pos_target
        assume(target >= 2)  # a target of 1 has no scarce count
        n_pos = data.draw(st.integers(1, target - 1))
        n_neg = data.draw(st.integers(b - n_pos, b + 8))
        batch = sample(pool(n_pos, n_neg), policy, np.random.default_rng(seed))
        negatives = batch.indices[batch.pos_count_unique:]
        assert len(negatives) == len(np.unique(negatives)) == b - target
        assert (batch.multiplicities[batch.pos_count_unique:] == 1).all()
        pos_mults = batch.multiplicities[:batch.pos_count_unique]
        assert pos_mults.sum() == batch.pos_count_effective == target
        assert pos_mults.max() - pos_mults.min() <= 1


class TestSoftTopUp:
    def test_short_of_negatives_tops_up_with_positives(self):
        batch = sample(pool(100, 10), SamplingPolicy("soft", (1, 3), 64),
                       np.random.default_rng(0))
        positives = batch.indices[:batch.pos_count_unique]
        assert (batch.pos_count_unique, batch.pos_count_effective) == (54, 54)
        assert len(np.unique(positives)) == 54 and (positives < 100).all()
        assert sorted(batch.indices[54:].tolist()) == list(range(100, 110))
        assert (batch.multiplicities == 1).all()
        assert len(np.unique(batch.indices)) == len(batch.indices) == 64


def oracle_grid(mode):
    """Every valid policy of batch size 8, 16 or 64 at 1:1, 1:3 or 1:9, on
    shuffled multi-class pools of 0..b+2 positives and negatives that can
    fill a batch, each with its own seed."""
    rng = np.random.default_rng(20)
    for b in (8, 16, 64):
        for ratio in ((1, 1), (1, 3), (1, 9)):
            if b < sum(ratio):
                continue
            policy = SamplingPolicy(mode, ratio, b)
            for n_pos in range(b + 3):
                for n_neg in range(max(0, b - n_pos), b + 3):
                    labels = np.concatenate([rng.integers(1, 4, n_pos), np.zeros(n_neg, np.int64)])
                    yield policy, rng.permutation(labels), int(rng.integers(2**32))


class TestMatchesOracle:
    """The one draw path against the soft and hard paths it replaced, draw
    for draw: the same bytes and dtypes, and counts that are Python ints."""

    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_every_grid_draw_equals_the_oracle(self, mode):
        draws = 0
        for policy, classes, seed in oracle_grid(mode):
            got = sample(classes, policy, np.random.default_rng(seed))
            want = sampler_oracle.sample(classes, policy, seed)
            for a, b in ((got.indices, want.indices), (got.multiplicities, want.multiplicities)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (policy, classes, seed)
            for a, b in ((got.pos_count_unique, want.pos_count_unique),
                         (got.pos_count_effective, want.pos_count_effective)):
                assert type(a) is int and type(b) is int and a == b, (policy, classes, seed)
            draws += 1
        assert draws > 8000
