import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detlab.sampler import SamplingPolicy, sample


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
        batch = sample(pool(200, 600), SOFT_512, 0)
        assert batch.pos_count_effective == 128
        assert batch.neg_count == 384
        assert (batch.multiplicities == 1).all()

    def test_scarce_positives_all_used(self):
        batch = sample(pool(40, 600), SOFT_512, 0)
        assert batch.pos_count_unique == 40
        assert batch.neg_count == 472

    def test_zero_positives(self):
        batch = sample(pool(0, 600), SOFT_512, 0)
        assert batch.pos_count_effective == 0
        assert batch.neg_count == 512

    def test_pool_too_small(self):
        with pytest.raises(ValueError, match="pool of 110 proposals cannot fill a batch of 512"):
            sample(pool(10, 100), SOFT_512, 0)

    def test_no_duplicate_indices(self):
        batch = sample(pool(300, 700), SOFT_512, 3)
        assert len(np.unique(batch.indices)) == len(batch.indices)

    def test_deterministic(self):
        a = sample(pool(60, 700), SOFT_512, 5)
        b = sample(pool(60, 700), SOFT_512, 5)
        np.testing.assert_array_equal(a.indices, b.indices)


class TestHard:
    def test_single_positive_duplicated(self):
        policy = SamplingPolicy("hard", (1, 1), 8)
        batch = sample(pool(1, 20), policy, 0)
        assert batch.pos_count_unique == 1
        assert batch.pos_count_effective == 4
        assert batch.neg_count == 4
        assert batch.multiplicities[0] == 4

    def test_enough_positives_no_duplication(self):
        batch = sample(pool(200, 600), HARD_512, 0)
        assert batch.pos_count_unique == 128
        assert (batch.multiplicities == 1).all()

    def test_zero_positive_fallback(self):
        batch = sample(pool(0, 600), HARD_512, 0)
        assert batch.pos_count_effective == 0
        assert batch.neg_count == 512

    def test_even_distribution_extras_to_lowest(self):
        policy = SamplingPolicy("hard", (1, 1), 16)  # target 8
        batch = sample(pool(3, 30), policy, 0)
        mults = batch.multiplicities[:3]
        assert sorted(mults, reverse=True) == list(mults)
        assert mults.sum() == 8
        assert mults.max() - mults.min() <= 1


class TestCounts:
    def test_soft_counts(self):
        batch = sample(pool(40, 600), SOFT_512, 0)
        assert (batch.pos_count_unique, batch.pos_count_effective) == (40, 40)

    def test_hard_counts(self):
        policy = SamplingPolicy("hard", (1, 1), 8)
        batch = sample(pool(1, 20), policy, 0)
        assert (batch.pos_count_unique, batch.pos_count_effective) == (1, 4)

    def test_all_negative(self):
        batch = sample(pool(0, 600), SOFT_512, 0)
        assert (batch.pos_count_unique, batch.pos_count_effective) == (0, 0)


class TestProperties:
    @given(st.integers(0, 64), st.integers(0, 1_000_000),
           st.sampled_from(["soft", "hard"]))
    @settings(max_examples=120)
    def test_batch_size_conservation(self, n_pos, seed, mode):
        policy = SamplingPolicy(mode, (1, 3), 64)
        batch = sample(pool(n_pos, 128), policy, seed)
        assert batch.pos_count_effective + batch.neg_count == 64
        assert batch.multiplicities.sum() == 64

    @given(st.integers(0, 64), st.integers(0, 1_000_000))
    @settings(max_examples=60)
    def test_soft_ceiling(self, n_pos, seed):
        policy = SamplingPolicy("soft", (1, 3), 64)
        batch = sample(pool(n_pos, 128), policy, seed)
        assert batch.pos_count_effective == min(n_pos, policy.pos_target)
        assert (batch.multiplicities == 1).all()

    @given(st.integers(1, 64), st.integers(0, 1_000_000))
    @settings(max_examples=60)
    def test_hard_exactness(self, n_pos, seed):
        policy = SamplingPolicy("hard", (1, 3), 64)
        batch = sample(pool(n_pos, 128), policy, seed)
        assert batch.pos_count_effective == policy.pos_target
        assert batch.multiplicities.max() - batch.multiplicities[
            batch.multiplicities >= 1
        ].min() <= batch.multiplicities.max()  # all >= 1
        pos_mults = batch.multiplicities[: batch.pos_count_unique]
        assert pos_mults.max() - pos_mults.min() <= 1
