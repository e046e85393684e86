"""The batch draw as it was before soft and hard batches shared one path:
`_soft` for soft batches and for hard ones that need no repeated positive,
and a hard branch in `sample` of its own. Kept unchanged as the oracle that
`detlab.sampler.sample` must equal draw for draw, bytes and dtypes included."""

from __future__ import annotations

import numpy as np

from detlab.sampler import SampledBatch, SamplingPolicy


def _pick(rng: np.random.Generator, pool: np.ndarray, k: int) -> np.ndarray:
    if k >= len(pool):
        return pool.copy()
    return rng.choice(pool, size=k, replace=False)


def _soft(rng, pos, neg, policy: SamplingPolicy) -> SampledBatch:
    """Take positives up to the target, then negatives; if the negative pool is
    short, top up with extra positives so the batch is always exactly full."""
    b = policy.batch_size
    take_pos = _pick(rng, pos, min(len(pos), policy.pos_target))
    take_neg = _pick(rng, neg, min(b - len(take_pos), len(neg)))
    shortfall = b - len(take_pos) - len(take_neg)
    if shortfall > 0:
        remaining = np.setdiff1d(pos, take_pos, assume_unique=True)
        take_pos = np.concatenate([take_pos, _pick(rng, remaining, shortfall)])
    indices = np.concatenate([take_pos, take_neg]).astype(np.int64)
    return SampledBatch(
        indices=indices,
        multiplicities=np.ones(len(indices), dtype=np.int64),
        pos_count_unique=len(take_pos),
        pos_count_effective=len(take_pos),
    )


def sample(classes: np.ndarray, policy: SamplingPolicy, rng_seed: int) -> SampledBatch:
    """Draws a batch from a pool given by its class array (0 = background).

    A hard policy repeats scarce positives so their effective count hits the
    target exactly. Copies are spread as evenly as possible (multiplicities
    differ by at most 1, extras go to the lowest pool indices). Otherwise, as
    with zero positives or at least the target, the batch is drawn as in soft
    mode: all multiplicities 1, positives capped at the target, never padded.
    """
    if len(classes) < policy.batch_size:
        raise ValueError(
            f"pool of {len(classes)} proposals cannot fill a batch of {policy.batch_size}"
        )
    pos, neg = np.flatnonzero(classes > 0), np.flatnonzero(classes == 0)
    rng = np.random.default_rng(rng_seed)
    target = policy.pos_target
    if policy.mode == "soft" or len(pos) == 0 or len(pos) >= target:
        return _soft(rng, pos, neg, policy)
    take_pos = np.sort(pos)
    base, extra = divmod(target, len(take_pos))
    mults = np.full(len(take_pos), base, dtype=np.int64)
    mults[:extra] += 1
    take_neg = _pick(rng, neg, policy.batch_size - target)
    shortfall = policy.batch_size - target - len(take_neg)
    if shortfall > 0:
        # negative pool exhausted; absorb the remainder into positive copies
        extra_each, extra_rem = divmod(shortfall, len(take_pos))
        mults += extra_each
        mults[:extra_rem] += 1
    indices = np.concatenate([take_pos, take_neg]).astype(np.int64)
    multiplicities = np.concatenate(
        [mults, np.ones(len(take_neg), dtype=np.int64)]
    )
    return SampledBatch(
        indices=indices,
        multiplicities=multiplicities,
        pos_count_unique=len(take_pos),
        pos_count_effective=int(mults.sum()),
    )
