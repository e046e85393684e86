"""Minibatch construction under soft and hard positive/negative sampling ratios.

Soft mode honors the target positive fraction only when enough positives exist;
otherwise every available positive is used and negatives fill the batch. Hard
mode enforces the fraction exactly by repeating positives (multiplicity > 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


SAMPLING_MODES = ("soft", "hard")


@dataclass(frozen=True)
class SamplingPolicy:
    mode: str  # one of SAMPLING_MODES
    ratio: tuple[int, int]  # (pos_parts, neg_parts)
    batch_size: int

    def __post_init__(self):
        if self.mode not in SAMPLING_MODES:
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        p, n = self.ratio
        if p < 1 or n < 1:
            raise ValueError("ratio parts must be positive integers")
        if self.batch_size < p + n:
            raise ValueError("batch size smaller than one ratio unit")
        if self.pos_target < 1:
            raise ValueError("positive target must be >= 1")

    @property
    def pos_target(self) -> int:
        p, n = self.ratio
        return math.floor(self.batch_size * p / (p + n))

    @property
    def pos_fraction(self) -> float:
        p, n = self.ratio
        return p / (p + n)


@dataclass(frozen=True)
class SampledBatch:
    indices: np.ndarray  # indices into the proposal pool
    multiplicities: np.ndarray  # same length, all >= 1
    pos_count_unique: int
    pos_count_effective: int
    neg_count: int


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
        neg_count=len(take_neg),
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
        neg_count=len(take_neg),
    )
