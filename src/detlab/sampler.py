"""Minibatch construction under soft and hard positive/negative sampling ratios.

Soft mode honors the target positive fraction only when enough positives exist;
otherwise every available positive is used and negatives fill the batch. Hard
mode enforces the fraction exactly by repeating positives (multiplicity > 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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

    @cached_property
    def pos_target(self) -> int:
        p, n = self.ratio
        return math.floor(self.batch_size * p / (p + n))

    @property
    def pos_fraction(self) -> float:
        p, n = self.ratio
        return p / (p + n)


class SampledBatch(NamedTuple):
    indices: np.ndarray  # int64 indices into the proposal pool
    multiplicities: np.ndarray  # same length, all >= 1
    pos_count_unique: int
    pos_count_effective: int


def sample(classes: np.ndarray, policy: SamplingPolicy, rng: np.random.Generator) -> SampledBatch:
    """Draws a batch with `rng` from a pool given by its class array (0 = background).

    A hard policy repeats scarce positives so their effective count hits the
    target exactly. Copies are spread as evenly as possible (multiplicities
    differ by at most 1, extras go to the lowest pool indices). Otherwise, as
    with zero positives or at least the target, up to the target positives are
    drawn, each once. Negatives fill the rest of the batch; if they run short,
    further drawn positives top it up, so the batch is always exactly full.
    """
    b, target = policy.batch_size, policy.pos_target
    if len(classes) < b:
        raise ValueError(f"pool of {len(classes)} proposals cannot fill a batch of {b}")
    pos, neg = (classes > 0).nonzero()[0], (classes == 0).nonzero()[0]  # ascending int64
    # each draw takes k of its candidates without replacement, or all of them
    if policy.mode == "hard" and 0 < len(pos) < target:
        take_pos, effective = pos, target
    else:
        effective = min(len(pos), target)
        take_pos = rng.choice(pos, size=effective, replace=False) if effective < len(pos) else pos
    k = min(b - effective, len(neg))
    take_neg = rng.choice(neg, size=k, replace=False) if k < len(neg) else neg
    if effective + k < b:
        # only drawn positives get here: repeating them needs P < target, and
        # P + N >= b leaves more than b - target negatives
        remaining = np.setdiff1d(pos, take_pos, assume_unique=True)
        k = b - effective - k
        more = rng.choice(remaining, size=k, replace=False) if k < len(remaining) else remaining
        take_pos = np.concatenate([take_pos, more])
        effective = len(take_pos)
    indices = np.concatenate([take_pos, take_neg])
    multiplicities = np.ones(len(indices), dtype=np.int64)
    if effective > len(take_pos):
        base, extra = divmod(effective, len(take_pos))
        multiplicities[:len(take_pos)] = base
        multiplicities[:extra] += 1
    return SampledBatch(indices, multiplicities, len(take_pos), effective)
