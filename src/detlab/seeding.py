"""Deterministic seed derivation shared by data generation, sampling, and training."""

from __future__ import annotations

import hashlib
from typing import Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence hash, fixed by its stream-compatibility policy. Hashmix call k XORs
# HASH_A[k], then multiplies by HASH_A[k + 1]: calls 0-3 take the seed's low and high 32-bit
# words and two zeros, and call 4 + 3 * s + r mixes word s into the r-th word other than s.
HASH_A, HASH_B = (  # from (INIT_A, MULT_A); from (INIT_B, MULT_B), for generate_state
    np.array([init * pow(mult, k, 2**32) % 2**32 for k in range(n)], np.uint32)[:, None]
    for init, mult, n in ((0x43B0D7E5, 0x931E8875, 17), (0x8B51F9DD, 0x58F38DED, 9)))
MIX_MULT_L, MIX_MULT_R, XSHIFT = 0xCA01F9DD, 0x4973F715, 16
# word s's cross-mix calls, for the other words in the order s + 1, s + 2, s + 3 (mod 4)
_CROSS = [np.array([4 + 3 * s + d - (d > s) for d in np.roll(range(4), -s)[1:]]) for s in range(4)]
_checked = False


def derive_seed(*parts) -> int:
    """Hash a tuple of ints/strings into a stable 63-bit seed.

    Stable across processes and platforms, unlike built-in `hash`.
    """
    payload = "\x1f".join(str(p) for p in parts).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _hashmix(value: np.ndarray, consts: np.ndarray, calls: np.ndarray) -> np.ndarray:
    value = (value ^ consts[calls]) * consts[calls + 1]
    return value ^ value >> XSHIFT


def _state_words(seeds: Sequence[int]) -> np.ndarray:
    """The four little-endian uint64 words that `SeedSequence` gives
    `np.random.PCG64(seed)` for each seed, (N, 4), all hashed at once."""
    words = np.array(seeds, dtype=np.uint64) >> np.array([[0], [32]], dtype=np.uint64)
    pool = _hashmix(np.concatenate([words, 0 * words]).astype(np.uint32), HASH_A, np.arange(4))
    for calls in _CROSS:  # rows: word s, then the others from s + 1 on (mod 4)
        mixed = MIX_MULT_L * pool[1:] - MIX_MULT_R * _hashmix(pool[0], HASH_A, calls)
        pool = np.concatenate([mixed ^ mixed >> XSHIFT, pool[:1]])  # word s + 1 first
    w = _hashmix(np.concatenate([pool, pool]), HASH_B, np.arange(8)).astype(np.uint64)
    return np.ascontiguousarray((w[0::2] | w[1::2] << 32).T)  # PCG64 reads each row's bytes


class _Words(ISeedSequence):
    """Hands one seed's words to `np.random.PCG64`, whose own C code runs its set-seed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, np.dtype(dtype)) != (4, np.uint64):
            raise ValueError(f"hashed only PCG64's 4 uint64 words, not {n_words} {dtype}")
        return self.words


def generators(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """Yields for each seed in [0, 2**64) a new generator that draws exactly
    what `np.random.default_rng(seed)` would. The first call in a process
    raises RuntimeError if this numpy seeds differently."""
    global _checked
    if bad := [s for s in seeds if not 0 <= s < 2**64]:
        raise ValueError(f"seed {bad[0]} lies outside [0, 2**64)")
    if not _checked:  # a seed whose high word is not 0, in a pass of two, so row layout counts
        want = np.random.default_rng(2**63 + 12345).bit_generator.state
        if np.random.PCG64(_Words(_state_words([2**63 + 12345, 0])[0])).state != want:
            raise RuntimeError(f"numpy {np.__version__} seeds default_rng differently from "
                               "detlab.seeding, so every random stream would change")
        _checked = True
    for words in _state_words(seeds):
        yield np.random.Generator(np.random.PCG64(_Words(words)))
