"""Deterministic seed derivation shared by data generation, sampling, and training."""

from __future__ import annotations

import hashlib
from typing import Iterator, Sequence

import numpy as np

# numpy's SeedSequence and PCG64 seeding, fixed by numpy's stream-compatibility
# policy. SeedSequence's hashmix call k XORs HASH_A[k], then multiplies by
# HASH_A[k + 1]: calls 0-3 take the seed's low and high 32-bit words and two
# zeros, and call 4 + 3 * s + r mixes word s into the r-th word other than s.
HASH_A, HASH_B = (  # from (INIT_A, MULT_A); from (INIT_B, MULT_B), for generate_state
    np.array([init * pow(mult, k, 2**32) % 2**32 for k in range(n)], np.uint32)[:, None]
    for init, mult, n in ((0x43B0D7E5, 0x931E8875, 17), (0x8B51F9DD, 0x58F38DED, 9)))
MIX_MULT_L, MIX_MULT_R, XSHIFT = 0xCA01F9DD, 0x4973F715, 16
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
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
    return (w[0::2] | w[1::2] << 32).T


def _pcg64_states(seeds: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(state, inc) of `np.random.PCG64(seed)` for each seed. A run's pass
    lasts the run, so while it runs it holds each seed's words as one uint64
    row, made Python ints one seed at a time."""
    for w0, w1, w2, w3 in map(np.ndarray.tolist, _state_words(seeds)):
        inc = (w2 << 65 | w3 << 1 | 1) % 2**128  # (w2 << 64 | w3) << 1 | 1
        yield (((w0 << 64 | w1) + inc) * PCG64_MULT + inc) % 2**128, inc


def generators(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """Yields for each seed in [0, 2**64) a generator that draws exactly what
    `np.random.default_rng(seed)` would: the same Generator, re-seeded in place,
    so valid only until the next yield. The first call in a process raises
    RuntimeError if this numpy seeds differently."""
    global _checked
    if bad := [s for s in seeds if not 0 <= s < 2**64]:
        raise ValueError(f"seed {bad[0]} lies outside [0, 2**64)")
    if not _checked:  # at a seed whose high word is not 0
        want = np.random.default_rng(2**63 + 12345).bit_generator.state["state"]
        if [*_pcg64_states([2**63 + 12345])] != [(want["state"], want["inc"])]:
            raise RuntimeError(f"numpy {np.__version__} seeds default_rng differently from "
                               "detlab.seeding, so every random stream would change")
        _checked = True
    rng = np.random.default_rng(0)
    for state, inc in _pcg64_states(seeds):
        rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": state, "inc": inc}}
        yield rng
