"""Deterministic seed derivation shared by data generation, sampling, and training."""

from __future__ import annotations

import hashlib


def derive_seed(*parts) -> int:
    """Hash a tuple of ints/strings into a stable 63-bit seed.

    Stable across processes and platforms, unlike built-in `hash`.
    """
    payload = "\x1f".join(str(p) for p in parts).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little") >> 1
