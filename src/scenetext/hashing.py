"""Stable 64-bit hashing for subsampling, shuffling, and per-record RNG.

blake2b is keyed with the run seed so every derived decision (keep/drop,
shuffle rank, split point) is a pure function of (seed, id) and therefore
independent of stream order, worker count, and platform.
"""

import random
from functools import lru_cache

try:  # the package's hash constructors: hashlib's, without the ~3.6 MB of OpenSSL it loads
    from _blake2 import blake2b
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        from _sha256 import sha256
except ImportError:  # an interpreter without them
    from hashlib import blake2b, sha256

_SCALE = float(2**64)


@lru_cache(maxsize=8)
def _keyed(seed: int):
    """The blake2b keyed with the seed, before any input: hash64 copies it."""
    return blake2b(digest_size=8, key=seed.to_bytes(8, "little", signed=False))


def hash64(seed: int, *parts: str) -> int:
    """64-bit keyed hash of the string parts, each followed by a 0x1f byte."""
    h = _keyed(seed).copy()
    if parts:  # no parts feed no bytes
        h.update(("\x1f".join(parts) + "\x1f").encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


def keep_fraction(seed: int, item_id: str, fraction: float) -> bool:
    """Threshold-monotone keep predicate: nested subsets across fractions.
    A fraction of 1 or more keeps every id and computes no hash."""
    return fraction >= 1.0 or kept_hash(hash64(seed, item_id), fraction)


def kept_hash(value: int, fraction: float) -> bool:
    """`keep_fraction`'s test on an id's hash64(seed, item_id). A fraction of
    1 or more keeps every hash: one within 2**10 of 2**64 divides to exactly
    1.0 in floating point."""
    return fraction >= 1.0 or value / _SCALE < fraction


def derive_rng(seed: int, *parts: str) -> random.Random:
    """Seeded RNG derived from (seed, parts); order-independent determinism."""
    return random.Random(hash64(seed, *parts))
