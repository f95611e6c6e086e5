"""64-bit FNV-1a and SplitMix64 primitives.

Both are fixed-width integer recurrences, so identical inputs produce
identical outputs on every platform and Python version.  They back the
content-derived node ids of the canonicalizer and the hash embedding
provider.
"""

from __future__ import annotations

MASK64 = 0xFFFFFFFFFFFFFFFF

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3

_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB


def fnv1a64(data: bytes) -> int:
    """Hash bytes with 64-bit FNV-1a."""
    h = FNV64_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV64_PRIME) & MASK64
    return h


def fnv1a64_hex(text: str) -> str:
    """FNV-1a of UTF-8 encoded text, rendered as 16 lowercase hex digits."""
    return format(fnv1a64(text.encode("utf-8")), "016x")


class SplitMix64:
    """Deterministic 64-bit pseudo-random stream seeded by one integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _SM64_GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _SM64_MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _SM64_MIX2) & MASK64
        return z ^ (z >> 31)

    def next_symmetric_block(self, count: int):
        """The next ``count`` outputs of :meth:`next_u64`, each mapped to a
        float in [-1.0, 1.0) from its top 53 bits, as one float64 array.
        The k-th step's state is the current one plus k gammas (mod 2**64),
        so all steps run at once in wrapping uint64 arithmetic; the values
        and the state left behind are bit for bit those of ``count`` calls."""
        # Imported here: the id hashing canonicalize uses needs no numpy.
        import numpy as np

        states = np.uint64(self._state) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_SM64_GAMMA)
        self._state = (self._state + count * _SM64_GAMMA) & MASK64
        z = (states ^ (states >> np.uint64(30))) * np.uint64(_SM64_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM64_MIX2)
        z ^= z >> np.uint64(31)
        return (z >> np.uint64(11)).astype(np.float64) / 4503599627370496.0 - 1.0
