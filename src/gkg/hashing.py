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


def fnv1a64(data: bytes, h: int = FNV64_OFFSET) -> int:
    """Hash bytes with 64-bit FNV-1a, going on from state ``h`` if given."""
    for byte in data:
        h ^= byte
        h = (h * FNV64_PRIME) & MASK64
    return h


def fnv1a64_hex(text: str) -> str:
    """FNV-1a of UTF-8 encoded text, rendered as 16 lowercase hex digits."""
    return format(fnv1a64(text.encode("utf-8")), "016x")


# A numpy step over a narrow byte column costs about 3 us and one byte of
# the scalar loop about 0.15 us (Python 3.11, numpy 2.4, x86-64), so a
# column is worth a numpy step while about 20 texts still reach it.  Once
# fewer than this many do, the rest of each text runs the scalar loop.
_BATCH_CUTOVER = 16


def fnv1a64_hex_many(texts) -> list:
    """``[fnv1a64_hex(t) for t in texts]``, bit for bit, hashed column by
    column in wrapping uint64 arithmetic.

    The encodings are sorted longest first and joined into one byte
    buffer, so the texts still unfinished at byte ``j`` are a prefix of
    that order; each column step reads their ``j``-th bytes by offset.
    Memory stays linear in the total byte count: no text is padded to the
    longest.  Once fewer than ``_BATCH_CUTOVER`` texts remain, each goes
    on from its current state byte by byte, so one very long text costs
    what the scalar loop would."""
    encoded = [text.encode("utf-8") for text in texts]
    count = len(encoded)
    if count < _BATCH_CUTOVER:
        return [format(fnv1a64(data), "016x") for data in encoded]
    # Imported here: importing gkg.hashing needs no numpy.
    import numpy as np

    lengths = np.fromiter(map(len, encoded), dtype=np.intp, count=count)
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    ranked = [encoded[i] for i in order.tolist()]
    buf = np.frombuffer(b"".join(ranked), dtype=np.uint8)
    starts = np.zeros(count, dtype=np.intp)
    np.cumsum(lengths[:-1], out=starts[1:])
    # Each of the first `columns` byte columns still reaches at least
    # _BATCH_CUTOVER texts: widths[j] of them, a prefix of the order.
    columns = int(lengths[_BATCH_CUTOVER - 1])
    widths = np.searchsorted(-lengths, -np.arange(columns + 1), side="left").tolist()
    state = np.full(count, FNV64_OFFSET, dtype=np.uint64)
    prime = np.uint64(FNV64_PRIME)
    for column, width in enumerate(widths[:columns]):
        head = state[:width]
        head ^= buf[starts[:width] + column]
        head *= prime
    # The fewer than _BATCH_CUTOVER texts longer than that go on one by one.
    rest = widths[columns]
    if rest:
        state[:rest] = [fnv1a64(ranked[k][columns:], h) for k, h in enumerate(state[:rest].tolist())]
    digests = np.empty_like(state)
    digests[order] = state
    hexed = digests.astype(">u8").tobytes().hex()
    return [hexed[i:i + 16] for i in range(0, 16 * count, 16)]


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
        # Imported here: importing gkg.hashing needs no numpy.
        import numpy as np

        states = np.uint64(self._state) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_SM64_GAMMA)
        self._state = (self._state + count * _SM64_GAMMA) & MASK64
        z = (states ^ (states >> np.uint64(30))) * np.uint64(_SM64_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM64_MIX2)
        z ^= z >> np.uint64(31)
        return (z >> np.uint64(11)).astype(np.float64) / 4503599627370496.0 - 1.0
