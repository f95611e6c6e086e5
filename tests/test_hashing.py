"""FNV-1a 64 one text at a time and in batches."""

import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkg.hashing import _BATCH_CUTOVER, fnv1a64_hex, fnv1a64_hex_many

# Reference vectors of 64-bit FNV-1a (offset basis cbf29ce484222325).
VECTORS = {"": "cbf29ce484222325", "a": "af63dc4c8601ec8c", "foobar": "85944171f73967e8", "\0": "af63bd4c8601b7df"}


@pytest.mark.parametrize("text", sorted(VECTORS))
def test_reference_vectors(text):
    assert fnv1a64_hex(text) == VECTORS[text]
    # Alone, and among enough other texts to take the numpy path.
    assert fnv1a64_hex_many([text]) == [VECTORS[text]]
    batch = [text, *VECTORS] * _BATCH_CUTOVER
    assert fnv1a64_hex_many(batch) == [VECTORS[t] for t in batch]


def test_empty_batch():
    assert fnv1a64_hex_many([]) == []


@pytest.mark.parametrize("count", [1, _BATCH_CUTOVER - 1, _BATCH_CUTOVER, _BATCH_CUTOVER + 1, 3 * _BATCH_CUTOVER])
def test_texts_run_out_on_both_sides_of_the_cutover(count):
    """Text ``i`` is ``i`` bytes long, so the number of texts still
    unfinished falls one per byte column, through the cut-over."""
    texts = ["é\0z𝄞"[i % 4] * i for i in range(count)]
    assert fnv1a64_hex_many(texts) == [fnv1a64_hex(text) for text in texts]


_TEXTS = st.text(alphabet=st.sampled_from("a~\0\x7f\xe9ࠀ￿\U0001d11e\U0010ffff"), max_size=48) | st.text(
    max_size=8
)


@st.composite
def _batches(draw):
    """Lists of up to 80 texts drawn from a pool, so duplicates are common."""
    pool = draw(st.lists(_TEXTS, min_size=1, max_size=40))
    return draw(st.lists(st.sampled_from(pool), max_size=80))


@settings(max_examples=300, deadline=None)
@given(_batches())
def test_batch_equals_scalar(texts):
    assert fnv1a64_hex_many(texts) == [fnv1a64_hex(text) for text in texts]


def _short_texts(count):
    return [f"ev:Birth#{i * 0x9E3779B97F4A7C15 % 2**64:016x}" for i in range(count)]


def test_one_long_text_costs_no_more_than_the_scalar_loop():
    """The long text's tail runs through the scalar loop once the short
    texts are done, so the batch never pays a column step per byte."""
    texts = _short_texts(20_000)
    texts.insert(7_000, "x" * (1 << 20))
    batch = scalar = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        hashed = fnv1a64_hex_many(texts)
        middle = time.perf_counter()
        expected = [fnv1a64_hex(text) for text in texts]
        batch, scalar = min(batch, middle - start), min(scalar, time.perf_counter() - middle)
        assert hashed == expected
    assert batch <= scalar


def _peak_bytes(texts):
    tracemalloc.start()
    try:
        fnv1a64_hex_many(texts)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_follows_the_total_byte_count():
    """A long text adds a few copies of its own bytes to the peak, not an
    array as wide as itself per text: one 64 KiB text among 5,000 short
    ones would make such an array about 300 MiB."""
    texts = _short_texts(5_000)
    long_text = "y" * (1 << 16)
    assert _peak_bytes(texts + [long_text]) - _peak_bytes(texts) < 4 * len(long_text)
