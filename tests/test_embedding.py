"""Tokenization, the two providers, phrase/triple embedding and cosine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkg import (
    EmptyTokenError,
    FileEmbeddingProvider,
    FlatTriple,
    HashEmbeddingProvider,
    InvalidParameterError,
    SplitMix64,
    VectorFileError,
    cosine,
    embed_flat_triple,
    embed_phrase,
    fnv1a64,
    normalized,
    tokenize,
)
from gkg.embedding import MAX_DIM

MASK64 = (1 << 64) - 1


@pytest.mark.parametrize(
    "label, expected",
    [
        ("RogerWaters", ["roger", "waters"]),
        ("GeorgeRogerWaters", ["george", "roger", "waters"]),
        ("born_in", ["born", "in"]),
        ("born-in", ["born", "in"]),
        ("PlaceOfResidence", ["place", "of", "residence"]),
        ("HTTPServer", ["http", "server"]),
        ("Great Bookham", ["great", "bookham"]),
        ("  spaced   out  ", ["spaced", "out"]),
        ("lower", ["lower"]),
        ("", []),
        ("x2Go", ["x2", "go"]),
    ],
)
def test_tokenize(label, expected):
    assert tokenize(label) == expected


class TestHashProvider:
    def test_deterministic_across_instances(self):
        a = HashEmbeddingProvider(7, 32).token_vector("london")
        b = HashEmbeddingProvider(7, 32).token_vector("london")
        assert np.array_equal(a, b)

    def test_seed_changes_vectors(self):
        a = HashEmbeddingProvider(1, 32).token_vector("london")
        b = HashEmbeddingProvider(2, 32).token_vector("london")
        assert not np.array_equal(a, b)

    def test_unit_norm(self):
        v = HashEmbeddingProvider(0, 64).token_vector("anything")
        assert math.isclose(float(np.linalg.norm(v)), 1.0, rel_tol=1e-12)

    def test_empty_token_rejected(self):
        with pytest.raises(EmptyTokenError):
            HashEmbeddingProvider(0, 8).token_vector("")

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            HashEmbeddingProvider(0, 0)

    @pytest.mark.parametrize("dim", [MAX_DIM + 1, 10**13])
    def test_dim_above_the_maximum_rejected(self, dim):
        with pytest.raises(InvalidParameterError, match=f"at most {MAX_DIM}, got {dim}"):
            HashEmbeddingProvider(0, dim)

    def test_dim_at_the_maximum_accepted(self):
        assert HashEmbeddingProvider(0, MAX_DIM).token_vector("roger").shape == (MAX_DIM,)

    def test_first_component_matches_generator_algebra(self):
        """The raw stream is SplitMix64 seeded with FNV-1a(token) XOR seed,
        mapped to [-1, 1); recompute the first draw by hand."""
        seed, dim, token = 42, 64, "roger"
        state = fnv1a64(token.encode()) ^ seed
        draws = []
        for _ in range(dim):
            state = (state + 0x9E3779B97F4A7C15) & MASK64
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
            z ^= z >> 31
            draws.append((z >> 11) / 4503599627370496.0 - 1.0)
        expected = np.array(draws) / np.linalg.norm(draws)
        got = HashEmbeddingProvider(seed, dim).token_vector(token)
        assert np.array_equal(got, expected)

    def test_pinned_regression_values(self):
        provider = HashEmbeddingProvider(42, 64)
        vector = provider.token_vector("roger")
        assert vector[:3] == pytest.approx(
            [0.033788340923, 0.167886468461, 0.048782029347], abs=1e-12
        )
        assert cosine(
            provider.token_vector("roger"), provider.token_vector("waters")
        ) == pytest.approx(-0.008762284133, abs=1e-12)

    def test_distinct_tokens_nearly_orthogonal_at_dim_64(self):
        provider = HashEmbeddingProvider(5, 64)
        tokens = [f"tok{i}" for i in range(40)]
        cosines = [
            abs(cosine(provider.token_vector(a), provider.token_vector(b)))
            for i, a in enumerate(tokens)
            for b in tokens[i + 1 :]
        ]
        assert max(cosines) < 0.6
        assert float(np.mean(cosines)) < 0.15


class TestFileProvider:
    def write(self, tmp_path, text):
        path = tmp_path / "vectors.txt"
        path.write_text(text, encoding="utf-8")
        return path

    def test_lookup_and_normalization(self, tmp_path):
        path = self.write(tmp_path, "london 3 0 0 0\nparis 0 5 0 0\n")
        provider = FileEmbeddingProvider(path, dim=4)
        assert np.array_equal(provider.token_vector("london"), [1, 0, 0, 0])

    def test_header_line_accepted(self, tmp_path):
        path = self.write(tmp_path, "2 4\nlondon 1 0 0 0\nparis 0 1 0 0\n")
        provider = FileEmbeddingProvider(path, dim=4)
        assert np.array_equal(provider.token_vector("paris"), [0, 1, 0, 0])

    def test_dim_above_the_maximum_rejected_before_the_file_is_read(self, tmp_path):
        with pytest.raises(InvalidParameterError, match=f"at most {MAX_DIM}"):
            FileEmbeddingProvider(tmp_path / "missing.txt", dim=10**13)

    def test_header_dim_mismatch(self, tmp_path):
        path = self.write(tmp_path, "2 300\nlondon 1 0 0 0\n")
        with pytest.raises(VectorFileError):
            FileEmbeddingProvider(path, dim=4)

    def test_row_width_error_carries_line(self, tmp_path):
        path = self.write(tmp_path, "london 1 0 0 0\nshort 1 0\n")
        with pytest.raises(VectorFileError) as exc:
            FileEmbeddingProvider(path, dim=4)
        assert exc.value.line_no == 2

    def test_duplicate_token_rejected(self, tmp_path):
        path = self.write(tmp_path, "london 1 0 0 0\nlondon 0 1 0 0\n")
        with pytest.raises(VectorFileError):
            FileEmbeddingProvider(path, dim=4)

    def test_non_numeric_component(self, tmp_path):
        path = self.write(tmp_path, "london 1 0 zero 0\n")
        with pytest.raises(VectorFileError):
            FileEmbeddingProvider(path, dim=4)

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
    def test_non_finite_component_rejected(self, tmp_path, component):
        """A NaN row used to load and then score as a perfect match."""
        path = self.write(tmp_path, f"london 1 0 0 0\nroger {component} 0 0 0\n")
        with pytest.raises(VectorFileError, match="non-finite") as exc:
            FileEmbeddingProvider(path, dim=4)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize(
        "component, loads",
        [("1e153", True), ("1e155", False), ("-1e308", False), ("1e-150", True), ("1e-160", False),
         ("5e-324", False), ("0", True)],
    )
    def test_squared_norm_must_be_a_normal_float(self, tmp_path, component, loads):
        """A row whose squared norm overflows, or underflows below the
        normal range, is refused at its line; an all-zero row stays zero."""
        path = self.write(tmp_path, f"london 1 0 0 0\nroger {component} {component} 0 0\n")
        if loads:
            vector = FileEmbeddingProvider(path, dim=4).token_vector("roger")
            assert np.array_equal(vector, normalized(np.array([float(component)] * 2 + [0.0] * 2)))
        else:
            with pytest.raises(VectorFileError, match="too large or small to normalize") as exc:
                FileEmbeddingProvider(path, dim=4)
            assert exc.value.line_no == 2

    def test_ordinary_vectors_load_normalized(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(60, 4)) * 10.0 ** rng.integers(-140, 140, size=(60, 1))
        text = "".join(f"t{i} " + " ".join(repr(float(x)) for x in row) + "\n" for i, row in enumerate(rows))
        provider = FileEmbeddingProvider(self.write(tmp_path, text), dim=4)
        for i, row in enumerate(rows):
            assert np.array_equal(provider.token_vector(f"t{i}"), normalized(row))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_newline_conventions_and_line_numbers(self, tmp_path, newline):
        text = newline.join(["2 4", "london 1 0 0 0", "paris 0 1 0 0", "short 1", ""])
        path = tmp_path / "vectors.txt"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(VectorFileError, match="expected 4 components") as exc:
            FileEmbeddingProvider(path, dim=4)
        assert exc.value.line_no == 4
        path.write_bytes(text.replace("short 1", "rome 0 0 1 0").encode("utf-8"))
        assert np.array_equal(FileEmbeddingProvider(path, dim=4).token_vector("paris"), [0, 1, 0, 0])

    def test_undecodable_byte_carries_line(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_bytes(b"london 1 0 0 0\nparis\xff 0 1 0 0\n")
        with pytest.raises(VectorFileError, match="is not UTF-8 text") as exc:
            FileEmbeddingProvider(path, dim=4)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("header", ["", "2 4\n"])
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, header):
        """With or without the mark, the first token and the header read
        alike, and line numbers still count from the first line."""
        text = header + "london 1 0 0 0\nparis 0 1 0 0\n"
        path = tmp_path / "vectors.txt"
        for prefix in (b"", "\ufeff".encode("utf-8")):
            path.write_bytes(prefix + text.encode("utf-8"))
            provider = FileEmbeddingProvider(path, dim=4)
            assert sorted(provider._vectors) == ["london", "paris"]
            assert np.array_equal(provider.token_vector("london"), [1, 0, 0, 0])
            path.write_bytes(prefix + (text + "short 1\n").encode("utf-8"))
            with pytest.raises(VectorFileError, match="expected 4 components") as exc:
                FileEmbeddingProvider(path, dim=4)
            assert exc.value.line_no == text.count("\n") + 1

    def test_undecodable_byte_after_a_byte_order_mark_carries_line(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_bytes("\ufeff".encode("utf-8") + b"london 1 0 0 0\nparis\xff 0 1 0 0\n")
        with pytest.raises(VectorFileError, match="is not UTF-8 text") as exc:
            FileEmbeddingProvider(path, dim=4)
        assert exc.value.line_no == 2

    def test_miss_falls_back_to_the_seeded_hash_provider(self, tmp_path):
        path = self.write(tmp_path, "london 1 0 0 0\n")
        provider = FileEmbeddingProvider(path, dim=4, fallback_seed=9)
        fallback = HashEmbeddingProvider(9, 4)
        for token in ("tokyo", "osaka"):
            assert np.array_equal(provider.token_vector(token), fallback.token_vector(token))
        assert np.array_equal(provider.token_vector("london"), [1, 0, 0, 0])


class TestPhrases:
    def test_single_token_short_circuit(self, basis):
        assert np.array_equal(embed_phrase(basis, "London"), basis.token_vector("london"))

    def test_empty_phrase_is_zero(self, basis):
        assert not embed_phrase(basis, "  ").any()

    def test_two_orthonormal_tokens(self, basis):
        """normalize(a + b) keeps cosine 1/sqrt(2) against each part."""
        phrase = embed_phrase(basis, "RogerWaters")
        assert cosine(phrase, basis.token_vector("roger")) == pytest.approx(
            1 / math.sqrt(2), abs=1e-12
        )

    def test_shared_two_of_three_tokens(self, basis):
        """cos(normalize(a+b), normalize(a+b+c)) = 2/sqrt(6) for orthonormal
        tokens; the rename-robustness constant for name slots."""
        two = embed_phrase(basis, "RogerWaters")
        three = embed_phrase(basis, "GeorgeRogerWaters")
        assert cosine(two, three) == pytest.approx(2 / math.sqrt(6), abs=1e-12)

    def test_order_insensitive(self, basis):
        assert np.allclose(embed_phrase(basis, "great bookham"), embed_phrase(basis, "bookham great"))


class TestFlatTripleEmbedding:
    def test_identical_triples(self, basis):
        t = FlatTriple("RogerWaters", "LivesIn", "London")
        assert cosine(embed_flat_triple(basis, t), embed_flat_triple(basis, t)) == pytest.approx(1.0)

    def test_shared_two_of_three_phrases(self, basis):
        """Single-token phrases, one slot changed: cosine is exactly 2/3 —
        the same number whether the relation or the object changed."""
        base = embed_flat_triple(basis, FlatTriple("roger", "lives", "london"))
        renamed = embed_flat_triple(basis, FlatTriple("roger", "dwells", "london"))
        moved = embed_flat_triple(basis, FlatTriple("roger", "lives", "paris"))
        assert cosine(base, renamed) == pytest.approx(2 / 3, abs=1e-12)
        assert cosine(base, moved) == pytest.approx(2 / 3, abs=1e-12)

    def test_normalized_sum_of_the_three_phrases(self, basis):
        triple = FlatTriple("RogerWaters", "livesIn", "Great Bookham")
        total = sum(embed_phrase(basis, phrase) for phrase in ("RogerWaters", "livesIn", "Great Bookham"))
        assert np.array_equal(embed_flat_triple(basis, triple), normalized(total))


class TestCosine:
    def test_zero_vector_gives_zero(self):
        assert cosine(np.zeros(4), np.ones(4)) == 0.0

    def test_opposite_vectors(self):
        v = np.array([1.0, 2.0])
        assert cosine(v, -v) == pytest.approx(-1.0)

    def test_scale_invariant(self):
        u = np.array([1.0, 2.0, 3.0])
        v = np.array([0.5, -1.0, 2.0])
        assert cosine(u, v) == pytest.approx(cosine(3 * u, 0.25 * v))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_gives_zero(self, bad):
        """``min(1.0, nan)`` is 1.0, so an unguarded NaN scored as a perfect
        match."""
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([bad, 0.0, 0.0])
        assert cosine(u, v) == 0.0
        assert cosine(v, u) == 0.0
        assert cosine(v, v) == 0.0

    @given(
        st.lists(st.floats(-100, 100), min_size=4, max_size=4),
        st.lists(st.floats(-100, 100), min_size=4, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_and_symmetric(self, xs, ys):
        u, v = np.array(xs), np.array(ys)
        value = cosine(u, v)
        assert -1.0 <= value <= 1.0
        assert value == pytest.approx(cosine(v, u))


def test_normalized_zero_stays_zero():
    assert not normalized(np.zeros(3)).any()


def test_normalized_is_unit_otherwise():
    assert float(np.linalg.norm(normalized(np.array([3.0, 4.0])))) == pytest.approx(1.0)


class _ScalarSplitMix64:
    """The oracle of ``next_symmetric_block``: SplitMix64's scalar
    recurrence and the one-float-at-a-time draw the block replaced."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def next_symmetric(self) -> float:
        """Next float in [-1.0, 1.0), from the top 53 bits of one output."""
        return (self.next_u64() >> 11) / 4503599627370496.0 - 1.0


def _bits(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestSymmetricBlock:
    """One vectorised draw equals ``count`` scalar draws bit for bit, and
    leaves the stream where they would."""

    @given(
        st.one_of(st.sampled_from([0, 1, MASK64, MASK64 - 0x9E3779B97F4A7C15]), st.integers(0, MASK64)),
        st.one_of(st.sampled_from([0, 1, 3, 63, 64, 65]), st.integers(0, 300)),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_scalar_recurrence(self, seed, count):
        stream, oracle = SplitMix64(seed), _ScalarSplitMix64(seed)
        block = stream.next_symmetric_block(count)
        assert block.dtype == np.float64 and block.shape == (count,)
        assert _bits(block) == _bits([oracle.next_symmetric() for _ in range(count)])
        assert stream.next_u64() == oracle.next_u64()


def _norm_normalized(vector):
    """``normalized`` as it was written with ``np.linalg.norm``."""
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        return vector
    return vector / norm


def _norm_cosine(u, v):
    """``cosine`` as it was written with ``np.linalg.norm``."""
    norm_u = float(np.linalg.norm(u))
    norm_v = float(np.linalg.norm(v))
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    value = float(np.dot(u, v)) / (norm_u * norm_v)
    if not math.isfinite(value):
        return 0.0
    return max(-1.0, min(1.0, value))


# Zeros, subnormals, values whose squares overflow or underflow, and
# non-finite components, besides any float64.
_components = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-200, 1e-160, 1.0, -3.5, 1e154, 1e200, -1e300,
                     1.7976931348623157e308, math.nan, math.inf, -math.inf]),
    st.floats(width=64),
)


class TestNormsWithoutDispatch:
    """``normalized`` and ``cosine`` take norms as ``sqrt(v.dot(v))``; they
    equal their ``np.linalg.norm`` forms bit for bit."""

    @given(st.lists(_components, max_size=8))
    @settings(max_examples=400, deadline=None)
    def test_normalized(self, components):
        vector = np.array(components, dtype=np.float64)
        with np.errstate(all="ignore"):
            assert _bits(normalized(vector)) == _bits(_norm_normalized(vector))

    @given(st.integers(0, 8).flatmap(lambda n: st.tuples(*[st.lists(_components, min_size=n, max_size=n)] * 2)))
    @settings(max_examples=400, deadline=None)
    def test_cosine(self, pair):
        u, v = (np.array(components, dtype=np.float64) for components in pair)
        with np.errstate(all="ignore"):
            assert _bits(cosine(u, v)) == _bits(_norm_cosine(u, v))
