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
    VectorFileError,
    cosine,
    embed_flat_triple,
    embed_phrase,
    fnv1a64,
    normalized,
    tokenize,
)

from .support import BasisProvider

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
        assert provider.misses == 0

    def test_header_line_accepted(self, tmp_path):
        path = self.write(tmp_path, "2 4\nlondon 1 0 0 0\nparis 0 1 0 0\n")
        provider = FileEmbeddingProvider(path, dim=4)
        assert np.array_equal(provider.token_vector("paris"), [0, 1, 0, 0])

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

    def test_miss_falls_back_and_counts(self, tmp_path):
        path = self.write(tmp_path, "london 1 0 0 0\n")
        provider = FileEmbeddingProvider(path, dim=4, fallback_seed=9)
        fallback = HashEmbeddingProvider(9, 4)
        assert np.array_equal(provider.token_vector("tokyo"), fallback.token_vector("tokyo"))
        provider.token_vector("osaka")
        assert provider.misses == 2


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

    def test_accepts_plain_sequences(self, basis):
        a = embed_flat_triple(basis, ("a", "r", "b"))
        b = embed_flat_triple(basis, FlatTriple("a", "r", "b"))
        assert np.array_equal(a, b)


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
