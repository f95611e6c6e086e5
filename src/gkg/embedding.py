"""Deterministic text embeddings.

The hash provider derives every token vector from an FNV-1a seed fed into
SplitMix64, so equal (seed, dim, token) always gives bit-identical vectors
with no model download.  A file provider reads a plain-text word-vector
file and falls back to the hash provider for unknown tokens.

Phrases embed as the L2-normalized sum of their token vectors; flat
triples as the normalized sum of their three phrase vectors.  This is the
additive scheme whose blind spots the evaluation commands demonstrate.
"""

from __future__ import annotations

import math
import re
import sys
from typing import Iterable, List

import numpy as np

from .errors import EmptyTokenError, InvalidParameterError, VectorFileError
from .hashing import MASK64, SplitMix64, fnv1a64

DEFAULT_DIM = 64
#: The largest vector dimension a provider accepts: a 512 KiB float64
#: vector per token.  A larger one would end in a failed allocation.
MAX_DIM = 65536
#: Defaults of the built-in evaluation suites, kept out of
#: ``gkg.evaluation`` so that only the ``gkg eval`` commands import it.
DEFAULT_SEED = 42
DEFAULT_TRIALS = 100

_SEPARATORS = re.compile(r"[\s_\-]+")
_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


def tokenize(label: str) -> List[str]:
    """Split on camelCase boundaries, underscores, hyphens and whitespace;
    lowercase; drop empties.  ``PlaceOfResidence`` -> place, of, residence."""
    tokens = []
    for chunk in _SEPARATORS.split(label):
        if not chunk:
            continue
        for piece in _CAMEL_BOUNDARY.split(chunk):
            if piece:
                tokens.append(piece.lower())
    return tokens


def normalized(vector: np.ndarray) -> np.ndarray:
    """L2-normalize; the zero vector stays zero.  The norm is the square
    root of ``vector.dot(vector)``, which is what ``np.linalg.norm``
    computes for a real vector, without its Python-level dispatch."""
    norm = math.sqrt(vector.dot(vector))
    if norm == 0.0:
        return vector
    return vector / norm


def _checked_dim(dim: int) -> int:
    if dim <= 0:
        raise InvalidParameterError(f"dimension must be positive, got {dim}")
    if dim > MAX_DIM:
        raise InvalidParameterError(f"dimension must be at most {MAX_DIM}, got {dim}")
    return dim


class HashEmbeddingProvider:
    """Pseudo-random unit vectors: FNV-1a(token) XOR seed feeds SplitMix64,
    whose outputs map to [-1, 1) before normalization."""

    def __init__(self, seed: int = 0, dim: int = DEFAULT_DIM):
        self.seed = seed
        self.dim = _checked_dim(dim)
        self._cache: dict = {}

    def token_vector(self, token: str) -> np.ndarray:
        if not token:
            raise EmptyTokenError("cannot embed an empty token")
        cached = self._cache.get(token)
        if cached is None:
            state = fnv1a64(token.encode("utf-8")) ^ (self.seed & MASK64)
            cached = self._cache[token] = normalized(SplitMix64(state).next_symmetric_block(self.dim))
        return cached


class FileEmbeddingProvider:
    """Exact-lookup vectors from a plain-text file.

    Format: an optional ``count dim`` header line, then one token followed
    by ``dim`` numbers per line, whitespace-separated; lines end where
    ``str.splitlines`` ends them.  Vectors are L2-normalized on load.
    Lookups that miss fall back to a hash provider seeded with
    ``fallback_seed``.
    """

    def __init__(self, path, dim: int = DEFAULT_DIM, fallback_seed: int = 0):
        self.dim = _checked_dim(dim)
        self._fallback = HashEmbeddingProvider(fallback_seed, dim)
        self._vectors: dict = {}
        from .formats import _read_text  # formats imports this module
        self._load(_read_text(path, VectorFileError).splitlines())

    def _load(self, lines: Iterable[str]) -> None:
        first_data_line = True
        for line_no, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split()
            if first_data_line and len(fields) == 2 and _all_ints(fields):
                declared = int(fields[1])
                if declared != self.dim:
                    raise VectorFileError(
                        line_no, f"file declares dimension {declared}, expected {self.dim}"
                    )
                first_data_line = False
                continue
            first_data_line = False
            token = fields[0]
            if len(fields) != self.dim + 1:
                raise VectorFileError(
                    line_no, f"expected {self.dim} components for {token!r}, got {len(fields) - 1}"
                )
            if token in self._vectors:
                raise VectorFileError(line_no, f"duplicate token {token!r}")
            try:
                components = np.array([float(x) for x in fields[1:]], dtype=np.float64)
            except ValueError:
                raise VectorFileError(line_no, f"non-numeric component for {token!r}") from None
            if not np.isfinite(components).all():
                raise VectorFileError(line_no, f"non-finite component for {token!r}")
            # A squared norm that overflows would zero the vector, one below
            # the smallest normal float would leave it unnormalized.
            with np.errstate(over="ignore"):
                square = float(np.dot(components, components))
            if components.any() and not sys.float_info.min <= square < math.inf:
                raise VectorFileError(line_no, f"components of {token!r} are too large or small to normalize")
            self._vectors[token] = normalized(components)

    def token_vector(self, token: str) -> np.ndarray:
        # No file token is empty, so an empty token reaches the hash
        # fallback, which refuses it.
        vector = self._vectors.get(token)
        if vector is None:
            return self._fallback.token_vector(token)
        return vector


def _all_ints(fields) -> bool:
    try:
        for item in fields:
            int(item)
    except ValueError:
        return False
    return True


def embed_phrase(provider, label: str) -> np.ndarray:
    """Normalized sum of the label's token vectors; the empty phrase maps
    to the zero vector."""
    tokens = tokenize(label)
    if not tokens:
        return np.zeros(provider.dim, dtype=np.float64)
    if len(tokens) == 1:
        return provider.token_vector(tokens[0])
    total = np.zeros(provider.dim, dtype=np.float64)
    for token in tokens:
        total = total + provider.token_vector(token)
    return normalized(total)


def embed_flat_triple(provider, triple) -> np.ndarray:
    """Normalized sum of the three phrase vectors of a ``FlatTriple``."""
    return normalized(
        embed_phrase(provider, triple.e1) + embed_phrase(provider, triple.r) + embed_phrase(provider, triple.e2)
    )


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity clamped to [-1, 1]; zero inputs and non-finite
    results (a NaN or infinite component) give 0.0.  Norms are taken as in
    :func:`normalized`."""
    norm_u = math.sqrt(u.dot(u))
    norm_v = math.sqrt(v.dot(v))
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    value = float(u.dot(v)) / (norm_u * norm_v)
    if not math.isfinite(value):
        return 0.0
    return max(-1.0, min(1.0, value))
