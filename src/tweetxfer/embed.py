"""Word vectors with a subword fallback for out-of-vocabulary tokens.

Known words come from a text vectors file.  Unknown words are embedded
fastText-style: the word is wrapped in angle brackets, its character
n-grams are hashed into a fixed bucket table, and the bucket vectors are
averaged.  Bucket vectors are generated lazily from (seed, bucket index)
so the table costs nothing until a bucket is touched and is identical no
matter which bucket is asked for first.  Each unknown word's vector is
computed once per table and cached, read-only, for its later occurrences.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, open_text
from .textprep import TokenizedTweet

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def char_ngrams(token: str, n_min: int = 3, n_max: int = 6) -> list[str]:
    """Character n-grams of ``<token>`` used for subword hashing.

    Proper substrings only: window sizes run from ``n_min`` to at most
    one below the marked word's length, so the full ``<token>`` string is
    never an n-gram of itself.  When the marked word is too short to
    produce any window, the whole marked word is the single fallback
    n-gram.
    """
    if n_min < 1 or n_max < n_min:
        raise ValueError(f"bad n-gram range ({n_min}, {n_max})")
    word = f"<{token}>"
    top = min(n_max, len(word) - 1)
    grams = [
        word[i : i + n]
        for n in range(n_min, top + 1)
        for i in range(len(word) - n + 1)
    ]
    return grams if grams else [word]


@dataclass
class EmbeddingTable:
    """Pre-trained word vectors plus the hashed n-gram bucket table."""

    dim: int
    word_vectors: dict[str, np.ndarray]
    buckets: int = 1 << 18
    n_min: int = 3
    n_max: int = 6
    seed: int = 0
    _bucket_cache: dict[int, np.ndarray] = field(default_factory=dict, repr=False)
    _oov_cache: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.buckets < 1:
            raise ValueError(f"buckets must be positive, got {self.buckets}")
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError(f"bad n-gram range ({self.n_min}, {self.n_max})")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def bucket_vector(self, index: int) -> np.ndarray:
        vec = self._bucket_cache.get(index)
        if vec is None:
            rng = np.random.default_rng([self.seed, index])
            bound = 0.5 / self.dim
            vec = rng.uniform(-bound, bound, self.dim)
            vec.flags.writeable = False
            self._bucket_cache[index] = vec
        return vec

    def embed_token(self, token: str) -> np.ndarray:
        """Vector for ``token``: table lookup, else mean of n-gram buckets.

        The mean is computed on a token's first lookup and cached, so at
        most one read-only vector is held per distinct unknown token.
        """
        vec = self.word_vectors.get(token)
        if vec is not None:
            return vec
        vec = self._oov_cache.get(token)
        if vec is not None:
            return vec
        grams = char_ngrams(token, self.n_min, self.n_max)
        vec = np.zeros(self.dim)
        for gram in grams:
            vec += self.bucket_vector(fnv1a64(gram.encode("utf-8")) % self.buckets)
        vec /= len(grams)
        vec.flags.writeable = False
        self._oov_cache[token] = vec
        return vec

    def embed_tokens(self, tokens: tuple[str, ...] | list[str]) -> np.ndarray:
        """Stack of per-token vectors, shape (len(tokens), dim)."""
        if not tokens:
            return np.zeros((0, self.dim))
        return np.stack([self.embed_token(tok) for tok in tokens])


def load_vectors(
    path: str,
    buckets: int = 1 << 18,
    n_min: int = 3,
    n_max: int = 6,
    seed: int = 0,
) -> EmbeddingTable:
    """Parse a text vectors file (word then values, space-separated).

    An optional first line holding exactly two integers (count,
    dimension) is treated as a header.  The dimension is fixed by the
    first vector line; any later line disagreeing is an error.
    """
    word_vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            parts = [p for p in parts if p]
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2 and _both_ints(parts):
                continue
            word, values = parts[0], parts[1:]
            if dim is None:
                if not values:
                    raise DataError(f"{path}:{lineno}: no vector values")
                dim = len(values)
            if len(values) != dim:
                raise DataError(
                    f"{path}:{lineno}: expected {dim} values, got {len(values)}"
                )
            try:
                vec = np.array([float(v) for v in values])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric vector value") from None
            if not np.isfinite(vec).all():
                raise DataError(f"{path}:{lineno}: non-finite vector value")
            vec.flags.writeable = False
            word_vectors[word] = vec
    if dim is None:
        raise DataError(f"{path}: no vectors found")
    return EmbeddingTable(
        dim=dim,
        word_vectors=word_vectors,
        buckets=buckets,
        n_min=n_min,
        n_max=n_max,
        seed=seed,
    )


def _both_ints(parts: list[str]) -> bool:
    try:
        int(parts[0]), int(parts[1])
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class IdfTable:
    """Document frequencies over a corpus, queried as idf weights."""

    doc_count: int
    df: dict[str, int]

    def idf(self, token: str) -> float:
        """ln(N / df); unseen tokens count as appearing in one document."""
        return math.log(self.doc_count / self.df.get(token, 1))


def compute_idf(docs: list[TokenizedTweet]) -> IdfTable:
    """Document frequency per distinct token; needs at least one doc."""
    if not docs:
        raise ValueError("idf needs a non-empty corpus")
    df: Counter[str] = Counter()
    for doc in docs:
        df.update(set(doc.tokens))
    return IdfTable(doc_count=len(docs), df=dict(df))


def idf_weighted_vector(
    table: EmbeddingTable, idf: IdfTable, tweet: TokenizedTweet
) -> np.ndarray:
    """Idf-weighted mean of the tweet's token vectors.

    A tweet whose tokens all have zero idf (or no tokens at all) maps to
    the zero vector.
    """
    total = np.zeros(table.dim)
    weight_sum = 0.0
    for tok in tweet.tokens:
        w = idf.idf(tok)
        if w != 0.0:
            total += w * table.embed_token(tok)
            weight_sum += w
    if weight_sum <= 0.0:
        return np.zeros(table.dim)
    return total / weight_sum
