"""Word vectors with a subword fallback for out-of-vocabulary tokens.

Known words come from a text vectors file, parsed in one streamed pass
by numpy's C reader into one read-only matrix whose rows the table maps
words to.  Unknown words are embedded fastText-style: the word is
wrapped in angle brackets, its character n-grams are hashed into a
fixed bucket table, and the bucket vectors are averaged.  A table keeps
its loaded vectors plus one read-only vector per distinct unknown word,
computed on the word's first lookup, and nothing else.

Bucket ``i`` holds ``default_rng([seed, i]).uniform(-b, b, dim)``,
``b = 0.5 / dim``, bit for bit, so a bucket depends only on (seed, i)
and is never stored: bucket rows live only inside the call that draws
them.  Building a generator costs several times more than drawing from
it, so ``embed_tokens`` hashes each distinct n-gram of its new unknown
words once and draws all their buckets in one batch: numpy's
SeedSequence arithmetic runs over arrays of bucket ids, and one reused
PCG64 is set to each bucket's start state.  The means are then summed
for all those words at once, one numpy add per gram position, and each
is bit for bit the mean a ``vec += row`` loop over its grams gives.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterable, Iterator
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


def _fnv1a64_many(data: list[bytes]) -> np.ndarray:
    """``fnv1a64`` of each of ``data``, as a uint64 array.

    The strings are sorted longest first, so that step j folds byte j
    into the hash of every string that has one, as one numpy pass;
    uint64 arithmetic wraps as the masked product does.
    """
    lengths = np.array([len(d) for d in data], dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    first = (np.cumsum(lengths) - lengths)[order]  # each string's first byte
    joined = np.frombuffer(b"".join(data), dtype=np.uint8)
    h = np.full(len(data), _FNV_OFFSET, dtype=np.uint64)
    for j, k in enumerate(_live(lengths[order])):
        h[:k] ^= joined[first[:k] + j]
        h[:k] *= np.uint64(_FNV_PRIME)
    out = np.empty_like(h)
    out[order] = h
    return out


def _live(lengths: np.ndarray) -> list[int]:
    """For ``lengths`` sorted longest first: per position j below the
    longest, how many of them, a prefix, are longer than j."""
    top = int(lengths[0]) if len(lengths) else 0
    return np.searchsorted(-lengths, -np.arange(top)).tolist()


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


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding constants.
_SS_POOL = 4
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_L = 0xCA01F9DD
_SS_MIX_R = 0x4973F715
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DRAW_BLOCK = 4096  # bucket ids seeded per numpy pass
_SUM_BLOCK = 256  # new words summed per numpy pass, which bounds the gathered rows


def _seed_words(seed: int, ids: list[int]) -> list[np.ndarray]:
    """``SeedSequence([seed, i]).generate_state(4, np.uint64)`` for every
    ``i`` in ``ids`` (each below 2**32), as four uint64 arrays: word k of
    each id's state is element k's array.

    The entropy is the seed's 32-bit words, low first, then ``i``'s one
    word.  The uint32 arrays wrap as numpy's C code does; the hash
    constants depend on no data, so they stay Python ints.
    """
    u32 = np.uint32
    n = len(ids)
    entropy = [
        np.full(n, (seed >> shift) & _MASK32, dtype=u32)
        for shift in range(0, max(seed.bit_length(), 1), 32)
    ]
    entropy.append(np.array(ids, dtype=u32))
    hash_const = _SS_INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = (hash_const * _SS_MULT_A) & _MASK32
        value *= u32(hash_const)
        value ^= value >> u32(16)
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = x * u32(_SS_MIX_L) - y * u32(_SS_MIX_R)
        out ^= out >> u32(16)
        return out

    pool = [
        hashmix(entropy[i] if i < len(entropy) else np.zeros(n, dtype=u32))
        for i in range(_SS_POOL)
    ]
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for extra in entropy[_SS_POOL:]:
        for dst in range(_SS_POOL):
            pool[dst] = mix(pool[dst], hashmix(extra))
    hash_const = _SS_INIT_B
    state = []
    for k in range(8):
        value = pool[k % _SS_POOL] ^ u32(hash_const)
        hash_const = (hash_const * _SS_MULT_B) & _MASK32
        value *= u32(hash_const)
        value ^= value >> u32(16)
        state.append(value.astype(np.uint64))
    return [state[k] | (state[k + 1] << np.uint64(32)) for k in range(0, 8, 2)]


@dataclass
class EmbeddingTable:
    """Pre-trained word vectors plus the hashed n-gram fallback."""

    dim: int
    word_vectors: dict[str, np.ndarray]
    buckets: int = 1 << 18
    n_min: int = 3
    n_max: int = 6
    seed: int = 0
    _oov_cache: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.buckets < 1:
            raise ValueError(f"buckets must be positive, got {self.buckets}")
        if self.buckets > 1 << 32:
            raise ValueError(f"buckets must be at most 2**32, got {self.buckets}")
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError(f"bad n-gram range ({self.n_min}, {self.n_max})")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def embed_token(self, token: str) -> np.ndarray:
        """Vector for ``token``: table lookup, else mean of n-gram buckets.

        The mean is computed on a token's first lookup and cached, so at
        most one read-only vector is held per distinct unknown token.
        """
        vec = self.word_vectors.get(token)
        if vec is not None:
            return vec
        vec = self._oov_cache.get(token)
        if vec is None:
            self._embed_new([token])
            vec = self._oov_cache[token]
        return vec

    def embed_tokens(self, tokens: tuple[str, ...] | list[str]) -> np.ndarray:
        """Stack of per-token vectors, shape (len(tokens), dim).

        The buckets of every new unknown token are drawn in one batch.
        """
        if not tokens:
            return np.zeros((0, self.dim))
        self._embed_new([
            tok for tok in dict.fromkeys(tokens)
            if tok not in self.word_vectors and tok not in self._oov_cache
        ])
        return np.stack([self.embed_token(tok) for tok in tokens])

    def _embed_new(self, tokens: list[str]) -> None:
        """Cache the n-gram mean of each of ``tokens``: distinct, unknown
        and not cached yet.

        Each mean is summed in gram order, as a loop of ``vec += row`` per
        word would, but for many words at once: the words are sorted by
        gram count, longest first, and step j adds gram j of every word
        that has one.
        """
        ids, counts, gram_rows = self._gram_rows(tokens)
        rows = self._draw_buckets(ids)
        first = np.cumsum(counts) - counts  # each word's first gram in ``gram_rows``
        order = np.argsort(-counts, kind="stable")
        buf = np.empty((min(len(order), _SUM_BLOCK), self.dim))
        for start in range(0, len(order), _SUM_BLOCK):
            block = order[start : start + _SUM_BLOCK]
            sums = np.zeros((len(block), self.dim))
            for j, k in enumerate(_live(counts[block])):
                np.take(rows, gram_rows[first[block[:k]] + j], axis=0, out=buf[:k])
                sums[:k] += buf[:k]
            sums /= counts[block, None]
            sums.flags.writeable = False
            for i, vec in zip(block.tolist(), sums):
                self._oov_cache[tokens[i]] = vec

    def _gram_rows(self, tokens: list[str]) -> tuple[list[int], np.ndarray, np.ndarray]:
        """The distinct bucket ids of the n-grams of ``tokens``; each
        token's n-gram count; and, token after token in gram order, each
        n-gram's index into those ids.

        Each distinct n-gram is hashed once, all of them in one batch.
        """
        index: dict[str, int] = {}  # distinct n-gram -> its position
        counts, positions = [], []
        for tok in tokens:
            grams = char_ngrams(tok, self.n_min, self.n_max)
            counts.append(len(grams))
            positions += [index.setdefault(g, len(index)) for g in grams]
        hashes = _fnv1a64_many([g.encode("utf-8") for g in index])
        ids, slot = np.unique(hashes % np.uint64(self.buckets), return_inverse=True)
        return ids.tolist(), np.array(counts), slot[positions]

    def _draw_buckets(self, ids: list[int]) -> np.ndarray:
        """Rows ``default_rng([seed, i]).uniform(-b, b, dim)`` for each ``i``
        of ``ids``, b = 0.5 / dim, bit for bit, as a new (len(ids), dim)
        array.

        ``default_rng`` costs far more to build than to draw from, so the
        seed sequences are run for a whole block of ids at once, and one
        reused PCG64 is set to each bucket's starting state.
        """
        bound = 0.5 / self.dim
        bitgen = np.random.PCG64()  # its state is set before every draw
        gen = np.random.Generator(bitgen)
        pcg = {"state": 0, "inc": 0}
        state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
        out = np.empty((len(ids), self.dim))
        for start in range(0, len(ids), _DRAW_BLOCK):
            block_ids = ids[start : start + _DRAW_BLOCK]
            words = _seed_words(self.seed, block_ids)
            rows = out[start : start + len(block_ids)]
            for row, s_hi, s_lo, q_hi, q_lo in zip(rows, *(w.tolist() for w in words)):
                # pcg64_set_seed: state 0, then step, add initstate, step.
                inc = ((((q_hi << 64) | q_lo) << 1) | 1) & _MASK128
                pcg["state"] = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
                pcg["inc"] = inc
                bitgen.state = state
                gen.random(out=row)
        # uniform(low, high) is low + (high - low) * u.
        out *= 2 * bound
        out -= bound
        return out


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

    The file is streamed once, never read into one string: each line's
    word is split off here and its values go to numpy's C parser, which
    fills one read-only (lines, dim) float64 matrix; ``word_vectors``
    maps each word to its row, and a repeated word to its last row.
    Values are read as Python's ``float`` reads them, bit for bit, except
    that digit-group underscores (``1_0``) and non-ASCII digits are
    non-numeric.  A fault is named, ``<path>:<line>``, by a second pass
    that checks the lines in file order, so the first faulty line is
    the one reported.
    """
    words: list[str] = []
    lines: list[int] = []

    def values(fh):
        for lineno, word, text in _vector_lines(fh):
            if not text:
                raise ValueError("a word without values")
            words.append(word)
            lines.append(lineno)
            yield text

    with open_text(path) as fh:
        parts = values(fh)
        try:
            # Peeked, since numpy warns on input that holds no line.
            first = next(parts, None)
            matrix = None if first is None else _parse_values(itertools.chain([first], parts))
        except ValueError:  # a malformed line, or bytes that are not UTF-8
            _raise_first_fault(path)
            raise
    if matrix is None:
        raise DataError(f"{path}: no vectors found")
    finite = np.isfinite(matrix.min(axis=1)) & np.isfinite(matrix.max(axis=1))
    if not finite.all():
        raise DataError(f"{path}:{lines[int(finite.argmin())]}: non-finite vector value")
    matrix.flags.writeable = False
    return EmbeddingTable(
        dim=matrix.shape[1],
        word_vectors=dict(zip(words, matrix)),
        buckets=buckets,
        n_min=n_min,
        n_max=n_max,
        seed=seed,
    )


def _vector_lines(fh: Iterable[str]) -> Iterator[tuple[int, str, str]]:
    """(line number, word, values) per vector line, its values joined by
    single spaces; blank lines and a line-1 header are skipped."""
    for lineno, line in enumerate(fh, start=1):
        text = line.strip(" \n")
        if "  " in text:
            text = " ".join(p for p in text.split(" ") if p)
        if not text:
            continue
        word, _, values = text.partition(" ")
        if lineno == 1 and values and " " not in values and _both_ints([word, values]):
            continue
        yield lineno, word, values


def _parse_values(texts: Iterable[str]) -> np.ndarray:
    """One (n, dim) float64 matrix from n strings of single-spaced values,
    parsed by numpy's C reader; ValueError if a count differs or a value
    is not a number.

    numpy strips the separator characters \\x1c-\\x1f from a value's
    ends as whitespace, where Python's ``float`` rejects them, so a string
    holding one is refused here.
    """

    def strict(text: str) -> str:
        if "\x1c" in text or "\x1d" in text or "\x1e" in text or "\x1f" in text:
            raise ValueError("an information separator in a value")
        return text

    return np.loadtxt(
        map(strict, texts), dtype=np.float64, delimiter=" ", comments=None, ndmin=2
    )


def _raise_first_fault(path: str) -> None:
    """Raise a DataError naming the first faulty line of ``path``, in file
    order; return if no line is faulty."""
    dim = None
    with open_text(path) as fh:
        for lineno, _, values in _vector_lines(fh):
            count = values.count(" ") + 1 if values else 0
            if dim is None:
                if not count:
                    raise DataError(f"{path}:{lineno}: no vector values")
                dim = count
            if count != dim:
                raise DataError(f"{path}:{lineno}: expected {dim} values, got {count}")
            try:
                vec = _parse_values([values])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric vector value") from None
            if not np.isfinite(vec).all():
                raise DataError(f"{path}:{lineno}: non-finite vector value")


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
