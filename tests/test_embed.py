import functools
import gc
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from tweetxfer import embed
from tweetxfer.embed import (
    EmbeddingTable,
    char_ngrams,
    compute_idf,
    fnv1a64,
    idf_weighted_vector,
    load_vectors,
)
from tweetxfer.errors import DataError
from tweetxfer.fixtures import word_vector_table, write_vectors_file
from tweetxfer.textprep import TokenizedTweet


def _fnv_reference(data: bytes) -> int:
    """Fold-based restatement of FNV-1a, independent of the loop in embed."""
    step = lambda h, b: ((h ^ b) * 0x100000001B3) % (1 << 64)
    return functools.reduce(step, data, 0xCBF29CE484222325)


class TestFnv:
    def test_published_vectors(self):
        # reference values from the FNV specification draft
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_matches_fold_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            data = rng.integers(0, 256, size=int(rng.integers(0, 40))).astype(np.uint8).tobytes()
            assert fnv1a64(data) == _fnv_reference(data)

    def test_stays_in_64_bits(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            data = rng.integers(0, 256, size=64).astype(np.uint8).tobytes()
            assert 0 <= fnv1a64(data) < (1 << 64)


def _ngram_reference(token: str, n_min: int, n_max: int) -> list[str]:
    """Enumerate by start position instead of window size."""
    word = f"<{token}>"
    limit = min(n_max, len(word) - 1)
    grams = []
    for i in range(len(word)):
        for n in range(n_min, limit + 1):
            if i + n <= len(word):
                grams.append(word[i : i + n])
    return grams if grams else [word]


class TestCharNgrams:
    def test_four_letter_word_has_nine_grams(self):
        grams = char_ngrams("abcd")
        assert len(grams) == 9
        assert set(grams) == {
            "<ab", "abc", "bcd", "cd>",
            "<abc", "abcd", "bcd>",
            "<abcd", "abcd>",
        }

    def test_whole_marked_word_never_included(self):
        rng = np.random.default_rng(23)
        letters = "abcdefghij"
        for _ in range(200):
            token = "".join(
                letters[int(rng.integers(0, 10))]
                for _ in range(int(rng.integers(1, 12)))
            )
            grams = char_ngrams(token)
            if grams != [f"<{token}>"]:
                assert f"<{token}>" not in grams

    def test_short_word_falls_back_to_marked_word(self):
        assert char_ngrams("x") == ["<x>"]
        assert char_ngrams("ab", n_min=4, n_max=6) == ["<ab>"]

    def test_matches_position_ordered_reference(self):
        rng = np.random.default_rng(24)
        letters = "abcxyz"
        for _ in range(300):
            token = "".join(
                letters[int(rng.integers(0, 6))]
                for _ in range(int(rng.integers(1, 10)))
            )
            n_min = int(rng.integers(2, 5))
            n_max = n_min + int(rng.integers(0, 4))
            got = char_ngrams(token, n_min, n_max)
            assert Counter(got) == Counter(_ngram_reference(token, n_min, n_max))

    def test_count_formula(self):
        for token in ("ab", "abc", "abcd", "abcdefgh", "x"):
            word = f"<{token}>"
            top = min(6, len(word) - 1)
            expected = sum(len(word) - n + 1 for n in range(3, top + 1))
            assert len(char_ngrams(token)) == max(expected, 1)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            char_ngrams("abc", n_min=0)
        with pytest.raises(ValueError):
            char_ngrams("abc", n_min=4, n_max=3)


class TestBucketVectors:
    def test_deterministic_and_order_independent(self):
        a = EmbeddingTable(dim=10, word_vectors={}, seed=5)
        b = EmbeddingTable(dim=10, word_vectors={}, seed=5)
        idx = [900, 3, 77, 3]
        rows_a = a._draw_buckets(idx)
        rows_b = b._draw_buckets(idx[::-1])[::-1]
        np.testing.assert_array_equal(rows_a, rows_b)
        np.testing.assert_array_equal(rows_a[1], rows_a[3])

    def test_bounds_scale_with_dim(self):
        for dim in (4, 50, 300):
            table = EmbeddingTable(dim=dim, word_vectors={}, seed=1)
            rows = table._draw_buckets(list(range(30)))
            assert rows.shape == (30, dim)
            assert np.all(np.abs(rows) <= 0.5 / dim)

    def test_seed_changes_vectors(self):
        a = EmbeddingTable(dim=8, word_vectors={}, seed=0)
        b = EmbeddingTable(dim=8, word_vectors={}, seed=1)
        assert not np.allclose(a._draw_buckets([0]), b._draw_buckets([0]))


class TestDrawBuckets:
    """The batched draw against ``default_rng([seed, i]).uniform``, the
    per-bucket recipe it replaces."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31, 2**32 + 5, 2**64 + 3, 2**100 + 1])
    @pytest.mark.parametrize("buckets", [1 << 18, 1 << 32])
    def test_equals_default_rng_uniform(self, seed, buckets):
        for dim in (1, 8, 300):
            table = EmbeddingTable(dim=dim, word_vectors={}, buckets=buckets, seed=seed)
            ids = [0, 1, buckets - 1]
            rows = table._draw_buckets(ids)
            assert rows.shape == (len(ids), dim)
            bound = 0.5 / dim
            for i, row in zip(ids, rows):
                ref = np.random.default_rng([seed, i]).uniform(-bound, bound, dim)
                np.testing.assert_array_equal(row, ref)
                assert row.tobytes() == ref.tobytes()

    def test_more_ids_than_one_block(self):
        table = EmbeddingTable(dim=3, word_vectors={}, seed=4)
        ids = list(range(5, 5 + embed._DRAW_BLOCK + 7))
        rows = table._draw_buckets(ids)
        assert rows.shape == (len(ids), 3)
        for j in (0, embed._DRAW_BLOCK - 1, embed._DRAW_BLOCK, len(ids) - 1):
            ref = np.random.default_rng([4, ids[j]]).uniform(-0.5 / 3, 0.5 / 3, 3)
            np.testing.assert_array_equal(rows[j], ref)


def _embed_reference(table: EmbeddingTable, token: str) -> np.ndarray:
    """The per-gram loop: one ``default_rng`` per n-gram, summed in order."""
    vec = table.word_vectors.get(token)
    if vec is not None:
        return vec
    bound = 0.5 / table.dim
    grams = char_ngrams(token, table.n_min, table.n_max)
    out = np.zeros(table.dim)
    for gram in grams:
        index = fnv1a64(gram.encode("utf-8")) % table.buckets
        out += np.random.default_rng([table.seed, index]).uniform(-bound, bound, table.dim)
    out /= len(grams)
    return out


class TestEmbedTokensBatched:
    _TOKENS = ["der", "verspätung", "", "zug", "verspätung", "x", "", "<user>", "🚆", "der"]

    def _table(self, **kw):
        vectors = word_vector_table(["der", "zug"], dim=10, seed=4)
        return EmbeddingTable(dim=10, word_vectors=vectors, seed=6, **kw)

    @pytest.mark.parametrize("buckets", [1 << 18, 97, 1])
    def test_equals_per_gram_reference(self, buckets):
        table = self._table(buckets=buckets)
        got = table.embed_tokens(self._TOKENS)
        for row, tok in zip(got, self._TOKENS):
            np.testing.assert_array_equal(row, _embed_reference(table, tok))

    def test_batched_fill_equals_token_by_token_fill(self):
        batched, single = self._table(), self._table()
        batched.embed_tokens(self._TOKENS)
        for tok in self._TOKENS:
            single.embed_token(tok)
        got, want = batched._oov_cache, single._oov_cache
        assert set(got) == set(want)
        for key in want:
            assert got[key].tobytes() == want[key].tobytes()
            assert not got[key].flags.writeable

    def test_second_call_draws_nothing(self, monkeypatch):
        table = self._table()
        first = table.embed_tokens(self._TOKENS)
        drawn = []
        monkeypatch.setattr(table, "_draw_buckets", drawn.append)
        np.testing.assert_array_equal(table.embed_tokens(self._TOKENS), first)
        assert not any(drawn)


class TestEmbedToken:
    def test_known_word_uses_table_row(self):
        vec = np.arange(4.0)
        table = EmbeddingTable(dim=4, word_vectors={"haus": vec})
        np.testing.assert_array_equal(table.embed_token("haus"), vec)

    def test_oov_is_mean_of_hashed_buckets(self):
        """Recompute the fallback from the public pieces."""
        table = EmbeddingTable(dim=16, word_vectors={}, seed=9)
        for token in ("zug", "lokomotive", "x", "umläute"):
            ids = [fnv1a64(g.encode("utf-8")) % table.buckets for g in char_ngrams(token)]
            expected = np.mean(table._draw_buckets(ids), axis=0)
            np.testing.assert_allclose(table.embed_token(token), expected, rtol=0, atol=1e-15)

    def test_oov_deterministic_across_tables(self):
        a = EmbeddingTable(dim=12, word_vectors={}, seed=2)
        b = EmbeddingTable(dim=12, word_vectors={}, seed=2)
        np.testing.assert_array_equal(a.embed_token("selten"), b.embed_token("selten"))

    def test_embed_tokens_stacks(self):
        vectors = word_vector_table(["rot", "blau", "gelb"], dim=8, seed=0)
        table = EmbeddingTable(dim=8, word_vectors=vectors)
        words = ["rot", "blau", "gelb"]
        mat = table.embed_tokens(words)
        assert mat.shape == (3, 8)
        for i, w in enumerate(words):
            np.testing.assert_array_equal(mat[i], table.embed_token(w))

    def test_embed_tokens_empty(self):
        table = EmbeddingTable(dim=8, word_vectors={})
        assert table.embed_tokens([]).shape == (0, 8)

    def test_oov_vector_is_read_only(self):
        table = EmbeddingTable(dim=8, word_vectors={}, seed=0)
        vec = table.embed_token("unbekannt")
        with pytest.raises(ValueError):
            vec[0] = 1.0

    def test_repeated_tokens_match_fresh_per_token_lookups(self, monkeypatch):
        """A table reused across calls and repeats returns, bit for bit,
        what a fresh table computes token by token; a second pass over
        the same tokens draws no new buckets."""
        vectors = word_vector_table(["der", "zug"], dim=10, seed=4)
        tokens = ["der", "verspätung", "zug", "verspätung", "x", "der", "x", "<user>"] * 2
        table = EmbeddingTable(dim=10, word_vectors=vectors, seed=6)
        first = table.embed_tokens(tokens)
        drawn = []
        monkeypatch.setattr(table, "_draw_buckets", drawn.append)
        second = table.embed_tokens(tokens)
        assert not any(drawn)
        assert set(table._oov_cache) == {"verspätung", "x", "<user>"}
        for tok, a, b in zip(tokens, first, second):
            fresh = EmbeddingTable(dim=10, word_vectors=vectors, seed=6).embed_token(tok)
            assert a.tobytes() == b.tobytes() == fresh.tobytes()


def _distinct_words(n: int, seed: int) -> list[str]:
    """``n`` distinct random words of 8 to 11 letters."""
    rng = np.random.default_rng(seed)
    letters = "abcdefghijklmnopqrstuvwxyzäöü"
    words: dict[str, None] = {}
    while len(words) < n:
        size = int(rng.integers(8, 12))
        words["".join(letters[int(i)] for i in rng.integers(0, len(letters), size))] = None
    return list(words)


class TestWhatTheTableKeeps:
    def test_retains_only_one_vector_per_oov_word(self):
        """Bucket rows die with the call that draws them: after encoding
        300 distinct unknown words at dim 300 the table holds their 300
        vectors and little more, not the thousands of buckets behind them."""
        words, dim = _distinct_words(300, seed=31), 300
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = EmbeddingTable(dim=dim, word_vectors={}, seed=8)
            out = table.embed_tokens(words)
            assert out.shape == (300, dim)
            del out
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(table._oov_cache) == 300
        assert retained <= 1.25 * 300 * dim * 8 + 64 * 1024

    def test_later_words_equal_a_fresh_tables(self):
        """Words met after others that share their n-grams get, byte for
        byte, the vectors a fresh table gives them."""
        first = ["verspätung", "verspätet", "zugausfall", "bahnsteig"]
        later = ["verspätungen", "zugausfälle", "bahnsteige", "steig", "spät"]
        shared = {g for w in first for g in char_ngrams(w)}
        assert all(shared & set(char_ngrams(w)) for w in later)
        for buckets in (1 << 18, 97):
            reused = EmbeddingTable(dim=16, word_vectors={}, buckets=buckets, seed=4)
            reused.embed_tokens(first)
            got = reused.embed_tokens(later)
            fresh = EmbeddingTable(dim=16, word_vectors={}, buckets=buckets, seed=4)
            assert got.tobytes() == fresh.embed_tokens(later).tobytes()


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"dim": 0}, "dim"),
        ({"buckets": 0}, "buckets"),
        ({"buckets": 2**32 + 1}, "buckets"),
        ({"n_min": 0}, "n-gram range"),
        ({"n_min": 5, "n_max": 3}, "n-gram range"),
        ({"seed": -1}, "seed"),
    ],
    ids=["dim", "buckets", "buckets_above_2**32", "n_min", "n_max_below_n_min", "seed"],
)
def test_bad_table_settings_rejected_at_construction(settings, message):
    with pytest.raises(ValueError, match=message):
        EmbeddingTable(**{"dim": 4, "word_vectors": {}, **settings})


class TestLoadVectors:
    def test_round_trip_with_fixture(self, tmp_path):
        vectors = word_vector_table(["eins", "zwei", "drei"], dim=6, seed=3)
        path = tmp_path / "v.txt"
        write_vectors_file(str(path), vectors)
        back = load_vectors(str(path))
        assert back.dim == 6
        assert set(back.word_vectors) == set(vectors)
        for w, v in vectors.items():
            np.testing.assert_allclose(back.word_vectors[w], v, atol=1e-6)

    def test_header_is_optional(self, tmp_path):
        with_header = tmp_path / "a.txt"
        with_header.write_text("2 3\nfoo 1 2 3\nbar 4 5 6\n", encoding="utf-8")
        without = tmp_path / "b.txt"
        without.write_text("foo 1 2 3\nbar 4 5 6\n", encoding="utf-8")
        ta, tb = load_vectors(str(with_header)), load_vectors(str(without))
        assert set(ta.word_vectors) == set(tb.word_vectors) == {"foo", "bar"}
        np.testing.assert_array_equal(ta.word_vectors["foo"], [1.0, 2.0, 3.0])

    def test_dim_mismatch_names_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("foo 1 2 3\nbar 4 5\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":2:"):
            load_vectors(str(path))

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("foo 1 zwei 3\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_vectors(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError):
            load_vectors(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_rejected_with_line(self, tmp_path, value):
        path = tmp_path / "v.txt"
        path.write_text(f"foo 1 2 3\nhallo {value} 1 2\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"v\.txt:2: non-finite"):
            load_vectors(str(path))


class TestIdf:
    def test_exact_log_ratio(self):
        docs = [
            TokenizedTweet(("a", "b", "a")),
            TokenizedTweet(("b", "c")),
            TokenizedTweet(("b",)),
        ]
        idf = compute_idf(docs)
        assert idf.idf("b") == pytest.approx(math.log(3 / 3))
        assert idf.idf("a") == pytest.approx(math.log(3 / 1))
        assert idf.idf("c") == pytest.approx(math.log(3 / 1))
        # unseen token counts as df 1
        assert idf.idf("zzz") == pytest.approx(math.log(3))

    def test_matches_counter_oracle(self):
        rng = np.random.default_rng(25)
        vocab = [f"w{i}" for i in range(20)]
        for _ in range(50):
            docs = [
                TokenizedTweet(
                    tuple(
                        vocab[int(rng.integers(0, 20))]
                        for _ in range(int(rng.integers(1, 12)))
                    )
                )
                for _ in range(int(rng.integers(2, 30)))
            ]
            df = Counter()
            for d in docs:
                df.update(set(d.tokens))
            idf = compute_idf(docs)
            for w in vocab:
                expected = math.log(len(docs) / df.get(w, 1))
                assert idf.idf(w) == pytest.approx(expected, rel=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            compute_idf([])

    def test_weighted_vector_hand_example(self):
        table = EmbeddingTable(
            dim=2,
            word_vectors={"a": np.array([1.0, 0.0]), "b": np.array([0.0, 2.0])},
        )
        docs = [TokenizedTweet(("a",)), TokenizedTweet(("b",)), TokenizedTweet(("a", "b"))]
        idf = compute_idf(docs)
        wa, wb = math.log(3 / 2), math.log(3 / 2)
        tweet = TokenizedTweet(("a", "b"))
        expected = (wa * np.array([1.0, 0.0]) + wb * np.array([0.0, 2.0])) / (wa + wb)
        np.testing.assert_allclose(idf_weighted_vector(table, idf, tweet), expected)

    def test_all_zero_idf_gives_zero_vector(self):
        table = EmbeddingTable(dim=3, word_vectors={"a": np.ones(3)})
        docs = [TokenizedTweet(("a",)), TokenizedTweet(("a",))]
        idf = compute_idf(docs)
        out = idf_weighted_vector(table, idf, TokenizedTweet(("a", "a")))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_empty_tweet_gives_zero_vector(self):
        table = EmbeddingTable(dim=3, word_vectors={})
        idf = compute_idf([TokenizedTweet(("a",))])
        np.testing.assert_array_equal(
            idf_weighted_vector(table, idf, TokenizedTweet(())), np.zeros(3)
        )
