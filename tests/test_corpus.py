import json
from collections import Counter

import numpy as np
import pytest

from tweetxfer import corpus
from tweetxfer.corpus import (
    COARSE_LABELS,
    FINE_LABELS,
    LabeledTweet,
    deduplicate,
    escape_text,
    extract_mention_lists,
    extract_mentions,
    load_labeled,
    load_raw,
    load_token_lines,
    save_labeled,
    save_raw,
    save_token_lines,
    split_tail,
    unescape_text,
)
from tweetxfer.errors import DataError

_NASTY = [
    "tab\there", "line\nbreak", "back\\slash", "cr\rhere", "\t\n\\\r", "plain",
    "trailing\\", "\\\\n",
]


def _random_nasty(rng: np.random.Generator) -> str:
    n = int(rng.integers(1, 6))
    picks = [_NASTY[int(rng.integers(0, len(_NASTY)))] for _ in range(n)]
    return " ".join(picks)


class TestEscaping:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(400):
            text = _random_nasty(rng)
            assert unescape_text(escape_text(text)) == text

    def test_unescape_keeps_backslashes_that_escape_nothing(self):
        assert unescape_text("end\\") == "end\\"
        assert unescape_text("\\x") == "\\x"
        assert unescape_text("\\\\n") == "\\n"
        assert unescape_text("\\\\\\n") == "\\\n"

    def test_escape_matches_replace_chain(self):
        """The translate table escapes exactly as the chained replaces did,
        backslashes first so no escape is escaped twice."""
        rng = np.random.default_rng(5)
        for _ in range(400):
            text = _random_nasty(rng) + "\x1c\u2028\\t"
            chained = (
                text.replace("\\", "\\\\")
                .replace("\t", "\\t")
                .replace("\n", "\\n")
                .replace("\r", "\\r")
            )
            assert escape_text(text) == chained

    def test_escaped_form_is_single_line(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            esc = escape_text(_random_nasty(rng))
            assert "\n" not in esc and "\t" not in esc and "\r" not in esc


class TestLabeledTweet:
    def test_validates_labels(self):
        with pytest.raises(ValueError):
            LabeledTweet("1", "x", "bogus", "other")
        with pytest.raises(ValueError):
            LabeledTweet("1", "x", "offense", "bogus")

    def test_coarse_fine_consistency(self):
        # fine "other" pairs only with coarse "other" and vice versa
        with pytest.raises(ValueError):
            LabeledTweet("1", "x", "offense", "other")
        with pytest.raises(ValueError):
            LabeledTweet("1", "x", "other", "insult")
        LabeledTweet("1", "x", "other", "other")
        LabeledTweet("1", "x", "offense", "abuse")

    def test_rejects_empty_text(self):
        with pytest.raises(ValueError):
            LabeledTweet("1", "", "other", "other")

    def test_label_spaces(self):
        assert COARSE_LABELS == ("offense", "other")
        assert FINE_LABELS == ("insult", "profanity", "abuse", "other")


class TestLabeledIo:
    def _sample(self, rng, n=40):
        out = []
        for i in range(n):
            if rng.integers(0, 2):
                coarse, fine = "other", "other"
            else:
                coarse = "offense"
                fine = FINE_LABELS[int(rng.integers(0, 3))]
            out.append(LabeledTweet(str(i + 1), _random_nasty(rng), coarse, fine))
        return out

    def test_round_trip_preserves_text_exactly(self, tmp_path):
        rng = np.random.default_rng(5)
        tweets = self._sample(rng)
        path = tmp_path / "t.tsv"
        save_labeled(tweets, str(path))
        back = load_labeled(str(path))
        assert [t.text for t in back] == [t.text for t in tweets]
        assert [(t.coarse, t.fine) for t in back] == [(t.coarse, t.fine) for t in tweets]

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(6)
        tweets = self._sample(rng)
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        save_labeled(tweets, str(a))
        save_labeled(load_labeled(str(a)), str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_round_trip_keeps_non_newline_line_breaks(self, char, tmp_path):
        """Only newline ends a record; other str.splitlines breaks are text."""
        tweets = [
            LabeledTweet("1", f"vor{char}nach", "offense", "insult"),
            LabeledTweet("2", char, "other", "other"),
        ]
        path = tmp_path / "t.tsv"
        save_labeled(tweets, str(path))
        assert load_labeled(str(path)) == tweets

    def test_ids_are_line_numbers(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("hallo\tother\tother\nmist\toffense\tabuse\n", encoding="utf-8")
        tweets = load_labeled(str(path))
        assert [t.id for t in tweets] == ["1", "2"]

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("ok\tother\tother\nbad line\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":2:"):
            load_labeled(str(path))

    def test_bad_label_error_names_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("x\tother\tother\ny\tnope\tother\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":2:"):
            load_labeled(str(path))

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises((DataError, OSError)):
            load_labeled(str(tmp_path / "absent.tsv"))


class TestRawIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.jsonl"
        lines = [
            {"id": "a", "text": "Hallo @Merkel \U0001F600"},
            {"id": "b", "text": "nur text"},
        ]
        path.write_text("\n".join(json.dumps(x) for x in lines) + "\n", encoding="utf-8")
        tweets = load_raw(str(path))
        assert [t.id for t in tweets] == ["a", "b"]
        assert tweets[0].mentions == ("Merkel",)
        assert tweets[0].emojis == ("\U0001F600",)
        assert tweets[1].mentions == ()

        out = tmp_path / "o.jsonl"
        save_raw(tweets, str(out))
        again = load_raw(str(out))
        assert again == tweets

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n', encoding="utf-8")
        with pytest.raises(DataError, match="duplicate"):
            load_raw(str(path))

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{"id": "b"}\n', encoding="utf-8")
        with pytest.raises(DataError, match=r":2:"):
            load_raw(str(path))

    @pytest.mark.parametrize("tid", ["null", "[1]", "5", "true"])
    def test_id_must_be_a_string(self, tmp_path, tid):
        path = tmp_path / "r.jsonl"
        path.write_text(f'{{"id": "a", "text": "x"}}\n{{"id": {tid}, "text": "y"}}\n')
        with pytest.raises(DataError, match=r"r\.jsonl:2: key 'id'"):
            load_raw(str(path))

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"id": "a", "text": "x"}\nnot json\n', encoding="utf-8")
        with pytest.raises(DataError, match=r":2:"):
            load_raw(str(path))


class TestMentions:
    def test_extract_strips_at_and_keeps_case(self):
        assert extract_mentions("RT @Merkel und @SPD_de!") == ["Merkel", "SPD_de"]

    def test_mention_lists_thresholds(self):
        from tweetxfer.corpus import RawTweet

        tweets = []
        # u1,u2 appear 5x together; u3 appears twice, once alone
        for i in range(5):
            tweets.append(RawTweet(str(i), "x", ("u1", "u2"), ()))
        tweets.append(RawTweet("9", "x", ("u3",), ()))
        tweets.append(RawTweet("10", "x", ("u3", "u1"), ()))
        lists = extract_mention_lists(tweets, min_mentions=2, min_user_freq=3)
        assert lists == [["u1", "u2"]] * 5

    def test_invariants_against_counter_oracle(self):
        from tweetxfer.corpus import RawTweet

        rng = np.random.default_rng(13)
        users = [f"u{i}" for i in range(12)]
        for _ in range(30):
            tweets = []
            for i in range(int(rng.integers(5, 60))):
                k = int(rng.integers(0, 5))
                picks = tuple(
                    users[int(rng.integers(0, len(users)))] for _ in range(k)
                )
                tweets.append(RawTweet(str(i), "x", picks, ()))
            min_m = int(rng.integers(1, 4))
            min_f = int(rng.integers(0, 6))
            freq = Counter(u for t in tweets for u in t.mentions)
            lists = extract_mention_lists(tweets, min_mentions=min_m, min_user_freq=min_f)
            for lst in lists:
                assert len(lst) >= min_m
                for u in lst:
                    assert freq[u] >= min_f

    def test_growing_freq_threshold_shrinks_output(self):
        from tweetxfer.corpus import RawTweet

        rng = np.random.default_rng(14)
        tweets = [
            RawTweet(
                str(i),
                "x",
                tuple(f"u{int(rng.integers(0, 8))}" for _ in range(int(rng.integers(0, 4)))),
                (),
            )
            for i in range(80)
        ]
        sizes = [
            len(extract_mention_lists(tweets, min_mentions=1, min_user_freq=f))
            for f in range(0, 8)
        ]
        assert sizes == sorted(sizes, reverse=True)


class TestSplitAndDedup:
    def test_split_tail_sizes_and_order(self):
        items = list(range(10))
        split = split_tail(items, 3)
        head, tail = split.train, split.validation
        assert list(head) == list(range(7))
        assert list(tail) == [7, 8, 9]

    def test_split_tail_errors(self):
        with pytest.raises(ValueError):
            split_tail([1, 2], 0)
        with pytest.raises(DataError):
            split_tail([1, 2], 3)

    def test_dedup_keeps_first_and_is_stable(self):
        from tweetxfer.corpus import RawTweet

        tweets = [
            RawTweet("1", "Hallo Welt", (), ()),
            RawTweet("2", "hallo welt", (), ()),
            RawTweet("3", "anders", (), ()),
            RawTweet("4", "Hallo   Welt", (), ()),  # whitespace differs after tokenize-join? no: dedup is on normalize
        ]
        kept = deduplicate(tweets)
        assert [t.id for t in kept] == ["1", "3", "4"]

    def test_dedup_idempotent(self):
        from tweetxfer.fixtures import dedup_tweets

        tweets = dedup_tweets(seed=2)
        once = deduplicate(tweets)
        assert len(once) == 900
        assert deduplicate(once) == once


class TestTokenLines:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "lines.txt"
        rows = [["ein", "paar", "worte"], ["einzeln"], ["a", "b"]]
        save_token_lines(rows, str(path))
        assert load_token_lines(str(path)) == rows

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_text("a b\n\nc\n", encoding="utf-8")
        assert load_token_lines(str(path)) == [["a", "b"], ["c"]]
