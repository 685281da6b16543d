import hashlib
import os
import unicodedata

import numpy as np
import pytest

from tweetxfer import corpus, fixtures, textprep
from tweetxfer.textprep import (
    URL_TOKEN,
    USER_TOKEN,
    is_emoji_char,
    meaningful_tokens,
    normalize,
    tokenize,
)

# Building blocks for randomized inputs: a mix of words, handles, URLs,
# digits, punctuation and emoji in several scripts.
_FRAGMENTS = (
    "Hallo", "Welt", "schön", "Ärger", "ÜBERALL", "straße",
    "@Merkel", "@user_123", "@A",
    "http://example.de/pfad?x=1", "https://t.co/abc", "www.zeitung.de", "WWW.FOO.DE",
    "123", "42", "!?", "...", "#tag", ":-)",
    "\U0001F600", "\U0001F602\U0001F602", "\U0001F44D\U0001F3FD",
    "\U0001F468‍\U0001F469‍\U0001F467",
)


# The hand-written scanner that ``tokenize``, ``emoji_symbols`` and
# ``remove_emoji`` replaced, kept as the reference they must agree with.
_REF_SKIN_TONES = range(0x1F3FB, 0x1F3FF + 1)
_REF_ZWJ = "\u200d"
_REF_VARIATION_SELECTORS = ("\ufe0e", "\ufe0f")


def _ref_class(ch: str) -> str:
    if ch.isspace():
        return "W"
    if is_emoji_char(ch):
        return "E"
    if ch.isalpha() or unicodedata.category(ch).startswith("M"):
        return "L"
    if ch.isdigit():
        return "D"
    return "P"


def _ref_placeholder_at(text: str, i: int) -> str | None:
    for ph in (USER_TOKEN, URL_TOKEN):
        if text.startswith(ph, i):
            return ph
    return None


def _ref_consume_emoji(text: str, i: int) -> int:
    j = i + 1
    while j < len(text):
        ch = text[j]
        if ord(ch) in _REF_SKIN_TONES or ch in _REF_VARIATION_SELECTORS:
            j += 1
        elif ch == _REF_ZWJ and j + 1 < len(text) and is_emoji_char(text[j + 1]):
            j += 2
        else:
            break
    return j


def _ref_tokenize(text: str) -> tuple[str, ...]:
    tokens = []
    i = 0
    while i < len(text):
        ph = _ref_placeholder_at(text, i)
        if ph is not None:
            tokens.append(ph)
            i += len(ph)
            continue
        cls = _ref_class(text[i])
        if cls == "W":
            i += 1
            continue
        if cls == "E":
            j = _ref_consume_emoji(text, i)
        else:
            j = i + 1
            while (
                j < len(text)
                and _ref_class(text[j]) == cls
                and _ref_placeholder_at(text, j) is None
            ):
                j += 1
        tokens.append(text[i:j])
        i = j
    return tuple(tokens)


def _ref_emoji_spans(text: str) -> list[tuple[int, int]]:
    spans = []
    i = 0
    while i < len(text):
        if is_emoji_char(text[i]):
            j = _ref_consume_emoji(text, i)
            spans.append((i, j))
            i = j
        else:
            i += 1
    return spans


def _ref_remove_emoji(text: str) -> str:
    out = []
    kept_from = 0
    for i, j in _ref_emoji_spans(text):
        out.append(text[kept_from:i])
        kept_from = j
    out.append(text[kept_from:])
    return "".join(out)


# Characters and fragments that sit on the scanner's decision points:
# skin tones, both variation selectors, ZWJ, regional indicators, the
# code points on either side of the emoji range edges, a combining mark,
# digits that are not ASCII, unusual whitespace, and placeholder prefixes.
_ALPHABET = (
    "a", "Z", "\u00df", "1", "!", "<", ">", " ", "\n",
    "\U0001F600", "\U0001F468", "\U0001F469", "\U0001F680", "\U0001F9FF",
    "\U0001F3FB", "\U0001F3FF", "\ufe0e", "\ufe0f", "\u200d",
    "\U0001F1E9", "\U0001F1EA",
    "\U0001F2FF", "\U0001F300", "\U0001F5FF", "\U0001F700",
    "\u0301", "\u00b2", "\u0663", "\u00a0", "\u3000", "\x1c",
    "<use", USER_TOKEN, URL_TOKEN,
)


def _random_text(rng: np.random.Generator) -> str:
    n = int(rng.integers(1, 9))
    parts = [
        _FRAGMENTS[int(rng.integers(0, len(_FRAGMENTS)))] for _ in range(n)
    ]
    return " ".join(parts)


class TestNormalize:
    def test_replaces_mentions_and_urls(self):
        assert normalize("Hallo @Merkel http://x.de") == "hallo <user> <url>"

    def test_lowercases(self):
        assert normalize("HALLO Welt") == "hallo welt"

    def test_uppercase_url_scheme_is_caught(self):
        """Lowercasing happens before the URL pass, so shouting URLs fold too."""
        assert normalize("schau WWW.FOO.DE an") == "schau <url> an"
        assert normalize("HTTPS://X.DE") == "<url>"

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            once = normalize(_random_text(rng))
            assert normalize(once) == once

    def test_no_raw_mentions_or_urls_survive(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            out = normalize(_random_text(rng))
            assert "@" not in out
            assert "http" not in out and "www." not in out


class TestTokenize:
    def test_splits_at_class_boundaries(self):
        assert tokenize("abc123!?").tokens == ("abc", "123", "!?")

    def test_each_emoji_is_its_own_token(self):
        assert tokenize("\U0001F600\U0001F600").tokens == ("\U0001F600", "\U0001F600")

    def test_placeholders_stay_atomic(self):
        assert tokenize("<user> sagt <url>!").tokens == (USER_TOKEN, "sagt", URL_TOKEN, "!")
        # even glued to punctuation, which shares the '<' class
        assert tokenize("!!<user>").tokens == ("!!", USER_TOKEN)

    def test_skin_tone_stays_attached(self):
        tokens = tokenize("gut \U0001F44D\U0001F3FD so").tokens
        assert tokens == ("gut", "\U0001F44D\U0001F3FD", "so")

    def test_zwj_sequence_is_one_token(self):
        family = "\U0001F468‍\U0001F469‍\U0001F467"
        assert tokenize(family).tokens == (family,)

    def test_variation_selector_stays_attached(self):
        tok = tokenize("\U0001F600️ j").tokens
        assert tok == ("\U0001F600️", "j")

    def test_umlauts_are_letters(self):
        assert tokenize("schöne Straße").tokens == ("schöne", "Straße")

    def test_source_id_carried(self):
        assert tokenize("x", source_id="42").source_id == "42"

    def test_tokens_reassemble_input_without_whitespace(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            text = _random_text(rng)
            tokens = tokenize(text).tokens
            squeezed = "".join(ch for ch in text if not ch.isspace())
            assert "".join(tokens) == squeezed

    def test_every_token_is_single_class(self):
        """A token is a placeholder, one emoji symbol, or one char class."""
        rng = np.random.default_rng(10)
        for _ in range(300):
            for tok in tokenize(normalize(_random_text(rng))).tokens:
                if tok in (USER_TOKEN, URL_TOKEN):
                    continue
                if is_emoji_char(tok[0]):
                    continue
                kinds = {
                    (ch.isalpha(), ch.isdigit(), ch.isspace()) for ch in tok
                }
                assert len(kinds) == 1, tok
                assert not tok[0].isspace()

    @pytest.mark.parametrize(
        "text, tokens",
        [
            ("a<user>b", ("a", USER_TOKEN, "b")),
            ("<<url>", ("<", URL_TOKEN)),
            ("<use", ("<", "use")),
            ("x<url", ("x", "<", "url")),
            ("ab<", ("ab", "<")),
            ("<", ("<",)),
            ("<user><url>", (USER_TOKEN, URL_TOKEN)),
            (
                "\U0001F468\u200d\U0001F469\u200d\U0001F467x",
                ("\U0001F468\u200d\U0001F469\u200d\U0001F467", "x"),
            ),
            ("hi \U0001F44D\U0001F3FD!", ("hi", "\U0001F44D\U0001F3FD", "!")),
            ("\u200d", ("\u200d",)),
            ("e\u0301te", ("e\u0301te",)),
            ("\u0301a", ("\u0301a",)),
            ("abc123def 4567", ("abc", "123", "def", "4567")),
            ("\u0663\u06645", ("\u0663\u06645",)),
            ("\u00b2x", ("\u00b2", "x")),
            ("<<user>", ("<", USER_TOKEN)),
            # a flag is two regional indicators, and each is its own symbol
            ("\U0001F1E9\U0001F1EA", ("\U0001F1E9", "\U0001F1EA")),
            # a ZWJ with no emoji after it does not attach
            ("\U0001F600\u200da", ("\U0001F600", "\u200d", "a")),
        ],
    )
    def test_edge_cases(self, text, tokens):
        assert tokenize(text).tokens == tokens

    def test_agrees_with_reference_scanner(self):
        """Tokens, emoji symbols and emoji-free text equal the scanner's on
        seeded random strings over an alphabet of its decision points."""
        rng = np.random.default_rng(20)
        for _ in range(20_000):
            picks = rng.integers(0, len(_ALPHABET), size=int(rng.integers(0, 10)))
            text = "".join(_ALPHABET[i] for i in picks)
            assert tokenize(text).tokens == _ref_tokenize(text), repr(text)
            spans = _ref_emoji_spans(text)
            assert textprep.emoji_symbols(text) == [text[i:j] for i, j in spans], repr(text)
            assert textprep.remove_emoji(text) == _ref_remove_emoji(text), repr(text)

    def test_fixture_corpora_digest(self, tmp_path):
        """Pins every token of the make-fixtures raw and labeled corpora,
        tokenized as written and after ``normalize``."""
        fixtures.write_all(str(tmp_path))
        texts = []
        for name in ("topic_tweets", "mention_tweets", "dedup_tweets", "emoji_tweets"):
            texts += [t.text for t in corpus.load_raw(os.path.join(tmp_path, f"{name}.jsonl"))]
        for name in ("labeled", "separable"):
            texts += [t.text for t in corpus.load_labeled(os.path.join(tmp_path, f"{name}.tsv"))]
        digest = hashlib.sha256()
        count = 0
        for text in texts:
            for variant in (text, normalize(text)):
                tokens = tokenize(variant).tokens
                count += len(tokens)
                digest.update("\x1f".join(tokens).encode("utf-8") + b"\x1e")
        assert (len(texts), count) == (2584, 40557)
        assert digest.hexdigest() == (
            "e8fa2e6c0fba99c6882d27aee72a5a548702fd84a6da70a51ae491538004245a"
        )


class TestEmojiHelpers:
    def test_symbols_in_order_with_duplicates(self):
        text = "a \U0001F600 b \U0001F602 \U0001F600"
        assert textprep.emoji_symbols(text) == ["\U0001F600", "\U0001F602", "\U0001F600"]

    def test_remove_emoji_strips_symbols_only(self):
        text = "gut \U0001F44D\U0001F3FD so"
        assert textprep.remove_emoji(text) == "gut  so"

    def test_remove_then_scan_finds_nothing(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            stripped = textprep.remove_emoji(_random_text(rng))
            assert textprep.emoji_symbols(stripped) == []


class TestStopwords:
    def test_bundled_list_loads(self):
        words = textprep.load_stopwords()
        assert len(words) > 200
        assert "und" in words and "nicht" in words
        assert all(w == w.lower() for w in words)


class TestMeaningfulTokens:
    def test_drops_placeholders_punct_emoji_stopwords(self):
        stop = frozenset({"und"})
        tweet = tokenize("<user> hund und katze !? \U0001F600 <url> 99")
        assert meaningful_tokens(tweet, stop) == ["hund", "katze", "99"]

    def test_subset_property(self):
        rng = np.random.default_rng(12)
        stop = textprep.load_stopwords()
        for _ in range(200):
            tweet = tokenize(normalize(_random_text(rng)))
            kept = meaningful_tokens(tweet, stop)
            assert set(kept) <= set(tweet.tokens)
            for tok in kept:
                assert tok.isalnum()
                assert tok not in stop
