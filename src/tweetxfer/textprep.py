"""Tweet text normalization and tokenization.

Normalization lowercases and folds @-mentions and URLs into the fixed
placeholder tokens ``<user>`` and ``<url>``.  Tokenization then splits the
text at every boundary between five character classes: letters, digits,
punctuation/symbols, emoji, and whitespace.  Whitespace is dropped, emoji
come out one visual symbol per token (skin-tone modifiers, variation
selectors and ZWJ-joined parts stay attached to their base), and the two
placeholders are kept atomic even though ``<`` and ``>`` are punctuation.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from collections.abc import Iterator
from dataclasses import dataclass
from importlib import resources

USER_TOKEN = "<user>"
URL_TOKEN = "<url>"
PLACEHOLDERS = (USER_TOKEN, URL_TOKEN)

# Twitter handles are ASCII word characters; unicode letters after '@' are
# ordinary text.  URLs are matched greedily to the next whitespace.
MENTION_RE = re.compile(r"@\w+", re.ASCII)
URL_RE = re.compile(r"(?:https?://|www\.)\S+")

# Codepoint ranges treated as emoji: emoticons, misc symbols and
# pictographs, transport and map, supplemental symbols, regional
# indicators (flag halves).
_EMOJI_RANGES = (
    (0x1F300, 0x1F5FF),
    (0x1F600, 0x1F64F),
    (0x1F680, 0x1F6FF),
    (0x1F900, 0x1F9FF),
    (0x1F1E6, 0x1F1FF),
)

_SKIN_TONE_LO = 0x1F3FB
_SKIN_TONE_HI = 0x1F3FF
_ZWJ = "‍"
_VARIATION_SELECTORS = ("︎", "️")

_CLS_LETTER = "L"
_CLS_DIGIT = "D"
_CLS_EMOJI = "E"
_CLS_PUNCT = "P"
_CLS_SPACE = "W"


@dataclass(frozen=True)
class TokenizedTweet:
    """An immutable token sequence plus the id of the tweet it came from."""

    tokens: tuple[str, ...]
    source_id: str = ""


def is_emoji_char(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _EMOJI_RANGES)


@functools.cache  # a pure function of one character, so bounded by the alphabet
def _char_class(ch: str) -> str:
    if ch.isspace():
        return _CLS_SPACE
    if is_emoji_char(ch):
        return _CLS_EMOJI
    if ch.isalpha() or unicodedata.category(ch).startswith("M"):
        # Combining marks count as letters so bare diacritics stay glued
        # to the word they modify.
        return _CLS_LETTER
    if ch.isdigit():
        return _CLS_DIGIT
    return _CLS_PUNCT


def normalize(text: str) -> str:
    """Lowercase, then replace URLs and @-mentions with placeholders.

    Lowercasing happens first so that uppercased schemes ("WWW.") are
    still caught; the result is idempotent because the placeholders
    contain neither '@' nor a URL prefix.
    """
    text = text.lower()
    text = URL_RE.sub(URL_TOKEN, text)
    text = MENTION_RE.sub(USER_TOKEN, text)
    return text


def _placeholder_at(text: str, i: int) -> str | None:
    if text[i] != "<":  # every placeholder starts with "<"
        return None
    for ph in PLACEHOLDERS:
        if text.startswith(ph, i):
            return ph
    return None


def _consume_emoji(text: str, i: int) -> int:
    """Return the end index of the emoji symbol starting at ``i``.

    A symbol is a base emoji plus any directly attached skin-tone
    modifiers or variation selectors, plus ZWJ-joined continuations.
    """
    j = i + 1
    n = len(text)
    while j < n:
        ch = text[j]
        if _SKIN_TONE_LO <= ord(ch) <= _SKIN_TONE_HI:
            j += 1
        elif ch in _VARIATION_SELECTORS:
            j += 1
        elif ch == _ZWJ and j + 1 < n and is_emoji_char(text[j + 1]):
            j += 2
        else:
            break
    return j


def tokenize(text: str, source_id: str = "") -> TokenizedTweet:
    """Split ``text`` at character-class boundaries.

    Whitespace separates tokens and is dropped; every other character
    lands in exactly one token, so joining the tokens reproduces the
    input minus its whitespace.
    """
    tokens: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ph = _placeholder_at(text, i)
        if ph is not None:
            tokens.append(ph)
            i += len(ph)
            continue
        ch = text[i]
        cls = _char_class(ch)
        if cls == _CLS_SPACE:
            i += 1
            continue
        if cls == _CLS_EMOJI:
            j = _consume_emoji(text, i)
            tokens.append(text[i:j])
            i = j
            continue
        j = i + 1
        while j < n and _char_class(text[j]) == cls and _placeholder_at(text, j) is None:
            j += 1
        tokens.append(text[i:j])
        i = j
    return TokenizedTweet(tokens=tuple(tokens), source_id=source_id)


def _emoji_spans(text: str) -> Iterator[tuple[int, int]]:
    """``(start, end)`` of every emoji symbol in ``text``, in order."""
    i = 0
    n = len(text)
    while i < n:
        if is_emoji_char(text[i]):
            j = _consume_emoji(text, i)
            yield i, j
            i = j
        else:
            i += 1


def emoji_symbols(text: str) -> list[str]:
    """All emoji symbols in ``text``, in order, duplicates kept."""
    return [text[i:j] for i, j in _emoji_spans(text)]


def remove_emoji(text: str) -> str:
    """Strip every emoji symbol (with attached modifiers) from ``text``."""
    out: list[str] = []
    kept_from = 0
    for i, j in _emoji_spans(text):
        out.append(text[kept_from:i])
        kept_from = j
    out.append(text[kept_from:])
    return "".join(out)


def load_stopwords(path: str | None = None) -> frozenset[str]:
    """Load a stopword list, one word per line, UTF-8, lowercased.

    Without a path the bundled German list is used.  Blank lines and
    lines starting with '#' are skipped.
    """
    if path is None:
        text = (
            resources.files("tweetxfer")
            .joinpath("data/stopwords_de.txt")
            .read_text(encoding="utf-8")
        )
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line.lower())
    return frozenset(words)


def meaningful_tokens(tweet: TokenizedTweet, stopwords: frozenset[str]) -> list[str]:
    """Tokens that carry topical content.

    Drops the placeholders, anything that is not purely alphanumeric
    (punctuation runs, emoji), and stopwords.
    """
    return [
        tok
        for tok in tweet.tokens
        if tok not in PLACEHOLDERS and tok.isalnum() and tok not in stopwords
    ]
