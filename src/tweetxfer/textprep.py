"""Tweet text normalization and tokenization.

Normalization lowercases and folds @-mentions and URLs into the fixed
placeholder tokens ``<user>`` and ``<url>``.  Tokenization then takes two
steps.  One pattern splits out the tokens that are never split or merged:
the two placeholders (atomic even though ``<`` and ``>`` are punctuation)
and each emoji symbol, which is a base emoji plus any attached skin-tone
modifiers or variation selectors plus any ZWJ-joined emoji.  The text
between them is cut into runs of one character class (letters, digits,
punctuation/symbols, whitespace), and the whitespace runs are dropped.
"""

from __future__ import annotations

import functools
import itertools
import re
import unicodedata
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

_EMOJI_CLASS = "[" + "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _EMOJI_RANGES) + "]"
# Skin-tone modifiers (U+1F3FB..1F3FF) and the text/emoji variation
# selectors attach to the emoji before them; a ZWJ attaches only when an
# emoji follows it.
_EMOJI_SYMBOL = re.compile(
    _EMOJI_CLASS + "(?:[\U0001F3FB-\U0001F3FF\uFE0E\uFE0F]|\u200D" + _EMOJI_CLASS + ")*"
)
_ATOMIC = re.compile(
    "|".join(re.escape(ph) for ph in PLACEHOLDERS) + "|" + _EMOJI_SYMBOL.pattern
)

_CLS_LETTER = "L"
_CLS_DIGIT = "D"
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


def _class_runs(segment: str) -> list[str]:
    """``segment`` cut at character-class boundaries, whitespace dropped."""
    return [
        "".join(run)
        for cls, run in itertools.groupby(segment, _char_class)
        if cls != _CLS_SPACE
    ]


def tokenize(text: str, source_id: str = "") -> TokenizedTweet:
    """Split ``text`` into placeholders, emoji symbols and class runs.

    Whitespace separates tokens and is dropped; every other character
    lands in exactly one token, so joining the tokens reproduces the
    input minus its whitespace.
    """
    tokens: list[str] = []
    start = 0
    for m in _ATOMIC.finditer(text):
        tokens += _class_runs(text[start:m.start()])
        tokens.append(m.group())
        start = m.end()
    tokens += _class_runs(text[start:])
    return TokenizedTweet(tokens=tuple(tokens), source_id=source_id)


def emoji_symbols(text: str) -> list[str]:
    """All emoji symbols in ``text``, in order, duplicates kept."""
    return _EMOJI_SYMBOL.findall(text)


def remove_emoji(text: str) -> str:
    """Strip every emoji symbol (with attached modifiers) from ``text``."""
    return _EMOJI_SYMBOL.sub("", text)


def load_stopwords() -> frozenset[str]:
    """The bundled German stopword list, lowercased.

    Blank lines and lines starting with '#' are skipped.
    """
    bundled = resources.files("tweetxfer").joinpath("data/stopwords_de.txt")
    words = set()
    for line in bundled.read_text(encoding="utf-8").splitlines():
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
