"""Dataset ingestion: labeled tweets, raw tweets, splits, mention lists.

Labeled data lives in a tab-separated file with three columns per line
(text, coarse label, fine label); tab, newline, carriage-return and
backslash characters inside the text are backslash-escaped so round-trips
are exact.  Raw tweets live in JSON-lines files with at least ``id`` and
``text`` keys.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass

from . import textprep
from .errors import DataError, open_text, require

COARSE_LABELS = ("offense", "other")
FINE_LABELS = ("insult", "profanity", "abuse", "other")
# The label space of each labeled task.  A tweet's label for a task is
# the ``LabeledTweet`` field of the same name.
TASK_LABELS = {"coarse": COARSE_LABELS, "fine": FINE_LABELS}


@dataclass(frozen=True)
class LabeledTweet:
    id: str
    text: str
    coarse: str
    fine: str

    def __post_init__(self) -> None:
        if not self.text:
            raise DataError(f"tweet {self.id!r}: empty text")
        for task, space in TASK_LABELS.items():
            if getattr(self, task) not in space:
                raise DataError(f"tweet {self.id!r}: unknown {task} label {getattr(self, task)!r}")
        if (self.fine == "other") != (self.coarse == "other"):
            raise DataError(
                f"tweet {self.id!r}: labels disagree "
                f"(coarse={self.coarse!r}, fine={self.fine!r})"
            )


@dataclass(frozen=True)
class RawTweet:
    id: str
    text: str
    mentions: tuple[str, ...] = ()
    emojis: tuple[str, ...] = ()


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[LabeledTweet, ...]
    validation: tuple[LabeledTweet, ...]


# The one escape map: the letter after a backslash, and the character it
# stands for.  ``escape_text`` and ``unescape_text`` are both built from it.
_UNESCAPE = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
_ESCAPE = str.maketrans({raw: "\\" + code for code, raw in _UNESCAPE.items()})
_ESCAPED = re.compile("\\\\([" + re.escape("".join(_UNESCAPE)) + "])")


def escape_text(text: str) -> str:
    """Backslash-escape tabs, newlines, carriage returns and backslashes for TSV fields."""
    return text.translate(_ESCAPE)


def unescape_text(text: str) -> str:
    """Undo ``escape_text``; a backslash before any other character is kept."""
    return _ESCAPED.sub(lambda m: _UNESCAPE[m.group(1)], text)


def load_labeled(path: str) -> list[LabeledTweet]:
    """Read a three-column labeled tweet file, preserving line order.

    Records end at newlines only: U+2028, form feed and the other line
    breaks of ``str.splitlines`` are text.
    """
    tweets: list[LabeledTweet] = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.removesuffix("\n").split("\t")
            if len(fields) != 3:
                raise DataError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            text, coarse, fine = fields
            try:
                tweets.append(LabeledTweet(str(lineno), unescape_text(text), coarse, fine))
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    return tweets


def save_labeled(tweets: list[LabeledTweet], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in tweets:
            fh.write(f"{escape_text(t.text)}\t{t.coarse}\t{t.fine}\n")


def load_raw(path: str) -> list[RawTweet]:
    """Read a JSON-lines tweet dump.

    Each record needs string ``id`` and ``text`` fields; other keys are
    ignored.  Mentions and emoji are extracted here so downstream code
    never re-parses text.
    """
    tweets: list[RawTweet] = []
    seen: set[str] = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: bad JSON ({exc})") from None
            if not isinstance(rec, dict):
                raise DataError(f"{path}:{lineno}: record is not an object")
            tid = require(rec, "id", (str,), f"{path}:{lineno}")
            text = require(rec, "text", (str,), f"{path}:{lineno}")
            if tid in seen:
                raise DataError(f"{path}:{lineno}: duplicate id {tid!r}")
            seen.add(tid)
            tweets.append(raw_tweet(tid, text))
    return tweets


def raw_tweet(tid: str, text: str) -> RawTweet:
    """A tweet with its mentions, in order, and its distinct emoji, in
    first-seen order, extracted from ``text``."""
    return RawTweet(
        id=tid,
        text=text,
        mentions=tuple(extract_mentions(text)),
        emojis=tuple(dict.fromkeys(textprep.emoji_symbols(text))),
    )


def save_raw(tweets: list[RawTweet], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in tweets:
            fh.write(json.dumps({"id": t.id, "text": t.text}, ensure_ascii=False) + "\n")


def extract_mentions(text: str) -> list[str]:
    """@-handles appearing in ``text``, in order, without the '@'."""
    return [m[1:] for m in textprep.MENTION_RE.findall(text)]


def split_tail(tweets: list[LabeledTweet], tail: int) -> DatasetSplit:
    """Hold out the last ``tail`` tweets, in file order, for validation."""
    if tail < 1:
        raise ValueError(f"tail must be positive, got {tail}")
    if tail > len(tweets):
        raise DataError(f"tail {tail} exceeds dataset size {len(tweets)}")
    cut = len(tweets) - tail
    return DatasetSplit(train=tuple(tweets[:cut]), validation=tuple(tweets[cut:]))


def deduplicate(tweets: list[RawTweet]) -> list[RawTweet]:
    """Drop tweets whose normalized text was already seen, keeping order."""
    seen: set[str] = set()
    out: list[RawTweet] = []
    for t in tweets:
        key = textprep.normalize(t.text)
        if key not in seen:
            seen.add(key)
            out.append(t)
    return out


def extract_mention_lists(
    tweets: list[RawTweet],
    min_mentions: int = 2,
    min_user_freq: int = 5,
) -> list[list[str]]:
    """Mention lists usable for user clustering.

    A tweet contributes its mention list when it names at least
    ``min_mentions`` users and every named user appears at least
    ``min_user_freq`` times across the whole corpus.  Frequencies are
    counted once, before filtering, so raising either threshold can only
    shrink the result.
    """
    if min_mentions < 1:
        raise ValueError(f"min_mentions must be >= 1, got {min_mentions}")
    if min_user_freq < 0:
        raise ValueError(f"min_user_freq must be >= 0, got {min_user_freq}")
    freq: Counter[str] = Counter(u for t in tweets for u in t.mentions)
    lists: list[list[str]] = []
    for t in tweets:
        if len(t.mentions) < min_mentions:
            continue
        if all(freq[u] >= min_user_freq for u in t.mentions):
            lists.append(list(t.mentions))
    return lists


def save_token_lines(lists: list[list[str]], path: str) -> None:
    """One space-joined token list per line; serves tokenized corpora
    and mention lists alike (neither tokens nor user ids contain spaces)."""
    with open(path, "w", encoding="utf-8") as fh:
        for tokens in lists:
            fh.write(" ".join(tokens) + "\n")


def load_token_lines(path: str) -> list[list[str]]:
    lists: list[list[str]] = []
    with open_text(path) as fh:
        for line in fh:
            tokens = line.split()
            if tokens:
                lists.append(tokens)
    return lists
