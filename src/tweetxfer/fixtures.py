"""Synthetic corpora with planted structure.

Every generator is deterministic in its seed and returns plain package
types, so tests and the make-fixtures command share one source of
truth.  Planted words are pure ASCII letters: the tokenizer keeps them
whole, no stopword list contains them, and each topic draws from its
own disjoint vocabulary.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import corpus, net
from .corpus import LabeledTweet, RawTweet
from .transfer import CommentAnnotation, CommentRecord, tokenize_text

_FINE_OFFENSE = ("insult", "profanity", "abuse")
_TOPIC_PREFIX = "qzvxj"

EMOJI_PALETTE = ("\U0001F600", "\U0001F602", "\U0001F60D", "\U0001F62D", "\U0001F680",
                 "\U0001F525", "\U0001F389", "\U0001F44D")


def _letters(value: int) -> str:
    """Base-26 rendering of a non-negative int using a-z only."""
    digits = []
    value += 1
    while value:
        value, rem = divmod(value - 1, 26)
        digits.append(chr(ord("a") + rem))
    return "".join(reversed(digits))


def topic_word(topic: int, index: int) -> str:
    """Vocabulary word ``index`` of ``topic``; topics never share words."""
    return _TOPIC_PREFIX[topic] + "o" + _letters(index)


def topic_vocabulary(n_topics: int, words_per_topic: int) -> list[str]:
    return [
        topic_word(t, i) for t in range(n_topics) for i in range(words_per_topic)
    ]


def planted_topic_docs(
    n_docs: int,
    n_topics: int = 2,
    words_per_topic: int = 30,
    doc_len: tuple[int, int] = (8, 14),
    purity: float = 1.0,
    seed: int = 0,
) -> tuple[list[list[str]], list[int]]:
    """Documents drawn from one planted topic's vocabulary each.

    Topics rotate round-robin so every topic gets n_docs/n_topics
    documents.  With ``purity`` below 1, each token defects to a random
    other topic's vocabulary with probability 1 - purity, so telling the
    planted topic apart requires counting, not spotting one word.
    Returns the docs and the planted topic per doc.
    """
    if n_topics > len(_TOPIC_PREFIX):
        raise ValueError(f"at most {len(_TOPIC_PREFIX)} planted topics supported")
    if not 0.0 < purity <= 1.0:
        raise ValueError(f"purity must be in (0, 1], got {purity}")
    rng = np.random.default_rng(seed)
    docs: list[list[str]] = []
    topics: list[int] = []
    lo, hi = doc_len
    for d in range(n_docs):
        topic = d % n_topics
        length = int(rng.integers(lo, hi + 1))
        words = rng.integers(0, words_per_topic, size=length)
        sources = np.full(length, topic)
        if purity < 1.0 and n_topics > 1:
            defect = rng.random(length) >= purity
            others = rng.integers(0, n_topics - 1, size=length)
            others[others >= topic] += 1
            sources[defect] = others[defect]
        docs.append([topic_word(int(s), int(w)) for s, w in zip(sources, words)])
        topics.append(topic)
    return docs, topics


def token_majority_topic(doc: list[str]) -> int:
    """The topic whose vocabulary contributed most tokens; ties go low.

    Works because every planted word starts with its topic's prefix
    letter.
    """
    counts: dict[int, int] = {}
    for word in doc:
        counts[_TOPIC_PREFIX.index(word[0])] = counts.get(_TOPIC_PREFIX.index(word[0]), 0) + 1
    best = max(counts.values())
    return min(t for t, c in counts.items() if c == best)


def labeled_from_topics(
    docs: list[list[str]], topics: list[int], offense_topic: int = 0
) -> list[LabeledTweet]:
    """Labeled tweets whose class is determined by the planted topic."""
    tweets = []
    for i, (doc, topic) in enumerate(zip(docs, topics)):
        offensive = topic == offense_topic
        tweets.append(
            LabeledTweet(
                id=str(i + 1),
                text=" ".join(doc),
                coarse="offense" if offensive else "other",
                fine=_FINE_OFFENSE[i % len(_FINE_OFFENSE)] if offensive else "other",
            )
        )
    return tweets


def raw_from_docs(docs: list[list[str]]) -> list[RawTweet]:
    return [
        RawTweet(id=str(i + 1), text=" ".join(doc)) for i, doc in enumerate(docs)
    ]


def separable_labeled(n: int = 64, seed: int = 0) -> list[LabeledTweet]:
    """A small two-class set with disjoint vocabularies, half per class."""
    docs, topics = planted_topic_docs(
        n, n_topics=2, words_per_topic=20, doc_len=(5, 9), seed=seed
    )
    return labeled_from_topics(docs, topics)


def clique_mentions(
    n_cliques: int = 3,
    users_per_clique: int = 12,
    n_tweets: int = 400,
    seed: int = 0,
) -> tuple[list[RawTweet], dict[str, int]]:
    """Tweets that co-mention users only within their own clique.

    Returns the tweets and the planted clique of every user.  Each tweet
    mentions 2 to 4 distinct users of one clique plus a filler word so
    the text is not mentions-only.
    """
    rng = np.random.default_rng(seed)
    users = [
        [f"u{c}{_letters(i)}" for i in range(users_per_clique)] for c in range(n_cliques)
    ]
    truth = {u: c for c, clique in enumerate(users) for u in clique}
    tweets = []
    for i in range(n_tweets):
        clique = i % n_cliques
        size = int(rng.integers(2, 5))
        members = rng.choice(users_per_clique, size=size, replace=False)
        mentions = " ".join("@" + users[clique][m] for m in members)
        text = f"{mentions} treffen {_letters(int(rng.integers(0, 400)))}"
        tweets.append(corpus.raw_tweet(str(i + 1), text))
    return tweets, truth


def dedup_tweets(n_unique: int = 900, n_dupes: int = 100, seed: int = 0) -> list[RawTweet]:
    """n_unique distinct tweets plus n_dupes case-mangled repeats."""
    rng = np.random.default_rng(seed)
    base = [f"beitrag {_letters(i)} nummer {i}" for i in range(n_unique)]
    texts = list(base)
    for _ in range(n_dupes):
        victim = base[int(rng.integers(0, n_unique))]
        flip = "".join(
            ch.upper() if rng.random() < 0.5 else ch for ch in victim
        )
        texts.append(flip)
    return [RawTweet(id=str(i + 1), text=t) for i, t in enumerate(texts)]


def emoji_tweets(
    n: int = 120, no_emoji_share: float = 0.25, seed: int = 0
) -> tuple[list[RawTweet], int]:
    """Tweets with 0 to 4 emoji appended; repeats within a tweet happen.

    Returns the tweets and the expected number of emoji-task examples,
    counted from the planted emoji (distinct symbols per tweet).
    """
    rng = np.random.default_rng(seed)
    tweets = []
    expected = 0
    for i in range(n):
        words = " ".join(_letters(int(w)) for w in rng.integers(0, 300, size=6))
        if rng.random() < no_emoji_share:
            text = words
        else:
            picks = rng.integers(0, len(EMOJI_PALETTE), size=int(rng.integers(1, 5)))
            emo = [EMOJI_PALETTE[p] for p in picks]
            expected += len(set(emo))
            text = words + " " + "".join(emo)
        tweets.append(corpus.raw_tweet(str(i + 1), text))
    return tweets, expected


def comment_records(n: int = 240, seed: int = 0) -> list[CommentRecord]:
    """Moderated comments with 3 annotators and planted majority labels."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        offensive = i % 3 == 0
        topic = 0 if offensive else 1
        words = " ".join(
            topic_word(topic, int(w)) for w in rng.integers(0, 30, size=7)
        )
        votes = []
        for a in range(3):
            if offensive:
                flag = a < 2 or rng.random() < 0.5
                votes.append(CommentAnnotation(
                    inappropriate=flag, discriminating=rng.random() < 0.3
                ))
            else:
                votes.append(CommentAnnotation(
                    inappropriate=a == 0 and rng.random() < 0.4, discriminating=False
                ))
        records.append(CommentRecord(id=str(i + 1), text=words, annotations=tuple(votes)))
    return records


def save_comments(records: list[CommentRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps({
                "id": r.id,
                "text": r.text,
                "annotations": [
                    {"inappropriate": a.inappropriate, "discriminating": a.discriminating}
                    for a in r.annotations
                ],
            }, ensure_ascii=False) + "\n")


def word_vector_table(words: list[str], dim: int = 300, seed: int = 0) -> dict[str, np.ndarray]:
    """Deterministic dense vectors, one independent draw per word."""
    out = {}
    for i, word in enumerate(sorted(set(words))):
        rng = np.random.default_rng([seed, 7, i])
        out[word] = rng.normal(0.0, 0.25, dim)
    return out


def write_vectors_file(path: str, vectors: dict[str, np.ndarray]) -> None:
    words = sorted(vectors)
    dim = len(next(iter(vectors.values()))) if vectors else 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {dim}\n")
        for w in words:
            fh.write(w + " " + " ".join(f"{v:.6f}" for v in vectors[w]) + "\n")


def toy_batch(
    n_classes: int = 2,
    cluster_width: int = 0,
    batch: int = 4,
    t: int = 9,
    embed_dim: int = 300,
    seed: int = 0,
) -> net.Batch:
    """A small random batch with mixed lengths, one below the widest
    kernel so the zero-padding floor gets exercised."""
    rng = np.random.default_rng(seed)
    lengths = [t, max(2, t // 2), 3, max(5, t - 2)][:batch]
    while len(lengths) < batch:
        lengths.append(int(rng.integers(2, t + 1)))
    ids, matrix = stack_rows([rng.normal(0.0, 0.3, (n, embed_dim)) for n in lengths])
    feats = (rng.random((batch, cluster_width)) < 0.3).astype(np.float64)
    labels = rng.integers(0, n_classes, size=batch)
    return net.make_batch(ids, matrix, feats, labels)


def stack_rows(sequences: list[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """Token ids and matrix for per-tweet embedding rows, every row its own
    token: the rows are stacked in order under the zero padding row."""
    ends = np.cumsum([1] + [len(s) for s in sequences])
    ids = [np.arange(end - len(s), end) for s, end in zip(sequences, ends[1:])]
    return ids, np.concatenate([np.zeros((1, sequences[0].shape[1]))] + list(sequences))


def write_all(outdir: str, seed: int = 0) -> list[str]:
    """Write every fixture file; returns the paths written."""
    os.makedirs(outdir, exist_ok=True)
    paths = []

    def out(name: str) -> str:
        p = os.path.join(outdir, name)
        paths.append(p)
        return p

    docs, topics = planted_topic_docs(500, seed=seed)
    corpus.save_labeled(labeled_from_topics(docs, topics), out("labeled.tsv"))
    corpus.save_token_lines(docs, out("topic_corpus.txt"))
    corpus.save_raw(raw_from_docs(docs), out("topic_tweets.jsonl"))

    corpus.save_labeled(separable_labeled(seed=seed), out("separable.tsv"))

    mention_tweets, truth = clique_mentions(seed=seed)
    corpus.save_raw(mention_tweets, out("mention_tweets.jsonl"))
    with open(out("clique_truth.tsv"), "w", encoding="utf-8") as fh:
        for user in sorted(truth):
            fh.write(f"{user}\t{truth[user]}\n")

    corpus.save_raw(dedup_tweets(seed=seed), out("dedup_tweets.jsonl"))

    emo, _ = emoji_tweets(seed=seed)
    corpus.save_raw(emo, out("emoji_tweets.jsonl"))

    save_comments(comment_records(seed=seed), out("comments.jsonl"))

    words = set(topic_vocabulary(2, 30))
    for tweetlist in (emo, mention_tweets):
        for t in tweetlist:
            words.update(tokenize_text(t.text, t.id).tokens)
    words = {w for w in words if w.isalnum()}
    write_vectors_file(out("vectors.txt"), word_vector_table(sorted(words), dim=300, seed=seed))
    return paths
