"""Latent topics via collapsed Gibbs sampling.

One sampler serves two purposes: topic labels for unlabeled tweets
(documents are token lists) and user clusters (documents are the lists
of users a tweet mentions together, so users co-mentioned often end up
in the same topic).  Counts are integers throughout; the conditional for
a token excludes its own current assignment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NUMBER, DataError, require

_FORMAT = "lda-model"
_VERSION = 1


@dataclass
class LdaModel:
    k: int
    alpha: float
    beta: float
    vocab: dict[str, int]
    n_tw: np.ndarray  # (k, V) topic-word counts
    n_t: np.ndarray  # (k,) topic totals
    seed: int

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)


@dataclass(frozen=True)
class UserClusters:
    k: int
    cluster_of: dict[str, int]


def _check_counts(
    n_dt: np.ndarray, n_tw: np.ndarray, n_t: np.ndarray, doc_lengths: np.ndarray
) -> None:
    assert (n_dt >= 0).all(), "negative document-topic count"
    assert (n_tw >= 0).all(), "negative topic-word count"
    assert (n_tw.sum(axis=1) == n_t).all(), "topic totals out of sync"
    assert (n_dt.sum(axis=1) == doc_lengths).all(), "doc totals out of sync"


def train_gibbs(
    docs: list[list[str]],
    k: int,
    alpha: float | None = None,
    beta: float = 0.01,
    iterations: int = 1000,
    seed: int = 0,
) -> LdaModel:
    """Run the collapsed sampler over ``docs`` and return count snapshots.

    ``alpha`` defaults to 10/k.  Identical inputs and seed reproduce the
    exact same counts; the vocabulary is indexed in first-occurrence
    order so no hashing order leaks in.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if iterations < 1:
        raise ValueError(f"iterations must be positive, got {iterations}")
    if not docs or any(not doc for doc in docs):
        raise DataError("every document must have at least one token")
    if alpha is None:
        alpha = 10.0 / k
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")

    vocab: dict[str, int] = {}
    for doc in docs:
        for tok in doc:
            if tok not in vocab:
                vocab[tok] = len(vocab)
    docs_idx = [np.array([vocab[tok] for tok in doc], dtype=np.int64) for doc in docs]
    doc_lengths = np.array([len(d) for d in docs_idx], dtype=np.int64)

    n_docs = len(docs_idx)
    n_words = len(vocab)
    n_dt = np.zeros((n_docs, k), dtype=np.int64)
    n_tw = np.zeros((k, n_words), dtype=np.int64)
    n_t = np.zeros(k, dtype=np.int64)

    rng = np.random.default_rng(seed)
    assignments = []
    for d, words in enumerate(docs_idx):
        zs = rng.integers(0, k, size=len(words))
        assignments.append(zs)
        np.add.at(n_dt[d], zs, 1)
        np.add.at(n_t, zs, 1)
        for w, z in zip(words, zs):
            n_tw[z, w] += 1

    v_beta = n_words * beta
    for _ in range(iterations):
        for d, words in enumerate(docs_idx):
            zs = assignments[d]
            row = n_dt[d]
            for j in range(len(words)):
                w = words[j]
                z = zs[j]
                row[z] -= 1
                n_tw[z, w] -= 1
                n_t[z] -= 1
                p = (row + alpha) * (n_tw[:, w] + beta) / (n_t + v_beta)
                cum = np.cumsum(p)
                z = min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")), k - 1)
                zs[j] = z
                row[z] += 1
                n_tw[z, w] += 1
                n_t[z] += 1
        if __debug__:
            _check_counts(n_dt, n_tw, n_t, doc_lengths)

    return LdaModel(k=k, alpha=alpha, beta=beta, vocab=vocab, n_tw=n_tw, n_t=n_t, seed=seed)


def infer_topics(
    model: LdaModel,
    tokens: list[str],
    iterations: int = 50,
    seed: int = 0,
) -> np.ndarray:
    """Fold-in topic distribution for an unseen token list.

    Global counts stay frozen; only the document's own assignments are
    resampled.  The first half of the sweeps is burn-in, the remaining
    per-sweep distributions are averaged.  Tokens outside the training
    vocabulary are ignored; with nothing left the distribution is
    uniform.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be positive, got {iterations}")
    words = np.array([model.vocab[t] for t in tokens if t in model.vocab], dtype=np.int64)
    if words.size == 0:
        return np.full(model.k, 1.0 / model.k)

    burn_in = iterations // 2
    rng = np.random.default_rng(seed)
    k = model.k
    v_beta = model.vocab_size * model.beta
    phi_den = model.n_t + v_beta
    zs = rng.integers(0, k, size=words.size)
    n_loc = np.zeros(k, dtype=np.int64)
    np.add.at(n_loc, zs, 1)

    total = np.zeros(k)
    kept = 0
    for sweep in range(iterations):
        for j in range(words.size):
            w = words[j]
            n_loc[zs[j]] -= 1
            p = (n_loc + model.alpha) * (model.n_tw[:, w] + model.beta) / phi_den
            cum = np.cumsum(p)
            z = min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")), k - 1)
            zs[j] = z
            n_loc[z] += 1
        if sweep >= burn_in:
            total += (n_loc + model.alpha) / (words.size + k * model.alpha)
            kept += 1
    return total / kept


def majority_topic(
    model: LdaModel,
    tokens: list[str],
    iterations: int = 50,
    seed: int = 0,
) -> int:
    """Most probable inferred topic; ties resolve to the lowest id."""
    return int(np.argmax(infer_topics(model, tokens, iterations=iterations, seed=seed)))


def top_words(model: LdaModel, topic: int, n: int = 10) -> list[str]:
    """The topic's ``n`` highest-count words, count desc then lexicographic."""
    if not 0 <= topic < model.k:
        raise ValueError(f"topic {topic} out of range for k={model.k}")
    counts = model.n_tw[topic]
    items = sorted(model.vocab.items(), key=lambda kv: (-counts[kv[1]], kv[0]))
    return [w for w, _ in items[:n]]


def cluster_users(
    mention_lists: list[list[str]],
    k: int = 50,
    alpha: float | None = None,
    beta: float = 0.01,
    iterations: int = 1000,
    seed: int = 0,
) -> UserClusters:
    """Cluster users by treating each mention list as a document.

    A user's cluster is the topic that generated them most often, ties
    to the lowest topic id.  Every user seen in any list gets a cluster.
    """
    model = train_gibbs(
        mention_lists, k=k, alpha=alpha, beta=beta, iterations=iterations, seed=seed
    )
    cluster_of = {
        user: int(np.argmax(model.n_tw[:, idx])) for user, idx in model.vocab.items()
    }
    return UserClusters(k=k, cluster_of=cluster_of)


def save_clusters(clusters: UserClusters, path: str) -> None:
    """User-to-cluster TSV; the first line records k as ``#k<TAB>N``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#k\t{clusters.k}\n")
        for user in sorted(clusters.cluster_of):
            fh.write(f"{user}\t{clusters.cluster_of[user]}\n")


def load_clusters(path: str) -> UserClusters:
    cluster_of: dict[str, int] = {}
    k: int | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if fields[0] == "#k":
                if len(fields) != 2 or not fields[1].isdigit():
                    raise DataError(f"{path}:{lineno}: bad cluster count header")
                k = int(fields[1])
                continue
            if len(fields) != 2:
                raise DataError(f"{path}:{lineno}: expected 'user<TAB>cluster'")
            try:
                cluster_of[fields[0]] = int(fields[1])
            except ValueError:
                raise DataError(f"{path}:{lineno}: cluster id is not an integer") from None
    if k is None:
        raise DataError(f"{path}: missing '#k' header line")
    bad = [u for u, c in cluster_of.items() if not 0 <= c < k]
    if bad:
        raise DataError(f"{path}: cluster id out of range for user {bad[0]!r}")
    return UserClusters(k=k, cluster_of=cluster_of)


def save_model(model: LdaModel, path: str) -> None:
    """Write the inference snapshot (counts, vocab, priors) as JSON."""
    vocab_list = [None] * model.vocab_size
    for tok, idx in model.vocab.items():
        vocab_list[idx] = tok
    payload = {
        "format": _FORMAT,
        "version": _VERSION,
        "k": model.k,
        "alpha": model.alpha,
        "beta": model.beta,
        "seed": model.seed,
        "vocab": vocab_list,
        "n_tw": model.n_tw.tolist(),
        "n_t": model.n_t.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False)
        fh.write("\n")


def load_model(path: str) -> LdaModel:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not a topic model file ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise DataError(f"{path}: not a topic model file")
    if payload.get("version") != _VERSION:
        raise DataError(f"{path}: unsupported model version {payload.get('version')!r}")
    words = require(payload, "vocab", (list,), path, items=(str,))
    vocab = {tok: i for i, tok in enumerate(words)}
    k = require(payload, "k", (int,), path)
    n_tw = _count_array(payload, "n_tw", path)
    n_t = _count_array(payload, "n_t", path)
    if n_tw.shape != (k, len(vocab)) or n_t.shape != (k,):
        raise DataError(f"{path}: count shapes disagree with k and vocabulary")
    return LdaModel(
        k=k,
        alpha=float(require(payload, "alpha", NUMBER, path)),
        beta=float(require(payload, "beta", NUMBER, path)),
        vocab=vocab,
        n_tw=n_tw,
        n_t=n_t,
        seed=require(payload, "seed", (int,), path),
    )


def _count_array(payload: dict, key: str, path: str) -> np.ndarray:
    values = require(payload, key, (list,), path)
    try:
        counts = np.array(values)
    except ValueError:
        raise DataError(f"{path}: {key!r} is not a rectangular array") from None
    if counts.size and counts.dtype.kind not in "iu":
        raise DataError(f"{path}: {key!r} holds non-integer counts")
    return counts.astype(np.int64)
