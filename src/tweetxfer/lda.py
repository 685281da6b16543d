"""Latent topics via collapsed Gibbs sampling.

One sampler serves two purposes: topic labels for unlabeled tweets
(documents are token lists) and user clusters (documents are the lists
of users a tweet mentions together, so users co-mentioned often end up
in the same topic).  Counts are integers throughout; the conditional for
a token excludes its own current assignment (Griffiths & Steyvers 2004).

Training and fold-in share one sweep kernel, ``_sweep``, over plain
lists: training lets it update the global counts, fold-in holds them
frozen.  It draws the same samples, bit for bit, as a per-token numpy
sampler with ``np.cumsum`` and ``np.searchsorted``.  A topic that holds
neither the token's document nor its word weighs ``(alpha * beta) /
(n_t + V * beta)``, the smoothing-only term of SparseLDA (Yao, Mimno &
McCallum 2009), and computing it so is the same IEEE operations as the
full conditional.  So each token copies one list of those weights and
recomputes only the topics its document or word holds, and its Python
work grows with those topics rather than with k.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import NUMBER, DataError, open_text, require

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


def _sweep(
    docs: list,
    zs: list[list[int]],
    n_dt: list[list[int]],
    n_wt: list[list[int]] | None,
    b_wt: list[list[float]],
    held: list,
    n_t: list[int] | None,
    c_t: list[float],
    s_t: list[float],
    alpha: float,
    beta: float,
    v_beta: float,
    draws: list[float],
) -> None:
    """Resample every token once: the one sampling loop of this module.

    ``docs[d]`` holds word ids, ``zs[d]`` their topics and ``n_dt[d]``
    the document's k topic counts.  ``n_wt[w]`` is word ``w``'s k topic
    counts, ``b_wt[w]`` the floats ``n_wt[w][t] + beta`` and ``held[w]``
    the topics ``t`` with ``n_wt[w][t] > 0``; ``n_t`` is the topic
    totals, ``c_t`` the floats ``n_t[t] + v_beta`` and ``s_t`` the
    smoothing-only weights ``(alpha * beta) / c_t[t]``.  With ``n_wt``
    and ``n_t`` None the global counts are frozen (fold-in) and
    ``b_wt``, ``held``, ``c_t`` and ``s_t`` are only read.  ``draws``
    holds one uniform per token, in document order.

    A token's weights are ``(n_dt + alpha) * (n_wt + beta) / (n_t +
    v_beta)``, summed with ``accumulate`` and searched with
    ``bisect_right``: the same IEEE operations, in the same order, as
    ``np.cumsum`` and ``np.searchsorted(side="right")`` on arrays, so
    samples match an array sampler bit for bit.  Where a topic holds
    neither the document nor the word, both counts are 0, and ``(0 +
    alpha) * (0 + beta) / c`` is ``(alpha * beta) / c`` as the same
    operations.  So each token starts from a copy of ``s_t`` and
    recomputes only the topics its document lives in or its word is
    held by (Yao, Mimno & McCallum 2009); a topic in both is computed
    twice, to the same value.  Its Python work grows with those topics,
    not with k.  Every cached float is recomputed from its integer
    count, never stepped by +-1.0.
    """
    top = len(c_t) - 1
    ab = alpha * beta
    draw = iter(draws).__next__
    frozen = n_wt is None
    for words, z_doc, nd in zip(docs, zs, n_dt):
        # Every topic with nd[t] > 0; it may also keep topics that emptied.
        live = set(z_doc)
        for j, w in enumerate(words):
            z = z_doc[j]
            b = b_wt[w]
            nd[z] -= 1
            if not frozen:
                row = n_wt[w]
                c = row[z] - 1
                row[z] = c
                b[z] = c + beta
                if not c:
                    held[w].discard(z)
                c = n_t[z] - 1
                n_t[z] = c
                c_t[z] = c = c + v_beta
                s_t[z] = ab / c
            wt = s_t[:]
            for t in live:
                wt[t] = (nd[t] + alpha) * b[t] / c_t[t]
            for t in held[w]:
                wt[t] = (nd[t] + alpha) * b[t] / c_t[t]
            cum = list(accumulate(wt))
            z = bisect_right(cum, draw() * cum[-1])
            if z > top:
                z = top
            z_doc[j] = z
            nd[z] += 1
            live.add(z)
            if not frozen:
                c = row[z] + 1
                row[z] = c
                b[z] = c + beta
                if c == 1:
                    held[w].add(z)
                c = n_t[z] + 1
                n_t[z] = c
                c_t[z] = c = c + v_beta
                s_t[z] = ab / c


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
    if not (0 < alpha < np.inf and 0 < beta < np.inf):
        raise ValueError("alpha and beta must be positive and finite")

    vocab: dict[str, int] = {}
    for doc in docs:
        for tok in doc:
            if tok not in vocab:
                vocab[tok] = len(vocab)
    docs_idx = [[vocab[tok] for tok in doc] for doc in docs]
    n_words = len(vocab)
    n_tokens = sum(map(len, docs_idx))

    rng = np.random.default_rng(seed)
    zs: list[list[int]] = []
    n_dt: list[list[int]] = []
    n_wt = [[0] * k for _ in range(n_words)]
    n_t = [0] * k
    for words in docs_idx:
        z_doc = rng.integers(0, k, size=len(words)).tolist()
        nd = [0] * k
        for w, z in zip(words, z_doc):
            nd[z] += 1
            n_wt[w][z] += 1
            n_t[z] += 1
        zs.append(z_doc)
        n_dt.append(nd)

    v_beta = n_words * beta
    b_wt = [[c + beta for c in row] for row in n_wt]
    held = [{t for t, c in enumerate(row) if c} for row in n_wt]
    c_t = [c + v_beta for c in n_t]
    s_t = [alpha * beta / c for c in c_t]
    for _ in range(iterations):
        draws = rng.random(n_tokens).tolist()
        _sweep(docs_idx, zs, n_dt, n_wt, b_wt, held, n_t, c_t, s_t, alpha, beta, v_beta, draws)

    n_tw = np.ascontiguousarray(np.array(n_wt, dtype=np.int64).T)
    return LdaModel(
        k=k, alpha=alpha, beta=beta, vocab=vocab,
        n_tw=n_tw, n_t=np.array(n_t, dtype=np.int64), seed=seed,
    )


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
    words = [model.vocab[t] for t in tokens if t in model.vocab]
    if not words:
        return np.full(model.k, 1.0 / model.k)

    burn_in = iterations // 2
    rng = np.random.default_rng(seed)
    k, n = model.k, len(words)
    v_beta = model.vocab_size * model.beta
    zs = rng.integers(0, k, size=n).tolist()
    n_loc = [0] * k
    for z in zs:
        n_loc[z] += 1
    # One frozen row per token position, so position j reads row j.
    counts = model.n_tw[:, words].T
    b_rows = (counts + model.beta).tolist()
    held = [np.flatnonzero(row).tolist() for row in counts]
    c_t = (model.n_t + v_beta).tolist()
    s_t = [model.alpha * model.beta / c for c in c_t]
    positions = [range(n)]

    total = np.zeros(k)
    kept = 0
    for sweep in range(iterations):
        draws = rng.random(n).tolist()
        _sweep(
            positions, [zs], [n_loc], None, b_rows, held, None, c_t, s_t,
            model.alpha, model.beta, v_beta, draws,
        )
        if sweep >= burn_in:
            total += (np.array(n_loc) + model.alpha) / (n + k * model.alpha)
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


def _ascii_int(text: str) -> int | None:
    """The value of a string of ASCII digits, else None: ``isdigit`` alone
    passes "²", and ``int`` takes "٣" and " +2"."""
    return int(text) if text.isascii() and text.isdigit() else None


def load_clusters(path: str) -> UserClusters:
    cluster_of: dict[str, int] = {}
    k: int | None = None
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if fields[0] == "#k":
                if k is not None:
                    raise DataError(f"{path}:{lineno}: second cluster count header")
                k = _ascii_int(fields[1]) if len(fields) == 2 else None
                if k is None:
                    raise DataError(f"{path}:{lineno}: bad cluster count header")
                continue
            if len(fields) != 2:
                raise DataError(f"{path}:{lineno}: expected 'user<TAB>cluster'")
            user, cluster = fields[0], _ascii_int(fields[1])
            if not user:
                raise DataError(f"{path}:{lineno}: empty user name")
            if user in cluster_of:
                raise DataError(f"{path}:{lineno}: user {user!r} listed twice")
            if cluster is None:
                raise DataError(f"{path}:{lineno}: cluster id must be ASCII digits")
            cluster_of[user] = cluster
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
    with open_text(path) as fh:
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
    if k < 2:
        raise DataError(f"{path}: k must be at least 2, got {k}")
    n_tw = _count_array(payload, "n_tw", path)
    n_t = _count_array(payload, "n_t", path)
    if n_tw.shape != (k, len(vocab)) or n_t.shape != (k,):
        raise DataError(f"{path}: count shapes disagree with k and vocabulary")
    if (n_tw < 0).any() or (n_t < 0).any():
        raise DataError(f"{path}: negative topic counts")
    if (n_tw.sum(axis=1) != n_t).any():
        raise DataError(f"{path}: topic totals 'n_t' disagree with the rows of 'n_tw'")
    alpha = float(require(payload, "alpha", NUMBER, path))
    beta = float(require(payload, "beta", NUMBER, path))
    # Fold-in weights must be positive for the sampler's search to be defined.
    if not (0 < alpha < np.inf and 0 < beta < np.inf):
        raise DataError(f"{path}: alpha and beta must be positive and finite")
    return LdaModel(
        k=k,
        alpha=alpha,
        beta=beta,
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
