"""Linear SVM baseline over idf-weighted mean embeddings.

Multiclass Weston-Watkins hinge loss trained by plain SGD with L2
shrinkage.  Deliberately simple: it exists to give the network a floor
to beat, and to rank which tokens matter per class.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .embed import EmbeddingTable, IdfTable, idf_weighted_vector
from .textprep import TokenizedTweet


@dataclass
class LinearModel:
    classes: tuple
    weights: np.ndarray  # (n_classes, dim + 1), last column is the bias

    @property
    def dim(self) -> int:
        return self.weights.shape[1] - 1


def train_linear(
    features: np.ndarray,
    labels: list,
    l2: float = 1e-4,
    epochs: int = 50,
    lr: float = 0.01,
    seed: int = 0,
) -> LinearModel:
    """SGD on the Weston-Watkins multiclass hinge.

    Every example whose margin over the true class is violated pushes
    the violating class down and the true class up.  L2 decay shrinks
    weights (not biases) before each update; the shrink factor is
    clipped at zero so an absurd l2 collapses weights instead of
    exploding them.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(labels):
        raise ValueError("features must be a 2-d array aligned with labels")
    classes = tuple(sorted(set(labels), key=str))
    if len(classes) < 2:
        raise ValueError(f"need at least 2 classes, got {len(classes)}")
    if l2 < 0 or lr <= 0 or epochs < 1:
        raise ValueError("l2 must be >= 0, lr > 0, epochs >= 1")
    index = {c: i for i, c in enumerate(classes)}
    y = np.array([index[lab] for lab in labels], dtype=np.int64)
    Xb = np.concatenate([X, np.ones((len(X), 1))], axis=1)
    W = np.zeros((len(classes), Xb.shape[1]))
    shrink = max(0.0, 1.0 - lr * l2)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(len(Xb))
        for i in order:
            x = Xb[i]
            scores = W @ x
            margins = scores - scores[y[i]] + 1.0
            margins[y[i]] = 0.0
            violated = np.flatnonzero(margins > 0.0)
            W[:, :-1] *= shrink
            if violated.size:
                W[violated] -= lr * x
                W[y[i]] += lr * violated.size * x
    return LinearModel(classes=classes, weights=W)


def predict(model: LinearModel, feature: np.ndarray) -> object:
    """Highest-scoring class; ties go to the first class in order."""
    feature = np.asarray(feature, dtype=np.float64)
    if feature.shape != (model.dim,):
        raise ValueError(f"feature has shape {feature.shape}, model expects ({model.dim},)")
    scores = model.weights @ np.concatenate([feature, [1.0]])
    return model.classes[int(np.argmax(scores))]


def predict_many(model: LinearModel, features: np.ndarray) -> list:
    return [predict(model, f) for f in np.asarray(features, dtype=np.float64)]


def featurize(
    tweets: list[TokenizedTweet], table: EmbeddingTable, idf: IdfTable
) -> np.ndarray:
    """Idf-weighted mean embedding per tweet, (n, dim)."""
    if not tweets:
        return np.zeros((0, table.dim))
    # One batched lookup draws every unknown token's buckets at once.
    table.embed_tokens(list(dict.fromkeys(tok for t in tweets for tok in t.tokens)))
    return np.stack([idf_weighted_vector(table, idf, t) for t in tweets])


def top_terms(
    tweets: list[TokenizedTweet],
    labels: list,
    idf: IdfTable,
    n: int = 10,
) -> dict:
    """Most characteristic tokens per class: count times idf.

    Ranking is score descending, then token ascending, so equal scores
    come out in a stable order.
    """
    by_class: dict = {}
    for tweet, label in zip(tweets, labels):
        by_class.setdefault(label, Counter()).update(tweet.tokens)
    out: dict = {}
    for label, counts in by_class.items():
        scored = [(tok, cnt * idf.idf(tok)) for tok, cnt in counts.items()]
        scored.sort(key=lambda kv: (-kv[1], kv[0]))
        out[label] = [tok for tok, _ in scored[:n]]
    return out
