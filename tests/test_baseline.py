import math

import numpy as np
import pytest

from tweetxfer.baseline import (
    LinearModel,
    featurize,
    predict,
    predict_many,
    top_terms,
    train_linear,
)
from tweetxfer.embed import EmbeddingTable, compute_idf, idf_weighted_vector
from tweetxfer.textprep import TokenizedTweet


def _blobs(n_per_class, seed=0):
    """Two well-separated Gaussian blobs in 4 dimensions."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.3, (n_per_class, 4)) + np.array([2, 0, 0, 0])
    b = rng.normal(0.0, 0.3, (n_per_class, 4)) + np.array([-2, 0, 0, 0])
    X = np.concatenate([a, b])
    y = ["pos"] * n_per_class + ["neg"] * n_per_class
    return X, y


class TestTrainLinear:
    def test_separates_blobs(self):
        X, y = _blobs(30, seed=1)
        model = train_linear(X, y, epochs=20, seed=0)
        assert predict_many(model, X) == y

    def test_classes_sorted_by_string(self):
        X, y = _blobs(5, seed=2)
        model = train_linear(X, y, epochs=2)
        assert model.classes == ("neg", "pos")
        model_int = train_linear(X, [1, 0] * 5, epochs=2)
        assert model_int.classes == (0, 1)

    def test_one_epoch_matches_hand_stepped_updates(self):
        """Replay the per-example hinge updates with explicit loops.

        From W = 0 every wrong class violates the margin, so the true
        class gains violated * lr * x and each violator loses lr * x.
        """
        rng = np.random.default_rng(17)
        X = rng.normal(size=(2, 3))
        labels = ["a", "b"]
        lr = 0.1
        model = train_linear(X, labels, epochs=1, lr=lr, l2=0.0, seed=5)

        y = np.array([0, 1])
        Xb = np.concatenate([X, np.ones((2, 1))], axis=1)
        W = np.zeros((2, 4))
        order = np.random.default_rng(5).permutation(2)
        for i in order:
            scores = W @ Xb[i]
            violated = [
                j for j in range(2)
                if j != y[i] and scores[j] - scores[y[i]] + 1.0 > 0.0
            ]
            for j in violated:
                W[j] -= lr * Xb[i]
            W[y[i]] += lr * len(violated) * Xb[i]
        np.testing.assert_allclose(model.weights, W, atol=1e-15)

    def test_l2_shrinks_weights(self):
        X, y = _blobs(20, seed=3)
        small = train_linear(X, y, l2=1e-6, epochs=10, seed=0)
        large = train_linear(X, y, l2=50.0, epochs=10, seed=0)
        norm_small = np.linalg.norm(small.weights[:, :-1])
        norm_large = np.linalg.norm(large.weights[:, :-1])
        assert norm_large < norm_small

    def test_extreme_l2_clips_instead_of_exploding(self):
        X, y = _blobs(5, seed=4)
        model = train_linear(X, y, l2=1e9, lr=0.01, epochs=3)
        assert np.isfinite(model.weights).all()

    def test_deterministic(self):
        X, y = _blobs(15, seed=5)
        a = train_linear(X, y, epochs=5, seed=9)
        b = train_linear(X, y, epochs=5, seed=9)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_hinge_objective_improves(self):
        """Compare start and end of training on the hinge objective,
        computed here from scratch."""

        def objective(W, X, y_idx):
            Xb = np.concatenate([X, np.ones((len(X), 1))], axis=1)
            scores = Xb @ W.T
            true = scores[np.arange(len(y_idx)), y_idx]
            m = np.maximum(0.0, scores - true[:, None] + 1.0)
            m[np.arange(len(y_idx)), y_idx] = 0.0
            return m.sum(axis=1).mean()

        X, y = _blobs(25, seed=6)
        y_idx = np.array([0 if lab == "neg" else 1 for lab in y])
        at_zero = objective(np.zeros((2, 5)), X, y_idx)
        model = train_linear(X, y, l2=1e-4, epochs=15, seed=0)
        trained = objective(model.weights, X, y_idx)
        assert trained < at_zero

    def test_validation(self):
        X, y = _blobs(4)
        with pytest.raises(ValueError):
            train_linear(X, y[:-1])
        with pytest.raises(ValueError):
            train_linear(X, ["same"] * len(X))
        with pytest.raises(ValueError):
            train_linear(X, y, l2=-1.0)
        with pytest.raises(ValueError):
            train_linear(X, y, epochs=0)
        with pytest.raises(ValueError):
            train_linear(X.ravel(), y)


class TestPredict:
    def test_tie_goes_to_first_class(self):
        model = LinearModel(classes=("a", "b"), weights=np.zeros((2, 4)))
        assert predict(model, np.ones(3)) == "a"

    def test_dim_checked(self):
        model = LinearModel(classes=("a", "b"), weights=np.zeros((2, 4)))
        with pytest.raises(ValueError):
            predict(model, np.ones(5))

    def test_linear_scores_decide(self):
        weights = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        model = LinearModel(classes=("x", "y"), weights=weights)
        assert predict(model, np.array([2.0, 0.0])) == "x"
        assert predict(model, np.array([-2.0, 0.0])) == "y"


class TestFeaturize:
    def test_shapes_and_content(self):
        table = EmbeddingTable(
            dim=2, word_vectors={"rot": np.array([1.0, 0.0]), "blau": np.array([0.0, 1.0])}
        )
        docs = [
            TokenizedTweet(("rot",)),
            TokenizedTweet(("blau",)),
            TokenizedTweet(("rot", "blau")),
        ]
        idf = compute_idf(docs)
        X = featurize(docs, table, idf)
        assert X.shape == (3, 2)
        w = math.log(3 / 2)
        np.testing.assert_allclose(X[2], (w * np.array([1.0, 0.0]) + w * np.array([0.0, 1.0])) / (2 * w))

    def test_oov_rows_equal_per_tweet_lookups(self):
        """Warming the table in one batch changes no bit of any row."""
        docs = [
            TokenizedTweet(("rot", "zug", "verspätung")),
            TokenizedTweet(("zug",)),
            TokenizedTweet(("bahnhof", "rot", "zug", "x")),
            TokenizedTweet(()),
        ]
        idf = compute_idf(docs)

        def table():
            return EmbeddingTable(dim=6, word_vectors={"rot": np.arange(6.0)}, seed=3)

        fresh = table()
        want = np.stack([idf_weighted_vector(fresh, idf, d) for d in docs])
        assert featurize(docs, table(), idf).tobytes() == want.tobytes()

    def test_empty_input(self):
        table = EmbeddingTable(dim=5, word_vectors={})
        idf = compute_idf([TokenizedTweet(("x",))])
        assert featurize([], table, idf).shape == (0, 5)


class TestTopTerms:
    def test_count_times_idf_ranking(self):
        docs = [
            TokenizedTweet(("mist", "mist", "tag")),
            TokenizedTweet(("tag", "sonne")),
            TokenizedTweet(("tag", "regen")),
        ]
        labels = ["bad", "good", "good"]
        idf = compute_idf(docs)
        terms = top_terms(docs, labels, idf, n=2)
        # "tag" occurs everywhere: idf 0, never characteristic
        assert terms["bad"][0] == "mist"
        assert "tag" not in terms["bad"][:1]
        assert set(terms["good"]) == {"regen", "sonne"}

    def test_tie_breaks_lexicographically(self):
        docs = [TokenizedTweet(("zeta", "alpha")), TokenizedTweet(("nur",))]
        labels = ["x", "y"]
        idf = compute_idf(docs)
        terms = top_terms(docs, labels, idf, n=5)
        assert terms["x"] == ["alpha", "zeta"]

    def test_n_limits_output(self):
        docs = [TokenizedTweet(tuple(f"w{i}" for i in range(20)))]
        idf = compute_idf(docs + [TokenizedTweet(("other",))])
        terms = top_terms(docs, ["only"], idf, n=3)
        assert len(terms["only"]) == 3
