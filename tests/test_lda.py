import numpy as np
import pytest

from tweetxfer import lda
from tweetxfer.errors import DataError
from tweetxfer.fixtures import clique_mentions, planted_topic_docs
from tweetxfer.lda import (
    LdaModel,
    UserClusters,
    cluster_users,
    infer_topics,
    load_clusters,
    load_model,
    majority_topic,
    save_clusters,
    save_model,
    top_words,
    train_gibbs,
)


def _word_topic_purity(model, truth_by_prefix):
    """Share of vocabulary words whose argmax topic matches the planted
    topic, under the best one-to-one relabeling (2 topics: id or flip)."""
    assigned = {w: int(np.argmax(model.n_tw[:, i])) for w, i in model.vocab.items()}
    truth = {w: truth_by_prefix(w) for w in assigned}
    same = sum(assigned[w] == truth[w] for w in assigned)
    flipped = sum(assigned[w] == 1 - truth[w] for w in assigned)
    return max(same, flipped) / len(assigned)


class TestTrainGibbs:
    def test_count_invariants(self):
        docs, _ = planted_topic_docs(60, seed=1)
        model = train_gibbs(docs, k=2, iterations=30, seed=0)
        total_tokens = sum(len(d) for d in docs)
        assert model.n_tw.shape == (2, len(model.vocab))
        assert (model.n_tw >= 0).all()
        np.testing.assert_array_equal(model.n_tw.sum(axis=1), model.n_t)
        assert model.n_t.sum() == total_tokens

    def test_vocab_first_occurrence_order(self):
        docs = [["b", "a"], ["a", "c"]]
        model = train_gibbs(docs, k=2, iterations=2, seed=0)
        assert model.vocab == {"b": 0, "a": 1, "c": 2}

    def test_deterministic_given_seed(self):
        docs, _ = planted_topic_docs(40, seed=2)
        a = train_gibbs(docs, k=2, iterations=20, seed=7)
        b = train_gibbs(docs, k=2, iterations=20, seed=7)
        np.testing.assert_array_equal(a.n_tw, b.n_tw)
        np.testing.assert_array_equal(a.n_t, b.n_t)
        assert a.vocab == b.vocab

    def test_seed_changes_counts(self):
        docs, _ = planted_topic_docs(40, seed=2)
        a = train_gibbs(docs, k=2, iterations=20, seed=0)
        b = train_gibbs(docs, k=2, iterations=20, seed=1)
        assert not np.array_equal(a.n_tw, b.n_tw)

    def test_alpha_defaults_to_ten_over_k(self):
        docs = [["a", "b"], ["b", "c"]]
        model = train_gibbs(docs, k=4, iterations=1, seed=0)
        assert model.alpha == pytest.approx(2.5)

    def test_recovers_planted_topics(self):
        from tweetxfer.fixtures import token_majority_topic

        docs, topics = planted_topic_docs(120, seed=3)
        model = train_gibbs(docs, k=2, iterations=100, seed=0)
        purity = _word_topic_purity(
            model, lambda w: token_majority_topic([w])
        )
        assert purity >= 0.95

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            train_gibbs([["a"]], k=1)
        with pytest.raises(ValueError):
            train_gibbs([["a"], ["b"]], k=2, iterations=0)
        with pytest.raises(DataError):
            train_gibbs([], k=2)
        with pytest.raises(DataError):
            train_gibbs([["a"], []], k=2)
        with pytest.raises(ValueError):
            train_gibbs([["a"], ["b"]], k=2, alpha=-1.0)


class TestInference:
    def _model(self):
        docs, _ = planted_topic_docs(80, seed=4)
        return train_gibbs(docs, k=2, iterations=60, seed=0)

    def test_distribution_is_normalized(self):
        model = self._model()
        rng = np.random.default_rng(41)
        words = list(model.vocab)
        for _ in range(20):
            toks = [words[int(rng.integers(0, len(words)))] for _ in range(6)]
            dist = infer_topics(model, toks, iterations=20, seed=0)
            assert dist.shape == (2,)
            assert (dist >= 0).all()
            assert dist.sum() == pytest.approx(1.0)

    def test_oov_only_doc_is_uniform(self):
        model = self._model()
        dist = infer_topics(model, ["nie", "gesehen"], iterations=10, seed=0)
        np.testing.assert_allclose(dist, [0.5, 0.5])
        assert majority_topic(model, ["nie", "gesehen"]) == 0

    def test_pure_docs_split_by_planted_topic(self):
        model = self._model()
        docs, topics = planted_topic_docs(30, seed=5)
        labels = [majority_topic(model, d, iterations=30, seed=0) for d in docs]
        by_topic = {0: set(), 1: set()}
        for lab, topic in zip(labels, topics):
            by_topic[topic].add(lab)
        # each planted topic maps to exactly one model topic, and they differ
        assert len(by_topic[0]) == 1 and len(by_topic[1]) == 1
        assert by_topic[0] != by_topic[1]

    def test_deterministic(self):
        model = self._model()
        toks = list(model.vocab)[:5]
        a = infer_topics(model, toks, iterations=25, seed=3)
        b = infer_topics(model, toks, iterations=25, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_iterations_must_be_positive(self):
        model = self._model()
        with pytest.raises(ValueError):
            infer_topics(model, ["x"], iterations=0)


class TestTopWords:
    def test_ranking_with_count_then_lexicographic(self):
        vocab = {"b": 0, "a": 1, "c": 2}
        n_tw = np.array([[5, 5, 1], [0, 0, 9]], dtype=np.int64)
        model = LdaModel(
            k=2, alpha=5.0, beta=0.01, vocab=vocab,
            n_tw=n_tw, n_t=n_tw.sum(axis=1), seed=0,
        )
        assert top_words(model, 0, n=3) == ["a", "b", "c"]
        assert top_words(model, 1, n=2) == ["c", "a"]

    def test_topic_range_checked(self):
        vocab = {"a": 0}
        n_tw = np.array([[1], [1]], dtype=np.int64)
        model = LdaModel(2, 5.0, 0.01, vocab, n_tw, n_tw.sum(axis=1), 0)
        with pytest.raises(ValueError):
            top_words(model, 2)


class TestClusterUsers:
    def test_every_user_gets_a_cluster(self):
        tweets, truth = clique_mentions(n_cliques=2, users_per_clique=6, n_tweets=120, seed=1)
        from tweetxfer.corpus import extract_mention_lists

        lists = extract_mention_lists(tweets, min_mentions=2, min_user_freq=1)
        clusters = cluster_users(lists, k=2, iterations=100, seed=0)
        users_in_lists = {u for lst in lists for u in lst}
        assert set(clusters.cluster_of) == users_in_lists
        assert all(0 <= c < 2 for c in clusters.cluster_of.values())

    def test_recovers_cliques(self):
        tweets, truth = clique_mentions(n_cliques=2, users_per_clique=8, n_tweets=200, seed=2)
        from tweetxfer.corpus import extract_mention_lists

        lists = extract_mention_lists(tweets, min_mentions=2, min_user_freq=1)
        clusters = cluster_users(lists, k=2, iterations=200, seed=0)
        # best one-to-one mapping between 2 cliques and 2 clusters
        same = sum(clusters.cluster_of[u] == truth[u] for u in clusters.cluster_of)
        flip = sum(clusters.cluster_of[u] == 1 - truth[u] for u in clusters.cluster_of)
        purity = max(same, flip) / len(clusters.cluster_of)
        assert purity >= 0.95

    def test_deterministic(self):
        tweets, _ = clique_mentions(n_cliques=2, users_per_clique=5, n_tweets=80, seed=3)
        from tweetxfer.corpus import extract_mention_lists

        lists = extract_mention_lists(tweets, min_mentions=2, min_user_freq=1)
        a = cluster_users(lists, k=3, iterations=40, seed=5)
        b = cluster_users(lists, k=3, iterations=40, seed=5)
        assert a == b


class TestPersistence:
    def _model(self):
        docs, _ = planted_topic_docs(30, seed=6)
        return train_gibbs(docs, k=3, iterations=15, seed=2)

    def test_model_round_trip_exact(self, tmp_path):
        model = self._model()
        path = tmp_path / "m.json"
        save_model(model, str(path))
        back = load_model(str(path))
        assert back.k == model.k
        assert back.alpha == model.alpha and back.beta == model.beta
        assert back.seed == model.seed
        assert back.vocab == model.vocab
        np.testing.assert_array_equal(back.n_tw, model.n_tw)
        np.testing.assert_array_equal(back.n_t, model.n_t)
        assert back.n_tw.dtype == np.int64

    def test_round_trip_preserves_inference(self, tmp_path):
        model = self._model()
        path = tmp_path / "m.json"
        save_model(model, str(path))
        back = load_model(str(path))
        toks = list(model.vocab)[:4]
        np.testing.assert_array_equal(
            infer_topics(model, toks, iterations=20, seed=1),
            infer_topics(back, toks, iterations=20, seed=1),
        )

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(DataError, match="not a topic model"):
            load_model(str(path))
        path.write_text("garbage", encoding="utf-8")
        with pytest.raises(DataError):
            load_model(str(path))

    def test_version_check(self, tmp_path):
        import json

        model = self._model()
        path = tmp_path / "m.json"
        save_model(model, str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = 99
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match="version"):
            load_model(str(path))

    def test_shape_check(self, tmp_path):
        import json

        model = self._model()
        path = tmp_path / "m.json"
        save_model(model, str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["n_t"] = payload["n_t"][:-1]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError):
            load_model(str(path))

    @pytest.mark.parametrize(
        "key,value",
        [
            ("vocab", None),
            ("vocab", "abc"),
            ("vocab", [1, 2, 3]),
            ("k", "3"),
            ("k", True),
            ("alpha", "0.5"),
            ("beta", None),
            ("seed", 1.5),
            ("n_tw", None),
            ("n_tw", [[1, 2], [3]]),
            ("n_tw", [["a"]]),
            ("n_t", [0.5, 1.5, 2.5]),
        ],
    )
    def test_missing_or_mistyped_key_rejected(self, tmp_path, key, value):
        import json

        path = tmp_path / "m.json"
        save_model(self._model(), str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        if value is None:
            del payload[key]
        else:
            payload[key] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match=f"m.json: .*'{key}'"):
            load_model(str(path))

    def test_clusters_round_trip(self, tmp_path):
        clusters = UserClusters(k=4, cluster_of={"uB": 3, "uA": 0, "uC": 2})
        path = tmp_path / "c.tsv"
        save_clusters(clusters, str(path))
        assert load_clusters(str(path)) == clusters
        # header first, users sorted
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "#k\t4"
        assert lines[1:] == ["uA\t0", "uB\t3", "uC\t2"]

    def test_clusters_errors(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("uA\t0\n", encoding="utf-8")
        with pytest.raises(DataError, match="#k"):
            load_clusters(str(path))
        path.write_text("#k\t2\nuA\t5\n", encoding="utf-8")
        with pytest.raises(DataError, match="out of range"):
            load_clusters(str(path))
        path.write_text("#k\t2\nuA\tx\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_clusters(str(path))
