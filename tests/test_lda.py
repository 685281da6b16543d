import hashlib
import os
import re
import subprocess
import sys
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


@pytest.fixture
def checked_sweeps(monkeypatch):
    """Check the sampler's count invariants after every training sweep.

    Wraps ``lda._sweep``; after each call whose global counts are
    writable (training, not fold-in) it asserts that no count is
    negative, that the word-topic columns sum to the topic totals, that
    each document's topic counts sum to its length, that the cached
    floats equal their counts plus ``beta`` and ``v_beta`` exactly, that
    the smoothing-only weights equal ``(alpha * beta) / c_t`` exactly and
    that each word's held topics are exactly its nonzero counts.
    Yields the list of checked calls.
    """
    sweep = lda._sweep
    checked = []

    def wrapper(docs, zs, n_dt, n_wt, b_wt, held, n_t, c_t, s_t, alpha, beta, v_beta, draws):
        sweep(docs, zs, n_dt, n_wt, b_wt, held, n_t, c_t, s_t, alpha, beta, v_beta, draws)
        if n_wt is None:
            return
        nd, nw, nt = np.array(n_dt), np.array(n_wt), np.array(n_t)
        assert (nd >= 0).all() and (nw >= 0).all() and (nt >= 0).all(), "negative count"
        assert (nw.sum(axis=0) == nt).all(), "topic totals out of sync"
        assert (nd.sum(axis=1) == [len(doc) for doc in docs]).all(), "doc totals out of sync"
        assert (np.array(b_wt) == nw + beta).all(), "stale word-topic floats"
        assert (np.array(c_t) == nt + v_beta).all(), "stale topic-total floats"
        assert s_t == [(alpha * beta) / c for c in c_t], "stale smoothing-only weights"
        assert held == [{t for t, c in enumerate(row) if c > 0} for row in n_wt], "stale held topics"
        checked.append(len(draws))

    monkeypatch.setattr(lda, "_sweep", wrapper)
    return checked


class TestSweepInvariants:
    def test_train_gibbs_planted_topics(self, checked_sweeps):
        docs, _ = planted_topic_docs(60, seed=1)
        train_gibbs(docs, k=3, iterations=25, seed=0)
        assert checked_sweeps == [sum(map(len, docs))] * 25

    def test_cluster_users_cliques(self, checked_sweeps):
        from tweetxfer.corpus import extract_mention_lists

        tweets, _ = clique_mentions(n_cliques=5, users_per_clique=8, n_tweets=200, seed=4)
        lists = extract_mention_lists(tweets, min_mentions=2, min_user_freq=1)
        cluster_users(lists, k=50, iterations=20, seed=3)
        assert len(checked_sweeps) == 20


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

    @pytest.mark.parametrize("alpha,beta", [
        (np.inf, 0.01), (np.nan, 0.01), (0.5, np.inf), (0.5, np.nan),
    ])
    def test_non_finite_priors_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match="alpha and beta must be positive and finite"):
            train_gibbs([["a"], ["b"]], k=2, alpha=alpha, beta=beta, iterations=1)


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

    def test_fold_in_leaves_counts_untouched(self):
        from tweetxfer.fixtures import raw_from_docs
        from tweetxfer.transfer import build_topic_task

        model = self._model()
        before = (model.n_tw.tobytes(), model.n_t.tobytes())
        docs, _ = planted_topic_docs(20, seed=9)
        for doc in docs:
            infer_topics(model, doc, iterations=10, seed=0)
        build_topic_task(raw_from_docs(docs), model, frozenset(), infer_iterations=10, seed=0)
        assert (model.n_tw.tobytes(), model.n_t.tobytes()) == before

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

    @pytest.mark.parametrize(
        "edit,needle",
        [
            (lambda p: p.__setitem__("n_tw", [[-5] * len(p["n_tw"][0])] + p["n_tw"][1:]), "negative"),
            (lambda p: p["n_t"].__setitem__(0, -1), "negative"),
            (lambda p: p["n_t"].__setitem__(0, p["n_t"][0] + 1), "'n_t' disagree"),
            (lambda p: p["n_tw"][1].__setitem__(0, p["n_tw"][1][0] + 1), "'n_t' disagree"),
            (lambda p: p.update(alpha=0.0), "alpha and beta"),
            (lambda p: p.update(beta=-0.01), "alpha and beta"),
        ],
    )
    def test_inconsistent_counts_rejected(self, tmp_path, edit, needle):
        import json

        path = tmp_path / "m.json"
        save_model(self._model(), str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match=f"m.json: .*{needle}"):
            load_model(str(path))

    @pytest.mark.parametrize("k", [1, 0, -2])
    def test_fewer_than_two_topics_rejected(self, tmp_path, k):
        """``train_gibbs`` refuses k < 2, so no such model file is valid,
        even one whose counts agree with its k."""
        import json

        path = tmp_path / "m.json"
        save_model(self._model(), str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload.update(k=k, n_tw=payload["n_tw"][:max(k, 0)], n_t=payload["n_t"][:max(k, 0)])
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match=f"m.json: k must be at least 2, got {k}"):
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

    @pytest.mark.parametrize("count", ["\u00b2", "\u0663", "", "-2", "2 "])
    def test_cluster_count_header_takes_ascii_digits_only(self, tmp_path, count):
        path = tmp_path / "c.tsv"
        path.write_text(f"#k\t{count}\nuA\t0\n", encoding="utf-8")
        message = f"^{re.escape(str(path))}:1: bad cluster count header$"
        with pytest.raises(DataError, match=message):
            load_clusters(str(path))

    @pytest.mark.parametrize(
        "line,problem",
        [
            ("uA\t٣", "cluster id must be ASCII digits"),
            ("uA\t +2", "cluster id must be ASCII digits"),
            ("uA\t-1", "cluster id must be ASCII digits"),
            ("\t1", "empty user name"),
            ("uB\t1", "user 'uB' listed twice"),
            ("#k\t4", "second cluster count header"),
        ],
        ids=[
            "arabic-indic-digit", "padded-sign", "negative", "empty-user", "duplicate-user",
            "second-header",
        ],
    )
    def test_cluster_lines_rejected(self, tmp_path, line, problem):
        path = tmp_path / "c.tsv"
        path.write_text(f"#k\t4\nuB\t0\n{line}\n", encoding="utf-8")
        message = f"^{re.escape(str(path))}:3: {re.escape(problem)}$"
        with pytest.raises(DataError, match=message):
            load_clusters(str(path))


def _reference_train(docs, k, alpha, beta, iterations, seed):
    """The per-token numpy sampler the sweep kernel replaced: (n_tw, n_t)."""
    vocab = {}
    for doc in docs:
        for tok in doc:
            vocab.setdefault(tok, len(vocab))
    docs_idx = [np.array([vocab[t] for t in doc], dtype=np.int64) for doc in docs]
    n_dt = np.zeros((len(docs), k), dtype=np.int64)
    n_tw = np.zeros((k, len(vocab)), dtype=np.int64)
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
    v_beta = len(vocab) * beta
    for _ in range(iterations):
        for d, words in enumerate(docs_idx):
            zs, row = assignments[d], n_dt[d]
            for j, w in enumerate(words):
                z = zs[j]
                row[z] -= 1
                n_tw[z, w] -= 1
                n_t[z] -= 1
                cum = np.cumsum((row + alpha) * (n_tw[:, w] + beta) / (n_t + v_beta))
                z = min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")), k - 1)
                zs[j] = z
                row[z] += 1
                n_tw[z, w] += 1
                n_t[z] += 1
    return n_tw, n_t


def _reference_infer(model, tokens, iterations, seed):
    """The per-token numpy fold-in the sweep kernel replaced."""
    words = np.array([model.vocab[t] for t in tokens if t in model.vocab], dtype=np.int64)
    rng = np.random.default_rng(seed)
    k = model.k
    phi_den = model.n_t + model.vocab_size * model.beta
    zs = rng.integers(0, k, size=words.size)
    n_loc = np.zeros(k, dtype=np.int64)
    np.add.at(n_loc, zs, 1)
    total, kept = np.zeros(k), 0
    for sweep in range(iterations):
        for j, w in enumerate(words):
            n_loc[zs[j]] -= 1
            p = (n_loc + model.alpha) * (model.n_tw[:, w] + model.beta) / phi_den
            cum = np.cumsum(p)
            z = min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")), k - 1)
            zs[j] = z
            n_loc[z] += 1
        if sweep >= iterations // 2:
            total += (n_loc + model.alpha) / (words.size + k * model.alpha)
            kept += 1
    return total / kept


class TestSamplePath:
    """Exact outputs of the sampler, pinned so any drift in the samples fails.

    The pinned values were recorded from the per-token numpy sampler
    that the list-based sweep kernel replaced, kept above as
    ``_reference_train`` and ``_reference_infer``.
    """

    def _model(self):
        docs, _ = planted_topic_docs(30, seed=6)
        return train_gibbs(docs, k=3, iterations=15, seed=2)

    def test_train_counts_pinned(self):
        model = self._model()
        digest = hashlib.sha256(model.n_tw.tobytes() + model.n_t.tobytes()).hexdigest()
        assert model.n_t.tolist() == [114, 112, 100]
        assert digest == "bebbdb2abde0e13ca186f59d89a842ade4f6b74a6b83ba9ff6c00f751ff566f9"

    def test_cluster_users_pinned(self):
        from tweetxfer.corpus import extract_mention_lists

        tweets, _ = clique_mentions(n_cliques=5, users_per_clique=8, n_tweets=200, seed=4)
        lists = extract_mention_lists(tweets, min_mentions=2, min_user_freq=1)
        clusters = cluster_users(lists, k=50, iterations=20, seed=3)
        assert clusters.cluster_of == {
            "u0a": 17, "u0b": 34, "u0c": 38, "u0d": 32, "u0e": 41, "u0f": 10, "u0g": 37, "u0h": 42,
            "u1a": 11, "u1b": 46, "u1c": 35, "u1d": 49, "u1e": 45, "u1f": 30, "u1g": 49, "u1h": 9,
            "u2a": 28, "u2b": 28, "u2c": 7, "u2d": 2, "u2e": 22, "u2f": 18, "u2g": 27, "u2h": 0,
            "u3a": 44, "u3b": 7, "u3c": 6, "u3d": 23, "u3e": 7, "u3f": 25, "u3g": 13, "u3h": 29,
            "u4a": 47, "u4b": 48, "u4c": 31, "u4d": 1, "u4e": 12, "u4f": 8, "u4g": 20, "u4h": 31,
        }

    def test_infer_topics_pinned(self):
        model = self._model()
        toks = list(model.vocab)[:6] + ["unseen"] + list(model.vocab)[2:4]
        dist = infer_topics(model, toks, iterations=20, seed=1)
        expected = ["0x1.7b425ed097b42p-3", "0x1.2e759203cae76p-1", "0x1.cae759203cae8p-3"]
        assert [float(x).hex() for x in dist] == expected

    @pytest.mark.parametrize(
        "k,alpha,seed", [(2, None, 0), (7, 0.3, 5), (50, None, 11), (200, None, 13)]
    )
    def test_matches_numpy_reference(self, k, alpha, seed):
        docs, _ = planted_topic_docs(25, seed=seed + 20)
        model = train_gibbs(docs, k=k, alpha=alpha, beta=0.05, iterations=6, seed=seed)
        n_tw, n_t = _reference_train(docs, k, model.alpha, 0.05, 6, seed)
        np.testing.assert_array_equal(model.n_tw, n_tw)
        np.testing.assert_array_equal(model.n_t, n_t)
        fresh, _ = planted_topic_docs(4, seed=seed + 40)
        for doc in fresh:
            expected = _reference_infer(model, doc + ["unseen"], 9, seed)
            assert infer_topics(model, doc + ["unseen"], iterations=9, seed=seed).tobytes() == (
                expected.tobytes()
            )

    @pytest.mark.parametrize("k,seed", [(2, 0), (50, 11), (200, 13)])
    def test_one_known_word_matches_numpy_reference(self, k, seed):
        """Fold-in where every word but one is unseen: the document's
        topics and the word's few held topics are all that move."""
        docs, _ = planted_topic_docs(25, seed=seed + 20)
        model = train_gibbs(docs, k=k, beta=0.05, iterations=6, seed=seed)
        for word in list(model.vocab)[:3]:
            doc = ["nie", "gesehen", word, "unseen", "quux"]
            expected = _reference_infer(model, doc, 9, seed)
            assert infer_topics(model, doc, iterations=9, seed=seed).tobytes() == expected.tobytes()

    def test_optimized_python_samples_the_same(self):
        """``python -O`` strips asserts; the counts it samples are the same."""
        script = (
            "import hashlib\n"
            "from tweetxfer.fixtures import planted_topic_docs\n"
            "from tweetxfer.lda import train_gibbs\n"
            "m = train_gibbs(planted_topic_docs(30, seed=6)[0], k=3, iterations=15, seed=2)\n"
            "print(__debug__, hashlib.sha256(m.n_tw.tobytes() + m.n_t.tobytes()).hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(lda.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout.split()
        model = self._model()
        digest = hashlib.sha256(model.n_tw.tobytes() + model.n_t.tobytes()).hexdigest()
        assert out == ["False", digest]
