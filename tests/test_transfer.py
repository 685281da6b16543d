import hashlib

import numpy as np
import pytest
from test_net import _gathered, _in_one_thread

from tweetxfer import lda, net, textprep, transfer
from tweetxfer.corpus import RawTweet
from tweetxfer.embed import EmbeddingTable
from tweetxfer.errors import DataError, TrainingError
from tweetxfer.fixtures import (
    comment_records,
    emoji_tweets,
    planted_topic_docs,
    raw_from_docs,
    save_comments,
    separable_labeled,
    stack_rows,
)
from tweetxfer.lda import UserClusters
from tweetxfer.transfer import (
    CommentAnnotation,
    CommentRecord,
    Phase,
    FreezeSchedule,
    build_category_task,
    build_emoji_task,
    build_topic_task,
    cluster_features_for,
    encode_labeled,
    encode_task,
    finetune,
    load_comments,
    make_schedule,
    metric_fn,
    predict_dataset,
    pretrain,
    replace_head,
)


def _table(dim=12, seed=0):
    return EmbeddingTable(dim=dim, word_vectors={}, seed=seed)


def _annotated(id, text, flags):
    anns = tuple(CommentAnnotation(inappropriate=a, discriminating=b) for a, b in flags)
    return CommentRecord(id=id, text=text, annotations=anns)


class TestCategoryTask:
    def test_strict_majority_on_either_flag(self):
        records = [
            # 2 of 3 inappropriate: offensive
            _annotated("a", "eins", [(True, False), (True, False), (False, False)]),
            # 1 of 2 is not a strict majority: clean
            _annotated("b", "zwei", [(True, False), (False, False)]),
            # discriminating majority alone suffices
            _annotated("c", "drei", [(False, True), (False, True), (False, False)]),
            # no flags: clean
            _annotated("d", "vier", [(False, False)]),
        ]
        task = build_category_task(records)
        assert task.kind == "category"
        assert task.label_space == ("offense", "other")
        assert [y for _, y in task.examples] == [0, 1, 0, 1]

    def test_texts_are_normalized_and_tokenized(self):
        records = [_annotated("a", "Hallo @Merkel!", [(False, False)])]
        task = build_category_task(records)
        tokens = task.examples[0][0].tokens
        assert tokens == ("hallo", "<user>", "!")

    def test_zero_annotators_rejected(self):
        with pytest.raises(DataError, match="no annotations"):
            build_category_task([CommentRecord("x", "text", ())])

    def test_planted_fixture_majorities(self):
        records = comment_records(60, seed=1)
        task = build_category_task(records)
        for rec, (_, label) in zip(records, task.examples):
            n = len(rec.annotations)
            inap = sum(a.inappropriate for a in rec.annotations)
            disc = sum(a.discriminating for a in rec.annotations)
            expected = 0 if (2 * inap > n or 2 * disc > n) else 1
            assert label == expected

    def test_round_trip_through_file(self, tmp_path):
        records = comment_records(20, seed=2)
        path = tmp_path / "c.jsonl"
        save_comments(records, str(path))
        assert load_comments(str(path)) == records

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n', encoding="utf-8")
        with pytest.raises(DataError, match="malformed"):
            load_comments(str(path))
        path.write_text("nope\n", encoding="utf-8")
        with pytest.raises(DataError, match="JSON"):
            load_comments(str(path))
        path.write_text('{"id": "a", "text": 5, "annotations": []}\n', encoding="utf-8")
        with pytest.raises(DataError, match=r"c\.jsonl:1: key 'text'"):
            load_comments(str(path))
        # A flag must be a JSON boolean: the string "false" is not false.
        for flag in ('"false"', '"no"', '"0"', "0", "1", "null"):
            ann = f'{{"inappropriate": {flag}, "discriminating": false}}'
            path.write_text(f'{{"id": "a", "text": "x", "annotations": [{ann}]}}\n')
            with pytest.raises(DataError, match=r"c\.jsonl:1: key 'inappropriate'"):
                load_comments(str(path))
        path.write_text('{"id": "a", "text": "x", "annotations": [{"inappropriate": true}]}\n')
        with pytest.raises(DataError, match=r"c\.jsonl:1: key 'discriminating'"):
            load_comments(str(path))
        path.write_text('{"id": "a", "text": "x", "annotations": []}\n', encoding="utf-8")
        with pytest.raises(DataError, match=r"c\.jsonl:1: comment 'a' has no annotations"):
            load_comments(str(path))

    @pytest.mark.parametrize("rid", ["null", "[1]", "5", "true"])
    def test_id_must_be_a_string(self, tmp_path, rid):
        path = tmp_path / "c.jsonl"
        ann = '{"inappropriate": false, "discriminating": false}'
        path.write_text(f'{{"id": {rid}, "text": "x", "annotations": [{ann}]}}\n')
        with pytest.raises(DataError, match=r"c\.jsonl:1: key 'id'"):
            load_comments(str(path))

    def test_repeated_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        ann = '{"inappropriate": false, "discriminating": false}'
        line = f'{{"id": "a", "text": "x", "annotations": [{ann}]}}\n'
        path.write_text(line + line.replace('"a"', '"b"') + line)
        with pytest.raises(DataError, match=r"c\.jsonl:3: duplicate id 'a'"):
            load_comments(str(path))


class TestEmojiTask:
    def test_example_count_matches_planted_emoji(self):
        tweets, expected = emoji_tweets(100, seed=3)
        task = build_emoji_task(tweets)
        assert len(task.examples) == expected

    def test_no_emoji_survive_in_tokens(self):
        tweets, _ = emoji_tweets(100, seed=4)
        task = build_emoji_task(tweets)
        for tokenized, _ in task.examples:
            for tok in tokenized.tokens:
                assert not any(textprep.is_emoji_char(c) for c in tok)

    def test_label_space_is_sorted_distinct(self):
        tweets, _ = emoji_tweets(100, seed=5)
        task = build_emoji_task(tweets)
        seen = sorted({e for t in tweets for e in t.emojis})
        assert list(task.label_space) == seen

    def test_multi_emoji_tweet_shares_token_sequence(self):
        tweets = [RawTweet("1", "guten morgen \U0001F600 \U0001F602", ("x",), ("\U0001F600", "\U0001F602"))]
        task = build_emoji_task(tweets)
        assert len(task.examples) == 2
        assert task.examples[0][0] is task.examples[1][0]
        labels = {task.label_space[y] for _, y in task.examples}
        assert labels == {"\U0001F600", "\U0001F602"}

    def test_emoji_free_tweets_skipped(self):
        tweets = [RawTweet("1", "kein symbol hier")]
        task = build_emoji_task(tweets)
        assert task.examples == ()
        with pytest.raises(DataError):
            encode_task(task, _table(), cluster_width=0)


class TestTopicTask:
    def test_labels_follow_planted_topics(self):
        docs, topics = planted_topic_docs(80, seed=6)
        model = lda.train_gibbs(docs, k=2, iterations=60, seed=0)
        task = build_topic_task(
            raw_from_docs(docs), model, frozenset(), infer_iterations=30, seed=0
        )
        assert task.label_space == ("0", "1")
        assert len(task.examples) == len(docs)
        labels_by_topic = {0: set(), 1: set()}
        for (tokenized, label), topic in zip(task.examples, topics):
            labels_by_topic[topic].add(label)
        assert labels_by_topic[0] != labels_by_topic[1]
        assert all(len(v) == 1 for v in labels_by_topic.values())

    def test_short_docs_skipped(self):
        docs, _ = planted_topic_docs(20, seed=7)
        model = lda.train_gibbs(docs, k=2, iterations=10, seed=0)
        tweets = raw_from_docs(docs) + [RawTweet("s", docs[0][0])]  # one meaningful token
        task = build_topic_task(tweets, model, frozenset(), infer_iterations=5, seed=0)
        assert len(task.examples) == len(docs)

    def test_tweets_without_known_words_skipped(self):
        """Fold-in ignores words outside the model's vocabulary, so only known
        words count toward the minimum; a tweet of unseen words gets no label."""
        docs, _ = planted_topic_docs(300, n_topics=3, seed=1)
        model = lda.train_gibbs(docs, k=3, iterations=20, seed=0)
        stems = [a + b for a in "abcdefghij" for b in "vwxyz"]
        unseen = [RawTweet(s, f"neu{s} fremd{s} unbekannt{s}") for s in stems]
        assert not any(tok in model.vocab for t in unseen for tok in t.text.split())
        task = build_topic_task(unseen, model, frozenset(), infer_iterations=5, seed=0)
        assert task.examples == ()
        # one known word is below the minimum as well, however many unseen words join it
        half = [RawTweet("h", f"{docs[0][0]} neuwort fremdwort")]
        assert build_topic_task(half, model, frozenset(), infer_iterations=5).examples == ()

    def test_stopwords_do_not_count_toward_minimum(self):
        docs, _ = planted_topic_docs(20, seed=8)
        model = lda.train_gibbs(docs, k=2, iterations=10, seed=0)
        stop = frozenset(docs[0][:2])
        tweets = [RawTweet("s", " ".join(docs[0][:3]))]
        if len(set(docs[0][:3]) - stop) < 2:
            task = build_topic_task(tweets, model, stop, infer_iterations=5, seed=0)
            assert task.examples == ()


class TestEncoding:
    def test_cluster_features_multi_hot(self):
        clusters = UserClusters(k=3, cluster_of={"a": 0, "b": 2})
        vec = cluster_features_for(("a", "b"), clusters, width=4)
        np.testing.assert_array_equal(vec, [1.0, 0.0, 1.0, 0.0])

    def test_unknown_user_hits_overflow_slot(self):
        clusters = UserClusters(k=3, cluster_of={"a": 0})
        vec = cluster_features_for(("a", "fremd"), clusters, width=4)
        np.testing.assert_array_equal(vec, [1.0, 0.0, 0.0, 1.0])

    def test_no_clusters_means_zeros(self):
        assert cluster_features_for(("a",), None, 4).sum() == 0.0
        assert cluster_features_for(("a",), UserClusters(1, {"a": 0}), 0).shape == (0,)

    def test_encode_task_shapes(self):
        tweets, _ = emoji_tweets(40, seed=9)
        task = build_emoji_task(tweets)
        data = encode_task(task, _table(dim=6), cluster_width=3)
        assert len(data) == len(task.examples)
        assert data.cluster_features.shape == (len(data), 3)
        assert (data.cluster_features == 0).all()
        assert data.labels.dtype == np.int64
        assert data.matrix.shape[1] == 6

    def test_encode_labeled_coarse_and_fine(self):
        tweets = separable_labeled(16, seed=1)
        table = _table(dim=6)
        coarse = encode_labeled(tweets, "coarse", table)
        fine = encode_labeled(tweets, "fine", table)
        assert set(coarse.labels) <= {0, 1}
        assert set(fine.labels) <= {0, 1, 2, 3}
        # coarse "other" corresponds to fine "other"
        np.testing.assert_array_equal(coarse.labels == 1, fine.labels == 3)

    def test_encode_labeled_uses_mentions_for_features(self):
        from tweetxfer.corpus import LabeledTweet

        clusters = UserClusters(k=2, cluster_of={"hans": 1})
        tweets = [
            LabeledTweet("1", "gruss an @hans", "other", "other"),
            LabeledTweet("2", "niemand hier", "other", "other"),
        ]
        data = encode_labeled(tweets, "coarse", _table(), clusters=clusters, cluster_width=3)
        np.testing.assert_array_equal(data.cluster_features[0], [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(data.cluster_features[1], [0.0, 0.0, 0.0])

    def test_id_layout_matches_per_token_batches(self):
        from tweetxfer.corpus import LabeledTweet

        rng = np.random.default_rng(4)
        known = {w: rng.normal(size=6) for w in ("haus", "baum", "see")}
        table = EmbeddingTable(dim=6, word_vectors=known, seed=1)
        texts = [
            "haus haus baum @hans",
            "xyzzy haus plopp xyzzy",
            "   ",  # tokenizes to nothing
            " ".join(["see", "baum", "quark", "haus"] * 3),  # longer than max_len
            "baum",
        ]
        tweets = [LabeledTweet(str(i), t, "other", "other") for i, t in enumerate(texts)]
        clusters = UserClusters(k=2, cluster_of={"hans": 1})
        data = encode_labeled(tweets, "coarse", table, clusters=clusters, cluster_width=3)
        tokens = [transfer.tokenize_text(t.text, t.id).tokens for t in tweets]
        distinct = {tok for toks in tokens for tok in toks}
        assert data.matrix.shape == (len(distinct) + 1, 6)
        np.testing.assert_array_equal(data.matrix[0], 0.0)
        assert all(np.issubdtype(i.dtype, np.integer) for i in data.ids)
        assert len(data.ids[2]) == 0
        idx = np.arange(len(data))
        batch = transfer._batch_from(data, idx, max_len=7)
        ref = _ref_batch(tokens, table, data.cluster_features, data.labels, max_len=7)
        assert batch.matrix is data.matrix
        assert _gathered(batch).shape == (5, 7, 6)
        for field, want in ref.items():
            np.testing.assert_array_equal(_batch_field(batch, field), want)

    def test_encode_task_ids_match_per_token_batches(self):
        tweets, _ = emoji_tweets(30, seed=2)
        task = build_emoji_task(tweets)
        task = transfer.PretrainTask(
            task.kind, task.examples + ((textprep.TokenizedTweet(()), 0),), task.label_space
        )
        table = _table(dim=6)
        data = encode_task(task, table, cluster_width=2)
        tokens = [t.tokens for t, _ in task.examples]
        assert data.matrix.shape == (len({tok for toks in tokens for tok in toks}) + 1, 6)
        assert data.ids[-1].shape == (0,) and np.issubdtype(data.ids[-1].dtype, np.integer)
        idx = np.arange(len(data))
        batch = transfer._batch_from(data, idx, max_len=4)
        ref = _ref_batch(tokens, table, data.cluster_features, data.labels, max_len=4)
        for field, want in ref.items():
            np.testing.assert_array_equal(_batch_field(batch, field), want)

    def test_encode_labeled_validation(self):
        tweets = separable_labeled(4, seed=2)
        with pytest.raises(ValueError):
            encode_labeled(tweets, "medium", _table())
        with pytest.raises(DataError):
            encode_labeled([], "coarse", _table())


class TestSchedules:
    def test_none_is_single_phase(self):
        sched = make_schedule("none", max_epochs=7)
        assert sched.phases == (Phase(frozenset({1, 2, 3, 4}), 7, True),)

    def test_gradual_unfreezes_one_group_per_epoch(self):
        sched = make_schedule("gu", max_epochs=10)
        assert [sorted(p.trainable) for p in sched.phases] == [
            [4], [3, 4], [2, 3, 4], [1, 2, 3, 4],
        ]
        assert [p.max_epochs for p in sched.phases] == [1, 1, 1, 7]
        assert [p.select_best for p in sched.phases] == [False, False, False, True]

    def test_bottom_up_order(self):
        sched = make_schedule("bu", max_epochs=5)
        assert [sorted(p.trainable) for p in sched.phases] == [
            [4], [1], [2], [3], [1, 2, 3, 4],
        ]
        assert all(p.max_epochs == 5 for p in sched.phases)
        assert all(p.select_best for p in sched.phases)

    def test_top_down_order(self):
        sched = make_schedule("tu", max_epochs=5)
        assert [sorted(p.trainable) for p in sched.phases] == [
            [4], [3], [2], [1], [1, 2, 3, 4],
        ]

    def test_case_insensitive(self):
        assert make_schedule("GU").strategy == "gu"

    def test_every_strategy_ends_best_keeping(self):
        """The finetune command reports the last phase's best score as the
        saved model's score, which holds only if that phase keeps its best."""
        for strategy in transfer.STRATEGIES:
            assert make_schedule(strategy, max_epochs=4).phases[-1].select_best, strategy

    def test_validation(self):
        with pytest.raises(ValueError):
            make_schedule("fancy")
        with pytest.raises(ValueError):
            make_schedule("none", max_epochs=0)
        with pytest.raises(ValueError):
            make_schedule("gu", max_epochs=3)


class TestReplaceHead:
    def test_body_kept_head_redrawn(self):
        params = net.init_params(
            4, 3, seed=0, embed_dim=8, hidden=4, filters=5, dense=6, kernels=(2, 3)
        )
        out = replace_head(params, 2, seed=1)
        assert out.n_classes == 2
        assert out.arrays["out_W"].shape == (6, 2)
        np.testing.assert_array_equal(out.arrays["out_b"], 0.0)
        for layer in (1, 2, 3):
            assert net.layer_checksum(out, layer) == net.layer_checksum(params, layer)
        # original untouched
        assert params.arrays["out_W"].shape == (6, 4)

    def test_deterministic(self):
        params = net.init_params(
            3, 0, seed=2, embed_dim=8, hidden=4, filters=5, dense=6, kernels=(2, 3)
        )
        a = replace_head(params, 2, seed=9)
        b = replace_head(params, 2, seed=9)
        np.testing.assert_array_equal(a.arrays["out_W"], b.arrays["out_W"])

    @pytest.mark.parametrize(
        "body,head_seed,sha256",
        [
            (
                dict(n_classes=2, cluster_width=51, seed=0),
                3,
                "a505c515cbc8f2ff8c507c71854a3df6802b2f29ec9a698243555ece3900f9b3",
            ),
            (
                dict(n_classes=3, cluster_width=5, seed=7, embed_dim=16, hidden=8, filters=6,
                     dense=10, kernels=(2, 3)),
                11,
                "3c9dc58fb5ad8383c3c367700c0d87f9a0f7570a0ba5781d47079a4e2c568fa4",
            ),
        ],
        ids=["paper_sizes", "small_kernels_2_3"],
    )
    def test_head_values_pinned(self, body, head_seed, sha256):
        out = replace_head(net.init_params(**body), 4, seed=head_seed)
        head = out.arrays["out_W"].tobytes() + out.arrays["out_b"].tobytes()
        assert hashlib.sha256(head).hexdigest() == sha256

    def test_head_width_validated(self):
        params = net.init_params(
            3, 0, seed=2, embed_dim=8, hidden=4, filters=5, dense=6, kernels=(2, 3)
        )
        with pytest.raises(ValueError):
            replace_head(params, 1)


def _tiny_task(n=24, seed=0):
    """Binary topic task with tiny dimensions for training-loop tests."""
    docs, topics = planted_topic_docs(n, words_per_topic=10, doc_len=(4, 7), seed=seed)
    examples = tuple(
        (textprep.tokenize(" ".join(doc), source_id=str(i)), topic)
        for i, (doc, topic) in enumerate(zip(docs, topics))
    )
    return transfer.PretrainTask(kind="topic", examples=examples, label_space=("0", "1"))


def _ref_batch(token_lists, table, cluster_features, labels, max_len):
    """The per-token layout that token ids replaced: each tweet's stacked
    vectors, copied row by row into a zero-padded (B, T, E) array, with
    the batch's other fields."""
    sequences = [table.embed_tokens(tokens)[:max_len] for tokens in token_lists]
    t_max = max(1, max(len(s) for s in sequences))
    emb = np.zeros((len(sequences), t_max, table.dim))
    for i, s in enumerate(sequences):
        emb[i, : len(s)] = s
    return {
        "embeddings": emb, "lengths": np.array([len(s) for s in sequences]),
        "cluster_features": np.asarray(cluster_features, dtype=np.float64),
        "labels": np.asarray(labels, dtype=np.int64),
    }


def _batch_field(batch, field):
    return _gathered(batch) if field == "embeddings" else getattr(batch, field)


def _tiny_params(n_classes, cluster_width, seed):
    return net.init_params(
        n_classes, cluster_width, seed=seed,
        embed_dim=12, hidden=6, filters=5, dense=8, kernels=(2, 3),
    )


class TestPretrain:
    def test_deterministic(self):
        task = _tiny_task()
        table = _table()
        a = pretrain(
            task, table, cluster_width=0, seed=3, epochs=2, batch_size=8,
            params=_tiny_params(2, 0, 3),
        )
        b = pretrain(
            task, table, cluster_width=0, seed=3, epochs=2, batch_size=8,
            params=_tiny_params(2, 0, 3),
        )
        for name in a.arrays:
            np.testing.assert_array_equal(a.arrays[name], b.arrays[name])

    def test_learns_tiny_task(self):
        from tweetxfer.fixtures import word_vector_table

        task = _tiny_task(32, seed=1)
        vocab = sorted({tok for t, _ in task.examples for tok in t.tokens})
        table = EmbeddingTable(dim=12, word_vectors=word_vector_table(vocab, dim=12, seed=0))
        params = pretrain(
            task, table, cluster_width=0, seed=0, epochs=10, batch_size=8,
            lr=0.01, dropout=0.2, params=_tiny_params(2, 0, 0),
        )
        data = encode_task(task, table, cluster_width=0)
        preds = predict_dataset(params, data)
        accuracy = float(np.mean(preds == data.labels))
        assert accuracy >= 0.9

    def test_head_width_mismatch_rejected(self):
        task = _tiny_task()
        with pytest.raises(ValueError):
            pretrain(task, _table(), cluster_width=0, params=_tiny_params(3, 0, 0))


class TestFinetune:
    def _datasets(self, seed=0):
        table = _table()
        train = encode_labeled(separable_labeled(20, seed=seed), "coarse", table)
        valid = encode_labeled(separable_labeled(12, seed=seed + 50), "coarse", table)
        return train, valid

    def test_single_group_phase_touches_only_that_group(self):
        train, valid = self._datasets()
        params = _tiny_params(2, 0, 4)
        before = {layer: net.layer_checksum(params, layer) for layer in (1, 2, 3, 4)}
        sched = FreezeSchedule("custom", (Phase(frozenset({4}), 2, False),))
        finetune(params, sched, train, valid, seed=0, batch_size=8)
        after = {layer: net.layer_checksum(params, layer) for layer in (1, 2, 3, 4)}
        assert after[4] != before[4]
        for layer in (1, 2, 3):
            assert after[layer] == before[layer]

    def test_optimizer_moments_cover_the_trainable_arrays_only(self, monkeypatch):
        """Pretraining keeps moments for every array, a head-only phase for
        ``out_W`` and ``out_b`` alone; backward returns the same arrays."""
        seen = []
        real_step = net.step

        def spy(params, grads, state, freeze=net.ALL_LAYERS):
            seen.append((set(freeze.trainable), list(state.m), list(state.v), list(grads)))
            return real_step(params, grads, state, freeze)

        monkeypatch.setattr(net, "step", spy)
        params = pretrain(
            _tiny_task(), _table(), cluster_width=0, epochs=1, batch_size=8,
            params=_tiny_params(2, 0, 12),
        )
        assert seen
        for trainable, m, v, grads in seen:
            assert trainable == {1, 2, 3, 4}
            assert m == v == grads == list(params.arrays)
        seen.clear()
        train, valid = self._datasets(seed=7)
        finetune(params, make_schedule("bu", 1), train, valid, seed=0, batch_size=8)
        assert {4} in [trainable for trainable, *_ in seen]
        for trainable, m, v, grads in seen:
            assert m == v == grads == params.layer_names(*trainable)
            if trainable == {4}:
                assert m == ["out_W", "out_b"]

    def test_divergence_is_a_training_error(self):
        """A diverged run names its phase, groups, epoch and layer group,
        and is not mistaken for bad data (a ValueError)."""
        assert not issubclass(TrainingError, ValueError)
        train, valid = self._datasets()
        with np.errstate(all="ignore"), pytest.raises(TrainingError) as exc:
            finetune(_tiny_params(2, 0, 4), make_schedule("bu", 2), train, valid,
                     seed=0, batch_size=8, lr=1e300)
        assert str(exc.value) == (
            "finetune bu phase 2/5 (groups [1]) epoch 1/2: "
            "non-finite weights in 'lstm_fw_W' (layer group 1)"
        )
        params = _tiny_params(2, 0, 4)
        params.arrays["out_W"][0, 0] = np.nan
        with np.errstate(all="ignore"), pytest.raises(TrainingError) as exc:
            finetune(params, make_schedule("tu", 1), train, valid, seed=0, batch_size=8)
        assert str(exc.value) == "finetune tu phase 1/5 (groups [4]) epoch 1/1: non-finite loss"

    def test_non_finite_gradient_is_a_training_error(self, monkeypatch):
        real_backward = net.backward

        def poisoned(*args, **kwargs):
            grads = real_backward(*args, **kwargs)
            grads["dense_b"][0] = np.inf
            return grads

        monkeypatch.setattr(net, "backward", poisoned)
        params = _tiny_params(2, 0, 4)
        with pytest.raises(TrainingError, match=r"^pretrain topic epoch 1/2: non-finite "
                           r"gradient in 'dense_b' \(layer group 3\)$"):
            pretrain(_tiny_task(), _table(), cluster_width=0, epochs=2, params=params)

    def test_overflowing_second_moment_is_a_training_error(self, monkeypatch):
        """A gradient whose square overflows leaves the weights finite but
        makes Nadam's second moment infinite, which would zero that
        element's updates from then on."""
        real_backward = net.backward

        def huge(*args, **kwargs):
            return {n: np.full_like(g, 1e200) for n, g in real_backward(*args, **kwargs).items()}

        monkeypatch.setattr(net, "backward", huge)
        train, valid = self._datasets()
        with pytest.raises(TrainingError, match=(
            r"^finetune bu phase 1/5 \(groups \[4\]\) epoch 1/1: "
            r"non-finite second moment in 'out_W' \(layer group 4\)$"
        )):
            finetune(_tiny_params(2, 0, 4), make_schedule("bu", 1), train, valid,
                     seed=0, batch_size=8)

    def test_best_keeping_phase_leaves_frozen_arrays_in_place(self):
        """Only trainable arrays are snapshotted and restored, so frozen
        ones come back as the very same objects."""
        train, valid = self._datasets(seed=6)
        params = _tiny_params(2, 0, 10)
        frozen = {n: a for n, a in params.arrays.items() if net.layer_of(n) != 4}
        sched = FreezeSchedule("bu", (Phase(frozenset({4}), 2, True),))
        result = finetune(params, sched, train, valid, seed=0, batch_size=8)
        assert result.params is params
        for name, array in frozen.items():
            assert params.arrays[name] is array

    def test_best_snapshot_restored(self):
        """After a best-keeping phase the returned params reproduce the
        best validation score seen in that phase's history."""
        train, valid = self._datasets(seed=3)
        params = _tiny_params(2, 0, 5)
        sched = make_schedule("none", max_epochs=4)
        result = finetune(params, sched, train, valid, seed=1, batch_size=8)
        assert len(result.history) == 1
        assert len(result.history[0]) == 4
        fn = metric_fn("binary_f1", 2)
        preds = predict_dataset(result.params, valid)
        final = fn(preds, valid.labels)
        assert final == pytest.approx(max(result.history[0]))
        assert result.best_scores[0] == pytest.approx(max(result.history[0]))

    def test_deterministic(self):
        train, valid = self._datasets(seed=4)
        a = finetune(
            _tiny_params(2, 0, 6), make_schedule("none", 2), train, valid,
            seed=2, batch_size=8,
        )
        b = finetune(
            _tiny_params(2, 0, 6), make_schedule("none", 2), train, valid,
            seed=2, batch_size=8,
        )
        for name in a.params.arrays:
            np.testing.assert_array_equal(a.params.arrays[name], b.params.arrays[name])
        assert a.history == b.history

    def test_phase_count_matches_schedule(self):
        train, valid = self._datasets(seed=5)
        sched = make_schedule("tu", max_epochs=1)
        result = finetune(_tiny_params(2, 0, 7), sched, train, valid, seed=0, batch_size=8)
        assert len(result.history) == 5
        assert len(result.best_scores) == 5

    def test_macro_metric_accepted(self):
        table = _table()
        train = encode_labeled(separable_labeled(16, seed=8), "fine", table)
        valid = encode_labeled(separable_labeled(8, seed=9), "fine", table)
        result = finetune(
            _tiny_params(4, 0, 8), make_schedule("none", 1), train, valid,
            metric="macro_f1", seed=0, batch_size=8,
        )
        assert 0.0 <= result.best_scores[0] <= 1.0

    def test_empty_datasets_rejected(self):
        train, valid = self._datasets()
        empty = transfer.EncodedDataset(
            (), np.zeros((1, 12)), np.zeros((0, 0)), np.zeros(0, dtype=np.int64)
        )
        with pytest.raises(DataError):
            finetune(_tiny_params(2, 0, 0), make_schedule("none", 1), empty, valid)
        with pytest.raises(DataError):
            finetune(_tiny_params(2, 0, 0), make_schedule("none", 1), train, empty)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            metric_fn("accuracy", 2)


class TestPredictDataset:
    def test_matches_per_example_predict(self):
        table = _table()
        data = encode_labeled(separable_labeled(10, seed=11), "coarse", table)
        params = _tiny_params(2, 0, 9)
        preds = predict_dataset(params, data, batch_size=3)
        singles = []
        for i in range(len(data)):
            batch = net.make_batch(
                [data.ids[i]], data.matrix, data.cluster_features[i : i + 1],
                data.labels[i : i + 1],
            )
            singles.append(int(net.forward(params, batch, mode="eval")[0].argmax()))
        np.testing.assert_array_equal(preds, singles)

    @pytest.mark.parametrize("batch_size", [1, 3, 64, 256])
    def test_mixed_lengths_come_back_in_input_order(self, batch_size):
        rng = np.random.default_rng(5)
        n = 24
        rows = [rng.normal(0.0, 1.0, (int(k), 12)) for k in rng.integers(1, 16, n)]
        ids, matrix = stack_rows(rows)
        data = transfer.EncodedDataset(
            ids=tuple(ids),
            matrix=matrix,
            cluster_features=(rng.random((n, 3)) < 0.4).astype(np.float64),
            labels=np.zeros(n, dtype=np.int64),
        )
        params = _tiny_params(3, 3, 4)
        singles = [
            int(net.forward(params, net.make_batch([s], data.matrix, f[None]), mode="eval")[0].argmax())
            for s, f in zip(data.ids, data.cluster_features)
        ]
        assert len(set(singles)) > 1
        np.testing.assert_array_equal(predict_dataset(params, data, batch_size=batch_size), singles)

        perm = rng.permutation(n)
        shuffled = transfer.EncodedDataset(
            ids=tuple(data.ids[i] for i in perm),
            matrix=data.matrix,
            cluster_features=data.cluster_features[perm],
            labels=data.labels[perm],
        )
        back = np.empty(n, dtype=np.int64)
        back[perm] = predict_dataset(params, shuffled, batch_size=batch_size)
        np.testing.assert_array_equal(back, singles)

    def test_batch_size_does_not_change_probabilities(self):
        # Mixed lengths, with a tweet of no tokens and one past max_len.
        params, data = self._random_dataset([(1, 26, 298), (0, 1, 1), (40, 41, 1)])
        wide = _length_sorted_probs(params, data, 256)
        np.testing.assert_array_equal(_length_sorted_probs(params, data, 64), wide)
        # numpy sends one-row products to gemv, which rounds differently
        # from gemm, so a batch of one agrees only to the last bits.
        singles = _length_sorted_probs(params, data, 1)
        np.testing.assert_allclose(singles, wide, rtol=1e-13, atol=0.0)
        np.testing.assert_array_equal(singles.argmax(axis=1), wide.argmax(axis=1))

    def test_batches_padded_to_one_window_agree_to_the_last_bits(self):
        # 80 tweets no longer than the widest kernel fill whole sorted
        # batches of 64, padded so that kernel has one window; numpy then
        # computes each tweet's window product with gemv, not gemm.
        params, data = self._random_dataset([(1, 4, 80), (4, 26, 220)])
        wide = _length_sorted_probs(params, data, 256)
        narrow = _length_sorted_probs(params, data, 64)
        np.testing.assert_allclose(narrow, wide, rtol=1e-13, atol=0.0)
        np.testing.assert_array_equal(narrow.argmax(axis=1), wide.argmax(axis=1))

    def test_each_chunk_table_covers_its_batches(self, monkeypatch):
        # 300 rows, some empty and some past max_len: a chunk of 256 rows
        # and one of 44, each scored through its own table, against
        # batches that build their own.
        params, data = self._random_dataset([(0, 1, 4), (1, 26, 290), (40, 41, 6)], vocab=400)
        tables = []
        build = net.gate_table
        monkeypatch.setattr(net, "gate_table", lambda *a: tables.append(a[2]) or build(*a))
        got = transfer._probabilities(params, data, 16, 20)
        order = np.argsort([len(s) for s in data.ids], kind="stable")
        assert [len(ids) for ids in tables] == [
            sum(min(len(data.ids[i]), 20) for i in chunk) for chunk in (order[:256], order[256:])
        ]
        monkeypatch.undo()
        want = np.empty_like(got)
        for start in range(0, len(data), 16):
            idx = order[start : start + 16]
            rows = np.pad(idx, (0, -len(idx) % 16), mode="edge")
            want[idx] = net.forward(params, transfer._batch_from(data, rows, 20), mode="eval")[0][
                : len(idx)
            ]
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def _random_dataset(length_ranges, vocab=40):
        """Tiny params and a dataset of random ids; each (low, high, count)
        adds ``count`` tweets with lengths drawn from [low, high)."""
        rng = np.random.default_rng(6)
        lengths = np.concatenate([rng.integers(lo, hi, n) for lo, hi, n in length_ranges])
        rng.shuffle(lengths)
        matrix = rng.normal(0.0, 1.0, (vocab + 1, 12))
        matrix[0] = 0.0
        data = transfer.EncodedDataset(
            ids=tuple(rng.integers(1, vocab + 1, k) for k in lengths),
            matrix=matrix,
            cluster_features=(rng.random((len(lengths), 3)) < 0.4).astype(np.float64),
            labels=np.zeros(len(lengths), dtype=np.int64),
        )
        return _tiny_params(3, 3, 4), data


def _length_sorted_probs(params, data, batch_size, max_len=20):
    """Eval probabilities in input order, from batches formed as
    ``predict_dataset`` forms them."""
    order = np.argsort([len(s) for s in data.ids], kind="stable")
    probs = np.empty((len(data), params.n_classes))
    for start in range(0, len(data), batch_size):
        idx = order[start : start + batch_size]
        probs[idx] = net.forward(params, transfer._batch_from(data, idx, max_len), mode="eval")[0]
    return probs


def _encode_words(tweets, vectors, feats):
    """A dataset of word-index tweets, its ids numbering their distinct
    words from 1 in first-seen order, as ``encode_labeled`` numbers tokens."""
    index = {}
    ids = tuple(
        np.array([index.setdefault(w, len(index) + 1) for w in t], dtype=np.intp) for t in tweets
    )
    matrix = np.zeros((len(index) + 1, vectors.shape[1]))
    matrix[1:] = vectors[list(index)]
    return transfer.EncodedDataset(ids, matrix, feats, np.zeros(len(tweets), dtype=np.int64))


def _dataset_invariance():
    """Rows whose ``predict_dataset`` probabilities differ, at the paper's
    sizes with the coarse head and 51 cluster features: 150 tweets of 1-45
    words, one cut by ``max_len`` = 40, are scored together, then in random
    subsets of each size, each subset encoded on its own as a smaller
    dataset would be."""
    params = net.init_params(2, 51, seed=3)
    rng = np.random.default_rng(12)
    vectors = rng.normal(0.0, 0.3, (500, 300))
    n, max_len = 150, 40
    tweets = [rng.integers(0, 500, int(k)) for k in rng.integers(1, 46, n - 1)] + [
        rng.integers(0, 500, 50)
    ]
    feats = (rng.random((n, 51)) < 0.3).astype(np.float64)
    data = _encode_words(tweets, vectors, feats)
    whole = transfer._probabilities(params, data, 16, max_len)
    subset = {}
    for size in (1, 5, 17, 51, 63):
        pick = rng.choice(n, size, replace=False)
        part = _encode_words([tweets[i] for i in pick], vectors, feats[pick])
        got = transfer._probabilities(params, part, 16, max_len)
        subset[str(size)] = int((got != whole[pick]).any(axis=1).sum())
    return {"subset": subset}


def _gate_rows_against_frames():
    """Frames whose gate-table row differs from the per-frame input product
    ``x[:, t] @ (W * _gate_scale(H))`` of their batch, for each direction,
    at the paper's sizes.

    ``b2``, ``b3``, ``b16`` and ``b128`` are batches of 1-30 random words
    over a 500-word vocabulary, whose short rows bring in padding id 0;
    each batch's table is built over its own ids, as a forward builds one.
    ``one_token`` is a dataset of one word, repeated 1-20 times, whose
    matrix has two rows, so its 256-row chunk table covers one distinct
    token; its frames are the 16-row batches ``predict_dataset`` forms.
    """
    params = net.init_params(2, 51, seed=3)
    rng = np.random.default_rng(13)
    vectors = rng.normal(0.0, 0.3, (500, 300))
    scale = net._gate_scale(params.hidden)

    def differing(batch, table):
        x = batch.matrix[batch.ids]
        pos = np.searchsorted(table.ids, batch.ids)
        count = 0
        for d in ("fw", "bw"):
            W = params.arrays[f"lstm_{d}_W"] * scale
            rows = getattr(table, d)
            for t in range(x.shape[1]):
                count += int((rows[pos[:, t]] != x[:, t] @ W).any(axis=1).sum())
        return count

    out = {}
    for B in (2, 3, 16, 128):
        tweets = [rng.integers(0, 500, int(k)) for k in rng.integers(1, 31, B)]
        data = _encode_words(tweets, vectors, np.zeros((B, 51)))
        batch = transfer._batch_from(data, np.arange(B), 100)
        assert (batch.ids == 0).any()
        out[f"b{B}"] = differing(batch, net.gate_table(params, batch.matrix, batch.ids))
    one_word = _encode_words([[7] * int(k) for k in range(1, 21)], vectors, np.zeros((20, 51)))
    table = net.gate_table(params, one_word.matrix, np.concatenate(one_word.ids))
    out["one_token"] = sum(
        differing(transfer._batch_from(one_word, idx, 100), table)
        for idx in (np.arange(16), np.pad(np.arange(16, 20), (0, 12), mode="edge"))
    )
    out["matrix_rows"] = one_word.matrix.shape[0]
    return out


class TestDatasetInvariance:
    """At one BLAS thread and paper sizes, with OpenBLAS 0.3.31's SkylakeX
    kernels, a tweet's probabilities do not depend on the other tweets
    scored with it, and a gate-table row holds the bytes of the per-frame
    input product it replaces."""

    @pytest.fixture(scope="class")
    def changed(self):
        return _in_one_thread("_dataset_invariance", module="test_transfer")

    @pytest.fixture(scope="class")
    def gate_rows(self):
        return _in_one_thread("_gate_rows_against_frames", module="test_transfer")

    def test_subsets_score_as_the_whole_set(self, changed):
        assert changed["subset"] == {"1": 0, "5": 0, "17": 0, "51": 0, "63": 0}

    def test_gate_table_rows_match_per_frame_products(self, gate_rows):
        assert gate_rows["matrix_rows"] == 2
        assert {k: v for k, v in gate_rows.items() if k != "matrix_rows"} == {
            "b2": 0, "b3": 0, "b16": 0, "b128": 0, "one_token": 0,
        }


class TestGateTableBatch:
    def test_refuses_a_table_of_other_params(self):
        data = encode_labeled(separable_labeled(6, seed=2), "coarse", _table())
        batch = transfer._batch_from(data, np.arange(len(data)), 100)
        table = net.gate_table(_tiny_params(2, 0, 1), data.matrix, batch.ids)
        with pytest.raises(ValueError, match="different params"):
            net.forward(_tiny_params(2, 0, 1), batch, mode="eval", table=table)

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_refuses_a_table_that_lacks_an_id_of_the_batch(self, mode):
        params = _tiny_params(2, 0, 1)
        data = encode_labeled(separable_labeled(6, seed=2), "coarse", _table())
        batch = transfer._batch_from(data, np.arange(len(data)), 100)
        ids = np.unique(batch.ids)
        assert len(ids) > 3
        # Without the largest id, that id's search lands past the table's
        # end; without a middle one, on the next id's row.
        for missing in (ids[-1], ids[len(ids) // 2]):
            table = net.gate_table(params, data.matrix, ids[ids != missing])
            with pytest.raises(ValueError, match="does not cover"):
                net.forward(params, batch, mode=mode, table=table)
        covering = net.gate_table(params, data.matrix, ids)
        assert (
            net.forward(params, batch, mode=mode, table=covering)[0].tobytes()
            == net.forward(params, batch, mode=mode)[0].tobytes()
        )
