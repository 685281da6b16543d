import contextlib
import dataclasses
import io
import json
import os
import pathlib
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from tweetxfer import corpus, embed, evalkit, lda, net, transfer
from tweetxfer.cli import _build_parser, _config, _load_table, _report, main
from tweetxfer.config import RunConfig, load_config
from tweetxfer.errors import DataError
from tweetxfer.fixtures import (
    clique_mentions,
    comment_records,
    emoji_tweets,
    planted_topic_docs,
    raw_from_docs,
    save_comments,
    separable_labeled,
)

# Small dimensions keep every CLI run under a second without changing
# any code path.
_CFG = """
embed_dim = 12
lstm_units = 6
filters = 5
dense_units = 8
kernel_sizes = 2,3
k_users = 2
k_topics = 2
lda_iterations = 40
infer_iterations = 10
pretrain_epochs = 2
pretrain_batch = 16
finetune_epochs = 2
finetune_batch = 8
baseline_epochs = 10
tail = 8
"""


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A workspace with input corpora and the config file written once."""
    root = tmp_path_factory.mktemp("cli")
    paths = {"root": root, "cfg": str(root / "run.cfg")}
    (root / "run.cfg").write_text(_CFG, encoding="utf-8")

    labeled = separable_labeled(40, seed=0)
    paths["labeled"] = str(root / "labeled.tsv")
    corpus.save_labeled(labeled, paths["labeled"])

    docs, _ = planted_topic_docs(60, seed=1)
    paths["topic_corpus"] = str(root / "topics.txt")
    corpus.save_token_lines(docs, paths["topic_corpus"])
    paths["topic_tweets"] = str(root / "topic_tweets.jsonl")
    corpus.save_raw(raw_from_docs(docs), paths["topic_tweets"])

    tweets, truth = clique_mentions(n_cliques=2, users_per_clique=5, n_tweets=80, seed=2)
    lists = corpus.extract_mention_lists(tweets, min_mentions=2, min_user_freq=1)
    paths["mentions"] = str(root / "mentions.txt")
    corpus.save_token_lines(lists, paths["mentions"])
    paths["mention_tweets"] = str(root / "mention_tweets.jsonl")
    corpus.save_raw(tweets, paths["mention_tweets"])

    emos, _ = emoji_tweets(40, seed=3)
    paths["emoji"] = str(root / "emoji.jsonl")
    corpus.save_raw(emos, paths["emoji"])

    paths["comments"] = str(root / "comments.jsonl")
    save_comments(comment_records(30, seed=4), paths["comments"])
    return paths


class TestPrepare:
    def test_splits_and_reports(self, ws, tmp_path):
        out = tmp_path / "split"
        code, stdout, _ = _run([
            "prepare", "--labeled", ws["labeled"], "--out", str(out),
            "--config", ws["cfg"],
        ])
        assert code == 0
        assert stdout.strip() == "train 32 validation 8"
        train = corpus.load_labeled(str(out / "train.tsv"))
        valid = corpus.load_labeled(str(out / "valid.tsv"))
        assert len(train) == 32 and len(valid) == 8
        full = corpus.load_labeled(ws["labeled"])
        assert [t.text for t in train + valid] == [t.text for t in full]

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code, _, _ = _run([
                "prepare", "--labeled", ws["labeled"], "--out", str(out),
                "--tail", "8",
            ])
            assert code == 0
        assert (a / "train.tsv").read_bytes() == (b / "train.tsv").read_bytes()
        assert (a / "valid.tsv").read_bytes() == (b / "valid.tsv").read_bytes()

    def test_tokenized_corpus_written(self, ws, tmp_path):
        out = tmp_path / "split"
        tok = tmp_path / "tokens.txt"
        code, _, _ = _run([
            "prepare", "--labeled", ws["labeled"], "--out", str(out),
            "--tail", "8", "--tokenized", str(tok),
        ])
        assert code == 0
        lines = corpus.load_token_lines(str(tok))
        assert len(lines) == 40

    def test_oversized_tail_is_a_data_error(self, ws, tmp_path):
        code, _, err = _run([
            "prepare", "--labeled", ws["labeled"], "--out", str(tmp_path / "x"),
            "--tail", "1000",
        ])
        assert code == 2
        assert "data error" in err


class TestLdaTrainCli:
    def test_trains_and_saves(self, ws, tmp_path):
        out = tmp_path / "model.json"
        code, stdout, _ = _run([
            "lda-train", "--corpus", ws["topic_corpus"], "--k", "2",
            "--iters", "30", "--out", str(out),
        ])
        assert code == 0
        assert "trained 2 topics on 60 documents" in stdout
        model = lda.load_model(str(out))
        assert model.k == 2

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            code, _, _ = _run([
                "lda-train", "--corpus", ws["topic_corpus"], "--k", "2",
                "--iters", "20", "--out", str(out), "--seed", "3",
            ])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_corpus_rejected(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        code, _, err = _run([
            "lda-train", "--corpus", str(empty), "--k", "2", "--out",
            str(tmp_path / "m.json"),
        ])
        assert code == 2


class TestClusterUsersCli:
    def test_from_mention_lists(self, ws, tmp_path):
        out = tmp_path / "clusters.tsv"
        code, stdout, _ = _run([
            "cluster-users", "--mentions", ws["mentions"], "--k", "2",
            "--iters", "30", "--out", str(out),
        ])
        assert code == 0
        clusters = lda.load_clusters(str(out))
        assert clusters.k == 2
        assert "clustered" in stdout

    def test_from_raw_tweets(self, ws, tmp_path):
        out = tmp_path / "clusters.tsv"
        code, _, _ = _run([
            "cluster-users", "--raw", ws["mention_tweets"], "--k", "2",
            "--iters", "30", "--min-user-freq", "1", "--out", str(out),
        ])
        assert code == 0
        assert lda.load_clusters(str(out)).k == 2

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for out in (a, b):
            code, _, _ = _run([
                "cluster-users", "--mentions", ws["mentions"], "--k", "2",
                "--iters", "20", "--out", str(out),
            ])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_no_usable_lists_names_the_input(self, ws, tmp_path):
        raw = tmp_path / "lonely.jsonl"
        corpus.save_raw([corpus.raw_tweet("1", "nur @eine erwähnung")], str(raw))
        code, stdout, err = _run([
            "cluster-users", "--raw", str(raw), "--out", str(tmp_path / "c.tsv"),
        ])
        assert (code, stdout) == (2, "")
        assert err == f"data error: {raw}: no usable mention lists after filtering\n"

    def test_sources_are_mutually_exclusive(self, ws, tmp_path):
        code, _, _ = _run([
            "cluster-users", "--mentions", ws["mentions"], "--raw",
            ws["mention_tweets"], "--out", str(tmp_path / "c.tsv"),
        ])
        assert code == 1


@pytest.fixture(scope="module")
def trained(ws, tmp_path_factory):
    """Checkpoints and clusters produced once through the CLI."""
    root = tmp_path_factory.mktemp("trained")
    arts = {"root": root}

    arts["clusters"] = str(root / "clusters.tsv")
    code, _, _ = _run([
        "cluster-users", "--mentions", ws["mentions"], "--k", "2",
        "--iters", "30", "--out", arts["clusters"], "--config", ws["cfg"],
    ])
    assert code == 0

    arts["lda"] = str(root / "model.json")
    code, _, _ = _run([
        "lda-train", "--corpus", ws["topic_corpus"], "--out", arts["lda"],
        "--config", ws["cfg"],
    ])
    assert code == 0

    arts["pre_emoji"] = str(root / "pre_emoji.ckpt")
    code, _, _ = _run([
        "pretrain", "--task", "emoji", "--corpus", ws["emoji"],
        "--config", ws["cfg"], "--out", arts["pre_emoji"],
    ])
    assert code == 0

    split = root / "split"
    code, _, _ = _run([
        "prepare", "--labeled", ws["labeled"], "--out", str(split),
        "--config", ws["cfg"],
    ])
    assert code == 0
    arts["train"] = str(split / "train.tsv")
    arts["valid"] = str(split / "valid.tsv")

    arts["ft"] = str(root / "ft.ckpt")
    code, stdout, _ = _run([
        "finetune", "--ckpt", arts["pre_emoji"], "--strategy", "none",
        "--task", "coarse", "--train", arts["train"], "--valid", arts["valid"],
        "--config", ws["cfg"], "--out", arts["ft"],
    ])
    assert code == 0
    arts["ft_stdout"] = stdout
    return arts


class TestPretrainCli:
    def test_emoji_checkpoint_shape(self, ws, trained):
        params, state = net.load_checkpoint(trained["pre_emoji"])
        assert state is None
        assert params.cluster_width == 3  # k_users + 1
        assert params.embed_dim == 12

    def test_category_task(self, ws, tmp_path):
        out = tmp_path / "pre.ckpt"
        code, stdout, _ = _run([
            "pretrain", "--task", "category", "--corpus", ws["comments"],
            "--config", ws["cfg"], "--epochs", "1", "--out", str(out),
        ])
        assert code == 0
        assert "pretrained category" in stdout
        params, _ = net.load_checkpoint(str(out))
        assert params.n_classes == 2

    @pytest.mark.parametrize(
        "annotations,reason",
        [
            ([{"inappropriate": v, "discriminating": v} for v in ("false", "no", "0")],
             "key 'inappropriate' is missing or of the wrong type"),
            ([], "comment '1' has no annotations"),
        ],
        ids=["string_flags", "no_annotators"],
    )
    def test_bad_comment_record_names_its_line(self, ws, tmp_path, annotations, reason):
        comments = tmp_path / "c.jsonl"
        record = {"id": "1", "text": "hallo welt", "annotations": annotations}
        comments.write_text(json.dumps(record) + "\n", encoding="utf-8")
        code, stdout, err = _run([
            "pretrain", "--task", "category", "--corpus", str(comments),
            "--config", ws["cfg"], "--out", str(tmp_path / "pre.ckpt"),
        ])
        assert (code, stdout) == (2, "")
        assert err == f"data error: {comments}:1: {reason}\n"

    @pytest.mark.parametrize("texts", [["kein emoji"], ["eins \U0001F600", "zwei \U0001F600"]],
                             ids=["no_emoji", "one_emoji"])
    def test_emoji_corpus_needs_two_emoji(self, ws, tmp_path, texts):
        raw = tmp_path / "emoji.jsonl"
        corpus.save_raw([corpus.raw_tweet(str(i), t) for i, t in enumerate(texts)], str(raw))
        code, stdout, err = _run([
            "pretrain", "--task", "emoji", "--corpus", str(raw),
            "--config", ws["cfg"], "--out", str(tmp_path / "pre.ckpt"),
        ])
        labels = len({e for t in texts for e in corpus.raw_tweet("", t).emojis})
        assert (code, stdout) == (2, "")
        assert err == f"data error: {raw}: emoji task needs at least 2 labels, got {labels}\n"

    def test_empty_topic_task_names_its_corpus(self, ws, trained, tmp_path):
        raw = tmp_path / "unknown.jsonl"
        texts = ["quux blorf zindel", "wibbel quarx flomp"]
        corpus.save_raw([corpus.raw_tweet(str(i), t) for i, t in enumerate(texts)], str(raw))
        code, stdout, err = _run([
            "pretrain", "--task", "topic", "--corpus", str(raw), "--lda", trained["lda"],
            "--config", ws["cfg"], "--out", str(tmp_path / "pre.ckpt"),
        ])
        assert (code, stdout) == (2, "")
        assert err == f"data error: {raw}: topic task has no examples\n"
        assert not (tmp_path / "pre.ckpt").exists()

    def test_empty_category_task_names_its_corpus(self, ws, tmp_path):
        comments = tmp_path / "empty.jsonl"
        comments.write_text("", encoding="utf-8")
        code, stdout, err = _run([
            "pretrain", "--task", "category", "--corpus", str(comments),
            "--config", ws["cfg"], "--out", str(tmp_path / "pre.ckpt"),
        ])
        assert (code, stdout) == (2, "")
        assert err == f"data error: {comments}: category task has no examples\n"

    def test_topic_task_requires_lda(self, ws, trained, tmp_path):
        code, _, err = _run([
            "pretrain", "--task", "topic", "--corpus", ws["topic_tweets"],
            "--config", ws["cfg"], "--epochs", "1",
            "--out", str(tmp_path / "x.ckpt"),
        ])
        assert code == 1
        assert "--lda" in err

    def test_topic_task_with_model(self, ws, trained, tmp_path):
        out = tmp_path / "pre.ckpt"
        code, _, _ = _run([
            "pretrain", "--task", "topic", "--corpus", ws["topic_tweets"],
            "--lda", trained["lda"], "--config", ws["cfg"], "--epochs", "1",
            "--out", str(out),
        ])
        assert code == 0
        params, _ = net.load_checkpoint(str(out))
        assert params.n_classes == 2

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        for out in (a, b):
            code, _, _ = _run([
                "pretrain", "--task", "category", "--corpus", ws["comments"],
                "--config", ws["cfg"], "--epochs", "1", "--out", str(out),
            ])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestFinetuneCli:
    def test_reports_metric(self, trained):
        assert trained["ft_stdout"].startswith("binary_f1 ")
        value = float(trained["ft_stdout"].split()[1])
        assert 0.0 <= value <= 1.0

    def test_checkpoint_head_replaced(self, trained):
        params, _ = net.load_checkpoint(trained["ft"])
        assert params.n_classes == 2

    def test_cold_start_with_clusters(self, ws, trained, tmp_path):
        out = tmp_path / "cold.ckpt"
        code, stdout, _ = _run([
            "finetune", "--ckpt", "none", "--strategy", "none", "--task", "fine",
            "--train", trained["train"], "--valid", trained["valid"],
            "--clusters", trained["clusters"], "--config", ws["cfg"],
            "--epochs", "1", "--out", str(out),
        ])
        assert code == 0
        assert stdout.startswith("macro_f1 ")
        params, _ = net.load_checkpoint(str(out))
        assert params.n_classes == 4
        assert params.cluster_width == 3  # clusters.k + 1

    def test_incompatible_checkpoint_rejected(self, ws, trained, tmp_path):
        """A checkpoint whose cluster width cannot fit the cluster file."""
        wrong = tmp_path / "wrong.cfg"
        wrong.write_text(_CFG.replace("k_users = 2", "k_users = 5"), encoding="utf-8")
        code, _, err = _run([
            "finetune", "--ckpt", trained["pre_emoji"], "--strategy", "none",
            "--task", "coarse", "--train", trained["train"],
            "--valid", trained["valid"], "--config", str(wrong),
            "--out", str(tmp_path / "x.ckpt"),
        ])
        assert code == 2
        assert "cluster width" in err

    def test_unknown_strategy_is_usage_error(self, ws, trained, tmp_path):
        code, _, _ = _run([
            "finetune", "--ckpt", "none", "--strategy", "slowly",
            "--task", "coarse", "--train", trained["train"],
            "--valid", trained["valid"], "--out", str(tmp_path / "x.ckpt"),
        ])
        assert code == 1


class TestEvaluateCli:
    def test_report_written_and_deterministic(self, ws, trained, tmp_path):
        rep_a, rep_b = tmp_path / "a.txt", tmp_path / "b.txt"
        for rep in (rep_a, rep_b):
            code, stdout, _ = _run([
                "evaluate", "--ckpt", trained["ft"], "--data", trained["valid"],
                "--task", "coarse", "--config", ws["cfg"], "--report", str(rep),
            ])
            assert code == 0
            assert "accuracy" in stdout and "runs 1" in stdout
            assert rep.read_text(encoding="utf-8") == stdout
        assert rep_a.read_bytes() == rep_b.read_bytes()

    def test_multiple_checkpoints_aggregate(self, ws, trained, tmp_path):
        code, stdout, _ = _run([
            "evaluate", "--ckpt", trained["ft"], trained["ft"],
            "--data", trained["valid"], "--task", "coarse",
            "--config", ws["cfg"],
        ])
        assert code == 0
        assert "runs 2" in stdout

    def test_errors_file(self, ws, trained, tmp_path):
        errs = tmp_path / "errors.tsv"
        code, stdout, _ = _run([
            "evaluate", "--ckpt", trained["ft"], "--data", trained["valid"],
            "--task", "coarse", "--config", ws["cfg"], "--errors", str(errs),
        ])
        assert code == 0
        lines = errs.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "type\tgold\tpred\ttext"
        for line in lines[1:]:
            kind, gold, pred, _ = line.split("\t")
            assert kind in ("fp", "fn")
            assert gold != pred

    def test_fine_task_report_and_errors(self, ws, trained, tmp_path):
        ckpt, errs = tmp_path / "fine.ckpt", tmp_path / "errors.tsv"
        code, _, _ = _run([
            "finetune", "--ckpt", trained["pre_emoji"], "--strategy", "none",
            "--task", "fine", "--train", trained["train"], "--valid", trained["valid"],
            "--config", ws["cfg"], "--out", str(ckpt),
        ])
        assert code == 0
        code, stdout, _ = _run([
            "evaluate", "--ckpt", str(ckpt), "--data", trained["valid"],
            "--task", "fine", "--config", ws["cfg"], "--errors", str(errs),
        ])
        assert code == 0
        rows = [line.split()[0] for line in stdout.splitlines()[1:6]]
        assert rows == list(corpus.FINE_LABELS) + ["average"]

        params, _ = net.load_checkpoint(str(ckpt))
        valid = corpus.load_labeled(trained["valid"])
        table = _load_table(None, load_config(ws["cfg"]))
        encoded = transfer.encode_labeled(valid, "fine", table, None, params.cluster_width)
        preds = [corpus.FINE_LABELS[p] for p in transfer.predict_dataset(params, encoded)]
        golds = [t.fine for t in valid]
        macro = evalkit.macro_metrics(preds, golds, classes=list(corpus.FINE_LABELS))
        assert stdout.startswith(evalkit.format_report(macro))
        # The error listing counts the first fine label, insult, as positive.
        items = [(g, p, corpus.escape_text(t.text)) for t, g, p in zip(valid, golds, preds)]
        expected = ["type\tgold\tpred\ttext"]
        expected += [f"fp\t{g}\t{p}\t{text}" for g, p, text in items if p == "insult" != g]
        expected += [f"fn\t{g}\t{p}\t{text}" for g, p, text in items if g == "insult" != p]
        assert errs.read_text(encoding="utf-8").splitlines() == expected

    def test_checkpoints_of_one_width_encode_once(self, ws, trained, monkeypatch):
        calls = []
        real = transfer.encode_labeled

        def counting(*args, **kwargs):
            calls.append(args[-1])
            return real(*args, **kwargs)

        monkeypatch.setattr(transfer, "encode_labeled", counting)
        ckpt = trained["ft"]
        code, stdout, _ = _run([
            "evaluate", "--ckpt", ckpt, ckpt, ckpt, "--data", trained["valid"],
            "--task", "coarse", "--config", ws["cfg"],
        ])
        assert code == 0
        assert calls == [3]

        params, _ = net.load_checkpoint(ckpt)
        valid = corpus.load_labeled(trained["valid"])
        table = _load_table(None, load_config(ws["cfg"]))
        encoded = real(valid, "coarse", table, None, params.cluster_width)
        preds = [corpus.COARSE_LABELS[p] for p in transfer.predict_dataset(params, encoded)]
        golds = [t.coarse for t in valid]
        report = _report("coarse", preds, golds)
        assert stdout == evalkit.format_report(evalkit.aggregate_runs([report] * 3), runs=3)

    def test_vectors_of_wrong_dim_rejected_like_finetune(self, ws, trained, tmp_path):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("haus 0.1 0.2 0.3\n", encoding="utf-8")
        flags = ["--task", "coarse", "--config", ws["cfg"], "--vectors", str(vectors)]
        code, _, err = _run([
            "evaluate", "--ckpt", trained["ft"], "--data", trained["valid"], *flags,
        ])
        assert code == 2
        assert err == (
            f"data error: {trained['ft']}: checkpoint expects 12-dim embeddings, vectors give 3\n"
        )
        code, _, ft_err = _run([
            "finetune", "--ckpt", trained["ft"], "--strategy", "none",
            "--train", trained["train"], "--valid", trained["valid"],
            "--out", str(tmp_path / "x.ckpt"), *flags,
        ])
        assert code == 2
        assert ft_err == err

    def test_clusters_that_do_not_fit_the_checkpoint(self, ws, trained, tmp_path):
        clusters = tmp_path / "clusters4.tsv"
        code, _, _ = _run([
            "cluster-users", "--mentions", ws["mentions"], "--k", "4",
            "--iters", "5", "--out", str(clusters),
        ])
        assert code == 0
        code, stdout, err = _run([
            "evaluate", "--ckpt", trained["ft"], "--data", trained["valid"],
            "--task", "coarse", "--config", ws["cfg"], "--clusters", str(clusters),
        ])
        assert code == 2 and stdout == ""
        assert err == (
            f"data error: {trained['ft']}: checkpoint has cluster width 3, run would use 5\n"
        )

    def test_cluster_count_header_of_non_ascii_digits(self, ws, trained, tmp_path):
        clusters = tmp_path / "clusters.tsv"
        clusters.write_text("#k\t\u00b2\nuA\t0\n", encoding="utf-8")
        code, stdout, err = _run([
            "evaluate", "--ckpt", trained["ft"], "--data", trained["valid"],
            "--task", "coarse", "--config", ws["cfg"], "--clusters", str(clusters),
        ])
        assert code == 2 and stdout == ""
        assert err == f"data error: {clusters}:1: bad cluster count header\n"

    def test_task_head_mismatch(self, ws, trained, tmp_path):
        code, _, err = _run([
            "evaluate", "--ckpt", trained["ft"], "--data", trained["valid"],
            "--task", "fine", "--config", ws["cfg"],
        ])
        assert code == 2
        assert "classes" in err


def _edited_checkpoint(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with ``edit`` applied to its JSON header."""
    data = pathlib.Path(src).read_bytes()
    (head_len,) = struct.unpack_from("<Q", data, 12)
    header = json.loads(data[20 : 20 + head_len])
    edit(header)
    head = json.dumps(header).encode("utf-8")
    dst.write_bytes(data[:12] + struct.pack("<Q", len(head)) + head + data[20 + head_len :])
    return dst


class TestMalformedArtifactsCli:
    """A loader that meets a missing or mistyped key exits 2, never a traceback."""

    def test_checkpoint_without_arch(self, ws, trained, tmp_path):
        bad = _edited_checkpoint(trained["ft"], tmp_path / "no_arch.ckpt", lambda h: h.pop("arch"))
        code, _, err = _run([
            "evaluate", "--ckpt", str(bad), "--data", trained["valid"],
            "--task", "coarse", "--config", ws["cfg"],
        ])
        assert code == 2
        assert err.startswith("data error:") and "'arch'" in err

    def test_checkpoint_with_nan_weight(self, ws, trained, tmp_path):
        params, _ = net.load_checkpoint(trained["ft"])
        params.arrays["out_W"][0, 0] = np.nan
        bad = tmp_path / "nan.ckpt"
        net.save_checkpoint(str(bad), params)
        code, _, err = _run([
            "evaluate", "--ckpt", str(bad), "--data", trained["valid"],
            "--task", "coarse", "--config", ws["cfg"],
        ])
        assert code == 2
        assert err.startswith("data error:") and "non-finite" in err

    def test_checkpoint_with_optimizer_state(self, ws, trained, tmp_path):
        """The layout older versions wrote: Nadam moments after the weights."""
        data = pathlib.Path(trained["ft"]).read_bytes()
        (head_len,) = struct.unpack_from("<Q", data, 12)
        header = json.loads(data[20 : 20 + head_len])
        slots = [[f"{mv}.{n}", shape] for mv in "mv" for n, shape in header["arrays"]]
        header["optimizer"] = {
            "t": 1, "slots": slots, "m_prod": 0.5, "lr": 0.002,
            "beta1": 0.99, "beta2": 0.999, "eps": 1e-8, "schedule_decay": 0.004,
        }
        moments = b"\x00" * (2 * (len(data) - 20 - head_len))
        head = json.dumps(header, sort_keys=True).encode("utf-8")
        bad = tmp_path / "nadam.ckpt"
        bad.write_bytes(data[:12] + struct.pack("<Q", len(head)) + head
                        + data[20 + head_len :] + moments)
        code, stdout, err = _run([
            "evaluate", "--ckpt", str(bad), "--data", trained["valid"],
            "--task", "coarse", "--config", ws["cfg"],
        ])
        assert code == 2 and stdout == ""
        assert err == (
            f"data error: {bad}: checkpoints with optimizer state are not supported\n"
        )

    def test_checkpoint_with_overflowing_shape(self, ws, trained, tmp_path):
        bad = _edited_checkpoint(
            trained["ft"], tmp_path / "huge.ckpt",
            lambda h: h["arrays"][0].__setitem__(1, [2**32, 2**32]),
        )
        code, stdout, err = _run([
            "evaluate", "--ckpt", str(bad), "--data", trained["valid"],
            "--task", "coarse", "--config", ws["cfg"],
        ])
        assert code == 2 and stdout == ""
        assert err == f"data error: {bad}: array 'lstm_fw_W' shape [{2**32}, {2**32}] is too large\n"

    def test_topic_model_without_vocab(self, ws, trained, tmp_path):
        payload = json.loads(pathlib.Path(trained["lda"]).read_text(encoding="utf-8"))
        del payload["vocab"]
        bad = tmp_path / "no_vocab.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = _run([
            "pretrain", "--task", "topic", "--corpus", ws["topic_tweets"],
            "--lda", str(bad), "--config", ws["cfg"], "--epochs", "1",
            "--out", str(tmp_path / "x.ckpt"),
        ])
        assert code == 2
        assert err.startswith("data error:") and "'vocab'" in err

    def test_topic_model_with_negative_counts(self, ws, trained, tmp_path):
        payload = json.loads(pathlib.Path(trained["lda"]).read_text(encoding="utf-8"))
        payload["n_tw"][0] = [-5] * len(payload["n_tw"][0])
        bad = tmp_path / "negative.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = _run([
            "pretrain", "--task", "topic", "--corpus", ws["topic_tweets"],
            "--lda", str(bad), "--config", ws["cfg"], "--epochs", "1",
            "--out", str(tmp_path / "x.ckpt"),
        ])
        assert code == 2
        assert err.startswith("data error:") and "negative" in err


class TestBaselineCli:
    def test_reports_table_and_terms(self, ws, trained):
        code, stdout, _ = _run([
            "baseline", "--train", trained["train"], "--valid", trained["valid"],
            "--task", "coarse", "--config", ws["cfg"], "--top-terms", "3",
        ])
        assert code == 0
        assert "accuracy" in stdout
        assert "top[offense]" in stdout and "top[other]" in stdout

    def test_fine_task(self, ws, trained):
        code, stdout, _ = _run([
            "baseline", "--train", trained["train"], "--valid", trained["valid"],
            "--task", "fine", "--config", ws["cfg"],
        ])
        assert code == 0
        assert "average" in stdout


class TestGradcheckCli:
    def test_passes_at_default_tolerance(self, ws):
        code, stdout, _ = _run([
            "gradcheck", "--config", ws["cfg"], "--samples", "3", "--seed", "1",
        ])
        assert code == 0
        assert stdout.startswith("max relative error ")

    def test_impossible_tolerance_fails(self, ws):
        code, _, err = _run([
            "gradcheck", "--config", ws["cfg"], "--samples", "2",
            "--tolerance", "1e-18",
        ])
        assert code == 2
        assert "exceeds tolerance" in err


class TestMakeFixturesCli:
    def test_writes_corpora(self, tmp_path):
        out = tmp_path / "fx"
        code, stdout, _ = _run(["make-fixtures", "--out", str(out)])
        assert code == 0
        assert "wrote" in stdout
        names = sorted(os.listdir(out))
        assert "labeled.tsv" in names
        assert "vectors.txt" in names
        assert len(names) >= 10


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        code, _, _ = _run([])
        assert code == 1

    def test_unknown_flag_is_usage_error(self):
        code, _, _ = _run(["prepare", "--nope"])
        assert code == 1

    def test_help_exits_zero(self):
        code, stdout, _ = _run(["--help"])
        assert code == 0

    def test_missing_file_is_data_error(self, tmp_path):
        code, _, err = _run([
            "prepare", "--labeled", str(tmp_path / "absent.tsv"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_malformed_labels_are_data_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("nur ein feld\n", encoding="utf-8")
        code, _, err = _run([
            "prepare", "--labeled", str(bad), "--out", str(tmp_path / "o"),
            "--tail", "1",
        ])
        assert code == 2
        assert "data error" in err

    _DIVERGED = (
        "training error: finetune bu phase 2/5 (groups [1]) epoch 1/2: "
        "non-finite weights in 'lstm_fw_W' (layer group 1)\n"
    )

    def _diverging_finetune(self, tmp_path) -> list[str]:
        """Finetune argv whose ``lr = 1e300`` blows up the weights."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(_CFG + "lr = 1e300\n", encoding="utf-8")
        fx, split = tmp_path / "fx", tmp_path / "split"
        assert _run(["make-fixtures", "--out", str(fx), "--config", str(cfg)])[0] == 0
        assert _run([
            "prepare", "--labeled", str(fx / "labeled.tsv"), "--out", str(split),
            "--config", str(cfg),
        ])[0] == 0
        return [
            "finetune", "--ckpt", "none", "--strategy", "bu", "--task", "coarse",
            "--train", str(split / "train.tsv"), "--valid", str(split / "valid.tsv"),
            "--config", str(cfg), "--out", str(tmp_path / "ft.ckpt"),
        ]

    def test_diverged_finetune_is_training_error(self, tmp_path):
        """A learning rate that blows up the weights exits 3, not as a data error."""
        argv = self._diverging_finetune(tmp_path)
        with np.errstate(all="ignore"):
            code, _, err = _run(argv)
        assert code == 3
        assert err == self._DIVERGED
        assert not (tmp_path / "ft.ckpt").exists()

    def test_diverged_finetune_prints_only_the_error(self, tmp_path):
        """No numpy overflow warning reaches stderr ahead of the one line.

        Run in a fresh interpreter: in-process, pytest would record the
        warnings instead of letting them print.
        """
        argv = self._diverging_finetune(tmp_path)
        src = str(pathlib.Path(corpus.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = "import sys\nfrom tweetxfer.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stderr == self._DIVERGED

    def test_bad_config_value_is_data_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dropout = 2.0\n", encoding="utf-8")
        code, _, _ = _run(["gradcheck", "--config", str(cfg)])
        assert code == 2



class TestUndecodableInput:
    """Bytes that are not UTF-8 are a data error that names the file."""

    _BYTES = b"gut\xe9\tother\tother\n"

    @pytest.mark.parametrize(
        "load",
        [
            corpus.load_labeled, corpus.load_raw, corpus.load_token_lines,
            transfer.load_comments, lda.load_clusters, lda.load_model,
            embed.load_vectors, load_config,
        ],
        ids=lambda f: f.__name__,
    )
    def test_every_loader(self, load, tmp_path):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(self._BYTES)
        with pytest.raises(DataError, match=f"^{re.escape(str(bad))}: not UTF-8 text"):
            load(str(bad))

    def test_labeled_file(self, tmp_path):
        bad = tmp_path / "latin1.tsv"
        bad.write_bytes(self._BYTES)
        code, _, err = _run(["prepare", "--labeled", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert err == f"data error: {bad}: not UTF-8 text (byte 0xe9: invalid continuation byte)\n"

    def test_config_file(self, tmp_path):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(b"# gr\xfc\xdfe\nseed = 1\n")
        code, _, err = _run(["gradcheck", "--config", str(bad)])
        assert code == 2
        assert err == f"data error: {bad}: not UTF-8 text (byte 0xfc: invalid start byte)\n"

# The command line needs these to parse; none of them is a config key.
_REQUIRED = {
    "prepare": ["--labeled", "x", "--out", "x"],
    "lda-train": ["--corpus", "x", "--out", "x"],
    "cluster-users": ["--mentions", "x", "--out", "x"],
    "pretrain": ["--task", "category", "--corpus", "x", "--out", "x"],
    "finetune": [
        "--ckpt", "none", "--strategy", "bu", "--task", "coarse",
        "--train", "x", "--valid", "x", "--out", "x",
    ],
    "baseline": ["--train", "x", "--valid", "x", "--task", "coarse"],
    "gradcheck": [],
}


class TestOverrideFlags:
    @pytest.mark.parametrize(
        "command,flag,key,value",
        [
            ("prepare", "--tail", "tail", 7),
            ("lda-train", "--k", "k_topics", 7),
            ("lda-train", "--iters", "lda_iterations", 7),
            ("lda-train", "--alpha", "lda_alpha", 0.5),
            ("lda-train", "--beta", "lda_beta", 0.5),
            ("cluster-users", "--k", "k_users", 7),
            ("cluster-users", "--iters", "lda_iterations", 7),
            ("cluster-users", "--min-mentions", "min_mentions", 7),
            ("cluster-users", "--min-user-freq", "min_user_freq", 7),
            ("pretrain", "--epochs", "pretrain_epochs", 7),
            ("pretrain", "--batch", "pretrain_batch", 7),
            ("finetune", "--epochs", "finetune_epochs", 7),
            ("finetune", "--batch", "finetune_batch", 7),
            ("baseline", "--l2", "baseline_l2", 0.5),
            ("baseline", "--epochs", "baseline_epochs", 7),
            ("baseline", "--lr", "baseline_lr", 0.5),
            ("gradcheck", "--seed", "seed", 7),
        ],
    )
    def test_flag_sets_its_config_key_only(self, command, flag, key, value):
        args = _build_parser().parse_args([command, *_REQUIRED[command], flag, str(value)])
        assert _config(args) == dataclasses.replace(RunConfig(), **{key: value})

    def test_flags_override_the_file_and_unset_flags_keep_it(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k_topics = 9\nlda_beta = 0.5\n", encoding="utf-8")
        args = _build_parser().parse_args(
            ["lda-train", *_REQUIRED["lda-train"], "--config", str(cfg), "--k", "3"]
        )
        assert _config(args) == dataclasses.replace(RunConfig(), k_topics=3, lda_beta=0.5)


class TestNonFiniteConfig:
    """``nan`` and ``inf`` are data errors for every float key, before any work."""

    @pytest.mark.parametrize("flag,value,key", [
        ("--beta", "nan", "lda_beta"), ("--alpha", "inf", "lda_alpha"),
    ])
    def test_lda_train_flag(self, ws, tmp_path, flag, value, key):
        out = tmp_path / "model.json"
        code, _, err = _run([
            "lda-train", "--corpus", ws["topic_corpus"], flag, value,
            "--config", ws["cfg"], "--out", str(out),
        ])
        assert code == 2
        assert err == f"data error: config {key} must be finite\n"
        assert not out.exists()

    def test_cluster_users_config_file(self, ws, tmp_path):
        cfg, out = tmp_path / "run.cfg", tmp_path / "clusters.tsv"
        cfg.write_text(_CFG + "lda_alpha = inf\n", encoding="utf-8")
        code, _, err = _run([
            "cluster-users", "--mentions", ws["mentions"], "--config", str(cfg),
            "--out", str(out),
        ])
        assert code == 2
        line = (_CFG + "lda_alpha = inf\n").count("\n")
        assert err == f"data error: {cfg}:{line}: config lda_alpha must be finite\n"
        assert not out.exists()

    def test_finetune_config_file(self, trained, tmp_path):
        cfg, out = tmp_path / "run.cfg", tmp_path / "ft.ckpt"
        cfg.write_text(_CFG + "lr = nan\n", encoding="utf-8")
        code, _, err = _run([
            "finetune", "--ckpt", "none", "--strategy", "bu", "--task", "coarse",
            "--train", trained["train"], "--valid", trained["valid"],
            "--config", str(cfg), "--out", str(out),
        ])
        assert code == 2
        line = (_CFG + "lr = nan\n").count("\n")
        assert err == f"data error: {cfg}:{line}: config lr must be finite\n"
        assert not out.exists()
