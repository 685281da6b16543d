"""End-to-end acceptance checks, one test per contract.

Each test prints a single PASS/FAIL line (visible with -s or -rA) and
asserts the same condition, so the suite doubles as a checklist.  The
whole file runs in a couple of minutes on a laptop.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import tweetxfer
from tweetxfer import lda, net, textprep, transfer
from tweetxfer.cli import main as cli_main
from tweetxfer.corpus import LabeledTweet, extract_mention_lists, load_labeled, save_labeled
from tweetxfer.embed import EmbeddingTable
from tweetxfer.evalkit import binary_metrics, macro_metrics
from tweetxfer.fixtures import (
    clique_mentions,
    comment_records,
    emoji_tweets,
    planted_topic_docs,
    raw_from_docs,
    save_comments,
    separable_labeled,
    token_majority_topic,
    toy_batch,
)
from tweetxfer import corpus


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_gradient_oracle():
    """Analytic gradients match central differences on full-size nets."""
    t0 = time.time()
    params = net.init_params(n_classes=3, cluster_width=5, seed=0)
    masks = [
        net.ALL_LAYERS,
        net.FreezeMask.of(1),
        net.FreezeMask.of(2),
        net.FreezeMask.of(3),
        net.FreezeMask.of(4),
    ]
    worst = 0.0
    for b in range(5):
        batch = toy_batch(n_classes=3, cluster_width=5, batch=2, t=9, embed_dim=300, seed=100 + b)
        for mask in masks:
            err = net.gradient_check(params, batch, freeze=mask, samples_per_array=4, seed=b)
            worst = max(worst, err)
    elapsed = time.time() - t0
    _verdict(
        "gradient oracle",
        worst < 1e-4 and elapsed < 120,
        f"max relative error {worst:.2e} over 5 batches x 5 masks in {elapsed:.0f}s",
    )


def test_freeze_contract(monkeypatch):
    """Frozen layer checksums survive every epoch of every strategy."""
    t0 = time.time()
    table = EmbeddingTable(dim=16, word_vectors={})
    data = transfer.encode_labeled(separable_labeled(24, seed=1), "coarse", table, None, 3)
    expected = {
        "gu": [({4}, 1), ({3, 4}, 1), ({2, 3, 4}, 1), ({1, 2, 3, 4}, 1)],
        "bu": [({4}, 1), ({1}, 1), ({2}, 1), ({3}, 1), ({1, 2, 3, 4}, 1)],
        "tu": [({4}, 1), ({3}, 1), ({2}, 1), ({1}, 1), ({1, 2, 3, 4}, 1)],
    }
    real = transfer._run_epoch
    violations = 0
    epochs_seen = 0
    for strategy in ("gu", "bu", "tu"):
        log = []

        def spy(params, state, dataset, freeze, *args, _log=log, **kwargs):
            before = {g: net.layer_checksum(params, g) for g in (1, 2, 3, 4)}
            out = real(params, state, dataset, freeze, *args, **kwargs)
            after = {g: net.layer_checksum(params, g) for g in (1, 2, 3, 4)}
            _log.append((set(freeze.trainable), before, after))
            return out

        monkeypatch.setattr(transfer, "_run_epoch", spy)
        params = net.init_params(
            2, 3, seed=0, embed_dim=16, hidden=8, filters=6, dense=10, kernels=(2, 3)
        )
        max_epochs = 4 if strategy == "gu" else 1
        schedule = transfer.make_schedule(strategy, max_epochs)
        transfer.finetune(params, schedule, data, data, seed=0, batch_size=8)

        for live, before, after in log:
            epochs_seen += 1
            for g in (1, 2, 3, 4):
                if g not in live and after[g] != before[g]:
                    violations += 1
        # Phase order: consecutive epochs sharing a live set form a phase.
        phases = []
        for live, _, _ in log:
            if phases and phases[-1][0] == live:
                phases[-1] = (live, phases[-1][1] + 1)
            else:
                phases.append((live, 1))
        assert phases == expected[strategy], strategy
        assert [
            (set(p.trainable), p.max_epochs) for p in schedule.phases
        ] == expected[strategy], strategy
    elapsed = time.time() - t0
    _verdict(
        "freeze contract",
        violations == 0 and elapsed < 300,
        f"0 checksum changes in {epochs_seen} frozen-layer epochs, "
        f"3 strategies, {elapsed:.0f}s",
    )


def _planted_labeled(n: int, seed: int) -> list[LabeledTweet]:
    docs, _ = planted_topic_docs(n, purity=0.8, doc_len=(9, 15), seed=seed)
    out = []
    for i, doc in enumerate(docs):
        coarse = "offense" if token_majority_topic(doc) == 0 else "other"
        fine = "abuse" if coarse == "offense" else "other"
        out.append(LabeledTweet(id=str(i), text=" ".join(doc), coarse=coarse, fine=fine))
    return out


def test_transfer_smoke():
    """Topic pre-training beats a cold start on a planted-topic corpus."""
    t0 = time.time()
    width = 4
    table = EmbeddingTable(dim=300, word_vectors={})
    docs, _ = planted_topic_docs(500, purity=0.8, doc_len=(9, 15), seed=11)
    model = lda.train_gibbs(docs, k=2, iterations=150, seed=0)
    task = transfer.build_topic_task(
        raw_from_docs(docs), model, textprep.load_stopwords(), infer_iterations=30, seed=0
    )
    train = transfer.encode_labeled(_planted_labeled(32, 303), "coarse", table, None, width)
    valid = transfer.encode_labeled(_planted_labeled(64, 404), "coarse", table, None, width)
    names = ("offense", "other")

    def final_f1(params: net.NetworkParams) -> float:
        preds = transfer.predict_dataset(params, valid)
        return binary_metrics(
            [names[p] for p in preds], [names[g] for g in valid.labels], "offense"
        ).averaged.f1

    warm, cold = [], []
    for seed in range(5):
        pre = transfer.pretrain(
            task, table, cluster_width=width, seed=seed, epochs=3, batch_size=64,
            params=net.init_params(len(task.label_space), width, seed=seed),
        )
        schedule = transfer.make_schedule("bu", 3)
        warm_run = transfer.finetune(
            transfer.replace_head(pre, 2, seed=seed), schedule, train, valid,
            metric="binary_f1", seed=seed, batch_size=8,
        )
        cold_run = transfer.finetune(
            net.init_params(2, width, seed=seed), schedule, train, valid,
            metric="binary_f1", seed=seed, batch_size=8,
        )
        warm.append(final_f1(warm_run.params))
        cold.append(final_f1(cold_run.params))
    warm_mean, cold_mean = float(np.mean(warm)), float(np.mean(cold))
    elapsed = time.time() - t0
    _verdict(
        "transfer smoke",
        warm_mean >= 0.95 and warm_mean > cold_mean and elapsed < 600,
        f"warm F1 {warm_mean:.3f} vs cold {cold_mean:.3f} over 5 seeds in {elapsed:.0f}s",
    )


def test_lda_recovery():
    """Disjoint-vocabulary topics are recovered, deterministically."""
    docs, topics = planted_topic_docs(200, doc_len=(20, 20), purity=1.0, seed=5)
    runs = [lda.train_gibbs(docs, k=2, iterations=200, seed=0) for _ in range(2)]
    model = runs[0]
    identical = np.array_equal(runs[0].n_tw, runs[1].n_tw) and np.array_equal(
        runs[0].n_t, runs[1].n_t
    )
    tokens = sum(len(d) for d in docs)
    consistent = (
        (model.n_tw >= 0).all()
        and np.array_equal(model.n_tw.sum(axis=1), model.n_t)
        and model.n_t.sum() == tokens
    )
    maj = np.array([lda.majority_topic(model, d, iterations=30, seed=0) for d in docs])
    truth = np.array(topics)
    purity = max(float((maj == truth).mean()), float((maj == 1 - truth).mean()))
    _verdict(
        "lda recovery",
        purity >= 0.95 and identical and consistent,
        f"document purity {purity:.3f}, bit-identical reruns {identical}, "
        f"counts consistent {consistent}",
    )


def test_user_clustering():
    """Three mention cliques separate into three clusters."""
    tweets, truth = clique_mentions(n_cliques=3, users_per_clique=20, n_tweets=600, seed=0)
    lists = extract_mention_lists(tweets, min_mentions=2, min_user_freq=1)
    assert len(lists) == 600
    clusters = lda.cluster_users(lists, k=3, iterations=500, seed=0)
    members: dict[int, list[int]] = {}
    for user, cluster in clusters.cluster_of.items():
        members.setdefault(cluster, []).append(truth[user])
    agree = sum(max(Counter(v).values()) for v in members.values())
    purity = agree / len(clusters.cluster_of)
    _verdict(
        "user clustering",
        purity >= 0.95 and len(clusters.cluster_of) == 60,
        f"purity {purity:.3f} over {len(clusters.cluster_of)} users",
    )


def test_emoji_task_builder():
    """One example per distinct emoji per tweet; none leak into the text."""
    tweets, expected = emoji_tweets(100, seed=0)
    task = transfer.build_emoji_task(tweets)
    distinct_sum = sum(len(t.emojis) for t in tweets)
    assert expected == distinct_sum
    leaked = sum(
        1
        for example, _ in task.examples
        for token in example.tokens
        if any(textprep.is_emoji_char(ch) for ch in token)
    )
    _verdict(
        "emoji task builder",
        len(task.examples) == expected and leaked == 0,
        f"{len(task.examples)} examples == sum of distinct emoji {expected}, "
        f"{leaked} leaked characters",
    )


def _brute_prf(preds, golds, positive):
    tp = sum(1 for p, g in zip(preds, golds) if p == positive and g == positive)
    fp = sum(1 for p, g in zip(preds, golds) if p == positive and g != positive)
    fn = sum(1 for p, g in zip(preds, golds) if p != positive and g == positive)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def test_metrics_oracle():
    """Binary and macro scores equal a brute-force confusion matrix."""
    rng = np.random.default_rng(12)
    classes = ["a", "b", "c", "d"]
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        preds = [classes[i] for i in rng.integers(0, 4, size=n)]
        golds = [classes[i] for i in rng.integers(0, 4, size=n)]
        report = macro_metrics(preds, golds, classes=classes)
        per_class = [_brute_prf(preds, golds, c) for c in classes]
        worst = max(worst, abs(report.averaged.f1 - np.mean([x[2] for x in per_class])))
        for c, (p, r, f) in zip(classes, per_class):
            row = report.per_class[c]
            worst = max(worst, abs(row.precision - p), abs(row.recall - r), abs(row.f1 - f))
        binary = binary_metrics(preds, golds, positive="a")
        p, r, f = _brute_prf(preds, golds, "a")
        worst = max(
            worst,
            abs(binary.averaged.precision - p),
            abs(binary.averaged.recall - r),
            abs(binary.averaged.f1 - f),
        )
    # Fixed confusion counts: 3 hits, 1 false alarm, 2 misses.
    preds = ["x", "x", "x", "o", "o", "x", "o"]
    golds = ["x", "x", "x", "x", "x", "o", "o"]
    fixed = binary_metrics(preds, golds, positive="x").averaged
    exact = fixed.precision == 0.75 and fixed.recall == 0.6
    _verdict(
        "metrics oracle",
        worst <= 1e-12 and exact,
        f"max deviation {worst:.1e} over 1000 samples; "
        f"P={fixed.precision} R={fixed.recall} on the 3/1/2 case",
    )


def test_overfit_capacity():
    """The full-size network memorizes 64 separable tweets quickly."""
    table = EmbeddingTable(dim=300, word_vectors={})
    data = transfer.encode_labeled(separable_labeled(64, seed=0), "coarse", table, None, 3)
    params = net.init_params(2, 3, seed=0)
    state = net.OptimizerState.for_params(params, lr=0.002)
    rng = np.random.default_rng(7)
    reached = None
    for epoch in range(1, 51):
        order = rng.permutation(len(data))
        for start in range(0, len(data), 8):
            idx = order[start : start + 8]
            batch = net.make_batch(
                [data.ids[i] for i in idx], data.matrix, data.cluster_features[idx],
                data.labels[idx],
            )
            _, cache = net.forward(params, batch, mode="train",
                                   dropout_seed=int(rng.integers(0, 2**63)), dropout=0.0)
            grads = net.backward(params, batch, cache, net.ALL_LAYERS)
            net.step(params, grads, state, net.ALL_LAYERS)
        preds = transfer.predict_dataset(params, data)
        if float((preds == data.labels).mean()) == 1.0:
            reached = epoch
            break
    _verdict(
        "overfit capacity",
        reached is not None,
        f"100% training accuracy at epoch {reached} (budget 50)",
    )


def test_dropout_scaling():
    """Averaged dropped activations recover each site's input within 2%."""
    params = net.init_params(
        2, 0, seed=3, embed_dim=16, hidden=8, filters=6, dense=10, kernels=(2, 3)
    )
    batch = toy_batch(n_classes=2, cluster_width=0, batch=3, t=7, embed_dim=16, seed=3)
    _, ev = net.forward(params, batch, mode="train", dropout=0.0)
    n = 10_000
    sum_h = 0.0
    sum_drop = {k: 0.0 for k in params.kernels}
    sum_pool = {k: 0.0 for k in params.kernels}
    for seed in range(n):
        _, cache = net.forward(params, batch, mode="train", dropout_seed=seed, dropout=0.5)
        sum_h = sum_h + cache.h_drop
        # z holds each kernel's dropped pooled vector, in kernel order.
        for j, k in enumerate(params.kernels):
            sum_drop[k] = sum_drop[k] + cache.z[:, j * params.filters : (j + 1) * params.filters]
            sum_pool[k] = sum_pool[k] + net._leaky(cache.conv[k].top, params.leaky_slope)
    # The recurrent output is dropped first, so its eval activation is the
    # reference; each pooled vector is compared to its own pre-dropout
    # input, averaged over the upstream masks it already contains.
    rels = [float(np.linalg.norm(sum_h / n - ev.h_drop) / np.linalg.norm(ev.h_drop))]
    for k in params.kernels:
        pre = sum_pool[k] / n
        rels.append(float(np.linalg.norm(sum_drop[k] / n - pre) / np.linalg.norm(pre)))
    worst = max(rels)
    _verdict(
        "dropout scaling",
        worst < 0.02,
        f"worst site error {worst:.4f} over {n} seeds "
        f"(lstm {rels[0]:.4f}, pools {rels[1]:.4f}/{rels[2]:.4f})",
    )


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


def _write_inputs(root):
    """The pipeline's config file and input corpora, written under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "run.cfg").write_text(_CFG, encoding="utf-8")
    save_labeled(separable_labeled(40, seed=0), str(root / "labeled.tsv"))
    docs, _ = planted_topic_docs(60, seed=1)
    corpus.save_token_lines(docs, str(root / "topics.txt"))
    corpus.save_raw(raw_from_docs(docs), str(root / "topic_tweets.jsonl"))
    tweets, _ = clique_mentions(n_cliques=2, users_per_clique=5, n_tweets=80, seed=2)
    corpus.save_token_lines(extract_mention_lists(tweets, 2, 1), str(root / "mentions.txt"))
    emos, _ = emoji_tweets(40, seed=3)
    corpus.save_raw(emos, str(root / "emoji.jsonl"))
    save_comments(comment_records(30, seed=4), str(root / "comments.jsonl"))


def _commands(root):
    """Every subcommand once, as (name, argv) pairs over ``_write_inputs`` files."""
    cfg, split = str(root / "run.cfg"), root / "split"
    return [
        ("prepare", ["prepare", "--labeled", str(root / "labeled.tsv"), "--out", str(split),
                     "--config", cfg]),
        ("lda", ["lda-train", "--corpus", str(root / "topics.txt"),
                 "--out", str(root / "model.json"), "--config", cfg]),
        ("clusters", ["cluster-users", "--mentions", str(root / "mentions.txt"), "--k", "2",
                      "--iters", "30", "--out", str(root / "clusters.tsv"), "--config", cfg]),
        ("pretrain", ["pretrain", "--task", "category", "--corpus", str(root / "comments.jsonl"),
                      "--config", cfg, "--out", str(root / "pre.ckpt")]),
        ("pretrain-emoji", ["pretrain", "--task", "emoji", "--corpus", str(root / "emoji.jsonl"),
                            "--config", cfg, "--out", str(root / "pre_emoji.ckpt")]),
        ("pretrain-topic", ["pretrain", "--task", "topic",
                            "--corpus", str(root / "topic_tweets.jsonl"),
                            "--lda", str(root / "model.json"), "--config", cfg,
                            "--out", str(root / "pre_topic.ckpt")]),
        ("finetune", ["finetune", "--ckpt", str(root / "pre.ckpt"), "--strategy", "tu",
                      "--task", "coarse", "--train", str(split / "train.tsv"),
                      "--valid", str(split / "valid.tsv"), "--config", cfg,
                      "--epochs", "1", "--out", str(root / "ft.ckpt")]),
        ("evaluate", ["evaluate", "--ckpt", str(root / "ft.ckpt"),
                      "--data", str(split / "valid.tsv"), "--task", "coarse",
                      "--config", cfg, "--report", str(root / "report.txt"),
                      "--errors", str(root / "errors.tsv")]),
        ("baseline", ["baseline", "--train", str(split / "train.tsv"),
                      "--valid", str(split / "valid.tsv"), "--task", "coarse",
                      "--config", cfg, "--top-terms", "3"]),
        ("gradcheck", ["gradcheck", "--config", cfg, "--samples", "2"]),
        ("fixtures", ["make-fixtures", "--out", str(root / "fx"), "--config", cfg]),
    ]


def _outputs(root, stdouts):
    """Every file under ``root`` but the config, plus each command's stdout."""
    captured = {f"stdout:{name}": out.replace(str(root), "<root>") for name, out in stdouts}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "run.cfg":
            captured[str(path.relative_to(root))] = path.read_bytes()
    return captured


def _pipeline(root):
    """Every subcommand once, in this process; returns ``_outputs``."""
    _write_inputs(root)
    stdouts = []
    for name, argv in _commands(root):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
        assert code == 0, (name, argv)
        stdouts.append((name, out.getvalue()))
    return _outputs(root, stdouts)


# Runs the (name, argv) pairs in the JSON file argv[1] through the CLI and
# prints [[name, stdout], ...] as JSON; a failing command exits 1.
_CHILD = """
import contextlib, io, json, pathlib, sys
from tweetxfer.cli import main
stdouts = []
for name, argv in json.loads(pathlib.Path(sys.argv[1]).read_text(encoding="utf-8")):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if main(argv) != 0:
            sys.exit(f"{name} failed")
    stdouts.append([name, out.getvalue()])
json.dump(stdouts, sys.stdout)
"""


def test_determinism_and_round_trips(tmp_path):
    """Reruns are byte-identical; checkpoints and TSV survive round trips."""
    first = _pipeline(tmp_path / "a")
    second = _pipeline(tmp_path / "b")
    assert first.keys() == second.keys()
    differing = [k for k in first if first[k] != second[k]]

    ckpt = tmp_path / "a" / "ft.ckpt"
    params, _ = net.load_checkpoint(str(ckpt))
    resaved = tmp_path / "resaved.ckpt"
    net.save_checkpoint(str(resaved), params)
    ckpt_exact = resaved.read_bytes() == ckpt.read_bytes()
    reloaded, _ = net.load_checkpoint(str(resaved))
    ckpt_exact = ckpt_exact and all(
        np.array_equal(params.arrays[n], reloaded.arrays[n]) for n in params.arrays
    )

    tsv = tmp_path / "a" / "labeled.tsv"
    copy = tmp_path / "copy.tsv"
    save_labeled(load_labeled(str(tsv)), str(copy))
    tsv_exact = copy.read_bytes() == tsv.read_bytes()

    _verdict(
        "determinism and round trips",
        not differing and ckpt_exact and tsv_exact,
        f"{len(first)} artifacts byte-identical across reruns "
        f"(differing: {differing or 'none'}), checkpoint exact {ckpt_exact}, "
        f"tsv exact {tsv_exact}",
    )


def test_determinism_across_processes(tmp_path):
    """Fresh interpreters with different hash seeds write the same bytes.

    An in-process rerun shares one hash seed, so it cannot see output
    that depends on set or frozenset iteration order; this check can.
    """
    t0 = time.time()
    src = str(Path(tweetxfer.__file__).resolve().parents[1])
    children = {}
    for hash_seed in ("1", "2"):
        root = tmp_path / f"hash{hash_seed}"
        _write_inputs(root)
        commands = tmp_path / f"commands{hash_seed}.json"
        commands.write_text(json.dumps(_commands(root)), encoding="utf-8")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        children[root] = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(commands)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    runs = []
    try:
        for root, child in children.items():
            stdout, stderr = child.communicate(timeout=120)
            assert child.returncode == 0, stderr
            runs.append((_outputs(root, json.loads(stdout)), stderr))
    finally:
        for child in children.values():
            child.kill()
    (first, first_err), (second, second_err) = runs
    differing = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    elapsed = time.time() - t0
    _verdict(
        "determinism across processes",
        not differing and first_err == second_err and elapsed < 60,
        f"{len(first)} artifacts and stdouts under PYTHONHASHSEED 1 and 2 "
        f"(differing: {differing or 'none'}), stderr equal {first_err == second_err}, "
        f"{elapsed:.1f}s",
    )
