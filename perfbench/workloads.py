"""The three benchmark workloads: set-up, one job, and its output checks.

Each job drives the package's public API the way ``tweetxfer.cli`` does
(load, compute, save), so every stage pays for its artifact I/O.  Inputs
come from ``tweetxfer.fixtures`` generators seeded by the workload seed.
A job returns its stage wall times, the work each stage did, SHA-256
digests of its outputs and its output checks.  Network sizes are the
paper's (E=300, H=100, F=200, kernels 3/4/5, dense 100), which are the
``RunConfig`` defaults; only run lengths and batch sizes are set here.

Why each workload exists:

- transfer: ``net`` does nearly all the work.  Four of the five ``bu``
  phases train one layer group, so a freeze-aware backward moves the
  fine-tune rate; pre-training trains every group and is the control.
  Pre-training uses the category task so that no LDA fold-in runs here.
- topics: ``lda`` does all the work and ``net`` is idle.  Training
  writes the global counts while fold-in only reads them, so batched
  fold-in and a sparse sampler (whose gain depends on k) show apart.
- classify: no backward pass, no optimizer, no LDA.  Long tweets over a
  large vocabulary keep the n-gram bucket cache filling, so ``embed``
  leads; a forward-pass regression shows here as a loss.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from tweetxfer import corpus, embed, evalkit, fixtures, lda, net, textprep, transfer
from tweetxfer.config import RunConfig


@dataclass
class JobResult:
    stages: dict[str, float]  # stage name -> wall seconds
    work: dict[str, float]  # stage name -> work items
    digests: dict[str, str]
    # Runs the output checks after the timed (and traced) part; returns
    # the checks that missed.
    check: Callable[[], list[str]]


def _sha(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha(fh.read())


def _purity(assigned: list[int], truth: list[int]) -> float:
    """Share of items whose group's most common true class is theirs."""
    groups: dict[int, Counter] = {}
    for a, t in zip(assigned, truth):
        groups.setdefault(a, Counter())[t] += 1
    return sum(max(c.values()) for c in groups.values()) / max(1, len(truth))


def _table(cfg: RunConfig, path: str) -> embed.EmbeddingTable:
    return embed.load_vectors(
        path, buckets=cfg.ngram_buckets, n_min=cfg.ngram_min,
        n_max=cfg.ngram_max, seed=cfg.embed_seed,
    )


def _init(cfg: RunConfig, n_classes: int, width: int, embed_dim: int) -> net.NetworkParams:
    return net.init_params(
        n_classes=n_classes, cluster_width=width, seed=cfg.seed, embed_dim=embed_dim,
        hidden=cfg.lstm_units, filters=cfg.filters, dense=cfg.dense_units,
        kernels=cfg.kernel_sizes, leaky_slope=cfg.leaky_slope,
    )


# --- transfer ---------------------------------------------------------------


@dataclass(frozen=True)
class TransferSize:
    comments: int = 384
    pretrain_epochs: int = 1
    pretrain_batch: int = 128
    train: int = 64
    valid: int = 64
    finetune_epochs: int = 1  # per bu phase
    finetune_batch: int = 32
    vocab: int = 400  # vectors per planted topic
    f1_floor: float = 0.9


@dataclass
class TransferState:
    dir: str
    cfg: RunConfig
    size: TransferSize
    table: embed.EmbeddingTable


def transfer_setup(workdir: str, seed: int, size: TransferSize) -> TransferState:
    """Write the comment corpus, labeled split and vectors; load the table."""
    cfg = RunConfig(
        seed=seed, pretrain_epochs=size.pretrain_epochs, pretrain_batch=size.pretrain_batch,
        finetune_epochs=size.finetune_epochs, finetune_batch=size.finetune_batch,
    )
    fixtures.save_comments(
        fixtures.comment_records(size.comments, seed=seed), os.path.join(workdir, "comments.jsonl")
    )
    docs, topics = fixtures.planted_topic_docs(size.train + size.valid, n_topics=2, seed=seed + 1)
    split = corpus.split_tail(fixtures.labeled_from_topics(docs, topics), size.valid)
    corpus.save_labeled(list(split.train), os.path.join(workdir, "train.tsv"))
    corpus.save_labeled(list(split.validation), os.path.join(workdir, "valid.tsv"))
    # The vectors cover every planted topic's vocabulary, a superset of the
    # words the corpora use, so no token takes the n-gram fallback here.
    vectors = os.path.join(workdir, "vectors.txt")
    fixtures.write_vectors_file(
        vectors, fixtures.word_vector_table(fixtures.topic_vocabulary(5, size.vocab), seed=seed)
    )
    return TransferState(workdir, cfg, size, _table(cfg, vectors))


def transfer_job(st: TransferState) -> JobResult:
    cfg, d = st.cfg, st.dir
    width = cfg.k_users + 1
    pre_ckpt, out_ckpt = os.path.join(d, "pretrained.ckpt"), os.path.join(d, "model.ckpt")

    t0 = time.perf_counter()
    task = transfer.build_category_task(transfer.load_comments(os.path.join(d, "comments.jsonl")))
    params = transfer.pretrain(
        task, st.table, cluster_width=width, seed=cfg.seed, epochs=cfg.pretrain_epochs,
        batch_size=cfg.pretrain_batch, lr=cfg.lr, dropout=cfg.dropout, max_len=cfg.max_len,
        params=_init(cfg, len(task.label_space), width, st.table.dim),
    )
    net.save_checkpoint(pre_ckpt, params)

    t1 = time.perf_counter()
    base, _ = net.load_checkpoint(pre_ckpt)
    params = transfer.replace_head(base, len(corpus.COARSE_LABELS), seed=cfg.seed)
    train = transfer.encode_labeled(
        corpus.load_labeled(os.path.join(d, "train.tsv")), "coarse", st.table, None, width
    )
    valid = transfer.encode_labeled(
        corpus.load_labeled(os.path.join(d, "valid.tsv")), "coarse", st.table, None, width
    )
    schedule = transfer.make_schedule("bu", cfg.finetune_epochs)
    result = transfer.finetune(
        params, schedule, train, valid, metric="binary_f1", seed=cfg.seed,
        batch_size=cfg.finetune_batch, lr=cfg.lr, dropout=cfg.dropout, max_len=cfg.max_len,
    )
    net.save_checkpoint(out_ckpt, result.params)
    preds = transfer.predict_dataset(result.params, valid, max_len=cfg.max_len)
    f1 = transfer.metric_fn("binary_f1", result.params.n_classes)(preds, valid.labels)
    t2 = time.perf_counter()

    epochs = sum(p.max_epochs for p in schedule.phases)
    return JobResult(
        stages={"pretrain": t1 - t0, "finetune": t2 - t1},
        work={
            "pretrain": len(task.examples) * cfg.pretrain_epochs,
            "finetune": len(train) * epochs,
        },
        digests={"pretrained_ckpt": _file_sha(pre_ckpt), "finetuned_ckpt": _file_sha(out_ckpt)},
        check=lambda: transfer_checks(f1, result.params, out_ckpt, st.size.f1_floor),
    )


def transfer_checks(f1: float, params: net.NetworkParams, ckpt: str, floor: float) -> list[str]:
    failed = []
    if not f1 >= floor:
        failed.append(f"fine-tuned binary F1 {f1:.3f} below {floor}")
    reloaded, _ = net.load_checkpoint(ckpt)
    arch = ("n_classes", "cluster_width", "embed_dim", "hidden", "filters", "dense",
            "kernels", "leaky_slope")
    if any(getattr(reloaded, a) != getattr(params, a) for a in arch):
        failed.append("reloaded checkpoint arch differs")
    return failed


# --- topics -----------------------------------------------------------------


@dataclass(frozen=True)
class TopicsSize:
    docs: int = 300
    planted: int = 5
    k: int = 20
    iterations: int = 40
    cliques: int = 5
    users_per_clique: int = 12
    mention_tweets: int = 800
    k_users: int = 50
    foldin_docs: int = 300
    infer_iterations: int = 30
    purity_floor: float = 0.9


@dataclass
class TopicsState:
    dir: str
    cfg: RunConfig
    size: TopicsSize
    tokens: int  # training corpus size, for the count invariants
    foldin_truth: dict[str, int]  # tweet id -> planted topic
    clique_of: dict[str, int]


def topics_setup(workdir: str, seed: int, size: TopicsSize) -> TopicsState:
    """Write the topic corpus, the fold-in tweets and the mention lists."""
    cfg = RunConfig(
        seed=seed, k_topics=size.k, k_users=size.k_users, lda_iterations=size.iterations,
        infer_iterations=size.infer_iterations,
    )
    docs, _ = fixtures.planted_topic_docs(size.docs, n_topics=size.planted, purity=0.9, seed=seed)
    corpus.save_token_lines(docs, os.path.join(workdir, "topic_corpus.txt"))
    fold, fold_topics = fixtures.planted_topic_docs(
        size.foldin_docs, n_topics=size.planted, purity=0.9, seed=seed + 1
    )
    raw = fixtures.raw_from_docs(fold)
    corpus.save_raw(raw, os.path.join(workdir, "foldin_tweets.jsonl"))
    tweets, clique_of = fixtures.clique_mentions(
        n_cliques=size.cliques, users_per_clique=size.users_per_clique,
        n_tweets=size.mention_tweets, seed=seed,
    )
    lists = corpus.extract_mention_lists(tweets, min_mentions=2, min_user_freq=1)
    corpus.save_token_lines(lists, os.path.join(workdir, "mentions.txt"))
    return TopicsState(
        workdir, cfg, size, tokens=sum(len(d) for d in docs),
        foldin_truth={t.id: topic for t, topic in zip(raw, fold_topics)},
        clique_of={u: clique_of[u] for m in lists for u in m},
    )


def topics_job(st: TopicsState) -> JobResult:
    cfg, d = st.cfg, st.dir
    model_path, clusters_path = os.path.join(d, "topics.json"), os.path.join(d, "clusters.tsv")
    alpha = cfg.lda_alpha or None

    t0 = time.perf_counter()
    docs = corpus.load_token_lines(os.path.join(d, "topic_corpus.txt"))
    model = lda.train_gibbs(
        docs, k=cfg.k_topics, alpha=alpha, beta=cfg.lda_beta,
        iterations=cfg.lda_iterations, seed=cfg.seed,
    )
    lda.save_model(model, model_path)

    t1 = time.perf_counter()
    lists = corpus.load_token_lines(os.path.join(d, "mentions.txt"))
    clusters = lda.cluster_users(
        lists, k=cfg.k_users, alpha=alpha, beta=cfg.lda_beta,
        iterations=cfg.lda_iterations, seed=cfg.seed,
    )
    lda.save_clusters(clusters, clusters_path)

    t2 = time.perf_counter()
    loaded = lda.load_model(model_path)
    tweets = corpus.deduplicate(corpus.load_raw(os.path.join(d, "foldin_tweets.jsonl")))
    stopwords = textprep.load_stopwords()
    task = transfer.build_topic_task(
        tweets, loaded, stopwords, infer_iterations=cfg.infer_iterations, seed=cfg.seed,
    )
    t3 = time.perf_counter()

    # Fold-in work: in-vocabulary meaningful tokens of the labeled tweets.
    known = sum(
        1 for example, _ in task.examples
        for tok in textprep.meaningful_tokens(example, stopwords) if tok in loaded.vocab
    )
    labels = [y for _, y in task.examples]
    planted = [st.foldin_truth[e.source_id] for e, _ in task.examples]
    return JobResult(
        stages={"lda_train": t1 - t0, "cluster": t2 - t1, "foldin": t3 - t2},
        work={
            "lda_train": sum(len(doc) for doc in docs) * cfg.lda_iterations,
            "cluster": sum(len(m) for m in lists) * cfg.lda_iterations,
            "foldin": known * cfg.infer_iterations,
        },
        digests={
            "lda_counts": _sha(model.n_tw.tobytes(), model.n_t.tobytes()),
            "clusters": _file_sha(clusters_path),
            "foldin_labels": _sha(np.array(labels, dtype=np.int64).tobytes()),
        },
        check=lambda: topics_checks(st, model, loaded, planted, labels, clusters),
    )


def topics_checks(
    st: TopicsState,
    model: lda.LdaModel,
    loaded: lda.LdaModel,
    planted: list[int],
    labels: list[int],
    clusters: lda.UserClusters,
) -> list[str]:
    failed = []
    if not (
        (model.n_tw >= 0).all()
        and np.array_equal(model.n_tw.sum(axis=1), model.n_t)
        and int(model.n_t.sum()) == st.tokens
    ):
        failed.append("LDA count invariants broken")
    if not (np.array_equal(loaded.n_tw, model.n_tw) and loaded.vocab == model.vocab):
        failed.append("topic model changed in a save/load round trip")
    floor = st.size.purity_floor
    foldin = _purity(labels, planted)
    if len(labels) != len(st.foldin_truth) or not foldin >= floor:
        failed.append(f"fold-in purity {foldin:.3f} over {len(labels)} tweets below {floor}")
    users = sorted(clusters.cluster_of)
    cliques = _purity([clusters.cluster_of[u] for u in users], [st.clique_of[u] for u in users])
    if len(users) != len(st.clique_of) or not cliques >= floor:
        failed.append(f"clique purity {cliques:.3f} over {len(users)} users below {floor}")
    return failed


# --- classify ---------------------------------------------------------------


@dataclass(frozen=True)
class ClassifySize:
    tweets: int = 800
    tweet_len: tuple[int, int] = (20, 40)
    words_per_topic: int = 2000
    known_share: float = 0.3  # share of the vocabulary in the vectors file
    train: int = 128
    train_epochs: int = 2
    accuracy_floor: float = 0.8


@dataclass
class ClassifyState:
    dir: str
    cfg: RunConfig
    size: ClassifySize
    width: int
    golds: list[str]


def classify_setup(workdir: str, seed: int, size: ClassifySize) -> ClassifyState:
    """Write vectors and long labeled tweets; train the checkpoint briefly.

    The training tweets have the fixtures' usual 8 to 14 tokens, drawn
    from the same planted vocabularies as the long tweets to classify.
    """
    cfg = RunConfig(seed=seed, finetune_epochs=size.train_epochs)
    vocab = fixtures.topic_vocabulary(2, size.words_per_topic)
    rng = np.random.default_rng([seed, 3])
    known = [w for w in vocab if rng.random() < size.known_share]
    # Real vectors cluster by topic: give each planted topic a direction.
    direction = rng.normal(0.0, 0.25, (2, cfg.embed_dim))
    table = fixtures.word_vector_table(known, dim=cfg.embed_dim, seed=seed)
    for w in known:
        table[w] = table[w] + direction[fixtures.token_majority_topic([w])]
    vectors = os.path.join(workdir, "vectors.txt")
    fixtures.write_vectors_file(vectors, table)
    docs, topics = fixtures.planted_topic_docs(
        size.tweets, n_topics=2, words_per_topic=size.words_per_topic,
        doc_len=size.tweet_len, purity=0.8, seed=seed,
    )
    tweets = fixtures.labeled_from_topics(docs, topics)
    corpus.save_labeled(tweets, os.path.join(workdir, "tweets.tsv"))

    table = _table(cfg, vectors)
    width = cfg.k_users + 1
    train_docs, train_topics = fixtures.planted_topic_docs(
        size.train + 32, n_topics=2, words_per_topic=size.words_per_topic,
        purity=0.8, seed=seed + 1,
    )
    split = corpus.split_tail(fixtures.labeled_from_topics(train_docs, train_topics), 32)
    train = transfer.encode_labeled(split.train, "coarse", table, None, width)
    valid = transfer.encode_labeled(split.validation, "coarse", table, None, width)
    result = transfer.finetune(
        _init(cfg, len(corpus.COARSE_LABELS), width, table.dim),
        transfer.make_schedule("none", cfg.finetune_epochs), train, valid,
        metric="binary_f1", seed=cfg.seed, batch_size=cfg.finetune_batch, lr=cfg.lr,
        dropout=cfg.dropout, max_len=cfg.max_len,
    )
    net.save_checkpoint(os.path.join(workdir, "model.ckpt"), result.params)
    return ClassifyState(workdir, cfg, size, width, [t.coarse for t in tweets])


def classify_job(st: ClassifyState) -> JobResult:
    cfg, d = st.cfg, st.dir
    names = corpus.COARSE_LABELS

    t0 = time.perf_counter()
    table = _table(cfg, os.path.join(d, "vectors.txt"))
    data = corpus.load_labeled(os.path.join(d, "tweets.tsv"))
    encoded = transfer.encode_labeled(data, "coarse", table, None, st.width)

    t1 = time.perf_counter()
    params, _ = net.load_checkpoint(os.path.join(d, "model.ckpt"))
    preds = transfer.predict_dataset(params, encoded, max_len=cfg.max_len)
    pred_names = [names[p] for p in preds]
    gold_names = [names[g] for g in encoded.labels]
    report = evalkit.binary_metrics(pred_names, gold_names, positive="offense")
    text = evalkit.format_report(evalkit.aggregate_runs([report]), runs=1)
    with open(os.path.join(d, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    t2 = time.perf_counter()

    return JobResult(
        stages={"encode": t1 - t0, "predict": t2 - t1},
        work={"encode": len(data), "predict": len(data)},
        digests={"predictions": _sha(np.asarray(preds, dtype=np.int64).tobytes())},
        check=lambda: classify_checks(pred_names, st.golds, st.size.accuracy_floor),
    )


def classify_checks(pred_names: list[str], golds: list[str], floor: float) -> list[str]:
    if len(pred_names) != len(golds):
        return [f"{len(pred_names)} predictions for {len(golds)} tweets"]
    accuracy = sum(p == g for p, g in zip(pred_names, golds)) / len(golds)
    return [] if accuracy >= floor else [f"accuracy {accuracy:.3f} below {floor}"]


# --- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (workdir, seed, size) -> state
    job: Callable[..., JobResult]  # (state) -> JobResult
    size: object
    # End-to-end slot -> (reported name, unit, stages whose work is
    # counted, stages whose wall time is counted).
    rates: dict[str, tuple[str, str, tuple[str, ...], tuple[str, ...]]]


WORKLOADS = {
    "transfer": Workload(
        "transfer", transfer_setup, transfer_job, TransferSize(),
        {
            "stage1_per_s": ("pretrain_ex_per_s", "ex/s", ("pretrain",), ("pretrain",)),
            "stage2_per_s": ("finetune_ex_per_s", "ex/s", ("finetune",), ("finetune",)),
            "stage3_per_s": (
                "transfer_ex_per_s", "ex/s", ("pretrain", "finetune"), ("pretrain", "finetune")
            ),
        },
    ),
    "topics": Workload(
        "topics", topics_setup, topics_job, TopicsSize(),
        {
            "stage1_per_s": ("lda_train_tok_per_s", "tok/s", ("lda_train",), ("lda_train",)),
            "stage2_per_s": ("cluster_tok_per_s", "tok/s", ("cluster",), ("cluster",)),
            "stage3_per_s": ("foldin_tok_per_s", "tok/s", ("foldin",), ("foldin",)),
        },
    ),
    "classify": Workload(
        "classify", classify_setup, classify_job, ClassifySize(),
        {
            "stage1_per_s": (
                "classify_tweets_per_s", "tweets/s", ("encode",), ("encode", "predict")
            ),
            "stage2_per_s": ("encode_tweets_per_s", "tweets/s", ("encode",), ("encode",)),
            "stage3_per_s": ("predict_tweets_per_s", "tweets/s", ("predict",), ("predict",)),
        },
    ),
}
