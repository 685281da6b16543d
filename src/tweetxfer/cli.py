"""Command line entry points.

Exit codes: 0 on success, 1 for usage problems (bad flags, missing
arguments), 2 for data problems (unreadable or malformed files, values
out of range), 3 when training diverges (a non-finite loss, gradient
or weight).  All randomness flows from --seed / the config file, so
reruns with the same inputs and BLAS thread count produce identical
artifacts.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import fields

from . import baseline, corpus, embed, evalkit, fixtures, lda, net, textprep, transfer
from .config import RunConfig, load_config
from .errors import DataError, TrainingError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse exits 2 by default; we want 1
        raise UsageError(message)


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--seed", type=int, help="master random seed")
    common.add_argument("--verbose", action="store_true", help="log progress to stderr")
    return common


def _config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then ``--config``, then every flag whose dest is a ``RunConfig`` key."""
    keys = {f.name for f in fields(RunConfig)}
    overrides = {key: value for key, value in vars(args).items() if key in keys}
    return load_config(args.config, overrides=overrides)


def _load_table(path: str | None, cfg: RunConfig) -> embed.EmbeddingTable:
    if path is None:
        return embed.EmbeddingTable(
            dim=cfg.embed_dim, word_vectors={}, buckets=cfg.ngram_buckets,
            n_min=cfg.ngram_min, n_max=cfg.ngram_max, seed=cfg.embed_seed,
        )
    return embed.load_vectors(
        path, buckets=cfg.ngram_buckets, n_min=cfg.ngram_min,
        n_max=cfg.ngram_max, seed=cfg.embed_seed,
    )


def _fresh_network(
    cfg: RunConfig, n_classes: int, width: int, embed_dim: int
) -> net.NetworkParams:
    """A newly initialised network with the configured layer sizes."""
    return net.init_params(
        n_classes, width, seed=cfg.seed, embed_dim=embed_dim,
        hidden=cfg.lstm_units, filters=cfg.filters, dense=cfg.dense_units,
        kernels=cfg.kernel_sizes, leaky_slope=cfg.leaky_slope,
    )


# The validation metric of each labeled task, as ``evalkit.scorer`` names it.
_METRIC = {"coarse": "binary_f1", "fine": "macro_f1"}


def _report(task: str, preds: list[str], golds: list[str]) -> evalkit.MetricsReport:
    return evalkit.scorer(_METRIC[task], corpus.TASK_LABELS[task])(preds, golds)


def _cmd_prepare(args: argparse.Namespace) -> int:
    cfg = _config(args)
    tweets = corpus.load_labeled(args.labeled)
    split = corpus.split_tail(list(tweets), cfg.tail)
    os.makedirs(args.out, exist_ok=True)
    corpus.save_labeled(list(split.train), os.path.join(args.out, "train.tsv"))
    corpus.save_labeled(list(split.validation), os.path.join(args.out, "valid.tsv"))
    if args.tokenized:
        docs = [list(transfer.tokenize_text(t.text, t.id).tokens) for t in tweets]
        corpus.save_token_lines(docs, args.tokenized)
    print(f"train {len(split.train)} validation {len(split.validation)}")
    return 0


def _cmd_lda_train(args: argparse.Namespace) -> int:
    cfg = _config(args)
    docs = corpus.load_token_lines(args.corpus)
    if not docs:
        raise DataError(f"{args.corpus}: no documents")
    model = lda.train_gibbs(
        docs, k=cfg.k_topics, alpha=cfg.lda_alpha or None, beta=cfg.lda_beta,
        iterations=cfg.lda_iterations, seed=cfg.seed,
    )
    lda.save_model(model, args.out)
    log = logging.getLogger("tweetxfer.cli")
    for t in range(model.k):
        log.info("topic %d: %s", t, " ".join(lda.top_words(model, t, 8)))
    print(f"trained {model.k} topics on {len(docs)} documents")
    return 0


def _cmd_cluster_users(args: argparse.Namespace) -> int:
    cfg = _config(args)
    if args.raw:
        tweets = corpus.deduplicate(corpus.load_raw(args.raw))
        lists = corpus.extract_mention_lists(
            tweets, min_mentions=cfg.min_mentions, min_user_freq=cfg.min_user_freq
        )
    else:
        lists = corpus.load_token_lines(args.mentions)
    if not lists:
        raise DataError(f"{args.raw or args.mentions}: no usable mention lists after filtering")
    clusters = lda.cluster_users(
        lists, k=cfg.k_users, alpha=cfg.lda_alpha or None, beta=cfg.lda_beta,
        iterations=cfg.lda_iterations, seed=cfg.seed,
    )
    lda.save_clusters(clusters, args.out)
    print(f"clustered {len(clusters.cluster_of)} users into {clusters.k} groups")
    return 0


def _cmd_pretrain(args: argparse.Namespace) -> int:
    cfg = _config(args)
    table = _load_table(args.vectors, cfg)
    if args.task == "category":
        task = transfer.build_category_task(transfer.load_comments(args.corpus))
    else:
        tweets = corpus.deduplicate(corpus.load_raw(args.corpus))
        if args.task == "emoji":
            task = transfer.build_emoji_task(tweets)
        else:
            if not args.lda:
                raise UsageError("--lda is required for the topic task")
            model = lda.load_model(args.lda)
            task = transfer.build_topic_task(
                tweets, model, textprep.load_stopwords(),
                infer_iterations=cfg.infer_iterations, seed=cfg.seed,
            )
    if len(task.label_space) < 2:
        raise DataError(
            f"{args.corpus}: {args.task} task needs at least 2 labels, "
            f"got {len(task.label_space)}"
        )
    if not task.examples:
        raise DataError(f"{args.corpus}: {args.task} task has no examples")
    width = cfg.k_users + 1
    params = transfer.pretrain(
        task, table, cluster_width=width, seed=cfg.seed,
        epochs=cfg.pretrain_epochs, batch_size=cfg.pretrain_batch,
        lr=cfg.lr, dropout=cfg.dropout, max_len=cfg.max_len,
        params=_fresh_network(cfg, len(task.label_space), width, table.dim),
    )
    net.save_checkpoint(args.out, params)
    print(
        f"pretrained {args.task} on {len(task.examples)} examples, "
        f"{len(task.label_space)} labels"
    )
    return 0


def _check_compat(
    path: str, params: net.NetworkParams, table: embed.EmbeddingTable, width: int
) -> None:
    if params.embed_dim != table.dim:
        raise DataError(
            f"{path}: checkpoint expects {params.embed_dim}-dim embeddings, "
            f"vectors give {table.dim}"
        )
    if params.cluster_width != width:
        raise DataError(
            f"{path}: checkpoint has cluster width {params.cluster_width}, run would use {width}"
        )


def _cmd_finetune(args: argparse.Namespace) -> int:
    cfg = _config(args)
    table = _load_table(args.vectors, cfg)
    clusters = lda.load_clusters(args.clusters) if args.clusters else None
    width = clusters.k + 1 if clusters else cfg.k_users + 1
    n_classes = len(corpus.TASK_LABELS[args.task])
    if args.ckpt.lower() == "none":
        params = _fresh_network(cfg, n_classes, width, table.dim)
    else:
        base, _ = net.load_checkpoint(args.ckpt)
        _check_compat(args.ckpt, base, table, width)
        params = transfer.replace_head(base, n_classes, seed=cfg.seed)
    train = transfer.encode_labeled(
        corpus.load_labeled(args.train), args.task, table, clusters, width
    )
    valid = transfer.encode_labeled(
        corpus.load_labeled(args.valid), args.task, table, clusters, width
    )
    schedule = transfer.make_schedule(args.strategy, cfg.finetune_epochs)
    metric = _METRIC[args.task]
    result = transfer.finetune(
        params, schedule, train, valid, metric=metric, seed=cfg.seed,
        batch_size=cfg.finetune_batch, lr=cfg.lr, dropout=cfg.dropout,
        max_len=cfg.max_len,
    )
    net.save_checkpoint(args.out, result.params)
    # Every schedule ends in a best-keeping phase, so the saved params score this.
    print(f"{metric} {result.best_scores[-1]:.4f}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _config(args)
    table = _load_table(args.vectors, cfg)
    clusters = lda.load_clusters(args.clusters) if args.clusters else None
    data = corpus.load_labeled(args.data)
    names = corpus.TASK_LABELS[args.task]
    golds = [getattr(t, args.task) for t in data]
    run_preds: list[list[str]] = []
    # The encoding depends on the checkpoint only through its cluster width.
    encoded_by_width: dict[int, transfer.EncodedDataset] = {}
    for path in args.ckpt:
        params, _ = net.load_checkpoint(path)
        if params.n_classes != len(names):
            raise DataError(
                f"{path}: checkpoint has {params.n_classes} classes, "
                f"task {args.task} needs {len(names)}"
            )
        width = clusters.k + 1 if clusters else params.cluster_width
        _check_compat(path, params, table, width)
        if width not in encoded_by_width:
            encoded_by_width[width] = transfer.encode_labeled(
                data, args.task, table, clusters, width
            )
        preds = transfer.predict_dataset(params, encoded_by_width[width], max_len=cfg.max_len)
        run_preds.append([names[p] for p in preds])
    reports = [_report(args.task, preds, golds) for preds in run_preds]
    text = evalkit.format_report(evalkit.aggregate_runs(reports), runs=len(reports))
    sys.stdout.write(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.errors:
        # Error listing comes from the first checkpoint's predictions.
        first = run_preds[0]
        errs = evalkit.error_report(
            first, golds, [(t.text, g, p) for t, g, p in zip(data, golds, first)],
            positive=names[0],
        )
        with open(args.errors, "w", encoding="utf-8") as fh:
            fh.write("type\tgold\tpred\ttext\n")
            for text_, gold, pred in errs.false_positives:
                fh.write(f"fp\t{gold}\t{pred}\t{corpus.escape_text(text_)}\n")
            for text_, gold, pred in errs.false_negatives:
                fh.write(f"fn\t{gold}\t{pred}\t{corpus.escape_text(text_)}\n")
        print(f"errors fp {errs.fp_share:.1f}% fn {errs.fn_share:.1f}%")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    cfg = _config(args)
    table = _load_table(args.vectors, cfg)
    train = corpus.load_labeled(args.train)
    valid = corpus.load_labeled(args.valid)
    train_labels = [getattr(t, args.task) for t in train]
    tok_train = [transfer.tokenize_text(t.text, t.id) for t in train]
    tok_valid = [transfer.tokenize_text(t.text, t.id) for t in valid]
    idf = embed.compute_idf(tok_train)
    model = baseline.train_linear(
        baseline.featurize(tok_train, table, idf),
        train_labels,
        l2=cfg.baseline_l2, epochs=cfg.baseline_epochs, lr=cfg.baseline_lr,
        seed=cfg.seed,
    )
    preds = baseline.predict_many(model, baseline.featurize(tok_valid, table, idf))
    report = _report(args.task, preds, [getattr(t, args.task) for t in valid])
    sys.stdout.write(evalkit.format_report(report))
    if args.top_terms:
        ranked = baseline.top_terms(tok_train, train_labels, idf, n=args.top_terms)
        for label in sorted(ranked, key=str):
            print(f"top[{label}] " + " ".join(ranked[label]))
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    cfg = _config(args)
    params = _fresh_network(cfg, 3, 5, cfg.embed_dim)
    batch = fixtures.toy_batch(
        n_classes=3, cluster_width=5, embed_dim=cfg.embed_dim, seed=cfg.seed
    )
    err = net.gradient_check(
        params, batch, eps=args.eps, samples_per_array=args.samples, seed=cfg.seed
    )
    print(f"max relative error {err:.3e}")
    if err < args.tolerance:
        return 0
    print(f"exceeds tolerance {args.tolerance:.1e}", file=sys.stderr)
    return 2


def _cmd_make_fixtures(args: argparse.Namespace) -> int:
    cfg = _config(args)
    paths = fixtures.write_all(args.out, seed=cfg.seed)
    print(f"wrote {len(paths)} fixture files to {args.out}")
    return 0


def _build_parser() -> _Parser:
    common = _common_flags()
    parser = _Parser(prog="tweetxfer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", parents=[common], help="split labeled data")
    p.add_argument("--labeled", required=True)
    p.add_argument("--out", required=True, help="directory for train.tsv / valid.tsv")
    p.add_argument("--tail", type=int, dest="tail", help="validation size, taken from the end")
    p.add_argument("--tokenized", help="also write a tokenized corpus file")
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("lda-train", parents=[common], help="train the topic model")
    p.add_argument("--corpus", required=True, help="tokenized corpus, one doc per line")
    p.add_argument("--k", type=int, dest="k_topics")
    p.add_argument("--iters", type=int, dest="lda_iterations")
    p.add_argument("--alpha", type=float, dest="lda_alpha")
    p.add_argument("--beta", type=float, dest="lda_beta")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_lda_train)

    p = sub.add_parser("cluster-users", parents=[common], help="cluster co-mentioned users")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--mentions", help="mention lists, one space-joined list per line")
    src.add_argument("--raw", help="raw tweets JSONL; lists are extracted first")
    p.add_argument("--k", type=int, dest="k_users")
    p.add_argument("--iters", type=int, dest="lda_iterations")
    p.add_argument("--min-mentions", type=int, dest="min_mentions")
    p.add_argument("--min-user-freq", type=int, dest="min_user_freq")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cluster_users)

    p = sub.add_parser("pretrain", parents=[common], help="train on an auxiliary task")
    p.add_argument("--task", required=True, choices=("category", "emoji", "topic"))
    p.add_argument("--corpus", required=True)
    p.add_argument("--lda", help="topic model (topic task only)")
    p.add_argument("--vectors")
    p.add_argument("--epochs", type=int, dest="pretrain_epochs")
    p.add_argument("--batch", type=int, dest="pretrain_batch")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("finetune", parents=[common], help="train on labeled tweets")
    p.add_argument("--ckpt", required=True, help="pretrained checkpoint, or 'none'")
    p.add_argument("--strategy", required=True, choices=transfer.STRATEGIES)
    p.add_argument("--task", required=True, choices=tuple(corpus.TASK_LABELS))
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--clusters")
    p.add_argument("--vectors")
    p.add_argument("--epochs", type=int, dest="finetune_epochs", help="per-phase epoch budget")
    p.add_argument("--batch", type=int, dest="finetune_batch")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("evaluate", parents=[common], help="score checkpoints")
    p.add_argument("--ckpt", required=True, nargs="+")
    p.add_argument("--data", required=True)
    p.add_argument("--task", required=True, choices=tuple(corpus.TASK_LABELS))
    p.add_argument("--clusters")
    p.add_argument("--vectors")
    p.add_argument("--report", help="write the table here as well")
    p.add_argument("--errors", help="write misclassified tweets here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("baseline", parents=[common], help="linear reference model")
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--task", required=True, choices=tuple(corpus.TASK_LABELS))
    p.add_argument("--vectors")
    p.add_argument("--l2", type=float, dest="baseline_l2")
    p.add_argument("--epochs", type=int, dest="baseline_epochs")
    p.add_argument("--lr", type=float, dest="baseline_lr")
    p.add_argument("--top-terms", type=int, dest="top_terms", help="print N top tokens per class")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("gradcheck", parents=[common], help="verify backward pass numerically")
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--samples", type=int, default=8, help="indices checked per array")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("make-fixtures", parents=[common], help="write synthetic corpora")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_make_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # DataError is a ValueError
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
