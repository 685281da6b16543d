"""Spans around the public functions of each tweetxfer layer.

The probes replace module attributes with wrappers while a traced job
runs, so calls between modules (``transfer`` into ``net`` and ``lda``,
``lda.cluster_users`` into ``lda.train_gibbs``) pass through them
without any change to the package.  A name imported with ``from ...
import`` is a separate attribute of the importing module and is wrapped
there too, as ``transfer.majority_topic`` is.

Work counts (tokens, token-samples, OOV words) are taken after the job,
from references the wrappers keep, so counting adds nothing to the
spans it describes.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from dataclasses import dataclass, field

from tweetxfer import corpus, embed, evalkit, lda, net, textprep, transfer

from tracer import Span, Tracer, distribution, self_times

STAGE_MASKS = (
    ("pretrain", "g1234"),
    ("finetune", "g4"), ("finetune", "g1"), ("finetune", "g2"),
    ("finetune", "g3"), ("finetune", "g1234"),
)


def mask_key(freeze: net.FreezeMask) -> str:
    return "g" + "".join(str(g) for g in sorted(freeze.trainable))


@dataclass
class Counts:
    """Token counts that are not spans, settled after each traced job."""

    tokens: int = 0
    embedded: int = 0
    oov: int = 0
    # Distinct OOV words per (n_min, n_max, buckets) of the table that saw them.
    oov_words: dict[tuple[int, int, int], set[str]] = field(default_factory=dict)


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _probes(tracer: Tracer, counts: Counts) -> list[tuple]:
    """(owner, attribute, span-name function, keep function) per probe.

    A keep function returns a thunk that later yields the span's work.
    """

    def fixed(name):
        return lambda args, kwargs: name

    def forward_name(args, kwargs):
        return "net.forward." + _arg(args, kwargs, 2, "mode", "train")

    def update_name(kind):
        def name(args, kwargs):
            stage = tracer.enclosing(("transfer.pretrain", "transfer.finetune"))
            freeze = _arg(args, kwargs, 3, "freeze", net.ALL_LAYERS)
            return f"net.{kind}.{stage.split('.')[1] if stage else 'other'}.{mask_key(freeze)}"
        return name

    def gibbs_name(args, kwargs):
        return f"lda.train_gibbs.k{_arg(args, kwargs, 1, 'k')}"

    def gibbs_keep(args, kwargs, result):
        docs, iterations = args[0], _arg(args, kwargs, 4, "iterations", 1000)
        return lambda: sum(len(d) for d in docs) * iterations

    def infer_keep(args, kwargs, result):
        model, tokens = args[0], args[1]
        iterations = _arg(args, kwargs, 2, "iterations", 50)
        return lambda: sum(1 for t in tokens if t in model.vocab) * iterations

    def tokenize_keep(args, kwargs, result):
        def work():
            counts.tokens += len(result.tokens)
            return len(result.tokens)
        return work

    def embed_keep(args, kwargs, result):
        table, tokens = args[0], args[1]

        def work():
            oov = [t for t in tokens if t not in table.word_vectors]
            counts.embedded += len(tokens)
            counts.oov += len(oov)
            key = (table.n_min, table.n_max, table.buckets)
            counts.oov_words.setdefault(key, set()).update(oov)
            return len(tokens)
        return work

    majority = fixed("lda.majority_topic")
    scores = fixed("evalkit.metrics")
    return [
        (net, "forward", forward_name, None),
        (net, "backward", update_name("backward"), None),
        (net, "step", update_name("step"), None),
        (net, "make_batch", fixed("net.make_batch"), None),
        (net, "save_checkpoint", fixed("net.checkpoint_io"), None),
        (net, "load_checkpoint", fixed("net.checkpoint_io"), None),
        (lda, "train_gibbs", gibbs_name, gibbs_keep),
        (lda, "cluster_users", fixed("lda.cluster_users"), None),
        (lda, "infer_topics", fixed("lda.infer_topics"), infer_keep),
        (lda, "majority_topic", majority, None),
        (transfer, "majority_topic", majority, None),
        (lda, "save_model", fixed("lda.model_io"), None),
        (lda, "load_model", fixed("lda.model_io"), None),
        (lda, "save_clusters", fixed("lda.model_io"), None),
        (embed, "load_vectors", fixed("embed.load_vectors"), None),
        (embed.EmbeddingTable, "embed_tokens", fixed("embed.embed_tokens"), embed_keep),
        (textprep, "normalize", fixed("textprep.normalize"), None),
        (textprep, "tokenize", fixed("textprep.tokenize"), tokenize_keep),
        (corpus, "load_labeled", fixed("corpus.load"), None),
        (corpus, "load_raw", fixed("corpus.load"), None),
        (corpus, "load_token_lines", fixed("corpus.load"), None),
        (transfer, "load_comments", fixed("corpus.load"), None),
        (transfer, "pretrain", fixed("transfer.pretrain"), None),
        (transfer, "finetune", fixed("transfer.finetune"), None),
        (transfer, "encode_labeled", fixed("transfer.encode"), None),
        (transfer, "encode_task", fixed("transfer.encode"), None),
        (transfer, "predict_dataset", fixed("transfer.predict_dataset"), None),
        (transfer, "build_topic_task", fixed("transfer.build_topic_task"), None),
        (evalkit, "binary_metrics", scores, None),
        (evalkit, "macro_metrics", scores, None),
        (transfer, "binary_metrics", scores, None),
        (transfer, "macro_metrics", scores, None),
        (evalkit, "aggregate_runs", fixed("evalkit.aggregate_runs"), None),
        (evalkit, "format_report", fixed("evalkit.format_report"), None),
    ]


def _wrap(tracer: Tracer, fn, name_of, keep, pending: list):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name_of(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if keep is not None:
            pending.append((span, keep(args, kwargs, result)))
        return result

    return wrapper


@contextlib.contextmanager
def instrumented(tracer: Tracer, counts: Counts):
    """Install every probe for the duration of the block, then restore.

    On exit the kept references are turned into span work and counts.
    """
    originals = []
    pending: list[tuple[Span, object]] = []
    try:
        for owner, attr, name_of, keep in _probes(tracer, counts):
            fn = owner.__dict__[attr]
            originals.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, fn, name_of, keep, pending))
        yield
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
        for span, work in pending:
            span.work = work()


def buckets_touched(counts: Counts) -> int:
    """Distinct n-gram buckets the OOV words hash to, per public helpers."""
    touched = set()
    for (n_min, n_max, buckets), words in counts.oov_words.items():
        for word in words:
            for gram in embed.char_ngrams(word, n_min, n_max):
                touched.add((n_min, n_max, buckets, embed.fnv1a64(gram.encode("utf-8")) % buckets))
    return len(touched)


def layer_metrics(
    tracer: Tracer, counts: Counts, rounds: int, walls: dict[str, list[tuple[float, float]]]
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run as {name: (value, unit)}.

    Totals (``.ms``, ``.self_ms``, counts) are per round, one round being
    one traced job of each workload.  ``walls`` holds, per workload, the
    (untraced, traced) wall seconds of each round.
    """
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return by_name.get(name, [])

    def total_ms(names, self_only=False):
        secs = sum(own[s.id] if self_only else s.duration for n in names for s in calls(n))
        return 1e3 * secs / rounds

    def us_per_unit(name):
        spans_ = calls(name)
        work = sum(s.work for s in spans_)
        return 1e6 * sum(s.duration for s in spans_) / work if work else 0.0

    out: dict[str, tuple[float, str]] = {}

    def dist(name):
        d = distribution([1e3 * s.duration for s in calls(name)])
        out[f"{name}.p50_ms"] = (d["p50_ms"], "ms")
        out[f"{name}.tail_ms"] = (d["tail_ms"], "ms")
        out[f"{name}.tail_q"] = (d["tail_q"], "pct")
        out[f"{name}.n"] = (d["n"], "count")

    for mode in ("train", "eval"):
        dist(f"net.forward.{mode}")
    out["net.make_batch.self_ms"] = (total_ms(["net.make_batch"], True), "ms")
    for kind in ("backward", "step"):
        for stage, mask in STAGE_MASKS:
            dist(f"net.{kind}.{stage}.{mask}")
    out["net.checkpoint_io.ms"] = (total_ms(["net.checkpoint_io"]), "ms")
    head = out["net.backward.finetune.g4.p50_ms"][0]
    full = out["net.backward.finetune.g1234.p50_ms"][0]
    out["net.backward.head_to_full_ratio"] = (head / full if full else 0.0, "ratio")

    for k in (20, 50):
        name = f"lda.train_gibbs.k{k}"
        out[f"{name}.self_ms"] = (total_ms([name], True), "ms")
        out[f"{name}.us_per_token_sample"] = (us_per_unit(name), "us")
    out["lda.cluster_users.self_ms"] = (total_ms(["lda.cluster_users"], True), "ms")
    dist("lda.infer_topics")
    out["lda.infer_topics.calls"] = (out.pop("lda.infer_topics.n")[0] / rounds, "count")
    out["lda.infer_topics.us_per_token_sample"] = (us_per_unit("lda.infer_topics"), "us")
    out["lda.model_io.ms"] = (total_ms(["lda.model_io"]), "ms")

    out["embed.load_vectors.ms"] = (total_ms(["embed.load_vectors"]), "ms")
    out["embed.embed_tokens.self_ms"] = (total_ms(["embed.embed_tokens"], True), "ms")
    out["embed.tokens"] = (counts.embedded / rounds, "count")
    out["embed.oov_share"] = (counts.oov / counts.embedded if counts.embedded else 0.0, "share")
    # Every round embeds the same words, so their buckets are not per round.
    out["embed.buckets_touched"] = (buckets_touched(counts), "count")

    out["textprep.tokenize.self_ms"] = (
        total_ms(["textprep.normalize", "textprep.tokenize"], True), "ms"
    )
    out["textprep.tokens"] = (counts.tokens / rounds, "count")
    out["corpus.load.self_ms"] = (total_ms(["corpus.load"], True), "ms")

    for part in ("pretrain", "finetune", "encode", "predict_dataset", "build_topic_task"):
        out[f"transfer.{part}.self_ms"] = (total_ms([f"transfer.{part}"], True), "ms")
    out["evalkit.self_ms"] = (
        total_ms(["evalkit.metrics", "evalkit.aggregate_runs", "evalkit.format_report"], True),
        "ms",
    )

    for w, pairs in walls.items():
        base = statistics.median(u for u, _ in pairs)
        extra = statistics.median(t - u for u, t in pairs)
        out[f"trace.untraced_ms.{w}"] = (1e3 * base, "ms")
        out[f"trace.overhead_ms.{w}"] = (1e3 * extra, "ms")
    return out
