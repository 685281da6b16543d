"""Pre-training tasks, fine-tuning loops and gradual unfreezing.

A pre-training task is a list of (tokenized tweet, label index) pairs
plus its label space.  Three builders exist: moderated-comment
categories, emoji prediction (the emoji is removed from the text it
labels), and LDA topic ids.  Fine-tuning consumes a freeze schedule: a
sequence of phases, each naming the trainable layer groups, an epoch
budget, and whether the phase keeps its best-validation snapshot.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from . import corpus, evalkit, net, textprep
from .corpus import LabeledTweet, RawTweet
from .embed import EmbeddingTable
from .errors import DataError, TrainingError, open_text, require
from .evalkit import binary_metrics, macro_metrics  # noqa: F401 (perfbench probes them here)
from .lda import LdaModel, UserClusters, majority_topic
from .textprep import TokenizedTweet

log = logging.getLogger(__name__)

STRATEGIES = ("none", "gu", "bu", "tu")
# Group order of the strategies that train one layer group per phase.
_ONE_GROUP_ORDER = {"bu": (4, 1, 2, 3), "tu": (4, 3, 2, 1)}
# Topic labelling skips tweets with fewer meaningful tokens than this:
# a topic inferred from one token is noise.
MIN_TOPIC_TOKENS = 2


@dataclass(frozen=True)
class PretrainTask:
    kind: str
    examples: tuple[tuple[TokenizedTweet, int], ...]
    label_space: tuple[str, ...]


@dataclass(frozen=True)
class CommentAnnotation:
    inappropriate: bool
    discriminating: bool


@dataclass(frozen=True)
class CommentRecord:
    id: str
    text: str
    annotations: tuple[CommentAnnotation, ...]


def load_comments(path: str) -> list[CommentRecord]:
    """JSON-lines moderated comments with per-annotator boolean flags.

    Each record needs a string ``id`` that no earlier record has, at
    least one annotator, and each flag must be a JSON ``true`` or
    ``false``.
    """
    records: list[CommentRecord] = []
    seen: set[str] = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{where}: bad JSON ({exc})") from None
            try:
                annotations = tuple(
                    CommentAnnotation(
                        inappropriate=require(a, "inappropriate", (bool,), where),
                        discriminating=require(a, "discriminating", (bool,), where),
                    )
                    for a in rec["annotations"]
                )
                text = require(rec, "text", (str,), where)
                rid = require(rec, "id", (str,), where)
            except (KeyError, TypeError):
                raise DataError(f"{where}: malformed comment record") from None
            if not annotations:
                raise DataError(f"{where}: comment {rid!r} has no annotations")
            if rid in seen:
                raise DataError(f"{where}: duplicate id {rid!r}")
            seen.add(rid)
            records.append(CommentRecord(id=rid, text=text, annotations=annotations))
    return records


def tokenize_text(text: str, source_id: str) -> TokenizedTweet:
    """The one tokenize recipe: ``textprep.normalize``, then ``textprep.tokenize``."""
    return textprep.tokenize(textprep.normalize(text), source_id=source_id)


def build_category_task(comments: list[CommentRecord]) -> PretrainTask:
    """Binary offense task from moderation flags.

    A comment is offensive when a strict majority of its annotators set
    either flag.  Comments without annotators are an error.
    """
    examples = []
    for rec in comments:
        n = len(rec.annotations)
        if n == 0:
            raise DataError(f"comment {rec.id!r} has no annotations")
        inappropriate = sum(a.inappropriate for a in rec.annotations)
        discriminating = sum(a.discriminating for a in rec.annotations)
        offensive = 2 * inappropriate > n or 2 * discriminating > n
        examples.append((tokenize_text(rec.text, rec.id), 0 if offensive else 1))
    return PretrainTask(
        kind="category", examples=tuple(examples), label_space=("offense", "other")
    )


def build_emoji_task(tweets: list[RawTweet]) -> PretrainTask:
    """Predict which emoji a tweet contained, from its emoji-free text.

    Tweets without emoji are skipped.  A tweet with d distinct emoji
    symbols becomes d examples sharing one stripped token sequence; the
    label space is the sorted set of all emoji seen.
    """
    label_space = tuple(sorted({e for t in tweets for e in t.emojis}))
    index = {e: i for i, e in enumerate(label_space)}
    examples = []
    for t in tweets:
        if not t.emojis:
            continue
        tokens = tokenize_text(textprep.remove_emoji(t.text), t.id)
        for e in t.emojis:
            examples.append((tokens, index[e]))
    return PretrainTask(kind="emoji", examples=tuple(examples), label_space=label_space)


def build_topic_task(
    tweets: list[RawTweet],
    model: LdaModel,
    stopwords: frozenset[str],
    infer_iterations: int = 50,
    seed: int = 0,
) -> PretrainTask:
    """Label tweets with their majority LDA topic.

    Only meaningful tokens in the model's vocabulary count, since fold-in
    ignores every other token.  Tweets with fewer than
    ``MIN_TOPIC_TOKENS`` of them are skipped rather than given the label
    of a uniform distribution.
    """
    examples = []
    for t in tweets:
        tokens = tokenize_text(t.text, t.id)
        known = [
            tok for tok in textprep.meaningful_tokens(tokens, stopwords) if tok in model.vocab
        ]
        if len(known) < MIN_TOPIC_TOKENS:
            continue
        label = majority_topic(model, known, iterations=infer_iterations, seed=seed)
        examples.append((tokens, label))
    return PretrainTask(
        kind="topic",
        examples=tuple(examples),
        label_space=tuple(str(i) for i in range(model.k)),
    )


@dataclass(frozen=True)
class EncodedDataset:
    """Network-ready inputs: token ids per example into one shared matrix.

    ``matrix`` holds one embedding row per distinct token, after a zero
    row 0 that stands for padding, so memory grows with the number of
    distinct tokens, not of tokens.  ``net.make_batch`` pads the ids.
    """

    ids: tuple[np.ndarray, ...]  # one int array per example, ids >= 1
    matrix: np.ndarray  # (distinct + 1, embed_dim), row 0 zero
    cluster_features: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def cluster_features_for(
    mentions: tuple[str, ...] | list[str],
    clusters: UserClusters | None,
    width: int,
) -> np.ndarray:
    """Multi-hot over clusters, last slot for users without a cluster."""
    vec = np.zeros(width)
    if clusters is None or width == 0:
        return vec
    for user in mentions:
        c = clusters.cluster_of.get(user)
        vec[c if c is not None else width - 1] = 1.0
    return vec


def _token_ids(
    token_lists: list[tuple[str, ...]], table: EmbeddingTable
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Ids numbering distinct tokens from 1 in first-seen order, and their
    embedding matrix with the zero padding row 0 on top."""
    index: dict[str, int] = {}
    flat = np.array(
        [index.setdefault(tok, len(index) + 1) for tokens in token_lists for tok in tokens],
        dtype=np.intp,
    )
    ids = tuple(np.split(flat, np.cumsum([len(tokens) for tokens in token_lists[:-1]])))
    # The matrix is built after the bucket draw, so it is not live at its peak.
    vectors = table.embed_tokens(list(index))
    return ids, np.concatenate([np.zeros((1, table.dim)), vectors])


def encode_task(task: PretrainTask, table: EmbeddingTable, cluster_width: int) -> EncodedDataset:
    """Embed a pre-training task; cluster features stay all-zero."""
    if not task.examples:
        raise DataError(f"{task.kind} task has no examples")
    ids, matrix = _token_ids([t.tokens for t, _ in task.examples], table)
    return EncodedDataset(
        ids=ids,
        matrix=matrix,
        cluster_features=np.zeros((len(ids), cluster_width)),
        labels=np.array([y for _, y in task.examples], dtype=np.int64),
    )


def encode_labeled(
    tweets: list[LabeledTweet] | tuple[LabeledTweet, ...],
    task: str,
    table: EmbeddingTable,
    clusters: UserClusters | None = None,
    cluster_width: int = 0,
) -> EncodedDataset:
    """Embed labeled tweets for one of ``corpus.TASK_LABELS``."""
    if task not in corpus.TASK_LABELS:
        raise ValueError(f"task must be one of {tuple(corpus.TASK_LABELS)}, got {task!r}")
    if not tweets:
        raise DataError("no labeled tweets to encode")
    index = {label: i for i, label in enumerate(corpus.TASK_LABELS[task])}
    ids, matrix = _token_ids([tokenize_text(t.text, t.id).tokens for t in tweets], table)
    feats = [
        cluster_features_for(corpus.extract_mentions(t.text), clusters, cluster_width)
        for t in tweets
    ]
    return EncodedDataset(
        ids=ids,
        matrix=matrix,
        cluster_features=np.array(feats),
        labels=np.array([index[getattr(t, task)] for t in tweets], dtype=np.int64),
    )


def _batches(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def _batch_from(data: EncodedDataset, idx: np.ndarray, max_len: int) -> net.Batch:
    """The examples at ``idx``, as ids into ``data.matrix``."""
    return net.make_batch(
        [data.ids[i] for i in idx],
        data.matrix,
        data.cluster_features[idx],
        data.labels[idx],
        max_len=max_len,
    )


def _require_finite(arrays: dict[str, np.ndarray], message: str) -> None:
    for name, array in arrays.items():
        if not np.isfinite(array).all():
            raise TrainingError(f"{message} in {name!r} (layer group {net.layer_of(name)})")


def _run_epoch(
    params: net.NetworkParams,
    state: net.OptimizerState,
    data: EncodedDataset,
    freeze: net.FreezeMask,
    batch_size: int,
    rng: np.random.Generator,
    dropout: float,
    max_len: int,
    where: str,
) -> float:
    """One shuffled pass over ``data``; returns the mean training loss.

    A non-finite loss, gradient, updated weight or Nadam second moment
    raises ``TrainingError`` prefixed with ``where``, which names the
    phase and epoch.  An infinite second moment would silently stop its
    element's updates for good.  The gradient is checked here, not left
    to ``net.step``, whose check raises the ValueError of a bad argument.
    These checks report what numpy's overflow and invalid-value warnings
    would announce, so the warnings are silenced.
    """
    order = rng.permutation(len(data))
    total = 0.0
    count = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for idx in _batches(len(data), batch_size, order):
            batch = _batch_from(data, idx, max_len)
            dropout_seed = int(rng.integers(0, 2**63))
            probs, cache = net.forward(
                params, batch, mode="train", dropout_seed=dropout_seed, dropout=dropout
            )
            batch_loss = net.loss(probs, batch.labels)
            if not np.isfinite(batch_loss):
                raise TrainingError(f"{where}: non-finite loss")
            grads = net.backward(params, batch, cache, freeze)
            _require_finite(grads, f"{where}: non-finite gradient")
            net.step(params, grads, state, freeze)
            _require_finite({n: params.arrays[n] for n in grads}, f"{where}: non-finite weights")
            _require_finite({n: state.v[n] for n in grads}, f"{where}: non-finite second moment")
            total += batch_loss * len(idx)
            count += len(idx)
            # Free this batch's activations and gradients before the next
            # forward allocates its own, so two batches never coexist.
            del batch, probs, cache, grads
    return total / count


# Eval batches are rounded up to a multiple of this many rows: the smallest
# multiple of 4 whose paper-size dense product (16 x 651 x 100) is past
# OpenBLAS's small-matrix rounding (see ``predict_dataset``).
_ROUND_ROWS = 16
# Eval builds one gate table per chunk of at most this many sorted rows.
_CHUNK_ROWS = 256


def predict_dataset(
    params: net.NetworkParams, data: EncodedDataset, batch_size: int = 16, max_len: int = 100
) -> np.ndarray:
    """Eval-mode class predictions for every example, in input order.

    Batches are formed in stable order of sequence length, so each one is
    padded only to its own longest member, and predictions are scattered
    back by index.  A batch short of a multiple of 16 rows repeats its
    last row up to one and drops the extra outputs.

    Each chunk of at most 256 sorted rows, a whole number of batches,
    gets one ``net.GateTable`` over its distinct tokens, 8H floats each,
    which all its batches read, so eval memory does not grow with the
    dataset's vocabulary.  Batches are small because a forward's largest
    buffer, the widest kernel's windows, grows with the batch, while eval
    throughput at paper sizes is flat from 16 to 64 rows.

    At one BLAS thread, a tweet's probabilities do not depend on the other
    tweets in ``data``: ``test_transfer.TestDatasetInvariance`` checks
    this at paper sizes with the coarse head and 51 cluster features
    (OpenBLAS 0.3.31, SkylakeX kernels).  It holds because every batch has
    a multiple of 16 rows and a table row's bytes do not depend on the
    other rows of its table (``net.gate_table``).  OpenBLAS rounds a
    product of at most 10^6 multiply-adds its own way, as the dense
    layer's (B x 651 x 100) is for B <= 15, and the head's (B x 100 x 2)
    rounds the rows past B's last multiple of 4 its own way; batches
    whose size is a multiple of 4 and at least 16 agree with one another,
    and padding a batch of 8 or more rows moves no probability
    (``test_net.TestShapeInvariance``).
    """
    return _probabilities(params, data, batch_size, max_len).argmax(axis=1)


def _probabilities(
    params: net.NetworkParams, data: EncodedDataset, batch_size: int, max_len: int
) -> np.ndarray:
    """``predict_dataset``'s eval probabilities, (examples, classes), in input order."""
    probs = np.empty((len(data), params.n_classes))
    order = np.argsort([len(s) for s in data.ids], kind="stable")
    chunk_rows = batch_size * max(1, _CHUNK_ROWS // batch_size)
    for chunk in _batches(len(data), chunk_rows, order):
        table = net.gate_table(
            params, data.matrix, np.concatenate([data.ids[i][:max_len] for i in chunk])
        )
        for idx in _batches(len(chunk), batch_size, chunk):
            rows = np.pad(idx, (0, -len(idx) % _ROUND_ROWS), mode="edge")
            batch = _batch_from(data, rows, max_len)
            probs[idx] = net.forward(params, batch, mode="eval", table=table)[0][: len(idx)]
        del table  # before the next chunk's is built
    return probs


def pretrain(
    task: PretrainTask,
    table: EmbeddingTable,
    cluster_width: int,
    seed: int = 0,
    epochs: int = 10,
    batch_size: int = 128,
    lr: float = 0.002,
    dropout: float = 0.5,
    max_len: int = 100,
    *,
    params: net.NetworkParams,
) -> net.NetworkParams:
    """Train ``params`` in place on a pre-training task, all layers live.

    The head width must equal the task's label space.  Shuffling and
    dropout descend from ``seed``.  A diverged run raises ``TrainingError``
    naming the epoch and, for a gradient or weight, the layer group.
    """
    data = encode_task(task, table, cluster_width)
    if params.n_classes != len(task.label_space):
        raise ValueError(
            f"network head has {params.n_classes} classes, task needs {len(task.label_space)}"
        )
    state = net.OptimizerState.for_params(params, lr=lr)
    rng = np.random.default_rng([seed, 1])
    for epoch in range(epochs):
        mean_loss = _run_epoch(
            params, state, data, net.ALL_LAYERS, batch_size, rng, dropout, max_len,
            where=f"pretrain {task.kind} epoch {epoch + 1}/{epochs}",
        )
        log.info("pretrain %s epoch %d/%d loss %.4f", task.kind, epoch + 1, epochs, mean_loss)
    return params


def replace_head(params: net.NetworkParams, n_classes: int, seed: int = 0) -> net.NetworkParams:
    """Copy params with a prediction layer of a new width, redrawn by
    ``net.draw_arrays`` from ``seed``.

    Layers 1-3 are copied bit-exactly; only the head is redrawn.
    """
    out = params.copy()
    out.n_classes = n_classes
    return net.draw_arrays(out, (4,), seed)


@dataclass(frozen=True)
class Phase:
    trainable: frozenset[int]
    max_epochs: int
    select_best: bool


@dataclass(frozen=True)
class FreezeSchedule:
    strategy: str
    phases: tuple[Phase, ...]


def make_schedule(strategy: str, max_epochs: int = 50) -> FreezeSchedule:
    """Build the phase list for an unfreezing strategy.

    none: all layers at once.  gu: start from the head and unfreeze one
    more group per epoch, then train everything.  bu: one group at a
    time, head first then input-side upward.  tu: one group at a time,
    output-side downward.  Single-group phases and the final all-layer
    phase each keep their best-validation snapshot.
    """
    strategy = strategy.lower()
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    if max_epochs < 1:
        raise ValueError(f"max_epochs must be positive, got {max_epochs}")
    fs = frozenset
    if strategy == "none":
        phases = [Phase(fs({1, 2, 3, 4}), max_epochs, True)]
    elif strategy == "gu":
        if max_epochs < 4:
            raise ValueError("gradual unfreezing needs max_epochs >= 4")
        phases = [
            Phase(fs({4}), 1, False),
            Phase(fs({4, 3}), 1, False),
            Phase(fs({4, 3, 2}), 1, False),
            Phase(fs({4, 3, 2, 1}), max_epochs - 3, True),
        ]
    else:
        phases = [Phase(fs({g}), max_epochs, True) for g in _ONE_GROUP_ORDER[strategy]]
        phases.append(Phase(fs({1, 2, 3, 4}), max_epochs, True))
    return FreezeSchedule(strategy=strategy, phases=tuple(phases))


@dataclass
class FinetuneResult:
    params: net.NetworkParams
    history: list[list[float]]  # validation metric per epoch, per phase
    best_scores: list[float]  # best metric reached in each phase


def metric_fn(metric: str, n_classes: int):
    """Averaged F1 of ``evalkit.scorer`` over class ids ``0 .. n_classes - 1``."""
    report = evalkit.scorer(metric, range(n_classes))
    return lambda preds, golds: report(list(preds), list(golds)).averaged.f1


def finetune(
    params: net.NetworkParams,
    schedule: FreezeSchedule,
    train: EncodedDataset,
    validation: EncodedDataset,
    metric: str = "binary_f1",
    seed: int = 0,
    batch_size: int = 32,
    lr: float = 0.002,
    dropout: float = 0.5,
    max_len: int = 100,
) -> FinetuneResult:
    """Run a freeze schedule over labeled data.

    The optimizer restarts at each phase.  A best-keeping phase ends by
    restoring the epoch snapshot with the highest validation metric
    (earliest wins on ties); other phases keep their last state.  A
    diverged run raises ``TrainingError`` naming the phase, its groups, the
    epoch and, for a gradient or weight, the layer group.
    """
    if not len(train) or not len(validation):
        raise DataError("finetuning needs non-empty train and validation sets")
    score = metric_fn(metric, params.n_classes)
    rng = np.random.default_rng([seed, 2])
    history: list[list[float]] = []
    best_scores: list[float] = []
    for phase_index, phase in enumerate(schedule.phases, start=1):
        freeze = net.FreezeMask(phase.trainable)
        trainable = params.layer_names(*freeze.trainable)
        state = net.OptimizerState.for_params(params, freeze, lr)
        phase_history: list[float] = []
        best_metric = -np.inf
        best_snapshot = None
        for epoch in range(phase.max_epochs):
            mean_loss = _run_epoch(
                params, state, train, freeze, batch_size, rng, dropout, max_len,
                where=(
                    f"finetune {schedule.strategy} phase {phase_index}/{len(schedule.phases)}"
                    f" (groups {sorted(phase.trainable)}) epoch {epoch + 1}/{phase.max_epochs}"
                ),
            )
            preds = predict_dataset(params, validation, max_len=max_len)
            value = score(preds, validation.labels)
            phase_history.append(value)
            log.info(
                "finetune %s layers %s epoch %d/%d loss %.4f %s %.4f",
                schedule.strategy, sorted(phase.trainable), epoch + 1,
                phase.max_epochs, mean_loss, metric, value,
            )
            if phase.select_best and value > best_metric:
                best_metric = value
                # Frozen groups cannot change within a phase, so only the
                # trainable arrays need a copy.
                best_snapshot = {n: params.arrays[n].copy() for n in trainable}
        if phase.select_best and best_snapshot is not None:
            params.arrays.update(best_snapshot)
        history.append(phase_history)
        best_scores.append(max(phase_history) if phase_history else -np.inf)
    return FinetuneResult(params=params, history=history, best_scores=best_scores)
