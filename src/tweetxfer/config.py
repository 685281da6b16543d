"""Run configuration: every tunable knob with its default and range.

Config files are plain ``key = value`` lines with ``#`` comments.
Unknown keys and out-of-range values are rejected by name, so a typo
fails loudly instead of silently training with a default.  An error
about a value a file set starts with that file's ``<path>:<line>``.

The optimizer's only key is ``lr``.  The other Nadam constants
(``net.BETA1`` = 0.99, ``net.BETA2`` = 0.999, ``net.EPSILON`` = 1e-8 and
the 0.96^(t/250) momentum schedule, ``net.SCHEDULE_DECAY`` = 0.004) are
fixed module constants, not config keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DataError, open_text


@dataclass
class RunConfig:
    seed: int = 0
    # embeddings
    embed_dim: int = 300
    ngram_min: int = 3
    ngram_max: int = 6
    ngram_buckets: int = 1 << 18
    embed_seed: int = 0
    # network
    lstm_units: int = 100
    filters: int = 200
    kernel_sizes: tuple[int, ...] = (3, 4, 5)
    dense_units: int = 100
    leaky_slope: float = 0.3
    dropout: float = 0.5
    max_len: int = 100
    # optimizer
    lr: float = 0.002
    # training
    pretrain_epochs: int = 10
    pretrain_batch: int = 128
    finetune_epochs: int = 50
    finetune_batch: int = 32
    # data
    tail: int = 808
    min_mentions: int = 2
    min_user_freq: int = 5
    # topics and clusters
    k_topics: int = 20
    k_users: int = 50
    lda_alpha: float = 0.0  # 0 means 10/k
    lda_beta: float = 0.01
    lda_iterations: int = 1000
    infer_iterations: int = 50
    # baseline
    baseline_l2: float = 1e-4
    baseline_epochs: int = 50
    baseline_lr: float = 0.01


_POSITIVE_INT = (
    "embed_dim", "ngram_min", "ngram_max", "ngram_buckets", "lstm_units",
    "filters", "dense_units", "max_len", "pretrain_epochs", "pretrain_batch",
    "finetune_epochs", "finetune_batch", "tail", "min_mentions", "k_topics",
    "k_users", "lda_iterations", "infer_iterations", "baseline_epochs",
)
_NON_NEGATIVE_INT = ("seed", "embed_seed", "min_user_freq")
_POSITIVE_FLOAT = ("lr", "lda_beta", "baseline_lr")
_NON_NEGATIVE_FLOAT = ("leaky_slope", "lda_alpha", "baseline_l2")
_UNIT_FLOAT = ("dropout",)


def _validate(cfg: RunConfig, where: dict[str, str]) -> RunConfig:
    """Range-check ``cfg``; a single-key error starts with ``where[key]``,
    the ``<path>:<line>`` that set the key, when a file set it."""

    def fail(name: str, rule: str) -> DataError:
        place = f"{where[name]}: " if name in where else ""
        return DataError(f"{place}config {name} {rule}")

    for name in _POSITIVE_FLOAT + _NON_NEGATIVE_FLOAT + _UNIT_FLOAT:
        if not math.isfinite(getattr(cfg, name)):
            raise fail(name, "must be finite")
    for name in _POSITIVE_INT:
        if getattr(cfg, name) < 1:
            raise fail(name, "must be a positive integer")
    for name in _NON_NEGATIVE_INT:
        if getattr(cfg, name) < 0:
            raise fail(name, "must be >= 0")
    for name in _POSITIVE_FLOAT:
        if getattr(cfg, name) <= 0:
            raise fail(name, "must be > 0")
    for name in _NON_NEGATIVE_FLOAT:
        if getattr(cfg, name) < 0:
            raise fail(name, "must be >= 0")
    for name in _UNIT_FLOAT:
        if not 0.0 <= getattr(cfg, name) < 1.0:
            raise fail(name, "must be in [0, 1)")
    if cfg.ngram_min > cfg.ngram_max:
        raise DataError("config ngram_min must not exceed ngram_max")
    ks = cfg.kernel_sizes
    if not ks or list(ks) != sorted(set(ks)) or min(ks) < 1:
        raise fail("kernel_sizes", "must be distinct ascending positive ints")
    for name in ("k_topics", "k_users"):
        if getattr(cfg, name) < 2:
            raise fail(name, "must be at least 2")
    return cfg


def _parse_value(where: str, name: str, kind: type, raw: str):
    """``raw`` as a ``kind``; errors start with ``where`` (``<path>:<line>``)."""
    raw = raw.strip()
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise DataError(f"{where}: config {name}: {raw!r} is not an integer") from None
    if kind is float:
        try:
            return float(raw)
        except ValueError:
            raise DataError(f"{where}: config {name}: {raw!r} is not a number") from None
    # kernel_sizes: comma-separated ints
    try:
        return tuple(int(p) for p in raw.split(",") if p.strip())
    except ValueError:
        raise DataError(
            f"{where}: config {name}: {raw!r} is not a comma-separated int list"
        ) from None


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then file values, then explicit overrides; validated."""
    cfg = RunConfig()
    where: dict[str, str] = {}  # key -> "<path>:<line>" of the file line that set it
    types = {f.name: (int if f.type == "int" else float if f.type == "float" else tuple)
             for f in fields(RunConfig)}
    if path is not None:
        with open_text(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DataError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = line.split("=", 1)
                key = key.strip()
                if key not in types:
                    raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
                where[key] = f"{path}:{lineno}"
                setattr(cfg, key, _parse_value(where[key], key, types[key], raw))
    for key, value in (overrides or {}).items():
        if key not in types:
            raise DataError(f"unknown config key {key!r}")
        if value is not None:
            setattr(cfg, key, value)
            where.pop(key, None)
    return _validate(cfg, where)
