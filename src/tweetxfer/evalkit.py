"""Classification metrics and error reports.

All ratios use the convention 0/0 = 0, so degenerate classes (never
predicted, or absent from the gold labels) contribute zeros instead of
raising.  Macro scores average the per-class F1 values, not the F values
of a combined confusion matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class MetricsReport:
    per_class: dict[Hashable, ClassMetrics]
    averaged: ClassMetrics
    accuracy: float
    n: int


@dataclass(frozen=True)
class ErrorReport:
    """Misclassified items split by direction, for binary tasks."""

    false_positives: list
    false_negatives: list
    fp_share: float
    fn_share: float


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _prf(tp: int, fp: int, fn: int) -> ClassMetrics:
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    f1 = _ratio(2.0 * precision * recall, precision + recall)
    return ClassMetrics(precision=precision, recall=recall, f1=f1)


def _check_lengths(predictions: Sequence, golds: Sequence) -> None:
    if len(predictions) != len(golds):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions, {len(golds)} golds"
        )
    if not golds:
        raise ValueError("metrics need at least one example")


def _per_class(
    predictions: Sequence[Hashable],
    golds: Sequence[Hashable],
    classes: Sequence[Hashable],
) -> dict[Hashable, ClassMetrics]:
    out: dict[Hashable, ClassMetrics] = {}
    for cls in classes:
        tp = sum(1 for p, g in zip(predictions, golds) if p == cls and g == cls)
        fp = sum(1 for p, g in zip(predictions, golds) if p == cls and g != cls)
        fn = sum(1 for p, g in zip(predictions, golds) if p != cls and g == cls)
        out[cls] = _prf(tp, fp, fn)
    return out


def _accuracy(predictions: Sequence, golds: Sequence) -> float:
    return sum(1 for p, g in zip(predictions, golds) if p == g) / len(golds)


def binary_metrics(
    predictions: Sequence[Hashable],
    golds: Sequence[Hashable],
    positive: Hashable,
) -> MetricsReport:
    """Two-class report; the averaged row is the positive class itself."""
    _check_lengths(predictions, golds)
    others = sorted((c for c in set(golds) | set(predictions) if c != positive), key=str)
    classes = [positive] + others
    per_class = _per_class(predictions, golds, classes)
    return MetricsReport(
        per_class=per_class,
        averaged=per_class[positive],
        accuracy=_accuracy(predictions, golds),
        n=len(golds),
    )


def macro_metrics(
    predictions: Sequence[Hashable],
    golds: Sequence[Hashable],
    classes: Sequence[Hashable],
) -> MetricsReport:
    """One-vs-rest metrics per class, averaged with equal class weight.

    ``classes`` fixes the class set explicitly so that classes missing
    from a small sample still drag the macro average down.
    """
    if len(set(classes)) != len(classes) or not classes:
        raise ValueError("classes must be non-empty and distinct")
    _check_lengths(predictions, golds)
    per_class = _per_class(predictions, golds, classes)
    values = list(per_class.values())
    averaged = ClassMetrics(
        precision=sum(v.precision for v in values) / len(values),
        recall=sum(v.recall for v in values) / len(values),
        f1=sum(v.f1 for v in values) / len(values),
    )
    return MetricsReport(
        per_class=per_class,
        averaged=averaged,
        accuracy=_accuracy(predictions, golds),
        n=len(golds),
    )


def scorer(metric: str, labels: Sequence[Hashable]) -> Callable[..., MetricsReport]:
    """(predictions, golds) -> the report a validation metric reads.

    ``binary_f1`` scores ``labels[0]`` as the positive class; ``macro_f1``
    averages over all ``labels``.  Other names raise ValueError.
    """
    labels = list(labels)
    if metric == "binary_f1":
        return lambda predictions, golds: binary_metrics(predictions, golds, positive=labels[0])
    if metric == "macro_f1":
        return lambda predictions, golds: macro_metrics(predictions, golds, classes=labels)
    raise ValueError(f"unknown metric {metric!r}")


def aggregate_runs(reports: Sequence[MetricsReport]) -> MetricsReport:
    """Field-wise mean over repeated evaluation runs of one dataset."""
    if not reports:
        raise ValueError("nothing to aggregate")
    first = reports[0]
    keys = list(first.per_class)
    for rep in reports[1:]:
        if list(rep.per_class) != keys or rep.n != first.n:
            raise ValueError("runs disagree on class set or dataset size")

    def mean(values: list[float]) -> float:
        return sum(values) / len(values)

    def mean_cls(cms: list[ClassMetrics]) -> ClassMetrics:
        return ClassMetrics(
            precision=mean([c.precision for c in cms]),
            recall=mean([c.recall for c in cms]),
            f1=mean([c.f1 for c in cms]),
        )

    per_class = {k: mean_cls([r.per_class[k] for r in reports]) for k in keys}
    return MetricsReport(
        per_class=per_class,
        averaged=mean_cls([r.averaged for r in reports]),
        accuracy=mean([r.accuracy for r in reports]),
        n=first.n,
    )


def error_report(
    predictions: Sequence[Hashable],
    golds: Sequence[Hashable],
    items: Sequence,
    positive: Hashable,
) -> ErrorReport:
    """Split misclassified ``items`` into false positives and negatives.

    Shares are percentages of all errors; with no errors both are zero.
    """
    _check_lengths(predictions, golds)
    if len(items) != len(golds):
        raise ValueError("items must align with predictions")
    fps = [it for p, g, it in zip(predictions, golds, items) if p == positive and g != positive]
    fns = [it for p, g, it in zip(predictions, golds, items) if p != positive and g == positive]
    total = len(fps) + len(fns)
    return ErrorReport(
        false_positives=fps,
        false_negatives=fns,
        fp_share=_ratio(100.0 * len(fps), total),
        fn_share=_ratio(100.0 * len(fns), total),
    )


def format_report(report: MetricsReport, runs: int = 1) -> str:
    """Fixed-width text table; deterministic for byte-identical artifacts."""
    lines = [f"{'class':<12} {'precision':>9} {'recall':>9} {'f1':>9}"]
    for cls, m in report.per_class.items():
        lines.append(f"{str(cls):<12} {m.precision:>9.4f} {m.recall:>9.4f} {m.f1:>9.4f}")
    avg = report.averaged
    lines.append(f"{'average':<12} {avg.precision:>9.4f} {avg.recall:>9.4f} {avg.f1:>9.4f}")
    lines.append(f"accuracy {report.accuracy:.4f}")
    lines.append(f"examples {report.n}")
    lines.append(f"runs {runs}")
    return "\n".join(lines) + "\n"
