import numpy as np
import pytest

from tweetxfer.evalkit import (
    ClassMetrics,
    MetricsReport,
    aggregate_runs,
    binary_metrics,
    error_report,
    format_report,
    macro_metrics,
    scorer,
)


def _brute_prf(predictions, golds, cls):
    """Confusion counts by explicit enumeration, ratios by hand."""
    tp = fp = fn = 0
    for p, g in zip(predictions, golds):
        if p == cls and g == cls:
            tp += 1
        elif p == cls:
            fp += 1
        elif g == cls:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


class TestBinaryMetrics:
    def test_hand_example(self):
        golds = ["pos", "pos", "pos", "neg", "neg", "neg"]
        preds = ["pos", "pos", "neg", "pos", "neg", "neg"]
        rep = binary_metrics(preds, golds, positive="pos")
        assert rep.averaged.precision == pytest.approx(2 / 3)
        assert rep.averaged.recall == pytest.approx(2 / 3)
        assert rep.averaged.f1 == pytest.approx(2 / 3)
        assert rep.accuracy == pytest.approx(4 / 6)
        assert rep.n == 6

    def test_averaged_row_is_positive_class(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            golds = list(rng.integers(0, 2, size=n))
            preds = list(rng.integers(0, 2, size=n))
            rep = binary_metrics(preds, golds, positive=1)
            assert rep.averaged == rep.per_class[1]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            n = int(rng.integers(1, 100))
            golds = list(rng.integers(0, 2, size=n))
            preds = list(rng.integers(0, 2, size=n))
            rep = binary_metrics(preds, golds, positive=0)
            for cls, m in rep.per_class.items():
                p, r, f = _brute_prf(preds, golds, cls)
                assert abs(m.precision - p) < 1e-12
                assert abs(m.recall - r) < 1e-12
                assert abs(m.f1 - f) < 1e-12
            assert abs(rep.accuracy - np.mean(np.array(preds) == np.array(golds))) < 1e-12

    def test_never_predicted_positive_is_all_zeros(self):
        rep = binary_metrics(["a", "a"], ["a", "b"], positive="b")
        assert rep.per_class["b"] == ClassMetrics(0.0, 0.0, 0.0)

    def test_class_labels_keep_their_type(self):
        rep = binary_metrics([0, 1, 0], [0, 1, 1], positive=0)
        assert set(rep.per_class) == {0, 1}

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            binary_metrics([1], [1, 0], positive=1)
        with pytest.raises(ValueError):
            binary_metrics([], [], positive=1)


class TestMacroMetrics:
    def test_macro_is_mean_of_per_class_f1(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(1, 80))
            golds = list(rng.integers(0, k, size=n))
            preds = list(rng.integers(0, k, size=n))
            classes = list(range(k))
            rep = macro_metrics(preds, golds, classes)
            f1s = [rep.per_class[c].f1 for c in classes]
            assert rep.averaged.f1 == pytest.approx(sum(f1s) / k, abs=1e-12)
            for c in classes:
                p, r, f = _brute_prf(preds, golds, c)
                assert rep.per_class[c].f1 == pytest.approx(f, abs=1e-12)

    def test_absent_class_drags_average_down(self):
        # class 2 never occurs; its zero F1 still divides the average
        rep = macro_metrics([0, 1], [0, 1], classes=[0, 1, 2])
        assert rep.per_class[2].f1 == 0.0
        assert rep.averaged.f1 == pytest.approx(2 / 3)

    def test_macro_differs_from_pooled_f(self):
        """Mean of per-class F1 is not the F of summed confusion counts."""
        golds = [0, 0, 0, 0, 1, 1]
        preds = [0, 0, 1, 1, 1, 0]
        rep = macro_metrics(preds, golds, classes=[0, 1])
        pooled_tp = sum(p == g for p, g in zip(preds, golds))
        pooled_f = pooled_tp / len(golds)  # micro-F equals accuracy here
        assert rep.averaged.f1 != pytest.approx(pooled_f)

    def test_duplicate_or_empty_classes_rejected(self):
        with pytest.raises(ValueError):
            macro_metrics([0], [0], classes=[0, 0])
        with pytest.raises(ValueError):
            macro_metrics([0], [0], classes=[])


class TestScorer:
    def test_binary_scores_the_first_label(self):
        preds, golds = ["b", "a", "a", "b"], ["a", "a", "b", "b"]
        assert scorer("binary_f1", ("a", "b"))(preds, golds) == binary_metrics(
            preds, golds, positive="a"
        )
        assert scorer("binary_f1", range(2))([1, 0], [0, 0]) == binary_metrics(
            [1, 0], [0, 0], positive=0
        )

    def test_macro_averages_over_every_label(self):
        preds, golds = [0, 1, 1], [0, 1, 0]
        assert scorer("macro_f1", range(3))(preds, golds) == macro_metrics(
            preds, golds, classes=[0, 1, 2]
        )

    def test_unknown_metric_rejected_when_created(self):
        with pytest.raises(ValueError, match="accuracy"):
            scorer("accuracy", ("a", "b"))


class TestAggregateRuns:
    def test_field_wise_mean(self):
        rng = np.random.default_rng(34)
        golds = list(rng.integers(0, 3, size=40))
        reports = []
        for s in range(5):
            r = np.random.default_rng(s)
            preds = list(r.integers(0, 3, size=40))
            reports.append(macro_metrics(preds, golds, classes=[0, 1, 2]))
        agg = aggregate_runs(reports)
        assert agg.n == 40
        assert agg.accuracy == pytest.approx(
            sum(r.accuracy for r in reports) / len(reports), abs=1e-12
        )
        for c in (0, 1, 2):
            assert agg.per_class[c].f1 == pytest.approx(
                sum(r.per_class[c].f1 for r in reports) / len(reports), abs=1e-12
            )

    def test_single_run_is_identity(self):
        rep = binary_metrics([1, 0, 1], [1, 1, 1], positive=1)
        agg = aggregate_runs([rep])
        assert agg == rep

    def test_mismatched_runs_rejected(self):
        a = binary_metrics([1, 0], [1, 0], positive=1)
        b = binary_metrics([1, 0, 1], [1, 0, 1], positive=1)
        with pytest.raises(ValueError):
            aggregate_runs([a, b])
        with pytest.raises(ValueError):
            aggregate_runs([])


class TestErrorReport:
    def test_directions_and_shares(self):
        golds = ["o", "o", "x", "x", "x"]
        preds = ["x", "o", "o", "x", "o"]
        items = ["t1", "t2", "t3", "t4", "t5"]
        rep = error_report(preds, golds, items, positive="x")
        assert rep.false_positives == ["t1"]
        assert rep.false_negatives == ["t3", "t5"]
        assert rep.fp_share == pytest.approx(100 / 3)
        assert rep.fn_share == pytest.approx(200 / 3)

    def test_no_errors_means_zero_shares(self):
        rep = error_report([1, 0], [1, 0], ["a", "b"], positive=1)
        assert rep.false_positives == [] and rep.false_negatives == []
        assert rep.fp_share == 0.0 and rep.fn_share == 0.0

    def test_shares_sum_to_hundred_when_errors_exist(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            golds = list(rng.integers(0, 2, size=n))
            preds = list(rng.integers(0, 2, size=n))
            rep = error_report(preds, golds, list(range(n)), positive=1)
            if rep.false_positives or rep.false_negatives:
                assert rep.fp_share + rep.fn_share == pytest.approx(100.0)

    def test_misaligned_items_rejected(self):
        with pytest.raises(ValueError):
            error_report([1], [1], [], positive=1)


class TestFormatReport:
    def test_golden_output(self):
        rep = MetricsReport(
            per_class={
                "offense": ClassMetrics(0.5, 1.0, 2 / 3),
                "other": ClassMetrics(1.0, 0.25, 0.4),
            },
            averaged=ClassMetrics(0.5, 1.0, 2 / 3),
            accuracy=0.625,
            n=8,
        )
        expected = (
            "class        precision    recall        f1\n"
            "offense         0.5000    1.0000    0.6667\n"
            "other           1.0000    0.2500    0.4000\n"
            "average         0.5000    1.0000    0.6667\n"
            "accuracy 0.6250\n"
            "examples 8\n"
            "runs 1\n"
        )
        assert format_report(rep) == expected

    def test_runs_parameter_shown(self):
        rep = binary_metrics([1], [1], positive=1)
        assert format_report(rep, runs=5).endswith("runs 5\n")

    def test_deterministic(self):
        rep = binary_metrics([1, 0, 1, 1], [1, 1, 0, 1], positive=1)
        assert format_report(rep) == format_report(rep)
