import csv
import math
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest

from anomtax import cli
from anomtax.data import LABEL_TOKENS
from anomtax.evaluation import test_error as error_rate
from anomtax.evaluation import (
    class_rates,
    confusion,
    fmt_pct,
    format_confusion,
    roc_curve,
)
from anomtax.svgchart import unit_line_chart


def matrix_from_counts(counts):
    """Expand a counts grid into (targets, predictions) sample lists and
    rebuild the count array through the public counter."""
    counts = np.asarray(counts)
    targets, preds = [], []
    for p in range(counts.shape[0]):
        for t in range(counts.shape[1]):
            targets.extend([t] * int(counts[p, t]))
            preds.extend([p] * int(counts[p, t]))
    return confusion(targets, preds, counts.shape[0])


def brute_tpr_fpr(counts, c):
    """Per-sample one-vs-rest counting oracle."""
    counts = np.asarray(counts)
    tp = fp = tn = fn = 0
    for p in range(counts.shape[0]):
        for t in range(counts.shape[1]):
            for _ in range(int(counts[p, t])):
                pred_pos = p == c
                is_pos = t == c
                if pred_pos and is_pos:
                    tp += 1
                elif pred_pos and not is_pos:
                    fp += 1
                elif not pred_pos and is_pos:
                    fn += 1
                else:
                    tn += 1
    tpr = tp / (tp + fn) if tp + fn else math.nan
    fpr = 1 - tn / (tn + fp) if tn + fp else math.nan
    return tpr, fpr


def brute_auc(scores, positives):
    """Tie-adjusted concordant-pair fraction, via a full pair comparison."""
    scores = np.asarray(scores, dtype=float)
    positives = np.asarray(positives, dtype=bool)
    pos = scores[positives][:, None]
    neg = scores[~positives][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return float(wins / (pos.shape[0] * neg.shape[1]))


# reference 4-class confusion matrices used as golden metric inputs
# (rows = predicted, columns = target)
FIG_NN = [[12, 2, 0, 0],
          [0, 0, 0, 0],
          [0, 2, 6, 2],
          [0, 1, 1, 4]]
FIG_GA = [[12, 1, 0, 0],
          [0, 3, 0, 0],
          [0, 0, 6, 0],
          [0, 1, 1, 6]]


class TestConfusion:
    def test_diagonal_for_perfect_predictions(self):
        m = confusion([0, 1, 2, 1], [0, 1, 2, 1], 3)
        np.testing.assert_array_equal(m, [[1, 0, 0], [0, 2, 0], [0, 0, 1]])

    def test_direct_count_orientation(self):
        # two samples of target 0 both predicted as 1
        m = confusion([0, 0], [1, 1], 2)
        assert m[1, 0] == 2
        assert m.sum() == 2

    def test_reference_nn_matrix_row(self):
        m = matrix_from_counts(FIG_NN)
        assert list(m[0]) == [12, 2, 0, 0]
        assert m.sum() == 30
        assert m.shape == (4, 4) and m.dtype.kind == "i"

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        t = rng.integers(0, 4, 60)
        p = rng.integers(0, 4, 60)
        m1 = confusion(t, p, 4)
        perm = rng.permutation(60)
        m2 = confusion(t[perm], p[perm], 4)
        np.testing.assert_array_equal(m1, m2)


def both_inputs(counts):
    """A counts grid as given and as rebuilt from samples: class_rates
    takes any count array."""
    return [np.asarray(counts), matrix_from_counts(counts)]


class TestPrecisionRecall:
    def test_reference_class1_values(self):
        for m in both_inputs(FIG_NN):
            precision, recall, _ = class_rates(m)
            assert abs(100 * precision[0] - 85.7) <= 0.05
            assert abs(100 * recall[0] - 100.0) <= 0.05

    def test_diagonal_matrix_perfect(self):
        for m in both_inputs(np.diag([3, 4, 5])):
            precision, recall, fpr = class_rates(m)
            np.testing.assert_array_equal(precision, [1, 1, 1])
            np.testing.assert_array_equal(recall, [1, 1, 1])
            np.testing.assert_array_equal(fpr, [0, 0, 0])

    def test_absent_class_undefined(self):
        for m in both_inputs([[2, 0, 0], [0, 3, 0], [0, 0, 0]]):
            precision, recall, _ = class_rates(m)
            assert math.isnan(precision[2]) and math.isnan(recall[2])

    def test_never_predicted_but_targeted(self):
        for m in both_inputs(FIG_NN):
            precision, recall, _ = class_rates(m)
            assert math.isnan(precision[1])  # class 2 row is empty
            assert recall[1] == 0.0          # but its column is not


class TestTestError:
    def test_reference_nn_error(self):
        err = error_rate(matrix_from_counts(FIG_NN))
        assert abs(100 * err - 26.7) <= 0.05

    def test_reference_ga_error(self):
        err = error_rate(matrix_from_counts(FIG_GA))
        assert abs(100 * err - 10.0) <= 0.05

    def test_perfect_classifier(self):
        assert error_rate(matrix_from_counts(np.diag([5, 5]))) == 0.0

    def test_rational_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            counts = rng.integers(0, 9, (3, 3))
            if counts.sum() == 0:
                continue
            m = matrix_from_counts(counts)
            total = int(m.sum())
            trace = int(np.trace(m))
            assert Fraction(total - trace, total) + \
                Fraction(trace, total) == 1

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            error_rate(np.zeros((2, 2), dtype=int))

    def test_matches_former_fitness_formula(self):
        # GA fitness is test_error(confusion(...)); the GA's former
        # formula below is the bit-for-bit oracle
        rng = np.random.default_rng(7)
        for _ in range(300):
            num_classes = int(rng.integers(1, 6))
            n = int(rng.integers(1, 60))
            y = rng.integers(0, num_classes, n)
            pred = rng.integers(0, num_classes, n)
            got = error_rate(confusion(y, pred, num_classes))
            assert got == float((pred != y).mean())


class TestTprFpr:
    """A class's TPR is its recall; FPR is the third rate."""

    def test_reference_ga_class1_tpr(self):
        for m in both_inputs(FIG_GA):
            _, tpr, _ = class_rates(m)
            assert tpr[0] == 1.0

    def test_zero_fn_gives_tpr_one(self):
        for m in both_inputs([[12, 3], [0, 7]]):
            _, tpr, _ = class_rates(m)
            assert tpr[0] == 1.0

    def test_two_class_matches_brute_force(self):
        # golden values pinned by the per-sample oracle: TP=8 FN=1 -> 8/9,
        # FP=2 against 11 negatives -> 2/11
        counts = [[8, 2], [1, 9]]
        otpr, ofpr = brute_tpr_fpr(counts, 0)
        for m in both_inputs(counts):
            _, tpr, fpr = class_rates(m)
            assert tpr[0] == otpr == pytest.approx(8 / 9, abs=1e-15)
            assert fpr[0] == ofpr == pytest.approx(2 / 11, abs=1e-15)

    def test_random_matrices_match_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            counts = rng.integers(0, 6, (4, 4))
            if counts.sum() == 0:
                continue
            for m in both_inputs(counts):
                _, tpr, fpr = class_rates(m)
                for c in range(4):
                    want = brute_tpr_fpr(counts, c)
                    for g, w in zip((tpr[c], fpr[c]), want):
                        assert (math.isnan(g) and math.isnan(w)) or g == w

    def test_sum_identities(self):
        counts = np.array(FIG_NN)
        m = matrix_from_counts(counts)
        per_class_pos = [int(counts[:, c].sum()) for c in range(4)]
        assert sum(per_class_pos) == m.sum()
        tps = [int(counts[c, c]) for c in range(4)]
        assert sum(tps) == int(np.trace(counts))


def old_roc_curve(scores, positives):
    """The former roc_curve body: a Python loop over runs of equal scores,
    kept as the bit-for-bit oracle."""
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = positives[order]
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    fprs, tprs, thresholds = [0.0], [0.0], [math.inf]
    tp = fp = 0
    i = 0
    while i < sorted_scores.size:
        j = i
        while (j < sorted_scores.size
               and sorted_scores[j] == sorted_scores[i]):
            j += 1
        tp += int(sorted_pos[i:j].sum())
        fp += (j - i) - int(sorted_pos[i:j].sum())
        fprs.append(fp / n_neg)
        tprs.append(tp / n_pos)
        thresholds.append(float(sorted_scores[i]))
        i = j
    points = np.column_stack([fprs, tprs])
    auc = float(np.trapezoid(points[:, 1], points[:, 0]))
    return points, np.array(thresholds), auc


class TestRocCurve:
    def test_perfect_separation(self):
        curve = roc_curve([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
        assert curve.auc == 1.0
        assert any((p == [0.0, 1.0]).all() for p in curve.points)

    def test_uninformative_scores(self):
        curve = roc_curve([0.5, 0.5, 0.5, 0.5], [True, False, True, False])
        np.testing.assert_array_equal(curve.points, [[0, 0], [1, 1]])
        assert curve.auc == 0.5

    def test_golden_auc(self):
        curve = roc_curve([0.9, 0.4, 0.6, 0.1],
                          [True, True, False, False])
        assert curve.auc == pytest.approx(0.75, abs=1e-12)

    def test_endpoints_and_monotone(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(4, 60))
            scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], n)
            labels = rng.random(n) < 0.4
            if labels.all() or not labels.any():
                continue
            curve = roc_curve(scores, labels)
            np.testing.assert_array_equal(curve.points[0], [0, 0])
            np.testing.assert_array_equal(curve.points[-1], [1, 1])
            assert np.all(np.diff(curve.points[:, 0]) >= 0)
            assert np.all(np.diff(curve.points[:, 1]) >= 0)
            assert 0.0 <= curve.auc <= 1.0

    def test_auc_equals_concordant_fraction(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(4, 100))
            scores = np.round(rng.random(n), 2)  # force ties
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                continue
            curve = roc_curve(scores, labels)
            assert curve.auc == pytest.approx(brute_auc(scores, labels),
                                              abs=1e-12)

    @pytest.mark.parametrize("pool", [None, (0.1, 0.5, 0.9),
                                      (-0.0, 0.0, 0.25)],
                             ids=["random", "tied", "signed-zero"])
    def test_matches_former_tie_group_loop(self, pool):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(2, 40))
            scores = rng.random(n) if pool is None else rng.choice(pool, n)
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                continue
            curve = roc_curve(scores, labels)
            points, thresholds, auc = old_roc_curve(scores, labels)
            assert curve.points.tobytes() == points.tobytes()
            assert curve.thresholds.tobytes() == thresholds.tobytes()
            assert curve.auc == auc
            checked += 1
        assert checked > 250


def model_eval_rows(tmp_path, name, counts, scores=np.zeros((1, 4)), y=(0,)):
    """Rows of the file ``name`` that ``cli._write_model_eval`` writes for
    tag "t"; the default one-sample ``y`` leaves every ROC undefined."""
    cli._write_model_eval("t", scores, counts, np.asarray(y), tmp_path)
    with open(tmp_path / name, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestFormatting:
    def test_pct(self):
        assert fmt_pct(0.857142857) == "85.7%"
        assert fmt_pct(math.nan) == "NaN%"

    def test_format_confusion_layout(self):
        text = format_confusion(matrix_from_counts(FIG_NN), LABEL_TOKENS)
        assert "12 (40.0%)" in text
        assert "NaN%" in text
        assert "test error 26.7%" in text

    def test_confusion_csv(self, tmp_path):
        m = matrix_from_counts(FIG_GA)
        rows = model_eval_rows(tmp_path, "t_confusion.csv", m)
        assert rows[0] == ["predicted\\target", *LABEL_TOKENS]
        assert rows[1] == ["ND", "12", "1", "0", "0"]

    def test_metrics_csv_parseable(self, tmp_path):
        m = matrix_from_counts(FIG_NN)
        rows = model_eval_rows(tmp_path, "t_metrics.csv", m)
        assert rows[0] == ["class", "precision", "recall", "fpr"]
        assert [r[0] for r in rows[1:]] == list(LABEL_TOKENS)
        # plain float reprs (no np.float64(...)) that read back as the
        # rates exactly, NaN where they are NaN
        got = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        np.testing.assert_array_equal(got, np.column_stack(class_rates(m)))
        assert float(rows[1][1]) == pytest.approx(12 / 14)
        assert rows[2][1] == "nan"

    def test_roc_csv(self, tmp_path):
        y = np.array([0, 0, 1, 1])
        scores = np.zeros((4, len(LABEL_TOKENS)))
        scores[:, 0] = [0.9, 0.4, 0.6, 0.1]
        curve = roc_curve(scores[:, 0], y == 0)
        rows = model_eval_rows(tmp_path, "roc_t_ND.csv",
                               matrix_from_counts(FIG_GA), scores, y)
        assert rows[0] == ["threshold", "fpr", "tpr"]
        assert rows[1] == ["inf", "0.0", "0.0"]
        assert len(rows) == len(curve.points) + 1
        got = np.array([[float(v) for v in r] for r in rows[1:]])
        np.testing.assert_array_equal(
            got, np.column_stack([curve.thresholds, curve.points]))


class TestSvgChart:
    def test_valid_static_svg(self):
        curve = roc_curve([0.9, 0.4, 0.6, 0.1], [True, True, False, False])
        svg = unit_line_chart("demo", curve.points, "ROC")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        tags = {el.tag.split('}')[-1] for el in root.iter()}
        assert "polyline" in tags
        assert "script" not in tags
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert "False positive rate" in texts
        assert "True positive rate" in texts
