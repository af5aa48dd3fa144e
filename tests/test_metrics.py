import numpy as np
import pytest

from twosfgl.metrics import (METRIC_NAMES, EvalResult, RoundHistory,
                             accuracy, auc, gmean, macro_f1,
                             window_average)


def result(scores, labels):
    return EvalResult.from_scores(np.asarray(scores, dtype=float),
                                  np.asarray(labels))


def pair_count_auc(scores, labels):
    """Exhaustive pair-counting AUC: the definition, O(n^2)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum(1.0 for p in pos for q in neg if p > q)
    ties = sum(1.0 for p in pos for q in neg if p == q)
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_from_scores_validation():
    with pytest.raises(ValueError, match="matching shapes"):
        EvalResult.from_scores([0.5, 0.5], [1])
    with pytest.raises(ValueError, match="empty"):
        EvalResult.from_scores([], [])
    with pytest.raises(ValueError, match="lie in"):
        EvalResult.from_scores([1.5], [1])
    with pytest.raises(ValueError, match="lie in"):
        EvalResult.from_scores([-0.1], [0])
    with pytest.raises(ValueError, match="lie in"):
        EvalResult.from_scores([0.5, np.nan], [0, 1])


def test_threshold_is_half_inclusive():
    r = result([0.49, 0.5, 0.51], [0, 1, 1])
    assert list(r.preds) == [0, 1, 1]


def test_accuracy_hand_case():
    r = result([0.9, 0.2, 0.7, 0.1], [1, 0, 0, 1])
    assert accuracy(r) == 0.5


def test_macro_f1_hand_case():
    # preds: 1,0,1,1,0,0   labels: 1,1,0,1,0,0
    # tp=2 fn=1 fp=1 tn=2 -> f1_pos = 4/6, f1_neg = 4/6
    r = result([0.8, 0.3, 0.6, 0.9, 0.1, 0.2], [1, 1, 0, 1, 0, 0])
    assert macro_f1(r) == pytest.approx((4 / 6 + 4 / 6) / 2)


def test_macro_f1_empty_denominator_contributes_zero():
    # everything predicted and labeled positive: negative F1 denominator is 0
    r = result([0.9, 0.8], [1, 1])
    assert macro_f1(r) == pytest.approx(0.5)


def test_gmean_hand_and_zero_cases():
    r = result([0.8, 0.3, 0.6, 0.1], [1, 1, 0, 0])
    # tpr = 1/2, tnr = 1/2
    assert gmean(r) == pytest.approx(0.5)
    # zero recall on the positive class
    assert gmean(result([0.1, 0.2, 0.9], [1, 1, 0])) == 0.0
    # a class entirely absent
    assert gmean(result([0.9, 0.8], [1, 1])) == 0.0


def test_confusion_counts_are_taken_once_per_result():
    r = result([0.9, 0.6, 0.2, 0.7, 0.1], [1, 1, 1, 0, 0])
    counts = r.counts
    assert counts == (2, 1, 1, 1)  # tp, fn, tn, fp
    macro_f1(r)
    gmean(r)
    assert r.counts is counts


def test_counts_and_accuracy_match_boolean_formulas_bitwise():
    rng = np.random.default_rng(23)
    for size in (1, 2, 5, 64, 333):
        for _ in range(20):
            # scores on a coarse grid, so some sit exactly on the threshold
            r = result(rng.integers(0, 9, size=size) / 8.0,
                       rng.integers(0, 2, size=size))
            pos, neg = r.labels == 1, r.labels == 0
            assert r.counts == (int(np.sum(r.preds[pos] == 1)),
                                int(np.sum(r.preds[pos] == 0)),
                                int(np.sum(r.preds[neg] == 0)),
                                int(np.sum(r.preds[neg] == 1)))
            want = float(np.mean(r.preds == r.labels))
            assert np.array(accuracy(r)).view(np.int64) == \
                np.array(want).view(np.int64)


def test_auc_hand_case():
    assert auc(result([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0])) == pytest.approx(0.75)


def test_auc_all_tied_is_half():
    assert auc(result([0.4] * 6, [1, 1, 0, 0, 1, 0])) == 0.5


def test_auc_perfect_and_inverted():
    assert auc(result([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])) == 1.0
    assert auc(result([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])) == 0.0


def test_auc_equals_pair_counting_with_ties():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 60))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        # quantized scores force plenty of ties
        scores = rng.integers(0, 5, size=n) / 4.0
        r = result(scores, labels)
        assert auc(r) == pair_count_auc(scores, labels)


def test_auc_equals_scipy_rankdata_formula_bitwise_on_ties():
    from scipy.stats import rankdata
    rng = np.random.default_rng(6)
    for size in (2, 3, 17, 400):
        for _ in range(20):
            # few distinct values, so most scores are tied
            scores = rng.integers(0, 8, size=size) / 7.0
            labels = rng.integers(0, 2, size=size)
            labels[:2] = (0, 1)
            n_pos = int(labels.sum())
            n_neg = size - n_pos
            rank_sum = float(rankdata(scores)[labels == 1].sum())
            want = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
            assert auc(result(scores, labels)) == want


def test_auc_single_class_rejected():
    with pytest.raises(ValueError, match="both classes"):
        auc(result([0.5, 0.6], [1, 1]))


def test_metric_names_cover_report_columns():
    assert METRIC_NAMES == ("macro_f1", "auc", "gmean", "accuracy")


# ------------------------------------------------------------- round history


def test_history_round_trip_exact(tmp_path):
    h = RoundHistory("2sfgl", np.array([[0.1 + 0.2, 1e-17, 0.75, 0.0],
                                        [-0.0, 1.0, 5e-324, 2 / 3]]))
    path = tmp_path / "history.csv"
    h.to_csv(path)
    again = RoundHistory.from_csv(path, "2sfgl", 2)
    assert again.arm == h.arm
    assert again.values.tobytes() == h.values.tobytes()


def test_history_header_checked(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text("wrong,header,row,here\n")
    with pytest.raises(ValueError, match="unexpected history header"):
        RoundHistory.from_csv(path, "2sfgl", 1)


@pytest.mark.parametrize("row,detail", [
    ("3,2sfgl,auc", "expected 4, got 3"),
    ("1,2sfgl,auc,0.5,extra", "too many values"),
    ("x,2sfgl,auc,0.5", "invalid literal for int"),
    ("2,2sfgl,auc,high", "could not convert string to float"),
])
def test_history_bad_row_names_its_line(tmp_path, row, detail):
    path = tmp_path / "history.csv"
    path.write_text("round,arm,metric,value\n1,2sfgl,macro_f1,0.5\n\n" + row + "\n")
    with pytest.raises(ValueError, match=r"history\.csv:4: bad history row '"
                       + row + r"' \(.*" + detail):
        RoundHistory.from_csv(path, "2sfgl", 2)


def history_lines(rounds=3, arm="2sfgl"):
    """The data lines ``to_csv`` writes for ``rounds`` rounds of 0.5."""
    return [f"{r},{arm},{m},0.5" for r in range(1, rounds + 1)
            for m in METRIC_NAMES]


def without(lines, fragment):
    return [line for line in lines if fragment not in line]


def replaced(lines, index, line):
    return lines[:index] + [line] + lines[index + 1:]


# (data lines, line number named or None for the end, detail); line 2 is
# the first data line
@pytest.mark.parametrize("lines,lineno,detail", [
    (replaced(history_lines(), 5, "2,2sfgl,auc,nan"), 7, r"value outside \[0, 1\]"),
    (replaced(history_lines(), 5, "2,2sfgl,auc,7.5"), 7, r"value outside \[0, 1\]"),
    (replaced(history_lines(), 5, "2,2sfgl,auc,-0.25"), 7, r"value outside \[0, 1\]"),
    (without(history_lines(), ",auc,"), 3, "expected round 1, arm 2sfgl, auc"),
    (without(history_lines(), "2,2sfgl"), 6, "expected round 2, arm 2sfgl, macro_f1"),
    (history_lines(2) + history_lines(2)[4:], 10, "repeats round 2"),
    (replaced(history_lines(), 5, "2,other,auc,0.5"), 7,
     "expected round 2, arm 2sfgl, auc"),
    (history_lines()[::-1], 2, "expected round 1, arm 2sfgl, macro_f1"),
    (history_lines()[:-1], None,
     r"does not hold exactly 3 rounds \(11 of 12 rows\)"),
    ([], None, r"does not hold exactly 3 rounds \(0 of 12 rows\)"),
    (history_lines(4), None, r"does not hold exactly 3 rounds \(16 of 12 rows\)"),
], ids=["nan", "above_one", "negative", "missing_metric", "missing_round",
        "repeated_round", "second_arm", "reversed", "truncated", "empty",
        "extra_round"])
def test_history_out_of_layout_is_refused_with_its_line(tmp_path, lines, lineno,
                                                         detail):
    path = tmp_path / "history.csv"
    path.write_text("round,arm,metric,value\n" + "".join(l + "\n" for l in lines))
    where = "" if lineno is None else f":{lineno}"
    with pytest.raises(ValueError, match=rf"history\.csv{where}: .*{detail}"):
        RoundHistory.from_csv(path, "2sfgl", 3)


def test_window_average_constant_returns_constant():
    h = RoundHistory("arm", np.full((10, len(METRIC_NAMES)), 0.625))
    assert window_average(h, 3, 8) == {m: 0.625 for m in METRIC_NAMES}


def test_window_average_hand_case():
    values = np.zeros((4, len(METRIC_NAMES)))
    values[:, METRIC_NAMES.index("auc")] = [0.0, 0.2, 0.4, 0.6]
    h = RoundHistory("arm", values)
    assert window_average(h, 2, 4)["auc"] == pytest.approx(0.4)


def test_window_average_missing_round_rejected():
    # rounds 1-3 held, the window asks for round 4 too
    h = RoundHistory("arm", np.full((3, len(METRIC_NAMES)), 0.5))
    with pytest.raises(ValueError, match=r"arm history holds rounds 1-3, "
                       r"not all of \[1, 4\]"):
        window_average(h, 1, 4)


def test_window_average_empty_window_rejected():
    h = RoundHistory("arm", np.full((1, len(METRIC_NAMES)), 0.5))
    with pytest.raises(ValueError, match=r"not all of \[5, 9\]"):
        window_average(h, 5, 9)


def test_window_average_is_the_mean_of_the_listed_values_bitwise():
    rng = np.random.default_rng(3)
    values = rng.random((50, len(METRIC_NAMES)))
    out = window_average(RoundHistory("arm", values), 7, 43)
    for j, metric in enumerate(METRIC_NAMES):
        assert out[metric] == float(np.mean(list(values[6:43, j])))
