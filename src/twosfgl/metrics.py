"""Binary classification metrics and the epoch-window summary.

All metrics take an EvalResult (class-1 scores, hard predictions at the 0.5
threshold, true labels) restricted to an evaluation mask, and return a value
in [0, 1].  AUC is the rank statistic with average ranks for ties, which
equals pair counting exactly.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import write_rows

__all__ = [
    "METRIC_NAMES",
    "EvalResult",
    "accuracy",
    "macro_f1",
    "gmean",
    "auc",
    "RoundHistory",
    "window_average",
]

# table column order used by reports
METRIC_NAMES = ("macro_f1", "auc", "gmean", "accuracy")


@dataclass(frozen=True)
class EvalResult:
    """Scores and labels of the evaluated (masked) nodes.

    ``scores`` are class-1 probabilities; ``preds`` are scores >= 0.5.
    """

    scores: np.ndarray
    preds: np.ndarray
    labels: np.ndarray

    @classmethod
    def from_scores(cls, scores, labels) -> "EvalResult":
        scores = np.asarray(scores, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if scores.shape != labels.shape:
            raise ValueError("scores and labels must have matching shapes")
        if scores.size == 0:
            raise ValueError("evaluation mask is empty")
        if not np.all((scores >= 0) & (scores <= 1)):   # NaN fails both
            raise ValueError("scores must lie in [0, 1]")
        return cls(scores=scores, preds=(scores >= 0.5).astype(np.int64),
                   labels=labels)

    @cached_property
    def counts(self) -> tuple:
        """Confusion counts (tp, fn, tn, fp), computed on first use; every
        label other than 1 counts as negative."""
        on_positives = self.preds[self.labels == 1]
        n_pos = len(on_positives)
        tp = int(np.count_nonzero(on_positives))
        fp = int(np.count_nonzero(self.preds)) - tp
        n_neg = self.labels.size - n_pos
        return tp, n_pos - tp, n_neg - fp, fp


def accuracy(result: EvalResult) -> float:
    tp, _, tn, _ = result.counts
    return (tp + tn) / result.labels.size


def macro_f1(result: EvalResult) -> float:
    """Unweighted mean of per-class F1; a class with empty denominator
    contributes 0."""
    tp, fn, tn, fp = result.counts
    f1_pos = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) > 0 else 0.0
    f1_neg = 2 * tn / (2 * tn + fn + fp) if (2 * tn + fn + fp) > 0 else 0.0
    return (f1_pos + f1_neg) / 2.0


def gmean(result: EvalResult) -> float:
    """Geometric mean of the two class recalls; 0 when either is 0 or a
    class is absent."""
    tp, fn, tn, fp = result.counts
    tpr = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    tnr = tn / (tn + fp) if (tn + fp) > 0 else 0.0
    return float(np.sqrt(tpr * tnr))


def auc(result: EvalResult) -> float:
    """Rank-based AUC; tied scores contribute 1/2 per pair.

    The positives' 1-based ranks come from binary searches of their sorted
    scores in all sorted scores: the scores tied with s fill sorted positions
    [lo, hi), so their shared average rank is (lo + hi + 1) / 2.  The rank
    sum is taken in integers and halved once, which is exact.
    """
    tp, fn, tn, fp = result.counts
    n_pos, n_neg = tp + fn, tn + fp
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC requires both classes in the evaluation mask")
    ordered = np.sort(result.scores)
    positive = np.sort(result.scores[result.labels == 1])
    lo = np.searchsorted(ordered, positive, side="left")
    hi = np.searchsorted(ordered, positive, side="right")
    rank_sum = int(lo.sum() + hi.sum() + n_pos) / 2.0
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass
class RoundHistory:
    """Per-round metric records for every arm of an experiment.

    Rows are (round, arm, metric, value); rounds are 1-based.
    """

    records: list = field(default_factory=list)

    def append(self, round_index: int, arm: str, metric: str, value: float) -> None:
        self.records.append((round_index, arm, metric, value))

    def to_csv(self, path) -> None:
        rows = self.records
        write_rows(path, "round,arm,metric,value\n",
                   [[r[0] for r in rows], [r[1] for r in rows],
                    [r[2] for r in rows], [float(r[3]) for r in rows]])

    @classmethod
    def from_csv(cls, path) -> "RoundHistory":
        history = cls()
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
            if header.strip() != "round,arm,metric,value":
                raise ValueError(f"{path}: unexpected history header {header!r}")
            for lineno, raw in enumerate(fh, start=2):
                line = raw.strip()
                if not line:
                    continue
                try:
                    round_str, arm, metric, value = line.split(",")
                    history.append(int(round_str), arm, metric, float(value))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad history row {line!r} "
                                     f"({exc})") from None
        return history


def window_average(history: RoundHistory, lo: int, hi: int) -> dict:
    """Mean of each (arm, metric) over rounds lo..hi inclusive.

    Each (arm, metric) must hold every round of the window exactly once.
    """
    buckets = {}
    for round_index, arm, metric, value in history.records:
        if lo <= round_index <= hi:
            by_round = buckets.setdefault((arm, metric), {})
            if round_index in by_round:
                raise ValueError(f"history for {arm}/{metric} repeats round "
                                 f"{round_index}")
            by_round[round_index] = value
    if not buckets:
        raise ValueError(f"history has no rounds in [{lo}, {hi}]")
    expected = set(range(lo, hi + 1))
    summary = {}
    for key, by_round in sorted(buckets.items()):
        missing = expected - set(by_round)
        if missing:
            raise ValueError(
                f"history for {key[0]}/{key[1]} misses rounds "
                f"{sorted(missing)[:3]}... in [{lo}, {hi}]")
        summary[key] = float(np.mean([by_round[r] for r in sorted(by_round)]))
    return summary
