"""Binary classification metrics and the epoch-window summary.

All metrics take an EvalResult (class-1 scores, hard predictions at the 0.5
threshold, true labels) restricted to an evaluation mask, and return a value
in [0, 1].  AUC is the rank statistic with average ranks for ties, which
equals pair counting exactly.

One arm's training run is a ``RoundHistory``: a rounds x metrics float64
array, row r - 1 holding round r and columns in ``METRIC_NAMES`` order, whose
``from_csv`` is the one check of a history file.
"""

from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False)
class RoundHistory:
    """One arm's test metrics after every round: ``values[r - 1, j]`` is
    metric ``METRIC_NAMES[j]`` after round r."""

    arm: str
    values: np.ndarray

    def to_csv(self, path) -> None:
        rounds = len(self.values)
        write_rows(path, "round,arm,metric,value\n",
                   [np.repeat(np.arange(1, rounds + 1), len(METRIC_NAMES)),
                    self.arm, np.tile(METRIC_NAMES, rounds),
                    self.values.ravel()])

    @classmethod
    def from_csv(cls, path, arm: str, rounds: int) -> "RoundHistory":
        """Read back exactly the layout ``to_csv`` writes for ``arm`` over
        ``rounds`` rounds: ``round,arm,metric,value`` rows for rounds
        1..rounds in order, each round's metrics in ``METRIC_NAMES`` order,
        every row naming ``arm``, values in [0, 1].  Blank lines are skipped;
        the first row out of that layout is refused as ``path:line``, and a
        file holding more or fewer rows as ``path``."""
        width, values = len(METRIC_NAMES), []
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
            if header.strip() != "round,arm,metric,value":
                raise ValueError(f"{path}: unexpected history header {header!r}")
            for lineno, raw in enumerate(fh, start=2):
                if not (line := raw.strip()):
                    continue
                k = len(values)
                try:
                    round_text, row_arm, metric, value = line.split(",")
                    row = (int(round_text), row_arm, metric, float(value))
                    want = (k // width + 1, arm, METRIC_NAMES[k % width])
                    if row[0] < want[0]:
                        raise ValueError(f"repeats round {row[0]}")
                    if row[:3] != want:
                        raise ValueError("expected round {}, arm {}, {}".format(*want))
                    if not 0.0 <= row[3] <= 1.0:       # NaN fails both
                        raise ValueError("value outside [0, 1]")
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad history row {line!r} "
                                     f"({exc})") from None
                values.append(row[3])
        if len(values) != rounds * width:
            raise ValueError(f"{path}: history does not hold exactly {rounds} "
                             f"rounds ({len(values)} of {rounds * width} rows)")
        return cls(arm, np.array(values).reshape(-1, width))


def window_average(history: RoundHistory, lo: int, hi: int) -> dict:
    """``{metric: mean}`` of each metric over rounds lo..hi inclusive."""
    rounds = len(history.values)
    if not 1 <= lo <= hi <= rounds:
        raise ValueError(f"the {history.arm} history holds rounds 1-{rounds}, "
                         f"not all of [{lo}, {hi}]")
    return {name: float(history.values[lo - 1:hi, j].mean())
            for j, name in enumerate(METRIC_NAMES)}
