"""Ranking metrics for multi-tag scoring plus a two-sample significance test.

ROC AUC is computed as the Mann-Whitney rank statistic (ties half
credited), which coincides with the trapezoidal curve area but makes tie
handling exact. PR AUC is average precision: the mean of precision taken
at the rank of each positive, with ties broken by stable input order.
Macro summaries skip tags that lack both classes rather than scoring
them 0.5, and report which tags were skipped.

The significance test is Welch's (unequal-variance) two-sided t-test
with Welch-Satterthwaite degrees of freedom. Two degenerate-variance
samples with equal means conventionally give (t, p) = (0, 1); with
different means the test is undefined and raises.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateVarianceError,
    EmptySummaryError,
    SchemaError,
    UndefinedMetricError,
)

__all__ = [
    "TagTable",
    "MetricSummary",
    "roc_auc",
    "pr_auc",
    "macro_summary",
    "t_test_independent",
    "read_tag_csv",
    "load_tag_table",
]


def _as_binary(labels) -> np.ndarray:
    arr = np.asarray(labels)
    values = np.unique(arr)
    if not np.all(np.isin(values, (0, 1))):
        raise ValueError(f"labels must be 0/1, found {values[:8]}")
    return arr.astype(np.int64)


@dataclass(frozen=True)
class TagTable:
    """Aligned per-item tag activations and binary ground-truth labels."""

    scores: np.ndarray
    labels: np.ndarray
    tag_names: tuple[str, ...]

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64)
        labels = _as_binary(self.labels)
        names = tuple(str(n) for n in self.tag_names)
        if scores.ndim != 2 or labels.ndim != 2:
            raise ValueError("scores and labels must be 2-D (items x tags)")
        if scores.shape != labels.shape:
            raise ValueError(
                f"scores shape {scores.shape} != labels shape {labels.shape}"
            )
        if scores.shape[1] != len(names):
            raise ValueError(
                f"{scores.shape[1]} score columns vs {len(names)} tag names"
            )
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        if scores.size and (scores.min() < 0.0 or scores.max() > 1.0):
            raise ValueError("scores must lie in [0, 1]")
        scores = scores.copy()
        labels = labels.copy()
        scores.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "tag_names", names)

    @property
    def n_items(self) -> int:
        return self.scores.shape[0]

    @property
    def n_tags(self) -> int:
        return self.scores.shape[1]


@dataclass(frozen=True)
class MetricSummary:
    """Per-tag AUCs for the evaluable tags plus their unweighted means."""

    tag_names: tuple[str, ...]
    per_tag_roc: tuple[float, ...]
    per_tag_pr: tuple[float, ...]
    macro_roc: float
    macro_pr: float
    skipped_tags: tuple[str, ...]


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of values, each tie group given the mean of its ranks.

    A group covering sorted positions start..end-1 holds ranks start+1..end,
    whose mean is (start + end + 1) / 2. Values must be finite.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _ranking_inputs(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Scores as float64 and labels as 0/1 int64, checked as one ranking."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = _as_binary(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError("scores and labels must be 1-D and the same length")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    return scores, labels


def roc_auc(scores, labels) -> float:
    """P(random positive outranks random negative), ties half-credited.

    Computed from average ranks: U = sum of positive ranks minus the
    minimum possible, normalized by the pair count. Raises
    UndefinedMetricError when only one class is present and ValueError
    for a score that is not finite.
    """
    scores, labels = _ranking_inputs(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"ROC AUC needs both classes, got {n_pos} positives / {n_neg} negatives"
        )
    ranks = _average_ranks(scores)
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def pr_auc(scores, labels) -> float:
    """Average precision: mean precision at the rank of each positive.

    Items are ranked by descending score; equal scores keep their input
    order (stable sort), which makes tie behavior reproducible but input
    -order dependent. Raises UndefinedMetricError with zero positives and
    ValueError for a score that is not finite.
    """
    scores, labels = _ranking_inputs(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise UndefinedMetricError("PR AUC needs at least one positive")
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order]
    precision = np.cumsum(ranked) / np.arange(1, ranked.size + 1)
    return float(precision[ranked == 1].mean())


def macro_summary(table: TagTable) -> MetricSummary:
    """Per-tag ROC/PR AUC and their unweighted means over evaluable tags.

    A tag is evaluable when both classes appear in its labels; the rest
    are skipped and listed. Raises EmptySummaryError when nothing is
    evaluable.
    """
    kept_names: list[str] = []
    per_roc: list[float] = []
    per_pr: list[float] = []
    skipped: list[str] = []
    for j, name in enumerate(table.tag_names):
        column = table.labels[:, j]
        positives = int(column.sum())
        if positives == 0 or positives == column.size:
            skipped.append(name)
            continue
        kept_names.append(name)
        per_roc.append(roc_auc(table.scores[:, j], column))
        per_pr.append(pr_auc(table.scores[:, j], column))
    if not kept_names:
        raise EmptySummaryError("no tag has both classes present")
    return MetricSummary(
        tag_names=tuple(kept_names),
        per_tag_roc=tuple(per_roc),
        per_tag_pr=tuple(per_pr),
        macro_roc=float(np.mean(per_roc)),
        macro_pr=float(np.mean(per_pr)),
        skipped_tags=tuple(skipped),
    )


def t_test_independent(sample_a, sample_b) -> tuple[float, float]:
    """Two-sided Welch t-test: (t statistic, p value).

    Needs n >= 2 per sample. When both samples have zero variance the
    test statistic is 0/0: equal means return (0.0, 1.0) by convention,
    different means raise DegenerateVarianceError.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("samples must be 1-D")
    if a.size < 2 or b.size < 2:
        raise ValueError(f"each sample needs n >= 2, got {a.size} and {b.size}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("samples must be finite")
    mean_a, mean_b = a.mean(), b.mean()
    var_a = a.var(ddof=1)
    var_b = b.var(ddof=1)
    if var_a == 0.0 and var_b == 0.0:
        if mean_a == mean_b:
            return 0.0, 1.0
        raise DegenerateVarianceError(
            "both samples have zero variance with different means"
        )
    se_a = var_a / a.size
    se_b = var_b / b.size
    t = (mean_a - mean_b) / math.sqrt(se_a + se_b)
    df = (se_a + se_b) ** 2 / (
        (se_a**2 / (a.size - 1)) + (se_b**2 / (b.size - 1))
    )
    # Imported here so that importing the package does not load scipy.
    from scipy.special import stdtr

    p = 2.0 * float(stdtr(df, -abs(t)))
    return float(t), min(p, 1.0)


# --------------------------------------------------------------------- I/O

def read_tag_csv(path, labels: bool = False) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a (header of distinct tag names, one row per item) CSV of numbers.

    Cells are parsed by float() (spaces and digit underscores pass) and
    must be scores in [0, 1], or with labels=True exactly 0 or 1; the
    first that is not raises SchemaError naming its line and tag.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        records = [
            (i, cells)
            for i, cells in enumerate(csv.reader(fh), start=1)
            if any(cell.strip() for cell in cells)
        ]
    if not records:
        raise SchemaError(f"{path}: empty file")
    names = tuple(cell.strip() for cell in records[0][1])
    if "" in names:
        raise SchemaError(f"{path}: header column {names.index('') + 1} is empty")
    repeated = next((name for i, name in enumerate(names) if name in names[:i]), None)
    if repeated is not None:
        raise SchemaError(f"{path}: header repeats tag {repeated!r}")
    rows = []
    for i, cells in records[1:]:
        if len(cells) != len(names):
            raise SchemaError(
                f"{path}: line {i} has {len(cells)} cells, header has {len(names)}"
            )
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError as exc:
            raise SchemaError(f"{path}: line {i}: {exc}") from exc
    values = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(names))
    valid = (values == 0.0) | (values == 1.0) if labels else (values >= 0.0) & (values <= 1.0)
    if not valid.all():
        row, col = np.argwhere(~valid)[0]
        i, cells = records[row + 1]
        allowed = "a label of 0 or 1" if labels else "a finite score in [0, 1]"
        raise SchemaError(f"{path}: line {i}, tag {names[col]!r}: {cells[col]!r} is not {allowed}")
    return names, values


def load_tag_table(predictions_path, labels_path) -> TagTable:
    """Build a TagTable from a predictions CSV and a labels CSV.

    Headers must agree tag-for-tag in order; the first mismatch is named
    rather than silently realigned.
    """
    pred_names, scores = read_tag_csv(predictions_path)
    label_names, labels = read_tag_csv(labels_path, labels=True)
    if pred_names != label_names:
        if len(pred_names) != len(label_names):
            raise SchemaError(
                f"predictions have {len(pred_names)} tags, labels have "
                f"{len(label_names)}"
            )
        for pred, lab in zip(pred_names, label_names):
            if pred != lab:
                raise SchemaError(
                    f"tag header mismatch: predictions say {pred!r}, labels say "
                    f"{lab!r}"
                )
    if scores.shape[0] != labels.shape[0]:
        raise SchemaError(
            f"{scores.shape[0]} prediction rows vs {labels.shape[0]} label rows"
        )
    return TagTable(scores=scores, labels=labels, tag_names=pred_names)

