"""Ranking metrics for multi-tag scoring plus a two-sample significance test.

ROC AUC is computed as the Mann-Whitney rank statistic (ties half
credited), which coincides with the trapezoidal curve area but makes tie
handling exact. PR AUC is average precision: the mean of precision taken
at the rank of each positive, with ties broken by stable input order.
Macro summaries skip tags that lack both classes rather than scoring
them 0.5, and report which tags were skipped; roc_auc, pr_auc and the
macro summary share one ranking. Tag CSV bodies are parsed in one pass,
and walked line by line only to name a file's first bad line.

The significance test is Welch's (unequal-variance) two-sided t-test
with Welch-Satterthwaite degrees of freedom. Two degenerate-variance
samples with equal means conventionally give (t, p) = (0, 1); with
different means the test is undefined and raises.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

import numpy as np

from .config import first_repeat
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
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError(f"labels must be 0/1, found {np.unique(arr)[:8]}")
    return arr.astype(np.int64)


@dataclass(frozen=True, eq=False)
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
        scores = scores.copy()  # _as_binary already copied the labels
        scores.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "tag_names", names)


@dataclass(frozen=True)
class MetricSummary:
    """Per-tag AUCs for the evaluable tags plus their unweighted means."""

    tag_names: tuple[str, ...]
    per_tag_roc: tuple[float, ...]
    per_tag_pr: tuple[float, ...]
    macro_roc: float
    macro_pr: float
    skipped_tags: tuple[str, ...]


def _tie_bounds(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of each entry's tie group along the last axis of sorted rows.

    Returns (starts, ends): the group holding sorted position i covers
    positions starts[i] up to ends[i] - 1.
    """
    n = ordered.shape[-1]
    position = np.arange(n)
    first = np.ones(ordered.shape, dtype=bool)
    first[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    last = np.ones(ordered.shape, dtype=bool)
    last[..., :-1] = first[..., 1:]
    starts = np.maximum.accumulate(np.where(first, position, 0), axis=-1)
    ends = np.minimum.accumulate(np.where(last, position + 1, n)[..., ::-1], axis=-1)[..., ::-1]
    return starts, ends


def _ranked_rows(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Each row's Mann-Whitney U and average precision, from one stable sort.

    scores and 0/1 labels are (rows x items), and every row holds at least
    one positive. U is the positives' average-rank sum minus its minimum;
    rank sums add half-integers, exact in any order. Each AP is the mean of
    the precisions at one row's positives in stable descending-score order.
    """
    n_pos = labels.sum(axis=1)
    n_items = scores.shape[1]
    order = np.argsort(scores, axis=1, kind="stable")
    starts, ends = _tie_bounds(np.take_along_axis(scores, order, axis=1))
    hits = np.take_along_axis(labels, order, axis=1) == 1
    rank_sums = np.where(hits, (starts + ends + 1) / 2.0, 0.0).sum(axis=1)
    # Descending order with ties in input order: reverse the tie groups of
    # the ascending sort but not the items inside each.
    ranked = np.empty_like(hits)
    np.put_along_axis(ranked, n_items - ends + np.arange(n_items) - starts, hits, axis=1)
    at_hits = (np.cumsum(ranked, axis=1) / np.arange(1, n_items + 1))[ranked]
    run_ends = np.cumsum(n_pos)
    aps = [float(at_hits[end - count : end].mean()) for end, count in zip(run_ends, n_pos)]
    return rank_sums - n_pos * (n_pos + 1) / 2.0, aps


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
    u, _ = _ranked_rows(scores[np.newaxis], labels[np.newaxis])
    return float(u[0] / (n_pos * n_neg))


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
    _, (ap,) = _ranked_rows(scores[np.newaxis], labels[np.newaxis])
    return ap


def macro_summary(table: TagTable) -> MetricSummary:
    """Per-tag ROC/PR AUC and their unweighted means over evaluable tags.

    A tag is evaluable when both classes appear in its labels; the rest
    are skipped and listed. Raises EmptySummaryError when nothing is
    evaluable. roc_auc, pr_auc and this function share one ranking, so a
    tag's floats here are exactly theirs. One stable sort ranks all tags.
    """
    labels = table.labels.T
    positives = labels.sum(axis=1)
    n_items = labels.shape[1]
    kept = (positives > 0) & (positives < n_items)
    if not kept.any():
        raise EmptySummaryError("no tag has both classes present")
    u, per_pr = _ranked_rows(table.scores.T[kept], labels[kept])
    n_pos = positives[kept]
    per_roc = u / (n_pos * (n_items - n_pos))
    return MetricSummary(
        tag_names=tuple(compress(table.tag_names, kept)),
        per_tag_roc=tuple(per_roc.tolist()),
        per_tag_pr=tuple(per_pr),
        macro_roc=float(np.mean(per_roc)),
        macro_pr=float(np.mean(per_pr)),
        skipped_tags=tuple(compress(table.tag_names, ~kept)),
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

    A leading byte-order mark is dropped. Only the header may quote names.
    Lines end at \\r\\n, \\n or \\r; all-blank lines are skipped. Cells are
    parsed as float() parses them (spaces and digit underscores pass) and
    must be scores in [0, 1], or with labels=True exactly 0 or 1; the first
    that is not, or a quoted cell, raises SchemaError naming its line. Bytes
    that are not UTF-8, or a header the csv module refuses, raise
    SchemaError naming the file (and the first bad byte's offset in it).
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            for number, cells in enumerate(csv.reader(fh), start=1):
                if any(cell.strip() for cell in cells):
                    break
            else:
                raise SchemaError(f"{path}: empty file")
            body = fh.read()
    except UnicodeDecodeError as exc:
        # exc counts from the start of the decoder's chunk; decoding the
        # bytes in one piece counts from the start of the file, BOM included.
        try:
            Path(path).read_bytes().decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        raise SchemaError(f"{path}: {exc}") from exc
    except csv.Error as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    names = tuple(cell.strip() for cell in cells)
    if "" in names:
        raise SchemaError(f"{path}: header column {names.index('') + 1} is empty")
    repeated = first_repeat(names)
    if repeated is not None:
        raise SchemaError(f"{path}: header repeats tag {repeated!r}")
    lines = body.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    rows = [line for line in lines if line.replace(",", "").strip()]
    # A quoted cell never parses, nor does an empty body's one empty cell,
    # so both fail this pass and are walked line by line.
    if [row.count(",") for row in rows] == [len(names) - 1] * len(rows):
        try:
            values = np.array(",".join(rows).split(","), dtype=np.float64)
        except ValueError:
            pass
        else:
            values = values.reshape(len(rows), len(names))
            if _in_domain(values, labels).all():
                return names, values
    return names, _read_rows_in_order(path, names, lines, number + 1, labels)


def _in_domain(values: np.ndarray, labels: bool) -> np.ndarray:
    return (values == 0.0) | (values == 1.0) if labels else (values >= 0.0) & (values <= 1.0)


def _read_rows_in_order(path, names, lines, first_number: int, labels: bool) -> np.ndarray:
    """read_tag_csv's body one line at a time: its values, or SchemaError
    for the first bad line."""
    records = []
    for i, line in enumerate(lines, start=first_number):
        if not line.replace(",", "").strip():
            continue
        cells = line.split(",")
        if '"' in line:
            raise SchemaError(f"{path}: line {i}: quoted cells are only allowed in the header")
        if len(cells) != len(names):
            raise SchemaError(
                f"{path}: line {i} has {len(cells)} cells, header has {len(names)}"
            )
        try:
            records.append((i, cells, [float(cell) for cell in cells]))
        except ValueError as exc:
            raise SchemaError(f"{path}: line {i}: {exc}") from exc
    values = np.array([row for _, _, row in records], dtype=np.float64).reshape(-1, len(names))
    valid = _in_domain(values, labels)
    if not valid.all():
        row, col = np.argwhere(~valid)[0]
        i, cells, _ = records[row]
        allowed = "a label of 0 or 1" if labels else "a finite score in [0, 1]"
        raise SchemaError(f"{path}: line {i}, tag {names[col]!r}: {cells[col]!r} is not {allowed}")
    return values


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

